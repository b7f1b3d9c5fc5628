//! The four workloads and the calls each discovery makes into the library.
//!
//! Every workload uses the paper's protocol shape (48-bit codes, g = 24,
//! ε = 4) over streamed datasets; they differ in which layers do the work:
//!
//! * `population` — TAPS + k-RR on UBA (648k users): the per-report
//!   pipeline (stream → assignment → prefix/domain encode) dominates.
//! * `oracle` — TAP + OLH on TYS: OLH's per-report × per-candidate
//!   aggregate dominates, the only workload heavy in the `fo` layer.
//! * `federation` — TAPS on SYN over the node plane: a coordinator and two
//!   party ranks on loopback sockets, so wire, handshake and lockstep
//!   rounds are on the critical path.
//! * `epochs` — the epoch service over an evolving UBA population, with a
//!   budget ledger, warm-started tries and a checkpoint per epoch.

use crate::relay::{Relay, RelayStats};
use fedhh::datasets::{DatasetConfig, FederatedDataset, PartyData, PopulationEvolver};
use fedhh::federated::{
    connect_party_with_timeout, EpochExecutor, EpochOutput, EpochRecord, NodeServer, NodeWelcome,
    PartyPopulation, WarmSet, WarmStart,
};
use fedhh::prelude::*;
use fedhh_bench::epochs::{EpochServiceSpec, EpochsOptions, MechanismExecutor};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Per-read and per-accept timeout of every node-plane socket: a stuck
/// peer fails the discovery instead of hanging the benchmark.
pub const NODE_TIMEOUT: Duration = Duration::from_secs(30);

/// Party ranks of the `federation` workload.
pub const RANKS: usize = 2;

/// Epochs per cycle of the `epochs` workload: the lifetime cap of 20 at
/// ε = 4 lets every user report in epochs 0–4, so epochs 5–7 run at the
/// steady enrolment of the churned population.
pub const EPOCHS_PER_CYCLE: u32 = 8;

/// The mid-run checkpoint the `epochs` resume gate restarts from.
pub const RESUME_AFTER: u32 = 4;

/// Engine workers of every discovery; the federation's coordinator and
/// ranks run sequential engines too.  Outputs are bit-identical at any
/// parallelism, and one worker keeps a discovery's time independent of
/// whether a second core of a shared host is free: at two workers the
/// run-to-run spread of the `oracle` p50 was 67%, and the medians of the
/// `population` and `epochs` timings moved by up to 28% between sets.
pub const PARALLELISM: usize = 1;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TAPS, k-RR, k = 10, UBA at user scale 0.1, in memory.
    Population,
    /// TAP, OLH, k = 32, TYS at user scale 0.05, in memory.
    Oracle,
    /// TAPS, k-RR, k = 32, SYN at user scale 0.1, coordinator + 2 ranks.
    Federation,
    /// Epoch service, TAPS, k-RR, k = 10, UBA at user scale 0.05.
    Epochs,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 4] = [
        Workload::Population,
        Workload::Oracle,
        Workload::Federation,
        Workload::Epochs,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Population => "population",
            Workload::Oracle => "oracle",
            Workload::Federation => "federation",
            Workload::Epochs => "epochs",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The mechanism every discovery runs.
    pub fn mechanism(self) -> MechanismKind {
        match self {
            Workload::Oracle => MechanismKind::Tap,
            _ => MechanismKind::Taps,
        }
    }

    /// The frequency oracle.
    pub fn fo(self) -> FoKind {
        match self {
            Workload::Oracle => FoKind::Olh,
            _ => FoKind::Grr,
        }
    }

    /// The top-k size.
    pub fn k(self) -> usize {
        match self {
            Workload::Population | Workload::Epochs => 10,
            Workload::Oracle | Workload::Federation => 32,
        }
    }

    /// The dataset group.
    pub fn dataset(self) -> DatasetKind {
        match self {
            Workload::Population | Workload::Epochs => DatasetKind::Uba,
            Workload::Oracle => DatasetKind::Tys,
            Workload::Federation => DatasetKind::Syn,
        }
    }

    /// Multiplier on the paper's user populations.
    pub fn user_scale(self) -> f64 {
        match self {
            Workload::Population | Workload::Federation => 0.1,
            Workload::Oracle | Workload::Epochs => 0.05,
        }
    }

    /// The dataset generator configuration for run seed `seed`.
    pub fn dataset_config(self, seed: u64) -> DatasetConfig {
        DatasetConfig {
            user_scale: self.user_scale(),
            seed,
            ..DatasetConfig::paper_scale()
        }
    }

    /// The protocol configuration of one discovery.
    pub fn protocol_config(self, discovery_seed: u64) -> ProtocolConfig {
        ProtocolConfig {
            k: self.k(),
            fo: self.fo(),
            seed: discovery_seed,
            ..ProtocolConfig::default()
        }
    }

    /// The epoch-service spec of the `epochs` workload for run seed
    /// `seed`: churn 0.2, drift stride 1, warm start from the previous
    /// epoch, lifetime cap 20 (five epochs of ε = 4).
    pub fn epoch_spec(self, seed: u64) -> EpochServiceSpec {
        EpochsOptions {
            mechanism: self.mechanism(),
            dataset: self.dataset(),
            epochs: EPOCHS_PER_CYCLE,
            churn_fraction: 0.2,
            drift_stride: 1,
            epsilon: 4.0,
            epsilon_cap: Some(20.0),
            k: self.k(),
            seed,
            quick: false,
            user_scale: self.user_scale(),
            parallelism: PARALLELISM,
        }
        .spec(WarmStart::Previous)
    }
}

/// The protocol seed of discovery `index` of a run seeded `run_seed`
/// (SplitMix64, so neighbouring indices draw unrelated seeds).
pub fn discovery_seed(run_seed: u64, index: u64) -> u64 {
    let mut z = run_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a discovery's answer consists of, in a form that compares
/// bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// The federated heavy hitters, most frequent first.
    pub heavy_hitters: Vec<u64>,
    /// `(code, estimated count bits)`, sorted by code.
    pub count_bits: Vec<(u64, u64)>,
    /// `CommTracker` uplink bits.
    pub uplink_bits: u64,
    /// `CommTracker` downlink bits.
    pub downlink_bits: u64,
}

impl Answer {
    /// The answer of a mechanism run.
    pub fn of(output: &MechanismOutput) -> Self {
        let mut count_bits: Vec<(u64, u64)> = output
            .counts
            .iter()
            .map(|(code, count)| (*code, count.to_bits()))
            .collect();
        count_bits.sort_unstable();
        Self {
            heavy_hitters: output.heavy_hitters.clone(),
            count_bits,
            uplink_bits: output.comm.total_uplink_bits() as u64,
            downlink_bits: output.comm.total_downlink_bits() as u64,
        }
    }

    /// The answer of an epoch step.
    pub fn of_record(record: &EpochRecord) -> Self {
        Self {
            heavy_hitters: record.heavy_hitters.clone(),
            count_bits: record.count_bits.clone(),
            uplink_bits: record.uplink_bits,
            downlink_bits: record.downlink_bits,
        }
    }
}

/// One in-memory discovery with a recording observer attached.
pub fn in_memory(
    workload: Workload,
    dataset: &FederatedDataset,
    config: ProtocolConfig,
    engine: EngineConfig,
    telemetry: &Telemetry,
) -> Result<(MechanismOutput, RecordingObserver), ProtocolError> {
    let mut observer = RecordingObserver::new();
    let output = Run::mechanism(workload.mechanism())
        .dataset(dataset)
        .config(config)
        .engine(engine)
        .observer(&mut observer)
        .telemetry(telemetry)
        .execute()?;
    Ok((output, observer))
}

/// One discovery over the node plane.
#[derive(Debug)]
pub struct FederationRun {
    /// The coordinator's output.
    pub output: MechanismOutput,
    /// The coordinator's observer.
    pub observer: RecordingObserver,
    /// Every rank's answer, in spawn order.
    pub ranks: Vec<Answer>,
    /// `NodeServer::bind` through `accept_parties` (which completes the
    /// ranks' `connect_party_with_timeout` handshakes).
    pub handshake: Duration,
    /// What the counting relay saw, when the ranks dialled through it.
    pub relay: Option<RelayStats>,
}

/// Runs one discovery as a coordinator plus [`RANKS`] party ranks on
/// loopback sockets, each rank running a sequential engine over its half
/// of the parties.  With `relay`, the ranks dial a counting relay in front
/// of the coordinator.  `telemetry` is attached to the coordinator and
/// `rank_telemetry[r]`, when present, to rank `r`.
pub fn federation(
    workload: Workload,
    dataset: &FederatedDataset,
    config: ProtocolConfig,
    relay: bool,
    telemetry: &Telemetry,
    rank_telemetry: &[Telemetry],
) -> Result<FederationRun, String> {
    let start = Instant::now();
    let server = NodeServer::bind("127.0.0.1:0")
        .map_err(|e| format!("bind coordinator: {e}"))?
        .with_timeout(Some(NODE_TIMEOUT));
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let parties = dataset.party_count();
    let per_rank = parties.div_ceil(RANKS);
    let welcome = NodeWelcome {
        config,
        scenario: ScenarioPlan::benign(),
        parallelism: 1,
        assignments: (0..RANKS)
            .map(|r| {
                (
                    (r * per_rank).min(parties),
                    ((r + 1) * per_rank).min(parties),
                )
            })
            .collect(),
        app: Vec::new(),
    };
    let (dial, relay): (SocketAddr, Option<Relay>) = if relay {
        let relay = Relay::bind(addr, NODE_TIMEOUT).map_err(|e| format!("bind relay: {e}"))?;
        (relay.local_addr().map_err(|e| e.to_string())?, Some(relay))
    } else {
        (addr, None)
    };
    let mechanism = workload.mechanism();

    std::thread::scope(|scope| {
        let relay = relay.map(|relay| scope.spawn(move || relay.run(RANKS)));
        let ranks: Vec<_> = (0..RANKS)
            .map(|rank| {
                let telemetry = rank_telemetry.get(rank).cloned().unwrap_or_default();
                scope.spawn(move || -> Result<Answer, String> {
                    let (link, welcome) = connect_party_with_timeout(dial, Some(NODE_TIMEOUT))
                        .map_err(|e| format!("rank handshake: {e}"))?;
                    let output = Run::mechanism(mechanism)
                        .dataset(dataset)
                        .config(welcome.config)
                        .engine(EngineConfig::sequential())
                        .link(SessionLink::Party(link))
                        .telemetry(&telemetry)
                        .execute()
                        .map_err(|e| format!("rank run: {e}"))?;
                    Ok(Answer::of(&output))
                })
            })
            .collect();
        let coordinator = server
            .accept_parties(&welcome)
            .map_err(|e| format!("coordinator handshake: {e}"))
            .and_then(|link| {
                let handshake = start.elapsed();
                let mut observer = RecordingObserver::new();
                let output = Run::mechanism(mechanism)
                    .dataset(dataset)
                    .config(config)
                    .engine(EngineConfig::sequential())
                    .link(SessionLink::Coordinator(link))
                    .observer(&mut observer)
                    .telemetry(telemetry)
                    .execute()
                    .map_err(|e| format!("coordinator run: {e}"))?;
                Ok((output, observer, handshake))
            });
        // Join every thread before judging the outcome: a failed
        // coordinator closes its sockets, which ends the ranks and relay.
        let ranks: Vec<Result<Answer, String>> = ranks
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("rank panicked".into())))
            .collect();
        let relay = match relay {
            Some(h) => Some(h.join().map_err(|_| "relay panicked".to_string())?),
            None => None,
        };
        let (output, observer, handshake) = coordinator?;
        Ok(FederationRun {
            output,
            observer,
            ranks: ranks.into_iter().collect::<Result<_, _>>()?,
            handshake,
            relay,
        })
    })
}

/// Epoch `epoch`'s population restricted to the ledger-enrolled users —
/// the dataset `MechanismExecutor::run_epoch` runs the mechanism over.
pub fn enrolled_dataset(
    evolver: &PopulationEvolver,
    epoch: u32,
    enrollment: &[Vec<bool>],
) -> FederatedDataset {
    let full = evolver.epoch(epoch);
    let parties: Vec<PartyData> = full
        .parties()
        .iter()
        .enumerate()
        .map(|(p, party)| {
            let mask = enrollment.get(p);
            let kept: Vec<u64> = party
                .stream()
                .materialize()
                .into_iter()
                .enumerate()
                .filter(|(u, _)| mask.is_none_or(|m| m.get(*u).copied().unwrap_or(false)))
                .map(|(_, item)| item)
                .collect();
            PartyData::new(party.name(), kept, party.code_bits())
        })
        .collect();
    FederatedDataset::new(
        full.name().to_string(),
        parties,
        full.code_bits(),
        *full.encoder(),
    )
}

/// The inputs and results of one epoch the benchmark ran itself.
#[derive(Debug)]
pub struct EpochRun {
    /// The epoch index.
    pub epoch: u32,
    /// The enrolled population the mechanism ran over.
    pub dataset: FederatedDataset,
    /// The epoch's protocol configuration.
    pub config: ProtocolConfig,
    /// The mechanism's output.
    pub output: MechanismOutput,
    /// The mechanism's observer.
    pub observer: RecordingObserver,
}

/// Wraps [`MechanismExecutor`] for the `epochs` workload: times
/// `population`, keeps each epoch's enrolment and warm set, and — when
/// `instrumented` — runs the epoch itself with an observer and telemetry
/// attached instead of delegating, so the traced run sees the epoch's
/// rounds and levels.  The instrumented path must reproduce the
/// executor's records bit for bit, which the traced run checks.
pub struct BenchExecutor<'a> {
    inner: &'a mut MechanismExecutor,
    engine: EngineConfig,
    instrumented: Option<Telemetry>,
    /// Wall time of the last `population` call.
    pub population_time: Duration,
    /// Spans of the last epoch: `datasets.population` around
    /// `population`, and `datasets.enroll` around the instrumented path's
    /// build of the enrolled population.
    pub spans: Vec<(&'static str, Instant, Instant)>,
    /// The last epoch's populations.
    pub populations: Vec<PartyPopulation>,
    /// The last epoch's enrolment.
    pub enrollment: Vec<Vec<bool>>,
    /// The last epoch's warm set.
    pub warm: Option<WarmSet>,
    /// The last instrumented epoch.
    pub last_run: Option<EpochRun>,
}

impl<'a> BenchExecutor<'a> {
    /// Wraps `inner`, running epochs on `engine`; `instrumented` carries
    /// the telemetry sink of an instrumented executor.
    pub fn new(
        inner: &'a mut MechanismExecutor,
        engine: EngineConfig,
        instrumented: Option<Telemetry>,
    ) -> Self {
        Self {
            inner,
            engine,
            instrumented,
            population_time: Duration::ZERO,
            spans: Vec::new(),
            populations: Vec::new(),
            enrollment: Vec::new(),
            warm: None,
            last_run: None,
        }
    }
}

/// Runs epoch `epoch` of `exec`'s spec over `dataset` (already restricted
/// to the enrolled users), as `MechanismExecutor::run_epoch` does.
pub fn run_epoch_on(
    spec: &EpochServiceSpec,
    epoch: u32,
    dataset: &FederatedDataset,
    warm: Option<&WarmSet>,
    engine: EngineConfig,
    telemetry: &Telemetry,
) -> Result<(MechanismOutput, RecordingObserver), ProtocolError> {
    let mut observer = RecordingObserver::new();
    let mut run = Run::mechanism(spec.mechanism)
        .dataset(dataset)
        .config(spec.protocol_config(epoch))
        .engine(engine)
        .observer(&mut observer)
        .telemetry(telemetry);
    if let Some(warm) = warm {
        run = run.warm_start(warm.values.clone());
    }
    let output = run.execute()?;
    Ok((output, observer))
}

/// The epoch output `MechanismExecutor::run_epoch` derives from a run.
pub fn epoch_output(output: &MechanismOutput) -> EpochOutput {
    let mut counts: Vec<(u64, f64)> = output.counts.iter().map(|(c, n)| (*c, *n)).collect();
    counts.sort_by_key(|(code, _)| *code);
    EpochOutput {
        heavy_hitters: output.heavy_hitters.clone(),
        counts,
        uplink_bits: output.comm.total_uplink_bits() as u64,
        downlink_bits: output.comm.total_downlink_bits() as u64,
    }
}

impl EpochExecutor for BenchExecutor<'_> {
    fn population(&mut self, epoch: u32) -> Result<Vec<PartyPopulation>, ProtocolError> {
        let start = Instant::now();
        let populations = self.inner.population(epoch)?;
        let end = Instant::now();
        self.population_time = end - start;
        self.spans.push(("datasets.population", start, end));
        self.populations = populations.clone();
        Ok(populations)
    }

    fn run_epoch(
        &mut self,
        epoch: u32,
        enrollment: &[Vec<bool>],
        warm: Option<&WarmSet>,
    ) -> Result<EpochOutput, ProtocolError> {
        self.enrollment = enrollment.to_vec();
        self.warm = warm.cloned();
        let Some(telemetry) = &self.instrumented else {
            return self.inner.run_epoch(epoch, enrollment, warm);
        };
        let spec = self.inner.spec().clone();
        let start = Instant::now();
        let dataset = enrolled_dataset(self.inner.evolver(), epoch, enrollment);
        self.spans.push(("datasets.enroll", start, Instant::now()));
        let (output, observer) =
            run_epoch_on(&spec, epoch, &dataset, warm, self.engine, telemetry)?;
        let result = epoch_output(&output);
        self.last_run = Some(EpochRun {
            epoch,
            dataset,
            config: spec.protocol_config(epoch),
            output,
            observer,
        });
        Ok(result)
    }
}
