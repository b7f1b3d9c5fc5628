//! One benchmark run: set-up, the closed discovery loop, the correctness
//! gates, and the metrics of either the untraced (`--trace 0`) or the
//! traced (`--trace 1`, see `layers`) run.
//!
//! Both runs issue the same discoveries: an untimed warm-up, then
//! discoveries 1, 2, ... back to back, one at a time, until the run's
//! seconds are used up.  Discovery `i` uses protocol seed
//! `discovery_seed(seed, i)` over dataset `i mod DATASETS`.  The `epochs`
//! workload instead runs cycles of epochs, one service run per cycle.

use crate::layers::Layers;
use crate::relay::{Decoded, RelayStats};
use crate::report::{mean, median, peak_rss_mib, quantile, ratio, Outcome};
use crate::workloads::{
    discovery_seed, enrolled_dataset, federation, in_memory, run_epoch_on, Answer, BenchExecutor,
    Workload, EPOCHS_PER_CYCLE, PARALLELISM, RESUME_AFTER,
};
use fedhh::datasets::FederatedDataset;
use fedhh::federated::{checkpoint, EpochRecord, EpochRunner};
use fedhh::prelude::*;
use fedhh::telemetry::Counter;
use fedhh_bench::epochs::MechanismExecutor;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A run builds its inputs at least `MIN_SETUPS` times and keeps
/// building until `SETUP_BUDGET` has passed or `MAX_SETUPS` builds are
/// done; `setup_s` is [`setup_seconds`] of the builds.
pub const MIN_SETUPS: usize = 12;
/// See [`MIN_SETUPS`].
pub const MAX_SETUPS: usize = 25;
/// See [`MIN_SETUPS`].
pub const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Whether another set-up build is due after `times` (in seconds).
fn more_setups(times: &[f64]) -> bool {
    times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
}

/// The set-up time a run reports: the fastest of its builds.  Other load
/// on the host only ever adds time to a build (the same SYN build took
/// 0.58–0.99 s within a minute), so the fastest build is the one that
/// moves least with that load; the first quartile of 8 builds moved by
/// 29% between two sets of runs.
pub fn setup_seconds(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// What one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The workload seed: dataset generation and every discovery seed.
    pub seed: u64,
    /// How long the discovery loop runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// Failed correctness gates, by description.
#[derive(Debug, Default)]
pub struct Gates {
    failures: Vec<String>,
}

impl Gates {
    /// Records a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("gate failed: {what}");
            self.failures.push(what);
        }
    }

    /// Whether every gate held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// A scratch directory under the working directory for checkpoints,
/// removed when dropped.
pub(crate) struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> std::io::Result<Self> {
        let dir = Path::new(".bench_tmp").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub(crate) fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes `.bench_tmp` too, unless another run still uses it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Scores and counts a run accumulates over its timed discoveries.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) walls: Vec<f64>,
    reports: f64,
    f1: Vec<f64>,
    ncr: Vec<f64>,
    uplink_per_user: Vec<f64>,
    downlink_per_user: Vec<f64>,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
}

impl Tally {
    fn add(&mut self, wall: Duration, users: u64, truth: &[u64], answer: &Answer) {
        self.walls.push(ms(wall));
        self.reports += users as f64;
        self.f1.push(f1_score(truth, &answer.heavy_hitters));
        self.ncr.push(ncr_score(truth, &answer.heavy_hitters));
        self.uplink_per_user
            .push(answer.uplink_bits as f64 / users as f64);
        self.downlink_per_user
            .push(answer.downlink_bits as f64 / users as f64);
    }

    pub(crate) fn fail(&mut self, what: &str) {
        eprintln!("discovery failed: {what}");
        self.failed += 1;
    }

    /// `peak_rss_mb` is the process's peak resident set sampled when the
    /// timed loop ends, before the wire counts and gates, whose relay
    /// captures and extra runs are the benchmark's, not the workload's.
    fn end_to_end(&self, outcome: &mut Outcome, setup: &[f64], wire_bytes: f64, peak_rss_mb: f64) {
        let m = &mut outcome.metrics;
        m.insert("setup_s", setup_seconds(setup));
        m.insert("discovery_ms.p50", median(&self.walls));
        m.insert("discovery_ms.p90", quantile(&self.walls, 0.9));
        m.insert(
            "ns_per_report",
            ratio(self.walls.iter().sum::<f64>() * 1e6, self.reports),
        );
        m.insert("f1", mean(&self.f1));
        m.insert("ncr", mean(&self.ncr));
        m.insert("uplink_bits_per_user", mean(&self.uplink_per_user));
        m.insert("downlink_bits_per_user", mean(&self.downlink_per_user));
        m.insert("wire_bytes_per_discovery", wire_bytes);
        m.insert("peak_rss_mb", peak_rss_mb);
        m.insert(
            "completed_share",
            ratio((self.attempted - self.failed) as f64, self.attempted as f64),
        );
        eprintln!(
            "{} timed discoveries, {} attempted, {} failed",
            self.walls.len(),
            self.attempted,
            self.failed
        );
    }
}

/// Runs `plan` and returns its outcome; the metrics are the end-to-end
/// catalogue for an untraced run and the per-layer catalogue for a traced
/// one.
pub fn run(plan: Plan) -> Outcome {
    let mut gates = Gates::default();
    let mut outcome = match plan.workload {
        Workload::Epochs => epochs(plan, &mut gates),
        _ => one_shot(plan, &mut gates),
    };
    gates.check(outcome.attempted > outcome.failed, || {
        "no discovery completed".into()
    });
    outcome.correct = gates.passed();
    outcome
}

/// Distinct datasets a one-shot run rotates its discoveries over, so one
/// run averages over several draws of the population.
pub const DATASETS: u64 = 8;

/// One of a run's datasets with its exact top-k.
struct Input {
    dataset: FederatedDataset,
    truth: Vec<u64>,
}

/// Builds the workload's [`DATASETS`] datasets (dataset build plus
/// configuration validation), repeating builds in turn as [`MIN_SETUPS`]
/// describes.  Returns the datasets with every build's time in seconds.
fn setup_inputs(plan: Plan, gates: &mut Gates) -> (Vec<Input>, Vec<f64>) {
    let w = plan.workload;
    let mut times = Vec::new();
    let mut built: Vec<FederatedDataset> = Vec::new();
    while more_setups(&times) || (built.len() as u64) < DATASETS {
        let j = times.len() as u64 % DATASETS;
        let start = Instant::now();
        let dataset = w
            .dataset_config(dataset_seed(plan.seed, j))
            .build_streamed(w.dataset());
        let valid = w.protocol_config(plan.seed).validate();
        times.push(start.elapsed().as_secs_f64());
        gates.check(valid.is_ok(), || {
            format!("invalid configuration: {valid:?}")
        });
        if built.len() as u64 == j {
            built.push(dataset);
        }
    }
    let inputs: Vec<Input> = built
        .into_iter()
        .map(|dataset| Input {
            truth: dataset.ground_truth_top_k(w.k()),
            dataset,
        })
        .collect();
    eprintln!(
        "{}: {} datasets of {} users in {} parties, set-up {:.3} s (fastest of {})",
        w.name(),
        inputs.len(),
        inputs[0].dataset.total_users(),
        inputs[0].dataset.party_count(),
        setup_seconds(&times),
        times.len()
    );
    (inputs, times)
}

/// The generation seed of dataset `j` of a run seeded `seed`; dataset 0
/// uses the run seed itself.
fn dataset_seed(seed: u64, j: u64) -> u64 {
    if j == 0 {
        seed
    } else {
        discovery_seed(seed ^ 0x0DA7_A5E7, j)
    }
}

/// A discovery's answer, wall time and what it recorded.
pub(crate) struct OneShot {
    pub(crate) answer: Answer,
    pub(crate) wall: Duration,
    pub(crate) output: MechanismOutput,
    pub(crate) observer: RecordingObserver,
    pub(crate) handshake: Duration,
    pub(crate) relay: Option<RelayStats>,
}

/// Runs one discovery of a one-shot workload, untraced unless `telemetry`
/// is enabled, and checks the per-discovery gates.
#[allow(clippy::too_many_arguments)]
pub(crate) fn discover(
    w: Workload,
    dataset: &FederatedDataset,
    config: ProtocolConfig,
    engine: EngineConfig,
    telemetry: &Telemetry,
    rank_telemetry: &[Telemetry],
    relay: bool,
    gates: &mut Gates,
) -> Result<OneShot, String> {
    let start = Instant::now();
    let (output, observer, handshake, relay, ranks) = if w == Workload::Federation {
        let run = federation(w, dataset, config, relay, telemetry, rank_telemetry)?;
        (
            run.output,
            run.observer,
            run.handshake,
            run.relay,
            run.ranks,
        )
    } else {
        let (output, observer) =
            in_memory(w, dataset, config, engine, telemetry).map_err(|e| e.to_string())?;
        (output, observer, Duration::ZERO, None, Vec::new())
    };
    let wall = start.elapsed();
    let answer = Answer::of(&output);
    gates.check(answer.heavy_hitters.len() == config.k, || {
        format!(
            "seed {}: {} heavy hitters, not k = {}",
            config.seed,
            answer.heavy_hitters.len(),
            config.k
        )
    });
    gates.check(
        observer.total_uplink_bits() as u64 == answer.uplink_bits,
        || {
            format!(
                "seed {}: observer uplink != CommTracker uplink",
                config.seed
            )
        },
    );
    for (rank, rank_answer) in ranks.iter().enumerate() {
        gates.check(rank_answer == &answer, || {
            format!(
                "seed {}: rank {rank} differs from the coordinator",
                config.seed
            )
        });
    }
    Ok(OneShot {
        answer,
        wall,
        output,
        observer,
        handshake,
        relay,
    })
}

/// Discoveries whose real socket bytes a run counts.
pub const WIRE_DISCOVERIES: usize = 10;

/// Real socket bytes of one discovery: over the counting relay for
/// `federation` (both directions), over the socket transport
/// (`TransportKind::Tcp`, uploads) for the in-memory workloads.
#[derive(Debug, Default)]
pub(crate) struct WireCount {
    pub(crate) bytes: u64,
    pub(crate) frames: u64,
    pub(crate) downlink_bytes: u64,
    pub(crate) logical_downlink_bits: u64,
    /// The relay's counts, its capture already decoded and dropped.
    pub(crate) relay: Option<(RelayStats, Decoded)>,
}

/// Runs discovery `config` once more with its bytes counted.  Byte counts
/// are a pure function of the seed, so the timed discoveries stay direct;
/// the counted one must reproduce their answer, `reference`.
fn wire_count(
    w: Workload,
    dataset: &FederatedDataset,
    config: ProtocolConfig,
    reference: &Answer,
    gates: &mut Gates,
    tally: &mut Tally,
) -> Option<WireCount> {
    tally.attempted += 1;
    let telemetry = Telemetry::new();
    let engine = EngineConfig::parallel(PARALLELISM).transport(TransportKind::Tcp);
    let run = match discover(w, dataset, config, engine, &telemetry, &[], true, gates) {
        Ok(run) => run,
        Err(err) => {
            tally.fail(&err);
            return None;
        }
    };
    gates.check(&run.answer == reference, || {
        format!("seed {}: the wire-counted discovery differs", config.seed)
    });
    let logical_downlink_bits = reference.downlink_bits;
    Some(match run.relay {
        Some(mut relay) => {
            let decoded = relay.decode_all();
            relay.captured = Vec::new();
            gates.check(decoded.frame_bytes == relay.total_bytes(), || {
                format!(
                    "relay counted {} bytes, its frames add up to {}",
                    relay.total_bytes(),
                    decoded.frame_bytes
                )
            });
            gates.check(relay.errors + decoded.failures == 0, || {
                format!("relay saw {} errors", relay.errors + decoded.failures)
            });
            WireCount {
                bytes: relay.total_bytes(),
                frames: relay.frames,
                downlink_bytes: relay.downlink_bytes,
                logical_downlink_bits,
                relay: Some((relay, decoded)),
            }
        }
        None => {
            let snapshot = telemetry.snapshot();
            WireCount {
                bytes: snapshot.counter(Counter::WireTxBytes),
                frames: snapshot.counter(Counter::WireTxFrames),
                logical_downlink_bits,
                ..WireCount::default()
            }
        }
    })
}

fn one_shot(plan: Plan, gates: &mut Gates) -> Outcome {
    let w = plan.workload;
    let (inputs, setup) = setup_inputs(plan, gates);
    // Discovery `i` runs over dataset `i mod DATASETS`.
    let input = |i: u64| &inputs[(i % inputs.len() as u64) as usize];
    let engine = EngineConfig::parallel(PARALLELISM);
    let off = Telemetry::disabled();
    let config = |i: u64| w.protocol_config(discovery_seed(plan.seed, i));
    let mut tally = Tally::default();
    let mut layers = Layers::default();

    // Warm-up: one untimed, unscored discovery over every dataset.
    for input in &inputs {
        tally.attempted += 1;
        if let Err(err) = discover(
            w,
            &input.dataset,
            config(0),
            engine,
            &off,
            &[],
            false,
            gates,
        ) {
            tally.fail(&err);
        }
    }

    let loop_start = Instant::now();
    // The answers of the first timed discoveries, for the wire counts.
    let mut answers: Vec<(u64, Answer)> = Vec::new();
    let mut i = 1;
    while i == 1 || loop_start.elapsed().as_secs_f64() < plan.seconds {
        tally.attempted += 1;
        let Input { dataset, truth } = input(i);
        match discover(w, dataset, config(i), engine, &off, &[], false, gates) {
            Ok(run) => {
                tally.add(run.wall, dataset.total_users() as u64, truth, &run.answer);
                if plan.trace {
                    layers.traced_one_shot(
                        w,
                        dataset,
                        config(i),
                        engine,
                        &run,
                        i,
                        gates,
                        &mut tally,
                    );
                }
                if answers.len() < WIRE_DISCOVERIES {
                    answers.push((i, run.answer));
                }
            }
            Err(err) => tally.fail(&err),
        }
        i += 1;
    }
    let peak_rss_mb = peak_rss_mib();

    if w == Workload::Federation {
        // The node plane must agree with the in-memory engine.
        if let Some((index, reference)) = answers.first() {
            tally.attempted += 1;
            let dataset = &input(*index).dataset;
            match in_memory(w, dataset, config(*index), EngineConfig::sequential(), &off) {
                Ok((output, _)) => gates.check(&Answer::of(&output) == reference, || {
                    "the federation differs from the in-memory engine".into()
                }),
                Err(err) => tally.fail(&err.to_string()),
            }
        }
    }
    let wires: Vec<WireCount> = answers
        .iter()
        .filter_map(|(index, answer)| {
            wire_count(
                w,
                &input(*index).dataset,
                config(*index),
                answer,
                gates,
                &mut tally,
            )
        })
        .collect();
    let wire_bytes: Vec<f64> = wires.iter().map(|c| c.bytes as f64).collect();

    let mut outcome = Outcome::default();
    if plan.trace {
        layers.wire(&wires);
        layers
            .metrics
            .insert("datasets.build_s", setup_seconds(&setup));
        layers.finish(&mut outcome, &tally);
    } else {
        tally.end_to_end(&mut outcome, &setup, mean(&wire_bytes), peak_rss_mb);
    }
    outcome.attempted = tally.attempted;
    outcome.failed = tally.failed;
    outcome
}

fn epochs(plan: Plan, gates: &mut Gates) -> Outcome {
    let w = plan.workload;
    let spec = w.epoch_spec(plan.seed);
    let mut setup = Vec::new();
    let mut built = None;
    while more_setups(&setup) {
        let start = Instant::now();
        let exec = MechanismExecutor::new(spec.clone());
        let valid = spec.protocol_config(0).validate();
        setup.push(start.elapsed().as_secs_f64());
        gates.check(valid.is_ok(), || {
            format!("invalid configuration: {valid:?}")
        });
        built = Some(exec);
    }
    let engine = EngineConfig::parallel(PARALLELISM);
    let mut exec = built.expect("at least one set-up").with_engine(engine);
    eprintln!(
        "epochs: {} user slots in {} parties, set-up {:.3} s (fastest of {})",
        exec.evolver().base().total_users(),
        exec.evolver().base().party_count(),
        setup_seconds(&setup),
        setup.len()
    );
    let truths: Vec<Vec<u64>> = (0..EPOCHS_PER_CYCLE)
        .map(|e| exec.ground_truth(e, w.k()))
        .collect();
    let scratch = match ScratchDir::new() {
        Ok(dir) => dir,
        Err(err) => {
            gates.check(false, || {
                format!("cannot create the checkpoint directory: {err}")
            });
            return Outcome::default();
        }
    };
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let mut outcome = Outcome::default();

    // Warm-up cycle: untimed, checkpointing every epoch, with the resume
    // gate from the mid-run checkpoint.  Its records are the reference
    // every timed cycle must repeat.
    let reference = warm_up_cycle(&spec, &mut exec, &scratch, gates, &mut tally);
    let Some((reference, plans)) = reference else {
        outcome.attempted = tally.attempted;
        outcome.failed = tally.failed;
        return outcome;
    };

    let loop_start = Instant::now();
    // Cycle 0 repeats the warm-up cycle, whose records it must reproduce.
    // Every later cycle is a fresh service run with a seed of its own
    // (population, churn and protocol), so one run averages over several
    // draws; its executor and exact top-k are built outside the timing.
    let mut cycle = 0u64;
    while cycle == 0 || loop_start.elapsed().as_secs_f64() < plan.seconds {
        let mut fresh = (cycle > 0).then(|| {
            let exec = MechanismExecutor::new(w.epoch_spec(discovery_seed(plan.seed, cycle)))
                .with_engine(engine);
            let truths: Vec<Vec<u64>> = (0..EPOCHS_PER_CYCLE)
                .map(|e| exec.ground_truth(e, w.k()))
                .collect();
            (exec, truths)
        });
        let (exec, truths) = match fresh.as_mut() {
            Some((exec, truths)) => (exec, &*truths),
            None => (&mut exec, &truths),
        };
        let cycle_spec = exec.spec().clone();
        let mut runner = EpochRunner::new(cycle_spec.epoch_config(), cycle_spec.to_spec_bytes());
        runner.checkpoint_to(scratch.file("cycle.ckpt"));
        let mut twin = plan.trace.then(|| {
            let mut twin = EpochRunner::new(cycle_spec.epoch_config(), cycle_spec.to_spec_bytes());
            twin.checkpoint_to(scratch.file("traced.ckpt"));
            twin
        });
        for epoch in 0..EPOCHS_PER_CYCLE {
            tally.attempted += 1;
            let start = Instant::now();
            let record = match runner.step(exec) {
                Ok(Some(record)) => record.clone(),
                Ok(None) => break,
                Err(err) => {
                    tally.fail(&err.to_string());
                    break;
                }
            };
            let wall = start.elapsed();
            let answer = Answer::of_record(&record);
            gates.check(answer.heavy_hitters.len() == w.k(), || {
                format!(
                    "epoch {epoch}: {} heavy hitters",
                    answer.heavy_hitters.len()
                )
            });
            if cycle == 0 {
                gates.check(reference.get(epoch as usize) == Some(&record), || {
                    format!("epoch {epoch} differs from the warm-up cycle")
                });
            }
            tally.add(
                wall,
                record.enrolled_users,
                &truths[epoch as usize],
                &answer,
            );
            if let Some(twin) = twin.as_mut() {
                layers.traced_epoch(twin, exec, engine, &record, &scratch, gates, &mut tally);
            }
        }
        cycle += 1;
    }
    let peak_rss_mb = peak_rss_mib();

    // Wire cost: every epoch of the cycle once more over the socket
    // transport; each must reproduce its record.
    let mut wire_bytes = Vec::new();
    let mut wire_frames = 0;
    for (epoch, (enrollment, warm)) in plans.iter().enumerate() {
        tally.attempted += 1;
        let epoch = epoch as u32;
        let dataset = enrolled_dataset(exec.evolver(), epoch, enrollment);
        let telemetry = Telemetry::new();
        let tcp = engine.transport(TransportKind::Tcp);
        match run_epoch_on(exec.spec(), epoch, &dataset, warm.as_ref(), tcp, &telemetry) {
            Ok((output, observer)) => {
                let answer = Answer::of(&output);
                gates.check(
                    Some(&answer)
                        == reference
                            .get(epoch as usize)
                            .map(Answer::of_record)
                            .as_ref(),
                    || format!("epoch {epoch} over the socket transport differs from its record"),
                );
                gates.check(
                    observer.total_uplink_bits() as u64 == answer.uplink_bits,
                    || format!("epoch {epoch}: observer uplink != CommTracker uplink"),
                );
                let snapshot = telemetry.snapshot();
                wire_bytes.push(snapshot.counter(Counter::WireTxBytes) as f64);
                wire_frames += snapshot.counter(Counter::WireTxFrames);
            }
            Err(err) => tally.fail(&err.to_string()),
        }
    }
    if plan.trace {
        layers
            .metrics
            .insert("datasets.build_s", setup_seconds(&setup));
        layers
            .metrics
            .insert("wire.uplink_bytes", mean(&wire_bytes));
        layers.metrics.insert(
            "wire.frames",
            ratio(wire_frames as f64, wire_bytes.len() as f64),
        );
        layers.finish(&mut outcome, &tally);
    } else {
        tally.end_to_end(&mut outcome, &setup, mean(&wire_bytes), peak_rss_mb);
    }
    outcome.attempted = tally.attempted;
    outcome.failed = tally.failed;
    outcome
}

/// The enrolment and warm set each epoch of a cycle ran with.
type EpochPlan = (Vec<Vec<bool>>, Option<fedhh::federated::WarmSet>);

/// Runs the untimed warm-up cycle and the resume gate: a runner resumed
/// from the checkpoint written after epoch [`RESUME_AFTER`] must
/// reproduce the remaining records bit for bit.  Returns the cycle's
/// records and each epoch's enrolment and warm set.
fn warm_up_cycle(
    spec: &fedhh_bench::epochs::EpochServiceSpec,
    exec: &mut MechanismExecutor,
    scratch: &ScratchDir,
    gates: &mut Gates,
    tally: &mut Tally,
) -> Option<(Vec<EpochRecord>, Vec<EpochPlan>)> {
    let engine = EngineConfig::sequential();
    let mut bench = BenchExecutor::new(exec, engine, None);
    let mut runner = EpochRunner::new(spec.epoch_config(), spec.to_spec_bytes());
    let path = scratch.file("warmup.ckpt");
    runner.checkpoint_to(&path);
    let mut plans = Vec::new();
    let mut resumed = None;
    for epoch in 0..EPOCHS_PER_CYCLE {
        tally.attempted += 1;
        if let Err(err) = runner.step(&mut bench) {
            tally.fail(&err.to_string());
            return None;
        }
        plans.push((bench.enrollment.clone(), bench.warm.clone()));
        if epoch + 1 == RESUME_AFTER {
            resumed = Some(
                checkpoint::load(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|ckpt| {
                        EpochRunner::resume(spec.epoch_config(), spec.to_spec_bytes(), ckpt)
                            .map_err(|e| e.to_string())
                    }),
            );
        }
    }
    let reference = runner.records().to_vec();
    match resumed {
        Some(Ok(mut resumed)) => {
            resumed.checkpoint_to(scratch.file("resumed.ckpt"));
            tally.attempted += 1;
            match resumed.run(&mut bench) {
                Ok(()) => gates.check(resumed.records() == reference.as_slice(), || {
                    "the resumed run differs from the uninterrupted one".into()
                }),
                Err(err) => tally.fail(&err.to_string()),
            }
        }
        Some(Err(err)) => gates.check(false, || format!("resume failed: {err}")),
        None => gates.check(false, || "no mid-run checkpoint".into()),
    }
    Some((reference, plans))
}
