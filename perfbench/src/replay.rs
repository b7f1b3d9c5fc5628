//! Per-layer replay of one discovery.
//!
//! After a traced discovery, the benchmark calls the public functions of
//! each layer again on the discovery's own inputs and seeds, timing each
//! call from this file: the party streams (`datasets`), the user-to-level
//! assignment (`scheduler`), the prefix/domain encode (`estimator`), the
//! frequency-oracle kernels (`fo`) and the server's aggregation and top-k
//! (`server`).
//!
//! What the replay checks against the discovery, and what it cannot:
//!
//! * The streams and the assignment are the discovery's own: every user
//!   is streamed and assigned once, and each level estimate's reporting
//!   users must be exactly its level group, or the group less the TAPS
//!   validation splits.
//! * The server replay aggregates the discovery's final reports again and
//!   must rank the same top-k.
//! * The encode and FO replay is same-size work, not the discovery's own
//!   computation: each level's reporting users are encoded into a domain
//!   of the level's candidate count, but the candidate values are filled
//!   in from the group's own prefixes (the real ones come out of the trie
//!   and are not recorded), so the perturbed reports differ from the
//!   discovery's.  Its report bits must equal the observer's, which pins
//!   the report count and shape, not the reports.  TAPS' validation
//!   estimates are not replayed: the observer records no candidate count
//!   for them.

use fedhh::datasets::{FederatedDataset, PopulationEvolver};
use fedhh::federated::{
    aggregate_reports_into, top_k_from_counts, GroupAssignment, LevelEstimated, NullObserver,
    ProtocolConfig, RecordingObserver,
};
use fedhh::fo::{CandidateDomain, FrequencyOracle, Oracle, Report, SupportCounts};
use fedhh::mechanisms::{MechanismOutput, RunContext};
use fedhh::trie::Prefix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Chunk size the replay streams party items in.
const STREAM_CHUNK: usize = 8192;

/// Counts and times of one replayed discovery.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Replay {
    /// Items streamed from the parties' `ItemStream`s.
    pub items: u64,
    /// Time spent streaming them.
    pub stream_ns: u64,
    /// Users assigned to levels.
    pub assigned_users: u64,
    /// Time spent in `GroupAssignment`.
    pub assign_ns: u64,
    /// Level estimates replayed (observer events with reporting users).
    pub calls: u64,
    /// Σ candidates over those estimates.
    pub candidates: u64,
    /// Reports encoded, perturbed and aggregated.
    pub reports: u64,
    /// Σ `Report::size_bits` of the perturbed reports.
    pub report_bits: u64,
    /// Time spent building domains and encoding prefixes.
    pub encode_ns: u64,
    /// Time spent in `Oracle::perturb_batch`.
    pub perturb_ns: u64,
    /// Time spent in `Oracle::aggregate_into`.
    pub aggregate_ns: u64,
    /// Distinct trie levels estimated.
    pub levels: u64,
    /// Σ candidates removed by consensus pruning.
    pub pruned: u64,
    /// `(candidate, count)` pairs the server aggregated.
    pub server_pairs: u64,
    /// Time spent in `aggregate_reports_into` + `top_k_from_counts`.
    pub server_ns: u64,
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// `count` distinct `len`-bit prefixes for a replayed candidate domain:
/// the level group's own prefixes in order of first appearance, then the
/// smallest unused values.  A level's real candidates are `count`
/// distinct `len`-bit prefixes too, so the domain has the real size.
fn candidate_values(group: &[u64], max_bits: u8, len: u8, count: usize) -> Vec<u64> {
    let mut seen = HashSet::with_capacity(count);
    let mut values = Vec::with_capacity(count);
    for &item in group {
        if values.len() == count {
            break;
        }
        let prefix = Prefix::of_item(item, max_bits, len).value();
        if seen.insert(prefix) {
            values.push(prefix);
        }
    }
    let mut next = 0u64;
    while values.len() < count {
        if seen.insert(next) {
            values.push(next);
        }
        next += 1;
    }
    values
}

/// Replays discovery `config` over `dataset`, as recorded by `observer`.
/// `output` enables the server replay (its final reports are aggregated
/// again and must reproduce its heavy hitters).
///
/// Fails with a description when any replayed count disagrees with the
/// discovery's.
pub fn replay(
    dataset: &FederatedDataset,
    config: &ProtocolConfig,
    observer: &RecordingObserver,
    output: Option<&MechanismOutput>,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let schedule = config.schedule();
    let budget = config.budget().map_err(|e| e.to_string())?;
    let mut null = NullObserver;
    let ctx = RunContext::new(dataset, *config, &mut null);
    let party_index: HashMap<&str, usize> = dataset
        .parties()
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name(), i))
        .collect();
    let mut by_party: Vec<Vec<&LevelEstimated>> = vec![Vec::new(); dataset.party_count()];
    for event in observer.level_events().filter(|e| e.users > 0) {
        let idx = *party_index
            .get(event.party.as_str())
            .ok_or_else(|| format!("observer names unknown party {}", event.party))?;
        by_party[idx].push(event);
    }

    let mut levels = HashSet::new();
    let mut inputs: Vec<usize> = Vec::new();
    let mut reports: Vec<Report> = Vec::new();
    for (p, events) in by_party.iter().enumerate() {
        // datasets: the party's stream, chunk by chunk.
        let start = Instant::now();
        let stream = ctx.party_stream(p);
        let mut items = Vec::with_capacity(stream.len());
        let mut chunks = stream.chunks(STREAM_CHUNK);
        while let Some(chunk) = chunks.next_chunk() {
            items.extend_from_slice(chunk);
        }
        out.stream_ns += elapsed_ns(start);
        out.items += items.len() as u64;

        // scheduler: the mechanism's user-to-level assignment, same seed.
        let start = Instant::now();
        let assignment = GroupAssignment::weighted_owned(
            items,
            config.granularity,
            config.shared_levels(),
            config.phase1_user_fraction,
            ctx.party_seed(p),
        )
        .map_err(|e| e.to_string())?;
        out.assign_ns += elapsed_ns(start);
        out.assigned_users += assignment.total_users() as u64;

        for event in events {
            let h = event.level;
            if h == 0 || h > assignment.levels() {
                return Err(format!("observer reports level {h} outside the schedule"));
            }
            let group = assignment.level(h);
            // A level estimate reads its whole group, or — on a TAPS
            // pruning level — what is left after the two validation
            // splits of `dividing_ratio` each come off the front.
            let split = (group.len() as f64 * config.dividing_ratio).floor() as usize;
            let val0 = split.min(group.len());
            let val1 = split.min(group.len() - val0);
            let main = group.len() - val0 - val1;
            if event.users != group.len() && event.users != main {
                return Err(format!(
                    "{} level {h}: {} reporting users, but the level group holds {} \
                     ({main} after the validation splits)",
                    event.party,
                    event.users,
                    group.len()
                ));
            }
            let users = &group[group.len() - event.users..];
            let len = schedule.prefix_len(h);
            levels.insert(h);
            out.calls += 1;
            out.candidates += event.candidates as u64;
            out.reports += users.len() as u64;

            // estimator: domain build + per-report prefix encode.
            let values = candidate_values(users, config.max_bits, len, event.candidates);
            let start = Instant::now();
            let domain = CandidateDomain::with_dummy(values);
            inputs.clear();
            for &item in users {
                let prefix = Prefix::of_item(item, config.max_bits, len).value();
                inputs.push(domain.encode(&prefix).expect("domain has a dummy slot"));
            }
            out.encode_ns += elapsed_ns(start);

            // fo: perturb and aggregate the level's reports.
            let Ok(oracle) = Oracle::try_new(config.fo, budget, domain.len()) else {
                if event.report_bits != 0 {
                    return Err(format!("{} level {h}: no oracle but reports", event.party));
                }
                continue;
            };
            let mut rng =
                StdRng::seed_from_u64(config.seed ^ ctx.party_seed(p) ^ (u64::from(h) << 40));
            reports.clear();
            let start = Instant::now();
            oracle.perturb_batch(&inputs, &mut rng, &mut reports);
            out.perturb_ns += elapsed_ns(start);
            let mut supports = SupportCounts::zeros(domain.len());
            let start = Instant::now();
            oracle.aggregate_into(&reports, &mut supports);
            out.aggregate_ns += elapsed_ns(start);
            std::hint::black_box(&supports);
            let bits: usize = reports.iter().map(Report::size_bits).sum();
            if bits != event.report_bits {
                return Err(format!(
                    "{} level {h}: replay produced {bits} report bits, the discovery {}",
                    event.party, event.report_bits
                ));
            }
            out.report_bits += bits as u64;
        }
    }
    out.levels = levels.len() as u64;
    out.pruned = observer
        .pruning_events()
        .map(|e| e.pruned.len() as u64)
        .sum();

    if out.items != dataset.total_users() as u64 || out.assigned_users != out.items {
        return Err(format!(
            "replay streamed {} items and assigned {} users for {} users",
            out.items,
            out.assigned_users,
            dataset.total_users()
        ));
    }
    if out.report_bits != observer.total_report_bits() as u64 {
        return Err(format!(
            "replay report bits {} != observer report bits {}",
            out.report_bits,
            observer.total_report_bits()
        ));
    }

    if let Some(output) = output {
        let reports: Vec<_> = output
            .local_results
            .iter()
            .map(|local| local.to_report(config.granularity))
            .collect();
        let start = Instant::now();
        let mut totals = HashMap::new();
        aggregate_reports_into(&reports, &mut totals);
        let top = top_k_from_counts(&totals, config.k);
        out.server_ns += elapsed_ns(start);
        out.server_pairs = reports.iter().map(|r| r.candidates.len() as u64).sum();
        if top != output.heavy_hitters {
            return Err("server replay ranks a different top-k than the discovery".into());
        }
    }
    Ok(out)
}

/// Replaces `out`'s `datasets` figures for an epoch of the epoch service
/// with the stream the program reads: epoch `epoch`'s full population
/// from `evolver`, chunk by chunk, filtered to the users `enrollment`
/// marks, as `MechanismExecutor::run_epoch` reads it.  (The replay's own
/// stream reads the already restricted copy, which costs next to
/// nothing.)  The enrolled users among the streamed slots must be the
/// users the replay assigned, and the slots must number `slots`.
pub fn replay_epoch_stream(
    out: &mut Replay,
    evolver: &PopulationEvolver,
    epoch: u32,
    enrollment: &[Vec<bool>],
    slots: u64,
) -> Result<(), String> {
    let start = Instant::now();
    let full = evolver.epoch(epoch);
    let (mut items, mut enrolled) = (0u64, 0u64);
    for (p, party) in full.parties().iter().enumerate() {
        let stream = party.stream();
        let mut chunks = stream.chunks(STREAM_CHUNK);
        let mask = enrollment.get(p);
        let mut slot = 0;
        while let Some(chunk) = chunks.next_chunk() {
            std::hint::black_box(chunk);
            enrolled += (slot..slot + chunk.len())
                .filter(|u| mask.is_none_or(|m| m.get(*u).copied().unwrap_or(false)))
                .count() as u64;
            slot += chunk.len();
        }
        items += slot as u64;
    }
    out.stream_ns = elapsed_ns(start);
    if items != slots || enrolled != out.assigned_users {
        return Err(format!(
            "epoch {epoch}: streamed {items} slots ({enrolled} enrolled) for {slots} slots \
             and {} assigned users",
            out.assigned_users
        ));
    }
    out.items = items;
    Ok(())
}
