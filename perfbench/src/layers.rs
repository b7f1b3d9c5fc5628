//! The traced run's per-layer measurements: the traced twin of every
//! discovery, the per-layer replay, the ledger and checkpoint replays of
//! the `epochs` workload, and the span attribution table.

use crate::bench::{discover, ms, Gates, OneShot, ScratchDir, Tally, WireCount};
use crate::relay::{Decoded, RelayStats};
use crate::replay::{replay, replay_epoch_stream, Replay};
use crate::report::{mean, median, ratio, Outcome};
use crate::spans::{layer_of, Tracer};
use crate::workloads::{BenchExecutor, Workload, RANKS};
use fedhh::datasets::FederatedDataset;
use fedhh::federated::{checkpoint, EpochRecord, EpochRunner, ValueHist};
use fedhh::prelude::*;
use fedhh_bench::epochs::MechanismExecutor;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer measurements a traced run accumulates.
#[derive(Debug, Default)]
pub(crate) struct Layers {
    tracer: Tracer,
    replays: Vec<Replay>,
    traced_walls: Vec<f64>,
    untraced_walls: Vec<f64>,
    handshakes: Vec<f64>,
    upload_p90_us: Vec<f64>,
    report_bits: f64,
    reports: f64,
    evolve_ms: Vec<f64>,
    warm: Vec<f64>,
    ledger_ms: Vec<f64>,
    enrolled_share: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
    checkpoint_write_ms: Vec<f64>,
    checkpoint_load_ms: Vec<f64>,
    resume_ms: Vec<f64>,
    pub(crate) metrics: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// The traced twin of timed discovery `index`, at parallelism 1,
    /// with the program's telemetry attached and the benchmark's spans
    /// around it, followed by the per-layer replay.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn traced_one_shot(
        &mut self,
        w: Workload,
        dataset: &FederatedDataset,
        config: ProtocolConfig,
        engine: EngineConfig,
        untraced: &OneShot,
        index: u64,
        gates: &mut Gates,
        tally: &mut Tally,
    ) {
        tally.attempted += 1;
        self.untraced_walls.push(ms(untraced.wall));
        self.tracer.set_discovery(index);
        let sink_created = Instant::now();
        let telemetry = Telemetry::new();
        let ranks: Vec<Telemetry> = if w == Workload::Federation {
            (0..RANKS).map(|_| Telemetry::new()).collect()
        } else {
            Vec::new()
        };
        let start = Instant::now();
        let traced = discover(w, dataset, config, engine, &telemetry, &ranks, false, gates);
        let end = Instant::now();
        let traced = match traced {
            Ok(traced) => traced,
            Err(err) => return tally.fail(&err),
        };
        self.tracer.record("discovery", start, end);
        if w == Workload::Federation {
            self.tracer
                .record("node.handshake", start, start + traced.handshake);
            self.handshakes.push(ms(traced.handshake));
        }
        self.tracer
            .import(&telemetry.take_events(), sink_created, "");
        self.upload_hist(&telemetry);
        for (rank, rank_telemetry) in ranks.iter().enumerate() {
            // Each rank's spans form a tree of their own beside the
            // coordinator's.
            self.tracer.set_discovery(index | ((rank as u64 + 1) << 48));
            self.tracer
                .import(&rank_telemetry.take_events(), sink_created, "rank.");
            self.upload_hist(rank_telemetry);
        }
        self.traced_walls.push(ms(end - start));
        gates.check(traced.answer == untraced.answer, || {
            format!(
                "seed {}: the traced discovery differs from the untraced one",
                config.seed
            )
        });
        let output = Some(&traced.output);
        match replay(dataset, &config, &traced.observer, output) {
            Ok(replayed) => {
                self.counts(&traced.observer);
                self.replays.push(replayed);
            }
            Err(err) => gates.check(false, || format!("seed {}: replay: {err}", config.seed)),
        }
    }

    /// One traced epoch, stepped on `twin` in lockstep with the untraced
    /// runner that produced `record`, then the ledger, checkpoint and
    /// per-layer replays.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn traced_epoch(
        &mut self,
        twin: &mut EpochRunner,
        exec: &mut MechanismExecutor,
        engine: EngineConfig,
        record: &EpochRecord,
        scratch: &ScratchDir,
        gates: &mut Gates,
        tally: &mut Tally,
    ) {
        tally.attempted += 1;
        let epoch = record.epoch;
        let ledger = twin.state().ledger.clone();
        let sink_created = Instant::now();
        let telemetry = Telemetry::new();
        twin.set_telemetry(&telemetry);
        let mut bench = BenchExecutor::new(exec, engine, Some(telemetry.clone()));
        self.tracer
            .set_discovery(u64::from(epoch) << 32 | self.traced_walls.len() as u64);
        let start = Instant::now();
        let stepped = twin.step(&mut bench).map(|r| r.cloned());
        let end = Instant::now();
        let traced = match stepped {
            Ok(Some(traced)) => traced,
            Ok(None) => return tally.fail("the traced runner finished early"),
            Err(err) => return tally.fail(&err.to_string()),
        };
        self.tracer.record("discovery", start, end);
        for (name, start, end) in bench.spans.drain(..) {
            self.tracer.record(name, start, end);
        }
        self.tracer
            .import(&telemetry.take_events(), sink_created, "");
        self.traced_walls.push(ms(end - start));
        self.evolve_ms.push(ms(bench.population_time));
        self.upload_hist(&telemetry);
        gates.check(&traced == record, || {
            format!("epoch {epoch}: the traced step differs from the untraced one")
        });
        self.warm.push(
            twin.state()
                .warm
                .as_ref()
                .map_or(0.0, |w| w.values.len() as f64),
        );

        // epoch: the ledger step on a copy of the pre-step ledger.
        let mut ledger = ledger;
        let config = *twin.config();
        let start = Instant::now();
        ledger.advance_population(&bench.populations);
        let enrollment = ledger.enroll(config.epsilon, config.epsilon_cap);
        self.ledger_ms.push(ms(start.elapsed()));
        let enrolled: usize = enrollment
            .iter()
            .map(|m| m.iter().filter(|e| **e).count())
            .sum();
        let slots: usize = enrollment.iter().map(Vec::len).sum();
        gates.check(enrolled as u64 == record.enrolled_users, || {
            format!(
                "epoch {epoch}: ledger replay enrolled {enrolled}, the step {}",
                record.enrolled_users
            )
        });
        self.enrolled_share
            .push(ratio(enrolled as f64, slots as f64));

        // checkpoint: write, load and resume the post-step state.
        let path = scratch.file("replay.ckpt");
        let ckpt = twin.checkpoint();
        let start = Instant::now();
        let saved = checkpoint::save(&path, &ckpt);
        self.checkpoint_write_ms.push(ms(start.elapsed()));
        gates.check(saved.is_ok(), || format!("checkpoint save: {saved:?}"));
        self.checkpoint_bytes
            .push(std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64));
        let start = Instant::now();
        let loaded = checkpoint::load(&path);
        self.checkpoint_load_ms.push(ms(start.elapsed()));
        match loaded {
            Ok(loaded) => {
                let start = Instant::now();
                let resumed = EpochRunner::resume(config, ckpt.spec.clone(), loaded);
                self.resume_ms.push(
                    ms(start.elapsed()) + self.checkpoint_load_ms.last().copied().unwrap_or(0.0),
                );
                gates.check(
                    resumed.as_ref().is_ok_and(|r| r.state() == twin.state()),
                    || format!("epoch {epoch}: the reloaded checkpoint differs"),
                );
            }
            Err(err) => gates.check(false, || format!("checkpoint load: {err}")),
        }

        if let Some(run) = bench.last_run.take() {
            self.untraced_walls
                .push(*tally.walls.last().unwrap_or(&0.0));
            let slots = bench.populations.iter().map(|p| p.users as u64).sum();
            let enrollment = std::mem::take(&mut bench.enrollment);
            let replayed = replay(&run.dataset, &run.config, &run.observer, Some(&run.output))
                .and_then(|mut replayed| {
                    replay_epoch_stream(&mut replayed, exec.evolver(), epoch, &enrollment, slots)?;
                    Ok(replayed)
                });
            match replayed {
                Ok(replayed) => {
                    self.counts(&run.observer);
                    self.replays.push(replayed);
                }
                Err(err) => gates.check(false, || format!("epoch {}: replay: {err}", run.epoch)),
            }
        }
    }

    fn counts(&mut self, observer: &RecordingObserver) {
        self.report_bits += observer.total_report_bits() as f64;
        self.reports += observer.level_events().map(|e| e.users as f64).sum::<f64>();
    }

    fn upload_hist(&mut self, telemetry: &Telemetry) {
        let snapshot = telemetry.snapshot();
        if let Some((_, hist)) = snapshot
            .values
            .iter()
            .find(|(name, _)| *name == ValueHist::PartyUploadUs)
        {
            if !hist.is_empty() {
                self.upload_p90_us.push(hist.quantile(9, 10) as f64);
            }
        }
    }

    pub(crate) fn wire(&mut self, wires: &[WireCount]) {
        let n = wires.len() as f64;
        let sum = |f: fn(&WireCount) -> u64| wires.iter().map(f).sum::<u64>() as f64;
        let m = &mut self.metrics;
        m.insert("wire.frames", ratio(sum(|c| c.frames), n));
        m.insert(
            "wire.uplink_bytes",
            ratio(sum(|c| c.bytes - c.downlink_bytes), n),
        );
        m.insert("wire.downlink_bytes", ratio(sum(|c| c.downlink_bytes), n));
        m.insert(
            "wire.downlink_per_logical",
            ratio(
                sum(|c| c.downlink_bytes),
                sum(|c| c.logical_downlink_bits) / 8.0,
            ),
        );
        let relays: Vec<&(RelayStats, Decoded)> =
            wires.iter().filter_map(|c| c.relay.as_ref()).collect();
        if relays.is_empty() {
            return;
        }
        let (mut decode_ns, mut bytes, mut errors) = (0.0, 0.0, 0);
        let mut waits = Vec::new();
        for (relay, decoded) in relays {
            decode_ns += decoded.elapsed.as_nanos() as f64;
            bytes += decoded.frame_bytes as f64;
            errors += relay.errors + decoded.failures;
            waits.extend(relay.rank_waits.iter().map(|d| ms(*d)));
        }
        m.insert("wire.decode_ns_per_byte", ratio(decode_ns, bytes));
        m.insert("wire.errors", errors as f64);
        m.insert("node.rank_wait_ms", mean(&waits));
    }

    pub(crate) fn finish(mut self, outcome: &mut Outcome, tally: &Tally) {
        let n = self.replays.len() as f64;
        let sum = |f: fn(&Replay) -> u64| self.replays.iter().map(f).sum::<u64>() as f64;
        let m = &mut self.metrics;
        m.insert("datasets.items", ratio(sum(|r| r.items), n));
        m.insert(
            "datasets.stream_ns_per_item",
            ratio(sum(|r| r.stream_ns), sum(|r| r.items)),
        );
        m.insert("datasets.evolve_ms", mean(&self.evolve_ms));
        m.insert("scheduler.users", ratio(sum(|r| r.assigned_users), n));
        m.insert(
            "scheduler.assign_ns_per_user",
            ratio(sum(|r| r.assign_ns), sum(|r| r.assigned_users)),
        );
        m.insert("estimator.calls", ratio(sum(|r| r.calls), n));
        m.insert(
            "estimator.candidates_per_call",
            ratio(sum(|r| r.candidates), sum(|r| r.calls)),
        );
        m.insert(
            "estimator.encode_ns_per_report",
            ratio(sum(|r| r.encode_ns), sum(|r| r.reports)),
        );
        m.insert(
            "fo.perturb_ns_per_report",
            ratio(sum(|r| r.perturb_ns), sum(|r| r.reports)),
        );
        m.insert(
            "fo.aggregate_ns_per_report",
            ratio(sum(|r| r.aggregate_ns), sum(|r| r.reports)),
        );
        m.insert(
            "fo.report_bits_per_report",
            ratio(self.report_bits, self.reports),
        );
        m.insert("mechanisms.levels", ratio(sum(|r| r.levels), n));
        m.insert(
            "mechanisms.pruned_share",
            ratio(sum(|r| r.pruned), sum(|r| r.candidates)),
        );
        m.insert("mechanisms.warm_candidates", mean(&self.warm));
        m.insert("server.pairs", ratio(sum(|r| r.server_pairs), n));
        m.insert("server.aggregate_us", ratio(sum(|r| r.server_ns) / 1e3, n));
        m.insert("node.handshake_ms", median(&self.handshakes));
        m.insert("epoch.ledger_ms", mean(&self.ledger_ms));
        m.insert("epoch.enrolled_share", mean(&self.enrolled_share));
        m.insert("checkpoint.bytes", mean(&self.checkpoint_bytes));
        m.insert("checkpoint.write_ms", mean(&self.checkpoint_write_ms));
        m.insert("checkpoint.load_ms", mean(&self.checkpoint_load_ms));
        m.insert("checkpoint.resume_ms", mean(&self.resume_ms));
        m.insert("session.upload_spread_us.p90", median(&self.upload_p90_us));

        // Spans: self time per layer, per traced discovery.
        self.tracer.link_parents();
        let traced = self.traced_walls.len() as f64;
        let selfs = self.tracer.self_time_ns();
        let self_ms = |names: &[&str]| {
            ratio(
                names.iter().filter_map(|n| selfs.get(*n)).sum::<u64>() as f64 / 1e6,
                traced,
            )
        };
        m.insert("estimator.level_self_ms", self_ms(&["level", "rank.level"]));
        m.insert(
            "fo.span_ms",
            self_ms(&["perturb", "aggregate", "rank.perturb", "rank.aggregate"]),
        );
        m.insert("session.round_self_ms", self_ms(&["round"]));
        m.insert(
            "mechanisms.unattributed_ms",
            self_ms(&["discovery", "run", "phase"]),
        );
        let rounds = self.tracer.durations_ms("round");
        m.insert("session.rounds", ratio(rounds.len() as f64, traced));
        m.insert("session.round_ms.p50", median(&rounds));
        m.insert("trace.discoveries", traced);
        m.insert("trace.discovery_ms.p50", median(&self.traced_walls));
        m.insert(
            "trace.untraced_discovery_ms.p50",
            median(&self.untraced_walls),
        );
        m.insert(
            "trace.overhead",
            ratio(median(&self.traced_walls), median(&self.untraced_walls)),
        );

        // The attribution table, on standard error.
        let total: f64 = mean(&self.traced_walls);
        let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
        for (name, ns) in &selfs {
            *by_layer.entry(layer_of(name)).or_insert(0.0) += *ns as f64 / 1e6 / traced.max(1.0);
        }
        eprintln!(
            "attribution over {} traced discoveries ({} untraced, mean {:.2} ms):",
            traced,
            tally.walls.len(),
            total
        );
        eprintln!(
            "  {:<28} {:>10} {:>7}",
            "layer (self time)", "ms/disc", "share"
        );
        for (layer, ms) in &by_layer {
            eprintln!(
                "  {:<28} {:>10.3} {:>6.1}%",
                layer,
                ms,
                100.0 * ratio(*ms, total)
            );
        }
        for (name, ns) in &selfs {
            eprintln!(
                "    span {:<22} {:>10.3}",
                name,
                *ns as f64 / 1e6 / traced.max(1.0)
            );
        }
        // The replayed calls, which break down the spans' residual.
        eprintln!("  replayed layer calls           ms/disc");
        for (call, ns) in [
            ("datasets: stream", sum(|r| r.stream_ns)),
            ("scheduler: assign", sum(|r| r.assign_ns)),
            ("estimator: encode", sum(|r| r.encode_ns)),
            ("fo: perturb", sum(|r| r.perturb_ns)),
            ("fo: aggregate", sum(|r| r.aggregate_ns)),
            ("server: aggregate + top-k", sum(|r| r.server_ns)),
        ] {
            eprintln!("    {:<26} {:>10.3}", call, ratio(ns / 1e6, n));
        }
        outcome.metrics = std::mem::take(&mut self.metrics);
    }
}
