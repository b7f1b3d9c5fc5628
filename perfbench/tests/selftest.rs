//! Self-tests of the benchmark's own machinery: metric names, the
//! counting relay, and the per-layer replay's reconciliation.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use fedhh::federated::{EpochRunner, RecordingObserver, RoundCollection, RunEvent, WarmStart};
use fedhh::prelude::*;
use fedhh::wire::{read_frame_bytes, to_bytes, write_frame_bytes};
use fedhh_bench::epochs::{EpochsOptions, MechanismExecutor};
use fedhh_perfbench::relay::Relay;
use fedhh_perfbench::replay::{replay, replay_epoch_stream};
use fedhh_perfbench::report::{is_valid_name, Outcome, END_TO_END, PER_LAYER};
use fedhh_perfbench::workloads::{federation, Answer, BenchExecutor, Workload};
use std::collections::HashSet;
use std::io::Write;
use std::net::TcpListener;
use std::time::Duration;

#[test]
fn metric_names_are_valid_unique_and_declared() {
    let manifest = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    )
    .expect("BENCHMARK.json at the repository root");
    let mut seen = HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(is_valid_name(name), "invalid metric name {name:?}");
        assert!(seen.insert(*name), "metric {name:?} listed twice");
        assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
        assert!(
            manifest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json does not declare {name:?} in {unit:?}"
        );
    }
    for workload in Workload::ALL {
        assert!(manifest.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
    // Every declared name is a catalogue metric or a workload.
    let declared = manifest.matches("\"name\":").count();
    assert_eq!(declared, seen.len() + Workload::ALL.len());
    assert!(!is_valid_name("has space"));
    assert!(!is_valid_name(".leading-dot"));
    assert!(!is_valid_name(""));
}

#[test]
fn result_line_holds_exactly_the_catalogue() {
    let mut outcome = Outcome {
        correct: true,
        attempted: 3,
        failed: 0,
        ..Outcome::default()
    };
    outcome.metrics.insert("setup_s", 0.5);
    let line = outcome.to_json(END_TO_END);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
}

/// A frame as `fedhh_wire` writes it.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame_bytes(&mut bytes, payload).expect("frame");
    bytes
}

#[test]
fn relay_counts_exactly_the_frames_it_forwards() {
    let coordinator = TcpListener::bind("127.0.0.1:0").expect("bind");
    let target = coordinator.local_addr().expect("addr");
    let relay = Relay::bind(target, Duration::from_secs(10)).expect("relay");
    let dial = relay.local_addr().expect("relay addr");

    // Two uploads (a `RoundDone`-tagged one and an arbitrary one) go up;
    // one `Collection` comes down.
    let up = [frame(&[2, 0, 1, 2, 3]), frame(&[9; 300])];
    let collection = RoundCollection {
        round: 0,
        messages: Vec::new(),
        events: Vec::new(),
    };
    let mut down_payload = vec![3];
    down_payload.extend(to_bytes(&collection));
    let down = frame(&down_payload);
    let expected_up: u64 = up.iter().map(|f| f.len() as u64).sum();

    let stats = std::thread::scope(|scope| {
        let relay = scope.spawn(|| relay.run(1));
        let server = scope.spawn(|| {
            let (mut stream, _) = coordinator.accept().expect("accept");
            for sent in &up {
                let payload = read_frame_bytes(&mut stream).expect("frame via relay");
                assert_eq!(payload.len() + 9, sent.len());
            }
            stream.write_all(&down).expect("send down");
        });
        let mut client = std::net::TcpStream::connect(dial).expect("dial relay");
        for f in &up {
            client.write_all(f).expect("send up");
        }
        let back = read_frame_bytes(&mut client).expect("frame back");
        assert_eq!(back, down_payload);
        server.join().expect("server");
        drop(client);
        relay.join().expect("relay thread")
    });

    assert_eq!(stats.uplink_bytes, expected_up);
    assert_eq!(stats.downlink_bytes, down.len() as u64);
    assert_eq!(stats.frames, 3);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.rank_waits.len(), 1);
    let decoded = stats.decode_all();
    assert_eq!(decoded.frame_bytes, stats.total_bytes());
    assert_eq!(decoded.collections, 1);
    assert_eq!(decoded.failures, 0);
}

#[test]
fn relayed_federation_matches_the_in_memory_engine() {
    let dataset = DatasetConfig::test_scale().build_streamed(DatasetKind::Rdb);
    let config = ProtocolConfig::test_default().with_k(5);
    let reference = Run::mechanism(MechanismKind::Taps)
        .dataset(&dataset)
        .config(config)
        .execute()
        .expect("in-memory run");
    let off = Telemetry::disabled();
    let run =
        federation(Workload::Federation, &dataset, config, true, &off, &[]).expect("federation");
    let answer = Answer::of(&run.output);
    assert_eq!(answer, Answer::of(&reference));
    assert!(run.ranks.iter().all(|rank| rank == &answer));
    let relay = run.relay.expect("relay stats");
    assert_eq!(relay.errors, 0);
    assert!(relay.downlink_bytes > 0 && relay.uplink_bytes > 0);
    assert_eq!(relay.decode_all().frame_bytes, relay.total_bytes());
}

fn observed(
    mechanism: MechanismKind,
    config: ProtocolConfig,
) -> (FederatedDataset, MechanismOutput, RecordingObserver) {
    let dataset = DatasetConfig::test_scale().build_streamed(DatasetKind::Rdb);
    let mut observer = RecordingObserver::new();
    let output = Run::mechanism(mechanism)
        .dataset(&dataset)
        .config(config)
        .observer(&mut observer)
        .execute()
        .expect("tiny run");
    (dataset, output, observer)
}

#[test]
fn replay_reconciles_with_the_discovery() {
    for (mechanism, fo) in [
        (MechanismKind::Taps, FoKind::Grr),
        (MechanismKind::Tap, FoKind::Olh),
    ] {
        let config = ProtocolConfig {
            fo,
            ..ProtocolConfig::test_default().with_k(5)
        };
        let (dataset, output, observer) = observed(mechanism, config);
        let replayed = replay(&dataset, &config, &observer, Some(&output)).expect("reconciles");
        assert_eq!(replayed.items, dataset.total_users() as u64);
        assert_eq!(replayed.report_bits, observer.total_report_bits() as u64);
        let reports: usize = observer.level_events().map(|e| e.users).sum();
        assert_eq!(replayed.reports, reports as u64);
        assert_eq!(replayed.levels, u64::from(config.granularity));
        assert!(replayed.server_pairs > 0);
    }
}

#[test]
fn replay_refuses_counts_the_discovery_did_not_report() {
    let config = ProtocolConfig::test_default().with_k(5);
    let (dataset, output, mut observer) = observed(MechanismKind::Taps, config);
    let event = observer
        .events
        .iter_mut()
        .find_map(|e| match e {
            RunEvent::LevelEstimated(level) if level.users > 1 => Some(level),
            _ => None,
        })
        .expect("a level estimate");
    event.users -= 1;
    assert!(replay(&dataset, &config, &observer, Some(&output)).is_err());
}

#[test]
fn epoch_stream_replay_reconciles_with_the_enrolment() {
    let options = EpochsOptions {
        epochs: 2,
        epsilon_cap: Some(4.0),
        ..EpochsOptions::quick()
    };
    let spec = options.spec(WarmStart::Previous);
    let mut exec = MechanismExecutor::new(spec.clone());
    let mut runner = EpochRunner::new(spec.epoch_config(), spec.to_spec_bytes());
    for epoch in 0..options.epochs {
        let mut bench = BenchExecutor::new(
            &mut exec,
            EngineConfig::sequential(),
            Some(Telemetry::disabled()),
        );
        runner.step(&mut bench).expect("epoch runs");
        let run = bench.last_run.take().expect("instrumented epoch");
        let slots: u64 = bench.populations.iter().map(|p| p.users as u64).sum();
        let mut enrollment = std::mem::take(&mut bench.enrollment);
        let mut replayed =
            replay(&run.dataset, &run.config, &run.observer, Some(&run.output)).expect("replay");
        replay_epoch_stream(&mut replayed, exec.evolver(), epoch, &enrollment, slots)
            .expect("reconciles");
        assert_eq!(replayed.items, slots);
        assert!(replayed.assigned_users <= slots);
        // One more enrolled slot than the epoch ran with is refused.
        let slot = enrollment
            .iter_mut()
            .flat_map(|mask| mask.iter_mut())
            .find(|enrolled| !**enrolled);
        if let Some(slot) = slot {
            *slot = true;
            let mut replayed = replay(&run.dataset, &run.config, &run.observer, None).unwrap();
            assert!(
                replay_epoch_stream(&mut replayed, exec.evolver(), epoch, &enrollment, slots)
                    .is_err()
            );
        }
    }
}
