//! Chunk-invariance and streamed-dataset properties of the 0.6 data plane.
//!
//! Two guarantees are enforced here:
//!
//! 1. **Chunked execution is bit-identical to the eager path**: for every
//!    mechanism, the same seed produces the same `MechanismOutput` (heavy
//!    hitters, counts bit-for-bit, uplink accounting) across chunk sizes
//!    {1, 7, 64, usize::MAX} × parallelism {1, 8}, pinned via
//!    `EngineConfig::chunk_size`, and the automatic chunk rule matches the
//!    eager path.
//! 2. **Streamed datasets equal eager datasets**: for every `DatasetKind`,
//!    `build_streamed` regenerates exactly the item sequences `build`
//!    materializes, and mechanisms produce identical outputs over either.

use fedhh_datasets::{
    DatasetConfig, DatasetKind, EvolutionPlan, FederatedDataset, PopulationEvolver,
};
use fedhh_federated::{EngineConfig, ProtocolConfig};
use fedhh_mechanisms::{MechanismKind, MechanismOutput, Run};
use std::num::NonZeroUsize;

fn config() -> ProtocolConfig {
    ProtocolConfig {
        k: 5,
        epsilon: 4.0,
        max_bits: 16,
        granularity: 8,
        ..ProtocolConfig::default()
    }
}

/// The engine that buffers each level group whole.
fn eager() -> EngineConfig {
    EngineConfig::sequential().chunk_size(NonZeroUsize::MAX)
}

fn run(
    kind: MechanismKind,
    dataset: &FederatedDataset,
    config: ProtocolConfig,
    engine: EngineConfig,
) -> MechanismOutput {
    Run::mechanism(kind)
        .dataset(dataset)
        .config(config)
        .engine(engine)
        .execute()
        .unwrap_or_else(|e| panic!("{kind}: {e}"))
}

fn assert_outputs_identical(a: &MechanismOutput, b: &MechanismOutput, what: &str) {
    assert_eq!(a.heavy_hitters, b.heavy_hitters, "{what}: heavy hitters");
    assert_eq!(a.counts.len(), b.counts.len(), "{what}: count entries");
    for (value, count) in &a.counts {
        let other = b
            .counts
            .get(value)
            .unwrap_or_else(|| panic!("{what}: count for {value} missing from the other run"));
        assert_eq!(
            count.to_bits(),
            other.to_bits(),
            "{what}: count of {value} differs bit-wise"
        );
    }
    assert_eq!(
        a.comm.total_uplink_bits(),
        b.comm.total_uplink_bits(),
        "{what}: uplink bits"
    );
    assert_eq!(
        a.comm.total_downlink_bits(),
        b.comm.total_downlink_bits(),
        "{what}: downlink bits"
    );
    assert_eq!(
        a.local_results.len(),
        b.local_results.len(),
        "{what}: local results"
    );
}

/// The tentpole invariant: `MechanismOutput` is bit-identical across chunk
/// sizes {1, 7, 64, usize::MAX} × parallelism {1, 8} for all four
/// mechanisms.
#[test]
fn chunked_execution_is_bit_identical_across_chunk_sizes_and_parallelism() {
    let dataset = DatasetConfig::test_scale().build(DatasetKind::Rdb);
    for kind in MechanismKind::ALL {
        let reference = run(kind, &dataset, config(), eager());
        for chunk in [1usize, 7, 64, usize::MAX] {
            let chunk = NonZeroUsize::new(chunk).unwrap();
            for parallelism in [1usize, 8] {
                let got = run(
                    kind,
                    &dataset,
                    config(),
                    EngineConfig::parallel(parallelism).chunk_size(chunk),
                );
                assert_outputs_identical(
                    &reference,
                    &got,
                    &format!("{kind} chunk={chunk} parallelism={parallelism}"),
                );
            }
        }
    }
}

/// Without a pinned chunk size the estimator buffers whole level groups at
/// test scale (every group is below the automatic threshold).
#[test]
fn auto_mode_matches_eager_at_test_scale() {
    let dataset = DatasetConfig::test_scale().build(DatasetKind::Rdb);
    for kind in MechanismKind::ALL {
        let auto = run(kind, &dataset, config(), EngineConfig::sequential());
        let eager = run(kind, &dataset, config(), eager());
        assert_outputs_identical(&auto, &eager, &format!("{kind} auto-vs-eager"));
    }
}

/// Streamed datasets regenerate exactly the sequences eager builds
/// materialize, for every dataset group.
#[test]
fn streamed_datasets_are_bit_identical_to_eager_builds_per_kind() {
    let config = DatasetConfig::test_scale();
    for kind in DatasetKind::ALL {
        let eager = config.build(kind);
        let streamed = config.build_streamed(kind);
        assert_eq!(eager.party_count(), streamed.party_count(), "{kind}");
        assert_eq!(eager.total_users(), streamed.total_users(), "{kind}");
        for (a, b) in eager.parties().iter().zip(streamed.parties()) {
            assert_eq!(a.name(), b.name(), "{kind}");
            assert_eq!(a.user_count(), b.user_count(), "{kind}");
            assert!(!a.is_streamed(), "{kind}: eager party claims streamed");
            assert!(b.is_streamed(), "{kind}: streamed party claims eager");
            // Full-sequence equality...
            assert_eq!(
                a.items(),
                b.stream().materialize(),
                "{kind}/{}: streamed sequence diverged",
                a.name()
            );
            // ...and chunk tiling equality at an odd chunk size.
            let mut rebuilt = Vec::with_capacity(b.user_count());
            let stream = b.stream();
            let mut chunks = stream.chunks(97);
            while let Some(chunk) = chunks.next_chunk() {
                rebuilt.extend_from_slice(chunk);
            }
            assert_eq!(a.items(), rebuilt, "{kind}/{}: chunk tiling", a.name());
        }
        // Ground truths agree (computed through the stream on one side).
        assert_eq!(
            eager.ground_truth_top_k(10),
            streamed.ground_truth_top_k(10),
            "{kind}"
        );
    }
}

/// Mechanisms produce identical outputs over streamed and eager datasets.
#[test]
fn mechanism_outputs_are_identical_over_streamed_and_eager_datasets() {
    let dataset_config = DatasetConfig::test_scale();
    let eager = dataset_config.build(DatasetKind::Rdb);
    let streamed = dataset_config.build_streamed(DatasetKind::Rdb);
    for kind in MechanismKind::ALL {
        let a = run(kind, &eager, config(), EngineConfig::sequential());
        let b = run(kind, &streamed, config(), EngineConfig::parallel(4));
        assert_outputs_identical(&a, &b, &format!("{kind} streamed-vs-eager dataset"));
    }
}

/// `take_users` (the Table 4 scalability axis) behaves identically on
/// streamed and eager parties.
#[test]
fn sampled_fractions_of_streamed_datasets_match_eager_ones() {
    let dataset_config = DatasetConfig::test_scale();
    let eager = dataset_config.build(DatasetKind::Ycm).sample_fraction(0.5);
    let streamed = dataset_config
        .build_streamed(DatasetKind::Ycm)
        .sample_fraction(0.5);
    assert_eq!(eager.total_users(), streamed.total_users());
    for (a, b) in eager.parties().iter().zip(streamed.parties()) {
        assert!(b.is_streamed(), "sampling must not materialize the stream");
        assert_eq!(a.items(), b.stream().materialize(), "{}", a.name());
    }
}

/// The generator refactor (pre-encoded code pools, shared `finish_party`)
/// must not have changed the sequences eager builds produce: these FNV
/// hashes were captured from the pre-0.6 generators at `test_scale`.
#[test]
fn eager_item_sequences_match_the_pre_0_6_generators() {
    let expected: [(DatasetKind, u64); 5] = [
        (DatasetKind::Rdb, 0xed93_1451_26b2_e08c),
        (DatasetKind::Ycm, 0x7f94_6772_c711_cc6c),
        (DatasetKind::Tys, 0xb961_60ce_4b8a_a156),
        (DatasetKind::Uba, 0xa5c1_00a2_390e_81b5),
        (DatasetKind::Syn, 0x73e7_3354_dcca_144d),
    ];
    for (kind, want) in expected {
        let ds = DatasetConfig::test_scale().build(kind);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for party in ds.parties() {
            for item in party.items() {
                hash ^= *item;
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(hash, want, "{kind}: eager item sequence diverged from 0.5");
    }
}

/// FNV-1a over every party's item sequence, in party order.
fn sequence_digest(dataset: &FederatedDataset) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for party in dataset.parties() {
        party.stream().for_each(|item| {
            hash ^= item;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        });
    }
    hash
}

/// Full-size item pools (`item_scale` 1.0, up to ~167k ranks per party)
/// with few users, so the sampler is pinned where its CDFs are wide.
fn wide_pools() -> DatasetConfig {
    DatasetConfig {
        user_scale: 0.002,
        ..DatasetConfig::paper_scale()
    }
}

/// The item sequences over full-size pools, captured from the
/// binary-search sampler that preceded the guide-table one.
#[test]
fn wide_pool_item_sequences_match_the_binary_search_sampler() {
    let expected: [(DatasetKind, u64); 5] = [
        (DatasetKind::Rdb, 0xa4e0_7427_9237_8c85),
        (DatasetKind::Ycm, 0x160e_6559_4ebc_15f1),
        (DatasetKind::Tys, 0x57b8_0abe_8cd9_afa6),
        (DatasetKind::Uba, 0x8946_a725_9e4b_6515),
        (DatasetKind::Syn, 0x4a42_345e_b12c_69f9),
    ];
    let got = expected.map(|(kind, _)| (kind, sequence_digest(&wide_pools().build_streamed(kind))));
    assert_eq!(got, expected, "wide-pool item sequences diverged");
}

/// Epoch 3 of an evolving population over full-size pools: three churn
/// layers, each resampling from the drifted base pool.
#[test]
fn wide_pool_epoch_streams_match_the_binary_search_sampler() {
    let plan = EvolutionPlan {
        churn_fraction: 0.2,
        drift_stride: 1,
        seed: 7,
    };
    let evolver = PopulationEvolver::new(wide_pools().build_streamed(DatasetKind::Uba), plan);
    let digest = sequence_digest(&evolver.epoch(3));
    assert_eq!(digest, 0xe344_a013_52e9_9c31, "epoch-3 stream diverged");
}

/// `paper_scale` carries the paper's parameters.
#[test]
fn paper_scale_is_the_unscaled_configuration() {
    let paper = DatasetConfig::paper_scale();
    assert_eq!(paper.user_scale, 1.0);
    assert_eq!(paper.item_scale, 1.0);
    assert_eq!(paper.code_bits, 48);
}
