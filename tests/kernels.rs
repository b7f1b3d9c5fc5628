//! Kernel-equivalence suite: the CI matrix gate for the two pinned FO
//! execution paths.
//!
//! The `kernel-equivalence` CI job runs this file under every combination
//! of `FEDHH_TEST_PARALLELISM={1,8}` × `FEDHH_TEST_FO_EXEC={batched,
//! vectorized}`.  Three guarantees are enforced:
//!
//! 1. **The selected path is invariant** across chunk sizes
//!    {1, 7, 64, usize::MAX} × parallelism {1, 8} and under the env-driven
//!    default engine — for every mechanism, bit-for-bit.
//! 2. **Batched is byte-stable against pinned seed baselines**: a digest
//!    of each mechanism's full output, under k-RR and under OLH and OUE,
//!    must equal the committed constant, so no refactor can silently move
//!    the sequential RNG stream or an oracle's support counting.
//! 3. **Vectorized is deterministic and pinned separately**: same seed →
//!    same digest on repeat runs, and the digest differs from the
//!    sequential path's (it is a second stream, not a reordering).

use fedhh_datasets::{DatasetConfig, DatasetKind, FederatedDataset};
use fedhh_federated::{EngineConfig, FoExec, ProtocolConfig};
use fedhh_fo::FoKind;
use fedhh_mechanisms::{MechanismKind, MechanismOutput, Run};
use std::num::NonZeroUsize;

fn dataset() -> FederatedDataset {
    DatasetConfig::test_scale().build(DatasetKind::Ycm)
}

fn config(fo_exec: FoExec) -> ProtocolConfig {
    ProtocolConfig {
        k: 5,
        epsilon: 4.0,
        max_bits: 16,
        granularity: 8,
        fo_exec,
        ..ProtocolConfig::default()
    }
}

/// The execution path under test: the CI matrix knob, defaulting to the
/// production path.
fn selected_exec() -> FoExec {
    FoExec::from_env().unwrap_or(FoExec::Batched)
}

fn run(
    kind: MechanismKind,
    dataset: &FederatedDataset,
    config: ProtocolConfig,
    engine: Option<EngineConfig>,
) -> MechanismOutput {
    let builder = Run::mechanism(kind).dataset(dataset).config(config);
    match engine {
        Some(engine) => builder.engine(engine),
        None => builder,
    }
    .execute()
    .unwrap_or_else(|e| panic!("{kind}: {e}"))
}

/// FNV-1a over every deterministic field of an output (the wall clock is
/// excluded); two runs agree on this digest iff they agree bit-for-bit.
fn digest(output: &MechanismOutput) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for &hh in &output.heavy_hitters {
        eat(hh);
    }
    let mut counts: Vec<(u64, u64)> = output
        .counts
        .iter()
        .map(|(v, c)| (*v, c.to_bits()))
        .collect();
    counts.sort_unstable();
    for (value, count) in counts {
        eat(value);
        eat(count);
    }
    eat(output.comm.total_uplink_bits() as u64);
    eat(output.comm.total_downlink_bits() as u64);
    eat(output.comm.total_local_report_bits() as u64);
    h
}

/// Guarantee 1: whichever path the CI matrix selects, its output is
/// bit-identical across every chunk size, both parallelism levels and the
/// env-driven default engine.
#[test]
fn selected_path_is_invariant_across_chunking_and_parallelism() {
    let ds = dataset();
    let exec = selected_exec();
    for kind in MechanismKind::ALL {
        let reference = run(kind, &ds, config(exec), Some(EngineConfig::sequential()));
        let baseline = digest(&reference);
        // The default engine honours FEDHH_TEST_PARALLELISM; the explicit
        // grid covers both levels regardless of the environment.
        assert_eq!(
            digest(&run(kind, &ds, config(exec), None)),
            baseline,
            "{kind}/{exec}: default engine diverged"
        );
        for parallelism in [1usize, 8] {
            for chunk in [1usize, 7, 64, usize::MAX] {
                let engine = EngineConfig::parallel(parallelism)
                    .chunk_size(NonZeroUsize::new(chunk).unwrap());
                assert_eq!(
                    digest(&run(kind, &ds, config(exec), Some(engine))),
                    baseline,
                    "{kind}/{exec}: chunk {chunk} x parallelism {parallelism} diverged"
                );
            }
        }
    }
}

/// Per-mechanism pinned digests of the sequential path on the seeded
/// test-scale dataset.  These constants are the "seed baseline": any change
/// here means the Batched RNG stream moved, which is a compatibility break
/// for pinned experiments and must be deliberate (see ARCHITECTURE.md,
/// "Determinism and bit-identity").
const SEQUENTIAL_DIGESTS: [(MechanismKind, u64); 4] = [
    (MechanismKind::FedPem, 0x1BC7_1BBD_2A55_8C43),
    (MechanismKind::Gtf, 0xF77A_2542_A3FC_8295),
    (MechanismKind::Tap, 0x2DC7_4D9A_0A5A_1B10),
    (MechanismKind::Taps, 0xCF29_ADEC_9E8F_2132),
];

/// Guarantee 2: Batched reproduces the committed seed baselines
/// byte-for-byte (the batch contract makes it a bit-identical reordering
/// of the oracles' scalar `perturb` loop, proven per oracle in
/// `crates/fo/tests/properties.rs`).
#[test]
fn sequential_paths_match_the_pinned_seed_baselines() {
    let ds = dataset();
    for (kind, pin) in SEQUENTIAL_DIGESTS {
        let batched = digest(&run(
            kind,
            &ds,
            config(FoExec::Batched),
            Some(EngineConfig::sequential()),
        ));
        assert_eq!(batched, pin, "{kind}: batched digest {batched:#018X} moved");
    }
}

/// Per-mechanism × oracle pinned digests of the sequential path for the
/// two oracles the k-RR default above never reaches.  OLH's support count
/// dispatches between a portable and an AVX-512 build of one loop at run
/// time, so these pins hold both builds to the same bytes.
const ORACLE_DIGESTS: [(MechanismKind, FoKind, u64); 8] = [
    (MechanismKind::FedPem, FoKind::Olh, 0x5EEC_178A_BAA8_890C),
    (MechanismKind::FedPem, FoKind::Oue, 0x0932_B20A_D6FB_3080),
    (MechanismKind::Gtf, FoKind::Olh, 0x3E83_93E0_3C46_916E),
    (MechanismKind::Gtf, FoKind::Oue, 0xD2DC_972C_7906_E671),
    (MechanismKind::Tap, FoKind::Olh, 0xBEC2_1AF1_8CF4_702A),
    (MechanismKind::Tap, FoKind::Oue, 0x7CB3_0C33_E5CD_D56E),
    (MechanismKind::Taps, FoKind::Olh, 0x8ACB_702C_B4C2_4DDB),
    (MechanismKind::Taps, FoKind::Oue, 0x529B_715A_B79F_E5BF),
];

/// Guarantee 2 for OLH and OUE: the Batched path reproduces the committed
/// seed baselines byte-for-byte under each non-default oracle.
#[test]
fn olh_and_oue_paths_match_the_pinned_seed_baselines() {
    let ds = dataset();
    for (kind, fo, pin) in ORACLE_DIGESTS {
        let config = ProtocolConfig {
            fo,
            ..config(FoExec::Batched)
        };
        let batched = digest(&run(kind, &ds, config, Some(EngineConfig::sequential())));
        assert_eq!(
            batched, pin,
            "{kind}/{fo}: batched digest {batched:#018X} moved"
        );
    }
}

/// Guarantee 3: Vectorized is deterministic per seed and is genuinely a
/// second pinned stream — its digest repeats exactly and differs from the
/// sequential baseline for at least one mechanism.
#[test]
fn vectorized_path_is_deterministic_and_pinned_separately() {
    let ds = dataset();
    let mut any_diverged = false;
    for kind in MechanismKind::ALL {
        let first = digest(&run(
            kind,
            &ds,
            config(FoExec::Vectorized),
            Some(EngineConfig::sequential()),
        ));
        let second = digest(&run(
            kind,
            &ds,
            config(FoExec::Vectorized),
            Some(EngineConfig::sequential()),
        ));
        assert_eq!(first, second, "{kind}: vectorized rerun diverged");
        let batched = digest(&run(
            kind,
            &ds,
            config(FoExec::Batched),
            Some(EngineConfig::sequential()),
        ));
        any_diverged |= first != batched;
    }
    assert!(
        any_diverged,
        "vectorized outputs matched batched everywhere — the path is not a distinct stream"
    );
}
