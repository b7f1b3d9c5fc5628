//! Protocol configuration broadcast by the server to every party.

use crate::error::ProtocolError;
use crate::topology::{QuorumPolicy, Topology};
use fedhh_fo::hash::olh_buckets;
use fedhh_fo::{FoKind, PrivacyBudget};
use fedhh_trie::LevelSchedule;

/// How the level estimator drives the frequency oracle.
///
/// `Batched` consumes the sequential RNG stream in the order the oracles'
/// scalar `perturb` would (the `fedhh-fo` property suite proves the batch
/// overrides bit-identical to it).  `Vectorized` is a second, deliberately
/// *different* pinned path: counter-based randomness (`fedhh_fo::ctr`)
/// drives branch-free SoA kernels, so its output is deterministic per seed
/// and bit-identical across any chunk size and engine parallelism, but
/// numerically different from `Batched` at the same seed.  The path
/// travels in the wire handshake config, so a federation can never mix
/// paths across processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FoExec {
    /// Batched perturbation and aggregation — the sequential-RNG hot path.
    #[default]
    Batched,
    /// Counter-RNG SoA kernels — the fastest path, pinned on its own
    /// stream (not bit-compatible with the sequential paths).
    Vectorized,
}

impl FoExec {
    /// All execution paths, in `kernel-equivalence` CI matrix order.
    pub const ALL: [FoExec; 2] = [FoExec::Batched, FoExec::Vectorized];

    /// Stable lowercase name for reports, CLI arguments and env knobs.
    pub fn name(&self) -> &'static str {
        match self {
            FoExec::Batched => "batched",
            FoExec::Vectorized => "vectorized",
        }
    }

    /// Parses a CLI/env name into an execution path.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "batched" => Some(FoExec::Batched),
            "vectorized" | "vec" => Some(FoExec::Vectorized),
            _ => None,
        }
    }

    /// The execution path named by the `FEDHH_TEST_FO_EXEC` environment
    /// variable, if set — the knob the `kernel-equivalence` CI job uses to
    /// sweep the whole test suite across paths.
    ///
    /// # Panics
    ///
    /// When the variable names no path (e.g. the removed `scalar`): a
    /// matrix leg must fail loudly rather than silently re-test `Batched`.
    pub fn from_env() -> Option<Self> {
        let name = std::env::var("FEDHH_TEST_FO_EXEC").ok()?;
        match Self::parse(&name) {
            Some(exec) => Some(exec),
            None => panic!("FEDHH_TEST_FO_EXEC: {}", Self::unknown(&name)),
        }
    }

    /// The error text for a name [`FoExec::parse`] rejects: it names every
    /// valid path.
    fn unknown(name: &str) -> String {
        let valid: Vec<&str> = Self::ALL.iter().map(FoExec::name).collect();
        format!(
            "unknown FO execution path {name:?} (valid paths: {})",
            valid.join(", ")
        )
    }
}

impl std::fmt::Display for FoExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The full parameter set of a federated heavy hitter run.
///
/// Defaults follow Section 7.1 of the paper: k-RR as the FO, maximum binary
/// length m = 48, granularity g = 24 (step size 2), shared-trie ratio 0.25,
/// dividing ratio β = 0.1, and 10% of users assigned to Phase I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolConfig {
    /// The query: how many federated heavy hitters to identify.
    pub k: usize,
    /// Privacy budget ε of every user's single report.
    pub epsilon: f64,
    /// Which frequency oracle the users run.
    pub fo: FoKind,
    /// Maximum binary length m of the item codes.
    pub max_bits: u8,
    /// Granularity g: number of trie levels and of user groups.
    pub granularity: u8,
    /// Ratio of levels assigned to the shared shallow trie (g_s = ⌊ratio·g⌋).
    pub shared_ratio: f64,
    /// Fraction of each party's users reserved for Phase I estimation.
    pub phase1_user_fraction: f64,
    /// Dividing ratio β: fraction of a level's users used to validate each
    /// of the two pruning candidate sets in TAPS.
    pub dividing_ratio: f64,
    /// RNG seed for the run (group assignment and perturbation noise).
    pub seed: u64,
    /// Whether the frequency oracle runs on the batched sequential-RNG
    /// path or the counter-RNG vectorized path (two distinct pinned
    /// streams).
    pub fo_exec: FoExec,
    /// How party uploads reach the root aggregator: the flat star or a
    /// cohort tree ([`Topology::Tree`] is bit-identical to
    /// [`Topology::Flat`] at quorum 1.0; merging is lossless).
    pub topology: Topology,
    /// Quorum-based round closure: the response fraction that closes a
    /// round, drawn deterministically per `(seed, round)`.
    pub quorum: QuorumPolicy,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            k: 10,
            epsilon: 4.0,
            fo: FoKind::Grr,
            max_bits: 48,
            granularity: 24,
            shared_ratio: 0.25,
            phase1_user_fraction: 0.25,
            dividing_ratio: 0.1,
            seed: 7,
            fo_exec: FoExec::Batched,
            topology: Topology::Flat,
            quorum: QuorumPolicy::full(),
        }
    }
}

impl ProtocolConfig {
    /// A configuration suitable for fast tests: 16-bit codes over 8 levels.
    pub fn test_default() -> Self {
        Self {
            max_bits: 16,
            granularity: 8,
            ..Self::default()
        }
    }

    /// The level schedule implied by `max_bits` and `granularity`.
    pub fn schedule(&self) -> LevelSchedule {
        LevelSchedule::new(self.max_bits, self.granularity)
    }

    /// The shared-trie depth g_s.
    pub fn shared_levels(&self) -> u8 {
        self.schedule().shared_levels(self.shared_ratio)
    }

    /// The validated privacy budget, rejecting non-positive or non-finite ε.
    pub fn budget(&self) -> Result<PrivacyBudget, ProtocolError> {
        PrivacyBudget::new(self.epsilon).map_err(|_| ProtocolError::InvalidBudget {
            epsilon: self.epsilon,
        })
    }

    /// Returns a copy with a different privacy budget (used by ε sweeps).
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Returns a copy with a different query size.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Returns a copy with a different frequency oracle.
    pub fn with_fo(mut self, fo: FoKind) -> Self {
        self.fo = fo;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different frequency-oracle execution path.
    pub fn with_fo_exec(mut self, fo_exec: FoExec) -> Self {
        self.fo_exec = fo_exec;
        self
    }

    /// Returns a copy with a different aggregation topology
    /// (bit-identical results at quorum 1.0 for any topology).
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Returns a copy with a different quorum-closure policy.
    pub fn with_quorum(mut self, quorum: QuorumPolicy) -> Self {
        self.quorum = quorum;
        self
    }

    /// Validates internal consistency; called by the run API before any
    /// mechanism executes.  Every violation maps to a dedicated
    /// [`ProtocolError`] variant.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        if self.k == 0 {
            return Err(ProtocolError::InvalidQuery { k: self.k });
        }
        // OLH hashes onto d' = ⌈e^ε⌉ + 1 buckets, which must fit in a u32.
        let olh_overflows = self.fo == FoKind::Olh && olh_buckets(self.epsilon.exp()).is_none();
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) || olh_overflows {
            return Err(ProtocolError::InvalidBudget {
                epsilon: self.epsilon,
            });
        }
        if self.granularity == 0 || self.granularity > self.max_bits {
            return Err(ProtocolError::InvalidGranularity {
                granularity: self.granularity,
                max_bits: self.max_bits,
            });
        }
        if !(0.0..=1.0).contains(&self.shared_ratio) {
            return Err(ProtocolError::InvalidSharedRatio {
                ratio: self.shared_ratio,
            });
        }
        if !(0.0..0.5).contains(&self.dividing_ratio) {
            return Err(ProtocolError::InvalidDividingRatio {
                ratio: self.dividing_ratio,
            });
        }
        if !(0.0..1.0).contains(&self.phase1_user_fraction) {
            return Err(ProtocolError::InvalidPhase1Fraction {
                fraction: self.phase1_user_fraction,
            });
        }
        if !self.topology.is_valid() {
            let (fanout, depth) = match self.topology {
                Topology::Flat => (0, 0),
                Topology::Tree { fanout, depth } => (fanout, depth),
            };
            return Err(ProtocolError::InvalidTopology { fanout, depth });
        }
        if !self.quorum.is_valid() {
            return Err(ProtocolError::InvalidQuorum {
                fraction: self.quorum.fraction,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = ProtocolConfig::default();
        assert_eq!(c.k, 10);
        assert_eq!(c.max_bits, 48);
        assert_eq!(c.granularity, 24);
        assert_eq!(c.schedule().nominal_step(), 2);
        assert_eq!(c.fo, FoKind::Grr);
        assert_eq!(c.shared_levels(), 6);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_methods_produce_modified_copies() {
        let c = ProtocolConfig::default()
            .with_epsilon(2.0)
            .with_k(40)
            .with_fo(FoKind::Oue)
            .with_seed(99);
        assert_eq!(c.epsilon, 2.0);
        assert_eq!(c.k, 40);
        assert_eq!(c.fo, FoKind::Oue);
        assert_eq!(c.seed, 99);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_maps_each_violation_to_its_variant() {
        assert_eq!(
            ProtocolConfig {
                k: 0,
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidQuery { k: 0 })
        );
        assert_eq!(
            ProtocolConfig {
                epsilon: -1.0,
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidBudget { epsilon: -1.0 })
        );
        assert_eq!(
            ProtocolConfig {
                granularity: 0,
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidGranularity {
                granularity: 0,
                max_bits: 48
            })
        );
        assert_eq!(
            ProtocolConfig {
                granularity: 64,
                max_bits: 48,
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidGranularity {
                granularity: 64,
                max_bits: 48
            })
        );
        assert_eq!(
            ProtocolConfig {
                dividing_ratio: 0.7,
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidDividingRatio { ratio: 0.7 })
        );
        assert_eq!(
            ProtocolConfig {
                shared_ratio: 1.5,
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidSharedRatio { ratio: 1.5 })
        );
        assert_eq!(
            ProtocolConfig {
                phase1_user_fraction: 1.0,
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidPhase1Fraction { fraction: 1.0 })
        );
        assert_eq!(
            ProtocolConfig {
                topology: Topology::Tree {
                    fanout: 1,
                    depth: 1
                },
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidTopology {
                fanout: 1,
                depth: 1
            })
        );
        assert_eq!(
            ProtocolConfig {
                quorum: QuorumPolicy {
                    fraction: 0.0,
                    seed: 0
                },
                ..Default::default()
            }
            .validate(),
            Err(ProtocolError::InvalidQuorum { fraction: 0.0 })
        );
    }

    #[test]
    fn topology_and_quorum_builders_pin_the_axis() {
        let c = ProtocolConfig::default()
            .with_topology(Topology::Tree {
                fanout: 4,
                depth: 2,
            })
            .with_quorum(QuorumPolicy {
                fraction: 0.75,
                seed: 9,
            });
        assert_eq!(
            c.topology,
            Topology::Tree {
                fanout: 4,
                depth: 2
            }
        );
        assert_eq!(c.quorum.fraction, 0.75);
        assert!(c.validate().is_ok());
        // The defaults stay on today's behaviour.
        let d = ProtocolConfig::default();
        assert!(d.topology.is_flat());
        assert!(!d.quorum.is_partial());
    }

    #[test]
    fn budget_reports_invalid_epsilon_instead_of_panicking() {
        assert!(ProtocolConfig::default().budget().is_ok());
        for epsilon in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let config = ProtocolConfig {
                epsilon,
                ..Default::default()
            };
            // NaN never compares equal, so match on the variant instead.
            assert!(matches!(
                config.budget(),
                Err(ProtocolError::InvalidBudget { .. })
            ));
        }
    }

    #[test]
    fn olh_budgets_whose_bucket_count_overflows_are_invalid() {
        let config = |fo, epsilon| ProtocolConfig {
            fo,
            epsilon,
            ..Default::default()
        };
        assert_eq!(
            config(FoKind::Olh, 22.2).validate(),
            Err(ProtocolError::InvalidBudget { epsilon: 22.2 })
        );
        assert!(config(FoKind::Olh, 22.1).validate().is_ok());
        // k-RR and OUE have no hash range to overflow.
        assert!(config(FoKind::Grr, 22.2).validate().is_ok());
        assert!(config(FoKind::Oue, 22.2).validate().is_ok());
    }

    #[test]
    fn unknown_fo_exec_names_list_the_valid_paths() {
        assert_eq!(FoExec::parse("scalar"), None);
        let message = FoExec::unknown("scalar");
        assert!(message.contains("\"scalar\""), "{message}");
        assert!(message.contains("batched, vectorized"), "{message}");
    }

    #[test]
    fn test_default_is_small_but_valid() {
        let c = ProtocolConfig::test_default();
        assert!(c.validate().is_ok());
        assert_eq!(c.max_bits, 16);
        assert_eq!(c.granularity, 8);
        assert!(c.shared_levels() >= 1);
    }
}
