//! The SYN dataset: Dirichlet-allocated non-IID parties.
//!
//! The paper constructs SYN from the Tmall shopping logs by (1) dividing the
//! item universe into N = 6 groups, (2) sampling for each of 8 parties a
//! proportion vector q ~ Dir_N(β) and allocating a q_j share of group j to
//! that party's item domain, and (3) building each party's frequency
//! distribution from a Zipf or Poisson profile (Table 2, SYN rows).  This
//! module reproduces that construction over a synthetic item universe; β
//! controls the degree of domain skew (Table 8 sweeps β ∈ {0.2, 0.5, 0.8}).

use crate::dirichlet::DirichletSampler;
use crate::federated::FederatedDataset;
use crate::poisson::PoissonWeights;
use crate::realworld::finish_party;
use crate::zipf::ZipfSampler;
use fedhh_trie::ItemEncoder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The frequency profile of one SYN party.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrequencyProfile {
    /// Zipf(α) over the party's item domain.
    Zipf(f64),
    /// Poisson(λ)-shaped weights over the party's item domain.
    Poisson(f64),
}

/// Specification of one SYN party.
#[derive(Debug, Clone)]
pub struct SynPartySpec {
    /// Party name, e.g. `"syn0"`.
    pub name: &'static str,
    /// User population (unscaled).
    pub users: usize,
    /// Frequency profile.
    pub profile: FrequencyProfile,
}

/// Configuration of the SYN generator.
#[derive(Debug, Clone)]
pub struct SynConfig {
    /// Dirichlet concentration β controlling domain skew (smaller = more
    /// non-IID).  The paper's default is 0.5.
    pub beta: f64,
    /// Number of item groups N used by the Dirichlet allocation.
    pub groups: usize,
    /// Total number of items in the universe before allocation (unscaled;
    /// the Tmall universe the paper samples from).
    pub universe_items: usize,
    /// Multiplier applied to user populations.
    pub user_scale: f64,
    /// Multiplier applied to the item universe.
    pub item_scale: f64,
    /// Width of the item code space in bits.
    pub code_bits: u8,
}

impl Default for SynConfig {
    fn default() -> Self {
        Self {
            beta: 0.5,
            groups: 6,
            universe_items: 44_000,
            user_scale: 0.02,
            item_scale: 0.1,
            code_bits: 48,
        }
    }
}

/// The eight SYN parties of Table 2.
pub fn syn_party_specs() -> Vec<SynPartySpec> {
    vec![
        SynPartySpec {
            name: "syn0",
            users: 220_000,
            profile: FrequencyProfile::Poisson(10.0),
        },
        SynPartySpec {
            name: "syn1",
            users: 170_000,
            profile: FrequencyProfile::Poisson(8.0),
        },
        SynPartySpec {
            name: "syn2",
            users: 120_000,
            profile: FrequencyProfile::Zipf(1.1),
        },
        SynPartySpec {
            name: "syn3",
            users: 80_000,
            profile: FrequencyProfile::Zipf(1.3),
        },
        SynPartySpec {
            name: "syn4",
            users: 70_000,
            profile: FrequencyProfile::Poisson(6.0),
        },
        SynPartySpec {
            name: "syn5",
            users: 60_000,
            profile: FrequencyProfile::Poisson(4.0),
        },
        SynPartySpec {
            name: "syn6",
            users: 30_000,
            profile: FrequencyProfile::Zipf(1.5),
        },
        SynPartySpec {
            name: "syn7",
            users: 30_000,
            profile: FrequencyProfile::Zipf(1.7),
        },
    ]
}

/// Generates the SYN dataset.
pub fn generate_syn(config: &SynConfig, seed: u64) -> FederatedDataset {
    generate_syn_with_parties(config, &syn_party_specs(), seed)
}

/// Like [`generate_syn`], but every party keeps only its generator state
/// and regenerates its items in chunks on demand — bit-identical to the
/// eager build.
pub fn generate_syn_streamed(config: &SynConfig, seed: u64) -> FederatedDataset {
    build_syn(config, &syn_party_specs(), seed, true)
}

/// Generates a SYN-style dataset with custom party specifications (used by
/// tests and by the heterogeneity sweep of Table 8).
pub fn generate_syn_with_parties(
    config: &SynConfig,
    parties: &[SynPartySpec],
    seed: u64,
) -> FederatedDataset {
    build_syn(config, parties, seed, false)
}

fn build_syn(
    config: &SynConfig,
    parties: &[SynPartySpec],
    seed: u64,
    streamed: bool,
) -> FederatedDataset {
    assert!(!parties.is_empty(), "SYN needs at least one party");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
    let encoder = ItemEncoder::new(config.code_bits, seed ^ 0xFACE_FEED);

    // Build the item universe and split it into N groups of equal size.
    let universe = ((config.universe_items as f64) * config.item_scale)
        .round()
        .max(60.0) as u64;
    let group_size = (universe as usize / config.groups).max(1);
    let groups: Vec<Vec<u64>> = (0..config.groups)
        .map(|g| {
            let start = (g * group_size) as u64;
            let end = if g == config.groups - 1 {
                universe
            } else {
                start + group_size as u64
            };
            (start..end).collect()
        })
        .collect();

    let dirichlet = DirichletSampler::new(config.groups, config.beta);
    let mut out_parties = Vec::with_capacity(parties.len());

    for spec in parties {
        // Allocate a q_j share of each item group to this party's domain.
        let q = dirichlet.sample(&mut rng);
        let mut domain: Vec<u64> = Vec::new();
        for (group, share) in groups.iter().zip(q.iter()) {
            let take = ((group.len() as f64) * share).round() as usize;
            let mut shuffled = group.clone();
            shuffled.shuffle(&mut rng);
            domain.extend(shuffled.into_iter().take(take));
        }
        // Guarantee a non-trivial domain even under extreme skew.
        if domain.len() < 10 {
            let mut fallback = groups[0].clone();
            fallback.shuffle(&mut rng);
            domain.extend(fallback.into_iter().take(10 - domain.len()));
        }
        domain.shuffle(&mut rng);

        let users = ((spec.users as f64) * config.user_scale).round().max(50.0) as usize;
        let table = match spec.profile {
            FrequencyProfile::Zipf(alpha) => ZipfSampler::new(domain.len(), alpha).into_table(),
            FrequencyProfile::Poisson(lambda) => {
                PoissonWeights::new(domain.len(), lambda).into_table()
            }
        };
        // Pre-encode the allocated domain once; sampling then indexes
        // straight into codes (identical values and RNG draws as encoding
        // per draw).
        let codes: Vec<u64> = domain.iter().map(|id| encoder.encode(*id)).collect();
        out_parties.push(finish_party(
            format!("SYN/{}", spec.name),
            codes,
            table,
            users,
            config.code_bits,
            &mut rng,
            streamed,
        ));
    }

    FederatedDataset::new("SYN", out_parties, config.code_bits, encoder)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(beta: f64) -> SynConfig {
        SynConfig {
            beta,
            groups: 6,
            universe_items: 44_000,
            user_scale: 0.002,
            item_scale: 0.01,
            code_bits: 16,
        }
    }

    #[test]
    fn syn_has_eight_parties_with_descending_sizes() {
        let ds = generate_syn(&tiny_config(0.5), 1);
        assert_eq!(ds.party_count(), 8);
        let sizes: Vec<usize> = ds.parties().iter().map(|p| p.user_count()).collect();
        assert!(sizes[0] >= sizes[7], "sizes {sizes:?}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_syn(&tiny_config(0.5), 11);
        let b = generate_syn(&tiny_config(0.5), 11);
        assert_eq!(a.parties()[0].items(), b.parties()[0].items());
    }

    #[test]
    fn smaller_beta_means_more_domain_skew() {
        // Measure, per party, the entropy of its item-domain composition
        // over the 6 Dirichlet groups: a smaller β concentrates each party's
        // domain in fewer groups, so the average entropy must drop.
        let avg_entropy = |beta: f64| {
            let mut total = 0.0;
            let mut count = 0.0;
            for seed in [23, 24, 25] {
                let config = tiny_config(beta);
                let ds = generate_syn(&config, seed);
                let universe = ((config.universe_items as f64) * config.item_scale).round() as u64;
                let group_size = (universe as usize / config.groups).max(1) as u64;
                for party in ds.parties() {
                    let mut group_counts = vec![0.0f64; config.groups];
                    let mut distinct: Vec<u64> = party
                        .items()
                        .iter()
                        .map(|code| ds.encoder().decode(*code))
                        .collect();
                    distinct.sort_unstable();
                    distinct.dedup();
                    for raw in &distinct {
                        let g = ((raw / group_size) as usize).min(config.groups - 1);
                        group_counts[g] += 1.0;
                    }
                    let n: f64 = group_counts.iter().sum();
                    let entropy: f64 = group_counts
                        .iter()
                        .filter(|c| **c > 0.0)
                        .map(|c| {
                            let p = c / n;
                            -p * p.ln()
                        })
                        .sum();
                    total += entropy;
                    count += 1.0;
                }
            }
            total / count
        };
        let skewed = avg_entropy(0.2);
        let balanced = avg_entropy(5.0);
        assert!(
            skewed < balanced,
            "expected lower domain entropy with smaller beta: {skewed} vs {balanced}"
        );
    }

    #[test]
    fn profiles_shape_the_frequency_head() {
        // A Zipf(1.7) party concentrates more mass on its top item than a
        // Poisson(10) party does.
        let ds = generate_syn(&tiny_config(0.5), 3);
        let head_share = |idx: usize| {
            let p = &ds.parties()[idx];
            let table = p.frequency_table();
            let top = table.top_k(1)[0];
            table.frequency(top)
        };
        // Party 7 is Zipf(1.7), party 0 is Poisson(10).
        assert!(head_share(7) > head_share(0));
    }

    #[test]
    fn custom_party_specs_are_respected() {
        let custom = vec![
            SynPartySpec {
                name: "a",
                users: 30_000,
                profile: FrequencyProfile::Zipf(1.2),
            },
            SynPartySpec {
                name: "b",
                users: 60_000,
                profile: FrequencyProfile::Poisson(5.0),
            },
        ];
        let ds = generate_syn_with_parties(&tiny_config(0.5), &custom, 2);
        assert_eq!(ds.party_count(), 2);
        assert!(ds.parties()[1].user_count() > ds.parties()[0].user_count());
    }
}
