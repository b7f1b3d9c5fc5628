//! Zipf-distributed rank sampling.
//!
//! Word frequencies, product popularity and most other heavy-hitter
//! workloads are classically Zipfian: the item of rank r has probability
//! proportional to r^(−α).  The paper's SYN parties use α ∈ {1.1, 1.3, 1.5,
//! 1.7}; the real-world stand-ins use α ≈ 1.1 by default.

use rand::Rng;

/// A sampler over ranks `0..n` with Zipf(α) probabilities.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// The rank distribution, `cdf[r] = P(rank ≤ r)`.
    table: SamplingTable,
    alpha: f64,
}

impl ZipfSampler {
    /// Creates a Zipf sampler over `n` ranks with exponent `alpha > 0`.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf sampler needs at least one rank");
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "Zipf exponent must be positive"
        );
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-alpha)).collect();
        Self {
            table: SamplingTable::cumulative(&weights),
            alpha,
        }
    }

    /// The exponent α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the sampler has no ranks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Probability of rank `r`.
    pub fn probability(&self, r: usize) -> f64 {
        self.table.probability(r)
    }

    /// Samples a rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.table.sample(rng)
    }

    /// Consumes the sampler, returning its sampling table (used by the
    /// streaming dataset generators, which sample the table directly so a
    /// party's item sequence can be regenerated chunk by chunk).
    pub fn into_table(self) -> SamplingTable {
        self.table
    }
}

/// Ranks per guide bucket: the guide holds one `u32` per four ranks, so
/// an average draw searches a bucket of about four CDF entries.
const RANKS_PER_BUCKET: usize = 4;

/// An inverse-transform sampling table over ranks `0..n`: a CDF plus a
/// guide table (Chen & Asau, 1974; Devroye, *Non-Uniform Random Variate
/// Generation*, §III.2.4).
///
/// The guide splits `[0, 1)` into `m = ⌈n / 4⌉` equal buckets, and
/// `guide[j]` is the first rank whose CDF value falls in bucket `j` or
/// later — the first rank with `cdf ≥ j/m`, under the same rounding a draw
/// uses to find its bucket.  A draw reads one `f64` `u` from the RNG,
/// jumps to `guide[⌊u·m⌋]` and searches only the ranks up to the next
/// bucket's entry, so it costs `O(1)` expected comparisons instead of the
/// `O(log n)` of a binary search over the whole CDF.
///
/// The rank drawn for `u` is the first `r` with `cdf[r] ≥ u`, clamped to
/// `n − 1` — exactly what a binary search over the CDF returns.  (When `u`
/// equals a value repeated in the CDF, the table returns the first of the
/// tied ranks.)  The clamp means the last entry is never compared: a CDF
/// whose accumulated total ends a rounding error away from 1 samples the
/// same ranks as one whose last entry is exactly 1.
#[derive(Debug, Clone)]
pub struct SamplingTable {
    /// `cdf[r] = P(rank ≤ r)`.
    cdf: Vec<f64>,
    /// `m + 1` entries: `guide[j]` is the first rank below `n − 1` whose
    /// CDF lies in bucket `j` or later (`n − 1` when none does).
    guide: Vec<u32>,
}

impl SamplingTable {
    /// Builds the table of the normalized CDF of non-negative `weights`;
    /// the last entry is set to exactly 1.
    ///
    /// # Panics
    ///
    /// Panics when the weights sum to zero, or when the CDF fails the
    /// checks of [`SamplingTable::from_cdf`].
    pub fn cumulative(weights: &[f64]) -> Self {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(weights.len());
        for w in weights {
            acc += w / total;
            cdf.push(acc);
        }
        // Rounding drift aside, the probabilities sum to exactly 1.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self::from_cdf(cdf)
    }

    /// Builds the table of a ready-made CDF.
    ///
    /// # Panics
    ///
    /// Panics, naming the fault, when the CDF is empty, holds a
    /// non-finite entry, or decreases anywhere before its last entry.
    pub fn from_cdf(cdf: Vec<f64>) -> Self {
        assert!(!cdf.is_empty(), "sampling table: the CDF is empty");
        assert!(
            u32::try_from(cdf.len()).is_ok(),
            "sampling table: {} ranks do not fit a u32 guide",
            cdf.len()
        );
        let last = cdf.len() - 1;
        let buckets = cdf.len().div_ceil(RANKS_PER_BUCKET);
        let mut guide = vec![last as u32; buckets + 1];
        // One pass validates the entries below the last and fills the guide:
        // `next` is the first bucket whose entry is still unknown.
        let mut next = 0;
        let mut prev = f64::NEG_INFINITY;
        for (r, &c) in cdf[..last].iter().enumerate() {
            if !(c.is_finite() && c >= prev) {
                invalid_cdf(&cdf, r);
            }
            prev = c;
            let b = bucket(c, buckets);
            if b >= next {
                guide[next..=b].fill(r as u32);
                next = b + 1;
            }
        }
        if !cdf[last].is_finite() {
            invalid_cdf(&cdf, last);
        }
        Self { cdf, guide }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the table has no ranks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability of rank `r` (0 outside `0..n`).
    pub fn probability(&self, r: usize) -> f64 {
        if r >= self.cdf.len() {
            return 0.0;
        }
        let prev = if r == 0 { 0.0 } else { self.cdf[r - 1] };
        self.cdf[r] - prev
    }

    /// Samples a rank in `0..n`, reading exactly one `f64` from `rng`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.gen())
    }

    /// The rank drawn for the uniform variate `u ∈ [0, 1)`.
    #[inline]
    fn rank_of(&self, u: f64) -> usize {
        let j = bucket(u, self.guide.len() - 1);
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        lo + self.cdf[lo..hi].partition_point(|&c| c < u)
    }
}

/// Panics with the fault of `cdf[r]`, the first entry that is not finite
/// or, below the last entry, smaller than its predecessor.
#[cold]
fn invalid_cdf(cdf: &[f64], r: usize) -> ! {
    let c = cdf[r];
    if c.is_finite() {
        panic!(
            "sampling table: the CDF decreases at rank {r} ({c} after {})",
            cdf[r - 1]
        );
    }
    panic!("sampling table: CDF entry {r} is not finite ({c})");
}

/// The guide bucket of `x` among `buckets` equal buckets of `[0, 1)`.
/// Monotone in `x`, which is all the guide's correctness rests on: a rank
/// whose CDF lies in an earlier bucket than `u` is below `u`, and one in a
/// later bucket is above it.  (The saturating cast to `u32` is monotone
/// too, and cheaper than one to `usize`; `buckets` fits a `u32`.)
#[inline]
fn bucket(x: f64, buckets: usize) -> usize {
    ((x * buckets as f64) as u32 as usize).min(buckets - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolve::{EvolutionPlan, PopulationEvolver};
    use crate::poisson::PoissonWeights;
    use crate::registry::{DatasetConfig, DatasetKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The binary-search sampler the guide table replaced: the reference
    /// every table draw must agree with.
    fn reference_rank(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    /// Asserts that `table` draws the reference rank over `cdf` for `u`.
    /// They may differ only where `u` equals a value repeated in the CDF:
    /// std's binary search returns an unspecified one of the tied ranks,
    /// the table always the first.
    fn assert_reference_rank(cdf: &[f64], table: &SamplingTable, u: f64) {
        let got = table.rank_of(u);
        let want = reference_rank(cdf, u);
        if got != want {
            let first = cdf.partition_point(|&c| c < u);
            assert!(
                cdf[want] == u && cdf[first] == u && got == first,
                "u = {u:e}: table drew rank {got}, binary search rank {want}"
            );
        }
    }

    /// 1e6 random draws, then every CDF value exactly, its neighbours,
    /// and both ends of the variate's range `[0, 1)`.
    fn assert_equivalent(cdf: &[f64], table: &SamplingTable, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..1_000_000 {
            assert_reference_rank(cdf, table, rng.gen());
        }
        let exact = cdf
            .iter()
            .flat_map(|&c| [c, c.next_up(), c.next_down()])
            .chain([0.0, 1.0 - f64::EPSILON / 2.0])
            .filter(|u| (0.0..1.0).contains(u));
        for u in exact {
            assert_reference_rank(cdf, table, u);
        }
    }

    /// Item pools at their paper size (`item_scale` 1.0); few users.
    fn paper_pools() -> DatasetConfig {
        DatasetConfig {
            user_scale: 0.001,
            ..DatasetConfig::paper_scale()
        }
    }

    #[test]
    fn guide_table_matches_binary_search_on_every_dataset_pool() {
        for kind in DatasetKind::ALL {
            let dataset = paper_pools().build_streamed(kind);
            for (p, party) in dataset.parties().iter().enumerate() {
                let stream = party.stream();
                let table = stream.sampling_table().expect("generated stream");
                assert_equivalent(&table.cdf, table, p as u64);
            }
        }
    }

    #[test]
    fn guide_table_matches_binary_search_on_evolver_pools() {
        let base = paper_pools().build_streamed(DatasetKind::Uba);
        let evolver = PopulationEvolver::new(base.clone(), EvolutionPlan::frozen(3));
        for (party, evolved) in base.parties().iter().zip(evolver.epoch(1).parties()) {
            // The evolver's pool CDF as it was accumulated before it went
            // through `SamplingTable::cumulative`: its last entry is not
            // forced to 1.
            let ranked = party.frequency_table().ranked();
            let total: f64 = ranked.iter().map(|(_, count)| *count as f64).sum();
            let mut acc = 0.0;
            let unforced: Vec<f64> = ranked
                .iter()
                .map(|(_, count)| {
                    acc += *count as f64 / total;
                    acc
                })
                .collect();
            let stream = evolved.stream();
            let table = stream.sampling_table().expect("churn layer");
            assert_equivalent(&unforced, table, 11);
            assert_equivalent(&table.cdf, table, 12);
        }
    }

    #[test]
    fn single_rank_tables_always_draw_rank_zero() {
        let table = SamplingTable::from_cdf(vec![1.0]);
        assert_equivalent(&[1.0], &table, 1);
        let mut rng = StdRng::seed_from_u64(1);
        assert!((0..1000).all(|_| table.sample(&mut rng) == 0));
    }

    #[test]
    fn a_last_entry_below_one_catches_the_rest_of_the_range() {
        let cdf = vec![0.2, 0.45, 0.5, 0.7, 0.75, 0.9];
        let table = SamplingTable::from_cdf(cdf.clone());
        assert_equivalent(&cdf, &table, 2);
        assert_eq!(table.rank_of(0.95), 5);
        assert_eq!(table.rank_of(1.0 - f64::EPSILON / 2.0), 5);
    }

    #[test]
    fn repeated_values_draw_the_first_tied_rank() {
        let cdf = vec![0.1, 0.3, 0.3, 0.3, 0.3, 0.6, 0.6, 1.0, 1.0];
        let table = SamplingTable::from_cdf(cdf.clone());
        assert_equivalent(&cdf, &table, 3);
        assert_eq!(table.rank_of(0.3), 1);
        assert_eq!(table.rank_of(0.6), 5);
        assert_eq!(table.rank_of(0.3f64.next_up()), 5);
        // The Poisson tail of a wide SYN domain saturates: the pmf falls
        // below the accumulated total's rounding step.
        let poisson = PoissonWeights::new(5_000, 8.0).into_table();
        let cdf = &poisson.cdf;
        let tied = cdf.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(tied > 4_000, "{tied} repeated entries");
        assert_equivalent(cdf, &poisson, 4);
    }

    #[test]
    #[should_panic(expected = "sampling table: the CDF is empty")]
    fn rejects_an_empty_cdf() {
        SamplingTable::from_cdf(Vec::new());
    }

    #[test]
    #[should_panic(expected = "sampling table: CDF entry 1 is not finite (NaN)")]
    fn rejects_a_nan_cdf_entry() {
        SamplingTable::from_cdf(vec![0.5, f64::NAN, 1.0]);
    }

    #[test]
    #[should_panic(expected = "sampling table: CDF entry 2 is not finite (inf)")]
    fn rejects_an_infinite_cdf_entry() {
        SamplingTable::from_cdf(vec![0.5, 0.7, f64::INFINITY]);
    }

    #[test]
    #[should_panic(expected = "sampling table: the CDF decreases at rank 2")]
    fn rejects_a_decreasing_cdf() {
        SamplingTable::from_cdf(vec![0.3, 0.6, 0.5, 1.0]);
    }

    #[test]
    fn a_last_entry_below_its_predecessor_is_accepted() {
        // Accumulation can round the second-to-last entry above the exact
        // 1 that `cumulative` writes last; the clamp never compares it.
        let cdf = vec![0.4, 1.0f64.next_up(), 1.0];
        let table = SamplingTable::from_cdf(cdf.clone());
        assert_equivalent(&cdf, &table, 5);
    }

    #[test]
    fn probabilities_sum_to_one_and_decay() {
        let z = ZipfSampler::new(100, 1.2);
        let total: f64 = (0..100).map(|r| z.probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for r in 1..100 {
            assert!(z.probability(r) <= z.probability(r - 1) + 1e-12);
        }
        assert_eq!(z.probability(1000), 0.0);
    }

    #[test]
    fn larger_alpha_concentrates_more_mass_on_rank_zero() {
        let flat = ZipfSampler::new(50, 0.8);
        let steep = ZipfSampler::new(50, 2.0);
        assert!(steep.probability(0) > flat.probability(0));
    }

    #[test]
    fn empirical_frequencies_match_probabilities() {
        let z = ZipfSampler::new(20, 1.1);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 100_000;
        let mut counts = [0usize; 20];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (r, &count) in counts.iter().enumerate().take(5) {
            let emp = count as f64 / n as f64;
            assert!((emp - z.probability(r)).abs() < 0.01, "rank {r}: {emp}");
        }
    }

    #[test]
    fn single_rank_always_samples_zero() {
        let z = ZipfSampler::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn rejects_empty_domain() {
        ZipfSampler::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_non_positive_alpha() {
        ZipfSampler::new(10, 0.0);
    }
}
