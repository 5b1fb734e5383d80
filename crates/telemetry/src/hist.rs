//! Log-bucketed latency histograms with mergeable snapshots.
//!
//! The bucket layout is an HdrHistogram-style log-linear scheme: values below
//! `2^SUB_BITS` get their own bucket (exact), and every power-of-two range
//! above that is split into `2^SUB_BITS` linear sub-buckets. With
//! `SUB_BITS = 5` the maximum relative quantile error is `2^-5 ≈ 3.1%`,
//! which is far below run-to-run noise for any latency this repo measures,
//! while the whole table stays under 2 KB of counts.
//!
//! Recording is branch-light integer math (a `leading_zeros` and two shifts)
//! and never allocates after construction, so it is safe to call on the
//! fabric's per-packet path.

/// Sub-bucket resolution: each power-of-two range splits into `2^SUB_BITS`
/// linear buckets.
const SUB_BITS: u32 = 5;
const SUB_COUNT: usize = 1 << SUB_BITS; // 32
/// Number of power-of-two ranges above the exact region: exponents
/// `SUB_BITS..=63` cover the full u64 domain.
const RANGES: usize = 64 - SUB_BITS as usize;
/// Total bucket count: the exact region plus the log-linear ranges.
pub const BUCKETS: usize = SUB_COUNT + RANGES * SUB_COUNT;

/// Maps a value to its bucket index.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS
        let sub = ((v >> (exp - SUB_BITS)) & (SUB_COUNT as u64 - 1)) as usize;
        SUB_COUNT + (exp - SUB_BITS) as usize * SUB_COUNT + sub
    }
}

/// The largest value that maps into bucket `idx` (inclusive upper bound).
/// Quantile queries report this bound, so they never under-report.
#[inline]
fn bucket_upper_bound(idx: usize) -> u64 {
    if idx < SUB_COUNT {
        idx as u64
    } else {
        let rel = idx - SUB_COUNT;
        let exp = (rel / SUB_COUNT) as u32 + SUB_BITS;
        let sub = (rel % SUB_COUNT) as u128;
        let base = 1u128 << exp;
        let width = 1u128 << (exp - SUB_BITS);
        // The topmost bucket's bound exceeds u64::MAX; clamp it.
        (base + (sub + 1) * width - 1).min(u128::from(u64::MAX)) as u64
    }
}

/// A single-writer latency histogram. Values are `u64` (nanoseconds by
/// convention, but the math is unit-agnostic).
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Freezes the current state into a mergeable snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            counts: self.counts.to_vec(),
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }
}

/// An immutable, mergeable view of a histogram. Merging is element-wise and
/// therefore associative, commutative, and order-independent (see the
/// proptest suite).
#[derive(Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl std::fmt::Debug for HistSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistSnapshot")
            .field("count", &self.count)
            .field("quantiles", &self.quantiles())
            .finish()
    }
}

impl HistSnapshot {
    /// An empty snapshot (the identity element for [`merge`](Self::merge)).
    pub fn empty() -> Self {
        HistSnapshot {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Merges an iterator of snapshots into one.
    pub fn merged<'a, I: IntoIterator<Item = &'a HistSnapshot>>(parts: I) -> Self {
        let mut out = Self::empty();
        for p in parts {
            out.merge(p);
        }
        out
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) by nearest rank, reported as the
    /// containing bucket's inclusive upper bound (clamped to the observed
    /// max). Returns `None` if the snapshot is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper_bound(idx).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Iterates every bucket in ascending value order as
    /// `(inclusive upper bound, count)` pairs — [`BUCKETS`] entries, zero
    /// counts included so consumers can rebin without guessing the layout.
    /// The topmost bucket's bound is clamped to `u64::MAX` (its true range
    /// end exceeds the u64 domain).
    pub fn buckets(&self) -> impl Iterator<Item = HistBucket> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(idx, &count)| HistBucket {
                upper_bound: bucket_upper_bound(idx),
                count,
            })
    }

    /// The standard summary tuple used by every exporter.
    pub fn quantiles(&self) -> Quantiles {
        Quantiles {
            count: self.count,
            mean_ns: self.mean(),
            min_ns: self.min().unwrap_or(0),
            p50_ns: self.quantile(0.50).unwrap_or(0),
            p90_ns: self.quantile(0.90).unwrap_or(0),
            p99_ns: self.quantile(0.99).unwrap_or(0),
            p999_ns: self.quantile(0.999).unwrap_or(0),
            max_ns: self.max().unwrap_or(0),
        }
    }
}

/// One bucket of a [`HistSnapshot`]: the inclusive upper bound of its value
/// range and the number of samples that fell into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistBucket {
    /// Largest value that maps into this bucket (clamped to `u64::MAX` for
    /// the topmost bucket).
    pub upper_bound: u64,
    /// Samples recorded in this bucket.
    pub count: u64,
}

/// Summary statistics of a latency distribution, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Minimum.
    pub min_ns: u64,
    /// Median.
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Maximum.
    pub max_ns: u64,
}

impl Quantiles {
    /// Renders as a compact one-line human summary in microseconds.
    pub fn to_line(&self) -> String {
        format!(
            "n={} mean={:.1}us p50={:.1}us p90={:.1}us p99={:.1}us p999={:.1}us max={:.1}us",
            self.count,
            self.mean_ns / 1e3,
            self.p50_ns as f64 / 1e3,
            self.p90_ns as f64 / 1e3,
            self.p99_ns as f64 / 1e3,
            self.p999_ns as f64 / 1e3,
            self.max_ns as f64 / 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact oracle: nearest-rank percentile over a sorted vector.
    fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // With one sample per bucket, each quantile lands exactly.
        for v in 0..32u64 {
            let q = (v + 1) as f64 / 32.0;
            assert_eq!(s.quantile(q), Some(v), "q={q}");
        }
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(31));
    }

    #[test]
    fn bucket_bounds_cover_index_roundtrip() {
        // Every bucket's upper bound must map back into that bucket, and the
        // next value must map to a later bucket.
        for idx in 0..BUCKETS {
            let hi = bucket_upper_bound(idx);
            assert_eq!(bucket_index(hi), idx, "upper bound of {idx}");
            if let Some(next) = hi.checked_add(1) {
                assert!(bucket_index(next) > idx, "value after bucket {idx}");
            }
        }
    }

    #[test]
    fn quantiles_within_relative_error_of_oracle() {
        // A spread of magnitudes: exact region, microseconds, milliseconds.
        let mut vals: Vec<u64> = Vec::new();
        let mut x: u64 = 3;
        for i in 0..10_000u64 {
            // Deterministic pseudo-random walk across several decades.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mag = 1u64 << (i % 24); // up to ~16M ns
            vals.push(x % mag.max(1));
        }
        let mut h = LatencyHistogram::new();
        for &v in &vals {
            h.record(v);
        }
        let s = h.snapshot();
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for &q in &[0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = oracle_quantile(&sorted, q);
            let approx = s.quantile(q).unwrap();
            // The histogram reports the bucket's upper bound, so it can only
            // over-report, and by at most 2^-SUB_BITS relative error.
            assert!(approx >= exact, "q={q}: approx {approx} < exact {exact}");
            let err = (approx - exact) as f64 / (exact.max(1)) as f64;
            assert!(err <= 1.0 / 32.0 + 1e-9, "q={q}: err {err}");
        }
        assert_eq!(s.count(), sorted.len() as u64);
        assert_eq!(s.min(), Some(sorted[0]));
        assert_eq!(s.max(), Some(*sorted.last().unwrap()));
        let exact_mean = sorted.iter().map(|&v| v as f64).sum::<f64>() / sorted.len() as f64;
        assert!((s.mean() - exact_mean).abs() < 1e-6);
    }

    #[test]
    fn merge_equals_single_histogram() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for v in [1u64, 50, 999, 123_456, 7_000_000, 42] {
            a.record(v);
            all.record(v);
        }
        for v in [3u64, 31, 32, 1_000_000_000, 17] {
            b.record(v);
            all.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m, all.snapshot());
    }

    #[test]
    fn empty_snapshot_behaviour() {
        let s = HistSnapshot::empty();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), 0.0);
        let q = s.quantiles();
        assert_eq!(q.count, 0);
        assert_eq!(q.p99_ns, 0);
    }

    #[test]
    fn bucket_iteration_matches_sorted_vector_oracle() {
        // The bucket iterator must reproduce the histogram exactly: same
        // total count, counts in the right ranges, and quantiles recomputed
        // from the iterated buckets must equal HistSnapshot::quantile.
        let mut vals: Vec<u64> = Vec::new();
        let mut x: u64 = 9;
        for i in 0..5_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            vals.push(x % (1u64 << (i % 40)).max(1));
        }
        let mut h = LatencyHistogram::new();
        for &v in &vals {
            h.record(v);
        }
        let s = h.snapshot();

        let buckets: Vec<HistBucket> = s.buckets().collect();
        assert_eq!(buckets.len(), BUCKETS);
        // Upper bounds strictly increase until the clamp region.
        for w in buckets.windows(2) {
            assert!(w[0].upper_bound <= w[1].upper_bound);
        }
        assert_eq!(buckets.iter().map(|b| b.count).sum::<u64>(), s.count());

        // Oracle: every sample must fall inside its bucket's range, checked
        // by counting how many sorted samples fit under each upper bound.
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        let mut cumulative = 0u64;
        for b in &buckets {
            cumulative += b.count;
            let oracle = sorted.partition_point(|&v| v <= b.upper_bound) as u64;
            assert_eq!(
                cumulative, oracle,
                "cumulative count diverges at bound {}",
                b.upper_bound
            );
        }

        // Quantiles recomputed from the iterated buckets equal the built-ins.
        for &q in &[0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * s.count() as f64).ceil() as u64).clamp(1, s.count());
            let mut seen = 0u64;
            let mut from_iter = None;
            for b in &buckets {
                seen += b.count;
                if seen >= rank {
                    from_iter = Some(b.upper_bound.min(s.max().unwrap()));
                    break;
                }
            }
            assert_eq!(from_iter, s.quantile(q), "q={q}");
        }
    }

    #[test]
    fn topmost_bucket_is_clamped_and_iterable() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        let last = s.buckets().last().unwrap();
        assert_eq!(last.upper_bound, u64::MAX);
        assert_eq!(last.count, 1);
        // The clamped bound still round-trips through quantile logic.
        assert_eq!(s.quantile(1.0), Some(u64::MAX));
        // And the occupied bucket found by iteration is the last one.
        let occupied: Vec<HistBucket> = s.buckets().filter(|b| b.count > 0).collect();
        assert_eq!(occupied, vec![last]);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.max(), Some(u64::MAX));
        assert_eq!(s.quantile(1.0), Some(u64::MAX));
    }
}
