//! Order statistics over repetitions and over latency histograms.

use netchain_telemetry::HistSnapshot;

/// First quartile, median and third quartile of a set of values, computed
/// exactly like Python's `statistics.quantiles(values, n=4)` (the
/// "exclusive" method) so the benchmark's own spread figures match the ones
/// the acceptance driver computes from the same numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Quartiles {
    /// Quartiles of `values`; `None` for an empty set. A single value is its
    /// own quartiles (Python raises there; a one-repetition `--quick` run
    /// still needs a number to print).
    pub fn of(values: &[f64]) -> Option<Quartiles> {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => None,
            1 => Some(Quartiles {
                q1: v[0],
                median: v[0],
                q3: v[0],
                samples: 1,
            }),
            _ => {
                let cut = |i: usize| {
                    // Cut point i of 4 over m = n + 1 positions.
                    let m = n + 1;
                    let j = (i * m / 4).clamp(1, n - 1);
                    let delta = (i * m) as f64 - (j * 4) as f64;
                    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
                };
                Some(Quartiles {
                    q1: cut(1),
                    median: cut(2),
                    q3: cut(3),
                    samples: n,
                })
            }
        }
    }

    /// Interquartile range as a share of the median: the spread the bounds
    /// are judged against.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// How far the median of another set of as many values would plausibly
    /// land, as a share of this one: the inter-quartile range shrunk by √n.
    /// (The values' own range overstates it when the figure compared is
    /// their median, not one of them.)
    pub fn median_spread(&self) -> f64 {
        self.iqr_share() / (self.samples.max(1) as f64).sqrt()
    }
}

/// Median of `values` (0.0 for an empty set).
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).map_or(0.0, |q| q.median)
}

/// The value at rank `⌊q · n⌋` of the sorted `values`, clamped to the last
/// (0.0 for an empty set): `q = 0.95` is the value only a twentieth of them
/// exceed.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[((q.clamp(0.0, 1.0) * n as f64) as usize).min(n - 1)],
    }
}

/// Share of the samples a calm-host figure leaves on its better side.
pub const CALM_TAIL: f64 = 0.05;

/// What the program does when the host leaves it alone: the value the best
/// twentieth of `values` reach. On a shared host interference only ever slows
/// a sample down, by a quarter for seconds at a time, so the median of the
/// samples follows the host while their better edge stays put (see the
/// README, "How the figures are taken").
pub fn calm(values: &[f64], higher_is_better: bool) -> f64 {
    if higher_is_better {
        quantile(values, 1.0 - CALM_TAIL)
    } else {
        // The mirror image: as many samples below it as `quantile` leaves
        // above.
        let flipped: Vec<f64> = values.iter().map(|v| -v).collect();
        -quantile(&flipped, 1.0 - CALM_TAIL)
    }
}

/// The `q`-quantile of a latency histogram in nanoseconds, interpolated
/// linearly inside the bucket that holds the rank. `HistSnapshot::quantile`
/// answers with the bucket's upper bound, which moves in 3 % steps and so
/// reads exactly the same on many runs; a gated median must not be quantised
/// by the recorder.
pub fn hist_quantile_ns(hist: &HistSnapshot, q: f64) -> Option<f64> {
    let total = hist.count();
    if total == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let mut seen = 0u64;
    let mut lower = 0u64;
    for bucket in hist.buckets() {
        if bucket.count > 0 && (seen + bucket.count) as f64 >= rank {
            let lo = lower.max(hist.min().unwrap_or(0)) as f64;
            let hi = bucket.upper_bound.min(hist.max().unwrap_or(u64::MAX)) as f64;
            let into = (rank - seen as f64) / bucket.count as f64;
            return Some(lo + (hi - lo).max(0.0) * into);
        }
        seen += bucket.count;
        lower = bucket.upper_bound.saturating_add(1);
    }
    hist.max().map(|m| m as f64)
}

/// Samples of `hist` above `limit_ns`. A bucket that straddles the limit is
/// counted as above it, so the share never under-reports misses.
pub fn samples_above(hist: &HistSnapshot, limit_ns: u64) -> u64 {
    hist.buckets()
        .filter(|b| b.upper_bound > limit_ns)
        .map(|b| b.count)
        .sum()
}

/// Share of `issued` operations that missed the latency limit: completed too
/// late, or never completed at all (a failed operation misses any limit).
pub fn slo_miss_share(hist: &HistSnapshot, limit_ns: u64, issued: u64) -> f64 {
    if issued == 0 {
        return 0.0;
    }
    let never = issued.saturating_sub(hist.count());
    (samples_above(hist, limit_ns) + never) as f64 / issued as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use netchain_telemetry::LatencyHistogram;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = Quartiles::of(&[10.0, 20.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
        assert!((q.iqr_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_value_is_its_own_quartiles_and_none_has_none() {
        let q = Quartiles::of(&[4.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.samples), (4.0, 4.0, 4.0, 1));
        assert!(Quartiles::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn calm_is_the_better_edge_whichever_way_better_points() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // Five of a hundred samples are better than the figure, either way.
        assert_eq!(calm(&v, true), 96.0);
        assert_eq!(calm(&v, false), 5.0);
        // Few samples: the best one.
        assert_eq!(calm(&[3.0, 9.0, 4.0], true), 9.0);
        assert_eq!(calm(&[3.0, 9.0, 4.0], false), 3.0);
        // A slow stretch of the host moves the median, not the edge.
        let mut slowed = v.clone();
        for x in slowed.iter_mut().take(60) {
            *x *= 0.7;
        }
        assert!(median(&slowed) < 0.8 * median(&v));
        assert_eq!(calm(&slowed, true), calm(&v, true));
    }

    fn hist_of(values: &[u64]) -> HistSnapshot {
        let mut h = LatencyHistogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn slo_share_counts_slow_and_never_completed() {
        // 8 fast, 2 slow, and 10 issued ops that never completed.
        let mut values = vec![1_000u64; 8];
        values.extend([900_000, 2_000_000]);
        let hist = hist_of(&values);
        assert_eq!(samples_above(&hist, 250_000), 2);
        assert!((slo_miss_share(&hist, 250_000, 20) - 12.0 / 20.0).abs() < 1e-12);
        assert_eq!(slo_miss_share(&hist, 250_000, 0), 0.0);
    }

    #[test]
    fn interpolated_quantile_stays_inside_the_recorders_error() {
        let values: Vec<u64> = (1..=10_000u64).map(|i| i * 37).collect();
        let hist = hist_of(&values);
        let exact = values[values.len() / 2 - 1] as f64;
        let p50 = hist_quantile_ns(&hist, 0.5).unwrap();
        assert!((p50 - exact).abs() / exact < 1.0 / 32.0, "{p50} vs {exact}");
        // Unlike the bucket bound, it moves when the data moves a little.
        let shifted: Vec<u64> = values.iter().map(|v| v + v / 200).collect();
        let p50_shifted = hist_quantile_ns(&hist_of(&shifted), 0.5).unwrap();
        assert!(p50_shifted > p50);
        assert!(hist_quantile_ns(&HistSnapshot::empty(), 0.5).is_none());
    }
}
