//! The benchmark's own statistics: warm-up discard, equal-count
//! slices, medians and quartiles over them, and a tail percentile that
//! is only reported where enough samples lie beyond it.
//!
//! Every timing metric is a **quartile over slices**, the one on the
//! metric's better side: on a shared machine a disturbance only ever
//! slows a slice down, so the fast quartile reads the undisturbed
//! system until three quarters of a run are disturbed.

use crate::metrics::Better;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Share of a run that is warm-up and discarded.
pub const WARMUP_SHARE: f64 = 0.10;

/// Equal-count slices the timed remainder is cut into.
pub const SLICES: usize = 20;

/// Median of `values` (mean of the two middle values for an even
/// count). `None` for an empty input.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First, second and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), so the spread this
/// crate prints is the spread the acceptance script computes. `None`
/// for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // j = i*(n+1) / 4, delta = i*(n+1) % 4, clamped to 1..n-1.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// What a run measured for one metric: the value it reports and the
/// spread of the samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// What the run reports: the median, or for a timing pooled over
    /// slices the quartile on the metric's better side
    /// ([`Spread::of_slices`]).
    pub value: f64,
    /// Median of the samples.
    pub median: f64,
    /// Third minus first quartile (0 for fewer than two samples).
    pub iqr: f64,
    /// Samples summarised.
    pub n: usize,
    /// Third minus first quartile of the repeats' own medians: how far
    /// the rounds of one run, each a fresh cluster, disagree about the
    /// figure. The nearest thing to a run-to-run spread one run has, and
    /// what `compare` calls a reading unresolved by.
    pub round_iqr: f64,
}

impl Spread {
    /// Summarises `values`, one per repeat (round or query), and
    /// reports their median; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Spread> {
        let median = median(values)?;
        let iqr = quartiles(values).map_or(0.0, |q| q[2] - q[0]);
        Some(Spread {
            value: median,
            median,
            iqr,
            n: values.len(),
            round_iqr: iqr,
        })
    }

    /// Summarises the pooled slices of several rounds (`rounds[i]` are
    /// the slices of round `i`) and reports their quartile on the
    /// `better` side; `None` when there are none.
    ///
    /// Why not the median: the hosts this runs on slow down for seconds
    /// to a minute at a time (a neighbour on the same core, with nothing
    /// else running in the VM), never speed up, and a run whose slices
    /// are mostly slow reads a fifth off its neighbours.
    /// The median holds while under half the slices are disturbed, the
    /// fast quartile while under three quarters are; on a quiet box the
    /// two repeat equally well (1–4 % over ten seeds) and lie 2–4 % apart.
    pub fn of_slices(rounds: &[&[f64]], better: Better) -> Option<Spread> {
        let pooled: Vec<f64> = rounds.iter().flat_map(|r| r.iter().copied()).collect();
        let medians: Vec<f64> = rounds.iter().filter_map(|r| median(r)).collect();
        let all = Spread::of(&pooled)?;
        Some(Spread {
            value: quartiles(&pooled).map_or(all.median, |q| match better {
                Better::Lower => q[0],
                Better::Higher => q[2],
            }),
            round_iqr: Spread::of(&medians).map_or(0.0, |s| s.iqr),
            ..all
        })
    }

    /// A single exact value (a count): no spread.
    pub fn exact(value: f64) -> Spread {
        Spread {
            value,
            median: value,
            iqr: 0.0,
            n: 1,
            round_iqr: 0.0,
        }
    }
}

/// The quantile actually reported for a requested tail quantile `q` over
/// `n` samples: lowered until at least [`TAIL_MIN_BEYOND`] samples lie
/// beyond it, never below the median.
pub fn supported_quantile(n: usize, q: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let cap = 1.0 - TAIL_MIN_BEYOND as f64 / n as f64;
    q.min(cap).max(0.5)
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The middle band: samples from the p25 up to the p75 of a slice.
pub const MID_BAND: (f64, f64) = (0.25, 0.75);

/// The tail band: samples from the p95 up to the p99.9 of a slice.
pub const TAIL_BAND: (f64, f64) = (0.95, 0.999);

/// Mean of the samples of an ascending slice whose nearest ranks run from
/// quantile `lo` to quantile `hi`.
///
/// Latency on a saturated closed loop is multi-modal (a fast path, a
/// path behind a probe wave or an fsync, a path behind a preempted
/// thread). A percentile that falls between two modes, or out in a long
/// thin tail, jumps when a little mass moves across it; a band mean
/// around the same percentile integrates and moves in proportion.
pub fn band_mean(sorted: &[u64], lo: f64, hi: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = |q: f64| ((q * n as f64).ceil() as usize).clamp(1, n);
    let lo = rank(lo);
    let band = &sorted[lo - 1..rank(hi).max(lo)];
    Some(band.iter().sum::<u64>() as f64 / band.len() as f64)
}

/// The p50 region, smoothed: the interquartile mean. Equal to the
/// median on a symmetric distribution; where the median sits between
/// two modes (`read-hot`: 27 µs and 50 µs, and the plain p50 read
/// 29–37 µs run to run) it repeats four times better.
pub fn mid_band_mean(sorted: &[u64]) -> Option<f64> {
    band_mean(sorted, MID_BAND.0, MID_BAND.1)
}

/// The p99 region, smoothed: the mean from the p95 (lowered until
/// ≥ [`TAIL_MIN_BEYOND`] samples lie beyond it) up to the p99.9.
///
/// Why not the p99 itself: one commit's `read-hot` p99 read 743–1263 µs
/// run to run. Why not the mean of everything beyond the p99: one 30 ms
/// stall of the host parks sixteen in-flight requests there and doubles
/// it. The band mean sits within a tenth of the plain p99 on every
/// workload and repeats three times better where the p99 does not.
pub fn tail_band_mean(sorted: &[u64]) -> Option<f64> {
    band_mean(
        sorted,
        supported_quantile(sorted.len(), TAIL_BAND.0),
        TAIL_BAND.1,
    )
}

/// Mean of a slice; `None` when empty.
pub fn mean(values: &[u64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<u64>() as f64 / values.len() as f64)
}

/// How a run of `total` completions is cut: a discarded warm-up prefix
/// followed by [`SLICES`] equal-count slices (the last takes the
/// remainder).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlicePlan {
    /// Completions that are warm-up.
    pub warmup: usize,
    /// Timed completions (`total - warmup`).
    pub timed: usize,
}

impl SlicePlan {
    /// Plans a run of `total` completions.
    pub fn new(total: usize) -> SlicePlan {
        let warmup = ((total as f64) * WARMUP_SHARE).round() as usize;
        SlicePlan {
            warmup,
            timed: total - warmup,
        }
    }

    /// The slice the `done`-th completion (0-based, whole run) falls in;
    /// `None` during warm-up.
    pub fn slice_of(&self, done: usize) -> Option<usize> {
        let t = done.checked_sub(self.warmup)?;
        if self.timed == 0 {
            return None;
        }
        Some((t * SLICES / self.timed).min(SLICES - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_reports_median_and_iqr() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&v).unwrap();
        assert_eq!((s.value, s.median, s.iqr, s.n), (5.5, 5.5, 5.5, 10));
        assert_eq!(s.round_iqr, 5.5);
        assert_eq!(Spread::of(&[7.0]).unwrap().iqr, 0.0);
        assert!(Spread::of(&[]).is_none());
    }

    #[test]
    fn slices_pool_report_the_better_quartile_and_spread_by_round_medians() {
        // Three rounds that each repeat well but disagree with each other.
        let rounds: [&[f64]; 3] = [
            &[10.0, 10.0, 11.0],
            &[20.0, 20.0, 21.0],
            &[30.0, 30.0, 31.0],
        ];
        // statistics.quantiles(pooled, n=4) == [10.5, 20.0, 30.0]
        let s = Spread::of_slices(&rounds, Better::Lower).unwrap();
        assert_eq!((s.value, s.median, s.n), (10.5, 20.0, 9));
        let s = Spread::of_slices(&rounds, Better::Higher).unwrap();
        assert_eq!((s.value, s.median, s.iqr), (30.0, 20.0, 19.5));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(s.round_iqr, 20.0);
        // One round: nothing to disagree with. One slice: the slice.
        let one = Spread::of_slices(&rounds[..1], Better::Lower).unwrap();
        assert_eq!(one.round_iqr, 0.0);
        assert_eq!(
            Spread::of_slices(&[&[7.0]], Better::Higher).unwrap().value,
            7.0
        );
        assert!(Spread::of_slices(&[], Better::Lower).is_none());
        assert!(Spread::of_slices(&[&[]], Better::Lower).is_none());
    }

    /// What the fast quartile is for: a run two thirds of whose slices
    /// were taken on a host running a third slower still reads the
    /// undisturbed rate; its median does not.
    #[test]
    fn the_better_quartile_holds_while_most_slices_are_disturbed() {
        let quiet = vec![100.0; 30];
        let mut disturbed = vec![67.0; 20];
        disturbed.extend(vec![100.0; 10]);
        let (q, d) = (
            Spread::of_slices(&[&quiet], Better::Higher).unwrap(),
            Spread::of_slices(&[&disturbed], Better::Higher).unwrap(),
        );
        assert_eq!((q.value, d.value), (100.0, 100.0));
        assert_eq!((q.median, d.median), (100.0, 67.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 4000 samples: 40 beyond p99, reported as asked.
        assert_eq!(supported_quantile(4000, 0.99), 0.99);
        // 1000 samples: exactly 10 beyond p99.
        assert_eq!(supported_quantile(1000, 0.99), 0.99);
        // 200 samples: only p95 has 10 beyond it.
        assert!((supported_quantile(200, 0.99) - 0.95).abs() < 1e-12);
        // Too few samples for any tail: the median.
        assert_eq!(supported_quantile(15, 0.99), 0.5);
        assert_eq!(supported_quantile(0, 0.99), 0.5);
    }

    #[test]
    fn nearest_rank_quantile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.50), Some(50));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100));
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn tail_band_smooths_the_p99_region_and_trims_the_extreme() {
        // 1..=10000: the band is ranks 9500..=9990.
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail_band_mean(&v), Some(9745.0));
        assert_eq!(tail_band_mean(&[]), None);
        assert_eq!(tail_band_mean(&[7]), Some(7.0));
        // Few samples: the lower edge drops until 10 lie beyond it.
        let small: Vec<u64> = (1..=100).collect();
        assert_eq!(tail_band_mean(&small), Some(95.0)); // ranks 90..=100

        // A little mass crossing the p99 moves the p99 a hundredfold,
        // the band mean by a fifth: 0.9 % vs 1.1 % of requests at 4000.
        let dist = |slow: usize| -> Vec<u64> {
            let mut v = vec![40; 10_000 - slow];
            v.extend(vec![4_000; slow]);
            v
        };
        let (a, b) = (dist(90), dist(110));
        assert_eq!(quantile_sorted(&a, 0.99), Some(40));
        assert_eq!(quantile_sorted(&b, 0.99), Some(4_000));
        let (ta, tb) = (tail_band_mean(&a).unwrap(), tail_band_mean(&b).unwrap());
        assert!(tb / ta < 1.25, "{ta} vs {tb}");

        // Ten samples stuck behind a 30 ms stall are trimmed, not averaged.
        let mut stalled = dist(100);
        let n = stalled.len();
        stalled[n - 10..].fill(30_000_000);
        assert_eq!(tail_band_mean(&stalled), tail_band_mean(&dist(100)));

        assert_eq!(mean(&[1, 2, 6]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn mid_band_is_the_median_when_symmetric_and_steady_between_modes() {
        let v: Vec<u64> = (1..=1001).collect();
        assert_eq!(mid_band_mean(&v), Some(501.0));
        assert_eq!(quantile_sorted(&v, 0.5), Some(501));
        assert_eq!(mid_band_mean(&[]), None);
        assert_eq!(band_mean(&[5, 6, 7], 0.9, 0.1), Some(7.0)); // hi < lo: the lo sample
                                                                // Two modes, 27 and 50; 49 % vs 51 % of the mass in the fast one.
        let modes = |fast: usize| -> Vec<u64> {
            let mut v = vec![27; fast];
            v.extend(vec![50; 1000 - fast]);
            v
        };
        let (a, b) = (modes(490), modes(510));
        assert_eq!(quantile_sorted(&a, 0.5), Some(50));
        assert_eq!(quantile_sorted(&b, 0.5), Some(27));
        let (ma, mb) = (mid_band_mean(&a).unwrap(), mid_band_mean(&b).unwrap());
        assert!((ma - mb).abs() / mb < 0.03, "{ma} vs {mb}");
    }

    #[test]
    fn warmup_is_discarded_and_slices_have_equal_counts() {
        let plan = SlicePlan::new(1000);
        assert_eq!((plan.warmup, plan.timed), (100, 900));
        assert_eq!(plan.slice_of(0), None);
        assert_eq!(plan.slice_of(99), None);
        assert_eq!(plan.slice_of(100), Some(0));
        assert_eq!(plan.slice_of(999), Some(SLICES - 1));
        let mut counts = [0usize; SLICES];
        for done in 0..1000 {
            if let Some(s) = plan.slice_of(done) {
                counts[s] += 1;
            }
        }
        assert_eq!(counts, [45; SLICES]);
    }

    #[test]
    fn uneven_totals_put_every_timed_completion_in_a_slice() {
        let plan = SlicePlan::new(1234);
        let mut counts = [0usize; SLICES];
        for done in plan.warmup..1234 {
            counts[plan.slice_of(done).unwrap()] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), plan.timed);
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(hi - lo <= 1, "slices differ by at most one: {counts:?}");
    }
}
