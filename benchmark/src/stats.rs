//! Percentile and spread rules, as tested code.

/// The `p`-th percentile (`0 < p < 100`) of an ascending-sorted sample, by
/// nearest rank: the smallest value with at least `p` % of the sample at or
/// below it.  Zero for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample ascending (NaN-free by construction: values are durations).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The midmean (interquartile mean): the mean of the middle half of an
/// ascending-sorted sample.  A workload's latencies come in several modes
/// (cheap and dear questions, cache hits and misses), and a median that
/// falls between two modes jumps from one to the other when their shares
/// move by a percent; the midmean moves by that percent.  Zero for an empty
/// sample.
pub fn midmean(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    mean(&sorted[n / 4..n - n / 4])
}

/// Length of one slice of the measured window, in seconds.
pub const SLICE_S: f64 = 2.5;

/// What one slice of the measured window saw.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    /// Responses that arrived in the slice, per second.
    pub rps: f64,
    pub midmean_ms: f64,
    pub p95_ms: f64,
}

/// Cut the window into whole slices of [`SLICE_S`] by arrival time.
/// `samples` are (arrival in seconds from the start of the window, latency
/// in ms); what arrives after the last whole slice belongs to none.
pub fn slices(samples: &[(f64, f64)], window_s: f64) -> Vec<Slice> {
    let count = (window_s / SLICE_S) as usize;
    let mut latencies = vec![Vec::new(); count];
    for (at_s, ms) in samples {
        if let Some(slice) = latencies.get_mut((at_s / SLICE_S) as usize) {
            slice.push(*ms);
        }
    }
    latencies
        .into_iter()
        .map(|slice| {
            let slice = sorted(slice);
            Slice {
                rps: slice.len() as f64 / SLICE_S,
                midmean_ms: midmean(&slice),
                p95_ms: percentile(&slice, 95.0),
            }
        })
        .collect()
}

/// The end-to-end timings of a run: each is that of the slice where it was
/// best.  On a shared machine whatever else runs takes time away and never
/// gives any, in bursts of seconds; the best slice is the one the bursts
/// missed, and repeats from run to run where the whole window does not.
/// `None` when no slice saw a response.
pub fn best(slices: &[Slice]) -> Option<Slice> {
    let busy = || slices.iter().filter(|slice| slice.rps > 0.0);
    busy().next()?;
    Some(Slice {
        rps: busy().map(|s| s.rps).fold(0.0, f64::max),
        midmean_ms: busy().map(|s| s.midmean_ms).fold(f64::INFINITY, f64::min),
        p95_ms: busy().map(|s| s.p95_ms).fold(f64::INFINITY, f64::min),
    })
}

/// The percentiles a report may quote, ascending.
pub const LADDER: [f64; 8] = [50.0, 75.0, 90.0, 95.0, 97.5, 99.0, 99.9, 99.99];

/// The highest percentile of [`LADDER`] that a sample of `n` values
/// supports: at least ten samples must lie beyond it.  `None` below 20
/// samples, where not even the median qualifies.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| (n as f64) * (100.0 - p) / 100.0 + 1e-9 >= 10.0)
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)` gives
/// them (the default "exclusive" method), which is what the driver uses.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values.to_vec());
    let n = data.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Run-to-run spread the way the driver takes it: the distance between the
/// first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 99.99), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn midmean_is_the_mean_of_the_middle_half() {
        let s: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(midmean(&s), 4.5); // 3, 4, 5, 6
        assert_eq!(midmean(&[1.0, 2.0, 3.0, 100.0]), 2.5); // the stall is left out
        assert_eq!(midmean(&[7.0]), 7.0);
        assert_eq!(midmean(&[]), 0.0);
        // Two modes, 49 % and 51 %, then 51 % and 49 %: the median jumps
        // from one mode to the other, the midmean moves by a fiftieth.
        let mix = |cheap: usize| {
            let mut v = vec![1.0; cheap];
            v.resize(100, 10.0);
            v
        };
        assert_eq!(percentile(&mix(49), 50.0), 10.0);
        assert_eq!(percentile(&mix(51), 50.0), 1.0);
        let (a, b) = (midmean(&mix(49)), midmean(&mix(51)));
        assert!((a - b) / a < 0.07, "{a} {b}");
    }

    #[test]
    fn the_window_is_cut_into_whole_slices_and_the_best_of_each_timing_is_kept() {
        // 100 req/s at 2 ms for 2.5 s, 40 req/s at 5 ms for 2.5 s, then a
        // sample past the last whole slice of a 6 s window.
        let mut samples: Vec<(f64, f64)> = (0..250).map(|i| (i as f64 * 0.01, 2.0)).collect();
        samples.extend((0..100).map(|i| (2.5 + i as f64 * 0.025, 5.0)));
        samples.push((5.5, 50.0));
        let cut = slices(&samples, 6.0);
        assert_eq!(
            cut,
            [
                Slice {
                    rps: 100.0,
                    midmean_ms: 2.0,
                    p95_ms: 2.0
                },
                Slice {
                    rps: 40.0,
                    midmean_ms: 5.0,
                    p95_ms: 5.0
                },
            ]
        );
        assert_eq!(best(&cut).as_ref(), Some(&cut[0]));
        // Each timing from the slice where it was best.
        let mixed = [
            Slice {
                rps: 100.0,
                midmean_ms: 3.0,
                p95_ms: 9.0,
            },
            Slice {
                rps: 90.0,
                midmean_ms: 2.0,
                p95_ms: 4.0,
            },
        ];
        assert_eq!(
            best(&mixed),
            Some(Slice {
                rps: 100.0,
                midmean_ms: 2.0,
                p95_ms: 4.0
            })
        );
        // A slice in which nothing arrived is not the best one; a window
        // shorter than a slice has none.
        let stalled = slices(&[(3.0, 4.0)], 5.0);
        assert_eq!(stalled[0].rps, 0.0);
        assert_eq!(best(&stalled).map(|s| s.midmean_ms), Some(4.0));
        assert_eq!(best(&slices(&samples, 2.0)), None);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(399), Some(95.0));
        assert_eq!(highest_supported_percentile(400), Some(97.5));
        assert_eq!(highest_supported_percentile(999), Some(97.5));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(2_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 2, 38, 23, 38, 23, 21], n=4) == [10.0, 23.0, 38.0]
        assert_eq!(
            quartiles(&[10.0, 2.0, 38.0, 23.0, 38.0, 23.0, 21.0]),
            [10.0, 23.0, 38.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }
}
