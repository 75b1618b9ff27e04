//! Offline shim for the `criterion` crate.
//!
//! Provides the API subset the workspace benches use — [`Criterion`],
//! [`BenchmarkGroup`], [`BenchmarkId`], [`Bencher::iter`], [`black_box`] and
//! the [`criterion_group!`]/[`criterion_main!`] macros — backed by a simple
//! wall-clock runner. Each benchmark is warmed up, a per-sample batch size
//! is calibrated, and the routine is then timed over a bounded number of
//! batched samples; the mean, median and tail of the per-iteration time are
//! printed. Statistical outlier analysis, plots and criterion's own
//! baselines are out of scope; `cargo bench` output is indicative only.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Prevents the compiler from optimising away a benchmarked value.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Identifies a benchmark within a group: a function name plus a parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Creates an id from a function name and a displayed parameter.
    pub fn new<S: Into<String>, P: Display>(function_name: S, parameter: P) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Creates an id from a parameter alone.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Things accepted as a benchmark id by `bench_function`: plain strings or
/// [`BenchmarkId`]s.
pub trait IntoBenchmarkId {
    /// Converts into the display id.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// Hard cap on recorded samples per benchmark, bounding memory and the time
/// spent when batch calibration undershoots (e.g. a cold first iteration).
const MAX_SAMPLES: usize = 2_000;

/// Per-iteration timing statistics over the recorded sample batches, in
/// nanoseconds. Each sample is the mean iteration time of one timed batch.
struct Stats {
    /// Number of timed sample batches.
    samples: u64,
    /// Total routine iterations across all timed batches.
    iters: u64,
    /// Mean per-iteration time over all samples.
    mean_ns: f64,
    /// Median (p50) per-iteration time over the samples.
    p50_ns: f64,
    /// 95th-percentile per-iteration time over the samples.
    p95_ns: f64,
}

impl Stats {
    /// Derives the summary statistics from raw per-sample iteration times
    /// (nanoseconds per iteration, one entry per timed batch).
    fn from_sample_ns(mut sample_ns: Vec<f64>, iters: u64) -> Stats {
        assert!(!sample_ns.is_empty(), "at least one sample required");
        sample_ns.sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));
        let n = sample_ns.len();
        let mean_ns = sample_ns.iter().sum::<f64>() / n as f64;
        let percentile = |q: f64| -> f64 {
            let rank = ((n - 1) as f64 * q).round() as usize;
            sample_ns[rank.min(n - 1)]
        };
        Stats {
            samples: n as u64,
            iters,
            mean_ns,
            p50_ns: percentile(0.50),
            p95_ns: percentile(0.95),
        }
    }
}

/// Passed to the benchmark closure; drives the timed iterations.
pub struct Bencher<'a> {
    config: &'a RunConfig,
    /// Statistics recorded by [`Bencher::iter`].
    stats: Option<Stats>,
}

impl Bencher<'_> {
    /// Times `routine`: first warms up, then calibrates a per-sample batch
    /// size from a single timed iteration, then records batched samples
    /// until both the configured sample count and the measurement-time
    /// budget are spent.
    ///
    /// The deadline is consulted once per sample batch — never inside the
    /// batch — so nanosecond-scale routines are not contaminated by an
    /// `Instant::now()` call per iteration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        for _ in 0..self.config.warmup_iters {
            black_box(routine());
        }
        // Calibrate: one timed iteration sizes the batch so that roughly
        // `sample_size` batches fill the measurement budget. Slow routines
        // get batch = 1; fast ones amortise the two timer reads per batch
        // over many iterations.
        let calibrate = Instant::now();
        black_box(routine());
        let once_ns = (calibrate.elapsed().as_nanos() as u64).max(1);
        let budget_ns = (self.config.measurement_time.as_nanos() as u64).max(1);
        let per_sample_ns = (budget_ns / self.config.sample_size.max(1) as u64).max(1);
        let batch = (per_sample_ns / once_ns).clamp(1, self.config.max_iters.max(1));

        let deadline = Instant::now() + self.config.measurement_time;
        let mut sample_ns: Vec<f64> = Vec::new();
        let mut iters: u64 = 0;
        loop {
            let started = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let elapsed = started.elapsed();
            iters += batch;
            sample_ns.push(elapsed.as_secs_f64() * 1e9 / batch as f64);
            let enough = sample_ns.len() >= self.config.sample_size;
            if (enough && Instant::now() >= deadline)
                || iters >= self.config.max_iters
                || sample_ns.len() >= MAX_SAMPLES
            {
                break;
            }
        }
        self.stats = Some(Stats::from_sample_ns(sample_ns, iters));
    }
}

#[derive(Debug, Clone)]
struct RunConfig {
    sample_size: usize,
    measurement_time: Duration,
    warmup_iters: u64,
    max_iters: u64,
}

/// True when the `KGQAN_BENCH_SMOKE` environment variable is set: CI runs
/// every bench as a fast regression smoke test with a minimal iteration
/// budget, and per-group `sample_size`/`measurement_time` requests are
/// ignored so no single bench can blow the time box.
fn smoke_mode() -> bool {
    std::env::var_os("KGQAN_BENCH_SMOKE").is_some()
}

impl Default for RunConfig {
    fn default() -> Self {
        if smoke_mode() {
            return RunConfig {
                sample_size: 3,
                measurement_time: Duration::from_millis(25),
                warmup_iters: 1,
                max_iters: 100_000,
            };
        }
        RunConfig {
            sample_size: 10,
            measurement_time: Duration::from_millis(200),
            warmup_iters: 2,
            max_iters: 1_000_000,
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    config: RunConfig,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the target number of samples per benchmark.  Ignored in smoke
    /// mode (`KGQAN_BENCH_SMOKE`), which pins a minimal budget.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        if !smoke_mode() {
            self.config.sample_size = n;
        }
        self
    }

    /// Sets the wall-clock measurement budget per benchmark. The shim caps
    /// this at one second so `cargo bench` stays fast; in smoke mode
    /// (`KGQAN_BENCH_SMOKE`) the request is ignored entirely.
    pub fn measurement_time(&mut self, time: Duration) -> &mut Self {
        if !smoke_mode() {
            self.config.measurement_time = time.min(Duration::from_secs(1));
        }
        self
    }

    /// Runs a single benchmark in this group.
    pub fn bench_function<I, F>(&mut self, id: I, mut f: F) -> &mut Self
    where
        I: IntoBenchmarkId,
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            config: &self.config,
            stats: None,
        };
        f(&mut bencher);
        report(&self.name, &id.into_id(), bencher.stats.as_ref());
        self
    }

    /// Finishes the group (no-op in the shim; kept for API parity).
    pub fn finish(self) {}
}

fn report(group: &str, id: &str, stats: Option<&Stats>) {
    match stats {
        Some(stats) => {
            let human = |ns: f64| Duration::from_secs_f64(ns.max(0.0) / 1e9);
            println!(
                "bench: {group}/{id:<40} mean {:>12.3?}/iter  p50 {:>12.3?}  p95 {:>12.3?}  ({} samples, {} iters)",
                human(stats.mean_ns),
                human(stats.p50_ns),
                human(stats.p95_ns),
                stats.samples,
                stats.iters,
            );
        }
        None => println!("bench: {group}/{id:<40} (no measurement recorded)"),
    }
}

/// The benchmark manager handed to every `criterion_group!` target.
#[derive(Default)]
pub struct Criterion {
    config: RunConfig,
}

impl Criterion {
    /// Applies command-line configuration. The shim recognises (and ignores)
    /// the argument forms cargo passes through, notably `--bench`.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            config: self.config.clone(),
            _criterion: self,
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut bencher = Bencher {
            config: &self.config,
            stats: None,
        };
        f(&mut bencher);
        report("criterion", id, bencher.stats.as_ref());
        self
    }

    /// Prints the final summary (no-op in the shim; kept for API parity).
    pub fn final_summary(&self) {}
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark `main` function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::Criterion::default().final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_stats() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group
            .sample_size(5)
            .measurement_time(Duration::from_millis(5));
        group.bench_function("noop", |b| b.iter(|| 1 + 1));
        group.bench_function(BenchmarkId::new("id", 42), |b| b.iter(|| black_box(2) * 2));
        group.finish();
    }

    #[test]
    fn iter_collects_at_least_the_requested_samples() {
        let config = RunConfig {
            sample_size: 7,
            measurement_time: Duration::from_millis(2),
            warmup_iters: 1,
            max_iters: 1_000_000,
        };
        let mut bencher = Bencher {
            config: &config,
            stats: None,
        };
        bencher.iter(|| black_box(3) * 3);
        let stats = bencher.stats.expect("stats recorded");
        assert!(stats.samples >= 7, "got {} samples", stats.samples);
        assert!(stats.iters >= stats.samples);
        assert!(stats.p50_ns <= stats.p95_ns);
        assert!(stats.mean_ns > 0.0);
    }

    #[test]
    fn stats_percentiles_from_known_samples() {
        let stats = Stats::from_sample_ns(vec![5.0, 1.0, 3.0, 2.0, 4.0], 50);
        assert_eq!(stats.samples, 5);
        assert_eq!(stats.iters, 50);
        assert_eq!(stats.p50_ns, 3.0);
        assert_eq!(stats.p95_ns, 5.0);
        assert!((stats.mean_ns - 3.0).abs() < 1e-9);
    }
}
