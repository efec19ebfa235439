//! A self-contained, offline subset of the `criterion` benchmarking
//! API. The build environment has no access to crates.io, so this
//! crate provides the slice the workspace's benches use: `Criterion`
//! with `sample_size`/`measurement_time`, benchmark groups,
//! `bench_function`, `Bencher::iter`, and the `criterion_group!` /
//! `criterion_main!` macros. It measures wall-clock means only — no
//! statistical analysis, outlier detection, or HTML reports.

use std::time::{Duration, Instant};

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_secs(2),
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(1);
        self
    }

    /// Bounds the total time spent measuring one benchmark.
    pub fn measurement_time(mut self, t: Duration) -> Criterion {
        self.measurement_time = t;
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\n{name}");
        BenchmarkGroup {
            criterion: self,
            _name: name.to_string(),
        }
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    _name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark and prints its mean time per iteration.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.bench_measured(id, f);
        self
    }

    /// [`Self::bench_function`] that also returns the mean time per
    /// iteration in nanoseconds, for benches that post-process their
    /// measurements (throughput reports, regression gates).
    pub fn bench_measured<F>(&mut self, id: &str, f: F) -> f64
    where
        F: FnMut(&mut Bencher),
    {
        self.run_samples(id, f).0
    }

    /// [`Self::bench_measured`] returning the *best* (minimum) sample's
    /// time per iteration instead of the mean. Interference on a busy
    /// host only ever adds time, so the minimum is the noise-robust
    /// estimator of the routine's own cost — what regression floors
    /// should compare.
    pub fn bench_best<F>(&mut self, id: &str, f: F) -> f64
    where
        F: FnMut(&mut Bencher),
    {
        self.run_samples(id, f).1
    }

    /// [`Self::bench_best`] for two routines whose *ratio* matters:
    /// their samples alternate (a, b, a, b, ...) under a shared budget
    /// twice one benchmark's, so both minimums come from the same host
    /// phases rather than from whatever phase each ran in alone.
    pub fn bench_best_pair<FA, FB>(&mut self, ids: [&str; 2], mut fa: FA, mut fb: FB) -> (f64, f64)
    where
        FA: FnMut(&mut Bencher),
        FB: FnMut(&mut Bencher),
    {
        let mut a = Samples::new(self.calibrate(&mut fa));
        let mut b = Samples::new(self.calibrate(&mut fb));
        let started = Instant::now();
        for _ in 0..self.criterion.sample_size {
            a.take(&mut fa);
            b.take(&mut fb);
            if started.elapsed() > 2 * self.criterion.measurement_time {
                break;
            }
        }
        (a.report(ids[0]).1, b.report(ids[1]).1)
    }

    fn run_samples<F>(&mut self, id: &str, mut f: F) -> (f64, f64)
    where
        F: FnMut(&mut Bencher),
    {
        let mut s = Samples::new(self.calibrate(&mut f));
        let started = Instant::now();
        for _ in 0..self.criterion.sample_size {
            s.take(&mut f);
            if started.elapsed() > self.criterion.measurement_time {
                break;
            }
        }
        s.report(id)
    }

    /// Warm-up / calibration: an iteration count whose batch takes one
    /// sample's share of the budget.
    fn calibrate<F: FnMut(&mut Bencher)>(&self, f: &mut F) -> u64 {
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        let per_iter = b.elapsed.max(Duration::from_nanos(1));
        let per_sample =
            self.criterion.measurement_time / (self.criterion.sample_size as u32).max(1);
        (per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64
    }

    /// Ends the group (no-op; kept for API compatibility).
    pub fn finish(self) {}
}

/// The samples of one benchmark: mean and best time per iteration.
struct Samples {
    iters: u64,
    total: Duration,
    total_iters: u64,
    best_ns: f64,
}

impl Samples {
    fn new(iters: u64) -> Samples {
        Samples {
            iters,
            total: Duration::ZERO,
            total_iters: 0,
            best_ns: f64::INFINITY,
        }
    }

    /// Times one sample of `f`.
    fn take<F: FnMut(&mut Bencher)>(&mut self, f: &mut F) {
        let mut b = Bencher {
            iters: self.iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        self.total += b.elapsed;
        self.total_iters += self.iters;
        self.best_ns = self
            .best_ns
            .min(b.elapsed.as_nanos() as f64 / self.iters.max(1) as f64);
    }

    /// Prints the mean and returns `(mean_ns, best_ns)`.
    fn report(&self, id: &str) -> (f64, f64) {
        let mean_ns = self.total.as_nanos() as f64 / self.total_iters.max(1) as f64;
        println!("  {id:<28} {}", format_ns(mean_ns));
        (mean_ns, self.best_ns)
    }
}

/// Passed to the benchmark closure; times the routine under test.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine`, running it the calibrated number of iterations.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:8.1} ns/iter")
    } else if ns < 1_000_000.0 {
        format!("{:8.2} µs/iter", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:8.2} ms/iter", ns / 1_000_000.0)
    } else {
        format!("{:8.3} s/iter", ns / 1_000_000_000.0)
    }
}

/// Declares a group of benchmark functions with a shared config.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Emits `main` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial(c: &mut Criterion) {
        let mut g = c.benchmark_group("test");
        g.bench_function("add", |b| b.iter(|| 1u64 + 1));
        g.finish();
    }

    #[test]
    fn runs_a_group() {
        let mut c = Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(10));
        trivial(&mut c);
    }

    criterion_group! {
        name = benches;
        config = Criterion::default().sample_size(2).measurement_time(Duration::from_millis(5));
        targets = trivial
    }

    #[test]
    fn group_macro_compiles_and_runs() {
        benches();
    }

    #[test]
    fn pair_returns_both_best_times() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(10));
        let mut g = c.benchmark_group("pair");
        let (a, b) = g.bench_best_pair(
            ["add", "mul"],
            |b| b.iter(|| std::hint::black_box(17u64) + 3),
            |b| b.iter(|| std::hint::black_box(17u64).wrapping_mul(3)),
        );
        assert!(a > 0.0 && b > 0.0);
    }

    #[test]
    fn measured_returns_positive_mean() {
        let mut c = Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(10));
        let mut g = c.benchmark_group("measured");
        let ns = g.bench_measured("mul", |b| {
            b.iter(|| std::hint::black_box(17u64).wrapping_mul(3))
        });
        assert!(ns > 0.0);
    }
}
