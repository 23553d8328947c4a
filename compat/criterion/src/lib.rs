//! Offline drop-in subset of the `criterion` crate.
//!
//! The build environment has no registry access, so this workspace
//! vendors the slice of the criterion 0.5 API its benches use:
//! [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`],
//! [`Bencher::iter_batched`], [`BenchmarkId`], [`Throughput`], and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! Instead of criterion's statistical machinery this harness runs a short
//! warm-up, then a fixed measurement batch, and prints the mean wall-clock
//! time per iteration (plus throughput when configured). Good enough to
//! spot order-of-magnitude regressions; not a statistics suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benched work.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Throughput annotation for a benchmark (printed alongside timings).
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier: a function name plus an optional parameter.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Identifier `"<name>/<parameter>"`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Identifier from the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] times the routine.
pub struct Bencher {
    /// Iterations to run in the measurement batch.
    iters: u64,
    /// Mean time per iteration, filled in by [`Bencher::iter`].
    elapsed_per_iter: Duration,
}

impl Bencher {
    /// Times `routine`, running a warm-up batch then the measured batch.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: a few unmeasured runs so lazy init and caches settle.
        for _ in 0..self.iters.min(3) {
            black_box(routine());
        }
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed_per_iter = start.elapsed() / self.iters.max(1) as u32;
    }

    /// Times `routine` on a fresh input from `setup` per iteration;
    /// neither `setup` nor dropping the routine's output is timed.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        for _ in 0..self.iters.min(3) {
            black_box(routine(setup()));
        }
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            total += start.elapsed();
            drop(output);
        }
        self.elapsed_per_iter = total / self.iters.max(1) as u32;
    }
}

/// How many inputs criterion prepares ahead of a batch; accepted for API
/// compatibility, this harness always prepares one per iteration.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Inputs are cheap to hold.
    SmallInput,
    /// Inputs are large.
    LargeInput,
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

fn run_one(
    full_id: &str,
    iters: u64,
    throughput: Option<Throughput>,
    f: &mut dyn FnMut(&mut Bencher),
) {
    let mut b = Bencher {
        iters,
        elapsed_per_iter: Duration::ZERO,
    };
    f(&mut b);
    let mut line = format!(
        "{:<48} {:>12}/iter",
        full_id,
        fmt_duration(b.elapsed_per_iter)
    );
    let per_iter = b.elapsed_per_iter.as_secs_f64();
    if per_iter > 0.0 {
        match throughput {
            Some(Throughput::Elements(n)) => {
                line.push_str(&format!("  {:>12.0} elem/s", n as f64 / per_iter));
            }
            Some(Throughput::Bytes(n)) => {
                line.push_str(&format!("  {:>12.0} B/s", n as f64 / per_iter));
            }
            None => {}
        }
    }
    println!("{line}");
}

/// The benchmark harness entry point.
pub struct Criterion {
    iters: u64,
}

impl Default for Criterion {
    fn default() -> Self {
        // Small fixed batch: this shim aims for smoke-level timing, and
        // `--test` mode (cargo test --benches) shrinks it to one pass.
        let test_mode = std::env::args().any(|a| a == "--test");
        Criterion {
            iters: if test_mode { 1 } else { 10 },
        }
    }
}

impl Criterion {
    /// Runs a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_one(id, self.iters, None, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }
}

/// A named set of benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput annotation for subsequent benches.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Accepted for API compatibility; this harness uses a fixed batch.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs a benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Display,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        run_one(&full, self.criterion.iters, self.throughput, &mut f);
        self
    }

    /// Runs a parameterized benchmark inside the group.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        run_one(&full, self.criterion.iters, self.throughput, &mut |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Declares a benchmark group function invoking each target.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the listed groups.
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

    #[test]
    fn harness_runs_and_times() {
        let mut c = Criterion { iters: 4 };
        let mut ran = 0u64;
        {
            let mut g = c.benchmark_group("shim");
            g.throughput(Throughput::Elements(100)).sample_size(10);
            g.bench_with_input(BenchmarkId::from_parameter(7), &7u64, |b, &x| {
                b.iter(|| {
                    ran += 1;
                    black_box(x * 2)
                })
            });
            g.finish();
        }
        // 4 measured + up to 3 warm-up iterations.
        assert!(ran >= 4);
        c.bench_function("shim/standalone", |b| b.iter(|| black_box(1 + 1)));
        assert_eq!(format!("{}", BenchmarkId::new("a", 5)), "a/5");
    }
}
