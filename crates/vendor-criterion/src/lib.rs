//! Minimal offline stand-in for the crates.io `criterion` crate.
//!
//! The build environment has no network access, so the workspace vendors the
//! subset of the criterion 0.5 surface its microbenches use:
//! [`criterion_group!`]/[`criterion_main!`], [`Criterion::benchmark_group`],
//! [`Criterion::bench_function`], [`BenchmarkGroup::bench_with_input`],
//! [`BenchmarkId`], and [`Bencher::iter`].
//!
//! Measurement is deliberately simple: each benchmark is warmed up briefly,
//! then timed over `sample_size` samples, and each row prints
//! `time: [min median max]` per iteration (the estimate between its bounds,
//! as upstream's `[low estimate high]`) followed by the mean. There are no
//! HTML reports, no statistical regression analysis, and no
//! `target/criterion` history — good enough to compare kernels within one
//! run, which is all the offline harness needs.
//!
//! As upstream, the first command-line argument that does not start with
//! `-` filters benchmarks by substring of their full `group/id` name
//! (`cargo bench --bench micro -- charge_pump`); cargo's own `--bench` flag
//! is skipped.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Benchmark identifier: `function_id/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Identifier with both a function name and a parameter value.
    pub fn new(function_id: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_id.into(), parameter),
        }
    }

    /// Identifier from a parameter value alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            label: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { label: s }
    }
}

/// Times closures handed to it by a benchmark body.
pub struct Bencher {
    sample_size: usize,
    /// Mean nanoseconds per iteration over the measured samples.
    mean_ns: f64,
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Bencher {
            sample_size,
            mean_ns: 0.0,
            median_ns: 0.0,
            min_ns: 0.0,
            max_ns: 0.0,
        }
    }

    /// Runs `routine` repeatedly and records per-iteration timing.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up: find an iteration count that takes a measurable slice of
        // time (~5 ms per sample, capped so slow benches still finish).
        let warm_start = Instant::now();
        std::hint::black_box(routine());
        let once = warm_start.elapsed().max(Duration::from_nanos(1));
        let per_sample = Duration::from_millis(5);
        let iters = (per_sample.as_nanos() / once.as_nanos()).clamp(1, 100_000) as usize;

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            samples_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        samples_ns.sort_by(|a, b| a.total_cmp(b));
        self.mean_ns = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
        self.median_ns = samples_ns[samples_ns.len() / 2];
        self.min_ns = samples_ns[0];
        self.max_ns = *samples_ns.last().expect("non-empty samples");
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

fn report_line(name: &str, b: &Bencher) -> String {
    format!(
        "{name:<40} time: [{} {} {}]  (mean {}, {} samples)",
        fmt_ns(b.min_ns),
        fmt_ns(b.median_ns),
        fmt_ns(b.max_ns),
        fmt_ns(b.mean_ns),
        b.sample_size,
    )
}

/// A named set of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a mut Criterion,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Benchmarks `routine`, passing it `input`.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut routine = routine;
        let full = format!("{}/{}", self.name, id.into().label);
        self.criterion
            .run(&full, self.sample_size, |b| routine(b, input));
        self
    }

    /// Benchmarks `routine` with no external input.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into().label);
        self.criterion.run(&full, self.sample_size, routine);
        self
    }

    /// Ends the group (printing already happened per-bench).
    pub fn finish(&mut self) {}
}

/// Top-level benchmark driver.
pub struct Criterion {
    default_sample_size: usize,
    /// Substring a benchmark's full name must contain for it to run.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 20,
            filter: None,
        }
    }
}

/// The first argument that is not a flag, as upstream's name filter.
fn filter_from_args(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|a| !a.starts_with('-'))
}

impl Criterion {
    /// Takes the benchmark-name filter from the process arguments.
    pub fn configure_from_args(mut self) -> Self {
        self.filter = filter_from_args(std::env::args().skip(1));
        self
    }

    /// Runs `routine` and prints its row, unless the filter excludes `name`.
    fn run<F: FnOnce(&mut Bencher)>(&self, name: &str, sample_size: usize, routine: F) {
        if self
            .filter
            .as_ref()
            .is_some_and(|f| !name.contains(f.as_str()))
        {
            return;
        }
        let mut bencher = Bencher::new(sample_size);
        routine(&mut bencher);
        println!("{}", report_line(name, &bencher));
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        if self.filter.is_none() {
            println!("-- group: {name}");
        }
        let sample_size = self.default_sample_size;
        BenchmarkGroup {
            name,
            criterion: self,
            sample_size,
        }
    }

    /// Benchmarks a standalone function.
    pub fn bench_function<F>(&mut self, name: &str, routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(name, self.default_sample_size, routine);
        self
    }
}

/// Bundles benchmark functions into a named group runner.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

/// Re-export matching upstream's `criterion::black_box`.
pub use std::hint::black_box;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher::new(3);
        b.iter(|| (0..100u64).sum::<u64>());
        assert!(b.mean_ns > 0.0);
        assert!(b.min_ns <= b.median_ns && b.median_ns <= b.max_ns);
    }

    #[test]
    fn group_and_ids_run() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("t");
        g.sample_size(2);
        g.bench_with_input(BenchmarkId::new("f", 3), &3u64, |b, &n| {
            b.iter(|| (0..n).product::<u64>())
        });
        g.bench_function("plain", |b| b.iter(|| black_box(1 + 1)));
        g.finish();
        c.bench_function("top", |b| b.iter(|| black_box(2 * 2)));
        assert_eq!(BenchmarkId::from_parameter(128).label, "128");
    }

    #[test]
    fn filter_skips_non_matching_benches() {
        assert_eq!(filter_from_args(["--bench".to_string()]), None);
        let args = ["--bench", "charge_pump"].map(String::from);
        assert_eq!(filter_from_args(args).as_deref(), Some("charge_pump"));

        let mut c = Criterion {
            filter: Some("g/keep".into()),
            ..Criterion::default()
        };
        let mut skipped = false;
        let mut kept = false;
        let mut g = c.benchmark_group("g");
        g.sample_size(2);
        g.bench_function("skip", |_| skipped = true);
        g.bench_with_input("skip_too", &(), |_, _| skipped = true);
        g.bench_function("keep_me", |b| {
            kept = true;
            b.iter(|| black_box(1));
        });
        g.finish();
        c.bench_function("top", |_| skipped = true);
        assert!(!skipped, "a filtered-out routine ran");
        assert!(kept);
    }

    #[test]
    fn report_prints_min_median_max_in_order() {
        let b = Bencher {
            sample_size: 3,
            mean_ns: 2.5,
            median_ns: 2.0,
            min_ns: 1.0,
            max_ns: 4.5,
        };
        let line = report_line("g/f", &b);
        assert!(
            line.ends_with("time: [1.0 ns 2.0 ns 4.5 ns]  (mean 2.5 ns, 3 samples)"),
            "{line}"
        );
    }
}
