//! Offline stand-in for the `criterion` crate.
//!
//! Implements the subset the Tigris benches use: [`criterion_group!`] /
//! [`criterion_main!`], [`Criterion::benchmark_group`],
//! `sample_size` / `bench_function` / `bench_with_input` / `finish`,
//! [`BenchmarkId`] and [`black_box`].
//!
//! Measurement model (simpler than real criterion, deliberately): after
//! one warm-up call, each benchmark runs `sample_size` timed iterations
//! (capped at ~3 s wall clock) and prints mean / min / max per iteration.
//! There is no statistical analysis and no HTML report. A single
//! positional CLI argument acts as a substring filter on
//! `"group/benchmark"` ids, so `cargo bench --bench kdtree -- two_stage`
//! works the way criterion users expect.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Wall-clock budget per benchmark, so `sample_size(100)` on a slow
/// benchmark doesn't stall the suite.
const TIME_BUDGET: Duration = Duration::from_secs(3);

/// Top-level benchmark driver.
pub struct Criterion {
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // First non-flag CLI argument = substring filter (real criterion
        // behaves the same way for `cargo bench -- <filter>`).
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion { filter }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), sample_size: 100 }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let filter = self.filter.clone();
        run_one(&filter, id, 100, f);
        self
    }
}

/// A named set of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Runs `f` as the benchmark `group/id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().0);
        run_one(&self.criterion.filter, &full, self.sample_size, f);
        self
    }

    /// Runs `f` with `input` as the benchmark `group/id`.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().0);
        run_one(&self.criterion.filter, &full, self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (accepted for API compatibility; no-op).
    pub fn finish(self) {}
}

/// A benchmark identifier, optionally parameterized (`name/param`).
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `name/parameter`, e.g. `BenchmarkId::new("two_stage", 128)`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{}/{}", name.into(), parameter))
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] does the timing.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine` once per sample.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up (untimed): populate caches, fault pages, JIT-free but real.
        black_box(routine());
        let budget_start = Instant::now();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            black_box(routine());
            self.samples.push(t0.elapsed());
            if budget_start.elapsed() > TIME_BUDGET {
                break;
            }
        }
    }
}

fn run_one<F: FnMut(&mut Bencher)>(
    filter: &Option<String>,
    id: &str,
    sample_size: usize,
    mut f: F,
) {
    if let Some(needle) = filter {
        if !id.contains(needle.as_str()) {
            return;
        }
    }
    let mut bencher = Bencher { samples: Vec::new(), sample_size };
    f(&mut bencher);
    if bencher.samples.is_empty() {
        println!("{id:<50} (no samples recorded)");
        return;
    }
    let n = bencher.samples.len() as u32;
    let mean = bencher.samples.iter().sum::<Duration>() / n;
    let min = bencher.samples.iter().min().unwrap();
    let max = bencher.samples.iter().max().unwrap();
    println!(
        "{id:<50} mean {:>12} min {:>12} max {:>12} ({n} samples)",
        fmt_duration(mean),
        fmt_duration(*min),
        fmt_duration(*max),
    );
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3} s", nanos as f64 / 1e9)
    }
}

/// Collects benchmark functions (`fn(&mut Criterion)`) into a runnable
/// group function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emits `main()` running the listed groups (requires `harness = false`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_records() {
        let mut c = Criterion { filter: None };
        let mut ran = 0;
        {
            let mut g = c.benchmark_group("shim");
            g.sample_size(5);
            g.bench_function("trivial", |b| {
                b.iter(|| black_box(2 + 2));
                ran += 1;
            });
            g.finish();
        }
        assert_eq!(ran, 1);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut c = Criterion { filter: Some("nomatch".into()) };
        let mut ran = 0;
        c.benchmark_group("g").bench_function("skipped", |_b| {
            ran += 1;
        });
        assert_eq!(ran, 0);
    }

    #[test]
    fn benchmark_id_formats() {
        let id = BenchmarkId::new("two_stage", 128);
        assert_eq!(id.0, "two_stage/128");
    }
}
