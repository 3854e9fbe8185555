//! One workload, every selectable backend — the benchmark the
//! `SearchIndex` registry makes possible without per-backend copy-paste.
//!
//! The same NN and radius query streams run against every backend the
//! registry knows: the five built-ins (`classic`, `two-stage`,
//! `two-stage-approx`, `brute-force`, `dynamic`) plus the accelerator
//! registered by `tigris-accel`. Adding a backend to the registry adds it
//! to this matrix automatically.
//!
//! ```text
//! cargo bench -p tigris-bench --bench backend_matrix
//! ```
//!
//! The workload is deliberately small: the brute-force oracle is
//! quadratic and the accelerator traces every query at cycle granularity.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tigris_bench::workload::huge_frame_pair;
use tigris_core::{backend_names, build_backend, SearchStats};

const SCENE_POINTS: usize = 20_000;
const NN_QUERIES: usize = 2_000;
const RADIUS_QUERIES: usize = 500;

fn bench_backend_matrix(c: &mut Criterion) {
    // Make the accelerator selectable alongside the built-ins.
    tigris_accel::register_accelerator_backend();

    let (points, queries) = huge_frame_pair(SCENE_POINTS, 42);
    let nn_queries: Vec<_> = queries.iter().copied().take(NN_QUERIES).collect();
    let radius_queries: Vec<_> = queries.into_iter().take(RADIUS_QUERIES).collect();

    let mut group = c.benchmark_group("backend_matrix");
    group.sample_size(10);

    for name in backend_names() {
        // Index build outside the timing loop — the matrix compares query
        // cost, not construction; reset() per sample so stateful backends
        // (leader books / leader buffers) measure the cold pass each time.
        let mut index = build_backend(&name, &points).expect("registered backend");
        group.bench_function(BenchmarkId::new("nn", &name), |b| {
            b.iter(|| {
                index.reset();
                let mut stats = SearchStats::new();
                black_box(index.nn_batch(&nn_queries, &mut stats).len())
            });
        });

        group.bench_function(BenchmarkId::new("radius", &name), |b| {
            b.iter(|| {
                index.reset();
                let mut stats = SearchStats::new();
                black_box(index.radius_batch(&radius_queries, 0.8, &mut stats).len())
            });
        });
    }
    group.finish();
}

criterion_group!(backend_matrix, bench_backend_matrix);
criterion_main!(backend_matrix);
