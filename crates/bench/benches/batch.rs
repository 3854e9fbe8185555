//! Batched-parallel vs. serial neighbor search on a ≥100k-point scene —
//! the software demonstration of the query-level parallelism the paper's
//! two-stage KD-tree exposes (Sec. 4.1) and the acceptance benchmark for
//! the batch engine: batched parallel two-stage search at ≥4 threads must
//! beat the serial canonical KD-tree.
//!
//! ```text
//! cargo bench -p tigris-bench --bench batch
//! ```

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tigris_bench::workload::{height_for_leaf_size, huge_frame_pair};
use tigris_core::index::SearchIndex;
use tigris_core::{ApproxConfig, ApproxIndex, BatchConfig, KdTree, SearchStats, TwoStageKdTree};

const SCENE_POINTS: usize = 120_000;
const NN_QUERIES: usize = 30_000;
const RADIUS_QUERIES: usize = 6_000;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn bench_nn(c: &mut Criterion) {
    let (points, queries) = huge_frame_pair(SCENE_POINTS, 42);
    let queries: Vec<_> = queries.into_iter().take(NN_QUERIES).collect();
    let classic = KdTree::build(&points);
    let h = height_for_leaf_size(points.len(), 128);
    let mut two_stage = TwoStageKdTree::build(&points, h);

    let mut group = c.benchmark_group("nn_120k");
    group.sample_size(10);

    group.bench_function("classic_serial", |b| {
        b.iter(|| {
            let mut stats = SearchStats::new();
            let mut acc = 0usize;
            for &q in &queries {
                if let Some(n) = classic.nn_with_stats(q, &mut stats) {
                    acc ^= n.index;
                }
            }
            black_box(acc)
        });
    });

    let mut classic_batched = KdTree::build(&points);
    for t in THREADS {
        group.bench_with_input(BenchmarkId::new("classic_batched", t), &t, |b, &t| {
            let cfg = BatchConfig { threads: t, min_chunk: 64 };
            b.iter(|| {
                let mut stats = SearchStats::new();
                black_box(classic_batched.nn_batch(&queries, &cfg, &mut stats).len())
            });
        });
    }

    for t in THREADS {
        group.bench_with_input(BenchmarkId::new("two_stage_batched", t), &t, |b, &t| {
            let cfg = BatchConfig { threads: t, min_chunk: 64 };
            b.iter(|| {
                let mut stats = SearchStats::new();
                black_box(two_stage.nn_batch(&queries, &cfg, &mut stats).len())
            });
        });
    }

    let mut approx = ApproxIndex::from_tree(two_stage.clone(), ApproxConfig::default());
    for t in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("approx_batched", t), &t, |b, &t| {
            let cfg = BatchConfig { threads: t, min_chunk: 64 };
            b.iter(|| {
                // Fresh leader books per sample: the cold RPCE iteration.
                approx.reset();
                let mut stats = SearchStats::new();
                black_box(approx.nn_batch(&queries, &cfg, &mut stats).len())
            });
        });
    }
    group.finish();
}

fn bench_radius(c: &mut Criterion) {
    let (points, queries) = huge_frame_pair(SCENE_POINTS, 7);
    let queries: Vec<_> = queries.into_iter().take(RADIUS_QUERIES).collect();
    let radius = 0.8;
    let classic = KdTree::build(&points);
    let h = height_for_leaf_size(points.len(), 128);
    let mut two_stage = TwoStageKdTree::build(&points, h);

    let mut group = c.benchmark_group("radius_120k");
    group.sample_size(10);

    group.bench_function("classic_serial", |b| {
        b.iter(|| {
            let mut stats = SearchStats::new();
            let mut total = 0usize;
            for &q in &queries {
                total += classic.radius_with_stats(q, radius, &mut stats).len();
            }
            black_box(total)
        });
    });

    for t in THREADS {
        group.bench_with_input(BenchmarkId::new("two_stage_batched", t), &t, |b, &t| {
            let cfg = BatchConfig { threads: t, min_chunk: 16 };
            b.iter(|| {
                let mut stats = SearchStats::new();
                black_box(two_stage.radius_batch(&queries, radius, &cfg, &mut stats).len())
            });
        });
    }
    group.finish();
}

criterion_group!(batch, bench_nn, bench_radius);
criterion_main!(batch);
