//! KD-tree kernel benchmarks on the real host CPU: build, NN and radius
//! search for the canonical tree, the two-stage tree at several heights,
//! and the approximate leader/follower search. These are the measured
//! software numbers behind the Fig. 6 / Fig. 11 workload characterization.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tigris_bench::workload::{dense_frame_pair, height_for_leaf_size};
use tigris_core::{ApproxConfig, ApproxIndex, KdTree, SearchStats, TwoStageKdTree};
use tigris_geom::Vec3;

fn setup() -> (Vec<Vec3>, Vec<Vec3>) {
    let (points, queries) = dense_frame_pair(42);
    let queries: Vec<Vec3> = queries.into_iter().step_by(64).collect();
    (points, queries)
}

fn bench_build(c: &mut Criterion) {
    let (points, _) = setup();
    let mut group = c.benchmark_group("build");
    group.sample_size(10);
    group.bench_function("classic", |b| {
        b.iter(|| KdTree::build(black_box(&points)));
    });
    for leaf in [32usize, 128] {
        let h = height_for_leaf_size(points.len(), leaf);
        group.bench_with_input(BenchmarkId::new("two_stage_leaf", leaf), &h, |b, &h| {
            b.iter(|| TwoStageKdTree::build(black_box(&points), h));
        });
    }
    group.finish();
}

fn bench_nn(c: &mut Criterion) {
    let (points, queries) = setup();
    let classic = KdTree::build(&points);
    let h = height_for_leaf_size(points.len(), 128);
    let two_stage = TwoStageKdTree::build(&points, h);

    let mut group = c.benchmark_group("nn_search");
    group.sample_size(20);
    group.bench_function("classic", |b| {
        b.iter(|| {
            for &q in &queries {
                black_box(classic.nn(q));
            }
        });
    });
    group.bench_function("two_stage_leaf128", |b| {
        b.iter(|| {
            for &q in &queries {
                black_box(two_stage.nn(q));
            }
        });
    });
    let mut searcher = ApproxIndex::from_tree(two_stage.clone(), ApproxConfig::default());
    group.bench_function("two_stage_approx", |b| {
        b.iter(|| {
            searcher.reset();
            let mut stats = SearchStats::new();
            for &q in &queries {
                black_box(searcher.nn_with_stats(q, &mut stats));
            }
        });
    });
    group.finish();
}

fn bench_radius(c: &mut Criterion) {
    let (points, queries) = setup();
    let classic = KdTree::build(&points);
    let h = height_for_leaf_size(points.len(), 128);
    let two_stage = TwoStageKdTree::build(&points, h);
    let radius = 0.6;

    let mut group = c.benchmark_group("radius_search");
    group.sample_size(20);
    group.bench_function("classic", |b| {
        b.iter(|| {
            for &q in &queries {
                black_box(classic.radius(q, radius));
            }
        });
    });
    group.bench_function("two_stage_leaf128", |b| {
        b.iter(|| {
            for &q in &queries {
                black_box(two_stage.radius(q, radius));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_build, bench_nn, bench_radius);
criterion_main!(benches);
