//! Accelerator-simulator benchmarks: how fast the cycle model itself runs
//! (simulation throughput, not simulated time), across the Fig. 12
//! ablation variants and both back-end policies.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tigris_accel::{AccelBackend, AcceleratorConfig, BackendPolicy, SearchKind};
use tigris_bench::workload::{dense_frame_pair, height_for_leaf_size};
use tigris_core::{ApproxConfig, SearchIndex, TwoStageKdTree};
use tigris_geom::Vec3;

fn bench_sim(c: &mut Criterion) {
    let (points, queries) = dense_frame_pair(42);
    let queries: Vec<Vec3> = queries.into_iter().step_by(16).collect();
    let h = height_for_leaf_size(points.len(), 128);
    let tree = TwoStageKdTree::build(&points, h);

    let mut group = c.benchmark_group("accel_sim");
    group.sample_size(10);

    let approx =
        AcceleratorConfig { approx: Some(ApproxConfig::default()), ..AcceleratorConfig::paper() };
    let variants = [
        ("nn_exact_mqsn", AcceleratorConfig::paper(), SearchKind::Nn),
        ("nn_no_opt", AcceleratorConfig::no_opt(), SearchKind::Nn),
        (
            "nn_mqmn",
            AcceleratorConfig { backend: BackendPolicy::Mqmn, ..AcceleratorConfig::paper() },
            SearchKind::Nn,
        ),
        ("nn_approx", approx, SearchKind::Nn),
        ("radius_exact", AcceleratorConfig::paper(), SearchKind::Radius(0.6)),
    ];
    for (name, cfg, kind) in variants {
        // One machine per variant; every run starts from empty leader
        // buffers, so the tree clone stays out of the measured loop.
        let mut sim = AccelBackend::from_tree(tree.clone(), cfg);
        group.bench_function(name, |b| {
            b.iter(|| {
                sim.reset();
                black_box(sim.run(&queries, kind).cycles)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
