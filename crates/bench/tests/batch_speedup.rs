//! Release-scale acceptance test for the batch engine: on a multi-core
//! host, batched parallel two-stage search at ≥4 threads must beat the
//! serial canonical KD-tree on a ≥100k-point scene.
//!
//! ```text
//! cargo test -p tigris-bench --release -- --ignored batch_speedup
//! ```

use std::time::Instant;

use tigris_bench::workload::{height_for_leaf_size, huge_frame_pair};
use tigris_core::index::SearchIndex;
use tigris_core::{BatchConfig, KdTree, SearchStats, TwoStageKdTree};

#[test]
#[ignore = "release-scale workload"]
fn batch_speedup_parallel_two_stage_beats_serial_classic() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores < 2 {
        // Query-level parallelism needs parallel hardware; on a single
        // core the equivalence tests still guarantee correctness, but a
        // speedup assertion would only measure scheduler overhead.
        eprintln!("skipping speedup assertion: single-core host");
        return;
    }

    let (points, queries) = huge_frame_pair(120_000, 42);
    let queries: Vec<_> = queries.into_iter().take(30_000).collect();
    assert!(points.len() >= 100_000);

    let classic = KdTree::build(&points);
    let h = height_for_leaf_size(points.len(), 128);
    let mut two_stage = TwoStageKdTree::build(&points, h);

    // Warm-up, then best-of-3 for both contenders.
    let serial = |stats: &mut SearchStats| {
        for &q in &queries {
            classic.nn_with_stats(q, stats);
        }
    };
    let mut stats = SearchStats::new();
    serial(&mut stats);
    let serial_time = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            serial(&mut stats);
            t0.elapsed()
        })
        .min()
        .unwrap();

    let mut timed_batch = |threads: usize| {
        let cfg = BatchConfig { threads, min_chunk: 64 };
        let mut stats = SearchStats::new();
        two_stage.nn_batch(&queries, &cfg, &mut stats); // warm-up
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                two_stage.nn_batch(&queries, &cfg, &mut stats);
                t0.elapsed()
            })
            .min()
            .unwrap()
    };
    let one_thread_time = timed_batch(1);
    let parallel_time = timed_batch(4);

    eprintln!(
        "serial classic {serial_time:?} | two-stage @1 thread {one_thread_time:?} | \
         two-stage @4 threads {parallel_time:?} ({:.2}x vs classic, {:.2}x thread scaling)",
        serial_time.as_secs_f64() / parallel_time.as_secs_f64(),
        one_thread_time.as_secs_f64() / parallel_time.as_secs_f64(),
    );
    assert!(
        parallel_time < serial_time,
        "batched parallel two-stage ({parallel_time:?}) should beat serial classic \
         ({serial_time:?}) on {cores} cores"
    );
    // Same structure, serial vs parallel: gates actual thread scaling, so
    // a regression that silently serializes nn_batch cannot hide behind
    // the two-stage tree's structural advantage over the classic tree.
    if cores >= 4 {
        assert!(
            parallel_time < one_thread_time,
            "4-thread batch ({parallel_time:?}) should beat the same search at 1 thread \
             ({one_thread_time:?}) on {cores} cores"
        );
    }
}
