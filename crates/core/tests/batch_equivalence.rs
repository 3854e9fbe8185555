//! Property tests for the parallel batch engine: batched execution
//! through [`SearchIndex`]'s `*_batch` methods must be
//! *indistinguishable* from the backend's serial kernel — identical
//! neighbor indices, identical distances, and per-thread [`SearchStats`]
//! that merge to the serial totals — on all four backends (canonical
//! KD-tree, two-stage KD-tree, approximate leader/follower search, brute
//! force).

use proptest::prelude::*;
use tigris_core::index::SearchIndex;
use tigris_core::simd::{LANES, LANES_HALF};
use tigris_core::{
    ApproxConfig, ApproxIndex, BatchConfig, BruteForceIndex, KdTree, SearchStats, TwoStageKdTree,
};
use tigris_geom::Vec3;

fn point() -> impl Strategy<Value = Vec3> {
    (-50.0f64..50.0, -50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn cloud() -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(point(), 1..400)
}

fn queries() -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(point(), 1..80)
}

/// Thread counts worth exercising: serial, oversubscribed small, auto.
fn batch_cfg() -> impl Strategy<Value = BatchConfig> {
    (0usize..9, 1usize..64).prop_map(|(threads, min_chunk)| BatchConfig { threads, min_chunk })
}

/// Runs the serial kernel loop and the batched call on the same backend
/// and asserts bit-identical results and stats.
macro_rules! assert_batch_equals_serial {
    ($make:expr, $queries:expr, $cfg:expr, $serial:expr, $batched:expr) => {{
        let mut serial_backend = $make;
        let mut serial_stats = SearchStats::new();
        let serial_out: Vec<_> =
            $queries.iter().map(|&q| $serial(&mut serial_backend, q, &mut serial_stats)).collect();

        let mut batch_backend = $make;
        let mut batch_stats = SearchStats::new();
        let batch_out = $batched(&mut batch_backend, &$queries, &$cfg, &mut batch_stats);

        prop_assert_eq!(serial_out, batch_out);
        prop_assert_eq!(serial_stats, batch_stats);
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kdtree_nn_batch_equals_serial(pts in cloud(), qs in queries(), cfg in batch_cfg()) {
        assert_batch_equals_serial!(
            KdTree::build(&pts),
            qs,
            cfg,
            |t: &mut KdTree, q, s: &mut SearchStats| t.nn_with_stats(q, s),
            |t: &mut KdTree, qs: &[Vec3], c: &BatchConfig, s: &mut SearchStats| t.nn_batch(qs, c, s)
        );
    }

    #[test]
    fn kdtree_radius_batch_equals_serial(
        pts in cloud(), qs in queries(), r in 0.0f64..30.0, cfg in batch_cfg(),
    ) {
        assert_batch_equals_serial!(
            KdTree::build(&pts),
            qs,
            cfg,
            |t: &mut KdTree, q, s: &mut SearchStats| t.radius_with_stats(q, r, s),
            |t: &mut KdTree, qs: &[Vec3], c: &BatchConfig, s: &mut SearchStats| {
                t.radius_batch(qs, r, c, s)
            }
        );
    }

    #[test]
    fn two_stage_batches_equal_serial(
        pts in cloud(), qs in queries(), h in 0usize..8, r in 0.0f64..30.0, cfg in batch_cfg(),
    ) {
        assert_batch_equals_serial!(
            TwoStageKdTree::build(&pts, h),
            qs,
            cfg,
            |t: &mut TwoStageKdTree, q, s: &mut SearchStats| t.nn_with_stats(q, s),
            |t: &mut TwoStageKdTree, qs: &[Vec3], c: &BatchConfig, s: &mut SearchStats| {
                t.nn_batch(qs, c, s)
            }
        );
        assert_batch_equals_serial!(
            TwoStageKdTree::build(&pts, h),
            qs,
            cfg,
            |t: &mut TwoStageKdTree, q, s: &mut SearchStats| t.radius_with_stats(q, r, s),
            |t: &mut TwoStageKdTree, qs: &[Vec3], c: &BatchConfig, s: &mut SearchStats| {
                t.radius_batch(qs, r, c, s)
            }
        );
    }

    #[test]
    fn brute_force_batches_equal_serial(
        pts in cloud(), qs in queries(), r in 0.0f64..30.0, cfg in batch_cfg(),
    ) {
        assert_batch_equals_serial!(
            BruteForceIndex::new(pts.clone()),
            qs,
            cfg,
            |t: &mut BruteForceIndex, q, s: &mut SearchStats| t.nn_with_stats(q, s),
            |t: &mut BruteForceIndex, qs: &[Vec3], c: &BatchConfig, s: &mut SearchStats| {
                t.nn_batch(qs, c, s)
            }
        );
        assert_batch_equals_serial!(
            BruteForceIndex::new(pts.clone()),
            qs,
            cfg,
            |t: &mut BruteForceIndex, q, s: &mut SearchStats| t.radius_with_stats(q, r, s),
            |t: &mut BruteForceIndex, qs: &[Vec3], c: &BatchConfig, s: &mut SearchStats| {
                t.radius_batch(qs, r, c, s)
            }
        );
    }

    /// The stateful backend: leader books must evolve identically, so
    /// results, stats, *and* final leader counts are compared.
    #[test]
    fn approx_batches_equal_serial(
        pts in prop::collection::vec(point(), 32..400),
        qs in queries(),
        h in 1usize..6,
        thd in 0.0f64..6.0,
        r in 0.5f64..10.0,
        cfg in batch_cfg(),
    ) {
        let tree = TwoStageKdTree::build(&pts, h);
        let acfg = ApproxConfig { nn_threshold: thd, ..ApproxConfig::default() };

        let mut serial = ApproxIndex::from_tree(tree.clone(), acfg);
        let mut serial_stats = SearchStats::new();
        let serial_nn: Vec<_> =
            qs.iter().map(|&q| serial.nn_with_stats(q, &mut serial_stats)).collect();
        let serial_radius: Vec<_> =
            qs.iter().map(|&q| serial.radius_with_stats(q, r, &mut serial_stats)).collect();

        let mut batched = ApproxIndex::from_tree(tree, acfg);
        let mut batch_stats = SearchStats::new();
        let batch_nn = batched.nn_batch(&qs, &cfg, &mut batch_stats);
        let batch_radius = batched.radius_batch(&qs, r, &cfg, &mut batch_stats);

        prop_assert_eq!(serial_nn, batch_nn);
        prop_assert_eq!(serial_radius, batch_radius);
        prop_assert_eq!(serial_stats, batch_stats);
        prop_assert_eq!(serial.leader_count(), batched.leader_count());
    }

    /// The SoA scan path under worker splits that straddle the SIMD block
    /// widths: every combination of a work-chunk size and a query count one
    /// step around 4 / 8 / 16 forces remainder lanes inside the kernels
    /// while the batch engine splits the stream at awkward offsets.
    #[test]
    fn soa_chunks_straddling_simd_widths_equal_serial(
        pts in cloud(), r in 0.0f64..30.0, threads in 0usize..5,
    ) {
        for min_chunk in [LANES_HALF - 1, LANES_HALF, LANES_HALF + 1,
                          LANES - 1, LANES, LANES + 1,
                          2 * LANES - 1, 2 * LANES, 2 * LANES + 1] {
            let cfg = BatchConfig { threads, min_chunk };
            for n_queries in [LANES - 1, LANES, LANES + 1, 2 * LANES + 1] {
                let qs: Vec<Vec3> = (0..n_queries)
                    .map(|i| Vec3::new(i as f64 * 1.7 - 10.0, (i % 5) as f64, -2.0))
                    .collect();
                assert_batch_equals_serial!(
                    KdTree::build(&pts),
                    qs,
                    cfg,
                    |t: &mut KdTree, q, s: &mut SearchStats| t.radius_with_stats(q, r, s),
                    |t: &mut KdTree, qs: &[Vec3], c: &BatchConfig, s: &mut SearchStats| {
                        t.radius_batch(qs, r, c, s)
                    }
                );
                assert_batch_equals_serial!(
                    BruteForceIndex::new(pts.clone()),
                    qs,
                    cfg,
                    |t: &mut BruteForceIndex, q, s: &mut SearchStats| t.nn_with_stats(q, s),
                    |t: &mut BruteForceIndex, qs: &[Vec3], c: &BatchConfig, s: &mut SearchStats| {
                        t.nn_batch(qs, c, s)
                    }
                );
            }
        }
    }

    /// Cloud sizes one step around the SoA leaf capacity (2 × LANES) and
    /// the block widths: the tree build emits leaves with every remainder
    /// occupancy, and batched queries must stay bit-identical to serial.
    #[test]
    fn clouds_straddling_leaf_capacity_equal_serial(
        qs in queries(), r in 0.0f64..30.0, cfg in batch_cfg(), seed in 0u64..1000,
    ) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 40.0 - 20.0
        };
        for n in [LANES_HALF, LANES - 1, LANES, LANES + 1,
                  2 * LANES - 1, 2 * LANES, 2 * LANES + 1,
                  4 * LANES - 1, 4 * LANES + 1] {
            let pts: Vec<Vec3> = (0..n).map(|_| Vec3::new(next(), next(), next())).collect();
            assert_batch_equals_serial!(
                KdTree::build(&pts),
                qs,
                cfg,
                |t: &mut KdTree, q, s: &mut SearchStats| t.nn_with_stats(q, s),
                |t: &mut KdTree, qs: &[Vec3], c: &BatchConfig, s: &mut SearchStats| {
                    t.nn_batch(qs, c, s)
                }
            );
            assert_batch_equals_serial!(
                KdTree::build(&pts),
                qs,
                cfg,
                |t: &mut KdTree, q, s: &mut SearchStats| t.radius_with_stats(q, r, s),
                |t: &mut KdTree, qs: &[Vec3], c: &BatchConfig, s: &mut SearchStats| {
                    t.radius_batch(qs, r, c, s)
                }
            );
        }
    }

    /// Per-thread stats merge losslessly: summing arbitrary partitions of
    /// a query stream equals the unpartitioned totals.
    #[test]
    fn merged_stats_equal_serial_totals(
        pts in cloud(), qs in queries(), split in 0usize..80,
    ) {
        let tree = KdTree::build(&pts);
        let split = split.min(qs.len());

        let mut whole = SearchStats::new();
        for &q in &qs {
            tree.nn_with_stats(q, &mut whole);
        }

        let (left, right) = qs.split_at(split);
        let mut a = SearchStats::new();
        let mut b = SearchStats::new();
        for &q in left {
            tree.nn_with_stats(q, &mut a);
        }
        for &q in right {
            tree.nn_with_stats(q, &mut b);
        }
        a.merge(&b);
        prop_assert_eq!(whole, a);
    }
}
