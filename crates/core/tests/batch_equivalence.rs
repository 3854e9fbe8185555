//! Property tests for the batch entry points: batched execution through
//! [`SearchIndex`]'s `*_batch` methods must be *indistinguishable* from
//! the backend's serial kernel — identical neighbor indices, identical
//! distances, and identical [`SearchStats`] — on all four backends
//! (canonical KD-tree, two-stage KD-tree, approximate leader/follower
//! search, brute force). Every backend here runs the trait's default
//! loop; these tests pin that the loop is a pure replay of the kernel,
//! leader books included.

use proptest::prelude::*;
use tigris_core::index::SearchIndex;
use tigris_core::simd::{LANES, LANES_HALF};
use tigris_core::{
    ApproxConfig, ApproxIndex, BruteForceIndex, KdTree, SearchStats, TwoStageKdTree,
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

/// Runs the serial kernel loop and the batched call on the same backend
/// and asserts bit-identical results and stats.
macro_rules! assert_batch_equals_serial {
    ($make:expr, $queries:expr, $serial:expr, $batched:expr) => {{
        let mut serial_backend = $make;
        let mut serial_stats = SearchStats::new();
        let serial_out: Vec<_> =
            $queries.iter().map(|&q| $serial(&mut serial_backend, q, &mut serial_stats)).collect();

        let mut batch_backend = $make;
        let mut batch_stats = SearchStats::new();
        let batch_out = $batched(&mut batch_backend, &$queries, &mut batch_stats);

        prop_assert_eq!(serial_out, batch_out);
        prop_assert_eq!(serial_stats, batch_stats);
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kdtree_nn_batch_equals_serial(pts in cloud(), qs in queries()) {
        assert_batch_equals_serial!(
            KdTree::build(&pts),
            qs,
            |t: &mut KdTree, q, s: &mut SearchStats| t.nn_with_stats(q, s),
            |t: &mut KdTree, qs: &[Vec3], s: &mut SearchStats| t.nn_batch(qs, s)
        );
    }

    #[test]
    fn kdtree_radius_batch_equals_serial(pts in cloud(), qs in queries(), r in 0.0f64..30.0) {
        assert_batch_equals_serial!(
            KdTree::build(&pts),
            qs,
            |t: &mut KdTree, q, s: &mut SearchStats| t.radius_with_stats(q, r, s),
            |t: &mut KdTree, qs: &[Vec3], s: &mut SearchStats| t.radius_batch(qs, r, s)
        );
    }

    #[test]
    fn two_stage_batches_equal_serial(
        pts in cloud(), qs in queries(), h in 0usize..8, r in 0.0f64..30.0,
    ) {
        assert_batch_equals_serial!(
            TwoStageKdTree::build(&pts, h),
            qs,
            |t: &mut TwoStageKdTree, q, s: &mut SearchStats| t.nn_with_stats(q, s),
            |t: &mut TwoStageKdTree, qs: &[Vec3], s: &mut SearchStats| t.nn_batch(qs, s)
        );
        assert_batch_equals_serial!(
            TwoStageKdTree::build(&pts, h),
            qs,
            |t: &mut TwoStageKdTree, q, s: &mut SearchStats| t.radius_with_stats(q, r, s),
            |t: &mut TwoStageKdTree, qs: &[Vec3], s: &mut SearchStats| t.radius_batch(qs, r, s)
        );
    }

    #[test]
    fn brute_force_batches_equal_serial(pts in cloud(), qs in queries(), r in 0.0f64..30.0) {
        assert_batch_equals_serial!(
            BruteForceIndex::new(pts.clone()),
            qs,
            |t: &mut BruteForceIndex, q, s: &mut SearchStats| t.nn_with_stats(q, s),
            |t: &mut BruteForceIndex, qs: &[Vec3], s: &mut SearchStats| t.nn_batch(qs, s)
        );
        assert_batch_equals_serial!(
            BruteForceIndex::new(pts.clone()),
            qs,
            |t: &mut BruteForceIndex, q, s: &mut SearchStats| t.radius_with_stats(q, r, s),
            |t: &mut BruteForceIndex, qs: &[Vec3], s: &mut SearchStats| t.radius_batch(qs, r, s)
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
        let batch_nn = batched.nn_batch(&qs, &mut batch_stats);
        let batch_radius = batched.radius_batch(&qs, r, &mut batch_stats);

        prop_assert_eq!(serial_nn, batch_nn);
        prop_assert_eq!(serial_radius, batch_radius);
        prop_assert_eq!(serial_stats, batch_stats);
        prop_assert_eq!(serial.leader_count(), batched.leader_count());
    }

    /// The SoA scan path at query counts one step around the SIMD block
    /// widths (4 / 8 / 16): remainder lanes inside the kernels must not
    /// show through a batch.
    #[test]
    fn soa_chunks_straddling_simd_widths_equal_serial(pts in cloud(), r in 0.0f64..30.0) {
        for n_queries in [LANES_HALF - 1, LANES_HALF, LANES_HALF + 1,
                          LANES - 1, LANES, LANES + 1,
                          2 * LANES - 1, 2 * LANES, 2 * LANES + 1] {
            let qs: Vec<Vec3> = (0..n_queries)
                .map(|i| Vec3::new(i as f64 * 1.7 - 10.0, (i % 5) as f64, -2.0))
                .collect();
            assert_batch_equals_serial!(
                KdTree::build(&pts),
                qs,
                |t: &mut KdTree, q, s: &mut SearchStats| t.radius_with_stats(q, r, s),
                |t: &mut KdTree, qs: &[Vec3], s: &mut SearchStats| t.radius_batch(qs, r, s)
            );
            assert_batch_equals_serial!(
                BruteForceIndex::new(pts.clone()),
                qs,
                |t: &mut BruteForceIndex, q, s: &mut SearchStats| t.nn_with_stats(q, s),
                |t: &mut BruteForceIndex, qs: &[Vec3], s: &mut SearchStats| t.nn_batch(qs, s)
            );
        }
    }

    /// Cloud sizes one step around the SoA leaf capacity (2 × LANES) and
    /// the block widths: the tree build emits leaves with every remainder
    /// occupancy, and batched queries must stay bit-identical to serial.
    #[test]
    fn clouds_straddling_leaf_capacity_equal_serial(
        qs in queries(), r in 0.0f64..30.0, seed in 0u64..1000,
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
                |t: &mut KdTree, q, s: &mut SearchStats| t.nn_with_stats(q, s),
                |t: &mut KdTree, qs: &[Vec3], s: &mut SearchStats| t.nn_batch(qs, s)
            );
            assert_batch_equals_serial!(
                KdTree::build(&pts),
                qs,
                |t: &mut KdTree, q, s: &mut SearchStats| t.radius_with_stats(q, r, s),
                |t: &mut KdTree, qs: &[Vec3], s: &mut SearchStats| t.radius_batch(qs, r, s)
            );
        }
    }

    /// Stats merge losslessly: summing arbitrary partitions of a query
    /// stream equals the unpartitioned totals.
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

fn lcg_cloud(n: usize, seed: u64) -> Vec<Vec3> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) * 20.0 - 10.0
    };
    (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
}

#[test]
fn batched_kdtree_matches_serial_results_and_stats() {
    let pts = lcg_cloud(3000, 1);
    let queries = lcg_cloud(777, 2);
    let mut tree = KdTree::build(&pts);

    let mut serial_stats = SearchStats::new();
    let serial: Vec<_> =
        queries.iter().map(|&q| tree.nn_with_stats(q, &mut serial_stats)).collect();

    let mut batch_stats = SearchStats::new();
    let batched = tree.nn_batch(&queries, &mut batch_stats);

    assert_eq!(serial, batched);
    assert_eq!(serial_stats, batch_stats);
}

/// A fixed workload dense enough to promise followers: the batch must
/// replay Algorithm 1's leader books exactly, not just on average.
#[test]
fn batched_approx_matches_serial_results_and_stats() {
    let pts = lcg_cloud(4000, 3);
    let queries = lcg_cloud(500, 4);

    let mut serial = ApproxIndex::build(&pts, 4, ApproxConfig::default());
    let mut serial_stats = SearchStats::new();
    let serial_out: Vec<_> =
        queries.iter().map(|&q| serial.nn_with_stats(q, &mut serial_stats)).collect();

    let mut batched = ApproxIndex::build(&pts, 4, ApproxConfig::default());
    let mut batch_stats = SearchStats::new();
    let batch_out = batched.nn_batch(&queries, &mut batch_stats);

    assert_eq!(serial_out, batch_out);
    assert_eq!(serial_stats, batch_stats);
    assert_eq!(serial.leader_count(), batched.leader_count());
    assert!(batch_stats.follower_hits > 0, "workload should produce followers");
}

#[test]
fn batched_approx_radius_matches_serial() {
    let pts = lcg_cloud(2000, 5);
    let queries = lcg_cloud(300, 6);

    let mut serial = ApproxIndex::build(&pts, 3, ApproxConfig::default());
    let mut s_stats = SearchStats::new();
    let s_out: Vec<_> =
        queries.iter().map(|&q| serial.radius_with_stats(q, 2.0, &mut s_stats)).collect();

    let mut batched = ApproxIndex::build(&pts, 3, ApproxConfig::default());
    let mut b_stats = SearchStats::new();
    let b_out = batched.radius_batch(&queries, 2.0, &mut b_stats);

    assert_eq!(s_out, b_out);
    assert_eq!(s_stats, b_stats);
}

#[test]
fn brute_force_backend_counts_scans() {
    let mut index = BruteForceIndex::new(lcg_cloud(100, 7));
    let queries = lcg_cloud(10, 8);
    let mut stats = SearchStats::new();
    let out = index.nn_batch(&queries, &mut stats);
    assert_eq!(out.len(), 10);
    assert_eq!(stats.queries, 10);
    assert_eq!(stats.leaf_points_scanned, 1000);
}

#[test]
fn empty_queries_and_empty_trees() {
    let mut tree = KdTree::build(&[]);
    let mut stats = SearchStats::new();
    assert!(tree.nn_batch(&[], &mut stats).is_empty());
    let qs = lcg_cloud(5, 9);
    let out = tree.nn_batch(&qs, &mut stats);
    assert!(out.iter().all(Option::is_none));

    let empty_tree = TwoStageKdTree::build(&[], 3);
    let mut approx = ApproxIndex::from_tree(empty_tree, ApproxConfig::default());
    let out = approx.nn_batch(&qs, &mut stats);
    assert!(out.iter().all(Option::is_none));
}
