//! Property-based tests for the KD-tree structures: the canonical tree, the
//! two-stage tree and the approximate searcher are all checked against
//! the brute-force oracle.

use proptest::prelude::*;
use tigris_core::{
    nn_brute_force, radius_brute_force, ApproxConfig, ApproxIndex, KdTree, SearchStats,
    TwoStageKdTree,
};
use tigris_geom::Vec3;

fn point() -> impl Strategy<Value = Vec3> {
    (-50.0f64..50.0, -50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn cloud() -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(point(), 1..300)
}

proptest! {
    #[test]
    fn kdtree_nn_equals_brute_force(pts in cloud(), q in point()) {
        let tree = KdTree::build(&pts);
        let a = tree.nn(q).unwrap();
        let b = nn_brute_force(&pts, q).unwrap();
        prop_assert_eq!(a.distance_squared, b.distance_squared);
        prop_assert_eq!(pts[a.index], pts[b.index]);
    }

    #[test]
    fn kdtree_radius_equals_brute_force(pts in cloud(), q in point(), r in 0.0f64..30.0) {
        let tree = KdTree::build(&pts);
        let a = tree.radius(q, r);
        let b = radius_brute_force(&pts, q, r);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.index, y.index);
            prop_assert_eq!(x.distance_squared, y.distance_squared);
        }
    }

    #[test]
    fn kdtree_knn_distances_match_brute_force(pts in cloud(), q in point(), k in 1usize..20) {
        let tree = KdTree::build(&pts);
        let a = tree.knn(q, k);
        let mut expected: Vec<f64> = pts.iter().map(|&p| q.distance_squared(p)).collect();
        expected.sort_by(|x, y| x.partial_cmp(y).unwrap());
        expected.truncate(k);
        prop_assert_eq!(a.len(), expected.len());
        for (x, &d) in a.iter().zip(&expected) {
            prop_assert!((x.distance_squared - d).abs() < 1e-12);
        }
    }

    #[test]
    fn two_stage_is_exact_at_any_height(pts in cloud(), q in point(), h in 0usize..10) {
        let tree = TwoStageKdTree::build(&pts, h);
        let a = tree.nn(q).unwrap();
        let b = nn_brute_force(&pts, q).unwrap();
        prop_assert_eq!(a.distance_squared, b.distance_squared);
    }

    #[test]
    fn two_stage_radius_is_exact(pts in cloud(), q in point(), h in 0usize..8, r in 0.0f64..30.0) {
        let tree = TwoStageKdTree::build(&pts, h);
        let a = tree.radius(q, r);
        let b = radius_brute_force(&pts, q, r);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.index, y.index);
        }
    }

    #[test]
    fn two_stage_never_visits_fewer_nodes_than_fully_split(
        pts in prop::collection::vec(point(), 64..400),
        queries in prop::collection::vec(point(), 1..20),
        h in 0usize..6,
    ) {
        // The redundancy ratio of Fig. 6a is ≥ 1 by construction: shrinking
        // the top tree can only add work relative to the fully split tree.
        // The baseline is a two-stage tree whose top tree is deep enough to
        // isolate every point (one point per node) — the classic layout the
        // paper compares against. The bucketized `KdTree` is no longer that
        // baseline: it bills whole SoA leaf scans, so its totals are not
        // comparable node-for-node.
        let deep = TwoStageKdTree::build(&pts, 12);
        let two = TwoStageKdTree::build(&pts, h);
        let mut sc = SearchStats::new();
        let mut st = SearchStats::new();
        for &q in &queries {
            deep.nn_with_stats(q, &mut sc);
            two.nn_with_stats(q, &mut st);
        }
        // Allow equality (deep top-trees degenerate to the baseline).
        prop_assert!(st.total_nodes_visited() + 8 >= sc.total_nodes_visited());
    }

    #[test]
    fn approx_nn_error_is_bounded(
        pts in prop::collection::vec(point(), 32..300),
        queries in prop::collection::vec(point(), 1..30),
        thd in 0.0f64..5.0,
    ) {
        let tree = TwoStageKdTree::build(&pts, 3);
        let mut searcher = ApproxIndex::from_tree(
            tree.clone(),
            ApproxConfig { nn_threshold: thd, ..Default::default() },
        );
        for &q in &queries {
            let approx = searcher.nn_with_stats(q, &mut SearchStats::new()).unwrap();
            let exact = tree.nn(q).unwrap();
            // Triangle-inequality bound: follower ≤ exact + 2·thd.
            prop_assert!(approx.distance() <= exact.distance() + 2.0 * thd + 1e-9);
            // The approximate result always refers to a real point.
            prop_assert!(approx.index < pts.len());
        }
    }

    #[test]
    fn approx_radius_is_sound(
        pts in prop::collection::vec(point(), 32..300),
        queries in prop::collection::vec(point(), 1..30),
        r in 0.1f64..20.0,
    ) {
        let mut searcher = ApproxIndex::build(&pts, 3, ApproxConfig::default());
        for &q in &queries {
            for n in searcher.radius_with_stats(q, r, &mut SearchStats::new()) {
                prop_assert!(n.distance_squared <= r * r + 1e-12);
                prop_assert!((q.distance_squared(pts[n.index]) - n.distance_squared).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn primary_leaf_is_stable_under_duplicate_queries(pts in prop::collection::vec(point(), 16..200), q in point()) {
        let tree = TwoStageKdTree::build(&pts, 3);
        prop_assert_eq!(tree.primary_leaf(q), tree.primary_leaf(q));
    }
}
