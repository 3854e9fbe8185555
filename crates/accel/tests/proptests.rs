//! Property-based tests of the accelerator model: whatever the point set,
//! query stream and hardware configuration, the simulator must return
//! exact results (in exact mode), obey conservation laws, and respond
//! monotonically to resources.

use proptest::prelude::*;
use tigris_accel::{AccelBackend, AcceleratorConfig, BackendPolicy, MappingPolicy, SearchKind};
use tigris_core::{ApproxConfig, TwoStageKdTree};
use tigris_geom::Vec3;

fn point() -> impl Strategy<Value = Vec3> {
    (-30.0f64..30.0, -30.0f64..30.0, -5.0f64..5.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn cloud() -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(point(), 16..400)
}

fn queries() -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(point(), 1..60)
}

fn config() -> impl Strategy<Value = AcceleratorConfig> {
    (
        1usize..16,
        1usize..8,
        1usize..16,
        any::<bool>(),
        any::<bool>(),
        prop::bool::ANY,
        prop::bool::ANY,
        0usize..2048,
    )
        .prop_map(|(rus, sus, pes, fwd, byp, mqmn, hash, cache)| AcceleratorConfig {
            num_rus: rus,
            num_sus: sus,
            pes_per_su: pes,
            forwarding: fwd,
            bypassing: byp,
            backend: if mqmn { BackendPolicy::Mqmn } else { BackendPolicy::Mqsn },
            mapping: if hash { MappingPolicy::Hash } else { MappingPolicy::LowOrderBits },
            node_cache_points: cache,
            ..AcceleratorConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_nn_matches_software_for_any_config(
        pts in cloud(), qs in queries(), h in 0usize..8, cfg in config(),
    ) {
        let tree = TwoStageKdTree::build(&pts, h);
        let mut sim = AccelBackend::from_tree(tree.clone(), cfg);
        let report = sim.run(&qs, SearchKind::Nn);
        for (q, hw) in qs.iter().zip(&report.nn_results) {
            let sw = tree.nn(*q).unwrap();
            prop_assert_eq!(hw.unwrap().distance_squared, sw.distance_squared);
        }
    }

    #[test]
    fn exact_radius_counts_match_software(
        pts in cloud(), qs in queries(), h in 0usize..6, r in 0.1f64..10.0, cfg in config(),
    ) {
        let tree = TwoStageKdTree::build(&pts, h);
        let mut sim = AccelBackend::from_tree(tree.clone(), cfg);
        let report = sim.run(&qs, SearchKind::Radius(r));
        for (q, &count) in qs.iter().zip(&report.radius_result_counts) {
            prop_assert_eq!(count, tree.radius(*q, r).len());
        }
    }

    #[test]
    fn cycles_bound_both_ends(pts in cloud(), qs in queries(), h in 0usize..6, cfg in config()) {
        let tree = TwoStageKdTree::build(&pts, h);
        let mut sim = AccelBackend::from_tree(tree.clone(), cfg);
        let report = sim.run(&qs, SearchKind::Nn);
        prop_assert_eq!(report.cycles, report.fe_cycles.max(report.be_cycles));
        prop_assert!(report.pe_utilization >= 0.0 && report.pe_utilization <= 1.0 + 1e-12);
        if !qs.is_empty() && !pts.is_empty() {
            prop_assert!(report.cycles > 0);
        }
    }

    #[test]
    fn more_rus_never_hurt_the_front_end(
        pts in cloud(), qs in queries(), h in 1usize..6,
    ) {
        let tree = TwoStageKdTree::build(&pts, h);
        let mut prev = u64::MAX;
        for rus in [1usize, 2, 4, 8, 32] {
            let cfg = AcceleratorConfig { num_rus: rus, ..AcceleratorConfig::default() };
            let mut sim = AccelBackend::from_tree(tree.clone(), cfg);
            let fe = sim.run(&qs, SearchKind::Nn).fe_cycles;
            prop_assert!(fe <= prev, "{rus} RUs: {fe} > {prev}");
            prev = fe;
        }
    }

    #[test]
    fn optimization_flags_order_fe_cycles(
        pts in cloud(), qs in queries(), h in 1usize..7,
    ) {
        let tree = TwoStageKdTree::build(&pts, h);
        let fe = |fwd: bool, byp: bool| {
            let cfg = AcceleratorConfig {
                forwarding: fwd,
                bypassing: byp,
                num_rus: 4,
                ..AcceleratorConfig::default()
            };
            let mut sim = AccelBackend::from_tree(tree.clone(), cfg);
            sim.run(&qs, SearchKind::Nn).fe_cycles
        };
        let no_opt = fe(false, false);
        let bypass = fe(false, true);
        let both = fe(true, true);
        prop_assert!(bypass <= no_opt);
        prop_assert!(both <= bypass);
    }

    #[test]
    fn node_cache_redirects_but_conserves_traffic(
        pts in cloud(), qs in queries(), h in 1usize..5,
    ) {
        let tree = TwoStageKdTree::build(&pts, h);
        let run = |cache: usize| {
            let cfg = AcceleratorConfig {
                node_cache_points: cache,
                ..AcceleratorConfig::default()
            };
            let mut sim = AccelBackend::from_tree(tree.clone(), cfg);
            sim.run(&qs, SearchKind::Nn).traffic
        };
        let cold = run(0);
        let warm = run(100_000);
        // The cache redirects node-set bytes, never creates or destroys them.
        prop_assert_eq!(
            warm.points_buffer + warm.node_cache,
            cold.points_buffer + cold.node_cache
        );
        prop_assert_eq!(cold.node_cache, 0);
        // Non-node traffic identical.
        prop_assert_eq!(warm.query_stacks, cold.query_stacks);
        prop_assert_eq!(warm.fe_query_queue, cold.fe_query_queue);
    }

    #[test]
    fn approximate_nn_respects_triangle_bound(
        pts in prop::collection::vec(point(), 64..400),
        qs in queries(),
        thd in 0.0f64..4.0,
    ) {
        let tree = TwoStageKdTree::build(&pts, 3);
        let cfg = AcceleratorConfig {
            approx: Some(ApproxConfig { nn_threshold: thd, ..Default::default() }),
            ..AcceleratorConfig::default()
        };
        let mut sim = AccelBackend::from_tree(tree.clone(), cfg);
        let report = sim.run(&qs, SearchKind::Nn);
        for (q, hw) in qs.iter().zip(&report.nn_results) {
            let sw = tree.nn(*q).unwrap();
            let hw = hw.unwrap();
            prop_assert!(hw.distance() <= sw.distance() + 2.0 * thd + 1e-9);
        }
    }

    #[test]
    fn approximate_radius_is_sound(
        pts in prop::collection::vec(point(), 64..400),
        qs in queries(),
        r in 0.5f64..8.0,
    ) {
        let tree = TwoStageKdTree::build(&pts, 3);
        let cfg = AcceleratorConfig {
            approx: Some(ApproxConfig::default()),
            ..AcceleratorConfig::default()
        };
        let mut sim = AccelBackend::from_tree(tree.clone(), cfg);
        let report = sim.run(&qs, SearchKind::Radius(r));
        for (q, &count) in qs.iter().zip(&report.radius_result_counts) {
            // Followers can only miss points, never invent them.
            prop_assert!(count <= tree.radius(*q, r).len());
        }
    }

    #[test]
    fn energy_is_positive_and_finite(pts in cloud(), qs in queries(), cfg in config()) {
        let tree = TwoStageKdTree::build(&pts, 3);
        let mut sim = AccelBackend::from_tree(tree.clone(), cfg);
        let report = sim.run(&qs, SearchKind::Nn);
        let e = report.energy.total_joules();
        prop_assert!(e.is_finite() && e >= 0.0);
        if report.cycles > 0 {
            prop_assert!(e > 0.0);
            prop_assert!(report.power_watts().is_finite());
        }
    }

    #[test]
    fn backend_policies_agree_on_results(
        pts in cloud(), qs in queries(), h in 0usize..6,
    ) {
        let tree = TwoStageKdTree::build(&pts, h);
        let run = |backend| {
            let cfg = AcceleratorConfig { backend, ..AcceleratorConfig::default() };
            let mut sim = AccelBackend::from_tree(tree.clone(), cfg);
            sim.run(&qs, SearchKind::Nn).nn_results
        };
        let mqsn = run(BackendPolicy::Mqsn);
        let mqmn = run(BackendPolicy::Mqmn);
        for (a, b) in mqsn.iter().zip(&mqmn) {
            prop_assert_eq!(a.unwrap().index, b.unwrap().index);
        }
    }
}
