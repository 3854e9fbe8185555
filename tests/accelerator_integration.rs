//! Integration tests spanning the data substrate, the KD-tree structures
//! and the accelerator model: the simulated hardware must agree with the
//! software searches, and the paper's qualitative architecture claims must
//! hold on realistic LiDAR workloads.

use tigris::accel::{AccelBackend, AcceleratorConfig, BackendPolicy, SearchKind};
use tigris::core::{ApproxConfig, SearchIndex, TwoStageKdTree};
use tigris::data::{Lidar, LidarConfig, Scene, SceneConfig};
use tigris::geom::{RigidTransform, Vec3};

fn lidar_workload() -> (Vec<Vec3>, Vec<Vec3>) {
    let scene = Scene::generate(&SceneConfig::tiny(), 5);
    let mut lidar = Lidar::new(LidarConfig::tiny(), 5);
    let target = lidar
        .scan(&scene, &RigidTransform::from_translation(Vec3::new(20.0, 0.0, 0.0)))
        .points()
        .to_vec();
    let queries = lidar
        .scan(&scene, &RigidTransform::from_translation(Vec3::new(21.0, 0.0, 0.0)))
        .points()
        .to_vec();
    (target, queries)
}

#[test]
fn accelerator_results_are_bit_identical_to_software() {
    let (target, queries) = lidar_workload();
    let tree = TwoStageKdTree::build(&target, 6);
    let mut sim = AccelBackend::from_tree(tree.clone(), AcceleratorConfig::paper());

    let nn_report = sim.run(&queries, SearchKind::Nn);
    for (q, hw) in queries.iter().zip(&nn_report.nn_results) {
        let sw = tree.nn(*q).unwrap();
        let hw = hw.expect("accelerator missed a result");
        assert_eq!(hw.index, sw.index);
        assert_eq!(hw.distance_squared, sw.distance_squared);
    }

    sim.reset();
    let rad_report = sim.run(&queries, SearchKind::Radius(0.8));
    for (q, &count) in queries.iter().zip(&rad_report.radius_result_counts) {
        assert_eq!(count, tree.radius(*q, 0.8).len());
    }
}

#[test]
fn two_stage_beats_classic_tree_on_the_accelerator() {
    // The paper's co-design claim: the accelerator on the original KD-tree
    // (leaf sets ≈ 1) is front-end-bound and much slower than on the
    // two-stage structure.
    let (target, queries) = lidar_workload();
    let co_designed = TwoStageKdTree::build(&target, 7);
    let deep = TwoStageKdTree::build(&target, 14); // ≈ classic

    let mut sim_good = AccelBackend::from_tree(co_designed.clone(), AcceleratorConfig::paper());
    let good = sim_good.run(&queries, SearchKind::Nn);
    let mut sim_deep = AccelBackend::from_tree(deep.clone(), AcceleratorConfig::paper());
    let acc_kd = sim_deep.run(&queries, SearchKind::Nn);

    assert!(good.cycles < acc_kd.cycles, "Acc-2SKD {} !< Acc-KD {}", good.cycles, acc_kd.cycles);
    assert!(acc_kd.fe_cycles >= acc_kd.be_cycles, "Acc-KD must be FE-bound");
}

#[test]
fn ru_optimizations_and_backend_policies_order_correctly() {
    let (target, queries) = lidar_workload();
    let tree = TwoStageKdTree::build(&target, 9);
    let run = |cfg: AcceleratorConfig| {
        let mut sim = AccelBackend::from_tree(tree.clone(), cfg);
        sim.run(&queries, SearchKind::Nn)
    };

    let no_opt = run(AcceleratorConfig {
        forwarding: false,
        bypassing: false,
        ..AcceleratorConfig::paper()
    });
    let bypass =
        run(AcceleratorConfig { forwarding: false, bypassing: true, ..AcceleratorConfig::paper() });
    let full = run(AcceleratorConfig::paper());
    assert!(bypass.fe_cycles <= no_opt.fe_cycles);
    assert!(full.fe_cycles < bypass.fe_cycles);

    let mqmn =
        run(AcceleratorConfig { backend: BackendPolicy::Mqmn, ..AcceleratorConfig::paper() });
    assert!(
        mqmn.traffic.points_buffer >= full.traffic.points_buffer,
        "MQMN must stream at least as many node sets"
    );
}

#[test]
fn approximation_reduces_work_and_stays_sound() {
    let (target, queries) = lidar_workload();
    let tree = TwoStageKdTree::build(&target, 6);

    let mut exact_sim = AccelBackend::from_tree(tree.clone(), AcceleratorConfig::paper());
    let exact = exact_sim.run(&queries, SearchKind::Nn);

    let cfg =
        AcceleratorConfig { approx: Some(ApproxConfig::default()), ..AcceleratorConfig::paper() };
    let mut approx_sim = AccelBackend::from_tree(tree.clone(), cfg);
    // Two passes: the second models an ICP iteration re-querying the frame.
    let _first = approx_sim.run(&queries, SearchKind::Nn);
    let second = approx_sim.run(&queries, SearchKind::Nn);

    assert!(second.follower_hits > 0, "no followers in the repeat pass");
    assert!(
        second.leaf_points_scanned < exact.leaf_points_scanned / 2,
        "repeat pass should scan far less: {} vs {}",
        second.leaf_points_scanned,
        exact.leaf_points_scanned
    );
    // Follower results stay within the triangle-inequality envelope.
    for (e, a) in exact.nn_results.iter().zip(&second.nn_results) {
        let (e, a) = (e.unwrap(), a.unwrap());
        assert!(a.distance() <= e.distance() + 2.0 * 1.2 + 1e-9);
    }
}

#[test]
fn energy_and_traffic_are_consistent() {
    let (target, queries) = lidar_workload();
    let tree = TwoStageKdTree::build(&target, 6);
    let mut sim = AccelBackend::from_tree(tree.clone(), AcceleratorConfig::paper());
    let report = sim.run(&queries, SearchKind::Nn);

    // Energy categories all populated, power in a sane hardware envelope.
    assert!(report.energy.total_joules() > 0.0);
    let (pe, rd, wr, leak, dram) = report.energy.fractions();
    assert!(pe > 0.0 && rd > 0.0 && wr > 0.0 && leak > 0.0 && dram > 0.0);
    let power = report.power_watts();
    assert!(power > 0.5 && power < 100.0, "power {power} W");

    // Conservation: every leaf scan's bytes land in exactly one of points
    // buffer / node cache / result buffer.
    assert!(report.traffic.points_buffer + report.traffic.node_cache > 0);
}
