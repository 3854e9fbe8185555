//! Robustness tests: pathological inputs through the full public API.
//! A production library must degrade gracefully — defined errors or sane
//! fallbacks, never panics or garbage — on inputs real LiDAR systems
//! produce (degenerate geometry, duplicates, extreme coordinates, tiny
//! clouds).

use tigris::core::index::SearchIndex;
use tigris::core::{ApproxConfig, ApproxIndex, KdTree, SearchStats, TwoStageKdTree};
use tigris::geom::{PointCloud, RigidTransform, Vec3};
use tigris::pipeline::{register, RegistrationConfig, RegistrationError};

fn fast_config() -> RegistrationConfig {
    RegistrationConfig {
        voxel_size: 0.0,
        keypoint: tigris::pipeline::KeypointAlgorithm::Uniform { voxel: 1.0 },
        ..RegistrationConfig::default()
    }
}

#[test]
fn all_identical_points() {
    let pts = vec![Vec3::new(1.0, 2.0, 3.0); 100];
    let classic = KdTree::build(&pts);
    assert_eq!(classic.nn(Vec3::ZERO).unwrap().index, 0);
    assert_eq!(classic.radius(Vec3::new(1.0, 2.0, 3.0), 0.01).len(), 100);

    let two_stage = TwoStageKdTree::build(&pts, 4);
    assert_eq!(two_stage.radius(Vec3::new(1.0, 2.0, 3.0), 0.01).len(), 100);

    let mut approx = ApproxIndex::from_tree(two_stage, ApproxConfig::default());
    assert!(approx.nn(Vec3::ZERO, &mut SearchStats::new()).is_some());
}

#[test]
fn collinear_and_coplanar_clouds() {
    // Registration on degenerate geometry must not panic; it may fail with
    // a defined error or produce a (possibly wrong) transform.
    let line: Vec<Vec3> = (0..200).map(|i| Vec3::new(i as f64 * 0.1, 0.0, 0.0)).collect();
    let line_cloud = PointCloud::from_points(line);
    let result = register(&line_cloud, &line_cloud, &fast_config());
    if let Ok(r) = result {
        assert!(r.transform.translation.is_finite());
        assert!(r.transform.rotation.is_rotation(1e-6));
    }

    let plane: Vec<Vec3> =
        (0..400).map(|i| Vec3::new((i % 20) as f64 * 0.2, (i / 20) as f64 * 0.2, 0.0)).collect();
    let plane_cloud = PointCloud::from_points(plane);
    let result = register(&plane_cloud, &plane_cloud, &fast_config());
    if let Ok(r) = result {
        // Self-registration of a plane: the in-plane component is
        // unobservable but the result must still be a valid transform.
        assert!(r.transform.rotation.is_rotation(1e-6));
        assert!(r.transform.translation.norm() < 10.0);
    }
}

#[test]
fn single_point_and_two_point_clouds() {
    let one = PointCloud::from_points(vec![Vec3::ZERO]);
    let two = PointCloud::from_points(vec![Vec3::ZERO, Vec3::X]);
    for (a, b) in [(&one, &one), (&one, &two), (&two, &one)] {
        match register(a, b, &fast_config()) {
            Ok(r) => assert!(r.transform.translation.is_finite()),
            Err(RegistrationError::EmptyCloud | RegistrationError::IcpStarved) => {}
            Err(
                e @ (RegistrationError::UnknownBackend(_) | RegistrationError::PreparationMismatch),
            ) => {
                // register() prepares both frames under the one config
                // with a built-in backend; neither error is reachable.
                panic!("impossible for register() with a built-in backend: {e}")
            }
        }
    }
}

#[test]
fn extreme_coordinates() {
    // Kilometer-scale offsets (bad GPS init, map-frame clouds).
    let offset = Vec3::new(1.0e5, -2.0e5, 50.0);
    let base: Vec<Vec3> = (0..300)
        .map(|i| {
            offset
                + Vec3::new(
                    (i % 20) as f64 * 0.3,
                    (i / 20) as f64 * 0.3,
                    ((i % 7) as f64 * 0.2).sin(),
                )
        })
        .collect();
    let tree = KdTree::build(&base);
    let n = tree.nn(offset).unwrap();
    assert!(n.distance() < 1.0);
    let two = TwoStageKdTree::build(&base, 4);
    assert_eq!(two.nn(offset).unwrap().index, n.index);
}

#[test]
fn duplicated_frame_registration_is_identity() {
    // Registering a frame against itself must return ~identity.
    let pts: Vec<Vec3> = (0..900)
        .map(|i| {
            Vec3::new(
                (i % 30) as f64 * 0.2,
                (i / 30) as f64 * 0.2,
                (((i % 30) as f64 * 0.7).sin() + ((i / 30) as f64 * 0.9).cos()) * 0.5,
            )
        })
        .collect();
    let cloud = PointCloud::from_points(pts);
    let r = register(&cloud, &cloud, &fast_config()).unwrap();
    assert!(r.transform.is_identity(1e-3), "self-registration gave {}", r.transform);
}

#[test]
fn zero_radius_searches() {
    let pts: Vec<Vec3> = (0..50).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
    let tree = KdTree::build(&pts);
    assert_eq!(tree.radius(Vec3::new(7.0, 0.0, 0.0), 0.0).len(), 1);
    assert!(tree.radius(Vec3::new(7.5, 0.0, 0.0), 0.0).is_empty());
}

#[test]
fn tiny_leaf_budget_two_stage() {
    // Heights far beyond log2(n): every leaf is empty or singleton.
    let pts: Vec<Vec3> = (0..30).map(|i| Vec3::new(i as f64, (i % 3) as f64, 0.0)).collect();
    let tree = TwoStageKdTree::build(&pts, 20);
    for &p in &pts {
        assert_eq!(tree.nn(p).unwrap().distance_squared, 0.0);
    }
}

#[test]
fn accelerator_on_degenerate_trees() {
    use tigris::accel::{AcceleratorConfig, AcceleratorSim, SearchKind};
    // Single-leaf tree (height 0) and single-point tree.
    for pts in
        [vec![Vec3::ZERO], (0..64).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect::<Vec<_>>()]
    {
        let tree = TwoStageKdTree::build(&pts, 0);
        let mut sim = AcceleratorSim::new(&tree, AcceleratorConfig::paper());
        let queries = vec![Vec3::new(0.4, 0.0, 0.0); 8];
        let report = sim.run(&queries, SearchKind::Nn);
        for r in &report.nn_results {
            assert_eq!(r.unwrap().index, tree.nn(queries[0]).unwrap().index);
        }
        assert!(report.cycles > 0);
    }
}

#[test]
fn voxel_downsample_extreme_sizes() {
    let pts: Vec<Vec3> = (0..100).map(|i| Vec3::new(i as f64 * 0.01, 0.0, 0.0)).collect();
    let cloud = PointCloud::from_points(pts);
    // Huge voxel: one point survives.
    assert_eq!(cloud.voxel_downsample(1000.0).len(), 1);
    // Tiny voxel: all points survive.
    assert_eq!(cloud.voxel_downsample(1e-6).len(), 100);
}

#[test]
fn metrics_on_stationary_ground_truth() {
    use tigris::data::sequence_error;
    // All ground-truth motion below the 1 cm gate: no pairs scored, no NaNs.
    let tiny = vec![RigidTransform::from_translation(Vec3::new(1e-4, 0.0, 0.0)); 5];
    let err = sequence_error(&tiny, &tiny);
    assert_eq!(err.pairs, 0);
    assert!(err.translational_percent.is_finite());
}
