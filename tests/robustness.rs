//! Robustness tests: pathological inputs through the full public API.
//! A production library must degrade gracefully — defined errors or sane
//! fallbacks, never panics or garbage — on inputs real LiDAR systems
//! produce (degenerate geometry, duplicates, extreme coordinates, tiny
//! clouds).

use tigris::core::index::SearchIndex;
use tigris::core::{ApproxConfig, ApproxIndex, KdTree, SearchStats, TwoStageKdTree};
use tigris::data::{LidarConfig, Sequence, SequenceConfig};
use tigris::geom::{PointCloud, RigidTransform, Vec3};
use tigris::map::{Mapper, MapperConfig};
use tigris::pipeline::{
    prepare_frame, register, register_prepared, ConfigError, ConvergenceCriteria,
    KeypointAlgorithm, Odometer, RegistrationConfig, RegistrationError, SearchBackendConfig,
};
use tigris::serve::shard::{EpochPublisher, ShardConfig, ShardService};
use tigris::serve::{ServeError, StepKind};

fn fast_config() -> RegistrationConfig {
    RegistrationConfig {
        voxel_size: 0.0,
        keypoint: KeypointAlgorithm::Uniform { voxel: 1.0 },
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
                e @ (RegistrationError::InvalidConfig(_)
                | RegistrationError::PreparationMismatch
                | RegistrationError::NonFinitePoint),
            ) => {
                // register() prepares both finite frames under the one
                // valid config with a built-in backend; none of these
                // errors is reachable.
                panic!("impossible for register() with a valid config: {e}")
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
    use tigris::accel::{AccelBackend, AcceleratorConfig, SearchKind};
    // Single-leaf tree (height 0) and single-point tree.
    for pts in
        [vec![Vec3::ZERO], (0..64).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect::<Vec<_>>()]
    {
        let tree = TwoStageKdTree::build(&pts, 0);
        let mut sim = AccelBackend::from_tree(tree.clone(), AcceleratorConfig::paper());
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

/// A short stretch of the 60 m serving circuit at the low-resolution
/// scanner: frames real enough to register, map and serve, small enough
/// for debug-mode CI.
fn circuit() -> Sequence {
    let mut cfg = SequenceConfig::loop_circuit(60.0, 6);
    cfg.lidar = LidarConfig::tiny();
    Sequence::generate(&cfg, 7)
}

/// Corrupted copies of a valid frame: one NaN coordinate, one `+∞`
/// coordinate, and every coordinate NaN.
fn non_finite_copies(frame: &PointCloud) -> [(&'static str, PointCloud); 3] {
    let mid = frame.len() / 2;
    let mut one_nan = frame.points().to_vec();
    one_nan[mid].y = f64::NAN;
    let mut one_inf = frame.points().to_vec();
    one_inf[mid].x = f64::INFINITY;
    let all_nan = vec![Vec3::new(f64::NAN, f64::NAN, f64::NAN); frame.len()];
    [
        ("one NaN", PointCloud::from_points(one_nan)),
        ("one +inf", PointCloud::from_points(one_inf)),
        ("all NaN", PointCloud::from_points(all_nan)),
    ]
}

#[test]
fn non_finite_frames_fail_typed_in_register_and_odometry() {
    let seq = circuit();
    let cfg = MapperConfig::serving().registration;
    let (f0, f1, f2) = (seq.frame(0), seq.frame(1), seq.frame(2));
    for (what, bad) in non_finite_copies(f1) {
        let err = Some(RegistrationError::NonFinitePoint);
        assert_eq!(register(&bad, f0, &cfg).err(), err, "{what}: register, bad source");
        assert_eq!(register(f0, &bad, &cfg).err(), err, "{what}: register, bad target");
        assert!(register(f1, f0, &cfg).is_ok(), "{what}: register after the rejection");

        // As the odometer's first frame and mid-stream: rejected before
        // any state changes, so the next valid frame carries on.
        let mut odo = Odometer::new(cfg.clone());
        assert_eq!(odo.push(&bad).err(), err, "{what}: odometer, first frame");
        assert!(odo.push(f0).unwrap().is_none(), "{what}: first valid frame");
        assert_eq!(odo.push(&bad).err(), err, "{what}: odometer, mid-stream");
        assert!(odo.push(f1).unwrap().is_some(), "{what}: next valid frame must register");
        assert!(odo.push(f2).unwrap().is_some(), "{what}: the stream must go on");
    }
}

#[test]
fn non_finite_frames_leave_the_mapper_unchanged() {
    let seq = circuit();
    for (what, bad) in non_finite_copies(seq.frame(1)) {
        let err = Some(RegistrationError::NonFinitePoint);
        let mut mapper = Mapper::new(MapperConfig::serving());
        assert_eq!(mapper.push(&bad).err(), err, "{what}: mapper, first frame");
        assert!(mapper.poses().is_empty(), "{what}: a rejected first frame adds no node");
        mapper.push(seq.frame(0)).unwrap();
        assert_eq!(mapper.push(&bad).err(), err, "{what}: mapper, mid-stream");
        assert_eq!(mapper.poses().len(), 1, "{what}: a rejected frame adds no node");
        mapper.push(seq.frame(1)).unwrap();
        assert_eq!(mapper.poses().len(), 2, "{what}: next valid frame");
    }
}

#[test]
fn non_finite_frames_fail_typed_in_serving_sessions() {
    let seq = circuit();
    let mut mapper = Mapper::new(MapperConfig::serving());
    for i in 0..8 {
        mapper.push(seq.frame(i)).unwrap();
    }
    let epoch = EpochPublisher::new().publish(&mapper).unwrap();
    let service = ShardService::with_epoch(epoch, ShardConfig::default());
    let rejected = |r: Result<_, ServeError>| {
        matches!(r, Err(ServeError::Registration(RegistrationError::NonFinitePoint)))
    };
    for (what, bad) in non_finite_copies(seq.frame(2)) {
        let mut session = service.open_session().unwrap();
        assert!(rejected(session.localize(&bad)), "{what}: cold start");
        let step = session.localize(seq.frame(2)).unwrap();
        assert!(matches!(step.kind, StepKind::Relocalized(_)), "{what}: next valid cold start");
        assert!(rejected(session.localize(&bad)), "{what}: tracking");
        let step = session.localize(seq.frame(3)).unwrap();
        assert!(matches!(step.kind, StepKind::Tracked { .. }), "{what}: next valid frame tracks");
    }
}

/// A valid frame moved by `d` metres on every axis (sign-alternating) —
/// a bad GPS initialisation or a unit slip upstream.
fn offset_copy(frame: &PointCloud, d: f64) -> PointCloud {
    PointCloud::from_points(frame.points().iter().map(|&p| p + Vec3::new(d, -d, d)).collect())
}

#[test]
fn empty_and_far_offset_frames_fail_typed_in_the_mapper() {
    let seq = circuit();
    let (f0, f1, f2, f3) = (seq.frame(0), seq.frame(1), seq.frame(2), seq.frame(3));

    // An empty frame is refused before any state changes, first or
    // mid-stream, and the next valid frame carries on.
    let empty = PointCloud::new();
    let err = Some(RegistrationError::EmptyCloud);
    let mut mapper = Mapper::new(MapperConfig::serving());
    assert_eq!(mapper.push(&empty).err(), err, "empty first frame");
    assert!(mapper.poses().is_empty(), "a refused first frame adds no node");
    mapper.push(f0).unwrap();
    assert_eq!(mapper.push(&empty).err(), err, "empty frame mid-stream");
    assert_eq!(mapper.poses().len(), 1, "a refused frame adds no node");
    mapper.push(f1).unwrap();
    assert_eq!(mapper.poses().len(), 2, "next valid frame");

    for d in [1e9, 1e12] {
        let far = offset_copy(f1, d);
        // Mid-stream, a far frame prepares but cannot match: a typed
        // error, and the odometer keeps it as its reference (a tracking
        // break), so the next valid frame fails typed too and the one
        // after registers again.
        let mut mapper = Mapper::new(MapperConfig::serving());
        mapper.push(f0).unwrap();
        assert_eq!(mapper.push(&far).err(), Some(RegistrationError::IcpStarved), "{d}: mid-stream");
        assert_eq!(mapper.push(f1).err(), Some(RegistrationError::IcpStarved), "{d}: next frame");
        assert!(mapper.push(f2).is_ok(), "{d}: the stream recovers");
        assert!(mapper.push(f3).is_ok(), "{d}: and goes on");

        // As the first frame it is a legal map origin; the valid stream
        // that follows breaks once against it and then maps.
        let mut mapper = Mapper::new(MapperConfig::serving());
        assert!(mapper.push(&far).is_ok(), "{d}: first frame");
        assert_eq!(mapper.push(f0).err(), Some(RegistrationError::IcpStarved), "{d}: after it");
        assert!(mapper.push(f1).is_ok(), "{d}: the stream recovers");
    }
}

#[test]
fn empty_and_far_offset_frames_fail_typed_in_serving_sessions() {
    let seq = circuit();
    let mut mapper = Mapper::new(MapperConfig::serving());
    for i in 0..8 {
        mapper.push(seq.frame(i)).unwrap();
    }
    let epoch = EpochPublisher::new().publish(&mapper).unwrap();
    let service = ShardService::with_epoch(epoch, ShardConfig::default());

    // An empty frame is refused without touching the session: a tracking
    // session keeps tracking.
    let empty = PointCloud::new();
    let refused = |r: Result<_, ServeError>| {
        matches!(r, Err(ServeError::Registration(RegistrationError::EmptyCloud)))
    };
    let mut session = service.open_session().unwrap();
    assert!(refused(session.localize(&empty)), "empty cold start");
    let step = session.localize(seq.frame(2)).unwrap();
    assert!(matches!(step.kind, StepKind::Relocalized(_)), "next valid cold start");
    assert!(refused(session.localize(&empty)), "empty frame while tracking");
    let step = session.localize(seq.frame(3)).unwrap();
    assert!(matches!(step.kind, StepKind::Tracked { .. }), "tracking survives an empty frame");

    // A far frame matches nothing in the map: a typed relocalization
    // failure, cold or tracking, and the session serves the next valid
    // frame and tracks from there.
    for d in [1e9, 1e12] {
        let far = offset_copy(seq.frame(2), d);
        let lost =
            |r: Result<_, ServeError>| matches!(r, Err(ServeError::RelocalizationFailed { .. }));
        let mut session = service.open_session().unwrap();
        assert!(lost(session.localize(&far)), "{d}: cold start");
        let step = session.localize(seq.frame(2)).unwrap();
        assert!(matches!(step.kind, StepKind::Relocalized(_)), "{d}: next valid cold start");
        assert!(lost(session.localize(&far)), "{d}: while tracking");
        session.localize(seq.frame(3)).unwrap();
        let step = session.localize(seq.frame(4)).unwrap();
        assert!(matches!(step.kind, StepKind::Tracked { .. }), "{d}: tracking resumes");
    }
}

/// One invalid config per `ConfigError` variant, plus the two key-point
/// knobs that reach a deep panic, each with the error `validate` returns
/// for it.
fn invalid_configs(valid: &RegistrationConfig) -> Vec<(RegistrationConfig, ConfigError)> {
    let with = |f: fn(&mut RegistrationConfig)| {
        let mut cfg = valid.clone();
        f(&mut cfg);
        cfg
    };
    vec![
        (
            with(|c| c.normal_radius = -1.0),
            ConfigError::NonPositive { knob: "normal_radius", value: -1.0 },
        ),
        (with(|c| c.voxel_size = -1.0), ConfigError::Negative { knob: "voxel_size", value: -1.0 }),
        (
            with(|c| c.kpce_ratio = Some(2.0)),
            ConfigError::RatioOutOfRange { knob: "kpce_ratio", value: 2.0 },
        ),
        (
            with(|c| c.convergence = ConvergenceCriteria { max_iterations: 0, ..c.convergence }),
            ConfigError::ZeroCount { knob: "convergence.max_iterations" },
        ),
        (with(|c| c.normal_radius = f64::NAN), ConfigError::NotFinite { knob: "normal_radius" }),
        (
            with(|c| c.backend = SearchBackendConfig::Custom { name: "no-such-backend" }),
            ConfigError::UnknownBackend { name: "no-such-backend" },
        ),
        (
            with(|c| c.keypoint = KeypointAlgorithm::Iss { radius: -1.0 }),
            ConfigError::NonPositive { knob: "keypoint.radius", value: -1.0 },
        ),
        (
            with(|c| c.keypoint = KeypointAlgorithm::Uniform { voxel: 0.0 }),
            ConfigError::NonPositive { knob: "keypoint.voxel", value: 0.0 },
        ),
    ]
}

#[test]
fn invalid_configs_fail_typed_at_every_entry_point() {
    let seq = circuit();
    let (f0, f1) = (seq.frame(0), seq.frame(1));
    let valid = MapperConfig::serving().registration;
    let mut source = prepare_frame(f1, &valid).unwrap();
    let mut target = prepare_frame(f0, &valid).unwrap();
    for (cfg, want) in invalid_configs(&valid) {
        let what = want.to_string();
        assert_eq!(cfg.validate(), Err(want), "{what}: validate");
        let err = Some(RegistrationError::InvalidConfig(want));
        assert_eq!(prepare_frame(f0, &cfg).err(), err, "{what}: prepare_frame");
        assert_eq!(register(f1, f0, &cfg).err(), err, "{what}: register");

        // A bad matching config over frames prepared under a valid one.
        let matched = register_prepared(&mut source, &mut target, &cfg).err();
        assert_eq!(matched, err, "{what}: register_prepared");

        let mut odo = Odometer::new(cfg.clone());
        assert_eq!(odo.push(f0).err(), err, "{what}: odometer, first frame");
        assert_eq!(odo.push(f1).err(), err, "{what}: odometer, second frame");
        assert_eq!(odo.frames_processed(), 0, "{what}: a rejected frame is not processed");

        let mut mapper = Mapper::new(MapperConfig { registration: cfg, ..MapperConfig::serving() });
        let stats = mapper.stats();
        assert_eq!(mapper.push(f0).err(), err, "{what}: mapper");
        assert_eq!(mapper.stats(), stats, "{what}: a rejected frame counts nothing");
        assert!(mapper.poses().is_empty(), "{what}: a rejected frame adds no node");
    }
    // The rejected matches billed nothing: the first valid one bills both
    // preparations.
    let result = register_prepared(&mut source, &mut target, &valid).unwrap();
    assert_eq!(result.profile.frames_prepared, 2);
}
