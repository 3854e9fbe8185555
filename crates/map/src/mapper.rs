//! The incremental mapper: streaming odometry → submaps → loop closure →
//! pose-graph optimization.
//!
//! [`Mapper::push`] is the single entry point. Per frame it:
//!
//! 1. advances the wrapped [`Odometer`] (which prepares the frame's front
//!    end exactly once and hands the *previous* frame's preparation back
//!    via [`Odometer::push_retiring`]);
//! 2. extends the trajectory (corrected and raw-odometry pose chains) and
//!    the pose graph's odometry edges;
//! 3. aggregates the frame's prepared points into the current [`Submap`]
//!    (spawning a new one by travel distance / point budget);
//! 4. attempts loop closure via the shared [`crate::retrieval`] machinery:
//!    descriptor retrieval over past submaps' signatures
//!    ([`SignatureIndex`]), geometric verification
//!    ([`retrieval::verify_geometry`]) against the candidate's keyframe,
//!    and — on acceptance — Gauss–Newton pose-graph optimization that
//!    redistributes the accumulated drift.

use std::sync::Arc;
use std::time::Instant;

use tigris_geom::{OptimizeReport, PointCloud, PoseGraph, PoseGraphEdge, RigidTransform, Vec3};
use tigris_obs::{Counter, Histogram, Registry};
use tigris_pipeline::{Odometer, RegistrationError, RegistrationResult};

use crate::config::MapperConfig;
use crate::retrieval::{self, SignatureIndex};
use crate::submap::{descriptor_mean, sort_map_neighbors, MapNeighbor, Submap};

/// Weight of the weak continuity edge bridging a matching failure: keeps
/// the pose graph connected without pretending the unmeasured motion is a
/// real constraint.
const BREAK_EDGE_WEIGHT: f64 = 1e-3;

/// An accepted, verified loop closure.
#[derive(Debug, Clone, Copy)]
pub struct LoopClosure {
    /// The frame that closed the loop (the current frame at detection).
    pub frame: usize,
    /// The past keyframe it closed against (a submap anchor).
    pub matched_frame: usize,
    /// The submap the keyframe anchors.
    pub submap: usize,
    /// Verified relative transform: the keyframe-frame coordinates of the
    /// closing frame (`T_kf⁻¹ · T_frame`), straight from
    /// `register_prepared`.
    pub relative: RigidTransform,
    /// KPCE correspondences surviving rejection in the verification.
    pub inliers: usize,
    /// What the pose-graph optimization this closure triggered did.
    pub report: OptimizeReport,
}

/// Counters over a mapper's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapperStats {
    /// Frames accepted into the trajectory (including break frames).
    pub frames: usize,
    /// Odometry steps (successful pairwise matches).
    pub steps: usize,
    /// Front-end preparations billed across all registrations (odometry
    /// *and* closure verifications). On a failure-free stream this equals
    /// [`MapperStats::frames`]: every frame's front end ran exactly once.
    pub frames_prepared: usize,
    /// Registrations served by an already-prepared frame.
    pub frames_reused: usize,
    /// Geometric verifications attempted.
    pub closures_attempted: usize,
    /// Closures accepted (each triggered one optimization).
    pub closures_accepted: usize,
    /// Pose-graph optimizations run.
    pub optimizations: usize,
    /// Matching failures bridged with a weak continuity edge.
    pub breaks: usize,
}

/// The mapper's lifetime counters as handles into its per-mapper obs
/// [`Registry`] (`map.*` names): the registry is the single backing
/// store, and [`Mapper::stats`] snapshots a [`MapperStats`] from it.
#[derive(Debug)]
struct MapMetrics {
    registry: Arc<Registry>,
    /// Wall time of each [`Mapper::push`] in microseconds — the
    /// mapper-side latency distribution the SLO engine and ops exporter
    /// watch (`map.frame_us`).
    frame_us: Arc<Histogram>,
    frames: Arc<Counter>,
    steps: Arc<Counter>,
    frames_prepared: Arc<Counter>,
    frames_reused: Arc<Counter>,
    closures_attempted: Arc<Counter>,
    closures_accepted: Arc<Counter>,
    optimizations: Arc<Counter>,
    breaks: Arc<Counter>,
}

impl MapMetrics {
    fn new() -> Self {
        let registry = Arc::new(Registry::new());
        MapMetrics {
            frame_us: registry.histogram("map.frame_us"),
            frames: registry.counter("map.frames"),
            steps: registry.counter("map.steps"),
            frames_prepared: registry.counter("map.frames_prepared"),
            frames_reused: registry.counter("map.frames_reused"),
            closures_attempted: registry.counter("map.closures_attempted"),
            closures_accepted: registry.counter("map.closures_accepted"),
            optimizations: registry.counter("map.optimizations"),
            breaks: registry.counter("map.breaks"),
            registry,
        }
    }

    fn snapshot(&self) -> MapperStats {
        MapperStats {
            frames: self.frames.get() as usize,
            steps: self.steps.get() as usize,
            frames_prepared: self.frames_prepared.get() as usize,
            frames_reused: self.frames_reused.get() as usize,
            closures_attempted: self.closures_attempted.get() as usize,
            closures_accepted: self.closures_accepted.get() as usize,
            optimizations: self.optimizations.get() as usize,
            breaks: self.breaks.get() as usize,
        }
    }
}

/// What one [`Mapper::push`] did.
#[derive(Debug, Clone, Copy)]
pub struct MapperStep {
    /// Trajectory index of the pushed frame.
    pub frame: usize,
    /// Corrected world pose (post-optimization if a closure fired).
    pub pose: RigidTransform,
    /// Raw odometry world pose (never optimized) — the drift baseline.
    pub raw_pose: RigidTransform,
    /// Id of the submap the frame was aggregated into.
    pub submap: usize,
    /// Whether this frame spawned (and anchors) a new submap.
    pub spawned_submap: bool,
    /// The loop closure this frame produced, if any.
    pub closure: Option<LoopClosure>,
}

/// The incremental mapping service; see the [module docs](self).
#[derive(Debug)]
pub struct Mapper {
    config: MapperConfig,
    odometer: Odometer,
    submaps: Vec<Submap>,
    current_submap: usize,
    /// Corrected world pose per trajectory frame (pose-graph nodes).
    poses: Vec<RigidTransform>,
    /// Raw odometry chain, for drift comparison.
    raw_poses: Vec<RigidTransform>,
    /// Cumulative odometry distance per frame (meters) — scales the
    /// loop-closure deviation allowance with how far drift accumulated.
    travel: Vec<f64>,
    /// All pose-graph constraint edges (odometry, break bridges, loops).
    edges: Vec<PoseGraphEdge>,
    closures: Vec<LoopClosure>,
    metrics: MapMetrics,
    /// Submap whose anchor is the odometer's current reference frame;
    /// its preparation is stored as the keyframe when it retires.
    pending_keyframe: Option<usize>,
    last_closure_frame: Option<usize>,
}

impl Mapper {
    /// A fresh mapper over the given configuration.
    pub fn new(config: MapperConfig) -> Self {
        tigris_obs::init_from_env();
        let odometer = Odometer::new(config.registration.clone());
        let metrics = MapMetrics::new();
        tigris_obs::ops::register_service("map", &metrics.registry, None);
        Mapper {
            config,
            odometer,
            submaps: Vec::new(),
            current_submap: 0,
            poses: Vec::new(),
            raw_poses: Vec::new(),
            travel: Vec::new(),
            edges: Vec::new(),
            closures: Vec::new(),
            metrics,
            pending_keyframe: None,
            last_closure_frame: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// Corrected world pose per trajectory frame.
    pub fn poses(&self) -> &[RigidTransform] {
        &self.poses
    }

    /// Raw odometry world pose per trajectory frame (drift baseline).
    pub fn raw_poses(&self) -> &[RigidTransform] {
        &self.raw_poses
    }

    /// The submaps built so far.
    pub fn submaps(&self) -> &[Submap] {
        &self.submaps
    }

    /// Every accepted loop closure, in order.
    pub fn closures(&self) -> &[LoopClosure] {
        &self.closures
    }

    /// Lifetime counters, snapshotted from the mapper's metrics registry.
    pub fn stats(&self) -> MapperStats {
        self.metrics.snapshot()
    }

    /// This mapper's obs metrics registry: every lifetime counter under
    /// `map.*` names — the backing store [`Mapper::stats`] snapshots
    /// from. Exporters read it without touching the mapper.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.metrics.registry
    }

    /// Total points aggregated across all submaps.
    pub fn total_points(&self) -> usize {
        self.submaps.iter().map(Submap::len).sum()
    }

    /// Consumes one LiDAR frame (sensor coordinates).
    ///
    /// # Errors
    ///
    /// Propagates [`RegistrationError`] from the wrapped odometer. A frame
    /// that fails to *prepare* leaves the mapper unchanged; a frame that
    /// prepares but fails to *match* becomes a trajectory node at the last
    /// corrected pose, bridged by a weak continuity edge (its points are
    /// not aggregated — the pose is a guess, not a measurement).
    pub fn push(&mut self, frame: &PointCloud) -> Result<MapperStep, RegistrationError> {
        let _span =
            tigris_obs::span!("map.insert_frame", frame = self.poses.len(), points = frame.len());
        let t0 = Instant::now();
        let processed_before = self.odometer.frames_processed();
        let result = match self.odometer.push_retiring(frame) {
            Err(err) => {
                if self.odometer.frames_processed() > processed_before {
                    // Prepared fine, failed to match: the odometer kept
                    // the new frame as its reference; bridge the gap.
                    self.handle_break();
                }
                Err(err)
            }
            Ok((None, _)) => Ok(self.accept_first_frame()),
            Ok((Some(step), retired)) => {
                // The displaced reference retires into the map layer: if
                // it anchors a submap, it becomes that submap's keyframe.
                if let (Some(prep), Some(submap)) = (retired, self.pending_keyframe.take()) {
                    self.submaps[submap].set_keyframe(prep);
                }
                Ok(self.accept_step(&step.relative, &step.registration))
            }
        };
        self.metrics.frame_us.record(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
        result
    }

    /// All map points within `radius` of the world-frame `point`, fanned
    /// out across every submap whose bounds the query sphere overlaps.
    /// Results are sorted ascending by `(distance, submap, index)`;
    /// regions covered by several submaps may return near-duplicates (one
    /// per covering submap).
    pub fn query(&self, point: Vec3, radius: f64) -> Vec<MapNeighbor> {
        let mut out: Vec<MapNeighbor> = Vec::new();
        for submap in &self.submaps {
            out.extend(submap.query(point, radius));
        }
        sort_map_neighbors(&mut out);
        out
    }

    /// The drift-corrected global cloud: every submap's points under its
    /// current anchor pose. Callers wanting compactness can
    /// `voxel_downsample` the result.
    pub fn global_cloud(&self) -> PointCloud {
        let mut cloud = PointCloud::new();
        for submap in &self.submaps {
            cloud.extend(submap.world_points());
        }
        cloud
    }

    // ---- Per-frame internals ---------------------------------------------

    fn accept_first_frame(&mut self) -> MapperStep {
        debug_assert!(self.poses.is_empty(), "first odometer frame but mapper has nodes");
        self.poses.push(RigidTransform::IDENTITY);
        self.raw_poses.push(RigidTransform::IDENTITY);
        self.travel.push(0.0);
        self.metrics.frames.inc();
        self.spawn_submap(0);
        self.aggregate_frame(0);
        MapperStep {
            frame: 0,
            pose: RigidTransform::IDENTITY,
            raw_pose: RigidTransform::IDENTITY,
            submap: self.current_submap,
            spawned_submap: true,
            closure: None,
        }
    }

    fn accept_step(
        &mut self,
        relative: &RigidTransform,
        registration: &RegistrationResult,
    ) -> MapperStep {
        let frame = self.poses.len();
        let pose = *self.poses.last().unwrap() * *relative;
        let raw_pose = *self.raw_poses.last().unwrap() * *relative;
        self.poses.push(pose);
        self.raw_poses.push(raw_pose);
        self.travel.push(self.travel.last().unwrap() + relative.translation_norm());
        self.edges.push(PoseGraphEdge::new(frame - 1, frame, *relative));
        self.metrics.frames.inc();
        self.metrics.steps.inc();
        self.metrics.frames_prepared.add(registration.profile.frames_prepared as u64);
        self.metrics.frames_reused.add(registration.profile.frames_reused as u64);

        let spawned = self.maybe_spawn_submap(frame, relative.translation_norm());
        self.aggregate_frame(frame);
        let closure = if self.config.closure.enabled { self.attempt_closure(frame) } else { None };

        MapperStep {
            frame,
            // Re-read: an accepted closure just optimized the graph.
            pose: self.poses[frame],
            raw_pose,
            submap: self.current_submap,
            spawned_submap: spawned,
            closure,
        }
    }

    /// Bridges a matching failure: the odometer's new reference frame gets
    /// a node at the last corrected pose, weakly tied to its predecessor
    /// so the graph stays connected. Its points are not aggregated.
    fn handle_break(&mut self) {
        // The displaced reference was dropped with the error; a keyframe
        // pending on it is lost.
        self.pending_keyframe = None;
        let frame = self.poses.len();
        let last = *self.poses.last().expect("a matching failure implies a previous frame");
        self.poses.push(last);
        let last_raw = *self.raw_poses.last().unwrap();
        self.raw_poses.push(last_raw);
        self.travel.push(*self.travel.last().unwrap());
        self.edges.push(PoseGraphEdge::weighted(
            frame - 1,
            frame,
            RigidTransform::IDENTITY,
            BREAK_EDGE_WEIGHT,
        ));
        self.metrics.frames.inc();
        self.metrics.breaks.inc();
        tigris_obs::event!("map.break", frame = frame);
    }

    fn spawn_submap(&mut self, frame: usize) {
        let id = self.submaps.len();
        self.submaps.push(Submap::new(
            id,
            frame,
            self.poses[frame],
            self.config.submap.fresh_capacity,
        ));
        self.current_submap = id;
        self.pending_keyframe = Some(id);
    }

    fn maybe_spawn_submap(&mut self, frame: usize, step_distance: f64) -> bool {
        let current = &mut self.submaps[self.current_submap];
        current.add_travel(step_distance);
        if current.travel() >= self.config.submap.spawn_distance
            || current.len() >= self.config.submap.point_budget
        {
            self.spawn_submap(frame);
            true
        } else {
            false
        }
    }

    /// Aggregates the odometer's current reference frame (the frame just
    /// pushed) into the current submap — points into the dynamic index,
    /// descriptors into the submap signature. No front-end stage runs:
    /// everything is read from the retained preparation.
    fn aggregate_frame(&mut self, frame: usize) {
        let prep = self
            .odometer
            .reference_frame()
            .expect("aggregate_frame runs right after a successful push");
        let submap = &mut self.submaps[self.current_submap];
        let local = submap.anchor_pose().inverse() * self.poses[frame];
        submap.insert_frame(frame, prep.points(), &local);
        submap.absorb_descriptors(prep.descriptors());
    }

    // ---- Loop closure -----------------------------------------------------

    /// Descriptor retrieval + geometric verification + (on acceptance)
    /// pose-graph optimization. Returns the accepted closure, if any.
    fn attempt_closure(&mut self, frame: usize) -> Option<LoopClosure> {
        let gate = self.config.closure;
        if gate.candidates == 0 {
            return None;
        }
        if let Some(last) = self.last_closure_frame {
            if frame.saturating_sub(last) < gate.cooldown_frames {
                return None;
            }
        }
        let _span = tigris_obs::span!("map.closure", frame = frame, candidates = gate.candidates);
        let query = descriptor_mean(self.odometer.reference_frame()?.descriptors())?;

        // Eligible past submaps: old enough, keyframe present, signature
        // comparable, and plausibly nearby even under drift.
        let eligible: Vec<usize> = self
            .submaps
            .iter()
            .filter(|s| {
                s.has_keyframe()
                    && self.current_submap.saturating_sub(s.id()) >= gate.min_submap_gap
                    && s.descriptor().len() == query.len()
                    && (self.poses[s.anchor_frame()].inverse() * self.poses[frame])
                        .translation_norm()
                        <= gate.max_expected_offset
            })
            .map(Submap::id)
            .collect();
        if eligible.is_empty() {
            return None;
        }

        // Rank candidates in the KPCE feature space: nearest submap
        // signatures to the current frame's mean descriptor (the shared
        // retrieval structure, rebuilt per attempt because eligibility is
        // pose- and recency-dependent).
        let feature_index = SignatureIndex::build(&self.submaps, &eligible, query.len());
        for hit in feature_index.retrieve(&query, gate.candidates, gate.max_descriptor_distance) {
            if let Some(closure) = self.verify_closure(frame, hit.submap) {
                return Some(closure);
            }
        }
        None
    }

    /// Registers the current frame against `submap_id`'s keyframe and
    /// accepts the closure when every geometric gate passes.
    fn verify_closure(&mut self, frame: usize, submap_id: usize) -> Option<LoopClosure> {
        self.metrics.closures_attempted.inc();
        let gate = self.config.closure;
        let anchor_frame = self.submaps[submap_id].anchor_frame();
        let expected = self.poses[anchor_frame].inverse() * self.poses[frame];

        let result = {
            // Clone the keyframe's Arc first so the submap borrow ends
            // before the odometer's reference frame is borrowed mutably;
            // the lock serializes against any serving epoch verifying
            // through the same shared preparation.
            let keyframe = self.submaps[submap_id].keyframe()?.clone();
            let current = self.odometer.reference_frame_mut()?;
            let mut keyframe = keyframe.lock().expect("keyframe lock poisoned");
            retrieval::verify_geometry(current, &mut keyframe, &self.config.registration)?
        };
        self.metrics.frames_prepared.add(result.profile.frames_prepared as u64);
        self.metrics.frames_reused.add(result.profile.frames_reused as u64);

        // Cheap scalar gates first: enough consensus, a physically-nearby
        // revisit, and agreement with the drift-estimated relative, whose
        // translation allowance grows with the travel separating the two
        // frames (drift compounds with distance).
        let deviation = expected.inverse() * result.transform;
        let travel_gap = self.travel[frame] - self.travel[anchor_frame];
        let translation_allowance = gate.max_deviation + gate.deviation_rate * travel_gap;
        let scalars_pass = result.inlier_correspondences >= gate.min_inliers
            && result.transform.translation_norm() <= gate.max_offset
            && deviation.translation_norm() <= translation_allowance;

        // Structure-overlap consistency: the decisive anti-aliasing gate,
        // and the expensive one (an NN query per elevated frame point) —
        // only computed for candidates the scalar gates let through.
        // Place the current frame into the submap's coordinates with the
        // *verified* transform and measure what fraction of its elevated
        // (non-ground) points land on stored structure. A genuine revisit
        // re-observes the same walls, poles and clutter, so the fraction
        // is high; a false match across self-similar structure (opposite
        // arcs of a ring road, mirrored corridors) aligns only the generic
        // ground/corridor geometry — away from the match center the walls
        // curve apart and the fraction collapses. Drift cannot fool this
        // gate: it compares geometry to geometry and never consults the
        // drifted poses.
        let overlap =
            if scalars_pass { self.closure_overlap(&result.transform, submap_id) } else { 0.0 };
        let pass = scalars_pass && overlap >= gate.min_structure_overlap;
        // The gate values as one structured event per verified candidate
        // (enable with TIGRIS_TRACE and read it in any exporter).
        tigris_obs::event!(
            "closure.candidate",
            frame = frame,
            submap = submap_id,
            inliers = result.inlier_correspondences,
            offset = result.transform.translation_norm(),
            deviation = deviation.translation_norm(),
            deviation_deg = deviation.rotation_angle().to_degrees(),
            overlap = overlap,
            overlap_checked = scalars_pass,
            pass = pass,
        );
        if !pass {
            return None;
        }

        // Accept: add the long-range edge and redistribute the drift.
        self.edges.push(PoseGraphEdge::new(anchor_frame, frame, result.transform));
        let report = self.optimize();
        let closure = LoopClosure {
            frame,
            matched_frame: anchor_frame,
            submap: submap_id,
            relative: result.transform,
            inliers: result.inlier_correspondences,
            report,
        };
        self.closures.push(closure);
        self.last_closure_frame = Some(frame);
        self.metrics.closures_accepted.inc();
        tigris_obs::event!(
            "closure.accept",
            frame = frame,
            submap = submap_id,
            anchor_frame = anchor_frame,
            inliers = result.inlier_correspondences,
            overlap = overlap,
        );
        Some(closure)
    }

    /// The structure-overlap fraction of the current frame against
    /// `submap_id` under the verified `relative` — see
    /// [`retrieval::structure_overlap_batched`] for the gate's semantics.
    fn closure_overlap(&self, relative: &RigidTransform, submap_id: usize) -> f64 {
        let Some(prep) = self.odometer.reference_frame() else {
            return 0.0;
        };
        retrieval::structure_overlap_batched(prep.points(), relative, &self.submaps[submap_id])
    }

    /// Runs Gauss–Newton over the whole trajectory and rebases every
    /// submap on its corrected anchor pose.
    fn optimize(&mut self) -> OptimizeReport {
        let _span =
            tigris_obs::span!("map.optimize", nodes = self.poses.len(), edges = self.edges.len(),);
        let mut graph = PoseGraph::new(self.poses.clone());
        for edge in &self.edges {
            graph.add_edge(*edge);
        }
        let report = graph.optimize(self.config.optimize_iterations);
        self.poses = graph.into_nodes();
        for submap in &mut self.submaps {
            let pose = self.poses[submap.anchor_frame()];
            submap.set_anchor_pose(pose);
        }
        self.metrics.optimizations.inc();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClosureConfig, SubmapConfig};
    use tigris_pipeline::config::KeypointAlgorithm;
    use tigris_pipeline::RegistrationConfig;

    /// The odometry test scene: structured, distinctive, cheap.
    fn scene_cloud() -> PointCloud {
        let mut pts = Vec::new();
        let step = 0.15;
        for i in 0..30 {
            for j in 0..30 {
                pts.push(Vec3::new(i as f64 * step, j as f64 * step, 0.0));
            }
        }
        for i in 0..30 {
            for k in 1..12 {
                pts.push(Vec3::new(i as f64 * step, 4.0, k as f64 * step));
            }
        }
        for j in 0..14 {
            for k in 1..12 {
                pts.push(Vec3::new(4.2, j as f64 * step, k as f64 * step));
            }
        }
        for i in 0..8 {
            for k in 0..5 {
                pts.push(Vec3::new(
                    1.0 + 0.1 * i as f64,
                    2.0 + 0.07 * k as f64,
                    0.4 + 0.1 * k as f64,
                ));
            }
        }
        PointCloud::from_points(pts)
    }

    fn fast_mapper_config() -> MapperConfig {
        MapperConfig {
            registration: RegistrationConfig {
                voxel_size: 0.0,
                keypoint: KeypointAlgorithm::Uniform { voxel: 0.9 },
                max_correspondence_distance: 1.0,
                ..RegistrationConfig::default()
            },
            submap: SubmapConfig { spawn_distance: 0.15, ..SubmapConfig::default() },
            closure: ClosureConfig { enabled: false, ..ClosureConfig::default() },
            optimize_iterations: 10,
        }
    }

    #[test]
    fn first_frame_founds_the_map() {
        let mut mapper = Mapper::new(fast_mapper_config());
        let step = mapper.push(&scene_cloud()).unwrap();
        assert_eq!(step.frame, 0);
        assert!(step.spawned_submap);
        assert!(step.pose.is_identity(0.0));
        assert_eq!(mapper.submaps().len(), 1);
        assert!(mapper.total_points() > 0);
        assert_eq!(mapper.stats().frames, 1);
        assert_eq!(mapper.stats().steps, 0);
        // Submap 0's keyframe arrives only when frame 0 retires.
        assert!(!mapper.submaps()[0].has_keyframe());
    }

    #[test]
    fn streaming_tracks_motion_and_spawns_submaps() {
        let world = scene_cloud();
        let delta = RigidTransform::from_translation(Vec3::new(0.06, 0.02, 0.0));
        let mut mapper = Mapper::new(fast_mapper_config());
        let mut motion = RigidTransform::IDENTITY;
        for _ in 0..4 {
            mapper.push(&world.transformed(&motion.inverse())).unwrap();
            motion = motion * delta;
        }
        assert_eq!(mapper.stats().frames, 4);
        assert_eq!(mapper.stats().steps, 3);
        // Every frame's front end ran exactly once.
        assert_eq!(mapper.stats().frames_prepared, 4);
        // Travel 0.063/step with a 0.15 m spawn distance: submaps spawn
        // along the way, and retired anchors become keyframes.
        assert!(mapper.submaps().len() >= 2, "{} submaps", mapper.submaps().len());
        assert!(mapper.submaps()[0].has_keyframe());
        // Pose tracks the accumulated motion.
        let end = mapper.poses().last().unwrap().translation;
        let expected = delta.translation * 3.0;
        assert!((end - expected).norm() < 0.05, "pose {end} vs {expected}");
        // Raw and corrected agree while no closure ran.
        assert_eq!(mapper.poses().len(), mapper.raw_poses().len());
        for (a, b) in mapper.poses().iter().zip(mapper.raw_poses()) {
            assert!((a.translation - b.translation).norm() < 1e-12);
        }
    }

    #[test]
    fn query_fans_out_across_submaps() {
        let world = scene_cloud();
        let delta = RigidTransform::from_translation(Vec3::new(0.08, 0.0, 0.0));
        let mut mapper = Mapper::new(fast_mapper_config());
        let mut motion = RigidTransform::IDENTITY;
        for _ in 0..3 {
            mapper.push(&world.transformed(&motion.inverse())).unwrap();
            motion = motion * delta;
        }
        assert!(mapper.submaps().len() >= 2);
        // A world point on the scene's ground plane is covered by every
        // submap (all frames see it): the query returns hits from several.
        let hits = mapper.query(Vec3::new(2.0, 2.0, 0.0), 0.5);
        assert!(!hits.is_empty());
        let distinct: std::collections::BTreeSet<usize> = hits.iter().map(|h| h.submap).collect();
        assert!(distinct.len() >= 2, "hits from {distinct:?}");
        // Sorted ascending by distance.
        for pair in hits.windows(2) {
            assert!(pair[0].distance_squared <= pair[1].distance_squared);
        }
        // Far away finds nothing.
        assert!(mapper.query(Vec3::new(1e4, 0.0, 0.0), 1.0).is_empty());
    }

    #[test]
    fn prepare_failure_leaves_the_mapper_unchanged() {
        let mut mapper = Mapper::new(fast_mapper_config());
        mapper.push(&scene_cloud()).unwrap();
        let before_frames = mapper.stats().frames;
        let err = mapper.push(&PointCloud::new()).unwrap_err();
        assert_eq!(err, RegistrationError::EmptyCloud);
        assert_eq!(mapper.stats().frames, before_frames);
        assert_eq!(mapper.poses().len(), before_frames);
        // The stream continues unharmed.
        let step = mapper
            .push(&scene_cloud().transformed(
                &RigidTransform::from_translation(Vec3::new(0.05, 0.0, 0.0)).inverse(),
            ))
            .unwrap();
        assert_eq!(step.frame, 1);
    }

    #[test]
    fn matching_failure_bridges_with_a_weak_edge() {
        let world = scene_cloud();
        let mut mapper = Mapper::new(fast_mapper_config());
        mapper.push(&world).unwrap();
        // 500 m away: prepares fine, starves in matching.
        let far = world.transformed(&RigidTransform::from_translation(Vec3::new(500.0, 0.0, 0.0)));
        assert_eq!(mapper.push(&far).unwrap_err(), RegistrationError::IcpStarved);
        assert_eq!(mapper.stats().breaks, 1);
        // The kept frame got a node at the last corrected pose.
        assert_eq!(mapper.poses().len(), 2);
        assert!(mapper.poses()[1].is_identity(1e-12));
        // The stream continues against the kept frame.
        let delta = RigidTransform::from_translation(Vec3::new(0.05, 0.0, 0.0));
        let step = mapper.push(&far.transformed(&delta.inverse())).unwrap();
        assert_eq!(step.frame, 2);
        assert_eq!(mapper.stats().steps, 1);
        assert!((step.pose.translation - delta.translation).norm() < 0.05);
        // Preparation accounting: frame 0's bill was dropped with its
        // discarded reference (it never matched successfully — the
        // odometer's documented failure semantics), so the successful
        // pair bills the kept frame and the new frame only.
        assert_eq!(mapper.stats().frames_prepared, 2);
    }

    #[test]
    fn closure_disabled_never_attempts() {
        let world = scene_cloud();
        let mut cfg = fast_mapper_config();
        cfg.closure.enabled = false;
        let mut mapper = Mapper::new(cfg);
        let delta = RigidTransform::from_translation(Vec3::new(0.05, 0.0, 0.0));
        let mut motion = RigidTransform::IDENTITY;
        for _ in 0..4 {
            mapper.push(&world.transformed(&motion.inverse())).unwrap();
            motion = motion * delta;
        }
        assert_eq!(mapper.stats().closures_attempted, 0);
        assert_eq!(mapper.stats().closures_accepted, 0);
        assert!(mapper.closures().is_empty());
    }

    #[test]
    fn global_cloud_covers_all_submaps() {
        let world = scene_cloud();
        let delta = RigidTransform::from_translation(Vec3::new(0.08, 0.0, 0.0));
        let mut mapper = Mapper::new(fast_mapper_config());
        let mut motion = RigidTransform::IDENTITY;
        for _ in 0..3 {
            mapper.push(&world.transformed(&motion.inverse())).unwrap();
            motion = motion * delta;
        }
        let cloud = mapper.global_cloud();
        assert_eq!(cloud.len(), mapper.total_points());
        assert!(cloud.len() >= mapper.submaps().iter().map(Submap::len).max().unwrap());
    }
}
