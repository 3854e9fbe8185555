//! Sequential LiDAR odometry on top of pairwise registration — the paper's
//! primary motivating application (Sec. 2.2: "a mobile robot estimates its
//! real-time position and orientation (a.k.a., odometry) by aligning two
//! consecutive frames").
//!
//! The [`Odometer`] consumes frames one at a time, registers each against
//! its predecessor, and chains the relative transforms into world poses.
//! A constant-velocity *motion prior* seeds each registration's fine-tuning
//! with the previous inter-frame motion — the standard odometry trick that
//! both accelerates ICP convergence and suppresses symmetric-scene
//! mismatches.
//!
//! Streaming is where the pipeline's prepare/match split pays off: every
//! frame is first a registration *source* and one step later the
//! *target*, so the odometer runs [`prepare_frame`](crate::prepare_frame) exactly once per
//! frame and hands the [`PreparedFrame`] forward — normals, key-points,
//! descriptors and the KD-tree are all computed once, and each step pays
//! only one frame preparation plus the pairwise match
//! (`profile.frames_reused` counts the savings).

use tigris_geom::{PointCloud, RigidTransform};

use crate::config::RegistrationConfig;
use crate::pipeline::{
    prepare_frame_with, register_prepared_with_prior, PreparedFrame, RegistrationError,
    RegistrationResult,
};
use crate::scratch::PrepareScratch;

/// Per-frame odometry output.
#[derive(Debug, Clone)]
pub struct OdometryStep {
    /// Relative transform mapping this frame into the previous frame.
    pub relative: RigidTransform,
    /// Accumulated world pose of this frame.
    pub pose: RigidTransform,
    /// The underlying registration result.
    pub registration: RegistrationResult,
}

/// Sequential odometer.
///
/// # Example
///
/// ```no_run
/// use tigris_data::{Sequence, SequenceConfig};
/// use tigris_pipeline::odometry::Odometer;
/// use tigris_pipeline::RegistrationConfig;
///
/// let seq = Sequence::generate(&SequenceConfig::tiny(), 1);
/// let mut odo = Odometer::new(RegistrationConfig::default());
/// for i in 0..seq.len() {
///     if let Some(step) = odo.push(seq.frame(i)).unwrap() {
///         println!("frame {i}: pose {}", step.pose);
///     }
/// }
/// ```
#[derive(Debug)]
pub struct Odometer {
    config: RegistrationConfig,
    /// The previous frame's full preparation (downsampled points, index,
    /// normals, key-points, descriptors) — reused as the target of the
    /// next registration so each frame's entire front end runs exactly
    /// once.
    prev: Option<PreparedFrame>,
    pose: RigidTransform,
    /// Constant-velocity prior: the last estimated relative motion.
    velocity: Option<RigidTransform>,
    frames_processed: usize,
    /// Front-end working buffers, reused across every streamed frame so
    /// steady-state preparation allocates nothing transient.
    scratch: PrepareScratch,
}

impl Odometer {
    /// Creates an odometer with the given registration configuration.
    pub fn new(config: RegistrationConfig) -> Self {
        Odometer {
            config,
            prev: None,
            pose: RigidTransform::IDENTITY,
            velocity: None,
            frames_processed: 0,
            scratch: PrepareScratch::new(),
        }
    }

    /// Current accumulated world pose (identity until the first frame).
    pub fn pose(&self) -> &RigidTransform {
        &self.pose
    }

    /// Frames consumed so far.
    pub fn frames_processed(&self) -> usize {
        self.frames_processed
    }

    /// The configuration in use.
    pub fn config(&self) -> &RegistrationConfig {
        &self.config
    }

    /// The retained reference frame — the preparation of the most recently
    /// pushed frame, which the *next* push will register against. `None`
    /// before the first successful preparation.
    ///
    /// Consumers layered on top of the odometer (the mapping subsystem's
    /// `Mapper`) read the current frame's points, descriptors and key-points
    /// from here instead of re-running any front-end stage.
    pub fn reference_frame(&self) -> Option<&PreparedFrame> {
        self.prev.as_ref()
    }

    /// Mutable access to the retained reference frame, for layered
    /// consumers that need to *match against* it (loop-closure
    /// verification registers the current frame against a stored keyframe
    /// via `register_prepared`, which meters both searchers).
    pub fn reference_frame_mut(&mut self) -> Option<&mut PreparedFrame> {
        self.prev.as_mut()
    }

    /// Consumes the next frame. Returns `Ok(None)` for the very first frame
    /// (nothing to register against) and `Ok(Some(step))` afterwards.
    ///
    /// The frame is prepared exactly once (front end + index build) and
    /// kept as the target of the *next* push; only the pairwise-matching
    /// layer runs against the previous frame's retained preparation.
    ///
    /// The constant-velocity prior is passed straight to the matching
    /// layer: when the previous step estimated motion `v`, the
    /// initial-estimate gates tighten to `v`'s magnitude plus
    /// [`crate::pipeline::PRIOR_TRANSLATION_SLACK`] /
    /// [`crate::pipeline::PRIOR_ROTATION_SLACK`], discarding front-end
    /// estimates that disagree wildly with the expected motion.
    ///
    /// # Errors
    ///
    /// Propagates [`RegistrationError`] from frame preparation or pairwise
    /// matching, including [`RegistrationError::InvalidConfig`] for a
    /// config that fails [`RegistrationConfig::validate`] or names an
    /// unresolvable `Custom` backend. A frame that fails to prepare is
    /// *not* counted in [`Odometer::frames_processed`]. When a prepared
    /// frame fails to *match* its predecessor, the new frame replaces the
    /// predecessor as the reference (so the stream keeps going, minus the
    /// failed pair's motion) and the velocity prior resets. A reference
    /// frame discarded this way without ever matching successfully keeps
    /// its preparation cost out of every result profile, so summed
    /// `frames_prepared` counts only hold exactly on failure-free
    /// streams.
    pub fn push(&mut self, frame: &PointCloud) -> Result<Option<OdometryStep>, RegistrationError> {
        self.push_retiring(frame).map(|(step, _retired)| step)
    }

    /// [`Odometer::push`], additionally handing back the *retired*
    /// reference frame — the preparation the new frame displaced, whose
    /// full front end (points, normals, key-points, descriptors, index)
    /// remains valid and reusable.
    ///
    /// This is the hand-off the mapping subsystem builds on: each streamed
    /// frame is prepared exactly once, serves as the odometer's reference
    /// for one step, and is then surrendered to the caller (e.g. stored as
    /// a submap keyframe for loop-closure verification) instead of being
    /// dropped. The retired slot is `None` for the first frame (nothing
    /// displaced) and on errors (a failed *match* keeps the old reference
    /// handling of [`Odometer::push`]: the freshly prepared frame replaces
    /// it, and the displaced frame is dropped with the error).
    ///
    /// # Errors
    ///
    /// As [`Odometer::push`].
    pub fn push_retiring(
        &mut self,
        frame: &PointCloud,
    ) -> Result<(Option<OdometryStep>, Option<PreparedFrame>), RegistrationError> {
        let mut source = prepare_frame_with(frame, &self.config, &mut self.scratch)?;
        // Count the frame only once it actually prepared — an empty or
        // backend-less frame must not inflate the processed tally.
        self.frames_processed += 1;
        let Some(mut target) = self.prev.take() else {
            self.prev = Some(source);
            return Ok((None, None));
        };

        let matched = register_prepared_with_prior(
            &mut source,
            &mut target,
            &self.config,
            self.velocity.as_ref(),
        );
        let result = match matched {
            Ok(result) => result,
            Err(err) => {
                // The pair failed to match (e.g. starved on a degraded
                // frame), but the new frame prepared fine — keep it as
                // the reference so the stream continues instead of
                // silently resetting. The failed pair's motion is simply
                // absent from the pose chain, and the now-unreliable
                // velocity prior is dropped.
                self.prev = Some(source);
                self.velocity = None;
                return Err(err);
            }
        };

        self.velocity = Some(result.transform);
        self.pose = self.pose * result.transform;
        self.prev = Some(source);
        Ok((
            Some(OdometryStep {
                relative: result.transform,
                pose: self.pose,
                registration: result,
            }),
            Some(target),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigris_geom::Vec3;

    /// A structured scene cloud reused across "frames" with known motion.
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
        // Clutter for distinctiveness.
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

    fn fast_config() -> RegistrationConfig {
        RegistrationConfig {
            voxel_size: 0.0,
            keypoint: crate::config::KeypointAlgorithm::Uniform { voxel: 0.9 },
            max_correspondence_distance: 1.0,
            ..RegistrationConfig::default()
        }
    }

    #[test]
    fn first_frame_yields_no_step() {
        let mut odo = Odometer::new(fast_config());
        let out = odo.push(&scene_cloud()).unwrap();
        assert!(out.is_none());
        assert_eq!(odo.frames_processed(), 1);
        assert!(odo.pose().is_identity(0.0));
    }

    #[test]
    fn tracks_constant_motion() {
        // The sensor moves backwards relative to the (static) scene, so each
        // frame sees the scene shifted by -delta.
        let world = scene_cloud();
        let delta = RigidTransform::from_translation(Vec3::new(0.05, 0.02, 0.0));
        let mut odo = Odometer::new(fast_config());
        let mut expected = RigidTransform::IDENTITY;
        let mut last_pose = RigidTransform::IDENTITY;
        for _ in 0..4 {
            // Frame i = world seen from pose delta^i: cloud = (delta^i)^-1(world).
            let frame = world.transformed(&expected.inverse());
            if let Some(step) = odo.push(&frame).unwrap() {
                last_pose = step.pose;
            }
            expected = expected * delta;
        }
        // After 4 frames the pose should approximate delta^3.
        let gt = RigidTransform::from_translation(Vec3::new(0.15, 0.06, 0.0));
        assert!(
            (last_pose.translation - gt.translation).norm() < 0.05,
            "pose {} vs gt {}",
            last_pose.translation,
            gt.translation
        );
    }

    #[test]
    fn velocity_prior_engages_after_first_pair() {
        let world = scene_cloud();
        let delta = RigidTransform::from_translation(Vec3::new(0.06, 0.0, 0.0));
        let mut odo = Odometer::new(fast_config());
        odo.push(&world).unwrap();
        let s1 = odo.push(&world.transformed(&delta.inverse())).unwrap().unwrap();
        assert!(odo.velocity.is_some());
        // Second pair: the prior is available and convergence is at least
        // as fast.
        let two = world.transformed(&(delta * delta).inverse());
        let s2 = odo.push(&two).unwrap().unwrap();
        assert!(s2.registration.icp_iterations <= s1.registration.icp_iterations + 2);
    }

    #[test]
    fn odometer_runs_on_the_brute_force_oracle() {
        let world = scene_cloud();
        let mut cfg = fast_config();
        cfg.backend = crate::config::SearchBackendConfig::BruteForce;
        let delta = RigidTransform::from_translation(Vec3::new(0.05, 0.0, 0.0));
        let mut odo = Odometer::new(cfg);
        odo.push(&world).unwrap();
        let step = odo.push(&world.transformed(&delta.inverse())).unwrap().unwrap();
        assert!(
            (step.relative.translation - delta.translation).norm() < 0.05,
            "oracle odometry drifted: {}",
            step.relative.translation
        );
    }

    #[test]
    fn kd_trees_are_built_once_per_frame() {
        let world = scene_cloud();
        let mut odo = Odometer::new(fast_config());
        odo.push(&world).unwrap();
        let step = odo
            .push(&world.transformed(
                &RigidTransform::from_translation(Vec3::new(0.05, 0.0, 0.0)).inverse(),
            ))
            .unwrap()
            .unwrap();
        // The pair's profile contains exactly the two trees' build time
        // (smoke check: nonzero but sane).
        assert!(step.registration.profile.kd_build_time > std::time::Duration::ZERO);
    }

    #[test]
    fn failed_frames_are_not_counted_as_processed() {
        let mut odo = Odometer::new(fast_config());
        assert_eq!(odo.push(&PointCloud::new()).unwrap_err(), RegistrationError::EmptyCloud);
        assert_eq!(odo.frames_processed(), 0);
        // A good frame afterwards is counted normally.
        odo.push(&scene_cloud()).unwrap();
        assert_eq!(odo.frames_processed(), 1);
    }

    #[test]
    fn matching_failure_keeps_the_new_frame_as_reference() {
        let world = scene_cloud();
        let mut odo = Odometer::new(fast_config());
        odo.push(&world).unwrap();
        // A translated copy 500 m away: descriptors match, but the gated
        // initial estimate collapses to identity and RPCE finds nothing
        // within range → the pair starves.
        let far = world.transformed(&RigidTransform::from_translation(Vec3::new(500.0, 0.0, 0.0)));
        assert_eq!(odo.push(&far).unwrap_err(), RegistrationError::IcpStarved);
        // The frame prepared fine, so it counts — and becomes the new
        // reference instead of silently resetting the stream.
        assert_eq!(odo.frames_processed(), 2);
        let delta = RigidTransform::from_translation(Vec3::new(0.05, 0.0, 0.0));
        let step = odo
            .push(&far.transformed(&delta.inverse()))
            .unwrap()
            .expect("the push after a failed pair must register against the retained frame");
        assert!(
            (step.relative.translation - delta.translation).norm() < 0.05,
            "relative {} vs {}",
            step.relative.translation,
            delta.translation
        );
        // The retained frame's preparation was still unbilled (its first
        // match failed), so this pair bills both preparations.
        assert_eq!(step.registration.profile.frames_prepared, 2);
    }

    #[test]
    fn push_retiring_hands_back_the_displaced_preparation() {
        let world = scene_cloud();
        let delta = RigidTransform::from_translation(Vec3::new(0.05, 0.0, 0.0));
        let mut odo = Odometer::new(fast_config());
        assert!(odo.reference_frame().is_none());
        // First frame: nothing displaced, reference retained.
        let (step, retired) = odo.push_retiring(&world).unwrap();
        assert!(step.is_none() && retired.is_none());
        let ref_len = odo.reference_frame().unwrap().len();
        assert!(ref_len > 0);
        // Second frame: the first frame's preparation is retired intact
        // and already billed to the pair's result.
        let (step, retired) = odo.push_retiring(&world.transformed(&delta.inverse())).unwrap();
        assert!(step.is_some());
        let retired = retired.expect("the first frame must be retired");
        assert_eq!(retired.len(), ref_len);
        assert!(!retired.descriptors().is_empty());
        // The new reference is the just-pushed frame, mutably reachable.
        assert!(odo.reference_frame_mut().is_some());
    }

    #[test]
    fn streamed_frames_prepare_once_and_reuse_afterwards() {
        let world = scene_cloud();
        let delta = RigidTransform::from_translation(Vec3::new(0.04, 0.01, 0.0));
        let mut odo = Odometer::new(fast_config());
        let mut motion = RigidTransform::IDENTITY;
        let mut prepared = 0;
        let mut reused = 0;
        let frames = 5;
        for i in 0..frames {
            if let Some(step) = odo.push(&world.transformed(&motion.inverse())).unwrap() {
                let p = &step.registration.profile;
                if i == 1 {
                    // First pair bills both frames' preparations.
                    assert_eq!(p.frames_prepared, 2, "step {i}");
                    assert_eq!(p.frames_reused, 0, "step {i}");
                } else {
                    // Later steps prepare the new frame and reuse the old.
                    assert_eq!(p.frames_prepared, 1, "step {i}");
                    assert_eq!(p.frames_reused, 1, "step {i}");
                    assert!(p.prepare_time > std::time::Duration::ZERO);
                }
                assert!(p.match_time > std::time::Duration::ZERO);
                prepared += p.frames_prepared;
                reused += p.frames_reused;
            }
            motion = motion * delta;
        }
        // Across the whole run: every frame's front end ran exactly once,
        // and every interior frame served a second registration for free.
        assert_eq!(prepared, frames);
        assert_eq!(reused, frames - 2);
    }

    #[test]
    fn steady_state_preparation_is_allocation_free() {
        // The odometer owns one PrepareScratch across all frames: once the
        // buffers warmed up on the first frames, later preparations must
        // complete without growing anything.
        let world = scene_cloud();
        let delta = RigidTransform::from_translation(Vec3::new(0.04, 0.01, 0.0));
        let mut odo = Odometer::new(fast_config());
        let mut motion = RigidTransform::IDENTITY;
        let mut last = None;
        for _ in 0..5 {
            if let Some(step) = odo.push(&world.transformed(&motion.inverse())).unwrap() {
                last = Some(step);
            }
            motion = motion * delta;
        }
        let p = &last.unwrap().registration.profile;
        assert_eq!(p.scratch_bytes_grown, 0, "warm frames must not grow the scratch");
        assert_eq!(p.scratch_reuses, 1, "the warm preparation must count as a scratch reuse");
    }
}
