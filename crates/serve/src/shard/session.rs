//! A localization session: the serving state machine, pinned to one
//! epoch.

use std::sync::Arc;
use std::time::Instant;

use tigris_geom::{PointCloud, RigidTransform, Vec3};
use tigris_map::MapNeighbor;
use tigris_obs::sampler::RequestOutcome;
use tigris_pipeline::{
    prepare_frame_with, register_prepared_with_prior, PrepareScratch, PreparedFrame, Stage,
};

use super::epoch::SnapshotEpoch;
use super::service::{query_batch_view, query_view, EpochTarget, ShardCore};
use crate::error::ServeError;
use crate::reloc::relocalize_prepared;
use crate::session::{SessionPhase, SessionStep, StepKind};
use crate::stats::SessionStats;

/// Private tracking state (the `Tracking` variant owns the previous
/// frame's preparation, boxed — it carries a whole prepared frame).
enum TrackState {
    Cold,
    Tracking(Box<Tracking>),
}

/// The payload of a tracking session.
struct Tracking {
    prev: PreparedFrame,
    pose: RigidTransform,
    velocity: Option<RigidTransform>,
    failures: usize,
}

impl std::fmt::Debug for TrackState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrackState::Cold => write!(f, "Cold"),
            TrackState::Tracking(t) => {
                write!(f, "Tracking {{ pose: {}, failures: {} }}", t.pose, t.failures)
            }
        }
    }
}

/// One client's localization session against a [`super::ShardService`].
///
/// Runs the serving state machine (cold start → velocity-prior
/// tracking → loss budget → cold start; see [`crate::session`]) pinned
/// to the epoch that was current at admission: the session's answers
/// are those of that epoch however many newer epochs are installed
/// while it runs. Sessions are independent and `Send`: move each to its
/// own thread and localize concurrently. Dropping the session releases
/// its admission slot and its epoch pin.
#[derive(Debug)]
pub struct ShardSession {
    id: usize,
    epoch: Arc<SnapshotEpoch>,
    state: TrackState,
    stats: SessionStats,
    /// Front-end scratch reused across every frame this session
    /// prepares, so steady-state preparation allocates nothing.
    scratch: PrepareScratch,
    /// Declared after `epoch`: fields drop in declaration order, so the
    /// slot's release sweeps indexes once this session's pin is gone.
    core: Admitted,
}

/// A session's admission slot: released on drop.
#[derive(Debug)]
struct Admitted(Arc<ShardCore>);

impl Drop for Admitted {
    fn drop(&mut self) {
        self.0.release_session();
    }
}

impl ShardSession {
    pub(crate) fn new(id: usize, core: Arc<ShardCore>, epoch: Arc<SnapshotEpoch>) -> Self {
        ShardSession {
            id,
            epoch,
            state: TrackState::Cold,
            stats: SessionStats::default(),
            scratch: PrepareScratch::new(),
            core: Admitted(core),
        }
    }

    /// The session's service-assigned id (dense, in admission order).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Version of the epoch this session is pinned to.
    pub fn epoch_version(&self) -> u64 {
        self.epoch.version()
    }

    /// The session's current phase.
    pub fn phase(&self) -> SessionPhase {
        match self.state {
            TrackState::Cold => SessionPhase::ColdStart,
            TrackState::Tracking(_) => SessionPhase::Tracking,
        }
    }

    /// The current world-pose estimate (`None` while cold).
    pub fn pose(&self) -> Option<&RigidTransform> {
        match &self.state {
            TrackState::Cold => None,
            TrackState::Tracking(t) => Some(&t.pose),
        }
    }

    /// This session's lifetime counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Localizes one raw frame (sensor coordinates) against the pinned
    /// epoch: cold-start relocalization when the session has no pose
    /// (retrieval over the epoch, verification against shared
    /// keyframes, structure overlap through the candidate's index),
    /// velocity-prior tracking otherwise (tracking registers against the
    /// session's own previous frame and touches no map index at all).
    /// The frame's front end runs exactly once either way, and a
    /// successful frame's preparation is carried as the next step's
    /// tracking reference.
    ///
    /// # Errors
    ///
    /// [`ServeError::Saturated`] when the service's in-flight budget
    /// rejects the call (no work done);
    /// [`ServeError::Registration`] when the frame fails to prepare (the
    /// session state is unchanged) or a within-budget tracking loss
    /// occurred (the session keeps its previous reference);
    /// [`ServeError::RelocalizationFailed`] when a cold start (initial
    /// or after tracking loss) finds no verifiable pose — the session is
    /// cold afterwards.
    pub fn localize(&mut self, frame: &PointCloud) -> Result<SessionStep, ServeError> {
        self.core.0.begin_request()?;
        // The root of the request's trace tree: everything the frame
        // touches — preparation, relocalization gates, index loads,
        // tracking, map search — nests under this span; the pinned
        // epoch version rides along as a field.
        let _span = tigris_obs::span!(
            "serve.localize",
            session = self.id,
            points = frame.len(),
            epoch = self.epoch.version(),
        );
        let t0 = Instant::now();
        let before = self.stats;
        let result = self.step(frame);
        let delta = self.stats.delta_since(&before);
        let latency = t0.elapsed();
        self.core.0.finish_request(latency, delta);
        // Tail sampling runs after metering (so the percentile baseline
        // includes this request) and after the root span is closed (so
        // its End record is in the flight ring when the subtree is cut).
        let root = _span.id();
        drop(_span);
        let outcome =
            if result.is_err() { RequestOutcome::Failed } else { RequestOutcome::Completed };
        self.core.0.sampler.observe(root, latency, outcome, false);
        result
    }

    /// One state-machine step: prepare exactly once, then cold-start or
    /// track against the previous frame with the constant-velocity
    /// prior.
    fn step(&mut self, frame: &PointCloud) -> Result<SessionStep, ServeError> {
        // One preparation per admitted frame — the query front end —
        // through the session-owned scratch, so a warm session prepares
        // without transient allocation.
        let registration = self.epoch.registration_config();
        let mut prepared = prepare_frame_with(frame, registration, &mut self.scratch)?;
        let prof = prepared.prepare_profile();
        self.stats.normal_estimation_time += prof.time(Stage::NormalEstimation);
        self.stats.descriptor_time += prof.time(Stage::DescriptorCalculation);
        self.stats.prepare_scratch_bytes_grown += prof.scratch_bytes_grown;
        self.stats.prepare_scratch_reuses += prof.scratch_reuses;
        let index = self.stats.frames;
        self.stats.frames += 1;

        let TrackState::Tracking(mut tracking) =
            std::mem::replace(&mut self.state, TrackState::Cold)
        else {
            return self.cold_start(prepared, index);
        };
        let track_span = tigris_obs::span!("serve.track", frame = index);
        let matched = register_prepared_with_prior(
            &mut prepared,
            &mut tracking.prev,
            registration,
            tracking.velocity.as_ref(),
        );
        drop(track_span);
        match matched {
            Ok(result) => {
                let new_pose = tracking.pose * result.transform;
                self.stats.frames_tracked += 1;
                self.state = TrackState::Tracking(Box::new(Tracking {
                    prev: prepared,
                    pose: new_pose,
                    velocity: Some(result.transform),
                    failures: 0,
                }));
                Ok(SessionStep {
                    frame: index,
                    pose: new_pose,
                    kind: StepKind::Tracked {
                        relative: result.transform,
                        inliers: result.inlier_correspondences,
                        icp_iterations: result.icp_iterations,
                    },
                })
            }
            Err(err) => {
                self.stats.track_breaks += 1;
                if tracking.failures < self.core.0.config.serve.max_track_failures {
                    // Within the loss budget: keep the old reference and
                    // pose, drop the failed frame, surface the loss typed.
                    tracking.velocity = None;
                    tracking.failures += 1;
                    self.state = TrackState::Tracking(tracking);
                    Err(ServeError::Registration(err))
                } else {
                    // Beyond the budget: the pose estimate is gone — fall
                    // back to cold start with the already-prepared frame.
                    self.cold_start(prepared, index)
                }
            }
        }
    }

    /// Cold-start relocalization with an already-prepared frame; on
    /// success the frame becomes the tracking reference.
    fn cold_start(
        &mut self,
        mut prepared: PreparedFrame,
        index: usize,
    ) -> Result<SessionStep, ServeError> {
        let _span = tigris_obs::span!("serve.cold_start", frame = index);
        self.stats.relocalizations_attempted += 1;
        let core = &self.core.0;
        let target = EpochTarget { core, epoch: &self.epoch };
        let reloc = relocalize_prepared(&target, &mut prepared, &core.config.serve.reloc)?;
        self.stats.relocalizations_succeeded += 1;
        self.state = TrackState::Tracking(Box::new(Tracking {
            prev: prepared,
            pose: reloc.pose,
            velocity: None,
            failures: 0,
        }));
        Ok(SessionStep { frame: index, pose: reloc.pose, kind: StepKind::Relocalized(reloc) })
    }

    /// A map query against the *pinned* epoch; answers exactly like
    /// `Mapper::query` on the mapper the epoch was published from.
    pub fn query(&self, point: Vec3, radius: f64) -> Vec<MapNeighbor> {
        query_view(&self.core.0, &self.epoch, point, radius)
    }

    /// Batched [`ShardSession::query`], batched per submap through the
    /// shared read path — bit-identical to per-element queries.
    pub fn query_batch(&self, points: &[Vec3], radius: f64) -> Vec<Vec<MapNeighbor>> {
        query_batch_view(&self.core.0, &self.epoch, points, radius)
    }
}
