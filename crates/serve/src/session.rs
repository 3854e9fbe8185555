//! One client's localization stream: cold start → tracking → (on loss)
//! cold start again.
//!
//! The per-client state machine of the serving layer, driven by every
//! [`crate::shard::ShardSession`]:
//!
//! ```text
//!             ┌────────────────────────────────────────────┐
//!             ▼                                            │
//!        ┌─────────┐  relocalize ok   ┌──────────┐  loss beyond
//!        │  Cold   │ ───────────────▶ │ Tracking │  budget, reloc
//!        │  start  │ ◀─────────────── │          │  failed too
//!        └─────────┘  reloc failed    └──────────┘
//!                                       │     ▲
//!                                       └─────┘
//!                             frame-to-frame match
//!                             (velocity prior), or loss
//!                             within the failure budget
//! ```
//!
//! Cold: the next frame runs cold-start relocalization against the
//! session's pinned epoch ([`crate::reloc`]). Tracking: the next frame
//! registers against the session's previous frame with the
//! constant-velocity prior — the same prepare-once/reuse streaming pattern as the
//! odometer, with the pose chained from the relocalized world pose. A
//! tracking loss beyond [`crate::ServeConfig::max_track_failures`]
//! falls back to relocalization with the already-prepared frame.

use tigris_geom::{PointCloud, RigidTransform};
use tigris_pipeline::{
    prepare_frame_with, register_prepared_with_prior, PrepareScratch, PreparedFrame, Stage,
};

use crate::error::ServeError;
use crate::reloc::Relocalization;
use crate::stats::SessionStats;

/// Which public phase a session is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// No pose estimate: the next frame cold-starts.
    ColdStart,
    /// Tracking frame-to-frame from a relocalized pose.
    Tracking,
}

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

/// How one localized frame got its pose.
#[derive(Debug, Clone, Copy)]
pub enum StepKind {
    /// Cold-start relocalization against the map, with its confidence
    /// report.
    Relocalized(Relocalization),
    /// Frame-to-frame tracking from the previous pose.
    Tracked {
        /// Relative transform from this frame to the previous one.
        relative: RigidTransform,
        /// KPCE correspondences surviving rejection.
        inliers: usize,
        /// ICP iterations the fine-tuning ran.
        icp_iterations: usize,
    },
}

/// One successfully localized frame.
#[derive(Debug, Clone, Copy)]
pub struct SessionStep {
    /// Session-local index of the frame (0-based over admitted frames).
    pub frame: usize,
    /// Estimated world pose of the frame (sensor → world, in the served
    /// map's frame).
    pub pose: RigidTransform,
    /// How the pose was obtained.
    pub kind: StepKind,
}

/// The session state machine itself — cold start, velocity-prior
/// tracking, loss budgets and per-session counters — detached from the
/// map: `shard::ShardSession` drives it, supplying the relocalization
/// closure over its pinned epoch.
#[derive(Debug)]
pub(crate) struct TrackCore {
    state: TrackState,
    stats: SessionStats,
    /// Front-end scratch reused across every frame this session
    /// prepares, so steady-state preparation allocates nothing.
    scratch: PrepareScratch,
}

impl TrackCore {
    pub(crate) fn new() -> Self {
        TrackCore {
            state: TrackState::Cold,
            stats: SessionStats::default(),
            scratch: PrepareScratch::new(),
        }
    }

    pub(crate) fn phase(&self) -> SessionPhase {
        match self.state {
            TrackState::Cold => SessionPhase::ColdStart,
            TrackState::Tracking(_) => SessionPhase::Tracking,
        }
    }

    pub(crate) fn pose(&self) -> Option<&RigidTransform> {
        match &self.state {
            TrackState::Cold => None,
            TrackState::Tracking(t) => Some(&t.pose),
        }
    }

    pub(crate) fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Localizes one raw frame: prepare exactly once, then cold-start
    /// through `reloc` or track against the previous frame with the
    /// constant-velocity prior. `reloc` is the only map access.
    pub(crate) fn localize_with<R>(
        &mut self,
        frame: &PointCloud,
        registration: &tigris_pipeline::RegistrationConfig,
        max_track_failures: usize,
        mut reloc: R,
    ) -> Result<SessionStep, ServeError>
    where
        R: FnMut(&mut PreparedFrame) -> Result<Relocalization, ServeError>,
    {
        // One preparation per admitted frame — the query front end —
        // through the session-owned scratch, so a warm session prepares
        // without transient allocation.
        let mut prepared = prepare_frame_with(frame, registration, &mut self.scratch)?;
        let prof = prepared.prepare_profile();
        self.stats.normal_estimation_time += prof.time(Stage::NormalEstimation);
        self.stats.descriptor_time += prof.time(Stage::DescriptorCalculation);
        self.stats.prepare_scratch_bytes_grown += prof.scratch_bytes_grown;
        self.stats.prepare_scratch_reuses += prof.scratch_reuses;
        let index = self.stats.frames;
        self.stats.frames += 1;

        match std::mem::replace(&mut self.state, TrackState::Cold) {
            TrackState::Cold => self.cold_start(prepared, index, &mut reloc),
            TrackState::Tracking(mut tracking) => {
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
                        let step = SessionStep {
                            frame: index,
                            pose: new_pose,
                            kind: StepKind::Tracked {
                                relative: result.transform,
                                inliers: result.inlier_correspondences,
                                icp_iterations: result.icp_iterations,
                            },
                        };
                        self.stats.frames_tracked += 1;
                        self.state = TrackState::Tracking(Box::new(Tracking {
                            prev: prepared,
                            pose: new_pose,
                            velocity: Some(result.transform),
                            failures: 0,
                        }));
                        Ok(step)
                    }
                    Err(err) => {
                        self.stats.track_breaks += 1;
                        if tracking.failures < max_track_failures {
                            // Within the loss budget: keep the old
                            // reference and pose, drop the failed frame,
                            // surface the loss typed.
                            tracking.velocity = None;
                            tracking.failures += 1;
                            self.state = TrackState::Tracking(tracking);
                            Err(ServeError::Registration(err))
                        } else {
                            // Beyond the budget: the pose estimate is
                            // gone — fall back to cold start with the
                            // already-prepared frame.
                            self.cold_start(prepared, index, &mut reloc)
                        }
                    }
                }
            }
        }
    }

    /// Cold-start relocalization with an already-prepared frame; on
    /// success the frame becomes the tracking reference.
    fn cold_start<R>(
        &mut self,
        mut prepared: PreparedFrame,
        index: usize,
        reloc: &mut R,
    ) -> Result<SessionStep, ServeError>
    where
        R: FnMut(&mut PreparedFrame) -> Result<Relocalization, ServeError>,
    {
        let _span = tigris_obs::span!("serve.cold_start", frame = index);
        self.stats.relocalizations_attempted += 1;
        match reloc(&mut prepared) {
            Ok(reloc) => {
                self.stats.relocalizations_succeeded += 1;
                self.state = TrackState::Tracking(Box::new(Tracking {
                    prev: prepared,
                    pose: reloc.pose,
                    velocity: None,
                    failures: 0,
                }));
                Ok(SessionStep {
                    frame: index,
                    pose: reloc.pose,
                    kind: StepKind::Relocalized(reloc),
                })
            }
            Err(err) => {
                self.state = TrackState::Cold;
                Err(err)
            }
        }
    }
}
