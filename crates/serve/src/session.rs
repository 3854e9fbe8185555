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

use tigris_geom::RigidTransform;

use crate::reloc::Relocalization;

/// Which public phase a session is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// No pose estimate: the next frame cold-starts.
    ColdStart,
    /// Tracking frame-to-frame from a relocalized pose.
    Tracking,
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
