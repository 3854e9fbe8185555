//! A localization session: the serving state machine, pinned to one
//! epoch and relocalizing through tiles.

use std::sync::Arc;
use std::time::Instant;

use tigris_geom::{PointCloud, RigidTransform, Vec3};
use tigris_map::MapNeighbor;
use tigris_obs::sampler::RequestOutcome;

use super::router::EpochView;
use super::service::{query_batch_view, query_view, EpochTarget, ShardCore};
use crate::error::ServeError;
use crate::reloc::relocalize_prepared;
use crate::session::{SessionPhase, SessionStep, TrackCore};
use crate::stats::SessionStats;

/// One client's localization session against a [`super::ShardService`].
///
/// Drives the serving state machine (cold start → velocity-prior
/// tracking → loss budget → cold start; see [`crate::session`]) pinned
/// to the epoch that was current at admission: the session's answers
/// are those of that epoch however many newer epochs are installed
/// while it runs. Sessions are independent and `Send`: move each to its
/// own thread and localize concurrently. Dropping the session releases
/// its admission slot and its epoch pin.
#[derive(Debug)]
pub struct ShardSession {
    id: usize,
    view: Arc<EpochView>,
    track: TrackCore,
    /// Declared after `view`: fields drop in declaration order, so the
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
    pub(crate) fn new(id: usize, core: Arc<ShardCore>, view: Arc<EpochView>) -> Self {
        ShardSession { id, view, track: TrackCore::new(), core: Admitted(core) }
    }

    /// The session's service-assigned id (dense, in admission order).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Version of the epoch this session is pinned to.
    pub fn epoch_version(&self) -> u64 {
        self.view.epoch().version()
    }

    /// The session's current phase.
    pub fn phase(&self) -> SessionPhase {
        self.track.phase()
    }

    /// The current world-pose estimate (`None` while cold).
    pub fn pose(&self) -> Option<&RigidTransform> {
        self.track.pose()
    }

    /// This session's lifetime counters.
    pub fn stats(&self) -> &SessionStats {
        self.track.stats()
    }

    /// Localizes one raw frame (sensor coordinates) against the pinned
    /// epoch: cold-start relocalization when the session has no pose
    /// (retrieval over the epoch, verification against shared
    /// keyframes, structure overlap through the candidate's index),
    /// velocity-prior tracking otherwise (tracking registers against the
    /// session's own previous frame and touches no tile at all). The
    /// frame's front end runs exactly once either way, and a successful
    /// frame's preparation is carried as the next step's tracking
    /// reference.
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
        // touches — preparation, relocalization gates, tile loads,
        // tracking, map search — nests under this span; the pinned
        // epoch version rides along as a field.
        let _span = tigris_obs::span!(
            "serve.localize",
            session = self.id,
            points = frame.len(),
            epoch = self.view.epoch().version(),
        );
        let t0 = Instant::now();
        let before = *self.track.stats();
        let core = &self.core.0;
        let view = &self.view;
        let result = self.track.localize_with(
            frame,
            view.epoch().registration_config(),
            core.config.serve.max_track_failures,
            |prepared| {
                relocalize_prepared(&EpochTarget { core, view }, prepared, &core.config.serve.reloc)
            },
        );
        let delta = self.track.stats().delta_since(&before);
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

    /// A tile-routed map query against the *pinned* epoch; answers
    /// exactly like `Mapper::query` on the mapper the epoch was
    /// published from.
    pub fn query(&self, point: Vec3, radius: f64) -> Vec<MapNeighbor> {
        query_view(&self.core.0, &self.view, point, radius)
    }

    /// Batched [`ShardSession::query`], batched per submap through the
    /// shared read path — bit-identical to per-element queries.
    pub fn query_batch(&self, points: &[Vec3], radius: f64) -> Vec<Vec<MapNeighbor>> {
        let batch = self.view.epoch().registration_config().parallel;
        query_batch_view(&self.core.0, &self.view, points, radius, &batch)
    }
}
