//! The sharded localization service: submap-gated queries, lazy
//! residency and versioned epoch hot-swap over one live map.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use tigris_core::{DynamicMapIndex, SearchStats};
use tigris_geom::{RigidTransform, Vec3};
use tigris_map::retrieval;
use tigris_map::{sort_map_neighbors, MapNeighbor};
use tigris_obs::sampler::{TailConfig, TailSampler};
use tigris_obs::Registry;
use tigris_pipeline::{PreparedFrame, RegistrationResult};

use super::epoch::{SnapshotEpoch, SubmapPayload};
use super::residency::TileCache;
use super::session::ShardSession;
use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::service::RequestGate;
use crate::stats::{ServeStats, SessionStats};

/// Configuration of a [`ShardService`]: the serving budgets and the
/// residency byte budget. The default is the unbounded whole-map
/// service.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Session/in-flight budgets and relocalization gates.
    pub serve: ServeConfig,
    /// Byte budget for resident rebuilt submap indexes (reclaimable
    /// bytes only; see [`crate::stats::TileStats`]). `usize::MAX` — the
    /// default — keeps every touched index resident. The budget governs
    /// per-submap indexes; the field keeps its `tile_` name because the
    /// benchmark configures it by that name.
    pub tile_budget_bytes: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { serve: ServeConfig::default(), tile_budget_bytes: usize::MAX }
    }
}

/// The state shared between a [`ShardService`] and its sessions.
#[derive(Debug)]
pub(crate) struct ShardCore {
    pub(crate) config: ShardConfig,
    /// This service's metrics registry: the request gate and the tile
    /// cache both write into it, so one snapshot covers the service.
    pub(crate) registry: Arc<Registry>,
    /// Tail-based trace sampler: retains the span trees of slow or
    /// failed requests, judged against this service's own latency
    /// history.
    pub(crate) sampler: Arc<TailSampler>,
    /// Admission gate + the current epoch; touched only at request and
    /// session boundaries.
    state: Mutex<(RequestGate, Option<Arc<SnapshotEpoch>>)>,
    /// Index residency; touched per index lookup, never while holding
    /// the state lock.
    cache: Mutex<TileCache>,
}

impl ShardCore {
    fn lock_state(&self) -> std::sync::MutexGuard<'_, (RequestGate, Option<Arc<SnapshotEpoch>>)> {
        self.state.lock().expect("shard state lock poisoned")
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, TileCache> {
        self.cache.lock().expect("tile cache lock poisoned")
    }

    /// `payload`'s rebuilt index, resident (building it now when cold).
    /// The build runs under the cache lock; queries on already-resident
    /// indexes only pay the lookup.
    pub(crate) fn index(&self, payload: &Arc<SubmapPayload>) -> Arc<DynamicMapIndex> {
        self.lock_cache().fetch(payload)
    }

    pub(crate) fn begin_request(&self) -> Result<(), ServeError> {
        self.lock_state().0.begin_request(self.config.serve.max_inflight)
    }

    pub(crate) fn finish_request(&self, latency: Duration, delta: SessionStats) {
        self.lock_state().0.finish_request(latency, delta);
    }

    /// A session closed (its epoch pin already dropped): release its
    /// admission slot and sweep the indexes of payloads no epoch holds
    /// any more.
    pub(crate) fn release_session(&self) {
        self.lock_state().0.close_session();
        self.lock_cache().sweep();
    }
}

/// Serves a map to many concurrent localization sessions through
/// lazily rebuilt submap indexes and versioned copy-on-write epochs.
///
/// A `ShardService` serves whatever epoch was last
/// [installed](ShardService::install_epoch). A finished map is served
/// by installing one epoch and never replacing it:
/// `ShardService::with_epoch(EpochPublisher::new().publish(&mapper)?, config)`.
///
/// * **sessions pin their epoch** — a session admitted on epoch N
///   drains on N however many newer epochs arrive, so its pose stream
///   is exactly what a never-swapped service over epoch N produces; new
///   sessions pin the newest epoch;
/// * **queries route by each submap's own gate** — a query sphere
///   fetches and searches only the indexes of submaps whose local
///   bounds it reaches (see [`ShardService::query`]);
/// * **indexes build lazily, one per payload, and evict under a byte
///   budget** — an unchanged payload keeps its index across epochs; see
///   the [residency docs](super::residency).
#[derive(Debug)]
pub struct ShardService {
    core: Arc<ShardCore>,
}

impl ShardService {
    /// A service with no epoch installed yet (sessions are rejected
    /// until the first [`ShardService::install_epoch`]).
    pub fn new(config: ShardConfig) -> Self {
        tigris_obs::init_from_env();
        let registry = Arc::new(Registry::new());
        let gate = RequestGate::new(Arc::clone(&registry));
        let cache = TileCache::new(config.tile_budget_bytes, &registry);
        let latency = registry.histogram_with("serve.latency_us", crate::stats::LATENCY_HISTOGRAM);
        let sampler = Arc::new(TailSampler::new(TailConfig::from_env(latency)));
        tigris_obs::ops::register_service("shard", &registry, Some(&sampler));
        ShardService {
            core: Arc::new(ShardCore {
                config,
                registry,
                sampler,
                state: Mutex::new((gate, None)),
                cache: Mutex::new(cache),
            }),
        }
    }

    /// A service already serving `epoch`.
    pub fn with_epoch(epoch: Arc<SnapshotEpoch>, config: ShardConfig) -> Self {
        let service = ShardService::new(config);
        service.install_epoch(epoch);
        service
    }

    /// The serving configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.core.config
    }

    /// This service's metrics registry: every `serve.*` counter, gauge
    /// and latency histogram the service maintains, including the
    /// `serve.tiles.*` residency counters. Snapshot it at any time for
    /// export; the same atomics back [`ShardService::stats`].
    pub fn registry(&self) -> &Arc<Registry> {
        &self.core.registry
    }

    /// This service's tail-based trace sampler: every finished localize
    /// call is offered to it, and it retains (bounded, FIFO) the span
    /// trees of requests that were slow against the service's own
    /// latency history or that failed. Inspect or drain the retained
    /// set for debugging; the ops monitor snapshots it into post-mortem
    /// bundles automatically.
    pub fn sampler(&self) -> &Arc<TailSampler> {
        &self.core.sampler
    }

    /// Hot-swaps the served epoch: sessions opened after this call pin
    /// `epoch`; sessions already open keep draining on theirs. Indexes
    /// of payloads `epoch` shares stay resident; those of payloads that
    /// nothing holds any more are dropped.
    pub fn install_epoch(&self, epoch: Arc<SnapshotEpoch>) {
        tigris_obs::event!(
            "epoch.install",
            version = epoch.version(),
            submaps = epoch.payloads().len(),
        );
        let old = self.core.lock_state().1.replace(epoch);
        // Dropped first, so the sweep sees the payloads only it held die.
        drop(old);
        self.core.lock_cache().sweep();
    }

    /// The currently served epoch, or `None` before the first install.
    pub fn current_epoch(&self) -> Option<Arc<SnapshotEpoch>> {
        self.core.lock_state().1.clone()
    }

    /// Admits a new localization session pinned to the current epoch.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoEpoch`] before the first
    /// [`ShardService::install_epoch`];
    /// [`ServeError::SessionsExhausted`] at the session budget.
    pub fn open_session(&self) -> Result<ShardSession, ServeError> {
        let (id, epoch) = {
            let mut state = self.core.lock_state();
            let epoch = Arc::clone(state.1.as_ref().ok_or(ServeError::NoEpoch)?);
            let id = state.0.admit_session(self.core.config.serve.max_sessions)?;
            (id, epoch)
        };
        Ok(ShardSession::new(id, Arc::clone(&self.core), epoch))
    }

    /// Sessions currently open.
    pub fn active_sessions(&self) -> usize {
        self.core.lock_state().0.active_sessions()
    }

    /// A map query against the *current* epoch; answers exactly like
    /// `Mapper::query` on the mapper the epoch was published from.
    /// Session-pinned queries live on [`ShardSession::query`].
    ///
    /// # Errors
    ///
    /// [`ServeError::NoEpoch`] before the first epoch install.
    pub fn query(&self, point: Vec3, radius: f64) -> Result<Vec<MapNeighbor>, ServeError> {
        let epoch = self.current_epoch().ok_or(ServeError::NoEpoch)?;
        Ok(query_view(&self.core, &epoch, point, radius))
    }

    /// Batched map queries against the current epoch,
    /// batched per submap through the shared read path — bit-identical
    /// to calling [`ShardService::query`] per element.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoEpoch`] before the first epoch install.
    pub fn query_batch(
        &self,
        points: &[Vec3],
        radius: f64,
    ) -> Result<Vec<Vec<MapNeighbor>>, ServeError> {
        let epoch = self.current_epoch().ok_or(ServeError::NoEpoch)?;
        Ok(query_batch_view(&self.core, &epoch, points, radius))
    }

    /// A consistent point-in-time copy of the service-wide counters,
    /// the latency distribution and the tile residency counters. The
    /// percentile sort runs outside both service locks.
    pub fn stats(&self) -> ServeStats {
        let (mut stats, recorder) = self.core.lock_state().0.stats_and_recorder();
        stats.tiles = self.core.lock_cache().stats();
        stats.latency = recorder.summarize();
        stats
    }
}

/// A pinned epoch as a relocalization target: retrieval and keyframe
/// verification read the epoch directly; structure overlap touches only
/// the candidate submap's index (building it when cold).
pub(crate) struct EpochTarget<'a> {
    pub(crate) core: &'a ShardCore,
    pub(crate) epoch: &'a SnapshotEpoch,
}

impl EpochTarget<'_> {
    /// Registers the prepared frame against `submap`'s stored keyframe
    /// (locking that keyframe for the duration); `None` when the submap
    /// stores no keyframe or the pair fails to match.
    pub(crate) fn verify_against(
        &self,
        submap: usize,
        frame: &mut PreparedFrame,
    ) -> Option<RegistrationResult> {
        let keyframe = self.epoch.payloads().get(submap)?.keyframe()?;
        let mut keyframe = keyframe.lock().expect("keyframe lock poisoned");
        retrieval::verify_geometry(frame, &mut keyframe, self.epoch.registration_config())
    }

    /// Structure-overlap fraction of `points` against `submap` under
    /// `relative`, NN lookups batched through the submap's rebuilt
    /// index.
    pub(crate) fn structure_overlap(
        &self,
        points: &[Vec3],
        relative: &RigidTransform,
        submap: usize,
    ) -> f64 {
        let Some(payload) = self.epoch.payloads().get(submap) else {
            return 0.0;
        };
        let Some(bounds) = payload.local_bounds() else {
            return 0.0; // empty submap: nothing to overlap with
        };
        let index = self.core.index(payload);
        retrieval::structure_overlap_indexed(points, relative, &index, bounds)
    }
}

/// Serial map query over a pinned epoch: visit every submap, apply its
/// own local-bounds gate (fetching its index only when the gate
/// passes), and merge in the canonical order. Bit-identical to
/// `Mapper::query` on the published map (the same gate + the
/// rebuild-identical index contract + the one shared
/// [`sort_map_neighbors`] comparator, a total order), including its
/// empty answer to a radius that is not `>= 0` or a probe with a
/// non-finite coordinate.
pub(crate) fn query_view(
    core: &ShardCore,
    epoch: &SnapshotEpoch,
    point: Vec3,
    radius: f64,
) -> Vec<MapNeighbor> {
    let mut out: Vec<MapNeighbor> = Vec::new();
    if radius.is_nan() || radius < 0.0 || !point.is_finite() {
        return out;
    }
    for payload in epoch.payloads() {
        let Some(bounds) = payload.local_bounds() else {
            continue;
        };
        let id = payload.id();
        let anchor = epoch.anchor_pose(id);
        let local_q = anchor.inverse().apply(point);
        if !bounds.intersects_sphere(local_q, radius) {
            continue;
        }
        let index = core.index(payload);
        out.extend(index.radius_query(local_q, radius).into_iter().map(|n| MapNeighbor {
            submap: id,
            index: n.index,
            point: anchor.apply(index.all_points()[n.index]),
            distance_squared: n.distance_squared,
        }));
    }
    sort_map_neighbors(&mut out);
    out
}

/// Batched [`query_view`]: per submap, the queries that pass its gate
/// are batched through the shared read path (its index fetched only
/// when some query passes) — bit-identical to per-element
/// [`query_view`]. A probe with a non-finite coordinate passes no gate
/// and answers empty.
pub(crate) fn query_batch_view(
    core: &ShardCore,
    epoch: &SnapshotEpoch,
    points: &[Vec3],
    radius: f64,
) -> Vec<Vec<MapNeighbor>> {
    let mut out: Vec<Vec<MapNeighbor>> = vec![Vec::new(); points.len()];
    if radius.is_nan() || radius < 0.0 {
        return out;
    }
    let mut stats = SearchStats::new();
    let mut hit_ids: Vec<usize> = Vec::new();
    let mut local_queries: Vec<Vec3> = Vec::new();
    for payload in epoch.payloads() {
        let Some(bounds) = payload.local_bounds() else {
            continue;
        };
        let id = payload.id();
        let anchor = epoch.anchor_pose(id);
        let inverse = anchor.inverse();
        hit_ids.clear();
        local_queries.clear();
        for (qi, &p) in points.iter().enumerate().filter(|(_, p)| p.is_finite()) {
            let local = inverse.apply(p);
            if bounds.intersects_sphere(local, radius) {
                hit_ids.push(qi);
                local_queries.push(local);
            }
        }
        if hit_ids.is_empty() {
            continue;
        }
        let index = core.index(payload);
        let answers = index.radius_batch_query_with_stats(&local_queries, radius, &mut stats);
        for (&qi, neighbors) in hit_ids.iter().zip(answers) {
            out[qi].extend(neighbors.into_iter().map(|n| MapNeighbor {
                submap: id,
                index: n.index,
                point: anchor.apply(index.all_points()[n.index]),
                distance_squared: n.distance_squared,
            }));
        }
    }
    for neighbors in &mut out {
        sort_map_neighbors(neighbors);
    }
    out
}
