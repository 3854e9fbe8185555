//! Metered 3D neighbor search for the pipeline.
//!
//! Every stage that needs neighbors (Normal Estimation, descriptor
//! calculation, RPCE) goes through a [`Searcher3`] — a thin wrapper over a
//! pluggable `tigris_core::SearchIndex` backend that:
//!
//! * runs whichever backend the [`SearchBackendConfig`] selected (the
//!   canonical KD-tree, the two-stage tree, approximate leader/follower
//!   search, the brute-force oracle, or any backend registered by name —
//!   e.g. `tigris-accel`'s online accelerator model),
//! * accumulates wall-clock time spent in index build and search — the
//!   quantities behind the paper's Fig. 4b kernel breakdown,
//! * optionally injects errors (k-th NN, `<r1,r2>` shell) per Sec. 4.2, and
//! * optionally logs every query for accelerator replay.
//!
//! The pipeline above this seam never learns which structure served its
//! queries; new backends plug in through the registry without touching
//! this file.
//!
//! In pipeline runs the searcher is owned by the
//! [`crate::PreparedFrame`] built over its cloud, so a streamed frame's
//! index (like the rest of its front end) is built exactly once and
//! rides along as the frame moves from registration source to target.
//! The meters accumulate monotonically across those uses — per-result
//! attribution subtracts snapshots ([`Searcher3::search_time`],
//! [`Searcher3::stats`]), which is why `tigris_core::SearchStats`
//! implements `Sub`.

use std::convert::Infallible;
use std::ops::Range;
use std::time::{Duration, Instant};

use tigris_core::index::build_backend;
use tigris_core::{
    ApproxConfig, ApproxIndex, BruteForceIndex, KdTree, Neighbor, QueryRecord, SearchIndex,
    SearchStats, SharedIndex, TwoStageKdTree,
};
use tigris_geom::Vec3;

use crate::config::{ConfigError, SearchBackendConfig};
use crate::scratch::{GroupScratch, NeighborTable};

/// Error injected into searches (paper Sec. 4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Injection {
    /// NN search returns the k-th nearest neighbor instead (1-based; 1 is
    /// exact). Fig. 7a sweeps k.
    NnKth(usize),
    /// Radius-`r` search returns the shell `<r1, r2>` instead, with
    /// `r1 = inner_frac · r` and `r2 = outer_frac · r`. Fig. 7b sweeps the
    /// inner radius with the outer fixed above `r`.
    RadiusShell {
        /// Inner radius as a fraction of the requested radius.
        inner_frac: f64,
        /// Outer radius as a fraction of the requested radius.
        outer_frac: f64,
    },
}

/// A metered 3D searcher over one point cloud.
///
/// # Example
///
/// ```
/// use tigris_pipeline::Searcher3;
/// use tigris_geom::Vec3;
///
/// let pts: Vec<Vec3> = (0..100).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
/// let mut s = Searcher3::classic(&pts);
/// let n = s.nn(Vec3::new(41.3, 0.0, 0.0)).unwrap();
/// assert_eq!(pts[n.index].x, 41.0);
/// assert_eq!(s.backend_name(), "classic");
/// assert!(s.search_time() > std::time::Duration::ZERO);
/// ```
///
/// Any backend — including ones registered from other crates — can serve
/// the same pipeline through [`Searcher3::from_config`]:
///
/// ```
/// use tigris_pipeline::config::SearchBackendConfig;
/// use tigris_pipeline::Searcher3;
/// use tigris_geom::Vec3;
///
/// let pts: Vec<Vec3> = (0..100).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
/// let mut s = Searcher3::from_config(&pts, &SearchBackendConfig::BruteForce).unwrap();
/// assert_eq!(s.backend_name(), "brute-force");
/// assert_eq!(s.nn(Vec3::ZERO).unwrap().index, 0);
/// ```
pub struct Searcher3 {
    index: Box<dyn SearchIndex>,
    injection: Option<Injection>,
    build_time: Duration,
    meters: Meters,
}

/// What a searcher's queries cost, and — when logging — what they were.
/// Held apart from the index so a batch over the index's own points can
/// borrow both at once.
#[derive(Default)]
struct Meters {
    search_time: Duration,
    stats: SearchStats,
    /// When `Some`, every query is appended (for accelerator replay).
    query_log: Option<Vec<QueryRecord>>,
}

impl Meters {
    /// Meters one batched search: logs each of `queries` as `record`
    /// makes it, runs `search` against fresh stats, and folds those stats
    /// and the batch's wall-clock into the totals.
    fn batch<R>(
        &mut self,
        queries: &[Vec3],
        record: impl Fn(Vec3) -> QueryRecord,
        search: impl FnOnce(&mut SearchStats) -> R,
    ) -> R {
        if let Some(log) = &mut self.query_log {
            log.extend(queries.iter().map(|&q| record(q)));
        }
        let t0 = Instant::now();
        let mut stats = SearchStats::new();
        let result = search(&mut stats);
        self.stats += stats;
        self.search_time += t0.elapsed();
        result
    }
}

impl std::fmt::Debug for Searcher3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Searcher3")
            .field("backend", &self.index.name())
            .field("points", &self.index.len())
            .field("injection", &self.injection)
            .field("stats", &self.meters.stats)
            .finish()
    }
}

impl Searcher3 {
    /// Wraps an already-built backend, attributing `build_time` to its
    /// construction. This is the open end of the seam: anything
    /// implementing `SearchIndex` becomes a pipeline-ready searcher.
    pub fn from_index(index: Box<dyn SearchIndex>, build_time: Duration) -> Self {
        Searcher3 { index, injection: None, build_time, meters: Meters::default() }
    }

    /// Runs `build` under the build clock and wraps the index it returns —
    /// the one timed construction path behind [`Searcher3::from_config`]
    /// and its shorthands.
    fn timed_build<E>(build: impl FnOnce() -> Result<Box<dyn SearchIndex>, E>) -> Result<Self, E> {
        let t0 = Instant::now();
        let index = build()?;
        Ok(Searcher3::from_index(index, t0.elapsed()))
    }

    /// [`Searcher3::timed_build`] for a built-in backend, which cannot fail.
    fn timed_built_in(build: impl FnOnce() -> Box<dyn SearchIndex>) -> Self {
        let Ok(searcher) = Searcher3::timed_build(|| Ok::<_, Infallible>(build()));
        searcher
    }

    /// Builds the backend a [`SearchBackendConfig`] selects, metering the
    /// build.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownBackend`] when a
    /// [`SearchBackendConfig::Custom`] name has no registered factory.
    pub fn from_config(
        points: &[Vec3],
        backend: &SearchBackendConfig,
    ) -> Result<Self, ConfigError> {
        Searcher3::timed_build(|| {
            Ok(match *backend {
                SearchBackendConfig::Classic => Box::new(KdTree::build(points)),
                SearchBackendConfig::TwoStage { top_height } => {
                    Box::new(TwoStageKdTree::build(points, top_height))
                }
                SearchBackendConfig::TwoStageApprox { top_height, approx } => {
                    Box::new(ApproxIndex::build(points, top_height, approx))
                }
                SearchBackendConfig::BruteForce => Box::new(BruteForceIndex::new(points.to_vec())),
                SearchBackendConfig::Custom { name } => {
                    build_backend(name, points).ok_or(ConfigError::UnknownBackend { name })?
                }
            })
        })
    }

    /// Builds a canonical KD-tree backend (shorthand for
    /// [`Searcher3::from_config`] with [`SearchBackendConfig::Classic`]).
    pub fn classic(points: &[Vec3]) -> Self {
        Searcher3::timed_built_in(|| Box::new(KdTree::build(points)))
    }

    /// Builds a two-stage KD-tree backend with the given top-tree height
    /// (shorthand for [`Searcher3::from_config`] with
    /// [`SearchBackendConfig::TwoStage`]).
    pub fn two_stage(points: &[Vec3], top_height: usize) -> Self {
        Searcher3::timed_built_in(|| Box::new(TwoStageKdTree::build(points, top_height)))
    }

    /// Builds a two-stage KD-tree with approximate (Algorithm 1) search
    /// (shorthand for [`Searcher3::from_config`] with
    /// [`SearchBackendConfig::TwoStageApprox`]).
    pub fn two_stage_approx(points: &[Vec3], top_height: usize, cfg: ApproxConfig) -> Self {
        Searcher3::timed_built_in(|| Box::new(ApproxIndex::build(points, top_height, cfg)))
    }

    /// Builds the exhaustive brute-force oracle backend (shorthand for
    /// [`Searcher3::from_config`] with [`SearchBackendConfig::BruteForce`]).
    pub fn brute_force(points: &[Vec3]) -> Self {
        Searcher3::timed_built_in(|| Box::new(BruteForceIndex::new(points.to_vec())))
    }

    /// The backend's stable name (`"classic"`, `"two-stage"`, …), straight
    /// from `SearchIndex::name()` — new backends can't print a stale
    /// hand-maintained label.
    pub fn backend_name(&self) -> &'static str {
        self.index.name()
    }

    /// Enables error injection on subsequent searches.
    pub fn set_injection(&mut self, injection: Option<Injection>) {
        self.injection = injection;
    }

    /// Starts logging every query (for accelerator replay via
    /// `tigris-accel`'s `AccelBackend::replay`). Idempotent.
    pub fn enable_query_logging(&mut self) {
        if self.meters.query_log.is_none() {
            self.meters.query_log = Some(Vec::new());
        }
    }

    /// Takes the accumulated query log (logging stays enabled, restarting
    /// empty); `None` when logging was never enabled.
    pub fn take_query_log(&mut self) -> Option<Vec<QueryRecord>> {
        self.meters.query_log.as_mut().map(std::mem::take)
    }

    /// Time spent building the index.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Accumulated time spent inside searches.
    pub fn search_time(&self) -> Duration {
        self.meters.search_time
    }

    /// Accumulated node-visit statistics.
    pub fn stats(&self) -> &SearchStats {
        &self.meters.stats
    }

    /// The indexed points.
    pub fn points(&self) -> &[Vec3] {
        self.index.points()
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Nearest neighbor (respecting any configured injection).
    pub fn nn(&mut self, query: Vec3) -> Option<Neighbor> {
        let m = &mut self.meters;
        if let Some(log) = &mut m.query_log {
            log.push(QueryRecord::nn(query));
        }
        let t0 = Instant::now();
        let result = match self.injection {
            Some(Injection::NnKth(k)) if k > 1 => {
                // The k-th NN is the last entry of an exact k-NN; every
                // backend serves k-NN exactly (the approximate path covers
                // only NN and radius), so injection semantics are uniform.
                let knn = self.index.knn(query, k, &mut m.stats);
                (knn.len() == k).then(|| knn[k - 1])
            }
            _ => self.index.nn(query, &mut m.stats),
        };
        m.search_time += t0.elapsed();
        result
    }

    /// All neighbors within `radius` (respecting any configured injection),
    /// sorted ascending by distance.
    pub fn radius(&mut self, query: Vec3, radius: f64) -> Vec<Neighbor> {
        let m = &mut self.meters;
        if let Some(log) = &mut m.query_log {
            log.push(QueryRecord::radius(query, radius));
        }
        let t0 = Instant::now();
        let result = match self.injection {
            Some(Injection::RadiusShell { inner_frac, outer_frac }) => {
                let r1 = inner_frac * radius;
                let r2 = outer_frac * radius;
                let (lo, hi) = (r1.min(r2), r1.max(r2));
                let mut out = self.index.radius(query, hi, &mut m.stats);
                out.retain(|n| n.distance_squared >= lo * lo);
                out
            }
            _ => self.index.radius(query, radius, &mut m.stats),
        };
        m.search_time += t0.elapsed();
        result
    }

    /// The k nearest neighbors, sorted ascending.
    pub fn knn(&mut self, query: Vec3, k: usize) -> Vec<Neighbor> {
        let m = &mut self.meters;
        if let Some(log) = &mut m.query_log {
            log.push(QueryRecord::knn(query, k));
        }
        let t0 = Instant::now();
        let result = self.index.knn(query, k, &mut m.stats);
        m.search_time += t0.elapsed();
        result
    }

    // ---- Batched entry points -------------------------------------------
    //
    // Same results and stats as issuing the queries one by one through the
    // methods above (bit-identical, including the approximate searcher's
    // leader books), run on the calling thread through the backend's batch
    // methods: the serial loop, or the accelerator's one hardware run.
    // `search_time` accounts the batch's wall-clock.

    /// Nearest neighbor of every query (respecting any configured
    /// injection; injected batches fall back to the serial path, whose
    /// semantics error injection is defined on).
    pub fn nn_batch(&mut self, queries: &[Vec3]) -> Vec<Option<Neighbor>> {
        if self.injection.is_some() {
            return queries.iter().map(|&q| self.nn(q)).collect();
        }
        let index = &mut self.index;
        self.meters.batch(queries, QueryRecord::nn, |s| index.nn_batch(queries, s))
    }

    /// `true` when a caller may skip a query whose answer it can prove:
    /// the backend answers exactly through its stateless shared view, no
    /// injection bends the answers, and no query log records the stream
    /// (an accelerator replay must see every query).
    pub(crate) fn queries_skippable(&self) -> bool {
        self.injection.is_none()
            && self.meters.query_log.is_none()
            && self.index.as_shared().is_some()
    }

    /// The two nearest neighbors of every query (`SharedIndex::nn2_shared`,
    /// metered like [`Searcher3::nn_batch`]).
    ///
    /// # Panics
    ///
    /// Panics unless [`Searcher3::queries_skippable`] holds.
    pub(crate) fn nn2_batch(&mut self, queries: &[Vec3]) -> Vec<[Option<Neighbor>; 2]> {
        assert!(self.queries_skippable(), "nn2_batch needs an exact, unobserved searcher");
        let shared = self.index.as_shared().expect("checked above");
        // The record is never made: a skippable searcher logs nothing.
        self.meters.batch(
            queries,
            |q| QueryRecord::knn(q, 2),
            |s| queries.iter().map(|&q| shared.nn2_shared(q, s)).collect(),
        )
    }

    /// All neighbors within `radius` of every query, each sorted ascending
    /// by distance (respecting any configured injection; injected batches
    /// fall back to the serial path).
    pub fn radius_batch(&mut self, queries: &[Vec3], radius: f64) -> Vec<Vec<Neighbor>> {
        if self.injection.is_some() {
            return queries.iter().map(|&q| self.radius(q, radius)).collect();
        }
        let index = &mut self.index;
        self.meters.batch(
            queries,
            |q| QueryRecord::radius(q, radius),
            |s| index.radius_batch(queries, radius, s),
        )
    }

    // ---- Shared-read table entry points ---------------------------------
    //
    // Like the batched methods, but results land as rows of a reusable
    // `NeighborTable` instead of a fresh `Vec<Vec<Neighbor>>` — query
    // `i`'s row (found through `groups.table_row(i)`) is bit-identical
    // to what `radius_batch` would have returned for it, and the
    // per-query metering (queries counted, log entries, batch
    // wall-clock in `search_time`) is the same. On a backend with a
    // shared-read view the batch is ordered along a Morton
    // curve and dispatches runs of co-located queries as one shared
    // tree traversal (`SharedIndex::radius_group_into_shared`), writing
    // through warm buffers of the caller's `GroupScratch` — a
    // steady-state caller allocates nothing, and interior-node work is
    // amortized across each group. Rows consequently land in curve
    // order, and the traversal-visit counters (`leaves_scanned`,
    // `tree_nodes_visited`, `subtrees_pruned`) reflect the shared walk,
    // not per-query walks. Injected or stateful-backend searches fall
    // back to `radius_batch`: one backend batch (the accelerator's is
    // one hardware run), or one query at a time under injection, which
    // injection semantics are defined on. Rows then land in query order,
    // and the mapping says so.

    /// All neighbors within `radius` of every query, appended as table
    /// rows with co-located queries grouped into shared traversals
    /// through `groups` — query `i`'s row is
    /// `groups.table_row(i)`, valid until the next batched search
    /// through the same scratch.
    pub fn radius_batch_into(
        &mut self,
        queries: &[Vec3],
        radius: f64,
        table: &mut NeighborTable,
        groups: &mut GroupScratch,
    ) {
        self.radius_batch_into_ordered(queries, radius, table, groups, RowOrder::Canonical);
    }

    /// [`Searcher3::radius_batch_into`] minus the within-row ordering
    /// guarantee: each row holds exactly the hit *set* a per-query
    /// search would return — same neighbors, same bits — in an
    /// unspecified order, skipping the canonical `(d², index)` re-sort
    /// that dominates the grouped path's per-row cost on dense
    /// neighborhoods. Only for consumers whose accumulation is
    /// order-independent (exact `+= 1.0` histogram adds, for example);
    /// order-sensitive consumers must use [`Searcher3::radius_batch_into`].
    pub fn radius_batch_into_unsorted(
        &mut self,
        queries: &[Vec3],
        radius: f64,
        table: &mut NeighborTable,
        groups: &mut GroupScratch,
    ) {
        self.radius_batch_into_ordered(queries, radius, table, groups, RowOrder::Unsorted);
    }

    fn radius_batch_into_ordered(
        &mut self,
        queries: &[Vec3],
        radius: f64,
        table: &mut NeighborTable,
        groups: &mut GroupScratch,
        order: RowOrder,
    ) {
        if self.injection.is_some() || self.index.as_shared().is_none() {
            let base = table.rows() as u32;
            groups.inv.clear();
            groups.inv.extend(base..base + queries.len() as u32);
            for row in self.radius_batch(queries, radius) {
                table.push_row_from(&row);
            }
            return;
        }
        let shared = self.index.as_shared().expect("checked above");
        self.meters.batch(
            queries,
            |q| QueryRecord::radius(q, radius),
            |s| radius_rows_into(shared, queries, radius, s, table, groups, order),
        );
    }

    /// All neighbors within `radius` of the searcher's *own* points
    /// `range`, appended as table rows — point `start + i`'s row is
    /// `groups.table_row(i)`, valid until the next batched search
    /// through the same scratch.
    ///
    /// This is the front end's "query the cloud about itself" shape
    /// (normal estimation runs it over every chunk). Going through the
    /// shared-read view lets the queries borrow the indexed points
    /// directly — no `points()[start..end].to_vec()` staging copy.
    ///
    /// # Panics
    ///
    /// Panics when `range` is out of bounds of [`Searcher3::points`].
    pub fn self_radius_range_into(
        &mut self,
        range: Range<usize>,
        radius: f64,
        table: &mut NeighborTable,
        groups: &mut GroupScratch,
    ) {
        if self.injection.is_some() || self.index.as_shared().is_none() {
            // No shared view to borrow the points through: batch a copy.
            let queries = self.index.points()[range].to_vec();
            self.radius_batch_into(&queries, radius, table, groups);
            return;
        }
        let queries = &self.index.points()[range];
        let shared = self.index.as_shared().expect("checked above");
        let order = RowOrder::Canonical;
        self.meters.batch(
            queries,
            |q| QueryRecord::radius(q, radius),
            |s| radius_rows_into(shared, queries, radius, s, table, groups, order),
        );
    }
}

/// Within-row ordering a batched radius fan-out guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowOrder {
    /// Rows in canonical `(d², index)` order — bit-identical to the
    /// per-query search, including element order.
    Canonical,
    /// Same hit set per row, unspecified order — the grouped traversal
    /// skips its canonical re-sort.
    Unsorted,
}

/// Maximum queries dispatched as one shared traversal. Groups are also
/// capped in spatial extent, so on sparse data they stay small and the
/// dispatch degrades toward the per-query walk it replaces.
const MAX_GROUP: usize = 32;

/// Spreads the low 21 bits of `v` so consecutive bits land three apart —
/// one coordinate's contribution to a 63-bit 3D Morton code.
fn spread21(v: u64) -> u64 {
    let mut x = v & 0x1f_ffff;
    x = (x | x << 32) & 0x001f_0000_0000_ffff;
    x = (x | x << 16) & 0x001f_0000_ff00_00ff;
    x = (x | x << 8) & 0x100f_00f0_0f00_f00f;
    x = (x | x << 4) & 0x10c3_0c30_c30c_30c3;
    (x | x << 2) & 0x1249_2492_4924_9249
}

/// Morton (Z-order) key of `q` on a grid of `1 / inv_cell`-sized voxels:
/// consecutive keys are usually spatially adjacent, which is what makes
/// sorted runs good traversal groups. The offset keeps in-range
/// coordinates non-negative for 21-bit packing; beyond ±2²⁰ cells keys
/// wrap, which only loosens grouping (caught by the extent cap), never
/// correctness.
fn morton_key(q: Vec3, inv_cell: f64) -> u64 {
    const OFFSET: i64 = 1 << 20;
    let ix = ((q.x * inv_cell).floor() as i64).wrapping_add(OFFSET) as u64;
    let iy = ((q.y * inv_cell).floor() as i64).wrapping_add(OFFSET) as u64;
    let iz = ((q.z * inv_cell).floor() as i64).wrapping_add(OFFSET) as u64;
    spread21(ix) << 2 | spread21(iy) << 1 | spread21(iz)
}

/// Radius fan-out over a shared-read index, appending one table row per
/// query and recording each query's table row in `groups` (readable
/// through `GroupScratch::table_row`).
///
/// The whole batch is ordered along a Morton curve and
/// dispatches runs of co-located queries (capped in population and in
/// spatial extent — a loose group would drag every member through
/// subtrees only its farthest peer can reach) as single shared
/// traversals. Each row holds exactly the hits a per-query search would
/// return, bit for bit, but rows land in curve order rather than query
/// order — hence the recorded mapping — while interior nodes are
/// dispatched once per group and leaf points stream through the SIMD
/// filter cache-hot. With [`RowOrder::Unsorted`] the within-row
/// canonical sort is skipped too: same hit set per row, unspecified
/// element order.
fn radius_rows_into(
    shared: &dyn SharedIndex,
    queries: &[Vec3],
    radius: f64,
    stats: &mut SearchStats,
    table: &mut NeighborTable,
    groups: &mut GroupScratch,
    order: RowOrder,
) {
    let base = table.rows() as u32;
    groups.inv.clear();
    let max_extent = radius.max(f64::MIN_POSITIVE);
    let inv_cell = 2.0 / max_extent;
    groups.keys.clear();
    groups.keys.extend(queries.iter().map(|&q| morton_key(q, inv_cell)));
    groups.order.clear();
    groups.order.extend(0..queries.len() as u32);
    let keys = &groups.keys;
    groups.order.sort_unstable_by_key(|&i| keys[i as usize]);
    groups.inv.resize(queries.len(), 0);
    if groups.rows.len() < MAX_GROUP {
        groups.rows.resize_with(MAX_GROUP, Vec::new);
    }
    let mut qbuf = [Vec3::ZERO; MAX_GROUP];
    let mut pos = 0;
    while pos < queries.len() {
        qbuf[0] = queries[groups.order[pos] as usize];
        let (mut lo, mut hi) = (qbuf[0], qbuf[0]);
        let mut len = 1;
        while len < MAX_GROUP && pos + len < queries.len() {
            let q = queries[groups.order[pos + len] as usize];
            let nlo = Vec3::new(lo.x.min(q.x), lo.y.min(q.y), lo.z.min(q.z));
            let nhi = Vec3::new(hi.x.max(q.x), hi.y.max(q.y), hi.z.max(q.z));
            if nhi.x - nlo.x > max_extent
                || nhi.y - nlo.y > max_extent
                || nhi.z - nlo.z > max_extent
            {
                break;
            }
            qbuf[len] = q;
            (lo, hi) = (nlo, nhi);
            len += 1;
        }
        match order {
            RowOrder::Canonical => shared.radius_group_into_shared(
                &qbuf[..len],
                radius,
                &mut groups.rows[..len],
                stats,
            ),
            RowOrder::Unsorted => shared.radius_group_unsorted_into_shared(
                &qbuf[..len],
                radius,
                &mut groups.rows[..len],
                stats,
            ),
        }
        for (j, row) in groups.rows[..len].iter().enumerate() {
            groups.inv[groups.order[pos + j] as usize] = base + (pos + j) as u32;
            table.push_row_from(row);
        }
        pos += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud() -> Vec<Vec3> {
        (0..500)
            .map(|i| {
                let f = i as f64;
                Vec3::new(f % 10.0, (f / 10.0) % 10.0, f / 100.0)
            })
            .collect()
    }

    #[test]
    fn classic_backend_finds_exact_nn() {
        let pts = cloud();
        let mut s = Searcher3::classic(&pts);
        let n = s.nn(Vec3::new(3.1, 4.2, 2.0)).unwrap();
        let b = tigris_core::nn_brute_force(&pts, Vec3::new(3.1, 4.2, 2.0)).unwrap();
        assert_eq!(n.index, b.index);
        assert_eq!(s.stats().queries, 1);
    }

    #[test]
    fn backends_agree_on_exact_search() {
        let pts = cloud();
        let mut classic = Searcher3::classic(&pts);
        let mut two = Searcher3::two_stage(&pts, 5);
        let mut brute = Searcher3::brute_force(&pts);
        for q in [Vec3::new(1.0, 2.0, 3.0), Vec3::new(9.0, 0.5, 4.4)] {
            assert_eq!(classic.nn(q).unwrap().index, two.nn(q).unwrap().index);
            assert_eq!(classic.nn(q).unwrap().index, brute.nn(q).unwrap().index);
            assert_eq!(classic.radius(q, 1.5).len(), two.radius(q, 1.5).len());
            assert_eq!(classic.radius(q, 1.5), brute.radius(q, 1.5));
        }
    }

    #[test]
    fn approx_backend_returns_reasonable_results() {
        let pts = cloud();
        let mut s = Searcher3::two_stage_approx(&pts, 4, ApproxConfig::default());
        let mut exact = Searcher3::classic(&pts);
        for i in 0..50 {
            let q = Vec3::new((i % 10) as f64 + 0.3, (i / 5) as f64 * 0.5, 1.0);
            let a = s.nn(q).unwrap();
            let e = exact.nn(q).unwrap();
            assert!(a.distance() <= e.distance() + 2.0 * 1.2 + 1e-9);
        }
    }

    #[test]
    fn from_config_builds_every_variant() {
        let pts = cloud();
        let variants = [
            (SearchBackendConfig::Classic, "classic"),
            (SearchBackendConfig::TwoStage { top_height: 4 }, "two-stage"),
            (
                SearchBackendConfig::TwoStageApprox {
                    top_height: 4,
                    approx: ApproxConfig::default(),
                },
                "two-stage-approx",
            ),
            (SearchBackendConfig::BruteForce, "brute-force"),
            (SearchBackendConfig::Custom { name: "classic" }, "classic"),
        ];
        for (backend, expected_name) in variants {
            let mut s = Searcher3::from_config(&pts, &backend).unwrap();
            assert_eq!(s.backend_name(), expected_name, "{backend:?}");
            assert!(s.nn(Vec3::new(2.2, 3.1, 1.0)).is_some(), "{backend:?}");
        }
    }

    #[test]
    fn from_config_rejects_unknown_custom_backend() {
        let err = Searcher3::from_config(
            &cloud(),
            &SearchBackendConfig::Custom { name: "no-such-backend" },
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::UnknownBackend { name: "no-such-backend" });
    }

    #[test]
    fn debug_reports_trait_backend_name() {
        let pts = cloud();
        let repr = format!("{:?}", Searcher3::brute_force(&pts));
        assert!(repr.contains("brute-force"), "{repr}");
        let repr = format!("{:?}", Searcher3::two_stage_approx(&pts, 3, ApproxConfig::default()));
        assert!(repr.contains("two-stage-approx"), "{repr}");
    }

    #[test]
    fn injection_kth_nn_degrades_result() {
        let pts: Vec<Vec3> = (0..20).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        let mut s = Searcher3::classic(&pts);
        s.set_injection(Some(Injection::NnKth(3)));
        let n = s.nn(Vec3::new(-0.4, 0.0, 0.0)).unwrap();
        assert_eq!(pts[n.index].x, 2.0); // 3rd nearest
        s.set_injection(None);
        let n = s.nn(Vec3::new(-0.4, 0.0, 0.0)).unwrap();
        assert_eq!(pts[n.index].x, 0.0);
    }

    #[test]
    fn injection_applies_on_every_backend() {
        // The injection seam sits above the trait, so all backends degrade
        // identically under k-th-NN injection.
        let pts: Vec<Vec3> = (0..20).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        for backend in [
            SearchBackendConfig::Classic,
            SearchBackendConfig::TwoStage { top_height: 2 },
            SearchBackendConfig::BruteForce,
        ] {
            let mut s = Searcher3::from_config(&pts, &backend).unwrap();
            s.set_injection(Some(Injection::NnKth(4)));
            let n = s.nn(Vec3::new(-0.4, 0.0, 0.0)).unwrap();
            assert_eq!(pts[n.index].x, 3.0, "{backend:?}");
        }
    }

    #[test]
    fn injection_shell_drops_near_points() {
        let pts: Vec<Vec3> = (0..20).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        let mut s = Searcher3::classic(&pts);
        s.set_injection(Some(Injection::RadiusShell { inner_frac: 0.5, outer_frac: 1.25 }));
        // radius 4 → shell <2, 5>.
        let res = s.radius(Vec3::ZERO, 4.0);
        let xs: Vec<f64> = res.iter().map(|n| pts[n.index].x).collect();
        assert_eq!(xs, vec![2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn timers_accumulate() {
        let pts = cloud();
        let mut s = Searcher3::two_stage(&pts, 4);
        assert!(s.build_time() > Duration::ZERO);
        let before = s.search_time();
        for i in 0..100 {
            s.nn(Vec3::new(i as f64 * 0.07, 1.0, 1.0));
        }
        assert!(s.search_time() > before);
        assert_eq!(s.stats().queries, 100);
    }

    #[test]
    fn knn_works_on_all_backends() {
        let pts = cloud();
        for mut s in [
            Searcher3::classic(&pts),
            Searcher3::two_stage(&pts, 3),
            Searcher3::two_stage_approx(&pts, 3, ApproxConfig::default()),
            Searcher3::brute_force(&pts),
        ] {
            let r = s.knn(Vec3::new(5.0, 5.0, 2.5), 7);
            assert_eq!(r.len(), 7);
            for w in r.windows(2) {
                assert!(w[0].distance_squared <= w[1].distance_squared);
            }
        }
    }

    #[test]
    fn empty_cloud() {
        let mut s = Searcher3::classic(&[]);
        assert!(s.is_empty());
        assert!(s.nn(Vec3::ZERO).is_none());
        assert!(s.radius(Vec3::ZERO, 1.0).is_empty());
    }

    #[test]
    fn table_entry_points_match_radius_batch() {
        let pts = cloud();
        let queries: Vec<Vec3> = pts.iter().step_by(7).copied().collect();
        let mut a = Searcher3::classic(&pts);
        let mut b = Searcher3::classic(&pts);
        let expected = a.radius_batch(&queries, 1.5);
        let mut table = NeighborTable::new();
        let mut groups = GroupScratch::default();
        b.radius_batch_into(&queries, 1.5, &mut table, &mut groups);
        assert_eq!(table.rows(), expected.len());
        for (i, row) in expected.iter().enumerate() {
            assert_eq!(table.row(groups.table_row(i)), row.as_slice(), "row of query {i}");
        }
        // Visit counters reflect the grouped traversal; the per-query
        // metering contract is on `queries`.
        assert_eq!(a.stats().queries, b.stats().queries);
    }

    #[test]
    fn self_range_rows_match_batched_point_copies() {
        let pts = cloud();
        let mut a = Searcher3::two_stage(&pts, 4);
        let mut b = Searcher3::two_stage(&pts, 4);
        let copied: Vec<Vec3> = pts[100..400].to_vec();
        let expected = a.radius_batch(&copied, 1.2);
        let mut table = NeighborTable::new();
        let mut groups = GroupScratch::default();
        b.self_radius_range_into(100..400, 1.2, &mut table, &mut groups);
        assert_eq!(table.rows(), 300);
        for (i, row) in expected.iter().enumerate() {
            assert_eq!(table.row(groups.table_row(i)), row.as_slice(), "row of query {i}");
        }
        assert_eq!(a.stats().queries, b.stats().queries);
    }

    /// A stateful backend with no shared view that counts how the
    /// searcher reaches it: per-query `radius` calls vs `radius_batch`
    /// runs.
    struct CountingIndex {
        tree: KdTree,
        radius_calls: std::sync::Arc<std::sync::atomic::AtomicUsize>,
        batch_calls: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl SearchIndex for CountingIndex {
        fn from_points(points: &[Vec3]) -> Self {
            CountingIndex {
                tree: KdTree::build(points),
                radius_calls: Default::default(),
                batch_calls: Default::default(),
            }
        }

        fn name(&self) -> &'static str {
            "counting"
        }

        fn points(&self) -> &[Vec3] {
            self.tree.points()
        }

        fn nn(&mut self, query: Vec3, stats: &mut SearchStats) -> Option<Neighbor> {
            self.tree.nn_with_stats(query, stats)
        }

        fn knn(&mut self, query: Vec3, k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
            self.tree.knn_with_stats(query, k, stats)
        }

        fn radius(&mut self, query: Vec3, radius: f64, stats: &mut SearchStats) -> Vec<Neighbor> {
            self.radius_calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.tree.radius_with_stats(query, radius, stats)
        }

        fn radius_batch(
            &mut self,
            queries: &[Vec3],
            radius: f64,
            stats: &mut SearchStats,
        ) -> Vec<Vec<Neighbor>> {
            self.batch_calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            queries.iter().map(|&q| self.tree.radius_with_stats(q, radius, stats)).collect()
        }
    }

    #[test]
    fn table_entry_points_batch_on_a_backend_without_shared_view() {
        use std::sync::atomic::Ordering::Relaxed;
        let pts = cloud();
        let index = CountingIndex::from_points(&pts);
        let (radius_calls, batch_calls) = (index.radius_calls.clone(), index.batch_calls.clone());
        let mut s = Searcher3::from_index(Box::new(index), Duration::ZERO);
        let queries: Vec<Vec3> = pts.iter().step_by(7).copied().collect();
        let per_query: Vec<Vec<Neighbor>> = queries.iter().map(|&q| s.radius(q, 1.5)).collect();
        let per_point: Vec<Vec<Neighbor>> =
            pts[100..400].iter().map(|&q| s.radius(q, 1.2)).collect();
        let per_query_calls = radius_calls.load(Relaxed);
        assert_eq!(per_query_calls, queries.len() + 300);

        let mut table = NeighborTable::new();
        let mut groups = GroupScratch::default();
        s.radius_batch_into(&queries, 1.5, &mut table, &mut groups);
        for (i, row) in per_query.iter().enumerate() {
            assert_eq!(table.row(groups.table_row(i)), row.as_slice(), "row of query {i}");
        }
        s.self_radius_range_into(100..400, 1.2, &mut table, &mut groups);
        for (i, row) in per_point.iter().enumerate() {
            assert_eq!(table.row(groups.table_row(i)), row.as_slice(), "row of point {}", 100 + i);
        }
        assert_eq!(batch_calls.load(Relaxed), 2, "one backend batch per table call");
        assert_eq!(radius_calls.load(Relaxed), per_query_calls, "no per-query fallback");
        assert_eq!(s.stats().queries, 2 * (queries.len() + 300) as u64);
    }

    #[test]
    fn table_entry_points_respect_injection_fallback() {
        let pts: Vec<Vec3> = (0..20).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        let mut s = Searcher3::classic(&pts);
        s.set_injection(Some(Injection::RadiusShell { inner_frac: 0.5, outer_frac: 1.25 }));
        let mut table = NeighborTable::new();
        let mut groups = GroupScratch::default();
        s.radius_batch_into(&[Vec3::ZERO], 4.0, &mut table, &mut groups);
        let xs: Vec<f64> = table.row(0).iter().map(|n| pts[n.index].x).collect();
        assert_eq!(xs, vec![2.0, 3.0, 4.0, 5.0]);
        let mut table = NeighborTable::new();
        s.self_radius_range_into(0..1, 4.0, &mut table, &mut groups);
        let xs: Vec<f64> = table.row(0).iter().map(|n| pts[n.index].x).collect();
        assert_eq!(xs, vec![2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn table_entry_points_are_logged_and_warm_reuse_is_allocation_free() {
        let pts = cloud();
        let mut s = Searcher3::classic(&pts);
        s.enable_query_logging();
        let mut table = NeighborTable::new();
        let mut groups = GroupScratch::default();
        s.self_radius_range_into(0..10, 1.0, &mut table, &mut groups);
        s.radius_batch_into(&pts[..5], 1.0, &mut table, &mut groups);
        assert_eq!(s.take_query_log().unwrap().len(), 15);
        assert_eq!(s.stats().queries, 15);
        // Warm buffers re-running the same workload must not grow.
        let bytes = table.capacity_bytes();
        let group_bytes = groups.capacity_bytes();
        table.clear();
        s.self_radius_range_into(0..10, 1.0, &mut table, &mut groups);
        s.radius_batch_into(&pts[..5], 1.0, &mut table, &mut groups);
        assert_eq!(table.capacity_bytes(), bytes);
        assert_eq!(groups.capacity_bytes(), group_bytes);
    }
}
