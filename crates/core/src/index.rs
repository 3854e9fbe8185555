//! The `SearchIndex` trait: the pluggable backend seam of the search
//! engine.
//!
//! Tigris's central architectural claim (paper Sec. 4–5) is that the
//! KD-tree search backend is *swappable* — canonical software tree,
//! two-stage tree, approximate leader/follower search, or the simulated
//! accelerator — while the registration pipeline above stays fixed. This
//! module makes that seam a first-class public trait:
//!
//! * [`SearchIndex`] — build-from-points construction, `nn`/`knn`/`radius`
//!   queries plus batched `nn`/`radius` forms, and name reporting. Every
//!   backend (including stateful approximate ones) implements it, so the
//!   pipeline's `Searcher3` can hold a `Box<dyn SearchIndex>` and new
//!   backends plug in without touching the pipeline. The `*_batch`
//!   defaults are the serial loop over the single-query methods (one
//!   dynamic call per batch, static dispatch per query); only the
//!   accelerator, which replays a batch as one hardware run, overrides
//!   them.
//! * [`SharedIndex`] — the `&self` query view of the stateless exact
//!   backends, reachable through [`SearchIndex::as_shared`]. Callers that
//!   hold the index borrowed shared (the pipeline's front end querying
//!   the searcher's own point slice) call it directly; stateful backends
//!   simply return `None` and keep the exclusive path.
//! * [`register_backend`]/[`build_backend`]/[`backend_names`] — a
//!   process-wide registry of named backend factories. The five built-in
//!   backends are pre-registered; external crates (e.g. `tigris-accel`'s
//!   online accelerator backend) add their own.
//!
//! # Example
//!
//! ```
//! use tigris_core::index::{build_backend, SearchIndex};
//! use tigris_core::SearchStats;
//! use tigris_geom::Vec3;
//!
//! let pts: Vec<Vec3> = (0..512)
//!     .map(|i| Vec3::new((i % 16) as f64, (i / 16) as f64, 0.0))
//!     .collect();
//! // Any registered backend can serve the same queries.
//! for name in ["classic", "two-stage", "brute-force"] {
//!     let mut index = build_backend(name, &pts).unwrap();
//!     let mut stats = SearchStats::new();
//!     let n = index.nn(Vec3::new(3.2, 7.9, 0.1), &mut stats).unwrap();
//!     assert_eq!(pts[n.index], Vec3::new(3.0, 8.0, 0.0));
//!     assert_eq!(index.name(), name);
//! }
//! ```

use std::collections::BTreeMap;
use std::sync::{OnceLock, RwLock};

use crate::approx::ApproxIndex;
use crate::bruteforce::BruteForceIndex;
use crate::dynamic::DynamicMapIndex;
use crate::twostage::default_top_height;
use crate::{KdTree, Neighbor, SearchStats, TwoStageKdTree};
use tigris_geom::Vec3;

/// A neighbor-search backend over one 3D point cloud.
///
/// This is the boundary between the registration pipeline and the search
/// engine: the pipeline issues `nn`/`knn`/`radius` queries (`nn` and
/// `radius` also batched) and never sees which structure serves them.
/// Implementations:
///
/// | backend | type | exactness |
/// |---|---|---|
/// | `"classic"` | [`KdTree`] | exact |
/// | `"two-stage"` | [`TwoStageKdTree`] | exact |
/// | `"two-stage-approx"` | [`ApproxIndex`] | Algorithm-1 approximate |
/// | `"brute-force"` | [`BruteForceIndex`] | exact (oracle) |
/// | `"dynamic"` | [`DynamicMapIndex`] | exact, insertable |
/// | `"accelerator"` | `tigris-accel`'s `AccelBackend` | exact or approximate |
///
/// Methods take `&mut self` so stateful backends (approximate leader
/// books, accelerator leader buffers) can evolve as queries stream
/// through; stateless trees simply reborrow shared.
///
/// Implementations must be `Send + Sync`: a built index may be moved
/// into — and shared behind — structures served to many threads at once
/// (the serving layer's per-submap indexes). No builtin uses
/// interior mutability, so `Sync` is automatic; a custom backend that
/// wants query-time interior state must synchronize it itself.
///
/// # Contract
///
/// Implementations must uphold (verified by `core/tests/index_contract.rs`):
///
/// * exact backends return results bit-identical to brute force
///   (same indices, same squared distances, ties broken to the lower
///   index, radius/knn results ascending by `(distance, index)`);
/// * approximate backends stay within their configured bound (NN distance
///   exceeds exact by at most `2·thd`; radius results are a sound subset);
/// * every `*_batch` method returns exactly what the serial method would,
///   in query order, with [`SearchStats`] merged losslessly.
pub trait SearchIndex: Send + Sync {
    /// Builds this backend over `points` with its default parameters.
    ///
    /// Parameterized backends expose richer constructors on the concrete
    /// type (e.g. [`TwoStageKdTree::build`] takes a top height); this
    /// entry point is what the registry's factories use.
    fn from_points(points: &[Vec3]) -> Self
    where
        Self: Sized;

    /// Stable backend identifier (`"classic"`, `"two-stage"`, …) — the
    /// same string the backend is registered under, used for labels,
    /// `Debug` output and registry lookups.
    fn name(&self) -> &'static str;

    /// The indexed points, in build order (result indices refer to this
    /// slice).
    fn points(&self) -> &[Vec3];

    /// Number of indexed points.
    fn len(&self) -> usize {
        self.points().len()
    }

    /// `true` when no points are indexed.
    fn is_empty(&self) -> bool {
        self.points().is_empty()
    }

    /// Nearest neighbor of `query`, or `None` on an empty index.
    fn nn(&mut self, query: Vec3, stats: &mut SearchStats) -> Option<Neighbor>;

    /// The `k` nearest neighbors of `query`, ascending by distance
    /// (fewer when the index holds fewer than `k` points).
    fn knn(&mut self, query: Vec3, k: usize, stats: &mut SearchStats) -> Vec<Neighbor>;

    /// All neighbors within `radius` of `query`, ascending by distance.
    fn radius(&mut self, query: Vec3, radius: f64, stats: &mut SearchStats) -> Vec<Neighbor>;

    /// Nearest neighbor of every query; results in query order.
    ///
    /// The default is the serial loop over [`SearchIndex::nn`]: one
    /// dynamic call per batch, never one per query.
    fn nn_batch(&mut self, queries: &[Vec3], stats: &mut SearchStats) -> Vec<Option<Neighbor>> {
        queries.iter().map(|&q| self.nn(q, stats)).collect()
    }

    /// All neighbors within `radius` of every query; results in query
    /// order. The default is the serial loop over [`SearchIndex::radius`].
    fn radius_batch(
        &mut self,
        queries: &[Vec3],
        radius: f64,
        stats: &mut SearchStats,
    ) -> Vec<Vec<Neighbor>> {
        queries.iter().map(|&q| self.radius(q, radius, stats)).collect()
    }

    /// Clears any approximation state accumulated across queries (leader
    /// books, leader buffers) — call between frames. No-op for exact
    /// backends.
    fn reset(&mut self) {}

    /// The shared-read (`&self`) query view of this backend, when it has
    /// one.
    ///
    /// Exact stateless backends (`"classic"`, `"two-stage"`,
    /// `"brute-force"`, `"dynamic"`) return `Some`; stateful backends
    /// whose queries mutate (approximate leader books, accelerator
    /// buffers) return the default `None` and callers fall back to the
    /// exclusive `&mut self` entry points.
    fn as_shared(&self) -> Option<&dyn SharedIndex> {
        None
    }
}

/// Shared-read (`&self`) queries over an exact backend.
///
/// [`SearchIndex`] queries take `&mut self` so stateful backends can
/// evolve, which forces callers that query an index *about its own
/// points* to copy those points out first (the borrow checker will not
/// split "read the point slice" from "query the index"). This trait is
/// the escape hatch: backends with genuinely immutable queries expose
/// them at `&self`, reached via [`SearchIndex::as_shared`]. Results and
/// [`SearchStats`] metering are bit-identical to the `&mut` entry
/// points — the contract suite compares them directly.
pub trait SharedIndex: Sync {
    /// Nearest neighbor of `query`, or `None` on an empty index.
    fn nn_shared(&self, query: Vec3, stats: &mut SearchStats) -> Option<Neighbor>;

    /// The `k` nearest neighbors of `query`, ascending by distance.
    fn knn_shared(&self, query: Vec3, k: usize, stats: &mut SearchStats) -> Vec<Neighbor>;

    /// All neighbors within `radius` of `query`, ascending by distance.
    fn radius_shared(&self, query: Vec3, radius: f64, stats: &mut SearchStats) -> Vec<Neighbor>;

    /// The two nearest neighbors of `query`, `[nearest, second]` under
    /// the `(d², index)` order, `None` where the index holds fewer
    /// points — exactly [`SharedIndex::knn_shared`] with `k = 2`, which
    /// is the default. The exact trees override it with a heap-free
    /// 2-NN walk; ICP's certified correspondence reuse issues it.
    fn nn2_shared(&self, query: Vec3, stats: &mut SearchStats) -> [Option<Neighbor>; 2] {
        let two = self.knn_shared(query, 2, stats);
        [two.first().copied(), two.get(1).copied()]
    }

    /// Radius search for a group of co-located queries, one output row
    /// per query: `rows[i]` is cleared and then receives exactly the
    /// hits [`SharedIndex::radius_shared`] would return for
    /// `queries[i]`, in the same canonical `(d², index)` order.
    /// Backends that can amortize one traversal across the whole group
    /// override this; the default simply loops. Callers get the best
    /// results from groups whose spatial extent is at most a radius or
    /// so — a loose group drags every member through subtrees only its
    /// farthest peer can reach.
    ///
    /// # Panics
    ///
    /// Panics when `rows.len() != queries.len()`.
    fn radius_group_into_shared(
        &self,
        queries: &[Vec3],
        radius: f64,
        rows: &mut [Vec<Neighbor>],
        stats: &mut SearchStats,
    ) {
        assert_eq!(queries.len(), rows.len(), "one output row per query");
        for (q, row) in queries.iter().zip(rows.iter_mut()) {
            row.clear();
            row.extend(self.radius_shared(*q, radius, stats));
        }
    }

    /// [`SharedIndex::radius_group_into_shared`] minus the ordering
    /// guarantee: `rows[i]` receives exactly the hit *set* of
    /// `queries[i]` — same neighbors, same bits — in an unspecified
    /// order. Backends whose grouped traversal produces rows in
    /// traversal order override this to skip the canonical `(d²,
    /// index)` re-sort, the dominant per-row cost on dense
    /// neighborhoods; the default just returns sorted rows, a valid
    /// instance of "unspecified". Only consumers whose accumulation is
    /// order-independent may use this.
    ///
    /// # Panics
    ///
    /// Panics when `rows.len() != queries.len()`.
    fn radius_group_unsorted_into_shared(
        &self,
        queries: &[Vec3],
        radius: f64,
        rows: &mut [Vec<Neighbor>],
        stats: &mut SearchStats,
    ) {
        self.radius_group_into_shared(queries, radius, rows, stats);
    }
}

impl SearchIndex for KdTree {
    fn from_points(points: &[Vec3]) -> Self {
        KdTree::build(points)
    }

    fn name(&self) -> &'static str {
        "classic"
    }

    fn points(&self) -> &[Vec3] {
        KdTree::points(self)
    }

    fn nn(&mut self, query: Vec3, stats: &mut SearchStats) -> Option<Neighbor> {
        self.nn_with_stats(query, stats)
    }

    fn knn(&mut self, query: Vec3, k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.knn_with_stats(query, k, stats)
    }

    fn radius(&mut self, query: Vec3, radius: f64, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.radius_with_stats(query, radius, stats)
    }

    fn as_shared(&self) -> Option<&dyn SharedIndex> {
        Some(self)
    }
}

impl SharedIndex for KdTree {
    fn nn_shared(&self, query: Vec3, stats: &mut SearchStats) -> Option<Neighbor> {
        self.nn_with_stats(query, stats)
    }

    fn nn2_shared(&self, query: Vec3, stats: &mut SearchStats) -> [Option<Neighbor>; 2] {
        self.nn2_with_stats(query, stats)
    }

    fn knn_shared(&self, query: Vec3, k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.knn_with_stats(query, k, stats)
    }

    fn radius_shared(&self, query: Vec3, radius: f64, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.radius_with_stats(query, radius, stats)
    }

    fn radius_group_into_shared(
        &self,
        queries: &[Vec3],
        radius: f64,
        rows: &mut [Vec<Neighbor>],
        stats: &mut SearchStats,
    ) {
        self.radius_group_into_with_stats(queries, radius, rows, stats);
    }

    fn radius_group_unsorted_into_shared(
        &self,
        queries: &[Vec3],
        radius: f64,
        rows: &mut [Vec<Neighbor>],
        stats: &mut SearchStats,
    ) {
        self.radius_group_unsorted_into_with_stats(queries, radius, rows, stats);
    }
}

impl SearchIndex for TwoStageKdTree {
    fn from_points(points: &[Vec3]) -> Self {
        TwoStageKdTree::build(points, default_top_height(points.len()))
    }

    fn name(&self) -> &'static str {
        "two-stage"
    }

    fn points(&self) -> &[Vec3] {
        TwoStageKdTree::points(self)
    }

    fn nn(&mut self, query: Vec3, stats: &mut SearchStats) -> Option<Neighbor> {
        self.nn_with_stats(query, stats)
    }

    fn knn(&mut self, query: Vec3, k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.knn_with_stats(query, k, stats)
    }

    fn radius(&mut self, query: Vec3, radius: f64, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.radius_with_stats(query, radius, stats)
    }

    fn as_shared(&self) -> Option<&dyn SharedIndex> {
        Some(self)
    }
}

impl SharedIndex for TwoStageKdTree {
    fn nn_shared(&self, query: Vec3, stats: &mut SearchStats) -> Option<Neighbor> {
        self.nn_with_stats(query, stats)
    }

    fn nn2_shared(&self, query: Vec3, stats: &mut SearchStats) -> [Option<Neighbor>; 2] {
        self.nn2_with_stats(query, stats)
    }

    fn knn_shared(&self, query: Vec3, k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.knn_with_stats(query, k, stats)
    }

    fn radius_shared(&self, query: Vec3, radius: f64, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.radius_with_stats(query, radius, stats)
    }
}

impl SearchIndex for BruteForceIndex {
    fn from_points(points: &[Vec3]) -> Self {
        BruteForceIndex::new(points.to_vec())
    }

    fn name(&self) -> &'static str {
        "brute-force"
    }

    fn points(&self) -> &[Vec3] {
        BruteForceIndex::points(self)
    }

    fn nn(&mut self, query: Vec3, stats: &mut SearchStats) -> Option<Neighbor> {
        BruteForceIndex::nn_with_stats(self, query, stats)
    }

    fn knn(&mut self, query: Vec3, k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        BruteForceIndex::knn_with_stats(self, query, k, stats)
    }

    fn radius(&mut self, query: Vec3, radius: f64, stats: &mut SearchStats) -> Vec<Neighbor> {
        BruteForceIndex::radius_with_stats(self, query, radius, stats)
    }

    fn as_shared(&self) -> Option<&dyn SharedIndex> {
        Some(self)
    }
}

impl SharedIndex for BruteForceIndex {
    fn nn_shared(&self, query: Vec3, stats: &mut SearchStats) -> Option<Neighbor> {
        BruteForceIndex::nn_with_stats(self, query, stats)
    }

    fn knn_shared(&self, query: Vec3, k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        BruteForceIndex::knn_with_stats(self, query, k, stats)
    }

    fn radius_shared(&self, query: Vec3, radius: f64, stats: &mut SearchStats) -> Vec<Neighbor> {
        BruteForceIndex::radius_with_stats(self, query, radius, stats)
    }
}

// ---- Backend registry ----------------------------------------------------

/// A named backend factory: builds an index over a point slice.
pub type BackendFactory = Box<dyn Fn(&[Vec3]) -> Box<dyn SearchIndex> + Send + Sync>;

fn registry() -> &'static RwLock<BTreeMap<String, BackendFactory>> {
    static REGISTRY: OnceLock<RwLock<BTreeMap<String, BackendFactory>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut map: BTreeMap<String, BackendFactory> = BTreeMap::new();
        map.insert("classic".into(), Box::new(|pts| Box::new(KdTree::from_points(pts))));
        map.insert("two-stage".into(), Box::new(|pts| Box::new(TwoStageKdTree::from_points(pts))));
        map.insert(
            "two-stage-approx".into(),
            Box::new(|pts| Box::new(ApproxIndex::from_points(pts))),
        );
        map.insert(
            "brute-force".into(),
            Box::new(|pts| Box::new(BruteForceIndex::from_points(pts))),
        );
        map.insert("dynamic".into(), Box::new(|pts| Box::new(DynamicMapIndex::from_points(pts))));
        RwLock::new(map)
    })
}

/// Registers (or replaces) a named backend factory, making it selectable
/// by name from any layer — `build_backend`, the pipeline's
/// `SearchBackendConfig::Custom`, and the backend-matrix bench all resolve
/// through this registry. Returns `true` when the name was new, `false`
/// when an existing factory was replaced.
///
/// The five built-in backends (`"classic"`, `"two-stage"`,
/// `"two-stage-approx"`, `"brute-force"`, `"dynamic"`) are pre-registered;
/// `tigris-accel` registers `"accelerator"` via
/// `register_accelerator_backend()`.
pub fn register_backend(
    name: impl Into<String>,
    factory: impl Fn(&[Vec3]) -> Box<dyn SearchIndex> + Send + Sync + 'static,
) -> bool {
    registry()
        .write()
        .expect("backend registry poisoned")
        .insert(name.into(), Box::new(factory))
        .is_none()
}

/// Builds the backend registered under `name` over `points`, or `None`
/// when no such backend is registered.
pub fn build_backend(name: &str, points: &[Vec3]) -> Option<Box<dyn SearchIndex>> {
    registry().read().expect("backend registry poisoned").get(name).map(|f| f(points))
}

/// The names of all registered backends, in ascending lexicographic
/// order.
///
/// The ordering is a documented guarantee, not an accident of the
/// registry's storage: sweeps, benches and logs iterate this list, and a
/// registration-order- or hash-dependent sequence would make their
/// output differ run to run (and machine to machine) for no semantic
/// reason. The explicit sort keeps the guarantee independent of the
/// backing container.
pub fn backend_names() -> Vec<String> {
    let mut names: Vec<String> =
        registry().read().expect("backend registry poisoned").keys().cloned().collect();
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|i| Vec3::new((i % 10) as f64, ((i / 10) % 10) as f64, (i / 100) as f64))
            .collect()
    }

    #[test]
    fn builtins_are_registered() {
        let names = backend_names();
        for builtin in ["classic", "two-stage", "two-stage-approx", "brute-force", "dynamic"] {
            assert!(names.iter().any(|n| n == builtin), "{builtin} missing from {names:?}");
        }
    }

    #[test]
    fn built_backends_report_their_registered_name() {
        let pts = grid(200);
        for name in ["classic", "two-stage", "two-stage-approx", "brute-force", "dynamic"] {
            let index = build_backend(name, &pts).unwrap();
            assert_eq!(index.name(), name);
            assert_eq!(index.len(), 200);
            assert!(!index.is_empty());
        }
    }

    #[test]
    fn unknown_backend_is_none() {
        assert!(build_backend("warp-drive", &grid(10)).is_none());
    }

    #[test]
    fn backend_names_are_deterministically_sorted() {
        // The listing order is a documented guarantee (sweeps, benches
        // and logs iterate it): ascending lexicographic, stable across
        // calls, registration order irrelevant.
        let names = backend_names();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "backend_names() must come back sorted");
        assert_eq!(names, backend_names(), "repeat calls must agree exactly");
        // A name registered "out of order" (lexicographically early,
        // registered late) still lands in its sorted position.
        register_backend("aaa-sort-probe", |pts| Box::new(KdTree::build(pts)));
        let with_probe = backend_names();
        assert_eq!(with_probe.first().map(String::as_str), Some("aaa-sort-probe"));
        let mut resorted = with_probe.clone();
        resorted.sort();
        assert_eq!(with_probe, resorted);
    }

    #[test]
    fn custom_backend_round_trips() {
        // Registering a wrapper under a new name makes it buildable.
        let fresh = register_backend("classic-copy", |pts| Box::new(KdTree::build(pts)));
        assert!(fresh);
        let mut index = build_backend("classic-copy", &grid(50)).unwrap();
        let mut stats = SearchStats::new();
        assert!(index.nn(Vec3::ZERO, &mut stats).is_some());
        // Re-registering the same name replaces, not duplicates.
        assert!(!register_backend("classic-copy", |pts| Box::new(KdTree::build(pts))));
    }

    #[test]
    fn trait_objects_serve_all_query_kinds() {
        let pts = grid(300);
        let mut index: Box<dyn SearchIndex> = build_backend("two-stage", &pts).unwrap();
        let mut stats = SearchStats::new();
        let q = Vec3::new(4.2, 5.1, 0.7);
        let nn = index.nn(q, &mut stats).unwrap();
        let knn = index.knn(q, 5, &mut stats);
        let ball = index.radius(q, 2.0, &mut stats);
        assert_eq!(knn[0].index, nn.index);
        assert!(ball.iter().any(|n| n.index == nn.index));
        assert_eq!(stats.queries, 3);
    }

    #[test]
    fn shared_view_matches_exclusive_queries() {
        let pts = grid(300);
        let queries = grid(40);
        for name in ["classic", "two-stage", "brute-force", "dynamic"] {
            let mut index = build_backend(name, &pts).unwrap();
            let mut exclusive = SearchStats::new();
            let expected: Vec<_> = queries
                .iter()
                .map(|&q| {
                    (
                        index.nn(q, &mut exclusive),
                        index.knn(q, 4, &mut exclusive),
                        index.radius(q, 2.0, &mut exclusive),
                    )
                })
                .collect();
            let shared = index.as_shared().unwrap_or_else(|| panic!("{name} must be shared"));
            let mut stats = SearchStats::new();
            for (&q, want) in queries.iter().zip(&expected) {
                assert_eq!(shared.nn_shared(q, &mut stats), want.0, "{name} nn");
                assert_eq!(shared.knn_shared(q, 4, &mut stats), want.1, "{name} knn");
                assert_eq!(shared.radius_shared(q, 2.0, &mut stats), want.2, "{name} radius");
            }
            assert_eq!(stats, exclusive, "{name} metering must match");
        }
    }

    #[test]
    fn stateful_backends_have_no_shared_view() {
        let index = build_backend("two-stage-approx", &grid(100)).unwrap();
        assert!(index.as_shared().is_none());
    }

    #[test]
    fn default_batch_methods_match_serial() {
        // BruteForceIndex routed through the trait's batch entry points.
        let pts = grid(120);
        let queries = grid(40);
        let mut a: Box<dyn SearchIndex> = Box::new(BruteForceIndex::new(pts.clone()));
        let mut b: Box<dyn SearchIndex> = Box::new(BruteForceIndex::new(pts));
        let mut sa = SearchStats::new();
        let mut sb = SearchStats::new();
        let serial: Vec<_> = queries.iter().map(|&q| a.nn(q, &mut sa)).collect();
        let batched = b.nn_batch(&queries, &mut sb);
        assert_eq!(serial, batched);
        assert_eq!(sa, sb);
    }
}
