//! An incrementally insertable search index for growing maps.
//!
//! Mapping workloads (tigris-map) interleave *inserts* — each registered
//! frame's points join the map — with *queries* — loop-closure checks and
//! map lookups. A static KD-tree would have to be rebuilt on every insert
//! (O(n log n) each time); a fully dynamic tree gives up the cache-friendly
//! layout the accelerator-amenable structures rely on.
//!
//! [`DynamicMapIndex`] takes the middle road, mirroring the paper's
//! two-stage split: a **static KD-tree** over the settled majority of the
//! points plus a small **fresh-points buffer** scanned exhaustively, merged
//! by a periodic rebuild once the buffer outgrows its capacity. Every query
//! is answered from both halves and merged with the brute-force
//! `(distance, index)` ordering, so results are *bit-identical* to a
//! KD-tree freshly rebuilt over the same points after any interleaving of
//! inserts and queries (verified by a proptest in
//! `core/tests/index_contract.rs`).
//!
//! The index is registered in the backend registry as `"dynamic"`, so it
//! drops into the registration pipeline, the backend-matrix bench and the
//! DSE sweeps like every other backend.
//!
//! # Example
//!
//! ```
//! use tigris_core::{DynamicMapIndex, KdTree};
//! use tigris_geom::Vec3;
//!
//! let mut index = DynamicMapIndex::new();
//! for i in 0..500 {
//!     index.insert(Vec3::new((i % 25) as f64, (i / 25) as f64, 0.0));
//! }
//! let q = Vec3::new(3.2, 7.9, 0.1);
//! let dynamic = index.nn_query(q).unwrap();
//! let rebuilt = KdTree::build(index.all_points()).nn(q).unwrap();
//! assert_eq!((dynamic.index, dynamic.distance_squared),
//!            (rebuilt.index, rebuilt.distance_squared));
//! ```

use crate::index::{SearchIndex, SharedIndex};
use crate::soa::PointSoA;
use crate::{simd, KdTree, Neighbor, SearchStats};
use tigris_geom::Vec3;

/// Default fresh-buffer capacity before a merge rebuild is triggered.
pub const DEFAULT_FRESH_CAPACITY: usize = 1024;

/// A static KD-tree plus a fresh-points buffer, merged by periodic rebuild.
///
/// Indices returned by queries refer to [`DynamicMapIndex::all_points`],
/// i.e. the points in insertion order — settled points keep their indices
/// across rebuilds, so result indices are stable for the life of the index.
///
/// See the [module docs](self) for the design rationale.
#[derive(Debug, Clone)]
pub struct DynamicMapIndex {
    /// All points in insertion order; `points[..settled]` are indexed by
    /// `tree`, `points[settled..]` are the fresh buffer.
    points: Vec<Vec3>,
    /// Static tree over the settled prefix.
    tree: KdTree,
    /// Number of settled (tree-indexed) points.
    settled: usize,
    /// SoA mirror of `points[settled..]`, scanned by the SIMD kernels.
    fresh: PointSoA,
    /// Global indices (`settled + j`) of the fresh points, for the kernels.
    fresh_ids: Vec<u32>,
    /// Fresh-buffer length that triggers a merge rebuild.
    fresh_capacity: usize,
    /// Merge rebuilds performed so far.
    rebuilds: usize,
}

impl Default for DynamicMapIndex {
    fn default() -> Self {
        DynamicMapIndex::new()
    }
}

impl DynamicMapIndex {
    /// An empty index with the default fresh-buffer capacity.
    pub fn new() -> Self {
        DynamicMapIndex::with_fresh_capacity(DEFAULT_FRESH_CAPACITY)
    }

    /// An empty index that merge-rebuilds once the fresh buffer holds
    /// `fresh_capacity` points (clamped to at least 1).
    pub fn with_fresh_capacity(fresh_capacity: usize) -> Self {
        DynamicMapIndex {
            points: Vec::new(),
            tree: KdTree::build(&[]),
            settled: 0,
            fresh: PointSoA::new(),
            fresh_ids: Vec::new(),
            fresh_capacity: fresh_capacity.max(1),
            rebuilds: 0,
        }
    }

    /// Builds an index over `points` with everything settled (no fresh
    /// buffer) — equivalent to inserting all points and forcing a rebuild.
    pub fn build(points: &[Vec3]) -> Self {
        let _span = tigris_obs::span!("core.index_build", points = points.len());
        DynamicMapIndex {
            points: points.to_vec(),
            tree: KdTree::build(points),
            settled: points.len(),
            fresh: PointSoA::new(),
            fresh_ids: Vec::new(),
            fresh_capacity: DEFAULT_FRESH_CAPACITY,
            rebuilds: 0,
        }
    }

    /// Inserts one point, merge-rebuilding when the fresh buffer is full.
    pub fn insert(&mut self, p: Vec3) {
        self.push(p);
        if self.fresh_len() >= self.fresh_capacity {
            self.rebuild();
        }
    }

    /// Inserts a batch of points (at most one rebuild at the end — cheaper
    /// than point-at-a-time inserts across a capacity boundary).
    pub fn extend(&mut self, points: &[Vec3]) {
        for &p in points {
            self.push(p);
        }
        if self.fresh_len() >= self.fresh_capacity {
            self.rebuild();
        }
    }

    /// Appends `p` to the fresh buffer. A point with a NaN or infinite
    /// coordinate takes its index but joins no scan, exactly as a tree
    /// build leaves it out (see [`KdTree::build`]).
    fn push(&mut self, p: Vec3) {
        self.points.push(p);
        if p.is_finite() {
            self.fresh.push(p);
            self.fresh_ids.push((self.points.len() - 1) as u32);
        }
    }

    /// Forces a merge rebuild: the static tree absorbs the fresh buffer.
    pub fn rebuild(&mut self) {
        if self.fresh_len() == 0 {
            return;
        }
        self.tree = KdTree::build(&self.points);
        self.settled = self.points.len();
        self.fresh.clear();
        self.fresh_ids.clear();
        self.rebuilds += 1;
    }

    /// All indexed points in insertion order (query result indices refer
    /// to this slice).
    pub fn all_points(&self) -> &[Vec3] {
        &self.points
    }

    /// Points currently served by the static tree.
    pub fn settled_len(&self) -> usize {
        self.settled
    }

    /// Points currently in the fresh buffer (scanned exhaustively).
    pub fn fresh_len(&self) -> usize {
        self.points.len() - self.settled
    }

    /// Merge rebuilds performed so far.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// The fresh-buffer capacity that triggers a merge rebuild.
    pub fn fresh_capacity(&self) -> usize {
        self.fresh_capacity
    }

    /// Heap bytes held by the index: the insertion-order point array, the
    /// settled tree and the fresh buffer (capacities, i.e. what the
    /// allocator charges). Feeds the serving layer's residency budget.
    pub fn memory_bytes(&self) -> usize {
        self.points.capacity() * std::mem::size_of::<Vec3>()
            + self.tree.memory_bytes()
            + self.fresh.memory_bytes()
            + self.fresh_ids.capacity() * std::mem::size_of::<u32>()
    }

    /// Meters one merged query: the tree half's traversal counters are
    /// folded in without double-counting the query itself, and the fresh
    /// scan bills one distance computation per buffered point.
    fn meter(&self, stats: &mut SearchStats, tree_stats: SearchStats) {
        let mut tree_stats = tree_stats;
        tree_stats.queries = 0;
        *stats += tree_stats;
        stats.queries += 1;
        stats.leaf_points_scanned += self.fresh_ids.len() as u64;
    }

    /// Nearest neighbor, bit-identical to a full rebuild's answer.
    pub fn nn_query(&self, query: Vec3) -> Option<Neighbor> {
        let mut stats = SearchStats::new();
        self.nn_query_with_stats(query, &mut stats)
    }

    /// [`DynamicMapIndex::nn_query`] with visit accounting.
    pub fn nn_query_with_stats(&self, query: Vec3, stats: &mut SearchStats) -> Option<Neighbor> {
        if self.points.is_empty() {
            return None;
        }
        let mut tree_stats = SearchStats::new();
        let mut best = self.tree.nn_with_stats(query, &mut tree_stats);
        self.meter(stats, tree_stats);
        // One kernel pass over the fresh buffer. Settled indices are always
        // lower, so the tree's answer wins distance ties — exactly the full
        // rebuild's tie-break.
        if let Some((d2, id)) = simd::nn_reduce(query, self.fresh.view(), &self.fresh_ids) {
            let cand = Neighbor::new(id as usize, d2);
            match best {
                Some(b) if cand >= b => {}
                _ => best = Some(cand),
            }
        }
        best
    }

    /// The `k` nearest neighbors, ascending by `(distance, index)`,
    /// bit-identical to a full rebuild's answer.
    pub fn knn_query(&self, query: Vec3, k: usize) -> Vec<Neighbor> {
        let mut stats = SearchStats::new();
        self.knn_query_with_stats(query, k, &mut stats)
    }

    /// [`DynamicMapIndex::knn_query`] with visit accounting.
    pub fn knn_query_with_stats(
        &self,
        query: Vec3,
        k: usize,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        if self.points.is_empty() || k == 0 {
            return Vec::new();
        }
        let mut tree_stats = SearchStats::new();
        let mut merged = self.tree.knn_with_stats(query, k, &mut tree_stats);
        self.meter(stats, tree_stats);
        // Any settled point in the global top-k is necessarily in the
        // tree's top-k, so tree-top-k ∪ fresh covers the answer.
        let mut d2s = vec![0.0_f64; self.fresh.len()];
        simd::squared_distances(query, self.fresh.view(), &mut d2s);
        merged.extend(
            d2s.iter().zip(&self.fresh_ids).map(|(&d2, &id)| Neighbor::new(id as usize, d2)),
        );
        merged.sort();
        merged.truncate(k);
        merged
    }

    /// All neighbors within `radius`, ascending by `(distance, index)`,
    /// bit-identical to a full rebuild's answer.
    ///
    /// # Panics
    ///
    /// Panics when `radius` is negative.
    pub fn radius_query(&self, query: Vec3, radius: f64) -> Vec<Neighbor> {
        let mut stats = SearchStats::new();
        self.radius_query_with_stats(query, radius, &mut stats)
    }

    /// [`DynamicMapIndex::radius_query`] with visit accounting.
    ///
    /// # Panics
    ///
    /// Panics when `radius` is negative.
    pub fn radius_query_with_stats(
        &self,
        query: Vec3,
        radius: f64,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        assert!(radius >= 0.0, "radius must be non-negative");
        if self.points.is_empty() {
            return Vec::new();
        }
        let mut tree_stats = SearchStats::new();
        let mut merged = self.tree.radius_with_stats(query, radius, &mut tree_stats);
        self.meter(stats, tree_stats);
        simd::radius_collect(
            query,
            self.fresh.view(),
            &self.fresh_ids,
            radius * radius,
            &mut merged,
        );
        merged.sort();
        merged
    }

    /// [`DynamicMapIndex::radius_query_with_stats`] for every query, in
    /// query order, inside a `core.radius_batch` span: map fan-outs (the
    /// serving layer's per-submap reads) are the radius batches worth
    /// attributing.
    pub fn radius_batch_query_with_stats(
        &self,
        queries: &[Vec3],
        radius: f64,
        stats: &mut SearchStats,
    ) -> Vec<Vec<Neighbor>> {
        let _span = tigris_obs::span!("core.radius_batch", queries = queries.len());
        queries.iter().map(|&q| self.radius_query_with_stats(q, radius, stats)).collect()
    }
}

/// Queries borrow the index shared (the buffer only grows on insert).
impl SharedIndex for DynamicMapIndex {
    fn nn_shared(&self, query: Vec3, stats: &mut SearchStats) -> Option<Neighbor> {
        self.nn_query_with_stats(query, stats)
    }

    fn knn_shared(&self, query: Vec3, k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.knn_query_with_stats(query, k, stats)
    }

    fn radius_shared(&self, query: Vec3, radius: f64, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.radius_query_with_stats(query, radius, stats)
    }
}

impl SearchIndex for DynamicMapIndex {
    fn from_points(points: &[Vec3]) -> Self {
        DynamicMapIndex::build(points)
    }

    fn name(&self) -> &'static str {
        "dynamic"
    }

    fn points(&self) -> &[Vec3] {
        &self.points
    }

    fn nn(&mut self, query: Vec3, stats: &mut SearchStats) -> Option<Neighbor> {
        self.nn_query_with_stats(query, stats)
    }

    fn knn(&mut self, query: Vec3, k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.knn_query_with_stats(query, k, stats)
    }

    fn radius(&mut self, query: Vec3, radius: f64, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.radius_query_with_stats(query, radius, stats)
    }

    fn as_shared(&self) -> Option<&dyn SharedIndex> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::{knn_brute_force, nn_brute_force, radius_brute_force};

    fn lcg_points(n: usize, seed: u64) -> Vec<Vec3> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 20.0 - 10.0
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    #[test]
    fn empty_index_answers_empty() {
        let idx = DynamicMapIndex::new();
        assert!(idx.nn_query(Vec3::ZERO).is_none());
        assert!(idx.knn_query(Vec3::ZERO, 3).is_empty());
        assert!(idx.radius_query(Vec3::ZERO, 1.0).is_empty());
        assert_eq!(idx.fresh_len(), 0);
        assert_eq!(idx.settled_len(), 0);
    }

    #[test]
    fn inserts_answer_before_any_rebuild() {
        let pts = lcg_points(100, 1);
        let mut idx = DynamicMapIndex::with_fresh_capacity(1000);
        for &p in &pts {
            idx.insert(p);
        }
        assert_eq!(idx.rebuilds(), 0);
        assert_eq!(idx.fresh_len(), 100);
        for &q in &lcg_points(30, 2) {
            assert_eq!(idx.nn_query(q), nn_brute_force(&pts, q));
            assert_eq!(idx.knn_query(q, 5), knn_brute_force(&pts, q, 5));
            assert_eq!(idx.radius_query(q, 4.0), radius_brute_force(&pts, q, 4.0));
        }
    }

    #[test]
    fn rebuild_triggers_at_capacity_and_preserves_answers() {
        let pts = lcg_points(700, 3);
        let mut idx = DynamicMapIndex::with_fresh_capacity(64);
        for &p in &pts {
            idx.insert(p);
        }
        assert!(idx.rebuilds() >= 10, "{} rebuilds", idx.rebuilds());
        assert!(idx.fresh_len() < 64);
        for &q in &lcg_points(50, 4) {
            assert_eq!(idx.nn_query(q), nn_brute_force(&pts, q));
            assert_eq!(idx.knn_query(q, 9), knn_brute_force(&pts, q, 9));
            assert_eq!(idx.radius_query(q, 3.0), radius_brute_force(&pts, q, 3.0));
        }
    }

    #[test]
    fn batch_extend_rebuilds_once() {
        let pts = lcg_points(500, 5);
        let mut idx = DynamicMapIndex::with_fresh_capacity(64);
        idx.extend(&pts);
        assert_eq!(idx.rebuilds(), 1);
        assert_eq!(idx.fresh_len(), 0);
        assert_eq!(idx.settled_len(), 500);
    }

    #[test]
    fn indices_are_stable_across_rebuilds() {
        let pts = lcg_points(300, 6);
        let mut idx = DynamicMapIndex::with_fresh_capacity(32);
        for (i, &p) in pts.iter().enumerate() {
            idx.insert(p);
            let n = idx.nn_query(p).unwrap();
            assert_eq!(n.index, i, "a just-inserted point is its own NN");
            assert_eq!(n.distance_squared, 0.0);
        }
        assert_eq!(idx.all_points(), &pts[..]);
    }

    #[test]
    fn metering_counts_one_query_per_query() {
        let mut idx = DynamicMapIndex::with_fresh_capacity(16);
        idx.extend(&lcg_points(100, 7));
        idx.insert(Vec3::ZERO); // one fresh point
        let mut stats = SearchStats::new();
        idx.nn_query_with_stats(Vec3::new(1.0, 2.0, 3.0), &mut stats);
        idx.knn_query_with_stats(Vec3::new(1.0, 2.0, 3.0), 4, &mut stats);
        idx.radius_query_with_stats(Vec3::new(1.0, 2.0, 3.0), 2.0, &mut stats);
        assert_eq!(stats.queries, 3);
        // Each query bills its one fresh point on top of whatever leaf
        // buckets the settled tree scanned.
        assert!(stats.leaf_points_scanned >= 3, "scanned {}", stats.leaf_points_scanned);
        assert!(stats.leaves_scanned > 0, "settled tree scans SoA leaf buckets");
        assert!(stats.tree_nodes_visited > 0);
    }

    #[test]
    fn shared_batches_match_serial_queries_bitwise() {
        // The batch paths (the &self radius batch published map epochs
        // use, and the trait's nn batch) must answer and meter exactly
        // like serial queries.
        let mut idx = DynamicMapIndex::with_fresh_capacity(32);
        idx.extend(&lcg_points(300, 11));
        idx.insert(Vec3::new(0.1, 0.2, 0.3)); // leave a fresh point in play
        let queries = lcg_points(64, 12);
        let mut serial_stats = SearchStats::new();
        let nn_serial: Vec<_> =
            queries.iter().map(|&q| idx.nn_query_with_stats(q, &mut serial_stats)).collect();
        let radius_serial: Vec<_> = queries
            .iter()
            .map(|&q| idx.radius_query_with_stats(q, 3.0, &mut serial_stats))
            .collect();

        let mut batch_stats = SearchStats::new();
        assert_eq!(idx.nn_batch(&queries, &mut batch_stats), nn_serial);
        assert_eq!(
            idx.radius_batch_query_with_stats(&queries, 3.0, &mut batch_stats),
            radius_serial
        );
        assert_eq!(batch_stats, serial_stats, "stats must merge losslessly");
    }

    #[test]
    fn memory_bytes_tracks_insertions_across_rebuilds() {
        let mut idx = DynamicMapIndex::with_fresh_capacity(64);
        assert_eq!(idx.memory_bytes(), 0);
        let mut at_prev_milestone = 0;
        for (i, p) in lcg_points(1000, 9).into_iter().enumerate() {
            idx.insert(p);
            // Live data is always charged, whether a point currently sits
            // in the fresh buffer or the settled tree.
            assert!(idx.memory_bytes() >= (i + 1) * std::mem::size_of::<Vec3>());
            if (i + 1) % 250 == 0 {
                let now = idx.memory_bytes();
                assert!(now > at_prev_milestone, "{now} at {} points", i + 1);
                at_prev_milestone = now;
            }
        }
        // A rebuild folds the fresh buffer into the tree; the settled tree
        // (two point copies + ids) still dominates the accounting.
        idx.rebuild();
        assert!(idx.memory_bytes() >= idx.tree.memory_bytes());
    }

    #[test]
    fn trait_construction_is_fully_settled() {
        let pts = lcg_points(200, 8);
        let idx = <DynamicMapIndex as SearchIndex>::from_points(&pts);
        assert_eq!(idx.settled_len(), 200);
        assert_eq!(idx.fresh_len(), 0);
        assert_eq!(SearchIndex::name(&idx), "dynamic");
        assert_eq!(SearchIndex::points(&idx), &pts[..]);
        assert_eq!(SearchIndex::len(&idx), 200);
    }
}
