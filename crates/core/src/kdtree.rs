//! The canonical KD-tree (paper Fig. 5a), stored cache-compact.
//!
//! Interior nodes carry only a split axis and plane; all points live in
//! leaf buckets of at most [`LEAF_SIZE`] points. Median splits keep the
//! tree balanced, giving `O(log n)` expected search; search prunes any
//! sub-tree whose half-space cannot contain a result closer than the
//! current best — the pruning that makes KD-trees efficient but also
//! *serializes* the search, which is the paper's motivation for the
//! two-stage variant.
//!
//! # Memory layout
//!
//! The structure is tuned for the cache, not for pointer elegance:
//!
//! * **Implicit (Eytzinger) node array** — interior nodes live in a flat
//!   `Vec` at heap positions (children of slot `e` at `2e+1` / `2e+2`),
//!   so descending a level is index arithmetic on a contiguous array
//!   instead of chasing child pointers, and the hot top levels of the
//!   tree share a handful of cache lines.
//! * **SoA leaf buckets** — leaf points are gathered into one
//!   [`PointSoA`] arena in depth-first leaf order; each leaf owns a
//!   contiguous lane slice sized to the SIMD width ([`LEAF_SIZE`] = 2×8
//!   lanes), which the [`crate::simd`] kernels scan without touching the
//!   original `Vec3` array.
//!
//! All results still refer to indices in the original build-order point
//! slice, and remain bit-identical to the previous one-point-per-node
//! layout: results are globally ordered by `(distance², index)`, which is
//! independent of traversal and bucket order.

use std::collections::BinaryHeap;

use crate::soa::PointSoA;
use crate::{simd, Neighbor, SearchStats};
use tigris_geom::Vec3;

/// Maximum points per leaf bucket: two full 8-lane SIMD blocks.
pub const LEAF_SIZE: usize = 2 * simd::LANES;

/// One implicit-array slot.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Padding for heap positions no subtree reached.
    Empty,
    /// An interior node: a splitting plane only, no point.
    Interior {
        /// Split axis: 0, 1 or 2.
        axis: u8,
        /// Split plane coordinate along `axis`.
        split: f64,
    },
    /// A leaf bucket: a contiguous range of the SoA arena.
    Leaf {
        /// First arena slot of this leaf.
        start: u32,
        /// Number of points in this leaf.
        len: u32,
    },
}

/// A canonical 3D KD-tree over a point set.
///
/// The tree owns a copy of the points; all results refer to indices in the
/// original input slice.
///
/// # Example
///
/// ```
/// use tigris_core::KdTree;
/// use tigris_geom::Vec3;
///
/// let pts = vec![Vec3::ZERO, Vec3::X, Vec3::Y, Vec3::new(5.0, 5.0, 5.0)];
/// let tree = KdTree::build(&pts);
/// assert_eq!(tree.nn(Vec3::new(0.9, 0.1, 0.0)).unwrap().index, 1);
/// assert_eq!(tree.radius(Vec3::ZERO, 1.5).len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct KdTree {
    points: Vec<Vec3>,
    /// Implicit node array: children of slot `e` at `2e+1` / `2e+2`.
    nodes: Vec<Slot>,
    /// Leaf point coordinates, SoA, in depth-first leaf order.
    arena: PointSoA,
    /// Arena slot → index in `points` (build order).
    ids: Vec<u32>,
    height: usize,
}

impl KdTree {
    /// Builds a balanced KD-tree by recursive median splits.
    ///
    /// The split axis at each node is the axis of largest extent of the
    /// node's point subset (the classic surface-area heuristic simplified
    /// for points). Construction is `O(n log² n)`.
    ///
    /// Points with a NaN or infinite coordinate are left out of the tree:
    /// they keep their slot in [`KdTree::points`] (so indices still refer
    /// to the input) but no search ever returns them.
    pub fn build(points: &[Vec3]) -> Self {
        let mut tree = KdTree {
            points: points.to_vec(),
            nodes: Vec::new(),
            arena: PointSoA::with_capacity(points.len()),
            ids: Vec::with_capacity(points.len()),
            height: 0,
        };
        let mut indices = finite_indices(points);
        if indices.is_empty() {
            return tree;
        }
        let mut height = 0;
        build_into(
            points,
            &mut indices[..],
            0,
            &mut tree.nodes,
            &mut tree.arena,
            &mut tree.ids,
            1,
            &mut height,
        );
        tree.height = height;
        tree
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the tree indexes no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Height of the tree (number of levels, counting the leaf level;
    /// 0 for an empty tree).
    pub fn height(&self) -> usize {
        self.height
    }

    /// The indexed points.
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// Number of interior (splitting-plane) nodes.
    pub fn interior_count(&self) -> usize {
        self.nodes.iter().filter(|s| matches!(s, Slot::Interior { .. })).count()
    }

    /// Number of leaf buckets.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|s| matches!(s, Slot::Leaf { .. })).count()
    }

    /// Heap bytes held by the tree: the point copy, the implicit node
    /// array, the SoA leaf arena and the id map (capacities, i.e. what
    /// the allocator charges).
    pub fn memory_bytes(&self) -> usize {
        self.points.capacity() * std::mem::size_of::<Vec3>()
            + self.nodes.capacity() * std::mem::size_of::<Slot>()
            + self.arena.memory_bytes()
            + self.ids.capacity() * std::mem::size_of::<u32>()
    }

    /// Nearest neighbor of `query`, or `None` for an empty tree.
    pub fn nn(&self, query: Vec3) -> Option<Neighbor> {
        let mut stats = SearchStats::new();
        self.nn_with_stats(query, &mut stats)
    }

    /// Nearest neighbor, accumulating visit counters into `stats`.
    ///
    /// Interior visits bill `tree_nodes_visited`; leaf buckets bill
    /// `leaves_scanned` / `leaf_points_scanned` (they are exhaustive SIMD
    /// scans, not per-point traversal).
    pub fn nn_with_stats(&self, query: Vec3, stats: &mut SearchStats) -> Option<Neighbor> {
        if self.nodes.is_empty() {
            return None;
        }
        stats.queries += 1;
        let mut best_d2 = f64::INFINITY;
        let mut best_id = u32::MAX;
        self.nn_recurse(0, query, &mut best_d2, &mut best_id, stats);
        (best_id != u32::MAX).then(|| Neighbor::new(best_id as usize, best_d2))
    }

    fn nn_recurse(
        &self,
        slot: usize,
        query: Vec3,
        best_d2: &mut f64,
        best_id: &mut u32,
        stats: &mut SearchStats,
    ) {
        match self.nodes[slot] {
            Slot::Empty => unreachable!("traversal never reaches padding slots"),
            Slot::Leaf { start, len } => {
                let (start, len) = (start as usize, len as usize);
                stats.leaves_scanned += 1;
                stats.leaf_points_scanned += len as u64;
                let view = self.arena.range(start, len);
                if let Some((d2, id)) = simd::nn_reduce(query, view, &self.ids[start..start + len])
                {
                    if d2 < *best_d2 || (d2 == *best_d2 && id < *best_id) {
                        *best_d2 = d2;
                        *best_id = id;
                    }
                }
            }
            Slot::Interior { axis, split } => {
                stats.tree_nodes_visited += 1;
                let delta = query.axis(axis as usize) - split;
                let (near, far) = if delta < 0.0 {
                    (2 * slot + 1, 2 * slot + 2)
                } else {
                    (2 * slot + 2, 2 * slot + 1)
                };
                self.nn_recurse(near, query, best_d2, best_id, stats);
                // The far half-space can only contain a better result when
                // the sphere around the query with the current best radius
                // crosses the splitting plane.
                if delta * delta <= *best_d2 {
                    self.nn_recurse(far, query, best_d2, best_id, stats);
                } else {
                    stats.subtrees_pruned += 1;
                }
            }
        }
    }

    /// The two nearest neighbors of `query` under the `(d², index)`
    /// order — exactly `knn(query, 2)`, without the heap: `[nearest,
    /// second]`, `None` where the tree holds fewer points.
    pub fn nn2(&self, query: Vec3) -> [Option<Neighbor>; 2] {
        let mut stats = SearchStats::new();
        self.nn2_with_stats(query, &mut stats)
    }

    /// [`KdTree::nn2`] with visit accounting (billed like
    /// [`KdTree::nn_with_stats`]); sub-trees are pruned against the
    /// second-best distance.
    pub fn nn2_with_stats(&self, query: Vec3, stats: &mut SearchStats) -> [Option<Neighbor>; 2] {
        if self.nodes.is_empty() {
            return [None, None];
        }
        stats.queries += 1;
        let mut top = simd::TOP2_EMPTY;
        self.nn2_recurse(0, query, &mut top, stats);
        simd::top2_neighbors(&top)
    }

    fn nn2_recurse(&self, slot: usize, query: Vec3, top: &mut simd::Top2, stats: &mut SearchStats) {
        match self.nodes[slot] {
            Slot::Empty => unreachable!("traversal never reaches padding slots"),
            Slot::Leaf { start, len } => {
                let (start, len) = (start as usize, len as usize);
                stats.leaves_scanned += 1;
                stats.leaf_points_scanned += len as u64;
                let view = self.arena.range(start, len);
                simd::nn2_reduce(query, view, &self.ids[start..start + len], top);
            }
            Slot::Interior { axis, split } => {
                stats.tree_nodes_visited += 1;
                let delta = query.axis(axis as usize) - split;
                let (near, far) = if delta < 0.0 {
                    (2 * slot + 1, 2 * slot + 2)
                } else {
                    (2 * slot + 2, 2 * slot + 1)
                };
                self.nn2_recurse(near, query, top, stats);
                if delta * delta <= top[1].0 {
                    self.nn2_recurse(far, query, top, stats);
                } else {
                    stats.subtrees_pruned += 1;
                }
            }
        }
    }

    /// The `k` nearest neighbors of `query`, sorted ascending by distance.
    ///
    /// Returns fewer than `k` results when the tree holds fewer points.
    pub fn knn(&self, query: Vec3, k: usize) -> Vec<Neighbor> {
        let mut stats = SearchStats::new();
        self.knn_with_stats(query, k, &mut stats)
    }

    /// k-NN with visit accounting.
    pub fn knn_with_stats(&self, query: Vec3, k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        if self.nodes.is_empty() || k == 0 {
            return Vec::new();
        }
        stats.queries += 1;
        // Max-heap on distance keeps the current k best; the root is the
        // worst of the k and is the pruning bound.
        let mut heap: BinaryHeap<Neighbor> = BinaryHeap::with_capacity(k + 1);
        self.knn_recurse(0, query, k, &mut heap, stats);
        let mut out = heap.into_sorted_vec();
        out.truncate(k);
        out
    }

    fn knn_recurse(
        &self,
        slot: usize,
        query: Vec3,
        k: usize,
        heap: &mut BinaryHeap<Neighbor>,
        stats: &mut SearchStats,
    ) {
        match self.nodes[slot] {
            Slot::Empty => unreachable!("traversal never reaches padding slots"),
            Slot::Leaf { start, len } => {
                let (start, len) = (start as usize, len as usize);
                stats.leaves_scanned += 1;
                stats.leaf_points_scanned += len as u64;
                let mut d2s = [0.0_f64; LEAF_SIZE];
                simd::squared_distances(query, self.arena.range(start, len), &mut d2s[..len]);
                for (l, &d2) in d2s[..len].iter().enumerate() {
                    let cand = Neighbor::new(self.ids[start + l] as usize, d2);
                    if heap.len() < k {
                        heap.push(cand);
                    } else if let Some(worst) = heap.peek() {
                        // Full (distance, index) order so boundary ties
                        // break to the lower index — the brute-force (and
                        // cross-backend) contract.
                        if cand < *worst {
                            heap.pop();
                            heap.push(cand);
                        }
                    }
                }
            }
            Slot::Interior { axis, split } => {
                stats.tree_nodes_visited += 1;
                let delta = query.axis(axis as usize) - split;
                let (near, far) = if delta < 0.0 {
                    (2 * slot + 1, 2 * slot + 2)
                } else {
                    (2 * slot + 2, 2 * slot + 1)
                };
                self.knn_recurse(near, query, k, heap, stats);
                let bound = if heap.len() < k {
                    f64::INFINITY
                } else {
                    heap.peek().map_or(f64::INFINITY, |w| w.distance_squared)
                };
                if delta * delta <= bound {
                    self.knn_recurse(far, query, k, heap, stats);
                } else {
                    stats.subtrees_pruned += 1;
                }
            }
        }
    }

    /// All points within `radius` of `query`, sorted ascending by distance.
    ///
    /// # Panics
    ///
    /// Panics when `radius` is negative.
    pub fn radius(&self, query: Vec3, radius: f64) -> Vec<Neighbor> {
        let mut stats = SearchStats::new();
        self.radius_with_stats(query, radius, &mut stats)
    }

    /// Radius search with visit accounting.
    ///
    /// # Panics
    ///
    /// Panics when `radius` is negative.
    pub fn radius_with_stats(
        &self,
        query: Vec3,
        radius: f64,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        assert!(radius >= 0.0, "radius must be non-negative");
        if self.nodes.is_empty() {
            return Vec::new();
        }
        stats.queries += 1;
        // One leaf's worth of headroom skips the 4→8→16 realloc chain for
        // the common "a handful of hits" query.
        let mut out = Vec::with_capacity(LEAF_SIZE);
        self.radius_scan(query, radius * radius, radius, &mut out, stats);
        // `Neighbor` is totally ordered by (d², index) and indices are
        // unique, so the sorted result is independent of both traversal
        // order and sort stability.
        out.sort_unstable();
        out
    }

    /// Radius search for a whole group of (ideally co-located) queries
    /// in one traversal, filling `rows[i]` with the hits of
    /// `queries[i]`.
    ///
    /// The traversal descends into every subtree that at least one
    /// member's search ball could reach — the union of the members'
    /// individual traversals — so each member scans a superset of the
    /// leaves its own query would visit. All points within a member's
    /// radius live inside that member's own traversal region, the `d² ≤
    /// r²` filter rejects everything else, and the final per-row sort
    /// restores the canonical `(d², index)` order, so every row is
    /// bit-identical to [`KdTree::radius_with_stats`] on its query. The
    /// win is amortization: interior nodes are dispatched once per
    /// group instead of once per member, and each visited leaf's SoA
    /// lanes stream through the SIMD filter for all members while still
    /// cache-hot.
    ///
    /// Rows are cleared first. Visit accounting stays truthful to the
    /// shared work: `leaves_scanned` / `tree_nodes_visited` /
    /// `subtrees_pruned` count the single group traversal, while
    /// `queries` and `leaf_points_scanned` (every point-vs-member
    /// distance test) keep per-member totals.
    ///
    /// # Panics
    ///
    /// Panics when `radius` is negative or `rows.len() !=
    /// queries.len()`.
    pub fn radius_group_into_with_stats(
        &self,
        queries: &[Vec3],
        radius: f64,
        rows: &mut [Vec<Neighbor>],
        stats: &mut SearchStats,
    ) {
        self.radius_group_unsorted_into_with_stats(queries, radius, rows, stats);
        for row in rows.iter_mut() {
            // Canonical (d², index) order — identical to the per-query
            // sort, but keyed on raw bits: d² is never negative, so its
            // IEEE bit pattern orders exactly like the float and a
            // single integer compare replaces the two-field `Ord`
            // chain. The unstable sort leaves equal-d² runs (rare in
            // real clouds) in arbitrary member order; the linear finish
            // below restores the index tie-break, making the result
            // independent of traversal order and sort stability.
            row.sort_unstable_by_key(|n| n.distance_squared.to_bits());
            let mut i = 1;
            while i < row.len() {
                let bits = row[i - 1].distance_squared.to_bits();
                if bits == row[i].distance_squared.to_bits() {
                    let start = i - 1;
                    let mut end = i + 1;
                    while end < row.len() && row[end].distance_squared.to_bits() == bits {
                        end += 1;
                    }
                    row[start..end].sort_unstable_by_key(|n| n.index);
                    i = end;
                } else {
                    i += 1;
                }
            }
        }
    }

    /// [`KdTree::radius_group_into_with_stats`] without the final
    /// canonical per-row sort: `rows[i]` receives exactly the hit *set*
    /// of `queries[i]` — same neighbors, same bits — but in traversal
    /// (ascending arena) order rather than `(d², index)` order.
    ///
    /// The sort is the dominant per-row cost of the grouped path on
    /// dense neighborhoods, and consumers whose accumulation is
    /// order-independent (exact `+= 1.0` histogram adds, for example)
    /// don't need it. Order-sensitive consumers must use the sorted
    /// entry point.
    ///
    /// # Panics
    ///
    /// Panics when `radius` is negative or `rows.len() !=
    /// queries.len()`.
    pub fn radius_group_unsorted_into_with_stats(
        &self,
        queries: &[Vec3],
        radius: f64,
        rows: &mut [Vec<Neighbor>],
        stats: &mut SearchStats,
    ) {
        assert!(radius >= 0.0, "radius must be non-negative");
        assert_eq!(queries.len(), rows.len(), "one output row per query");
        for row in rows.iter_mut() {
            row.clear();
        }
        if self.nodes.is_empty() || queries.is_empty() {
            return;
        }
        stats.queries += queries.len() as u64;
        let (mut lo, mut hi) = (queries[0], queries[0]);
        for q in &queries[1..] {
            lo.x = lo.x.min(q.x);
            lo.y = lo.y.min(q.y);
            lo.z = lo.z.min(q.z);
            hi.x = hi.x.max(q.x);
            hi.y = hi.y.max(q.y);
            hi.z = hi.z.max(q.z);
        }
        let r2 = radius * radius;
        // The DFS below visits leaves left to right, which is ascending
        // arena order, so reachable leaves coalesce into a few long
        // contiguous spans. Hits are collected per merged span instead
        // of per leaf: one kernel dispatch covers what would otherwise
        // be dozens of calls on sub-SIMD-width slices, and each
        // member's query stays register-resident across a whole span.
        const MAX_SPANS: usize = 128;
        let mut spans = [(0_usize, 0_usize); MAX_SPANS];
        let mut nspans = 0_usize;
        let mut stack = [0_usize; 64];
        let mut top = 1;
        while top > 0 {
            top -= 1;
            let mut slot = stack[top];
            loop {
                match self.nodes[slot] {
                    Slot::Empty => unreachable!("traversal never reaches padding slots"),
                    Slot::Leaf { start, len } => {
                        let (start, len) = (start as usize, len as usize);
                        stats.leaves_scanned += 1;
                        stats.leaf_points_scanned += (len * queries.len()) as u64;
                        if nspans > 0 && spans[nspans - 1].0 + spans[nspans - 1].1 == start {
                            spans[nspans - 1].1 += len;
                        } else {
                            if nspans == MAX_SPANS {
                                self.scan_spans(&spans, queries, r2, rows);
                                nspans = 0;
                            }
                            spans[nspans] = (start, len);
                            nspans += 1;
                        }
                        break;
                    }
                    Slot::Interior { axis, split } => {
                        stats.tree_nodes_visited += 1;
                        // A side is reachable iff some member's ball
                        // crosses onto it — interval tests against the
                        // group's bounding box. `lo ≤ hi` keeps at
                        // least one side reachable.
                        let a = axis as usize;
                        let visit_left = lo.axis(a) - radius <= split;
                        let visit_right = hi.axis(a) + radius >= split;
                        if visit_left && visit_right {
                            stack[top] = 2 * slot + 2;
                            top += 1;
                            slot = 2 * slot + 1;
                        } else {
                            stats.subtrees_pruned += 1;
                            slot = if visit_left { 2 * slot + 1 } else { 2 * slot + 2 };
                        }
                    }
                }
            }
        }
        self.scan_spans(&spans[..nspans], queries, r2, rows);
    }

    /// Streams every `(start, len)` arena span through the SIMD radius
    /// filter for each group member, appending hits to the member's
    /// row. Span order per member is ascending arena order — the row
    /// order the unsorted entry point exposes; the sorted entry point
    /// re-sorts rows afterwards.
    fn scan_spans(
        &self,
        spans: &[(usize, usize)],
        queries: &[Vec3],
        r2: f64,
        rows: &mut [Vec<Neighbor>],
    ) {
        for (q, row) in queries.iter().zip(rows.iter_mut()) {
            for &(start, len) in spans {
                simd::radius_collect(
                    *q,
                    self.arena.range(start, len),
                    &self.ids[start..start + len],
                    r2,
                    row,
                );
            }
        }
    }

    /// Iterative radius traversal: descends near children inline and
    /// parks far children on an explicit stack. Unlike NN search, the
    /// `|Δ| ≤ r` prune does not depend on results found so far, so this
    /// visits exactly the nodes the recursive formulation would.
    fn radius_scan(
        &self,
        query: Vec3,
        r2: f64,
        r: f64,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        // One deferred far child per interior level: median splits keep
        // height ≤ ~log₂(n/8), far below this with u32 point ids.
        let mut stack = [0_usize; 64];
        let mut top = 1;
        while top > 0 {
            top -= 1;
            let mut slot = stack[top];
            loop {
                match self.nodes[slot] {
                    Slot::Empty => unreachable!("traversal never reaches padding slots"),
                    Slot::Leaf { start, len } => {
                        let (start, len) = (start as usize, len as usize);
                        stats.leaves_scanned += 1;
                        stats.leaf_points_scanned += len as u64;
                        simd::radius_collect(
                            query,
                            self.arena.range(start, len),
                            &self.ids[start..start + len],
                            r2,
                            out,
                        );
                        break;
                    }
                    Slot::Interior { axis, split } => {
                        stats.tree_nodes_visited += 1;
                        let delta = query.axis(axis as usize) - split;
                        let (near, far) = if delta < 0.0 {
                            (2 * slot + 1, 2 * slot + 2)
                        } else {
                            (2 * slot + 2, 2 * slot + 1)
                        };
                        if delta.abs() <= r {
                            stack[top] = far;
                            top += 1;
                        } else {
                            stats.subtrees_pruned += 1;
                        }
                        slot = near;
                    }
                }
            }
        }
    }
}

/// Indices of the points whose coordinates are all finite — the subset a
/// tree build indexes (a NaN would break the median split's ordering, an
/// infinity would surface as an infinitely distant neighbor).
pub(crate) fn finite_indices(points: &[Vec3]) -> Vec<u32> {
    (0..points.len() as u32).filter(|&i| points[i as usize].is_finite()).collect()
}

/// Recursively builds the subtree over `indices` into implicit slot
/// `slot`, appending leaf points to the SoA arena in depth-first order.
#[allow(clippy::too_many_arguments)]
fn build_into(
    points: &[Vec3],
    indices: &mut [u32],
    slot: usize,
    nodes: &mut Vec<Slot>,
    arena: &mut PointSoA,
    ids: &mut Vec<u32>,
    depth: usize,
    height: &mut usize,
) {
    if nodes.len() <= slot {
        nodes.resize(slot + 1, Slot::Empty);
    }
    if indices.len() <= LEAF_SIZE {
        *height = (*height).max(depth);
        let start = ids.len() as u32;
        for &i in indices.iter() {
            arena.push(points[i as usize]);
            ids.push(i);
        }
        nodes[slot] = Slot::Leaf { start, len: indices.len() as u32 };
        return;
    }

    // Split on the axis with the largest extent of this subset.
    let mut lo = Vec3::splat(f64::INFINITY);
    let mut hi = Vec3::splat(f64::NEG_INFINITY);
    for &i in indices.iter() {
        lo = lo.min(points[i as usize]);
        hi = hi.max(points[i as usize]);
    }
    let ext = hi - lo;
    let axis = if ext.x >= ext.y && ext.x >= ext.z {
        0
    } else if ext.y >= ext.z {
        1
    } else {
        2
    };

    // Median partition: left coords ≤ split ≤ right coords, which is what
    // makes |query − split| a sound pruning bound for the far half.
    let mid = indices.len() / 2;
    indices.select_nth_unstable_by(mid, |&a, &b| {
        let va = points[a as usize].axis(axis);
        let vb = points[b as usize].axis(axis);
        va.partial_cmp(&vb).unwrap().then(a.cmp(&b))
    });
    let split = points[indices[mid] as usize].axis(axis);
    nodes[slot] = Slot::Interior { axis: axis as u8, split };

    // Both halves are non-empty (len > LEAF_SIZE ≥ 1), so an interior
    // slot always has both children built.
    let (left_slice, right_slice) = indices.split_at_mut(mid);
    build_into(points, left_slice, 2 * slot + 1, nodes, arena, ids, depth + 1, height);
    build_into(points, right_slice, 2 * slot + 2, nodes, arena, ids, depth + 1, height);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::{knn_brute_force, nn_brute_force, radius_brute_force};

    /// Deterministic pseudo-random cloud without pulling in `rand` here.
    fn lcg_cloud(n: usize, seed: u64) -> Vec<Vec3> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 20.0 - 10.0
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    #[test]
    fn build_empty_and_singleton() {
        let t = KdTree::build(&[]);
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.nn(Vec3::ZERO).is_none());
        assert!(t.radius(Vec3::ZERO, 1.0).is_empty());
        assert!(t.knn(Vec3::ZERO, 3).is_empty());

        let t = KdTree::build(&[Vec3::X]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.interior_count(), 0);
        assert_eq!(t.nn(Vec3::ZERO).unwrap().index, 0);
    }

    #[test]
    fn grouped_radius_rows_are_bit_identical_to_per_query_search() {
        let pts = lcg_cloud(700, 11);
        let t = KdTree::build(&pts);
        // Groups of every size 1..=17 (straddling leaf and SIMD widths),
        // mixing co-located runs with scattered members, duplicate
        // queries, and off-cloud queries with no hits.
        let mut queries: Vec<Vec3> = pts.iter().step_by(9).copied().collect();
        queries.push(pts[3]);
        queries.push(pts[3]);
        queries.push(Vec3::new(500.0, -500.0, 0.0));
        let mut start = 0;
        let mut size = 1;
        while start < queries.len() {
            let end = (start + size).min(queries.len());
            let group = &queries[start..end];
            let mut rows = vec![vec![Neighbor::new(9, 9.0)]; group.len()];
            let mut gstats = SearchStats::new();
            t.radius_group_into_with_stats(group, 1.7, &mut rows, &mut gstats);
            assert_eq!(gstats.queries, group.len() as u64);
            for (q, row) in group.iter().zip(&rows) {
                let mut stats = SearchStats::new();
                let expected = t.radius_with_stats(*q, 1.7, &mut stats);
                assert_eq!(row.len(), expected.len());
                for (a, b) in row.iter().zip(&expected) {
                    assert_eq!(a.index, b.index);
                    assert_eq!(a.distance_squared.to_bits(), b.distance_squared.to_bits());
                }
            }
            start = end;
            size = size % 17 + 1;
        }
        // Radius zero returns exactly the coincident points.
        let mut rows = vec![Vec::new(); 2];
        let mut stats = SearchStats::new();
        t.radius_group_into_with_stats(
            &[pts[5], Vec3::new(99.0, 99.0, 99.0)],
            0.0,
            &mut rows,
            &mut stats,
        );
        assert!(rows[0].iter().any(|n| n.index == 5 && n.distance_squared == 0.0));
        assert!(rows[1].is_empty());
        // Empty tree and empty group are no-ops.
        let empty = KdTree::build(&[]);
        let mut rows = vec![vec![Neighbor::new(1, 1.0)]];
        empty.radius_group_into_with_stats(&[Vec3::ZERO], 1.0, &mut rows, &mut stats);
        assert!(rows[0].is_empty(), "rows are cleared even on an empty tree");
        t.radius_group_into_with_stats(&[], 1.0, &mut [], &mut stats);
    }

    #[test]
    fn unsorted_grouped_radius_rows_hold_the_same_hit_set() {
        let pts = lcg_cloud(700, 23);
        let t = KdTree::build(&pts);
        let queries: Vec<Vec3> = pts.iter().step_by(31).copied().collect();
        for group in queries.chunks(7) {
            let mut rows = vec![vec![Neighbor::new(9, 9.0)]; group.len()];
            let mut stats = SearchStats::new();
            t.radius_group_unsorted_into_with_stats(group, 1.7, &mut rows, &mut stats);
            for (q, row) in group.iter().zip(&mut rows) {
                let expected = t.radius_with_stats(*q, 1.7, &mut SearchStats::new());
                // Canonically sorting the unsorted row must reproduce the
                // per-query result exactly — same hits, same bits.
                row.sort_unstable();
                assert_eq!(row.len(), expected.len());
                for (a, b) in row.iter().zip(&expected) {
                    assert_eq!(a.index, b.index);
                    assert_eq!(a.distance_squared.to_bits(), b.distance_squared.to_bits());
                }
            }
        }
    }

    #[test]
    fn height_is_logarithmic() {
        let pts = lcg_cloud(1024, 7);
        let t = KdTree::build(&pts);
        // Median splits over 1024 points with 16-point buckets reach the
        // leaf level after 6 halvings: height = 7 (interior levels + leaf
        // level).
        assert!(t.height() >= 6 && t.height() <= 8, "height = {}", t.height());
    }

    #[test]
    fn every_point_lands_in_exactly_one_leaf() {
        for n in [1, 15, 16, 17, 100, 1023] {
            let pts = lcg_cloud(n, n as u64);
            let t = KdTree::build(&pts);
            // The arena is a permutation of the input: ids cover 0..n once.
            let mut seen = vec![false; n];
            for slot in &t.nodes {
                if let Slot::Leaf { start, len } = *slot {
                    assert!(len as usize <= LEAF_SIZE);
                    for s in start..start + len {
                        let id = t.ids[s as usize] as usize;
                        assert!(!seen[id], "point {id} in two leaves (n = {n})");
                        seen[id] = true;
                        assert_eq!(t.arena.get(s as usize), pts[id]);
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "missing points (n = {n})");
        }
    }

    #[test]
    fn nn_matches_brute_force() {
        let pts = lcg_cloud(500, 42);
        let tree = KdTree::build(&pts);
        for (qi, q) in lcg_cloud(200, 1).into_iter().enumerate() {
            let a = tree.nn(q).unwrap();
            let b = nn_brute_force(&pts, q).unwrap();
            assert_eq!(a.index, b.index, "query {qi}");
            assert_eq!(a.distance_squared, b.distance_squared);
        }
    }

    #[test]
    fn nn_on_tree_points_is_exact() {
        let pts = lcg_cloud(100, 3);
        let tree = KdTree::build(&pts);
        for (i, &p) in pts.iter().enumerate() {
            let n = tree.nn(p).unwrap();
            assert_eq!(n.distance_squared, 0.0);
            assert_eq!(pts[n.index], pts[i]);
        }
    }

    #[test]
    fn radius_matches_brute_force() {
        let pts = lcg_cloud(400, 9);
        let tree = KdTree::build(&pts);
        for q in lcg_cloud(50, 2) {
            for r in [0.5, 2.0, 6.0] {
                let a = tree.radius(q, r);
                let b = radius_brute_force(&pts, q, r);
                assert_eq!(a.len(), b.len(), "r = {r}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.index, y.index);
                }
            }
        }
    }

    #[test]
    fn knn_matches_brute_force_distances() {
        let pts = lcg_cloud(300, 11);
        let tree = KdTree::build(&pts);
        for q in lcg_cloud(40, 5) {
            for k in [1, 4, 17] {
                let a = tree.knn(q, k);
                let b = knn_brute_force(&pts, q, k);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert!((x.distance_squared - y.distance_squared).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn knn_k_larger_than_tree() {
        let pts = lcg_cloud(5, 1);
        let tree = KdTree::build(&pts);
        assert_eq!(tree.knn(Vec3::ZERO, 50).len(), 5);
        assert!(tree.knn(Vec3::ZERO, 0).is_empty());
    }

    #[test]
    fn pruning_reduces_visits() {
        let pts = lcg_cloud(4096, 13);
        let tree = KdTree::build(&pts);
        let mut stats = SearchStats::new();
        tree.nn_with_stats(Vec3::new(0.1, 0.2, 0.3), &mut stats).unwrap();
        // NN on a balanced 4096-point bucket tree visits a handful of
        // interior nodes and leaf buckets, not the whole structure, and
        // must prune something.
        assert!(stats.tree_nodes_visited < 255, "visited {}", stats.tree_nodes_visited);
        assert!(stats.leaves_scanned > 0);
        assert!(stats.leaf_points_scanned < 4096);
        assert!(stats.subtrees_pruned > 0);
        assert_eq!(stats.queries, 1);
    }

    #[test]
    fn duplicate_points_are_handled() {
        let pts = vec![Vec3::X; 17];
        let tree = KdTree::build(&pts);
        let n = tree.nn(Vec3::X).unwrap();
        assert_eq!(n.distance_squared, 0.0);
        assert_eq!(tree.radius(Vec3::X, 0.1).len(), 17);
    }

    #[test]
    fn collinear_points() {
        let pts: Vec<Vec3> = (0..64).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        let tree = KdTree::build(&pts);
        let n = tree.nn(Vec3::new(31.4, 0.0, 0.0)).unwrap();
        assert_eq!(pts[n.index].x, 31.0);
        assert_eq!(tree.radius(Vec3::new(10.0, 0.0, 0.0), 2.5).len(), 5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn radius_rejects_negative() {
        KdTree::build(&[Vec3::ZERO]).radius(Vec3::ZERO, -0.1);
    }

    #[test]
    fn memory_bytes_grows_with_the_point_set() {
        assert_eq!(KdTree::build(&[]).memory_bytes(), 0);
        let mut last = 0;
        for n in [16, 256, 4096] {
            let tree = KdTree::build(&lcg_cloud(n, 5));
            let bytes = tree.memory_bytes();
            // The tree stores the points twice (build-order copy + SoA
            // arena) plus ids, so the floor is easy to state exactly.
            let floor = n * (2 * std::mem::size_of::<Vec3>() + std::mem::size_of::<u32>());
            assert!(bytes >= floor, "n = {n}: {bytes} < {floor}");
            assert!(bytes > last, "n = {n}: accounting must grow with the point set");
            last = bytes;
        }
    }

    #[test]
    fn radius_results_sorted() {
        let pts = lcg_cloud(200, 21);
        let tree = KdTree::build(&pts);
        let res = tree.radius(Vec3::ZERO, 8.0);
        for w in res.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
