//! The two-stage KD-tree (paper Sec. 4.1, Fig. 5b) — the
//! acceleration-amenable data structure at the heart of Tigris.
//!
//! The structure splits a canonical KD-tree into a *top-tree* of height
//! `h_top` — identical to the first `h_top` levels of the classic tree —
//! and *leaf sets*: each top-tree leaf organizes all remaining descendants
//! as an unordered set that is searched exhaustively. Exhaustive leaf scans
//! have no intra-query dependencies, exposing node-level parallelism (NLP)
//! to the accelerator's search units, while independent queries expose
//! query-level parallelism (QLP). The price is redundant node visits
//! (paper Fig. 6): a shorter top-tree means larger leaf sets and more
//! brute-force work.
//!
//! With `h_top = 0` the structure degenerates to a single unordered set —
//! pure exhaustive search, the extreme the paper notes.
//!
//! Leaf sets keep their public index form ([`LeafSet::points`], which the
//! accelerator model replays), but the scan hot path works on a private
//! structure-of-arrays arena: every leaf's coordinates are banked
//! contiguously ([`crate::soa::PointSoA`]) in leaf order, and exhaustive
//! scans run through the [`crate::simd`] kernels — the software analogue
//! of the paper's search units streaming a leaf's unordered set through
//! the distance datapath.

use crate::kdtree::finite_indices;
use crate::soa::PointSoA;
use crate::{simd, Neighbor, SearchStats};
use tigris_geom::Vec3;

/// Points per [`crate::simd::squared_distances`] block in the k-NN leaf
/// scan (leaf sets can be arbitrarily large, so the scratch buffer is
/// fixed and the scan is chunked).
const KNN_SCAN_BLOCK: usize = 64;

/// The default top-tree height for `n_points`: targets leaf sets of ~128
/// points (the paper's configuration: ~130k points at height 10 ⇒
/// 1024 leaves of ~128), clamped to `[1, 16]`.
///
/// Used wherever a two-stage structure must be built without an explicit
/// height — the backend registry's `"two-stage"`/`"two-stage-approx"`
/// factories and `tigris-accel`'s default accelerator backend.
///
/// ```
/// use tigris_core::twostage::default_top_height;
/// assert_eq!(default_top_height(131_072), 10);
/// assert_eq!(default_top_height(100), 1); // tiny clouds: shallowest split
/// ```
pub fn default_top_height(n_points: usize) -> usize {
    let mut h = 0usize;
    while (n_points >> h) > 128 && h < 16 {
        h += 1;
    }
    h.max(1)
}

/// A child link in the top-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopChild {
    /// An internal top-tree node, by index into [`TwoStageKdTree::top_nodes`].
    Node(u32),
    /// A leaf set, by index into [`TwoStageKdTree::leaves`].
    Leaf(u32),
    /// No child (the subset was empty).
    None,
}

/// An internal node of the top-tree. Identical in role to a canonical
/// KD-tree node: it stores one point and splits its remaining descendants
/// by the hyperplane through that point.
#[derive(Debug, Clone, Copy)]
pub struct TopNode {
    /// Index of this node's point in the tree's point array.
    pub point: u32,
    /// Split axis (0, 1, 2).
    pub axis: u8,
    /// Split coordinate: the node point's coordinate along `axis`.
    pub split: f64,
    /// Child containing points below the split.
    pub left: TopChild,
    /// Child containing points at or above the split.
    pub right: TopChild,
}

/// A top-tree leaf: its children as an unordered set of point indices
/// (paper: "Each leaf node in the top-tree organizes its children as an
/// unordered set rather than a sub-tree to enable exhaustive search").
#[derive(Debug, Clone, Default)]
pub struct LeafSet {
    /// Indices of the points in this leaf's unordered set.
    pub points: Vec<u32>,
}

/// The two-stage KD-tree.
///
/// # Example
///
/// ```
/// use tigris_core::TwoStageKdTree;
/// use tigris_geom::Vec3;
///
/// let pts: Vec<Vec3> = (0..64).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
/// let tree = TwoStageKdTree::build(&pts, 3);
/// assert_eq!(tree.top_height(), 3);
/// let n = tree.nn(Vec3::new(17.2, 0.0, 0.0)).unwrap();
/// assert_eq!(pts[n.index].x, 17.0);
/// ```
#[derive(Debug, Clone)]
pub struct TwoStageKdTree {
    points: Vec<Vec3>,
    top_nodes: Vec<TopNode>,
    leaves: Vec<LeafSet>,
    root: TopChild,
    top_height: usize,
    /// Leaf point coordinates, SoA, concatenated in leaf order.
    arena: PointSoA,
    /// Arena slot → index in `points`; mirrors `leaves[*].points` exactly.
    arena_ids: Vec<u32>,
    /// Per-leaf `(start, len)` ranges into the arena.
    spans: Vec<(u32, u32)>,
}

impl TwoStageKdTree {
    /// Builds a two-stage KD-tree whose top-tree has height `top_height`.
    ///
    /// The top-tree is built with the same median splits as
    /// [`crate::KdTree`]; the first `top_height` levels of both trees hold
    /// the same points. Descendants beyond the top-tree become unordered
    /// leaf sets. A `top_height` of 0 produces a single leaf set holding
    /// every point.
    ///
    /// As in [`crate::KdTree::build`], points with a NaN or infinite
    /// coordinate keep their slot in [`TwoStageKdTree::points`] but are
    /// left out of the tree, so no search ever returns them.
    pub fn build(points: &[Vec3], top_height: usize) -> Self {
        let mut indices = finite_indices(points);
        let mut top_nodes = Vec::new();
        let mut leaves = Vec::new();
        let root = build_top(points, &mut indices[..], top_height, &mut top_nodes, &mut leaves);
        // Bank every leaf's coordinates contiguously for the SIMD scans.
        let total: usize = leaves.iter().map(|l| l.points.len()).sum();
        let mut arena = PointSoA::with_capacity(total);
        let mut arena_ids = Vec::with_capacity(total);
        let mut spans = Vec::with_capacity(leaves.len());
        for leaf in &leaves {
            let start = arena_ids.len() as u32;
            for &i in &leaf.points {
                arena.push(points[i as usize]);
                arena_ids.push(i);
            }
            spans.push((start, leaf.points.len() as u32));
        }
        TwoStageKdTree {
            points: points.to_vec(),
            top_nodes,
            leaves,
            root,
            top_height,
            arena,
            arena_ids,
            spans,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The height of the top-tree this structure was built with.
    pub fn top_height(&self) -> usize {
        self.top_height
    }

    /// The indexed points.
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// The internal top-tree nodes (read-only; consumed by the accelerator
    /// model, which replays traversals cycle by cycle).
    pub fn top_nodes(&self) -> &[TopNode] {
        &self.top_nodes
    }

    /// The leaf sets.
    pub fn leaves(&self) -> &[LeafSet] {
        &self.leaves
    }

    /// The root link.
    pub fn root(&self) -> TopChild {
        self.root
    }

    /// Mean number of points per leaf set — the paper's "leaf-set size"
    /// knob (Fig. 6 x-axis). 0 when there are no leaves.
    pub fn mean_leaf_size(&self) -> f64 {
        if self.leaves.is_empty() {
            0.0
        } else {
            let total: usize = self.leaves.iter().map(|l| l.points.len()).sum();
            total as f64 / self.leaves.len() as f64
        }
    }

    /// The leaf set a pure (prune-free) descent from the root delivers
    /// `query` to — the leaf the accelerator's front-end routes the query
    /// to first. `None` when the descent dead-ends in an empty child or the
    /// tree is empty.
    pub fn primary_leaf(&self, query: Vec3) -> Option<usize> {
        let mut cur = self.root;
        loop {
            match cur {
                TopChild::Leaf(l) => return Some(l as usize),
                TopChild::None => return None,
                TopChild::Node(n) => {
                    let node = &self.top_nodes[n as usize];
                    cur = if query.axis(node.axis as usize) < node.split {
                        node.left
                    } else {
                        node.right
                    };
                }
            }
        }
    }

    /// Nearest neighbor of `query`, or `None` for an empty tree.
    ///
    /// Without approximation the result is identical to the canonical
    /// KD-tree's (both are exact searches over the same point set).
    pub fn nn(&self, query: Vec3) -> Option<Neighbor> {
        let mut stats = SearchStats::new();
        self.nn_with_stats(query, &mut stats)
    }

    /// Nearest neighbor with visit accounting.
    pub fn nn_with_stats(&self, query: Vec3, stats: &mut SearchStats) -> Option<Neighbor> {
        if self.is_empty() {
            return None;
        }
        stats.queries += 1;
        let mut best = Neighbor::new(usize::MAX, f64::INFINITY);
        self.nn_child(self.root, query, &mut best, stats);
        (best.index != usize::MAX).then_some(best)
    }

    fn nn_child(&self, child: TopChild, query: Vec3, best: &mut Neighbor, stats: &mut SearchStats) {
        match child {
            TopChild::None => {}
            TopChild::Leaf(l) => {
                self.scan_leaf_nn(l as usize, query, best, stats);
            }
            TopChild::Node(n) => {
                let node = &self.top_nodes[n as usize];
                let p = self.points[node.point as usize];
                stats.tree_nodes_visited += 1;
                let d2 = query.distance_squared(p);
                if d2 < best.distance_squared
                    || (d2 == best.distance_squared && (node.point as usize) < best.index)
                {
                    *best = Neighbor::new(node.point as usize, d2);
                }
                let delta = query.axis(node.axis as usize) - node.split;
                let (near, far) =
                    if delta < 0.0 { (node.left, node.right) } else { (node.right, node.left) };
                self.nn_child(near, query, best, stats);
                if far != TopChild::None {
                    if delta * delta <= best.distance_squared {
                        self.nn_child(far, query, best, stats);
                    } else {
                        stats.subtrees_pruned += 1;
                    }
                }
            }
        }
    }

    /// Exhaustively scans one leaf set for the NN candidate, the back-end
    /// search-unit operation: one fused distance + horizontal-min kernel
    /// pass over the leaf's SoA slice.
    pub(crate) fn scan_leaf_nn(
        &self,
        leaf: usize,
        query: Vec3,
        best: &mut Neighbor,
        stats: &mut SearchStats,
    ) {
        let (start, len) = self.spans[leaf];
        let (start, len) = (start as usize, len as usize);
        stats.leaves_scanned += 1;
        stats.leaf_points_scanned += len as u64;
        let view = self.arena.range(start, len);
        if let Some((d2, id)) = simd::nn_reduce(query, view, &self.arena_ids[start..start + len]) {
            if d2 < best.distance_squared
                || (d2 == best.distance_squared && (id as usize) < best.index)
            {
                *best = Neighbor::new(id as usize, d2);
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

    /// [`TwoStageKdTree::nn2`] with visit accounting (billed like
    /// [`TwoStageKdTree::nn_with_stats`]); sub-trees are pruned against
    /// the second-best distance.
    pub fn nn2_with_stats(&self, query: Vec3, stats: &mut SearchStats) -> [Option<Neighbor>; 2] {
        if self.is_empty() {
            return [None, None];
        }
        stats.queries += 1;
        let mut top = simd::TOP2_EMPTY;
        self.nn2_child(self.root, query, &mut top, stats);
        simd::top2_neighbors(&top)
    }

    fn nn2_child(
        &self,
        child: TopChild,
        query: Vec3,
        top: &mut simd::Top2,
        stats: &mut SearchStats,
    ) {
        match child {
            TopChild::None => {}
            TopChild::Leaf(l) => {
                let (start, len) = self.spans[l as usize];
                let (start, len) = (start as usize, len as usize);
                stats.leaves_scanned += 1;
                stats.leaf_points_scanned += len as u64;
                let view = self.arena.range(start, len);
                simd::nn2_reduce(query, view, &self.arena_ids[start..start + len], top);
            }
            TopChild::Node(n) => {
                let node = &self.top_nodes[n as usize];
                let p = self.points[node.point as usize];
                stats.tree_nodes_visited += 1;
                simd::top2_offer(query.distance_squared(p), node.point, top);
                let delta = query.axis(node.axis as usize) - node.split;
                let (near, far) =
                    if delta < 0.0 { (node.left, node.right) } else { (node.right, node.left) };
                self.nn2_child(near, query, top, stats);
                if far != TopChild::None {
                    if delta * delta <= top[1].0 {
                        self.nn2_child(far, query, top, stats);
                    } else {
                        stats.subtrees_pruned += 1;
                    }
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

    /// k-NN with visit accounting. Traversal prunes against the k-th-best
    /// distance; leaf sets are scanned exhaustively as usual.
    pub fn knn_with_stats(&self, query: Vec3, k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        if self.is_empty() || k == 0 {
            return Vec::new();
        }
        stats.queries += 1;
        let mut heap: std::collections::BinaryHeap<Neighbor> =
            std::collections::BinaryHeap::with_capacity(k + 1);
        self.knn_child(self.root, query, k, &mut heap, stats);
        let mut out = heap.into_sorted_vec();
        out.truncate(k);
        out
    }

    fn knn_child(
        &self,
        child: TopChild,
        query: Vec3,
        k: usize,
        heap: &mut std::collections::BinaryHeap<Neighbor>,
        stats: &mut SearchStats,
    ) {
        let offer = |i: usize, d2: f64, heap: &mut std::collections::BinaryHeap<Neighbor>| {
            let cand = Neighbor::new(i, d2);
            if heap.len() < k {
                heap.push(cand);
            } else if let Some(worst) = heap.peek() {
                // Full (distance, index) order so boundary ties break to
                // the lower index — the brute-force contract; without it,
                // trees of different heights could return different
                // tie-sets at the k-th boundary.
                if cand < *worst {
                    heap.pop();
                    heap.push(cand);
                }
            }
        };
        match child {
            TopChild::None => {}
            TopChild::Leaf(l) => {
                let (start, len) = self.spans[l as usize];
                let (start, len) = (start as usize, len as usize);
                stats.leaves_scanned += 1;
                stats.leaf_points_scanned += len as u64;
                // Blockwise distance kernel; candidates offered in scan
                // order, so heap evolution matches the scalar loop.
                let mut d2s = [0.0_f64; KNN_SCAN_BLOCK];
                let mut off = 0;
                while off < len {
                    let n = (len - off).min(KNN_SCAN_BLOCK);
                    simd::squared_distances(query, self.arena.range(start + off, n), &mut d2s[..n]);
                    for (j, &d2) in d2s[..n].iter().enumerate() {
                        offer(self.arena_ids[start + off + j] as usize, d2, heap);
                    }
                    off += n;
                }
            }
            TopChild::Node(n) => {
                let node = &self.top_nodes[n as usize];
                let p = self.points[node.point as usize];
                stats.tree_nodes_visited += 1;
                offer(node.point as usize, query.distance_squared(p), heap);
                let delta = query.axis(node.axis as usize) - node.split;
                let (near, far) =
                    if delta < 0.0 { (node.left, node.right) } else { (node.right, node.left) };
                self.knn_child(near, query, k, heap, stats);
                if far != TopChild::None {
                    let bound = if heap.len() < k {
                        f64::INFINITY
                    } else {
                        heap.peek().map_or(f64::INFINITY, |w| w.distance_squared)
                    };
                    if delta * delta <= bound {
                        self.knn_child(far, query, k, heap, stats);
                    } else {
                        stats.subtrees_pruned += 1;
                    }
                }
            }
        }
    }

    /// Nearest-neighbor search in the *decoupled* (parallelism-exposing)
    /// execution model: the top-tree traversal prunes only with distances
    /// to top-tree splitter points, and every surviving leaf is scanned
    /// exhaustively afterwards.
    ///
    /// This is how the two-stage structure is actually exploited for
    /// query-level parallelism — leaf scans are batched and their results
    /// cannot tighten the traversal bound — and is the execution the
    /// paper's redundancy analysis (Fig. 6) quantifies. Results are still
    /// exact; only the amount of work differs from [`Self::nn`].
    pub fn nn_decoupled_with_stats(
        &self,
        query: Vec3,
        stats: &mut SearchStats,
    ) -> Option<Neighbor> {
        if self.is_empty() {
            return None;
        }
        stats.queries += 1;
        let mut best = Neighbor::new(usize::MAX, f64::INFINITY);
        let mut leaves = Vec::new();
        self.collect_leaves_nn(self.root, query, &mut best, &mut leaves, stats);
        for leaf in leaves {
            self.scan_leaf_nn(leaf, query, &mut best, stats);
        }
        (best.index != usize::MAX).then_some(best)
    }

    /// Top-tree phase of the decoupled NN search: prunes with the bound
    /// from splitter points only and records surviving leaves.
    fn collect_leaves_nn(
        &self,
        child: TopChild,
        query: Vec3,
        best: &mut Neighbor,
        leaves: &mut Vec<usize>,
        stats: &mut SearchStats,
    ) {
        match child {
            TopChild::None => {}
            TopChild::Leaf(l) => leaves.push(l as usize),
            TopChild::Node(n) => {
                let node = &self.top_nodes[n as usize];
                let p = self.points[node.point as usize];
                stats.tree_nodes_visited += 1;
                let d2 = query.distance_squared(p);
                if d2 < best.distance_squared
                    || (d2 == best.distance_squared && (node.point as usize) < best.index)
                {
                    *best = Neighbor::new(node.point as usize, d2);
                }
                let delta = query.axis(node.axis as usize) - node.split;
                let (near, far) =
                    if delta < 0.0 { (node.left, node.right) } else { (node.right, node.left) };
                self.collect_leaves_nn(near, query, best, leaves, stats);
                if far != TopChild::None {
                    if delta * delta <= best.distance_squared {
                        self.collect_leaves_nn(far, query, best, leaves, stats);
                    } else {
                        stats.subtrees_pruned += 1;
                    }
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
        let mut out = Vec::new();
        if self.is_empty() {
            return out;
        }
        stats.queries += 1;
        self.radius_child(self.root, query, radius, radius * radius, &mut out, stats);
        out.sort();
        out
    }

    fn radius_child(
        &self,
        child: TopChild,
        query: Vec3,
        r: f64,
        r2: f64,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        match child {
            TopChild::None => {}
            TopChild::Leaf(l) => {
                self.scan_leaf_radius(l as usize, query, r2, out, stats);
            }
            TopChild::Node(n) => {
                let node = &self.top_nodes[n as usize];
                let p = self.points[node.point as usize];
                stats.tree_nodes_visited += 1;
                let d2 = query.distance_squared(p);
                if d2 <= r2 {
                    out.push(Neighbor::new(node.point as usize, d2));
                }
                let delta = query.axis(node.axis as usize) - node.split;
                let (near, far) =
                    if delta < 0.0 { (node.left, node.right) } else { (node.right, node.left) };
                self.radius_child(near, query, r, r2, out, stats);
                if far != TopChild::None {
                    if delta.abs() <= r {
                        self.radius_child(far, query, r, r2, out, stats);
                    } else {
                        stats.subtrees_pruned += 1;
                    }
                }
            }
        }
    }

    /// Exhaustively scans one leaf set for radius results: one masked
    /// radius-compare kernel pass over the leaf's SoA slice, appending
    /// hits in scan order.
    pub(crate) fn scan_leaf_radius(
        &self,
        leaf: usize,
        query: Vec3,
        r2: f64,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        let (start, len) = self.spans[leaf];
        let (start, len) = (start as usize, len as usize);
        stats.leaves_scanned += 1;
        stats.leaf_points_scanned += len as u64;
        simd::radius_collect(
            query,
            self.arena.range(start, len),
            &self.arena_ids[start..start + len],
            r2,
            out,
        );
    }
}

/// Builds the top-tree recursively; subsets reaching `remaining_height == 0`
/// become unordered leaf sets.
fn build_top(
    points: &[Vec3],
    indices: &mut [u32],
    remaining_height: usize,
    top_nodes: &mut Vec<TopNode>,
    leaves: &mut Vec<LeafSet>,
) -> TopChild {
    if indices.is_empty() {
        return TopChild::None;
    }
    if remaining_height == 0 {
        let leaf_idx = leaves.len() as u32;
        leaves.push(LeafSet { points: indices.to_vec() });
        return TopChild::Leaf(leaf_idx);
    }

    // Same split policy as the canonical tree (KdTree::build): the axis of
    // largest extent, median point as the splitter.
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

    let mid = indices.len() / 2;
    indices.select_nth_unstable_by(mid, |&a, &b| {
        let va = points[a as usize].axis(axis);
        let vb = points[b as usize].axis(axis);
        va.partial_cmp(&vb).unwrap().then(a.cmp(&b))
    });
    let point = indices[mid];
    let split = points[point as usize].axis(axis);

    let node_idx = top_nodes.len();
    top_nodes.push(TopNode {
        point,
        axis: axis as u8,
        split,
        left: TopChild::None,
        right: TopChild::None,
    });

    let (left_slice, rest) = indices.split_at_mut(mid);
    let right_slice = &mut rest[1..];
    let left = build_top(points, left_slice, remaining_height - 1, top_nodes, leaves);
    let right = build_top(points, right_slice, remaining_height - 1, top_nodes, leaves);
    top_nodes[node_idx].left = left;
    top_nodes[node_idx].right = right;
    TopChild::Node(node_idx as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::{nn_brute_force, radius_brute_force};
    use crate::KdTree;

    fn lcg_cloud(n: usize, seed: u64) -> Vec<Vec3> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 20.0 - 10.0
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    #[test]
    fn zero_height_is_single_leaf() {
        let pts = lcg_cloud(50, 1);
        let tree = TwoStageKdTree::build(&pts, 0);
        assert_eq!(tree.leaves().len(), 1);
        assert_eq!(tree.leaves()[0].points.len(), 50);
        assert!(tree.top_nodes().is_empty());
        // Exhaustive search still exact.
        let q = Vec3::new(0.3, -0.2, 0.7);
        assert_eq!(tree.nn(q).unwrap().index, nn_brute_force(&pts, q).unwrap().index);
    }

    #[test]
    fn leaf_count_and_size_scale_with_height() {
        let pts = lcg_cloud(1024, 3);
        let t3 = TwoStageKdTree::build(&pts, 3);
        let t5 = TwoStageKdTree::build(&pts, 5);
        assert_eq!(t3.leaves().len(), 8);
        assert_eq!(t5.leaves().len(), 32);
        assert!(t3.mean_leaf_size() > t5.mean_leaf_size());
        // All points accounted for: top nodes + leaf points == total.
        let total3 =
            t3.top_nodes().len() + t3.leaves().iter().map(|l| l.points.len()).sum::<usize>();
        assert_eq!(total3, 1024);
    }

    #[test]
    fn top_tree_matches_classic_prefix() {
        // The top-tree must store the same splitter points as the first
        // h_top levels of the canonical tree (paper: "The top-tree is
        // exactly the same as the first h_top levels of the classic
        // KD-tree"). We verify via the root splitter.
        let pts = lcg_cloud(256, 9);
        let classic = KdTree::build(&pts);
        let two = TwoStageKdTree::build(&pts, 4);
        // Root point of both trees is the global median on the widest axis;
        // the classic tree stores the same point at its root.
        let TopChild::Node(root) = two.root() else { panic!("expected node root") };
        let two_root_point = two.top_nodes()[root as usize].point;
        // KdTree nodes are laid out root-first.
        let classic_nn = classic.nn(pts[two_root_point as usize]).unwrap();
        assert_eq!(classic_nn.distance_squared, 0.0);
    }

    #[test]
    fn nn_matches_brute_force_at_all_heights() {
        let pts = lcg_cloud(500, 42);
        for h in [0, 1, 2, 4, 6, 9] {
            let tree = TwoStageKdTree::build(&pts, h);
            for q in lcg_cloud(60, 7) {
                let a = tree.nn(q).unwrap();
                let b = nn_brute_force(&pts, q).unwrap();
                assert_eq!(a.index, b.index, "h = {h}");
            }
        }
    }

    #[test]
    fn radius_matches_brute_force_at_all_heights() {
        let pts = lcg_cloud(300, 5);
        for h in [0, 2, 5, 8] {
            let tree = TwoStageKdTree::build(&pts, h);
            for q in lcg_cloud(20, 13) {
                let a = tree.radius(q, 3.0);
                let b = radius_brute_force(&pts, q, 3.0);
                assert_eq!(a.len(), b.len(), "h = {h}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.index, y.index);
                }
            }
        }
    }

    #[test]
    fn redundancy_grows_as_top_tree_shrinks() {
        // Paper Fig. 6a: a shorter top-tree (larger leaf sets) visits more
        // nodes for the same queries.
        let pts = lcg_cloud(4096, 17);
        let queries = lcg_cloud(100, 23);
        let classic = KdTree::build(&pts);

        let mut base = SearchStats::new();
        for &q in &queries {
            classic.nn_with_stats(q, &mut base);
        }

        let mut prev_redundancy = 0.0;
        for h in [10, 7, 4, 1] {
            let tree = TwoStageKdTree::build(&pts, h);
            let mut s = SearchStats::new();
            for &q in &queries {
                tree.nn_with_stats(q, &mut s);
            }
            let red = s.redundancy_vs(&base);
            assert!(
                red >= prev_redundancy * 0.9,
                "redundancy should grow as h shrinks: h={h} red={red} prev={prev_redundancy}"
            );
            prev_redundancy = red;
        }
        // At h=1 nearly everything is exhaustive: redundancy must be large.
        assert!(prev_redundancy > 5.0, "prev = {prev_redundancy}");
    }

    #[test]
    fn primary_leaf_contains_region_of_query() {
        let pts = lcg_cloud(512, 31);
        let tree = TwoStageKdTree::build(&pts, 4);
        for q in lcg_cloud(50, 3) {
            let leaf = tree.primary_leaf(q);
            // Descent must terminate at a leaf for a non-degenerate tree.
            assert!(leaf.is_some());
            assert!(leaf.unwrap() < tree.leaves().len());
        }
    }

    #[test]
    fn primary_leaf_empty_tree() {
        let tree = TwoStageKdTree::build(&[], 3);
        assert!(tree.primary_leaf(Vec3::ZERO).is_none());
        assert!(tree.nn(Vec3::ZERO).is_none());
        assert!(tree.radius(Vec3::ZERO, 1.0).is_empty());
    }

    #[test]
    fn height_deeper_than_points_degenerates_gracefully() {
        let pts = lcg_cloud(7, 2);
        let tree = TwoStageKdTree::build(&pts, 10);
        // Every point becomes a top node or a tiny/empty leaf; searches stay exact.
        let q = Vec3::new(1.0, 1.0, 1.0);
        assert_eq!(tree.nn(q).unwrap().index, nn_brute_force(&pts, q).unwrap().index);
    }

    #[test]
    fn arena_mirrors_leaf_sets_exactly() {
        // The public LeafSet index lists and the private SoA arena must
        // stay two views of the same layout: same ids, same order, same
        // coordinates.
        for h in [0usize, 2, 4, 7] {
            let pts = lcg_cloud(700, 61);
            let tree = TwoStageKdTree::build(&pts, h);
            assert_eq!(tree.spans.len(), tree.leaves().len());
            let mut cursor = 0u32;
            for (leaf, &(start, len)) in tree.leaves().iter().zip(&tree.spans) {
                assert_eq!(start, cursor, "h = {h}");
                assert_eq!(len as usize, leaf.points.len());
                for (slot, &i) in leaf.points.iter().enumerate() {
                    assert_eq!(tree.arena_ids[start as usize + slot], i);
                    assert_eq!(tree.arena.get(start as usize + slot), pts[i as usize]);
                }
                cursor += len;
            }
            assert_eq!(cursor as usize, tree.arena.len());
        }
    }

    #[test]
    fn stats_accounting_separates_tree_and_leaf_work() {
        let pts = lcg_cloud(1000, 8);
        let tree = TwoStageKdTree::build(&pts, 3);
        let mut s = SearchStats::new();
        tree.nn_with_stats(Vec3::ZERO, &mut s);
        assert!(s.tree_nodes_visited <= 7, "top-tree of height 3 has ≤ 7 nodes");
        assert!(s.leaf_points_scanned > 0);
        assert!(s.leaves_scanned >= 1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn radius_rejects_negative() {
        TwoStageKdTree::build(&[Vec3::ZERO], 1).radius(Vec3::ZERO, -1.0);
    }

    #[test]
    fn knn_matches_brute_force_at_all_heights() {
        let pts = lcg_cloud(400, 51);
        for h in [0usize, 2, 5, 9] {
            let tree = TwoStageKdTree::build(&pts, h);
            for q in lcg_cloud(20, 53) {
                for k in [1usize, 5, 13] {
                    let got = tree.knn(q, k);
                    let expected = crate::bruteforce::knn_brute_force(&pts, q, k);
                    assert_eq!(got.len(), expected.len(), "h={h} k={k}");
                    for (a, b) in got.iter().zip(&expected) {
                        assert!((a.distance_squared - b.distance_squared).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn knn_edge_cases() {
        let pts = lcg_cloud(5, 55);
        let tree = TwoStageKdTree::build(&pts, 2);
        assert!(tree.knn(Vec3::ZERO, 0).is_empty());
        assert_eq!(tree.knn(Vec3::ZERO, 100).len(), 5);
        assert!(TwoStageKdTree::build(&[], 2).knn(Vec3::ZERO, 3).is_empty());
    }

    #[test]
    fn decoupled_nn_is_exact_but_works_harder() {
        let pts = lcg_cloud(3000, 41);
        let tree = TwoStageKdTree::build(&pts, 5);
        let mut coupled = SearchStats::new();
        let mut decoupled = SearchStats::new();
        for q in lcg_cloud(100, 43) {
            let a = tree.nn_with_stats(q, &mut coupled).unwrap();
            let b = tree.nn_decoupled_with_stats(q, &mut decoupled).unwrap();
            // Same (exact) answer…
            assert_eq!(a.index, b.index);
        }
        // …but the decoupled model cannot prune with leaf results, so it
        // visits at least as many nodes (usually many more).
        assert!(
            decoupled.total_nodes_visited() >= coupled.total_nodes_visited(),
            "decoupled {} < coupled {}",
            decoupled.total_nodes_visited(),
            coupled.total_nodes_visited()
        );
    }
}
