//! Approximate KD-tree search — Algorithm 1 of the paper (Sec. 4.3).
//!
//! Queries delivered to the same top-tree leaf are spatially close, so
//! their results are similar. Each leaf keeps a *leader* book: the first
//! queries to arrive (up to the Leader Buffer capacity, farther than `thd`
//! from every existing leader) run the full, exact search and record their
//! results; a later query landing within `thd` of a leader becomes a
//! *follower* — its entire search is served by brute-forcing the leader's
//! recorded result set, skipping both the exhaustive leaf scan *and* all
//! backtracking.
//!
//! The paper's cost model: a follower compares against `L + R` points
//! (leaders plus the chosen leader's results) instead of the leaf's `N`
//! children, with `L + R ≪ N`.
//!
//! Once a leaf's leader book is full, later non-follower queries take the
//! precise path without being recorded — which, as the paper notes, only
//! *improves* accuracy.
//!
//! [`LeaderBook`], [`follower_nn`] and [`follower_radius`] are the one
//! leader-book kernel: [`ApproxIndex`] runs it here, and `tigris-accel`'s
//! accelerator model runs the same kernel in its search units, so the
//! simulated hardware and the software follow the same leaders.
//!
//! The precise path is the exact two-stage search, so it inherits the
//! [`crate::soa`] leaf banking and [`crate::simd`] kernels for free: a
//! leader's recorded result set is produced by the same SoA scans as any
//! other exact query. Follower replays stay scalar — they touch only the
//! handful of leader-result points (`L + R ≪ N`), far below the width
//! where banked kernels pay off.

use crate::index::SearchIndex;
use crate::twostage::default_top_height;
use crate::{Neighbor, SearchStats, TwoStageKdTree};
use tigris_geom::Vec3;

/// Configuration of the approximate search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxConfig {
    /// Distance threshold `thd` for NN queries (meters). The paper uses
    /// 1.2 m on KITTI.
    pub nn_threshold: f64,
    /// Threshold for radius queries, as a fraction of the search radius.
    /// The paper uses 40% of the original radius.
    pub radius_threshold_frac: f64,
    /// Leader Buffer capacity per leaf (paper: 16).
    pub leader_cap: usize,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig { nn_threshold: 1.2, radius_threshold_frac: 0.4, leader_cap: 16 }
    }
}

/// A recorded leader: its query point and its complete search results.
#[derive(Debug, Clone)]
struct Leader {
    query: Vec3,
    /// Point indices of the leader's full (multi-leaf) search result.
    results: Vec<u32>,
}

/// One top-tree leaf's leader book — the per-leaf Leader Buffer of
/// Algorithm 1, in arrival order.
///
/// This is the one implementation of the Leader Check and of leader
/// recording: [`ApproxIndex`] runs it in software and `tigris-accel`'s
/// accelerator model runs it in its search units, so both follow the
/// same leaders and return the same follower answers.
#[derive(Debug, Clone, Default)]
pub struct LeaderBook {
    leaders: Vec<Leader>,
}

impl LeaderBook {
    /// Leaders recorded — the distance checks a Leader Check costs.
    pub fn len(&self) -> usize {
        self.leaders.len()
    }

    /// `true` when no leader is recorded.
    pub fn is_empty(&self) -> bool {
        self.leaders.is_empty()
    }

    /// Forgets every leader (between frames).
    pub fn clear(&mut self) {
        self.leaders.clear();
    }

    /// The Leader Check: the recorded result of the leader closest to
    /// `query` (the first one on a tie), when it lies strictly within
    /// `threshold`; `None` sends the query down the precise path.
    pub fn follow(&self, query: Vec3, threshold: f64) -> Option<&[u32]> {
        let closest = self.leaders.iter().min_by(|a, b| {
            query.distance_squared(a.query).partial_cmp(&query.distance_squared(b.query)).unwrap()
        })?;
        (query.distance(closest.query) < threshold).then_some(closest.results.as_slice())
    }

    /// Records a completed precise search of `query` as a leader while
    /// the book holds fewer than `leader_cap`; returns whether it did.
    /// Past the cap the result is dropped unread.
    pub fn record(
        &mut self,
        query: Vec3,
        results: impl IntoIterator<Item = u32>,
        leader_cap: usize,
    ) -> bool {
        let room = self.leaders.len() < leader_cap;
        if room {
            self.leaders.push(Leader { query, results: results.into_iter().collect() });
        }
        room
    }
}

/// A follower's NN answer: the point of its leader's recorded `results`
/// nearest to `query` (the first one on a tie).
pub fn follower_nn(points: &[Vec3], results: &[u32], query: Vec3) -> Option<Neighbor> {
    let mut best = Neighbor::new(usize::MAX, f64::INFINITY);
    for &i in results {
        let d2 = query.distance_squared(points[i as usize]);
        if d2 < best.distance_squared {
            best = Neighbor::new(i as usize, d2);
        }
    }
    (best.index != usize::MAX).then_some(best)
}

/// A follower's radius answer: the points of its leader's recorded
/// `results` within `radius` of `query`, ascending by distance.
pub fn follower_radius(
    points: &[Vec3],
    results: &[u32],
    query: Vec3,
    radius: f64,
) -> Vec<Neighbor> {
    let r2 = radius * radius;
    let mut out: Vec<Neighbor> = results
        .iter()
        .filter_map(|&i| {
            let d2 = query.distance_squared(points[i as usize]);
            (d2 <= r2).then(|| Neighbor::new(i as usize, d2))
        })
        .collect();
    out.sort();
    out
}

/// Counts a follower's work: one query served from `results`.
fn count_follower(stats: &mut SearchStats, results: &[u32]) {
    stats.queries += 1;
    stats.follower_hits += 1;
    stats.leader_result_points_scanned += results.len() as u64;
}

/// Stateful approximate-search backend: a [`TwoStageKdTree`] and the
/// per-leaf leader books of Algorithm 1, owned together as one unit.
///
/// Leaders accumulate per leaf as queries stream through, mirroring the
/// accelerator's per-leaf Leader Buffers; they persist across calls (e.g.
/// across ICP iterations) until [`ApproxIndex::reset`] clears them
/// (between frames). NN and radius queries maintain *separate* leader
/// books: their result sets are not interchangeable.
///
/// Owning the tree keeps the index free of borrowed lifetimes, so it can
/// sit behind the [`SearchIndex`] trait object the pipeline's searcher
/// holds; the searches borrow the tree and the books as disjoint fields.
/// This is the type behind the `"two-stage-approx"` entry of the backend
/// registry. Its batches are the trait's serial loop, so leader books
/// evolve exactly as under one-by-one queries.
///
/// # Example
///
/// ```
/// use tigris_core::index::SearchIndex;
/// use tigris_core::{ApproxConfig, ApproxIndex, SearchStats};
/// use tigris_geom::Vec3;
///
/// let pts: Vec<Vec3> = (0..256)
///     .map(|i| Vec3::new((i % 16) as f64, (i / 16) as f64, 0.0))
///     .collect();
/// let mut index = ApproxIndex::build(&pts, 4, ApproxConfig::default());
/// let mut stats = SearchStats::new();
/// // First query to a leaf is a leader — exact by construction.
/// let n = index.nn(Vec3::new(3.2, 8.1, 0.0), &mut stats).unwrap();
/// assert_eq!(pts[n.index], Vec3::new(3.0, 8.0, 0.0));
/// index.reset(); // clear leader books between frames
/// ```
#[derive(Debug)]
pub struct ApproxIndex {
    tree: TwoStageKdTree,
    cfg: ApproxConfig,
    /// NN leader book per top-tree leaf.
    nn_books: Vec<LeaderBook>,
    /// Radius leader book per top-tree leaf.
    radius_books: Vec<LeaderBook>,
}

impl ApproxIndex {
    /// Builds a two-stage tree of the given top height over `points` and
    /// wraps it with empty leader books.
    pub fn build(points: &[Vec3], top_height: usize, cfg: ApproxConfig) -> Self {
        ApproxIndex::from_tree(TwoStageKdTree::build(points, top_height), cfg)
    }

    /// Wraps an already-built tree, taking ownership.
    pub fn from_tree(tree: TwoStageKdTree, cfg: ApproxConfig) -> Self {
        let n_leaves = tree.leaves().len();
        ApproxIndex {
            tree,
            cfg,
            nn_books: vec![LeaderBook::default(); n_leaves],
            radius_books: vec![LeaderBook::default(); n_leaves],
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ApproxConfig {
        &self.cfg
    }

    /// The owned two-stage tree.
    pub fn tree(&self) -> &TwoStageKdTree {
        &self.tree
    }

    /// Clears all leader books (call between frames).
    pub fn reset(&mut self) {
        self.nn_books.iter_mut().chain(&mut self.radius_books).for_each(LeaderBook::clear);
    }

    /// Total leaders currently recorded across all leaves (both books).
    pub fn leader_count(&self) -> usize {
        self.nn_books.iter().chain(&self.radius_books).map(LeaderBook::len).sum()
    }

    /// Approximate nearest-neighbor search with visit accounting.
    ///
    /// All approximate-search state is per-leaf: a query reads and
    /// extends only the book of its primary leaf, in arrival order.
    pub fn nn_with_stats(&mut self, query: Vec3, stats: &mut SearchStats) -> Option<Neighbor> {
        // Dead-end descent (or empty tree): no book to consult or
        // extend; exact search.
        let Some(leaf) = self.tree.primary_leaf(query) else {
            return self.tree.nn_with_stats(query, stats);
        };
        let book = &mut self.nn_books[leaf];
        stats.leader_checks += book.len() as u64;
        if let Some(results) = book.follow(query, self.cfg.nn_threshold) {
            count_follower(stats, results);
            return follower_nn(self.tree.points(), results, query);
        }
        let result = self.tree.nn_with_stats(query, stats);
        if let Some(best) = result {
            if book.record(query, [best.index as u32], self.cfg.leader_cap) {
                stats.leader_promotions += 1;
            }
        }
        result
    }

    /// Approximate radius search with visit accounting. Results are
    /// sorted ascending by distance.
    ///
    /// Followers filter their leader's results by their own radius, so
    /// returned points are always genuinely within `radius`; the
    /// approximation can only *miss* points (the crescent outside the
    /// leader's ball).
    ///
    /// # Panics
    ///
    /// Panics when `radius` is negative.
    pub fn radius_with_stats(
        &mut self,
        query: Vec3,
        radius: f64,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        assert!(radius >= 0.0, "radius must be non-negative");
        let Some(leaf) = self.tree.primary_leaf(query) else {
            return self.tree.radius_with_stats(query, radius, stats);
        };
        let book = &mut self.radius_books[leaf];
        stats.leader_checks += book.len() as u64;
        if let Some(results) = book.follow(query, self.cfg.radius_threshold_frac * radius) {
            count_follower(stats, results);
            return follower_radius(self.tree.points(), results, query, radius);
        }
        let result = self.tree.radius_with_stats(query, radius, stats);
        if book.record(query, result.iter().map(|n| n.index as u32), self.cfg.leader_cap) {
            stats.leader_promotions += 1;
        }
        result
    }
}

impl SearchIndex for ApproxIndex {
    fn from_points(points: &[Vec3]) -> Self {
        ApproxIndex::build(points, default_top_height(points.len()), ApproxConfig::default())
    }

    fn name(&self) -> &'static str {
        "two-stage-approx"
    }

    fn points(&self) -> &[Vec3] {
        self.tree.points()
    }

    fn nn(&mut self, query: Vec3, stats: &mut SearchStats) -> Option<Neighbor> {
        self.nn_with_stats(query, stats)
    }

    /// k-NN has no approximate path (Algorithm 1 covers NN and radius);
    /// served exactly by the underlying two-stage tree.
    fn knn(&mut self, query: Vec3, k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.tree.knn_with_stats(query, k, stats)
    }

    fn radius(&mut self, query: Vec3, radius: f64, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.radius_with_stats(query, radius, stats)
    }

    fn reset(&mut self) {
        ApproxIndex::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An approximate index over a clone of `tree`, so tests can keep
    /// querying the exact tree alongside it.
    fn approx(tree: &TwoStageKdTree, cfg: ApproxConfig) -> ApproxIndex {
        ApproxIndex::from_tree(tree.clone(), cfg)
    }

    fn lcg_cloud(n: usize, seed: u64) -> Vec<Vec3> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 20.0 - 10.0
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    #[test]
    fn first_query_per_leaf_is_exact() {
        let pts = lcg_cloud(1000, 1);
        let tree = TwoStageKdTree::build(&pts, 4);
        let mut s = approx(&tree, ApproxConfig::default());
        let q = Vec3::new(0.0, 0.0, 0.0);
        let exact = tree.nn(q).unwrap();
        let approx = s.nn(q, &mut SearchStats::new()).unwrap();
        assert_eq!(exact.index, approx.index);
    }

    #[test]
    fn followers_reduce_work() {
        let pts = lcg_cloud(8000, 2);
        let tree = TwoStageKdTree::build(&pts, 4);
        let mut s = approx(&tree, ApproxConfig { nn_threshold: 5.0, ..Default::default() });
        // A tight cluster of queries: after the first, the rest follow.
        let queries: Vec<Vec3> =
            (0..50).map(|i| Vec3::new(1.0 + 0.01 * i as f64, 2.0, 3.0)).collect();

        let mut approx_stats = SearchStats::new();
        for &q in &queries {
            s.nn_with_stats(q, &mut approx_stats);
        }
        let mut exact_stats = SearchStats::new();
        for &q in &queries {
            tree.nn_with_stats(q, &mut exact_stats);
        }
        assert!(approx_stats.follower_hits > 0, "no followers at all");
        assert!(
            approx_stats.total_nodes_visited() < exact_stats.total_nodes_visited() / 4,
            "approx {} should be far below exact {}",
            approx_stats.total_nodes_visited(),
            exact_stats.total_nodes_visited()
        );
        assert_eq!(approx_stats.queries, 50);
    }

    #[test]
    fn follower_error_is_bounded_by_threshold_geometry() {
        // Triangle inequality: the follower inherits its leader's NN, which
        // is at most d(f, leader) + d(leader, leader's NN) away, so the
        // reported distance exceeds the true NN distance by at most 2·thd.
        let pts = lcg_cloud(5000, 3);
        let tree = TwoStageKdTree::build(&pts, 5);
        let thd = 1.2;
        let mut s = approx(&tree, ApproxConfig { nn_threshold: thd, ..Default::default() });
        for q in lcg_cloud(300, 4) {
            let approx = s.nn(q, &mut SearchStats::new()).unwrap();
            let exact = tree.nn(q).unwrap();
            assert!(
                approx.distance() <= exact.distance() + 2.0 * thd + 1e-9,
                "approx {} exact {}",
                approx.distance(),
                exact.distance()
            );
        }
    }

    #[test]
    fn radius_followers_return_sound_sorted_results() {
        let pts = lcg_cloud(4000, 7);
        let tree = TwoStageKdTree::build(&pts, 4);
        let r = 2.0;
        let mut s = approx(&tree, ApproxConfig::default());
        for q in lcg_cloud(100, 8) {
            let res = s.radius(q, r, &mut SearchStats::new());
            for n in &res {
                assert!(n.distance_squared <= r * r + 1e-12);
            }
            for w in res.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn radius_followers_keep_high_recall() {
        // A follower at distance ≤ thd = 0.4 r from its leader inherits the
        // leader's r-ball, which covers most of its own.
        let pts = lcg_cloud(4000, 9);
        let tree = TwoStageKdTree::build(&pts, 4);
        let r = 2.0;
        let mut s = approx(&tree, ApproxConfig::default());
        let mut total_exact = 0usize;
        let mut total_approx = 0usize;
        for q in lcg_cloud(200, 10) {
            total_exact += tree.radius(q, r).len();
            total_approx += s.radius(q, r, &mut SearchStats::new()).len();
        }
        let recall = total_approx as f64 / total_exact.max(1) as f64;
        assert!(recall > 0.6, "recall = {recall}");
        assert!(recall <= 1.0 + 1e-12);
    }

    #[test]
    fn leader_cap_is_respected() {
        let pts = lcg_cloud(2000, 11);
        let tree = TwoStageKdTree::build(&pts, 1); // 2 leaves → heavy reuse
        let cap = 4;
        let mut s = approx(
            &tree,
            ApproxConfig { leader_cap: cap, nn_threshold: 1e-9, ..Default::default() },
        );
        // Tiny threshold: every query wants to become a leader.
        for q in lcg_cloud(100, 12) {
            s.nn(q, &mut SearchStats::new());
        }
        assert!(s.leader_count() <= cap * tree.leaves().len());
    }

    #[test]
    fn reset_clears_leaders() {
        let pts = lcg_cloud(500, 13);
        let tree = TwoStageKdTree::build(&pts, 2);
        let mut s = approx(&tree, ApproxConfig::default());
        for q in lcg_cloud(20, 14) {
            s.nn(q, &mut SearchStats::new());
        }
        assert!(s.leader_count() > 0);
        s.reset();
        assert_eq!(s.leader_count(), 0);
    }

    #[test]
    fn zero_threshold_never_follows() {
        let pts = lcg_cloud(1000, 15);
        let tree = TwoStageKdTree::build(&pts, 3);
        let mut s = approx(
            &tree,
            ApproxConfig { nn_threshold: 0.0, radius_threshold_frac: 0.0, ..Default::default() },
        );
        let mut stats = SearchStats::new();
        for q in lcg_cloud(50, 16) {
            let approx = s.nn_with_stats(q, &mut stats).unwrap();
            let exact = tree.nn(q).unwrap();
            assert_eq!(approx.index, exact.index, "thd=0 must stay exact");
        }
        assert_eq!(stats.follower_hits, 0);
    }

    #[test]
    fn empty_tree() {
        let tree = TwoStageKdTree::build(&[], 3);
        let mut s = approx(&tree, ApproxConfig::default());
        assert!(s.nn(Vec3::ZERO, &mut SearchStats::new()).is_none());
        assert!(s.radius(Vec3::ZERO, 1.0, &mut SearchStats::new()).is_empty());
    }

    #[test]
    fn nn_and_radius_books_are_independent() {
        let pts = lcg_cloud(1000, 17);
        let tree = TwoStageKdTree::build(&pts, 2);
        let mut s = approx(&tree, ApproxConfig::default());
        let before = s.leader_count();
        s.nn(Vec3::ZERO, &mut SearchStats::new());
        let after_nn = s.leader_count();
        s.radius(Vec3::ZERO, 1.0, &mut SearchStats::new());
        let after_radius = s.leader_count();
        assert!(after_nn > before);
        assert!(after_radius > after_nn, "radius query must add its own leaders");
    }

    #[test]
    fn repeated_iterations_go_full_follower() {
        // The RPCE pattern: the same query set re-issued across ICP
        // iterations. Iteration 1 builds leaders; iterations 2+ follow.
        let pts = lcg_cloud(4000, 19);
        let tree = TwoStageKdTree::build(&pts, 4);
        let mut s = approx(&tree, ApproxConfig::default());
        let queries = lcg_cloud(64, 20);
        let mut stats = SearchStats::new();
        for &q in &queries {
            s.nn_with_stats(q, &mut stats);
        }
        let first_pass_followers = stats.follower_hits;
        for &q in &queries {
            // Slightly moved, well within thd.
            s.nn_with_stats(q + Vec3::new(0.01, 0.0, 0.0), &mut stats);
        }
        let second_pass_followers = stats.follower_hits - first_pass_followers;
        assert!(
            second_pass_followers as usize > queries.len() * 8 / 10,
            "second pass should be ≥80% followers, got {second_pass_followers}/{}",
            queries.len()
        );
    }
}
