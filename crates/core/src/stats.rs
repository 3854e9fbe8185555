//! Node-visit accounting for KD-tree searches.
//!
//! The paper's redundancy analysis (Fig. 6) and the accelerator's memory
//! traffic model both need exact counts of how much work each search does;
//! every search entry point has a `*_with_stats` variant that accumulates
//! into a [`SearchStats`].

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Counters accumulated over one or more KD-tree searches.
///
/// "Node visits" counts every point whose distance to the query is computed
/// — the unit of work the paper uses to quantify redundancy (Fig. 6) — and
/// is split into visits during recursive (top-)tree traversal and visits
/// during exhaustive leaf scans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of queries run.
    pub queries: u64,
    /// Points visited (distance computed) during recursive tree traversal.
    pub tree_nodes_visited: u64,
    /// Points visited during exhaustive scans of two-stage leaf sets.
    pub leaf_points_scanned: u64,
    /// Sub-trees skipped by bounding-box pruning.
    pub subtrees_pruned: u64,
    /// Two-stage leaf sets exhaustively scanned.
    pub leaves_scanned: u64,
    /// Leader-distance checks performed by the approximate search.
    pub leader_checks: u64,
    /// Follower queries served from a leader's result set (approximate path).
    pub follower_hits: u64,
    /// Queries that became leaders (exhaustive path of Algorithm 1).
    pub leader_promotions: u64,
    /// Points scanned inside leaders' result sets by follower queries.
    pub leader_result_points_scanned: u64,
}

impl SearchStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        SearchStats::default()
    }

    /// Total points visited: tree traversal + leaf scans + leader
    /// bookkeeping. This is the `Operations` metric of paper Fig. 6b.
    pub fn total_nodes_visited(&self) -> u64 {
        self.tree_nodes_visited
            + self.leaf_points_scanned
            + self.leader_checks
            + self.leader_result_points_scanned
    }

    /// Redundancy of this workload relative to `baseline` (typically the
    /// canonical KD-tree running the same queries): the ratio of total node
    /// visits. This is the y-axis of paper Fig. 6a.
    ///
    /// Returns `f64::INFINITY` when the baseline did no work.
    pub fn redundancy_vs(&self, baseline: &SearchStats) -> f64 {
        let base = baseline.total_nodes_visited();
        if base == 0 {
            f64::INFINITY
        } else {
            self.total_nodes_visited() as f64 / base as f64
        }
    }

    /// Mean points visited per query, or 0 when no queries ran.
    pub fn visits_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total_nodes_visited() as f64 / self.queries as f64
        }
    }

    /// Fraction of queries served by the approximate follower path.
    pub fn follower_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.follower_hits as f64 / self.queries as f64
        }
    }

    /// Folds another counter set into this one (named form of `+=`).
    ///
    /// Every field is a plain sum, so merging the stats of any split of
    /// a query stream (chunks, per-submap reads) in any order reproduces
    /// the one-shot totals exactly — the merge is lossless and
    /// commutative.
    pub fn merge(&mut self, other: &SearchStats) {
        *self += *other;
    }
}

// Counters are plain sums that callers may meter on any thread and hand
// between threads; keep that guaranteed at compile time.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SearchStats>();
};

impl Add for SearchStats {
    type Output = SearchStats;
    fn add(self, o: SearchStats) -> SearchStats {
        SearchStats {
            queries: self.queries + o.queries,
            tree_nodes_visited: self.tree_nodes_visited + o.tree_nodes_visited,
            leaf_points_scanned: self.leaf_points_scanned + o.leaf_points_scanned,
            subtrees_pruned: self.subtrees_pruned + o.subtrees_pruned,
            leaves_scanned: self.leaves_scanned + o.leaves_scanned,
            leader_checks: self.leader_checks + o.leader_checks,
            follower_hits: self.follower_hits + o.follower_hits,
            leader_promotions: self.leader_promotions + o.leader_promotions,
            leader_result_points_scanned: self.leader_result_points_scanned
                + o.leader_result_points_scanned,
        }
    }
}

impl AddAssign for SearchStats {
    fn add_assign(&mut self, o: SearchStats) {
        *self = *self + o;
    }
}

impl Sub for SearchStats {
    type Output = SearchStats;

    /// Field-wise difference between two snapshots of the same
    /// monotonically-growing counter set — the delta accounting used to
    /// attribute a reused searcher's work to the registration that caused
    /// it. Saturates at zero so a stale snapshot can never underflow.
    fn sub(self, o: SearchStats) -> SearchStats {
        SearchStats {
            queries: self.queries.saturating_sub(o.queries),
            tree_nodes_visited: self.tree_nodes_visited.saturating_sub(o.tree_nodes_visited),
            leaf_points_scanned: self.leaf_points_scanned.saturating_sub(o.leaf_points_scanned),
            subtrees_pruned: self.subtrees_pruned.saturating_sub(o.subtrees_pruned),
            leaves_scanned: self.leaves_scanned.saturating_sub(o.leaves_scanned),
            leader_checks: self.leader_checks.saturating_sub(o.leader_checks),
            follower_hits: self.follower_hits.saturating_sub(o.follower_hits),
            leader_promotions: self.leader_promotions.saturating_sub(o.leader_promotions),
            leader_result_points_scanned: self
                .leader_result_points_scanned
                .saturating_sub(o.leader_result_points_scanned),
        }
    }
}

impl fmt::Display for SearchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "queries: {}, tree visits: {}, leaf scans: {}, pruned: {}, followers: {}",
            self.queries,
            self.tree_nodes_visited,
            self.leaf_points_scanned,
            self.subtrees_pruned,
            self.follower_hits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_components() {
        let s = SearchStats {
            queries: 2,
            tree_nodes_visited: 10,
            leaf_points_scanned: 20,
            leader_checks: 3,
            leader_result_points_scanned: 7,
            ..SearchStats::default()
        };
        assert_eq!(s.total_nodes_visited(), 40);
        assert_eq!(s.visits_per_query(), 20.0);
    }

    #[test]
    fn redundancy_ratio() {
        let base = SearchStats { tree_nodes_visited: 100, ..SearchStats::default() };
        let two_stage = SearchStats {
            tree_nodes_visited: 50,
            leaf_points_scanned: 250,
            ..SearchStats::default()
        };
        assert_eq!(two_stage.redundancy_vs(&base), 3.0);
        assert_eq!(base.redundancy_vs(&SearchStats::default()), f64::INFINITY);
    }

    #[test]
    fn add_accumulates_all_fields() {
        let a = SearchStats {
            queries: 1,
            tree_nodes_visited: 2,
            leaf_points_scanned: 3,
            subtrees_pruned: 4,
            leaves_scanned: 5,
            leader_checks: 6,
            follower_hits: 7,
            leader_promotions: 8,
            leader_result_points_scanned: 9,
        };
        let mut b = a;
        b += a;
        assert_eq!(b.queries, 2);
        assert_eq!(b.leader_result_points_scanned, 18);
        assert_eq!(b, a + a);
    }

    #[test]
    fn sub_yields_snapshot_delta() {
        let before = SearchStats { queries: 3, tree_nodes_visited: 10, ..SearchStats::default() };
        let after = SearchStats { queries: 8, tree_nodes_visited: 25, ..SearchStats::default() };
        let delta = after - before;
        assert_eq!(delta.queries, 5);
        assert_eq!(delta.tree_nodes_visited, 15);
        // Saturation, never underflow.
        assert_eq!((before - after).queries, 0);
    }

    #[test]
    fn rates_handle_zero_queries() {
        let s = SearchStats::default();
        assert_eq!(s.visits_per_query(), 0.0);
        assert_eq!(s.follower_rate(), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!SearchStats::default().to_string().is_empty());
    }
}
