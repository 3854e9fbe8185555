//! Tigris KD-tree data structures and search algorithms — the paper's
//! primary algorithmic contribution (Sec. 4).
//!
//! Point cloud registration spends 50–85% of its time in KD-tree search
//! (paper Fig. 4b). This crate provides:
//!
//! * [`KdTree`] — the canonical 3D KD-tree (paper Fig. 5a): one point per
//!   node, median splits, pruned recursive NN / k-NN / radius search.
//! * [`TwoStageKdTree`] — the acceleration-amenable variant (paper Fig. 5b):
//!   a *top-tree* of height `h_top` whose leaf nodes hold their children as
//!   unordered sets, enabling exhaustive (and therefore parallel) search at
//!   the leaves. Exposes query-level and node-level parallelism at the cost
//!   of redundant node visits (paper Fig. 6).
//! * [`approx`] — the approximate leader/follower search of Algorithm 1
//!   ([`ApproxIndex`]): queries reaching the same leaf are split into
//!   leaders (searched exhaustively) and followers (searched only against
//!   the closest leader's result set).
//! * [`dynamic`] — the incrementally insertable [`DynamicMapIndex`] (static
//!   tree + fresh-points buffer, merged by periodic rebuild) that mapping
//!   workloads insert into as the map grows, registered as `"dynamic"`.
//! * [`KdTreeN`] — a k-dimensional KD-tree for feature-space search (KPCE
//!   matches FPFH/SHOT descriptors, which live in ℝ³³ and beyond).
//! * [`SearchStats`] — node-visit accounting behind the redundancy and
//!   traffic analyses.
//! * [`index`] — the [`SearchIndex`] trait and backend registry: the
//!   public seam through which *every* backend (the trees above, the
//!   [`BruteForceIndex`] oracle, and `tigris-accel`'s online accelerator
//!   model) plugs into the registration pipeline interchangeably, serial
//!   and batched queries alike. A batch is the serial loop on the calling
//!   thread; only the accelerator model replays it as one hardware run.
//!
//! # Example
//!
//! ```
//! use tigris_core::{KdTree, TwoStageKdTree};
//! use tigris_geom::Vec3;
//!
//! let pts: Vec<Vec3> = (0..100)
//!     .map(|i| Vec3::new((i % 10) as f64, (i / 10) as f64, 0.0))
//!     .collect();
//! let classic = KdTree::build(&pts);
//! let two_stage = TwoStageKdTree::build(&pts, 3);
//!
//! let q = Vec3::new(4.2, 7.1, 0.3);
//! let a = classic.nn(q).unwrap();
//! let b = two_stage.nn(q).unwrap();
//! assert_eq!(a.index, b.index); // exact mode agrees with the classic tree
//! ```

#![warn(missing_docs)]

pub mod approx;
pub mod bruteforce;
pub mod dynamic;
pub mod index;
pub mod kdtree;
pub mod kdtree_nd;
pub mod record;
pub mod simd;
pub mod soa;
pub mod stats;
pub mod twostage;

pub use approx::{follower_nn, follower_radius, ApproxConfig, ApproxIndex, LeaderBook};
pub use bruteforce::{knn_brute_force, nn_brute_force, radius_brute_force, BruteForceIndex};
pub use dynamic::DynamicMapIndex;
pub use index::{backend_names, build_backend, register_backend, SearchIndex, SharedIndex};
pub use kdtree::KdTree;
pub use kdtree_nd::KdTreeN;
pub use record::{segment_by_kind, QueryKind, QueryRecord};
pub use soa::{PointSoA, SoaView};
pub use stats::SearchStats;
pub use twostage::{default_top_height, LeafSet, TopChild, TopNode, TwoStageKdTree};

/// A search result: the index of a point in the indexed cloud and its
/// squared distance to the query.
///
/// Squared distances avoid the square root in the hot loop — the same
/// choice the accelerator's distance datapath makes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the matched point in the point array the tree was built on.
    pub index: usize,
    /// Squared Euclidean distance between the query and the matched point.
    pub distance_squared: f64,
}

impl Neighbor {
    /// Creates a neighbor record.
    pub fn new(index: usize, distance_squared: f64) -> Self {
        Neighbor { index, distance_squared }
    }

    /// The (non-squared) Euclidean distance.
    pub fn distance(&self) -> f64 {
        self.distance_squared.sqrt()
    }
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.distance_squared
            .partial_cmp(&other.distance_squared)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.index.cmp(&other.index))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_ordering_is_by_distance_then_index() {
        let a = Neighbor::new(5, 1.0);
        let b = Neighbor::new(2, 2.0);
        let c = Neighbor::new(1, 1.0);
        assert!(a < b);
        assert!(c < a); // tie on distance broken by index
        let mut v = vec![b, a, c];
        v.sort();
        assert_eq!(v, vec![c, a, b]);
    }

    #[test]
    fn neighbor_distance() {
        assert_eq!(Neighbor::new(0, 9.0).distance(), 3.0);
    }
}
