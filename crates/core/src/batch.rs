//! Parallel batched neighbor search — the software realization of the
//! query-level parallelism the paper's two-stage KD-tree exists to expose
//! (Sec. 4.1: "the two-stage tree trades redundant work for parallelism").
//!
//! The registration pipeline issues neighbor queries in large, independent
//! fan-outs: one radius query per point during normal estimation, one per
//! key-point during descriptor calculation, one NN query per source point
//! per ICP iteration. This module is the engine that can execute such
//! batches across OS threads while keeping every observable output —
//! results *and* [`SearchStats`] counters — bit-identical to the serial
//! execution. Backends reach it through
//! [`SearchIndex`](crate::index::SearchIndex)'s `*_batch` methods, which
//! pick one of two strategies per backend:
//!
//! * Stateless backends ([`KdTree`](crate::KdTree),
//!   [`TwoStageKdTree`](crate::TwoStageKdTree), brute force, the dynamic
//!   map index) expose a [`SharedIndex`](crate::index::SharedIndex) view
//!   whose `*_batch_shared` methods split the batch into contiguous spans
//!   with [`parallel_queries`], one per worker, and concatenate results
//!   in span order.
//! * The stateful [`ApproxIndex`](crate::ApproxIndex) (Algorithm 1) keeps
//!   *per-leaf* leader books, so its batches group queries by primary
//!   leaf and each worker owns a contiguous range of leaves. Within a
//!   leaf, queries run in arrival order — exactly the per-leaf history
//!   the serial search produces, and the same scheme the hardware's
//!   per-SU leader buffers implement (Sec. 5.4).
//!
//! Every worker accumulates into its own [`SearchStats`] and the
//! per-thread counters are merged losslessly afterwards, so batched
//! node-visit accounting equals the serial totals exactly.
//!
//! # Example
//!
//! ```
//! use tigris_core::index::SearchIndex;
//! use tigris_core::{BatchConfig, KdTree, SearchStats};
//! use tigris_geom::Vec3;
//!
//! let pts: Vec<Vec3> = (0..2000)
//!     .map(|i| Vec3::new((i % 50) as f64, (i / 50) as f64, 0.0))
//!     .collect();
//! let queries: Vec<Vec3> = (0..500).map(|i| Vec3::new(i as f64 * 0.1, 3.3, 0.2)).collect();
//!
//! let mut tree = KdTree::build(&pts);
//! let cfg = BatchConfig { threads: 4, min_chunk: 16 };
//! let mut stats = SearchStats::new();
//! let batched = tree.nn_batch(&queries, &cfg, &mut stats);
//!
//! // Identical to the serial answers, with all queries accounted.
//! assert_eq!(batched.len(), queries.len());
//! assert_eq!(stats.queries, queries.len() as u64);
//! assert_eq!(batched[7].unwrap().index, tree.nn(queries[7]).unwrap().index);
//! ```

use crate::SearchStats;
use tigris_geom::Vec3;

/// Parallelism knobs for batched query execution.
///
/// The defaults are deliberately serial (`threads == 1`): callers opt in
/// to parallelism explicitly. The registration pipeline and the map
/// layers above it run every batch serially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Worker threads for batched queries. `0` means one per available
    /// hardware thread; `1` runs inline on the calling thread.
    pub threads: usize,
    /// Minimum queries per worker. Batches smaller than
    /// `threads × min_chunk` use fewer workers, so tiny batches never pay
    /// thread-spawn overhead for nothing.
    pub min_chunk: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::serial()
    }
}

impl BatchConfig {
    /// Inline execution on the calling thread (the default).
    pub fn serial() -> Self {
        BatchConfig { threads: 1, min_chunk: 256 }
    }

    /// One worker per available hardware thread.
    pub fn auto() -> Self {
        BatchConfig { threads: 0, min_chunk: 256 }
    }

    /// Exactly `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        BatchConfig { threads, min_chunk: 256 }
    }

    /// The worker count this config resolves to for a batch of `items`.
    pub fn resolve_threads(&self, items: usize) -> usize {
        if items == 0 {
            return 1;
        }
        let hw = if self.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.threads
        };
        hw.min(items.div_ceil(self.min_chunk.max(1))).max(1)
    }
}

/// Balanced contiguous spans `[lo, hi)` covering `0..n` across `t` workers.
fn spans(n: usize, t: usize) -> Vec<(usize, usize)> {
    let base = n / t;
    let extra = n % t;
    let mut out = Vec::with_capacity(t);
    let mut lo = 0;
    for i in 0..t {
        let len = base + usize::from(i < extra);
        out.push((lo, lo + len));
        lo += len;
    }
    out
}

/// Runs `f` over every query, fanning contiguous spans out across the
/// configured worker threads. Results come back in query order and every
/// worker's [`SearchStats`] is merged into `stats`, so the outcome is
/// indistinguishable from the serial loop.
///
/// This is the engine behind the stateless backends'
/// [`SharedIndex`](crate::index::SharedIndex) batches; it is public so a
/// caller can fan out its own `Sync` search closure the same way.
pub fn parallel_queries<R, F>(
    queries: &[Vec3],
    cfg: &BatchConfig,
    stats: &mut SearchStats,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(Vec3, &mut SearchStats) -> R + Sync,
{
    let t = cfg.resolve_threads(queries.len());
    if t <= 1 {
        return queries.iter().map(|&q| f(q, stats)).collect();
    }
    let parts: Vec<(Vec<R>, SearchStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = spans(queries.len(), t)
            .into_iter()
            .map(|(lo, hi)| {
                let f = &f;
                scope.spawn(move || {
                    let mut local = SearchStats::new();
                    let out: Vec<R> = queries[lo..hi].iter().map(|&q| f(q, &mut local)).collect();
                    (out, local)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("batch worker panicked")).collect()
    });
    let mut out = Vec::with_capacity(queries.len());
    for (chunk, local) in parts {
        out.extend(chunk);
        *stats += local;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::SearchIndex;
    use crate::{ApproxConfig, ApproxIndex, BruteForceIndex, KdTree, TwoStageKdTree};

    fn lcg_cloud(n: usize, seed: u64) -> Vec<Vec3> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 20.0 - 10.0
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    #[test]
    fn spans_cover_everything_once() {
        for n in [0usize, 1, 7, 64, 65] {
            for t in [1usize, 2, 3, 8] {
                let s = spans(n, t);
                assert_eq!(s.len(), t);
                assert_eq!(s[0].0, 0);
                assert_eq!(s[t - 1].1, n);
                for w in s.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                }
            }
        }
    }

    #[test]
    fn resolve_threads_honors_min_chunk() {
        let cfg = BatchConfig { threads: 8, min_chunk: 100 };
        assert_eq!(cfg.resolve_threads(0), 1);
        assert_eq!(cfg.resolve_threads(99), 1);
        assert_eq!(cfg.resolve_threads(250), 3);
        assert_eq!(cfg.resolve_threads(10_000), 8);
    }

    #[test]
    fn batched_kdtree_matches_serial_results_and_stats() {
        let pts = lcg_cloud(3000, 1);
        let queries = lcg_cloud(777, 2);
        let mut tree = KdTree::build(&pts);
        let cfg = BatchConfig { threads: 4, min_chunk: 8 };

        let mut serial_stats = SearchStats::new();
        let serial: Vec<_> =
            queries.iter().map(|&q| tree.nn_with_stats(q, &mut serial_stats)).collect();

        let mut batch_stats = SearchStats::new();
        let batched = tree.nn_batch(&queries, &cfg, &mut batch_stats);

        assert_eq!(serial, batched);
        assert_eq!(serial_stats, batch_stats);
    }

    #[test]
    fn batched_approx_matches_serial_results_and_stats() {
        let pts = lcg_cloud(4000, 3);
        let queries = lcg_cloud(500, 4);
        let cfg = BatchConfig { threads: 4, min_chunk: 8 };

        let mut serial = ApproxIndex::build(&pts, 4, ApproxConfig::default());
        let mut serial_stats = SearchStats::new();
        let serial_out: Vec<_> =
            queries.iter().map(|&q| serial.nn_with_stats(q, &mut serial_stats)).collect();

        let mut batched = ApproxIndex::build(&pts, 4, ApproxConfig::default());
        let mut batch_stats = SearchStats::new();
        let batch_out = batched.nn_batch(&queries, &cfg, &mut batch_stats);

        assert_eq!(serial_out, batch_out);
        assert_eq!(serial_stats, batch_stats);
        assert_eq!(serial.leader_count(), batched.leader_count());
        assert!(batch_stats.follower_hits > 0, "workload should produce followers");
    }

    #[test]
    fn batched_approx_radius_matches_serial() {
        let pts = lcg_cloud(2000, 5);
        let queries = lcg_cloud(300, 6);
        let cfg = BatchConfig { threads: 3, min_chunk: 4 };

        let mut serial = ApproxIndex::build(&pts, 3, ApproxConfig::default());
        let mut s_stats = SearchStats::new();
        let s_out: Vec<_> =
            queries.iter().map(|&q| serial.radius_with_stats(q, 2.0, &mut s_stats)).collect();

        let mut batched = ApproxIndex::build(&pts, 3, ApproxConfig::default());
        let mut b_stats = SearchStats::new();
        let b_out = batched.radius_batch(&queries, 2.0, &cfg, &mut b_stats);

        assert_eq!(s_out, b_out);
        assert_eq!(s_stats, b_stats);
    }

    #[test]
    fn brute_force_backend_counts_scans() {
        let mut index = BruteForceIndex::new(lcg_cloud(100, 7));
        let queries = lcg_cloud(10, 8);
        let cfg = BatchConfig { threads: 2, min_chunk: 1 };
        let mut stats = SearchStats::new();
        let out = index.nn_batch(&queries, &cfg, &mut stats);
        assert_eq!(out.len(), 10);
        assert_eq!(stats.queries, 10);
        assert_eq!(stats.leaf_points_scanned, 1000);
    }

    #[test]
    fn empty_queries_and_empty_trees() {
        let mut tree = KdTree::build(&[]);
        let cfg = BatchConfig::auto();
        let mut stats = SearchStats::new();
        assert!(tree.nn_batch(&[], &cfg, &mut stats).is_empty());
        let qs = lcg_cloud(5, 9);
        let out = tree.nn_batch(&qs, &cfg, &mut stats);
        assert!(out.iter().all(Option::is_none));

        let empty_tree = TwoStageKdTree::build(&[], 3);
        let mut approx = ApproxIndex::from_tree(empty_tree, ApproxConfig::default());
        let out = approx.nn_batch(&qs, &cfg, &mut stats);
        assert!(out.iter().all(Option::is_none));
    }
}
