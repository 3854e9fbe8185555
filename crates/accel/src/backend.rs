//! [`AccelBackend`]: the simulated accelerator, the one type that drives
//! the cycle-level model ([`crate::sim`]).
//!
//! Offline it simulates query batches ([`AccelBackend::run`],
//! [`AccelBackend::run_nn`], [`AccelBackend::run_radius`]) and replays
//! logged query streams ([`AccelBackend::replay`]). Online it implements
//! `tigris_core::SearchIndex`, so the simulated machine can *serve* the
//! registration pipeline's queries (through `Searcher3`, `register()`,
//! the odometer and the DSE sweeps).
//!
//! Every batch runs per-query top-tree traversal with pop-time pruning,
//! SU leaf scans and optional leader/follower approximation, and the
//! hardware cost (cycles, simulated seconds, energy) accumulates in an
//! [`AccelMeter`] alongside the answers. In exact mode the answers are
//! bit-identical to the software two-stage search, so swapping
//! `SearchBackendConfig::TwoStage` for the accelerator changes *when* the
//! result would be ready, never *what* it is.
//!
//! # Example
//!
//! ```
//! use tigris_accel::{AccelBackend, AcceleratorConfig};
//! use tigris_core::{SearchIndex, SearchStats};
//! use tigris_geom::Vec3;
//!
//! let pts: Vec<Vec3> = (0..2048)
//!     .map(|i| Vec3::new((i % 32) as f64, (i / 32) as f64, 0.0))
//!     .collect();
//! let mut backend = AccelBackend::build(&pts, 5, AcceleratorConfig::default());
//! let mut stats = SearchStats::new();
//! let n = backend.nn(Vec3::new(3.3, 7.8, 0.1), &mut stats).unwrap();
//! assert_eq!(pts[n.index], Vec3::new(3.0, 8.0, 0.0));
//! // The simulated hardware cost of serving that query:
//! assert!(backend.meter().cycles > 0);
//! ```

use tigris_core::twostage::default_top_height;
use tigris_core::{
    register_backend, LeaderBook, Neighbor, SearchIndex, SearchStats, TwoStageKdTree,
};
use tigris_geom::Vec3;

use crate::config::AcceleratorConfig;
use crate::energy::EnergyModel;
use crate::sim::{SearchKind, SimReport};

/// Accumulated hardware cost of the searches an [`AccelBackend`] served.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccelMeter {
    /// Query batches executed (serial queries count as batches of one).
    pub batches: u64,
    /// Queries served.
    pub queries: u64,
    /// Total accelerator cycles (batches run back-to-back).
    pub cycles: u64,
    /// Simulated wall-clock seconds at the configured clock.
    pub seconds: f64,
    /// Total energy, joules.
    pub energy_joules: f64,
    /// Queries served by the approximate follower path.
    pub follower_hits: u64,
}

impl AccelMeter {
    /// Average simulated power (W), or 0 when nothing ran.
    pub fn power_watts(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.energy_joules / self.seconds
        }
    }
}

/// The simulated Tigris accelerator: offline simulator and pluggable
/// search backend in one.
///
/// Owns its two-stage tree and per-leaf leader buffers (no borrowed tree,
/// no self-reference), implements `SearchIndex`, and registers under the
/// name `"accelerator"` via [`register_accelerator_backend`]. With
/// `config.approx = None` (the default) every search is exact and
/// bit-identical to [`TwoStageKdTree`]; with approximation enabled its
/// leader buffers are core's [`LeaderBook`]s, so it answers exactly like
/// `tigris_core::ApproxIndex` over the same tree. Leader buffers persist
/// across runs until [`SearchIndex::reset`] (between frames).
///
/// k-NN queries are served by the exact top-tree path (the hardware treats
/// k-NN as an NN search retaining k results; Algorithm 1 covers only NN
/// and radius), so they are always exact.
#[derive(Debug)]
pub struct AccelBackend {
    pub(crate) tree: TwoStageKdTree,
    pub(crate) config: AcceleratorConfig,
    pub(crate) energy_model: EnergyModel,
    /// NN Leader Buffer per top-tree leaf.
    pub(crate) nn_books: Vec<LeaderBook>,
    /// Radius Leader Buffer per top-tree leaf.
    pub(crate) radius_books: Vec<LeaderBook>,
    pub(crate) meter: AccelMeter,
}

impl AccelBackend {
    /// Builds a two-stage tree of the given top height over `points` and
    /// wraps it in an accelerator with the given configuration.
    pub fn build(points: &[Vec3], top_height: usize, config: AcceleratorConfig) -> Self {
        AccelBackend::from_tree(TwoStageKdTree::build(points, top_height), config)
    }

    /// Wraps an already-built tree, taking ownership.
    pub fn from_tree(tree: TwoStageKdTree, config: AcceleratorConfig) -> Self {
        let n_leaves = tree.leaves().len();
        AccelBackend {
            tree,
            config,
            energy_model: EnergyModel::default(),
            nn_books: vec![LeaderBook::default(); n_leaves],
            radius_books: vec![LeaderBook::default(); n_leaves],
            meter: AccelMeter::default(),
        }
    }

    /// The owned two-stage tree.
    pub fn tree(&self) -> &TwoStageKdTree {
        &self.tree
    }

    /// The accelerator configuration in effect.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The hardware cost accumulated so far.
    pub fn meter(&self) -> &AccelMeter {
        &self.meter
    }

    /// Takes the accumulated meter, restarting from zero — e.g. once per
    /// frame, to attribute simulated cycles to pipeline stages.
    pub fn take_meter(&mut self) -> AccelMeter {
        std::mem::take(&mut self.meter)
    }

    /// Folds a report's work counters into software-visible search stats.
    ///
    /// The mapping mirrors the software backends: top-tree expansions are
    /// tree-node visits, bypasses are pruned sub-trees, PE point-streams
    /// are leaf scans. All are per-task sums, so batched accounting equals
    /// the serial accounting exactly.
    fn absorb_stats(stats: &mut SearchStats, report: &SimReport, queries: u64) {
        stats.queries += queries;
        stats.tree_nodes_visited += report.nodes_expanded;
        stats.subtrees_pruned += report.nodes_bypassed;
        stats.leaf_points_scanned += report.leaf_points_scanned;
        stats.follower_hits += report.follower_hits;
    }
}

impl SearchIndex for AccelBackend {
    fn from_points(points: &[Vec3]) -> Self {
        AccelBackend::build(points, default_top_height(points.len()), AcceleratorConfig::default())
    }

    fn name(&self) -> &'static str {
        "accelerator"
    }

    fn points(&self) -> &[Vec3] {
        self.tree.points()
    }

    fn nn(&mut self, query: Vec3, stats: &mut SearchStats) -> Option<Neighbor> {
        let report = self.execute(&[query], SearchKind::Nn, false);
        Self::absorb_stats(stats, &report, 1);
        report.nn_results.into_iter().next().flatten()
    }

    fn knn(&mut self, query: Vec3, k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        self.tree.knn_with_stats(query, k, stats)
    }

    fn radius(&mut self, query: Vec3, radius: f64, stats: &mut SearchStats) -> Vec<Neighbor> {
        assert!(radius >= 0.0, "radius must be non-negative");
        let mut report = self.execute(&[query], SearchKind::Radius(radius), true);
        Self::absorb_stats(stats, &report, 1);
        report.radius_results.pop().unwrap_or_default()
    }

    /// The whole batch executes as one hardware run — query-level
    /// parallelism is the machine's own (RUs × SUs), the paper's model
    /// (Sec. 5), and the only batch body other than the trait's serial
    /// loop. Results are identical to that loop: the engine traces
    /// queries in order and the leader buffers evolve identically.
    fn nn_batch(&mut self, queries: &[Vec3], stats: &mut SearchStats) -> Vec<Option<Neighbor>> {
        let report = self.execute(queries, SearchKind::Nn, false);
        Self::absorb_stats(stats, &report, queries.len() as u64);
        report.nn_results
    }

    /// See [`AccelBackend::nn_batch`]: one hardware run per batch.
    fn radius_batch(
        &mut self,
        queries: &[Vec3],
        radius: f64,
        stats: &mut SearchStats,
    ) -> Vec<Vec<Neighbor>> {
        assert!(radius >= 0.0, "radius must be non-negative");
        let report = self.execute(queries, SearchKind::Radius(radius), true);
        Self::absorb_stats(stats, &report, queries.len() as u64);
        report.radius_results
    }

    /// Clears the Leader Buffers (between frames).
    fn reset(&mut self) {
        self.nn_books.iter_mut().chain(&mut self.radius_books).for_each(LeaderBook::clear);
    }
}

/// Registers the accelerator (default [`AcceleratorConfig`], default
/// top-tree height) under the name `"accelerator"` in `tigris-core`'s
/// backend registry, making it selectable from the pipeline via
/// `SearchBackendConfig::Custom { name: "accelerator" }`.
///
/// Idempotent; returns `true` on first registration. For a non-default
/// machine, use [`register_accelerator_backend_as`].
pub fn register_accelerator_backend() -> bool {
    register_accelerator_backend_as("accelerator", AcceleratorConfig::default())
}

/// Registers an accelerator with an explicit configuration under a caller
/// chosen name — e.g. one registry entry per DSE hardware point.
pub fn register_accelerator_backend_as(name: &'static str, config: AcceleratorConfig) -> bool {
    register_backend(name, move |pts| {
        Box::new(AccelBackend::build(pts, default_top_height(pts.len()), config))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigris_core::ApproxConfig;

    fn lcg_cloud(n: usize, seed: u64) -> Vec<Vec3> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 40.0 - 20.0
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    #[test]
    fn exact_mode_is_bit_identical_to_two_stage_software() {
        let pts = lcg_cloud(3000, 1);
        let queries = lcg_cloud(250, 2);
        let mut backend = AccelBackend::build(&pts, 5, AcceleratorConfig::default());
        let tree = TwoStageKdTree::build(&pts, 5);
        let mut stats = SearchStats::new();
        for &q in &queries {
            let hw = backend.nn(q, &mut stats).unwrap();
            let sw = tree.nn(q).unwrap();
            assert_eq!((hw.index, hw.distance_squared), (sw.index, sw.distance_squared));

            let hw_ball = backend.radius(q, 2.5, &mut stats);
            let sw_ball = tree.radius(q, 2.5);
            assert_eq!(hw_ball, sw_ball, "radius results must match bit-for-bit");

            assert_eq!(backend.knn(q, 6, &mut stats), tree.knn(q, 6));
        }
    }

    #[test]
    fn non_finite_points_are_never_served() {
        // The machine walks the two-stage tree, whose build leaves points
        // with a NaN or infinite coordinate out.
        let mut pts = lcg_cloud(1500, 6);
        pts[3] = Vec3::splat(f64::NAN);
        pts[700] = Vec3::new(0.0, f64::INFINITY, 0.0);
        pts[1400] = Vec3::splat(f64::NEG_INFINITY);
        let queries = lcg_cloud(60, 7);
        let mut backend = AccelBackend::build(&pts, 5, AcceleratorConfig::default());
        let tree = TwoStageKdTree::build(&pts, 5);
        let mut stats = SearchStats::new();
        let nn = backend.nn_batch(&queries, &mut stats);
        let balls = backend.radius_batch(&queries, 4.0, &mut stats);
        for (i, &q) in queries.iter().enumerate() {
            assert_eq!(nn[i], tree.nn(q));
            assert_eq!(balls[i], tree.radius(q, 4.0));
        }
    }

    #[test]
    fn batched_equals_serial_including_leader_state() {
        let pts = lcg_cloud(4000, 3);
        // Clustered queries so the follower path engages.
        let queries: Vec<Vec3> = (0..200)
            .map(|i| Vec3::new((i % 10) as f64 * 0.05, (i / 10) as f64 * 0.05, 1.0))
            .collect();
        let cfg = AcceleratorConfig {
            approx: Some(ApproxConfig { nn_threshold: 2.0, ..Default::default() }),
            ..AcceleratorConfig::default()
        };
        let mut serial = AccelBackend::build(&pts, 4, cfg);
        let mut batched = AccelBackend::build(&pts, 4, cfg);
        let mut s_stats = SearchStats::new();
        let mut b_stats = SearchStats::new();
        let s_out: Vec<_> = queries.iter().map(|&q| serial.nn(q, &mut s_stats)).collect();
        let b_out = batched.nn_batch(&queries, &mut b_stats);
        assert_eq!(s_out, b_out);
        assert_eq!(s_stats, b_stats);
        assert!(b_stats.follower_hits > 0, "workload should produce followers");
    }

    #[test]
    fn meter_accumulates_hardware_cost() {
        let pts = lcg_cloud(2000, 4);
        let mut backend = AccelBackend::build(&pts, 4, AcceleratorConfig::default());
        let mut stats = SearchStats::new();
        backend.nn_batch(&lcg_cloud(100, 5), &mut stats);
        let meter = *backend.meter();
        assert_eq!(meter.queries, 100);
        assert_eq!(meter.batches, 1);
        assert!(meter.cycles > 0);
        assert!(meter.seconds > 0.0);
        assert!(meter.energy_joules > 0.0);
        assert!(meter.power_watts() > 0.0);
        let taken = backend.take_meter();
        assert_eq!(taken, meter);
        assert_eq!(backend.meter().cycles, 0);
    }

    #[test]
    fn reset_clears_leader_buffers() {
        let pts = lcg_cloud(1500, 6);
        let cfg = AcceleratorConfig {
            approx: Some(ApproxConfig { nn_threshold: 5.0, ..Default::default() }),
            ..AcceleratorConfig::default()
        };
        let mut backend = AccelBackend::build(&pts, 3, cfg);
        let mut stats = SearchStats::new();
        let q = vec![Vec3::new(0.1, 0.1, 0.1); 10];
        backend.nn_batch(&q, &mut stats);
        assert!(stats.follower_hits > 0);
        backend.reset();
        let mut post = SearchStats::new();
        backend.nn(q[0], &mut post);
        assert_eq!(post.follower_hits, 0, "first query after reset must be a leader");
    }

    #[test]
    fn registry_name_round_trips() {
        register_accelerator_backend();
        let pts = lcg_cloud(500, 7);
        let mut index = tigris_core::build_backend("accelerator", &pts).unwrap();
        assert_eq!(index.name(), "accelerator");
        let mut stats = SearchStats::new();
        let hw = index.nn(Vec3::ZERO, &mut stats).unwrap();
        let sw = tigris_core::nn_brute_force(&pts, Vec3::ZERO).unwrap();
        assert_eq!(hw.index, sw.index);
    }

    #[test]
    fn empty_tree_serves_empty_results() {
        let mut backend = AccelBackend::build(&[], 3, AcceleratorConfig::default());
        let mut stats = SearchStats::new();
        assert!(backend.nn(Vec3::ZERO, &mut stats).is_none());
        assert!(backend.radius(Vec3::ZERO, 1.0, &mut stats).is_empty());
        let out = backend.nn_batch(&[Vec3::ZERO], &mut stats);
        assert_eq!(out, vec![None]);
    }
}
