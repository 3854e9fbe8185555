//! Whole-accelerator simulation: [`AccelBackend`]'s batch runs drive
//! queries through the front-end and back-end models, producing cycle
//! counts, memory traffic, energy, and the actual search results.
//!
//! The simulator executes each query's traversal exactly as the hardware
//! does — an explicit per-query stack over the top-tree with *pop-time*
//! pruning (the RU checks a popped node's recorded bound against the
//! query's current best), leaf scans interleaved with traversal (the BE
//! returns refined bounds to the FE), and optional leader/follower
//! approximation in the SUs. Results are therefore bit-identical to the
//! software two-stage search in exact mode. The leader check and leader
//! recording are core's [`tigris_core::LeaderBook`], so approximate
//! results are bit-identical to `tigris_core::ApproxIndex`'s.

use tigris_core::{follower_nn, follower_radius, Neighbor, TopChild};
use tigris_geom::Vec3;

use crate::backend::AccelBackend;
use crate::cache::NodeCache;
use crate::energy::EnergyBreakdown;
use crate::memory::{TrafficReport, POINT_BYTES, RESULT_BYTES, STACK_ENTRY_BYTES};
use crate::ru::{fe_makespan, RuCost};
use crate::su::{run_backend, LeafTask};

/// The kind of search a batch performs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchKind {
    /// Nearest-neighbor search.
    Nn,
    /// Radius search with the given radius (meters).
    Radius(f64),
}

/// Simulation outcome for one batch of queries.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Total cycles: the slower of the (pipelined) front- and back-ends.
    pub cycles: u64,
    /// Front-end makespan.
    pub fe_cycles: u64,
    /// Back-end makespan.
    pub be_cycles: u64,
    /// Wall-clock seconds at the configured clock.
    pub seconds: f64,
    /// PE utilization during the back-end makespan.
    pub pe_utilization: f64,
    /// Top-tree nodes expanded (distance computed) across all queries.
    pub nodes_expanded: u64,
    /// Top-tree nodes popped but bypassed (pruned).
    pub nodes_bypassed: u64,
    /// Leaf points streamed through PEs.
    pub leaf_points_scanned: u64,
    /// Queries served by the approximate follower path.
    pub follower_hits: u64,
    /// Node-cache hits.
    pub cache_hits: u64,
    /// Per-buffer memory traffic.
    pub traffic: TrafficReport,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// NN results (when [`SearchKind::Nn`]); one per query.
    pub nn_results: Vec<Option<Neighbor>>,
    /// Radius result counts (when [`SearchKind::Radius`]); one per query.
    pub radius_result_counts: Vec<usize>,
    /// Full radius results, ascending by distance (when
    /// [`SearchKind::Radius`] *and* result collection was requested — the
    /// online `AccelBackend` path; empty for plain simulation runs, which
    /// only need the counts).
    pub radius_results: Vec<Vec<Neighbor>>,
}

impl SimReport {
    /// Average power (W) over the simulated interval.
    pub fn power_watts(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.energy.total_joules() / self.seconds
        }
    }
}

impl AccelBackend {
    /// Simulates a batch of NN queries.
    pub fn run_nn(&mut self, queries: &[Vec3]) -> SimReport {
        self.run(queries, SearchKind::Nn)
    }

    /// Simulates a batch of radius queries.
    ///
    /// # Panics
    ///
    /// Panics when `radius` is negative.
    pub fn run_radius(&mut self, queries: &[Vec3], radius: f64) -> SimReport {
        assert!(radius >= 0.0, "radius must be non-negative");
        self.run(queries, SearchKind::Radius(radius))
    }

    /// Replays a logged query stream (e.g. captured from the registration
    /// pipeline via `Searcher3::enable_query_logging`), returning the
    /// aggregate report: cycles and energy sum over the stream's batches,
    /// traffic accumulates, results are dropped.
    ///
    /// k-NN records are timed as NN queries (the hardware serves k-NN as an
    /// NN search retaining k results; the traversal/scan work is the same
    /// to first order).
    pub fn replay(&mut self, records: &[tigris_core::QueryRecord]) -> SimReport {
        use tigris_core::{segment_by_kind, QueryKind};
        let mut total: Option<SimReport> = None;
        for (kind, points) in segment_by_kind(records) {
            let sk = match kind {
                QueryKind::Nn | QueryKind::Knn(_) => SearchKind::Nn,
                QueryKind::Radius(r) => SearchKind::Radius(r),
            };
            let report = self.run(&points, sk);
            total = Some(match total {
                None => report,
                Some(acc) => merge_reports(acc, report),
            });
        }
        total.unwrap_or_else(|| self.run(&[], SearchKind::Nn))
    }

    /// Simulates a batch of queries of the given kind. Radius reports
    /// carry per-query counts only ([`SimReport::radius_results`] stays
    /// empty).
    pub fn run(&mut self, queries: &[Vec3], kind: SearchKind) -> SimReport {
        self.execute(queries, kind, false)
    }

    /// Executes a batch of queries of the given kind, exactly as the
    /// hardware would, folds its cost into the meter and reports cycles,
    /// traffic, energy and results. `collect` keeps each radius query's
    /// full hits, not just their count — what serving a search needs.
    pub(crate) fn execute(
        &mut self,
        queries: &[Vec3],
        kind: SearchKind,
        collect: bool,
    ) -> SimReport {
        let span = tigris_obs::span!("accel.batch", queries = queries.len());
        let mut traffic = TrafficReport::default();
        let mut tasks: Vec<LeafTask> = Vec::new();
        let mut fe_costs = Vec::with_capacity(queries.len());
        let ru_cost = RuCost::from_flags(self.config.forwarding, self.config.bypassing);

        let mut nodes_expanded = 0u64;
        let mut nodes_bypassed = 0u64;
        let mut follower_hits = 0u64;
        let mut nn_results = Vec::new();
        let mut radius_result_counts = Vec::new();
        let mut radius_results = Vec::new();

        for (qi, &q) in queries.iter().enumerate() {
            let mut trace = self.trace_query(qi as u32, q, kind, collect, &mut tasks);
            nodes_expanded += trace.expanded;
            nodes_bypassed += trace.bypassed;
            follower_hits += trace.follower_hits;
            fe_costs.push(ru_cost.query_cycles(trace.expanded, trace.bypassed));

            // FE traffic: query fetch + enqueue, stack pops/pushes, node reads.
            traffic.fe_query_queue += 2 * POINT_BYTES;
            traffic.query_buffer += POINT_BYTES;
            traffic.query_stacks += (trace.expanded + trace.bypassed) * STACK_ENTRY_BYTES // pops
                + 2 * trace.expanded * STACK_ENTRY_BYTES; // pushes
            traffic.points_buffer += trace.expanded * POINT_BYTES;

            match kind {
                SearchKind::Nn => {
                    traffic.result_buffer += RESULT_BYTES;
                    traffic.dram += RESULT_BYTES;
                    nn_results.push(trace.nn_best);
                }
                SearchKind::Radius(_) => {
                    let n = trace.radius_count as u64;
                    traffic.result_buffer += n * RESULT_BYTES;
                    traffic.dram += n * RESULT_BYTES;
                    radius_result_counts.push(trace.radius_count);
                    if collect {
                        // Match the software contract: ascending by
                        // (distance, index).
                        trace.radius_hits.sort();
                        radius_results.push(std::mem::take(&mut trace.radius_hits));
                    }
                }
            }
        }

        // Front-end makespan.
        let fe_cycles = fe_makespan(&fe_costs, self.config.num_rus);

        // Back-end makespan.
        let leaf_sizes: Vec<usize> = self.tree.leaves().iter().map(|l| l.points.len()).collect();
        let mut cache = NodeCache::new(self.config.node_cache_points);
        let be = run_backend(&tasks, &leaf_sizes, &self.config, &mut cache);
        traffic += be.traffic;

        // FE and BE overlap (queries stream through); the slower side
        // bounds throughput.
        let cycles = fe_cycles.max(be.cycles);
        let seconds = self.config.seconds(cycles);
        let leaf_points_scanned = be.pe_busy_cycles;

        let energy = self.energy_model.compute(
            be.pe_busy_cycles + nodes_expanded, // distance datapath ops
            &traffic,
            seconds,
        );
        drop(span);

        self.meter.batches += 1;
        self.meter.queries += queries.len() as u64;
        self.meter.cycles += cycles;
        self.meter.seconds += seconds;
        self.meter.energy_joules += energy.total_joules();
        self.meter.follower_hits += follower_hits;
        tigris_obs::event!(
            "accel.cycles",
            cycles = cycles,
            energy_uj = energy.total_joules() * 1e6,
            follower_hits = follower_hits,
        );

        SimReport {
            cycles,
            fe_cycles,
            be_cycles: be.cycles,
            seconds,
            pe_utilization: be.pe_utilization(),
            nodes_expanded,
            nodes_bypassed,
            leaf_points_scanned,
            follower_hits,
            cache_hits: be.cache_hits,
            traffic,
            energy,
            nn_results,
            radius_result_counts,
            radius_results,
        }
    }

    /// Executes one query exactly as the hardware would, appending its
    /// back-end leaf tasks to `tasks` and returning its trace.
    ///
    /// With approximation enabled, the Leader Check fires at the query's
    /// *primary* leaf ([`tigris_core::TwoStageKdTree::primary_leaf`], the
    /// leaf the front-end's descent reaches first) against core's
    /// [`tigris_core::LeaderBook`]: a follower's whole search terminates
    /// there, inheriting the closest leader's recorded full result;
    /// non-followers complete the exact search and — buffer space
    /// permitting — record their final result as a new leader
    /// (Algorithm 1). A query whose descent dead-ends in an empty child
    /// has no primary leaf and runs exact.
    fn trace_query(
        &mut self,
        qi: u32,
        q: Vec3,
        kind: SearchKind,
        collect: bool,
        tasks: &mut Vec<LeafTask>,
    ) -> QueryTrace {
        let mut trace = QueryTrace::default();
        let tree = &self.tree;
        if tree.is_empty() {
            return trace;
        }
        let points = tree.points();
        let (r, is_radius) = match kind {
            SearchKind::Radius(r) => (r, true),
            SearchKind::Nn => (0.0, false),
        };
        let r2 = r * r;
        let approx = self.config.approx;
        let primary = approx.and_then(|_| tree.primary_leaf(q));
        let mut best = Neighbor::new(usize::MAX, f64::INFINITY);
        // A radius query's hit indices, kept for its leader record.
        let mut record: Vec<u32> = Vec::new();
        let keep_record = is_radius && primary.is_some();
        let collect = is_radius && collect;
        // One datapath distance: updates the running NN best, or counts
        // (and keeps, as asked) a radius hit.
        let mut visit = |trace: &mut QueryTrace, best: &mut Neighbor, i: u32| {
            let d2 = q.distance_squared(points[i as usize]);
            if !is_radius {
                if d2 < best.distance_squared
                    || (d2 == best.distance_squared && (i as usize) < best.index)
                {
                    *best = Neighbor::new(i as usize, d2);
                }
            } else if d2 <= r2 {
                trace.radius_count += 1;
                if keep_record {
                    record.push(i);
                }
                if collect {
                    trace.radius_hits.push(Neighbor::new(i as usize, d2));
                }
            }
        };

        // Explicit stack of (child, bound²): bound is the squared distance
        // from the query to the splitting plane that guards this subtree.
        let mut stack: Vec<(TopChild, f64)> = vec![(tree.root(), 0.0)];
        while let Some((child, bound2)) = stack.pop() {
            // Pop-time prune check (the RU bypass test).
            let reach = if is_radius { r2 } else { best.distance_squared };
            if bound2 > reach {
                trace.bypassed += 1;
                continue;
            }
            match child {
                TopChild::None => {}
                TopChild::Node(n) => {
                    trace.expanded += 1;
                    let node = tree.top_nodes()[n as usize];
                    visit(&mut trace, &mut best, node.point);
                    let delta = q.axis(node.axis as usize) - node.split;
                    let (near, far) =
                        if delta < 0.0 { (node.left, node.right) } else { (node.right, node.left) };
                    // Far first so near pops next (DFS order).
                    if far != TopChild::None {
                        stack.push((far, delta * delta));
                    }
                    if near != TopChild::None {
                        stack.push((near, 0.0));
                    }
                }
                TopChild::Leaf(l) => {
                    let leaf = l as usize;
                    let mut leader_checks = 0;
                    // Leader Check at the primary leaf only.
                    if let (Some(cfg), true) = (approx, primary == Some(leaf)) {
                        let (book, threshold) = match kind {
                            SearchKind::Nn => (&self.nn_books[leaf], cfg.nn_threshold),
                            SearchKind::Radius(_) => {
                                (&self.radius_books[leaf], cfg.radius_threshold_frac * r)
                            }
                        };
                        leader_checks = book.len() as u32;
                        if let Some(results) = book.follow(q, threshold) {
                            // Follower: the whole search resolves from the
                            // leader's recorded results.
                            trace.follower_hits += 1;
                            if is_radius {
                                let hits = follower_radius(points, results, q, r);
                                trace.radius_count = hits.len();
                                trace.radius_hits = if collect { hits } else { Vec::new() };
                            } else {
                                trace.nn_best = follower_nn(points, results, q);
                            }
                            tasks.push(LeafTask {
                                query: qi,
                                leaf: l,
                                scan_points: results.len() as u32,
                                leader_checks,
                                follower: true,
                            });
                            return trace;
                        }
                    }

                    // Precise path: exhaustive scan of the leaf set.
                    let set = &tree.leaves()[leaf];
                    for &i in &set.points {
                        visit(&mut trace, &mut best, i);
                    }
                    tasks.push(LeafTask {
                        query: qi,
                        leaf: l,
                        scan_points: set.points.len() as u32,
                        leader_checks,
                        follower: false,
                    });
                }
            }
        }

        // Non-followers may become leaders at their primary leaf,
        // recording their *final* (complete) result.
        trace.nn_best = (best.index != usize::MAX).then_some(best);
        if let (Some(cfg), Some(leaf)) = (approx, primary) {
            match (kind, trace.nn_best) {
                (SearchKind::Nn, Some(nn)) => {
                    self.nn_books[leaf].record(q, [nn.index as u32], cfg.leader_cap);
                }
                (SearchKind::Nn, None) => {}
                (SearchKind::Radius(_), _) => {
                    self.radius_books[leaf].record(q, record, cfg.leader_cap);
                }
            }
        }
        trace
    }
}

/// Accumulates two sequential batch reports (batches run back-to-back:
/// cycles/energy/traffic add; utilizations combine cycle-weighted;
/// per-query result vectors concatenate).
fn merge_reports(a: SimReport, b: SimReport) -> SimReport {
    let cycles = a.cycles + b.cycles;
    let pe_utilization = if cycles == 0 {
        0.0
    } else {
        (a.pe_utilization * a.cycles as f64 + b.pe_utilization * b.cycles as f64) / cycles as f64
    };
    let mut nn_results = a.nn_results;
    nn_results.extend(b.nn_results);
    let mut radius_result_counts = a.radius_result_counts;
    radius_result_counts.extend(b.radius_result_counts);
    let mut radius_results = a.radius_results;
    radius_results.extend(b.radius_results);
    SimReport {
        cycles,
        fe_cycles: a.fe_cycles + b.fe_cycles,
        be_cycles: a.be_cycles + b.be_cycles,
        seconds: a.seconds + b.seconds,
        pe_utilization,
        nodes_expanded: a.nodes_expanded + b.nodes_expanded,
        nodes_bypassed: a.nodes_bypassed + b.nodes_bypassed,
        leaf_points_scanned: a.leaf_points_scanned + b.leaf_points_scanned,
        follower_hits: a.follower_hits + b.follower_hits,
        cache_hits: a.cache_hits + b.cache_hits,
        traffic: a.traffic + b.traffic,
        energy: EnergyBreakdown {
            pe: a.energy.pe + b.energy.pe,
            sram_read: a.energy.sram_read + b.energy.sram_read,
            sram_write: a.energy.sram_write + b.energy.sram_write,
            leakage: a.energy.leakage + b.energy.leakage,
            dram: a.energy.dram + b.energy.dram,
        },
        nn_results,
        radius_result_counts,
        radius_results,
    }
}

#[derive(Debug, Default)]
struct QueryTrace {
    expanded: u64,
    bypassed: u64,
    follower_hits: u64,
    nn_best: Option<Neighbor>,
    radius_count: usize,
    /// Full radius hits, populated only when the engine collects results.
    radius_hits: Vec<Neighbor>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AcceleratorConfig, BackendPolicy};
    use tigris_core::{ApproxConfig, SearchIndex, TwoStageKdTree};

    fn lcg_cloud(n: usize, seed: u64) -> Vec<Vec3> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 40.0 - 20.0
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    fn small_config() -> AcceleratorConfig {
        AcceleratorConfig { num_rus: 8, num_sus: 4, pes_per_su: 8, ..AcceleratorConfig::default() }
    }

    #[test]
    fn exact_nn_matches_software_search() {
        let pts = lcg_cloud(4000, 1);
        let tree = TwoStageKdTree::build(&pts, 5);
        let queries = lcg_cloud(300, 2);
        let mut sim = AccelBackend::from_tree(tree.clone(), small_config());
        let report = sim.run_nn(&queries);
        for (q, r) in queries.iter().zip(&report.nn_results) {
            let sw = tree.nn(*q).unwrap();
            let hw = r.unwrap();
            assert_eq!(hw.index, sw.index);
            assert_eq!(hw.distance_squared, sw.distance_squared);
        }
    }

    #[test]
    fn exact_radius_counts_match_software() {
        let pts = lcg_cloud(3000, 3);
        let tree = TwoStageKdTree::build(&pts, 4);
        let queries = lcg_cloud(100, 4);
        let mut sim = AccelBackend::from_tree(tree.clone(), small_config());
        let report = sim.run_radius(&queries, 3.0);
        for (q, &count) in queries.iter().zip(&report.radius_result_counts) {
            assert_eq!(count, tree.radius(*q, 3.0).len());
        }
    }

    #[test]
    fn cycles_are_positive_and_composed() {
        let pts = lcg_cloud(2000, 5);
        let mut sim = AccelBackend::build(&pts, 4, small_config());
        let report = sim.run_nn(&lcg_cloud(200, 6));
        assert!(report.cycles > 0);
        assert_eq!(report.cycles, report.fe_cycles.max(report.be_cycles));
        assert!(report.seconds > 0.0);
        assert!(report.power_watts() > 0.0);
        assert!(report.pe_utilization > 0.0 && report.pe_utilization <= 1.0);
    }

    #[test]
    fn optimizations_reduce_cycles() {
        let pts = lcg_cloud(4000, 7);
        // Deep top-tree so the front-end matters.
        let tree = TwoStageKdTree::build(&pts, 9);
        let queries = lcg_cloud(400, 8);

        let run_with = |fwd: bool, byp: bool| {
            let cfg = AcceleratorConfig { forwarding: fwd, bypassing: byp, ..small_config() };
            AccelBackend::from_tree(tree.clone(), cfg).run_nn(&queries).fe_cycles
        };
        let no_opt = run_with(false, false);
        let bypass = run_with(false, true);
        let both = run_with(true, true);
        assert!(bypass < no_opt, "bypass {bypass} !< no_opt {no_opt}");
        assert!(both < bypass, "both {both} !< bypass {bypass}");
    }

    #[test]
    fn classic_tree_mode_bottlenecks_on_front_end() {
        // A very deep top-tree (≈ classic KD-tree, leaf sets ~1) keeps the
        // SUs idle — paper's Acc-KD observation.
        let pts = lcg_cloud(4000, 9);
        let queries = lcg_cloud(200, 10);
        let deep_report = AccelBackend::build(&pts, 12, small_config()).run_nn(&queries);
        let shallow_report = AccelBackend::build(&pts, 5, small_config()).run_nn(&queries);

        assert!(deep_report.fe_cycles >= deep_report.be_cycles);
        assert!(
            shallow_report.pe_utilization > deep_report.pe_utilization,
            "shallow {} !> deep {}",
            shallow_report.pe_utilization,
            deep_report.pe_utilization
        );
    }

    #[test]
    fn approximate_search_reduces_work() {
        let pts = lcg_cloud(8000, 11);
        // Clustered queries so followers appear.
        let queries: Vec<Vec3> = (0..300)
            .map(|i| Vec3::new((i % 10) as f64 * 0.05, (i / 10) as f64 * 0.05, 1.0))
            .collect();

        let mut exact_sim = AccelBackend::build(&pts, 4, small_config());
        let exact = exact_sim.run_nn(&queries);
        let approx_cfg = AcceleratorConfig {
            approx: Some(ApproxConfig { nn_threshold: 2.0, ..Default::default() }),
            ..small_config()
        };
        let mut approx_sim = AccelBackend::build(&pts, 4, approx_cfg);
        let approx = approx_sim.run_nn(&queries);

        assert!(approx.follower_hits > 0);
        assert!(
            approx.leaf_points_scanned < exact.leaf_points_scanned,
            "approx {} !< exact {}",
            approx.leaf_points_scanned,
            exact.leaf_points_scanned
        );
    }

    #[test]
    fn mqmn_streams_more_bytes_than_mqsn() {
        let pts = lcg_cloud(4000, 13);
        // Clustered queries → same-leaf batching is possible.
        let queries: Vec<Vec3> =
            (0..200).map(|i| Vec3::new((i % 20) as f64 * 0.1, 0.5, 0.5)).collect();
        let mqsn_cfg = AcceleratorConfig { node_cache_points: 0, ..small_config() };
        let mut s1 = AccelBackend::build(&pts, 4, mqsn_cfg);
        let mqsn = s1.run_nn(&queries);
        let mqmn_cfg = AcceleratorConfig {
            backend: BackendPolicy::Mqmn,
            node_cache_points: 0,
            ..small_config()
        };
        let mut s2 = AccelBackend::build(&pts, 4, mqmn_cfg);
        let mqmn = s2.run_nn(&queries);

        assert!(mqmn.traffic.points_buffer > mqsn.traffic.points_buffer);
        assert!(mqmn.be_cycles <= mqsn.be_cycles);
        // Results identical either way.
        for (a, b) in mqsn.nn_results.iter().zip(&mqmn.nn_results) {
            assert_eq!(a.unwrap().index, b.unwrap().index);
        }
    }

    #[test]
    fn node_cache_moves_traffic_off_points_buffer() {
        let pts = lcg_cloud(4000, 15);
        let queries: Vec<Vec3> =
            (0..300).map(|i| Vec3::new((i % 3) as f64, (i % 7) as f64, 0.0)).collect();
        let no_cache = AcceleratorConfig { node_cache_points: 0, pes_per_su: 1, ..small_config() };
        let mut s1 = AccelBackend::build(&pts, 4, no_cache);
        let cold = s1.run_nn(&queries);
        let cached = AcceleratorConfig { node_cache_points: 8192, pes_per_su: 1, ..small_config() };
        let mut s2 = AccelBackend::build(&pts, 4, cached);
        let warm = s2.run_nn(&queries);
        assert!(warm.cache_hits > 0);
        assert!(warm.traffic.points_buffer < cold.traffic.points_buffer);
        assert_eq!(
            warm.traffic.points_buffer + warm.traffic.node_cache,
            cold.traffic.points_buffer,
            "cache redirects, not removes, traffic"
        );
    }

    #[test]
    fn leader_reset_restores_exactness() {
        let pts = lcg_cloud(2000, 17);
        let cfg = AcceleratorConfig {
            approx: Some(ApproxConfig { nn_threshold: 5.0, ..Default::default() }),
            ..small_config()
        };
        let mut sim = AccelBackend::build(&pts, 3, cfg);
        let q = vec![Vec3::new(0.1, 0.1, 0.1); 10];
        let first = sim.run_nn(&q);
        assert!(first.follower_hits > 0);
        sim.reset();
        let second = sim.run_nn(&q[..1]);
        assert_eq!(second.follower_hits, 0, "first query after reset must be a leader");
    }

    #[test]
    fn empty_inputs() {
        let r = AccelBackend::build(&[], 3, small_config()).run_nn(&[]);
        assert_eq!(r.cycles, 0);
        let pts = lcg_cloud(100, 19);
        let r = AccelBackend::build(&pts, 2, small_config()).run_nn(&[]);
        assert_eq!(r.nn_results.len(), 0);
    }

    #[test]
    fn replay_matches_equivalent_direct_runs() {
        use tigris_core::QueryRecord;
        let pts = lcg_cloud(2000, 23);
        let nn_queries = lcg_cloud(50, 24);
        let rad_queries = lcg_cloud(30, 25);

        let mut log = Vec::new();
        log.extend(nn_queries.iter().map(|&q| QueryRecord::nn(q)));
        log.extend(rad_queries.iter().map(|&q| QueryRecord::radius(q, 2.0)));

        let mut replay_sim = AccelBackend::build(&pts, 4, small_config());
        let replayed = replay_sim.replay(&log);

        let mut direct_sim = AccelBackend::build(&pts, 4, small_config());
        let nn = direct_sim.run(&nn_queries, SearchKind::Nn);
        let rad = direct_sim.run(&rad_queries, SearchKind::Radius(2.0));

        assert_eq!(replayed.cycles, nn.cycles + rad.cycles);
        assert_eq!(replayed.nodes_expanded, nn.nodes_expanded + rad.nodes_expanded);
        assert_eq!(replayed.nn_results.len(), 50);
        assert_eq!(replayed.radius_result_counts.len(), 30);
        assert!(
            (replayed.energy.total_joules()
                - (nn.energy.total_joules() + rad.energy.total_joules()))
            .abs()
                < 1e-15
        );
    }

    #[test]
    fn replay_empty_log() {
        let pts = lcg_cloud(100, 26);
        let mut sim = AccelBackend::build(&pts, 3, small_config());
        let report = sim.replay(&[]);
        assert_eq!(report.cycles, 0);
    }

    #[test]
    fn traffic_is_nonzero_everywhere_expected() {
        let pts = lcg_cloud(2000, 21);
        let mut sim = AccelBackend::build(&pts, 4, small_config());
        let r = sim.run_nn(&lcg_cloud(100, 22));
        assert!(r.traffic.fe_query_queue > 0);
        assert!(r.traffic.query_buffer > 0);
        assert!(r.traffic.query_stacks > 0);
        assert!(r.traffic.result_buffer > 0);
        assert!(r.traffic.be_query_buffer > 0);
        assert!(r.traffic.points_buffer > 0);
        assert!(r.traffic.dram > 0);
    }
}
