//! Tile-routed serving vs. whole-map fan-out.
//!
//! The comparison answers the shard layer's existence question: on a map
//! big enough that the scanner no longer out-ranges it, what does
//! routing each map probe to its covering spatial tiles buy over fanning
//! it out across every submap? Both services serve the *same* published
//! epoch — one under the default tiling, one under
//! [`whole_map_config`]'s map-sized tiles — and both are asserted
//! bit-identical to `Mapper::query` on the mapper the epoch was
//! published from, neighbor for neighbor and in order, before any
//! timing runs.
//!
//! The same fixture backs `benches/shard.rs` (which also emits the
//! machine-readable `BENCH_shard.json` baseline in CI) and the
//! release-scale acceptance test `tests/shard_bounds.rs` (concurrent
//! sessions under a tile budget, epoch hot-swap mid-stream, bounded
//! peak residency).

use std::sync::Arc;
use std::time::{Duration, Instant};

use tigris_data::{LidarConfig, Sequence, SequenceConfig};
use tigris_geom::Vec3;
use tigris_map::{Mapper, MapperConfig};
use tigris_serve::shard::{EpochPublisher, EpochView, ShardConfig, ShardService, TilingConfig};

use crate::report::BenchReport;

/// Query radius for every map probe (meters) — the tracking
/// correspondence scale.
pub const PROBE_RADIUS: f64 = 2.0;

/// One tile-routed vs. whole-map comparison.
#[derive(Debug, Clone)]
pub struct ShardBenchResult {
    /// Map probes answered per timed run.
    pub probes: usize,
    /// Spatial tiles the map partitioned into.
    pub tiles: usize,
    /// Submaps in the served map.
    pub submaps: usize,
    /// Points in the served map.
    pub map_points: usize,
    /// Mean fraction of tiles a probe routes to (the routing
    /// selectivity; 1.0 would mean tiling buys nothing).
    pub mean_covering_fraction: f64,
    /// Best-of-N wall-clock for the whole-map service.
    pub whole_time: Duration,
    /// Best-of-N wall-clock for the tile-routed path (warm cache).
    pub tiled_time: Duration,
    /// Per-run wall-clock samples (seconds), whole-map service.
    pub whole_samples: Vec<f64>,
    /// Per-run wall-clock samples (seconds), tile-routed path.
    pub tiled_samples: Vec<f64>,
    /// Probes per second, whole-map service.
    pub whole_qps: f64,
    /// Probes per second, tile-routed path.
    pub tiled_qps: f64,
    /// `whole_time / tiled_time`.
    pub speedup: f64,
}

impl ShardBenchResult {
    /// The machine-readable baseline emitted by CI (`BENCH_shard.json`),
    /// in the shared [`BenchReport`] schema.
    pub fn report(&self) -> BenchReport {
        BenchReport::new("shard_tiled_query")
            .config_int("probes", self.probes)
            .config_int("tiles", self.tiles)
            .config_int("submaps", self.submaps)
            .config_int("map_points", self.map_points)
            .samples("whole_seconds", &self.whole_samples)
            .samples("tiled_seconds", &self.tiled_samples)
            .derived_f64("mean_covering_fraction", self.mean_covering_fraction)
            .derived_f64("whole_seconds_best", self.whole_time.as_secs_f64())
            .derived_f64("tiled_seconds_best", self.tiled_time.as_secs_f64())
            .derived_f64("whole_qps", self.whole_qps)
            .derived_f64("tiled_qps", self.tiled_qps)
            .derived_f64("speedup", self.speedup)
    }
}

/// The sharding fixture: a closed circuit `scale`× the serving
/// integration fixture's 60 m, at the low-resolution scanner. At
/// `scale = 10` the circuit's diameter (~190 m) finally outgrows the
/// scanner, so spatial tiling has something to exclude.
pub fn fixture_config(scale: usize) -> SequenceConfig {
    let mut cfg = SequenceConfig::loop_circuit(60.0 * scale as f64, 6);
    cfg.lidar = LidarConfig::tiny();
    cfg
}

/// Builds the map from the sequence (the expensive write side).
pub fn build_mapper(seq: &Sequence) -> Mapper {
    let mut mapper = Mapper::new(MapperConfig::serving());
    for i in 0..seq.len() {
        mapper.push(seq.frame(i)).expect("mapping frame failed");
    }
    mapper
}

/// Probes along the mapped trajectory, one per `stride` poses, dropped
/// to just below the scanner mount — the densest part of the map.
pub fn trajectory_probes(mapper_poses: &[tigris_geom::RigidTransform], stride: usize) -> Vec<Vec3> {
    mapper_poses
        .iter()
        .step_by(stride.max(1))
        .map(|p| p.translation + Vec3::new(0.0, 0.0, -1.0))
        .collect()
}

/// The whole-map reference configuration: a tile edge far longer than
/// any fixture map and the default unbounded tile budget. The tile grid
/// is anchored at the world origin, so this still cuts a map that
/// straddles a world axis into one tile per occupied orthant of the
/// submap centers (the fixture circuits cross x = 0) — but no budget
/// ever evicts, and the few coarse tiles leave routing almost nothing to
/// exclude.
pub fn whole_map_config() -> ShardConfig {
    ShardConfig { tiling: TilingConfig { tile_size: 1.0e9 }, ..ShardConfig::default() }
}

/// Runs the comparison on the `scale`× fixture: `probes` trajectory
/// probes answered by both services, answers asserted bit-identical to
/// `Mapper::query` on the published mapper, best-of-`runs` timing per
/// service.
pub fn run_tiled_vs_whole_comparison(scale: usize, seed: u64, runs: usize) -> ShardBenchResult {
    assert!(scale >= 1 && runs >= 1);
    let seq = Sequence::generate(&fixture_config(scale), seed);
    let mapper = build_mapper(&seq);
    let probes = trajectory_probes(mapper.poses(), 3);
    let epoch = EpochPublisher::new().publish(&mapper).expect("epoch publish failed");

    let view = EpochView::new(Arc::clone(&epoch), &TilingConfig::default());
    let tiles = view.router().tiles().len();
    let mean_covering_fraction = probes
        .iter()
        .map(|&p| view.router().covering(p, PROBE_RADIUS).len() as f64 / tiles as f64)
        .sum::<f64>()
        / probes.len() as f64;

    let tiled = ShardService::with_epoch(Arc::clone(&epoch), ShardConfig::default());
    let whole = ShardService::with_epoch(epoch, whole_map_config());

    // Correctness first: both services must answer every probe with the
    // neighbor list `Mapper::query` gives (same points, same order).
    let expected: Vec<_> = probes.iter().map(|&p| mapper.query(p, PROBE_RADIUS)).collect();
    for (name, service) in [("whole-map", &whole), ("tile-routed", &tiled)] {
        let answers = service.query_batch(&probes, PROBE_RADIUS).expect("batch query failed");
        assert_eq!(expected.len(), answers.len());
        for (i, (a, b)) in expected.iter().zip(&answers).enumerate() {
            assert_eq!(a, b, "probe {i}: {name} answer diverged from Mapper::query");
        }
    }

    let time_runs = |service: &ShardService| -> Vec<Duration> {
        (0..runs)
            .map(|_| {
                let t0 = Instant::now();
                let answers =
                    service.query_batch(&probes, PROBE_RADIUS).expect("batch query failed");
                assert_eq!(answers.len(), probes.len());
                t0.elapsed()
            })
            .collect()
    };
    let whole_runs = time_runs(&whole);
    let tiled_runs = time_runs(&tiled);
    let whole_time = *whole_runs.iter().min().expect("runs >= 1");
    let tiled_time = *tiled_runs.iter().min().expect("runs >= 1");

    ShardBenchResult {
        probes: probes.len(),
        tiles,
        submaps: mapper.submaps().len(),
        map_points: mapper.total_points(),
        mean_covering_fraction,
        whole_time,
        tiled_time,
        whole_samples: whole_runs.iter().map(Duration::as_secs_f64).collect(),
        tiled_samples: tiled_runs.iter().map(Duration::as_secs_f64).collect(),
        whole_qps: probes.len() as f64 / whole_time.as_secs_f64(),
        tiled_qps: probes.len() as f64 / tiled_time.as_secs_f64(),
        speedup: whole_time.as_secs_f64() / tiled_time.as_secs_f64(),
    }
}
