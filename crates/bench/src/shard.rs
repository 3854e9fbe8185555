//! The sharding fixture of the release-scale acceptance test
//! `tests/shard_bounds.rs`: on a map big enough that the scanner no
//! longer out-ranges it, routing each map probe to its covering spatial
//! tiles must be genuinely selective, concurrent sessions under a tile
//! budget must localize like a service under [`whole_map_config`]'s
//! map-sized tiles, and peak residency must stay bounded. The workspace
//! integration test `tests/shard_integration.rs` reuses
//! [`whole_map_config`] as its whole-map reference.

use tigris_data::{LidarConfig, SequenceConfig};
use tigris_geom::{RigidTransform, Vec3};
use tigris_serve::shard::{ShardConfig, TilingConfig};

/// Query radius for every map probe (meters) — the tracking
/// correspondence scale.
pub const PROBE_RADIUS: f64 = 2.0;

/// The sharding fixture: a closed circuit `scale`× the serving
/// integration fixture's 60 m, at the low-resolution scanner. At
/// `scale = 10` the circuit's diameter (~190 m) finally outgrows the
/// scanner, so spatial tiling has something to exclude.
pub fn fixture_config(scale: usize) -> SequenceConfig {
    let mut cfg = SequenceConfig::loop_circuit(60.0 * scale as f64, 6);
    cfg.lidar = LidarConfig::tiny();
    cfg
}

/// Probes along the mapped trajectory, one per `stride` poses, dropped
/// to just below the scanner mount — the densest part of the map.
pub fn trajectory_probes(mapper_poses: &[RigidTransform], stride: usize) -> Vec<Vec3> {
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
