//! The sharding fixture of the release-scale acceptance test
//! `tests/shard_bounds.rs`: on a map big enough that the scanner no
//! longer out-ranges it, each submap's own bounds gate must leave a map
//! probe's read genuinely selective, concurrent sessions under an index
//! budget must localize like the unbounded whole-map service, and peak
//! residency must stay bounded.

use tigris_data::{LidarConfig, SequenceConfig};
use tigris_geom::{RigidTransform, Vec3};

/// Query radius for every map probe (meters) — the tracking
/// correspondence scale.
pub const PROBE_RADIUS: f64 = 2.0;

/// The sharding fixture: a closed circuit `scale`× the serving
/// integration fixture's 60 m, at the low-resolution scanner. At
/// `scale = 10` the circuit's diameter (~190 m) finally outgrows the
/// scanner, so the submap gate has something to exclude.
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
