//! Shared-map serving throughput: one published [`SnapshotEpoch`]
//! serving every session vs. each session rebuilding the map for itself.
//!
//! The comparison answers the serving layer's existence question: what
//! does publishing + sharing buy over the naive architecture where every
//! localization client constructs its own `Mapper` from the same
//! recorded sequence before it can answer "where am I"? Both paths run
//! the exact same localization scripts and must produce bit-identical
//! poses (the shared epoch and each rebuilt map are deterministic
//! images of the same stream); only the map-construction work differs.
//!
//! The same logic backs `benches/serve.rs` (which also emits the
//! machine-readable `BENCH_serve.json` baseline in CI) and the
//! release-scale acceptance test `tests/serve_speedup.rs` (epoch
//! sharing must deliver ≥3× over per-session rebuild at 4 sessions).

use std::sync::Arc;
use std::time::{Duration, Instant};

use tigris_data::{LidarConfig, Sequence, SequenceConfig};
use tigris_geom::RigidTransform;
use tigris_map::{Mapper, MapperConfig};
use tigris_serve::shard::{EpochPublisher, ShardConfig, ShardService, SnapshotEpoch};

use crate::report::BenchReport;

/// Cold-start frames proven to verify on the benchmark fixture (the
/// serving integration test's script heads), cycled across sessions.
const COLD_STARTS: [usize; 4] = [2, 58, 61, 63];

/// Tracked frames following each session's cold start.
const TRACK_STEPS: usize = 2;

/// One shared-epoch vs. rebuild-per-session comparison.
#[derive(Debug, Clone)]
pub struct ServeBenchResult {
    /// Concurrent localization sessions served.
    pub sessions: usize,
    /// Frames localized per session (1 cold start + tracked frames).
    pub queries_per_session: usize,
    /// Frames in the mapping sequence each map build consumes.
    pub map_frames: usize,
    /// Best-of-N wall-clock for build-once + publish + serve-everyone.
    pub shared_time: Duration,
    /// Best-of-N wall-clock for rebuild-the-map-per-session + serve.
    pub rebuild_time: Duration,
    /// Per-run wall-clock samples (seconds), shared path.
    pub shared_samples: Vec<f64>,
    /// Per-run wall-clock samples (seconds), rebuild path.
    pub rebuild_samples: Vec<f64>,
    /// Localized frames per second, shared path (whole workload).
    pub shared_fps: f64,
    /// Localized frames per second, rebuild path.
    pub rebuild_fps: f64,
    /// `rebuild_time / shared_time`.
    pub speedup: f64,
    /// Per-session cold-start relocalization latencies (seconds) from
    /// the timed shared-path runs — the "how long until a new client
    /// has a pose" number the front-end raw-speed pass targets.
    pub cold_start_samples: Vec<f64>,
    /// Wall-clock in the normal-estimation stage across one shared-path
    /// run's front ends (query-frame preparations).
    pub ne_seconds: f64,
    /// Wall-clock in the descriptor stage across the same run.
    pub descriptor_seconds: f64,
    /// Front-end scratch growth (bytes) across the same run — flat once
    /// each session's scratch is warm.
    pub scratch_bytes_grown: u64,
    /// Allocation-free frame preparations across the same run.
    pub scratch_reuses: u64,
}

impl ServeBenchResult {
    /// The machine-readable baseline emitted by CI (`BENCH_serve.json`),
    /// in the shared [`BenchReport`] schema.
    pub fn report(&self) -> BenchReport {
        BenchReport::new("serve_shared_snapshot")
            .config_int("sessions", self.sessions)
            .config_int("queries_per_session", self.queries_per_session)
            .config_int("map_frames", self.map_frames)
            .samples("shared_seconds", &self.shared_samples)
            .samples("rebuild_seconds", &self.rebuild_samples)
            .samples("cold_start_seconds", &self.cold_start_samples)
            .derived_f64("shared_seconds_best", self.shared_time.as_secs_f64())
            .derived_f64("rebuild_seconds_best", self.rebuild_time.as_secs_f64())
            .derived_f64("shared_fps", self.shared_fps)
            .derived_f64("rebuild_fps", self.rebuild_fps)
            .derived_f64("speedup", self.speedup)
            .derived_f64("cold_start_seconds_best", self.cold_start_best())
            .derived_f64("frontend_ne_seconds", self.ne_seconds)
            .derived_f64("frontend_descriptor_seconds", self.descriptor_seconds)
            .derived_int("frontend_scratch_bytes_grown", self.scratch_bytes_grown as usize)
            .derived_int("frontend_scratch_reuses", self.scratch_reuses as usize)
    }

    /// Fastest observed cold-start relocalization (seconds), `0.0` when
    /// no samples were recorded.
    pub fn cold_start_best(&self) -> f64 {
        if self.cold_start_samples.is_empty() {
            return 0.0;
        }
        self.cold_start_samples.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// The benchmark fixture: the serving integration test's 60 m closed
/// circuit at the low-resolution scanner.
fn fixture_config() -> SequenceConfig {
    let mut cfg = SequenceConfig::loop_circuit(60.0, 6);
    cfg.lidar = LidarConfig::tiny();
    cfg
}

/// Per-session localization scripts: session `s` cold-starts at a proven
/// seam frame and tracks the next frames.
fn scripts(sessions: usize) -> Vec<Vec<usize>> {
    (0..sessions)
        .map(|s| {
            let start = COLD_STARTS[s % COLD_STARTS.len()];
            (start..=start + TRACK_STEPS).collect()
        })
        .collect()
}

/// Builds the map from the sequence (the expensive write side).
fn build_mapper(seq: &Sequence) -> Mapper {
    let mut mapper = Mapper::new(MapperConfig::serving());
    for i in 0..seq.len() {
        mapper.push(seq.frame(i)).expect("mapping frame failed");
    }
    mapper
}

/// What one pass over the localization scripts observed beyond its
/// poses: per-session cold-start latencies and the service's stats.
struct ServeObservations {
    cold_start_seconds: Vec<f64>,
    stats: tigris_serve::ServeStats,
}

/// Serves every script against one epoch, returning the localized
/// poses in script order plus the per-session cold-start latencies
/// (each script's first `localize` — the relocalization request) and
/// the service-wide stats.
fn serve_scripts(
    epoch: Arc<SnapshotEpoch>,
    seq: &Sequence,
    scripts: &[Vec<usize>],
) -> (Vec<RigidTransform>, ServeObservations) {
    let service = ShardService::with_epoch(epoch, ShardConfig::default());
    let mut poses = Vec::new();
    let mut cold_start_seconds = Vec::with_capacity(scripts.len());
    for script in scripts {
        let mut session = service.open_session().expect("session admission");
        for (i, &frame) in script.iter().enumerate() {
            let t0 = Instant::now();
            let step = session.localize(seq.frame(frame)).expect("localization failed");
            if i == 0 {
                cold_start_seconds.push(t0.elapsed().as_secs_f64());
            }
            poses.push(step.pose);
        }
    }
    let stats = service.stats();
    (poses, ServeObservations { cold_start_seconds, stats })
}

/// Publishes a freshly built map as one epoch.
fn publish(seq: &Sequence) -> Arc<SnapshotEpoch> {
    EpochPublisher::new().publish(&build_mapper(seq)).expect("publish failed")
}

/// Shared path: build the map once, publish once, serve every session
/// from the `Arc`-shared epoch.
fn run_shared(
    seq: &Sequence,
    scripts: &[Vec<usize>],
) -> (Duration, Vec<RigidTransform>, ServeObservations) {
    let t0 = Instant::now();
    let (poses, obs) = serve_scripts(publish(seq), seq, scripts);
    (t0.elapsed(), poses, obs)
}

/// Rebuild path: every session constructs its own map from the same
/// sequence before localizing — the architecture the shared epoch
/// replaces.
fn run_rebuild(seq: &Sequence, scripts: &[Vec<usize>]) -> (Duration, Vec<RigidTransform>) {
    let t0 = Instant::now();
    let mut poses = Vec::new();
    for script in scripts {
        poses.extend(serve_scripts(publish(seq), seq, std::slice::from_ref(script)).0);
    }
    (t0.elapsed(), poses)
}

/// Runs the comparison: `sessions` scripts served both ways,
/// best-of-`runs` timing per path, poses asserted bit-identical across
/// paths.
pub fn run_shared_vs_rebuild_comparison(
    sessions: usize,
    seed: u64,
    runs: usize,
) -> ServeBenchResult {
    assert!(sessions >= 1 && runs >= 1);
    let seq = Sequence::generate(&fixture_config(), seed);
    let scripts = scripts(sessions);
    let queries_per_session = TRACK_STEPS + 1;

    // Correctness first: the shared epoch and every per-session
    // rebuild are deterministic images of the same stream, so both
    // paths must localize every frame to the bit-identical pose.
    let (_, shared_poses, _) = run_shared(&seq, &scripts);
    let (_, rebuild_poses) = run_rebuild(&seq, &scripts);
    assert_eq!(shared_poses.len(), rebuild_poses.len());
    for (i, (a, b)) in shared_poses.iter().zip(&rebuild_poses).enumerate() {
        assert!(
            a.translation == b.translation && a.rotation == b.rotation,
            "pose {i} diverged between shared and rebuild paths"
        );
    }

    let mut cold_start_samples = Vec::with_capacity(runs * sessions);
    let mut last_stats = None;
    let shared_runs: Vec<Duration> = (0..runs)
        .map(|_| {
            let (t, _, obs) = run_shared(&seq, &scripts);
            cold_start_samples.extend(obs.cold_start_seconds);
            last_stats = Some(obs.stats);
            t
        })
        .collect();
    let rebuild_runs: Vec<Duration> = (0..runs).map(|_| run_rebuild(&seq, &scripts).0).collect();
    let shared_time = *shared_runs.iter().min().expect("runs >= 1");
    let rebuild_time = *rebuild_runs.iter().min().expect("runs >= 1");
    let stats = last_stats.expect("runs >= 1");

    let total_queries = (sessions * queries_per_session) as f64;
    ServeBenchResult {
        sessions,
        queries_per_session,
        map_frames: seq.len(),
        shared_time,
        rebuild_time,
        shared_samples: shared_runs.iter().map(Duration::as_secs_f64).collect(),
        rebuild_samples: rebuild_runs.iter().map(Duration::as_secs_f64).collect(),
        shared_fps: total_queries / shared_time.as_secs_f64(),
        rebuild_fps: total_queries / rebuild_time.as_secs_f64(),
        speedup: rebuild_time.as_secs_f64() / shared_time.as_secs_f64(),
        cold_start_samples,
        ne_seconds: stats.normal_estimation_time.as_secs_f64(),
        descriptor_seconds: stats.descriptor_time.as_secs_f64(),
        scratch_bytes_grown: stats.prepare_scratch_bytes_grown,
        scratch_reuses: stats.prepare_scratch_reuses,
    }
}
