//! Observability overhead measurement: the streaming-odometry workload
//! with tracing disabled vs. enabled, plus a microbenchmark of the
//! disabled span site itself.
//!
//! The observability layer's contract is that it is free when off: a
//! disabled `span!`/`event!` site costs one relaxed atomic load and a
//! branch, and results are bit-identical with tracing on or off. This
//! module quantifies both halves:
//!
//! * **site cost** — a tight loop over a disabled span site gives
//!   nanoseconds per site; multiplied by the records one traced run
//!   emits (every record maps to an instrumentation site the disabled
//!   run also passes) and divided by the run's wall-clock, that bounds
//!   the disabled-path overhead fraction the ≤2% acceptance gates on;
//! * **macro timing** — best-of-N wall-clock for the whole stream with
//!   tracing off and on, and the pose streams of both, which must be
//!   equal to the last bit.
//!
//! The operational tier gets the same treatment:
//!
//! * **recorder site cost** — the per-site cost with only the always-on
//!   flight recorder live (circular overwrite, no drain), bounding the
//!   production-posture overhead the ≤3% acceptance gates on — again
//!   structurally (`ns/site × sites ÷ wall-clock`), so the bound holds
//!   on loaded CI hosts;
//! * **sampler fast path** — nanoseconds per
//!   [`tigris_obs::sampler::TailSampler::observe`] call on the
//!   drop-fast path, the per-request cost every completed request pays
//!   whether or not it is retained.
//!
//! The same logic backs the release-scale acceptance test
//! `tests/obs_overhead.rs`.

use std::time::{Duration, Instant};

use tigris_data::Sequence;
use tigris_geom::RigidTransform;
use tigris_pipeline::{Odometer, RegistrationConfig};

use crate::workload::short_sequence;

/// One tracing-off vs. tracing-on comparison over the same frames.
#[derive(Debug, Clone)]
pub struct ObsBenchResult {
    /// Frames streamed per run.
    pub frames: usize,
    /// Best-of-N wall-clock with tracing disabled.
    pub disabled_time: Duration,
    /// Best-of-N wall-clock with tracing enabled (spans + metrics live).
    pub enabled_time: Duration,
    /// Span-boundary/event records one traced run emits.
    pub records_per_run: usize,
    /// Records lost to ring overflow in the traced runs (must be 0).
    pub records_dropped: u64,
    /// Measured cost of one disabled span site (nanoseconds).
    pub site_ns: f64,
    /// `site_ns × records_per_run / disabled_time` — the disabled-path
    /// overhead fraction the ≤2% acceptance bound gates on. Counting
    /// every record (Begin, End and Instant each as a full site check)
    /// overstates the true cost, so the bound is conservative.
    pub disabled_overhead: f64,
    /// `enabled_time / disabled_time − 1` — what turning tracing on
    /// costs. Informational: the acceptance bound is on the disabled
    /// path, which every production run pays.
    pub enabled_overhead: f64,
    /// Best-of-N wall-clock with only the flight recorder live (the
    /// production posture: no drain sink, circular overwrite).
    pub recorder_time: Duration,
    /// Measured cost of one span site with only the recorder live
    /// (nanoseconds).
    pub recorder_site_ns: f64,
    /// `recorder_site_ns × records_per_run / disabled_time` — the
    /// always-on-recorder overhead fraction the ≤3% acceptance bound
    /// gates on, computed structurally like `disabled_overhead`.
    pub recorder_overhead: f64,
    /// Nanoseconds per [`tigris_obs::sampler::TailSampler::observe`]
    /// call on the drop-fast path (threshold check + counter bumps).
    pub sampler_observe_ns: f64,
    /// Whether the disabled and enabled pose streams are bit-identical.
    pub poses_identical: bool,
    /// Whether the recorder-only pose stream matches the disabled one.
    pub recorder_poses_identical: bool,
}

/// Streams the sequence through an [`Odometer`], returning the elapsed
/// time and the pose estimated for every registered frame.
fn stream(seq: &Sequence, cfg: &RegistrationConfig) -> (Duration, Vec<RigidTransform>) {
    let mut odo = Odometer::new(cfg.clone());
    let mut poses = Vec::with_capacity(seq.len());
    let t0 = Instant::now();
    for i in 0..seq.len() {
        if let Some(step) = odo.push(seq.frame(i)).expect("odometry step failed") {
            poses.push(step.pose);
        }
    }
    (t0.elapsed(), poses)
}

/// Times one disabled span site: open + drop a `span!` guard with
/// tracing off, in a loop long enough to resolve sub-nanosecond costs.
fn disabled_site_ns() -> f64 {
    assert!(!tigris_obs::enabled(), "site microbench needs tracing off");
    const ITERS: u64 = 4_000_000;
    let t0 = Instant::now();
    for i in 0..ITERS {
        let guard = tigris_obs::span!("bench.site", iter = i);
        std::hint::black_box(&guard);
    }
    t0.elapsed().as_nanos() as f64 / ITERS as f64
}

/// Times one span site with only the flight recorder live: open + drop
/// pays two circular-ring pushes (overwrite-oldest, no allocation once
/// the ring is full).
fn recorder_site_ns() -> f64 {
    assert!(tigris_obs::recorder_on(), "recorder microbench needs the recorder on");
    assert!(!tigris_obs::trace_on(), "recorder microbench must not pay the drain sink");
    const ITERS: u64 = 1_000_000;
    let t0 = Instant::now();
    for i in 0..ITERS {
        let guard = tigris_obs::span!("bench.recorder_site", iter = i);
        std::hint::black_box(&guard);
    }
    t0.elapsed().as_nanos() as f64 / ITERS as f64
}

/// Times the tail sampler's drop-fast path: a fixed cutoff no request
/// reaches, so every `observe` is a threshold check plus counter bumps
/// — the per-request cost sampling adds to *every* completed request.
fn sampler_observe_ns() -> f64 {
    use tigris_obs::sampler::{RequestOutcome, TailConfig, TailSampler};
    let sampler = TailSampler::new(TailConfig::absolute(Duration::from_secs(3600)));
    const ITERS: u64 = 1_000_000;
    let latency = Duration::from_micros(50);
    let t0 = Instant::now();
    for _ in 0..ITERS {
        let decision = sampler.observe(None, latency, RequestOutcome::Completed, false);
        std::hint::black_box(&decision);
    }
    let per_call = t0.elapsed().as_nanos() as f64 / ITERS as f64;
    assert_eq!(sampler.stats().retained, 0, "fast-path bench must never retain");
    per_call
}

/// Runs the tracing-off vs. recorder-only vs. tracing-on comparison on
/// the default synthetic scene: `frames` streamed frames,
/// best-of-`runs` timing per path, bit-identity of the three pose
/// streams, plus the sampler fast-path microbenchmark.
///
/// Toggles the **process-global** sink switches; callers sharing a
/// process with other traced work must serialize around it. All sinks
/// are always left disabled on return.
pub fn run_overhead_comparison(frames: usize, seed: u64, runs: usize) -> ObsBenchResult {
    assert!(frames >= 2, "need at least 2 frames to register anything");
    assert!(runs >= 1);
    tigris_obs::set_enabled(false);
    tigris_obs::set_recorder(false);
    let seq = short_sequence(frames, seed);
    let cfg = RegistrationConfig::default();

    // Warm up (page in the scene, stabilize the allocator), then take
    // the best of `runs` with every sink off.
    let (_, poses_off) = stream(&seq, &cfg);
    let disabled_runs: Vec<Duration> = (0..runs).map(|_| stream(&seq, &cfg).0).collect();
    let site_ns = disabled_site_ns();
    let sampler_ns = sampler_observe_ns();

    // The production posture: flight recorder on, drain sink off. The
    // circular ring absorbs every record with no drain between runs.
    tigris_obs::set_recorder(true);
    let recorder_site = recorder_site_ns();
    let (_, poses_rec) = stream(&seq, &cfg);
    let recorder_runs: Vec<Duration> = (0..runs).map(|_| stream(&seq, &cfg).0).collect();
    tigris_obs::set_recorder(false);
    tigris_obs::recorder::reset();

    // The traced side: drain between runs so the rings never overflow,
    // and count one run's records — every record is a site the disabled
    // path also passed through.
    tigris_obs::set_enabled(true);
    tigris_obs::drain();
    let (_, poses_on) = stream(&seq, &cfg);
    let trace = tigris_obs::drain();
    let enabled_runs: Vec<Duration> = (0..runs)
        .map(|_| {
            let t = stream(&seq, &cfg).0;
            tigris_obs::drain();
            t
        })
        .collect();
    tigris_obs::set_enabled(false);

    let disabled_time = *disabled_runs.iter().min().expect("runs >= 1");
    let enabled_time = *enabled_runs.iter().min().expect("runs >= 1");
    let recorder_time = *recorder_runs.iter().min().expect("runs >= 1");
    let disabled_overhead = site_ns * trace.records.len() as f64 / disabled_time.as_nanos() as f64;
    let recorder_overhead =
        recorder_site * trace.records.len() as f64 / disabled_time.as_nanos() as f64;
    ObsBenchResult {
        frames,
        disabled_time,
        enabled_time,
        records_per_run: trace.records.len(),
        records_dropped: trace.dropped,
        site_ns,
        disabled_overhead,
        enabled_overhead: enabled_time.as_secs_f64() / disabled_time.as_secs_f64() - 1.0,
        recorder_time,
        recorder_site_ns: recorder_site,
        recorder_overhead,
        sampler_observe_ns: sampler_ns,
        poses_identical: poses_off == poses_on,
        recorder_poses_identical: poses_off == poses_rec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_comparison_traces_and_matches_poses() {
        let result = run_overhead_comparison(3, 42, 1);
        assert!(result.records_per_run > 0, "the traced run must record spans");
        assert_eq!(result.records_dropped, 0, "rings must not overflow");
        assert!(result.poses_identical, "tracing must not change poses");
        assert!(result.recorder_poses_identical, "the recorder must not change poses");
        assert!(result.site_ns > 0.0 && result.site_ns < 1_000.0);
        assert!(result.recorder_site_ns > 0.0);
        assert!(result.sampler_observe_ns > 0.0 && result.sampler_observe_ns < 10_000.0);
        assert!(!tigris_obs::enabled(), "every sink must be left disabled");
    }
}
