//! Serving metrics: admission, relocalization and tracking counters plus
//! request-latency percentiles, per session and service-wide.

use std::sync::Arc;
use std::time::Duration;

use tigris_obs::{Histogram, HistogramConfig};

/// Counters for one session's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Frames submitted to [`crate::shard::ShardSession::localize`] (admitted ones;
    /// saturation rejections are counted service-wide only).
    pub frames: usize,
    /// Cold-start relocalizations attempted.
    pub relocalizations_attempted: usize,
    /// Cold-start relocalizations that produced a pose.
    pub relocalizations_succeeded: usize,
    /// Frames tracked against the previous frame (velocity-prior path).
    pub frames_tracked: usize,
    /// Tracking failures that sent the session back toward cold start.
    pub track_breaks: usize,
    /// Wall-clock spent in the normal-estimation stage of this session's
    /// frame preparations.
    pub normal_estimation_time: Duration,
    /// Wall-clock spent in the descriptor stage of this session's frame
    /// preparations.
    pub descriptor_time: Duration,
    /// Heap capacity (bytes) the session's reused front-end scratch grew
    /// by. Stops growing once the scratch is warm.
    pub prepare_scratch_bytes_grown: u64,
    /// Frame preparations that completed without growing any scratch
    /// buffer — allocation-free steady state.
    pub prepare_scratch_reuses: u64,
}

impl SessionStats {
    /// The per-counter increments between `before` and `self` — what one
    /// request contributed, for service-wide metering.
    pub fn delta_since(&self, before: &SessionStats) -> SessionStats {
        SessionStats {
            frames: self.frames - before.frames,
            relocalizations_attempted: self.relocalizations_attempted
                - before.relocalizations_attempted,
            relocalizations_succeeded: self.relocalizations_succeeded
                - before.relocalizations_succeeded,
            frames_tracked: self.frames_tracked - before.frames_tracked,
            track_breaks: self.track_breaks - before.track_breaks,
            normal_estimation_time: self.normal_estimation_time - before.normal_estimation_time,
            descriptor_time: self.descriptor_time - before.descriptor_time,
            prepare_scratch_bytes_grown: self.prepare_scratch_bytes_grown
                - before.prepare_scratch_bytes_grown,
            prepare_scratch_reuses: self.prepare_scratch_reuses - before.prepare_scratch_reuses,
        }
    }
}

/// Service-wide counters and latency summary, as returned by
/// [`crate::shard::ShardService::stats`] (a consistent point-in-time
/// copy).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Sessions admitted over the service's lifetime.
    pub sessions_admitted: usize,
    /// Session opens rejected by the session budget.
    pub sessions_rejected: usize,
    /// Sessions currently open.
    pub sessions_active: usize,
    /// Localize calls rejected by the in-flight budget (no work done).
    pub frames_rejected: usize,
    /// Sum of every closed and open session's [`SessionStats::frames`].
    pub frames: usize,
    /// Cold-start relocalizations attempted, service-wide.
    pub relocalizations_attempted: usize,
    /// Cold-start relocalizations succeeded, service-wide.
    pub relocalizations_succeeded: usize,
    /// Frames tracked, service-wide.
    pub frames_tracked: usize,
    /// Tracking breaks, service-wide.
    pub track_breaks: usize,
    /// Wall-clock in the normal-estimation stage of admitted frames'
    /// front ends, service-wide — with [`ServeStats::descriptor_time`]
    /// it attributes how much of the cold-start p50/p99 is the query
    /// front end rather than retrieval or verification.
    pub normal_estimation_time: Duration,
    /// Wall-clock in the descriptor stage of admitted frames' front
    /// ends, service-wide.
    pub descriptor_time: Duration,
    /// Bytes of front-end scratch growth across all sessions — flat once
    /// every session's scratch is warm.
    pub prepare_scratch_bytes_grown: u64,
    /// Allocation-free frame preparations across all sessions.
    pub prepare_scratch_reuses: u64,
    /// Latency distribution over every completed localize call.
    pub latency: LatencySummary,
    /// Index residency counters (per submap index).
    pub tiles: TileStats,
}

/// Index residency counters for the sharded serving layer, counted per
/// submap index (one per payload): how often a needed index was already
/// resident, how much load/evict churn the byte budget caused, and the
/// resident footprint itself. No tile groups submaps any more; this
/// type, its `resident_tiles` field, [`ServeStats::tiles`] and the
/// `serve.tiles.*` registry names keep their names because the
/// benchmark reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileStats {
    /// Index lookups answered by an already-resident index.
    pub hits: usize,
    /// Index lookups that had to build the index first.
    pub misses: usize,
    /// Submap indexes built over the service's lifetime.
    pub loads: usize,
    /// Submap indexes evicted by the byte budget over the service's
    /// lifetime (indexes of payloads nothing holds any more are dropped
    /// without counting here).
    pub evictions: usize,
    /// Submap indexes currently resident.
    pub resident_tiles: usize,
    /// Reclaimable bytes currently resident (the rebuilt per-submap
    /// indices; epoch payload archives are not charged — eviction cannot
    /// free them).
    pub resident_bytes: usize,
    /// High-water mark of [`TileStats::resident_bytes`].
    pub peak_resident_bytes: usize,
}

/// Percentile summary of recorded request latencies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Completed requests recorded.
    pub count: usize,
    /// Median latency (nearest-rank).
    pub p50: Duration,
    /// 99th-percentile latency (nearest-rank).
    pub p99: Duration,
    /// Maximum observed latency.
    pub max: Duration,
    /// Mean latency.
    pub mean: Duration,
}

/// The latency histogram's shape: microsecond ticks with 17 sub-bucket
/// bits — every latency below 2^17 µs (≈131 ms) lands in a width-1
/// bucket and is reported back **exactly**; above that, buckets widen
/// geometrically and a reported percentile is the bucket's lower bound,
/// low by a relative error below 2^-16 (≈0.0015%). Resolution is 1 µs
/// throughout (sub-microsecond latency detail truncates).
pub(crate) const LATENCY_HISTOGRAM: HistogramConfig = HistogramConfig { sub_bucket_bits: 17 };

/// Accumulates per-request latencies and summarizes them on demand.
///
/// Backed by the obs layer's lock-free, log-bucketed [`Histogram`]
/// in microsecond ticks (see `LATENCY_HISTOGRAM` in this module for
/// the exactness/error bound), registered in
/// the owning service's metrics registry as `serve.latency_us` — the
/// same distribution a registry snapshot or trace summary reports.
///
/// Cloning is cheap and **shares** the underlying histogram: the
/// service hands out clones so percentile walks can run outside its
/// request lock.
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    hist: Arc<Histogram>,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder::new()
    }
}

impl LatencyRecorder {
    /// A recorder with no samples (standalone — not registered in any
    /// metrics registry).
    pub fn new() -> Self {
        LatencyRecorder { hist: Arc::new(Histogram::new(LATENCY_HISTOGRAM)) }
    }

    /// A recorder over an existing (typically registry-owned)
    /// histogram; must be shaped by [`LATENCY_HISTOGRAM`] for the
    /// documented exactness bound to hold.
    pub(crate) fn from_histogram(hist: Arc<Histogram>) -> Self {
        LatencyRecorder { hist }
    }

    /// Records one completed request (at microsecond resolution).
    pub fn record(&mut self, latency: Duration) {
        self.hist.record(latency.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> usize {
        self.hist.count() as usize
    }

    /// The nearest-rank percentile of the recorded samples: the smallest
    /// sample ≥ `p` of the population (`None` when no sample was
    /// recorded). `p` outside `(0, 1]` is clamped — `p <= 0` answers the
    /// minimum, `p >= 1` (and a NaN `p`) the maximum, so a caller can
    /// never index out of the sample range on a tiny count.
    ///
    /// Exact for samples below ≈131 ms; above, the answer is the
    /// holding bucket's lower bound (see `LATENCY_HISTOGRAM`).
    pub fn percentile(&self, p: f64) -> Option<Duration> {
        self.hist.percentile(p).map(Duration::from_micros)
    }

    /// Summarizes the recorded samples (zeros when empty).
    ///
    /// Percentiles are nearest-rank over the histogram: `p50` is the
    /// smallest sample ≥ half the population, `p99` the smallest
    /// sample ≥ 99% of it. On tiny counts the rank degenerates safely:
    /// with one sample every percentile is that sample, and p99 equals
    /// the maximum for any count below 100. The maximum and mean are
    /// tracked exactly (to the recorder's 1 µs resolution) regardless
    /// of bucketing.
    pub fn summarize(&self) -> LatencySummary {
        let count = self.hist.count();
        if count == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            count: count as usize,
            p50: self.percentile(0.50).unwrap_or_default(),
            p99: self.percentile(0.99).unwrap_or_default(),
            max: Duration::from_micros(self.hist.max()),
            mean: Duration::from_micros(self.hist.sum())
                / u32::try_from(count).unwrap_or(u32::MAX).max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_summarizes_to_zeros() {
        let summary = LatencyRecorder::new().summarize();
        assert_eq!(summary, LatencySummary::default());
        assert_eq!(summary.count, 0);
    }

    #[test]
    fn percentiles_follow_nearest_rank() {
        let mut rec = LatencyRecorder::new();
        // 1..=100 ms, shuffled order must not matter.
        for i in (1..=100u64).rev() {
            rec.record(Duration::from_millis(i));
        }
        let s = rec.summarize();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, Duration::from_millis(50));
        assert_eq!(s.p99, Duration::from_millis(99));
        assert_eq!(s.max, Duration::from_millis(100));
        assert_eq!(s.mean, Duration::from_micros(50_500));
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut rec = LatencyRecorder::new();
        rec.record(Duration::from_millis(7));
        let s = rec.summarize();
        assert_eq!(s.p50, Duration::from_millis(7));
        assert_eq!(s.p99, Duration::from_millis(7));
        assert_eq!(s.max, Duration::from_millis(7));
        assert_eq!(s.mean, Duration::from_millis(7));
        // The percentile API agrees, at every p — including clamped ones.
        for p in [-1.0, 0.0, 0.01, 0.5, 0.99, 1.0, 2.0, f64::NAN] {
            assert_eq!(rec.percentile(p), Some(Duration::from_millis(7)), "p = {p}");
        }
    }

    #[test]
    fn empty_recorder_has_no_percentile() {
        let rec = LatencyRecorder::new();
        assert_eq!(rec.count(), 0);
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(rec.percentile(p), None, "p = {p}");
        }
    }

    #[test]
    fn tiny_counts_degenerate_to_the_extremes() {
        // Two samples: nearest-rank p50 is the *lower* one (rank
        // ceil(0.5·2) = 1), p99 the upper (rank ceil(0.99·2) = 2).
        let mut rec = LatencyRecorder::new();
        rec.record(Duration::from_millis(30));
        rec.record(Duration::from_millis(10));
        let s = rec.summarize();
        assert_eq!(s.count, 2);
        assert_eq!(s.p50, Duration::from_millis(10));
        assert_eq!(s.p99, Duration::from_millis(30));
        assert_eq!(s.max, Duration::from_millis(30));
        assert_eq!(s.mean, Duration::from_millis(20));

        // Three samples: p50 is the median (rank 2), p99 still the max.
        rec.record(Duration::from_millis(20));
        let s = rec.summarize();
        assert_eq!(s.p50, Duration::from_millis(20));
        assert_eq!(s.p99, Duration::from_millis(30));

        // p99 equals the maximum for ANY count below 100: rank
        // ceil(0.99·n) = n exactly when n < 100.
        let mut rec = LatencyRecorder::new();
        for n in 1..=99u64 {
            rec.record(Duration::from_millis(n));
            assert_eq!(
                rec.percentile(0.99),
                Some(Duration::from_millis(n)),
                "p99 of {n} ascending samples"
            );
        }
        // …and at exactly 100 samples p99 is the 99th, not the max.
        rec.record(Duration::from_millis(100));
        assert_eq!(rec.summarize().p99, Duration::from_millis(99));
    }

    #[test]
    fn pathological_percentile_arguments_clamp_to_the_sample_range() {
        let mut rec = LatencyRecorder::new();
        for ms in [5u64, 15, 25] {
            rec.record(Duration::from_millis(ms));
        }
        assert_eq!(rec.percentile(-3.0), Some(Duration::from_millis(5)));
        assert_eq!(rec.percentile(0.0), Some(Duration::from_millis(5)));
        assert_eq!(rec.percentile(1.0), Some(Duration::from_millis(25)));
        assert_eq!(rec.percentile(7.5), Some(Duration::from_millis(25)));
        assert_eq!(rec.percentile(f64::NAN), Some(Duration::from_millis(25)));
    }

    #[test]
    fn percentiles_are_exact_on_bucket_boundaries_above_the_exact_region() {
        // Above the 2^17 µs exact region the histogram's buckets widen,
        // but a sample sitting exactly on a bucket boundary must come
        // back bit-for-bit: 2^18 µs and 2^18 + 2^2 µs are both slot
        // lower bounds of the second log group (width 4 µs).
        let mut rec = LatencyRecorder::new();
        for us in [1u64 << 18, (1 << 18) + 4, 1 << 20] {
            rec.record(Duration::from_micros(us));
        }
        assert_eq!(rec.percentile(0.0), Some(Duration::from_micros(1 << 18)));
        assert_eq!(rec.percentile(0.5), Some(Duration::from_micros((1 << 18) + 4)));
        assert_eq!(rec.percentile(1.0), Some(Duration::from_micros(1 << 20)));
        // Max and mean stay exact regardless of bucketing.
        let s = rec.summarize();
        assert_eq!(s.max, Duration::from_micros(1 << 20));
        assert_eq!(s.mean, Duration::from_micros((1 << 18) + ((1 << 18) + 4) + (1 << 20)) / 3);
    }

    #[test]
    fn off_boundary_samples_stay_within_the_documented_error_bound() {
        // An arbitrary (non-boundary) sample above the exact region is
        // reported as its bucket's lower bound: never above the true
        // value, and low by a relative error below 2^-16.
        let us = 300_007u64; // ≈300 ms, above the 131 ms exact region
        let mut rec = LatencyRecorder::new();
        rec.record(Duration::from_micros(us));
        let got = rec.percentile(0.5).unwrap().as_micros() as u64;
        assert!(got <= us);
        assert!((us - got) as f64 / us as f64 <= 1.0 / 65_536.0, "got {got} for {us}");
    }

    #[test]
    fn duplicate_samples_keep_percentiles_well_defined() {
        let mut rec = LatencyRecorder::new();
        for _ in 0..8 {
            rec.record(Duration::from_millis(4));
        }
        let s = rec.summarize();
        assert_eq!(s.p50, Duration::from_millis(4));
        assert_eq!(s.p99, Duration::from_millis(4));
        assert_eq!(s.max, Duration::from_millis(4));
        assert_eq!(s.mean, Duration::from_millis(4));
    }
}
