//! Admission control and service-wide request metering for the serving
//! front end.

use std::sync::Arc;
use std::time::Duration;

use tigris_obs::{Counter, Gauge, Registry};

use crate::error::ServeError;
use crate::stats::LATENCY_HISTOGRAM;
use crate::stats::{LatencyRecorder, LatencySummary, ServeStats, SessionStats, TileStats};

/// Admission control and request metering for `shard::ShardService`:
/// the session/in-flight budgets and the service-wide counters. The
/// service holds it behind its state lock and touches it only at
/// request boundaries; all heavy work runs lock-free.
///
/// Every counter is a handle into the owning service's obs
/// [`Registry`] (names under `serve.`): [`ServeStats`] is assembled
/// *from* the registry, so a registry snapshot or trace summary reports
/// exactly what `stats()` reports — one backing store, two views.
#[derive(Debug)]
pub(crate) struct RequestGate {
    sessions_admitted: Arc<Counter>,
    sessions_rejected: Arc<Counter>,
    sessions_active: Arc<Gauge>,
    frames_rejected: Arc<Counter>,
    inflight: usize,
    frames: Arc<Counter>,
    reloc_attempted: Arc<Counter>,
    reloc_succeeded: Arc<Counter>,
    frames_tracked: Arc<Counter>,
    track_breaks: Arc<Counter>,
    normal_estimation_ns: Arc<Counter>,
    descriptor_ns: Arc<Counter>,
    scratch_bytes_grown: Arc<Counter>,
    scratch_reuses: Arc<Counter>,
    latency: LatencyRecorder,
}

impl Default for RequestGate {
    fn default() -> Self {
        RequestGate::new(Arc::new(Registry::new()))
    }
}

impl RequestGate {
    /// A gate metering into `registry` (one registry per service).
    pub(crate) fn new(registry: Arc<Registry>) -> Self {
        let latency = LatencyRecorder::from_histogram(
            registry.histogram_with("serve.latency_us", LATENCY_HISTOGRAM),
        );
        RequestGate {
            sessions_admitted: registry.counter("serve.sessions_admitted"),
            sessions_rejected: registry.counter("serve.sessions_rejected"),
            sessions_active: registry.gauge("serve.sessions_active"),
            frames_rejected: registry.counter("serve.frames_rejected"),
            inflight: 0,
            frames: registry.counter("serve.frames"),
            reloc_attempted: registry.counter("serve.relocalizations_attempted"),
            reloc_succeeded: registry.counter("serve.relocalizations_succeeded"),
            frames_tracked: registry.counter("serve.frames_tracked"),
            track_breaks: registry.counter("serve.track_breaks"),
            normal_estimation_ns: registry.counter("serve.normal_estimation_ns"),
            descriptor_ns: registry.counter("serve.descriptor_ns"),
            scratch_bytes_grown: registry.counter("serve.prepare_scratch_bytes_grown"),
            scratch_reuses: registry.counter("serve.prepare_scratch_reuses"),
            latency,
        }
    }

    /// Admits one session (returning its dense id in admission order) or
    /// rejects typed at the budget.
    pub(crate) fn admit_session(&mut self, max_sessions: usize) -> Result<usize, ServeError> {
        if self.sessions_active.get() >= max_sessions as i64 {
            self.sessions_rejected.inc();
            return Err(ServeError::SessionsExhausted { limit: max_sessions });
        }
        self.sessions_active.add(1);
        Ok(self.sessions_admitted.inc() as usize - 1)
    }

    /// A session closed (dropped): its slot becomes re-admittable.
    pub(crate) fn close_session(&mut self) {
        self.sessions_active.add(-1);
    }

    /// Sessions currently open.
    pub(crate) fn active_sessions(&self) -> usize {
        self.sessions_active.get().max(0) as usize
    }

    /// Claims an in-flight slot for one localize call, or rejects typed
    /// before any work runs.
    pub(crate) fn begin_request(&mut self, max_inflight: usize) -> Result<(), ServeError> {
        if self.inflight >= max_inflight {
            self.frames_rejected.inc();
            return Err(ServeError::Saturated { limit: max_inflight });
        }
        self.inflight += 1;
        Ok(())
    }

    /// Releases the in-flight slot and meters the completed request.
    pub(crate) fn finish_request(&mut self, latency: Duration, delta: SessionStats) {
        self.inflight -= 1;
        self.latency.record(latency);
        self.frames.add(delta.frames as u64);
        self.reloc_attempted.add(delta.relocalizations_attempted as u64);
        self.reloc_succeeded.add(delta.relocalizations_succeeded as u64);
        self.frames_tracked.add(delta.frames_tracked as u64);
        self.track_breaks.add(delta.track_breaks as u64);
        self.normal_estimation_ns.add(delta.normal_estimation_time.as_nanos() as u64);
        self.descriptor_ns.add(delta.descriptor_time.as_nanos() as u64);
        self.scratch_bytes_grown.add(delta.prepare_scratch_bytes_grown);
        self.scratch_reuses.add(delta.prepare_scratch_reuses);
    }

    /// The gate's registry-backed counters as a [`ServeStats`] (latency
    /// summary and tile counters left default) plus a clone of the
    /// latency recorder — a cheap shared handle, so the caller can run
    /// the percentile walk outside its service lock.
    pub(crate) fn stats_and_recorder(&self) -> (ServeStats, LatencyRecorder) {
        (
            ServeStats {
                sessions_admitted: self.sessions_admitted.get() as usize,
                sessions_rejected: self.sessions_rejected.get() as usize,
                sessions_active: self.active_sessions(),
                frames_rejected: self.frames_rejected.get() as usize,
                frames: self.frames.get() as usize,
                relocalizations_attempted: self.reloc_attempted.get() as usize,
                relocalizations_succeeded: self.reloc_succeeded.get() as usize,
                frames_tracked: self.frames_tracked.get() as usize,
                track_breaks: self.track_breaks.get() as usize,
                normal_estimation_time: Duration::from_nanos(self.normal_estimation_ns.get()),
                descriptor_time: Duration::from_nanos(self.descriptor_ns.get()),
                prepare_scratch_bytes_grown: self.scratch_bytes_grown.get(),
                prepare_scratch_reuses: self.scratch_reuses.get(),
                latency: LatencySummary::default(),
                tiles: TileStats::default(),
            },
            self.latency.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_admits_to_the_limit_and_reuses_released_slots() {
        let mut gate = RequestGate::default();
        assert_eq!(gate.admit_session(2), Ok(0));
        assert_eq!(gate.admit_session(2), Ok(1));
        assert_eq!(gate.admit_session(2), Err(ServeError::SessionsExhausted { limit: 2 }));
        assert_eq!(gate.active_sessions(), 2);

        // A closed session's slot is re-admittable — this is the
        // invariant `ShardSession`'s `Drop` impl relies on for abnormal
        // teardown (a panicking session thread still runs `Drop`).
        gate.close_session();
        assert_eq!(gate.active_sessions(), 1);
        assert_eq!(gate.admit_session(2), Ok(2), "ids stay dense across releases");

        let (stats, _) = gate.stats_and_recorder();
        assert_eq!(stats.sessions_admitted, 3);
        assert_eq!(stats.sessions_rejected, 1);
        assert_eq!(stats.sessions_active, 2);
    }

    #[test]
    fn gate_meters_inflight_requests_and_totals() {
        let mut gate = RequestGate::default();
        gate.begin_request(1).expect("first request fits");
        assert_eq!(gate.begin_request(1), Err(ServeError::Saturated { limit: 1 }));
        let delta = SessionStats {
            frames: 1,
            frames_tracked: 1,
            normal_estimation_time: Duration::from_millis(4),
            descriptor_time: Duration::from_millis(6),
            prepare_scratch_bytes_grown: 256,
            prepare_scratch_reuses: 1,
            ..SessionStats::default()
        };
        gate.finish_request(Duration::from_millis(3), delta);
        gate.begin_request(1).expect("slot freed by completion");
        gate.finish_request(Duration::from_millis(5), SessionStats::default());

        let (stats, recorder) = gate.stats_and_recorder();
        assert_eq!(stats.frames_rejected, 1);
        assert_eq!(stats.frames, 1);
        assert_eq!(stats.frames_tracked, 1);
        assert_eq!(stats.normal_estimation_time, Duration::from_millis(4));
        assert_eq!(stats.descriptor_time, Duration::from_millis(6));
        assert_eq!(stats.prepare_scratch_bytes_grown, 256);
        assert_eq!(stats.prepare_scratch_reuses, 1);
        assert_eq!(recorder.count(), 2, "every completion records a latency sample");
    }
}
