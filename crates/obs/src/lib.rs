//! **tigris-obs** — the unified observability layer: hierarchical
//! spans and structured events, a metrics registry, and trace
//! exporters, with zero external dependencies.
//!
//! Every other subsystem's telemetry reports through this crate: the
//! mapper's counters and the serving layer's latency distribution and
//! tile residency live in their instances' obs registries, the
//! pipeline's stage timings and the accelerator model's cycle
//! accounting are spans and events, and the full request path is
//! instrumented with [`span!`]/[`event!`] so one serve request yields
//! one connected trace tree from the service entry point down to the
//! KD-tree.
//!
//! # The three pieces
//!
//! * **Spans & events** ([`span!`], [`event!`], [`drain`]) — RAII span
//!   guards with monotonic timestamps and thread ids, recorded into
//!   per-thread ring buffers and merged losslessly at drain time.
//! * **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`])
//!   — named, atomically updated, lock-free on the hot path.
//! * **Exporters** ([`export`]) — Chrome trace-event JSON (load in
//!   [Perfetto](https://ui.perfetto.dev)), JSONL streams, and a
//!   human-readable summary, selected by `TIGRIS_TRACE` /
//!   `TIGRIS_TRACE_FILE` ([`init_from_env`], [`flush`]).
//!
//! # The operational tier
//!
//! On top of that substrate sits the tier a production fleet runs all
//! day: the **always-on [`recorder`]** (bounded per-thread flight rings
//! of the most recent spans/events, dumpable on demand), the
//! **[`sampler`]** (tail-based retention of complete span trees for
//! slow/failed/marked requests only), the **[`slo`]** engine
//! (declarative [`slo::SloSpec`]s evaluated over sliding registry
//! windows into burn-rate verdicts), and **[`ops`]** (operational
//! snapshots and SLO-triggered post-mortem bundles).
//!
//! # Overhead discipline
//!
//! Full-trace recording is off by default; the flight recorder is on
//! whenever [`init_from_env`] ran (opt out with `TIGRIS_RECORDER=off`)
//! and is CI-bounded to ≤3% of the streaming workload. The disabled
//! path of every [`span!`] and [`event!`] site is a single relaxed
//! atomic load and branch —
//! field expressions are not evaluated, nothing allocates (asserted by
//! test), and results are bit-identical with tracing on or off because
//! instrumentation only observes. The enabled path appends to a
//! thread-local ring buffer behind an uncontended mutex.
//!
//! ```
//! tigris_obs::set_enabled(true);
//! {
//!     let _guard = tigris_obs::span!("prepare.fpfh", points = 4096_u64);
//!     tigris_obs::event!("fpfh.bin_overflow", bin = 11_u64, weight = 0.25_f64);
//! }
//! let trace = tigris_obs::drain();
//! tigris_obs::set_enabled(false);
//! assert_eq!(trace.find(tigris_obs::RecordKind::Begin, "prepare.fpfh").len(), 1);
//! println!("{}", tigris_obs::export::chrome_trace_json(&trace));
//! ```

#![warn(missing_docs)]

mod clock;
mod collector;
mod config;
pub mod export;
mod hist;
pub mod json;
pub mod ops;
pub mod recorder;
mod registry;
pub mod sampler;
pub mod slo;

use std::sync::atomic::{AtomicU8, Ordering};

pub use clock::now_ns;
pub use collector::{
    drain, dropped_total, record_event, set_buffer_capacity, Record, RecordKind, SpanGuard, Trace,
    Value, DEFAULT_BUFFER_CAPACITY,
};
pub use config::{init_from_env, trace_file, trace_mode, TraceMode};
pub use hist::{Histogram, HistogramConfig, HistogramSnapshot};
pub use registry::{Counter, Gauge, MetricSnapshot, Registry};

/// The sink mask every instrumentation site branches on. Bit 0 is the
/// drain-trace sink (`TIGRIS_TRACE`, [`drain`]); bit 1 is the always-on
/// flight recorder ([`recorder`]). One byte, one relaxed load: the
/// disabled-site cost is identical to the old single-switch design
/// however many sinks exist.
static STATE: AtomicU8 = AtomicU8::new(0);

pub(crate) const TRACE_SINK: u8 = 1 << 0;
pub(crate) const RECORDER_SINK: u8 = 1 << 1;

/// Whether *any* span/event sink is live. A relaxed atomic load — this
/// is the *entire* cost of a disabled instrumentation site (plus one
/// branch). When it returns `false`, no field expression is evaluated
/// and nothing is recorded anywhere.
#[inline(always)]
pub fn enabled() -> bool {
    STATE.load(Ordering::Relaxed) != 0
}

/// The active sink mask (see [`TRACE_SINK`] / [`RECORDER_SINK`] bits).
#[inline(always)]
pub(crate) fn sinks() -> u8 {
    STATE.load(Ordering::Relaxed)
}

/// Whether the drain-trace sink is on (the sink [`drain`] empties and
/// [`flush`] exports).
#[inline(always)]
pub fn trace_on() -> bool {
    STATE.load(Ordering::Relaxed) & TRACE_SINK != 0
}

/// Whether the always-on flight recorder is on (see [`recorder`]).
#[inline(always)]
pub fn recorder_on() -> bool {
    STATE.load(Ordering::Relaxed) & RECORDER_SINK != 0
}

/// Turns the drain-trace sink on or off (metrics registries are always
/// live — a counter add is cheaper than the branch would be worth).
/// [`init_from_env`] calls this when `TIGRIS_TRACE` selects a mode;
/// tests and benches drive it directly. The flight recorder is switched
/// independently by [`set_recorder`].
pub fn set_enabled(on: bool) {
    set_sink(TRACE_SINK, on);
}

/// Turns the always-on flight recorder on or off. [`init_from_env`]
/// turns it on by default (`TIGRIS_RECORDER=off` opts out); tests and
/// benches drive it directly.
pub fn set_recorder(on: bool) {
    set_sink(RECORDER_SINK, on);
}

fn set_sink(bit: u8, on: bool) {
    if on {
        STATE.fetch_or(bit, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!bit, Ordering::Relaxed);
    }
}

/// Opens a hierarchical span, returning its RAII guard: the span ends
/// when the guard drops, and spans opened while it lives nest under
/// it. Fields are `name = value` pairs of any [`Value`]-convertible
/// type, evaluated **only when tracing is enabled**.
///
/// ```
/// let _guard = tigris_obs::span!("prepare.fpfh", points = 4096_usize, radius = 0.5_f64);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::begin(
                $name,
                &[$((stringify!($key), $crate::Value::from($value))),*],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Records a point-in-time event under the current span. Fields are
/// `name = value` pairs, evaluated **only when tracing is enabled**.
///
/// ```
/// tigris_obs::event!("reloc.candidate", submap = 3_usize, inliers = 17_usize, pass = false);
/// ```
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::record_event(
                $name,
                &[$((stringify!($key), $crate::Value::from($value))),*],
            );
        }
    };
}

/// Drains the collectors and writes the trace through the exporter
/// selected by [`init_from_env`] (no-op when tracing is off). Returns
/// the path written, if any — the summary mode prints to stderr.
/// Call once at process exit, after the instrumented work.
pub fn flush() -> std::io::Result<Option<std::path::PathBuf>> {
    let mode = trace_mode();
    if mode == TraceMode::Off {
        return Ok(None);
    }
    let trace = drain();
    match (mode, trace_file(mode)) {
        (TraceMode::Chrome, Some(path)) => {
            let mut file = std::fs::File::create(&path)?;
            export::write_chrome_trace(&mut file, &trace)?;
            Ok(Some(path))
        }
        (TraceMode::Jsonl, Some(path)) => {
            let mut file = std::fs::File::create(&path)?;
            export::write_jsonl(&mut file, &trace)?;
            Ok(Some(path))
        }
        _ => {
            eprint!("{}", export::summary(&trace, None));
            Ok(None)
        }
    }
}

/// Unit tests across this crate's modules toggle the process-global
/// sink mask and share the process-wide rings; one crate-wide lock
/// keeps them from interleaving.
#[cfg(test)]
pub(crate) mod testsync {
    use std::sync::{Mutex, MutexGuard};

    static SERIAL: Mutex<()> = Mutex::new(());

    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}
