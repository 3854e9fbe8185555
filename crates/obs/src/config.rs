//! Environment-driven tracing configuration: `TIGRIS_TRACE` selects
//! the export mode (and enables recording), `TIGRIS_TRACE_FILE`
//! overrides the output path, `TIGRIS_TRACE_BUF` sizes the per-thread
//! ring buffers.
//!
//! The always-on flight recorder ([`crate::recorder`]) is switched
//! here too: it defaults **on** whenever [`init_from_env`] runs (every
//! service, the CLI and the examples call it at startup) — that is the
//! production posture — and `TIGRIS_RECORDER=off` opts out;
//! `TIGRIS_RECORDER_BUF` sizes its per-thread window in records.

use std::path::PathBuf;
use std::sync::OnceLock;

/// Which exporter [`crate::flush`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Recording disabled; `flush` is a no-op.
    #[default]
    Off,
    /// Chrome trace-event JSON (load the file in Perfetto or
    /// `chrome://tracing`).
    Chrome,
    /// One JSON object per record, streamed line-by-line.
    Jsonl,
    /// Human-readable span/metric summary to stderr.
    Summary,
}

impl TraceMode {
    fn parse(raw: &str) -> TraceMode {
        match raw.trim().to_ascii_lowercase().as_str() {
            "chrome" | "on" | "1" | "true" => TraceMode::Chrome,
            "jsonl" => TraceMode::Jsonl,
            "summary" => TraceMode::Summary,
            _ => TraceMode::Off,
        }
    }

    /// The default output path for the mode (`None` writes to stderr).
    pub fn default_path(self) -> Option<PathBuf> {
        match self {
            TraceMode::Chrome => Some(PathBuf::from("tigris-trace.json")),
            TraceMode::Jsonl => Some(PathBuf::from("tigris-trace.jsonl")),
            TraceMode::Off | TraceMode::Summary => None,
        }
    }
}

static MODE: OnceLock<TraceMode> = OnceLock::new();

/// Reads `TIGRIS_TRACE`/`TIGRIS_TRACE_BUF` (and the flight recorder's
/// `TIGRIS_RECORDER`/`TIGRIS_RECORDER_BUF`) once, enables recording
/// when a mode is selected, turns the flight recorder on unless opted
/// out, and returns the mode. Idempotent: the first call wins; later
/// calls return the cached mode without re-reading the environment.
/// Entry points (services, the CLI, examples) call this at startup and
/// [`crate::flush`] at exit.
pub fn init_from_env() -> TraceMode {
    *MODE.get_or_init(|| {
        if let Ok(raw) = std::env::var("TIGRIS_TRACE_BUF") {
            if let Ok(records) = raw.trim().parse::<usize>() {
                crate::set_buffer_capacity(records);
            }
        }
        if let Ok(raw) = std::env::var("TIGRIS_RECORDER_BUF") {
            if let Ok(records) = raw.trim().parse::<usize>() {
                crate::recorder::set_flight_capacity(records);
            }
        }
        // The flight recorder is the always-on tier: default on, with
        // an explicit opt-out for overhead-sensitive comparisons.
        let recorder = std::env::var("TIGRIS_RECORDER")
            .map(|raw| !matches!(raw.trim().to_ascii_lowercase().as_str(), "off" | "0" | "false"))
            .unwrap_or(true);
        if recorder {
            crate::set_recorder(true);
        }
        let mode =
            std::env::var("TIGRIS_TRACE").map(|raw| TraceMode::parse(&raw)).unwrap_or_default();
        if mode != TraceMode::Off {
            crate::set_enabled(true);
        }
        mode
    })
}

/// The mode selected by [`init_from_env`] (`Off` if never initialized).
pub fn trace_mode() -> TraceMode {
    MODE.get().copied().unwrap_or_default()
}

/// The output path for `mode`: `TIGRIS_TRACE_FILE` if set, else the
/// mode's default (`None` = stderr).
pub fn trace_file(mode: TraceMode) -> Option<PathBuf> {
    match std::env::var_os("TIGRIS_TRACE_FILE") {
        Some(path) => Some(PathBuf::from(path)),
        None => mode.default_path(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_strings_parse() {
        assert_eq!(TraceMode::parse("chrome"), TraceMode::Chrome);
        assert_eq!(TraceMode::parse("ON"), TraceMode::Chrome);
        assert_eq!(TraceMode::parse("jsonl"), TraceMode::Jsonl);
        assert_eq!(TraceMode::parse("summary"), TraceMode::Summary);
        assert_eq!(TraceMode::parse("off"), TraceMode::Off);
        assert_eq!(TraceMode::parse("0"), TraceMode::Off);
        assert_eq!(TraceMode::parse(""), TraceMode::Off);
    }
}
