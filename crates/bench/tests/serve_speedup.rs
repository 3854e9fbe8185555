//! Release-scale acceptance: serving one published, `Arc`-shared map epoch
//! must beat per-session map rebuilding by at least 3× at 4 sessions.
//!
//! The floor is structural, not incidental: the shared path builds the
//! map once for everyone while the rebuild path pays one full map
//! construction per session, so at 4 sessions the ratio approaches 4×
//! on any host (both paths run the identical localization work, and the
//! comparison asserts their poses bit-identical). Run explicitly:
//!
//! ```text
//! cargo test -p tigris-bench --release --test serve_speedup -- --ignored --nocapture
//! ```

use tigris_bench::serve::run_shared_vs_rebuild_comparison;

/// Serving must gain ≥3× from snapshot sharing at 4 sessions.
const MIN_SPEEDUP: f64 = 3.0;

#[test]
#[ignore = "release-scale acceptance benchmark; run with --ignored"]
fn shared_snapshot_beats_per_session_rebuild() {
    let sessions = 4;
    let result = run_shared_vs_rebuild_comparison(sessions, 7, 1);
    eprintln!(
        "shared {:?} vs rebuild {:?} ({} sessions x {} queries): {:.2}x",
        result.shared_time,
        result.rebuild_time,
        result.sessions,
        result.queries_per_session,
        result.speedup
    );
    assert!(
        result.speedup >= MIN_SPEEDUP,
        "snapshot sharing must beat per-session rebuild by >= {MIN_SPEEDUP}x, got {:.2}x",
        result.speedup
    );
}
