//! Shared-map serving: one published epoch serving every session vs.
//! each session rebuilding the map for itself.
//!
//! Besides the human-readable comparison, the run emits a
//! machine-readable baseline (`BENCH_serve.json` by default, or the path
//! in `$BENCH_SERVE_JSON`) that CI archives per commit, so serving-layer
//! regressions show up as a diffable number.
//!
//! ```text
//! cargo bench -p tigris-bench --bench serve
//! TIGRIS_SERVE_SESSIONS=8 cargo bench -p tigris-bench --bench serve
//! ```

use tigris_bench::env_usize;
use tigris_bench::serve::run_shared_vs_rebuild_comparison;

fn main() {
    let sessions = env_usize("TIGRIS_SERVE_SESSIONS", 4);
    let runs = env_usize("TIGRIS_SERVE_RUNS", 1);
    println!("== shared-map serving: {sessions} sessions, best of {runs} runs ==");

    let result = run_shared_vs_rebuild_comparison(sessions, 7, runs);
    println!(
        "shared epoch      {:>8.3} frames/s  ({:?} total: 1 map build + {} sessions)",
        result.shared_fps, result.shared_time, result.sessions
    );
    println!(
        "rebuild/session   {:>8.3} frames/s  ({:?} total: {} map builds)",
        result.rebuild_fps, result.rebuild_time, result.sessions
    );
    println!("speedup           {:>8.3}x  (poses verified bit-identical)", result.speedup);
    println!(
        "cold start        {:>8.4}s best of {} relocalizations  (front end: NE {:.4}s + descriptors {:.4}s per run, {} alloc-free preparations, {} scratch bytes grown)",
        result.cold_start_best(),
        result.cold_start_samples.len(),
        result.ne_seconds,
        result.descriptor_seconds,
        result.scratch_reuses,
        result.scratch_bytes_grown,
    );

    let path = result.report().write_env("BENCH_SERVE_JSON", "BENCH_serve.json");
    println!("baseline written to {}", path.display());
}
