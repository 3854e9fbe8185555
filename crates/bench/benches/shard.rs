//! Sharded serving: tile-routed map queries vs. whole-map
//! fan-out, on a map that outgrows the scanner.
//!
//! Besides the human-readable comparison, the run emits a
//! machine-readable baseline (`BENCH_shard.json` by default, or the path
//! in `$BENCH_SHARD_JSON`) that CI archives per commit, so shard-layer
//! regressions show up as a diffable number.
//!
//! ```text
//! cargo bench -p tigris-bench --bench shard
//! TIGRIS_SHARD_SCALE=20 cargo bench -p tigris-bench --bench shard
//! ```

use tigris_bench::env_usize;
use tigris_bench::shard::run_tiled_vs_whole_comparison;

fn main() {
    let scale = env_usize("TIGRIS_SHARD_SCALE", 10);
    let runs = env_usize("TIGRIS_SHARD_RUNS", 3);
    println!("== sharded serving: {scale}x loop fixture, best of {runs} runs ==");

    let result = run_tiled_vs_whole_comparison(scale, 7, runs);
    println!(
        "map               {} points, {} submaps, {} tiles",
        result.map_points, result.submaps, result.tiles
    );
    println!(
        "routing           {:>8.3} mean covering fraction over {} probes",
        result.mean_covering_fraction, result.probes
    );
    println!(
        "whole map         {:>8.1} probes/s  ({:?} total)",
        result.whole_qps, result.whole_time
    );
    println!(
        "tile-routed       {:>8.1} probes/s  ({:?} total)",
        result.tiled_qps, result.tiled_time
    );
    println!("speedup           {:>8.3}x  (answers verified bit-identical)", result.speedup);

    let path = result.report().write_env("BENCH_SHARD_JSON", "BENCH_shard.json");
    println!("baseline written to {}", path.display());
}
