//! Operational observability end to end: serve real requests with the
//! always-on flight recorder and a retain-the-tail sampler, declare an
//! SLO the workload is guaranteed to breach, and watch the monitor dump
//! a post-mortem bundle — the last seconds of spans, the breached
//! verdicts, the retained slow-request trees and a metrics summary.
//!
//! Run with:
//! ```text
//! cargo run --release --example ops
//! ```
//! then open the printed `trace.json` at <https://ui.perfetto.dev>.
//! Every binary gets the same machinery without code changes via the
//! environment:
//! ```text
//! TIGRIS_SLO='serve.latency_us:p99<=250ms' TIGRIS_TAIL_SLOW_US=5000 \
//!   cargo run --release --example shard_serve
//! ```

use std::time::Duration;

use tigris::data::{LidarConfig, Sequence, SequenceConfig};
use tigris::map::{Mapper, MapperConfig};
use tigris::obs;
use tigris::obs::ops::{OpsConfig, OpsMonitor};
use tigris::obs::slo::parse_specs;
use tigris::serve::shard::{EpochPublisher, ShardConfig, ShardService};

fn main() {
    // The flight recorder runs continuously (it defaults on in every
    // service; this is explicit for the example's sake). No drain, no
    // export unless something goes wrong — the ring just keeps the
    // recent past.
    obs::set_recorder(true);

    // ---- A map to serve ------------------------------------------------
    let mut cfg = SequenceConfig::loop_circuit(60.0, 6);
    cfg.lidar = LidarConfig::tiny();
    println!("generating a {}-frame closed-circuit sequence (60 m ring)...", cfg.frames);
    let seq = Sequence::generate(&cfg, 7);
    println!("building the map...");
    let mut mapper = Mapper::new(MapperConfig::serving());
    for i in 0..seq.len() {
        mapper.push(seq.frame(i)).expect("mapping frame failed");
    }
    let epoch = EpochPublisher::new().publish(&mapper).expect("publish failed");

    // ---- The operational tier ------------------------------------------
    // An SLO no real request can meet (p99 ≤ 1 µs) stands in for a
    // production latency regression: the very first evaluation breaches
    // and triggers the post-mortem dump. `TIGRIS_SLO` declares the same
    // thing environmentally for any binary.
    let specs = parse_specs("serve.latency_us:p99<=1us").expect("spec parses");
    let ops = OpsMonitor::new(OpsConfig {
        dir: std::env::temp_dir().join("tigris-ops-example"),
        specs,
        window: Duration::from_secs(10),
    });

    // Retain every request's trace (cutoff 0) so the bundle has tails
    // to show; production would keep the default self-calibrating p99
    // threshold (or set `TIGRIS_TAIL_SLOW_US`).
    std::env::set_var("TIGRIS_TAIL_SLOW_US", "0");
    let service = ShardService::with_epoch(epoch, ShardConfig::default());
    std::env::remove_var("TIGRIS_TAIL_SLOW_US");
    let label = ops.register("serve", service.registry(), Some(service.sampler()));
    println!("registered service as '{label}' with SLO serve.latency_us:p99<=1us");

    // ---- Serve: every request is an induced latency breach -------------
    let mut session = service.open_session().expect("admission");
    for frame in [2usize, 3, 4, 5] {
        let step = session.localize(seq.frame(frame)).expect("localization failed");
        println!("frame {frame} → {}", step.pose.translation);
    }

    // ---- One monitor tick: evaluate, breach, dump ----------------------
    let bundles = ops.tick();
    println!("\n{}", ops.snapshot_text());
    match bundles.first() {
        Some(dir) => {
            println!("SLO breached — post-mortem bundle written to:");
            println!("  {}", dir.display());
            for file in ["trace.json", "records.jsonl", "verdicts.json", "retained.json"] {
                let len = std::fs::metadata(dir.join(file)).map(|m| m.len()).unwrap_or(0);
                println!("    {file:<14} {len:>8} bytes");
            }
            println!("open {}/trace.json at https://ui.perfetto.dev", dir.display());
        }
        None => println!("no breach — raise the example's SLO threshold to see a bundle"),
    }
}
