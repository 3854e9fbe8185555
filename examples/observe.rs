//! End-to-end observability: map a closed-circuit sequence, serve four
//! concurrent localization sessions with tracing on, and write the
//! whole run as a Chrome trace — one connected span tree per request,
//! from the serve entry point down to the KD-tree — plus a metrics
//! summary on stderr.
//!
//! Run with:
//! ```text
//! cargo run --release --example observe
//! ```
//! then load the written `tigris-trace.json` at
//! <https://ui.perfetto.dev> (or `chrome://tracing`) to explore the
//! spans. Every binary gets the same behavior without code changes via
//! the environment: `TIGRIS_TRACE=chrome TIGRIS_TRACE_FILE=out.json`.

use std::sync::Arc;

use tigris::data::{LidarConfig, Sequence, SequenceConfig};
use tigris::map::{Mapper, MapperConfig};
use tigris::obs;
use tigris::serve::shard::{EpochPublisher, ShardConfig, ShardService};

fn main() {
    // Tracing covers the whole run: the mapper's insert/closure/optimize
    // spans, then every serve request's tree.
    obs::set_enabled(true);

    // ---- Write side: one mapper builds the map, traced -----------------
    let mut cfg = SequenceConfig::loop_circuit(60.0, 6);
    cfg.lidar = LidarConfig::tiny();
    println!("generating a {}-frame closed-circuit sequence (60 m ring)...", cfg.frames);
    let seq = Sequence::generate(&cfg, 7);

    println!("building the map with tracing on...");
    let mut mapper = Mapper::new(MapperConfig::serving());
    for i in 0..seq.len() {
        mapper.push(seq.frame(i)).expect("mapping frame failed");
    }
    let map_stats = mapper.stats();
    let map_registry = Arc::clone(mapper.registry());
    println!(
        "  {} frames mapped, {} closures accepted, {} optimizations",
        map_stats.frames, map_stats.closures_accepted, map_stats.optimizations
    );

    // ---- Read side: four sessions, each one request tree ---------------
    let epoch = EpochPublisher::new().publish(&mapper).expect("publish failed");
    let service = ShardService::with_epoch(epoch, ShardConfig::default());
    let scripts: Vec<Vec<usize>> =
        vec![vec![2, 3, 4], vec![58, 59, 60], vec![61, 62], vec![63, 64]];
    std::thread::scope(|scope| {
        for (id, script) in scripts.iter().enumerate() {
            let service = &service;
            let seq = &seq;
            scope.spawn(move || {
                let mut session = service.open_session().expect("admission");
                for &frame in script {
                    let step = session.localize(seq.frame(frame)).expect("localization failed");
                    println!("session {id}: frame {frame} → {}", step.pose.translation);
                }
            });
        }
    });

    // ---- Export: spans to Perfetto, metrics to stderr ------------------
    let trace = obs::drain();
    let path = "tigris-trace.json";
    let mut file = std::fs::File::create(path).expect("creating the trace file failed");
    obs::export::write_chrome_trace(&mut file, &trace).expect("writing the trace failed");
    println!(
        "\n{} records ({} dropped) written to {path} — load it at https://ui.perfetto.dev",
        trace.records.len(),
        trace.dropped
    );

    // The summary exporter renders span totals plus any registry: here
    // the serving service's (latency histogram, session/frame counters)
    // and the mapper's (frame/closure/optimization counters).
    eprintln!("{}", obs::export::summary(&trace, Some(service.registry())));
    eprintln!("{}", obs::export::summary(&obs::Trace::default(), Some(&map_registry)));
}
