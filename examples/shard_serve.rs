//! Serving with epoch hot-swap: a live mapper publishes
//! copy-on-write map epochs while sessions localize against submap
//! indexes that load on demand under a byte budget.
//!
//! The flow demonstrated here is the shard layer's whole story:
//!
//! 1. a mapper builds a map and **publishes epoch 1** — an immutable,
//!    versioned snapshot sharing unchanged submap payloads by `Arc`;
//! 2. a [`ShardService`] serves it: a map probe searches only the
//!    submaps whose own bounds it reaches, and each submap's index is
//!    rebuilt on first touch and evicts LRU under `tile_budget_bytes`;
//! 3. the mapper keeps mapping and publishes **epoch 2**; the service
//!    hot-swaps it in — sessions already open keep draining on their
//!    pinned epoch 1, new sessions pin epoch 2, submaps epoch 2 shares
//!    keep their indexes, and the indexes of epoch 1's superseded
//!    payloads drop once its last session closes.
//!
//! Run with:
//! ```text
//! cargo run --release --example shard_serve
//! ```

use std::sync::Arc;

use tigris::data::{LidarConfig, Sequence, SequenceConfig};
use tigris::map::{Mapper, MapperConfig};
use tigris::serve::shard::{EpochPublisher, ShardConfig, ShardService};
use tigris::serve::StepKind;

fn main() {
    // ---- Write side: a live mapper, still mapping ----------------------
    let mut cfg = SequenceConfig::loop_circuit(60.0, 6);
    cfg.lidar = LidarConfig::tiny();
    println!("generating a {}-frame closed-circuit sequence (60 m ring)...", cfg.frames);
    let seq = Sequence::generate(&cfg, 7);

    let held_back = 3;
    println!("building the map (holding back the last {held_back} frames)...");
    let mut mapper = Mapper::new(MapperConfig::serving());
    for i in 0..seq.len() - held_back {
        mapper.push(seq.frame(i)).expect("mapping frame failed");
    }

    // ---- Publish epoch 1 and serve it ---------------------------------
    let mut publisher = EpochPublisher::new();
    let epoch1 = publisher.publish(&mapper).expect("publish failed");
    println!(
        "epoch 1: {} submaps, {} points, ~{} KiB archived",
        epoch1.payloads().len(),
        epoch1.total_points(),
        epoch1.archive_bytes() / 1024
    );

    // A deliberately tight index budget: submap indexes load on demand
    // and evict LRU, so resident index bytes stay bounded while answers stay
    // bit-identical to `Mapper::query` on the published map.
    let config = ShardConfig { tile_budget_bytes: 2 << 20, ..ShardConfig::default() };
    let service = ShardService::with_epoch(Arc::clone(&epoch1), config);

    let mut session_a = service.open_session().expect("admission");
    let step = session_a.localize(seq.frame(2)).expect("cold start");
    if let StepKind::Relocalized(r) = &step.kind {
        println!(
            "session A: cold-started on epoch {} at {} (submap {}, confidence {:.2})",
            session_a.epoch_version(),
            step.pose.translation,
            r.submap,
            r.confidence
        );
    }

    // ---- The mapper moves on; epoch 2 hot-swaps in ---------------------
    for i in seq.len() - held_back..seq.len() {
        mapper.push(seq.frame(i)).expect("mapping frame failed");
    }
    let epoch2 = publisher.publish(&mapper).expect("publish failed");
    println!(
        "epoch 2: {} payloads shared with epoch 1, {} re-archived (copy-on-write)",
        publisher.payloads_shared(),
        publisher.payloads_copied()
    );
    service.install_epoch(epoch2);
    drop(epoch1); // only session A holds epoch 1 now

    // Session A drains on its pinned epoch; a new session pins epoch 2.
    let step = session_a.localize(seq.frame(3)).expect("tracking");
    println!(
        "session A: still epoch {}, tracked to {}",
        session_a.epoch_version(),
        step.pose.translation
    );
    let mut session_b = service.open_session().expect("admission");
    session_b.localize(seq.frame(2)).expect("cold start");
    println!("session B: cold-started on epoch {}", session_b.epoch_version());

    // Closing epoch 1's last session drops the indexes of the payloads
    // only epoch 1 held; the ones epoch 2 shares stay resident.
    drop(session_a);
    let stats = service.stats();
    println!(
        "indexes: {} loads, {} hits, {} evictions; {} resident in {} KiB (peak {} KiB)",
        stats.tiles.loads,
        stats.tiles.hits,
        stats.tiles.evictions,
        stats.tiles.resident_tiles,
        stats.tiles.resident_bytes / 1024,
        stats.tiles.peak_resident_bytes / 1024
    );
    println!(
        "served {} frames, {} relocalizations, p99 {:?}",
        stats.frames, stats.relocalizations_succeeded, stats.latency.p99
    );
}
