//! Release-scale acceptance for sharded serving: on a 10× map, each
//! submap's own bounds gate must make map reads genuinely selective and
//! answer exactly like `Mapper::query`, concurrent sessions under an
//! index budget far below the whole map must localize bit-identically
//! to an unbounded whole-map service, every accepted cold start must
//! report the structure overlap the live mapper's own submap gives, an
//! epoch hot-swap mid-stream must drop no session and diverge no pose,
//! and peak resident bytes must stay bounded below the
//! everything-resident baseline. Run explicitly:
//!
//! ```text
//! cargo test -p tigris-bench --release --test shard_bounds -- --ignored --nocapture
//! ```

use std::sync::{Arc, Barrier};

use tigris_bench::shard::{fixture_config, trajectory_probes, PROBE_RADIUS};
use tigris_data::Sequence;
use tigris_map::retrieval::structure_overlap_batched;
use tigris_map::{Mapper, MapperConfig};
use tigris_pipeline::prepare_frame;
use tigris_serve::shard::{EpochPublisher, ShardConfig, ShardService};
use tigris_serve::{ServeConfig, SessionStep, StepKind};

/// The 10× floor the acceptance criteria name: a 600 m circuit vs. the
/// 60 m serving fixture.
const SCALE: usize = 10;

/// Concurrent localization sessions served under the index budget.
const SESSIONS: usize = 4;

/// Frames held back from the first publish, mapped afterwards to make
/// the hot-swapped epoch a genuine content change.
const EPOCH2_FRAMES: usize = 3;

/// Frames each session localizes: one cold start, then tracking.
const SCRIPT_LEN: usize = 3;

/// Cold-start frames spread around the circuit, proven to verify on
/// this fixture (drifted stretches of the 600 m map reject their own
/// queries at the verification gates, as they should).
const COLD_STARTS: [usize; SESSIONS] = [2, 151, 250, 449];

fn session_scripts() -> Vec<Vec<usize>> {
    COLD_STARTS.iter().map(|&start| (start..start + SCRIPT_LEN).collect()).collect()
}

fn run_scripts_sequentially(
    service: &ShardService,
    seq: &Sequence,
    scripts: &[Vec<usize>],
) -> Vec<Vec<SessionStep>> {
    scripts
        .iter()
        .map(|script| {
            let mut session = service.open_session().expect("reference admission");
            script
                .iter()
                .map(|&f| session.localize(seq.frame(f)).expect("reference localize"))
                .collect()
        })
        .collect()
}

#[test]
#[ignore = "release-scale acceptance benchmark; run with --ignored"]
fn sharded_serving_is_selective_bounded_and_swap_safe_at_scale() {
    let seq = Sequence::generate(&fixture_config(SCALE), 7);
    let prefix = seq.len() - EPOCH2_FRAMES;

    // The live mapper: publish epoch 1 mid-stream, keep mapping,
    // publish epoch 2 copy-on-write.
    let mut live = Mapper::new(MapperConfig::serving());
    for i in 0..prefix {
        live.push(seq.frame(i)).expect("mapping frame failed");
    }
    let mut publisher = EpochPublisher::new();
    let epoch1 = publisher.publish(&live).expect("epoch 1 publish");
    for i in prefix..seq.len() {
        live.push(seq.frame(i)).expect("mapping frame failed");
    }
    let shared_before = publisher.payloads_shared();
    let copied_before = publisher.payloads_copied();
    let epoch2 = publisher.publish(&live).expect("epoch 2 publish");
    let shared = publisher.payloads_shared() - shared_before;
    let copied = publisher.payloads_copied() - copied_before;
    assert!(
        shared > copied,
        "CoW re-publish must share most submaps at scale ({shared} shared, {copied} copied)"
    );
    drop(live);

    // The oracle: an identical prefix build, kept live (never served)
    // and published on its own for the whole-map service.
    let mut oracle = Mapper::new(MapperConfig::serving());
    let oracle_seq = Sequence::generate(&fixture_config(SCALE), 7);
    for i in 0..prefix {
        oracle.push(oracle_seq.frame(i)).expect("mapping frame failed");
    }
    let whole_map_bytes: usize = oracle.submaps().iter().map(|s| s.memory_bytes()).sum();
    let poses = oracle.poses().to_vec();
    let oracle_epoch = EpochPublisher::new().publish(&oracle).expect("oracle publish");
    assert_eq!(oracle_epoch.total_points(), epoch1.total_points(), "prefix builds must agree");

    // Selectivity: at this scale the map outgrows the scanner, so each
    // probe's read must look up only a strict subset of the submap
    // indexes (a lookup is a residency hit or miss).
    let submaps = epoch1.payloads().iter().filter(|p| !p.is_empty()).count();
    let probes = trajectory_probes(&poses, 3);
    let counter = ShardService::with_epoch(Arc::clone(&epoch1), ShardConfig::default());
    let lookups = || {
        let tiles = counter.stats().tiles;
        tiles.hits + tiles.misses
    };
    let per_probe: Vec<usize> = probes
        .iter()
        .map(|&p| {
            let before = lookups();
            counter.query(p, PROBE_RADIUS).expect("installed");
            lookups() - before
        })
        .collect();
    assert!(submaps >= 10, "the 10x map must hold many submaps, got {submaps}");
    assert!(
        per_probe.iter().all(|&n| n < submaps),
        "every on-trajectory probe must look up fewer than {submaps} submap indexes"
    );
    let mean_fraction = per_probe.iter().sum::<usize>() as f64 / (per_probe.len() * submaps) as f64;
    eprintln!("gating: {submaps} submaps, mean lookup fraction {mean_fraction:.3}");
    assert!(mean_fraction < 0.8, "the submap gates must exclude a real share of the map");

    // The budgeted service: a quarter of the everything-resident
    // baseline.
    let budget = whole_map_bytes / 4;
    let config = ShardConfig {
        serve: ServeConfig { max_sessions: SESSIONS + 1, ..ServeConfig::default() },
        tile_budget_bytes: budget,
    };
    let service = ShardService::with_epoch(Arc::clone(&epoch1), config);

    // Served answers under the budget are bit-identical to the live
    // mapper's own queries.
    let served = service.query_batch(&probes, PROBE_RADIUS).expect("served batch");
    for (i, (&p, got)) in probes.iter().zip(&served).enumerate() {
        assert_eq!(
            got,
            &oracle.query(p, PROBE_RADIUS),
            "probe {i}: budgeted served read diverged from Mapper::query"
        );
    }

    // The reference pose streams: the same scripts served one session
    // at a time by the unbounded whole-map service over the oracle's own
    // epoch, which never swaps.
    let scripts = session_scripts();
    let whole_service = ShardService::with_epoch(oracle_epoch, ShardConfig::default());
    let whole = run_scripts_sequentially(&whole_service, &seq, &scripts);
    assert_eq!(whole_service.stats().tiles.evictions, 0, "the whole-map service never evicts");

    // The swap run: four threads localize concurrently under the
    // budget; between their first and second frames the main thread
    // hot-swaps in epoch 2. Every session must finish on its pinned
    // epoch with the reference's exact poses — zero drops, zero
    // divergence.
    let barrier = Barrier::new(SESSIONS + 1);
    let swapped: Vec<Vec<SessionStep>> = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                let service = &service;
                let seq = &seq;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut session = service.open_session().expect("swap-run admission");
                    assert_eq!(session.epoch_version(), 1);
                    let mut steps = Vec::with_capacity(script.len());
                    steps.push(session.localize(seq.frame(script[0])).expect("cold start"));
                    barrier.wait(); // all sessions live, first frame done
                    barrier.wait(); // main thread has installed epoch 2
                    for &f in &script[1..] {
                        steps.push(session.localize(seq.frame(f)).expect("post-swap localize"));
                    }
                    assert_eq!(session.epoch_version(), 1, "sessions drain on their pinned epoch");
                    steps
                })
            })
            .collect();
        barrier.wait();
        service.install_epoch(Arc::clone(&epoch2));
        assert_eq!(service.current_epoch().expect("current").version(), 2);
        barrier.wait();
        handles.into_iter().map(|h| h.join().expect("no session thread may die")).collect()
    });

    // Zero pose divergence: the concurrent, budgeted, hot-swapped run
    // vs. the sequential, unbounded, never-swapped reference.
    for (s, (got, want)) in swapped.iter().zip(&whole).enumerate() {
        for (f, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(
                a.pose.translation == b.pose.translation && a.pose.rotation == b.pose.rotation,
                "session {s} frame {f}: budgeted, hot-swapped pose diverged from the whole-map service"
            );
        }
    }

    // Every accepted cold start reports exactly the structure overlap
    // the oracle's live submap index gives for the same evidence.
    let registration = &oracle.config().registration;
    for (script, steps) in scripts.iter().zip(&swapped) {
        for (&f, step) in script.iter().zip(steps) {
            let StepKind::Relocalized(reloc) = step.kind else { continue };
            let prepared = prepare_frame(seq.frame(f), registration).expect("prepare");
            let live = structure_overlap_batched(
                prepared.points(),
                &reloc.relative,
                &oracle.submaps()[reloc.submap],
                &registration.parallel,
            );
            assert_eq!(
                live.to_bits(),
                reloc.structure_overlap.to_bits(),
                "frame {f}: served structure overlap diverged from the live submap's"
            );
        }
    }

    // New sessions pin the swapped-in epoch; the bounded-residency
    // claim holds over the whole run.
    let mut post = service.open_session().expect("post-swap admission");
    assert_eq!(post.epoch_version(), 2);
    post.localize(seq.frame(2)).expect("cold start on epoch 2");
    drop(post);

    let stats = service.stats();
    eprintln!(
        "budget {budget} B of {whole_map_bytes} B whole-map: peak {} B, {} loads, {} evictions, {} hits",
        stats.tiles.peak_resident_bytes, stats.tiles.loads, stats.tiles.evictions, stats.tiles.hits
    );
    assert_eq!(stats.frames, SESSIONS * SCRIPT_LEN + 1);
    assert_eq!(stats.sessions_admitted, SESSIONS + 1);
    assert_eq!(stats.sessions_active, 0, "every session released its slot");
    assert!(stats.tiles.loads > 0 && stats.tiles.hits > 0);
    assert!(
        stats.tiles.peak_resident_bytes < whole_map_bytes / 2,
        "peak residency {} must stay well below the everything-resident baseline {}",
        stats.tiles.peak_resident_bytes,
        whole_map_bytes
    );
    // At rest the budget holds, unless the one index resident is
    // itself larger than the budget (the index just fetched is never
    // evicted by its own fetch).
    let end = service.stats().tiles;
    assert!(
        end.resident_bytes <= budget || end.resident_tiles == 1,
        "the budget must hold at rest ({} B resident over {budget} B in {} indexes, not one)",
        end.resident_bytes,
        end.resident_tiles
    );
}
