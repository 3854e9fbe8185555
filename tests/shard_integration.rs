//! Serving acceptance: a map built by the `Mapper` is published as
//! copy-on-write epochs and served through per-submap bounds gates,
//! lazy index residency and versioned epoch hot-swap to several
//! concurrent localization sessions.
//!
//! What must hold:
//!
//! * every cold-start relocalization in the drift-corrected region lands
//!   within **1.0 m / 5° of ground truth** (and a held-out query frame —
//!   same scene, novel pose, fresh sensor noise — does too);
//! * cold starts *anywhere* on the map are **map-consistent**: within
//!   1.0 m / 5° of the map's own pose for that place (a localization
//!   service cannot beat its map's residual drift, and must not add to
//!   it), and every accepted cold start reports exactly the structure
//!   overlap the live mapper's own submap index gives for the same
//!   evidence;
//! * epoch publishing is **copy-on-write at submap granularity**: a
//!   re-publish after more mapping shares every unchanged submap's
//!   payload by `Arc` and re-archives only changed ones;
//! * served map queries (serial and batched) are **bit-identical** to
//!   `Mapper::query` on the mapper the epoch was published from, and a
//!   probe no submap's bounds reach looks up no index;
//! * results are **bit-identical** no matter how many sessions share an
//!   epoch or how requests interleave, and a session under an index byte
//!   budget produces the pose stream of an unbounded whole-map service;
//! * the index byte budget **bounds resident rebuilt-index bytes**, with
//!   eviction churn visible in the stats and no effect on results;
//! * an epoch hot-swap mid-stream **drops no session and diverges no
//!   pose**: in-flight sessions drain on their pinned epoch, new
//!   sessions pin the new one, a payload the new epoch shares keeps its
//!   rebuilt index, and an index whose payload no live epoch holds is
//!   dropped when the last session pinning it closes;
//! * a publish **rebuilds only what it copied**: a whole-map read after
//!   an install builds no more indexes than the publish archived;
//! * admission control rejects typed beyond the session/in-flight
//!   budgets, slots come back on abnormal teardown, and failures are
//!   typed and recoverable.
//!
//! The release-scale version of the sharding scenario (a ≥10× map, 4
//! threads, budget far below the map) lives in
//! `crates/bench/tests/shard_bounds.rs`.

use std::sync::{Arc, OnceLock};

use tigris::data::{LidarConfig, Sequence, SequenceConfig};
use tigris::geom::{PointCloud, RigidTransform, Vec3};
use tigris::map::retrieval::structure_overlap_batched;
use tigris::map::{Mapper, MapperConfig};
use tigris::serve::shard::{
    EpochPublisher, ShardConfig, ShardService, SnapshotEpoch, SubmapPayload,
};
use tigris::serve::{Relocalization, ServeConfig, ServeError, SessionPhase, SessionStep, StepKind};

/// The serving fixture: a ~66-frame, 60 m closed circuit at the
/// low-resolution scanner (the mapping fixture of
/// `mapping_integration.rs`), small enough for debug-mode CI.
fn fixture_config() -> SequenceConfig {
    let mut cfg = SequenceConfig::loop_circuit(60.0, 6);
    cfg.lidar = LidarConfig::tiny();
    cfg
}

/// Frames held back from the first publish, mapped afterwards to make
/// epoch 2 a genuine content change.
const EPOCH2_FRAMES: usize = 3;

/// One map build, published twice, shared by every test in this file.
struct Fixture {
    seq: Sequence,
    /// The mapper after every frame: the oracle for epoch 2, never
    /// served (`Mapper::query`, live submap indices).
    mapper: Mapper,
    /// Epoch 1: published from the mapper after all but the last
    /// [`EPOCH2_FRAMES`] frames.
    epoch1: Arc<SnapshotEpoch>,
    /// Epoch 2: published after mapping the remaining frames — the full
    /// map, content-identical to `mapper`.
    epoch2: Arc<SnapshotEpoch>,
    /// Payloads shared / copied by the epoch-2 publish.
    epoch2_shared: usize,
    epoch2_copied: usize,
    /// Rebuilt-index bytes of the whole map — the "everything resident"
    /// baseline index budgets are set against.
    whole_map_bytes: usize,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let seq = Sequence::generate(&fixture_config(), 7);
        let prefix = seq.len() - EPOCH2_FRAMES;

        // The serving profile: submap anchors (= stored keyframes, the
        // verification targets) every 6 m, dense loop closures. Publish
        // epoch 1 mid-stream, keep mapping, publish epoch 2.
        let mut mapper = Mapper::new(MapperConfig::serving());
        for i in 0..prefix {
            mapper.push(seq.frame(i)).unwrap_or_else(|e| panic!("map frame {i} failed: {e}"));
        }
        assert!(
            mapper.stats().closures_accepted >= 1,
            "the prefix map must already close its loop ({} attempted)",
            mapper.stats().closures_attempted
        );
        let mut publisher = EpochPublisher::new();
        let epoch1 = publisher.publish(&mapper).expect("epoch 1 publish");
        for i in prefix..seq.len() {
            mapper.push(seq.frame(i)).unwrap_or_else(|e| panic!("map frame {i} failed: {e}"));
        }
        let shared_before = publisher.payloads_shared();
        let copied_before = publisher.payloads_copied();
        let epoch2 = publisher.publish(&mapper).expect("epoch 2 publish");
        let whole_map_bytes = mapper.submaps().iter().map(|s| s.memory_bytes()).sum();

        Fixture {
            seq,
            mapper,
            epoch1,
            epoch2,
            epoch2_shared: publisher.payloads_shared() - shared_before,
            epoch2_copied: publisher.payloads_copied() - copied_before,
            whole_map_bytes,
        }
    })
}

/// Map probes along the mapped trajectory, dropped to just below the
/// scanner mount.
fn probes(fx: &Fixture) -> Vec<Vec3> {
    fx.mapper.poses().iter().step_by(5).map(|p| p.translation + Vec3::new(0.0, 0.0, -1.0)).collect()
}

/// The 3×3 ground grid of probes 1.5 m apart around a pose, just below
/// the scanner mount: reading it around every map pose reads the whole
/// map.
fn probes_around(pose: &RigidTransform) -> Vec<Vec3> {
    let offsets = [-1.5, 0.0, 1.5];
    offsets.iter().flat_map(|&dx| offsets.map(|dy| pose.apply(Vec3::new(dx, dy, -1.0)))).collect()
}

/// The payloads whose own local-bounds gate admits the query sphere:
/// the indexes a served read of it fetches.
fn gated(epoch: &SnapshotEpoch, point: Vec3, radius: f64) -> Vec<*const SubmapPayload> {
    epoch
        .payloads()
        .iter()
        .filter(|payload| {
            let local = epoch.anchor_pose(payload.id()).inverse().apply(point);
            payload.local_bounds().is_some_and(|b| b.intersects_sphere(local, radius))
        })
        .map(Arc::as_ptr)
        .collect()
}

fn pose_errors(reference: &RigidTransform, est: &RigidTransform) -> (f64, f64) {
    let delta = reference.inverse() * *est;
    (delta.translation_norm(), delta.rotation_angle().to_degrees())
}

fn assert_same_pose(a: &SessionStep, b: &SessionStep, what: &str) {
    assert_eq!(a.frame, b.frame);
    assert_eq!(a.pose.translation, b.pose.translation, "frame {}: {what}", a.frame);
    assert_eq!(a.pose.rotation, b.pose.rotation, "frame {}: {what} (rotation)", a.frame);
}

/// Asserts a cold start served from epoch 2 reports exactly the
/// structure overlap the live mapper's own submap index gives for the
/// same evidence — the served submap index was rebuilt from an archive,
/// the oracle's is the one the mapper built incrementally.
fn assert_overlap_matches_live_submap(fx: &Fixture, frame: &PointCloud, reloc: &Relocalization) {
    let registration = &fx.mapper.config().registration;
    let prepared = tigris::pipeline::prepare_frame(frame, registration).expect("prepare");
    let live = structure_overlap_batched(
        prepared.points(),
        &reloc.relative,
        &fx.mapper.submaps()[reloc.submap],
    );
    assert_eq!(
        live.to_bits(),
        reloc.structure_overlap.to_bits(),
        "served structure overlap {} diverged from the live submap's {live}",
        reloc.structure_overlap
    );
}

/// Tracked frames following each script's cold start.
const TRACK_STEPS: usize = 2;

/// Session scripts in the drift-corrected region (the loop seam, where
/// the closures pinned the map to ground truth): each session
/// cold-starts on its first frame, then tracks the following ones.
fn session_scripts() -> Vec<Vec<usize>> {
    [2usize, 58, 61, 63].iter().map(|&start| (start..=start + TRACK_STEPS).collect()).collect()
}

/// Runs each script in its own session of `service`, `workers` scripts
/// concurrently (each worker thread drives its share of the scripts one
/// session at a time), returning per-script steps. With `workers == 1`
/// this is fully serial serving of the same requests — the bit-identity
/// baseline.
fn run_sessions(
    service: &ShardService,
    seq: &Sequence,
    scripts: &[Vec<usize>],
    workers: usize,
) -> Vec<Vec<SessionStep>> {
    let mut results: Vec<Vec<SessionStep>> = vec![Vec::new(); scripts.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..workers {
            let scripts_for_worker: Vec<(usize, &Vec<usize>)> =
                scripts.iter().enumerate().filter(|(i, _)| i % workers == worker).collect();
            handles.push(scope.spawn(move || {
                let mut out: Vec<(usize, Vec<SessionStep>)> = Vec::new();
                for (script_id, script) in scripts_for_worker {
                    let mut session = service.open_session().expect("session admission");
                    let steps = script
                        .iter()
                        .map(|&frame| {
                            session
                                .localize(seq.frame(frame))
                                .unwrap_or_else(|e| panic!("frame {frame} failed: {e}"))
                        })
                        .collect();
                    out.push((script_id, steps));
                }
                out
            }));
        }
        for handle in handles {
            for (script_id, steps) in handle.join().expect("session thread panicked") {
                results[script_id] = steps;
            }
        }
    });
    results
}

#[test]
fn frozen_map_serves_concurrent_sessions_within_tolerance() {
    let fx = fixture();
    let scripts = session_scripts();
    assert!(fx.epoch2.verifiable_submaps() >= 2);

    // Serve the same scripts with 1 worker and with 4 concurrent ones.
    let serial = ShardService::with_epoch(Arc::clone(&fx.epoch2), ShardConfig::default());
    let serial_steps = run_sessions(&serial, &fx.seq, &scripts, 1);
    let service = ShardService::with_epoch(Arc::clone(&fx.epoch2), ShardConfig::default());
    let concurrent_steps = run_sessions(&service, &fx.seq, &scripts, 4);

    for (script, steps) in scripts.iter().zip(&concurrent_steps) {
        assert_eq!(steps.len(), script.len());
        // First step of each script is a cold start; the rest track.
        for (k, (&frame, step)) in script.iter().zip(steps).enumerate() {
            let (t_err, r_err) = pose_errors(fx.seq.pose(frame), &step.pose);
            let kind = match step.kind {
                StepKind::Relocalized(r) => {
                    assert!(r.confidence > 0.0 && r.confidence < 1.0);
                    assert!(r.inliers >= ServeConfig::default().reloc.min_inliers);
                    assert!(
                        r.structure_overlap >= ServeConfig::default().reloc.min_structure_overlap
                    );
                    assert_overlap_matches_live_submap(fx, fx.seq.frame(frame), &r);
                    "reloc"
                }
                StepKind::Tracked { .. } => "track",
            };
            eprintln!("frame {frame} ({kind}): err {t_err:.3} m / {r_err:.2} deg");
            if k == 0 {
                assert!(
                    matches!(step.kind, StepKind::Relocalized(_)),
                    "script head must cold-start"
                );
                // The acceptance bound: cold starts within 1 m / 5 deg
                // of ground truth.
                assert!(t_err <= 1.0, "frame {frame} cold start {t_err:.3} m off");
                assert!(r_err <= 5.0, "frame {frame} cold start {r_err:.2} deg off");
            } else {
                assert!(matches!(step.kind, StepKind::Tracked { .. }), "script tail must track");
                assert!(t_err <= 1.5, "frame {frame} tracked {t_err:.3} m off");
            }
        }
    }

    // Bit-identical across session counts: same scripts, same answers.
    for (a, b) in serial_steps.iter().flatten().zip(concurrent_steps.iter().flatten()) {
        assert_same_pose(a, b, "poses must be bit-identical across worker counts");
    }

    // Service-wide accounting.
    let stats = service.stats();
    eprintln!("{stats:?}");
    assert_eq!(stats.sessions_admitted, scripts.len());
    assert_eq!(stats.sessions_active, 0, "sessions release their slots on drop");
    assert_eq!(stats.frames, scripts.iter().map(Vec::len).sum::<usize>());
    assert_eq!(stats.relocalizations_succeeded, scripts.len());
    assert_eq!(stats.frames_tracked, scripts.len() * TRACK_STEPS);
    assert_eq!(stats.latency.count, stats.frames);
    assert!(stats.latency.p50 > std::time::Duration::ZERO);
    assert!(stats.latency.p99 >= stats.latency.p50);
}

#[test]
fn held_out_queries_relocalize_within_tolerance() {
    let fx = fixture();
    // Novel poses near the corrected region: the mapped pose nudged
    // sideways and in heading, scanned with a fresh noise stream — a
    // query the map has never seen, with exact ground truth.
    let nudge =
        RigidTransform::from_axis_angle(Vec3::Z, 3.0_f64.to_radians(), Vec3::new(0.25, -0.2, 0.0));
    let poses: Vec<RigidTransform> =
        [3usize, 60].iter().map(|&i| *fx.seq.pose(i) * nudge).collect();
    let queries = Sequence::scan_at(&fixture_config(), 7, &poses);

    let service = ShardService::with_epoch(Arc::clone(&fx.epoch2), ShardConfig::default());
    for i in 0..queries.len() {
        let mut session = service.open_session().unwrap();
        let step = session
            .localize(queries.frame(i))
            .unwrap_or_else(|e| panic!("held-out query {i} failed: {e}"));
        let StepKind::Relocalized(reloc) = step.kind else {
            panic!("held-out query {i} must cold-start");
        };
        assert_overlap_matches_live_submap(fx, queries.frame(i), &reloc);
        let (t_err, r_err) = pose_errors(queries.pose(i), &step.pose);
        eprintln!("held-out query {i}: err {t_err:.3} m / {r_err:.2} deg");
        assert!(t_err <= 1.0, "held-out query {i}: {t_err:.3} m off");
        assert!(r_err <= 5.0, "held-out query {i}: {r_err:.2} deg off");
    }
}

#[test]
fn mid_loop_cold_starts_are_map_consistent() {
    let fx = fixture();
    // Queries right next to mid-loop keyframes, where the map still
    // carries meters of residual odometry drift relative to ground
    // truth. A localization service cannot beat its map — but it must
    // agree with it: the relocalized pose must match the map's own pose
    // chain for that frame to within the verification tolerance.
    let service = ShardService::with_epoch(Arc::clone(&fx.epoch2), ShardConfig::default());
    let mut verified = 0usize;
    for submap in fx.mapper.submaps() {
        let query_frame = submap.anchor_frame() + 1;
        if query_frame >= fx.seq.len() {
            continue;
        }
        // A fresh session per query: its first frame is a cold start.
        let mut session = service.open_session().expect("session admission");
        let Ok(step) = session.localize(fx.seq.frame(query_frame)) else {
            // Not every mid-loop frame must relocalize (retrieval is
            // single-frame); the ones that do must be map-consistent.
            continue;
        };
        let StepKind::Relocalized(reloc) = step.kind else {
            panic!("a fresh session's first frame must cold-start");
        };
        assert_overlap_matches_live_submap(fx, fx.seq.frame(query_frame), &reloc);
        let map_pose = fx.mapper.poses()[query_frame];
        let (t_err, r_err) = pose_errors(&map_pose, &reloc.pose);
        eprintln!(
            "frame {query_frame} via submap {}: map-relative err {t_err:.3} m / {r_err:.2} deg",
            reloc.submap
        );
        assert!(t_err <= 1.0, "frame {query_frame}: {t_err:.3} m from the map's own pose");
        assert!(r_err <= 5.0, "frame {query_frame}: {r_err:.2} deg from the map's own pose");
        verified += 1;
    }
    assert!(verified >= 3, "only {verified} mid-loop cold starts verified");
}

#[test]
fn epoch_publish_is_copy_on_write_at_submap_granularity() {
    let fx = fixture();
    assert_eq!(fx.epoch1.version(), 1);
    assert_eq!(fx.epoch2.version(), 2);
    assert!(fx.epoch2.payloads().len() >= fx.epoch1.payloads().len());
    assert!(fx.epoch2.total_points() > fx.epoch1.total_points());

    // Every payload of epoch 2 whose submap content did not move is the
    // *same allocation* as epoch 1's; only touched submaps re-archive.
    let shared_ptrs = fx
        .epoch1
        .payloads()
        .iter()
        .zip(fx.epoch2.payloads())
        .filter(|(a, b)| Arc::ptr_eq(a, b))
        .count();
    assert_eq!(shared_ptrs, fx.epoch2_shared, "publisher counters must match reality");
    assert!(
        fx.epoch2_shared > fx.epoch2_copied,
        "{} shared vs {} copied: a few trailing frames must not re-archive the whole map",
        fx.epoch2_shared,
        fx.epoch2_copied
    );
    // Shared payloads still verify against the very same keyframe locks.
    for (a, b) in fx.epoch1.payloads().iter().zip(fx.epoch2.payloads()) {
        if Arc::ptr_eq(a, b) {
            assert_eq!(a.revision(), b.revision());
        }
    }
}

#[test]
fn snapshot_queries_match_the_mapper_and_batch_bitwise() {
    let fx = fixture();
    // Zero-loss publish: every mapped point is served.
    assert_eq!(fx.epoch2.total_points(), fx.mapper.total_points());

    // The whole-map service answers map queries exactly like the live
    // mapper…
    let service = ShardService::with_epoch(Arc::clone(&fx.epoch2), ShardConfig::default());
    let probes = probes(fx);
    let expected: Vec<_> = probes.iter().map(|&p| fx.mapper.query(p, 2.0)).collect();
    for (&p, want) in probes.iter().zip(&expected) {
        assert_eq!(&service.query(p, 2.0).unwrap(), want, "epoch disagrees with mapper at {p}");
    }

    // …and the batched path answers exactly like the serial one.
    let batched = service.query_batch(&probes, 2.0).unwrap();
    assert_eq!(batched, expected, "batched map query diverged");
}

#[test]
fn radius_without_interior_answers_empty_on_every_read_path() {
    // A negative or NaN radius passes the `d² <= r²` bounds gates for a
    // probe on the map; every read path must answer it empty rather than
    // reach the index's non-negative-radius assertion. A probe with a
    // NaN or infinite coordinate has no sphere either: it is answered
    // empty on every path, the serial and batched submap gates alike.
    let fx = fixture();
    let service = ShardService::with_epoch(Arc::clone(&fx.epoch2), ShardConfig::default());
    let session = service.open_session().unwrap();
    let on_map = fx.mapper.submaps()[0].world_points()[0];
    assert!(!fx.mapper.query(on_map, 1.0).is_empty(), "the probe must sit on mapped points");
    let cases = [
        (on_map, -1.0),
        (on_map, f64::NAN),
        (Vec3::new(f64::INFINITY, 0.0, 0.0), 1.0e300),
        (Vec3::new(on_map.x, f64::NEG_INFINITY, on_map.z), 1.0e300),
        (Vec3::new(on_map.x, on_map.y, f64::NAN), 1.0),
    ];
    for (probe, radius) in cases {
        let at = format!("probe {probe}, r={radius}");
        assert!(fx.mapper.query(probe, radius).is_empty(), "Mapper::query at {at}");
        assert!(service.query(probe, radius).unwrap().is_empty(), "service query at {at}");
        assert!(session.query(probe, radius).is_empty(), "session query at {at}");
        let probes = [probe, probe];
        for batch in
            [service.query_batch(&probes, radius).unwrap(), session.query_batch(&probes, radius)]
        {
            assert_eq!(batch.len(), probes.len());
            assert!(batch.iter().all(Vec::is_empty), "batched query at {at}");
        }
    }
    // In a mixed batch the non-finite probe answers empty alone.
    let mixed = [on_map, Vec3::new(f64::NAN, 0.0, 0.0)];
    for batch in [service.query_batch(&mixed, 1.0).unwrap(), session.query_batch(&mixed, 1.0)] {
        assert_eq!(batch[0], fx.mapper.query(on_map, 1.0), "the finite probe of a mixed batch");
        assert!(batch[1].is_empty(), "the NaN probe of a mixed batch");
    }
}

#[test]
fn tile_routed_queries_match_the_whole_snapshot_bitwise() {
    let fx = fixture();
    let service = ShardService::with_epoch(Arc::clone(&fx.epoch2), ShardConfig::default());
    let probes = probes(fx);

    // At this fixture's scale the scanner out-ranges the whole circuit,
    // so most submaps' bounds overlap most on-map probes; *selectivity*
    // (probes looking up a strict subset of the submap indexes) is
    // asserted on the 10× map in `crates/bench/tests/shard_bounds.rs`,
    // where the map finally outgrows the sensor. Here each submap's gate
    // must still exclude what it can: an off-map probe does no index
    // lookup.
    let far = Vec3::new(1.0e3, 1.0e3, 0.0);
    let lookups = |s: &ShardService| {
        let tiles = s.stats().tiles;
        tiles.hits + tiles.misses
    };
    let before = lookups(&service);
    assert!(service.query(far, 1.0).unwrap().is_empty());
    assert_eq!(lookups(&service), before, "an off-map probe must do no index lookup");
    assert!(fx.mapper.query(far, 1.0).is_empty());

    for &p in &probes {
        let expected = fx.mapper.query(p, 2.0);
        assert!(!expected.is_empty() || fx.mapper.query(p, 8.0).is_empty());
        let got = service.query(p, 2.0).unwrap();
        assert_eq!(got, expected, "served query diverged from the mapper at {p}");
    }
    let batched = service.query_batch(&probes, 2.0).unwrap();
    for (&p, got) in probes.iter().zip(&batched) {
        assert_eq!(got, &fx.mapper.query(p, 2.0), "batched served query diverged at {p}");
    }

    let tiles = service.stats().tiles;
    assert!(tiles.loads > 0 && tiles.hits > 0, "repeat probes must hit resident indexes");
    assert_eq!(tiles.evictions, 0, "unlimited budget must never evict");
}

#[test]
fn budgeted_sessions_match_whole_map_sessions_bitwise() {
    let fx = fixture();
    let scripts = session_scripts();
    let whole = ShardService::with_epoch(Arc::clone(&fx.epoch2), ShardConfig::default());
    let reference = run_sessions(&whole, &fx.seq, &scripts, 1);

    // A budget around a third of the map forces real eviction churn
    // while the sessions run — results must not notice.
    let config = ShardConfig { tile_budget_bytes: fx.whole_map_bytes / 3, ..Default::default() };
    let service = ShardService::with_epoch(Arc::clone(&fx.epoch2), config);
    let budgeted = run_sessions(&service, &fx.seq, &scripts, 1);

    let mut cold_starts = 0;
    for (script, (w_steps, b_steps)) in scripts.iter().zip(reference.iter().zip(&budgeted)) {
        for (&frame, (w, b)) in script.iter().zip(w_steps.iter().zip(b_steps)) {
            assert_same_pose(w, b, "budgeted pose diverged from the whole-map service");
            match (&w.kind, &b.kind) {
                (StepKind::Relocalized(a), StepKind::Relocalized(b)) => {
                    cold_starts += 1;
                    assert_eq!(a.submap, b.submap);
                    assert_eq!(a.inliers, b.inliers);
                    assert_eq!(a.structure_overlap, b.structure_overlap);
                    assert_eq!(a.confidence, b.confidence);
                    assert_overlap_matches_live_submap(fx, fx.seq.frame(frame), b);
                }
                (StepKind::Tracked { .. }, StepKind::Tracked { .. }) => {}
                (a, b) => panic!("frame {frame}: step kinds diverged ({a:?} vs {b:?})"),
            }
        }
    }
    assert!(cold_starts >= scripts.len(), "every script head must cold-start on both services");

    let stats = service.stats();
    assert_eq!(stats.frames, scripts.iter().map(Vec::len).sum::<usize>());
    assert_eq!(stats.relocalizations_succeeded, scripts.len());
    assert!(stats.tiles.loads > 0, "cold starts must load submap indexes");
    assert_eq!(whole.stats().tiles.evictions, 0, "the whole-map service never evicts");
}

#[test]
fn tile_budget_bounds_resident_bytes_without_changing_answers() {
    let fx = fixture();
    let budget = fx.whole_map_bytes / 4;
    let config = ShardConfig { tile_budget_bytes: budget, ..Default::default() };
    let service = ShardService::with_epoch(Arc::clone(&fx.epoch2), config);

    // Roam the whole circuit twice: far more map than the budget admits.
    for lap in 0..2 {
        for &p in &probes(fx) {
            let got = service.query(p, 2.0).unwrap();
            assert_eq!(got, fx.mapper.query(p, 2.0), "lap {lap}: eviction changed an answer");
            let tiles = service.stats().tiles;
            assert!(
                tiles.resident_bytes <= budget || tiles.resident_tiles == 1,
                "resident {} bytes exceeds budget {budget} with {} indexes resident (not one)",
                tiles.resident_bytes,
                tiles.resident_tiles
            );
        }
    }

    let tiles = service.stats().tiles;
    assert!(tiles.evictions > 0, "a quarter-map budget must evict while roaming");
    assert!(tiles.loads > tiles.evictions, "something must stay resident");
    // No hit assertion here: with most probes passing most submaps'
    // gates (the sensor out-ranges this fixture) and a budget below the working
    // set, LRU degenerates to the sequential-scan worst case — which is
    // exactly the churn this test wants. Hits are asserted under the
    // unlimited budget above and on the selective 10× map.
    assert!(
        tiles.peak_resident_bytes < fx.whole_map_bytes,
        "peak residency must stay below the everything-resident baseline"
    );
}

#[test]
fn epoch_hot_swap_drains_pinned_sessions_and_serves_new_ones() {
    let fx = fixture();
    let service = ShardService::with_epoch(Arc::clone(&fx.epoch1), ShardConfig::default());

    // Control: the same script served by the whole-map service that
    // never swaps.
    let control: Vec<SessionStep> = {
        let ctrl = ShardService::with_epoch(Arc::clone(&fx.epoch1), ShardConfig::default());
        let mut session = ctrl.open_session().unwrap();
        [2usize, 3, 4]
            .iter()
            .map(|&f| session.localize(fx.seq.frame(f)).expect("control localize"))
            .collect()
    };

    // Session A starts on epoch 1 and stays pinned there.
    let mut a = service.open_session().unwrap();
    assert_eq!(a.epoch_version(), 1);
    let step0 = a.localize(fx.seq.frame(2)).expect("pre-swap cold start");

    // Read, through epoch 1, a region whose every gated payload epoch 2
    // shares (the same `Arc`): probes 4 m above the trajectory clear the
    // local bounds of the submap the last frames grew, not of the others.
    let shared: Vec<Vec3> = fx
        .mapper
        .poses()
        .iter()
        .step_by(5)
        .map(|pose| pose.translation + Vec3::new(0.0, 0.0, 4.0))
        .filter(|&p| {
            let needed = gated(&fx.epoch2, p, 2.0);
            !needed.is_empty() && needed.iter().all(|q| gated(&fx.epoch1, p, 2.0).contains(q))
        })
        .collect();
    assert!(shared.len() >= 4, "the region must reach payloads epoch 2 shares");
    for &p in &shared {
        service.query(p, 2.0).unwrap();
    }
    let loads_before = service.stats().tiles.loads;

    // Hot-swap mid-stream.
    service.install_epoch(Arc::clone(&fx.epoch2));
    assert_eq!(service.current_epoch().unwrap().version(), 2);

    // Re-reading the region through epoch 2 builds no index: a shared
    // payload keeps its index across the install.
    for &p in &shared {
        assert_eq!(service.query(p, 2.0).unwrap(), fx.mapper.query(p, 2.0));
    }
    assert_eq!(service.stats().tiles.loads, loads_before, "a shared payload's index was rebuilt");

    // A keeps draining on epoch 1 — not dropped, not migrated, and its
    // poses are exactly the never-swapped control's.
    let step1 = a.localize(fx.seq.frame(3)).expect("post-swap track");
    let step2 = a.localize(fx.seq.frame(4)).expect("post-swap track");
    assert_eq!(a.epoch_version(), 1, "in-flight sessions drain on their pinned epoch");
    for (got, want) in [&step0, &step1, &step2].into_iter().zip(&control) {
        assert_same_pose(got, want, "hot swap diverged a pose");
    }

    // New sessions pin the new epoch and see the extended map.
    let mut b = service.open_session().unwrap();
    assert_eq!(b.epoch_version(), 2);
    b.localize(fx.seq.frame(2)).expect("cold start on epoch 2");

    drop(a);
    assert_eq!(service.active_sessions(), 1);
    drop(b);
    assert_eq!(service.active_sessions(), 0);

    // An index lives while some epoch holds its payload. The fixture
    // keeps its epochs alive for good, so publish owned ones: a fresh
    // publisher re-archives every submap, and its epoch alone holds
    // those payloads.
    let own = EpochPublisher::new().publish(&fx.mapper).expect("owned publish");
    let owner = ShardService::with_epoch(Arc::clone(&own), ShardConfig::default());
    let session = owner.open_session().unwrap();
    for &p in &probes(fx) {
        session.query(p, 2.0);
    }
    let resident = owner.stats().tiles.resident_bytes;
    assert!(resident > 0);
    owner.install_epoch(Arc::clone(&fx.epoch2));
    drop(own);
    assert_eq!(owner.stats().tiles.resident_bytes, resident, "the session still pins its epoch");
    drop(session);
    assert_eq!(owner.stats().tiles.resident_bytes, 0, "its last session dropped the epoch");

    // Without a session, the install that supersedes an epoch drops it.
    owner.install_epoch(EpochPublisher::new().publish(&fx.mapper).expect("owned publish"));
    owner.query(probes(fx)[0], 2.0).unwrap();
    assert!(owner.stats().tiles.resident_bytes > 0);
    owner.install_epoch(Arc::clone(&fx.epoch2));
    assert_eq!(owner.stats().tiles.resident_bytes, 0, "the install dropped the epoch");
}

#[test]
fn a_publish_rebuilds_only_the_payloads_it_copied() {
    let fx = fixture();
    let service = ShardService::with_epoch(Arc::clone(&fx.epoch1), ShardConfig::default());
    // The whole map: the probes around every map pose.
    let read = |epoch: &SnapshotEpoch| {
        let probes: Vec<Vec3> = epoch.poses().iter().flat_map(probes_around).collect();
        let got = service.query_batch(&probes, 2.0).unwrap();
        (probes, got)
    };
    read(&fx.epoch1);
    let first = service.stats().tiles.loads;

    // Install the epoch published after mapping more frames and read its
    // whole map: only the payloads the publish archived anew need an
    // index (`payloads_copied` counts new submaps too).
    service.install_epoch(Arc::clone(&fx.epoch2));
    let (probes, got) = read(&fx.epoch2);
    for (p, neighbors) in probes.iter().zip(&got).step_by(7) {
        assert_eq!(neighbors, &fx.mapper.query(*p, 2.0), "probe {p:?}");
    }
    let rebuilt = service.stats().tiles.loads - first;
    assert!(
        rebuilt <= fx.epoch2_copied,
        "{rebuilt} indexes rebuilt for {} payloads copied",
        fx.epoch2_copied
    );

    // Exactly those: the first read built every servable index once.
    let servable = fx.epoch1.payloads().iter().filter(|p| !p.is_empty()).count();
    assert_eq!(first, servable, "the whole-map read must reach every servable submap");
    let fresh = fx
        .epoch2
        .payloads()
        .iter()
        .filter(|p| !p.is_empty() && !fx.epoch1.payloads().iter().any(|q| Arc::ptr_eq(p, q)))
        .count();
    assert_eq!(rebuilt, fresh);
    assert!(fresh >= 1 && fx.epoch2_copied < servable, "epoch 2 must copy some, not all");
}

#[test]
fn admission_control_rejects_typed_beyond_budgets() {
    let fx = fixture();
    let config = ShardConfig {
        serve: ServeConfig { max_sessions: 2, max_inflight: 0, ..ServeConfig::default() },
        ..ShardConfig::default()
    };
    let service = ShardService::with_epoch(Arc::clone(&fx.epoch2), config);

    let s1 = service.open_session().unwrap();
    let mut s2 = service.open_session().unwrap();
    assert_eq!(
        service.open_session().unwrap_err(),
        ServeError::SessionsExhausted { limit: 2 },
        "third session must be rejected"
    );
    assert_eq!(service.active_sessions(), 2);

    // Zero in-flight budget: every localize is shed before any work.
    assert_eq!(s2.localize(fx.seq.frame(0)).unwrap_err(), ServeError::Saturated { limit: 0 });

    // Dropping a session frees its slot.
    drop(s1);
    assert_eq!(service.active_sessions(), 1);
    let _s3 = service.open_session().expect("slot must be reusable after drop");

    let stats = service.stats();
    assert_eq!(stats.sessions_rejected, 1);
    assert_eq!(stats.frames_rejected, 1);
    assert_eq!(stats.frames, 0, "rejected frames never count as served");
}

#[test]
fn session_slots_release_on_abnormal_teardown() {
    let fx = fixture();
    let config = ShardConfig {
        serve: ServeConfig { max_sessions: 1, ..ServeConfig::default() },
        ..ShardConfig::default()
    };
    let service = ShardService::with_epoch(Arc::clone(&fx.epoch2), config);

    // A session thread that dies mid-stream: the unwind still runs the
    // session's `Drop`, so the only slot and its epoch pin come back.
    let result = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut session = service.open_session().expect("first admission");
                session.localize(fx.seq.frame(2)).expect("cold start");
                panic!("session thread dies with the session live");
            })
            .join()
    });
    assert!(result.is_err(), "the session thread must have panicked");
    assert_eq!(service.active_sessions(), 0, "panic teardown must release the slot");

    // Re-admission succeeds and the service still serves.
    let mut session = service.open_session().expect("slot must be re-admittable after a panic");
    let step = session.localize(fx.seq.frame(2)).expect("service must still localize");
    assert!(matches!(step.kind, StepKind::Relocalized(_)));

    let stats = service.stats();
    assert_eq!(stats.sessions_admitted, 2);
    assert_eq!(stats.sessions_active, 1);
    assert_eq!(stats.frames, 2, "the pre-panic frame still counts as served");
}

#[test]
fn shard_admission_is_typed_and_slots_release_on_abnormal_teardown() {
    let fx = fixture();

    // No epoch yet: both sessions and queries reject typed.
    let empty = ShardService::new(ShardConfig::default());
    assert_eq!(empty.open_session().unwrap_err(), ServeError::NoEpoch);
    assert_eq!(empty.query(Vec3::ZERO, 1.0).unwrap_err(), ServeError::NoEpoch);

    let config = ShardConfig {
        serve: ServeConfig { max_sessions: 1, ..ServeConfig::default() },
        ..ShardConfig::default()
    };
    let service = ShardService::with_epoch(Arc::clone(&fx.epoch1), config);
    {
        let _held = service.open_session().unwrap();
        assert_eq!(service.open_session().unwrap_err(), ServeError::SessionsExhausted { limit: 1 });
    }

    // A panicking session thread still releases its slot and its epoch
    // pin through `Drop`.
    let result = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut session = service.open_session().expect("admission");
                session.localize(fx.seq.frame(2)).expect("cold start");
                panic!("session thread dies with the session live");
            })
            .join()
    });
    assert!(result.is_err(), "the session thread must have panicked");
    assert_eq!(service.active_sessions(), 0, "panic teardown must release the slot");
    let mut session = service.open_session().expect("slot re-admittable after panic");
    session.localize(fx.seq.frame(2)).expect("service still serves");
}

#[test]
fn relocalization_failure_is_typed_and_recoverable() {
    let fx = fixture();
    let service = ShardService::with_epoch(Arc::clone(&fx.epoch2), ShardConfig::default());
    let mut session = service.open_session().unwrap();

    // A structured frame that matches nothing in the map: far-away box.
    let mut pts = Vec::new();
    for i in 0..30 {
        for k in 0..12 {
            pts.push(Vec3::new(500.0 + i as f64 * 0.3, 500.0, k as f64 * 0.3));
            pts.push(Vec3::new(500.0, 500.0 + i as f64 * 0.3, k as f64 * 0.3));
        }
    }
    let alien = PointCloud::from_points(pts);
    let err = session.localize(&alien).unwrap_err();
    assert!(
        matches!(err, ServeError::RelocalizationFailed { .. }),
        "expected typed relocalization failure, got {err}"
    );
    assert_eq!(session.phase(), SessionPhase::ColdStart);

    // An empty frame is a typed registration error, not a crash.
    assert!(matches!(
        session.localize(&PointCloud::new()).unwrap_err(),
        ServeError::Registration(_)
    ));

    // The session recovers: a real frame cold-starts fine afterwards.
    let step = session.localize(fx.seq.frame(2)).expect("recovery cold start");
    assert!(matches!(step.kind, StepKind::Relocalized(_)));
    assert_eq!(session.phase(), SessionPhase::Tracking);
    assert!(session.pose().is_some());
    let stats = session.stats();
    assert_eq!(stats.relocalizations_attempted, 2);
    assert_eq!(stats.relocalizations_succeeded, 1);
}
