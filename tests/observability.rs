//! Observability acceptance: one served request yields one connected
//! trace tree, the Chrome export is valid and balanced, and tracing
//! changes no result.
//!
//! What must hold:
//!
//! * a cold-start relocalization followed by a tracked frame produces
//!   spans from the serve entry point (`serve.localize`) down through
//!   the relocalization gates (`serve.reloc`), the pipeline layers
//!   (`pipeline.prepare`, `pipeline.match`, their stage children) —
//!   all ancestrally connected to the request's root span;
//! * the sharded request path additionally connects `tile.load` and
//!   the KD-tree rebuild (`core.index_build`) under the same root,
//!   and epoch publish/install are visible as spans/events;
//! * the Chrome trace-event export parses as JSON and every `B` event
//!   has its matching `E` on the same thread (Perfetto-loadable);
//! * poses are **bit-identical** with tracing on and off.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use tigris::data::{LidarConfig, Sequence, SequenceConfig};
use tigris::map::{Mapper, MapperConfig};
use tigris::obs::json::Json;
use tigris::obs::{self, RecordKind, Trace};
use tigris::serve::shard::{EpochPublisher, ShardConfig, ShardService, SnapshotEpoch};
use tigris::serve::SessionStep;

/// Tests in this file toggle the process-global tracing switch and
/// drain the shared collectors; they must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The serving fixture of `shard_integration.rs`: a ~66-frame, 60 m
/// closed circuit at the low-resolution scanner.
fn fixture_config() -> SequenceConfig {
    let mut cfg = SequenceConfig::loop_circuit(60.0, 6);
    cfg.lidar = LidarConfig::tiny();
    cfg
}

struct Fixture {
    seq: Sequence,
    epoch: Arc<SnapshotEpoch>,
}

/// Built once, with tracing disabled, so fixture work never pollutes a
/// test's drained trace.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        assert!(!obs::enabled(), "fixture must build untraced");
        let seq = Sequence::generate(&fixture_config(), 7);
        let mut mapper = Mapper::new(MapperConfig::serving());
        for i in 0..seq.len() {
            mapper.push(seq.frame(i)).unwrap_or_else(|e| panic!("map frame {i} failed: {e}"));
        }
        let epoch = EpochPublisher::new().publish(&mapper).expect("publish must succeed");
        Fixture { seq, epoch }
    })
}

/// A fresh service over the fixture epoch, created before any test
/// turns tracing on (the install would otherwise record an
/// `epoch.install` event outside every request tree).
fn fixture_service(fx: &Fixture) -> ShardService {
    ShardService::with_epoch(Arc::clone(&fx.epoch), ShardConfig::default())
}

/// One cold start (frame 3) and one tracked frame (frame 4) through a
/// fresh session of `service`.
fn serve_two_frames(fx: &Fixture, service: &ShardService) -> Vec<SessionStep> {
    let mut session = service.open_session().expect("session admission");
    [3, 4]
        .iter()
        .map(|&i| session.localize(fx.seq.frame(i)).expect("fixture frames must localize"))
        .collect()
}

/// Asserts every `B` has its matching `E` on the same thread in LIFO
/// order, walking the Chrome trace's event array.
fn assert_chrome_balanced(json: &Json) {
    // The exporter uses the Chrome "JSON Array Format": a bare array.
    let events = json.as_arr().expect("chrome trace must be an event array");
    let mut stacks: std::collections::HashMap<i64, Vec<String>> = std::collections::HashMap::new();
    let mut b = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("every event has ph");
        let tid = ev.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as i64;
        let name = ev.get("name").and_then(Json::as_str).unwrap_or("").to_string();
        match ph {
            "B" => {
                b += 1;
                stacks.entry(tid).or_default().push(name);
            }
            "E" => {
                let top = stacks.get_mut(&tid).and_then(Vec::pop);
                assert_eq!(top.as_deref(), Some(name.as_str()), "E must close the innermost B");
            }
            _ => {}
        }
    }
    assert!(b > 0, "trace must contain spans");
    for (tid, stack) in stacks {
        assert!(stack.is_empty(), "thread {tid} left spans open: {stack:?}");
    }
}

/// The ids of every `Begin` of `name` in the trace.
fn begin_ids(trace: &Trace, name: &str) -> Vec<u64> {
    trace.find(RecordKind::Begin, name).iter().map(|r| r.id).collect()
}

/// Asserts at least one `Begin` of `name` descends from `root`.
fn assert_descends(trace: &Trace, name: &str, root: u64) {
    let ids = begin_ids(trace, name);
    assert!(!ids.is_empty(), "expected at least one '{name}' span");
    assert!(
        ids.iter().any(|&id| trace.has_ancestor(id, root)),
        "no '{name}' span descends from the request root"
    );
}

#[test]
fn serve_request_yields_one_connected_trace_tree() {
    let _guard = serial();
    let fx = fixture();

    // Baseline: the same two frames with tracing off.
    let baseline = serve_two_frames(fx, &fixture_service(fx));

    let traced_service = fixture_service(fx);
    obs::drain(); // discard anything earlier tests left behind
    obs::set_enabled(true);
    let traced = serve_two_frames(fx, &traced_service);
    obs::set_enabled(false);
    let trace = obs::drain();

    // Tracing observes; it must not change a single bit of any pose.
    assert_eq!(baseline.len(), traced.len());
    for (a, b) in baseline.iter().zip(&traced) {
        assert_eq!(a.pose, b.pose, "poses must be bit-identical with tracing on");
    }
    assert_eq!(trace.dropped, 0, "two frames must fit the default ring");

    // One root per request: frame 3 cold-starts, frame 4 tracks.
    let roots = begin_ids(&trace, "serve.localize");
    assert_eq!(roots.len(), 2, "one serve.localize root per request");
    let cold_root = roots[0];
    let track_root = roots[1];

    // The cold start's tree: serve → reloc gates → pipeline → stages.
    for name in [
        "serve.cold_start",
        "serve.reloc",
        "pipeline.prepare",
        "prepare.normals",
        "pipeline.match",
        "match.icp",
    ] {
        assert_descends(&trace, name, cold_root);
    }
    // The relocalization gate values arrive as structured events under
    // the same root.
    let accepts = trace.find(RecordKind::Instant, "reloc.accept");
    assert!(!accepts.is_empty(), "the cold start must record reloc.accept");
    assert!(trace.has_ancestor(accepts[0].id, cold_root));
    assert!(
        accepts[0].fields.iter().any(|(k, _)| *k == "inliers"),
        "reloc.accept must carry its gate values"
    );

    // The tracked frame's tree: serve → track → pipeline.match.
    assert_descends(&trace, "serve.track", track_root);
    let match_ids = begin_ids(&trace, "pipeline.match");
    assert!(
        match_ids.iter().any(|&id| trace.has_ancestor(id, track_root)),
        "the tracked frame's registration must nest under its root"
    );

    // Every span and event in this trace belongs to one of the two
    // request trees — the "one connected trace tree" acceptance.
    for r in &trace.records {
        if r.kind == RecordKind::End || r.id == cold_root || r.id == track_root {
            continue;
        }
        assert!(
            trace.has_ancestor(r.id, cold_root) || trace.has_ancestor(r.id, track_root),
            "record '{}' (id {}) is orphaned from both request roots",
            r.name,
            r.id
        );
    }

    // The export is valid JSON with balanced, per-thread-nested spans.
    let chrome = obs::export::chrome_trace_json(&trace);
    let parsed = Json::parse(&chrome).expect("chrome export must parse as JSON");
    assert_chrome_balanced(&parsed);
}

#[test]
fn sharded_request_connects_tiles_and_index_builds_under_the_root() {
    let _guard = serial();
    let fx = fixture();

    // Publish an epoch from a fresh mapper over the same sequence, with
    // tracing on: epoch.publish must span the archive work.
    obs::drain();
    let mut mapper = Mapper::new(MapperConfig::serving());
    for i in 0..fx.seq.len() {
        mapper.push(fx.seq.frame(i)).unwrap_or_else(|e| panic!("map frame {i} failed: {e}"));
    }
    obs::set_enabled(true);
    let mut publisher = EpochPublisher::new();
    let epoch = publisher.publish(&mapper).expect("publish must succeed");
    let service = ShardService::with_epoch(epoch, ShardConfig::default());
    let mut session = service.open_session().expect("session admission");
    let cold = session.localize(fx.seq.frame(3)).expect("cold start must localize");
    let tracked = session.localize(fx.seq.frame(4)).expect("tracked frame must localize");
    obs::set_enabled(false);
    let trace = obs::drain();

    assert!(begin_ids(&trace, "epoch.publish").len() == 1, "the publish must be spanned");
    assert!(
        !trace.find(RecordKind::Instant, "epoch.install").is_empty(),
        "the hot-swap must record epoch.install"
    );

    let roots = begin_ids(&trace, "serve.localize");
    assert_eq!(roots.len(), 2);
    let cold_root = roots[0];

    // The sharded cold start reaches structure overlap through a lazy
    // `tile.load`, which rebuilds the candidate submap's KD-tree: the full
    // serve → shard → core chain under one root.
    assert_descends(&trace, "serve.reloc", cold_root);
    assert_descends(&trace, "tile.load", cold_root);
    let builds = begin_ids(&trace, "core.index_build");
    assert!(
        builds.iter().any(|&id| trace.has_ancestor(id, cold_root)),
        "the submap's index rebuild must nest under the request root"
    );

    // Answers over a traced publish equal the untraced fixture epoch's —
    // tracing changes neither publishing nor serving (the deeper
    // equivalences are shard_integration's job; here we pin the traced
    // path).
    let baseline = serve_two_frames(fx, &fixture_service(fx));
    assert_eq!(cold.pose, baseline[0].pose);
    assert_eq!(tracked.pose, baseline[1].pose);

    // Tile residency counters and the trace agree on load activity.
    let stats = service.stats();
    assert!(stats.tiles.loads >= 1, "the cold start must have loaded a tile");

    let chrome = obs::export::chrome_trace_json(&trace);
    assert_chrome_balanced(&Json::parse(&chrome).expect("chrome export must parse"));
}
