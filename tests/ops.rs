//! Operational-tier acceptance: an induced latency anomaly must trip a
//! declared SLO, the resulting post-mortem bundle must contain the
//! complete connected span tree of the offending request, the tail
//! sampler must keep exactly the requests worth keeping, and none of
//! it may change a pose bit.
//!
//! What must hold:
//!
//! * a `serve.latency_us:p99<=…` spec breached by real served requests
//!   makes [`OpsMonitor::tick`] write a bundle whose `trace.json`
//!   parses as balanced Chrome JSON and whose retained tail traces are
//!   each one connected tree under the request's `serve.localize`
//!   root;
//! * the tail sampler retains slow and failed requests and drops fast
//!   healthy ones — decided after the outcome is known;
//! * poses are **bit-identical** with the recorder, sampler and SLO
//!   engine on versus everything off.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use tigris::data::{LidarConfig, Sequence, SequenceConfig};
use tigris::geom::PointCloud;
use tigris::map::{Mapper, MapperConfig};
use tigris::obs::json::Json;
use tigris::obs::ops::{OpsConfig, OpsMonitor};
use tigris::obs::sampler::TailDecision;
use tigris::obs::slo::parse_specs;
use tigris::obs::{self, RecordKind};
use tigris::serve::shard::{EpochPublisher, ShardConfig, ShardService, SnapshotEpoch};
use tigris::serve::SessionStep;

/// Tests here toggle the process-global recorder, read/write the
/// sampler's environment knobs and drain shared state; they must not
/// interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The serving fixture of `observability.rs`: a ~66-frame, 60 m closed
/// circuit at the low-resolution scanner, built once with every sink
/// off.
fn fixture() -> &'static (Sequence, Arc<SnapshotEpoch>) {
    static FIXTURE: OnceLock<(Sequence, Arc<SnapshotEpoch>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut cfg = SequenceConfig::loop_circuit(60.0, 6);
        cfg.lidar = LidarConfig::tiny();
        let seq = Sequence::generate(&cfg, 7);
        let mut mapper = Mapper::new(MapperConfig::serving());
        // Mapper::new's init_from_env defaults the recorder on; these
        // tests manage the sinks explicitly.
        obs::set_recorder(false);
        obs::set_enabled(false);
        for i in 0..seq.len() {
            mapper.push(seq.frame(i)).unwrap_or_else(|e| panic!("map frame {i} failed: {e}"));
        }
        let epoch = EpochPublisher::new().publish(&mapper).expect("publish must succeed");
        (seq, epoch)
    })
}

/// A service whose tail sampler uses a fixed cutoff of `slow_us`
/// microseconds (0 retains everything), built under the serial lock so
/// the environment round-trip cannot interleave.
fn service_with_cutoff(epoch: &Arc<SnapshotEpoch>, slow_us: u64) -> ShardService {
    std::env::set_var("TIGRIS_TAIL_SLOW_US", slow_us.to_string());
    let service = ShardService::with_epoch(Arc::clone(epoch), ShardConfig::default());
    std::env::remove_var("TIGRIS_TAIL_SLOW_US");
    service
}

/// A monitor writing bundles into a unique throwaway directory.
fn monitor(tag: &str, specs: &str) -> OpsMonitor {
    let dir = std::env::temp_dir().join(format!("tigris-ops-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    OpsMonitor::new(OpsConfig {
        dir,
        specs: parse_specs(specs).expect("test specs must parse"),
        window: Duration::ZERO,
    })
}

/// Asserts every `B` has its matching `E` on the same thread in LIFO
/// order, walking the Chrome trace's event array; returns the names of
/// the `B` events seen.
fn assert_chrome_balanced(json: &Json) -> Vec<String> {
    let events = json.as_arr().expect("chrome trace must be an event array");
    let mut stacks: std::collections::HashMap<i64, Vec<String>> = std::collections::HashMap::new();
    let mut begins = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("every event has ph");
        let tid = ev.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as i64;
        let name = ev.get("name").and_then(Json::as_str).unwrap_or("").to_string();
        match ph {
            "B" => {
                begins.push(name.clone());
                stacks.entry(tid).or_default().push(name);
            }
            "E" => {
                let top = stacks.get_mut(&tid).and_then(Vec::pop);
                assert_eq!(top.as_deref(), Some(name.as_str()), "E must close the innermost B");
            }
            _ => {}
        }
    }
    for (tid, stack) in stacks {
        assert!(stack.is_empty(), "thread {tid} left spans open: {stack:?}");
    }
    begins
}

#[test]
fn slo_breach_writes_postmortem_with_the_offending_request_tree() {
    let _guard = serial();
    let (seq, epoch) = fixture();
    obs::set_recorder(true);
    obs::recorder::reset();

    // Cutoff 0: every request is "slow" — each one is an induced
    // anomaly whose tree the sampler must keep.
    let service = service_with_cutoff(epoch, 0);
    let ops = monitor("breach", "serve.latency_us:p99<=1us");
    ops.register("serve", service.registry(), Some(service.sampler()));

    let mut session = service.open_session().expect("session admission");
    for i in [3usize, 4] {
        session.localize(seq.frame(i)).expect("fixture frames must localize");
    }

    // No request finishes in ≤1 µs: the spec must breach and the tick
    // must dump exactly one bundle for the one registered service.
    let bundles = ops.tick();
    obs::set_recorder(false);
    assert_eq!(bundles.len(), 1, "one breached service, one bundle");
    let dir = &bundles[0];

    // The bundle's flight-recorder window: balanced Chrome JSON with
    // the served requests in it.
    let trace_json = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json written");
    let parsed = Json::parse(&trace_json).expect("trace.json must parse");
    let begins = assert_chrome_balanced(&parsed);
    assert!(
        begins.iter().filter(|n| n.as_str() == "serve.localize").count() >= 2,
        "the window must contain both served requests"
    );

    // The verdicts name the breached spec.
    let verdicts = std::fs::read_to_string(dir.join("verdicts.json")).expect("verdicts written");
    assert!(verdicts.contains("serve.latency_us:p99<=1us"));
    assert!(verdicts.contains("\"breached\""));

    // The retained tail traces survive into the bundle too.
    let retained_json =
        std::fs::read_to_string(dir.join("retained.json")).expect("retained.json written");
    let retained_parsed = Json::parse(&retained_json).expect("retained.json must parse");
    assert_eq!(
        retained_parsed.as_arr().map(<[Json]>::len),
        Some(2),
        "both anomalous requests must be retained"
    );

    // The acceptance core: each retained trace is the *complete
    // connected* span tree of its request — rooted at serve.localize,
    // every record ancestrally connected to that root, pipeline layers
    // included, and nothing from any other request mixed in.
    let retained = service.sampler().retained();
    assert_eq!(retained.len(), 2);
    for (which, kept) in retained.iter().enumerate() {
        assert_eq!(kept.decision, TailDecision::RetainedSlow);
        assert_ne!(kept.root, 0, "the root span id must have been captured");
        let root =
            kept.trace.records.iter().find(|r| r.id == kept.root).unwrap_or_else(|| {
                panic!("retained trace {which} must contain its own root record")
            });
        assert_eq!(root.name, "serve.localize");
        assert_eq!(
            kept.trace.find(RecordKind::Begin, "serve.localize").len(),
            1,
            "exactly one request root — no other request's tree mixed in"
        );
        for r in &kept.trace.records {
            if r.kind == RecordKind::End || r.id == kept.root {
                continue;
            }
            assert!(
                kept.trace.has_ancestor(r.id, kept.root),
                "record '{}' (id {}) in retained trace {which} is not connected to the root",
                r.name,
                r.id
            );
        }
        // Depth: the tree must reach through the serving layer into the
        // pipeline, not just hold the root.
        let inner = if which == 0 { "serve.cold_start" } else { "serve.track" };
        for name in [inner, "pipeline.match"] {
            assert!(
                kept.trace
                    .find(RecordKind::Begin, name)
                    .iter()
                    .any(|r| kept.trace.has_ancestor(r.id, kept.root)),
                "retained trace {which} must contain '{name}' under its root"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&ops.config().dir);
}

#[test]
fn tail_sampler_retains_slow_and_failed_and_drops_fast() {
    let _guard = serial();
    let (seq, epoch) = fixture();
    obs::set_recorder(true);
    obs::recorder::reset();

    // One-hour cutoff: healthy requests are all "fast".
    let service = service_with_cutoff(epoch, 3_600_000_000);
    let mut session = service.open_session().expect("session admission");
    for i in [3usize, 4] {
        session.localize(seq.frame(i)).expect("fixture frames must localize");
    }
    let stats = service.sampler().stats();
    assert_eq!(stats.observed, 2);
    assert_eq!(stats.dropped_fast, 2, "fast healthy requests must not be retained");
    assert_eq!(stats.retained, 0);

    // An empty frame fails to localize — failure is retained however
    // fast it was, with its own connected tree.
    session.localize(&PointCloud::new()).expect_err("an empty frame cannot localize");
    let stats = service.sampler().stats();
    assert_eq!(stats.observed, 3);
    assert_eq!(stats.retained, 1, "a failed request must be retained");
    let retained = service.sampler().take_retained();
    assert_eq!(retained.len(), 1);
    assert_eq!(retained[0].decision, TailDecision::RetainedFailed);
    assert_ne!(retained[0].root, 0);
    assert!(
        retained[0]
            .trace
            .records
            .iter()
            .any(|r| r.kind == RecordKind::Begin && r.name == "serve.localize"),
        "the failed request's tree must be captured"
    );

    // Cutoff 0 flips the same workload to all-retained-slow.
    let eager = service_with_cutoff(epoch, 0);
    let mut session = eager.open_session().expect("session admission");
    session.localize(seq.frame(3)).expect("fixture frame must localize");
    let stats = eager.sampler().stats();
    assert_eq!((stats.observed, stats.retained, stats.dropped_fast), (1, 1, 0));
    assert_eq!(eager.sampler().retained()[0].decision, TailDecision::RetainedSlow);

    obs::set_recorder(false);
}

#[test]
fn poses_are_bit_identical_with_the_operational_tier_on_and_off() {
    let _guard = serial();
    let (seq, epoch) = fixture();

    let run = |service: &ShardService, tick: Option<&OpsMonitor>| -> Vec<SessionStep> {
        let mut session = service.open_session().expect("session admission");
        [3usize, 4, 5]
            .iter()
            .map(|&i| {
                let step = session.localize(seq.frame(i)).expect("fixture frames must localize");
                if let Some(ops) = tick {
                    ops.tick();
                }
                step
            })
            .collect()
    };

    // Baseline: recorder off, sampler at the default threshold (which
    // retains nothing this early), no SLO evaluation.
    obs::set_recorder(false);
    obs::set_enabled(false);
    let baseline = run(&ShardService::with_epoch(Arc::clone(epoch), ShardConfig::default()), None);

    // Everything on: flight recorder, retain-everything sampler, and an
    // SLO engine evaluated after every request (breaching, so bundle
    // writes happen mid-stream too).
    obs::set_recorder(true);
    obs::recorder::reset();
    let service = service_with_cutoff(epoch, 0);
    let ops = monitor("identity", "serve.latency_us:p99<=1us");
    ops.register("serve", service.registry(), Some(service.sampler()));
    let observed = run(&service, Some(&ops));
    obs::set_recorder(false);

    assert!(service.sampler().stats().retained > 0, "the operational tier must have engaged");
    assert_eq!(baseline.len(), observed.len());
    for (a, b) in baseline.iter().zip(&observed) {
        assert_eq!(a.pose, b.pose, "the operational tier must not change a single pose bit");
    }

    let _ = std::fs::remove_dir_all(&ops.config().dir);
}
