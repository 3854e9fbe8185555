//! `map_live`: the write side beside reads. One writer thread maps the
//! fixture circuits' own frames, pass after pass, publishing a
//! copy-on-write epoch and installing it on the service every few
//! frames; one reader thread issues batched map reads, at seeded mapped
//! poses, against whatever epoch is current.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use tigris::data::Sequence;
use tigris::map::{Mapper, MapperConfig};
use tigris::serve::shard::{EpochPublisher, ShardConfig, ShardService};

use crate::fixture::{circuit_config, probes_around, sub_seed, Rng, PROBE_RADIUS};
use crate::report::Outcome;
use crate::stats::{median, ms, pose_error, quantile, timed, OpLog, Window};
use crate::Args;

/// Circuits generated per run; writer passes cycle over them.
const MAPS: usize = 2;
/// Frames pushed between two epoch publishes.
const PUBLISH_EVERY: usize = 4;
/// Set-up repetitions per circuit.
const SETUP_REPEATS: usize = 3;
/// The reader's pause between reads: a steady read load beside the
/// writer rather than a second core saturated with reads.
const READ_PAUSE: Duration = Duration::from_millis(1);
/// Every this many reads, the batch answer is checked against
/// per-element queries on one pinned session.
const READ_CHECK_EVERY: usize = 8;

/// What the writer saw.
#[derive(Default)]
struct WriterLog {
    log: OpLog,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    publish_failures: usize,
    install_ms: Vec<f64>,
    payloads_copied: usize,
    /// Closures accepted by each mapping pass.
    closures: Vec<usize>,
    optimizations: usize,
}

/// What the reader saw.
#[derive(Default)]
struct ReaderLog {
    read_ms: Vec<f64>,
    checked: usize,
    mismatches: usize,
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is cheap here, so each circuit is generated `SETUP_REPEATS`
    // times for a steadier median.
    let circuits: Vec<Sequence> = (0..MAPS)
        .map(|k| {
            let generate = || {
                let t0 = Instant::now();
                let circuit = Sequence::generate(&circuit_config(), sub_seed(args.fixture_seed, k));
                (circuit, t0.elapsed().as_secs_f64())
            };
            let mut last = generate();
            for _ in 1..SETUP_REPEATS {
                out.setup_s.push(last.1);
                last = generate();
            }
            out.setup_s.push(last.1);
            last.0
        })
        .collect();

    let current: RwLock<Arc<ShardService>> =
        RwLock::new(Arc::new(ShardService::new(ShardConfig::default())));
    let done = AtomicBool::new(false);
    let window = Window::open(args.seconds);
    let (writer, reader) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_loop(&current, &done, args.seed));
        let writer = write_loop(args, &circuits, &current, &window);
        done.store(true, Ordering::Relaxed);
        (writer, reader.join().expect("reader thread panicked"))
    });
    out.window_s = window.elapsed_s();

    out.check(
        "every mapping pass closes its loop",
        writer.closures.iter().all(|&c| c >= 1),
        format!("closures accepted per pass: {:?}", writer.closures),
    );
    out.check(
        "every epoch publish succeeds",
        writer.publish_failures == 0,
        format!("{} publishes, {} failed", writer.publish_ms.len(), writer.publish_failures),
    );
    out.check(
        "batched reads equal per-element queries on the pinned session",
        reader.mismatches == 0 && reader.checked > 0,
        format!("{} reads checked, {} differing", reader.checked, reader.mismatches),
    );
    out.notes.push(format!("{} reads beside the writer", reader.read_ms.len()));

    if args.trace {
        let ops = writer.log.attempted().max(1) as f64;
        let passes = writer.closures.len().max(1) as f64;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let push = mean(&writer.log.op_ms);
        out.layer("map.push_ms", push);
        out.layer("map.publish_ms", mean(&writer.publish_ms));
        out.layer("serve.install_epoch_ms", mean(&writer.install_ms));
        out.layer(
            "map.payloads_copied_per_publish",
            writer.payloads_copied as f64 / writer.publish_ms.len().max(1) as f64,
        );
        out.layer("map.closures_accepted", writer.closures.iter().sum::<usize>() as f64 / passes);
        out.layer("map.optimizations", writer.optimizations as f64 / passes);
        out.layer("serve.query_batch_ms", mean(&reader.read_ms));
        out.layer("serve.read_ms.p50", median(&reader.read_ms));
        out.layer("serve.read_ms.p99", quantile(&reader.read_ms, 0.99).unwrap_or(0.0));
        let publish = writer.publish_ms.iter().sum::<f64>() / ops;
        let install = writer.install_ms.iter().sum::<f64>() / ops;
        let rows = [
            ("map.push_ms", push),
            ("map.publish_ms", publish),
            ("serve.install_epoch_ms", install),
        ];
        out.leaders(&rows, push + publish + install);
    }
    out.traced_ms = writer.traced_ms;
    out.untraced_ms = writer.untraced_ms;
    out.log = writer.log;
    out
}

/// Maps circuits pass after pass until the window closes; passes always
/// complete, so every run measures whole passes and the loop-closure
/// check judges finished maps.
fn write_loop(
    args: &Args,
    circuits: &[Sequence],
    current: &RwLock<Arc<ShardService>>,
    window: &Window,
) -> WriterLog {
    let mut w = WriterLog::default();
    let mut pass = 0usize;
    // The first pass over every circuit is scored.
    while pass < circuits.len() || !window.closed() {
        let circuit = &circuits[pass % circuits.len()];
        let scored = pass < circuits.len();
        // Alternate cycles over the circuits replay the same inputs, so
        // traced and untraced latencies compare like for like.
        let traced = args.trace && (pass / circuits.len()) % 2 == 1;
        // A fresh mapper, publisher and service per pass: epoch versions
        // and payload revisions are per publisher.
        let mut mapper = Mapper::new(MapperConfig::serving());
        let mut publisher = EpochPublisher::new();
        let service = Arc::new(ShardService::new(ShardConfig::default()));
        let mut installed = false;
        let mut prev_raw = None;
        let frames = circuit.len();
        for i in 0..frames {
            let (pushed, lat) = timed(|| mapper.push(circuit.frame(i)));
            match pushed {
                Ok(step) => {
                    let err = prev_raw.map(|prev: tigris::geom::RigidTransform| {
                        let moved = prev.inverse() * step.raw_pose;
                        pose_error(&moved, &circuit.ground_truth_relative(i - 1))
                    });
                    w.log.accept(lat, err, scored);
                    prev_raw = Some(step.raw_pose);
                }
                Err(_) => {
                    w.log.reject(lat, true, scored);
                    prev_raw = None;
                }
            }
            if traced {
                // The traced half also snapshots the mapper's counters.
                let _ = mapper.stats();
            }
            if args.trace {
                if traced { &mut w.traced_ms } else { &mut w.untraced_ms }.push(lat);
            }
            if (i + 1) % PUBLISH_EVERY == 0 || i + 1 == frames {
                let copied0 = publisher.payloads_copied();
                let t1 = Instant::now();
                let Ok(epoch) = publisher.publish(&mapper) else {
                    w.publish_failures += 1;
                    continue;
                };
                w.publish_ms.push(ms(t1.elapsed()));
                w.payloads_copied += publisher.payloads_copied() - copied0;
                let t2 = Instant::now();
                service.install_epoch(epoch);
                w.install_ms.push(ms(t2.elapsed()));
                if !installed {
                    *current.write().expect("service slot") = Arc::clone(&service);
                    installed = true;
                }
            }
        }
        let stats = mapper.stats();
        w.closures.push(stats.closures_accepted);
        w.optimizations += stats.optimizations;
        pass += 1;
    }
    w
}

/// Reads around random mapped poses of the current epoch, one read per
/// `READ_PAUSE` plus its own time, until the writer is done.
fn read_loop(current: &RwLock<Arc<ShardService>>, done: &AtomicBool, seed: u64) -> ReaderLog {
    let mut r = ReaderLog::default();
    let mut rng = Rng::new(seed);
    while !done.load(Ordering::Relaxed) {
        let service = Arc::clone(&current.read().expect("service slot"));
        let Some(epoch) = service.current_epoch() else {
            std::thread::yield_now();
            continue;
        };
        let poses = epoch.poses();
        let pose = poses[(rng.next_u64() % poses.len() as u64) as usize];
        let probes = probes_around(&pose);
        let t0 = Instant::now();
        let answers = service.query_batch(&probes, PROBE_RADIUS).expect("an installed epoch");
        r.read_ms.push(ms(t0.elapsed()));
        drop(answers);
        if r.read_ms.len().is_multiple_of(READ_CHECK_EVERY) {
            let session = service.open_session().expect("admission for a read check");
            let batch = session.query_batch(&probes, PROBE_RADIUS);
            let same =
                probes.iter().zip(&batch).all(|(&p, a)| session.query(p, PROBE_RADIUS) == *a);
            r.checked += 1;
            r.mismatches += usize::from(!same);
        }
        std::thread::sleep(READ_PAUSE);
    }
    r
}
