//! The two serving workloads over closed-circuit maps:
//!
//! * `serve_track` — 2 clients on warm, unbounded services; each script
//!   cold-starts at a seam frame, tracks consecutive held-out scans and
//!   reads the map around every returned pose;
//! * `serve_cold` — 2 clients on services whose tile budget is a third of
//!   the fully resident tile bytes; every op is a fresh session
//!   cold-starting on a held-out scan, cycling over every circuit frame.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tigris::geom::RigidTransform;
use tigris::pipeline::{
    prepare_frame_with, register_prepared_with_prior, PrepareScratch, PreparedFrame,
};
use tigris::serve::shard::{ShardConfig, ShardService, ShardSession};
use tigris::serve::{ServeError, ServeStats, SessionStats, StepKind};

use crate::fixture::{probes_around, serve_circuit, sub_seed, Offsets, Served, PROBE_RADIUS};
use crate::layers::LayerSums;
use crate::report::Outcome;
use crate::stats::{median, ms, pose_error, quantile, same_bits, timed, OpLog, Window};
use crate::Args;

/// Concurrent clients (one per core of the reference 2-core host).
const CLIENTS: usize = 2;
/// Circuits served per `serve_track` run.
const TRACK_MAPS: usize = 2;
/// Circuits served per `serve_cold` run.
const COLD_MAPS: usize = 3;
/// Rounds of freshly offset held-out scans per circuit.
const ROUNDS: usize = 2;
/// Seam frames every tracking script cold-starts at.
const SEAMS: [usize; 4] = [2, 58, 61, 63];
/// Held-out scans tracked after each script's cold start.
const TRACK_STEPS: usize = 15;
/// The cold services' tile budget as a share of the fully resident bytes.
const COLD_BUDGET_SHARE: f64 = 1.0 / 3.0;
/// Scored cold starts replayed with every tile resident.
const RESIDENCY_SAMPLE: usize = 12;
/// Every this many reads, the batch answer is checked against
/// per-element queries on the same pinned session.
const READ_CHECK_EVERY: usize = 8;

/// What one localize call returned, for replays.
#[derive(Debug, Clone, Copy)]
enum Answer {
    Relocalized(RigidTransform),
    Tracked(RigidTransform, RigidTransform),
    Declined,
    Failed,
}

impl Answer {
    fn of(result: &Result<tigris::serve::SessionStep, ServeError>) -> Self {
        match result {
            Ok(step) => match step.kind {
                StepKind::Relocalized(_) => Answer::Relocalized(step.pose),
                StepKind::Tracked { relative, .. } => Answer::Tracked(step.pose, relative),
            },
            Err(ServeError::RelocalizationFailed { .. }) => Answer::Declined,
            Err(_) => Answer::Failed,
        }
    }

    fn same(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Relocalized(a), Answer::Relocalized(b)) => same_bits(a, b),
            (Answer::Tracked(a, ra), Answer::Tracked(b, rb)) => {
                same_bits(a, b) && same_bits(ra, rb)
            }
            (Answer::Declined, Answer::Declined) | (Answer::Failed, Answer::Failed) => true,
            _ => false,
        }
    }
}

/// One client's accounting.
#[derive(Default)]
struct ClientLog {
    log: OpLog,
    track_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    read_ms: Vec<f64>,
    /// Per served circuit: (ops, tracked, relocalized, cold attempts).
    per_map: Vec<[usize; 4]>,
    ne_ms: f64,
    descriptor_ms: f64,
    traced_ops: usize,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    reads_checked: usize,
    read_mismatches: usize,
}

impl ClientLog {
    fn new(maps: usize) -> Self {
        ClientLog { per_map: vec![[0; 4]; maps], ..ClientLog::default() }
    }

    fn merge(&mut self, other: ClientLog) {
        self.log.merge(other.log);
        self.track_ms.extend(other.track_ms);
        self.cold_ms.extend(other.cold_ms);
        self.read_ms.extend(other.read_ms);
        for (a, b) in self.per_map.iter_mut().zip(other.per_map) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        self.ne_ms += other.ne_ms;
        self.descriptor_ms += other.descriptor_ms;
        self.traced_ops += other.traced_ops;
        self.traced_ms.extend(other.traced_ms);
        self.untraced_ms.extend(other.untraced_ms);
        self.reads_checked += other.reads_checked;
        self.read_mismatches += other.read_mismatches;
    }

    /// Localizes held-out frame `f` of round `r` of circuit `k` on
    /// `session` and accounts the op: latency, step kind, error against
    /// the reference.
    #[allow(clippy::too_many_arguments)]
    fn localize(
        &mut self,
        served: &Served,
        k: usize,
        r: usize,
        f: usize,
        session: &mut ShardSession,
        scored: bool,
        traced: bool,
        trace_run: bool,
    ) -> Answer {
        let before: SessionStats = *session.stats();
        let cold = session.pose().is_none();
        let (result, lat) = timed(|| session.localize(served.circuit.rounds[r].frame(f)));
        let counts = &mut self.per_map[k];
        counts[0] += 1;
        counts[3] += usize::from(cold);
        match &result {
            Ok(step) => match step.kind {
                StepKind::Relocalized(_) => {
                    counts[2] += 1;
                    self.cold_ms.push(lat);
                    let reference = served.circuit.reference_pose(&served.map_poses, r, f);
                    self.log.accept(lat, Some(pose_error(&step.pose, &reference)), scored);
                }
                StepKind::Tracked { relative, .. } => {
                    counts[1] += 1;
                    self.track_ms.push(lat);
                    let err = pose_error(&relative, &served.circuit.truth_step(r, f));
                    self.log.accept(lat, Some(err), scored);
                }
            },
            Err(ServeError::RelocalizationFailed { .. }) => self.log.reject(lat, false, scored),
            Err(_) => self.log.reject(lat, true, scored),
        }
        if traced {
            let delta = session.stats().delta_since(&before);
            self.ne_ms += ms(delta.normal_estimation_time);
            self.descriptor_ms += ms(delta.descriptor_time);
            self.traced_ops += 1;
        }
        if trace_run {
            if traced { &mut self.traced_ms } else { &mut self.untraced_ms }.push(lat);
        }
        Answer::of(&result)
    }

    /// Reads the map around `pose` on the session's pinned epoch; every
    /// [`READ_CHECK_EVERY`]th read is checked against per-element queries.
    fn read(&mut self, session: &ShardSession, pose: &RigidTransform) {
        let probes = probes_around(pose);
        let t0 = Instant::now();
        let answers = session.query_batch(&probes, PROBE_RADIUS);
        self.read_ms.push(ms(t0.elapsed()));
        if self.read_ms.len().is_multiple_of(READ_CHECK_EVERY) {
            self.reads_checked += 1;
            let same =
                probes.iter().zip(&answers).all(|(&p, a)| session.query(p, PROBE_RADIUS) == *a);
            self.read_mismatches += usize::from(!same);
        }
    }
}

/// Sets up `maps` served circuits, one set-up sample each.
fn setup(
    args: &Args,
    maps: usize,
    offsets: Offsets,
    budget_share: Option<f64>,
    out: &mut Outcome,
) -> Vec<Served> {
    (0..maps)
        .map(|k| {
            let (served, secs) = serve_circuit(
                sub_seed(args.fixture_seed, k),
                args.seed,
                ROUNDS,
                offsets,
                budget_share,
            );
            out.setup_s.push(secs);
            served
        })
        .collect()
}

/// Runs `CLIENTS` client threads, each pulling unit indices from one
/// shared counter, until the window has closed and the first `cycle`
/// units (the scored ones) have been handed out.
fn run_clients<F>(maps: usize, cycle: usize, window: &Window, unit: F) -> ClientLog
where
    F: Fn(usize, &mut ClientLog) + Sync,
{
    let next = AtomicUsize::new(0);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut log = ClientLog::new(maps);
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= cycle && window.closed() {
                            break log;
                        }
                        unit(j, &mut log);
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut all = ClientLog::new(maps);
    for log in logs {
        all.merge(log);
    }
    all
}

/// Checks the bench's step-kind split against each service's counters.
fn audit_step_kinds(out: &mut Outcome, fixtures: &[Served], all: &ClientLog) -> Vec<ServeStats> {
    let stats: Vec<ServeStats> = fixtures.iter().map(|s| s.service.stats()).collect();
    let mut mismatches = Vec::new();
    for (k, (st, c)) in stats.iter().zip(&all.per_map).enumerate() {
        let served =
            [st.frames + st.frames_rejected, st.frames_tracked, st.relocalizations_succeeded];
        let seen = [c[0], c[1], c[2]];
        if served != seen || st.relocalizations_attempted != c[3] {
            mismatches.push(format!(
                "circuit {k}: bench ops/tracked/relocalized/cold {:?}+{} vs service {:?}+{}",
                seen, c[3], served, st.relocalizations_attempted
            ));
        }
    }
    out.check(
        "self-audit: step-kind split of the bench's spans matches ServeStats",
        mismatches.is_empty(),
        if mismatches.is_empty() {
            format!("{} circuits agree", stats.len())
        } else {
            mismatches.join("; ")
        },
    );
    stats
}

/// Per-layer serving rows shared by both workloads.
fn serve_layers(out: &mut Outcome, all: &ClientLog, stats: &[ServeStats]) {
    let ops = all.log.attempted().max(1) as f64;
    let pct = |v: &[f64], q: f64| quantile(v, q).unwrap_or(0.0);
    out.layer("serve.track_ms.p50", median(&all.track_ms));
    out.layer("serve.track_ms.p99", pct(&all.track_ms, 0.99));
    out.layer("serve.cold_ms.p50", median(&all.cold_ms));
    out.layer("serve.cold_ms.p99", pct(&all.cold_ms, 0.99));
    let traced = all.traced_ops.max(1) as f64;
    out.layer("serve.ne_ms", all.ne_ms / traced);
    out.layer("serve.descriptor_ms", all.descriptor_ms / traced);
    if !all.read_ms.is_empty() {
        out.layer(
            "serve.query_batch_ms",
            all.read_ms.iter().sum::<f64>() / all.read_ms.len() as f64,
        );
        out.layer("serve.read_ms.p50", median(&all.read_ms));
        out.layer("serve.read_ms.p99", pct(&all.read_ms, 0.99));
    }
    let sum = |f: fn(&ServeStats) -> usize| stats.iter().map(f).sum::<usize>() as f64;
    let attempted = sum(|s| s.relocalizations_attempted);
    if attempted > 0.0 {
        out.layer("serve.reloc_accept_ratio", sum(|s| s.relocalizations_succeeded) / attempted);
    }
    let lookups = sum(|s| s.tiles.hits + s.tiles.misses);
    if lookups > 0.0 {
        out.layer("serve.tile_hit_ratio", sum(|s| s.tiles.hits) / lookups);
    }
    out.layer("serve.tile_loads_per_op", sum(|s| s.tiles.loads) / ops);
    out.layer("serve.tile_evictions_per_op", sum(|s| s.tiles.evictions) / ops);
    let peak = stats.iter().map(|s| s.tiles.peak_resident_bytes).max().unwrap_or(0);
    out.layer("serve.peak_resident_mb", peak as f64 / (1024.0 * 1024.0));
}

fn finish(out: &mut Outcome, all: ClientLog, window: &Window) {
    out.window_s = window.elapsed_s();
    out.traced_ms = all.traced_ms;
    out.untraced_ms = all.untraced_ms;
    out.log = all.log;
}

pub fn run_track(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let fixtures = setup(args, TRACK_MAPS, Offsets::Drive, None, &mut out);
    let scripts: Vec<(usize, usize, usize)> = (0..ROUNDS)
        .flat_map(|r| (0..TRACK_MAPS).flat_map(move |k| SEAMS.iter().map(move |&s| (k, r, s))))
        .collect();
    // The scored scripts' answers from the concurrent run, by script.
    let recorded: Mutex<BTreeMap<usize, Vec<Answer>>> = Mutex::new(BTreeMap::new());

    let window = Window::open(args.seconds);
    let all = run_clients(TRACK_MAPS, scripts.len(), &window, |j, log| {
        let (k, r, start) = scripts[j % scripts.len()];
        let served = &fixtures[k];
        let scored = j < scripts.len();
        // Alternate cycles replay the same scripts, so traced and
        // untraced latencies compare like for like.
        let traced = args.trace && (j / scripts.len()) % 2 == 1;
        let mut session = match served.service.open_session() {
            Ok(s) => s,
            Err(_) => {
                log.log.reject(0.0, true, scored);
                return;
            }
        };
        let mut answers = Vec::with_capacity(TRACK_STEPS + 1);
        for f in start..=start + TRACK_STEPS {
            let answer = log.localize(served, k, r, f, &mut session, scored, traced, args.trace);
            if let Answer::Relocalized(pose) | Answer::Tracked(pose, _) = answer {
                log.read(&session, &pose);
            }
            answers.push(answer);
        }
        if scored {
            recorded.lock().expect("answer table").insert(j, answers);
        }
    });
    let stats = audit_step_kinds(&mut out, &fixtures, &all);
    out.check(
        "batched reads equal per-element queries on the pinned session",
        all.read_mismatches == 0 && all.reads_checked > 0,
        format!("{} reads checked, {} differing", all.reads_checked, all.read_mismatches),
    );
    if args.trace {
        serve_layers(&mut out, &all, &stats);
    }
    finish(&mut out, all, &window);

    // Serial replay of the first script on a fresh session of the same
    // service: the 2-client answers must be bit-identical.
    let recorded = recorded.into_inner().expect("answer table");
    let (k, r, start) = scripts[0];
    let served = &fixtures[k];
    let mut session = served.service.open_session().expect("admission for the serial replay");
    let mut replay = ClientLog::new(fixtures.len());
    let replayed: Vec<Answer> = (start..=start + TRACK_STEPS)
        .map(|f| replay.localize(served, k, r, f, &mut session, false, false, false))
        .collect();
    drop(session);
    let first = recorded.get(&0).map_or(&[][..], Vec::as_slice);
    out.check(
        "2-client script answers are bit-identical to a serial 1-client replay",
        first.len() == replayed.len() && first.iter().zip(&replayed).all(|(a, b)| a.same(b)),
        format!(
            "script at seam frame {start}: {} answers recorded, {} replayed",
            first.len(),
            replayed.len()
        ),
    );
    if args.trace {
        shadow_pipeline(&mut out, &fixtures, &scripts, &recorded);
    }
    out
}

/// Replays the scored scripts' tracked ticks through the pipeline layer
/// (the calls a tracked tick makes, with the session's own velocity
/// prior) to decompose a tracked tick into core and pipeline rows. Each
/// shadow registration must reproduce the served relative motion bit for
/// bit.
fn shadow_pipeline(
    out: &mut Outcome,
    fixtures: &[Served],
    scripts: &[(usize, usize, usize)],
    recorded: &BTreeMap<usize, Vec<Answer>>,
) {
    let mut sums = LayerSums::default();
    let mut diverged = 0usize;
    let mut scratch = PrepareScratch::new();
    for (j, answers) in recorded {
        let (k, r, start) = scripts[*j];
        let served = &fixtures[k];
        let epoch = served.service.current_epoch().expect("an installed epoch");
        let cfg = epoch.registration_config();
        let mut prev: Option<(PreparedFrame, Duration)> = None;
        let mut velocity: Option<RigidTransform> = None;
        for (f, answer) in (start..).zip(answers) {
            let t0 = Instant::now();
            let mut cur = prepare_frame_with(served.circuit.rounds[r].frame(f), cfg, &mut scratch)
                .expect("preparing a held-out scan that prepared when served");
            let prep = t0.elapsed();
            velocity = match (answer, prev.take()) {
                (Answer::Tracked(_, served_motion), Some((mut target, carried))) => {
                    let t1 = Instant::now();
                    let result =
                        register_prepared_with_prior(&mut cur, &mut target, cfg, velocity.as_ref());
                    let matching = t1.elapsed();
                    match result {
                        Ok(result) => {
                            sums.add(prep + carried, matching, &result);
                            diverged += usize::from(!same_bits(&result.transform, served_motion));
                            prev = Some((cur, Duration::ZERO));
                            Some(result.transform)
                        }
                        Err(_) => {
                            diverged += 1;
                            None
                        }
                    }
                }
                (Answer::Relocalized(_), _) => {
                    prev = Some((cur, prep));
                    None
                }
                _ => None,
            };
        }
    }
    let rows = sums.fold(out);
    out.check(
        "self-audit: pipeline-layer shadow of each tracked tick reproduces the served motion",
        diverged == 0,
        format!("{} tracked ticks replayed, {diverged} diverged", sums.ops),
    );
    let op = (sums.prepare_ms + sums.match_ms) / sums.ops.max(1) as f64;
    let leaders = out.leaders(&rows, op);
    out.notes.push(format!(
        "hypothesis 'RPCE leads a tracked tick': {} (top row {}, shadow tick {:.3} ms)",
        if leaders[0] == "pipeline.rpce_ms" { "confirmed" } else { "refuted" },
        leaders[0],
        op
    ));
}

pub fn run_cold(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let fixtures = setup(args, COLD_MAPS, Offsets::Spot, Some(COLD_BUDGET_SHARE), &mut out);
    let frames = fixtures[0].circuit.mapped();
    let cycle = ROUNDS * COLD_MAPS * frames;
    let unit =
        |j: usize| (j % COLD_MAPS, (j / (COLD_MAPS * frames)) % ROUNDS, (j / COLD_MAPS) % frames);
    // The scored answers, for the residency check below.
    let answers: Mutex<BTreeMap<usize, Answer>> = Mutex::new(BTreeMap::new());

    let window = Window::open(args.seconds);
    let all = run_clients(COLD_MAPS, cycle, &window, |j, log| {
        let (k, r, f) = unit(j);
        let served = &fixtures[k];
        let scored = j < cycle;
        // Rounds are equally hard, so the traced round's latency is
        // comparable to the untraced one's.
        let traced = args.trace && r == 1;
        let mut session = match served.service.open_session() {
            Ok(s) => s,
            Err(_) => {
                log.log.reject(0.0, true, scored);
                return;
            }
        };
        let answer = log.localize(served, k, r, f, &mut session, scored, traced, args.trace);
        if scored {
            answers.lock().expect("answer table").insert(j, answer);
        }
    });
    let stats = audit_step_kinds(&mut out, &fixtures, &all);

    // Residency must not change answers: replay a spread of the scored
    // cold starts on unbounded services over the same epochs.
    let answers = answers.into_inner().expect("answer table");
    let unbounded: Vec<ShardService> = fixtures
        .iter()
        .map(|s| {
            let epoch = s.service.current_epoch().expect("an installed epoch");
            ShardService::with_epoch(epoch, ShardConfig::default())
        })
        .collect();
    let mut differing = 0usize;
    let sample: Vec<usize> = (0..RESIDENCY_SAMPLE).map(|i| i * cycle / RESIDENCY_SAMPLE).collect();
    for &j in &sample {
        let (k, r, f) = unit(j);
        let mut session = unbounded[k].open_session().expect("admission for the replay");
        let mut replay = ClientLog::new(COLD_MAPS);
        let answer = replay.localize(&fixtures[k], k, r, f, &mut session, false, false, false);
        differing += usize::from(!answers.get(&j).is_some_and(|a| a.same(&answer)));
    }
    out.check(
        "budgeted cold starts are bit-identical to cold starts with every tile resident",
        differing == 0,
        format!("{} cold starts replayed, {differing} differing", sample.len()),
    );
    let loads: usize = stats.iter().map(|s| s.tiles.loads).sum();
    let evictions: usize = stats.iter().map(|s| s.tiles.evictions).sum();
    out.notes.push(format!(
        "tiles: {loads} loads, {evictions} evictions; budget {:.0}% of {:.0} KiB fully resident",
        100.0 * COLD_BUDGET_SHARE,
        fixtures.iter().map(|s| s.full_resident_bytes).sum::<usize>() as f64
            / fixtures.len() as f64
            / 1024.0
    ));
    if args.trace {
        serve_layers(&mut out, &all, &stats);
        let traced = all.traced_ops.max(1) as f64;
        let (ne, desc) = (all.ne_ms / traced, all.descriptor_ms / traced);
        let op = all.log.op_ms.iter().sum::<f64>() / all.log.op_ms.len().max(1) as f64;
        let rows = [
            ("serve.ne_ms", ne),
            ("serve.descriptor_ms", desc),
            ("relocalization and tiles (rest of the op)", (op - ne - desc).max(0.0)),
        ];
        out.leaders(&rows, op);
    }
    finish(&mut out, all, &window);
    out
}
