//! `odometry_dense`: one client streams dense scans through frame
//! preparation and prior-seeded pairwise registration — the paper's
//! dense-frame case, with serve, map and tiles bypassed.

use std::time::{Duration, Instant};

use tigris::geom::RigidTransform;
use tigris::pipeline::{
    prepare_frame_with, register_prepared_with_prior, PrepareScratch, RegistrationConfig,
};

use crate::fixture::{dense_sequence, sub_seed};
use crate::layers::LayerSums;
use crate::report::Outcome;
use crate::stats::{median, ms, pose_error, same_bits, Window, MIN_OPS};
use crate::Args;

/// Dense sequences generated per run; passes cycle over them.
const SEQUENCES: usize = 3;
/// Stated error envelope: the median frame error must stay within these…
const ENVELOPE_P50_TRANS_M: f64 = 0.10;
const ENVELOPE_P50_ROT_DEG: f64 = 0.5;
/// …and no frame may exceed these.
const ENVELOPE_MAX_TRANS_M: f64 = 1.0;
const ENVELOPE_MAX_ROT_DEG: f64 = 5.0;

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut seqs = Vec::with_capacity(SEQUENCES);
    for k in 0..SEQUENCES {
        let t0 = Instant::now();
        seqs.push(dense_sequence(sub_seed(args.fixture_seed, k), args.seed));
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let cfg = RegistrationConfig::default();

    let mut scratch = PrepareScratch::new();
    // The first pass over each sequence, for the replay check.
    let mut first: Vec<Option<Vec<Option<RigidTransform>>>> = vec![None; SEQUENCES];
    let mut replay_mismatches = 0usize;
    let mut replays = 0usize;
    let mut sums = LayerSums::default();
    let mut max_err = (0.0f64, 0.0f64);

    let window = Window::open(args.seconds);
    let mut pass = 0usize;
    // Passes always complete, so every run measures whole streams. The
    // first pass over every sequence is scored, and the window stays
    // open until `MIN_OPS` ops have run.
    while pass < SEQUENCES || !window.closed() || out.log.attempted() < MIN_OPS {
        let k = pass % SEQUENCES;
        let seq = &seqs[k];
        let scored = pass < SEQUENCES;
        // Alternate cycles over the sequences replay the same inputs, so
        // traced and untraced latencies compare like for like.
        let traced = args.trace && (pass / SEQUENCES) % 2 == 1;
        let t = Instant::now();
        let mut prev = prepare_frame_with(seq.frame(0), &cfg, &mut scratch)
            .expect("preparing a generated dense frame");
        // The stream's first frame is billed to the first result.
        let mut carried = t.elapsed();
        let mut velocity: Option<RigidTransform> = None;
        let mut transforms = Vec::with_capacity(seq.len() - 1);
        for i in 1..seq.len() {
            let t0 = Instant::now();
            let prepared = prepare_frame_with(seq.frame(i), &cfg, &mut scratch);
            let t1 = Instant::now();
            let matched = prepared.map(|mut cur| {
                let r = register_prepared_with_prior(&mut cur, &mut prev, &cfg, velocity.as_ref());
                (cur, r)
            });
            let t2 = Instant::now();
            let op_ms = ms(t2 - t0);
            let result = match matched {
                Ok((cur, r)) => {
                    prev = cur;
                    r
                }
                Err(err) => Err(err),
            };
            match result {
                Ok(r) => {
                    let err = pose_error(&r.transform, &seq.ground_truth_relative(i - 1));
                    if scored {
                        max_err = (max_err.0.max(err.0), max_err.1.max(err.1));
                    }
                    out.log.accept(op_ms, Some(err), scored);
                    if traced {
                        sums.add(t1 - t0 + carried, t2 - t1, &r);
                    }
                    velocity = Some(r.transform);
                    transforms.push(Some(r.transform));
                }
                Err(_) => {
                    out.log.reject(op_ms, true, scored);
                    velocity = None;
                    transforms.push(None);
                }
            }
            carried = Duration::ZERO;
            if args.trace {
                if traced { &mut out.traced_ms } else { &mut out.untraced_ms }.push(op_ms);
            }
        }
        match &first[k] {
            None => first[k] = Some(transforms),
            Some(reference) => {
                replays += 1;
                let same = reference.iter().zip(&transforms).all(|(a, b)| match (a, b) {
                    (Some(a), Some(b)) => same_bits(a, b),
                    (None, None) => true,
                    _ => false,
                });
                replay_mismatches += usize::from(!same);
            }
        }
        pass += 1;
    }
    out.window_s = window.elapsed_s();

    // ---- Output checks ------------------------------------------------
    let p50 = (median(&out.log.trans_err_m), median(&out.log.rot_err_deg));
    out.check(
        "odometry error envelope",
        out.log.accepted > 0
            && p50.0 <= ENVELOPE_P50_TRANS_M
            && p50.1 <= ENVELOPE_P50_ROT_DEG
            && max_err.0 <= ENVELOPE_MAX_TRANS_M
            && max_err.1 <= ENVELOPE_MAX_ROT_DEG,
        format!(
            "p50 {:.4} m / {:.4} deg (<= {ENVELOPE_P50_TRANS_M} m / {ENVELOPE_P50_ROT_DEG} deg), \
             max {:.4} m / {:.4} deg (<= {ENVELOPE_MAX_TRANS_M} m / {ENVELOPE_MAX_ROT_DEG} deg)",
            p50.0, p50.1, max_err.0, max_err.1
        ),
    );
    out.check(
        "repeated passes are bit-identical",
        replay_mismatches == 0,
        format!("{replays} repeated passes, {replay_mismatches} differing"),
    );

    if args.trace {
        let rows = sums.fold(&mut out);
        let op = (sums.prepare_ms + sums.match_ms) / sums.ops.max(1) as f64;
        let leaders = out.leaders(&rows, op);
        let kd_share = sums.kd_search_ms / sums.ops.max(1) as f64 / op.max(1e-12);
        let front_end = ["pipeline.normals_ms", "pipeline.descriptors_ms"];
        let confirmed = front_end.contains(&leaders[0].as_str()) && kd_share >= 0.5;
        out.notes.push(format!(
            "hypothesis 'front-end radius search leads a dense frame': {} (top row {}, KD search {:.0}% of the op)",
            if confirmed { "confirmed" } else { "refuted" },
            leaders[0],
            100.0 * kd_share
        ));
    }
    out
}
