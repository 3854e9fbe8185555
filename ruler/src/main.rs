//! One ruler for the tigris stack: closed-loop workloads driven only
//! through the `tigris` facade's public API, end-to-end metrics from
//! untraced runs and a per-layer table from traced ones.
//!
//! ```text
//! ruler --workload <name> --seed <n> --seconds <s> --trace <0|1> [--fixture-seed <n>]
//! ```
//!
//! Workloads: `odometry_dense`, `serve_track`, `serve_cold`,
//! `map_live` (see `README.md` next to this package). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A failed output check prints
//! `"correct": false` and exits with code 1.

mod fixture;
mod layers;
mod map_live;
mod odometry;
mod report;
mod serve;
mod stats;

use std::process::ExitCode;

use report::{end_to_end, json_line, render_table, Outcome, PER_LAYER};

/// The workloads, in the order the README documents them.
pub const WORKLOADS: [&str; 4] = ["odometry_dense", "serve_track", "serve_cold", "map_live"];

/// The recorded fixture seed every workload's worlds are built from.
pub const DEFAULT_FIXTURE_SEED: u64 = 7;
/// The held-out fixture seed later performance claims must also hold on.
pub const HELD_OUT_FIXTURE_SEED: u64 = 1009;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed of the run's held-out traffic.
    pub seed: u64,
    /// Seed of the worlds and maps (see `fixture`).
    pub fixture_seed: u64,
    /// Length of the measured window (seconds).
    pub seconds: f64,
    /// Traced run: per-layer table instead of end-to-end metrics.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut fixture_seed = DEFAULT_FIXTURE_SEED;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--fixture-seed" => {
                fixture_seed = value.parse::<u64>().map_err(|e| format!("--fixture-seed: {e}"))?
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        fixture_seed,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Host facts this binary can see for itself.
fn print_host_facts(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let features: Vec<&str> = [
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.1", cfg!(target_feature = "sse4.1")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    let tigris_env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("TIGRIS_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "ruler: workload={} seed={} fixture_seed={} (recorded {DEFAULT_FIXTURE_SEED}, held-out {HELD_OUT_FIXTURE_SEED}) seconds={} trace={}",
        args.workload,
        args.seed,
        args.fixture_seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc={nproc} arch={} target_features=[{}] scalar_kernels={} tigris={}",
        std::env::consts::ARCH,
        features.join(","),
        !tigris::core::simd::wide_kernels_selected(),
        tigris::VERSION
    );
    println!(
        "effective TIGRIS_* env: {}",
        if tigris_env.is_empty() { "(none)".to_string() } else { tigris_env.join(" ") }
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("ruler: {msg}");
            return ExitCode::from(2);
        }
    };
    print_host_facts(&args);
    let mut outcome: Outcome = match args.workload.as_str() {
        "odometry_dense" => odometry::run(&args),
        "serve_track" => serve::run_track(&args),
        "serve_cold" => serve::run_cold(&args),
        "map_live" => map_live::run(&args),
        _ => unreachable!("validated in parse_args"),
    };
    let peak = stats::peak_rss_mb();
    let e2e = end_to_end(&outcome, peak);
    let (scored, accepted, wrong) = (outcome.log.scored, outcome.log.accepted, outcome.log.wrong);
    outcome.layer("ops.failed_share", (scored - accepted) as f64 / scored.max(1) as f64);
    outcome.layer("ops.wrong_share", wrong as f64 / accepted.max(1) as f64);
    outcome.layer("ops.trans_err_m.p50", stats::median(&outcome.log.trans_err_m));
    outcome.layer("ops.rot_err_deg.p50", stats::median(&outcome.log.rot_err_deg));
    if args.trace {
        let traced = stats::median(&outcome.traced_ms);
        let untraced = stats::median(&outcome.untraced_ms);
        let overhead = if untraced > 0.0 { traced / untraced - 1.0 } else { 0.0 };
        outcome.layer("obs.trace_overhead_share", overhead);
        outcome.notes.push(format!(
            "tracing overhead: traced op p50 {traced:.3} ms (n = {}) vs untraced {untraced:.3} ms (n = {})",
            outcome.traced_ms.len(),
            outcome.untraced_ms.len()
        ));
    }
    outcome.check(
        "at least one op attempted",
        outcome.log.attempted() > 0,
        format!("{} ops", outcome.log.attempted()),
    );
    print!("{}", render_table(&args.workload, &outcome, &e2e, args.trace));

    let correct = outcome.checks.iter().all(|c| c.passed);
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, outcome.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        e2e
    };
    println!("{}", json_line(correct, outcome.log.attempted(), outcome.log.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
