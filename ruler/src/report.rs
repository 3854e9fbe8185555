//! What one run reports: the metric catalogs, each workload's outcome,
//! and the rendering of both the human-readable table and the final
//! JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median, quantile, supported_tail, OpLog};

/// End-to-end metrics, printed by every untraced run, in order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
    ("accept_share", "share"),
    ("right_share", "share"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run, in order. A layer
/// the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.kd_search_ms", "ms"),
    ("core.kd_build_ms", "ms"),
    ("core.queries_per_op", "count"),
    ("core.nodes_per_query", "count"),
    ("core.points_per_query", "count"),
    ("pipeline.prepare_ms", "ms"),
    ("pipeline.match_ms", "ms"),
    ("pipeline.normals_ms", "ms"),
    ("pipeline.keypoints_ms", "ms"),
    ("pipeline.descriptors_ms", "ms"),
    ("pipeline.kpce_ms", "ms"),
    ("pipeline.reject_ms", "ms"),
    ("pipeline.rpce_ms", "ms"),
    ("pipeline.solve_ms", "ms"),
    ("pipeline.unattributed_ms", "ms"),
    ("pipeline.icp_iterations", "count"),
    ("pipeline.scratch_bytes_grown", "bytes"),
    ("serve.track_ms.p50", "ms"),
    ("serve.track_ms.p99", "ms"),
    ("serve.cold_ms.p50", "ms"),
    ("serve.cold_ms.p99", "ms"),
    ("serve.ne_ms", "ms"),
    ("serve.descriptor_ms", "ms"),
    ("serve.query_batch_ms", "ms"),
    ("serve.read_ms.p50", "ms"),
    ("serve.read_ms.p99", "ms"),
    ("serve.reloc_accept_ratio", "share"),
    ("serve.tile_hit_ratio", "share"),
    ("serve.tile_loads_per_op", "count"),
    ("serve.tile_evictions_per_op", "count"),
    ("serve.peak_resident_mb", "MiB"),
    ("serve.install_epoch_ms", "ms"),
    ("map.push_ms", "ms"),
    ("map.publish_ms", "ms"),
    ("map.payloads_copied_per_publish", "count"),
    ("map.closures_accepted", "count"),
    ("map.optimizations", "count"),
    ("ops.failed_share", "share"),
    ("ops.wrong_share", "share"),
    ("ops.trans_err_m.p50", "m"),
    ("ops.rot_err_deg.p50", "deg"),
    ("obs.trace_overhead_share", "share"),
];

/// One output check: a failed check fails the run.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The evidence, one line.
    pub detail: String,
}

/// Everything a workload hands back to the report.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per-op end-to-end accounting.
    pub log: OpLog,
    /// Seconds the measured window lasted.
    pub window_s: f64,
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Per-layer values by catalog name (absent: 0).
    pub layers: BTreeMap<&'static str, f64>,
    /// Output checks and self-audits.
    pub checks: Vec<Check>,
    /// Extra report lines (leading rows, hypotheses, counts).
    pub notes: Vec<String>,
    /// Op latencies of the traced units of a traced run (ms).
    pub traced_ms: Vec<f64>,
    /// Op latencies of the untraced units of a traced run (ms).
    pub untraced_ms: Vec<f64>,
}

impl Outcome {
    /// Records a check.
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push(Check { name: name.to_string(), passed, detail });
    }

    /// Sets a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown layer metric {name}");
        self.layers.insert(name, value);
    }

    /// Names the two largest of `rows` (name, ms per op) against the op
    /// total, as a report line.
    pub fn leaders(&mut self, rows: &[(&str, f64)], op_ms: f64) -> Vec<String> {
        let mut sorted: Vec<(&str, f64)> = rows.to_vec();
        sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top: Vec<String> = sorted
            .iter()
            .take(2)
            .map(|(name, v)| format!("{name} {v:.3} ms ({:.0}%)", 100.0 * v / op_ms.max(1e-12)))
            .collect();
        self.notes.push(format!("leading rows: {}", top.join(", ")));
        sorted.iter().take(2).map(|(n, _)| n.to_string()).collect()
    }
}

/// The end-to-end metric values of an outcome, in catalog order.
pub fn end_to_end(outcome: &Outcome, peak_rss_mb: f64) -> Vec<(&'static str, f64, &'static str)> {
    let log = &outcome.log;
    let share = |num: usize, den: usize| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => median(&outcome.setup_s),
            "op_ms.p50" => median(&log.op_ms),
            "op_ms.p90" => quantile(&log.op_ms, 0.90).unwrap_or(0.0),
            "ops_per_s" => log.attempted() as f64 / outcome.window_s.max(1e-9),
            "accept_share" => share(log.accepted, log.scored),
            "right_share" => share(log.accepted - log.wrong, log.accepted),
            "peak_rss_mb" => peak_rss_mb,
            other => unreachable!("unknown end-to-end metric {other}"),
        }
    };
    END_TO_END.iter().map(|&(name, unit)| (name, value(name), unit)).collect()
}

/// The human-readable report body for one workload.
pub fn render_table(
    workload: &str,
    outcome: &Outcome,
    e2e: &[(&str, f64, &str)],
    traced: bool,
) -> String {
    let log = &outcome.log;
    let mut out = String::new();
    let _ = writeln!(out, "== {workload}: {} ops in {:.2} s", log.attempted(), outcome.window_s);
    let tail = supported_tail(log.attempted());
    let _ = writeln!(
        out,
        "   highest supported op percentile: {} (n = {})",
        tail.map_or("none", |t| t.0),
        log.attempted()
    );
    if let Some((label, q)) = tail {
        let _ =
            writeln!(out, "   op_ms.{label} = {:.3} ms", quantile(&log.op_ms, q).unwrap_or(0.0));
    }
    let _ = writeln!(
        out,
        "   scored (first full cycle): {} ops; failed_share = {:.4} ({} without a pose), \
         wrong_share = {:.4} ({} of {} accepted); hard failures in the window: {}",
        log.scored,
        (log.scored - log.accepted) as f64 / log.scored.max(1) as f64,
        log.scored - log.accepted,
        log.wrong as f64 / log.accepted.max(1) as f64,
        log.wrong,
        log.accepted,
        log.failed
    );
    let _ = writeln!(out, "   setup samples (s): {:?}", outcome.setup_s);
    let _ = writeln!(out, "-- end-to-end");
    for (name, value, unit) in e2e {
        let _ = writeln!(out, "   {name:<20} {value:>14.4} {unit}");
    }
    if traced {
        let _ = writeln!(out, "-- per layer (unsuffixed _ms rows are means per op)");
        for (name, unit) in PER_LAYER {
            let value = outcome.layers.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(out, "   {name:<34} {value:>14.4} {unit}");
        }
    }
    for note in &outcome.notes {
        let _ = writeln!(out, "   {note}");
    }
    let _ = writeln!(out, "-- checks");
    for c in &outcome.checks {
        let verdict = if c.passed { "ok  " } else { "FAIL" };
        let _ = writeln!(out, "   [{verdict}] {}: {}", c.name, c.detail);
    }
    out
}

/// The final JSON line.
pub fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { format!("{value:?}") } else { "null".to_string() };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
