//! Per-op layer accounting over calls into the pipeline layer: the
//! bench's own prepare / match spans beside the `StageProfile` and
//! `SearchStats` each registration returns.

use std::time::Duration;

use tigris::pipeline::{RegistrationResult, Stage};

use crate::report::Outcome;
use crate::stats::ms;

/// Clock slack allowed when checking that profiled stage time fits in
/// the bench's own spans (ms).
const AUDIT_SLACK_MS: f64 = 0.05;

/// Per-op layer sums of the traced passes.
#[derive(Default)]
pub struct LayerSums {
    pub ops: usize,
    pub prepare_ms: f64,
    pub match_ms: f64,
    stage_ms: [f64; 7],
    pub kd_search_ms: f64,
    kd_build_ms: f64,
    queries: u64,
    tree_nodes: u64,
    points: u64,
    icp_iterations: usize,
    scratch_bytes_grown: u64,
    unattributed_ms: f64,
    audit_violations: usize,
}

impl LayerSums {
    /// Folds one op: its spans (prepare includes the target's preparation
    /// when that was billed to this result) and its returned profile.
    pub fn add(&mut self, prepare: Duration, matching: Duration, result: &RegistrationResult) {
        let p = &result.profile;
        let stages: Vec<f64> = Stage::ALL.iter().map(|&s| ms(p.time(s))).collect();
        let attributed = stages.iter().sum::<f64>() + ms(p.kd_build_time);
        let spans = ms(prepare) + ms(matching);
        self.ops += 1;
        self.prepare_ms += ms(prepare);
        self.match_ms += ms(matching);
        for (sum, v) in self.stage_ms.iter_mut().zip(&stages) {
            *sum += v;
        }
        self.kd_search_ms += ms(p.kd_search_time);
        self.kd_build_ms += ms(p.kd_build_time);
        self.queries += p.search_stats.queries;
        self.tree_nodes += p.search_stats.tree_nodes_visited;
        self.points += p.search_stats.total_nodes_visited();
        self.icp_iterations += result.icp_iterations;
        self.scratch_bytes_grown += p.scratch_bytes_grown;
        self.unattributed_ms += spans - attributed;
        self.audit_violations += usize::from(attributed > spans + AUDIT_SLACK_MS);
    }

    /// Writes the core and pipeline rows (means per op) into `out`,
    /// records the self-audit, and returns the stage rows the op's time
    /// divides into.
    pub fn fold(&self, out: &mut Outcome) -> Vec<(&'static str, f64)> {
        let n = self.ops.max(1) as f64;
        let q = self.queries.max(1) as f64;
        let stage = |s: Stage| {
            self.stage_ms[Stage::ALL.iter().position(|&x| x == s).expect("a listed stage")] / n
        };
        out.layer("core.kd_search_ms", self.kd_search_ms / n);
        out.layer("core.kd_build_ms", self.kd_build_ms / n);
        out.layer("core.queries_per_op", self.queries as f64 / n);
        out.layer("core.nodes_per_query", self.tree_nodes as f64 / q);
        out.layer("core.points_per_query", self.points as f64 / q);
        out.layer("pipeline.prepare_ms", self.prepare_ms / n);
        out.layer("pipeline.match_ms", self.match_ms / n);
        let rows = vec![
            ("pipeline.normals_ms", stage(Stage::NormalEstimation)),
            ("pipeline.keypoints_ms", stage(Stage::KeypointDetection)),
            ("pipeline.descriptors_ms", stage(Stage::DescriptorCalculation)),
            ("pipeline.kpce_ms", stage(Stage::Kpce)),
            ("pipeline.reject_ms", stage(Stage::CorrespondenceRejection)),
            ("pipeline.rpce_ms", stage(Stage::Rpce)),
            ("pipeline.solve_ms", stage(Stage::ErrorMinimization)),
            ("pipeline.unattributed_ms", self.unattributed_ms / n),
        ];
        for &(name, v) in &rows {
            out.layer(name, v);
        }
        out.layer("pipeline.icp_iterations", self.icp_iterations as f64 / n);
        out.layer("pipeline.scratch_bytes_grown", self.scratch_bytes_grown as f64);
        out.check(
            "self-audit: profiled stages + index builds fit in prepare + match spans",
            self.audit_violations == 0 && self.ops > 0,
            format!("{} traced ops, {} over their spans", self.ops, self.audit_violations),
        );
        rows
    }
}
