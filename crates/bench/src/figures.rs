//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each `figN` function runs the experiment and returns structured rows
//! (so tests can assert the paper's qualitative shape) while printing the
//! same table the paper plots. See DESIGN.md §4 for the experiment index
//! and EXPERIMENTS.md for recorded paper-vs-measured comparisons.

use std::time::Instant;

use tigris_accel::area::SramSizing;
use tigris_accel::baseline::Workload;
use tigris_accel::{
    area_report, AccelBackend, AcceleratorConfig, BackendPolicy, BaselineModel, SearchKind,
};
use tigris_core::{ApproxConfig, KdTree, SearchIndex, SearchStats, TwoStageKdTree};
use tigris_geom::{PointCloud, RigidTransform, Vec3};
use tigris_pipeline::dse::{evaluate_design_points, pareto_frontier, DsePoint};
use tigris_pipeline::{DesignPoint, Injection, RegistrationConfig, Stage};

use crate::workload::{frame_pair, height_for_leaf_size, short_sequence};

// ---------------------------------------------------------------------------
// Fig. 3: DSE accuracy/time tradeoff + Pareto frontier
// ---------------------------------------------------------------------------

/// Fig. 3a/3b: evaluates DP1–DP8 on a synthetic sequence; returns the DSE
/// points and the indices of the Pareto frontier (translational axis).
pub fn fig3(frames: usize, seed: u64) -> (Vec<DsePoint>, Vec<usize>) {
    let seq = short_sequence(frames, seed);
    let gts: Vec<RigidTransform> =
        (0..seq.len() - 1).map(|i| seq.ground_truth_relative(i)).collect();
    let points = evaluate_design_points(seq.frames(), &gts);

    let tradeoff: Vec<(f64, f64)> =
        points.iter().map(|p| (p.translational_percent, p.time_per_pair.as_secs_f64())).collect();
    let pareto = pareto_frontier(&tradeoff);

    println!("== Fig. 3: accuracy vs. time (DP1-DP8) ==");
    println!(
        "{:<6} {:>11} {:>13} {:>11} {:>7}",
        "DP", "t-err (%)", "r-err (°/m)", "time (ms)", "Pareto"
    );
    for (i, p) in points.iter().enumerate() {
        println!(
            "{:<6} {:>11.2} {:>13.4} {:>11.1} {:>7}",
            p.label,
            p.translational_percent,
            p.rotational_deg_per_m,
            p.time_per_pair.as_secs_f64() * 1e3,
            if pareto.contains(&i) { "*" } else { "" }
        );
    }
    (points, pareto)
}

// ---------------------------------------------------------------------------
// Fig. 4: stage and kernel time distributions
// ---------------------------------------------------------------------------

/// Fig. 4a/4b rows for one design point.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Design-point label.
    pub label: String,
    /// Fraction of time per stage, in [`Stage::ALL`] order.
    pub stage_fractions: [f64; 7],
    /// Fraction of time in KD-tree search.
    pub kd_search_fraction: f64,
    /// Fraction of time in KD-tree construction.
    pub kd_build_fraction: f64,
}

/// Fig. 4a/4b: per-stage and per-kernel time distribution across DP1–DP8.
pub fn fig4(frames: usize, seed: u64) -> Vec<Fig4Row> {
    let points = fig3(frames, seed).0;
    println!("\n== Fig. 4a: stage time distribution ==");
    print!("{:<6}", "DP");
    for s in Stage::ALL {
        print!(" {:>8.8}", s.name());
    }
    println!();
    let mut rows = Vec::new();
    for p in &points {
        let mut fr = [0.0; 7];
        print!("{:<6}", p.label);
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            fr[i] = p.profile.fraction(s);
            print!(" {:>7.1}%", fr[i] * 100.0);
        }
        println!();
        rows.push(Fig4Row {
            label: p.label.clone(),
            stage_fractions: fr,
            kd_search_fraction: p.profile.kd_search_fraction(),
            kd_build_fraction: p.profile.kd_build_fraction(),
        });
    }
    println!("\n== Fig. 4b: KD-tree search vs. build vs. other ==");
    println!("{:<6} {:>10} {:>10} {:>10}", "DP", "search", "build", "other");
    for r in &rows {
        println!(
            "{:<6} {:>9.1}% {:>9.1}% {:>9.1}%",
            r.label,
            r.kd_search_fraction * 100.0,
            r.kd_build_fraction * 100.0,
            (1.0 - r.kd_search_fraction - r.kd_build_fraction) * 100.0
        );
    }
    rows
}

// ---------------------------------------------------------------------------
// Fig. 6: two-stage redundancy vs. leaf-set size
// ---------------------------------------------------------------------------

/// One leaf-set-size sample of Fig. 6.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// Mean leaf-set size.
    pub leaf_size: usize,
    /// Top-tree height used.
    pub top_height: usize,
    /// Redundancy ratio vs. the classic tree, NN search.
    pub nn_redundancy: f64,
    /// Redundancy ratio vs. the classic tree, radius search.
    pub radius_redundancy: f64,
    /// Absolute nodes visited, NN.
    pub nn_nodes: u64,
    /// Absolute nodes visited, radius.
    pub radius_nodes: u64,
}

/// Fig. 6a/6b: redundancy and total node visits as the leaf-set size grows
/// 1 → 32 (the paper's x-axis).
pub fn fig6(seed: u64) -> Vec<Fig6Row> {
    let (points, all_queries) = crate::workload::dense_frame_pair(seed);
    let queries: Vec<Vec3> = all_queries.into_iter().step_by(16).collect();
    let radius = 0.6;

    let classic = KdTree::build(&points);
    let mut base_nn = SearchStats::new();
    let mut base_radius = SearchStats::new();
    for &q in &queries {
        classic.nn_with_stats(q, &mut base_nn);
        classic.radius_with_stats(q, radius, &mut base_radius);
    }

    println!(
        "== Fig. 6: two-stage KD-tree redundancy (n = {}, {} queries) ==",
        points.len(),
        queries.len()
    );
    println!(
        "{:>9} {:>7} {:>12} {:>12} {:>14} {:>14}",
        "leaf-set", "height", "NN redund.", "rad redund.", "NN nodes", "rad nodes"
    );
    let mut rows = Vec::new();
    for leaf_size in [1usize, 2, 4, 8, 16, 32] {
        let h = height_for_leaf_size(points.len(), leaf_size);
        let tree = TwoStageKdTree::build(&points, h);
        let mut nn = SearchStats::new();
        let mut rad = SearchStats::new();
        for &q in &queries {
            // The decoupled traversal is what exposes query-level
            // parallelism — and what the paper's redundancy numbers count.
            tree.nn_decoupled_with_stats(q, &mut nn);
            tree.radius_with_stats(q, radius, &mut rad);
        }
        let row = Fig6Row {
            leaf_size,
            top_height: h,
            nn_redundancy: nn.redundancy_vs(&base_nn),
            radius_redundancy: rad.redundancy_vs(&base_radius),
            nn_nodes: nn.total_nodes_visited(),
            radius_nodes: rad.total_nodes_visited(),
        };
        println!(
            "{:>9} {:>7} {:>11.1}x {:>11.1}x {:>14} {:>14}",
            row.leaf_size,
            row.top_height,
            row.nn_redundancy,
            row.radius_redundancy,
            row.nn_nodes,
            row.radius_nodes
        );
        rows.push(row);
    }
    rows
}

// ---------------------------------------------------------------------------
// Fig. 7: error-injection sensitivity
// ---------------------------------------------------------------------------

/// One injection sample of Fig. 7.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Which curve ("RPCE (dense)", "KPCE (sparse)" or "NE (dense)").
    pub curve: &'static str,
    /// The injection parameter (k for NN curves, r1 in meters for NE).
    pub parameter: f64,
    /// Resulting translational error, percent.
    pub translational_percent: f64,
}

/// Fig. 7a/7b: end-to-end registration error as errors are injected into
/// the RPCE and KPCE NN searches (k-th neighbor) and the NE radius search
/// (`<r1, r2>` shell).
pub fn fig7(seed: u64) -> Vec<Fig7Row> {
    let (source, target, gt) = frame_pair(seed);
    let source = PointCloud::from_points(source);
    let target = PointCloud::from_points(target);
    let base_cfg = RegistrationConfig::default();

    // Returns (final error %, initial-estimate error %).
    let eval = |cfg: &RegistrationConfig| -> (f64, f64) {
        match tigris_pipeline::register(&source, &target, cfg) {
            Ok(result) => {
                let dist = gt.translation_norm().max(0.01);
                let residual = gt.inverse() * result.transform;
                let init_residual = gt.inverse() * result.initial_transform;
                (
                    residual.translation_norm() / dist * 100.0,
                    init_residual.translation_norm() / dist * 100.0,
                )
            }
            Err(_) => (f64::NAN, f64::NAN),
        }
    };

    let mut rows = Vec::new();
    println!("== Fig. 7a: k-th-NN injection (RPCE dense vs. KPCE sparse) ==");
    println!(
        "{:>3} {:>16} {:>16}   (KPCE column = initial-estimate error: our ICP\n{:>41}",
        "k",
        "RPCE t-err (%)",
        "KPCE t-err (%)",
        "often rescues a bad init that the paper's cannot)"
    );
    for k in [1usize, 2, 3, 5, 7, 9] {
        let mut rpce_cfg = base_cfg.clone();
        rpce_cfg.inject_rpce = (k > 1).then_some(Injection::NnKth(k));
        let (rpce_err, _) = eval(&rpce_cfg);
        let mut kpce_cfg = base_cfg.clone();
        kpce_cfg.inject_kpce_kth = (k > 1).then_some(k);
        // The sparse stage's damage lands on the initial estimate; disable
        // the motion-prior gate so it is visible rather than clamped.
        kpce_cfg.max_initial_rotation = f64::INFINITY;
        kpce_cfg.max_initial_translation = f64::INFINITY;
        let (_, kpce_err) = eval(&kpce_cfg);
        println!("{:>3} {:>16.2} {:>16.2}", k, rpce_err, kpce_err);
        rows.push(Fig7Row {
            curve: "RPCE (dense)",
            parameter: k as f64,
            translational_percent: rpce_err,
        });
        rows.push(Fig7Row {
            curve: "KPCE (sparse)",
            parameter: k as f64,
            translational_percent: kpce_err,
        });
    }

    println!(
        "\n== Fig. 7b: <r1, r2> shell injection into NE (r = {:.2} m) ==",
        base_cfg.normal_radius
    );
    println!("{:>10} {:>16}", "r1 (m)", "NE t-err (%)");
    // Outer radius fixed at 1.25 r, inner swept upward (paper sweeps r1
    // with r2 above r).
    for r1_frac in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let mut cfg = base_cfg.clone();
        cfg.inject_ne = Some(Injection::RadiusShell { inner_frac: r1_frac, outer_frac: 1.25 });
        let (err, _) = eval(&cfg);
        println!("{:>10.2} {:>16.2}", r1_frac * base_cfg.normal_radius, err);
        rows.push(Fig7Row {
            curve: "NE (dense)",
            parameter: r1_frac * base_cfg.normal_radius,
            translational_percent: err,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Sec. 6.2: area analysis
// ---------------------------------------------------------------------------

/// Sec. 6.2 area table. Returns `(sram_mm2, logic_mm2)`.
pub fn area() -> (f64, f64) {
    let report = area_report(&AcceleratorConfig::paper(), &SramSizing::default());
    println!("== Sec. 6.2: area (64 RU / 32 SU / 32 PE per SU, 16 nm) ==");
    println!("SRAM:  {:>6.2} mm²  ({:.1}%)", report.sram_mm2, report.sram_fraction() * 100.0);
    println!(
        "Logic: {:>6.2} mm²  ({:.1}%)",
        report.logic_mm2,
        (1.0 - report.sram_fraction()) * 100.0
    );
    println!(
        "Total: {:>6.2} mm²   (paper: 8.38 SRAM / 7.19 logic, 53.8%/46.2%)",
        report.total_mm2()
    );
    (report.sram_mm2, report.logic_mm2)
}

// ---------------------------------------------------------------------------
// Fig. 11 workload plumbing
// ---------------------------------------------------------------------------

/// The KD-search workload of one design point: the NE radius queries and
/// RPCE NN queries of a frame pair.
pub struct DpSearchWorkload {
    /// Target (searched) points.
    pub points: Vec<Vec3>,
    /// NN queries (RPCE, one per source point per ICP iteration modeled).
    pub nn_queries: Vec<Vec3>,
    /// Radius queries (NE, one per target point).
    pub radius_queries: Vec<Vec3>,
    /// NE search radius for this design point.
    pub radius: f64,
}

/// Builds the per-DP search workload (DP4 uses a 0.30 m NE radius, DP7
/// 0.75 m — Sec. 6.3).
///
/// The NN stream models RPCE across several ICP iterations: the same
/// source points re-queried under a slowly converging transform. This
/// repetition is what the leader/follower approximation exploits (leader
/// buffers persist across iterations within a frame).
pub fn dp_workload(dp: DesignPoint, seed: u64) -> DpSearchWorkload {
    let (source, target, _) = frame_pair(seed);
    let cfg = dp.config();
    // Downsample as the pipeline would.
    let tgt = PointCloud::from_points(target).voxel_downsample(cfg.voxel_size.max(0.05));
    let src = PointCloud::from_points(source).voxel_downsample(cfg.voxel_size.max(0.05));
    let icp_iterations = 4usize;
    let mut nn_queries = Vec::with_capacity(src.len() * icp_iterations);
    for it in 0..icp_iterations {
        // Successive iterations move the source by a shrinking correction.
        let shift = Vec3::new(0.08 / (it + 1) as f64, -0.03 / (it + 1) as f64, 0.0);
        let moved = src.transformed(&RigidTransform::from_translation(shift * it as f64));
        nn_queries.extend_from_slice(moved.points());
    }
    DpSearchWorkload {
        points: tgt.points().to_vec(),
        nn_queries,
        radius_queries: tgt.points().to_vec(),
        radius: cfg.normal_radius,
    }
}

/// One system's measurement in the Fig. 11 comparison.
#[derive(Debug, Clone, Copy)]
pub struct Fig11Row {
    /// System label ("Base-KD", "Base-2SKD", "Acc-KD", "Acc-2SKD").
    pub system: &'static str,
    /// KD-search time, seconds.
    pub seconds: f64,
    /// Speedup over Base-KD.
    pub speedup: f64,
    /// Power, watts.
    pub power_watts: f64,
    /// Power reduction vs. Base-KD.
    pub power_reduction: f64,
}

/// Fig. 11: KD-search speedup and power for the four systems on one design
/// point's workload.
pub fn fig11_for(dp: DesignPoint, seed: u64) -> Vec<Fig11Row> {
    let w = dp_workload(dp, seed);
    let baseline = BaselineModel::default();

    // --- GPU baselines: characterize software search work.
    let classic = KdTree::build(&w.points);
    let mut classic_stats = SearchStats::new();
    for &q in &w.nn_queries {
        classic.nn_with_stats(q, &mut classic_stats);
    }
    for &q in &w.radius_queries {
        classic.radius_with_stats(q, w.radius, &mut classic_stats);
    }
    let base_kd = baseline.gpu(&Workload::from_stats(&classic_stats));

    let h = height_for_leaf_size(w.points.len(), 128);
    let two_stage = TwoStageKdTree::build(&w.points, h);
    let mut ts_stats = SearchStats::new();
    for &q in &w.nn_queries {
        two_stage.nn_with_stats(q, &mut ts_stats);
    }
    for &q in &w.radius_queries {
        two_stage.radius_with_stats(q, w.radius, &mut ts_stats);
    }
    let base_2skd = baseline.gpu(&Workload::from_stats(&ts_stats));

    // --- Accelerator on the original KD-tree: a top-tree deep enough that
    // leaf sets are ~1 (Acc-KD), vs. the co-designed height (Acc-2SKD).
    let deep_h = height_for_leaf_size(w.points.len(), 1);
    let deep_tree = TwoStageKdTree::build(&w.points, deep_h);
    let acc = |tree: &TwoStageKdTree| -> (f64, f64) {
        let (_, SimPair { nn, rad }) = run_sim_pair(AcceleratorConfig::paper(), &w, tree);
        let secs = nn.seconds + rad.seconds;
        let energy = nn.energy.total_joules() + rad.energy.total_joules();
        (secs, energy / secs)
    };
    let (acc_kd_s, acc_kd_w) = acc(&deep_tree);
    let (acc_2skd_s, acc_2skd_w) = acc(&two_stage);

    let cpu = baseline.cpu(&Workload::from_stats(&classic_stats));
    let rows = vec![
        Fig11Row {
            system: "CPU",
            seconds: cpu.seconds,
            speedup: base_kd.seconds / cpu.seconds,
            power_watts: cpu.power_watts,
            power_reduction: base_kd.power_watts / cpu.power_watts,
        },
        Fig11Row {
            system: "Base-KD",
            seconds: base_kd.seconds,
            speedup: 1.0,
            power_watts: base_kd.power_watts,
            power_reduction: 1.0,
        },
        Fig11Row {
            system: "Base-2SKD",
            seconds: base_2skd.seconds,
            speedup: base_kd.seconds / base_2skd.seconds,
            power_watts: base_2skd.power_watts,
            power_reduction: base_kd.power_watts / base_2skd.power_watts,
        },
        Fig11Row {
            system: "Acc-KD",
            seconds: acc_kd_s,
            speedup: base_kd.seconds / acc_kd_s,
            power_watts: acc_kd_w,
            power_reduction: base_kd.power_watts / acc_kd_w,
        },
        Fig11Row {
            system: "Acc-2SKD",
            seconds: acc_2skd_s,
            speedup: base_kd.seconds / acc_2skd_s,
            power_watts: acc_2skd_w,
            power_reduction: base_kd.power_watts / acc_2skd_w,
        },
    ];

    println!(
        "== Fig. 11 ({}, {}): KD-search speedup & power ==",
        dp.name(),
        if dp == DesignPoint::Dp7 { "accuracy-oriented" } else { "performance-oriented" }
    );
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>12}",
        "system", "time (ms)", "speedup", "power (W)", "power red."
    );
    for r in &rows {
        println!(
            "{:<10} {:>12.3} {:>9.1}x {:>10.1} {:>11.1}x",
            r.system,
            r.seconds * 1e3,
            r.speedup,
            r.power_watts,
            r.power_reduction
        );
    }
    rows
}

/// Fig. 11a + 11b: both design points.
pub fn fig11(seed: u64) -> (Vec<Fig11Row>, Vec<Fig11Row>) {
    let dp7 = fig11_for(DesignPoint::Dp7, seed);
    println!();
    let dp4 = fig11_for(DesignPoint::Dp4, seed);
    (dp7, dp4)
}

// ---------------------------------------------------------------------------
// Sec. 6.3: approximate search
// ---------------------------------------------------------------------------

/// Approximate-search results (Sec. 6.3 text).
#[derive(Debug, Clone, Copy)]
pub struct ApproxRow {
    /// Speedup of approximate over exact Acc-2SKD.
    pub speedup: f64,
    /// Fractional reduction in nodes visited.
    pub node_visit_reduction: f64,
    /// Follower rate (fraction of queries on the approximate path).
    pub follower_rate: f64,
    /// Mean absolute NN-distance inflation vs. exact, meters.
    pub mean_distance_inflation: f64,
}

/// Sec. 6.3: the approximate KD-tree search on the accelerator —
/// performance gain and accuracy cost vs. exact Acc-2SKD.
pub fn approx(seed: u64) -> ApproxRow {
    let w = dp_workload(DesignPoint::Dp7, seed);
    let h = height_for_leaf_size(w.points.len(), 128);
    let tree = TwoStageKdTree::build(&w.points, h);

    let (_, SimPair { nn: exact_nn, rad: exact_rad }) =
        run_sim_pair(AcceleratorConfig::paper(), &w, &tree);
    let approx_cfg =
        AcceleratorConfig { approx: Some(ApproxConfig::default()), ..AcceleratorConfig::paper() };
    let (_, SimPair { nn: approx_nn, rad: approx_rad }) = run_sim_pair(approx_cfg, &w, &tree);

    let exact_s = exact_nn.seconds + exact_rad.seconds;
    let approx_s = approx_nn.seconds + approx_rad.seconds;
    let exact_visits = exact_nn.leaf_points_scanned
        + exact_rad.leaf_points_scanned
        + exact_nn.nodes_expanded
        + exact_rad.nodes_expanded;
    let approx_visits = approx_nn.leaf_points_scanned
        + approx_rad.leaf_points_scanned
        + approx_nn.nodes_expanded
        + approx_rad.nodes_expanded;

    let mut inflation = 0.0;
    let mut n = 0usize;
    for (e, a) in exact_nn.nn_results.iter().zip(&approx_nn.nn_results) {
        if let (Some(e), Some(a)) = (e, a) {
            inflation += (a.distance() - e.distance()).max(0.0);
            n += 1;
        }
    }
    let row = ApproxRow {
        speedup: exact_s / approx_s,
        node_visit_reduction: 1.0 - approx_visits as f64 / exact_visits as f64,
        follower_rate: (approx_nn.follower_hits + approx_rad.follower_hits) as f64
            / (w.nn_queries.len() + w.radius_queries.len()) as f64,
        mean_distance_inflation: inflation / n.max(1) as f64,
    };

    println!("== Sec. 6.3: approximate KD-tree search (thd = 1.2 m NN / 40% radius) ==");
    println!("speedup over exact Acc-2SKD:   {:.1}x   (paper: ~11.1x)", row.speedup);
    println!(
        "node-visit reduction:          {:.1}%  (paper: 72.8%)",
        row.node_visit_reduction * 100.0
    );
    println!("follower rate:                 {:.1}%", row.follower_rate * 100.0);
    println!("mean NN distance inflation:    {:.4} m", row.mean_distance_inflation);
    row
}

// ---------------------------------------------------------------------------
// Fig. 12: optimization ablation
// ---------------------------------------------------------------------------

/// One ablation variant of Fig. 12.
#[derive(Debug, Clone, Copy)]
pub struct Fig12Row {
    /// Variant label.
    pub variant: &'static str,
    /// Speedup over Base-KD (GPU).
    pub speedup: f64,
    /// Power reduction vs. Base-KD.
    pub power_reduction: f64,
}

/// Fig. 12: No-Opt / +Bypass / +Forward (MQSN) / MQMN, as speedup and
/// power reduction over the GPU Base-KD.
pub fn fig12(seed: u64) -> Vec<Fig12Row> {
    let w = dp_workload(DesignPoint::Dp7, seed);
    let h = height_for_leaf_size(w.points.len(), 128);
    let tree = TwoStageKdTree::build(&w.points, h);

    // GPU reference.
    let classic = KdTree::build(&w.points);
    let mut stats = SearchStats::new();
    for &q in &w.nn_queries {
        classic.nn_with_stats(q, &mut stats);
    }
    for &q in &w.radius_queries {
        classic.radius_with_stats(q, w.radius, &mut stats);
    }
    let base = BaselineModel::default().gpu(&Workload::from_stats(&stats));

    let variants: [(&'static str, AcceleratorConfig); 4] = [
        (
            "No-Opt",
            AcceleratorConfig { forwarding: false, bypassing: false, ..AcceleratorConfig::paper() },
        ),
        (
            "Bypass",
            AcceleratorConfig { forwarding: false, bypassing: true, ..AcceleratorConfig::paper() },
        ),
        ("+Forward", AcceleratorConfig::paper()),
        ("MQMN", AcceleratorConfig { backend: BackendPolicy::Mqmn, ..AcceleratorConfig::paper() }),
    ];

    println!("== Fig. 12: architectural optimization ablation (DP7 workload) ==");
    println!("{:<10} {:>10} {:>12}", "variant", "speedup", "power red.");
    let mut rows = Vec::new();
    for (name, cfg) in variants {
        let (_, SimPair { nn, rad }) = run_sim_pair(cfg, &w, &tree);
        let secs = nn.seconds + rad.seconds;
        let power = (nn.energy.total_joules() + rad.energy.total_joules()) / secs;
        let row = Fig12Row {
            variant: name,
            speedup: base.seconds / secs,
            power_reduction: base.power_watts / power,
        };
        println!("{:<10} {:>9.1}x {:>11.1}x", row.variant, row.speedup, row.power_reduction);
        rows.push(row);
    }
    rows
}

// ---------------------------------------------------------------------------
// Fig. 13: memory traffic distribution
// ---------------------------------------------------------------------------

/// Traffic distribution of one configuration (fractions summing to 1).
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Configuration label ("ACC-2SKD" / "ACC-KD").
    pub label: &'static str,
    /// (buffer name, fraction) pairs.
    pub fractions: Vec<(&'static str, f64)>,
}

/// Fig. 13: memory traffic distribution for Acc-2SKD vs. Acc-KD.
pub fn fig13(seed: u64) -> Vec<Fig13Row> {
    let w = dp_workload(DesignPoint::Dp7, seed);
    let mut rows = Vec::new();
    println!("== Fig. 13: memory traffic distribution ==");
    for (label, leaf) in [("ACC-2SKD", 128usize), ("ACC-KD", 1usize)] {
        let h = height_for_leaf_size(w.points.len(), leaf);
        let tree = TwoStageKdTree::build(&w.points, h);
        let (_, SimPair { nn, rad }) = run_sim_pair(AcceleratorConfig::paper(), &w, &tree);
        let traffic = nn.traffic + rad.traffic;
        let total = traffic.total_sram().max(1) as f64;
        let fractions: Vec<(&'static str, f64)> =
            traffic.rows().iter().map(|&(name, bytes)| (name, bytes as f64 / total)).collect();
        println!("{label}:");
        for (name, f) in &fractions {
            println!("  {:<14} {:>6.1}%", name, f * 100.0);
        }
        rows.push(Fig13Row { label, fractions });
    }
    rows
}

// ---------------------------------------------------------------------------
// Fig. 14: hardware sensitivity sweep
// ---------------------------------------------------------------------------

/// One hardware configuration sample of Fig. 14.
#[derive(Debug, Clone, Copy)]
pub struct Fig14Row {
    /// RU count.
    pub rus: usize,
    /// SU count.
    pub sus: usize,
    /// PEs per SU.
    pub pes: usize,
    /// KD-search time, milliseconds.
    pub time_ms: f64,
    /// Average power, watts.
    pub power_w: f64,
}

/// Fig. 14a/14b: sweep RU, SU and PE counts over {16, 32, 64, 128}.
pub fn fig14(seed: u64) -> Vec<Fig14Row> {
    let w = dp_workload(DesignPoint::Dp7, seed);
    let h = height_for_leaf_size(w.points.len(), 128);
    let tree = TwoStageKdTree::build(&w.points, h);

    println!("== Fig. 14: sensitivity to RU / SU / PE counts ==");
    println!("{:>5} {:>5} {:>5} {:>12} {:>10}", "RU", "SU", "PE", "time (ms)", "power (W)");
    let mut rows = Vec::new();
    for rus in [16usize, 32, 64, 128] {
        for sus in [16usize, 32, 64, 128] {
            for pes in [16usize, 32, 64, 128] {
                let cfg = AcceleratorConfig {
                    num_rus: rus,
                    num_sus: sus,
                    pes_per_su: pes,
                    ..AcceleratorConfig::paper()
                };
                let (_, SimPair { nn, rad }) = run_sim_pair(cfg, &w, &tree);
                let secs = nn.seconds + rad.seconds;
                let power = (nn.energy.total_joules() + rad.energy.total_joules()) / secs;
                let row = Fig14Row { rus, sus, pes, time_ms: secs * 1e3, power_w: power };
                println!(
                    "{:>5} {:>5} {:>5} {:>12.3} {:>10.1}",
                    row.rus, row.sus, row.pes, row.time_ms, row.power_w
                );
                rows.push(row);
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Fig. 15: top-tree height sweep
// ---------------------------------------------------------------------------

/// One height sample of Fig. 15.
#[derive(Debug, Clone, Copy)]
pub struct Fig15Row {
    /// Top-tree height.
    pub height: usize,
    /// KD-search time, milliseconds.
    pub time_ms: f64,
    /// Energy, joules.
    pub energy_j: f64,
}

/// Fig. 15: search time and energy vs. top-tree height.
pub fn fig15(seed: u64) -> Vec<Fig15Row> {
    let w = dp_workload(DesignPoint::Dp7, seed);
    println!("== Fig. 15: top-tree height sweep ==");
    println!("{:>7} {:>12} {:>12}", "height", "time (ms)", "energy (mJ)");
    let mut rows = Vec::new();
    for height in 4..=15usize {
        let tree = TwoStageKdTree::build(&w.points, height);
        let (time_ms, SimPair { nn, rad }) = run_sim_pair(AcceleratorConfig::paper(), &w, &tree);
        let row = Fig15Row {
            height,
            time_ms,
            energy_j: nn.energy.total_joules() + rad.energy.total_joules(),
        };
        println!("{:>7} {:>12.3} {:>12.4}", row.height, row.time_ms, row.energy_j * 1e3);
        rows.push(row);
    }
    rows
}

// ---------------------------------------------------------------------------
// End-to-end: the paper's headline numbers
// ---------------------------------------------------------------------------

/// End-to-end registration improvement when the KD search runs on the
/// accelerator (the paper's 41.7% / 13.6% numbers): returns
/// `(dp7_improvement, dp4_improvement)` as fractions.
///
/// Methodology: run a *real* registration with query logging enabled, then
/// replay the exact query stream (every NE radius search, every RPCE NN of
/// every ICP iteration) through the cycle-level accelerator model and the
/// GPU baseline model, and compare end-to-end totals under Amdahl's law.
pub fn end_to_end(seed: u64) -> (f64, f64) {
    use tigris_accel::baseline::Workload;
    use tigris_pipeline::{prepare_frame_from_searcher, register_prepared, Searcher3};

    println!("== End-to-end registration improvement (query-log replay) ==");
    let mut out = [0.0f64; 2];
    let seq = short_sequence(2, seed);
    for (slot, dp) in [DesignPoint::Dp7, DesignPoint::Dp4].into_iter().enumerate() {
        let cfg = dp.config();
        // Registration with logging on both frames' searchers. Logging
        // also keeps ICP from skipping provably unchanged searches, so the
        // log holds every query the pipeline issued.
        let src_pts = seq.frame(1).voxel_downsample(cfg.voxel_size).points().to_vec();
        let tgt_pts = seq.frame(0).voxel_downsample(cfg.voxel_size).points().to_vec();
        let logged = |pts: &[Vec3]| {
            let mut searcher = Searcher3::classic(pts);
            searcher.enable_query_logging();
            searcher
        };
        let (src_searcher, tgt_searcher) = (logged(&src_pts), logged(&tgt_pts));
        let t0 = std::time::Instant::now();
        let prepare = |searcher| prepare_frame_from_searcher(searcher, &cfg).expect("non-empty");
        let (mut src, mut tgt) = (prepare(src_searcher), prepare(tgt_searcher));
        let result = register_prepared(&mut src, &mut tgt, &cfg).expect("registration failed");
        let total = t0.elapsed().as_secs_f64();
        let kd_cpu = result.profile.kd_search_time.as_secs_f64();
        let other = total - kd_cpu;

        // Replay each frame's exact query stream on its own accelerator.
        let h_src = height_for_leaf_size(src_pts.len(), 128);
        let h_tgt = height_for_leaf_size(tgt_pts.len(), 128);
        let src_log = src.searcher_mut().take_query_log().unwrap();
        let tgt_log = tgt.searcher_mut().take_query_log().unwrap();
        let mut src_sim = AccelBackend::build(&src_pts, h_src, AcceleratorConfig::paper());
        let mut tgt_sim = AccelBackend::build(&tgt_pts, h_tgt, AcceleratorConfig::paper());
        let kd_acc = src_sim.replay(&src_log).seconds + tgt_sim.replay(&tgt_log).seconds;

        // GPU baseline on the same measured workload.
        let gpu = BaselineModel::default().gpu(&Workload::from_stats(&result.profile.search_stats));
        let kd_gpu = gpu.seconds;

        let improvement = 1.0 - (other + kd_acc) / (other + kd_gpu);
        println!(
            "{}: other {:.1} ms + kd: cpu {:.1} / gpu {:.2} / accel {:.4} ms ({} queries) \
             -> {:.1}% end-to-end improvement over the CPU+GPU baseline",
            dp.name(),
            other * 1e3,
            kd_cpu * 1e3,
            kd_gpu * 1e3,
            kd_acc * 1e3,
            src_log.len() + tgt_log.len(),
            improvement * 100.0
        );
        out[slot] = improvement;
    }
    println!("(paper: 41.7% on DP7 vs. its GPU baseline, 13.6% on DP4)");
    (out[0], out[1])
}

// ---------------------------------------------------------------------------
// Parametric DSE sweep (the paper's "exhaustive exploration" flavor)
// ---------------------------------------------------------------------------

/// One point of the parametric sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Knob summary label.
    pub label: String,
    /// Translational error, percent.
    pub translational_percent: f64,
    /// Wall-clock per pair, milliseconds.
    pub time_ms: f64,
    /// On the Pareto frontier?
    pub pareto: bool,
}

/// Parametric design-space sweep: normal radius × descriptor radius ×
/// convergence budget, on one frame pair (the paper's Fig. 3 methodology
/// beyond the eight presets). Returns all points with Pareto marks.
pub fn dse_sweep(seed: u64) -> Vec<SweepPoint> {
    use tigris_pipeline::dse::evaluate_config;
    let seq = short_sequence(2, seed);
    let gts = vec![seq.ground_truth_relative(0)];

    let mut configs = Vec::new();
    for &normal_radius in &[0.3, 0.6, 1.0] {
        for &desc_radius in &[0.8, 1.8] {
            for &iters in &[8usize, 30] {
                let label = format!("ne{normal_radius}/d{desc_radius}/i{iters}");
                let cfg = RegistrationConfig {
                    normal_radius,
                    descriptor: tigris_pipeline::DescriptorAlgorithm::Fpfh { radius: desc_radius },
                    convergence: tigris_pipeline::ConvergenceCriteria {
                        max_iterations: iters,
                        ..Default::default()
                    },
                    ..RegistrationConfig::default()
                };
                configs.push((label, cfg));
            }
        }
    }

    let evaluated: Vec<_> = configs
        .iter()
        .map(|(label, cfg)| evaluate_config(label, cfg, seq.frames(), &gts))
        .collect();
    let tradeoff: Vec<(f64, f64)> = evaluated
        .iter()
        .map(|p| (p.translational_percent, p.time_per_pair.as_secs_f64()))
        .collect();
    let pareto = pareto_frontier(&tradeoff);

    println!("== Parametric DSE sweep (normal radius × FPFH radius × ICP budget) ==");
    println!("{:<18} {:>11} {:>11} {:>7}", "knobs", "t-err (%)", "time (ms)", "Pareto");
    let mut rows = Vec::new();
    for (i, p) in evaluated.iter().enumerate() {
        let on_frontier = pareto.contains(&i);
        println!(
            "{:<18} {:>11.2} {:>11.1} {:>7}",
            p.label,
            p.translational_percent,
            p.time_per_pair.as_secs_f64() * 1e3,
            if on_frontier { "*" } else { "" }
        );
        rows.push(SweepPoint {
            label: p.label.clone(),
            translational_percent: p.translational_percent,
            time_ms: p.time_per_pair.as_secs_f64() * 1e3,
            pareto: on_frontier,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Extra ablations (DESIGN.md §5, beyond the paper's own)
// ---------------------------------------------------------------------------

/// One row of an ablation sweep: parameter value → (time ms, metric).
#[derive(Debug, Clone, Copy)]
pub struct AblationRow {
    /// The swept parameter's value.
    pub value: f64,
    /// KD-search time, milliseconds.
    pub time_ms: f64,
    /// Sweep-specific secondary metric (hit rate, follower rate, …).
    pub metric: f64,
}

/// Runs a workload's NN batch and then, leader buffers reset, its radius
/// batch on an accelerator over a copy of `tree`; returns the KD-search
/// time in milliseconds and both reports.
fn run_sim_pair(
    cfg: AcceleratorConfig,
    w: &DpSearchWorkload,
    tree: &TwoStageKdTree,
) -> (f64, SimPair) {
    let mut sim = AccelBackend::from_tree(tree.clone(), cfg);
    let nn = sim.run(&w.nn_queries, SearchKind::Nn);
    sim.reset();
    let rad = sim.run(&w.radius_queries, SearchKind::Radius(w.radius));
    ((nn.seconds + rad.seconds) * 1e3, SimPair { nn, rad })
}

/// The pair of reports an ablation run produces.
pub struct SimPair {
    /// NN-batch report.
    pub nn: tigris_accel::SimReport,
    /// Radius-batch report.
    pub rad: tigris_accel::SimReport,
}

/// Ablation: leader-buffer capacity sweep (paper caps at 16). Metric =
/// follower rate.
pub fn ablation_leader_cap(seed: u64) -> Vec<AblationRow> {
    let w = dp_workload(DesignPoint::Dp7, seed);
    let h = height_for_leaf_size(w.points.len(), 128);
    let tree = TwoStageKdTree::build(&w.points, h);
    println!("== Ablation: leader-buffer capacity (approximate search) ==");
    println!("{:>5} {:>12} {:>14}", "cap", "time (ms)", "follower rate");
    let mut rows = Vec::new();
    for cap in [1usize, 4, 8, 16, 32, 64] {
        let cfg = AcceleratorConfig {
            approx: Some(ApproxConfig { leader_cap: cap, ..Default::default() }),
            ..AcceleratorConfig::paper()
        };
        let (time_ms, pair) = run_sim_pair(cfg, &w, &tree);
        let followers = pair.nn.follower_hits + pair.rad.follower_hits;
        let rate = followers as f64 / (w.nn_queries.len() + w.radius_queries.len()) as f64;
        println!("{:>5} {:>12.3} {:>13.1}%", cap, time_ms, rate * 100.0);
        rows.push(AblationRow { value: cap as f64, time_ms, metric: rate });
    }
    rows
}

/// Ablation: node-cache capacity sweep (paper: 128 KB = 8192 points).
/// Metric = cache hit fraction of node-set loads.
pub fn ablation_node_cache(seed: u64) -> Vec<AblationRow> {
    let w = dp_workload(DesignPoint::Dp7, seed);
    let h = height_for_leaf_size(w.points.len(), 128);
    let tree = TwoStageKdTree::build(&w.points, h);
    println!("== Ablation: node-cache capacity ==");
    println!("{:>9} {:>12} {:>12} {:>16}", "points", "time (ms)", "hit rate", "PointsBuf bytes");
    let mut rows = Vec::new();
    for points in [0usize, 1024, 4096, 8192, 32768, 131072] {
        let cfg = AcceleratorConfig { node_cache_points: points, ..AcceleratorConfig::paper() };
        let (time_ms, pair) = run_sim_pair(cfg, &w, &tree);
        let traffic = pair.nn.traffic + pair.rad.traffic;
        let node_bytes = traffic.node_cache + traffic.points_buffer;
        let hit_rate =
            if node_bytes == 0 { 0.0 } else { traffic.node_cache as f64 / node_bytes as f64 };
        println!(
            "{:>9} {:>12.3} {:>11.1}% {:>16}",
            points,
            time_ms,
            hit_rate * 100.0,
            traffic.points_buffer
        );
        rows.push(AblationRow { value: points as f64, time_ms, metric: hit_rate });
    }
    rows
}

/// Ablation: MQSN issue-window sweep (paper: associative search in groups
/// of 32 over a 128-entry BQB). Metric = PE utilization.
pub fn ablation_issue_window(seed: u64) -> Vec<AblationRow> {
    let w = dp_workload(DesignPoint::Dp7, seed);
    let h = height_for_leaf_size(w.points.len(), 128);
    let tree = TwoStageKdTree::build(&w.points, h);
    println!("== Ablation: MQSN issue-window size ==");
    println!("{:>7} {:>12} {:>14}", "window", "time (ms)", "PE util.");
    let mut rows = Vec::new();
    for window in [1usize, 8, 32, 128, 512] {
        let cfg = AcceleratorConfig { issue_window: window, ..AcceleratorConfig::paper() };
        let (time_ms, pair) = run_sim_pair(cfg, &w, &tree);
        let util = (pair.nn.pe_utilization + pair.rad.pe_utilization) / 2.0;
        println!("{:>7} {:>12.3} {:>13.1}%", window, time_ms, util * 100.0);
        rows.push(AblationRow { value: window as f64, time_ms, metric: util });
    }
    rows
}

/// Ablation: leaf-to-SU mapping policy (paper claims insensitivity).
/// Returns `(low_order_ms, hash_ms)`.
pub fn ablation_mapping(seed: u64) -> (f64, f64) {
    let w = dp_workload(DesignPoint::Dp7, seed);
    let h = height_for_leaf_size(w.points.len(), 128);
    let tree = TwoStageKdTree::build(&w.points, h);
    println!("== Ablation: leaf-to-SU mapping policy ==");
    let (low, _) = run_sim_pair(
        AcceleratorConfig {
            mapping: tigris_accel::MappingPolicy::LowOrderBits,
            ..AcceleratorConfig::paper()
        },
        &w,
        &tree,
    );
    let (hash, _) = run_sim_pair(
        AcceleratorConfig {
            mapping: tigris_accel::MappingPolicy::Hash,
            ..AcceleratorConfig::paper()
        },
        &w,
        &tree,
    );
    println!("low-order bits: {low:.3} ms");
    println!("hash:           {hash:.3} ms");
    println!(
        "difference: {:.1}% (paper: \"relatively insensitive\")",
        ((hash - low) / low * 100.0).abs()
    );
    (low, hash)
}

// ---------------------------------------------------------------------------
// Multi-sequence odometry table (the paper's 11-sequence methodology)
// ---------------------------------------------------------------------------

/// One sequence's odometry errors.
#[derive(Debug, Clone)]
pub struct SequenceRow {
    /// Sequence id (seed).
    pub sequence: u64,
    /// Environment label ("urban" / "highway").
    pub environment: &'static str,
    /// Mean translational error, percent.
    pub translational_percent: f64,
    /// Mean rotational error, °/m.
    pub rotational_deg_per_m: f64,
    /// Frame pairs registered.
    pub pairs: usize,
}

/// Runs odometry over `n_sequences` independent synthetic sequences (the
/// paper evaluates the 11 ground-truthed KITTI sequences and reports
/// averages across all frames), alternating urban and highway
/// environments, and prints the per-sequence error table.
pub fn sequence_table(n_sequences: u64, frames: usize, seed: u64) -> Vec<SequenceRow> {
    use tigris_data::{sequence_error, SceneConfig, Sequence, SequenceConfig};
    use tigris_pipeline::Odometer;

    println!("== Odometry over {n_sequences} synthetic sequences ({frames} frames each) ==");
    println!(
        "{:>9} {:>9} {:>12} {:>14} {:>7}",
        "sequence", "env", "t-err (%)", "r-err (°/m)", "pairs"
    );
    let mut rows = Vec::new();
    for s in 0..n_sequences {
        let highway = s % 2 == 1;
        let mut cfg = SequenceConfig::medium();
        cfg.frames = frames;
        if highway {
            cfg.scene = SceneConfig::highway();
        }
        let seq = Sequence::generate(&cfg, seed.wrapping_add(s * 1000));
        let environment = if highway { "highway" } else { "urban" };
        let mut odo = Odometer::new(RegistrationConfig::default());
        let mut estimates = Vec::new();
        let mut gts = Vec::new();
        for i in 0..seq.len() {
            if let Ok(Some(step)) = odo.push(seq.frame(i)) {
                estimates.push(step.relative);
                gts.push(seq.ground_truth_relative(i - 1));
            }
        }
        let err = sequence_error(&estimates, &gts);
        println!(
            "{:>9} {:>9} {:>12.2} {:>14.4} {:>7}",
            s, environment, err.translational_percent, err.rotational_deg_per_m, err.pairs
        );
        rows.push(SequenceRow {
            sequence: s,
            environment,
            translational_percent: err.translational_percent,
            rotational_deg_per_m: err.rotational_deg_per_m,
            pairs: err.pairs,
        });
    }
    let mean_t =
        rows.iter().map(|r| r.translational_percent).sum::<f64>() / rows.len().max(1) as f64;
    let mean_r =
        rows.iter().map(|r| r.rotational_deg_per_m).sum::<f64>() / rows.len().max(1) as f64;
    println!("{:>9} {:>12.2} {:>14.4}", "mean", mean_t, mean_r);
    rows
}

// ---------------------------------------------------------------------------
// SVG rendering
// ---------------------------------------------------------------------------

/// Renders the headline figures as SVG files into `dir` (created if
/// missing). Returns the written paths.
///
/// # Panics
///
/// Panics on I/O failure (this is a CLI-facing convenience).
pub fn render_svgs(dir: &std::path::Path, seed: u64) -> Vec<std::path::PathBuf> {
    use crate::plot::{Chart, ChartKind, Series};
    std::fs::create_dir_all(dir).expect("create svg dir");
    let mut written = Vec::new();
    let mut save = |name: &str, chart: Chart| {
        let path = dir.join(name);
        chart.save(&path).expect("write svg");
        written.push(path);
    };

    // Fig. 6: redundancy vs leaf-set size.
    let f6 = fig6(seed);
    save(
        "fig6_redundancy.svg",
        Chart::new(ChartKind::Line, "Fig. 6a: two-stage redundancy vs leaf-set size")
            .axes("leaf-set size", "redundancy (x)")
            .series(Series::new(
                "NN search",
                f6.iter().map(|r| (r.leaf_size as f64, r.nn_redundancy)).collect(),
            ))
            .series(Series::new(
                "radius search",
                f6.iter().map(|r| (r.leaf_size as f64, r.radius_redundancy)).collect(),
            )),
    );
    save(
        "fig6b_nodes.svg",
        Chart::new(ChartKind::Line, "Fig. 6b: total nodes visited")
            .axes("leaf-set size", "nodes visited")
            .series(Series::new(
                "NN search",
                f6.iter().map(|r| (r.leaf_size as f64, r.nn_nodes as f64)).collect(),
            ))
            .series(Series::new(
                "radius search",
                f6.iter().map(|r| (r.leaf_size as f64, r.radius_nodes as f64)).collect(),
            )),
    );

    // Fig. 11: speedups (log scale).
    let (dp7, dp4) = fig11(seed);
    let bars = |rows: &[Fig11Row]| {
        rows.iter()
            .filter(|r| r.system != "CPU")
            .enumerate()
            .map(|(i, r)| (i as f64, r.speedup))
            .collect::<Vec<_>>()
    };
    save(
        "fig11_speedup.svg",
        Chart::new(ChartKind::Bar, "Fig. 11: KD-search speedup over Base-KD (log)")
            .axes("Base-KD | Base-2SKD | Acc-KD | Acc-2SKD", "speedup (x)")
            .log_y()
            .series(Series::new("DP7 (accuracy)", bars(&dp7)))
            .series(Series::new("DP4 (performance)", bars(&dp4))),
    );

    // Fig. 14: time vs power cloud.
    let f14 = fig14(seed);
    save(
        "fig14_sensitivity.svg",
        Chart::new(ChartKind::Scatter, "Fig. 14a: performance vs power (RU/SU/PE sweep)")
            .axes("search time (ms)", "power (W)")
            .series(Series::new(
                "configurations",
                f14.iter().map(|r| (r.time_ms, r.power_w)).collect(),
            ))
            .series(Series::new(
                "paper design point (64/32/32)",
                f14.iter()
                    .filter(|r| r.rus == 64 && r.sus == 32 && r.pes == 32)
                    .map(|r| (r.time_ms, r.power_w))
                    .collect(),
            )),
    );

    // Fig. 15: height sweep.
    let f15 = fig15(seed);
    save(
        "fig15_height.svg",
        Chart::new(ChartKind::Line, "Fig. 15: top-tree height sweep")
            .axes("top-tree height", "search time (ms) / energy (mJ)")
            .series(Series::new(
                "time (ms)",
                f15.iter().map(|r| (r.height as f64, r.time_ms)).collect(),
            ))
            .series(Series::new(
                "energy (mJ)",
                f15.iter().map(|r| (r.height as f64, r.energy_j * 1e3)).collect(),
            )),
    );

    // Fig. 12 ablation bars.
    let f12 = fig12(seed);
    save(
        "fig12_ablation.svg",
        Chart::new(ChartKind::Bar, "Fig. 12: No-Opt | Bypass | +Forward | MQMN")
            .axes("variant", "speedup over Base-KD (x)")
            .series(Series::new(
                "speedup",
                f12.iter().enumerate().map(|(i, r)| (i as f64, r.speedup)).collect(),
            ))
            .series(Series::new(
                "power reduction",
                f12.iter().enumerate().map(|(i, r)| (i as f64, r.power_reduction)).collect(),
            )),
    );
    written
}

/// Runs one experiment by id; returns `false` for an unknown id.
pub fn run_experiment(id: &str, seed: u64) -> bool {
    let t0 = Instant::now();
    match id {
        "fig3" => {
            fig3(3, seed);
        }
        "fig4" | "fig4a" | "fig4b" => {
            fig4(3, seed);
        }
        "fig6" => {
            fig6(seed);
        }
        "fig7" => {
            fig7(seed);
        }
        "area" => {
            area();
        }
        "fig11" => {
            fig11(seed);
        }
        "approx" => {
            approx(seed);
        }
        "fig12" => {
            fig12(seed);
        }
        "fig13" => {
            fig13(seed);
        }
        "fig14" => {
            fig14(seed);
        }
        "fig15" => {
            fig15(seed);
        }
        "end2end" => {
            end_to_end(seed);
        }
        "sequences" => {
            sequence_table(4, 4, seed);
        }
        "dse-sweep" => {
            dse_sweep(seed);
        }
        "ablation-leaders" => {
            ablation_leader_cap(seed);
        }
        "ablation-cache" => {
            ablation_node_cache(seed);
        }
        "ablation-window" => {
            ablation_issue_window(seed);
        }
        "ablation-mapping" => {
            ablation_mapping(seed);
        }
        "ablations" => {
            ablation_leader_cap(seed);
            println!();
            ablation_node_cache(seed);
            println!();
            ablation_issue_window(seed);
            println!();
            ablation_mapping(seed);
        }
        _ => return false,
    }
    println!("\n[{} completed in {:.1?}]", id, t0.elapsed());
    true
}

/// All experiment ids in paper order (plus the repo's extra ablations).
pub const ALL_EXPERIMENTS: [&str; 12] = [
    "fig3",
    "fig4",
    "fig6",
    "fig7",
    "area",
    "fig11",
    "approx",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "ablations",
];
