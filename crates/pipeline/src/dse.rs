//! Design-space exploration (paper Sec. 3.2, Fig. 3): sweep the pipeline's
//! algorithmic and parametric knobs, measure accuracy vs. time, and
//! extract the Pareto frontier.

use std::time::Duration;

use tigris_geom::{PointCloud, RigidTransform};

use crate::config::{DesignPoint, RegistrationConfig, SearchBackendConfig};
use crate::pipeline::{prepare_frame, register, register_prepared};
use crate::profile::StageProfile;

/// One evaluated design point: its config label, accuracy and cost.
#[derive(Debug, Clone)]
pub struct DsePoint {
    /// Label (e.g. "DP4" or a knob summary).
    pub label: String,
    /// Mean translational error, percent (KITTI metric).
    pub translational_percent: f64,
    /// Mean rotational error, degrees per meter.
    pub rotational_deg_per_m: f64,
    /// Mean wall-clock per frame pair.
    pub time_per_pair: Duration,
    /// Merged profile across all pairs.
    pub profile: StageProfile,
    /// Frame pairs successfully registered.
    pub pairs: usize,
}

/// Runs `config` over consecutive frame pairs and aggregates accuracy and
/// time. `frames` and `ground_truth_relative` come from a dataset sequence
/// (`tigris-data`'s [`Sequence`](https://docs.rs) or equivalent).
///
/// Pairs that fail to register are skipped (counted out of `pairs`).
pub fn evaluate_config(
    label: &str,
    config: &RegistrationConfig,
    frames: &[PointCloud],
    ground_truth_relative: &[RigidTransform],
) -> DsePoint {
    assert_eq!(
        frames.len().saturating_sub(1),
        ground_truth_relative.len(),
        "need one GT relative transform per consecutive frame pair"
    );
    let mut estimates = Vec::new();
    let mut gts = Vec::new();
    let mut profile = StageProfile::new();
    let mut total_time = Duration::ZERO;

    for i in 0..frames.len().saturating_sub(1) {
        let t0 = std::time::Instant::now();
        // Source = frame i+1, target = frame i: the estimate maps i+1 → i.
        let Ok(result) = register(&frames[i + 1], &frames[i], config) else {
            continue;
        };
        total_time += t0.elapsed();
        profile.merge(&result.profile);
        estimates.push(result.transform);
        gts.push(ground_truth_relative[i]);
    }

    let pairs = estimates.len();
    let (t_err, r_err) = pairwise_errors(&estimates, &gts);

    DsePoint {
        label: label.to_string(),
        translational_percent: t_err,
        rotational_deg_per_m: r_err,
        time_per_pair: if pairs == 0 { Duration::ZERO } else { total_time / pairs as u32 },
        profile,
        pairs,
    }
}

/// Evaluates all eight paper design points (DP1–DP8) on a sequence.
pub fn evaluate_design_points(
    frames: &[PointCloud],
    ground_truth_relative: &[RigidTransform],
) -> Vec<DsePoint> {
    DesignPoint::ALL
        .iter()
        .map(|dp| evaluate_config(dp.name(), &dp.config(), frames, ground_truth_relative))
        .collect()
}

/// Sweeps the *search backend* of `base` over the given configurations on
/// the same frame pairs, labeling each point `"{label}/{backend_name}"`.
///
/// This is the Tigris thesis as an experiment: the pipeline above the
/// `SearchIndex` seam is fixed while the backend swaps — classic vs.
/// two-stage vs. approximate vs. the brute-force oracle vs. any registered
/// custom backend (e.g. `"accelerator"`). Exact backends land on identical
/// accuracy; what moves is time and the search-stats profile. Sweeping the
/// brute-force oracle alongside gives the ground-truth accuracy anchor.
///
/// # Panics
///
/// Panics when a [`SearchBackendConfig::Custom`] name is not registered —
/// an unresolvable backend would otherwise fail *every* pair and surface
/// as an all-NaN data point indistinguishable from a measured one.
/// Register the backend first (e.g. `register_accelerator_backend()`).
pub fn sweep_backends(
    label: &str,
    base: &RegistrationConfig,
    frames: &[PointCloud],
    ground_truth_relative: &[RigidTransform],
    backends: &[SearchBackendConfig],
) -> Vec<DsePoint> {
    for backend in backends {
        if let SearchBackendConfig::Custom { name } = backend {
            assert!(
                tigris_core::backend_names().iter().any(|n| n == name),
                "backend {name:?} is not registered; register it before sweeping \
                 (e.g. tigris_accel::register_accelerator_backend())"
            );
        }
    }
    backends
        .iter()
        .map(|&backend| {
            let mut cfg = base.clone();
            cfg.backend = backend;
            let point_label = format!("{label}/{}", backend.name());
            evaluate_config(&point_label, &cfg, frames, ground_truth_relative)
        })
        .collect()
}

/// A matching-knob sweep evaluated over shared frame preparations: the
/// front end ran **once per frame for the whole sweep**, not once per
/// design point ([`sweep_matching`]).
#[derive(Debug, Clone)]
pub struct MatchingSweep {
    /// Wall-clock spent preparing all frames (paid once, amortized over
    /// every design point).
    pub prepare_time: Duration,
    /// The frames' merged preparation profiles (front-end stage times,
    /// index builds, search meters).
    pub prepare_profile: StageProfile,
    /// One evaluated point per matching configuration. `time_per_pair`
    /// and `profile` cover the matching layer only; add the amortized
    /// share of [`MatchingSweep::prepare_time`] for end-to-end cost.
    pub points: Vec<DsePoint>,
}

/// Sweeps matching/ICP knob variants over the same frame pairs while
/// **reusing each frame's preparation across every design point** — the
/// front end (downsample, index build, NE, key-points, descriptors) runs
/// once per frame for the entire sweep instead of once per frame per
/// design point.
///
/// Every variant must agree with `base` on the front-end knobs
/// ([`RegistrationConfig::same_front_end`]); only matching-layer knobs
/// (KPCE reciprocity/ratio, rejection, error metric, solver,
/// correspondence distance, convergence, motion gates, RPCE injection)
/// may vary. Points are labeled `"{label}/{variant_label}"`.
///
/// Pairs that fail to match are skipped (counted out of `pairs`), same
/// as [`evaluate_config`].
///
/// # Panics
///
/// Panics when a variant changes a front-end knob — its results would
/// silently come from artifacts prepared under different settings — or
/// when `frames`/`ground_truth_relative` lengths disagree.
pub fn sweep_matching(
    label: &str,
    base: &RegistrationConfig,
    variants: &[(&str, RegistrationConfig)],
    frames: &[PointCloud],
    ground_truth_relative: &[RigidTransform],
) -> MatchingSweep {
    assert_eq!(
        frames.len().saturating_sub(1),
        ground_truth_relative.len(),
        "need one GT relative transform per consecutive frame pair"
    );
    for (name, cfg) in variants {
        assert!(
            base.same_front_end(cfg),
            "variant {name:?} changes a front-end knob; sweep_matching reuses \
             preparations, so only matching/ICP knobs may vary"
        );
    }

    // Prepare every frame once, for the whole sweep.
    let t0 = std::time::Instant::now();
    let mut prepared = Vec::with_capacity(frames.len());
    for frame in frames {
        match prepare_frame(frame, base) {
            Ok(p) => prepared.push(Some(p)),
            Err(_) => prepared.push(None), // its pairs are skipped below
        }
    }
    let prepare_time = t0.elapsed();
    let mut prepare_profile = StageProfile::new();
    for frame in prepared.iter_mut().flatten() {
        // Detach the preparation bills up front so every per-pair profile
        // below is a pure matching profile with honest reuse counters.
        if let Some(bill) = frame.consume_preparation() {
            prepare_profile.merge(&bill);
        }
    }

    let points = variants
        .iter()
        .map(|(name, cfg)| {
            let mut estimates = Vec::new();
            let mut gts = Vec::new();
            let mut profile = StageProfile::new();
            let mut total_time = Duration::ZERO;
            for i in 0..frames.len().saturating_sub(1) {
                // Source = frame i+1, target = frame i (estimate maps i+1 → i).
                let (head, tail) = prepared.split_at_mut(i + 1);
                let (Some(target), Some(source)) = (&mut head[i], &mut tail[0]) else {
                    continue;
                };
                let t0 = std::time::Instant::now();
                let Ok(result) = register_prepared(source, target, cfg) else {
                    continue;
                };
                total_time += t0.elapsed();
                profile.merge(&result.profile);
                estimates.push(result.transform);
                gts.push(ground_truth_relative[i]);
            }
            let pairs = estimates.len();
            let (t_err, r_err) = pairwise_errors(&estimates, &gts);
            DsePoint {
                label: format!("{label}/{name}"),
                translational_percent: t_err,
                rotational_deg_per_m: r_err,
                time_per_pair: if pairs == 0 { Duration::ZERO } else { total_time / pairs as u32 },
                profile,
                pairs,
            }
        })
        .collect();

    MatchingSweep { prepare_time, prepare_profile, points }
}

/// KITTI-style mean errors over parallel estimate/GT slices (NaN when
/// empty) — shared by [`evaluate_config`] and [`sweep_matching`].
fn pairwise_errors(estimates: &[RigidTransform], gts: &[RigidTransform]) -> (f64, f64) {
    let pairs = estimates.len();
    if pairs == 0 {
        return (f64::NAN, f64::NAN);
    }
    let mut t_sum = 0.0;
    let mut r_sum = 0.0;
    for (e, g) in estimates.iter().zip(gts) {
        let residual = g.inverse() * *e;
        let dist = g.translation_norm().max(0.01);
        t_sum += residual.translation_norm() / dist * 100.0;
        r_sum += residual.rotation_angle().to_degrees() / dist;
    }
    (t_sum / pairs as f64, r_sum / pairs as f64)
}

/// Indices of the Pareto-optimal points minimizing `(error, time)`.
///
/// A point is Pareto-optimal when no other point is at least as good on
/// both axes and strictly better on one.
pub fn pareto_frontier(points: &[(f64, f64)]) -> Vec<usize> {
    let mut out = Vec::new();
    'outer: for (i, &(e_i, t_i)) in points.iter().enumerate() {
        if !e_i.is_finite() || !t_i.is_finite() {
            continue;
        }
        for (j, &(e_j, t_j)) in points.iter().enumerate() {
            if i == j || !e_j.is_finite() || !t_j.is_finite() {
                continue;
            }
            let as_good = e_j <= e_i && t_j <= t_i;
            let strictly_better = e_j < e_i || t_j < t_i;
            if as_good && strictly_better {
                continue 'outer;
            }
        }
        out.push(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigris_geom::Vec3;

    #[test]
    fn pareto_extracts_lower_left_envelope() {
        let pts = vec![
            (1.0, 10.0), // optimal (lowest error)
            (2.0, 5.0),  // optimal (tradeoff)
            (3.0, 2.0),  // optimal (fastest)
            (3.0, 6.0),  // dominated by (2.0, 5.0)
            (5.0, 5.0),  // dominated
        ];
        let frontier = pareto_frontier(&pts);
        assert_eq!(frontier, vec![0, 1, 2]);
    }

    #[test]
    fn pareto_handles_duplicates_and_nan() {
        let pts = vec![(1.0, 1.0), (1.0, 1.0), (f64::NAN, 0.5), (2.0, 2.0)];
        let frontier = pareto_frontier(&pts);
        // Duplicates are mutually non-dominating; NaN is excluded.
        assert_eq!(frontier, vec![0, 1]);
    }

    #[test]
    fn pareto_single_point() {
        assert_eq!(pareto_frontier(&[(1.0, 1.0)]), vec![0]);
        assert!(pareto_frontier(&[]).is_empty());
    }

    #[test]
    fn evaluate_config_runs_a_tiny_sweep() {
        // Build two tiny structured frames with a known relative transform.
        let mut pts = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                pts.push(Vec3::new(i as f64 * 0.2, j as f64 * 0.2, 0.0));
                if i == 0 {
                    pts.push(Vec3::new(0.0, j as f64 * 0.2, i as f64 * 0.1 + 0.3));
                }
            }
        }
        for k in 1..20 {
            for j in 0..20 {
                pts.push(Vec3::new(2.0, j as f64 * 0.2, k as f64 * 0.2));
            }
        }
        let target = PointCloud::from_points(pts);
        let gt = RigidTransform::from_translation(Vec3::new(0.15, 0.05, 0.0));
        let source = target.transformed(&gt.inverse());
        let frames = vec![target, source];
        let gts = vec![gt];

        let cfg = RegistrationConfig {
            voxel_size: 0.0,
            keypoint: crate::config::KeypointAlgorithm::Uniform { voxel: 0.8 },
            ..RegistrationConfig::default()
        };
        let point = evaluate_config("test", &cfg, &frames, &gts);
        assert_eq!(point.pairs, 1);
        assert!(point.translational_percent < 30.0, "err = {}%", point.translational_percent);
        assert!(point.time_per_pair > Duration::ZERO);
        assert_eq!(point.label, "test");
    }

    #[test]
    #[should_panic(expected = "per consecutive frame pair")]
    fn evaluate_config_validates_lengths() {
        evaluate_config("x", &RegistrationConfig::default(), &[], &[RigidTransform::IDENTITY]);
    }

    #[test]
    fn backend_sweep_keeps_exact_backends_on_oracle_accuracy() {
        let target = PointCloud::from_points(
            (0..900)
                .map(|i| {
                    Vec3::new(
                        (i % 30) as f64 * 0.2,
                        (i / 30) as f64 * 0.2,
                        ((i % 7) as f64 * 0.1).sin() * 0.3,
                    )
                })
                .collect(),
        );
        let gt = RigidTransform::from_translation(Vec3::new(0.1, 0.05, 0.0));
        let source = target.transformed(&gt.inverse());
        let frames = vec![target, source];
        let gts = vec![gt];

        let cfg = RegistrationConfig {
            voxel_size: 0.0,
            keypoint: crate::config::KeypointAlgorithm::Uniform { voxel: 0.8 },
            ..RegistrationConfig::default()
        };
        let points = sweep_backends(
            "bk",
            &cfg,
            &frames,
            &gts,
            &[
                SearchBackendConfig::Classic,
                SearchBackendConfig::TwoStage { top_height: 5 },
                SearchBackendConfig::BruteForce,
                SearchBackendConfig::Custom { name: "dynamic" },
            ],
        );
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].label, "bk/classic");
        assert_eq!(points[1].label, "bk/two-stage");
        assert_eq!(points[2].label, "bk/brute-force");
        assert_eq!(points[3].label, "bk/dynamic");
        // Exact backends compute the same thing: identical accuracy, with
        // brute force as the ground-truth anchor.
        for p in &points[1..] {
            assert_eq!(p.pairs, points[0].pairs, "{}", p.label);
            assert_eq!(
                p.translational_percent, points[0].translational_percent,
                "{} accuracy drifted from classic",
                p.label
            );
        }
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn backend_sweep_rejects_unregistered_custom_backends() {
        sweep_backends(
            "bad",
            &RegistrationConfig::default(),
            &[],
            &[],
            &[SearchBackendConfig::Custom { name: "definitely-not-registered" }],
        );
    }

    #[test]
    fn matching_sweep_reuses_preparations_and_matches_full_runs() {
        let target = PointCloud::from_points(
            (0..900)
                .map(|i| {
                    Vec3::new(
                        (i % 30) as f64 * 0.2,
                        (i / 30) as f64 * 0.2,
                        ((i % 7) as f64 * 0.1).sin() * 0.3,
                    )
                })
                .collect(),
        );
        let gt = RigidTransform::from_translation(Vec3::new(0.1, 0.05, 0.0));
        let source = target.transformed(&gt.inverse());
        let frames = vec![target, source];
        let gts = vec![gt];

        let base = RegistrationConfig {
            voxel_size: 0.0,
            keypoint: crate::config::KeypointAlgorithm::Uniform { voxel: 0.8 },
            ..RegistrationConfig::default()
        };
        let mut loose = base.clone();
        loose.max_correspondence_distance = 3.0;
        let mut tight = base.clone();
        tight.convergence.max_iterations = 5;

        let sweep = sweep_matching(
            "m",
            &base,
            &[("base", base.clone()), ("loose", loose.clone()), ("tight", tight.clone())],
            &frames,
            &gts,
        );
        assert_eq!(sweep.points.len(), 3);
        assert_eq!(sweep.points[0].label, "m/base");
        // The whole sweep paid exactly one preparation per frame…
        assert_eq!(sweep.prepare_profile.frames_prepared, frames.len());
        assert!(sweep.prepare_time > Duration::ZERO);
        for p in &sweep.points {
            assert_eq!(p.pairs, 1, "{}", p.label);
            // …and every evaluated pair reused both frames' front ends.
            assert_eq!(p.profile.frames_prepared, 0, "{}", p.label);
            assert_eq!(p.profile.frames_reused, 2, "{}", p.label);
        }
        // Accuracy is identical to the recompute-everything path.
        for (p, cfg) in sweep.points.iter().zip([&base, &loose, &tight]) {
            let full = evaluate_config("full", cfg, &frames, &gts);
            assert_eq!(
                p.translational_percent, full.translational_percent,
                "{} drifted from the full run",
                p.label
            );
            assert_eq!(p.rotational_deg_per_m, full.rotational_deg_per_m, "{}", p.label);
        }
    }

    #[test]
    #[should_panic(expected = "front-end knob")]
    fn matching_sweep_rejects_front_end_variants() {
        let base = RegistrationConfig::default();
        let mut bad = base.clone();
        bad.normal_radius += 0.2;
        sweep_matching("bad", &base, &[("bad", bad)], &[], &[]);
    }
}
