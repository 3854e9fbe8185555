//! The fine-tuning phase: Iterative Closest Point (paper Fig. 2 right
//! half; Besl & McKay / Chen & Medioni).
//!
//! Starting from the initial estimate, each iteration (1) re-establishes
//! dense correspondences (RPCE — the nearest target point of every moved
//! source point) and (2) minimizes the configured error metric with the
//! configured solver, feeding the refined transform back until a
//! convergence criterion fires.
//!
//! RPCE runs through a correspondence cache owned by the ICP call: a
//! source point whose nearest target point provably cannot have changed
//! since its last exact search skips its NN query (certified reuse — the
//! correspondences, and so every transform, iteration count and MSE, are
//! bit-identical to searching every point). Matching prepared frames
//! also hands the cache the target frame's neighbour graph, which
//! certifies the points whose nearest target point moved to one of its
//! neighbours. Only exact, unobserved searchers reuse; approximate,
//! injected or query-logged ones search every point every iteration.
//! The `icp.iter` event reports how many points were `searched`, and
//! how many their anchor (`anchor_reused`) or the graph
//! (`graph_reused`) answered.

use std::time::Instant;

use tigris_geom::{RigidTransform, Vec3};

use crate::config::{ConvergenceCriteria, ErrorMetric, SolverAlgorithm};
use crate::correspond::{NeighborGraph, RpceCache, RpceCounts};
use crate::profile::{Stage, StageProfile};
use crate::search::Searcher3;
use crate::transform::{
    estimate_svd, mse_point_to_plane, mse_point_to_point, point_to_plane_damped,
};

/// Why ICP stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcpTermination {
    /// The transform update fell below the epsilon thresholds.
    TransformConverged,
    /// The relative MSE improvement fell below its threshold.
    MseConverged,
    /// The iteration budget ran out.
    MaxIterations,
    /// Too few correspondences survived to continue.
    Starved,
}

/// The outcome of the fine-tuning loop.
#[derive(Debug, Clone)]
pub struct IcpResult {
    /// Final transform mapping source coordinates into target coordinates.
    pub transform: RigidTransform,
    /// Iterations executed.
    pub iterations: usize,
    /// Final mean-square error over the last correspondence set.
    pub final_mse: f64,
    /// Why the loop stopped.
    pub termination: IcpTermination,
}

/// Runs ICP fine-tuning.
///
/// * `source` — points of the source frame (sensor frame).
/// * `target_searcher` — metered searcher over the target frame.
/// * `target_normals` — target normals (required by point-to-plane).
/// * `initial` — the initial-estimation phase's transform.
///
/// Time is attributed to [`Stage::Rpce`] and [`Stage::ErrorMinimization`]
/// in `profile`.
///
/// # Panics
///
/// Panics when `error_metric` is point-to-plane and `target_normals` is
/// not parallel to the target cloud.
#[allow(clippy::too_many_arguments)]
pub fn icp(
    source: &[Vec3],
    target_searcher: &mut Searcher3,
    target_normals: &[Vec3],
    initial: RigidTransform,
    error_metric: ErrorMetric,
    solver: SolverAlgorithm,
    max_correspondence_distance: f64,
    criteria: &ConvergenceCriteria,
    profile: &mut StageProfile,
) -> IcpResult {
    icp_with_options(
        source,
        target_searcher,
        target_normals,
        initial,
        error_metric,
        solver,
        max_correspondence_distance,
        false,
        criteria,
        profile,
    )
}

/// ICP with the reciprocity knob exposed (Tbl. 1's RPCE "Reciprocity"):
/// when `reciprocal` is set, each iteration keeps only mutually-nearest
/// dense correspondences, rebuilding a source-side tree over the moved
/// points (the honest cost of the knob).
#[allow(clippy::too_many_arguments)]
pub fn icp_with_options(
    source: &[Vec3],
    target_searcher: &mut Searcher3,
    target_normals: &[Vec3],
    initial: RigidTransform,
    error_metric: ErrorMetric,
    solver: SolverAlgorithm,
    max_correspondence_distance: f64,
    reciprocal: bool,
    criteria: &ConvergenceCriteria,
    profile: &mut StageProfile,
) -> IcpResult {
    icp_with_graph(
        source,
        target_searcher,
        None,
        target_normals,
        initial,
        error_metric,
        solver,
        max_correspondence_distance,
        reciprocal,
        criteria,
        profile,
    )
}

/// [`icp_with_options`] with the target frame's neighbour graph, which
/// lets RPCE certify more reuse; every result stays bit-identical.
#[allow(clippy::too_many_arguments)]
pub(crate) fn icp_with_graph(
    source: &[Vec3],
    target_searcher: &mut Searcher3,
    target_graph: Option<&NeighborGraph>,
    target_normals: &[Vec3],
    initial: RigidTransform,
    error_metric: ErrorMetric,
    solver: SolverAlgorithm,
    max_correspondence_distance: f64,
    reciprocal: bool,
    criteria: &ConvergenceCriteria,
    profile: &mut StageProfile,
) -> IcpResult {
    if error_metric == ErrorMetric::PointToPlane {
        assert_eq!(
            target_normals.len(),
            target_searcher.len(),
            "point-to-plane needs target normals parallel to the target cloud"
        );
    }
    let mut transform = initial;
    let mut prev_mse = f64::INFINITY;
    let mut lambda = 1e-3; // LM damping state
    let mut termination = IcpTermination::MaxIterations;
    let mut iterations = 0;
    let mut final_mse = f64::NAN;
    let mut cache = RpceCache::default();
    let mut moved: Vec<Vec3> = Vec::with_capacity(source.len());
    let mut correspondences = Vec::with_capacity(source.len());

    for _ in 0..criteria.max_iterations {
        iterations += 1;

        // --- RPCE: transform source by the current estimate, find dense NNs.
        let t0 = Instant::now();
        moved.clear();
        moved.extend(source.iter().map(|&p| transform.apply(p)));
        let counts = if reciprocal {
            let mut moved_searcher = crate::search::Searcher3::classic(&moved);
            profile.kd_build_time += moved_searcher.build_time();
            let out = crate::correspond::rpce_reciprocal(
                &moved,
                &mut moved_searcher,
                target_searcher,
                max_correspondence_distance,
            );
            profile.kd_search_time += moved_searcher.search_time();
            profile.search_stats += *moved_searcher.stats();
            correspondences = out;
            RpceCounts { searched: moved.len(), ..RpceCounts::default() }
        } else {
            cache.rpce_into(
                &moved,
                target_searcher,
                target_graph,
                max_correspondence_distance,
                &mut correspondences,
            )
        };
        profile.add(Stage::Rpce, t0.elapsed());
        let target = target_searcher.points();

        let min_needed = if error_metric == ErrorMetric::PointToPlane { 6 } else { 3 };
        if correspondences.len() < min_needed {
            termination = IcpTermination::Starved;
            final_mse = prev_mse;
            break;
        }

        // --- Transformation estimation on the *moved* source, producing an
        // incremental transform composed onto the running estimate.
        let t0 = Instant::now();
        let mse = match error_metric {
            ErrorMetric::PointToPoint => {
                mse_point_to_point(&moved, target, &correspondences, &RigidTransform::IDENTITY)
            }
            ErrorMetric::PointToPlane => mse_point_to_plane(
                &moved,
                target,
                target_normals,
                &correspondences,
                &RigidTransform::IDENTITY,
            ),
        };
        let delta = match (error_metric, solver) {
            (ErrorMetric::PointToPoint, SolverAlgorithm::Svd) => {
                estimate_svd(&moved, target, &correspondences).ok()
            }
            (ErrorMetric::PointToPoint, SolverAlgorithm::LevenbergMarquardt) => {
                // LM on point-to-point: damped closed-form step — the SVD
                // solution interpolated toward identity as damping grows.
                estimate_svd(&moved, target, &correspondences).ok().map(|full| {
                    let scale = 1.0 / (1.0 + lambda);
                    let rotation = if full.rotation_angle() > 1e-12 {
                        // Re-scale the rotation about its own axis.
                        scale_rotation(&full, scale)
                    } else {
                        full.rotation
                    };
                    RigidTransform::new(rotation, full.translation * scale)
                })
            }
            (ErrorMetric::PointToPlane, SolverAlgorithm::Svd) => {
                // Plain Gauss-Newton step (λ = 0).
                point_to_plane_damped(&moved, target, target_normals, &correspondences, 0.0).ok()
            }
            (ErrorMetric::PointToPlane, SolverAlgorithm::LevenbergMarquardt) => {
                point_to_plane_damped(&moved, target, target_normals, &correspondences, lambda).ok()
            }
        };
        profile.add(Stage::ErrorMinimization, t0.elapsed());

        let Some(delta) = delta else {
            termination = IcpTermination::Starved;
            final_mse = mse;
            break;
        };
        transform = delta * transform;
        final_mse = mse;
        tigris_obs::event!(
            "icp.iter",
            iteration = iterations,
            mse = mse,
            correspondences = correspondences.len(),
            searched = counts.searched,
            anchor_reused = counts.anchor_reused,
            graph_reused = counts.graph_reused,
        );

        // LM damping schedule: error went down → trust the model more.
        if mse < prev_mse {
            lambda = (lambda * 0.5).max(1e-9);
        } else {
            lambda = (lambda * 4.0).min(1e3);
        }

        // --- Convergence checks.
        if delta.translation_norm() < criteria.translation_epsilon
            && delta.rotation_angle() < criteria.rotation_epsilon
        {
            termination = IcpTermination::TransformConverged;
            break;
        }
        if prev_mse.is_finite() {
            let rel = (prev_mse - mse).abs() / prev_mse.max(1e-30);
            if rel < criteria.mse_relative_epsilon {
                termination = IcpTermination::MseConverged;
                break;
            }
        }
        prev_mse = mse;
    }

    profile.icp_iterations += iterations;
    IcpResult { transform, iterations, final_mse, termination }
}

/// Scales a rotation about its own axis by `scale` (for damped
/// point-to-point LM steps).
fn scale_rotation(t: &RigidTransform, scale: f64) -> tigris_geom::Mat3 {
    let angle = t.rotation_angle();
    if angle < 1e-12 {
        return t.rotation;
    }
    // Extract the axis from the skew-symmetric part of R.
    let r = &t.rotation.m;
    let axis = Vec3::new(r[2][1] - r[1][2], r[0][2] - r[2][0], r[1][0] - r[0][1]);
    match axis.normalized() {
        Some(axis) => tigris_geom::Mat3::from_axis_angle(axis, angle * scale),
        None => t.rotation, // angle ≈ π: axis extraction degenerate; keep full step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConvergenceCriteria, ErrorMetric, SolverAlgorithm};

    /// A 3D structured cloud: two walls + floor (well-constrained for ICP).
    fn structured_cloud() -> Vec<Vec3> {
        let mut pts = Vec::new();
        for i in 0..15 {
            for j in 0..15 {
                let (a, b) = (i as f64 * 0.2, j as f64 * 0.2);
                pts.push(Vec3::new(a, b, 0.0)); // floor
                pts.push(Vec3::new(a, 0.0, b + 0.2)); // wall 1
                pts.push(Vec3::new(0.0, a + 0.2, b + 0.2)); // wall 2
            }
        }
        pts
    }

    fn normals_for(points: &[Vec3]) -> Vec<Vec3> {
        // Analytic normals for the structured cloud.
        points
            .iter()
            .map(|p| {
                if p.z == 0.0 {
                    Vec3::Z
                } else if p.y == 0.0 {
                    Vec3::Y
                } else {
                    Vec3::X
                }
            })
            .collect()
    }

    fn run(
        metric: ErrorMetric,
        solver: SolverAlgorithm,
    ) -> (RigidTransform, RigidTransform, IcpResult) {
        let target = structured_cloud();
        // Keep the displacement well under the 0.2 m grid pitch: larger
        // offsets alias NN correspondences onto the wrong lattice points and
        // ICP (correctly) locks onto a shifted local minimum.
        let gt = RigidTransform::from_axis_angle(Vec3::Z, 0.02, Vec3::new(0.06, -0.04, 0.02));
        // source = gt⁻¹(target): registering source onto target should
        // recover gt.
        let source: Vec<Vec3> = target.iter().map(|&p| gt.inverse().apply(p)).collect();
        let mut searcher = Searcher3::classic(&target);
        let normals = normals_for(&target);
        let mut profile = StageProfile::new();
        let result = icp(
            &source,
            &mut searcher,
            &normals,
            RigidTransform::IDENTITY,
            metric,
            solver,
            1.0,
            &ConvergenceCriteria { max_iterations: 50, ..Default::default() },
            &mut profile,
        );
        (gt, result.transform, result)
    }

    #[test]
    fn point_to_point_svd_converges() {
        let (gt, est, result) = run(ErrorMetric::PointToPoint, SolverAlgorithm::Svd);
        assert!((est.translation - gt.translation).norm() < 0.02, "t = {}", est.translation);
        assert!((est.rotation - gt.rotation).frobenius_norm() < 0.02);
        assert!(result.final_mse < 1e-3);
        assert_ne!(result.termination, IcpTermination::Starved);
    }

    #[test]
    fn point_to_plane_converges() {
        let (gt, est, result) = run(ErrorMetric::PointToPlane, SolverAlgorithm::Svd);
        assert!((est.translation - gt.translation).norm() < 0.02);
        assert!(result.final_mse < 1e-3);
        assert!(result.iterations <= 50);
    }

    #[test]
    fn lm_solvers_converge() {
        for metric in [ErrorMetric::PointToPoint, ErrorMetric::PointToPlane] {
            let (gt, est, _) = run(metric, SolverAlgorithm::LevenbergMarquardt);
            assert!(
                (est.translation - gt.translation).norm() < 0.03,
                "{metric:?}: t = {} vs {}",
                est.translation,
                gt.translation
            );
        }
    }

    #[test]
    fn identity_input_converges_immediately() {
        let target = structured_cloud();
        let mut searcher = Searcher3::classic(&target);
        let normals = normals_for(&target);
        let mut profile = StageProfile::new();
        let result = icp(
            &target,
            &mut searcher,
            &normals,
            RigidTransform::IDENTITY,
            ErrorMetric::PointToPoint,
            SolverAlgorithm::Svd,
            1.0,
            &ConvergenceCriteria::default(),
            &mut profile,
        );
        assert!(result.transform.is_identity(1e-6));
        assert!(result.iterations <= 3);
        assert!(result.final_mse < 1e-12);
    }

    #[test]
    fn starves_when_clouds_are_disjoint() {
        let target = structured_cloud();
        let source: Vec<Vec3> = target.iter().map(|&p| p + Vec3::new(100.0, 0.0, 0.0)).collect();
        let mut searcher = Searcher3::classic(&target);
        let mut profile = StageProfile::new();
        let result = icp(
            &source,
            &mut searcher,
            &[],
            RigidTransform::IDENTITY,
            ErrorMetric::PointToPoint,
            SolverAlgorithm::Svd,
            0.5,
            &ConvergenceCriteria::default(),
            &mut profile,
        );
        assert_eq!(result.termination, IcpTermination::Starved);
    }

    #[test]
    fn respects_iteration_budget() {
        let target = structured_cloud();
        let gt = RigidTransform::from_translation(Vec3::new(0.4, 0.0, 0.0));
        let source: Vec<Vec3> = target.iter().map(|&p| gt.inverse().apply(p)).collect();
        let mut searcher = Searcher3::classic(&target);
        let mut profile = StageProfile::new();
        let result = icp(
            &source,
            &mut searcher,
            &[],
            RigidTransform::IDENTITY,
            ErrorMetric::PointToPoint,
            SolverAlgorithm::Svd,
            1.0,
            &ConvergenceCriteria {
                max_iterations: 2,
                translation_epsilon: 0.0,
                rotation_epsilon: 0.0,
                mse_relative_epsilon: 0.0,
            },
            &mut profile,
        );
        assert_eq!(result.iterations, 2);
        assert_eq!(result.termination, IcpTermination::MaxIterations);
        assert_eq!(profile.icp_iterations, 2);
    }

    #[test]
    fn profile_attributes_rpce_and_minimization() {
        let target = structured_cloud();
        let source = target.clone();
        let mut searcher = Searcher3::classic(&target);
        let mut profile = StageProfile::new();
        icp(
            &source,
            &mut searcher,
            &[],
            RigidTransform::IDENTITY,
            ErrorMetric::PointToPoint,
            SolverAlgorithm::Svd,
            1.0,
            &ConvergenceCriteria::default(),
            &mut profile,
        );
        assert!(profile.time(Stage::Rpce) > std::time::Duration::ZERO);
        assert!(profile.time(Stage::ErrorMinimization) > std::time::Duration::ZERO);
    }

    #[test]
    fn correspondence_reuse_leaves_every_result_bit_identical() {
        // A query-logged searcher takes the full path (every point
        // searched every iteration, as a replay needs); a plain one
        // reuses certified correspondences, with and without the
        // target's neighbour graph. Nothing ICP returns may differ by a
        // bit.
        let target = structured_cloud();
        let graph = crate::correspond::brute_force_graph(&target, 0.5);
        let normals = normals_for(&target);
        let gt = RigidTransform::from_axis_angle(Vec3::Z, 0.03, Vec3::new(0.05, -0.03, 0.02));
        let source: Vec<Vec3> = target.iter().map(|&p| gt.inverse().apply(p)).collect();
        let criteria = ConvergenceCriteria { max_iterations: 40, ..Default::default() };
        for metric in [ErrorMetric::PointToPoint, ErrorMetric::PointToPlane] {
            for solver in [SolverAlgorithm::Svd, SolverAlgorithm::LevenbergMarquardt] {
                let run = |searcher: &mut Searcher3, graph: Option<&NeighborGraph>| {
                    let mut profile = StageProfile::new();
                    icp_with_graph(
                        &source,
                        searcher,
                        graph,
                        &normals,
                        RigidTransform::IDENTITY,
                        metric,
                        solver,
                        1.0,
                        false,
                        &criteria,
                        &mut profile,
                    )
                };
                let mut plain = Searcher3::classic(&target);
                let mut with_graph = Searcher3::classic(&target);
                let mut logged = Searcher3::classic(&target);
                logged.enable_query_logging();
                let reused = run(&mut plain, None);
                let graph_reused = run(&mut with_graph, Some(&graph));
                let full = run(&mut logged, Some(&graph));
                let at = format!("{metric:?} / {solver:?}");
                let bits = |r: &IcpResult| {
                    let t = &r.transform;
                    let mut v: Vec<u64> =
                        t.rotation.m.iter().flatten().map(|x| x.to_bits()).collect();
                    v.extend([t.translation.x, t.translation.y, t.translation.z].map(f64::to_bits));
                    v.push(r.final_mse.to_bits());
                    v
                };
                for (r, arm) in [(&reused, "anchor"), (&graph_reused, "graph")] {
                    assert_eq!(bits(r), bits(&full), "{at} / {arm}: transform / mse bits");
                    assert_eq!(r.iterations, full.iterations, "{at} / {arm}: iterations");
                    assert_eq!(r.termination, full.termination, "{at} / {arm}: termination");
                }
                let full_queries = (source.len() * full.iterations) as u64;
                assert_eq!(logged.stats().queries, full_queries, "{at}: full path");
                assert_eq!(logged.take_query_log().unwrap().len() as u64, full_queries);
                assert!(full.iterations < 2 || plain.stats().queries < full_queries, "{at}: reuse");
                assert!(
                    full.iterations < 2 || with_graph.stats().queries < full_queries,
                    "{at}: graph reuse"
                );
            }
        }
    }

    #[test]
    fn good_initial_guess_reduces_iterations() {
        let target = structured_cloud();
        let gt = RigidTransform::from_axis_angle(Vec3::Z, 0.08, Vec3::new(0.3, 0.1, 0.0));
        let source: Vec<Vec3> = target.iter().map(|&p| gt.inverse().apply(p)).collect();
        let normals = normals_for(&target);
        let criteria = ConvergenceCriteria { max_iterations: 60, ..Default::default() };

        let mut s1 = Searcher3::classic(&target);
        let mut p1 = StageProfile::new();
        let cold = icp(
            &source,
            &mut s1,
            &normals,
            RigidTransform::IDENTITY,
            ErrorMetric::PointToPoint,
            SolverAlgorithm::Svd,
            1.0,
            &criteria,
            &mut p1,
        );
        let mut s2 = Searcher3::classic(&target);
        let mut p2 = StageProfile::new();
        let warm = icp(
            &source,
            &mut s2,
            &normals,
            gt,
            ErrorMetric::PointToPoint,
            SolverAlgorithm::Svd,
            1.0,
            &criteria,
            &mut p2,
        );
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} > cold {}",
            warm.iterations,
            cold.iterations
        );
    }
}
