//! Property-based tests of the registration pipeline's numeric stages:
//! transform estimation, rejection, correspondence estimation and the
//! metered searcher, including its error injection (paper Sec. 4.2).

use proptest::prelude::*;
use tigris_core::knn_brute_force;
use tigris_geom::{RigidTransform, Vec3};
use tigris_pipeline::correspond::{kpce, kpce_ratio, rpce, Correspondence};
use tigris_pipeline::descriptor::Descriptors;
use tigris_pipeline::reject::reject_correspondences;
use tigris_pipeline::transform::{
    estimate_svd, mse_point_to_plane, mse_point_to_point, point_to_plane_damped,
};
use tigris_pipeline::{Injection, RejectionAlgorithm, Searcher3};

fn point() -> impl Strategy<Value = Vec3> {
    (-20.0f64..20.0, -20.0f64..20.0, -20.0f64..20.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn rigid() -> impl Strategy<Value = RigidTransform> {
    (point(), -2.0f64..2.0, point()).prop_filter_map("axis", |(axis, angle, t)| {
        axis.normalized().map(|a| RigidTransform::from_axis_angle(a, angle, t))
    })
}

/// The exact backends injection is checked on: it sits above the
/// `SearchIndex` seam, so every backend must degrade identically.
fn exact_searchers(pts: &[Vec3], top_height: usize) -> [Searcher3; 3] {
    [Searcher3::classic(pts), Searcher3::two_stage(pts, top_height), Searcher3::brute_force(pts)]
}

fn identity_pairs(n: usize) -> Vec<Correspondence> {
    (0..n).map(|i| Correspondence { source: i, target: i, distance_squared: 0.0 }).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn svd_recovers_arbitrary_rigid_transforms(
        pts in prop::collection::vec(point(), 4..40),
        gt in rigid(),
    ) {
        let tgt: Vec<Vec3> = pts.iter().map(|&p| gt.apply(p)).collect();
        let pairs = identity_pairs(pts.len());
        let est = estimate_svd(&pts, &tgt, &pairs).unwrap();
        // The estimate must align the clouds (it may differ from gt itself
        // when the points are degenerate, e.g. collinear).
        let mse = mse_point_to_point(&pts, &tgt, &pairs, &est);
        let spread = pts.iter().map(|p| p.norm()).fold(0.0, f64::max);
        prop_assert!(mse < 1e-12 * spread.max(1.0).powi(2) + 1e-12, "mse {mse}");
    }

    #[test]
    fn svd_estimate_is_a_proper_rigid_transform(
        pts in prop::collection::vec(point(), 3..40),
        tgt in prop::collection::vec(point(), 3..40),
    ) {
        // Even on garbage correspondences the estimate must be a rotation,
        // never a reflection or scaling.
        let n = pts.len().min(tgt.len());
        let pairs = identity_pairs(n);
        let est = estimate_svd(&pts[..n], &tgt[..n], &pairs).unwrap();
        prop_assert!(est.rotation.is_rotation(1e-7));
    }

    #[test]
    fn point_to_plane_step_never_increases_error_much(
        pts in prop::collection::vec(point(), 8..40),
        alpha in -0.05f64..0.05,
        tx in -0.2f64..0.2,
    ) {
        // Small-motion recovery: target = gt(src) with varied normals.
        let gt = RigidTransform::from_euler_xyz(alpha, -alpha * 0.5, alpha * 0.3, Vec3::new(tx, -tx, tx * 0.5));
        let tgt: Vec<Vec3> = pts.iter().map(|&p| gt.apply(p)).collect();
        let normals: Vec<Vec3> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                (p + Vec3::new((i % 3) as f64 + 0.2, ((i + 1) % 3) as f64, ((i + 2) % 3) as f64 + 0.1))
                    .normalized()
                    .unwrap_or(Vec3::Z)
            })
            .collect();
        let pairs = identity_pairs(pts.len());
        if let Ok(step) = point_to_plane_damped(&pts, &tgt, &normals, &pairs, 0.0) {
            // Gauss-Newton minimizes the point-to-*plane* objective; with
            // adversarial normals an ill-conditioned system legitimately
            // moves points far along the planes (the point-to-point error
            // is unconstrained there), so the non-blow-up guarantee is on
            // the plane error.
            let before = mse_point_to_plane(&pts, &tgt, &normals, &pairs, &RigidTransform::IDENTITY);
            let moved: Vec<Vec3> = pts.iter().map(|&p| step.apply(p)).collect();
            let after = mse_point_to_plane(&moved, &tgt, &normals, &pairs, &RigidTransform::IDENTITY);
            prop_assert!(after <= before * 4.0 + 1e-9, "before {before} after {after}");
        }
    }

    #[test]
    fn ransac_keeps_only_consistent_pairs(
        inlier_pts in prop::collection::vec(point(), 8..24),
        gt in rigid(),
        outliers in prop::collection::vec((point(), point()), 1..8),
    ) {
        let mut src: Vec<Vec3> = inlier_pts.clone();
        let mut tgt: Vec<Vec3> = inlier_pts.iter().map(|&p| gt.apply(p)).collect();
        for (s, t) in &outliers {
            src.push(*s);
            tgt.push(gt.apply(*t) + Vec3::new(50.0, 50.0, 0.0)); // gross outlier
        }
        let pairs = identity_pairs(src.len());
        let kept = reject_correspondences(
            &pairs,
            &src,
            &tgt,
            RejectionAlgorithm::Ransac { iterations: 300, inlier_threshold: 0.2 },
            7,
        );
        // All gross outliers rejected (inliers ≥ 8 dominate every sample).
        for c in &kept {
            prop_assert!(c.source < inlier_pts.len(), "outlier {} survived", c.source);
        }
        prop_assert!(kept.len() >= 3);
    }

    #[test]
    fn threshold_rejection_is_a_subset_and_keeps_median(
        dists in prop::collection::vec(0.0f64..100.0, 1..64),
        factor in 1.0f64..3.0,
    ) {
        let pairs: Vec<Correspondence> = dists
            .iter()
            .enumerate()
            .map(|(i, &d)| Correspondence { source: i, target: i, distance_squared: d })
            .collect();
        let kept = reject_correspondences(
            &pairs,
            &[],
            &[],
            RejectionAlgorithm::Threshold { factor },
            0,
        );
        prop_assert!(kept.len() <= pairs.len());
        // The median element always survives a factor ≥ 1.
        prop_assert!(!kept.is_empty());
        for c in &kept {
            prop_assert!(pairs.iter().any(|p| p.source == c.source));
        }
    }

    #[test]
    fn kpce_matches_are_mutually_consistent_under_reciprocity(
        rows in prop::collection::vec(prop::collection::vec(0.0f64..10.0, 4), 2..24),
    ) {
        let dim = 4;
        let data: Vec<f64> = rows.iter().flatten().copied().collect();
        let d = Descriptors { dim, data };
        let plain = kpce(&d, &d, false, None);
        let recip = kpce(&d, &d, true, None);
        // Self-matching: every descriptor's NN is itself (distance 0), so
        // reciprocity keeps everything plain matching found.
        prop_assert_eq!(plain.len(), rows.len());
        prop_assert_eq!(recip.len(), plain.len());
        for c in &plain {
            prop_assert_eq!(c.distance_squared, 0.0);
        }
    }

    #[test]
    fn kpce_ratio_is_a_subset_of_plain_matches(
        src_rows in prop::collection::vec(prop::collection::vec(0.0f64..10.0, 3), 1..16),
        tgt_rows in prop::collection::vec(prop::collection::vec(0.0f64..10.0, 3), 2..16),
        ratio in 0.05f64..1.0,
    ) {
        let src = Descriptors { dim: 3, data: src_rows.iter().flatten().copied().collect() };
        let tgt = Descriptors { dim: 3, data: tgt_rows.iter().flatten().copied().collect() };
        let plain = kpce(&src, &tgt, false, None);
        let filtered = kpce_ratio(&src, &tgt, ratio);
        prop_assert!(filtered.len() <= plain.len());
        // Every surviving match must agree with the plain NN match.
        for f in &filtered {
            let p = plain.iter().find(|p| p.source == f.source).unwrap();
            prop_assert_eq!(p.target, f.target);
        }
    }

    #[test]
    fn fpfh_is_rigid_invariant_given_consistent_normals(
        pts in prop::collection::vec(point(), 40..120),
        t in rigid(),
    ) {
        use tigris_pipeline::descriptor::compute_descriptors;
        use tigris_pipeline::DescriptorAlgorithm;

        // FPFH is pose-invariant when the normals transform with the cloud.
        // (Estimating normals per frame adds viewpoint-dependent orientation
        // flips — the sensor origin does NOT move with the cloud — so here
        // normals are supplied directly.)
        let radius = 8.0; // generous so most points participate
        let normals: Vec<Vec3> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                (p + Vec3::new(((i * 7) % 13) as f64 - 6.0, ((i * 5) % 11) as f64 - 5.0, 1.5))
                    .normalized()
                    .unwrap_or(Vec3::Z)
            })
            .collect();
        let mut s1 = Searcher3::classic(&pts);
        let d1 = compute_descriptors(&mut s1, &normals, &[0], DescriptorAlgorithm::Fpfh { radius });

        let moved: Vec<Vec3> = pts.iter().map(|&p| t.apply(p)).collect();
        let moved_normals: Vec<Vec3> = normals.iter().map(|&n| t.apply_direction(n)).collect();
        let mut s2 = Searcher3::classic(&moved);
        let d2 =
            compute_descriptors(&mut s2, &moved_normals, &[0], DescriptorAlgorithm::Fpfh { radius });

        // Bin-exact up to fp round-off at histogram edges: allow a small
        // number of boundary-crossing counts.
        let a = d1.row(0);
        let b = d2.row(0);
        let diff: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
        let scale: f64 = a.iter().sum::<f64>().max(1.0);
        prop_assert!(diff / scale < 0.05, "relative L1 diff {}", diff / scale);
    }

    #[test]
    fn rpce_respects_max_distance(
        target in prop::collection::vec(point(), 1..100),
        source in prop::collection::vec(point(), 1..40),
        max_d in 0.1f64..20.0,
    ) {
        let mut s = Searcher3::classic(&target);
        let pairs = rpce(&source, &mut s, max_d);
        for c in &pairs {
            prop_assert!(c.distance_squared <= max_d * max_d + 1e-12);
            let true_d2 = source[c.source].distance_squared(target[c.target]);
            prop_assert!((true_d2 - c.distance_squared).abs() < 1e-12);
        }
    }

    #[test]
    fn searcher_backends_agree(
        pts in prop::collection::vec(point(), 1..200),
        qs in prop::collection::vec(point(), 1..20),
        h in 0usize..7,
    ) {
        let mut classic = Searcher3::classic(&pts);
        let mut two = Searcher3::two_stage(&pts, h);
        for &q in &qs {
            let a = classic.nn(q).unwrap();
            let b = two.nn(q).unwrap();
            prop_assert_eq!(a.distance_squared, b.distance_squared);
            prop_assert_eq!(classic.radius(q, 2.5).len(), two.radius(q, 2.5).len());
        }
    }

    /// `NnKth(k)` answers with brute force's k-th nearest neighbor (and
    /// `None` past the cloud size), so its distance never decreases in k.
    #[test]
    fn kth_nn_is_monotone_in_k(
        pts in prop::collection::vec(point(), 10..200),
        q in point(),
        h in 0usize..7,
    ) {
        let oracle = knn_brute_force(&pts, q, 11);
        for mut s in exact_searchers(&pts, h) {
            let mut prev = -1.0f64;
            for k in 1..=pts.len().min(10) {
                s.set_injection(Some(Injection::NnKth(k)));
                let n = s.nn(q).unwrap();
                prop_assert_eq!(n, oracle[k - 1], "{} k={}", s.backend_name(), k);
                prop_assert!(n.distance_squared >= prev);
                prev = n.distance_squared;
            }
            s.set_injection(Some(Injection::NnKth(pts.len() + 1)));
            prop_assert_eq!(s.nn(q), None, "{} past the cloud size", s.backend_name());
        }
    }

    /// `RadiusShell` answers with exactly brute force's points at
    /// `lo ≤ d ≤ hi`, in canonical `(d², index)` order.
    #[test]
    fn shell_is_ball_minus_inner_ball(
        pts in prop::collection::vec(point(), 1..300),
        q in point(),
        r in 0.1f64..10.0,
        inner_frac in 0.0f64..1.0,
        outer_frac in 1.0f64..2.0,
        h in 0usize..7,
    ) {
        let (lo, hi) = (inner_frac * r, outer_frac * r);
        let oracle: Vec<_> = knn_brute_force(&pts, q, pts.len())
            .into_iter()
            .filter(|n| lo * lo <= n.distance_squared && n.distance_squared <= hi * hi)
            .collect();
        for mut s in exact_searchers(&pts, h) {
            s.set_injection(Some(Injection::RadiusShell { inner_frac, outer_frac }));
            let shell = s.radius(q, r);
            prop_assert_eq!(&shell, &oracle, "{}", s.backend_name());
            prop_assert!(shell.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
