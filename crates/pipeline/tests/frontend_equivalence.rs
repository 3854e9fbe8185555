//! Bit-identity of the refactored front end against verbatim copies of
//! the pre-refactor implementations.
//!
//! The SIMD/dense rewrite of normal estimation and descriptor
//! calculation promises *bit-identical* outputs — not approximately
//! equal, identical to the last ULP — so these tests carry frozen,
//! verbatim copies of the old `estimate_normals`, `fpfh`, `shot`, `iss`,
//! `harris3d` and `non_max_suppress` (written against the public
//! `Searcher3` API only) and compare with `assert_eq!` on the raw `f64`s
//! and key-point indices.
//!
//! Under the default features the new code runs the `wide` SIMD
//! kernels; under `--features scalar-kernels` it runs the scalar
//! fallbacks. The frozen copies below use neither — plain `Vec3`
//! arithmetic — so passing this suite under *both* feature sets proves
//! scalar == wide == pre-refactor, all three bit-identical.
//!
//! Fixtures deliberately include the adversarial shapes: neighborhoods
//! too small to fit a plane, exactly coincident points, duplicated
//! key-points, and cloud/neighborhood sizes straddling the SIMD width.

use tigris_geom::PointCloud;
use tigris_geom::{symmetric_eigen3, Mat3, Vec3};
use tigris_pipeline::descriptor::{compute_descriptors, Descriptors, FPFH_DIM, SHOT_DIM};
use tigris_pipeline::normal::estimate_normals;
use tigris_pipeline::{
    prepare_frame, prepare_frame_from_searcher, DescriptorAlgorithm, Injection, KeypointAlgorithm,
    NormalAlgorithm, RegistrationConfig, Searcher3,
};

// ==========================================================================
// Frozen pre-refactor implementations (verbatim, modulo import paths and
// using the public Searcher3 API). Do not "improve" these: their entire
// value is that they are the old code.
// ==========================================================================

mod frozen {
    use super::*;

    pub fn estimate_normals(
        searcher: &mut Searcher3,
        radius: f64,
        algorithm: NormalAlgorithm,
    ) -> Vec<Vec3> {
        assert!(radius > 0.0, "normal-estimation radius must be positive");
        let n = searcher.len();
        const CHUNK: usize = 16 * 1024;
        let mut normals = Vec::with_capacity(n);
        let mut start = 0;
        while start < n {
            let end = (start + CHUNK).min(n);
            let chunk: Vec<Vec3> = searcher.points()[start..end].to_vec();
            let neighborhoods = searcher.radius_batch(&chunk, radius);
            let points = searcher.points();
            normals.extend((0..chunk.len()).map(|i| {
                let p = chunk[i];
                let neighbors = &neighborhoods[i];
                let normal = match algorithm {
                    NormalAlgorithm::PlaneSvd => plane_svd_normal(points, neighbors, p),
                    NormalAlgorithm::AreaWeighted => area_weighted_normal(points, neighbors, p),
                };
                if normal.dot(-p) < 0.0 {
                    -normal
                } else {
                    normal
                }
            }));
            start = end;
        }
        normals
    }

    fn plane_svd_normal(
        points: &[Vec3],
        neighbors: &[tigris_core::Neighbor],
        fallback_at: Vec3,
    ) -> Vec3 {
        if neighbors.len() < 3 {
            return fallback_normal(fallback_at);
        }
        let mut centroid = Vec3::ZERO;
        for n in neighbors {
            centroid += points[n.index];
        }
        centroid = centroid / neighbors.len() as f64;
        let mut cov = Mat3::ZERO;
        for n in neighbors {
            let d = points[n.index] - centroid;
            cov = cov + Mat3::outer(d, d);
        }
        let eig = symmetric_eigen3(&cov);
        eig.smallest_vector().normalized().unwrap_or(Vec3::Z)
    }

    fn area_weighted_normal(
        points: &[Vec3],
        neighbors: &[tigris_core::Neighbor],
        at: Vec3,
    ) -> Vec3 {
        if neighbors.len() < 3 {
            return fallback_normal(at);
        }
        let rough = plane_svd_normal(points, neighbors, at);
        let u = pick_perpendicular(rough);
        let v = rough.cross(u);
        let mut ordered: Vec<Vec3> = neighbors.iter().map(|n| points[n.index]).collect();
        ordered.sort_by(|a, b| {
            let da = *a - at;
            let db = *b - at;
            let ang_a = da.dot(v).atan2(da.dot(u));
            let ang_b = db.dot(v).atan2(db.dot(u));
            ang_a.partial_cmp(&ang_b).unwrap()
        });

        let mut acc = Vec3::ZERO;
        for i in 0..ordered.len() {
            let a = ordered[i] - at;
            let b = ordered[(i + 1) % ordered.len()] - at;
            let n = a.cross(b);
            acc += if n.dot(rough) < 0.0 { -n } else { n };
        }
        acc.normalized().unwrap_or(rough)
    }

    fn fallback_normal(_at: Vec3) -> Vec3 {
        Vec3::Z
    }

    fn pick_perpendicular(n: Vec3) -> Vec3 {
        let helper = if n.x.abs() < 0.9 { Vec3::X } else { Vec3::Y };
        n.cross(helper).normalized().unwrap_or(Vec3::X)
    }

    const FPFH_BINS: usize = 11;

    fn pair_features(ps: Vec3, ns: Vec3, pt: Vec3, nt: Vec3) -> Option<(f64, f64, f64)> {
        let d = pt - ps;
        let dist = d.norm();
        if dist < 1e-9 {
            return None;
        }
        let du = d / dist;
        let (p1, n1, _p2, n2, du) = if ns.dot(du).abs() >= nt.dot(-du).abs() {
            (ps, ns, pt, nt, du)
        } else {
            (pt, nt, ps, ns, -du)
        };
        let _ = p1;
        let u = n1;
        let v = du.cross(u).normalized()?;
        let w = u.cross(v);
        let alpha = v.dot(n2);
        let phi = u.dot(du);
        let theta = w.dot(n2).atan2(u.dot(n2));
        Some((alpha, phi, theta))
    }

    fn bin_index(value: f64, lo: f64, hi: f64) -> usize {
        let t = ((value - lo) / (hi - lo)).clamp(0.0, 1.0);
        ((t * FPFH_BINS as f64) as usize).min(FPFH_BINS - 1)
    }

    fn spfh(
        points: &[Vec3],
        normals: &[Vec3],
        center: usize,
        neighbors: &[usize],
    ) -> [f64; FPFH_DIM] {
        let mut hist = [0.0f64; FPFH_DIM];
        let mut count = 0.0;
        for &j in neighbors {
            if j == center {
                continue;
            }
            if let Some((alpha, phi, theta)) =
                pair_features(points[center], normals[center], points[j], normals[j])
            {
                hist[bin_index(alpha, -1.0, 1.0)] += 1.0;
                hist[FPFH_BINS + bin_index(phi, -1.0, 1.0)] += 1.0;
                hist[2 * FPFH_BINS
                    + bin_index(theta, -std::f64::consts::PI, std::f64::consts::PI)] += 1.0;
                count += 1.0;
            }
        }
        if count > 0.0 {
            for h in &mut hist {
                *h *= 100.0 / count;
            }
        }
        hist
    }

    pub fn fpfh(
        searcher: &mut Searcher3,
        normals: &[Vec3],
        keypoints: &[usize],
        radius: f64,
    ) -> Descriptors {
        use std::collections::{HashMap, HashSet};

        let kp_pts: Vec<Vec3> = {
            let pts = searcher.points();
            keypoints.iter().map(|&k| pts[k]).collect()
        };
        let kp_neigh: Vec<Vec<usize>> = searcher
            .radius_batch(&kp_pts, radius)
            .into_iter()
            .map(|ns| ns.into_iter().map(|n| n.index).collect())
            .collect();

        let mut needed: Vec<usize> = Vec::new();
        let mut seen: HashSet<usize> = HashSet::new();
        for (&k, neigh) in keypoints.iter().zip(&kp_neigh) {
            if seen.insert(k) {
                needed.push(k);
            }
            for &j in neigh {
                if seen.insert(j) {
                    needed.push(j);
                }
            }
        }
        let mut neigh_of: HashMap<usize, Vec<usize>> = HashMap::new();
        for (&k, neigh) in keypoints.iter().zip(&kp_neigh) {
            neigh_of.entry(k).or_insert_with(|| neigh.clone());
        }
        let missing: Vec<usize> =
            needed.iter().copied().filter(|i| !neigh_of.contains_key(i)).collect();
        let missing_pts: Vec<Vec3> = {
            let pts = searcher.points();
            missing.iter().map(|&i| pts[i]).collect()
        };
        let missing_neigh = searcher.radius_batch(&missing_pts, radius);
        for (&i, ns) in missing.iter().zip(missing_neigh) {
            neigh_of.insert(i, ns.into_iter().map(|n| n.index).collect());
        }

        let points = searcher.points();
        let spfh_rows: Vec<[f64; FPFH_DIM]> =
            needed.iter().map(|&i| spfh(points, normals, i, &neigh_of[&i])).collect();
        let spfh_of: HashMap<usize, &[f64; FPFH_DIM]> =
            needed.iter().zip(spfh_rows.iter()).map(|(&i, h)| (i, h)).collect();

        let rows = (0..keypoints.len()).map(|ki| {
            let k = keypoints[ki];
            let neighbors = &kp_neigh[ki];
            let mut out = *spfh_of[&k];
            let mut weight_total = 0.0;
            let mut acc = [0.0f64; FPFH_DIM];
            for &j in neighbors {
                if j == k {
                    continue;
                }
                let d = points[k].distance(points[j]);
                if d < 1e-9 {
                    continue;
                }
                let h = spfh_of[&j];
                let w = 1.0 / d;
                for (a, v) in acc.iter_mut().zip(h.iter()) {
                    *a += w * v;
                }
                weight_total += w;
            }
            if weight_total > 0.0 {
                for (o, a) in out.iter_mut().zip(acc.iter()) {
                    *o += a / weight_total;
                }
            }
            out
        });

        let mut data = Vec::with_capacity(keypoints.len() * FPFH_DIM);
        for row in rows {
            data.extend_from_slice(&row);
        }
        Descriptors { dim: FPFH_DIM, data }
    }

    const SHOT_RADIAL: usize = 2;
    const SHOT_ELEVATION: usize = 2;
    const SHOT_AZIMUTH: usize = 4;
    const SHOT_COS_BINS: usize = 10;

    fn local_reference_frame(
        points: &[Vec3],
        center: Vec3,
        neighbors: &[usize],
        radius: f64,
    ) -> Mat3 {
        let mut cov = Mat3::ZERO;
        let mut total = 0.0;
        for &j in neighbors {
            let d = points[j] - center;
            let w = (radius - d.norm()).max(0.0);
            cov = cov + Mat3::outer(d, d).scale(w);
            total += w;
        }
        if total > 0.0 {
            cov = cov.scale(1.0 / total);
        }
        let eig = symmetric_eigen3(&cov);
        let mut x = eig.vectors.col(2);
        let mut z = eig.vectors.col(0);
        let mut x_pos = 0i64;
        let mut z_pos = 0i64;
        for &j in neighbors {
            let d = points[j] - center;
            x_pos += if d.dot(x) >= 0.0 { 1 } else { -1 };
            z_pos += if d.dot(z) >= 0.0 { 1 } else { -1 };
        }
        if x_pos < 0 {
            x = -x;
        }
        if z_pos < 0 {
            z = -z;
        }
        let y = z.cross(x);
        Mat3::from_cols(x, y, z)
    }

    pub fn shot(
        searcher: &mut Searcher3,
        normals: &[Vec3],
        keypoints: &[usize],
        radius: f64,
    ) -> Descriptors {
        let kp_pts: Vec<Vec3> = {
            let pts = searcher.points();
            keypoints.iter().map(|&k| pts[k]).collect()
        };
        let neighborhoods = searcher.radius_batch(&kp_pts, radius);
        let points = searcher.points();
        let rows = (0..keypoints.len()).map(|ki| {
            let k = keypoints[ki];
            let neighbors: Vec<usize> =
                neighborhoods[ki].iter().map(|n| n.index).filter(|&j| j != k).collect();
            let mut hist = vec![0.0f64; SHOT_DIM];
            if neighbors.len() >= 5 {
                let lrf = local_reference_frame(points, points[k], &neighbors, radius);
                let zn = lrf.col(2);
                for &j in &neighbors {
                    let d = points[j] - points[k];
                    let local = lrf.transpose() * d;
                    let r = local.norm();
                    if r < 1e-9 {
                        continue;
                    }
                    let radial = usize::from(r > radius * 0.5).min(SHOT_RADIAL - 1);
                    let elevation = usize::from(local.z > 0.0).min(SHOT_ELEVATION - 1);
                    let azimuth_angle = local.y.atan2(local.x) + std::f64::consts::PI;
                    let azimuth = ((azimuth_angle / std::f64::consts::TAU * SHOT_AZIMUTH as f64)
                        as usize)
                        .min(SHOT_AZIMUTH - 1);
                    let cosine = normals[j].dot(zn).clamp(-1.0, 1.0);
                    let cos_bin = (((cosine + 1.0) / 2.0 * SHOT_COS_BINS as f64) as usize)
                        .min(SHOT_COS_BINS - 1);
                    let sector = ((radial * SHOT_ELEVATION + elevation) * SHOT_AZIMUTH + azimuth)
                        * SHOT_COS_BINS;
                    hist[sector + cos_bin] += 1.0;
                }
                let norm = hist.iter().map(|v| v * v).sum::<f64>().sqrt();
                if norm > 0.0 {
                    for h in &mut hist {
                        *h /= norm;
                    }
                }
            }
            hist
        });
        let mut data = Vec::with_capacity(keypoints.len() * SHOT_DIM);
        for row in rows {
            data.extend_from_slice(&row);
        }
        Descriptors { dim: SHOT_DIM, data }
    }

    // ---- Key-point detection (ISS, Harris, suppression) -----------------

    pub fn harris3d(searcher: &mut Searcher3, normals: &[Vec3], radius: f64) -> Vec<usize> {
        assert_eq!(normals.len(), searcher.len(), "Harris needs normals parallel to the cloud");
        let n = searcher.len();
        let mut response = vec![0.0f64; n];
        const K: f64 = 0.02;
        for (i, r) in response.iter_mut().enumerate() {
            let p = searcher.points()[i];
            let neighbors = searcher.radius(p, radius);
            if neighbors.len() < 5 {
                continue;
            }
            let mut cov = Mat3::ZERO;
            for nb in &neighbors {
                let nrm = normals[nb.index];
                cov = cov + Mat3::outer(nrm, nrm);
            }
            cov = cov.scale(1.0 / neighbors.len() as f64);
            *r = cov.determinant() - K * cov.trace() * cov.trace();
        }
        non_max_suppress(searcher, &response, radius, 1e-6)
    }

    pub fn iss(searcher: &mut Searcher3, radius: f64) -> Vec<usize> {
        const GAMMA_21: f64 = 0.975;
        const GAMMA_32: f64 = 0.975;
        const MIN_SALIENCY: f64 = 3e-3;
        let n = searcher.len();
        let mut response = vec![0.0f64; n];
        for (i, r) in response.iter_mut().enumerate() {
            let p = searcher.points()[i];
            let neighbors = searcher.radius(p, radius);
            if neighbors.len() < 8 {
                continue;
            }
            let pts = searcher.points();
            let mut centroid = Vec3::ZERO;
            for n in &neighbors {
                centroid += pts[n.index];
            }
            centroid = centroid / neighbors.len() as f64;
            let mut cov = Mat3::ZERO;
            for n in &neighbors {
                let d = pts[n.index] - centroid;
                cov = cov + Mat3::outer(d, d);
            }
            cov = cov.scale(1.0 / neighbors.len() as f64);
            let eig = symmetric_eigen3(&cov);
            let (l3, l2, l1) = (eig.values[0], eig.values[1], eig.values[2]);
            if l1 <= 0.0 {
                continue;
            }
            if l2 / l1 < GAMMA_21 && l3 / l2.max(1e-30) < GAMMA_32 {
                *r = l3;
            }
        }
        non_max_suppress(searcher, &response, radius, MIN_SALIENCY)
    }

    fn non_max_suppress(
        searcher: &mut Searcher3,
        response: &[f64],
        radius: f64,
        threshold: f64,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        for (i, &r) in response.iter().enumerate() {
            if r <= threshold {
                continue;
            }
            let p = searcher.points()[i];
            let neighbors = searcher.radius(p, radius);
            let is_max = neighbors.iter().all(|n| {
                n.index == i || response[n.index] < r || (response[n.index] == r && n.index > i)
            });
            if is_max {
                out.push(i);
            }
        }
        out
    }
}

// ==========================================================================
// Fixtures
// ==========================================================================

/// Deterministic pseudo-random scatter (splitmix64), `n` points in a box.
fn scatter(n: usize, seed: u64) -> Vec<Vec3> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z = z ^ (z >> 31);
        z as f64 / u64::MAX as f64
    };
    (0..n).map(|_| Vec3::new(next() * 8.0, next() * 8.0, next() * 2.0 + 1.0)).collect()
}

/// Ground plane + wall, the classic descriptor scene.
fn scene() -> Vec<Vec3> {
    let mut pts = Vec::new();
    for i in 0..25 {
        for j in 0..25 {
            pts.push(Vec3::new(i as f64 * 0.1, j as f64 * 0.1, 0.0));
        }
    }
    for i in 0..25 {
        for k in 1..15 {
            pts.push(Vec3::new(i as f64 * 0.1, 1.2, k as f64 * 0.1));
        }
    }
    pts
}

/// Adversarial cloud: a dense cluster, exact duplicates (coincident
/// points), a pair too sparse to fit a plane, and an isolated point.
fn adversarial() -> Vec<Vec3> {
    let mut pts = Vec::new();
    // Dense cluster with plenty of neighbors.
    for i in 0..6 {
        for j in 0..6 {
            pts.push(Vec3::new(i as f64 * 0.05, j as f64 * 0.05, 3.0));
        }
    }
    // Exact duplicates of a cluster point (zero-distance pairs).
    pts.push(Vec3::new(0.05, 0.05, 3.0));
    pts.push(Vec3::new(0.05, 0.05, 3.0));
    // A two-point neighborhood: fewer than 3 points, fallback normal.
    pts.push(Vec3::new(20.0, 0.0, 1.0));
    pts.push(Vec3::new(20.1, 0.0, 1.0));
    // Fully isolated.
    pts.push(Vec3::new(-30.0, -30.0, 1.0));
    pts
}

fn serial(pts: &[Vec3]) -> Searcher3 {
    Searcher3::classic(pts)
}

fn assert_rows_identical(new: &Descriptors, old: &Descriptors, what: &str) {
    assert_eq!(new.dim, old.dim, "{what}: dim");
    assert_eq!(new.data.len(), old.data.len(), "{what}: len");
    for (i, (a, b)) in new.data.iter().zip(&old.data).enumerate() {
        assert!(a.to_bits() == b.to_bits(), "{what}: value {i} differs: new {a:?} vs frozen {b:?}");
    }
}

fn assert_normals_identical(new: &[Vec3], old: &[Vec3], what: &str) {
    assert_eq!(new.len(), old.len(), "{what}: len");
    for (i, (a, b)) in new.iter().zip(old).enumerate() {
        assert!(
            a.x.to_bits() == b.x.to_bits()
                && a.y.to_bits() == b.y.to_bits()
                && a.z.to_bits() == b.z.to_bits(),
            "{what}: normal {i} differs: new {a} vs frozen {b}"
        );
    }
}

// ==========================================================================
// Normal estimation
// ==========================================================================

#[test]
fn normals_bit_identical_on_scene_both_algorithms_and_paths() {
    let pts = scene();
    for algorithm in [NormalAlgorithm::PlaneSvd, NormalAlgorithm::AreaWeighted] {
        let new = estimate_normals(&mut serial(&pts), 0.35, algorithm);
        let old = frozen::estimate_normals(&mut serial(&pts), 0.35, algorithm);
        assert_normals_identical(&new, &old, &format!("{algorithm:?}"));
    }
}

#[test]
fn normals_bit_identical_on_adversarial_cloud() {
    let pts = adversarial();
    for algorithm in [NormalAlgorithm::PlaneSvd, NormalAlgorithm::AreaWeighted] {
        let new = estimate_normals(&mut serial(&pts), 0.3, algorithm);
        let old = frozen::estimate_normals(&mut serial(&pts), 0.3, algorithm);
        assert_normals_identical(&new, &old, &format!("adversarial {algorithm:?}"));
    }
}

#[test]
fn normals_bit_identical_across_simd_width_straddling_counts() {
    // Neighborhood sizes 0..=18 straddle every SIMD block boundary (the
    // wide kernels process f64x4 lanes; 18 covers full blocks plus every
    // possible remainder, and n < 3 exercises the fallback).
    for n in 0..=18usize {
        let pts = scatter(n.max(1), 0x5EED ^ n as u64);
        let new = estimate_normals(&mut serial(&pts), 6.0, NormalAlgorithm::PlaneSvd);
        let old = frozen::estimate_normals(&mut serial(&pts), 6.0, NormalAlgorithm::PlaneSvd);
        assert_normals_identical(&new, &old, &format!("n = {n}"));
    }
}

// ==========================================================================
// FPFH
// ==========================================================================

fn frozen_normals(pts: &[Vec3]) -> Vec<Vec3> {
    frozen::estimate_normals(&mut serial(pts), 0.3, NormalAlgorithm::PlaneSvd)
}

#[test]
fn fpfh_bit_identical_on_scene() {
    let pts = scene();
    let normals = frozen_normals(&pts);
    let kps: Vec<usize> = (0..pts.len()).step_by(17).collect();
    let new = compute_descriptors(
        &mut serial(&pts),
        &normals,
        &kps,
        DescriptorAlgorithm::Fpfh { radius: 0.5 },
    );
    let old = frozen::fpfh(&mut serial(&pts), &normals, &kps, 0.5);
    assert_rows_identical(&new, &old, "fpfh scene");
}

#[test]
fn fpfh_bit_identical_with_duplicate_keypoints() {
    let pts = scene();
    let normals = frozen_normals(&pts);
    // Duplicates, out-of-order repeats, and keypoints that are also
    // neighbors of earlier keypoints.
    let kps = vec![100, 100, 300, 101, 100, 300, 99];
    let new = compute_descriptors(
        &mut serial(&pts),
        &normals,
        &kps,
        DescriptorAlgorithm::Fpfh { radius: 0.5 },
    );
    let old = frozen::fpfh(&mut serial(&pts), &normals, &kps, 0.5);
    assert_rows_identical(&new, &old, "fpfh duplicate keypoints");
}

#[test]
fn fpfh_bit_identical_on_adversarial_cloud() {
    let pts = adversarial();
    let normals = frozen_normals(&pts);
    // Every point is a keypoint: coincident pairs, sparse neighborhoods
    // and the isolated point all produce rows.
    let kps: Vec<usize> = (0..pts.len()).collect();
    let new = compute_descriptors(
        &mut serial(&pts),
        &normals,
        &kps,
        DescriptorAlgorithm::Fpfh { radius: 0.4 },
    );
    let old = frozen::fpfh(&mut serial(&pts), &normals, &kps, 0.4);
    assert_rows_identical(&new, &old, "fpfh adversarial");
}

#[test]
fn fpfh_bit_identical_across_simd_width_straddling_counts() {
    for n in 1..=18usize {
        let pts = scatter(n, 0xF00D ^ n as u64);
        let normals = frozen_normals(&pts);
        let kps: Vec<usize> = (0..n).collect();
        let new = compute_descriptors(
            &mut serial(&pts),
            &normals,
            &kps,
            DescriptorAlgorithm::Fpfh { radius: 6.0 },
        );
        let old = frozen::fpfh(&mut serial(&pts), &normals, &kps, 6.0);
        assert_rows_identical(&new, &old, &format!("fpfh n = {n}"));
    }
}

#[test]
fn fpfh_bit_identical_on_warm_scratch() {
    // The same scratch reused across frames must not change outputs.
    use tigris_pipeline::descriptor::compute_descriptors_with;
    use tigris_pipeline::PrepareScratch;
    let mut scratch = PrepareScratch::new();
    for seed in [1u64, 2, 3] {
        let pts = scatter(120, seed);
        let normals = frozen_normals(&pts);
        let kps: Vec<usize> = (0..pts.len()).step_by(7).collect();
        let new = compute_descriptors_with(
            &mut serial(&pts),
            &normals,
            &kps,
            DescriptorAlgorithm::Fpfh { radius: 1.5 },
            &mut scratch,
        );
        let old = frozen::fpfh(&mut serial(&pts), &normals, &kps, 1.5);
        assert_rows_identical(&new, &old, &format!("fpfh warm seed {seed}"));
    }
}

// ==========================================================================
// SHOT
// ==========================================================================

#[test]
fn shot_bit_identical_on_scene_and_adversarial() {
    for (pts, radius, what) in [(scene(), 0.5, "scene"), (adversarial(), 0.4, "adversarial")] {
        let normals = frozen_normals(&pts);
        let kps: Vec<usize> = (0..pts.len()).step_by(13).collect();
        let new = compute_descriptors(
            &mut serial(&pts),
            &normals,
            &kps,
            DescriptorAlgorithm::Shot { radius },
        );
        let old = frozen::shot(&mut serial(&pts), &normals, &kps, radius);
        assert_rows_identical(&new, &old, &format!("shot {what}"));
    }
}

// ==========================================================================
// Key-points: `prepare_frame`'s normals and key-points against frozen
// normal estimation followed by frozen ISS / Harris.
// ==========================================================================

/// The scene plus exact copies of every seventh point: duplicates see
/// identical rows, so their saliencies tie and suppression must break
/// the tie to the lower index.
fn scene_with_duplicates() -> Vec<Vec3> {
    let mut pts = scene();
    let copies: Vec<Vec3> = pts.iter().step_by(7).copied().collect();
    pts.extend(copies);
    pts
}

/// A corner of two walls on a floor, on the integer lattice: at radii
/// 1 and 2 whole shells of neighbors sit exactly on the boundary
/// (d² = 1, 4), so a prefix cut by `<` instead of `≤` would show.
fn lattice_corner() -> Vec<Vec3> {
    let mut pts = Vec::new();
    for i in 0..10 {
        for j in 0..10 {
            pts.push(Vec3::new(i as f64, j as f64, 0.0));
        }
    }
    for i in 0..10 {
        for k in 1..5 {
            pts.push(Vec3::new(i as f64, 5.0, k as f64));
            pts.push(Vec3::new(5.0, i as f64, k as f64));
        }
    }
    pts
}

/// A front-end config over the un-downsampled cloud with a cheap
/// descriptor (the descriptor stage is not under test here).
fn keypoint_config(normal_radius: f64, keypoint: KeypointAlgorithm) -> RegistrationConfig {
    RegistrationConfig {
        voxel_size: 0.0,
        normal_radius,
        keypoint,
        descriptor: DescriptorAlgorithm::Fpfh { radius: normal_radius },
        ..RegistrationConfig::default()
    }
}

/// Frozen normal estimation then the frozen detector, on a searcher
/// configured like `prepare_frame`'s.
fn frozen_front_end(searcher: &mut Searcher3, cfg: &RegistrationConfig) -> (Vec<Vec3>, Vec<usize>) {
    searcher.set_injection(cfg.inject_ne);
    let normals = frozen::estimate_normals(searcher, cfg.normal_radius, cfg.normal_algorithm);
    searcher.set_injection(None);
    let keypoints = match cfg.keypoint {
        KeypointAlgorithm::Iss { radius } => frozen::iss(searcher, radius),
        KeypointAlgorithm::Harris { radius } => frozen::harris3d(searcher, &normals, radius),
        other => panic!("no frozen copy of {other:?}"),
    };
    (normals, keypoints)
}

/// Asserts `prepare_frame` reproduces the frozen front end's normals and
/// key-points bit for bit; returns the key-point count.
fn assert_front_end_matches_frozen(pts: &[Vec3], cfg: &RegistrationConfig, what: &str) -> usize {
    let frame = prepare_frame(&PointCloud::from_points(pts.to_vec()), cfg).unwrap();
    let (normals, keypoints) = frozen_front_end(&mut serial(pts), cfg);
    assert_normals_identical(frame.normals(), &normals, what);
    assert_eq!(frame.keypoints(), &keypoints[..], "{what}: key-points");
    keypoints.len()
}

#[test]
fn iss_keypoints_and_normals_bit_identical_to_frozen() {
    // ISS radius above, at and below the normal radius: the first two
    // share one radius pass, the last runs two.
    let fixtures = [
        ("scene", scene(), 0.35, 0.5),
        ("scene, equal radii", scene(), 0.5, 0.5),
        ("scene, iss below normals", scene(), 0.5, 0.35),
        ("duplicates", scene_with_duplicates(), 0.35, 0.5),
        ("adversarial", adversarial(), 0.3, 0.4),
        ("lattice", lattice_corner(), 1.0, 2.0),
    ];
    for (what, pts, normal_radius, iss_radius) in fixtures {
        for algorithm in [NormalAlgorithm::PlaneSvd, NormalAlgorithm::AreaWeighted] {
            let cfg = RegistrationConfig {
                normal_algorithm: algorithm,
                ..keypoint_config(normal_radius, KeypointAlgorithm::Iss { radius: iss_radius })
            };
            let what = format!("{what} {algorithm:?}");
            let found = assert_front_end_matches_frozen(&pts, &cfg, &what);
            if !what.starts_with("adversarial") {
                assert!(found > 0, "{what}: the fixture must produce ISS key-points");
            }
        }
    }
}

#[test]
fn iss_bit_identical_across_simd_width_straddling_counts() {
    // ISS needs 8 neighbors; 8..=21 covers every remainder of the wide
    // kernels' blocks above that floor, with every point in every row.
    for n in 1..=21usize {
        let pts = scatter(n, 0x1555 ^ n as u64);
        let cfg = keypoint_config(6.0, KeypointAlgorithm::Iss { radius: 9.0 });
        assert_front_end_matches_frozen(&pts, &cfg, &format!("n = {n}"));
    }
}

#[test]
fn harris_keypoints_bit_identical_to_frozen() {
    for (what, pts) in [("scene", scene()), ("adversarial", adversarial())] {
        let cfg = keypoint_config(0.3, KeypointAlgorithm::Harris { radius: 0.4 });
        assert_front_end_matches_frozen(&pts, &cfg, &format!("harris {what}"));
    }
}

#[test]
fn iss_with_injected_normals_matches_frozen() {
    // An injected normal stage cannot share its rows: normals see the
    // shell, ISS and suppression search on their own.
    let cfg = RegistrationConfig {
        inject_ne: Some(Injection::RadiusShell { inner_frac: 0.3, outer_frac: 1.1 }),
        ..keypoint_config(0.35, KeypointAlgorithm::Iss { radius: 0.5 })
    };
    assert_front_end_matches_frozen(&scene(), &cfg, "injected normals");
}

#[test]
fn logged_searcher_sees_the_frozen_query_stream() {
    // A logged searcher falls back to separate passes: its log must hold
    // exactly the stream the frozen front end issues, in order —
    // normals, ISS, suppression, then the descriptor stage.
    let cfg = keypoint_config(0.35, KeypointAlgorithm::Iss { radius: 0.5 });
    let pts = scene_with_duplicates();
    let mut logged = serial(&pts);
    logged.enable_query_logging();
    let mut frame = prepare_frame_from_searcher(logged, &cfg).unwrap();
    let log = frame.searcher_mut().take_query_log().unwrap();

    let mut frozen_searcher = serial(&pts);
    frozen_searcher.enable_query_logging();
    let (normals, keypoints) = frozen_front_end(&mut frozen_searcher, &cfg);
    assert!(!keypoints.is_empty());
    compute_descriptors(&mut frozen_searcher, &normals, &keypoints, cfg.descriptor);
    let frozen_log = frozen_searcher.take_query_log().unwrap();
    assert_eq!(frame.keypoints(), &keypoints[..]);
    assert_eq!(log.len(), frozen_log.len(), "stream length");
    assert!(log == frozen_log, "the logged stream must match in order");
}
