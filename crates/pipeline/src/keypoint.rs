//! Key-point detection (paper Fig. 2, stage 2; Tbl. 1 SIFT / NARF /
//! HARRIS, parameters scale and range).
//!
//! Key-points are the salient subset of a frame on which the expensive
//! descriptor and matching stages operate. Implemented detectors:
//!
//! * **SIFT-3D** — difference of curvature across two neighborhood scales;
//!   local extrema above a contrast threshold are key-points (the 3D
//!   adaptation of Lowe's DoG used by PCL on geometry).
//! * **Harris-3D** — corner response `det(C) − k·tr(C)²` on the covariance
//!   of neighborhood *normals* (Sipiran & Bustos).
//! * **ISS** — eigenvalue-ratio saliency (Zhong, ICCV-W 2009, with PCL's
//!   `ISSKeypoint3D` thresholds; our NARF substitute — both select
//!   boundary-like geometrically stable points; see DESIGN.md).
//! * **Uniform** — voxel-grid sub-sampling, the cheap baseline.
//!
//! All detectors end with non-maximum suppression over the detection
//! radius so key-points are well spread.
//!
//! ISS runs on the front end's fast path: one grouped radius pass per
//! chunk of the cloud (`Searcher3::self_radius_range_into`), each row
//! gathered once into coordinate lanes and fitted with the blocked
//! `simd::lane_sums` / `cov_upper` kernels, which keep the scalar loop's
//! association — the saliencies are bit-identical to the per-point
//! `Vec3` / `Mat3` formulation. When the
//! ISS radius is at least the normal radius, no error is injected into
//! normal estimation and the searcher's queries are skippable (exact,
//! stateless, unlogged), the pipeline shares that pass with normal
//! estimation (`iss_sharing_normals`; ARCHITECTURE.md invariant 10): a
//! point's `normal_radius` neighborhood is the `d² ≤ normal_radius²`
//! prefix of its canonical `(d², index)` ISS row, suppression reads
//! the rows the pass already holds instead of searching again, and the
//! rows' first entries become the frame's neighbour graph (RPCE's reuse
//! certificates; ARCHITECTURE.md invariant 9). Otherwise suppression searches again, so every observer sees the
//! query stream it always saw.

use std::time::{Duration, Instant};

use tigris_core::soa::SoaView;
use tigris_core::{simd, Neighbor};
use tigris_geom::{symmetric_eigen3, Mat3, Vec3};

use crate::config::{KeypointAlgorithm, NormalAlgorithm};
use crate::correspond::NeighborGraph;
use crate::normal::{normal_from_gathered, CHUNK};
use crate::scratch::PrepareScratch;
use crate::search::Searcher3;

/// Detects key-points in `searcher`'s cloud; returns indices into the
/// cloud's point array, sorted ascending.
///
/// `normals` must be parallel to the cloud (used by Harris). An empty cloud
/// yields no key-points.
///
/// Allocates its working buffers fresh; the pipeline threads its
/// [`PrepareScratch`] through instead.
pub fn detect_keypoints(
    searcher: &mut Searcher3,
    normals: &[Vec3],
    algorithm: KeypointAlgorithm,
) -> Vec<usize> {
    detect_keypoints_with(searcher, normals, algorithm, &mut PrepareScratch::new())
}

/// [`detect_keypoints`] with caller-owned scratch: ISS's radius pass
/// lands in the scratch's reusable neighborhood table and its fits
/// gather through the scratch's warm lanes.
pub(crate) fn detect_keypoints_with(
    searcher: &mut Searcher3,
    normals: &[Vec3],
    algorithm: KeypointAlgorithm,
    scratch: &mut PrepareScratch,
) -> Vec<usize> {
    match algorithm {
        KeypointAlgorithm::Sift { scale } => sift3d(searcher, scale),
        KeypointAlgorithm::Harris { radius } => harris3d(searcher, normals, radius),
        KeypointAlgorithm::Iss { radius } => iss(searcher, radius, None, CHUNK, scratch).keypoints,
        KeypointAlgorithm::Uniform { voxel } => uniform(searcher, voxel),
    }
}

/// ISS key-points at `radius` and normals at `normal_radius` from one
/// radius pass at `radius`: each point's normal comes from the
/// `d² ≤ normal_radius²` prefix of its ISS row, non-maximum
/// suppression reads the rows the pass holds, and the rows' first
/// entries become the frame's neighbour graph. The pass's
/// `keypoint_time` is the time spent on ISS fits and suppression; the
/// rest of the call — the search and the normal fits — is normal
/// estimation's.
///
/// Both outputs are bit-identical to [`crate::normal::estimate_normals`]
/// followed by [`detect_keypoints`] on an exact backend: every exact
/// kernel tests `d² ≤ r · r` on the same `d²` bits whatever the radius,
/// so the prefix is exactly the row a search at `normal_radius` returns.
/// The caller must make sure the searcher's queries may be skipped
/// (`Searcher3::queries_skippable`) — an approximate, injected or logged
/// searcher must see every query it always saw.
///
/// # Panics
///
/// Panics unless `0 < normal_radius ≤ radius`.
pub(crate) fn iss_sharing_normals(
    searcher: &mut Searcher3,
    radius: f64,
    normal_radius: f64,
    algorithm: NormalAlgorithm,
    scratch: &mut PrepareScratch,
) -> IssPass {
    assert!(
        normal_radius > 0.0 && normal_radius <= radius,
        "normal rows must be prefixes of the ISS rows"
    );
    iss(searcher, radius, Some((normal_radius, algorithm)), CHUNK, scratch)
}

/// Curvature (λ₀ / Σλ) of the neighborhood of point `i` at `radius`.
fn curvature_at(searcher: &mut Searcher3, p: Vec3, radius: f64) -> f64 {
    let neighbors = searcher.radius(p, radius);
    if neighbors.len() < 3 {
        return 0.0;
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
    symmetric_eigen3(&cov).curvature()
}

fn sift3d(searcher: &mut Searcher3, scale: f64) -> Vec<usize> {
    let n = searcher.len();
    // Difference of curvature between two octave-separated scales.
    let mut response = vec![0.0f64; n];
    for (i, r) in response.iter_mut().enumerate() {
        let p = searcher.points()[i];
        let c1 = curvature_at(searcher, p, scale);
        let c2 = curvature_at(searcher, p, scale * 2.0);
        *r = (c2 - c1).abs();
    }
    non_max_suppress(searcher, &response, scale * 2.0, 0.005)
}

fn harris3d(searcher: &mut Searcher3, normals: &[Vec3], radius: f64) -> Vec<usize> {
    assert_eq!(normals.len(), searcher.len(), "Harris needs normals parallel to the cloud");
    let n = searcher.len();
    let mut response = vec![0.0f64; n];
    // Harris k. Note the covariance of *unit* normals has trace 1 and
    // det ≤ 1/27 ≈ 0.037, so the image-domain default k = 0.04 would
    // suppress every response; 0.02 keeps genuine 3-plane corners positive
    // while rejecting planes and 2-plane edges (det = 0).
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

// ISS thresholds from Zhong 2009: γ21 = γ32 = 0.975 are the defaults in
// PCL; saliency is the smallest eigenvalue.
const GAMMA_21: f64 = 0.975;
const GAMMA_32: f64 = 0.975;
/// Minimum saliency (λ₃, m²). Spinning-LiDAR ground returns form
/// concentric ring arcs whose covariance passes the ratio tests with
/// λ₃ ≈ range-noise² (~4e-4 m²) — viewpoint-dependent sampling
/// artifacts, not structure. Genuine corners/edges at meter-scale radii
/// have λ₃ ≳ 1e-2 m². The floor rejects the artifacts.
const MIN_SALIENCY: f64 = 3e-3;
/// Fewest neighbors (the point itself included) an ISS fit needs.
const ISS_MIN_NEIGHBORS: usize = 8;
/// Rows per gather block of the ISS pass: the block's lanes stay
/// cache-resident between the normal fits and the ISS fits that read
/// them, and the stage clocks are read once per block, not per point.
const BLOCK: usize = 32;

/// ISS saliency of one neighborhood gathered in row order: λ₃ of the
/// neighborhood covariance when the eigenvalue ratios pass Zhong's
/// tests, else 0. The blocked kernels keep the scalar `Vec3` / `Mat3`
/// accumulation order, so this is bit-identical to summing
/// `Mat3::outer(p − c, p − c)` point by point and scaling by `1 / n`.
fn iss_saliency(v: SoaView<'_>) -> f64 {
    let len = v.len();
    if len < ISS_MIN_NEIGHBORS {
        return 0.0;
    }
    let n = len as f64;
    let sums = simd::lane_sums(v);
    let centroid = [sums[0] / n, sums[1] / n, sums[2] / n];
    let c = simd::cov_upper(v, centroid);
    let cov = Mat3 { m: [[c[0], c[1], c[2]], [c[1], c[3], c[4]], [c[2], c[4], c[5]]] };
    let eig = symmetric_eigen3(&cov.scale(1.0 / n));
    // eig.values ascending: λ₀ ≤ λ₁ ≤ λ₂  (paper notation λ₃ ≤ λ₂ ≤ λ₁).
    let (l3, l2, l1) = (eig.values[0], eig.values[1], eig.values[2]);
    if l1 <= 0.0 {
        return 0.0;
    }
    if l2 / l1 < GAMMA_21 && l3 / l2.max(1e-30) < GAMMA_32 {
        l3
    } else {
        0.0
    }
}

/// `true` when neighbor `j`'s response keeps point `i` (response `r`)
/// from being a local maximum: strictly larger, or equal at a lower
/// index.
#[inline]
fn dominates(response: &[f64], j: usize, i: usize, r: f64) -> bool {
    !(j == i || response[j] < r || (response[j] == r && j > i))
}

/// One ISS pass's outputs.
pub(crate) struct IssPass {
    /// Normals from the shared rows (empty when the pass was not
    /// shared).
    pub normals: Vec<Vec3>,
    /// The neighbour graph of the shared rows (empty when the pass was
    /// not shared).
    pub graph: NeighborGraph,
    /// Key-point indices, sorted ascending.
    pub keypoints: Vec<usize>,
    /// Time spent on ISS fits and suppression.
    pub keypoint_time: Duration,
}

/// ISS over one grouped radius pass per `chunk` points at `radius`. With `share`
/// = `Some((normal_radius, algorithm))` the pass also fits the normals
/// from its rows' prefixes, keeps the rows' neighbour graph and
/// suppresses from the rows it holds; without it, suppression searches
/// again, so the query stream is the per-point ISS stream followed by
/// the suppression stream.
fn iss(
    searcher: &mut Searcher3,
    radius: f64,
    share: Option<(f64, NormalAlgorithm)>,
    chunk: usize,
    scratch: &mut PrepareScratch,
) -> IssPass {
    let n = searcher.len();
    let mut normals = Vec::with_capacity(if share.is_some() { n } else { 0 });
    let mut graph = NeighborGraph::for_points(if share.is_some() { n } else { 0 });
    let mut keypoints = Vec::new();
    let mut keypoint_time = Duration::ZERO;
    scratch.saliency.clear();
    scratch.saliency.resize(n, 0.0);
    scratch.nms_points.clear();
    scratch.nms_rows.clear();
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        scratch.ne_table.clear();
        searcher.self_radius_range_into(
            start..end,
            radius,
            &mut scratch.ne_table,
            &mut scratch.groups,
        );
        let points = searcher.points();
        let (table, groups) = (&scratch.ne_table, &scratch.groups);
        // Point `i`'s row (rows land in traversal order).
        let row = |i: usize| table.row(groups.table_row(i - start));
        // The `normal_radius` neighborhood: the kernels' own `d² ≤ r · r`.
        let prefix =
            |nbs: &[Neighbor], r: f64| nbs.partition_point(|nb| nb.distance_squared <= r * r);
        let block = &mut scratch.block;
        for b in (start..end).step_by(BLOCK) {
            let e = (b + BLOCK).min(end);
            block.clear();
            for i in b..e {
                block.push(points, row(i));
            }
            if let Some((normal_radius, algorithm)) = share {
                for i in b..e {
                    let nbs = row(i);
                    let k = prefix(nbs, normal_radius);
                    let gathered = block.row(i - b, k);
                    normals.push(normal_from_gathered(
                        points,
                        &nbs[..k],
                        points[i],
                        algorithm,
                        gathered,
                    ));
                }
            }
            let t = Instant::now();
            for i in b..e {
                scratch.saliency[i] = iss_saliency(block.row(i - b, row(i).len()));
            }
            keypoint_time += t.elapsed();
        }
        if share.is_some() {
            for i in start..end {
                graph.push_row(row(i), radius);
            }
            // Suppress from the rows in hand. Responses below `end` are
            // final; a salient point with neighbors past `end` keeps just
            // those until their chunk has been fitted.
            let t = Instant::now();
            let response = &scratch.saliency;
            for i in start..end {
                let r = response[i];
                if r <= MIN_SALIENCY {
                    continue;
                }
                let nbs = row(i);
                let (mut later, mut beaten) = (false, false);
                for nb in nbs {
                    if nb.index >= end {
                        later = true;
                    } else if dominates(response, nb.index, i, r) {
                        beaten = true;
                        break;
                    }
                }
                if beaten {
                    continue;
                }
                if later {
                    scratch.nms_points.push(i as u32);
                    scratch
                        .nms_rows
                        .push_row_with(|flat| flat.extend(nbs.iter().filter(|nb| nb.index >= end)));
                } else {
                    keypoints.push(i);
                }
            }
            keypoint_time += t.elapsed();
        }
        start = end;
    }
    if share.is_some() {
        let t = Instant::now();
        let response = &scratch.saliency;
        for (row, &i) in scratch.nms_points.iter().enumerate() {
            let i = i as usize;
            if !scratch
                .nms_rows
                .row(row)
                .iter()
                .any(|nb| dominates(response, nb.index, i, response[i]))
            {
                keypoints.push(i);
            }
        }
        keypoints.sort_unstable();
        keypoint_time += t.elapsed();
    } else {
        keypoints = non_max_suppress(searcher, &scratch.saliency, radius, MIN_SALIENCY);
    }
    IssPass { normals, graph, keypoints, keypoint_time }
}

fn uniform(searcher: &mut Searcher3, voxel: f64) -> Vec<usize> {
    assert!(voxel > 0.0, "voxel size must be positive");
    use std::collections::HashMap;
    let points = searcher.points();
    // Keep, per voxel, the point closest to the voxel center.
    let mut cells: HashMap<(i64, i64, i64), (usize, f64)> = HashMap::new();
    for (i, &p) in points.iter().enumerate() {
        let kx = (p.x / voxel).floor();
        let ky = (p.y / voxel).floor();
        let kz = (p.z / voxel).floor();
        let center = Vec3::new((kx + 0.5) * voxel, (ky + 0.5) * voxel, (kz + 0.5) * voxel);
        let d = p.distance_squared(center);
        let key = (kx as i64, ky as i64, kz as i64);
        match cells.get(&key) {
            Some(&(_, best)) if best <= d => {}
            _ => {
                cells.insert(key, (i, d));
            }
        }
    }
    let mut out: Vec<usize> = cells.into_values().map(|(i, _)| i).collect();
    out.sort_unstable();
    out
}

/// Keeps indices whose response strictly dominates every neighbor within
/// `radius` and exceeds `threshold`. Returns sorted indices.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NormalAlgorithm;
    use crate::normal::estimate_normals;

    /// An L-shaped wall corner on a ground patch: the corner edge should
    /// attract geometric detectors.
    fn corner_scene() -> Vec<Vec3> {
        let mut pts = Vec::new();
        let step = 0.1;
        // Ground plane 4×4 m.
        for i in 0..40 {
            for j in 0..40 {
                pts.push(Vec3::new(i as f64 * step, j as f64 * step, 0.0));
            }
        }
        // Wall along x at y = 2.
        for i in 0..40 {
            for k in 1..20 {
                pts.push(Vec3::new(i as f64 * step, 2.0, k as f64 * step));
            }
        }
        // Wall along y at x = 2.
        for j in 0..40 {
            for k in 1..20 {
                pts.push(Vec3::new(2.0, j as f64 * step, k as f64 * step));
            }
        }
        pts
    }

    #[test]
    fn uniform_spreads_keypoints() {
        let pts = corner_scene();
        let mut s = Searcher3::classic(&pts);
        let kps = detect_keypoints(&mut s, &[], KeypointAlgorithm::Uniform { voxel: 1.0 });
        assert!(!kps.is_empty());
        assert!(kps.len() < pts.len() / 10);
        // One key-point per occupied voxel: pairwise distance ≥ small bound.
        for (ai, &a) in kps.iter().enumerate() {
            for &b in &kps[ai + 1..] {
                assert_ne!(a, b);
            }
        }
        // Sorted.
        for w in kps.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn iss_prefers_corners_over_planes() {
        let pts = corner_scene();
        let mut s = Searcher3::classic(&pts);
        let kps = detect_keypoints(&mut s, &[], KeypointAlgorithm::Iss { radius: 0.4 });
        assert!(!kps.is_empty(), "ISS found nothing");
        // Key-points should lie near the corner/edge structures (y≈2, x≈2,
        // or wall/ground junctions), not in the middle of the ground plane.
        let mut near_structure = 0;
        for &k in &kps {
            let p = pts[k];
            let near_wall = (p.y - 2.0).abs() < 0.35 || (p.x - 2.0).abs() < 0.35;
            let near_ground_junction = p.z < 0.35 && near_wall;
            if near_wall || near_ground_junction {
                near_structure += 1;
            }
        }
        assert!(
            near_structure * 2 >= kps.len(),
            "{near_structure}/{} keypoints near structure",
            kps.len()
        );
    }

    #[test]
    fn harris_runs_with_normals() {
        let pts = corner_scene();
        let mut s = Searcher3::classic(&pts);
        let normals = estimate_normals(&mut s, 0.3, NormalAlgorithm::PlaneSvd);
        let kps = detect_keypoints(&mut s, &normals, KeypointAlgorithm::Harris { radius: 0.4 });
        assert!(!kps.is_empty());
        assert!(kps.len() < pts.len() / 4);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn harris_requires_normals() {
        let pts = corner_scene();
        let mut s = Searcher3::classic(&pts);
        detect_keypoints(&mut s, &[], KeypointAlgorithm::Harris { radius: 0.4 });
    }

    #[test]
    fn sift_finds_scale_extrema() {
        let pts = corner_scene();
        let mut s = Searcher3::classic(&pts);
        let kps = detect_keypoints(&mut s, &[], KeypointAlgorithm::Sift { scale: 0.25 });
        assert!(!kps.is_empty());
        assert!(kps.len() < pts.len() / 4);
    }

    #[test]
    fn flat_plane_produces_no_saliency() {
        // A pure plane has no ISS/SIFT key-points (curvature ≈ 0 everywhere).
        let mut pts = Vec::new();
        for i in 0..30 {
            for j in 0..30 {
                pts.push(Vec3::new(i as f64 * 0.1, j as f64 * 0.1, 0.0));
            }
        }
        let mut s = Searcher3::classic(&pts);
        let sift = detect_keypoints(&mut s, &[], KeypointAlgorithm::Sift { scale: 0.3 });
        assert!(sift.len() < 8, "plane should be featureless, got {}", sift.len());
    }

    #[test]
    fn shared_pass_matches_separate_passes_at_every_chunking() {
        // Small chunks push most salient points' neighbors into later
        // chunks, so suppression must defer them; the result may not
        // depend on where the chunks fall.
        let pts = corner_scene();
        let mut s = Searcher3::classic(&pts);
        let normals = estimate_normals(&mut s, 0.3, NormalAlgorithm::PlaneSvd);
        let keypoints = detect_keypoints(&mut s, &[], KeypointAlgorithm::Iss { radius: 0.4 });
        assert!(!keypoints.is_empty());
        for chunk in [1, 7, 100, 1000, CHUNK] {
            let mut s = Searcher3::classic(&pts);
            let share = Some((0.3, NormalAlgorithm::PlaneSvd));
            let pass = iss(&mut s, 0.4, share, chunk, &mut PrepareScratch::new());
            assert_eq!(pass.normals, normals, "normals, chunk {chunk}");
            assert_eq!(pass.keypoints, keypoints, "key-points, chunk {chunk}");
            // One query per point: no normal pass, no suppression pass.
            assert_eq!(s.stats().queries as usize, pts.len());
        }
    }

    #[test]
    fn separate_pass_searches_again_to_suppress() {
        let pts = corner_scene();
        let mut s = Searcher3::classic(&pts);
        let keypoints = detect_keypoints(&mut s, &[], KeypointAlgorithm::Iss { radius: 0.4 });
        let salient = s.stats().queries as usize - pts.len();
        assert!(salient >= keypoints.len() && !keypoints.is_empty());
    }

    #[test]
    fn empty_cloud_no_keypoints() {
        let mut s = Searcher3::classic(&[]);
        for alg in [
            KeypointAlgorithm::Sift { scale: 0.3 },
            KeypointAlgorithm::Iss { radius: 0.3 },
            KeypointAlgorithm::Uniform { voxel: 0.5 },
        ] {
            assert!(detect_keypoints(&mut s, &[], alg).is_empty());
        }
    }
}
