//! Normal estimation (paper Fig. 2, stage 1; Tbl. 1 algorithms PlaneSVD
//! and AreaWeighted; key parameter: search radius).
//!
//! A point's normal is the direction perpendicular to the local tangent
//! plane, estimated from the point's neighborhood (a radius search — the
//! dominant KD-tree consumer of the front-end).
//!
//! The plane fits run on the SoA front-end kernels
//! (`tigris_core::simd::lane_sums` / `cov_upper`): each neighborhood is
//! gathered into coordinate lanes once, then the centroid and the six
//! unique covariance entries come out of blocked kernels that keep the
//! scalar reference's accumulation order — so the fitted normals are
//! bit-identical to the naive `Vec3`/`Mat3` loop they replaced
//! (`pipeline/tests/frontend_equivalence.rs` pins this against a frozen
//! copy of the old code).

use tigris_core::soa::SoaView;
use tigris_core::{simd, Neighbor};
use tigris_geom::{symmetric_eigen3, Mat3, Vec3};

use crate::config::NormalAlgorithm;
use crate::correspond::NeighborGraph;
use crate::scratch::{GatherLanes, PrepareScratch};
use crate::search::Searcher3;

/// Estimates per-point surface normals for every point in `searcher`'s
/// cloud, using neighborhoods of `radius`.
///
/// Points whose neighborhood is too small to define a plane (fewer than 3
/// points including the point itself) get the up vector `+Z` — LiDAR
/// ground-heavy scenes make this the least-wrong default.
///
/// Normals are consistently oriented toward the sensor origin (the
/// viewpoint), the standard disambiguation for LiDAR frames centered on the
/// scanner.
///
/// Allocates its working buffers fresh; streaming callers should hold a
/// [`PrepareScratch`] and use [`estimate_normals_with`].
///
/// # Panics
///
/// Panics when `radius` is not strictly positive.
pub fn estimate_normals(
    searcher: &mut Searcher3,
    radius: f64,
    algorithm: NormalAlgorithm,
) -> Vec<Vec3> {
    estimate_normals_with(searcher, radius, algorithm, &mut PrepareScratch::new())
}

/// [`estimate_normals`] with caller-owned scratch: neighborhoods land in
/// the scratch's reusable table and the plane fits gather through its
/// warm coordinate lanes, so a steady-state caller allocates nothing
/// transient (the returned normals are the only fresh allocation).
///
/// # Panics
///
/// Panics when `radius` is not strictly positive.
pub fn estimate_normals_with(
    searcher: &mut Searcher3,
    radius: f64,
    algorithm: NormalAlgorithm,
    scratch: &mut PrepareScratch,
) -> Vec<Vec3> {
    estimate_normals_keeping(searcher, radius, algorithm, scratch, None)
}

/// [`estimate_normals_with`] that also appends every point's row to
/// `graph` — the neighbour graph of a frame whose searcher is exact, so
/// its rows are the canonical ones.
pub(crate) fn estimate_normals_keeping(
    searcher: &mut Searcher3,
    radius: f64,
    algorithm: NormalAlgorithm,
    scratch: &mut PrepareScratch,
    mut graph: Option<&mut NeighborGraph>,
) -> Vec<Vec3> {
    assert!(radius > 0.0, "normal-estimation radius must be positive");
    let n = searcher.len();
    // One radius query per point — the front-end's dominant KD-tree
    // fan-out — batched per `CHUNK` points. The queries are the
    // searcher's own points, read in place through the shared-read entry
    // point — no per-chunk staging copy.
    let mut normals = Vec::with_capacity(n);
    let mut start = 0;
    while start < n {
        let end = (start + CHUNK).min(n);
        scratch.ne_table.clear();
        searcher.self_radius_range_into(
            start..end,
            radius,
            &mut scratch.ne_table,
            &mut scratch.groups,
        );
        let points = searcher.points();
        // The grouped search lays rows out in traversal order — each
        // point finds its own through the recorded mapping.
        let table = &scratch.ne_table;
        let rows = &scratch.groups;
        // Fits reuse the scratch's gather lanes.
        let block = &mut scratch.block;
        for i in 0..end - start {
            let neighbors = table.row(rows.table_row(i));
            block.clear();
            block.push(points, neighbors);
            let gathered = block.row(0, neighbors.len());
            normals.push(normal_from_gathered(
                points,
                neighbors,
                points[start + i],
                algorithm,
                gathered,
            ));
        }
        if let Some(graph) = graph.as_deref_mut() {
            for i in 0..end - start {
                graph.push_row(table.row(rows.table_row(i)), radius);
            }
        }
        start = end;
    }
    normals
}

/// Points per batched radius search of the front end's own-point passes.
/// Dense scenes have hundreds of neighbors per point, and holding every
/// neighborhood of a 100k-point frame at once would cost O(total
/// neighbors) peak memory for nothing.
pub(crate) const CHUNK: usize = 16 * 1024;

/// The oriented normal at `p` from its neighborhood, whose coordinates
/// `gathered` already holds in row order (normal estimation gathers
/// through the scratch's lanes; the fused ISS pass gathers each row once
/// and hands normal estimation the row's first entries).
pub(crate) fn normal_from_gathered(
    points: &[Vec3],
    neighbors: &[Neighbor],
    p: Vec3,
    algorithm: NormalAlgorithm,
    gathered: SoaView<'_>,
) -> Vec3 {
    let normal = match algorithm {
        NormalAlgorithm::PlaneSvd if neighbors.len() < 3 => fallback_normal(),
        NormalAlgorithm::PlaneSvd => fit_plane_normal(gathered.xs, gathered.ys, gathered.zs),
        NormalAlgorithm::AreaWeighted => area_weighted_normal(points, neighbors, p),
    };
    orient_toward_sensor(normal, p)
}

/// Orients `normal` toward the viewpoint (sensor at the origin).
#[inline]
fn orient_toward_sensor(normal: Vec3, p: Vec3) -> Vec3 {
    if normal.dot(-p) < 0.0 {
        -normal
    } else {
        normal
    }
}

/// Total-least-squares plane fit over gathered coordinate lanes: centroid
/// and the six unique covariance entries from the blocked kernels, then
/// the smallest eigenvector. The kernels keep the scalar scan-order
/// accumulation chains, so this is bit-identical to summing
/// `Mat3::outer(p - centroid, p - centroid)` point by point.
fn fit_plane_normal(xs: &[f64], ys: &[f64], zs: &[f64]) -> Vec3 {
    let view = SoaView { xs, ys, zs };
    let len = xs.len() as f64;
    let sums = simd::lane_sums(view);
    let centroid = [sums[0] / len, sums[1] / len, sums[2] / len];
    let c = simd::cov_upper(view, centroid);
    // Mirror the upper triangle; the mirrored products are bitwise equal
    // by IEEE multiply commutativity.
    let cov = Mat3 { m: [[c[0], c[1], c[2]], [c[1], c[3], c[4]], [c[2], c[4], c[5]]] };
    let eig = symmetric_eigen3(&cov);
    eig.smallest_vector().normalized().unwrap_or(Vec3::Z)
}

/// Neighborhoods at most this large gather into stack lanes; larger ones
/// (rare at front-end radii) fall back to a heap gather.
const GATHER_STACK: usize = 256;

/// Runs `fit` over the coordinates of `neighbors`, gathered in row order
/// into stack lanes (or, for rows longer than [`GATHER_STACK`], heap
/// lanes) — AreaWeighted's rough PlaneSVD estimate, which has no
/// scratch lanes to hand.
fn with_gathered<R>(
    points: &[Vec3],
    neighbors: &[Neighbor],
    fit: impl FnOnce(SoaView<'_>) -> R,
) -> R {
    let len = neighbors.len();
    if len <= GATHER_STACK {
        let mut xs = [0.0f64; GATHER_STACK];
        let mut ys = [0.0f64; GATHER_STACK];
        let mut zs = [0.0f64; GATHER_STACK];
        for (i, nb) in neighbors.iter().enumerate() {
            let p = points[nb.index];
            xs[i] = p.x;
            ys[i] = p.y;
            zs[i] = p.z;
        }
        fit(SoaView { xs: &xs[..len], ys: &ys[..len], zs: &zs[..len] })
    } else {
        let mut lanes = GatherLanes::default();
        lanes.gather(points, neighbors);
        fit(SoaView { xs: &lanes.xs, ys: &lanes.ys, zs: &lanes.zs })
    }
}

/// PlaneSVD: the eigenvector of the smallest eigenvalue of the neighborhood
/// covariance (total least squares plane fit).
fn plane_svd_normal(points: &[Vec3], neighbors: &[Neighbor]) -> Vec3 {
    if neighbors.len() < 3 {
        return fallback_normal();
    }
    with_gathered(points, neighbors, |v| fit_plane_normal(v.xs, v.ys, v.zs))
}

/// AreaWeighted: average of the normals of triangles formed by the query
/// point and consecutive neighbor pairs, each weighted by triangle area
/// (Klasing et al.'s AreaWeighted variant).
fn area_weighted_normal(points: &[Vec3], neighbors: &[Neighbor], at: Vec3) -> Vec3 {
    if neighbors.len() < 3 {
        return fallback_normal();
    }
    // Order neighbors by angle in the tangent plane of a rough PlaneSVD
    // estimate so consecutive pairs form a fan around the point.
    let rough = plane_svd_normal(points, neighbors);
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
        // Cross product magnitude = 2 × triangle area: weighting is built in.
        let n = a.cross(b);
        // Keep the fan consistent with the rough normal's hemisphere.
        acc += if n.dot(rough) < 0.0 { -n } else { n };
    }
    acc.normalized().unwrap_or(rough)
}

fn fallback_normal() -> Vec3 {
    Vec3::Z
}

/// Any unit vector perpendicular to `n`.
fn pick_perpendicular(n: Vec3) -> Vec3 {
    let helper = if n.x.abs() < 0.9 { Vec3::X } else { Vec3::Y };
    n.cross(helper).normalized().unwrap_or(Vec3::X)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flat grid on z = 5 (away from origin so viewpoint orientation is
    /// meaningful).
    fn plane_cloud() -> Vec<Vec3> {
        let mut pts = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                pts.push(Vec3::new(i as f64 * 0.1, j as f64 * 0.1, 5.0));
            }
        }
        pts
    }

    #[test]
    fn plane_svd_recovers_plane_normal() {
        let pts = plane_cloud();
        let mut s = Searcher3::classic(&pts);
        let normals = estimate_normals(&mut s, 0.35, NormalAlgorithm::PlaneSvd);
        assert_eq!(normals.len(), pts.len());
        for n in &normals {
            assert!(n.z.abs() > 0.99, "normal {n} should be ±Z");
            assert!((n.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn normals_point_toward_sensor() {
        // Plane at z = 5, sensor at origin: normals must have negative z.
        let pts = plane_cloud();
        let mut s = Searcher3::classic(&pts);
        let normals = estimate_normals(&mut s, 0.35, NormalAlgorithm::PlaneSvd);
        for n in &normals {
            assert!(n.z < 0.0, "normal should face the origin, got {n}");
        }
    }

    #[test]
    fn area_weighted_agrees_on_planes() {
        let pts = plane_cloud();
        let mut s = Searcher3::classic(&pts);
        let a = estimate_normals(&mut s, 0.35, NormalAlgorithm::PlaneSvd);
        let mut s2 = Searcher3::classic(&pts);
        let b = estimate_normals(&mut s2, 0.35, NormalAlgorithm::AreaWeighted);
        for (x, y) in a.iter().zip(&b) {
            assert!(x.dot(*y) > 0.95, "{x} vs {y}");
        }
    }

    #[test]
    fn sphere_normals_are_radial() {
        // Points on a sphere of radius 3 centered at (10, 0, 0).
        let center = Vec3::new(10.0, 0.0, 0.0);
        let mut pts = Vec::new();
        let n_lat = 24;
        let n_lon = 48;
        for i in 1..n_lat {
            let theta = std::f64::consts::PI * i as f64 / n_lat as f64;
            for j in 0..n_lon {
                let phi = std::f64::consts::TAU * j as f64 / n_lon as f64;
                pts.push(
                    center
                        + Vec3::new(
                            3.0 * theta.sin() * phi.cos(),
                            3.0 * theta.sin() * phi.sin(),
                            3.0 * theta.cos(),
                        ),
                );
            }
        }
        let mut s = Searcher3::classic(&pts);
        let normals = estimate_normals(&mut s, 0.8, NormalAlgorithm::PlaneSvd);
        let mut good = 0;
        for (p, n) in pts.iter().zip(&normals) {
            let radial = (*p - center).normalized().unwrap();
            if n.dot(radial).abs() > 0.9 {
                good += 1;
            }
        }
        assert!(good as f64 / pts.len() as f64 > 0.9, "only {good}/{} radial", pts.len());
    }

    #[test]
    fn isolated_points_get_fallback() {
        let pts = vec![Vec3::new(0.0, 0.0, 1.0), Vec3::new(100.0, 0.0, 1.0)];
        let mut s = Searcher3::classic(&pts);
        let normals = estimate_normals(&mut s, 0.5, NormalAlgorithm::PlaneSvd);
        // Fallback is ±Z (possibly flipped toward the sensor).
        assert!(normals[0].z.abs() > 0.99);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_radius_panics() {
        let pts = plane_cloud();
        let mut s = Searcher3::classic(&pts);
        estimate_normals(&mut s, 0.0, NormalAlgorithm::PlaneSvd);
    }

    #[test]
    fn search_time_is_attributed() {
        let pts = plane_cloud();
        let mut s = Searcher3::classic(&pts);
        estimate_normals(&mut s, 0.35, NormalAlgorithm::PlaneSvd);
        assert!(s.search_time() > std::time::Duration::ZERO);
        assert_eq!(s.stats().queries as usize, pts.len());
    }

    #[test]
    fn warm_scratch_runs_allocation_free() {
        let pts = plane_cloud();
        let mut scratch = PrepareScratch::new();
        let mut s = Searcher3::classic(&pts);
        let first = estimate_normals_with(&mut s, 0.35, NormalAlgorithm::PlaneSvd, &mut scratch);
        let warm_bytes = scratch.capacity_bytes();
        let mut s = Searcher3::classic(&pts);
        let second = estimate_normals_with(&mut s, 0.35, NormalAlgorithm::PlaneSvd, &mut scratch);
        assert_eq!(first, second);
        assert_eq!(scratch.capacity_bytes(), warm_bytes, "second frame must not grow scratch");
    }
}
