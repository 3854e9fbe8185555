//! Feature-descriptor calculation (paper Fig. 2, stage 3; Tbl. 1 FPFH /
//! SHOT / 3DSC, key parameter: search radius).
//!
//! A descriptor embeds a key-point's neighborhood into a high-dimensional
//! space where correspondence is a nearest-neighbor query. Implemented:
//!
//! * **FPFH** (Rusu et al.) — full fidelity: 3 Darboux angles × 11 bins =
//!   33-D, assembled from SPFHs weighted by inverse neighbor distance.
//! * **SHOT** (Tombari et al.) — a reduced-bin variant: a weighted-covariance
//!   local reference frame, 16 spatial sectors (2 radial × 2 elevation × 4
//!   azimuth) × 10 cosine bins = 160-D (the full 352-D binning adds nothing
//!   to the pipeline's behaviour at our point densities).
//! * **3DSC** (Frome et al.) — 4 log-radial shells × 3 elevation × 6 azimuth
//!   = 72-D, azimuth fixed by the SHOT-style reference frame instead of the
//!   original's multiple rotations (documented simplification).
//!
//! The FPFH path runs on dense index-space scratch instead of hash maps:
//! epoch-stamped `seen` vectors and a compact remap give every SPFH
//! source a dense row id, neighborhoods live in flat
//! [`crate::NeighborTable`]s, and the SPFH pass evaluates each
//! symmetric point pair **once**, scattering the Darboux angles into both
//! endpoint histograms through the blocked `tigris_core::simd::bin11`
//! kernel. All of it is bit-identical to the straightforward per-point
//! evaluation (`pipeline/tests/frontend_equivalence.rs` pins this against
//! a frozen copy of the old code): histogram increments are exact
//! `+= 1.0` adds, so accumulation order cannot change the bits, and the
//! canonical source/target ordering of a pair is exactly symmetric except
//! on exact ties — which the shared-pair walk detects and evaluates from
//! both sides, just like two independent SPFH passes would.

use std::f64::consts::PI;

use tigris_core::{simd, Neighbor};
use tigris_geom::{symmetric_eigen3, Mat3, Vec3};

use crate::config::DescriptorAlgorithm;
use crate::scratch::{NeighborTable, PrepareScratch};
use crate::search::Searcher3;

/// A dense matrix of descriptors: one row of `dim` values per key-point.
#[derive(Debug, Clone, PartialEq)]
pub struct Descriptors {
    /// Dimension of each descriptor.
    pub dim: usize,
    /// Row-major data: `data[i * dim .. (i+1) * dim]` is key-point `i`'s
    /// descriptor.
    pub data: Vec<f64>,
}

impl Descriptors {
    /// Number of descriptors stored.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// `true` when no descriptors are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Descriptor `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// Computes descriptors for `keypoints` (indices into `searcher`'s cloud).
///
/// `normals` must be parallel to the cloud. Rows come back in key-point
/// order.
///
/// Allocates its working buffers fresh; streaming callers should hold a
/// [`PrepareScratch`] and use [`compute_descriptors_with`].
///
/// # Panics
///
/// Panics when `normals.len() != searcher.len()` or a key-point index is
/// out of range.
pub fn compute_descriptors(
    searcher: &mut Searcher3,
    normals: &[Vec3],
    keypoints: &[usize],
    algorithm: DescriptorAlgorithm,
) -> Descriptors {
    compute_descriptors_with(searcher, normals, keypoints, algorithm, &mut PrepareScratch::new())
}

/// [`compute_descriptors`] with caller-owned scratch: the FPFH phases run
/// entirely in the scratch's dense tables and stamp vectors, so a warm
/// steady-state caller allocates nothing transient beyond the returned
/// [`Descriptors`].
///
/// # Panics
///
/// Panics when `normals.len() != searcher.len()` or a key-point index is
/// out of range.
pub fn compute_descriptors_with(
    searcher: &mut Searcher3,
    normals: &[Vec3],
    keypoints: &[usize],
    algorithm: DescriptorAlgorithm,
    scratch: &mut PrepareScratch,
) -> Descriptors {
    assert_eq!(normals.len(), searcher.len(), "descriptors need normals parallel to the cloud");
    match algorithm {
        DescriptorAlgorithm::Fpfh { radius } => fpfh(searcher, normals, keypoints, radius, scratch),
        DescriptorAlgorithm::Shot { radius } => shot(searcher, normals, keypoints, radius),
        DescriptorAlgorithm::Sc3d { radius } => sc3d(searcher, normals, keypoints, radius),
    }
}

// --------------------------------------------------------------------------
// FPFH
// --------------------------------------------------------------------------

const FPFH_BINS: usize = 11;
/// FPFH dimension: 3 angles × 11 bins.
pub const FPFH_DIM: usize = 3 * FPFH_BINS;

/// The Darboux-frame angles (α, φ, θ) for an already-canonicalized pair:
/// `n1` is the source normal, `n2` the target normal, `du` the unit
/// source→target direction.
fn darboux(n1: Vec3, n2: Vec3, du: Vec3) -> Option<(f64, f64, f64)> {
    let u = n1;
    let v = du.cross(u).normalized()?;
    let w = u.cross(v);
    let alpha = v.dot(n2); // ∈ [-1, 1]
    let phi = u.dot(du); // ∈ [-1, 1]
    let theta = w.dot(n2).atan2(u.dot(n2)); // ∈ [-π, π]
    Some((alpha, phi, theta))
}

/// `needed_src` tag: the neighborhood lives in `missing_table` (row in the
/// low bits) rather than `kp_table`.
const MISSING_BIT: u32 = 1 << 31;
/// `needed_src` placeholder during discovery, resolved before use.
const PENDING: u32 = u32::MAX;
/// "No second target row" marker for single-sided scatters.
const NO_ROW: u32 = u32::MAX;

/// Buffered Darboux-angle scatter: features queue up in blocks so the
/// three bin computations run through the blocked `simd::bin11` kernel
/// instead of one scalar conversion per angle.
struct BinScatter {
    alphas: [f64; Self::BLOCK],
    phis: [f64; Self::BLOCK],
    thetas: [f64; Self::BLOCK],
    /// First target row per feature.
    rows_a: [u32; Self::BLOCK],
    /// Second target row ([`NO_ROW`] when the feature is single-sided).
    rows_b: [u32; Self::BLOCK],
    len: usize,
}

impl BinScatter {
    const BLOCK: usize = 64;

    fn new() -> Self {
        BinScatter {
            alphas: [0.0; Self::BLOCK],
            phis: [0.0; Self::BLOCK],
            thetas: [0.0; Self::BLOCK],
            rows_a: [NO_ROW; Self::BLOCK],
            rows_b: [NO_ROW; Self::BLOCK],
            len: 0,
        }
    }

    fn push(
        &mut self,
        feat: (f64, f64, f64),
        row_a: u32,
        row_b: u32,
        hist: &mut [f64],
        counts: &mut [f64],
    ) {
        if self.len == Self::BLOCK {
            self.flush(hist, counts);
        }
        let i = self.len;
        (self.alphas[i], self.phis[i], self.thetas[i]) = feat;
        self.rows_a[i] = row_a;
        self.rows_b[i] = row_b;
        self.len = i + 1;
    }

    fn flush(&mut self, hist: &mut [f64], counts: &mut [f64]) {
        let n = self.len;
        if n == 0 {
            return;
        }
        let mut ba = [0u32; Self::BLOCK];
        let mut bp = [0u32; Self::BLOCK];
        let mut bt = [0u32; Self::BLOCK];
        simd::bin11(&self.alphas[..n], -1.0, 1.0, &mut ba[..n]);
        simd::bin11(&self.phis[..n], -1.0, 1.0, &mut bp[..n]);
        simd::bin11(&self.thetas[..n], -PI, PI, &mut bt[..n]);
        for i in 0..n {
            for r in [self.rows_a[i], self.rows_b[i]] {
                if r == NO_ROW {
                    continue;
                }
                let h = &mut hist[r as usize * FPFH_DIM..][..FPFH_DIM];
                h[ba[i] as usize] += 1.0;
                h[FPFH_BINS + bp[i] as usize] += 1.0;
                h[2 * FPFH_BINS + bt[i] as usize] += 1.0;
                counts[r as usize] += 1.0;
            }
        }
        self.len = 0;
    }
}

/// The neighborhood row `src` points at (see [`MISSING_BIT`]).
fn source_row<'t>(kp: &'t NeighborTable, missing: &'t NeighborTable, src: u32) -> &'t [Neighbor] {
    if src & MISSING_BIT != 0 {
        missing.row((src & !MISSING_BIT) as usize)
    } else {
        kp.row(src as usize)
    }
}

/// Buffered pair pipeline feeding [`BinScatter`]: candidate pairs queue
/// up in blocks so the Darboux-frame arithmetic runs through the blocked
/// [`simd::pair_features_batch`] kernel (distance, canonical ordering,
/// frame axes and dot products in SIMD lanes, `atan2` per lane) instead
/// of one fully scalar evaluation per pair.
struct PairQueue {
    ps: [Vec3; Self::BLOCK],
    ns: [Vec3; Self::BLOCK],
    pt: [Vec3; Self::BLOCK],
    nt: [Vec3; Self::BLOCK],
    /// First target row per pair.
    rows_a: [u32; Self::BLOCK],
    /// Second target row ([`NO_ROW`] for one-sided pairs).
    rows_b: [u32; Self::BLOCK],
    len: usize,
}

impl PairQueue {
    const BLOCK: usize = 64;

    fn new() -> Self {
        PairQueue {
            ps: [Vec3::ZERO; Self::BLOCK],
            ns: [Vec3::ZERO; Self::BLOCK],
            pt: [Vec3::ZERO; Self::BLOCK],
            nt: [Vec3::ZERO; Self::BLOCK],
            rows_a: [NO_ROW; Self::BLOCK],
            rows_b: [NO_ROW; Self::BLOCK],
            len: 0,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        ps: Vec3,
        ns: Vec3,
        pt: Vec3,
        nt: Vec3,
        row_a: u32,
        row_b: u32,
        scatter: &mut BinScatter,
        hist: &mut [f64],
        counts: &mut [f64],
    ) {
        if self.len == Self::BLOCK {
            self.flush(scatter, hist, counts);
        }
        let i = self.len;
        self.ps[i] = ps;
        self.ns[i] = ns;
        self.pt[i] = pt;
        self.nt[i] = nt;
        self.rows_a[i] = row_a;
        self.rows_b[i] = row_b;
        self.len = i + 1;
    }

    fn flush(&mut self, scatter: &mut BinScatter, hist: &mut [f64], counts: &mut [f64]) {
        let n = self.len;
        if n == 0 {
            return;
        }
        let mut alpha = [0.0_f64; Self::BLOCK];
        let mut phi = [0.0_f64; Self::BLOCK];
        let mut theta = [0.0_f64; Self::BLOCK];
        let mut flags = [0_u8; Self::BLOCK];
        simd::pair_features_batch(
            &self.ps[..n],
            &self.ns[..n],
            &self.pt[..n],
            &self.nt[..n],
            &mut alpha[..n],
            &mut phi[..n],
            &mut theta[..n],
            &mut flags[..n],
        );
        for i in 0..n {
            let f = flags[i];
            if f & simd::PAIR_DIST_OK == 0 {
                continue;
            }
            let feat = (alpha[i], phi[i], theta[i]);
            if f & simd::PAIR_TIE != 0 && self.rows_b[i] != NO_ROW {
                // Exact canonical-ordering tie on a shared pair: the
                // kernel's result is the source-side evaluation; the
                // target side keeps its own ordering and is evaluated
                // separately (both may be frame-degenerate on their
                // own).
                if f & simd::PAIR_FRAME_OK != 0 {
                    scatter.push(feat, self.rows_a[i], NO_ROW, hist, counts);
                }
                let d = self.pt[i] - self.ps[i];
                let du = d / d.norm();
                if let Some(rev) = darboux(self.nt[i], self.ns[i], -du) {
                    scatter.push(rev, self.rows_b[i], NO_ROW, hist, counts);
                }
            } else if f & simd::PAIR_FRAME_OK != 0 {
                scatter.push(feat, self.rows_a[i], self.rows_b[i], hist, counts);
            }
        }
        self.len = 0;
    }
}

/// SPFH evaluation over the dense rows, visiting each symmetric pair of
/// SPFH sources once.
///
/// For a pair whose endpoints both need an SPFH, the canonical ordering
/// inside [`simd::pair_features_batch`] is the same seen from either
/// endpoint except on an exact tie of the two angle magnitudes — so one
/// Darboux evaluation serves both histograms, and the tie falls back to
/// the two per-side evaluations. Histogram increments are exact `+= 1.0` adds,
/// so the changed accumulation order leaves the bits untouched.
fn spfh_shared_pairs(points: &[Vec3], normals: &[Vec3], scratch: &mut PrepareScratch, epoch: u32) {
    let needed = &scratch.needed;
    let needed_src = &scratch.needed_src;
    let stamp = &scratch.stamp;
    let remap = &scratch.remap;
    let kp_table = &scratch.kp_table;
    let missing_table = &scratch.missing_table;
    let hist = &mut scratch.spfh_rows;
    let counts = &mut scratch.counts;
    let mut scatter = BinScatter::new();
    let mut pairs = PairQueue::new();
    for di in 0..needed.len() {
        let c = needed[di] as usize;
        let row = source_row(kp_table, missing_table, needed_src[di]);
        let pc = points[c];
        let nc = normals[c];
        for nb in row {
            let j = nb.index;
            if j == c {
                continue;
            }
            if stamp[j] == epoch {
                // Both endpoints need an SPFH: handle the pair once, from
                // the lower dense id.
                let dj = remap[j] as usize;
                if dj < di {
                    continue;
                }
                pairs.push(
                    pc,
                    nc,
                    points[j],
                    normals[j],
                    di as u32,
                    dj as u32,
                    &mut scatter,
                    hist,
                    counts,
                );
            } else {
                pairs.push(
                    pc,
                    nc,
                    points[j],
                    normals[j],
                    di as u32,
                    NO_ROW,
                    &mut scatter,
                    hist,
                    counts,
                );
            }
        }
    }
    pairs.flush(&mut scatter, hist, counts);
    scatter.flush(hist, counts);
    for (r, &count) in counts.iter().enumerate() {
        if count > 0.0 {
            for h in &mut hist[r * FPFH_DIM..(r + 1) * FPFH_DIM] {
                *h *= 100.0 / count; // percentage normalization, as in PCL
            }
        }
    }
}

/// One key-point's FPFH: its own SPFH plus the distance-weighted mean of
/// its neighbors' SPFHs. `neighbors` is the key-point's radius row in
/// canonical order; `remap` maps a point to its row in `spfh_rows`.
fn fpfh_combine(
    k: usize,
    neighbors: &[Neighbor],
    spfh_rows: &[f64],
    remap: &[u32],
) -> [f64; FPFH_DIM] {
    let spfh = |i: usize| &spfh_rows[remap[i] as usize * FPFH_DIM..][..FPFH_DIM];
    let mut out = [0.0f64; FPFH_DIM];
    out.copy_from_slice(spfh(k));
    let mut acc = [0.0f64; FPFH_DIM];
    let mut weight_total = 0.0;
    for nb in neighbors {
        let j = nb.index;
        if j == k {
            continue;
        }
        let d = nb.distance_squared.sqrt();
        if d < 1e-9 {
            continue;
        }
        let w = 1.0 / d;
        simd::axpy(&mut acc, w, spfh(j));
        weight_total += w;
    }
    if weight_total > 0.0 {
        for (o, a) in out.iter_mut().zip(acc.iter()) {
            *o += a / weight_total;
        }
    }
    out
}

fn fpfh(
    searcher: &mut Searcher3,
    normals: &[Vec3],
    keypoints: &[usize],
    radius: f64,
    scratch: &mut PrepareScratch,
) -> Descriptors {
    let n = searcher.len();

    // Phase 1 — neighborhoods of the key-points, one batched fan-out over
    // the *unique* key-points: duplicates share their first occurrence's
    // table row instead of paying a second search.
    let epoch = scratch.next_epoch(n);
    scratch.queries.clear();
    scratch.kp_rows.clear();
    {
        let pts = searcher.points();
        for &k in keypoints {
            if scratch.stamp[k] == epoch {
                scratch.kp_rows.push(scratch.remap[k]);
            } else {
                scratch.stamp[k] = epoch;
                let row = scratch.queries.len() as u32;
                scratch.remap[k] = row;
                scratch.kp_rows.push(row);
                scratch.queries.push(pts[k]);
            }
        }
    }
    scratch.kp_table.clear();
    searcher.radius_batch_into(
        &scratch.queries,
        radius,
        &mut scratch.kp_table,
        &mut scratch.groups,
    );
    // The grouped search lays rows out in traversal order; point each
    // key-point at the table row its query's hits landed in.
    for r in &mut scratch.kp_rows {
        *r = scratch.groups.inv[*r as usize];
    }

    // Phase 2 — an SPFH is needed at every key-point and every neighbor
    // of one. A fresh stamp epoch assigns each such point a dense id
    // (its row in `spfh_rows`) and records where its neighborhood lives;
    // the not-yet-known neighborhoods come from a second batched search.
    let epoch = scratch.next_epoch(n);
    scratch.needed.clear();
    scratch.needed_src.clear();
    for (&k, &krow) in keypoints.iter().zip(&scratch.kp_rows) {
        if scratch.stamp[k] == epoch {
            // Already discovered (as an earlier key-point's neighbor, or
            // a duplicate key-point): its neighborhood is the key-point
            // row, no second search needed.
            let dk = scratch.remap[k] as usize;
            if scratch.needed_src[dk] == PENDING {
                scratch.needed_src[dk] = krow;
            }
        } else {
            scratch.stamp[k] = epoch;
            scratch.remap[k] = scratch.needed.len() as u32;
            scratch.needed.push(k as u32);
            scratch.needed_src.push(krow);
        }
        for nb in scratch.kp_table.row(krow as usize) {
            let j = nb.index;
            if scratch.stamp[j] != epoch {
                scratch.stamp[j] = epoch;
                scratch.remap[j] = scratch.needed.len() as u32;
                scratch.needed.push(j as u32);
                scratch.needed_src.push(PENDING);
            }
        }
    }
    scratch.queries.clear();
    {
        let pts = searcher.points();
        for (di, src) in scratch.needed_src.iter_mut().enumerate() {
            if *src == PENDING {
                *src = MISSING_BIT | scratch.queries.len() as u32;
                scratch.queries.push(pts[scratch.needed[di] as usize]);
            }
        }
    }
    scratch.missing_table.clear();
    // These rows feed *only* the SPFH accumulation (phase 3), which is
    // order-independent: histogram increments are exact `+= 1.0` adds
    // and the evaluation side of a shared pair is picked by dense id,
    // not row position. Skipping the canonical within-row sort — the
    // dominant per-row cost of the grouped search on these ~radius³
    // neighborhoods — changes no output bit. The key-point rows of
    // phase 1 stay sorted: phase 4's weighted combine walks them in
    // canonical order.
    searcher.radius_batch_into_unsorted(
        &scratch.queries,
        radius,
        &mut scratch.missing_table,
        &mut scratch.groups,
    );
    // Same row remap as phase 1, for the just-searched missing rows.
    for src in &mut scratch.needed_src {
        if *src & MISSING_BIT != 0 {
            *src = MISSING_BIT | scratch.groups.inv[(*src & !MISSING_BIT) as usize];
        }
    }

    // Phase 3 — SPFH histograms into the dense rows.
    let needed_len = scratch.needed.len();
    scratch.spfh_rows.clear();
    scratch.spfh_rows.resize(needed_len * FPFH_DIM, 0.0);
    scratch.counts.clear();
    scratch.counts.resize(needed_len, 0.0);
    spfh_shared_pairs(searcher.points(), normals, scratch, epoch);

    // Phase 4 — distance-weighted combination per key-point. The
    // neighbor distance is recovered from the stored squared distance
    // (`sqrt` of an exact square — same bits as recomputing the norm).
    let mut data = Vec::with_capacity(keypoints.len() * FPFH_DIM);
    let (kp_rows, kp_table) = (&scratch.kp_rows, &scratch.kp_table);
    let (spfh_rows, remap) = (&scratch.spfh_rows, &scratch.remap);
    for (&k, &krow) in keypoints.iter().zip(kp_rows) {
        data.extend_from_slice(&fpfh_combine(k, kp_table.row(krow as usize), spfh_rows, remap));
    }
    Descriptors { dim: FPFH_DIM, data }
}

// --------------------------------------------------------------------------
// SHOT (reduced binning)
// --------------------------------------------------------------------------

const SHOT_RADIAL: usize = 2;
const SHOT_ELEVATION: usize = 2;
const SHOT_AZIMUTH: usize = 4;
const SHOT_COS_BINS: usize = 10;
/// Reduced SHOT dimension: 16 sectors × 10 cosine bins.
pub const SHOT_DIM: usize = SHOT_RADIAL * SHOT_ELEVATION * SHOT_AZIMUTH * SHOT_COS_BINS;

/// Local reference frame from the distance-weighted neighborhood covariance
/// with SHOT's sign disambiguation (majority of points on the positive
/// side of each axis).
fn local_reference_frame(points: &[Vec3], center: Vec3, neighbors: &[usize], radius: f64) -> Mat3 {
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
    // Descending eigenvalues: x = largest, z = smallest.
    let mut x = eig.vectors.col(2);
    let mut z = eig.vectors.col(0);
    // Sign disambiguation.
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

fn shot(
    searcher: &mut Searcher3,
    normals: &[Vec3],
    keypoints: &[usize],
    radius: f64,
) -> Descriptors {
    // One batched radius fan-out, then pure per-key-point histogram math
    // reading the cloud in place (only the key-points are copied out,
    // since the searcher is mutably borrowed during the batch).
    let kp_pts: Vec<Vec3> = {
        let pts = searcher.points();
        keypoints.iter().map(|&k| pts[k]).collect()
    };
    let neighborhoods = searcher.radius_batch(&kp_pts, radius);
    let points = searcher.points();
    let mut data = vec![0.0f64; keypoints.len() * SHOT_DIM];
    for ((&k, row), hist) in
        keypoints.iter().zip(&neighborhoods).zip(data.chunks_exact_mut(SHOT_DIM))
    {
        let neighbors: Vec<usize> = row.iter().map(|n| n.index).filter(|&j| j != k).collect();
        if neighbors.len() < 5 {
            continue;
        }
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
            let azimuth = ((azimuth_angle / std::f64::consts::TAU * SHOT_AZIMUTH as f64) as usize)
                .min(SHOT_AZIMUTH - 1);
            let cosine = normals[j].dot(zn).clamp(-1.0, 1.0);
            let cos_bin =
                (((cosine + 1.0) / 2.0 * SHOT_COS_BINS as f64) as usize).min(SHOT_COS_BINS - 1);
            let sector =
                ((radial * SHOT_ELEVATION + elevation) * SHOT_AZIMUTH + azimuth) * SHOT_COS_BINS;
            hist[sector + cos_bin] += 1.0;
        }
        // L2 normalization (SHOT's signature normalization).
        let norm = hist.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 0.0 {
            for h in hist.iter_mut() {
                *h /= norm;
            }
        }
    }
    Descriptors { dim: SHOT_DIM, data }
}

// --------------------------------------------------------------------------
// 3DSC
// --------------------------------------------------------------------------

const SC_RADIAL: usize = 4;
const SC_ELEVATION: usize = 3;
const SC_AZIMUTH: usize = 6;
/// 3DSC dimension.
pub const SC3D_DIM: usize = SC_RADIAL * SC_ELEVATION * SC_AZIMUTH;

fn sc3d(
    searcher: &mut Searcher3,
    normals: &[Vec3],
    keypoints: &[usize],
    radius: f64,
) -> Descriptors {
    let r_min: f64 = (radius * 0.05).max(1e-3);
    let log_span = (radius / r_min).ln();
    let kp_pts: Vec<Vec3> = {
        let pts = searcher.points();
        keypoints.iter().map(|&k| pts[k]).collect()
    };
    let neighborhoods = searcher.radius_batch(&kp_pts, radius);
    let points = searcher.points();
    let mut data = vec![0.0f64; keypoints.len() * SC3D_DIM];
    for ((&k, row), hist) in
        keypoints.iter().zip(&neighborhoods).zip(data.chunks_exact_mut(SC3D_DIM))
    {
        let neighbors: Vec<usize> = row.iter().map(|n| n.index).filter(|&j| j != k).collect();
        if neighbors.len() < 5 {
            continue;
        }
        // North pole = the point's normal; azimuth fixed by the LRF.
        let north = normals[k];
        let lrf = local_reference_frame(points, points[k], &neighbors, radius);
        let mut east = lrf.col(0) - north * lrf.col(0).dot(north);
        east = east.normalized().unwrap_or_else(|| {
            // Degenerate LRF: pick any perpendicular.
            let h = if north.x.abs() < 0.9 { Vec3::X } else { Vec3::Y };
            north.cross(h).normalized().unwrap_or(Vec3::X)
        });
        let south_east = north.cross(east);

        for &j in &neighbors {
            let d = points[j] - points[k];
            let r = d.norm();
            if r < r_min {
                continue;
            }
            let radial =
                (((r / r_min).ln() / log_span * SC_RADIAL as f64) as usize).min(SC_RADIAL - 1);
            let cos_elev = (d.dot(north) / r).clamp(-1.0, 1.0);
            let elevation =
                (((cos_elev + 1.0) / 2.0 * SC_ELEVATION as f64) as usize).min(SC_ELEVATION - 1);
            let az = d.dot(south_east).atan2(d.dot(east)) + std::f64::consts::PI;
            let azimuth =
                ((az / std::f64::consts::TAU * SC_AZIMUTH as f64) as usize).min(SC_AZIMUTH - 1);
            hist[(radial * SC_ELEVATION + elevation) * SC_AZIMUTH + azimuth] += 1.0;
        }
        let total: f64 = hist.iter().sum();
        if total > 0.0 {
            for h in hist.iter_mut() {
                *h /= total;
            }
        }
    }
    Descriptors { dim: SC3D_DIM, data }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NormalAlgorithm;
    use crate::normal::estimate_normals;

    /// Corner + plane scene with distinctive local geometry.
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

    fn with_normals(pts: &[Vec3]) -> (Searcher3, Vec<Vec3>) {
        let mut s = Searcher3::classic(pts);
        let normals = estimate_normals(&mut s, 0.3, NormalAlgorithm::PlaneSvd);
        (s, normals)
    }

    #[test]
    fn fpfh_has_right_shape_and_normalization() {
        let pts = scene();
        let (mut s, normals) = with_normals(&pts);
        let kps = vec![0, 100, 300];
        let d =
            compute_descriptors(&mut s, &normals, &kps, DescriptorAlgorithm::Fpfh { radius: 0.5 });
        assert_eq!(d.dim, FPFH_DIM);
        assert_eq!(d.len(), 3);
        // Each of the 3 sub-histograms of the SPFH sums to ~100 before the
        // neighbor average; the final FPFH sub-histogram sums to ~200.
        for i in 0..3 {
            let row = d.row(i);
            let s0: f64 = row[..11].iter().sum();
            assert!(s0 > 150.0 && s0 < 250.0, "alpha hist sum = {s0}");
            assert!(row.iter().all(|v| *v >= 0.0));
        }
    }

    #[test]
    fn fpfh_similar_geometry_similar_descriptor() {
        let pts = scene();
        let (mut s, normals) = with_normals(&pts);
        // Two interior ground points vs. one wall point.
        let ground_a = 12 * 25 + 6; // interior ground
        let ground_b = 13 * 25 + 7;
        let wall = 625 + 12 * 14 + 7; // interior wall
        let d = compute_descriptors(
            &mut s,
            &normals,
            &[ground_a, ground_b, wall],
            DescriptorAlgorithm::Fpfh { radius: 0.45 },
        );
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
        };
        let same = dist(d.row(0), d.row(1));
        let diff = dist(d.row(0), d.row(2));
        assert!(same < diff, "same-geometry distance {same} should be < {diff}");
    }

    #[test]
    fn duplicate_keypoints_share_rows() {
        // Duplicates are fetched once but still get their own (identical)
        // output rows.
        let pts = scene();
        let (mut s, normals) = with_normals(&pts);
        let d = compute_descriptors(
            &mut s,
            &normals,
            &[100, 100, 300],
            DescriptorAlgorithm::Fpfh { radius: 0.5 },
        );
        assert_eq!(d.len(), 3);
        assert_eq!(d.row(0), d.row(1));
        assert_ne!(d.row(0), d.row(2));
    }

    #[test]
    fn warm_scratch_fpfh_reuses_buffers() {
        let pts = scene();
        let (mut s, normals) = with_normals(&pts);
        let kps = vec![0, 100, 300];
        let mut scratch = PrepareScratch::new();
        let first = compute_descriptors_with(
            &mut s,
            &normals,
            &kps,
            DescriptorAlgorithm::Fpfh { radius: 0.5 },
            &mut scratch,
        );
        scratch.note_frame_end();
        let grown = scratch.bytes_grown();
        let second = compute_descriptors_with(
            &mut s,
            &normals,
            &kps,
            DescriptorAlgorithm::Fpfh { radius: 0.5 },
            &mut scratch,
        );
        scratch.note_frame_end();
        assert_eq!(first, second);
        assert_eq!(scratch.bytes_grown(), grown, "warm frame must not grow scratch");
        assert_eq!(scratch.reuses(), 1);
    }

    #[test]
    fn shot_shape_and_unit_norm() {
        let pts = scene();
        let (mut s, normals) = with_normals(&pts);
        let d = compute_descriptors(
            &mut s,
            &normals,
            &[100, 200],
            DescriptorAlgorithm::Shot { radius: 0.5 },
        );
        assert_eq!(d.dim, SHOT_DIM);
        for i in 0..2 {
            let norm: f64 = d.row(i).iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9, "row {i} norm {norm}");
        }
    }

    #[test]
    fn sc3d_shape_and_simplex_normalization() {
        let pts = scene();
        let (mut s, normals) = with_normals(&pts);
        let d = compute_descriptors(
            &mut s,
            &normals,
            &[100],
            DescriptorAlgorithm::Sc3d { radius: 0.5 },
        );
        assert_eq!(d.dim, SC3D_DIM);
        let total: f64 = d.row(0).iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sparse_neighborhoods_give_zero_descriptors() {
        let pts = vec![Vec3::ZERO, Vec3::new(50.0, 0.0, 0.0)];
        let normals = vec![Vec3::Z, Vec3::Z];
        let mut s = Searcher3::classic(&pts);
        let d =
            compute_descriptors(&mut s, &normals, &[0], DescriptorAlgorithm::Shot { radius: 0.5 });
        assert!(d.row(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_keypoints() {
        let pts = scene();
        let (mut s, normals) = with_normals(&pts);
        let d =
            compute_descriptors(&mut s, &normals, &[], DescriptorAlgorithm::Fpfh { radius: 0.5 });
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_normals_panic() {
        let pts = scene();
        let mut s = Searcher3::classic(&pts);
        compute_descriptors(&mut s, &[], &[0], DescriptorAlgorithm::Fpfh { radius: 0.5 });
    }

    #[test]
    fn pair_features_are_antisymmetric_safe() {
        let (mut a, mut p, mut t, mut flags) = ([0.0; 2], [0.0; 2], [0.0; 2], [0u8; 2]);
        simd::pair_features_batch(
            &[Vec3::ZERO; 2],
            &[Vec3::Z; 2],
            &[Vec3::ZERO, Vec3::X],
            &[Vec3::Z, Vec3::Y],
            &mut a,
            &mut p,
            &mut t,
            &mut flags,
        );
        // Coincident points are rejected.
        assert_eq!(flags[0] & simd::PAIR_DIST_OK, 0);
        // Regular pair produces angles in range.
        assert_eq!(flags[1] & (simd::PAIR_DIST_OK | simd::PAIR_FRAME_OK), 3);
        assert!((-1.0..=1.0).contains(&a[1]));
        assert!((-1.0..=1.0).contains(&p[1]));
        assert!((-std::f64::consts::PI..=std::f64::consts::PI).contains(&t[1]));
    }

    #[test]
    fn descriptors_row_accessor() {
        let d = Descriptors { dim: 2, data: vec![1.0, 2.0, 3.0, 4.0] };
        assert_eq!(d.len(), 2);
        assert_eq!(d.row(1), &[3.0, 4.0]);
    }
}
