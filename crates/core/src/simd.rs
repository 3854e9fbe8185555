//! Explicit distance + reduction kernels over [`SoaView`] lanes — the
//! software stand-in for the accelerator's distance datapath.
//!
//! Four kernels cover every exhaustive scan in the crate:
//!
//! * [`squared_distances`] — one squared distance per candidate, written
//!   to an output slice (the "distance array" stage of the paper's
//!   pipeline).
//! * [`nn_reduce`] — squared distances fused with a horizontal
//!   `(distance, id)` min reduction: the 1-NN kernel.
//! * [`nn2_reduce`] — squared distances folded into a running pair of
//!   the two smallest `(distance, id)`: the 2-NN kernel behind
//!   certified correspondence reuse.
//! * [`radius_collect`] — squared distances fused with a masked
//!   `d² ≤ r²` compare that appends hits in scan order: the radius-search
//!   kernel.
//!
//! Six more kernels cover the registration *front end* (normal
//! estimation and SPFH/FPFH descriptor histograms), which gathers each
//! point's neighborhood into scratch lanes and reduces over it:
//!
//! * [`lane_sums`] — per-lane coordinate sums (the centroid numerators of
//!   a plane fit), each lane a single left-to-right chain.
//! * [`cov_upper`] — the six unique entries of a neighborhood covariance
//!   `Σ (p−c)(p−c)ᵀ`, products evaluated blockwise, each entry's sum a
//!   single left-to-right chain.
//! * [`distances`] — Euclidean (non-squared) distances, the pair-distance
//!   stage of SPFH; `sqrt` is correctly rounded, so the blocked variant
//!   stays exact.
//! * [`axpy`] — `acc[i] += w·v[i]` across a descriptor row, the FPFH
//!   weighted-neighbor accumulate (each element an independent chain).
//! * [`bin11`] — the 11-bucket clamp-scale-truncate histogram binning of
//!   SPFH features, elementwise.
//! * [`pair_features_batch`] — the full Darboux-frame evaluation
//!   (distance, canonical source/target ordering, frame axes, the three
//!   angle dot products) for a block of point pairs, with degenerate
//!   lanes reported through flag bytes instead of early returns; only
//!   the final `atan2` stays scalar per lane (libm, no vector
//!   counterpart with identical rounding).
//!
//! Two implementations exist side by side and are **always both
//! compiled**:
//!
//! * [`scalar`] — the one-point-per-iteration reference, written to be
//!   obviously correct.
//! * [`wide`] — cache-blocked lane kernels: candidates are processed in
//!   8-wide then 4-wide `f64` blocks (`[f64; 8]` / `[f64; 4]` — the
//!   portable-SIMD shape LLVM turns into AVX/NEON vector code), with a
//!   scalar remainder loop for the final `n mod 4` lanes.
//!
//! The crate-level re-exports select the implementation at build time:
//! [`wide`] by default, [`scalar`] when the `scalar-kernels` cargo
//! feature is enabled (for targets where auto-vectorization misbehaves or
//! when bisecting a numeric regression). The two are **bit-identical**,
//! not merely close: every lane evaluates
//! `(dx·dx + dy·dy) + dz·dz` in exactly
//! [`Vec3::distance_squared`](tigris_geom::Vec3::distance_squared)'s
//! association, Rust never contracts to FMA, and the `(d², id)`
//! lexicographic min is associative and commutative (ids are unique), so
//! blocked reduction order cannot change the winner.
//! `core/tests/kernel_equivalence.rs` enforces this differentially on
//! adversarial inputs.

use crate::soa::SoaView;
use crate::Neighbor;

/// Widest block the [`wide`] kernels process per step (points per
/// iteration). KD-tree leaves are sized in multiples of this.
pub const LANES: usize = 8;

/// Half-width block used to drain most of an `n mod 8` remainder before
/// falling back to the scalar tail.
pub const LANES_HALF: usize = 4;

#[cfg(not(feature = "scalar-kernels"))]
pub use wide::{
    axpy, bin11, cov_upper, distances, lane_sums, nn2_reduce, nn_reduce, pair_features_batch,
    radius_collect, squared_distances,
};

#[cfg(feature = "scalar-kernels")]
pub use scalar::{
    axpy, bin11, cov_upper, distances, lane_sums, nn2_reduce, nn_reduce, pair_features_batch,
    radius_collect, squared_distances,
};

/// [`pair_features_batch`] flag: the lane passed the `dist < 1e-9`
/// coincident-points guard; lanes without it carry no usable feature.
pub const PAIR_DIST_OK: u8 = 1;
/// [`pair_features_batch`] flag: the Darboux frame is well-defined (the
/// `v` axis normalization did not reject the lane).
pub const PAIR_FRAME_OK: u8 = 2;
/// [`pair_features_batch`] flag: the two canonical-ordering magnitudes
/// tied exactly (`a == b`), so a symmetric consumer must evaluate the
/// reverse direction separately.
pub const PAIR_TIE: u8 = 4;

/// `true` when the build-time selected kernels are the blocked [`wide`]
/// ones (i.e. the `scalar-kernels` fallback feature is off).
pub const fn wide_kernels_selected() -> bool {
    !cfg!(feature = "scalar-kernels")
}

#[inline(always)]
fn lex_min(d2: f64, id: u32, best_d2: &mut f64, best_id: &mut u32) {
    if d2 < *best_d2 || (d2 == *best_d2 && id < *best_id) {
        *best_d2 = d2;
        *best_id = id;
    }
}

/// The running two smallest `(d², id)` pairs of a 2-NN search, ascending;
/// an unfilled slot holds [`TOP2_EMPTY`].
pub type Top2 = [(f64, u32); 2];

/// The starting state of a [`Top2`] fold: both slots empty.
pub const TOP2_EMPTY: Top2 = [(f64::INFINITY, u32::MAX); 2];

/// Offers one candidate to a [`Top2`] under the `(d², id)` lexicographic
/// order. Ids are unique per index, so the fold's result does not depend
/// on the order candidates arrive in.
#[inline(always)]
pub(crate) fn top2_offer(d2: f64, id: u32, top: &mut Top2) {
    let [(d0, i0), (d1, i1)] = *top;
    if d2 < d1 || (d2 == d1 && id < i1) {
        if d2 < d0 || (d2 == d0 && id < i0) {
            *top = [(d2, id), (d0, i0)];
        } else {
            top[1] = (d2, id);
        }
    }
}

/// The filled slots of a finished [`Top2`] fold, as neighbors.
pub(crate) fn top2_neighbors(top: &Top2) -> [Option<Neighbor>; 2] {
    top.map(|(d2, id)| (id != u32::MAX).then(|| Neighbor::new(id as usize, d2)))
}

/// One-point-per-iteration reference kernels.
///
/// These define the semantics the [`wide`] kernels must reproduce bit for
/// bit. They are also the build-time fallback behind the `scalar-kernels`
/// feature.
pub mod scalar {
    // Every kernel walks several parallel slices (coordinate lanes, ids,
    // output) in lockstep; a shared index is the clearest form.
    #![allow(clippy::needless_range_loop)]

    use super::*;

    /// Writes `‖query − pts[i]‖²` to `out[i]` for every candidate.
    ///
    /// # Panics
    ///
    /// Panics unless `out`, the coordinate lanes of `pts`, all have the
    /// same length.
    pub fn squared_distances(query: tigris_geom::Vec3, pts: SoaView<'_>, out: &mut [f64]) {
        let n = pts.len();
        assert_eq!(out.len(), n, "one output slot per candidate point");
        for i in 0..n {
            let dx = query.x - pts.xs[i];
            let dy = query.y - pts.ys[i];
            let dz = query.z - pts.zs[i];
            out[i] = (dx * dx + dy * dy) + dz * dz;
        }
    }

    /// Returns the `(d², id)` lexicographic minimum over all candidates
    /// (nearest neighbor, ties broken to the smaller id), or `None` for an
    /// empty view.
    ///
    /// # Panics
    ///
    /// Panics unless `ids.len() == pts.len()`.
    pub fn nn_reduce(
        query: tigris_geom::Vec3,
        pts: SoaView<'_>,
        ids: &[u32],
    ) -> Option<(f64, u32)> {
        let n = pts.len();
        assert_eq!(ids.len(), n, "one id per candidate point");
        if n == 0 {
            return None;
        }
        let mut best_d2 = f64::INFINITY;
        let mut best_id = u32::MAX;
        for i in 0..n {
            let dx = query.x - pts.xs[i];
            let dy = query.y - pts.ys[i];
            let dz = query.z - pts.zs[i];
            let d2 = (dx * dx + dy * dy) + dz * dz;
            lex_min(d2, ids[i], &mut best_d2, &mut best_id);
        }
        Some((best_d2, best_id))
    }

    /// Folds every candidate into `top`, the running two smallest
    /// `(d², id)` pairs (the 2-NN kernel; ties broken to the smaller id).
    ///
    /// # Panics
    ///
    /// Panics unless `ids.len() == pts.len()`.
    pub fn nn2_reduce(query: tigris_geom::Vec3, pts: SoaView<'_>, ids: &[u32], top: &mut Top2) {
        let n = pts.len();
        assert_eq!(ids.len(), n, "one id per candidate point");
        for i in 0..n {
            let dx = query.x - pts.xs[i];
            let dy = query.y - pts.ys[i];
            let dz = query.z - pts.zs[i];
            top2_offer((dx * dx + dy * dy) + dz * dz, ids[i], top);
        }
    }

    /// Appends a [`Neighbor`] for every candidate with `d² ≤ r²`, in scan
    /// order.
    ///
    /// # Panics
    ///
    /// Panics unless `ids.len() == pts.len()`.
    pub fn radius_collect(
        query: tigris_geom::Vec3,
        pts: SoaView<'_>,
        ids: &[u32],
        r2: f64,
        out: &mut Vec<Neighbor>,
    ) {
        let n = pts.len();
        assert_eq!(ids.len(), n, "one id per candidate point");
        for i in 0..n {
            let dx = query.x - pts.xs[i];
            let dy = query.y - pts.ys[i];
            let dz = query.z - pts.zs[i];
            let d2 = (dx * dx + dy * dy) + dz * dz;
            if d2 <= r2 {
                out.push(Neighbor::new(ids[i] as usize, d2));
            }
        }
    }

    /// Per-lane coordinate sums `[Σx, Σy, Σz]`, each lane one
    /// left-to-right chain — the centroid numerators of a plane fit,
    /// summed exactly as the scalar `centroid += p` loop it replaces.
    pub fn lane_sums(pts: SoaView<'_>) -> [f64; 3] {
        let (mut sx, mut sy, mut sz) = (0.0_f64, 0.0_f64, 0.0_f64);
        for i in 0..pts.len() {
            sx += pts.xs[i];
            sy += pts.ys[i];
            sz += pts.zs[i];
        }
        [sx, sy, sz]
    }

    /// The six unique entries `[xx, xy, xz, yy, yz, zz]` of the
    /// neighborhood covariance `Σ (p − c)(p − c)ᵀ`, each entry one
    /// left-to-right chain of `d_r · d_c` products in scan order — the
    /// association of the entrywise `cov = cov + outer(d, d)` loop it
    /// replaces (the mirrored lower-triangle entries are bit-equal
    /// because IEEE multiplication commutes).
    pub fn cov_upper(pts: SoaView<'_>, centroid: [f64; 3]) -> [f64; 6] {
        let [cx, cy, cz] = centroid;
        let mut acc = [0.0_f64; 6];
        for i in 0..pts.len() {
            let dx = pts.xs[i] - cx;
            let dy = pts.ys[i] - cy;
            let dz = pts.zs[i] - cz;
            acc[0] += dx * dx;
            acc[1] += dx * dy;
            acc[2] += dx * dz;
            acc[3] += dy * dy;
            acc[4] += dy * dz;
            acc[5] += dz * dz;
        }
        acc
    }

    /// Writes `‖query − pts[i]‖` (the non-squared distance) to `out[i]`
    /// for every candidate — the pair-distance stage of SPFH/FPFH.
    ///
    /// # Panics
    ///
    /// Panics unless `out` and the coordinate lanes of `pts` have the
    /// same length.
    pub fn distances(query: tigris_geom::Vec3, pts: SoaView<'_>, out: &mut [f64]) {
        let n = pts.len();
        assert_eq!(out.len(), n, "one output slot per candidate point");
        for i in 0..n {
            let dx = query.x - pts.xs[i];
            let dy = query.y - pts.ys[i];
            let dz = query.z - pts.zs[i];
            out[i] = ((dx * dx + dy * dy) + dz * dz).sqrt();
        }
    }

    /// `acc[i] += w · v[i]` across a descriptor row — the FPFH
    /// weighted-neighbor accumulate. Each element is an independent
    /// chain, so blocking cannot reassociate anything.
    ///
    /// # Panics
    ///
    /// Panics unless `acc.len() == v.len()`.
    pub fn axpy(acc: &mut [f64], w: f64, v: &[f64]) {
        let n = acc.len();
        assert_eq!(v.len(), n, "accumulator and row must have the same length");
        for i in 0..n {
            acc[i] += w * v[i];
        }
    }

    /// The SPFH 11-bucket binning `min(⌊clamp((v−lo)/(hi−lo), 0, 1)·11⌋,
    /// 10)`, elementwise into `out`.
    ///
    /// # Panics
    ///
    /// Panics unless `out.len() == values.len()`.
    pub fn bin11(values: &[f64], lo: f64, hi: f64, out: &mut [u32]) {
        let n = values.len();
        assert_eq!(out.len(), n, "one output bin per value");
        for i in 0..n {
            let t = ((values[i] - lo) / (hi - lo)).clamp(0.0, 1.0);
            out[i] = ((t * 11.0) as u32).min(10);
        }
    }

    /// Canonically-ordered Darboux pair features (Rusu et al., Eq. 1–3)
    /// for a batch of SPFH source/target pairs: lane `i` relates source
    /// point/normal `(ps[i], ns[i])` to target `(pt[i], nt[i])` and
    /// yields the three angles `(alpha[i], phi[i], theta[i])` plus a
    /// [`PAIR_DIST_OK`]`/`[`PAIR_FRAME_OK`]`/`[`PAIR_TIE`] flag byte.
    /// Guards are reported, not branched on: every lane's outputs are
    /// written unconditionally and are garbage unless both `_OK` flags
    /// are set.
    ///
    /// # Panics
    ///
    /// Panics unless all input and output slices share one length.
    #[allow(clippy::too_many_arguments)]
    pub fn pair_features_batch(
        ps: &[tigris_geom::Vec3],
        ns: &[tigris_geom::Vec3],
        pt: &[tigris_geom::Vec3],
        nt: &[tigris_geom::Vec3],
        alpha: &mut [f64],
        phi: &mut [f64],
        theta: &mut [f64],
        flags: &mut [u8],
    ) {
        let n = ps.len();
        assert!(
            [ns.len(), pt.len(), nt.len(), alpha.len(), phi.len(), theta.len(), flags.len()]
                .iter()
                .all(|&l| l == n),
            "one lane per pair across all slices"
        );
        for i in 0..n {
            let d = pt[i] - ps[i];
            let dist = d.norm();
            let du = d / dist;
            let a = ns[i].dot(du).abs();
            let b = nt[i].dot(-du).abs();
            // The canonical source/target ordering of `pair_features`:
            // the side whose normal leans into the connecting line
            // becomes the frame origin.
            let swap = a >= b;
            let (u, n2, dd) = if swap { (ns[i], nt[i], du) } else { (nt[i], ns[i], -du) };
            let v = dd.cross(u);
            let vn = v.norm();
            let nv = v / vn;
            let w = u.cross(nv);
            alpha[i] = nv.dot(n2);
            phi[i] = u.dot(dd);
            theta[i] = w.dot(n2).atan2(u.dot(n2));
            // `if x < eps` (not `x >= eps`) so NaN distances keep the
            // frozen scalar path's "valid" classification bit-for-bit.
            let dist_ok = if dist < 1e-9 { 0 } else { PAIR_DIST_OK };
            let frame_ok = if vn < 1e-12 { 0 } else { PAIR_FRAME_OK };
            let tie = if a == b { PAIR_TIE } else { 0 };
            flags[i] = dist_ok | frame_ok | tie;
        }
    }
}

/// Cache-blocked lane kernels: 8-wide blocks, a 4-wide half block, then a
/// scalar tail.
///
/// Each block loads `N` candidates per coordinate lane into a fixed
/// `[f64; N]` register block and evaluates all lanes with straight-line
/// arithmetic — the shape LLVM auto-vectorizes into packed `f64`
/// instructions on every SIMD target without `unsafe` or intrinsics.
pub mod wide {
    // The scalar remainder tails walk the same parallel slices as
    // `scalar`; see the note there.
    #![allow(clippy::needless_range_loop)]

    use super::*;

    /// Computes one block of `N` squared distances starting at `base`.
    #[inline(always)]
    fn d2_block<const N: usize>(
        qx: f64,
        qy: f64,
        qz: f64,
        pts: SoaView<'_>,
        base: usize,
    ) -> [f64; N] {
        let xs = &pts.xs[base..base + N];
        let ys = &pts.ys[base..base + N];
        let zs = &pts.zs[base..base + N];
        let mut d2 = [0.0_f64; N];
        for l in 0..N {
            let dx = qx - xs[l];
            let dy = qy - ys[l];
            let dz = qz - zs[l];
            d2[l] = (dx * dx + dy * dy) + dz * dz;
        }
        d2
    }

    /// Writes `‖query − pts[i]‖²` to `out[i]` for every candidate.
    ///
    /// # Panics
    ///
    /// Panics unless `out`, the coordinate lanes of `pts`, all have the
    /// same length.
    pub fn squared_distances(query: tigris_geom::Vec3, pts: SoaView<'_>, out: &mut [f64]) {
        let n = pts.len();
        assert_eq!(out.len(), n, "one output slot per candidate point");
        let (qx, qy, qz) = (query.x, query.y, query.z);
        let mut base = 0;
        while base + LANES <= n {
            let d2 = d2_block::<LANES>(qx, qy, qz, pts, base);
            out[base..base + LANES].copy_from_slice(&d2);
            base += LANES;
        }
        if base + LANES_HALF <= n {
            let d2 = d2_block::<LANES_HALF>(qx, qy, qz, pts, base);
            out[base..base + LANES_HALF].copy_from_slice(&d2);
            base += LANES_HALF;
        }
        for i in base..n {
            let dx = qx - pts.xs[i];
            let dy = qy - pts.ys[i];
            let dz = qz - pts.zs[i];
            out[i] = (dx * dx + dy * dy) + dz * dz;
        }
    }

    /// Folds one `N`-lane block into the per-lane running minima
    /// (lanes `0..N` of the accumulators).
    #[inline(always)]
    fn fold_block<const N: usize>(
        d2: &[f64; N],
        ids: &[u32],
        best_d2: &mut [f64; LANES],
        best_id: &mut [u32; LANES],
    ) {
        for l in 0..N {
            if d2[l] < best_d2[l] || (d2[l] == best_d2[l] && ids[l] < best_id[l]) {
                best_d2[l] = d2[l];
                best_id[l] = ids[l];
            }
        }
    }

    /// Returns the `(d², id)` lexicographic minimum over all candidates
    /// (nearest neighbor, ties broken to the smaller id), or `None` for an
    /// empty view.
    ///
    /// Per-lane running minima are folded by a final horizontal reduction;
    /// because lexicographic min over unique ids is associative and
    /// commutative, the result is identical to [`scalar::nn_reduce`]'s
    /// left-to-right fold.
    ///
    /// # Panics
    ///
    /// Panics unless `ids.len() == pts.len()`.
    pub fn nn_reduce(
        query: tigris_geom::Vec3,
        pts: SoaView<'_>,
        ids: &[u32],
    ) -> Option<(f64, u32)> {
        let n = pts.len();
        assert_eq!(ids.len(), n, "one id per candidate point");
        if n == 0 {
            return None;
        }
        let (qx, qy, qz) = (query.x, query.y, query.z);
        let mut lane_d2 = [f64::INFINITY; LANES];
        let mut lane_id = [u32::MAX; LANES];
        let mut base = 0;
        while base + LANES <= n {
            let d2 = d2_block::<LANES>(qx, qy, qz, pts, base);
            fold_block::<LANES>(&d2, &ids[base..base + LANES], &mut lane_d2, &mut lane_id);
            base += LANES;
        }
        if base + LANES_HALF <= n {
            let d2 = d2_block::<LANES_HALF>(qx, qy, qz, pts, base);
            fold_block::<LANES_HALF>(
                &d2,
                &ids[base..base + LANES_HALF],
                &mut lane_d2,
                &mut lane_id,
            );
            base += LANES_HALF;
        }
        // Horizontal reduction of the lane minima, then the scalar tail.
        let mut best_d2 = f64::INFINITY;
        let mut best_id = u32::MAX;
        for l in 0..LANES {
            lex_min(lane_d2[l], lane_id[l], &mut best_d2, &mut best_id);
        }
        for i in base..n {
            let dx = qx - pts.xs[i];
            let dy = qy - pts.ys[i];
            let dz = qz - pts.zs[i];
            let d2 = (dx * dx + dy * dy) + dz * dz;
            lex_min(d2, ids[i], &mut best_d2, &mut best_id);
        }
        Some((best_d2, best_id))
    }

    /// Folds every candidate into `top`, the running two smallest
    /// `(d², id)` pairs (the 2-NN kernel; ties broken to the smaller id).
    ///
    /// Distances are evaluated blockwise and offered lane by lane; the
    /// fold keeps the two smallest of a set under a total order (ids are
    /// unique), so it is order-independent and the result is identical
    /// to [`scalar::nn2_reduce`]'s.
    ///
    /// # Panics
    ///
    /// Panics unless `ids.len() == pts.len()`.
    pub fn nn2_reduce(query: tigris_geom::Vec3, pts: SoaView<'_>, ids: &[u32], top: &mut Top2) {
        let n = pts.len();
        assert_eq!(ids.len(), n, "one id per candidate point");
        let (qx, qy, qz) = (query.x, query.y, query.z);
        let mut base = 0;
        while base + LANES <= n {
            let d2 = d2_block::<LANES>(qx, qy, qz, pts, base);
            for l in 0..LANES {
                top2_offer(d2[l], ids[base + l], top);
            }
            base += LANES;
        }
        if base + LANES_HALF <= n {
            let d2 = d2_block::<LANES_HALF>(qx, qy, qz, pts, base);
            for l in 0..LANES_HALF {
                top2_offer(d2[l], ids[base + l], top);
            }
            base += LANES_HALF;
        }
        for i in base..n {
            let dx = qx - pts.xs[i];
            let dy = qy - pts.ys[i];
            let dz = qz - pts.zs[i];
            top2_offer((dx * dx + dy * dy) + dz * dz, ids[i], top);
        }
    }

    /// Appends a [`Neighbor`] for every candidate with `d² ≤ r²`, in scan
    /// order.
    ///
    /// Distances are evaluated blockwise; the masked compare then emits
    /// hits lane by lane, preserving the scalar kernel's output order
    /// exactly.
    ///
    /// # Panics
    ///
    /// Panics unless `ids.len() == pts.len()`.
    pub fn radius_collect(
        query: tigris_geom::Vec3,
        pts: SoaView<'_>,
        ids: &[u32],
        r2: f64,
        out: &mut Vec<Neighbor>,
    ) {
        let n = pts.len();
        assert_eq!(ids.len(), n, "one id per candidate point");
        let (qx, qy, qz) = (query.x, query.y, query.z);
        let mut base = 0;
        while base + LANES <= n {
            let d2 = d2_block::<LANES>(qx, qy, qz, pts, base);
            for l in 0..LANES {
                if d2[l] <= r2 {
                    out.push(Neighbor::new(ids[base + l] as usize, d2[l]));
                }
            }
            base += LANES;
        }
        if base + LANES_HALF <= n {
            let d2 = d2_block::<LANES_HALF>(qx, qy, qz, pts, base);
            for l in 0..LANES_HALF {
                if d2[l] <= r2 {
                    out.push(Neighbor::new(ids[base + l] as usize, d2[l]));
                }
            }
            base += LANES_HALF;
        }
        for i in base..n {
            let dx = qx - pts.xs[i];
            let dy = qy - pts.ys[i];
            let dz = qz - pts.zs[i];
            let d2 = (dx * dx + dy * dy) + dz * dz;
            if d2 <= r2 {
                out.push(Neighbor::new(ids[i] as usize, d2));
            }
        }
    }

    /// Per-lane coordinate sums `[Σx, Σy, Σz]`.
    ///
    /// The three running sums are the contract (one left-to-right chain
    /// per lane, exactly [`scalar::lane_sums`]); blocking only batches
    /// the loads, so the adds stay in scan order and the chains stay
    /// bit-identical while still overlapping as three independent
    /// dependency chains.
    pub fn lane_sums(pts: SoaView<'_>) -> [f64; 3] {
        let n = pts.len();
        let (mut sx, mut sy, mut sz) = (0.0_f64, 0.0_f64, 0.0_f64);
        let mut base = 0;
        while base + LANES <= n {
            let xs = &pts.xs[base..base + LANES];
            let ys = &pts.ys[base..base + LANES];
            let zs = &pts.zs[base..base + LANES];
            for l in 0..LANES {
                sx += xs[l];
                sy += ys[l];
                sz += zs[l];
            }
            base += LANES;
        }
        for i in base..n {
            sx += pts.xs[i];
            sy += pts.ys[i];
            sz += pts.zs[i];
        }
        [sx, sy, sz]
    }

    /// Computes one block of `N` centered-difference products
    /// `[dx·dx, dx·dy, dx·dz, dy·dy, dy·dz, dz·dz]` starting at `base` —
    /// pure elementwise arithmetic, the vectorizable half of the
    /// covariance accumulation.
    #[inline(always)]
    fn cov_block<const N: usize>(
        cx: f64,
        cy: f64,
        cz: f64,
        pts: SoaView<'_>,
        base: usize,
    ) -> [[f64; N]; 6] {
        let xs = &pts.xs[base..base + N];
        let ys = &pts.ys[base..base + N];
        let zs = &pts.zs[base..base + N];
        let mut p = [[0.0_f64; N]; 6];
        for l in 0..N {
            let dx = xs[l] - cx;
            let dy = ys[l] - cy;
            let dz = zs[l] - cz;
            p[0][l] = dx * dx;
            p[1][l] = dx * dy;
            p[2][l] = dx * dz;
            p[3][l] = dy * dy;
            p[4][l] = dy * dz;
            p[5][l] = dz * dz;
        }
        p
    }

    /// The six unique entries `[xx, xy, xz, yy, yz, zz]` of the
    /// neighborhood covariance `Σ (p − c)(p − c)ᵀ`.
    ///
    /// Products are evaluated blockwise (elementwise — safe to
    /// vectorize); the six accumulation chains then fold each block in
    /// scan order, so every chain reproduces [`scalar::cov_upper`]'s
    /// left-to-right association bit for bit while the six independent
    /// chains overlap in the pipeline.
    pub fn cov_upper(pts: SoaView<'_>, centroid: [f64; 3]) -> [f64; 6] {
        let [cx, cy, cz] = centroid;
        let n = pts.len();
        let mut acc = [0.0_f64; 6];
        let mut base = 0;
        while base + LANES <= n {
            let p = cov_block::<LANES>(cx, cy, cz, pts, base);
            for l in 0..LANES {
                for c in 0..6 {
                    acc[c] += p[c][l];
                }
            }
            base += LANES;
        }
        if base + LANES_HALF <= n {
            let p = cov_block::<LANES_HALF>(cx, cy, cz, pts, base);
            for l in 0..LANES_HALF {
                for c in 0..6 {
                    acc[c] += p[c][l];
                }
            }
            base += LANES_HALF;
        }
        for i in base..n {
            let dx = pts.xs[i] - cx;
            let dy = pts.ys[i] - cy;
            let dz = pts.zs[i] - cz;
            acc[0] += dx * dx;
            acc[1] += dx * dy;
            acc[2] += dx * dz;
            acc[3] += dy * dy;
            acc[4] += dy * dz;
            acc[5] += dz * dz;
        }
        acc
    }

    /// Writes `‖query − pts[i]‖` (the non-squared distance) to `out[i]`
    /// for every candidate.
    ///
    /// Blockwise squared distances followed by an elementwise `sqrt`;
    /// IEEE square root is correctly rounded, so the blocked variant is
    /// bit-identical to [`scalar::distances`].
    ///
    /// # Panics
    ///
    /// Panics unless `out` and the coordinate lanes of `pts` have the
    /// same length.
    pub fn distances(query: tigris_geom::Vec3, pts: SoaView<'_>, out: &mut [f64]) {
        let n = pts.len();
        assert_eq!(out.len(), n, "one output slot per candidate point");
        let (qx, qy, qz) = (query.x, query.y, query.z);
        let mut base = 0;
        while base + LANES <= n {
            let d2 = d2_block::<LANES>(qx, qy, qz, pts, base);
            for l in 0..LANES {
                out[base + l] = d2[l].sqrt();
            }
            base += LANES;
        }
        if base + LANES_HALF <= n {
            let d2 = d2_block::<LANES_HALF>(qx, qy, qz, pts, base);
            for l in 0..LANES_HALF {
                out[base + l] = d2[l].sqrt();
            }
            base += LANES_HALF;
        }
        for i in base..n {
            let dx = qx - pts.xs[i];
            let dy = qy - pts.ys[i];
            let dz = qz - pts.zs[i];
            out[i] = ((dx * dx + dy * dy) + dz * dz).sqrt();
        }
    }

    /// `acc[i] += w · v[i]` across a descriptor row, in 8-wide blocks.
    /// Each element is an independent chain, so blocking cannot
    /// reassociate anything; no FMA is emitted (Rust never contracts).
    ///
    /// # Panics
    ///
    /// Panics unless `acc.len() == v.len()`.
    pub fn axpy(acc: &mut [f64], w: f64, v: &[f64]) {
        let n = acc.len();
        assert_eq!(v.len(), n, "accumulator and row must have the same length");
        let mut base = 0;
        while base + LANES <= n {
            let a = &mut acc[base..base + LANES];
            let b = &v[base..base + LANES];
            for l in 0..LANES {
                a[l] += w * b[l];
            }
            base += LANES;
        }
        for i in base..n {
            acc[i] += w * v[i];
        }
    }

    /// The SPFH 11-bucket binning, elementwise into `out`: the
    /// clamp-and-scale runs blockwise, the float→lane-index cast per
    /// element.
    ///
    /// # Panics
    ///
    /// Panics unless `out.len() == values.len()`.
    pub fn bin11(values: &[f64], lo: f64, hi: f64, out: &mut [u32]) {
        let n = values.len();
        assert_eq!(out.len(), n, "one output bin per value");
        let span = hi - lo;
        let mut base = 0;
        while base + LANES <= n {
            let vs = &values[base..base + LANES];
            let mut scaled = [0.0_f64; LANES];
            for l in 0..LANES {
                scaled[l] = ((vs[l] - lo) / span).clamp(0.0, 1.0) * 11.0;
            }
            for l in 0..LANES {
                out[base + l] = (scaled[l] as u32).min(10);
            }
            base += LANES;
        }
        for i in base..n {
            let t = ((values[i] - lo) / (hi - lo)).clamp(0.0, 1.0);
            out[i] = ((t * 11.0) as u32).min(10);
        }
    }

    /// Batch width of the blocked [`pair_features_batch`]: the
    /// non-transcendental arithmetic runs through stack blocks this
    /// wide, the `atan2` evaluation stays one libm call per lane.
    const PAIR_BLOCK: usize = 64;

    /// Canonically-ordered Darboux pair features — see the [`scalar`]
    /// reference for the semantics. The whole chain (distance,
    /// direction, ordering select, frame axes, dot products) is
    /// branch-free elementwise arithmetic over fixed-width blocks;
    /// subtraction/multiplication/addition orders copy the `Vec3`
    /// operator sequences and division and square root are correctly
    /// rounded, so every lane is bit-identical to the scalar kernel.
    /// Only the final `theta = atan2(y, x)` runs per lane.
    ///
    /// # Panics
    ///
    /// Panics unless all input and output slices share one length.
    #[allow(clippy::too_many_arguments)]
    pub fn pair_features_batch(
        ps: &[tigris_geom::Vec3],
        ns: &[tigris_geom::Vec3],
        pt: &[tigris_geom::Vec3],
        nt: &[tigris_geom::Vec3],
        alpha: &mut [f64],
        phi: &mut [f64],
        theta: &mut [f64],
        flags: &mut [u8],
    ) {
        let n = ps.len();
        assert!(
            [ns.len(), pt.len(), nt.len(), alpha.len(), phi.len(), theta.len(), flags.len()]
                .iter()
                .all(|&l| l == n),
            "one lane per pair across all slices"
        );
        const B: usize = PAIR_BLOCK;
        let mut base = 0;
        while base < n {
            let m = (n - base).min(B);
            // Stage 0 — transpose the AoS lanes into SoA blocks; every
            // later stage is a plain elementwise loop over these.
            let (mut psx, mut psy, mut psz) = ([0.0_f64; B], [0.0_f64; B], [0.0_f64; B]);
            let (mut nsx, mut nsy, mut nsz) = ([0.0_f64; B], [0.0_f64; B], [0.0_f64; B]);
            let (mut ptx, mut pty, mut ptz) = ([0.0_f64; B], [0.0_f64; B], [0.0_f64; B]);
            let (mut ntx, mut nty, mut ntz) = ([0.0_f64; B], [0.0_f64; B], [0.0_f64; B]);
            for k in 0..m {
                let i = base + k;
                (psx[k], psy[k], psz[k]) = (ps[i].x, ps[i].y, ps[i].z);
                (nsx[k], nsy[k], nsz[k]) = (ns[i].x, ns[i].y, ns[i].z);
                (ptx[k], pty[k], ptz[k]) = (pt[i].x, pt[i].y, pt[i].z);
                (ntx[k], nty[k], ntz[k]) = (nt[i].x, nt[i].y, nt[i].z);
            }
            // Stage 1 — connecting line: distance and unit direction.
            // Stages 1–4 run all `B` lanes — a fixed trip count with no
            // bounds checks is what the auto-vectorizer turns into
            // packed code — and the zero-initialized padding lanes
            // produce NaNs that stage 5 never reads.
            let mut dist = [0.0_f64; B];
            let (mut dux, mut duy, mut duz) = ([0.0_f64; B], [0.0_f64; B], [0.0_f64; B]);
            for k in 0..B {
                let dx = ptx[k] - psx[k];
                let dy = pty[k] - psy[k];
                let dz = ptz[k] - psz[k];
                let d = ((dx * dx + dy * dy) + dz * dz).sqrt();
                dist[k] = d;
                dux[k] = dx / d;
                duy[k] = dy / d;
                duz[k] = dz / d;
            }
            // Stage 2 — canonical ordering magnitudes and the select
            // mask (the side whose normal leans into the line wins).
            let mut swap = [false; B];
            let mut tie = [false; B];
            for k in 0..B {
                let a = ((nsx[k] * dux[k] + nsy[k] * duy[k]) + nsz[k] * duz[k]).abs();
                let b = ((ntx[k] * -dux[k] + nty[k] * -duy[k]) + ntz[k] * -duz[k]).abs();
                swap[k] = a >= b;
                tie[k] = a == b;
            }
            // Stage 3 — frame operands after the select.
            let (mut ux, mut uy, mut uz) = ([0.0_f64; B], [0.0_f64; B], [0.0_f64; B]);
            let (mut mx, mut my, mut mz) = ([0.0_f64; B], [0.0_f64; B], [0.0_f64; B]);
            let (mut ex, mut ey, mut ez) = ([0.0_f64; B], [0.0_f64; B], [0.0_f64; B]);
            for k in 0..B {
                let s = swap[k];
                ux[k] = if s { nsx[k] } else { ntx[k] };
                uy[k] = if s { nsy[k] } else { nty[k] };
                uz[k] = if s { nsz[k] } else { ntz[k] };
                mx[k] = if s { ntx[k] } else { nsx[k] };
                my[k] = if s { nty[k] } else { nsy[k] };
                mz[k] = if s { ntz[k] } else { nsz[k] };
                ex[k] = if s { dux[k] } else { -dux[k] };
                ey[k] = if s { duy[k] } else { -duy[k] };
                ez[k] = if s { duz[k] } else { -duz[k] };
            }
            // Stage 4 — v = dd × u normalized (`Vec3::cross` order), w =
            // u × v̂, and the four dot products.
            let mut vn = [0.0_f64; B];
            let mut ty = [0.0_f64; B];
            let mut tx = [0.0_f64; B];
            let mut aout = [0.0_f64; B];
            let mut pout = [0.0_f64; B];
            for k in 0..B {
                let vx = ey[k] * uz[k] - ez[k] * uy[k];
                let vy = ez[k] * ux[k] - ex[k] * uz[k];
                let vz = ex[k] * uy[k] - ey[k] * ux[k];
                let d = ((vx * vx + vy * vy) + vz * vz).sqrt();
                vn[k] = d;
                let qx = vx / d;
                let qy = vy / d;
                let qz = vz / d;
                let wx = uy[k] * qz - uz[k] * qy;
                let wy = uz[k] * qx - ux[k] * qz;
                let wz = ux[k] * qy - uy[k] * qx;
                aout[k] = (qx * mx[k] + qy * my[k]) + qz * mz[k];
                pout[k] = (ux[k] * ex[k] + uy[k] * ey[k]) + uz[k] * ez[k];
                ty[k] = (wx * mx[k] + wy * my[k]) + wz * mz[k];
                tx[k] = (ux[k] * mx[k] + uy[k] * my[k]) + uz[k] * mz[k];
            }
            // Stage 5 — per-lane transcendental and flag assembly.
            for k in 0..m {
                alpha[base + k] = aout[k];
                phi[base + k] = pout[k];
                theta[base + k] = ty[k].atan2(tx[k]);
                // Same NaN-preserving `if x < eps` tests as the scalar
                // variant — the classifications must agree bit-for-bit.
                let dist_ok = if dist[k] < 1e-9 { 0 } else { PAIR_DIST_OK };
                let frame_ok = if vn[k] < 1e-12 { 0 } else { PAIR_FRAME_OK };
                let tie_flag = if tie[k] { PAIR_TIE } else { 0 };
                flags[base + k] = dist_ok | frame_ok | tie_flag;
            }
            base += m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::PointSoA;
    use tigris_geom::Vec3;

    fn cloud(n: usize) -> (PointSoA, Vec<u32>) {
        let pts: Vec<Vec3> = (0..n)
            .map(|i| {
                let f = i as f64;
                Vec3::new((f * 0.37).sin() * 5.0, (f * 0.11).cos() * 5.0, f * 0.05)
            })
            .collect();
        (PointSoA::from_points(&pts), (0..n as u32).collect())
    }

    #[test]
    fn wide_matches_scalar_on_all_remainders() {
        // 0..=19 covers n % 8 ∈ {0..7} with and without a half block.
        for n in 0..20 {
            let (soa, ids) = cloud(n);
            let q = Vec3::new(0.3, -1.2, 0.7);

            let mut a = vec![0.0; n];
            let mut b = vec![0.0; n];
            scalar::squared_distances(q, soa.view(), &mut a);
            wide::squared_distances(q, soa.view(), &mut b);
            assert_eq!(a, b, "n = {n}");

            assert_eq!(
                scalar::nn_reduce(q, soa.view(), &ids),
                wide::nn_reduce(q, soa.view(), &ids),
                "n = {n}"
            );

            let r2 = 9.0;
            let mut ha = Vec::new();
            let mut hb = Vec::new();
            scalar::radius_collect(q, soa.view(), &ids, r2, &mut ha);
            wide::radius_collect(q, soa.view(), &ids, r2, &mut hb);
            assert_eq!(ha, hb, "n = {n}");
        }
    }

    #[test]
    fn frontend_kernels_match_scalar_on_all_remainders() {
        for n in 0..20 {
            let (soa, _) = cloud(n);
            let q = Vec3::new(0.3, -1.2, 0.7);

            assert_eq!(scalar::lane_sums(soa.view()), wide::lane_sums(soa.view()), "n = {n}");

            let c = [0.4, -0.7, 1.3];
            assert_eq!(scalar::cov_upper(soa.view(), c), wide::cov_upper(soa.view(), c), "n = {n}");

            let mut a = vec![0.0; n];
            let mut b = vec![0.0; n];
            scalar::distances(q, soa.view(), &mut a);
            wide::distances(q, soa.view(), &mut b);
            assert_eq!(a, b, "n = {n}");

            // axpy over an n-length row, seeded with distinct accumulators.
            let row: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin()).collect();
            let mut acc_a: Vec<f64> = (0..n).map(|i| i as f64 * 0.1).collect();
            let mut acc_b = acc_a.clone();
            scalar::axpy(&mut acc_a, 0.37, &row);
            wide::axpy(&mut acc_b, 0.37, &row);
            assert_eq!(acc_a, acc_b, "n = {n}");

            let vals: Vec<f64> = (0..n).map(|i| -1.4 + 0.31 * i as f64).collect();
            let mut ba = vec![0u32; n];
            let mut bb = vec![0u32; n];
            scalar::bin11(&vals, -1.0, 1.0, &mut ba);
            wide::bin11(&vals, -1.0, 1.0, &mut bb);
            assert_eq!(ba, bb, "n = {n}");
        }
    }

    #[test]
    fn pair_features_batch_matches_scalar_lanewise() {
        // Pairs spanning generic geometry, an exact canonical-ordering
        // tie (mirrored normals), coincident points (dist guard), and a
        // degenerate frame (direction parallel to both normals).
        for n in 0..70 {
            let mut ps = Vec::new();
            let mut ns = Vec::new();
            let mut pt = Vec::new();
            let mut nt = Vec::new();
            for i in 0..n {
                let f = i as f64;
                match i % 4 {
                    0 => {
                        ps.push(Vec3::new((f * 0.37).sin(), (f * 0.11).cos(), f * 0.05));
                        ns.push(Vec3::new(0.0, 0.6, 0.8));
                        pt.push(Vec3::new((f * 0.19).cos(), (f * 0.29).sin(), 1.0 - f * 0.02));
                        nt.push(Vec3::new(0.48, 0.6, 0.64));
                    }
                    1 => {
                        // Tie: both normals orthogonal to the line.
                        ps.push(Vec3::new(f, 0.0, 0.0));
                        ns.push(Vec3::new(0.0, 1.0, 0.0));
                        pt.push(Vec3::new(f + 1.0, 0.0, 0.0));
                        nt.push(Vec3::new(0.0, 0.0, 1.0));
                    }
                    2 => {
                        // Coincident points: dist guard fires.
                        ps.push(Vec3::new(f, f, f));
                        ns.push(Vec3::new(1.0, 0.0, 0.0));
                        pt.push(Vec3::new(f, f, f));
                        nt.push(Vec3::new(0.0, 1.0, 0.0));
                    }
                    _ => {
                        // Degenerate frame: du ∥ ns, cross ≈ 0.
                        ps.push(Vec3::new(0.0, 0.0, f));
                        ns.push(Vec3::new(0.0, 0.0, 1.0));
                        pt.push(Vec3::new(0.0, 0.0, f + 2.0));
                        nt.push(Vec3::new(0.0, 0.0, 1.0));
                    }
                }
            }
            let (mut aa, mut pa, mut ta, mut fa) =
                (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0u8; n]);
            let (mut ab, mut pb, mut tb, mut fb) =
                (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0u8; n]);
            scalar::pair_features_batch(&ps, &ns, &pt, &nt, &mut aa, &mut pa, &mut ta, &mut fa);
            wide::pair_features_batch(&ps, &ns, &pt, &nt, &mut ab, &mut pb, &mut tb, &mut fb);
            assert_eq!(fa, fb, "n = {n}");
            for i in 0..n {
                if fa[i] & (PAIR_DIST_OK | PAIR_FRAME_OK) == PAIR_DIST_OK | PAIR_FRAME_OK {
                    assert_eq!(aa[i].to_bits(), ab[i].to_bits(), "alpha lane {i}, n = {n}");
                    assert_eq!(pa[i].to_bits(), pb[i].to_bits(), "phi lane {i}, n = {n}");
                    assert_eq!(ta[i].to_bits(), tb[i].to_bits(), "theta lane {i}, n = {n}");
                }
            }
        }
    }

    #[test]
    fn cov_upper_matches_outer_product_sums() {
        let (soa, _) = cloud(13);
        let c = [0.25, -0.5, 0.75];
        let acc = cov_upper(soa.view(), c);
        // Reference: the entrywise scan-order accumulation the plane fit
        // used before the kernel split.
        let mut want = [0.0f64; 6];
        for i in 0..13 {
            let d = soa.get(i) - Vec3::new(c[0], c[1], c[2]);
            want[0] += d.x * d.x;
            want[1] += d.x * d.y;
            want[2] += d.x * d.z;
            want[3] += d.y * d.y;
            want[4] += d.y * d.z;
            want[5] += d.z * d.z;
        }
        assert_eq!(acc, want);
    }

    #[test]
    fn bin11_clamps_and_saturates() {
        let vals = [-5.0, -1.0, 0.0, 0.999, 1.0, 5.0, f64::NAN];
        let mut bins = vec![0u32; vals.len()];
        bin11(&vals, -1.0, 1.0, &mut bins);
        assert_eq!(bins[0], 0);
        assert_eq!(bins[1], 0);
        assert_eq!(bins[2], 5);
        assert_eq!(bins[4], 10);
        assert_eq!(bins[5], 10);
        // clamp propagates NaN, and `NaN as u32` saturates to 0.
        assert_eq!(bins[6], 0);
    }

    #[test]
    fn nn_reduce_breaks_ties_to_smaller_id_regardless_of_order() {
        // Two copies of the same point, ids deliberately out of order.
        let soa = PointSoA::from_points(&[Vec3::X; 9]);
        let ids: Vec<u32> = vec![8, 7, 6, 5, 4, 3, 2, 1, 0];
        let q = Vec3::new(2.0, 0.0, 0.0);
        assert_eq!(scalar::nn_reduce(q, soa.view(), &ids), Some((1.0, 0)));
        assert_eq!(wide::nn_reduce(q, soa.view(), &ids), Some((1.0, 0)));
    }

    #[test]
    fn empty_view_has_no_nearest() {
        let soa = PointSoA::new();
        assert_eq!(nn_reduce(Vec3::ZERO, soa.view(), &[]), None);
        let mut out = Vec::new();
        radius_collect(Vec3::ZERO, soa.view(), &[], 1.0, &mut out);
        assert!(out.is_empty());
        squared_distances(Vec3::ZERO, soa.view(), &mut []);
    }

    #[test]
    fn radius_boundary_is_inclusive() {
        let soa = PointSoA::from_points(&[Vec3::new(3.0, 0.0, 0.0)]);
        let mut out = Vec::new();
        radius_collect(Vec3::ZERO, soa.view(), &[0], 9.0, &mut out);
        assert_eq!(out, vec![Neighbor::new(0, 9.0)]);
    }
}
