//! Correspondence estimation: KPCE in feature space (paper Fig. 2, stage
//! 4) and RPCE in 3D space (fine-tuning stage 1).
//!
//! Both stages are per-item-independent query fan-outs (one feature NN per
//! source descriptor; the 3D nearest target point of every source point),
//! so both run batched: RPCE through [`Searcher3`]'s batched entry points,
//! KPCE through [`tigris_core::batch::parallel_map`] over the feature tree.
//!
//! [`rpce`] answers every source point with a fresh NN query. Inside ICP,
//! where the same source points move a little each iteration, the
//! crate-private `RpceCache` skips the queries whose answer provably
//! cannot have changed since the point's last exact search (a
//! triangle-inequality certificate on its two nearest distances) and
//! returns exactly what [`rpce`] would, bit for bit.

use tigris_core::batch::parallel_map_indexed;
use tigris_core::{BatchConfig, KdTreeN, Neighbor};
use tigris_geom::Vec3;

use crate::descriptor::Descriptors;
use crate::search::Searcher3;

/// A match between a source item and a target item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Correspondence {
    /// Index on the source side (key-point index for KPCE, point index for
    /// RPCE).
    pub source: usize,
    /// Index on the target side.
    pub target: usize,
    /// Squared distance in the space the match was made in (feature space
    /// for KPCE, 3D for RPCE).
    pub distance_squared: f64,
}

/// Key-Point Correspondence Estimation: for each source descriptor, the
/// nearest target descriptor. With `reciprocal`, a match `(s, t)` is kept
/// only when `s` is in turn `t`'s nearest source descriptor (Tbl. 1 knob
/// "Reciprocity"). With `kth` set, the k-th nearest feature is returned
/// instead of the nearest (Fig. 7a error injection on sparse data).
///
/// # Panics
///
/// Panics when the descriptor dimensions disagree.
pub fn kpce(
    source: &Descriptors,
    target: &Descriptors,
    reciprocal: bool,
    kth: Option<usize>,
) -> Vec<Correspondence> {
    kpce_batched(source, target, reciprocal, kth, &BatchConfig::serial())
}

/// [`kpce`] with the feature-space queries fanned out across worker
/// threads per `parallel`. Matches come back in source order — identical
/// to the serial result at any thread count.
///
/// # Panics
///
/// Panics when the descriptor dimensions disagree.
pub fn kpce_batched(
    source: &Descriptors,
    target: &Descriptors,
    reciprocal: bool,
    kth: Option<usize>,
    parallel: &BatchConfig,
) -> Vec<Correspondence> {
    assert_eq!(source.dim, target.dim, "descriptor dimensions disagree");
    if source.is_empty() || target.is_empty() {
        return Vec::new();
    }
    let target_tree = KdTreeN::build(&target.data, target.dim);
    let source_tree =
        if reciprocal { Some(KdTreeN::build(&source.data, source.dim)) } else { None };

    parallel_map_indexed(source.len(), parallel, |s| {
        let q = source.row(s);
        let found = match kth {
            Some(k) if k > 1 => kth_feature_nn(&target.data, target.dim, q, k),
            _ => target_tree.nn(q),
        };
        let n = found?;
        if let Some(src_tree) = &source_tree {
            // Reciprocity check is performed with exact NN regardless of
            // injection (the paper injects errors into the forward search).
            let back = src_tree.nn(target.row(n.index));
            if back.map(|b| b.index) != Some(s) {
                return None;
            }
        }
        Some(Correspondence { source: s, target: n.index, distance_squared: n.distance_squared })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// KPCE with Lowe's ratio test: a source descriptor's match is kept only
/// when its nearest target descriptor is clearly better than the second
/// nearest (`d1/d2 ≤ max_ratio`, distances non-squared). This is the
/// "Ratio threshold" knob of the paper's Tbl. 1 — it suppresses matches in
/// repetitive structure where the descriptor is ambiguous.
///
/// # Panics
///
/// Panics when descriptor dimensions disagree or `max_ratio` is not in
/// `(0, 1]`.
pub fn kpce_ratio(
    source: &Descriptors,
    target: &Descriptors,
    max_ratio: f64,
) -> Vec<Correspondence> {
    kpce_ratio_batched(source, target, max_ratio, &BatchConfig::serial())
}

/// [`kpce_ratio`] with the feature-space queries fanned out across worker
/// threads per `parallel`; see [`kpce_batched`].
///
/// # Panics
///
/// Panics when descriptor dimensions disagree or `max_ratio` is not in
/// `(0, 1]`.
pub fn kpce_ratio_batched(
    source: &Descriptors,
    target: &Descriptors,
    max_ratio: f64,
    parallel: &BatchConfig,
) -> Vec<Correspondence> {
    assert_eq!(source.dim, target.dim, "descriptor dimensions disagree");
    assert!(max_ratio > 0.0 && max_ratio <= 1.0, "ratio must be in (0, 1], got {max_ratio}");
    if source.is_empty() || target.is_empty() {
        return Vec::new();
    }
    let target_tree = KdTreeN::build(&target.data, target.dim);
    parallel_map_indexed(source.len(), parallel, |s| {
        let two = target_tree.nn2(source.row(s));
        match two.as_slice() {
            [best, second] => {
                let d1 = best.distance_squared.sqrt();
                let d2 = second.distance_squared.sqrt();
                (d2 <= 0.0 || d1 / d2 <= max_ratio).then_some(Correspondence {
                    source: s,
                    target: best.index,
                    distance_squared: best.distance_squared,
                })
            }
            [only] => Some(Correspondence {
                source: s,
                target: only.index,
                distance_squared: only.distance_squared,
            }),
            _ => None,
        }
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Exhaustive k-th nearest feature (1-based), used only under injection.
fn kth_feature_nn(data: &[f64], dim: usize, q: &[f64], k: usize) -> Option<tigris_core::Neighbor> {
    let n = data.len() / dim;
    if n < k {
        return None;
    }
    let mut all: Vec<tigris_core::Neighbor> = (0..n)
        .map(|i| {
            let d2 =
                data[i * dim..(i + 1) * dim].iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
            tigris_core::Neighbor::new(i, d2)
        })
        .collect();
    all.sort();
    Some(all[k - 1])
}

/// Raw-Point Correspondence Estimation: for every source point, the nearest
/// target point in 3D, dropping pairs farther than `max_distance`.
///
/// This is the fine-tuning phase's KD-tree consumer: one NN query per
/// source point (ICP skips the provably unchanged ones through its
/// correspondence cache).
pub fn rpce(
    source_points: &[Vec3],
    target_searcher: &mut Searcher3,
    max_distance: f64,
) -> Vec<Correspondence> {
    let max_d2 = max_distance * max_distance;
    // One NN per source point per ICP iteration — the fine-tuning phase's
    // entire KD-tree bill, issued as a single batch.
    let nearest = target_searcher.nn_batch(source_points);
    let mut out = Vec::with_capacity(source_points.len());
    for (i, n) in nearest.into_iter().enumerate() {
        if let Some(n) = n {
            if n.distance_squared <= max_d2 {
                out.push(Correspondence {
                    source: i,
                    target: n.index,
                    distance_squared: n.distance_squared,
                });
            }
        }
    }
    out
}

/// Relative slack of the reuse certificates; see [`Anchor::certifies`].
const REL_SLACK: f64 = 1e-12;

/// Absolute slack of the reuse certificates, in distance units; see
/// [`Anchor::certifies`].
const ABS_SLACK: f64 = 1e-150;

/// One source point's certificate from its last exact 2-NN search.
#[derive(Debug, Clone, Copy)]
struct Anchor {
    /// The moved position the search ran at.
    at: Vec3,
    /// Index of the nearest target point.
    nearest: usize,
    /// Distance from `at` to it.
    d1: f64,
    /// Distance from `at` to the second-nearest target point (∞ when the
    /// target has one point).
    d2: f64,
}

impl Anchor {
    /// Certifies nothing: NaN fails every comparison.
    const NONE: Anchor = Anchor { at: Vec3::ZERO, nearest: 0, d1: f64::NAN, d2: f64::NAN };

    /// The certificate a fresh 2-NN answer at `at` gives. An overflowed
    /// (or NaN) squared distance hides the true distance, so it gives
    /// none.
    fn searched(at: Vec3, two: [Option<Neighbor>; 2]) -> Anchor {
        let [Some(first), second] = two else { return Anchor::NONE };
        let second_d2 = second.map_or(f64::INFINITY, |n| n.distance_squared);
        if !first.distance_squared.is_finite() || (second.is_some() && !second_d2.is_finite()) {
            return Anchor::NONE;
        }
        Anchor { at, nearest: first.index, d1: first.distance(), d2: second_d2.sqrt() }
    }

    /// `true` when an exact NN search at `q` provably returns either
    /// `nearest` or nothing within `max_distance` (non-negative) — so
    /// the search can be skipped, and `nearest`'s squared distance to
    /// `q` decides the correspondence exactly as the search's would.
    ///
    /// With `δ = |q − at|`, the triangle inequality bounds every target
    /// point `p` by `|at − p| − δ ≤ |q − p| ≤ |at − p| + δ`, so
    ///
    /// * `d1 + 2δ < d2` ⇒ `|q − nearest| ≤ d1 + δ < d2 − δ ≤ |q − p|`
    ///   for every other `p`: `nearest` is the unique nearest point;
    /// * `d1 − δ > max_distance` ⇒ every `|q − p| ≥ d1 − δ` is out of
    ///   range: no correspondence, whichever point is nearest.
    ///
    /// The search decides on *computed* squared distances, so both tests
    /// carry a slack that covers rounding. For finite inputs and no
    /// underflow every computed quantity is within a few ulps
    /// *relative*: a squared distance `(dx·dx + dy·dy) + dz·dz` with
    /// `dx = fl(qx − px)` is five roundings of non-negative terms, so it
    /// is within `(1 + ε)⁵` of the true value (`ε = 2⁻⁵³`) however large
    /// the coordinates are; `sqrt` (for `d1`, `d2`) and `norm` (for `δ`)
    /// add at most another ulp or two, and so do the sums and products
    /// of the tests themselves. Every quantity compared is a sum of
    /// non-negative terms, so no cancellation amplifies these errors,
    /// and a relative slack of [`REL_SLACK`] (≈ 9000 ε) on each side
    /// leaves a margin of hundreds of times the total rounding: when a
    /// test passes, the computed `d²(q, nearest)` is strictly below
    /// every other computed `d²(q, p)` (so index tie-breaks never
    /// matter), or every computed `d²(q, p)` exceeds the computed
    /// `max_distance²`. Underflowing products add absolute errors below
    /// `10⁻³²³` in `d²`, i.e. below `10⁻¹⁶¹` in distance; [`ABS_SLACK`]
    /// covers them. Non-finite or NaN values fail both tests and fall
    /// back to a search.
    fn certifies(&self, q: Vec3, max_distance: f64) -> bool {
        let delta = (q - self.at).norm();
        (self.d1 + 2.0 * delta) * (1.0 + REL_SLACK) + ABS_SLACK < self.d2 * (1.0 - REL_SLACK)
            || self.d1 * (1.0 - REL_SLACK) > (delta + max_distance) * (1.0 + REL_SLACK) + ABS_SLACK
    }
}

/// [`rpce`] with certified correspondence reuse, owned by one ICP run.
///
/// Each source point keeps an [`Anchor`] from its last exact search;
/// while the anchor certifies the point's moved position, the NN query is
/// skipped and the pair is rebuilt from the anchor, with its squared
/// distance recomputed in the search kernels' exact association. Output
/// is bit-identical to [`rpce`]. Reuse needs a searcher whose skipped
/// queries nobody observes ([`Searcher3::queries_skippable`]: exact
/// stateless backend, no injection, no query log); any other searcher
/// gets plain [`rpce`], so approximate leader books, accelerator models,
/// injected errors and replay logs see exactly the query stream they
/// always did.
#[derive(Debug, Default)]
pub(crate) struct RpceCache {
    anchors: Vec<Anchor>,
    /// Source indices whose certificate failed this call, ascending.
    pending: Vec<u32>,
    /// Their moved positions: the 2-NN batch.
    queries: Vec<Vec3>,
}

impl RpceCache {
    /// Writes `rpce(source_points, target_searcher, max_distance)` into
    /// `out`, searching only where no certificate holds. The anchors
    /// describe one target cloud, so `target_searcher` must index the
    /// same points on every call. Returns the number of NN searches
    /// issued; the rest were reused.
    pub(crate) fn rpce_into(
        &mut self,
        source_points: &[Vec3],
        target_searcher: &mut Searcher3,
        max_distance: f64,
        out: &mut Vec<Correspondence>,
    ) -> usize {
        out.clear();
        if !target_searcher.queries_skippable() {
            self.anchors.clear();
            out.extend(rpce(source_points, target_searcher, max_distance));
            return source_points.len();
        }
        if self.anchors.len() != source_points.len() {
            self.anchors.clear();
            self.anchors.resize(source_points.len(), Anchor::NONE);
        }
        // `rpce` keeps pairs with d² ≤ max_distance², i.e. within |max_distance|.
        let reach = max_distance.abs();
        self.pending.clear();
        self.queries.clear();
        for (i, (&q, anchor)) in source_points.iter().zip(&self.anchors).enumerate() {
            if !anchor.certifies(q, reach) {
                self.pending.push(i as u32);
                self.queries.push(q);
            }
        }
        let found = target_searcher.nn2_batch(&self.queries);
        let target = target_searcher.points();
        let max_d2 = max_distance * max_distance;
        let mut searched = self.pending.iter().zip(&found).peekable();
        for (i, &q) in source_points.iter().enumerate() {
            let nearest = match searched.next_if(|(&j, _)| j as usize == i) {
                Some((_, &two)) => {
                    self.anchors[i] = Anchor::searched(q, two);
                    two[0]
                }
                // Certified: the anchor's nearest is still the nearest,
                // or nothing is in range and its d² fails the test below
                // like every point's.
                None => {
                    let p = self.anchors[i].nearest;
                    Some(Neighbor::new(p, q.distance_squared(target[p])))
                }
            };
            if let Some(n) = nearest.filter(|n| n.distance_squared <= max_d2) {
                out.push(Correspondence {
                    source: i,
                    target: n.index,
                    distance_squared: n.distance_squared,
                });
            }
        }
        self.pending.len()
    }
}

/// Reciprocal RPCE (Tbl. 1's "Reciprocity" knob on the fine-tuning side):
/// keep `(s, t)` only when `s` is in turn `t`'s nearest source point.
/// Doubles the NN queries but discards one-sided matches from partially
/// overlapping frames (points visible in only one scan).
pub fn rpce_reciprocal(
    source_points: &[Vec3],
    source_searcher: &mut Searcher3,
    target_searcher: &mut Searcher3,
    max_distance: f64,
) -> Vec<Correspondence> {
    let forward = rpce(source_points, target_searcher, max_distance);
    let target_points = target_searcher.points();
    let back_queries: Vec<Vec3> = forward.iter().map(|c| target_points[c.target]).collect();
    let back = source_searcher.nn_batch(&back_queries);
    forward
        .into_iter()
        .zip(back)
        .filter_map(|(c, b)| (b.map(|b| b.index) == Some(c.source)).then_some(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tigris_geom::RigidTransform;

    fn desc(rows: &[&[f64]]) -> Descriptors {
        let dim = rows[0].len();
        let mut data = Vec::new();
        for r in rows {
            assert_eq!(r.len(), dim);
            data.extend_from_slice(r);
        }
        Descriptors { dim, data }
    }

    #[test]
    fn kpce_matches_nearest_features() {
        let src = desc(&[&[0.0, 0.0], &[10.0, 10.0]]);
        let tgt = desc(&[&[9.5, 9.9], &[0.2, 0.1]]);
        let c = kpce(&src, &tgt, false, None);
        assert_eq!(c.len(), 2);
        assert_eq!((c[0].source, c[0].target), (0, 1));
        assert_eq!((c[1].source, c[1].target), (1, 0));
    }

    #[test]
    fn kpce_reciprocal_filters_asymmetric_matches() {
        // Two source points both nearest to target 0; target 0's nearest
        // source is source 0 → only (0,0) survives reciprocity.
        let src = desc(&[&[0.0], &[0.4]]);
        let tgt = desc(&[&[0.1], &[5.0]]);
        let plain = kpce(&src, &tgt, false, None);
        assert_eq!(plain.len(), 2);
        let recip = kpce(&src, &tgt, true, None);
        assert_eq!(recip.len(), 1);
        assert_eq!((recip[0].source, recip[0].target), (0, 0));
    }

    #[test]
    fn kpce_kth_injection_degrades_matches() {
        let src = desc(&[&[0.0]]);
        let tgt = desc(&[&[0.1], &[1.0], &[2.0]]);
        let exact = kpce(&src, &tgt, false, None);
        assert_eq!(exact[0].target, 0);
        let injected = kpce(&src, &tgt, false, Some(2));
        assert_eq!(injected[0].target, 1);
    }

    #[test]
    fn kpce_empty_inputs() {
        let empty = Descriptors { dim: 3, data: vec![] };
        let other = desc(&[&[1.0, 2.0, 3.0]]);
        assert!(kpce(&empty, &other, false, None).is_empty());
        assert!(kpce(&other, &empty, true, None).is_empty());
    }

    #[test]
    #[should_panic(expected = "dimensions disagree")]
    fn kpce_dim_mismatch_panics() {
        let a = desc(&[&[0.0, 0.0]]);
        let b = desc(&[&[0.0]]);
        kpce(&a, &b, false, None);
    }

    #[test]
    fn ratio_test_suppresses_ambiguous_matches() {
        // Source 0 is close to two nearly identical targets (ambiguous);
        // source 1 has one clear match.
        let src = desc(&[&[0.0], &[10.0]]);
        let tgt = desc(&[&[0.4], &[-0.41], &[10.1]]);
        let strict = kpce_ratio(&src, &tgt, 0.8);
        // Source 0's two candidates are at distance 0.4 vs 0.41: ratio
        // 0.97 > 0.8 → suppressed. Source 1: 0.1 vs 9.7-ish → kept.
        assert_eq!(strict.len(), 1);
        assert_eq!(strict[0].source, 1);
        assert_eq!(strict[0].target, 2);
        // A permissive ratio keeps both.
        let permissive = kpce_ratio(&src, &tgt, 1.0);
        assert_eq!(permissive.len(), 2);
    }

    #[test]
    fn ratio_test_single_target_always_matches() {
        let src = desc(&[&[0.0]]);
        let tgt = desc(&[&[5.0]]);
        let m = kpce_ratio(&src, &tgt, 0.5);
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "ratio must be in")]
    fn ratio_test_rejects_bad_ratio() {
        let d = desc(&[&[0.0]]);
        kpce_ratio(&d, &d, 1.5);
    }

    #[test]
    fn rpce_finds_nearest_within_max_distance() {
        let target: Vec<Vec3> = (0..10).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        let mut s = Searcher3::classic(&target);
        let source = vec![Vec3::new(2.2, 0.0, 0.0), Vec3::new(50.0, 0.0, 0.0)];
        let c = rpce(&source, &mut s, 2.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].source, 0);
        assert_eq!(c[0].target, 2);
    }

    #[test]
    fn rpce_empty_source() {
        let target = vec![Vec3::ZERO];
        let mut s = Searcher3::classic(&target);
        assert!(rpce(&[], &mut s, 1.0).is_empty());
    }

    #[test]
    fn rpce_reciprocal_drops_one_sided_matches() {
        // Target has an extra cluster source can't see; source points near
        // it map forward onto it, but the cluster's nearest source is a
        // single frontier point → one-sided matches die.
        let target =
            vec![Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 0.0, 0.0)];
        let source = vec![
            Vec3::new(0.1, 0.0, 0.0),
            Vec3::new(1.4, 0.0, 0.0), // nearest target = 1, but target 1's
            // nearest source is also this → kept
            Vec3::new(1.45, 0.0, 0.0), // nearest target = 1 too → dropped
        ];
        let mut ts = Searcher3::classic(&target);
        let forward = rpce(&source, &mut ts, 2.0);
        assert_eq!(forward.len(), 3);
        let mut ss = Searcher3::classic(&source);
        let mut ts = Searcher3::classic(&target);
        let recip = rpce_reciprocal(&source, &mut ss, &mut ts, 2.0);
        assert!(recip.len() < forward.len());
        // Every surviving pair is mutually nearest.
        for c in &recip {
            let back = tigris_core::nn_brute_force(&source, target[c.target]).unwrap();
            assert_eq!(back.index, c.source);
        }
    }

    #[test]
    fn rpce_reciprocal_identity_clouds_keep_everything() {
        let pts: Vec<Vec3> = (0..20).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        let mut ss = Searcher3::classic(&pts);
        let mut ts = Searcher3::classic(&pts);
        let recip = rpce_reciprocal(&pts, &mut ss, &mut ts, 0.5);
        assert_eq!(recip.len(), pts.len());
    }

    /// Every field of every pair, distances as bits.
    fn pair_bits(c: &[Correspondence]) -> Vec<(usize, usize, u64)> {
        c.iter().map(|c| (c.source, c.target, c.distance_squared.to_bits())).collect()
    }

    #[test]
    fn cached_rpce_reuses_unique_nearest_and_searches_ties() {
        // Targets on a unit lattice; sources 0..3 sit near one lattice
        // point each, source 3 exactly halfway between two (a tie).
        let target: Vec<Vec3> = (0..10).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        let source = vec![
            Vec3::new(0.1, 0.0, 0.0),
            Vec3::new(4.2, 0.1, 0.0),
            Vec3::new(7.0, 0.0, 0.5),
            Vec3::new(2.5, 0.0, 0.0),
        ];
        let mut plain = Searcher3::classic(&target);
        let mut cached = Searcher3::classic(&target);
        let mut cache = RpceCache::default();
        let mut out = Vec::new();
        assert_eq!(cache.rpce_into(&source, &mut cached, 0.6, &mut out), 4);
        assert_eq!(pair_bits(&out), pair_bits(&rpce(&source, &mut plain, 0.6)));
        // Unmoved: only the tied point needs a search.
        assert_eq!(cache.rpce_into(&source, &mut cached, 0.6, &mut out), 1);
        assert_eq!(pair_bits(&out), pair_bits(&rpce(&source, &mut plain, 0.6)));
        // A small step keeps the unique answers certified.
        let nudged: Vec<Vec3> = source.iter().map(|&p| p + Vec3::new(0.01, 0.0, 0.0)).collect();
        assert_eq!(cache.rpce_into(&nudged, &mut cached, 0.6, &mut out), 1);
        assert_eq!(pair_bits(&out), pair_bits(&rpce(&nudged, &mut plain, 0.6)));
        assert_eq!(cached.stats().queries, 6);
    }

    #[test]
    fn cached_rpce_takes_the_full_path_for_observed_searchers() {
        let target: Vec<Vec3> = (0..10).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        let source = vec![Vec3::new(0.1, 0.0, 0.0), Vec3::new(4.2, 0.1, 0.0)];
        let mut logged = Searcher3::classic(&target);
        logged.enable_query_logging();
        let mut injected = Searcher3::classic(&target);
        injected.set_injection(Some(crate::search::Injection::NnKth(2)));
        let mut approx = Searcher3::two_stage_approx(&target, 2, Default::default());
        for searcher in [&mut logged, &mut injected, &mut approx] {
            let mut cache = RpceCache::default();
            let mut out = Vec::new();
            for _ in 0..3 {
                assert_eq!(cache.rpce_into(&source, searcher, 1.0, &mut out), source.len());
            }
            assert_eq!(searcher.stats().queries, 3 * source.len() as u64);
        }
        assert_eq!(logged.take_query_log().unwrap().len(), 3 * source.len());
    }

    /// Lattice coordinates (multiples of 0.25: exact in binary), so
    /// duplicates, equidistant pairs and distances of exactly
    /// `max_distance` all occur.
    fn lattice_point() -> impl Strategy<Value = Vec3> {
        (0i32..12, 0i32..12, 0i32..4)
            .prop_map(|(x, y, z)| Vec3::new(x as f64 * 0.25, y as f64 * 0.25, z as f64 * 0.25))
    }

    /// One ICP-like step: none, an exact lattice shift (ties survive it),
    /// or a small rigid motion.
    fn small_step() -> impl Strategy<Value = RigidTransform> {
        let axis = prop_oneof![Just(Vec3::X), Just(Vec3::Y), Just(Vec3::Z)];
        let shift = (-1i32..2, 0usize..3).prop_map(|(k, a)| {
            let mut t = [0.0; 3];
            t[a] = k as f64 * 0.25;
            RigidTransform::from_translation(Vec3::new(t[0], t[1], t[2]))
        });
        let rigid = (axis, -0.03f64..0.03, -0.05f64..0.05, -0.05f64..0.05, -0.05f64..0.05)
            .prop_map(|(axis, angle, x, y, z)| {
                RigidTransform::from_axis_angle(axis, angle, Vec3::new(x, y, z))
            });
        prop_oneof![
            1 => Just(RigidTransform::IDENTITY),
            1 => shift,
            3 => rigid,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn cached_rpce_is_bit_identical_to_rpce_at_every_step(
            target in prop_oneof![
                4 => prop::collection::vec(lattice_point(), 2..40),
                1 => prop::collection::vec(lattice_point(), 1..2),
            ],
            source in prop::collection::vec(lattice_point(), 0..30),
            steps in prop::collection::vec(small_step(), 1..12),
            jump_at in 0usize..12,
            jump in (-2.0f64..2.0, -2.0f64..2.0, -1.2f64..1.2),
            max_quarters in 1i32..5,
            backend in 0usize..3,
            parallel in any::<bool>(),
        ) {
            let max_distance = max_quarters as f64 * 0.25;
            let build = |pts: &[Vec3]| match backend {
                0 => Searcher3::classic(pts),
                1 => Searcher3::two_stage(pts, 2),
                _ => Searcher3::brute_force(pts),
            };
            let mut plain = build(&target);
            let mut cached = build(&target);
            if parallel {
                cached.set_parallel(BatchConfig { threads: 3, min_chunk: 4 });
            }
            let mut cache = RpceCache::default();
            let mut out = Vec::new();
            let mut pose = RigidTransform::IDENTITY;
            let mut searches = 0;
            for (k, step) in steps.iter().enumerate() {
                pose = *step * pose;
                if k == jump_at % steps.len() {
                    let (x, y, angle) = jump;
                    pose = RigidTransform::from_axis_angle(Vec3::Z, angle, Vec3::new(x, y, 0.0))
                        * pose;
                }
                let moved: Vec<Vec3> = source.iter().map(|&p| pose.apply(p)).collect();
                searches += cache.rpce_into(&moved, &mut cached, max_distance, &mut out);
                let want = rpce(&moved, &mut plain, max_distance);
                prop_assert_eq!(pair_bits(&out), pair_bits(&want), "step {}", k);
            }
            prop_assert_eq!(cached.stats().queries, searches as u64);
        }
    }

    #[test]
    fn rpce_attributes_search_time() {
        let target: Vec<Vec3> = (0..100).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        let mut s = Searcher3::classic(&target);
        let source: Vec<Vec3> = (0..50).map(|i| Vec3::new(i as f64 + 0.3, 0.0, 0.0)).collect();
        rpce(&source, &mut s, 5.0);
        assert_eq!(s.stats().queries, 50);
    }
}
