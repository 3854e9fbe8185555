//! Correspondence estimation: KPCE in feature space (paper Fig. 2, stage
//! 4) and RPCE in 3D space (fine-tuning stage 1).
//!
//! Both stages are per-item-independent query fan-outs (one feature NN per
//! source descriptor; the 3D nearest target point of every source point):
//! RPCE runs through [`Searcher3`]'s batched entry points, KPCE loops over
//! the source descriptors against a feature-space `KdTreeN`.
//!
//! [`rpce`] answers every source point with a fresh NN query. Inside ICP,
//! where the same source points move a little each iteration, the
//! crate-private `RpceCache` skips the queries whose answer provably
//! cannot have changed since the point's last exact search (a
//! triangle-inequality certificate on its two nearest distances), or
//! that the target frame's own neighbour rows answer (the prepared
//! frame's `NeighborGraph`), and returns exactly what [`rpce`] would,
//! bit for bit.

use tigris_core::{KdTreeN, Neighbor};
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
    assert_eq!(source.dim, target.dim, "descriptor dimensions disagree");
    if source.is_empty() || target.is_empty() {
        return Vec::new();
    }
    let target_tree = KdTreeN::build(&target.data, target.dim);
    let source_tree =
        if reciprocal { Some(KdTreeN::build(&source.data, source.dim)) } else { None };

    (0..source.len())
        .filter_map(|s| {
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
            Some(Correspondence {
                source: s,
                target: n.index,
                distance_squared: n.distance_squared,
            })
        })
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
    assert_eq!(source.dim, target.dim, "descriptor dimensions disagree");
    assert!(max_ratio > 0.0 && max_ratio <= 1.0, "ratio must be in (0, 1], got {max_ratio}");
    if source.is_empty() || target.is_empty() {
        return Vec::new();
    }
    let target_tree = KdTreeN::build(&target.data, target.dim);
    (0..source.len())
        .filter_map(|s| {
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

/// Relative slack of the reuse certificates; see [`Anchor::certify`].
const REL_SLACK: f64 = 1e-12;

/// Absolute slack of the reuse certificates, in distance units; see
/// [`Anchor::certify`].
const ABS_SLACK: f64 = 1e-150;

/// Entries a [`NeighborGraph`] keeps per point.
pub(crate) const GRAPH_K: usize = 16;

/// Padding for rows shorter than [`GRAPH_K`].
const NO_ENTRY: u32 = u32::MAX;

/// A prepared frame's neighbour graph: per point `p`, the first
/// [`GRAPH_K`] entries of its canonical `(d², index)` radius row and a
/// bound `b(p)` such that every point outside those entries lies at
/// least `b(p)` from `p` — the distance of the row's next entry, or the
/// pass radius when the row has no more. Harvested from a front-end
/// radius pass that computes the rows anyway, on exact searchers only
/// (a row from an approximate or injected search proves nothing); RPCE
/// reads it to certify reuse where the anchor alone cannot
/// ([`Anchor::certify`]'s test (c)). 72 bytes per point.
#[derive(Debug)]
pub(crate) struct NeighborGraph {
    /// [`GRAPH_K`] indices per point, padded with [`NO_ENTRY`].
    entries: Vec<u32>,
    /// `b(p)` per point.
    bounds: Vec<f64>,
}

impl NeighborGraph {
    /// An empty graph for a cloud of `n` points, to be filled row by row.
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds `u32::MAX`: the indices are stored as
    /// `u32`, below the padding value.
    pub(crate) fn for_points(n: usize) -> Self {
        assert!(n <= NO_ENTRY as usize, "neighbour graph indices are u32");
        NeighborGraph { entries: Vec::with_capacity(n * GRAPH_K), bounds: Vec::with_capacity(n) }
    }

    /// Appends the next point from its canonical row at `radius` (the
    /// row of point [`NeighborGraph::len`]).
    pub(crate) fn push_row(&mut self, row: &[Neighbor], radius: f64) {
        let kept = row.len().min(GRAPH_K);
        self.entries.extend(row[..kept].iter().map(|nb| nb.index as u32));
        self.entries.extend(std::iter::repeat_n(NO_ENTRY, GRAPH_K - kept));
        self.bounds.push(row.get(GRAPH_K).map_or(radius, Neighbor::distance));
    }

    /// Points covered.
    pub(crate) fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Point `p`'s stored neighbours, in row order.
    fn entries(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        self.entries[p * GRAPH_K..(p + 1) * GRAPH_K]
            .iter()
            .take_while(|&&j| j != NO_ENTRY)
            .map(|&j| j as usize)
    }

    /// `b(p)`: every point outside `p`'s stored entries lies at least
    /// this far from `p`.
    fn bound(&self, p: usize) -> f64 {
        self.bounds[p]
    }
}

/// One source point's certificate: the position it was last certified
/// at, by an exact 2-NN search or by the target's [`NeighborGraph`].
#[derive(Debug, Clone, Copy)]
struct Anchor {
    /// The moved position the certificate was made at.
    at: Vec3,
    /// Index of the nearest target point.
    nearest: usize,
    /// Distance from `at` to it.
    d1: f64,
    /// A lower bound on the distance from `at` to every other target
    /// point: the second-nearest distance after a search (∞ when the
    /// target has one point).
    d2: f64,
}

/// What [`Anchor::certify`] proved about a moved source point.
enum Verdict {
    /// Nothing: search.
    Search,
    /// The anchor still answers (tests (a), (b)).
    Anchor,
    /// The graph answers (test (c)); the anchor moves here.
    Graph(Anchor),
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

    /// Whether an exact NN search at `q` can be skipped: it provably
    /// returns `nearest` (or, for [`Verdict::Graph`], the new anchor's
    /// `nearest`), or nothing within `max_distance` (non-negative) — so
    /// that point's squared distance to `q` decides the correspondence
    /// exactly as the search's would. `target` is the searcher's cloud
    /// and `graph`, when given, its [`NeighborGraph`].
    ///
    /// With `δ = |q − at|`, `p1 = nearest` and `a = |q − p1|`, the
    /// triangle inequality bounds every target point `p` by
    /// `|at − p| − δ ≤ |q − p|`, and three tests run in order:
    ///
    /// * (a) `d1 − δ > max_distance` ⇒ every `|q − p| ≥ d1 − δ` is out
    ///   of range: no correspondence, whichever point is nearest;
    /// * (b) `a + δ < d2` ⇒ `|q − p1| < d2 − δ ≤ |q − p|` for every
    ///   other `p`: `p1` is the unique nearest point. Since
    ///   `a ≤ d1 + δ`, this is stronger than `d1 + 2δ < d2`;
    /// * (c) with `c*` the `(d², index)` minimum of `{p1} ∪ G(p1)` at
    ///   `q`, `|q − c*| + a < b(p1)` ⇒ every `x` outside the set has
    ///   `|q − x| ≥ |x − p1| − a ≥ b(p1) − a > |q − c*|`: `c*` beats
    ///   every outside point strictly, and inside the set the search's
    ///   own order picked it. The anchor moves to `q` with
    ///   `nearest = c*`, `d1 = |q − c*|` and `d2` the smaller of the
    ///   set's second-best distance and `b(p1) − a` — a lower bound on
    ///   every other point's distance, with the subtraction's rounding
    ///   pushed downward by the slack.
    ///
    /// The search decides on *computed* squared distances, so each test
    /// carries a slack that covers rounding. For finite inputs and no
    /// underflow every computed quantity is within a few ulps
    /// *relative*: a squared distance `(dx·dx + dy·dy) + dz·dz` with
    /// `dx = fl(qx − px)` is five roundings of non-negative terms, so it
    /// is within `(1 + ε)⁵` of the true value (`ε = 2⁻⁵³`) however large
    /// the coordinates are; `sqrt` (for `d1`, `d2`, `a`, `b`) and `norm`
    /// (for `δ`) add at most another ulp or two, and so do the sums and
    /// products of the tests themselves. Every quantity a test compares
    /// is a sum of non-negative terms, so no cancellation amplifies these
    /// errors, and a relative slack of [`REL_SLACK`] (≈ 9000 ε) on each
    /// side leaves a margin of hundreds of times the total rounding:
    /// when a test passes, the computed `d²(q, answer)` is strictly below
    /// every computed `d²(q, p)` outside the set the test compared
    /// exactly (so index tie-breaks never matter outside it), or every
    /// computed `d²(q, p)` exceeds the computed `max_distance²`.
    /// Underflowing products add absolute errors below `10⁻³²³` in `d²`,
    /// i.e. below `10⁻¹⁶¹` in distance; [`ABS_SLACK`] covers them.
    /// Non-finite or NaN values fail every test and fall back to a
    /// search.
    fn certify(
        &self,
        q: Vec3,
        max_distance: f64,
        target: &[Vec3],
        graph: Option<&NeighborGraph>,
    ) -> Verdict {
        let delta = (q - self.at).norm();
        if self.d1 * (1.0 - REL_SLACK) > (delta + max_distance) * (1.0 + REL_SLACK) + ABS_SLACK {
            return Verdict::Anchor;
        }
        if self.d1.is_nan() {
            // No certificate yet: `nearest` names no point.
            return Verdict::Search;
        }
        let p1 = self.nearest;
        let a2 = q.distance_squared(target[p1]);
        let a = a2.sqrt();
        if (a + delta) * (1.0 + REL_SLACK) + ABS_SLACK < self.d2 * (1.0 - REL_SLACK) {
            return Verdict::Anchor;
        }
        let Some(graph) = graph else { return Verdict::Search };
        let mut best = Neighbor::new(p1, a2);
        let mut second_d2 = f64::INFINITY;
        for j in graph.entries(p1).filter(|&j| j != p1) {
            let n = Neighbor::new(j, q.distance_squared(target[j]));
            if n < best {
                second_d2 = best.distance_squared;
                best = n;
            } else if n.distance_squared < second_d2 {
                second_d2 = n.distance_squared;
            }
        }
        let b = graph.bound(p1);
        let d1 = best.distance();
        if (d1 + a) * (1.0 + REL_SLACK) + ABS_SLACK < b * (1.0 - REL_SLACK) {
            let outside = b * (1.0 - REL_SLACK) - a * (1.0 + REL_SLACK) - ABS_SLACK;
            Verdict::Graph(Anchor {
                at: q,
                nearest: best.index,
                d1,
                d2: second_d2.sqrt().min(outside),
            })
        } else {
            Verdict::Search
        }
    }
}

/// How one [`RpceCache::rpce_into`] call answered its points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RpceCounts {
    /// Points answered by an exact search.
    pub searched: usize,
    /// Points whose anchor still answered (tests (a), (b)).
    pub anchor_reused: usize,
    /// Points the target's neighbour graph answered (test (c)).
    pub graph_reused: usize,
}

/// [`rpce`] with certified correspondence reuse, owned by one ICP run.
///
/// Each source point keeps an [`Anchor`] from its last certificate;
/// while [`Anchor::certify`] proves the point's moved position answered,
/// the NN query is skipped and the pair is rebuilt from the anchor, with
/// its squared distance recomputed in the search kernels' exact
/// association. Output is bit-identical to [`rpce`]. Reuse needs a
/// searcher whose skipped queries nobody observes
/// ([`Searcher3::queries_skippable`]: exact stateless backend, no
/// injection, no query log); any other searcher gets plain [`rpce`], so
/// approximate leader books, accelerator models, injected errors and
/// replay logs see exactly the query stream they always did.
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
    /// same points on every call; `graph`, when given, must be that
    /// cloud's [`NeighborGraph`].
    ///
    /// # Panics
    ///
    /// Panics when `graph` covers a different number of points.
    pub(crate) fn rpce_into(
        &mut self,
        source_points: &[Vec3],
        target_searcher: &mut Searcher3,
        graph: Option<&NeighborGraph>,
        max_distance: f64,
        out: &mut Vec<Correspondence>,
    ) -> RpceCounts {
        out.clear();
        if !target_searcher.queries_skippable() {
            self.anchors.clear();
            out.extend(rpce(source_points, target_searcher, max_distance));
            return RpceCounts { searched: source_points.len(), ..RpceCounts::default() };
        }
        if self.anchors.len() != source_points.len() {
            self.anchors.clear();
            self.anchors.resize(source_points.len(), Anchor::NONE);
        }
        // `rpce` keeps pairs with d² ≤ max_distance², i.e. within |max_distance|.
        let reach = max_distance.abs();
        let target = target_searcher.points();
        if let Some(graph) = graph {
            assert_eq!(graph.len(), target.len(), "a neighbour graph of another cloud");
        }
        let mut counts = RpceCounts::default();
        self.pending.clear();
        self.queries.clear();
        for (i, (&q, anchor)) in source_points.iter().zip(&mut self.anchors).enumerate() {
            match anchor.certify(q, reach, target, graph) {
                Verdict::Anchor => counts.anchor_reused += 1,
                Verdict::Graph(moved) => {
                    *anchor = moved;
                    counts.graph_reused += 1;
                }
                Verdict::Search => {
                    self.pending.push(i as u32);
                    self.queries.push(q);
                }
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
                // Certified: the anchor's nearest is the nearest, or
                // nothing is in range and its d² fails the test below
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
        counts.searched = self.pending.len();
        counts
    }
}

/// The neighbour graph a front-end pass at `radius` harvests, built from
/// brute-force canonical `(d², index)` rows.
#[cfg(test)]
pub(crate) fn brute_force_graph(points: &[Vec3], radius: f64) -> NeighborGraph {
    let mut graph = NeighborGraph::for_points(points.len());
    for &p in points {
        let mut row: Vec<Neighbor> = points
            .iter()
            .enumerate()
            .map(|(j, &x)| Neighbor::new(j, p.distance_squared(x)))
            .filter(|n| n.distance_squared <= radius * radius)
            .collect();
        row.sort();
        graph.push_row(&row, radius);
    }
    graph
}

#[cfg(test)]
impl NeighborGraph {
    /// Point `p`'s stored neighbours and the bits of `b(p)`.
    pub(crate) fn row(&self, p: usize) -> (Vec<usize>, u64) {
        (self.entries(p).collect(), self.bound(p).to_bits())
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
        let nudged: Vec<Vec3> = source.iter().map(|&p| p + Vec3::new(0.01, 0.0, 0.0)).collect();
        let graph = brute_force_graph(&target, 2.0);
        // Without a graph the tied point is searched every call; with
        // one, both tied points are in its set, whose exact
        // `(d², index)` order settles the tie, so it is certified too.
        for (graph, searches) in [(None, [4, 1, 1]), (Some(&graph), [4, 0, 0])] {
            let mut plain = Searcher3::classic(&target);
            let mut cached = Searcher3::classic(&target);
            let mut cache = RpceCache::default();
            let mut out = Vec::new();
            // First call: nothing to reuse. Second: unmoved. Third: a
            // small step keeps the unique answers certified.
            for (points, want) in [&source, &source, &nudged].into_iter().zip(searches) {
                let counts = cache.rpce_into(points, &mut cached, graph, 0.6, &mut out);
                assert_eq!(counts.searched, want);
                assert_eq!(counts.searched + counts.anchor_reused + counts.graph_reused, 4);
                assert_eq!(pair_bits(&out), pair_bits(&rpce(points, &mut plain, 0.6)));
            }
            assert_eq!(cached.stats().queries, searches.iter().sum::<usize>() as u64);
        }
    }

    #[test]
    fn graph_certifies_a_slide_to_a_neighbour() {
        // A source point walks along a lattice of targets in small steps:
        // its nearest target changes every few steps, which the anchor
        // alone cannot certify but the graph can.
        let target: Vec<Vec3> = (0..10).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        let graph = brute_force_graph(&target, 1.5);
        let mut plain = Searcher3::classic(&target);
        let mut cached = Searcher3::classic(&target);
        let mut cache = RpceCache::default();
        let mut out = Vec::new();
        let mut total = RpceCounts::default();
        for step in 0..40 {
            let source = [Vec3::new(1.1 + step as f64 * 0.15, 0.2, 0.0)];
            let counts = cache.rpce_into(&source, &mut cached, Some(&graph), 2.0, &mut out);
            assert_eq!(pair_bits(&out), pair_bits(&rpce(&source, &mut plain, 2.0)));
            total.searched += counts.searched;
            total.anchor_reused += counts.anchor_reused;
            total.graph_reused += counts.graph_reused;
        }
        assert_eq!(cached.stats().queries, total.searched as u64);
        assert_eq!(total.searched, 1, "{total:?}");
        assert!(total.graph_reused > 0 && total.anchor_reused > 0, "{total:?}");
    }

    #[test]
    fn cached_rpce_takes_the_full_path_for_observed_searchers() {
        let target: Vec<Vec3> = (0..10).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        let source = vec![Vec3::new(0.1, 0.0, 0.0), Vec3::new(4.2, 0.1, 0.0)];
        let graph = brute_force_graph(&target, 2.0);
        let mut logged = Searcher3::classic(&target);
        logged.enable_query_logging();
        let mut injected = Searcher3::classic(&target);
        injected.set_injection(Some(crate::search::Injection::NnKth(2)));
        let mut approx = Searcher3::two_stage_approx(&target, 2, Default::default());
        for searcher in [&mut logged, &mut injected, &mut approx] {
            let mut cache = RpceCache::default();
            let mut out = Vec::new();
            for _ in 0..3 {
                let counts = cache.rpce_into(&source, searcher, Some(&graph), 1.0, &mut out);
                assert_eq!(counts.searched, source.len());
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

    /// A denser lattice, so rows longer than the graph keeps (and ties
    /// at its cut) occur at the proptests' radii.
    fn dense_lattice_point() -> impl Strategy<Value = Vec3> {
        (0i32..5, 0i32..5, 0i32..3)
            .prop_map(|(x, y, z)| Vec3::new(x as f64 * 0.25, y as f64 * 0.25, z as f64 * 0.25))
    }

    /// A target cloud: sparse, dense, or a single point.
    fn target_cloud() -> impl Strategy<Value = Vec<Vec3>> {
        prop_oneof![
            3 => prop::collection::vec(lattice_point(), 2..40),
            2 => prop::collection::vec(dense_lattice_point(), 20..80),
            1 => prop::collection::vec(lattice_point(), 1..2),
        ]
    }

    /// The backend under test.
    fn build_searcher(backend: usize, pts: &[Vec3]) -> Searcher3 {
        match backend {
            0 => Searcher3::classic(pts),
            1 => Searcher3::two_stage(pts, 2),
            _ => Searcher3::brute_force(pts),
        }
    }

    /// `x` moved by `k` ulps.
    fn ulps(mut x: f64, k: i32) -> f64 {
        for _ in 0..k.unsigned_abs() {
            x = if k > 0 { x.next_up() } else { x.next_down() };
        }
        x
    }

    fn nudge(p: Vec3, k: (i32, i32, i32)) -> Vec3 {
        Vec3::new(ulps(p.x, k.0), ulps(p.y, k.1), ulps(p.z, k.2))
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
            target in target_cloud(),
            source in prop::collection::vec(lattice_point(), 0..30),
            steps in prop::collection::vec(small_step(), 1..12),
            jump_at in 0usize..12,
            jump in (-2.0f64..2.0, -2.0f64..2.0, -1.2f64..1.2),
            max_quarters in 1i32..5,
            graph_quarters in 0i32..5,
            backend in 0usize..3,
        ) {
            let max_distance = max_quarters as f64 * 0.25;
            // Quarter 0: no graph, the anchor tests alone.
            let graph =
                (graph_quarters > 0).then(|| brute_force_graph(&target, graph_quarters as f64 * 0.25));
            let mut plain = build_searcher(backend, &target);
            let mut cached = build_searcher(backend, &target);
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
                let counts =
                    cache.rpce_into(&moved, &mut cached, graph.as_ref(), max_distance, &mut out);
                prop_assert_eq!(
                    counts.searched + counts.anchor_reused + counts.graph_reused,
                    moved.len()
                );
                searches += counts.searched;
                let want = rpce(&moved, &mut plain, max_distance);
                prop_assert_eq!(pair_bits(&out), pair_bits(&want), "step {}", k);
            }
            prop_assert_eq!(cached.stats().queries, searches as u64);
        }
    }

    proptest! {
        // Near ties that rounding can tip are rare even among generated
        // near ties; the cases are cheap, so run many.
        #![proptest_config(ProptestConfig::with_cases(3000))]
        /// Each probe starts at `s0` and moves to `q`, built so one
        /// certificate's margin sits within a few ulps of zero:
        /// * kind 0: `s0` on the segment from target `i` to target `j`,
        ///   `q` at their midpoint, so `d2 − |q − p1| − δ ≈ 0` (test (b));
        /// * kind 1: `s0` at target `i`, `q` at `b(i) / 2` from it along
        ///   an axis, so `b(p1) − |q − p1| − |q − c*| ≈ 0` (test (c));
        /// * kind 2: `s0` at `max_distance` from target `i` along an
        ///   axis and `q` a few ulps from it, so `d1 − δ − max_distance ≈ 0`
        ///   (test (a));
        /// * kind 3: `s0` at target `i`, `q` at the midpoint of `i` and
        ///   the first point its graph left out, which sits at exactly
        ///   `b(i)`: test (c)'s margin is near zero against a tied
        ///   outside point.
        ///
        /// Every coordinate is nudged by up to ±3 ulps. A rigid motion
        /// with a non-dyadic angle takes the lattice off the binary grid,
        /// so the certificates' own rounding is in play.
        #[test]
        fn cached_rpce_is_bit_identical_at_ulp_near_ties(
            target in target_cloud(),
            angle in prop_oneof![1 => Just(0.0f64), 3 => -3.2f64..3.2],
            probes in prop::collection::vec(
                (0usize..4, any::<usize>(), any::<usize>(),
                 0usize..6, 0usize..3, (-3i32..4, -3i32..4, -3i32..4),
                 (-3i32..4, -3i32..4, -3i32..4)),
                1..24,
            ),
            max_quarters in 1i32..5,
            graph_quarters in 1i32..5,
            backend in 0usize..3,
        ) {
            let max_distance = max_quarters as f64 * 0.25;
            let motion = RigidTransform::from_axis_angle(Vec3::Z, angle, Vec3::new(angle, 0.3, 0.1));
            let target: Vec<Vec3> = target.iter().map(|&p| motion.apply(p)).collect();
            let graph = brute_force_graph(&target, graph_quarters as f64 * 0.25);
            let axes = [Vec3::X, Vec3::Y, Vec3::Z, -Vec3::X, -Vec3::Y, -Vec3::Z]
                .map(|u| motion.rotation * u);
            let (mut starts, mut ties) = (Vec::new(), Vec::new());
            for &(kind, i, j, axis, frac, k0, k1) in &probes {
                let (i, j) = (i % target.len(), j % target.len());
                let (ti, tj, u) = (target[i], target[j], axes[axis]);
                let (s0, q) = match kind {
                    0 => (ti + (tj - ti) * [0.0, 0.25, 0.375][frac], (ti + tj) * 0.5),
                    1 => (ti, ti + u * (f64::from_bits(graph.row(i).1) * 0.5)),
                    2 => {
                        let at = ti + u * max_distance;
                        (at, at)
                    }
                    _ => {
                        let mut row: Vec<Neighbor> = target
                            .iter()
                            .enumerate()
                            .map(|(j, &x)| Neighbor::new(j, ti.distance_squared(x)))
                            .collect();
                        row.sort();
                        let left_out = row.get(GRAPH_K).map_or(tj, |n| target[n.index]);
                        (ti, (ti + left_out) * 0.5)
                    }
                };
                starts.push(nudge(s0, k0));
                ties.push(nudge(q, k1));
            }
            let calls = [starts.clone(), ties.clone(), starts, ties];
            cached_matches_plain(backend, &target, &graph, max_distance, &calls)?;
        }

        /// Two constructions whose margins only rounding decides:
        /// * the graph re-anchors a source point at `c`, a graph entry
        ///   just inside `b(p1)` whose twin `x` — the first point the
        ///   graph left out — sits at exactly `b(p1)` in the same
        ///   direction; the next query lands within a few ulps of their
        ///   midpoint, where test (b)'s margin against the re-anchored
        ///   `d2 = b(p1) − |q − p1|` is near zero;
        /// * two isolated targets at `max_distance` from `edge`, queried
        ///   a few ulps from it: test (a)'s margin is near zero, and
        ///   which of the two is nearest, and in range, flips.
        ///
        /// A few ulps of a coordinate must be a few ulps of the margin,
        /// so one construction sits near the origin and the other 4–8 m
        /// away, chosen by `layout`.
        #[test]
        fn cached_rpce_is_bit_identical_at_constructed_near_ties(
            origin in (-2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0),
            dir in (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0),
            b in 0.3f64..1.0,
            gap in prop_oneof![Just(1e-11), Just(1e-10), Just(1e-9)],
            twin_first in any::<bool>(),
            max_distance in 0.2f64..1.0,
            layout in 0usize..3,
            nudges in prop::collection::vec((-4i32..5, -4i32..5, -4i32..5), 32),
            backend in 0usize..3,
        ) {
            let Some(u) = Vec3::new(dir.0, dir.1, dir.2).normalized() else { return Ok(()) };
            // Layout 0: the graph construction near the origin; 1 and 2:
            // the edge pair near it, along `u` or along the axes.
            let shift = |near: bool| if near { 0.0 } else { 6.0 };
            let o = Vec3::new(origin.0 + shift(layout == 0), origin.1, origin.2);
            let far = Vec3::new(origin.1, origin.2, origin.0) * 0.01
                - Vec3::new(shift(layout != 0), 0.0, 0.0);
            let (v, w) = if layout == 2 {
                (Vec3::X, Vec3::Y)
            } else {
                (u, u.cross(Vec3::Z).normalized().unwrap_or(Vec3::X))
            };
            // `o`, 14 fillers within 0.05 of it, then `c` and `x`: `o`'s
            // row keeps `c` as its 16th entry and leaves `x` out. The
            // edge pair stays more than the graph radius from `o`.
            let mut target = vec![o];
            target.extend((0..14).map(|i| {
                let f = |m: i32| ((i * m) % 5 - 2) as f64 * 0.01;
                o + Vec3::new(f(7), f(3), f(11))
            }));
            let (c, x) = (o + u * (b * (1.0 - gap)), o + u * b);
            target.extend(if twin_first { [x, c] } else { [c, x] });
            let edge = far + v * max_distance;
            target.extend([far, edge + w * max_distance]);
            let graph = brute_force_graph(&target, 1.5);
            let mid = (c + x) * 0.5;
            // Source 0 walks `o` → `c` → the midpoint twice; sources
            // 1..=8 each take their own nudges around `edge`.
            let walk = [o, nudge(c, nudges[0]), nudge(mid, nudges[1]), nudge(mid, nudges[2])];
            let calls: Vec<Vec<Vec3>> = (0..4)
                .map(|call| {
                    let probes = nudges.chunks(4).map(|k| nudge(edge, k[call]));
                    std::iter::once(walk[call]).chain(probes).collect()
                })
                .collect();
            cached_matches_plain(backend, &target, &graph, max_distance, &calls)?;
        }
    }

    /// Runs `calls` in order through one [`RpceCache`] with `graph` and
    /// through plain [`rpce`]: pair bits must agree on every call, and
    /// the searches the cache reports must be the ones the searcher
    /// counted.
    fn cached_matches_plain(
        backend: usize,
        target: &[Vec3],
        graph: &NeighborGraph,
        max_distance: f64,
        calls: &[Vec<Vec3>],
    ) -> Result<(), TestCaseError> {
        let mut plain = build_searcher(backend, target);
        let mut cached = build_searcher(backend, target);
        let mut cache = RpceCache::default();
        let mut out = Vec::new();
        let mut searches = 0;
        for (k, points) in calls.iter().enumerate() {
            let counts = cache.rpce_into(points, &mut cached, Some(graph), max_distance, &mut out);
            searches += counts.searched;
            let want = rpce(points, &mut plain, max_distance);
            prop_assert_eq!(pair_bits(&out), pair_bits(&want), "call {}", k);
        }
        prop_assert_eq!(cached.stats().queries, searches as u64);
        Ok(())
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
