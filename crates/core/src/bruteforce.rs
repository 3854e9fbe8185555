//! Brute-force reference searches.
//!
//! These are both the correctness oracle for every tree search in the test
//! suite and the primitive the two-stage KD-tree applies inside a leaf's
//! unordered set (paper Sec. 4.1: "the two-stage KD-tree enables exhaustive
//! searches in certain sub-trees").

use crate::kdtree::finite_indices;
use crate::soa::PointSoA;
use crate::{simd, Neighbor, SearchStats};
use tigris_geom::Vec3;

/// Exhaustive nearest-neighbor search over `points`, or `None` when empty.
///
/// Ties are broken toward the smaller index, matching the tree searches.
///
/// # Example
///
/// ```
/// use tigris_core::nn_brute_force;
/// use tigris_geom::Vec3;
/// let pts = [Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0)];
/// let n = nn_brute_force(&pts, Vec3::new(0.4, 0.0, 0.0)).unwrap();
/// assert_eq!(n.index, 0);
/// ```
pub fn nn_brute_force(points: &[Vec3], query: Vec3) -> Option<Neighbor> {
    let mut best: Option<Neighbor> = None;
    for (i, &p) in points.iter().enumerate() {
        let d2 = query.distance_squared(p);
        match best {
            Some(b) if d2 >= b.distance_squared => {}
            _ => best = Some(Neighbor::new(i, d2)),
        }
    }
    best
}

/// Exhaustive radius search: all points with distance ≤ `radius` from
/// `query`, sorted ascending by distance (ties by index).
///
/// # Panics
///
/// Panics when `radius` is negative.
pub fn radius_brute_force(points: &[Vec3], query: Vec3, radius: f64) -> Vec<Neighbor> {
    assert!(radius >= 0.0, "radius must be non-negative");
    let r2 = radius * radius;
    let mut out: Vec<Neighbor> = points
        .iter()
        .enumerate()
        .filter_map(|(i, &p)| {
            let d2 = query.distance_squared(p);
            (d2 <= r2).then(|| Neighbor::new(i, d2))
        })
        .collect();
    out.sort();
    out
}

/// An owning brute-force backend: the exhaustive-scan oracle as a
/// selectable index structure.
///
/// Brute force is the ground truth every tree search is validated
/// against; wrapping the point set in an owned type lets it plug into the
/// [`crate::index::SearchIndex`] seam (and hence the full registration
/// pipeline) like any other backend — the `"brute-force"` entry of the
/// backend registry.
///
/// Unlike the free functions above (which stay the plain scalar
/// reference), the owned index mirrors its points into a [`PointSoA`] and
/// serves queries through the [`crate::simd`] kernels — bit-identical
/// results, one full-width exhaustive scan per query. Like the trees, it
/// leaves points with a NaN or infinite coordinate out of the mirror, so
/// they are never returned.
///
/// # Example
///
/// ```
/// use tigris_core::index::SearchIndex;
/// use tigris_core::{BruteForceIndex, SearchStats};
/// use tigris_geom::Vec3;
///
/// let pts: Vec<Vec3> = (0..10).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
/// let mut index = BruteForceIndex::new(pts);
/// let mut stats = SearchStats::new();
/// let n = index.nn(Vec3::new(3.4, 0.0, 0.0), &mut stats).unwrap();
/// assert_eq!(n.index, 3);
/// assert_eq!(stats.leaf_points_scanned, 10); // every point scanned
/// ```
#[derive(Debug, Clone, Default)]
pub struct BruteForceIndex {
    points: Vec<Vec3>,
    soa: PointSoA,
    ids: Vec<u32>,
}

impl BruteForceIndex {
    /// Wraps a point set, taking ownership and building the SoA mirror
    /// of its finite points.
    pub fn new(points: Vec<Vec3>) -> Self {
        let ids = finite_indices(&points);
        let mut soa = PointSoA::with_capacity(ids.len());
        for &i in &ids {
            soa.push(points[i as usize]);
        }
        BruteForceIndex { points, soa, ids }
    }

    /// The indexed points.
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// Nearest neighbor by one full-width kernel scan, with visit
    /// accounting. Bit-identical to [`nn_brute_force`].
    pub fn nn_with_stats(&self, query: Vec3, stats: &mut SearchStats) -> Option<Neighbor> {
        stats.queries += 1;
        stats.leaf_points_scanned += self.ids.len() as u64;
        simd::nn_reduce(query, self.soa.view(), &self.ids)
            .map(|(d2, id)| Neighbor::new(id as usize, d2))
    }

    /// Exhaustive k-NN via the distance kernel, with visit accounting.
    /// Bit-identical to [`knn_brute_force`].
    pub fn knn_with_stats(&self, query: Vec3, k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        stats.queries += 1;
        stats.leaf_points_scanned += self.ids.len() as u64;
        let mut d2s = vec![0.0_f64; self.ids.len()];
        simd::squared_distances(query, self.soa.view(), &mut d2s);
        let mut all: Vec<Neighbor> =
            d2s.iter().zip(&self.ids).map(|(&d2, &id)| Neighbor::new(id as usize, d2)).collect();
        all.sort();
        all.truncate(k);
        all
    }

    /// Exhaustive radius search via the masked-compare kernel, with visit
    /// accounting. Bit-identical to [`radius_brute_force`].
    ///
    /// # Panics
    ///
    /// Panics when `radius` is negative.
    pub fn radius_with_stats(
        &self,
        query: Vec3,
        radius: f64,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        assert!(radius >= 0.0, "radius must be non-negative");
        stats.queries += 1;
        stats.leaf_points_scanned += self.ids.len() as u64;
        let mut out = Vec::new();
        simd::radius_collect(query, self.soa.view(), &self.ids, radius * radius, &mut out);
        out.sort();
        out
    }
}

/// Exhaustive k-nearest-neighbors, sorted ascending by distance.
///
/// Returns fewer than `k` results when `points` has fewer than `k` entries.
pub fn knn_brute_force(points: &[Vec3], query: Vec3, k: usize) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = points
        .iter()
        .enumerate()
        .map(|(i, &p)| Neighbor::new(i, query.distance_squared(p)))
        .collect();
    all.sort();
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<Vec3> {
        (0..27).map(|i| Vec3::new((i % 3) as f64, ((i / 3) % 3) as f64, (i / 9) as f64)).collect()
    }

    #[test]
    fn nn_finds_closest() {
        let pts = grid();
        let n = nn_brute_force(&pts, Vec3::new(1.1, 0.9, 0.1)).unwrap();
        assert_eq!(pts[n.index], Vec3::new(1.0, 1.0, 0.0));
    }

    #[test]
    fn nn_empty_is_none() {
        assert!(nn_brute_force(&[], Vec3::ZERO).is_none());
    }

    #[test]
    fn nn_tie_breaks_to_lower_index() {
        let pts = [Vec3::X, Vec3::X];
        assert_eq!(nn_brute_force(&pts, Vec3::ZERO).unwrap().index, 0);
    }

    #[test]
    fn radius_is_sound_and_complete() {
        let pts = grid();
        let r = 1.25;
        let res = radius_brute_force(&pts, Vec3::ZERO, r);
        // Sound: all results within radius.
        for n in &res {
            assert!(n.distance_squared <= r * r);
        }
        // Complete: 4 points within 1.25 of origin: (0,0,0),(1,0,0),(0,1,0),(0,0,1).
        assert_eq!(res.len(), 4);
        // Sorted ascending.
        for w in res.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn radius_zero_matches_exact_points() {
        let pts = grid();
        let res = radius_brute_force(&pts, Vec3::new(1.0, 1.0, 1.0), 0.0);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].distance_squared, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn radius_negative_panics() {
        radius_brute_force(&[], Vec3::ZERO, -1.0);
    }

    #[test]
    fn knn_returns_k_sorted() {
        let pts = grid();
        let res = knn_brute_force(&pts, Vec3::ZERO, 5);
        assert_eq!(res.len(), 5);
        for w in res.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(res[0].distance_squared, 0.0);
    }

    #[test]
    fn knn_with_small_set() {
        let pts = [Vec3::X];
        assert_eq!(knn_brute_force(&pts, Vec3::ZERO, 10).len(), 1);
        assert!(knn_brute_force(&[], Vec3::ZERO, 3).is_empty());
    }

    #[test]
    fn index_kernels_match_scalar_oracle_bitwise() {
        // The owned index serves through the SIMD kernels; the free
        // functions are the scalar reference. They must agree bit for bit.
        let pts = grid();
        let index = BruteForceIndex::new(pts.clone());
        let queries = [
            Vec3::ZERO,
            Vec3::new(1.1, 0.9, 0.1),
            Vec3::new(2.0, 2.0, 2.0),
            Vec3::new(-3.0, 0.5, 7.0),
        ];
        let mut stats = SearchStats::new();
        for q in queries {
            assert_eq!(index.nn_with_stats(q, &mut stats), nn_brute_force(&pts, q));
            for k in [1, 5, 30] {
                assert_eq!(index.knn_with_stats(q, k, &mut stats), knn_brute_force(&pts, q, k));
            }
            for r in [0.0, 1.25, 10.0] {
                assert_eq!(
                    index.radius_with_stats(q, r, &mut stats),
                    radius_brute_force(&pts, q, r)
                );
            }
        }
        assert_eq!(stats.leaf_points_scanned, 27 * stats.queries);
    }
}
