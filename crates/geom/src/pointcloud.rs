//! The point cloud container: a collection of 3D points, optionally with
//! per-point surface normals (paper Sec. 2.1).

use crate::{Aabb, RigidTransform, Vec3};

/// A point cloud: points in a 3D Cartesian frame, with optional per-point
/// normals attached by the normal-estimation stage.
///
/// # Example
///
/// ```
/// use tigris_geom::{PointCloud, RigidTransform, Vec3};
///
/// let mut cloud = PointCloud::from_points(vec![Vec3::ZERO, Vec3::X]);
/// let moved = cloud.transformed(&RigidTransform::from_translation(Vec3::Y));
/// assert_eq!(moved.points()[0], Vec3::Y);
/// assert_eq!(cloud.len(), 2);
/// cloud.push(Vec3::Z);
/// assert_eq!(cloud.len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointCloud {
    points: Vec<Vec3>,
    /// Parallel to `points` when present (set by normal estimation).
    normals: Option<Vec<Vec3>>,
}

impl PointCloud {
    /// Creates an empty cloud.
    pub fn new() -> Self {
        PointCloud::default()
    }

    /// Creates a cloud from points, without normals.
    pub fn from_points(points: Vec<Vec3>) -> Self {
        PointCloud { points, normals: None }
    }

    /// Creates a cloud with per-point normals.
    ///
    /// # Panics
    ///
    /// Panics when `normals.len() != points.len()`.
    pub fn with_normals(points: Vec<Vec3>, normals: Vec<Vec3>) -> Self {
        assert_eq!(points.len(), normals.len(), "normals must be parallel to points");
        PointCloud { points, normals: Some(normals) }
    }

    /// The points.
    #[inline]
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// The normals, when normal estimation has run.
    #[inline]
    pub fn normals(&self) -> Option<&[Vec3]> {
        self.normals.as_deref()
    }

    /// Attaches normals (parallel to the point array).
    ///
    /// # Panics
    ///
    /// Panics when lengths disagree.
    pub fn set_normals(&mut self, normals: Vec<Vec3>) {
        assert_eq!(self.points.len(), normals.len(), "normals must be parallel to points");
        self.normals = Some(normals);
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the cloud holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Appends a point (invalidates normals, which are no longer parallel).
    pub fn push(&mut self, p: Vec3) {
        self.points.push(p);
        self.normals = None;
    }

    /// Iterator over the points.
    pub fn iter(&self) -> std::slice::Iter<'_, Vec3> {
        self.points.iter()
    }

    /// The centroid, or `None` for an empty cloud.
    pub fn centroid(&self) -> Option<Vec3> {
        if self.points.is_empty() {
            return None;
        }
        let sum = self.points.iter().fold(Vec3::ZERO, |acc, &p| acc + p);
        Some(sum / self.points.len() as f64)
    }

    /// The tight bounding box, or `None` for an empty cloud.
    pub fn bounding_box(&self) -> Option<Aabb> {
        Aabb::from_points(self.points.iter().copied())
    }

    /// Applies a rigid transform in place: points get `R p + t`, normals (if
    /// any) get only the rotation.
    pub fn transform(&mut self, t: &RigidTransform) {
        for p in &mut self.points {
            *p = t.apply(*p);
        }
        if let Some(normals) = &mut self.normals {
            for n in normals {
                *n = t.apply_direction(*n);
            }
        }
    }

    /// Returns a transformed copy (paper's `S → S′` step).
    pub fn transformed(&self, t: &RigidTransform) -> PointCloud {
        let mut out = self.clone();
        out.transform(t);
        out
    }

    /// Returns a sub-cloud of the points at `indices` (normals carried along
    /// when present). Used to materialize key-point sets.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> PointCloud {
        let points = indices.iter().map(|&i| self.points[i]).collect();
        let normals = self.normals.as_ref().map(|ns| indices.iter().map(|&i| ns[i]).collect());
        PointCloud { points, normals }
    }

    /// Voxel-grid downsample: partitions space into cubes of edge
    /// `voxel_size` and keeps each occupied cube's point centroid.
    ///
    /// The standard pre-processing step for dense LiDAR frames; determinism
    /// is guaranteed by sorting voxels by their grid coordinates.
    ///
    /// # Panics
    ///
    /// Panics when `voxel_size` is not strictly positive.
    pub fn voxel_downsample(&self, voxel_size: f64) -> PointCloud {
        assert!(voxel_size > 0.0, "voxel size must be positive");
        use std::collections::HashMap;
        use std::hash::BuildHasherDefault;
        // Dense frames keep roughly one point in four; presizing to that
        // skips the early rehashes of a map grown from empty.
        let mut cells: HashMap<(i64, i64, i64), (Vec3, usize), BuildHasherDefault<CellHasher>> =
            HashMap::with_capacity_and_hasher(self.points.len() / 4, Default::default());
        for &p in &self.points {
            let key = (
                (p.x / voxel_size).floor() as i64,
                (p.y / voxel_size).floor() as i64,
                (p.z / voxel_size).floor() as i64,
            );
            let e = cells.entry(key).or_insert((Vec3::ZERO, 0));
            e.0 += p;
            e.1 += 1;
        }
        let mut entries: Vec<_> = cells.into_iter().collect();
        // Keys are unique, so the unstable sort's order is the stable one.
        entries.sort_unstable_by_key(|(k, _)| *k);
        let points = entries.into_iter().map(|(_, (sum, n))| sum / n as f64).collect();
        PointCloud::from_points(points)
    }
}

/// The voxel map's hasher: one multiply-rotate round per integer word
/// (the Fx hash). Voxel keys are small trusted integers, so SipHash's
/// flooding resistance buys nothing; output order never depends on the
/// hash because the cells are sorted by key.
#[derive(Default)]
struct CellHasher(u64);

impl std::hash::Hasher for CellHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_i64(&mut self, word: i64) {
        self.write_u64(word as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl FromIterator<Vec3> for PointCloud {
    fn from_iter<I: IntoIterator<Item = Vec3>>(iter: I) -> Self {
        PointCloud::from_points(iter.into_iter().collect())
    }
}

impl Extend<Vec3> for PointCloud {
    fn extend<I: IntoIterator<Item = Vec3>>(&mut self, iter: I) {
        self.points.extend(iter);
        self.normals = None;
    }
}

impl<'a> IntoIterator for &'a PointCloud {
    type Item = &'a Vec3;
    type IntoIter = std::slice::Iter<'a, Vec3>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mat3;

    fn sample_cloud() -> PointCloud {
        PointCloud::from_points(vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(0.0, 2.0, 0.0),
            Vec3::new(0.0, 0.0, 2.0),
        ])
    }

    #[test]
    fn construction_and_len() {
        let c = sample_cloud();
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert!(PointCloud::new().is_empty());
    }

    #[test]
    fn centroid_and_bbox() {
        let c = sample_cloud();
        assert_eq!(c.centroid().unwrap(), Vec3::splat(0.5));
        let b = c.bounding_box().unwrap();
        assert_eq!(b.min, Vec3::ZERO);
        assert_eq!(b.max, Vec3::splat(2.0));
        assert!(PointCloud::new().centroid().is_none());
        assert!(PointCloud::new().bounding_box().is_none());
    }

    #[test]
    fn transform_moves_points_and_rotates_normals() {
        let mut c = PointCloud::with_normals(vec![Vec3::X], vec![Vec3::Z]);
        let t = RigidTransform::new(
            Mat3::rotation_x(std::f64::consts::FRAC_PI_2),
            Vec3::new(0.0, 0.0, 5.0),
        );
        c.transform(&t);
        assert!((c.points()[0] - Vec3::new(1.0, 0.0, 5.0)).norm() < 1e-12);
        // Normal rotated (Z → -Y under +90° about X... actually Z→-Y? check:
        // rotation_x(π/2): Y→Z, Z→-Y) and NOT translated.
        assert!((c.normals().unwrap()[0] - Vec3::new(0.0, -1.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn transformed_leaves_original() {
        let c = sample_cloud();
        let t = RigidTransform::from_translation(Vec3::X);
        let moved = c.transformed(&t);
        assert_eq!(c.points()[0], Vec3::ZERO);
        assert_eq!(moved.points()[0], Vec3::X);
    }

    #[test]
    fn select_subsets() {
        let mut c = sample_cloud();
        c.set_normals(vec![Vec3::X, Vec3::Y, Vec3::Z, Vec3::X]);
        let s = c.select(&[1, 3]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.points()[0], Vec3::new(2.0, 0.0, 0.0));
        assert_eq!(s.normals().unwrap()[1], Vec3::X);
    }

    #[test]
    fn push_invalidates_normals() {
        let mut c = PointCloud::with_normals(vec![Vec3::X], vec![Vec3::Z]);
        c.push(Vec3::Y);
        assert!(c.normals().is_none());
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_normals_panic() {
        PointCloud::with_normals(vec![Vec3::X], vec![]);
    }

    #[test]
    fn voxel_downsample_merges_cells() {
        // Two clusters far apart; each collapses to its centroid.
        let c = PointCloud::from_points(vec![
            Vec3::new(0.01, 0.01, 0.01),
            Vec3::new(0.02, 0.02, 0.02),
            Vec3::new(10.0, 10.0, 10.0),
        ]);
        let d = c.voxel_downsample(1.0);
        assert_eq!(d.len(), 2);
        assert!((d.points()[0] - Vec3::splat(0.015)).norm() < 1e-12);
    }

    #[test]
    fn voxel_downsample_is_deterministic() {
        let c = sample_cloud();
        assert_eq!(c.voxel_downsample(0.5), c.voxel_downsample(0.5));
    }

    /// The downsample before its hasher and presizing changed, verbatim:
    /// SipHash into a map grown from empty, then a stable key sort.
    fn frozen_voxel_downsample(cloud: &PointCloud, voxel_size: f64) -> PointCloud {
        use std::collections::HashMap;
        let mut cells: HashMap<(i64, i64, i64), (Vec3, usize)> = HashMap::new();
        for &p in &cloud.points {
            let key = (
                (p.x / voxel_size).floor() as i64,
                (p.y / voxel_size).floor() as i64,
                (p.z / voxel_size).floor() as i64,
            );
            let e = cells.entry(key).or_insert((Vec3::ZERO, 0));
            e.0 += p;
            e.1 += 1;
        }
        let mut entries: Vec<_> = cells.into_iter().collect();
        entries.sort_by_key(|(k, _)| *k);
        let points = entries.into_iter().map(|(_, (sum, n))| sum / n as f64).collect();
        PointCloud::from_points(points)
    }

    /// `n` pseudo-random points in the cube `origin + [0, extent)³`.
    fn scattered(n: usize, origin: Vec3, extent: f64, seed: u64) -> PointCloud {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * extent
        };
        (0..n).map(|_| origin + Vec3::new(next(), next(), next())).collect()
    }

    #[test]
    fn voxel_downsample_is_bit_identical_to_the_frozen_copy() {
        let fixtures = [
            // Many points per cell: the per-cell sums' order matters.
            ("dense", scattered(20_000, Vec3::ZERO, 4.0, 1), 0.25),
            // Keys straddling zero: floor, not truncation, splits cells.
            ("negative", scattered(5_000, Vec3::new(-3.0, -3.0, -3.0), 6.0, 2), 0.5),
            // Far from the origin, where cell sums lose low bits.
            ("1e9 offset", scattered(5_000, Vec3::new(1e9, -1e9, 1e9), 10.0, 3), 0.3),
        ];
        for (what, cloud, voxel) in fixtures {
            let new = cloud.voxel_downsample(voxel);
            let old = frozen_voxel_downsample(&cloud, voxel);
            assert!(new.len() > 1 && new.len() < cloud.len(), "{what}: fixture must merge cells");
            assert_eq!(new.len(), old.len(), "{what}: cell count");
            for (i, (a, b)) in new.points().iter().zip(old.points()).enumerate() {
                assert!(
                    a.x.to_bits() == b.x.to_bits()
                        && a.y.to_bits() == b.y.to_bits()
                        && a.z.to_bits() == b.z.to_bits(),
                    "{what}: point {i} differs: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn voxel_downsample_rejects_zero_size() {
        sample_cloud().voxel_downsample(0.0);
    }

    #[test]
    fn iteration_and_collection() {
        let c: PointCloud = [Vec3::X, Vec3::Y].into_iter().collect();
        assert_eq!(c.len(), 2);
        let total: Vec3 = c.iter().fold(Vec3::ZERO, |a, &p| a + p);
        assert_eq!(total, Vec3::new(1.0, 1.0, 0.0));
        let mut c2 = c.clone();
        c2.extend([Vec3::Z]);
        assert_eq!(c2.len(), 3);
        let borrowed_sum: Vec3 = (&c).into_iter().fold(Vec3::ZERO, |a, &p| a + p);
        assert_eq!(borrowed_sum, total);
    }
}
