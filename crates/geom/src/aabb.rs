//! Axis-aligned bounding boxes, the pruning primitive of KD-tree search.
//!
//! Every KD-tree sub-tree corresponds to a bounding box; a sub-tree can be
//! skipped when its box does not intersect the hypersphere around the query
//! (paper Sec. 4.1).

use crate::Vec3;

/// An axis-aligned bounding box in 3D.
///
/// # Example
///
/// ```
/// use tigris_geom::{Aabb, Vec3};
/// let b = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
/// assert!(b.contains(Vec3::splat(0.5)));
/// assert_eq!(b.distance_squared_to(Vec3::new(2.0, 0.5, 0.5)), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// Creates a box from its corners.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when any `min` component exceeds the matching
    /// `max` component.
    #[inline]
    pub fn new(min: Vec3, max: Vec3) -> Self {
        debug_assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "Aabb min must not exceed max"
        );
        Aabb { min, max }
    }

    /// An "empty" box that any point can extend: `min = +∞`, `max = -∞`.
    pub fn empty() -> Self {
        Aabb { min: Vec3::splat(f64::INFINITY), max: Vec3::splat(f64::NEG_INFINITY) }
    }

    /// The tightest box around a set of points, or `None` when the iterator
    /// is empty.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut b = Aabb { min: first, max: first };
        for p in it {
            b.extend(p);
        }
        Some(b)
    }

    /// Grows the box to include `p`.
    #[inline]
    pub fn extend(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Returns `true` when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Squared distance from `p` to the closest point of the box
    /// (0 when `p` is inside).
    ///
    /// This is the KD-tree pruning test: a sub-tree whose box satisfies
    /// `distance_squared_to(query) > d²` cannot contain any result closer
    /// than the current best distance `d`.
    #[inline]
    pub fn distance_squared_to(&self, p: Vec3) -> f64 {
        let mut d2 = 0.0;
        for a in 0..3 {
            let v = p.axis(a);
            let lo = self.min.axis(a);
            let hi = self.max.axis(a);
            let d = if v < lo {
                lo - v
            } else if v > hi {
                v - hi
            } else {
                0.0
            };
            d2 += d * d;
        }
        d2
    }

    /// Returns `true` when the sphere of radius `radius` centred at `center`
    /// intersects the box.
    #[inline]
    pub fn intersects_sphere(&self, center: Vec3, radius: f64) -> bool {
        self.distance_squared_to(center) <= radius * radius
    }

    /// Centre of the box.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Edge lengths of the box.
    #[inline]
    pub fn extents(&self) -> Vec3 {
        self.max - self.min
    }

    /// The axis with the largest extent (0, 1 or 2) — the classic KD-tree
    /// split-axis heuristic.
    pub fn longest_axis(&self) -> usize {
        let e = self.extents();
        if e.x >= e.y && e.x >= e.z {
            0
        } else if e.y >= e.z {
            1
        } else {
            2
        }
    }

    /// Splits the box along `axis` at coordinate `value`, producing the
    /// (low, high) halves.
    pub fn split(&self, axis: usize, value: f64) -> (Aabb, Aabb) {
        let mut lo = *self;
        let mut hi = *self;
        lo.max[axis] = value;
        hi.min[axis] = value;
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_points_is_tight() {
        let pts = [Vec3::new(1.0, 5.0, -2.0), Vec3::new(-1.0, 2.0, 0.0), Vec3::new(0.0, 7.0, 3.0)];
        let b = Aabb::from_points(pts).unwrap();
        assert_eq!(b.min, Vec3::new(-1.0, 2.0, -2.0));
        assert_eq!(b.max, Vec3::new(1.0, 7.0, 3.0));
        assert!(Aabb::from_points(std::iter::empty()).is_none());
    }

    #[test]
    fn contains_boundary_and_interior() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
        assert!(b.contains(Vec3::splat(1.0)));
        assert!(b.contains(Vec3::ZERO));
        assert!(b.contains(Vec3::splat(2.0)));
        assert!(!b.contains(Vec3::new(2.1, 1.0, 1.0)));
        assert!(!b.contains(Vec3::new(1.0, -0.1, 1.0)));
    }

    #[test]
    fn distance_inside_is_zero() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        assert_eq!(b.distance_squared_to(Vec3::splat(0.5)), 0.0);
    }

    #[test]
    fn distance_to_face_edge_corner() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        // Face.
        assert_eq!(b.distance_squared_to(Vec3::new(2.0, 0.5, 0.5)), 1.0);
        // Edge.
        assert_eq!(b.distance_squared_to(Vec3::new(2.0, 2.0, 0.5)), 2.0);
        // Corner.
        assert_eq!(b.distance_squared_to(Vec3::new(2.0, 2.0, 2.0)), 3.0);
    }

    #[test]
    fn sphere_intersection() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        assert!(b.intersects_sphere(Vec3::new(2.0, 0.5, 0.5), 1.0));
        assert!(!b.intersects_sphere(Vec3::new(2.0, 0.5, 0.5), 0.99));
        assert!(b.intersects_sphere(Vec3::splat(0.5), 0.01));
    }

    #[test]
    fn extend_grows() {
        let mut b = Aabb::empty();
        b.extend(Vec3::new(1.0, 1.0, 1.0));
        b.extend(Vec3::new(-1.0, 2.0, 0.0));
        assert_eq!(b.min, Vec3::new(-1.0, 1.0, 0.0));
        assert_eq!(b.max, Vec3::new(1.0, 2.0, 1.0));
    }

    #[test]
    fn geometry_accessors() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(4.0, 2.0, 1.0));
        assert_eq!(b.center(), Vec3::new(2.0, 1.0, 0.5));
        assert_eq!(b.extents(), Vec3::new(4.0, 2.0, 1.0));
        assert_eq!(b.longest_axis(), 0);
        assert_eq!(Aabb::new(Vec3::ZERO, Vec3::new(1.0, 3.0, 2.0)).longest_axis(), 1);
        assert_eq!(Aabb::new(Vec3::ZERO, Vec3::new(1.0, 2.0, 3.0)).longest_axis(), 2);
    }

    #[test]
    fn split_partitions() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
        let (lo, hi) = b.split(0, 0.5);
        assert_eq!(lo.max.x, 0.5);
        assert_eq!(hi.min.x, 0.5);
        assert_eq!(lo.min, b.min);
        assert_eq!(hi.max, b.max);
    }
}
