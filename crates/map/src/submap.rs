//! Pose-tagged submaps: the unit of map aggregation and rigid correction.
//!
//! A [`Submap`] owns the registered points of a contiguous stretch of
//! trajectory, stored in the *local frame of its anchor keyframe* behind
//! an incrementally insertable `DynamicMapIndex`. Keeping points local is
//! what makes pose-graph correction cheap: when loop closure moves the
//! anchor pose, the whole submap moves rigidly — no point is rewritten,
//! no index is rebuilt. Queries transform into each submap's frame on the
//! way in and back to world coordinates on the way out.

use std::sync::{Arc, Mutex};

use tigris_core::DynamicMapIndex;
use tigris_geom::{Aabb, RigidTransform, Vec3};
use tigris_pipeline::descriptor::Descriptors;
use tigris_pipeline::PreparedFrame;

/// Sorts map-query results into the canonical order every map consumer
/// shares: ascending by `(distance, submap, index)`. `Mapper::query`
/// and the serving layer's tile-routed `query`/`query_batch` all sort
/// through this one function, so the "served epoch answers exactly like
/// the mapper it was published from" guarantee is structural, not a
/// pair of hand-copied comparators kept in sync.
pub fn sort_map_neighbors(neighbors: &mut [MapNeighbor]) {
    neighbors.sort_by(|a, b| {
        a.distance_squared
            .total_cmp(&b.distance_squared)
            .then(a.submap.cmp(&b.submap))
            .then(a.index.cmp(&b.index))
    });
}

/// One world-frame neighbor returned by a map query, tagged with the
/// submap that holds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapNeighbor {
    /// Id of the submap the point lives in.
    pub submap: usize,
    /// Index of the point inside that submap's index.
    pub index: usize,
    /// The point, in world coordinates (under the submap's current anchor
    /// pose).
    pub point: Vec3,
    /// Squared distance to the query point.
    pub distance_squared: f64,
}

/// A pose-tagged chunk of the global map.
///
/// Built and owned by the [`crate::Mapper`]; read access is public so
/// consumers can inspect the map's structure.
pub struct Submap {
    id: usize,
    anchor_frame: usize,
    anchor_pose: RigidTransform,
    index: DynamicMapIndex,
    bounds: Option<Aabb>,
    descriptor: Vec<f64>,
    descriptor_frames: usize,
    frames: Vec<usize>,
    travel: f64,
    /// The anchor frame's full preparation, retired out of the odometer —
    /// the geometric-verification target for loop closures against this
    /// submap. `None` until the anchor frame retires (and permanently for
    /// a submap whose anchor was displaced by a matching failure).
    ///
    /// Shared `Arc<Mutex<_>>` so serving epochs can reference the same
    /// preparation the live mapper keeps verifying closures against
    /// (`PreparedFrame` is not `Clone` — its searcher meters itself and
    /// therefore needs `&mut` behind a lock).
    keyframe: Option<Arc<Mutex<PreparedFrame>>>,
    /// Content revision: bumped whenever the submap's *payload* changes
    /// (points, signature or keyframe — not the anchor pose, which moves
    /// the submap rigidly without rewriting it). Copy-on-write epoch
    /// publishing diffs on this to re-copy only changed submaps.
    revision: u64,
}

impl std::fmt::Debug for Submap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Submap")
            .field("id", &self.id)
            .field("anchor_frame", &self.anchor_frame)
            .field("points", &self.len())
            .field("frames", &self.frames.len())
            .field("travel", &self.travel)
            .field("has_keyframe", &self.keyframe.is_some())
            .finish()
    }
}

impl Submap {
    /// A fresh, empty submap anchored at `anchor_frame` with world pose
    /// `anchor_pose`.
    pub(crate) fn new(
        id: usize,
        anchor_frame: usize,
        anchor_pose: RigidTransform,
        fresh_capacity: usize,
    ) -> Self {
        Submap {
            id,
            anchor_frame,
            anchor_pose,
            index: DynamicMapIndex::with_fresh_capacity(fresh_capacity),
            bounds: None,
            descriptor: Vec::new(),
            descriptor_frames: 0,
            frames: Vec::new(),
            travel: 0.0,
            keyframe: None,
            revision: 0,
        }
    }

    /// This submap's id (its position in [`crate::Mapper::submaps`]).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Trajectory index of the anchor keyframe.
    pub fn anchor_frame(&self) -> usize {
        self.anchor_frame
    }

    /// Current world pose of the anchor keyframe (updated by pose-graph
    /// optimization; the submap's points ride on it rigidly).
    pub fn anchor_pose(&self) -> &RigidTransform {
        &self.anchor_pose
    }

    pub(crate) fn set_anchor_pose(&mut self, pose: RigidTransform) {
        self.anchor_pose = pose;
    }

    /// Points aggregated into this submap.
    pub fn len(&self) -> usize {
        self.index.all_points().len()
    }

    /// `true` when no frame has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.index.all_points().is_empty()
    }

    /// Trajectory indices of the frames merged into this submap.
    pub fn frames(&self) -> &[usize] {
        &self.frames
    }

    /// Distance traveled inside this submap so far (meters) — the spawn
    /// trigger the mapper watches.
    pub fn travel(&self) -> f64 {
        self.travel
    }

    pub(crate) fn add_travel(&mut self, meters: f64) {
        self.travel += meters;
    }

    /// Mean key-point descriptor over the submap's frames — its signature
    /// in the KPCE feature space, used for loop-closure retrieval. Empty
    /// until a frame with descriptors is inserted.
    pub fn descriptor(&self) -> &[f64] {
        &self.descriptor
    }

    /// Whether the anchor keyframe's preparation has been retired into
    /// this submap (a submap without it cannot verify loop closures).
    pub fn has_keyframe(&self) -> bool {
        self.keyframe.is_some()
    }

    /// The stored keyframe preparation, shared. Epoch publishers clone
    /// the `Arc` so a serving epoch verifies against the very same
    /// preparation the live mapper keeps using; both sides lock per
    /// verification.
    pub fn keyframe(&self) -> Option<&Arc<Mutex<PreparedFrame>>> {
        self.keyframe.as_ref()
    }

    /// Stores the anchor frame's retired preparation (a content change:
    /// the submap becomes verifiable).
    pub(crate) fn set_keyframe(&mut self, keyframe: PreparedFrame) {
        self.keyframe = Some(Arc::new(Mutex::new(keyframe)));
        self.revision += 1;
    }

    /// Content revision: bumped on every payload change (frame insert,
    /// descriptor absorb, keyframe attach) but *not* on anchor-pose
    /// corrections. Two reads of the same submap with equal revisions
    /// hold identical points, signature and keyframe, so copy-on-write
    /// epoch publishing shares unchanged submaps by revision equality.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Overrides the submap's signature — test-only hook for driving the
    /// retrieval machinery with hand-built descriptor populations.
    #[cfg(test)]
    pub(crate) fn set_descriptor_for_test(&mut self, descriptor: Vec<f64>) {
        self.descriptor = descriptor;
    }

    /// The submap's bounding box in its local (anchor) frame, or `None`
    /// while empty.
    pub fn local_bounds(&self) -> Option<&Aabb> {
        self.bounds.as_ref()
    }

    /// The world-frame bounding box of the submap under its current
    /// anchor pose: the axis-aligned box of the local box's eight rotated
    /// corners. A superset of the points' true world AABB, which makes it
    /// a *conservative* spatial-routing bound — any query sphere that
    /// could reach a point of this submap intersects this box.
    pub fn world_bounds(&self) -> Option<Aabb> {
        Some(self.bounds.as_ref()?.transformed(&self.anchor_pose))
    }

    /// Heap bytes of the submap's *point payload*: the dynamic index plus
    /// the signature and frame list. The stored keyframe is deliberately
    /// excluded — it is `Arc`-shared with the mapper/epoch and not freed
    /// by tile eviction, so charging it to a tile would make the
    /// residency budget double-count memory eviction cannot reclaim.
    pub fn memory_bytes(&self) -> usize {
        self.index.memory_bytes()
            + self.descriptor.capacity() * std::mem::size_of::<f64>()
            + self.frames.capacity() * std::mem::size_of::<usize>()
    }

    /// The underlying dynamic index (points in the anchor-local frame).
    pub fn index(&self) -> &DynamicMapIndex {
        &self.index
    }

    /// Inserts a registered frame: `points` are the frame's (prepared,
    /// downsampled) sensor-frame points, `local` maps them into this
    /// submap's anchor frame.
    pub(crate) fn insert_frame(&mut self, frame: usize, points: &[Vec3], local: &RigidTransform) {
        let transformed: Vec<Vec3> = points.iter().map(|&p| local.apply(p)).collect();
        for &p in &transformed {
            match &mut self.bounds {
                Some(b) => b.extend(p),
                None => self.bounds = Aabb::from_points([p]),
            }
        }
        self.index.extend(&transformed);
        self.frames.push(frame);
        self.revision += 1;
    }

    /// Folds one frame's key-point descriptors into the submap's running
    /// mean signature.
    pub(crate) fn absorb_descriptors(&mut self, descriptors: &Descriptors) {
        let Some(mean) = descriptor_mean(descriptors) else {
            return;
        };
        if self.descriptor.is_empty() {
            self.descriptor = mean;
        } else if self.descriptor.len() == mean.len() {
            let k = self.descriptor_frames as f64;
            for (acc, v) in self.descriptor.iter_mut().zip(&mean) {
                *acc = (*acc * k + v) / (k + 1.0);
            }
        }
        self.descriptor_frames += 1;
        self.revision += 1;
    }

    /// All points within `radius` of the world-frame `point`, as
    /// world-frame [`MapNeighbor`]s. Returns nothing without touching the
    /// index when the query sphere misses the submap's bounds, when
    /// `radius` is not `>= 0` (negative or NaN: a sphere with no
    /// interior), or when `point` has a NaN or infinite coordinate.
    pub fn query(&self, point: Vec3, radius: f64) -> Vec<MapNeighbor> {
        let Some(bounds) = &self.bounds else {
            return Vec::new();
        };
        if radius.is_nan() || radius < 0.0 || !point.is_finite() {
            return Vec::new();
        }
        let local_q = self.anchor_pose.inverse().apply(point);
        if !bounds.intersects_sphere(local_q, radius) {
            return Vec::new();
        }
        self.index
            .radius_query(local_q, radius)
            .into_iter()
            .map(|n| MapNeighbor {
                submap: self.id,
                index: n.index,
                point: self.anchor_pose.apply(self.index.all_points()[n.index]),
                distance_squared: n.distance_squared,
            })
            .collect()
    }

    /// The submap's points in world coordinates (under the current anchor
    /// pose).
    pub fn world_points(&self) -> Vec<Vec3> {
        self.index.all_points().iter().map(|&p| self.anchor_pose.apply(p)).collect()
    }
}

/// Column mean of a descriptor matrix, or `None` when it holds no rows —
/// a frame's (or submap's) *signature* in the KPCE feature space, the
/// quantity [`crate::retrieval::SignatureIndex`] ranks candidates by.
/// Public because the serving layer computes query-frame signatures with
/// it for cold-start relocalization.
pub fn descriptor_mean(descriptors: &Descriptors) -> Option<Vec<f64>> {
    let n = descriptors.len();
    if n == 0 || descriptors.dim == 0 {
        return None;
    }
    let mut mean = vec![0.0f64; descriptors.dim];
    for i in 0..n {
        for (acc, v) in mean.iter_mut().zip(descriptors.row(i)) {
            *acc += v;
        }
    }
    for acc in &mut mean {
        *acc /= n as f64;
    }
    Some(mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query_round_trip_through_the_anchor_pose() {
        // Anchor 10 m down the road, rotated 90°: local/world conversion
        // must be exact both ways.
        let anchor = RigidTransform::from_axis_angle(
            Vec3::Z,
            std::f64::consts::FRAC_PI_2,
            Vec3::new(10.0, 0.0, 0.0),
        );
        let mut submap = Submap::new(0, 0, anchor, 64);
        // A frame observed exactly at the anchor: local transform is I.
        let pts: Vec<Vec3> =
            (0..50).map(|i| Vec3::new((i % 10) as f64, (i / 10) as f64, 0.0)).collect();
        submap.insert_frame(0, &pts, &RigidTransform::IDENTITY);
        assert_eq!(submap.len(), 50);
        assert_eq!(submap.frames(), &[0]);

        // The world position of local (3, 2, 0) under the anchor.
        let world = anchor.apply(Vec3::new(3.0, 2.0, 0.0));
        let hits = submap.query(world, 0.25);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].distance_squared < 1e-18);
        assert!((hits[0].point - world).norm() < 1e-12);
        assert_eq!(hits[0].submap, 0);

        // Far away: bounds gate answers without searching.
        assert!(submap.query(Vec3::new(500.0, 0.0, 0.0), 1.0).is_empty());
    }

    #[test]
    fn anchor_update_moves_points_rigidly() {
        let mut submap = Submap::new(1, 3, RigidTransform::IDENTITY, 64);
        submap.insert_frame(3, &[Vec3::new(1.0, 0.0, 0.0)], &RigidTransform::IDENTITY);
        let before = submap.world_points()[0];
        assert_eq!(before, Vec3::new(1.0, 0.0, 0.0));
        // A pose-graph correction shifts the anchor by 2 m.
        submap.set_anchor_pose(RigidTransform::from_translation(Vec3::new(2.0, 0.0, 0.0)));
        let after = submap.world_points()[0];
        assert_eq!(after, Vec3::new(3.0, 0.0, 0.0));
        // And the query follows the new pose.
        assert_eq!(submap.query(after, 0.1).len(), 1);
        assert!(submap.query(before, 0.1).is_empty());
    }

    #[test]
    fn descriptor_mean_accumulates_across_frames() {
        let mut submap = Submap::new(0, 0, RigidTransform::IDENTITY, 64);
        assert!(submap.descriptor().is_empty());
        let d1 = Descriptors { dim: 2, data: vec![1.0, 3.0, 3.0, 5.0] }; // mean (2, 4)
        let d2 = Descriptors { dim: 2, data: vec![6.0, 0.0] }; // mean (6, 0)
        submap.absorb_descriptors(&d1);
        assert_eq!(submap.descriptor(), &[2.0, 4.0]);
        submap.absorb_descriptors(&d2);
        assert_eq!(submap.descriptor(), &[4.0, 2.0]);
        // Empty descriptor sets are ignored.
        submap.absorb_descriptors(&Descriptors { dim: 2, data: vec![] });
        assert_eq!(submap.descriptor(), &[4.0, 2.0]);
    }

    #[test]
    fn empty_submap_answers_empty() {
        let submap = Submap::new(0, 0, RigidTransform::IDENTITY, 64);
        assert!(submap.is_empty());
        assert!(submap.query(Vec3::ZERO, 10.0).is_empty());
        assert!(submap.local_bounds().is_none());
        assert!(submap.world_bounds().is_none());
        assert!(!submap.has_keyframe());
        assert_eq!(submap.revision(), 0);
        assert_eq!(submap.memory_bytes(), 0);
    }

    #[test]
    fn revision_tracks_content_but_not_pose() {
        let mut submap = Submap::new(0, 0, RigidTransform::IDENTITY, 64);
        submap.insert_frame(0, &[Vec3::X, Vec3::Y], &RigidTransform::IDENTITY);
        assert_eq!(submap.revision(), 1);
        submap.absorb_descriptors(&Descriptors { dim: 2, data: vec![1.0, 2.0] });
        assert_eq!(submap.revision(), 2);
        // An empty descriptor set changes nothing — and bumps nothing.
        submap.absorb_descriptors(&Descriptors { dim: 2, data: vec![] });
        assert_eq!(submap.revision(), 2);
        // Pose-graph corrections move the submap rigidly: no payload
        // change, no revision bump.
        submap.set_anchor_pose(RigidTransform::from_translation(Vec3::Z));
        assert_eq!(submap.revision(), 2);
    }

    #[test]
    fn world_bounds_cover_the_points_under_any_anchor() {
        let anchor = RigidTransform::from_axis_angle(Vec3::Z, 0.7, Vec3::new(-4.0, 2.5, 1.0));
        let mut submap = Submap::new(0, 0, anchor, 64);
        let pts: Vec<Vec3> =
            (0..40).map(|i| Vec3::new((i % 8) as f64, (i / 8) as f64, 0.3 * i as f64)).collect();
        submap.insert_frame(0, &pts, &RigidTransform::IDENTITY);
        let world = submap.world_bounds().unwrap();
        for p in submap.world_points() {
            assert!(world.contains(p), "{p} outside world bounds");
        }
        // Moving the anchor moves the bounds with the points.
        submap.set_anchor_pose(RigidTransform::from_translation(Vec3::new(100.0, 0.0, 0.0)));
        let moved = submap.world_bounds().unwrap();
        for p in submap.world_points() {
            assert!(moved.contains(p), "{p} outside moved world bounds");
        }
        assert!(moved.min.x > world.max.x);
    }

    #[test]
    fn memory_bytes_grows_with_inserted_frames() {
        let mut submap = Submap::new(0, 0, RigidTransform::IDENTITY, 64);
        let mut last = 0;
        for f in 0..8 {
            let pts: Vec<Vec3> =
                (0..200).map(|i| Vec3::new(i as f64 * 0.1, f as f64, 0.0)).collect();
            submap.insert_frame(f, &pts, &RigidTransform::IDENTITY);
            let now = submap.memory_bytes();
            assert!(now > last, "accounting must grow with inserted frames");
            assert!(now >= submap.len() * std::mem::size_of::<Vec3>());
            last = now;
        }
    }
}
