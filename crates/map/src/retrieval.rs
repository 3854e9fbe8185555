//! Submap candidate retrieval and geometric verification — the shared
//! revisit-recognition machinery.
//!
//! Two consumers drive the exact same pipeline over a set of submaps:
//!
//! * **Loop closure** ([`crate::Mapper`]): "have I been here before?"
//!   while *building* a map — candidates are gated additionally by the
//!   drift-estimated pose offset and travel-scaled deviation allowances
//!   (the mapper has a pose estimate to compare against).
//! * **Cold-start relocalization** (`tigris-serve`): "where am I?"
//!   against a *published* map — no odometry history exists, so only the
//!   geometry-vs-geometry gates apply.
//!
//! Both share the three stages this module owns:
//!
//! 1. **Signature retrieval** ([`SignatureIndex`]): rank candidate
//!    submaps by mean-descriptor distance in the KPCE feature space
//!    (a [`KdTreeN`] over submap signatures).
//! 2. **Geometric verification** ([`verify_geometry`]): register the
//!    query frame's [`PreparedFrame`] against the candidate submap's
//!    stored keyframe — no front-end stage reruns.
//! 3. **Structure-overlap consistency** ([`structure_overlap_batched`]): the
//!    anti-aliasing gate that rejects high-inlier false matches across
//!    self-similar structure by measuring how much of the frame's
//!    elevated geometry lands on stored submap structure under the
//!    verified transform.

use tigris_core::{BatchConfig, KdTreeN, Neighbor, SearchStats, SharedIndex};
use tigris_geom::{RigidTransform, Vec3};
use tigris_pipeline::{
    register_prepared_with_prior, PreparedFrame, RegistrationConfig, RegistrationResult,
};

use crate::submap::Submap;

/// Height above a candidate submap's *lowest point* (its local ground
/// level — frames are in sensor coordinates, so absolute z is
/// sensor-height-relative) from which a point counts as *structure* for
/// the overlap gate. Ground aligns under almost any in-plane transform,
/// so it carries no verification signal.
pub const OVERLAP_MIN_HEIGHT: f64 = 1.0;
/// A transformed structure point must land within this distance of a
/// stored submap point to count as overlapping (meters).
pub const OVERLAP_RADIUS: f64 = 0.7;
/// Minimum structure points for the overlap fraction to be meaningful; a
/// frame with fewer elevated points cannot be verified at all.
pub const OVERLAP_MIN_POINTS: usize = 30;

/// One ranked retrieval candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrievalHit {
    /// Id of the candidate submap.
    pub submap: usize,
    /// Distance between the query descriptor and the submap's signature
    /// in the KPCE feature space.
    pub distance: f64,
}

/// A feature-space index over submap signatures: the retrieval structure
/// both loop closure and relocalization rank candidates with.
///
/// The mapper rebuilds one per closure attempt over the frame's eligible
/// submaps (eligibility is pose- and recency-dependent); a published
/// serving epoch builds one once over every verifiable submap and shares it
/// across sessions ([`SignatureIndex`] queries take `&self`).
#[derive(Debug)]
pub struct SignatureIndex {
    /// Submap ids in index order (result indices map through this).
    ids: Vec<usize>,
    index: KdTreeN,
}

impl SignatureIndex {
    /// Builds the index over `eligible` (submap ids into `submaps`) using
    /// `dim`-dimensional signatures. Callers pre-filter eligibility —
    /// every listed submap's signature must have exactly `dim` entries.
    ///
    /// # Panics
    ///
    /// Panics when an eligible submap's signature dimension differs from
    /// `dim` (the caller's eligibility filter must have enforced it).
    pub fn build(submaps: &[Submap], eligible: &[usize], dim: usize) -> Self {
        SignatureIndex::from_signatures(
            eligible.iter().map(|&id| (id, submaps[id].descriptor())),
            dim,
        )
    }

    /// Builds the index from bare `(submap id, signature)` pairs — the
    /// form consumers that hold signatures outside a `Submap` use (the
    /// sharded serving layer's epochs keep compact payload archives, not
    /// live submaps). [`SignatureIndex::build`] delegates here, so both
    /// construction paths rank identically by construction.
    ///
    /// # Panics
    ///
    /// Panics when a signature's dimension differs from `dim`.
    pub fn from_signatures<'a, I>(entries: I, dim: usize) -> Self
    where
        I: IntoIterator<Item = (usize, &'a [f64])>,
    {
        let mut ids = Vec::new();
        let mut data = Vec::new();
        for (id, sig) in entries {
            assert_eq!(sig.len(), dim, "submap {id} signature dimension mismatch");
            ids.push(id);
            data.extend_from_slice(sig);
        }
        SignatureIndex { ids, index: KdTreeN::build(&data, dim) }
    }

    /// Number of indexed submap signatures.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no signature is indexed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The indexed submap ids, in index order.
    pub fn submap_ids(&self) -> &[usize] {
        &self.ids
    }

    /// Ranks candidate submaps by signature distance to `query`,
    /// dropping candidates farther than `max_distance`: the nearest
    /// signature when `candidates <= 1` and the two nearest at
    /// `candidates == 2` (the [`KdTreeN`]'s `nn`/`nn2` kernels — the
    /// mapper's loop-closure path); beyond two, an exhaustive ranking
    /// over all signatures, ascending by `(distance, index)` (candidate
    /// populations are submap-count-sized, so the scan is trivial next
    /// to one geometric verification — the serving layer's cold-start
    /// path, where trying more candidates buys recall).
    ///
    /// Returns hits best-first; `candidates == 0` returns nothing. At
    /// any budget, the hit list is a prefix of the same exhaustive
    /// ranking — budgets change how far down it verification looks,
    /// never the order.
    pub fn retrieve(
        &self,
        query: &[f64],
        candidates: usize,
        max_distance: f64,
    ) -> Vec<RetrievalHit> {
        if candidates == 0 || self.ids.is_empty() || query.len() != self.index.dim() {
            return Vec::new();
        }
        let hits = match candidates {
            1 => self.index.nn(query).into_iter().collect(),
            2 => self.index.nn2(query),
            _ => {
                let mut all: Vec<Neighbor> = (0..self.index.len())
                    .map(|i| {
                        let d2 = self
                            .index
                            .point(i)
                            .iter()
                            .zip(query)
                            .map(|(a, b)| (a - b) * (a - b))
                            .sum::<f64>();
                        Neighbor::new(i, d2)
                    })
                    .collect();
                all.sort();
                all.truncate(candidates);
                all
            }
        };
        hits.into_iter()
            .filter(|h| h.distance() <= max_distance)
            .map(|h| RetrievalHit { submap: self.ids[h.index], distance: h.distance() })
            .collect()
    }
}

/// Registers `current` against a candidate submap's stored `keyframe`
/// under `cfg` — the geometric half of revisit verification. No prior is
/// applied (a revisit's relative pose is unconstrained by the stream) and
/// no front-end stage reruns: both frames' artifacts are reused as-is.
///
/// Returns `None` when the pair fails to match (starvation, mismatched
/// preparation): for retrieval purposes a failed match simply means "not
/// this candidate".
pub fn verify_geometry(
    current: &mut PreparedFrame,
    keyframe: &mut PreparedFrame,
    cfg: &RegistrationConfig,
) -> Option<RegistrationResult> {
    register_prepared_with_prior(current, keyframe, cfg, None).ok()
}

/// Fraction of the frame's *structure* points (local height ≥
/// [`OVERLAP_MIN_HEIGHT`] once placed into the submap's frame by
/// `relative`) that land within [`OVERLAP_RADIUS`] of a stored submap
/// point. Returns 0 when the frame offers fewer than
/// [`OVERLAP_MIN_POINTS`] structure points (unverifiable), or when the
/// submap is empty.
///
/// This is the decisive anti-aliasing gate: a genuine revisit re-observes
/// the same walls, poles and clutter, so the fraction is high; a false
/// match across self-similar structure (opposite arcs of a ring road,
/// mirrored corridors) aligns only the generic ground/corridor geometry —
/// away from the match center the walls curve apart and the fraction
/// collapses. Odometry drift cannot fool it: it compares geometry to
/// geometry and never consults pose estimates.
///
/// The per-point NN lookups run through the submap index's shared
/// read-only batch path under `cfg`; the index is exact and per-query
/// answers are independent, so the fraction is bit-identical at any
/// thread count.
pub fn structure_overlap_batched(
    points: &[Vec3],
    relative: &RigidTransform,
    submap: &Submap,
    cfg: &BatchConfig,
) -> f64 {
    let Some(bounds) = submap.local_bounds() else {
        return 0.0;
    };
    structure_overlap_indexed(points, relative, submap.index(), bounds, cfg)
}

/// [`structure_overlap_batched`] over a bare index and its local bounds
/// instead of a [`Submap`] — the form consumers that rebuilt the index
/// from an archived payload use (the sharded serving layer's resident
/// indexes). [`structure_overlap_batched`] delegates here, so the two entry
/// points cannot drift.
pub fn structure_overlap_indexed(
    points: &[Vec3],
    relative: &RigidTransform,
    index: &tigris_core::DynamicMapIndex,
    bounds: &tigris_geom::Aabb,
    cfg: &BatchConfig,
) -> f64 {
    let structure_floor = bounds.min.z + OVERLAP_MIN_HEIGHT;
    let transformed: Vec<Vec3> = points
        .iter()
        .map(|&p| relative.apply(p))
        .filter(|local| local.z >= structure_floor)
        .collect();
    if transformed.len() < OVERLAP_MIN_POINTS {
        return 0.0;
    }
    let mut stats = SearchStats::new();
    let answers = index.nn_batch_shared(&transformed, cfg, &mut stats);
    let hits = answers
        .iter()
        .filter(|n| matches!(n, Some(n) if n.distance_squared <= OVERLAP_RADIUS * OVERLAP_RADIUS))
        .count();
    hits as f64 / transformed.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigris_pipeline::prepare_frame;

    use tigris_geom::PointCloud;

    /// A submap with a hand-set signature, for retrieval-order tests.
    fn signed_submap(id: usize, signature: &[f64]) -> Submap {
        let mut s = Submap::new(id, id, RigidTransform::IDENTITY, 64);
        s.set_descriptor_for_test(signature.to_vec());
        s
    }

    #[test]
    fn retrieval_ranks_by_signature_distance() {
        let submaps = vec![
            signed_submap(0, &[0.0, 0.0]),
            signed_submap(1, &[10.0, 0.0]),
            signed_submap(2, &[3.0, 0.0]),
            signed_submap(3, &[100.0, 0.0]),
        ];
        let eligible = vec![0, 1, 2, 3];
        let index = SignatureIndex::build(&submaps, &eligible, 2);
        assert_eq!(index.len(), 4);

        // Two-nearest retrieval, best first.
        let hits = index.retrieve(&[2.0, 0.0], 2, f64::INFINITY);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].submap, 2);
        assert_eq!(hits[1].submap, 0);
        assert!(hits[0].distance <= hits[1].distance);

        // Single-candidate retrieval returns only the nearest.
        let hits = index.retrieve(&[2.0, 0.0], 1, f64::INFINITY);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].submap, 2);

        // The distance gate filters far candidates.
        let hits = index.retrieve(&[2.0, 0.0], 2, 1.5);
        assert_eq!(hits.len(), 1, "only submap 2 is within 1.5: {hits:?}");

        // Zero candidates, wrong dimension, empty index: all empty.
        assert!(index.retrieve(&[2.0, 0.0], 0, f64::INFINITY).is_empty());
        assert!(index.retrieve(&[2.0], 2, f64::INFINITY).is_empty());
        assert!(SignatureIndex::build(&submaps, &[], 2)
            .retrieve(&[0.0, 0.0], 2, f64::INFINITY)
            .is_empty());
    }

    /// The pre-extraction inline retrieval from `Mapper::attempt_closure`,
    /// kept verbatim as the bit-identity oracle: eligible submaps'
    /// signatures into a fresh `KdTreeN`, `nn`/`nn2` by candidate count,
    /// then the distance gate applied while iterating.
    fn inline_retrieval_oracle(
        submaps: &[Submap],
        eligible: &[usize],
        query: &[f64],
        candidates: usize,
        max_descriptor_distance: f64,
    ) -> Vec<(usize, f64)> {
        let dim = query.len();
        let data: Vec<f64> =
            eligible.iter().flat_map(|&id| submaps[id].descriptor().iter().copied()).collect();
        let feature_index = KdTreeN::build(&data, dim);
        let hits = if candidates <= 1 {
            feature_index.nn(query).into_iter().collect()
        } else {
            feature_index.nn2(query)
        };
        let mut out = Vec::new();
        for hit in hits {
            if hit.distance() > max_descriptor_distance {
                continue;
            }
            out.push((eligible[hit.index], hit.distance()));
        }
        out
    }

    #[test]
    fn retrieval_is_bit_identical_to_the_inline_oracle() {
        // A signature population with near-ties and an ineligible member,
        // swept over both candidate counts and several gates.
        let submaps = vec![
            signed_submap(0, &[1.0, 2.0, 3.0]),
            signed_submap(1, &[1.0, 2.0, 3.0000001]),
            signed_submap(2, &[4.0, -1.0, 0.5]),
            signed_submap(3, &[0.9, 2.1, 2.9]),
            signed_submap(4, &[50.0, 50.0, 50.0]),
        ];
        let eligible = vec![0, 1, 3, 4];
        let queries = [[1.0, 2.0, 3.0], [0.95, 2.05, 2.95], [50.0, 50.0, 49.0], [-3.0, 0.0, 0.0]];
        for candidates in [1usize, 2] {
            for gate in [f64::INFINITY, 5.0, 0.2, 0.0] {
                for q in &queries {
                    let index = SignatureIndex::build(&submaps, &eligible, 3);
                    let got: Vec<(usize, f64)> = index
                        .retrieve(q, candidates, gate)
                        .into_iter()
                        .map(|h| (h.submap, h.distance))
                        .collect();
                    let oracle = inline_retrieval_oracle(&submaps, &eligible, q, candidates, gate);
                    assert_eq!(got, oracle, "candidates={candidates} gate={gate} q={q:?}");
                }
            }
        }
    }

    /// A structured frame: ground plane plus a distinctive wall.
    fn frame_points() -> Vec<Vec3> {
        let mut pts = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                pts.push(Vec3::new(i as f64 * 0.3, j as f64 * 0.3, 0.0));
            }
        }
        for i in 0..20 {
            for k in 0..12 {
                pts.push(Vec3::new(i as f64 * 0.3, 6.0, 0.3 + k as f64 * 0.3));
            }
        }
        pts
    }

    fn populated_submap() -> Submap {
        let mut submap = Submap::new(0, 0, RigidTransform::IDENTITY, 256);
        submap.insert_frame(0, &frame_points(), &RigidTransform::IDENTITY);
        submap
    }

    /// The pre-extraction inline overlap from `Mapper::closure_overlap`,
    /// kept verbatim as the bit-identity oracle.
    fn inline_overlap_oracle(points: &[Vec3], relative: &RigidTransform, submap: &Submap) -> f64 {
        let Some(bounds) = submap.local_bounds() else {
            return 0.0;
        };
        let structure_floor = bounds.min.z + OVERLAP_MIN_HEIGHT;
        let mut structure = 0usize;
        let mut hits = 0usize;
        for &p in points {
            let local = relative.apply(p);
            if local.z < structure_floor {
                continue;
            }
            structure += 1;
            if let Some(n) = submap.index().nn_query(local) {
                if n.distance_squared <= OVERLAP_RADIUS * OVERLAP_RADIUS {
                    hits += 1;
                }
            }
        }
        if structure < OVERLAP_MIN_POINTS {
            return 0.0;
        }
        hits as f64 / structure as f64
    }

    #[test]
    fn structure_overlap_matches_the_inline_oracle_bitwise() {
        let submap = populated_submap();
        let frame = frame_points();
        let transforms = [
            RigidTransform::IDENTITY,
            RigidTransform::from_translation(Vec3::new(0.4, -0.2, 0.0)),
            RigidTransform::from_axis_angle(Vec3::Z, 0.3, Vec3::new(1.0, 0.5, 0.0)),
            RigidTransform::from_axis_angle(
                Vec3::Z,
                std::f64::consts::PI,
                Vec3::new(6.0, 12.0, 0.0),
            ),
        ];
        for t in &transforms {
            let expected = inline_overlap_oracle(&frame, t, &submap);
            let batched = structure_overlap_batched(&frame, t, &submap, &BatchConfig::serial());
            assert!(batched.to_bits() == expected.to_bits(), "batched {batched} != {expected}");
        }
    }

    #[test]
    fn structure_overlap_separates_genuine_from_false_matches() {
        let submap = populated_submap();
        let frame = frame_points();
        let overlap = |points: &[Vec3], t: &RigidTransform, submap: &Submap| {
            structure_overlap_batched(points, t, submap, &BatchConfig::serial())
        };
        // The genuine revisit: same geometry, same place.
        let genuine = overlap(&frame, &RigidTransform::IDENTITY, &submap);
        assert!(genuine > 0.95, "genuine overlap {genuine}");
        // A gross mismatch: the wall lands far from any stored structure.
        let wrong =
            overlap(&frame, &RigidTransform::from_translation(Vec3::new(30.0, 30.0, 0.0)), &submap);
        assert!(wrong < 0.1, "false-match overlap {wrong}");
        // An empty submap or a structure-poor frame is unverifiable.
        let empty = Submap::new(9, 0, RigidTransform::IDENTITY, 64);
        assert_eq!(overlap(&frame, &RigidTransform::IDENTITY, &empty), 0.0);
        let ground_only: Vec<Vec3> = frame.iter().copied().filter(|p| p.z < 0.1).collect();
        assert_eq!(overlap(&ground_only, &RigidTransform::IDENTITY, &submap), 0.0);
    }

    #[test]
    fn verify_geometry_recovers_a_known_offset() {
        let cfg = RegistrationConfig {
            voxel_size: 0.0,
            keypoint: tigris_pipeline::config::KeypointAlgorithm::Uniform { voxel: 0.9 },
            max_correspondence_distance: 1.0,
            ..RegistrationConfig::default()
        };
        let keyframe_cloud = PointCloud::from_points(frame_points());
        let offset = RigidTransform::from_translation(Vec3::new(0.25, 0.1, 0.0));
        let current_cloud = keyframe_cloud.transformed(&offset.inverse());
        let mut keyframe = prepare_frame(&keyframe_cloud, &cfg).unwrap();
        let mut current = prepare_frame(&current_cloud, &cfg).unwrap();
        let result = verify_geometry(&mut current, &mut keyframe, &cfg).expect("must match");
        assert!(
            (result.transform.translation - offset.translation).norm() < 0.05,
            "verified {} vs {}",
            result.transform.translation,
            offset.translation
        );
        assert!(result.inlier_correspondences > 0);

        // A non-matching pair is None, not a panic.
        let mut empty_far = prepare_frame(
            &keyframe_cloud
                .transformed(&RigidTransform::from_translation(Vec3::new(500.0, 0.0, 0.0))),
            &cfg,
        )
        .unwrap();
        assert!(verify_geometry(&mut empty_far, &mut keyframe, &cfg).is_none());
    }
}
