//! Cold-start relocalization: "where in this map am I?" from one raw
//! frame and no history.
//!
//! The pipeline mirrors the mapper's loop-closure verification — the two
//! share their implementation through [`tigris_map::retrieval`] — minus
//! the drift-relative gates (a cold query has no pose estimate to
//! deviate from):
//!
//! 1. the query frame's mean descriptor is matched against the
//!    epoch's submap signatures ([`SignatureIndex`] retrieval);
//! 2. each candidate is geometrically verified by registering the
//!    prepared query frame against the candidate's stored keyframe
//!    (no front-end rerun, keyframe briefly locked);
//! 3. survivors pass the inlier, offset and structure-overlap gates;
//! 4. the first acceptance becomes a world pose: the keyframe's
//!    published pose composed with the verified relative transform.
//!
//! [`SignatureIndex`]: tigris_map::retrieval::SignatureIndex

use tigris_geom::RigidTransform;
use tigris_map::descriptor_mean;
use tigris_pipeline::PreparedFrame;

use crate::config::RelocConfig;
use crate::error::ServeError;
use crate::shard::service::EpochTarget;

/// A successful cold-start relocalization, with the evidence that
/// backs it — the service's *confidence report*.
#[derive(Debug, Clone, Copy)]
pub struct Relocalization {
    /// Estimated world pose of the query frame (sensor → world).
    pub pose: RigidTransform,
    /// The submap whose keyframe the frame verified against.
    pub submap: usize,
    /// Trajectory index of that keyframe (the submap's anchor).
    pub matched_frame: usize,
    /// Verified relative transform (query coordinates into keyframe
    /// coordinates).
    pub relative: RigidTransform,
    /// KPCE correspondences surviving rejection in the verification.
    pub inliers: usize,
    /// Structure-overlap fraction under the verified transform.
    pub structure_overlap: f64,
    /// Signature distance of the accepted candidate in the KPCE feature
    /// space.
    pub signature_distance: f64,
    /// Candidates that reached geometric verification (including the
    /// accepted one).
    pub candidates_tried: usize,
    /// Scalar confidence in `[0, 1)`: the structure-overlap fraction
    /// scaled by inlier saturation `inliers / (inliers + min_inliers)`.
    /// Monotone in both pieces of evidence; deterministic.
    pub confidence: f64,
}

/// Relocalizes a prepared query frame against a pinned epoch; see the
/// [module docs](self).
///
/// # Errors
///
/// [`ServeError::RelocalizationFailed`] when retrieval yields no
/// candidate or every verified candidate fails a gate. The prepared
/// frame remains valid — callers retry with the next frame or hand the
/// preparation to tracking once a later attempt succeeds.
pub(crate) fn relocalize_prepared(
    target: &EpochTarget<'_>,
    frame: &mut PreparedFrame,
    cfg: &RelocConfig,
) -> Result<Relocalization, ServeError> {
    let epoch = target.epoch;
    let mut candidates_tried = 0usize;
    let Some(signature) = descriptor_mean(frame.descriptors()) else {
        return Err(ServeError::RelocalizationFailed { candidates_tried });
    };
    if signature.len() != epoch.signature_dim() {
        return Err(ServeError::RelocalizationFailed { candidates_tried });
    }

    // The gate pipeline traces structured: one span per attempt, one
    // event per candidate carrying the gate values (inliers, keyframe
    // offset, structure overlap). Enable with TIGRIS_TRACE=chrome.
    let _span = tigris_obs::span!("serve.reloc", candidates = cfg.candidates);
    let batch = frame.config().parallel;
    let hits = epoch.retrieval().retrieve(&signature, cfg.candidates, cfg.max_descriptor_distance);
    for hit in hits {
        // Every retrieved candidate reaches geometric verification
        // (retrieval only indexes keyframed submaps), so it counts
        // whether or not the registration produces a match.
        candidates_tried += 1;
        let Some(result) = target.verify_against(hit.submap, frame) else {
            tigris_obs::event!(
                "reloc.candidate",
                submap = hit.submap,
                sig_dist = hit.distance,
                matched = false,
            );
            continue;
        };

        // Cheap scalar gates first; the expensive overlap check (one NN
        // probe per elevated frame point, batched) only runs on frames
        // the scalars let through.
        let scalars_pass = result.inlier_correspondences >= cfg.min_inliers
            && result.transform.translation_norm() <= cfg.max_keyframe_offset;
        let overlap = if scalars_pass {
            target.structure_overlap(frame.points(), &result.transform, hit.submap, &batch)
        } else {
            0.0
        };
        let pass = scalars_pass && overlap >= cfg.min_structure_overlap;
        tigris_obs::event!(
            "reloc.candidate",
            submap = hit.submap,
            sig_dist = hit.distance,
            matched = true,
            inliers = result.inlier_correspondences,
            offset = result.transform.translation_norm(),
            overlap = overlap,
            overlap_checked = scalars_pass,
            pass = pass,
        );
        if !pass {
            continue;
        }

        let anchor_frame = epoch.payloads()[hit.submap].anchor_frame();
        let inliers = result.inlier_correspondences;
        let saturation = inliers as f64 / (inliers + cfg.min_inliers.max(1)) as f64;
        tigris_obs::event!(
            "reloc.accept",
            submap = hit.submap,
            anchor_frame = anchor_frame,
            inliers = inliers,
            overlap = overlap,
            confidence = overlap * saturation,
            candidates_tried = candidates_tried,
        );
        return Ok(Relocalization {
            pose: epoch.poses()[anchor_frame] * result.transform,
            submap: hit.submap,
            matched_frame: anchor_frame,
            relative: result.transform,
            inliers,
            structure_overlap: overlap,
            signature_distance: hit.distance,
            candidates_tried,
            confidence: overlap * saturation,
        });
    }
    tigris_obs::event!("reloc.fail", candidates_tried = candidates_tried);
    Err(ServeError::RelocalizationFailed { candidates_tried })
}
