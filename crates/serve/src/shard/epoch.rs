//! Versioned copy-on-write map epochs: the publishable unit of the
//! sharded serving layer.
//!
//! A live [`Mapper`] keeps growing and correcting its map while serving
//! continues. [`EpochPublisher::publish`] snapshots it *by reference*
//! into an immutable [`SnapshotEpoch`] — version N+1 — copying at
//! **submap granularity**: a submap whose content [`revision`] is
//! unchanged since the previous publish shares its archived
//! [`SubmapPayload`] by `Arc` with every earlier epoch that holds it;
//! only changed submaps are re-archived. Pose-graph corrections move
//! submaps rigidly without touching their payload, so after a loop
//! closure an epoch re-publish copies *poses* (cheap, per-epoch
//! manifest data) and shares every point archive.
//!
//! Sessions pin the epoch they started on and drain on it; new sessions
//! pin the newest. When the last holder of a superseded epoch drops it,
//! its uniquely-held payloads free with it, and the serving cache drops
//! their rebuilt indexes at its next sweep. A payload's identity (its
//! `Arc`) is what the cache keys an index by, so a shared payload keeps
//! its index across epochs.
//!
//! [`revision`]: Submap::revision

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use tigris_geom::{Aabb, RigidTransform, Vec3};
use tigris_map::retrieval::SignatureIndex;
use tigris_map::{Mapper, MapperConfig, Submap};
use tigris_pipeline::{PreparedFrame, RegistrationConfig};

use crate::error::ServeError;

/// The immutable archive of one submap's content at one revision: its
/// points (anchor-local frame, settled order), bounds, signature and
/// shared keyframe. Pose data deliberately lives *outside* the payload
/// (in the epoch manifest), so pose-graph corrections never invalidate
/// an archive.
#[derive(Debug)]
pub struct SubmapPayload {
    id: usize,
    anchor_frame: usize,
    revision: u64,
    /// Points in the submap's anchor-local frame, in the source index's
    /// settled order — rebuilding a `DynamicMapIndex` over this slice
    /// reproduces the live submap's answers (and indices) bit-identically.
    points: Vec<Vec3>,
    local_bounds: Option<Aabb>,
    signature: Vec<f64>,
    /// The submap's stored keyframe preparation, `Arc`-shared with the
    /// live mapper (and with every other epoch archiving this revision).
    keyframe: Option<Arc<Mutex<PreparedFrame>>>,
}

impl SubmapPayload {
    fn archive(submap: &Submap) -> Self {
        SubmapPayload {
            id: submap.id(),
            anchor_frame: submap.anchor_frame(),
            revision: submap.revision(),
            points: submap.index().all_points().to_vec(),
            local_bounds: submap.local_bounds().copied(),
            signature: submap.descriptor().to_vec(),
            keyframe: submap.keyframe().cloned(),
        }
    }

    /// The archived submap's id (its index in the epoch's payload list).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Trajectory index of the submap's anchor keyframe.
    pub fn anchor_frame(&self) -> usize {
        self.anchor_frame
    }

    /// Content revision this payload archives.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The archived points (anchor-local frame, settled order).
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// Archived points in this payload.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the submap held no points at archive time.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The submap's bounding box in its anchor-local frame.
    pub fn local_bounds(&self) -> Option<&Aabb> {
        self.local_bounds.as_ref()
    }

    /// The archived submap signature (empty when the submap had none).
    pub fn signature(&self) -> &[f64] {
        &self.signature
    }

    /// Whether the payload carries the submap's keyframe preparation.
    pub fn has_keyframe(&self) -> bool {
        self.keyframe.is_some()
    }

    /// The shared keyframe preparation, when present.
    pub fn keyframe(&self) -> Option<&Arc<Mutex<PreparedFrame>>> {
        self.keyframe.as_ref()
    }

    /// Heap bytes of the archived point set and signature. This is the
    /// *unavoidable* cost of a payload, paid once however many epochs
    /// share it — the rebuilt search index residency adds on top is what
    /// eviction reclaims.
    pub fn memory_bytes(&self) -> usize {
        self.points.capacity() * std::mem::size_of::<Vec3>()
            + self.signature.capacity() * std::mem::size_of::<f64>()
    }
}

/// One immutable, versioned publication of a live map: `Arc`-shared
/// submap payloads plus this version's pose manifest and retrieval
/// index; see the [module docs](self).
#[derive(Debug)]
pub struct SnapshotEpoch {
    version: u64,
    config: MapperConfig,
    /// Payload archives, indexed by submap id.
    payloads: Vec<Arc<SubmapPayload>>,
    /// World pose of each submap's anchor at publish time (parallel to
    /// `payloads`) — per-epoch manifest data, *not* part of the payload.
    anchor_poses: Vec<RigidTransform>,
    /// Corrected world pose per trajectory frame at publish time.
    poses: Vec<RigidTransform>,
    retrieval: SignatureIndex,
    signature_dim: usize,
    total_points: usize,
}

impl SnapshotEpoch {
    /// The epoch's version (monotone per publisher, starting at 1).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The configuration the map was built under.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// The registration configuration query frames must be prepared
    /// with.
    pub fn registration_config(&self) -> &RegistrationConfig {
        &self.config.registration
    }

    /// The archived submap payloads, indexed by submap id.
    pub fn payloads(&self) -> &[Arc<SubmapPayload>] {
        &self.payloads
    }

    /// World pose of submap `id`'s anchor at publish time.
    pub fn anchor_pose(&self, id: usize) -> &RigidTransform {
        &self.anchor_poses[id]
    }

    /// Corrected world pose per trajectory frame at publish time.
    pub fn poses(&self) -> &[RigidTransform] {
        &self.poses
    }

    /// The signature retrieval structure over every verifiable submap.
    pub fn retrieval(&self) -> &SignatureIndex {
        &self.retrieval
    }

    /// Dimension of the submap signatures.
    pub fn signature_dim(&self) -> usize {
        self.signature_dim
    }

    /// Total points across all archived payloads.
    pub fn total_points(&self) -> usize {
        self.total_points
    }

    /// Submaps a cold start can verify against (stored keyframe plus
    /// signature).
    pub fn verifiable_submaps(&self) -> usize {
        self.retrieval.len()
    }

    /// Heap bytes of every payload archive reachable from this epoch
    /// (shared payloads are counted here once per epoch that holds
    /// them; the process-wide cost of a shared payload is paid once).
    pub fn archive_bytes(&self) -> usize {
        self.payloads.iter().map(|p| p.memory_bytes()).sum()
    }
}

/// Publishes copy-on-write [`SnapshotEpoch`]s from a live [`Mapper`];
/// see the [module docs](self).
///
/// The publisher caches the payload it archived for each submap's last
/// seen revision; [`EpochPublisher::publish`] re-archives only submaps
/// whose revision moved. One publisher per live mapper.
#[derive(Debug, Default)]
pub struct EpochPublisher {
    /// Last archived payload per submap id.
    cache: HashMap<usize, Arc<SubmapPayload>>,
    next_version: u64,
    payloads_shared: usize,
    payloads_copied: usize,
}

impl EpochPublisher {
    /// A fresh publisher; its first publish is epoch version 1.
    pub fn new() -> Self {
        EpochPublisher::default()
    }

    /// Payloads re-used from the previous publish by revision equality,
    /// over the publisher's lifetime.
    pub fn payloads_shared(&self) -> usize {
        self.payloads_shared
    }

    /// Payloads (re-)archived because their submap's revision moved,
    /// over the publisher's lifetime.
    pub fn payloads_copied(&self) -> usize {
        self.payloads_copied
    }

    /// Publishes the mapper's current map as the next epoch, sharing
    /// every payload whose submap revision is unchanged since the last
    /// publish. The mapper is read through `&` — it keeps mapping.
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptyMap`] when the map holds no points;
    /// [`ServeError::UnverifiableMap`] when no submap has both a stored
    /// keyframe and a signature (cold starts could never verify).
    pub fn publish(&mut self, mapper: &Mapper) -> Result<Arc<SnapshotEpoch>, ServeError> {
        let _span = tigris_obs::span!("epoch.publish", version = self.next_version + 1);
        let submaps = mapper.submaps();
        let total_points: usize = submaps.iter().map(Submap::len).sum();
        if total_points == 0 {
            return Err(ServeError::EmptyMap);
        }

        let shared_before = self.payloads_shared;
        let copied_before = self.payloads_copied;
        let payloads: Vec<Arc<SubmapPayload>> = submaps
            .iter()
            .map(|submap| {
                if let Some(cached) = self.cache.get(&submap.id()) {
                    if cached.revision == submap.revision() {
                        self.payloads_shared += 1;
                        return Arc::clone(cached);
                    }
                }
                let payload = Arc::new(SubmapPayload::archive(submap));
                self.cache.insert(submap.id(), Arc::clone(&payload));
                self.payloads_copied += 1;
                payload
            })
            .collect();

        // Verifiable payloads: a keyframe plus a signature of the map's
        // common dimension. The dimension is taken from the first
        // verifiable payload (one front-end config built the whole map,
        // so disagreement means an unusable signature, not a second
        // population).
        let signature_dim = payloads
            .iter()
            .find(|p| p.has_keyframe() && !p.signature.is_empty())
            .map(|p| p.signature.len())
            .ok_or(ServeError::UnverifiableMap)?;
        let retrieval = SignatureIndex::from_signatures(
            payloads
                .iter()
                .filter(|p| p.has_keyframe() && p.signature.len() == signature_dim)
                .map(|p| (p.id, p.signature.as_slice())),
            signature_dim,
        );

        self.next_version += 1;
        tigris_obs::event!(
            "epoch.published",
            version = self.next_version,
            shared = self.payloads_shared - shared_before,
            copied = self.payloads_copied - copied_before,
            total_points = total_points,
        );
        Ok(Arc::new(SnapshotEpoch {
            version: self.next_version,
            config: mapper.config().clone(),
            anchor_poses: submaps.iter().map(|s| *s.anchor_pose()).collect(),
            poses: mapper.poses().to_vec(),
            payloads,
            retrieval,
            signature_dim,
            total_points,
        }))
    }
}
