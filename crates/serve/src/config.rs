//! Serving-layer configuration: admission budgets and relocalization
//! gates layered over the served map's own registration configuration.
//!
//! The front-end knobs (voxel size, descriptors, search backend …) are
//! *not* configurable here: query frames must be prepared exactly like
//! the map's frames were, so the epoch's `MapperConfig.registration`
//! is authoritative and sessions read it from their pinned epoch.

/// Gates applied to a cold-start relocalization attempt.
///
/// Mirrors the geometry-vs-geometry half of
/// [`tigris_map::ClosureConfig`]: the drift-relative gates
/// (`max_expected_offset`, `max_deviation`, `deviation_rate`) have no
/// counterpart because a cold query carries no pose estimate to deviate
/// from — which is exactly why the structure-overlap gate does the heavy
/// lifting here. The candidate budget defaults higher than loop
/// closure's, too: a cold start has no drift prior narrowing the
/// plausible submaps, and single-frame signatures rank noisier than the
/// mapper's within-stream queries, so recall is bought by verifying
/// deeper into the ranking (each candidate is fully gated anyway).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelocConfig {
    /// Candidate submaps retrieved per attempt, best signature matches
    /// first (beyond two, retrieval ranks exhaustively — see
    /// [`tigris_map::retrieval::SignatureIndex::retrieve`]). `0`
    /// disables relocalization entirely.
    pub candidates: usize,
    /// Retrieval gate: a candidate's signature distance to the query
    /// frame's must not exceed this (`f64::INFINITY` keeps rank-only
    /// retrieval).
    pub max_descriptor_distance: f64,
    /// Verification gate: minimum KPCE correspondences surviving
    /// rejection. This floor guards against degenerate estimates (an
    /// SVD over two or three pairs is noise); *specificity* against
    /// aliased matches comes from the structure-overlap gate, so the
    /// floor sits lower than loop closure's — a cold query is a single
    /// frame whose key-point budget is whatever the scanner gave it.
    pub min_inliers: usize,
    /// Verification gate: the verified transform's translation must stay
    /// below this (meters) — a genuine localization is physically near
    /// the keyframe whose submap retrieval proposed.
    pub max_keyframe_offset: f64,
    /// Verification gate: minimum structure-overlap fraction (see
    /// [`tigris_map::retrieval::structure_overlap_batched`]) — the gate that
    /// rejects high-inlier aliases across self-similar structure.
    pub min_structure_overlap: f64,
}

impl Default for RelocConfig {
    fn default() -> Self {
        RelocConfig {
            candidates: 8,
            max_descriptor_distance: f64::INFINITY,
            min_inliers: 3,
            max_keyframe_offset: 12.0,
            min_structure_overlap: 0.75,
        }
    }
}

/// Full serving configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Concurrent session budget: [`crate::shard::ShardService::open_session`]
    /// rejects with [`crate::ServeError::SessionsExhausted`] beyond it.
    pub max_sessions: usize,
    /// Concurrent localization budget across all sessions: a
    /// `localize` call arriving while this many are already executing is
    /// rejected with [`crate::ServeError::Saturated`] before any work
    /// runs.
    pub max_inflight: usize,
    /// Cold-start relocalization gates.
    pub reloc: RelocConfig,
    /// Consecutive tracking failures before a session abandons its pose
    /// estimate and falls back to cold-start relocalization. `0` falls
    /// back immediately on the first failure.
    pub max_track_failures: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 64,
            max_inflight: 256,
            reloc: RelocConfig::default(),
            max_track_failures: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.max_sessions > 0);
        assert!(cfg.max_inflight >= cfg.max_sessions);
        assert!(cfg.reloc.candidates > 0);
        assert!(cfg.reloc.min_structure_overlap > 0.0 && cfg.reloc.min_structure_overlap <= 1.0);
        assert!(cfg.reloc.max_keyframe_offset > 0.0);
    }
}
