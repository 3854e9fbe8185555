//! Mapper configuration: submap spawning, loop-closure gating and
//! pose-graph knobs layered over the registration pipeline's
//! [`RegistrationConfig`].

use tigris_pipeline::RegistrationConfig;

/// When the [`crate::Mapper`] starts a new submap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubmapConfig {
    /// Spawn a new submap once the vehicle has traveled this far (meters)
    /// inside the current one.
    pub spawn_distance: f64,
    /// Spawn a new submap once the current one holds this many points
    /// (whichever trips first).
    pub point_budget: usize,
    /// Fresh-buffer capacity of each submap's
    /// [`tigris_core::DynamicMapIndex`] — how many inserted points
    /// accumulate before the submap's static tree absorbs them.
    pub fresh_capacity: usize,
}

impl Default for SubmapConfig {
    fn default() -> Self {
        SubmapConfig { spawn_distance: 15.0, point_budget: 120_000, fresh_capacity: 2048 }
    }
}

/// Loop-closure candidate retrieval and verification gates.
///
/// Retrieval is descriptor-based (submap mean descriptors in the KPCE
/// feature space); every gate after that defends against a false closure,
/// which would corrupt the whole trajectory — the asymmetric risk that
/// makes the acceptance path deliberately conservative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosureConfig {
    /// Master switch; `false` turns the mapper into pure submap odometry.
    pub enabled: bool,
    /// A candidate submap must be at least this many submaps older than
    /// the current one (adjacent submaps overlap trivially).
    pub min_submap_gap: usize,
    /// Retrieval gate: a candidate's mean-descriptor distance to the
    /// current frame's must not exceed this (`f64::INFINITY` keeps
    /// rank-only retrieval).
    pub max_descriptor_distance: f64,
    /// Verified candidates per frame: at most this many geometric
    /// verifications run (best descriptor matches first; capped at 2 by
    /// the feature index's two-nearest retrieval). `0` skips retrieval
    /// and verification entirely.
    pub candidates: usize,
    /// Retrieval gate on the *drift-estimated* offset between the current
    /// pose and a candidate's anchor (meters): even heavily drifted, a
    /// genuine revisit is not across the map.
    pub max_expected_offset: f64,
    /// Verification gate: the registered relative transform's translation
    /// must stay below this (meters) — a revisit is physically nearby.
    pub max_offset: f64,
    /// Verification gate: minimum surviving KPCE correspondences.
    pub min_inliers: usize,
    /// Verification gate: base translation allowance (meters) between the
    /// verified relative and the drift-estimated one; the actual gate is
    /// `max_deviation + deviation_rate × distance traveled since the
    /// candidate's anchor`, since odometry drift grows with travel.
    pub max_deviation: f64,
    /// Per-meter-traveled growth of the translation-deviation allowance
    /// (dimensionless; 0.25 tolerates 25% translational drift).
    pub deviation_rate: f64,
    /// Verification gate: structure-overlap consistency. Of the current
    /// frame's elevated (non-ground) points placed into the candidate
    /// submap by the verified transform, at least this fraction must land
    /// on stored submap structure. This is the gate drift cannot fool —
    /// it compares geometry against geometry, never consulting the
    /// drifted pose estimates — and it is what rejects high-inlier false
    /// matches across self-similar structure (only the generic corridor
    /// aligns there; the walls curve apart away from the match center).
    pub min_structure_overlap: f64,
    /// Accepted-closure cooldown: skip retrieval for this many frames
    /// after an acceptance (the graph was just optimized; immediate
    /// re-closures add nothing).
    pub cooldown_frames: usize,
}

impl Default for ClosureConfig {
    fn default() -> Self {
        ClosureConfig {
            enabled: true,
            min_submap_gap: 3,
            max_descriptor_distance: f64::INFINITY,
            candidates: 2,
            max_expected_offset: 25.0,
            max_offset: 10.0,
            min_inliers: 5,
            max_deviation: 10.0,
            deviation_rate: 0.25,
            min_structure_overlap: 0.75,
            cooldown_frames: 10,
        }
    }
}

/// Full mapper configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MapperConfig {
    /// The registration pipeline configuration driving the wrapped
    /// odometer *and* loop-closure verification (both act on frames
    /// prepared under these front-end knobs).
    pub registration: RegistrationConfig,
    /// Submap spawning policy.
    pub submap: SubmapConfig,
    /// Loop-closure retrieval and gating.
    pub closure: ClosureConfig,
    /// Gauss–Newton iterations per pose-graph optimization.
    pub optimize_iterations: usize,
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            registration: RegistrationConfig::default(),
            submap: SubmapConfig::default(),
            closure: ClosureConfig::default(),
            optimize_iterations: 15,
        }
    }
}

impl MapperConfig {
    /// The serving-oriented mapping profile: denser submaps, denser loop
    /// closures — for maps destined to be published and *localized against*
    /// (`tigris-serve`), where global pose accuracy and keyframe
    /// coverage matter more than build cost.
    ///
    /// * **Submaps spawn every 6 m** instead of 15. Each anchor retires
    ///   its full frame preparation as a stored keyframe, and keyframes
    ///   are what cold-start relocalization geometrically verifies
    ///   against — so anchor spacing *is* relocalization coverage: a
    ///   query more than a few meters from every keyframe may retrieve
    ///   the right submap yet fail verification (too little view
    ///   overlap for the prior-less match).
    /// * **Closure gating trades attempt cost for recall**: every
    ///   eligible submap is retrieval-ranked (exhaustive beyond the
    ///   two-nearest kernel), the inlier floor drops to 3 (specificity
    ///   against ring-road aliases comes from the structure-overlap
    ///   gate, which rejects them at ≤0.5 against genuine ≥0.95), and
    ///   the post-acceptance cooldown shrinks so a re-driven stretch
    ///   keeps stitching itself to the first pass every few frames —
    ///   the continuous re-closure that pins a multi-pass trajectory to
    ///   sub-meter global consistency.
    ///
    /// The default profile remains the cheaper choice for pure
    /// mapping/odometry workloads.
    pub fn serving() -> Self {
        MapperConfig {
            submap: SubmapConfig { spawn_distance: 6.0, ..SubmapConfig::default() },
            closure: ClosureConfig {
                candidates: 16,
                min_inliers: 3,
                cooldown_frames: 4,
                ..ClosureConfig::default()
            },
            ..MapperConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = MapperConfig::default();
        assert!(cfg.submap.spawn_distance > 0.0);
        assert!(cfg.submap.point_budget > 0);
        assert!(cfg.closure.enabled);
        assert!(cfg.closure.max_offset <= cfg.closure.max_expected_offset);
        assert!(cfg.optimize_iterations > 0);
        assert_eq!(cfg.registration.validate(), Ok(()));
    }
}
