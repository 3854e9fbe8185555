//! Pipeline configuration: every algorithmic and parametric knob of the
//! paper's Tbl. 1, plus the Pareto design points DP1–DP8 used throughout
//! the evaluation.

use tigris_core::ApproxConfig;

use crate::search::Injection;

/// Normal-estimation algorithm (Tbl. 1 row 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormalAlgorithm {
    /// Total-least-squares plane fit via covariance eigen-decomposition.
    PlaneSvd,
    /// Area-weighted average of fan-triangle normals.
    AreaWeighted,
}

/// Key-point detection algorithm (Tbl. 1 row 2).
///
/// The paper explores SIFT, NARF and HARRIS. We implement SIFT-3D
/// (difference-of-curvature across scales) and Harris-3D faithfully, and
/// substitute ISS (Intrinsic Shape Signatures) for NARF — both are
/// geometric-saliency detectors, and NARF's range-image machinery is
/// orthogonal to the paper's claims (see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeypointAlgorithm {
    /// SIFT-3D-style: local extrema of curvature difference across two
    /// neighborhood scales.
    Sift {
        /// Base scale (neighborhood radius), meters.
        scale: f64,
    },
    /// Harris-3D: corner response from the covariance of neighborhood
    /// normals.
    Harris {
        /// Neighborhood radius, meters.
        radius: f64,
    },
    /// Intrinsic Shape Signatures (NARF substitute): eigenvalue-ratio
    /// saliency.
    Iss {
        /// Salient-region radius, meters.
        radius: f64,
    },
    /// Uniform voxel sub-sampling (the cheap baseline).
    Uniform {
        /// Voxel edge, meters.
        voxel: f64,
    },
}

/// Feature-descriptor algorithm (Tbl. 1 row 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DescriptorAlgorithm {
    /// Fast Point Feature Histograms (33-D).
    Fpfh {
        /// Descriptor neighborhood radius, meters.
        radius: f64,
    },
    /// Signature of Histograms of Orientations (simplified spatial-angular
    /// signature; see `descriptor` module docs).
    Shot {
        /// Descriptor neighborhood radius, meters.
        radius: f64,
    },
    /// 3D Shape Context (log-radial shells × azimuth × elevation).
    Sc3d {
        /// Descriptor neighborhood radius, meters.
        radius: f64,
    },
}

impl DescriptorAlgorithm {
    /// Descriptor search radius, whatever the algorithm.
    pub fn radius(&self) -> f64 {
        match *self {
            DescriptorAlgorithm::Fpfh { radius }
            | DescriptorAlgorithm::Shot { radius }
            | DescriptorAlgorithm::Sc3d { radius } => radius,
        }
    }
}

/// Correspondence-rejection algorithm (Tbl. 1 row 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RejectionAlgorithm {
    /// Keep correspondences whose feature distance is below `factor` times
    /// the median feature distance.
    Threshold {
        /// Multiple of the median feature distance to keep.
        factor: f64,
    },
    /// RANSAC over rigid transforms: keep the largest consensus set.
    Ransac {
        /// Iterations (random minimal samples drawn).
        iterations: usize,
        /// Inlier threshold on 3D alignment error, meters.
        inlier_threshold: f64,
    },
}

/// Error metric minimized by the fine-tuning solver (Tbl. 1 row 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorMetric {
    /// Mean-square point-to-point distance.
    PointToPoint,
    /// Point-to-plane distance (needs target normals).
    PointToPlane,
}

/// Optimization solver (Tbl. 1 row 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverAlgorithm {
    /// Closed-form SVD (Kabsch/Umeyama) — point-to-point only; for
    /// point-to-plane the linearized Gauss-Newton step is used.
    Svd,
    /// Levenberg–Marquardt damped iterations.
    LevenbergMarquardt,
}

/// ICP convergence criteria (Tbl. 1 "Convergence criteria").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceCriteria {
    /// Maximum fine-tuning iterations.
    pub max_iterations: usize,
    /// Stop when the transform update's translation falls below this (m)…
    pub translation_epsilon: f64,
    /// …and its rotation below this (radians).
    pub rotation_epsilon: f64,
    /// Stop when the relative mean-square-error improvement falls below this.
    pub mse_relative_epsilon: f64,
}

impl Default for ConvergenceCriteria {
    fn default() -> Self {
        ConvergenceCriteria {
            max_iterations: 30,
            translation_epsilon: 1e-4,
            rotation_epsilon: 1e-5,
            mse_relative_epsilon: 1e-4,
        }
    }
}

/// Search-backend selection for the dense (3D) searches.
///
/// Every variant resolves to a `tigris_core::SearchIndex` implementation
/// behind [`crate::Searcher3`]; the pipeline above is identical whichever
/// backend serves the queries. `Custom` reaches through the process-wide
/// backend registry (`tigris_core::index`), which is how out-of-crate
/// backends — notably `tigris-accel`'s online `"accelerator"` model —
/// plug into `register()`, the odometer and the DSE sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchBackendConfig {
    /// Canonical KD-tree.
    Classic,
    /// Two-stage KD-tree with the given top-tree height.
    TwoStage {
        /// Top-tree height.
        top_height: usize,
    },
    /// Two-stage + approximate (Algorithm 1) search.
    TwoStageApprox {
        /// Top-tree height.
        top_height: usize,
        /// Leader/follower parameters.
        approx: ApproxConfig,
    },
    /// Exhaustive scan — the exact-search oracle, runnable through the
    /// full pipeline for ground-truth accuracy checks (quadratic; intended
    /// for small frames and validation sweeps).
    BruteForce,
    /// A backend registered by name in `tigris_core::index` (e.g.
    /// `"accelerator"` after `tigris_accel::register_accelerator_backend()`).
    ///
    /// The name is `&'static str` to keep this config `Copy` (it is
    /// embedded in every [`RegistrationConfig`] and cloned throughout the
    /// sweeps). Backends whose names only exist at runtime (parsed from a
    /// CLI flag or config file) don't need this variant at all: build the
    /// index via `tigris_core::build_backend(name, points)`, wrap it with
    /// `Searcher3::from_index` and prepare it with
    /// [`crate::pipeline::prepare_frame_from_searcher`].
    Custom {
        /// The registry name the backend was registered under.
        name: &'static str,
    },
}

impl SearchBackendConfig {
    /// The registry/display name of the selected backend — matches what
    /// the built index's `SearchIndex::name()` reports.
    pub fn name(&self) -> &'static str {
        match *self {
            SearchBackendConfig::Classic => "classic",
            SearchBackendConfig::TwoStage { .. } => "two-stage",
            SearchBackendConfig::TwoStageApprox { .. } => "two-stage-approx",
            SearchBackendConfig::BruteForce => "brute-force",
            SearchBackendConfig::Custom { name } => name,
        }
    }
}

/// A rejected configuration knob, found by [`RegistrationConfig::validate`]
/// and returned by every pipeline entry point as
/// `RegistrationError::InvalidConfig` instead of surfacing as a panic or
/// nonsense result deep inside a run.
///
/// Each variant names the offending knob with a stable dotted path (e.g.
/// `"convergence.max_iterations"`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// The knob must be strictly positive (radii, distances, thresholds).
    NonPositive {
        /// Dotted path of the offending knob.
        knob: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The knob must be non-negative (voxel sizes, gates, epsilons; zero
    /// disables where documented).
    Negative {
        /// Dotted path of the offending knob.
        knob: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A ratio knob left its valid range (`kpce_ratio` must be in `(0, 1]`,
    /// `radius_threshold_frac` in `[0, 1]`).
    RatioOutOfRange {
        /// Dotted path of the offending knob.
        knob: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// An integer count that must be at least 1 was 0 (iterations,
    /// top-tree heights, leader capacities, injection ranks).
    ZeroCount {
        /// Dotted path of the offending knob.
        knob: &'static str,
    },
    /// A knob was not a finite number.
    NotFinite {
        /// Dotted path of the offending knob.
        knob: &'static str,
    },
    /// The `Custom` backend name is not present in the backend registry.
    UnknownBackend {
        /// The unresolvable registry name.
        name: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::NonPositive { knob, value } => {
                write!(f, "{knob} must be > 0, got {value}")
            }
            ConfigError::Negative { knob, value } => {
                write!(f, "{knob} must be >= 0, got {value}")
            }
            ConfigError::RatioOutOfRange { knob, value } => {
                write!(f, "{knob} is out of its valid ratio range, got {value}")
            }
            ConfigError::ZeroCount { knob } => write!(f, "{knob} must be at least 1"),
            ConfigError::NotFinite { knob } => write!(f, "{knob} must be finite"),
            ConfigError::UnknownBackend { name } => {
                write!(f, "no search backend registered under {name:?}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The full pipeline configuration (paper Fig. 2 + Tbl. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrationConfig {
    /// Voxel size for pre-downsampling each frame (0 disables). KITTI-scale
    /// frames are typically downsampled to ~0.2–0.4 m for the front-end.
    pub voxel_size: f64,
    /// Normal-estimation algorithm.
    pub normal_algorithm: NormalAlgorithm,
    /// Normal-estimation search radius (Tbl. 1 "Search radius"), meters.
    pub normal_radius: f64,
    /// Key-point detector and its scale/range parameter.
    pub keypoint: KeypointAlgorithm,
    /// Feature descriptor and its search radius.
    pub descriptor: DescriptorAlgorithm,
    /// Whether KPCE requires reciprocal (mutual) nearest neighbors.
    pub kpce_reciprocal: bool,
    /// Lowe ratio test for KPCE (Tbl. 1 "Ratio threshold"): keep a match
    /// only when nearest/second-nearest feature distance ≤ this. `None`
    /// disables; when set, it replaces plain nearest-neighbor matching
    /// (reciprocity still applies on top if enabled).
    pub kpce_ratio: Option<f64>,
    /// Correspondence rejection.
    pub rejection: RejectionAlgorithm,
    /// Error metric for fine-tuning.
    pub error_metric: ErrorMetric,
    /// Solver for fine-tuning.
    pub solver: SolverAlgorithm,
    /// RPCE: drop correspondences farther than this (meters).
    pub max_correspondence_distance: f64,
    /// RPCE reciprocity (Tbl. 1): keep only mutually-nearest dense pairs.
    /// Robust to partial overlap at roughly double the per-iteration search
    /// cost (plus a source-tree rebuild each iteration).
    pub rpce_reciprocal: bool,
    /// ICP convergence criteria.
    pub convergence: ConvergenceCriteria,
    /// Dense-search backend.
    pub backend: SearchBackendConfig,
    /// Error injection into the Normal Estimation stage's radius searches
    /// (Fig. 7b), if any.
    pub inject_ne: Option<Injection>,
    /// Error injection into RPCE's NN searches (Fig. 7a, dense curve).
    pub inject_rpce: Option<Injection>,
    /// Error injection into KPCE's feature-space NN (Fig. 7a, sparse
    /// curve): return the k-th nearest feature instead.
    pub inject_kpce_kth: Option<usize>,
    /// Motion-prior gate on the initial estimate: when the front-end's
    /// transform rotates more than this (radians), it is discarded and
    /// fine-tuning starts from identity. Consecutive LiDAR frames (10 Hz)
    /// cannot rotate this much; the gate rejects symmetric-scene flips
    /// (e.g. a road corridor matched 180° reversed). `f64::INFINITY`
    /// disables it.
    pub max_initial_rotation: f64,
    /// Motion-prior gate on the initial estimate's translation (meters);
    /// see [`RegistrationConfig::max_initial_rotation`].
    pub max_initial_translation: f64,
}

impl RegistrationConfig {
    /// `true` when `other` shares every knob that shapes the
    /// frame-preparation layer's *results* — downsampling, normal
    /// estimation, key-point detection, descriptors, the search backend
    /// and NE injection. Two configs that agree here produce
    /// interchangeable [`crate::PreparedFrame`]s, so a sweep over the
    /// remaining (matching/ICP) knobs can prepare each frame once and
    /// reuse it across design points ([`crate::dse::sweep_matching`]).
    pub fn same_front_end(&self, other: &Self) -> bool {
        self.voxel_size == other.voxel_size
            && self.normal_algorithm == other.normal_algorithm
            && self.normal_radius == other.normal_radius
            && self.keypoint == other.keypoint
            && self.descriptor == other.descriptor
            && self.backend == other.backend
            && self.inject_ne == other.inject_ne
    }

    /// Checks every knob, returning the first violation.
    ///
    /// All [`DesignPoint`] presets validate cleanly; this exists to catch
    /// hand-rolled or swept configurations (negative radii, `kpce_ratio`
    /// above 1, zero iteration budgets, a `Custom` backend name the
    /// registry does not hold, …). `prepare_frame`,
    /// `prepare_frame_from_searcher` and `register_prepared` run it before
    /// any work, so every pipeline entry point rejects such a config with
    /// `RegistrationError::InvalidConfig`.
    ///
    /// # Example
    ///
    /// ```
    /// use tigris_pipeline::config::{ConfigError, RegistrationConfig};
    ///
    /// let cfg = RegistrationConfig { normal_radius: 0.6, ..Default::default() };
    /// assert_eq!(cfg.validate(), Ok(()));
    ///
    /// let bad = RegistrationConfig { normal_radius: -1.0, ..Default::default() };
    /// assert_eq!(
    ///     bad.validate(),
    ///     Err(ConfigError::NonPositive { knob: "normal_radius", value: -1.0 })
    /// );
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn positive(knob: &'static str, value: f64) -> Result<(), ConfigError> {
            if !value.is_finite() {
                return Err(ConfigError::NotFinite { knob });
            }
            if value <= 0.0 {
                return Err(ConfigError::NonPositive { knob, value });
            }
            Ok(())
        }
        fn non_negative(knob: &'static str, value: f64) -> Result<(), ConfigError> {
            if value.is_nan() {
                return Err(ConfigError::NotFinite { knob });
            }
            if value < 0.0 {
                return Err(ConfigError::Negative { knob, value });
            }
            Ok(())
        }

        non_negative("voxel_size", self.voxel_size)?;
        positive("normal_radius", self.normal_radius)?;
        match self.keypoint {
            KeypointAlgorithm::Sift { scale } => positive("keypoint.scale", scale)?,
            KeypointAlgorithm::Harris { radius } | KeypointAlgorithm::Iss { radius } => {
                positive("keypoint.radius", radius)?
            }
            KeypointAlgorithm::Uniform { voxel } => positive("keypoint.voxel", voxel)?,
        }
        positive("descriptor.radius", self.descriptor.radius())?;
        if let Some(ratio) = self.kpce_ratio {
            if !ratio.is_finite() {
                return Err(ConfigError::NotFinite { knob: "kpce_ratio" });
            }
            if ratio <= 0.0 || ratio > 1.0 {
                return Err(ConfigError::RatioOutOfRange { knob: "kpce_ratio", value: ratio });
            }
        }
        match self.rejection {
            RejectionAlgorithm::Threshold { factor } => positive("rejection.factor", factor)?,
            RejectionAlgorithm::Ransac { iterations, inlier_threshold } => {
                if iterations == 0 {
                    return Err(ConfigError::ZeroCount { knob: "rejection.iterations" });
                }
                positive("rejection.inlier_threshold", inlier_threshold)?;
            }
        }
        positive("max_correspondence_distance", self.max_correspondence_distance)?;
        if self.convergence.max_iterations == 0 {
            return Err(ConfigError::ZeroCount { knob: "convergence.max_iterations" });
        }
        non_negative("convergence.translation_epsilon", self.convergence.translation_epsilon)?;
        non_negative("convergence.rotation_epsilon", self.convergence.rotation_epsilon)?;
        non_negative("convergence.mse_relative_epsilon", self.convergence.mse_relative_epsilon)?;
        match self.backend {
            SearchBackendConfig::Classic | SearchBackendConfig::BruteForce => {}
            SearchBackendConfig::Custom { name } => {
                if !tigris_core::backend_names().iter().any(|n| n == name) {
                    return Err(ConfigError::UnknownBackend { name });
                }
            }
            SearchBackendConfig::TwoStage { top_height } => {
                if top_height == 0 {
                    return Err(ConfigError::ZeroCount { knob: "backend.top_height" });
                }
            }
            SearchBackendConfig::TwoStageApprox { top_height, approx } => {
                if top_height == 0 {
                    return Err(ConfigError::ZeroCount { knob: "backend.top_height" });
                }
                non_negative("backend.approx.nn_threshold", approx.nn_threshold)?;
                let frac = approx.radius_threshold_frac;
                if frac.is_nan() {
                    return Err(ConfigError::NotFinite {
                        knob: "backend.approx.radius_threshold_frac",
                    });
                }
                if !(0.0..=1.0).contains(&frac) {
                    return Err(ConfigError::RatioOutOfRange {
                        knob: "backend.approx.radius_threshold_frac",
                        value: frac,
                    });
                }
                if approx.leader_cap == 0 {
                    return Err(ConfigError::ZeroCount { knob: "backend.approx.leader_cap" });
                }
            }
        }
        for (knob, injection) in [("inject_ne", self.inject_ne), ("inject_rpce", self.inject_rpce)]
        {
            match injection {
                Some(Injection::NnKth(0)) => return Err(ConfigError::ZeroCount { knob }),
                Some(Injection::RadiusShell { inner_frac, outer_frac }) => {
                    non_negative(knob, inner_frac)?;
                    non_negative(knob, outer_frac)?;
                }
                _ => {}
            }
        }
        if self.inject_kpce_kth == Some(0) {
            return Err(ConfigError::ZeroCount { knob: "inject_kpce_kth" });
        }
        // The motion-prior gates may be infinite (disabled) but not negative.
        if self.max_initial_rotation.is_nan() {
            return Err(ConfigError::NotFinite { knob: "max_initial_rotation" });
        }
        non_negative("max_initial_rotation", self.max_initial_rotation)?;
        if self.max_initial_translation.is_nan() {
            return Err(ConfigError::NotFinite { knob: "max_initial_translation" });
        }
        non_negative("max_initial_translation", self.max_initial_translation)?;
        Ok(())
    }
}

impl Default for RegistrationConfig {
    fn default() -> Self {
        RegistrationConfig {
            voxel_size: 0.25,
            normal_algorithm: NormalAlgorithm::PlaneSvd,
            normal_radius: 0.6,
            keypoint: KeypointAlgorithm::Iss { radius: 0.8 },
            descriptor: DescriptorAlgorithm::Fpfh { radius: 1.8 },
            kpce_reciprocal: true,
            kpce_ratio: None,
            rejection: RejectionAlgorithm::Ransac { iterations: 400, inlier_threshold: 0.5 },
            // Point-to-plane converges where point-to-point slides along
            // corridor structure (the aperture problem on walls/ground).
            error_metric: ErrorMetric::PointToPlane,
            solver: SolverAlgorithm::Svd,
            max_correspondence_distance: 2.0,
            rpce_reciprocal: false,
            convergence: ConvergenceCriteria::default(),
            backend: SearchBackendConfig::Classic,
            inject_ne: None,
            inject_rpce: None,
            inject_kpce_kth: None,
            max_initial_rotation: 60.0_f64.to_radians(),
            max_initial_translation: 10.0,
        }
    }
}

/// The eight Pareto-optimal design points of paper Fig. 3/Fig. 4.
///
/// The paper does not tabulate the DPs' exact knob settings; these presets
/// recreate the *spread* the paper describes — DP1/DP2 descriptor-heavy and
/// accurate, DP4 performance-oriented (tight radii, cheap stages), DP7
/// accuracy-oriented (relaxed radii, reciprocal matching, RANSAC), DP8
/// normal-estimation-dominated — so the Fig. 3/4 analyses reproduce in
/// shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignPoint {
    /// Descriptor-heavy, accurate, slow.
    Dp1,
    /// Descriptor-heavy with SHOT.
    Dp2,
    /// Balanced, Harris key-points.
    Dp3,
    /// **Performance-oriented** (paper's perf DP): tight radii, cheap
    /// detector, threshold rejection, early convergence.
    Dp4,
    /// Balanced, SIFT key-points.
    Dp5,
    /// Relaxed ICP with point-to-plane.
    Dp6,
    /// **Accuracy-oriented** (paper's accuracy DP): relaxed radii, FPFH,
    /// reciprocal KPCE, RANSAC, point-to-plane LM.
    Dp7,
    /// Very large normal radius: NE-dominated (paper: NE ≈ 80% of time).
    Dp8,
}

impl DesignPoint {
    /// All eight design points in order.
    pub const ALL: [DesignPoint; 8] = [
        DesignPoint::Dp1,
        DesignPoint::Dp2,
        DesignPoint::Dp3,
        DesignPoint::Dp4,
        DesignPoint::Dp5,
        DesignPoint::Dp6,
        DesignPoint::Dp7,
        DesignPoint::Dp8,
    ];

    /// The registration configuration of this design point.
    pub fn config(self) -> RegistrationConfig {
        let base = RegistrationConfig::default();
        match self {
            DesignPoint::Dp1 => RegistrationConfig {
                normal_radius: 0.6,
                keypoint: KeypointAlgorithm::Iss { radius: 0.8 },
                descriptor: DescriptorAlgorithm::Fpfh { radius: 1.6 },
                kpce_reciprocal: true,
                rejection: RejectionAlgorithm::Ransac { iterations: 600, inlier_threshold: 0.4 },
                convergence: ConvergenceCriteria { max_iterations: 40, ..Default::default() },
                ..base
            },
            DesignPoint::Dp2 => RegistrationConfig {
                normal_radius: 0.6,
                keypoint: KeypointAlgorithm::Iss { radius: 0.8 },
                descriptor: DescriptorAlgorithm::Shot { radius: 1.4 },
                kpce_reciprocal: false,
                kpce_ratio: Some(0.9),
                rejection: RejectionAlgorithm::Ransac { iterations: 400, inlier_threshold: 0.4 },
                ..base
            },
            DesignPoint::Dp3 => RegistrationConfig {
                normal_radius: 0.5,
                keypoint: KeypointAlgorithm::Harris { radius: 0.8 },
                descriptor: DescriptorAlgorithm::Fpfh { radius: 1.0 },
                kpce_reciprocal: false,
                rejection: RejectionAlgorithm::Threshold { factor: 1.0 },
                ..base
            },
            DesignPoint::Dp4 => RegistrationConfig {
                voxel_size: 0.4,
                normal_radius: 0.30,
                keypoint: KeypointAlgorithm::Uniform { voxel: 1.5 },
                descriptor: DescriptorAlgorithm::Fpfh { radius: 0.6 },
                kpce_reciprocal: false,
                rejection: RejectionAlgorithm::Threshold { factor: 1.2 },
                error_metric: ErrorMetric::PointToPlane,
                solver: SolverAlgorithm::Svd,
                convergence: ConvergenceCriteria {
                    max_iterations: 15,
                    mse_relative_epsilon: 1e-3,
                    ..Default::default()
                },
                ..base
            },
            DesignPoint::Dp5 => RegistrationConfig {
                normal_radius: 0.5,
                keypoint: KeypointAlgorithm::Sift { scale: 0.6 },
                descriptor: DescriptorAlgorithm::Fpfh { radius: 1.0 },
                kpce_reciprocal: false,
                rejection: RejectionAlgorithm::Threshold { factor: 1.0 },
                ..base
            },
            DesignPoint::Dp6 => RegistrationConfig {
                normal_radius: 0.5,
                keypoint: KeypointAlgorithm::Iss { radius: 1.0 },
                descriptor: DescriptorAlgorithm::Fpfh { radius: 0.9 },
                error_metric: ErrorMetric::PointToPlane,
                solver: SolverAlgorithm::Svd,
                ..base
            },
            DesignPoint::Dp7 => RegistrationConfig {
                voxel_size: 0.25,
                normal_radius: 0.75,
                keypoint: KeypointAlgorithm::Iss { radius: 0.9 },
                descriptor: DescriptorAlgorithm::Fpfh { radius: 1.5 },
                kpce_reciprocal: true,
                rejection: RejectionAlgorithm::Ransac { iterations: 800, inlier_threshold: 0.3 },
                error_metric: ErrorMetric::PointToPlane,
                solver: SolverAlgorithm::LevenbergMarquardt,
                convergence: ConvergenceCriteria { max_iterations: 50, ..Default::default() },
                ..base
            },
            DesignPoint::Dp8 => RegistrationConfig {
                normal_radius: 1.5,
                keypoint: KeypointAlgorithm::Uniform { voxel: 2.0 },
                descriptor: DescriptorAlgorithm::Fpfh { radius: 0.8 },
                kpce_reciprocal: false,
                rejection: RejectionAlgorithm::Threshold { factor: 1.2 },
                convergence: ConvergenceCriteria { max_iterations: 10, ..Default::default() },
                ..base
            },
        }
    }

    /// Display name ("DP1" … "DP8").
    pub fn name(self) -> &'static str {
        match self {
            DesignPoint::Dp1 => "DP1",
            DesignPoint::Dp2 => "DP2",
            DesignPoint::Dp3 => "DP3",
            DesignPoint::Dp4 => "DP4",
            DesignPoint::Dp5 => "DP5",
            DesignPoint::Dp6 => "DP6",
            DesignPoint::Dp7 => "DP7",
            DesignPoint::Dp8 => "DP8",
        }
    }
}

impl std::fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = RegistrationConfig::default();
        assert!(c.normal_radius > 0.0);
        assert!(c.max_correspondence_distance > 0.0);
        assert!(c.convergence.max_iterations > 0);
        assert!(c.inject_ne.is_none() && c.inject_rpce.is_none());
    }

    #[test]
    fn all_design_points_have_configs() {
        for dp in DesignPoint::ALL {
            let c = dp.config();
            assert!(c.normal_radius > 0.0, "{dp}");
            assert!(c.descriptor.radius() > 0.0, "{dp}");
        }
    }

    #[test]
    fn dp4_is_cheaper_than_dp7() {
        // The performance DP must use tighter radii and fewer iterations
        // than the accuracy DP (paper Sec. 6.3: NE radius 0.30 vs 0.75).
        let dp4 = DesignPoint::Dp4.config();
        let dp7 = DesignPoint::Dp7.config();
        assert!(dp4.normal_radius < dp7.normal_radius);
        assert!((dp4.normal_radius - 0.30).abs() < 1e-12);
        assert!((dp7.normal_radius - 0.75).abs() < 1e-12);
        assert!(dp4.convergence.max_iterations < dp7.convergence.max_iterations);
    }

    #[test]
    fn dp8_is_normal_estimation_heavy() {
        let dp8 = DesignPoint::Dp8.config();
        for dp in DesignPoint::ALL {
            assert!(dp8.normal_radius >= dp.config().normal_radius, "{dp}");
        }
    }

    #[test]
    fn names_round_trip() {
        for (i, dp) in DesignPoint::ALL.iter().enumerate() {
            assert_eq!(dp.name(), format!("DP{}", i + 1));
            assert_eq!(dp.to_string(), dp.name());
        }
    }

    #[test]
    fn descriptor_radius_accessor() {
        assert_eq!(DescriptorAlgorithm::Fpfh { radius: 1.5 }.radius(), 1.5);
        assert_eq!(DescriptorAlgorithm::Shot { radius: 2.0 }.radius(), 2.0);
        assert_eq!(DescriptorAlgorithm::Sc3d { radius: 0.5 }.radius(), 0.5);
    }

    #[test]
    fn builder_accepts_valid_knobs() {
        let cfg = RegistrationConfig {
            normal_radius: 0.6,
            backend: SearchBackendConfig::TwoStage { top_height: 8 },
            kpce_ratio: Some(0.85),
            max_correspondence_distance: 1.5,
            ..Default::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn builder_rejects_negative_radii() {
        assert_eq!(
            RegistrationConfig { normal_radius: -0.5, ..Default::default() }.validate(),
            Err(ConfigError::NonPositive { knob: "normal_radius", value: -0.5 })
        );
        assert_eq!(
            RegistrationConfig {
                descriptor: DescriptorAlgorithm::Fpfh { radius: 0.0 },
                ..Default::default()
            }
            .validate(),
            Err(ConfigError::NonPositive { knob: "descriptor.radius", value: 0.0 })
        );
        assert_eq!(
            RegistrationConfig { voxel_size: -0.1, ..Default::default() }.validate(),
            Err(ConfigError::Negative { knob: "voxel_size", value: -0.1 })
        );
        assert_eq!(
            RegistrationConfig {
                keypoint: KeypointAlgorithm::Iss { radius: -1.0 },
                ..Default::default()
            }
            .validate(),
            Err(ConfigError::NonPositive { knob: "keypoint.radius", value: -1.0 })
        );
    }

    #[test]
    fn builder_rejects_ratio_above_one() {
        assert_eq!(
            RegistrationConfig { kpce_ratio: Some(1.2), ..Default::default() }.validate(),
            Err(ConfigError::RatioOutOfRange { knob: "kpce_ratio", value: 1.2 })
        );
        assert_eq!(
            RegistrationConfig { kpce_ratio: Some(0.0), ..Default::default() }.validate(),
            Err(ConfigError::RatioOutOfRange { knob: "kpce_ratio", value: 0.0 })
        );
        assert_eq!(
            RegistrationConfig { kpce_ratio: Some(1.0), ..Default::default() }.validate(),
            Ok(())
        );
    }

    #[test]
    fn builder_rejects_zero_iterations() {
        assert_eq!(
            RegistrationConfig {
                convergence: ConvergenceCriteria { max_iterations: 0, ..Default::default() },
                ..Default::default()
            }
            .validate(),
            Err(ConfigError::ZeroCount { knob: "convergence.max_iterations" })
        );
        assert_eq!(
            RegistrationConfig {
                rejection: RejectionAlgorithm::Ransac { iterations: 0, inlier_threshold: 0.5 },
                ..Default::default()
            }
            .validate(),
            Err(ConfigError::ZeroCount { knob: "rejection.iterations" })
        );
    }

    #[test]
    fn builder_rejects_degenerate_backends() {
        assert_eq!(
            RegistrationConfig {
                backend: SearchBackendConfig::TwoStage { top_height: 0 },
                ..Default::default()
            }
            .validate(),
            Err(ConfigError::ZeroCount { knob: "backend.top_height" })
        );
        let bad_approx = SearchBackendConfig::TwoStageApprox {
            top_height: 5,
            approx: ApproxConfig { radius_threshold_frac: 1.5, ..Default::default() },
        };
        assert_eq!(
            RegistrationConfig { backend: bad_approx, ..Default::default() }.validate(),
            Err(ConfigError::RatioOutOfRange {
                knob: "backend.approx.radius_threshold_frac",
                value: 1.5
            })
        );
        // Brute force carries no knobs to reject.
        assert_eq!(
            RegistrationConfig { backend: SearchBackendConfig::BruteForce, ..Default::default() }
                .validate(),
            Ok(())
        );
    }

    #[test]
    fn builder_rejects_non_finite_knobs() {
        assert_eq!(
            RegistrationConfig { normal_radius: f64::NAN, ..Default::default() }.validate(),
            Err(ConfigError::NotFinite { knob: "normal_radius" })
        );
        // Infinity *is* valid for the motion-prior gates (disables them)…
        assert_eq!(
            RegistrationConfig { max_initial_rotation: f64::INFINITY, ..Default::default() }
                .validate(),
            Ok(())
        );
        // …but not for radii.
        assert_eq!(
            RegistrationConfig { max_correspondence_distance: f64::INFINITY, ..Default::default() }
                .validate(),
            Err(ConfigError::NotFinite { knob: "max_correspondence_distance" })
        );
    }

    #[test]
    fn builder_rejects_zero_injection_ranks() {
        assert_eq!(
            RegistrationConfig { inject_rpce: Some(Injection::NnKth(0)), ..Default::default() }
                .validate(),
            Err(ConfigError::ZeroCount { knob: "inject_rpce" })
        );
        assert_eq!(
            RegistrationConfig { inject_kpce_kth: Some(0), ..Default::default() }.validate(),
            Err(ConfigError::ZeroCount { knob: "inject_kpce_kth" })
        );
        let shell = Injection::RadiusShell { inner_frac: 0.5, outer_frac: 1.25 };
        assert_eq!(
            RegistrationConfig { inject_ne: Some(shell), ..Default::default() }.validate(),
            Ok(())
        );
    }

    #[test]
    fn all_design_points_pass_validation() {
        for dp in DesignPoint::ALL {
            assert_eq!(dp.config().validate(), Ok(()), "{dp} must validate");
        }
        assert_eq!(RegistrationConfig::default().validate(), Ok(()));
    }

    #[test]
    fn same_front_end_ignores_matching_knobs() {
        let base = RegistrationConfig::default();
        // Matching/ICP knobs don't affect front-end compatibility.
        let mut matching = base.clone();
        matching.kpce_reciprocal = !base.kpce_reciprocal;
        matching.max_correspondence_distance = 1.0;
        matching.convergence.max_iterations = 5;
        matching.rejection = RejectionAlgorithm::Threshold { factor: 1.1 };
        assert!(base.same_front_end(&matching));
        // Any preparation knob breaks it.
        let mut prep = base.clone();
        prep.normal_radius += 0.1;
        assert!(!base.same_front_end(&prep));
        let mut prep = base.clone();
        prep.voxel_size = 0.0;
        assert!(!base.same_front_end(&prep));
        let mut prep = base.clone();
        prep.backend = SearchBackendConfig::BruteForce;
        assert!(!base.same_front_end(&prep));
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(SearchBackendConfig::Classic.name(), "classic");
        assert_eq!(SearchBackendConfig::TwoStage { top_height: 3 }.name(), "two-stage");
        assert_eq!(
            SearchBackendConfig::TwoStageApprox { top_height: 3, approx: ApproxConfig::default() }
                .name(),
            "two-stage-approx"
        );
        assert_eq!(SearchBackendConfig::BruteForce.name(), "brute-force");
        assert_eq!(SearchBackendConfig::Custom { name: "accelerator" }.name(), "accelerator");
    }

    #[test]
    fn config_error_display_is_informative() {
        let e = ConfigError::NonPositive { knob: "normal_radius", value: -1.0 };
        assert!(e.to_string().contains("normal_radius"));
        let e = ConfigError::UnknownBackend { name: "warp" };
        assert!(e.to_string().contains("warp"));
    }
}
