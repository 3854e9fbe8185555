//! The configurable point-cloud registration pipeline (paper Sec. 3,
//! Fig. 2, Tbl. 1).
//!
//! The pipeline has two phases. **Initial estimation** matches sparse
//! salient points: normal estimation → key-point detection → descriptor
//! calculation → key-point correspondence estimation (KPCE) →
//! correspondence rejection → initial transform. **Fine-tuning** runs
//! Iterative Closest Point over the dense clouds: raw-point correspondence
//! estimation (RPCE) → transformation estimation, iterated to convergence.
//!
//! Execution is layered around per-frame artifacts: [`prepare_frame`]
//! turns one cloud into a [`PreparedFrame`] (downsampled points behind an
//! owned searcher, normals, key-points, descriptors) and
//! [`register_prepared`] matches two prepared frames; [`register`] is
//! exactly prepare + prepare + match. Streaming consumers — the
//! [`Odometer`], matching-knob DSE sweeps ([`dse::sweep_matching`]) —
//! reuse preparations so no frame's front end ever runs twice.
//!
//! Every algorithmic and parametric knob of the paper's Tbl. 1 is exposed
//! through [`RegistrationConfig`]; the design-space exploration of Fig. 3
//! sweeps them via [`dse`].
//!
//! All neighbor searches go through [`search::Searcher3`], a metering /
//! injection / logging wrapper over the pluggable
//! `tigris_core::SearchIndex` seam: the classic KD-tree, the two-stage
//! tree, approximate leader/follower search, the brute-force oracle, and
//! registry-resolved custom backends (e.g. `tigris-accel`'s online
//! accelerator model) all serve the identical pipeline. A configuration is
//! a plain struct (a literal, `Default`, or a [`DesignPoint`] preset);
//! every entry point checks it with [`RegistrationConfig::validate`] and
//! rejects invalid knobs with [`RegistrationError::InvalidConfig`]
//! carrying a typed [`config::ConfigError`].
//!
//! # Example
//!
//! ```no_run
//! use tigris_pipeline::{register, RegistrationConfig};
//! use tigris_data::{Sequence, SequenceConfig};
//!
//! let seq = Sequence::generate(&SequenceConfig::tiny(), 1);
//! let cfg = RegistrationConfig::default();
//! let result = register(seq.frame(1), seq.frame(0), &cfg).unwrap();
//! println!("estimated transform: {}", result.transform);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod correspond;
pub mod descriptor;
pub mod dse;
pub mod icp;
#[cfg(test)]
mod inject;
pub mod keypoint;
pub mod normal;
pub mod odometry;
pub mod pipeline;
pub mod profile;
pub mod reject;
pub mod scratch;
pub mod search;
pub mod transform;

pub use config::{
    ConfigError, ConvergenceCriteria, DescriptorAlgorithm, DesignPoint, ErrorMetric,
    KeypointAlgorithm, NormalAlgorithm, RegistrationConfig, RejectionAlgorithm,
    SearchBackendConfig, SolverAlgorithm,
};
pub use correspond::Correspondence;
pub use icp::IcpResult;
pub use odometry::{Odometer, OdometryStep};
pub use pipeline::prepare_frame_with;
pub use pipeline::{
    prepare_frame, prepare_frame_from_searcher, register, register_prepared,
    register_prepared_with_prior, PreparedFrame, RegistrationError, RegistrationResult,
    PRIOR_ROTATION_SLACK, PRIOR_TRANSLATION_SLACK,
};
pub use profile::{Stage, StageProfile};
pub use scratch::{GroupScratch, NeighborTable, PrepareScratch};
pub use search::{Injection, Searcher3};
