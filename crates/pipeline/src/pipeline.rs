//! End-to-end registration: the full two-phase pipeline of paper Fig. 2,
//! split into two composable layers.
//!
//! * **Frame preparation** ([`prepare_frame`]) turns one cloud into a
//!   [`PreparedFrame`]: downsampled points behind an owned
//!   [`Searcher3`], per-point normals, key-points and descriptors —
//!   everything about a frame that does not depend on what it is matched
//!   against, each stage timed into the frame's [`StageProfile`].
//! * **Pairwise matching** ([`register_prepared`]) runs KPCE →
//!   correspondence rejection → SVD initial estimate → ICP fine-tuning
//!   over two prepared frames.
//!
//! [`register`] is exactly prepare + prepare + match. The split exists
//! for streaming workloads: in LiDAR odometry (paper Sec. 2.2) every
//! frame is first a registration *source* and one step later the
//! *target*, so carrying the [`PreparedFrame`] forward halves front-end
//! work per streamed frame (see [`crate::odometry::Odometer`]); DSE
//! sweeps that vary only matching knobs reuse preparations the same way
//! ([`crate::dse::sweep_matching`]).

use std::time::Instant;

use tigris_geom::{PointCloud, RigidTransform, Vec3};

use crate::config::{ConfigError, KeypointAlgorithm, RegistrationConfig};
use crate::correspond::{kpce, kpce_ratio, NeighborGraph};
use crate::descriptor::{compute_descriptors_with, Descriptors};
use crate::icp::{IcpResult, IcpTermination};
use crate::keypoint::{detect_keypoints_with, iss_sharing_normals};
use crate::normal::estimate_normals_keeping;
use crate::profile::{Stage, StageProfile};
use crate::reject::reject_correspondences;
use crate::scratch::PrepareScratch;
use crate::search::Searcher3;
use crate::transform::estimate_svd;

/// Slack added to a motion prior's translation norm when tightening the
/// initial-estimate gate (meters): consecutive frames are not expected to
/// move more than the previous step's motion plus this.
pub const PRIOR_TRANSLATION_SLACK: f64 = 2.0;

/// Slack added to a motion prior's rotation angle when tightening the
/// initial-estimate gate (radians); see [`PRIOR_TRANSLATION_SLACK`].
pub const PRIOR_ROTATION_SLACK: f64 = 0.2;

/// Registration failure modes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegistrationError {
    /// A frame was empty (or became empty after downsampling).
    EmptyCloud,
    /// A frame holds a point with a NaN or infinite coordinate, which no
    /// search index can order.
    NonFinitePoint,
    /// The fine-tuning phase ran out of correspondences entirely.
    IcpStarved,
    /// The configuration failed [`RegistrationConfig::validate`], or
    /// names a `Custom` search backend that is not in the registry
    /// ([`ConfigError::UnknownBackend`]). Every entry point checks its
    /// config before it changes any state, so a rejected config leaves
    /// the caller's frames, odometer or map as they were.
    InvalidConfig(ConfigError),
    /// A [`PreparedFrame`] handed to [`register_prepared`] was prepared
    /// under different front-end knobs than the matching config (see
    /// [`RegistrationConfig::same_front_end`]) — its artifacts would not
    /// be the ones this configuration describes.
    PreparationMismatch,
}

impl std::fmt::Display for RegistrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistrationError::EmptyCloud => write!(f, "a frame holds no points"),
            RegistrationError::NonFinitePoint => {
                write!(f, "a frame holds a point with a non-finite coordinate")
            }
            RegistrationError::IcpStarved => {
                write!(f, "fine-tuning found no correspondences; clouds may not overlap")
            }
            RegistrationError::InvalidConfig(err) => write!(f, "invalid configuration: {err}"),
            RegistrationError::PreparationMismatch => write!(
                f,
                "a prepared frame's front-end configuration disagrees with the matching config"
            ),
        }
    }
}

impl std::error::Error for RegistrationError {}

impl From<ConfigError> for RegistrationError {
    fn from(err: ConfigError) -> Self {
        RegistrationError::InvalidConfig(err)
    }
}

/// The output of end-to-end registration.
#[derive(Debug, Clone)]
pub struct RegistrationResult {
    /// The estimated transform mapping source coordinates into target
    /// coordinates (the paper's matrix `M`, Eq. 1).
    pub transform: RigidTransform,
    /// The initial-estimation phase's transform, before fine-tuning.
    pub initial_transform: RigidTransform,
    /// Per-stage and per-kernel timing plus KD-tree statistics.
    pub profile: StageProfile,
    /// Key-point counts (source, target).
    pub keypoints: (usize, usize),
    /// Correspondences surviving rejection.
    pub inlier_correspondences: usize,
    /// ICP iterations run.
    pub icp_iterations: usize,
}

/// One frame's pair-independent registration artifacts: the outputs of
/// the front-end stages, keyed by the (downsampled) cloud they were
/// computed over.
struct FrontEndArtifacts {
    /// Per-point surface normals, parallel to the searcher's cloud.
    normals: Vec<Vec3>,
    /// Key-point indices into the searcher's cloud, sorted ascending.
    keypoints: Vec<usize>,
    /// The key-points' coordinates (precomputed once so the matching
    /// layer never re-gathers them per pair).
    keypoint_points: Vec<Vec3>,
    /// One descriptor row per key-point.
    descriptors: Descriptors,
    /// The neighbour graph RPCE certifies reuse with when this frame is
    /// a registration target; harvested from the front end's radius
    /// pass when the searcher is exact and unobserved, `None` otherwise.
    graph: Option<NeighborGraph>,
}

/// A frame run through the preparation layer: downsampled points behind
/// an owned metered [`Searcher3`], plus normals, key-points and
/// descriptors.
///
/// A `PreparedFrame` is the unit of front-end reuse: it can serve as the
/// source of one registration and the target of the next without
/// recomputing anything (the [`crate::odometry::Odometer`]'s streaming
/// pattern), or be matched against many counterparts under different
/// matching knobs ([`crate::dse::sweep_matching`]). Both frames of a
/// pair must have been prepared with the same front-end configuration
/// (see [`RegistrationConfig::same_front_end`]).
///
/// # Example
///
/// ```no_run
/// use tigris_pipeline::{prepare_frame, register_prepared, RegistrationConfig};
/// use tigris_data::{Sequence, SequenceConfig};
///
/// let seq = Sequence::generate(&SequenceConfig::tiny(), 7);
/// let cfg = RegistrationConfig::default();
/// let mut target = prepare_frame(seq.frame(0), &cfg).unwrap();
/// let mut source = prepare_frame(seq.frame(1), &cfg).unwrap();
/// // Identical to register(seq.frame(1), seq.frame(0), &cfg) —
/// // but `source` and `target` remain reusable afterwards.
/// let result = register_prepared(&mut source, &mut target, &cfg).unwrap();
/// println!("{}", result.transform);
/// ```
pub struct PreparedFrame {
    searcher: Searcher3,
    artifacts: FrontEndArtifacts,
    /// The configuration the frame was prepared under; its front-end
    /// knobs must agree with the matching config
    /// ([`RegistrationError::PreparationMismatch`] otherwise).
    config: RegistrationConfig,
    /// Preparation cost: front-end stage times, index build time, and the
    /// search time/stats the front end consumed.
    profile: StageProfile,
    /// Whether `profile` was already merged into a registration result;
    /// later registrations count this frame as reused instead.
    billed: bool,
}

impl std::fmt::Debug for PreparedFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedFrame")
            .field("points", &self.searcher.len())
            .field("backend", &self.searcher.backend_name())
            .field("keypoints", &self.artifacts.keypoints.len())
            .field("descriptor_dim", &self.artifacts.descriptors.dim)
            .field("billed", &self.billed)
            .finish()
    }
}

impl PreparedFrame {
    /// The prepared (downsampled) points the artifacts were computed over.
    pub fn points(&self) -> &[Vec3] {
        self.searcher.points()
    }

    /// Number of prepared points.
    pub fn len(&self) -> usize {
        self.searcher.len()
    }

    /// `true` when the frame holds no points (never true for frames built
    /// by [`prepare_frame`], which rejects empty clouds).
    pub fn is_empty(&self) -> bool {
        self.searcher.is_empty()
    }

    /// Per-point surface normals, parallel to [`PreparedFrame::points`].
    pub fn normals(&self) -> &[Vec3] {
        &self.artifacts.normals
    }

    /// Key-point indices into [`PreparedFrame::points`], sorted ascending.
    pub fn keypoints(&self) -> &[usize] {
        &self.artifacts.keypoints
    }

    /// The key-points' coordinates, parallel to
    /// [`PreparedFrame::keypoints`].
    pub fn keypoint_points(&self) -> &[Vec3] {
        &self.artifacts.keypoint_points
    }

    /// The key-points' feature descriptors.
    pub fn descriptors(&self) -> &Descriptors {
        &self.artifacts.descriptors
    }

    /// The search backend serving this frame's queries.
    pub fn backend_name(&self) -> &'static str {
        self.searcher.backend_name()
    }

    /// The configuration this frame was prepared under.
    pub fn config(&self) -> &RegistrationConfig {
        &self.config
    }

    /// The preparation cost (front-end stage times, index build, search
    /// meters), whether or not it was billed to a result yet.
    pub fn prepare_profile(&self) -> &StageProfile {
        &self.profile
    }

    /// Direct access to the owned searcher, for experiments that need
    /// backend-specific state (query logs, accelerator meters).
    pub fn searcher_mut(&mut self) -> &mut Searcher3 {
        &mut self.searcher
    }

    /// First call returns the preparation profile for billing into a
    /// result; later calls return `None` (the frame is then a *reuse*).
    pub(crate) fn consume_preparation(&mut self) -> Option<StageProfile> {
        if self.billed {
            None
        } else {
            self.billed = true;
            Some(self.profile.clone())
        }
    }
}

/// The ISS radius when normal estimation and key-point detection can
/// share one radius pass (ARCHITECTURE.md invariant 10): the detector is
/// ISS at a radius no smaller than the normal radius, no error is
/// injected into normal estimation, and the searcher's queries are
/// skippable — exact, stateless, unlogged — so no observer misses the
/// queries the shared pass does not issue.
fn shared_iss_radius(searcher: &Searcher3, cfg: &RegistrationConfig) -> Option<f64> {
    match cfg.keypoint {
        KeypointAlgorithm::Iss { radius }
            if radius >= cfg.normal_radius
                && cfg.inject_ne.is_none()
                && searcher.queries_skippable() =>
        {
            Some(radius)
        }
        _ => None,
    }
}

/// Runs the front-end stages over an already-built searcher, metering
/// each stage and the searcher's incremental search work into `profile`.
fn run_front_end(
    searcher: &mut Searcher3,
    cfg: &RegistrationConfig,
    profile: &mut StageProfile,
    scratch: &mut PrepareScratch,
) -> FrontEndArtifacts {
    let search_time0 = searcher.search_time();
    let stats0 = *searcher.stats();
    let bytes_grown0 = scratch.bytes_grown();
    let reuses0 = scratch.reuses();

    // ---- Stages 1 + 2: Normal Estimation, Key-point Detection -------------
    // The neighbour graph comes from whichever pass computes the rows,
    // when its searcher is exact and unobserved.
    let (normals, keypoints, graph) = match shared_iss_radius(searcher, cfg) {
        // One radius pass serves both stages: the search and the normal
        // fits bill to normal estimation, ISS fits and suppression to
        // key-point detection.
        Some(radius) => {
            let t0 = Instant::now();
            let span = tigris_obs::span!("prepare.normals", points = searcher.len(), iss = radius);
            let pass = iss_sharing_normals(
                searcher,
                radius,
                cfg.normal_radius,
                cfg.normal_algorithm,
                scratch,
            );
            drop(span);
            profile.add(Stage::NormalEstimation, t0.elapsed().saturating_sub(pass.keypoint_time));
            profile.add(Stage::KeypointDetection, pass.keypoint_time);
            (pass.normals, pass.keypoints, Some(pass.graph))
        }
        None => {
            let t0 = Instant::now();
            let span = tigris_obs::span!("prepare.normals", points = searcher.len());
            searcher.set_injection(cfg.inject_ne);
            let mut graph =
                searcher.queries_skippable().then(|| NeighborGraph::for_points(searcher.len()));
            let normals = estimate_normals_keeping(
                searcher,
                cfg.normal_radius,
                cfg.normal_algorithm,
                scratch,
                graph.as_mut(),
            );
            searcher.set_injection(None);
            drop(span);
            profile.add(Stage::NormalEstimation, t0.elapsed());

            let t0 = Instant::now();
            let span = tigris_obs::span!("prepare.keypoints");
            let keypoints = detect_keypoints_with(searcher, &normals, cfg.keypoint, scratch);
            drop(span);
            profile.add(Stage::KeypointDetection, t0.elapsed());
            (normals, keypoints, graph)
        }
    };

    // ---- Stage 3: Descriptor Calculation ---------------------------------
    let t0 = Instant::now();
    let span = tigris_obs::span!("prepare.descriptors", keypoints = keypoints.len());
    let descriptors =
        compute_descriptors_with(searcher, &normals, &keypoints, cfg.descriptor, scratch);
    drop(span);
    profile.add(Stage::DescriptorCalculation, t0.elapsed());

    let keypoint_points = {
        let pts = searcher.points();
        keypoints.iter().map(|&i| pts[i]).collect()
    };

    // Attribute exactly the search work the front end caused — deltas, so
    // a searcher reused across registrations never double-bills.
    profile.kd_search_time += searcher.search_time().saturating_sub(search_time0);
    profile.search_stats += *searcher.stats() - stats0;
    // Close out the scratch frame and attribute its growth/reuse the same
    // way (deltas: a scratch reused across frames never double-bills).
    scratch.note_frame_end();
    profile.scratch_bytes_grown += scratch.bytes_grown() - bytes_grown0;
    profile.scratch_reuses += scratch.reuses() - reuses0;

    FrontEndArtifacts { normals, keypoints, keypoint_points, descriptors, graph }
}

/// Prepares one frame for registration: voxel-downsamples (per
/// `cfg.voxel_size`), builds the configured search backend over the
/// points, and runs normal estimation, key-point detection and
/// descriptor calculation — each timed into the frame's profile.
///
/// # Errors
///
/// [`RegistrationError::EmptyCloud`] when the cloud is empty (or becomes
/// empty after downsampling); [`RegistrationError::NonFinitePoint`] when
/// any coordinate is NaN or infinite; [`RegistrationError::InvalidConfig`]
/// when `cfg` fails [`RegistrationConfig::validate`] or names an
/// unregistered `Custom` backend.
pub fn prepare_frame(
    cloud: &PointCloud,
    cfg: &RegistrationConfig,
) -> Result<PreparedFrame, RegistrationError> {
    prepare_frame_with(cloud, cfg, &mut PrepareScratch::new())
}

/// [`prepare_frame`] with caller-owned front-end scratch: the normal and
/// descriptor stages run in the scratch's reusable buffers, so a caller
/// streaming frames through one scratch (the [`crate::Odometer`]'s
/// pattern) prepares steady-state frames without transient heap
/// allocation. The scratch's growth/reuse counters land in the frame's
/// [`StageProfile`].
///
/// # Errors
///
/// As [`prepare_frame`].
pub fn prepare_frame_with(
    cloud: &PointCloud,
    cfg: &RegistrationConfig,
    scratch: &mut PrepareScratch,
) -> Result<PreparedFrame, RegistrationError> {
    let _span = tigris_obs::span!("pipeline.prepare", points = cloud.len());
    let t0 = Instant::now();
    cfg.validate()?;
    if !cloud.points().iter().all(|p| p.is_finite()) {
        return Err(RegistrationError::NonFinitePoint);
    }
    // Downsample when configured; otherwise index the cloud's points
    // directly (no intermediate copy on the no-downsample path).
    let searcher = if cfg.voxel_size > 0.0 {
        let down = {
            let _s = tigris_obs::span!("prepare.downsample", voxel = cfg.voxel_size);
            cloud.voxel_downsample(cfg.voxel_size)
        };
        if down.points().is_empty() {
            return Err(RegistrationError::EmptyCloud);
        }
        let _s = tigris_obs::span!("prepare.index_build", points = down.points().len());
        Searcher3::from_config(down.points(), &cfg.backend)?
    } else {
        if cloud.points().is_empty() {
            return Err(RegistrationError::EmptyCloud);
        }
        let _s = tigris_obs::span!("prepare.index_build", points = cloud.points().len());
        Searcher3::from_config(cloud.points(), &cfg.backend)?
    };
    finish_preparation(searcher, cfg, t0, std::time::Duration::ZERO, scratch)
}

/// Prepares a frame over a caller-built searcher — the entry point for
/// experiments that need hand-constructed backends or query logging on a
/// specific frame. The searcher's points are taken as already
/// downsampled; its build time is billed to the preparation.
///
/// # Errors
///
/// [`RegistrationError::InvalidConfig`] when `cfg` fails
/// [`RegistrationConfig::validate`]; [`RegistrationError::EmptyCloud`]
/// when the searcher indexes no points.
pub fn prepare_frame_from_searcher(
    searcher: Searcher3,
    cfg: &RegistrationConfig,
) -> Result<PreparedFrame, RegistrationError> {
    cfg.validate()?;
    if searcher.is_empty() {
        return Err(RegistrationError::EmptyCloud);
    }
    // The index was built before this call, so its build time is added to
    // the layer total explicitly (prepare_frame's clock covers the build
    // because it starts before construction).
    let build_time = searcher.build_time();
    finish_preparation(searcher, cfg, Instant::now(), build_time, &mut PrepareScratch::new())
}

fn finish_preparation(
    mut searcher: Searcher3,
    cfg: &RegistrationConfig,
    t0: Instant,
    prior_prepare_time: std::time::Duration,
    scratch: &mut PrepareScratch,
) -> Result<PreparedFrame, RegistrationError> {
    let mut profile = StageProfile::new();
    profile.kd_build_time += searcher.build_time();
    let artifacts = run_front_end(&mut searcher, cfg, &mut profile, scratch);
    profile.frames_prepared = 1;
    profile.prepare_time = prior_prepare_time + t0.elapsed();
    Ok(PreparedFrame { searcher, artifacts, config: cfg.clone(), profile, billed: false })
}

/// What the matching layer determines about a pair (everything in a
/// [`RegistrationResult`] except the profile).
struct MatchSummary {
    initial: RigidTransform,
    icp: IcpResult,
    keypoints: (usize, usize),
    inliers: usize,
}

/// KPCE → rejection → gated SVD initial estimate → ICP, over two frames'
/// artifacts. `prior` optionally tightens the initial-estimate gates
/// around an expected motion (the odometer's constant-velocity prior).
fn run_match(
    src_searcher: &mut Searcher3,
    src: &FrontEndArtifacts,
    tgt_searcher: &mut Searcher3,
    tgt: &FrontEndArtifacts,
    cfg: &RegistrationConfig,
    prior: Option<&RigidTransform>,
    profile: &mut StageProfile,
) -> Result<MatchSummary, RegistrationError> {
    let _span = tigris_obs::span!(
        "pipeline.match",
        src_keypoints = src.keypoints.len(),
        tgt_keypoints = tgt.keypoints.len(),
    );
    let src_search_time0 = src_searcher.search_time();
    let src_stats0 = *src_searcher.stats();
    let tgt_search_time0 = tgt_searcher.search_time();
    let tgt_stats0 = *tgt_searcher.stats();

    // ---- Stage 4: KPCE ----------------------------------------------------
    let t0 = Instant::now();
    let kpce_span = tigris_obs::span!("match.kpce");
    let matches = match cfg.kpce_ratio {
        // The ratio test replaces plain NN matching (injection is an
        // NN-path experiment and does not combine with it).
        Some(ratio) if cfg.inject_kpce_kth.is_none() => {
            kpce_ratio(&src.descriptors, &tgt.descriptors, ratio)
        }
        _ => kpce(&src.descriptors, &tgt.descriptors, cfg.kpce_reciprocal, cfg.inject_kpce_kth),
    };
    drop(kpce_span);
    profile.add(Stage::Kpce, t0.elapsed());

    // ---- Stage 5: Correspondence Rejection --------------------------------
    let t0 = Instant::now();
    let reject_span = tigris_obs::span!("match.reject", matches = matches.len());
    let inliers = reject_correspondences(
        &matches,
        &src.keypoint_points,
        &tgt.keypoint_points,
        cfg.rejection,
        0x7161,
    );
    drop(reject_span);
    profile.add(Stage::CorrespondenceRejection, t0.elapsed());

    // ---- Initial transform -------------------------------------------------
    let mut initial = estimate_svd(&src.keypoint_points, &tgt.keypoint_points, &inliers)
        .unwrap_or(RigidTransform::IDENTITY);
    // Motion-prior gate: consecutive frames cannot move this much; a
    // violating estimate is a symmetric-scene mismatch (see config docs).
    // An explicit prior tightens both gates around the expected motion.
    let (max_rotation, max_translation) = match prior {
        Some(v) => (
            cfg.max_initial_rotation.min(v.rotation_angle() + PRIOR_ROTATION_SLACK),
            cfg.max_initial_translation.min(v.translation_norm() + PRIOR_TRANSLATION_SLACK),
        ),
        None => (cfg.max_initial_rotation, cfg.max_initial_translation),
    };
    if initial.rotation_angle() > max_rotation || initial.translation_norm() > max_translation {
        initial = RigidTransform::IDENTITY;
    }

    // ---- Fine-tuning: ICP ---------------------------------------------------
    let icp_span = tigris_obs::span!("match.icp", inliers = inliers.len());
    tgt_searcher.set_injection(cfg.inject_rpce);
    let icp_result = crate::icp::icp_with_graph(
        src_searcher.points(),
        tgt_searcher,
        tgt.graph.as_ref(),
        &tgt.normals,
        initial,
        cfg.error_metric,
        cfg.solver,
        cfg.max_correspondence_distance,
        cfg.rpce_reciprocal,
        &cfg.convergence,
        profile,
    );
    tgt_searcher.set_injection(None);
    drop(icp_span);

    if icp_result.termination == IcpTermination::Starved && icp_result.iterations <= 1 {
        return Err(RegistrationError::IcpStarved);
    }

    // Fold the search work this match caused into the profile (deltas:
    // reused searchers carry meters from earlier registrations).
    profile.kd_search_time += src_searcher.search_time().saturating_sub(src_search_time0)
        + tgt_searcher.search_time().saturating_sub(tgt_search_time0);
    profile.search_stats += *src_searcher.stats() - src_stats0;
    profile.search_stats += *tgt_searcher.stats() - tgt_stats0;

    Ok(MatchSummary {
        initial,
        icp: icp_result,
        keypoints: (src.keypoints.len(), tgt.keypoints.len()),
        inliers: inliers.len(),
    })
}

fn assemble_result(summary: MatchSummary, profile: StageProfile) -> RegistrationResult {
    RegistrationResult {
        transform: summary.icp.transform,
        initial_transform: summary.initial,
        profile,
        keypoints: summary.keypoints,
        inlier_correspondences: summary.inliers,
        icp_iterations: summary.icp.iterations,
    }
}

/// Registers `source` onto `target` with the given configuration,
/// returning the transform that maps source coordinates into the target
/// frame.
///
/// This is exactly [`prepare_frame`] on each cloud followed by
/// [`register_prepared`] — streaming callers that want to reuse a
/// frame's preparation should call those layers directly.
///
/// # Errors
///
/// [`RegistrationError::EmptyCloud`] when either frame is empty;
/// [`RegistrationError::IcpStarved`] when fine-tuning cannot find any
/// overlap; [`RegistrationError::InvalidConfig`] when the config fails
/// [`RegistrationConfig::validate`] or selects an unregistered `Custom`
/// search backend.
///
/// # Example
///
/// ```no_run
/// use tigris_pipeline::{register, RegistrationConfig};
/// use tigris_data::{Sequence, SequenceConfig};
///
/// let seq = Sequence::generate(&SequenceConfig::tiny(), 7);
/// let result = register(seq.frame(1), seq.frame(0), &RegistrationConfig::default()).unwrap();
/// let gt = seq.ground_truth_relative(0);
/// assert!((result.transform.translation - gt.translation).norm() < 0.5);
/// ```
pub fn register(
    source: &PointCloud,
    target: &PointCloud,
    cfg: &RegistrationConfig,
) -> Result<RegistrationResult, RegistrationError> {
    let mut source = prepare_frame(source, cfg)?;
    let mut target = prepare_frame(target, cfg)?;
    register_prepared(&mut source, &mut target, cfg)
}

/// Registers two prepared frames: KPCE → correspondence rejection → SVD
/// initial estimate → ICP fine-tuning. The frames' front ends are *not*
/// recomputed — that is the point of the layer.
///
/// Each frame's preparation cost is merged into the first *successful*
/// registration that consumes it (`profile.frames_prepared`);
/// subsequent registrations count it in `profile.frames_reused`
/// instead. A failed match leaves the bill pending on the frame — it is
/// billed if (and only if) the frame later participates in a successful
/// match; a frame dropped before that takes its preparation cost out of
/// the accounting entirely. Both frames must have been prepared with
/// the same front-end knobs ([`RegistrationConfig::same_front_end`]) as
/// `cfg`.
///
/// # Errors
///
/// [`RegistrationError::InvalidConfig`] when `cfg` fails
/// [`RegistrationConfig::validate`] (checked first);
/// [`RegistrationError::IcpStarved`] when fine-tuning cannot find any
/// overlap; [`RegistrationError::PreparationMismatch`] when either
/// frame was prepared under different front-end knobs than `cfg`;
/// [`RegistrationError::EmptyCloud`] for empty frames (only reachable
/// with hand-built searchers via [`prepare_frame_from_searcher`], which
/// itself rejects them).
pub fn register_prepared(
    source: &mut PreparedFrame,
    target: &mut PreparedFrame,
    cfg: &RegistrationConfig,
) -> Result<RegistrationResult, RegistrationError> {
    register_prepared_with_prior(source, target, cfg, None)
}

/// [`register_prepared`] with an explicit motion prior: the expected
/// source→target motion (e.g. the odometer's previous step). When given,
/// the initial-estimate gates tighten to the prior's magnitude plus
/// [`PRIOR_TRANSLATION_SLACK`] / [`PRIOR_ROTATION_SLACK`], rejecting
/// front-end estimates that disagree wildly with the expected motion.
///
/// # Errors
///
/// As [`register_prepared`].
pub fn register_prepared_with_prior(
    source: &mut PreparedFrame,
    target: &mut PreparedFrame,
    cfg: &RegistrationConfig,
    prior: Option<&RigidTransform>,
) -> Result<RegistrationResult, RegistrationError> {
    cfg.validate()?;
    if source.is_empty() || target.is_empty() {
        return Err(RegistrationError::EmptyCloud);
    }
    // Mismatched front ends would feed this config artifacts it does not
    // describe (different descriptors, radii, backends) — fail typed
    // instead of panicking deep in KPCE or silently degrading.
    if !source.config.same_front_end(cfg) || !target.config.same_front_end(cfg) {
        return Err(RegistrationError::PreparationMismatch);
    }
    let mut profile = StageProfile::new();
    let t0 = Instant::now();
    let summary = run_match(
        &mut source.searcher,
        &source.artifacts,
        &mut target.searcher,
        &target.artifacts,
        cfg,
        prior,
        &mut profile,
    )?;
    profile.match_time += t0.elapsed();
    // Bill each frame's preparation to the first *successful* result that
    // uses it (a failed match leaves the bill pending); afterwards the
    // frame counts as a front-end reuse.
    for frame in [&mut *source, &mut *target] {
        match frame.consume_preparation() {
            Some(prep) => profile.merge(&prep),
            None => profile.frames_reused += 1,
        }
    }
    Ok(assemble_result(summary, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchBackendConfig;

    /// A structured synthetic "urban corner" scene, denser than the ICP
    /// unit-test cloud, with distinctive geometry for the front-end.
    fn scene_cloud() -> PointCloud {
        let mut pts = Vec::new();
        let step = 0.15;
        for i in 0..40 {
            for j in 0..40 {
                pts.push(Vec3::new(i as f64 * step, j as f64 * step, 0.0));
            }
        }
        for i in 0..40 {
            for k in 1..15 {
                pts.push(Vec3::new(i as f64 * step, 6.0, k as f64 * step));
            }
        }
        for j in 0..20 {
            for k in 1..15 {
                pts.push(Vec3::new(6.0, j as f64 * step, k as f64 * step));
            }
        }
        // A "car" box for asymmetry.
        for i in 0..12 {
            for k in 0..6 {
                pts.push(Vec3::new(2.0 + i as f64 * 0.1, 3.0, k as f64 * 0.15));
                pts.push(Vec3::new(2.0 + i as f64 * 0.1, 3.8, k as f64 * 0.15));
            }
        }
        PointCloud::from_points(pts)
    }

    fn fast_config() -> RegistrationConfig {
        RegistrationConfig {
            voxel_size: 0.0,
            normal_radius: 0.5,
            keypoint: KeypointAlgorithm::Uniform { voxel: 1.0 },
            max_correspondence_distance: 1.5,
            ..RegistrationConfig::default()
        }
    }

    #[test]
    fn registers_a_known_transform() {
        let target = scene_cloud();
        let gt = RigidTransform::from_axis_angle(Vec3::Z, 0.04, Vec3::new(0.3, -0.15, 0.02));
        let source = target.transformed(&gt.inverse());
        let result = register(&source, &target, &fast_config()).unwrap();
        assert!(
            (result.transform.translation - gt.translation).norm() < 0.05,
            "t = {} vs {}",
            result.transform.translation,
            gt.translation
        );
        assert!((result.transform.rotation - gt.rotation).frobenius_norm() < 0.05);
        assert!(result.icp_iterations >= 1);
        assert!(result.keypoints.0 > 0 && result.keypoints.1 > 0);
    }

    #[test]
    fn profile_covers_all_stages() {
        let target = scene_cloud();
        let source = target
            .transformed(&RigidTransform::from_translation(Vec3::new(0.2, 0.0, 0.0)).inverse());
        let result = register(&source, &target, &fast_config()).unwrap();
        let p = &result.profile;
        for stage in Stage::ALL {
            assert!(p.time(stage) > std::time::Duration::ZERO, "stage {stage} has zero time");
        }
        assert!(p.kd_search_time > std::time::Duration::ZERO);
        assert!(p.kd_build_time > std::time::Duration::ZERO);
        assert!(p.search_stats.queries > 0);
    }

    #[test]
    fn kd_search_dominates() {
        // The paper's headline: KD-tree search is >50% of registration time.
        // At our small test scale the exact fraction varies, but search must
        // be a major component.
        let target = scene_cloud();
        let source =
            target.transformed(&RigidTransform::from_translation(Vec3::new(0.2, 0.1, 0.0)));
        let result = register(&source, &target, &fast_config()).unwrap();
        assert!(
            result.profile.kd_search_fraction() > 0.2,
            "kd fraction = {}",
            result.profile.kd_search_fraction()
        );
    }

    #[test]
    fn empty_cloud_is_an_error() {
        let empty = PointCloud::new();
        let full = scene_cloud();
        assert_eq!(
            register(&empty, &full, &fast_config()).unwrap_err(),
            RegistrationError::EmptyCloud
        );
        assert_eq!(
            register(&full, &empty, &fast_config()).unwrap_err(),
            RegistrationError::EmptyCloud
        );
    }

    #[test]
    fn disjoint_featureless_clouds_starve() {
        // Featureless planes 500 m apart: ISS finds no key-points, so the
        // initial estimate stays identity, and RPCE finds nothing within the
        // correspondence distance → ICP starves. (A *translated copy* of a
        // featured scene would register fine — descriptors are translation
        // invariant — so this is the honest starvation case.)
        let mut src_pts = Vec::new();
        let mut tgt_pts = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                tgt_pts.push(Vec3::new(i as f64 * 0.2, j as f64 * 0.2, 0.0));
                src_pts.push(Vec3::new(i as f64 * 0.2 + 500.0, j as f64 * 0.2, 0.0));
            }
        }
        let mut cfg = fast_config();
        cfg.keypoint = KeypointAlgorithm::Iss { radius: 0.6 };
        let err =
            register(&PointCloud::from_points(src_pts), &PointCloud::from_points(tgt_pts), &cfg)
                .unwrap_err();
        assert_eq!(err, RegistrationError::IcpStarved);
    }

    #[test]
    fn two_stage_backend_matches_classic_quality() {
        let target = scene_cloud();
        let gt = RigidTransform::from_translation(Vec3::new(0.25, -0.1, 0.0));
        let source = target.transformed(&gt.inverse());

        let classic = register(&source, &target, &fast_config()).unwrap();
        let mut cfg = fast_config();
        cfg.backend = SearchBackendConfig::TwoStage { top_height: 6 };
        let two_stage = register(&source, &target, &cfg).unwrap();
        // Exact two-stage search: same answers, same quality.
        assert!(
            (classic.transform.translation - two_stage.transform.translation).norm() < 1e-6,
            "{} vs {}",
            classic.transform.translation,
            two_stage.transform.translation
        );
    }

    #[test]
    fn voxel_downsampling_reduces_work() {
        let target = scene_cloud();
        let source = target
            .transformed(&RigidTransform::from_translation(Vec3::new(0.2, 0.0, 0.0)).inverse());
        let mut dense_cfg = fast_config();
        dense_cfg.voxel_size = 0.0;
        let mut coarse_cfg = fast_config();
        coarse_cfg.voxel_size = 0.5;
        let dense = register(&source, &target, &dense_cfg).unwrap();
        let coarse = register(&source, &target, &coarse_cfg).unwrap();
        assert!(
            coarse.profile.search_stats.queries < dense.profile.search_stats.queries,
            "coarse {} !< dense {}",
            coarse.profile.search_stats.queries,
            dense.profile.search_stats.queries
        );
    }

    #[test]
    fn brute_force_backend_is_a_ground_truth_oracle() {
        // The exhaustive oracle runs through the *whole* pipeline and, being
        // exact, lands on the same transform as the classic KD-tree.
        let target = scene_cloud();
        let gt = RigidTransform::from_translation(Vec3::new(0.2, -0.05, 0.0));
        let source = target.transformed(&gt.inverse());

        let classic = register(&source, &target, &fast_config()).unwrap();
        let mut cfg = fast_config();
        cfg.backend = SearchBackendConfig::BruteForce;
        let brute = register(&source, &target, &cfg).unwrap();
        assert!(
            (classic.transform.translation - brute.transform.translation).norm() < 1e-9,
            "{} vs {}",
            classic.transform.translation,
            brute.transform.translation
        );
        assert_eq!(classic.icp_iterations, brute.icp_iterations);
    }

    #[test]
    fn unknown_custom_backend_fails_cleanly() {
        let target = scene_cloud();
        let mut cfg = fast_config();
        cfg.backend = SearchBackendConfig::Custom { name: "not-a-backend" };
        assert_eq!(
            register(&target, &target, &cfg).unwrap_err(),
            RegistrationError::InvalidConfig(ConfigError::UnknownBackend { name: "not-a-backend" })
        );
    }

    #[test]
    fn error_display() {
        assert!(!RegistrationError::EmptyCloud.to_string().is_empty());
        assert!(!RegistrationError::IcpStarved.to_string().is_empty());
        let invalid = ConfigError::UnknownBackend { name: "x" };
        assert!(RegistrationError::InvalidConfig(invalid).to_string().contains('x'));
        assert!(!RegistrationError::PreparationMismatch.to_string().is_empty());
    }

    #[test]
    fn mismatched_preparations_fail_typed() {
        let cloud = scene_cloud();
        let cfg = fast_config();
        let mut other = fast_config();
        other.normal_radius += 0.3;
        let mut source = prepare_frame(&cloud, &cfg).unwrap();
        let mut target = prepare_frame(&cloud, &other).unwrap();
        // Frame prepared under different front-end knobs → typed error,
        // whichever side mismatches the matching config.
        assert_eq!(
            register_prepared(&mut source, &mut target, &cfg).unwrap_err(),
            RegistrationError::PreparationMismatch
        );
        assert_eq!(
            register_prepared(&mut source, &mut target, &other).unwrap_err(),
            RegistrationError::PreparationMismatch
        );
        // Matching-only knob changes are fine on compatible frames.
        let mut target = prepare_frame(&cloud, &cfg).unwrap();
        let mut matching_only = cfg.clone();
        matching_only.max_correspondence_distance = 2.0;
        assert!(register_prepared(&mut source, &mut target, &matching_only).is_ok());
    }

    #[test]
    fn prepared_graph_is_the_head_of_each_canonical_row() {
        use crate::correspond::GRAPH_K;
        use tigris_core::Neighbor;
        // An integer lattice (spacing 0.25, exact in binary) with every
        // fifth point duplicated: equidistant neighbours tie at the
        // graph's cut, and duplicates tie at distance zero.
        let mut pts = Vec::new();
        for x in 0..8 {
            for y in 0..8 {
                for z in 0..3 {
                    pts.push(Vec3::new(x as f64, y as f64, z as f64) * 0.25);
                }
            }
        }
        let dups: Vec<Vec3> = pts.iter().step_by(5).copied().collect();
        pts.extend(dups);
        let cloud = PointCloud::from_points(pts);
        let base = RegistrationConfig { voxel_size: 0.0, normal_radius: 0.5, ..fast_config() };
        let (mut cut_ties, mut zero_ties) = (0, 0);
        // The shared ISS pass harvests at the ISS radius; a separate
        // normal-estimation pass (another detector, or ISS below the
        // normal radius) at the normal radius.
        for (keypoint, radius) in [
            (KeypointAlgorithm::Iss { radius: 0.75 }, 0.75),
            (KeypointAlgorithm::Uniform { voxel: 1.0 }, 0.5),
            (KeypointAlgorithm::Iss { radius: 0.3 }, 0.5),
        ] {
            let cfg = RegistrationConfig { keypoint, ..base.clone() };
            let frame = prepare_frame(&cloud, &cfg).unwrap();
            let graph = frame.artifacts.graph.as_ref().expect("an exact front end keeps one");
            let points = frame.points();
            assert_eq!(graph.len(), points.len());
            for (p, &at) in points.iter().enumerate() {
                let mut row: Vec<Neighbor> = points
                    .iter()
                    .enumerate()
                    .map(|(j, &x)| Neighbor::new(j, at.distance_squared(x)))
                    .filter(|n| n.distance_squared <= radius * radius)
                    .collect();
                row.sort();
                let head = row.iter().take(GRAPH_K).map(|n| n.index).collect();
                let bound = if row.len() > GRAPH_K { row[GRAPH_K].distance() } else { radius };
                assert_eq!(graph.row(p), (head, bound.to_bits()), "{keypoint:?}: point {p}");
                if row.len() > GRAPH_K
                    && row[GRAPH_K - 1].distance_squared == row[GRAPH_K].distance_squared
                {
                    cut_ties += 1;
                }
                if row.len() > 1 && row[1].distance_squared == 0.0 {
                    zero_ties += 1;
                }
            }
        }
        assert!(cut_ties > 0 && zero_ties > 0, "ties: {cut_ties} at the cut, {zero_ties} at zero");

        // Approximate, query-logged and injected front ends keep none:
        // their rows prove nothing about the true neighbours.
        let iss = RegistrationConfig { keypoint: KeypointAlgorithm::Iss { radius: 0.75 }, ..base };
        let approx = RegistrationConfig {
            backend: SearchBackendConfig::TwoStageApprox {
                top_height: 4,
                approx: Default::default(),
            },
            ..iss.clone()
        };
        let injected = RegistrationConfig {
            inject_ne: Some(crate::search::Injection::RadiusShell {
                inner_frac: 0.5,
                outer_frac: 1.2,
            }),
            ..iss.clone()
        };
        let mut logged = Searcher3::classic(cloud.points());
        logged.enable_query_logging();
        for frame in [
            prepare_frame(&cloud, &approx).unwrap(),
            prepare_frame(&cloud, &injected).unwrap(),
            prepare_frame_from_searcher(logged, &iss).unwrap(),
        ] {
            assert!(frame.artifacts.graph.is_none(), "{}", frame.backend_name());
        }
    }

    #[test]
    fn failed_match_leaves_preparations_billable() {
        let target_cloud = scene_cloud();
        let gt = RigidTransform::from_translation(Vec3::new(0.2, 0.0, 0.0));
        let source_cloud = target_cloud.transformed(&gt.inverse());
        let cfg = fast_config();
        let mut source = prepare_frame(&source_cloud, &cfg).unwrap();
        let mut target = prepare_frame(&target_cloud, &cfg).unwrap();

        // A matching-only knob that guarantees starvation: RPCE can find
        // nothing within a nanometer.
        let mut starving = cfg.clone();
        starving.max_correspondence_distance = 1e-9;
        assert_eq!(
            register_prepared(&mut source, &mut target, &starving).unwrap_err(),
            RegistrationError::IcpStarved
        );

        // The failed attempt must not consume the preparation bills: the
        // first successful match still accounts both front ends.
        let result = register_prepared(&mut source, &mut target, &cfg).unwrap();
        assert_eq!(result.profile.frames_prepared, 2);
        assert_eq!(result.profile.frames_reused, 0);
        assert!(result.profile.prepare_time > std::time::Duration::ZERO);
    }
}
