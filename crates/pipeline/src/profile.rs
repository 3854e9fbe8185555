//! Per-stage and per-kernel time accounting, behind the paper's Fig. 4a
//! (stage distribution) and Fig. 4b (KD-tree search vs. build vs. other).

use std::fmt;
use std::time::Duration;

use tigris_core::SearchStats;

/// The seven key pipeline stages of paper Fig. 2 / Fig. 4a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Surface-normal estimation (both frames).
    NormalEstimation,
    /// Key-point detection (both frames).
    KeypointDetection,
    /// Feature-descriptor calculation (both frames).
    DescriptorCalculation,
    /// Key-point correspondence estimation.
    Kpce,
    /// Correspondence rejection.
    CorrespondenceRejection,
    /// Raw-point correspondence estimation (all ICP iterations).
    Rpce,
    /// Transformation estimation / error minimization (all ICP iterations).
    ErrorMinimization,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 7] = [
        Stage::NormalEstimation,
        Stage::KeypointDetection,
        Stage::DescriptorCalculation,
        Stage::Kpce,
        Stage::CorrespondenceRejection,
        Stage::Rpce,
        Stage::ErrorMinimization,
    ];

    /// Display name matching the paper's Fig. 4a legend.
    pub fn name(self) -> &'static str {
        match self {
            Stage::NormalEstimation => "Normal Estimation",
            Stage::KeypointDetection => "Key-point Detection",
            Stage::DescriptorCalculation => "Descriptor Calculation",
            Stage::Kpce => "KPCE",
            Stage::CorrespondenceRejection => "Correspondence Rejection",
            Stage::Rpce => "RPCE",
            Stage::ErrorMinimization => "Error Minimization",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Timing and KD-tree accounting for one registration run.
#[derive(Debug, Clone, Default)]
pub struct StageProfile {
    stage_time: [Duration; 7],
    /// Wall-clock spent inside KD-tree searches (all stages).
    pub kd_search_time: Duration,
    /// Wall-clock spent building KD-trees.
    pub kd_build_time: Duration,
    /// Aggregated node-visit statistics across all searches.
    pub search_stats: SearchStats,
    /// ICP iterations executed.
    pub icp_iterations: usize,
    /// Wall-clock spent in the frame-preparation layer (downsample,
    /// index build, NE, key-points, descriptors) attributed to this
    /// result. A reused [`crate::PreparedFrame`] contributes nothing
    /// here — its preparation was billed to the result that first
    /// consumed it.
    pub prepare_time: Duration,
    /// Wall-clock spent in the pairwise-matching layer (KPCE, rejection,
    /// initial transform, ICP).
    pub match_time: Duration,
    /// Frames whose front end (NE / key-points / descriptors) was computed
    /// as part of this result.
    pub frames_prepared: usize,
    /// Frames that entered the matching layer as already-prepared
    /// artifacts, so their front end did **not** run again — the streaming
    /// odometer's reuse counter.
    pub frames_reused: usize,
    /// Heap capacity (bytes) the front-end scratch buffers grew by during
    /// the preparations billed to this result. Zero once a reused
    /// [`crate::PrepareScratch`] is warm.
    pub scratch_bytes_grown: u64,
    /// Preparations billed to this result that completed without growing
    /// any scratch buffer — the proof of allocation-free steady-state
    /// frame preparation.
    pub scratch_reuses: u64,
}

impl StageProfile {
    /// Fresh, all-zero profile.
    pub fn new() -> Self {
        StageProfile::default()
    }

    fn idx(stage: Stage) -> usize {
        Stage::ALL.iter().position(|&s| s == stage).unwrap()
    }

    /// Adds `d` to `stage`'s accumulated time.
    pub fn add(&mut self, stage: Stage, d: Duration) {
        self.stage_time[Self::idx(stage)] += d;
    }

    /// Accumulated time of `stage`.
    pub fn time(&self, stage: Stage) -> Duration {
        self.stage_time[Self::idx(stage)]
    }

    /// Total time across all stages.
    pub fn total(&self) -> Duration {
        self.stage_time.iter().sum()
    }

    /// Fraction of total time in `stage` (0 when the total is zero).
    pub fn fraction(&self, stage: Stage) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.time(stage).as_secs_f64() / total
        }
    }

    /// Fraction of total time inside KD-tree search — the paper's headline
    /// observation is that this is 50–85% across design points (Fig. 4b).
    pub fn kd_search_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.kd_search_time.as_secs_f64() / total
        }
    }

    /// Fraction of total time building KD-trees (Fig. 4b's second series).
    pub fn kd_build_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.kd_build_time.as_secs_f64() / total
        }
    }

    /// Merges another profile into this one (summing everything).
    pub fn merge(&mut self, other: &StageProfile) {
        for i in 0..7 {
            self.stage_time[i] += other.stage_time[i];
        }
        self.kd_search_time += other.kd_search_time;
        self.kd_build_time += other.kd_build_time;
        self.search_stats += other.search_stats;
        self.icp_iterations += other.icp_iterations;
        self.prepare_time += other.prepare_time;
        self.match_time += other.match_time;
        self.frames_prepared += other.frames_prepared;
        self.frames_reused += other.frames_reused;
        self.scratch_bytes_grown += other.scratch_bytes_grown;
        self.scratch_reuses += other.scratch_reuses;
    }

    /// Fraction of prepare + match wall-clock spent preparing frames
    /// (0 when neither layer recorded time). With full reuse a streamed
    /// frame pays one preparation instead of two, which is what pushes
    /// this fraction — and the overall frame time — down.
    pub fn prepare_fraction(&self) -> f64 {
        let total = (self.prepare_time + self.match_time).as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.prepare_time.as_secs_f64() / total
        }
    }
}

impl fmt::Display for StageProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total: {:?}", self.total())?;
        for stage in Stage::ALL {
            writeln!(
                f,
                "  {:26} {:>9.3?} ({:5.1}%)",
                stage.name(),
                self.time(stage),
                self.fraction(stage) * 100.0
            )?;
        }
        writeln!(
            f,
            "  kd-search {:?} ({:.1}%), kd-build {:?} ({:.1}%), icp iters {}",
            self.kd_search_time,
            self.kd_search_fraction() * 100.0,
            self.kd_build_time,
            self.kd_build_fraction() * 100.0,
            self.icp_iterations
        )?;
        writeln!(
            f,
            "  prepare {:?} ({:.1}%), match {:?}; frames prepared {}, reused {}",
            self.prepare_time,
            self.prepare_fraction() * 100.0,
            self.match_time,
            self.frames_prepared,
            self.frames_reused
        )?;
        writeln!(
            f,
            "  scratch: {} bytes grown, {} allocation-free preparations",
            self.scratch_bytes_grown, self.scratch_reuses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_enumerate_in_order() {
        assert_eq!(Stage::ALL.len(), 7);
        assert_eq!(Stage::ALL[0], Stage::NormalEstimation);
        assert_eq!(Stage::ALL[6], Stage::ErrorMinimization);
        for s in Stage::ALL {
            assert!(!s.name().is_empty());
            assert_eq!(s.to_string(), s.name());
        }
    }

    #[test]
    fn add_and_fraction() {
        let mut p = StageProfile::new();
        p.add(Stage::NormalEstimation, Duration::from_millis(30));
        p.add(Stage::Rpce, Duration::from_millis(70));
        assert_eq!(p.total(), Duration::from_millis(100));
        assert!((p.fraction(Stage::NormalEstimation) - 0.3).abs() < 1e-9);
        assert!((p.fraction(Stage::Rpce) - 0.7).abs() < 1e-9);
        assert_eq!(p.fraction(Stage::Kpce), 0.0);
    }

    #[test]
    fn kd_fractions() {
        let mut p = StageProfile::new();
        p.add(Stage::Rpce, Duration::from_millis(100));
        p.kd_search_time = Duration::from_millis(60);
        p.kd_build_time = Duration::from_millis(10);
        assert!((p.kd_search_fraction() - 0.6).abs() < 1e-9);
        assert!((p.kd_build_fraction() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn empty_profile_fractions_are_zero() {
        let p = StageProfile::new();
        assert_eq!(p.kd_search_fraction(), 0.0);
        assert_eq!(p.fraction(Stage::Kpce), 0.0);
        assert_eq!(p.total(), Duration::ZERO);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = StageProfile::new();
        a.add(Stage::Kpce, Duration::from_millis(5));
        a.icp_iterations = 3;
        a.frames_prepared = 1;
        let mut b = StageProfile::new();
        b.add(Stage::Kpce, Duration::from_millis(7));
        b.kd_search_time = Duration::from_millis(2);
        b.icp_iterations = 4;
        b.prepare_time = Duration::from_millis(9);
        b.match_time = Duration::from_millis(3);
        b.frames_prepared = 1;
        b.frames_reused = 2;
        b.scratch_bytes_grown = 64;
        b.scratch_reuses = 5;
        a.merge(&b);
        assert_eq!(a.time(Stage::Kpce), Duration::from_millis(12));
        assert_eq!(a.kd_search_time, Duration::from_millis(2));
        assert_eq!(a.icp_iterations, 7);
        assert_eq!(a.prepare_time, Duration::from_millis(9));
        assert_eq!(a.match_time, Duration::from_millis(3));
        assert_eq!(a.frames_prepared, 2);
        assert_eq!(a.frames_reused, 2);
        assert_eq!(a.scratch_bytes_grown, 64);
        assert_eq!(a.scratch_reuses, 5);
    }

    #[test]
    fn prepare_fraction_splits_the_two_layers() {
        let mut p = StageProfile::new();
        assert_eq!(p.prepare_fraction(), 0.0);
        p.prepare_time = Duration::from_millis(30);
        p.match_time = Duration::from_millis(70);
        assert!((p.prepare_fraction() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn display_lists_all_stages() {
        let p = StageProfile::new();
        let s = p.to_string();
        for stage in Stage::ALL {
            assert!(s.contains(stage.name()), "missing {stage}");
        }
    }
}
