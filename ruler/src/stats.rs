//! Sample statistics, pose errors and process facts shared by every
//! workload.

use std::time::{Duration, Instant};

use tigris::geom::RigidTransform;

/// A pose counts as wrong beyond this translation error (meters)…
pub const WRONG_TRANS_M: f64 = 1.0;
/// …or beyond this rotation error (degrees).
pub const WRONG_ROT_DEG: f64 = 5.0;

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, linearly interpolated
/// between order statistics; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`, `0.0` when empty (a layer the workload never
/// calls costs nothing per op).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Ops every run measures at least, so that the end-to-end `p90` has
/// ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// The highest tail percentile `n` samples support: one that at least
/// ten samples lie beyond.
pub fn supported_tail(n: usize) -> Option<(&'static str, f64)> {
    if n >= 1000 {
        Some(("p99", 0.99))
    } else if n >= 100 {
        Some(("p90", 0.90))
    } else {
        None
    }
}

/// Translation (m) and rotation (deg) error of `est` against `reference`.
pub fn pose_error(est: &RigidTransform, reference: &RigidTransform) -> (f64, f64) {
    let residual = reference.inverse() * *est;
    (residual.translation_norm(), residual.rotation_angle().to_degrees())
}

/// `true` when an error pair is outside the right-answer envelope.
pub fn is_wrong(err: (f64, f64)) -> bool {
    err.0 > WRONG_TRANS_M || err.1 > WRONG_ROT_DEG
}

/// Bitwise equality of two poses (no tolerance: the replay contract is
/// bit identity).
pub fn same_bits(a: &RigidTransform, b: &RigidTransform) -> bool {
    let bits = |t: &RigidTransform| {
        let mut v = Vec::with_capacity(12);
        for row in &t.rotation.m {
            v.extend(row.iter().map(|x| x.to_bits()));
        }
        v.extend([t.translation.x, t.translation.y, t.translation.z].map(f64::to_bits));
        v
    };
    bits(a) == bits(b)
}

/// Peak resident set size of this process in MiB (`VmHWM`), `0.0` where
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kib.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end of a measurement window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    start: Instant,
    end: Instant,
}

impl Window {
    /// A window of `seconds` starting now.
    pub fn open(seconds: f64) -> Self {
        let start = Instant::now();
        Window { start, end: start + Duration::from_secs_f64(seconds) }
    }

    /// `true` once the window has closed.
    pub fn closed(&self) -> bool {
        Instant::now() >= self.end
    }

    /// Seconds since the window opened.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Times `f`: its value and its wall-clock milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, ms(t0.elapsed()))
}

/// Per-op accounting shared by every workload. Latency covers every op
/// of the window; answer quality covers the *scored* ops — the run's
/// first full cycle over its schedule — so it is a function of the seeds
/// alone, not of how many ops the window happened to fit.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    /// Wall latency of every op, milliseconds (successful or not).
    pub op_ms: Vec<f64>,
    /// Ops whose call returned an error other than a typed "no
    /// confident pose" verdict (admission refusals, registration errors).
    pub failed: usize,
    /// Scored ops.
    pub scored: usize,
    /// Scored ops that returned a pose.
    pub accepted: usize,
    /// Accepted poses outside the right-answer envelope.
    pub wrong: usize,
    /// Translation error of each scored accepted pose (m).
    pub trans_err_m: Vec<f64>,
    /// Rotation error of each scored accepted pose (deg).
    pub rot_err_deg: Vec<f64>,
}

impl OpLog {
    /// Records an op that returned a pose; `err` is its error against
    /// the reference (`None`: nothing to score against, e.g. a stream's
    /// first frame).
    pub fn accept(&mut self, latency_ms: f64, err: Option<(f64, f64)>, scored: bool) {
        self.op_ms.push(latency_ms);
        if scored {
            self.scored += 1;
            self.accepted += 1;
            if let Some(err) = err {
                self.wrong += usize::from(is_wrong(err));
                self.trans_err_m.push(err.0);
                self.rot_err_deg.push(err.1);
            }
        }
    }

    /// Records an op that returned no pose; `hard` marks a failure of
    /// the system rather than a typed verdict.
    pub fn reject(&mut self, latency_ms: f64, hard: bool, scored: bool) {
        self.op_ms.push(latency_ms);
        self.failed += usize::from(hard);
        self.scored += usize::from(scored);
    }

    /// Folds another client's log into this one.
    pub fn merge(&mut self, other: OpLog) {
        self.op_ms.extend(other.op_ms);
        self.failed += other.failed;
        self.scored += other.scored;
        self.accepted += other.accepted;
        self.wrong += other.wrong;
        self.trans_err_m.extend(other.trans_err_m);
        self.rot_err_deg.extend(other.rot_err_deg);
    }

    /// Ops attempted.
    pub fn attempted(&self) -> usize {
        self.op_ms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_support_needs_ten_beyond() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100).map(|t| t.0), Some("p90"));
        assert_eq!(supported_tail(1000).map(|t| t.0), Some("p99"));
    }
}
