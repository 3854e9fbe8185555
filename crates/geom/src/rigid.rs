//! Rigid-body transforms — the 4×4 `[R | t]` matrices that point cloud
//! registration estimates (Eq. 1 of the paper).

use std::fmt;
use std::ops::Mul;

use crate::{Mat3, Vec3};

/// A rigid-body (SE(3)) transform: a rotation followed by a translation.
///
/// Registration's goal (paper Sec. 2.2) is to estimate the transform `M`
/// that maps a source cloud onto a target cloud; `M` consists of a 3×3
/// rotation `R` and a 3×1 translation `t`, acting on homogeneous points as
/// `x' = R x + t`.
///
/// # Example
///
/// ```
/// use tigris_geom::{RigidTransform, Vec3};
///
/// let m = RigidTransform::from_axis_angle(Vec3::Z, 0.1, Vec3::new(1.0, 0.0, 0.0));
/// let composed = m * m.inverse();
/// assert!(composed.is_identity(1e-12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RigidTransform {
    /// The rotation component `R`.
    pub rotation: Mat3,
    /// The translation component `t`.
    pub translation: Vec3,
}

impl RigidTransform {
    /// The identity transform.
    pub const IDENTITY: RigidTransform =
        RigidTransform { rotation: Mat3::IDENTITY, translation: Vec3::ZERO };

    /// Creates a transform from a rotation and translation.
    #[inline]
    pub fn new(rotation: Mat3, translation: Vec3) -> Self {
        RigidTransform { rotation, translation }
    }

    /// A pure translation.
    #[inline]
    pub fn from_translation(translation: Vec3) -> Self {
        RigidTransform::new(Mat3::IDENTITY, translation)
    }

    /// Rotation of `angle` radians about `axis`, followed by `translation`.
    ///
    /// # Panics
    ///
    /// Panics if `axis` has (near-)zero length.
    pub fn from_axis_angle(axis: Vec3, angle: f64, translation: Vec3) -> Self {
        RigidTransform::new(Mat3::from_axis_angle(axis, angle), translation)
    }

    /// Builds a transform from small Euler angles and a translation, the
    /// parameterization used by the point-to-plane and LM solvers
    /// (`[α, β, γ, tx, ty, tz]`, rotations applied Z·Y·X).
    pub fn from_euler_xyz(alpha: f64, beta: f64, gamma: f64, translation: Vec3) -> Self {
        let rotation = Mat3::rotation_z(gamma) * Mat3::rotation_y(beta) * Mat3::rotation_x(alpha);
        RigidTransform::new(rotation, translation)
    }

    /// Applies the transform to a point: `R p + t`.
    #[inline]
    pub fn apply(&self, p: Vec3) -> Vec3 {
        self.rotation * p + self.translation
    }

    /// Applies only the rotation — correct for directions such as surface
    /// normals, which must not be translated.
    #[inline]
    pub fn apply_direction(&self, d: Vec3) -> Vec3 {
        self.rotation * d
    }

    /// The inverse transform.
    ///
    /// Because `R` is orthonormal the inverse is `Rᵀ (p - t)`.
    pub fn inverse(&self) -> RigidTransform {
        let rt = self.rotation.transpose();
        RigidTransform::new(rt, -(rt * self.translation))
    }

    /// Returns this transform as a row-major 4×4 homogeneous matrix, the
    /// paper's Eq. 1 representation.
    pub fn to_matrix4(&self) -> [[f64; 4]; 4] {
        let r = &self.rotation.m;
        let t = self.translation;
        [
            [r[0][0], r[0][1], r[0][2], t.x],
            [r[1][0], r[1][1], r[1][2], t.y],
            [r[2][0], r[2][1], r[2][2], t.z],
            [0.0, 0.0, 0.0, 1.0],
        ]
    }

    /// Returns `true` when rotation and translation are within `tol` of the
    /// identity.
    pub fn is_identity(&self, tol: f64) -> bool {
        (self.rotation - Mat3::IDENTITY).frobenius_norm() <= tol && self.translation.norm() <= tol
    }

    /// The rotation angle of the transform in radians (geodesic distance of
    /// `R` from the identity).
    pub fn rotation_angle(&self) -> f64 {
        self.rotation.rotation_angle()
    }

    /// The translation magnitude of the transform.
    pub fn translation_norm(&self) -> f64 {
        self.translation.norm()
    }

    /// Relative transform taking `self` to `other`: `other ∘ self⁻¹`.
    ///
    /// Used by the KITTI metrics to compare an estimated pose change against
    /// the ground-truth pose change.
    pub fn delta_to(&self, other: &RigidTransform) -> RigidTransform {
        *other * self.inverse()
    }

    /// The SE(3) logarithm: the twist `ξ = [ω, ρ]` (rotation vector then
    /// translation part, each 3 components) such that
    /// [`RigidTransform::exp`]`(ξ)` recovers this transform.
    ///
    /// This is the minimal 6-DoF parameterization the pose-graph solver
    /// ([`crate::posegraph`]) linearizes in: residuals between poses are
    /// `log(expected⁻¹ · actual)`, and updates re-enter the manifold via
    /// `exp`. The rotation branch handles the small-angle limit (first-order
    /// skew extraction) and the near-π branch (axis from the symmetric
    /// part) explicitly; at exactly π the sign of `ω` is an arbitrary but
    /// deterministic choice (both are valid logarithms).
    pub fn log(&self) -> [f64; 6] {
        let omega = so3_log(&self.rotation);
        let theta = omega.norm();
        let hat = hat3(omega);
        let hat2 = hat * hat;
        // V⁻¹ = I − ½[ω]× + c·[ω]×², with the numerically stable
        // c = (1 − A/(2B))/θ² (A = sinθ/θ, B = (1−cosθ)/θ²).
        let c = if theta < 1e-4 {
            1.0 / 12.0 + theta * theta / 720.0
        } else {
            let a = theta.sin() / theta;
            let b = (1.0 - theta.cos()) / (theta * theta);
            (1.0 - a / (2.0 * b)) / (theta * theta)
        };
        let v_inv = Mat3::IDENTITY - hat.scale(0.5) + hat2.scale(c);
        let rho = v_inv * self.translation;
        [omega.x, omega.y, omega.z, rho.x, rho.y, rho.z]
    }

    /// The SE(3) exponential: builds the transform whose logarithm is the
    /// twist `ξ = [ω, ρ]`. Inverse of [`RigidTransform::log`]:
    ///
    /// ```
    /// use tigris_geom::{RigidTransform, Vec3};
    /// let t = RigidTransform::from_axis_angle(Vec3::Z, 0.7, Vec3::new(1.0, -2.0, 0.5));
    /// let back = RigidTransform::exp(t.log());
    /// assert!((back.translation - t.translation).norm() < 1e-12);
    /// ```
    pub fn exp(xi: [f64; 6]) -> RigidTransform {
        let omega = Vec3::new(xi[0], xi[1], xi[2]);
        let rho = Vec3::new(xi[3], xi[4], xi[5]);
        let theta = omega.norm();
        let hat = hat3(omega);
        let hat2 = hat * hat;
        // R = I + A[ω]× + B[ω]×², V = I + B[ω]× + C[ω]×².
        let (a, b, c) = if theta < 1e-10 {
            // Second-order Taylor around θ = 0.
            (1.0, 0.5, 1.0 / 6.0)
        } else {
            let t2 = theta * theta;
            (theta.sin() / theta, (1.0 - theta.cos()) / t2, (theta - theta.sin()) / (t2 * theta))
        };
        let rotation = Mat3::IDENTITY + hat.scale(a) + hat2.scale(b);
        let v = Mat3::IDENTITY + hat.scale(b) + hat2.scale(c);
        RigidTransform::new(rotation, v * rho)
    }
}

/// The skew-symmetric (cross-product) matrix of `w`: `hat3(w) * v == w × v`.
fn hat3(w: Vec3) -> Mat3 {
    Mat3::from_rows([0.0, -w.z, w.y], [w.z, 0.0, -w.x], [-w.y, w.x, 0.0])
}

/// SO(3) logarithm: the rotation vector (axis · angle) of `r`.
fn so3_log(r: &Mat3) -> Vec3 {
    let theta = r.rotation_angle();
    // The skew part's vee: 2 sinθ · axis.
    let vee = Vec3::new(r.m[2][1] - r.m[1][2], r.m[0][2] - r.m[2][0], r.m[1][0] - r.m[0][1]);
    if theta < 1e-10 {
        // First order: R ≈ I + [ω]×.
        return vee * 0.5;
    }
    if theta < std::f64::consts::PI - 1e-6 {
        return vee * (theta / (2.0 * theta.sin()));
    }
    // Near π the skew part vanishes; recover the axis from the symmetric
    // part instead: R = cosθ·I + sinθ·[u]× + (1−cosθ)·uuᵀ, so the diagonal
    // gives u_i² and row k gives the products u_k·u_j.
    let cos = theta.cos();
    let one_minus = 1.0 - cos;
    let diag = [r.m[0][0], r.m[1][1], r.m[2][2]];
    let k = (0..3).max_by(|&a, &b| diag[a].total_cmp(&diag[b])).unwrap();
    let uk = (((diag[k] - cos) / one_minus).max(0.0)).sqrt().max(1e-12);
    let mut u = [0.0f64; 3];
    u[k] = uk;
    for (j, uj) in u.iter_mut().enumerate() {
        if j != k {
            *uj = (r.m[k][j] + r.m[j][k]) / (2.0 * one_minus * uk);
        }
    }
    let mut axis = Vec3::new(u[0], u[1], u[2]);
    axis = axis.normalized().unwrap_or(Vec3::X);
    // Disambiguate the sign with whatever skew part remains (below π the
    // logarithm is unique); at exactly π either sign is a valid answer.
    if vee.dot(axis) < 0.0 {
        axis = -axis;
    }
    axis * theta
}

impl Default for RigidTransform {
    fn default() -> Self {
        RigidTransform::IDENTITY
    }
}

/// Composition: `(a * b).apply(p) == a.apply(b.apply(p))`.
impl Mul for RigidTransform {
    type Output = RigidTransform;
    fn mul(self, o: RigidTransform) -> RigidTransform {
        RigidTransform {
            rotation: self.rotation * o.rotation,
            translation: self.rotation * o.translation + self.translation,
        }
    }
}

impl fmt::Display for RigidTransform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RigidTransform {{ angle: {:.4} rad, t: {} }}",
            self.rotation_angle(),
            self.translation
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_application() {
        let p = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(RigidTransform::IDENTITY.apply(p), p);
        assert!(RigidTransform::default().is_identity(0.0));
    }

    #[test]
    fn composition_matches_sequential_application() {
        let a = RigidTransform::from_axis_angle(Vec3::Z, 0.3, Vec3::new(1.0, 0.0, 0.0));
        let b = RigidTransform::from_axis_angle(Vec3::X, -0.7, Vec3::new(0.0, 2.0, 0.5));
        let p = Vec3::new(0.4, 0.5, 0.6);
        let via_compose = (a * b).apply(p);
        let via_seq = a.apply(b.apply(p));
        assert!((via_compose - via_seq).norm() < 1e-12);
    }

    #[test]
    fn inverse_round_trip() {
        let t = RigidTransform::from_axis_angle(
            Vec3::new(1.0, 1.0, 0.2),
            1.2,
            Vec3::new(3.0, -1.0, 0.5),
        );
        let p = Vec3::new(0.1, 0.2, 0.3);
        assert!((t.inverse().apply(t.apply(p)) - p).norm() < 1e-12);
        assert!((t * t.inverse()).is_identity(1e-12));
        assert!((t.inverse() * t).is_identity(1e-12));
    }

    #[test]
    fn preserves_distances() {
        let t = RigidTransform::from_axis_angle(
            Vec3::new(0.3, 0.5, 1.0),
            0.9,
            Vec3::new(5.0, 6.0, 7.0),
        );
        let p = Vec3::new(1.0, 2.0, 3.0);
        let q = Vec3::new(-1.0, 0.5, 2.0);
        assert!((t.apply(p).distance(t.apply(q)) - p.distance(q)).abs() < 1e-12);
    }

    #[test]
    fn direction_ignores_translation() {
        let t = RigidTransform::from_translation(Vec3::new(10.0, 0.0, 0.0));
        assert_eq!(t.apply_direction(Vec3::X), Vec3::X);
        assert_eq!(t.apply(Vec3::X), Vec3::new(11.0, 0.0, 0.0));
    }

    #[test]
    fn matrix4_layout() {
        let t = RigidTransform::from_translation(Vec3::new(1.0, 2.0, 3.0));
        let m = t.to_matrix4();
        assert_eq!(m[0][3], 1.0);
        assert_eq!(m[1][3], 2.0);
        assert_eq!(m[2][3], 3.0);
        assert_eq!(m[3], [0.0, 0.0, 0.0, 1.0]);
        assert_eq!(m[0][0], 1.0);
    }

    #[test]
    fn euler_small_angle_composition() {
        let t = RigidTransform::from_euler_xyz(0.01, -0.02, 0.03, Vec3::ZERO);
        assert!(t.rotation.is_rotation(1e-10));
        // Small-angle rotation angle is close to the Euler vector magnitude.
        let approx = (0.01f64.powi(2) + 0.02f64.powi(2) + 0.03f64.powi(2)).sqrt();
        assert!((t.rotation_angle() - approx).abs() < 1e-3);
    }

    #[test]
    fn delta_to_recovers_relative_motion() {
        let a = RigidTransform::from_axis_angle(Vec3::Z, 0.2, Vec3::new(1.0, 0.0, 0.0));
        let d = RigidTransform::from_axis_angle(Vec3::Y, 0.1, Vec3::new(0.0, 0.5, 0.0));
        let b = d * a;
        let rec = a.delta_to(&b);
        assert!((rec.rotation - d.rotation).frobenius_norm() < 1e-12);
        assert!((rec.translation - d.translation).norm() < 1e-12);
    }

    #[test]
    fn magnitudes() {
        let t = RigidTransform::from_axis_angle(Vec3::Z, 0.4, Vec3::new(3.0, 4.0, 0.0));
        assert!((t.rotation_angle() - 0.4).abs() < 1e-12);
        assert!((t.translation_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", RigidTransform::IDENTITY).is_empty());
    }

    #[test]
    fn log_exp_round_trips_generic_transforms() {
        let cases = [
            RigidTransform::IDENTITY,
            RigidTransform::from_translation(Vec3::new(3.0, -1.0, 0.5)),
            RigidTransform::from_axis_angle(Vec3::Z, 0.3, Vec3::new(1.0, 2.0, 3.0)),
            RigidTransform::from_axis_angle(
                Vec3::new(1.0, -0.4, 0.7),
                1.9,
                Vec3::new(-5.0, 0.1, 2.0),
            ),
            RigidTransform::from_axis_angle(
                Vec3::new(0.2, 1.0, 0.1),
                3.0,
                Vec3::new(0.0, -2.0, 4.0),
            ),
        ];
        for t in cases {
            let back = RigidTransform::exp(t.log());
            assert!((back.rotation - t.rotation).frobenius_norm() < 1e-9, "rotation drifted: {t}");
            assert!((back.translation - t.translation).norm() < 1e-9, "translation drifted: {t}");
        }
    }

    #[test]
    fn exp_log_round_trips_twists() {
        let cases = [
            [0.0; 6],
            [0.01, -0.02, 0.03, 1.0, 2.0, 3.0],
            [1.2, 0.4, -0.8, -3.0, 0.5, 10.0],
            [0.0, 0.0, 2.8, 4.0, 4.0, 0.0],
        ];
        for xi in cases {
            let back = RigidTransform::exp(xi).log();
            for (a, b) in xi.iter().zip(&back) {
                assert!((a - b).abs() < 1e-9, "{xi:?} -> {back:?}");
            }
        }
    }

    #[test]
    fn log_handles_rotations_at_and_near_pi() {
        use std::f64::consts::PI;
        for angle in [PI - 1e-8, PI] {
            let t = RigidTransform::from_axis_angle(Vec3::new(0.3, -1.0, 0.5), angle, Vec3::ZERO);
            let xi = t.log();
            let back = RigidTransform::exp(xi);
            // At exactly π both ±ω are valid logs; the rotation must match
            // either way.
            assert!(
                (back.rotation - t.rotation).frobenius_norm() < 1e-6,
                "angle {angle}: frobenius {}",
                (back.rotation - t.rotation).frobenius_norm()
            );
            let norm = (xi[0] * xi[0] + xi[1] * xi[1] + xi[2] * xi[2]).sqrt();
            assert!((norm - angle).abs() < 1e-6, "rotation-vector norm {norm} vs {angle}");
        }
    }

    #[test]
    fn log_magnitude_matches_transform_magnitudes() {
        let t = RigidTransform::from_axis_angle(Vec3::Z, 0.5, Vec3::ZERO);
        let xi = t.log();
        assert!((xi[2] - 0.5).abs() < 1e-12);
        assert!(xi[3].abs() + xi[4].abs() + xi[5].abs() < 1e-12);
        // Pure translations log to themselves.
        let t = RigidTransform::from_translation(Vec3::new(1.0, 2.0, 3.0));
        let xi = t.log();
        assert_eq!(&xi[..3], &[0.0, 0.0, 0.0]);
        assert!((xi[3] - 1.0).abs() < 1e-12 && (xi[5] - 3.0).abs() < 1e-12);
    }
}
