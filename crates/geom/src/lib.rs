//! Geometry and small linear-algebra substrate for the Tigris point-cloud
//! registration system.
//!
//! This crate provides the numeric foundation every other Tigris crate builds
//! on: 3-vectors and 3×3 matrices, rigid-body transforms (the 4×4
//! `[R | t]` matrices the paper estimates), axis-aligned bounding boxes used
//! for KD-tree pruning, symmetric eigen-decomposition and SVD used by normal
//! estimation and the Kabsch solver, a small dense linear solver used by the
//! point-to-plane and Levenberg–Marquardt solvers, the SE(3) twist
//! parameterization ([`RigidTransform::log`]/[`RigidTransform::exp`]) with
//! the Gauss–Newton pose-graph solver built on it ([`posegraph`], the
//! mapping back end's drift redistribution), and the [`PointCloud`]
//! container itself.
//!
//! Everything is implemented from scratch on `f64`; no external linear
//! algebra dependency is used.
//!
//! # Example
//!
//! ```
//! use tigris_geom::{Vec3, RigidTransform};
//!
//! let t = RigidTransform::from_axis_angle(
//!     Vec3::new(0.0, 0.0, 1.0), 0.5, Vec3::new(1.0, 2.0, 0.0));
//! let p = Vec3::new(1.0, 0.0, 0.0);
//! let q = t.apply(p);
//! let back = t.inverse().apply(q);
//! assert!((p - back).norm() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod aabb;
pub mod eigen;
pub mod mat3;
pub mod pointcloud;
pub mod posegraph;
pub mod rigid;
pub mod solve;
pub mod svd3;
pub mod vec3;

pub use aabb::Aabb;
pub use eigen::{symmetric_eigen3, SymmetricEigen3};
pub use mat3::Mat3;
pub use pointcloud::PointCloud;
pub use posegraph::{OptimizeReport, PoseGraph, PoseGraphEdge};
pub use rigid::RigidTransform;
pub use solve::{solve_dense, solve_ldlt6};
pub use svd3::{svd3, Svd3};
pub use vec3::Vec3;
