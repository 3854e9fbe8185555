//! Synthetic LiDAR dataset substrate for Tigris.
//!
//! The paper evaluates on the KITTI odometry dataset, captured with a
//! Velodyne HDL-64E spinning LiDAR. This crate is the reproduction's
//! substitute (see DESIGN.md): a procedural urban scene ([`scene`]), a
//! 64-beam spinning-scanner ray-caster with range noise ([`lidar`]),
//! ground-truth vehicle trajectories ([`trajectory`]), frame sequences with
//! poses ([`sequence`]), and KITTI-style odometry error metrics
//! ([`metrics`]: translational %, rotational °/m).
//!
//! The substitution preserves what the evaluation needs: dense frames
//! (10⁴–10⁵ points) with LiDAR ring structure and density falloff, sensor
//! noise, frame-to-frame motion with ground truth, and the same error
//! metrics.
//!
//! # Example
//!
//! ```
//! use tigris_data::{SequenceConfig, Sequence};
//!
//! let cfg = SequenceConfig::tiny(); // small frames, fast for tests/docs
//! let seq = Sequence::generate(&cfg, 42);
//! assert_eq!(seq.len(), cfg.frames);
//! assert!(seq.frame(0).len() > 100);
//! ```

#![warn(missing_docs)]

pub mod kitti_io;
pub mod lidar;
pub mod metrics;
pub mod scene;
pub mod sequence;
pub mod trajectory;

pub use kitti_io::{
    read_poses, read_velodyne_bin, read_xyz, write_poses, write_velodyne_bin, write_xyz,
};
pub use lidar::{Lidar, LidarConfig};
pub use metrics::{absolute_trajectory_error, relative_pose_error, sequence_error, OdometryError};
pub use scene::{Scene, SceneConfig, SceneKind};
pub use sequence::{Sequence, SequenceConfig};
pub use trajectory::{Trajectory, TrajectoryConfig};
