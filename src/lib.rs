//! **Tigris** — algorithm–architecture co-design for 3D point-cloud
//! registration.
//!
//! A from-scratch Rust reproduction of *"Tigris: Architecture and
//! Algorithms for 3D Perception in Point Clouds"* (Xu, Tian, Zhu —
//! MICRO-52, 2019). This facade crate re-exports the workspace:
//!
//! * [`geom`] — vectors, rigid transforms, eigen/SVD, point clouds.
//! * [`core`] — the canonical KD-tree, the **two-stage KD-tree**, and the
//!   **approximate leader/follower search** (the paper's Sec. 4).
//! * [`data`] — a synthetic LiDAR dataset substrate (KITTI stand-in).
//! * [`pipeline`] — the configurable two-phase registration pipeline
//!   (Sec. 3): normal estimation → key-points → descriptors → KPCE →
//!   rejection → ICP fine-tuning.
//! * [`map`] — the incremental mapping subsystem (Sec. 2.2's 3D
//!   reconstruction as a long-running service): dynamic map index,
//!   pose-tagged submaps, descriptor-retrieved loop closure and
//!   Gauss–Newton pose-graph optimization.
//! * [`serve`] — the shared-map localization service: versioned
//!   copy-on-write map epochs served through lazily rebuilt submap
//!   indexes, cold-start relocalization and multi-session serving with
//!   admission control and latency metering.
//! * [`accel`] — the cycle-level accelerator model (Sec. 5): recursion-unit
//!   front-end, search-unit back-end, node cache, energy and area models.
//! * [`obs`] — the observability layer: hierarchical spans and structured
//!   events, a counters/gauges/histograms metrics registry, and Chrome
//!   trace-event / JSONL / summary exporters. Enable with
//!   `TIGRIS_TRACE=chrome` and load the written file in Perfetto.
//!
//! # Quickstart
//!
//! ```no_run
//! use tigris::data::{Sequence, SequenceConfig};
//! use tigris::pipeline::{register, RegistrationConfig};
//!
//! // Generate two synthetic LiDAR frames and register them.
//! let seq = Sequence::generate(&SequenceConfig::tiny(), 42);
//! let result = register(seq.frame(1), seq.frame(0), &RegistrationConfig::default()).unwrap();
//! println!("estimated motion: {}", result.transform);
//! println!("KD-tree search fraction: {:.0}%", result.profile.kd_search_fraction() * 100.0);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench/src/bin/figures.rs` for the harness regenerating every
//! table and figure of the paper's evaluation.

pub use tigris_accel as accel;
pub use tigris_core as core;
pub use tigris_data as data;
pub use tigris_geom as geom;
pub use tigris_map as map;
pub use tigris_obs as obs;
pub use tigris_pipeline as pipeline;
pub use tigris_serve as serve;

/// The workspace version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_wired() {
        let v = crate::geom::Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v.norm_squared(), 14.0);
        assert!(!crate::VERSION.is_empty());
    }
}
