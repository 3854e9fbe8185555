//! Tigris mapping subsystem: long-running 3D reconstruction on top of the
//! registration pipeline.
//!
//! The paper's second motivating application (Sec. 2.2) is 3D
//! reconstruction: "a set of frames are aligned against one another and
//! merged together to form a global point cloud of the scene". Chaining
//! pairwise registrations alone accumulates *unbounded drift* — every
//! small per-pair error compounds along the trajectory. This crate turns
//! the streaming odometer into a stateful mapping service with the four
//! pieces a production back end needs:
//!
//! * **Dynamic map index** — the map grows as frames arrive, so it lives
//!   in `tigris_core::DynamicMapIndex` (static KD-tree + fresh-points
//!   buffer, merged by periodic rebuild; registered as the `"dynamic"`
//!   backend), never rebuilding from scratch per insert.
//! * **Submaps** ([`Submap`]) — the [`Mapper`] aggregates registered
//!   frames into pose-tagged submaps, spawned by travel distance or point
//!   budget. Each holds its points in the anchor keyframe's local frame
//!   behind its own dynamic index, so a pose-graph correction moves whole
//!   submaps rigidly instead of rewriting points. [`Mapper::query`] fans
//!   one lookup out across every overlapping submap.
//! * **Loop closure** — per frame, the mapper retrieves revisit candidates
//!   by *descriptor similarity* against past submaps (the same
//!   feature-space `KdTreeN` machinery KPCE matches descriptors with),
//!   then verifies geometrically by registering the current frame's
//!   [`tigris_pipeline::PreparedFrame`] against the candidate's stored
//!   keyframe — no front-end stage ever reruns. The retrieval +
//!   verification machinery lives in [`retrieval`], shared with
//!   `tigris-serve`'s cold-start relocalization.
//! * **Pose-graph optimization** — an accepted closure adds a long-range
//!   constraint and runs `tigris_geom::PoseGraph` (Gauss–Newton over
//!   SE(3), [`tigris_geom::RigidTransform::log`]/`exp`), redistributing
//!   the accumulated drift along the whole trajectory.
//!
//! The mapper *wraps* the [`tigris_pipeline::Odometer`]: each streamed
//! frame is prepared exactly once, serves as the odometer's reference for
//! one step, and is then retired into the map layer
//! ([`tigris_pipeline::Odometer::push_retiring`]) — the
//! `frames_prepared` accounting in [`MapperStats`] proves the front end
//! runs once per frame end to end.
//!
//! # Example
//!
//! ```no_run
//! use tigris_data::{Sequence, SequenceConfig};
//! use tigris_map::{Mapper, MapperConfig};
//!
//! // A closed-circuit sequence that revisits its start.
//! let seq = Sequence::generate(&SequenceConfig::loop_circuit(120.0, 5), 42);
//! let mut mapper = Mapper::new(MapperConfig::default());
//! for i in 0..seq.len() {
//!     let step = mapper.push(seq.frame(i)).unwrap();
//!     if let Some(closure) = step.closure {
//!         println!("frame {i}: closed loop against submap {}", closure.submap);
//!     }
//! }
//! println!("{} submaps, {} map points", mapper.submaps().len(), mapper.total_points());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod mapper;
pub mod retrieval;
pub mod submap;

pub use config::{ClosureConfig, MapperConfig, SubmapConfig};
pub use mapper::{LoopClosure, Mapper, MapperStats, MapperStep};
pub use retrieval::{RetrievalHit, SignatureIndex};
pub use submap::{descriptor_mean, sort_map_neighbors, MapNeighbor, Submap};
