//! Tigris serving subsystem: one map, many concurrent localization
//! clients.
//!
//! The mapping subsystem (`tigris-map`) builds a drift-corrected map as
//! a *single-owner* object: one `Mapper`, one stream, and the map dies
//! with it. Production localization inverts that shape — a map is built
//! (or updated) rarely and *read* constantly, by every vehicle, robot or
//! headset in the area. This crate is that read side, and
//! [`shard::ShardService`] is its one front end:
//!
//! * **Epochs** ([`shard::EpochPublisher`]) — a [`tigris_map::Mapper`],
//!   finished or still mapping, is published by reference into an
//!   immutable, versioned [`shard::SnapshotEpoch`], copy-on-write at
//!   submap granularity. A finished map is simply an epoch that is never
//!   replaced.
//! * **Tiles** ([`shard::tile`], [`shard::router`],
//!   [`shard::residency`]) — an epoch is cut into spatial tiles; map
//!   queries fan out only to the tiles their sphere touches, and each
//!   submap payload's search index is rebuilt on demand, kept across
//!   epochs that share the payload, and evicted under a byte budget.
//!   Routing is conservative, so answers are bit-identical to
//!   `Mapper::query` on the published map whatever is resident.
//! * **Cold-start relocalization** ([`reloc`]) — a client submits one
//!   raw frame with no history; the service prepares it (the standard
//!   pipeline front end, run exactly once), retrieves candidate submaps
//!   by signature ([`tigris_map::retrieval`], the same implementation
//!   loop closure uses), verifies geometrically against stored
//!   keyframes, gates on inliers/offset/structure-overlap, and returns
//!   a world pose with a [`Relocalization`] confidence report.
//! * **Sessions** ([`shard::ShardSession`]) — after a cold start, a
//!   session tracks frame-to-frame with the constant-velocity prior (the
//!   odometer's streaming pattern), chaining poses from the relocalized
//!   origin, and falls back to relocalization on tracking loss. Each
//!   session pins the epoch it was admitted on and drains on it across
//!   hot-swaps ([`shard::ShardService::install_epoch`]).
//! * **Admission and metering** — the service admits up to a budget of
//!   concurrent sessions and a budget of in-flight requests, rejecting
//!   typed ([`ServeError`]) beyond either, and meters per-session and
//!   service-wide [`ServeStats`] including p50/p99 request latency and
//!   tile residency.
//!
//! Determinism: with an exact search backend (the default), every
//! answer an epoch serves — map queries, retrieval, verification — is
//! bit-identical regardless of how many sessions share it, how requests
//! interleave, or how the tile budget evicts: all shared state is
//! immutable, and the only locked mutation (keyframe search metering)
//! never affects results.
//!
//! # Example
//!
//! ```no_run
//! use tigris_data::{Sequence, SequenceConfig};
//! use tigris_map::{Mapper, MapperConfig};
//! use tigris_serve::shard::{EpochPublisher, ShardConfig, ShardService};
//! use tigris_serve::StepKind;
//!
//! // Build a map once and publish it…
//! let seq = Sequence::generate(&SequenceConfig::loop_circuit(60.0, 6), 7);
//! let mut mapper = Mapper::new(MapperConfig::default());
//! for i in 0..seq.len() {
//!     mapper.push(seq.frame(i)).unwrap();
//! }
//! let epoch = EpochPublisher::new().publish(&mapper).unwrap();
//!
//! // …then serve it to any number of sessions.
//! let service = ShardService::with_epoch(epoch, ShardConfig::default());
//! let mut session = service.open_session().unwrap();
//! for i in [10, 11, 12] {
//!     let step = session.localize(seq.frame(i)).unwrap();
//!     match step.kind {
//!         StepKind::Relocalized(r) => {
//!             println!("cold start: {} (confidence {:.2})", step.pose, r.confidence)
//!         }
//!         StepKind::Tracked { .. } => println!("tracked: {}", step.pose),
//!     }
//! }
//! println!("{:?}", service.stats());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod reloc;
mod service;
pub mod session;
pub mod shard;
pub mod stats;

pub use config::{RelocConfig, ServeConfig};
pub use error::ServeError;
pub use reloc::Relocalization;
pub use session::{SessionPhase, SessionStep, StepKind};
pub use stats::{LatencyRecorder, LatencySummary, ServeStats, SessionStats, TileStats};
