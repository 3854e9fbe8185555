//! The serving front end: per-submap map reads with lazy index
//! residency and versioned epoch hot-swap.
//!
//! Serving a map well has two costs that grow with the map: every
//! session would hold the entire map resident, and picking up new
//! mapping work would mean rebuilding the served map and restarting
//! every session. This module removes both:
//!
//! * **Routing by the submap gate** ([`service`]) — a map query visits
//!   every submap of the epoch and applies that submap's own
//!   local-bounds gate (`local_bounds().intersects_sphere` in its anchor
//!   frame); only a submap the sphere can reach has its index fetched
//!   and searched. The gate is exact for the submap's points, so
//!   answers are bit-identical to `Mapper::query` on the published map.
//! * **Lazy residency** ([`residency`]) — each submap payload's search
//!   index is rebuilt on first demand (only for submaps whose gate a
//!   query passes), shared by every epoch holding that payload, and
//!   evicted least-recently-touched under an explicit byte budget;
//!   correctness never depends on what is resident, only latency does,
//!   so a budgeted service answers exactly like an unbounded one.
//! * **Versioned epochs** ([`epoch`]) — a [`tigris_map::Mapper`],
//!   finished or still mapping, is published copy-on-write at submap
//!   granularity: unchanged submaps are shared by `Arc` across epochs,
//!   and only changed ones are re-archived. [`ShardService::install_epoch`]
//!   hot-swaps the served version: new sessions pin the newest epoch,
//!   in-flight sessions drain on the epoch they started with, and a
//!   superseded epoch frees when its last session drops; the index of a
//!   payload it shared with the new epoch stays resident, and the index
//!   of a payload nothing holds any more is dropped. A finished map is
//!   one epoch that is never replaced.
//!
//! Sessions ([`ShardSession`]) run the serving state machine
//! ([`crate::session`]) and the relocalization gate pipeline
//! ([`crate::reloc`]) against their pinned epoch, so a session's pose
//! stream over epoch N is the same whatever the index budget or the
//! epochs installed after N.

pub mod epoch;
pub mod residency;
pub mod service;
pub mod session;

pub use epoch::{EpochPublisher, SnapshotEpoch, SubmapPayload};
pub use service::{ShardConfig, ShardService};
pub use session::ShardSession;
