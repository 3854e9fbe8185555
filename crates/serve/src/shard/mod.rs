//! The serving front end: spatially tiled map serving with versioned
//! epoch hot-swap.
//!
//! Serving a map well has two costs that grow with the map: every
//! session would hold the entire map resident, and picking up new
//! mapping work would mean rebuilding the served map and restarting
//! every session. This module removes both:
//!
//! * **Spatial tiling** ([`tile`], [`router`]) — an epoch's submaps are
//!   partitioned into grid tiles; a query fans out only to the tiles
//!   whose conservative world bounds its sphere intersects. Routing is
//!   provably conservative, so tile-routed answers are bit-identical to
//!   `Mapper::query` on the published map.
//! * **Lazy residency** ([`residency`]) — each submap payload's search
//!   index is rebuilt on first demand (only for members whose own bounds
//!   a query reaches), shared by every epoch holding that payload, and
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
//! Sessions ([`ShardSession`]) drive the serving state machine
//! ([`crate::session`]) and the relocalization gate pipeline
//! ([`crate::reloc`]) against their pinned epoch, so a session's pose
//! stream over epoch N is the same whatever the tiling, the tile budget
//! or the epochs installed after N.

pub mod epoch;
pub mod residency;
pub mod router;
pub mod service;
pub mod session;
pub mod tile;

pub use epoch::{EpochPublisher, SnapshotEpoch, SubmapPayload};
pub use router::{EpochView, TileRouter};
pub use service::{ShardConfig, ShardService};
pub use session::ShardSession;
pub use tile::{TileMeta, TilingConfig};
