//! Cycle-level model of the Tigris KD-tree search accelerator (paper
//! Sec. 5, Fig. 8–10).
//!
//! The accelerator has a **front-end** of Recursion Units (RUs), each
//! walking one query through the top-tree via a six-stage pipeline
//! (FQ/RS/RN/CD/PI/CL) with *node forwarding* and *node bypassing*
//! eliminating the stack-dependency stalls, and a **back-end** of Search
//! Units (SUs), each a systolic array of Processing Elements (PEs)
//! exhaustively scanning leaf node-sets in a query-stationary dataflow.
//! A query-distribution network routes queries from RUs to SUs by leaf id;
//! a node cache captures node-set reuse; per-leaf leader buffers implement
//! the approximate search of Algorithm 1 in hardware.
//!
//! This crate models that machine at cycle granularity:
//!
//! * [`ru`] — replays each query's top-tree traversal exactly as the RU
//!   executes it (pop-time pruning, DFS stack) and derives its cycle cost
//!   under the chosen optimization flags.
//! * [`su`] — schedules leaf scans over SUs/PEs under the MQSN or MQMN
//!   issue policy, models batching, pipeline fill, the leader check and the
//!   node cache.
//! * [`sim`] — ties both together into end-to-end search simulation,
//!   returning cycles, per-buffer memory traffic, energy and the actual
//!   search results (bit-identical to the software two-stage search in
//!   exact mode). Its leader check runs core's [`tigris_core::LeaderBook`],
//!   the same Algorithm 1 kernel as the software `ApproxIndex`.
//! * [`energy`]/[`area`] — the analytic energy and area models substituting
//!   for the paper's synthesis flow (constants calibrated to the published
//!   breakdowns; see DESIGN.md).
//! * [`baseline`] — CPU/GPU cost models for the comparison systems.
//! * [`backend`] — [`AccelBackend`], the one type that drives the model.
//!   Offline it runs query batches and replays query logs
//!   ([`AccelBackend::run`], [`AccelBackend::replay`]); online it
//!   implements `tigris_core::SearchIndex` and registers as
//!   `"accelerator"`, so the registration pipeline, odometer and DSE
//!   sweeps can run end-to-end *on* the simulated machine. Either way it
//!   accumulates cycles/energy in an [`AccelMeter`].
//!
//! # Example
//!
//! ```
//! use tigris_accel::{AccelBackend, AcceleratorConfig};
//! use tigris_core::TwoStageKdTree;
//! use tigris_geom::Vec3;
//!
//! let pts: Vec<Vec3> = (0..4096)
//!     .map(|i| Vec3::new((i % 64) as f64, (i / 64) as f64, 0.0))
//!     .collect();
//! let tree = TwoStageKdTree::build(&pts, 6);
//! let queries: Vec<Vec3> = (0..256).map(|i| Vec3::new(i as f64 * 0.2, 3.0, 0.5)).collect();
//!
//! let mut accel = AccelBackend::from_tree(tree.clone(), AcceleratorConfig::default());
//! let report = accel.run_nn(&queries);
//! assert!(report.cycles > 0);
//! // Results are exact: identical to the software search.
//! assert_eq!(report.nn_results[0].unwrap().index, tree.nn(queries[0]).unwrap().index);
//! ```

#![warn(missing_docs)]

pub mod area;
pub mod backend;
pub mod baseline;
pub mod cache;
pub mod config;
pub mod energy;
pub mod memory;
pub mod ru;
pub mod sim;
pub mod su;

pub use area::{area_report, AreaReport};
pub use backend::{
    register_accelerator_backend, register_accelerator_backend_as, AccelBackend, AccelMeter,
};
pub use baseline::{BaselineModel, BaselineReport};
pub use config::{AcceleratorConfig, BackendPolicy, MappingPolicy};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use memory::TrafficReport;
pub use sim::{SearchKind, SimReport};
