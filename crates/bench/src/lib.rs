//! Benchmark harness for the Tigris reproduction.
//!
//! [`workload`] builds the shared synthetic workloads (dense LiDAR frames,
//! query streams); [`figures`] regenerates every table and figure of the
//! paper's evaluation as text tables. The `figures` binary dispatches by
//! experiment id:
//!
//! ```text
//! cargo run -p tigris-bench --release --bin figures -- fig11
//! cargo run -p tigris-bench --release --bin figures -- all
//! ```
//!
//! Criterion benches under `benches/` measure the real-host software
//! kernels (KD-tree build/search, the search-backend matrix, and the
//! simulator itself). [`shard`] and [`obs`] hold the fixtures of the two
//! release-scale gates under `tests/` (tile-routing selectivity on a 10×
//! map, and the observability layer's overhead bound). End-to-end
//! performance is measured by the repository's benchmark, `ruler/`.

pub mod figures;
pub mod obs;
pub mod plot;
pub mod shard;
pub mod workload;
