//! Query routing: which tiles can answer a query, and the pinned
//! epoch-plus-routing view a session drains on.

use std::sync::Arc;

use tigris_geom::Vec3;

use super::epoch::SnapshotEpoch;
use super::tile::{partition, TileMeta, TilingConfig};

/// Maps world-frame query spheres to the tiles that could answer them.
///
/// Built once per published epoch (tiles ride on publish-time anchor
/// poses, which are immutable within an epoch). Routing is conservative
/// by construction — see the [tiling docs](super::tile) — so fanning a
/// query out to only the covering tiles answers bit-identically to
/// whole-map fan-out.
#[derive(Debug)]
pub struct TileRouter {
    tiles: Vec<TileMeta>,
}

impl TileRouter {
    /// Partitions the epoch under `config`.
    pub fn build(epoch: &SnapshotEpoch, config: &TilingConfig) -> Self {
        TileRouter { tiles: partition(epoch, config) }
    }

    /// The epoch's tiles, in deterministic grid-cell order.
    pub fn tiles(&self) -> &[TileMeta] {
        &self.tiles
    }

    /// Indices of every tile whose bounds intersect the query sphere —
    /// a superset of the tiles holding actual answers.
    pub fn covering(&self, point: Vec3, radius: f64) -> Vec<usize> {
        self.tiles
            .iter()
            .enumerate()
            .filter(|(_, tile)| tile.bounds().intersects_sphere(point, radius))
            .map(|(t, _)| t)
            .collect()
    }
}

/// One epoch plus its router — the immutable view a session pins at
/// admission and drains on, however many newer epochs are published
/// while it runs.
#[derive(Debug)]
pub struct EpochView {
    epoch: Arc<SnapshotEpoch>,
    router: TileRouter,
}

impl EpochView {
    /// Builds the routing view for `epoch` under `config`.
    pub fn new(epoch: Arc<SnapshotEpoch>, config: &TilingConfig) -> Self {
        let router = TileRouter::build(&epoch, config);
        EpochView { epoch, router }
    }

    /// The pinned epoch.
    pub fn epoch(&self) -> &Arc<SnapshotEpoch> {
        &self.epoch
    }

    /// The epoch's tile router.
    pub fn router(&self) -> &TileRouter {
        &self.router
    }
}
