//! Spatial tiling of an epoch: submap-granularity tiles on a world-frame
//! grid.
//!
//! A tile is a set of submap payloads whose world-frame bounding-box
//! centers fall in the same grid cell, plus the union of their
//! conservative world bounds. The bounds make routing *conservative*:
//! a submap's own query gate is `local_bounds.intersects_sphere` in its
//! anchor frame, rigid transforms preserve distances, and the tile
//! bounds contain every member's rotated local box — so any query
//! sphere that could reach a member's points intersects the tile
//! bounds. Routing by tile therefore never drops an answering submap,
//! which is what makes tile-routed queries bit-identical to
//! whole-map fan-out.

use std::collections::BTreeMap;

use tigris_geom::Aabb;

use super::epoch::SnapshotEpoch;

/// How an epoch is cut into tiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TilingConfig {
    /// Grid cell edge length (meters). Submaps are assigned to the cell
    /// containing their world-bounds center; one cell's submaps form one
    /// tile. Smaller tiles localize residency more finely but load more
    /// often under a roaming query stream.
    pub tile_size: f64,
}

impl Default for TilingConfig {
    fn default() -> Self {
        // A handful of serving-profile submaps (anchors every ~6 m of
        // travel) per tile.
        TilingConfig { tile_size: 32.0 }
    }
}

/// One tile: its member submaps and their conservative world bounds.
#[derive(Debug, Clone)]
pub struct TileMeta {
    /// Member submap ids (indices into the epoch's payload list),
    /// ascending.
    members: Vec<usize>,
    /// Union of the members' conservative world-frame bounds.
    bounds: Aabb,
}

impl TileMeta {
    /// Member submap ids, ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Union of the members' conservative world-frame bounds.
    pub fn bounds(&self) -> &Aabb {
        &self.bounds
    }
}

/// Partitions an epoch's submaps into grid tiles; see the
/// [module docs](self).
pub fn partition(epoch: &SnapshotEpoch, config: &TilingConfig) -> Vec<TileMeta> {
    assert!(
        config.tile_size.is_finite() && config.tile_size > 0.0,
        "tile_size must be a positive length"
    );
    // BTreeMap: tiles come out in deterministic cell order.
    let mut cells: BTreeMap<(i64, i64, i64), TileMeta> = BTreeMap::new();
    for payload in epoch.payloads() {
        let Some(local) = payload.local_bounds() else {
            continue; // empty submap: nothing to serve
        };
        let world = local.transformed(epoch.anchor_pose(payload.id()));
        let center = world.center();
        let cell = (
            (center.x / config.tile_size).floor() as i64,
            (center.y / config.tile_size).floor() as i64,
            (center.z / config.tile_size).floor() as i64,
        );
        cells
            .entry(cell)
            .and_modify(|tile| {
                tile.members.push(payload.id());
                tile.bounds.union(&world);
            })
            .or_insert_with(|| TileMeta { members: vec![payload.id()], bounds: world });
    }
    cells.into_values().collect()
}
