//! Reusable front-end scratch: dense neighborhood tables and per-frame
//! working buffers.
//!
//! `prepare_frame` used to allocate its working state fresh on every
//! frame — one `Vec<Neighbor>` per query point, `HashMap`/`HashSet`
//! bookkeeping for the SPFH phases, and per-chunk copies of the
//! searcher's own points. [`PrepareScratch`] replaces all of that with
//! buffers that live across frames: a streaming odometer or a serving
//! session owns one scratch, hands it to
//! [`crate::prepare_frame_with`] each frame, and once the buffers are
//! warm the whole normal-estimation + FPFH front end runs without a
//! single transient heap allocation (the [`PrepareScratch::bytes_grown`]
//! / [`PrepareScratch::reuses`] counters prove it — they feed
//! `StageProfile` and the serving layer's stats).
//!
//! The central structure is the [`NeighborTable`]: one radius query per
//! row, all hits in one flat lane (CSR layout). It replaces the
//! `Vec<Vec<Neighbor>>` a batched radius search returns — same rows,
//! same `(distance², index)` ordering, one allocation instead of one
//! per query.

use tigris_core::soa::SoaView;
use tigris_core::Neighbor;
use tigris_geom::Vec3;

/// Dense rows of radius-search hits: one row per query, all hits stored
/// in a single flat lane (CSR layout).
///
/// Rows are appended in query order and each row keeps the ascending
/// `(distance², index)` ordering of a serial radius search, so
/// `table.row(i)` is bit-identical to the `Vec<Neighbor>` the batched
/// entry points would have returned for query `i`.
///
/// # Example
///
/// ```
/// use tigris_pipeline::NeighborTable;
/// use tigris_core::Neighbor;
///
/// let mut t = NeighborTable::new();
/// t.push_row_from(&[Neighbor::new(3, 0.25)]);
/// t.push_row_from(&[]);
/// assert_eq!(t.rows(), 2);
/// assert_eq!(t.row(0)[0].index, 3);
/// assert!(t.row(1).is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct NeighborTable {
    /// `offsets[r]..offsets[r + 1]` spans row `r` in `flat`. Always
    /// non-empty (starts as `[0]`).
    offsets: Vec<u32>,
    flat: Vec<Neighbor>,
}

impl NeighborTable {
    /// An empty table.
    pub fn new() -> Self {
        NeighborTable { offsets: vec![0], flat: Vec::new() }
    }

    /// Removes all rows, keeping the allocations.
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.flat.clear();
    }

    /// Number of rows (completed queries).
    #[inline]
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The hits of row `r`, ascending by `(distance², index)`.
    ///
    /// # Panics
    ///
    /// Panics when `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[Neighbor] {
        &self.flat[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Appends one row by letting `fill` push hits onto the flat lane —
    /// the allocation-free seam the searcher's `*_into` entry points
    /// write through.
    #[inline]
    pub fn push_row_with(&mut self, fill: impl FnOnce(&mut Vec<Neighbor>)) {
        fill(&mut self.flat);
        debug_assert!(self.flat.len() <= u32::MAX as usize, "neighbor table overflow");
        self.offsets.push(self.flat.len() as u32);
    }

    /// Appends one row by copying a finished hit slice.
    pub fn push_row_from(&mut self, row: &[Neighbor]) {
        self.push_row_with(|flat| flat.extend_from_slice(row));
    }

    /// Total hits across all rows.
    pub fn total_neighbors(&self) -> usize {
        self.flat.len()
    }

    /// Heap bytes currently reserved by the table (capacity, not
    /// length).
    pub fn capacity_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.flat.capacity() * std::mem::size_of::<Neighbor>()
    }
}

/// Gathered structure-of-arrays coordinate lanes for one neighborhood —
/// the unit the covariance/centroid kernels consume.
#[derive(Debug, Clone, Default)]
pub(crate) struct GatherLanes {
    pub xs: Vec<f64>,
    pub ys: Vec<f64>,
    pub zs: Vec<f64>,
}

impl GatherLanes {
    /// Re-fills the lanes with the points `neighbors` refers to, in row
    /// order.
    pub fn gather(&mut self, points: &[Vec3], neighbors: &[Neighbor]) {
        self.xs.clear();
        self.ys.clear();
        self.zs.clear();
        self.xs.reserve(neighbors.len());
        self.ys.reserve(neighbors.len());
        self.zs.reserve(neighbors.len());
        for n in neighbors {
            let p = points[n.index];
            self.xs.push(p.x);
            self.ys.push(p.y);
            self.zs.push(p.z);
        }
    }

    pub fn capacity_bytes(&self) -> usize {
        (self.xs.capacity() + self.ys.capacity() + self.zs.capacity()) * std::mem::size_of::<f64>()
    }
}

/// Coordinate lanes for a block of neighborhoods gathered back to back:
/// block row `r` spans `starts[r]..starts[r + 1]` of the lanes. The
/// fused ISS pass gathers each row of a block once and lets normal
/// estimation read the row's first entries.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockLanes {
    lanes: GatherLanes,
    starts: Vec<usize>,
}

impl BlockLanes {
    /// Empties the block, keeping the allocations.
    pub fn clear(&mut self) {
        self.lanes.xs.clear();
        self.lanes.ys.clear();
        self.lanes.zs.clear();
        self.starts.clear();
        self.starts.push(0);
    }

    /// Appends one row: the points `neighbors` refers to, in row order.
    pub fn push(&mut self, points: &[Vec3], neighbors: &[Neighbor]) {
        for n in neighbors {
            let p = points[n.index];
            self.lanes.xs.push(p.x);
            self.lanes.ys.push(p.y);
            self.lanes.zs.push(p.z);
        }
        self.starts.push(self.lanes.xs.len());
    }

    /// The first `len` gathered points of block row `r`.
    ///
    /// # Panics
    ///
    /// Panics when row `r` was not pushed or holds fewer than `len`
    /// points.
    pub fn row(&self, r: usize, len: usize) -> SoaView<'_> {
        let start = self.starts[r];
        assert!(start + len <= self.starts[r + 1], "prefix longer than the row");
        let span = start..start + len;
        SoaView {
            xs: &self.lanes.xs[span.clone()],
            ys: &self.lanes.ys[span.clone()],
            zs: &self.lanes.zs[span],
        }
    }

    pub fn capacity_bytes(&self) -> usize {
        self.lanes.capacity_bytes() + self.starts.capacity() * std::mem::size_of::<usize>()
    }
}

/// Reusable buffers for the spatially-grouped radius fan-out (the
/// serial path of [`crate::Searcher3::radius_batch_into`] and
/// [`crate::Searcher3::self_radius_range_into`]): Morton sort keys and
/// the batch ordering that lay queries along a space-filling curve, the
/// per-member row buffers a grouped traversal fills, and the recorded
/// query → table-row mapping ([`GroupScratch::table_row`]) consumers
/// use to find their rows, since rows land in curve order rather than
/// query order.
#[derive(Debug, Clone, Default)]
pub struct GroupScratch {
    /// Morton key per query of the current batch.
    pub(crate) keys: Vec<u64>,
    /// Query positions of the batch, sorted by key.
    pub(crate) order: Vec<u32>,
    /// Query position → absolute table row of its hits.
    pub(crate) inv: Vec<u32>,
    /// One hit buffer per group member, reused by every group — each
    /// buffer fills from hundreds of rows per frame, so its capacity
    /// saturates at the largest row almost immediately.
    pub(crate) rows: Vec<Vec<Neighbor>>,
}

impl GroupScratch {
    /// The table row that received query `i`'s hits in the last batched
    /// radius search that used this scratch (absolute row index in the
    /// table that search appended to).
    ///
    /// # Panics
    ///
    /// Panics when `i` is not a query position of that search.
    #[inline]
    pub fn table_row(&self, i: usize) -> usize {
        self.inv[i] as usize
    }

    /// Heap bytes currently reserved by the buffers (capacity, not
    /// length).
    pub fn capacity_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + (self.order.capacity() + self.inv.capacity()) * std::mem::size_of::<u32>()
            + self.rows.capacity() * std::mem::size_of::<Vec<Neighbor>>()
            + self
                .rows
                .iter()
                .map(|r| r.capacity() * std::mem::size_of::<Neighbor>())
                .sum::<usize>()
    }
}

/// Reusable working state for the frame-preparation front end.
///
/// One scratch serves any number of frames: every buffer is cleared (not
/// freed) at the start of the stage that uses it, so steady-state
/// preparation re-walks warm allocations. Owned by whoever streams
/// frames — `crate::Odometer` holds one, and each serving session holds
/// one — and threaded through [`crate::prepare_frame_with`]. A
/// fresh scratch per call (what the plain `prepare_frame` does) is
/// always correct, just slower.
///
/// The growth counters make the reuse observable:
/// [`PrepareScratch::bytes_grown`] accumulates every byte of capacity
/// the buffers ever gained, and [`PrepareScratch::reuses`] counts the
/// frames that completed without growing anything — a warmed-up
/// steady state shows `reuses` climbing while `bytes_grown` stays flat.
#[derive(Debug, Clone, Default)]
pub struct PrepareScratch {
    /// Normal-estimation neighborhoods, one chunk at a time.
    pub(crate) ne_table: NeighborTable,
    /// FPFH phase-1 keypoint neighborhoods.
    pub(crate) kp_table: NeighborTable,
    /// FPFH phase-2 neighborhoods of non-keypoint SPFH sources.
    pub(crate) missing_table: NeighborTable,
    /// Gathered query positions for the batched descriptor searches.
    pub(crate) queries: Vec<Vec3>,
    /// Epoch stamps: `stamp[i] == epoch` marks point `i` as seen this
    /// frame without any per-frame clearing.
    pub(crate) stamp: Vec<u32>,
    /// Current stamp epoch (see [`PrepareScratch::next_epoch`]).
    pub(crate) epoch: u32,
    /// Dense remap: for a stamped point `i`, `remap[i]` is its row in
    /// `needed` / `spfh_rows`.
    pub(crate) remap: Vec<u32>,
    /// Point indices needing an SPFH row, in discovery order.
    pub(crate) needed: Vec<u32>,
    /// Per key-point (by position) row in `kp_table` — duplicate
    /// key-points share their first occurrence's row.
    pub(crate) kp_rows: Vec<u32>,
    /// Per `needed` entry: which table row holds its neighborhood
    /// (`kp_table` row, or `missing_table` row with the high bit set).
    pub(crate) needed_src: Vec<u32>,
    /// SPFH histograms, one `FPFH_DIM` row per `needed` entry.
    pub(crate) spfh_rows: Vec<f64>,
    /// Valid-pair counts parallel to the SPFH rows.
    pub(crate) counts: Vec<f64>,
    /// Grouped radius fan-out buffers (serial batched searches).
    pub(crate) groups: GroupScratch,
    /// Coordinate lanes for the serial plane and ISS fits.
    pub(crate) block: BlockLanes,
    /// ISS saliency per point of the current frame.
    pub(crate) saliency: Vec<f64>,
    /// Salient points whose suppression waits on the saliency of a later
    /// chunk, ascending, parallel to the rows of `nms_rows`.
    pub(crate) nms_points: Vec<u32>,
    /// Those points' neighbors in later chunks.
    pub(crate) nms_rows: NeighborTable,
    capacity_seen: usize,
    bytes_grown: u64,
    reuses: u64,
}

impl PrepareScratch {
    /// A fresh scratch with empty (but reusable) buffers.
    pub fn new() -> Self {
        PrepareScratch { ne_table: NeighborTable::new(), ..Default::default() }
    }

    /// Cumulative heap capacity (bytes) the buffers have gained since
    /// this scratch was created. Flat across frames once warm.
    pub fn bytes_grown(&self) -> u64 {
        self.bytes_grown
    }

    /// Frames that completed without growing any buffer — the proof of
    /// steady-state allocation-free preparation.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Advances to a fresh stamp epoch covering point ids `0..n`, and
    /// returns it. Stamps only ever compare equal to the *current*
    /// epoch, so this invalidates all previous stamps in O(1); the rare
    /// wrap-around pays one explicit reset instead.
    pub(crate) fn next_epoch(&mut self, n: usize) -> u32 {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.remap.resize(n, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.stamp.fill(0);
                1
            }
        };
        self.epoch
    }

    /// Total heap bytes currently reserved across all buffers. Stable
    /// across calls ⇒ the work between them allocated nothing transient
    /// — what the growth counters summarize per frame, exposed raw so
    /// benchmarks can assert it around individual stages.
    pub fn capacity_bytes(&self) -> usize {
        self.ne_table.capacity_bytes()
            + self.kp_table.capacity_bytes()
            + self.missing_table.capacity_bytes()
            + self.queries.capacity() * std::mem::size_of::<Vec3>()
            + self.stamp.capacity() * std::mem::size_of::<u32>()
            + self.remap.capacity() * std::mem::size_of::<u32>()
            + self.needed.capacity() * std::mem::size_of::<u32>()
            + self.kp_rows.capacity() * std::mem::size_of::<u32>()
            + self.needed_src.capacity() * std::mem::size_of::<u32>()
            + self.spfh_rows.capacity() * std::mem::size_of::<f64>()
            + self.counts.capacity() * std::mem::size_of::<f64>()
            + self.groups.capacity_bytes()
            + self.block.capacity_bytes()
            + self.saliency.capacity() * std::mem::size_of::<f64>()
            + self.nms_points.capacity() * std::mem::size_of::<u32>()
            + self.nms_rows.capacity_bytes()
    }

    /// Closes out one prepared frame: accounts any capacity growth since
    /// the last close, or records a clean reuse.
    pub(crate) fn note_frame_end(&mut self) {
        let now = self.capacity_bytes();
        if now > self.capacity_seen {
            self.bytes_grown += (now - self.capacity_seen) as u64;
            self.capacity_seen = now;
        } else {
            self.reuses += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_round_trip() {
        let mut t = NeighborTable::new();
        assert_eq!(t.rows(), 0);
        t.push_row_from(&[Neighbor::new(1, 0.5), Neighbor::new(2, 1.0)]);
        t.push_row_from(&[]);
        t.push_row_with(|flat| flat.push(Neighbor::new(7, 0.1)));
        assert_eq!(t.rows(), 3);
        assert_eq!(t.row(0).len(), 2);
        assert_eq!(t.row(0)[1], Neighbor::new(2, 1.0));
        assert!(t.row(1).is_empty());
        assert_eq!(t.row(2), &[Neighbor::new(7, 0.1)]);
        assert_eq!(t.total_neighbors(), 3);
        let bytes = t.capacity_bytes();
        assert!(bytes > 0);
        t.clear();
        assert_eq!(t.rows(), 0);
        assert_eq!(t.total_neighbors(), 0);
        assert_eq!(t.capacity_bytes(), bytes, "clear must keep capacity");
    }

    #[test]
    fn epoch_stamps_invalidate_in_o1() {
        let mut s = PrepareScratch::new();
        let e1 = s.next_epoch(10);
        s.stamp[3] = e1;
        let e2 = s.next_epoch(10);
        assert_ne!(e1, e2);
        assert!(s.stamp.iter().all(|&st| st != e2), "new epoch sees a clean slate");
        // Wrap-around resets explicitly rather than aliasing old stamps.
        s.epoch = u32::MAX;
        s.stamp.fill(u32::MAX);
        let e = s.next_epoch(10);
        assert_eq!(e, 1);
        assert!(s.stamp.iter().all(|&st| st == 0));
    }

    #[test]
    fn growth_counters_separate_growth_from_reuse() {
        let mut s = PrepareScratch::new();
        s.queries.extend_from_slice(&[Vec3::ZERO; 100]);
        s.note_frame_end();
        assert!(s.bytes_grown() > 0);
        assert_eq!(s.reuses(), 0);
        let grown = s.bytes_grown();
        // Same-size workload on warm buffers: no growth, one reuse.
        s.queries.clear();
        s.queries.extend_from_slice(&[Vec3::ZERO; 100]);
        s.note_frame_end();
        assert_eq!(s.bytes_grown(), grown);
        assert_eq!(s.reuses(), 1);
    }

    #[test]
    fn gather_lanes_follow_row_order() {
        let pts =
            vec![Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0), Vec3::new(7.0, 8.0, 9.0)];
        let mut lanes = GatherLanes::default();
        lanes.gather(&pts, &[Neighbor::new(2, 0.0), Neighbor::new(0, 1.0)]);
        assert_eq!(lanes.xs, vec![7.0, 1.0]);
        assert_eq!(lanes.ys, vec![8.0, 2.0]);
        assert_eq!(lanes.zs, vec![9.0, 3.0]);
    }
}
