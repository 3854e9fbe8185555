//! Query records: a serializable trace of the searches a workload issued.
//!
//! The registration pipeline can log every KD-tree query it makes
//! (`tigris-pipeline`'s `Searcher3::enable_query_logging`), and the
//! accelerator model can *replay* the exact stream
//! (`tigris-accel`'s `AccelBackend::replay`) — giving the end-to-end
//! evaluation the accelerator's simulated time for precisely the searches
//! the software actually performed.

use tigris_geom::Vec3;

/// The kind of search a record describes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryKind {
    /// Nearest-neighbor search.
    Nn,
    /// Radius search with the given radius.
    Radius(f64),
    /// k-nearest-neighbors search.
    Knn(usize),
}

/// One logged query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRecord {
    /// The query point.
    pub point: Vec3,
    /// What was searched for.
    pub kind: QueryKind,
}

impl QueryRecord {
    /// An NN query record.
    pub fn nn(point: Vec3) -> Self {
        QueryRecord { point, kind: QueryKind::Nn }
    }

    /// A radius query record.
    pub fn radius(point: Vec3, radius: f64) -> Self {
        QueryRecord { point, kind: QueryKind::Radius(radius) }
    }

    /// A k-NN query record.
    pub fn knn(point: Vec3, k: usize) -> Self {
        QueryRecord { point, kind: QueryKind::Knn(k) }
    }
}

/// Splits a query log into maximal runs of the same kind, preserving
/// order — the unit the accelerator replays as one batch.
pub fn segment_by_kind(records: &[QueryRecord]) -> Vec<(QueryKind, Vec<Vec3>)> {
    let mut out: Vec<(QueryKind, Vec<Vec3>)> = Vec::new();
    for r in records {
        match out.last_mut() {
            Some((kind, points)) if *kind == r.kind => points.push(r.point),
            _ => out.push((r.kind, vec![r.point])),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(QueryRecord::nn(Vec3::X).kind, QueryKind::Nn);
        assert_eq!(QueryRecord::radius(Vec3::X, 2.0).kind, QueryKind::Radius(2.0));
        assert_eq!(QueryRecord::knn(Vec3::X, 5).kind, QueryKind::Knn(5));
    }

    #[test]
    fn segmentation_groups_runs() {
        let log = vec![
            QueryRecord::nn(Vec3::X),
            QueryRecord::nn(Vec3::Y),
            QueryRecord::radius(Vec3::Z, 1.0),
            QueryRecord::radius(Vec3::X, 1.0),
            QueryRecord::radius(Vec3::Y, 2.0), // different radius → new run
            QueryRecord::nn(Vec3::Z),
        ];
        let segs = segment_by_kind(&log);
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[0].0, QueryKind::Nn);
        assert_eq!(segs[0].1.len(), 2);
        assert_eq!(segs[1].1.len(), 2);
        assert_eq!(segs[2].0, QueryKind::Radius(2.0));
        assert_eq!(segs[3].1.len(), 1);
    }

    #[test]
    fn empty_log() {
        assert!(segment_by_kind(&[]).is_empty());
    }
}
