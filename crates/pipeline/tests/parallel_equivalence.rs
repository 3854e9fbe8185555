//! Batched searcher entry points keep the per-query contracts of the
//! one-by-one methods: every query of a batch lands in the query log, in
//! query order, exactly as if it had been issued alone.

use tigris_geom::Vec3;
use tigris_pipeline::Searcher3;

#[test]
fn batched_searcher_respects_query_log_order() {
    let pts: Vec<Vec3> =
        (0..500).map(|i| Vec3::new((i % 25) as f64, (i / 25) as f64, 0.3)).collect();
    let queries: Vec<Vec3> = (0..64).map(|i| Vec3::new(i as f64 * 0.3, 2.0, 0.0)).collect();

    let mut s = Searcher3::two_stage(&pts, 4);
    s.enable_query_logging();
    s.nn_batch(&queries);
    let log = s.take_query_log().unwrap();
    assert_eq!(log.len(), queries.len());
    for (rec, q) in log.iter().zip(&queries) {
        assert_eq!(rec.point, *q);
    }
}
