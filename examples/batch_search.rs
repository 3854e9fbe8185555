//! Batched neighbor search through the `SearchIndex` seam: the two-stage
//! KD-tree's redundant node visits (paper Sec. 4.1) and the approximate
//! search's followers (Algorithm 1), counted on one query stream.
//!
//! Builds a dense synthetic frame, then runs the same RPCE-style NN query
//! stream three ways — serial classic tree, one two-stage batch, and one
//! approximate batch — printing wall-clock, node-visit counts and the
//! follower rate. The two-stage batch must return exactly the classic
//! tree's neighbors (same indices, same distance bits).
//!
//! ```text
//! cargo run --release --example batch_search
//! ```

use std::time::Instant;

use tigris::core::index::SearchIndex;
use tigris::core::{ApproxConfig, ApproxIndex, KdTree, SearchStats, TwoStageKdTree};
use tigris::data::{Sequence, SequenceConfig};

fn main() {
    let seq = Sequence::generate(&SequenceConfig::medium(), 42);
    let target = seq.frame(0).points().to_vec();
    let queries = seq.frame(1).points().to_vec();
    println!("indexed {} points, querying {} NNs\n", target.len(), queries.len());

    // Serial baseline: the canonical KD-tree, one query at a time.
    let classic = KdTree::build(&target);
    let mut serial_stats = SearchStats::new();
    let t0 = Instant::now();
    let serial: Vec<_> =
        queries.iter().map(|&q| classic.nn_with_stats(q, &mut serial_stats)).collect();
    let serial_time = t0.elapsed();
    println!(
        "classic serial      {serial_time:>10.2?}  ({:.0} visits/query)",
        serial_stats.visits_per_query()
    );

    // One batch on the two-stage tree: more node visits, same answers.
    let mut two_stage = TwoStageKdTree::build(&target, 7);
    let mut stats = SearchStats::new();
    let t0 = Instant::now();
    let batched = two_stage.nn_batch(&queries, &mut stats);
    let elapsed = t0.elapsed();
    // Exact search: the same neighbor for every query, bit for bit, and
    // every query counted once.
    let bits =
        |n: &Option<tigris::core::Neighbor>| n.map(|n| (n.index, n.distance_squared.to_bits()));
    assert_eq!(batched.len(), serial.len());
    assert!(batched.iter().zip(&serial).all(|(a, b)| bits(a) == bits(b)));
    assert_eq!(stats.queries, serial_stats.queries);
    println!(
        "two-stage batched   {elapsed:>10.2?}  ({:.0} visits/query)",
        stats.visits_per_query()
    );

    // The approximate leader/follower search over the same tree.
    let mut approx = ApproxIndex::from_tree(two_stage, ApproxConfig::default());
    let mut stats = SearchStats::new();
    let t0 = Instant::now();
    approx.nn_batch(&queries, &mut stats);
    let elapsed = t0.elapsed();
    println!(
        "approx batched      {elapsed:>10.2?}  followers={:.0}% ({:.0} visits/query)",
        stats.follower_rate() * 100.0,
        stats.visits_per_query()
    );
}
