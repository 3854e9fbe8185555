//! Batched parallel neighbor search: the query-level parallelism of the
//! two-stage KD-tree (paper Sec. 4.1), in software.
//!
//! Builds a dense synthetic frame, then runs the same RPCE-style NN query
//! stream three ways — serial classic tree, batched two-stage tree at
//! several thread counts, and the batched approximate index — printing
//! wall-clock, node-visit counts and the follower rate. Results are
//! bit-identical between serial and batched execution at any thread
//! count; only the wall-clock moves.
//!
//! ```text
//! cargo run --release --example batch_search
//! ```

use std::time::Instant;

use tigris::core::index::SearchIndex;
use tigris::core::{ApproxConfig, ApproxIndex, BatchConfig, KdTree, SearchStats, TwoStageKdTree};
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

    // Batched two-stage tree across thread counts.
    let mut two_stage = TwoStageKdTree::build(&target, 7);
    for threads in [1usize, 2, 4, 0] {
        let cfg = BatchConfig { threads, min_chunk: 64 };
        let mut stats = SearchStats::new();
        let t0 = Instant::now();
        let batched = two_stage.nn_batch(&queries, &cfg, &mut stats);
        let elapsed = t0.elapsed();
        let label = if threads == 0 { "auto".into() } else { format!("{threads}") };
        // Exact search: identical answers, counted identically.
        assert_eq!(batched.len(), serial.len());
        assert!(batched
            .iter()
            .zip(&serial)
            .all(|(a, b)| a.map(|n| n.distance_squared) == b.map(|n| n.distance_squared)));
        println!(
            "two-stage batched   {elapsed:>10.2?}  threads={label:<4} ({:.0} visits/query)",
            stats.visits_per_query()
        );
    }

    // The approximate leader/follower search, batched by leaf.
    let mut approx = ApproxIndex::from_tree(two_stage, ApproxConfig::default());
    let cfg = BatchConfig::auto();
    let mut stats = SearchStats::new();
    let t0 = Instant::now();
    approx.nn_batch(&queries, &cfg, &mut stats);
    let elapsed = t0.elapsed();
    println!(
        "approx batched      {elapsed:>10.2?}  followers={:.0}% ({:.0} visits/query)",
        stats.follower_rate() * 100.0,
        stats.visits_per_query()
    );
}
