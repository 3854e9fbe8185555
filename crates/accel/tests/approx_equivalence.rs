//! Hardware Algorithm 1 ≡ software Algorithm 1: in approximate mode the
//! accelerator, queried one at a time or in batches, answers NN and radius
//! queries bit for bit like `ApproxIndex` over a clone of the same tree,
//! with the same follower hits — before and after a leader reset.

use proptest::prelude::*;
use tigris_accel::{AccelBackend, AcceleratorConfig};
use tigris_core::{ApproxConfig, ApproxIndex, Neighbor, SearchIndex, SearchStats, TwoStageKdTree};
use tigris_geom::Vec3;

fn point() -> impl Strategy<Value = Vec3> {
    (-10.0f64..10.0, -10.0f64..10.0, -3.0f64..3.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// Random clouds, half of them snapped to a 2 m lattice so most points
/// are duplicates. Small clouds under tall top trees leave empty children,
/// so some descents dead-end before any leaf.
fn cloud() -> impl Strategy<Value = Vec<Vec3>> {
    (prop::collection::vec(point(), 0..300), any::<bool>()).prop_map(|(pts, snap)| {
        if snap {
            pts.into_iter().map(|p| Vec3::new(snap2(p.x), snap2(p.y), snap2(p.z))).collect()
        } else {
            pts
        }
    })
}

fn snap2(v: f64) -> f64 {
    (v / 2.0).round() * 2.0
}

fn approx_config() -> impl Strategy<Value = ApproxConfig> {
    (0.0f64..4.0, 0.0f64..1.0, prop_oneof![1 => Just(1usize), 3 => 1usize..20]).prop_map(
        |(nn_threshold, radius_threshold_frac, leader_cap)| ApproxConfig {
            nn_threshold,
            radius_threshold_frac,
            leader_cap,
        },
    )
}

/// One query of a stream: NN, or radius at the stream's radius.
#[derive(Debug, Clone, Copy)]
struct Query {
    at: Vec3,
    radius: bool,
}

/// A stream that revisits a few spots with jitter, the way ICP
/// re-issues its correspondences, so leaders gain followers.
fn stream() -> impl Strategy<Value = Vec<Query>> {
    let visit = (0usize..8, -0.3f64..0.3, -0.3f64..0.3, -0.3f64..0.3, any::<bool>());
    (prop::collection::vec(point(), 1..8), prop::collection::vec(visit, 1..120)).prop_map(
        |(spots, visits)| {
            visits
                .into_iter()
                .map(|(i, dx, dy, dz, radius)| Query {
                    at: spots[i % spots.len()] + Vec3::new(dx, dy, dz),
                    radius,
                })
                .collect()
        },
    )
}

/// Answers compared bit for bit: index and squared-distance bits.
fn bits(ns: &[Neighbor]) -> Vec<(usize, u64)> {
    ns.iter().map(|n| (n.index, n.distance_squared.to_bits())).collect()
}

/// One answer per query: the NN (as a zero- or one-entry row) or the
/// radius row.
type Answers = Vec<Vec<(usize, u64)>>;

/// The stream through `index` one query at a time.
fn serial(index: &mut dyn SearchIndex, qs: &[Query], r: f64) -> (Answers, SearchStats) {
    let mut stats = SearchStats::new();
    let answers = qs
        .iter()
        .map(|q| {
            if q.radius {
                bits(&index.radius(q.at, r, &mut stats))
            } else {
                bits(index.nn(q.at, &mut stats).as_slice())
            }
        })
        .collect();
    (answers, stats)
}

/// The stream through `index` in `chunk`-query batches, one batch per
/// kind per chunk, answers put back in stream order. Leader books are
/// per kind, so regrouping by kind keeps each book's arrival order.
fn batched(
    index: &mut dyn SearchIndex,
    qs: &[Query],
    r: f64,
    chunk: usize,
) -> (Answers, SearchStats) {
    let mut stats = SearchStats::new();
    let mut answers = Vec::with_capacity(qs.len());
    for part in qs.chunks(chunk) {
        let nn_at: Vec<Vec3> = part.iter().filter(|q| !q.radius).map(|q| q.at).collect();
        let radius_at: Vec<Vec3> = part.iter().filter(|q| q.radius).map(|q| q.at).collect();
        let mut nn = index.nn_batch(&nn_at, &mut stats).into_iter();
        let mut balls = index.radius_batch(&radius_at, r, &mut stats).into_iter();
        for q in part {
            answers.push(if q.radius {
                bits(&balls.next().unwrap())
            } else {
                bits(nn.next().unwrap().as_slice())
            });
        }
    }
    (answers, stats)
}

fn approx_accel(tree: &TwoStageKdTree, cfg: ApproxConfig) -> AccelBackend {
    AccelBackend::from_tree(
        tree.clone(),
        AcceleratorConfig { approx: Some(cfg), ..AcceleratorConfig::default() },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn accelerator_follows_the_same_leaders_as_approx_index(
        pts in cloud(),
        h in 0usize..9,
        cfg in approx_config(),
        qs in stream(),
        r in 0.5f64..4.0,
        chunk in 1usize..24,
    ) {
        let tree = TwoStageKdTree::build(&pts, h);
        let mut hw = approx_accel(&tree, cfg);
        let mut sw = ApproxIndex::from_tree(tree, cfg);

        let (hw_answers, hw_stats) = serial(&mut hw, &qs, r);
        let (sw_answers, sw_stats) = serial(&mut sw, &qs, r);
        prop_assert_eq!(&hw_answers, &sw_answers, "one at a time");
        prop_assert_eq!(hw_stats.follower_hits, sw_stats.follower_hits, "one at a time");
        prop_assert_eq!(hw_stats.queries, sw_stats.queries);

        // The same stream after a leader reset, now batched on the
        // accelerator: every leader must be forgotten on both sides.
        hw.reset();
        sw.reset();
        let (hw_answers, hw_stats) = batched(&mut hw, &qs, r, chunk);
        let (sw_answers, sw_stats) = serial(&mut sw, &qs, r);
        prop_assert_eq!(&hw_answers, &sw_answers, "batched after reset");
        prop_assert_eq!(hw_stats.follower_hits, sw_stats.follower_hits, "batched after reset");
    }
}

#[test]
fn dead_end_descents_have_no_leader_book() {
    // Ten points under a top tree of height 3 fill three leaves and leave
    // five children empty: a descent into one reaches no primary leaf, so
    // software runs such a query exact and records nothing. The
    // accelerator's walk goes on to a later leaf, but must not run a
    // leader check there.
    let pts: Vec<Vec3> = (0..10).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
    let tree = TwoStageKdTree::build(&pts, 3);
    assert!(!tree.leaves().is_empty());
    let dead: Vec<Vec3> = (0..96)
        .map(|i| Vec3::new(i as f64 * 0.125 - 1.0, 0.0, 0.0))
        .filter(|&q| tree.primary_leaf(q).is_none())
        .collect();
    assert!(!dead.is_empty(), "the fixture must dead-end some descents");
    let cfg = ApproxConfig { nn_threshold: 10.0, radius_threshold_frac: 1.0, leader_cap: 16 };
    let qs: Vec<Query> = dead
        .iter()
        .chain(&dead)
        .flat_map(|&at| [Query { at, radius: false }, Query { at, radius: true }])
        .collect();
    let mut hw = approx_accel(&tree, cfg);
    let mut sw = ApproxIndex::from_tree(tree, cfg);
    let (hw_answers, hw_stats) = serial(&mut hw, &qs, 2.0);
    let (sw_answers, sw_stats) = serial(&mut sw, &qs, 2.0);
    assert_eq!(sw_stats.follower_hits, 0);
    assert_eq!(hw_stats.follower_hits, 0);
    assert_eq!(hw_answers, sw_answers);
}
