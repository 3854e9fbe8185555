//! The `SearchIndex` trait contract, verified generically for every
//! backend (see the contract section of `tigris_core::index::SearchIndex`):
//!
//! * exact backends agree with brute force **bit-for-bit** (indices and
//!   squared distances, tie-break and ordering included);
//! * the approximate backend stays within Algorithm 1's bound (NN distance
//!   at most `2·thd` beyond exact; radius results a sound subset);
//! * an exact backend's radius row at `r` is, bit for bit, the
//!   `d² ≤ r²` prefix of its row at any `R ≥ r` (grouped rows included)
//!   — the rule the front end's shared neighbourhood pass rests on;
//! * exact backends' 2-NN (`SharedIndex::nn2_shared`) is brute force's
//!   `knn(q, 2)`, ties to the lower index included;
//! * every `*_batch` entry point is equivalent to the serial loop —
//!   results in query order and `SearchStats` metered identically;
//! * exact backends' shared (`&self`) view answers and meters exactly
//!   like the exclusive (`&mut self`) entry points;
//! * the registry instantiates every built-in by name, and `name()`
//!   round-trips;
//! * points with a NaN or infinite coordinate are never indexed: exact
//!   backends answer as brute force over the finite points.
//!
//! New backends registered from other crates (e.g. `tigris-accel`'s
//! `"accelerator"`) are exercised by the same logic through the
//! workspace-level tests.

use proptest::prelude::*;
use tigris_core::index::{backend_names, build_backend, SearchIndex};
use tigris_core::{
    knn_brute_force, nn_brute_force, radius_brute_force, ApproxConfig, ApproxIndex,
    DynamicMapIndex, KdTree, Neighbor, SearchStats,
};
use tigris_geom::Vec3;

fn lcg_cloud(n: usize, seed: u64) -> Vec<Vec3> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) * 20.0 - 10.0
    };
    (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
}

const EXACT_BACKENDS: [&str; 4] = ["classic", "two-stage", "brute-force", "dynamic"];
const ALL_BACKENDS: [&str; 5] =
    ["classic", "two-stage", "two-stage-approx", "brute-force", "dynamic"];

#[test]
fn registry_instantiates_every_builtin() {
    let names = backend_names();
    let pts = lcg_cloud(100, 1);
    for name in ALL_BACKENDS {
        assert!(names.iter().any(|n| n == name), "{name} not registered");
        let index = build_backend(name, &pts).expect(name);
        assert_eq!(index.name(), name, "name() must match the registry key");
        assert_eq!(index.len(), pts.len());
    }
}

#[test]
fn exact_backends_agree_with_brute_force_bit_for_bit() {
    let pts = lcg_cloud(1500, 2);
    let queries = lcg_cloud(200, 3);
    for name in EXACT_BACKENDS {
        let mut index = build_backend(name, &pts).unwrap();
        let mut stats = SearchStats::new();
        let mut answers = Vec::new();
        for &q in &queries {
            let nn = index.nn(q, &mut stats).unwrap();
            let oracle = nn_brute_force(&pts, q).unwrap();
            assert_eq!(
                (nn.index, nn.distance_squared),
                (oracle.index, oracle.distance_squared),
                "{name}: nn mismatch"
            );

            let knn = index.knn(q, 7, &mut stats);
            assert_eq!(knn, knn_brute_force(&pts, q, 7), "{name}: knn mismatch");

            let ball = index.radius(q, 2.5, &mut stats);
            assert_eq!(ball, radius_brute_force(&pts, q, 2.5), "{name}: radius mismatch");
            answers.push((nn, knn, ball));
        }
        assert_eq!(stats.queries, 3 * queries.len() as u64, "{name}: query accounting");

        // The shared view repeats the exclusive answers and metering.
        let shared = index.as_shared().unwrap_or_else(|| panic!("{name} must be shared"));
        let mut shared_stats = SearchStats::new();
        for (&q, (nn, knn, ball)) in queries.iter().zip(&answers) {
            assert_eq!(shared.nn_shared(q, &mut shared_stats), Some(*nn), "{name}: nn_shared");
            assert_eq!(shared.knn_shared(q, 7, &mut shared_stats), *knn, "{name}: knn_shared");
            let shared_ball = shared.radius_shared(q, 2.5, &mut shared_stats);
            assert_eq!(shared_ball, *ball, "{name}: radius_shared");
        }
        assert_eq!(shared_stats, stats, "{name}: shared metering");
    }
}

#[test]
fn knn_boundary_ties_break_to_lower_index_on_every_exact_backend() {
    // A regular grid puts many points at identical distances; the k-th
    // boundary then holds ties, and every exact backend must resolve them
    // exactly like brute force (lower index wins).
    let pts: Vec<Vec3> = (0..512)
        .map(|i| Vec3::new((i % 8) as f64, ((i / 8) % 8) as f64, (i / 64) as f64))
        .collect();
    let queries: Vec<Vec3> =
        (0..64).map(|i| Vec3::new((i % 8) as f64 + 0.5, (i / 8) as f64, 2.0)).collect();
    for name in EXACT_BACKENDS {
        let mut index = build_backend(name, &pts).unwrap();
        let mut stats = SearchStats::new();
        for &q in &queries {
            for k in [1, 3, 6, 13] {
                assert_eq!(
                    index.knn(q, k, &mut stats),
                    knn_brute_force(&pts, q, k),
                    "{name}: knn tie-break mismatch at k={k}"
                );
            }
        }
    }
}

#[test]
fn nn2_is_brute_force_knn2_on_every_exact_backend() {
    // The lcg cloud plus a regular grid whose every point appears twice:
    // the two nearest are often exact duplicates (equal d², lower index
    // first), and grid-centred probes sit at equal distance from whole
    // cells of points (ties across both slots and beyond them).
    let grid: Vec<Vec3> = (0..256)
        .map(|i| Vec3::new((i % 8) as f64, ((i / 8) % 8) as f64, ((i / 64) % 4) as f64))
        .collect();
    let doubled: Vec<Vec3> = grid.iter().chain(&grid).copied().collect();
    let mut probes: Vec<Vec3> =
        (0..48).map(|i| Vec3::new((i % 8) as f64 + 0.5, (i / 8) as f64 * 0.5, 1.5)).collect();
    probes.extend(grid.iter().step_by(17));
    let mut fixtures =
        vec![("lcg", lcg_cloud(1500, 12), lcg_cloud(120, 13)), ("doubled-grid", doubled, probes)];
    fixtures.extend(degenerate_fixtures());
    for (fixture, pts, queries) in fixtures {
        for name in EXACT_BACKENDS {
            let index = build_backend(name, &pts).unwrap();
            let shared = index.as_shared().unwrap_or_else(|| panic!("{name} must be shared"));
            let mut stats = SearchStats::new();
            let serial: Vec<_> =
                queries.iter().map(|&q| shared.nn2_shared(q, &mut stats)).collect();
            for (&q, got) in queries.iter().zip(&serial) {
                let want = knn_brute_force(&pts, q, 2);
                assert_eq!(
                    *got,
                    [want.first().copied(), want.get(1).copied()],
                    "{name} on {fixture}: nn2 mismatch at {q:?}"
                );
            }
            assert_eq!(stats.queries, queries.len() as u64, "{name} on {fixture}: nn2 metering");
        }
    }
}

/// Degenerate geometries that collapse one or more split dimensions: the
/// median-split build must still terminate, partition soundly, and answer
/// exactly. Each fixture pairs a cloud with probe queries on and off the
/// degenerate subspace.
fn degenerate_fixtures() -> Vec<(&'static str, Vec<Vec3>, Vec<Vec3>)> {
    let collinear: Vec<Vec3> = (0..97).map(|i| Vec3::new(i as f64 * 0.25, 3.0, -1.0)).collect();
    let coincident = vec![Vec3::new(0.5, -0.5, 2.0); 64];
    let single = vec![Vec3::new(-7.0, 0.0, 1.0)];
    let plane_xy: Vec<Vec3> =
        (0..144).map(|i| Vec3::new((i % 12) as f64, (i / 12) as f64, 4.0)).collect();
    let plane_yz: Vec<Vec3> =
        (0..100).map(|i| Vec3::new(-2.0, (i % 10) as f64 * 0.5, (i / 10) as f64 * 0.5)).collect();
    let two_planes: Vec<Vec3> = (0..80)
        .map(|i| {
            Vec3::new((i % 8) as f64, ((i / 8) % 5) as f64, if i % 2 == 0 { 0.0 } else { 9.0 })
        })
        .collect();
    vec![
        (
            "all-collinear",
            collinear,
            vec![
                Vec3::new(5.1, 3.0, -1.0),
                Vec3::new(12.0, 10.0, 10.0),
                Vec3::new(-1.0, 3.0, -1.0),
            ],
        ),
        (
            "all-coincident",
            coincident,
            vec![Vec3::new(0.5, -0.5, 2.0), Vec3::new(1.5, -0.5, 2.0), Vec3::ZERO],
        ),
        ("single-point", single, vec![Vec3::new(-7.0, 0.0, 1.0), Vec3::ZERO]),
        (
            "axis-aligned-plane-xy",
            plane_xy,
            vec![Vec3::new(5.5, 5.5, 4.0), Vec3::new(5.5, 5.5, -30.0), Vec3::new(0.0, 11.0, 4.5)],
        ),
        (
            "axis-aligned-plane-yz",
            plane_yz,
            vec![Vec3::new(-2.0, 2.2, 2.2), Vec3::new(40.0, 0.0, 0.0)],
        ),
        (
            "two-parallel-planes",
            two_planes,
            vec![Vec3::new(3.0, 2.0, 4.5), Vec3::new(3.0, 2.0, 4.6), Vec3::new(7.0, 4.0, 9.0)],
        ),
    ]
}

#[test]
fn exact_backends_survive_degenerate_geometry_bit_for_bit() {
    for (fixture, pts, probes) in degenerate_fixtures() {
        for name in EXACT_BACKENDS {
            let mut index = build_backend(name, &pts).unwrap();
            let mut stats = SearchStats::new();
            for &q in &probes {
                let nn = index.nn(q, &mut stats).unwrap();
                let oracle = nn_brute_force(&pts, q).unwrap();
                assert_eq!(
                    (nn.index, nn.distance_squared),
                    (oracle.index, oracle.distance_squared),
                    "{name} on {fixture}: nn mismatch"
                );
                // k at, below and beyond the cloud size; coincident clouds
                // make every candidate an exact tie.
                for k in [1, 2, pts.len(), pts.len() + 5] {
                    assert_eq!(
                        index.knn(q, k, &mut stats),
                        knn_brute_force(&pts, q, k),
                        "{name} on {fixture}: knn mismatch at k={k}"
                    );
                }
                // Radii from zero through "covers everything".
                for r in [0.0, 0.5, 3.0, 1000.0] {
                    assert_eq!(
                        index.radius(q, r, &mut stats),
                        radius_brute_force(&pts, q, r),
                        "{name} on {fixture}: radius mismatch at r={r}"
                    );
                }
            }
        }
    }
}

#[test]
fn degenerate_geometry_batches_match_serial() {
    // The SoA leaf arenas see pathological layouts here (every point in
    // one leaf chain, duplicated coordinates across all lanes), and the
    // approximate backend sees probes whose top-tree descent dead-ends
    // (every probe of the single-point fixture); batched execution must
    // still replay the serial scan, leader books included.
    for (fixture, pts, probes) in degenerate_fixtures() {
        for name in ALL_BACKENDS {
            let at = format!("{name} on {fixture}");
            let mut serial = build_backend(name, &pts).unwrap();
            let mut batched = build_backend(name, &pts).unwrap();
            let mut s_stats = SearchStats::new();
            let mut b_stats = SearchStats::new();
            let s_nn: Vec<_> = probes.iter().map(|&q| serial.nn(q, &mut s_stats)).collect();
            let b_nn = batched.nn_batch(&probes, &mut b_stats);
            assert_eq!(s_nn, b_nn, "{at}: batched nn differs");
            for r in [0.0, 0.5, 3.0, 1000.0] {
                let s_rad: Vec<_> =
                    probes.iter().map(|&q| serial.radius(q, r, &mut s_stats)).collect();
                let b_rad = batched.radius_batch(&probes, r, &mut b_stats);
                assert_eq!(s_rad, b_rad, "{at}: batched radius differs at r={r}");
            }
            assert_eq!(s_stats, b_stats, "{at}: stats merge");
        }
    }
}

/// `(index, d² bits)` of every hit — the bit-for-bit form of a row.
fn row_bits(row: &[Neighbor]) -> Vec<(usize, u64)> {
    row.iter().map(|n| (n.index, n.distance_squared.to_bits())).collect()
}

/// The hits of a canonical `(d², index)` row within `r`: the row's
/// `d² ≤ r · r` prefix.
fn radius_prefix(row: &[Neighbor], r: f64) -> &[Neighbor] {
    &row[..row.partition_point(|n| n.distance_squared <= r * r)]
}

#[test]
fn smaller_radius_rows_are_prefixes_of_larger_ones() {
    // The front end fits normals on a prefix of each ISS row instead of
    // searching again; that is exact only if every exact backend's
    // radius(q, r) is, bit for bit, the d² ≤ r² prefix of
    // radius(q, R ≥ r). An integer grid with every fifth point
    // duplicated puts whole shells of hits exactly on r = 1, 2, 3 (d² =
    // 1, 4, 9) and equal-d² runs that the index must tie-break alike.
    let mut grid: Vec<Vec3> = (0..343)
        .map(|i| Vec3::new((i % 7) as f64, ((i / 7) % 7) as f64, (i / 49) as f64))
        .collect();
    let copies: Vec<Vec3> = grid.iter().step_by(5).copied().collect();
    grid.extend(copies);
    let grid_probes: Vec<Vec3> = grid.iter().step_by(11).copied().chain(lcg_cloud(20, 9)).collect();
    let fixtures = [
        (
            "grid with duplicates",
            grid,
            grid_probes,
            vec![(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (1.5, 1.5)],
        ),
        (
            "lcg cloud",
            lcg_cloud(1500, 10),
            lcg_cloud(60, 11),
            vec![(0.6, 0.8), (1.0, 2.5), (0.3, 3.0)],
        ),
    ];
    for (fixture, pts, probes, radii) in fixtures {
        for name in EXACT_BACKENDS {
            let mut index = build_backend(name, &pts).unwrap();
            let mut stats = SearchStats::new();
            for &(small, big) in &radii {
                let at = format!("{name} on {fixture}, r = {small} within R = {big}");
                let mut grouped = vec![Vec::new(); probes.len()];
                if let Some(shared) = index.as_shared() {
                    shared.radius_group_into_shared(&probes, big, &mut grouped, &mut stats);
                }
                for (qi, &q) in probes.iter().enumerate() {
                    let wide = index.radius(q, big, &mut stats);
                    let narrow = index.radius(q, small, &mut stats);
                    assert_eq!(
                        row_bits(radius_prefix(&wide, small)),
                        row_bits(&narrow),
                        "{at}: probe {qi}"
                    );
                    if index.as_shared().is_some() {
                        // The grouped traversal the front end reads its
                        // rows from obeys the same rule.
                        assert_eq!(
                            row_bits(radius_prefix(&grouped[qi], small)),
                            row_bits(&narrow),
                            "{at}: grouped probe {qi}"
                        );
                    }
                }
            }
        }
    }
}

/// Brute force over the finite points of a cloud, indices mapped back
/// into the cloud: what an exact backend built over it must answer.
struct FiniteOracle {
    ids: Vec<usize>,
    points: Vec<Vec3>,
}

impl FiniteOracle {
    fn new(cloud: &[Vec3]) -> Self {
        let ids: Vec<usize> = (0..cloud.len()).filter(|&i| cloud[i].is_finite()).collect();
        let points = ids.iter().map(|&i| cloud[i]).collect();
        FiniteOracle { ids, points }
    }

    fn back(&self, n: Neighbor) -> Neighbor {
        Neighbor::new(self.ids[n.index], n.distance_squared)
    }

    fn knn(&self, q: Vec3, k: usize) -> Vec<Neighbor> {
        knn_brute_force(&self.points, q, k).into_iter().map(|n| self.back(n)).collect()
    }

    fn radius(&self, q: Vec3, r: f64) -> Vec<Neighbor> {
        radius_brute_force(&self.points, q, r).into_iter().map(|n| self.back(n)).collect()
    }
}

#[test]
fn non_finite_points_are_never_indexed() {
    // NaN, +∞ and −∞, on every axis and on one axis only, spread through
    // the build order so they land on both sides of early splits.
    let bad = vec![
        Vec3::splat(f64::NAN),
        Vec3::new(1.0, f64::NAN, 2.0),
        Vec3::splat(f64::INFINITY),
        Vec3::new(f64::NEG_INFINITY, 0.0, 0.0),
        Vec3::new(3.0, -4.0, f64::INFINITY),
        Vec3::splat(f64::NEG_INFINITY),
    ];
    let mut salted = lcg_cloud(400, 30);
    for (i, &p) in bad.iter().enumerate() {
        salted.insert(i * 67, p);
    }
    // Off-cloud probes plus probes sitting exactly on finite points.
    let mut probes = lcg_cloud(40, 31);
    probes.extend(salted.iter().filter(|p| p.is_finite()).step_by(40));
    for (fixture, cloud) in [("salted", salted), ("non-finite only", bad)] {
        let oracle = FiniteOracle::new(&cloud);
        for name in ALL_BACKENDS {
            let at = format!("{name} on {fixture}");
            let exact = EXACT_BACKENDS.contains(&name);
            let mut index = build_backend(name, &cloud).unwrap();
            let mut stats = SearchStats::new();
            let (mut nns, mut balls) = (Vec::new(), Vec::new());
            for &q in &probes {
                let nn = index.nn(q, &mut stats);
                let knn = index.knn(q, 9, &mut stats);
                let every = index.knn(q, cloud.len(), &mut stats);
                let ball = index.radius(q, 3.0, &mut stats);
                for n in nn.iter().chain(&knn).chain(&every).chain(&ball) {
                    assert!(cloud[n.index].is_finite(), "{at}: returned point {}", n.index);
                }
                if exact {
                    assert_eq!(nn, oracle.knn(q, 1).first().copied(), "{at}: nn");
                    assert_eq!(knn, oracle.knn(q, 9), "{at}: knn");
                    assert_eq!(every, oracle.knn(q, cloud.len()), "{at}: knn of all");
                    assert_eq!(ball, oracle.radius(q, 3.0), "{at}: radius");
                }
                nns.push(nn);
                balls.push(ball);
            }
            // The batched and shared entry points must not panic either;
            // on exact backends they repeat the serial answers.
            let nn_batch = index.nn_batch(&probes, &mut stats);
            let radius_batch = index.radius_batch(&probes, 3.0, &mut stats);
            if !exact {
                continue;
            }
            assert_eq!(nn_batch, nns, "{at}: nn batch");
            assert_eq!(radius_batch, balls, "{at}: radius batch");
            let shared = index.as_shared().unwrap_or_else(|| panic!("{at} must be shared"));
            let mut rows = vec![Vec::new(); probes.len()];
            shared.radius_group_into_shared(&probes, 3.0, &mut rows, &mut stats);
            assert_eq!(rows, balls, "{at}: grouped radius");
            for &q in &probes {
                let two = oracle.knn(q, 2);
                let want = [two.first().copied(), two.get(1).copied()];
                assert_eq!(shared.nn2_shared(q, &mut stats), want, "{at}: nn2");
            }
        }
    }
}

#[test]
fn approx_backend_stays_within_algorithm1_bound() {
    let pts = lcg_cloud(4000, 4);
    let queries = lcg_cloud(400, 5);
    let cfg = ApproxConfig::default();
    let mut index: Box<dyn SearchIndex> = Box::new(ApproxIndex::build(&pts, 5, cfg));
    let mut stats = SearchStats::new();
    for &q in &queries {
        // NN: the follower inherits its leader's NN; triangle inequality
        // bounds the reported distance by exact + 2·thd.
        let approx = index.nn(q, &mut stats).unwrap();
        let exact = nn_brute_force(&pts, q).unwrap();
        assert!(
            approx.distance() <= exact.distance() + 2.0 * cfg.nn_threshold + 1e-9,
            "approx {} exceeds exact {} + 2·thd",
            approx.distance(),
            exact.distance()
        );

        // Radius: a follower filters the leader's ball by its own radius,
        // so results are always sound (within r) and a subset of exact.
        let r = 2.0;
        let exact_ball = radius_brute_force(&pts, q, r);
        let approx_ball = index.radius(q, r, &mut stats);
        assert!(approx_ball.len() <= exact_ball.len(), "approx radius over-complete");
        for n in &approx_ball {
            assert!(n.distance_squared <= r * r + 1e-12, "unsound radius result");
            assert!(exact_ball.iter().any(|e| e.index == n.index), "result not in exact ball");
        }
    }
    assert!(stats.follower_hits > 0, "workload should exercise the follower path");
}

#[test]
fn batched_equals_serial_for_every_backend() {
    let pts = lcg_cloud(2500, 6);
    let queries = lcg_cloud(333, 7);
    for name in ALL_BACKENDS {
        // Fresh instances so stateful leader books start identical.
        let mut serial = build_backend(name, &pts).unwrap();
        let mut batched = build_backend(name, &pts).unwrap();
        let mut s_stats = SearchStats::new();
        let mut b_stats = SearchStats::new();

        let s_nn: Vec<_> = queries.iter().map(|&q| serial.nn(q, &mut s_stats)).collect();
        let b_nn = batched.nn_batch(&queries, &mut b_stats);
        assert_eq!(s_nn, b_nn, "{name}: batched nn differs from serial");

        let s_rad: Vec<_> = queries.iter().map(|&q| serial.radius(q, 1.5, &mut s_stats)).collect();
        let b_rad = batched.radius_batch(&queries, 1.5, &mut b_stats);
        assert_eq!(s_rad, b_rad, "{name}: batched radius differs from serial");

        // The batch meters exactly the serial totals.
        assert_eq!(s_stats, b_stats, "{name}: batched stats differ from serial");
    }
}

#[test]
fn stats_merge_is_lossless_across_chunked_runs() {
    // Issuing the same stream in chunks with separately merged stats must
    // reproduce the one-shot totals, for stateless and stateful backends.
    let pts = lcg_cloud(1200, 8);
    let queries = lcg_cloud(240, 9);
    for name in ALL_BACKENDS {
        let mut whole = build_backend(name, &pts).unwrap();
        let mut whole_stats = SearchStats::new();
        let whole_out: Vec<_> = queries.iter().map(|&q| whole.nn(q, &mut whole_stats)).collect();

        let mut chunked = build_backend(name, &pts).unwrap();
        let mut merged = SearchStats::new();
        let mut chunked_out = Vec::new();
        for chunk in queries.chunks(64) {
            let mut local = SearchStats::new();
            chunked_out.extend(chunk.iter().map(|&q| chunked.nn(q, &mut local)));
            merged += local;
        }
        assert_eq!(whole_out, chunked_out, "{name}: chunked results differ");
        assert_eq!(whole_stats, merged, "{name}: chunked stats merge is lossy");
    }
}

#[test]
fn reset_clears_approximation_state_only() {
    let pts = lcg_cloud(800, 10);
    let queries = lcg_cloud(50, 11);
    for name in ALL_BACKENDS {
        let mut index = build_backend(name, &pts).unwrap();
        let mut stats = SearchStats::new();
        for &q in &queries {
            index.nn(q, &mut stats);
        }
        index.reset();
        // After reset the first query is served fresh (for the approximate
        // backend: as a leader, i.e. exactly).
        let q = queries[0];
        let mut post = SearchStats::new();
        let n = index.nn(q, &mut post).unwrap();
        let oracle = nn_brute_force(&pts, q).unwrap();
        assert_eq!(n.index, oracle.index, "{name}: first query after reset must be exact");
        assert_eq!(post.follower_hits, 0, "{name}: reset must clear follower state");
    }
}

#[test]
fn empty_index_behaves_uniformly() {
    for name in ALL_BACKENDS {
        let mut index = build_backend(name, &[]).unwrap();
        let mut stats = SearchStats::new();
        assert!(index.is_empty(), "{name}");
        assert!(index.nn(Vec3::ZERO, &mut stats).is_none(), "{name}");
        assert!(index.knn(Vec3::ZERO, 3, &mut stats).is_empty(), "{name}");
        assert!(index.radius(Vec3::ZERO, 1.0, &mut stats).is_empty(), "{name}");
        let out = index.nn_batch(&[Vec3::ZERO], &mut stats);
        assert_eq!(out, vec![None], "{name}");
    }
}

// ---- DynamicMapIndex: incremental inserts vs. from-scratch rebuild -------

/// One step of an interleaved insert/query schedule.
#[derive(Debug, Clone)]
enum DynOp {
    Insert(Vec3),
    InsertBatch(Vec<Vec3>),
    Nn(Vec3),
    Knn(Vec3, usize),
    Radius(Vec3, f64),
}

fn dyn_point() -> impl Strategy<Value = Vec3> {
    (-30.0f64..30.0, -30.0f64..30.0, -30.0f64..30.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn dyn_op() -> impl Strategy<Value = DynOp> {
    (0usize..5, dyn_point(), 1usize..12, 0.1f64..8.0, prop::collection::vec(dyn_point(), 1..40))
        .prop_map(|(kind, p, k, r, batch)| match kind {
            0 => DynOp::Insert(p),
            1 => DynOp::InsertBatch(batch),
            2 => DynOp::Nn(p),
            3 => DynOp::Knn(p, k),
            _ => DynOp::Radius(p, r),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After ANY interleaving of single inserts, batch inserts and queries
    /// — across rebuild boundaries (tiny fresh capacity) — every query
    /// answers bit-identically to a KD-tree rebuilt from scratch over the
    /// same points at that instant.
    #[test]
    fn dynamic_index_is_bit_identical_to_full_rebuild(
        ops in prop::collection::vec(dyn_op(), 1..60),
        cap in 1usize..48,
    ) {
        let mut index = DynamicMapIndex::with_fresh_capacity(cap);
        let mut mirror: Vec<Vec3> = Vec::new();
        for op in &ops {
            match op {
                DynOp::Insert(p) => {
                    index.insert(*p);
                    mirror.push(*p);
                }
                DynOp::InsertBatch(batch) => {
                    index.extend(batch);
                    mirror.extend_from_slice(batch);
                }
                DynOp::Nn(q) => {
                    let rebuilt = KdTree::build(&mirror);
                    prop_assert_eq!(index.nn_query(*q), rebuilt.nn(*q));
                }
                DynOp::Knn(q, k) => {
                    let rebuilt = KdTree::build(&mirror);
                    prop_assert_eq!(index.knn_query(*q, *k), rebuilt.knn(*q, *k));
                }
                DynOp::Radius(q, r) => {
                    let rebuilt = KdTree::build(&mirror);
                    prop_assert_eq!(index.radius_query(*q, *r), rebuilt.radius(*q, *r));
                }
            }
            prop_assert_eq!(index.all_points(), &mirror[..]);
            prop_assert!(index.fresh_len() < cap.max(1),
                "fresh buffer {} must stay below its capacity {}", index.fresh_len(), cap);
        }
    }
}

#[test]
fn dynamic_index_through_the_trait_matches_growing_brute_force() {
    // The registry-built backend answers over its build-time points;
    // inserts through the concrete type keep it exact afterwards.
    let pts = lcg_cloud(400, 20);
    let (initial, growth) = pts.split_at(150);
    let mut index = DynamicMapIndex::with_fresh_capacity(37);
    index.extend(initial);
    let queries = lcg_cloud(40, 21);
    for (i, grow) in growth.chunks(11).enumerate() {
        index.extend(grow);
        let have = &pts[..150 + (i * 11 + grow.len()).min(growth.len())];
        let q = queries[i % queries.len()];
        let mut stats = SearchStats::new();
        let nn = SearchIndex::nn(&mut index, q, &mut stats).unwrap();
        let oracle = nn_brute_force(have, q).unwrap();
        assert_eq!((nn.index, nn.distance_squared), (oracle.index, oracle.distance_squared));
    }
}
