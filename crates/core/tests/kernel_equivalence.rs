//! Differential property tests for the SIMD kernel seam: the blocked
//! [`tigris_core::simd::wide`] kernels must be **bit-identical** to the
//! [`tigris_core::simd::scalar`] reference — not merely close — on
//! adversarial inputs: exact duplicates, exact distance ties, remainder
//! lane counts (`n % 8 ≠ 0`, with and without a half block), subnormal
//! coordinates, and radius hits exactly on the boundary.
//!
//! Both modules are always compiled regardless of the `scalar-kernels`
//! feature, so one binary exercises the pair differentially; a final test
//! pins the build-time re-exports to whichever module
//! [`tigris_core::simd::wide_kernels_selected`] reports. The 2-NN walks
//! of the trees, which run on the selected kernels, are checked against
//! brute force here too, so both feature settings cover them.

use proptest::prelude::*;
use tigris_core::simd::{self, scalar, wide, Top2, LANES, LANES_HALF, TOP2_EMPTY};
use tigris_core::{knn_brute_force, KdTree, Neighbor, PointSoA, TwoStageKdTree};
use tigris_geom::Vec3;

/// Coordinates weighted toward the values that break sloppy kernels:
/// signed zeros, subnormals, and magnitudes whose squares underflow.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => -100.0f64..100.0,
        1 => Just(0.0),
        1 => Just(-0.0),
        1 => Just(f64::MIN_POSITIVE),       // smallest normal
        1 => Just(f64::MIN_POSITIVE / 8.0), // subnormal
        1 => Just(-1.0e-160),               // square is subnormal
        1 => Just(1.0e-300),
    ]
}

fn point() -> impl Strategy<Value = Vec3> {
    (coord(), coord(), coord()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// Clouds drawn from a small palette, so exact duplicates (and therefore
/// exact distance ties) occur constantly, at every length `0..67` —
/// covering every `n % 8` remainder, with and without a half block.
fn palette_cloud() -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(point(), 1..8).prop_flat_map(|palette| {
        let m = palette.len();
        prop::collection::vec(0..m, 0..67)
            .prop_map(move |idx| idx.into_iter().map(|i| palette[i]).collect())
    })
}

/// A shuffled id permutation, as the two-stage leaf arenas produce:
/// kernels must not assume ids arrive sorted.
fn ids_for(n: usize) -> impl Strategy<Value = Vec<u32>> {
    Just((0..n as u32).collect::<Vec<u32>>()).prop_shuffle()
}

/// A palette cloud paired with a shuffled id permutation.
fn cloud_with_ids() -> impl Strategy<Value = (Vec<Vec3>, Vec<u32>)> {
    palette_cloud().prop_flat_map(|p| {
        let n = p.len();
        (Just(p), ids_for(n))
    })
}

/// A palette cloud, shuffled ids, and the index of a candidate whose
/// distance will serve as the exact radius boundary.
fn cloud_ids_pick() -> impl Strategy<Value = (Vec<Vec3>, Vec<u32>, usize)> {
    palette_cloud().prop_flat_map(|p| {
        let n = p.len();
        (Just(p), ids_for(n), 0..n.max(1))
    })
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #[test]
    fn squared_distances_are_bitwise_identical(pts in palette_cloud(), q in point()) {
        let soa = PointSoA::from_points(&pts);
        let mut a = vec![0.0; pts.len()];
        let mut b = vec![0.0; pts.len()];
        scalar::squared_distances(q, soa.view(), &mut a);
        wide::squared_distances(q, soa.view(), &mut b);
        prop_assert_eq!(bits(&a), bits(&b));
    }
}

proptest! {
    #[test]
    fn nn_reduce_is_bitwise_identical_under_shuffled_ids(
        cloud in cloud_with_ids(),
        q in point(),
    ) {
        let (pts, ids) = cloud;
        let soa = PointSoA::from_points(&pts);
        let a = scalar::nn_reduce(q, soa.view(), &ids);
        let b = wide::nn_reduce(q, soa.view(), &ids);
        prop_assert_eq!(a.map(|(d2, i)| (d2.to_bits(), i)), b.map(|(d2, i)| (d2.to_bits(), i)));
    }
}

fn top2_bits(top: &Top2) -> [(u64, u32); 2] {
    top.map(|(d2, id)| (d2.to_bits(), id))
}

proptest! {
    #[test]
    fn nn2_reduce_is_bitwise_identical_under_shuffled_ids(
        cloud in cloud_with_ids(),
        q in point(),
        carried in prop::collection::vec(0.0f64..500.0, 0..3),
    ) {
        // The fold continues a running pair (as across tree leaves):
        // start from zero, one or two carried entries with ids past the
        // cloud's.
        let (pts, ids) = cloud;
        let soa = PointSoA::from_points(&pts);
        let mut start = TOP2_EMPTY;
        let mut sorted = carried.clone();
        sorted.sort_by(f64::total_cmp);
        for (slot, &d2) in sorted.iter().enumerate() {
            start[slot] = (d2, 1000 + slot as u32);
        }
        let (mut a, mut b, mut c) = (start, start, start);
        scalar::nn2_reduce(q, soa.view(), &ids, &mut a);
        wide::nn2_reduce(q, soa.view(), &ids, &mut b);
        simd::nn2_reduce(q, soa.view(), &ids, &mut c);
        prop_assert_eq!(top2_bits(&a), top2_bits(&b));
        prop_assert_eq!(top2_bits(&a), top2_bits(&c));
        if carried.is_empty() && !pts.is_empty() {
            // Its nearest is the 1-NN kernel's answer.
            let nn = scalar::nn_reduce(q, soa.view(), &ids).unwrap();
            prop_assert_eq!((a[0].0.to_bits(), a[0].1), (nn.0.to_bits(), nn.1));
        }
    }
}

proptest! {
    #[test]
    fn tree_nn2_is_brute_force_knn2_on_the_selected_kernels(pts in palette_cloud(), q in point()) {
        // Palette clouds are full of duplicates, so the first and second
        // nearest tie constantly; the lower index must win every tie.
        let expect = knn_brute_force(&pts, q, 2);
        let expect = [expect.first().copied(), expect.get(1).copied()];
        prop_assert_eq!(KdTree::build(&pts).nn2(q), expect);
        for top_height in [0, 2] {
            prop_assert_eq!(TwoStageKdTree::build(&pts, top_height).nn2(q), expect);
        }
    }
}

proptest! {
    #[test]
    fn radius_collect_is_bitwise_identical_at_exact_boundaries(
        cloud in cloud_ids_pick(),
        q in point(),
        jitter in -1i64..2,
    ) {
        let (pts, ids, pick) = cloud;
        let soa = PointSoA::from_points(&pts);
        // r² exactly equal to one candidate's d² (a boundary hit), or one
        // ulp to either side of it — the `d² ≤ r²` mask must flip in
        // lockstep between the two implementations.
        let r2 = if pts.is_empty() {
            1.0
        } else {
            let mut d2s = vec![0.0; pts.len()];
            scalar::squared_distances(q, soa.view(), &mut d2s);
            let base = d2s[pick];
            if base.is_finite() && base > 0.0 {
                f64::from_bits((base.to_bits() as i64 + jitter) as u64)
            } else {
                base.max(0.0)
            }
        };
        let mut a = Vec::new();
        let mut b = Vec::new();
        scalar::radius_collect(q, soa.view(), &ids, r2, &mut a);
        wide::radius_collect(q, soa.view(), &ids, r2, &mut b);
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #[test]
    fn selected_kernels_match_the_reference(pts in palette_cloud(), q in point()) {
        // Whichever module the build selected, the crate-level re-exports
        // must agree with the scalar reference bit for bit.
        let soa = PointSoA::from_points(&pts);
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        let mut a = vec![0.0; pts.len()];
        let mut b = vec![0.0; pts.len()];
        scalar::squared_distances(q, soa.view(), &mut a);
        simd::squared_distances(q, soa.view(), &mut b);
        prop_assert_eq!(bits(&a), bits(&b));
        prop_assert_eq!(
            scalar::nn_reduce(q, soa.view(), &ids),
            simd::nn_reduce(q, soa.view(), &ids)
        );
    }
}

#[test]
fn all_remainder_lane_counts_with_subnormal_coords() {
    // n = 0..=33 walks every n % 8 twice, crossing the 8-block, the
    // half-block, and the scalar-tail paths, with coordinates whose
    // differences and squares are subnormal.
    for n in 0..=33usize {
        let pts: Vec<Vec3> = (0..n)
            .map(|i| {
                let t = f64::MIN_POSITIVE * (i as f64 + 1.0) / 16.0; // subnormal ladder
                Vec3::new(t, -t, 1.0e-160 * i as f64)
            })
            .collect();
        let soa = PointSoA::from_points(&pts);
        let ids: Vec<u32> = (0..n as u32).collect();
        let q = Vec3::new(f64::MIN_POSITIVE / 2.0, 0.0, -1.0e-160);

        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        scalar::squared_distances(q, soa.view(), &mut a);
        wide::squared_distances(q, soa.view(), &mut b);
        assert_eq!(bits(&a), bits(&b), "n = {n}");
        assert_eq!(
            scalar::nn_reduce(q, soa.view(), &ids),
            wide::nn_reduce(q, soa.view(), &ids),
            "n = {n}"
        );
    }
}

#[test]
fn duplicate_points_tie_to_the_smallest_id_in_every_block_position() {
    // Place the duplicated nearest point at every slot of a 17-point view
    // (8-block, half-block and tail all covered); ties must always resolve
    // to the smaller id, wherever the lanes land.
    const N: usize = 17;
    for slot in 0..N {
        for other in 0..N {
            if other == slot {
                continue;
            }
            let mut pts = vec![Vec3::new(9.0, 9.0, 9.0); N];
            pts[slot] = Vec3::X;
            pts[other] = Vec3::X;
            let soa = PointSoA::from_points(&pts);
            let ids: Vec<u32> = (0..N as u32).collect();
            let expect = Some((1.0, slot.min(other) as u32));
            assert_eq!(scalar::nn_reduce(Vec3::ZERO, soa.view(), &ids), expect);
            assert_eq!(wide::nn_reduce(Vec3::ZERO, soa.view(), &ids), expect);
            // The 2-NN pair is both copies, smaller id first.
            let pair = [(1.0, slot.min(other) as u32), (1.0, slot.max(other) as u32)];
            for nn2 in [scalar::nn2_reduce, wide::nn2_reduce] {
                let mut top = TOP2_EMPTY;
                nn2(Vec3::ZERO, soa.view(), &ids, &mut top);
                assert_eq!(top, pair, "copies at {slot}, {other}");
            }
        }
    }
}

#[test]
fn boundary_hit_flips_with_one_ulp_in_both_implementations() {
    // A point at distance² = 9.0 exactly: included at r² = 9.0, excluded
    // one ulp below, in both implementations, at a lane position inside an
    // 8-block and in the scalar tail.
    for n in [9usize, 12] {
        let mut pts = vec![Vec3::new(100.0, 0.0, 0.0); n];
        pts[n - 1] = Vec3::new(3.0, 0.0, 0.0);
        let soa = PointSoA::from_points(&pts);
        let ids: Vec<u32> = (0..n as u32).collect();
        let r2 = 9.0f64;
        let r2_below = f64::from_bits(r2.to_bits() - 1);

        for (r2, expect_hit) in [(r2, true), (r2_below, false)] {
            let mut a = Vec::new();
            let mut b = Vec::new();
            scalar::radius_collect(Vec3::ZERO, soa.view(), &ids, r2, &mut a);
            wide::radius_collect(Vec3::ZERO, soa.view(), &ids, r2, &mut b);
            assert_eq!(a, b, "n = {n}, r2 = {r2}");
            let expected: Vec<Neighbor> =
                if expect_hit { vec![Neighbor::new(n - 1, 9.0)] } else { Vec::new() };
            assert_eq!(a, expected, "n = {n}, r2 = {r2}");
        }
    }
}

#[test]
fn block_widths_are_what_the_leaves_are_sized_for() {
    // The KD-tree sizes leaves as 2 × LANES; a drift in either constant
    // silently changes every leaf layout, so pin them.
    assert_eq!(LANES, 8);
    assert_eq!(LANES_HALF, 4);
    assert_eq!(tigris_core::kdtree::LEAF_SIZE, 2 * LANES);
}
