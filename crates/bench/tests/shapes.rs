//! Shape tests for the figure harness: each experiment's qualitative
//! claims (who wins, what grows, where the optimum sits) are asserted on
//! the real workloads.
//!
//! The frame-generation + simulation workloads are release-scale; the
//! heavier tests are `#[ignore]`d so `cargo test` stays fast in debug.
//! Run them with:
//!
//! ```text
//! cargo test -p tigris-bench --release -- --ignored
//! ```

use tigris_bench::figures;

#[test]
fn area_matches_paper_by_construction() {
    let (sram, logic) = figures::area();
    assert!((sram - 8.38).abs() < 0.15);
    assert!((logic - 7.19).abs() < 0.15);
}

#[test]
#[ignore = "release-scale workload"]
fn fig6_redundancy_shape() {
    let rows = figures::fig6(42);
    // Monotone growth with leaf-set size for both search kinds.
    for w in rows.windows(2) {
        assert!(w[1].nn_redundancy >= w[0].nn_redundancy * 0.99);
        assert!(w[1].radius_redundancy >= w[0].radius_redundancy * 0.99);
    }
    let last = rows.last().unwrap();
    // NN redundancy grows much faster than radius redundancy…
    assert!(last.nn_redundancy > 2.0 * last.radius_redundancy);
    // …while radius search dominates absolute node counts (Fig. 6b).
    assert!(last.radius_nodes > last.nn_nodes);
}

#[test]
#[ignore = "release-scale workload"]
fn fig11_system_ordering() {
    let (dp7, dp4) = figures::fig11(42);
    for rows in [&dp7, &dp4] {
        let get = |name: &str| rows.iter().find(|r| r.system == name).unwrap();
        let cpu = get("CPU");
        let base_kd = get("Base-KD");
        let acc_kd = get("Acc-KD");
        let acc_2skd = get("Acc-2SKD");
        // GPU ≫ CPU; accelerator ≫ GPU; co-designed tree ≫ original tree.
        assert!(base_kd.seconds < cpu.seconds);
        assert!(acc_kd.seconds < base_kd.seconds);
        assert!(acc_2skd.seconds < acc_kd.seconds);
        // Large headline factors.
        assert!(acc_2skd.speedup > 30.0, "speedup {}", acc_2skd.speedup);
        assert!(acc_2skd.power_reduction > 3.0);
        // Acc-KD trades performance for lower power (paper Sec. 6.3).
        assert!(acc_kd.power_watts < acc_2skd.power_watts);
    }
    // DP7 (relaxed radii → more exhaustive work) benefits more than DP4.
    let s7 = dp7.iter().find(|r| r.system == "Acc-2SKD").unwrap().speedup;
    let s4 = dp4.iter().find(|r| r.system == "Acc-2SKD").unwrap().speedup;
    assert!(s7 > s4, "DP7 {s7} should out-speedup DP4 {s4}");
}

#[test]
#[ignore = "release-scale workload"]
fn approx_reduces_work_substantially() {
    let row = figures::approx(42);
    assert!(row.node_visit_reduction > 0.4, "reduction {}", row.node_visit_reduction);
    assert!(row.follower_rate > 0.5);
    assert!(row.speedup >= 1.0);
    // Triangle-inequality envelope: thd = 1.2 m ⇒ inflation ≤ 2.4 m.
    assert!(row.mean_distance_inflation < 2.4);
}

#[test]
#[ignore = "release-scale workload"]
fn fig12_optimizations_are_monotone() {
    let rows = figures::fig12(42);
    let get = |name: &str| rows.iter().find(|r| r.variant == name).unwrap();
    assert!(get("Bypass").speedup > get("No-Opt").speedup);
    assert!(get("+Forward").speedup > get("Bypass").speedup);
    assert!(get("MQMN").speedup >= get("+Forward").speedup);
    // MQMN pays for its speed in power (paper: ~4×).
    let mqsn_power = get("+Forward").power_reduction;
    let mqmn_power = get("MQMN").power_reduction;
    assert!(mqsn_power / mqmn_power > 2.0, "{mqsn_power} vs {mqmn_power}");
}

#[test]
#[ignore = "release-scale workload"]
fn fig13_cache_absorbs_node_traffic() {
    let rows = figures::fig13(42);
    let acc_2skd = &rows[0];
    let acc_kd = &rows[1];
    let frac =
        |r: &figures::Fig13Row, name: &str| r.fractions.iter().find(|(n, _)| *n == name).unwrap().1;
    // The two-stage configuration has node-cache traffic; the classic one
    // has none (no exhaustive scans to cache).
    assert!(frac(acc_2skd, "Node Cache") > 0.05);
    assert!(frac(acc_kd, "Node Cache") < 1e-9);
    assert!(frac(acc_kd, "BE Query Q") < 1e-3);
}

#[test]
#[ignore = "release-scale workload"]
fn fig14_front_end_saturation() {
    let rows = figures::fig14(42);
    let time = |rus: usize, sus: usize, pes: usize| {
        rows.iter().find(|r| r.rus == rus && r.sus == sus && r.pes == pes).unwrap().time_ms
    };
    // With few RUs, scaling the back-end barely helps (front-end-bound).
    let small_gain = time(16, 16, 16) / time(16, 128, 128);
    assert!(small_gain < 1.5, "gain {small_gain} at 16 RUs");
    // With 64 RUs the back-end scales substantially.
    let big_gain = time(64, 16, 16) / time(64, 128, 128);
    assert!(big_gain > 2.0, "gain {big_gain} at 64 RUs");
    // More hardware never slows the design down (monotonicity spot check).
    assert!(time(128, 128, 128) <= time(16, 16, 16));
}

#[test]
#[ignore = "release-scale workload"]
fn fig15_has_interior_optimum() {
    let rows = figures::fig15(42);
    let best = rows.iter().min_by(|a, b| a.time_ms.partial_cmp(&b.time_ms).unwrap()).unwrap();
    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    // The optimum is strictly inside the sweep: both extremes are worse.
    assert!(best.height > first.height && best.height < last.height);
    assert!(first.time_ms > best.time_ms * 1.5);
    assert!(last.time_ms > best.time_ms * 1.2);
}

#[test]
#[ignore = "release-scale workload"]
fn ablations_support_paper_design_choices() {
    // Leader cap: diminishing returns beyond the paper's 16.
    let caps = figures::ablation_leader_cap(42);
    let at =
        |v: f64, rows: &[figures::AblationRow]| rows.iter().find(|r| r.value == v).unwrap().metric;
    assert!(at(16.0, &caps) > 0.8 * at(64.0, &caps));
    assert!(at(16.0, &caps) > 1.5 * at(1.0, &caps));

    // Issue window: the paper's 128 captures almost all the batching win.
    let windows = figures::ablation_issue_window(42);
    let t = |v: f64| windows.iter().find(|r| r.value == v).unwrap().time_ms;
    assert!(t(1.0) > 3.0 * t(128.0), "no-batching {} vs 128-window {}", t(1.0), t(128.0));
    assert!(t(512.0) > 0.95 * t(128.0));

    // Mapping policy: insensitive (paper's claim).
    let (low, hash) = figures::ablation_mapping(42);
    assert!((hash - low).abs() / low < 0.25, "low {low} hash {hash}");
}

#[test]
#[ignore = "release-scale workload"]
fn end_to_end_replays_a_nonempty_stream() {
    // A real registration's logged query stream, replayed on the
    // accelerator, must beat the CPU+GPU baseline without erasing the
    // non-search work: both improvements are proper fractions. (Their
    // DP7-vs-DP4 order depends on the host's CPU timings, so it is not
    // asserted.)
    let (dp7, dp4) = figures::end_to_end(42);
    for (name, improvement) in [("DP7", dp7), ("DP4", dp4)] {
        assert!(improvement > 0.0 && improvement < 1.0, "{name} improvement {improvement}");
    }
}
