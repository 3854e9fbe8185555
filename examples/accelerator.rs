//! Run KD-tree search on the simulated Tigris accelerator and compare
//! against the CPU/GPU baseline models — a miniature of the paper's
//! Fig. 11 experiment.
//!
//! Run with:
//! ```text
//! cargo run --release --example accelerator
//! ```

use tigris::accel::baseline::Workload;
use tigris::accel::{AccelBackend, AcceleratorConfig, BaselineModel, SearchKind};
use tigris::core::{KdTree, SearchStats, TwoStageKdTree};
use tigris::data::{Sequence, SequenceConfig};

fn main() {
    // A dense synthetic frame as the search substrate, and the next frame's
    // points as queries (exactly the RPCE workload).
    let mut cfg = SequenceConfig::medium();
    cfg.frames = 2;
    println!("generating frames...");
    let seq = Sequence::generate(&cfg, 21);
    let target = seq.frame(0).points();
    let queries = seq.frame(1).points();
    println!("{} target points, {} NN queries", target.len(), queries.len());

    // Software searches characterize the baseline workloads.
    let classic = KdTree::build(target);
    let mut classic_stats = SearchStats::new();
    for &q in queries {
        classic.nn_with_stats(q, &mut classic_stats);
    }
    let two_stage = TwoStageKdTree::build(target, 10);
    let mut two_stage_stats = SearchStats::new();
    for &q in queries {
        two_stage.nn_with_stats(q, &mut two_stage_stats);
    }

    let baseline = BaselineModel::default();
    let base_kd = baseline.gpu(&Workload::from_stats(&classic_stats));
    let base_2skd = baseline.gpu(&Workload::from_stats(&two_stage_stats));
    let cpu = baseline.cpu(&Workload::from_stats(&classic_stats));

    // The accelerator runs the same queries, cycle by cycle.
    let mut sim = AccelBackend::from_tree(two_stage.clone(), AcceleratorConfig::paper());
    let acc = sim.run(queries, SearchKind::Nn);

    // Sanity: accelerator results are exact.
    let sw = two_stage.nn(queries[0]).unwrap();
    assert_eq!(acc.nn_results[0].unwrap().index, sw.index);

    println!("\nKD-tree search time (this workload):");
    println!(
        "  CPU (software, modeled)   {:>10.3} ms @ {:>5.0} W",
        cpu.seconds * 1e3,
        cpu.power_watts
    );
    println!(
        "  GPU  Base-KD              {:>10.3} ms @ {:>5.0} W",
        base_kd.seconds * 1e3,
        base_kd.power_watts
    );
    println!(
        "  GPU  Base-2SKD            {:>10.3} ms @ {:>5.0} W",
        base_2skd.seconds * 1e3,
        base_2skd.power_watts
    );
    println!(
        "  Tigris Acc-2SKD           {:>10.3} ms @ {:>5.1} W",
        acc.seconds * 1e3,
        acc.power_watts()
    );

    println!("\nspeedups:");
    println!("  Acc-2SKD vs Base-KD     {:>7.1}x", base_kd.seconds / acc.seconds);
    println!("  Acc-2SKD vs Base-2SKD   {:>7.1}x", base_2skd.seconds / acc.seconds);
    println!("  Acc-2SKD vs CPU         {:>7.1}x", cpu.seconds / acc.seconds);
    println!("  power reduction vs GPU  {:>7.1}x", base_kd.power_watts / acc.power_watts());

    println!("\naccelerator internals:");
    println!(
        "  FE cycles {} | BE cycles {} | PE utilization {:.0}%",
        acc.fe_cycles,
        acc.be_cycles,
        acc.pe_utilization * 100.0
    );
    println!(
        "  top-tree nodes expanded {} / bypassed {} | leaf points scanned {}",
        acc.nodes_expanded, acc.nodes_bypassed, acc.leaf_points_scanned
    );
    let (pe, rd, wr, leak, dram) = acc.energy.fractions();
    println!(
        "  energy: PE {:.1}% | SRAM read {:.1}% | SRAM write {:.1}% | leakage {:.1}% | DRAM {:.2}%",
        pe * 100.0,
        rd * 100.0,
        wr * 100.0,
        leak * 100.0,
        dram * 100.0
    );

    // ---- Accelerator as a *backend*: the whole pipeline on the machine --
    //
    // Instead of replaying logs, register the accelerator as a search
    // backend and run end-to-end registration "on the hardware". Exact
    // mode: the estimated transform is bit-identical to software.
    use tigris::pipeline::config::SearchBackendConfig;
    use tigris::pipeline::{register, RegistrationConfig};

    tigris::accel::register_accelerator_backend();
    let reg_cfg = RegistrationConfig {
        backend: SearchBackendConfig::Custom { name: "accelerator" },
        ..Default::default()
    };
    println!("\nend-to-end registration on the accelerator backend...");
    // An invalid config fails here with RegistrationError::InvalidConfig.
    let result = register(seq.frame(1), seq.frame(0), &reg_cfg).expect("registration failed");
    let gt = seq.ground_truth_relative(0);
    println!(
        "  estimated {} vs ground truth {} ({} ICP iterations)",
        result.transform.translation, gt.translation, result.icp_iterations
    );
}
