//! Figure 16: distributed-memory strong scaling on the hemoglobin/Yukawa problem,
//! ours vs LORAPO, up to 10,240 cores.
//!
//! The reproduction cannot run 10,240 ranks; instead the measured factorization is
//! replayed through the process-tree + (alpha, beta) network cost model of
//! `h2_factor::dist`.  LORAPO's distributed time is modelled from
//! its task DAG (critical path + per-task runtime overhead + the same network model),
//! which reproduces the paper's qualitative result: the O(N) dependency-free solver
//! keeps scaling, the O(N^2) baseline does not, and the gap widens with N.

use h2_bench::{print_table, run_h2ulv, Scale, Workload};
use h2_factor::dist::{estimate_distributed, DistConfig};
use h2_mpisim::{allgather_time, NetworkModel};
use h2_runtime::{simulate_schedule, SimConfig};

fn main() -> h2_matrix::SolverResult<()> {
    let scale = Scale::from_env();
    let ranks = [64usize, 160, 320, 640, 1280, 2560, 5120, 10240];
    for &n in &scale.distributed_sizes() {
        let (_, ours) = run_h2ulv(Workload::YukawaMolecule, n, scale.leaf_size(), 1e-6)?;
        let tile = scale.blr_leaf_size().min(n / 4).max(64);
        let tiles = (n / tile).max(2);
        let lorapo_dag = h2_lorapo::build_blr_lu_dag(tiles, tile, 50.min(tile));
        let net = NetworkModel::default();

        let mut rows = Vec::new();
        for &p in &ranks {
            let ours_est = estimate_distributed(&ours, p, &DistConfig::default());
            // LORAPO model: DAG replay on p workers plus one allgather of the panel per
            // tile column (its communication volume grows with N^2 / p).
            let sim = simulate_schedule(
                &lorapo_dag,
                &SimConfig {
                    workers: p,
                    flops_per_second: 4.0e9,
                    per_task_overhead: 2.0e-4,
                    min_task_time: 0.0,
                },
            );
            let panel_bytes = (tile * tile * 8) as u64;
            let lorapo_comm: f64 = (0..tiles)
                .map(|_| allgather_time(&net, p.min(tiles * tiles), panel_bytes))
                .sum();
            let lorapo_time = sim.makespan + lorapo_comm;
            rows.push(vec![
                p.to_string(),
                format!("{:.4}", ours_est.time_seconds),
                format!("{:.4}", lorapo_time),
                format!("{:.1}", lorapo_time / ours_est.time_seconds.max(1e-12)),
            ]);
        }
        print_table(
            &format!("Fig. 16: modelled distributed strong scaling, Yukawa molecule, N = {n}"),
            &[
                "ranks",
                "OURS time (s)",
                "LORAPO time (s)",
                "speedup OURS vs LORAPO",
            ],
            &rows,
        );
    }
    println!(
        "\npaper's headline: ~4,700x at N = 954,112 on 10,240 cores; the scaled-down model shows\n\
         the same qualitative behaviour (the gap grows with both N and core count)."
    );
    Ok(())
}
