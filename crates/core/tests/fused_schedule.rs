//! The fused-pipeline contract: one cross-level task graph (construction +
//! factorization, merges released per parent pair) must produce factors that
//! are **bitwise identical** to the phased schedule (per-level gates) at every
//! thread count — the gates only constrain *when* tasks run, never *what* they
//! compute — and a task panic inside the fused graph must surface as a typed
//! [`SolverError::TaskPanicked`] with the worker pool still reusable.
//!
//! The fault plan is process-global, so every test in this binary takes one
//! shared lock.

use h2_factor::{h2_ulv_nodep, FactorOptions, Schedule, UlvFactors};
use h2_geometry::{uniform_cube, ClusterTree, LaplaceKernel, PartitionStrategy};
use h2_matrix::fault::{self, FaultPlan};
use h2_matrix::SolverError;
use std::sync::Mutex;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

const N: usize = 512;

fn problem() -> (LaplaceKernel, ClusterTree) {
    let points = uniform_cube(N, 17);
    let tree = ClusterTree::build(&points, 64, PartitionStrategy::KMeans, 0);
    (LaplaceKernel::default(), tree)
}

fn factor(schedule: Schedule, threads: usize) -> UlvFactors {
    let (kernel, tree) = problem();
    let opts = FactorOptions {
        tol: 1e-7,
        schedule,
        num_threads: threads,
        ..FactorOptions::default()
    };
    h2_ulv_nodep(&kernel, &tree, &opts).expect("factorization")
}

/// Order-sensitive 64-bit digest of every numeric bit of the factors: root LU
/// and pivots, per-cluster bases and pivot LUs, and all four panel maps in
/// sorted key order.  Two factor objects digest equal iff they are bitwise
/// identical (up to hash collision), which is the cheap way to compare six
/// factorizations pairwise.
fn bits_fingerprint(f: &UlvFactors) -> u64 {
    let mut h: u64 = 0x243F6A8885A308D3;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001B3);
        h = h.rotate_left(23);
    };
    let mix_matrix = |mx: &h2_matrix::Matrix, mix: &mut dyn FnMut(u64)| {
        mix(mx.rows() as u64);
        mix(mx.cols() as u64);
        for v in mx.as_slice() {
            mix(v.to_bits());
        }
    };
    mix_matrix(&f.root_lu.lu, &mut mix);
    for &p in &f.root_lu.ipiv {
        mix(p as u64);
    }
    for &o in &f.root_offsets {
        mix(o as u64);
    }
    for lf in &f.levels {
        mix(lf.level as u64);
        mix(lf.nb as u64);
        for c in &lf.clusters {
            mix(c.active as u64);
            mix(c.redundant as u64);
            mix(c.skeleton as u64);
            mix_matrix(&c.q, &mut mix);
            mix_matrix(&c.p, &mut mix);
            if let Some(lu) = &c.lu {
                mix_matrix(&lu.lu, &mut mix);
                for &p in &lu.ipiv {
                    mix(p as u64);
                }
            }
        }
        for m in [&lf.row_rr, &lf.row_rs, &lf.col_rr, &lf.col_sr] {
            let mut keys: Vec<_> = m.keys().copied().collect();
            keys.sort_unstable();
            for key in keys {
                mix(key.0 as u64);
                mix(key.1 as u64);
                mix_matrix(&m[&key], &mut mix);
            }
        }
    }
    h
}

#[test]
fn fused_and_phased_factors_are_bitwise_identical_at_1_2_4_threads() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = bits_fingerprint(&factor(Schedule::Fused, 1));
    for threads in [1usize, 2, 4] {
        for schedule in [Schedule::Fused, Schedule::Phased] {
            let f = factor(schedule, threads);
            assert_eq!(
                bits_fingerprint(&f),
                baseline,
                "factors must be bitwise identical ({schedule:?}, {threads} threads) \
                 to the fused single-thread baseline"
            );
        }
    }
}

#[test]
fn fused_graph_reports_task_class_and_overlap_accounting() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let f = factor(Schedule::Fused, 2);
    let tc = &f.stats.task_classes;
    let class_sum = tc.fill_seconds
        + tc.basis_seconds
        + tc.coupling_seconds
        + tc.transform_seconds
        + tc.pivot_seconds
        + tc.schur_seconds
        + tc.merge_seconds
        + tc.map_seconds
        + tc.root_seconds;
    assert!(
        class_sum > 0.0 && class_sum.is_finite(),
        "per-class times must be recorded: {class_sum}"
    );
    assert!(
        tc.graph_wall_seconds > 0.0,
        "graph wall time must be recorded"
    );
    assert!(
        (0.0..=1.0).contains(&tc.overlap_fraction),
        "overlap fraction must be a fraction of the graph wall: {}",
        tc.overlap_fraction
    );
    // With no level barrier, upper-level construction (fill/basis/coupling)
    // overlaps lower-level factorization inside one graph — the spans must
    // intersect even on a small problem.
    assert!(
        tc.overlap_fraction > 0.0,
        "fused schedule must overlap construction and factorization"
    );
    assert!(
        tc.construction_span_seconds > 0.0 && tc.factorization_span_seconds > 0.0,
        "both group spans must be non-empty"
    );
    // Every number above is derived from the recorded graph: each task
    // carries its class and span, a class's seconds are its nodes' summed
    // spans, and a group's flops are its kinds' summed costs.
    use h2_runtime::TaskKind;
    let g = &f.task_graph;
    assert!(g.iter().all(|n| n.span.is_some()), "every task is timed");
    let seconds = |kind: TaskKind| -> f64 {
        g.iter()
            .filter(|n| n.kind == kind)
            .map(|n| n.seconds())
            .sum()
    };
    for (kind, field) in [
        (TaskKind::Fill, tc.fill_seconds),
        (TaskKind::Basis, tc.basis_seconds),
        (TaskKind::Coupling, tc.coupling_seconds),
        (TaskKind::Transform, tc.transform_seconds),
        (TaskKind::Pivot, tc.pivot_seconds),
        (TaskKind::Schur, tc.schur_seconds),
        (TaskKind::Merge, tc.merge_seconds),
        (TaskKind::Map, tc.map_seconds),
        (TaskKind::Root, tc.root_seconds),
    ] {
        assert_eq!(field, seconds(kind), "{kind:?} seconds");
    }
    let flops = |kinds: &[TaskKind]| -> u64 {
        g.iter()
            .filter(|n| kinds.contains(&n.kind))
            .map(|n| n.cost)
            .sum::<f64>() as u64
    };
    assert_eq!(
        f.stats.construction_flops,
        flops(&[
            TaskKind::Assembly,
            TaskKind::Fill,
            TaskKind::Basis,
            TaskKind::Coupling
        ])
    );
    assert_eq!(
        f.stats.factorization_flops,
        flops(&[
            TaskKind::Transform,
            TaskKind::Pivot,
            TaskKind::Schur,
            TaskKind::Merge,
            TaskKind::Map,
            TaskKind::Root
        ])
    );
}

#[test]
fn task_panic_in_fused_graph_is_typed_and_pool_is_reusable() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::set_plan(Some(FaultPlan::TaskPanic { index: 3 }));
    let (kernel, tree) = problem();
    let opts = FactorOptions {
        schedule: Schedule::Fused,
        num_threads: 2,
        ..FactorOptions::default()
    };
    let err = h2_ulv_nodep(&kernel, &tree, &opts).err();
    fault::set_plan(None);
    match err {
        Some(SolverError::TaskPanicked { what }) => {
            assert!(
                what.contains("panic"),
                "panic payload must be carried: {what}"
            );
        }
        other => panic!("expected TaskPanicked, got {other:?}"),
    }
    // The pool must survive the cancelled fused run: the same process
    // factorizes cleanly (and bitwise-identically) once the plan is cleared.
    let f = h2_ulv_nodep(&kernel, &tree, &opts).expect("pool must be reusable after a task panic");
    let b = vec![1.0; N];
    let x = f.solve(&b).expect("solve after recovery");
    assert!(x.iter().all(|v| v.is_finite()));
}

#[test]
fn task_graph_is_the_graph_that_ran() {
    use h2_runtime::{simulate_schedule, SimConfig};
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let points = uniform_cube(1024, 17);
    let tree = ClusterTree::build(&points, 64, PartitionStrategy::KMeans, 0);
    let run = |schedule: Schedule, threads: usize| {
        let opts = FactorOptions {
            tol: 1e-7,
            schedule,
            num_threads: threads,
            ..FactorOptions::default()
        };
        h2_ulv_nodep(&LaplaceKernel::default(), &tree, &opts).expect("factorization")
    };
    let fused = run(Schedule::Fused, 1);
    let g = &fused.task_graph;
    assert!(g.validate());
    // Task costs are the flops the task bodies counted, so the graph's work
    // is the run's flop total — exactly (integers well below 2^53).
    let flops = fused.stats.construction_flops + fused.stats.factorization_flops;
    assert!(flops > 0);
    assert_eq!(g.total_work(), flops as f64);
    // One worker executes the recorded work back to back.
    let cfg = SimConfig {
        workers: 1,
        ..SimConfig::default()
    };
    let serial = g.total_work() / cfg.flops_per_second;
    let simulated = simulate_schedule(g, &cfg).makespan;
    assert!(
        (simulated - serial).abs() <= 1e-9 * serial,
        "P=1 makespan {simulated} vs total work / rate {serial}"
    );
    // The dynamically submitted root LU hangs off the merge that submitted it.
    let root = g.iter().last().expect("non-empty graph");
    assert_eq!(root.deps.len(), 1, "root depends on its submitter only");
    assert!(root.cost > 0.0 && root.dependents.is_empty());

    // The graph's shape is a function of the plan, never of the scheduling.
    for threads in [2usize, 4] {
        let f = run(Schedule::Fused, threads);
        assert_eq!(f.task_graph.len(), g.len(), "{threads} threads");
        assert_eq!(
            f.task_graph.total_work(),
            g.total_work(),
            "{threads} threads"
        );
    }
    // Phased = the same tasks plus one zero-cost gate per level.
    let phased = run(Schedule::Phased, 2);
    assert_eq!(phased.task_graph.len(), g.len() + phased.levels.len());
    assert_eq!(phased.task_graph.total_work(), g.total_work());
}
