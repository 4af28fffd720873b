//! Integration + property tests of the runtime substrate: the recorded factorization
//! task graphs, the scheduler simulator and `live_scope`.

use h2ulv::prelude::*;
use h2ulv::runtime::{live_scope, TaskKind, ThreadPool};
use proptest::prelude::*;
use std::sync::Mutex;

#[test]
fn factorization_task_graphs_have_the_claimed_parallelism_gap() {
    let points = uniform_cube(1024, 21);
    let tree = ClusterTree::build(&points, 64, PartitionStrategy::KMeans, 0);
    let kernel = LaplaceKernel::default();
    let opts = FactorOptions {
        tol: 1e-6,
        ..FactorOptions::default()
    };
    let nodep = h2_ulv_nodep(&kernel, &tree, &opts).unwrap();
    let dep = h2_ulv_dep(&kernel, &tree, &opts).unwrap();
    let lorapo = h2ulv::lorapo::build_blr_lu_dag(16, 64, 32);

    let par = |g: &TaskGraph| g.total_work() / g.critical_path().max(1.0);
    assert!(
        par(&nodep.task_graph) > par(&dep.task_graph),
        "dependency-free graph must expose more parallelism"
    );
    // The LORAPO DAG's first wave is a single GETRF; the dependency-free H2-ULV starts
    // with one independent task per block row/column.
    assert_eq!(lorapo.num_roots(), 1);
    assert!(nodep.task_graph.num_roots() >= tree.num_leaves());
}

#[test]
fn simulated_scaling_shows_the_figure_11_mechanisms() {
    // Two mechanisms drive the paper's Fig. 11: (a) removing the trailing dependency
    // increases the achievable speedup of the H2-ULV factorization, and (b) the
    // runtime's per-task overhead inflates the baseline's makespan, the more so the
    // smaller its tasks are (Fig. 13).  Both must be visible in the simulator.
    let points = uniform_cube(1024, 23);
    let tree = ClusterTree::build(&points, 64, PartitionStrategy::KMeans, 0);
    let kernel = LaplaceKernel::default();
    let opts = FactorOptions {
        tol: 1e-6,
        ..FactorOptions::default()
    };
    let nodep = h2_ulv_nodep(&kernel, &tree, &opts).unwrap();
    let dep = h2_ulv_dep(&kernel, &tree, &opts).unwrap();

    let time = |g: &TaskGraph, p: usize, overhead: f64| {
        simulate_schedule(
            g,
            &SimConfig {
                workers: p,
                flops_per_second: 4.0e9,
                per_task_overhead: overhead,
                min_task_time: 0.0,
            },
        )
        .makespan
    };
    // (a) the dependency-free variant scales at least as well as the serialized one.
    let nodep_speedup = time(&nodep.task_graph, 1, 0.0) / time(&nodep.task_graph, 64, 0.0);
    let dep_speedup = time(&dep.task_graph, 1, 0.0) / time(&dep.task_graph, 64, 0.0);
    assert!(
        nodep_speedup > dep_speedup,
        "no-dep {nodep_speedup:.1}x must beat with-dep {dep_speedup:.1}x"
    );
    // (b) runtime overhead hurts the baseline, and hurts small tiles more than big ones.
    let lorapo_small = h2ulv::lorapo::build_blr_lu_dag(32, 32, 16);
    let lorapo_big = h2ulv::lorapo::build_blr_lu_dag(4, 256, 16);
    let slowdown_small = time(&lorapo_small, 64, 2e-4) / time(&lorapo_small, 64, 0.0);
    let slowdown_big = time(&lorapo_big, 64, 2e-4) / time(&lorapo_big, 64, 0.0);
    assert!(
        slowdown_small > 1.5,
        "overhead must be visible: {slowdown_small:.2}"
    );
    assert!(
        slowdown_small > slowdown_big,
        "small tiles must suffer more from overhead ({slowdown_small:.2} vs {slowdown_big:.2})"
    );
}

#[test]
fn live_scope_runs_a_recorded_graph_with_real_closures() {
    // Execute a small level-structured graph and verify the ordering and the
    // graph the scope hands back.
    let order = Mutex::new(Vec::new());
    let pool = ThreadPool::new(4);
    let ((), g) = live_scope(&pool, |scope| {
        let log = |i: usize| {
            let order = &order;
            move |_: &_| order.lock().unwrap().push(i)
        };
        let leaves: Vec<_> = (0..6)
            .map(|i| scope.submit(TaskKind::Factor, 1.0, &[], log(i)))
            .collect();
        let merge = scope.submit(TaskKind::Other, 1.0, &leaves, log(6));
        scope.submit(TaskKind::Factor, 1.0, &[merge], log(7));
    })
    .unwrap();
    assert_eq!(g.len(), 8);
    assert_eq!(g.num_roots(), 6);
    assert!(g.validate());
    let seq = order.into_inner().unwrap();
    assert_eq!(seq.len(), 8);
    let pos = |x: usize| seq.iter().position(|&v| v == x).unwrap();
    for n in g.iter() {
        for d in &n.deps {
            assert!(
                pos(d.0) < pos(n.id.0),
                "{d:?} must finish before {:?}",
                n.id
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The simulator never beats the two lower bounds (critical path, work / P) and
    /// never exceeds the serial time, for random layered DAGs.
    #[test]
    fn simulated_makespan_respects_bounds(
        widths in proptest::collection::vec(1usize..6, 1..5),
        workers in 1usize..9,
    ) {
        let mut g = TaskGraph::new();
        let mut prev: Vec<_> = Vec::new();
        for (li, &w) in widths.iter().enumerate() {
            let mut current = Vec::new();
            for t in 0..w {
                let cost = 1.0 + ((li * 7 + t * 3) % 5) as f64;
                let id = g.add_task(TaskKind::Update, cost, &prev);
                current.push(id);
            }
            prev = current;
        }
        let res = simulate_schedule(&g, &SimConfig {
            workers,
            flops_per_second: 1.0,
            per_task_overhead: 0.0,
            min_task_time: 0.0,
        });
        let work = g.total_work();
        let cp = g.critical_path();
        prop_assert!(res.makespan + 1e-6 >= cp);
        prop_assert!(res.makespan + 1e-6 >= work / workers as f64);
        prop_assert!(res.makespan <= work + 1e-6);
    }
}
