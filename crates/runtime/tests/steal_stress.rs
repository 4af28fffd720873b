//! Stress tests for the work-stealing pool and `live_scope` on top of it: deep
//! chains, wide fan-outs and diamond lattices under contention, with more
//! workers than cores so stealing and parking churn constantly.  Every run is
//! checked edge by edge against the graph `live_scope` recorded.

use h2_runtime::{live_scope, TaskGraph, TaskId, TaskKind, ThreadPool};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Run one task per entry of `deps` (entry `i` lists the indices task `i`
/// depends on) and return the completion order with the recorded graph.
///
/// Dep-less tasks hold their worker until the whole graph is registered, so
/// everything behind them is released by workers (local deques, stealing)
/// rather than trickling through the injector as it is submitted.
fn run(pool: &ThreadPool, deps: &[Vec<usize>]) -> (Vec<TaskId>, TaskGraph) {
    let order = Mutex::new(Vec::with_capacity(deps.len()));
    let registered = AtomicBool::new(false);
    let ((), graph) = live_scope(pool, |scope| {
        let mut ids: Vec<TaskId> = Vec::with_capacity(deps.len());
        for d in deps {
            let d: Vec<TaskId> = d.iter().map(|&x| ids[x]).collect();
            let (order, registered, me) = (&order, &registered, TaskId(ids.len()));
            let hold = d.is_empty();
            ids.push(scope.submit(TaskKind::Update, 1.0, &d, move |_| {
                while hold && !registered.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                order.lock().unwrap().push(me);
            }));
        }
        registered.store(true, Ordering::Release);
    })
    .expect("clean run");
    (order.into_inner().unwrap(), graph)
}

/// The recorded graph has exactly the submitted edges, and the completion
/// order respects every one of them.
fn assert_recorded_and_respected(deps: &[Vec<usize>], order: &[TaskId], g: &TaskGraph) {
    assert_eq!(g.len(), deps.len(), "one node per submitted task");
    assert!(g.validate());
    assert_eq!(order.len(), g.len(), "every task must complete");
    let mut pos = vec![usize::MAX; g.len()];
    for (p, id) in order.iter().enumerate() {
        assert_eq!(pos[id.0], usize::MAX, "task {id:?} completed twice");
        pos[id.0] = p;
    }
    for (n, submitted) in g.iter().zip(deps) {
        let recorded: Vec<usize> = n.deps.iter().map(|d| d.0).collect();
        assert_eq!(&recorded, submitted, "recorded deps of {:?}", n.id);
        for d in &n.deps {
            assert!(
                pos[d.0] < pos[n.id.0],
                "dependency {d:?} must complete before {:?}",
                n.id
            );
        }
    }
}

/// Layered graph: every task depends on the whole previous layer.
fn lattice(widths: &[usize]) -> Vec<Vec<usize>> {
    let mut deps: Vec<Vec<usize>> = Vec::new();
    let mut prev: Vec<usize> = Vec::new();
    for &w in widths {
        let first = deps.len();
        deps.extend((0..w).map(|_| prev.clone()));
        prev = (first..first + w).collect();
    }
    deps
}

#[test]
fn deep_chain_under_contention() {
    // 2000-task chain on 8 workers: at most one task is ever runnable, so the
    // run is a worst case for release/steal/park churn.
    let deps = lattice(&[1; 2000]);
    let (order, graph) = run(&ThreadPool::new(8), &deps);
    assert_recorded_and_respected(&deps, &order, &graph);
    for (i, id) in order.iter().enumerate() {
        assert_eq!(id.0, i, "a chain must complete strictly in order");
    }
}

#[test]
fn wide_fanout_under_contention() {
    // One root releasing 1500 independent tasks, joined by a single sink; the
    // releasing worker floods its own deque and the other 7 must steal.
    let deps = lattice(&[1, 1500, 1]);
    let pool = ThreadPool::new(8);
    let (order, graph) = run(&pool, &deps);
    assert_recorded_and_respected(&deps, &order, &graph);
    let c = pool.steal_counters();
    assert_eq!(c.executed, 1502);
    assert_eq!(c.executed, c.local_pops + c.injector_pops + c.steals);
}

#[test]
fn diamond_lattice_rounds_under_contention() {
    // Repeated diamond lattices (fan-out / fan-in layers) on a shared pool:
    // every round must respect all cross-layer edges and leave nothing behind.
    let pool = ThreadPool::new(6);
    let deps = lattice(&[1, 16, 3, 24, 1, 9, 2]);
    for _round in 0..25 {
        let (order, graph) = run(&pool, &deps);
        assert_recorded_and_respected(&deps, &order, &graph);
    }
}

#[test]
fn irregular_lattice_with_random_edges() {
    // Layered graph where each task depends on a pseudo-random subset of the
    // previous layer — closer to a real elimination DAG than a pure diamond.
    let mut seed = 0x9e3779b97f4a7c15u64;
    let mut next = || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let mut deps: Vec<Vec<usize>> = Vec::new();
    let mut prev: Vec<usize> = Vec::new();
    for _layer in 0..40 {
        let first = deps.len();
        for _ in 0..1 + (next() % 12) as usize {
            deps.push(prev.iter().copied().filter(|_| next() % 3 != 0).collect());
        }
        prev = (first..deps.len()).collect();
    }
    let (order, graph) = run(&ThreadPool::new(8), &deps);
    assert_recorded_and_respected(&deps, &order, &graph);
}

#[test]
fn pool_survives_mixed_submit_storm() {
    // Interleaved outside submissions (injector) and worker-side submissions
    // (local deques) from many producer threads, with wait_idle in between:
    // every task must run exactly once and wait_idle must never return early.
    let pool = Arc::new(ThreadPool::new(8));
    for _round in 0..10 {
        let hits = Arc::new((0..600).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        std::thread::scope(|s| {
            for t in 0..3 {
                let pool = Arc::clone(&pool);
                let hits = Arc::clone(&hits);
                s.spawn(move || {
                    for i in 0..100 {
                        let idx = t * 200 + i;
                        let pool2 = Arc::clone(&pool);
                        let hits2 = Arc::clone(&hits);
                        pool.submit(move || {
                            hits2[idx].fetch_add(1, Ordering::Relaxed);
                            // Worker-side follow-up lands in the local deque.
                            let hits3 = Arc::clone(&hits2);
                            pool2.submit(move || {
                                hits3[idx + 100].fetch_add(1, Ordering::Relaxed);
                            });
                        });
                    }
                });
            }
        });
        pool.wait_idle();
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                1,
                "task {i} ran a wrong number of times"
            );
        }
    }
}

#[test]
fn stack_borrowing_bodies_write_every_slot() {
    // Task bodies borrowing a stack-allocated slot table: 64 roots joined four
    // at a time, every body bumping its own slot exactly once.
    let pool = ThreadPool::new(8);
    let slots: Vec<Mutex<u32>> = (0..80).map(|_| Mutex::new(0)).collect();
    let ((), graph) = live_scope(&pool, |scope| {
        let bump = |i: usize| {
            let slot = &slots[i];
            move |_: &_| *slot.lock().unwrap() += 1
        };
        let roots: Vec<TaskId> = (0..64)
            .map(|i| scope.submit(TaskKind::Basis, 1.0, &[], bump(i)))
            .collect();
        for (c, chunk) in roots.chunks(4).enumerate() {
            scope.submit(TaskKind::Factor, 2.0, chunk, bump(64 + c));
        }
    })
    .expect("clean run");
    assert_eq!(graph.len(), 80);
    assert_eq!(graph.num_roots(), 64);
    for (i, slot) in slots.iter().enumerate() {
        assert_eq!(
            *slot.lock().unwrap(),
            1,
            "slot {i} written a wrong number of times"
        );
    }
}
