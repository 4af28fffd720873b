//! Live task graph: the one executor of the workspace, and the one description
//! of what it executed.
//!
//! The fused construction ⇄ factorization pipeline needs dynamic submission: a
//! running task must be able to spawn successors into the graph (the root
//! factorization is submitted by the final merge task, not by the driver), and
//! a dependent must be released the instant its *own* inputs exist — not when a
//! phase or level completes.
//!
//! [`live_scope`] provides that in the style of `std::thread::scope`, and hands
//! back the graph it ran as a plain [`TaskGraph`]:
//!
//! ```ignore
//! let pool = ThreadPool::new(4);
//! let ((), graph) = live_scope(&pool, |scope| {
//!     let a = scope.submit(TaskKind::Fill, 1.0, &[], |_| { /* ... */ });
//!     scope.submit(TaskKind::Merge, 2.0, &[a], |scope| {
//!         // dynamic submission: successors enter the live graph mid-run
//!         scope.submit(TaskKind::Root, 3.0, &[], |scope| {
//!             scope.timed(|| { /* ... */ }); // the node records its span
//!             scope.report_cost(1.0e6); // e.g. the flops this task performed
//!         });
//!     });
//! })?;
//! assert_eq!(graph.len(), 3);
//! ```
//!
//! Guarantees:
//!
//! * **Per-edge release** — a task becomes ready the moment its last
//!   dependency completes; the releasing worker pushes ready dependents onto
//!   its own LIFO deque (highest priority last, so it runs next).
//! * **Sound termination** — a task's dynamic submissions increment the pool's
//!   outstanding-task count *before* the submitting task itself finishes, so
//!   waiting on pool idleness can never miss work.  [`live_scope`] blocks until
//!   every task has drained before returning — even when the builder closure
//!   panics — which is what makes lending `'env` borrows to task closures
//!   sound.
//! * **Panic containment** — the first panicking task is recorded as a typed
//!   [`TaskPanic`], the graph is cancelled (queued tasks drain as counted
//!   no-ops, dependents of unfinished tasks are never released), and the pool
//!   remains reusable.
//! * **The record is the run** — the returned graph has one node per submitted
//!   task, in submission order, with the submitted kind and dependencies.  A
//!   task submitted from inside a running task additionally depends on its
//!   submitter (a real edge: it is released when the submitter completes), so
//!   dynamically grown parts of the graph stay on the critical path.  A node's
//!   cost is whatever its body passed to [`LiveScope::report_cost`] — the
//!   factorizations report their per-thread flop delta, which keeps costs
//!   deterministic and in the unit the LORAPO baseline DAG uses.  A body that
//!   runs its work inside [`LiveScope::timed`] also records its start and end;
//!   a body that does not takes no clock read.
//!
//! Determinism: the scope does not impose an execution order beyond the
//! dependency edges, so callers must make every task write its own private
//! output slot and collect results in a fixed order.  Under that discipline
//! results are bitwise identical at every thread count.

use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use crate::dag::{TaskGraph, TaskId, TaskKind, TaskNode};
use crate::pool::{panic_message, PoolShared, TaskPanic, ThreadPool};

/// Boxed task body.  The argument is a scope handle so a running task can
/// submit successors into the live graph and report its cost.
type LiveJob = Box<dyn FnOnce(&LiveScope<'static>) + Send + 'static>;

/// Lifecycle of a node in the live graph.
enum NodeState {
    /// Waiting on `remaining` unmet dependencies; the body is parked here.
    Waiting { job: LiveJob, remaining: usize },
    /// Pushed to the pool (queued or running); the body travels with the job.
    Queued,
    /// Finished: ran to completion, drained cancelled, or panicked.
    Done,
}

/// Scheduling state of one task.
struct Sched {
    state: NodeState,
    /// Priority (higher runs first among ready tasks).
    priority: f64,
}

/// The live graph, one entry per task in both vectors.  `record` is the graph
/// [`live_scope`] hands back, built in place: kind and dependencies at
/// submission, reverse edges (every task that listed this one, released or
/// not) as dependents register, the reported cost and span at completion.
#[derive(Default)]
struct LiveNodes {
    sched: Vec<Sched>,
    record: Vec<TaskNode>,
}

/// Bookkeeping shared by every handle to one live graph.
struct LiveShared {
    pool: Arc<PoolShared>,
    /// Start of the scope: the origin of every recorded task span.
    epoch: Instant,
    /// Node states plus edges.  One lock for the whole graph — it is held only
    /// for bookkeeping (state flips, edge release), never while a task body
    /// runs, so contention is bounded by release traffic.
    nodes: Mutex<LiveNodes>,
    /// Set on the first panic: queued tasks drain as counted no-ops and
    /// dependents are never released.
    cancelled: AtomicBool,
    /// First task panic, reported by [`live_scope`] as a typed error.
    failure: Mutex<Option<TaskPanic>>,
}

/// Handle through which tasks are submitted into a live graph.
///
/// `'env` is the borrow scope of the data task closures may capture;
/// [`live_scope`] guarantees every task finishes before `'env` ends.
pub struct LiveScope<'env> {
    shared: Arc<LiveShared>,
    /// The running task this handle was given to (`None` for the builder's).
    current: Option<TaskId>,
    /// Bits of the `f64` cost the running task reported.
    cost: AtomicU64,
    /// Span of the running task's first [`LiveScope::timed`] region.
    span: OnceLock<(f64, f64)>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> LiveScope<'env> {
    fn handle(shared: Arc<LiveShared>, current: Option<TaskId>) -> LiveScope<'env> {
        LiveScope {
            shared,
            current,
            cost: AtomicU64::new(0.0f64.to_bits()),
            span: OnceLock::new(),
            _env: PhantomData,
        }
    }

    /// Submit a task with explicit dependencies (handles returned by earlier
    /// `submit` calls — forward references are impossible by construction, so
    /// the live graph is acyclic).  Dependencies that already completed count
    /// as satisfied.  Returns a handle usable as a dependency of later tasks.
    ///
    /// Callable from the builder closure *and* from inside a running task (the
    /// task body receives a scope handle) — that is the dynamic-submission
    /// half of the fused-pipeline contract.  A task submitted from inside a
    /// running task also depends on that task.
    ///
    /// # Panics
    /// Panics on a dependency handle that this graph never issued.
    pub fn submit<F>(&self, kind: TaskKind, priority: f64, deps: &[TaskId], body: F) -> TaskId
    where
        F: FnOnce(&LiveScope<'env>) + Send + 'env,
    {
        let boxed: Box<dyn FnOnce(&LiveScope<'env>) + Send + 'env> = Box::new(body);
        // SAFETY: `live_scope` does not return until every submitted task has
        // drained (it waits for pool idleness even when the builder panics)
        // and drops the bodies that never ran before it returns, so the `'env`
        // borrows captured by the closure strictly outlive it.
        let job: LiveJob = unsafe {
            std::mem::transmute::<Box<dyn FnOnce(&LiveScope<'env>) + Send + 'env>, LiveJob>(boxed)
        };
        // Empty (and unallocated) for a dep-less task submitted by the builder.
        let deps: Vec<TaskId> = deps.iter().copied().chain(self.current).collect();

        let mut guard = self.shared.nodes.lock();
        let nodes = &mut *guard;
        let id = TaskId(nodes.sched.len());
        // While the graph is being torn down, a late submission from a
        // still-running task is registered as already done: it drops cleanly
        // and later dependency references on it stay valid.
        let cancelled = self.shared.cancelled.load(Ordering::Acquire);
        let mut remaining = 0usize;
        if !cancelled {
            for dep in &deps {
                assert!(dep.0 < id.0, "dependency on unknown task {dep:?}");
                nodes.record[dep.0].dependents.push(id);
                if !matches!(nodes.sched[dep.0].state, NodeState::Done) {
                    remaining += 1;
                }
            }
        }
        nodes.record.push(TaskNode {
            id,
            cost: 0.0,
            kind,
            span: None,
            deps,
            dependents: Vec::new(),
        });
        let (state, ready) = if cancelled {
            (NodeState::Done, None)
        } else if remaining == 0 {
            (NodeState::Queued, Some(job))
        } else {
            (NodeState::Waiting { job, remaining }, None)
        };
        nodes.sched.push(Sched { state, priority });
        drop(guard);
        if let Some(job) = ready {
            spawn_live(&self.shared, id, priority, job);
        }
        id
    }

    /// Report the cost of the running task (the factorizations pass the flops
    /// it performed); it becomes the node's cost in the graph [`live_scope`]
    /// returns.  The last report wins; the builder's handle ignores it.
    pub fn report_cost(&self, cost: f64) {
        self.cost.store(cost.to_bits(), Ordering::Relaxed);
    }

    /// Run `body` between two clock reads and record them, in seconds from
    /// the start of the scope, as the running task's span in the graph
    /// [`live_scope`] returns.  The first timed region of a task is its span;
    /// the builder's handle records nothing.  Tasks that never call this take
    /// no clock read.
    pub fn timed<R>(&self, body: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = body();
        let end = Instant::now();
        let epoch = self.shared.epoch;
        let _ = self.span.set((
            start.saturating_duration_since(epoch).as_secs_f64(),
            end.saturating_duration_since(epoch).as_secs_f64(),
        ));
        out
    }
}

/// Push one ready task to the pool.  A panicking body is caught here, recorded
/// once, and cancels the rest of the graph; completion stores the reported
/// cost and span, releases dependents per edge and pushes the newly ready
/// ones, most critical last (LIFO deque → runs first).
fn spawn_live(shared: &Arc<LiveShared>, id: TaskId, priority: f64, job: LiveJob) {
    let for_job = Arc::clone(shared);
    shared.pool.push(
        priority,
        Box::new(move || {
            let scope = LiveScope::handle(for_job, Some(id));
            let shared = &scope.shared;
            if shared.cancelled.load(Ordering::Acquire) {
                // Drain without running; the pool still counts this job, so
                // idleness-based termination keeps its guarantee.
                shared.nodes.lock().sched[id.0].state = NodeState::Done;
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(&scope))) {
                let mut f = shared.failure.lock();
                if f.is_none() {
                    *f = Some(TaskPanic {
                        task: id,
                        message: panic_message(payload.as_ref()),
                    });
                }
                drop(f);
                shared.cancelled.store(true, Ordering::Release);
                // Dependents of a panicked task are never released.
                shared.nodes.lock().sched[id.0].state = NodeState::Done;
                return;
            }
            // Per-edge release: decrement every dependent's unmet count and
            // collect the ones this completion made ready.
            let mut ready: Vec<(TaskId, f64, LiveJob)> = Vec::new();
            {
                let mut guard = shared.nodes.lock();
                let LiveNodes { sched, record } = &mut *guard;
                sched[id.0].state = NodeState::Done;
                record[id.0].cost = f64::from_bits(scope.cost.load(Ordering::Relaxed));
                record[id.0].span = scope.span.get().copied();
                for &dep in &record[id.0].dependents {
                    let node = &mut sched[dep.0];
                    let released = match &mut node.state {
                        NodeState::Waiting { remaining, .. } => {
                            *remaining -= 1;
                            *remaining == 0
                        }
                        _ => false,
                    };
                    if released {
                        let prev = std::mem::replace(&mut node.state, NodeState::Queued);
                        if let NodeState::Waiting { job, .. } = prev {
                            ready.push((dep, node.priority, job));
                        }
                    }
                }
            }
            // Push lowest priority first: the worker's deque is LIFO, so the
            // most critical dependent is executed next.
            ready.sort_by(|a, b| a.1.total_cmp(&b.1));
            for (dep, prio, job) in ready {
                spawn_live(shared, dep, prio, job);
            }
        }),
    );
}

/// Run a live task graph to completion on `pool` and hand back, next to the
/// builder's result, the graph that ran.
///
/// `build` receives the scope handle and submits the initial tasks; tasks may
/// submit further tasks while running.  The call returns only after every
/// task has drained — also when `build` itself panics (the graph is cancelled,
/// drained, and the panic resumed), which is what makes `'env` borrows inside
/// task closures sound.
///
/// # Errors
/// The first task panic of the run, as a typed [`TaskPanic`]; the pool remains
/// reusable.
pub fn live_scope<'env, R>(
    pool: &ThreadPool,
    build: impl FnOnce(&LiveScope<'env>) -> R,
) -> Result<(R, TaskGraph), TaskPanic> {
    let shared = Arc::new(LiveShared {
        pool: Arc::clone(pool.shared_handle()),
        epoch: Instant::now(),
        nodes: Mutex::new(LiveNodes::default()),
        cancelled: AtomicBool::new(false),
        failure: Mutex::new(None),
    });
    let scope = LiveScope::<'env>::handle(Arc::clone(&shared), None);
    let built = catch_unwind(AssertUnwindSafe(|| build(&scope)));
    if built.is_err() {
        // The builder died mid-registration: cancel so queued tasks drain
        // fast, then wait for the drain before unwinding — task closures may
        // borrow locals of the (unwinding) caller frame.
        shared.cancelled.store(true, Ordering::Release);
    }
    // Live task wrappers catch their own panics, so this cannot re-throw for
    // them; only plain `submit` jobs sharing the pool could.
    let pool_panic = pool.try_wait_idle();
    // Taking the nodes drops, inside the scope, the bodies a cancelled run
    // never released.
    let LiveNodes { record, .. } = std::mem::take(&mut *shared.nodes.lock());
    match built {
        Err(payload) => std::panic::resume_unwind(payload),
        Ok(result) => {
            if let Err(p) = pool_panic {
                std::panic::resume_unwind(p);
            }
            if let Some(failure) = shared.failure.lock().take() {
                return Err(failure);
            }
            Ok((result, TaskGraph::from_nodes(record)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn per_edge_release_runs_everything_once() {
        let pool = ThreadPool::new(4);
        let count = AtomicU64::new(0);
        let order = Mutex::new(Vec::new());
        let result = live_scope(&pool, |scope| {
            let a = scope.submit(TaskKind::Other, 1.0, &[], |_| {
                order.lock().push("a");
            });
            let b = scope.submit(TaskKind::Other, 1.0, &[a], |_| {
                order.lock().push("b");
            });
            for _ in 0..16 {
                scope.submit(TaskKind::Other, 0.5, &[a, b], |_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert!(result.is_ok());
        assert_eq!(count.load(Ordering::Relaxed), 16);
        let order = order.lock();
        assert_eq!(&*order, &["a", "b"], "edges must be honored");
    }

    #[test]
    fn dynamic_submission_from_inside_a_task_is_awaited() {
        let pool = ThreadPool::new(2);
        let hits = AtomicU64::new(0);
        let result = live_scope(&pool, |scope| {
            scope.submit(TaskKind::Factor, 1.0, &[], |scope| {
                // Spawn a chain of successors from inside the running task;
                // the scope must not terminate before they all finish.
                let first = scope.submit(TaskKind::Factor, 2.0, &[], |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
                scope.submit(TaskKind::Factor, 2.0, &[first], |scope| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    scope.submit(TaskKind::Factor, 3.0, &[], |_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                });
            });
        });
        assert!(result.is_ok());
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn already_done_dependencies_count_as_satisfied() {
        let pool = ThreadPool::new(1);
        let hits = AtomicU64::new(0);
        let result = live_scope(&pool, |scope| {
            let a = scope.submit(TaskKind::Other, 1.0, &[], |_| {});
            // With one worker, give `a` time to finish before the dependent
            // is submitted — the dep must count as satisfied, not hang.
            std::thread::sleep(std::time::Duration::from_millis(20));
            scope.submit(TaskKind::Other, 1.0, &[a], |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(result.is_ok());
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn task_panic_is_typed_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let ran_after = AtomicU64::new(0);
        let result = live_scope(&pool, |scope| {
            let boom = scope.submit(TaskKind::Factor, 1.0, &[], |_| {
                panic!("live graph boom");
            });
            // A chain behind the panicked task: none of it may run, and the
            // scope must still drain cleanly.
            let mut prev = boom;
            for _ in 0..50 {
                prev = scope.submit(TaskKind::Factor, 1.0, &[prev], |_| {
                    ran_after.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        let err = result.expect_err("panic must surface");
        assert_eq!(err.task, TaskId(0));
        assert!(err.message.contains("live graph boom"), "{}", err.message);
        assert_eq!(ran_after.load(Ordering::Relaxed), 0);
        // The pool is reusable after a cancelled graph.
        let ok = live_scope(&pool, |scope| {
            scope.submit(TaskKind::Other, 1.0, &[], |_| {});
        });
        assert!(ok.is_ok());
    }

    #[test]
    fn builder_panic_drains_before_unwinding() {
        let pool = ThreadPool::new(2);
        let local = AtomicU64::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _ = live_scope(&pool, |scope| {
                for _ in 0..8 {
                    scope.submit(TaskKind::Other, 1.0, &[], |_| {
                        local.fetch_add(1, Ordering::Relaxed);
                    });
                }
                panic!("builder boom");
            });
        }));
        assert!(caught.is_err());
        // After live_scope unwound, no task may still be touching `local`:
        // the pool is idle, so this read races with nothing.
        let _ = local.load(Ordering::Relaxed);
        let ok = live_scope(&pool, |scope| {
            scope.submit(TaskKind::Other, 1.0, &[], |_| {});
        });
        assert!(ok.is_ok());
    }

    #[test]
    fn diamond_results_are_deterministic_across_thread_counts() {
        // A fan-out/fan-in graph where every task writes one private slot;
        // collected results must be identical at every pool size.
        fn run(threads: usize) -> Vec<u64> {
            let pool = ThreadPool::new(threads);
            let n = 32;
            let slots: Vec<std::sync::OnceLock<u64>> =
                (0..n).map(|_| std::sync::OnceLock::new()).collect();
            live_scope(&pool, |scope| {
                let src = scope.submit(TaskKind::Other, 1.0, &[], |_| {});
                let mids: Vec<TaskId> = (0..n)
                    .map(|i| {
                        let slot = &slots[i];
                        scope.submit(TaskKind::Other, 1.0, &[src], move |_| {
                            let v = (i as u64).wrapping_mul(0x9e3779b97f4a7c15);
                            let _ = slot.set(v ^ (v >> 31));
                        })
                    })
                    .collect();
                scope.submit(TaskKind::Other, 2.0, &mids, |_| {});
            })
            .expect("clean run");
            slots.iter().map(|s| *s.get().expect("slot set")).collect()
        }
        let a = run(1);
        let b = run(2);
        let c = run(4);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn higher_priority_tasks_run_first_on_one_worker() {
        // One worker, held inside the first task while three more are
        // submitted: the injector must hand them out highest-priority-first.
        let pool = ThreadPool::new(1);
        let order = Mutex::new(Vec::new());
        let (opened, gate) = (Mutex::new(false), parking_lot::Condvar::new());
        live_scope(&pool, |scope| {
            scope.submit(TaskKind::Other, 9.0, &[], |_| {
                let mut open = opened.lock();
                while !*open {
                    gate.wait(&mut open);
                }
            });
            for (prio, tag) in [(1.0, "low"), (3.0, "high"), (2.0, "mid")] {
                let order = &order;
                scope.submit(TaskKind::Other, prio, &[], move |_| order.lock().push(tag));
            }
            *opened.lock() = true;
            gate.notify_all();
        })
        .expect("clean run");
        assert_eq!(*order.lock(), vec!["high", "mid", "low"]);
    }

    #[test]
    fn the_returned_graph_is_the_one_that_ran() {
        let pool = ThreadPool::new(3);
        let inner = std::sync::OnceLock::new();
        let began = std::time::Instant::now();
        let ((a, b, c), graph) = live_scope(&pool, |scope| {
            let a = scope.submit(TaskKind::Fill, 1.0, &[], |s| {
                s.timed(|| s.report_cost(7.0));
            });
            let b = scope.submit(TaskKind::Basis, 1.0, &[a], |s| {
                s.report_cost(1.0);
                s.report_cost(5.0); // the last report wins
            });
            let inner = &inner;
            let c = scope.submit(TaskKind::Update, 1.0, &[a, b], move |s| {
                s.timed(|| {
                    s.report_cost(3.0);
                    // Dynamic submission with no explicit deps: the record
                    // must still tie it to its submitter.
                    let d = s.submit(TaskKind::Root, 0.0, &[], |s| s.report_cost(11.0));
                    let _ = inner.set(d);
                });
                s.timed(|| {}); // the first timed region is the span
            });
            scope.report_cost(99.0); // the builder's handle is no task
            scope.timed(|| {});
            (a, b, c)
        })
        .expect("clean run");
        let wall = began.elapsed().as_secs_f64();
        let d = *inner.get().expect("inner task submitted");
        assert_eq!(graph.len(), 4, "one node per submitted task");
        assert!(graph.validate());
        let node = |t: TaskId| graph.node(t);
        assert_eq!(
            [a, b, c, d].map(|t| node(t).kind),
            [
                TaskKind::Fill,
                TaskKind::Basis,
                TaskKind::Update,
                TaskKind::Root
            ]
        );
        assert!(node(a).deps.is_empty());
        assert_eq!(node(b).deps, vec![a]);
        assert_eq!(node(c).deps, vec![a, b]);
        assert_eq!(node(d).deps, vec![c], "submitter recorded as dependency");
        assert_eq!(node(a).dependents, vec![b, c]);
        assert_eq!(node(c).dependents, vec![d]);
        assert_eq!([a, b, c, d].map(|t| node(t).cost), [7.0, 5.0, 3.0, 11.0]);
        assert_eq!(graph.total_work(), 26.0);
        assert_eq!(graph.critical_path(), 26.0);
        assert_eq!(graph.num_roots(), 1);
        // Timed tasks carry their span inside the scope's wall time, in
        // dependency order; silent tasks carry none.
        let span = |t: TaskId| node(t).span.expect("timed task has a span");
        for t in [a, c] {
            let (start, end) = span(t);
            assert!(
                0.0 <= start && start <= end && end <= wall,
                "{t:?}: {start}..{end}"
            );
            assert_eq!(node(t).seconds(), end - start);
        }
        assert!(
            span(a).1 <= span(c).0,
            "c starts after its dependency a ends"
        );
        assert_eq!([b, d].map(|t| node(t).span), [None, None]);
        assert_eq!(node(b).seconds(), 0.0);
    }
}
