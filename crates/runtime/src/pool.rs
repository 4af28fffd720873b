//! A work-stealing thread pool: the substrate [`crate::live::live_scope`] runs
//! its task graphs on.
//!
//! The pool stands in for the PaRSEC/StarPU runtimes referenced by the paper.
//! It knows nothing about dependencies — `live_scope` tracks those and pushes a
//! task here the moment its last dependency completes; the pool decides which
//! worker runs it and when.
//!
//! Scheduling design (the three properties the scaling measurements depend on):
//!
//! * **Per-worker deques with stealing.**  Every worker owns a deque: tasks a worker
//!   spawns (released dependents) go to the LIFO end of its own deque, preserving
//!   cache locality along dependency chains; idle workers first drain the shared
//!   priority injector, then steal from the FIFO end of a victim's deque — the
//!   Chase-Lev discipline, here with short critical sections guarded by per-deque
//!   locks instead of a lock-free ring since tasks are coarse (whole block-row
//!   eliminations).  Job *acquisition* never touches shared queue order: the owner
//!   pops its own deque without competing with other workers' pops.  Submission
//!   and completion still take the global sync mutex briefly (the outstanding-task
//!   count and the no-lost-wakeup protocol live there) — cheap for this solver's
//!   coarse tasks; replacing it with an atomic counter + event-count parking is
//!   the remaining step for fine-grained workloads.
//! * **Priorities.**  The shared injector is a max-heap on the priority the
//!   submitter passes (FIFO among equals); a worker releasing several dependents
//!   pushes them lowest-priority first, so its LIFO deque runs the most critical
//!   one next.
//! * **Idleness counts outstanding tasks, not queue length.**  `wait_idle` blocks
//!   until the number of *submitted-but-unfinished* tasks reaches zero.  With
//!   stealing, a task can be in flight in a worker's local deque or mid-execution
//!   while every shared structure looks empty — counting only the shared queue
//!   would let `wait_idle` return early and race the local-deque work.
//!
//! Workers park on a condition variable when no work exists anywhere, so an idle
//! pool consumes no CPU.  A panicking plain job is caught, recorded, and re-thrown
//! from `wait_idle` on the waiting thread; live-graph tasks catch their own panics
//! and report them as a typed [`TaskPanic`].

use crate::dag::TaskId;
use crate::stats::WorkStealCounters;
use parking_lot::{Condvar, Mutex};
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A task of a [`live_scope`](crate::live::live_scope) graph panicked.  The
/// scope catches the panic, cancels the rest of the graph (dependents are never
/// released and queued tasks drain as no-ops) and reports it as this error
/// instead of unwinding, so the pool stays reusable and the caller can surface
/// a typed failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// The graph task whose action panicked.
    pub task: TaskId,
    /// The panic payload, stringified when possible.
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DAG task {} panicked: {}", self.task.0, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Best-effort stringification of a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// Process-wide pool identifier source, so a worker thread can tell which pool it
/// belongs to (threads of pool A submitting to pool B must use B's injector, not
/// their own deque index).
static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// `(pool_id, worker_index)` of the pool that owns the current thread.
    static WORKER: std::cell::Cell<Option<(usize, usize)>> = const { std::cell::Cell::new(None) };
}

/// An injector entry: higher priority first, FIFO among equal priorities.
struct PrioJob {
    prio: f64,
    seq: u64,
    job: Job,
}

impl PartialEq for PrioJob {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for PrioJob {}
impl PartialOrd for PrioJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PrioJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: larger priority wins; among equal priorities the earlier
        // submission wins (reverse the sequence comparison).
        self.prio
            .total_cmp(&other.prio)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Counters protected by the sync mutex.
struct SyncState {
    /// Tasks submitted but not yet finished (in a deque, the injector, or running).
    in_flight: usize,
    shutdown: bool,
}

/// Shared state between the pool handle and its workers.
pub(crate) struct PoolShared {
    pool_id: usize,
    sync: Mutex<SyncState>,
    /// Signalled when a job is pushed or shutdown is requested.
    work_available: Condvar,
    /// Signalled when the in-flight count drops to zero.
    idle: Condvar,
    /// Shared priority queue for submissions from outside the pool.
    injector: Mutex<BinaryHeap<PrioJob>>,
    /// One deque per worker: owner pushes/pops the back, thieves pop the front.
    locals: Vec<Mutex<VecDeque<Job>>>,
    /// Injector FIFO tie-break sequence.
    seq: AtomicU64,
    /// First panic payload of any task; re-thrown by `wait_idle`.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
    // Scheduling counters (see [`WorkStealCounters`]).
    n_executed: AtomicU64,
    n_local: AtomicU64,
    n_injector: AtomicU64,
    n_steals: AtomicU64,
}

impl PoolShared {
    /// Worker index of the current thread *in this pool*, if any.
    fn own_worker_index(&self) -> Option<usize> {
        match WORKER.with(|w| w.get()) {
            Some((pid, idx)) if pid == self.pool_id => Some(idx),
            _ => None,
        }
    }

    /// Enqueue a job.  Worker threads of this pool push to the LIFO end of their own
    /// deque (priority is then positional: push lowest-priority first); everyone else
    /// goes through the priority injector.
    pub(crate) fn push(&self, prio: f64, job: Job) {
        {
            let mut s = self.sync.lock();
            s.in_flight += 1;
            // The queue push happens under the sync lock: a worker that found all
            // queues empty re-checks them under the same lock before parking, so a
            // notify can never be lost between its check and its wait.
            match self.own_worker_index() {
                Some(idx) => self.locals[idx].lock().push_back(job),
                None => {
                    let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                    self.injector.lock().push(PrioJob { prio, seq, job });
                }
            }
        }
        self.work_available.notify_one();
    }

    /// Try to acquire a job: own deque (LIFO) → injector (highest priority) → steal
    /// (FIFO, round-robin over victims).
    fn try_pop(&self, idx: usize) -> Option<Job> {
        if let Some(job) = self.locals[idx].lock().pop_back() {
            self.n_local.fetch_add(1, Ordering::Relaxed);
            self.n_executed.fetch_add(1, Ordering::Relaxed);
            return Some(job);
        }
        if let Some(pj) = self.injector.lock().pop() {
            self.n_injector.fetch_add(1, Ordering::Relaxed);
            self.n_executed.fetch_add(1, Ordering::Relaxed);
            return Some(pj.job);
        }
        let n = self.locals.len();
        for off in 1..n {
            let victim = (idx + off) % n;
            if let Some(job) = self.locals[victim].lock().pop_front() {
                self.n_steals.fetch_add(1, Ordering::Relaxed);
                self.n_executed.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    /// Blocking job acquisition; returns `None` on shutdown.
    fn next_job(&self, idx: usize) -> Option<Job> {
        // Fast path without the sync lock.
        if let Some(job) = self.try_pop(idx) {
            return Some(job);
        }
        let mut s = self.sync.lock();
        loop {
            if let Some(job) = self.try_pop(idx) {
                return Some(job);
            }
            if s.shutdown {
                return None;
            }
            self.work_available.wait(&mut s);
        }
    }

    /// Mark one task finished and wake `wait_idle` callers when everything is done.
    fn finish_one(&self) {
        let became_idle = {
            let mut s = self.sync.lock();
            s.in_flight -= 1;
            s.in_flight == 0
        };
        if became_idle {
            self.idle.notify_all();
        }
    }
}

/// A work-stealing thread pool (per-worker deques, shared priority injector,
/// condvar-parked idle workers).
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    num_threads: usize,
}

impl ThreadPool {
    /// Create a pool with `num_threads` workers (at least one).
    pub fn new(num_threads: usize) -> Self {
        let num_threads = num_threads.max(1);
        let shared = Arc::new(PoolShared {
            pool_id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            sync: Mutex::new(SyncState {
                in_flight: 0,
                shutdown: false,
            }),
            work_available: Condvar::new(),
            idle: Condvar::new(),
            injector: Mutex::new(BinaryHeap::new()),
            locals: (0..num_threads)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            seq: AtomicU64::new(0),
            panic: Mutex::new(None),
            n_executed: AtomicU64::new(0),
            n_local: AtomicU64::new(0),
            n_injector: AtomicU64::new(0),
            n_steals: AtomicU64::new(0),
        });
        let mut threads = Vec::with_capacity(num_threads);
        for idx in 0..num_threads {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("h2-runtime-worker-{idx}"))
                    .spawn(move || worker_loop(shared, idx))
                    .unwrap_or_else(|e| panic!("failed to spawn worker thread: {e}")),
            );
        }
        ThreadPool {
            shared,
            threads,
            num_threads,
        }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Shared-state handle for the in-crate live graph (`crate::live`).
    pub(crate) fn shared_handle(&self) -> &Arc<PoolShared> {
        &self.shared
    }

    /// Submit a job for asynchronous execution (neutral priority).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.push(0.0, Box::new(job));
    }

    /// Block until every submitted job has finished — including jobs that were
    /// submitted *by other jobs* and are still in a worker's local deque; idleness
    /// is detected from the outstanding-task count, never from queue emptiness.
    /// Re-throws the first panic raised by any task.
    pub fn wait_idle(&self) {
        if let Err(p) = self.try_wait_idle() {
            resume_unwind(p);
        }
    }

    /// Like [`wait_idle`](Self::wait_idle), but hands the first task panic back
    /// as a value instead of re-throwing it — the containment-path variant
    /// `live_scope` builds on.
    pub fn try_wait_idle(&self) -> Result<(), Box<dyn std::any::Any + Send + 'static>> {
        {
            let mut s = self.shared.sync.lock();
            while s.in_flight != 0 {
                self.shared.idle.wait(&mut s);
            }
        }
        match self.shared.panic.lock().take() {
            Some(p) => Err(p),
            None => Ok(()),
        }
    }

    /// Snapshot of the scheduling counters accumulated since pool creation.
    pub fn steal_counters(&self) -> WorkStealCounters {
        WorkStealCounters {
            executed: self.shared.n_executed.load(Ordering::Relaxed),
            local_pops: self.shared.n_local.load(Ordering::Relaxed),
            injector_pops: self.shared.n_injector.load(Ordering::Relaxed),
            steals: self.shared.n_steals.load(Ordering::Relaxed),
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>, idx: usize) {
    // Nested kernels (the packed GEMM's column bands) must not fan out on top
    // of a busy task worker.
    rayon::mark_worker_thread();
    WORKER.with(|w| w.set(Some((shared.pool_id, idx))));
    while let Some(job) = shared.next_job(idx) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
            let mut slot = shared.panic.lock();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        shared.finish_one();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut s = self.shared.sync.lock();
            while s.in_flight != 0 {
                self.shared.idle.wait(&mut s);
            }
            s.shutdown = true;
        }
        self.shared.work_available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Resolve a worker-thread count: `explicit` if positive, else the
/// `H2_NUM_THREADS` environment variable, else the machine's available
/// parallelism.  Shared by every DAG-driven construction/factorization so they
/// cannot silently diverge.
pub fn resolve_num_threads(explicit: usize) -> usize {
    if explicit > 0 {
        return explicit;
    }
    if let Ok(v) = std::env::var("H2_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn submit_and_wait_idle() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 50);
        assert_eq!(pool.num_threads(), 2);
        // Every executed task came through exactly one acquisition channel.
        let c = pool.steal_counters();
        assert_eq!(c.executed, 50);
        assert_eq!(c.executed, c.local_pops + c.injector_pops + c.steals);
    }

    #[test]
    fn wait_idle_on_empty_pool_returns_immediately() {
        let pool = ThreadPool::new(3);
        pool.wait_idle();
        pool.wait_idle();
    }

    #[test]
    fn wait_idle_counts_tasks_spawned_by_tasks() {
        // Regression test for the local-deque race: a task that submits follow-up
        // work from inside a worker pushes to its *local* deque; `wait_idle` must
        // count that work as outstanding even though the shared injector is empty.
        for _round in 0..20 {
            let pool = Arc::new(ThreadPool::new(4));
            let counter = Arc::new(AtomicU64::new(0));
            for _ in 0..8 {
                let pool2 = Arc::clone(&pool);
                let c = Arc::clone(&counter);
                pool.submit(move || {
                    // Deep chain of worker-side submissions, each with a small
                    // delay so the parent finishes while the child is queued.
                    fn chain(pool: &Arc<ThreadPool>, c: &Arc<AtomicU64>, depth: usize) {
                        c.fetch_add(1, Ordering::SeqCst);
                        if depth > 0 {
                            let pool2 = Arc::clone(pool);
                            let c2 = Arc::clone(c);
                            pool.submit(move || {
                                std::thread::sleep(std::time::Duration::from_micros(50));
                                chain(&pool2, &c2, depth - 1);
                            });
                        }
                    }
                    chain(&pool2, &c, 5);
                });
            }
            pool.wait_idle();
            assert_eq!(
                counter.load(Ordering::SeqCst),
                8 * 6,
                "wait_idle returned before locally-queued descendants finished"
            );
        }
    }

    #[test]
    fn idle_pool_consumes_no_cpu() {
        // With parked workers, an idle pool's threads all block; this test just
        // exercises the park/unpark transition repeatedly.
        let pool = ThreadPool::new(4);
        for round in 0..20 {
            let counter = Arc::new(AtomicU64::new(0));
            for _ in 0..8 {
                let c = Arc::clone(&counter);
                pool.submit(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            pool.wait_idle();
            assert_eq!(counter.load(Ordering::SeqCst), 8, "round {round}");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn task_panic_propagates_to_wait_idle() {
        let pool = ThreadPool::new(2);
        pool.submit(|| panic!("boom in task"));
        let res = catch_unwind(AssertUnwindSafe(|| pool.wait_idle()));
        assert!(res.is_err(), "wait_idle must re-throw the task panic");
        // The pool stays usable afterwards.
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        pool.submit(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }
}
