//! # h2-runtime — task DAG runtime and scheduler simulator
//!
//! The paper contrasts two execution models:
//!
//! * the LORAPO baseline expresses its BLR factorization as a task DAG with trailing
//!   sub-matrix dependencies and relies on the PaRSEC runtime to extract parallelism —
//!   paying a per-task runtime overhead that Fig. 13 of the paper visualizes;
//! * the proposed H²-ULV factorization has **no dependencies inside a level**, so a
//!   plain parallel-for is enough and "runtime systems such as StarPU and PaRSEC …
//!   are unnecessary".
//!
//! This crate provides both sides of that comparison as reusable substrates:
//!
//! * [`dag`] — [`TaskGraph`], a plain-data task DAG with critical-path analysis
//!   and category labels,
//! * [`live`] — [`live_scope`], the one executor: dynamic task submission with
//!   per-edge dependency release and typed panic containment.  The H² construction
//!   and the fused H²-ULV factorization run on it, and it hands back the graph it
//!   executed (kinds, dependencies, reported costs) as a [`TaskGraph`],
//! * [`pool`] — the work-stealing thread pool underneath (per-worker deques, LIFO
//!   local pop / FIFO steal, priority injector),
//! * [`sim`] — a discrete-event scheduler simulator that replays a task DAG — the
//!   recorded factorization graph or the LORAPO baseline's — on `P` virtual workers
//!   with a configurable per-task runtime overhead; this is what the strong-scaling
//!   figures use, because the CI machine cannot host the paper's core counts,
//! * [`trace`] — execution traces (worker timelines, useful vs. overhead time) that
//!   regenerate the Fig. 13 analysis,
//! * [`stats`] — makespan / critical path / efficiency summaries.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dag;
pub mod live;
pub mod pool;
pub mod sim;
pub mod stats;
pub mod trace;

pub use dag::{TaskGraph, TaskId, TaskKind};
pub use live::{live_scope, LiveScope};
pub use pool::{resolve_num_threads, TaskPanic, ThreadPool};
pub use sim::{simulate_schedule, SimConfig, SimResult};
pub use stats::{ScheduleStats, WorkStealCounters};
pub use trace::{Trace, TraceEvent};
