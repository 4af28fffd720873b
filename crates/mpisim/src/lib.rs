//! # h2-mpisim — in-process distributed-memory substrate
//!
//! The paper's distributed experiments (§V, Fig. 16) run on up to 10,240 cores with
//! MPI, exchanging data through `Allgather` collectives over communicators that are
//! split along a full binary *process tree* (Fig. 8).  This crate provides the same
//! programming model without MPI:
//!
//! * [`comm`] — a [`Universe`](comm::Universe) spawns `P` ranks as threads; each rank
//!   gets a [`Comm`](comm::Comm) handle with `send`/`recv`, `barrier`, `allgather`,
//!   `bcast`, `allreduce_sum` and `split` — the subset of MPI the algorithm needs.
//!   Every blocking operation runs against a deadline from
//!   [`CommConfig`](comm::CommConfig) and returns a typed
//!   [`CommError`](error::CommError) instead of hanging,
//! * [`transport`] — the pluggable unreliable frame pipe underneath: in-process
//!   channels or localhost TCP sockets (`H2_TRANSPORT=channel|socket`), with
//!   checksummed, acknowledged, retried frames layered on top in [`comm`],
//! * [`error`] — the communicator failure taxonomy (`Timeout`, `RankFailed`,
//!   `CorruptFrame`, `Disconnected`, `Protocol`), convertible into the
//!   solver-wide `SolverError`,
//! * [`process_tree`] — the full binary process tree of the paper's partitioning
//!   scheme, mapping cluster-tree nodes to rank ranges,
//! * [`counters`] — per-rank communication volume/message accounting plus
//!   robustness counters (retries, timeouts, corrupt frames, duplicates, rank
//!   failures),
//! * [`netmodel`] — an (alpha, beta) latency/bandwidth model that converts recorded
//!   communication volumes into simulated time for core counts far beyond what the
//!   reproduction machine can host.
//!
//! Functional correctness is exercised with real threads (small rank counts); the
//! Fig. 16 scaling numbers come from the cost model driven by the measured per-rank
//! work and communication volumes.  Network fault injection (`H2_FAULT` specs
//! `drop_msg`/`corrupt_msg`/`delay_msg`/`dup_msg`/`kill_rank`) happens inside the
//! transport send path, so retry, integrity and failure-detection machinery is
//! exercised by the same code paths real packet loss would take.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod comm;
pub mod counters;
pub mod error;
pub mod netmodel;
pub mod process_tree;
pub mod transport;

pub use comm::{Comm, CommConfig, Universe};
pub use counters::CommStats;
pub use error::{CommError, CommResult};
pub use netmodel::{allgather_time, reduce_time, NetworkModel};
pub use process_tree::ProcessTree;
pub use transport::{TransportKind, Xxh64};
