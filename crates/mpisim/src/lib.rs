//! # h2-mpisim — process tree and network cost model
//!
//! The paper's distributed experiments (§III-D, Fig. 8, Fig. 16) run on up to 10,240
//! cores with MPI, exchanging skeleton blocks through `Allgather` collectives over
//! communicators that are split along a full binary *process tree*.  The reproduction
//! models those runs instead of executing them:
//!
//! * [`process_tree`] — the full binary process tree of the paper's partitioning
//!   scheme, mapping cluster-tree nodes to the rank ranges that own them,
//! * [`netmodel`] — an (alpha, beta) latency/bandwidth model that converts
//!   communication volumes into time for core counts far beyond what one machine can
//!   host.
//!
//! `h2_factor::dist` combines the two with the measured factorization to produce the
//! Fig. 16 scaling numbers.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod netmodel;
pub mod process_tree;

pub use netmodel::{allgather_time, NetworkModel};
pub use process_tree::ProcessTree;
