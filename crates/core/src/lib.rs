//! # h2-factor — ULV factorizations without trailing sub-matrix dependencies
//!
//! This crate implements the paper's contribution: a family of ULV factorizations of
//! rank-structured kernel matrices, culminating in the **H²-ULV factorization without
//! trailing sub-matrix dependencies** (§III of the paper).  The members of the family
//! share one engine ([`ulv::UlvFactorization`]) and differ only in their options:
//!
//! | solver | admissibility | hierarchy | fill-ins | paper section |
//! |--------|---------------|-----------|----------|---------------|
//! | [`variants::blr2_ulv`] | weak or strong | single level + dense root | none (weak) | §II-B |
//! | [`variants::hss_ulv`]  | weak | multi-level | none | §II-C |
//! | [`variants::h2_ulv_nodep`] | strong | multi-level | pre-computed, folded into the shared bases | §III (the contribution) |
//! | [`variants::h2_ulv_dep`]   | strong | multi-level | same bases, but sequential elimination with exact trailing updates | §II-D (ablation) |
//!
//! The factorization returns a [`ulv::UlvFactors`] object that solves linear systems
//! in O(N) and carries the task graph it executed — as recorded by
//! `h2_runtime::live_scope`, with measured flops as task costs — which the scaling
//! and trace figures replay ([`ulv::UlvFactors::task_graph`]), as well as the
//! distributed cost model ([`dist`]).
//!
//! Accuracy is always measured the way the paper does (§IV-A): the relative L2 error
//! of the structured solution against a dense LU solution of the same matrix
//! ([`dense`]).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dense;
pub mod dist;
pub mod fillin;
pub mod options;
pub mod session;
pub mod solve;
pub mod ulv;
pub mod variants;

pub use dense::{dense_solve, DenseReference};
pub use dist::{
    estimate_distributed, replay_skeleton_exchange, strong_scaling_sweep, DistConfig, DistEstimate,
};
pub use options::{CompressionMode, FactorOptions, Hierarchy, Schedule, SketchPrecision, Variant};
pub use session::Analysis;
pub use ulv::{
    FactorStats, PhaseBreakdown, RecoveryEvents, TaskClassBreakdown, UlvFactorization, UlvFactors,
};
pub use variants::{blr2_ulv, h2_ulv_dep, h2_ulv_nodep, hss_ulv};
