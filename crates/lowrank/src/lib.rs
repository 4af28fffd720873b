//! # h2-lowrank — low-rank compression tools
//!
//! The compression kernels used by the hierarchical matrix formats and the LORAPO
//! baseline:
//!
//! * [`LowRank`] — a rank-`k` factorization `A ≈ U · V^T` with basic arithmetic,
//! * [`truncation`] — tolerance-driven compression of dense blocks via column-pivoted
//!   QR (the `QR()` of the paper's Eqs. 2–3),
//! * [`aca`] — Adaptive Cross Approximation with partial pivoting, the kernel-entry
//!   sampling compressor used for admissible blocks when forming the whole block is
//!   too expensive (this is how the adaptive-rank BLR baseline LORAPO compresses its
//!   tiles),
//! * [`sketch`] — sketch-then-orthonormalize compression: the fast path of the H²
//!   construction, either a Gaussian sketch (GEMM-dominated) or a mixed-precision
//!   SRFT-style structured sketch (`O(m·n·log n)` butterfly mixing, optionally f32),
//! * [`add_round`](mod@add_round) — low-rank addition followed by re-compression ("rounding"),
//!   needed by the BLR LU's Schur updates and by the recompression step of the
//!   H²-ULV *with* dependencies.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod aca;
pub mod add_round;
pub mod lowrank;
pub mod sketch;
pub mod truncation;

pub use aca::{aca_block, AcaResult};
pub use add_round::{add_lowrank, add_round, round_lowrank};
pub use lowrank::LowRank;
pub use sketch::{
    gaussian_test_matrix, sketched_basis_split, sketched_pivoted_qr, srft_basis_split,
    srft_detect_tol, srft_pivoted_qr, srft_sketch, srft_sketch_or_panel, CompressionMode,
    SketchPrecision, SRFT_DETECT_SLACK,
};
pub use truncation::compress_block;
