//! # h2-matrix — dense linear algebra substrate
//!
//! A self-contained, pure-Rust replacement for the BLAS/LAPACK routines that the
//! paper's solver links against (Intel MKL in the original work).  The crate provides
//! a column-major [`Matrix`] type together with the dense kernels required by the
//! structured low-rank factorizations built on top of it:
//!
//! * level-1/2/3 BLAS-like kernels ([`blas1`], [`gemm`](mod@gemm), [`triangular`]),
//! * LU with partial pivoting and Cholesky factorizations ([`lu`], [`cholesky`]),
//! * Householder QR and column-pivoted (rank-revealing) QR ([`qr`], [`pivoted_qr`](mod@pivoted_qr)),
//! * a one-sided Jacobi SVD used for validation and truncation ([`svd`]),
//! * matrix norms ([`norms`]),
//! * global floating-point operation counters ([`flops`]) standing in for the
//!   PAPI_FP_OPS hardware counters used in Fig. 10 of the paper.
//!
//! The numerical core operates on `f64`; the randomized sketching path has a
//! single-precision twin ([`fp32`]) with the same packed-GEMM blocking at twice
//! the SIMD width.  Where the paper says "LAPACK dense LU" we use
//! [`lu::lu_factor`] / [`lu::lu_solve`] from this crate.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod blas1;
pub mod cholesky;
pub mod fault;
pub mod flops;
pub mod fp32;
pub mod gemm;
pub mod kernel;
pub mod lu;
pub mod matrix;
pub mod norms;
pub mod pivoted_qr;
pub mod qr;
pub mod svd;
pub mod triangular;

pub use cholesky::{cholesky_factor, cholesky_solve, Cholesky};
pub use flops::{flop_count, reset_flops, FlopGuard};
pub use fp32::{
    gemm_packed_f32, matmul_f32, matmul_tn_f32, pack_f64_to_f32, pivoted_qr_f32,
    promote_f32_to_f64, MatrixF32, PivotedQrF32,
};
pub use gemm::{gemm, gemm_colwise, gemv, matmul, matmul_nt, matmul_tn, matmul_tn_colwise};
pub use kernel::{gemm_packed, matmul_batch, matmul_batch_shared_a, matmul_tn_batch_shared_a};
pub use lu::{lu_factor, lu_solve, lu_solve_mat, Lu};
pub use matrix::Matrix;
pub use norms::{fro_norm, max_abs, rel_fro_error, rel_l2_error, two_norm_est};
pub use pivoted_qr::{
    pivoted_qr, pivoted_qr_batch, pivoted_qr_stop, pivoted_qr_stop_batch,
    select_interpolation_rows, truncated_pivoted_qr, BasisSplit, PivotedQr, INTERP_COND_TOL,
};
pub use qr::{householder_qr, orthonormal_columns, Qr};
pub use svd::{jacobi_svd, Svd};
pub use triangular::{
    solve_lower_left, solve_lower_right, solve_unit_lower_left, solve_unit_lower_right,
    solve_upper_left, solve_upper_right,
};

/// Convenience result alias used throughout the workspace for fallible dense kernels.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the dense kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Matrix dimensions do not conform for the requested operation.
    DimensionMismatch {
        /// Description of the operation that failed.
        op: &'static str,
        /// Dimensions of the left/first operand.
        lhs: (usize, usize),
        /// Dimensions of the right/second operand.
        rhs: (usize, usize),
    },
    /// A pivot smaller than the breakdown threshold was encountered.
    SingularMatrix {
        /// Index of the offending pivot.
        pivot: usize,
        /// Magnitude of the offending pivot.
        value: f64,
    },
    /// The matrix is not positive definite (Cholesky only).
    NotPositiveDefinite {
        /// Index of the offending diagonal entry.
        index: usize,
        /// Value of the offending diagonal entry.
        value: f64,
    },
    /// An iterative kernel failed to converge.
    NoConvergence {
        /// Description of the kernel.
        op: &'static str,
        /// Number of sweeps/iterations performed.
        iterations: usize,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            Error::SingularMatrix { pivot, value } => {
                write!(
                    f,
                    "singular matrix: pivot {pivot} has magnitude {value:.3e}"
                )
            }
            Error::NotPositiveDefinite { index, value } => write!(
                f,
                "matrix not positive definite: diagonal {index} would be {value:.3e}"
            ),
            Error::NoConvergence { op, iterations } => {
                write!(f, "{op} did not converge after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for the public solver entry points (build / factor / solve).
pub type SolverResult<T> = std::result::Result<T, SolverError>;

/// The failure taxonomy of the structured-solver stack.
///
/// Every public fallible path — `H2Matrix::build`, `UlvFactorization::factor`,
/// `solve`/`solve_refined`/`solve_to_tolerance` and the dense LU/QR/Cholesky
/// entry points — reports breakdowns through this enum instead of panicking.
/// The enum lives in `h2_matrix` because it is the one crate every layer of
/// the workspace already depends on; see BENCHMARKS.md for what each variant
/// means for a caller.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// An input slice or matrix has the wrong length/shape for the operation.
    ShapeMismatch {
        /// The operation that was attempted.
        op: &'static str,
        /// The size the operation required.
        expected: usize,
        /// The size it was given.
        got: usize,
    },
    /// The input data (points, kernel values, assembled blocks) contains NaN
    /// or infinite values the solver cannot represent.
    NonFiniteInput {
        /// Where the non-finite data was detected.
        context: String,
    },
    /// A redundant diagonal block was singular during elimination and the
    /// shift repair could not rescue it.
    SingularPivot {
        /// Block row/column index of the offending cluster at its level.
        cluster: usize,
        /// Tree level (leaves = depth, root = 0) where elimination broke down.
        level: usize,
    },
    /// Every rung of the compression recovery ladder (SRFT-f32 → SRFT-f64 →
    /// Gaussian → direct QR) produced a non-finite basis for this cluster.
    CompressionBreakdown {
        /// Block row/column index of the offending cluster at its level.
        cluster: usize,
        /// Tree level where compression broke down.
        level: usize,
    },
    /// A worker task panicked; the run was cancelled and the pool survives.
    TaskPanicked {
        /// Description of the panicked task and its payload.
        what: String,
    },
    /// An internal invariant of the solver was violated (a task-graph slot
    /// that every schedule must fill was empty, a merged block vanished, …).
    /// This is a bug in the solver, not in the caller's input — but it is
    /// reported as a typed error instead of a panic so long-lived processes
    /// (the solve server) survive it.
    Internal {
        /// Which invariant was violated.
        what: String,
    },
    /// The solve server's submission queue is full; the request was rejected
    /// before it entered the queue.  Callers should retry with backoff or
    /// shed load — the server itself keeps draining.
    Overloaded {
        /// Requests already queued when this one was rejected.
        queued: usize,
        /// The configured queue bound.
        limit: usize,
    },
    /// The solve's sampled residual still missed the requested tolerance
    /// after the refinement ladder was exhausted.
    ToleranceNotMet {
        /// The tolerance the caller asked for.
        requested: f64,
        /// The sampled relative residual actually achieved.
        achieved: f64,
        /// Refinement steps performed by the final attempt.
        refine_steps: usize,
    },
    /// A dense kernel (LU/QR/Cholesky/SVD) failed; carries the dense error.
    Numeric(Error),
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::ShapeMismatch { op, expected, got } => {
                write!(f, "{op}: expected size {expected}, got {got}")
            }
            SolverError::NonFiniteInput { context } => {
                write!(f, "non-finite input: {context}")
            }
            SolverError::SingularPivot { cluster, level } => write!(
                f,
                "singular pivot: redundant diagonal block of cluster {cluster} at level {level} \
                 is singular and could not be repaired"
            ),
            SolverError::CompressionBreakdown { cluster, level } => write!(
                f,
                "compression breakdown: every recovery rung failed for cluster {cluster} \
                 at level {level}"
            ),
            SolverError::TaskPanicked { what } => write!(f, "task panicked: {what}"),
            SolverError::Internal { what } => {
                write!(f, "internal solver invariant violated: {what}")
            }
            SolverError::Overloaded { queued, limit } => write!(
                f,
                "server overloaded: {queued} requests queued (limit {limit}); retry with backoff"
            ),
            SolverError::ToleranceNotMet {
                requested,
                achieved,
                refine_steps,
            } => write!(
                f,
                "tolerance not met: sampled residual {achieved:.3e} > requested {requested:.3e} \
                 after {refine_steps} refinement steps"
            ),
            SolverError::Numeric(e) => write!(f, "dense kernel failed: {e}"),
        }
    }
}

impl std::error::Error for SolverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolverError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<Error> for SolverError {
    fn from(e: Error) -> Self {
        SolverError::Numeric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = Error::DimensionMismatch {
            op: "gemm",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let s = format!("{e}");
        assert!(s.contains("gemm"));
        assert!(s.contains("2x3"));
        let e = Error::SingularMatrix {
            pivot: 3,
            value: 0.0,
        };
        assert!(format!("{e}").contains("pivot 3"));
        let e = Error::NotPositiveDefinite {
            index: 1,
            value: -1.0,
        };
        assert!(format!("{e}").contains("positive definite"));
        let e = Error::NoConvergence {
            op: "jacobi_svd",
            iterations: 30,
        };
        assert!(format!("{e}").contains("converge"));
    }
}
