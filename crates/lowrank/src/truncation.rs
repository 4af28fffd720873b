//! Tolerance-driven compression of dense blocks.

use crate::lowrank::LowRank;
use h2_matrix::{matmul_tn, truncated_pivoted_qr, Matrix};

/// Compress a dense block to relative tolerance `tol` using column-pivoted QR.
/// The result satisfies `||A - U V^T||_F <~ tol * ||A||_F` with `U` orthonormal.
pub fn compress_block(a: &Matrix, tol: f64, max_rank: Option<usize>) -> LowRank {
    let split = truncated_pivoted_qr(a, tol, max_rank);
    if split.rank == 0 {
        return LowRank::zero(a.rows(), a.cols());
    }
    let u = split.skeleton;
    // V^T = U^T A  ->  V = A^T U.
    let v = matmul_tn(a, &u);
    LowRank::new(u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_matrix::{matmul_nt, rel_fro_error};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    fn exact_low_rank(m: usize, n: usize, r: usize) -> Matrix {
        let mut rr = rng();
        matmul_nt(
            &Matrix::random(m, r, &mut rr),
            &Matrix::random(n, r, &mut rr),
        )
    }

    #[test]
    fn exact_rank_is_recovered() {
        let a = exact_low_rank(30, 24, 5);
        let lr = compress_block(&a, 1e-10, None);
        assert_eq!(lr.rank(), 5);
        assert!(rel_fro_error(&lr.to_dense(), &a) < 1e-9);
    }

    #[test]
    fn tolerance_bounds_the_error() {
        // A kernel-like matrix with rapidly decaying singular values.
        let n = 40;
        let a = Matrix::from_fn(n, n, |i, j| {
            let d = (i as f64 - j as f64).abs() + 5.0;
            1.0 / (d * d)
        });
        for &tol in &[1e-2, 1e-4, 1e-6, 1e-8] {
            let lr = compress_block(&a, tol, None);
            let err = rel_fro_error(&lr.to_dense(), &a);
            // Pivoted QR's R-diagonal bound is not exactly the Frobenius error, allow
            // an order of magnitude of slack.
            assert!(err < tol * 20.0, "tol {tol}: err {err}");
        }
    }

    #[test]
    fn rank_cap_is_respected() {
        let a = exact_low_rank(20, 20, 8);
        let lr = compress_block(&a, 1e-14, Some(3));
        assert_eq!(lr.rank(), 3);
    }

    #[test]
    fn zero_and_empty_blocks() {
        let z = Matrix::zeros(6, 4);
        let lr = compress_block(&z, 1e-8, None);
        assert_eq!(lr.rank(), 0);
        let lr = compress_block(&Matrix::zeros(0, 4), 1e-8, None);
        assert_eq!(lr.rank(), 0);
    }
}
