//! Level-2/3 matrix multiplication kernels.
//!
//! `gemm` is the workhorse of every factorization in the workspace.  Large
//! products route through the packed register-blocked microkernel in
//! [`crate::kernel`] (MC/KC/NC cache blocking, MR×NR register tiles, optional
//! column-band parallelism); small products stay on a simple cache-blocked
//! column-major loop whose packing-free form wins below the
//! [`crate::kernel::PACK_FLOP_THRESHOLD`] crossover.

use crate::flops::{add_flops, cost};
use crate::kernel;
use crate::matrix::Matrix;

/// Block size for the small-size cache-blocked kernel.
const BLOCK: usize = 64;

/// General matrix-matrix multiply: `C = alpha * op_a(A) * op_b(B) + beta * C`.
///
/// `trans_a` / `trans_b` select whether `A` / `B` are used transposed.
///
/// # Panics
/// Panics if the dimensions do not conform.
pub fn gemm(
    alpha: f64,
    a: &Matrix,
    trans_a: bool,
    b: &Matrix,
    trans_b: bool,
    beta: f64,
    c: &mut Matrix,
) {
    let (m, ka) = if trans_a {
        (a.cols(), a.rows())
    } else {
        (a.rows(), a.cols())
    };
    let (kb, n) = if trans_b {
        (b.cols(), b.rows())
    } else {
        (b.rows(), b.cols())
    };
    assert_eq!(ka, kb, "gemm: inner dimensions differ ({ka} vs {kb})");
    assert_eq!(
        c.shape(),
        (m, n),
        "gemm: C has shape {:?}, expected {:?}",
        c.shape(),
        (m, n)
    );
    let k = ka;
    add_flops(cost::gemm(m, n, k));

    if beta != 1.0 {
        if beta == 0.0 {
            c.as_mut_slice().fill(0.0);
        } else {
            c.scale_mut(beta);
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    // Normalise to the "no-transpose" inner kernel by materialising transposed inputs.
    // For the block sizes used by the solver (<= a few thousand) the copy cost is
    // dwarfed by the O(mnk) multiply and keeps the hot loop contiguous.
    let at;
    let a_ref = if trans_a {
        at = a.transpose();
        &at
    } else {
        a
    };
    let bt;
    let b_ref = if trans_b {
        bt = b.transpose();
        &bt
    } else {
        b
    };

    let flops = 2 * (m as u64) * (n as u64) * (k as u64);
    if flops >= kernel::PACK_FLOP_THRESHOLD {
        kernel::gemm_packed(alpha, a_ref, b_ref, c);
    } else {
        gemm_nn(alpha, a_ref, b_ref, c);
    }
}

/// `C += alpha * A * B` with everything column-major and untransposed.
fn gemm_nn(alpha: f64, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    for jj in (0..n).step_by(BLOCK) {
        let jend = (jj + BLOCK).min(n);
        for pp in (0..k).step_by(BLOCK) {
            let pend = (pp + BLOCK).min(k);
            for j in jj..jend {
                let bcol = b.col(j);
                let ccol = c.col_mut(j);
                for p in pp..pend {
                    let bv = alpha * bcol[p];
                    if bv == 0.0 {
                        continue;
                    }
                    let acol = a.col(p);
                    // i-innermost: contiguous in both A's column and C's column.
                    for i in 0..m {
                        ccol[i] += bv * acol[i];
                    }
                }
            }
        }
    }
}

/// Width-stable GEMM: `C = alpha * A * B + beta * C` through the simple
/// cache-blocked column-major loop regardless of problem size.
///
/// Contract (relied on by the solver's multi-RHS panel path): column `j` of
/// `C` is produced by exactly the same sequence of floating-point operations
/// as a width-1 call on column `j` of `B` alone — the blocking runs over rows
/// and the inner dimension only, never over the panel width, and no kernel
/// switch depends on `B.cols()`.  [`gemm`] cannot promise this: its packed
/// crossover is a function of total flops, hence of the width.  Each column
/// also matches [`gemv`] (no-transpose) bitwise — both accumulate
/// `c += (alpha * b[p]) * a_col[p]` with `p` ascending, skipping zero
/// multipliers, `i` ascending.
pub fn gemm_colwise(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "gemm_colwise: inner dimensions differ");
    assert_eq!(
        c.shape(),
        (a.rows(), b.cols()),
        "gemm_colwise: C has shape {:?}, expected {:?}",
        c.shape(),
        (a.rows(), b.cols())
    );
    add_flops(cost::gemm(a.rows(), b.cols(), a.cols()));
    if beta != 1.0 {
        if beta == 0.0 {
            c.as_mut_slice().fill(0.0);
        } else {
            c.scale_mut(beta);
        }
    }
    if alpha == 0.0 || c.rows() == 0 || c.cols() == 0 || a.cols() == 0 {
        return;
    }
    gemm_colwise_tiled(alpha, a, b, c);
}

/// Rows per accumulator block of the width-stable tiled kernel.
const CW_ITILE: usize = 64;
/// Panel columns per pass of the width-stable tiled kernel.
const CW_JTILE: usize = 8;

/// The inner kernel of [`gemm_colwise`]: row/column tiled so each loaded
/// A-column chunk serves up to [`CW_JTILE`] panel columns and each C chunk is
/// read and written once — this is where the multi-RHS panel solve's memory
/// amortization comes from.  Bitwise identical per column to the naive
/// [`gemm_nn`] loop at every width: the accumulator for `c[i, j]` is seeded
/// from `c`, terms are added in ascending `p` with the same `(alpha * b[p]) *
/// a[i, p]` expression, and zero multipliers are skipped — only the
/// interleaving across columns differs, which floating point cannot observe.
fn gemm_colwise_tiled(alpha: f64, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    let mut acc = [[0.0f64; CW_ITILE]; CW_JTILE];
    for jj in (0..n).step_by(CW_JTILE) {
        let jend = (jj + CW_JTILE).min(n);
        for ii in (0..m).step_by(CW_ITILE) {
            let iend = (ii + CW_ITILE).min(m);
            let ilen = iend - ii;
            for j in jj..jend {
                acc[j - jj][..ilen].copy_from_slice(&c.col(j)[ii..iend]);
            }
            for p in 0..k {
                let achunk = &a.col(p)[ii..iend];
                for j in jj..jend {
                    let bv = alpha * b.col(j)[p];
                    if bv == 0.0 {
                        continue;
                    }
                    let accj = &mut acc[j - jj][..ilen];
                    for (ai, av) in accj.iter_mut().zip(achunk) {
                        *ai += bv * av;
                    }
                }
            }
            for j in jj..jend {
                c.col_mut(j)[ii..iend].copy_from_slice(&acc[j - jj][..ilen]);
            }
        }
    }
}

/// Width-stable `A^T * B`: entry `(i, j)` is `dot(A.col(i), B.col(j))`, so
/// every entry depends only on its own column pair — column `j` of the result
/// is bitwise identical to [`gemv`] (transpose) applied to column `j` of `B`
/// at any panel width.  No transpose is materialised.
pub fn matmul_tn_colwise(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn_colwise: row dimensions differ"
    );
    // Flops are accounted by the inner `dot` calls.  Loop order: `i` outer so
    // each (large) A column streams exactly once while the (small) B panel
    // stays cache-resident — entries are independent dots, so the order does
    // not affect the result.
    let mut c = Matrix::zeros(a.cols(), b.cols());
    for i in 0..a.cols() {
        let acol = a.col(i);
        for j in 0..b.cols() {
            c[(i, j)] = crate::blas1::dot(acol, b.col(j));
        }
    }
    c
}

/// Convenience: `A * B`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(1.0, a, false, b, false, 0.0, &mut c);
    c
}

/// Convenience: `A^T * B`.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.cols(), b.cols());
    gemm(1.0, a, true, b, false, 0.0, &mut c);
    c
}

/// Convenience: `A * B^T`.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.rows());
    gemm(1.0, a, false, b, true, 0.0, &mut c);
    c
}

/// Matrix-vector product `y = alpha * op(A) * x + beta * y`.
pub fn gemv(alpha: f64, a: &Matrix, trans: bool, x: &[f64], beta: f64, y: &mut [f64]) {
    let (m, n) = if trans {
        (a.cols(), a.rows())
    } else {
        (a.rows(), a.cols())
    };
    assert_eq!(x.len(), n, "gemv: x length mismatch");
    assert_eq!(y.len(), m, "gemv: y length mismatch");
    add_flops(cost::gemv(m, n));
    if beta == 0.0 {
        y.fill(0.0);
    } else if beta != 1.0 {
        for v in y.iter_mut() {
            *v *= beta;
        }
    }
    if trans {
        // y_j = alpha * sum_i A(i,j) x_i  -> dot of columns
        for (j, yj) in y.iter_mut().enumerate() {
            *yj += alpha * crate::blas1::dot(a.col(j), x);
        }
    } else {
        for (j, &xj) in x.iter().enumerate() {
            let av = alpha * xj;
            if av == 0.0 {
                continue;
            }
            let col = a.col(j);
            for (yi, &aij) in y.iter_mut().zip(col) {
                *yi += av * aij;
            }
        }
    }
}

/// Naive triple-loop reference multiply, used by tests to validate the blocked kernel.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for p in 0..a.cols() {
                acc += a.get(i, p) * b.get(p, j);
            }
            c.set(i, j, acc);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn matmul_matches_naive() {
        let mut r = rng();
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 4, 5),
            (17, 9, 23),
            (64, 65, 66),
            (70, 128, 3),
        ] {
            let a = Matrix::random(m, k, &mut r);
            let b = Matrix::random(k, n, &mut r);
            let c = matmul(&a, &b);
            let cref = matmul_naive(&a, &b);
            assert!(c.max_abs_diff(&cref) < 1e-10, "mismatch for {m}x{k}x{n}");
        }
    }

    #[test]
    fn transposed_variants() {
        let mut r = rng();
        let a = Matrix::random(7, 5, &mut r);
        let b = Matrix::random(7, 6, &mut r);
        let c = matmul_tn(&a, &b);
        let cref = matmul_naive(&a.transpose(), &b);
        assert!(c.max_abs_diff(&cref) < 1e-11);

        let a2 = Matrix::random(4, 9, &mut r);
        let b2 = Matrix::random(6, 9, &mut r);
        let c2 = matmul_nt(&a2, &b2);
        let cref2 = matmul_naive(&a2, &b2.transpose());
        assert!(c2.max_abs_diff(&cref2) < 1e-11);
    }

    #[test]
    fn gemm_alpha_beta() {
        let mut r = rng();
        let a = Matrix::random(5, 4, &mut r);
        let b = Matrix::random(4, 3, &mut r);
        let c0 = Matrix::random(5, 3, &mut r);
        let mut c = c0.clone();
        gemm(2.0, &a, false, &b, false, 0.5, &mut c);
        let expect = &matmul_naive(&a, &b).scaled(2.0) + &c0.scaled(0.5);
        assert!(c.max_abs_diff(&expect) < 1e-11);
    }

    #[test]
    fn gemm_zero_dims_are_noops() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        let mut c = Matrix::zeros(0, 2);
        gemm(1.0, &a, false, &b, false, 0.0, &mut c);
        assert!(c.is_empty());
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 2);
        let mut c = Matrix::filled(2, 2, 5.0);
        gemm(1.0, &a, false, &b, false, 0.0, &mut c);
        assert_eq!(c, Matrix::zeros(2, 2));
    }

    #[test]
    fn gemv_both_orientations() {
        let mut r = rng();
        let a = Matrix::random(6, 4, &mut r);
        let x: Vec<f64> = (0..4).map(|_| r.gen_range(-1.0..1.0)).collect();
        let mut y = vec![0.0; 6];
        gemv(1.0, &a, false, &x, 0.0, &mut y);
        let yref = matmul(&a, &Matrix::from_columns(std::slice::from_ref(&x)));
        for i in 0..6 {
            assert!((y[i] - yref[(i, 0)]).abs() < 1e-12);
        }
        let xt: Vec<f64> = (0..6).map(|_| r.gen_range(-1.0..1.0)).collect();
        let mut yt = vec![1.0; 4];
        gemv(2.0, &a, true, &xt, 3.0, &mut yt);
        let ytref = matmul_tn(&a, &Matrix::from_columns(std::slice::from_ref(&xt)));
        for i in 0..4 {
            assert!((yt[i] - (2.0 * ytref[(i, 0)] + 3.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn colwise_kernels_are_width_stable() {
        // Each column of a wide product must be bit-for-bit the column produced
        // by the width-1 call — this is the contract the multi-RHS solve leans on.
        let mut r = rng();
        for &(m, k, w) in &[(3usize, 4usize, 1usize), (65, 33, 7), (130, 100, 16)] {
            let a = Matrix::random(m, k, &mut r);
            let b = Matrix::random(k, w, &mut r);
            let mut c = Matrix::zeros(m, w);
            gemm_colwise(1.0, &a, &b, 0.0, &mut c);
            let ct = matmul_tn_colwise(&a.transpose(), &b);
            assert!(c.max_abs_diff(&matmul_naive(&a, &b)) < 1e-10);
            assert!(ct.max_abs_diff(&matmul_naive(&a, &b)) < 1e-10);
            for j in 0..w {
                let bj = Matrix::from_columns(&[b.col_vec(j)]);
                let mut c1 = Matrix::zeros(m, 1);
                gemm_colwise(1.0, &a, &bj, 0.0, &mut c1);
                assert_eq!(c.col(j), c1.col(0), "gemm_colwise col {j} of {m}x{k}x{w}");
                let ct1 = matmul_tn_colwise(&a.transpose(), &bj);
                assert_eq!(ct.col(j), ct1.col(0), "tn_colwise col {j}");
                // And both match the gemv family on the same column.
                let mut y = vec![0.0; m];
                gemv(1.0, &a, false, b.col(j), 0.0, &mut y);
                assert_eq!(c.col(j), &y[..], "gemv/no-trans parity col {j}");
                let mut yt = vec![0.0; m];
                gemv(1.0, &a.transpose(), true, b.col(j), 0.0, &mut yt);
                assert_eq!(ct.col(j), &yt[..], "gemv/trans parity col {j}");
            }
        }
    }

    #[test]
    fn operator_mul_uses_gemm() {
        let a = Matrix::identity(4);
        let mut r = rng();
        let b = Matrix::random(4, 4, &mut r);
        assert!((&a * &b).max_abs_diff(&b) < 1e-15);
    }

    #[test]
    #[should_panic]
    fn mismatched_inner_dims_panic() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }
}
