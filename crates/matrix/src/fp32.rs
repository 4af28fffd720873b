//! Single-precision (f32) dense path for the sketching pipeline.
//!
//! The randomized compression sketch only has to *capture the numerical range*
//! of a cluster block — at the construction tolerances this solver runs
//! (1e-4..1e-8 relative), a 1e-7-level perturbation of the sketch perturbs the
//! captured subspace far below the truncation error, so the sketch can run in
//! f32 at twice the SIMD width and half the memory traffic of the f64 kernels
//! while the factors' numerical core stays f64.  This module provides the f32
//! substrate: a column-major [`MatrixF32`], a packed GEMM with the same
//! BLIS-style blocking as the f64 microkernel ([`crate::kernel`]) but a
//! 32-lane register tile, a column-pivoted QR (same LAPACK `dlaqps` delayed
//! update scheme as [`crate::pivoted_qr()`]), and f64↔f32 conversion helpers.
//!
//! Everything here is serial and allocation-order deterministic: the sketching
//! call sites are DAG tasks that are themselves scheduled in parallel, and the
//! construction's cross-thread bitwise reproducibility must hold in f32 too.

use crate::flops::{add_flops, cost};
use crate::matrix::Matrix;

/// Microkernel rows for f32: twice the f64 [`crate::kernel::MR`] — same number
/// of vector registers per column at half the element width.
pub const MR32: usize = 32;
/// Microkernel columns (register block width), matching the f64 kernel.
pub const NR32: usize = 6;
/// Rows of A packed per macro-panel.
const MC32: usize = 256;
/// Depth per macro-panel.
const KC32: usize = 512;
/// Columns of B per macro-panel.
const NC32: usize = 2040;
/// Below this flop count the simple triple loop wins (packing overhead).
const PACK_FLOP_THRESHOLD32: u64 = 2 * 96 * 96 * 96;

/// Column-major single-precision matrix (the f32 twin of [`Matrix`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixF32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl MatrixF32 {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        MatrixF32 {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a function of (row, col), filled in column-major order.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = MatrixF32::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m.data[j * rows + i] = f(i, j);
            }
        }
        m
    }

    /// Demote an f64 matrix to f32 (round to nearest).
    pub fn from_f64(a: &Matrix) -> Self {
        MatrixF32 {
            rows: a.rows(),
            cols: a.cols(),
            data: a.as_slice().iter().map(|&v| v as f32).collect(),
        }
    }

    /// Promote back to f64 (exact).
    pub fn to_f64(&self) -> Matrix {
        Matrix::from_col_major(
            self.rows,
            self.cols,
            self.data.iter().map(|&v| v as f64).collect(),
        )
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i] = v;
    }

    /// Column `j` as a contiguous slice.
    pub fn col(&self, j: usize) -> &[f32] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Column `j` as a mutable slice.
    pub fn col_mut(&mut self, j: usize) -> &mut [f32] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Full column-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Full column-major storage, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Swap two columns in place.
    pub fn swap_cols(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * self.rows);
        head[lo * self.rows..(lo + 1) * self.rows].swap_with_slice(&mut tail[..self.rows]);
    }

    /// Copy of the sub-block at (`i0`, `j0`) of shape `r x c`.
    pub fn block(&self, i0: usize, j0: usize, r: usize, c: usize) -> MatrixF32 {
        debug_assert!(i0 + r <= self.rows && j0 + c <= self.cols);
        let mut out = MatrixF32::zeros(r, c);
        for j in 0..c {
            let src = &self.col(j0 + j)[i0..i0 + r];
            out.col_mut(j).copy_from_slice(src);
        }
        out
    }

    /// Write `blk` into the sub-block at (`i0`, `j0`).
    pub fn set_block(&mut self, i0: usize, j0: usize, blk: &MatrixF32) {
        debug_assert!(i0 + blk.rows <= self.rows && j0 + blk.cols <= self.cols);
        for j in 0..blk.cols {
            let src = blk.col(j);
            self.col_mut(j0 + j)[i0..i0 + blk.rows].copy_from_slice(src);
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> MatrixF32 {
        let mut out = MatrixF32::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            let col = self.col(j);
            for (i, &v) in col.iter().enumerate() {
                out.data[i * self.cols + j] = v;
            }
        }
        out
    }

    /// Largest absolute entry difference to `other` (testing helper).
    pub fn max_abs_diff(&self, other: &MatrixF32) -> f32 {
        debug_assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// Demote (convert + pack) an f64 block into an existing f32 buffer column by
/// column — the fill half of the f64↔f32 conversion pair, exposed so sketching
/// codes can reuse one buffer across many blocks.
pub fn pack_f64_to_f32(a: &Matrix, out: &mut MatrixF32) {
    debug_assert_eq!(a.shape(), out.shape());
    for (dst, src) in out.data.iter_mut().zip(a.as_slice()) {
        *dst = *src as f32;
    }
}

/// Promote an f32 product back into a (possibly scaled) f64 matrix:
/// `out[i,j] = scale * a[i,j]`.
pub fn promote_f32_to_f64(a: &MatrixF32, scale: f64) -> Matrix {
    Matrix::from_col_major(
        a.rows,
        a.cols,
        a.data.iter().map(|&v| scale * v as f64).collect(),
    )
}

// ---------------------------------------------------------------------------
// Packed GEMM
// ---------------------------------------------------------------------------

struct PackBuffers32 {
    apack: Vec<f32>,
    bpack: Vec<f32>,
    ctile: [f32; MR32 * NR32],
}

impl PackBuffers32 {
    fn new() -> Self {
        PackBuffers32 {
            apack: vec![0.0f32; MC32.div_ceil(MR32) * MR32 * KC32],
            bpack: vec![0.0f32; KC32 * NC32.div_ceil(NR32) * NR32],
            ctile: [0.0f32; MR32 * NR32],
        }
    }
}

thread_local! {
    static PACK_SCRATCH32: std::cell::RefCell<PackBuffers32> =
        std::cell::RefCell::new(PackBuffers32::new());
}

/// `C += alpha * A * B` in f32, serial, packed above the flop threshold.
///
/// Same cache blocking as the f64 [`crate::kernel::gemm_packed`] with a
/// [`MR32`]×[`NR32`] register tile: plain safe Rust over fixed-size chunks so
/// LLVM auto-vectorizes the inner loop at twice the f64 lane count.
pub fn gemm_packed_f32(alpha: f32, a: &MatrixF32, b: &MatrixF32, c: &mut MatrixF32) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    debug_assert_eq!(b.rows(), k);
    debug_assert_eq!(c.shape(), (m, n));
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    add_flops(cost::gemm(m, n, k));
    let flops = 2 * (m as u64) * (n as u64) * (k as u64);
    if flops < PACK_FLOP_THRESHOLD32 {
        gemm_naive_f32(alpha, a, b, c);
        return;
    }
    let ldc = m;
    PACK_SCRATCH32.with(|scratch| {
        let mut buf = scratch.borrow_mut();
        let PackBuffers32 {
            apack,
            bpack,
            ctile,
        } = &mut *buf;
        let cband = c.as_mut_slice();
        for jc in (0..n).step_by(NC32) {
            let nc = (n - jc).min(NC32);
            for pc in (0..k).step_by(KC32) {
                let kc = (k - pc).min(KC32);
                pack_b_f32(b, pc, kc, jc, nc, bpack);
                for ic in (0..m).step_by(MC32) {
                    let mc = (m - ic).min(MC32);
                    pack_a_f32(a, ic, mc, pc, kc, apack);
                    for jr in (0..nc).step_by(NR32) {
                        let nr = (nc - jr).min(NR32);
                        let bpanel = &bpack[jr / NR32 * (KC32 * NR32)..][..kc * NR32];
                        for ir in (0..mc).step_by(MR32) {
                            let mr = (mc - ir).min(MR32);
                            let apanel = &apack[ir / MR32 * (MR32 * KC32)..][..kc * MR32];
                            let coff = (jc + jr) * ldc + ic + ir;
                            microkernel_f32(
                                kc,
                                apanel,
                                bpanel,
                                alpha,
                                &mut cband[coff..],
                                ldc,
                                mr,
                                nr,
                                ctile,
                            );
                        }
                    }
                }
            }
        }
    });
}

/// Blocked triple loop for small products (f32).
fn gemm_naive_f32(alpha: f32, a: &MatrixF32, b: &MatrixF32, c: &mut MatrixF32) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    for j in 0..n {
        let bcol = b.col(j);
        let ccol = c.col_mut(j);
        for (l, &blj) in bcol.iter().enumerate().take(k) {
            let s = alpha * blj;
            if s == 0.0 {
                continue;
            }
            let acol = a.col(l);
            for i in 0..m {
                ccol[i] = acol[i].mul_add(s, ccol[i]);
            }
        }
    }
}

/// `A * B` in f32.
pub fn matmul_f32(a: &MatrixF32, b: &MatrixF32) -> MatrixF32 {
    let mut c = MatrixF32::zeros(a.rows(), b.cols());
    gemm_packed_f32(1.0, a, b, &mut c);
    c
}

/// `Aᵀ * B` in f32 (materializes the transpose; panels here are small).
pub fn matmul_tn_f32(a: &MatrixF32, b: &MatrixF32) -> MatrixF32 {
    matmul_f32(&a.transpose(), b)
}

fn pack_a_f32(a: &MatrixF32, ic: usize, mc: usize, pc: usize, kc: usize, apack: &mut [f32]) {
    for p in 0..mc.div_ceil(MR32) {
        let i0 = ic + p * MR32;
        let rows = (a.rows() - i0).min(MR32).min(mc - p * MR32);
        let dst = &mut apack[p * MR32 * KC32..][..kc * MR32];
        for (kk, chunk) in dst.chunks_exact_mut(MR32).enumerate() {
            let col = a.col(pc + kk);
            chunk[..rows].copy_from_slice(&col[i0..i0 + rows]);
            chunk[rows..].fill(0.0);
        }
    }
}

fn pack_b_f32(b: &MatrixF32, pc: usize, kc: usize, jb0: usize, nc: usize, bpack: &mut [f32]) {
    for q in 0..nc.div_ceil(NR32) {
        let j0 = jb0 + q * NR32;
        let cols = (nc - q * NR32).min(NR32);
        let dst = &mut bpack[q * KC32 * NR32..][..kc * NR32];
        dst.fill(0.0);
        for j in 0..cols {
            let col = b.col(j0 + j);
            for kk in 0..kc {
                dst[kk * NR32 + j] = col[pc + kk];
            }
        }
    }
}

/// MR32×NR32 register tile (full and edge cases share the scratch-tile path).
///
/// `inline(never)` is load-bearing: inlined into the packed-loop nest, LLVM
/// fails to vectorize the f32 k-loop and emits scalar `vfmadd*ss` (~7 GF/s);
/// as a standalone function the same loop compiles to full-width packed FMAs
/// (~90+ GF/s). The call overhead is noise next to kc·MR32·NR32 flops.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn microkernel_f32(
    kc: usize,
    apanel: &[f32],
    bpanel: &[f32],
    alpha: f32,
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
    ctile: &mut [f32; MR32 * NR32],
) {
    let mut acc = [[0.0f32; MR32]; NR32];
    for (av, bv) in apanel[..kc * MR32]
        .chunks_exact(MR32)
        .zip(bpanel[..kc * NR32].chunks_exact(NR32))
    {
        for (accj, &bj) in acc.iter_mut().zip(bv) {
            for (a, &ai) in accj.iter_mut().zip(av) {
                *a = ai.mul_add(bj, *a);
            }
        }
    }
    if mr == MR32 && nr == NR32 {
        for (j, accj) in acc.iter().enumerate() {
            let cc = &mut c[j * ldc..j * ldc + MR32];
            for (ci, &v) in cc.iter_mut().zip(accj) {
                *ci = alpha.mul_add(v, *ci);
            }
        }
    } else {
        for (j, accj) in acc.iter().enumerate() {
            ctile[j * MR32..(j + 1) * MR32].copy_from_slice(accj);
        }
        for j in 0..nr {
            let cc = &mut c[j * ldc..j * ldc + mr];
            for (i, ci) in cc.iter_mut().enumerate() {
                *ci = alpha.mul_add(ctile[j * MR32 + i], *ci);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Column-pivoted QR (f32)
// ---------------------------------------------------------------------------

/// Panel width of the blocked f32 factorization.
const QR_BLOCK32: usize = 32;

/// Result of an f32 column-pivoted QR `A P = Q R`.
#[derive(Debug, Clone)]
pub struct PivotedQrF32 {
    /// Packed Householder/R storage.
    pub qr: MatrixF32,
    /// Householder coefficients.
    pub tau: Vec<f32>,
    /// Column permutation.
    pub perm: Vec<usize>,
    /// |R diagonal| in elimination order.
    pub rdiag: Vec<f32>,
}

fn make_reflector_f32(qr: &mut MatrixF32, k: usize) -> (f32, f32) {
    let m = qr.rows();
    let mut normx = 0.0f32;
    for i in k..m {
        let x = qr.get(i, k);
        normx += x * x;
    }
    normx = normx.sqrt();
    if normx == 0.0 {
        return (0.0, 0.0);
    }
    let alpha = qr.get(k, k);
    let beta = if alpha >= 0.0 { -normx } else { normx };
    let tau = (beta - alpha) / beta;
    let scale = alpha - beta;
    qr.set(k, k, beta);
    for i in k + 1..m {
        let v = qr.get(i, k) / scale;
        qr.set(i, k, v);
    }
    (tau, normx)
}

/// Column-pivoted Householder QR of an f32 matrix, LAPACK `dlaqps`-style:
/// delayed panel updates accumulated in `F = Aᵀ V diag(τ)`, one level-3 GEMM
/// per panel, with the `tol3z` norm-downdate safeguard (at f32 epsilon).
pub fn pivoted_qr_f32(a: &MatrixF32) -> PivotedQrF32 {
    let m = a.rows();
    let n = a.cols();
    add_flops(cost::geqrf(m.max(n), m.min(n)));
    let tol3z = f32::EPSILON.sqrt();
    let mut qr = a.clone();
    let kmax = m.min(n);
    let mut tau = vec![0.0f32; kmax];
    let mut perm: Vec<usize> = (0..n).collect();
    let mut rdiag = vec![0.0f32; kmax];
    let mut vn1: Vec<f32> = (0..n)
        .map(|j| qr.col(j).iter().map(|v| v * v).sum::<f32>().sqrt())
        .collect();
    let mut vn2 = vn1.clone();

    let mut k = 0;
    while k < kmax {
        let jbmax = QR_BLOCK32.min(kmax - k);
        let mut f = MatrixF32::zeros(n - k, jbmax);
        let mut jb = 0;
        let mut norms_stale = false;
        while jb < jbmax {
            let kj = k + jb;
            let mut p = kj;
            let mut best = vn1[kj];
            for c in kj + 1..n {
                if vn1[c] > best {
                    best = vn1[c];
                    p = c;
                }
            }
            if p != kj {
                qr.swap_cols(kj, p);
                perm.swap(kj, p);
                vn1.swap(kj, p);
                vn2.swap(kj, p);
                for l in 0..jbmax {
                    let t = f.get(kj - k, l);
                    f.set(kj - k, l, f.get(p - k, l));
                    f.set(p - k, l, t);
                }
            }
            if jb > 0 {
                for i in kj..m {
                    let mut acc = 0.0f32;
                    for l in 0..jb {
                        acc += qr.get(i, k + l) * f.get(kj - k, l);
                    }
                    let v = qr.get(i, kj) - acc;
                    qr.set(i, kj, v);
                }
            }
            let (tk, normx) = make_reflector_f32(&mut qr, kj);
            tau[kj] = tk;
            rdiag[kj] = normx;
            if tk != 0.0 {
                for c in kj + 1..n {
                    let mut acc = qr.get(kj, c);
                    for i in kj + 1..m {
                        acc += qr.get(i, c) * qr.get(i, kj);
                    }
                    f.set(c - k, jb, tk * acc);
                }
            }
            for c in k..=kj {
                f.set(c - k, jb, 0.0);
            }
            if tk != 0.0 && jb > 0 {
                let mut aux = vec![0.0f32; jb];
                for (l, av) in aux.iter_mut().enumerate() {
                    let mut acc = qr.get(kj, k + l);
                    for i in kj + 1..m {
                        acc += qr.get(i, k + l) * qr.get(i, kj);
                    }
                    *av = acc;
                }
                for c in 0..n - k {
                    let mut acc = 0.0f32;
                    for (l, &av) in aux.iter().enumerate() {
                        acc += f.get(c, l) * av;
                    }
                    let v = f.get(c, jb) - tk * acc;
                    f.set(c, jb, v);
                }
            }
            for c in kj + 1..n {
                let mut acc = f.get(c - k, jb);
                for l in 0..jb {
                    acc += qr.get(kj, k + l) * f.get(c - k, l);
                }
                let v = qr.get(kj, c) - acc;
                qr.set(kj, c, v);
            }
            jb += 1;
            let mut cancelled = false;
            for c in kj + 1..n {
                if vn1[c] == 0.0 {
                    continue;
                }
                let temp = (qr.get(kj, c).abs() / vn1[c]).min(1.0);
                let factor = ((1.0 + temp) * (1.0 - temp)).max(0.0);
                let ratio = vn1[c] / vn2[c];
                if factor * ratio * ratio <= tol3z {
                    cancelled = true;
                } else {
                    vn1[c] *= factor.sqrt();
                }
            }
            if cancelled {
                norms_stale = true;
                break;
            }
        }
        let knext = k + jb;
        if knext < n && knext < m && jb > 0 {
            let v = qr.block(knext, k, m - knext, jb);
            let ft = f.block(knext - k, 0, n - knext, jb).transpose();
            let mut trailing = qr.block(knext, knext, m - knext, n - knext);
            gemm_packed_f32(-1.0, &v, &ft, &mut trailing);
            qr.set_block(knext, knext, &trailing);
        }
        if norms_stale {
            for c in knext..n {
                let exact = if knext < m {
                    qr.col(c)[knext..m]
                        .iter()
                        .map(|v| v * v)
                        .sum::<f32>()
                        .sqrt()
                } else {
                    0.0
                };
                vn1[c] = exact;
                vn2[c] = exact;
            }
        }
        k = knext;
    }
    PivotedQrF32 {
        qr,
        tau,
        perm,
        rdiag,
    }
}

fn panel_v_f32(qr: &MatrixF32, k0: usize, jb: usize) -> MatrixF32 {
    let m = qr.rows();
    let mut v = MatrixF32::zeros(m - k0, jb);
    for j in 0..jb {
        v.set(j, j, 1.0);
        for i in k0 + j + 1..m {
            v.set(i - k0, j, qr.get(i, k0 + j));
        }
    }
    v
}

fn panel_t_f32(v: &MatrixF32, tau: &[f32]) -> MatrixF32 {
    let jb = v.cols();
    let s = matmul_tn_f32(v, v);
    let mut t = MatrixF32::zeros(jb, jb);
    for j in 0..jb {
        let tj = tau[j];
        t.set(j, j, tj);
        if tj == 0.0 {
            continue;
        }
        for i in 0..j {
            let mut acc = 0.0f32;
            for l in i..j {
                acc += t.get(i, l) * s.get(l, j);
            }
            t.set(i, j, -tj * acc);
        }
    }
    t
}

/// `C := (I - V T Vᵀ) C` (compact-WY application from the left).
fn apply_wy_f32(v: &MatrixF32, t: &MatrixF32, c: &mut MatrixF32) {
    if c.cols() == 0 || v.cols() == 0 {
        return;
    }
    let w = matmul_tn_f32(v, c);
    let w2 = matmul_f32(t, &w);
    gemm_packed_f32(-1.0, v, &w2, c);
}

impl PivotedQrF32 {
    /// Numerical rank at a relative tolerance on the R diagonal.
    pub fn rank(&self, tol: f32) -> usize {
        if self.rdiag.is_empty() || self.rdiag[0] == 0.0 {
            return 0;
        }
        let threshold = tol * self.rdiag[0];
        self.rdiag.iter().take_while(|&&d| d > threshold).count()
    }

    /// First `ncols` columns of the orthogonal factor, blocked compact-WY
    /// accumulation in reverse panel order with the same `dorgqr`-style column
    /// restriction as the f64 path ([`crate::qr::Qr::q_columns`]).
    pub fn q_columns(&self, ncols: usize) -> MatrixF32 {
        let m = self.qr.rows();
        let kmax = self.tau.len();
        assert!(ncols <= m, "q_columns: requested more columns than rows");
        let mut q = MatrixF32::zeros(m, ncols);
        for j in 0..ncols.min(m) {
            q.set(j, j, 1.0);
        }
        if kmax == 0 {
            return q;
        }
        let npanels = kmax.div_ceil(QR_BLOCK32);
        for p in (0..npanels).rev() {
            let k0 = p * QR_BLOCK32;
            if k0 >= ncols {
                continue;
            }
            let jb = QR_BLOCK32.min(kmax - k0);
            add_flops(2 * ((m - k0) as u64) * ((ncols - k0) as u64) * (jb as u64) * 2);
            let v = panel_v_f32(&self.qr, k0, jb);
            let t = panel_t_f32(&v, &self.tau[k0..k0 + jb]);
            let mut c = q.block(k0, k0, m - k0, ncols - k0);
            apply_wy_f32(&v, &t, &mut c);
            q.set_block(k0, k0, &c);
        }
        q
    }

    /// Full square orthogonal factor.
    pub fn q_full(&self) -> MatrixF32 {
        self.q_columns(self.qr.rows())
    }

    /// Upper-triangular factor `R` of the permuted matrix.
    pub fn r(&self) -> MatrixF32 {
        let m = self.qr.rows();
        let n = self.qr.cols();
        let k = m.min(n);
        let mut r = MatrixF32::zeros(k, n);
        for j in 0..n {
            for i in 0..k.min(j + 1) {
                r.set(i, j, self.qr.get(i, j));
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(321)
    }

    fn random_f32(m: usize, n: usize, r: &mut rand::rngs::StdRng) -> MatrixF32 {
        MatrixF32::from_f64(&Matrix::random(m, n, r))
    }

    #[test]
    fn gemm_f32_matches_f64_reference() {
        let mut r = rng();
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (7, 3, 5),
            (MR32, KC32 + 3, NR32),
            (MR32 + 1, 5, NR32 + 1),
            (130, 97, 61),
            (257, 129, 65),
        ] {
            let a64 = Matrix::random(m, k, &mut r);
            let b64 = Matrix::random(k, n, &mut r);
            let (a, b) = (MatrixF32::from_f64(&a64), MatrixF32::from_f64(&b64));
            let mut c = MatrixF32::zeros(m, n);
            gemm_packed_f32(1.0, &a, &b, &mut c);
            let cref = crate::gemm::matmul(&a64, &b64);
            let err = c.to_f64().max_abs_diff(&cref);
            let scale = (k as f64).sqrt();
            assert!(err < 1e-4 * scale, "f32 gemm mismatch {m}x{k}x{n}: {err}");
        }
    }

    #[test]
    fn gemm_f32_accumulates_with_alpha() {
        let mut r = rng();
        let a = random_f32(40, 30, &mut r);
        let b = random_f32(30, 20, &mut r);
        let c0 = random_f32(40, 20, &mut r);
        let mut c = c0.clone();
        gemm_packed_f32(-2.0, &a, &b, &mut c);
        let expect = {
            let ab = matmul_f32(&a, &b);
            let mut e = c0.clone();
            for (ev, &av) in e.as_mut_slice().iter_mut().zip(ab.as_slice()) {
                *ev -= 2.0 * av;
            }
            e
        };
        assert!(c.max_abs_diff(&expect) < 1e-3);
    }

    #[test]
    fn pivoted_qr_f32_reconstructs() {
        let mut r = rng();
        for &(m, n) in &[
            (10usize, 6usize),
            (40, 40),
            (2 * QR_BLOCK32 + 3, QR_BLOCK32 + 7),
        ] {
            let a = random_f32(m, n, &mut r);
            let f = pivoted_qr_f32(&a);
            let q = f.q_columns(m.min(n));
            let rr = f.r();
            let qr = matmul_f32(&q, &rr);
            // Undo the permutation and compare.
            let mut rec = MatrixF32::zeros(m, n);
            for (j, &pj) in f.perm.iter().enumerate() {
                let col = qr.col(j).to_vec();
                rec.col_mut(pj).copy_from_slice(&col);
            }
            assert!(rec.max_abs_diff(&a) < 1e-3, "{m}x{n}");
            for w in f.rdiag.windows(2) {
                assert!(w[0] >= w[1] - 1e-3, "rdiag must be non-increasing");
            }
        }
    }

    #[test]
    fn q_full_f32_is_orthogonal() {
        let mut r = rng();
        let a = random_f32(50, 20, &mut r);
        let f = pivoted_qr_f32(&a);
        let q = f.q_full();
        assert_eq!(q.shape(), (50, 50));
        let qtq = matmul_tn_f32(&q, &q);
        for i in 0..50 {
            for j in 0..50 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((qtq.get(i, j) - expect).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn rank_detection_f32_on_low_rank_input() {
        let mut r = rng();
        let a64 = {
            let u = Matrix::random(30, 5, &mut r);
            let v = Matrix::random(18, 5, &mut r);
            crate::gemm::matmul_nt(&u, &v)
        };
        let f = pivoted_qr_f32(&MatrixF32::from_f64(&a64));
        assert_eq!(f.rank(1e-5), 5);
    }

    #[test]
    fn convert_roundtrip_and_pack_helpers() {
        let mut r = rng();
        let a = Matrix::random(9, 7, &mut r);
        let a32 = MatrixF32::from_f64(&a);
        assert!(a32.to_f64().max_abs_diff(&a) < 1e-7);
        let mut buf = MatrixF32::zeros(9, 7);
        pack_f64_to_f32(&a, &mut buf);
        assert_eq!(buf, a32);
        let scaled = promote_f32_to_f64(&a32, 2.0);
        assert!(scaled.max_abs_diff(&a.scaled(2.0)) < 2e-7);
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let f = pivoted_qr_f32(&MatrixF32::zeros(0, 0));
        assert_eq!(f.q_full().shape(), (0, 0));
        let f = pivoted_qr_f32(&MatrixF32::zeros(5, 3));
        assert_eq!(f.rank(1e-6), 0);
        let q = f.q_full();
        assert_eq!(q.shape(), (5, 5));
        let c = matmul_f32(&MatrixF32::zeros(4, 0), &MatrixF32::zeros(0, 3));
        assert_eq!(c.shape(), (4, 3));
    }
}
