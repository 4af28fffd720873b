//! Sketch-then-orthonormalize compression.
//!
//! The exact basis construction takes a column-pivoted QR of an entire far-field
//! panel `A` (`m x c`, `c >> m`): rank-revealing but memory-bound and slow (~4
//! GFLOP/s against ~50 for the packed GEMM).  The sketched path first compresses the
//! columns with a Gaussian test matrix — `B = A · Ω` with `Ω` of shape `c x s`,
//! `s = cap + oversample` — and takes the small pivoted QR of `B` instead.  Because
//! the detected rank can never exceed `cap` (the caller's `max_rank`/dimension cap),
//! a sketch of width `cap + oversample` resolves every rank the caller can accept,
//! and the dominant cost becomes one GEMM.  This is the randomized range finder of
//! Halko/Martinsson/Tropp applied to basis construction, in the spirit of the
//! sketch-based recursive skeletonization codes (Ho & Greengard, arXiv:1110.3105).
//!
//! The SRFT path goes one step further: instead of a dense Gaussian test matrix
//! (`2·m·n·s` flops of GEMM), it applies a *subsampled randomized
//! Hadamard-type transform* — random column signs, `log2(C)` rounds of in-place
//! butterfly mixing over the (zero-padded) columns, then a random column
//! subsample — at `O(m·n·log n)` additions, optionally in f32 (the sketch only
//! has to capture the numerical range, which survives single precision at the
//! solver's tolerances).  The resulting small `m x s` sketch is promoted to f64
//! before its pivoted QR so the orthonormal basis entering the factors keeps
//! full precision.
//!
//! Everything is deterministic in the seed: one fixed `StdRng` stream per call site
//! keeps factors bitwise reproducible at any thread count.

use h2_matrix::flops::add_flops;
use h2_matrix::{matmul, pivoted_qr, BasisSplit, Matrix, PivotedQr};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

/// Arithmetic precision of the structured-sketch mixing transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SketchPrecision {
    /// Mix in f32: double SIMD width, half memory traffic.  The small sketch is
    /// promoted to f64 before its pivoted QR, so factor storage stays f64.
    #[default]
    F32,
    /// Mix in f64 — reference path for A/B-ing the precision choice.
    F64,
}

impl SketchPrecision {
    /// Tightest compression tolerance the f32 mixing transform can resolve: the
    /// butterfly rounds accumulate a relative noise floor of roughly
    /// `log2(n) · f32::EPSILON` (~1e-6 at bench-scale panel widths), so rank
    /// detection below that tolerance would be reading rounding noise.
    pub const F32_TOL_FLOOR: f64 = 1e-6;

    /// The precision actually used at compression tolerance `tol`: `F32`
    /// silently demotes to `F64` when `tol` is below
    /// [`SketchPrecision::F32_TOL_FLOOR`] — sketching coarser than the
    /// requested accuracy would cap the attainable residual, not the cost.
    pub fn effective_for_tol(self, tol: f64) -> SketchPrecision {
        match self {
            SketchPrecision::F32 if tol < Self::F32_TOL_FLOOR => SketchPrecision::F64,
            p => p,
        }
    }
}

/// How the basis QR of a far-field panel is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressionMode {
    /// Column-pivoted QR of the full panel — the paper's literal operation, kept as
    /// the reference path.
    Direct,
    /// Gaussian sketch of the panel columns, then a small pivoted QR of the sketch
    /// (GEMM-dominated); `oversample` extra sketch columns guard the rank estimate.
    Sketched {
        /// Extra sketch columns beyond the caller's rank cap.
        oversample: usize,
    },
    /// Subsampled randomized Hadamard-type sketch (signs + butterfly mixing +
    /// column subsampling): `O(m·n·log n)` instead of the Gaussian `O(m·n·s)`.
    Srft {
        /// Extra sketch columns beyond the caller's rank cap.
        oversample: usize,
        /// Precision of the mixing transform.
        precision: SketchPrecision,
    },
}

impl Default for CompressionMode {
    fn default() -> Self {
        CompressionMode::Srft {
            oversample: 64,
            precision: SketchPrecision::F32,
        }
    }
}

/// Rank-detection slack applied to SRFT sketches when the mixing runs in f64:
/// the structured sketch has fewer independent random bits per column than a
/// Gaussian one, so it occasionally attenuates a single needed direction to
/// just below `tol · rdiag[0]` — dropped directions surface as heavy-tailed
/// residual spikes (orders of magnitude above the tolerance).  Detecting the
/// rank on the sketch at `tol · SRFT_DETECT_SLACK` retains those borderline
/// columns; any rank cap still bounds the cost of the extra columns.
pub const SRFT_DETECT_SLACK: f64 = 0.25;

/// The rank-detection tolerance used on an SRFT sketch, given the *effective*
/// mixing precision (after [`SketchPrecision::effective_for_tol`]).
///
/// * `F64` mixing detects at `tol · SRFT_DETECT_SLACK`: no refinement runs at
///   solve time, so a dropped borderline direction would surface directly as a
///   residual spike — the slack buys it back at the cost of a slightly larger
///   rank.
/// * `F32` mixing detects at `tol` itself.  Two reasons: its solves run cheap
///   iterative refinement (see `default_refine_steps`), which repairs the rare
///   dropped-direction spike, and a quarter-tolerance threshold would sit
///   *below* the f32 mixing noise floor (`F32_TOL_FLOOR` equals the loosest
///   tol this path accepts), promoting rounding noise into the skeleton and
///   inflating every downstream rank.
pub fn srft_detect_tol(tol: f64, precision: SketchPrecision) -> f64 {
    match precision {
        SketchPrecision::F32 => tol,
        SketchPrecision::F64 => tol * SRFT_DETECT_SLACK,
    }
}

/// A `n x s` Gaussian-ish test matrix (sum of four uniforms), deterministic in the
/// seed.
pub fn gaussian_test_matrix(n: usize, s: usize, seed: u64) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Matrix::from_fn(n, s, |_, _| {
        (0..4).map(|_| rng.gen_range(-0.5..0.5)).sum::<f64>()
    })
}

/// Pivoted QR of `a` through a column sketch, plus the detected numerical rank at
/// relative tolerance `tol` (capped by `max_rank` and the dimensions).
///
/// Falls back to the direct pivoted QR whenever sketching cannot win (the panel is
/// already no wider than the sketch would be).  The returned factorization is of the
/// *sketch*, so its `q_full()`/`q_columns()` span the (approximate) column space of
/// `a`; its `R` factor does not reproduce `a` and must not be used for that.
pub fn sketched_pivoted_qr(
    a: &Matrix,
    tol: f64,
    max_rank: Option<usize>,
    oversample: usize,
    seed: u64,
) -> (PivotedQr, usize) {
    let m = a.rows();
    let n = a.cols();
    let cap = max_rank.unwrap_or(usize::MAX).min(m).min(n);
    let s = cap.saturating_add(oversample.max(4)).min(n);
    if s >= n {
        let f = pivoted_qr(a);
        let rank = f.rank(tol).min(cap);
        return (f, rank);
    }
    let omega = gaussian_test_matrix(n, s, seed);
    let mut b = matmul(a, &omega);
    maybe_corrupt_sketch(&mut b, h2_matrix::fault::SketchStage::Gaussian, seed);
    let f = pivoted_qr(&b);
    let rank = f.rank(tol).min(cap);
    (f, rank)
}

/// Fault-injection hook: poison the sketch with NaNs when an active
/// `corrupt_sketch` plan targets `stage`.  The coin is rolled on the caller's
/// seed, so the decision is deterministic and independent of thread count.
fn maybe_corrupt_sketch(b: &mut Matrix, stage: h2_matrix::fault::SketchStage, seed: u64) {
    if let Some(rate) = h2_matrix::fault::sketch_corruption_rate(stage) {
        if h2_matrix::fault::roll(rate, seed) && !b.is_empty() {
            for x in b.col_mut(0) {
                *x = f64::NAN;
            }
        }
    }
}

thread_local! {
    // Mixing buffers reused across every SRFT sketch on this thread.  The used
    // region is fully overwritten on every call (real columns from the panel,
    // padding columns with explicit zeros), so reuse cannot change results.
    static SRFT_BUF_F32: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
    static SRFT_BUF_F64: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// In-place fast Walsh–Hadamard butterflies over the `c` columns of a column-major
/// `m x c` buffer: `log2(c)` rounds of `(x, y) -> (x + y, x - y)` on whole column
/// pairs.  Column-major layout makes each butterfly a pair of contiguous
/// length-`m` slices — the inner loop auto-vectorizes.
macro_rules! fwht_columns {
    ($name:ident, $t:ty) => {
        fn $name(buf: &mut [$t], m: usize, c: usize) {
            let mut len = 1;
            while len < c {
                for base in (0..c).step_by(2 * len) {
                    for j in 0..len {
                        let pa = (base + j) * m;
                        let pb = (base + len + j) * m;
                        let (left, right) = buf.split_at_mut(pb);
                        let xa = &mut left[pa..pa + m];
                        let xb = &mut right[..m];
                        for (x, y) in xa.iter_mut().zip(xb.iter_mut()) {
                            let s = *x + *y;
                            let d = *x - *y;
                            *x = s;
                            *y = d;
                        }
                    }
                }
                len *= 2;
            }
        }
    };
}

fwht_columns!(fwht_columns_f32, f32);
fwht_columns!(fwht_columns_f64, f64);

/// SRFT sketch of the columns of `a`: `B = A · D · H · S / sqrt(s)` with random
/// signs `D`, un-normalized Hadamard-type mixing `H` over the zero-padded
/// power-of-two width `C`, and a uniform random subsample `S` of `s` of the `C`
/// mixed columns.  `O(m·C·log C)` additions versus the Gaussian sketch's
/// `2·m·n·s` multiply-adds.  Deterministic in `seed`; with
/// [`SketchPrecision::F32`] the mixing runs in f32 and the result is promoted
/// back to f64.
pub fn srft_sketch(a: &Matrix, s: usize, seed: u64, precision: SketchPrecision) -> Matrix {
    let m = a.rows();
    let n = a.cols();
    let c = n.next_power_of_two().max(1);
    let s = s.min(c).max(1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let signs: Vec<f64> = (0..n)
        .map(|_| {
            if rng.gen_range(0u32..2) == 0 {
                1.0
            } else {
                -1.0
            }
        })
        .collect();
    let mut idx: Vec<usize> = (0..c).collect();
    idx.shuffle(&mut rng);
    idx.truncate(s);
    idx.sort_unstable();
    // One add + one sub per element per round, counted as flops like the GEMM path.
    add_flops(2 * (m as u64) * (c as u64) * (c.trailing_zeros() as u64));
    // 1/sqrt(s) keeps the sketch's expected Frobenius energy equal to ||A||_F,
    // comparable with the Gaussian path; any uniform scale leaves the relative-
    // tolerance rank detection unchanged.
    let scale = 1.0 / (s as f64).sqrt();
    let mut b = match precision {
        SketchPrecision::F32 => SRFT_BUF_F32.with(|cell| {
            let mut buf = cell.borrow_mut();
            buf.resize(m * c, 0.0);
            for (j, &sj) in signs.iter().enumerate() {
                let sj = sj as f32;
                for (dst, &src) in buf[j * m..(j + 1) * m].iter_mut().zip(a.col(j)) {
                    *dst = sj * src as f32;
                }
            }
            buf[n * m..c * m].fill(0.0);
            fwht_columns_f32(&mut buf, m, c);
            let mut b = Matrix::zeros(m, s);
            for (t, &jt) in idx.iter().enumerate() {
                for (dst, &src) in b.col_mut(t).iter_mut().zip(&buf[jt * m..(jt + 1) * m]) {
                    *dst = scale * src as f64;
                }
            }
            b
        }),
        SketchPrecision::F64 => SRFT_BUF_F64.with(|cell| {
            let mut buf = cell.borrow_mut();
            buf.resize(m * c, 0.0);
            for (j, &sj) in signs.iter().enumerate() {
                for (dst, &src) in buf[j * m..(j + 1) * m].iter_mut().zip(a.col(j)) {
                    *dst = sj * src;
                }
            }
            buf[n * m..c * m].fill(0.0);
            fwht_columns_f64(&mut buf, m, c);
            let mut b = Matrix::zeros(m, s);
            for (t, &jt) in idx.iter().enumerate() {
                for (dst, &src) in b.col_mut(t).iter_mut().zip(&buf[jt * m..(jt + 1) * m]) {
                    *dst = scale * src;
                }
            }
            b
        }),
    };
    let stage = match precision {
        SketchPrecision::F32 => h2_matrix::fault::SketchStage::SrftF32,
        SketchPrecision::F64 => h2_matrix::fault::SketchStage::SrftF64,
    };
    maybe_corrupt_sketch(&mut b, stage, seed);
    b
}

/// Sketch stage of the SRFT path, separated so callers can batch the pivoted
/// QRs that follow (see `pivoted_qr_batch`): returns `(None, cap)` when the
/// panel is too narrow for sketching to win (factor the panel directly), or
/// `(Some(sketch), cap)` with the `m x s` SRFT sketch.
pub fn srft_sketch_or_panel(
    a: &Matrix,
    max_rank: Option<usize>,
    oversample: usize,
    precision: SketchPrecision,
    seed: u64,
) -> (Option<Matrix>, usize) {
    let m = a.rows();
    let n = a.cols();
    let cap = max_rank.unwrap_or(usize::MAX).min(m).min(n);
    let s = cap.saturating_add(oversample.max(4)).min(n);
    if s >= n {
        (None, cap)
    } else {
        (Some(srft_sketch(a, s, seed, precision)), cap)
    }
}

/// Pivoted QR of `a` through an SRFT column sketch, plus the detected numerical
/// rank at relative tolerance `tol` (capped by `max_rank` and the dimensions).
/// Same contract as [`sketched_pivoted_qr`]: the returned factorization is of
/// the *sketch*, so only its orthogonal factor is meaningful.
pub fn srft_pivoted_qr(
    a: &Matrix,
    tol: f64,
    max_rank: Option<usize>,
    oversample: usize,
    precision: SketchPrecision,
    seed: u64,
) -> (PivotedQr, usize) {
    let precision = precision.effective_for_tol(tol);
    match srft_sketch_or_panel(a, max_rank, oversample, precision, seed) {
        (None, cap) => {
            let f = pivoted_qr(a);
            let rank = f.rank(tol).min(cap);
            (f, rank)
        }
        (Some(b), cap) => {
            // Stop the factorization at the detection threshold (plus one
            // reflector of headroom so a cap overflow is still observable):
            // the sub-tolerance reflectors are most of the sketch-QR cost and
            // contribute nothing to the skeleton.
            let dtol = srft_detect_tol(tol, precision);
            let f = h2_matrix::pivoted_qr_stop(&b, dtol, cap.saturating_add(1));
            let rank = f.rank(dtol).min(cap);
            (f, rank)
        }
    }
}

/// SRFT-based replacement for `truncated_pivoted_qr`: the skeleton/redundant
/// orthonormal split of `a`'s column space at relative tolerance `tol`.
pub fn srft_basis_split(
    a: &Matrix,
    tol: f64,
    max_rank: Option<usize>,
    oversample: usize,
    precision: SketchPrecision,
    seed: u64,
) -> BasisSplit {
    let m = a.rows();
    if a.cols() == 0 || m == 0 {
        return BasisSplit {
            skeleton: Matrix::zeros(m, 0),
            redundant: Matrix::identity(m),
            rank: 0,
        };
    }
    let (f, rank) = srft_pivoted_qr(a, tol, max_rank, oversample, precision, seed);
    let q = f.q_full();
    BasisSplit {
        skeleton: q.block(0, 0, m, rank),
        redundant: q.block(0, rank, m, m - rank),
        rank,
    }
}

/// Sketch-based replacement for `truncated_pivoted_qr`: the skeleton/redundant
/// orthonormal split of `a`'s column space at relative tolerance `tol`.
pub fn sketched_basis_split(
    a: &Matrix,
    tol: f64,
    max_rank: Option<usize>,
    oversample: usize,
    seed: u64,
) -> BasisSplit {
    let m = a.rows();
    if a.cols() == 0 || m == 0 {
        return BasisSplit {
            skeleton: Matrix::zeros(m, 0),
            redundant: Matrix::identity(m),
            rank: 0,
        };
    }
    let (f, rank) = sketched_pivoted_qr(a, tol, max_rank, oversample, seed);
    let q = f.q_full();
    BasisSplit {
        skeleton: q.block(0, 0, m, rank),
        redundant: q.block(0, rank, m, m - rank),
        rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_matrix::{fro_norm, matmul_nt, matmul_tn, truncated_pivoted_qr};
    use rand::SeedableRng;

    fn low_rank(m: usize, n: usize, r: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::random(m, r, &mut rng);
        let b = Matrix::random(n, r, &mut rng);
        matmul_nt(&a, &b)
    }

    #[test]
    fn sketched_split_spans_low_rank_input() {
        let a = low_rank(60, 400, 12, 3);
        let split = sketched_basis_split(&a, 1e-10, Some(40), 16, 7);
        assert_eq!(split.rank, 12);
        // || (I - U U^T) A || tiny.
        let proj = matmul(&split.skeleton, &matmul_tn(&split.skeleton, &a));
        let resid = fro_norm(&(&a - &proj)) / fro_norm(&a);
        assert!(resid < 1e-9, "residual {resid}");
        // The split stays a square orthogonal matrix.
        let q = split.skeleton.hcat(&split.redundant);
        assert!(matmul_tn(&q, &q).max_abs_diff(&Matrix::identity(60)) < 1e-11);
    }

    #[test]
    fn sketched_rank_matches_direct_on_decaying_spectrum() {
        // Geometric singular-value decay: the sketched tolerance rank must land
        // within a couple of the direct rank.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let m = 48;
        let n = 300;
        let u = h2_matrix::orthonormal_columns(&Matrix::random(m, m, &mut rng));
        let v = h2_matrix::orthonormal_columns(&Matrix::random(n, m, &mut rng));
        let s = Matrix::from_diag(&(0..m).map(|i| (0.5f64).powi(i as i32)).collect::<Vec<_>>());
        let a = matmul(&matmul(&u, &s), &v.transpose());
        let direct = truncated_pivoted_qr(&a, 1e-6, None).rank;
        let sketched = sketched_basis_split(&a, 1e-6, None, 16, 5).rank;
        assert!(
            sketched.abs_diff(direct) <= 3,
            "sketched rank {sketched} vs direct {direct}"
        );
    }

    #[test]
    fn deterministic_in_the_seed_and_falls_back_when_narrow() {
        let a = low_rank(30, 500, 8, 9);
        let s1 = sketched_basis_split(&a, 1e-8, Some(20), 8, 42);
        let s2 = sketched_basis_split(&a, 1e-8, Some(20), 8, 42);
        assert_eq!(s1.skeleton, s2.skeleton);
        assert_eq!(s1.redundant, s2.redundant);
        // Narrow panel: the sketch would be as wide as the panel, so the result is
        // the direct factorization.
        let narrow = low_rank(30, 10, 4, 2);
        let split = sketched_basis_split(&narrow, 1e-10, None, 8, 0);
        let direct = truncated_pivoted_qr(&narrow, 1e-10, None);
        assert_eq!(split.rank, direct.rank);
        assert!(split.skeleton.max_abs_diff(&direct.skeleton) < 1e-14);
    }

    #[test]
    fn empty_inputs_degenerate_gracefully() {
        let split = sketched_basis_split(&Matrix::zeros(7, 0), 1e-8, None, 8, 0);
        assert_eq!(split.rank, 0);
        assert_eq!(split.redundant.shape(), (7, 7));
        assert_eq!(
            CompressionMode::default(),
            CompressionMode::Srft {
                oversample: 64,
                precision: SketchPrecision::F32
            }
        );
        let split = srft_basis_split(&Matrix::zeros(7, 0), 1e-8, None, 8, SketchPrecision::F32, 0);
        assert_eq!(split.rank, 0);
        assert_eq!(split.redundant.shape(), (7, 7));
    }

    /// Projection residual of `a` onto the detected skeleton basis.
    fn basis_residual(a: &Matrix, split: &BasisSplit) -> f64 {
        let proj = matmul(&split.skeleton, &matmul_tn(&split.skeleton, a));
        fro_norm(&(a - &proj)) / fro_norm(a)
    }

    #[test]
    fn srft_split_spans_low_rank_input_in_both_precisions() {
        let a = low_rank(60, 400, 12, 3);
        for prec in [SketchPrecision::F32, SketchPrecision::F64] {
            let split = srft_basis_split(&a, 1e-6, Some(40), 16, prec, 7);
            assert_eq!(split.rank, 12, "{prec:?}");
            let resid = basis_residual(&a, &split);
            // f32 mixing bounds the floor near f32 epsilon — far below the
            // construction tolerances the solver runs at.
            assert!(resid < 1e-5, "{prec:?} residual {resid}");
            let q = split.skeleton.hcat(&split.redundant);
            assert!(matmul_tn(&q, &q).max_abs_diff(&Matrix::identity(60)) < 1e-11);
        }
    }

    #[test]
    fn srft_vs_gaussian_vs_direct_on_noisy_low_rank_blocks() {
        // Property test pinning subspace accuracy: on random low-rank-plus-noise
        // blocks the sketched paths' projection residuals must stay within a
        // small factor of the direct rank-revealing QR at the same rank budget.
        for trial in 0..5u64 {
            let m = 48 + 8 * trial as usize;
            let n = 320;
            let r = 10;
            let eps = 1e-7;
            let mut rng = rand::rngs::StdRng::seed_from_u64(100 + trial);
            let noise = Matrix::from_fn(m, n, |_, _| eps * rng.gen_range(-1.0..1.0));
            let a = &low_rank(m, n, r, 50 + trial) + &noise;
            let budget = Some(r + 4);
            let direct = {
                let split = truncated_pivoted_qr(&a, 1e-6, budget);
                basis_residual(&a, &split)
            };
            let gauss = basis_residual(&a, &sketched_basis_split(&a, 1e-6, budget, 16, trial));
            let srft32 = basis_residual(
                &a,
                &srft_basis_split(&a, 1e-6, budget, 16, SketchPrecision::F32, trial),
            );
            let srft64 = basis_residual(
                &a,
                &srft_basis_split(&a, 1e-6, budget, 16, SketchPrecision::F64, trial),
            );
            // All paths must resolve the low-rank part; the noise floor (~eps)
            // bounds how well any rank-(r+4) basis can do, so compare against
            // max(direct, eps) with a generous constant.
            let floor = direct.max(eps);
            for (name, resid) in [("gauss", gauss), ("srft32", srft32), ("srft64", srft64)] {
                assert!(
                    resid <= 20.0 * floor,
                    "trial {trial}: {name} residual {resid:.3e} vs direct {direct:.3e}"
                );
            }
        }
    }

    #[test]
    fn srft_rank_matches_direct_on_decaying_spectrum() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let m = 48;
        let n = 300;
        let u = h2_matrix::orthonormal_columns(&Matrix::random(m, m, &mut rng));
        let v = h2_matrix::orthonormal_columns(&Matrix::random(n, m, &mut rng));
        let s = Matrix::from_diag(&(0..m).map(|i| (0.5f64).powi(i as i32)).collect::<Vec<_>>());
        let a = matmul(&matmul(&u, &s), &v.transpose());
        let direct = truncated_pivoted_qr(&a, 1e-6, None).rank;
        for prec in [SketchPrecision::F32, SketchPrecision::F64] {
            let srft = srft_basis_split(&a, 1e-6, None, 16, prec, 5).rank;
            assert!(
                srft.abs_diff(direct) <= 3,
                "{prec:?} srft rank {srft} vs direct {direct}"
            );
        }
    }

    #[test]
    fn srft_deterministic_in_seed_and_seed_dependent() {
        let a = low_rank(30, 500, 8, 9);
        let s1 = srft_basis_split(&a, 1e-8, Some(20), 8, SketchPrecision::F32, 42);
        let s2 = srft_basis_split(&a, 1e-8, Some(20), 8, SketchPrecision::F32, 42);
        assert_eq!(s1.skeleton, s2.skeleton);
        assert_eq!(s1.redundant, s2.redundant);
        let s3 = srft_basis_split(&a, 1e-8, Some(20), 8, SketchPrecision::F32, 43);
        assert!(
            s1.skeleton != s3.skeleton,
            "different seeds must give different sketch bases"
        );
        // Narrow panel: falls back to the direct factorization.
        let narrow = low_rank(30, 10, 4, 2);
        let split = srft_basis_split(&narrow, 1e-10, None, 8, SketchPrecision::F32, 0);
        let direct = truncated_pivoted_qr(&narrow, 1e-10, None);
        assert_eq!(split.rank, direct.rank);
        assert!(split.skeleton.max_abs_diff(&direct.skeleton) < 1e-14);
    }

    #[test]
    fn srft_sketch_preserves_frobenius_energy() {
        // The 1/sqrt(s) scaling keeps E||B||_F^2 = ||A||_F^2; check the
        // realized energy is within a factor of 2 for a generic matrix.
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let a = Matrix::random(40, 333, &mut rng);
        let b = srft_sketch(&a, 64, 5, SketchPrecision::F64);
        assert_eq!(b.shape(), (40, 64));
        let ra = fro_norm(&a);
        let rb = fro_norm(&b);
        assert!(rb > 0.5 * ra && rb < 2.0 * ra, "energy ratio {}", rb / ra);
    }
}
