//! Fill-in pre-computation (§III-B of the paper, Fig. 7).
//!
//! For every block row/column `k`, the dense diagonal block is LU-factorized and the
//! dense off-diagonal blocks of that row/column are triangular-solved; the products of
//! those panels are the fill-in blocks that an exact elimination would create in the
//! positions `(i, j)` for every pair of neighbours `i, j` of `k`.  The fill-ins are
//! **not** accumulated into the matrix — they are kept separately and only used to
//! enrich the shared bases (Eqs. 27–28), which is precisely what removes the trailing
//! sub-matrix dependency later.
//!
//! All block rows/columns are processed independently (the paper: "This process can be
//! executed in parallel for all block rows/columns, since they do not depend on each
//! other").

use h2_lowrank::{srft_sketch, SketchPrecision};
use h2_matrix::{lu_factor, lu_solve_mat, matmul, matmul_tn, Matrix};

/// How the sampled fill-in path sketches each pivot's union panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillSketch {
    /// Dense pseudo-Gaussian test blocks — the reference path, kept for the
    /// Gaussian/Direct compression modes so A/B runs compare like with like.
    Gaussian,
    /// Structured SRFT mixing of the concatenated panel: `O(m·N·log N)` sign
    /// flips and butterfly adds instead of the `O(m·N·c)` test-block GEMMs
    /// (plus their per-entry RNG).  The payload is the compression pipeline's
    /// *effective* sketch precision — it selects the pipeline variant (an
    /// f32-effective pipeline pairs with iterative refinement at solve time),
    /// not the fill mixing arithmetic: the fill sample is mixed in f64
    /// regardless, because it is taken on the *raw* dense panels and the
    /// `A_kk^{-1}` solve that follows amplifies any input-side rounding by
    /// `cond(A_kk)` (f32 mixing here visibly poisons deep trees).
    Srft(SketchPrecision),
}

/// The fill-in contribution of a single pivot `k` — the unit of work of one
/// fused-graph fill task ([`fillin_pivot`]).  The basis tasks then accumulate
/// the contributions per row and per column in a fixed order
/// ([`row_fills_from`] / [`col_fills_from`]), so the basis-enrichment inputs
/// never depend on scheduling.
#[derive(Debug, Default)]
pub struct PivotFills {
    /// Fill-in blocks this pivot generates (reporting).
    pub count: usize,
    /// Exact mode: `(i, j, F_ij, F_ij^T)` per neighbour pair, in the fixed
    /// `z × w` generation order the accumulator relies on.
    pub exact: Vec<(usize, usize, Matrix, Matrix)>,
    /// Sampled mode: per-target-row union samples `(i, Z_ik S_k)`.
    pub rows: Vec<(usize, Matrix)>,
    /// Sampled mode: per-target-column union samples `(j, W_kj^T T_k)`.
    pub cols: Vec<(usize, Matrix)>,
}

/// Compute the fill-in contribution of pivot `k` with neighbour list `nk`.
///
/// `dense_block(i, j)` returns the dense block of a neighbour pair (including
/// the diagonal).  Exact mode (`sample_cols == None`) forms every product
/// `Z_ik W_kj` — the paper's literal Eq. 27–28 input.  Sampled mode
/// (`Some(c)`) captures the column (and row) space of the **union** of a block
/// row's fill-ins through shared `c`-wide test matrices (Gaussian or SRFT, see
/// [`FillSketch`]): `O(|N|)` GEMMs per pivot instead of the `O(|N|²)` per-pair
/// products, and one `c`-wide enrichment block per (pivot, target row) instead
/// of one `m_j`-wide block per fill-in pair.  A singular diagonal block yields
/// an empty contribution — the factorization surfaces the problem later.
pub fn fillin_pivot(
    k: usize,
    nk: &[usize],
    dense_block: &(dyn Fn(usize, usize) -> Matrix + Sync),
    sample_cols: Option<usize>,
    sketch: FillSketch,
) -> PivotFills {
    if nk.is_empty() {
        return PivotFills::default();
    }
    let dkk = dense_block(k, k);
    let lu = match lu_factor(&dkk) {
        Ok(lu) => lu,
        // A singular diagonal block cannot generate usable fill-in information;
        // skip it (the factorization itself will surface the problem later).
        Err(_) => return PivotFills::default(),
    };
    let Some(c) = sample_cols else {
        // Column panel pieces Z_ik = D_ik U_k^{-1} and row panel pieces W_kj = L_k^{-1} P_k D_kj.
        let z: Vec<(usize, Matrix)> = nk
            .iter()
            .map(|&i| (i, lu.right_solve_upper(&dense_block(i, k))))
            .collect();
        let w: Vec<(usize, Matrix)> = nk
            .iter()
            .map(|&j| (j, lu.forward_mat(&dense_block(k, j))))
            .collect();
        let mut fills = Vec::new();
        for (i, zi) in &z {
            for (j, wj) in &w {
                // The diagonal target (i == j) is a legitimate fill-in as well
                // (the paper's Fig. 7 example explicitly lists the diagonal block).
                let f = matmul(zi, wj);
                let ft = f.transpose();
                fills.push((*i, *j, f, ft));
            }
        }
        return PivotFills {
            count: fills.len(),
            exact: fills,
            rows: Vec::new(),
            cols: Vec::new(),
        };
    };
    let mk = dkk.rows();
    let (rows, cols) = match sketch {
        // Reference path: form the solved panels Z_ik = D_ik U_k^{-1},
        // W_kj = L_k^{-1} P_k D_kj, then sketch their unions.
        // S_k = Σ_j W_kj Ω_kj (column-space sketch of the row panel),
        // T_k = Σ_i Z_ik^T Ω'_ki (row-space sketch of the column panel).
        FillSketch::Gaussian => {
            let z: Vec<(usize, Matrix)> = nk
                .iter()
                .map(|&i| (i, lu.right_solve_upper(&dense_block(i, k))))
                .collect();
            let w: Vec<(usize, Matrix)> = nk
                .iter()
                .map(|&j| (j, lu.forward_mat(&dense_block(k, j))))
                .collect();
            let mut s_k = Matrix::zeros(mk, c);
            for (j, wj) in &w {
                let omega = gaussian_like(wj.cols(), c, (k * 31 + j * 7 + 1) as u64);
                s_k += &matmul(wj, &omega);
            }
            let mut t_k = Matrix::zeros(mk, c);
            for (i, zi) in &z {
                let omega = gaussian_like(zi.rows(), c, (k * 17 + i * 3 + 2) as u64);
                t_k += &matmul(&zi.transpose(), &omega);
            }
            let rows: Vec<(usize, Matrix)> =
                z.iter().map(|(i, zi)| (*i, matmul(zi, &s_k))).collect();
            let cols: Vec<(usize, Matrix)> = w
                .iter()
                .map(|(j, wj)| (*j, matmul(&wj.transpose(), &t_k)))
                .collect();
            (rows, cols)
        }
        // SRFT fast path: sketching is a right-multiplication by a test
        // matrix, so it commutes with the row-acting triangular solves —
        // `(L⁻¹P·D_panel)·Ω = L⁻¹P·(D_panel·Ω)`.  Mix the *raw* dense
        // panels down to `c` columns first and solve on the sketch:
        //   row sample_i = Z_ik S_k = D_ik · A_kk^{-1} · srft([D_kj]_j)
        //   col sample_j = W_kj^T T_k = D_kj^T · A_kk^{-T} · srft([D_ik^T]_i)
        // The per-neighbour O(|N|·m³) panel solves collapse to two
        // O(m²·c) solves per pivot; the Z/W panels are never formed.
        FillSketch::Srft(_) => {
            let row_blocks: Vec<Matrix> = nk.iter().map(|&j| dense_block(k, j)).collect();
            let col_blocks: Vec<Matrix> =
                nk.iter().map(|&i| dense_block(i, k).transpose()).collect();
            let seed = (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let wcat = hconcat(mk, row_blocks.iter());
            let zcat = hconcat(mk, col_blocks.iter());
            let sk_row = srft_fill_sample(&wcat, c, seed ^ 0xf1);
            let sk_col = srft_fill_sample(&zcat, c, seed ^ 0xf2);
            let q_k = lu_solve_mat(&lu, &sk_row);
            let r_k = lu.transpose_solve_mat(&sk_col);
            let rows: Vec<(usize, Matrix)> = nk
                .iter()
                .zip(&col_blocks)
                .map(|(&i, dik_t)| (i, matmul_tn(dik_t, &q_k)))
                .collect();
            let cols: Vec<(usize, Matrix)> = nk
                .iter()
                .zip(&row_blocks)
                .map(|(&j, dkj)| (j, matmul_tn(dkj, &r_k)))
                .collect();
            (rows, cols)
        }
    };
    PivotFills {
        count: nk.len() * nk.len(),
        exact: Vec::new(),
        rows,
        cols,
    }
}

/// The basis-enrichment block list for row `i`, accumulated from per-pivot
/// contributions **iterated in ascending pivot order** (the caller's
/// responsibility; passing only the pivots whose neighbour lists contain `i`
/// is allowed — other pivots contribute nothing to this row).
///
/// Exact-mode blocks targeting the same `(i, j)` pair are summed (or, on a
/// shape mismatch, kept side by side) in pivot order and flattened in ascending
/// `j`, which both matches the true Schur contribution and keeps the
/// basis-enrichment QR narrow.  Sampled-mode pivots keep their samples as
/// separate blocks — rather than summing them — preserving the relative
/// magnitudes the basis QR's tolerance cut relies on; the extra input width is
/// absorbed by the sketched compression.
pub fn row_fills_from<'a>(i: usize, pivots: impl Iterator<Item = &'a PivotFills>) -> Vec<Matrix> {
    let mut acc: Vec<(usize, Matrix)> = Vec::new(); // keyed by j, insertion kept
    let mut sampled: Vec<Matrix> = Vec::new();
    for p in pivots {
        for (fi, j, f, _ft) in &p.exact {
            if *fi != i {
                continue;
            }
            match acc.iter_mut().find(|(jj, _)| jj == j) {
                Some((_, e)) => {
                    if e.shape() == f.shape() {
                        *e += f;
                    } else {
                        // Differently-sized samples (rare): keep side by side.
                        *e = e.hcat(f);
                    }
                }
                None => acc.push((*j, f.clone())),
            }
        }
        for (ri, m) in &p.rows {
            if *ri == i {
                sampled.push(m.clone());
            }
        }
    }
    acc.sort_by_key(|(j, _)| *j);
    let mut out: Vec<Matrix> = acc.into_iter().map(|(_, m)| m).collect();
    out.extend(sampled);
    out
}

/// Column twin of [`row_fills_from`]: the transposed fill blocks landing in
/// column `j`, flattened in ascending row index.
pub fn col_fills_from<'a>(j: usize, pivots: impl Iterator<Item = &'a PivotFills>) -> Vec<Matrix> {
    let mut acc: Vec<(usize, Matrix)> = Vec::new(); // keyed by i, insertion kept
    let mut sampled: Vec<Matrix> = Vec::new();
    for p in pivots {
        for (i, fj, _f, ft) in &p.exact {
            if *fj != j {
                continue;
            }
            match acc.iter_mut().find(|(ii, _)| ii == i) {
                Some((_, e)) => {
                    if e.shape() == ft.shape() {
                        *e += ft;
                    } else {
                        *e = e.hcat(ft);
                    }
                }
                None => acc.push((*i, ft.clone())),
            }
        }
        for (cj, m) in &p.cols {
            if *cj == j {
                sampled.push(m.clone());
            }
        }
    }
    acc.sort_by_key(|(i, _)| *i);
    let mut out: Vec<Matrix> = acc.into_iter().map(|(_, m)| m).collect();
    out.extend(sampled);
    out
}

/// Horizontal concatenation of a pivot's panel pieces into one `rows x ΣN_j`
/// block (SRFT fill path: the transform mixes the union panel directly).
fn hconcat<'a>(rows: usize, blocks: impl Iterator<Item = &'a Matrix>) -> Matrix {
    let blocks: Vec<&Matrix> = blocks.collect();
    let total: usize = blocks.iter().map(|b| b.cols()).sum();
    let mut cat = Matrix::zeros(rows, total);
    let mut off = 0;
    for b in &blocks {
        cat.set_block(0, off, b);
        off += b.cols();
    }
    cat
}

/// SRFT sample of a fill union panel: `c` mixed columns when the panel is wide
/// enough for mixing to reduce it, the panel itself otherwise.  Either way the
/// result is scaled by [`FILL_SAMPLE_SCALE`] — the SRFT's effective test
/// vectors are unit norm (the transform is orthonormal up to subsampling),
/// exactly like [`gaussian_like`]'s normalized columns before the same weight.
/// Mixing runs in f64 even for the f32 compression pipeline: the sample feeds
/// a triangular solve against `A_kk`, which would amplify input-side f32
/// rounding by the block's condition number (see [`FillSketch::Srft`]).
fn srft_fill_sample(panel: &Matrix, c: usize, seed: u64) -> Matrix {
    let mut out = if panel.cols() > c {
        srft_sketch(panel, c, seed, SketchPrecision::F64)
    } else {
        panel.clone()
    };
    for v in out.as_mut_slice() {
        *v *= FILL_SAMPLE_SCALE;
    }
    out
}

/// Weight applied to every fill-sample test column (see [`gaussian_like`]).
const FILL_SAMPLE_SCALE: f64 = 4.0;

/// A cheap deterministic pseudo-Gaussian test matrix (sum of four uniforms) with
/// columns normalized to the fixed norm [`FILL_SAMPLE_SCALE`].  A
/// sampled column `F ω` is then a controlled multiple of `F` applied to a unit
/// vector: normalizing keeps fill samples on a scale comparable to the far-field
/// columns they are concatenated with (the basis QR's tolerance rank compares
/// them directly), and the deliberate > 1 weight keeps marginal fill directions
/// above the tolerance cut — mirroring the conservatism of the exact per-pair
/// fill-in path the union sample replaces.
fn gaussian_like(rows: usize, cols: usize, seed: u64) -> Matrix {
    use rand::Rng;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xa5a5_5a5a_1234_5678);
    let mut m = Matrix::from_fn(rows, cols, |_, _| {
        (0..4).map(|_| rng.gen_range(-0.5..0.5)).sum::<f64>()
    });
    for j in 0..cols {
        let col = m.col_mut(j);
        let norm = col.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 0.0 {
            for v in col.iter_mut() {
                *v *= FILL_SAMPLE_SCALE / norm;
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_matrix::{fro_norm, lu_solve_mat, rel_fro_error};
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// Build a block matrix with a tridiagonal dense pattern and return its blocks.
    fn tridiag_blocks(nb: usize, m: usize) -> HashMap<(usize, usize), Matrix> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut blocks = HashMap::new();
        for i in 0..nb {
            for j in 0..nb {
                if i.abs_diff(j) <= 1 {
                    let mut b = Matrix::random(m, m, &mut rng);
                    if i == j {
                        for d in 0..m {
                            let v = b.get(d, d);
                            b.set(d, d, v + m as f64);
                        }
                    }
                    blocks.insert((i, j), b);
                }
            }
        }
        blocks
    }

    /// Exact-mode contributions of every pivot, in pivot order — what the fused
    /// graph's fill tasks leave for the basis tasks to accumulate.
    fn exact_fills(
        neighbours: &[Vec<usize>],
        blocks: &HashMap<(usize, usize), Matrix>,
    ) -> Vec<PivotFills> {
        (0..neighbours.len())
            .map(|k| {
                fillin_pivot(
                    k,
                    &neighbours[k],
                    &|i, j| blocks[&(i, j)].clone(),
                    None,
                    FillSketch::Gaussian,
                )
            })
            .collect()
    }

    fn tridiag_neighbours(nb: usize) -> Vec<Vec<usize>> {
        (0..nb)
            .map(|i| (0..nb).filter(|&j| j != i && i.abs_diff(j) <= 1).collect())
            .collect()
    }

    #[test]
    fn fillins_match_exact_schur_complement() {
        let nb = 4;
        let m = 8;
        let blocks = tridiag_blocks(nb, m);
        let fills = exact_fills(&tridiag_neighbours(nb), &blocks);
        // Eliminating block 1 creates fill-in at (0, 2) equal to D_01 D_11^{-1} D_12.
        let d11 = &blocks[&(1, 1)];
        let lu = lu_factor(d11).unwrap();
        let expect = matmul(&blocks[&(0, 1)], &lu_solve_mat(&lu, &blocks[&(1, 2)]));
        // Find that fill among row 0's fills: one of them must match.
        let row0 = row_fills_from(0, fills.iter());
        let found = row0.iter().any(|f| rel_fro_error(f, &expect) < 1e-10);
        assert!(
            found,
            "exact fill-in D_01 D_11^-1 D_12 not found among row 0 fills"
        );
        // Column fills mirror the row fills (one accumulated block per target pair),
        // and accumulation can only reduce the number of stored blocks.
        let count: usize = fills.iter().map(|p| p.count).sum();
        let total_row: usize = (0..nb).map(|t| row_fills_from(t, fills.iter()).len()).sum();
        let total_col: usize = (0..nb).map(|t| col_fills_from(t, fills.iter()).len()).sum();
        assert_eq!(total_row, total_col);
        assert!(total_row <= count);
        assert!(total_row > 0);
    }

    #[test]
    fn accumulated_fills_have_the_target_rows_height() {
        let nb = 3;
        let m = 6;
        let blocks = tridiag_blocks(nb, m);
        let fills = exact_fills(&tridiag_neighbours(nb), &blocks);
        let row0 = row_fills_from(0, fills.iter());
        assert!(!row0.is_empty());
        let refs: Vec<&Matrix> = row0.iter().collect();
        let c = Matrix::hcat_all(&refs);
        assert_eq!(c.rows(), m);
        assert!(c.cols() > 0);
        assert!(fro_norm(&c) > 0.0);
        // A row no pivot touches has nothing to enrich its bases with.
        assert!(row_fills_from(99, fills.iter()).is_empty());
        assert!(col_fills_from(99, fills.iter()).is_empty());
    }

    #[test]
    fn isolated_blocks_produce_no_fillins() {
        // Diagonal-only pattern: no off-diagonal neighbours, hence no fill-ins.
        let nb = 3;
        let blocks = tridiag_blocks(nb, 4);
        let fills = exact_fills(&vec![Vec::new(); nb], &blocks);
        assert!(fills.iter().all(|p| p.count == 0));
        assert!((0..nb).all(|t| row_fills_from(t, fills.iter()).is_empty()));
    }
}
