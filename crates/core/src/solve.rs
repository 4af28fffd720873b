//! Forward/backward substitution through the ULV hierarchy (Eqs. 16–19).
//!
//! The solve mirrors the factorization level by level:
//!
//! * **upward/forward**: transform the right-hand side with the row bases, eliminate
//!   the redundant unknowns (forward substitution with the stored panels), and pass
//!   the skeleton residuals to the parent level;
//! * **root**: dense solve of the final skeleton system;
//! * **downward/backward**: recover the redundant unknowns level by level (backward
//!   substitution with the stored panels) and transform back with the column bases.
//!
//! # One panel implementation, every width
//!
//! The whole pass is implemented once, over an `n x w` **panel** of right-hand
//! sides ([`UlvFactors::vsolve`]); the single-vector [`UlvFactors::solve`] is the
//! `w = 1` case of the same code.  The solve is memory-bound — every stored
//! factor panel is streamed once per sweep at ~2 flops per load — so a panel
//! amortises that traffic across `w` columns and is the source of the multi-RHS
//! throughput win.
//!
//! Every kernel on the path is **width-stable**: column `j` of each
//! intermediate is produced by exactly the same floating-point operations at
//! any panel width ([`h2_matrix::gemm_colwise`] / [`h2_matrix::matmul_tn_colwise`]
//! for the dense panels, [`h2_matrix::Lu::forward_panel`] /
//! [`h2_matrix::Lu::backward_panel`] for the triangular sweeps).  Consequence:
//! `vsolve` on a width-`k` panel is **bitwise identical** to `k` independent
//! `solve` calls — the property `tests/vsolve_equivalence.rs` pins down.

use h2_matrix::{gemm_colwise, gemv, matmul_tn_colwise, Matrix, SolverError, SolverResult};
use std::sync::atomic::Ordering;

use crate::options::Hierarchy;
use crate::ulv::UlvFactors;

/// `Y -= M * X` for a dense panel: width-stable, no-op on empty operands.
fn sub_panel(y: &mut Matrix, m: &Matrix, x: &Matrix) {
    if m.rows() == 0 || m.cols() == 0 || x.cols() == 0 {
        return;
    }
    gemm_colwise(-1.0, m, x, 1.0, y);
}

/// `C = A * B` through the width-stable kernel.
fn matmul_colwise(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_colwise(1.0, a, b, 0.0, &mut c);
    c
}

impl UlvFactors {
    /// Solve `A x = b` where `b` is given in **tree ordering** (use
    /// [`h2_geometry::ClusterTree::permute_to_tree`] to convert from the original
    /// point ordering).  Returns `x` in tree ordering.
    ///
    /// This is the width-1 case of [`UlvFactors::vsolve`] — bitwise identical
    /// to the corresponding column of any panel solve.
    ///
    /// # Errors
    /// [`SolverError::ShapeMismatch`] when `b` has the wrong length,
    /// [`SolverError::NonFiniteInput`] when `b` carries NaN/inf entries.
    pub fn solve(&self, b: &[f64]) -> SolverResult<Vec<f64>> {
        if b.len() != self.tree.num_points() {
            return Err(SolverError::ShapeMismatch {
                op: "solve",
                expected: self.tree.num_points(),
                got: b.len(),
            });
        }
        if let Some(i) = b.iter().position(|x| !x.is_finite()) {
            return Err(SolverError::NonFiniteInput {
                context: format!("right-hand side entry {i} is non-finite"),
            });
        }
        let bm = Matrix::from_columns(&[b.to_vec()]);
        Ok(self.vsolve_inner(&bm).col_vec(0))
    }

    /// Blocked multi-RHS solve: `A X = B` for an `n x w` panel `B` in tree
    /// ordering.  One sweep through the factors serves all `w` columns — the
    /// stored panels are streamed once instead of once per column — and every
    /// column is bitwise identical to the width-1 [`UlvFactors::solve`] of that
    /// column alone.
    ///
    /// # Errors
    /// [`SolverError::ShapeMismatch`] when `B` has the wrong row count,
    /// [`SolverError::NonFiniteInput`] when any column carries NaN/inf entries
    /// (the error names the offending column so a batching layer can fail just
    /// that request).
    pub fn vsolve(&self, b: &Matrix) -> SolverResult<Matrix> {
        let n = self.tree.num_points();
        if b.rows() != n {
            return Err(SolverError::ShapeMismatch {
                op: "vsolve",
                expected: n,
                got: b.rows(),
            });
        }
        for j in 0..b.cols() {
            if let Some(i) = b.col(j).iter().position(|x| !x.is_finite()) {
                return Err(SolverError::NonFiniteInput {
                    context: format!("right-hand side column {j} entry {i} is non-finite"),
                });
            }
        }
        Ok(self.vsolve_inner(b))
    }

    /// The panel sweep itself; callers have validated the input.
    fn vsolve_inner(&self, b: &Matrix) -> Matrix {
        let w = b.cols();
        // Degenerate dense case.
        if self.levels.is_empty() {
            return self.root_lu.solve_panel(b);
        }

        // ---------------------------------------------------------------- forward
        // Per-cluster right-hand-side panels at the current level (leaf first).
        let leaf_level = self.tree.depth;
        let mut rhs: Vec<Matrix> = (0..self.tree.num_leaves())
            .map(|i| {
                let r = self.tree.cluster_at(leaf_level, i).range();
                b.block(r.start, 0, r.len(), w)
            })
            .collect();
        // Saved redundant solutions per level (needed in the backward pass).
        let mut saved_zr: Vec<Vec<Matrix>> = Vec::with_capacity(self.levels.len());

        for lf in &self.levels {
            let nb = lf.nb;
            // Transform with the row bases and split into redundant / skeleton parts.
            let mut b_r: Vec<Matrix> = Vec::with_capacity(nb);
            let mut b_s: Vec<Matrix> = Vec::with_capacity(nb);
            for (i, c) in lf.clusters.iter().enumerate() {
                let bhat = matmul_tn_colwise(&c.q, &rhs[i]);
                b_s.push(bhat.block(c.redundant, 0, c.active - c.redundant, w));
                b_r.push(bhat.block(0, 0, c.redundant, w));
            }
            // Forward substitution over the redundant blocks in cluster order.
            let mut z_r: Vec<Matrix> = (0..nb).map(|_| Matrix::zeros(0, w)).collect();
            for k in 0..nb {
                let c = &lf.clusters[k];
                if c.redundant == 0 {
                    continue;
                }
                let mut t = b_r[k].clone();
                for &j in &lf.neighbours[k] {
                    if j < k {
                        if let Some(m) = lf.col_rr.get(&(k, j)) {
                            sub_panel(&mut t, m, &z_r[j]);
                        }
                    }
                }
                z_r[k] =
                    c.lu.as_ref()
                        .unwrap_or_else(|| unreachable!("redundant block without LU"))
                        .forward_panel(&t);
            }
            // Skeleton residuals.
            let mut z_s = b_s;
            for i in 0..nb {
                let mut pivots = lf.neighbours[i].clone();
                pivots.push(i);
                for k in pivots {
                    if let Some(m) = lf.col_sr.get(&(i, k)) {
                        sub_panel(&mut z_s[i], m, &z_r[k]);
                    }
                }
            }
            saved_zr.push(z_r);
            // Pass the skeleton residuals to the parent level.
            rhs = match self.options.hierarchy {
                Hierarchy::MultiLevel => (0..nb / 2)
                    .map(|ip| z_s[2 * ip].vcat(&z_s[2 * ip + 1]))
                    .collect(),
                Hierarchy::SingleLevel => z_s,
            };
        }

        // -------------------------------------------------------------------- root
        let parts: Vec<&Matrix> = rhs.iter().collect();
        let mut root_rhs = Matrix::vcat_all(&parts);
        if root_rhs.cols() != w {
            // vcat_all collapses an all-empty stack (every skeleton rank 0,
            // e.g. exactly rank-0 far fields) to 0x0; keep the panel width so
            // the per-cluster splits below stay well-formed.
            root_rhs = Matrix::zeros(0, w);
        }
        debug_assert_eq!(root_rhs.rows(), self.root_lu.lu.rows());
        let y_root = self.root_lu.solve_panel(&root_rhs);
        // Split the root solution back into top-level cluster pieces.
        let mut y_upper: Vec<Matrix> = Vec::with_capacity(self.root_clusters);
        for c in 0..self.root_clusters {
            let lo = self.root_offsets[c];
            let hi = if c + 1 < self.root_clusters {
                self.root_offsets[c + 1]
            } else {
                y_root.rows()
            };
            y_upper.push(y_root.block(lo, 0, hi - lo, w));
        }

        // ---------------------------------------------------------------- backward
        for (lf, z_r) in self.levels.iter().zip(saved_zr.iter()).rev() {
            let nb = lf.nb;
            // Skeleton solutions of this level, extracted from the parent solution.
            let y_s: Vec<Matrix> = match self.options.hierarchy {
                Hierarchy::MultiLevel => {
                    let mut out = Vec::with_capacity(nb);
                    for ip in 0..nb / 2 {
                        let k_left = lf.clusters[2 * ip].skeleton;
                        let parent = &y_upper[ip];
                        out.push(parent.block(0, 0, k_left, w));
                        out.push(parent.block(k_left, 0, parent.rows() - k_left, w));
                    }
                    out
                }
                Hierarchy::SingleLevel => y_upper.clone(),
            };
            // Backward substitution over the redundant blocks in reverse order.
            let mut y_r: Vec<Matrix> = (0..nb).map(|_| Matrix::zeros(0, w)).collect();
            for k in (0..nb).rev() {
                let c = &lf.clusters[k];
                if c.redundant == 0 {
                    continue;
                }
                let mut t = z_r[k].clone();
                for &j in &lf.neighbours[k] {
                    if j > k {
                        if let Some(m) = lf.row_rr.get(&(k, j)) {
                            sub_panel(&mut t, m, &y_r[j]);
                        }
                    }
                }
                let mut skeleton_sources = lf.neighbours[k].clone();
                skeleton_sources.push(k);
                for j in skeleton_sources {
                    if let Some(m) = lf.row_rs.get(&(k, j)) {
                        sub_panel(&mut t, m, &y_s[j]);
                    }
                }
                y_r[k] =
                    c.lu.as_ref()
                        .unwrap_or_else(|| unreachable!("redundant block without LU"))
                        .backward_panel(&t);
            }
            // Transform back with the column bases: X_i = P_i [Y_R; Y_S].
            let x_level: Vec<Matrix> = (0..nb)
                .map(|i| {
                    let c = &lf.clusters[i];
                    let packed = y_r[i].vcat(&y_s[i]);
                    matmul_colwise(&c.p, &packed)
                })
                .collect();
            y_upper = x_level;
        }

        // `y_upper` now holds the per-leaf solution panels in tree ordering.
        let mut x = Matrix::zeros(b.rows(), w);
        for (i, xi) in y_upper.iter().enumerate() {
            let range = self.tree.cluster_at(leaf_level, i).range();
            x.set_block(range.start, 0, xi);
        }
        x
    }

    /// Solve with `b` given in the original point ordering, returning `x` in the
    /// original ordering as well.
    ///
    /// # Errors
    /// Same conditions as [`UlvFactors::solve`].
    pub fn solve_original_order(&self, b: &[f64]) -> SolverResult<Vec<f64>> {
        if b.len() != self.tree.num_points() {
            return Err(SolverError::ShapeMismatch {
                op: "solve",
                expected: self.tree.num_points(),
                got: b.len(),
            });
        }
        let bt = self.tree.permute_to_tree(b);
        let xt = self.solve(&bt)?;
        Ok(self.tree.permute_from_tree(&xt))
    }

    /// Panel variant of [`UlvFactors::solve_original_order`]: columns are
    /// permuted to tree ordering, solved in one sweep, and permuted back.
    ///
    /// # Errors
    /// Same conditions as [`UlvFactors::vsolve`].
    pub fn vsolve_original_order(&self, b: &Matrix) -> SolverResult<Matrix> {
        let n = self.tree.num_points();
        if b.rows() != n {
            return Err(SolverError::ShapeMismatch {
                op: "vsolve",
                expected: n,
                got: b.rows(),
            });
        }
        let cols: Vec<Vec<f64>> = (0..b.cols())
            .map(|j| self.tree.permute_to_tree(b.col(j)))
            .collect();
        let xt = self.vsolve(&Matrix::from_columns(&cols))?;
        let back: Vec<Vec<f64>> = (0..xt.cols())
            .map(|j| self.tree.permute_from_tree(xt.col(j)))
            .collect();
        Ok(Matrix::from_columns(&back))
    }

    /// How many [`UlvFactors::solve_refined`] steps the factorization's own
    /// configuration calls for: mixed-precision SRFT compression trades basis
    /// accuracy for construction speed, so it is paired with two refinement
    /// steps by default; every f64 compression path solves accurately enough
    /// on its own and gets none.
    pub fn default_refine_steps(&self) -> usize {
        use crate::options::{CompressionMode, SketchPrecision};
        match self.options.compression {
            CompressionMode::Srft { precision, .. }
                if precision.effective_for_tol(self.options.tol) == SketchPrecision::F32 =>
            {
                2
            }
            _ => 0,
        }
    }

    /// Solve followed by `steps` rounds of residual-driven iterative refinement:
    /// `r = b - A x` is evaluated with exact kernel entries (assembled in row
    /// blocks, so no `n x n` matrix is ever held) and the factorization solves
    /// for the correction.  Each step costs one kernel sweep plus one extra
    /// solve — cheap next to the factorization — and recovers the accuracy a
    /// reduced-precision compression left on the table.  Returns the iterate
    /// with the smallest residual norm, so refinement never degrades the plain
    /// solve.  Deterministic: no randomness, fixed evaluation order.  The
    /// width-1 case of [`UlvFactors::vsolve_refined`], bitwise identical to the
    /// corresponding column of any refined panel solve.
    ///
    /// # Errors
    /// Same conditions as [`UlvFactors::solve`].
    pub fn solve_refined(
        &self,
        kernel: &dyn h2_geometry::Kernel,
        b: &[f64],
        steps: usize,
    ) -> SolverResult<Vec<f64>> {
        if b.len() != self.tree.num_points() {
            return Err(SolverError::ShapeMismatch {
                op: "solve",
                expected: self.tree.num_points(),
                got: b.len(),
            });
        }
        if let Some(i) = b.iter().position(|x| !x.is_finite()) {
            return Err(SolverError::NonFiniteInput {
                context: format!("right-hand side entry {i} is non-finite"),
            });
        }
        let bm = Matrix::from_columns(&[b.to_vec()]);
        Ok(self.vsolve_refined(kernel, &bm, steps)?.col_vec(0))
    }

    /// Panel iterative refinement: [`UlvFactors::vsolve`] followed by `steps`
    /// rounds of residual correction, tracked **per column** — each column keeps
    /// its own best iterate and freezes once its residual is exactly zero, so
    /// the f32-SRFT refinement contract of [`UlvFactors::solve_refined`] holds
    /// column by column.  The kernel sweep for the residual is shared by the
    /// whole panel (one row-block assembly serves all `w` columns), which is
    /// where the refined panel solve wins over `w` refined single solves.
    ///
    /// # Errors
    /// Same conditions as [`UlvFactors::vsolve`].
    pub fn vsolve_refined(
        &self,
        kernel: &dyn h2_geometry::Kernel,
        b: &Matrix,
        steps: usize,
    ) -> SolverResult<Matrix> {
        let mut x = self.vsolve(b)?;
        if steps == 0 || b.cols() == 0 {
            return Ok(x);
        }
        let w = b.cols();
        let col_norm2 = |m: &Matrix, j: usize| m.col(j).iter().map(|a| a * a).sum::<f64>();
        let mut best = x.clone();
        // One exact-kernel sweep per iterate: the residual that scores a step
        // is the right-hand side of the next one.
        let mut r = self.kernel_residual_panel(kernel, b, &x);
        let mut best_rr: Vec<f64> = (0..w).map(|j| col_norm2(&r, j)).collect();
        for _ in 0..steps {
            if best_rr.iter().all(|&rr| rr == 0.0) {
                break;
            }
            let dx = self.vsolve_inner(&r);
            for j in 0..w {
                if best_rr[j] == 0.0 {
                    continue;
                }
                for (xi, di) in x.col_mut(j).iter_mut().zip(dx.col(j)) {
                    *xi += di;
                }
            }
            r = self.kernel_residual_panel(kernel, b, &x);
            for j in 0..w {
                if best_rr[j] == 0.0 {
                    continue;
                }
                let rr = col_norm2(&r, j);
                if rr < best_rr[j] {
                    best_rr[j] = rr;
                    best.col_mut(j).copy_from_slice(x.col(j));
                }
            }
        }
        Ok(best)
    }

    /// Solve to a requested relative residual (sampled estimate): run the plain
    /// solve, then escalate iterative refinement — the configuration's default
    /// step count, then doubling twice — until the sampled relative residual
    /// drops below `rtol`.  Escalations beyond the default step count are
    /// counted in [`UlvFactors::refine_escalations`].
    ///
    /// # Errors
    /// Everything [`UlvFactors::solve`] reports, plus
    /// [`SolverError::ToleranceNotMet`] carrying the best achieved residual
    /// when the escalation ladder is exhausted (the best iterate is discarded;
    /// callers wanting it regardless should use [`UlvFactors::solve_refined`]).
    pub fn solve_to_tolerance(
        &self,
        kernel: &dyn h2_geometry::Kernel,
        b: &[f64],
        rtol: f64,
    ) -> SolverResult<Vec<f64>> {
        const RESIDUAL_PROBES: usize = 256;
        let base = self.default_refine_steps();
        // 0 (or the default), then two doublings of max(base, 2).
        let floor = base.max(2);
        let ladder = [base, floor * 2, floor * 4];
        let mut best: Option<(f64, Vec<f64>)> = None;
        let mut steps_used = 0;
        for (rung, &steps) in ladder.iter().enumerate() {
            let x = self.solve_refined(kernel, b, steps)?;
            let res = self.residual_sampled(kernel, b, &x, RESIDUAL_PROBES, self.options.seed)?;
            steps_used = steps;
            if res <= rtol {
                return Ok(x);
            }
            if rung > 0 {
                self.refine_escalations.fetch_add(1, Ordering::Relaxed);
            }
            if best.as_ref().is_none_or(|(r, _)| res < *r) {
                best = Some((res, x));
            }
        }
        let achieved = best.map(|(r, _)| r).unwrap_or(f64::INFINITY);
        Err(SolverError::ToleranceNotMet {
            requested: rtol,
            achieved,
            refine_steps: steps_used,
        })
    }

    /// The residual panel `B - A X` in tree ordering, with the kernel matrix
    /// assembled in row blocks of bounded size (never the full `n x n` matrix
    /// at once).  Width-stable: each column matches the single-vector residual
    /// bitwise at any panel width, and one assembly sweep serves all columns.
    fn kernel_residual_panel(
        &self,
        kernel: &dyn h2_geometry::Kernel,
        b: &Matrix,
        x: &Matrix,
    ) -> Matrix {
        const ROW_BLOCK: usize = 512;
        let n = self.tree.num_points();
        let w = b.cols();
        let mut r = b.clone();
        for start in (0..n).step_by(ROW_BLOCK) {
            let stop = (start + ROW_BLOCK).min(n);
            let rows = &self.tree.perm[start..stop];
            let a = kernel.assemble(&self.tree.points, rows, &self.tree.perm);
            let mut ax = Matrix::zeros(stop - start, w);
            gemm_colwise(1.0, &a, x, 0.0, &mut ax);
            for j in 0..w {
                let rcol = &mut r.col_mut(j)[start..stop];
                for (ri, &v) in rcol.iter_mut().zip(ax.col(j)) {
                    *ri -= v;
                }
            }
        }
        r
    }

    /// Relative residual `||A x - b|| / ||b||` measured with an exact (dense) kernel
    /// matrix-vector product — a direct accuracy check used by the tests.
    pub fn residual_with(&self, kernel: &dyn h2_geometry::Kernel, b: &[f64], x: &[f64]) -> f64 {
        let order = self.tree.perm.clone();
        let a = kernel.assemble(&self.tree.points, &order, &order);
        let mut ax = vec![0.0; x.len()];
        gemv(1.0, &a, false, x, 0.0, &mut ax);
        h2_matrix::rel_l2_error(&ax, b)
    }

    /// Sampled estimate of the relative residual `||A x - b|| / ||b||`: evaluates
    /// `probes` uniformly sampled rows of the exact kernel matrix against `x`
    /// (`O(probes · n)` kernel entries instead of the `O(n²)` dense check) and
    /// scales the sampled residual norm up by `n / probes` — an unbiased estimator
    /// of `||A x - b||²`, exact when `probes >= n`.  Deterministic in `seed`.
    ///
    /// # Errors
    /// [`SolverError::ShapeMismatch`] when `b` or `x` has the wrong length —
    /// part of the panic-free solver contract.
    pub fn residual_sampled(
        &self,
        kernel: &dyn h2_geometry::Kernel,
        b: &[f64],
        x: &[f64],
        probes: usize,
        seed: u64,
    ) -> SolverResult<f64> {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let n = self.tree.num_points();
        if b.len() != n {
            return Err(SolverError::ShapeMismatch {
                op: "residual_sampled (rhs)",
                expected: n,
                got: b.len(),
            });
        }
        if x.len() != n {
            return Err(SolverError::ShapeMismatch {
                op: "residual_sampled (solution)",
                expected: n,
                got: x.len(),
            });
        }
        let p = probes.clamp(1, n);
        // Sampled tree-order row positions (all rows when probes >= n).
        let mut pos: Vec<usize> = (0..n).collect();
        if p < n {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed_0f0f_ab1e_d00d);
            pos.shuffle(&mut rng);
            pos.truncate(p);
            pos.sort_unstable();
        }
        let rows: Vec<usize> = pos.iter().map(|&t| self.tree.perm[t]).collect();
        // The sampled rows of A in tree ordering (columns follow the permutation,
        // matching `residual_with`'s dense assembly).
        let a = kernel.assemble(&self.tree.points, &rows, &self.tree.perm);
        let mut ax = vec![0.0; p];
        gemv(1.0, &a, false, x, 0.0, &mut ax);
        let mut rr = 0.0;
        for (t, &tree_pos) in pos.iter().enumerate() {
            let r = ax[t] - b[tree_pos];
            rr += r * r;
        }
        let bb: f64 = b.iter().map(|v| v * v).sum();
        Ok(((rr * n as f64 / p as f64) / bb.max(f64::MIN_POSITIVE)).sqrt())
    }
}
