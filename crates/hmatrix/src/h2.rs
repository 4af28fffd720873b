//! The H² (and HSS) hierarchical format with nested shared bases.
//!
//! Structure stored (following Fig. 2 of the paper):
//!
//! * one orthonormal **leaf basis** `U_i` per leaf cluster,
//! * one **transfer matrix** `E_i` per non-leaf cluster, so the basis of a parent is
//!   `diag(U_c1, U_c2) * E_i` without ever materialising it,
//! * a small **coupling (skeleton) matrix** `S_ij` for every admissible pair at every
//!   level (Eq. 1),
//! * the **dense leaf blocks** for inadmissible neighbour pairs.
//!
//! With weak admissibility this is exactly an HSS matrix; with strong admissibility it
//! is an H² matrix.  The format supports `matvec` (the classic upward / interaction /
//! downward sweep), storage accounting and dense reconstruction for validation.
//!
//! Construction runs as one executable task graph on the work-stealing live
//! runtime ([`live_scope`]): per-leaf basis tasks, per-parent transfer tasks with
//! bottom-up dependencies, per-pair coupling tasks and dense-leaf tasks all
//! overlap wherever the dependencies allow — tasks start the moment they are
//! registered, which is the same submission contract the fused ULV factorization
//! uses, so a caller may embed this construction into a larger live graph.
//! Each level's explicit
//! bases are freed the moment their last consumer (the parent transfer and the
//! level's couplings or skeleton selections) has run, so peak construction memory is
//! `O(n k)` instead of `O(n k depth)`.  Every task writes one private slot and the
//! outputs are collected in construction order, so the built matrix is bitwise
//! identical at any thread count.

use crate::basis::{build_transfer_matrix_with, compress_basis_split, far_field_matrix, BasisMode};
use crate::partition::BlockPartition;
use h2_geometry::{Admissibility, ClusterTree, Kernel};
use h2_lowrank::CompressionMode;
use h2_matrix::{
    lu_factor, lu_solve_mat, matmul, matmul_tn, select_interpolation_rows, Lu, Matrix, SolverError,
    SolverResult,
};
use h2_runtime::{live_scope, TaskId, TaskKind, ThreadPool};
use parking_lot::Mutex;
use std::sync::Arc;
use std::sync::OnceLock;

/// Construction options for [`H2Matrix::build`].
#[derive(Debug, Clone, Copy)]
pub struct H2Options {
    /// Relative compression tolerance.
    pub tol: f64,
    /// Optional cap on basis ranks.
    pub max_rank: Option<usize>,
    /// Exact or sampled basis construction.
    pub mode: BasisMode,
    /// Direct pivoted QR (reference) or Gaussian-sketch compression (fast default).
    pub compression: CompressionMode,
    /// Compute couplings from skeleton rows/columns (`k x k` kernel evaluations per
    /// admissible pair) instead of assembling the full pair and projecting it with
    /// `U^T · A · U`.  Falls back to the exact path per cluster when the rank does
    /// not allow a well-conditioned interpolation.
    pub skeleton_couplings: bool,
    /// Worker threads for the construction DAG (`0` = `H2_NUM_THREADS` env or the
    /// available parallelism).  The result is bitwise identical for every count.
    pub num_threads: usize,
    /// Seed for the sampled mode.
    pub seed: u64,
}

impl Default for H2Options {
    fn default() -> Self {
        H2Options {
            tol: 1e-6,
            max_rank: None,
            mode: BasisMode::Exact,
            compression: CompressionMode::default(),
            skeleton_couplings: true,
            num_threads: 0,
            seed: 0,
        }
    }
}

/// An H²/HSS matrix.
#[derive(Debug, Clone)]
pub struct H2Matrix {
    /// The cluster tree the matrix is built over (shared, not deep-copied).
    pub tree: Arc<ClusterTree>,
    /// The block partition (admissibility classification).
    pub partition: BlockPartition,
    /// Leaf bases, one per leaf cluster (orthonormal, `m_i x k_i`).
    pub leaf_bases: Vec<Matrix>,
    /// Transfer matrices per level `0..depth` (index `[level][i]`), each
    /// `(k_c1 + k_c2) x k_i`; empty matrices where a cluster has no admissible
    /// interactions at or above that level.
    pub transfers: Vec<Vec<Matrix>>,
    /// Coupling matrices per level: `(level, i, j, S_ij)` for admissible pairs.
    pub couplings: Vec<(usize, usize, usize, Matrix)>,
    /// Dense leaf blocks: `(i, j, A_ij)` for inadmissible leaf pairs.
    pub dense: Vec<(usize, usize, Matrix)>,
}

/// Skeleton interpolation data of one cluster during construction: selected
/// original-point rows `r` of the explicit basis `M`, and the LU of `R = M[r, :]`.
/// Because `M^T M = I`, couplings satisfy `S ≈ R_i^{-1} A[r_i, r_j] R_j^{-T}`.
struct H2Interp {
    rows: Vec<usize>,
    lu: Lu,
}

/// The far-field basis of one leaf cluster (the per-task unit of the DAG build).
fn build_leaf_bases_single(
    kernel: &dyn Kernel,
    tree: &ClusterTree,
    partition: &BlockPartition,
    i: usize,
    opts: &H2Options,
) -> Matrix {
    let a = far_field_matrix(kernel, tree, partition, tree.depth, i, opts.mode, opts.seed);
    compress_basis_split(
        &a,
        opts.tol,
        opts.max_rank,
        opts.compression,
        opts.seed ^ (i as u64) << 8,
    )
    .skeleton
}

/// Select well-conditioned interpolation rows of an explicit basis `m` (orthonormal
/// columns) via [`select_interpolation_rows`]; `None` when the rank or conditioning
/// does not allow it (the coupling task then falls back to exact assembly).
fn build_h2_interp(m: &Matrix, cand_rows: &[usize]) -> Option<H2Interp> {
    let (positions, rmat) = select_interpolation_rows(m, h2_matrix::INTERP_COND_TOL)?;
    let rows = positions.into_iter().map(|p| cand_rows[p]).collect();
    let lu = lu_factor(&rmat).ok()?;
    Some(H2Interp { rows, lu })
}

impl H2Matrix {
    /// Assemble an H² (strong admissibility) or HSS (weak admissibility) matrix.
    pub fn build(
        kernel: &dyn Kernel,
        tree: &ClusterTree,
        adm: &Admissibility,
        opts: &H2Options,
    ) -> SolverResult<Self> {
        Self::build_arc(kernel, Arc::new(tree.clone()), adm, opts)
    }

    /// [`H2Matrix::build`] from a shared tree, avoiding the deep copy of the point
    /// cloud and cluster metadata.
    pub fn build_arc(
        kernel: &dyn Kernel,
        tree: Arc<ClusterTree>,
        adm: &Admissibility,
        opts: &H2Options,
    ) -> SolverResult<Self> {
        if let Some(i) = h2_geometry::first_non_finite(&tree.points) {
            return Err(SolverError::NonFiniteInput {
                context: format!("input point {i} has a non-finite coordinate"),
            });
        }
        let partition = BlockPartition::build(&tree, adm);
        let depth = tree.depth;
        let num_leaves = tree.num_leaves();

        // ------------------------------------------------------------ output slots
        // `explicit[level][i]` holds the materialized basis only between its
        // producer and its free task.
        let explicit: Vec<Vec<Mutex<Option<Matrix>>>> = (0..=depth)
            .map(|level| (0..1usize << level).map(|_| Mutex::new(None)).collect())
            .collect();
        let interp: Vec<Vec<OnceLock<Option<H2Interp>>>> = (0..=depth)
            .map(|level| (0..1usize << level).map(|_| OnceLock::new()).collect())
            .collect();
        let leaf_slots: Vec<OnceLock<Matrix>> = (0..num_leaves).map(|_| OnceLock::new()).collect();
        let transfer_slots: Vec<Vec<OnceLock<Matrix>>> = (0..depth)
            .map(|level| (0..1usize << level).map(|_| OnceLock::new()).collect())
            .collect();
        let admissible: Vec<(usize, Vec<(usize, usize)>)> = (0..=depth)
            .map(|level| (level, partition.admissible_pairs(level)))
            .collect();
        let coupling_slots: Vec<Vec<OnceLock<Matrix>>> = admissible
            .iter()
            .map(|(_, pairs)| pairs.iter().map(|_| OnceLock::new()).collect())
            .collect();
        let dense_pairs: Vec<(usize, usize)> = partition.dense_pairs(depth);
        let dense_slots: Vec<OnceLock<Matrix>> =
            dense_pairs.iter().map(|_| OnceLock::new()).collect();

        // ------------------------------------------------------------- task graph
        // Tasks are registered into a live scope and start the moment their
        // dependencies are done — registration and execution overlap, the same
        // submission contract as the fused ULV factorization graph.
        let pool = ThreadPool::new(h2_runtime::resolve_num_threads(opts.num_threads));
        let tree_ref: &ClusterTree = &tree;
        let partition_ref = &partition;
        live_scope(&pool, |scope| {
            // Producer task id of each cluster's explicit basis, and its consumers
            // (for the free tasks registered at the end).
            let mut basis_task: Vec<Vec<TaskId>> = vec![Vec::new(); depth + 1];
            let mut consumers: Vec<Vec<Vec<TaskId>>> = (0..=depth)
                .map(|level| vec![Vec::new(); 1usize << level])
                .collect();

            // Leaf basis tasks: far-field compression of one leaf, producing both the
            // stored leaf basis and the explicit slot (they coincide at the leaves).
            for i in 0..num_leaves {
                let m = tree_ref.leaf(i).len;
                let leaf_slot = &leaf_slots[i];
                let expl_slot = &explicit[depth][i];
                let interp_slot = &interp[depth][i];
                let id = scope.submit(TaskKind::Basis, (m * m * m) as f64, &[], move |_| {
                    let bases = build_leaf_bases_single(kernel, tree_ref, partition_ref, i, opts);
                    if opts.skeleton_couplings {
                        let cluster = tree_ref.leaf(i);
                        let _ = interp_slot
                            .set(build_h2_interp(&bases, tree_ref.original_indices(cluster)));
                    } else {
                        let _ = interp_slot.set(None);
                    }
                    *expl_slot.lock() = Some(bases.clone());
                    let _ = leaf_slot.set(bases);
                });
                basis_task[depth].push(id);
            }

            // Transfer tasks, bottom-up: parent explicit = diag(c1, c2) * E.
            for level in (0..depth).rev() {
                let nb = 1usize << level;
                for i in 0..nb {
                    let deps = [
                        basis_task[level + 1][2 * i],
                        basis_task[level + 1][2 * i + 1],
                    ];
                    let m = tree_ref.cluster_at(level, i).len;
                    let c1_slot = &explicit[level + 1][2 * i];
                    let c2_slot = &explicit[level + 1][2 * i + 1];
                    let expl_slot = &explicit[level][i];
                    let interp_slot = &interp[level][i];
                    let transfer_slot = &transfer_slots[level][i];
                    let id = scope.submit(TaskKind::Basis, (m * m) as f64, &deps, move |_| {
                        // Clone the children out of their slots instead of holding the
                        // locks across the transfer build: the far-field assembly + QR
                        // is the most expensive task at this level, and exact-path
                        // coupling tasks would otherwise serialize behind it.
                        let c1 = c1_slot
                            .lock()
                            .as_ref()
                            .unwrap_or_else(|| unreachable!("child basis alive (dependency)"))
                            .clone();
                        let c2 = c2_slot
                            .lock()
                            .as_ref()
                            .unwrap_or_else(|| unreachable!("child basis alive (dependency)"))
                            .clone();
                        let e = build_transfer_matrix_with(
                            kernel,
                            tree_ref,
                            partition_ref,
                            level,
                            i,
                            (&c1, &c2),
                            opts.tol,
                            opts.max_rank,
                            opts.mode,
                            opts.compression,
                            opts.seed,
                        );
                        // Explicit basis of the parent: diag(c1, c2) * E.
                        let k1 = c1.cols();
                        let top = matmul(&c1, &e.block(0, 0, k1, e.cols()));
                        let bot = matmul(&c2, &e.block(k1, 0, e.rows() - k1, e.cols()));
                        let x = top.vcat(&bot);
                        drop(c1);
                        drop(c2);
                        if opts.skeleton_couplings {
                            let cluster = tree_ref.cluster_at(level, i);
                            let _ = interp_slot
                                .set(build_h2_interp(&x, tree_ref.original_indices(cluster)));
                        } else {
                            let _ = interp_slot.set(None);
                        }
                        *expl_slot.lock() = Some(x);
                        let _ = transfer_slot.set(e);
                    });
                    basis_task[level].push(id);
                    consumers[level + 1][2 * i].push(id);
                    consumers[level + 1][2 * i + 1].push(id);
                }
            }

            // Coupling tasks: one per admissible pair per level.
            for (lx, (level, pairs)) in admissible.iter().enumerate() {
                let level = *level;
                for (px, &(i, j)) in pairs.iter().enumerate() {
                    let mi = tree_ref.cluster_at(level, i).len;
                    let mj = tree_ref.cluster_at(level, j).len;
                    let deps = [basis_task[level][i], basis_task[level][j]];
                    let slot = &coupling_slots[lx][px];
                    let ei = &explicit[level][i];
                    let ej = &explicit[level][j];
                    let ii = &interp[level][i];
                    let ij = &interp[level][j];
                    let id = scope.submit(TaskKind::Coupling, (mi * mj) as f64, &deps, move |_| {
                        let clusters = tree_ref.clusters_at_level(level);
                        let s = match (
                            ii.get().and_then(|o| o.as_ref()),
                            ij.get().and_then(|o| o.as_ref()),
                        ) {
                            (Some(ri), Some(rj)) => {
                                // S ≈ R_i^{-1} · A[r_i, r_j] · R_j^{-T}.
                                let a_rc = kernel.assemble(&tree_ref.points, &ri.rows, &rj.rows);
                                let x = lu_solve_mat(&ri.lu, &a_rc);
                                lu_solve_mat(&rj.lu, &x.transpose()).transpose()
                            }
                            _ => {
                                let a = kernel.assemble(
                                    &tree_ref.points,
                                    tree_ref.original_indices(&clusters[i]),
                                    tree_ref.original_indices(&clusters[j]),
                                );
                                // Lock the two explicit-basis slots in global index
                                // order: the mirrored coupling task (j, i) exists and
                                // acquiring in pair order would be a classic AB-BA
                                // deadlock under >= 2 workers.
                                let (lo_guard, hi_guard) = if i < j {
                                    let g1 = ei.lock();
                                    let g2 = ej.lock();
                                    (g1, g2)
                                } else {
                                    let g2 = ej.lock();
                                    let g1 = ei.lock();
                                    (g2, g1)
                                };
                                let (ei_guard, ej_guard) = if i < j {
                                    (&lo_guard, &hi_guard)
                                } else {
                                    (&hi_guard, &lo_guard)
                                };
                                let ui = ei_guard.as_ref().unwrap_or_else(|| {
                                    unreachable!("row basis alive (dependency)")
                                });
                                let uj = ej_guard.as_ref().unwrap_or_else(|| {
                                    unreachable!("col basis alive (dependency)")
                                });
                                matmul(&matmul_tn(ui, &a), uj)
                            }
                        };
                        let _ = slot.set(s);
                    });
                    consumers[level][i].push(id);
                    consumers[level][j].push(id);
                }
            }

            // Dense leaf tasks (no dependencies).
            let leaf_clusters = tree_ref.clusters_at_level(depth);
            for (px, &(i, j)) in dense_pairs.iter().enumerate() {
                let mi = leaf_clusters[i].len;
                let mj = leaf_clusters[j].len;
                let slot = &dense_slots[px];
                scope.submit(TaskKind::Other, (mi * mj) as f64, &[], move |_| {
                    let a = kernel.assemble(
                        &tree_ref.points,
                        tree_ref.original_indices(&leaf_clusters[i]),
                        tree_ref.original_indices(&leaf_clusters[j]),
                    );
                    let _ = slot.set(a);
                });
            }

            // Free tasks: drop each cluster's explicit basis as soon as its parent
            // transfer and every same-level consumer have run — peak memory O(n k).
            for level in (1..=depth).rev() {
                for i in 0..1usize << level {
                    if consumers[level][i].is_empty() {
                        continue;
                    }
                    let slot = &explicit[level][i];
                    scope.submit(TaskKind::Other, 0.0, &consumers[level][i], move |_| {
                        *slot.lock() = None;
                    });
                }
            }
        })
        .map_err(|p| SolverError::TaskPanicked {
            what: p.to_string(),
        })?;

        // Collect in construction order (bitwise thread-count independence).
        // A non-finite collected block means the kernel itself produced
        // NaN/inf on these points — a typed input error, not a panic.
        let finite = |m: &Matrix| (0..m.cols()).all(|j| m.col(j).iter().all(|x| x.is_finite()));
        let mut leaf_bases: Vec<Matrix> = Vec::with_capacity(num_leaves);
        for (i, s) in leaf_slots.into_iter().enumerate() {
            let m = s
                .into_inner()
                .unwrap_or_else(|| unreachable!("leaf basis task did not run"));
            if !finite(&m) {
                return Err(SolverError::NonFiniteInput {
                    context: format!("far-field panel of leaf cluster {i} is non-finite"),
                });
            }
            leaf_bases.push(m);
        }
        let transfers: Vec<Vec<Matrix>> = transfer_slots
            .into_iter()
            .map(|level| {
                level
                    .into_iter()
                    .map(|s| {
                        s.into_inner()
                            .unwrap_or_else(|| unreachable!("transfer task did not run"))
                    })
                    .collect()
            })
            .collect();
        let mut couplings = Vec::new();
        for ((level, pairs), slots) in admissible.into_iter().zip(coupling_slots) {
            for (&(i, j), s) in pairs.iter().zip(slots) {
                let m = s
                    .into_inner()
                    .unwrap_or_else(|| unreachable!("coupling task did not run"));
                if !finite(&m) {
                    return Err(SolverError::NonFiniteInput {
                        context: format!("coupling ({i}, {j}) at level {level} is non-finite"),
                    });
                }
                couplings.push((level, i, j, m));
            }
        }
        let mut dense: Vec<(usize, usize, Matrix)> = Vec::with_capacity(dense_pairs.len());
        for (&(i, j), s) in dense_pairs.iter().zip(dense_slots) {
            let m = s
                .into_inner()
                .unwrap_or_else(|| unreachable!("dense task did not run"));
            if !finite(&m) {
                return Err(SolverError::NonFiniteInput {
                    context: format!("dense leaf block ({i}, {j}) is non-finite"),
                });
            }
            dense.push((i, j, m));
        }

        Ok(H2Matrix {
            tree,
            partition,
            leaf_bases,
            transfers,
            couplings,
            dense,
        })
    }

    /// Total dimension.
    pub fn dim(&self) -> usize {
        self.tree.num_points()
    }

    /// Storage in floating-point words (bases + transfers + couplings + dense blocks).
    pub fn storage(&self) -> usize {
        let b: usize = self.leaf_bases.iter().map(|u| u.rows() * u.cols()).sum();
        let t: usize = self
            .transfers
            .iter()
            .flat_map(|l| l.iter())
            .map(|e| e.rows() * e.cols())
            .sum();
        let c: usize = self
            .couplings
            .iter()
            .map(|(_, _, _, s)| s.rows() * s.cols())
            .sum();
        let d: usize = self.dense.iter().map(|(_, _, m)| m.rows() * m.cols()).sum();
        b + t + c + d
    }

    /// Maximum basis rank over leaves and transfer levels.
    pub fn max_rank(&self) -> usize {
        let leaf = self.leaf_bases.iter().map(|u| u.cols()).max().unwrap_or(0);
        let upper = self
            .transfers
            .iter()
            .flat_map(|l| l.iter())
            .map(|e| e.cols())
            .max()
            .unwrap_or(0);
        leaf.max(upper)
    }

    /// Explicit basis of cluster `(level, i)` (materialised through the transfer
    /// chain; O(m k) work, used by reconstruction and tests).
    pub fn explicit_basis(&self, level: usize, i: usize) -> Matrix {
        if level == self.tree.depth {
            return self.leaf_bases[i].clone();
        }
        let c1 = self.explicit_basis(level + 1, 2 * i);
        let c2 = self.explicit_basis(level + 1, 2 * i + 1);
        let e = &self.transfers[level][i];
        if e.cols() == 0 {
            return Matrix::zeros(c1.rows() + c2.rows(), 0);
        }
        let k1 = c1.cols();
        let top = matmul(&c1, &e.block(0, 0, k1, e.cols()));
        let bot = matmul(&c2, &e.block(k1, 0, e.rows() - k1, e.cols()));
        top.vcat(&bot)
    }

    /// Matrix-vector product `y = A x`, with `x` in tree ordering.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(x.len(), n);
        let depth = self.tree.depth;
        // Upward pass: xhat[level][i] = (basis of cluster i at level)^T * x restricted.
        let mut xhat: Vec<Vec<Vec<f64>>> = vec![Vec::new(); depth + 1];
        // Leaves.
        xhat[depth] = (0..self.tree.num_leaves())
            .map(|i| {
                let c = self.tree.cluster_at(depth, i);
                let xi = &x[c.range()];
                let mut t = vec![0.0; self.leaf_bases[i].cols()];
                h2_matrix::gemv(1.0, &self.leaf_bases[i], true, xi, 0.0, &mut t);
                t
            })
            .collect();
        // Upper levels through transfers: xhat_parent = E^T [xhat_c1; xhat_c2].
        for level in (0..depth).rev() {
            let nb = 1usize << level;
            xhat[level] = (0..nb)
                .map(|i| {
                    let e = &self.transfers[level][i];
                    if e.cols() == 0 {
                        return Vec::new();
                    }
                    let mut stacked = xhat[level + 1][2 * i].clone();
                    stacked.extend_from_slice(&xhat[level + 1][2 * i + 1]);
                    let mut t = vec![0.0; e.cols()];
                    h2_matrix::gemv(1.0, e, true, &stacked, 0.0, &mut t);
                    t
                })
                .collect();
        }
        // Interaction pass: yhat[level][i] += S_ij * xhat[level][j].
        let mut yhat: Vec<Vec<Vec<f64>>> = (0..=depth)
            .map(|level| {
                (0..(1usize << level))
                    .map(|i| {
                        let k = if level == depth {
                            self.leaf_bases[i].cols()
                        } else {
                            self.transfers[level][i].cols()
                        };
                        vec![0.0; k]
                    })
                    .collect()
            })
            .collect();
        for (level, i, j, s) in &self.couplings {
            if s.cols() != xhat[*level][*j].len() || s.rows() != yhat[*level][*i].len() {
                // Degenerate empty-basis case; the coupling is empty too.
                continue;
            }
            h2_matrix::gemv(1.0, s, false, &xhat[*level][*j], 1.0, &mut yhat[*level][*i]);
        }
        // Downward pass: push yhat from parents into children, then expand at leaves.
        for level in 0..depth {
            let nb = 1usize << level;
            for i in 0..nb {
                let e = &self.transfers[level][i];
                if e.cols() == 0 || yhat[level][i].is_empty() {
                    continue;
                }
                let mut stacked = vec![0.0; e.rows()];
                h2_matrix::gemv(1.0, e, false, &yhat[level][i], 0.0, &mut stacked);
                let k1 = yhat[level + 1][2 * i].len();
                for (a, b) in yhat[level + 1][2 * i].iter_mut().zip(&stacked[..k1]) {
                    *a += b;
                }
                for (a, b) in yhat[level + 1][2 * i + 1].iter_mut().zip(&stacked[k1..]) {
                    *a += b;
                }
            }
        }
        let mut y = vec![0.0; n];
        for i in 0..self.tree.num_leaves() {
            let c = self.tree.cluster_at(depth, i);
            let yi = &mut y[c.range()];
            h2_matrix::gemv(1.0, &self.leaf_bases[i], false, &yhat[depth][i], 1.0, yi);
        }
        // Dense near-field blocks.
        for (i, j, d) in &self.dense {
            let ci = self.tree.cluster_at(depth, *i);
            let cj = self.tree.cluster_at(depth, *j);
            let xj = &x[cj.range()];
            let yi = &mut y[ci.range()];
            h2_matrix::gemv(1.0, d, false, xj, 1.0, yi);
        }
        y
    }

    /// Densify (tree ordering; small N only).
    pub fn to_dense(&self) -> Matrix {
        let n = self.dim();
        let mut a = Matrix::zeros(n, n);
        for (i, j, d) in &self.dense {
            let ci = self.tree.cluster_at(self.tree.depth, *i);
            let cj = self.tree.cluster_at(self.tree.depth, *j);
            a.set_block(ci.start, cj.start, d);
        }
        for (level, i, j, s) in &self.couplings {
            let ui = self.explicit_basis(*level, *i);
            let uj = self.explicit_basis(*level, *j);
            if ui.cols() == 0 || uj.cols() == 0 {
                continue;
            }
            let block = matmul(&matmul(&ui, s), &uj.transpose());
            let ci = self.tree.cluster_at(*level, *i);
            let cj = self.tree.cluster_at(*level, *j);
            a.set_block(ci.start, cj.start, &block);
        }
        a
    }

    /// The `far_field_matrix` helper re-exported for factorization drivers that want to
    /// enrich this matrix's bases (kept here so the sampling seed conventions match).
    pub fn far_field(
        &self,
        kernel: &dyn Kernel,
        level: usize,
        i: usize,
        mode: BasisMode,
        seed: u64,
    ) -> Matrix {
        far_field_matrix(kernel, &self.tree, &self.partition, level, i, mode, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_geometry::{uniform_cube, LaplaceKernel, PartitionStrategy, YukawaKernel};
    use h2_matrix::rel_fro_error;

    fn setup(n: usize, leaf: usize) -> (ClusterTree, LaplaceKernel) {
        let pts = uniform_cube(n, 23);
        (
            ClusterTree::build(&pts, leaf, PartitionStrategy::KMeans, 0),
            LaplaceKernel::default(),
        )
    }

    fn dense_reference(kernel: &dyn Kernel, tree: &ClusterTree) -> Matrix {
        let order = tree.perm.clone();
        kernel.assemble(&tree.points, &order, &order)
    }

    #[test]
    fn hss_weak_admissibility_approximates_kernel() {
        let (tree, kernel) = setup(512, 64);
        let m = H2Matrix::build(
            &kernel,
            &tree,
            &Admissibility::weak(),
            &H2Options {
                tol: 1e-4,
                ..H2Options::default()
            },
        )
        .unwrap();
        let err = rel_fro_error(&m.to_dense(), &dense_reference(&kernel, &tree));
        assert!(err < 1e-2, "HSS reconstruction error {err}");
        // For a 3-D geometry HSS ranks are large (the paper's motivation), but the
        // format must still be smaller than the dense matrix at this tolerance.
        assert!(m.storage() < 512 * 512, "storage {}", m.storage());
        // Weak admissibility: dense blocks are exactly the leaf diagonals.
        assert_eq!(m.dense.len(), tree.num_leaves());
    }

    #[test]
    fn h2_strong_admissibility_approximates_kernel_more_accurately() {
        let (tree, kernel) = setup(512, 64);
        let opts = H2Options {
            tol: 1e-8,
            ..H2Options::default()
        };
        let weak = H2Matrix::build(&kernel, &tree, &Admissibility::weak(), &opts).unwrap();
        let strong = H2Matrix::build(&kernel, &tree, &Admissibility::strong(1.0), &opts).unwrap();
        let dense = dense_reference(&kernel, &tree);
        let ew = rel_fro_error(&weak.to_dense(), &dense);
        let es = rel_fro_error(&strong.to_dense(), &dense);
        assert!(es < 1e-6, "H2 error {es}");
        // Strong admissibility keeps the hard (near-field) blocks dense, so for the
        // same tolerance its reconstruction error is at least as good.
        assert!(es <= ew * 10.0);
        // And its low-rank ranks are smaller.
        assert!(strong.max_rank() <= weak.max_rank());
    }

    #[test]
    fn matvec_matches_dense_reconstruction() {
        let (tree, kernel) = setup(400, 50);
        let m = H2Matrix::build(
            &kernel,
            &tree,
            &Admissibility::strong(1.0),
            &H2Options {
                tol: 1e-8,
                ..H2Options::default()
            },
        )
        .unwrap();
        let x: Vec<f64> = (0..m.dim())
            .map(|i| ((i % 17) as f64 - 8.0) / 8.0)
            .collect();
        let y = m.matvec(&x);
        let mut yref = vec![0.0; m.dim()];
        h2_matrix::gemv(1.0, &m.to_dense(), false, &x, 0.0, &mut yref);
        let err = h2_matrix::rel_l2_error(&y, &yref);
        assert!(err < 1e-10, "matvec vs reconstruction error {err}");
    }

    #[test]
    fn matvec_against_exact_kernel_respects_tolerance() {
        let (tree, kernel) = setup(512, 64);
        for &tol in &[1e-4, 1e-8] {
            let m = H2Matrix::build(
                &kernel,
                &tree,
                &Admissibility::strong(1.0),
                &H2Options {
                    tol,
                    ..H2Options::default()
                },
            )
            .unwrap();
            let x: Vec<f64> = (0..m.dim()).map(|i| (i as f64 * 0.1).cos()).collect();
            let y = m.matvec(&x);
            let dense = dense_reference(&kernel, &tree);
            let mut yref = vec![0.0; m.dim()];
            h2_matrix::gemv(1.0, &dense, false, &x, 0.0, &mut yref);
            let err = h2_matrix::rel_l2_error(&y, &yref);
            assert!(err < tol * 100.0, "tol {tol}: matvec error {err}");
        }
    }

    #[test]
    fn sampled_construction_is_close_to_exact() {
        let (tree, kernel) = setup(600, 64);
        let exact = H2Matrix::build(
            &kernel,
            &tree,
            &Admissibility::strong(1.0),
            &H2Options {
                tol: 1e-6,
                ..H2Options::default()
            },
        )
        .unwrap();
        let sampled = H2Matrix::build(
            &kernel,
            &tree,
            &Admissibility::strong(1.0),
            &H2Options {
                tol: 1e-6,
                mode: BasisMode::Sampled { max_samples: 200 },
                ..H2Options::default()
            },
        )
        .unwrap();
        let dense = dense_reference(&kernel, &tree);
        let ee = rel_fro_error(&exact.to_dense(), &dense);
        let es = rel_fro_error(&sampled.to_dense(), &dense);
        assert!(es < ee * 100.0 + 1e-4, "sampled error {es} vs exact {ee}");
        assert!(sampled.storage() <= exact.storage() * 2);
    }

    #[test]
    fn yukawa_kernel_also_compresses() {
        let pts = uniform_cube(400, 29);
        let tree = ClusterTree::build(&pts, 50, PartitionStrategy::KMeans, 0);
        let kernel = YukawaKernel::default();
        let m = H2Matrix::build(
            &kernel,
            &tree,
            &Admissibility::strong(1.0),
            &H2Options {
                tol: 1e-6,
                ..H2Options::default()
            },
        )
        .unwrap();
        let err = rel_fro_error(&m.to_dense(), &dense_reference(&kernel, &tree));
        assert!(err < 1e-4, "Yukawa H2 error {err}");
    }

    #[test]
    fn dag_build_is_bitwise_identical_at_any_thread_count() {
        let (tree, kernel) = setup(600, 64);
        let build = |threads: usize| {
            H2Matrix::build(
                &kernel,
                &tree,
                &Admissibility::strong(1.0),
                &H2Options {
                    tol: 1e-6,
                    num_threads: threads,
                    ..H2Options::default()
                },
            )
            .unwrap()
        };
        let m1 = build(1);
        for threads in [2, 4] {
            let mt = build(threads);
            assert_eq!(
                m1.leaf_bases, mt.leaf_bases,
                "{threads} threads: leaf bases"
            );
            assert_eq!(m1.transfers, mt.transfers, "{threads} threads: transfers");
            assert_eq!(m1.couplings.len(), mt.couplings.len());
            for (a, b) in m1.couplings.iter().zip(&mt.couplings) {
                assert_eq!(a.0, b.0);
                assert_eq!((a.1, a.2), (b.1, b.2));
                assert_eq!(a.3, b.3, "{threads} threads: coupling ({},{})", a.1, a.2);
            }
            assert_eq!(m1.dense.len(), mt.dense.len());
            for (a, b) in m1.dense.iter().zip(&mt.dense) {
                assert_eq!(a.2, b.2, "{threads} threads: dense ({},{})", a.0, a.1);
            }
        }
    }

    #[test]
    fn build_arc_shares_the_tree_without_cloning() {
        let (tree, kernel) = setup(400, 64);
        let shared = std::sync::Arc::new(tree);
        let m = H2Matrix::build_arc(
            &kernel,
            std::sync::Arc::clone(&shared),
            &Admissibility::strong(1.0),
            &H2Options::default(),
        )
        .unwrap();
        // The matrix holds the same allocation, not a deep copy.
        assert!(std::sync::Arc::ptr_eq(&m.tree, &shared));
        assert_eq!(m.dim(), shared.num_points());
        // Cloning the matrix is cheap on the tree side too (shared Arc).
        let m2 = m.clone();
        assert!(std::sync::Arc::ptr_eq(&m2.tree, &m.tree));
    }

    #[test]
    fn skeleton_couplings_match_exact_projection_closely() {
        let (tree, kernel) = setup(512, 64);
        let base = H2Options {
            tol: 1e-8,
            ..H2Options::default()
        };
        let fast = H2Matrix::build(&kernel, &tree, &Admissibility::strong(1.0), &base).unwrap();
        // 4 workers on the exact-fallback path: mirrored coupling tasks lock both
        // explicit-basis slots, so this doubles as a lock-ordering regression test
        // (an AB-BA ordering deadlocks here with >= 2 workers).
        let exact = H2Matrix::build(
            &kernel,
            &tree,
            &Admissibility::strong(1.0),
            &H2Options {
                skeleton_couplings: false,
                compression: h2_lowrank::CompressionMode::Direct,
                num_threads: 4,
                ..base
            },
        )
        .unwrap();
        let dense = dense_reference(&kernel, &tree);
        let ef = rel_fro_error(&fast.to_dense(), &dense);
        let ee = rel_fro_error(&exact.to_dense(), &dense);
        assert!(ee < 1e-6, "exact-path error {ee}");
        assert!(ef < 1e-5, "skeleton-coupling error {ef}");
    }

    #[test]
    fn nested_basis_shapes_are_consistent() {
        let (tree, kernel) = setup(512, 32);
        let m = H2Matrix::build(
            &kernel,
            &tree,
            &Admissibility::strong(1.0),
            &H2Options::default(),
        )
        .unwrap();
        for level in (0..tree.depth).rev() {
            for i in 0..(1usize << level) {
                let e = &m.transfers[level][i];
                if e.cols() == 0 {
                    continue;
                }
                // Transfer rows = sum of child ranks.
                let k1 = if level + 1 == tree.depth {
                    m.leaf_bases[2 * i].cols()
                } else {
                    m.transfers[level + 1][2 * i].cols()
                };
                let k2 = if level + 1 == tree.depth {
                    m.leaf_bases[2 * i + 1].cols()
                } else {
                    m.transfers[level + 1][2 * i + 1].cols()
                };
                assert_eq!(e.rows(), k1 + k2, "level {level} cluster {i}");
                // Explicit basis has orthonormal-ish columns (they are products of
                // orthonormal factors, hence exactly orthonormal).
                let ex = m.explicit_basis(level, i);
                let g = matmul_tn(&ex, &ex);
                assert!(g.max_abs_diff(&Matrix::identity(ex.cols())) < 1e-8);
            }
        }
    }
}
