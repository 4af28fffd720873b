//! # h2ulv — scalable linear-time dense direct solver for 3-D problems
//!
//! A from-scratch Rust reproduction of
//! *"Scalable Linear Time Dense Direct Solver for 3-D Problems Without Trailing
//! Sub-Matrix Dependencies"* (Ma, Deshmukh, Yokota — SC 2022).
//!
//! The crate is a facade over the workspace members:
//!
//! * [`matrix`] — dense linear algebra (the BLAS/LAPACK substitute),
//! * [`geometry`] — 3-D point clouds, kernels, k-means clustering, cluster trees,
//! * [`lowrank`] — ACA, truncated pivoted QR, low-rank arithmetic,
//! * [`hmatrix`] — BLR / BLR² / HSS / H² formats,
//! * [`factor`] — the ULV factorization family, including the paper's
//!   **H²-ULV without trailing sub-matrix dependencies**,
//! * [`lorapo`] — the LORAPO-style BLR baseline the paper compares against,
//! * [`runtime`] — task DAGs, a work-stealing pool and the scheduler simulator,
//! * [`mpisim`] — the process tree and network cost model of the distributed figures.
//!
//! ## Quick start
//!
//! ```
//! use h2ulv::prelude::*;
//!
//! // 1. A 3-D problem: particles in the unit cube with the Laplace kernel (Eq. 29).
//! let points = uniform_cube(600, 0);
//! let kernel = LaplaceKernel::default();
//! // 2. Cluster the points (k-means, power-of-two leaves) and factorize.
//! let tree = ClusterTree::build(&points, 64, PartitionStrategy::KMeans, 0);
//! let factors = h2_ulv_nodep(&kernel, &tree, &FactorOptions { tol: 1e-8, ..Default::default() })
//!     .expect("factorization breakdown");
//! // 3. Solve and check against a dense LU solve.
//! let b = vec![1.0; 600];
//! let x = factors.solve_original_order(&b).expect("solve failed");
//! let reference = DenseReference::build(&kernel, &tree);
//! let x_tree = tree.permute_to_tree(&x);
//! let b_tree = tree.permute_to_tree(&b);
//! assert!(reference.solution_error(&b_tree, &x_tree) < 1e-4);
//! ```

pub use h2_factor as factor;
pub use h2_geometry as geometry;
pub use h2_hmatrix as hmatrix;
pub use h2_lorapo as lorapo;
pub use h2_lowrank as lowrank;
pub use h2_matrix as matrix;
pub use h2_mpisim as mpisim;
pub use h2_runtime as runtime;
pub use h2_server as server;

/// The most commonly used items, re-exported in one place.
pub mod prelude {
    pub use h2_factor::{
        blr2_ulv, dense_solve, h2_ulv_dep, h2_ulv_nodep, hss_ulv, Analysis, DenseReference,
        FactorOptions, Hierarchy, UlvFactors, Variant,
    };
    pub use h2_geometry::{
        crowded_scene, molecule_surface, sphere_surface, uniform_cube, uniform_grid, Admissibility,
        ClusterTree, GaussianKernel, Kernel, LaplaceKernel, MaternKernel, MoleculeConfig,
        PartitionStrategy, Point3, YukawaKernel,
    };
    pub use h2_hmatrix::{BasisMode, Blr2Matrix, BlrMatrix, H2Matrix};
    pub use h2_lorapo::{BlrLuFactors, BlrLuOptions};
    pub use h2_matrix::{rel_l2_error, Matrix};
    pub use h2_matrix::{SolverError, SolverResult};
    pub use h2_runtime::{simulate_schedule, SimConfig, TaskGraph};
    pub use h2_server::{BatchPolicy, FactorCache, OperatorId, SolveServer};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let points = uniform_cube(200, 1);
        let tree = ClusterTree::build(&points, 50, PartitionStrategy::KMeans, 0);
        let kernel = LaplaceKernel::default();
        let f = h2_ulv_nodep(&kernel, &tree, &FactorOptions::default()).unwrap();
        let b = vec![1.0; 200];
        let x = f.solve_original_order(&b).unwrap();
        assert_eq!(x.len(), 200);
        assert!(x.iter().all(|v| v.is_finite()));
    }
}
