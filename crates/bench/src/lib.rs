//! # h2-bench — the paper's figures and tables
//!
//! One binary per table/figure of the paper.  This library holds the shared
//! plumbing: problem setup, solver invocation wrappers, result tables and the
//! scaled-down default problem sizes.  Performance numbers come from
//! `perfbench/`, not from here.
//!
//! Every binary honours the `H2_BENCH_SCALE` environment variable, their one
//! switch:
//!
//! * `smoke` — tiny sizes, seconds (used by the integration tests),
//! * `small` — default, minutes on one core,
//! * `large` — closer to the paper's sizes, intended for a beefier machine.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::time::Instant;

use h2_factor::{FactorOptions, UlvFactors};
use h2_geometry::{
    crowded_scene, molecule_surface, uniform_cube, Admissibility, ClusterTree, Kernel,
    LaplaceKernel, MoleculeConfig, PartitionStrategy, YukawaKernel,
};
use h2_hmatrix::BasisMode;
use h2_lorapo::{BlrLuFactors, BlrLuOptions};
use h2_matrix::SolverResult;

/// Problem-size scaling selected through `H2_BENCH_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny problems for CI smoke tests.
    Smoke,
    /// Default sizes for the single-core reproduction machine.
    Small,
    /// Larger sizes approaching the paper's configuration.
    Large,
}

impl Scale {
    /// Read the scale from the environment (default [`Scale::Small`]).
    pub fn from_env() -> Self {
        match std::env::var("H2_BENCH_SCALE").as_deref() {
            Ok("smoke") => Scale::Smoke,
            Ok("large") => Scale::Large,
            _ => Scale::Small,
        }
    }

    /// Problem sizes for the N sweeps (Figs. 9–10).
    pub fn sweep_sizes(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![256, 512],
            Scale::Small => vec![512, 1024, 2048, 4096],
            Scale::Large => vec![2048, 4096, 8192, 16384],
        }
    }

    /// Fixed size for the strong-scaling and leaf-size figures (Figs. 11–13).
    pub fn scaling_size(&self) -> usize {
        match self {
            Scale::Smoke => 512,
            Scale::Small => 4096,
            Scale::Large => 16384,
        }
    }

    /// Sizes for the distributed figure (Fig. 16).
    pub fn distributed_sizes(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![512],
            Scale::Small => vec![2048, 4096],
            Scale::Large => vec![8192, 32768],
        }
    }

    /// Default leaf size for the H² solver (the paper's optimum is 256; at our scaled
    /// sizes a smaller leaf keeps the leaf count comparable).
    pub fn leaf_size(&self) -> usize {
        match self {
            Scale::Smoke => 64,
            Scale::Small => 64,
            Scale::Large => 128,
        }
    }

    /// Default leaf (tile) size for the BLR baseline (LORAPO prefers larger tiles).
    pub fn blr_leaf_size(&self) -> usize {
        match self {
            Scale::Smoke => 128,
            Scale::Small => 256,
            Scale::Large => 1024,
        }
    }
}

/// Which geometry/kernel pair a benchmark runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uniform points in the unit cube with the Laplace kernel (§IV of the paper).
    LaplaceCube,
    /// Synthetic molecular surfaces with the Yukawa kernel (§V of the paper).
    YukawaMolecule,
}

/// Build the point cloud of a workload.
pub fn build_points(workload: Workload, n: usize, seed: u64) -> Vec<h2_geometry::Point3> {
    match workload {
        Workload::LaplaceCube => uniform_cube(n, seed),
        Workload::YukawaMolecule => {
            if n <= 4096 {
                molecule_surface(n, &MoleculeConfig::default())
            } else {
                crowded_scene(n, 64, &MoleculeConfig::default())
            }
        }
    }
}

/// Build the kernel of a workload.
pub fn build_kernel(workload: Workload) -> Box<dyn Kernel> {
    match workload {
        Workload::LaplaceCube => Box::new(LaplaceKernel::default()),
        Workload::YukawaMolecule => Box::new(YukawaKernel::default()),
    }
}

/// Build a cluster tree the way the paper does (k-means, power-of-two leaves).
pub fn build_tree(points: &[h2_geometry::Point3], leaf: usize) -> ClusterTree {
    ClusterTree::build(points, leaf, PartitionStrategy::KMeans, 0)
}

/// Result of one solver run in a sweep.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Problem size.
    pub n: usize,
    /// Wall-clock factorization seconds (construction excluded, as in the paper).
    pub factor_seconds: f64,
    /// Wall-clock construction seconds.
    pub construction_seconds: f64,
    /// Factorization flops (the PAPI_FP_OPS substitute).
    pub factor_flops: u64,
    /// Maximum rank encountered.
    pub max_rank: usize,
    /// Relative residual of a solve against an exact matrix-vector product
    /// (only measured when `n` is small enough to afford it; `None` otherwise).
    pub residual: Option<f64>,
}

/// Factorization options of every paper binary for the H²-ULV solver at a
/// given tolerance.
pub fn h2_options(tol: f64) -> FactorOptions {
    FactorOptions {
        tol,
        max_rank: Some(256),
        admissibility: Admissibility::strong(1.0),
        basis_mode: BasisMode::Sampled { max_samples: 512 },
        ..FactorOptions::default()
    }
}

/// Run the paper's solver (H²-ULV without dependencies) on a workload.
///
/// # Errors
/// Propagates every [`h2_matrix::SolverError`] of the factorization and of the
/// residual-check solve, so the benchmark binaries report typed breakdowns
/// (with the failing cluster/level) instead of aborting.
pub fn run_h2ulv(
    workload: Workload,
    n: usize,
    leaf: usize,
    tol: f64,
) -> SolverResult<(RunResult, UlvFactors)> {
    let points = build_points(workload, n, 20 + n as u64);
    let n = points.len();
    let kernel = build_kernel(workload);
    let tree = build_tree(&points, leaf);
    let factors = h2_factor::h2_ulv_nodep(kernel.as_ref(), &tree, &h2_options(tol))?;
    let residual = if n <= 3000 {
        let b: Vec<f64> = (0..n).map(|i| ((i % 23) as f64 - 11.0) / 11.0).collect();
        // Solve the way the configuration prescribes: mixed-precision
        // compression pairs with its default refinement steps (a no-op for
        // every f64 compression path).
        let x = factors.solve_refined(kernel.as_ref(), &b, factors.default_refine_steps())?;
        Some(factors.residual_with(kernel.as_ref(), &b, &x))
    } else {
        None
    };
    Ok((
        RunResult {
            n,
            factor_seconds: factors.stats.factorization_seconds,
            construction_seconds: factors.stats.construction_seconds,
            factor_flops: factors.stats.factorization_flops,
            max_rank: factors.stats.max_rank,
            residual,
        },
        factors,
    ))
}

/// Run the LORAPO-style BLR baseline on a workload.
pub fn run_lorapo(
    workload: Workload,
    n: usize,
    leaf: usize,
    tol: f64,
) -> (RunResult, BlrLuFactors) {
    let points = build_points(workload, n, 20 + n as u64);
    let n = points.len();
    let kernel = build_kernel(workload);
    let tree = build_tree(&points, leaf);
    let opts = BlrLuOptions {
        tol,
        max_rank: 50,
        admissibility: Admissibility::weak(),
    };
    let t0 = Instant::now();
    let blr = h2_hmatrix::BlrMatrix::build(
        kernel.as_ref(),
        &tree,
        &opts.admissibility,
        opts.tol,
        opts.max_rank,
    );
    let construction_seconds = t0.elapsed().as_secs_f64();
    let factors = BlrLuFactors::factor_blr(blr, &opts);
    let residual = if n <= 3000 {
        let b: Vec<f64> = (0..n).map(|i| ((i % 23) as f64 - 11.0) / 11.0).collect();
        let x = factors.solve(&b);
        let order = tree.perm.clone();
        let a = kernel.assemble(&tree.points, &order, &order);
        let mut ax = vec![0.0; n];
        h2_matrix::gemv(1.0, &a, false, &x, 0.0, &mut ax);
        Some(h2_matrix::rel_l2_error(&ax, &b))
    } else {
        None
    };
    (
        RunResult {
            n,
            factor_seconds: factors.stats.factorization_seconds,
            construction_seconds,
            factor_flops: factors.stats.factorization_flops,
            max_rank: factors.stats.max_rank,
            residual,
        },
        factors,
    )
}

/// Pretty-print a results table with a header.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    println!("{}", headers.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
}

/// Least-squares slope of log(y) vs log(x): the empirical complexity exponent.
pub fn fit_exponent(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let lx: Vec<f64> = xs.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|v| v.max(1e-300).ln()).collect();
    let sx: f64 = lx.iter().sum();
    let sy: f64 = ly.iter().sum();
    let sxx: f64 = lx.iter().map(|v| v * v).sum();
    let sxy: f64 = lx.iter().zip(&ly).map(|(a, b)| a * b).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_and_sizes() {
        assert_eq!(Scale::Smoke.sweep_sizes(), vec![256, 512]);
        assert!(Scale::Small.scaling_size() > Scale::Smoke.scaling_size());
        assert!(Scale::Large.blr_leaf_size() >= Scale::Small.blr_leaf_size());
    }

    #[test]
    fn exponent_fit_recovers_known_slopes() {
        let xs = [1.0, 2.0, 4.0, 8.0];
        let lin: Vec<f64> = xs.iter().map(|x| 3.0 * x).collect();
        let quad: Vec<f64> = xs.iter().map(|x| 0.5 * x * x).collect();
        assert!((fit_exponent(&xs, &lin) - 1.0).abs() < 1e-12);
        assert!((fit_exponent(&xs, &quad) - 2.0).abs() < 1e-12);
        assert_eq!(fit_exponent(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn smoke_runs_of_both_solvers() {
        let (ours, _) = run_h2ulv(Workload::LaplaceCube, 512, 64, 1e-6).unwrap();
        let (baseline, _) = run_lorapo(Workload::LaplaceCube, 512, 128, 1e-6);
        assert_eq!(ours.n, 512);
        assert_eq!(baseline.n, 512);
        assert!(ours.factor_flops > 0 && baseline.factor_flops > 0);
        assert!(ours.residual.unwrap() < 1e-3);
        assert!(baseline.residual.unwrap() < 1e-3);
    }

    #[test]
    fn workload_builders() {
        let cube = build_points(Workload::LaplaceCube, 300, 1);
        assert_eq!(cube.len(), 300);
        let mol = build_points(Workload::YukawaMolecule, 800, 1);
        assert!(mol.len() >= 600);
        assert_eq!(build_kernel(Workload::LaplaceCube).name(), "laplace");
        assert_eq!(build_kernel(Workload::YukawaMolecule).name(), "yukawa");
    }
}
