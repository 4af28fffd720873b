//! The panel-solve contract: `vsolve` on a width-k panel is **bitwise
//! identical**, column by column, to k independent `solve` calls — across
//! compression modes, refinement steps, tolerances and thread counts (the
//! CI matrix runs this suite under `H2_NUM_THREADS=1` and `=4`).
//!
//! The contract is what makes the batching server invisible to clients: the
//! answer to a request cannot depend on who it shared a panel with.  It holds
//! by construction (`solve` *is* the width-1 panel solve and every kernel on
//! the path is width-stable), and this suite is the regression net that keeps
//! later optimizations honest.

use h2ulv::factor::{CompressionMode, SketchPrecision};
use h2ulv::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

const LEAF: usize = 32;

fn compression_mode(tag: usize) -> CompressionMode {
    match tag {
        0 => CompressionMode::Direct,
        1 => CompressionMode::Sketched { oversample: 64 },
        _ => CompressionMode::Srft {
            oversample: 64,
            precision: SketchPrecision::F32,
        },
    }
}

fn options(tol: f64, tag: usize) -> FactorOptions {
    FactorOptions {
        tol,
        compression: compression_mode(tag),
        ..FactorOptions::default()
    }
}

/// Deterministic pseudo-random RHS panel (seeded, independent of `rand`
/// versions): columns of an LCG stream mapped into [-1, 1].
fn random_panel(n: usize, k: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    (0..k).map(|_| (0..n).map(|_| next()).collect()).collect()
}

fn assert_bitwise_col(panel: &Matrix, j: usize, single: &[f64], what: &str) {
    assert_eq!(panel.rows(), single.len(), "{what}: column {j} length");
    for (i, (a, b)) in panel.col(j).iter().zip(single).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{what}: column {j} entry {i} differs: panel {a:e} vs single {b:e}"
        );
    }
}

fn check_equivalence(n: usize, k: usize, seed: u64, tol: f64, mode: usize, steps: usize) {
    let points = uniform_cube(n, seed);
    let tree = ClusterTree::build(&points, LEAF, PartitionStrategy::KMeans, 0);
    let kernel = LaplaceKernel::default();
    let f = h2_ulv_nodep(&kernel, &tree, &options(tol, mode)).expect("factor");
    let cols = random_panel(n, k, seed ^ 0xdead_beef);
    let panel = Matrix::from_columns(&cols);

    // Plain panel solve vs k independent single solves.
    let x_panel = f.vsolve(&panel).expect("vsolve");
    assert_eq!(x_panel.shape(), (n, k));
    for (j, col) in cols.iter().enumerate() {
        let x_single = f.solve(col).expect("solve");
        assert_bitwise_col(&x_panel, j, &x_single, "vsolve");
    }

    // Refined panel solve vs k independent refined solves (the f32-SRFT
    // iterative-refinement contract, column by column).
    let x_refined = f
        .vsolve_refined(&kernel, &panel, steps)
        .expect("vsolve_refined");
    for (j, col) in cols.iter().enumerate() {
        let x_single = f.solve_refined(&kernel, col, steps).expect("solve_refined");
        assert_bitwise_col(&x_refined, j, &x_single, "vsolve_refined");
    }

    // Original-order panel entry point vs its single-RHS counterpart.
    let x_orig = f
        .vsolve_original_order(&panel)
        .expect("vsolve_original_order");
    for (j, col) in cols.iter().enumerate() {
        let x_single = f.solve_original_order(col).expect("solve_original_order");
        assert_bitwise_col(&x_orig, j, &x_single, "vsolve_original_order");
    }
}

#[test]
fn vsolve_matches_solves_for_the_default_configuration() {
    check_equivalence(256, 8, 7, 1e-8, 2, 2);
}

#[test]
fn vsolve_matches_solves_for_direct_compression() {
    check_equivalence(192, 5, 3, 1e-8, 0, 0);
}

#[test]
fn vsolve_matches_solves_for_gaussian_compression() {
    check_equivalence(192, 3, 11, 1e-6, 1, 1);
}

#[test]
fn width_one_vsolve_is_exactly_solve() {
    check_equivalence(160, 1, 19, 1e-8, 2, 2);
}

/// Laplace kernel that counts block assemblies (every other method delegates).
struct CountingKernel {
    inner: LaplaceKernel,
    assemblies: AtomicUsize,
}

impl Kernel for CountingKernel {
    fn eval(&self, x: &Point3, y: &Point3) -> f64 {
        self.inner.eval(x, y)
    }
    fn diagonal(&self) -> f64 {
        self.inner.diagonal()
    }
    fn eval_batch(&self, xs: &[f64], ys: &[f64], zs: &[f64], y: &Point3, out: &mut [f64]) {
        self.inner.eval_batch(xs, ys, zs, y, out)
    }
    fn assemble_into(&self, points: &[Point3], rows: &[usize], cols: &[usize], out: &mut Matrix) {
        self.assemblies.fetch_add(1, Ordering::Relaxed);
        self.inner.assemble_into(points, rows, cols, out)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn fingerprint_params(&self) -> Vec<f64> {
        self.inner.fingerprint_params()
    }
}

/// `steps` refinement steps cost `steps + 1` exact-kernel sweeps (one per
/// iterate: the residual that scores a step is the next step's right-hand
/// side), each `ceil(n / 512)` row-block assemblies, at any panel width.
#[test]
fn refinement_sweeps_the_kernel_once_per_iterate() {
    let (n, steps) = (1024, 2);
    let points = uniform_cube(n, 5);
    let tree = ClusterTree::build(&points, 64, PartitionStrategy::KMeans, 0);
    let kernel = CountingKernel {
        inner: LaplaceKernel::default(),
        assemblies: AtomicUsize::new(0),
    };
    let f = h2_ulv_nodep(&kernel.inner, &tree, &options(1e-6, 2)).expect("factor");
    let cols = random_panel(n, 3, 23);
    let x_panel = f
        .vsolve_refined(&kernel, &Matrix::from_columns(&cols), steps)
        .expect("vsolve_refined");
    assert_eq!(
        kernel.assemblies.load(Ordering::Relaxed),
        (steps + 1) * n.div_ceil(512)
    );
    for (j, col) in cols.iter().enumerate() {
        let x_single = f.solve_refined(&kernel, col, steps).expect("solve_refined");
        assert_bitwise_col(&x_panel, j, &x_single, "vsolve_refined");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized sweep over size, width, tolerance, compression mode and
    /// refinement depth.
    #[test]
    fn vsolve_equivalence_holds_everywhere(
        n in 96usize..224,
        k in 1usize..9,
        seed in 0u64..1000,
        mode in 0usize..3,
        tight in 0u64..2,
        steps in 0usize..3,
    ) {
        let tol = if tight == 1 { 1e-8 } else { 1e-5 };
        check_equivalence(n, k, seed, tol, mode, steps);
    }
}
