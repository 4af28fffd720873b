//! Sketch-based vs exact construction: accuracy within tolerance, and
//! determinism — a fixed seed must give bitwise identical factors at 1, 2 and 4
//! worker threads, for both the reference and the fast construction paths.

use h2_factor::{h2_ulv_nodep, CompressionMode, FactorOptions, UlvFactors};
use h2_geometry::{uniform_cube, Admissibility, ClusterTree, LaplaceKernel, PartitionStrategy};
use h2_hmatrix::BasisMode;

fn opts(compression: CompressionMode, skeleton: bool, threads: usize) -> FactorOptions {
    FactorOptions {
        tol: 1e-6,
        max_rank: Some(256),
        admissibility: Admissibility::strong(1.0),
        basis_mode: BasisMode::Sampled { max_samples: 512 },
        compression,
        skeleton_construction: skeleton,
        seed: 42,
        num_threads: threads,
        ..FactorOptions::default()
    }
}

fn setup(n: usize) -> (ClusterTree, LaplaceKernel) {
    let pts = uniform_cube(n, 33);
    (
        ClusterTree::build(&pts, 64, PartitionStrategy::KMeans, 0),
        LaplaceKernel::default(),
    )
}

/// Bitwise equality of two factorizations (every stored matrix and pivot).
fn factors_identical(a: &UlvFactors, b: &UlvFactors) -> bool {
    if a.root_lu.lu != b.root_lu.lu || a.root_lu.ipiv != b.root_lu.ipiv {
        return false;
    }
    if a.levels.len() != b.levels.len() {
        return false;
    }
    for (la, lb) in a.levels.iter().zip(&b.levels) {
        for (ca, cb) in la.clusters.iter().zip(&lb.clusters) {
            if ca.q != cb.q || ca.p != cb.p {
                return false;
            }
            match (&ca.lu, &cb.lu) {
                (Some(x), Some(y)) if x.lu == y.lu => {}
                (None, None) => {}
                _ => return false,
            }
        }
        if la.row_rr != lb.row_rr
            || la.row_rs != lb.row_rs
            || la.col_rr != lb.col_rr
            || la.col_sr != lb.col_sr
        {
            return false;
        }
    }
    true
}

/// Residual of the factorization's own prescribed solve: plain for the f64
/// modes (`default_refine_steps() == 0`), refined for mixed-precision SRFT —
/// that pairing is the accuracy contract of each mode (the f32 path trades
/// slack-free rank detection against refinement at solve time).
fn residual(f: &UlvFactors, kernel: &LaplaceKernel, n: usize) -> f64 {
    let b: Vec<f64> = (0..n).map(|i| ((i % 19) as f64 - 9.0) / 9.0).collect();
    let x = f
        .solve_refined(kernel, &b, f.default_refine_steps())
        .unwrap();
    f.residual_with(kernel, &b, &x)
}

#[test]
fn sketched_construction_is_accurate_and_deterministic_across_threads() {
    let n = 700;
    let (tree, kernel) = setup(n);
    let fast1 = h2_ulv_nodep(&kernel, &tree, &opts(CompressionMode::default(), true, 1)).unwrap();
    let fast2 = h2_ulv_nodep(&kernel, &tree, &opts(CompressionMode::default(), true, 2)).unwrap();
    let fast4 = h2_ulv_nodep(&kernel, &tree, &opts(CompressionMode::default(), true, 4)).unwrap();
    assert!(
        factors_identical(&fast1, &fast2),
        "sketched factors differ between 1 and 2 threads"
    );
    assert!(
        factors_identical(&fast1, &fast4),
        "sketched factors differ between 1 and 4 threads"
    );
    // Same seed, fresh run: bitwise reproducible.
    let again = h2_ulv_nodep(&kernel, &tree, &opts(CompressionMode::default(), true, 1)).unwrap();
    assert!(factors_identical(&fast1, &again), "same-seed rerun differs");

    // Accuracy: the fast path must stay within a small factor of the exact
    // reference construction (direct QR, exact coupling assembly).
    let exact = h2_ulv_nodep(&kernel, &tree, &opts(CompressionMode::Direct, false, 1)).unwrap();
    let r_fast = residual(&fast1, &kernel, n);
    let r_exact = residual(&exact, &kernel, n);
    assert!(r_exact < 1e-3, "exact-path residual {r_exact}");
    assert!(r_fast < 1e-3, "fast-path residual {r_fast}");
    assert!(
        r_fast <= r_exact * 50.0 + 1e-6,
        "fast-path residual {r_fast} too far from exact {r_exact}"
    );
}

#[test]
fn gaussian_sketched_construction_stays_deterministic_and_accurate() {
    // The default mode moved to the SRFT sketch; the Gaussian path stays as an
    // explicitly-tested A/B reference.
    let n = 700;
    let (tree, kernel) = setup(n);
    let mode = CompressionMode::Sketched { oversample: 64 };
    let g1 = h2_ulv_nodep(&kernel, &tree, &opts(mode, true, 1)).unwrap();
    let g2 = h2_ulv_nodep(&kernel, &tree, &opts(mode, true, 2)).unwrap();
    let g4 = h2_ulv_nodep(&kernel, &tree, &opts(mode, true, 4)).unwrap();
    assert!(factors_identical(&g1, &g2), "gaussian 1t vs 2t differ");
    assert!(factors_identical(&g1, &g4), "gaussian 1t vs 4t differ");
    let r_gauss = residual(&g1, &kernel, n);
    assert!(r_gauss < 1e-3);
    // The mixed-precision default must stay accuracy-competitive with the
    // Gaussian sketch it replaced, on the same problem.
    let srft = h2_ulv_nodep(&kernel, &tree, &opts(CompressionMode::default(), true, 1)).unwrap();
    let r_srft = residual(&srft, &kernel, n);
    assert!(
        r_srft <= 2.0 * r_gauss,
        "SRFT-f32 residual {r_srft} > 2x Gaussian {r_gauss}"
    );
}

#[test]
fn srft_f64_reference_matches_thread_counts() {
    let n = 600;
    let (tree, kernel) = setup(n);
    let mode = CompressionMode::Srft {
        oversample: 64,
        precision: h2_factor::SketchPrecision::F64,
    };
    let a = h2_ulv_nodep(&kernel, &tree, &opts(mode, true, 1)).unwrap();
    let b = h2_ulv_nodep(&kernel, &tree, &opts(mode, true, 4)).unwrap();
    assert!(factors_identical(&a, &b), "srft/f64 1t vs 4t differ");
    assert!(residual(&a, &kernel, n) < 1e-3);
}

#[test]
fn refinement_steps_follow_the_compression_precision() {
    let n = 600;
    let (tree, kernel) = setup(n);
    // Mixed-precision SRFT asks for refinement...
    let fast = h2_ulv_nodep(&kernel, &tree, &opts(CompressionMode::default(), true, 1)).unwrap();
    assert_eq!(fast.default_refine_steps(), 2);
    // ...the f64 paths do not.
    let exact = h2_ulv_nodep(&kernel, &tree, &opts(CompressionMode::Direct, false, 1)).unwrap();
    assert_eq!(exact.default_refine_steps(), 0);
    let gauss = h2_ulv_nodep(
        &kernel,
        &tree,
        &opts(CompressionMode::Sketched { oversample: 64 }, true, 1),
    )
    .unwrap();
    assert_eq!(gauss.default_refine_steps(), 0);
    // Below the f32 mixing noise floor SRFT silently demotes to f64 mixing, so
    // refinement switches itself off as well.
    let mut tight = opts(CompressionMode::default(), true, 1);
    tight.tol = 1e-8;
    let tight = h2_ulv_nodep(&kernel, &tree, &tight).unwrap();
    assert_eq!(tight.default_refine_steps(), 0);

    // Refinement never degrades the plain solve, and is deterministic.
    let b: Vec<f64> = (0..n).map(|i| ((i % 19) as f64 - 9.0) / 9.0).collect();
    let x0 = fast.solve(&b).unwrap();
    let xr = fast
        .solve_refined(&kernel, &b, fast.default_refine_steps())
        .unwrap();
    let r0 = fast.residual_with(&kernel, &b, &x0);
    let rr = fast.residual_with(&kernel, &b, &xr);
    assert!(
        rr <= r0 * (1.0 + 1e-12),
        "refined residual {rr} worse than plain {r0}"
    );
    let xr2 = fast
        .solve_refined(&kernel, &b, fast.default_refine_steps())
        .unwrap();
    assert_eq!(xr, xr2, "refined solve is not deterministic");
}

#[test]
fn rank_cap_hits_are_counted_per_level() {
    let n = 600;
    let (tree, kernel) = setup(n);
    // A cap far below the tolerance rank must register hits at every level...
    let mut starved = opts(CompressionMode::default(), true, 1);
    starved.max_rank = Some(8);
    starved.max_rank_growth = 1.0;
    let f = h2_ulv_nodep(&kernel, &tree, &starved).unwrap();
    assert_eq!(f.stats.level_cap_hits.len(), f.stats.level_ranks.len());
    assert!(
        f.stats.level_cap_hits.iter().sum::<usize>() > 0,
        "starved cap registered no hits"
    );
    // ...while a generous cap registers none.
    let roomy = h2_ulv_nodep(&kernel, &tree, &opts(CompressionMode::default(), true, 1)).unwrap();
    assert!(
        roomy.stats.level_cap_hits.iter().all(|&h| h == 0),
        "generous cap still hit: {:?}",
        roomy.stats.level_cap_hits
    );
}

#[test]
fn exact_reference_path_is_also_thread_deterministic() {
    let n = 600;
    let (tree, kernel) = setup(n);
    let a = h2_ulv_nodep(&kernel, &tree, &opts(CompressionMode::Direct, false, 1)).unwrap();
    let b = h2_ulv_nodep(&kernel, &tree, &opts(CompressionMode::Direct, false, 4)).unwrap();
    assert!(factors_identical(&a, &b));
}

#[test]
fn different_seeds_change_sketched_factors() {
    // The sketch must actually depend on the seed (otherwise the determinism
    // tests above would pass vacuously).
    let n = 600;
    let (tree, kernel) = setup(n);
    let mut o1 = opts(CompressionMode::default(), true, 1);
    let mut o2 = o1;
    o1.seed = 1;
    o2.seed = 2;
    let f1 = h2_ulv_nodep(&kernel, &tree, &o1).unwrap();
    let f2 = h2_ulv_nodep(&kernel, &tree, &o2).unwrap();
    assert!(
        !factors_identical(&f1, &f2),
        "factors independent of the sketch seed — sketch path not exercised"
    );
    // Both seeds solve to comparable accuracy.
    assert!(residual(&f1, &kernel, n) < 1e-3);
    assert!(residual(&f2, &kernel, n) < 1e-3);
}

#[test]
fn sampled_residual_estimator_tracks_exact_residual() {
    let n = 900;
    let (tree, kernel) = setup(n);
    let f = h2_ulv_nodep(&kernel, &tree, &opts(CompressionMode::default(), true, 1)).unwrap();
    let b: Vec<f64> = (0..n).map(|i| ((i % 23) as f64 - 11.0) / 11.0).collect();
    let x = f.solve(&b).unwrap();
    let exact = f.residual_with(&kernel, &b, &x);
    // All rows sampled => identical to the exact residual.
    let full = f.residual_sampled(&kernel, &b, &x, n, 3).unwrap();
    assert!(
        (full - exact).abs() <= 1e-12 * exact.max(1e-300) + 1e-300,
        "full sampling {full} vs exact {exact}"
    );
    // Partial sampling: an unbiased estimate within a reasonable band.
    let est = f.residual_sampled(&kernel, &b, &x, n / 3, 3).unwrap();
    assert!(
        est > 0.2 * exact && est < 5.0 * exact,
        "sampled estimate {est} vs exact {exact}"
    );
    // Deterministic in the seed.
    let est2 = f.residual_sampled(&kernel, &b, &x, n / 3, 3).unwrap();
    assert!((est - est2).abs() == 0.0);
}
