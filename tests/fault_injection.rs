//! Fault-injection harness: every fault class from `h2ulv::matrix::fault` must
//! end in *verified recovery* (factorization succeeds, the recovery counters
//! show the ladder worked, and the residual stays within 2x of a clean run) or
//! in a *typed* [`SolverError`] — never in an abort.
//!
//! The fault plan is process-global (`set_plan`), so every test takes a shared
//! mutex and installs a drop guard that clears the plan even if an assertion
//! panics mid-test.

use h2ulv::factor::{CompressionMode, SketchPrecision};
use h2ulv::matrix::fault::{self, FaultPlan, SketchStage};
use h2ulv::prelude::*;
use std::sync::Mutex;

/// Serializes the tests in this binary: the fault plan is process-global.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Holds the serialization lock and clears the fault plan on drop, so a failed
/// assertion cannot leak an active plan into the next test.
struct PlanGuard<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);

impl<'a> PlanGuard<'a> {
    fn install(plan: Option<FaultPlan>) -> Self {
        let lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        fault::set_plan(plan);
        PlanGuard(lock)
    }
}

impl Drop for PlanGuard<'_> {
    fn drop(&mut self) {
        fault::set_plan(None);
    }
}

const N: usize = 512;

fn problem() -> (LaplaceKernel, ClusterTree) {
    let points = uniform_cube(N, 7);
    let tree = ClusterTree::build(&points, 64, PartitionStrategy::KMeans, 0);
    (LaplaceKernel::default(), tree)
}

/// Options for the ladder tests: fill-in enrichment is disabled so the only
/// sketches in flight are the basis sketches the recovery ladder protects
/// (the fill-in pre-compression has no ladder — a corrupted fill sketch shows
/// up as a typed `NonFiniteInput` instead, which a recovery test must not
/// conflate with an escalation).
/// `tol` matters for the f32 rung: below `SketchPrecision::F32_TOL_FLOOR`
/// (1e-6) an f32 SRFT demotes itself to f64, so tests targeting the f32 rung
/// must use a tolerance at or above the floor.
fn ladder_opts(compression: CompressionMode, tol: f64) -> FactorOptions {
    FactorOptions {
        tol,
        compression,
        fillin_enrichment: false,
        ..FactorOptions::default()
    }
}

/// Factor + solve and return (relative residual, recovery events, escalations).
fn run(kernel: &LaplaceKernel, tree: &ClusterTree, opts: &FactorOptions) -> (f64, UlvFactors) {
    let f = h2_ulv_nodep(kernel, tree, opts).expect("factorization must survive this fault");
    let b = vec![1.0; N];
    let x = f.solve(&b).expect("solve must survive this fault");
    assert!(x.iter().all(|v| v.is_finite()), "solution must be finite");
    (f.residual_with(kernel, &b, &x), f)
}

/// Like [`run`] but measures the two-step *refined* solve — the configuration
/// contract of the mixed-precision f32 pipeline (`default_refine_steps` is 2
/// there), whose plain-solve residual has heavy-tailed scatter across sketch
/// draws that an escalated (reseeded) rung legitimately resamples.
fn run_refined(
    kernel: &LaplaceKernel,
    tree: &ClusterTree,
    opts: &FactorOptions,
) -> (f64, UlvFactors) {
    let f = h2_ulv_nodep(kernel, tree, opts).expect("factorization must survive this fault");
    let b = vec![1.0; N];
    let x = f
        .solve_refined(kernel, &b, 2)
        .expect("refined solve must survive this fault");
    assert!(x.iter().all(|v| v.is_finite()), "solution must be finite");
    (f.residual_with(kernel, &b, &x), f)
}

#[test]
fn nan_kernel_yields_typed_error_not_abort() {
    let _g = PlanGuard::install(Some(FaultPlan::NanKernel { rate: 1.0 }));
    let (kernel, tree) = problem();
    let err = h2_ulv_nodep(&kernel, &tree, &FactorOptions::default())
        .err()
        .expect("a fully NaN-poisoned kernel cannot factorize");
    assert!(
        matches!(err, SolverError::NonFiniteInput { .. }),
        "expected NonFiniteInput, got: {err}"
    );
}

#[test]
fn sparse_nan_kernel_is_detected_as_typed_error() {
    let _g = PlanGuard::install(Some(FaultPlan::NanKernel { rate: 0.001 }));
    let (kernel, tree) = problem();
    match h2_ulv_nodep(&kernel, &tree, &FactorOptions::default()) {
        // A sparse poisoning can slip past if no poisoned entry lands in an
        // assembled block of this particular problem — then the run is clean.
        Ok(f) => {
            let x = f.solve(&[1.0; N]).expect("solve after clean assembly");
            assert!(x.iter().all(|v| v.is_finite()));
        }
        Err(e) => assert!(
            matches!(e, SolverError::NonFiniteInput { .. }),
            "expected NonFiniteInput, got: {e}"
        ),
    }
}

#[test]
fn corrupt_srft_f32_escalates_to_f64() {
    let (kernel, tree) = problem();
    let opts = ladder_opts(
        CompressionMode::Srft {
            oversample: 64,
            precision: SketchPrecision::F32,
        },
        1e-4, // at or above F32_TOL_FLOOR so the f32 rung actually runs
    );
    let clean = {
        let _g = PlanGuard::install(None);
        run_refined(&kernel, &tree, &opts).0
    };
    let _g = PlanGuard::install(Some(FaultPlan::CorruptSketch {
        rate: 1.0,
        stage: Some(SketchStage::SrftF32),
    }));
    let (res, f) = run_refined(&kernel, &tree, &opts);
    assert!(
        f.stats.recovery.srft_f32_to_f64 > 0,
        "every f32 SRFT sketch was poisoned; the f32->f64 rung must fire"
    );
    // Within 2x of the clean refined residual, or comfortably inside the
    // requested tolerance — the escalated rung resamples the sketch, so its
    // pre-refinement residual is a different draw, not a degradation.
    assert!(
        res <= (2.0 * clean).max(opts.tol / 10.0),
        "recovered refined residual {res:.3e} must stay within 2x of clean {clean:.3e} or within tol/10"
    );
}

#[test]
fn corrupt_srft_f64_escalates_to_gaussian() {
    let (kernel, tree) = problem();
    let opts = ladder_opts(
        CompressionMode::Srft {
            oversample: 64,
            precision: SketchPrecision::F64,
        },
        1e-8,
    );
    let clean = {
        let _g = PlanGuard::install(None);
        run(&kernel, &tree, &opts).0
    };
    let _g = PlanGuard::install(Some(FaultPlan::CorruptSketch {
        rate: 1.0,
        stage: Some(SketchStage::SrftF64),
    }));
    let (res, f) = run(&kernel, &tree, &opts);
    assert!(
        f.stats.recovery.srft_to_gaussian > 0,
        "every f64 SRFT sketch was poisoned; the srft->gaussian rung must fire"
    );
    assert!(
        res <= (2.0 * clean).max(1e-7),
        "recovered residual {res:.3e} must stay within 2x of clean {clean:.3e}"
    );
}

#[test]
fn corrupt_gaussian_escalates_to_direct_qr() {
    let (kernel, tree) = problem();
    let opts = ladder_opts(CompressionMode::Sketched { oversample: 64 }, 1e-8);
    let clean = {
        let _g = PlanGuard::install(None);
        run(&kernel, &tree, &opts).0
    };
    let _g = PlanGuard::install(Some(FaultPlan::CorruptSketch {
        rate: 1.0,
        stage: Some(SketchStage::Gaussian),
    }));
    let (res, f) = run(&kernel, &tree, &opts);
    assert!(
        f.stats.recovery.sketch_to_direct > 0,
        "every Gaussian sketch was poisoned; the sketch->direct rung must fire"
    );
    assert!(
        res <= (2.0 * clean).max(1e-7),
        "recovered residual {res:.3e} must stay within 2x of clean {clean:.3e}"
    );
}

#[test]
fn corrupting_every_sketch_stage_walks_the_whole_ladder() {
    let (kernel, tree) = problem();
    let opts = ladder_opts(
        CompressionMode::Srft {
            oversample: 64,
            precision: SketchPrecision::F32,
        },
        1e-4, // keep the f32 rung alive (see ladder_opts)
    );
    let clean = {
        let _g = PlanGuard::install(None);
        run(&kernel, &tree, &opts).0
    };
    let _g = PlanGuard::install(Some(FaultPlan::CorruptSketch {
        rate: 1.0,
        stage: None,
    }));
    let (res, f) = run(&kernel, &tree, &opts);
    let rec = &f.stats.recovery;
    assert!(
        rec.srft_f32_to_f64 > 0 && rec.srft_to_gaussian > 0 && rec.sketch_to_direct > 0,
        "all sketch stages poisoned: every rung must fire, got {rec:?}"
    );
    assert!(
        res <= (2.0 * clean).max(1e-7),
        "direct-QR fallback residual {res:.3e} must stay within 2x of clean {clean:.3e}"
    );
}

#[test]
fn singular_pivot_is_repaired_by_a_diagonal_shift() {
    let _g = PlanGuard::install(Some(FaultPlan::SingularPivot { cluster: 3 }));
    let (kernel, _) = problem();
    // Large leaves + a loose tolerance guarantee the leaf clusters compress
    // (redundant rank > 0), so the injected singular diagonal block exists.
    let points = uniform_cube(N, 7);
    let tree = ClusterTree::build(&points, 128, PartitionStrategy::KMeans, 0);
    let opts = FactorOptions {
        tol: 1e-5,
        ..FactorOptions::default()
    };
    let f = h2_ulv_nodep(&kernel, &tree, &opts)
        .expect("a singular redundant pivot must be repaired, not aborted");
    assert!(
        f.stats.recovery.pivot_shifts >= 1,
        "the injected singular diagonal block must be counted as a shift repair"
    );
    let x = f.solve(&[1.0; N]).expect("solve after pivot repair");
    assert!(x.iter().all(|v| v.is_finite()));
}

#[test]
fn task_panic_yields_typed_error_and_the_pool_survives() {
    let _g = PlanGuard::install(Some(FaultPlan::TaskPanic { index: 0 }));
    let (kernel, tree) = problem();
    let err = h2_ulv_nodep(&kernel, &tree, &FactorOptions::default())
        .err()
        .expect("an armed task panic must surface as an error");
    assert!(
        matches!(err, SolverError::TaskPanicked { .. }),
        "expected TaskPanicked, got: {err}"
    );
    // The worker pool must survive a cancelled run: the same process
    // factorizes cleanly once the plan is cleared.
    fault::set_plan(None);
    let f = h2_ulv_nodep(&kernel, &tree, &FactorOptions::default())
        .expect("the executor must be reusable after a panicked run");
    let x = f.solve(&[1.0; N]).expect("solve after recovery");
    assert!(x.iter().all(|v| v.is_finite()));
}

#[test]
fn unmeetable_tolerance_is_a_typed_error_with_escalations_counted() {
    let _g = PlanGuard::install(None);
    let (kernel, tree) = problem();
    // A deliberately crude factorization cannot reach 1e-14.
    let opts = FactorOptions {
        tol: 1e-2,
        max_rank: Some(4),
        ..FactorOptions::default()
    };
    let f = h2_ulv_nodep(&kernel, &tree, &opts).expect("crude factorization still succeeds");
    let b = vec![1.0; N];
    match f.solve_to_tolerance(&kernel, &b, 1e-14) {
        Err(SolverError::ToleranceNotMet {
            requested,
            achieved,
            refine_steps,
        }) => {
            assert_eq!(requested, 1e-14);
            assert!(achieved > 1e-14 && achieved.is_finite());
            assert!(refine_steps > 0, "the refinement ladder must have run");
            assert!(
                f.refine_escalations
                    .load(std::sync::atomic::Ordering::Relaxed)
                    > 0,
                "escalations beyond the first rung must be counted"
            );
        }
        Ok(_) => panic!("a rank-4 tol-1e-2 factorization cannot hit 1e-14"),
        Err(e) => panic!("expected ToleranceNotMet, got: {e}"),
    }
}

/// CI entry point: takes an `H2_FAULT` spec from the environment (the library
/// itself never reads it), installs it as the plan and asserts the run either
/// recovers or fails with a typed error — zero aborts for every spec in the
/// CI matrix.
#[test]
fn env_driven_fault_is_survivable() {
    let plan = match std::env::var("H2_FAULT") {
        Ok(spec) => Some(fault::parse(&spec).expect("H2_FAULT spec must parse")),
        Err(_) => None,
    };
    let _g = PlanGuard::install(plan);
    let (kernel, tree) = problem();
    match h2_ulv_nodep(&kernel, &tree, &FactorOptions::default()) {
        Ok(f) => {
            let b = vec![1.0; N];
            let x = f.solve(&b).expect("solve of a recovered factorization");
            assert!(x.iter().all(|v| v.is_finite()));
            let res = f.residual_with(&kernel, &b, &x);
            assert!(res.is_finite(), "residual must be finite, got {res}");
        }
        Err(e) => {
            // Typed failure is acceptable; what is not acceptable is a panic,
            // which would abort this test instead of reaching this arm.
            let msg = e.to_string();
            assert!(!msg.is_empty());
        }
    }
}

#[test]
fn dag_executor_survives_two_consecutive_poisoned_graphs() {
    // A panicked task graph must not leave the executor in a state where the
    // *next* poisoned graph (or the next clean one) misbehaves: two armed
    // runs back to back, each surfacing a typed error, then a clean run that
    // must produce a valid factorization in the same process.
    let _g = PlanGuard::install(Some(FaultPlan::TaskPanic { index: 0 }));
    let (kernel, tree) = problem();
    for round in 0..2 {
        // Re-arm per graph: installing the plan resets the task sequence
        // counter, so task 0 of *this* factorization is the poisoned one.
        fault::set_plan(Some(FaultPlan::TaskPanic { index: 0 }));
        let err = h2_ulv_nodep(&kernel, &tree, &FactorOptions::default())
            .err()
            .unwrap_or_else(|| panic!("poisoned graph {round} must surface an error"));
        assert!(
            matches!(err, SolverError::TaskPanicked { .. }),
            "poisoned graph {round}: expected TaskPanicked, got: {err}"
        );
    }
    fault::set_plan(None);
    let f = h2_ulv_nodep(&kernel, &tree, &FactorOptions::default())
        .expect("the executor must be reusable after two consecutive poisoned graphs");
    let x = f.solve(&[1.0; N]).expect("solve after recovery");
    assert!(x.iter().all(|v| v.is_finite()));
}

#[test]
fn recovery_event_counts_are_exact_and_deterministic() {
    // The RecoveryEvents counters are part of the benchmark schema, so they
    // must be *exact*, not merely non-zero: a fixed fault plan on a fixed
    // problem yields the same counts on every run (sketch seeds are
    // deterministic and the ladder fires once per poisoned site).
    let (kernel, _) = problem();

    // One poisoned cluster -> exactly one diagonal-shift repair.
    let points = uniform_cube(N, 7);
    let shift_tree = ClusterTree::build(&points, 128, PartitionStrategy::KMeans, 0);
    let shift_opts = FactorOptions {
        tol: 1e-5,
        ..FactorOptions::default()
    };
    let _g = PlanGuard::install(Some(FaultPlan::SingularPivot { cluster: 3 }));
    let f = h2_ulv_nodep(&kernel, &shift_tree, &shift_opts).expect("pivot repair");
    assert_eq!(
        f.stats.recovery.pivot_shifts, 1,
        "one poisoned cluster must be repaired by exactly one shift, got {:?}",
        f.stats.recovery
    );
    assert_eq!(f.stats.recovery.total(), 1, "no other rung may fire");

    // Every Gaussian sketch poisoned -> one sketch->direct escalation per
    // compression site, identical across two runs in the same process.
    fault::set_plan(Some(FaultPlan::CorruptSketch {
        rate: 1.0,
        stage: Some(SketchStage::Gaussian),
    }));
    let (kernel, tree) = problem();
    let opts = ladder_opts(CompressionMode::Sketched { oversample: 64 }, 1e-8);
    let first = h2_ulv_nodep(&kernel, &tree, &opts).expect("run 1");
    let second = h2_ulv_nodep(&kernel, &tree, &opts).expect("run 2");
    assert_eq!(
        first.stats.recovery, second.stats.recovery,
        "identical fault plan + problem must give identical recovery counters"
    );
    // The N=512 / leaf-64 k-means tree has 24 sketch-compressed sites; every
    // one escalates. If a legitimate change to the tree or compression policy
    // moves this number, re-pin it — the point is that it is a constant.
    assert_eq!(first.stats.recovery.sketch_to_direct, 24);
    assert_eq!(
        first.stats.recovery.total(),
        24,
        "only the gaussian rung fires"
    );
}
