//! Per-layer probes of the traced run: each times calls into one library
//! crate's public functions on a fixed input, so a change in an end-to-end
//! metric can be attributed to the layer that moved.  Layer = crate name.

use std::sync::Arc;

use h2_factor::{Analysis, SketchPrecision, UlvFactors};
use h2_geometry::{
    uniform_cube, Admissibility, ClusterTree, Kernel, LaplaceKernel, PartitionStrategy, Point3,
    YukawaKernel,
};
use h2_hmatrix::{BasisMode, BlockPartition, H2Matrix};
use h2_lorapo::{BlrLuFactors, BlrLuOptions};
use h2_matrix::{Matrix, MatrixF32};
use h2_runtime::{live_scope, TaskKind, ThreadPool};

use crate::report::Results;
use crate::timing::{self, wall_samples, Clock, Recorder};
use crate::workloads::{factor_options, SplitMix};

/// Timed calls per dense-kernel probe (after one discarded warm-up call).
const KERNEL_REPS: usize = 7;

fn random_matrix(rows: usize, cols: usize, rng: &mut SplitMix) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.next_signed())
}

/// GFLOP/s of `op` given the flops of one call: median of `KERNEL_REPS`.
fn gflops(flops: f64, op: impl FnMut()) -> f64 {
    flops / 1e9 / timing::median(&wall_samples(1, KERNEL_REPS, op))
}

/// Packed f64 GEMM at n=512, one thread: the rate `core.pct_gemm_peak` is a
/// share of.  Cheap enough (a few milliseconds a call) for every run.
pub fn gemm_f64_gflops() -> f64 {
    let mut rng = SplitMix::new(512);
    let a = random_matrix(512, 512, &mut rng);
    let b = random_matrix(512, 512, &mut rng);
    gflops(2.0 * 512f64.powi(3), || {
        std::hint::black_box(h2_matrix::matmul(&a, &b));
    })
}

/// Every traced-only probe that does not need the workload's own factors.
pub fn run_all(rec: &mut Recorder, out: &mut Results, smoke: bool) {
    let open = rec.begin("probes");
    matrix(rec, out);
    lowrank(rec, out);
    geometry(rec, out, smoke);
    hmatrix(rec, out, smoke);
    runtime(rec, out, smoke);
    scaling(rec, out, smoke);
    rec.end(open);
}

fn matrix(rec: &mut Recorder, out: &mut Results) {
    let mut rng = SplitMix::new(20260927);
    let a = random_matrix(512, 512, &mut rng);
    let b = random_matrix(512, 512, &mut rng);
    let (a32, b32) = (MatrixF32::from_f64(&a), MatrixF32::from_f64(&b));
    let f32_rate = rec.span("matrix.gemm_f32", || {
        gflops(2.0 * 512f64.powi(3), || {
            std::hint::black_box(h2_matrix::matmul_f32(&a32, &b32));
        })
    });
    out.put("matrix.gemm_f32_gflops", f32_rate);

    // The leaf-level shape of the elimination: many small products through one
    // set of packing buffers.
    let lefts: Vec<Matrix> = (0..256).map(|_| random_matrix(64, 64, &mut rng)).collect();
    let rights: Vec<Matrix> = (0..256).map(|_| random_matrix(64, 160, &mut rng)).collect();
    let pairs: Vec<(&Matrix, &Matrix)> = lefts.iter().zip(&rights).collect();
    let leaf_rate = rec.span("matrix.gemm_leaf", || {
        gflops(256.0 * 2.0 * 64.0 * 64.0 * 160.0, || {
            std::hint::black_box(h2_matrix::matmul_batch(&pairs));
        })
    });
    out.put("matrix.gemm_leaf_gflops", leaf_rate);

    // The residual sweep's shape: a kernel row block times a width-32 panel.
    let block = random_matrix(512, 2048, &mut rng);
    let panel = random_matrix(2048, 32, &mut rng);
    let mut product = Matrix::zeros(512, 32);
    let colwise_rate = rec.span("matrix.gemm_colwise", || {
        gflops(2.0 * 512.0 * 2048.0 * 32.0, || {
            h2_matrix::gemm_colwise(1.0, &block, &panel, 0.0, &mut product);
            std::hint::black_box(&product);
        })
    });
    out.put("matrix.gemm_colwise_gflops", colwise_rate);

    let square = random_matrix(256, 256, &mut rng);
    let cube = 256f64.powi(3);
    let qr_rate = rec.span("matrix.pivoted_qr", || {
        gflops(4.0 / 3.0 * cube, || {
            std::hint::black_box(h2_matrix::pivoted_qr(&square));
        })
    });
    out.put("matrix.pivoted_qr_gflops", qr_rate);
    let lu_rate = rec.span("matrix.lu", || {
        gflops(2.0 / 3.0 * cube, || {
            std::hint::black_box(h2_matrix::lu_factor(&square).is_ok());
        })
    });
    out.put("matrix.lu_gflops", lu_rate);
}

/// A far-field panel: 256 points of one corner of the unit cube against 2048
/// points of the opposite half.
fn far_field_panel(kernel: &dyn Kernel) -> Matrix {
    let pts = uniform_cube(8192, 11);
    let pick = |keep: &dyn Fn(&Point3) -> bool, count: usize| -> Vec<usize> {
        (0..pts.len())
            .filter(|&i| keep(&pts[i]))
            .take(count)
            .collect()
    };
    let rows = pick(&|p| p.x < 0.25 && p.y < 0.5, 256);
    let cols = pick(&|p| p.x > 0.5, 2048);
    kernel.assemble(&pts, &rows, &cols)
}

fn lowrank(rec: &mut Recorder, out: &mut Results) {
    let panel = far_field_panel(&LaplaceKernel::default());
    let (tol, cap) = (1e-6, Some(256));
    let mut rank = 0;
    for (name, span, precision) in [
        (
            "lowrank.srft_f32_ms",
            "lowrank.srft_f32",
            SketchPrecision::F32,
        ),
        (
            "lowrank.srft_f64_ms",
            "lowrank.srft_f64",
            SketchPrecision::F64,
        ),
    ] {
        let samples = rec.span(span, || {
            wall_samples(1, KERNEL_REPS, || {
                rank = h2_lowrank::srft_basis_split(&panel, tol, cap, 64, precision, 7).rank;
            })
        });
        out.put_summary(name, &samples, 1e3);
    }
    out.put("lowrank.detected_rank", rank as f64);
    let samples = rec.span("lowrank.direct_qr", || {
        wall_samples(1, 3, || {
            std::hint::black_box(h2_matrix::truncated_pivoted_qr(&panel, tol, cap).rank);
        })
    });
    out.put_summary("lowrank.direct_qr_ms", &samples, 1e3);
}

fn geometry(rec: &mut Recorder, out: &mut Results, smoke: bool) {
    let n = if smoke { 1024 } else { 4096 };
    let pts = uniform_cube(n, 13);
    let samples = rec.span("geometry.tree", || {
        wall_samples(1, 5, || {
            std::hint::black_box(ClusterTree::build(&pts, 64, PartitionStrategy::KMeans, 0));
        })
    });
    out.put_summary("geometry.tree_build_ms", &samples, 1e3);

    let rows: Vec<usize> = (0..512).collect();
    let cols: Vec<usize> = (0..pts.len().min(2048)).collect();
    let mentries = (rows.len() * cols.len()) as f64 / 1e6;
    let kernels: [(&str, &str, &dyn Kernel); 2] = [
        (
            "geometry.laplace_mentries_per_s",
            "geometry.assemble_laplace",
            &LaplaceKernel::default(),
        ),
        (
            "geometry.yukawa_mentries_per_s",
            "geometry.assemble_yukawa",
            &YukawaKernel::default(),
        ),
    ];
    for (name, span, kernel) in kernels {
        let samples = rec.span(span, || {
            wall_samples(1, KERNEL_REPS, || {
                std::hint::black_box(kernel.assemble(&pts, &rows, &cols));
            })
        });
        out.put(name, mentries / timing::median(&samples));
    }
}

fn hmatrix(rec: &mut Recorder, out: &mut Results, smoke: bool) {
    let n = if smoke { 512 } else { 2048 };
    let tree = Arc::new(ClusterTree::build(
        &uniform_cube(n, 17),
        64,
        PartitionStrategy::KMeans,
        0,
    ));
    let adm = Admissibility::strong(1.0);
    let samples = rec.span("hmatrix.partition", || {
        wall_samples(1, 5, || {
            std::hint::black_box(BlockPartition::build(&tree, &adm));
        })
    });
    out.put_summary("hmatrix.partition_build_ms", &samples, 1e3);
    let partition = BlockPartition::build(&tree, &adm);
    out.put(
        "hmatrix.dense_blocks",
        partition.dense_pairs(tree.depth).len() as f64,
    );
    let admissible: usize = (0..=tree.depth)
        .map(|level| partition.admissible_pairs(level).len())
        .sum();
    out.put("hmatrix.admissible_blocks", admissible as f64);

    let o = factor_options(1e-6);
    let opts = h2_hmatrix::h2::H2Options {
        tol: o.tol,
        max_rank: o.max_rank,
        mode: BasisMode::Sampled { max_samples: 512 },
        compression: o.compression,
        num_threads: 1,
        ..Default::default()
    };
    let kernel = LaplaceKernel::default();
    let clock = Clock::new();
    let open = rec.begin("hmatrix.h2_build");
    let (h2, cost) = clock.time(|| H2Matrix::build_arc(&kernel, Arc::clone(&tree), &adm, &opts));
    rec.end(open);
    out.put("hmatrix.h2_build_s", cost.user_s + cost.sys_s);
    match h2 {
        Ok(h2) => {
            out.op(Ok(()));
            out.put("hmatrix.h2_storage_mb", h2.storage() as f64 * 8.0 / 1e6);
            let x: Vec<f64> = (0..h2.dim())
                .map(|i| ((i % 23) as f64 - 11.0) / 11.0)
                .collect();
            let samples = rec.span("hmatrix.h2_matvec", || {
                wall_samples(1, KERNEL_REPS, || {
                    std::hint::black_box(h2.matvec(&x));
                })
            });
            out.put_summary("hmatrix.h2_matvec_ms", &samples, 1e3);
        }
        Err(e) => out.op(Err(format!("H2Matrix::build: {e}"))),
    }
}

/// Microseconds per empty task through `live_scope` on a one-thread pool: a
/// dependency chain (every task released by its predecessor) and a fan-out
/// (every task ready at once).
fn runtime(rec: &mut Recorder, out: &mut Results, smoke: bool) {
    let tasks = if smoke { 10_000 } else { 100_000 };
    let pool = ThreadPool::new(1);
    for (name, span, chain) in [
        ("runtime.task_overhead_chain_us", "runtime.chain", true),
        ("runtime.task_overhead_fanout_us", "runtime.fanout", false),
    ] {
        let samples = rec.span(span, || {
            wall_samples(1, 3, || {
                let done = live_scope(&pool, |scope| {
                    let mut prev = None;
                    for _ in 0..tasks {
                        let deps: &[_] = match (&prev, chain) {
                            (Some(p), true) => std::slice::from_ref(p),
                            _ => &[],
                        };
                        prev = Some(scope.submit(TaskKind::Other, 0.0, deps, |_| {}));
                    }
                });
                std::hint::black_box(done.is_ok());
            })
        });
        out.put(name, timing::median(&samples) / tasks as f64 * 1e6);
    }
}

/// User-mode CPU seconds of one cube/Laplace factorization at `n`, averaged
/// over enough repetitions to span a quarter second of 10 ms ticks.
fn factor_user_s(clock: &Clock, n: usize, out: &mut Results) -> f64 {
    let analysis = Analysis::analyze(
        &uniform_cube(n, 19),
        64,
        PartitionStrategy::KMeans,
        0,
        Admissibility::strong(1.0),
    );
    let (kernel, opts) = (LaplaceKernel::default(), factor_options(1e-6));
    let (mut user, mut reps) = (0.0, 0);
    while user < 0.25 && reps < 64 {
        let (result, cost) = clock.time(|| analysis.factorize(&kernel, &opts));
        out.op(result
            .map(|_| ())
            .map_err(|e| format!("scaling probe n={n}: {e}")));
        user += cost.user_s;
        reps += 1;
    }
    user / reps as f64
}

/// The fitted exponent of factorization CPU time against n (the paper claims
/// 1.0), and the speed-up over the BLR-LU baseline at the largest size.
fn scaling(rec: &mut Recorder, out: &mut Results, smoke: bool) {
    let sizes: [usize; 3] = if smoke {
        [128, 256, 512]
    } else {
        [512, 1024, 2048]
    };
    let clock = Clock::new();
    let open = rec.begin("core.scaling");
    let seconds: Vec<f64> = sizes
        .iter()
        .map(|&n| factor_user_s(&clock, n, out))
        .collect();
    rec.end(open);
    let ns: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
    out.put("core.scaling_exponent", timing::fit_exponent(&ns, &seconds));

    let largest = sizes[2];
    let tree = ClusterTree::build(
        &uniform_cube(largest, 19),
        256,
        PartitionStrategy::KMeans,
        0,
    );
    let blr_opts = BlrLuOptions {
        tol: 1e-6,
        max_rank: 50,
        admissibility: Admissibility::weak(),
    };
    let open = rec.begin("lorapo.blr_lu");
    let (blr, cost) =
        clock.time(|| BlrLuFactors::factor(&LaplaceKernel::default(), &tree, &blr_opts));
    rec.end(open);
    std::hint::black_box(blr.stats.max_rank);
    out.put("core.speedup_vs_blr", cost.user_s / seconds[2]);
}

/// Traced: the plain sweeps under the refined solve, and what refinement adds.
pub fn solve_sweeps(
    rec: &mut Recorder,
    out: &mut Results,
    factors: &UlvFactors,
    kernel: &dyn Kernel,
    panel: &Matrix,
    refined_w1_s: &[f64],
) {
    let single = Matrix::from_columns(&[panel.col_vec(0)]);
    let plain_w1 = rec.span("core.vsolve_w1", || {
        wall_samples(1, 9, || {
            std::hint::black_box(factors.vsolve(&single).is_ok());
        })
    });
    out.put_summary("core.vsolve_w1_ms", &plain_w1, 1e3);
    let plain_w32 = rec.span("core.vsolve_w32", || {
        wall_samples(1, 5, || {
            std::hint::black_box(factors.vsolve(panel).is_ok());
        })
    });
    out.put_summary("core.vsolve_w32_ms", &plain_w32, 1e3);
    // Share of a refined single solve spent outside its plain sweeps (the
    // kernel residual evaluations): 0 when the configuration refines 0 steps.
    let steps = factors.default_refine_steps();
    let sweeps = (1 + steps) as f64 * timing::median(&plain_w1);
    let share = if steps == 0 {
        0.0
    } else {
        (1.0 - sweeps / timing::median(refined_w1_s)).max(0.0)
    };
    out.put("core.refine_share", share);
    let before = h2_matrix::flop_count();
    std::hint::black_box(factors.vsolve_refined(kernel, &single, steps).is_ok());
    out.put(
        "core.solve_gflop",
        (h2_matrix::flop_count() - before) as f64 / 1e9,
    );
}

/// What tracing cost this run: spans recorded times the measured cost of one
/// span, as a share of the run's wall time.
pub fn trace_overhead(rec: &Recorder, out: &mut Results) {
    let mut scratch = Recorder::new(true);
    let per_span = timing::median(&wall_samples(1, 5, || {
        for _ in 0..200 {
            scratch.span("probe", || ());
        }
    })) / 200.0;
    let spans = rec.spans().len();
    let run_s = rec.wall_of("workload").first().copied().unwrap_or(f64::NAN);
    out.put("bench.spans", spans as f64);
    out.put(
        "bench.trace_overhead_pct",
        100.0 * spans as f64 * per_span / run_s,
    );
}

/// FNV-1a over the bit patterns of every factor matrix: two factorizations
/// agree on it iff they are bitwise identical (up to hash collisions).
pub fn fingerprint(f: &UlvFactors) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| h = (h ^ v).wrapping_mul(0x0100_0000_01b3);
    let mut eat_matrix = |m: &Matrix| {
        eat(m.rows() as u64);
        eat(m.cols() as u64);
        m.as_slice().iter().for_each(|v| eat(v.to_bits()));
    };
    eat_matrix(&f.root_lu.lu);
    for lf in &f.levels {
        for c in &lf.clusters {
            eat_matrix(&c.q);
            eat_matrix(&c.p);
            if let Some(lu) = &c.lu {
                eat_matrix(&lu.lu);
            }
        }
        // Panels in sorted key order, so the hash is well defined.
        for map in [&lf.row_rr, &lf.row_rs, &lf.col_rr, &lf.col_sr] {
            let mut keys: Vec<_> = map.keys().copied().collect();
            keys.sort_unstable();
            keys.iter().for_each(|key| eat_matrix(&map[key]));
        }
    }
    h
}
