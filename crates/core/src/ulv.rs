//! The ULV factorization engine.
//!
//! One engine implements the whole family (BLR²-ULV, HSS-ULV, H²-ULV with/without
//! trailing dependencies); the options select admissibility, hierarchy and scheduling.
//! The algorithm per level (leaf → root) follows §II–III of the paper:
//!
//! 1. **fill-in pre-computation** per pivot of the level's dense blocks
//!    (strong admissibility only) — [`crate::fillin`];
//! 2. **fill-in-aware shared bases**: truncated pivoted QR of `[far-field | fill-ins]`
//!    per block row and block column (Eqs. 27–28), completed to square orthogonal
//!    `Q_i = [U_i^R U_i^S]`, `P_j = [V_j^R V_j^S]`;
//! 3. **USV transform**: dense blocks become `Q_i^T D_ij P_j`, admissible blocks keep
//!    only their skeleton coupling `S_ij = U_i^{S T} A_ij V_j^S` (Eqs. 8–9);
//! 4. **independent elimination** of every block row/column's redundant part
//!    (Eqs. 11–14 extended to the dense neighbours), with Schur updates applied only
//!    to skeleton–skeleton blocks — the dropped redundant-side updates are `O(tol)`
//!    because the fill-ins were folded into the bases;
//! 5. **merge** of the surviving skeleton blocks into the parent level (Eq. 22) and
//!    recursion; the root system is factorized densely (Eq. 15).
//!
//! # One fused task graph
//!
//! The whole pipeline — H² construction (leaf assembly, fill-in, basis, coupling
//! tasks) *and* ULV elimination (transform, pivot, Schur, merge tasks) of
//! **every** level — is registered up front as one live task graph
//! ([`h2_runtime::live_scope`])
//! with per-edge dependency release.  There is no per-level barrier: a cluster
//! of level `L-1` starts compressing its basis the moment its two children's
//! surviving blocks were merged, while other subtrees of level `L` are still
//! eliminating.  Merging is decomposed per parent pair, so each parent block
//! releases as soon as all of its children's contributions exist.  The root
//! system is submitted *dynamically* from inside the final merge task.
//!
//! [`Schedule::Phased`] inserts one no-op gate task per level (every task of
//! level `L-1` additionally depends on the gate over all level-`L` tasks),
//! restoring the historical phase semantics over the *same* task bodies and
//! arenas — which is why fused and phased factors are bitwise identical, as are
//! factors at any thread count: every task writes one slot, and every
//! accumulation order is fixed by the symbolic plan, never by scheduling.
//!
//! Every task reports the flops it performed as its cost, and `live_scope` hands
//! back the graph it executed — that record, unedited, is
//! [`UlvFactors::task_graph`], which the scheduler simulator replays on any number
//! of virtual cores.  Next to it sits a per-task-class time breakdown including the
//! measured construction↔factorization overlap fraction ([`TaskClassBreakdown`]).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use h2_geometry::{ClusterTree, Kernel};
use h2_hmatrix::basis::far_field_sample_indices;
use h2_hmatrix::{BlockPartition, BlockType};
use h2_lowrank::{sketched_pivoted_qr, srft_detect_tol, srft_sketch_or_panel, CompressionMode};
use h2_matrix::{
    flop_count, lu_factor, lu_solve_mat, matmul, matmul_batch, matmul_tn, matmul_tn_batch_shared_a,
    pivoted_qr, pivoted_qr_stop_batch, select_interpolation_rows, Lu, Matrix, PivotedQr,
    SolverError, SolverResult, INTERP_COND_TOL,
};

use crate::fillin::{col_fills_from, fillin_pivot, row_fills_from, FillSketch, PivotFills};
use crate::options::{FactorOptions, Hierarchy, Schedule, Variant};
use h2_runtime::{live_scope, LiveScope, TaskGraph, TaskId, TaskKind, ThreadPool};

/// Per-cluster factor data at one level.
#[derive(Debug, Clone)]
pub struct ClusterFactor {
    /// Row basis `[U^R | U^S]` (square, `a x a`).
    pub q: Matrix,
    /// Column basis `[V^R | V^S]` (square, `a x a`).
    pub p: Matrix,
    /// Active size `a` of this cluster at this level.
    pub active: usize,
    /// Redundant dimension `r` eliminated at this level.
    pub redundant: usize,
    /// Skeleton dimension `k` passed to the parent.
    pub skeleton: usize,
    /// LU factors of the redundant-redundant diagonal block (absent when `r == 0`).
    pub lu: Option<Lu>,
}

/// Factor data of one processed level.
#[derive(Debug)]
pub struct LevelFactor {
    /// Tree level this corresponds to.
    pub level: usize,
    /// Number of block rows/columns.
    pub nb: usize,
    /// Per-cluster factors.
    pub clusters: Vec<ClusterFactor>,
    /// Off-diagonal dense neighbours per block row (excluding the diagonal).
    pub neighbours: Vec<Vec<usize>>,
    /// Row panels `L_k^{-1} P_k D_kj^{RR}` for `(k, j)`, `j != k` a neighbour of `k`.
    pub row_rr: HashMap<(usize, usize), Matrix>,
    /// Row panels `L_k^{-1} P_k D_kj^{RS}` for `j` a neighbour of `k` or `j == k`.
    pub row_rs: HashMap<(usize, usize), Matrix>,
    /// Column panels `D_ik^{RR} U_k^{-1}` for `(i, k)`, `i != k` a neighbour of `k`.
    pub col_rr: HashMap<(usize, usize), Matrix>,
    /// Column panels `D_ik^{SR} U_k^{-1}` for `i` a neighbour of `k` or `i == k`.
    pub col_sr: HashMap<(usize, usize), Matrix>,
}

/// Seconds of construction work per phase, reported in two scales.
///
/// The `*_seconds` fields are **CPU work**: DAG-task spans are exact per-thread
/// time (each task runs on one thread), so under multi-threading the phase sum
/// can legitimately exceed the construction wall clock.  The `*_wall_seconds`
/// fields attribute the measured wall-clock span of the fused graph to the
/// phases proportionally to their CPU shares, so they sum to (at most) the
/// graph wall at any thread count.  At one thread the two scales coincide up
/// to scheduler overhead.  Serial pre-graph sections (leaf dense assembly) are
/// wall time and count in both.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseBreakdown {
    /// Kernel-entry evaluation (far-field samples, couplings, dense leaves); CPU work.
    pub assembly_seconds: f64,
    /// Basis compression: QR / sketch factorizations, far-field projections and
    /// fill-in pre-computation feeding them; CPU work.
    pub compression_seconds: f64,
    /// Coupling projection onto the skeleton bases (after assembly); CPU work.
    pub coupling_seconds: f64,
    /// Skeleton-row interpolation bookkeeping carried between levels; CPU work.
    pub transfer_seconds: f64,
    /// Wall-attributed share of [`PhaseBreakdown::assembly_seconds`].
    pub assembly_wall_seconds: f64,
    /// Wall-attributed share of [`PhaseBreakdown::compression_seconds`].
    pub compression_wall_seconds: f64,
    /// Wall-attributed share of [`PhaseBreakdown::coupling_seconds`].
    pub coupling_wall_seconds: f64,
    /// Wall-attributed share of [`PhaseBreakdown::transfer_seconds`].
    pub transfer_wall_seconds: f64,
}

/// Counters of the breakdown-recovery ladder: how many times a compression
/// rung failed (produced a non-finite basis) and escalated to the next rung,
/// and how many singular redundant diagonal blocks were repaired by a
/// diagonal shift.  All zero on a clean run; non-zero counts mean the
/// factorization survived injected or genuine numerical faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryEvents {
    /// SRFT f32 sketches that broke down and escalated to SRFT f64.
    pub srft_f32_to_f64: u64,
    /// SRFT f64 sketches that broke down and escalated to a Gaussian sketch.
    pub srft_to_gaussian: u64,
    /// Gaussian sketches that broke down and escalated to direct pivoted QR.
    pub sketch_to_direct: u64,
    /// Singular redundant diagonal blocks repaired by a diagonal shift.
    pub pivot_shifts: u64,
}

impl RecoveryEvents {
    /// Sum of every escalation and repair event.
    pub fn total(&self) -> u64 {
        self.srft_f32_to_f64 + self.srft_to_gaussian + self.sketch_to_direct + self.pivot_shifts
    }

    fn absorb(&mut self, other: RecoveryEvents) {
        self.srft_f32_to_f64 += other.srft_f32_to_f64;
        self.srft_to_gaussian += other.srft_to_gaussian;
        self.sketch_to_direct += other.sketch_to_direct;
        self.pivot_shifts += other.pivot_shifts;
    }
}

/// CPU seconds per task class of the fused factorization graph, plus the
/// measured overlap between the construction and factorization spans.
///
/// Class seconds are exact per-thread task time (a task runs on one thread);
/// under multi-threading their sum exceeds
/// [`TaskClassBreakdown::graph_wall_seconds`].  The spans are
/// `[first task start, last task end]` of each group over the graph's wall
/// clock, and the overlap fraction is their intersection divided by the graph
/// wall — non-zero whenever construction of one part of the tree ran
/// concurrently (or, phased, interleaved within a level) with elimination of
/// another.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskClassBreakdown {
    /// Fill-in pre-computation tasks (one per pivot with dense neighbours).
    pub fill_seconds: f64,
    /// Basis compression tasks (one per cluster per level).
    pub basis_seconds: f64,
    /// Skeleton coupling tasks (one per admissible pair).
    pub coupling_seconds: f64,
    /// Two-sided USV transform tasks (one per dense block row).
    pub transform_seconds: f64,
    /// Pivot elimination tasks: LU + panel solves + Schur products.
    pub pivot_seconds: f64,
    /// Skeleton–skeleton accumulation tasks (one per surviving block).
    pub schur_seconds: f64,
    /// Per-parent-pair merge tasks.
    pub merge_seconds: f64,
    /// Parent basis-map stacking tasks (one per parent cluster).
    pub map_seconds: f64,
    /// The dense root factorization task.
    pub root_seconds: f64,
    /// Wall-clock seconds of the whole fused graph.
    pub graph_wall_seconds: f64,
    /// Wall span covered by construction tasks (fill/basis/coupling).
    pub construction_span_seconds: f64,
    /// Wall span covered by factorization tasks (transform/pivot/Schur/merge/map/root).
    pub factorization_span_seconds: f64,
    /// Intersection of the two spans divided by the graph wall, in `[0, 1]`.
    pub overlap_fraction: f64,
}

/// Statistics of a factorization run.
#[derive(Debug, Clone, Default)]
pub struct FactorStats {
    /// Seconds spent assembling kernel blocks, bases and couplings.
    pub construction_seconds: f64,
    /// Construction CPU time split by phase.
    pub phases: PhaseBreakdown,
    /// Seconds spent in the elimination itself (transform + LU + TRSM + Schur + merge).
    pub factorization_seconds: f64,
    /// Flops counted during the elimination phase.
    pub factorization_flops: u64,
    /// Flops counted during construction (basis + coupling assembly).
    pub construction_flops: u64,
    /// Largest skeleton rank encountered at any level.
    pub max_rank: usize,
    /// Largest skeleton rank per processed level (leaf first).
    pub level_ranks: Vec<usize>,
    /// Per processed level (leaf first): number of basis factorizations whose
    /// tolerance-detected rank exceeded the effective rank cap and was truncated
    /// to it.  Persistent non-zero counts towards the root mean the cap (not the
    /// tolerance) governs the accuracy — raise `max_rank` or `max_rank_growth`.
    pub level_cap_hits: Vec<usize>,
    /// Dimension of the final dense root system.
    pub root_dim: usize,
    /// Total number of fill-in blocks pre-computed.
    pub fillin_blocks: usize,
    /// Storage of the factor object in floating-point words.
    pub memory_words: usize,
    /// Breakdown-recovery ladder escalations and pivot repairs.
    pub recovery: RecoveryEvents,
    /// Per-task-class CPU time of the fused graph and the measured
    /// construction↔factorization overlap fraction.
    pub task_classes: TaskClassBreakdown,
}

/// The result of a ULV factorization: everything needed to solve, plus diagnostics.
pub struct UlvFactors {
    /// The cluster tree (shared with the [`crate::session::Analysis`] that
    /// produced it; defines orderings for the solve).
    pub tree: Arc<ClusterTree>,
    /// The options the factorization ran with.
    pub options: FactorOptions,
    /// Factors per processed level, leaf first.
    pub levels: Vec<LevelFactor>,
    /// Dense LU of the root skeleton system.
    pub root_lu: Lu,
    /// Offsets of each top-level cluster's skeleton inside the root system.
    pub root_offsets: Vec<usize>,
    /// Number of top-level clusters feeding the root system.
    pub root_clusters: usize,
    /// Run statistics.
    pub stats: FactorStats,
    /// The task graph this factorization executed, as recorded by
    /// [`h2_runtime::live_scope`]: one node per task that ran, its dependency
    /// edges, and the flops its body counted as cost.
    pub task_graph: TaskGraph,
    /// Number of refinement-ladder escalations taken by
    /// [`UlvFactors::solve_to_tolerance`] beyond its first rung.
    pub refine_escalations: AtomicU64,
}

/// The factorization driver.
pub struct UlvFactorization;

/// Output of one pivot's independent elimination task.  Results are collected
/// into per-pivot slots and merged serially in block order, which keeps the
/// DAG-parallel section free of shared mutable state and the merged factors
/// bitwise independent of the thread count.
struct PivotResult {
    k: usize,
    lu: Option<Lu>,
    /// Whether the redundant diagonal block needed a diagonal-shift repair.
    shifted: bool,
    row_rr: Vec<((usize, usize), Matrix)>,
    row_rs: Vec<((usize, usize), Matrix)>,
    col_rr: Vec<((usize, usize), Matrix)>,
    col_sr: Vec<((usize, usize), Matrix)>,
    schur: Vec<(usize, usize, Matrix)>,
}

// Task classes of the fused graph, indexing [`GraphMeters::classes`].
const CLASS_FILL: usize = 0;
const CLASS_BASIS: usize = 1;
const CLASS_COUPLING: usize = 2;
const CLASS_TRANSFORM: usize = 3;
const CLASS_PIVOT: usize = 4;
const CLASS_SCHUR: usize = 5;
const CLASS_MERGE: usize = 6;
const CLASS_MAP: usize = 7;
const CLASS_ROOT: usize = 8;
/// Leaf dense-block assembly: metered like a class, reported as a construction
/// phase ([`PhaseBreakdown::assembly_seconds`]) rather than a
/// [`TaskClassBreakdown`] field.
const CLASS_ASSEMBLY: usize = 9;
const CLASS_COUNT: usize = 10;

// Construction sub-phases, indexing [`LevelArena::phase_nanos`].
const PH_ASSEMBLY: usize = 0;
const PH_COMPRESSION: usize = 1;
const PH_COUPLING: usize = 2;
const PH_TRANSFER: usize = 3;

// Scheduling stages inside one level: finer levels and earlier stages run
// first when several tasks are ready, which keeps the fused pipeline flowing
// leaf-to-root.  Priorities only steer the scheduler; correctness and the
// factor bits depend solely on the dependency edges.
const STAGE_ASSEMBLY: usize = 7;
const STAGE_FILL: usize = 7;
const STAGE_BASIS: usize = 6;
const STAGE_COUPLING: usize = 5;
const STAGE_TRANSFORM: usize = 4;
const STAGE_PIVOT: usize = 3;
const STAGE_SS: usize = 2;
const STAGE_MAP: usize = 2;
const STAGE_MERGE: usize = 1;

/// Task priority: deeper levels (larger `level`) outrank coarser ones, and
/// within a level the pipeline runs fill → basis → … → merge.
fn prio(level: usize, stage: usize) -> f64 {
    (level * 8 + stage) as f64
}

/// Whether a task class belongs to H² construction (the rest is elimination).
fn is_construction(class: usize) -> bool {
    matches!(
        class,
        CLASS_ASSEMBLY | CLASS_FILL | CLASS_BASIS | CLASS_COUPLING
    )
}

/// Per-class accounting for DAG tasks: CPU nanoseconds (for attributing the
/// wall-clock span between construction and elimination) and **exact** flop
/// counts, sampled from the thread-local counter — a task runs on exactly one
/// thread, so its delta is unaffected by whatever executes concurrently.
struct ClassMeter {
    nanos: AtomicU64,
    flops: AtomicU64,
}

impl ClassMeter {
    fn new() -> Self {
        ClassMeter {
            nanos: AtomicU64::new(0),
            flops: AtomicU64::new(0),
        }
    }

    /// Sample the start of a task region.
    fn begin() -> (Instant, u64) {
        (Instant::now(), h2_matrix::flops::thread_flop_count())
    }
}

/// Wall-clock span `[first start, last end]` of a task group, in nanoseconds
/// since the graph's epoch.
struct SpanMeter {
    start: AtomicU64,
    end: AtomicU64,
}

impl SpanMeter {
    fn new() -> Self {
        SpanMeter {
            start: AtomicU64::new(u64::MAX),
            end: AtomicU64::new(0),
        }
    }

    fn cover(&self, start: u64, end: u64) {
        self.start.fetch_min(start, Ordering::Relaxed);
        self.end.fetch_max(end, Ordering::Relaxed);
    }

    fn seconds(&self) -> f64 {
        let s = self.start.load(Ordering::Relaxed);
        let e = self.end.load(Ordering::Relaxed);
        if s == u64::MAX || e <= s {
            0.0
        } else {
            (e - s) as f64 / 1e9
        }
    }
}

/// Run-wide meters of the fused graph: per-class CPU/flop meters plus the
/// construction and factorization wall spans whose intersection yields the
/// overlap fraction.
struct GraphMeters {
    t0: Instant,
    classes: [ClassMeter; CLASS_COUNT],
    construction: SpanMeter,
    factorization: SpanMeter,
}

impl GraphMeters {
    fn new() -> Self {
        GraphMeters {
            t0: Instant::now(),
            classes: std::array::from_fn(|_| ClassMeter::new()),
            construction: SpanMeter::new(),
            factorization: SpanMeter::new(),
        }
    }

    /// Credit a task region started by [`ClassMeter::begin`] to `class`, cover
    /// the matching group span, and report the region's flops as the running
    /// task's cost in the recorded graph.
    fn finish(&self, scope: &LiveScope<'_>, class: usize, begun: (Instant, u64)) {
        let nanos = begun.0.elapsed().as_nanos() as u64;
        let flops = h2_matrix::flops::thread_flop_count() - begun.1;
        scope.report_cost(flops as f64);
        self.classes[class]
            .nanos
            .fetch_add(nanos, Ordering::Relaxed);
        self.classes[class]
            .flops
            .fetch_add(flops, Ordering::Relaxed);
        let start = begun.0.saturating_duration_since(self.t0).as_nanos() as u64;
        let span = if is_construction(class) {
            &self.construction
        } else {
            &self.factorization
        };
        span.cover(start, start + nanos);
    }

    fn nanos_of(&self, class: usize) -> u64 {
        self.classes[class].nanos.load(Ordering::Relaxed)
    }

    fn flops_of(&self, class: usize) -> u64 {
        self.classes[class].flops.load(Ordering::Relaxed)
    }

    fn seconds_of(&self, class: usize) -> f64 {
        self.nanos_of(class) as f64 / 1e9
    }

    /// Intersection of the construction and factorization spans over `wall`.
    fn overlap_fraction(&self, wall: f64) -> f64 {
        if wall <= 0.0 {
            return 0.0;
        }
        let cs = self.construction.start.load(Ordering::Relaxed);
        let ce = self.construction.end.load(Ordering::Relaxed);
        let fs = self.factorization.start.load(Ordering::Relaxed);
        let fe = self.factorization.end.load(Ordering::Relaxed);
        if cs == u64::MAX || fs == u64::MAX {
            return 0.0;
        }
        let lo = cs.max(fs);
        let hi = ce.min(fe);
        if hi <= lo {
            return 0.0;
        }
        ((hi - lo) as f64 / 1e9 / wall).min(1.0)
    }
}

/// Skeleton interpolation data of one side (row or column) of a cluster: the
/// selected original-point indices `r` of the explicit skeleton map
/// `M = W · U^S` (`m x k`, orthonormal columns), the selected square block
/// `R = M[r, :]` and its LU.  Because `M^T M = I`, any admissible block satisfies
/// `M^T A N ≈ R_i^{-1} · A[r_i, c_j] · R_j^{-T}` — couplings from `k x k` kernel
/// evaluations instead of full-block assembly (recursive-skeletonization style,
/// cf. Ho & Greengard, arXiv:1110.3105).
struct SkeletonSide {
    /// Selected original-point indices (`k` of them, in pivot order).
    rows: Vec<usize>,
    /// `R = M[rows, :]`, the `k x k` interpolation block.
    rmat: Matrix,
    /// LU of `R`.
    lu: Lu,
}

/// Output slot of one basis task: the cluster factor plus the skeleton
/// interpolation data the coupling tasks and the next level consume.
struct BasisOut {
    cf: ClusterFactor,
    /// How many of the cluster's two basis factorizations hit the rank cap.
    cap_hits: usize,
    /// Recovery-ladder escalations this cluster's compression went through.
    recovery: RecoveryEvents,
    row_interp: Option<SkeletonSide>,
    col_interp: Option<SkeletonSide>,
}

/// Why one cluster's basis compression failed (mapped to a [`SolverError`]
/// with the cluster/level coordinates at the call site).
enum CompressError {
    /// The input panel itself contains NaN/inf — no sketch rung can help.
    NonFinite,
    /// Every rung of the recovery ladder produced a non-finite basis.
    Breakdown,
}

/// Whether every entry of `m` is finite.
fn matrix_is_finite(m: &Matrix) -> bool {
    (0..m.cols()).all(|j| m.col(j).iter().all(|x| x.is_finite()))
}

/// Deterministic per-task seed for the sketched compression: independent tasks
/// draw from disjoint, thread-count-independent streams.
fn mix_seed(seed: u64, level: usize, i: usize, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E3779B97F4A7C15)
        ^ (level as u64).wrapping_mul(0xBF58476D1CE4E5B9)
        ^ (i as u64).wrapping_mul(0x94D049BB133111EB)
        ^ salt.wrapping_mul(0xD6E8FEB86659FD93)
}

/// Select `k` interpolation rows from the candidate matrix `c` (`cand x k`, the
/// explicit skeleton map restricted to candidate rows `cand_rows`): a pivoted QR
/// of `c^T` picks the best-conditioned row subset, and the LU of the selected
/// square block provides the interpolation solves.  Returns `None` when the rank
/// does not allow interpolation (callers fall back to exact assembly).
fn build_skeleton_interp(c: &Matrix, cand_rows: &[usize]) -> Option<SkeletonSide> {
    let (positions, rmat) = select_interpolation_rows(c, INTERP_COND_TOL)?;
    let rows = positions.into_iter().map(|p| cand_rows[p]).collect();
    let lu = lu_factor(&rmat).ok()?;
    Some(SkeletonSide { rows, rmat, lu })
}

// --------------------------------------------------------------- symbolic plan

/// Which carried-fill slot a basis-enrichment input comes from.
#[derive(Debug, Clone, Copy)]
enum CarrySlot {
    /// Index into the level's admissible pairs (`adm_in` slot).
    Adm(usize),
    /// Index into the level's pending-carry candidates (`pend_in` slot).
    Pend(usize),
}

/// One surviving skeleton–skeleton block candidate of a level: where its
/// contributions come from (at most one each of dense/admissible/pending) and
/// which pivots' Schur updates target it.
struct SsCand {
    pair: (usize, usize),
    dense_idx: Option<usize>,
    adm_idx: Option<usize>,
    pend_idx: Option<usize>,
    /// Pivots whose Schur updates land here, ascending.
    schur_from: Vec<usize>,
}

/// Where one parent pair's merged block goes.
#[derive(Debug, Clone, Copy)]
enum MergeTarget {
    /// `dense_in` slot of the parent level.
    Dense(usize),
    /// `adm_in` slot of the parent level.
    Adm(usize),
    /// `pend_in` slot of the parent level.
    Pend(usize),
    /// The dense root system (MultiLevel, final level only).
    Root,
}

/// One per-parent-pair merge task: the child `ss_cand` indices feeding it and
/// the parent slot (or root) receiving the merged block.
struct MergeGroup {
    parent: (usize, usize),
    /// Indices into the child level's `ss_cand`, in `ss_cand` order.
    children: Vec<usize>,
    target: MergeTarget,
}

/// The symbolic plan of one level: every candidate index space the level's
/// tasks read or write, computed once up front so task bodies never touch a
/// shared mutable map.  All pair lists are sorted row-major (binary-searchable)
/// and all accumulation orders are fixed here — that is what makes the fused
/// graph's factors bitwise identical to the phased ones at any thread count.
struct LevelPlan {
    level: usize,
    nb: usize,
    eff_max_rank: Option<usize>,
    /// Off-diagonal inadmissible columns per row.
    neighbours: Vec<Vec<usize>>,
    /// For each cluster `i`: the pivots `k` with `i ∈ neighbours[k]`, ascending.
    /// Serves both the row and the column fill sides (the neighbour relation is
    /// symmetric).  Empty when fill-in enrichment is off for the level.
    pivots_of: Vec<Vec<usize>>,
    /// Admissible pairs, row-major.
    admissible: Vec<(usize, usize)>,
    /// Dense-block candidates, row-major: the actual dense pairs at the leaf,
    /// every inadmissible pair above it (merges may leave some empty).
    dense_cand: Vec<(usize, usize)>,
    /// Indices into `dense_cand` per block row.
    row_dense: Vec<Vec<usize>>,
    /// Covered parent pairs that receive merged child blocks (pending carries).
    pend_cand: Vec<(usize, usize)>,
    /// Carried-fill enrichment candidates, sorted by pair — the fused twin of
    /// the phased code's sorted carry-key scan.
    carry_cand: Vec<((usize, usize), CarrySlot)>,
    /// Surviving skeleton–skeleton block candidates, sorted by pair.
    ss_cand: Vec<SsCand>,
    /// Per-parent-pair merge tasks of THIS level (they write the parent's slots).
    merges: Vec<MergeGroup>,
    /// Whether each `dense_cand` slot has a producer task (preset otherwise).
    dense_produced: Vec<bool>,
    /// Whether each admissible slot receives a merged carry (preset otherwise).
    adm_produced: Vec<bool>,
    do_fills: bool,
    fill_sketch: FillSketch,
    sample_cols: Option<usize>,
}

/// Union sample width of the sampled fill-in path on the f64 pipelines: keeps
/// bench residuals at or below the exact-fill reference across the sweep.
const FILL_SAMPLE_F64: usize = 128;
/// Union sample width on the mixed-precision SRFT pipeline, which only needs
/// the dominant fill directions — its solves run iterative refinement, which
/// mops up the tail.
const FILL_SAMPLE_F32: usize = 64;

/// Construct the symbolic plans of every processed level, leaf first.
fn build_plans(
    partition: &BlockPartition,
    opts: &FactorOptions,
    depth: usize,
    last_level: usize,
) -> Vec<LevelPlan> {
    let nlev = depth - last_level + 1;
    let mut plans: Vec<LevelPlan> = Vec::with_capacity(nlev);
    for t in 0..nlev {
        let level = depth - t;
        let nb = 1usize << level;
        let neighbours = partition.neighbour_lists(level);
        let admissible = partition.admissible_pairs(level);
        let dense_cand = if t == 0 {
            partition.dense_pairs(depth)
        } else {
            partition.neighbour_pairs(level)
        };
        let do_fills = opts.fillin_enrichment && neighbours.iter().any(|l| !l.is_empty());
        // SRFT compression also sketches the fill unions structurally; the
        // Gaussian/Direct modes keep the dense test blocks so A/B runs
        // compare the whole pipeline, not just the basis sketch.
        let fill_sketch = match opts.compression {
            CompressionMode::Srft { precision, .. } => {
                FillSketch::Srft(precision.effective_for_tol(opts.tol))
            }
            _ => FillSketch::Gaussian,
        };
        // In sampled construction mode the fill-in column/row spaces are
        // captured through random test matrices instead of forming every
        // product exactly.
        let sample_cols = match (opts.basis_mode, fill_sketch) {
            (h2_hmatrix::BasisMode::Exact, _) => None,
            (_, FillSketch::Srft(h2_lowrank::SketchPrecision::F32)) => Some(FILL_SAMPLE_F32),
            _ => Some(FILL_SAMPLE_F64),
        };
        let mut pivots_of: Vec<Vec<usize>> = vec![Vec::new(); nb];
        if do_fills {
            for (k, nk) in neighbours.iter().enumerate() {
                for &i in nk {
                    pivots_of[i].push(k);
                }
            }
        }

        // Parents of the child level's surviving blocks: classify each parent
        // pair once, record the child level's per-parent merge groups, and
        // mark which of this level's input slots have a producer.
        let mut pend_cand: Vec<(usize, usize)> = Vec::new();
        let mut dense_produced = vec![t == 0; dense_cand.len()];
        let mut adm_produced = vec![false; admissible.len()];
        if t > 0 {
            let child_ss: Vec<(usize, usize)> =
                plans[t - 1].ss_cand.iter().map(|c| c.pair).collect();
            let mut parents: Vec<(usize, usize)> =
                child_ss.iter().map(|&(i, j)| (i / 2, j / 2)).collect();
            parents.sort_unstable();
            parents.dedup();
            for &(pi, pj) in &parents {
                if partition.block_type(level, pi, pj) == BlockType::Covered {
                    pend_cand.push((pi, pj));
                }
            }
            let mut merges: Vec<MergeGroup> = Vec::with_capacity(parents.len());
            for &(pi, pj) in &parents {
                let children: Vec<usize> = child_ss
                    .iter()
                    .enumerate()
                    .filter(|&(_, &(ci, cj))| (ci / 2, cj / 2) == (pi, pj))
                    .map(|(x, _)| x)
                    .collect();
                // The binary searches below are plan-time symbolic invariants:
                // every classified parent pair is in its class's candidate
                // list by construction of those lists.
                let target = match partition.block_type(level, pi, pj) {
                    BlockType::DenseLeaf | BlockType::Subdivided => {
                        let x = dense_cand.binary_search(&(pi, pj)).unwrap_or_else(|_| {
                            unreachable!("inadmissible parent ({pi}, {pj}) not a dense candidate")
                        });
                        dense_produced[x] = true;
                        MergeTarget::Dense(x)
                    }
                    BlockType::Admissible => {
                        let x = admissible.binary_search(&(pi, pj)).unwrap_or_else(|_| {
                            unreachable!("admissible parent ({pi}, {pj}) not in admissible pairs")
                        });
                        adm_produced[x] = true;
                        MergeTarget::Adm(x)
                    }
                    BlockType::Covered => {
                        let x = pend_cand.binary_search(&(pi, pj)).unwrap_or_else(|_| {
                            unreachable!("covered parent ({pi}, {pj}) not a pending candidate")
                        });
                        MergeTarget::Pend(x)
                    }
                };
                merges.push(MergeGroup {
                    parent: (pi, pj),
                    children,
                    target,
                });
            }
            plans[t - 1].merges = merges;
        }

        // Carried-fill candidates in sorted pair order — the same order the
        // phased code visited its carry keys in.
        let mut carry_cand: Vec<((usize, usize), CarrySlot)> = Vec::new();
        for (x, &p) in admissible.iter().enumerate() {
            if adm_produced[x] {
                carry_cand.push((p, CarrySlot::Adm(x)));
            }
        }
        for (x, &p) in pend_cand.iter().enumerate() {
            carry_cand.push((p, CarrySlot::Pend(x)));
        }
        carry_cand.sort_unstable_by_key(|&(p, _)| p);

        let mut row_dense: Vec<Vec<usize>> = vec![Vec::new(); nb];
        for (x, &(i, _)) in dense_cand.iter().enumerate() {
            row_dense[i].push(x);
        }

        // Surviving skeleton–skeleton candidates: every dense / admissible /
        // pending pair plus every Schur target (i, j) ∈ (N(k) ∪ {k})² of every
        // pivot k, with the contributing pivots recorded ascending.
        let blank = |p: (usize, usize)| SsCand {
            pair: p,
            dense_idx: None,
            adm_idx: None,
            pend_idx: None,
            schur_from: Vec::new(),
        };
        let mut ss_map: BTreeMap<(usize, usize), SsCand> = BTreeMap::new();
        for (x, &p) in dense_cand.iter().enumerate() {
            ss_map.entry(p).or_insert_with(|| blank(p)).dense_idx = Some(x);
        }
        for (x, &p) in admissible.iter().enumerate() {
            ss_map.entry(p).or_insert_with(|| blank(p)).adm_idx = Some(x);
        }
        for (x, &p) in pend_cand.iter().enumerate() {
            ss_map.entry(p).or_insert_with(|| blank(p)).pend_idx = Some(x);
        }
        for (k, nk) in neighbours.iter().enumerate() {
            let mut tlist: Vec<usize> = nk.clone();
            tlist.push(k);
            tlist.sort_unstable();
            for &i in &tlist {
                for &j in &tlist {
                    ss_map
                        .entry((i, j))
                        .or_insert_with(|| blank((i, j)))
                        .schur_from
                        .push(k);
                }
            }
        }
        let ss_cand: Vec<SsCand> = ss_map.into_values().collect();

        plans.push(LevelPlan {
            level,
            nb,
            eff_max_rank: opts.effective_max_rank(depth - level),
            neighbours,
            pivots_of,
            admissible,
            dense_cand,
            row_dense,
            pend_cand,
            carry_cand,
            ss_cand,
            merges: Vec::new(),
            dense_produced,
            adm_produced,
            do_fills,
            fill_sketch,
            sample_cols,
        });
    }
    // The final multi-level merge collapses level 1 into the root pair (0, 0):
    // one merge group whose output is handed to the dynamically submitted
    // root-factorization task instead of to a parent slot.
    if opts.hierarchy == Hierarchy::MultiLevel {
        if let Some(last) = plans.last_mut() {
            last.merges = vec![MergeGroup {
                parent: (0, 0),
                children: (0..last.ss_cand.len()).collect(),
                target: MergeTarget::Root,
            }];
        }
    }
    plans
}

// -------------------------------------------------------------------- arenas

fn slots<T>(n: usize) -> Vec<OnceLock<T>> {
    (0..n).map(|_| OnceLock::new()).collect()
}

/// Output slots of one level's tasks.  Every slot has exactly one writer task.
/// Convention for `OnceLock<Option<Matrix>>` slots: **unset** = the producer
/// degraded because an upstream task errored (dependents degrade too; the
/// collection pass surfaces the first error in deterministic order);
/// `Some(None)` = the producer ran and the block is absent at runtime;
/// `Some(Some(m))` = present.
struct LevelArena {
    /// Active size per cluster (leaf: preset; above: set by the map task).
    active: Vec<OnceLock<usize>>,
    /// Accumulated row map per cluster (`None` = identity).
    row_map: Vec<OnceLock<Option<Matrix>>>,
    /// Accumulated column map per cluster.
    col_map: Vec<OnceLock<Option<Matrix>>>,
    /// Dense input blocks, aligned with `plan.dense_cand` (leaf: set by the
    /// assembly tasks; above: by the merges).
    dense_in: Vec<OnceLock<Option<Matrix>>>,
    /// Merged carries addressed to admissible pairs, aligned with `plan.admissible`.
    adm_in: Vec<OnceLock<Option<Matrix>>>,
    /// Merged carries addressed to covered pairs, aligned with `plan.pend_cand`.
    pend_in: Vec<OnceLock<Option<Matrix>>>,
    /// Per-pivot fill-in contributions (set only for pivots with neighbours).
    fill: Vec<OnceLock<PivotFills>>,
    /// Basis task outputs.
    basis: Vec<OnceLock<Result<BasisOut, SolverError>>>,
    /// Coupling task outputs, aligned with `plan.admissible`.
    coupling: Vec<OnceLock<Result<Matrix, SolverError>>>,
    /// Transformed dense blocks, aligned with `plan.dense_cand`.
    transform: Vec<OnceLock<Option<Matrix>>>,
    /// Pivot elimination outputs.
    pivot: Vec<OnceLock<Result<PivotResult, SolverError>>>,
    /// Surviving skeleton–skeleton blocks, aligned with `plan.ss_cand`.
    ss: Vec<OnceLock<Option<Matrix>>>,
    /// Construction sub-phase CPU nanoseconds (assembly/compression/coupling/transfer).
    phase_nanos: [AtomicU64; 4],
}

impl LevelArena {
    fn new(plan: &LevelPlan) -> Self {
        LevelArena {
            active: slots(plan.nb),
            row_map: slots(plan.nb),
            col_map: slots(plan.nb),
            dense_in: slots(plan.dense_cand.len()),
            adm_in: slots(plan.admissible.len()),
            pend_in: slots(plan.pend_cand.len()),
            fill: slots(plan.nb),
            basis: slots(plan.nb),
            coupling: slots(plan.admissible.len()),
            transform: slots(plan.dense_cand.len()),
            pivot: slots(plan.nb),
            ss: slots(plan.ss_cand.len()),
            phase_nanos: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }
}

/// Task handles of one level, used to wire dependency edges.  The `*_prod`
/// producer fields of level `t` are filled while registering level `t-1` (its
/// map and merge tasks write level `t`'s input slots).
struct LevelTasks {
    /// Every task of the level (the phased gate depends on all of them).
    all: Vec<TaskId>,
    fill: Vec<Option<TaskId>>,
    basis: Vec<TaskId>,
    coupling: Vec<TaskId>,
    row_transform: Vec<Option<TaskId>>,
    pivot: Vec<TaskId>,
    ss: Vec<TaskId>,
    /// Producer of this level's `row_map`/`col_map`/`active` slots per cluster.
    map_prod: Vec<Option<TaskId>>,
    /// Producer of each `dense_in` slot (`None` = preset absent).
    dense_prod: Vec<Option<TaskId>>,
    /// Producer of each `adm_in` slot (`None` = preset).
    adm_prod: Vec<Option<TaskId>>,
    /// Producer of each `pend_in` slot.
    pend_prod: Vec<Option<TaskId>>,
}

impl LevelTasks {
    fn new(plan: &LevelPlan) -> Self {
        LevelTasks {
            all: Vec::new(),
            fill: vec![None; plan.nb],
            basis: Vec::with_capacity(plan.nb),
            coupling: Vec::with_capacity(plan.admissible.len()),
            row_transform: vec![None; plan.nb],
            pivot: Vec::with_capacity(plan.nb),
            ss: Vec::with_capacity(plan.ss_cand.len()),
            map_prod: vec![None; plan.nb],
            dense_prod: vec![None; plan.dense_cand.len()],
            adm_prod: vec![None; plan.admissible.len()],
            pend_prod: vec![None; plan.pend_cand.len()],
        }
    }
}

/// Output of the root factorization task.
struct RootOut {
    dim: usize,
    lu: Lu,
    offsets: Vec<usize>,
    clusters: usize,
}

/// Everything the per-level registrars borrow for `'env` (the lifetime of the
/// fused graph's scope).
struct RegisterCtx<'env> {
    kernel: &'env dyn Kernel,
    tree: &'env ClusterTree,
    partition: &'env BlockPartition,
    opts: &'env FactorOptions,
    plans: &'env [LevelPlan],
    arenas: &'env [LevelArena],
    meters: &'env GraphMeters,
    root_out: &'env OnceLock<SolverResult<RootOut>>,
    /// Lowest `dense_cand` index of a non-finite leaf block (`usize::MAX` = none).
    bad_leaf_block: &'env AtomicUsize,
}

/// Sort + dedup a dependency list (duplicate edges are legal but wasteful).
fn dedup_deps(mut deps: Vec<TaskId>) -> Vec<TaskId> {
    deps.sort_unstable();
    deps.dedup();
    deps
}

impl UlvFactorization {
    /// Factorize the kernel matrix defined by `kernel` over `tree` according to `opts`.
    ///
    /// Degenerate inputs (non-finite coordinates, coincident points under a
    /// kernel that is singular at zero distance), numerical breakdowns the
    /// recovery ladder cannot repair, and worker-task panics all surface as
    /// typed [`SolverError`]s instead of aborting the process.
    pub fn factor(
        kernel: &dyn Kernel,
        tree: &ClusterTree,
        opts: &FactorOptions,
    ) -> SolverResult<UlvFactors> {
        let analysis =
            crate::session::Analysis::from_tree(Arc::new(tree.clone()), opts.admissibility);
        Self::factor_analyzed(kernel, &analysis, opts)
    }

    /// Factorize against a prebuilt [`crate::session::Analysis`]: the symbolic
    /// phase (cluster tree + block partition) is shared, so repeated
    /// factorizations over the same geometry — different kernels or tolerances
    /// — skip it entirely and the resulting factors share the tree instead of
    /// deep-copying it.  `opts.admissibility` is overridden by the analysis's
    /// own condition (the partition was built with it).
    ///
    /// # Errors
    /// Same conditions as [`UlvFactorization::factor`].
    pub fn factor_analyzed(
        kernel: &dyn Kernel,
        analysis: &crate::session::Analysis,
        opts: &FactorOptions,
    ) -> SolverResult<UlvFactors> {
        let tree = analysis.tree();
        let opts = &FactorOptions {
            admissibility: analysis.admissibility(),
            ..*opts
        };
        // Input validation up front: these conditions would otherwise surface
        // as NaN panics (or silent garbage) deep inside clustering/compression.
        if let Some(idx) = h2_geometry::first_non_finite(&tree.points) {
            return Err(SolverError::NonFiniteInput {
                context: format!("point {idx} has a non-finite coordinate"),
            });
        }
        if let Some((i, j)) = h2_geometry::first_coincident_pair(&tree.points) {
            if !h2_geometry::kernel_finite_at_coincidence(kernel, &tree.points[i]) {
                return Err(SolverError::NonFiniteInput {
                    context: format!(
                        "points {i} and {j} coincide and kernel '{}' is singular at zero distance",
                        kernel.name()
                    ),
                });
            }
        }
        // Fault injection (`H2_FAULT=nan_kernel:<rate>`): route every kernel
        // evaluation through the poisoning wrapper.
        let injected;
        let kernel: &dyn Kernel = match h2_matrix::fault::plan() {
            Some(h2_matrix::fault::FaultPlan::NanKernel { rate }) => {
                injected = h2_geometry::NanInjectedKernel::new(kernel, rate);
                &injected
            }
            _ => kernel,
        };

        let partition = analysis.partition();
        let depth = tree.depth;
        let mut stats = FactorStats::default();

        // Degenerate case: a single leaf is just a dense factorization.
        if depth == 0 {
            let t0 = Instant::now();
            let order = tree.perm.clone();
            let a = kernel.assemble(&tree.points, &order, &order);
            if !matrix_is_finite(&a) {
                return Err(SolverError::NonFiniteInput {
                    context: "dense root block contains non-finite kernel values".to_string(),
                });
            }
            stats.construction_seconds = t0.elapsed().as_secs_f64();
            stats.phases.assembly_seconds = stats.construction_seconds;
            stats.phases.assembly_wall_seconds = stats.construction_seconds;
            let t1 = Instant::now();
            let f0 = flop_count();
            let root_lu = lu_factor(&a).map_err(|_| SolverError::SingularPivot {
                cluster: 0,
                level: 0,
            })?;
            stats.factorization_seconds = t1.elapsed().as_secs_f64();
            stats.factorization_flops = flop_count() - f0;
            stats.root_dim = a.rows();
            // No pool, no graph run: the record is the one dense LU.
            let mut task_graph = TaskGraph::new();
            task_graph.add_task(TaskKind::Factor, stats.factorization_flops as f64, &[]);
            return Ok(UlvFactors {
                tree: analysis.tree_handle(),
                options: *opts,
                levels: Vec::new(),
                root_lu,
                root_offsets: vec![0],
                root_clusters: 1,
                stats,
                task_graph,
                refine_escalations: AtomicU64::new(0),
            });
        }

        let last_level = match opts.hierarchy {
            Hierarchy::MultiLevel => 1,
            Hierarchy::SingleLevel => depth,
        };
        let nlev = depth - last_level + 1;
        let plans = build_plans(partition, opts, depth, last_level);
        let arenas: Vec<LevelArena> = plans.iter().map(LevelArena::new).collect();

        // Preset every slot that has no producer task: leaf maps are the
        // identity, leaf actives are the cluster sizes, leaf admissible pairs
        // carry nothing, and upper-level candidates no merge targets are
        // runtime-absent.  (The leaf dense blocks are assembled by tasks.)
        {
            let leaf_clusters = tree.clusters_at_level(depth);
            for i in 0..plans[0].nb {
                let _ = arenas[0].active[i].set(leaf_clusters[i].len);
                let _ = arenas[0].row_map[i].set(None);
                let _ = arenas[0].col_map[i].set(None);
            }
            for x in 0..plans[0].admissible.len() {
                let _ = arenas[0].adm_in[x].set(None);
            }
        }
        for (plan, arena) in plans.iter().zip(arenas.iter()).skip(1) {
            for (x, produced) in plan.dense_produced.iter().enumerate() {
                if !produced {
                    let _ = arena.dense_in[x].set(None);
                }
            }
            for (x, produced) in plan.adm_produced.iter().enumerate() {
                if !produced {
                    let _ = arena.adm_in[x].set(None);
                }
            }
        }

        // ------------------------------------------------- the one fused graph
        // Register construction AND elimination tasks of every level into a
        // single live scope; the phased schedule adds one gate task per level.
        let pool = ThreadPool::new(h2_runtime::resolve_num_threads(opts.num_threads));
        let meters = GraphMeters::new();
        let root_out: OnceLock<SolverResult<RootOut>> = OnceLock::new();
        let bad_leaf_block = AtomicUsize::new(usize::MAX);
        let ctx = RegisterCtx {
            kernel,
            tree,
            partition,
            opts,
            plans: &plans,
            arenas: &arenas,
            meters: &meters,
            root_out: &root_out,
            bad_leaf_block: &bad_leaf_block,
        };
        let tgraph = Instant::now();
        let ((), task_graph) = live_scope(&pool, |scope| {
            let mut tasks: Vec<LevelTasks> = plans.iter().map(LevelTasks::new).collect();
            let mut gate: Option<TaskId> = None;
            for t in 0..nlev {
                let (done, rest) = tasks.split_at_mut(t);
                let (cur, rest) = rest.split_at_mut(1);
                register_level(
                    scope,
                    &ctx,
                    t,
                    done.last(),
                    &mut cur[0],
                    rest.first_mut(),
                    gate,
                );
                if opts.schedule == Schedule::Phased {
                    gate = Some(scope.submit(TaskKind::Other, 0.0, &cur[0].all, |_| {}));
                }
            }
            if opts.hierarchy == Hierarchy::SingleLevel {
                register_single_level_root(scope, &ctx, &tasks[0], gate);
            }
        })
        .map_err(|p| SolverError::TaskPanicked {
            what: p.to_string(),
        })?;
        let graph_wall = tgraph.elapsed().as_secs_f64();

        // ------------------------------------------------------ collect results
        // Slots are drained in construction order (never completion order), so
        // errors surface in deterministic cluster / pair order regardless of
        // scheduling.  An unset slot with no prior error is an internal
        // invariant violation and reported as such — never a panic.
        if let Some(&(i, j)) = plans[0]
            .dense_cand
            .get(bad_leaf_block.load(Ordering::Relaxed))
        {
            return Err(SolverError::NonFiniteInput {
                context: format!("dense leaf block ({i}, {j}) contains non-finite kernel values"),
            });
        }
        let mut arenas = arenas;
        let mut levels: Vec<LevelFactor> = Vec::with_capacity(nlev);
        for (plan, arena) in plans.iter().zip(arenas.iter_mut()) {
            let level = plan.level;
            let nb = plan.nb;
            let mut cluster_factors: Vec<ClusterFactor> = Vec::with_capacity(nb);
            let mut level_cap_hits = 0usize;
            for i in 0..nb {
                match arena.basis[i].take() {
                    Some(Ok(out)) => {
                        level_cap_hits += out.cap_hits;
                        stats.recovery.absorb(out.recovery);
                        cluster_factors.push(out.cf);
                    }
                    Some(Err(e)) => return Err(e),
                    None => {
                        return Err(SolverError::Internal {
                            what: format!(
                                "basis task for cluster {i} at level {level} did not run"
                            ),
                        })
                    }
                }
            }
            for (x, &(i, j)) in plan.admissible.iter().enumerate() {
                match arena.coupling[x].take() {
                    Some(Ok(_)) => {}
                    Some(Err(e)) => return Err(e),
                    None => {
                        return Err(SolverError::Internal {
                            what: format!(
                                "coupling task for pair ({i}, {j}) at level {level} did not run"
                            ),
                        })
                    }
                }
            }
            let mut pivot_results: Vec<PivotResult> = Vec::with_capacity(nb);
            for k in 0..nb {
                match arena.pivot[k].take() {
                    Some(Ok(r)) => {
                        if r.shifted {
                            stats.recovery.pivot_shifts += 1;
                        }
                        pivot_results.push(r);
                    }
                    Some(Err(e)) => return Err(e),
                    None => {
                        return Err(SolverError::Internal {
                            what: format!(
                                "elimination task for cluster {k} at level {level} did not run"
                            ),
                        })
                    }
                }
            }
            for k in 0..nb {
                if let Some(pf) = arena.fill[k].take() {
                    stats.fillin_blocks += pf.count;
                }
            }

            let level_max_rank = cluster_factors
                .iter()
                .map(|c| c.skeleton)
                .max()
                .unwrap_or(0);
            stats.level_ranks.push(level_max_rank);
            stats.level_cap_hits.push(level_cap_hits);
            stats.max_rank = stats.max_rank.max(level_max_rank);
            let mut row_rr = HashMap::new();
            let mut row_rs = HashMap::new();
            let mut col_rr = HashMap::new();
            let mut col_sr = HashMap::new();
            for mut res in pivot_results {
                cluster_factors[res.k].lu = res.lu.take();
                for (key, m) in res.row_rr {
                    row_rr.insert(key, m);
                }
                for (key, m) in res.row_rs {
                    row_rs.insert(key, m);
                }
                for (key, m) in res.col_rr {
                    col_rr.insert(key, m);
                }
                for (key, m) in res.col_sr {
                    col_sr.insert(key, m);
                }
            }

            levels.push(LevelFactor {
                level,
                nb,
                clusters: cluster_factors,
                neighbours: plan.neighbours.clone(),
                row_rr,
                row_rs,
                col_rr,
                col_sr,
            });
        }

        let (root_lu, root_offsets, root_clusters) = match root_out.into_inner() {
            Some(Ok(r)) => {
                stats.root_dim = r.dim;
                (r.lu, r.offsets, r.clusters)
            }
            Some(Err(e)) => return Err(e),
            None => {
                return Err(SolverError::Internal {
                    what: "root factorization task did not run".to_string(),
                })
            }
        };

        // ------------------------------------------------------- fold the stats
        // The fused graph interleaves construction and elimination tasks on one
        // wall-clock span; split the span proportionally to the CPU time each
        // group consumed.  The flop counts need no such estimate: every task
        // samples the thread-local counter, so the per-class sums are exact.
        let (mut con_n, mut fac_n) = (0u64, 0u64);
        for class in 0..CLASS_COUNT {
            if is_construction(class) {
                con_n += meters.nanos_of(class);
                stats.construction_flops += meters.flops_of(class);
            } else {
                fac_n += meters.nanos_of(class);
                stats.factorization_flops += meters.flops_of(class);
            }
        }
        let con_frac = con_n as f64 / ((con_n + fac_n).max(1)) as f64;
        stats.construction_seconds += graph_wall * con_frac;
        stats.factorization_seconds += graph_wall * (1.0 - con_frac);

        // Construction sub-phase attribution: once as exact CPU work and once
        // attributed to the graph's wall clock in proportion to the CPU share
        // each phase consumed of the graph's total task time.  Fill-in
        // pre-computation counts as compression, as it always has, and the
        // leaf assembly tasks as assembly.
        let span_nanos = ((con_n + fac_n).max(1)) as f64;
        let mut ph = [0u64; 4];
        for arena in &arenas {
            for (p, slot) in ph.iter_mut().enumerate() {
                *slot += arena.phase_nanos[p].load(Ordering::Relaxed);
            }
        }
        ph[PH_COMPRESSION] += meters.nanos_of(CLASS_FILL);
        ph[PH_ASSEMBLY] += meters.nanos_of(CLASS_ASSEMBLY);
        let phase_split = |p: usize| {
            let cpu = ph[p];
            (cpu as f64 / 1e9, graph_wall * cpu as f64 / span_nanos)
        };
        let (cpu, wall) = phase_split(PH_ASSEMBLY);
        stats.phases.assembly_seconds += cpu;
        stats.phases.assembly_wall_seconds += wall;
        let (cpu, wall) = phase_split(PH_COMPRESSION);
        stats.phases.compression_seconds += cpu;
        stats.phases.compression_wall_seconds += wall;
        let (cpu, wall) = phase_split(PH_COUPLING);
        stats.phases.coupling_seconds += cpu;
        stats.phases.coupling_wall_seconds += wall;
        let (cpu, wall) = phase_split(PH_TRANSFER);
        stats.phases.transfer_seconds += cpu;
        stats.phases.transfer_wall_seconds += wall;

        stats.task_classes = TaskClassBreakdown {
            fill_seconds: meters.seconds_of(CLASS_FILL),
            basis_seconds: meters.seconds_of(CLASS_BASIS),
            coupling_seconds: meters.seconds_of(CLASS_COUPLING),
            transform_seconds: meters.seconds_of(CLASS_TRANSFORM),
            pivot_seconds: meters.seconds_of(CLASS_PIVOT),
            schur_seconds: meters.seconds_of(CLASS_SCHUR),
            merge_seconds: meters.seconds_of(CLASS_MERGE),
            map_seconds: meters.seconds_of(CLASS_MAP),
            root_seconds: meters.seconds_of(CLASS_ROOT),
            graph_wall_seconds: graph_wall,
            construction_span_seconds: meters.construction.seconds(),
            factorization_span_seconds: meters.factorization.seconds(),
            overlap_fraction: meters.overlap_fraction(graph_wall),
        };

        let mut factors = UlvFactors {
            tree: analysis.tree_handle(),
            options: *opts,
            levels,
            root_lu,
            root_offsets,
            root_clusters,
            stats,
            task_graph,
            refine_escalations: AtomicU64::new(0),
        };
        factors.stats.memory_words = factors.memory_words();
        Ok(factors)
    }
}

// ---------------------------------------------------------- task registration

/// Register every task of level index `t` into the fused graph.
///
/// `child`/`parent` are the adjacent levels' task tables: child basis ids feed
/// this level's interpolation fast path, and this level's map/merge tasks are
/// recorded as the *parent's* input-slot producers.  `gate` is the phased
/// schedule's previous-level gate (every task adds it as a dependency).
#[allow(clippy::too_many_arguments)]
fn register_level<'env>(
    scope: &LiveScope<'env>,
    ctx: &RegisterCtx<'env>,
    t: usize,
    child: Option<&LevelTasks>,
    cur: &mut LevelTasks,
    mut parent: Option<&mut LevelTasks>,
    gate: Option<TaskId>,
) {
    let kernel = ctx.kernel;
    let tree = ctx.tree;
    let partition = ctx.partition;
    let opts = ctx.opts;
    let meters = ctx.meters;
    let root_out = ctx.root_out;
    let plans = ctx.plans;
    let arenas = ctx.arenas;
    let plan = &plans[t];
    let arena = &arenas[t];
    let child_arena = t.checked_sub(1).map(|c| &arenas[c]);
    let parent_arena = arenas.get(t + 1);
    let level = plan.level;
    let nb = plan.nb;
    let nlev = plans.len();
    let clusters = tree.clusters_at_level(level);
    let leaf_level = level == tree.depth;

    // ---- leaf assembly tasks: one per block row of dense leaf blocks -------
    // A non-finite block leaves its slot (and the rest of its row) unset, so
    // dependents degrade to no-ops; the collection pass reports the first such
    // block in block order.
    if leaf_level {
        for i in 0..nb {
            if plan.row_dense[i].is_empty() {
                continue;
            }
            let bomb = h2_matrix::fault::task_panic_armed();
            let bad_leaf_block = ctx.bad_leaf_block;
            let id = scope.submit(
                TaskKind::Other,
                prio(level, STAGE_ASSEMBLY),
                &[],
                move |me| {
                    if bomb {
                        panic!("injected task panic (H2_FAULT=task_panic)");
                    }
                    let begun = ClassMeter::begin();
                    for &x in &plan.row_dense[i] {
                        let m = kernel.assemble(
                            &tree.points,
                            tree.original_indices(&clusters[i]),
                            tree.original_indices(&clusters[plan.dense_cand[x].1]),
                        );
                        if !matrix_is_finite(&m) {
                            bad_leaf_block.fetch_min(x, Ordering::Relaxed);
                            break;
                        }
                        let _ = arena.dense_in[x].set(Some(m));
                    }
                    meters.finish(me, CLASS_ASSEMBLY, begun);
                },
            );
            for &x in &plan.row_dense[i] {
                cur.dense_prod[x] = Some(id);
            }
            cur.all.push(id);
        }
    }

    // ---- fill tasks: fill-in pre-computation, one per pivot with neighbours
    if plan.do_fills {
        for k in 0..nb {
            let nk = &plan.neighbours[k];
            if nk.is_empty() {
                continue;
            }
            let mut pairs: Vec<(usize, usize)> = vec![(k, k)];
            for &i in nk {
                pairs.push((i, k));
                pairs.push((k, i));
            }
            let mut deps: Vec<TaskId> = Vec::new();
            for &p in &pairs {
                if let Ok(x) = plan.dense_cand.binary_search(&p) {
                    deps.extend(cur.dense_prod[x]);
                }
            }
            deps.extend(cur.map_prod[k]);
            for &i in nk {
                deps.extend(cur.map_prod[i]);
            }
            deps.extend(gate);
            let deps = dedup_deps(deps);
            let bomb = h2_matrix::fault::task_panic_armed();
            let id = scope.submit(
                TaskKind::Compress,
                prio(level, STAGE_FILL),
                &deps,
                move |me| {
                    if bomb {
                        panic!("injected task panic (H2_FAULT=task_panic)");
                    }
                    let begun = ClassMeter::begin();
                    let run = || {
                        let mut act: HashMap<usize, usize> = HashMap::new();
                        for &i in std::iter::once(&k).chain(nk.iter()) {
                            let Some(&a) = arena.active[i].get() else {
                                return;
                            };
                            act.insert(i, a);
                        }
                        // Pre-fetch every block the fill computation may query;
                        // a dense candidate that never materialized contributes
                        // zeros (exactly the phased code's absent-block case).
                        let mut blocks: HashMap<(usize, usize), Option<&Matrix>> = HashMap::new();
                        for &p in &pairs {
                            match plan.dense_cand.binary_search(&p) {
                                Ok(x) => match arena.dense_in[x].get() {
                                    None => return,
                                    Some(o) => {
                                        blocks.insert(p, o.as_ref());
                                    }
                                },
                                Err(_) => {
                                    blocks.insert(p, None);
                                }
                            }
                        }
                        let accessor = |ii: usize, jj: usize| -> Matrix {
                            blocks
                                .get(&(ii, jj))
                                .and_then(|o| *o)
                                .cloned()
                                .unwrap_or_else(|| Matrix::zeros(act[&ii], act[&jj]))
                        };
                        let pf = fillin_pivot(k, nk, &accessor, plan.sample_cols, plan.fill_sketch);
                        let _ = arena.fill[k].set(pf);
                    };
                    run();
                    meters.finish(me, CLASS_FILL, begun);
                },
            );
            cur.fill[k] = Some(id);
            cur.all.push(id);
        }
    }

    // ---- basis tasks: fill-in-aware compression of one cluster -------------
    // The far-field sample is evaluated only on the children's skeleton rows
    // and lifted by interpolation whenever the child level left skeleton data
    // (the linear-cost fast path); otherwise the full cluster rows are
    // assembled and projected through the accumulated maps (reference path).
    for i in 0..nb {
        let mut deps: Vec<TaskId> = Vec::new();
        for &kp in &plan.pivots_of[i] {
            deps.extend(cur.fill[kp]);
        }
        for &(pair, slot) in &plan.carry_cand {
            if pair.0 != i && pair.1 != i {
                continue;
            }
            match slot {
                CarrySlot::Adm(x) => deps.extend(cur.adm_prod[x]),
                CarrySlot::Pend(x) => deps.extend(cur.pend_prod[x]),
            }
        }
        deps.extend(cur.map_prod[i]);
        if let Some(ch) = child {
            deps.push(ch.basis[2 * i]);
            deps.push(ch.basis[2 * i + 1]);
        }
        deps.extend(gate);
        let deps = dedup_deps(deps);
        let bomb = h2_matrix::fault::task_panic_armed();
        let eff_max_rank = plan.eff_max_rank;
        let id = scope.submit(
            TaskKind::Basis,
            prio(level, STAGE_BASIS),
            &deps,
            move |me| {
                if bomb {
                    panic!("injected task panic (H2_FAULT=task_panic)");
                }
                let begun = ClassMeter::begin();
                let run = || {
                    let pa = |phase: usize, t0: Instant| {
                        arena.phase_nanos[phase]
                            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    };
                    let Some(&a) = arena.active[i].get() else {
                        return;
                    };
                    let Some(rmap) = arena.row_map[i].get() else {
                        return;
                    };
                    let Some(cmap) = arena.col_map[i].get() else {
                        return;
                    };
                    let mut pfs: Vec<&PivotFills> = Vec::with_capacity(plan.pivots_of[i].len());
                    for &kp in &plan.pivots_of[i] {
                        let Some(pf) = arena.fill[kp].get() else {
                            return;
                        };
                        pfs.push(pf);
                    }
                    let row_fill_list = row_fills_from(i, pfs.iter().copied());
                    let col_fill_list = col_fills_from(i, pfs.iter().copied());
                    // Carried-fill enrichment, in sorted pair order (the phased
                    // code's sorted carry-key scan): a carry touching row `i`
                    // enriches the row side, one touching column `i` the column
                    // side (the diagonal does both).
                    let mut extra_row: Vec<&Matrix> = Vec::new();
                    let mut extra_col: Vec<Matrix> = Vec::new();
                    for &(pair, slot) in &plan.carry_cand {
                        if pair.0 != i && pair.1 != i {
                            continue;
                        }
                        let carried = match slot {
                            CarrySlot::Adm(x) => arena.adm_in[x].get(),
                            CarrySlot::Pend(x) => arena.pend_in[x].get(),
                        };
                        let Some(carried) = carried else { return };
                        let Some(m) = carried.as_ref() else { continue };
                        if pair.0 == i {
                            extra_row.push(m);
                        }
                        if pair.1 == i {
                            extra_col.push(m.transpose());
                        }
                    }
                    let cols = far_field_sample_indices(
                        tree,
                        partition,
                        level,
                        i,
                        opts.basis_mode,
                        opts.seed,
                    );
                    let rows_full = tree.original_indices(&clusters[i]);
                    // Children's interpolation data (clusters 2i, 2i+1 of the finer
                    // level), when every side of both children produced one.
                    let child_interp = match child_arena {
                        Some(ca) if opts.skeleton_construction && rmap.is_some() => {
                            let Some(Ok(b1)) = ca.basis[2 * i].get() else {
                                return;
                            };
                            let Some(Ok(b2)) = ca.basis[2 * i + 1].get() else {
                                return;
                            };
                            match (
                                b1.row_interp.as_ref(),
                                b2.row_interp.as_ref(),
                                b1.col_interp.as_ref(),
                                b2.col_interp.as_ref(),
                            ) {
                                (Some(r1), Some(r2), Some(c1), Some(c2)) => Some((r1, r2, c1, c2)),
                                _ => None,
                            }
                        }
                        _ => None,
                    };
                    // Interpolated far-field rows used by this basis and, below, as
                    // the candidate row sets for this cluster's skeleton selection.
                    let mut row_cand: Vec<usize> = Vec::new();
                    let mut col_cand: Vec<usize> = Vec::new();
                    let (far_row, far_col) = if let Some((r1, r2, c1, c2)) = child_interp {
                        row_cand.extend_from_slice(&r1.rows);
                        row_cand.extend_from_slice(&r2.rows);
                        col_cand.extend_from_slice(&c1.rows);
                        col_cand.extend_from_slice(&c2.rows);
                        let ta = Instant::now();
                        let far_r = kernel.assemble(&tree.points, &row_cand, &cols);
                        let far_c = kernel.assemble(&tree.points, &col_cand, &cols);
                        pa(PH_ASSEMBLY, ta);
                        // W^T A_far ≈ vcat(R_c^{-1} A[r_c, :]) per child.
                        let f = far_r.cols();
                        let k1 = r1.rows.len();
                        let top = lu_solve_mat(&r1.lu, &far_r.block(0, 0, k1, f));
                        let bot = lu_solve_mat(&r2.lu, &far_r.block(k1, 0, far_r.rows() - k1, f));
                        let fr = top.vcat(&bot);
                        let k1c = c1.rows.len();
                        let top = lu_solve_mat(&c1.lu, &far_c.block(0, 0, k1c, f));
                        let bot = lu_solve_mat(&c2.lu, &far_c.block(k1c, 0, far_c.rows() - k1c, f));
                        (fr, top.vcat(&bot))
                    } else {
                        let ta = Instant::now();
                        let far = kernel.assemble(&tree.points, rows_full, &cols);
                        pa(PH_ASSEMBLY, ta);
                        let far_row = match rmap {
                            Some(w) => matmul_tn(w, &far),
                            None => far.clone(),
                        };
                        let far_col = match cmap {
                            Some(w) => matmul_tn(w, &far),
                            None => far,
                        };
                        (far_row, far_col)
                    };
                    let tq = Instant::now();
                    let mut row_refs: Vec<&Matrix> = vec![&far_row];
                    row_refs.extend(row_fill_list.iter());
                    row_refs.extend(extra_row.iter().copied());
                    let mut col_refs: Vec<&Matrix> = vec![&far_col];
                    col_refs.extend(col_fill_list.iter());
                    col_refs.extend(extra_col.iter());
                    let row_input = Matrix::hcat_all(&row_refs);
                    let col_input = Matrix::hcat_all(&col_refs);
                    let built = build_cluster_basis(
                        &row_input,
                        &col_input,
                        a,
                        opts.tol,
                        eff_max_rank,
                        opts.compression,
                        mix_seed(opts.seed, level, i, 1),
                        mix_seed(opts.seed, level, i, 2),
                    );
                    pa(PH_COMPRESSION, tq);
                    let (cf, cap_hits, recovery) = match built {
                        Ok(out) => out,
                        Err(CompressError::NonFinite) => {
                            let _ = arena.basis[i].set(Err(SolverError::NonFiniteInput {
                                context: format!(
                                    "far-field/fill panel of cluster {i} at level {level} \
                                 contains non-finite values"
                                ),
                            }));
                            return;
                        }
                        Err(CompressError::Breakdown) => {
                            let _ = arena.basis[i]
                                .set(Err(SolverError::CompressionBreakdown { cluster: i, level }));
                            return;
                        }
                    };
                    // This cluster's skeleton interpolation data for the coupling
                    // tasks and the parent level.
                    let (row_interp, col_interp) = if opts.skeleton_construction {
                        let tt = Instant::now();
                        let us = skeleton_of(&cf.q, cf.redundant);
                        let vs = skeleton_of(&cf.p, cf.redundant);
                        let interp_of = |sk: &Matrix,
                                         pair: Option<(&SkeletonSide, &SkeletonSide)>,
                                         cand: &[usize],
                                         map: &Option<Matrix>|
                         -> Option<SkeletonSide> {
                            if let Some((s1, s2)) = pair {
                                // Candidates restricted to child skeleton rows:
                                // C = blockdiag(R_c1, R_c2) · U^S.
                                let k1 = s1.rows.len();
                                let top = matmul(&s1.rmat, &sk.block(0, 0, k1, sk.cols()));
                                let bot =
                                    matmul(&s2.rmat, &sk.block(k1, 0, sk.rows() - k1, sk.cols()));
                                build_skeleton_interp(&top.vcat(&bot), cand)
                            } else {
                                match map {
                                    // Identity map: the explicit skeleton map is U^S.
                                    None => build_skeleton_interp(sk, rows_full),
                                    // Fallback: materialize M = W · U^S over all rows.
                                    Some(w) => build_skeleton_interp(&matmul(w, sk), rows_full),
                                }
                            }
                        };
                        let ri = interp_of(
                            &us,
                            child_interp.map(|(r1, r2, _, _)| (r1, r2)),
                            &row_cand,
                            rmap,
                        );
                        let ci = interp_of(
                            &vs,
                            child_interp.map(|(_, _, c1, c2)| (c1, c2)),
                            &col_cand,
                            cmap,
                        );
                        pa(PH_TRANSFER, tt);
                        (ri, ci)
                    } else {
                        (None, None)
                    };
                    let _ = arena.basis[i].set(Ok(BasisOut {
                        cf,
                        cap_hits,
                        recovery,
                        row_interp,
                        col_interp,
                    }));
                };
                run();
                meters.finish(me, CLASS_BASIS, begun);
            },
        );
        cur.basis.push(id);
        cur.all.push(id);
    }

    // ---- coupling tasks: one per admissible pair ---------------------------
    for (x, &(i, j)) in plan.admissible.iter().enumerate() {
        let mut deps: Vec<TaskId> = vec![cur.basis[i], cur.basis[j]];
        deps.extend(cur.adm_prod[x]);
        deps.extend(cur.map_prod[i]);
        deps.extend(cur.map_prod[j]);
        deps.extend(gate);
        let deps = dedup_deps(deps);
        let bomb = h2_matrix::fault::task_panic_armed();
        let id = scope.submit(
            TaskKind::Compress,
            prio(level, STAGE_COUPLING),
            &deps,
            move |me| {
                if bomb {
                    panic!("injected task panic (H2_FAULT=task_panic)");
                }
                let begun = ClassMeter::begin();
                let run = || {
                    let pa = |phase: usize, t0: Instant| {
                        arena.phase_nanos[phase]
                            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    };
                    // An errored basis dependency degrades this task to a
                    // no-op; the collection pass surfaces the basis error.
                    let (Some(Ok(bi)), Some(Ok(bj))) = (arena.basis[i].get(), arena.basis[j].get())
                    else {
                        return;
                    };
                    let Some(rmap_i) = arena.row_map[i].get() else {
                        return;
                    };
                    let Some(cmap_j) = arena.col_map[j].get() else {
                        return;
                    };
                    let Some(carry_in) = arena.adm_in[x].get() else {
                        return;
                    };
                    let (cfi, cfj) = (&bi.cf, &bj.cf);
                    let mut s = if cfi.skeleton == 0 || cfj.skeleton == 0 {
                        Matrix::zeros(cfi.skeleton, cfj.skeleton)
                    } else if let (true, Some(ri), Some(cj)) = (
                        opts.skeleton_construction,
                        bi.row_interp.as_ref(),
                        bj.col_interp.as_ref(),
                    ) {
                        // S ≈ R_i^{-1} · A[r_i, c_j] · R_j^{-T}  (M^T M = I).
                        let ta = Instant::now();
                        let a_rc = kernel.assemble(&tree.points, &ri.rows, &cj.rows);
                        pa(PH_ASSEMBLY, ta);
                        let tc = Instant::now();
                        let xm = lu_solve_mat(&ri.lu, &a_rc);
                        let s = lu_solve_mat(&cj.lu, &xm.transpose()).transpose();
                        pa(PH_COUPLING, tc);
                        s
                    } else {
                        let ta = Instant::now();
                        let a = kernel.assemble(
                            &tree.points,
                            tree.original_indices(&clusters[i]),
                            tree.original_indices(&clusters[j]),
                        );
                        pa(PH_ASSEMBLY, ta);
                        let tc = Instant::now();
                        let m = match (rmap_i, cmap_j) {
                            (Some(wi), Some(wj)) => matmul(&matmul_tn(wi, &a), wj),
                            (Some(wi), None) => matmul_tn(wi, &a),
                            (None, Some(wj)) => matmul(&a, wj),
                            (None, None) => a,
                        };
                        let us = skeleton_of(&cfi.q, cfi.redundant);
                        let vs = skeleton_of(&cfj.p, cfj.redundant);
                        let s = matmul(&matmul_tn(&us, &m), &vs);
                        pa(PH_COUPLING, tc);
                        s
                    };
                    if let Some(carry) = carry_in.as_ref() {
                        let tc = Instant::now();
                        let us = skeleton_of(&cfi.q, cfi.redundant);
                        let vs = skeleton_of(&cfj.p, cfj.redundant);
                        s += &matmul(&matmul_tn(&us, carry), &vs);
                        pa(PH_COUPLING, tc);
                    }
                    let _ = arena.coupling[x].set(if matrix_is_finite(&s) {
                        Ok(s)
                    } else {
                        Err(SolverError::NonFiniteInput {
                            context: format!(
                                "skeleton coupling ({i}, {j}) at level {level} \
                                 contains non-finite values"
                            ),
                        })
                    });
                };
                run();
                meters.finish(me, CLASS_COUPLING, begun);
            },
        );
        cur.coupling.push(id);
        cur.all.push(id);
    }

    // ---- transform tasks: one per dense block row --------------------------
    // Apply Q_i^T to the whole row of dense blocks through one shared-A
    // batched GEMM, then each product picks up its column basis P_j.
    for i in 0..nb {
        if plan.row_dense[i].is_empty() {
            continue;
        }
        let mut deps: Vec<TaskId> = vec![cur.basis[i]];
        for &x in &plan.row_dense[i] {
            deps.push(cur.basis[plan.dense_cand[x].1]);
            deps.extend(cur.dense_prod[x]);
        }
        deps.extend(gate);
        let deps = dedup_deps(deps);
        let bomb = h2_matrix::fault::task_panic_armed();
        let id = scope.submit(
            TaskKind::Update,
            prio(level, STAGE_TRANSFORM),
            &deps,
            move |me| {
                if bomb {
                    panic!("injected task panic (H2_FAULT=task_panic)");
                }
                let begun = ClassMeter::begin();
                let run = || {
                    let Some(Ok(bi)) = arena.basis[i].get() else {
                        return;
                    };
                    let qi = &bi.cf.q;
                    // Materialized blocks only, in ascending column order; an
                    // absent candidate transforms to an absent block.
                    let mut live: Vec<(usize, &Matrix, &Matrix)> =
                        Vec::with_capacity(plan.row_dense[i].len());
                    for &x in &plan.row_dense[i] {
                        let Some(din) = arena.dense_in[x].get() else {
                            return;
                        };
                        let Some(d) = din.as_ref() else {
                            let _ = arena.transform[x].set(None);
                            continue;
                        };
                        let j = plan.dense_cand[x].1;
                        let Some(Ok(bj)) = arena.basis[j].get() else {
                            return;
                        };
                        live.push((x, d, &bj.cf.p));
                    }
                    let ds: Vec<&Matrix> = live.iter().map(|&(_, d, _)| d).collect();
                    let qtd = matmul_tn_batch_shared_a(qi, &ds);
                    let second: Vec<(&Matrix, &Matrix)> = qtd
                        .iter()
                        .zip(live.iter())
                        .map(|(qd, &(_, _, p))| (qd as &Matrix, p))
                        .collect();
                    let done = matmul_batch(&second);
                    for (&(x, _, _), m) in live.iter().zip(done) {
                        let _ = arena.transform[x].set(Some(m));
                    }
                };
                run();
                meters.finish(me, CLASS_TRANSFORM, begun);
            },
        );
        cur.row_transform[i] = Some(id);
        cur.all.push(id);
    }

    // ---- pivot elimination tasks: one per cluster --------------------------
    // LU of the redundant diagonal block, panel solves, batched Schur
    // products.  Depends only on the transforms of its own row and its
    // neighbours' rows — under `NoDependencies`, eliminations of different
    // clusters overlap freely (the paper's headline property); the
    // `WithDependencies` ablation chains them in block order.
    let mut prev_pivot: Option<TaskId> = None;
    for k in 0..nb {
        let mut deps: Vec<TaskId> = vec![cur.basis[k]];
        deps.extend(cur.row_transform[k]);
        for &i in &plan.neighbours[k] {
            deps.push(cur.basis[i]);
            deps.extend(cur.row_transform[i]);
        }
        if opts.variant == Variant::WithDependencies {
            deps.extend(prev_pivot);
        }
        deps.extend(gate);
        let deps = dedup_deps(deps);
        let bomb = h2_matrix::fault::task_panic_armed();
        let id = scope.submit(
            TaskKind::Factor,
            prio(level, STAGE_PIVOT),
            &deps,
            move |me| {
                if bomb {
                    panic!("injected task panic (H2_FAULT=task_panic)");
                }
                let begun = ClassMeter::begin();
                let run = || {
                    // A neighbour pair outside the dense candidate list (or a
                    // candidate that never materialized) is an internal invariant
                    // violation — reported as a typed error, never a panic; an
                    // *unset* transform slot means an upstream error and degrades
                    // this task to a no-op.
                    let tr = |ii: usize, jj: usize| -> SolverResult<Option<&Matrix>> {
                        let Ok(x) = plan.dense_cand.binary_search(&(ii, jj)) else {
                            return Err(SolverError::Internal {
                                what: format!(
                                    "transformed dense block ({ii}, {jj}) missing at level {level}"
                                ),
                            });
                        };
                        match arena.transform[x].get() {
                            None => Ok(None),
                            Some(None) => Err(SolverError::Internal {
                                what: format!(
                                    "transformed dense block ({ii}, {jj}) missing at level {level}"
                                ),
                            }),
                            Some(Some(d)) => Ok(Some(d)),
                        }
                    };
                    let cfof = |ii: usize| -> Option<&ClusterFactor> {
                        match arena.basis[ii].get() {
                            Some(Ok(b)) => Some(&b.cf),
                            _ => None,
                        }
                    };
                    let body = || -> SolverResult<Option<PivotResult>> {
                        let Some(c0) = cfof(k) else { return Ok(None) };
                        let rk = c0.redundant;
                        let mut res = PivotResult {
                            k,
                            lu: None,
                            shifted: false,
                            row_rr: Vec::new(),
                            row_rs: Vec::new(),
                            col_rr: Vec::new(),
                            col_sr: Vec::new(),
                            schur: Vec::new(),
                        };
                        if rk > 0 {
                            let Some(dkk) = tr(k, k)? else {
                                return Ok(None);
                            };
                            let mut diag = dkk.block(0, 0, rk, rk);
                            // Fault injection (`H2_FAULT=singular_pivot:<c>`): make
                            // the targeted leaf cluster's block exactly singular.
                            if leaf_level {
                                if let Some(h2_matrix::fault::FaultPlan::SingularPivot {
                                    cluster,
                                }) = h2_matrix::fault::plan()
                                {
                                    if k == cluster % nb {
                                        diag = Matrix::from_fn(rk, rk, |_, _| 1.0);
                                    }
                                }
                            }
                            let lu = match lu_factor(&diag) {
                                Ok(lu) => lu,
                                Err(_) => {
                                    // Repair attempt: a diagonal shift of
                                    // sqrt(eps)·max|entry| regularizes a singular
                                    // block at an O(sqrt(eps)) local perturbation —
                                    // iterative refinement at solve time mops up
                                    // the difference.  Only a finite, non-zero
                                    // block is worth shifting.
                                    let ma = h2_matrix::max_abs(&diag);
                                    let repaired = if ma.is_finite() && ma > 0.0 {
                                        let shift = f64::EPSILON.sqrt() * ma;
                                        let mut shifted = diag.clone();
                                        for d in 0..rk {
                                            shifted.set(d, d, shifted[(d, d)] + shift);
                                        }
                                        lu_factor(&shifted).ok()
                                    } else {
                                        None
                                    };
                                    match repaired {
                                        Some(lu) => {
                                            res.shifted = true;
                                            lu
                                        }
                                        None => {
                                            return Err(SolverError::SingularPivot {
                                                cluster: k,
                                                level,
                                            })
                                        }
                                    }
                                }
                            };
                            // Row panels (rows R_k) and column panels (columns R_k).
                            let mut row_targets = plan.neighbours[k].clone();
                            row_targets.push(k);
                            for &j in &row_targets {
                                let Some(d) = tr(k, j)? else { return Ok(None) };
                                let Some(cj) = cfof(j) else { return Ok(None) };
                                let rj = cj.redundant;
                                let kj = cj.skeleton;
                                if kj > 0 {
                                    let rs = d.block(0, rj, rk, kj);
                                    res.row_rs.push(((k, j), lu.forward_mat(&rs)));
                                }
                                if j != k && rj > 0 {
                                    let rr = d.block(0, 0, rk, rj);
                                    res.row_rr.push(((k, j), lu.forward_mat(&rr)));
                                }
                            }
                            for &i in &row_targets {
                                let Some(d) = tr(i, k)? else { return Ok(None) };
                                let Some(ci) = cfof(i) else { return Ok(None) };
                                let ri = ci.redundant;
                                let ki = ci.skeleton;
                                if ki > 0 {
                                    let sr = d.block(ri, 0, ki, rk);
                                    res.col_sr.push(((i, k), lu.right_solve_upper(&sr)));
                                }
                                if i != k && ri > 0 {
                                    let rr = d.block(0, 0, ri, rk);
                                    res.col_rr.push(((i, k), lu.right_solve_upper(&rr)));
                                }
                            }
                            // Schur updates onto skeleton-skeleton blocks only,
                            // streamed through the batched small-GEMM path.
                            let mut schur_idx: Vec<(usize, usize)> = Vec::new();
                            let mut schur_pairs: Vec<(&Matrix, &Matrix)> = Vec::new();
                            for (key_i, zi) in &res.col_sr {
                                for (key_j, wj) in &res.row_rs {
                                    schur_idx.push((key_i.0, key_j.1));
                                    schur_pairs.push((zi, wj));
                                }
                            }
                            let prods = matmul_batch(&schur_pairs);
                            res.schur = schur_idx
                                .into_iter()
                                .zip(prods)
                                .map(|((si, sj), m)| (si, sj, m))
                                .collect();
                            res.lu = Some(lu);
                        }
                        Ok(Some(res))
                    };
                    match body() {
                        // Upstream degradation: leave the slot unset (the upstream
                        // error surfaces first in the collection pass).
                        Ok(None) => {}
                        Ok(Some(r)) => {
                            let _ = arena.pivot[k].set(Ok(r));
                        }
                        Err(e) => {
                            let _ = arena.pivot[k].set(Err(e));
                        }
                    }
                };
                run();
                meters.finish(me, CLASS_PIVOT, begun);
            },
        );
        prev_pivot = Some(id);
        cur.pivot.push(id);
        cur.all.push(id);
    }

    // ---- skeleton–skeleton accumulation tasks ------------------------------
    // One per surviving block candidate; the accumulation order (dense part →
    // coupling → projected pending carry → Schur updates in ascending pivot
    // order) is fixed by the plan, never by scheduling.
    for (cx, c) in plan.ss_cand.iter().enumerate() {
        let (i, j) = c.pair;
        let mut deps: Vec<TaskId> = vec![cur.basis[i], cur.basis[j]];
        if c.dense_idx.is_some() {
            deps.extend(cur.row_transform[i]);
        }
        if let Some(ax) = c.adm_idx {
            deps.push(cur.coupling[ax]);
        }
        if let Some(px) = c.pend_idx {
            deps.extend(cur.pend_prod[px]);
        }
        for &kp in &c.schur_from {
            deps.push(cur.pivot[kp]);
        }
        deps.extend(gate);
        let deps = dedup_deps(deps);
        let bomb = h2_matrix::fault::task_panic_armed();
        let id = scope.submit(TaskKind::Update, prio(level, STAGE_SS), &deps, move |me| {
            if bomb {
                panic!("injected task panic (H2_FAULT=task_panic)");
            }
            let begun = ClassMeter::begin();
            let run = || {
                let (Some(Ok(bi)), Some(Ok(bj))) = (arena.basis[i].get(), arena.basis[j].get())
                else {
                    return;
                };
                let ki = bi.cf.skeleton;
                let kj = bj.cf.skeleton;
                let ri = bi.cf.redundant;
                let rj = bj.cf.redundant;
                let mut entry: Option<Matrix> = None;
                if let Some(x) = c.dense_idx {
                    let Some(tm) = arena.transform[x].get() else {
                        return;
                    };
                    if let Some(d) = tm.as_ref() {
                        entry = Some(d.block(ri, rj, ki, kj));
                    }
                }
                if let Some(ax) = c.adm_idx {
                    let Some(Ok(s)) = arena.coupling[ax].get() else {
                        return;
                    };
                    entry = Some(s.clone());
                }
                if let Some(px) = c.pend_idx {
                    // Project the pending carry onto the new skeletons so it
                    // continues upward.
                    let Some(pin) = arena.pend_in[px].get() else {
                        return;
                    };
                    if let Some(m) = pin.as_ref() {
                        let us = skeleton_of(&bi.cf.q, ri);
                        let vs = skeleton_of(&bj.cf.p, rj);
                        let proj = matmul(&matmul_tn(&us, m), &vs);
                        match entry.as_mut() {
                            Some(e) => *e += &proj,
                            None => entry = Some(proj),
                        }
                    }
                }
                for &kp in &c.schur_from {
                    let Some(Ok(res)) = arena.pivot[kp].get() else {
                        return;
                    };
                    for (si, sj, upd) in &res.schur {
                        if (*si, *sj) != (i, j) || ki == 0 || kj == 0 {
                            continue;
                        }
                        let e = entry.get_or_insert_with(|| Matrix::zeros(ki, kj));
                        *e -= upd;
                    }
                }
                let _ = arena.ss[cx].set(entry);
            };
            run();
            meters.finish(me, CLASS_SCHUR, begun);
        });
        cur.ss.push(id);
        cur.all.push(id);
    }

    // ---- parent map tasks: one per parent cluster --------------------------
    // Stack the accumulated maps through the fresh skeleton bases:
    // `blockdiag(W_{2p} U_{2p}, W_{2p+1} U_{2p+1})`, and publish the parent's
    // active size.  Only needed while there is a coarser level to process.
    if t + 1 < nlev {
        if let Some(pt) = parent.as_deref_mut() {
            for p in 0..nb / 2 {
                let mut deps: Vec<TaskId> = vec![cur.basis[2 * p], cur.basis[2 * p + 1]];
                deps.extend(cur.map_prod[2 * p]);
                deps.extend(cur.map_prod[2 * p + 1]);
                deps.extend(gate);
                let deps = dedup_deps(deps);
                let bomb = h2_matrix::fault::task_panic_armed();
                let id = scope.submit(TaskKind::Other, prio(level, STAGE_MAP), &deps, move |me| {
                    if bomb {
                        panic!("injected task panic (H2_FAULT=task_panic)");
                    }
                    let begun = ClassMeter::begin();
                    let run = || {
                        let Some(Ok(b1)) = arena.basis[2 * p].get() else {
                            return;
                        };
                        let Some(Ok(b2)) = arena.basis[2 * p + 1].get() else {
                            return;
                        };
                        let Some(w1) = arena.row_map[2 * p].get() else {
                            return;
                        };
                        let Some(w2) = arena.row_map[2 * p + 1].get() else {
                            return;
                        };
                        let Some(v1) = arena.col_map[2 * p].get() else {
                            return;
                        };
                        let Some(v2) = arena.col_map[2 * p + 1].get() else {
                            return;
                        };
                        let ru1 = skeleton_of(&b1.cf.q, b1.cf.redundant);
                        let ru2 = skeleton_of(&b2.cf.q, b2.cf.redundant);
                        let cu1 = skeleton_of(&b1.cf.p, b1.cf.redundant);
                        let cu2 = skeleton_of(&b2.cf.p, b2.cf.redundant);
                        let row = stack_parent_map(w1.as_ref(), &ru1, w2.as_ref(), &ru2);
                        let col = stack_parent_map(v1.as_ref(), &cu1, v2.as_ref(), &cu2);
                        let Some(pa_arena) = parent_arena else { return };
                        let _ = pa_arena.active[p].set(row.cols());
                        let _ = pa_arena.row_map[p].set(Some(row));
                        let _ = pa_arena.col_map[p].set(Some(col));
                    };
                    run();
                    meters.finish(me, CLASS_MAP, begun);
                });
                pt.map_prod[p] = Some(id);
                cur.all.push(id);
            }
        }
    }

    // ---- per-parent-pair merge tasks ---------------------------------------
    // A parent block releases the moment all of *its own* children's surviving
    // blocks exist — there is no level-wide merge barrier.  The final
    // multi-level merge submits the dense root factorization dynamically.
    for g in &plan.merges {
        let (pi, pj) = g.parent;
        let mut deps: Vec<TaskId> = Vec::new();
        for &cx in &g.children {
            deps.push(cur.ss[cx]);
        }
        for &b in &[2 * pi, 2 * pi + 1, 2 * pj, 2 * pj + 1] {
            deps.push(cur.basis[b]);
        }
        deps.extend(gate);
        let deps = dedup_deps(deps);
        let bomb = h2_matrix::fault::task_panic_armed();
        let id = scope.submit(
            TaskKind::Update,
            prio(level, STAGE_MERGE),
            &deps,
            move |me| {
                if bomb {
                    panic!("injected task panic (H2_FAULT=task_panic)");
                }
                let begun = ClassMeter::begin();
                let run = || {
                    let skel = |b: usize| -> Option<usize> {
                        match arena.basis[b].get() {
                            Some(Ok(out)) => Some(out.cf.skeleton),
                            _ => None,
                        }
                    };
                    let (Some(k0), Some(k1), Some(k2), Some(k3)) = (
                        skel(2 * pi),
                        skel(2 * pi + 1),
                        skel(2 * pj),
                        skel(2 * pj + 1),
                    ) else {
                        return;
                    };
                    let rows = k0 + k1;
                    let cols = k2 + k3;
                    // `None` = no child block materialized (the parent slot is
                    // runtime-absent); one child is enough to materialize the
                    // merged block, even at zero dimensions.
                    let mut out: Option<Matrix> = None;
                    for &cx in &g.children {
                        let (ci, cj) = plan.ss_cand[cx].pair;
                        let Some(block) = arena.ss[cx].get() else {
                            return;
                        };
                        let Some(m) = block.as_ref() else { continue };
                        let merged = out.get_or_insert_with(|| Matrix::zeros(rows, cols));
                        let ro = if ci % 2 == 0 { 0 } else { k0 };
                        let co = if cj % 2 == 0 { 0 } else { k2 };
                        if m.rows() > 0 && m.cols() > 0 {
                            merged.add_block(ro, co, m);
                        }
                    }
                    match g.target {
                        MergeTarget::Dense(x) => {
                            let Some(pa_arena) = parent_arena else { return };
                            let _ = pa_arena.dense_in[x].set(out);
                        }
                        MergeTarget::Adm(x) => {
                            let Some(pa_arena) = parent_arena else { return };
                            let _ = pa_arena.adm_in[x].set(out);
                        }
                        MergeTarget::Pend(x) => {
                            let Some(pa_arena) = parent_arena else { return };
                            let _ = pa_arena.pend_in[x].set(out);
                        }
                        MergeTarget::Root => {
                            // The dense root factorization is submitted
                            // dynamically, from inside the task that produced
                            // its input — the graph grows at runtime.
                            let bomb2 = h2_matrix::fault::task_panic_armed();
                            me.submit(TaskKind::Factor, 0.0, &[], move |me| {
                                if bomb2 {
                                    panic!("injected task panic (H2_FAULT=task_panic)");
                                }
                                let begun2 = ClassMeter::begin();
                                let root_res = (|| -> SolverResult<RootOut> {
                                    let Some(root) = out else {
                                        return Err(SolverError::Internal {
                                            what: "root block missing after level merge"
                                                .to_string(),
                                        });
                                    };
                                    if !matrix_is_finite(&root) {
                                        return Err(SolverError::NonFiniteInput {
                                            context: "root skeleton system contains \
                                                      non-finite values"
                                                .to_string(),
                                        });
                                    }
                                    let dim = root.rows();
                                    let lu = lu_factor(&root).map_err(|_| {
                                        SolverError::SingularPivot {
                                            cluster: 0,
                                            level: 0,
                                        }
                                    })?;
                                    Ok(RootOut {
                                        dim,
                                        lu,
                                        offsets: vec![0],
                                        clusters: 1,
                                    })
                                })();
                                let _ = root_out.set(root_res);
                                meters.finish(me, CLASS_ROOT, begun2);
                            });
                        }
                    }
                };
                run();
                meters.finish(me, CLASS_MERGE, begun);
            },
        );
        match g.target {
            MergeTarget::Dense(x) => {
                if let Some(pt) = parent.as_deref_mut() {
                    pt.dense_prod[x] = Some(id);
                }
            }
            MergeTarget::Adm(x) => {
                if let Some(pt) = parent.as_deref_mut() {
                    pt.adm_prod[x] = Some(id);
                }
            }
            MergeTarget::Pend(x) => {
                if let Some(pt) = parent.as_deref_mut() {
                    pt.pend_prod[x] = Some(id);
                }
            }
            MergeTarget::Root => {}
        }
        cur.all.push(id);
    }
}

/// Register the single-level (BLR²) root task: gather every surviving skeleton
/// block of the leaf level into one dense matrix (Eq. 15) and factorize it.
fn register_single_level_root<'env>(
    scope: &LiveScope<'env>,
    ctx: &RegisterCtx<'env>,
    leaf: &LevelTasks,
    gate: Option<TaskId>,
) {
    let plans = ctx.plans;
    let arenas = ctx.arenas;
    let plan = &plans[0];
    let arena = &arenas[0];
    let meters = ctx.meters;
    let root_out = ctx.root_out;
    let nb = plan.nb;
    let mut deps: Vec<TaskId> = Vec::new();
    deps.extend(leaf.basis.iter().copied());
    deps.extend(leaf.ss.iter().copied());
    deps.extend(gate);
    let deps = dedup_deps(deps);
    let bomb = h2_matrix::fault::task_panic_armed();
    scope.submit(TaskKind::Factor, 0.0, &deps, move |me| {
        if bomb {
            panic!("injected task panic (H2_FAULT=task_panic)");
        }
        let begun = ClassMeter::begin();
        let run = || -> Option<SolverResult<RootOut>> {
            let mut ks: Vec<usize> = Vec::with_capacity(nb);
            for i in 0..nb {
                match arena.basis[i].get() {
                    Some(Ok(b)) => ks.push(b.cf.skeleton),
                    _ => return None,
                }
            }
            let mut offsets = vec![0usize; nb + 1];
            for i in 0..nb {
                offsets[i + 1] = offsets[i] + ks[i];
            }
            let dim = offsets[nb];
            let mut root = Matrix::zeros(dim, dim);
            for (x, c) in plan.ss_cand.iter().enumerate() {
                let (i, j) = c.pair;
                match arena.ss[x].get() {
                    None => return None,
                    Some(None) => {}
                    Some(Some(m)) => root.set_block(offsets[i], offsets[j], m),
                }
            }
            if !matrix_is_finite(&root) {
                return Some(Err(SolverError::NonFiniteInput {
                    context: "root skeleton system contains non-finite values".to_string(),
                }));
            }
            match lu_factor(&root) {
                Ok(lu) => Some(Ok(RootOut {
                    dim,
                    lu,
                    offsets: offsets[..nb].to_vec(),
                    clusters: nb,
                })),
                Err(_) => Some(Err(SolverError::SingularPivot {
                    cluster: 0,
                    level: 0,
                })),
            }
        };
        if let Some(r) = run() {
            let _ = root_out.set(r);
        }
        meters.finish(me, CLASS_ROOT, begun);
    });
}

// ------------------------------------------------------------- free functions

/// Build the `[redundant | skeleton]`-ordered square bases of one cluster from the
/// row-space and column-space sample matrices.
///
/// Breakdown handling: a non-finite *input* panel is unrecoverable (the kernel
/// itself produced NaN/inf) and reported as [`CompressError::NonFinite`]; a
/// non-finite *orthogonal factor* means the randomized sketch broke down, and
/// that side re-runs through the escalation ladder ([`ladder_rungs`]) until a
/// rung yields a finite factor.  The first rung reproduces the configured mode
/// bit-for-bit, so clean runs are unchanged.
#[allow(clippy::too_many_arguments)]
fn build_cluster_basis(
    row_input: &Matrix,
    col_input: &Matrix,
    active: usize,
    tol: f64,
    max_rank: Option<usize>,
    compression: CompressionMode,
    seed_row: u64,
    seed_col: u64,
) -> Result<(ClusterFactor, usize, RecoveryEvents), CompressError> {
    if !matrix_is_finite(row_input) || !matrix_is_finite(col_input) {
        return Err(CompressError::NonFinite);
    }
    let mut recovery = RecoveryEvents::default();
    let ((q_full, rank_r, hit_r), (p_full, rank_c, hit_c)) = match compression {
        // SRFT fast path: mix both inputs down to narrow sketches first, then
        // run the two small pivoted QRs through one batched call so they share
        // the kernel's packing scratch.  Factor bits are identical to two
        // separate calls (the batch maps panels in slice order).
        CompressionMode::Srft {
            oversample,
            precision,
        } if row_input.cols() > 0 && col_input.cols() > 0 => {
            let cap = max_rank.unwrap_or(usize::MAX);
            let precision = precision.effective_for_tol(tol);
            let (sk_r, _) =
                srft_sketch_or_panel(row_input, max_rank, oversample, precision, seed_row);
            let (sk_c, _) =
                srft_sketch_or_panel(col_input, max_rank, oversample, precision, seed_col);
            let panel_r = sk_r.as_ref().unwrap_or(row_input);
            let panel_c = sk_c.as_ref().unwrap_or(col_input);
            // Stop each factorization at the detection threshold (one extra
            // reflector keeps a cap overflow observable) — the sub-tolerance
            // reflectors are most of the panel-QR cost.
            let dtol = srft_detect_tol(tol, precision);
            let mut fs = pivoted_qr_stop_batch(&[panel_r, panel_c], dtol, cap.saturating_add(1));
            let fc = fs
                .pop()
                .unwrap_or_else(|| unreachable!("batched pivoted QR dropped a panel"));
            let fr = fs
                .pop()
                .unwrap_or_else(|| unreachable!("batched pivoted QR dropped a panel"));
            let row = finish_factor(fr, active, dtol, cap);
            let col = finish_factor(fc, active, dtol, cap);
            // Per-side breakdown check: a corrupted sketch re-runs only its
            // own side, starting at the rung above the one that just failed.
            let row = if matrix_is_finite(&row.0) {
                row
            } else {
                ladder_factor(
                    row_input,
                    active,
                    tol,
                    max_rank,
                    compression,
                    seed_row,
                    1,
                    &mut recovery,
                )?
            };
            let col = if matrix_is_finite(&col.0) {
                col
            } else {
                ladder_factor(
                    col_input,
                    active,
                    tol,
                    max_rank,
                    compression,
                    seed_col,
                    1,
                    &mut recovery,
                )?
            };
            (row, col)
        }
        _ => (
            ladder_factor(
                row_input,
                active,
                tol,
                max_rank,
                compression,
                seed_row,
                0,
                &mut recovery,
            )?,
            ladder_factor(
                col_input,
                active,
                tol,
                max_rank,
                compression,
                seed_col,
                0,
                &mut recovery,
            )?,
        ),
    };
    // Row and column skeleton dimensions must agree so diagonal blocks stay square;
    // take the larger of the two detected ranks for both sides.
    let k = rank_r.max(rank_c);
    let q = reorder_basis(&q_full, k, active);
    let p = reorder_basis(&p_full, k, active);
    Ok((
        ClusterFactor {
            q,
            p,
            active,
            redundant: active - k,
            skeleton: k,
            lu: None,
        },
        usize::from(hit_r) + usize::from(hit_c),
        recovery,
    ))
}

/// The compression escalation ladder for a configured mode, cheapest rung
/// first.  Every ladder ends in direct pivoted QR, which cannot break down on
/// a finite panel.
fn ladder_rungs(compression: CompressionMode, tol: f64) -> Vec<CompressionMode> {
    match compression {
        CompressionMode::Srft {
            oversample,
            precision,
        } => {
            let mut rungs = Vec::with_capacity(4);
            if precision.effective_for_tol(tol) == h2_lowrank::SketchPrecision::F32 {
                rungs.push(CompressionMode::Srft {
                    oversample,
                    precision: h2_lowrank::SketchPrecision::F32,
                });
            }
            rungs.push(CompressionMode::Srft {
                oversample,
                precision: h2_lowrank::SketchPrecision::F64,
            });
            rungs.push(CompressionMode::Sketched { oversample });
            rungs.push(CompressionMode::Direct);
            rungs
        }
        CompressionMode::Sketched { oversample } => vec![
            CompressionMode::Sketched { oversample },
            CompressionMode::Direct,
        ],
        CompressionMode::Direct => vec![CompressionMode::Direct],
    }
}

/// Count one ladder escalation *out of* the given rung.
fn record_escalation(mode: CompressionMode, tol: f64, recovery: &mut RecoveryEvents) {
    match mode {
        CompressionMode::Srft { precision, .. } => match precision.effective_for_tol(tol) {
            h2_lowrank::SketchPrecision::F32 => recovery.srft_f32_to_f64 += 1,
            h2_lowrank::SketchPrecision::F64 => recovery.srft_to_gaussian += 1,
        },
        CompressionMode::Sketched { .. } => recovery.sketch_to_direct += 1,
        // Direct QR is the last rung; there is nothing to escalate to.
        CompressionMode::Direct => {}
    }
}

/// Run one side's compression through the escalation ladder, skipping the
/// first `skip` rungs (used when the caller already ran them via a fused fast
/// path).  Each failed rung is counted in `recovery`; rung 0 with `skip == 0`
/// is exactly the configured mode, so clean runs take one iteration and are
/// bitwise identical to an unguarded call.
#[allow(clippy::too_many_arguments)]
fn ladder_factor(
    input: &Matrix,
    active: usize,
    tol: f64,
    max_rank: Option<usize>,
    compression: CompressionMode,
    seed: u64,
    skip: usize,
    recovery: &mut RecoveryEvents,
) -> Result<(Matrix, usize, bool), CompressError> {
    let rungs = ladder_rungs(compression, tol);
    for &skipped in rungs.iter().take(skip) {
        record_escalation(skipped, tol, recovery);
    }
    for (r, &mode) in rungs.iter().enumerate().skip(skip) {
        // Later rungs perturb the seed so a stage-independent sketch fault does
        // not deterministically re-corrupt the retry.
        let out = orthogonal_factor(
            input,
            active,
            tol,
            max_rank,
            mode,
            seed.wrapping_add(r as u64),
        );
        if matrix_is_finite(&out.0) {
            return Ok(out);
        }
        record_escalation(mode, tol, recovery);
    }
    // Every rung — including direct QR on a finite panel — produced a
    // non-finite factor: genuine numerical breakdown.
    Err(CompressError::Breakdown)
}

/// Finish one side's compression: detect the tolerance rank, flag whether the
/// rank cap truncated it, clamp to the cap and the active size, and expand the
/// full square orthogonal factor.
fn finish_factor(f: PivotedQr, active: usize, tol: f64, cap: usize) -> (Matrix, usize, bool) {
    let detected = f.rank(tol);
    let hit = detected > cap;
    let rank = detected.min(cap).min(active);
    (f.q_full(), rank, hit)
}

/// Orthogonal factor of `input`'s column space: full square orthogonal matrix,
/// the detected numerical rank (capped by `max_rank` and the active size) and
/// whether the cap truncated the tolerance rank.  The direct mode is the
/// column-pivoted QR of the full panel; the sketched mode factorizes a Gaussian
/// column sketch instead (GEMM-dominated); the SRFT mode factorizes a
/// structured `O(m·n·log n)` sketch (optionally mixed in f32).
fn orthogonal_factor(
    input: &Matrix,
    active: usize,
    tol: f64,
    max_rank: Option<usize>,
    compression: CompressionMode,
    seed: u64,
) -> (Matrix, usize, bool) {
    if input.cols() == 0 {
        return (Matrix::identity(active), 0, false);
    }
    let cap = max_rank.unwrap_or(usize::MAX);
    let f = match compression {
        CompressionMode::Direct => pivoted_qr(input),
        CompressionMode::Sketched { oversample } => {
            sketched_pivoted_qr(input, tol, max_rank, oversample, seed).0
        }
        CompressionMode::Srft {
            oversample,
            precision,
        } => {
            let precision = precision.effective_for_tol(tol);
            let (sk, _) = srft_sketch_or_panel(input, max_rank, oversample, precision, seed);
            let tol = srft_detect_tol(tol, precision);
            let f = h2_matrix::pivoted_qr_stop(
                sk.as_ref().unwrap_or(input),
                tol,
                cap.saturating_add(1),
            );
            return finish_factor(f, active, tol, cap);
        }
    };
    finish_factor(f, active, tol, cap)
}

/// Assemble `[U^R | U^S]` with `U^S` the first `k` columns of the orthogonal factor
/// and `U^R` the remaining ones.
fn reorder_basis(q_full: &Matrix, k: usize, active: usize) -> Matrix {
    let skeleton = q_full.block(0, 0, active, k);
    let redundant = q_full.block(0, k, active, active - k);
    redundant.hcat(&skeleton)
}

/// The skeleton part `U^S` of a `[U^R | U^S]` basis.
fn skeleton_of(q: &Matrix, redundant: usize) -> Matrix {
    q.block(0, redundant, q.rows(), q.cols() - redundant)
}

/// One parent cluster's row or column map: `blockdiag(W_1 U_1, W_2 U_2)` with a
/// `None` child map meaning the identity (the product is the skeleton basis
/// itself).  The two products go through one batched small-GEMM call, sharing a
/// single set of packing buffers — the per-parent decomposition of the old
/// level-wide `stack_maps_level`, with identical batch panel order per parent.
fn stack_parent_map(w1: Option<&Matrix>, u1: &Matrix, w2: Option<&Matrix>, u2: &Matrix) -> Matrix {
    let pairs: Vec<(&Matrix, &Matrix)> = [w1.map(|w| (w, u1)), w2.map(|w| (w, u2))]
        .into_iter()
        .flatten()
        .collect();
    let mut prods = matmul_batch(&pairs).into_iter();
    let m1 = if w1.is_some() {
        prods
            .next()
            .unwrap_or_else(|| unreachable!("batched map product dropped a panel"))
    } else {
        u1.clone()
    };
    let m2 = if w2.is_some() {
        prods
            .next()
            .unwrap_or_else(|| unreachable!("batched map product dropped a panel"))
    } else {
        u2.clone()
    };
    let mut out = Matrix::zeros(m1.rows() + m2.rows(), m1.cols() + m2.cols());
    out.set_block(0, 0, &m1);
    out.set_block(m1.rows(), m1.cols(), &m2);
    out
}

impl UlvFactors {
    /// Total storage of the factor object in floating-point words.
    pub fn memory_words(&self) -> usize {
        let mut words = self.root_lu.lu.rows() * self.root_lu.lu.cols();
        for lf in &self.levels {
            for c in &lf.clusters {
                words += c.q.rows() * c.q.cols() + c.p.rows() * c.p.cols();
                if let Some(lu) = &c.lu {
                    words += lu.lu.rows() * lu.lu.cols();
                }
            }
            for m in lf
                .row_rr
                .values()
                .chain(lf.row_rs.values())
                .chain(lf.col_rr.values())
                .chain(lf.col_sr.values())
            {
                words += m.rows() * m.cols();
            }
        }
        words
    }

    /// Largest skeleton rank at any level.
    pub fn max_rank(&self) -> usize {
        self.stats.max_rank
    }
}
