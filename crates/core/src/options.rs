//! Configuration of the ULV factorization family.

use h2_geometry::Admissibility;
use h2_hmatrix::BasisMode;
pub use h2_lowrank::{CompressionMode, SketchPrecision};

/// Which elimination strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The paper's contribution: fill-ins are pre-computed per block row/column and
    /// folded into the shared bases, so every block row/column of a level is
    /// eliminated independently — no trailing sub-matrix dependencies (§III).
    NoDependencies,
    /// The conventional H²-ULV of §II-D: block rows/columns are eliminated in
    /// sequence and Schur updates are applied to the trailing redundant parts as well.
    /// Used as an ablation to quantify what removing the dependency costs/buys.
    WithDependencies,
}

/// Whether the factorization recurses over levels or flattens after the leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hierarchy {
    /// Multi-level: recurse level by level up to the root (HSS-ULV / H²-ULV).
    MultiLevel,
    /// Single level: eliminate the leaf level, then gather every remaining skeleton
    /// block into one dense matrix and factorize it (BLR²-ULV, Eq. 15).
    SingleLevel,
}

/// How the end-to-end task graph is executed.
///
/// Both schedules register the **same** tasks with the **same** dependency
/// edges and the same bodies, so the factors are bitwise identical; the phased
/// schedule merely adds one gate task per level that every task of the next
/// level depends on, restoring the historical level-by-level phase semantics
/// for A/B comparison and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// One fused graph across every level: a task runs the moment its own
    /// inputs exist, so construction (fill/basis/coupling) of one subtree
    /// overlaps elimination and merging of another — the paper's
    /// dependency-free structure end to end.  The default.
    #[default]
    Fused,
    /// The fused graph plus per-level gates: level `L-1` tasks only release
    /// after every level-`L` task finished (the pre-fusion phase semantics).
    Phased,
}

/// Options of a ULV factorization.
#[derive(Debug, Clone, Copy)]
pub struct FactorOptions {
    /// Relative compression tolerance for bases and couplings.
    pub tol: f64,
    /// Optional cap on basis ranks (applied at the leaf level).
    pub max_rank: Option<usize>,
    /// Per-level growth of the rank cap towards the root: the effective cap at
    /// `d` levels above the leaves is `ceil(max_rank * max_rank_growth^d)`.
    /// Upper-level clusters aggregate the skeletons of their children, so their
    /// true interaction ranks grow with depth; a flat cap saturates there and
    /// poisons the accuracy of the whole factorization (the residual blows up
    /// by n=8192) while a modest geometric allowance tracks the true rank
    /// growth.  `1.0` restores the flat cap.
    pub max_rank_growth: f64,
    /// Admissibility condition (weak → HSS-like, strong → H²-like).
    pub admissibility: Admissibility,
    /// Exact or sampled basis construction.
    pub basis_mode: BasisMode,
    /// How the basis QR of a far-field panel is computed: direct column-pivoted QR
    /// of the full panel (reference) or a Gaussian sketch followed by a small
    /// pivoted QR (GEMM-dominated fast path, the default).
    pub compression: CompressionMode,
    /// Compute couplings and upper-level far-field projections from skeleton
    /// rows/columns (interpolation through per-cluster skeleton points — linear
    /// kernel-evaluation cost) instead of assembling full admissible blocks and
    /// projecting with `U^T · A · V`.  The slow exact path remains as the
    /// reference (`false`) and as the automatic fallback where ranks do not allow
    /// interpolation.
    pub skeleton_construction: bool,
    /// Elimination strategy.
    pub variant: Variant,
    /// Multi-level or single-level (BLR²) structure.
    pub hierarchy: Hierarchy,
    /// Enrich the shared bases with pre-computed fill-in blocks.  Automatically
    /// irrelevant for weak admissibility (there are no dense off-diagonal blocks).
    pub fillin_enrichment: bool,
    /// Seed for the sampled basis mode.
    pub seed: u64,
    /// Worker threads for the factorization's DAG executor.  `0` (the default)
    /// resolves to the `H2_NUM_THREADS` environment variable if set, otherwise to
    /// the available parallelism.  Factors are bitwise identical for every thread
    /// count — each task computes one output slot and the merge order is fixed.
    pub num_threads: usize,
    /// Fused (one cross-level graph) or phased (per-level gates) execution.
    /// Excluded from [`FactorOptions::fingerprint`]: both schedules produce
    /// bitwise identical factors (asserted by the `fused_schedule` tests).
    pub schedule: Schedule,
}

impl Default for FactorOptions {
    fn default() -> Self {
        FactorOptions {
            tol: 1e-8,
            max_rank: None,
            max_rank_growth: 1.25,
            admissibility: Admissibility::strong(1.0),
            basis_mode: BasisMode::Exact,
            compression: CompressionMode::default(),
            skeleton_construction: true,
            variant: Variant::NoDependencies,
            hierarchy: Hierarchy::MultiLevel,
            fillin_enrichment: true,
            seed: 0,
            num_threads: 0,
            schedule: Schedule::Fused,
        }
    }
}

impl FactorOptions {
    /// A 64-bit fingerprint of every option that affects the numeric content of
    /// the factors.  Two option sets with equal fingerprints produce bitwise
    /// identical factors over the same geometry and kernel, so the fingerprint
    /// is a sound cache-key component (see the `h2_server` factor cache).
    ///
    /// `num_threads` is deliberately excluded: factors are bitwise identical at
    /// every thread count, so a cache keyed on it would refactorize for free.
    pub fn fingerprint(&self) -> u64 {
        use h2_geometry::{fingerprint_mix as mix, AdmissibilityKind, FINGERPRINT_SEED};
        let mut h = FINGERPRINT_SEED;
        h = mix(h, self.tol.to_bits());
        h = mix(h, self.max_rank.map_or(u64::MAX, |r| r as u64));
        h = mix(h, self.max_rank_growth.to_bits());
        match self.admissibility.kind {
            AdmissibilityKind::Weak => h = mix(h, 0),
            AdmissibilityKind::Strong { eta } => {
                h = mix(h, 1);
                h = mix(h, eta.to_bits());
            }
        }
        match self.basis_mode {
            BasisMode::Exact => h = mix(h, 0),
            BasisMode::Sampled { max_samples } => {
                h = mix(h, 1);
                h = mix(h, max_samples as u64);
            }
        }
        match self.compression {
            CompressionMode::Direct => h = mix(h, 0),
            CompressionMode::Sketched { oversample } => {
                h = mix(h, 1);
                h = mix(h, oversample as u64);
            }
            CompressionMode::Srft {
                oversample,
                precision,
            } => {
                h = mix(h, 2);
                h = mix(h, oversample as u64);
                h = mix(h, matches!(precision, SketchPrecision::F64) as u64);
            }
        }
        h = mix(h, self.skeleton_construction as u64);
        h = mix(h, matches!(self.variant, Variant::WithDependencies) as u64);
        h = mix(h, matches!(self.hierarchy, Hierarchy::SingleLevel) as u64);
        h = mix(h, self.fillin_enrichment as u64);
        h = mix(h, self.seed);
        h
    }

    /// Effective rank cap `levels_above_leaves` levels above the leaf level
    /// (see [`FactorOptions::max_rank_growth`]); `None` when ranks are uncapped.
    pub fn effective_max_rank(&self, levels_above_leaves: usize) -> Option<usize> {
        self.max_rank.map(|cap| {
            let growth = self.max_rank_growth.max(1.0);
            (cap as f64 * growth.powi(levels_above_leaves as i32)).ceil() as usize
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_describe_the_papers_method() {
        let o = FactorOptions::default();
        assert_eq!(o.variant, Variant::NoDependencies);
        assert_eq!(o.hierarchy, Hierarchy::MultiLevel);
        assert!(o.fillin_enrichment);
        assert!(o.tol > 0.0);
    }

    #[test]
    fn fingerprint_tracks_numeric_options_only() {
        let base = FactorOptions::default();
        let tighter = FactorOptions { tol: 1e-10, ..base };
        let capped = FactorOptions {
            max_rank: Some(64),
            ..base
        };
        let threads = FactorOptions {
            num_threads: 4,
            ..base
        };
        let phased = FactorOptions {
            schedule: Schedule::Phased,
            ..base
        };
        assert_ne!(base.fingerprint(), tighter.fingerprint());
        assert_ne!(base.fingerprint(), capped.fingerprint());
        assert_eq!(base.fingerprint(), threads.fingerprint());
        // Both schedules produce bitwise identical factors, so the schedule
        // must not key the factor cache.
        assert_eq!(base.fingerprint(), phased.fingerprint());
        assert_eq!(base.fingerprint(), FactorOptions::default().fingerprint());
    }

    #[test]
    fn rank_cap_scales_with_depth() {
        let o = FactorOptions {
            max_rank: Some(100),
            max_rank_growth: 1.25,
            ..Default::default()
        };
        assert_eq!(o.effective_max_rank(0), Some(100));
        assert_eq!(o.effective_max_rank(1), Some(125));
        assert_eq!(o.effective_max_rank(2), Some(157));
        let flat = FactorOptions {
            max_rank: Some(100),
            max_rank_growth: 1.0,
            ..Default::default()
        };
        assert_eq!(flat.effective_max_rank(3), Some(100));
        let uncapped = FactorOptions::default();
        assert_eq!(uncapped.effective_max_rank(2), None);
    }
}
