//! Distributed-memory execution model (§III-D and Fig. 8 of the paper).
//!
//! The paper partitions the H² matrix over a full binary **process tree**: each rank
//! owns one or more leaf block rows/columns, levels below the process-tree depth run
//! with no communication at all, and at every level above it the pair of child rank
//! groups exchanges its surviving skeleton blocks through an `Allgather` on a split
//! communicator; the upper levels are then computed redundantly by every rank of the
//! group.
//!
//! The reproduction host has two virtual CPUs, so rather than timing real ranks we
//! *replay the measured factorization* on the process-tree model:
//!
//! * per-rank compute time comes from the per-level, per-cluster task costs recorded
//!   by the factorization (the same numbers the shared-memory simulator uses),
//! * per-level communication volume is the size of the skeleton blocks a rank group
//!   must exchange, charged with the (alpha, beta) network model,
//! * upper levels are charged to every rank (redundant computation), exactly like the
//!   paper's scheme.

use h2_mpisim::{allgather_time, NetworkModel, ProcessTree};

use crate::ulv::UlvFactors;

/// Outcome of the distributed cost model for one rank count.
#[derive(Debug, Clone)]
pub struct DistEstimate {
    /// Number of ranks.
    pub ranks: usize,
    /// Estimated wall-clock seconds for the factorization.
    pub time_seconds: f64,
    /// Compute part of the estimate.
    pub compute_seconds: f64,
    /// Communication part of the estimate.
    pub comm_seconds: f64,
    /// Total bytes exchanged per rank (maximum over ranks).
    pub bytes_per_rank: u64,
}

/// Configuration of the distributed model.
#[derive(Debug, Clone, Copy)]
pub struct DistConfig {
    /// Per-core execution rate in flops per second.
    pub flops_per_second: f64,
    /// Interconnect model.
    pub network: NetworkModel,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            flops_per_second: 4.0e9,
            network: NetworkModel::default(),
        }
    }
}

/// Estimate the distributed factorization time of an already-computed factorization
/// for a given number of ranks.
///
/// The estimate follows the paper's partitioning: leaf-side levels are perfectly
/// distributed (each rank handles its own block rows/columns); every level at or above
/// the process-tree depth is computed redundantly after an allgather of the surviving
/// skeleton blocks of the two merging rank groups.
pub fn estimate_distributed(factors: &UlvFactors, ranks: usize, cfg: &DistConfig) -> DistEstimate {
    assert!(ranks > 0);
    let ptree = ProcessTree::new(ranks);
    let mut compute = 0.0f64;
    let mut comm = 0.0f64;
    let mut max_bytes_per_rank = 0u64;

    for lf in &factors.levels {
        let level = lf.level;
        let nb = lf.nb;
        // Per-cluster elimination cost at this level (flops), approximated from the
        // stored factor dimensions (LU + panels + Schur products).
        let costs: Vec<f64> = (0..nb)
            .map(|k| {
                let c = &lf.clusters[k];
                let r = c.redundant as f64;
                let a = c.active as f64;
                let nn = lf.neighbours[k].len() as f64 + 1.0;
                (2.0 / 3.0) * r * r * r
                    + 2.0 * nn * r * r * a
                    + nn * nn * 2.0 * (a - r) * (a - r) * r
                    + 2.0 * nn * 2.0 * a * a * a
            })
            .collect();
        // Owner of each cluster at this level (ranks of the process tree).
        let owners_per_rank = {
            let mut per_rank = vec![0.0f64; ranks];
            for (k, cost) in costs.iter().enumerate() {
                if level >= ptree.depth {
                    // Grafted levels: a single owner does the work.
                    let (lo, _) = ptree.owners(level, k);
                    per_rank[lo.min(ranks - 1)] += cost;
                } else {
                    // Redundant upper levels: every participating rank repeats the work.
                    let (lo, hi) = ptree.owners(level, k);
                    for r in lo..hi.min(ranks) {
                        per_rank[r] += cost;
                    }
                }
            }
            per_rank
        };
        let level_compute =
            owners_per_rank.iter().cloned().fold(0.0, f64::max) / cfg.flops_per_second;
        compute += level_compute;

        // Communication: when the factorization crosses from `level` to `level - 1`,
        // rank groups of the process tree merge pairwise and exchange the surviving
        // skeleton blocks of their half of the matrix.
        if level > 0 && level <= ptree.depth {
            let group = ptree.ranks_per_node(level - 1).min(ranks);
            // Skeleton data a group contributes: its clusters' skeleton rows times the
            // average skeleton width (dense neighbour + coupling blocks).
            let skeleton_total: usize = lf.clusters.iter().map(|c| c.skeleton).sum();
            let avg_neighbours = (lf.neighbours.iter().map(|l| l.len()).sum::<usize>() as f64
                / nb.max(1) as f64)
                .max(1.0);
            let avg_k = skeleton_total as f64 / nb.max(1) as f64;
            let bytes_per_cluster = (avg_k * avg_k * (avg_neighbours + 1.0) * 8.0) as u64;
            let clusters_per_group = nb / (ranks / group).max(1);
            let bytes = bytes_per_cluster.saturating_mul(clusters_per_group.max(1) as u64);
            comm += allgather_time(&cfg.network, group.max(2), bytes);
            max_bytes_per_rank = max_bytes_per_rank.saturating_add(bytes);
        }
    }
    // Root system: computed redundantly on every rank.
    let n_root = factors.stats.root_dim as f64;
    compute += (2.0 / 3.0) * n_root * n_root * n_root / cfg.flops_per_second;

    DistEstimate {
        ranks,
        time_seconds: compute + comm,
        compute_seconds: compute,
        comm_seconds: comm,
        bytes_per_rank: max_bytes_per_rank,
    }
}

/// Sweep the distributed estimate over several rank counts.
pub fn strong_scaling_sweep(
    factors: &UlvFactors,
    rank_counts: &[usize],
    cfg: &DistConfig,
) -> Vec<DistEstimate> {
    rank_counts
        .iter()
        .map(|&r| estimate_distributed(factors, r, cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::FactorOptions;
    use crate::variants::h2_ulv_nodep;
    use h2_geometry::{uniform_cube, ClusterTree, LaplaceKernel, PartitionStrategy};

    fn factors() -> UlvFactors {
        let pts = uniform_cube(512, 8);
        let tree = ClusterTree::build(&pts, 32, PartitionStrategy::KMeans, 0);
        let kernel = LaplaceKernel::default();
        h2_ulv_nodep(
            &kernel,
            &tree,
            &FactorOptions {
                tol: 1e-6,
                ..FactorOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn more_ranks_do_not_increase_compute_dominated_time() {
        let f = factors();
        let cfg = DistConfig::default();
        let sweep = strong_scaling_sweep(&f, &[1, 2, 4, 8, 16], &cfg);
        assert_eq!(sweep.len(), 5);
        // Compute time is non-increasing with more ranks.
        for w in sweep.windows(2) {
            assert!(
                w[1].compute_seconds <= w[0].compute_seconds * 1.0001,
                "compute did not shrink: {} -> {}",
                w[0].compute_seconds,
                w[1].compute_seconds
            );
        }
        // Communication appears only with more than one rank.
        assert_eq!(sweep[0].comm_seconds, 0.0);
        assert!(sweep[2].comm_seconds > 0.0);
        // Total time at 16 ranks should be well below the single-rank time for this
        // compute-heavy configuration.
        assert!(sweep[4].time_seconds < sweep[0].time_seconds);
    }

    #[test]
    fn estimates_are_finite_and_positive() {
        let f = factors();
        let e = estimate_distributed(&f, 1024, &DistConfig::default());
        assert!(e.time_seconds.is_finite() && e.time_seconds > 0.0);
        assert!(e.compute_seconds > 0.0);
        assert!(e.comm_seconds >= 0.0);
    }
}
