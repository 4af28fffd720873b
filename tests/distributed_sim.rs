//! Integration test of the distributed-memory model: the process-tree partitioning of
//! the paper (Fig. 8) and the cost model used for the Fig. 16 reproduction.

use h2ulv::factor::dist::{estimate_distributed, strong_scaling_sweep, DistConfig};
use h2ulv::mpisim::ProcessTree;
use h2ulv::prelude::*;

#[test]
fn process_tree_partitioning_is_consistent_with_cluster_tree_depth() {
    let pt = ProcessTree::new(16);
    // A cluster tree deeper than the process tree: lower levels are grafted to ranks.
    for level in 5..8 {
        for idx in [0usize, 3, 7] {
            let (lo, hi) = pt.owners(level, idx);
            assert_eq!(hi, lo + 1, "grafted levels have a single owner");
        }
    }
    // Upper levels are shared by whole rank groups.
    let (lo, hi) = pt.owners(1, 0);
    assert_eq!((lo, hi), (0, 8));
}

#[test]
fn distributed_cost_model_scales_and_saturates() {
    let points = uniform_cube(1024, 9);
    let tree = ClusterTree::build(&points, 64, PartitionStrategy::KMeans, 0);
    let kernel = LaplaceKernel::default();
    let factors = h2_ulv_nodep(
        &kernel,
        &tree,
        &FactorOptions {
            tol: 1e-6,
            ..FactorOptions::default()
        },
    )
    .unwrap();
    let cfg = DistConfig::default();
    let sweep = strong_scaling_sweep(&factors, &[1, 4, 16, 64, 256, 1024], &cfg);
    // Time decreases (or at least does not blow up) with more ranks, then saturates at
    // the redundantly-computed upper levels + communication.
    assert!(sweep[1].time_seconds <= sweep[0].time_seconds * 1.01);
    assert!(sweep[3].time_seconds <= sweep[0].time_seconds);
    let e_big = estimate_distributed(&factors, 10240, &cfg);
    assert!(e_big.time_seconds.is_finite());
    assert!(e_big.comm_seconds >= 0.0);
    // The single-rank estimate has no communication at all.
    assert_eq!(sweep[0].comm_seconds, 0.0);
}
