//! `H2_FILL_SAMPLE` / `H2_FILL_SCALE` used to be read mid-factorization: they
//! changed the factor bits while `FactorOptions::fingerprint()` — the server's
//! factor-cache key — stayed equal.  The widths are constants now; this binary
//! (its own process, so the variables are set before any factorization runs)
//! pins that the environment no longer reaches the factors.  The same holds
//! for `H2_SCHEDULE` (it overrode `FactorOptions::schedule`, adding one gate
//! task per level) and `H2_FAULT` (the library parsed it on first use and
//! `task_panic:0` aborted the first task): options and `fault::set_plan` are
//! the only ways in.

use h2ulv::prelude::*;

/// Digest of every basis and of the root LU (any change to the sampled
/// fill-ins moves the leaf bases and everything built on them), and the
/// number of tasks the factorization ran.
fn factor_digest() -> (u64, usize) {
    let points = uniform_cube(512, 17);
    let tree = ClusterTree::build(&points, 64, PartitionStrategy::KMeans, 0);
    let opts = FactorOptions {
        basis_mode: BasisMode::Sampled { max_samples: 512 },
        ..FactorOptions::default()
    };
    let f = h2_ulv_nodep(&LaplaceKernel::default(), &tree, &opts).unwrap();
    assert!(
        f.stats.fillin_blocks > 0,
        "the problem must exercise fill-ins"
    );
    let bases = f.levels.iter().flat_map(|l| &l.clusters);
    let digest = bases
        .flat_map(|c| [&c.q, &c.p])
        .chain([&f.root_lu.lu])
        .flat_map(|m| m.as_slice())
        .fold(0xcbf29ce484222325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x100000001b3)
        });
    (digest, f.task_graph.len())
}

#[test]
fn fill_sampling_ignores_the_environment() {
    std::env::set_var("H2_FILL_SAMPLE", "8");
    std::env::set_var("H2_FILL_SCALE", "1");
    std::env::set_var("H2_SCHEDULE", "phased");
    std::env::set_var("H2_FAULT", "task_panic:0");
    let with_env = factor_digest();
    for var in ["H2_FILL_SAMPLE", "H2_FILL_SCALE", "H2_SCHEDULE", "H2_FAULT"] {
        std::env::remove_var(var);
    }
    assert_eq!(with_env, factor_digest());
}
