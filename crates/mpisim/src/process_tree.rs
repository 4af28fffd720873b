//! The full binary process tree of the paper's distributed partitioning (Fig. 8).
//!
//! "Since it is always possible to split the range of processes in half (for odd
//! numbers roughly half), the process tree … is always a full binary tree, regardless
//! of the underlying geometry or the type of matrix.  The rows and columns of the
//! H²-matrix also form a full binary tree, which is usually deeper than the process
//! tree.  This means that the lower levels of the row/column tree are grafted to the
//! leaves of the process tree."
//!
//! [`ProcessTree`] encodes exactly that: a node of the cluster tree at level `l`,
//! index `i` is owned by a contiguous range of ranks; once the range becomes a single
//! rank, all deeper descendants of that cluster live on that rank.  Upper levels are
//! replicated ("computed redundantly by multiple processes"), so there is no single
//! owner above the grafting point — instead every rank in the range holds a copy.

/// A full binary tree over `ranks` processes.
#[derive(Debug, Clone)]
pub struct ProcessTree {
    /// Total number of ranks.
    pub ranks: usize,
    /// Depth of the process tree: the smallest `d` with `2^d >= ranks`.
    pub depth: usize,
}

impl ProcessTree {
    /// Build a process tree over `ranks` processes.
    ///
    /// # Panics
    /// Panics if `ranks == 0`.
    pub fn new(ranks: usize) -> Self {
        assert!(ranks > 0, "process tree needs at least one rank");
        let mut depth = 0;
        while (1usize << depth) < ranks {
            depth += 1;
        }
        ProcessTree { ranks, depth }
    }

    /// Rank range `[lo, hi)` owning the cluster-tree node `(level, index)`.
    ///
    /// The root holds every rank.  Each range with two or more ranks is split in
    /// half ("roughly half" for odd counts) between its two children, node `i` of
    /// `level` starting at rank `floor(i · ranks / 2^level)`, so sibling ranges are
    /// disjoint and together make up their parent's.
    /// Once a range is a single rank, every descendant inherits it: deeper clusters
    /// are grafted onto that rank, which happens at the latest at the process-tree
    /// depth.
    pub fn owners(&self, level: usize, index: usize) -> (usize, usize) {
        assert!(index < (1usize << level), "index out of range for level");
        let mut range = (0, self.ranks);
        for l in 1..=level {
            if range.1 - range.0 == 1 {
                break;
            }
            let i = index >> (level - l);
            range = (self.split_point(l, i), self.split_point(l, i + 1));
        }
        range
    }

    /// The cluster index at `level` whose owning range contains `rank`; at grafted
    /// levels, where one rank owns several clusters, the first of them.
    pub fn cluster_of_rank(&self, rank: usize, level: usize) -> usize {
        assert!(rank < self.ranks);
        let mut range = (0, self.ranks);
        let mut index = 0;
        for l in 1..=level {
            index *= 2;
            if range.1 - range.0 > 1 {
                if rank >= self.split_point(l, index + 1) {
                    index += 1;
                }
                range = (self.split_point(l, index), self.split_point(l, index + 1));
            }
        }
        index
    }

    /// Level at which ranges of ranks merge pairwise: at process-tree level `l`, each
    /// node spans `2^(depth - l)` leaf slots.
    pub fn ranks_per_node(&self, level: usize) -> usize {
        if level >= self.depth {
            1
        } else {
            // Approximate for non-power-of-two rank counts: width in leaf slots.
            1usize << (self.depth - level)
        }
    }

    /// First rank of node `i`'s range at `level`, before grafting.
    fn split_point(&self, level: usize, i: usize) -> usize {
        (i * self.ranks) >> level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_two_ranks() {
        let pt = ProcessTree::new(8);
        assert_eq!(pt.depth, 3);
        // At the leaf level of the process tree every rank owns one node.
        for i in 0..8 {
            assert_eq!(pt.owners(3, i), (i, i + 1));
        }
        // One level up, pairs of ranks share a node.
        assert_eq!(pt.owners(2, 0), (0, 2));
        assert_eq!(pt.owners(2, 3), (6, 8));
        // Root is shared by everyone.
        assert_eq!(pt.owners(0, 0), (0, 8));
        // Rank 5 holds the root and node (2, 2), not node (2, 0).
        assert_eq!(pt.owners(2, 2), (4, 6));
    }

    #[test]
    fn deeper_cluster_levels_are_grafted_onto_single_ranks() {
        let pt = ProcessTree::new(4);
        assert_eq!(pt.depth, 2);
        // Cluster level 4 has 16 nodes; each group of 4 consecutive nodes lives on one rank.
        for i in 0..16 {
            let (lo, hi) = pt.owners(4, i);
            assert_eq!(hi, lo + 1);
            assert_eq!(lo, i / 4);
        }
        assert_eq!(pt.cluster_of_rank(2, 4), 8);
        assert_eq!(pt.cluster_of_rank(2, 2), 2);
        assert_eq!(pt.cluster_of_rank(2, 1), 1);
        assert_eq!(pt.cluster_of_rank(2, 0), 0);
    }

    #[test]
    fn non_power_of_two_ranks_cover_all_nodes() {
        for ranks in [1, 2, 3, 5, 6, 8, 10, 16, 160] {
            let pt = ProcessTree::new(ranks);
            let members = |(lo, hi): (usize, usize)| (lo..hi).collect::<Vec<_>>();
            for level in 0..=pt.depth {
                let ranges: Vec<_> = (0..1usize << level).map(|i| pt.owners(level, i)).collect();
                if level < pt.depth {
                    // Shared levels: the ranges partition 0..ranks in node order, and
                    // each is exactly the set of ranks whose data the node holds.
                    let mut next = 0;
                    for (i, &(lo, hi)) in ranges.iter().enumerate() {
                        assert!(
                            lo == next && hi > lo,
                            "ranks {ranks} ({level}, {i}): {ranges:?}"
                        );
                        next = hi;
                        let homed: Vec<_> = (0..ranks)
                            .filter(|&r| pt.cluster_of_rank(r, level) == i)
                            .collect();
                        assert_eq!(members((lo, hi)), homed, "ranks {ranks} ({level}, {i})");
                    }
                    assert_eq!(next, ranks, "ranks {ranks} level {level}");
                } else {
                    // Grafting level: one owner per node, and every rank owns a node.
                    assert!(ranges.iter().all(|&(lo, hi)| hi == lo + 1 && hi <= ranks));
                    for r in 0..ranks {
                        assert!(ranges.contains(&(r, r + 1)), "ranks {ranks}: rank {r} idle");
                    }
                }
                for r in 0..ranks {
                    let (lo, hi) = pt.owners(level, pt.cluster_of_rank(r, level));
                    assert!(
                        (lo..hi).contains(&r),
                        "ranks {ranks}: rank {r} at level {level}"
                    );
                }
                if level > 0 {
                    for i in 0..1usize << (level - 1) {
                        let mut children = members(ranges[2 * i]);
                        children.extend(members(ranges[2 * i + 1]));
                        children.dedup();
                        assert_eq!(
                            members(pt.owners(level - 1, i)),
                            children,
                            "ranks {ranks}: parent ({}, {i}) is not the union of its children",
                            level - 1
                        );
                    }
                }
            }
            assert_eq!(pt.owners(0, 0), (0, ranks));
        }
    }

    #[test]
    fn ranks_per_node_shrinks_with_level() {
        let pt = ProcessTree::new(16);
        assert_eq!(pt.ranks_per_node(0), 16);
        assert_eq!(pt.ranks_per_node(2), 4);
        assert_eq!(pt.ranks_per_node(4), 1);
        assert_eq!(pt.ranks_per_node(7), 1);
    }

    #[test]
    fn single_rank_tree() {
        let pt = ProcessTree::new(1);
        assert_eq!(pt.depth, 0);
        assert_eq!(pt.owners(0, 0), (0, 1));
        assert_eq!(pt.owners(3, 5), (0, 1));
        assert_eq!(pt.owners(2, 1), (0, 1));
    }

    #[test]
    #[should_panic]
    fn zero_ranks_panics() {
        let _ = ProcessTree::new(0);
    }
}
