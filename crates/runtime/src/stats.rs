//! The runtime's work-stealing counters.

/// Snapshot of a [`crate::pool::ThreadPool`]'s scheduling counters.
///
/// Every executed task is counted exactly once in [`executed`](Self::executed)
/// and exactly once in one of the three acquisition channels, so
/// `executed == local_pops + injector_pops + steals` always holds.  The steal
/// ratio is the load-imbalance signal the strong-scaling analysis watches: a
/// well-balanced DAG run keeps it low, a wide irregular graph drives it up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkStealCounters {
    /// Tasks executed by the pool's workers.
    pub executed: u64,
    /// Tasks a worker popped from its own deque (LIFO end).
    pub local_pops: u64,
    /// Tasks taken from the shared priority injector.
    pub injector_pops: u64,
    /// Tasks stolen from another worker's deque (FIFO end).
    pub steals: u64,
}

impl WorkStealCounters {
    /// Fraction of executed tasks that were stolen (0 when nothing ran).
    pub fn steal_ratio(&self) -> f64 {
        if self.executed == 0 {
            return 0.0;
        }
        self.steals as f64 / self.executed as f64
    }
}
