//! Communication accounting.
//!
//! Every logical `send` in the universe records its payload size here (resent
//! copies of the same message are counted under `retries`, not as new
//! messages).  The distributed benchmark (Fig. 16) feeds these volumes into
//! the network time model instead of measuring wall-clock communication,
//! because all ranks share one physical core in the reproduction environment.
//! The robustness counters (retries, timeouts, corrupt frames, duplicates,
//! rank failures) feed the chaos suite's assertions that each injected fault
//! class was actually hit.

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-rank communication statistics.
#[derive(Debug)]
pub struct CommStats {
    bytes_sent: Vec<AtomicU64>,
    messages_sent: Vec<AtomicU64>,
    /// Resends of unacknowledged frames.
    retries: Vec<AtomicU64>,
    /// Operations that missed their deadline.
    timeouts: Vec<AtomicU64>,
    /// Frames received with a checksum mismatch (dropped, not delivered).
    corrupt_frames: Vec<AtomicU64>,
    /// Frames suppressed by sequence-number deduplication.
    duplicates: Vec<AtomicU64>,
    /// Peer (or self, under `kill_rank`) failures observed by this rank.
    rank_failures: Vec<AtomicU64>,
}

fn clone_counters(v: &[AtomicU64]) -> Vec<AtomicU64> {
    v.iter()
        .map(|a| AtomicU64::new(a.load(Ordering::Relaxed)))
        .collect()
}

impl Clone for CommStats {
    fn clone(&self) -> Self {
        CommStats {
            bytes_sent: clone_counters(&self.bytes_sent),
            messages_sent: clone_counters(&self.messages_sent),
            retries: clone_counters(&self.retries),
            timeouts: clone_counters(&self.timeouts),
            corrupt_frames: clone_counters(&self.corrupt_frames),
            duplicates: clone_counters(&self.duplicates),
            rank_failures: clone_counters(&self.rank_failures),
        }
    }
}

fn total(v: &[AtomicU64]) -> u64 {
    v.iter().map(|a| a.load(Ordering::Relaxed)).sum()
}

impl CommStats {
    /// Create counters for `ranks` ranks.
    pub fn new(ranks: usize) -> Self {
        let zeros = || (0..ranks).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        CommStats {
            bytes_sent: zeros(),
            messages_sent: zeros(),
            retries: zeros(),
            timeouts: zeros(),
            corrupt_frames: zeros(),
            duplicates: zeros(),
            rank_failures: zeros(),
        }
    }

    /// Record a send of `bytes` bytes from `rank`.
    pub fn record_send(&self, rank: usize, bytes: usize) {
        self.bytes_sent[rank].fetch_add(bytes as u64, Ordering::Relaxed);
        self.messages_sent[rank].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one resend of an unacknowledged frame by `rank`.
    pub fn record_retry(&self, rank: usize) {
        self.retries[rank].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one missed operation deadline on `rank`.
    pub fn record_timeout(&self, rank: usize) {
        self.timeouts[rank].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one checksum-mismatched frame observed by `rank`.
    pub fn record_corrupt_frame(&self, rank: usize) {
        self.corrupt_frames[rank].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one duplicate frame suppressed by `rank`.
    pub fn record_duplicate(&self, rank: usize) {
        self.duplicates[rank].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one rank failure observed by `rank`.
    pub fn record_rank_failure(&self, rank: usize) {
        self.rank_failures[rank].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of ranks covered.
    pub fn ranks(&self) -> usize {
        self.bytes_sent.len()
    }

    /// Bytes sent by one rank.
    pub fn bytes_from(&self, rank: usize) -> u64 {
        self.bytes_sent[rank].load(Ordering::Relaxed)
    }

    /// Messages sent by one rank.
    pub fn messages_from(&self, rank: usize) -> u64 {
        self.messages_sent[rank].load(Ordering::Relaxed)
    }

    /// Frame resends performed by one rank.
    pub fn retries_from(&self, rank: usize) -> u64 {
        self.retries[rank].load(Ordering::Relaxed)
    }

    /// Deadline misses on one rank.
    pub fn timeouts_from(&self, rank: usize) -> u64 {
        self.timeouts[rank].load(Ordering::Relaxed)
    }

    /// Corrupt frames observed by one rank.
    pub fn corrupt_frames_from(&self, rank: usize) -> u64 {
        self.corrupt_frames[rank].load(Ordering::Relaxed)
    }

    /// Duplicate frames suppressed by one rank.
    pub fn duplicates_from(&self, rank: usize) -> u64 {
        self.duplicates[rank].load(Ordering::Relaxed)
    }

    /// Rank failures observed by one rank.
    pub fn rank_failures_from(&self, rank: usize) -> u64 {
        self.rank_failures[rank].load(Ordering::Relaxed)
    }

    /// Total bytes sent across all ranks.
    pub fn total_bytes(&self) -> u64 {
        total(&self.bytes_sent)
    }

    /// Total messages sent across all ranks.
    pub fn total_messages(&self) -> u64 {
        total(&self.messages_sent)
    }

    /// Total frame resends across all ranks.
    pub fn total_retries(&self) -> u64 {
        total(&self.retries)
    }

    /// Total deadline misses across all ranks.
    pub fn total_timeouts(&self) -> u64 {
        total(&self.timeouts)
    }

    /// Total corrupt frames observed across all ranks.
    pub fn total_corrupt_frames(&self) -> u64 {
        total(&self.corrupt_frames)
    }

    /// Total duplicate frames suppressed across all ranks.
    pub fn total_duplicates(&self) -> u64 {
        total(&self.duplicates)
    }

    /// Total rank failures observed across all ranks.
    pub fn total_rank_failures(&self) -> u64 {
        total(&self.rank_failures)
    }

    /// Maximum bytes sent by any single rank (the communication-bound rank).
    pub fn max_bytes_per_rank(&self) -> u64 {
        self.bytes_sent
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_aggregate() {
        let s = CommStats::new(3);
        s.record_send(0, 100);
        s.record_send(0, 50);
        s.record_send(2, 300);
        assert_eq!(s.ranks(), 3);
        assert_eq!(s.bytes_from(0), 150);
        assert_eq!(s.bytes_from(1), 0);
        assert_eq!(s.messages_from(0), 2);
        assert_eq!(s.total_bytes(), 450);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.max_bytes_per_rank(), 300);
        let c = s.clone();
        assert_eq!(c.total_bytes(), 450);
    }

    #[test]
    fn robustness_counters_track_per_rank() {
        let s = CommStats::new(2);
        s.record_retry(0);
        s.record_retry(0);
        s.record_timeout(1);
        s.record_corrupt_frame(1);
        s.record_duplicate(0);
        s.record_rank_failure(1);
        assert_eq!(s.retries_from(0), 2);
        assert_eq!(s.retries_from(1), 0);
        assert_eq!(s.total_retries(), 2);
        assert_eq!(s.timeouts_from(1), 1);
        assert_eq!(s.total_timeouts(), 1);
        assert_eq!(s.corrupt_frames_from(1), 1);
        assert_eq!(s.total_corrupt_frames(), 1);
        assert_eq!(s.duplicates_from(0), 1);
        assert_eq!(s.total_duplicates(), 1);
        assert_eq!(s.rank_failures_from(1), 1);
        assert_eq!(s.total_rank_failures(), 1);
        let c = s.clone();
        assert_eq!(c.total_retries(), 2);
        assert_eq!(c.total_rank_failures(), 1);
    }

    #[test]
    fn empty_stats() {
        let s = CommStats::new(0);
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.total_retries(), 0);
        assert_eq!(s.max_bytes_per_rank(), 0);
    }
}
