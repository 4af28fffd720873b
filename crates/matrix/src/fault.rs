//! Deterministic fault injection for the robustness harness.
//!
//! A fault plan describes one fault class to inject into the solver pipeline.
//! Tests install one with [`set_plan`]; the library itself never reads the
//! environment.  The CI entry points (`tests/fault_injection.rs`,
//! `tests/comm_chaos.rs`) take a `<kind>:<param>` spec from `H2_FAULT`, turn
//! it into a plan with [`parse`] and install it themselves.
//!
//! Supported specs:
//!
//! * `nan_kernel:<rate>` — poison kernel-assembly output entries with NaN at
//!   the given rate (`0.0..=1.0`);
//! * `corrupt_sketch:<rate>` — poison compression sketches at the given rate
//!   (every sketch stage); `corrupt_sketch@srft_f32:<rate>`,
//!   `corrupt_sketch@srft_f64:<rate>` and `corrupt_sketch@gaussian:<rate>`
//!   restrict the corruption to one rung of the recovery ladder;
//! * `singular_pivot:<k>` — replace cluster `k mod nb`'s redundant diagonal
//!   block at the leaf level with an exactly singular matrix before its LU;
//! * `task_panic:<n>` — panic the `n`-th DAG task action created during a
//!   factorization (creation order, so the choice is thread-count
//!   deterministic).
//!
//! Network fault classes, injected inside the `h2_mpisim` transport (the
//! solver pipeline never sees them except through typed `CommError`s):
//!
//! * `drop_msg:<rate>` — silently drop data frames at the given rate (the
//!   reliable layer retries; persistent drops become a typed timeout);
//! * `corrupt_msg:<rate>` — flip the checksum of data frames at the given
//!   rate (detected on receive, not delivered, repaired by retry);
//! * `delay_msg:<ms>` — delay every data frame by `<ms>` milliseconds;
//! * `dup_msg:<rate>` — send data frames twice at the given rate (the
//!   receiver's per-peer sequence numbers suppress the duplicate);
//! * `kill_rank:<r>[@<op>]` — world rank `r` goes silent (stops sending,
//!   acking and heartbeating) at its `<op>`-th communicator operation
//!   (0-based, default 0); survivors detect the failure by heartbeat loss.
//!
//! Injection *decisions* are deterministic: rate-based faults hash a per-site
//! counter (splitmix64) into `[0, 1)` and compare against the rate, so the
//! same plan injects the same faults in a single-threaded run.  This module
//! lives in `h2_matrix` because it is the one crate every layer of the stack
//! already depends on; it carries no solver logic of its own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Which sketch stage a `corrupt_sketch` plan targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchStage {
    /// The mixed-precision (f32) SRFT sketch.
    SrftF32,
    /// The double-precision SRFT sketch.
    SrftF64,
    /// The Gaussian test-matrix sketch.
    Gaussian,
}

/// One fault class to inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlan {
    /// Poison kernel assembly output with NaN at `rate`.
    NanKernel {
        /// Per-entry poisoning probability.
        rate: f64,
    },
    /// Poison compression sketches at `rate`; `stage = None` hits every stage.
    CorruptSketch {
        /// Per-sketch poisoning probability.
        rate: f64,
        /// Restrict to one ladder rung; `None` corrupts all of them.
        stage: Option<SketchStage>,
    },
    /// Force cluster `cluster mod nb`'s leaf-level redundant diagonal block
    /// to be exactly singular.
    SingularPivot {
        /// Target cluster index (taken modulo the number of leaf clusters).
        cluster: usize,
    },
    /// Panic the `index`-th DAG task action (creation order).
    TaskPanic {
        /// Zero-based creation index of the task to panic.
        index: u64,
    },
    /// Drop communicator data frames at `rate`.
    DropMsg {
        /// Per-frame drop probability.
        rate: f64,
    },
    /// Corrupt the checksum of communicator data frames at `rate`.
    CorruptMsg {
        /// Per-frame corruption probability.
        rate: f64,
    },
    /// Delay every communicator data frame by `ms` milliseconds.
    DelayMsg {
        /// Delay per frame in milliseconds.
        ms: u64,
    },
    /// Duplicate communicator data frames at `rate`.
    DupMsg {
        /// Per-frame duplication probability.
        rate: f64,
    },
    /// World rank `rank` goes silent at its `after_ops`-th communicator op.
    KillRank {
        /// Universe (world) rank that dies.
        rank: usize,
        /// Zero-based communicator-operation ordinal at which it dies.
        after_ops: u64,
    },
}

static PLAN: RwLock<Option<FaultPlan>> = RwLock::new(None);

/// Counter for `task_panic` plans: every DAG task action draws one sequence
/// number at creation time.
static TASK_SEQ: AtomicU64 = AtomicU64::new(0);

/// Parse a `<kind>:<param>` fault spec.  Returns a human-readable message on
/// malformed input so callers can surface what was wrong instead of a backtrace.
pub fn parse(spec: &str) -> Result<FaultPlan, String> {
    let (kind, param) = spec
        .split_once(':')
        .ok_or_else(|| format!("fault spec '{spec}' is missing ':<param>'"))?;
    let rate = |p: &str| -> Result<f64, String> {
        let r: f64 = p
            .parse()
            .map_err(|_| format!("fault rate '{p}' is not a number"))?;
        if !(0.0..=1.0).contains(&r) {
            return Err(format!("fault rate {r} must lie in [0, 1]"));
        }
        Ok(r)
    };
    let index = |p: &str| -> Result<u64, String> {
        p.parse()
            .map_err(|_| format!("fault index '{p}' is not an unsigned integer"))
    };
    let (kind, stage) = match kind.split_once('@') {
        Some((k, s)) => {
            let stage = match s {
                "srft_f32" => SketchStage::SrftF32,
                "srft_f64" => SketchStage::SrftF64,
                "gaussian" => SketchStage::Gaussian,
                other => return Err(format!("unknown sketch stage '{other}'")),
            };
            (k, Some(stage))
        }
        None => (kind, None),
    };
    match kind {
        "nan_kernel" => Ok(FaultPlan::NanKernel { rate: rate(param)? }),
        "corrupt_sketch" => Ok(FaultPlan::CorruptSketch {
            rate: rate(param)?,
            stage,
        }),
        "singular_pivot" => Ok(FaultPlan::SingularPivot {
            cluster: index(param)? as usize,
        }),
        "task_panic" => Ok(FaultPlan::TaskPanic {
            index: index(param)?,
        }),
        "drop_msg" => Ok(FaultPlan::DropMsg { rate: rate(param)? }),
        "corrupt_msg" => Ok(FaultPlan::CorruptMsg { rate: rate(param)? }),
        "delay_msg" => Ok(FaultPlan::DelayMsg { ms: index(param)? }),
        "dup_msg" => Ok(FaultPlan::DupMsg { rate: rate(param)? }),
        "kill_rank" => {
            // Param is `<rank>[@<op>]`: which world rank dies, and at which
            // 0-based communicator operation (immediately when omitted).
            let (r, op) = match param.split_once('@') {
                Some((r, op)) => (r, index(op)?),
                None => (param, 0),
            };
            Ok(FaultPlan::KillRank {
                rank: index(r)? as usize,
                after_ops: op,
            })
        }
        other => Err(format!("unknown fault kind '{other}'")),
    }
}

/// The installed fault plan; `None` until a test calls [`set_plan`].  The
/// library never consults the environment, so a production process cannot be
/// fault-injected from outside.
pub fn plan() -> Option<FaultPlan> {
    PLAN.read().ok().and_then(|guard| *guard)
}

/// Install (or clear, with `None`) the fault plan.  Also resets the
/// `task_panic` sequence counter so plans are reproducible within one
/// process.  Intended for tests.
pub fn set_plan(p: Option<FaultPlan>) {
    if let Ok(mut guard) = PLAN.write() {
        *guard = p;
    }
    TASK_SEQ.store(0, Ordering::SeqCst);
}

/// Deterministic coin flip: hashes `counter` (splitmix64) into `[0, 1)` and
/// compares against `rate`.
pub fn roll(rate: f64, counter: u64) -> bool {
    let mut z = counter.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    // Map the top 53 bits to [0, 1).
    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
    u < rate
}

/// Draw the next `task_panic` sequence number and report whether the active
/// plan arms a panic for it.  Call exactly once per DAG task action, at
/// creation time, so the armed task is independent of execution order.
pub fn task_panic_armed() -> bool {
    match plan() {
        Some(FaultPlan::TaskPanic { index }) => TASK_SEQ.fetch_add(1, Ordering::Relaxed) == index,
        _ => false,
    }
}

/// Whether a `corrupt_sketch` plan targets `stage`, and at what rate.
pub fn sketch_corruption_rate(stage: SketchStage) -> Option<f64> {
    match plan() {
        Some(FaultPlan::CorruptSketch { rate, stage: s }) if s.is_none() || s == Some(stage) => {
            Some(rate)
        }
        _ => None,
    }
}

/// Rate of an active `drop_msg` plan.
pub fn drop_msg_rate() -> Option<f64> {
    match plan() {
        Some(FaultPlan::DropMsg { rate }) => Some(rate),
        _ => None,
    }
}

/// Rate of an active `corrupt_msg` plan.
pub fn corrupt_msg_rate() -> Option<f64> {
    match plan() {
        Some(FaultPlan::CorruptMsg { rate }) => Some(rate),
        _ => None,
    }
}

/// Per-frame delay of an active `delay_msg` plan, in milliseconds.
pub fn delay_msg_ms() -> Option<u64> {
    match plan() {
        Some(FaultPlan::DelayMsg { ms }) => Some(ms),
        _ => None,
    }
}

/// Rate of an active `dup_msg` plan.
pub fn dup_msg_rate() -> Option<f64> {
    match plan() {
        Some(FaultPlan::DupMsg { rate }) => Some(rate),
        _ => None,
    }
}

/// `(rank, op ordinal)` of an active `kill_rank` plan.
pub fn kill_rank_plan() -> Option<(usize, u64)> {
    match plan() {
        Some(FaultPlan::KillRank { rank, after_ops }) => Some((rank, after_ops)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_every_kind() {
        assert_eq!(
            parse("nan_kernel:0.01"),
            Ok(FaultPlan::NanKernel { rate: 0.01 })
        );
        assert_eq!(
            parse("corrupt_sketch:0.5"),
            Ok(FaultPlan::CorruptSketch {
                rate: 0.5,
                stage: None
            })
        );
        assert_eq!(
            parse("corrupt_sketch@srft_f32:1"),
            Ok(FaultPlan::CorruptSketch {
                rate: 1.0,
                stage: Some(SketchStage::SrftF32)
            })
        );
        assert_eq!(
            parse("singular_pivot:3"),
            Ok(FaultPlan::SingularPivot { cluster: 3 })
        );
        assert_eq!(parse("task_panic:5"), Ok(FaultPlan::TaskPanic { index: 5 }));
        assert_eq!(parse("drop_msg:0.1"), Ok(FaultPlan::DropMsg { rate: 0.1 }));
        assert_eq!(
            parse("corrupt_msg:0.25"),
            Ok(FaultPlan::CorruptMsg { rate: 0.25 })
        );
        assert_eq!(parse("delay_msg:5"), Ok(FaultPlan::DelayMsg { ms: 5 }));
        assert_eq!(parse("dup_msg:1"), Ok(FaultPlan::DupMsg { rate: 1.0 }));
        assert_eq!(
            parse("kill_rank:1@3"),
            Ok(FaultPlan::KillRank {
                rank: 1,
                after_ops: 3
            })
        );
        assert_eq!(
            parse("kill_rank:2"),
            Ok(FaultPlan::KillRank {
                rank: 2,
                after_ops: 0
            })
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(parse("nan_kernel").is_err());
        assert!(parse("nan_kernel:2.0").is_err());
        assert!(parse("nan_kernel:abc").is_err());
        assert!(parse("corrupt_sketch@warp:0.5").is_err());
        assert!(parse("frobnicate:1").is_err());
        assert!(parse("drop_msg:1.5").is_err());
        assert!(parse("delay_msg:-3").is_err());
        assert!(parse("kill_rank:x@2").is_err());
        assert!(parse("kill_rank:1@x").is_err());
    }

    #[test]
    fn roll_is_deterministic_and_rate_shaped() {
        for c in 0..64 {
            assert_eq!(roll(0.5, c), roll(0.5, c));
        }
        assert!((0..1000).filter(|&c| roll(0.0, c)).count() == 0);
        assert!((0..1000).filter(|&c| roll(1.0, c)).count() == 1000);
        let hits = (0..10_000).filter(|&c| roll(0.1, c)).count();
        assert!(
            (500..2000).contains(&hits),
            "10% rate produced {hits}/10000"
        );
    }
}
