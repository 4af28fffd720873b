//! The metric registry and the result a run prints.
//!
//! `METRICS` is the Rust-side copy of the names, units and bounds that
//! `/BENCHMARK.json` fixes; `tests/bench_smoke.rs` asserts the two agree and
//! that a run emits every name exactly once.

use crate::timing::Summary;

/// Which list of `BENCHMARK.json` a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// What a user of the system sees; `bound` is the share of the parent's
    /// median by which it may worsen before a change counts as a regression.
    EndToEnd { bound: f64 },
    /// A single layer's number: printed by every run, in the result line of
    /// the traced run only.
    Layer,
    /// As [`Kind::Layer`], but measured by the traced run only (a probe that
    /// costs time the untraced run does not spend).
    Traced,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::EndToEnd { bound },
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Layer,
    }
}

const fn traced(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Traced,
    }
}

use Better::{Higher, Lower};

/// Every metric the benchmark knows, in report order.
pub const METRICS: &[MetricDef] = &[
    // ------------------------------------------------------------ end to end
    e2e("setup_s", "s", Lower, 0.25),
    e2e("factor_user_s", "s", Lower, 0.25),
    e2e("factor_mem_mb", "MB", Lower, 0.15),
    e2e("solve_w1_ms", "ms", Lower, 0.25),
    e2e("solve_cols_per_s", "cols/s", Higher, 0.25),
    e2e("req_p50_ms", "ms", Lower, 0.25),
    e2e("req_p90_ms", "ms", Lower, 0.25),
    e2e("req_per_s", "req/s", Higher, 0.25),
    // ------------------------------------------------------------------ core
    layer("core.residual", "relative", Lower),
    layer("core.factor_wall_s", "s", Lower),
    layer("core.factor_sys_s", "s", Lower),
    layer("core.factor_minor_faults", "count", Lower),
    layer("core.wall_over_user", "ratio", Lower),
    layer("core.cold_factor_user_s", "s", Lower),
    layer("core.cold_factor_sys_s", "s", Lower),
    layer("core.cold_minor_faults", "count", Lower),
    layer("core.peak_rss_mb", "MB", Lower),
    layer("core.max_rank", "count", Lower),
    layer("core.root_dim", "count", Lower),
    layer("core.cap_hits", "count", Lower),
    layer("core.recovery_events", "count", Lower),
    layer("core.construction_gflop", "gflop", Lower),
    layer("core.factor_gflop", "gflop", Lower),
    layer("core.gflops_rate", "gflop/s", Higher),
    layer("core.pct_gemm_peak", "%", Higher),
    layer("core.class_fill_s", "s", Lower),
    layer("core.class_basis_s", "s", Lower),
    layer("core.class_coupling_s", "s", Lower),
    layer("core.class_transform_s", "s", Lower),
    layer("core.class_pivot_s", "s", Lower),
    layer("core.class_schur_s", "s", Lower),
    layer("core.class_merge_s", "s", Lower),
    layer("core.class_map_s", "s", Lower),
    layer("core.class_root_s", "s", Lower),
    traced("core.vsolve_w1_ms", "ms", Lower),
    traced("core.vsolve_w32_ms", "ms", Lower),
    traced("core.refine_share", "ratio", Lower),
    traced("core.solve_gflop", "gflop", Lower),
    traced("core.scaling_exponent", "exponent", Lower),
    traced("core.speedup_vs_blr", "ratio", Higher),
    // ---------------------------------------------------------------- server
    layer("server.mean_batch_width", "cols", Higher),
    layer("server.widest_batch", "cols", Higher),
    layer("server.cache_hits", "count", Higher),
    layer("server.cache_misses", "count", Lower),
    layer("server.rejected", "count", Lower),
    layer("server.cold_first_request_s", "s", Lower),
    layer("server.generator_late_max_ms", "ms", Lower),
    traced("server.overhead_ms", "ms", Lower),
    // ---------------------------------------------------------------- matrix
    layer("matrix.gemm_f64_gflops", "gflop/s", Higher),
    traced("matrix.gemm_f32_gflops", "gflop/s", Higher),
    traced("matrix.gemm_leaf_gflops", "gflop/s", Higher),
    traced("matrix.gemm_colwise_gflops", "gflop/s", Higher),
    traced("matrix.pivoted_qr_gflops", "gflop/s", Higher),
    traced("matrix.lu_gflops", "gflop/s", Higher),
    // --------------------------------------------------------------- lowrank
    traced("lowrank.srft_f32_ms", "ms", Lower),
    traced("lowrank.srft_f64_ms", "ms", Lower),
    traced("lowrank.direct_qr_ms", "ms", Lower),
    traced("lowrank.detected_rank", "count", Lower),
    // -------------------------------------------------------------- geometry
    traced("geometry.tree_build_ms", "ms", Lower),
    traced("geometry.laplace_mentries_per_s", "Mentries/s", Higher),
    traced("geometry.yukawa_mentries_per_s", "Mentries/s", Higher),
    // --------------------------------------------------------------- hmatrix
    traced("hmatrix.partition_build_ms", "ms", Lower),
    traced("hmatrix.h2_build_s", "s", Lower),
    traced("hmatrix.h2_matvec_ms", "ms", Lower),
    traced("hmatrix.h2_storage_mb", "MB", Lower),
    traced("hmatrix.dense_blocks", "count", Lower),
    traced("hmatrix.admissible_blocks", "count", Higher),
    // --------------------------------------------------------------- runtime
    traced("runtime.task_overhead_chain_us", "us", Lower),
    traced("runtime.task_overhead_fanout_us", "us", Lower),
    traced("runtime.speedup_2t", "ratio", Higher),
    // ----------------------------------------------------------------- bench
    layer("bench.setup_wall_s", "s", Lower),
    layer("bench.timed_wall_s", "s", Lower),
    traced("bench.spans", "count", Lower),
    traced("bench.trace_overhead_pct", "%", Lower),
];

/// Look a metric up by name.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// One measured value, with the order statistics behind it where it has any.
struct Value {
    def: &'static MetricDef,
    value: f64,
    detail: Option<String>,
}

/// Everything one run of one workload produced.
pub struct Results {
    values: Vec<Value>,
    /// Operations attempted: factorizations, solves, requests, checks.
    pub attempted: u64,
    /// Typed errors, refusals, answers over the residual ceiling, mismatches.
    pub failed: u64,
    failures: Vec<String>,
}

impl Results {
    pub fn new() -> Results {
        Results {
            values: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Record a metric.  Panics on a name missing from [`METRICS`] or recorded
    /// twice: both are bugs in the benchmark, not outcomes of a run.
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_detail(name, value, None);
    }

    /// Record a timing's median (times `scale`) with its quartiles, minimum
    /// and sample count.
    pub fn put_summary(&mut self, name: &str, samples: &[f64], scale: f64) {
        match Summary::of(samples) {
            Some(s) => self.put_detail(name, s.median * scale, Some(s.display(scale))),
            None => self.put(name, f64::NAN),
        }
    }

    fn put_detail(&mut self, name: &str, value: f64, detail: Option<String>) {
        let def = metric(name).unwrap_or_else(|| panic!("metric {name} is not in METRICS"));
        assert!(
            !self.values.iter().any(|v| v.def.name == name),
            "metric {name} recorded twice"
        );
        self.values.push(Value { def, value, detail });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|v| v.def.name == name)
            .map(|v| v.value)
    }

    /// Count one attempted operation; a failed one is described in the report.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(what) = outcome {
            self.failed += 1;
            self.failures.push(what);
        }
    }

    /// A run is correct when no operation failed and every metric it owes is
    /// present and finite.
    pub fn correct(&self, traced: bool) -> bool {
        self.failed == 0 && self.missing(traced).is_empty()
    }

    /// Metrics this run owes (by mode) but did not record as a finite number.
    pub fn missing(&self, traced: bool) -> Vec<&'static str> {
        METRICS
            .iter()
            .filter(|m| traced || m.kind != Kind::Traced)
            .filter(|m| !self.get(m.name).is_some_and(f64::is_finite))
            .map(|m| m.name)
            .collect()
    }

    /// Human-readable report: every metric by name with its unit.
    pub fn print(&self, workload: &str) {
        for v in &self.values {
            let class = match v.def.kind {
                Kind::EndToEnd { .. } => "e2e  ",
                Kind::Layer | Kind::Traced => "layer",
            };
            let detail = v
                .detail
                .as_ref()
                .map_or(String::new(), |d| format!("   {d}"));
            println!(
                "{class} {workload:<16} {:<34} {:>14} {:<10}{detail}",
                v.def.name,
                format_value(v.value),
                v.def.unit
            );
        }
        for f in &self.failures {
            println!("FAILED {workload}: {f}");
        }
    }

    /// The contract's result line: the end-to-end metrics of an untraced run,
    /// the per-layer metrics of a traced one.
    pub fn json_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .filter(|v| matches!(v.def.kind, Kind::EndToEnd { .. }) != traced)
            .map(|v| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    v.def.name,
                    json_number(v.value),
                    v.def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(traced),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() < 1e-3 || v.abs() >= 1e7) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// A JSON number with all the digits measured (`null` for a non-finite value).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Read `"name": {"value": X` out of a result line printed by [`Results::json_line`].
pub fn parse_metric(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(METRICS[..i].iter().all(|o| o.name != m.name), "{}", m.name);
            if let Kind::EndToEnd { bound } = m.kind {
                assert!(bound > 0.0 && bound <= 0.25);
            }
        }
        assert_eq!(metric("setup_s").unwrap().unit, "s");
    }

    #[test]
    fn result_line_round_trips_and_splits_by_mode() {
        let mut r = Results::new();
        r.put("setup_s", 0.0123456789);
        r.put_summary("solve_w1_ms", &[0.001, 0.003, 0.002], 1e3);
        r.put("core.max_rank", 166.0);
        r.op(Ok(()));
        let untraced = r.json_line(false);
        assert_eq!(parse_metric(&untraced, "setup_s"), Some(0.0123456789));
        assert_eq!(parse_metric(&untraced, "solve_w1_ms"), Some(2.0));
        assert_eq!(parse_metric(&untraced, "core.max_rank"), None);
        assert!(untraced.contains("\"attempted\": 1, \"failed\": 0"));
        let traced = r.json_line(true);
        assert_eq!(parse_metric(&traced, "core.max_rank"), Some(166.0));
        assert_eq!(parse_metric(&traced, "setup_s"), None);
        // Most metrics are missing, so the run is not correct.
        assert!(untraced.starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut r = Results::new();
        for m in METRICS {
            r.put(m.name, 1.0);
        }
        r.op(Ok(()));
        assert!(r.correct(true) && r.correct(false));
        r.op(Err("residual 2e-3 over ceiling 1e-4".into()));
        assert!(!r.correct(false));
        assert_eq!((r.attempted, r.failed), (2, 1));
    }
}
