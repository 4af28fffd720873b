//! `bench` — the repository's one benchmark.
//!
//! ```text
//! bench --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--spans FILE] [--smoke]
//! bench [--seed S] [--seconds T] [--trace 0|1] [--spans FILE] [--smoke] [--repeat K]
//! ```
//!
//! With `--workload` the process runs that workload once, prints every metric
//! by name with its unit, and ends with one JSON result line (the contract of
//! `/BENCHMARK.json`).  Without it the process re-executes itself once per
//! workload — allocator state and resident memory never leak from one workload
//! into the next — and prints a summary; `--repeat 2` runs the whole set twice
//! and fails if any end-to-end median moves by more than its bound.
//!
//! See `README.md` beside this crate for the protocol and the metric tables.

mod probes;
mod report;
mod timing;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use report::{Better, Kind, METRICS};
use workloads::{RunConfig, RUN_SECONDS, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans: Option<String>,
    smoke: bool,
    repeat: usize,
    ceiling_scale: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        spans: None,
        smoke: false,
        repeat: 1,
        ceiling_scale: 1.0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = num(flag, value()?)?,
            "--seconds" => args.seconds = num(flag, value()?)?,
            "--trace" => args.traced = num::<u8>(flag, value()?)? != 0,
            "--spans" => args.spans = Some(value()?.clone()),
            "--repeat" => args.repeat = num(flag, value()?)?,
            // Test hook: shows the residual ceilings are live (see bench_smoke.rs).
            "--ceiling-scale" => args.ceiling_scale = num(flag, value()?)?,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if args.spans.is_some() && !args.traced {
        return Err("--spans needs --trace 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    // The library reads H2_* variables mid-computation; none may reach it.
    // Nothing else is running yet, so removing them here is race-free.
    let inherited: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("H2_"))
        .collect();
    for key in &inherited {
        std::env::remove_var(key);
    }
    // Dense kernels on one thread, like the factorization's pool: the load
    // generator and the server worker share this host's two cores with them.
    h2_matrix::kernel::set_thread_cap(1);

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(name, &args, process_start),
        None => run_all(&args),
    }
}

fn print_host() {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host  nproc={nproc} cpu=\"{model}\" compiled-with avx2={} avx512f={} fma={} ticks/s={}",
        cfg!(target_feature = "avx2"),
        cfg!(target_feature = "avx512f"),
        cfg!(target_feature = "fma"),
        timing::ticks_per_second()
    );
}

/// The contract mode: one workload, one result line.
fn run_one(name: &str, args: &Args, process_start: Instant) -> ExitCode {
    let Some(workload) = workloads::find(name) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("bench: unknown workload {name:?}; known: {known:?}");
        return ExitCode::from(2);
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        ceiling_scale: args.ceiling_scale,
    };
    print_host();
    println!(
        "run   workload={name} seed={} seconds={} trace={} smoke={}",
        cfg.seed, cfg.seconds, cfg.traced as u8, cfg.smoke
    );
    let (results, recorder) = workloads::run(workload, cfg, process_start);
    results.print(name);
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, timing::spans_json(name, recorder.spans())) {
            eprintln!("bench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("spans {} written to {path}", recorder.spans().len());
    }
    for missing in results.missing(cfg.traced) {
        println!("FAILED {name}: metric {missing} was not measured");
    }
    println!("{}", results.json_line(cfg.traced));
    if results.correct(cfg.traced) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child process per workload; returns its result line.
fn run_child(workload: &str, args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .args(["--ceiling-scale", &args.ceiling_scale.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = &args.spans {
        cmd.args(["--spans", &format!("{path}.{workload}")]);
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let line = stdout.lines().last().unwrap_or_default().to_string();
    if output.status.success() {
        Ok(line)
    } else {
        Err(format!("{workload} exited with {}", output.status))
    }
}

/// Every workload, `--repeat` times over, each in a fresh process.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    // passes[pass][workload] = result line
    let mut passes: Vec<Vec<Option<String>>> = Vec::new();
    let repeat = args.repeat.max(1);
    for pass in 1..=repeat {
        println!("pass  {pass} of {repeat}");
        let lines = WORKLOADS
            .iter()
            .map(|w| {
                run_child(w.name, args)
                    .map_err(|e| {
                        println!("FAILED {e}");
                        ok = false;
                    })
                    .ok()
            })
            .collect();
        passes.push(lines);
    }
    if passes.len() >= 2 && !args.traced {
        ok &= compare_passes(&passes[0], &passes[1]);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--repeat 2`: per end-to-end metric and workload, both values, how much
/// worse the second is than the first, and the bound; false if any pair
/// disagrees (in either direction) by more than its bound.
fn compare_passes(first: &[Option<String>], second: &[Option<String>]) -> bool {
    let mut ok = true;
    println!(
        "repeat {:<16} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse-by", "bound"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (Some(a), Some(b)) = (&first[i], &second[i]) else {
            continue;
        };
        for m in METRICS {
            let Kind::EndToEnd { bound } = m.kind else {
                continue;
            };
            let (Some(x), Some(y)) = (
                report::parse_metric(a, m.name),
                report::parse_metric(b, m.name),
            ) else {
                println!("FAILED {}: {} missing from a pass", w.name, m.name);
                ok = false;
                continue;
            };
            let worse_by = match m.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let verdict = if worse_by.abs() <= bound {
                ""
            } else {
                "  DISAGREE"
            };
            ok &= verdict.is_empty();
            println!(
                "repeat {:<16} {:<18} {x:>14.5} {y:>14.5} {:>8.1}% {:>6.0}%{verdict}",
                w.name,
                m.name,
                100.0 * worse_by,
                100.0 * bound
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_contracts_arguments_parse() {
        let a = parse_args(&argv("--workload cube2k --seed 7 --seconds 5 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("cube2k"));
        assert_eq!(
            (a.seed, a.seconds, a.traced, a.smoke),
            (7, 5.0, true, false)
        );
        let d = parse_args(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.traced, d.repeat),
            (1, RUN_SECONDS, false, 1)
        );
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
        assert!(parse_args(&argv("--spans x.json")).is_err());
    }

    #[test]
    fn repeat_comparison_applies_the_bound_in_both_directions() {
        let line = |factor: f64, cols: f64| {
            let mut r = report::Results::new();
            for m in METRICS {
                r.put(m.name, 1.0);
            }
            let mut s = r.json_line(false);
            s = s.replace(
                "\"factor_user_s\": {\"value\": 1.0",
                &format!("\"factor_user_s\": {{\"value\": {factor:?}"),
            );
            s.replace(
                "\"solve_cols_per_s\": {\"value\": 1.0",
                &format!("\"solve_cols_per_s\": {{\"value\": {cols:?}"),
            )
        };
        let n = WORKLOADS.len();
        let same = vec![Some(line(1.0, 1.0)); n];
        assert!(compare_passes(&same, &same));
        assert!(compare_passes(&same, &vec![Some(line(1.1, 0.95)); n]));
        assert!(!compare_passes(&same, &vec![Some(line(1.5, 1.0)); n]));
        assert!(!compare_passes(&same, &vec![Some(line(1.0, 0.5)); n]));
        assert!(!compare_passes(&same, &vec![Some(line(0.5, 1.0)); n]));
    }
}
