//! Runs the real `bench` binary at `--smoke` sizes (n = 256/512, seconds) and
//! holds it to `/BENCHMARK.json`: every metric the file names is emitted
//! exactly once, well-formed and finite, and nothing else is emitted.

use std::collections::BTreeMap;
use std::process::{Command, Output};

// ------------------------------------------------------- a small JSON reader

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys in document order, duplicates kept (the tests look for them).
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {:?} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not used in these files");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap()
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                while self.peek() != b'}' {
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(fields)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",]} \n\r\t".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).unwrap() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    number => Json::Num(number.parse().unwrap_or_else(|_| panic!("{number:?}"))),
                }
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing bytes after the JSON value");
    v
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key:?}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

// ----------------------------------------------------------------- helpers

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(list: &Json) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for m in list.items() {
        let previous = map.insert(
            m.get("name").str().to_string(),
            m.get("unit").str().to_string(),
        );
        assert!(
            previous.is_none(),
            "{} is declared twice",
            m.get("name").str()
        );
    }
    map
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        // Must be scrubbed by the benchmark, not obeyed by the library.
        .env("H2_NUM_THREADS", "7")
        .output()
        .expect("the bench binary runs")
}

/// The last line of a run's standard output, parsed.
fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse(stdout.lines().last().expect("a result line"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// One smoke run of `workload`; asserts its result line carries exactly the
/// metrics of `expected`, each once, finite, with the declared unit.
fn run_and_check(workload: &str, traced: bool, expected: &BTreeMap<String, String>) {
    let trace = if traced { "1" } else { "0" };
    let out = bench(&[
        "--workload",
        workload,
        "--smoke",
        "--seconds",
        "4",
        "--seed",
        "3",
        "--trace",
        trace,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}"
    );
    let line = result_line(&out);
    assert_eq!(line.get("correct"), &Json::Bool(true), "{stdout}");
    assert!(line.get("attempted").num() >= 1.0);
    assert_eq!(line.get("failed").num(), 0.0);
    let Json::Obj(metrics) = line.get("metrics") else {
        panic!("metrics is not an object")
    };
    let mut seen = BTreeMap::new();
    for (name, m) in metrics {
        assert!(well_formed(name), "{name:?}");
        assert!(m.get("value").num().is_finite(), "{name} is not finite");
        let previous = seen.insert(name.clone(), m.get("unit").str().to_string());
        assert!(previous.is_none(), "{workload}: {name} is emitted twice");
    }
    assert_eq!(
        &seen, expected,
        "{workload} trace={trace}: emitted (left) vs BENCHMARK.json (right)"
    );
    // The human-readable report names every metric once too, whatever the mode.
    for name in expected.keys() {
        let needle = format!(" {name} ");
        assert_eq!(
            stdout.lines().filter(|l| l.contains(&needle)).count(),
            1,
            "{workload}: {name} in the report"
        );
    }
}

// ------------------------------------------------------------------- tests

#[test]
fn benchmark_json_matches_the_contract_shape() {
    let b = benchmark_json();
    let Json::Obj(fields) = &b else { panic!() };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(b.get("paths").items(), [Json::Str("perfbench".into())]);
    let seconds = b.get("run_seconds").num();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    let workloads = b.get("workloads").items();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert!(well_formed(w.get("name").str()));
        let why = w.get("why").str();
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    let e2e = b.get("end_to_end").items();
    assert!((1..=16).contains(&e2e.len()));
    for m in e2e {
        assert!(well_formed(m.get("name").str()));
        let bound = m.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25, "{}", m.get("name").str());
        assert!(["lower", "higher"].contains(&m.get("better").str()));
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s");
    assert_eq!(
        (setup.get("unit").str(), setup.get("better").str()),
        ("s", "lower")
    );
    let largest = e2e.iter().map(|m| m.get("bound").num()).fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").num(),
        largest,
        "setup_s has the largest bound"
    );
    assert!((1..=128).contains(&b.get("per_layer").items().len()));
    for m in b.get("per_layer").items() {
        assert!(well_formed(m.get("name").str()));
        assert!(m.get("unit").str().len() <= 16);
    }
    let both: Vec<&str> = e2e
        .iter()
        .chain(b.get("per_layer").items())
        .map(|m| m.get("name").str())
        .collect();
    let unique: std::collections::BTreeSet<&str> = both.iter().copied().collect();
    assert_eq!(both.len(), unique.len(), "a metric name is used twice");
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let b = benchmark_json();
    let e2e = declared(b.get("end_to_end"));
    let per_layer = declared(b.get("per_layer"));
    for w in b.get("workloads").items() {
        let name = w.get("name").str();
        run_and_check(name, false, &e2e);
        run_and_check(name, true, &per_layer);
    }
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    // Counts that depend only on the inputs repeat exactly; another seed moves them.
    let counts = |seed: &str| {
        let out = bench(&[
            "--workload",
            "cube2k",
            "--smoke",
            "--seconds",
            "2",
            "--seed",
            seed,
            "--trace",
            "1",
        ]);
        let line = result_line(&out);
        let m = line.get("metrics");
        [
            "core.factor_gflop",
            "core.construction_gflop",
            "core.residual",
        ]
        .map(|name| m.get(name).get("value").num())
    };
    let first = counts("11");
    assert_eq!(first, counts("11"));
    assert_ne!(first, counts("12"));
}

#[test]
fn a_tightened_ceiling_fails_the_run() {
    let out = bench(&[
        "--workload",
        "cube2k",
        "--smoke",
        "--seconds",
        "2",
        "--ceiling-scale",
        "1e-12",
    ]);
    assert!(
        !out.status.success(),
        "a residual over its ceiling must fail the run"
    );
    let line = result_line(&out);
    assert_eq!(line.get("correct"), &Json::Bool(false));
    assert!(line.get("failed").num() > 0.0);
    assert!(line.get("failed").num() < line.get("attempted").num());
    assert!(String::from_utf8_lossy(&out.stdout).contains("over ceiling"));
}

#[test]
fn the_full_driver_runs_every_workload_in_its_own_process() {
    let spans = std::env::temp_dir().join(format!("perfbench-spans-{}.json", std::process::id()));
    let spans_arg = spans.to_str().unwrap();
    let out = bench(&[
        "--smoke",
        "--seconds",
        "2",
        "--trace",
        "1",
        "--spans",
        spans_arg,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for w in benchmark_json().get("workloads").items() {
        let name = w.get("name").str();
        assert!(
            stdout.contains(&format!("workload={name} ")),
            "{name} did not run"
        );
        let path = format!("{spans_arg}.{name}");
        let dumped = parse(&std::fs::read_to_string(&path).expect("a spans file per workload"));
        let names: Vec<&str> = dumped.items().iter().map(|s| s.get("name").str()).collect();
        for expected in [
            "workload",
            "setup",
            "geometry.tree",
            "hmatrix.partition",
            "core.factorize",
            "core.vsolve_refined",
            "core.residual_sampled",
            "server.request",
            "matrix.gemm_leaf",
        ] {
            assert!(names.contains(&expected), "{name}: no {expected} span");
        }
        let request = dumped
            .items()
            .iter()
            .find(|s| s.get("name").str() == "server.request")
            .unwrap();
        assert!(request.get("due_ns").num() <= request.get("end_ns").num());
        assert!(dumped
            .items()
            .iter()
            .all(|s| s.get("workload").str() == name));
        std::fs::remove_file(&path).unwrap();
    }
    assert_eq!(
        stdout
            .lines()
            .filter(|l| l.starts_with("{\"correct\": true"))
            .count(),
        4
    );
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "-1"],
        &["--frobnicate"],
    ] {
        let out = bench(args);
        assert!(!out.status.success());
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
