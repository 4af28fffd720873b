//! The timing core: process CPU accounting from `/proc`, order statistics, and
//! the in-memory span recorder.
//!
//! Everything here observes the process from outside the library crates — no
//! timer or counter lives in the code being measured.

use std::fmt::Write as _;
use std::time::Instant;

// ------------------------------------------------------------ /proc readers

/// Process-wide accounting from `/proc/self/stat` (all threads, live and dead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStat {
    /// User-mode CPU time in clock ticks.
    pub utime_ticks: u64,
    /// Kernel-mode CPU time in clock ticks.
    pub stime_ticks: u64,
    /// Minor page faults (no disk I/O).
    pub minflt: u64,
}

/// Parse one `/proc/<pid>/stat` line.  The second field (`comm`) is the
/// executable name in parentheses and may itself contain spaces and `)`, so
/// the numeric fields are located after the **last** `)`.
pub fn parse_stat(line: &str) -> Option<ProcStat> {
    let rest = &line[line.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); minflt, utime and stime are fields
    // 10, 14 and 15 of proc(5).
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let field = |number: usize| fields.get(number - 3)?.parse::<u64>().ok();
    Some(ProcStat {
        minflt: field(10)?,
        utime_ticks: field(14)?,
        stime_ticks: field(15)?,
    })
}

/// Read this process's accounting; zeros where `/proc` is not available.
pub fn proc_stat() -> ProcStat {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or_default()
}

/// Parse the `AT_CLKTCK` entry (the unit of `utime`/`stime`) out of a raw
/// `/proc/self/auxv` image: native-endian `(key, value)` word pairs.
pub fn parse_clk_tck(auxv: &[u8]) -> Option<u64> {
    const AT_CLKTCK: u64 = 17;
    const WORD: usize = std::mem::size_of::<usize>();
    let word = |b: &[u8]| -> u64 {
        let mut w = [0u8; 8];
        w[..WORD].copy_from_slice(b);
        u64::from_ne_bytes(w)
    };
    auxv.chunks_exact(2 * WORD)
        .map(|pair| (word(&pair[..WORD]), word(&pair[WORD..])))
        .find(|&(key, _)| key == AT_CLKTCK)
        .map(|(_, value)| value)
        .filter(|&v| v > 0)
}

/// Clock ticks per second of `utime`/`stime` (100 on every Linux this has run
/// on; read from the aux vector rather than assumed).
pub fn ticks_per_second() -> f64 {
    std::fs::read("/proc/self/auxv")
        .ok()
        .and_then(|b| parse_clk_tck(&b))
        .unwrap_or(100) as f64
}

/// Parse the peak resident set size (`VmHWM`, kB) out of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process in MB; 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .unwrap_or(0) as f64
        / 1e3
}

// ------------------------------------------------------------------- clock

/// What one call cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// User-mode CPU seconds of the whole process.
    pub user_s: f64,
    /// Kernel-mode CPU seconds of the whole process.
    pub sys_s: f64,
    /// Minor page faults.
    pub minflt: u64,
    /// Flops counted by `h2_matrix` (process-global counter).
    pub flops: u64,
}

/// Reads wall time, `/proc/self/stat` and the library's public flop counter.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    ticks_per_second: f64,
}

impl Clock {
    pub fn new() -> Clock {
        Clock {
            ticks_per_second: ticks_per_second(),
        }
    }

    /// Run `op` once and return its result with what it cost.
    pub fn time<T>(&self, op: impl FnOnce() -> T) -> (T, Cost) {
        let (wall, stat, flops) = (Instant::now(), proc_stat(), h2_matrix::flop_count());
        let out = op();
        let wall_s = wall.elapsed().as_secs_f64();
        let end = proc_stat();
        let seconds = |from: u64, to: u64| to.saturating_sub(from) as f64 / self.ticks_per_second;
        let cost = Cost {
            wall_s,
            user_s: seconds(stat.utime_ticks, end.utime_ticks),
            sys_s: seconds(stat.stime_ticks, end.stime_ticks),
            minflt: end.minflt.saturating_sub(stat.minflt),
            flops: h2_matrix::flop_count().saturating_sub(flops),
        };
        (out, cost)
    }
}

/// Wall seconds of each of `reps` calls of `op`, after `warmup` discarded calls.
pub fn wall_samples(warmup: usize, reps: usize, mut op: impl FnMut()) -> Vec<f64> {
    for _ in 0..warmup {
        op();
    }
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            op();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

// -------------------------------------------------------------- statistics

/// Order statistics of a sample: every timing is reported through this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted_copy(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

impl Summary {
    /// Summary of a non-empty sample; `None` when it is empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let s = sorted_copy(samples);
        Some(Summary {
            count: s.len(),
            min: s[0],
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
        })
    }

    /// `median [q1, q3] min (n=count)` scaled by `scale`, for the report.
    pub fn display(&self, scale: f64) -> String {
        format!(
            "{:.4} [{:.4}, {:.4}] min {:.4} (n={})",
            self.median * scale,
            self.q1 * scale,
            self.q3 * scale,
            self.min * scale,
            self.count
        )
    }
}

/// Median of a sample; `NaN` when it is empty.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(f64::NAN, |s| s.median)
}

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile (`p` in `(0, 1)`), or `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond it — a tail estimated from fewer is noise.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted_copy(samples)[rank - 1])
}

/// Least-squares slope of `ln y` against `ln x`: the empirical complexity
/// exponent (1.0 is the paper's O(N)).
pub fn fit_exponent(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let lx: Vec<f64> = xs.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|v| v.ln()).collect();
    let (sx, sy) = (lx.iter().sum::<f64>(), ly.iter().sum::<f64>());
    let sxx: f64 = lx.iter().map(|v| v * v).sum();
    let sxy: f64 = lx.iter().zip(&ly).map(|(a, b)| a * b).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

// ------------------------------------------------------------------- spans

/// One recorded boundary call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub user_ticks: u64,
    pub sys_ticks: u64,
    pub minflt: u64,
    pub flops: u64,
    /// Extra `"key": value` pairs (a server request's `due_ns`, `submitted_ns`).
    pub extra: Vec<(&'static str, u64)>,
}

/// Handle of an open span; close it with [`Recorder::end`].
pub struct Open {
    id: usize,
    stat: ProcStat,
    flops: u64,
}

/// In-memory span recorder.  Spans opened on the recording thread nest through
/// a stack; spans observed elsewhere (server requests) are pushed whole.
/// Disabled (the untraced run) it records nothing and reads no clock.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds from the recorder's origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            user_ticks: 0,
            sys_ticks: 0,
            minflt: 0,
            flops: 0,
            extra: Vec::new(),
        });
        self.stack.push(id);
        Some(Open {
            id,
            stat: proc_stat(),
            flops: h2_matrix::flop_count(),
        })
    }

    /// Close a span opened by [`Recorder::begin`].
    pub fn end(&mut self, open: Option<Open>) {
        let Some(open) = open else { return };
        let end_ns = self.ns(Instant::now());
        let stat = proc_stat();
        let span = &mut self.spans[open.id];
        span.end_ns = end_ns;
        span.user_ticks = stat.utime_ticks.saturating_sub(open.stat.utime_ticks);
        span.sys_ticks = stat.stime_ticks.saturating_sub(open.stat.stime_ticks);
        span.minflt = stat.minflt.saturating_sub(open.stat.minflt);
        span.flops = h2_matrix::flop_count().saturating_sub(open.flops);
        self.stack.retain(|&id| id != open.id);
    }

    /// Record `op` as one span.
    pub fn span<T>(&mut self, name: &'static str, op: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = op();
        self.end(open);
        out
    }

    /// Record a span observed on another thread, as a child of the innermost
    /// open span.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        extra: Vec<(&'static str, u64)>,
    ) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            user_ticks: 0,
            sys_ticks: 0,
            minflt: 0,
            flops: 0,
            extra,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall seconds of every closed span called `name`.
    pub fn wall_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover (children may overlap one another, as concurrent
/// server requests do, so the covered part is the union of their intervals).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = std::mem::take(&mut children[s.id]);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(covered)
        })
        .collect()
}

/// The spans as a JSON array, one object per span, with `self_ns` derived.
pub fn spans_json(workload: &str, spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans);
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"id\": {}, \"parent\": {}, \"workload\": \"{}\", \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"user_ticks\": {}, \
             \"sys_ticks\": {}, \"minflt\": {}, \"flops\": {}",
            s.id,
            parent,
            workload,
            s.name,
            s.start_ns,
            s.end_ns,
            self_ns[i],
            s.user_ticks,
            s.sys_ticks,
            s.minflt,
            s.flops
        );
        for (key, value) in &s.extra {
            let _ = write!(out, ", \"{key}\": {value}");
        }
        out.push_str(if i + 1 < spans.len() { "},\n" } else { "}\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_comm() {
        // comm = "a) b (c" — spaces and parentheses inside the name.
        let line = "4242 (a) b (c) R 1 4242 4242 0 -1 4194304 1234 0 7 0 \
                    321 45 0 0 20 0 3 0 100 1000000 500 18446744073709551615";
        assert_eq!(
            parse_stat(line),
            Some(ProcStat {
                minflt: 1234,
                utime_ticks: 321,
                stime_ticks: 45
            })
        );
        assert_eq!(parse_stat("no parenthesis here"), None);
        assert_eq!(parse_stat("1 (x) R 1 2"), None);
    }

    #[test]
    fn proc_readers_work_on_this_host() {
        let before = proc_stat();
        let mut acc = 0u64;
        for i in 0..40_000_000u64 {
            acc = acc.wrapping_add(std::hint::black_box(i) * i);
        }
        std::hint::black_box(acc);
        let after = proc_stat();
        assert!(after.utime_ticks >= before.utime_ticks);
        assert!(ticks_per_second() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn auxv_and_status_parsers() {
        let mut auxv = Vec::new();
        for (k, v) in [(6usize, 4096usize), (17, 100), (0, 0)] {
            auxv.extend_from_slice(&k.to_ne_bytes());
            auxv.extend_from_slice(&v.to_ne_bytes());
        }
        assert_eq!(parse_clk_tck(&auxv), Some(100));
        assert_eq!(parse_clk_tck(&auxv[..16]), None);
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5120));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
    }

    #[test]
    fn quartiles_and_median() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.count, s.min), (5, 1.0));
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        let even = Summary::of(&[4.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!((even.q1, even.median, even.q3), (1.75, 2.5, 3.25));
        assert_eq!(Summary::of(&[7.0]).unwrap().median, 7.0);
        assert!(Summary::of(&[]).is_none());
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=600).map(f64::from).collect();
        // 600 samples: p95 is rank 570 with 30 beyond; p99 has only 6 beyond.
        assert_eq!(percentile(&v, 0.95), Some(570.0));
        assert_eq!(percentile(&v, 0.99), None);
        let v200: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v200, 0.95), Some(190.0));
        assert_eq!(percentile(&v200[..199], 0.95), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn exponent_fit_recovers_known_slopes() {
        let xs = [1024.0, 2048.0, 4096.0];
        let lin: Vec<f64> = xs.iter().map(|x| 3.0 * x).collect();
        let quad: Vec<f64> = xs.iter().map(|x| 0.5 * x * x).collect();
        assert!((fit_exponent(&xs, &lin) - 1.0).abs() < 1e-12);
        assert!((fit_exponent(&xs, &quad) - 2.0).abs() < 1e-12);
    }

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            user_ticks: 0,
            sys_ticks: 0,
            minflt: 0,
            flops: 0,
            extra: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            // Overlaps span 1 and runs past it: union with it is [10, 50).
            span(2, Some(0), 20, 50),
            // Grandchild: counts against span 2 only.
            span(3, Some(2), 25, 45),
            // Sticks out of the parent: only [90, 100) is covered.
            span(4, Some(0), 90, 120),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20, 30]);
    }

    #[test]
    fn recorder_nests_and_dumps_json() {
        let mut rec = Recorder::new(true);
        let outer = rec.begin("outer");
        rec.span("inner", || std::hint::black_box(1 + 1));
        let t = Instant::now();
        rec.push("pushed", t, t, vec![("due_ns", 7)]);
        rec.end(outer);
        rec.span("sibling", || ());
        let parents: Vec<_> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(rec.wall_of("inner").len(), 1);
        let json = spans_json("w", rec.spans());
        assert_eq!(json.matches("\"workload\": \"w\"").count(), 4);
        assert!(json.contains("\"due_ns\": 7"));

        let mut off = Recorder::new(false);
        assert_eq!(off.span("x", || 3), 3);
        assert!(off.spans().is_empty());
    }
}
