//! `benchmark` — the simulator's one benchmark: end-to-end host-time
//! metrics on three workloads, plus a traced run that attributes host
//! time to the simulator's layers. README.md defines every workload and
//! metric.
//!
//! ```text
//! benchmark [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
//! benchmark compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! With `--workload`, one run prints two lines: a full record (every
//! metric, the deterministic simulated counts, a digest of all results)
//! and, last, `{"correct","attempted","failed","metrics"}` holding the
//! end-to-end metrics, or the per-layer ones with `--trace 1`. Without
//! `--workload`, each workload runs in a child process of its own, so
//! `peak_rss_mb` is per workload, and the full records are printed.

mod compare;
mod serve_figures;
mod sims;
mod stats;
mod traced;

use sims::{SimSize, TracedPass};
use smtsim_core::json::JsonObject;
use smtsim_core::{SimConfig, ToJson, Workload};
use smtsim_policy::PolicyKind;
use stats::{calibrate, now, percentile, secs_since, self_secs, TimerCost};
use std::process::ExitCode;

/// The workloads, in run order.
pub const WORKLOADS: [&str; 3] = ["paper-sweep", "long-latency", "serve-figures"];

/// End-to-end metrics (name, unit), as declared in BENCHMARK.json.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("sim_mips", "M/s"),
    ("sim_mcps", "M/s"),
    ("op_geomean_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), as declared in BENCHMARK.json.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("cpu.tick_calls", "count"),
    ("cpu.self_s", "s"),
    ("cpu.ns_per_instr", "ns"),
    ("trace.calls", "count"),
    ("trace.self_s", "s"),
    ("trace.ns_per_call", "ns"),
    ("policy.calls", "count"),
    ("policy.self_s", "s"),
    ("policy.ns_per_call", "ns"),
    ("mem.tick_calls", "count"),
    ("mem.self_s", "s"),
    ("mem.ns_per_cycle", "ns"),
    ("core.sim_cycles", "count"),
    ("core.skipped_cycles", "count"),
    ("core.skip_fraction", "ratio"),
    ("core.build_s", "s"),
    ("core.prewarm_s", "s"),
    ("core.snapshot_s", "s"),
    ("core.json_s", "s"),
    ("bench.timer_ns", "ns"),
    ("bench.trace_overhead", "ratio"),
    ("cpu.committed", "count"),
    ("cpu.fetched", "count"),
    ("cpu.useful_fetch_ratio", "ratio"),
    ("cpu.rob_full_stalls", "count"),
    ("cpu.iq_full_stalls", "count"),
    ("cpu.mshr_retries", "count"),
    ("policy.flushes", "count"),
    ("policy.stalls", "count"),
    ("mem.l1d_misses", "count"),
    ("mem.l2_misses", "count"),
    ("mem.l2_hit_rate", "ratio"),
    ("mem.mshr_full_stalls", "count"),
    ("energy.waste_ratio", "ratio"),
];

/// An untraced run makes at least this many passes, so every operation
/// has several repeats to take the best of and set-up several samples.
pub const MIN_PASSES: usize = 5;

/// The CLI's and the golden fixtures' seed.
const DEFAULT_SEED: u64 = 0x5eed;

/// Default measuring time, seconds (BENCHMARK.json's `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;

/// How big every workload is.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// The simulation workloads.
    pub sim: SimSize,
    /// Cycles per serve-figures simulation.
    pub serve_cycles: u64,
}

impl Size {
    /// The benchmark's size.
    pub const FULL: Size = Size {
        sim: SimSize::FULL,
        serve_cycles: serve_figures::FULL_CYCLES,
    };
}

/// A metric as measured: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: sim jobs and HTTP requests.
    pub ops: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failures, for stderr.
    pub failures: Vec<String>,
    /// Passes over the workload's operation list.
    pub passes: usize,
    /// Host-time metrics.
    pub metrics: Vec<Metric>,
    /// Deterministic simulated counts.
    pub counts: Vec<Metric>,
    /// FNV-1a of every result body of one pass, in order.
    pub result_fnv: u64,
    /// The clock's own cost, when this run is traced.
    pub timer: Option<TimerCost>,
}

impl Report {
    /// Count a failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(msg);
        }
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Record percentile `p` of ascending `sorted`, unless too few
    /// samples lie beyond it.
    pub fn percentile(&mut self, name: &'static str, sorted: &[f64], p: f64, unit: &'static str) {
        if let Some(v) = percentile(sorted, p) {
            self.metric(name, v, unit);
        }
    }

    /// A metric or count by name.
    pub fn value_of(&self, name: &str) -> Option<Metric> {
        self.metrics
            .iter()
            .chain(&self.counts)
            .find(|m| m.0 == name)
            .copied()
    }
}

/// Run `pass` repeatedly: at least `min` times, then until `seconds`
/// have passed or the next pass would overrun them. Returns the count.
pub fn run_passes(
    seconds: f64,
    min: usize,
    mut pass: impl FnMut() -> Result<(), String>,
) -> Result<usize, String> {
    let start = now();
    let mut n = 0;
    loop {
        let t = now();
        pass()?;
        n += 1;
        if n >= min && secs_since(start) + secs_since(t) > seconds {
            return Ok(n);
        }
    }
}

/// The per-layer host-time metrics of `t`, per pass. Self times have
/// the calibrated timer cost subtracted; `cpu` excludes the `trace` and
/// `policy` spans nested inside it.
pub fn layer_metrics(t: &TracedPass, report: &mut Report) {
    let Some(cost) = report.timer else { return };
    let n = report.passes.max(1) as f64;
    let l = &t.layers;
    let committed: u64 = t.results.iter().map(|r| r.total_committed()).sum();
    let cpu_s = self_secs(l.cpu, &[l.trace, l.policy], cost) / n;
    let trace_s = self_secs(l.trace, &[], cost) / n;
    let policy_s = self_secs(l.policy, &[], cost) / n;
    let mem_s = self_secs(l.mem, &[], cost) / n;
    let ns_each = |secs: f64, count: f64| secs * 1e9 / count.max(1.0);
    let calls = |s: stats::Span| s.calls as f64 / n;
    let metrics: [Metric; 21] = [
        ("cpu.tick_calls", calls(l.cpu), "count"),
        ("cpu.self_s", cpu_s, "s"),
        ("cpu.ns_per_instr", ns_each(cpu_s, committed as f64), "ns"),
        ("trace.calls", calls(l.trace), "count"),
        ("trace.self_s", trace_s, "s"),
        ("trace.ns_per_call", ns_each(trace_s, calls(l.trace)), "ns"),
        ("policy.calls", calls(l.policy), "count"),
        ("policy.self_s", policy_s, "s"),
        (
            "policy.ns_per_call",
            ns_each(policy_s, calls(l.policy)),
            "ns",
        ),
        ("mem.tick_calls", calls(l.mem), "count"),
        ("mem.self_s", mem_s, "s"),
        ("mem.ns_per_cycle", ns_each(mem_s, calls(l.mem)), "ns"),
        ("core.sim_cycles", t.cycles as f64 / n, "count"),
        ("core.skipped_cycles", t.skipped as f64 / n, "count"),
        (
            "core.skip_fraction",
            t.skipped as f64 / t.cycles.max(1) as f64,
            "ratio",
        ),
        ("core.build_s", l.build_s / n, "s"),
        ("core.prewarm_s", l.prewarm_s / n, "s"),
        ("core.snapshot_s", l.snapshot_s / n, "s"),
        ("core.json_s", l.json_s / n, "s"),
        ("bench.timer_ns", cost.full_ns, "ns"),
        (
            "bench.trace_overhead",
            (l.loop_s + l.prewarm_s) / t.untraced_step_s,
            "ratio",
        ),
    ];
    report.metrics.extend(metrics);
}

/// One untimed 10k-cycle job, so lazy host-side set-up (page faults,
/// allocator growth, trace dictionaries) is done before timing.
fn warm_up(seed: u64) -> Result<(), String> {
    let w = Workload::by_name("2W2").expect("2W2 is a paper workload");
    let cfg = SimConfig::for_workload(w, PolicyKind::Mflush)
        .with_cycles(10_000)
        .with_seed(seed);
    sims::run_job(&cfg).map(|_| ())
}

/// Run one workload and return what it measured.
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
) -> Result<Report, String> {
    let mut report = Report {
        timer: trace.then(|| calibrate(traced::empty_span_ns)),
        ..Report::default()
    };
    warm_up(seed)?;
    match workload {
        "paper-sweep" => sims::run(
            &sims::paper_sweep(seed, size.sim),
            seconds,
            trace,
            &mut report,
        )?,
        "long-latency" => sims::run(
            &sims::long_latency(seed, size.sim),
            seconds,
            trace,
            &mut report,
        )?,
        "serve-figures" => {
            serve_figures::run(seed, size.serve_cycles, seconds, trace, &mut report)?
        }
        other => return Err(format!("unknown workload {other}")),
    }
    if !trace {
        let rss = stats::peak_rss_mb().ok_or("peak RSS needs /proc/self/status (Linux)")?;
        report.metric("peak_rss_mb", rss, "MB");
    }
    Ok(report)
}

/// `{"name":{"value":v,"unit":u},...}`
struct MetricMap<'a>(&'a [(&'a str, f64, &'a str)]);

struct Valued<'a>(f64, &'a str);

impl ToJson for Valued<'_> {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        o.field("value", &self.0).field("unit", &self.1);
        o.end();
    }
}

impl ToJson for MetricMap<'_> {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        for &(name, value, unit) in self.0 {
            o.field(name, &Valued(value, unit));
        }
        o.end();
    }
}

/// The full record of one run: what `benchmark compare` reads.
fn record_line(r: &Report, workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::new();
    let mut o = JsonObject::begin(&mut out);
    o.field("benchmark", &"smtsim")
        .field("workload", &workload)
        .field("seed", &seed)
        .field("trace", &trace)
        .field("seconds", &seconds)
        .field("nproc", &nproc)
        .field("passes", &r.passes)
        .field("ops", &r.ops)
        .field("ops_failed", &r.failed)
        .field("result_fnv", &format!("{:016x}", r.result_fnv))
        .field("metrics", &MetricMap(&r.metrics))
        .field("counts", &MetricMap(&r.counts));
    o.end();
    out
}

/// The last line: the declared metrics of this kind of run. A declared
/// metric that the run could not measure makes the run incorrect.
fn result_line(r: &Report, trace: bool) -> String {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut missing = Vec::new();
    let mut picked = Vec::new();
    for &(name, unit) in declared {
        match r.value_of(name) {
            Some((_, value, _)) if value.is_finite() => picked.push((name, value, unit)),
            _ => missing.push(name),
        }
    }
    if !missing.is_empty() {
        eprintln!("error: no value for {}", missing.join(", "));
    }
    let mut out = String::new();
    let mut o = JsonObject::begin(&mut out);
    o.field(
        "correct",
        &(r.failed == 0 && r.ops > 0 && missing.is_empty()),
    )
    .field("attempted", &r.ops)
    .field("failed", &r.failed)
    .field("metrics", &MetricMap(&picked));
    o.end();
    out
}

/// Run every workload, each in a child process of this binary, and
/// print the full records.
fn run_all(seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        for traced in [false, true].into_iter().filter(|&t| !t || trace) {
            let out = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output();
            let stdout = match out {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                Ok(o) => {
                    eprintln!("error: {workload} exited with {}", o.status);
                    ok = false;
                    continue;
                }
                Err(e) => {
                    eprintln!("error: cannot run {workload}: {e}");
                    ok = false;
                    continue;
                }
            };
            let lines: Vec<&str> = stdout.lines().collect();
            if let Some(record) = lines.first() {
                println!("{record}");
            }
            ok &= lines.last().is_some_and(|l| l.contains("\"correct\":true"));
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

const USAGE: &str = "usage: benchmark [--workload paper-sweep|long-latency|serve-figures] \
[--seed S] [--seconds T] [--trace [0|1]]\n       benchmark compare PARENT.jsonl CHANGE.jsonl";

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Malloc arenas a run may use: one per server worker.
///
/// glibc's allocator gives each new thread an arena of its own, up to
/// eight per core. serve-figures starts five threads per pass, and how
/// much of each arena they touch depends on scheduling: with the
/// default, its peak RSS moved between 26 and 34 MB over identical runs.
/// With 2 arenas it stays near 18 MB. One arena would be steadier
/// still, but the two simulating workers then wait on each other's
/// allocations, which cost serve-figures about 7% of its speed.
const MALLOC_ARENAS: &str = "2";

/// Unless `MALLOC_ARENA_MAX` is already set, run a copy of this process
/// with it set to [`MALLOC_ARENAS`], wait for it, and return its exit
/// status. glibc reads the variable only at start-up.
fn with_bounded_arenas() -> Option<ExitCode> {
    const VAR: &str = "MALLOC_ARENA_MAX";
    if std::env::var_os(VAR).is_some() {
        return None;
    }
    let status = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env(VAR, MALLOC_ARENAS)
            .status()
    });
    Some(match status {
        Ok(s) => s
            .code()
            .and_then(|c| u8::try_from(c).ok())
            .map_or(ExitCode::FAILURE, ExitCode::from),
        Err(e) => {
            eprintln!("error: cannot re-run with {VAR}={MALLOC_ARENAS}: {e}");
            ExitCode::FAILURE
        }
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--trace" => {
                trace = match it.next_if(|v| *v == "0" || *v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--workload" | "--seed" | "--seconds" => {
                let Some(value) = it.next() else {
                    return usage(&format!("{flag} needs a value"));
                };
                match flag.as_str() {
                    "--workload" => match WORKLOADS.iter().find(|w| *w == value) {
                        Some(w) => workload = Some(*w),
                        None => return usage(&format!("unknown workload {value}")),
                    },
                    "--seed" => match parse_seed(value) {
                        Some(s) => seed = s,
                        None => return usage(&format!("bad seed {value}")),
                    },
                    _ => match value.parse::<f64>() {
                        Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                        _ => return usage(&format!("bad --seconds {value}")),
                    },
                }
            }
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    if let Some(code) = with_bounded_arenas() {
        return code;
    }
    let Some(workload) = workload else {
        return run_all(seed, seconds, trace);
    };
    match run_workload(workload, seed, seconds, trace, Size::FULL) {
        Ok(report) => {
            for f in &report.failures {
                eprintln!("failed: {f}");
            }
            println!("{}", record_line(&report, workload, seed, seconds, trace));
            println!("{}", result_line(&report, trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root, which must declare exactly
    /// the metrics this binary reports.
    fn declared() -> smtsim_core::json::JsonValue {
        let text = std::fs::read_to_string(compare::BENCHMARK_JSON).expect("BENCHMARK.json");
        smtsim_core::json::parse_json(&text).expect("BENCHMARK.json parses")
    }

    fn names(v: &smtsim_core::json::JsonValue, key: &str) -> Vec<(String, String)> {
        v.req_arr(key)
            .expect(key)
            .iter()
            .map(|m| {
                (
                    m.req_str("name").expect("name").to_string(),
                    m.req_str("unit").unwrap_or("").to_string(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let v = declared();
        assert_eq!(names(&v, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names(&v, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = names(&v, "workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    /// Every workload at a fiftieth of its size: no operation fails,
    /// every declared metric is reported, and the traced driver's
    /// results are byte-identical to `Simulator::run`'s on every job.
    #[test]
    fn smoke_every_workload() {
        let size = Size {
            sim: SimSize::SMOKE,
            serve_cycles: serve_figures::SMOKE_CYCLES,
        };
        for workload in WORKLOADS {
            for trace in [false, true] {
                let r = run_workload(workload, DEFAULT_SEED, 0.01, trace, size).expect(workload);
                assert_eq!(r.failed, 0, "{workload} trace={trace}: {:?}", r.failures);
                assert!(r.ops > 0);
                let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                for (name, unit) in declared {
                    let m = r.value_of(name);
                    assert!(
                        m.is_some_and(|m| m.2 == *unit && m.1.is_finite()),
                        "{workload} trace={trace}: {name} is {m:?}"
                    );
                }
            }
        }
    }

    /// The traced driver reproduces `Simulator::run` byte for byte for
    /// every Fig. 8 policy, on the paper machine and with slow DRAM.
    #[test]
    fn traced_driver_is_byte_identical() {
        let w = Workload::by_name("4W3").unwrap();
        for dram in [250, sims::LONG_DRAM_CYCLES] {
            for policy in PolicyKind::fig8_set() {
                let mut cfg = SimConfig::for_workload(w, policy).with_cycles(5_000);
                cfg.mem.dram_cycles = dram;
                let untraced = smtsim_core::Simulator::build(&cfg).unwrap().run().unwrap();
                let (json, times) = traced::run_traced(&cfg).unwrap();
                assert_eq!(
                    json,
                    untraced.to_json(),
                    "{} at DRAM {dram}",
                    policy.label()
                );
                assert_eq!(times.mem.calls, 5_000);
                assert_eq!(times.cpu.calls, 5_000 * 2);
                assert!(times.trace.calls > 0 && times.policy.calls > 0);
            }
        }
    }
}
