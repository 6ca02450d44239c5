//! `smtsim` — command-line front-end to the CMP+SMT simulator.
//!
//! ```text
//! smtsim run --workload 8W3 --policy mflush --cycles 200000
//! smtsim run --workload 8W3 --fidelity mem=fast --json
//! smtsim run --benchmarks mcf,gzip,swim,crafty --policy flush-s50 --json
//! smtsim run --workload 4W3 --policy flush-s30 --trace-events trace.jsonl --metrics-interval 5000
//! smtsim run --workload 4W3 --trace-events trace.json --trace-format chrome
//! smtsim sweep --workload 8W3 --cycles 100000 --csv
//! smtsim sweep --workload 8W3 --cycles 100000 --json --journal sweep.jsonl
//! smtsim serve --addr 127.0.0.1:8080 --cache /tmp/smtsim-cache
//! smtsim request --addr 127.0.0.1:8080 --body '{"workload":"2W2","policy":"mflush"}'
//! smtsim calibrate --cycles 60000 --json
//! smtsim workloads
//! smtsim policies
//! ```
//!
//! Exit codes: `0` success, `1` a simulation or request failed
//! (watchdog-detected livelock, a panicked sweep job, or a non-200
//! server answer), `2` usage errors: a flag the subcommand does not
//! take (with a "did you mean" over its flags) or a repeated flag,
//! `--workload` together with `--benchmarks`, and every run parameter
//! [`smtsim_core::resolve::RunParams`] rejects — unknown
//! workload/benchmark/policy names (with a "did you mean"), a bad
//! `--fidelity`, a benchmark list that does not fill whole cores, or
//! `--cycles 0`.
//!
//! This binary lives in the root `mflush` package (not a simulator
//! crate) because `serve`/`request` pull in `smtsim-serve`, and lint
//! rule D13 keeps `std::net` out of the simulator crates.

use smtsim_core::calibration::{calibrate, calibration_json, calibration_table};
use smtsim_core::json::{write_escaped, JsonObject};
use smtsim_core::report::{histogram_table, results_csv, throughput_table};
use smtsim_core::suggest::did_you_mean;
use smtsim_core::workloads::{ALL_WORKLOADS, FIG5B_WORKLOAD};
use smtsim_core::{run_sweep_journaled, RunParams, SimConfig, Simulator, SweepJob, ToJson};
use smtsim_policy::PolicyKind;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         smtsim run (--workload <xWy> | --benchmarks a,b,c,d) [--policy <p>] [--json]\n             \
         [--cycles N] [--seed N] [--watchdog N] [--fidelity mem=<detailed|fast>]\n             \
         [--trace-events FILE] [--metrics-interval N] [--trace-format jsonl|chrome]\n  \
         smtsim sweep (--workload <xWy> | --benchmarks a,b,c,d) [--cycles N] [--seed N]\n             \
         [--watchdog N] [--fidelity ...] [--journal FILE] [--csv | --json]\n  \
         smtsim serve [--addr HOST:PORT] [--cache DIR] [--max-queue N] [--workers N]\n  \
         smtsim request --body JSON [--addr HOST:PORT] [--timeout MS]\n  \
         smtsim calibrate [--cycles N] [--json]\n  \
         smtsim workloads | policies\n\n\
         policies: icount, rr, brcount, l1dmisscount, adts, dcra,\n           \
         stall-sNN, stall-ns, flush-sNN, flush-ns, flush-adapt, mflush"
    );
    std::process::exit(2);
}

/// Flags each subcommand takes; any other flag is a usage error.
const RUN_FLAGS: &[&str] = &[
    "workload",
    "benchmarks",
    "policy",
    "cycles",
    "seed",
    "watchdog",
    "fidelity",
    "json",
    "trace-events",
    "metrics-interval",
    "trace-format",
];
const SWEEP_FLAGS: &[&str] = &[
    "workload",
    "benchmarks",
    "cycles",
    "seed",
    "watchdog",
    "fidelity",
    "journal",
    "csv",
    "json",
];
const SERVE_FLAGS: &[&str] = &["addr", "cache", "max-queue", "workers"];
const REQUEST_FLAGS: &[&str] = &["body", "addr", "timeout"];
const CALIBRATE_FLAGS: &[&str] = &["cycles", "json"];

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parse `--name [value]` pairs, rejecting a repeated flag and any
    /// flag not in `known`.
    fn parse(cmd: &str, args: &[String], known: &[&str]) -> Self {
        let mut flags = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if !known.contains(&name) {
                    let hint = did_you_mean(name, known)
                        .map(|s| format!(" (did you mean --{s}?)"))
                        .unwrap_or_default();
                    eprintln!("unknown flag --{name} for `smtsim {cmd}`{hint}");
                    usage();
                }
                if flags.iter().any(|(n, _)| n == name) {
                    eprintln!("--{name} given twice");
                    usage();
                }
                let value = if it.peek().map(|v| !v.starts_with("--")).unwrap_or(false) {
                    it.next().unwrap().clone()
                } else {
                    String::from("true")
                };
                flags.push((name.to_string(), value));
            } else {
                eprintln!("unexpected argument {a}");
                usage();
            }
        }
        Args { flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_u64(&self, name: &str) -> Option<u64> {
        self.get(name).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --{name}: {v}");
                usage();
            })
        })
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }
}

/// The run parameters `run` and `sweep` share, as smtsim-core
/// resolves them.
fn run_params(args: &Args) -> RunParams<'_> {
    RunParams {
        workload: args.get("workload"),
        benchmarks: args.get("benchmarks").map(|list| list.split(',').collect()),
        policy: args.get("policy"),
        fidelity: args.get("fidelity"),
        cycles: args.get_u64("cycles"),
        seed: args.get_u64("seed"),
        watchdog: args.get_u64("watchdog"),
    }
}

/// Resolve the run parameters; a rejected one is a usage error.
fn sim_config(args: &Args) -> SimConfig {
    run_params(args).resolve().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn cmd_run(args: &Args) {
    let cfg = sim_config(args);
    let workload = cfg.benchmarks.join(",");
    let trace_path: Option<PathBuf> = args.get("trace-events").map(PathBuf::from);
    let metrics_interval = args.get_u64("metrics-interval");
    if metrics_interval.is_some() && trace_path.is_none() {
        eprintln!("--metrics-interval requires --trace-events");
        usage();
    }
    let trace_format = args.get("trace-format").unwrap_or("jsonl");
    if !matches!(trace_format, "jsonl" | "chrome") {
        eprintln!("bad value for --trace-format: {trace_format} (want jsonl or chrome)");
        usage();
    }
    // Render the trace even when the run fails — a watchdog abort is
    // exactly when the event tail is most interesting.
    let mut trace_out: Option<String> = None;
    let outcome = Simulator::build(&cfg).and_then(|mut s| {
        if trace_path.is_some() {
            s.enable_tracing(smtsim_core::config::DEFAULT_TRACE_CAPACITY);
            if let Some(interval) = metrics_interval {
                s.enable_metrics(interval);
            }
        }
        let stepped = s.step(cfg.cycles);
        if trace_path.is_some() {
            let rows = s.trace_rows();
            let samples = s.metrics_samples();
            trace_out = Some(match trace_format {
                "chrome" => smtsim_core::obs::chrome_trace(&rows, samples),
                _ => smtsim_core::obs::observability_jsonl(&rows, samples),
            });
        }
        stepped.map(|()| s.snapshot())
    });
    if let (Some(path), Some(content)) = (&trace_path, &trace_out) {
        if let Err(e) = std::fs::write(path, content) {
            eprintln!("error writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    let r = match outcome {
        Ok(r) => r,
        Err(e) => {
            if args.has("json") {
                println!("{}", e.to_json());
            } else {
                eprintln!("error: {e}");
            }
            std::process::exit(1);
        }
    };
    if args.has("json") {
        println!("{}", r.to_json());
        return;
    }
    println!("workload   {workload}");
    println!("policy     {}", r.policy);
    println!("cycles     {}", r.cycles);
    println!(
        "throughput {:.4} IPC ({} committed)",
        r.throughput(),
        r.total_committed()
    );
    for (i, ipc) in r.per_thread_ipc().iter().enumerate() {
        println!("  thread {i} ({}) IPC {ipc:.4}", cfg.benchmarks[i]);
    }
    let e = r.energy();
    println!(
        "flushes    {} ({} instructions refetched, {:.1} eu wasted, ratio {:.4})",
        r.total_flushes(),
        e.flush_squashed_total(),
        e.wasted_energy(),
        e.waste_ratio()
    );
    println!("L2 hit time distribution:");
    print!("{}", histogram_table(&r.l2_hit_hist));
}

fn cmd_sweep(args: &Args) {
    let journal: Option<PathBuf> = args.get("journal").map(PathBuf::from);
    let policies = [
        PolicyKind::Icount,
        PolicyKind::FlushSpec(30),
        PolicyKind::FlushSpec(100),
        PolicyKind::FlushNonSpec,
        PolicyKind::StallSpec(30),
        PolicyKind::Mflush,
        PolicyKind::Dcra,
    ];
    let base = sim_config(args);
    let jobs: Vec<SweepJob> = policies
        .iter()
        .map(|p| {
            let mut cfg = base.clone();
            cfg.policy = *p;
            SweepJob::new(p.label(), cfg)
        })
        .collect();
    let out = run_sweep_journaled(&jobs, 0, journal.as_deref());
    let failed = out.iter().filter(|(_, r)| r.is_err()).count();
    let wl = base.benchmarks.join("+");
    if args.has("json") {
        // One self-describing object per job: successes carry
        // "result", failures carry "error" — so one livelocked job
        // never hides the healthy ones.
        let mut s = String::new();
        s.push_str("{\"workload\":");
        write_escaped(&mut s, &wl);
        s.push_str(",\"jobs\":[");
        for (i, (label, r)) in out.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let mut o = JsonObject::begin(&mut s);
            o.field("label", label);
            match r {
                Ok(res) => o.field("result", res),
                Err(e) => o.field("error", e),
            };
            o.end();
        }
        s.push_str("]}");
        println!("{s}");
    } else {
        for (label, r) in &out {
            if let Err(e) = r {
                eprintln!("sweep job '{label}' failed: {e}");
            }
        }
        let ok: Vec<(&str, &smtsim_core::SimResult)> = out
            .iter()
            .filter_map(|(l, r)| r.as_ref().ok().map(|res| (l.as_str(), res)))
            .collect();
        let labels: Vec<&str> = ok.iter().map(|(l, _)| *l).collect();
        let results: Vec<&smtsim_core::SimResult> = ok.iter().map(|(_, r)| *r).collect();
        if args.has("csv") {
            print!("{}", results_csv(&[(wl.as_str(), results)]));
        } else {
            print!("{}", throughput_table(&labels, &[(wl.as_str(), results)]));
        }
    }
    if failed > 0 {
        std::process::exit(1);
    }
}

fn cmd_serve(args: &Args) {
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let max_queue = args.get_u64("max-queue").unwrap_or(16) as usize;
    let workers = args.get_u64("workers").unwrap_or(2) as usize;
    if let Err(e) = smtsim_serve::cli::serve_main(addr, args.get("cache"), max_queue, workers) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn cmd_request(args: &Args) {
    let Some(body) = args.get("body") else {
        eprintln!("need --body '{{\"workload\":...}}'");
        usage();
    };
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080");
    let timeout_ms = args.get_u64("timeout").unwrap_or(30_000);
    if let Err(e) = smtsim_serve::cli::request_main(addr, body, timeout_ms) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn cmd_calibrate(args: &Args) {
    let cycles = args.get_u64("cycles").unwrap_or(60_000);
    let rows = calibrate(cycles, 0);
    if args.has("json") {
        println!("{}", calibration_json(&rows));
    } else {
        print!("{}", calibration_table(&rows));
    }
}

fn cmd_workloads() {
    for w in ALL_WORKLOADS.iter().chain([&FIG5B_WORKLOAD]) {
        println!(
            "{:<16} {} threads / {} cores: {}",
            w.name,
            w.threads(),
            w.cores(),
            w.benchmark_names().join(", ")
        );
    }
}

fn cmd_policies() {
    for p in PolicyKind::listed() {
        println!("{}", p.label());
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    let args = |known| Args::parse(cmd, &argv[1..], known);
    match cmd.as_str() {
        "run" => cmd_run(&args(RUN_FLAGS)),
        "sweep" => cmd_sweep(&args(SWEEP_FLAGS)),
        "serve" => cmd_serve(&args(SERVE_FLAGS)),
        "request" => cmd_request(&args(REQUEST_FLAGS)),
        "calibrate" => cmd_calibrate(&args(CALIBRATE_FLAGS)),
        "workloads" => {
            args(&[]);
            cmd_workloads()
        }
        "policies" => {
            args(&[]);
            cmd_policies()
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `smtsim run` flags → the config `run` would simulate.
    fn resolve(argv: &[&str]) -> Result<SimConfig, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        run_params(&Args::parse("run", &argv, RUN_FLAGS)).resolve()
    }

    #[test]
    fn suggestions_catch_close_typos() {
        assert_eq!(did_you_mean("cycels", RUN_FLAGS), Some("cycles"));
        assert_eq!(did_you_mean("jsno", SWEEP_FLAGS), Some("json"));
        assert_eq!(did_you_mean("max-qeue", SERVE_FLAGS), Some("max-queue"));
        // Names reach smtsim-core's resolver, which adds the hint.
        for (argv, hint) in [
            (
                &["--workload", "2W1", "--policy", "mflsh"][..],
                "did you mean 'mflush'?",
            ),
            (&["--workload", "8W9"], "did you mean '8W"),
            (&["--benchmarks", "mfc,gzip"], "did you mean 'mcf'?"),
        ] {
            let e = resolve(argv).unwrap_err();
            assert!(e.contains(hint), "{argv:?}: {e}");
        }
    }

    #[test]
    fn distant_garbage_gets_no_suggestion() {
        let e = resolve(&["--workload", "2W1", "--policy", "zzzzzzzzzz"]).unwrap_err();
        assert!(
            e.contains("unknown policy") && !e.contains("did you mean"),
            "{e}"
        );
        let e = resolve(&["--benchmarks", "qqqq,gzip"]).unwrap_err();
        assert!(
            e.contains("unknown benchmark") && !e.contains("did you mean"),
            "{e}"
        );
        assert_eq!(did_you_mean("zzzzzzzzzz", RUN_FLAGS), None);
    }

    #[test]
    fn policy_parser_accepts_documented_spellings() {
        for name in PolicyKind::SUGGESTED_NAMES
            .iter()
            .chain(&["flush-s85", "stall-s120"])
        {
            let cfg = resolve(&["--workload", "2W1", "--policy", name])
                .unwrap_or_else(|e| panic!("{name} should parse: {e}"));
            assert_eq!(Some(cfg.policy), PolicyKind::parse_name(name));
        }
        for bad in ["flush-sXX", "no-such-policy"] {
            assert!(
                resolve(&["--workload", "2W1", "--policy", bad]).is_err(),
                "{bad}"
            );
        }
    }
}
