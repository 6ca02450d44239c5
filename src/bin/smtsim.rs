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
//! (invalid configuration caught at build time, watchdog-detected
//! livelock, a panicked sweep job, or a non-200 server answer), `2`
//! usage errors — including unknown workload/benchmark/policy names,
//! which come with a "did you mean" suggestion.
//!
//! This binary lives in the root `mflush` package (not a simulator
//! crate) because `serve`/`request` pull in `smtsim-serve`, and lint
//! rule D13 keeps `std::net` out of the simulator crates.

use smtsim_core::calibration::{calibrate, calibration_json, calibration_table};
use smtsim_core::json::{write_escaped, JsonObject};
use smtsim_core::report::{histogram_table, results_csv, throughput_table};
use smtsim_core::suggest::did_you_mean;
use smtsim_core::workloads::{ALL_WORKLOADS, FIG5B_WORKLOAD};
use smtsim_core::{run_sweep_journaled, Fidelity, SimConfig, Simulator, SweepJob, ToJson, Workload};
use smtsim_policy::PolicyKind;
use smtsim_trace::spec;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         smtsim run --workload <xWy> [--policy <p>] [--cycles N] [--seed N] [--json]\n             \
         [--fidelity mem=<detailed|fast>]\n             \
         [--trace-events FILE] [--metrics-interval N] [--trace-format jsonl|chrome]\n  \
         smtsim run --benchmarks a,b,c,d [--policy <p>] [--cycles N] [--json]\n  \
         smtsim sweep --workload <xWy> [--cycles N] [--fidelity ...] [--journal FILE] [--csv | --json]\n  \
         smtsim serve [--addr HOST:PORT] [--cache DIR] [--max-queue N] [--workers N]\n  \
         smtsim request --body JSON [--addr HOST:PORT] [--timeout MS]\n  \
         smtsim calibrate [--cycles N] [--json]\n  \
         smtsim workloads | policies\n\n\
         policies: icount, rr, brcount, l1dmisscount, adts, dcra,\n           \
         stall-sNN, stall-ns, flush-sNN, flush-ns, flush-adapt, mflush"
    );
    std::process::exit(2);
}

// ----------------------------------------------------------------
// "did you mean" support for unknown names
// ----------------------------------------------------------------
// The edit-distance machinery lives in `smtsim_core::suggest` (shared
// with `SimConfig::validate`'s unknown-benchmark hints); the policy
// name table and parser live on `PolicyKind` (shared with the serve
// layer's request validation).

/// Report an unknown name with a typo suggestion and exit 2.
fn unknown_name(kind: &str, input: &str, candidates: &[&str], hint: &str) -> ! {
    match did_you_mean(input, candidates) {
        Some(s) => eprintln!("unknown {kind} '{input}' (did you mean '{s}'?)"),
        None => eprintln!("unknown {kind} '{input}' ({hint})"),
    }
    std::process::exit(2);
}

fn workload_names() -> Vec<&'static str> {
    ALL_WORKLOADS
        .iter()
        .chain([&FIG5B_WORKLOAD])
        .map(|w| w.name)
        .collect()
}

fn benchmark_names() -> Vec<&'static str> {
    spec::ALL_BENCHMARKS.iter().map(|b| b.name).collect()
}

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(args: &[String]) -> Self {
        let mut flags = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = if it
                    .peek()
                    .map(|v| !v.starts_with("--"))
                    .unwrap_or(false)
                {
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

    fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.get(name)
            .map(|v| v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --{name}: {v}");
                usage();
            }))
            .unwrap_or(default)
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }
}

/// Parse `--fidelity mem=fast` (absent → detailed).
/// Unknown components or fidelity names are usage errors: exit 2.
fn parse_fidelity_arg(args: &Args) -> Fidelity {
    match args.get("fidelity") {
        None => Fidelity::detailed(),
        Some(spec) => Fidelity::parse(spec).unwrap_or_else(|e| {
            eprintln!("bad value for --fidelity: {e}");
            std::process::exit(2);
        }),
    }
}

fn build_config(args: &Args, policy: PolicyKind) -> SimConfig {
    let fidelity = parse_fidelity_arg(args);
    if let Some(wl) = args.get("workload") {
        let w = Workload::by_name(wl).unwrap_or_else(|| {
            unknown_name("workload", wl, &workload_names(), "try `smtsim workloads`");
        });
        SimConfig::for_workload(w, policy).with_fidelity(fidelity)
    } else if let Some(list) = args.get("benchmarks") {
        let names: Vec<&str> = list.split(',').collect();
        if !names.len().is_multiple_of(2) {
            eprintln!("need an even number of benchmarks (2 per core)");
            std::process::exit(2);
        }
        for n in &names {
            if spec::benchmark_by_name(n).is_none() {
                unknown_name(
                    "benchmark",
                    n,
                    &benchmark_names(),
                    "see the SPEC2000 names in DESIGN.md §4",
                );
            }
        }
        SimConfig::for_benchmarks(&names, policy).with_fidelity(fidelity)
    } else {
        eprintln!("need --workload or --benchmarks");
        usage();
    }
}

fn parse_policy_arg(args: &Args) -> PolicyKind {
    args.get("policy")
        .map(|p| {
            PolicyKind::parse_name(p).unwrap_or_else(|| {
                unknown_name(
                    "policy",
                    p,
                    &PolicyKind::SUGGESTED_NAMES,
                    "try `smtsim policies`",
                );
            })
        })
        .unwrap_or(PolicyKind::Mflush)
}

fn cmd_run(args: &Args) {
    let policy = parse_policy_arg(args);
    let cfg = build_config(args, policy)
        .with_cycles(args.get_u64("cycles", smtsim_core::config::DEFAULT_CYCLES))
        .with_seed(args.get_u64("seed", 0x5eed))
        .with_watchdog(args.get_u64(
            "watchdog",
            smtsim_core::config::DEFAULT_WATCHDOG,
        ));
    let workload = cfg.benchmarks.join(",");
    let trace_path: Option<PathBuf> = args.get("trace-events").map(PathBuf::from);
    let metrics_interval: Option<u64> = args.has("metrics-interval").then(|| {
        args.get_u64(
            "metrics-interval",
            smtsim_core::config::DEFAULT_METRICS_INTERVAL,
        )
    });
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
    println!("throughput {:.4} IPC ({} committed)", r.throughput(), r.total_committed());
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
    let cycles = args.get_u64("cycles", smtsim_core::config::DEFAULT_CYCLES);
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
    let base = build_config(args, PolicyKind::Icount).with_cycles(cycles);
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
    let max_queue = args.get_u64("max-queue", 16) as usize;
    let workers = args.get_u64("workers", 2) as usize;
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
    let timeout_ms = args.get_u64("timeout", 30_000);
    if let Err(e) = smtsim_serve::cli::request_main(addr, body, timeout_ms) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn cmd_calibrate(args: &Args) {
    let cycles = args.get_u64("cycles", 60_000);
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
    for p in [
        PolicyKind::Icount,
        PolicyKind::RoundRobin,
        PolicyKind::Brcount,
        PolicyKind::L1dMissCount,
        PolicyKind::Adts,
        PolicyKind::Dcra,
        PolicyKind::StallSpec(30),
        PolicyKind::StallNonSpec,
        PolicyKind::FlushSpec(30),
        PolicyKind::FlushSpec(100),
        PolicyKind::FlushNonSpec,
        PolicyKind::FlushAdaptive,
        PolicyKind::Mflush,
    ] {
        println!("{}", p.label());
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    let rest = Args::parse(&argv[1..]);
    match cmd.as_str() {
        "run" => cmd_run(&rest),
        "sweep" => cmd_sweep(&rest),
        "serve" => cmd_serve(&rest),
        "request" => cmd_request(&rest),
        "calibrate" => cmd_calibrate(&rest),
        "workloads" => cmd_workloads(),
        "policies" => cmd_policies(),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suggestions_catch_close_typos() {
        assert_eq!(
            did_you_mean("mflsh", &PolicyKind::SUGGESTED_NAMES),
            Some("mflush")
        );
        assert_eq!(
            did_you_mean("icont", &PolicyKind::SUGGESTED_NAMES),
            Some("icount")
        );
        assert_eq!(
            did_you_mean("FLUSH-NS", &PolicyKind::SUGGESTED_NAMES),
            Some("flush-ns")
        );
        assert_eq!(did_you_mean("8W2", &workload_names()), Some("8W2"));
        assert!(did_you_mean("8w9", &workload_names()).is_some());
        assert_eq!(did_you_mean("mfc", &benchmark_names()), Some("mcf"));
    }

    #[test]
    fn distant_garbage_gets_no_suggestion() {
        assert_eq!(did_you_mean("zzzzzzzzzz", &PolicyKind::SUGGESTED_NAMES), None);
        assert_eq!(did_you_mean("qqqq", &benchmark_names()), None);
    }

    #[test]
    fn policy_parser_accepts_documented_spellings() {
        for name in PolicyKind::SUGGESTED_NAMES {
            assert!(PolicyKind::parse_name(name).is_some(), "{name} should parse");
        }
        assert!(PolicyKind::parse_name("flush-s85").is_some());
        assert!(PolicyKind::parse_name("stall-s120").is_some());
        assert!(PolicyKind::parse_name("flush-sXX").is_none());
        assert!(PolicyKind::parse_name("no-such-policy").is_none());
    }
}
