//! Quickstart: simulate one of the paper's workloads under MFLUSH.
//!
//! ```text
//! cargo run --release --example quickstart [WORKLOAD] [CYCLES] [TRACE_FILE] [--fidelity mem=fast]
//! cargo run --release --example quickstart 6W3 200000
//! cargo run --release --example quickstart 8W3 200000 /tmp/8w3.jsonl
//! ```
//!
//! With a third argument the run also records the cycle-level event
//! trace plus interval metric samples (DESIGN.md §12) and writes them
//! as JSONL — see METRICS.md for every metric name.

use mflush::prelude::*;
use mflush::sim::config::{DEFAULT_METRICS_INTERVAL, DEFAULT_TRACE_CAPACITY};
use mflush::sim::obs;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let fidelity = Fidelity::extract_from_args(&mut args).unwrap_or_else(|e| {
        eprintln!("bad value for --fidelity: {e}");
        std::process::exit(2);
    });
    let workload = args.first().map(String::as_str).unwrap_or("4W3");
    let cycles: u64 = args.get(1).and_then(|c| c.parse().ok()).unwrap_or(100_000);
    let trace_file = args.get(2);

    let w = Workload::by_name(workload).unwrap_or_else(|| {
        eprintln!("unknown workload {workload}; use 2W1..8W5");
        std::process::exit(1);
    });

    println!(
        "Running {} ({} threads on {} two-context SMT cores) for {cycles} cycles under MFLUSH\n",
        w.name,
        w.threads(),
        w.cores()
    );

    let cfg = SimConfig::for_workload(w, PolicyKind::Mflush)
        .with_cycles(cycles)
        .with_fidelity(fidelity);
    if fidelity.is_reduced() {
        println!("(reduced fidelity: {})\n", fidelity.label());
    }
    let mut sim = Simulator::build(&cfg).expect("paper workload configs are valid");
    if trace_file.is_some() {
        sim.enable_tracing(DEFAULT_TRACE_CAPACITY);
        sim.enable_metrics(DEFAULT_METRICS_INTERVAL.min(cycles.max(1)));
    }
    sim.step(cycles)
        .expect("paper workloads make forward progress");
    let result = sim.snapshot();

    if let Some(path) = trace_file {
        let jsonl = obs::observability_jsonl(&sim.trace_rows(), sim.metrics_samples());
        std::fs::write(path, &jsonl).expect("write trace file");
        println!(
            "wrote {} trace/metric lines to {path}\n",
            jsonl.lines().count()
        );
    }

    println!("policy            {}", result.policy);
    println!("system throughput {:.4} IPC", result.throughput());
    println!(
        "committed         {} instructions",
        result.total_committed()
    );
    for (i, (name, ipc)) in w
        .benchmark_names()
        .iter()
        .zip(result.per_thread_ipc())
        .enumerate()
    {
        println!("  thread {i} ({name:<8}) IPC {ipc:.4}");
    }
    let e = result.energy();
    println!("flushes           {}", result.total_flushes());
    println!(
        "energy            {:.0} useful + {:.0} wasted units (waste ratio {:.3})",
        e.useful_energy(),
        e.wasted_energy(),
        e.waste_ratio()
    );
    println!(
        "L2 hit time       mean {:.1} cycles over {} hits (p90 {:?})",
        result.l2_hit_hist.mean(),
        result.l2_hit_hist.count(),
        result.l2_hit_hist.percentile(0.9)
    );
}
