//! Fairness study (extension): the paper frames FLUSH as a
//! "throughput-oriented" mechanism — what do the policies do to
//! *balanced* progress? Compares raw IPC, harmonic-mean IPC and the
//! min/max fairness index, plus per-thread speedups over ICOUNT.
//!
//! ```text
//! cargo run --release --example fairness_study [WORKLOAD] [CYCLES] [--fidelity mem=fast]
//! ```

use mflush::prelude::*;
use mflush::sim::report::bar_chart;
use mflush::sim::{run_sweep_ok, SweepJob};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let fidelity = Fidelity::extract_from_args(&mut args).unwrap_or_else(|e| {
        eprintln!("bad value for --fidelity: {e}");
        std::process::exit(2);
    });
    let workload = args.first().map(String::as_str).unwrap_or("4W3");
    let cycles: u64 = args.get(1).and_then(|c| c.parse().ok()).unwrap_or(100_000);
    let w = Workload::by_name(workload).expect("workload name like 4W3");

    let policies = [
        PolicyKind::Icount,
        PolicyKind::Dcra,
        PolicyKind::StallSpec(30),
        PolicyKind::FlushSpec(30),
        PolicyKind::FlushSpec(100),
        PolicyKind::Mflush,
    ];
    let jobs: Vec<SweepJob> = policies
        .iter()
        .map(|p| {
            SweepJob::new(
                p.label(),
                SimConfig::for_workload(w, *p)
                    .with_cycles(cycles)
                    .with_fidelity(fidelity),
            )
        })
        .collect();
    let results = run_sweep_ok(&jobs, 0);
    let baseline = &results[0].1;

    println!("{} for {cycles} cycles — throughput vs fairness\n", w.name);
    println!(
        "{:<12}{:>10}{:>12}{:>12}",
        "policy", "IPC", "hmean IPC", "min/max"
    );
    for (label, r) in &results {
        println!(
            "{label:<12}{:>10.4}{:>12.4}{:>12.3}",
            r.throughput(),
            r.hmean_ipc(),
            r.fairness_index()
        );
    }

    println!("\nPer-thread speedups over ICOUNT:");
    for (label, r) in results.iter().skip(1) {
        let sp = r.per_thread_speedup(baseline);
        let names = w.benchmark_names();
        println!("  {label}:");
        let rows: Vec<(&str, f64)> = names.iter().zip(&sp).map(|(n, &s)| (*n, s)).collect();
        print!(
            "{}",
            bar_chart(&rows, 40)
                .lines()
                .map(|l| format!("    {l}\n"))
                .collect::<String>()
        );
    }
    println!(
        "\nReading: FLUSH-style policies buy total throughput by squashing\n\
         the memory-bound threads; the harmonic mean and the per-thread\n\
         bars show who pays for the speedup."
    );
}
