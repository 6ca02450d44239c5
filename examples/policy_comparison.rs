//! Compare every fetch policy on one workload — the experiment behind
//! the paper's Figs. 2/3/8, on demand.
//!
//! ```text
//! cargo run --release --example policy_comparison [WORKLOAD] [CYCLES] [--fidelity mem=fast]
//! ```

use mflush::prelude::*;
use mflush::sim::{run_sweep_ok, SweepJob};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let fidelity = Fidelity::extract_from_args(&mut args).unwrap_or_else(|e| {
        eprintln!("bad value for --fidelity: {e}");
        std::process::exit(2);
    });
    let workload = args.first().map(String::as_str).unwrap_or("8W3");
    let cycles: u64 = args.get(1).and_then(|c| c.parse().ok()).unwrap_or(100_000);

    let w = Workload::by_name(workload).expect("workload name like 8W3");
    let policies = [
        PolicyKind::Icount,
        PolicyKind::Brcount,
        PolicyKind::L1dMissCount,
        PolicyKind::Adts,
        PolicyKind::RoundRobin,
        PolicyKind::Dcra,
        PolicyKind::StallSpec(30),
        PolicyKind::FlushSpec(30),
        PolicyKind::FlushSpec(100),
        PolicyKind::FlushNonSpec,
        PolicyKind::FlushAdaptive,
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

    println!(
        "{} for {cycles} cycles, all policies (parallel sweep, {}):\n",
        w.name,
        fidelity.label()
    );
    let results = run_sweep_ok(&jobs, 0);
    let base = results[0].1.throughput();
    println!(
        "{:<14}{:>10}{:>10}{:>10}{:>14}{:>12}",
        "policy", "IPC", "vs ICOUNT", "flushes", "wasted (eu)", "waste ratio"
    );
    for (label, r) in &results {
        let e = r.energy();
        println!(
            "{label:<14}{:>10.4}{:>10.3}{:>10}{:>14.0}{:>12.4}",
            r.throughput(),
            r.throughput() / base,
            r.total_flushes(),
            e.wasted_energy(),
            e.waste_ratio()
        );
    }
}
