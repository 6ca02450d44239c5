//! Energy deep-dive: where do flushed instructions die in the pipeline,
//! and what does that cost? (The machinery behind Figs. 9–11.)
//!
//! ```text
//! cargo run --release --example energy_study [WORKLOAD] [CYCLES]
//! ```

use mflush::energy::{accumulated_factor, ALL_STAGES};
use mflush::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = args.first().map(String::as_str).unwrap_or("8W1");
    let cycles: u64 = args.get(1).and_then(|c| c.parse().ok()).unwrap_or(100_000);
    let w = Workload::by_name(workload).expect("workload name like 8W1");

    println!("Energy Consumption Factor (paper Fig. 10):");
    print!("{}", mflush::energy::report::ecf_table());
    println!();

    for policy in [
        PolicyKind::FlushSpec(30),
        PolicyKind::FlushSpec(100),
        PolicyKind::Mflush,
    ] {
        let cfg = SimConfig::for_workload(w, policy).with_cycles(cycles);
        let r = Simulator::build(&cfg)
            .expect("paper workload configs are valid")
            .run()
            .expect("paper workloads make forward progress");
        let e = r.energy();
        println!(
            "== {} on {} — {} flushes, {} instructions refetched ==",
            policy.label(),
            w.name,
            r.total_flushes(),
            e.flush_squashed_total()
        );
        let by_stage = e.flush_squashed_by_stage();
        for stage in ALL_STAGES {
            let n = by_stage[stage.index()];
            if n > 0 {
                println!(
                    "  squashed after {:<10} {:>8} instrs × {:.2} eu = {:>10.1} eu",
                    stage.name(),
                    n,
                    accumulated_factor(stage),
                    n as f64 * accumulated_factor(stage)
                );
            }
        }
        println!(
            "  total wasted {:.1} eu on {:.0} eu useful (ratio {:.4}), throughput {:.4} IPC\n",
            e.wasted_energy(),
            e.useful_energy(),
            e.waste_ratio(),
            r.throughput()
        );
    }
}
