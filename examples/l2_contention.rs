//! The paper's motivating analysis (Figs. 3–4): watch the shared L2's
//! hit latency lose its predictability as SMT cores are added, and see
//! what that does to a fixed FLUSH trigger.
//!
//! ```text
//! cargo run --release --example l2_contention [CYCLES]
//! ```

use mflush::prelude::*;
use mflush::sim::report::histogram_table;
use mflush::sim::{run_sweep_ok, SweepJob};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cycles: u64 = args.first().and_then(|c| c.parse().ok()).unwrap_or(80_000);

    for size in [2usize, 4, 6, 8] {
        let workloads = Workload::of_size(size);
        let jobs: Vec<SweepJob> = workloads
            .iter()
            .flat_map(|w| {
                [PolicyKind::Icount, PolicyKind::FlushSpec(30)]
                    .into_iter()
                    .map(|p| {
                        SweepJob::new(
                            format!("{}/{}", w.name, p.label()),
                            SimConfig::for_workload(w, p).with_cycles(cycles),
                        )
                    })
            })
            .collect();
        let results = run_sweep_ok(&jobs, 0);

        let mut hist = mflush::mem::LatencyHistogram::for_l2_hit_time();
        let mut ic = 0.0;
        let mut fl = 0.0;
        for (label, r) in &results {
            if label.ends_with("ICOUNT") {
                hist.merge(&r.l2_hit_hist);
                ic += r.throughput() / workloads.len() as f64;
            } else {
                fl += r.throughput() / workloads.len() as f64;
            }
        }
        println!(
            "== {size} threads / {} cores: ICOUNT {ic:.3} IPC, FLUSH-S30 {fl:.3} IPC (ratio {:.3}) ==",
            size / 2,
            fl / ic
        );
        println!("{}", histogram_table(&hist));
    }
    println!(
        "Note how the mean and the spread of the L2-hit time grow with the\n\
         core count — a fixed 30-cycle trigger turns ever more L2 *hits*\n\
         into false misses, eroding FLUSH's single-core advantage. This is\n\
         the unpredictability MFLUSH's per-bank MCReg prediction absorbs."
    );
}
