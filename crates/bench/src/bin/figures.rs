//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p smtsim-bench --bin figures -- all
//! cargo run --release -p smtsim-bench --bin figures -- fig8 --cycles 300000
//! cargo run --release -p smtsim-bench --bin figures -- all --journal out/figures.jsonl
//! cargo run --release -p smtsim-bench --bin figures -- ablations --cycles 40000
//! ```
//!
//! The requested figures are planned first: their jobs are collected,
//! deduplicated by config fingerprint and run as one sweep, so a config
//! that recurs across figures is simulated once and workers stay busy
//! across figure boundaries. Each figure then renders from its results.
//!
//! With `--journal FILE`, the sweep records finished jobs in FILE (the
//! same format as `smtsim sweep --journal FILE`). Re-running after an
//! interruption replays the recorded jobs and produces byte-identical
//! figures.
//!
//! `extensions` and `ablations` go beyond the paper and are not part of
//! `all`. A bad flag value or an unknown name exits 2 with a usage line.

use smtsim_bench::{select, Plan, FIGURES};
use smtsim_core::run_sweep_journaled;
use smtsim_core::suggest::did_you_mean;
use std::path::PathBuf;
use std::str::FromStr;

fn usage() -> ! {
    eprintln!(
        "usage: figures [all|fig1..fig11|extensions|ablations]... \
         [--cycles N] [--workers N] [--journal FILE]"
    );
    std::process::exit(2);
}

/// Parse the value following `flag`, or exit 2.
fn value<T: FromStr>(flag: &str, v: Option<&String>) -> T {
    v.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("bad or missing value for {flag}");
        usage()
    })
}

fn main() {
    // Every name `figures` accepts.
    let names: Vec<&str> = std::iter::once("all")
        .chain(FIGURES.iter().map(|f| f.name))
        .collect();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<&str> = Vec::new();
    let mut cycles = 0u64;
    let mut workers = 0usize;
    let mut journal: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cycles" => cycles = value("--cycles", it.next()),
            "--workers" => workers = value("--workers", it.next()),
            "--journal" => journal = Some(value("--journal", it.next())),
            name if names.contains(&name) => which.push(name),
            other => {
                match did_you_mean(other, &names) {
                    Some(s) => eprintln!("unknown figure '{other}' (did you mean '{s}'?)"),
                    None => eprintln!("unknown figure '{other}'"),
                }
                usage();
            }
        }
    }
    if journal.as_deref().is_some_and(|p| p.is_dir()) {
        eprintln!("--journal takes a file, not a directory");
        usage();
    }
    if which.is_empty() {
        which.push("all");
    }

    let plan = Plan::new(&select(&which), cycles);
    // A failed job is fatal: a partial figure is worse than none.
    let results: Vec<_> = run_sweep_journaled(&plan.unique, workers, journal.as_deref())
        .into_iter()
        .map(|(label, r)| r.unwrap_or_else(|e| panic!("figure sweep job '{label}' failed: {e}")))
        .collect();
    for text in plan.render(&results) {
        println!("{text}");
    }
}
