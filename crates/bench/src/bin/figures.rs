//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p smtsim-bench --bin figures -- all
//! cargo run --release -p smtsim-bench --bin figures -- fig8 --cycles 300000
//! cargo run --release -p smtsim-bench --bin figures -- all --journal out/figures.jsonl
//! cargo run --release -p smtsim-bench --bin figures -- ablations --cycles 40000
//! ```
//!
//! With `--journal FILE`, every figure's sweep records finished jobs in
//! FILE, one result journal shared by all figures (the same format as
//! `smtsim sweep --journal FILE`). Re-running after an interruption
//! replays the recorded jobs and produces byte-identical figures; a
//! config that recurs across figures is simulated once.
//!
//! `extensions` and `ablations` go beyond the paper and are not part of
//! `all`. A bad flag value or an unknown name exits 2 with a usage line.

use smtsim_bench as figs;
use smtsim_core::suggest::did_you_mean;
use std::path::PathBuf;
use std::str::FromStr;

/// Every name `figures` accepts.
const NAMES: &[&str] = &[
    "all",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "extensions",
    "ablations",
];

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
            name if NAMES.contains(&name) => which.push(name),
            other => {
                match did_you_mean(other, NAMES) {
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
    let journal = journal.as_deref();
    if which.is_empty() {
        which.push("all");
    }
    let all = which.contains(&"all");
    let want = |name: &str| all || which.contains(&name);

    if want("fig1") {
        println!("{}", figs::fig1());
    }
    if want("fig2") {
        println!("{}", figs::fig2(cycles, workers, journal).text);
    }
    if want("fig3") {
        println!("{}", figs::fig3(cycles, workers, journal).text);
    }
    if want("fig4") {
        println!("{}", figs::fig4(cycles, workers, journal).text);
    }
    if want("fig5") {
        println!("{}", figs::fig5(cycles, workers, journal).text);
    }
    if want("fig6") {
        println!("{}", figs::fig6());
    }
    if want("fig7") {
        println!("{}", figs::fig7());
    }
    if want("fig8") {
        println!("{}", figs::fig8(cycles, workers, journal).text);
    }
    if want("fig9") {
        println!("{}", figs::fig9());
    }
    if want("fig10") {
        println!("{}", figs::fig10());
    }
    if want("fig11") {
        println!("{}", figs::fig11(cycles, workers, journal).text);
    }
    // Beyond the paper: pass these explicitly (not part of `all`).
    if which.contains(&"extensions") {
        println!("{}", figs::extension_study(cycles, workers, journal).text);
    }
    if which.contains(&"ablations") {
        println!("{}", figs::ablations(cycles, workers, journal).text);
    }
}
