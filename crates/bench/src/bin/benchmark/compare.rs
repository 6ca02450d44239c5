//! `benchmark compare PARENT.jsonl CHANGE.jsonl`: the regression and
//! gain rule, applied to two sets of runs with the bounds BENCHMARK.json
//! fixes.
//!
//! Records are paired in file order per workload (run them
//! alternately). For each workload × end-to-end metric:
//! * a median worse than the parent's by more than the bound is a
//!   regression;
//! * otherwise, a run-to-run spread (IQR over median, either side)
//!   wider than the bound is unresolved — unless every change run reads
//!   better than every parent run;
//! * a gain needs at least 10 pairs, a win in at least 9 of 10 (ties
//!   count for neither), and a median gap larger than the parent's IQR.
//!
//! Deterministic counts and `result_fnv` must be identical between
//! records of the same workload and seed; any difference is flagged.

use crate::stats::{median, quartiles};
use crate::WORKLOADS;
use smtsim_core::json::{parse_json, JsonValue};
use std::process::ExitCode;

/// The benchmark declaration at the repository root.
pub const BENCHMARK_JSON: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");

/// An end-to-end metric's declaration.
struct Declared {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// One untraced run's record.
struct Run {
    workload: String,
    seed: u64,
    ops: u64,
    failed: u64,
    fnv: String,
    metrics: Vec<(String, f64)>,
    counts: Vec<(String, f64)>,
}

fn pairs_of(v: &JsonValue, key: &str) -> Vec<(String, f64)> {
    match v.get(key) {
        Some(JsonValue::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => Vec::new(),
    }
}

fn read_runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for line in text.lines() {
        let Ok(v) = parse_json(line) else { continue };
        if v.get("benchmark").and_then(JsonValue::as_str) != Some("smtsim")
            || v.get("trace").and_then(JsonValue::as_bool) != Some(false)
        {
            continue;
        }
        runs.push(Run {
            workload: v.req_str("workload")?.to_string(),
            seed: v.req_u64("seed")?,
            ops: v.req_u64("ops")?,
            failed: v.req_u64("ops_failed")?,
            fnv: v.req_str("result_fnv")?.to_string(),
            metrics: pairs_of(&v, "metrics"),
            counts: pairs_of(&v, "counts"),
        });
    }
    Ok(runs)
}

fn read_declared() -> Result<Vec<Declared>, String> {
    let text =
        std::fs::read_to_string(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let v = parse_json(&text)?;
    v.req_arr("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Declared {
                name: m.req_str("name")?.to_string(),
                unit: m.req_str("unit")?.to_string(),
                lower_is_better: m.req_str("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(JsonValue::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// How a change compares on one workload × metric.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Regressed,
    Unresolved,
    Gain,
    WithinBound,
}

/// Apply the rule to paired `parent`/`change` values (same length).
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let (pm, cm) = (median(parent), median(change));
    let (pq1, pq3) = quartiles(parent);
    let (cq1, cq3) = quartiles(change);
    let worse_by = if lower_is_better { cm - pm } else { pm - cm } / pm;
    let spread = ((pq3 - pq1) / pm).max((cq3 - cq1) / cm);
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better(c, p))
        .count();
    let pairs = parent.len().min(change.len());
    if worse_by > bound {
        Verdict::Regressed
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else if pairs >= 10 && wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > pq3 - pq1
    {
        Verdict::Gain
    } else {
        Verdict::WithinBound
    }
}

fn value(run: &Run, name: &str) -> Option<f64> {
    run.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

/// `benchmark compare PARENT.jsonl CHANGE.jsonl`.
pub fn main(args: &[String]) -> ExitCode {
    let [parent, change] = args else {
        eprintln!("usage: benchmark compare PARENT.jsonl CHANGE.jsonl");
        return ExitCode::from(2);
    };
    let loaded = read_declared().and_then(|d| Ok((d, read_runs(parent)?, read_runs(change)?)));
    let (declared, parent, change) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut bad = false;
    println!(
        "{:<13} {:<12} {:>5} {:>26} {:>26} {:>8} {:>6} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "parent median [q1,q3]",
        "change median [q1,q3]",
        "delta",
        "bound",
        "wins"
    );
    for workload in WORKLOADS {
        let p: Vec<&Run> = parent.iter().filter(|r| r.workload == workload).collect();
        let c: Vec<&Run> = change.iter().filter(|r| r.workload == workload).collect();
        if p.is_empty() || c.is_empty() {
            continue;
        }
        let n = p.len().min(c.len());
        for d in &declared {
            let (Some(pv), Some(cv)) = (
                p[..n]
                    .iter()
                    .map(|r| value(r, &d.name))
                    .collect::<Option<Vec<f64>>>(),
                c[..n]
                    .iter()
                    .map(|r| value(r, &d.name))
                    .collect::<Option<Vec<f64>>>(),
            ) else {
                println!("{workload:<13} {:<12} missing in some run", d.name);
                bad = true;
                continue;
            };
            let v = verdict(&pv, &cv, d.lower_is_better, d.bound);
            bad |= v == Verdict::Regressed;
            let better = |a: f64, b: f64| if d.lower_is_better { a < b } else { a > b };
            let wins = pv.iter().zip(&cv).filter(|(&p, &c)| better(c, p)).count();
            let show = |xs: &[f64]| {
                let (q1, q3) = quartiles(xs);
                format!("{:.4} [{:.4},{:.4}]", median(xs), q1, q3)
            };
            println!(
                "{workload:<13} {:<12} {:>5} {:>26} {:>26} {:>+7.2}% {:>5.0}% {:>3}/{:<2}  {v:?}",
                d.name,
                d.unit,
                show(&pv),
                show(&cv),
                (median(&cv) / median(&pv) - 1.0) * 100.0,
                d.bound * 100.0,
                wins,
                n,
            );
        }
        let share = |runs: &[&Run]| {
            let ops: u64 = runs.iter().map(|r| r.ops).sum();
            runs.iter().map(|r| r.failed).sum::<u64>() as f64 / ops.max(1) as f64
        };
        println!(
            "{workload:<13} ops_failed share: parent {:.4}, change {:.4}",
            share(&p),
            share(&c)
        );
        for cr in &c {
            for pr in p.iter().filter(|pr| pr.seed == cr.seed) {
                if pr.fnv != cr.fnv {
                    println!(
                        "{workload:<13} seed {}: result_fnv differs ({} vs {})",
                        cr.seed, pr.fnv, cr.fnv
                    );
                    bad = true;
                }
                for (name, pval) in &pr.counts {
                    let cval = cr.counts.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
                    if cval != Some(*pval) {
                        println!(
                            "{workload:<13} seed {}: {name} differs ({pval} vs {cval:?})",
                            cr.seed
                        );
                        bad = true;
                    }
                }
            }
        }
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let same = parent.clone();
        assert_eq!(verdict(&parent, &same, true, 0.1), Verdict::WithinBound);
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&parent, &slower, true, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&parent, &slower, false, 0.1), Verdict::Gain);
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.95).collect();
        assert_eq!(verdict(&parent, &faster, true, 0.1), Verdict::Gain);
        assert_eq!(
            verdict(&parent[..9], &faster[..9], true, 0.1),
            Verdict::WithinBound,
            "9 pairs are too few"
        );
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 70.0 } else { 130.0 })
            .collect();
        assert_eq!(verdict(&parent, &noisy, true, 0.1), Verdict::Unresolved);
    }
}
