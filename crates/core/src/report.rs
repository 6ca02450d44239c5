//! Plain-text rendering of results, matching the paper's figures.

use crate::json::JsonObject;
use crate::result::SimResult;
use smtsim_mem::LatencyHistogram;
use std::fmt::Write;

/// Throughput comparison table: one row per workload, one column per
/// policy (the layout of Figs. 2, 3, 5 and 8).
///
/// `rows` maps a workload label to the per-policy results (all rows
/// must share the column order of `columns`).
pub fn throughput_table(columns: &[&str], rows: &[(&str, Vec<&SimResult>)]) -> String {
    let mut s = String::new();
    let _ = write!(s, "{:<18}", "workload");
    for c in columns {
        let _ = write!(s, "{c:>14}");
    }
    let _ = writeln!(s);
    for (label, results) in rows {
        let _ = write!(s, "{label:<18}");
        for r in results {
            let _ = write!(s, "{:>14.4}", r.throughput());
        }
        let _ = writeln!(s);
    }
    s
}

/// Speedup-over-baseline table (first column is the baseline).
pub fn speedup_table(columns: &[&str], rows: &[(&str, Vec<&SimResult>)]) -> String {
    let mut s = String::new();
    let _ = write!(s, "{:<18}", "workload");
    for c in &columns[1..] {
        let _ = write!(s, "{:>14}", format!("{c}/base"));
    }
    let _ = writeln!(s);
    for (label, results) in rows {
        let base = results[0];
        let _ = write!(s, "{label:<18}");
        for r in &results[1..] {
            let _ = write!(s, "{:>14.3}", r.speedup_over(base));
        }
        let _ = writeln!(s);
    }
    s
}

/// CSV export of a result grid (one row per workload×policy) for
/// external plotting: columns are
/// `workload,policy,cycles,committed,ipc,flushes,wasted_energy,waste_ratio,l2_hit_mean`.
pub fn results_csv(rows: &[(&str, Vec<&SimResult>)]) -> String {
    let mut s = String::from(
        "workload,policy,cycles,committed,ipc,flushes,wasted_energy,waste_ratio,l2_hit_mean\n",
    );
    for (label, results) in rows {
        for r in results {
            let e = r.energy();
            let _ = writeln!(
                s,
                "{label},{},{},{},{:.6},{},{:.3},{:.6},{:.3}",
                r.policy,
                r.cycles,
                r.total_committed(),
                r.throughput(),
                r.total_flushes(),
                e.wasted_energy(),
                e.waste_ratio(),
                r.l2_hit_hist.mean(),
            );
        }
    }
    s
}

/// JSON export of a result grid, mirroring [`results_csv`] row-for-row:
/// a flat array of `{"label":...,"result":{...}}` objects, where
/// `result` carries the full [`SimResult`] rendering (per-core stats,
/// memory counters, the Fig. 4 histogram, the energy ledger).
pub fn results_json(rows: &[(&str, Vec<&SimResult>)]) -> String {
    let mut s = String::from("[");
    let mut first = true;
    for (label, results) in rows {
        for r in results {
            if !first {
                s.push(',');
            }
            first = false;
            let mut o = JsonObject::begin(&mut s);
            o.field("label", label).field("result", r);
            o.end();
        }
    }
    s.push(']');
    s
}

/// ASCII horizontal bar chart: one bar per `(label, value)`, scaled to
/// `width` columns at the maximum value. Used by the figure binaries to
/// echo the paper's bar plots in the terminal.
pub fn bar_chart(rows: &[(&str, f64)], width: usize) -> String {
    let mut s = String::new();
    let max = rows.iter().map(|(_, v)| *v).fold(0.0_f64, f64::max);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, v) in rows {
        let filled = if max > 0.0 {
            ((v / max) * width as f64).round() as usize
        } else {
            0
        };
        let _ = writeln!(
            s,
            "{label:<label_w$} {value:>8} |{bar}",
            value = format!("{v:.3}"),
            bar = "█".repeat(filled),
        );
    }
    s
}

/// Histogram rendering (Fig. 4): bins as `start..end: count (pct)`.
pub fn histogram_table(h: &LatencyHistogram) -> String {
    let mut s = String::new();
    let total = h.count().max(1);
    let _ = writeln!(
        s,
        "samples={} mean={:.1} std={:.1} p50={:?} p90={:?}",
        h.count(),
        h.mean(),
        h.std_dev(),
        h.percentile(0.5),
        h.percentile(0.9)
    );
    for (start, count) in h.non_empty_bins() {
        let pct = 100.0 * count as f64 / total as f64;
        let bar = "#".repeat((pct / 2.0).ceil() as usize);
        let _ = writeln!(s, "{start:>5}+ {count:>8} ({pct:5.1}%) {bar}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtsim_cpu::{CoreStats, ThreadStats};
    use smtsim_mem::MemStats;

    fn fake(committed: u64, cycles: u64) -> SimResult {
        SimResult {
            policy: "X".into(),
            workload: vec!["gzip".into()],
            cycles,
            cores: vec![CoreStats {
                threads: vec![ThreadStats {
                    committed,
                    ..Default::default()
                }],
                ..Default::default()
            }],
            mem: MemStats::default(),
            l2_hit_hist: LatencyHistogram::for_l2_hit_time(),
        }
    }

    #[test]
    fn throughput_table_formats() {
        let a = fake(100, 100);
        let b = fake(200, 100);
        let t = throughput_table(&["ICOUNT", "MFLUSH"], &[("2W1", vec![&a, &b])]);
        assert!(t.contains("2W1"));
        assert!(t.contains("1.0000"));
        assert!(t.contains("2.0000"));
    }

    #[test]
    fn speedup_table_uses_first_as_baseline() {
        let a = fake(100, 100);
        let b = fake(150, 100);
        let t = speedup_table(&["ICOUNT", "FLUSH-S30"], &[("2W2", vec![&a, &b])]);
        assert!(t.contains("1.500"));
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let chart = bar_chart(&[("a", 2.0), ("bb", 1.0), ("c", 0.0)], 10);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].matches('█').count(), 10);
        assert_eq!(lines[1].matches('█').count(), 5);
        assert_eq!(lines[2].matches('█').count(), 0);
        assert!(lines[1].starts_with("bb"));
    }

    #[test]
    fn bar_chart_empty_and_zero_safe() {
        assert_eq!(bar_chart(&[], 10), "");
        let chart = bar_chart(&[("x", 0.0)], 10);
        assert!(chart.contains("0.000"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let a = fake(100, 100);
        let b = fake(250, 100);
        let csv = results_csv(&[("2W1", vec![&a, &b])]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("workload,policy,"));
        assert!(lines[1].starts_with("2W1,X,100,100,1.000000,"));
        assert!(lines[2].contains(",250,2.500000,"));
    }

    #[test]
    fn json_grid_is_flat_and_labelled() {
        let a = fake(100, 100);
        let b = fake(250, 100);
        let j = results_json(&[("2W1", vec![&a, &b])]);
        assert!(j.starts_with("[{\"label\":\"2W1\",\"result\":{\"policy\":\"X\""));
        assert_eq!(j.matches("\"label\":\"2W1\"").count(), 2);
        assert!(j.contains("\"throughput\":1.0"));
        assert!(j.contains("\"throughput\":2.5"));
        assert!(j.ends_with("}]"));
    }

    #[test]
    fn histogram_table_prints_bins() {
        let mut h = LatencyHistogram::for_l2_hit_time();
        for _ in 0..10 {
            h.record(22);
        }
        h.record(150);
        let t = histogram_table(&h);
        assert!(t.contains("samples=11"));
        assert!(t.contains("20+"));
        assert!(t.contains("150+"));
    }
}
