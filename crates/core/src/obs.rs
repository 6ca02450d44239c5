//! Cycle-level observability: trace merging/export and the interval
//! metrics sampler (DESIGN.md §12).
//!
//! The leaf types live in [`smtsim_obs`] (so `smtsim-cpu` and
//! `smtsim-mem` can emit events without depending on the driver); this
//! module owns everything that needs the whole machine or the JSON
//! emitter:
//!
//! * [`collect_rows`] — merge the per-component event rings into one
//!   deterministic stream ordered by `(cycle, rank, seq)`, where rank 0
//!   is the memory system and rank `1 + core_id` is a core;
//! * [`trace_jsonl`] / [`observability_jsonl`] — one JSON object per
//!   line, events interleaved with metric samples by cycle;
//! * [`chrome_trace`] — the same stream as a Chrome `trace_event` JSON
//!   document loadable in `about:tracing` or Perfetto;
//! * [`MetricsRecorder`] — samples every registered metric every `N`
//!   cycles from the live [`SmtCore`]s and [`MemorySystem`];
//! * [`all_metrics`] / [`metrics_markdown`] — the cross-crate registry
//!   and the generator behind METRICS.md.
//!
//! Everything here is driven by simulated time only, so same-seed runs
//! produce byte-identical output (`crates/core/tests/obs_trace.rs`).
//!
//! # Example
//!
//! ```
//! use smtsim_core::{obs, SimConfig, Simulator, Workload};
//! use smtsim_policy::PolicyKind;
//!
//! let cfg = SimConfig::for_workload(
//!     Workload::by_name("4W3").unwrap(),
//!     PolicyKind::FlushSpec(30),
//! )
//! .with_cycles(3_000);
//! let mut sim = Simulator::build(&cfg).unwrap();
//! sim.enable_tracing(smtsim_core::config::DEFAULT_TRACE_CAPACITY);
//! sim.enable_metrics(1_000);
//! sim.step(cfg.cycles).unwrap();
//!
//! let rows = sim.trace_rows();
//! assert!(!rows.is_empty(), "a running machine emits events");
//! let jsonl = obs::observability_jsonl(&rows, sim.metrics_samples());
//! assert!(jsonl.lines().all(|l| l.starts_with("{\"cycle\":")));
//! ```

use crate::json::{FieldSpec, JsonObject, ToJson};
use crate::result::SimResult;
use smtsim_cpu::{CoreStats, SmtCore};
use smtsim_mem::MemorySystem;
use smtsim_obs::{MetricKind, MetricSample, MetricSpec, TraceEvent, TraceRecord};

// ----------------------------------------------------------------
// The core crate's own metric registrations
// ----------------------------------------------------------------

/// Machine-wide committed instructions per cycle over the last
/// sampling interval.
pub const METRIC_THROUGHPUT_IPC: MetricSpec = MetricSpec {
    name: "core.throughput_ipc",
    unit: "instr/cycle",
    kind: MetricKind::Gauge,
    krate: "core",
    doc: "Machine-wide committed instructions per cycle over the last sampling interval (the paper's throughput metric).",
    figure: "Fig. 3",
};

/// All core-crate metrics, in registration order.
pub const METRICS: &[MetricSpec] = &[METRIC_THROUGHPUT_IPC];

/// Every registered metric across the workspace, in sampling order:
/// cpu, mem, policy, core, then the serve-layer service counters
/// (registered in `smtsim-obs` because core cannot depend on serve).
/// This is the single aggregation point the METRICS.md generator and
/// the sampler both consume; the sampler skips `krate == "serve"`
/// entries — those are host-side counters reported by `/healthz`.
pub fn all_metrics() -> Vec<MetricSpec> {
    let mut v = Vec::new();
    v.extend_from_slice(smtsim_cpu::METRICS);
    v.extend_from_slice(smtsim_mem::METRICS);
    v.extend_from_slice(smtsim_policy::METRICS);
    v.extend_from_slice(METRICS);
    v.extend_from_slice(smtsim_obs::SERVE_METRICS);
    v
}

// ----------------------------------------------------------------
// Merged trace rows
// ----------------------------------------------------------------

smtsim_obs::record! {
    /// One event in the merged machine-wide stream: the record plus the
    /// rank of the ring it came from (0 = memory system, `1 + core_id` =
    /// that core). `(cycle, rank, seq)` is the total order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct TraceRow {
        #[via]
        /// Ring rank: 0 for the memory system, `1 + core_id` for a core.
        pub rank: u32,
        #[via]
        /// The recorded event.
        pub rec: TraceRecord,
        #[counter("cycles")]
        /// Simulated cycle of the event.
        "cycle": u64 = |r| r.rec.cycle,
        #[label]
        /// The ring it came from: `mem`, or `core<N>` for core `N`.
        "src": String = |r| r.src(),
        #[counter("events")]
        /// Emission index within its ring.
        "seq": u64 = |r| r.rec.seq,
        #[label]
        /// The event's [`TraceEvent::kind`].
        "kind": &str = |r| r.rec.event.kind(),
        /// The event's payload fields (DESIGN.md §12).
        .. = |r, o| event_payload(o, &r.rec.event),
    }
}

impl TraceRow {
    /// The ring the row came from: `mem`, or `core<N>`.
    fn src(&self) -> String {
        if self.rank == 0 {
            String::from("mem")
        } else {
            format!("core{}", self.rank - 1)
        }
    }
}

/// Write the event's payload fields into an open JSON object.
fn event_payload(o: &mut JsonObject<'_>, ev: &TraceEvent) {
    match *ev {
        TraceEvent::FetchSlots { core, tid, slots } => {
            o.field("core", &core)
                .field("tid", &tid)
                .field("slots", &slots);
        }
        TraceEvent::Flush {
            core,
            tid,
            squashed,
        } => {
            o.field("core", &core)
                .field("tid", &tid)
                .field("squashed", &squashed);
        }
        TraceEvent::Stall { core, tid } => {
            o.field("core", &core).field("tid", &tid);
        }
        TraceEvent::RobHighWater {
            core,
            tid,
            occupancy,
        } => {
            o.field("core", &core)
                .field("tid", &tid)
                .field("occupancy", &occupancy);
        }
        TraceEvent::IqHighWater { core, occupancy } => {
            o.field("core", &core).field("occupancy", &occupancy);
        }
        TraceEvent::MshrAlloc {
            core,
            merged,
            occupancy,
        } => {
            o.field("core", &core)
                .field("merged", &merged)
                .field("occupancy", &occupancy);
        }
        TraceEvent::MshrRetire { core, occupancy } => {
            o.field("core", &core).field("occupancy", &occupancy);
        }
        TraceEvent::L2BankEnqueue { bank, depth } => {
            o.field("bank", &bank).field("depth", &depth);
        }
        TraceEvent::DramRoundTrip { core, latency } => {
            o.field("core", &core).field("latency", &latency);
        }
    }
}

/// Merge every enabled event ring (memory system first, then cores in
/// id order) into one stream sorted by `(cycle, rank, seq)`. The sort
/// key is total — no two records compare equal — so the merge is
/// deterministic regardless of collection order.
pub fn collect_rows(cores: &[SmtCore], mem: &MemorySystem) -> Vec<TraceRow> {
    let mut rows = Vec::new();
    if let Some(ring) = mem.trace() {
        rows.extend(ring.records().map(|r| TraceRow { rank: 0, rec: *r }));
    }
    for core in cores {
        if let Some(ring) = core.trace() {
            let rank = core.id() + 1;
            rows.extend(ring.records().map(|r| TraceRow { rank, rec: *r }));
        }
    }
    rows.sort_by_key(|r| (r.rec.cycle, r.rank, r.rec.seq));
    rows
}

/// Serialize merged rows as JSONL: one JSON object per line, in
/// `(cycle, rank, seq)` order.
pub fn trace_jsonl(rows: &[TraceRow]) -> String {
    let mut out = String::new();
    for row in rows {
        row.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Serialize events and metric samples as one interleaved JSONL
/// stream, ordered by cycle with events before samples on ties (a
/// sample at cycle `c` summarizes the interval ending at `c`, so it
/// reads *after* the events of that cycle).
pub fn observability_jsonl(rows: &[TraceRow], samples: &[MetricSample]) -> String {
    let mut out = String::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < rows.len() || j < samples.len() {
        let take_event =
            j >= samples.len() || (i < rows.len() && rows[i].rec.cycle <= samples[j].cycle);
        if take_event {
            rows[i].write_json(&mut out);
            i += 1;
        } else {
            samples[j].write_json(&mut out);
            j += 1;
        }
        out.push('\n');
    }
    out
}

/// The payload of an instant event, wrapped so it serializes as the
/// Chrome `args` object.
struct ChromeArgs(TraceEvent);

impl ToJson for ChromeArgs {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        event_payload(&mut o, &self.0);
        o.end();
    }
}

/// A counter value, wrapped so it serializes as `{"value": v}`.
struct ChromeCounterArgs(f64);

impl ToJson for ChromeCounterArgs {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        o.field("value", &self.0);
        o.end();
    }
}

/// A process name, wrapped so it serializes as `{"name": s}`.
struct ChromeProcessName(String);

impl ToJson for ChromeProcessName {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        o.field("name", &self.0);
        o.end();
    }
}

/// The thread lane an event renders on in the Chrome view: the SMT
/// context for per-thread events, 0 otherwise.
fn chrome_tid(ev: &TraceEvent) -> u32 {
    match *ev {
        TraceEvent::FetchSlots { tid, .. }
        | TraceEvent::Flush { tid, .. }
        | TraceEvent::Stall { tid, .. }
        | TraceEvent::RobHighWater { tid, .. } => tid,
        _ => 0,
    }
}

/// Export events and samples as a Chrome `trace_event` JSON document
/// (the `{"traceEvents": [...]}` object form), loadable in
/// `about:tracing` or [Perfetto](https://ui.perfetto.dev).
///
/// Mapping (DESIGN.md §12): simulated cycles become microseconds
/// (`ts`), the memory system is pid 0 and core `i` is pid `i + 1`,
/// events are thread-scoped instants (`ph:"i"`, `s:"t"`) named by
/// their [`TraceEvent::kind`], and metric samples are counter events
/// (`ph:"C"`) named `metric[instance]` on pid 0.
pub fn chrome_trace(rows: &[TraceRow], samples: &[MetricSample]) -> String {
    let mut s = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |s: &mut String| {
        if first {
            first = false;
        } else {
            s.push(',');
        }
    };
    // Process-name metadata so the viewer labels pids meaningfully.
    let max_rank = rows.iter().map(|r| r.rank).max().unwrap_or(0);
    for rank in 0..=max_rank {
        let label = if rank == 0 {
            String::from("mem")
        } else {
            format!("core{}", rank - 1)
        };
        sep(&mut s);
        let mut o = JsonObject::begin(&mut s);
        o.field("name", &"process_name");
        o.field("ph", &"M");
        o.field("pid", &rank);
        o.field("args", &ChromeProcessName(label));
        o.end();
    }
    for row in rows {
        sep(&mut s);
        let mut o = JsonObject::begin(&mut s);
        o.field("name", &row.rec.event.kind());
        o.field("ph", &"i");
        o.field("ts", &row.rec.cycle);
        o.field("pid", &row.rank);
        o.field("tid", &chrome_tid(&row.rec.event));
        o.field("s", &"t");
        o.field("args", &ChromeArgs(row.rec.event));
        o.end();
    }
    for sample in samples {
        sep(&mut s);
        let mut o = JsonObject::begin(&mut s);
        o.field("name", &format!("{}[{}]", sample.metric, sample.instance));
        o.field("ph", &"C");
        o.field("ts", &sample.cycle);
        o.field("pid", &0u32);
        o.field("args", &ChromeCounterArgs(sample.value));
        o.end();
    }
    s.push_str("]}");
    s
}

// ----------------------------------------------------------------
// Interval metrics sampling
// ----------------------------------------------------------------

/// Counter values at the previous sample instant, for interval deltas.
struct PrevCounters {
    /// Per-global-thread committed instructions.
    committed: Vec<u64>,
    /// Per-global-thread fetched instructions.
    fetched: Vec<u64>,
    /// Per-core executed flushes.
    flushes: Vec<u64>,
    /// Per-core executed stalls.
    stalls: Vec<u64>,
    /// Per-L2-bank (hits, misses).
    banks: Vec<(u64, u64)>,
}

/// Samples every registered metric (see [`all_metrics`]) every
/// `interval` cycles. Values derive exclusively from the simulated
/// machine's integer counters, so sampling is replay-stable and does
/// not perturb the simulation.
pub struct MetricsRecorder {
    interval: u64,
    samples: Vec<MetricSample>,
    prev: Option<PrevCounters>,
}

impl MetricsRecorder {
    /// Create a recorder sampling every `interval` cycles (clamped to
    /// at least 1).
    pub fn new(interval: u64) -> MetricsRecorder {
        MetricsRecorder {
            interval: interval.max(1),
            samples: Vec::new(),
            prev: None,
        }
    }

    /// The sampling interval in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// `true` when `now` is a sample instant (a positive multiple of
    /// the interval).
    pub fn due(&self, now: u64) -> bool {
        now > 0 && now.is_multiple_of(self.interval)
    }

    /// All samples recorded so far, in `(cycle, registry order,
    /// instance)` order.
    pub fn samples(&self) -> &[MetricSample] {
        &self.samples
    }

    /// Take one sample of every registered metric at cycle `now`.
    /// Samples are appended in registry order (cpu, mem, policy, core),
    /// instances in index order within each metric.
    // lint: allow(D10) -- opt-in interval sampling: snapshots allocate by design and never run in golden-figure configs
    pub fn sample(&mut self, now: u64, cores: &[SmtCore], mem: &MemorySystem) {
        let stats: Vec<CoreStats> = cores.iter().map(|c| c.stats()).collect();
        let committed: Vec<u64> = stats
            .iter()
            .flat_map(|s| s.threads.iter().map(|t| t.committed))
            .collect();
        let fetched: Vec<u64> = stats
            .iter()
            .flat_map(|s| s.threads.iter().map(|t| t.fetched))
            .collect();
        let flushes: Vec<u64> = stats.iter().map(|s| s.flushes_executed).collect();
        let stalls: Vec<u64> = stats.iter().map(|s| s.stalls_executed).collect();
        let banks = mem.bank_cache_stats();
        let prev = self.prev.take().unwrap_or(PrevCounters {
            committed: vec![0; committed.len()],
            fetched: vec![0; fetched.len()],
            flushes: vec![0; flushes.len()],
            stalls: vec![0; stalls.len()],
            banks: vec![(0, 0); banks.len()],
        });
        let dt = self.interval as f64;

        // cpu.thread.ipc — per global thread.
        for (i, (&c, &p)) in committed.iter().zip(&prev.committed).enumerate() {
            self.push(
                now,
                smtsim_cpu::metrics::METRIC_THREAD_IPC.name,
                i as u32,
                (c - p) as f64 / dt,
            );
        }
        // cpu.thread.fetch_share — per global thread, normalized within
        // each core (fetch slots are a per-core resource).
        let mut gtid = 0usize;
        for s in &stats {
            let n = s.threads.len();
            let deltas: Vec<u64> = (0..n)
                .map(|k| fetched[gtid + k] - prev.fetched[gtid + k])
                .collect();
            let total: u64 = deltas.iter().sum();
            for (k, &df) in deltas.iter().enumerate() {
                let share = if total == 0 {
                    0.0
                } else {
                    df as f64 / total as f64
                };
                self.push(
                    now,
                    smtsim_cpu::metrics::METRIC_THREAD_FETCH_SHARE.name,
                    (gtid + k) as u32,
                    share,
                );
            }
            gtid += n;
        }
        // cpu.core.flushes / cpu.core.stalls — cumulative counters.
        for (i, &f) in flushes.iter().enumerate() {
            self.push(
                now,
                smtsim_cpu::metrics::METRIC_CORE_FLUSHES.name,
                i as u32,
                f as f64,
            );
        }
        for (i, &st) in stalls.iter().enumerate() {
            self.push(
                now,
                smtsim_cpu::metrics::METRIC_CORE_STALLS.name,
                i as u32,
                st as f64,
            );
        }
        // mem.l2.bank_miss_rate — per bank, over the interval.
        for (b, (&(h, m), &(ph, pm))) in banks.iter().zip(&prev.banks).enumerate() {
            let accesses = (h + m) - (ph + pm);
            let misses = m - pm;
            let rate = if accesses == 0 {
                0.0
            } else {
                misses as f64 / accesses as f64
            };
            self.push(
                now,
                smtsim_mem::metrics::METRIC_L2_BANK_MISS_RATE.name,
                b as u32,
                rate,
            );
        }
        // mem.mshr.occupancy — per core, at the sample instant.
        for i in 0..cores.len() {
            let (occ, _) = mem.debug_mshr(i as u32);
            self.push(
                now,
                smtsim_mem::metrics::METRIC_MSHR_OCCUPANCY.name,
                i as u32,
                occ as f64,
            );
        }
        // mem.dram.round_trips — machine-wide cumulative counter.
        self.push(
            now,
            smtsim_mem::metrics::METRIC_DRAM_ROUND_TRIPS.name,
            0,
            mem.dram_round_trips() as f64,
        );
        // policy.trigger_rate — per core, responses per kilocycle.
        for i in 0..flushes.len() {
            let triggers = (flushes[i] - prev.flushes[i]) + (stalls[i] - prev.stalls[i]);
            self.push(
                now,
                smtsim_policy::metrics::METRIC_TRIGGER_RATE.name,
                i as u32,
                triggers as f64 * 1000.0 / dt,
            );
        }
        // core.throughput_ipc — machine-wide.
        let d_committed: u64 = committed
            .iter()
            .zip(&prev.committed)
            .map(|(&c, &p)| c - p)
            .sum();
        self.push(now, METRIC_THROUGHPUT_IPC.name, 0, d_committed as f64 / dt);

        self.prev = Some(PrevCounters {
            committed,
            fetched,
            flushes,
            stalls,
            banks,
        });
    }

    fn push(&mut self, cycle: u64, metric: &'static str, instance: u32, value: f64) {
        self.samples.push(MetricSample {
            cycle,
            metric,
            instance,
            value,
        });
    }
}

// ----------------------------------------------------------------
// METRICS.md generation
// ----------------------------------------------------------------

/// Render the metrics reference — the exact content of METRICS.md.
/// `crates/core/tests/metrics_doc.rs` fails when the checked-in file
/// drifts from this in either direction; regenerate with
/// `BLESS=1 cargo test -p smtsim-core --test metrics_doc`.
pub fn metrics_markdown() -> String {
    let mut s = String::new();
    s.push_str("# Metrics reference\n\n");
    s.push_str(
        "Every registered metric, one row per registration: the\n\
         simulator metrics the interval sampler records, plus the\n\
         `serve` service counters reported by `smtsim serve`'s\n\
         `/healthz` endpoint. **Generated** from the `MetricSpec` constants by\n\
         `metrics_markdown()` in `crates/core/src/obs.rs` — edit the\n\
         constants, then regenerate with\n\
         `BLESS=1 cargo test -p smtsim-core --test metrics_doc`.\n\
         Lint rule D8 cross-checks the registrations against this file.\n\n",
    );
    s.push_str(
        "Counters report the cumulative value at the sample instant;\n\
         gauges report an instantaneous or interval-derived value. See\n\
         DESIGN.md \u{a7}12 for sampling semantics.\n\n",
    );
    s.push_str("| Name | Kind | Unit | Crate | Paper figure | Description |\n");
    s.push_str("|------|------|------|-------|--------------|-------------|\n");
    for m in all_metrics() {
        let figure = if m.figure.is_empty() {
            "\u{2014}"
        } else {
            m.figure
        };
        s.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} |\n",
            m.name,
            m.kind.as_str(),
            m.unit,
            m.krate,
            figure,
            m.doc
        ));
    }
    s.push_str(RESULT_FIELDS_HEADING);
    s.push_str(
        "\n\nEvery key of a run's result JSON (what `smtsim run --json`\n\
         prints, the sweep journal stores and `smtsim serve` answers), one\n\
         row per key, in the order the JSON writes them. **Generated** from\n\
         the `record!` tables of `SimResult` and the structs it holds: each\n\
         row's description is its doc comment. `a.b` is key `b` of the\n\
         object under `a`; `a[].b` is key `b` of every object in the list\n\
         under `a`. A *derived* row is computed from the stored ones\n\
         whenever the result is rendered: it is never stored, and decoding\n\
         reads only the stored rows.\n\n",
    );
    s.push_str("| Path | Kind | Unit | Paper figure | Description |\n");
    s.push_str("|------|------|------|--------------|-------------|\n");
    result_field_rows(&mut s, "", SimResult::FIELDS);
    s
}

/// The heading of METRICS.md's section generated from the result
/// tables; lint rule D8 reads only the metric rows above it.
pub const RESULT_FIELDS_HEADING: &str = "\n## Result fields";

/// One METRICS.md row per row of `fields`, under `prefix`, each
/// record's rows after its own.
fn result_field_rows(s: &mut String, prefix: &str, fields: &[FieldSpec]) {
    let dash = |text: &'static str| if text.is_empty() { "\u{2014}" } else { text };
    for f in fields {
        let path = format!("{prefix}{}", f.key);
        let derived = if f.derived { ", derived" } else { "" };
        let doc = f.doc.split_whitespace().collect::<Vec<_>>().join(" ");
        s.push_str(&format!(
            "| `{path}` | {}{derived} | {} | {} | {doc} |\n",
            f.kind.as_str(),
            dash(f.unit),
            dash(f.figure),
        ));
        let nested = if f.list { "[]." } else { "." };
        result_field_rows(s, &format!("{path}{nested}"), f.rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_dotted_lowercase() {
        let metrics = all_metrics();
        let mut names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name registered");
        for n in names {
            assert!(
                n.contains('.')
                    && n.chars().all(|c| c.is_ascii_lowercase()
                        || c.is_ascii_digit()
                        || c == '.'
                        || c == '_'),
                "metric name {n:?} is not dotted lowercase"
            );
        }
    }

    #[test]
    fn every_registration_is_documented() {
        let doc = metrics_markdown();
        for m in all_metrics() {
            assert!(
                doc.contains(&format!("`{}`", m.name)),
                "{} missing from metrics_markdown()",
                m.name
            );
            assert!(!m.unit.is_empty(), "{} has no unit", m.name);
            assert!(!m.doc.is_empty(), "{} has no doc string", m.name);
        }
    }

    #[test]
    fn jsonl_rows_are_single_line_objects() {
        let row = TraceRow {
            rank: 2,
            rec: TraceRecord {
                cycle: 42,
                seq: 7,
                event: TraceEvent::Flush {
                    core: 1,
                    tid: 0,
                    squashed: 13,
                },
            },
        };
        assert_eq!(
            row.to_json(),
            "{\"cycle\":42,\"src\":\"core1\",\"seq\":7,\"kind\":\"flush\",\
             \"core\":1,\"tid\":0,\"squashed\":13}"
        );
        let sample = MetricSample {
            cycle: 100,
            metric: "core.throughput_ipc",
            instance: 0,
            value: 1.5,
        };
        assert_eq!(
            sample.to_json(),
            "{\"cycle\":100,\"src\":\"metrics\",\"metric\":\"core.throughput_ipc\",\
             \"instance\":0,\"value\":1.5}"
        );
    }

    #[test]
    fn interleave_puts_events_before_samples_on_ties() {
        let rows = vec![
            TraceRow {
                rank: 0,
                rec: TraceRecord {
                    cycle: 10,
                    seq: 0,
                    event: TraceEvent::L2BankEnqueue { bank: 0, depth: 1 },
                },
            },
            TraceRow {
                rank: 1,
                rec: TraceRecord {
                    cycle: 20,
                    seq: 0,
                    event: TraceEvent::Stall { core: 0, tid: 1 },
                },
            },
        ];
        let samples = vec![MetricSample {
            cycle: 10,
            metric: "core.throughput_ipc",
            instance: 0,
            value: 0.5,
        }];
        let out = observability_jsonl(&rows, &samples);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("l2_bank_enqueue"));
        assert!(lines[1].contains("core.throughput_ipc"));
        assert!(lines[2].contains("\"stall\""));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_metadata() {
        let rows = vec![TraceRow {
            rank: 1,
            rec: TraceRecord {
                cycle: 5,
                seq: 0,
                event: TraceEvent::FetchSlots {
                    core: 0,
                    tid: 0,
                    slots: 8,
                },
            },
        }];
        let samples = vec![MetricSample {
            cycle: 5,
            metric: "cpu.thread.ipc",
            instance: 3,
            value: 0.25,
        }];
        let doc = chrome_trace(&rows, &samples);
        assert!(crate::json::parse_json(&doc).is_ok(), "must parse: {doc}");
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"process_name\""));
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("\"cpu.thread.ipc[3]\""));
        assert!(doc.contains("\"ph\":\"C\""));
    }

    #[test]
    fn markdown_has_one_row_per_metric() {
        let doc = metrics_markdown();
        let (metrics, fields) = doc.split_once(RESULT_FIELDS_HEADING).unwrap();
        let rows = |text: &str| text.lines().filter(|l| l.starts_with("| `")).count();
        assert_eq!(rows(metrics), all_metrics().len());
        fn paths(fields: &[FieldSpec]) -> usize {
            fields.iter().map(|f| 1 + paths(f.rows)).sum()
        }
        assert_eq!(rows(fields), paths(SimResult::FIELDS));
    }
}
