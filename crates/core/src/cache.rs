//! Persistent fingerprint-keyed result journal (DESIGN.md §11, §15).
//!
//! The one persisted result format in the workspace. Resumable sweeps
//! (`run_sweep_journaled`, hence `smtsim sweep --journal` and
//! `figures --journal`) and the serving layer (`smtsim-serve`) both
//! store a completed job's [`SimResult`] (or its deterministic
//! [`SimError`]) here, in an append-only JSONL file keyed by
//! [`config_fingerprint`]. Because every raw field in our JSON is an
//! integer/bool/string, a replayed entry re-serialises
//! **byte-identically** to the fresh run that produced it; that
//! invariant is what makes a resumed sweep or a cached HTTP answer
//! indistinguishable from a recomputed one.
//!
//! Each line carries a self-checksum:
//!
//! ```text
//! {"job":N,"label":"...","cfg":"<fnv64 hex>","ok":true,"result":{...},"sum":"<fnv64 hex>"}
//! ```
//!
//! `sum` is the FNV-1a hash of the line *without* the `sum` field. A
//! torn tail (kill -9 mid-append), a truncated line, or a flipped bit
//! anywhere either breaks the JSON parse, breaks the checksum, or
//! flips the checksum itself — all three read as "skip and
//! re-simulate", never as a wrong cached answer and never as a panic
//! (`crates/serve/tests/corruption.rs` fuzzes exactly this).

use crate::config::SimConfig;
use crate::error::SimError;
use crate::json::{parse_json, JsonObject};
use crate::result::SimResult;
use crate::sweep::JobOutcome;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit — the config fingerprint and cache-line checksum.
/// Pinned by tests: this is a file format, not an implementation
/// detail.
pub const fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a 64-bit hash from state `h` over `bytes`, so
/// `fnv64_extend(fnv64(a), b)` is `fnv64` of `a` followed by `b`.
const fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    h
}

/// Stamp of the simulation model, folded into every
/// [`config_fingerprint`]: FNV-1a over the committed fidelity golden
/// fixtures, computed at compile time. Re-blessing any golden changes
/// the stamp, so persisted sweep journals and serve caches written by
/// the old model stop matching and are re-simulated; nobody has to
/// remember to bump a version. The stamp only sees model changes that
/// move a fidelity golden: a change that leaves all five goldens
/// byte-identical keeps the stamp, and old entries still replay. The
/// all-policies golden makes that a change no policy's first 30k
/// cycles on a shared-L2 CMP can show.
pub const MODEL_STAMP: u64 = {
    let goldens: [&[u8]; 5] = [
        include_bytes!("../tests/fixtures/fidelity/run_2W1_mflush_c10000_s7.golden.json"),
        include_bytes!("../tests/fixtures/fidelity/run_4W3_flush-s30_c6000.golden.json"),
        include_bytes!("../tests/fixtures/fidelity/run_8W2_icount_c4000.golden.json"),
        include_bytes!("../tests/fixtures/fidelity/sweep_2W2_c3000.golden.json"),
        include_bytes!("../tests/fixtures/fidelity/policies_4W3_c30000.golden.json"),
    ];
    let mut h = fnv64(&[]);
    let mut i = 0;
    while i < goldens.len() {
        h = fnv64_extend(h, goldens[i]);
        i += 1;
    }
    h
};

/// The 16-hex-digit fingerprint of a config under the current model:
/// FNV-1a over the fidelity goldens ([`MODEL_STAMP`]) followed by the
/// config's derived `Debug` rendering, which names every field of
/// every part of the config — so a field added later is keyed
/// without anyone listing it. Identical configs — and only identical
/// configs, up to hash collision — share a fingerprint; the sweep
/// journal and the serve cache both key on it.
pub fn config_fingerprint(cfg: &SimConfig) -> String {
    /// Hashes what is written to it instead of buffering it.
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 = fnv64_extend(self.0, s.as_bytes());
            Ok(())
        }
    }
    let mut h = Fnv(MODEL_STAMP);
    // Fnv::write_str never fails, and derived Debug only forwards it.
    let _ = write!(h, "{cfg:?}");
    format!("{:016x}", h.0)
}

/// One cached outcome: the label it was computed under plus the result
/// or deterministic error.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Free-form label recorded at store time (e.g. the request's
    /// policy/benchmark summary).
    pub label: String,
    /// The cached outcome.
    pub outcome: JobOutcome,
}

/// An append-only, fingerprint-keyed store of job outcomes.
///
/// Opening reads every line, silently skipping anything torn, stale or
/// corrupt (the count is kept for observability). Storing appends one
/// checksummed line and updates the in-memory map. With no backing
/// path the cache is memory-only — same semantics, no persistence.
#[derive(Debug)]
pub struct ResultCache {
    path: Option<PathBuf>,
    entries: BTreeMap<String, CacheEntry>,
    skipped: u64,
    seq: u64,
}

impl ResultCache {
    /// A memory-only cache (no persistence).
    pub fn in_memory() -> ResultCache {
        ResultCache {
            path: None,
            entries: BTreeMap::new(),
            skipped: 0,
            seq: 0,
        }
    }

    /// Open (or create) the cache file at `path`, replaying every
    /// intact line. Corrupt lines are counted in [`ResultCache::skipped_lines`]
    /// and otherwise ignored; an unreadable file behaves as empty.
    pub fn load_from(path: &Path) -> ResultCache {
        let mut cache = ResultCache {
            path: Some(path.to_path_buf()),
            entries: BTreeMap::new(),
            skipped: 0,
            seq: 0,
        };
        let mut file = match File::open(path) {
            Ok(f) => f,
            Err(_) => return cache, // fresh cache: nothing recorded yet
        };
        // Byte-split rather than BufRead::lines(): a single flipped
        // bit can make a line invalid UTF-8, and that must cost one
        // line (lossy decode breaks its checksum), not abort the load
        // and orphan every intact entry after it.
        let mut data = Vec::new();
        if file.read_to_end(&mut data).is_err() {
            return cache;
        }
        for raw in data.split(|&b| b == b'\n') {
            if raw.is_empty() {
                continue;
            }
            let line = String::from_utf8_lossy(raw);
            match parse_cache_line(&line) {
                Some((fp, entry)) => {
                    cache.seq += 1;
                    cache.entries.insert(fp, entry);
                }
                None => cache.skipped = cache.skipped.saturating_add(1),
            }
        }
        // A torn final line (kill -9 mid-append) has no trailing
        // newline; appending straight after it would weld the next
        // entry onto the garbage and lose both. Close the wound once
        // at open time so appends always start on a fresh line.
        if let Ok(mut f) = OpenOptions::new().read(true).append(true).open(path) {
            let mut last = [0u8; 1];
            let read_tail =
                f.seek(SeekFrom::End(-1)).is_ok() && f.read_exact(&mut last).is_ok();
            if read_tail && last[0] != b'\n' {
                let _ = f.write_all(b"\n");
            }
        }
        cache
    }

    /// Look up the cached outcome for a config fingerprint.
    pub fn cached(&self, fingerprint: &str) -> Option<&CacheEntry> {
        self.entries.get(fingerprint)
    }

    /// Number of cached entries.
    pub fn entry_count(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Lines skipped at load time because they were torn or corrupt.
    pub fn skipped_lines(&self) -> u64 {
        self.skipped
    }

    /// The on-disk journal path, if this cache persists (the serving
    /// layer's torn-write fault injection appends half a line here).
    pub fn backing_path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Next line sequence number (what `store_outcome` would stamp).
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Store an outcome under `fingerprint`, appending a checksummed
    /// line to the backing file (when there is one). A transient
    /// failure ([`SimError::is_transient`]) is not stored at all, in
    /// memory or on disk: a later run simulates it afresh, it never
    /// replays it.
    /// A failed append is reported but non-fatal: the entry still
    /// serves from memory — a cache that cannot persist degrades, it
    /// does not take requests down with it.
    pub fn store_outcome(&mut self, fingerprint: &str, label: &str, outcome: &JobOutcome) {
        if outcome.as_ref().is_err_and(SimError::is_transient) {
            return;
        }
        let line = format_cache_line(self.seq, label, fingerprint, outcome);
        self.seq += 1;
        self.entries.insert(
            fingerprint.to_string(),
            CacheEntry {
                label: label.to_string(),
                outcome: outcome.clone(),
            },
        );
        if let Some(path) = &self.path {
            let appended = OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(line.as_bytes()).and_then(|()| f.flush()));
            if let Err(e) = appended {
                eprintln!("warning: cache append failed for {}: {e}", path.display());
            }
        }
    }

    /// Force the backing file's contents to stable storage (graceful
    /// drain calls this before the process exits). A memory-only cache
    /// is a no-op; sync errors are reported, not fatal.
    pub fn sync_to_disk(&self) {
        if let Some(path) = &self.path {
            // An unopenable file means nothing was ever written: no-op.
            if let Ok(f) = OpenOptions::new().append(true).open(path) {
                if let Err(e) = f.sync_all() {
                    eprintln!("warning: cache fsync failed for {}: {e}", path.display());
                }
            }
        }
    }
}

/// Render one cache line (with trailing newline). Public so tests and
/// the corruption fuzzer build lines the exact way the cache does.
pub fn format_cache_line(
    seq: u64,
    label: &str,
    fingerprint: &str,
    outcome: &JobOutcome,
) -> String {
    let mut body = String::new();
    {
        let mut o = JsonObject::begin(&mut body);
        o.field("job", &seq)
            .field("label", &label)
            .field("cfg", &fingerprint);
        match outcome {
            Ok(r) => o.field("ok", &true).field("result", r),
            Err(e) => o.field("ok", &false).field("error", e),
        };
        o.end();
    }
    let sum = fnv64(body.as_bytes());
    body.pop(); // reopen the object to splice in the checksum
    body.push_str(&format!(",\"sum\":\"{sum:016x}\"}}\n"));
    body
}

/// Parse and verify one cache line. Returns `None` — never panics —
/// for anything torn, truncated, bit-flipped or otherwise not written
/// by [`format_cache_line`].
pub fn parse_cache_line(line: &str) -> Option<(String, CacheEntry)> {
    let v = parse_json(line).ok()?;
    let sum = v.req_str("sum").ok()?;
    // Re-derive the checksum over the line as it looked before the
    // `sum` field was spliced in.
    let idx = line.rfind(",\"sum\":\"")?;
    let mut prefix = line[..idx].to_string();
    prefix.push('}');
    if format!("{:016x}", fnv64(prefix.as_bytes())) != sum {
        return None;
    }
    let fingerprint = v.req_str("cfg").ok()?.to_string();
    let label = v.req_str("label").ok()?.to_string();
    let outcome = if v.req_bool("ok").ok()? {
        Ok(SimResult::from_json(v.get("result")?).ok()?)
    } else {
        Err(SimError::from_json(v.get("error")?).ok()?)
    };
    Some((fingerprint, CacheEntry { label, outcome }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;
    use crate::workloads::Workload;
    use smtsim_policy::PolicyKind;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("smtsim-cache-{}-{name}", std::process::id()))
    }

    fn small_outcome() -> JobOutcome {
        let w = Workload::by_name("2W1").unwrap();
        let cfg = SimConfig::for_workload(w, PolicyKind::Icount).with_cycles(2_000);
        crate::sim::Simulator::build(&cfg).unwrap().run()
    }

    #[test]
    fn fnv_fingerprint_is_stable() {
        // Pinned: the cache and journal share this exact hash. Changing
        // it silently invalidates every cache file in the field.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn line_roundtrip_is_byte_exact() {
        let outcome = small_outcome();
        let line = format_cache_line(0, "lbl", "00aa00aa00aa00aa", &outcome);
        let (fp, entry) = parse_cache_line(line.trim_end()).expect("intact line parses");
        assert_eq!(fp, "00aa00aa00aa00aa");
        assert_eq!(entry.label, "lbl");
        assert_eq!(
            entry.outcome.as_ref().unwrap().to_json(),
            outcome.as_ref().unwrap().to_json(),
            "replayed result must re-serialise byte-identically"
        );
    }

    #[test]
    fn truncation_and_flips_are_skipped_not_wrong() {
        let outcome = small_outcome();
        let line = format_cache_line(0, "lbl", "00aa00aa00aa00aa", &outcome);
        let line = line.trim_end();
        // Every truncation fails cleanly.
        for cut in 0..line.len() {
            assert!(parse_cache_line(&line[..cut]).is_none(), "cut at {cut}");
        }
        // A flipped digit inside the result keeps the JSON valid but
        // must fail the checksum.
        let pos = line.find("\"result\":").unwrap() + 12;
        let mut flipped = line.to_string();
        let b = flipped.as_bytes()[pos];
        if b.is_ascii_digit() {
            let nb = if b == b'9' { b'0' } else { b + 1 };
            flipped.replace_range(pos..pos + 1, std::str::from_utf8(&[nb]).unwrap());
            assert!(parse_cache_line(&flipped).is_none(), "checksum must catch a flipped digit");
        }
    }

    #[test]
    fn persistent_cache_survives_reload_and_counts_corruption() {
        let outcome = small_outcome();
        let path = temp_path("reload.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut c = ResultCache::load_from(&path);
            assert_eq!(c.entry_count(), 0);
            c.store_outcome("f1", "a", &outcome);
            c.store_outcome("f2", "b", &outcome);
            c.sync_to_disk();
        }
        // Append garbage + a torn copy of a real line.
        let text = std::fs::read_to_string(&path).unwrap();
        let first = text.lines().next().unwrap();
        std::fs::write(
            &path,
            format!("{text}not json at all\n{}\n", &first[..first.len() / 2]),
        )
        .unwrap();
        let c = ResultCache::load_from(&path);
        assert_eq!(c.entry_count(), 2);
        assert_eq!(c.skipped_lines(), 2);
        assert!(c.cached("f1").is_some());
        assert!(c.cached("f2").is_some());
        assert!(c.cached("f3").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn memory_only_cache_works_without_a_path() {
        let outcome = small_outcome();
        let mut c = ResultCache::in_memory();
        c.store_outcome("fp", "lbl", &outcome);
        assert_eq!(c.entry_count(), 1);
        assert_eq!(c.cached("fp").unwrap().label, "lbl");
        c.sync_to_disk(); // no-op, must not error
    }

    #[test]
    fn transient_outcomes_are_never_stored() {
        let path = temp_path("transient.jsonl");
        let _ = std::fs::remove_file(&path);
        let panicked: JobOutcome = Err(SimError::JobPanicked {
            label: "lbl".into(),
            payload: "boom".into(),
        });
        let invalid: JobOutcome = Err(SimError::InvalidConfig("cycles == 0".into()));
        let mut c = ResultCache::load_from(&path);
        c.store_outcome("panicked", "lbl", &panicked);
        c.store_outcome("invalid", "lbl", &invalid);
        assert!(c.cached("panicked").is_none(), "transient: retry, never replay");
        assert!(c.cached("invalid").is_some(), "deterministic errors are permanent");
        let reloaded = ResultCache::load_from(&path);
        assert_eq!(reloaded.entry_count(), 1);
        assert!(reloaded.cached("panicked").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn entries_keyed_without_the_model_stamp_are_not_replayed() {
        // A journal written before the model stamp keyed each config by
        // the bare hash of its rendering. Record a wrong answer under
        // that key: the sweep must not find it, so it re-simulates.
        let w = Workload::by_name("2W1").unwrap();
        let cfg = SimConfig::for_workload(w, PolicyKind::Icount).with_cycles(2_000);
        let stale_key = format!("{:016x}", fnv64(format!("{cfg:?}").as_bytes()));
        assert_ne!(stale_key, config_fingerprint(&cfg));
        let wrong = crate::sim::Simulator::build(&cfg.clone().with_seed(999))
            .unwrap()
            .run();
        let path = temp_path("stamp.jsonl");
        std::fs::write(&path, format_cache_line(0, "old", &stale_key, &wrong)).unwrap();

        let jobs = [crate::sweep::SweepJob::new("job", cfg.clone())];
        let out = crate::sweep::run_sweep_journaled(&jobs, 1, Some(&path));
        let fresh = crate::sim::Simulator::build(&cfg).unwrap().run().unwrap();
        assert_eq!(out[0].1.as_ref().unwrap().to_json(), fresh.to_json());
        let reloaded = ResultCache::load_from(&path);
        assert_eq!(reloaded.entry_count(), 2, "the job re-ran and was recorded");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn config_fingerprint_tracks_config_identity() {
        // A journal keys each job by its fingerprint, so configs that
        // differ in any field — policy parameters behind a shared
        // label included — must not share one.
        let w = Workload::by_name("8W3").unwrap();
        let base = SimConfig::for_workload(w, PolicyKind::Mflush);
        assert_eq!(config_fingerprint(&base), config_fingerprint(&base.clone()));
        assert_eq!(config_fingerprint(&base).len(), 16);
        let mflush = |history, reducer, preventive, mt_enabled| PolicyKind::MflushCustom {
            mcreg_history: history,
            mcreg_reducer: reducer,
            preventive,
            mt_enabled,
        };
        use smtsim_policy::McRegReducer::{Last, Max, Mean};
        let mut variants = vec![base.clone(), base.clone().with_seed(999)];
        for policy in [
            mflush(4, Mean, true, true),
            mflush(4, Max, true, true),
            mflush(1, Last, false, true),
            mflush(1, Last, true, false),
        ] {
            let mut c = base.clone();
            c.policy = policy;
            variants.push(c);
        }
        let mut c = base.clone();
        c.mem.next_line_prefetch = true;
        variants.push(c);
        let mut c = base.clone();
        c.mem.dram_cycles = 800;
        variants.push(c);
        let mut c = base.clone();
        c.core.rob_per_thread += 1;
        variants.push(c);
        let prints: std::collections::BTreeSet<String> =
            variants.iter().map(config_fingerprint).collect();
        assert_eq!(prints.len(), variants.len(), "two distinct configs collide");
    }
}
