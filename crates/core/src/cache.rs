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
//! Each answer is rendered once. An entry keeps its answer bytes
//! ([`render_answer`], what `smtsim run --json` prints) next to the
//! outcome and its journal line is built around them, so the request
//! that stored it, those that waited on its slot and every later hit
//! ([`CacheEntry::answer`]) share the same bytes.
//!
//! Each fingerprint has one `Arc`'d [`Slot`] whose `OnceLock` makes its
//! entry once: the serving layer takes it under its cache lock
//! ([`ResultCache::slot`]) and asks it ([`Slot::entry_or`]) after, so
//! no decode or simulation runs under the lock, and identical
//! concurrent asks wait for the one entry.
//!
//! Each line carries a self-checksum:
//!
//! ```text
//! {"job":N,"label":"...","cfg":"<fnv64 hex>","ok":true,"result":{...},"sum":"<fnv64 hex>"}
//! ```
//!
//! `sum` is the FNV-1a hash of the line *without* the `sum` field.
//! Loading checks it in place and parses no answer: a line must end
//! with `,"sum":"`, 16 lowercase hex digits and `"}`, the digits must
//! equal the hash of everything before `,"sum":"` plus a closing `}`,
//! and the line must open the way the cache writes it, `{"job":N,`
//! then the `label` and `cfg` strings and `ok`. The line is then kept
//! under its `cfg` key. [`ResultCache::cached`] (or [`Slot::entry_or`])
//! decodes a kept line the first time it is asked for (the `result` or
//! `error` value parsed as [`parse_cache_line`] parses it, the result
//! checked against its counter identities) and keeps the entry in its
//! slot. The decoded outcome must render back to the value's bytes as
//! the line holds them, and that rendering, plus `"\n"`, is the
//! entry's answer: what is served is what sweeps and figures use.
//! Those are the bytes a fresh run renders: every raw field is an
//! integer, bool or string, and a change to the JSON a result renders
//! to moves a fidelity golden and so [`MODEL_STAMP`], which re-keys
//! every config. A line that passes the checksum but does not decode,
//! or decodes to something that renders otherwise, reads as absent
//! from then on, so its job is re-simulated, never served. A restart
//! therefore pays one hash per line, and a parse and a render only for
//! the answers somebody asks for.
//!
//! A torn tail (kill -9 mid-append), a truncated line, or a flipped
//! bit anywhere fails that check — or, for the few damaged lines that
//! pass it, the decode — and reads as "skip and re-simulate", never as
//! a wrong cached answer and never as a panic
//! (`crates/serve/tests/corruption.rs` fuzzes exactly this).

use crate::config::SimConfig;
use crate::error::SimError;
use crate::json::{parse_json, parse_string, JsonObject, ToJson};
use crate::result::SimResult;
use crate::sweep::JobOutcome;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

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

/// One cached outcome: the label it was computed under, the result or
/// deterministic error, and the answer it renders to.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Free-form label recorded at store time (e.g. the request's
    /// policy/benchmark summary).
    pub label: String,
    /// The cached outcome.
    pub outcome: JobOutcome,
    /// [`render_answer`] of `outcome` (for an entry decoded from a
    /// journal line, equal to the line's bytes of it), set when the
    /// entry is built.
    answer: Arc<str>,
}

impl CacheEntry {
    /// The entry's answer bytes, shared: a caller gets a pointer to
    /// them, not a new rendering.
    pub fn answer(&self) -> Arc<str> {
        Arc::clone(&self.answer)
    }
}

/// One indexed fingerprint. Its entry is set once: when stored, when a
/// loaded journal line is first asked for (decoded), or, in a slot
/// fresh from [`ResultCache::slot`], by the first asker's computation.
#[derive(Debug, Default)]
pub struct Slot {
    /// The verified journal line of a loaded entry; empty otherwise.
    line: Box<str>,
    /// The entry, or `None` for a line that does not decode.
    entry: OnceLock<Option<CacheEntry>>,
}

impl Slot {
    /// The slot's entry: the one it holds, else its journal line
    /// decoded now, else (a fresh slot) what `compute` returns.
    /// Concurrent callers wait for the first one's decode or
    /// computation and get the same entry. `None` when the line does
    /// not decode.
    pub fn entry_or(&self, compute: impl FnOnce() -> CacheEntry) -> Option<&CacheEntry> {
        self.entry
            .get_or_init(|| match &*self.line {
                "" => Some(compute()),
                line => decode_line(line),
            })
            .as_ref()
    }
}

/// The bytes that answer `outcome`: the result's JSON (what `smtsim
/// run --json` prints) or the error's, plus a trailing newline.
pub fn render_answer(outcome: &JobOutcome) -> Arc<str> {
    let mut out = String::new();
    match outcome {
        Ok(result) => result.write_json(&mut out),
        Err(err) => err.write_json(&mut out),
    }
    out.push('\n');
    Arc::from(out)
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
    entries: BTreeMap<String, Arc<Slot>>,
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

    /// Open (or create) the cache file at `path`, indexing every intact
    /// line without decoding it. Corrupt lines are counted in
    /// [`ResultCache::skipped_lines`] and otherwise ignored; an
    /// unreadable file behaves as empty.
    pub fn load_from(path: &Path) -> ResultCache {
        let mut cache = ResultCache {
            path: Some(path.to_path_buf()),
            entries: BTreeMap::new(),
            skipped: 0,
            seq: 0,
        };
        // A missing file is a fresh cache: nothing recorded yet.
        let Ok(data) = std::fs::read(path) else {
            return cache;
        };
        // Byte-split rather than BufRead::lines(): a single flipped
        // bit can make a line invalid UTF-8, and that must cost one
        // line (its checksum no longer matches), not abort the load and
        // orphan every intact entry after it.
        for raw in data.split(|&b| b == b'\n') {
            if raw.is_empty() {
                continue;
            }
            match verify_line(raw) {
                Some((fingerprint, line)) => {
                    cache.seq += 1;
                    let slot = Slot {
                        line: line.into(),
                        entry: OnceLock::new(),
                    };
                    cache.entries.insert(fingerprint, Arc::new(slot));
                }
                None => cache.skipped = cache.skipped.saturating_add(1),
            }
        }
        // A torn final line (kill -9 mid-append) has no trailing
        // newline; appending straight after it would weld the next
        // entry onto the garbage and lose both. Close the wound once
        // at open time so appends always start on a fresh line.
        if data.last().is_some_and(|&b| b != b'\n') {
            if let Ok(mut f) = OpenOptions::new().append(true).open(path) {
                let _ = f.write_all(b"\n");
            }
        }
        cache
    }

    /// Look up the cached outcome for a config fingerprint. An entry
    /// loaded from the journal is decoded on its first lookup; one
    /// whose line does not decode reads as absent.
    pub fn cached(&self, fingerprint: &str) -> Option<&CacheEntry> {
        let slot = self.entries.get(fingerprint)?;
        if slot.line.is_empty() {
            // Stored, or a fresh slot whose computation is not done.
            return slot.entry.get()?.as_ref();
        }
        slot.entry.get_or_init(|| decode_line(&slot.line)).as_ref()
    }

    /// The slot of `fingerprint`, to ask with [`Slot::entry_or`] once
    /// the cache's guard is released, and whether it is recorded (holds
    /// a journal line or a finished entry). A fingerprint with no slot,
    /// or whose line did not decode, is indexed a fresh one.
    pub fn slot(&mut self, fingerprint: &str) -> (Arc<Slot>, bool) {
        let slot = self.entries.entry(fingerprint.to_string()).or_default();
        if matches!(slot.entry.get(), Some(None)) {
            *slot = Arc::default();
        }
        let recorded = !slot.line.is_empty() || slot.entry.get().is_some();
        (Arc::clone(slot), recorded)
    }

    /// The entry of `outcome` for `slot`, the fresh slot of
    /// `fingerprint`, to hand back from its computation; its line is
    /// appended as [`ResultCache::store_outcome`] appends it. A
    /// transient outcome, or any when `keep` is false, is not: the slot
    /// leaves the index, so only those already asking it get the entry.
    pub fn store_in(
        &mut self,
        fingerprint: &str,
        slot: &Arc<Slot>,
        label: &str,
        outcome: JobOutcome,
        keep: bool,
    ) -> CacheEntry {
        let entry = CacheEntry {
            label: label.to_string(),
            answer: render_answer(&outcome),
            outcome,
        };
        if !keep || entry.outcome.as_ref().is_err_and(SimError::is_transient) {
            if matches!(self.entries.get(fingerprint), Some(s) if Arc::ptr_eq(s, slot)) {
                self.entries.remove(fingerprint);
            }
            return entry;
        }
        let ok = entry.outcome.is_ok();
        let line = journal_line(self.seq, label, fingerprint, ok, &entry.answer);
        self.seq += 1;
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
        entry
    }

    /// Number of indexed entries (a loaded line counts once its
    /// checksum holds; it is decoded on its first lookup).
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
    /// line to the backing file (when there is one), and return its
    /// answer bytes: the outcome is rendered once, for the line, the
    /// entry and the caller. A transient failure
    /// ([`SimError::is_transient`]) is not stored at all, in memory or
    /// on disk, and returns `None`: a later run simulates it afresh, it
    /// never replays it.
    /// A failed append is reported but non-fatal: the entry still
    /// serves from memory — a cache that cannot persist degrades, it
    /// does not take requests down with it.
    pub fn store_outcome(
        &mut self,
        fingerprint: &str,
        label: &str,
        outcome: &JobOutcome,
    ) -> Option<Arc<str>> {
        if outcome.as_ref().is_err_and(SimError::is_transient) {
            return None;
        }
        let slot = Arc::<Slot>::default();
        self.entries
            .insert(fingerprint.to_string(), Arc::clone(&slot));
        let entry =
            slot.entry_or(|| self.store_in(fingerprint, &slot, label, outcome.clone(), true));
        entry.map(CacheEntry::answer)
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
pub fn format_cache_line(seq: u64, label: &str, fingerprint: &str, outcome: &JobOutcome) -> String {
    journal_line(
        seq,
        label,
        fingerprint,
        outcome.is_ok(),
        &render_answer(outcome),
    )
}

/// The cache line of an outcome whose answer is already rendered: its
/// `result` (or, when not `ok`, `error`) field is `answer` without the
/// trailing newline.
fn journal_line(seq: u64, label: &str, fingerprint: &str, ok: bool, answer: &str) -> String {
    /// JSON that is already rendered, written as it is.
    struct Rendered<'a>(&'a str);
    impl ToJson for Rendered<'_> {
        fn write_json(&self, out: &mut String) {
            out.push_str(self.0);
        }
    }
    let json = Rendered(answer.strip_suffix('\n').unwrap_or(answer));
    let mut body = String::with_capacity(answer.len() + 128);
    {
        let mut o = JsonObject::begin(&mut body);
        o.field("job", &seq)
            .field("label", &label)
            .field("cfg", &fingerprint)
            .field("ok", &ok)
            .field(if ok { "result" } else { "error" }, &json);
        o.end();
    }
    let sum = fnv64(body.as_bytes());
    body.pop(); // reopen the object to splice in the checksum
    let _ = writeln!(body, ",\"sum\":\"{sum:016x}\"}}");
    body
}

/// Parse and verify one cache line. Returns `None` — never panics —
/// for anything torn, truncated, bit-flipped or otherwise not written
/// by [`format_cache_line`].
///
/// The checksum is checked first, straight on `line`, so a corrupt line
/// costs one hash and no parse. Loading makes the same check and
/// [`ResultCache::cached`] the same decode.
pub fn parse_cache_line(line: &str) -> Option<(String, CacheEntry)> {
    let (fingerprint, line) = verify_line(line.as_bytes())?;
    Some((fingerprint, decode_line(line)?))
}

/// How every cache line ends: `,"sum":"`, 16 hex digits, `"}`.
const SUM_KEY: &[u8] = b",\"sum\":\"";
const SUM_TAIL: usize = SUM_KEY.len() + 16 + 2;

/// Check one line without parsing its answer: it ends with the
/// checksum of everything before it, is UTF-8, and opens the way
/// [`journal_line`] writes it. Returns its `cfg` key and its text.
fn verify_line(raw: &[u8]) -> Option<(String, &str)> {
    let (body, tail) = raw.split_at(raw.len().checked_sub(SUM_TAIL)?);
    let (key, tail) = tail.split_at(SUM_KEY.len());
    let (digits, close) = tail.split_at(16);
    if key != SUM_KEY || close != b"\"}" {
        return None;
    }
    // Re-derive the checksum over the line as it looked before the
    // `sum` field was spliced in: everything before it, then `}`.
    if *digits != hex16(fnv64_extend(fnv64(body), b"}")) {
        return None;
    }
    let line = std::str::from_utf8(raw).ok()?;
    Some((read_head(line)?.cfg, line))
}

/// The fields of a cache line before its answer.
struct Head {
    label: String,
    cfg: String,
    ok: bool,
    /// Byte offset of the `result` (or `error`) value.
    value: usize,
}

/// Read `{"job":N,"label":S,"cfg":S,"ok":B,` and the key that follows,
/// exactly as [`journal_line`] writes them.
fn read_head(line: &str) -> Option<Head> {
    let bytes = line.as_bytes();
    let mut pos = 0;
    let literal = |pos: &mut usize, text: &str| {
        let found = bytes[*pos..].starts_with(text.as_bytes());
        if found {
            *pos += text.len();
        }
        found
    };
    if !literal(&mut pos, "{\"job\":") {
        return None;
    }
    let digits = bytes[pos..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    pos += digits;
    if digits == 0 || !literal(&mut pos, ",\"label\":") {
        return None;
    }
    let label = parse_string(line, &mut pos).ok()?;
    if !literal(&mut pos, ",\"cfg\":") {
        return None;
    }
    let cfg = parse_string(line, &mut pos).ok()?;
    let ok = if literal(&mut pos, ",\"ok\":true,\"result\":") {
        true
    } else if literal(&mut pos, ",\"ok\":false,\"error\":") {
        false
    } else {
        return None;
    };
    Some(Head {
        label,
        cfg,
        ok,
        value: pos,
    })
}

/// Decode a line [`verify_line`] accepted: parse its `result` (or
/// `error`) value into the outcome, which must render back to that
/// value's bytes, and keep that rendering as the answer. `None` when
/// the value does not decode, or decodes to an outcome that renders
/// otherwise (a derived field that disagrees with the stored ones):
/// what is served and what sweeps and figures use must be one answer.
fn decode_line(line: &str) -> Option<CacheEntry> {
    let head = read_head(line)?;
    let value = line.get(head.value..line.len().checked_sub(SUM_TAIL)?)?;
    let v = parse_json(value).ok()?;
    let outcome = if head.ok {
        Ok(SimResult::from_json(&v).ok()?)
    } else {
        Err(SimError::from_json(&v).ok()?)
    };
    let answer = render_answer(&outcome);
    if answer.strip_suffix('\n') != Some(value) {
        return None;
    }
    Some(CacheEntry {
        label: head.label,
        outcome,
        answer,
    })
}

/// `h` as 16 lowercase hex digits, the way `{:016x}` writes it.
fn hex16(h: u64) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (i, digit) in out.iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(h >> (60 - 4 * i)) as usize & 0xf];
    }
    out
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

    /// The `result`/`error` field of `line`, as written.
    fn outcome_field(line: &str, ok: bool) -> &str {
        let key = if ok { ",\"result\":" } else { ",\"error\":" };
        let start = line.find(key).unwrap() + key.len();
        let end = line.rfind(",\"sum\":\"").unwrap();
        &line[start..end]
    }

    #[test]
    fn the_journal_line_holds_the_entrys_answer_bytes() {
        let path = temp_path("answer.jsonl");
        let _ = std::fs::remove_file(&path);
        let failed: JobOutcome = Err(SimError::InvalidConfig("bad \"topology\"".into()));
        let outcomes = [("ok", small_outcome()), ("err", failed)];
        let mut c = ResultCache::load_from(&path);
        for (fp, outcome) in &outcomes {
            let stored = c.store_outcome(fp, "lbl", outcome).expect("stored");
            let entry = c.cached(fp).unwrap();
            assert!(Arc::ptr_eq(&stored, &entry.answer()), "rendered once");
            assert_eq!(*stored, *render_answer(outcome));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let reloaded = ResultCache::load_from(&path);
        for (seq, ((fp, outcome), line)) in outcomes.iter().zip(text.lines()).enumerate() {
            let answer = c.cached(fp).unwrap().answer();
            let field = outcome_field(line, outcome.is_ok());
            assert_eq!(format!("{field}\n"), *answer, "line and entry disagree");
            let replayed = reloaded.cached(fp).unwrap();
            let first = replayed.answer();
            assert_eq!(first, answer, "a reloaded entry gives the same bytes");
            assert!(
                Arc::ptr_eq(&first, &replayed.answer()),
                "kept, not re-rendered"
            );
            assert_eq!(
                format_cache_line(seq as u64, "lbl", fp, outcome),
                format!("{line}\n"),
                "format_cache_line writes what store_outcome appends"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_checksum_valid_line_that_does_not_decode_is_re_simulated() {
        let w = Workload::by_name("2W1").unwrap();
        let cfg = SimConfig::for_workload(w, PolicyKind::Icount).with_cycles(2_000);
        let fp = config_fingerprint(&cfg);
        // Checksummed lines whose answer is not a result: an object of
        // the wrong shape, and a value that is not JSON at all.
        for (name, bad) in [("shape", "{\"policy\":1}\n"), ("json", "{\"policy\":\n")] {
            let path = temp_path(&format!("undecodable-{name}.jsonl"));
            let line = journal_line(0, "bad", &fp, true, bad);
            std::fs::write(&path, &line).unwrap();
            assert!(parse_cache_line(line.trim_end()).is_none());
            let c = ResultCache::load_from(&path);
            assert_eq!((c.entry_count(), c.skipped_lines()), (1, 0), "indexed");
            assert!(c.cached(&fp).is_none(), "{name}: never served");
            assert!(c.cached(&fp).is_none(), "{name}: stays absent");

            let jobs = [crate::sweep::SweepJob::new("job", cfg.clone())];
            let out = crate::sweep::run_sweep_journaled(&jobs, 1, Some(&path));
            let fresh = crate::sim::Simulator::build(&cfg).unwrap().run();
            let fresh_answer = render_answer(&fresh);
            assert_eq!(*render_answer(&out[0].1), *fresh_answer, "re-simulated");
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(text.lines().count(), 2, "{name}: re-recorded");
            let reloaded = ResultCache::load_from(&path);
            assert_eq!(*reloaded.cached(&fp).unwrap().answer(), *fresh_answer);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn a_line_whose_answer_does_not_re_render_is_re_simulated() {
        let w = Workload::by_name("2W1").unwrap();
        let cfg = SimConfig::for_workload(w, PolicyKind::Icount).with_cycles(2_000);
        let fp = config_fingerprint(&cfg);
        let fresh = crate::sim::Simulator::build(&cfg).unwrap().run().unwrap();
        let answer = fresh.to_json();
        let throughput = format!("\"throughput\":{},", fresh.throughput().to_json());
        assert!(answer.contains(&throughput));
        // The stored fields decode, but the derived `throughput` is not
        // what they give, so the line's bytes are not its outcome's.
        let edited = answer.replacen(&throughput, "\"throughput\":9.99,", 1);
        let line = journal_line(0, "edited", &fp, true, &edited);
        let v = parse_json(&edited).unwrap();
        assert!(SimResult::from_json(&v).is_ok(), "the stored fields decode");
        assert!(parse_cache_line(line.trim_end()).is_none());

        let path = temp_path("rerender.jsonl");
        std::fs::write(&path, &line).unwrap();
        let c = ResultCache::load_from(&path);
        assert_eq!((c.entry_count(), c.skipped_lines()), (1, 0), "indexed");
        assert!(c.cached(&fp).is_none(), "never served");
        let jobs = [crate::sweep::SweepJob::new("job", cfg.clone())];
        let out = crate::sweep::run_sweep_journaled(&jobs, 1, Some(&path));
        assert_eq!(out[0].1.as_ref().unwrap().to_json(), answer, "re-simulated");
        let reloaded = ResultCache::load_from(&path);
        assert_eq!(
            *reloaded.cached(&fp).unwrap().answer(),
            format!("{answer}\n")
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_taken_slot_decodes_its_line_without_the_cache() {
        // The cache is dropped once the slot is taken: nothing the
        // decode needs is behind whatever guards the cache.
        let w = Workload::by_name("2W1").unwrap();
        let cfg = SimConfig::for_workload(w, PolicyKind::Icount).with_cycles(2_000);
        let fp = config_fingerprint(&cfg);
        let fresh = crate::sim::Simulator::build(&cfg).unwrap().run();
        let path = temp_path("slot.jsonl");
        std::fs::write(&path, format_cache_line(0, "lbl", &fp, &fresh)).unwrap();
        let (slot, recorded) = ResultCache::load_from(&path).slot(&fp);
        assert!(recorded, "a loaded line is recorded");
        let entry = slot
            .entry_or(|| panic!("a recorded line is decoded, not computed"))
            .expect("the line decodes");
        assert_eq!(*entry.answer(), *render_answer(&fresh));
        assert_eq!(entry.label, "lbl");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_torn_tail_is_closed_once_and_an_intact_file_is_left_alone() {
        let path = temp_path("tail.jsonl");
        let line = format_cache_line(0, "lbl", "f1", &small_outcome());
        std::fs::write(&path, &line).unwrap();
        let _ = ResultCache::load_from(&path);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), line);
        let torn = format!("{line}{}", &line[..line.len() / 2]);
        std::fs::write(&path, &torn).unwrap();
        let c = ResultCache::load_from(&path);
        assert_eq!((c.entry_count(), c.skipped_lines()), (1, 1));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{torn}\n"));
        let _ = ResultCache::load_from(&path);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{torn}\n"));
        let _ = std::fs::remove_file(&path);
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
            assert!(
                parse_cache_line(&flipped).is_none(),
                "checksum must catch a flipped digit"
            );
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
        assert!(
            c.cached("panicked").is_none(),
            "transient: retry, never replay"
        );
        assert!(
            c.cached("invalid").is_some(),
            "deterministic errors are permanent"
        );
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
