//! Corruption-robustness properties of the result-cache file format,
//! on the in-repo property harness (`smtsim_trace::check`).
//!
//! Invariant: loading a *damaged* cache file — truncated anywhere, or
//! with any single bit flipped — never panics and never yields a
//! wrong cached answer. Damaged lines are skipped (and counted, so
//! the operator can see them); every entry that survives serialises
//! **byte-identically** to the outcome originally stored.

use std::path::PathBuf;
use std::sync::OnceLock;

use smtsim_core::cache::{format_cache_line, ResultCache};
use smtsim_core::sweep::JobOutcome;
use smtsim_core::{SimConfig, SimError, Simulator, ToJson, Workload};
use smtsim_policy::PolicyKind;
use smtsim_trace::check::{Cases, Gen};

/// One real simulation result, computed once (the Ok path must be
/// fuzzed with genuine `SimResult` JSON, not a toy stand-in).
fn real_outcome() -> &'static JobOutcome {
    static CELL: OnceLock<JobOutcome> = OnceLock::new();
    CELL.get_or_init(|| {
        let w = Workload::by_name("2W1").expect("seed workload");
        let cfg = SimConfig::for_workload(w, PolicyKind::Icount).with_cycles(2_000);
        Simulator::build(&cfg).expect("builds").run()
    })
}

fn outcome_json(outcome: &JobOutcome) -> String {
    match outcome {
        Ok(r) => r.to_json(),
        Err(e) => e.to_json(),
    }
}

/// Pick an outcome: the real result, or a deterministic error.
fn pick_outcome(g: &mut Gen) -> JobOutcome {
    match g.u64_in(0..4) {
        0 | 1 => real_outcome().clone(),
        _ => Err(SimError::InvalidConfig(String::from(
            "synthetic: bad topology",
        ))),
    }
}

/// Write a fresh cache file of 2..6 entries; return (fingerprint,
/// canonical outcome JSON) pairs and the file's bytes.
fn build_cache_file(g: &mut Gen, path: &PathBuf) -> (Vec<(String, String)>, Vec<u8>) {
    let n = g.usize_in(2..6);
    let mut originals = Vec::new();
    let mut text = String::new();
    for i in 0..n {
        // Index-prefixed so fingerprints never collide within a file.
        let fp = format!("{i:02x}{:014x}", g.any_u64() >> 8);
        let outcome = pick_outcome(g);
        text.push_str(&format_cache_line(
            i as u64,
            &format!("job{i}"),
            &fp,
            &outcome,
        ));
        originals.push((fp, outcome_json(&outcome)));
    }
    std::fs::write(path, &text).expect("write cache file");
    (originals, text.into_bytes())
}

fn temp_path(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "smtsim-serve-corrupt-{}-{tag}-{seed:x}.jsonl",
        std::process::id()
    ))
}

/// Every survivor of a damaged load must byte-match its original.
fn assert_survivors_exact(cache: &ResultCache, originals: &[(String, String)]) {
    for (fp, json) in originals {
        if let Some(entry) = cache.cached(fp) {
            assert_eq!(
                outcome_json(&entry.outcome),
                *json,
                "cached entry {fp} must replay byte-identically or not at all"
            );
            assert_eq!(
                *entry.answer(),
                format!("{json}\n"),
                "cached entry {fp} must answer with its original bytes"
            );
        }
    }
}

/// Truncating the file anywhere loses at most the torn tail: every
/// line fully inside the prefix still loads, the torn line is counted
/// as skipped, and nothing panics.
#[test]
fn truncation_loses_only_the_torn_tail() {
    Cases::new(30).run("cache_truncation_loses_only_the_torn_tail", |g| {
        let path = temp_path("trunc", g.seed());
        let (originals, bytes) = build_cache_file(g, &path);
        let cut = g.usize_in(0..bytes.len() + 1);
        std::fs::write(&path, &bytes[..cut]).expect("truncate");

        let cache = ResultCache::load_from(&path);
        assert_survivors_exact(&cache, &originals);
        let complete = bytes[..cut].iter().filter(|&&b| b == b'\n').count() as u64;
        // A tail with no terminator is still one line to the reader;
        // it parses only when the cut removed *just* the newline.
        let torn_tail = u64::from(cut > 0 && bytes[cut - 1] != b'\n');
        assert!(
            cache.entry_count() >= complete,
            "every line fully before the cut must survive: {} < {complete}",
            cache.entry_count()
        );
        assert_eq!(
            cache.entry_count() + cache.skipped_lines(),
            complete + torn_tail,
            "each damaged line is either replayed or logged as skipped"
        );
        let _ = std::fs::remove_file(&path);
    });
}

/// Any single-bit flip damages at most the line(s) it touches: no
/// panic, no wrong answer, at most two entries lost (a flipped
/// newline welds two lines into one corrupt line).
#[test]
fn single_bit_flips_never_yield_wrong_answers() {
    Cases::new(30).run("cache_bit_flips_never_yield_wrong_answers", |g| {
        let path = temp_path("flip", g.seed());
        let (originals, mut bytes) = build_cache_file(g, &path);
        let bit = g.usize_in(0..bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &bytes).expect("flip");

        let cache = ResultCache::load_from(&path);
        assert_survivors_exact(&cache, &originals);
        assert!(
            cache.entry_count() + 2 >= originals.len() as u64,
            "one flip may cost at most two entries (welded neighbours): \
             {} of {} survived",
            cache.entry_count(),
            originals.len()
        );
        assert!(
            cache.entry_count() == originals.len() as u64 || cache.skipped_lines() > 0,
            "a lost entry must show up in the skip counter"
        );
        let _ = std::fs::remove_file(&path);
    });
}

/// The torn-tail repair: after loading a file whose last line is torn,
/// a fresh append must start on its own line and survive reload.
#[test]
fn append_after_torn_tail_is_not_welded() {
    Cases::new(20).run("cache_append_after_torn_tail", |g| {
        let path = temp_path("weld", g.seed());
        let (originals, bytes) = build_cache_file(g, &path);
        // Cut strictly inside the last line's content (keep at least
        // one byte, lose at least one), so the tail cannot parse.
        let body_end = bytes.len() - 1; // final byte is '\n'
        let line_start = bytes[..body_end]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1);
        let cut = g.usize_in(line_start + 1..body_end);
        std::fs::write(&path, &bytes[..cut]).expect("truncate");

        let mut cache = ResultCache::load_from(&path);
        let fresh = pick_outcome(g);
        cache.store_outcome("ffffffffffffffff", "replacement", &fresh);
        drop(cache);

        let reloaded = ResultCache::load_from(&path);
        assert_survivors_exact(&reloaded, &originals);
        let replay = reloaded
            .cached("ffffffffffffffff")
            .expect("appended-after-tear entry must survive reload");
        assert_eq!(outcome_json(&replay.outcome), outcome_json(&fresh));
        assert_eq!(
            reloaded.entry_count(),
            originals.len() as u64, // n-1 survivors + the fresh entry
            "torn line skipped, everything else intact"
        );
        let _ = std::fs::remove_file(&path);
    });
}
