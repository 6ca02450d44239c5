//! On-disk compatibility of the result journal.
//!
//! `fixtures/journal_2W1_c2000.jsonl` was written by
//! `smtsim sweep --workload 2W1 --cycles 2000 --journal FILE` before the
//! journal's parser, emitter and checksum check were rewritten for
//! speed. Today's code must keep every line of it, render each line
//! back byte for byte, and still refuse a checksum in any other
//! spelling. Loading only checks and indexes a line; the first lookup
//! decodes it, and must give what `parse_cache_line` gives.

use smtsim_core::cache::{fnv64, format_cache_line, parse_cache_line, ResultCache};
use smtsim_core::json::parse_json;
use smtsim_core::ToJson;
use std::path::PathBuf;
use std::sync::Arc;

const JOURNAL: &str = include_str!("fixtures/journal_2W1_c2000.jsonl");

fn lines() -> impl Iterator<Item = &'static str> {
    JOURNAL.lines()
}

/// Write `text` to a fresh file of this test process and return it.
fn journal_file(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "smtsim-journal-format-{}-{name}",
        std::process::id()
    ));
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn every_line_of_an_older_journal_loads() {
    let path = journal_file("load.jsonl", JOURNAL);
    let cache = ResultCache::load_from(&path);
    assert_eq!(cache.skipped_lines(), 0);
    assert_eq!(cache.entry_count(), lines().count() as u64);
    for line in lines() {
        let fp = parse_json(line)
            .unwrap()
            .req_str("cfg")
            .unwrap()
            .to_string();
        assert!(cache.cached(&fp).unwrap().outcome.is_ok());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_line_re_renders_byte_for_byte() {
    for line in lines() {
        let (fp, entry) = parse_cache_line(line).expect("intact line parses");
        let seq = parse_json(line).unwrap().req_u64("job").unwrap();
        assert_eq!(
            format_cache_line(seq, &entry.label, &fp, &entry.outcome),
            format!("{line}\n")
        );
    }
}

#[test]
fn a_checksum_in_another_spelling_is_rejected() {
    let mut respelt = 0;
    let mut broken = String::new();
    for line in lines() {
        let at = line.rfind("\"sum\":\"").unwrap() + 7;
        let (head, tail) = line.split_at(at);
        let (sum, rest) = tail.split_at(16);
        assert_eq!(rest, "\"}", "the sum closes the line");
        let mut variants = vec![
            format!("{head}{}{rest}", &sum[..15]),
            format!("{head}{sum}0{rest}"),
            format!("{head}0{sum}{rest}"),
        ];
        if sum.bytes().any(|b| b.is_ascii_lowercase()) {
            variants.push(format!("{head}{}{rest}", sum.to_ascii_uppercase()));
            respelt += 1;
        }
        for bad in variants {
            assert!(parse_cache_line(&bad).is_none(), "accepted {bad}");
            broken.push_str(&bad);
            broken.push('\n');
        }
    }
    assert!(
        respelt > 0,
        "no checksum in the fixture has a letter to upper-case"
    );
    let path = journal_file("respelt.jsonl", &broken);
    let cache = ResultCache::load_from(&path);
    assert_eq!(cache.entry_count(), 0);
    assert_eq!(cache.skipped_lines(), broken.lines().count() as u64);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_loaded_entry_decodes_as_parse_cache_line_and_answers_with_the_lines_bytes() {
    let path = journal_file("decode.jsonl", JOURNAL);
    let cache = ResultCache::load_from(&path);
    for line in lines() {
        let (fp, parsed) = parse_cache_line(line).expect("intact line parses");
        let loaded = cache.cached(&fp).expect("indexed at load");
        assert_eq!(loaded.label, parsed.label);
        let json = |e: &smtsim_core::CacheEntry| e.outcome.as_ref().map(|r| r.to_json()).ok();
        assert_eq!(json(loaded), json(&parsed));
        assert!(json(loaded).is_some());
        let start = line.find(",\"result\":").unwrap() + ",\"result\":".len();
        let end = line.rfind(",\"sum\":\"").unwrap();
        let answer = loaded.answer();
        assert_eq!(
            *answer,
            format!("{}\n", &line[start..end]),
            "the line's bytes"
        );
        assert_eq!(answer, parsed.answer());
        assert!(
            Arc::ptr_eq(&answer, &cache.cached(&fp).unwrap().answer()),
            "decoded once, then shared"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_line_must_end_with_its_checksum_and_open_as_the_cache_writes_it() {
    // `body` (a line without its `sum`) with a checksum that holds.
    fn summed(body: &str) -> String {
        let sum = fnv64(format!("{body}}}").as_bytes());
        format!("{body},\"sum\":\"{sum:016x}\"}}")
    }
    let mut broken = String::new();
    for line in lines() {
        let body = &line[..line.rfind(",\"sum\":\"").unwrap()];
        let label_at = body.find(",\"label\":").unwrap();
        let reordered = format!("{{{},{}", &body[label_at + 1..], &body[1..label_at]);
        assert!(parse_json(&summed(&reordered)).is_ok());
        let spaced = body.replacen(",\"cfg\":", ", \"cfg\":", 1);
        for bad in [
            format!("{line} "),
            format!("{line}\r"),
            format!("{}\"]", &line[..line.len() - 2]),
            summed(&reordered),
            summed(&spaced),
        ] {
            assert!(parse_cache_line(&bad).is_none(), "accepted {bad}");
            broken.push_str(&bad);
            broken.push('\n');
        }
    }
    let path = journal_file("unterminated.jsonl", &broken);
    let cache = ResultCache::load_from(&path);
    assert_eq!(cache.entry_count(), 0);
    assert_eq!(cache.skipped_lines(), broken.lines().count() as u64);
    let _ = std::fs::remove_file(&path);
}
