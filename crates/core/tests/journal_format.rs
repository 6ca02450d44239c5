//! On-disk compatibility of the result journal.
//!
//! `fixtures/journal_2W1_c2000.jsonl` was written by
//! `smtsim sweep --workload 2W1 --cycles 2000 --journal FILE` before the
//! journal's parser, emitter and checksum check were rewritten for
//! speed. Today's code must keep every line of it, render each line
//! back byte for byte, and still refuse a checksum in any other
//! spelling.

use smtsim_core::cache::{format_cache_line, parse_cache_line, ResultCache};
use smtsim_core::json::parse_json;
use std::path::PathBuf;

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
