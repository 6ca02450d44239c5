//! "Did you mean" support for unknown names: the workload, benchmark
//! and policy names [`crate::resolve::RunParams`] and
//! [`crate::config::SimConfig::validate`] reject, and the flag or key
//! names the front ends reject.

/// Edit distance with adjacent transpositions counted as one edit
/// (optimal string alignment — `mfc` is one typo from `mcf`, not two).
/// Case-sensitive; callers lowercase both sides first.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    // Three rolling rows: i-2, i-1, i.
    let mut prev2: Vec<usize> = vec![0; b.len() + 1];
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            let mut best = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            if i > 0 && j > 0 && ca == b[j - 1] && a[i - 1] == cb {
                best = best.min(prev2[j - 1] + 1);
            }
            cur[j + 1] = best;
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Closest candidate within an input-length-scaled edit budget. Short
/// names tolerate one edit, longer ones up to a third of their length;
/// anything further is noise, not a typo.
pub fn did_you_mean<'a>(input: &str, candidates: &[&'a str]) -> Option<&'a str> {
    let input = input.to_ascii_lowercase();
    let budget = (input.len() / 3).max(1);
    candidates
        .iter()
        .map(|c| (levenshtein(&input, &c.to_ascii_lowercase()), *c))
        .filter(|(d, _)| *d <= budget)
        .min_by_key(|(d, _)| *d)
        .map(|(_, c)| c)
}

/// The message for an unknown `kind` name: the nearest candidate as a
/// hint when one is close enough, else `fallback`.
pub fn unknown_name(kind: &str, input: &str, candidates: &[&str], fallback: &str) -> String {
    match did_you_mean(input, candidates) {
        Some(s) => format!("unknown {kind} '{input}' (did you mean '{s}'?)"),
        None => format!("unknown {kind} '{input}' ({fallback})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("mflush", "mflsh"), 1);
        assert_eq!(levenshtein("mfc", "mcf"), 1, "transposition is one edit");
    }

    #[test]
    fn suggestions_catch_close_typos() {
        let names = ["icount", "mflush", "flush-ns", "dcra"];
        assert_eq!(did_you_mean("mflsh", &names), Some("mflush"));
        assert_eq!(did_you_mean("icont", &names), Some("icount"));
        assert_eq!(did_you_mean("FLUSH-NS", &names), Some("flush-ns"));
    }

    #[test]
    fn distant_garbage_gets_no_suggestion() {
        let names = ["icount", "mflush"];
        assert_eq!(did_you_mean("zzzzzzzzzz", &names), None);
        assert_eq!(did_you_mean("qqqq", &names), None);
    }
}
