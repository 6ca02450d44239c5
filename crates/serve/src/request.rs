//! Request-body parsing: config JSON → validated [`SimConfig`].
//!
//! The accepted shape mirrors the `smtsim run` flags, so a served
//! answer is byte-comparable with `smtsim run … --json` for the same
//! parameters (the smoke gate does exactly that comparison):
//!
//! ```json
//! {"workload":"2W2","policy":"mflush","cycles":150000,"seed":24237}
//! {"benchmarks":["mcf","gzip"],"policy":"flush-s30"}
//! ```
//!
//! Every rejection is an exit-2-style message with a did-you-mean
//! hint where one applies — unknown keys, workloads, benchmarks and
//! policies all suggest their nearest valid spelling.

use smtsim_core::config::{DEFAULT_CYCLES, DEFAULT_WATCHDOG};
use smtsim_core::json::parse_json;
use smtsim_core::suggest::did_you_mean;
use smtsim_core::topology::Fidelity;
use smtsim_core::workloads::{ALL_WORKLOADS, FIG5B_WORKLOAD};
use smtsim_core::{SimConfig, Workload};
use smtsim_policy::PolicyKind;

/// Top-level keys a request may carry.
const KNOWN_KEYS: [&str; 7] = [
    "workload",
    "benchmarks",
    "policy",
    "cycles",
    "seed",
    "watchdog_cycles",
    "fidelity",
];

/// The CLI's default seed (`smtsim run --seed` default), kept equal so
/// served answers byte-match `smtsim run --json`.
pub const DEFAULT_SEED: u64 = 0x5eed;

fn workload_names() -> Vec<&'static str> {
    ALL_WORKLOADS
        .iter()
        .chain([&FIG5B_WORKLOAD])
        .map(|w| w.name)
        .collect()
}

fn benchmark_names() -> Vec<&'static str> {
    smtsim_trace::spec::ALL_BENCHMARKS
        .iter()
        .map(|b| b.name)
        .collect()
}

/// Render an unknown-name message with a typo suggestion when one is
/// close enough.
fn unknown_with_hint(kind: &str, input: &str, candidates: &[&str], fallback: &str) -> String {
    match did_you_mean(input, candidates) {
        Some(s) => format!("unknown {kind} '{input}' (did you mean '{s}'?)"),
        None => format!("unknown {kind} '{input}' ({fallback})"),
    }
}

/// Parse and validate one `POST /run` body. `Ok` carries the config
/// plus a human-readable label for the cache/journal line; `Err` is
/// the complete 400 message.
pub fn parse_sim_request(body: &str) -> Result<(SimConfig, String), String> {
    let v = parse_json(body).map_err(|e| format!("request body is not JSON: {e}"))?;
    let fields = match &v {
        smtsim_core::json::JsonValue::Obj(fields) => fields,
        _ => return Err(String::from("request body must be a JSON object")),
    };
    for (key, _) in fields {
        if !KNOWN_KEYS.contains(&key.as_str()) {
            return Err(unknown_with_hint(
                "request field",
                key,
                &KNOWN_KEYS,
                "see README \"Serving\"",
            ));
        }
    }

    let policy = match v.get("policy") {
        None => PolicyKind::Mflush,
        Some(p) => {
            let name = p
                .as_str()
                .ok_or_else(|| String::from("field \"policy\" must be a string"))?;
            PolicyKind::parse_name(name).ok_or_else(|| {
                unknown_with_hint("policy", name, &PolicyKind::SUGGESTED_NAMES, "try `smtsim policies`")
            })?
        }
    };

    let fidelity = match v.get("fidelity") {
        None => Fidelity::detailed(),
        Some(f) => {
            let spec = f
                .as_str()
                .ok_or_else(|| String::from("field \"fidelity\" must be a string"))?;
            Fidelity::parse(spec).map_err(|e| format!("bad fidelity: {e}"))?
        }
    };

    let (base, what) = match (v.get("workload"), v.get("benchmarks")) {
        (Some(_), Some(_)) => {
            return Err(String::from(
                "give either \"workload\" or \"benchmarks\", not both",
            ))
        }
        (Some(w), None) => {
            let name = w
                .as_str()
                .ok_or_else(|| String::from("field \"workload\" must be a string"))?;
            let workload = Workload::by_name(name).ok_or_else(|| {
                unknown_with_hint("workload", name, &workload_names(), "try `smtsim workloads`")
            })?;
            (
                SimConfig::for_workload(workload, policy),
                name.to_string(),
            )
        }
        (None, Some(list)) => {
            let items = list
                .as_arr()
                .ok_or_else(|| String::from("field \"benchmarks\" must be an array of strings"))?;
            let mut names: Vec<&str> = Vec::new();
            for item in items {
                names.push(item.as_str().ok_or_else(|| {
                    String::from("field \"benchmarks\" must be an array of strings")
                })?);
            }
            if names.is_empty() || !names.len().is_multiple_of(2) {
                return Err(String::from(
                    "need an even, non-zero number of benchmarks (2 per core)",
                ));
            }
            for n in &names {
                if smtsim_trace::spec::benchmark_by_name(n).is_none() {
                    return Err(unknown_with_hint(
                        "benchmark",
                        n,
                        &benchmark_names(),
                        "see the SPEC2000 names in DESIGN.md §4",
                    ));
                }
            }
            (SimConfig::for_benchmarks(&names, policy), names.join(","))
        }
        (None, None) => return Err(String::from("need \"workload\" or \"benchmarks\"")),
    };

    let opt_u64 = |key: &str| -> Result<Option<u64>, String> {
        match v.get(key) {
            None => Ok(None),
            Some(x) => x
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
        }
    };
    let cfg = base
        .with_fidelity(fidelity)
        .with_cycles(opt_u64("cycles")?.unwrap_or(DEFAULT_CYCLES))
        .with_seed(opt_u64("seed")?.unwrap_or(DEFAULT_SEED))
        .with_watchdog(opt_u64("watchdog_cycles")?.unwrap_or(DEFAULT_WATCHDOG));
    cfg.validate()?;
    let label = format!("{what}/{}", policy.label());
    Ok((cfg, label))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtsim_core::ToJson;

    #[test]
    fn request_matches_cli_defaults() {
        let (cfg, label) = parse_sim_request("{\"workload\":\"2W2\"}").expect("parses");
        let w = Workload::by_name("2W2").unwrap();
        let cli = SimConfig::for_workload(w, PolicyKind::Mflush)
            .with_cycles(DEFAULT_CYCLES)
            .with_seed(DEFAULT_SEED)
            .with_watchdog(DEFAULT_WATCHDOG);
        assert_eq!(cfg.to_json(), cli.to_json(), "defaults must mirror `smtsim run`");
        assert_eq!(label, "2W2/MFLUSH");
    }

    #[test]
    fn unknown_names_get_suggestions() {
        let e = parse_sim_request("{\"workload\":\"2W2\",\"policy\":\"mflsh\"}").unwrap_err();
        assert!(e.contains("did you mean 'mflush'"), "{e}");
        let e = parse_sim_request("{\"workload\":\"2w9\"}").unwrap_err();
        assert!(e.contains("did you mean"), "{e}");
        let e = parse_sim_request("{\"workload\":\"2W2\",\"cycels\":5}").unwrap_err();
        assert!(e.contains("did you mean 'cycles'"), "{e}");
        let e = parse_sim_request("{\"benchmarks\":[\"mfc\",\"gzip\"]}").unwrap_err();
        assert!(e.contains("did you mean 'mcf'"), "{e}");
    }

    #[test]
    fn malformed_bodies_are_rejected_not_panicked() {
        for bad in [
            "",
            "not json",
            "[]",
            "{\"benchmarks\":\"mcf\"}",
            "{\"benchmarks\":[\"mcf\"]}",
            "{\"workload\":\"2W2\",\"benchmarks\":[\"mcf\",\"gzip\"]}",
            "{\"workload\":\"2W2\",\"cycles\":\"many\"}",
            "{\"workload\":\"2W2\",\"fidelity\":\"mem=warp\"}",
            "{\"workload\":\"2W2\",\"fidelity\":\"core=approx\"}",
            "{\"workload\":2}",
        ] {
            assert!(parse_sim_request(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
