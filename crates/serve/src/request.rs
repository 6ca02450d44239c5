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
//! This module only spells the keys into a
//! [`smtsim_core::resolve::RunParams`]; names, defaults and validation
//! are resolved there, the same way as for `smtsim run`. Every
//! rejection is a message with a did-you-mean hint where one applies —
//! unknown keys, workloads, benchmarks and policies all suggest their
//! nearest valid spelling.

use smtsim_core::json::{parse_json, JsonValue};
use smtsim_core::suggest::unknown_name;
use smtsim_core::{RunParams, SimConfig};

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

/// Parse and validate one `POST /run` body. `Ok` carries the config
/// plus a human-readable label for the cache/journal line; `Err` is
/// the complete 400 message.
pub fn parse_sim_request(body: &str) -> Result<(SimConfig, String), String> {
    let v = parse_json(body).map_err(|e| format!("request body is not JSON: {e}"))?;
    let JsonValue::Obj(fields) = &v else {
        return Err(String::from("request body must be a JSON object"));
    };
    for (key, _) in fields {
        if !KNOWN_KEYS.contains(&key.as_str()) {
            return Err(unknown_name(
                "request field",
                key,
                &KNOWN_KEYS,
                "see README \"Serving\"",
            ));
        }
    }

    let opt_str = |key: &str| -> Result<Option<&str>, String> {
        v.get(key)
            .map(|x| {
                x.as_str()
                    .ok_or_else(|| format!("field {key:?} must be a string"))
            })
            .transpose()
    };
    let opt_u64 = |key: &str| -> Result<Option<u64>, String> {
        v.get(key)
            .map(|x| {
                x.as_u64()
                    .ok_or_else(|| format!("field {key:?} must be a non-negative integer"))
            })
            .transpose()
    };
    let benchmarks = v
        .get("benchmarks")
        .map(|list| {
            list.as_arr()
                .and_then(|items| items.iter().map(JsonValue::as_str).collect())
                .ok_or_else(|| String::from("field \"benchmarks\" must be an array of strings"))
        })
        .transpose()?;
    let params = RunParams {
        workload: opt_str("workload")?,
        benchmarks,
        policy: opt_str("policy")?,
        fidelity: opt_str("fidelity")?,
        cycles: opt_u64("cycles")?,
        seed: opt_u64("seed")?,
        watchdog: opt_u64("watchdog_cycles")?,
    };
    let cfg = params.resolve()?;
    let what = params
        .workload
        .map_or_else(|| cfg.benchmarks.join(","), String::from);
    let label = format!("{what}/{}", cfg.policy.label());
    Ok((cfg, label))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_matches_cli_defaults() {
        let (cfg, label) = parse_sim_request("{\"workload\":\"2W2\"}").expect("parses");
        let cli = RunParams {
            workload: Some("2W2"),
            ..RunParams::default()
        };
        assert_eq!(
            format!("{cfg:?}"),
            format!("{:?}", cli.resolve().unwrap()),
            "defaults must mirror `smtsim run`"
        );
        assert_eq!(label, "2W2/MFLUSH");
        let (_, label) =
            parse_sim_request("{\"benchmarks\":[\"mcf\",\"gzip\"],\"policy\":\"icount\"}").unwrap();
        assert_eq!(label, "mcf,gzip/ICOUNT");
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
            assert!(
                parse_sim_request(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }
}
