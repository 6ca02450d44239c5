//! Memory-model fidelity selection (DESIGN.md §13).
//!
//! A [`Fidelity`] names the model implementation each swappable
//! component runs at; it rides in [`crate::config::SimConfig`] next to
//! the machine geometry, which `MemConfig`/`CoreConfig` state once.
//!
//! ```
//! use smtsim_core::fidelity::Fidelity;
//!
//! let f = Fidelity::parse("mem=fast").unwrap();
//! assert!(f.is_reduced());
//! assert_eq!(f.label(), "mem=fast");
//! ```

pub use smtsim_mem::MemFidelity;

/// Which model implementation each swappable component runs at. The
/// memory hierarchy is the only swappable component: the core always
/// runs the detailed pipeline.
///
/// The default — detailed memory — is the golden-figure configuration
/// and reproduces pre-refactor results byte for byte
/// (`crates/core/tests/fidelity.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fidelity {
    /// Memory-hierarchy model ([`smtsim_mem::MemoryModel`] variant).
    pub mem: MemFidelity,
}

impl Fidelity {
    /// Detailed memory: the golden-figure configuration.
    pub fn detailed() -> Fidelity {
        Fidelity::default()
    }

    /// Fast memory: the scouting configuration (its validity envelope
    /// is in EXPERIMENTS.md).
    pub fn fast() -> Fidelity {
        Fidelity {
            mem: MemFidelity::Fast,
        }
    }

    /// `true` when the memory model runs below detailed fidelity.
    pub fn is_reduced(&self) -> bool {
        *self != Fidelity::detailed()
    }

    /// Canonical spelling, accepted back by [`Fidelity::parse`]:
    /// `"mem=fast"`.
    pub fn label(&self) -> String {
        format!("mem={}", self.mem.as_str())
    }

    /// Parse a `--fidelity` override: comma-separated `component=value`
    /// assignments, where `mem=<detailed|fast>` is the only component
    /// (omitted → detailed). Unknown components or fidelity names are
    /// errors, with the valid spellings named in the message.
    pub fn parse(s: &str) -> Result<Fidelity, String> {
        let mut out = Fidelity::default();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (component, value) = part.split_once('=').ok_or_else(|| {
                format!("bad fidelity assignment '{part}' (want component=value, e.g. mem=fast)")
            })?;
            match component {
                "mem" => {
                    out.mem = MemFidelity::parse(value).ok_or_else(|| {
                        format!("unknown mem fidelity '{value}' (want detailed or fast)")
                    })?;
                }
                other => {
                    return Err(format!(
                        "unknown fidelity component '{other}' (mem is the only component)"
                    ));
                }
            }
        }
        Ok(out)
    }

    /// Pull a `--fidelity <value>` / `--fidelity=<value>` override out
    /// of a positional argument list, leaving the remaining arguments
    /// in place. Absent flag → detailed. Shared by the examples, which
    /// otherwise parse positionally; the `smtsim` CLI and serve hand
    /// the spelling to [`crate::resolve::RunParams`] instead.
    pub fn extract_from_args(args: &mut Vec<String>) -> Result<Fidelity, String> {
        let mut i = 0;
        while i < args.len() {
            if let Some(v) = args[i].strip_prefix("--fidelity=") {
                let f = Fidelity::parse(v)?;
                args.remove(i);
                return Ok(f);
            }
            if args[i] == "--fidelity" {
                if i + 1 >= args.len() {
                    return Err("--fidelity needs a value (e.g. mem=fast)".into());
                }
                let f = Fidelity::parse(&args[i + 1])?;
                args.drain(i..i + 2);
                return Ok(f);
            }
            i += 1;
        }
        Ok(Fidelity::detailed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_labels_round_trip() {
        for f in [Fidelity::detailed(), Fidelity::fast()] {
            assert_eq!(Fidelity::parse(&f.label()).unwrap(), f);
        }
        assert!(!Fidelity::detailed().is_reduced());
        assert!(Fidelity::fast().is_reduced());
    }

    #[test]
    fn fidelity_parse_accepts_partial_and_rejects_unknown() {
        assert_eq!(Fidelity::parse("mem=fast").unwrap().mem, MemFidelity::Fast);
        assert_eq!(
            Fidelity::parse("mem=detailed").unwrap(),
            Fidelity::detailed()
        );
        assert_eq!(Fidelity::parse("").unwrap(), Fidelity::detailed());

        assert!(Fidelity::parse("mem=warp9")
            .unwrap_err()
            .contains("mem fidelity"));
        assert!(Fidelity::parse("gpu=fast")
            .unwrap_err()
            .contains("component"));
        // The core has one model; its old reduced spelling is rejected,
        // alone or next to a valid mem assignment.
        for retired in ["core=approx", "core=detailed", "mem=fast,core=approx"] {
            let err = Fidelity::parse(retired).unwrap_err();
            assert!(
                err.contains("'core'") && err.contains("mem is the only component"),
                "{retired}: {err}"
            );
        }
        assert!(Fidelity::parse("fast")
            .unwrap_err()
            .contains("component=value"));
    }

    #[test]
    fn extract_from_args_strips_the_flag_and_keeps_positionals() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();

        let mut args = to_args(&["4W3", "--fidelity", "mem=fast", "50000"]);
        assert_eq!(
            Fidelity::extract_from_args(&mut args).unwrap(),
            Fidelity::fast()
        );
        assert_eq!(args, to_args(&["4W3", "50000"]));

        let mut args = to_args(&["--fidelity=mem=fast", "2W1"]);
        assert_eq!(
            Fidelity::extract_from_args(&mut args).unwrap(),
            Fidelity::fast()
        );
        assert_eq!(args, to_args(&["2W1"]));

        let mut args = to_args(&["4W3"]);
        assert_eq!(
            Fidelity::extract_from_args(&mut args).unwrap(),
            Fidelity::detailed()
        );
        assert_eq!(args, to_args(&["4W3"]));

        let mut args = to_args(&["--fidelity"]);
        assert!(Fidelity::extract_from_args(&mut args)
            .unwrap_err()
            .contains("needs a value"));
        let mut args = to_args(&["--fidelity", "mem=warp9"]);
        assert!(Fidelity::extract_from_args(&mut args).is_err());
        let mut args = to_args(&["--fidelity", "core=approx"]);
        assert!(Fidelity::extract_from_args(&mut args).is_err());
    }
}
