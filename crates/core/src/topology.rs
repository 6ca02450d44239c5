//! Explicit machine topology: geometry plus memory-model fidelity.
//!
//! Before the pluggable-fidelity refactor (DESIGN.md §13) a
//! [`crate::config::SimConfig`]'s geometry was *implicit*: the core
//! count was derived on the fly by dividing the benchmark list length
//! by `core.contexts` (truncating!), and the L2 cluster count lived
//! only inside `MemConfig`. A [`Topology`] names that geometry up
//! front — cores, contexts per core, L2 clusters — together with the
//! fidelity the memory model runs at, and validation checks the
//! rest of the configuration *against* it instead of re-deriving it.
//!
//! Build one with [`TopologyBuilder`]:
//!
//! ```
//! use smtsim_core::topology::{Fidelity, Topology};
//!
//! let t = Topology::builder()
//!     .cores(4)
//!     .contexts_per_core(2)
//!     .l2_clusters(1)
//!     .fidelity(Fidelity::parse("mem=fast").unwrap())
//!     .build()
//!     .unwrap();
//! assert_eq!(t.threads(), 8);
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
            let (component, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad fidelity assignment '{part}' (want component=value, e.g. mem=fast)"))?;
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
    /// otherwise parse positionally; the `smtsim` CLI has its own
    /// flag parser and calls [`Fidelity::parse`] directly.
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

/// The machine's explicit geometry and memory-model fidelity.
///
/// Constructed by [`TopologyBuilder`] (which validates) or the
/// [`Topology::paper`] shorthand; carried by
/// [`crate::config::SimConfig`], whose `validate` cross-checks the
/// core/mem configs and the benchmark list against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of SMT cores.
    pub cores: u32,
    /// Hardware contexts (threads) per core; must match
    /// `CoreConfig::contexts`.
    pub contexts_per_core: u32,
    /// L2 clusters the cores are partitioned over; must match
    /// `MemConfig::l2_clusters` and divide `cores`.
    pub l2_clusters: u32,
    /// Fidelity the memory model runs at.
    pub fidelity: Fidelity,
}

impl Topology {
    /// The paper's Fig. 1 geometry for `cores` two-context cores on
    /// one shared L2, at detailed fidelity.
    pub fn paper(cores: u32) -> Topology {
        Topology {
            cores,
            contexts_per_core: 2,
            l2_clusters: 1,
            fidelity: Fidelity::detailed(),
        }
    }

    /// Start building a topology (defaults to [`Topology::paper`] with
    /// one core).
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder {
            topo: Topology::paper(1),
        }
    }

    /// Total hardware threads.
    pub fn threads(&self) -> usize {
        self.cores as usize * self.contexts_per_core as usize
    }

    /// Check the geometry's internal consistency. Every violation is a
    /// plain-language `Err` (never a panic): the driver wraps it in
    /// `SimError::InvalidConfig`.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("topology: cores == 0".into());
        }
        if self.contexts_per_core == 0 {
            return Err("topology: contexts_per_core == 0".into());
        }
        if self.l2_clusters == 0 {
            return Err("topology: l2_clusters == 0".into());
        }
        if !self.cores.is_multiple_of(self.l2_clusters) {
            return Err(format!(
                "topology: {} cores cannot be split evenly over {} L2 clusters",
                self.cores, self.l2_clusters
            ));
        }
        Ok(())
    }
}

/// Builder for [`Topology`]; `build` validates, so an invalid geometry
/// is caught at construction rather than inside the simulator.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    topo: Topology,
}

impl TopologyBuilder {
    /// Set the number of SMT cores.
    pub fn cores(mut self, cores: u32) -> Self {
        self.topo.cores = cores;
        self
    }

    /// Set the hardware contexts per core.
    pub fn contexts_per_core(mut self, contexts: u32) -> Self {
        self.topo.contexts_per_core = contexts;
        self
    }

    /// Set the number of L2 clusters.
    pub fn l2_clusters(mut self, clusters: u32) -> Self {
        self.topo.l2_clusters = clusters;
        self
    }

    /// Set the memory-model fidelity.
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.topo.fidelity = fidelity;
        self
    }

    /// Validate and return the topology.
    pub fn build(self) -> Result<Topology, String> {
        self.topo.validate()?;
        Ok(self.topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_validates() {
        for cores in [1, 2, 3, 4] {
            let t = Topology::paper(cores);
            t.validate().unwrap();
            assert_eq!(t.threads(), cores as usize * 2);
        }
    }

    #[test]
    fn builder_rejects_bad_geometry() {
        assert!(Topology::builder().cores(0).build().is_err());
        assert!(Topology::builder().cores(2).contexts_per_core(0).build().is_err());
        assert!(Topology::builder().cores(2).l2_clusters(0).build().is_err());
        let err = Topology::builder().cores(3).l2_clusters(2).build().unwrap_err();
        assert!(err.contains("3 cores"), "{err}");
        assert!(Topology::builder().cores(4).l2_clusters(2).build().is_ok());
    }

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
        assert_eq!(Fidelity::parse("mem=detailed").unwrap(), Fidelity::detailed());
        assert_eq!(Fidelity::parse("").unwrap(), Fidelity::detailed());

        assert!(Fidelity::parse("mem=warp9").unwrap_err().contains("mem fidelity"));
        assert!(Fidelity::parse("gpu=fast").unwrap_err().contains("component"));
        // The core has one model; its old reduced spelling is rejected,
        // alone or next to a valid mem assignment.
        for retired in ["core=approx", "core=detailed", "mem=fast,core=approx"] {
            let err = Fidelity::parse(retired).unwrap_err();
            assert!(
                err.contains("'core'") && err.contains("mem is the only component"),
                "{retired}: {err}"
            );
        }
        assert!(Fidelity::parse("fast").unwrap_err().contains("component=value"));
    }

    #[test]
    fn extract_from_args_strips_the_flag_and_keeps_positionals() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();

        let mut args = to_args(&["4W3", "--fidelity", "mem=fast", "50000"]);
        assert_eq!(Fidelity::extract_from_args(&mut args).unwrap(), Fidelity::fast());
        assert_eq!(args, to_args(&["4W3", "50000"]));

        let mut args = to_args(&["--fidelity=mem=fast", "2W1"]);
        assert_eq!(Fidelity::extract_from_args(&mut args).unwrap(), Fidelity::fast());
        assert_eq!(args, to_args(&["2W1"]));

        let mut args = to_args(&["4W3"]);
        assert_eq!(
            Fidelity::extract_from_args(&mut args).unwrap(),
            Fidelity::detailed()
        );
        assert_eq!(args, to_args(&["4W3"]));

        let mut args = to_args(&["--fidelity"]);
        assert!(Fidelity::extract_from_args(&mut args).unwrap_err().contains("needs a value"));
        let mut args = to_args(&["--fidelity", "mem=warp9"]);
        assert!(Fidelity::extract_from_args(&mut args).is_err());
        let mut args = to_args(&["--fidelity", "core=approx"]);
        assert!(Fidelity::extract_from_args(&mut args).is_err());
    }
}
