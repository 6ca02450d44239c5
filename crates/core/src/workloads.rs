//! The paper's workload table (Fig. 1) plus the Fig. 5(b) special case.
//!
//! Workload names follow the paper: `xWy` where `x` is the thread count
//! and `y` the workload id. An `x`-thread workload runs on `x/2`
//! two-context SMT cores; consecutive letter pairs share a core.

use smtsim_trace::spec;
use smtsim_trace::BenchProfile;

/// One multiprogrammed workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Paper name (e.g. `"6W2"`).
    pub name: &'static str,
    /// Benchmark letter keys in thread order (Fig. 1 legend).
    pub keys: &'static str,
}

/// The 20 workloads of Fig. 1, in the paper's order.
pub static ALL_WORKLOADS: [Workload; 20] = [
    Workload {
        name: "2W1",
        keys: "bj",
    },
    Workload {
        name: "2W2",
        keys: "ne",
    },
    Workload {
        name: "2W3",
        keys: "da",
    },
    Workload {
        name: "2W4",
        keys: "gf",
    },
    Workload {
        name: "2W5",
        keys: "rp",
    },
    Workload {
        name: "4W1",
        keys: "bqtj",
    },
    Workload {
        name: "4W2",
        keys: "lnpe",
    },
    Workload {
        name: "4W3",
        keys: "dsra",
    },
    Workload {
        name: "4W4",
        keys: "gbmf",
    },
    Workload {
        name: "4W5",
        keys: "rjfp",
    },
    Workload {
        name: "6W1",
        keys: "lbqftj",
    },
    Workload {
        name: "6W2",
        keys: "glnpea",
    },
    Workload {
        name: "6W3",
        keys: "dlswra",
    },
    Workload {
        name: "6W4",
        keys: "rgbmhf",
    },
    Workload {
        name: "6W5",
        keys: "hlermd",
    },
    Workload {
        name: "8W1",
        keys: "dlbgijcf",
    },
    Workload {
        name: "8W2",
        keys: "bgmnahop",
    },
    Workload {
        name: "8W3",
        keys: "mnrqijeh",
    },
    Workload {
        name: "8W4",
        keys: "lbgmnrfs",
    },
    Workload {
        name: "8W5",
        keys: "qbckeaot",
    },
];

/// The Fig. 5(b) workload: four instances each of bzip2 (`k`) and twolf
/// (`l`), arranged so instances of the two applications never share a
/// core (cores: kk, kk, ll, ll).
pub static FIG5B_WORKLOAD: Workload = Workload {
    name: "bzip2x4+twolfx4",
    keys: "kkkkllll",
};

impl Workload {
    /// Look up a workload by paper name (`"2W1"` … `"8W5"`, or the
    /// Fig. 5(b) name).
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        if name == FIG5B_WORKLOAD.name {
            return Some(&FIG5B_WORKLOAD);
        }
        ALL_WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Number of threads.
    pub fn threads(&self) -> usize {
        self.keys.len()
    }

    /// Number of two-context SMT cores the workload needs.
    pub fn cores(&self) -> u32 {
        (self.threads() / 2) as u32
    }

    /// Benchmark profiles in thread order.
    pub fn profiles(&self) -> Vec<&'static BenchProfile> {
        self.keys
            .chars()
            .map(|k| spec::benchmark_by_key(k).expect("valid benchmark key"))
            .collect()
    }

    /// Benchmark names in thread order.
    pub fn benchmark_names(&self) -> Vec<&'static str> {
        self.profiles().iter().map(|p| p.name).collect()
    }

    /// Workloads with exactly `threads` threads (the paper's per-size
    /// groups: 2, 4, 6, 8).
    pub fn of_size(threads: usize) -> Vec<&'static Workload> {
        ALL_WORKLOADS
            .iter()
            .filter(|w| w.threads() == threads)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_workloads_five_per_size() {
        assert_eq!(ALL_WORKLOADS.len(), 20);
        for size in [2, 4, 6, 8] {
            assert_eq!(Workload::of_size(size).len(), 5, "size {size}");
        }
    }

    #[test]
    fn all_keys_resolve_to_benchmarks() {
        for w in &ALL_WORKLOADS {
            assert_eq!(w.profiles().len(), w.threads());
            assert_eq!(w.threads() % 2, 0, "{}: odd thread count", w.name);
        }
    }

    #[test]
    fn paper_table_spot_checks() {
        // Fig. 1: 2W3 = d,a = mcf+gzip; 6W3 = d,l,s,w,r,a;
        // 8W1 = d,l,b,g,i,j,c,f.
        assert_eq!(
            Workload::by_name("2W3").unwrap().benchmark_names(),
            vec!["mcf", "gzip"]
        );
        assert_eq!(
            Workload::by_name("6W3").unwrap().benchmark_names(),
            vec!["mcf", "twolf", "mesa", "applu", "lucas", "gzip"]
        );
        assert_eq!(
            Workload::by_name("8W1").unwrap().benchmark_names(),
            vec!["mcf", "twolf", "vpr", "parser", "gap", "vortex", "gcc", "perlbmk"]
        );
    }

    #[test]
    fn cores_are_half_threads() {
        assert_eq!(Workload::by_name("2W1").unwrap().cores(), 1);
        assert_eq!(Workload::by_name("4W2").unwrap().cores(), 2);
        assert_eq!(Workload::by_name("6W4").unwrap().cores(), 3);
        assert_eq!(Workload::by_name("8W5").unwrap().cores(), 4);
    }

    #[test]
    fn fig5b_keeps_apps_on_separate_cores() {
        let w = &FIG5B_WORKLOAD;
        assert_eq!(w.threads(), 8);
        let keys: Vec<char> = w.keys.chars().collect();
        for core in 0..4 {
            assert_eq!(
                keys[2 * core],
                keys[2 * core + 1],
                "core {core} mixes applications"
            );
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(Workload::by_name("9W9").is_none());
    }
}
