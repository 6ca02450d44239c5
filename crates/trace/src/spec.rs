//! Calibrated profiles for the 26 SPEC2000 benchmarks of Fig. 1.
//!
//! The letter keys follow the paper's legend exactly:
//!
//! ```text
//! gzip a   eon h     apsi o     facerec v
//! vpr b    gap i     wupwise p  applu w
//! gcc c    vortex j  equake q   galgel x
//! mcf d    bzip2 k   lucas r    ammp y
//! crafty e twolf l   mesa s     mgrid z
//! perlbmk f art m    fma3d t
//! parser g swim n    sixtrack u
//! ```
//!
//! Profile values are calibrated against published SPEC2000
//! characterisations (instruction mixes, branch misprediction rates,
//! L1/L2 miss behaviour on Alpha-like machines). Absolute fidelity is
//! not the goal — the MFLUSH mechanisms only see aggregate rates — but
//! the *relative ordering* matters: `mcf`, `art`, `swim`, `lucas`,
//! `ammp`, `equake` must behave as memory-bound threads that monopolise
//! an SMT core on L2 misses, while `gzip`, `eon`, `crafty`, `mesa`,
//! `sixtrack` must behave as high-ILP, cache-resident threads.

use crate::profile::{BenchProfile, InstrMix, MemProfile, Suite};

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

/// Helper to keep the table readable.
// lint: allow(D5) -- one positional argument per column of the paper's profile table
#[allow(clippy::too_many_arguments)]
const fn prof(
    name: &'static str,
    key: char,
    suite: Suite,
    mix: InstrMix,
    dep_mean_dist: f64,
    branch_predictability: f64,
    code_blocks: u32,
    block_len_mean: f64,
    mem: MemProfile,
) -> BenchProfile {
    BenchProfile {
        name,
        key,
        suite,
        mix,
        dep_mean_dist,
        branch_predictability,
        code_blocks,
        block_len_mean,
        mem,
    }
}

const fn int_mix(load: f64, store: f64, bc: f64, bu: f64) -> InstrMix {
    InstrMix {
        load,
        store,
        branch_cond: bc,
        branch_uncond: bu,
        int_mul: 0.005,
        fp_alu: 0.0,
        fp_mul: 0.0,
        fp_div: 0.0,
    }
}

const fn fp_mix(load: f64, store: f64, bc: f64, fa: f64, fm: f64, fd: f64) -> InstrMix {
    InstrMix {
        load,
        store,
        branch_cond: bc,
        branch_uncond: 0.01,
        int_mul: 0.0,
        fp_alu: fa,
        fp_mul: fm,
        fp_div: fd,
    }
}

// lint: allow(D5) -- one positional argument per column of the paper's profile table
#[allow(clippy::too_many_arguments)]
const fn mem(
    l1: f64,
    l2: f64,
    memf: f64,
    l1_ws: u64,
    l2_ws: u64,
    mem_ws: u64,
    stride: f64,
    chase: f64,
    toggle: f64,
    boost: f64,
) -> MemProfile {
    mem_strided(
        l1, l2, memf, l1_ws, l2_ws, mem_ws, stride, chase, toggle, boost, 64,
    )
}

/// Like [`mem`] but with an explicit stride width: FP array codes with
/// large leading dimensions stride by multiple cache lines, pinning
/// their L2 traffic onto a single bank (the paper's Fig. 7 hotspot).
// lint: allow(D5) -- one positional argument per column of the paper's profile table
#[allow(clippy::too_many_arguments)]
const fn mem_strided(
    l1: f64,
    l2: f64,
    memf: f64,
    l1_ws: u64,
    l2_ws: u64,
    mem_ws: u64,
    stride: f64,
    chase: f64,
    toggle: f64,
    boost: f64,
    stride_bytes: u64,
) -> MemProfile {
    MemProfile {
        l1_frac: l1,
        l2_frac: l2,
        mem_frac: memf,
        l1_ws_bytes: l1_ws,
        l2_ws_bytes: l2_ws,
        mem_ws_bytes: mem_ws,
        stride_frac: stride,
        stride_bytes,
        pointer_chase_frac: chase,
        phase_toggle_prob: toggle,
        burst_boost: boost,
    }
}

/// All 26 benchmark profiles, in the paper's legend order.
pub static ALL_BENCHMARKS: [BenchProfile; 26] = [
    // -------- SPECint2000 --------
    prof(
        "gzip",
        'a',
        Suite::Int,
        int_mix(0.21, 0.08, 0.13, 0.03),
        5.5,
        0.91,
        300,
        7.0,
        mem(
            0.9830,
            0.0135,
            0.0035,
            12 * KB,
            192 * KB,
            32 * MB,
            0.70,
            0.00,
            0.0005,
            1.5,
        ),
    ),
    prof(
        "vpr",
        'b',
        Suite::Int,
        int_mix(0.27, 0.10, 0.12, 0.03),
        3.8,
        0.89,
        900,
        5.5,
        mem(
            0.9635,
            0.0225,
            0.0140,
            14 * KB,
            384 * KB,
            48 * MB,
            0.35,
            0.06,
            0.0010,
            2.0,
        ),
    ),
    prof(
        "gcc",
        'c',
        Suite::Int,
        int_mix(0.25, 0.13, 0.15, 0.05),
        4.2,
        0.90,
        4000,
        5.0,
        mem(
            0.9728,
            0.0203,
            0.0070,
            16 * KB,
            512 * KB,
            48 * MB,
            0.40,
            0.02,
            0.0010,
            1.8,
        ),
    ),
    prof(
        // mcf: the canonical SMT-killer — pointer chasing over a huge
        // working set, low ILP, frequent clustered L2 misses.
        "mcf",
        'd',
        Suite::Int,
        int_mix(0.31, 0.09, 0.19, 0.02),
        3.0,
        0.88,
        400,
        4.5,
        mem(
            0.8575,
            0.0585,
            0.0840,
            12 * KB,
            768 * KB,
            192 * MB,
            0.10,
            0.30,
            0.0020,
            2.5,
        ),
    ),
    prof(
        "crafty",
        'e',
        Suite::Int,
        int_mix(0.28, 0.08, 0.11, 0.04),
        5.0,
        0.92,
        1200,
        6.5,
        mem(
            0.9880,
            0.0099,
            0.0021,
            14 * KB,
            256 * KB,
            24 * MB,
            0.45,
            0.00,
            0.0005,
            1.5,
        ),
    ),
    prof(
        "perlbmk",
        'f',
        Suite::Int,
        int_mix(0.26, 0.12, 0.13, 0.06),
        4.5,
        0.93,
        2500,
        5.5,
        mem(
            0.9800,
            0.0144,
            0.0056,
            14 * KB,
            384 * KB,
            32 * MB,
            0.40,
            0.02,
            0.0008,
            1.6,
        ),
    ),
    prof(
        "parser",
        'g',
        Suite::Int,
        int_mix(0.24, 0.09, 0.14, 0.04),
        3.5,
        0.90,
        1500,
        5.0,
        mem(
            0.9585,
            0.0261,
            0.0154,
            14 * KB,
            448 * KB,
            64 * MB,
            0.25,
            0.10,
            0.0012,
            2.0,
        ),
    ),
    prof(
        "eon",
        'h',
        Suite::Int,
        int_mix(0.26, 0.14, 0.09, 0.04),
        6.0,
        0.96,
        1000,
        8.0,
        mem(
            0.9928,
            0.0059,
            0.0014,
            12 * KB,
            192 * KB,
            16 * MB,
            0.55,
            0.00,
            0.0004,
            1.4,
        ),
    ),
    prof(
        "gap",
        'i',
        Suite::Int,
        int_mix(0.23, 0.11, 0.12, 0.04),
        4.8,
        0.94,
        1800,
        6.0,
        mem(
            0.9693,
            0.0203,
            0.0105,
            14 * KB,
            512 * KB,
            48 * MB,
            0.50,
            0.04,
            0.0010,
            1.8,
        ),
    ),
    prof(
        "vortex",
        'j',
        Suite::Int,
        int_mix(0.27, 0.15, 0.11, 0.06),
        4.6,
        0.95,
        5000,
        5.5,
        mem(
            0.9764,
            0.0180,
            0.0056,
            16 * KB,
            640 * KB,
            40 * MB,
            0.45,
            0.02,
            0.0008,
            1.6,
        ),
    ),
    prof(
        "bzip2",
        'k',
        Suite::Int,
        int_mix(0.24, 0.09, 0.12, 0.02),
        5.2,
        0.91,
        350,
        7.0,
        mem(
            0.9750,
            0.0180,
            0.0070,
            14 * KB,
            512 * KB,
            64 * MB,
            0.65,
            0.00,
            0.0008,
            1.8,
        ),
    ),
    prof(
        "twolf",
        'l',
        Suite::Int,
        int_mix(0.26, 0.08, 0.13, 0.03),
        3.6,
        0.87,
        1100,
        5.0,
        mem(
            0.9505,
            0.0369,
            0.0126,
            16 * KB,
            640 * KB,
            48 * MB,
            0.20,
            0.08,
            0.0012,
            2.0,
        ),
    ),
    // -------- SPECfp2000 --------
    prof(
        // art: streaming neural-net simulation, terrible L2 behaviour.
        "art",
        'm',
        Suite::Fp,
        fp_mix(0.29, 0.07, 0.09, 0.22, 0.14, 0.00),
        3.0,
        0.95,
        250,
        8.0,
        mem_strided(
            0.8595,
            0.0495,
            0.0910,
            12 * KB,
            768 * KB,
            128 * MB,
            0.55,
            0.10,
            0.0015,
            2.2,
            128,
        ),
    ),
    prof(
        "swim",
        'n',
        Suite::Fp,
        fp_mix(0.27, 0.09, 0.04, 0.24, 0.16, 0.01),
        6.5,
        0.985,
        150,
        14.0,
        mem_strided(
            0.8838,
            0.0428,
            0.0735,
            14 * KB,
            896 * KB,
            160 * MB,
            0.85,
            0.00,
            0.0010,
            2.0,
            256,
        ),
    ),
    prof(
        "apsi",
        'o',
        Suite::Fp,
        fp_mix(0.25, 0.10, 0.06, 0.22, 0.15, 0.01),
        5.5,
        0.97,
        600,
        10.0,
        mem(
            0.9525,
            0.0279,
            0.0196,
            14 * KB,
            640 * KB,
            96 * MB,
            0.70,
            0.00,
            0.0010,
            1.8,
        ),
    ),
    prof(
        "wupwise",
        'p',
        Suite::Fp,
        fp_mix(0.23, 0.09, 0.05, 0.23, 0.18, 0.01),
        7.0,
        0.98,
        300,
        12.0,
        mem_strided(
            0.9772,
            0.0158,
            0.0070,
            12 * KB,
            512 * KB,
            64 * MB,
            0.75,
            0.00,
            0.0006,
            1.6,
            256,
        ),
    ),
    prof(
        "equake",
        'q',
        Suite::Fp,
        fp_mix(0.30, 0.08, 0.07, 0.23, 0.13, 0.01),
        4.0,
        0.96,
        400,
        9.0,
        mem_strided(
            0.9163,
            0.0383,
            0.0455,
            14 * KB,
            768 * KB,
            96 * MB,
            0.45,
            0.12,
            0.0015,
            2.2,
            128,
        ),
    ),
    prof(
        "galgel",
        'x',
        Suite::Fp,
        fp_mix(0.26, 0.08, 0.06, 0.26, 0.17, 0.01),
        5.8,
        0.975,
        450,
        11.0,
        mem_strided(
            0.9497,
            0.0293,
            0.0210,
            14 * KB,
            640 * KB,
            80 * MB,
            0.70,
            0.00,
            0.0010,
            1.8,
            256,
        ),
    ),
    prof(
        "lucas",
        'r',
        Suite::Fp,
        fp_mix(0.24, 0.10, 0.03, 0.26, 0.19, 0.01),
        6.0,
        0.985,
        200,
        15.0,
        mem_strided(
            0.8895,
            0.0405,
            0.0700,
            14 * KB,
            896 * KB,
            144 * MB,
            0.80,
            0.00,
            0.0010,
            2.0,
            512,
        ),
    ),
    prof(
        "mesa",
        's',
        Suite::Fp,
        fp_mix(0.25, 0.11, 0.08, 0.20, 0.13, 0.01),
        5.5,
        0.97,
        900,
        8.0,
        mem(
            0.9878,
            0.0095,
            0.0028,
            12 * KB,
            256 * KB,
            32 * MB,
            0.60,
            0.00,
            0.0005,
            1.5,
        ),
    ),
    prof(
        "fma3d",
        't',
        Suite::Fp,
        fp_mix(0.26, 0.12, 0.07, 0.22, 0.14, 0.01),
        5.0,
        0.965,
        1500,
        9.0,
        mem(
            0.9693,
            0.0203,
            0.0105,
            14 * KB,
            640 * KB,
            96 * MB,
            0.55,
            0.02,
            0.0010,
            1.8,
        ),
    ),
    prof(
        "sixtrack",
        'u',
        Suite::Fp,
        fp_mix(0.22, 0.09, 0.06, 0.25, 0.18, 0.02),
        6.5,
        0.975,
        800,
        10.0,
        mem(
            0.9902,
            0.0077,
            0.0021,
            12 * KB,
            256 * KB,
            24 * MB,
            0.65,
            0.00,
            0.0004,
            1.4,
        ),
    ),
    prof(
        "facerec",
        'v',
        Suite::Fp,
        fp_mix(0.25, 0.08, 0.06, 0.24, 0.16, 0.01),
        5.5,
        0.97,
        500,
        10.0,
        mem_strided(
            0.9470,
            0.0306,
            0.0224,
            14 * KB,
            704 * KB,
            96 * MB,
            0.65,
            0.00,
            0.0010,
            1.8,
            512,
        ),
    ),
    prof(
        "applu",
        'w',
        Suite::Fp,
        fp_mix(0.26, 0.10, 0.04, 0.25, 0.17, 0.01),
        6.0,
        0.98,
        350,
        13.0,
        mem_strided(
            0.9285,
            0.0351,
            0.0364,
            14 * KB,
            832 * KB,
            128 * MB,
            0.80,
            0.00,
            0.0010,
            1.9,
            256,
        ),
    ),
    prof(
        "ammp",
        'y',
        Suite::Fp,
        fp_mix(0.28, 0.09, 0.07, 0.22, 0.14, 0.01),
        3.8,
        0.96,
        600,
        8.0,
        mem(
            0.9048,
            0.0428,
            0.0525,
            14 * KB,
            832 * KB,
            112 * MB,
            0.30,
            0.15,
            0.0015,
            2.2,
        ),
    ),
    prof(
        "mgrid",
        'z',
        Suite::Fp,
        fp_mix(0.29, 0.07, 0.03, 0.26, 0.17, 0.01),
        6.5,
        0.985,
        250,
        14.0,
        mem_strided(
            0.9440,
            0.0315,
            0.0245,
            14 * KB,
            768 * KB,
            112 * MB,
            0.85,
            0.00,
            0.0008,
            1.8,
            256,
        ),
    ),
];

/// Look up a benchmark by its Fig. 1 single-letter key.
pub fn benchmark_by_key(key: char) -> Option<&'static BenchProfile> {
    ALL_BENCHMARKS.iter().find(|b| b.key == key)
}

/// Look up a benchmark by name (e.g. `"mcf"`).
pub fn benchmark_by_name(name: &str) -> Option<&'static BenchProfile> {
    ALL_BENCHMARKS.iter().find(|b| b.name == name)
}

/// The benchmarks the paper classifies (implicitly, via behaviour) as
/// memory-bound: useful for tests and workload synthesis.
pub fn memory_bound() -> impl Iterator<Item = &'static BenchProfile> {
    ALL_BENCHMARKS
        .iter()
        .filter(|b| b.mem.mem_frac + 0.3 * b.mem.pointer_chase_frac >= 0.034)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn all_profiles_validate() {
        for b in &ALL_BENCHMARKS {
            b.validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn keys_are_unique_and_cover_a_to_z() {
        let keys: BTreeSet<char> = ALL_BENCHMARKS.iter().map(|b| b.key).collect();
        assert_eq!(keys.len(), 26);
        for c in 'a'..='z' {
            assert!(keys.contains(&c), "missing key {c}");
        }
    }

    #[test]
    fn names_are_unique() {
        let names: BTreeSet<&str> = ALL_BENCHMARKS.iter().map(|b| b.name).collect();
        assert_eq!(names.len(), 26);
    }

    #[test]
    fn legend_matches_paper() {
        // Spot-check the paper's Fig. 1 legend mapping.
        for (name, key) in [
            ("gzip", 'a'),
            ("vpr", 'b'),
            ("gcc", 'c'),
            ("mcf", 'd'),
            ("crafty", 'e'),
            ("perlbmk", 'f'),
            ("parser", 'g'),
            ("eon", 'h'),
            ("gap", 'i'),
            ("vortex", 'j'),
            ("bzip2", 'k'),
            ("twolf", 'l'),
            ("art", 'm'),
            ("swim", 'n'),
            ("apsi", 'o'),
            ("wupwise", 'p'),
            ("equake", 'q'),
            ("lucas", 'r'),
            ("mesa", 's'),
            ("fma3d", 't'),
            ("sixtrack", 'u'),
            ("facerec", 'v'),
            ("applu", 'w'),
            ("galgel", 'x'),
            ("ammp", 'y'),
            ("mgrid", 'z'),
        ] {
            assert_eq!(benchmark_by_name(name).unwrap().key, key, "{name}");
            assert_eq!(benchmark_by_key(key).unwrap().name, name, "{key}");
        }
    }

    #[test]
    fn mcf_is_the_most_memory_bound_int_benchmark() {
        let mcf = benchmark_by_name("mcf").unwrap();
        for b in ALL_BENCHMARKS.iter().filter(|b| b.suite == Suite::Int) {
            assert!(
                mcf.memory_boundedness() >= b.memory_boundedness(),
                "{} beats mcf",
                b.name
            );
        }
    }

    #[test]
    fn eon_and_sixtrack_are_cache_resident() {
        for name in ["eon", "sixtrack", "crafty", "mesa"] {
            let b = benchmark_by_name(name).unwrap();
            assert!(b.mem.mem_frac <= 0.005, "{name} should rarely miss L2");
        }
    }

    #[test]
    fn memory_bound_set_contains_the_usual_suspects() {
        let names: BTreeSet<&str> = memory_bound().map(|b| b.name).collect();
        for n in ["mcf", "art", "swim", "lucas", "ammp", "equake", "applu"] {
            assert!(names.contains(n), "{n} should be memory-bound");
        }
        assert!(!names.contains("eon"));
        assert!(!names.contains("gzip"));
    }

    #[test]
    fn fp_benchmarks_have_fp_work_and_int_benchmarks_do_not() {
        for b in &ALL_BENCHMARKS {
            match b.suite {
                Suite::Fp => assert!(b.mix.fp_alu > 0.1, "{} lacks fp work", b.name),
                Suite::Int => assert_eq!(b.mix.fp_alu, 0.0, "{} has fp work", b.name),
            }
        }
    }
}
