//! Property-based tests of the memory substrates against simple
//! reference models, on the in-repo harness (`smtsim_trace::check`).

use smtsim_mem::util::Slab;
use smtsim_mem::{
    CacheGeometry, LatencyHistogram, MemConfig, MemorySystem, SetAssocCache, Tlb, WarmRegion,
};
use smtsim_trace::check::{Cases, Gen};
use std::collections::BTreeMap;

/// The slab behaves like a map: inserted values are retrievable until
/// removed, never after; len always matches the model.
#[test]
fn slab_matches_hashmap_model() {
    Cases::new(48).run("slab_matches_hashmap_model", |g| {
        let ops = g.vec_of(1..400, |g| (g.bool(), g.u32_in(0..0x1_0000) as u16));
        let mut slab: Slab<u16> = Slab::new();
        let mut model: BTreeMap<u32, u16> = BTreeMap::new();
        let mut live: Vec<u32> = Vec::new();
        for (insert, v) in ops {
            if insert || live.is_empty() {
                let k = slab.insert(v);
                assert!(!model.contains_key(&k), "key {k} double-alive");
                model.insert(k, v);
                live.push(k);
            } else {
                let k = live.swap_remove((v as usize) % live.len());
                assert_eq!(slab.remove(k), model.remove(&k));
            }
            assert_eq!(slab.len(), model.len());
            for (&k, &mv) in &model {
                assert_eq!(slab.get(k), Some(&mv));
            }
        }
    });
}

/// A cache access hits iff the line is resident under an LRU model with
/// the same geometry.
#[test]
fn cache_matches_lru_model() {
    Cases::new(48).run("cache_matches_lru_model", |g| {
        let addrs = g.vec_of(1..500, |g| g.u64_in(0..(1 << 16)));
        let geom = CacheGeometry {
            bytes: 8 * 64 * 4,
            ways: 4,
            line_bytes: 64,
        }; // 8 sets
        let mut cache = SetAssocCache::new(geom);
        // Model: per set, an LRU-ordered vec of tags.
        let sets = geom.sets();
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
        for a in addrs {
            let line = a / 64;
            let set = (line % sets) as usize;
            let tag = line / sets;
            let hit_model = model[set].contains(&tag);
            let hit = cache.access(a, false) == smtsim_mem::AccessOutcome::Hit;
            assert_eq!(hit, hit_model, "addr {a:#x}");
            if hit_model {
                // refresh
                model[set].retain(|&t| t != tag);
                model[set].push(tag);
            } else {
                cache.fill(a, false);
                if model[set].len() == 4 {
                    model[set].remove(0);
                }
                model[set].push(tag);
            }
        }
    });
}

/// The TLB hits iff the page is in the model's LRU window.
#[test]
fn tlb_matches_lru_model() {
    Cases::new(48).run("tlb_matches_lru_model", |g| {
        let pages = g.vec_of(1..300, |g| g.u64_in(0..32));
        let mut tlb = Tlb::new(8);
        let mut model: Vec<u64> = Vec::new();
        for p in pages {
            let addr = p * 8192 + 12;
            let hit_model = model.contains(&p);
            assert_eq!(tlb.access(addr), hit_model);
            model.retain(|&q| q != p);
            model.push(p);
            if model.len() > 8 {
                model.remove(0);
            }
        }
    });
}

/// Histogram statistics match naive recomputation.
#[test]
fn histogram_matches_naive_stats() {
    Cases::new(48).run("histogram_matches_naive_stats", |g| {
        let samples = g.vec_of(1..300, |g| g.u64_in(0..400));
        let mut h = LatencyHistogram::new(5, 40); // covers [0, 200)
        for &s in &samples {
            h.record(s);
        }
        assert_eq!(h.count(), samples.len() as u64);
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((h.mean() - mean).abs() < 1e-9);
        assert_eq!(h.min(), samples.iter().min().copied());
        assert_eq!(h.max(), samples.iter().max().copied());
        // fraction_between over the whole range is 1.
        assert!((h.fraction_between(0, u64::MAX) - 1.0).abs() < 1e-9);
    });
}

fn geometry(g: &mut Gen, max_sets: u32) -> CacheGeometry {
    let ways = *g.choose(&[1u32, 2, 3, 4, 12]);
    CacheGeometry {
        bytes: g.u64_in(1..max_sets as u64 + 1) * ways as u64 * 64,
        ways,
        line_bytes: 64,
    }
}

/// The eager oracle of [`SetAssocCache::fill_lines`]: one `fill` per line.
fn fill_lines_eagerly(cache: &mut SetAssocCache, first: u64, count: u64, step: u64) {
    for i in 0..count {
        cache.fill((first & !63) + i * step * 64, false);
    }
}

/// `fill_lines` leaves a cache — tags, stamps, dirty bits and stats,
/// once installed — exactly as the same lines filled one by one, from a
/// state that already holds clean and dirty lines, with strides longer
/// than a set cycle.
#[test]
fn prewarm_equivalence_fill_lines() {
    Cases::new(64).run("prewarm_equivalence_fill_lines", |g| {
        let mut cache = SetAssocCache::new(geometry(g, 40));
        for _ in 0..g.usize_in(0..200) {
            let a = g.u64_in(0..1 << 16);
            if g.bool() {
                cache.access(a, g.bool());
            } else {
                cache.fill(a, g.bool());
            }
        }
        let mut oracle = cache.clone();
        let first = g.u64_in(0..1 << 20);
        let count = g.u64_in(0..400);
        let step = g.u64_in(1..100);
        cache.fill_lines(first, count, step);
        cache.install_warm();
        fill_lines_eagerly(&mut oracle, first, count, step);
        assert!(
            cache == oracle,
            "fill_lines({first:#x}, {count}, {step}) diverged"
        );
    });
}

/// Recorded warm ranges installed set by set on first look give every
/// access, fill and probe the answer the eager per-line fill gives, and
/// end in the same arrays, stamps and hit/miss counts. Set counts are
/// often not powers of two (and 12-way); steps may share a factor with
/// the set count or be a multiple of it, so some sets take no line of a
/// range and others take several. A mid-run `fill_lines` on a cache
/// whose sets have started installing is covered too.
#[test]
fn warm_ranges_install_lazily_as_eager_fills() {
    Cases::new(96).run("warm_ranges_install_lazily_as_eager_fills", |g| {
        let geom = geometry(g, 40);
        let sets = geom.sets();
        let step_of = |g: &mut Gen| match g.u32_in(0..4) {
            0 => g.u64_in(1..100),
            // Shares the factor `f` with the set count (all of it when
            // `f == sets`).
            1 => {
                let f = (2..=sets).find(|&f| sets.is_multiple_of(f)).unwrap_or(1);
                f * g.u64_in(1..6)
            }
            2 => sets * g.u64_in(1..4),
            _ => 1,
        };
        let mut lazy = SetAssocCache::new(geom);
        let mut eager = lazy.clone();
        let warm = |g: &mut Gen, lazy: &mut SetAssocCache, eager: &mut SetAssocCache| {
            let first = g.u64_in(0..1 << 16);
            let count = g.u64_in(0..3 * sets * geom.ways as u64);
            let step = step_of(g);
            lazy.fill_lines(first, count, step);
            fill_lines_eagerly(eager, first, count, step);
            (first & !63, step * 64)
        };
        let mut anchors: Vec<(u64, u64)> = (0..g.usize_in(1..5))
            .map(|_| warm(g, &mut lazy, &mut eager))
            .collect();
        for _ in 0..g.usize_in(0..300) {
            // Addresses near a range's lines, so warm lines get hit.
            let &(base, stride) = g.choose(&anchors);
            let a = base + g.u64_in(0..64) * stride + g.u64_in(0..2) * 64;
            match g.u32_in(0..20) {
                0..=8 => {
                    let w = g.bool();
                    assert_eq!(lazy.access(a, w), eager.access(a, w), "access {a:#x}");
                }
                9..=15 => {
                    let d = g.bool();
                    assert_eq!(lazy.fill(a, d), eager.fill(a, d), "fill {a:#x}");
                }
                16..=18 => assert_eq!(lazy.probe(a), eager.probe(a), "probe {a:#x}"),
                _ => anchors.push(warm(g, &mut lazy, &mut eager)),
            }
        }
        assert_eq!(lazy.stats(), eager.stats());
        lazy.install_warm();
        assert!(lazy == eager, "installed arrays diverged");
    });
}

/// `prewarm_range` leaves every L1I, L1D, L2-bank tag array and both TLBs
/// exactly as the line-by-line warm it replaces: each 64-byte step from
/// the base fills its line into the region's L1 and the core's cluster
/// bank, then every page the range overlaps is touched in the region's
/// TLB. Regions are unaligned, overlap, and may exceed the whole L2.
#[test]
fn prewarm_equivalence_system() {
    Cases::new(48).run("prewarm_equivalence_system", |g| {
        let mut cfg = MemConfig::paper(1);
        cfg.l2_clusters = g.u32_in(1..3);
        cfg.num_cores = cfg.l2_clusters * g.u32_in(1..3);
        cfg.l1i = geometry(g, 16);
        cfg.l1d = geometry(g, 16);
        cfg.tlb_entries = g.usize_in(1..24);
        cfg.l2_banks = g.u32_in(1..5);
        let bank = geometry(g, 24);
        cfg.l2_ways = bank.ways;
        cfg.l2_bytes = bank.bytes * (cfg.l2_clusters * cfg.l2_banks) as u64;
        let mut m = MemorySystem::new(cfg);

        let banks = (cfg.l2_clusters * cfg.l2_banks) as usize;
        let mut l2: Vec<SetAssocCache> = (0..banks).map(|b| m.debug_bank_tags(b).clone()).collect();
        let mut private: Vec<(SetAssocCache, SetAssocCache, Tlb, Tlb)> = (0..cfg.num_cores)
            .map(|c| {
                let (l1i, l1d, itlb, dtlb) = m.debug_core_tags(c);
                (l1i.clone(), l1d.clone(), itlb.clone(), dtlb.clone())
            })
            .collect();

        // Bases from a few page-spaced anchors so regions overlap.
        let regions = [WarmRegion::Code, WarmRegion::L1Data, WarmRegion::L2Data];
        for _ in 0..g.usize_in(1..10) {
            let core = g.u32_in(0..cfg.num_cores);
            let region = *g.choose(&regions);
            let base = g.u64_in(0..4) * 8192 + g.u64_in(0..8192);
            let bytes = g.u64_in(0..2 * cfg.l2_bytes + 8192);
            m.prewarm_range(core, region, base, bytes);

            let (l1i, l1d, itlb, dtlb) = &mut private[core as usize];
            let cluster = cfg.cluster_of(core) as usize;
            let mut a = base;
            while a < base + bytes {
                let line = a & !63;
                match region {
                    WarmRegion::Code => {
                        l1i.fill(line, false);
                    }
                    WarmRegion::L1Data => {
                        l1d.fill(line, false);
                    }
                    WarmRegion::L2Data => {}
                }
                let banks = cfg.l2_banks as u64;
                l2[cluster * banks as usize + (line / 64 % banks) as usize].fill(line, false);
                a += 64;
            }
            let tlb = if region == WarmRegion::Code {
                itlb
            } else {
                dtlb
            };
            let mut p = base & !8191;
            while p < base + bytes {
                tlb.access(p);
                p += 8192;
            }
        }

        let installed = |c: &SetAssocCache| {
            let mut c = c.clone();
            c.install_warm();
            c
        };
        for (c, (l1i, l1d, itlb, dtlb)) in private.iter().enumerate() {
            let got = m.debug_core_tags(c as u32);
            assert!(installed(got.0) == *l1i, "core {c} L1I diverged");
            assert!(installed(got.1) == *l1d, "core {c} L1D diverged");
            assert!(got.2 == itlb, "core {c} I-TLB diverged");
            assert!(got.3 == dtlb, "core {c} D-TLB diverged");
        }
        for (b, oracle) in l2.iter().enumerate() {
            assert!(
                installed(m.debug_bank_tags(b)) == *oracle,
                "L2 bank {b} diverged"
            );
        }
    });
}
