//! `serve-figures`: the simulations `figures all` runs, sent one by one
//! as `POST /run` requests to an in-process `smtsim-serve` server.
//!
//! The request list is derived, not chosen. It is the job list of every
//! sweep `figures all` makes (`crates/bench/src/figures.rs`: Figs. 2, 3,
//! 4, 5, 8 and 11, in that order), one request per job. The figures
//! share configurations: Fig. 3 re-asks Fig. 2's runs, Fig. 4 re-asks
//! Fig. 3's ICOUNT runs, Fig. 11 re-asks Fig. 8's. A request whose
//! configuration an earlier one already asked for is answered from the
//! journal; the hit share is whatever the figure definitions give.
//!
//! The server starts on the journal one earlier regeneration left, at
//! another seed, so its start-up loads a journal, and none of that
//! journal's answers is asked for again.

use crate::sims::{label, run_job, sim_counts, traced_pass, TracedPass};
use crate::stats::{best, geomean, median, now, percentile, secs_since, sorted};
use crate::{Report, MIN_PASSES};
use smtsim_core::cache::{config_fingerprint, fnv64, ResultCache};
use smtsim_core::json::parse_json;
use smtsim_core::workloads::FIG5B_WORKLOAD;
use smtsim_core::{run_sweep, SimConfig, SimResult, SweepJob, ToJson, Workload};
use smtsim_policy::PolicyKind;
use smtsim_serve::request::parse_sim_request;
use smtsim_serve::{http_post, Server, ServerConfig};
use std::path::{Path, PathBuf};

/// Cycles per simulation: the benchmark's size.
pub const FULL_CYCLES: u64 = 12_000;

/// One fiftieth, for the smoke test.
#[cfg(test)]
pub const SMOKE_CYCLES: u64 = 240;

/// Closed-loop client threads; each sends its next request only after
/// the previous answer arrived.
pub const CLIENTS: usize = 2;

/// Every this-many-th configuration is re-simulated in-process and its
/// served answer must match byte for byte.
pub const RESIMULATE_EVERY: usize = 8;

/// Client-side socket timeout, ms. Far above any answer's latency; it
/// only turns a wedged server into a failed op.
const TIMEOUT_MS: u64 = 60_000;

/// The sweeps of `figures all`, in order. Each is workloads × policies,
/// workload-major, as the figures list their jobs.
fn figure_sweeps() -> Vec<(Vec<&'static Workload>, Vec<PolicyKind>)> {
    let sizes = |sizes: &[usize]| -> Vec<&'static Workload> {
        sizes.iter().flat_map(|&s| Workload::of_size(s)).collect()
    };
    let icount_s30 = vec![PolicyKind::Icount, PolicyKind::FlushSpec(30)];
    let triggers = (30..=150)
        .step_by(20)
        .map(PolicyKind::FlushSpec)
        .chain([PolicyKind::FlushNonSpec])
        .collect();
    let w8w3 = Workload::by_name("8W3").expect("8W3 is a paper workload");
    let mut sweeps = vec![(sizes(&[2]), icount_s30.clone())];
    for size in [2, 4, 6, 8] {
        sweeps.push((sizes(&[size]), icount_s30.clone()));
    }
    for size in [2, 4, 6, 8] {
        sweeps.push((sizes(&[size]), vec![PolicyKind::Icount]));
    }
    sweeps.push((vec![w8w3, &FIG5B_WORKLOAD], triggers));
    sweeps.push((sizes(&[4, 6, 8]), PolicyKind::fig8_set().to_vec()));
    sweeps.push((
        sizes(&[4, 6, 8]),
        vec![
            PolicyKind::FlushSpec(30),
            PolicyKind::FlushSpec(100),
            PolicyKind::Mflush,
        ],
    ));
    sweeps
}

/// One planned request, by the index of its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planned {
    /// The first request for a configuration; must come back
    /// `x-cache: miss`.
    Cold(usize),
    /// A repeated configuration; must come back `x-cache: hit` with the
    /// bytes its cold request got.
    Hit(usize),
}

impl Planned {
    fn config(self) -> usize {
        match self {
            Planned::Cold(k) | Planned::Hit(k) => k,
        }
    }

    /// Every request for one configuration goes to the same client, so
    /// its first answer is in the journal before it is asked again.
    pub fn client(self) -> usize {
        self.config() % CLIENTS
    }
}

/// The seeded inputs of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// `POST /run` body of each distinct configuration, in the order of
    /// its first request.
    pub configs: Vec<String>,
    /// The requests, in `figures all` order.
    pub requests: Vec<Planned>,
}

impl Plan {
    /// Every `figures all` job at `cycles` cycles, simulated with `seed`.
    pub fn new(seed: u64, cycles: u64) -> Plan {
        let mut configs: Vec<String> = Vec::new();
        let mut requests = Vec::new();
        for (workloads, policies) in figure_sweeps() {
            for w in &workloads {
                for p in &policies {
                    let body = format!(
                        "{{\"workload\":\"{}\",\"policy\":\"{}\",\"cycles\":{cycles},\"seed\":{seed}}}",
                        w.name,
                        p.label().to_ascii_lowercase()
                    );
                    match configs.iter().position(|c| *c == body) {
                        Some(k) => requests.push(Planned::Hit(k)),
                        None => {
                            requests.push(Planned::Cold(configs.len()));
                            configs.push(body);
                        }
                    }
                }
            }
        }
        Plan { configs, requests }
    }

    /// Requests answered from the journal.
    pub fn hits(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| matches!(r, Planned::Hit(_)))
            .count()
    }
}

/// A scratch directory inside the build directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let root = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        let dir = PathBuf::from(root)
            .join("benchmark-scratch")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// A path for a journal that does not exist yet.
    fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let path = self.0.join(name);
        match std::fs::remove_file(&path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                Err(format!("remove {}: {e}", path.display()))
            }
            _ => Ok(path),
        }
    }

    /// A fresh copy of `journal` at `name`.
    fn copy_of(&self, journal: &Path, name: &str) -> Result<PathBuf, String> {
        let to = self.0.join(name);
        std::fs::copy(journal, &to).map_err(|e| format!("copy journal: {e}"))?;
        Ok(to)
    }
}

/// The journal every pass's server starts from: the answers of one
/// earlier regeneration, `figures all` at seed `seed + 1`, simulated
/// untimed on [`CLIENTS`] threads and written through `ResultCache` as
/// the server writes them.
fn earlier_journal(seed: u64, cycles: u64, scratch: &Scratch) -> Result<PathBuf, String> {
    let earlier = Plan::new(seed.wrapping_add(1), cycles);
    let mut jobs = Vec::with_capacity(earlier.configs.len());
    for body in &earlier.configs {
        let (cfg, label) = parse_sim_request(body)?;
        jobs.push(SweepJob::new(label, cfg));
    }
    let journal = scratch.fresh("earlier.jsonl")?;
    let mut cache = ResultCache::load_from(&journal);
    for (job, (label, outcome)) in jobs.iter().zip(run_sweep(&jobs, CLIENTS)) {
        if let Err(e) = &outcome {
            return Err(format!("earlier regeneration {label}: {e}"));
        }
        cache.store_outcome(&config_fingerprint(&job.config), &label, &outcome);
    }
    Ok(journal)
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One answered request.
struct Answer {
    status: u16,
    cache: String,
    body: String,
    ms: f64,
}

/// What one HTTP pass measured.
struct HttpPass {
    /// The answers, in plan order.
    answers: Vec<Result<Answer, String>>,
    /// `Server::launch` on the journal copy, seconds.
    launch_s: f64,
}

/// One pass: a server launched on a fresh copy of the `earlier`
/// journal, then every planned request sent by its client, each
/// client's requests in plan order.
fn http_pass(plan: &Plan, earlier: &Path, scratch: &Scratch) -> Result<HttpPass, String> {
    let journal = scratch.copy_of(earlier, "pass.jsonl")?;
    let start = now();
    let handle = Server::launch(ServerConfig {
        cache_path: Some(journal),
        ..ServerConfig::default()
    })?;
    let launch_s = secs_since(start);
    let addr = handle.bound_addr();
    let mut answers: Vec<(usize, Result<Answer, String>)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = &addr;
                s.spawn(move || {
                    plan.requests
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.client() == c)
                        .map(|(i, &r)| {
                            let t = now();
                            let sent =
                                http_post(addr, "/run", &plan.configs[r.config()], TIMEOUT_MS);
                            let ms = secs_since(t) * 1e3;
                            let answer = sent.map(|r| Answer {
                                status: r.status,
                                cache: r.header("x-cache").unwrap_or("").to_string(),
                                body: r.body,
                                ms,
                            });
                            (i, answer)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    handle.begin_drain();
    handle.wait_for_drain();
    answers.sort_by_key(|(i, _)| *i);
    Ok(HttpPass {
        answers: answers.into_iter().map(|(_, a)| a).collect(),
        launch_s,
    })
}

/// Everything the passes of one run observed.
#[derive(Default)]
struct Observed {
    launch_s: Vec<f64>,
    /// Latency of each planned request, one sample per pass, ms.
    ms: Vec<Vec<f64>>,
    /// Each configuration's first cold body and its parsed result;
    /// its hits, and its cold answers in later passes, must repeat the
    /// body.
    cold: Vec<Option<(String, SimResult)>>,
    result_fnv: u64,
}

/// Check one pass's answers against the plan, in plan order, and record
/// their timings. An answer fails on a transport error, a non-200
/// status, the wrong `x-cache`, a cold body that is not a `SimResult`
/// or changed since the first pass, or a hit body that is not its cold
/// request's.
fn check_pass(
    plan: &Plan,
    answers: Vec<Result<Answer, String>>,
    seen: &mut Observed,
    report: &mut Report,
) {
    if seen.ms.is_empty() {
        seen.cold = vec![None; plan.configs.len()];
        seen.ms = vec![Vec::new(); plan.requests.len()];
        let mut all = String::new();
        for a in answers.iter().flatten() {
            all.push_str(&a.body);
        }
        seen.result_fnv = fnv64(all.as_bytes());
    }
    for (i, (&planned, answer)) in plan.requests.iter().zip(answers).enumerate() {
        report.ops += 1;
        if let Err(e) = check_answer(i, planned, answer, seen) {
            report.fail(format!("{planned:?}: {e}"));
        }
    }
}

fn check_answer(
    i: usize,
    planned: Planned,
    answer: Result<Answer, String>,
    seen: &mut Observed,
) -> Result<(), String> {
    let a = answer?;
    if a.status != 200 {
        return Err(format!("answered {}", a.status));
    }
    let (want, k) = match planned {
        Planned::Cold(k) => ("miss", k),
        Planned::Hit(k) => ("hit", k),
    };
    if a.cache != want {
        return Err(format!("x-cache {:?}", a.cache));
    }
    match (&seen.cold[k], planned) {
        (Some((body, _)), _) if *body != a.body => {
            return Err("body differs from the configuration's first answer".into())
        }
        (Some(_), _) => {}
        (None, Planned::Hit(_)) => return Err("its cold request failed".into()),
        (None, Planned::Cold(_)) => {
            let r = parse_json(&a.body)
                .and_then(|v| SimResult::from_json(&v))
                .map_err(|e| format!("body is not a SimResult: {e}"))?;
            seen.cold[k] = Some((a.body, r));
        }
    }
    seen.ms[i].push(a.ms);
    Ok(())
}

/// The configurations re-simulated in-process, by index.
fn resimulated(configs: &[SimConfig]) -> Vec<(usize, SimConfig)> {
    configs
        .iter()
        .cloned()
        .enumerate()
        .step_by(RESIMULATE_EVERY)
        .collect()
}

/// Fail every re-simulated answer that is not byte-identical to the
/// in-process result.
fn check_resimulated(
    results: &[(usize, &SimConfig, String)],
    seen: &Observed,
    report: &mut Report,
) {
    for (k, cfg, json) in results {
        let served = seen.cold[*k].as_ref().map_or("", |(body, _)| body);
        if served.strip_suffix('\n') != Some(json.as_str()) {
            report.fail(format!(
                "config {k} ({}): served body differs from Simulator::run",
                label(cfg)
            ));
        }
    }
}

/// Run the workload for `seconds` at `cycles` per simulation: `trace`
/// selects the per-layer run.
pub fn run(
    seed: u64,
    cycles: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Result<(), String> {
    let plan = Plan::new(seed, cycles);
    let configs: Vec<SimConfig> = plan
        .configs
        .iter()
        .map(|b| parse_sim_request(b).map(|(cfg, _)| cfg))
        .collect::<Result<_, _>>()?;
    let scratch = Scratch::new()?;
    let earlier = earlier_journal(seed, cycles, &scratch)?;
    let mut seen = Observed::default();
    let mut traced = TracedPass::default();
    let resim = resimulated(&configs);

    let passes = crate::run_passes(seconds, if trace { 1 } else { MIN_PASSES }, || {
        let pass = http_pass(&plan, &earlier, &scratch)?;
        seen.launch_s.push(pass.launch_s);
        check_pass(&plan, pass.answers, &mut seen, report);
        if trace {
            let cfgs: Vec<SimConfig> = resim.iter().map(|(_, c)| c.clone()).collect();
            let pass = traced_pass(&cfgs, report);
            let jsons: Vec<_> = resim
                .iter()
                .zip(&pass.results)
                .map(|((k, cfg), r)| (*k, cfg, r.to_json()))
                .collect();
            check_resimulated(&jsons, &seen, report);
            traced.add(pass);
        } else if seen.launch_s.len() == 1 {
            let mut jsons = Vec::with_capacity(resim.len());
            for (k, cfg) in &resim {
                report.ops += 1;
                match run_job(cfg) {
                    Ok(job) => jsons.push((*k, cfg, job.json)),
                    Err(e) => report.fail(format!("resimulate {}: {e}", label(cfg))),
                }
            }
            check_resimulated(&jsons, &seen, report);
        }
        Ok(())
    })?;
    report.passes = passes;

    let cold: Vec<SimResult> = seen.cold.iter().flatten().map(|(_, r)| r.clone()).collect();
    report.counts = sim_counts(&cold);
    report
        .counts
        .push(("serve.requests", plan.requests.len() as f64, "count"));
    report
        .counts
        .push(("serve.hits", plan.hits() as f64, "count"));
    report.result_fnv = seen.result_fnv;

    // Each request's latency is its best repeat over passes: host
    // interference only ever adds time. A pass takes as long as the
    // client with the most work, each client's requests back to back.
    let (mut all, mut hit, mut cold_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut mips, mut mcps) = (Vec::new(), Vec::new());
    let mut client_s = [0.0; CLIENTS];
    for (planned, samples) in plan.requests.iter().zip(&seen.ms) {
        let Some(ms) = best(samples) else { continue };
        client_s[planned.client()] += ms / 1e3;
        all.push(ms);
        match *planned {
            Planned::Hit(_) => hit.push(ms),
            Planned::Cold(k) => {
                cold_ms.push(ms);
                if let Some((_, r)) = &seen.cold[k] {
                    mips.push(r.total_committed() as f64 / ms / 1e3);
                    mcps.push(r.cycles as f64 / ms / 1e3);
                }
            }
        }
    }
    let (hit, cold_ms) = (sorted(hit), sorted(cold_ms));
    if trace {
        crate::layer_metrics(&traced, report);
        let stored: Vec<(String, SimResult)> = configs
            .iter()
            .zip(&seen.cold)
            .filter_map(|(cfg, c)| Some((config_fingerprint(cfg), c.as_ref()?.1.clone())))
            .collect();
        serve_phases(&plan, &scratch, percentile(&hit, 50.0), &stored, report)?;
        report.metric(
            "serve.simulate_ms",
            traced.untraced_total_s / resim.len().max(1) as f64 / report.passes as f64 * 1e3,
            "ms",
        );
        return Ok(());
    }
    report.metric("setup_s", median(&seen.launch_s), "s");
    let pass_s = client_s.iter().copied().fold(0.0, f64::max);
    report.metric("pass_s", pass_s, "s");
    report.metric("sim_mips", median(&mips), "M/s");
    report.metric("sim_mcps", median(&mcps), "M/s");
    report.metric("op_geomean_ms", geomean(&all), "ms");
    report.percentile("hit_p50_ms", &hit, 50.0, "ms");
    report.percentile("hit_p90_ms", &hit, 90.0, "ms");
    report.percentile("cold_p50_ms", &cold_ms, 50.0, "ms");
    report.metric("serve_rps", plan.requests.len() as f64 / pass_s, "1/s");
    Ok(())
}

/// Replay the serve path's phases in-process. Every cold result goes
/// through `ResultCache::store_outcome` into a fresh journal, which is
/// then loaded, and the hit list goes through `parse_sim_request →
/// config_fingerprint → ResultCache::cached → SimResult::to_json`.
/// `serve.http_us` is what the HTTP hit median leaves over.
fn serve_phases(
    plan: &Plan,
    scratch: &Scratch,
    hit_p50_ms: Option<f64>,
    cold: &[(String, SimResult)],
    report: &mut Report,
) -> Result<(), String> {
    let journal = scratch.fresh("phases.jsonl")?;
    let mut cache = ResultCache::load_from(&journal);
    let start = now();
    for (fingerprint, r) in cold {
        cache.store_outcome(fingerprint, "cold", &Ok(r.clone()));
    }
    report.metric(
        "cache.append_us",
        secs_since(start) / cold.len().max(1) as f64 * 1e6,
        "us",
    );
    drop(cache);

    let start = now();
    let cache = ResultCache::load_from(&journal);
    report.metric("cache.load_s", secs_since(start), "s");

    let (mut parse, mut fingerprint, mut lookup, mut json) = (0.0, 0.0, 0.0, 0.0);
    let mut hits = 0;
    for planned in &plan.requests {
        let Planned::Hit(k) = planned else { continue };
        let t = now();
        let (cfg, _) = parse_sim_request(&plan.configs[*k])?;
        let t1 = now();
        let fp = config_fingerprint(&cfg);
        let t2 = now();
        let entry = cache
            .cached(&fp)
            .ok_or("a planned hit is missing from the journal")?;
        let t3 = now();
        let body = entry.outcome.as_ref().ok().map(|r| r.to_json());
        let t4 = now();
        std::hint::black_box(body);
        parse += (t1 - t).as_secs_f64();
        fingerprint += (t2 - t1).as_secs_f64();
        lookup += (t3 - t2).as_secs_f64();
        json += (t4 - t3).as_secs_f64();
        hits += 1;
    }
    let us = |s: f64| s / hits.max(1) as f64 * 1e6;
    report.metric("serve.parse_us", us(parse), "us");
    report.metric("cache.fingerprint_us", us(fingerprint), "us");
    report.metric("cache.lookup_us", us(lookup), "us");
    report.metric("core.to_json_us", us(json), "us");
    if let Some(ms) = hit_p50_ms {
        let inside = us(parse + fingerprint + lookup + json);
        report.metric("serve.http_us", (ms * 1e3 - inside).max(0.0), "us");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_list_is_figures_all() {
        let a = Plan::new(7, FULL_CYCLES);
        assert_eq!(a, Plan::new(7, FULL_CYCLES), "same seed, same inputs");
        let b = Plan::new(8, FULL_CYCLES);
        assert_ne!(a.configs, b.configs, "the seed reaches every request");
        assert_eq!(
            a.requests, b.requests,
            "the figures fix which requests repeat"
        );

        // Figs. 2, 3, 4, 5, 8, 11: 10 + 40 + 20 + 16 + 60 + 45 jobs, of
        // which Figs. 2, 3, 5 and 8 bring 10 + 30 + 15 + 30 new configs.
        assert_eq!(a.requests.len(), 191);
        assert_eq!(a.configs.len(), 85);
        assert_eq!(a.hits(), 106);

        let mut bodies = a.configs.clone();
        bodies.sort();
        bodies.dedup();
        assert_eq!(bodies.len(), a.configs.len(), "configs are distinct");
        for body in &a.configs {
            let (cfg, _) = parse_sim_request(body).expect("every request parses");
            assert_eq!((cfg.cycles, cfg.seed), (FULL_CYCLES, 7));
        }
        for (i, r) in a.requests.iter().enumerate() {
            if let Planned::Hit(k) = r {
                let first = a.requests.iter().position(|x| *x == Planned::Cold(*k));
                assert!(
                    first.is_some_and(|f| f < i),
                    "a hit follows its cold request"
                );
            }
        }
    }
}
