//! End-to-end robustness proof for `smtsim-serve`: every injected
//! fault (slow-loris reads, mid-response drops, torn cache writes,
//! poisoned jobs, queue overload) resolves to its designed degraded
//! behaviour — no panic, no wrong answer, no cross-request
//! corruption. Cached and coalesced answers are asserted
//! **byte-identical** to a fresh in-process run of the same config.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use smtsim_core::{Simulator, ToJson};
use smtsim_serve::request::parse_sim_request;
use smtsim_serve::server::{Server, ServerConfig, ServerHandle, KEEP_ALIVE_IDLE};
use smtsim_serve::{http_get, http_post, ServeFaultPlan};

/// A small, fast request body. Distinct seeds give distinct
/// fingerprints, so tests never share cache state by accident.
fn tiny_body(seed: u64) -> String {
    format!("{{\"workload\":\"2W1\",\"policy\":\"icount\",\"cycles\":2000,\"seed\":{seed}}}")
}

/// What `smtsim run … --json` (and therefore the server) must answer
/// for `body`: the result JSON plus the trailing newline.
fn fresh_answer(body: &str) -> String {
    let (cfg, _label) = parse_sim_request(body).expect("test body is valid");
    let result = Simulator::build(&cfg)
        .expect("builds")
        .run()
        .expect("tiny run succeeds");
    format!("{}\n", result.to_json())
}

/// What the server must answer for a body whose run fails
/// deterministically: the error JSON plus the trailing newline.
fn fresh_error_answer(body: &str) -> String {
    let (cfg, _label) = parse_sim_request(body).expect("test body is valid");
    let err = Simulator::build(&cfg)
        .expect("builds")
        .run()
        .expect_err("the run fails");
    format!("{}\n", err.to_json())
}

fn launch(cfg: ServerConfig) -> ServerHandle {
    Server::launch(cfg).expect("bind 127.0.0.1:0")
}

fn temp_cache(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "smtsim-serve-robust-{}-{tag}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Ask the server to drain via HTTP, then join it.
fn shutdown_and_join(handle: ServerHandle) {
    let addr = handle.bound_addr();
    let r = http_post(&addr, "/shutdown", "", 2_000).expect("shutdown responds");
    assert_eq!(r.status, 200);
    assert_eq!(r.body, "{\"status\":\"draining\"}\n");
    handle.wait_for_drain();
}

#[test]
fn cached_answers_are_byte_identical_to_fresh_runs() {
    let handle = launch(ServerConfig::default());
    let addr = handle.bound_addr();
    let body = tiny_body(101);
    let want = fresh_answer(&body);

    let first = http_post(&addr, "/run", &body, 10_000).expect("first run");
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-cache"), Some("miss"));
    assert_eq!(
        first.body, want,
        "served answer must match `smtsim run --json`"
    );

    let second = http_post(&addr, "/run", &body, 10_000).expect("cached run");
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(second.body, want, "cache replay must be byte-identical");

    let health = http_get(&addr, "/healthz", 2_000).expect("healthz");
    assert_eq!(health.status, 200);
    assert!(
        health.body.contains("\"serve.cache_hits\":1"),
        "{}",
        health.body
    );
    assert!(health.body.contains("\"status\":\"ok\""));

    shutdown_and_join(handle);
}

#[test]
fn bad_requests_get_400_with_hints_and_unknown_paths_404() {
    let handle = launch(ServerConfig::default());
    let addr = handle.bound_addr();

    let typo = http_post(
        &addr,
        "/run",
        "{\"workload\":\"2W1\",\"policy\":\"mflsh\"}",
        5_000,
    )
    .expect("responds");
    assert_eq!(typo.status, 400);
    assert!(typo.body.contains("did you mean 'mflush'"), "{}", typo.body);

    let garbage = http_post(&addr, "/run", "][ not json", 5_000).expect("responds");
    assert_eq!(garbage.status, 400);
    assert!(garbage.body.contains("not JSON"), "{}", garbage.body);

    let lost = http_get(&addr, "/nope", 5_000).expect("responds");
    assert_eq!(lost.status, 404);
    assert!(lost.body.contains("POST /run"), "{}", lost.body);

    shutdown_and_join(handle);
}

#[test]
fn slow_loris_gets_408_and_the_worker_moves_on() {
    let handle = launch(ServerConfig {
        request_timeout_ms: 150,
        ..ServerConfig::default()
    });
    let addr = handle.bound_addr();

    // Half a request line, then silence: the read deadline must fire.
    let mut loris = TcpStream::connect(&addr).expect("connect");
    loris.write_all(b"POST /ru").expect("partial write");
    let mut answer = String::new();
    loris
        .read_to_string(&mut answer)
        .expect("server answers then closes");
    assert!(answer.starts_with("HTTP/1.1 408 "), "{answer}");

    // The worker is free again: a healthy request still succeeds.
    let body = tiny_body(102);
    let ok = http_post(&addr, "/run", &body, 10_000).expect("healthy after loris");
    assert_eq!(ok.status, 200);
    assert_eq!(ok.body, fresh_answer(&body));

    shutdown_and_join(handle);
}

#[test]
fn overload_sheds_429_with_retry_after() {
    // One worker, stalled on request #1; queue holds exactly one more.
    let handle = launch(ServerConfig {
        workers: 1,
        max_queue: 1,
        request_timeout_ms: 10_000,
        fault: ServeFaultPlan {
            stall_response_for: Some(1),
            stall_ms: 900,
            ..ServeFaultPlan::default()
        },
        ..ServerConfig::default()
    });
    let addr = handle.bound_addr();

    let a_addr = addr.clone();
    let a_body = tiny_body(103);
    let a_want = fresh_answer(&a_body);
    let stalled = std::thread::spawn(move || http_post(&a_addr, "/run", &a_body, 20_000));
    std::thread::sleep(Duration::from_millis(200)); // worker is now stalled

    let b_addr = addr.clone();
    let b_body = tiny_body(104);
    let queued = std::thread::spawn(move || http_post(&b_addr, "/run", &b_body, 20_000));
    std::thread::sleep(Duration::from_millis(200)); // B sits in the queue

    // Queue is full: the accept thread must shed, fast.
    let shed = http_post(&addr, "/run", &tiny_body(105), 5_000).expect("shed response");
    assert_eq!(shed.status, 429);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(shed.body.contains("queue is full"), "{}", shed.body);
    assert!(
        handle.service_counters().shed_total.load(Ordering::Relaxed) >= 1,
        "shed must be counted"
    );

    // Degradation is graceful: the stalled and queued requests still
    // finish with correct answers.
    let a = stalled.join().expect("no panic").expect("A succeeds");
    assert_eq!(a.status, 200);
    assert_eq!(a.body, a_want);
    let b = queued.join().expect("no panic").expect("B succeeds");
    assert_eq!(b.status, 200);

    shutdown_and_join(handle);
}

#[test]
fn mid_response_drop_is_a_client_error_not_corruption() {
    let handle = launch(ServerConfig {
        fault: ServeFaultPlan {
            drop_response_for: Some(1),
            ..ServeFaultPlan::default()
        },
        ..ServerConfig::default()
    });
    let addr = handle.bound_addr();
    let body = tiny_body(106);
    let want = fresh_answer(&body);

    let torn = http_post(&addr, "/run", &body, 10_000);
    let err = torn.expect_err("a half-written response must not parse as success");
    assert!(err.contains("truncated"), "{err}");

    // No cross-request corruption: the next request gets the full,
    // byte-identical answer (served from cache — the drop happened
    // after the result was computed and stored).
    let retry = http_post(&addr, "/run", &body, 10_000).expect("retry");
    assert_eq!(retry.status, 200);
    assert_eq!(retry.body, want);
    assert_eq!(retry.header("x-cache"), Some("hit"));

    shutdown_and_join(handle);
}

#[test]
fn panicked_jobs_answer_500_and_are_not_cached() {
    let handle = launch(ServerConfig {
        fault: ServeFaultPlan {
            poison_job_for: Some(1),
            ..ServeFaultPlan::default()
        },
        ..ServerConfig::default()
    });
    let addr = handle.bound_addr();
    let body = tiny_body(108);

    let failed = http_post(&addr, "/run", &body, 30_000).expect("responds");
    assert_eq!(failed.status, 500);
    assert!(failed.body.contains("job_panicked"), "{}", failed.body);
    assert_eq!(failed.header("x-cache"), Some("miss"));
    // One attempt, and the injected panic stood in for it: nothing ran.
    let c = handle.service_counters();
    assert_eq!(c.jobs_simulated.load(Ordering::Relaxed), 0);

    // A panic is not cached: the same config (ordinal 2, no longer
    // poisoned) now simulates and succeeds.
    let recovered = http_post(&addr, "/run", &body, 30_000).expect("responds");
    assert_eq!(recovered.status, 200);
    assert_eq!(recovered.header("x-cache"), Some("miss"));
    assert_eq!(recovered.body, fresh_answer(&body));
    assert_eq!(c.jobs_simulated.load(Ordering::Relaxed), 1);

    shutdown_and_join(handle);
}

#[test]
fn deterministic_failures_are_answered_once_and_not_retried() {
    let handle = launch(ServerConfig::default());
    let addr = handle.bound_addr();
    // A 1-cycle watchdog fires before the first commit: the watchdog
    // counts simulated cycles, so every attempt would fail identically.
    let body =
        "{\"workload\":\"2W1\",\"policy\":\"icount\",\"cycles\":2000,\"seed\":109,\"watchdog_cycles\":1}";
    let failed = http_post(&addr, "/run", body, 30_000).expect("responds");
    assert_eq!(failed.status, 500);
    assert!(
        failed.body.contains("no_forward_progress"),
        "{}",
        failed.body
    );
    let c = handle.service_counters();
    assert_eq!(c.jobs_simulated.load(Ordering::Relaxed), 1);

    shutdown_and_join(handle);
}

#[test]
fn identical_inflight_requests_coalesce_to_one_simulation() {
    // Stall request #1 before it checks the cache, so #2 (same
    // config, other worker) leads and #1 follows — either way, the
    // pair must cost exactly one simulation.
    let handle = launch(ServerConfig {
        workers: 2,
        fault: ServeFaultPlan {
            stall_response_for: Some(1),
            stall_ms: 250,
            ..ServeFaultPlan::default()
        },
        ..ServerConfig::default()
    });
    let addr = handle.bound_addr();
    let body = tiny_body(109);
    let want = fresh_answer(&body);

    let (a1, b1) = (addr.clone(), body.clone());
    let t1 = std::thread::spawn(move || http_post(&a1, "/run", &b1, 30_000));
    let (a2, b2) = (addr.clone(), body.clone());
    let t2 = std::thread::spawn(move || http_post(&a2, "/run", &b2, 30_000));

    let r1 = t1.join().expect("no panic").expect("responds");
    let r2 = t2.join().expect("no panic").expect("responds");
    assert_eq!((r1.status, r2.status), (200, 200));
    assert_eq!(r1.body, want);
    assert_eq!(r2.body, want, "coalesced answer must be byte-identical");
    assert_eq!(
        handle
            .service_counters()
            .jobs_simulated
            .load(Ordering::Relaxed),
        1,
        "identical in-flight configs must never re-simulate"
    );

    shutdown_and_join(handle);
}

#[test]
fn drain_refuses_new_work_finishes_old_and_persists_the_cache() {
    let cache = temp_cache("drain");
    let handle = launch(ServerConfig {
        cache_path: Some(cache.clone()),
        ..ServerConfig::default()
    });
    let addr = handle.bound_addr();
    let body = tiny_body(110);
    let want = fresh_answer(&body);

    let first = http_post(&addr, "/run", &body, 10_000).expect("first run");
    assert_eq!(first.status, 200);

    let bye = http_post(&addr, "/shutdown", "", 5_000).expect("shutdown");
    assert_eq!(bye.status, 200);

    // New work is refused once the drain is observed (the very first
    // post-shutdown accept can race the flag; retry a few times).
    let mut refused = None;
    for _ in 0..50 {
        match http_post(&addr, "/run", &tiny_body(111), 5_000) {
            Ok(r) if r.status == 503 => {
                refused = Some(r);
                break;
            }
            Ok(_) | Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let refused = refused.expect("draining server must eventually shed 503");
    assert_eq!(refused.header("retry-after"), Some("1"));
    assert!(refused.body.contains("draining"), "{}", refused.body);

    handle.wait_for_drain();

    // The journal survived the drain and replays byte-identically.
    let reloaded = smtsim_core::ResultCache::load_from(&cache);
    assert!(reloaded.entry_count() >= 1);
    assert_eq!(reloaded.skipped_lines(), 0);
    let (cfg, _) = parse_sim_request(&body).expect("valid");
    let fp = smtsim_core::config_fingerprint(&cfg);
    let entry = reloaded.cached(&fp).expect("served result was persisted");
    let replay = entry.outcome.as_ref().expect("it was a success");
    assert_eq!(format!("{}\n", replay.to_json()), want);
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn torn_cache_write_recovers_on_restart_byte_identically() {
    let cache = temp_cache("torn");
    let body = tiny_body(112);

    // First server: the cache append for request #1 is torn in half
    // (as a kill -9 mid-append would leave it). The response itself
    // is unaffected.
    let first_answer = {
        let handle = launch(ServerConfig {
            cache_path: Some(cache.clone()),
            fault: ServeFaultPlan {
                torn_cache_write_for: Some(1),
                ..ServeFaultPlan::default()
            },
            ..ServerConfig::default()
        });
        let addr = handle.bound_addr();
        let r = http_post(&addr, "/run", &body, 10_000).expect("first server run");
        assert_eq!(r.status, 200);
        shutdown_and_join(handle);
        r.body
    };
    assert_eq!(first_answer, fresh_answer(&body));

    // Second server, same journal: the torn line is skipped (and
    // logged), the config re-simulates, and the answer is
    // byte-identical to the first server's.
    let handle = launch(ServerConfig {
        cache_path: Some(cache.clone()),
        ..ServerConfig::default()
    });
    let addr = handle.bound_addr();
    let r = http_post(&addr, "/run", &body, 10_000).expect("second server run");
    assert_eq!(r.status, 200);
    assert_eq!(
        r.header("x-cache"),
        Some("miss"),
        "torn line must not serve"
    );
    assert_eq!(r.body, first_answer, "recovery must be byte-identical");

    // And now it IS persisted: a third query hits the cache.
    let again = http_post(&addr, "/run", &body, 10_000).expect("third query");
    assert_eq!(again.header("x-cache"), Some("hit"));
    assert_eq!(again.body, first_answer);
    shutdown_and_join(handle);

    let reloaded = smtsim_core::ResultCache::load_from(&cache);
    assert_eq!(reloaded.skipped_lines(), 1, "the torn line is logged");
    let _ = std::fs::remove_file(&cache);
}

/// A counter's value in a `/healthz` body.
fn healthz_counter(body: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let at = body.find(&key).expect("counter is reported") + key.len();
    body[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|digits| digits.parse().ok())
        .expect("counter is a number")
}

#[test]
fn one_thread_reuses_one_connection() {
    let handle = launch(ServerConfig::default());
    let addr = handle.bound_addr();
    let body = tiny_body(113);
    let want = fresh_answer(&body);

    for i in 0..10 {
        let r = http_post(&addr, "/run", &body, 10_000).expect("answered");
        assert_eq!(r.status, 200);
        assert_eq!(r.header("connection"), Some("keep-alive"));
        assert_eq!(
            r.header("x-cache"),
            Some(if i == 0 { "miss" } else { "hit" })
        );
        assert_eq!(r.body, want, "answer {i} must match `smtsim run --json`");
    }
    let health = http_get(&addr, "/healthz", 2_000).expect("healthz");
    assert_eq!(healthz_counter(&health.body, "serve.connections_total"), 1);
    assert_eq!(healthz_counter(&health.body, "serve.requests_total"), 11);

    shutdown_and_join(handle);
}

#[test]
fn idle_connection_closed_by_the_server_is_resent_once() {
    // One worker, so once another client is answered the worker has
    // let go of this thread's idle connection.
    let handle = launch(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let addr = handle.bound_addr();
    let body = tiny_body(114);
    let want = fresh_answer(&body);

    let first = http_post(&addr, "/run", &body, 10_000).expect("first run");
    assert_eq!(first.header("connection"), Some("keep-alive"));
    std::thread::sleep(KEEP_ALIVE_IDLE * 2);
    let other = addr.clone();
    std::thread::spawn(move || http_get(&other, "/healthz", 10_000))
        .join()
        .expect("no panic")
        .expect("the worker left the idle connection for a new one");

    let again = http_post(&addr, "/run", &body, 10_000).expect("resent on a fresh connection");
    assert_eq!(again.status, 200);
    assert_eq!(again.header("x-cache"), Some("hit"));
    assert_eq!(again.body, want);
    let c = handle.service_counters();
    assert_eq!(
        c.connections_total.load(Ordering::Relaxed),
        3,
        "the first connection, the other client's, and the resend's"
    );
    assert_eq!(c.requests_total.load(Ordering::Relaxed), 3);

    shutdown_and_join(handle);
}

#[test]
fn an_idle_kept_connection_does_not_starve_a_new_client() {
    // One worker, and a request timeout far past the test's patience:
    // only the idle bound can free the worker for the second client.
    let handle = launch(ServerConfig {
        workers: 1,
        request_timeout_ms: 30_000,
        ..ServerConfig::default()
    });
    let addr = handle.bound_addr();

    let (a_addr, a_body) = (addr.clone(), tiny_body(115));
    let a_want = fresh_answer(&a_body);
    let (kept_tx, kept_rx) = std::sync::mpsc::channel();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let holder = std::thread::spawn(move || {
        let r = http_post(&a_addr, "/run", &a_body, 10_000).expect("first client answered");
        kept_tx
            .send(r.header("connection").map(str::to_string))
            .expect("send");
        // Hold the idle connection open until the second client is done,
        // then post on it again: the server let it go, so the request is
        // resent on a fresh connection.
        let _ = done_rx.recv();
        http_post(&a_addr, "/run", &a_body, 10_000)
    });
    let kept = kept_rx.recv().expect("first client reports");
    assert_eq!(kept.as_deref(), Some("keep-alive"));

    let body = tiny_body(116);
    let second = http_post(&addr, "/run", &body, 5_000).expect("second client answered");
    assert_eq!(second.status, 200);
    assert_eq!(second.body, fresh_answer(&body));

    // The worker is waiting on the holder's idle connection again; a
    // new client ends that wait at once instead of after it expires,
    // so its read deadline of half the idle bound is met.
    let other = addr.clone();
    let patience = (KEEP_ALIVE_IDLE / 2).as_millis() as u64;
    let health = std::thread::spawn(move || http_get(&other, "/healthz", patience))
        .join()
        .expect("no panic")
        .expect("a new client is answered within half the idle bound");
    assert_eq!(health.status, 200);

    done_tx.send(()).expect("holder waits");
    let again = holder
        .join()
        .expect("no panic")
        .expect("the holder's next post is resent");
    assert_eq!(again.status, 200);
    assert_eq!(again.header("x-cache"), Some("hit"));
    assert_eq!(again.body, a_want);

    shutdown_and_join(handle);
}

#[test]
fn connection_close_request_gets_close_and_eof() {
    let handle = launch(ServerConfig::default());
    let addr = handle.bound_addr();

    let mut raw = TcpStream::connect(&addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    raw.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .expect("send");
    let mut answer = String::new();
    raw.read_to_string(&mut answer)
        .expect("the server answers, then closes");
    assert!(answer.starts_with("HTTP/1.1 200 "), "{answer}");
    assert!(answer.contains("\r\nConnection: close\r\n"), "{answer}");

    shutdown_and_join(handle);
}

#[test]
fn drop_aimed_at_the_second_request_on_a_kept_connection() {
    let handle = launch(ServerConfig {
        fault: ServeFaultPlan {
            drop_response_for: Some(2),
            ..ServeFaultPlan::default()
        },
        ..ServerConfig::default()
    });
    let addr = handle.bound_addr();
    let body = tiny_body(117);
    let want = fresh_answer(&body);

    let first = http_post(&addr, "/run", &body, 10_000).expect("first run");
    assert_eq!(first.body, want);
    assert_eq!(first.header("connection"), Some("keep-alive"));

    let torn = http_post(&addr, "/run", &body, 10_000);
    let err = torn.expect_err("a half-written response must not parse as success");
    assert!(err.contains("truncated"), "{err}");
    let c = handle.service_counters();
    assert_eq!(
        c.connections_total.load(Ordering::Relaxed),
        1,
        "the dropped answer was the second on the first connection"
    );

    let retry = http_post(&addr, "/run", &body, 10_000).expect("retry");
    assert_eq!(retry.status, 200);
    assert_eq!(retry.header("x-cache"), Some("hit"));
    assert_eq!(retry.body, want);

    shutdown_and_join(handle);
}

#[test]
fn every_way_an_answer_leaves_the_server_is_byte_identical() {
    let cache = temp_cache("answers");
    let body = tiny_body(118);
    let want = fresh_answer(&body);
    let failing =
        "{\"workload\":\"2W1\",\"policy\":\"icount\",\"cycles\":2000,\"seed\":118,\"watchdog_cycles\":1}";
    let want_error = fresh_error_answer(failing);
    let answered = |addr: &str, body: &str, status: u16, cache: &str, want: &str| {
        let r = http_post(addr, "/run", body, 30_000).expect("answered");
        assert_eq!((r.status, r.header("x-cache")), (status, Some(cache)));
        assert_eq!(
            r.body, want,
            "{cache} answer must match `smtsim run --json`"
        );
    };

    let handle = launch(ServerConfig {
        cache_path: Some(cache.clone()),
        ..ServerConfig::default()
    });
    let addr = handle.bound_addr();
    answered(&addr, &body, 200, "miss", &want);
    answered(&addr, &body, 200, "hit", &want);
    answered(&addr, failing, 500, "miss", &want_error);
    answered(&addr, failing, 500, "hit", &want_error);

    // Two identical requests at once: one leads, the other follows.
    // A follower that arrives after the leader stored its answer is a
    // hit instead, so try a few long-running configs until one
    // coalesces; every answer must match either way.
    let mut coalesced = false;
    for seed in 0..5 {
        let body = format!(
            "{{\"workload\":\"2W1\",\"policy\":\"icount\",\"cycles\":60000,\"seed\":{}}}",
            1180 + seed
        );
        let want = fresh_answer(&body);
        let gate = Arc::new(Barrier::new(2));
        let pair: Vec<_> = (0..2)
            .map(|_| {
                let (addr, body, gate) = (addr.clone(), body.clone(), Arc::clone(&gate));
                std::thread::spawn(move || {
                    gate.wait();
                    http_post(&addr, "/run", &body, 30_000)
                })
            })
            .collect();
        for t in pair {
            let r = t.join().expect("no panic").expect("answered");
            assert_eq!(r.status, 200);
            assert_eq!(r.body, want, "a coalesced answer must be byte-identical");
            coalesced |= r.header("x-cache") == Some("coalesced");
        }
        if coalesced {
            break;
        }
    }
    assert!(coalesced, "no request followed an in-flight leader");
    shutdown_and_join(handle);

    // A restarted server answers from entries loaded from the journal:
    // the first hit decodes the line, the second reuses the entry. Two
    // first hits at once on one entry both wait for its one decode.
    let handle = launch(ServerConfig {
        cache_path: Some(cache.clone()),
        ..ServerConfig::default()
    });
    let addr = handle.bound_addr();
    let gate = Arc::new(Barrier::new(2));
    let pair: Vec<_> = (0..2)
        .map(|_| {
            let (addr, body, gate) = (addr.clone(), body.clone(), Arc::clone(&gate));
            std::thread::spawn(move || {
                gate.wait();
                http_post(&addr, "/run", &body, 30_000)
            })
        })
        .collect();
    for t in pair {
        let r = t.join().expect("no panic").expect("answered");
        assert_eq!((r.status, r.header("x-cache")), (200, Some("hit")));
        assert_eq!(
            r.body, want,
            "a concurrent first hit must be byte-identical"
        );
    }
    for _ in 0..2 {
        answered(&addr, &body, 200, "hit", &want);
        answered(&addr, failing, 500, "hit", &want_error);
    }
    assert_eq!(
        handle
            .service_counters()
            .jobs_simulated
            .load(Ordering::Relaxed),
        0,
        "every answer replayed"
    );
    shutdown_and_join(handle);
    let _ = std::fs::remove_file(&cache);
}
