//! The server: bounded accept queue, worker pool, fingerprint cache,
//! in-flight dedup, graceful drain.
//!
//! Threading model: one accept thread pushes connections into a
//! bounded queue (shedding 429 when full, 503 while draining); N
//! worker threads pop connections and run the whole request lifecycle
//! inline. No async, no clocks — all waits are `Condvar` timeouts or
//! socket timeouts, so the crate stays D2-clean.
//!
//! Panic-freedom is a design rule here, not an aspiration: every
//! mutex lock recovers from poisoning, every socket error maps to a
//! response or a dropped connection, and simulation panics are
//! already absorbed by `run_sweep`'s supervisor into
//! `SimError::JobPanicked`.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use smtsim_core::cache::{config_fingerprint, format_cache_line, ResultCache};
use smtsim_core::json::write_escaped;
use smtsim_core::sweep::JobOutcome;
use smtsim_core::{run_sweep, SimConfig, SimError, SweepJob, ToJson};

use crate::fault::ServeFaultPlan;
use crate::http::{read_http_request, respond_http, respond_http_truncated, HttpError};
use crate::metrics::ServeCounters;

/// Everything a server instance needs to know at launch.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Cache journal path; `None` serves from memory only.
    pub cache_path: Option<PathBuf>,
    /// Accepted-but-unclaimed connection bound; beyond it, shed 429.
    pub max_queue: usize,
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Socket read/write timeout per request, ms (0 = unbounded).
    pub request_timeout_ms: u64,
    /// Tests-only fault injection; `Default` injects nothing.
    pub fault: ServeFaultPlan,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: String::from("127.0.0.1:0"),
            cache_path: None,
            max_queue: 16,
            workers: 2,
            request_timeout_ms: 2_000,
            fault: ServeFaultPlan::default(),
        }
    }
}

/// One in-flight simulation that followers with the same fingerprint
/// block on instead of re-simulating.
#[derive(Default)]
struct Inflight {
    done: Mutex<Option<JobOutcome>>,
    cv: Condvar,
}

/// State shared by the accept thread and every worker.
struct Shared {
    cfg: ServerConfig,
    counters: ServeCounters,
    cache: Mutex<ResultCache>,
    inflight: Mutex<BTreeMap<String, Arc<Inflight>>>,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    draining: AtomicBool,
    accept_stop: AtomicBool,
    served: std::sync::atomic::AtomicU64,
}

/// Lock a mutex, recovering the data if a holder panicked. The server
/// must keep answering even if some thread died mid-update.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Namespace for [`Server::launch`].
pub struct Server;

impl Server {
    /// Bind, spawn the worker pool and the accept thread, and return
    /// a handle. Fails only if the bind itself fails.
    pub fn launch(cfg: ServerConfig) -> Result<ServerHandle, String> {
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let cache = match &cfg.cache_path {
            Some(p) => ResultCache::load_from(p),
            None => ResultCache::in_memory(),
        };
        let worker_count = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            cfg,
            counters: ServeCounters::default(),
            cache: Mutex::new(cache),
            inflight: Mutex::new(BTreeMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            accept_stop: AtomicBool::new(false),
            served: std::sync::atomic::AtomicU64::new(0),
        });
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let s = Arc::clone(&shared);
            let spawned = thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&s))
                .map_err(|e| format!("spawn worker: {e}"))?;
            workers.push(spawned);
        }
        let s = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name(String::from("serve-accept"))
            .spawn(move || accept_loop(&s, &listener))
            .map_err(|e| format!("spawn accept thread: {e}"))?;
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }
}

/// Owner of a running server's threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves a `:0` bind).
    pub fn bound_addr(&self) -> String {
        self.addr.to_string()
    }

    /// Live service counters (the same ones `/healthz` reports).
    pub fn service_counters(&self) -> &ServeCounters {
        &self.shared.counters
    }

    /// Start draining without an HTTP round-trip (tests and signal
    /// handlers; clients use `POST /shutdown`).
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
    }

    /// Block until a drain was requested and completed: workers
    /// finish the queued work and exit, the accept thread is woken
    /// and joined, and the cache journal is fsynced.
    pub fn wait_for_drain(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.accept_stop.store(true, Ordering::SeqCst);
        // The accept thread is parked in accept(); a throwaway
        // connection to ourselves unblocks it so it can observe the
        // stop flag.
        if let Ok(s) = TcpStream::connect(self.addr) {
            drop(s);
        }
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        lock_clean(&self.shared.cache).sync_to_disk();
    }
}

/// Accept loop: shed while draining, shed when the queue is full,
/// otherwise enqueue for the workers.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for conn in listener.incoming() {
        if shared.accept_stop.load(Ordering::SeqCst) {
            break;
        }
        let mut stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        let _ = stream.set_write_timeout(Some(Duration::from_millis(1_000)));
        if shared.draining.load(Ordering::SeqCst) {
            ServeCounters::bump_tally(&shared.counters.shed_total);
            shed(
                &mut stream,
                503,
                "Service Unavailable",
                "{\"error\":\"server is draining; no new work accepted\"}\n",
            );
            continue;
        }
        let mut q = lock_clean(&shared.queue);
        if q.len() >= shared.cfg.max_queue {
            drop(q);
            ServeCounters::bump_tally(&shared.counters.shed_total);
            shed(
                &mut stream,
                429,
                "Too Many Requests",
                "{\"error\":\"request queue is full; retry shortly\"}\n",
            );
            continue;
        }
        q.push_back(stream);
        shared
            .counters
            .queue_depth
            .store(q.len() as u64, Ordering::Relaxed);
        drop(q);
        shared.queue_cv.notify_one();
    }
}

/// Refuse a connection from the accept thread. Its request was never
/// read, and closing a socket with unread input makes the kernel send
/// a reset, which can destroy the response before the client reads
/// it. So respond, half-close, and drain what the client sent before
/// the stream drops; the drain is bounded in reads and by a short read
/// timeout, so a slow client cannot stall the accept loop for long.
fn shed(stream: &mut TcpStream, status: u16, reason: &str, body: &str) {
    respond_http(stream, status, reason, &[("Retry-After", "1")], body);
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 4096];
    for _ in 0..16 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Worker loop: pop a connection, serve it, repeat; exit once the
/// server is draining and the queue is empty (queued-before-drain
/// requests still get answers).
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let popped = {
            let mut q = lock_clean(&shared.queue);
            loop {
                if let Some(s) = q.pop_front() {
                    shared
                        .counters
                        .queue_depth
                        .store(q.len() as u64, Ordering::Relaxed);
                    break Some(s);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .0;
            }
        };
        match popped {
            Some(mut stream) => handle_conn(shared, &mut stream),
            None => return,
        }
    }
}

/// Serve one connection end to end.
fn handle_conn(shared: &Arc<Shared>, stream: &mut TcpStream) {
    let ordinal = shared.served.fetch_add(1, Ordering::SeqCst) + 1;
    let timeout = (shared.cfg.request_timeout_ms > 0)
        .then(|| Duration::from_millis(shared.cfg.request_timeout_ms));
    let _ = stream.set_read_timeout(timeout);
    let _ = stream.set_write_timeout(timeout);

    let req = match read_http_request(stream) {
        Ok(r) => r,
        Err(HttpError::TimedOut) => {
            respond_http(
                stream,
                408,
                "Request Timeout",
                &[],
                "{\"error\":\"request read timed out\"}\n",
            );
            return;
        }
        Err(HttpError::TooLarge) => {
            respond_http(
                stream,
                413,
                "Payload Too Large",
                &[],
                "{\"error\":\"request exceeds size limits\"}\n",
            );
            return;
        }
        Err(HttpError::Malformed(m)) => {
            respond_http(stream, 400, "Bad Request", &[], &error_body(&m));
            return;
        }
        // The peer hung up; there is nobody to answer.
        Err(HttpError::Closed) => return,
    };

    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let draining = shared.draining.load(Ordering::SeqCst);
            respond_http(
                stream,
                200,
                "OK",
                &[],
                &shared.counters.healthz_json(draining),
            );
        }
        ("POST", "/shutdown") => {
            respond_http(stream, 200, "OK", &[], "{\"status\":\"draining\"}\n");
            shared.draining.store(true, Ordering::SeqCst);
            shared.queue_cv.notify_all();
        }
        ("POST", "/run") => {
            let body = String::from_utf8_lossy(&req.body).into_owned();
            handle_run(shared, stream, ordinal, &body);
        }
        (_, path) => {
            let mut msg = String::from("no such endpoint ");
            msg.push_str(path);
            msg.push_str("; try POST /run, GET /healthz, POST /shutdown");
            respond_http(stream, 404, "Not Found", &[], &error_body(&msg));
        }
    }
}

/// `{"error":"…"}` body with proper escaping, newline-terminated like
/// every other body the server writes.
fn error_body(message: &str) -> String {
    let mut out = String::from("{\"error\":");
    write_escaped(&mut out, message);
    out.push_str("}\n");
    out
}

/// The `POST /run` lifecycle: validate, fingerprint, consult cache,
/// dedup in-flight, simulate, persist, answer.
fn handle_run(shared: &Arc<Shared>, stream: &mut TcpStream, ordinal: u64, body: &str) {
    if let Some(ms) = shared.cfg.fault.wants_response_stall(ordinal) {
        thread::sleep(Duration::from_millis(ms));
    }
    let (cfg, label) = match crate::request::parse_sim_request(body) {
        Ok(parsed) => parsed,
        Err(msg) => {
            respond_http(stream, 400, "Bad Request", &[], &error_body(&msg));
            return;
        }
    };
    let fingerprint = config_fingerprint(&cfg);

    // A hit renders its body from the cached entry under the lock; the
    // lock is released before the answer is written.
    let hit = lock_clean(&shared.cache)
        .cached(&fingerprint)
        .map(|entry| render_outcome(&entry.outcome));
    if let Some(answer) = hit {
        ServeCounters::bump_tally(&shared.counters.cache_hits);
        respond_outcome(shared, stream, ordinal, answer, "hit");
        return;
    }

    // Leader simulates; followers with the same fingerprint wait on
    // the leader's slot and never re-simulate.
    let (slot, leader) = {
        let mut inflight = lock_clean(&shared.inflight);
        match inflight.get(&fingerprint) {
            Some(existing) => (Arc::clone(existing), false),
            None => {
                let fresh = Arc::new(Inflight::default());
                inflight.insert(fingerprint.clone(), Arc::clone(&fresh));
                (fresh, true)
            }
        }
    };
    ServeCounters::bump_tally(&shared.counters.cache_misses);

    if !leader {
        let answer = {
            let mut done = lock_clean(&slot.done);
            loop {
                if let Some(outcome) = done.as_ref() {
                    break render_outcome(outcome);
                }
                done = slot
                    .cv
                    .wait_timeout(done, Duration::from_millis(50))
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .0;
            }
        };
        respond_outcome(shared, stream, ordinal, answer, "coalesced");
        return;
    }

    let outcome = execute(shared, &cfg, &label, ordinal);
    persist_outcome(shared, ordinal, &label, &fingerprint, &outcome);
    {
        let mut done = lock_clean(&slot.done);
        *done = Some(outcome.clone());
        slot.cv.notify_all();
    }
    lock_clean(&shared.inflight).remove(&fingerprint);
    respond_outcome(shared, stream, ordinal, render_outcome(&outcome), "miss");
}

/// Run the job once. A panic comes back as `SimError::JobPanicked`
/// (answered 500 and never cached); it is not retried, because a
/// simulation is a pure function of its config.
fn execute(shared: &Arc<Shared>, cfg: &SimConfig, label: &str, ordinal: u64) -> JobOutcome {
    if shared.cfg.fault.wants_poisoned_job(ordinal) {
        return Err(SimError::JobPanicked {
            label: label.to_string(),
            payload: String::from("injected poison (ServeFaultPlan)"),
        });
    }
    ServeCounters::bump_tally(&shared.counters.jobs_simulated);
    let job = SweepJob::new(label, cfg.clone());
    match run_sweep(std::slice::from_ref(&job), 1).pop() {
        Some((_, outcome)) => outcome,
        None => Err(SimError::InvalidConfig(String::from(
            "sweep returned no outcome",
        ))),
    }
}

/// Record the outcome in the cache (which drops a panic: a later
/// request simulates afresh rather than replay it). The torn-write
/// fault swaps the append for half a line and skips the in-memory
/// insert, leaving exactly what a kill -9 mid-append leaves.
fn persist_outcome(
    shared: &Arc<Shared>,
    ordinal: u64,
    label: &str,
    fingerprint: &str,
    outcome: &JobOutcome,
) {
    let mut cache = lock_clean(&shared.cache);
    if shared.cfg.fault.wants_torn_cache_write(ordinal) {
        if let Some(path) = cache.backing_path() {
            let line = format_cache_line(cache.next_seq(), label, fingerprint, outcome);
            let torn = &line.as_bytes()[..line.len() / 2];
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(torn));
            if let Err(e) = appended {
                eprintln!("warning: torn-write injection failed: {e}");
            }
        }
        return;
    }
    cache.store_outcome(fingerprint, label, outcome);
}

/// The status, reason and body that answer `outcome`: 200 +
/// `SimResult` JSON (byte-identical to `smtsim run --json`) or 500 +
/// `SimError` JSON.
fn render_outcome(outcome: &JobOutcome) -> (u16, &'static str, String) {
    let mut body = String::new();
    let (status, reason) = match outcome {
        Ok(result) => {
            result.write_json(&mut body);
            (200, "OK")
        }
        Err(err) => {
            err.write_json(&mut body);
            (500, "Internal Server Error")
        }
    };
    body.push('\n');
    (status, reason, body)
}

/// Write a rendered answer. `X-Cache` says how it was produced
/// (`hit`/`miss`/`coalesced`).
fn respond_outcome(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    ordinal: u64,
    (status, reason, body): (u16, &str, String),
    cache_state: &str,
) {
    let headers = [("X-Cache", cache_state)];
    if shared.cfg.fault.wants_response_drop(ordinal) {
        respond_http_truncated(stream, status, reason, &headers, &body);
    } else {
        respond_http(stream, status, reason, &headers, &body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bodies_escape_quotes() {
        let b = error_body("unknown workload '2\"W'");
        assert_eq!(b, "{\"error\":\"unknown workload '2\\\"W'\"}\n");
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ServerConfig::default();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert!(cfg.max_queue > 0);
        assert!(cfg.workers > 0);
    }
}
