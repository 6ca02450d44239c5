//! The server: bounded accept queue, worker pool, fingerprint cache,
//! in-flight dedup, graceful drain.
//!
//! Threading model: one accept thread pushes connections into a
//! bounded queue (shedding 429 when full, 503 while draining); N
//! worker threads pop connections and run the whole request lifecycle
//! inline. A worker keeps a connection for the client's next request
//! while nothing waits in the queue (see [`KEEP_ALIVE_IDLE`]). No
//! async, no clocks — all waits are `Condvar` timeouts or socket
//! timeouts, so the crate stays D2-clean.
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
use crate::http::{
    read_http_request, respond_http, respond_http_truncated, HttpError, HttpRequest,
};
use crate::metrics::ServeCounters;

/// How long a kept connection may sit idle before the first byte of
/// its next request; after that the worker closes it and goes back to
/// the queue. It equals the workers' queue-poll interval, so a kept
/// connection delays a newly queued one by no more than an idle worker
/// would. Once the first byte is in, `request_timeout_ms` applies.
pub const KEEP_ALIVE_IDLE: Duration = Duration::from_millis(50);

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
        ServeCounters::bump_tally(&shared.counters.connections_total);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(Duration::from_millis(1_000)));
        if shared.draining.load(Ordering::SeqCst) {
            shed_draining(shared, &mut stream);
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

/// Refuse work with 503 because the server is draining.
fn shed_draining(shared: &Shared, stream: &mut TcpStream) {
    ServeCounters::bump_tally(&shared.counters.shed_total);
    shed(
        stream,
        503,
        "Service Unavailable",
        "{\"error\":\"server is draining; no new work accepted\"}\n",
    );
}

/// Refuse a connection from the accept thread. Its request was never
/// read, and closing a socket with unread input makes the kernel send
/// a reset, which can destroy the response before the client reads
/// it. So respond, half-close, and drain what the client sent before
/// the stream drops; the drain is bounded in reads and by a short read
/// timeout, so a slow client cannot stall the accept loop for long.
fn shed(stream: &mut TcpStream, status: u16, reason: &str, body: &str) {
    respond_http(stream, status, reason, &[("Retry-After", "1")], body, false);
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

/// Serve one connection: its first request, then every later request
/// the client sends on it while each answer leaves it open.
fn handle_conn(shared: &Arc<Shared>, stream: &mut TcpStream) {
    let timeout = (shared.cfg.request_timeout_ms > 0)
        .then(|| Duration::from_millis(shared.cfg.request_timeout_ms));
    let _ = stream.set_write_timeout(timeout);
    let mut pending = Vec::new();
    loop {
        let _ = stream.set_read_timeout(timeout);
        if !serve_request(shared, stream, &mut pending) {
            return;
        }
        // Wait for the next request's first byte, unless it is already
        // in. A peer that hangs up or stays quiet is let go.
        if pending.is_empty() {
            let _ = stream.set_read_timeout(Some(KEEP_ALIVE_IDLE));
            if !matches!(stream.peek(&mut [0u8]), Ok(n) if n > 0) {
                return;
            }
        }
        if shared.draining.load(Ordering::SeqCst) {
            shed_draining(shared, stream);
            return;
        }
    }
}

/// Read one request and answer it. True when the answer left the
/// connection open for another request: the client did not ask to
/// close, the answer went out whole and was not a 400, the server is
/// not draining and no connection waits in the queue. Read errors
/// (408, 413, a malformed request's 400) always close.
fn serve_request(shared: &Arc<Shared>, stream: &mut TcpStream, pending: &mut Vec<u8>) -> bool {
    let req = match read_http_request(stream, pending) {
        Ok(r) => r,
        Err(HttpError::TimedOut) => {
            respond_http(
                stream,
                408,
                "Request Timeout",
                &[],
                "{\"error\":\"request read timed out\"}\n",
                false,
            );
            return false;
        }
        Err(HttpError::TooLarge) => {
            respond_http(
                stream,
                413,
                "Payload Too Large",
                &[],
                "{\"error\":\"request exceeds size limits\"}\n",
                false,
            );
            return false;
        }
        Err(HttpError::Malformed(m)) => {
            respond_http(stream, 400, "Bad Request", &[], &error_body(&m), false);
            return false;
        }
        // The peer hung up; there is nobody to answer.
        Err(HttpError::Closed) => return false,
    };
    let ordinal = shared
        .counters
        .requests_total
        .fetch_add(1, Ordering::SeqCst)
        + 1;
    let reply = route(shared, &req, ordinal);
    let cache_header = reply.cache.map(|state| ("X-Cache", state));
    let headers = cache_header.as_slice();
    if shared.cfg.fault.wants_response_drop(ordinal) {
        respond_http_truncated(stream, reply.status, reply.reason, headers, &reply.body);
        return false;
    }
    let keep = !req.wants_close()
        && reply.status != 400
        && !shared.draining.load(Ordering::SeqCst)
        && lock_clean(&shared.queue).is_empty();
    respond_http(
        stream,
        reply.status,
        reply.reason,
        headers,
        &reply.body,
        keep,
    );
    keep
}

/// One answer, before it is framed.
struct Reply {
    status: u16,
    reason: &'static str,
    /// `X-Cache` value for `/run` answers: how the body was produced
    /// (`hit`/`miss`/`coalesced`).
    cache: Option<&'static str>,
    body: String,
}

impl Reply {
    fn plain(status: u16, reason: &'static str, body: String) -> Reply {
        Reply {
            status,
            reason,
            cache: None,
            body,
        }
    }
}

/// Dispatch a request to its endpoint.
fn route(shared: &Arc<Shared>, req: &HttpRequest, ordinal: u64) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let draining = shared.draining.load(Ordering::SeqCst);
            Reply::plain(200, "OK", shared.counters.healthz_json(draining))
        }
        ("POST", "/shutdown") => {
            shared.draining.store(true, Ordering::SeqCst);
            shared.queue_cv.notify_all();
            Reply::plain(200, "OK", String::from("{\"status\":\"draining\"}\n"))
        }
        ("POST", "/run") => {
            let body = String::from_utf8_lossy(&req.body);
            handle_run(shared, ordinal, &body)
        }
        (_, path) => {
            let mut msg = String::from("no such endpoint ");
            msg.push_str(path);
            msg.push_str("; try POST /run, GET /healthz, POST /shutdown");
            Reply::plain(404, "Not Found", error_body(&msg))
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
fn handle_run(shared: &Arc<Shared>, ordinal: u64, body: &str) -> Reply {
    if let Some(ms) = shared.cfg.fault.wants_response_stall(ordinal) {
        thread::sleep(Duration::from_millis(ms));
    }
    let (cfg, label) = match crate::request::parse_sim_request(body) {
        Ok(parsed) => parsed,
        Err(msg) => return Reply::plain(400, "Bad Request", error_body(&msg)),
    };
    let fingerprint = config_fingerprint(&cfg);

    // A hit renders its body from the cached entry under the lock; the
    // lock is released before the answer is written.
    let hit = lock_clean(&shared.cache)
        .cached(&fingerprint)
        .map(|entry| render_outcome(&entry.outcome, "hit"));
    if let Some(answer) = hit {
        ServeCounters::bump_tally(&shared.counters.cache_hits);
        return answer;
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
                    break render_outcome(outcome, "coalesced");
                }
                done = slot
                    .cv
                    .wait_timeout(done, Duration::from_millis(50))
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .0;
            }
        };
        return answer;
    }

    let outcome = execute(shared, &cfg, &label, ordinal);
    persist_outcome(shared, ordinal, &label, &fingerprint, &outcome);
    {
        let mut done = lock_clean(&slot.done);
        *done = Some(outcome.clone());
        slot.cv.notify_all();
    }
    lock_clean(&shared.inflight).remove(&fingerprint);
    render_outcome(&outcome, "miss")
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

/// The answer to `outcome`: 200 + `SimResult` JSON (byte-identical
/// to `smtsim run --json`) or 500 + `SimError` JSON, tagged with how
/// it was produced (`X-Cache`: `hit`/`miss`/`coalesced`).
fn render_outcome(outcome: &JobOutcome, cache_state: &'static str) -> Reply {
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
    Reply {
        status,
        reason,
        cache: Some(cache_state),
        body,
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
