//! The server: bounded accept queue, worker pool, fingerprint cache,
//! graceful drain.
//!
//! Threading model: one accept thread pushes connections into a
//! bounded queue (shedding 429 when full, 503 while draining); N
//! worker threads pop connections and run the whole request lifecycle
//! inline. A worker keeps a connection for the client's next request
//! while nothing waits in the queue (see [`KEEP_ALIVE_IDLE`]). No
//! async, no clocks — all waits are `Condvar` timeouts or socket
//! timeouts, so the crate stays D2-clean.
//!
//! A `/run` request takes its fingerprint's cache slot
//! ([`smtsim_core::cache::Slot`]) under the cache lock and asks it for
//! its entry once the lock is released: a stored entry, a journal line
//! decoded on its first ask, or a simulation run by the first request
//! while identical ones wait. Each answer is rendered once: the entry
//! keeps its bytes ([`smtsim_core::cache::CacheEntry::answer`]), so a
//! reply copies a shared pointer and runs no JSON emitter.
//!
//! Panic-freedom is a design rule here, not an aspiration: every
//! mutex lock recovers from poisoning, every socket error maps to a
//! response or a dropped connection, and simulation panics are
//! absorbed by the sweep runner's panic boundary (`run_job`) into
//! `SimError::JobPanicked`.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use smtsim_core::cache::{config_fingerprint, format_cache_line, CacheEntry, ResultCache, Slot};
use smtsim_core::json::write_escaped;
use smtsim_core::sweep::run_job;
use smtsim_core::{SimError, SweepJob};

use crate::fault::ServeFaultPlan;
use crate::http::{
    read_http_request, respond_http, respond_http_truncated, HttpError, HttpRequest,
};
use crate::metrics::ServeCounters;

/// How long a kept connection may sit idle before the first byte of
/// its next request; after that the worker closes it and goes back to
/// the queue. A connection queued while no worker is free ends one
/// such wait at once instead (see `await_request`). Once the first
/// byte is in, `request_timeout_ms` applies.
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

/// The accept queue, and what the accept thread needs to see to keep a
/// queued connection from waiting on a kept one.
#[derive(Default)]
struct Queue {
    /// Accepted connections no worker has claimed yet.
    conns: VecDeque<TcpStream>,
    /// Workers blocked waiting for a connection.
    waiting: usize,
    /// Per worker, a clone of the kept connection it waits on for a
    /// next request (see [`await_request`]).
    idle: Vec<Option<TcpStream>>,
}

impl Queue {
    /// A queued connection has no free worker to take it.
    fn starved(&self) -> bool {
        self.conns.len() > self.waiting
    }
}

/// State shared by the accept thread and every worker.
struct Shared {
    cfg: ServerConfig,
    counters: ServeCounters,
    cache: Mutex<ResultCache>,
    queue: Mutex<Queue>,
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
            queue: Mutex::new(Queue {
                idle: (0..worker_count).map(|_| None).collect(),
                ..Queue::default()
            }),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            accept_stop: AtomicBool::new(false),
        });
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let s = Arc::clone(&shared);
            let spawned = thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&s, i))
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
/// otherwise enqueue for the workers. When no worker is free for the
/// new connection, one idle wait on a kept connection ends now: its
/// read half is shut, so the worker sees the peer leave and comes to
/// the queue, and that client resends its next request on a fresh
/// connection.
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
        if q.conns.len() >= shared.cfg.max_queue {
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
        q.conns.push_back(stream);
        shared
            .counters
            .queue_depth
            .store(q.conns.len() as u64, Ordering::Relaxed);
        if q.starved() {
            if let Some(kept) = q.idle.iter_mut().find_map(Option::take) {
                let _ = kept.shutdown(Shutdown::Read);
            }
        }
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
fn worker_loop(shared: &Arc<Shared>, worker: usize) {
    loop {
        let popped = {
            let mut q = lock_clean(&shared.queue);
            loop {
                if let Some(s) = q.conns.pop_front() {
                    shared
                        .counters
                        .queue_depth
                        .store(q.conns.len() as u64, Ordering::Relaxed);
                    break Some(s);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                q.waiting += 1;
                q = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .0;
                q.waiting -= 1;
            }
        };
        match popped {
            Some(mut stream) => handle_conn(shared, worker, &mut stream),
            None => return,
        }
    }
}

/// Serve one connection: its first request, then every later request
/// the client sends on it while each answer leaves it open.
fn handle_conn(shared: &Arc<Shared>, worker: usize, stream: &mut TcpStream) {
    let timeout = (shared.cfg.request_timeout_ms > 0)
        .then(|| Duration::from_millis(shared.cfg.request_timeout_ms));
    let _ = stream.set_write_timeout(timeout);
    let mut pending = Vec::new();
    let mut handle = None;
    loop {
        let _ = stream.set_read_timeout(timeout);
        if !serve_request(shared, stream, &mut pending) {
            return;
        }
        // Wait for the next request's first byte, unless it is already
        // in. A peer that hangs up or stays quiet is let go.
        if pending.is_empty() && !await_request(shared, worker, stream, &mut handle) {
            return;
        }
        if shared.draining.load(Ordering::SeqCst) {
            shed_draining(shared, stream);
            return;
        }
    }
}

/// Wait up to [`KEEP_ALIVE_IDLE`] for the first byte of the kept
/// connection's next request; false when it is to be let go. The wait
/// is not started while a queued connection has no free worker. During
/// it, `handle` (a clone of `stream`, made on the connection's first
/// wait) sits in the worker's idle slot, where the accept thread may
/// take it and shut the read half; the wait then ends at once, and so
/// does the connection.
fn await_request(
    shared: &Shared,
    worker: usize,
    stream: &TcpStream,
    handle: &mut Option<TcpStream>,
) -> bool {
    if handle.is_none() {
        *handle = stream.try_clone().ok();
    }
    {
        let mut q = lock_clean(&shared.queue);
        if q.starved() {
            return false;
        }
        q.idle[worker] = handle.take();
    }
    let _ = stream.set_read_timeout(Some(KEEP_ALIVE_IDLE));
    let arrived = matches!(stream.peek(&mut [0u8]), Ok(n) if n > 0);
    *handle = lock_clean(&shared.queue).idle[worker].take();
    arrived && handle.is_some()
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
        && lock_clean(&shared.queue).conns.is_empty();
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
    body: Arc<str>,
}

impl Reply {
    fn plain(status: u16, reason: &'static str, body: String) -> Reply {
        Reply {
            status,
            reason,
            cache: None,
            body: Arc::from(body),
        }
    }

    /// The reply to a `/run` request: 200 + `SimResult` JSON
    /// (byte-identical to `smtsim run --json`) or 500 + `SimError`
    /// JSON, tagged with how it was produced (`X-Cache`).
    fn answered(entry: &CacheEntry, cache_state: &'static str) -> Reply {
        let (status, reason) = if entry.outcome.is_ok() {
            (200, "OK")
        } else {
            (500, "Internal Server Error")
        };
        Reply {
            status,
            reason,
            cache: Some(cache_state),
            body: entry.answer(),
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

/// The `POST /run` lifecycle: validate, fingerprint, ask the
/// fingerprint's cache slot for its entry (stored, decoded, or
/// simulated and persisted by the first asker), answer.
fn handle_run(shared: &Arc<Shared>, ordinal: u64, body: &str) -> Reply {
    if let Some(ms) = shared.cfg.fault.wants_response_stall(ordinal) {
        thread::sleep(Duration::from_millis(ms));
    }
    let job = match crate::request::parse_sim_request(body) {
        Ok((cfg, label)) => SweepJob::new(label, cfg),
        Err(msg) => return Reply::plain(400, "Bad Request", error_body(&msg)),
    };
    let fingerprint = config_fingerprint(&job.config);
    loop {
        // Only taking the slot needs the lock. A slot recorded then is
        // a hit; any other is being computed, by this request (a miss)
        // or by one it waits on (coalesced).
        let (slot, recorded) = lock_clean(&shared.cache).slot(&fingerprint);
        let mut simulated = false;
        let entry = slot.entry_or(|| {
            simulated = true;
            simulate(shared, ordinal, &job, &fingerprint, &slot)
        });
        // A journal line that does not decode: take a fresh slot.
        let Some(entry) = entry else { continue };
        let (tally, state) = match (recorded, simulated) {
            (true, _) => (&shared.counters.cache_hits, "hit"),
            (false, true) => (&shared.counters.cache_misses, "miss"),
            (false, false) => (&shared.counters.cache_misses, "coalesced"),
        };
        ServeCounters::bump_tally(tally);
        return Reply::answered(entry, state);
    }
}

/// Run the job once, through the sweep runner's panic boundary, and
/// settle `slot` with its outcome. A panic comes back as
/// `SimError::JobPanicked` (answered 500 and never cached); it is not
/// retried, because a simulation is a pure function of its config. The
/// torn-write fault swaps the append for half a line and keeps the
/// entry out of the cache, exactly what a kill -9 mid-append leaves.
fn simulate(
    shared: &Shared,
    ordinal: u64,
    job: &SweepJob,
    fingerprint: &str,
    slot: &Arc<Slot>,
) -> CacheEntry {
    let outcome = if shared.cfg.fault.wants_poisoned_job(ordinal) {
        Err(SimError::JobPanicked {
            label: job.label.clone(),
            payload: String::from("injected poison (ServeFaultPlan)"),
        })
    } else {
        ServeCounters::bump_tally(&shared.counters.jobs_simulated);
        run_job(job)
    };
    let mut cache = lock_clean(&shared.cache);
    let torn = shared.cfg.fault.wants_torn_cache_write(ordinal);
    if let Some(path) = cache.backing_path().filter(|_| torn) {
        let line = format_cache_line(cache.next_seq(), &job.label, fingerprint, &outcome);
        let half = &line.as_bytes()[..line.len() / 2];
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(half));
        if let Err(e) = appended {
            eprintln!("warning: torn-write injection failed: {e}");
        }
    }
    cache.store_in(fingerprint, slot, &job.label, outcome, !torn)
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
