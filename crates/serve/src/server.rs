//! The serving engine: readiness-driven workers over a shared nonblocking
//! listener, with no external async runtime.
//!
//! One event loop (Linux `epoll`) drives the connection state machine:
//! each worker owns an epoll instance; the shared listener is registered
//! `EPOLLEXCLUSIVE` (one readiness event wakes one worker, no thundering
//! herd) and every connection is registered edge-triggered. Idle workers
//! block **in the kernel** with an infinite timeout — zero busy-wait, ~0%
//! idle CPU — and wake in microseconds when a socket turns readable. Write
//! interest is armed only while a connection's output is backed up, and a
//! shared `eventfd` wakes every worker immediately on shutdown.
//!
//! The connection state machine is **pipelining-aware**: every complete
//! frame buffered on a readable socket is drained in one pass, and runs of
//! pipelined GET frames are batched through the store's seek-aware
//! [`DocStore::get_batch_results`] (duplicate ids decoded once) before any
//! response bytes are written. MGET requests deduplicate repeated ids the
//! same way — query-log batches repeat hot documents — scattering the
//! single decode back to every request position.
//!
//! An optional **hot-document cache** (a byte-budgeted
//! [`rlz_store::ShardedLru`] shared by all workers, keyed by doc id)
//! serves decoded payload bytes straight from memory; hit/miss/resident
//! counters are surfaced through the STAT opcode.
//!
//! The hot path preserves the store layer's zero-allocation property end
//! to end: frames are parsed in place from the connection's receive buffer
//! (no copy, no allocation), and a GET decodes **directly into the
//! connection's output buffer** through `DocStore::get_into` — once a
//! connection's buffers and the worker thread's decode scratch are warm, a
//! GET request performs zero heap allocations, with or without a cache hit
//! (asserted by the counting-allocator tests in `tests/`).

use crate::event::{interest, Epoll, WakeFd};
use crate::metrics::{self, Metrics, Op};
use crate::protocol::{
    self, Parsed, Request, STATUS_BAD_FRAME, STATUS_BAD_OPCODE, STATUS_BUSY, STATUS_CORRUPT,
    STATUS_INTERNAL, STATUS_OK, STATUS_OUT_OF_RANGE, STATUS_READONLY, STATUS_WAL_FULL,
};
use rlz_store::{DocStore, ShardedLru, StoreError, WriteStore};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stop reading from a connection while this much output is queued
/// (backpressure against clients that pipeline faster than they drain).
const OUT_HIGH_WATER: usize = 8 << 20;

/// Read chunk size per `read()` call.
const READ_CHUNK: usize = 64 << 10;

/// Pipelined GET frames batched per `get_batch_results` call before
/// responses are written (bounds how much output one drain turn can
/// materialize).
const GET_RUN_MAX: usize = 512;

/// Server configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker threads (each runs an accept + connection loop). Defaults to
    /// the machine's available parallelism.
    pub threads: usize,
    /// Threads handed to `DocStore::get_batch_results` per MGET request.
    /// 1 keeps MGET seek-aware and block-coalesced without spawning; raise
    /// it only for stores on high-latency static storage.
    pub batch_threads: usize,
    /// Whether the SHUTDOWN opcode is honoured (on for the benchmark and
    /// CI smoke flows; a production deployment would disable it and use
    /// process signals).
    pub allow_shutdown: bool,
    /// Hot-document cache budget in bytes; 0 disables the cache. The cache
    /// holds decoded payloads keyed by doc id, shared by all workers, and
    /// reports hits/misses/resident bytes through STAT.
    pub cache_bytes: usize,
    /// Server-wide connection cap; 0 = unlimited. Above the cap an
    /// accepted connection is answered with one `ERR_BUSY` frame and
    /// closed immediately, so a flood of connections degrades into fast
    /// typed rejections instead of unbounded per-connection state. (The
    /// cap is checked without cross-worker locking, so a simultaneous
    /// accept burst can briefly overshoot it by at most the worker count.)
    pub max_connections: usize,
    /// Close a connection that has made no progress for this long; `None`
    /// disables the sweep. Bounds how long abandoned or wedged peers can
    /// pin per-connection buffers (and slots under the connection cap).
    pub idle_timeout: Option<Duration>,
    /// Queue-depth load-shedding budget; 0 disables shedding. When more
    /// than this many connections are waiting for service on a worker,
    /// GET/MGET requests are answered with `ERR_BUSY` (the connection
    /// stays open; clients back off and retry) while STAT and SHUTDOWN
    /// still pass — bounded tail latency under overload instead of a
    /// collapsing queue.
    pub shed_queue_depth: usize,
    /// Write path for the PUT/APPEND/DELETE opcodes. `None` (every
    /// read-only store family) answers writes with `ERR_READONLY`. When
    /// set, writes past the store's WAL-backlog bound are shed with
    /// `ERR_BUSY` while reads keep serving at full speed.
    pub writer: Option<Arc<dyn WriteStore>>,
    /// Whether the metric registry is collected and the METRICS opcode
    /// answered (on by default; the off switch exists as a benchmark
    /// ablation — recording is wait-free and allocation-free, so the tax
    /// is a few atomic adds and two clock reads per request).
    pub metrics: bool,
    /// Bind a plaintext HTTP/1.0 `GET /metrics` listener here (Prometheus
    /// text exposition format; port 0 picks a free port, reported by
    /// [`ServerHandle::metrics_addr`]). `None` disables the listener; the
    /// METRICS opcode on the main port works either way.
    pub metrics_addr: Option<SocketAddr>,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("threads", &self.threads)
            .field("batch_threads", &self.batch_threads)
            .field("allow_shutdown", &self.allow_shutdown)
            .field("cache_bytes", &self.cache_bytes)
            .field("max_connections", &self.max_connections)
            .field("idle_timeout", &self.idle_timeout)
            .field("shed_queue_depth", &self.shed_queue_depth)
            .field(
                "writer",
                &self.writer.as_ref().map(|_| "Arc<dyn WriteStore>"),
            )
            .field("metrics", &self.metrics)
            .field("metrics_addr", &self.metrics_addr)
            .finish()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            batch_threads: 1,
            allow_shutdown: true,
            cache_bytes: 0,
            max_connections: 0,
            idle_timeout: None,
            shed_queue_depth: 0,
            writer: None,
            metrics: true,
            metrics_addr: None,
        }
    }
}

/// The overload-containment knobs a worker enforces, plus the shared
/// connection counter they act on.
#[derive(Debug, Clone)]
struct Overload {
    /// Live accepted connections across all workers.
    conn_count: Arc<AtomicUsize>,
    max_connections: usize,
    idle_timeout: Option<Duration>,
    shed_queue_depth: usize,
}

impl Overload {
    fn from_config(cfg: &ServeConfig) -> Self {
        Overload {
            conn_count: Arc::new(AtomicUsize::new(0)),
            max_connections: cfg.max_connections,
            idle_timeout: cfg.idle_timeout,
            shed_queue_depth: cfg.shed_queue_depth,
        }
    }

    /// True when accepting one more connection would exceed the cap.
    fn at_capacity(&self) -> bool {
        self.max_connections > 0 && self.conn_count.load(Ordering::Acquire) >= self.max_connections
    }
}

/// Answers a connection the cap rejected with one `ERR_BUSY` frame, then
/// drops it. Best-effort and bounded: the peer may already be gone, and a
/// peer that refuses to read must not wedge the accept loop.
fn reject_busy(stream: TcpStream, metrics: Option<&Metrics>) {
    if let Some(m) = metrics {
        m.note_conn_rejected();
    }
    let mut stream = stream;
    let mut frame = Vec::with_capacity(64);
    protocol::write_error(
        &mut frame,
        STATUS_BUSY,
        "connection limit reached; retry later",
    );
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(&frame);
}

/// A running server: join or stop it through this handle.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    wake: WakeFd,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound address of the HTTP `GET /metrics` listener, when
    /// [`ServeConfig::metrics_addr`] requested one (useful with port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// True once the server has stopped (SHUTDOWN opcode or [`stop`]).
    ///
    /// [`stop`]: ServerHandle::stop
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Signals every worker to exit after its current tick. Workers parked
    /// in the kernel are woken immediately.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.wake.wake();
    }

    /// Blocks until every worker has exited (a SHUTDOWN frame, or a prior
    /// [`stop`](ServerHandle::stop) call, triggers that).
    pub fn join(self) {
        for w in self.workers {
            w.join().expect("serve worker panicked");
        }
    }

    /// Signals shutdown and waits for the workers.
    pub fn shutdown(self) {
        self.stop();
        self.join();
    }
}

/// Starts serving `store` on `listener` with `cfg.threads` workers.
///
/// The listener is switched to nonblocking mode and try-cloned into every
/// worker. Every fallible resource (the metrics listener, the wake fd, each
/// worker's epoll and listener clone) is created before the first thread
/// starts, so an `Err` leaves nothing serving and a `/metrics` listener
/// exists before any request is answered. Returns immediately; use the
/// handle to join or stop.
pub fn serve(
    store: Arc<dyn DocStore>,
    listener: TcpListener,
    cfg: ServeConfig,
) -> io::Result<ServerHandle> {
    if cfg.metrics_addr.is_some() && !cfg.metrics {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "metrics_addr requires ServeConfig::metrics",
        ));
    }
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let http = cfg.metrics_addr.map(TcpListener::bind).transpose()?;
    if let Some(http) = &http {
        http.set_nonblocking(true)?;
    }
    let metrics_addr = http.as_ref().map(TcpListener::local_addr).transpose()?;
    let wake = WakeFd::new()?;
    let threads = cfg.threads.max(1);
    let worker_io = (0..threads)
        .map(|_| Ok((Epoll::new()?, listener.try_clone()?)))
        .collect::<io::Result<Vec<_>>>()?;

    let stop = Arc::new(AtomicBool::new(false));
    let overload = Overload::from_config(&cfg);
    let cache: Option<Arc<ShardedLru>> =
        (cfg.cache_bytes > 0).then(|| Arc::new(ShardedLru::with_byte_budget(cfg.cache_bytes)));
    let metrics: Option<Arc<Metrics>> = cfg.metrics.then(|| Arc::new(Metrics::new()));
    let mut handle = ServerHandle {
        addr,
        metrics_addr,
        stop: Arc::clone(&stop),
        wake: wake.clone(),
        workers: Vec::with_capacity(threads + 1),
    };
    // The metrics listener starts first, so it is up before any worker
    // answers a request.
    let mut started = Ok(());
    if let (Some(http), Some(metrics)) = (http, &metrics) {
        let metrics = Arc::clone(metrics);
        let store = Arc::clone(&store);
        let cache = cache.clone();
        let writer = cfg.writer.clone();
        let stop = Arc::clone(&stop);
        started = spawn_named(&mut handle.workers, "rlz-metrics-http".into(), move || {
            metrics_http_loop(http, metrics, store, cache, writer, stop)
        });
    }
    for (w, (ep, listener)) in worker_io.into_iter().enumerate() {
        if started.is_err() {
            break;
        }
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let mut responder = Responder::new(cfg.batch_threads, cfg.allow_shutdown);
        if let Some(cache) = &cache {
            responder = responder.with_cache(Arc::clone(cache));
        }
        if let Some(writer) = &cfg.writer {
            responder = responder.with_writer(Arc::clone(writer));
        }
        if let Some(metrics) = &metrics {
            responder = responder.with_metrics(Arc::clone(metrics));
        }
        let overload = overload.clone();
        let wake = wake.clone();
        started = spawn_named(&mut handle.workers, format!("rlz-serve-{w}"), move || {
            worker_loop(ep, listener, store, stop, responder, wake, overload)
        });
    }
    if let Err(e) = started {
        // Stop the threads that did start, then report the failure.
        handle.shutdown();
        return Err(e);
    }
    Ok(handle)
}

/// Starts a named thread running `body` and adds it to `workers`.
fn spawn_named(
    workers: &mut Vec<std::thread::JoinHandle<()>>,
    name: String,
    body: impl FnOnce() + Send + 'static,
) -> io::Result<()> {
    workers.push(std::thread::Builder::new().name(name).spawn(body)?);
    Ok(())
}

/// The metrics HTTP listener: one thread, one request per connection,
/// HTTP/1.0 with `Connection: close`. Deliberately minimal — a scrape
/// path, not a web server: bounded header read with timeouts, `GET
/// /metrics` answers the rendered registry, anything else 404s. Polls the
/// stop flag between accepts so [`ServerHandle::join`] returns promptly.
fn metrics_http_loop(
    listener: TcpListener,
    metrics: Arc<Metrics>,
    store: Arc<dyn DocStore>,
    cache: Option<Arc<ShardedLru>>,
    writer: Option<Arc<dyn WriteStore>>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = serve_metrics_http(
                    stream,
                    &metrics,
                    store.as_ref(),
                    cache.as_deref(),
                    writer.as_deref(),
                );
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // WouldBlock (idle) and transient accept failures alike: park
            // briefly, re-check the stop flag.
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn serve_metrics_http(
    mut stream: TcpStream,
    metrics: &Metrics,
    store: &dyn DocStore,
    cache: Option<&ShardedLru>,
    writer: Option<&dyn WriteStore>,
) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read the request head, bounded: a scraper's GET fits in one page.
    let mut buf = [0u8; 4096];
    let mut n = 0;
    while n < buf.len() && !buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(r) => n += r,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&buf[..n]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = if method == "GET" && (path == "/metrics" || path.starts_with("/metrics?"))
    {
        (
            "200 OK",
            metrics::render_prometheus(metrics, Some(store), cache, writer),
        )
    } else {
        ("404 Not Found", "not found; scrape /metrics\n".to_string())
    };
    let header = format!(
        "HTTP/1.0 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())
}

/// Per-request execution state shared by a worker's connections: every
/// scratch buffer the batching/dedup machinery needs lives here, so
/// serving a request allocates at most once per high-water mark over the
/// worker's lifetime, not once per frame.
pub struct Responder {
    batch_threads: usize,
    allow_shutdown: bool,
    /// Shared hot-document cache (decoded payloads keyed by doc id).
    cache: Option<Arc<ShardedLru>>,
    /// MGET/GET-run request ids, in request order.
    ids: Vec<u32>,
    /// `(id, position)` sort scratch for deduplication.
    order: Vec<(u32, u32)>,
    /// Request position -> index into `uniq`.
    slots: Vec<u32>,
    /// Unique requested ids.
    uniq: Vec<u32>,
    /// Unique ids that missed the cache and need a store fetch.
    fetch: Vec<u32>,
    /// `fetch[i]`'s index into `uniq`/`docs`.
    fetch_slots: Vec<u32>,
    /// Per-unique-id payload (None until fetched; stays None for
    /// out-of-range ids on the per-GET path and for ids whose fetch
    /// failed, whose error lands in `errs`).
    docs: Vec<Option<Arc<Vec<u8>>>>,
    /// Per-unique-id fetch failure (a corrupt block, an I/O error) —
    /// per-entry containment for the batched paths.
    errs: Vec<Option<StoreError>>,
    /// Pipelined GET run buffered during a drain pass.
    run: Vec<u32>,
    /// Write path for PUT/APPEND/DELETE; `None` answers `ERR_READONLY`.
    writer: Option<Arc<dyn WriteStore>>,
    /// Shared metrics registry; `None` disables all instrumentation (a
    /// benchmark ablation) and makes the METRICS opcode answer
    /// `ERR_BAD_OPCODE`.
    metrics: Option<Arc<Metrics>>,
}

/// What the connection should do after a response was appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep serving this connection.
    Continue,
    /// Flush what is queued, then close the connection.
    Close,
    /// Flush, close, and stop the whole server.
    Shutdown,
}

impl Responder {
    /// A responder for the given per-MGET thread count and shutdown policy.
    pub fn new(batch_threads: usize, allow_shutdown: bool) -> Self {
        Responder {
            batch_threads: batch_threads.max(1),
            allow_shutdown,
            cache: None,
            ids: Vec::new(),
            order: Vec::new(),
            slots: Vec::new(),
            uniq: Vec::new(),
            fetch: Vec::new(),
            fetch_slots: Vec::new(),
            docs: Vec::new(),
            errs: Vec::new(),
            run: Vec::new(),
            writer: None,
            metrics: None,
        }
    }

    /// Attaches a shared hot-document cache.
    pub fn with_cache(mut self, cache: Arc<ShardedLru>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a write path for the PUT/APPEND/DELETE opcodes.
    pub fn with_writer(mut self, writer: Arc<dyn WriteStore>) -> Self {
        self.writer = Some(writer);
        self
    }

    /// Attaches a shared metrics registry; enables the METRICS opcode and
    /// per-request instrumentation on every path this responder serves.
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Executes one well-formed request against `store`, appending exactly
    /// one response frame to `out`. This is the whole per-request hot path:
    /// for a GET it performs zero heap allocations once buffers are warm
    /// (cache hit or miss-free store decode alike).
    pub fn respond(
        &mut self,
        store: &dyn DocStore,
        req: &Request<'_>,
        out: &mut Vec<u8>,
    ) -> Action {
        // GETs — including direct callers like the tests — go through the
        // buffered-run path so that single and pipelined GETs take the one
        // (identically instrumented) code path.
        if let Request::Get(id) = req {
            self.push_get(*id);
            self.flush_gets(store, out);
            return Action::Continue;
        }
        let op = match req {
            Request::Get(_) => Some(Op::Get),
            Request::MGet(_) => Some(Op::MGet),
            Request::Put(_) => Some(Op::Put),
            Request::Append(..) => Some(Op::Append),
            Request::Delete(_) => Some(Op::Delete),
            Request::Stat => Some(Op::Stat),
            Request::Metrics | Request::Shutdown => None,
        };
        let timer = match (&self.metrics, op) {
            (Some(_), Some(_)) => Some((Instant::now(), out.len())),
            _ => None,
        };
        let action = self.respond_inner(store, req, out);
        if let (Some((t0, start)), Some(op), Some(m)) = (timer, op, &self.metrics) {
            // Every request appends exactly one frame; its status byte sits
            // right after the 4-byte length prefix.
            let status = out.get(start + 4).copied().unwrap_or(STATUS_INTERNAL);
            m.note_response(
                op,
                t0.elapsed().as_nanos() as u64,
                (out.len() - start) as u64,
                status,
            );
        }
        action
    }

    fn respond_inner(
        &mut self,
        store: &dyn DocStore,
        req: &Request<'_>,
        out: &mut Vec<u8>,
    ) -> Action {
        match req {
            Request::Get(id) => {
                self.respond_get(store, *id, out);
                Action::Continue
            }
            Request::MGet(ids) => {
                self.ids.clear();
                self.ids.extend(ids.iter());
                self.respond_mget(store, out);
                Action::Continue
            }
            Request::Stat => {
                let stats = store.stats();
                let start = protocol::begin_response(out);
                out.extend_from_slice(&stats.num_docs.to_le_bytes());
                out.extend_from_slice(&stats.payload_bytes.to_le_bytes());
                out.extend_from_slice(&stats.max_record_len.to_le_bytes());
                let (budget, hits, misses, resident) = match &self.cache {
                    Some(c) => (
                        c.byte_budget() as u64,
                        c.hits(),
                        c.misses(),
                        c.resident_bytes() as u64,
                    ),
                    None => (0, 0, 0, 0),
                };
                out.extend_from_slice(&budget.to_le_bytes());
                out.extend_from_slice(&hits.to_le_bytes());
                out.extend_from_slice(&misses.to_le_bytes());
                out.extend_from_slice(&resident.to_le_bytes());
                protocol::finish_response(out, start, STATUS_OK);
                Action::Continue
            }
            Request::Put(doc) => {
                self.respond_write(out, |w| w.put(doc).map(Some));
                Action::Continue
            }
            Request::Append(id, bytes) => {
                self.respond_write(out, |w| w.append(*id, bytes).map(|()| None));
                Action::Continue
            }
            Request::Delete(id) => {
                self.respond_write(out, |w| w.delete(*id).map(|()| None));
                Action::Continue
            }
            Request::Metrics => {
                match &self.metrics {
                    Some(m) => {
                        let text = metrics::render_prometheus(
                            m,
                            Some(store),
                            self.cache.as_deref(),
                            self.writer.as_deref(),
                        );
                        let start = protocol::begin_response(out);
                        out.extend_from_slice(text.as_bytes());
                        protocol::finish_response(out, start, STATUS_OK);
                    }
                    None => protocol::write_error(
                        out,
                        STATUS_BAD_OPCODE,
                        "metrics are disabled on this server",
                    ),
                }
                Action::Continue
            }
            Request::Shutdown => {
                if self.allow_shutdown {
                    let start = protocol::begin_response(out);
                    protocol::finish_response(out, start, STATUS_OK);
                    Action::Shutdown
                } else {
                    protocol::write_error(
                        out,
                        STATUS_BAD_OPCODE,
                        "SHUTDOWN is disabled on this server",
                    );
                    Action::Continue
                }
            }
        }
    }

    /// Executes one write through the attached write path, appending the
    /// response frame. No writer → `ERR_READONLY`; a WAL backlog past its
    /// soft bound sheds the write with `ERR_BUSY` *before* it touches the
    /// store (reads are never shed by write pressure). An acked write —
    /// the OK frame — is durable per the store's fsync policy.
    fn respond_write(
        &mut self,
        out: &mut Vec<u8>,
        op: impl FnOnce(&dyn WriteStore) -> Result<Option<u32>, StoreError>,
    ) {
        let Some(writer) = &self.writer else {
            protocol::write_error(
                out,
                STATUS_READONLY,
                "server has no write path; store is read-only",
            );
            return;
        };
        if writer.write_pressure() {
            if let Some(m) = &self.metrics {
                m.note_shed_write();
            }
            protocol::write_error(
                out,
                STATUS_BUSY,
                "write backlog past bound; back off and retry",
            );
            return;
        }
        match op(writer.as_ref()) {
            Ok(id) => {
                let start = protocol::begin_response(out);
                if let Some(id) = id {
                    out.extend_from_slice(&id.to_le_bytes());
                }
                protocol::finish_response(out, start, STATUS_OK);
            }
            Err(e) => write_store_error(out, &e),
        }
    }

    /// Buffers a pipelined GET; the caller flushes the run via
    /// [`flush_gets`](Responder::flush_gets) before any other response is
    /// written.
    pub fn push_get(&mut self, id: u32) {
        self.run.push(id);
    }

    /// True when the buffered GET run must be flushed before more frames
    /// are parsed.
    pub fn get_run_full(&self) -> bool {
        self.run.len() >= GET_RUN_MAX
    }

    /// Serves every buffered pipelined GET, in order. A single GET goes
    /// down the zero-allocation direct path; longer runs deduplicate ids
    /// and batch the store fetch through the seek-aware
    /// `get_batch_results` before writing any response bytes. Out-of-range
    /// ids answer individual error frames (per-GET semantics), exactly as
    /// if served one by one.
    pub fn flush_gets(&mut self, store: &dyn DocStore, out: &mut Vec<u8>) {
        if self.run.is_empty() {
            return;
        }
        // One timestamp pair per *run*, not per GET: a batched run's
        // members all record the run's total duration — the latency the
        // last-written response actually experienced.
        let timer = self.metrics.as_ref().map(|_| (Instant::now(), out.len()));
        match self.run.len() {
            0 => {}
            1 => {
                let id = self.run[0];
                self.run.clear();
                self.respond_get(store, id, out);
            }
            _ => {
                let run = std::mem::take(&mut self.run);
                self.ids.clear();
                self.ids.extend_from_slice(&run);
                self.fetch_unique(store, true);
                const MAX_BODY: usize = protocol::MAX_RESPONSE_LEN as usize - 1;
                for pos in 0..self.ids.len() {
                    let slot = self.slots[pos] as usize;
                    match (&self.docs[slot], &self.errs[slot]) {
                        (Some(doc), _) if doc.len() > MAX_BODY => protocol::write_error(
                            out,
                            STATUS_INTERNAL,
                            "document exceeds the response size cap",
                        ),
                        (Some(doc), _) => {
                            let start = protocol::begin_response(out);
                            out.extend_from_slice(doc);
                            protocol::finish_response(out, start, STATUS_OK);
                        }
                        // A per-id store failure (corrupt block, I/O
                        // error) answers its own error frame, exactly as
                        // if the GET had been served alone.
                        (None, Some(e)) => write_store_error(out, e),
                        (None, None) => write_store_error(
                            out,
                            &StoreError::DocOutOfRange(self.ids[pos] as usize),
                        ),
                    }
                }
                // Release the fetched payload Arcs now that the responses
                // are written: scratch *capacity* is worth keeping across
                // requests, decoded *documents* are not — an idle worker
                // must not pin a whole batch of payloads.
                self.docs.clear();
                self.errs.clear();
                self.run = run;
                self.run.clear();
            }
        }
        if let (Some((t0, start)), Some(m)) = (timer, &self.metrics) {
            m.note_get_run(&out[start..], t0.elapsed().as_nanos() as u64);
        }
    }

    /// One GET: cache hit copies straight from the cached payload; a miss
    /// decodes directly into `out` (and populates the cache).
    fn respond_get(&mut self, store: &dyn DocStore, id: u32, out: &mut Vec<u8>) {
        // Largest legal response *body*: the length field counts the status
        // byte plus the body and must stay within the cap the client also
        // enforces.
        const MAX_BODY: usize = protocol::MAX_RESPONSE_LEN as usize - 1;
        if let Some(cache) = &self.cache {
            if let Some(doc) = cache.get(id as usize) {
                if doc.len() > MAX_BODY {
                    protocol::write_error(
                        out,
                        STATUS_INTERNAL,
                        "document exceeds the response size cap",
                    );
                } else {
                    let start = protocol::begin_response(out);
                    out.extend_from_slice(&doc);
                    protocol::finish_response(out, start, STATUS_OK);
                }
                return;
            }
        }
        let start = protocol::begin_response(out);
        match store.get_into(id as usize, out) {
            Ok(()) if out.len() - start - 5 > MAX_BODY => {
                out.truncate(start);
                protocol::write_error(
                    out,
                    STATUS_INTERNAL,
                    "document exceeds the response size cap",
                );
            }
            Ok(()) => {
                protocol::finish_response(out, start, STATUS_OK);
                if let Some(cache) = &self.cache {
                    cache.insert(id as usize, Arc::new(out[start + 5..].to_vec()));
                }
            }
            Err(e) => {
                out.truncate(start);
                write_store_error(out, &e);
            }
        }
    }

    /// One MGET over `self.ids`: repeated ids are deduplicated before the
    /// seek-aware batched fetch, the single decode scattered back to every
    /// request position. Any out-of-range id fails the whole batch (the
    /// request itself is wrong); a document the *store* fails to produce —
    /// a corrupt block, an I/O error — fails only its own entries, encoded
    /// with the [`protocol::MGET_ENTRY_ERR`] length bit, while the rest of
    /// the batch is served normally.
    fn respond_mget(&mut self, store: &dyn DocStore, out: &mut Vec<u8>) {
        const MAX_BODY: usize = protocol::MAX_RESPONSE_LEN as usize - 1;
        if let Some(&bad) = self.ids.iter().find(|&&id| id as usize >= store.num_docs()) {
            write_store_error(out, &StoreError::DocOutOfRange(bad as usize));
            return;
        }
        self.fetch_unique(store, false);
        // Failed entries carry `status + message` payloads; render the
        // messages once per unique failure (the error path may allocate).
        let body: usize = 4 + self
            .slots
            .iter()
            .map(|&s| {
                4 + match (&self.docs[s as usize], &self.errs[s as usize]) {
                    (Some(doc), _) => doc.len(),
                    (None, Some(e)) => 1 + e.to_string().len(),
                    (None, None) => unreachable!("in-range id neither fetched nor failed"),
                }
            })
            .sum::<usize>();
        if body > MAX_BODY {
            protocol::write_error(
                out,
                STATUS_INTERNAL,
                "MGET response exceeds the size cap; split the batch",
            );
            // The payloads were fetched before the cap check; drop them.
            self.docs.clear();
            self.errs.clear();
            return;
        }
        let start = protocol::begin_response(out);
        out.extend_from_slice(&(self.ids.len() as u32).to_le_bytes());
        for &slot in &self.slots {
            match (&self.docs[slot as usize], &self.errs[slot as usize]) {
                (Some(doc), _) => {
                    out.extend_from_slice(&(doc.len() as u32).to_le_bytes());
                    out.extend_from_slice(doc);
                }
                (None, Some(e)) => {
                    let status = store_error_status(e);
                    if status == STATUS_CORRUPT {
                        if let Some(m) = &self.metrics {
                            m.note_corrupt_entry();
                        }
                    }
                    let message = e.to_string();
                    let elen = (1 + message.len()) as u32 | protocol::MGET_ENTRY_ERR;
                    out.extend_from_slice(&elen.to_le_bytes());
                    out.push(status);
                    out.extend_from_slice(message.as_bytes());
                }
                (None, None) => unreachable!("in-range id neither fetched nor failed"),
            }
        }
        protocol::finish_response(out, start, STATUS_OK);
        // Release the payload Arcs: an idle worker must not pin the last
        // batch's decoded documents (they can total far more than the
        // response cap, since the fetch precedes the cap check).
        self.docs.clear();
        self.errs.clear();
    }

    /// Deduplicates `self.ids` into `self.uniq` + `self.slots`, then fills
    /// `self.docs` for every unique id — from the hot cache where
    /// possible, the rest through one seek-aware `get_batch_results` call
    /// with **per-id containment**: an id the store cannot produce (a
    /// corrupt block, an I/O error) records its error in `self.errs`
    /// instead of failing the whole fetch. With `skip_out_of_range`, ids
    /// beyond the store are left as `None` in `self.docs` (per-GET error
    /// semantics).
    fn fetch_unique(&mut self, store: &dyn DocStore, skip_out_of_range: bool) {
        self.order.clear();
        self.order
            .extend(self.ids.iter().enumerate().map(|(p, &id)| (id, p as u32)));
        self.order.sort_unstable();
        self.uniq.clear();
        self.slots.clear();
        self.slots.resize(self.ids.len(), 0);
        for &(id, pos) in &self.order {
            if self.uniq.last() != Some(&id) {
                self.uniq.push(id);
            }
            self.slots[pos as usize] = (self.uniq.len() - 1) as u32;
        }
        self.docs.clear();
        self.docs.resize(self.uniq.len(), None);
        self.errs.clear();
        self.errs.resize_with(self.uniq.len(), || None);
        self.fetch.clear();
        self.fetch_slots.clear();
        let num_docs = store.num_docs();
        for (u, &id) in self.uniq.iter().enumerate() {
            if skip_out_of_range && id as usize >= num_docs {
                continue;
            }
            if let Some(cache) = &self.cache {
                if let Some(doc) = cache.get(id as usize) {
                    self.docs[u] = Some(doc);
                    continue;
                }
            }
            self.fetch.push(id);
            self.fetch_slots.push(u as u32);
        }
        if !self.fetch.is_empty() {
            let got = store.get_batch_results(&self.fetch, self.batch_threads);
            for (result, &u) in got.into_iter().zip(&self.fetch_slots) {
                match result {
                    Ok(doc) => {
                        let doc = Arc::new(doc);
                        if let Some(cache) = &self.cache {
                            cache.insert(self.uniq[u as usize] as usize, Arc::clone(&doc));
                        }
                        self.docs[u as usize] = Some(doc);
                    }
                    Err(e) => self.errs[u as usize] = Some(e),
                }
            }
        }
    }
}

/// The protocol status a store failure maps to: detected corruption gets
/// its own typed status (the document is permanently unreadable until the
/// store is repaired; the server is fine) rather than the generic
/// internal-error bucket.
fn store_error_status(e: &StoreError) -> u8 {
    match e {
        StoreError::DocOutOfRange(_) => STATUS_OUT_OF_RANGE,
        StoreError::Corrupt { .. } => STATUS_CORRUPT,
        StoreError::ReadOnly => STATUS_READONLY,
        StoreError::WalFull => STATUS_WAL_FULL,
        _ => STATUS_INTERNAL,
    }
}

/// Maps a store failure onto a protocol error frame. Only the error path
/// formats (and therefore allocates) a message.
fn write_store_error(out: &mut Vec<u8>, e: &StoreError) {
    protocol::write_error(out, store_error_status(e), &e.to_string());
}

/// One client connection owned by a worker.
struct Conn {
    stream: TcpStream,
    /// Received-but-unparsed bytes; `in_start..` is the live region.
    in_buf: Vec<u8>,
    in_start: usize,
    /// Queued-but-unsent response bytes; `out_start..` is the live region.
    out_buf: Vec<u8>,
    out_start: usize,
    /// No more requests will be processed; close once `out_buf` drains.
    closing: bool,
    /// The peer half-closed its send side (read returned 0).
    peer_eof: bool,
    /// Write interest is currently armed in the epoll set.
    want_write: bool,
    /// Currently in the worker's ready queue.
    queued: bool,
    /// Last instant this connection made any progress (bytes either way);
    /// the idle-timeout sweep closes connections stuck past the limit.
    idle_since: Instant,
}

enum TickOutcome {
    /// Keep the connection; readiness events (or a re-queue) resume it.
    Open,
    /// Connection finished or failed; drop it.
    Drop,
    /// A SHUTDOWN request was honoured.
    Shutdown,
}

/// Server-side send buffer for accepted connections: large enough that a
/// typical multi-document response hands off to the kernel in one write
/// (fewer write-readiness round trips; see
/// [`event::set_socket_buffers`](crate::event::set_socket_buffers) for the
/// TCP persist-stall rationale).
const CONN_SNDBUF: usize = 1 << 20;

/// Server-side receive buffer: comfortably holds the largest request
/// frame (a maximal MGET is ~256 KiB).
const CONN_RCVBUF: usize = 512 << 10;

impl Conn {
    fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        crate::event::set_socket_buffers(stream.as_raw_fd(), CONN_SNDBUF, CONN_RCVBUF);
        Ok(Conn {
            stream,
            in_buf: Vec::new(),
            in_start: 0,
            out_buf: Vec::new(),
            out_start: 0,
            closing: false,
            peer_eof: false,
            want_write: false,
            queued: false,
            idle_since: Instant::now(),
        })
    }

    /// True when the connection has made no progress for longer than
    /// `timeout`.
    fn idle_expired(&self, timeout: Duration) -> bool {
        self.idle_since.elapsed() > timeout
    }

    /// Bytes queued but not yet written to the socket.
    fn out_pending(&self) -> bool {
        self.out_start < self.out_buf.len()
    }

    /// Writes queued output until done or the socket refuses more.
    /// Returns false when the connection is dead.
    fn flush(&mut self, busy: &mut bool) -> bool {
        while self.out_start < self.out_buf.len() {
            match self.stream.write(&self.out_buf[self.out_start..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.out_start += n;
                    *busy = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.out_start == self.out_buf.len() {
            self.out_buf.clear();
            self.out_start = 0;
        }
        true
    }

    /// Reads whatever is available, bounded by backpressure limits.
    /// Returns false when the connection is dead.
    fn fill(&mut self, chunk: &mut [u8], busy: &mut bool) -> bool {
        // Bound buffered input: one maximal frame plus one read chunk is
        // enough to make progress; beyond that the client is flooding.
        let in_cap = protocol::MAX_REQUEST_LEN as usize + chunk.len();
        loop {
            if self.out_buf.len() - self.out_start >= OUT_HIGH_WATER
                || self.in_buf.len() - self.in_start >= in_cap
            {
                return true;
            }
            match self.stream.read(chunk) {
                Ok(0) => {
                    self.peer_eof = true;
                    return true;
                }
                Ok(n) => {
                    self.in_buf.extend_from_slice(&chunk[..n]);
                    *busy = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Parses and executes every complete frame currently buffered, in one
    /// pass. Consecutive pipelined GET frames are buffered into a run and
    /// flushed through the batched path before any non-GET response (or
    /// the end of the pass), preserving response order. With `shed`, the
    /// worker is past its queue budget: GET/MGET answer `ERR_BUSY`
    /// without touching the store (the connection stays open), while
    /// STAT and SHUTDOWN still pass.
    fn drain_frames(
        &mut self,
        store: &dyn DocStore,
        responder: &mut Responder,
        shed: bool,
    ) -> Action {
        let mut action = Action::Continue;
        while !self.closing {
            // Backpressure on the output side too: a burst of pipelined
            // requests must not materialize unbounded responses in one
            // turn. Unhandled frames stay buffered and drain after the
            // queued output flushes.
            if self.out_buf.len() - self.out_start >= OUT_HIGH_WATER {
                break;
            }
            match protocol::parse_request(&self.in_buf[self.in_start..]) {
                Parsed::Incomplete => break,
                Parsed::Malformed(msg) => {
                    responder.flush_gets(store, &mut self.out_buf);
                    if let Some(m) = &responder.metrics {
                        m.note_bad_frame();
                    }
                    protocol::write_error(&mut self.out_buf, STATUS_BAD_FRAME, msg);
                    self.closing = true;
                }
                Parsed::Frame { request, consumed } => {
                    match request {
                        Ok(req @ (Request::Get(_) | Request::MGet(_))) if shed => {
                            responder.flush_gets(store, &mut self.out_buf);
                            if let Some(m) = &responder.metrics {
                                m.note_shed_read(if matches!(req, Request::Get(_)) {
                                    Op::Get
                                } else {
                                    Op::MGet
                                });
                            }
                            protocol::write_error(
                                &mut self.out_buf,
                                STATUS_BUSY,
                                "server overloaded; retry with backoff",
                            );
                        }
                        Ok(Request::Get(id)) => {
                            responder.push_get(id);
                            if responder.get_run_full() {
                                responder.flush_gets(store, &mut self.out_buf);
                            }
                        }
                        Ok(req) => {
                            responder.flush_gets(store, &mut self.out_buf);
                            match responder.respond(store, &req, &mut self.out_buf) {
                                Action::Continue => {}
                                done => {
                                    self.closing = true;
                                    action = done;
                                }
                            }
                        }
                        Err((status, msg)) => {
                            responder.flush_gets(store, &mut self.out_buf);
                            if let Some(m) = &responder.metrics {
                                if status == STATUS_BAD_OPCODE {
                                    m.note_bad_opcode();
                                } else {
                                    m.note_bad_frame();
                                }
                            }
                            protocol::write_error(&mut self.out_buf, status, msg);
                            if status == STATUS_BAD_FRAME {
                                // Content desync (e.g. an MGET whose count
                                // lies): the boundary held this time, but
                                // trust is gone.
                                self.closing = true;
                            }
                        }
                    }
                    self.in_start += consumed;
                }
            }
        }
        responder.flush_gets(store, &mut self.out_buf);
        // Compact the receive buffer without reallocating.
        if self.in_start > 0 {
            let len = self.in_buf.len();
            self.in_buf.copy_within(self.in_start..len, 0);
            self.in_buf.truncate(len - self.in_start);
            self.in_start = 0;
        }
        action
    }

    /// One event-loop turn over this connection. The second return value
    /// reports **input progress** (new bytes read or frames consumed) as
    /// opposed to mere write progress: an event-driven caller must re-tick
    /// only on input progress — re-ticking while a large response drains
    /// would pin the worker to this one connection for the client's whole
    /// read (starving every other socket), when arming write interest and
    /// letting the kernel signal writability costs nothing.
    fn tick(
        &mut self,
        store: &dyn DocStore,
        responder: &mut Responder,
        chunk: &mut [u8],
        shed: bool,
    ) -> (TickOutcome, bool) {
        let mut busy = false;
        if !self.flush(&mut busy) {
            return (TickOutcome::Drop, false);
        }
        if self.closing {
            let outcome = if self.out_buf.is_empty() {
                TickOutcome::Drop
            } else {
                TickOutcome::Open
            };
            return (outcome, false);
        }
        let filled_before = self.in_buf.len();
        if !self.fill(chunk, &mut busy) {
            return (TickOutcome::Drop, false);
        }
        let mut input = self.in_buf.len() != filled_before;
        let in_before = self.in_buf.len() - self.in_start;
        let action = self.drain_frames(store, responder, shed);
        input |= self.in_buf.len() - self.in_start != in_before;
        busy |= input;
        // After EOF no further bytes can arrive, so once every complete
        // frame is drained the connection is done — any leftover partial
        // frame can never complete and must not keep the socket alive.
        if self.peer_eof && !self.closing && self.out_buf.len() - self.out_start < OUT_HIGH_WATER {
            self.closing = true;
        }
        // Push out whatever the frames produced before yielding the slot.
        if !self.flush(&mut busy) {
            return (TickOutcome::Drop, false);
        }
        if busy {
            self.idle_since = Instant::now();
        }
        if action == Action::Shutdown {
            return (TickOutcome::Shutdown, input);
        }
        if self.closing && self.out_buf.is_empty() {
            return (TickOutcome::Drop, input);
        }
        (TickOutcome::Open, input)
    }

    /// Best-effort blocking drain of queued output, used when the server is
    /// stopping so a final response (e.g. the SHUTDOWN ack) reaches the
    /// peer.
    fn final_flush(&mut self) {
        if self.out_start >= self.out_buf.len() {
            return;
        }
        let _ = self.stream.set_nonblocking(false);
        let _ = self
            .stream
            .set_write_timeout(Some(Duration::from_millis(250)));
        let _ = self.stream.write_all(&self.out_buf[self.out_start..]);
        let _ = self.stream.flush();
    }
}

/// A worker: block in the kernel until a registered fd is ready,
/// then serve exactly the connections with work, round-robin. Connections
/// are edge-triggered (the tick logic drains until `WouldBlock`); write
/// interest is armed only while a connection has queued output the socket
/// refused.
///
/// Fairness is load-bearing, not cosmetic: a connection is served **one
/// tick per turn** through a ready queue, and re-enters at the tail while
/// its input keeps progressing. Driving a connection until it went idle
/// instead would let one closed-loop client capture the worker — each
/// response it receives prompts its next request, which can land before
/// the server's next read probe, extending the "progress" loop
/// indefinitely while every other socket starves (observed as 100 ms+
/// tail stalls before this queue existed).
fn worker_loop(
    ep: Epoll,
    listener: TcpListener,
    store: Arc<dyn DocStore>,
    stop: Arc<AtomicBool>,
    mut responder: Responder,
    wake: WakeFd,
    ov: Overload,
) {
    const TOKEN_LISTENER: u64 = u64::MAX;
    const TOKEN_WAKE: u64 = u64::MAX - 1;
    if ep
        .add(listener.as_raw_fd(), interest::LISTENER, TOKEN_LISTENER)
        .is_err()
        || ep.add(wake.fd(), interest::WAKE, TOKEN_WAKE).is_err()
    {
        // Registration failing at startup leaves this worker unable to
        // serve; the remaining workers still own the listener.
        return;
    }
    // Connection slab: token = slot index (always < TOKEN_WAKE).
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events: Vec<crate::event::Event> = Vec::new();
    let mut ready: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    // With an idle timeout, the kernel wait is bounded so the sweep runs
    // even on a silent socket set; without one, park indefinitely.
    let idle_wait: i32 = match ov.idle_timeout {
        Some(t) => (t.as_millis() as i64 / 2).clamp(10, 1000) as i32,
        None => -1,
    };
    let mut last_idle_scan = Instant::now();
    while !stop.load(Ordering::Acquire) {
        // With queued work pending, poll for new events without sleeping;
        // with none, block in the kernel until readiness or the shutdown
        // eventfd — an idle worker costs ~0% CPU and wakes in
        // microseconds.
        let timeout = if ready.is_empty() { idle_wait } else { 0 };
        if ep.wait(&mut events, timeout).is_err() {
            break;
        }
        if let Some(timeout) = ov.idle_timeout {
            // Sweep at most every half-timeout: O(slab) but amortized.
            if last_idle_scan.elapsed() * 2 >= timeout {
                last_idle_scan = Instant::now();
                for (slot, entry) in conns.iter_mut().enumerate() {
                    let expired = entry.as_ref().is_some_and(|c| c.idle_expired(timeout));
                    if expired {
                        let conn = entry.take().expect("checked Some above");
                        ep.delete(conn.stream.as_raw_fd());
                        free.push(slot);
                        ov.conn_count.fetch_sub(1, Ordering::AcqRel);
                        if let Some(m) = &responder.metrics {
                            m.note_idle_reaped();
                        }
                    }
                }
            }
        }
        for ev in events.iter().copied() {
            match ev.token {
                TOKEN_WAKE => {} // stop flag re-checked at the loop top
                TOKEN_LISTENER => loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if ov.at_capacity() {
                                reject_busy(stream, responder.metrics.as_deref());
                                continue;
                            }
                            let Ok(conn) = Conn::new(stream) else {
                                continue;
                            };
                            let slot = free.pop().unwrap_or_else(|| {
                                conns.push(None);
                                conns.len() - 1
                            });
                            if ep
                                .add(conn.stream.as_raw_fd(), interest::CONN_READ, slot as u64)
                                .is_err()
                            {
                                free.push(slot);
                                continue;
                            }
                            conns[slot] = Some(conn);
                            ov.conn_count.fetch_add(1, Ordering::AcqRel);
                            if let Some(m) = &responder.metrics {
                                m.note_conn_opened();
                            }
                            // Data may already be buffered (or the
                            // handshake raced the registration): queue the
                            // connection for a first serve turn.
                            enqueue(&mut ready, &mut conns, slot);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        // Persistent accept failures (EMFILE, aborted
                        // handshakes): the level-triggered listener stays
                        // readable while the connection waits in the
                        // queue, so bail out WITH a short sleep — breaking
                        // alone would turn `epoll_wait` + failing
                        // `accept` into a 100% CPU spin until an fd frees
                        // up.
                        Err(_) => {
                            std::thread::sleep(Duration::from_millis(2));
                            break;
                        }
                    }
                },
                token => enqueue(&mut ready, &mut conns, token as usize),
            }
        }
        // One serve turn per queued connection, round-robin: a connection
        // whose input is still flowing goes back to the tail instead of
        // monopolizing the worker.
        if let Some(m) = &responder.metrics {
            m.note_queue_depth(ready.len() as u64);
        }
        for _ in 0..ready.len() {
            let Some(slot) = ready.pop_front() else { break };
            if let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) {
                conn.queued = false;
            }
            // The shed signal IS the ready-queue depth: with more than
            // the budget still waiting behind this turn, answer BUSY
            // instead of queueing more decode work.
            let shed = ov.shed_queue_depth > 0 && ready.len() > ov.shed_queue_depth;
            match serve_turn(
                &ep,
                &mut conns,
                &mut free,
                slot,
                store.as_ref(),
                &mut responder,
                &mut chunk,
                shed,
                &ov,
            ) {
                Turn::Again => enqueue(&mut ready, &mut conns, slot),
                Turn::Parked => {}
                Turn::Shutdown => {
                    stop.store(true, Ordering::Release);
                    wake.wake();
                }
            }
            if stop.load(Ordering::Acquire) {
                break;
            }
        }
    }
    for conn in conns.iter_mut().flatten() {
        conn.final_flush();
    }
}

/// Queues `slot` for a serve turn unless it is already queued (one queue
/// entry per connection keeps turns fair and the queue bounded).
fn enqueue(ready: &mut std::collections::VecDeque<usize>, conns: &mut [Option<Conn>], slot: usize) {
    if let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) {
        if !conn.queued {
            conn.queued = true;
            ready.push_back(slot);
        }
    }
}

/// What a serve turn decided about the connection's future.
enum Turn {
    /// Input is still flowing: give it another turn (at the queue tail).
    Again,
    /// Nothing more to do now; readiness events resume it.
    Parked,
    /// The SHUTDOWN opcode was honoured.
    Shutdown,
}

/// One bounded serve turn: a single tick (flush + read-to-`WouldBlock` +
/// drain every buffered frame + flush), then re-arm write interest to
/// match whether output is backed up. Edge-triggered registration is safe
/// because a turn that still saw input progress is re-queued by the
/// caller until a tick finds nothing new.
#[allow(clippy::too_many_arguments)]
fn serve_turn(
    ep: &Epoll,
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    slot: usize,
    store: &dyn DocStore,
    responder: &mut Responder,
    chunk: &mut [u8],
    shed: bool,
    ov: &Overload,
) -> Turn {
    let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
        return Turn::Parked; // stale event for an already-dropped connection
    };
    let (outcome, input) = conn.tick(store, responder, chunk, shed);
    match outcome {
        TickOutcome::Open => {
            let want = conn.out_pending();
            if want != conn.want_write {
                let interest = if want {
                    interest::CONN_READ_WRITE
                } else {
                    interest::CONN_READ
                };
                if ep
                    .modify(conn.stream.as_raw_fd(), interest, slot as u64)
                    .is_ok()
                {
                    conn.want_write = want;
                }
            }
            if input {
                Turn::Again
            } else {
                Turn::Parked
            }
        }
        TickOutcome::Drop => {
            let fd = conn.stream.as_raw_fd();
            ep.delete(fd);
            conns[slot] = None;
            free.push(slot);
            ov.conn_count.fetch_sub(1, Ordering::AcqRel);
            if let Some(m) = &responder.metrics {
                m.note_conn_closed();
            }
            Turn::Parked
        }
        TickOutcome::Shutdown => {
            conn.final_flush();
            let fd = conn.stream.as_raw_fd();
            ep.delete(fd);
            conns[slot] = None;
            free.push(slot);
            ov.conn_count.fetch_sub(1, Ordering::AcqRel);
            if let Some(m) = &responder.metrics {
                m.note_conn_closed();
            }
            Turn::Shutdown
        }
    }
}
