//! The serving core: a `TcpListener` accept loop, per-connection handler
//! threads speaking the wire schema over [`crate::http`], and a pool of
//! serving workers flushing micro-batches from the [`crate::batcher`]
//! into the clustered engine's `query_batch_opts` — each worker owning a
//! persistent `BatchScratchPool`, all sharing one [`Exec`] and one
//! engine behind a read/write lock.
//!
//! ## Deadline budget
//!
//! Every query is admitted with the configured SLO budget. When its batch
//! flushes, the *remaining* budget (SLO minus time already spent queued in
//! the window) is handed to the engine as [`BatchOptions::deadline`]; a
//! budget that expires mid-batch — or was already gone at flush time —
//! yields the engine's defined `deadline_expired` partial result, which
//! travels the wire as an HTTP 200 with [`QueryResponse::degraded`] set.
//! Failure stays in-band and typed, end to end.
//!
//! ## Apply transactionality
//!
//! `POST /apply` takes the engine write lock and runs the engines'
//! transactional `try_apply_with`: on any error (unknown user/item,
//! capacity, injected fault) the engine — site model, clustered index,
//! exact fallback — is untouched and the client gets a typed `409` with
//! the error detail. A success is visible to every query admitted after
//! the lock releases. The lock is held for the apply's read-only plan and
//! in-place commit, which cost what the batch touches — nothing is cloned
//! or dropped wholesale — so queries stall for the batch's own work, not
//! for a copy of the site.

use crate::batcher::{Batcher, Pending, ReadyBatch, ServeOutcome};
use crate::http::{write_response, HttpLimits, Request, RequestReader};
use crate::wire::{
    ApplyRequest, ApplyResponse, ErrorResponse, QueryRequest, QueryResponse, ScoredItem,
    StatsResponse, WIRE_VERSION,
};
use parking_lot::RwLock;
use socialscope_content::{BatchOptions, BatchScratchPool, Layout};
use socialscope_discovery::ClusteredNetworkAwareSearch;
use socialscope_exec::Exec;
use socialscope_graph::NodeId;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests, benches).
    pub addr: String,
    /// Micro-batching window: how long the oldest member of a batch may
    /// wait for company before the batch flushes. Zero serves per-request.
    pub window: Duration,
    /// Flush a batch early once it collects this many members.
    pub max_batch: usize,
    /// Per-request latency budget, counted from admission (queue wait
    /// included); what remains at flush time becomes the engine deadline.
    pub slo: Duration,
    /// Serving worker threads draining the batch queue.
    pub workers: usize,
    /// Largest honored `k`; bigger asks are clamped (a hostile request
    /// must not make the engine rank the whole site).
    pub k_max: usize,
    /// HTTP parser size caps.
    pub limits: HttpLimits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            window: Duration::from_millis(2),
            max_batch: 128,
            slo: Duration::from_millis(50),
            workers: 2,
            k_max: 100,
            limits: HttpLimits::default(),
        }
    }
}

/// Monotonically increasing serving counters (`GET /stats`).
#[derive(Debug, Default)]
struct Counters {
    queries: AtomicU64,
    applies: AtomicU64,
    degraded: AtomicU64,
    batches: AtomicU64,
}

struct Shared {
    engine: RwLock<ClusteredNetworkAwareSearch>,
    batcher: Batcher,
    exec: Exec,
    config: ServerConfig,
    counters: Counters,
    shutdown: AtomicBool,
}

/// A running server: its bound address plus the handles needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain queued queries, and join every serving
    /// thread. In-flight connections are answered with
    /// `Connection: close`.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.batcher.shutdown();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        for handle in self.worker_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.shared.shutdown.load(Ordering::SeqCst) {
            self.stop();
        }
    }
}

/// Boot a server over a prebuilt engine. The engine should carry an exact
/// fallback ([`ClusteredNetworkAwareSearch::with_exact_fallback`]) so
/// seekers the clustering never saw get real answers; without one they get
/// the engine's defined empty-with-flag result, marked `unclustered`
/// either way.
pub fn spawn(
    config: ServerConfig,
    engine: ClusteredNetworkAwareSearch,
    exec: Exec,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        engine: RwLock::new(engine),
        batcher: Batcher::new(config.window, config.max_batch),
        exec,
        config,
        counters: Counters::default(),
        shutdown: AtomicBool::new(false),
    });

    // Thread spawning can genuinely fail (thread-count rlimits, memory
    // pressure), and `spawn` already returns `io::Result`: a failed boot
    // surfaces as a typed error, never a panic. A partial boot is rolled
    // back first — the workers that did spawn are woken via batcher
    // shutdown and joined, so no thread outlives the error.
    let worker_count = shared.config.workers.max(1);
    let mut worker_threads = Vec::with_capacity(worker_count);
    for index in 0..worker_count {
        let worker_shared = Arc::clone(&shared);
        match std::thread::Builder::new()
            .name(format!("serve-worker-{index}"))
            .spawn(move || worker_loop(&worker_shared))
        {
            Ok(handle) => worker_threads.push(handle),
            Err(error) => {
                shared.batcher.shutdown();
                for handle in worker_threads {
                    let _ = handle.join();
                }
                return Err(error);
            }
        }
    }

    let accept_shared = Arc::clone(&shared);
    let accept_thread = match std::thread::Builder::new()
        .name("serve-accept".to_string())
        .spawn(move || accept_loop(listener, &accept_shared))
    {
        Ok(handle) => handle,
        Err(error) => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.batcher.shutdown();
            for handle in worker_threads {
                let _ = handle.join();
            }
            return Err(error);
        }
    };

    Ok(ServerHandle { addr, shared, accept_thread: Some(accept_thread), worker_threads })
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        // One thread per connection: keep-alive clients (the load
        // generator, production pollers) hold few, long-lived
        // connections, so the thread count tracks the client pool size,
        // not the request rate.
        let _ = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || handle_connection(stream, &shared));
    }
}

/// The serving worker loop: pop a ripe batch, serve it under the
/// remaining deadline budget, answer every member. A panic inside the
/// engine call is caught and converted to per-member failures — the
/// worker, the queue, and every other connection keep serving
/// (`parking_lot` locks do not poison).
fn worker_loop(shared: &Arc<Shared>) {
    let mut pool = BatchScratchPool::default();
    while let Some(batch) = shared.batcher.next_batch() {
        shared.counters.batches.fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| serve_batch(shared, &mut pool, &batch)));
        match outcome {
            Ok(responses) => {
                for (member, response) in batch.members.iter().zip(responses) {
                    if response.degraded {
                        shared.counters.degraded.fetch_add(1, Ordering::Relaxed);
                    }
                    let _ = member.reply.send(ServeOutcome::Answer(Box::new(response)));
                }
            }
            Err(_) => {
                // The scratch pool may be mid-mutation; drop it for a
                // fresh one rather than reuse possibly-torn state.
                pool = BatchScratchPool::default();
                for member in &batch.members {
                    let _ = member.reply.send(ServeOutcome::Failed);
                }
            }
        }
    }
}

/// Serve one flushed batch through `query_batch_opts`, mapping each
/// member's report to its wire response.
fn serve_batch(
    shared: &Arc<Shared>,
    pool: &mut BatchScratchPool,
    batch: &ReadyBatch,
) -> Vec<QueryResponse> {
    let seekers: Vec<NodeId> = batch.members.iter().map(|m| m.request.seeker).collect();
    let k = batch.key.k.min(shared.config.k_max);
    // The budget left after window wait; zero still reaches the engine —
    // an already-expired deadline degrades every member by contract,
    // which keeps "SLO blown before flush" on the same defined path.
    let remaining = shared.config.slo.saturating_sub(batch.oldest.elapsed());
    let engine = shared.engine.read();
    let reports = engine.query_batch_opts(
        &seekers,
        &batch.key.keywords,
        k,
        BatchOptions::new().exec(&shared.exec).scratch_pool(pool).deadline(remaining),
    );
    batch
        .members
        .iter()
        .zip(reports)
        .map(|(member, report)| {
            let degraded = report.deadline_expired || report.result.deadline_expired;
            QueryResponse {
                version: WIRE_VERSION,
                seeker: member.request.seeker,
                results: report
                    .result
                    .ranked
                    .into_iter()
                    .filter(|(_, score)| *score > 0.0)
                    .map(|(item, score)| ScoredItem { item, score })
                    .collect(),
                degraded,
                unclustered: report.unclustered,
                batch_size: batch.members.len(),
            }
        })
        .collect()
}

/// Per-connection keep-alive loop: read a request, route it, write the
/// response; close on error, `Connection: close`, or shutdown.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = RequestReader::new(stream);
    loop {
        let request = match reader.read_request(&shared.config.limits) {
            Ok(request) => request,
            Err(error) => {
                if let Some((status, detail)) = error.status() {
                    let body = ErrorResponse::new(error_kind(status), detail).to_json();
                    if write_response(&mut writer, status, body.as_bytes(), true).is_ok() {
                        linger_close(writer.get_ref());
                    }
                }
                return;
            }
        };
        let close = request.wants_close() || shared.shutdown.load(Ordering::SeqCst);
        let (status, body) = route(shared, &request);
        if write_response(&mut writer, status, body.as_bytes(), close).is_err() {
            return;
        }
        if close {
            let _ = writer.flush();
            linger_close(writer.get_ref());
            return;
        }
    }
}

/// Lingering close: half-close the send side, then drain (bounded) until
/// the peer acknowledges EOF. Dropping a socket with unread request bytes
/// still queued makes the kernel send RST, which destroys the response we
/// just wrote before the peer can read it — exactly the case for a
/// rejected oversized request, where the peer is mid-send when we answer.
fn linger_close(stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    let mut reader = stream;
    while let Ok(n) = std::io::Read::read(&mut reader, &mut sink) {
        if n == 0 || drained > (1 << 20) {
            break;
        }
        drained += n;
    }
}

fn error_kind(status: u16) -> &'static str {
    match status {
        400 | 413 | 431 | 505 => "bad_request",
        404 => "not_found",
        405 => "method_not_allowed",
        409 => "apply_rejected",
        _ => "internal",
    }
}

/// Dispatch one parsed request to its endpoint.
fn route(shared: &Arc<Shared>, request: &Request) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/query") => serve_query(shared, &request.body),
        ("POST", "/apply") => serve_apply(shared, &request.body),
        ("GET", "/health") => (200, format!("{{\"status\":\"ok\",\"version\":{WIRE_VERSION}}}")),
        ("GET", "/stats") => (200, serve_stats(shared).to_json()),
        (_, "/query" | "/apply" | "/health" | "/stats") => (
            405,
            ErrorResponse::new(
                "method_not_allowed",
                format!("{} not allowed here", request.method),
            )
            .to_json(),
        ),
        (_, path) => {
            (404, ErrorResponse::new("not_found", format!("no such endpoint `{path}`")).to_json())
        }
    }
}

/// `GET /stats`: serving counters plus a live memory profile of the engine.
///
/// The memory block is read under the engine read lock, so the bytes always
/// describe the index generation queries are currently served from — a
/// concurrent `/apply` republishes both together.
fn serve_stats(shared: &Arc<Shared>) -> StatsResponse {
    let counters = &shared.counters;
    let engine = shared.engine.read();
    let profile = engine.memory_profile();
    StatsResponse {
        version: WIRE_VERSION,
        queries: counters.queries.load(Ordering::Relaxed),
        applies: counters.applies.load(Ordering::Relaxed),
        degraded: counters.degraded.load(Ordering::Relaxed),
        batches: counters.batches.load(Ordering::Relaxed),
        layout: match engine.index().layout() {
            Layout::Raw => "raw".to_owned(),
            Layout::Compressed => "compressed".to_owned(),
        },
        heap_bytes: profile.total() as u64,
        postings_bytes: profile.postings_bytes as u64,
        pool_bytes: profile.pool_bytes as u64,
        refinement_bytes: profile.refinement_bytes as u64,
        tables_bytes: profile.tables_bytes as u64,
    }
}

/// `POST /query`: admit, micro-batch, block for the answer.
fn serve_query(shared: &Arc<Shared>, body: &[u8]) -> (u16, String) {
    let Ok(text) = std::str::from_utf8(body) else {
        return (400, ErrorResponse::new("bad_request", "body is not UTF-8").to_json());
    };
    let request = match QueryRequest::from_json(text) {
        Ok(request) => request,
        Err(error) => {
            return (400, ErrorResponse::new("bad_request", error.to_string()).to_json());
        }
    };
    shared.counters.queries.fetch_add(1, Ordering::Relaxed);
    let (reply, answer) = mpsc::channel();
    // lint: allow(clock_confined, reason = "admission timestamp: the SLO budget counts from here and is later handed to the engine as a Deadline; this is bookkeeping for the strided clock, not a bypass of it")
    shared.batcher.enqueue(Pending { request, enqueued: Instant::now(), reply });
    // The worker owns the deadline; the handler just waits generously
    // longer than any serving path could take (window + SLO + engine
    // teardown). A missing answer means the worker died or shutdown
    // refused the enqueue: a typed 500 either way.
    let grace = shared.config.slo + shared.config.window + Duration::from_secs(30);
    match answer.recv_timeout(grace) {
        Ok(ServeOutcome::Answer(response)) => (200, response.to_json()),
        Ok(ServeOutcome::Failed) | Err(_) => {
            (500, ErrorResponse::new("internal", "serving worker failed").to_json())
        }
    }
}

/// `POST /apply`: transactional tag-event ingestion under the write lock.
fn serve_apply(shared: &Arc<Shared>, body: &[u8]) -> (u16, String) {
    let Ok(text) = std::str::from_utf8(body) else {
        return (400, ErrorResponse::new("bad_request", "body is not UTF-8").to_json());
    };
    let events = match ApplyRequest::from_json(text).and_then(|request| request.to_events()) {
        Ok(events) => events,
        Err(error) => {
            return (400, ErrorResponse::new("bad_request", error.to_string()).to_json());
        }
    };
    shared.counters.applies.fetch_add(1, Ordering::Relaxed);
    let mut engine = shared.engine.write();
    match engine.try_apply_with(&shared.exec, &events) {
        Ok(report) => (
            200,
            ApplyResponse {
                version: WIRE_VERSION,
                changed_entries: report.changed_entries,
                changed_groups: report.changed_groups,
                cluster_joins: report.cluster_joins,
            }
            .to_json(),
        ),
        // The engine rolled back: site model, clustered index and
        // fallback are untouched. Surface the typed reason.
        Err(error) => (409, ErrorResponse::new("apply_rejected", error.to_string()).to_json()),
    }
}
