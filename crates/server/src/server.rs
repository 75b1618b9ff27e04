//! The serving loop: acceptor → bounded connection queue → handler
//! threads, each of which *is* the pipeline thread of the request it read.
//!
//! Whichever thread parses a request also answers it — `/ask`, `/sparql`,
//! `/ingest` and `/federate/ask` alike — so a request crosses exactly one
//! thread boundary (acceptor → handler) before its work starts.  Overload
//! degrades with explicit signals instead of unbounded queueing:
//!
//! 1. The **acceptor** thread accepts sockets and pushes them onto a
//!    *bounded* connection queue.  A full queue answers `503` directly on
//!    the fresh socket and closes it — the server never accumulates
//!    connections it cannot serve.
//! 2. **Handler** threads pop connections — the most recently idle
//!    handler first, so light traffic stays on few warm threads — parse
//!    requests (keep-alive, with byte limits from [`Limits`]), and apply
//!    per-client [`RateLimit`]s (`429 Too Many Requests`).
//! 3. Questions (`/ask`, `/federate/ask`) then pass the one
//!    [`Admission`] gate: as many pipeline runs at once as the service has
//!    configured workers, at most [`ServerConfig::shed_queue_depth`]
//!    handlers waiting for a permit, and `503` + `Retry-After` for the
//!    rest.  The admitted handler calls [`QaService::answer`] itself.  A
//!    federated question is understood once and its per-KG legs are
//!    claimed by the same handler; threads of the process's one shared
//!    helper pool (`kgqan_sparql::pool`, which a parallel `/sparql` query
//!    draws its morsel helpers from too) help only while the service has
//!    workers no admitted request is using, so under load a federated
//!    request too stays on its handler.  Per-request deadlines
//!    ride the existing
//!    [`Budget`](kgqan::Budget) machinery: a request that cannot finish in
//!    time returns best-so-far answers flagged `"partial": true` rather
//!    than missing its deadline entirely.
//!
//! A panic anywhere below a handler's routing frame becomes that
//! request's `500`; the handler thread and its connection survive.
//!
//! [`ServerHandle::shutdown`] stops the acceptor, drains queued
//! connections, lets in-flight requests finish, and joins every thread.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use kgqan::QaService;
use kgqan_federate::FederatedEndpoint;
use kgqan_rdf::IngestBatch;

use crate::admission::{Admission, RateLimit, RateLimiter};
use crate::http::{read_request, Limits, Request, Response};
use crate::metrics::{write_sample, Metrics, Route};
use crate::wire;

/// Everything tunable about the serving loop.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection-handler threads (each serves one connection at a time).
    pub handler_threads: usize,
    /// Bound of the accepted-connection queue; beyond it the acceptor
    /// answers `503` directly.
    pub conn_queue_bound: usize,
    /// How many questions may wait for a pipeline permit (the
    /// [`Admission`] gate's waiting room); one more is shed with `503`.
    pub shed_queue_depth: usize,
    /// Per-client rate limit; `None` disables the limiter.
    pub rate_limit: Option<RateLimit>,
    /// Request size limits.
    pub limits: Limits,
    /// Deadline applied to ask requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Socket read timeout: bounds how long an idle keep-alive connection
    /// may hold a handler thread, and therefore how long shutdown can
    /// take.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            handler_threads: 4,
            conn_queue_bound: 64,
            shed_queue_depth: 32,
            rate_limit: None,
            limits: Limits::default(),
            default_deadline: None,
            idle_timeout: Duration::from_secs(2),
        }
    }
}

/// The running server: owns the acceptor and handler threads.
///
/// Dropping the handle shuts the server down gracefully (equivalent to
/// calling [`ServerHandle::shutdown`]).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
}

/// Accepted connections waiting for a handler, and the handlers waiting
/// for a connection.  The most recently idle handler is woken first, so a
/// server with more handler threads than live connections keeps its work —
/// and the memory the allocator retains per thread for it — on as few
/// threads as the load needs.
struct ConnQueue {
    bound: usize,
    state: Mutex<ConnState>,
}

#[derive(Default)]
struct ConnState {
    waiting: VecDeque<TcpStream>,
    idle: Vec<Thread>,
    closed: bool,
}

impl ConnQueue {
    fn lock(&self) -> MutexGuard<'_, ConnState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Queue a connection and wake a handler; hands the connection back
    /// when `bound` connections are already waiting.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut state = self.lock();
        if state.waiting.len() >= self.bound {
            return Err(stream);
        }
        state.waiting.push_back(stream);
        if let Some(handler) = state.idle.pop() {
            handler.unpark();
        }
        Ok(())
    }

    /// The next connection for the calling handler; `None` once the queue
    /// is closed and drained.
    fn pop(&self) -> Option<TcpStream> {
        let me = std::thread::current();
        loop {
            let mut state = self.lock();
            // Still listed if the wake-up was spurious.
            state.idle.retain(|handler| handler.id() != me.id());
            if let Some(stream) = state.waiting.pop_front() {
                return Some(stream);
            }
            if state.closed {
                return None;
            }
            state.idle.push(me.clone());
            drop(state);
            std::thread::park();
        }
    }

    /// No more connections will come: idle handlers drain and exit.
    fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        for handler in state.idle.drain(..) {
            handler.unpark();
        }
    }
}

struct Shared {
    service: QaService,
    conns: ConnQueue,
    /// The federation layer over the same service (the service is a cheap
    /// `Arc` clone, so both views share registry and cache).
    federated: FederatedEndpoint,
    gate: Admission,
    config: ServerConfig,
    metrics: Metrics,
    limiter: Option<RateLimiter>,
    shutting_down: AtomicBool,
}

/// Bind a listener and start serving `service` on it.
///
/// `addr` is anything [`ToSocketAddrs`] accepts; `127.0.0.1:0` picks an
/// ephemeral port, reported by [`ServerHandle::addr`].
pub fn serve(
    service: QaService,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        limiter: config.rate_limit.map(RateLimiter::new),
        federated: FederatedEndpoint::new(service.clone()),
        gate: Admission::new(service.workers(), config.shed_queue_depth),
        conns: ConnQueue {
            // Room for at least one, or no connection would ever be served.
            bound: config.conn_queue_bound.max(1),
            state: Mutex::default(),
        },
        service,
        config,
        metrics: Metrics::new(),
        shutting_down: AtomicBool::new(false),
    });

    let mut handlers = Vec::with_capacity(shared.config.handler_threads);
    for i in 0..shared.config.handler_threads.max(1) {
        let shared = Arc::clone(&shared);
        handlers.push(
            std::thread::Builder::new()
                .name(format!("kgqan-http-{i}"))
                .spawn(move || {
                    while let Some(stream) = shared.conns.pop() {
                        handle_connection(&shared, stream);
                    }
                })
                .expect("spawn handler thread"),
        );
    }

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("kgqan-http-acceptor".into())
            .spawn(move || acceptor_loop(&shared, &listener))
            .expect("spawn acceptor thread")
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        handlers,
    })
}

impl ServerHandle {
    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's counters.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The service this server fronts.
    pub fn service(&self) -> &QaService {
        &self.shared.service
    }

    /// Stop accepting, drain queued connections, finish in-flight
    /// requests, and join every thread.  Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // The acceptor is blocked in accept(); a throw-away connection
        // wakes it so it can observe the flag and exit.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // With the queue closed, handlers drain what is queued, finish
        // their current connection (bounded by the idle timeout) and exit.
        self.shared.conns.close();
        for handler in self.handlers.drain(..) {
            let _ = handler.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn acceptor_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            // Listener-level failure: transient resource exhaustion.
            if shared.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        shared
            .metrics
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        if let Err(mut stream) = shared.conns.push(stream) {
            // Connection queue full: answer 503 on the socket directly
            // instead of queueing unboundedly.
            shared
                .metrics
                .connections_refused
                .fetch_add(1, Ordering::Relaxed);
            let response = error_response(503, "server connection queue is full")
                .with_header("retry-after", "1");
            let _ = response.write_to(&mut stream, false);
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.idle_timeout));
    let _ = stream.set_nodelay(true);
    let peer_ip = stream
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);

    loop {
        let request = match read_request(&mut reader, &shared.config.limits) {
            Ok(Some(request)) => request,
            Ok(None) => return, // Peer closed an idle connection.
            Err(e) => {
                // Timeouts and socket errors get no response (there may be
                // a half-read request on the wire); protocol errors get
                // their status and close the connection, since framing is
                // lost.
                let status = e.status();
                if status != 0 {
                    let _ = error_response(status, &e).write_to(&mut writer, false);
                    shared.metrics.record(Route::Other, status, Duration::ZERO);
                }
                return;
            }
        };

        let started = Instant::now();
        let keep_alive = request.keep_alive() && !shared.shutting_down.load(Ordering::SeqCst);
        // What a request can reach through `shared` is atomics and
        // poison-tolerant locks, so state stays usable across an unwind.
        let responded = catch_unwind(AssertUnwindSafe(|| respond(shared, &request, &peer_ip)));
        let (route, response) = responded.unwrap_or_else(|_| {
            let response = error_response(500, "the request handler panicked");
            (Route::Other, response)
        });
        shared
            .metrics
            .record(route, response.status, started.elapsed());
        if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Route and answer one request.  Expected failures map to status codes
/// here; a panic below this frame is turned into a `500` by
/// [`handle_connection`].
fn respond(shared: &Shared, request: &Request, peer_ip: &str) -> (Route, Response) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => (Route::Healthz, healthz(shared)),
        ("GET", ["metrics"]) => (Route::Metrics, metrics_page(shared)),
        (_, ["healthz"]) | (_, ["metrics"]) => (
            if segments == ["healthz"] {
                Route::Healthz
            } else {
                Route::Metrics
            },
            method_not_allowed("GET"),
        ),
        ("GET", ["kg"]) => (Route::KgList, kg_list(shared)),
        (_, ["kg"]) => (Route::KgList, method_not_allowed("GET")),
        ("POST", ["federate", "ask"]) => {
            if let Some(response) = rate_limit(shared, request, peer_ip) {
                return (Route::Federate, response);
            }
            (Route::Federate, finish(federate_ask(shared, request)))
        }
        (_, ["federate", "ask"]) => (Route::Federate, method_not_allowed("POST")),
        (method, ["kg", kg, action @ ("ask" | "sparql" | "ingest")]) => {
            let route = match *action {
                "ask" => Route::Ask,
                "sparql" => Route::Sparql,
                _ => Route::Ingest,
            };
            // Per-client admission first: a rate-limited client must not
            // consume pipeline capacity.
            if let Some(response) = rate_limit(shared, request, peer_ip) {
                return (route, response);
            }
            record_kg(shared, kg);
            let response = match (method, *action) {
                ("POST", "ask") => finish(ask(shared, request, kg)),
                ("GET" | "POST", "sparql") => finish(sparql(shared, request, kg)),
                ("POST", "ingest") => finish(ingest(shared, request, kg)),
                (_, "sparql") => method_not_allowed("GET, POST"),
                _ => method_not_allowed("POST"),
            };
            (route, response)
        }
        _ => (
            Route::Other,
            error_response(404, format!("no route for {}", request.path)),
        ),
    }
}

/// A handler's `Err` is the error response it bailed out with.
fn finish(outcome: Result<Response, Response>) -> Response {
    outcome.unwrap_or_else(|error| error)
}

/// The one JSON error shape: `status` plus a message.  Service and endpoint
/// errors pass their own `http_status()`.
fn error_response(status: u16, message: impl std::fmt::Display) -> Response {
    Response::json(status, wire::error_body(status, &message.to_string()))
}

fn method_not_allowed(allow: &str) -> Response {
    error_response(405, "method not allowed").with_header("allow", allow)
}

/// The request body as text; every route that reads a body refuses one
/// that is not UTF-8 instead of guessing at it.
fn utf8_body(request: &Request) -> Result<&str, Response> {
    std::str::from_utf8(&request.body).map_err(|_| error_response(400, "request body is not UTF-8"))
}

/// Count one request against `kg` if it is registered.  The name comes off
/// the request line (or a federated selection), so anything the registry
/// does not know is folded into one fixed label: the counter map stays
/// bounded and no client-chosen text reaches `/metrics`.
fn record_kg(shared: &Shared, kg: &str) {
    let known = shared.service.registry().contains(kg);
    shared.metrics.record_kg(if known { kg } else { "unknown" });
}

/// Per-client admission: `Some(429)` when the client is over its limit.
/// Checked before any pipeline work so a rate-limited client cannot
/// consume answering capacity.
fn rate_limit(shared: &Shared, request: &Request, peer_ip: &str) -> Option<Response> {
    let limiter = shared.limiter.as_ref()?;
    let client = request.header("x-client-id").unwrap_or(peer_ip);
    let wait = limiter.check(client).err()?;
    shared.metrics.rate_limited.fetch_add(1, Ordering::Relaxed);
    Some(
        error_response(429, format!("client {client} is over its rate limit"))
            .with_header("retry-after", format!("{}", wait.as_secs().max(1))),
    )
}

/// Run a question's pipeline work on this handler thread under a gate
/// permit.  A full waiting room is the server's load shed: accepted-but-
/// unanswerable work is what melts latency, so it is refused up front.
fn admitted<T>(shared: &Shared, work: impl FnOnce() -> T) -> Result<T, Response> {
    shared.gate.run(work).ok_or_else(|| {
        shared.metrics.load_shed.fetch_add(1, Ordering::Relaxed);
        error_response(503, "pipeline is at capacity and its waiting room is full")
            .with_header("retry-after", "1")
    })
}

fn healthz(shared: &Shared) -> Response {
    let mut body = String::from("{\"status\":\"ok\",\"kgs\":[");
    for (i, name) in shared.service.kg_names().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        kgqan_endpoint::json::write_json_string(&mut body, name);
    }
    body.push_str("]}");
    Response::json(200, body)
}

fn metrics_page(shared: &Shared) -> Response {
    let mut text = shared.metrics.render();
    let gate = shared.gate.stats();
    for (name, value) in [
        ("pipeline_queue_depth", gate.queued as u64),
        ("pipeline_workers", gate.workers as u64),
        ("pipeline_running", gate.running as u64),
        ("pipeline_completed_total", gate.completed),
        ("pipeline_rejected_total", gate.rejected),
    ] {
        write_sample(&mut text, name, None, value);
    }
    for (kg, stats) in &shared.service.cache_report().per_kg {
        let label = Some(("kg", kg.as_str()));
        write_sample(&mut text, "cache_hits_total", label, stats.hits);
        write_sample(&mut text, "cache_misses_total", label, stats.misses);
        write_sample(
            &mut text,
            "cache_resident_bytes",
            label,
            stats.resident_bytes,
        );
    }
    Response::text(200, text)
}

fn kg_list(shared: &Shared) -> Response {
    Response::json(
        200,
        wire::kg_list_to_json(&shared.service.registry().describe()),
    )
}

fn federate_ask(shared: &Shared, request: &Request) -> Result<Response, Response> {
    let mut federated_request = wire::parse_federate_request(utf8_body(request)?)
        .map_err(|message| error_response(400, message))?;
    if federated_request.deadline.is_none() {
        federated_request.deadline = shared.config.default_deadline;
    }
    // One permit covers the whole fan-out: this thread runs the legs,
    // with help from the shared helper pool while other permits are free, and
    // merges.
    let response = admitted(shared, || shared.federated.ask(federated_request))?
        .map_err(|e| error_response(e.http_status(), e))?;
    shared
        .metrics
        .federated_fanout
        .fetch_add(response.reports.len() as u64, Ordering::Relaxed);
    if response.is_partial() {
        shared
            .metrics
            .federated_partial
            .fetch_add(1, Ordering::Relaxed);
    }
    for report in &response.reports {
        record_kg(shared, &report.kg);
    }
    Ok(Response::json(
        200,
        wire::federated_response_to_json(&response),
    ))
}

fn ask(shared: &Shared, request: &Request, kg: &str) -> Result<Response, Response> {
    let mut answer_request = wire::parse_ask_request(utf8_body(request)?, kg)
        .map_err(|message| error_response(400, message))?;
    if answer_request.deadline.is_none() {
        answer_request.deadline = shared.config.default_deadline;
    }
    let response = admitted(shared, || shared.service.answer(answer_request))?
        .map_err(|e| error_response(e.http_status(), e))?;
    Ok(Response::json(
        200,
        wire::answer_response_to_json(&response),
    ))
}

fn sparql(shared: &Shared, request: &Request, kg: &str) -> Result<Response, Response> {
    let query = if request.method == "GET" {
        request.query_param("query")
    } else {
        let body = utf8_body(request)?;
        let content_type = request.header("content-type").unwrap_or("");
        if content_type.starts_with("application/x-www-form-urlencoded") {
            // Re-use the query-string parser on the form body.
            Request {
                query: body.to_string(),
                ..request.clone()
            }
            .query_param("query")
        } else {
            Some(body.to_string()).filter(|b| !b.trim().is_empty())
        }
    };
    let query = query.ok_or_else(|| {
        error_response(400, "missing SPARQL query (use ?query= or a request body)")
    })?;
    let registry = shared.service.registry();
    let endpoint = registry
        .get(kg)
        .map_err(|e| error_response(e.http_status(), e))?;
    let parsed = kgqan_sparql::parse_query(&query).map_err(|e| error_response(400, e))?;
    let explain = request
        .query_param("explain")
        .is_some_and(|v| v != "0" && v != "false");
    // SERVICE groups join against other registered KGs, so they (and
    // explain requests, which need the traced plan) go through the
    // federated entry point with the registry as the resolver.
    let body = if explain || !parsed.pattern.service_targets().is_empty() {
        let traced = endpoint
            .query_federated(&parsed, registry)
            .map_err(|e| error_response(e.http_status(), e))?;
        if explain {
            wire::traced_query_to_json(&traced)
        } else {
            wire::query_results_to_json(&traced.results)
        }
    } else {
        let results = endpoint
            .query_parsed(&parsed)
            .map_err(|e| error_response(e.http_status(), e))?;
        wire::query_results_to_json(&results)
    };
    Ok(Response::json(200, body))
}

fn ingest(shared: &Shared, request: &Request, kg: &str) -> Result<Response, Response> {
    let triples =
        kgqan_rdf::parse_ntriples(utf8_body(request)?).map_err(|e| error_response(400, e))?;
    let report = shared
        .service
        .ingest(kg, IngestBatch::from(triples))
        .map_err(|e| error_response(e.http_status(), e))?;
    Ok(Response::json(200, wire::ingest_report_to_json(&report)))
}
