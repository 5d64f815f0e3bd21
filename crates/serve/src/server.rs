//! The daemon: an HTTP front end over a persistent [`BatchDispatcher`],
//! served by a fixed pool of connection workers.
//!
//! ## Lifecycle
//!
//! [`Server::start`] binds the listener, boots the dispatcher's worker
//! pool and `max_in_flight + 1` connection workers, and spawns the accept
//! loop, which hands each connection to the workers through a queue as
//! deep as the pool: one request, one `Connection: close` response. A
//! connection that finds the queue full is answered `503 saturated` by
//! the accept loop, so the thread count never grows with the connections.
//! `POST /analyze` and `POST /contour` submit the deck as it came: the
//! job's session does the one parse and the one lint. The worker blocks
//! on the job ticket, so batch backpressure (`max_in_flight`) bounds the
//! jobs — a submit against a full dispatcher returns 503 immediately.
//!
//! ## Graceful drain
//!
//! [`Server::shutdown`] (or a `POST /shutdown` request) flips the drain
//! flag. The accept loop answers the next connection with 503 and
//! returns, which closes the queue; the connection workers finish every
//! connection queued or in hand — each job runs, each ticket resolves,
//! each response is written — and exit. Only then is the dispatcher
//! drained and the merged `serve.*` + `batch.*` [`PerfReport`] returned.
//! Every job the dispatcher accepted therefore gets exactly one
//! response; jobs never outlive the server silently.
//!
//! Each accept and each connection runs under its own
//! [`cafemio::instrument::record`] scope and merges what it recorded
//! into the shared metrics once, when it finishes.

use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cafemio::batch::{BatchDispatcher, BatchJob, BatchOptions, JobOutcome, SetupFn};
use cafemio::cache::{CacheKey, CacheStage, StableHasher};
use cafemio::fem::{AnalysisKind, FemError, FemModel, Material};
use cafemio::instrument::{add, record, span, PerfReport, SpanRecord};
use cafemio::lint::LintConfig;
use cafemio::mesh::TriMesh;
use cafemio::pipeline::StressComponent;
use cafemio::plotter::render_svg;
use cafemio::SessionConfig;

use crate::artifact;
use crate::http::{self, HttpError, Request};

/// The per-request span names the service records, in request order.
pub const SERVE_SPANS: [&str; 5] = [
    "serve.accept",
    "serve.parse",
    "serve.dispatch",
    "serve.render",
    "serve.respond",
];

/// The counters the final drained report always carries (seeded to zero
/// so a quiet server still produces a structurally complete report).
pub const SERVE_COUNTERS: [&str; 8] = [
    "serve.requests",
    "serve.responses",
    "serve.completed",
    "serve.failed",
    "serve.rejected",
    "serve.http_errors",
    "serve.lint_requests",
    "serve.fixes_applied",
];

/// A deck-agnostic cantilever setup used when the operator does not
/// install one: clamp a thin band at minimum `x`, pull the matching band
/// at maximum `x`. Identical in spirit to the bench corpus setup, so
/// service runs are comparable to direct batch runs out of the box.
pub fn default_setup(mesh: &TriMesh) -> Result<FemModel, FemError> {
    let mut model = FemModel::new(
        mesh.clone(),
        AnalysisKind::PlaneStress { thickness: 1.0 },
        Material::isotropic(30.0e6, 0.3),
    );
    let (min, max) = mesh
        .nodes()
        .map(|(_, n)| n.position.x)
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
            (lo.min(x), hi.max(x))
        });
    let band = 1e-9 + 0.10 * (max - min);
    for (id, node) in mesh.nodes() {
        if node.position.x <= min + band {
            model.fix_both(id);
        } else if node.position.x >= max - band {
            model.add_force(id, 25.0, 0.0);
        }
    }
    Ok(model)
}

/// Configuration for [`Server::start`]. Defaults: bind `127.0.0.1:0`
/// (ephemeral port), 10-second read timeout, 1 MiB body cap, default
/// batch options, [`default_setup`] boundary conditions, effective
/// stress.
#[derive(Clone)]
pub struct ServeOptions {
    batch: BatchOptions,
    addr: String,
    read_timeout: Duration,
    max_body_bytes: usize,
    setup: SetupFn,
    component: StressComponent,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions::new()
    }
}

impl ServeOptions {
    /// The documented defaults.
    pub fn new() -> ServeOptions {
        ServeOptions {
            batch: BatchOptions::new(),
            addr: "127.0.0.1:0".to_string(),
            read_timeout: Duration::from_secs(10),
            max_body_bytes: 1024 * 1024,
            setup: Arc::new(default_setup),
            component: StressComponent::Effective,
        }
    }

    /// Sets the batch-engine options (workers, `max_in_flight`, solver,
    /// audit, lint, capability) the dispatcher runs with. Its session
    /// lint is the service's only lint, [`LintConfig::new`] when unset;
    /// `max_in_flight` also sizes the connection workers.
    pub fn batch(mut self, batch: BatchOptions) -> ServeOptions {
        self.batch = batch;
        self
    }

    /// Sets the bind address (default `127.0.0.1:0`).
    pub fn addr(mut self, addr: impl Into<String>) -> ServeOptions {
        self.addr = addr.into();
        self
    }

    /// Sets the per-connection read timeout. A connection that has not
    /// delivered a full request within it is answered 408 and closed.
    pub fn read_timeout(mut self, timeout: Duration) -> ServeOptions {
        self.read_timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// Sets the request-body cap; larger declared bodies are answered
    /// 413 before a single body byte is read.
    pub fn max_body_bytes(mut self, limit: usize) -> ServeOptions {
        self.max_body_bytes = limit.max(1);
        self
    }

    /// Installs the boundary-condition callback applied to every deck.
    pub fn setup(mut self, setup: SetupFn) -> ServeOptions {
        self.setup = setup;
        self
    }

    /// Sets the stress component jobs contour (default: effective).
    pub fn component(mut self, component: StressComponent) -> ServeOptions {
        self.component = component;
        self
    }

    /// The configured batch options.
    pub fn batch_options(&self) -> &BatchOptions {
        &self.batch
    }

    /// The configured read timeout.
    pub fn read_timeout_value(&self) -> Duration {
        self.read_timeout
    }

    /// The configured body cap in bytes.
    pub fn max_body_limit(&self) -> usize {
        self.max_body_bytes
    }
}

/// State shared by the accept loop, every connection worker, and the
/// drain path.
struct ServeShared {
    client: cafemio::batch::BatchClient,
    metrics: Mutex<PerfReport>,
    shutdown: AtomicBool,
    /// Connections with a connection worker or queued for one, and their
    /// cap: the workers plus a queue as deep.
    open: AtomicUsize,
    max_open: usize,
    addr: SocketAddr,
    read_timeout: Duration,
    max_body_bytes: usize,
    setup: SetupFn,
    component: StressComponent,
    /// The dispatcher's session: its lint config serves `/lint`, and its
    /// stage cache, when it has one, memoizes response bodies under
    /// [`CacheStage::Response`] so a byte-identical resubmission answers
    /// without taking a dispatcher slot.
    session: SessionConfig,
    /// The session fingerprint of the dispatcher's config — the second
    /// half of every response cache key.
    fingerprint: u64,
}

impl ServeShared {
    /// Folds one connection's or accept's recorded telemetry into the
    /// shared metrics — the hot path takes the metrics lock once.
    fn merge_metrics(&self, report: &PerfReport) {
        let mut metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        metrics.merge(report);
    }

    /// The seeded layout with every recorded request and the `drained`
    /// dispatcher report merged in, and the `cache.*` counters set to the
    /// store's own totals: merging summed the running totals.
    fn metrics_snapshot(&self, drained: &PerfReport) -> PerfReport {
        let mut snapshot = seeded_serve_report();
        snapshot.merge(&self.metrics.lock().unwrap_or_else(|e| e.into_inner()));
        snapshot.merge(drained);
        if let Some(store) = self.session.cache_store() {
            store.stats().publish(&mut snapshot);
        }
        snapshot
    }
}

/// A cloneable remote control for a running [`Server`]: observe state and
/// request a drain without owning the server value.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<ServeShared>,
}

impl ServerHandle {
    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Whether a drain has been requested (by [`Server::shutdown`],
    /// [`ServerHandle::request_shutdown`], or `POST /shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests a drain: the accept loop stops taking connections and
    /// new submissions are refused. Idempotent.
    pub fn request_shutdown(&self) {
        begin_shutdown(&self.shared);
    }
}

/// The running service; its thread count is fixed at [`start`](Server::start).
/// Dropping it without calling [`shutdown`](Server::shutdown) leaks the
/// threads for the process lifetime; long-running daemons should always drain.
pub struct Server {
    shared: Arc<ServeShared>,
    /// The accept loop first, then the connection workers: the order
    /// [`shutdown`](Server::shutdown) joins them in.
    threads: Vec<JoinHandle<()>>,
    dispatcher: BatchDispatcher,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.shared.addr)
            .field("draining", &self.shared.shutdown.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener, boots the dispatcher and the connection workers, and starts accepting.
    pub fn start(options: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        let addr = listener.local_addr()?;
        let mut session = options.batch.session_config().clone();
        if session.lint_options().is_none() {
            session = session.lint(LintConfig::new());
        }
        let connection_workers = options.batch.in_flight_bound() + 1;
        let dispatcher = BatchDispatcher::start(options.batch.config(session.clone()));
        let shared = Arc::new(ServeShared {
            client: dispatcher.client(),
            metrics: Mutex::new(PerfReport::default()),
            shutdown: AtomicBool::new(false),
            open: AtomicUsize::new(0),
            max_open: 2 * connection_workers,
            addr,
            read_timeout: options.read_timeout,
            max_body_bytes: options.max_body_bytes,
            setup: options.setup,
            component: options.component,
            fingerprint: session.fingerprint(),
            session,
        });
        let (queue, queued) = mpsc::channel();
        let queued = Arc::new(Mutex::new(queued));
        let accept_shared = Arc::clone(&shared);
        let mut threads = vec![std::thread::spawn(move || {
            accept_loop(&listener, queue, &accept_shared);
        })];
        threads.extend((0..connection_workers).map(|_| {
            let (queued, shared) = (Arc::clone(&queued), Arc::clone(&shared));
            std::thread::spawn(move || connection_worker(&queued, &shared))
        }));
        Ok(Server {
            shared,
            threads,
            dispatcher,
        })
    }

    /// The bound socket address (useful with the `127.0.0.1:0` default).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A cloneable handle for observing and draining the server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Jobs currently queued or running in the dispatcher.
    pub fn in_flight(&self) -> usize {
        self.shared.client.in_flight()
    }

    /// Gracefully drains the service and returns the merged report:
    /// stops accepting, finishes every queued and in-flight connection
    /// and job, drains the worker pool, and flushes the `serve.*` spans
    /// and counters alongside the batch engine's own `batch.*` layout.
    pub fn shutdown(self) -> PerfReport {
        begin_shutdown(&self.shared);
        for thread in self.threads {
            // invariant: neither the accept loop nor a connection worker
            // panics — every protocol and pipeline error becomes a
            // response, and a worker catches a job's resumed panic.
            thread.join().expect("serve threads never panic");
        }
        let drained = self.dispatcher.drain();
        self.shared.metrics_snapshot(&drained)
    }
}

/// The zero-valued `serve.*` skeleton every drained report starts from,
/// so quiet servers still emit the full span/counter layout.
fn seeded_serve_report() -> PerfReport {
    let mut report = PerfReport::default();
    for name in SERVE_SPANS {
        report.spans.push(SpanRecord {
            name: name.to_string(),
            depth: 0,
            nanos: 0,
        });
    }
    for name in SERVE_COUNTERS {
        report.set_counter(name, 0);
    }
    report
}

fn begin_shutdown(shared: &ServeShared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    // Wake the accept loop with a throwaway connection so it observes
    // the flag; if the connect fails the loop is already gone.
    let _ = TcpStream::connect(shared.addr);
}

/// Hands each accepted connection to the connection workers, up to
/// `max_open` unanswered at once (a worker slow to wake is not a full
/// queue). Returning drops `queue`: the workers exit once it is empty.
fn accept_loop(listener: &TcpListener, queue: Sender<TcpStream>, shared: &ServeShared) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            // Drain mode: answer the final accepted connection (possibly
            // the shutdown waker, which never reads it) with 503 and stop.
            if let Ok((stream, _)) = accepted {
                refuse(stream, "draining", "service is draining", shared);
            }
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let ((), report) = record(|| {
                    let _span = span("serve.accept");
                    if shared.open.fetch_add(1, Ordering::SeqCst) < shared.max_open {
                        // Cannot fail: the workers outlive the sender.
                        let _ = queue.send(stream);
                    } else {
                        shared.open.fetch_sub(1, Ordering::SeqCst);
                        add("serve.rejected", 1);
                        refuse(stream, "saturated", "the connection queue is full", shared);
                    }
                });
                shared.merge_metrics(&report);
            }
            // Transient accept failures (per-connection resets, fd
            // pressure) are not fatal to the loop; back off briefly so a
            // persistently broken listener cannot spin a core.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Answers a connection no worker will serve with a typed 503, then
/// discards the input already received: closing over unread input
/// resets the connection, and the client would lose the answer.
fn refuse(mut stream: TcpStream, kind: &str, message: &str, shared: &ServeShared) {
    let body = artifact::error_body(503, kind, None, message);
    let _ = http::write_response(&mut stream, 503, "application/json", body.as_bytes());
    let received = (http::MAX_HEAD_BYTES + shared.max_body_bytes) as u64;
    let _ = stream.set_nonblocking(true);
    let _ = std::io::copy(&mut stream.take(received), &mut std::io::sink());
}

/// One connection worker: serves queued connections one at a time until
/// the accept loop has returned and the queue is empty.
fn connection_worker(queued: &Mutex<Receiver<TcpStream>>, shared: &ServeShared) {
    loop {
        // The lock is held only while waiting for the next connection.
        let next = queued.lock().unwrap_or_else(|e| e.into_inner()).recv();
        let Ok(stream) = next else { return };
        // A panicking setup closure resumes through its job ticket here:
        // it costs that connection its response, not the pool a worker.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| handle_connection(&stream, shared)));
        // Free the slot before the connection closes, so a client that
        // has read its answer finds it free.
        shared.open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serves one connection under its own recorder, then folds what it
/// recorded into the shared metrics.
fn handle_connection(stream: &TcpStream, shared: &ServeShared) {
    let ((), report) = record(|| {
        add("serve.requests", 1);
        let _ = stream.set_read_timeout(Some(shared.read_timeout));
        respond(stream, shared);
    });
    shared.merge_metrics(&report);
}

/// Reads, routes, and answers one request. Every protocol or pipeline
/// failure becomes a typed response; only a vanished peer ends the
/// exchange without one.
fn respond(stream: &TcpStream, shared: &ServeShared) {
    let parsed = {
        let _span = span("serve.parse");
        let mut reader = BufReader::new(stream);
        http::read_request(&mut reader, shared.max_body_bytes)
    };
    let (status, content_type, body, extra_headers) = match parsed {
        Err(HttpError::Io(_)) => {
            add("serve.http_errors", 1);
            return;
        }
        Err(error) => {
            add("serve.http_errors", 1);
            error_response(error.status(), error.kind(), &error.to_string())
        }
        Ok(request) => route(&request, shared),
    };
    add("serve.responses", 1);
    let _span = span("serve.respond");
    // A write failure means the peer vanished; the job (if any) still
    // completed and was accounted, so there is nothing to do.
    let mut writer = stream;
    let extra: Vec<(&str, &str)> = extra_headers
        .iter()
        .map(|(name, value)| (name.as_str(), value.as_str()))
        .collect();
    let _ = http::write_response_with_headers(&mut writer, status, content_type, &extra, &body);
}

/// Status, content type, body, and the headers beyond the standard frame
/// (`X-Cafemio-Cache` on the deck endpoints, `X-Cafemio-Fixed` on
/// `/lint`). The body is shared so a response-cache hit is not copied.
type Response = (u16, &'static str, Arc<Vec<u8>>, Vec<(String, String)>);

/// A JSON response without extra headers.
fn json(status: u16, body: String) -> Response {
    let body = Arc::new(body.into_bytes());
    (status, "application/json", body, Vec::new())
}

/// A typed JSON error response (see [`artifact::error_body`]).
fn error_response(status: u16, kind: &str, message: &str) -> Response {
    json(status, artifact::error_body(status, kind, None, message))
}

/// The request body as deck text; a body that is not UTF-8 answers 400.
fn deck_text(request: &Request) -> Result<String, Response> {
    String::from_utf8(request.body.clone()).map_err(|_| {
        add("serve.http_errors", 1);
        error_response(400, "deck_parse", "request body is not UTF-8 text")
    })
}

fn route(request: &Request, shared: &ServeShared) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/analyze" | "/contour") => analyze(request, shared),
        ("POST", "/lint") => lint_endpoint(request, shared),
        ("GET", "/healthz") => json(200, health_body(shared)),
        // Cache effectiveness rides along: store totals at snapshot time,
        // so operators can watch the hit rate climb.
        ("GET", "/metrics") => {
            let metrics = shared.metrics_snapshot(&PerfReport::default());
            json(200, metrics.to_json())
        }
        ("POST", "/shutdown") => {
            // The flag flips before this connection's response is
            // written, so the requester always hears the drain began.
            begin_shutdown(shared);
            json(200, "{\n  \"status\": \"draining\"\n}\n".to_string())
        }
        (_, "/healthz" | "/metrics" | "/shutdown" | "/analyze" | "/contour" | "/lint") => {
            add("serve.http_errors", 1);
            let message = format!("{} is not supported on {}", request.method, request.path);
            error_response(405, "method_not_allowed", &message)
        }
        (_, path) => {
            add("serve.http_errors", 1);
            error_response(404, "not_found", &format!("no route for {path}"))
        }
    }
}

/// `POST /lint`: run the lint + auto-fix engine over the posted deck
/// under the dispatcher session's lint config, without touching the
/// dispatcher. Answers 400 when the body is not a deck at all, 422 when
/// fixing cannot converge or the repaired deck still carries
/// deny-severity diagnostics, and 200 otherwise; the body always
/// carries the diagnostics, the applied fixes, and the repaired deck
/// text, and `X-Cafemio-Fixed` counts the applied fixes. `?ospl=1`
/// selects the OSPL deck dialect (default IDLZ).
fn lint_endpoint(request: &Request, shared: &ServeShared) -> Response {
    use cafemio::lint::{apply_fixes, DeckKind, FixError, LintError};

    add("serve.lint_requests", 1);
    let deck = match deck_text(request) {
        Ok(deck) => deck,
        Err(response) => return response,
    };
    let kind = if request.query_param("ospl") == Some("1") {
        DeckKind::Ospl
    } else {
        DeckKind::Idlz
    };
    let name = request.query_param("name").unwrap_or("deck").to_string();
    let outcome = {
        let _span = span("serve.dispatch");
        let lint = shared.session.lint_options().cloned().unwrap_or_default();
        apply_fixes(&deck, kind, &lint)
    };
    match outcome {
        Err(FixError::Parse(message)) => {
            add("serve.failed", 1);
            error_response(400, "deck_parse", &message)
        }
        Err(error @ FixError::NoConvergence { .. }) => {
            add("serve.failed", 1);
            error_response(422, "fix_no_convergence", &error.to_string())
        }
        Ok(outcome) => {
            add("serve.completed", 1);
            add("serve.fixes_applied", outcome.applied.len() as u64);
            let status = if LintError::from_report(&outcome.report).is_some() {
                422
            } else {
                200
            };
            let headers = vec![(
                "X-Cafemio-Fixed".to_string(),
                outcome.applied.len().to_string(),
            )];
            let body = Arc::new(artifact::lint_fix_body(&name, &outcome).into_bytes());
            (status, "application/json", body, headers)
        }
    }
}

fn health_body(shared: &ServeShared) -> String {
    format!(
        "{{\n  \"status\": {},\n  \"in_flight\": {},\n  \"capacity\": {},\n  \
         \"accepted\": {},\n  \"draining\": {}\n}}\n",
        artifact::json_escape(if shared.shutdown.load(Ordering::SeqCst) {
            "draining"
        } else {
            "ok"
        }),
        shared.client.in_flight(),
        shared.client.capacity(),
        shared.client.accepted(),
        shared.shutdown.load(Ordering::SeqCst)
    )
}

/// The deck-processing endpoint pair, behind the response cache when the
/// dispatcher's [`SessionConfig`] carries a store: a byte-identical
/// resubmission (same endpoint, deck, name, and data-set selection)
/// answers with the memoized body — `X-Cafemio-Cache: hit` — without
/// taking a dispatcher slot. Only 200 responses are memoized; errors and
/// rejections always re-run. A `/contour` data-set selection that is not
/// an index is refused before any of that.
fn analyze(request: &Request, shared: &ServeShared) -> Response {
    let data_set = request.query_param("data_set").unwrap_or("0");
    let data_set = match (request.path == "/contour", data_set.parse::<usize>()) {
        (false, _) => None,
        (true, Ok(index)) => Some(index),
        (true, Err(_)) => {
            add("serve.http_errors", 1);
            let message = "data_set must be a non-negative integer";
            return error_response(400, "bad_query", message);
        }
    };
    let cache_header = |outcome: &str| vec![("X-Cafemio-Cache".to_string(), outcome.to_string())];
    let Some(store) = shared.session.cache_store() else {
        return analyze_uncached(request, shared, data_set);
    };
    let key = response_key(request, shared);
    if let Some(hit) = store.get::<(&'static str, Arc<Vec<u8>>)>(&key) {
        add("serve.completed", 1);
        let (content_type, body) = &*hit;
        return (200, content_type, Arc::clone(body), cache_header("hit"));
    }
    let (status, content_type, mut body, _) = analyze_uncached(request, shared, data_set);
    if status == 200 {
        // The store keeps the body, and charges it by length.
        Arc::make_mut(&mut body).shrink_to_fit();
        let bytes = 256 + body.len() as u64;
        store.put(key, Arc::new((content_type, Arc::clone(&body))), bytes);
    }
    (status, content_type, body, cache_header("miss"))
}

/// The response cache key: endpoint, deck name, data-set selection, the
/// configured component, and the raw deck bytes, under the dispatcher's
/// session fingerprint.
fn response_key(request: &Request, shared: &ServeShared) -> CacheKey {
    let mut hasher = StableHasher::new();
    hasher.write_str(&request.path);
    hasher.write_str(request.query_param("name").unwrap_or("deck"));
    hasher.write_str(request.query_param("data_set").unwrap_or("0"));
    hasher.write_str(&shared.component.to_string());
    hasher.write_bytes(&request.body);
    CacheKey::new(CacheStage::Response, hasher.finish(), shared.fingerprint)
}

/// Submits the deck through admission control — the job's session does
/// the one parse and the one lint — blocks on the ticket, and renders
/// either the JSON summary with the job's lint report (`/analyze`, no
/// `data_set`) or the SVG contour plot of data set `data_set`
/// (`/contour`).
fn analyze_uncached(request: &Request, shared: &ServeShared, data_set: Option<usize>) -> Response {
    let deck = match deck_text(request) {
        Ok(deck) => deck,
        Err(response) => return response,
    };
    let name = request.query_param("name").unwrap_or("deck").to_string();
    let outcome = {
        let _span = span("serve.dispatch");
        let job = BatchJob::with_setup_fn(name.clone(), deck, Arc::clone(&shared.setup))
            .component(shared.component);
        shared.client.submit(job).map(|ticket| ticket.wait())
    };
    match outcome {
        Err(rejection) => {
            add("serve.rejected", 1);
            json(503, artifact::admission_error_body(&rejection))
        }
        Ok(JobOutcome::Failed(error)) => {
            add("serve.failed", 1);
            let status = artifact::status_for_error(&error);
            json(status, artifact::pipeline_error_body(&error))
        }
        Ok(JobOutcome::Skipped) => {
            // The dispatcher never applies FailFast skipping, but the
            // enum is shared with run_batch; answer defensively.
            add("serve.failed", 1);
            error_response(503, "skipped", "job was skipped")
        }
        Ok(JobOutcome::Completed { plots, lint }) => {
            add("serve.completed", 1);
            match data_set.map(|index| (index, plots.get(index))) {
                Some((_, Some(plot))) => {
                    let svg = {
                        let _span = span("serve.render");
                        render_svg(&plot.contours.frame)
                    };
                    (200, "image/svg+xml", Arc::new(svg.into_bytes()), Vec::new())
                }
                Some((index, None)) => {
                    let message = format!("deck has {} data set(s); no index {index}", plots.len());
                    error_response(404, "no_such_data_set", &message)
                }
                None => {
                    let summary = artifact::analysis_summary_json(&name, &plots, lint.as_ref());
                    json(200, summary)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_report_is_seeded_with_the_full_layout() {
        let report = seeded_serve_report();
        for name in SERVE_SPANS {
            assert!(report.spans.iter().any(|s| s.name == name), "{name}");
        }
        for name in SERVE_COUNTERS {
            assert_eq!(report.counter(name), Some(0), "{name}");
        }
    }

    #[test]
    fn options_clamp_their_knobs() {
        let options = ServeOptions::new()
            .read_timeout(Duration::from_secs(0))
            .max_body_bytes(0);
        assert!(options.read_timeout_value() >= Duration::from_millis(1));
        assert_eq!(options.max_body_limit(), 1);
    }
}
