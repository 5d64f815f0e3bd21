//! The daemon: a thread-per-connection HTTP front end over a persistent
//! [`BatchDispatcher`].
//!
//! ## Lifecycle
//!
//! [`Server::start`] binds the listener, boots the dispatcher's worker
//! pool, and spawns the accept loop; the calling thread keeps the
//! [`Server`] value as the drain capability. Each connection is handled
//! on its own thread: one request, one `Connection: close` response.
//! A request that reaches `POST /analyze` or `POST /contour` is linted
//! and parsed inline (cheap, and it gives the response its lint report),
//! then submitted to the dispatcher; the connection thread blocks on the
//! job ticket, so batch backpressure (`max_in_flight`) is what bounds
//! service concurrency — a submit against a full dispatcher returns 503
//! immediately rather than queueing without bound.
//!
//! ## Graceful drain
//!
//! [`Server::shutdown`] (or a `POST /shutdown` request) flips the drain
//! flag. From that point the accept loop answers new connections with
//! 503 and exits; connections already being handled run to completion —
//! their submitted jobs are finished by the worker pool, each ticket is
//! resolved, and each response is written. Only then is the dispatcher
//! drained and the merged `serve.*` + `batch.*` [`PerfReport`] returned.
//! Every job the dispatcher accepted therefore gets exactly one
//! response; jobs never outlive the server silently.
//!
//! Each accept and each connection runs under its own
//! [`cafemio::instrument::record`] scope and merges what it recorded
//! into the shared metrics once, when it finishes.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cafemio::batch::{BatchDispatcher, BatchJob, BatchOptions, JobOutcome, SetupFn};
use cafemio::cache::{CacheKey, CacheStage, StableHasher, StageCache};
use cafemio::fem::{AnalysisKind, FemError, FemModel, Material};
use cafemio::idlz::Capability;
use cafemio::instrument::{add, record, span, PerfReport, SpanRecord};
use cafemio::lint::LintConfig;
use cafemio::mesh::TriMesh;
use cafemio::pipeline::{PipelineBuilder, StressComponent};
use cafemio::plotter::render_svg;
use cafemio::SessionConfig;

use crate::artifact;
use crate::http::{self, HttpError, Request};

/// The per-request span names the service records, in request order.
pub const SERVE_SPANS: [&str; 4] = [
    "serve.accept",
    "serve.parse",
    "serve.dispatch",
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
/// stress, default lint configuration.
#[derive(Clone)]
pub struct ServeOptions {
    batch: BatchOptions,
    addr: String,
    read_timeout: Duration,
    max_body_bytes: usize,
    setup: SetupFn,
    component: StressComponent,
    lint: LintConfig,
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
            lint: LintConfig::new(),
        }
    }

    /// Sets the batch-engine options (workers, `max_in_flight`, solver,
    /// audit, lint, capability) the dispatcher runs with.
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

    /// Sets the lint configuration applied to every submitted deck;
    /// denials answer 422 without reaching the worker pool.
    pub fn lint(mut self, lint: LintConfig) -> ServeOptions {
        self.lint = lint;
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

/// State shared by the accept loop, every connection thread, and the
/// drain path.
struct ServeShared {
    client: cafemio::batch::BatchClient,
    metrics: Mutex<PerfReport>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    read_timeout: Duration,
    max_body_bytes: usize,
    setup: SetupFn,
    component: StressComponent,
    lint: LintConfig,
    /// The dispatcher's capacity regime, which the inline lint checks
    /// decks against too.
    capability: Capability,
    /// The batch engine's stage cache, when its [`SessionConfig`] has
    /// one: response bodies are memoized here under
    /// [`CacheStage::Response`] so a byte-identical resubmission answers
    /// without taking a dispatcher slot.
    cache: Option<Arc<StageCache>>,
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
        if let Some(store) = &self.cache {
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

/// The running service. Dropping it without calling
/// [`shutdown`](Server::shutdown) leaks the worker threads for the
/// process lifetime; long-running daemons should always drain.
pub struct Server {
    shared: Arc<ServeShared>,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    dispatcher: Option<BatchDispatcher>,
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
    /// Binds the listener, boots the dispatcher, and starts accepting.
    pub fn start(options: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        let addr = listener.local_addr()?;
        let session = options.batch.session_config().clone();
        let dispatcher = BatchDispatcher::start(options.batch);
        let shared = Arc::new(ServeShared {
            client: dispatcher.client(),
            metrics: Mutex::new(PerfReport::default()),
            shutdown: AtomicBool::new(false),
            addr,
            read_timeout: options.read_timeout,
            max_body_bytes: options.max_body_bytes,
            setup: options.setup,
            component: options.component,
            lint: options.lint,
            capability: session.capability_mode(),
            cache: session.cache_store().cloned(),
            fingerprint: session.fingerprint(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(Server {
            shared,
            accept: Some(accept),
            dispatcher: Some(dispatcher),
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
    /// stops accepting, finishes every in-flight connection and job,
    /// drains the worker pool, and flushes the `serve.*` spans and
    /// counters alongside the batch engine's own `batch.*` layout.
    pub fn shutdown(mut self) -> PerfReport {
        begin_shutdown(&self.shared);
        let connections = match self.accept.take() {
            // invariant: the accept loop never panics — every branch in
            // accept_loop handles its errors; join can only Err on panic.
            Some(handle) => handle.join().expect("accept loop never panics"),
            None => Vec::new(),
        };
        for connection in connections {
            // invariant: connection handlers never panic — handle_connection
            // catches every protocol and pipeline error as a response.
            connection.join().expect("connection handlers never panic");
        }
        let drained = self.dispatcher.take().map(BatchDispatcher::drain);
        self.shared.metrics_snapshot(&drained.unwrap_or_default())
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

fn accept_loop(listener: TcpListener, shared: Arc<ServeShared>) -> Vec<JoinHandle<()>> {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            // Drain mode: answer the final accepted connection (possibly
            // the shutdown waker, which never reads it) with 503 and stop.
            if let Ok((mut stream, _)) = accepted {
                let body = artifact::error_body(503, "draining", None, "service is draining");
                let _ = http::write_response(&mut stream, 503, "application/json", body.as_bytes());
            }
            return connections;
        }
        match accepted {
            Ok((stream, _)) => {
                connections.retain(|handle| !handle.is_finished());
                let conn_shared = Arc::clone(&shared);
                let (handle, report) = record(|| {
                    let _span = span("serve.accept");
                    std::thread::spawn(move || handle_connection(stream, conn_shared))
                });
                shared.merge_metrics(&report);
                connections.push(handle);
            }
            // Transient accept failures (per-connection resets, fd
            // pressure) are not fatal to the loop; back off briefly so a
            // persistently broken listener cannot spin a core.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Serves one connection under its own recorder, then folds what it
/// recorded into the shared metrics.
fn handle_connection(stream: TcpStream, shared: Arc<ServeShared>) {
    let ((), report) = record(|| {
        add("serve.requests", 1);
        let _ = stream.set_read_timeout(Some(shared.read_timeout));
        respond(&stream, &shared);
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
            let body = artifact::error_body(error.status(), error.kind(), None, &error.to_string());
            (
                error.status(),
                "application/json",
                body.into_bytes(),
                Vec::new(),
            )
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

/// Response headers beyond the standard frame, e.g. `X-Cafemio-Cache`
/// on the deck endpoints and `X-Cafemio-Fixed` on `/lint`.
type ExtraHeaders = Vec<(String, String)>;

fn route(request: &Request, shared: &ServeShared) -> (u16, &'static str, Vec<u8>, ExtraHeaders) {
    if request.method == "POST" && matches!(request.path.as_str(), "/analyze" | "/contour") {
        return analyze(request, shared);
    }
    if request.method == "POST" && request.path == "/lint" {
        return lint_endpoint(request, shared);
    }
    let (status, content_type, body) = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (200, "application/json", health_body(shared).into_bytes()),
        // Cache effectiveness rides along: store totals at snapshot time,
        // so operators can watch the hit rate climb.
        ("GET", "/metrics") => {
            let metrics = shared.metrics_snapshot(&PerfReport::default());
            (200, "application/json", metrics.to_json().into_bytes())
        }
        ("POST", "/shutdown") => {
            // The flag flips before this connection's response is
            // written, so the requester always hears the drain began.
            begin_shutdown(shared);
            let body = "{\n  \"status\": \"draining\"\n}\n".to_string();
            (200, "application/json", body.into_bytes())
        }
        (_, "/healthz" | "/metrics" | "/shutdown" | "/analyze" | "/contour" | "/lint") => {
            add("serve.http_errors", 1);
            let body = artifact::error_body(
                405,
                "method_not_allowed",
                None,
                &format!("{} is not supported on {}", request.method, request.path),
            );
            (405, "application/json", body.into_bytes())
        }
        (_, path) => {
            add("serve.http_errors", 1);
            let body =
                artifact::error_body(404, "not_found", None, &format!("no route for {path}"));
            (404, "application/json", body.into_bytes())
        }
    };
    (status, content_type, body, Vec::new())
}

/// `POST /lint`: run the lint + auto-fix engine over the posted deck
/// without touching the dispatcher. Answers 400 when the body is not a
/// deck at all, 422 when fixing cannot converge or the repaired deck
/// still carries deny-severity diagnostics, and 200 otherwise; the
/// body always carries the diagnostics, the applied fixes, and the
/// repaired deck text, and `X-Cafemio-Fixed` counts the applied fixes.
/// `?ospl=1` selects the OSPL deck dialect (default IDLZ).
fn lint_endpoint(
    request: &Request,
    shared: &ServeShared,
) -> (u16, &'static str, Vec<u8>, ExtraHeaders) {
    use cafemio::lint::{apply_fixes, DeckKind, FixError, LintError};

    add("serve.lint_requests", 1);
    let deck = match std::str::from_utf8(&request.body) {
        Ok(text) => text.to_string(),
        Err(_) => {
            add("serve.http_errors", 1);
            let body =
                artifact::error_body(400, "deck_parse", None, "request body is not UTF-8 text");
            return (400, "application/json", body.into_bytes(), Vec::new());
        }
    };
    let kind = if request.query_param("ospl") == Some("1") {
        DeckKind::Ospl
    } else {
        DeckKind::Idlz
    };
    let name = request.query_param("name").unwrap_or("deck").to_string();
    let outcome = {
        let _span = span("serve.dispatch");
        apply_fixes(&deck, kind, &shared.lint)
    };
    match outcome {
        Err(FixError::Parse(message)) => {
            add("serve.failed", 1);
            let body = artifact::error_body(400, "deck_parse", None, &message);
            (400, "application/json", body.into_bytes(), Vec::new())
        }
        Err(error @ FixError::NoConvergence { .. }) => {
            add("serve.failed", 1);
            let body = artifact::error_body(422, "fix_no_convergence", None, &error.to_string());
            (422, "application/json", body.into_bytes(), Vec::new())
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
            let body = artifact::lint_fix_body(&name, &outcome);
            (status, "application/json", body.into_bytes(), headers)
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
fn analyze(request: &Request, shared: &ServeShared) -> (u16, &'static str, Vec<u8>, ExtraHeaders) {
    let data_set = request.query_param("data_set").unwrap_or("0");
    let data_set = match (request.path == "/contour", data_set.parse::<usize>()) {
        (false, _) => None,
        (true, Ok(index)) => Some(index),
        (true, Err(_)) => {
            add("serve.http_errors", 1);
            let body = artifact::error_body(
                400,
                "bad_query",
                None,
                "data_set must be a non-negative integer",
            );
            return (400, "application/json", body.into_bytes(), Vec::new());
        }
    };
    let cache_header = |outcome: &str| vec![("X-Cafemio-Cache".to_string(), outcome.to_string())];
    let Some(store) = shared.cache.as_ref() else {
        let (status, content_type, body) = analyze_uncached(request, shared, data_set);
        return (status, content_type, body, Vec::new());
    };
    let key = response_key(request, shared);
    if let Some(hit) = store.get::<(&'static str, Vec<u8>)>(&key) {
        add("serve.completed", 1);
        let (content_type, body) = &*hit;
        return (200, content_type, body.clone(), cache_header("hit"));
    }
    let (status, content_type, body) = analyze_uncached(request, shared, data_set);
    if status == 200 {
        let bytes = 256 + body.len() as u64;
        store.put(key, Arc::new((content_type, body.clone())), bytes);
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

/// Lints and parses inline (keeping the lint report for the response),
/// submits through admission control, blocks on the ticket, and renders
/// either the JSON summary (`/analyze`, no `data_set`) or the SVG contour
/// plot of data set `data_set` (`/contour`).
fn analyze_uncached(
    request: &Request,
    shared: &ServeShared,
    data_set: Option<usize>,
) -> (u16, &'static str, Vec<u8>) {
    let deck = match std::str::from_utf8(&request.body) {
        Ok(text) => text.to_string(),
        Err(_) => {
            add("serve.http_errors", 1);
            let body =
                artifact::error_body(400, "deck_parse", None, "request body is not UTF-8 text");
            return (400, "application/json", body.into_bytes());
        }
    };
    let name = request.query_param("name").unwrap_or("deck").to_string();

    // Lint + parse inline, under the dispatcher's capability: denials and
    // parse failures answer without ever taking a dispatcher slot, and a
    // clean parse yields the lint report the success body carries. Its
    // session telemetry is dropped: `serve.parse` times it, and the
    // dispatched job records the deck's own `pipeline.*` and `lint.*`.
    let parsed = {
        let _span = span("serve.parse");
        let (parsed, _) = record(|| {
            PipelineBuilder::new()
                .config(
                    SessionConfig::new()
                        .capability(shared.capability)
                        .lint(shared.lint.clone()),
                )
                .parse(&deck)
        });
        parsed
    };
    let lint_report = match parsed {
        Ok(parsed) => parsed.lint_report().cloned(),
        Err(error) => {
            add("serve.failed", 1);
            let status = artifact::status_for_error(&error);
            let body = artifact::pipeline_error_body(&error);
            return (status, "application/json", body.into_bytes());
        }
    };

    let outcome = {
        let _span = span("serve.dispatch");
        let job = BatchJob::with_setup_fn(name.clone(), deck, Arc::clone(&shared.setup))
            .component(shared.component);
        shared.client.submit(job).map(|ticket| ticket.wait())
    };
    match outcome {
        Err(rejection) => {
            add("serve.rejected", 1);
            let body = artifact::admission_error_body(&rejection);
            (503, "application/json", body.into_bytes())
        }
        Ok(JobOutcome::Failed(error)) => {
            add("serve.failed", 1);
            let status = artifact::status_for_error(&error);
            let body = artifact::pipeline_error_body(&error);
            (status, "application/json", body.into_bytes())
        }
        Ok(JobOutcome::Skipped) => {
            // The dispatcher never applies FailFast skipping, but the
            // enum is shared with run_batch; answer defensively.
            add("serve.failed", 1);
            let body = artifact::error_body(503, "skipped", None, "job was skipped");
            (503, "application/json", body.into_bytes())
        }
        Ok(JobOutcome::Completed(plots)) => {
            add("serve.completed", 1);
            match data_set.map(|index| (index, plots.get(index))) {
                Some((_, Some(plot))) => {
                    let svg = render_svg(&plot.contours.frame);
                    (200, "image/svg+xml", svg.into_bytes())
                }
                Some((index, None)) => {
                    let body = artifact::error_body(
                        404,
                        "no_such_data_set",
                        None,
                        &format!("deck has {} data set(s); no index {index}", plots.len()),
                    );
                    (404, "application/json", body.into_bytes())
                }
                None => {
                    let body = artifact::analysis_summary_json(&name, &plots, lint_report.as_ref());
                    (200, "application/json", body.into_bytes())
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
