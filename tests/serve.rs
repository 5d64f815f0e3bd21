//! Integration tests for the `cafemio-serve` deck service.
//!
//! Each test boots a real server on an ephemeral port and talks to it
//! over raw TCP: one golden request per typed error class asserting the
//! status code and JSON error body, a graceful-drain test proving no
//! accepted job is lost or answered twice, and a determinism test
//! diffing served summaries against a direct pipeline run. The thread
//! bound has a file of its own, `tests/serve_threads.rs`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cafemio::audit::AuditOptions;
use cafemio::batch::BatchOptions;
use cafemio::fem::{CgOptions, SolverBackend};
use cafemio::idlz::deck::write_deck;
use cafemio::idlz::Capability;
use cafemio::instrument::{record, PerfReport};
use cafemio::lint::{LintCode, LintConfig, Severity};
use cafemio::pipeline::PipelineBuilder;
use cafemio::SessionConfig;
use cafemio_bench::jobs::near_limit_spec;
use cafemio_bench::mutate::base_decks;
use cafemio_serve::http::percent_encode;
use cafemio_serve::{
    analysis_summary_json, default_setup, ServeOptions, Server, SERVE_COUNTERS, SERVE_SPANS,
};

/// Sends raw request bytes on a fresh connection and reads the reply to
/// EOF.
fn exchange(addr: SocketAddr, raw: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set timeout");
    stream.write_all(raw).expect("write request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    response
}

/// One blocking HTTP exchange: connect, send, read to EOF, return the
/// status code, raw header block, and body text.
fn request_full(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> (u16, String, String) {
    let mut raw = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    split_response(&exchange(addr, &raw))
}

/// The status code, raw header block, and body text of a response.
fn split_response(response: &[u8]) -> (u16, String, String) {
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header terminator");
    let head = String::from_utf8_lossy(&response[..split]).into_owned();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .expect("parseable status line");
    (status, head, String::from_utf8_lossy(&response[split + 4..]).into_owned())
}

/// The value of a response header, case-insensitive on the name.
fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.trim()
            .eq_ignore_ascii_case(name)
            .then(|| value.trim())
    })
}

/// Like [`request_full`], but dropping the header block.
fn request(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, String) {
    let (status, _, body) = request_full(addr, method, target, body);
    (status, body)
}

/// A valid catalog deck (name, text) for requests that must succeed.
fn good_deck() -> (String, String) {
    let (name, deck) = base_decks().into_iter().next().expect("non-empty corpus");
    (name.to_string(), deck)
}

/// A deck the default lint config denies.
fn denied_deck() -> &'static str {
    cafemio::lint::golden_cases()
        .into_iter()
        .find(|c| c.code == cafemio::lint::LintCode::DuplicateSubdivisionId)
        .expect("golden corpus covers every code")
        .deck
}

#[test]
fn unparseable_deck_answers_400_with_typed_body() {
    let server = Server::start(ServeOptions::new()).expect("start");
    let addr = server.local_addr();
    let (status, body) = request(addr, "POST", "/analyze?name=garbage", b"THIS IS NOT A DECK");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"status\": 400"), "{body}");
    assert!(body.contains("\"kind\": \"deck_parse\""), "{body}");
    // An unusable query is refused before the deck is even parsed.
    let (_, deck) = good_deck();
    let (status, body) = request(addr, "POST", "/contour?data_set=abc", deck.as_bytes());
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\": \"bad_query\""), "{body}");
    let report = server.shutdown();
    // The garbage deck took a dispatcher slot: the job does the only parse.
    assert_eq!(report.counter("batch.jobs"), Some(1));
    assert_eq!(report.counter("serve.completed"), Some(0));
    assert_eq!(report.counter("serve.http_errors"), Some(1));
}

#[test]
fn lint_denial_answers_422_with_typed_body() {
    let server = Server::start(ServeOptions::new()).expect("start");
    let addr = server.local_addr();
    let (status, body) = request(addr, "POST", "/analyze?name=denied", denied_deck().as_bytes());
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("\"status\": 422"), "{body}");
    assert!(body.contains("\"kind\": \"lint_denied\""), "{body}");
    server.shutdown();
}

#[test]
fn a_denied_deck_answers_422_and_each_response_cache_miss_lints_once() {
    // The dispatcher's session sets no lint, so the server installs the
    // default one: the only lint, run by the job.
    let store = Arc::new(cafemio::cache::StageCache::new());
    let session = SessionConfig::new().cache(Arc::clone(&store));
    let server =
        Server::start(ServeOptions::new().batch(BatchOptions::new().config(session))).expect("start");
    let addr = server.local_addr();
    let (_, deck) = good_deck();
    let warned = format!("{deck}\n");
    let requests = [
        (denied_deck(), 422, "miss"),
        (denied_deck(), 422, "miss"),
        (warned.as_str(), 200, "miss"),
        (warned.as_str(), 200, "hit"),
    ];
    for (deck, status, cache) in requests {
        let (got, head, body) = request_full(addr, "POST", "/analyze", deck.as_bytes());
        assert_eq!(got, status, "{body}");
        assert_eq!(header_value(&head, "X-Cafemio-Cache"), Some(cache), "{head}");
        if status == 422 {
            assert!(body.contains("\"kind\": \"lint_denied\""), "{body}");
        }
    }
    let report = server.shutdown();

    // What one lint of each deck records, on a direct session.
    let lint = |deck: &str| {
        let config = SessionConfig::new().lint(LintConfig::new());
        let (_, once) = record(|| PipelineBuilder::new().config(config).parse(deck).map(drop));
        let count = |name| once.counter(name).expect("lint ran");
        (count("lint.diagnostics"), count("lint.denied"))
    };
    let (denied_diagnostics, denied) = lint(denied_deck());
    assert!(denied >= 1);
    assert_eq!(lint(&warned), (1, 0));
    // Three misses, three jobs, three lints: a denial is never cached,
    // and the hit runs nothing.
    assert_eq!(report.counter("batch.jobs"), Some(3));
    assert_eq!(report.counter("lint.denied"), Some(2 * denied));
    assert_eq!(
        report.counter("lint.diagnostics"),
        Some(2 * denied_diagnostics + 1)
    );
}

#[test]
fn cg_no_convergence_answers_422_with_typed_body() {
    // A one-iteration CG budget cannot converge on any catalog deck, so
    // the solve stage fails with the typed CgNoConvergence error.
    let server = Server::start(
        ServeOptions::new().batch(
            BatchOptions::new().config(
                SessionConfig::new()
                    .solver(SolverBackend::SparseCg)
                    .cg_options(CgOptions::new().with_max_iterations(1)),
            ),
        ),
    )
    .expect("start");
    let addr = server.local_addr();
    let (name, deck) = good_deck();
    let target = format!("/analyze?name={}", percent_encode(&name));
    let (status, body) = request(addr, "POST", &target, deck.as_bytes());
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("\"kind\": \"cg_no_convergence\""), "{body}");
    assert!(body.contains("\"stage\": \"solution\""), "{body}");
    server.shutdown();
}

#[test]
fn oversized_body_answers_413_before_analysis() {
    let server = Server::start(ServeOptions::new().max_body_bytes(64)).expect("start");
    let addr = server.local_addr();
    let (_, deck) = good_deck();
    assert!(deck.len() > 64, "catalog decks exceed the tiny test limit");
    let (status, body) = request(addr, "POST", "/analyze?name=big", deck.as_bytes());
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("\"kind\": \"body_too_large\""), "{body}");
    server.shutdown();
}

#[test]
fn conflicting_body_framing_answers_400_malformed_request() {
    let server = Server::start(ServeOptions::new()).expect("start");
    let addr = server.local_addr();
    let (_, deck) = good_deck();
    for framing in [
        format!("Content-Length: 4\r\nContent-Length: {}", deck.len()),
        format!("Transfer-Encoding: chunked\r\nContent-Length: {}", deck.len()),
        // RFC 9112 allows digits only.
        format!("Content-Length: +{}", deck.len()),
        "Content-Length:".to_string(),
        format!("Content-Length: {}x", deck.len()),
    ] {
        let raw = format!("POST /analyze HTTP/1.1\r\nHost: test\r\n{framing}\r\n\r\n{deck}");
        let (status, _, body) = split_response(&exchange(addr, raw.as_bytes()));
        assert_eq!(status, 400, "{framing}: {body}");
        assert!(body.contains("\"kind\": \"malformed_request\""), "{body}");
    }
    let report = server.shutdown();
    assert_eq!(report.counter("batch.jobs"), Some(0));
    assert_eq!(report.counter("serve.http_errors"), Some(5));
}

#[test]
fn a_contour_miss_times_its_render_and_analyze_renders_nothing() {
    let (name, deck) = good_deck();
    let render_spans = |report: &PerfReport| -> Vec<(u32, u64)> {
        let spans = report.spans.iter().filter(|s| s.name == "serve.render");
        spans.map(|s| (s.depth, s.nanos)).collect()
    };
    for (endpoint, renders) in [("/contour", true), ("/analyze", false)] {
        let server = Server::start(ServeOptions::new()).expect("start");
        let target = format!("{endpoint}?name={}", percent_encode(&name));
        let (status, body) = request(server.local_addr(), "POST", &target, deck.as_bytes());
        assert_eq!(status, 200, "{endpoint}: {body}");
        let spans = render_spans(&server.shutdown());
        // One depth-0 record: seeded at 0, and timed only by a render.
        assert!(matches!(spans[..], [(0, _)]), "{endpoint}: {spans:?}");
        assert_eq!(spans[0].1 > 0, renders, "{endpoint}: {spans:?}");
    }
}

#[test]
fn unknown_paths_and_methods_answer_404_and_405() {
    let server = Server::start(ServeOptions::new()).expect("start");
    let addr = server.local_addr();
    let (status, body) = request(addr, "GET", "/no-such-endpoint", b"");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("\"kind\": \"not_found\""), "{body}");
    let (status, body) = request(addr, "GET", "/analyze", b"");
    assert_eq!(status, 405, "{body}");
    assert!(body.contains("\"kind\": \"method_not_allowed\""), "{body}");
    server.shutdown();
}

#[test]
fn lint_endpoint_repairs_a_fixable_deck_and_reports_the_fix() {
    let case = cafemio::lint::fix_cases()
        .into_iter()
        .find(|c| c.code == cafemio::lint::LintCode::DeadShapeLine)
        .expect("fix corpus covers D006");
    let server = Server::start(ServeOptions::new()).expect("start");
    let addr = server.local_addr();
    let (status, head, body) =
        request_full(addr, "POST", "/lint?name=dead-line", case.before.as_bytes());
    assert_eq!(status, 200, "{body}");
    assert_eq!(header_value(&head, "X-Cafemio-Fixed"), Some("1"), "{head}");
    assert!(body.contains("\"fixes_applied\": 1"), "{body}");
    assert!(
        body.contains(&format!("\"code\": \"{}\"", case.code.code())),
        "{body}"
    );
    assert!(body.contains("\"clean\": true"), "{body}");

    // The repaired deck in the body is exactly the corpus after-deck —
    // and posting it back is a no-op with zero fixes.
    let escaped = format!(
        "\"{}\"",
        case.after.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
    );
    assert!(body.contains(&escaped), "{body}");
    let (status, head, again) =
        request_full(addr, "POST", "/lint?name=dead-line", case.after.as_bytes());
    assert_eq!(status, 200, "{again}");
    assert_eq!(header_value(&head, "X-Cafemio-Fixed"), Some("0"), "{head}");
    assert!(again.contains("\"fixes_applied\": 0"), "{again}");
    server.shutdown();
}

#[test]
fn lint_endpoint_answers_422_when_denials_survive_and_400_on_garbage() {
    let server = Server::start(ServeOptions::new()).expect("start");
    let addr = server.local_addr();
    // No machine fix exists for a duplicate-id denial: typed 422.
    let (status, head, body) =
        request_full(addr, "POST", "/lint?name=denied", denied_deck().as_bytes());
    assert_eq!(status, 422, "{body}");
    assert_eq!(header_value(&head, "X-Cafemio-Fixed"), Some("0"), "{head}");
    assert!(body.contains("\"clean\": false"), "{body}");
    assert!(body.contains("\"machine_fixable\": false"), "{body}");
    // An unparseable deck cannot be linted at all: typed 400.
    let (status, body) = request(addr, "POST", "/lint?name=garbage", b"THIS IS NOT A DECK");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\": \"deck_parse\""), "{body}");
    server.shutdown();
}

/// Worker-pool gate: while closed, every accepted job blocks inside its
/// setup callback, pinning the dispatcher at capacity.
#[derive(Default)]
struct Gate {
    closed: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn close(&self) {
        *self.closed.lock().unwrap_or_else(|e| e.into_inner()) = true;
    }

    fn open(&self) {
        *self.closed.lock().unwrap_or_else(|e| e.into_inner()) = false;
        self.opened.notify_all();
    }

    fn wait_open(&self) {
        let mut closed = self.closed.lock().unwrap_or_else(|e| e.into_inner());
        while *closed {
            closed = self.opened.wait(closed).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[test]
fn saturated_admission_answers_503_and_held_jobs_still_finish() {
    let gate = Arc::new(Gate::default());
    let setup_gate = Arc::clone(&gate);
    let server = Server::start(
        ServeOptions::new()
            .batch(BatchOptions::new().workers(1).max_in_flight(1))
            .setup(Arc::new(move |mesh| {
                setup_gate.wait_open();
                default_setup(mesh)
            })),
    )
    .expect("start");
    let addr = server.local_addr();
    let (name, deck) = good_deck();
    let target = format!("/analyze?name={}", percent_encode(&name));

    gate.close();
    let held = {
        let target = target.clone();
        let deck = deck.clone();
        std::thread::spawn(move || request(addr, "POST", &target, deck.as_bytes()))
    };
    // Wait until the single slot is pinned behind the gate.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = request(addr, "GET", "/healthz", b"");
        assert_eq!(status, 200, "{body}");
        if body.contains("\"in_flight\": 1") {
            break;
        }
        assert!(Instant::now() < deadline, "dispatcher never filled: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }

    let (status, body) = request(addr, "POST", &target, deck.as_bytes());
    gate.open();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"kind\": \"saturated\""), "{body}");
    assert!(body.contains("\"status\": 503"), "{body}");

    let (status, body) = held.join().expect("holder thread");
    assert_eq!(status, 200, "held job must still complete: {body}");
    server.shutdown();
}

#[test]
fn a_panicking_setup_costs_its_connection_but_no_connection_worker() {
    let server = Server::start(
        ServeOptions::new()
            .batch(BatchOptions::new().workers(1).max_in_flight(1))
            .setup(Arc::new(|_| panic!("setup closure panicked"))),
    )
    .expect("start");
    let addr = server.local_addr();
    let (_, deck) = good_deck();
    let raw = format!("POST /analyze HTTP/1.1\r\nContent-Length: {}\r\n\r\n{deck}", deck.len());
    // More panics than the two connection workers: each closes its own
    // connection without a response, and the pool keeps serving.
    for _ in 0..3 {
        assert!(exchange(addr, raw.as_bytes()).is_empty());
    }
    assert_eq!(request(addr, "GET", "/healthz", b"").0, 200);
    let report = server.shutdown();
    assert_eq!(report.counter("batch.failed"), Some(3));
}

#[test]
fn drain_finishes_every_accepted_job_and_loses_none() {
    let server = Server::start(
        ServeOptions::new().batch(BatchOptions::new().workers(2).max_in_flight(4)),
    )
    .expect("start");
    let addr = server.local_addr();
    let corpus = base_decks();
    let clients = 6usize;

    let (shutdown, outcomes) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in 0..clients {
            let (name, deck) = &corpus[i % corpus.len()];
            let target = format!("/analyze?name={}", percent_encode(name));
            let deck = deck.as_bytes();
            handles.push(scope.spawn(move || request(addr, "POST", &target, deck)));
        }
        // Let the fleet reach the server, then pull the plug mid-flight.
        std::thread::sleep(Duration::from_millis(10));
        let shutdown = request(addr, "POST", "/shutdown", b"");
        let outcomes: Vec<(u16, String)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (shutdown, outcomes)
    });
    assert_eq!(shutdown.0, 200, "{}", shutdown.1);
    assert!(shutdown.1.contains("\"status\": \"draining\""), "{}", shutdown.1);

    // Every client gets exactly one complete response: 200 means its job
    // was accepted and finished, 503 means admission control refused it.
    let mut completed = 0u64;
    for (status, body) in &outcomes {
        match status {
            200 => completed += 1,
            503 => assert!(
                body.contains("\"kind\": \"draining\"") || body.contains("\"kind\": \"saturated\""),
                "{body}"
            ),
            other => panic!("drain client got unexpected status {other}: {body}"),
        }
    }

    let report = server.shutdown();
    let accepted = report.counter("batch.jobs").unwrap_or(0);
    let finished =
        report.counter("batch.completed").unwrap_or(0) + report.counter("batch.failed").unwrap_or(0);
    assert_eq!(accepted, finished, "drain lost accepted jobs");
    // Catalog decks cannot fail, so accepted jobs and 200 responses must
    // match one-to-one: nothing lost, nothing answered twice.
    assert_eq!(report.counter("batch.failed").unwrap_or(0), 0);
    assert_eq!(accepted, completed, "accepted jobs vs 200 responses");
}

#[test]
fn served_summary_is_byte_identical_to_direct_pipeline_run() {
    let server = Server::start(ServeOptions::new()).expect("start");
    let addr = server.local_addr();
    let (name, deck) = good_deck();
    let target = format!("/analyze?name={}", percent_encode(&name));
    // A trailing blank card is one lint warning, which the body carries.
    let warned = format!("{deck}\n");

    for (deck, warnings) in [(&deck, 0), (&warned, 1)] {
        let (status_a, body_a) = request(addr, "POST", &target, deck.as_bytes());
        let (status_b, body_b) = request(addr, "POST", &target, deck.as_bytes());
        assert_eq!((status_a, status_b), (200, 200));

        let parsed = PipelineBuilder::new()
            .config(SessionConfig::new().lint(LintConfig::new()))
            .parse(deck)
            .expect("catalog deck parses");
        let lint = parsed.lint_report().cloned();
        assert_eq!(lint.as_ref().map(|r| r.diagnostics().len()), Some(warnings));
        let plots = parsed
            .idealize()
            .and_then(|i| i.setup(default_setup))
            .and_then(|m| m.solve())
            .and_then(|s| s.recover())
            .and_then(|r| r.contour())
            .expect("catalog deck analyzes");
        let expected = analysis_summary_json(&name, &plots, lint.as_ref());

        assert_eq!(body_a, body_b, "serve/serve runs must agree byte-for-byte");
        assert_eq!(body_a, expected, "serve/direct runs must agree byte-for-byte");
    }
    server.shutdown();
}

#[test]
fn response_cache_marks_hits_and_answers_byte_identically() {
    let store = Arc::new(cafemio::cache::StageCache::new());
    let server = Server::start(
        ServeOptions::new().batch(
            BatchOptions::new().config(SessionConfig::new().cache(Arc::clone(&store))),
        ),
    )
    .expect("start");
    let addr = server.local_addr();
    let (name, deck) = good_deck();
    let target = format!("/analyze?name={}", percent_encode(&name));

    let (status_a, head_a, body_a) = request_full(addr, "POST", &target, deck.as_bytes());
    assert_eq!(status_a, 200, "{body_a}");
    assert_eq!(header_value(&head_a, "X-Cafemio-Cache"), Some("miss"), "{head_a}");

    let (status_b, head_b, body_b) = request_full(addr, "POST", &target, deck.as_bytes());
    assert_eq!(status_b, 200, "{body_b}");
    assert_eq!(header_value(&head_b, "X-Cafemio-Cache"), Some("hit"), "{head_b}");
    assert_eq!(body_a, body_b, "a cache hit must serve the identical bytes");

    // A different query names a different response: back to a miss
    // (although every pipeline stage underneath answers from the store).
    let renamed = format!("/analyze?name={}", percent_encode("other-name"));
    let (status_c, head_c, body_c) = request_full(addr, "POST", &renamed, deck.as_bytes());
    assert_eq!(status_c, 200, "{body_c}");
    assert_eq!(header_value(&head_c, "X-Cafemio-Cache"), Some("miss"), "{head_c}");

    // Errors are never memoized, so a bad deck always reports a miss.
    let bad = format!("/analyze?name={}", percent_encode("garbage"));
    for _ in 0..2 {
        let (status, head, body) = request_full(addr, "POST", &bad, b"THIS IS NOT A DECK");
        assert_eq!(status, 400, "{body}");
        assert_eq!(header_value(&head, "X-Cafemio-Cache"), Some("miss"), "{head}");
    }

    // /metrics surfaces the shared store's effectiveness counters.
    let (status, body) = request(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200, "{body}");
    for counter in ["cache.hits", "cache.misses", "cache.bytes", "cache.entries"] {
        assert!(body.contains(counter), "missing {counter} in {body}");
    }
    let stats = store.stats();
    assert!(stats.hits >= 1, "the hit response must come from the store: {stats:?}");
    server.shutdown();
}

#[test]
fn uncached_server_sends_no_cache_header() {
    let server = Server::start(ServeOptions::new()).expect("start");
    let addr = server.local_addr();
    let (name, deck) = good_deck();
    let target = format!("/analyze?name={}", percent_encode(&name));
    let (status, head, body) = request_full(addr, "POST", &target, deck.as_bytes());
    assert_eq!(status, 200, "{body}");
    assert_eq!(header_value(&head, "X-Cafemio-Cache"), None, "{head}");
    server.shutdown();
}

#[test]
fn the_jobs_lint_checks_decks_against_the_dispatchers_capability() {
    let deck = write_deck(&[near_limit_spec()]).unwrap().to_text();
    let deny_proximity = LintConfig::new().with(LintCode::GridLimitProximity, Severity::Deny);
    for (capability, expected) in [(Capability::LargeMesh, 200), (Capability::Historical, 422)] {
        let session = SessionConfig::new()
            .capability(capability)
            .lint(deny_proximity.clone());
        let server = Server::start(ServeOptions::new().batch(BatchOptions::new().config(session)))
            .expect("start");
        let (status, body) = request(server.local_addr(), "POST", "/analyze", deck.as_bytes());
        assert_eq!(status, expected, "{capability:?}: {body}");
        server.shutdown();
    }
}

#[test]
fn shutdown_reports_each_seeded_name_once_and_the_stores_cache_totals() {
    let store = Arc::new(cafemio::cache::StageCache::new());
    let session = SessionConfig::new()
        .audit(AuditOptions::new())
        .lint(LintConfig::new())
        .cache(Arc::clone(&store));
    let options = ServeOptions::new().batch(BatchOptions::new().config(session));
    // A server that served nothing reports exactly its seeded layout.
    let seeded = Server::start(options.clone()).expect("start").shutdown();
    let server = Server::start(options).expect("start");
    let addr = server.local_addr();
    for (name, deck) in base_decks().iter().take(2) {
        let target = format!("/analyze?name={}", percent_encode(name));
        for _ in 0..2 {
            assert_eq!(request(addr, "POST", &target, deck.as_bytes()).0, 200);
        }
    }
    // A trailing blank card is one warning, which the dispatched job's
    // lint counts once.
    let (_, deck) = good_deck();
    let warned = format!("{deck}\n");
    assert_eq!(request(addr, "POST", "/analyze", warned.as_bytes()).0, 200);
    let metrics = PerfReport::from_json(&request(addr, "GET", "/metrics", b"").1).unwrap();
    let report = server.shutdown();

    let records = |report: &PerfReport, name: &str| {
        let spans = report.spans.iter().filter(|s| s.name == name).count();
        spans + report.counters.iter().filter(|c| c.name == name).count()
    };
    let seeds = seeded.spans.iter().map(|s| &s.name);
    for name in seeds.chain(seeded.counters.iter().map(|c| &c.name)) {
        assert_eq!(records(&report, name), 1, "{name}");
    }
    let serve_names = SERVE_SPANS.iter().chain(&SERVE_COUNTERS);
    for name in serve_names.chain(&["cache.hits"]) {
        assert_eq!(records(&metrics, name), 1, "/metrics {name}");
    }
    let stats = store.stats();
    assert!(stats.hits >= 2, "{stats:?}");
    assert_eq!(report.counter("cache.hits"), Some(stats.hits));
    assert_eq!(report.counter("cache.misses"), Some(stats.misses));
    assert_eq!(report.counter("lint.diagnostics"), Some(1));
}
