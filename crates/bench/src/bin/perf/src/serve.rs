//! `serve_mix`: an in-process `cafemio-serve` server over real TCP, fed
//! `POST /contour` deck submissions by two client threads.
//!
//! Three phases share one seeded stream: an open loop at a low fixed
//! rate, an open loop at a high fixed rate (the end-to-end latency
//! phase), and a closed loop of two connections (the capacity phase).
//! The high-rate and closed-loop phases alternate in [`SLICES`] slices,
//! so both sample the whole run, however the machine's speed drifts
//! during it. Open-loop requests are timed from their due time, so a stall is
//! charged to every request it delays; the generator's own lateness is
//! reported and a high-rate phase whose p99 lateness exceeds
//! [`MAX_LATE_MS`] makes the run invalid.

use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cafemio::batch::BatchOptions;
use cafemio::cache::{CacheStats, StageCache};
use cafemio::instrument::PerfReport;
use cafemio::ospl::ContourOptions;
use cafemio::plotter::render_svg;
use cafemio::SessionConfig;
use cafemio_bench::mutate::base_decks;
use cafemio_serve::http::{percent_encode, read_request};
use cafemio_serve::{default_setup, ServeOptions, Server};

use crate::drive::{builder, digest, finish, set_up, Digest, PerOp};
use crate::inputs::{serve_round_len, serve_stream};
use crate::report::Report;
use crate::stats::{mean_value, median_value, p90_value, p99_value, rate_value, Value};

/// Dispatcher workers: one per core of the two-core reference machine.
pub const WORKERS: usize = 2;
/// The daemon's default response and stage cache budget.
pub const CACHE_MIB: u64 = 256;
/// Client threads, one connection each at a time (at most `nproc`).
pub const CLIENTS: usize = 2;
/// Requests per second of the low-rate open loop.
pub const LOW_RATE: f64 = 150.0;
/// Requests per second of the high-rate open loop: at most 40 % of the
/// closed-loop capacity measured on the reference machine even when a
/// co-tenant slows it 1.5×, so waiting shows without a growing backlog.
pub const HIGH_RATE: f64 = 400.0;
/// Closed-loop requests per second of `--seconds`: about the capacity
/// of the reference machine, so the fixed count takes about the
/// closed-loop share of the run.
pub const CLOSED_RATE: f64 = 2000.0;
/// Shares of `--seconds` given to the low-rate, high-rate and
/// closed-loop phases.
pub const PHASE_SHARES: [f64; 3] = [0.1, 0.6, 0.3];
/// Slices the high-rate and closed-loop phases are cut into.
pub const SLICES: usize = 5;
/// The generator-lateness health limit (p99, high-rate phase): four
/// request intervals at the high rate. Lateness is charged to latency
/// anyway; beyond this the two clients cannot keep the schedule, and the
/// phase would measure them instead of the server. (Runs on the reference
/// machine reached 3.6 ms.)
pub const MAX_LATE_MS: f64 = 10.0;

/// One prepared request.
struct Request {
    /// `POST` target, naming the deck.
    target: String,
    /// Deck text.
    body: String,
    /// Digest of the direct (in-process, uncached) `render_svg` output.
    golden: Digest,
    /// Wall time of that direct `render_svg` call, µs.
    render_us: f64,
}

/// What the client saw of one exchange.
struct Outcome {
    /// Index into the phase's requests.
    index: usize,
    /// When the request was due (open loop) or started (closed loop).
    due: Instant,
    /// When the client began connecting.
    sent: Instant,
    /// When the whole response had been read.
    done: Instant,
    /// Client-side connect time, µs.
    connect_us: f64,
    /// 200 with a body equal to the golden.
    ok: bool,
    /// `X-Cafemio-Cache: hit`.
    hit: bool,
    /// Response body bytes.
    bytes: usize,
}

/// One blocking HTTP/1.1 exchange; the response is read to EOF.
fn exchange(addr: SocketAddr, request: &Request, index: usize, due: Instant) -> Outcome {
    let sent = Instant::now();
    let mut connect_us = 0.0;
    let response = (|| -> std::io::Result<Vec<u8>> {
        let mut stream = TcpStream::connect(addr)?;
        connect_us = sent.elapsed().as_secs_f64() * 1e6;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let head = format!(
            "POST {} HTTP/1.1\r\nHost: perf\r\nContent-Length: {}\r\n\r\n",
            request.target,
            request.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(request.body.as_bytes())?;
        let mut response = Vec::new();
        stream.read_to_end(&mut response)?;
        Ok(response)
    })();
    let done = Instant::now();
    let (ok, hit, bytes) = match response.as_deref().map(split_response) {
        Ok(Some((status, head, body))) => (
            status == 200 && digest([body]) == request.golden,
            head.lines()
                .any(|l| l.eq_ignore_ascii_case("x-cafemio-cache: hit")),
            body.len(),
        ),
        _ => (false, false, 0),
    };
    Outcome {
        index,
        due,
        sent,
        done,
        connect_us,
        ok,
        hit,
        bytes,
    }
}

/// Status, header block and body of a raw response.
fn split_response(raw: &[u8]) -> Option<(u16, &str, &[u8])> {
    let end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..end]).ok()?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, head, &raw[end + 4..]))
}

/// When request `index` of an open loop at `rate` per second is due.
fn due_time(start: Instant, index: usize, rate: f64) -> Instant {
    start + Duration::from_secs_f64(index as f64 / rate)
}

/// Sends `requests` from [`CLIENTS`] threads that each take the next
/// request when free. With a `rate` this is an open loop: request `i` is
/// due at `start + i / rate` and waits for that time. Without one it is a
/// closed loop: a request is due when a client takes it.
fn send_all(addr: SocketAddr, requests: &[Request], rate: Option<f64>) -> Vec<Outcome> {
    // A short lead so the first request is not born late.
    let start = Instant::now() + Duration::from_millis(5);
    let next = AtomicUsize::new(0);
    let mut outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(index) else {
                            return mine;
                        };
                        let due = match rate {
                            Some(rate) => due_time(start, index, rate),
                            None => Instant::now(),
                        };
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        mine.push(exchange(addr, request, index, due));
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|client| client.join().unwrap_or_default())
            .collect()
    });
    outcomes.sort_by_key(|o| o.index);
    outcomes
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Latency from due time to the last response byte, ms.
fn latencies_ms<'a>(outcomes: impl IntoIterator<Item = &'a Outcome>) -> Vec<f64> {
    outcomes.into_iter().map(|o| ms(o.due, o.done)).collect()
}

/// Generator lateness (send − due), ms.
fn lateness_ms<'a>(outcomes: impl IntoIterator<Item = &'a Outcome>) -> Vec<f64> {
    outcomes.into_iter().map(|o| ms(o.due, o.sent)).collect()
}

/// The time from `start` to the first completion and between consecutive
/// completions of a closed loop, seconds: back-to-back durations whose
/// rate is the loop's throughput.
fn completion_gaps(outcomes: &[(Outcome, &Request)], start: Instant) -> Vec<f64> {
    let mut done: Vec<Instant> = outcomes.iter().map(|(o, _)| o.done).collect();
    done.sort();
    std::iter::once(start)
        .chain(done.iter().copied())
        .zip(&done)
        .map(|(previous, &at)| at.saturating_duration_since(previous).as_secs_f64())
        .collect()
}

/// Each outcome with the request it answered.
fn paired(outcomes: Vec<Outcome>, requests: &[Request]) -> Vec<(Outcome, &Request)> {
    outcomes
        .into_iter()
        .map(|o| {
            let request = &requests[o.index];
            (o, request)
        })
        .collect()
}

/// A server as the daemon boots it on a two-core host: two workers and a
/// 256 MiB shared stage and response cache.
fn start_server(store: &Arc<StageCache>) -> Result<Server, String> {
    let batch = BatchOptions::new()
        .workers(WORKERS)
        .config(SessionConfig::new().cache(Arc::clone(store)));
    Server::start(ServeOptions::new().batch(batch))
        .map_err(|e| format!("cannot start the server: {e}"))
}

/// The direct, uncached result of every deck the stream sends: golden
/// digest and `render_svg` time per variant.
fn goldens(texts: &[String], used: &[bool]) -> Result<Vec<Option<(Digest, f64)>>, String> {
    let direct = builder(SessionConfig::new(), ContourOptions::new());
    texts
        .iter()
        .zip(used)
        .map(|(text, &used)| {
            if !used {
                return Ok(None);
            }
            let plots = direct
                .parse(text)
                .and_then(|parsed| parsed.idealize())
                .and_then(|idealized| idealized.setup(default_setup))
                .and_then(|ready| ready.solve())
                .and_then(|solved| solved.recover())
                .and_then(|recovered| recovered.contour())
                .map_err(|e| e.to_string())?;
            let plot = plots.first().ok_or("a deck without data sets")?;
            let start = Instant::now();
            let svg = render_svg(&plot.contours.frame);
            let render_us = start.elapsed().as_secs_f64() * 1e6;
            Ok(Some((digest([svg.as_bytes()]), render_us)))
        })
        .collect()
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::new("serve_mix", seed, seconds, trace);
    let prepare = Instant::now();
    let decks = base_decks();
    let [low_s, high_s, closed_s] = PHASE_SHARES.map(|share| share * seconds);
    // Latencies are taken per block of two rounds (80 requests, a fifth
    // of a second at the high rate), and every phase slice is whole blocks.
    let block = 2 * serve_round_len(decks.len());
    let whole = |n: f64| (n / block as f64).round().max(1.0) as usize * block;
    let low_n = whole(LOW_RATE * low_s);
    let high_n = whole(HIGH_RATE * high_s / SLICES as f64);
    let closed_n = whole(CLOSED_RATE * closed_s / SLICES as f64);
    let total = low_n + SLICES * (high_n + closed_n);
    let (variants, stream) = serve_stream(&decks, seed, total)?;
    // The base decks always get a golden: set-up sends every one.
    let mut used = vec![false; variants.texts.len()];
    used[..decks.len()].fill(true);
    for &v in &stream {
        used[v] = true;
    }
    let golden = goldens(&variants.texts, &used)?;
    let request = |v: usize| -> Result<Request, String> {
        let (digest, render_us) = golden[v].ok_or("stream names an unprepared deck")?;
        Ok(Request {
            target: format!(
                "/contour?name={}",
                percent_encode(decks[variants.base[v]].0)
            ),
            body: variants.texts[v].clone(),
            golden: digest,
            render_us,
        })
    };
    let requests: Vec<Request> = stream
        .iter()
        .map(|&v| request(v))
        .collect::<Result<_, _>>()?;
    let warm: Vec<Request> = (0..decks.len()).map(request).collect::<Result<_, _>>()?;
    report.set_single("prepare_s", prepare.elapsed().as_secs_f64());

    // Set-up: boot the server and send every base deck once.
    let mut warm_failures = 0;
    let mut make = || {
        let store = Arc::new(StageCache::with_max_bytes(CACHE_MIB * 1024 * 1024));
        let server = start_server(&store)?;
        for (i, request) in warm.iter().enumerate() {
            if !exchange(server.local_addr(), request, i, Instant::now()).ok {
                warm_failures += 1;
            }
        }
        Ok((server, store))
    };
    let mut discard = |(server, _): (Server, Arc<StageCache>)| drop(server.shutdown());
    let (server, store) = set_up(&mut report, &mut make, &mut discard)?;
    let addr = server.local_addr();
    let before: CacheStats = store.stats();
    let (low, mut rest) = requests.split_at(low_n);
    let low_out = paired(send_all(addr, low, Some(LOW_RATE)), low);
    let (mut high_out, mut closed_out, mut closed_gaps) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SLICES {
        let (high, after_high) = rest.split_at(high_n);
        let (closed, after_closed) = after_high.split_at(closed_n);
        rest = after_closed;
        high_out.extend(paired(send_all(addr, high, Some(HIGH_RATE)), high));
        let start = Instant::now();
        let out = paired(send_all(addr, closed, None), closed);
        closed_gaps.extend(completion_gaps(&out, start));
        closed_out.extend(out);
    }
    let after: CacheStats = store.stats();
    let telemetry = server.shutdown();
    drop(store);
    set_up(&mut report, &mut make, &mut discard).map(&mut discard)?;
    if warm_failures > 0 {
        report
            .invalid
            .push(format!("{warm_failures} warm-up responses were wrong"));
    }

    let all: Vec<&(Outcome, &Request)> =
        low_out.iter().chain(&high_out).chain(&closed_out).collect();
    for (outcome, _) in &all {
        report.tally(outcome.ok);
    }
    // A request no client answered for is a failure too.
    for _ in all.len()..requests.len() {
        report.tally(false);
    }

    let high_ms = latencies_ms(high_out.iter().map(|(o, _)| o));
    report.set("p50_ms", median_value(&high_ms, block));
    report.set("p90_ms", p90_value(&high_ms, block));
    if let Some(p99) = p99_value(&high_ms) {
        report.set("p99_ms", p99);
    }
    report.set("ops_per_s", rate_value(&closed_gaps, block));
    let low_ms = latencies_ms(low_out.iter().map(|(o, _)| o));
    report.set("serve.low_rate_p50_ms", median_value(&low_ms, block));
    if let Some(late) = p99_value(&lateness_ms(high_out.iter().map(|(o, _)| o))) {
        report.set("serve.late_ms", late);
        if late.value > MAX_LATE_MS {
            report.invalid.push(format!(
                "high-rate phase invalid: p99 generator lateness {:.2} ms > {MAX_LATE_MS} ms",
                late.value
            ));
        }
    }
    let connect: Vec<f64> = all.iter().map(|(o, _)| o.connect_us).collect();
    report.set("serve.connect_us", mean_value(&connect));

    if trace {
        record_layers(&mut report, &telemetry, &all, &requests, before, after);
    }
    finish(&mut report);
    Ok(report)
}

/// The traced view of `serve_mix`: the server's always-on telemetry
/// (its drained `serve.*` and `batch.*` spans, per request) plus the
/// client-side timers. The server does not time its own `render_svg`
/// call, so `plotter.svg_us` charges each response-cache miss the time
/// the direct `render_svg` of the same deck took during preparation.
fn record_layers(
    report: &mut Report,
    telemetry: &PerfReport,
    all: &[&(Outcome, &Request)],
    requests: &[Request],
    before: CacheStats,
    after: CacheStats,
) {
    let served = telemetry.counter("serve.requests").unwrap_or(0).max(1) as f64;
    let span_us = |name: &str| {
        let mut spans = telemetry.spans.iter().filter(|s| s.name == name).peekable();
        spans.peek()?;
        Some(spans.map(|s| s.nanos as f64 / 1e3).sum::<f64>() / served)
    };
    let per_request = |value: f64| Value {
        value,
        n: served as usize,
        spread: 0.0,
    };
    let stages = [
        ("idlz.parse_us", "batch.parse"),
        ("idlz.run_us", "batch.idealize"),
        ("core.setup_us", "batch.model_setup"),
        ("fem.solve_us", "batch.solve"),
        ("fem.recover_us", "batch.stress_recovery"),
        ("ospl.run_us", "batch.contour"),
        ("serve.accept_us", "serve.accept"),
        ("serve.parse_us", "serve.parse"),
        ("serve.dispatch_us", "serve.dispatch"),
        ("serve.respond_us", "serve.respond"),
    ];
    for (metric, span) in stages {
        if let Some(us) = span_us(span) {
            report.set(metric, per_request(us));
        }
    }
    // Waiting for a worker: dispatch minus the worker's stage spans; not
    // reported when any of those spans is missing from the telemetry.
    let worker: Option<f64> = stages[..6].iter().map(|(_, span)| span_us(span)).sum();
    if let (Some(dispatch), Some(worker)) = (span_us("serve.dispatch"), worker) {
        report.set("core.queue_wait_us", per_request(dispatch - worker));
    }
    let mut layers = PerOp::default();
    for (outcome, request) in all {
        layers.push(
            "plotter.svg_us",
            if outcome.hit { 0.0 } else { request.render_us },
        );
        layers.push("plotter.svg_bytes", outcome.bytes as f64);
        layers.push(
            "serve.response_hit_ratio",
            if outcome.hit { 1.0 } else { 0.0 },
        );
        layers.push("fem.cg_iterations", 0.0);
    }
    // The HTTP half of serve.parse: the same parser re-called on the
    // request bytes.
    for request in requests.iter().take(all.len()) {
        let raw = format!(
            "POST {} HTTP/1.1\r\nHost: perf\r\nContent-Length: {}\r\n\r\n{}",
            request.target,
            request.body.len(),
            request.body
        );
        let start = Instant::now();
        std::hint::black_box(read_request(&mut Cursor::new(raw.as_bytes()), usize::MAX)).ok();
        layers.push("serve.http_read_us", start.elapsed().as_secs_f64() * 1e6);
    }
    layers.record(report);
    if let Some(parse) = span_us("serve.parse") {
        report.set_single("lint.parse_us", parse - layers.mean("serve.http_read_us"));
    }

    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    report.set(
        "cache.hit_ratio",
        Value {
            value: hits as f64 / (hits + misses).max(1) as f64,
            n: (hits + misses) as usize,
            spread: 0.0,
        },
    );
    report.set_single(
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
    );

    // Reconciliation against the client's send-to-done time: what the
    // server's spans, the client's connect and the SVG render account for.
    let e2e: Vec<f64> = all.iter().map(|(o, _)| ms(o.sent, o.done) * 1e3).collect();
    let top = [
        "serve.accept_us",
        "serve.parse_us",
        "serve.dispatch_us",
        "serve.respond_us",
    ]
    .iter()
    .filter_map(|name| report.get(name).map(|v| v.value))
    .sum::<f64>()
        + layers.mean("plotter.svg_us")
        + report.get("serve.connect_us").map_or(0.0, |v| v.value);
    report.set(
        "trace.unattributed_share",
        Value {
            value: 1.0 - top / mean_value(&e2e).value,
            n: e2e.len(),
            spread: 0.0,
        },
    );
    // Serve telemetry and the client timers are always on: the traced
    // run is the untraced run.
    report.set_single("trace.overhead_share", 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(index: usize, due: Instant, sent_ms: u64, done_ms: u64) -> Outcome {
        Outcome {
            index,
            due,
            sent: due + Duration::from_millis(sent_ms),
            done: due + Duration::from_millis(done_ms),
            connect_us: 0.0,
            ok: true,
            hit: false,
            bytes: 0,
        }
    }

    #[test]
    fn open_loop_requests_are_due_on_a_fixed_schedule() {
        let start = Instant::now();
        assert_eq!(due_time(start, 0, 200.0), start);
        assert_eq!(
            due_time(start, 300, 200.0),
            start + Duration::from_millis(1500)
        );
        // The schedule does not depend on when earlier requests finished.
        assert_eq!(
            due_time(start, 7, 200.0) - due_time(start, 6, 200.0),
            Duration::from_millis(5)
        );
    }

    #[test]
    fn latency_runs_from_due_time_and_lateness_is_send_minus_due() {
        let start = Instant::now();
        // On time: 3 ms in flight. Late: sent 4 ms after it was due, then
        // 3 ms in flight, so the stall is charged to its latency.
        let outcomes = [
            outcome(0, due_time(start, 0, 100.0), 0, 3),
            outcome(1, due_time(start, 1, 100.0), 4, 7),
        ];
        assert_eq!(latencies_ms(&outcomes), [3.0, 7.0]);
        assert_eq!(lateness_ms(&outcomes), [0.0, 4.0]);
        // A send before its due time (clock skew) counts as on time.
        let early = Outcome {
            sent: start,
            ..outcome(2, start + Duration::from_millis(2), 0, 1)
        };
        assert_eq!(lateness_ms(&[early]), [0.0]);
    }

    #[test]
    fn responses_split_into_status_head_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nX-Cafemio-Cache: hit\r\n\r\n<svg/>";
        let (status, head, body) = split_response(raw).expect("well formed");
        assert_eq!((status, body), (200, &b"<svg/>"[..]));
        assert!(head.contains("X-Cafemio-Cache: hit"));
        assert_eq!(split_response(b"HTTP/1.1 503"), None);
    }
}
