//! `edit_replay`: analyst sessions replayed against one shared,
//! size-bounded stage cache.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cafemio::cache::StageCache;
use cafemio::instrument::{set_enabled, take_report};
use cafemio::ospl::ContourOptions;
use cafemio::pipeline::{PipelineBuilder, StressComponent};
use cafemio::plotter::render_svg;
use cafemio::SessionConfig;
use cafemio_bench::jobs::standard_setup;
use cafemio_bench::mutate::base_decks;

use crate::drive::{
    alternate, builder, digest_svgs, finish, reconcile, record_latency, session, set_up, Digest,
    OpClock, PerOp, DECOMPOSED_TOP,
};
use crate::inputs::{edit_stream, EditRequest, Variants, FACTORS, SESSION_LEN};
use crate::report::Report;
use crate::stats::{mean_value, Value};

/// Timed requests per `--seconds` (about one second of the mix on the
/// reference machine per second asked for), rounded to whole rounds of
/// sessions.
pub const REQUESTS_PER_SECOND: f64 = 4000.0;

/// The shared store's byte budget.
pub const CACHE_BYTES: u64 = 32 * 1024 * 1024;

/// A request made concrete: its deck text, contour options and golden.
struct Prepared<'a> {
    text: &'a str,
    options: ContourOptions,
    golden: Digest,
}

/// The uncached golden output of every distinct request: each deck
/// variant is solved once, then contoured at the automatic interval and
/// at every factor its requests ask for.
fn goldens(
    variants: &Variants,
    stream: &[EditRequest],
) -> Result<HashMap<EditRequest, (ContourOptions, Digest)>, String> {
    let mut wanted: HashMap<usize, Vec<Option<usize>>> = HashMap::new();
    for request in stream {
        let factors = wanted.entry(request.variant).or_default();
        if !factors.contains(&request.factor) {
            factors.push(request.factor);
        }
    }
    let mut golden = HashMap::new();
    for (variant, factors) in wanted {
        let recovered = builder(SessionConfig::new(), ContourOptions::new())
            .parse(&variants.texts[variant])
            .and_then(|parsed| parsed.idealize())
            .and_then(|idealized| idealized.setup(standard_setup))
            .and_then(|ready| ready.solve())
            .and_then(|solved| solved.recover())
            .map_err(|e| format!("variant {variant}: {e}"))?;
        let automatic = recovered
            .contour()
            .map_err(|e| format!("variant {variant}: {e}"))?;
        let interval = automatic.first().map_or(1.0, |plot| plot.contours.interval);
        for factor in factors {
            let options = match factor {
                None => ContourOptions::new(),
                Some(f) => ContourOptions::new().interval(interval * FACTORS[f]),
            };
            let plots = recovered
                .contour_with(StressComponent::Effective, &options)
                .map_err(|e| format!("variant {variant}: {e}"))?;
            let svgs: Vec<String> = plots
                .iter()
                .map(|plot| render_svg(&plot.contours.frame))
                .collect();
            golden.insert(
                EditRequest { variant, factor },
                (options, digest_svgs(&svgs)),
            );
        }
    }
    Ok(golden)
}

/// A fresh store warmed by one pass over the base decks.
fn warm_store(decks: &[(&str, String)]) -> Result<Arc<StageCache>, String> {
    let store = Arc::new(StageCache::with_max_bytes(CACHE_BYTES));
    let warm = builder(
        SessionConfig::new().cache(Arc::clone(&store)),
        ContourOptions::new(),
    );
    for (_, text) in decks {
        session(&warm, text, &standard_setup)?;
    }
    Ok(store)
}

fn request_builder(store: &Arc<StageCache>, options: &ContourOptions) -> PipelineBuilder {
    builder(
        SessionConfig::new().cache(Arc::clone(store)),
        options.clone(),
    )
}

/// One untimed-stage request: its SVGs and end-to-end µs.
fn untraced_request(
    store: &Arc<StageCache>,
    request: &Prepared<'_>,
) -> (Result<Vec<String>, String>, f64) {
    let pipeline = request_builder(store, &request.options);
    let start = Instant::now();
    let out = session(&pipeline, request.text, &standard_setup);
    (out, start.elapsed().as_secs_f64() * 1e6)
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::new("edit_replay", seed, seconds, trace);
    let prepare = Instant::now();
    let decks = base_decks();
    // Latencies are taken per round of sessions, one per deck.
    let per_block = decks.len() * SESSION_LEN;
    let rounds = ((seconds * REQUESTS_PER_SECOND) / per_block as f64)
        .round()
        .max(2.0) as usize;
    let count = rounds * per_block;
    let (variants, stream) = edit_stream(&decks, seed, count)?;
    let golden = goldens(&variants, &stream)?;
    let requests: Vec<Prepared<'_>> = stream
        .iter()
        .map(|request| {
            let (options, digest) = &golden[request];
            Prepared {
                text: &variants.texts[request.variant],
                options: options.clone(),
                golden: *digest,
            }
        })
        .collect();
    drop(golden);
    report.set_single("prepare_s", prepare.elapsed().as_secs_f64());

    let mut make = || warm_store(&decks);
    let store = set_up(&mut report, &mut make, &mut drop)?;
    let before = store.stats();
    if !trace {
        let mut latencies_us = Vec::with_capacity(requests.len());
        for request in &requests {
            let (out, us) = untraced_request(&store, request);
            latencies_us.push(us);
            report.tally(matches!(&out, Ok(svgs) if digest_svgs(svgs) == request.golden));
        }
        record_latency(&mut report, &latencies_us, per_block);
        record_cache(&mut report, &store, before);
        set_up(&mut report, &mut make, &mut drop).map(drop)?;
        finish(&mut report);
        return Ok(report);
    }

    // Traced, the first half of the stream runs on two stores in step:
    // untraced on one (the overhead baseline), with every stage call
    // timed on the other.
    let traced_store = warm_store(&decks)?;
    let traced_before = traced_store.stats();
    let mut layers = PerOp::default();
    let mut stage_calls = StageCalls::default();
    let (mut untraced_us, mut traced_us) = (Vec::new(), Vec::new());
    for (i, request) in requests[..requests.len() / 2].iter().enumerate() {
        let traced = || {
            let pipeline = request_builder(&traced_store, &request.options);
            traced_request(
                &pipeline,
                &traced_store,
                request.text,
                &mut layers,
                &mut stage_calls,
            )
        };
        let ((out, us), traced) = alternate(i, || untraced_request(&store, request), traced);
        untraced_us.push(us);
        report.tally(matches!(&out, Ok(svgs) if digest_svgs(svgs) == request.golden));
        report.tally(matches!(&traced, Ok((svgs, _)) if digest_svgs(svgs) == request.golden));
        if let Ok((_, e2e)) = traced {
            traced_us.push(e2e);
        }
    }
    layers.record(&mut report);
    reconcile(
        &mut report,
        &layers,
        &DECOMPOSED_TOP,
        &traced_us,
        &untraced_us,
    );
    record_cache(&mut report, &traced_store, traced_before);
    report.set("cache.hit_stage_us", mean_value(&stage_calls.hit_us));
    report.set("cache.miss_stage_us", mean_value(&stage_calls.miss_us));
    let touched = stage_calls.reused + stage_calls.regenerated;
    report.set(
        "idlz.incremental_reuse_ratio",
        Value {
            value: if touched > 0.0 {
                stage_calls.reused / touched
            } else {
                0.0
            },
            n: touched as usize,
            spread: 0.0,
        },
    );
    report.set_single("serve.response_hit_ratio", 0.0);
    finish(&mut report);
    Ok(report)
}

/// Stage-cache totals over the phase that started at `before`.
fn record_cache(report: &mut Report, store: &StageCache, before: cafemio::cache::CacheStats) {
    let after = store.stats();
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
    report.set_single("cache.bytes", after.bytes as f64);
}

/// Stage calls of the traced phase, classified by the store's counters.
#[derive(Default)]
struct StageCalls {
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    reused: f64,
    regenerated: f64,
}

impl StageCalls {
    /// Runs one stage call, charging it to `layer` and classifying it as
    /// a hit or a miss by the store's counter deltas (a call that looks
    /// nothing up, like set-up, is neither).
    fn call<T>(
        &mut self,
        clock: &mut OpClock,
        store: &StageCache,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let before = store.stats();
        let start = Instant::now();
        let out = f();
        let us = start.elapsed().as_secs_f64() * 1e6;
        let after = store.stats();
        clock.add(layer, us);
        if after.misses > before.misses {
            self.miss_us.push(us);
        } else if after.hits > before.hits {
            self.hit_us.push(us);
        }
        out
    }
}

/// One request with every `PipelineBuilder` stage call and `render_svg`
/// timed. The idealize stage runs with the instrument collector on, to
/// read the incremental idealizer's reuse counters.
fn traced_request(
    pipeline: &PipelineBuilder,
    store: &StageCache,
    text: &str,
    layers: &mut PerOp,
    calls: &mut StageCalls,
) -> Result<(Vec<String>, f64), String> {
    let mut clock = OpClock::default();
    let start = Instant::now();
    let parsed = calls.call(&mut clock, store, "idlz.parse_us", || pipeline.parse(text));
    let parsed = parsed.map_err(|e| e.to_string())?;
    set_enabled(true);
    let _ = take_report();
    let idealized = calls.call(&mut clock, store, "idlz.run_us", || parsed.idealize());
    let counters = take_report();
    set_enabled(false);
    let idealized = idealized.map_err(|e| e.to_string())?;
    let read = |name: &str| counters.counter(name).unwrap_or(0) as f64;
    calls.reused += read("idlz.incremental.reused_subdivisions");
    calls.regenerated += read("idlz.incremental.regenerated_subdivisions");
    let ready = calls.call(&mut clock, store, "core.setup_us", || {
        idealized.setup(standard_setup)
    });
    let solved = calls.call(&mut clock, store, "fem.solve_us", || {
        ready.and_then(|r| r.solve())
    });
    let recovered = calls.call(&mut clock, store, "fem.recover_us", || {
        solved.and_then(|s| s.recover())
    });
    let recovered = recovered.map_err(|e| e.to_string())?;
    let plots = calls.call(&mut clock, store, "ospl.run_us", || recovered.contour());
    let plots = plots.map_err(|e| e.to_string())?;
    let svgs: Vec<String> = plots
        .iter()
        .map(|plot| clock.measure("plotter.svg_us", || render_svg(&plot.contours.frame)))
        .collect();
    let e2e = start.elapsed().as_secs_f64() * 1e6;
    clock.add(
        "plotter.svg_bytes",
        svgs.iter().map(String::len).sum::<usize>() as f64,
    );
    clock.add("fem.cg_iterations", 0.0);
    clock.add(
        "idlz.elements",
        idealized.meshes().map(|m| m.element_count()).sum::<usize>() as f64,
    );
    clock.add(
        "ospl.segments",
        plots
            .iter()
            .map(|p| p.contours.segment_count())
            .sum::<usize>() as f64,
    );
    clock.finish(layers);
    Ok((svgs, e2e))
}
