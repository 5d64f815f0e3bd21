//! How one operation is driven: the deck→SVG session through the public
//! pipeline, the decomposed run that times each layer's public entry
//! point in pipeline order, and the helpers every workload shares.

use std::time::Instant;

use cafemio::cache::StableHasher;
use cafemio::cards::Deck;
use cafemio::fem::{CgOptions, FemError, FemModel, SolverBackend, StressField};
use cafemio::idlz::deck::parse_deck_with_layout;
use cafemio::idlz::{Capability, Idealization};
use cafemio::instrument::{set_enabled, take_report};
use cafemio::mesh::TriMesh;
use cafemio::ospl::{extract_isograms, plot_contours, ContourOptions, Ospl};
use cafemio::pipeline::{PipelineBuilder, StressComponent};
use cafemio::plotter::render_svg;
use cafemio::SessionConfig;

use crate::report::{peak_rss_mb, Report};
use crate::schema::Better;
use crate::stats::{
    better_decile, iqr_share, mean_value, median_value, p90_value, p99_value, rate_value, Value,
};

/// A model set-up callback: boundary conditions and loads for a mesh.
pub type Setup<'a> = &'a dyn Fn(&TriMesh) -> Result<FemModel, FemError>;

/// Set-ups before the timed phase, and again after it.
pub const SETUPS: usize = 5;

/// The output check's fingerprint of one operation's SVGs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Stable hash of every SVG's bytes, in order.
    pub hash: u64,
    /// Total SVG bytes.
    pub bytes: usize,
}

/// The digest of one operation's output.
pub fn digest<'a>(svgs: impl IntoIterator<Item = &'a [u8]>) -> Digest {
    let mut hasher = StableHasher::new();
    let mut bytes = 0;
    for svg in svgs {
        hasher.write_bytes(svg);
        bytes += svg.len();
    }
    Digest {
        hash: hasher.finish(),
        bytes,
    }
}

/// The digest of a list of SVG documents.
pub fn digest_svgs(svgs: &[String]) -> Digest {
    digest(svgs.iter().map(String::as_bytes))
}

/// A session builder contouring effective stress with `options`.
pub fn builder(config: SessionConfig, options: ContourOptions) -> PipelineBuilder {
    PipelineBuilder::new()
        .component(StressComponent::Effective)
        .contour_options(options)
        .config(config)
}

/// Deck text → one SVG per data set, through the staged session.
pub fn session(
    builder: &PipelineBuilder,
    text: &str,
    setup: Setup<'_>,
) -> Result<Vec<String>, String> {
    let plots = builder
        .parse(text)
        .and_then(|parsed| parsed.idealize())
        .and_then(|idealized| idealized.setup(setup))
        .and_then(|ready| ready.solve())
        .and_then(|solved| solved.recover())
        .and_then(|recovered| recovered.contour())
        .map_err(|e| e.to_string())?;
    Ok(plots
        .iter()
        .map(|plot| render_svg(&plot.contours.frame))
        .collect())
}

/// Per-op samples of named per-layer quantities, reported as means with
/// per-part spreads.
#[derive(Debug, Default)]
pub struct PerOp {
    series: Vec<(&'static str, Vec<f64>)>,
}

impl PerOp {
    /// Appends one op's value of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        match self.series.iter_mut().find(|(n, _)| *n == name) {
            Some((_, values)) => values.push(value),
            None => self.series.push((name, vec![value])),
        }
    }

    /// The mean of `name` over the ops (0 when never pushed).
    pub fn mean(&self, name: &str) -> f64 {
        self.series
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, values)| mean_value(values).value)
    }

    /// Records every series in `report` as a per-op mean.
    pub fn record(&self, report: &mut Report) {
        for (name, values) in &self.series {
            report.set(name, mean_value(values));
        }
    }
}

/// Accumulates the microseconds spent in each layer of one op.
#[derive(Debug, Default)]
pub struct OpClock {
    parts: Vec<(&'static str, f64)>,
}

impl OpClock {
    /// Runs `f`, charging its wall time to `layer`.
    pub fn measure<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.add(layer, start.elapsed().as_secs_f64() * 1e6);
        value
    }

    /// Charges `value` to `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        match self.parts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += value,
            None => self.parts.push((name, value)),
        }
    }

    /// The accumulated value of `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.parts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Moves this op's parts into the per-op series.
    pub fn finish(self, layers: &mut PerOp) {
        for (name, value) in self.parts {
            layers.push(name, value);
        }
    }
}

/// The top-level layers of a decomposed op; their sum reconciles with
/// the op's end-to-end time.
pub const DECOMPOSED_TOP: [&str; 7] = [
    "idlz.parse_us",
    "idlz.run_us",
    "core.setup_us",
    "fem.solve_us",
    "fem.recover_us",
    "ospl.run_us",
    "plotter.svg_us",
];

/// The session's options as the decomposed run applies them.
pub struct Direct {
    /// Capacity regime installed on every parsed spec.
    pub capability: Capability,
    /// Linear solver.
    pub backend: SolverBackend,
    /// CG options for [`SolverBackend::SparseCg`].
    pub cg: CgOptions,
    /// Contour options.
    pub options: ContourOptions,
}

/// The same deck→SVG work as [`session`] with no cache, but calling each
/// layer's public entry point directly and timing it: card read, IDLZ
/// parse, idealization, set-up, solve, recovery, OSPL, SVG. After the
/// op's end-to-end clock stops, the sub-layers (assembly, isogram
/// extraction, plot layout) are re-called on the same inputs and checked
/// equal to what the layer produced. The CG iteration and nonzero counts
/// are read from the instrument counters around the sparse solve.
pub fn decomposed(
    text: &str,
    direct: &Direct,
    setup: Setup<'_>,
    layers: &mut PerOp,
) -> Result<(Vec<String>, f64), String> {
    let mut clock = OpClock::default();
    let start = Instant::now();
    let deck = clock
        .measure("cards.deck_us", || Deck::from_text(text))
        .map_err(|e| e.to_string())?;
    let specs = clock
        .measure("idlz.parse_us", || {
            parse_deck_with_layout(&deck).map(|(mut specs, _)| {
                if direct.capability != Capability::Historical {
                    for spec in &mut specs {
                        spec.set_limits(direct.capability.limits());
                    }
                }
                specs
            })
        })
        .map_err(|e| e.to_string())?;
    let sparse = direct.backend == SolverBackend::SparseCg;
    let mut svgs = Vec::new();
    let mut done = Vec::new();
    for spec in &specs {
        let result = clock
            .measure("idlz.run_us", || Idealization::run(spec))
            .map_err(|e| e.to_string())?;
        let model = clock
            .measure("core.setup_us", || setup(&result.mesh))
            .map_err(|e| e.to_string())?;
        if sparse {
            set_enabled(true);
            let _ = take_report();
        }
        let solution = clock.measure("fem.solve_us", || match direct.backend {
            SolverBackend::SparseCg => model.solve_sparse_with(&direct.cg),
            backend => model.solve_with(backend),
        });
        if sparse {
            let counters = take_report();
            set_enabled(false);
            let read = |name: &str| counters.counter(name).unwrap_or(0) as f64;
            clock.add("fem.cg_iterations", read("fem.cg.iterations"));
            clock.add("fem.nonzeros", read("fem.cg.nonzeros"));
        } else {
            // The band solver runs no CG iterations.
            clock.add("fem.cg_iterations", 0.0);
        }
        let solution = solution.map_err(|e| e.to_string())?;
        let stresses = clock
            .measure("fem.recover_us", || StressField::compute(&model, &solution))
            .map_err(|e| e.to_string())?;
        let (field, contours) = clock
            .measure("ospl.run_us", || {
                let field = StressComponent::Effective.field(&stresses);
                Ospl::run(model.mesh(), &field, &direct.options).map(|contours| (field, contours))
            })
            .map_err(|e| e.to_string())?;
        let svg = clock.measure("plotter.svg_us", || render_svg(&contours.frame));
        clock.add("idlz.elements", result.mesh.element_count() as f64);
        clock.add("ospl.segments", contours.segment_count() as f64);
        clock.add("plotter.svg_bytes", svg.len() as f64);
        svgs.push(svg);
        done.push((model, field, contours));
    }
    let e2e = start.elapsed().as_secs_f64() * 1e6;

    for (model, field, contours) in &done {
        let assembled = clock.measure("fem.assemble_us", || {
            if sparse {
                model.assemble_sparse().map(drop)
            } else {
                model.assemble_banded().map(drop)
            }
        });
        assembled.map_err(|e| e.to_string())?;
        let isograms = clock
            .measure("ospl.isograms_us", || {
                extract_isograms(model.mesh(), field, &contours.levels)
            })
            .map_err(|e| e.to_string())?;
        if isograms != contours.isograms {
            return Err("re-called isogram extraction differs from Ospl::run".into());
        }
        let title = match &direct.options.title {
            Some(extra) => format!("{extra}  CONTOUR PLOT * {} *", field.name()),
            None => format!("CONTOUR PLOT * {} *", field.name()),
        };
        let frame = clock.measure("ospl.plot_us", || {
            plot_contours(
                model.mesh(),
                &isograms,
                contours.interval,
                direct.options.window,
                &title,
            )
        });
        if frame != contours.frame {
            return Err("re-called plot layout differs from Ospl::run".into());
        }
    }
    let inner = clock.get("fem.solve_us") - clock.get("fem.assemble_us");
    clock.add(if sparse { "fem.cg_us" } else { "fem.factor_us" }, inner);
    // The card read is part of the parse stage the other workloads time.
    clock.add("idlz.parse_us", clock.get("cards.deck_us"));
    clock.finish(layers);
    Ok((svgs, e2e))
}

/// The timed phase of a cache-free workload: `ops` (deck text, golden
/// digest) in order, each a closed-loop deck→SVG session on one thread,
/// in blocks of `block` ops with the same mix of decks. Untraced, it
/// records the latency metrics of [`record_latency`]. Traced, the first
/// half of the ops each run twice — untraced (the overhead baseline) and
/// through [`decomposed`] — recording the per-layer metrics; the cache
/// and serve layers, which these workloads never reach, read zero.
pub fn cold_phase(
    report: &mut Report,
    pipeline: &PipelineBuilder,
    direct: &Direct,
    setup: Setup<'_>,
    ops: &[(&str, Digest)],
    block: usize,
) {
    let untraced = |text: &str| {
        let start = Instant::now();
        let out = session(pipeline, text, setup);
        (out, start.elapsed().as_secs_f64() * 1e6)
    };
    if !report.trace {
        let mut latencies_us = Vec::with_capacity(ops.len());
        for &(text, golden) in ops {
            let (out, us) = untraced(text);
            latencies_us.push(us);
            report.tally(matches!(&out, Ok(svgs) if digest_svgs(svgs) == golden));
        }
        record_latency(report, &latencies_us, block);
        return;
    }
    let mut layers = PerOp::default();
    let (mut untraced_us, mut traced_us) = (Vec::new(), Vec::new());
    for (i, &(text, golden)) in ops[..ops.len().div_ceil(2)].iter().enumerate() {
        let ((out, us), traced) = alternate(
            i,
            || untraced(text),
            || decomposed(text, direct, setup, &mut layers),
        );
        untraced_us.push(us);
        report.tally(matches!(&out, Ok(svgs) if digest_svgs(svgs) == golden));
        report.tally(matches!(&traced, Ok((svgs, _)) if digest_svgs(svgs) == golden));
        if let Ok((_, e2e)) = traced {
            traced_us.push(e2e);
        }
    }
    layers.record(report);
    reconcile(report, &layers, &DECOMPOSED_TOP, &traced_us, &untraced_us);
    for name in [
        "cache.hit_ratio",
        "cache.evictions",
        "serve.response_hit_ratio",
    ] {
        report.set_single(name, 0.0);
    }
}

/// Runs both closures, `a` first when `i` is even: alternating the order
/// keeps warm-cache effects out of a traced-versus-untraced comparison.
pub fn alternate<A, B>(i: usize, a: impl FnOnce() -> A, b: impl FnOnce() -> B) -> (A, B) {
    if i.is_multiple_of(2) {
        let a = a();
        (a, b())
    } else {
        let b = b();
        (a(), b)
    }
}

/// Records `p50_ms`, `p90_ms`, `p99_ms` and `ops_per_s` from
/// back-to-back op latencies in microseconds, in blocks of `block` ops
/// with the same mix of work.
pub fn record_latency(report: &mut Report, latencies_us: &[f64], block: usize) {
    let ms: Vec<f64> = latencies_us.iter().map(|us| us / 1e3).collect();
    let secs: Vec<f64> = latencies_us.iter().map(|us| us / 1e6).collect();
    report.set("p50_ms", median_value(&ms, block));
    report.set("p90_ms", p90_value(&ms, block));
    if let Some(p99) = p99_value(&ms) {
        report.set("p99_ms", p99);
    }
    report.set("ops_per_s", rate_value(&secs, block));
}

/// Runs `make` [`SETUPS`] times, adding each duration to the run's
/// set-up samples, and returns the last state; earlier states go to
/// `discard`. A workload sets up once more this way after its timed
/// phase (discarding that state too), so its set-up samples come from
/// two moments of the run.
pub fn set_up<S>(
    report: &mut Report,
    make: &mut impl FnMut() -> Result<S, String>,
    discard: &mut impl FnMut(S),
) -> Result<S, String> {
    let mut state = None;
    for _ in 0..SETUPS {
        if let Some(previous) = state.take() {
            discard(previous);
        }
        let start = Instant::now();
        state = Some(make()?);
        report.setup_s.push(start.elapsed().as_secs_f64());
    }
    state.ok_or_else(|| "no set-up ran".to_owned())
}

/// Records the reconciliation metrics of a traced run: the share of the
/// traced end-to-end time the `top` layers do not account for, and the
/// traced-over-untraced cost of the timers.
pub fn reconcile(
    report: &mut Report,
    layers: &PerOp,
    top: &[&str],
    traced_us: &[f64],
    untraced_us: &[f64],
) {
    let traced = mean_value(traced_us).value;
    let attributed: f64 = top.iter().map(|name| layers.mean(name)).sum();
    report.set(
        "trace.unattributed_share",
        Value {
            value: 1.0 - attributed / traced,
            n: traced_us.len(),
            spread: 0.0,
        },
    );
    report.set(
        "trace.overhead_share",
        Value {
            value: traced / mean_value(untraced_us).value - 1.0,
            n: traced_us.len() + untraced_us.len(),
            spread: 0.0,
        },
    );
}

/// Records the metrics every run ends with.
pub fn finish(report: &mut Report) {
    let setups = Value {
        value: better_decile(&report.setup_s, Better::Lower),
        n: report.setup_s.len(),
        spread: iqr_share(&report.setup_s),
    };
    report.set("setup_s", setups);
    if let Some(mb) = peak_rss_mb() {
        report.set_single("peak_rss_mb", mb);
    }
    if report.attempted > 0 {
        report.set_single("fail_ratio", report.failed as f64 / report.attempted as f64);
    }
}
