//! Every metric the benchmark can print: name, unit, direction, tier and
//! why it is measured. `BENCHMARK.json` declares the end-to-end and
//! per-layer tiers; the schema-drift test holds the two in step.
//!
//! * **End to end** — printed by every workload with `--trace 0`, each
//!   with the bound by which it may worsen before a change counts as a
//!   regression.
//! * **Layer** — printed by every workload with `--trace 1`.
//! * **Detail** — printed (and written by `--out`) only by the workloads
//!   where the quantity exists; never part of the machine-readable result
//!   line, never compared.

use crate::json::Json;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latencies, memory).
    Lower,
    /// Larger is better (throughput, hit ratios).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tier {
    /// Untraced result line; may worsen by at most `bound` (a share).
    EndToEnd {
        /// Allowed worsening as a share of the parent's median.
        bound: f64,
    },
    /// Traced result line.
    Layer,
    /// Printed only where it applies.
    Detail,
}

/// One metric.
#[derive(Debug)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, `<module>.<metric>` for layers.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Reporting tier.
    pub tier: Tier,
    /// Why it is measured, and which end-to-end number it should move.
    pub why: &'static str,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    tier: Tier,
    why: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        tier,
        why,
    }
}

use Better::{Higher, Lower};
use Tier::{Detail, Layer};

/// Timings may worsen by a quarter: on the shared reference machine the
/// speed of one build drifts by up to ±20 % between runs minutes apart
/// (see `stats.rs`), so ten runs of one build spread over 0.1–0.25 of
/// their median and a tighter bound would flag the machine, not the
/// change.
const E2E: Tier = Tier::EndToEnd { bound: 0.25 };
/// Set-up gets the largest bound too: it is short, and the bound exists
/// to catch work moved out of the timed path, not to resolve small shifts.
const SETUP: Tier = Tier::EndToEnd { bound: 0.25 };
/// Memory does not drift with the machine's speed, but the smallest
/// processes (about 7 MB) move by half a megabyte: ten runs spread over
/// up to 0.06 of their median.
const MEMORY: Tier = Tier::EndToEnd { bound: 0.20 };

/// The whole schema, in print order.
#[rustfmt::skip]
pub const METRICS: &[Metric] = &[
    // ---- end to end -------------------------------------------------
    metric("setup_s", "s", Lower, SETUP,
        "state construction plus one untimed warm-up pass, fastest decile of 5 set-ups before and 5 after the phase; shows work moved out of the timed path"),
    metric("p50_ms", "ms", Lower, E2E,
        "median deck-to-SVG (or request) latency, per block of ops, better decile of the blocks: what an analyst waits for"),
    metric("p90_ms", "ms", Lower, E2E,
        "p90 latency per block of ops, better decile of the blocks; queueing and cache misses show here first"),
    metric("ops_per_s", "1/s", Higher, E2E,
        "closed-loop decks, requests or plates finished per second, per block of ops, better decile of the blocks"),
    metric("peak_rss_mb", "MB", Lower, MEMORY,
        "peak resident set (VmHWM) of the benchmark process, preparation included; catches memory traded for speed"),
    // ---- per layer ----------------------------------------------------
    metric("idlz.parse_us", "us", Lower, Layer,
        "deck text to specs (card read + Appendix-B parse) per op; p50_ms on catalog_cold"),
    metric("idlz.run_us", "us", Lower, Layer,
        "IDLZ grid, shape, reform and renumber per op; the largest cold share of catalog_cold"),
    metric("core.setup_us", "us", Lower, Layer,
        "model set-up closure per op; runs on every request, cache hit or not"),
    metric("fem.solve_us", "us", Lower, Layer,
        "assembly plus factor or CG solve per op; dominant on large_plate"),
    metric("fem.recover_us", "us", Lower, Layer,
        "stress recovery per op; p50_ms on catalog_cold"),
    metric("ospl.run_us", "us", Lower, Layer,
        "OSPL interval, isogram tracing and plot layout per op; p90_ms on edit_replay contour edits"),
    metric("plotter.svg_us", "us", Lower, Layer,
        "SVG emission per op; runs on every edit_replay hit"),
    metric("plotter.svg_bytes", "B", Lower, Layer,
        "SVG bytes emitted per op; output size drives svg_us and response time"),
    metric("fem.cg_iterations", "count", Lower, Layer,
        "CG iterations per op from the fem.cg.iterations counter (0 on the band solver); p50_ms on large_plate"),
    metric("cache.hit_ratio", "ratio", Higher, Layer,
        "stage-cache lookups answered from the store / lookups (0 without a cache); p50_ms on edit_replay"),
    metric("cache.evictions", "count", Lower, Layer,
        "stage-cache LRU evictions in the traced phase; p90_ms on edit_replay"),
    metric("serve.response_hit_ratio", "ratio", Higher, Layer,
        "responses answered by the serve response cache / responses (0 without a server); p50_ms on serve_mix"),
    metric("trace.unattributed_share", "ratio", Lower, Layer,
        "1 - sum of top-level layer times / traced end-to-end time: time no layer accounts for"),
    metric("trace.overhead_share", "ratio", Lower, Layer,
        "traced / untraced mean latency - 1: what the per-layer timers cost"),
    // ---- details ------------------------------------------------------
    metric("prepare_s", "s", Lower, Detail,
        "input generation and golden outputs; benchmark preparation, never compared"),
    metric("p99_ms", "ms", Lower, Detail,
        "p99 latency over the whole timed phase, where it has at least 1000 samples; printed, never bounded"),
    metric("fail_ratio", "ratio", Lower, Detail,
        "failed, refused or output-mismatched ops / attempted"),
    metric("cards.deck_us", "us", Lower, Detail,
        "card read (Deck::from_text) per op, inside idlz.parse_us; decomposed runs only"),
    metric("fem.assemble_us", "us", Lower, Detail,
        "re-called assembly per op, a sub-layer of fem.solve_us; decomposed runs only"),
    metric("fem.factor_us", "us", Lower, Detail,
        "band factor and solve = fem.solve_us - fem.assemble_us; catalog_cold"),
    metric("fem.cg_us", "us", Lower, Detail,
        "CG iterations = fem.solve_us - fem.assemble_us; large_plate"),
    metric("fem.nonzeros", "count", Lower, Detail,
        "CSR nonzeros per op from the fem.cg.nonzeros counter; large_plate"),
    metric("ospl.isograms_us", "us", Lower, Detail,
        "re-called isogram extraction per op, checked equal to Ospl::run's; sub-layer of ospl.run_us"),
    metric("ospl.plot_us", "us", Lower, Detail,
        "re-called plot layout per op, checked equal to Ospl::run's frame; sub-layer of ospl.run_us"),
    metric("idlz.elements", "count", Lower, Detail,
        "elements per op; work size"),
    metric("ospl.segments", "count", Lower, Detail,
        "isogram segments per op; work size"),
    metric("cache.bytes", "B", Lower, Detail,
        "approximate stage-cache payload after the phase; edit_replay"),
    metric("cache.hit_stage_us", "us", Lower, Detail,
        "mean duration of a stage call answered from the cache; p50_ms on edit_replay"),
    metric("cache.miss_stage_us", "us", Lower, Detail,
        "mean duration of a stage call that missed; p90_ms on edit_replay"),
    metric("idlz.incremental_reuse_ratio", "ratio", Higher, Detail,
        "reused / (reused + regenerated) subdivisions of the incremental idealizer; p90_ms on edit_replay"),
    metric("serve.connect_us", "us", Lower, Detail,
        "client-side TCP connect per request; p90_ms on serve_mix"),
    metric("serve.accept_us", "us", Lower, Detail,
        "serve.accept span per request (connection thread spawn)"),
    metric("serve.parse_us", "us", Lower, Detail,
        "serve.parse span per request: HTTP read plus the inline lint parse"),
    metric("serve.http_read_us", "us", Lower, Detail,
        "re-called http::read_request on the request bytes; the HTTP half of serve.parse_us"),
    metric("lint.parse_us", "us", Lower, Detail,
        "serve.parse_us - serve.http_read_us: the inline lint and deck parse"),
    metric("serve.dispatch_us", "us", Lower, Detail,
        "serve.dispatch span per request: dispatcher queue plus worker pipeline"),
    metric("serve.respond_us", "us", Lower, Detail,
        "serve.respond span per request: response write"),
    metric("core.queue_wait_us", "us", Lower, Detail,
        "serve.dispatch - sum of batch.* stage spans per request: waiting for a worker; p90_ms on serve_mix"),
    metric("serve.low_rate_p50_ms", "ms", Lower, Detail,
        "request latency at the low fixed rate, from due time"),
    metric("serve.late_ms", "ms", Lower, Detail,
        "p99 generator lateness (send time - due time) in the high-rate phase; a phase over 10 ms is flagged"),
];

/// The schema entry for `name`.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// The metrics of the result line for this mode.
pub fn result_tier(trace: bool) -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(move |m| match m.tier {
        Tier::EndToEnd { .. } => !trace,
        Tier::Layer => trace,
        Tier::Detail => false,
    })
}

#[cfg(test)]
/// A metric name is non-empty, starts with a letter or digit, and is made
/// of letters, digits, `_`, `.` and `-` (at most 64).
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The end-to-end bound `BENCHMARK.json` declares for each metric, keyed
/// by name, with its direction.
pub fn declared_bounds(benchmark: &Json) -> Result<Vec<(String, Better, f64)>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|entry| {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or("end_to_end entry without a name")?;
            let better = match entry.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = entry
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok((name.to_owned(), better, bound))
        })
        .collect()
}

#[cfg(test)]
/// Schema drift between `BENCHMARK.json` and [`METRICS`], both ways:
/// every declared metric must be in the schema with the same unit,
/// direction (and bound), and every end-to-end / layer schema entry must
/// be declared. Returns one message per mismatch.
pub fn drift(benchmark: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    for (key, end_to_end) in [("end_to_end", true), ("per_layer", false)] {
        let declared = benchmark.get(key).and_then(Json::as_array).unwrap_or(&[]);
        for entry in declared {
            let name = entry.get("name").and_then(Json::as_str).unwrap_or("");
            let Some(metric) = lookup(name) else {
                problems.push(format!(
                    "{key}: {name:?} is declared but the benchmark never emits it"
                ));
                continue;
            };
            let tier_matches = match metric.tier {
                Tier::EndToEnd { bound } => {
                    end_to_end && entry.get("bound").and_then(Json::as_f64) == Some(bound)
                }
                Tier::Layer => !end_to_end,
                Tier::Detail => false,
            };
            if !tier_matches {
                problems.push(format!("{key}: {name} has the wrong tier or bound"));
            }
            if entry.get("unit").and_then(Json::as_str) != Some(metric.unit) {
                problems.push(format!("{key}: {name} unit differs from {:?}", metric.unit));
            }
            if entry.get("better").and_then(Json::as_str) != Some(metric.better.as_str()) {
                problems.push(format!("{key}: {name} direction differs"));
            }
        }
        for metric in result_tier(!end_to_end) {
            if !declared
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some(metric.name))
            {
                problems.push(format!(
                    "{key}: {} is emitted but not declared",
                    metric.name
                ));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_matches_the_schema_both_ways() {
        let problems = drift(&benchmark_json());
        assert!(problems.is_empty(), "{problems:#?}");
    }

    #[test]
    fn schema_names_are_unique_valid_and_explained() {
        for (i, metric) in METRICS.iter().enumerate() {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(
                !metric.why.is_empty() && metric.why.len() <= 200,
                "{}",
                metric.name
            );
            assert!(!metric.why.contains('\n'), "{}", metric.name);
            assert!(
                METRICS[..i].iter().all(|m| m.name != metric.name),
                "{} twice",
                metric.name
            );
            if let Tier::EndToEnd { bound } = metric.tier {
                assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
            }
        }
        assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn drift_is_reported_in_both_directions() {
        let doc = Json::parse(
            r#"{"end_to_end": [{"name": "p50_ms", "unit": "s", "better": "lower", "bound": 0.1},
                               {"name": "ghost", "unit": "ms", "better": "lower", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .expect("valid");
        let problems = drift(&doc);
        assert!(problems.iter().any(|p| p.contains("ghost")));
        assert!(problems.iter().any(|p| p.contains("p50_ms unit")));
        assert!(problems.iter().any(|p| p.contains("setup_s is emitted")));
        assert!(problems
            .iter()
            .any(|p| p.contains("idlz.run_us is emitted")));
    }
}
