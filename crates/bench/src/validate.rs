//! Structural validation of every `BENCH_*.json` perf artifact.
//!
//! One declarative [`ArtifactSpec`] per artifact replaces the ad-hoc
//! validator binaries that used to live beside each producer
//! (`bench_smoke`, `batch_smoke`, and the inline checks of the other
//! producers). The `bench_validate` binary applies the spec matching
//! each file's name; CI runs it as the final step of every
//! bench-producing job, so an artifact that silently loses a span, drops
//! to zero jobs, or breaches a divergence bound fails the build even if
//! its producer exited cleanly.

use cafemio::instrument::PerfReport;

/// A counter equation: `total == parts₀ + parts₁ + ...`.
#[derive(Debug, Clone, Copy)]
pub struct Balance {
    /// The counter holding the expected sum.
    pub total: &'static str,
    /// The counters that must add up to it.
    pub parts: &'static [&'static str],
}

/// The structural contract one `BENCH_*.json` artifact must satisfy.
#[derive(Debug, Clone, Copy)]
pub struct ArtifactSpec {
    /// The artifact's canonical file name (`BENCH_<kind>.json`).
    pub file: &'static str,
    /// Spans that must be present with nonzero time.
    pub positive_spans: &'static [&'static str],
    /// Counters that must be present and positive — the "no zero-job
    /// report" guarantee lives here.
    pub positive_counters: &'static [&'static str],
    /// Counters that must be present and exactly zero (failure tallies).
    pub zero_counters: &'static [&'static str],
    /// Counters that must be present and at most the bound.
    pub bounded_counters: &'static [(&'static str, u64)],
    /// Counter equations that must balance.
    pub balances: &'static [Balance],
    /// Ordered counter pairs: the first must not exceed the second
    /// (e.g. a p50 latency against its p99).
    pub ordered_counters: &'static [(&'static str, &'static str)],
}

/// Every stage span one instrumented idealize → solve → contour session
/// records (the `figures` sweep artifact).
const PIPELINE_SPANS: [&str; 27] = [
    "pipeline.total",
    "audit.idealize",
    "audit.solve",
    "audit.differential",
    "audit.contour",
    "idlz.run",
    "idlz.grid",
    "idlz.shape",
    "idlz.reform",
    "idlz.renumber",
    "idlz.plot",
    "pipeline.idealize",
    "pipeline.model_setup",
    "pipeline.solve",
    "pipeline.stress_recovery",
    "pipeline.contour",
    "fem.solve",
    "fem.assemble",
    "fem.element_stiffness",
    "fem.scatter",
    "fem.factor_solve",
    "fem.stress_recovery",
    "ospl.run",
    "ospl.interval",
    "ospl.isograms",
    "ospl.plot",
    "ospl.contour_bench",
];

/// The per-stage spans a batch run aggregates (mirrors
/// `cafemio::batch::STAGE_SPANS`, plus the run-level total).
const BATCH_SPANS: [&str; 7] = [
    "batch.total",
    "batch.parse",
    "batch.idealize",
    "batch.model_setup",
    "batch.solve",
    "batch.stress_recovery",
    "batch.contour",
];

/// The service spans every `/analyze` request records:
/// `cafemio_serve::SERVE_SPANS` but `serve.render`, which times only a
/// `/contour` render, and `load_gen` sends none.
const SERVE_SPANS: [&str; 4] = [
    "serve.accept",
    "serve.parse",
    "serve.dispatch",
    "serve.respond",
];

const JOB_BALANCE: [Balance; 1] = [Balance {
    total: "batch.jobs",
    parts: &["batch.completed", "batch.failed", "batch.skipped"],
}];

/// The specs for every artifact the repo produces, in verify-stage order.
pub const SPECS: [ArtifactSpec; 7] = [
    ArtifactSpec {
        file: "BENCH_pipeline.json",
        positive_spans: &PIPELINE_SPANS,
        positive_counters: &[
            "idlz.nodes",
            "idlz.elements",
            "fem.dofs",
            "ospl.segments",
            "audit.solver_divergence_checks",
            "audit.sparse_divergence_checks",
            "ospl.contour_bench_cases",
            "ospl.contour_brute_nanos",
            "ospl.contour_fast_nanos",
            "ospl.contour_speedup_milli",
            "ospl.contour_stage_share_milli",
        ],
        // The BVH-indexed contour paths must agree with the brute-force
        // scans bit for bit across the whole catalog sweep.
        zero_counters: &[
            "audit.solver_divergence_failures",
            "audit.sparse_divergence_failures",
            "ospl.contour_parity_mismatches",
        ],
        // Direct backends must agree to 1e-9 (1e6 femto); the iterative
        // backend only to its own 1e-8 tolerance (1e7 femto).
        bounded_counters: &[
            ("audit.solver_divergence_max_femto", 1_000_000),
            ("audit.sparse_divergence_max_femto", 10_000_000),
        ],
        balances: &[],
        // The indexed contour path must clear its 2x speedup floor.
        ordered_counters: &[
            ("ospl.contour_speedup_floor_milli", "ospl.contour_speedup_milli"),
        ],
    },
    ArtifactSpec {
        file: "BENCH_batch.json",
        positive_spans: &BATCH_SPANS,
        positive_counters: &["batch.jobs", "batch.workers", "batch.jobs_per_sec_milli"],
        // The corpus run must complete every job.
        zero_counters: &["batch.failed", "batch.skipped"],
        bounded_counters: &[],
        balances: &JOB_BALANCE,
        ordered_counters: &[],
    },
    ArtifactSpec {
        file: "BENCH_audit.json",
        positive_spans: &BATCH_SPANS,
        // The sweep is mixed clean/faulted, so failures are expected —
        // but every fault must surface as a typed stage error, so the
        // audit layer checks a lot and flags nothing.
        positive_counters: &["batch.jobs", "audit.checks"],
        zero_counters: &["batch.skipped", "audit.violations"],
        bounded_counters: &[],
        balances: &JOB_BALANCE,
        ordered_counters: &[],
    },
    ArtifactSpec {
        file: "BENCH_lint.json",
        positive_spans: &[],
        // The golden corpus fires every code once, spanning both
        // severity classes, and every machine-applicable code must have
        // exercised its fix-corpus pair with its parity check run.
        positive_counters: &[
            "lint.diagnostics",
            "lint.denied",
            "lint.warnings",
            "lint.fix_cases",
            "lint.fixes_applied",
            "lint.fix_parity_checks",
        ],
        // The parity gate: zero mesh mismatches, zero unconverged pairs.
        zero_counters: &["lint.fix_parity_mismatches", "lint.fix_unconverged"],
        bounded_counters: &[],
        balances: &[Balance {
            total: "lint.diagnostics",
            parts: &["lint.denied", "lint.warnings"],
        }],
        // Every exercised pair applies at least one fix.
        ordered_counters: &[("lint.fix_cases", "lint.fixes_applied")],
    },
    ArtifactSpec {
        file: "BENCH_sparse.json",
        positive_spans: &[
            "fem.assemble",
            "fem.cg.factor",
            "fem.cg.iterate",
            "fem.solve_sparse",
        ],
        // The smoke strip's profile passes the complete-factor rule, so
        // CG refines a direct solve.
        positive_counters: &[
            "fem.cg.iterations",
            "fem.cg.nonzeros",
            "fem.cg.complete_factors",
        ],
        // A well-posed elastic plate never reaches the Jacobi fall-back.
        zero_counters: &["fem.cg.ic0_fallbacks"],
        // Refinement around the complete factor takes one to three
        // steps (IC(0) took 1 194 here), and the large-mesh run is
        // residual-audited to 1e-8 (1e7 femto).
        bounded_counters: &[
            ("fem.cg.iterations", 3),
            ("fem.cg.residual_femto", 10_000_000),
        ],
        balances: &[],
        ordered_counters: &[],
    },
    ArtifactSpec {
        file: "BENCH_serve.json",
        positive_spans: &SERVE_SPANS,
        positive_counters: &[
            "serve.requests",
            "serve.responses",
            "serve.completed",
            "serve.latency_p50_micros",
            "serve.latency_p99_micros",
            "serve.jobs_per_sec_milli",
            "serve.determinism_checks",
            "serve.drain_submitted",
        ],
        zero_counters: &["serve.determinism_failures", "serve.drain_lost"],
        bounded_counters: &[],
        balances: &[],
        ordered_counters: &[("serve.latency_p50_micros", "serve.latency_p99_micros")],
    },
    ArtifactSpec {
        file: "BENCH_cache.json",
        // The instrumented replays are warm, so only the lookup side of
        // the store (plus the always-open stage spans) must appear.
        positive_spans: &["cache.lookup", "pipeline.parse", "pipeline.solve"],
        // Hit-rate strictly positive, both percentiles measured.
        positive_counters: &[
            "cache.hits",
            "cache.replay_decks",
            "cache.cold_p50_micros",
            "cache.warm_p50_micros",
            "cache.speedup_milli",
        ],
        // Warm must be bit-identical to cold, and warm replays must
        // never reach the solver.
        zero_counters: &["cache.replay_mismatches", "cache.warm_fem_spans"],
        bounded_counters: &[],
        balances: &[],
        // warm p50 <= cold p50, and the speedup clears its 10x floor.
        ordered_counters: &[
            ("cache.warm_p50_micros", "cache.cold_p50_micros"),
            ("cache.speedup_floor_milli", "cache.speedup_milli"),
        ],
    },
];

/// The spec whose canonical file name ends the given path, if any.
pub fn spec_for(path: &str) -> Option<&'static ArtifactSpec> {
    let name = path.rsplit(['/', '\\']).next().unwrap_or(path);
    SPECS.iter().find(|spec| spec.file == name)
}

/// Checks a parsed report against a spec. Returns one line per
/// violation; empty means the artifact satisfies its contract.
pub fn validate(spec: &ArtifactSpec, report: &PerfReport) -> Vec<String> {
    let mut violations = Vec::new();
    for name in spec.positive_spans {
        match report.spans.iter().find(|s| s.name == *name) {
            None => violations.push(format!("span {name:?} missing")),
            Some(s) if s.nanos == 0 => violations.push(format!("span {name:?} recorded 0 ns")),
            Some(_) => {}
        }
    }
    for name in spec.positive_counters {
        match report.counter(name) {
            None => violations.push(format!("counter {name:?} missing")),
            Some(0) => violations.push(format!("counter {name:?} is zero")),
            Some(_) => {}
        }
    }
    for name in spec.zero_counters {
        match report.counter(name) {
            None => violations.push(format!("counter {name:?} missing")),
            Some(0) => {}
            Some(value) => violations.push(format!("counter {name:?} is {value} (must be 0)")),
        }
    }
    for (name, bound) in spec.bounded_counters {
        match report.counter(name) {
            None => violations.push(format!("counter {name:?} missing")),
            Some(value) if value > *bound => violations.push(format!(
                "counter {name:?} is {value}, exceeding the {bound} bound"
            )),
            Some(_) => {}
        }
    }
    for balance in spec.balances {
        let total = report.counter(balance.total);
        let parts: Vec<Option<u64>> = balance.parts.iter().map(|p| report.counter(p)).collect();
        match (total, parts.iter().copied().collect::<Option<Vec<u64>>>()) {
            (Some(total), Some(parts_present)) => {
                let sum: u64 = parts_present.iter().sum();
                if sum != total {
                    violations.push(format!(
                        "counters {:?} sum to {sum}, but {:?} is {total}",
                        balance.parts, balance.total
                    ));
                }
            }
            _ => violations.push(format!(
                "balance {:?} = sum{:?} has a missing counter",
                balance.total, balance.parts
            )),
        }
    }
    for (low, high) in spec.ordered_counters {
        match (report.counter(low), report.counter(high)) {
            (Some(a), Some(b)) if a > b => violations.push(format!(
                "counter {low:?} ({a}) exceeds {high:?} ({b})"
            )),
            (Some(_), Some(_)) => {}
            _ => violations.push(format!("ordered pair {low:?} <= {high:?} has a missing counter")),
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafemio::instrument::{CounterRecord, SpanRecord};

    fn report(spans: &[(&str, u64)], counters: &[(&str, u64)]) -> PerfReport {
        PerfReport {
            spans: spans
                .iter()
                .map(|(name, nanos)| SpanRecord {
                    name: name.to_string(),
                    depth: 0,
                    nanos: *nanos,
                })
                .collect(),
            counters: counters
                .iter()
                .map(|(name, value)| CounterRecord {
                    name: name.to_string(),
                    value: *value,
                })
                .collect(),
        }
    }

    #[test]
    fn every_artifact_kind_has_a_spec() {
        for file in [
            "BENCH_pipeline.json",
            "BENCH_batch.json",
            "BENCH_audit.json",
            "BENCH_lint.json",
            "BENCH_sparse.json",
            "BENCH_serve.json",
            "BENCH_cache.json",
        ] {
            assert!(spec_for(file).is_some(), "{file}");
            assert!(spec_for(&format!("some/dir/{file}")).is_some(), "{file} by path");
        }
        assert!(spec_for("BENCH_unknown.json").is_none());
    }

    #[test]
    fn missing_and_zero_records_are_flagged() {
        let spec = spec_for("BENCH_batch.json").expect("spec exists");
        let violations = validate(spec, &PerfReport::default());
        assert!(violations.iter().any(|v| v.contains("batch.total")));
        assert!(violations.iter().any(|v| v.contains("batch.jobs")));
    }

    #[test]
    fn a_complete_batch_report_passes() {
        let spec = spec_for("BENCH_batch.json").expect("spec exists");
        let spans: Vec<(&str, u64)> = BATCH_SPANS.iter().map(|s| (*s, 1000)).collect();
        let full = report(
            &spans,
            &[
                ("batch.jobs", 8),
                ("batch.completed", 8),
                ("batch.failed", 0),
                ("batch.skipped", 0),
                ("batch.workers", 2),
                ("batch.jobs_per_sec_milli", 1234),
            ],
        );
        assert_eq!(validate(spec, &full), Vec::<String>::new());
    }

    #[test]
    fn unbalanced_job_counters_are_flagged() {
        let spec = spec_for("BENCH_batch.json").expect("spec exists");
        let spans: Vec<(&str, u64)> = BATCH_SPANS.iter().map(|s| (*s, 1000)).collect();
        let broken = report(
            &spans,
            &[
                ("batch.jobs", 9),
                ("batch.completed", 8),
                ("batch.failed", 0),
                ("batch.skipped", 0),
                ("batch.workers", 2),
                ("batch.jobs_per_sec_milli", 1234),
            ],
        );
        assert!(validate(spec, &broken)
            .iter()
            .any(|v| v.contains("sum to 8")));
    }

    #[test]
    fn an_ic0_fallback_on_the_smoke_plate_is_flagged() {
        let spec = spec_for("BENCH_sparse.json").expect("spec exists");
        let spans: Vec<(&str, u64)> = spec.positive_spans.iter().map(|s| (*s, 1000)).collect();
        let smoke = |complete, iterations, fallbacks| {
            report(
                &spans,
                &[
                    ("fem.cg.iterations", iterations),
                    ("fem.cg.nonzeros", 1_625_044),
                    ("fem.cg.residual_femto", 0),
                    ("fem.cg.complete_factors", complete),
                    ("fem.cg.ic0_fallbacks", fallbacks),
                ],
            )
        };
        assert_eq!(validate(spec, &smoke(1, 2, 0)), Vec::<String>::new());
        assert!(validate(spec, &smoke(1, 2, 1))
            .iter()
            .any(|v| v.contains("fem.cg.ic0_fallbacks")));
        // An IC(0)-shaped report (no complete factor, 1 194 iterations)
        // is flagged: the strip must take the direct path.
        let ic0 = validate(spec, &smoke(0, 1194, 0));
        assert!(ic0.iter().any(|v| v.contains("fem.cg.complete_factors")));
        assert!(ic0.iter().any(|v| v.contains("fem.cg.iterations")));
    }

    #[test]
    fn inverted_latency_percentiles_are_flagged() {
        let spec = spec_for("BENCH_serve.json").expect("spec exists");
        let spans: Vec<(&str, u64)> = SERVE_SPANS.iter().map(|s| (*s, 1000)).collect();
        let inverted = report(
            &spans,
            &[
                ("serve.requests", 10),
                ("serve.responses", 10),
                ("serve.completed", 10),
                ("serve.latency_p50_micros", 900),
                ("serve.latency_p99_micros", 300),
                ("serve.jobs_per_sec_milli", 1),
                ("serve.determinism_checks", 4),
                ("serve.determinism_failures", 0),
                ("serve.drain_submitted", 4),
                ("serve.drain_lost", 0),
            ],
        );
        assert!(validate(spec, &inverted)
            .iter()
            .any(|v| v.contains("exceeds")));
    }
}
