//! The declared telemetry schema: every span and counter name the
//! workspace is allowed to emit.
//!
//! `srclint` extracts every name literal passed to an emission site
//! (the free functions `span("..")`, `counter("..")` and `add("..")`)
//! from non-test library code and checks it against this registry by
//! kind — a span site's name must be in [`SPANS`] and a counter or add
//! site's in [`COUNTERS`]. An unregistered or
//! wrongly filed name fails CI, and so does a registered name nothing
//! emits. The registry is therefore the single place a new telemetry
//! name is minted, and dashboards built on these names cannot silently
//! rot when a span is renamed or dropped.
//!
//! Names constructed at runtime (the per-code `lint.<CODE>` counters)
//! are covered by [`PREFIXES`] instead of exact entries; prefix families
//! are exempt from the dead-name check because their emission sites are
//! `format!` calls, not literals.

/// Every span name emitted by an exact-name site, sorted.
pub const SPANS: &[&str] = &[
    "audit.contour",
    "audit.differential",
    "audit.divergence_sweep",
    "audit.idealize",
    "audit.solve",
    "batch.contour",
    "batch.idealize",
    "batch.model_setup",
    "batch.parse",
    "batch.solve",
    "batch.stress_recovery",
    "cache.lookup",
    "cache.store",
    "fem.assemble",
    "fem.cg.factor",
    "fem.cg.iterate",
    "fem.element_stiffness",
    "fem.factor_solve",
    "fem.scatter",
    "fem.solve",
    "fem.solve_skyline",
    "fem.solve_sparse",
    "fem.stress_recovery",
    "idlz.grid",
    "idlz.plot",
    "idlz.reform",
    "idlz.renumber",
    "idlz.run",
    "idlz.shape",
    "lint.deck",
    "ospl.contour_bench",
    "ospl.interval",
    "ospl.isograms",
    "ospl.plot",
    "ospl.run",
    "pipeline.contour",
    "pipeline.idealize",
    "pipeline.model_setup",
    "pipeline.parse",
    "pipeline.solve",
    "pipeline.stress_recovery",
    "pipeline.total",
    "serve.accept",
    "serve.dispatch",
    "serve.parse",
    "serve.render",
    "serve.respond",
];

/// Every counter name emitted by an exact-name site, sorted.
pub const COUNTERS: &[&str] = &[
    "audit.checks",
    "audit.solver_divergence_checks",
    "audit.solver_divergence_failures",
    "audit.solver_divergence_max_femto",
    "audit.sparse_divergence_checks",
    "audit.sparse_divergence_failures",
    "audit.sparse_divergence_max_femto",
    "audit.violations",
    "batch.completed",
    "batch.failed",
    "batch.jobs",
    "batch.skipped",
    "batch.workers",
    "cache.evictions",
    "cache.hits",
    "cache.misses",
    "fem.cg.complete_factors",
    "fem.cg.ic0_fallbacks",
    "fem.cg.iterations",
    "fem.cg.nonzeros",
    "fem.cg.residual_femto",
    "fem.dof_bandwidth",
    "fem.dofs",
    "idlz.bandwidth_after",
    "idlz.bandwidth_before",
    "idlz.elements",
    "idlz.incremental.regenerated_subdivisions",
    "idlz.incremental.reused_subdivisions",
    "idlz.nodes",
    "lint.denied",
    "lint.diagnostics",
    "lint.session_diagnostics",
    "ospl.contour_bench_cases",
    "ospl.contour_brute_nanos",
    "ospl.contour_fast_nanos",
    "ospl.contour_parity_mismatches",
    "ospl.contour_speedup_floor_milli",
    "ospl.contour_speedup_milli",
    "ospl.levels",
    "ospl.segments",
    "serve.completed",
    "serve.failed",
    "serve.fixes_applied",
    "serve.http_errors",
    "serve.lint_requests",
    "serve.rejected",
    "serve.requests",
    "serve.responses",
];

/// Name families minted at runtime (`format!`), allowed by prefix.
pub const PREFIXES: &[&str] = &[
    // One `lint.<CODE>` counter per triggered lint code
    // (`LintReport::to_perf_report`).
    "lint.",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_duplicate_free() {
        for list in [SPANS, COUNTERS] {
            for pair in list.windows(2) {
                assert!(pair[0] < pair[1], "{} >= {}", pair[0], pair[1]);
            }
        }
        // A name filed as both kinds would pass `srclint`'s kind rule
        // either way.
        for name in SPANS {
            assert!(!COUNTERS.contains(name), "{name} is both a span and a counter");
        }
    }
}
