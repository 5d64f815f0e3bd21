//! End-to-end contracts of the content-addressed stage cache.
//!
//! Four promises are pinned here:
//!
//! 1. A warm rerun is **bit-identical** to its cold run — and to a run
//!    with no cache at all — for every catalog deck.
//! 2. Failures are never memoized: driving every fault-injected deck
//!    mutation through a shared store leaves the original deck's warm
//!    rerun untouched, and the faulted run's error is identical to the
//!    one a fresh store produces.
//! 3. An edit that touches only one stage (a contour-interval change)
//!    answers every upstream stage from the store — zero `fem.*` spans
//!    on the warm run — and still produces output bit-identical to an
//!    uncached session.
//! 4. With audit mode on, an edited shape line misses the idealize
//!    stage and re-idealizes from scratch (reused 0, regenerated = every
//!    subdivision), the audit invariants are re-derived on the mesh that
//!    miss produced, and that mesh is bit-identical to a cold, cache-less
//!    idealization of the edited spec.
//!
//! The instrumented runs each execute under their own
//! `cafemio_instrument::record` scope, which captures only the calling
//! thread, so tests running concurrently cannot bleed spans into each
//! other's reports.

use std::sync::Arc;

use cafemio::prelude::*;
use cafemio_bench::jobs::standard_setup;
use cafemio_bench::mutate::{base_decks, mutate, unconstrained_model, Fault, SplitMix64};

/// One full staged session over deck text: parse through contouring of
/// the effective stress, with the caller's config and contour options.
fn run_full(
    config: &SessionConfig,
    text: &str,
    options: &ContourOptions,
) -> Result<Vec<StressPlot>, PipelineError> {
    PipelineBuilder::new()
        .config(config.clone())
        .component(StressComponent::Effective)
        .contour_options(options.clone())
        .parse(text)?
        .idealize()?
        .setup(standard_setup)?
        .solve()?
        .recover()?
        .contour()
}

/// Drives one fault-injected deck as far as its fault allows.
/// [`Fault::SingularBc`] leaves the deck intact and fails at solve; the
/// others fail at parse or idealize.
fn run_faulted(
    config: &SessionConfig,
    text: &str,
    fault: Fault,
) -> Result<(), PipelineError> {
    let builder = PipelineBuilder::new().config(config.clone());
    match fault {
        Fault::SingularBc => {
            builder
                .parse(text)?
                .idealize()?
                .setup(unconstrained_model)?
                .solve()?
                .recover()?
                .contour()?;
        }
        _ => {
            builder.parse(text)?.idealize()?;
        }
    }
    Ok(())
}

#[test]
fn warm_reruns_are_bit_identical_to_cold_across_the_catalog() {
    let options = ContourOptions::new();
    for (name, text) in &base_decks() {
        let store = Arc::new(StageCache::new());
        let cached = SessionConfig::new().cache(Arc::clone(&store));
        let cold = run_full(&cached, text, &options)
            .unwrap_or_else(|e| panic!("{name}: cold run failed: {e}"));
        let seeded = store.stats();
        assert!(seeded.misses >= 5, "{name}: cold run should miss every stage");
        assert!(seeded.entries >= 5, "{name}: cold run should populate the store");
        assert_eq!(seeded.hits, 0, "{name}: nothing to hit on a cold store");

        let warm = run_full(&cached, text, &options).unwrap();
        let after = store.stats();
        assert!(
            after.hits >= seeded.hits + 5,
            "{name}: warm run should answer every stage from the store ({after:?})"
        );
        assert_eq!(
            after.misses, seeded.misses,
            "{name}: warm run should miss nothing"
        );

        // Equal values and equal Debug renderings: the Debug form
        // round-trips every f64, so equal strings mean bit-identical
        // floats.
        assert_eq!(cold, warm, "{name}: warm rerun diverged");
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"), "{name}");
        let plain = run_full(&SessionConfig::new(), text, &options).unwrap();
        assert_eq!(
            format!("{cold:?}"),
            format!("{plain:?}"),
            "{name}: caching changed the output"
        );
    }
}

#[test]
fn mutated_decks_fail_identically_warm_and_cold_and_never_poison_the_store() {
    let options = ContourOptions::new();
    let mut rng = SplitMix64::new(0xCAFE_F00D);
    for (name, text) in &base_decks() {
        let store = Arc::new(StageCache::new());
        let cached = SessionConfig::new().cache(Arc::clone(&store));
        let cold = run_full(&cached, text, &options)
            .unwrap_or_else(|e| panic!("{name}: cold run failed: {e}"));
        for fault in Fault::ALL {
            let mutated = mutate(text, fault, &mut rng);
            // Through the shared (warm) store...
            let warm_err = run_faulted(&cached, &mutated, fault).expect_err(&format!(
                "{name}/{}: mutated deck unexpectedly succeeded warm",
                fault.name()
            ));
            // ...and through a fresh store, cold.
            let fresh = SessionConfig::new().cache(Arc::new(StageCache::new()));
            let cold_err = run_faulted(&fresh, &mutated, fault).expect_err(&format!(
                "{name}/{}: mutated deck unexpectedly succeeded cold",
                fault.name()
            ));
            assert_eq!(
                warm_err.stage(),
                fault.expected_stage(),
                "{name}/{}: {warm_err}",
                fault.name()
            );
            assert_eq!(
                format!("{warm_err:?}"),
                format!("{cold_err:?}"),
                "{name}/{}: warm error diverged from cold",
                fault.name()
            );
        }
        // None of the faulted runs may have cached a failure or clobbered
        // a good artifact: the original deck's warm rerun is still
        // bit-identical to its cold run.
        let warm = run_full(&cached, text, &options).unwrap();
        assert_eq!(
            format!("{cold:?}"),
            format!("{warm:?}"),
            "{name}: a faulted run poisoned the cache"
        );
    }
}

#[test]
fn a_contour_only_edit_reuses_every_upstream_artifact() {
    let (name, text) = &base_decks()[0];
    let store = Arc::new(StageCache::new());
    let cached = SessionConfig::new().cache(Arc::clone(&store));
    run_full(&cached, text, &ContourOptions::new())
        .unwrap_or_else(|e| panic!("{name}: cold run failed: {e}"));
    let before = store.stats();

    // Edit only the contour request and rerun warm, recording the run.
    let edited = ContourOptions::new().interval(750.0);
    let (warm, report) = cafemio_instrument::record(|| run_full(&cached, text, &edited));
    let warm = warm.unwrap();
    let after = store.stats();

    // The solver never ran: parse, idealize, solve, and stress recovery
    // all answered from the store.
    let fem_spans: Vec<&str> = report
        .spans
        .iter()
        .map(|s| s.name.as_str())
        .filter(|n| n.starts_with("fem."))
        .collect();
    assert!(
        fem_spans.is_empty(),
        "{name}: contour-only edit still ran the solver: {fem_spans:?}"
    );
    assert!(
        after.hits >= before.hits + 4,
        "{name}: upstream stages should all hit ({before:?} -> {after:?})"
    );
    assert_eq!(
        after.misses,
        before.misses + 1,
        "{name}: only the contour stage should miss"
    );
    // The cache.hits counter carries the store's running total, not a
    // per-event value.
    assert_eq!(
        report.counter("cache.hits"),
        Some(after.hits),
        "{name}: cache.hits counter out of step with the store"
    );
    // An idealize hit idealizes nothing, so it reports no reuse counts.
    for counter in [
        "idlz.incremental.reused_subdivisions",
        "idlz.incremental.regenerated_subdivisions",
    ] {
        assert_eq!(
            report.counter(counter),
            None,
            "{name}: a hit reported {counter}"
        );
    }

    // And the store-answered session is bit-identical to an uncached one
    // with the same edited options.
    let plain = run_full(&SessionConfig::new(), text, &edited).unwrap();
    assert_eq!(
        format!("{warm:?}"),
        format!("{plain:?}"),
        "{name}: warm contour edit diverged from the uncached session"
    );
}

/// Every spec obtainable from `spec` by nudging one straight shape line
/// a hair (1e-6) upward — the "analyst edits one Type-6 card" scenario.
fn nudged_specs(spec: &IdealizationSpec) -> Vec<IdealizationSpec> {
    let straights = spec
        .shape_lines()
        .values()
        .flatten()
        .filter(|l| !l.is_arc())
        .count();
    (0..straights)
        .map(|pick| {
            let mut out = IdealizationSpec::new(spec.title());
            out.set_options(spec.options());
            out.set_limits(spec.limits());
            out.set_punch_formats(spec.nodal_format(), spec.element_format());
            for sub in spec.subdivisions() {
                out.add_subdivision(*sub);
            }
            let mut straight_seen = 0;
            for (&id, lines) in spec.shape_lines() {
                for line in lines {
                    let mut line = *line;
                    if !line.is_arc() {
                        if straight_seen == pick {
                            line.start.y += 1.0e-6;
                        }
                        straight_seen += 1;
                    }
                    out.add_shape_line(id, line);
                }
            }
            out
        })
        .collect()
}

#[test]
fn audit_mode_re_derives_invariants_on_incrementally_produced_meshes() {
    // A catalog structure with several subdivisions and at least one
    // straight shape line to edit.
    let spec = cafemio_models::catalog()
        .into_iter()
        .map(|entry| (entry.spec)())
        .find(|s| {
            s.subdivisions().len() >= 2
                && s.shape_lines().values().flatten().any(|l| !l.is_arc())
        })
        .expect("catalog has a multi-subdivision spec with a straight shape line");

    let strict = SessionConfig::new().audit(AuditOptions::strict());
    let run_specs = |config: &SessionConfig, spec: &IdealizationSpec| {
        PipelineBuilder::new()
            .config(config.clone())
            .specs(vec![spec.clone()])
            .idealize()
    };
    // Not every hair-nudged line survives strict audit (a moved endpoint
    // another line also locates would disagree); pick the first edit
    // that idealizes cleanly.
    let edited = nudged_specs(&spec)
        .into_iter()
        .find(|candidate| run_specs(&strict, candidate).is_ok())
        .expect("some nudged spec passes strict audit");
    assert_ne!(edited, spec, "the nudge must actually change the spec");

    let store = Arc::new(StageCache::new());
    let audited = strict.clone().cache(Arc::clone(&store));
    // Cold run seeds the store.
    run_specs(&audited, &spec).expect("cold idealization under strict audit");

    // The edited spec misses the idealize stage and re-idealizes from
    // scratch; the recorded run proves both the counts and the audit
    // re-check.
    let (warm, report) = cafemio_instrument::record(|| run_specs(&audited, &edited));
    let warm = warm.expect("store-backed idealization under strict audit");

    assert_eq!(
        report.counter("idlz.incremental.reused_subdivisions"),
        Some(0),
        "a miss reuses nothing: {:?}",
        report.counters
    );
    assert_eq!(
        report.counter("idlz.incremental.regenerated_subdivisions"),
        Some(edited.subdivisions().len() as u64),
        "a miss regenerates every subdivision"
    );
    assert!(
        report.spans.iter().any(|s| s.name == "audit.idealize"),
        "audit must re-derive its invariants on the store-backed mesh"
    );

    // The store-backed result is bit-identical to a cold, cache-less
    // idealization of the edited spec.
    let cold = run_specs(&strict, &edited).unwrap();
    assert_eq!(
        format!("{:?}", warm.sets()),
        format!("{:?}", cold.sets()),
        "store-backed mesh diverged from the cold mesh"
    );
}
