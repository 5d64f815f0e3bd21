//! The static-analysis contracts, end to end:
//!
//! 1. **Golden corpus** — every lint code in the registry is triggered by
//!    its minimal golden deck at the expected card with its default
//!    severity, and nothing else fires on that deck.
//! 2. **Catalog cleanliness** — every catalog model (as a spec and as a
//!    round-tripped deck) lints clean at default severity.
//! 3. **Pipeline wiring** — `SessionConfig::lint` denies bad decks at
//!    `Stage::DeckParse` with the typed diagnostics attached, keeps
//!    warn-level reports available on the parsed deck, and respects
//!    severity overrides.
//! 4. **Batch wiring** — the same lint config on `BatchOptions::config`
//!    fails bad jobs with the same stage attribution and seeds the
//!    `lint.*` observability names.

use cafemio::batch::{run_batch, BatchJob, BatchOptions, ErrorPolicy, JobOutcome};
use cafemio::lint::{
    golden_cases, lint_deck_text, lint_specs, run_case, verify_corpus, DeckKind, LintCode,
    LintConfig, Severity,
};
use cafemio::pipeline::{PipelineBuilder, Stage, StageError};
use cafemio::SessionConfig;
use cafemio_bench::jobs::{corpus, standard_setup};
use cafemio_bench::mutate::base_decks;

/// The golden deck for one code, straight from the corpus registry.
fn golden_deck(code: LintCode) -> &'static str {
    golden_cases()
        .into_iter()
        .find(|case| case.code == code)
        .map(|case| case.deck)
        .unwrap_or_else(|| panic!("no golden deck for {code}"))
}

// ---------------------------------------------------------------------
// Golden corpus

#[test]
fn every_lint_code_fires_on_its_golden_deck_at_the_expected_card() {
    if let Err(problems) = verify_corpus() {
        panic!("golden corpus violations:\n{}", problems.join("\n"));
    }
}

#[test]
fn the_corpus_covers_the_whole_registry_with_card_spans() {
    let cases = golden_cases();
    let covered: std::collections::BTreeSet<LintCode> =
        cases.iter().map(|case| case.code).collect();
    // Session-level codes (O003) are derived from session state, not
    // deck text, so they have no golden deck by construction.
    let deck_derivable = LintCode::ALL
        .iter()
        .filter(|code| !LintCode::SESSION.contains(code))
        .count();
    assert_eq!(covered.len(), deck_derivable, "registry gaps");
    assert!(covered.len() >= 10, "acceptance floor: ten distinct codes");
    for case in &cases {
        let report = run_case(case).unwrap();
        let diagnostic = report
            .diagnostics()
            .iter()
            .find(|d| d.code == case.code)
            .unwrap_or_else(|| panic!("{} never fired", case.code));
        assert_eq!(diagnostic.severity, case.code.default_severity());
        assert_eq!(diagnostic.span.card, Some(case.card), "{}", case.code);
        assert_eq!(diagnostic.span.field, case.field, "{}", case.code);
        assert!(!diagnostic.message.is_empty(), "{}", case.code);
        // Anything else the deck fires must be a declared co-trigger.
        for extra in report.diagnostics().iter().filter(|d| d.code != case.code) {
            assert!(
                case.also.contains(&extra.code),
                "{}: undeclared co-trigger {}",
                case.code,
                extra.code
            );
        }
    }
}

// ---------------------------------------------------------------------
// Catalog cleanliness

#[test]
fn every_catalog_model_lints_clean() {
    for entry in cafemio::models::catalog() {
        let report = lint_specs(&[(entry.spec)()], &LintConfig::new());
        assert!(
            report.is_clean(),
            "{}: {:?}",
            entry.name,
            report.diagnostics()
        );
    }
}

#[test]
fn every_round_tripped_catalog_deck_lints_clean() {
    for (name, text) in base_decks() {
        let report = lint_deck_text(&text, &LintConfig::new()).unwrap();
        assert!(report.is_clean(), "{name}: {:?}", report.diagnostics());
    }
}

// ---------------------------------------------------------------------
// Pipeline wiring

#[test]
fn the_pipeline_denies_a_bad_deck_at_parse_with_typed_diagnostics() {
    let deck = golden_deck(LintCode::OverlappingSubdivisions);
    let err = PipelineBuilder::new()
        .config(SessionConfig::new().lint(LintConfig::new()))
        .parse(deck)
        .unwrap_err();
    assert_eq!(err.stage(), Stage::DeckParse);
    match err.source_error() {
        StageError::Lint(lint) => {
            assert_eq!(lint.diagnostics.len(), 1);
            assert_eq!(lint.diagnostics[0].code, LintCode::OverlappingSubdivisions);
            assert_eq!(lint.diagnostics[0].severity, Severity::Deny);
            assert!(lint.diagnostics[0].span.card.is_some());
        }
        other => panic!("expected a lint error, got {other:?}"),
    }
}

#[test]
fn warn_level_findings_survive_on_the_parsed_deck_without_failing() {
    let deck = golden_deck(LintCode::BandwidthHostileNumbering);
    let parsed = PipelineBuilder::new()
        .config(SessionConfig::new().lint(LintConfig::new()))
        .parse(deck)
        .unwrap();
    let report = parsed.lint_report().expect("lint mode stores the report");
    assert_eq!(report.denied_count(), 0);
    assert_eq!(report.warning_count(), 1);
    assert_eq!(
        report.diagnostics()[0].code,
        LintCode::BandwidthHostileNumbering
    );
}

#[test]
fn severity_overrides_rewrite_the_verdict_in_both_directions() {
    // A default-deny code, allowed: the deck parses.
    let denied = golden_deck(LintCode::OverlappingSubdivisions);
    let parsed = PipelineBuilder::new()
        .config(SessionConfig::new().lint(LintConfig::new().allow(LintCode::OverlappingSubdivisions)))
        .parse(denied)
        .unwrap();
    assert!(parsed.lint_report().unwrap().is_clean());

    // A default-warn code, escalated two ways: per-code and wholesale.
    let warned = golden_deck(LintCode::DeadShapeLine);
    for config in [
        LintConfig::new().with(LintCode::DeadShapeLine, Severity::Deny),
        LintConfig::new().deny_warnings(),
    ] {
        let err = PipelineBuilder::new()
            .config(SessionConfig::new().lint(config))
            .parse(warned)
            .unwrap_err();
        assert_eq!(err.stage(), Stage::DeckParse);
        assert!(matches!(err.source_error(), StageError::Lint(_)), "{err}");
    }
}

// ---------------------------------------------------------------------
// Session-level dataflow (O003): the contour request is checked against
// what the analysis kind actually produces — plane stress has no
// circumferential component, so requesting one is a dataflow hazard the
// deck text alone cannot reveal.

#[test]
fn requesting_an_unproduced_component_warns_by_default_and_denies_on_demand() {
    use cafemio::pipeline::StressComponent;
    let (_, deck) = base_decks().into_iter().next().expect("non-empty corpus");
    let recover = |config: LintConfig| {
        PipelineBuilder::new()
            .config(SessionConfig::new().lint(config))
            .parse(&deck)
            .and_then(|p| p.idealize())
            .and_then(|i| i.setup(standard_setup))
            .and_then(|m| m.solve())
            .and_then(|s| s.recover())
            .expect("catalog deck analyzes under plane stress")
    };

    // Default severity is warn: the session gate lets the request
    // through. What happens next is OSPL's business — the all-zero σθ
    // field has nothing to contour, which is precisely the wasted run
    // the lint exists to flag — but it must not be a *lint* failure.
    let options = cafemio::ospl::ContourOptions::default();
    if let Err(err) = recover(LintConfig::new())
        .contour_with(StressComponent::Circumferential, &options)
    {
        assert!(
            !matches!(err.source_error(), StageError::Lint(_)),
            "warn-level O003 must not fail the stage: {err}"
        );
    }
    // A produced component never trips the gate, even at deny.
    let strict = LintConfig::new().with(LintCode::ComponentNotProduced, Severity::Deny);
    recover(strict.clone())
        .contour_with(StressComponent::Effective, &options)
        .expect("produced components pass the session gate");

    // Escalated to deny, the request fails at Stage::Contour with the
    // typed diagnostic attached.
    let err = recover(strict)
        .contour_with(StressComponent::Circumferential, &options)
        .unwrap_err();
    assert_eq!(err.stage(), Stage::Contour);
    match err.source_error() {
        StageError::Lint(lint) => {
            assert_eq!(lint.diagnostics[0].code, LintCode::ComponentNotProduced);
        }
        other => panic!("expected a lint error, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Batch wiring

#[test]
fn the_batch_engine_fails_linted_jobs_with_stage_attribution() {
    let jobs = vec![
        BatchJob::new("clean", base_decks()[0].1.clone(), standard_setup),
        BatchJob::new(
            "overlap",
            golden_deck(LintCode::OverlappingSubdivisions).to_owned(),
            standard_setup,
        ),
    ];
    let report = run_batch(
        &jobs,
        &BatchOptions::new()
            .config(SessionConfig::new().lint(LintConfig::new()))
            .error_policy(ErrorPolicy::CollectAll),
    );
    assert!(matches!(report.outcomes[0], JobOutcome::Completed { .. }));
    match &report.outcomes[1] {
        JobOutcome::Failed(err) => {
            assert_eq!(err.stage(), Stage::DeckParse);
            assert!(matches!(err.source_error(), StageError::Lint(_)), "{err}");
        }
        other => panic!("expected a lint failure, got {other:?}"),
    }
    assert_eq!(report.perf.counter("lint.denied"), Some(1));
    assert!(report.perf.counter("lint.diagnostics").unwrap_or(0) >= 1);
    assert!(report.perf.span_nanos("lint.deck") > 0);
}

#[test]
fn the_models_corpus_passes_the_batch_lint_gate() {
    let jobs = corpus();
    let report = run_batch(&jobs, &BatchOptions::new().config(SessionConfig::new().lint(LintConfig::new())));
    assert_eq!(report.completed(), jobs.len());
    assert_eq!(report.perf.counter("lint.diagnostics"), Some(0));
    assert_eq!(report.perf.counter("lint.denied"), Some(0));
}

// ---------------------------------------------------------------------
// OSPL decks ride the same engine

#[test]
fn ospl_golden_decks_use_the_ospl_entry_point() {
    for case in golden_cases() {
        if case.kind != DeckKind::Ospl {
            continue;
        }
        let report = run_case(&case).unwrap();
        assert_eq!(report.diagnostics()[0].code, case.code, "{}", case.code);
    }
}
