//! The batch engine's contracts, end to end over the models corpus:
//!
//! 1. **Determinism** — an N-worker run is bit-identical to the 1-worker
//!    run: same plots, same fields, same error attribution, same result
//!    order, also when every worker shares one stage cache.
//! 2. **Failure accounting** — a collect-all run over ≥50 mutated decks
//!    reports every failure with the fault's expected `Stage`, keeps
//!    every result in submission order, and never panics.
//! 3. **Fail-fast** — the first failure stops scheduling; unstarted jobs
//!    are reported as skipped, started ones still finish.
//! 4. **Session parity** — a job gives the verdict a direct session
//!    under the same `SessionConfig` gives, lint and audit included.

use std::mem::Discriminant;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use cafemio::batch::{run_batch, BatchJob, BatchOptions, BatchReport, ErrorPolicy, JobOutcome};
use cafemio::cache::StageCache;
use cafemio::idlz::deck::write_deck;
use cafemio::idlz::Capability;
use cafemio::lint::{LintCode, LintConfig, LintError, Severity};
use cafemio::pipeline::{PipelineBuilder, PipelineError, Stage, StageError, StressComponent};
use cafemio::SessionConfig;
use cafemio_bench::jobs::{corpus, faulted_corpus, near_limit_spec, standard_setup};
use cafemio_bench::mutate::base_decks;

/// A printable fingerprint of a whole batch run: every outcome's full
/// Debug rendering (f64 Debug is shortest-round-trip, so two equal
/// fingerprints mean bit-identical floats) in submission order.
fn fingerprint(report: &BatchReport) -> String {
    report
        .outcomes
        .iter()
        .enumerate()
        .map(|(i, outcome)| format!("[{i}] {outcome:?}\n"))
        .collect()
}

#[test]
fn multi_worker_runs_are_bit_identical_to_single_worker() {
    let jobs = corpus();
    assert!(jobs.len() >= 4, "models corpus too small: {}", jobs.len());
    let serial = run_batch(&jobs, &BatchOptions::new().workers(1));
    assert_eq!(serial.completed(), jobs.len(), "corpus must complete");
    let reference = fingerprint(&serial);
    for workers in [2, 4, 8] {
        let parallel = run_batch(&jobs, &BatchOptions::new().workers(workers));
        assert_eq!(serial.outcomes, parallel.outcomes, "{workers} workers");
        assert_eq!(reference, fingerprint(&parallel), "{workers} workers");
        assert_eq!(
            parallel.perf.counter("batch.completed"),
            Some(jobs.len() as u64)
        );
    }
    // One store shared by every worker: concurrent misses on a cold
    // store, then hits on the warm one, match the uncached serial run.
    for workers in [2, 4, 8] {
        let config = SessionConfig::new().cache(Arc::new(StageCache::new()));
        let options = BatchOptions::new().workers(workers).config(config);
        for phase in ["cold", "warm"] {
            let cached = run_batch(&jobs, &options);
            assert_eq!(
                reference,
                fingerprint(&cached),
                "{workers} workers, {phase} shared store"
            );
        }
    }
}

#[test]
fn collect_all_attributes_every_induced_failure_in_submission_order() {
    // ≥50 mutated decks (mixed with clean ones), every fault kind.
    let cases = faulted_corpus(0x000B_A7C4_5EED, 50);
    assert!(cases.len() >= 50, "only {} cases", cases.len());
    let jobs: Vec<_> = cases.iter().map(|(_, job)| job.clone()).collect();
    let report = catch_unwind(AssertUnwindSafe(|| {
        run_batch(
            &jobs,
            &BatchOptions::new()
                .workers(4)
                .error_policy(ErrorPolicy::CollectAll),
        )
    }))
    .expect("batch run panicked");

    assert_eq!(report.outcomes.len(), cases.len());
    assert_eq!(report.skipped(), 0, "collect-all must not skip");
    for ((expected_stage, job), outcome) in cases.iter().zip(&report.outcomes) {
        match expected_stage {
            None => assert!(
                matches!(outcome, JobOutcome::Completed { .. }),
                "{}: clean deck did not complete: {outcome:?}",
                job.name()
            ),
            Some(stage) => {
                let err = outcome
                    .error()
                    .unwrap_or_else(|| panic!("{}: faulted deck succeeded", job.name()));
                assert_eq!(err.stage(), *stage, "{}: {err}", job.name());
            }
        }
    }
    let failures = cases.iter().filter(|(stage, _)| stage.is_some()).count();
    assert_eq!(report.failed(), failures);
    assert_eq!(report.perf.counter("batch.failed"), Some(failures as u64));
}

#[test]
fn faulted_runs_are_also_deterministic_across_worker_counts() {
    let cases = faulted_corpus(7, 50);
    let jobs: Vec<_> = cases.into_iter().map(|(_, job)| job).collect();
    let options = BatchOptions::new().error_policy(ErrorPolicy::CollectAll);
    let serial = run_batch(&jobs, &options.clone().workers(1));
    let parallel = run_batch(&jobs, &options.workers(4));
    assert_eq!(serial.outcomes, parallel.outcomes);
    assert_eq!(fingerprint(&serial), fingerprint(&parallel));
}

#[test]
fn fail_fast_stops_scheduling_but_reports_the_failure() {
    let cases = faulted_corpus(3, 50);
    let jobs: Vec<_> = cases.into_iter().map(|(_, job)| job).collect();
    let report = run_batch(
        &jobs,
        &BatchOptions::new()
            .workers(1)
            .max_in_flight(1)
            .error_policy(ErrorPolicy::FailFast),
    );
    assert!(report.failed() >= 1);
    assert!(report.skipped() > 0, "nothing was skipped");
    // Everything before the first failure completed, in order.
    let first_failure = report
        .outcomes
        .iter()
        .position(|o| matches!(o, JobOutcome::Failed(_)))
        .expect("a failure");
    for outcome in &report.outcomes[..first_failure] {
        assert!(matches!(outcome, JobOutcome::Completed { .. }));
    }
}

/// The verdicts of one deck through a direct session and through
/// `run_batch`, under the same config and stress component: the plot
/// count on success, else the failing stage and the kind of its error.
/// Whole errors differ — a batch job's span context carries its
/// `batch.<stage>` frame.
fn session_and_batch(
    deck: &str,
    component: StressComponent,
    config: SessionConfig,
) -> [Result<usize, (Stage, Discriminant<StageError>)>; 2] {
    let kind = |e: &PipelineError| (e.stage(), std::mem::discriminant(e.source_error()));
    let session = PipelineBuilder::new()
        .component(component)
        .config(config.clone())
        .parse(deck)
        .and_then(|parsed| {
            parsed
                .idealize()?
                .setup(standard_setup)?
                .solve()?
                .recover()?
                .contour()
        })
        .map(|plots| plots.len())
        .map_err(|e| kind(&e));
    let job = BatchJob::new("parity", deck, standard_setup).component(component);
    let report = run_batch(&[job], &BatchOptions::new().workers(1).config(config));
    let batch = match &report.outcomes[0] {
        JobOutcome::Completed { plots, .. } => Ok(plots.len()),
        JobOutcome::Failed(error) => Err(kind(error)),
        JobOutcome::Skipped => panic!("a collect-all run skipped its only job"),
    };
    [session, batch]
}

#[test]
fn batch_lint_reads_the_capability_limits_like_a_session() {
    let deck = write_deck(&[near_limit_spec()]).unwrap().to_text();
    let deny = SessionConfig::new()
        .lint(LintConfig::new().with(LintCode::GridLimitProximity, Severity::Deny));
    let [session, batch] = session_and_batch(
        &deck,
        StressComponent::Effective,
        deny.clone().capability(Capability::LargeMesh),
    );
    assert_eq!((session, batch), (Ok(1), Ok(1)));
    let [session, batch] = session_and_batch(&deck, StressComponent::Effective, deny);
    assert!(matches!(session, Err((Stage::DeckParse, _))), "{session:?}");
    assert_eq!(batch, session);
}

#[test]
fn batch_lint_checks_the_requested_component_like_a_session() {
    // Plane stress produces no hoop stress: O003 at deny fails the
    // contour stage with a lint error on both paths.
    let config = SessionConfig::new()
        .lint(LintConfig::new().with(LintCode::ComponentNotProduced, Severity::Deny));
    let verdicts = session_and_batch(&base_decks()[0].1, StressComponent::Circumferential, config);
    let lint = std::mem::discriminant(&StageError::Lint(LintError {
        diagnostics: Vec::new(),
    }));
    assert_eq!(
        verdicts,
        [Err((Stage::Contour, lint)), Err((Stage::Contour, lint))]
    );
}
