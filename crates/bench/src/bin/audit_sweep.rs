//! Audit-mode bug sweep: drives the mixed clean/faulted deck corpus
//! through the batch engine with the full strict audit on and demands a
//! clean ledger.
//!
//! ```sh
//! cargo run --release -p cafemio-bench --bin audit_sweep           # 216 jobs
//! cargo run --release -p cafemio-bench --bin audit_sweep -- 432 7  # more jobs, other seed
//! ```
//!
//! Every job must be *explained*:
//!
//! * clean decks complete with zero audit violations — a violation here
//!   is a real pipeline bug, never a tolerance to loosen;
//! * each faulted deck fails typed at the stage its fault targets, or is
//!   flagged by an audit check (`StageError::Audit`) — a fault that
//!   completes has escaped both the typed error paths and the audit net.
//!
//! The merged perf report (with the `audit.*` spans and check/violation
//! counters) is written to `BENCH_audit.json` for the CI artifact; any
//! unexplained job makes the process exit nonzero.

use std::error::Error;

use cafemio::audit::AuditOptions;
use cafemio::batch::{run_batch, BatchOptions, JobOutcome};
use cafemio::pipeline::StageError;
use cafemio::SessionConfig;
use cafemio_bench::jobs::faulted_corpus;

fn main() -> Result<(), Box<dyn Error>> {
    let mut args = std::env::args().skip(1);
    let min_jobs: usize = match args.next() {
        Some(text) => text.parse()?,
        None => 216,
    };
    let seed: u64 = match args.next() {
        Some(text) => text.parse()?,
        None => 20260805,
    };

    let corpus = faulted_corpus(seed, min_jobs);
    let jobs: Vec<_> = corpus.iter().map(|(_, job)| job.clone()).collect();
    println!("audit-sweep: {} jobs, seed {seed}, strict audit", jobs.len());

    let report = run_batch(
        &jobs,
        &BatchOptions::new().config(SessionConfig::new().audit(AuditOptions::strict())),
    );

    let mut clean_ok = 0usize;
    let mut typed_at_stage = 0usize;
    let mut flagged_by_audit = 0usize;
    let mut unexplained = Vec::new();
    for ((expected, job), outcome) in corpus.iter().zip(&report.outcomes) {
        match (expected, outcome) {
            (None, JobOutcome::Completed { .. }) => clean_ok += 1,
            (None, JobOutcome::Failed(err)) => {
                unexplained.push(format!("{}: clean deck failed: {err}", job.name()));
            }
            (Some(_), JobOutcome::Failed(err))
                if matches!(err.source_error(), StageError::Audit(_)) =>
            {
                flagged_by_audit += 1;
            }
            (Some(stage), JobOutcome::Failed(err)) if err.stage() == *stage => {
                typed_at_stage += 1;
            }
            (Some(stage), JobOutcome::Failed(err)) => {
                unexplained.push(format!(
                    "{}: expected {stage:?}, failed at {:?}: {err}",
                    job.name(),
                    err.stage()
                ));
            }
            (Some(stage), JobOutcome::Completed { .. }) => {
                unexplained.push(format!(
                    "{}: fault targeting {stage:?} escaped the audit net",
                    job.name()
                ));
            }
            (_, JobOutcome::Skipped) => {
                unexplained.push(format!("{}: skipped under CollectAll", job.name()));
            }
        }
    }

    std::fs::write("BENCH_audit.json", report.perf.to_json())?;
    println!(
        "audit-sweep: {clean_ok} clean ok, {typed_at_stage} typed at stage, \
         {flagged_by_audit} flagged by audit, {} unexplained",
        unexplained.len()
    );
    println!(
        "audit-sweep: {} checks, {} violations -> BENCH_audit.json",
        report.perf.counter("audit.checks").unwrap_or(0),
        report.perf.counter("audit.violations").unwrap_or(0),
    );

    if !unexplained.is_empty() {
        for line in &unexplained {
            eprintln!("audit-sweep: UNEXPLAINED: {line}");
        }
        return Err(format!("{} unexplained jobs", unexplained.len()).into());
    }
    if report.perf.counter("audit.checks").unwrap_or(0) == 0 {
        return Err("audit ran zero checks — wiring is broken".into());
    }
    Ok(())
}
