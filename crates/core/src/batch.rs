//! The concurrent batch engine: many decks through the full staged
//! pipeline at once.
//!
//! The paper's whole point was analyst throughput — IDLZ and OSPL
//! existed so one engineer could push many cross-section decks through
//! idealization and contouring without hand-preparing data. This module
//! is that workflow at machine scale: a dependency-free
//! [`std::thread`] worker pool, the [`BatchDispatcher`], that runs every
//! [`BatchJob`] through
//! *parse → idealize → model-setup → solve → stress-recovery → contour*.
//! It is the only place pipeline work runs on more than one thread:
//! [`run_batch`] drives a whole corpus through it, and the serve layer
//! submits one request at a time. A batch run returns:
//!
//! * **deterministic results** — [`BatchReport::outcomes`] is indexed by
//!   submission order regardless of completion order, and each job's
//!   output is bit-identical whether the pool has 1 worker or N (every
//!   job is independent and every stage is deterministic);
//! * **bounded memory** — at most [`BatchOptions::max_in_flight`] jobs
//!   are accepted and unfinished at once, so a million-deck submission
//!   never materializes a million decoded artifacts at once;
//! * **structured failure** — each failed job carries its
//!   [`PipelineError`] with [`Stage`](crate::pipeline::Stage)
//!   attribution, under a [fail-fast or collect-all](ErrorPolicy)
//!   policy;
//! * **merged observability** — each job runs under its own
//!   [`cafemio_instrument::record`] scope, and the per-job reports
//!   aggregate into one [`PerfReport`] ([`PerfReport::merge`]) with a
//!   jobs/sec throughput counter.
//!
//! ```
//! use cafemio::batch::{run_batch, BatchJob, BatchOptions};
//! use cafemio::prelude::*;
//! # fn setup(mesh: &TriMesh) -> Result<FemModel, FemError> {
//! #     let mut model = FemModel::new(
//! #         mesh.clone(),
//! #         AnalysisKind::PlaneStress { thickness: 1.0 },
//! #         Material::isotropic(1.0e7, 0.3),
//! #     );
//! #     let mut corner = None;
//! #     for (id, node) in mesh.nodes() {
//! #         if node.position.x.abs() < 1e-9 {
//! #             model.fix_x(id);
//! #             if node.position.y.abs() < 1e-9 { corner = Some(id); }
//! #         } else {
//! #             model.add_force(id, 10.0, 0.0);
//! #         }
//! #     }
//! #     model.fix_y(corner.expect("corner"));
//! #     Ok(model)
//! # }
//! # const DECK: &str = concat!(
//! #     "    1\n", "SIMPLE PLATE\n", "    1    1    1    1\n",
//! #     "    1    0    0    4    2         0    0\n", "    1    2\n",
//! #     "    0    0    4    0  0.0000  0.0000  2.0000  0.0000  0.0000\n",
//! #     "    0    2    4    2  0.0000  0.5000  2.0000  0.5000  0.0000\n",
//! #     "(2F9.5, 51X, I3, 5X, I3)\n", "(3I5, 62X, I3)\n",
//! # );
//! let jobs: Vec<BatchJob> = (0..4)
//!     .map(|i| BatchJob::new(format!("plate-{i}"), DECK, setup))
//!     .collect();
//! let report = run_batch(&jobs, &BatchOptions::new().workers(2));
//! assert_eq!(report.outcomes.len(), 4);
//! assert_eq!(report.completed(), 4);
//! assert_eq!(report.perf.counter("batch.jobs"), Some(4));
//! ```

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cafemio_fem::{CgOptions, FemError, FemModel, SolverBackend};
use cafemio_idlz::Capability;
use cafemio_instrument::{add, record, span, PerfReport, SpanRecord};
use cafemio_mesh::TriMesh;
use cafemio_ospl::ContourOptions;

use crate::audit::AuditOptions;
use crate::config::SessionConfig;
use crate::lint::{LintConfig, LintReport};
use crate::pipeline::{PipelineBuilder, PipelineError, StageError, StressComponent, StressPlot};

/// The model-setup callback a job carries: boundary conditions and loads
/// for one idealized mesh. Shared (`Arc`) so a corpus of jobs can reuse
/// one closure.
pub type SetupFn = Arc<dyn Fn(&TriMesh) -> Result<FemModel, FemError> + Send + Sync>;

/// One unit of batch work: a named deck plus everything needed to carry
/// it through the full pipeline.
#[derive(Clone)]
pub struct BatchJob {
    name: String,
    deck: String,
    setup: SetupFn,
    component: StressComponent,
    options: ContourOptions,
}

impl std::fmt::Debug for BatchJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchJob")
            .field("name", &self.name)
            .field("component", &self.component)
            .finish_non_exhaustive()
    }
}

impl BatchJob {
    /// A job with the documented defaults: effective stress, automatic
    /// contour interval.
    pub fn new(
        name: impl Into<String>,
        deck: impl Into<String>,
        setup: impl Fn(&TriMesh) -> Result<FemModel, FemError> + Send + Sync + 'static,
    ) -> BatchJob {
        BatchJob {
            name: name.into(),
            deck: deck.into(),
            setup: Arc::new(setup),
            component: StressComponent::Effective,
            options: ContourOptions::new(),
        }
    }

    /// Same, but sharing an already-wrapped setup callback.
    pub fn with_setup_fn(
        name: impl Into<String>,
        deck: impl Into<String>,
        setup: SetupFn,
    ) -> BatchJob {
        BatchJob {
            name: name.into(),
            deck: deck.into(),
            setup,
            component: StressComponent::Effective,
            options: ContourOptions::new(),
        }
    }

    /// Sets the stress component this job contours (default:
    /// [`StressComponent::Effective`]).
    pub fn component(mut self, component: StressComponent) -> BatchJob {
        self.component = component;
        self
    }

    /// Sets this job's contour options (default: automatic interval).
    pub fn contour_options(mut self, options: ContourOptions) -> BatchJob {
        self.options = options;
        self
    }

    /// The job's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The deck text the job will parse.
    pub fn deck(&self) -> &str {
        &self.deck
    }
}

/// What to do with jobs that have not started when another job fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorPolicy {
    /// Run every job to completion and report every failure — the
    /// overnight-batch behavior (default).
    #[default]
    CollectAll,
    /// Stop scheduling new jobs after the first failure; jobs that never
    /// started report [`JobOutcome::Skipped`]. Jobs already in flight
    /// run to completion.
    FailFast,
}

/// Engine knobs, builder-style with documented defaults so adding fields
/// is non-breaking. The scheduling knobs (`workers`, `max_in_flight`,
/// `error_policy`) live here; every cross-cutting session option (audit,
/// lint, capability, solver, CG tuning, stage cache) lives in the shared
/// [`SessionConfig`] set with [`BatchOptions::config`].
#[derive(Debug, Clone)]
pub struct BatchOptions {
    workers: usize,
    max_in_flight: usize,
    policy: ErrorPolicy,
    pub(crate) config: SessionConfig,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        BatchOptions {
            workers,
            max_in_flight: 2 * workers,
            policy: ErrorPolicy::CollectAll,
            config: SessionConfig::new(),
        }
    }
}

impl BatchOptions {
    /// Defaults: one worker per available core, `max_in_flight` twice
    /// the worker count, [`ErrorPolicy::CollectAll`].
    pub fn new() -> BatchOptions {
        BatchOptions::default()
    }

    /// Sets the worker-thread count (clamped to at least 1). One worker
    /// gives the serial reference ordering the determinism tests compare
    /// against.
    pub fn workers(mut self, workers: usize) -> BatchOptions {
        self.workers = workers.max(1);
        self.max_in_flight = self.max_in_flight.max(self.workers);
        self
    }

    /// Bounds the jobs accepted and not yet finished (queued plus
    /// executing). [`BatchDispatcher::submit`] refuses past it, and
    /// [`run_batch`] then blocks until a worker frees a slot —
    /// backpressure instead of unbounded buffering. Clamped to at least
    /// the worker count.
    pub fn max_in_flight(mut self, max_in_flight: usize) -> BatchOptions {
        self.max_in_flight = max_in_flight.max(1).max(self.workers);
        self
    }

    /// Sets the error policy (default: [`ErrorPolicy::CollectAll`]).
    pub fn error_policy(mut self, policy: ErrorPolicy) -> BatchOptions {
        self.policy = policy;
        self
    }

    /// The configured worker count.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// The configured in-flight bound.
    pub fn in_flight_bound(&self) -> usize {
        self.max_in_flight
    }

    /// The configured error policy.
    pub fn policy(&self) -> ErrorPolicy {
        self.policy
    }

    /// Sets the shared [`SessionConfig`] every job's session runs under:
    /// audit, lint, capability, solver backend, CG tuning, and the stage
    /// cache, in one value reusable across [`run_batch`],
    /// [`PipelineBuilder::config`](crate::pipeline::PipelineBuilder::config),
    /// and the serve layer.
    ///
    /// Each job runs exactly the session a [`PipelineBuilder`] with this
    /// config would run, lint and audit included, so a batch job and a
    /// direct session give the same answer. Lint and audit time is
    /// counted inside the `batch.<stage>` span of the stage that runs
    /// them.
    pub fn config(mut self, config: SessionConfig) -> BatchOptions {
        self.config = config;
        self
    }

    /// The shared session configuration.
    pub fn session_config(&self) -> &SessionConfig {
        &self.config
    }

    /// The configured audit options, if audit mode is on.
    pub fn audit_options(&self) -> Option<&AuditOptions> {
        self.config.audit_options()
    }

    /// The configured lint severities, if lint mode is on.
    pub fn lint_options(&self) -> Option<&LintConfig> {
        self.config.lint_options()
    }

    /// The configured capability mode.
    pub fn capability_mode(&self) -> Capability {
        self.config.capability_mode()
    }

    /// The configured solver backend.
    pub fn solver_backend(&self) -> SolverBackend {
        self.config.solver_backend()
    }

    /// The configured conjugate-gradient options.
    pub fn cg_solver_options(&self) -> CgOptions {
        self.config.cg_solver_options()
    }
}

/// The result of one job, in submission order inside
/// [`BatchReport::outcomes`].
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The job ran end to end.
    Completed {
        /// One [`StressPlot`] per data set.
        plots: Vec<StressPlot>,
        /// The session's lint report, when its [`SessionConfig`] lints:
        /// warn-severity diagnostics that did not stop the job.
        lint: Option<LintReport>,
    },
    /// The job failed; the error carries its stage attribution.
    Failed(PipelineError),
    /// Under [`ErrorPolicy::FailFast`], the job never started because an
    /// earlier job failed.
    Skipped,
}

impl JobOutcome {
    /// The job's plots, if it completed.
    pub fn plots(&self) -> Option<&[StressPlot]> {
        match self {
            JobOutcome::Completed { plots, .. } => Some(plots),
            _ => None,
        }
    }

    /// The job's error, if it failed.
    pub fn error(&self) -> Option<&PipelineError> {
        match self {
            JobOutcome::Failed(err) => Some(err),
            _ => None,
        }
    }
}

/// Everything a batch run produced.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One outcome per submitted job, **in submission order** regardless
    /// of which worker finished when.
    pub outcomes: Vec<JobOutcome>,
    /// Per-stage wall-clock totals aggregated across every job (span
    /// names `batch.parse` … `batch.contour` under `batch.total`, with
    /// everything each job's session recorded nested beneath them), plus
    /// job/throughput counters.
    pub perf: PerfReport,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

impl BatchReport {
    /// Number of jobs that completed.
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, JobOutcome::Completed { .. }))
            .count()
    }

    /// Number of jobs that failed.
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, JobOutcome::Failed(_)))
            .count()
    }

    /// Number of jobs skipped by fail-fast.
    pub fn skipped(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, JobOutcome::Skipped))
            .count()
    }

    /// Jobs (completed or failed) per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        let done = (self.completed() + self.failed()) as f64;
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            done / secs
        } else {
            0.0
        }
    }
}

/// The per-stage span names a batch report aggregates, in pipeline
/// order. Seeding the merged report with these keeps the JSON layout
/// stable no matter which worker finished first.
pub const STAGE_SPANS: [&str; 6] = [
    "batch.parse",
    "batch.idealize",
    "batch.model_setup",
    "batch.solve",
    "batch.stress_recovery",
    "batch.contour",
];

/// Runs one job as the plain staged session its [`SessionConfig`]
/// describes — lint, audit and cache included — with each stage
/// transition under its `batch.<stage>` span. Returns the plots and the
/// parse stage's lint report.
fn execute(
    job: &BatchJob,
    config: &SessionConfig,
) -> Result<(Vec<StressPlot>, Option<LintReport>), PipelineError> {
    let builder = PipelineBuilder::new()
        .component(job.component)
        .contour_options(job.options.clone())
        .config(config.clone());
    let parsed = {
        let _span = span("batch.parse");
        builder.parse(&job.deck)?
    };
    let lint = parsed.lint_report().cloned();
    let idealized = {
        let _span = span("batch.idealize");
        parsed.idealize()?
    };
    let ready = {
        let _span = span("batch.model_setup");
        idealized.setup(&*job.setup)?
    };
    let solved = {
        let _span = span("batch.solve");
        ready.solve()?
    };
    let recovered = {
        let _span = span("batch.stress_recovery");
        solved.recover()?
    };
    let _span = span("batch.contour");
    Ok((recovered.contour()?, lint))
}

/// The zero-valued layout a drained report starts from, so its shape
/// does not depend on which jobs ran or which worker finished first.
/// Each seed sits at the depth a job records that span at — the
/// `batch.<stage>` spans at the top, the session's `audit.*` and
/// `lint.deck` spans under `pipeline.<stage>` — so merging folds seed and
/// span into one record. [`BatchDispatcher::drain`] then moves the whole
/// layout one level down.
fn seeded_report(config: &SessionConfig) -> PerfReport {
    let mut spans: Vec<(&str, u32)> = STAGE_SPANS.iter().map(|&name| (name, 0)).collect();
    let mut counters = vec!["batch.completed", "batch.failed"];
    if config.audit.is_some() {
        for name in ["audit.idealize", "audit.solve", "audit.contour"] {
            spans.push((name, 2));
        }
        counters.extend(["audit.checks", "audit.violations"]);
    }
    if config.lint.is_some() {
        spans.push(("lint.deck", 2));
        counters.extend(["lint.diagnostics", "lint.denied"]);
    }
    let mut perf = PerfReport::default();
    for (name, depth) in spans {
        perf.spans.push(SpanRecord {
            name: name.to_owned(),
            depth,
            nanos: 0,
        });
    }
    for name in counters {
        perf.set_counter(name, 0);
    }
    perf
}

/// Runs every job through the full pipeline on a [`BatchDispatcher`] and
/// returns the outcomes in submission order, with a merged per-stage
/// [`PerfReport`].
///
/// Jobs are submitted in order. When the dispatcher is saturated
/// ([`BatchOptions::max_in_flight`] jobs accepted and unfinished), the
/// submitter blocks until a worker frees a slot — that is the
/// backpressure. Under [`ErrorPolicy::FailFast`] the worker whose job
/// fails first closes admission and resolves every queued, unstarted job
/// [`JobOutcome::Skipped`]; jobs already running finish. A panic in a
/// job's setup closure lets every other job finish, then resumes in the
/// caller.
///
/// Multi-worker runs are bit-identical to single-worker runs: jobs are
/// independent, every stage is deterministic, and outcomes are collected
/// in submission order. Under fail-fast the set of *skipped* jobs depends
/// on timing, but every non-skipped outcome is still deterministic.
pub fn run_batch(jobs: &[BatchJob], options: &BatchOptions) -> BatchReport {
    let start = Instant::now();
    let workers = options.workers.min(jobs.len()).max(1);
    let fail_fast = options.policy == ErrorPolicy::FailFast;
    let dispatcher = BatchDispatcher::spawn(options.clone().workers(workers), fail_fast);
    // Only a fail-fast trip closes admission while this run owns the
    // dispatcher; the jobs after it are never submitted.
    let tickets: Vec<JobTicket> = jobs
        .iter()
        .map_while(|job| dispatcher.shared.admit(job.clone(), true).ok())
        .collect();
    let mut panic = None;
    let mut outcomes: Vec<JobOutcome> = tickets
        .into_iter()
        .map(|ticket| {
            ticket.resolve().unwrap_or_else(|payload| {
                panic.get_or_insert(payload);
                JobOutcome::Skipped
            })
        })
        .collect();
    outcomes.resize(jobs.len(), JobOutcome::Skipped);

    let mut perf = dispatcher.drain();
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    let elapsed = start.elapsed();
    perf.spans.insert(
        0,
        SpanRecord {
            name: "batch.total".to_owned(),
            depth: 0,
            nanos: elapsed.as_nanos().min(u64::MAX as u128) as u64,
        },
    );
    // `drain` counts the jobs it accepted; the run counts every job.
    perf.set_counter("batch.jobs", jobs.len() as u64);
    let mut report = BatchReport {
        outcomes,
        perf,
        elapsed,
    };
    let jobs_per_sec_milli = (report.jobs_per_sec() * 1000.0).round();
    let jobs_per_sec_milli = if jobs_per_sec_milli.is_finite() && jobs_per_sec_milli >= 0.0 {
        jobs_per_sec_milli as u64
    } else {
        0
    };
    let skipped = report.skipped() as u64;
    let perf = &mut report.perf;
    perf.set_counter("batch.skipped", skipped);
    // Millijobs per second: an integer counter with enough resolution for
    // slow corpora (1 job / 20 min ≈ 0.8 mJ/s).
    perf.set_counter("batch.jobs_per_sec_milli", jobs_per_sec_milli);
    report
}

/// Why [`BatchDispatcher::submit`] (or [`BatchClient::submit`]) refused
/// a job. Admission is refused **without blocking** — the front end
/// decides what to tell the caller (a service maps these to `503`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The dispatcher already holds `max_in_flight` accepted jobs that
    /// have not finished; try again once some complete.
    Saturated {
        /// Jobs accepted and not yet finished at refusal time.
        in_flight: usize,
        /// The configured [`BatchOptions::max_in_flight`] bound.
        capacity: usize,
    },
    /// The dispatcher is draining ([`BatchDispatcher::drain`] was
    /// called): in-flight jobs finish, but nothing new is accepted.
    Draining,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Saturated {
                in_flight,
                capacity,
            } => write!(
                f,
                "dispatcher saturated: {in_flight} of {capacity} job slots in flight"
            ),
            AdmissionError::Draining => f.write_str("dispatcher is draining"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// One accepted job's pending result. Every accepted job produces
/// exactly one outcome; [`wait`](JobTicket::wait) blocks until the
/// worker publishes it.
#[derive(Debug)]
pub struct JobTicket {
    shared: Arc<TicketShared>,
}

#[derive(Debug)]
struct TicketShared {
    /// `Err` carries the payload of a panic inside the job.
    slot: Mutex<Option<std::thread::Result<JobOutcome>>>,
    done: Condvar,
}

impl JobTicket {
    /// Blocks until the job finishes and returns its outcome. Consumes
    /// the ticket: one accepted job, one response. A panic in the job's
    /// setup closure resumes here.
    pub fn wait(self) -> JobOutcome {
        self.resolve()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }

    /// Blocks until the job finishes, handing back a panic's payload
    /// instead of resuming it.
    fn resolve(self) -> std::thread::Result<JobOutcome> {
        let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self
                .shared
                .done
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct DispatcherState {
    queue: VecDeque<(BatchJob, Arc<TicketShared>)>,
    /// Jobs accepted and not yet finished (queued + executing).
    in_flight: usize,
    /// Total jobs ever accepted.
    accepted: u64,
    closed: bool,
}

struct DispatcherShared {
    state: Mutex<DispatcherState>,
    /// Wakes workers: a job was queued or admission closed.
    ready: Condvar,
    /// Wakes a blocked [`run_batch`] submitter: a slot was freed or
    /// admission closed.
    freed: Condvar,
    options: BatchOptions,
    /// Set only by [`run_batch`] under [`ErrorPolicy::FailFast`]: a
    /// failed job's worker trips [`abort`](DispatcherShared::abort).
    fail_fast: bool,
}

impl DispatcherShared {
    /// Accepts the job if a slot is free. Refuses with
    /// [`AdmissionError::Saturated`] otherwise — or, with `block`, waits
    /// for a worker to free one.
    fn admit(&self, job: BatchJob, block: bool) -> Result<JobTicket, AdmissionError> {
        let capacity = self.options.max_in_flight;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.closed {
                return Err(AdmissionError::Draining);
            }
            if state.in_flight < capacity {
                break;
            }
            if !block {
                return Err(AdmissionError::Saturated {
                    in_flight: state.in_flight,
                    capacity,
                });
            }
            state = self.freed.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.in_flight += 1;
        state.accepted += 1;
        let ticket = Arc::new(TicketShared {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        state.queue.push_back((job, Arc::clone(&ticket)));
        self.ready.notify_one();
        Ok(JobTicket { shared: ticket })
    }

    /// Frees one finished job's admission slot.
    fn release(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.in_flight -= 1;
        self.freed.notify_all();
    }

    /// Closes admission and resolves every queued, unstarted job as
    /// [`JobOutcome::Skipped`] without running it, freeing its slot;
    /// jobs already executing finish normally. This is [`run_batch`]'s
    /// fail-fast trip. Serve never trips it: one caller's failure must
    /// not cancel another's job.
    fn abort(&self) {
        let skipped: Vec<_> = {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            state.closed = true;
            let skipped: Vec<_> = state.queue.drain(..).collect();
            state.in_flight -= skipped.len();
            self.freed.notify_all();
            skipped
        };
        for (_, ticket) in skipped {
            publish(&ticket, Ok(JobOutcome::Skipped));
        }
    }
}

/// A cloneable submission handle onto a running [`BatchDispatcher`] —
/// what a connection handler holds. Submission and introspection only;
/// draining stays with the owning dispatcher.
#[derive(Clone)]
pub struct BatchClient {
    shared: Arc<DispatcherShared>,
}

impl std::fmt::Debug for BatchClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchClient")
            .field("in_flight", &self.in_flight())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl BatchClient {
    /// Non-blocking admission: accepts the job and returns its ticket,
    /// or refuses with a typed [`AdmissionError`] when the dispatcher is
    /// saturated or draining. Never queues beyond
    /// [`BatchOptions::max_in_flight`].
    pub fn submit(&self, job: BatchJob) -> Result<JobTicket, AdmissionError> {
        self.shared.admit(job, false)
    }

    /// Jobs accepted and not yet finished (queued + executing).
    pub fn in_flight(&self) -> usize {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .in_flight
    }

    /// The admission bound ([`BatchOptions::max_in_flight`]).
    pub fn capacity(&self) -> usize {
        self.shared.options.max_in_flight
    }

    /// Total jobs ever accepted.
    pub fn accepted(&self) -> u64 {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .accepted
    }

    /// Whether [`BatchDispatcher::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .closed
    }
}

/// The batch worker pool: accepts jobs one at a time for as long as it
/// lives. A long-running service submits each request to it, and
/// [`run_batch`] drives a whole corpus through one.
///
/// * **admission control is non-blocking** — [`submit`](Self::submit)
///   refuses with [`AdmissionError::Saturated`] instead of blocking, so
///   a front end can answer "try later" immediately ([`run_batch`]
///   instead blocks until a slot frees);
/// * **results are per-job** — each accepted job yields a [`JobTicket`]
///   resolving to exactly one [`JobOutcome`];
/// * **the error policy is ignored** — jobs are independent requests,
///   so [`ErrorPolicy::FailFast`] would make one caller's bad deck
///   cancel another caller's good one. Every submitted job runs;
///   only [`run_batch`] skips queued jobs after a failure.
///
/// [`drain`](Self::drain) is the graceful shutdown: admission closes,
/// every already-accepted job still runs to completion and resolves its
/// ticket, the workers exit, and the merged [`PerfReport`] of every job
/// they ran (the `batch.*` spans with each job's session telemetry
/// beneath them) is returned.
///
/// ```
/// use cafemio::batch::{BatchDispatcher, BatchJob, BatchOptions};
/// # use cafemio::prelude::*;
/// # fn setup(mesh: &TriMesh) -> Result<FemModel, FemError> {
/// #     let mut model = FemModel::new(
/// #         mesh.clone(),
/// #         AnalysisKind::PlaneStress { thickness: 1.0 },
/// #         Material::isotropic(1.0e7, 0.3),
/// #     );
/// #     let mut corner = None;
/// #     for (id, node) in mesh.nodes() {
/// #         if node.position.x.abs() < 1e-9 {
/// #             model.fix_x(id);
/// #             if node.position.y.abs() < 1e-9 { corner = Some(id); }
/// #         } else {
/// #             model.add_force(id, 10.0, 0.0);
/// #         }
/// #     }
/// #     model.fix_y(corner.expect("corner"));
/// #     Ok(model)
/// # }
/// # const DECK: &str = concat!(
/// #     "    1\n", "SIMPLE PLATE\n", "    1    1    1    1\n",
/// #     "    1    0    0    4    2         0    0\n", "    1    2\n",
/// #     "    0    0    4    0  0.0000  0.0000  2.0000  0.0000  0.0000\n",
/// #     "    0    2    4    2  0.0000  0.5000  2.0000  0.5000  0.0000\n",
/// #     "(2F9.5, 51X, I3, 5X, I3)\n", "(3I5, 62X, I3)\n",
/// # );
/// let dispatcher = BatchDispatcher::start(BatchOptions::new().workers(2));
/// let ticket = dispatcher.submit(BatchJob::new("plate", DECK, setup)).unwrap();
/// assert!(ticket.wait().plots().is_some());
/// let report = dispatcher.drain();
/// assert_eq!(report.counter("batch.jobs"), Some(1));
/// ```
pub struct BatchDispatcher {
    shared: Arc<DispatcherShared>,
    workers: Vec<std::thread::JoinHandle<PerfReport>>,
}

impl std::fmt::Debug for BatchDispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchDispatcher")
            .field("workers", &self.workers.len())
            .field("client", &self.client())
            .finish()
    }
}

impl BatchDispatcher {
    /// Spawns the worker pool and starts accepting jobs. The
    /// [`ErrorPolicy`] in `options` is ignored (see the type docs); every
    /// other knob — worker count, `max_in_flight`, and the
    /// [`SessionConfig`] — applies to every job.
    pub fn start(options: BatchOptions) -> BatchDispatcher {
        BatchDispatcher::spawn(options, false)
    }

    fn spawn(options: BatchOptions, fail_fast: bool) -> BatchDispatcher {
        let shared = Arc::new(DispatcherShared {
            state: Mutex::new(DispatcherState {
                queue: VecDeque::new(),
                in_flight: 0,
                accepted: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            freed: Condvar::new(),
            options,
            fail_fast,
        });
        let workers = (0..shared.options.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        BatchDispatcher { shared, workers }
    }

    /// A cloneable submission handle (see [`BatchClient`]).
    pub fn client(&self) -> BatchClient {
        BatchClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Non-blocking admission — see [`BatchClient::submit`].
    pub fn submit(&self, job: BatchJob) -> Result<JobTicket, AdmissionError> {
        self.client().submit(job)
    }

    /// Jobs accepted and not yet finished.
    pub fn in_flight(&self) -> usize {
        self.client().in_flight()
    }

    /// Graceful shutdown: closes admission (subsequent submissions get
    /// [`AdmissionError::Draining`]), lets every accepted job run to
    /// completion and resolve its ticket, joins the workers, and returns
    /// the merged [`PerfReport`] of every job they ran: the stage spans
    /// (each at depth 1, over what the job's session recorded),
    /// `batch.completed`, `batch.failed`, `batch.jobs` (accepted jobs),
    /// `batch.workers` and the `cache.*` snapshot. [`run_batch`] adds the
    /// run-level `batch.total` span at depth 0 and the `batch.skipped` /
    /// `batch.jobs_per_sec_milli` counters on top.
    pub fn drain(self) -> PerfReport {
        {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            state.closed = true;
            self.shared.ready.notify_all();
        }
        let config = &self.shared.options.config;
        let mut perf = seeded_report(config);
        for worker in self.workers {
            // invariant: a worker hands a job's panic to its ticket, so
            // the thread itself never dies mid-job.
            let report = worker.join().expect("batch worker never panics");
            perf.merge(&report);
        }
        // Depth 0 is left to the run-level `batch.total`.
        for span in &mut perf.spans {
            span.depth = span.depth.saturating_add(1);
        }
        let accepted = self
            .shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .accepted;
        perf.set_counter("batch.jobs", accepted);
        perf.set_counter("batch.workers", self.shared.options.workers.max(1) as u64);
        if let Some(store) = config.cache_store() {
            store.stats().publish(&mut perf);
        }
        perf
    }
}

/// One dispatcher worker: claim, execute, publish, repeat — exits only
/// when the dispatcher is draining **and** the queue is empty, so every
/// accepted job resolves its ticket exactly once.
fn worker_loop(shared: &DispatcherShared) -> PerfReport {
    let mut perf = PerfReport::default();
    loop {
        let (job, ticket) = {
            let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(entry) = state.queue.pop_front() {
                    break entry;
                }
                if state.closed {
                    return perf;
                }
                state = shared
                    .ready
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        // The job owns its telemetry: everything it records, down to its
        // outcome tally, folds into this worker's aggregate. A panicking
        // setup closure must not strand the job's waiter: its payload
        // travels to the ticket and resumes there.
        let (outcome, report) = record(|| {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                execute(&job, &shared.options.config)
            }));
            match &outcome {
                Ok(Ok(_)) => add("batch.completed", 1),
                Ok(Err(err)) => {
                    if matches!(err.source_error(), StageError::Audit(_)) {
                        add("audit.violations", 1);
                    }
                    add("batch.failed", 1);
                }
                // Keeps `batch.jobs == batch.completed + batch.failed`.
                Err(_) => add("batch.failed", 1),
            }
            outcome.map(|result| match result {
                Ok((plots, lint)) => JobOutcome::Completed { plots, lint },
                Err(err) => JobOutcome::Failed(err),
            })
        });
        perf.merge(&report);
        if shared.fail_fast && !matches!(outcome, Ok(JobOutcome::Completed { .. })) {
            shared.abort();
        }
        // Free the admission slot before publishing, so a caller woken
        // by its ticket never observes its own finished job still
        // counted in flight.
        shared.release();
        publish(&ticket, outcome);
    }
}

/// Resolves one ticket and wakes its waiter.
fn publish(ticket: &TicketShared, outcome: std::thread::Result<JobOutcome>) {
    let mut slot = ticket.slot.lock().unwrap_or_else(|e| e.into_inner());
    *slot = Some(outcome);
    ticket.done.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafemio_fem::{AnalysisKind, Material};

    const PLATE_DECK: &str = concat!(
        "    1\n",
        "SIMPLE PLATE\n",
        "    1    1    1    1\n",
        "    1    0    0    4    2         0    0\n",
        "    1    2\n",
        "    0    0    4    0  0.0000  0.0000  2.0000  0.0000  0.0000\n",
        "    0    2    4    2  0.0000  0.5000  2.0000  0.5000  0.0000\n",
        "(2F9.5, 51X, I3, 5X, I3)\n",
        "(3I5, 62X, I3)\n",
    );

    fn cantilever(mesh: &TriMesh) -> Result<FemModel, FemError> {
        let mut model = FemModel::new(
            mesh.clone(),
            AnalysisKind::PlaneStress { thickness: 1.0 },
            Material::isotropic(1.0e7, 0.3),
        );
        let mut corner = None;
        for (id, node) in mesh.nodes() {
            if node.position.x.abs() < 1e-9 {
                model.fix_x(id);
                if node.position.y.abs() < 1e-9 {
                    corner = Some(id);
                }
            } else {
                model.add_force(id, 10.0, 0.0);
            }
        }
        model.fix_y(corner.expect("corner node"));
        Ok(model)
    }

    fn unconstrained(mesh: &TriMesh) -> Result<FemModel, FemError> {
        Ok(FemModel::new(
            mesh.clone(),
            AnalysisKind::PlaneStress { thickness: 1.0 },
            Material::isotropic(1.0e7, 0.3),
        ))
    }

    fn plate_jobs(n: usize) -> Vec<BatchJob> {
        (0..n)
            .map(|i| BatchJob::new(format!("plate-{i}"), PLATE_DECK, cantilever))
            .collect()
    }

    #[test]
    fn outcomes_in_submission_order_with_per_stage_perf() {
        let jobs = plate_jobs(6);
        let report = run_batch(&jobs, &BatchOptions::new().workers(3).max_in_flight(2));
        assert_eq!(report.outcomes.len(), 6);
        assert_eq!(report.completed(), 6);
        for outcome in &report.outcomes {
            let plots = outcome.plots().expect("job completed");
            assert_eq!(plots.len(), 1);
            assert!(plots[0].contours.drawn_contours() > 0);
        }
        for name in STAGE_SPANS {
            assert!(report.perf.span_nanos(name) > 0, "{name} never timed");
        }
        assert_eq!(report.perf.counter("batch.jobs"), Some(6));
        assert_eq!(report.perf.counter("batch.completed"), Some(6));
        assert_eq!(report.perf.counter("batch.workers"), Some(3));
        assert!(report.jobs_per_sec() > 0.0);
    }

    #[test]
    fn multi_worker_is_bit_identical_to_single_worker() {
        let mut jobs = plate_jobs(5);
        // One deliberately failing job keeps error paths in the
        // comparison too.
        jobs.insert(2, BatchJob::new("singular", PLATE_DECK, unconstrained));
        let serial = run_batch(&jobs, &BatchOptions::new().workers(1));
        let parallel = run_batch(&jobs, &BatchOptions::new().workers(4));
        assert_eq!(serial.outcomes, parallel.outcomes);
    }

    #[test]
    fn collect_all_reports_every_failure() {
        let mut jobs = plate_jobs(3);
        jobs.insert(1, BatchJob::new("bad-deck", "    1\nTRUNCATED\n", cantilever));
        jobs.push(BatchJob::new("singular", PLATE_DECK, unconstrained));
        let report = run_batch(
            &jobs,
            &BatchOptions::new().workers(2).error_policy(ErrorPolicy::CollectAll),
        );
        assert_eq!(report.completed(), 3);
        assert_eq!(report.failed(), 2);
        assert_eq!(report.skipped(), 0);
        use crate::pipeline::Stage;
        assert_eq!(report.outcomes[1].error().unwrap().stage(), Stage::DeckParse);
        let singular = report.outcomes[4].error().unwrap();
        assert_eq!(singular.stage(), Stage::Solve);
        assert_eq!(singular.span_context()[0], "batch.solve");
    }

    #[test]
    fn fail_fast_skips_unstarted_jobs() {
        let mut jobs = vec![BatchJob::new("bad-deck", "    1\nTRUNCATED\n", cantilever)];
        jobs.extend(plate_jobs(40));
        // One worker and a tight queue: the failure lands before most
        // jobs are claimed.
        let report = run_batch(
            &jobs,
            &BatchOptions::new()
                .workers(1)
                .max_in_flight(1)
                .error_policy(ErrorPolicy::FailFast),
        );
        assert_eq!(report.failed(), 1);
        assert!(report.skipped() > 0, "fail-fast never skipped anything");
        assert!(matches!(report.outcomes[0], JobOutcome::Failed(_)));
        assert_eq!(
            report.perf.counter("batch.skipped"),
            Some(report.skipped() as u64)
        );
    }

    #[test]
    fn fail_fast_balances_the_job_counters() {
        for workers in [1, 2, 8] {
            let mut jobs = plate_jobs(4);
            jobs.insert(1, BatchJob::new("bad-deck", "    1\nTRUNCATED\n", cantilever));
            let report = run_batch(
                &jobs,
                &BatchOptions::new()
                    .workers(workers)
                    .error_policy(ErrorPolicy::FailFast),
            );
            let counter = |name: &str| report.perf.counter(name).expect(name);
            assert_eq!(counter("batch.jobs"), jobs.len() as u64, "{workers} workers");
            assert_eq!(
                counter("batch.completed") + counter("batch.failed") + counter("batch.skipped"),
                jobs.len() as u64,
                "{workers} workers"
            );
            assert_eq!(counter("batch.completed"), report.completed() as u64);
            assert_eq!(counter("batch.failed"), report.failed() as u64);
            assert_eq!(counter("batch.skipped"), report.skipped() as u64);
            assert_eq!(counter("batch.workers"), workers.min(jobs.len()) as u64);
            assert!(matches!(report.outcomes[0], JobOutcome::Completed { .. }));
            assert!(matches!(report.outcomes[1], JobOutcome::Failed(_)));
        }
    }

    #[test]
    fn fail_fast_skips_every_job_queued_behind_a_failure() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // The slow job holds one worker until the failing job has reached
        // setup on the other, so no later job is running when it fails.
        let (reached, on_reach) = std::sync::mpsc::channel::<()>();
        let (reached, on_reach) = (Mutex::new(reached), Mutex::new(on_reach));
        let slow = BatchJob::new("slow", PLATE_DECK, move |mesh| {
            let _ = on_reach.lock().unwrap_or_else(|e| e.into_inner()).recv();
            std::thread::sleep(Duration::from_millis(100));
            cantilever(mesh)
        });
        let failing = BatchJob::new("singular", PLATE_DECK, move |mesh| {
            let _ = reached.lock().unwrap_or_else(|e| e.into_inner()).send(());
            unconstrained(mesh)
        });
        let setups = Arc::new(AtomicUsize::new(0));
        let mut jobs = vec![slow, failing];
        for i in 0..10 {
            let setups = Arc::clone(&setups);
            jobs.push(BatchJob::new(format!("later-{i}"), PLATE_DECK, move |mesh| {
                setups.fetch_add(1, Ordering::SeqCst);
                cantilever(mesh)
            }));
        }
        let report = run_batch(
            &jobs,
            &BatchOptions::new()
                .workers(2)
                .error_policy(ErrorPolicy::FailFast),
        );
        assert!(matches!(report.outcomes[0], JobOutcome::Completed { .. }));
        assert!(matches!(report.outcomes[1], JobOutcome::Failed(_)));
        assert!(report.outcomes[2..].iter().all(|o| *o == JobOutcome::Skipped));
        assert_eq!(setups.load(Ordering::SeqCst), 0);
        assert_eq!(report.perf.counter("batch.skipped"), Some(10));
    }

    #[test]
    fn a_setup_panic_resumes_in_run_batch_after_the_other_jobs_finish() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = Arc::new(AtomicUsize::new(0));
        let mut jobs: Vec<BatchJob> = (0..4)
            .map(|i| {
                let ran = Arc::clone(&ran);
                BatchJob::new(format!("plate-{i}"), PLATE_DECK, move |mesh| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    cantilever(mesh)
                })
            })
            .collect();
        jobs.insert(
            1,
            BatchJob::new("panics", PLATE_DECK, |_: &TriMesh| -> Result<FemModel, FemError> {
                panic!("setup bug")
            }),
        );
        for workers in [1, 2] {
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_batch(&jobs, &BatchOptions::new().workers(workers))
            }))
            .expect_err("the setup panic resumes in the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"setup bug"));
        }
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let report = run_batch(&[], &BatchOptions::new());
        assert!(report.outcomes.is_empty());
        assert_eq!(report.completed(), 0);
        assert_eq!(report.perf.counter("batch.jobs"), Some(0));
    }

    #[test]
    fn audit_mode_counts_checks_and_emits_spans() {
        let jobs = plate_jobs(3);
        let report = run_batch(
            &jobs,
            &BatchOptions::new()
                .workers(2)
                .config(SessionConfig::new().audit(AuditOptions::strict())),
        );
        assert_eq!(report.completed(), 3);
        assert!(report.perf.counter("audit.checks").unwrap() > 0);
        assert_eq!(report.perf.counter("audit.violations"), Some(0));
        for name in ["audit.idealize", "audit.solve", "audit.contour"] {
            assert!(
                report.perf.spans.iter().any(|s| s.name == name),
                "missing span {name}"
            );
        }
    }

    #[test]
    fn audit_off_emits_no_audit_spans_or_counters() {
        let report = run_batch(&plate_jobs(1), &BatchOptions::new().workers(1));
        assert!(report.perf.spans.iter().all(|s| !s.name.starts_with("audit.")));
        assert!(report
            .perf
            .counters
            .iter()
            .all(|c| !c.name.starts_with("audit.")));
    }

    #[test]
    fn lint_mode_denies_bad_decks_and_counts_diagnostics() {
        use crate::pipeline::Stage;
        use crate::lint::LintCode;
        let overlapping = concat!(
            "    1\n",
            "OVERLAPPING BOXES\n",
            "    1    1    1    2\n",
            "    1    0    0    2    2         0    0\n",
            "    2    0    0    2    2         0    0\n",
            "    1    0\n",
            "    2    0\n",
            "(2F9.5, 51X, I3, 5X, I3)\n",
            "(3I5, 62X, I3)\n",
        );
        let mut jobs = plate_jobs(2);
        jobs.insert(1, BatchJob::new("overlapping", overlapping, cantilever));
        let report = run_batch(
            &jobs,
            &BatchOptions::new()
                .workers(2)
                .config(SessionConfig::new().lint(LintConfig::new())),
        );
        assert_eq!(report.completed(), 2);
        assert_eq!(report.failed(), 1);
        let err = report.outcomes[1].error().unwrap();
        assert_eq!(err.stage(), Stage::DeckParse);
        match err.source_error() {
            StageError::Lint(lint) => {
                assert_eq!(lint.diagnostics[0].code, LintCode::OverlappingSubdivisions);
            }
            other => panic!("expected a lint error, got {other:?}"),
        }
        assert!(report.perf.span_nanos("lint.deck") > 0);
        assert_eq!(report.perf.counter("lint.diagnostics"), Some(1));
        assert_eq!(report.perf.counter("lint.denied"), Some(1));
    }

    #[test]
    fn lint_mode_passes_clean_decks_with_zeroed_counters() {
        let report = run_batch(
            &plate_jobs(2),
            &BatchOptions::new()
                .workers(1)
                .config(SessionConfig::new().lint(LintConfig::new())),
        );
        assert_eq!(report.completed(), 2);
        assert_eq!(report.perf.counter("lint.diagnostics"), Some(0));
        assert_eq!(report.perf.counter("lint.denied"), Some(0));
    }

    #[test]
    fn lint_off_emits_no_lint_spans_or_counters() {
        let report = run_batch(&plate_jobs(1), &BatchOptions::new().workers(1));
        assert!(report.perf.spans.iter().all(|s| !s.name.starts_with("lint.")));
        assert!(report
            .perf
            .counters
            .iter()
            .all(|c| !c.name.starts_with("lint.")));
    }

    #[test]
    fn an_unconstrained_model_in_audit_mode_is_still_a_solve_failure() {
        // The singular model fails in the solver proper, not in audit —
        // the violation counter must stay untouched.
        let jobs = vec![BatchJob::new("singular", PLATE_DECK, unconstrained)];
        let report = run_batch(
            &jobs,
            &BatchOptions::new()
                .workers(1)
                .config(SessionConfig::new().audit(AuditOptions::new())),
        );
        assert_eq!(report.failed(), 1);
        assert_eq!(report.perf.counter("audit.violations"), Some(0));
    }

    #[test]
    fn options_clamp_and_expose_their_knobs() {
        let options = BatchOptions::new().workers(0).max_in_flight(0);
        assert_eq!(options.worker_count(), 1);
        assert!(options.in_flight_bound() >= 1);
        let options = BatchOptions::new().max_in_flight(2).workers(8);
        assert!(options.in_flight_bound() >= 8);
        assert_eq!(options.policy(), ErrorPolicy::CollectAll);
        let options = BatchOptions::new()
            .config(SessionConfig::new().cg_options(CgOptions::new().with_max_iterations(7)));
        assert_eq!(options.cg_solver_options().max_iterations, 7);
    }

    #[test]
    fn dispatcher_runs_jobs_and_merges_perf_on_drain() {
        let dispatcher = BatchDispatcher::start(BatchOptions::new().workers(2).max_in_flight(8));
        let tickets: Vec<_> = plate_jobs(4)
            .into_iter()
            .map(|job| dispatcher.submit(job).expect("admitted"))
            .collect();
        for ticket in tickets {
            let outcome = ticket.wait();
            assert!(outcome.plots().is_some(), "{outcome:?}");
        }
        assert_eq!(dispatcher.in_flight(), 0);
        let perf = dispatcher.drain();
        assert_eq!(perf.counter("batch.jobs"), Some(4));
        assert_eq!(perf.counter("batch.completed"), Some(4));
        assert_eq!(perf.counter("batch.failed"), Some(0));
        for name in STAGE_SPANS {
            assert!(perf.span_nanos(name) > 0, "{name} never timed");
        }
    }

    #[test]
    fn dispatcher_refuses_when_saturated_and_when_draining() {
        let dispatcher = BatchDispatcher::start(BatchOptions::new().workers(1).max_in_flight(1));
        let client = dispatcher.client();
        // Occupy the single slot with a job whose setup blocks until
        // released — admission state is then deterministic.
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let blocked = client
            .submit(BatchJob::new("blocked", PLATE_DECK, move |mesh| {
                let _ = gate.lock().unwrap_or_else(|e| e.into_inner()).recv();
                cantilever(mesh)
            }))
            .expect("first job admitted");
        assert_eq!(client.in_flight(), 1);
        match client.submit(plate_jobs(1).remove(0)) {
            Err(AdmissionError::Saturated {
                in_flight,
                capacity,
            }) => {
                assert_eq!(in_flight, 1);
                assert_eq!(capacity, 1);
            }
            other => panic!("expected saturation, got {other:?}"),
        }
        release.send(()).expect("worker waiting");
        assert!(blocked.wait().plots().is_some());
        let perf = dispatcher.drain();
        assert_eq!(perf.counter("batch.jobs"), Some(1));
        // A client that outlives the drain gets the typed refusal.
        assert!(client.is_draining());
        assert_eq!(
            client.submit(plate_jobs(1).remove(0)).unwrap_err(),
            AdmissionError::Draining
        );
    }

    #[test]
    fn drain_resolves_every_accepted_ticket() {
        let dispatcher = BatchDispatcher::start(BatchOptions::new().workers(2).max_in_flight(16));
        let tickets: Vec<_> = plate_jobs(10)
            .into_iter()
            .map(|job| dispatcher.submit(job).expect("admitted"))
            .collect();
        // Drain races the workers: every accepted job must still resolve.
        let perf = dispatcher.drain();
        let mut resolved = 0;
        for ticket in tickets {
            assert!(ticket.wait().plots().is_some());
            resolved += 1;
        }
        assert_eq!(resolved, 10);
        assert_eq!(perf.counter("batch.jobs"), Some(10));
        assert_eq!(perf.counter("batch.completed"), Some(10));
    }

    #[test]
    fn abort_skips_queued_jobs_without_running_them() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dispatcher = BatchDispatcher::start(BatchOptions::new().workers(1).max_in_flight(4));
        // Hold the only worker inside a setup that blocks until released,
        // so the next three jobs stay queued.
        let (started, on_start) = std::sync::mpsc::channel::<()>();
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let (started, gate) = (Mutex::new(started), Mutex::new(gate));
        let held = dispatcher
            .submit(BatchJob::new("held", PLATE_DECK, move |mesh| {
                let _ = started.lock().unwrap_or_else(|e| e.into_inner()).send(());
                let _ = gate.lock().unwrap_or_else(|e| e.into_inner()).recv();
                cantilever(mesh)
            }))
            .expect("held job admitted");
        on_start.recv().expect("the worker starts the held job");
        let setups = Arc::new(AtomicUsize::new(0));
        let queued: Vec<JobTicket> = (0..3)
            .map(|i| {
                let setups = Arc::clone(&setups);
                let job = BatchJob::new(format!("queued-{i}"), PLATE_DECK, move |mesh| {
                    setups.fetch_add(1, Ordering::SeqCst);
                    cantilever(mesh)
                });
                dispatcher.submit(job).expect("queued job admitted")
            })
            .collect();
        assert_eq!(dispatcher.in_flight(), 4);
        dispatcher.shared.abort();
        assert_eq!(dispatcher.in_flight(), 1);
        for ticket in queued {
            assert_eq!(ticket.wait(), JobOutcome::Skipped);
        }
        release.send(()).expect("the held job is waiting");
        assert!(held.wait().plots().is_some());
        let perf = dispatcher.drain();
        assert_eq!(setups.load(Ordering::SeqCst), 0);
        assert_eq!(perf.counter("batch.completed"), Some(1));
        assert_eq!(perf.counter("batch.failed"), Some(0));
    }

    #[test]
    fn starved_cg_budget_is_a_typed_solve_failure_through_the_engine() {
        // The complete factor converges on the plate in one step, so the
        // tolerance is one no double-precision solve reaches.
        let jobs = plate_jobs(1);
        let report = run_batch(
            &jobs,
            &BatchOptions::new().workers(1).config(
                SessionConfig::new()
                    .solver(SolverBackend::SparseCg)
                    .cg_options(
                        CgOptions::new()
                            .with_tolerance(1e-30)
                            .with_max_iterations(1),
                    ),
            ),
        );
        let err = report.outcomes[0].error().expect("starved CG fails");
        assert_eq!(err.stage(), crate::pipeline::Stage::Solve);
        assert!(matches!(
            err.source_error(),
            StageError::Fem(FemError::CgNoConvergence { tolerance, .. }) if *tolerance == 1e-30
        ));
    }
}
