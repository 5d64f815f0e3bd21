//! The staged-session pipeline: *parse → idealize → model-setup → solve →
//! stress-recovery → contour*, the workflow of the paper's "Results and
//! Discussion" ("program IDLZ has been used to idealize the structure and
//! then program OSPL used to plot results from the finite element
//! analysis").
//!
//! ## Staged sessions
//!
//! Each stage of the workflow is a named, inspectable artifact:
//!
//! ```text
//! PipelineBuilder ── parse ──▶ ParsedDeck ── idealize ──▶ Idealized
//!       │                                                     │ setup(&self)
//!       │ model()                                             ▼
//!       └───────────────────────────────────────────────▶ ModelReady
//!                                                             │ solve
//!                                                             ▼
//!            StressPlot ◀── contour(&self) ── Recovered ◀── Solved
//! ```
//!
//! Stage transitions that fan out take `&self` so the upstream artifact
//! can be reused: [`Idealized::setup`] builds several load cases from one
//! idealization, and [`Recovered::contour`] plots several stress
//! components from one solve. Every transition returns a
//! [`PipelineError`] carrying the [`Stage`] it arose in, so batch drivers
//! can attribute failures without parsing messages. The staged artifacts
//! are exactly the units of work the [`batch`](crate::batch) engine
//! schedules.

use std::fmt;
use std::sync::Arc;

use cafemio_audit::{AuditError, AuditStage};
use cafemio_cache::{CacheKey, CacheStage, StableHasher, StageCache};
use cafemio_cards::{CardError, Deck};
use cafemio_fem::{AnalysisKind, FemError, FemModel, Solution, SolverBackend, StressField};
use cafemio_idlz::{Idealization, IdealizationResult, IdealizationSpec, IdlzError};
use cafemio_lint::{LintError, LintReport};
use cafemio_mesh::{FieldProbe, NodalField, ProbeError, TriMesh};
use cafemio_ospl::{ContourOptions, Ospl, OsplError, OsplResult};

use crate::config::SessionConfig;
use crate::content;

/// Which recovered stress field to plot — one per contour plot in
/// Figures 13 and 15–18.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StressComponent {
    /// Radial stress σr.
    Radial,
    /// Meridional / axial stress σz.
    Meridional,
    /// Circumferential (hoop) stress σθ.
    Circumferential,
    /// In-plane shear τrz.
    Shear,
    /// Von Mises effective stress.
    Effective,
}

impl StressComponent {
    /// Every component, in the order the paper's figures use them.
    pub const ALL: [StressComponent; 5] = [
        StressComponent::Radial,
        StressComponent::Meridional,
        StressComponent::Circumferential,
        StressComponent::Shear,
        StressComponent::Effective,
    ];

    /// True when the analysis kind actually produces this component —
    /// plane stress has no out-of-plane constraint, so its
    /// circumferential (hoop) field is identically zero and a contour
    /// request over it plots nothing but exact zeros (lint code `O003`).
    pub fn is_produced_by(self, kind: AnalysisKind) -> bool {
        !matches!(
            (self, kind),
            (StressComponent::Circumferential, AnalysisKind::PlaneStress { .. })
        )
    }

    /// Extracts the matching nodal field from a recovered stress state.
    pub fn field(self, stresses: &StressField) -> NodalField {
        match self {
            StressComponent::Radial => stresses.radial(),
            StressComponent::Meridional => stresses.meridional(),
            StressComponent::Circumferential => stresses.circumferential(),
            StressComponent::Shear => stresses.shear(),
            StressComponent::Effective => stresses.effective(),
        }
    }
}

impl fmt::Display for StressComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StressComponent::Radial => "RADIAL STRESS",
            StressComponent::Meridional => "MERIDIONAL STRESS",
            StressComponent::Circumferential => "CIRCUMFERENTIAL STRESS",
            StressComponent::Shear => "SHEAR STRESS",
            StressComponent::Effective => "EFFECTIVE STRESS",
        };
        f.write_str(name)
    }
}

/// The pipeline stage in which an error arose — the provenance half of
/// [`PipelineError`]. Stages are ordered as the paper's workflow runs
/// them: read cards, idealize, set up the model, solve, recover
/// stresses, contour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Reading and parsing the input card deck.
    DeckParse,
    /// IDLZ idealization (grid generation, boundary shaping, reform).
    Idealize,
    /// Turning the mesh into a loaded, constrained model.
    ModelSetup,
    /// Assembly and solution of the structural system.
    Solve,
    /// Element stress computation and nodal averaging.
    StressRecovery,
    /// OSPL isogram generation.
    Contour,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::DeckParse => "deck parsing",
            Stage::Idealize => "idealization",
            Stage::ModelSetup => "model setup",
            Stage::Solve => "solution",
            Stage::StressRecovery => "stress recovery",
            Stage::Contour => "contour plotting",
        })
    }
}

/// The stage-specific error wrapped by [`PipelineError`].
#[derive(Debug, Clone, PartialEq)]
pub enum StageError {
    /// A card-level I/O error (unreadable field, oversize value).
    Card(CardError),
    /// An idealization error.
    Idlz(IdlzError),
    /// An analysis error.
    Fem(FemError),
    /// A plotting error.
    Ospl(OsplError),
    /// A broken stage invariant found by audit mode.
    Audit(AuditError),
    /// Deny-severity diagnostics found by the static lint pass.
    Lint(LintError),
    /// A field/mesh mismatch while binding a point probe.
    Probe(ProbeError),
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageError::Card(e) => e.fmt(f),
            StageError::Idlz(e) => e.fmt(f),
            StageError::Fem(e) => e.fmt(f),
            StageError::Ospl(e) => e.fmt(f),
            StageError::Audit(e) => e.fmt(f),
            StageError::Lint(e) => e.fmt(f),
            StageError::Probe(e) => e.fmt(f),
        }
    }
}

/// Error from the staged pipeline, carrying the stage it arose in and
/// the instrument spans that were open when it was captured.
///
/// The [`Display`](fmt::Display) output is deterministic — stage name
/// plus the underlying error, no timings — so error text can be golden-
/// tested. The span context (names only) is available separately through
/// [`span_context`](PipelineError::span_context).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineError {
    stage: Stage,
    source: StageError,
    spans: Vec<&'static str>,
}

impl PipelineError {
    /// Wraps a stage error, capturing the currently open instrument
    /// spans as context.
    pub fn at(stage: Stage, source: StageError) -> PipelineError {
        let spans = cafemio_instrument::active_spans()
            .iter()
            .map(|s| s.name)
            .collect();
        PipelineError {
            stage,
            source,
            spans,
        }
    }

    /// The stage in which the error arose.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// The underlying stage-specific error.
    pub fn source_error(&self) -> &StageError {
        &self.source
    }

    /// Names of the instrument spans that were open when the error was
    /// captured, outermost first (e.g. `["pipeline.solve",
    /// "fem.solve"]`). Available whether or not span collection is
    /// enabled.
    pub fn span_context(&self) -> &[&'static str] {
        &self.spans
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} failed: {}", self.stage, self.source)
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.source {
            StageError::Card(e) => Some(e),
            StageError::Idlz(e) => Some(e),
            StageError::Fem(e) => Some(e),
            StageError::Ospl(e) => Some(e),
            StageError::Audit(e) => Some(e),
            StageError::Lint(e) => Some(e),
            StageError::Probe(e) => Some(e),
        }
    }
}

/// Wraps an audit verdict as a pipeline error attributed to the stage
/// whose invariant broke.
fn audit_failure(error: AuditError) -> PipelineError {
    let stage = match error.stage() {
        AuditStage::Idealize => Stage::Idealize,
        AuditStage::Solve => Stage::Solve,
        AuditStage::Contour => Stage::Contour,
    };
    PipelineError::at(stage, StageError::Audit(error))
}

/// The final pipeline artifact: the plotted field plus the contour
/// result (frame, isograms, interval).
#[derive(Debug, Clone, PartialEq)]
pub struct StressPlot {
    /// The nodal field that was contoured.
    pub field: NodalField,
    /// The OSPL output.
    pub contours: OsplResult,
}

/// The session-wide defaults a [`PipelineBuilder`] carries into every
/// downstream stage: which stress component to contour, with what
/// contour options, and the shared [`SessionConfig`] (audit, lint,
/// capability, solver, CG, cache).
#[derive(Debug, Clone)]
struct SessionState {
    component: StressComponent,
    options: ContourOptions,
    shared: SessionConfig,
}

impl Default for SessionState {
    fn default() -> SessionState {
        SessionState {
            component: StressComponent::Effective,
            options: ContourOptions::new(),
            shared: SessionConfig::new(),
        }
    }
}

impl SessionState {
    /// The cache store and config fingerprint, when caching is on.
    fn cache(&self) -> Option<(&StageCache, u64)> {
        self.shared
            .cache
            .as_deref()
            .map(|store| (store, self.shared.fingerprint()))
    }
}

/// Memoizes one stage artifact under `entry`'s key: a hit returns a clone
/// of the stored value; a miss runs `compute` and stores a clone of its
/// success, charged `bytes` of the store's budget. With no entry (no
/// store, or an input with no content key) it just computes. A failure
/// is never stored, so it is recomputed, with its spans, on every run.
fn cached<T, E>(
    entry: Option<(&StageCache, CacheKey)>,
    compute: impl FnOnce() -> Result<T, E>,
    bytes: impl FnOnce(&T) -> u64,
) -> Result<T, E>
where
    T: Clone + Send + Sync + 'static,
{
    let Some((store, key)) = entry else {
        return compute();
    };
    if let Some(hit) = store.get::<T>(&key) {
        return Ok((*hit).clone());
    }
    let value = compute()?;
    store.put(key, Arc::new(value.clone()), bytes(&value));
    Ok(value)
}

/// Entry point of a staged session. Configures the session defaults
/// (stress component, contour options) and opens the first stage —
/// either from deck text ([`parse`](PipelineBuilder::parse)), from
/// already-built specs ([`specs`](PipelineBuilder::specs)), or directly
/// from finished models ([`model`](PipelineBuilder::model) /
/// [`models`](PipelineBuilder::models)).
///
/// # Examples
///
/// ```
/// use cafemio::prelude::*;
/// # use cafemio::models::joint;
/// # fn main() -> Result<(), PipelineError> {
/// let solved = PipelineBuilder::new()
///     .component(StressComponent::Effective)
///     .specs(vec![joint::spec()])
///     .idealize()?
///     .setup(|mesh| Ok(joint::pressure_model(mesh)))?
///     .solve()?;
/// let plots = solved.recover()?.contour()?;
/// assert_eq!(plots.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PipelineBuilder {
    config: SessionState,
}

impl PipelineBuilder {
    /// A builder with the documented defaults: effective stress,
    /// automatic contour interval ([`ContourOptions::new`]), default
    /// [`SessionConfig`].
    pub fn new() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// Sets the stress component downstream stages contour by default.
    pub fn component(mut self, component: StressComponent) -> PipelineBuilder {
        self.config.component = component;
        self
    }

    /// Sets the contour options downstream stages plot with by default.
    pub fn contour_options(mut self, options: ContourOptions) -> PipelineBuilder {
        self.config.options = options;
        self
    }

    /// Installs the shared session options — audit, lint, capability,
    /// solver, CG tuning, cache — from one [`SessionConfig`]. This is
    /// the single option surface shared with
    /// [`BatchOptions::config`](crate::batch::BatchOptions::config);
    /// its [`SessionConfig::fingerprint`] is also the config half of
    /// every stage-cache key.
    pub fn config(mut self, config: SessionConfig) -> PipelineBuilder {
        self.config.shared = config;
        self
    }

    /// The shared session options currently installed.
    pub fn session_config(&self) -> &SessionConfig {
        &self.config.shared
    }

    /// Parses an IDLZ card deck from raw text into a [`ParsedDeck`].
    ///
    /// # Errors
    ///
    /// A [`PipelineError`] attributed to [`Stage::DeckParse`] (card layer
    /// or deck structure).
    pub fn parse(&self, text: &str) -> Result<ParsedDeck, PipelineError> {
        let _span = cafemio_instrument::span("pipeline.parse");
        let entry = self.config.cache().map(|(store, fp)| {
            (
                store,
                CacheKey::new(CacheStage::Parse, StableHasher::hash_str(text), fp),
            )
        });
        let (specs, lint_report) = cached(
            entry,
            || {
                let deck = Deck::from_text(text)
                    .map_err(|e| PipelineError::at(Stage::DeckParse, StageError::Card(e)))?;
                let (mut specs, layouts) = cafemio_idlz::deck::parse_deck_with_layout(&deck)
                    .map_err(|e| PipelineError::at(Stage::DeckParse, StageError::Idlz(e)))?;
                for spec in &mut specs {
                    self.config.shared.apply_capability(spec);
                }
                let lint_report = match &self.config.shared.lint {
                    Some(config) => Some(run_lint(|| {
                        cafemio_lint::lint_idlz_with_deck(&deck, &specs, &layouts, config)
                    })?),
                    None => None,
                };
                Ok((specs, lint_report))
            },
            |(specs, _)| {
                let values: usize = specs.iter().map(IdealizationSpec::input_value_count).sum();
                (256 + 16 * values) as u64
            },
        )?;
        Ok(ParsedDeck {
            specs,
            lint_report,
            config: self.config.clone(),
        })
    }

    /// Opens a [`ParsedDeck`] stage directly from already-built
    /// idealization specs, skipping the card layer. With lint on, the
    /// specs are analyzed (without card provenance) at
    /// [`ParsedDeck::idealize`].
    pub fn specs(&self, mut specs: Vec<IdealizationSpec>) -> ParsedDeck {
        for spec in &mut specs {
            self.config.shared.apply_capability(spec);
        }
        ParsedDeck {
            specs,
            lint_report: None,
            config: self.config.clone(),
        }
    }

    /// Opens a [`ModelReady`] stage directly from one finished model,
    /// skipping idealization — the entry point when the mesh came from
    /// somewhere other than IDLZ.
    pub fn model(&self, model: FemModel) -> ModelReady {
        self.models(vec![model])
    }

    /// Opens a [`ModelReady`] stage directly from finished models.
    pub fn models(&self, models: Vec<FemModel>) -> ModelReady {
        ModelReady {
            models,
            config: self.config.clone(),
        }
    }
}

/// Runs a lint pass under the `lint.deck` span, publishes the
/// `lint.diagnostics` / `lint.denied` counters, and converts denials
/// into a [`Stage::DeckParse`] error.
fn run_lint(produce: impl FnOnce() -> LintReport) -> Result<LintReport, PipelineError> {
    let _span = cafemio_instrument::span("lint.deck");
    let report = produce();
    cafemio_instrument::counter("lint.diagnostics", report.diagnostics().len() as u64);
    cafemio_instrument::counter("lint.denied", report.denied_count() as u64);
    match LintError::from_report(&report) {
        Some(error) => Err(PipelineError::at(Stage::DeckParse, StageError::Lint(error))),
        None => Ok(report),
    }
}

/// Idealizes one data set with [`Idealization::run`], memoized under the
/// spec's content key when the session has a store.
///
/// A miss against a store reports the `idlz.incremental.*` counters as
/// reused 0 and regenerated = the spec's subdivision count: every miss
/// idealizes from scratch. A hit, and a session with no store, report
/// neither.
fn idealize_spec(
    spec: &IdealizationSpec,
    cache: Option<(&StageCache, u64)>,
) -> Result<IdealizationResult, IdlzError> {
    let entry = cache.map(|(store, fp)| {
        (
            store,
            CacheKey::new(CacheStage::Idealize, content::hash_spec(spec), fp),
        )
    });
    let stored = entry.is_some();
    cached(
        entry,
        || {
            let result = Idealization::run(spec)?;
            if stored {
                cafemio_instrument::counter("idlz.incremental.reused_subdivisions", 0);
                cafemio_instrument::counter(
                    "idlz.incremental.regenerated_subdivisions",
                    spec.subdivisions().len() as u64,
                );
            }
            Ok(result)
        },
        |result| {
            (1024
                + 48 * result.mesh.node_count()
                + 32 * result.mesh.element_count()
                + 8192 * result.frames.len()) as u64
        },
    )
}

/// Stage 1: a parsed deck — one [`IdealizationSpec`] per data set, not
/// yet idealized.
#[derive(Debug, Clone)]
pub struct ParsedDeck {
    specs: Vec<IdealizationSpec>,
    lint_report: Option<LintReport>,
    config: SessionState,
}

impl ParsedDeck {
    /// The parsed data-set specs, in deck order.
    pub fn specs(&self) -> &[IdealizationSpec] {
        &self.specs
    }

    /// Number of data sets in the deck.
    pub fn data_set_count(&self) -> usize {
        self.specs.len()
    }

    /// The lint report, when the session linted this deck (lint mode on
    /// and the stage was entered through [`PipelineBuilder::parse`]).
    /// Warn-severity diagnostics survive here even though the session
    /// continued.
    pub fn lint_report(&self) -> Option<&LintReport> {
        self.lint_report.as_ref()
    }

    /// Runs IDLZ ([`Idealization::run`]) on every data set. With a stage
    /// cache, each data set's result is memoized under its spec's
    /// content key, so a resubmitted spec is a hit and an edited one
    /// idealizes from scratch.
    ///
    /// # Errors
    ///
    /// A [`PipelineError`] attributed to [`Stage::Idealize`] (shaping,
    /// limits, mesh) for the first failing data set, or to
    /// [`Stage::DeckParse`] when lint mode denies specs that entered
    /// through [`PipelineBuilder::specs`] (never linted until now).
    pub fn idealize(mut self) -> Result<Idealized, PipelineError> {
        if let (Some(lint), None) = (&self.config.shared.lint, &self.lint_report) {
            self.lint_report = Some(run_lint(|| cafemio_lint::lint_specs(&self.specs, lint))?);
        }
        let _span = cafemio_instrument::span("pipeline.idealize");
        let cache = self.config.cache();
        let sets = self
            .specs
            .into_iter()
            .map(|spec| {
                let result = idealize_spec(&spec, cache)
                    .map_err(|e| PipelineError::at(Stage::Idealize, StageError::Idlz(e)))?;
                Ok(IdealizedSet { spec, result })
            })
            .collect::<Result<Vec<_>, PipelineError>>()?;
        if let Some(audit) = &self.config.shared.audit {
            let _audit_span = cafemio_instrument::span("audit.idealize");
            let mut checks = 0;
            for set in &sets {
                checks += cafemio_audit::check_idealization(&set.spec, &set.result, audit)
                    .map_err(audit_failure)?;
            }
            cafemio_instrument::add("audit.checks", checks);
        }
        Ok(Idealized {
            sets,
            config: self.config,
        })
    }
}

/// One idealized data set: the spec that produced it and the finished
/// idealization (mesh, statistics, plots).
#[derive(Debug, Clone)]
pub struct IdealizedSet {
    /// The data-set spec as parsed from the deck.
    pub spec: IdealizationSpec,
    /// The finished idealization.
    pub result: IdealizationResult,
}

/// Stage 2: every data set idealized. Reusable — [`setup`](Idealized::setup)
/// takes `&self`, so one idealization can feed several load cases.
#[derive(Debug, Clone)]
pub struct Idealized {
    sets: Vec<IdealizedSet>,
    config: SessionState,
}

impl Idealized {
    /// The idealized data sets, in deck order.
    pub fn sets(&self) -> &[IdealizedSet] {
        &self.sets
    }

    /// The idealized meshes, in deck order.
    pub fn meshes(&self) -> impl Iterator<Item = &TriMesh> {
        self.sets.iter().map(|s| &s.result.mesh)
    }

    /// Consumes the stage into its per-data-set artifacts.
    pub fn into_sets(self) -> Vec<IdealizedSet> {
        self.sets
    }

    /// Builds a loaded, constrained model from every mesh with the
    /// caller's `setup` closure — boundary conditions and loads are
    /// applied here. Takes `&self` so several load cases can be built
    /// from one idealization.
    ///
    /// # Errors
    ///
    /// A [`PipelineError`] attributed to [`Stage::ModelSetup`] for the
    /// first data set whose closure reports a failure.
    pub fn setup<F>(&self, mut setup: F) -> Result<ModelReady, PipelineError>
    where
        F: FnMut(&TriMesh) -> Result<FemModel, FemError>,
    {
        let _span = cafemio_instrument::span("pipeline.model_setup");
        let models = self
            .sets
            .iter()
            .map(|set| {
                setup(&set.result.mesh)
                    .map_err(|e| PipelineError::at(Stage::ModelSetup, StageError::Fem(e)))
            })
            .collect::<Result<Vec<_>, PipelineError>>()?;
        Ok(ModelReady {
            models,
            config: self.config.clone(),
        })
    }
}

/// Stage 3: loaded, constrained models, ready to solve.
#[derive(Debug, Clone)]
pub struct ModelReady {
    models: Vec<FemModel>,
    config: SessionState,
}

impl ModelReady {
    /// The models awaiting solution, in deck order.
    pub fn models(&self) -> &[FemModel]  {
        &self.models
    }

    /// Assembles and solves every model with the session's
    /// [`SolverBackend`] (band by default — see
    /// [`SessionConfig::solver`]).
    ///
    /// # Errors
    ///
    /// A [`PipelineError`] attributed to [`Stage::Solve`] for the first
    /// model that fails to factorize (or, for the sparse backend, fails
    /// to converge).
    pub fn solve(self) -> Result<Solved, PipelineError> {
        let _span = cafemio_instrument::span("pipeline.solve");
        let backend = self.config.shared.solver;
        let cg = self.config.shared.cg;
        let cache = self.config.cache();
        let cases = self
            .models
            .into_iter()
            .map(|model| {
                // A model whose force evaluation fails has no content
                // key; it falls through to the solver, which reports
                // the error with full stage provenance.
                let entry = cache.and_then(|(store, fp)| {
                    content::hash_model(&model)
                        .map(|hash| (store, CacheKey::new(CacheStage::Solve, hash, fp)))
                });
                let solution = cached(
                    entry,
                    || match backend {
                        SolverBackend::SparseCg => model.solve_sparse_with(&cg),
                        direct => model.solve_with(direct),
                    },
                    |solution| (64 + 8 * solution.dofs().len()) as u64,
                )
                .map_err(|e| PipelineError::at(Stage::Solve, StageError::Fem(e)))?;
                Ok(SolvedCase { model, solution })
            })
            .collect::<Result<Vec<_>, PipelineError>>()?;
        if let Some(audit) = &self.config.shared.audit {
            let _audit_span = cafemio_instrument::span("audit.solve");
            let mut checks = 0;
            for case in &cases {
                checks += cafemio_audit::check_solution(&case.model, &case.solution, audit)
                    .map_err(audit_failure)?;
                if audit.differential() {
                    let _diff_span = cafemio_instrument::span("audit.differential");
                    // An iterative reference only matches the direct
                    // re-solves to its own convergence tolerance, so the
                    // comparison bound widens to the iterative one.
                    let effective = if backend == SolverBackend::SparseCg {
                        audit
                            .clone()
                            .with_divergence_tolerance(audit.iterative_divergence_tolerance())
                    } else {
                        audit.clone()
                    };
                    cafemio_audit::check_differential(&case.model, &case.solution, &effective)
                        .map_err(audit_failure)?;
                    checks += 1;
                }
                if audit.sparse_differential() && backend != SolverBackend::SparseCg {
                    let _diff_span = cafemio_instrument::span("audit.differential");
                    cafemio_audit::check_sparse_differential(&case.model, &case.solution, audit)
                        .map_err(audit_failure)?;
                    checks += 1;
                }
            }
            cafemio_instrument::add("audit.checks", checks);
        }
        Ok(Solved {
            cases,
            config: self.config,
        })
    }
}

/// One solved model: the model and its displacement solution.
#[derive(Debug, Clone)]
pub struct SolvedCase {
    model: FemModel,
    solution: Solution,
}

impl SolvedCase {
    /// The solved model.
    pub fn model(&self) -> &FemModel {
        &self.model
    }

    /// The displacement solution.
    pub fn solution(&self) -> &Solution {
        &self.solution
    }
}

/// Stage 4: displacement solutions for every model. Inspect the raw
/// solutions here, then [`recover`](Solved::recover) element stresses.
#[derive(Debug, Clone)]
pub struct Solved {
    cases: Vec<SolvedCase>,
    config: SessionState,
}

impl Solved {
    /// The solved cases, in deck order.
    pub fn cases(&self) -> &[SolvedCase] {
        &self.cases
    }

    /// Computes element stresses and nodal averages for every case.
    ///
    /// # Errors
    ///
    /// A [`PipelineError`] attributed to [`Stage::StressRecovery`].
    pub fn recover(self) -> Result<Recovered, PipelineError> {
        let _span = cafemio_instrument::span("pipeline.stress_recovery");
        let cache = self.config.cache();
        let cases = self
            .cases
            .into_iter()
            .map(|case| {
                let entry = cache.and_then(|(store, fp)| {
                    content::hash_recovery(&case.model, &case.solution)
                        .map(|hash| (store, CacheKey::new(CacheStage::StressRecovery, hash, fp)))
                });
                let mesh = case.model.mesh();
                let stresses = cached(
                    entry,
                    || StressField::compute(&case.model, &case.solution),
                    |_| (128 + 32 * (mesh.element_count() + mesh.node_count())) as u64,
                )
                .map_err(|e| PipelineError::at(Stage::StressRecovery, StageError::Fem(e)))?;
                Ok(RecoveredCase {
                    model: case.model,
                    solution: case.solution,
                    stresses,
                })
            })
            .collect::<Result<Vec<_>, PipelineError>>()?;
        Ok(Recovered {
            cases,
            config: self.config,
        })
    }
}

/// One case with recovered stresses: model, solution, and nodal stress
/// field.
#[derive(Debug, Clone)]
pub struct RecoveredCase {
    model: FemModel,
    solution: Solution,
    stresses: StressField,
}

impl RecoveredCase {
    /// The solved model.
    pub fn model(&self) -> &FemModel {
        &self.model
    }

    /// The displacement solution.
    pub fn solution(&self) -> &Solution {
        &self.solution
    }

    /// The recovered stress state.
    pub fn stresses(&self) -> &StressField {
        &self.stresses
    }

    /// Binds one recovered stress component to the case's mesh for
    /// point evaluation: `probe.sample(x, y)` returns the
    /// barycentric-interpolated value and owning element, and
    /// [`FieldProbe::line_graph`] extracts value graphs along arbitrary
    /// cut paths — a workload the 1970 plotter never had.
    ///
    /// # Errors
    ///
    /// A [`PipelineError`] attributed to [`Stage::Contour`] when the
    /// recovered field does not cover the mesh (cannot happen for
    /// fields recovered by this pipeline; guarded for parity with the
    /// mesh-level API).
    pub fn probe(&self, component: StressComponent) -> Result<FieldProbe, PipelineError> {
        let field = component.field(&self.stresses);
        FieldProbe::new(self.model.mesh(), &field)
            .map_err(|e| PipelineError::at(Stage::Contour, StageError::Probe(e)))
    }
}

/// Stage 5: recovered stresses for every case. Reusable —
/// [`contour`](Recovered::contour) takes `&self`, so one recovery can be
/// plotted for every [`StressComponent`] without re-solving.
#[derive(Debug, Clone)]
pub struct Recovered {
    cases: Vec<RecoveredCase>,
    config: SessionState,
}

impl Recovered {
    /// The recovered cases, in deck order.
    pub fn cases(&self) -> &[RecoveredCase] {
        &self.cases
    }

    /// Contours the session's default component with the session's
    /// default options — one [`StressPlot`] per case.
    ///
    /// # Errors
    ///
    /// A [`PipelineError`] attributed to [`Stage::Contour`].
    pub fn contour(&self) -> Result<Vec<StressPlot>, PipelineError> {
        self.contour_with(self.config.component, &self.config.options)
    }

    /// Contours an explicit component with explicit options, overriding
    /// the session defaults.
    ///
    /// # Errors
    ///
    /// A [`PipelineError`] attributed to [`Stage::Contour`].
    pub fn contour_with(
        &self,
        component: StressComponent,
        options: &ContourOptions,
    ) -> Result<Vec<StressPlot>, PipelineError> {
        let _span = cafemio_instrument::span("pipeline.contour");
        // Session-level dataflow lint (O003): the component request is
        // checked against what each case's analysis kind produces —
        // knowledge the deck-level lint pass cannot have. Deny-severity
        // hits fail the contour stage before any tracing happens.
        if let Some(config) = &self.config.shared.lint {
            for case in &self.cases {
                let kind = case.model.kind();
                let analysis = match kind {
                    AnalysisKind::PlaneStress { .. } => "plane stress",
                    AnalysisKind::PlaneStrain => "plane strain",
                    AnalysisKind::Axisymmetric => "axisymmetric",
                };
                let report = cafemio_lint::lint_component_request(
                    analysis,
                    &component.to_string(),
                    component.is_produced_by(kind),
                    config,
                );
                cafemio_instrument::counter(
                    "lint.session_diagnostics",
                    report.diagnostics().len() as u64,
                );
                if let Some(error) = LintError::from_report(&report) {
                    return Err(PipelineError::at(Stage::Contour, StageError::Lint(error)));
                }
            }
        }
        let cache = self.config.cache();
        let mut plots = Vec::with_capacity(self.cases.len());
        let mut audit_checks = 0;
        for case in &self.cases {
            let field = component.field(&case.stresses);
            let entry = cache.map(|(store, fp)| {
                let hash = content::hash_contour(case.model.mesh(), &field, component, options);
                (store, CacheKey::new(CacheStage::Contour, hash, fp))
            });
            let contours = cached(
                entry,
                || Ospl::run(case.model.mesh(), &field, options),
                |contours| {
                    8192 + 128 * contours.isograms.len() as u64 + 8 * contours.levels.len() as u64
                },
            )
            .map_err(|e| PipelineError::at(Stage::Contour, StageError::Ospl(e)))?;
            // Audit invariants are re-derived even on cache hits, so a
            // warm session proves the same properties a cold one does.
            if let Some(audit) = &self.config.shared.audit {
                let _audit_span = cafemio_instrument::span("audit.contour");
                audit_checks +=
                    cafemio_audit::check_contours(case.model.mesh(), &field, &contours, audit)
                        .map_err(audit_failure)?;
            }
            plots.push(StressPlot { field, contours });
        }
        if self.config.shared.audit.is_some() {
            cafemio_instrument::add("audit.checks", audit_checks);
        }
        Ok(plots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafemio_fem::{AnalysisKind, Material};
    use cafemio_geom::Point;
    use cafemio_mesh::{BoundaryKind, TriMesh};

    fn loaded_plate() -> FemModel {
        let mut mesh = TriMesh::new();
        let mut ids = Vec::new();
        for j in 0..=2 {
            for i in 0..=4 {
                ids.push(mesh.add_node(
                    Point::new(i as f64, j as f64 * 0.5),
                    BoundaryKind::Boundary,
                ));
            }
        }
        let at = |i: usize, j: usize| ids[j * 5 + i];
        for j in 0..2 {
            for i in 0..4 {
                mesh.add_element([at(i, j), at(i + 1, j), at(i + 1, j + 1)]).unwrap();
                mesh.add_element([at(i, j), at(i + 1, j + 1), at(i, j + 1)]).unwrap();
            }
        }
        let mut model = FemModel::new(
            mesh,
            AnalysisKind::PlaneStress { thickness: 1.0 },
            Material::isotropic(1.0e7, 0.3),
        );
        for j in 0..=2 {
            model.fix_x(at(0, j));
        }
        model.fix_y(at(0, 0));
        // Point load at the far corner: a stress gradient worth plotting.
        model.add_force(at(4, 2), 200.0, -100.0);
        model
    }

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

    fn cantilever_setup(mesh: &TriMesh) -> Result<FemModel, FemError> {
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
            }
            if (node.position.x - 2.0).abs() < 1e-9 {
                model.add_force(id, 100.0, 0.0);
            }
        }
        model.fix_y(corner.expect("corner node exists"));
        Ok(model)
    }

    #[test]
    fn session_produces_contours() {
        let solved = PipelineBuilder::new().model(loaded_plate()).solve().unwrap();
        let plots = solved.recover().unwrap().contour().unwrap();
        assert_eq!(plots.len(), 1);
        assert!(plots[0].contours.drawn_contours() > 0);
        assert_eq!(plots[0].field.name(), "EFFECTIVE STRESS");
        assert!(plots[0].contours.frame.vector_count() > 0);
    }

    #[test]
    fn one_recovery_plots_all_components() {
        let recovered = PipelineBuilder::new()
            .contour_options(ContourOptions::new().interval(25.0))
            .model(loaded_plate())
            .solve()
            .unwrap()
            .recover()
            .unwrap();
        for component in StressComponent::ALL {
            // Some components may be constant-zero (no contours with an
            // explicit interval); they must not error.
            let result =
                recovered.contour_with(component, &ContourOptions::new().interval(25.0));
            assert!(result.is_ok(), "{component}");
            assert_eq!(result.unwrap()[0].field.name(), component.to_string());
        }
    }

    #[test]
    fn under_constrained_model_reports_fem_error() {
        let mut mesh = TriMesh::new();
        let a = mesh.add_node(Point::new(0.0, 0.0), BoundaryKind::Boundary);
        let b = mesh.add_node(Point::new(1.0, 0.0), BoundaryKind::Boundary);
        let c = mesh.add_node(Point::new(0.0, 1.0), BoundaryKind::Boundary);
        mesh.add_element([a, b, c]).unwrap();
        let model = FemModel::new(
            mesh,
            AnalysisKind::PlaneStrain,
            Material::isotropic(1.0e6, 0.3),
        );
        let err = PipelineBuilder::new().model(model).solve().unwrap_err();
        assert_eq!(err.stage(), Stage::Solve);
        assert!(matches!(err.source_error(), StageError::Fem(_)));
        // The error was captured inside the session's solve span.
        assert!(err.span_context().contains(&"pipeline.solve"));
    }

    #[test]
    fn session_attributes_parse_and_idealize_stages() {
        // Structurally truncated deck: DeckParse.
        let err = PipelineBuilder::new()
            .parse("    1\nTITLE ONLY\n")
            .unwrap_err();
        assert_eq!(err.stage(), Stage::DeckParse);
        // A valid deck parses and idealizes; intermediates are
        // inspectable.
        let parsed = PipelineBuilder::new().parse(PLATE_DECK).unwrap();
        assert_eq!(parsed.data_set_count(), 1);
        assert_eq!(parsed.specs().len(), 1);
        let idealized = parsed.idealize().unwrap();
        assert_eq!(idealized.sets().len(), 1);
        assert!(idealized.meshes().next().unwrap().node_count() > 0);
    }

    #[test]
    fn session_attributes_model_setup_and_solve() {
        let idealized = PipelineBuilder::new()
            .parse(PLATE_DECK)
            .unwrap()
            .idealize()
            .unwrap();
        // A setup closure that reports a failure: ModelSetup.
        let err = idealized
            .setup(|_mesh| Err(cafemio_fem::FemError::EmptyModel))
            .unwrap_err();
        assert_eq!(err.stage(), Stage::ModelSetup);
        // An unconstrained model: Solve. The idealization is reused —
        // `setup` does not consume it.
        let err = idealized
            .setup(|mesh| {
                Ok(FemModel::new(
                    mesh.clone(),
                    AnalysisKind::PlaneStrain,
                    Material::isotropic(1.0e6, 0.3),
                ))
            })
            .unwrap()
            .solve()
            .unwrap_err();
        assert_eq!(err.stage(), Stage::Solve);
        // A properly constrained model runs end to end, still from the
        // same idealization.
        let plots = idealized
            .setup(cantilever_setup)
            .unwrap()
            .solve()
            .unwrap()
            .recover()
            .unwrap()
            .contour_with(StressComponent::Effective, &ContourOptions::new().interval(25.0))
            .unwrap();
        assert_eq!(plots.len(), 1);
    }

    #[test]
    fn one_idealization_serves_several_load_cases() {
        let idealized = PipelineBuilder::new()
            .parse(PLATE_DECK)
            .unwrap()
            .idealize()
            .unwrap();
        let light = idealized.setup(cantilever_setup).unwrap().solve().unwrap();
        let heavy = idealized
            .setup(|mesh| Ok(cantilever_setup(mesh)?.with_load_factor(2.0)))
            .unwrap()
            .solve()
            .unwrap();
        let max_light = light.cases()[0].solution().max_displacement();
        let max_heavy = heavy.cases()[0].solution().max_displacement();
        assert!(max_heavy > 1.5 * max_light);
    }

    #[test]
    fn solved_cases_expose_model_and_solution() {
        let solved = PipelineBuilder::new().model(loaded_plate()).solve().unwrap();
        assert_eq!(solved.cases().len(), 1);
        let case = &solved.cases()[0];
        assert!(case.solution().max_displacement() > 0.0);
        assert!(case.model().mesh().node_count() > 0);
        let recovered = solved.recover().unwrap();
        let case = &recovered.cases()[0];
        assert!(!case.stresses().effective().is_empty());
        assert_eq!(case.solution().dofs().len(), case.model().mesh().node_count() * 2);
    }

    #[test]
    fn lint_mode_denies_bad_decks_at_parse() {
        use cafemio_lint::{LintCode, LintConfig};
        // Two identical subdivisions: OverlappingSubdivisions at deny.
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
        let err = PipelineBuilder::new()
            .config(SessionConfig::new().lint(LintConfig::new()))
            .parse(overlapping)
            .unwrap_err();
        assert_eq!(err.stage(), Stage::DeckParse);
        match err.source_error() {
            StageError::Lint(lint) => {
                assert_eq!(lint.diagnostics[0].code, LintCode::OverlappingSubdivisions);
                assert_eq!(lint.diagnostics[0].span.card, Some(4));
            }
            other => panic!("expected a lint error, got {other:?}"),
        }
        // Allowing the code turns the same deck clean.
        let parsed = PipelineBuilder::new()
            .config(SessionConfig::new().lint(LintConfig::new().allow(LintCode::OverlappingSubdivisions)))
            .parse(overlapping)
            .unwrap();
        assert!(parsed.lint_report().unwrap().is_clean());
    }

    #[test]
    fn lint_mode_passes_clean_decks_and_stores_the_report() {
        use cafemio_lint::LintConfig;
        let parsed = PipelineBuilder::new()
            .config(SessionConfig::new().lint(LintConfig::new()))
            .parse(PLATE_DECK)
            .unwrap();
        let report = parsed.lint_report().expect("lint ran at parse");
        assert!(report.is_clean(), "{:?}", report.diagnostics());
        // Without lint mode there is no report.
        let parsed = PipelineBuilder::new().parse(PLATE_DECK).unwrap();
        assert!(parsed.lint_report().is_none());
    }

    #[test]
    fn lint_mode_covers_the_specs_entry_point_at_idealize() {
        use cafemio_idlz::Subdivision;
        use cafemio_lint::LintConfig;
        let mut spec = IdealizationSpec::new("SPECS PATH");
        spec.add_subdivision(Subdivision::rectangular(1, (0, 0), (2, 2)).unwrap());
        spec.add_subdivision(Subdivision::rectangular(2, (0, 0), (2, 2)).unwrap());
        let err = PipelineBuilder::new()
            .config(SessionConfig::new().lint(LintConfig::new()))
            .specs(vec![spec])
            .idealize()
            .unwrap_err();
        assert_eq!(err.stage(), Stage::DeckParse);
        assert!(matches!(err.source_error(), StageError::Lint(_)));
    }

    #[test]
    fn component_display_names_match_field_names() {
        let model = loaded_plate();
        let solution = model.solve().unwrap();
        let stresses = StressField::compute(&model, &solution).unwrap();
        for component in StressComponent::ALL {
            assert_eq!(component.to_string(), component.field(&stresses).name());
        }
    }
}
