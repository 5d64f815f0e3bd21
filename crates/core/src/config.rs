//! The shared session option surface: one [`SessionConfig`] consumed by
//! both the staged pipeline ([`PipelineBuilder::config`]) and the batch
//! engine ([`BatchOptions::config`]), and reused by `cafemio-serve`.
//!
//! Before this type existed the five session options (`audit`, `lint`,
//! `capability`, `solver`, `cg_options`) were duplicated verbatim
//! between [`PipelineBuilder`] and [`BatchOptions`] — every new option
//! had to be added twice, and nothing forced the two copies to agree.
//! `SessionConfig` is now the single definition, and — critically for
//! the stage cache — the single source of the cache-key *config
//! fingerprint* ([`fingerprint`](SessionConfig::fingerprint)): an option
//! added here is automatically part of every cache key in both paths,
//! so cache validity can never drift from an option added in only one
//! of them.
//!
//! [`PipelineBuilder`]: crate::pipeline::PipelineBuilder
//! [`PipelineBuilder::config`]: crate::pipeline::PipelineBuilder::config
//! [`BatchOptions`]: crate::batch::BatchOptions
//! [`BatchOptions::config`]: crate::batch::BatchOptions::config

use std::sync::Arc;

use cafemio_audit::AuditOptions;
use cafemio_cache::{StableHasher, StageCache};
use cafemio_fem::{CgOptions, SolverBackend};
use cafemio_idlz::{Capability, IdealizationSpec};
use cafemio_lint::{LintCode, LintConfig, Severity};

/// The session-wide analysis options shared by every front end: audit
/// mode, lint mode, capacity regime, solver backend, CG tuning, and the
/// optional stage cache.
///
/// Build one with the fluent setters and hand it to
/// [`PipelineBuilder::config`](crate::pipeline::PipelineBuilder::config),
/// [`BatchOptions::config`](crate::batch::BatchOptions::config), or
/// (via `BatchOptions`) `cafemio_serve::ServeOptions`.
///
/// # Examples
///
/// ```
/// use cafemio::SessionConfig;
/// use cafemio::audit::AuditOptions;
/// use cafemio::fem::SolverBackend;
///
/// let config = SessionConfig::new()
///     .audit(AuditOptions::strict())
///     .solver(SolverBackend::Skyline);
/// assert!(config.audit_options().is_some());
/// assert_eq!(config.solver_backend(), SolverBackend::Skyline);
///
/// // Any option that affects what a stage would produce moves the
/// // cache-key fingerprint:
/// assert_ne!(config.fingerprint(), SessionConfig::new().fingerprint());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SessionConfig {
    pub(crate) audit: Option<AuditOptions>,
    pub(crate) lint: Option<LintConfig>,
    pub(crate) capability: Capability,
    pub(crate) solver: SolverBackend,
    pub(crate) cg: CgOptions,
    pub(crate) cache: Option<Arc<StageCache>>,
}

impl SessionConfig {
    /// The documented defaults: no audit, no lint, historical capacity
    /// limits, band solver, default CG options, no cache.
    pub fn new() -> SessionConfig {
        SessionConfig::default()
    }

    /// Turns on audit mode: after every stage transition the session
    /// re-derives that stage's invariants (see [`cafemio_audit`]) and
    /// fails when a promise breaks. Off by default — the hot path pays
    /// nothing.
    pub fn audit(mut self, options: AuditOptions) -> SessionConfig {
        self.audit = Some(options);
        self
    }

    /// Turns on the static lint pass: decks are analyzed before
    /// idealization, failing the parse transition when any diagnostic
    /// reaches deny severity. Off by default.
    pub fn lint(mut self, config: LintConfig) -> SessionConfig {
        self.lint = Some(config);
        self
    }

    /// Sets the capacity regime. The default,
    /// [`Capability::Historical`], enforces the Table-2 card limits;
    /// [`Capability::LargeMesh`] lifts them — pair it with
    /// [`SolverBackend::SparseCg`] for meshes past the 1970 scale (see
    /// `docs/SOLVERS.md`).
    pub fn capability(mut self, capability: Capability) -> SessionConfig {
        self.capability = capability;
        self
    }

    /// Selects the linear solver backend. The default,
    /// [`SolverBackend::Band`], is behavior-identical to the historical
    /// API; use [`SolverBackend::SparseCg`] for large meshes.
    pub fn solver(mut self, solver: SolverBackend) -> SessionConfig {
        self.solver = solver;
        self
    }

    /// Sets the conjugate-gradient options used when the backend is
    /// [`SolverBackend::SparseCg`] (default: [`CgOptions::new`] — 1e-12
    /// relative residual, order-scaled iteration budget). Ignored by
    /// the direct backends.
    pub fn cg_options(mut self, cg: CgOptions) -> SessionConfig {
        self.cg = cg;
        self
    }

    /// Attaches a stage cache: every stage transition first looks up
    /// its content-addressed key in `store` and only computes on a
    /// miss. Share one `Arc<StageCache>` across sessions (and with the
    /// batch engine / serve front end) to reuse work across runs. Off
    /// by default.
    pub fn cache(mut self, store: Arc<StageCache>) -> SessionConfig {
        self.cache = Some(store);
        self
    }

    /// The audit options, when audit mode is on.
    pub fn audit_options(&self) -> Option<&AuditOptions> {
        self.audit.as_ref()
    }

    /// The lint configuration, when lint mode is on.
    pub fn lint_options(&self) -> Option<&LintConfig> {
        self.lint.as_ref()
    }

    /// The active capacity regime.
    pub fn capability_mode(&self) -> Capability {
        self.capability
    }

    /// The selected solver backend.
    pub fn solver_backend(&self) -> SolverBackend {
        self.solver
    }

    /// The conjugate-gradient options.
    pub fn cg_solver_options(&self) -> CgOptions {
        self.cg
    }

    /// The attached stage cache, when caching is on.
    pub fn cache_store(&self) -> Option<&Arc<StageCache>> {
        self.cache.as_ref()
    }

    /// The config half of every cache key: a stable digest of every
    /// option that changes what a stage would produce — capability,
    /// solver, CG tuning, the full audit tolerance set, and the
    /// per-code lint severities. The cache store itself is *not* part
    /// of the fingerprint (pointing two sessions at different stores
    /// must not re-key their content).
    ///
    /// Two configs with equal fingerprints produce bit-identical stage
    /// outputs for equal inputs; any option flip moves the fingerprint,
    /// so a stale artifact can never be served across a config change.
    pub fn fingerprint(&self) -> u64 {
        let mut hasher = StableHasher::new();
        hasher.write_u8(match self.capability {
            Capability::Historical => 0,
            Capability::LargeMesh => 1,
        });
        // 2 was the dense backend's; the others keep their values, so
        // every cache key stays as it was.
        hasher.write_u8(match self.solver {
            SolverBackend::Band => 0,
            SolverBackend::Skyline => 1,
            SolverBackend::SparseCg => 3,
        });
        hasher.write_f64(self.cg.tolerance);
        hasher.write_usize(self.cg.max_iterations);
        match &self.audit {
            None => hasher.write_bool(false),
            Some(audit) => {
                hasher.write_bool(true);
                hasher.write_f64(audit.residual_tolerance());
                hasher.write_f64(audit.equilibrium_tolerance());
                hasher.write_f64(audit.divergence_tolerance());
                hasher.write_f64(audit.iterative_divergence_tolerance());
                hasher.write_f64(audit.geometry_tolerance());
                hasher.write_bool(audit.differential());
                hasher.write_bool(audit.sparse_differential());
            }
        }
        match &self.lint {
            None => hasher.write_bool(false),
            Some(lint) => {
                hasher.write_bool(true);
                for code in LintCode::ALL {
                    hasher.write_u8(match lint.severity(code) {
                        Severity::Allow => 0,
                        Severity::Warn => 1,
                        Severity::Deny => 2,
                    });
                }
            }
        }
        hasher.finish()
    }

    /// Installs the session capability's limits on a spec. The
    /// historical default leaves specs untouched (they already default
    /// to Table 2, and callers may have set custom limits on purpose);
    /// `LargeMesh` lifts the limits on every spec so idealization and
    /// the D004 proximity lint both see the active regime.
    pub(crate) fn apply_capability(&self, spec: &mut IdealizationSpec) {
        if self.capability != Capability::Historical {
            spec.set_limits(self.capability.limits());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_historical_session() {
        let config = SessionConfig::new();
        assert!(config.audit_options().is_none());
        assert!(config.lint_options().is_none());
        assert_eq!(config.capability_mode(), Capability::Historical);
        assert_eq!(config.solver_backend(), SolverBackend::Band);
        assert_eq!(config.cg_solver_options(), CgOptions::new());
        assert!(config.cache_store().is_none());
    }

    #[test]
    fn fingerprint_is_stable_and_option_sensitive() {
        let base = SessionConfig::new().fingerprint();
        assert_eq!(base, SessionConfig::new().fingerprint());
        let flips = [
            SessionConfig::new().capability(Capability::LargeMesh),
            SessionConfig::new().solver(SolverBackend::SparseCg),
            SessionConfig::new().cg_options(CgOptions::new().with_tolerance(1e-10)),
            SessionConfig::new().audit(AuditOptions::new()),
            SessionConfig::new().audit(AuditOptions::strict()),
            SessionConfig::new().lint(LintConfig::new()),
        ];
        let mut seen = vec![base];
        for config in flips {
            let fp = config.fingerprint();
            assert!(!seen.contains(&fp), "option flip did not move fingerprint");
            seen.push(fp);
        }
    }

    #[test]
    fn lint_severity_overrides_move_the_fingerprint() {
        let plain = SessionConfig::new().lint(LintConfig::new()).fingerprint();
        let tightened = SessionConfig::new()
            .lint(LintConfig::new().with(LintCode::GridLimitProximity, Severity::Deny))
            .fingerprint();
        assert_ne!(plain, tightened);
    }

    #[test]
    fn the_cache_store_is_not_part_of_the_fingerprint() {
        let without = SessionConfig::new();
        let with = SessionConfig::new().cache(Arc::new(StageCache::new()));
        assert_eq!(without.fingerprint(), with.fingerprint());
    }
}
