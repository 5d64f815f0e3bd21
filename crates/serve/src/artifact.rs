//! Response artifacts: the typed error → status mapping and the
//! deterministic JSON bodies the service returns.
//!
//! Everything here is a pure function of the pipeline's own result types,
//! and the success summary deliberately contains **no timings and no
//! server state** — two runs of the same deck through the same options
//! produce byte-identical bodies, which is what lets the load generator
//! diff service responses against direct [`cafemio::batch`] runs.

use cafemio::batch::AdmissionError;
use cafemio::fem::FemError;
use cafemio::lint::LintReport;
use cafemio::pipeline::{PipelineError, Stage, StageError, StressPlot};

/// Escapes a string for inclusion in a JSON document.
pub(crate) fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The HTTP status a pipeline failure maps to.
///
/// * **400** — the deck never parsed: card-level or deck-structure errors
///   attributed to [`Stage::DeckParse`]. The client sent text that is not
///   a deck.
/// * **422** — the deck parsed but the analysis refused it: lint denials,
///   audit violations, solver failures (including
///   [`FemError::CgNoConvergence`] and [`FemError::CgBreakdown`]),
///   idealization or contour errors. The request was well-formed; the
///   content was not processable.
pub fn status_for_error(error: &PipelineError) -> u16 {
    match (error.stage(), error.source_error()) {
        (Stage::DeckParse, StageError::Card(_)) | (Stage::DeckParse, StageError::Idlz(_)) => 400,
        _ => 422,
    }
}

/// A stable machine-readable label for the error class, used as the
/// `kind` field of JSON error bodies and asserted by the golden
/// status-mapping tests.
pub fn error_kind(error: &PipelineError) -> &'static str {
    match error.source_error() {
        StageError::Card(_) => "deck_parse",
        StageError::Idlz(_) if error.stage() == Stage::DeckParse => "deck_parse",
        StageError::Idlz(_) => "idealization",
        StageError::Fem(FemError::CgNoConvergence { .. }) => "cg_no_convergence",
        StageError::Fem(FemError::CgBreakdown { .. }) => "cg_breakdown",
        StageError::Fem(_) => "analysis",
        StageError::Ospl(_) => "contour",
        StageError::Audit(_) => "audit_violation",
        StageError::Lint(_) => "lint_denied",
        StageError::Probe(_) => "contour",
    }
}

/// The JSON error body every non-200 response carries:
/// `{"error": {"status", "kind", "stage"?, "message"}}`.
pub fn error_body(status: u16, kind: &str, stage: Option<&str>, message: &str) -> String {
    let mut out = String::from("{\n  \"error\": {");
    out.push_str(&format!("\n    \"status\": {status},"));
    out.push_str(&format!("\n    \"kind\": {},", json_escape(kind)));
    if let Some(stage) = stage {
        out.push_str(&format!("\n    \"stage\": {},", json_escape(stage)));
    }
    out.push_str(&format!("\n    \"message\": {}\n  }}\n}}\n", json_escape(message)));
    out
}

/// The error body for a pipeline failure, carrying its stage attribution.
pub fn pipeline_error_body(error: &PipelineError) -> String {
    error_body(
        status_for_error(error),
        error_kind(error),
        Some(&error.stage().to_string()),
        &error.to_string(),
    )
}

/// The error body for an admission-control rejection (always 503): the
/// service is saturated or draining, and the client should retry against
/// a live instance.
pub fn admission_error_body(error: &AdmissionError) -> String {
    let kind = match error {
        AdmissionError::Saturated { .. } => "saturated",
        AdmissionError::Draining => "draining",
    };
    error_body(503, kind, None, &error.to_string())
}

/// The lint report as a JSON array of diagnostics, deterministic in deck
/// order. `[]` for a clean report. Each entry carries the full source
/// span (card, field, keypunch columns) and, when the diagnostic has a
/// fix, its label and whether `decklint --fix` can apply it mechanically.
pub fn lint_json(report: &LintReport) -> String {
    let mut out = String::from("[");
    for (i, d) in report.diagnostics().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"code\": {}, \"severity\": {}, ",
            json_escape(d.code.code()),
            json_escape(&d.severity.to_string())
        ));
        match d.span.card {
            Some(card) => out.push_str(&format!("\"card\": {card}, ")),
            None => out.push_str("\"card\": null, "),
        }
        match d.span.field {
            Some(field) => out.push_str(&format!("\"field\": {field}, ")),
            None => out.push_str("\"field\": null, "),
        }
        match d.span.columns {
            Some((from, to)) => out.push_str(&format!("\"columns\": [{from}, {to}], ")),
            None => out.push_str("\"columns\": null, "),
        }
        match &d.fix {
            Some(fix) => out.push_str(&format!(
                "\"fix\": {}, \"machine_fixable\": {}, ",
                json_escape(&fix.label),
                d.is_machine_fixable()
            )),
            None => out.push_str("\"fix\": null, \"machine_fixable\": false, "),
        }
        out.push_str(&format!("\"message\": {}}}", json_escape(&d.message)));
    }
    if !report.diagnostics().is_empty() {
        out.push_str("\n  ");
    }
    out.push(']');
    out
}

/// The `POST /lint` success body: the applied fixes (code, label, pass),
/// the residual diagnostics of the repaired deck, and the repaired deck
/// text itself. Deterministic — a pure function of the fix outcome.
pub fn lint_fix_body(name: &str, outcome: &cafemio::lint::FixOutcome) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"name\": {},\n", json_escape(name)));
    out.push_str(&format!("  \"fixes_applied\": {},\n", outcome.applied.len()));
    out.push_str(&format!("  \"passes\": {},\n", outcome.passes));
    out.push_str(&format!("  \"clean\": {},\n", outcome.report.is_clean()));
    out.push_str("  \"applied\": [");
    for (i, fix) in outcome.applied.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"code\": {}, \"label\": {}, \"pass\": {}}}",
            json_escape(fix.code.code()),
            json_escape(&fix.label),
            fix.pass
        ));
    }
    if !outcome.applied.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str(&format!("  \"lint\": {},\n", lint_json(&outcome.report)));
    out.push_str(&format!("  \"deck\": {}\n", json_escape(&outcome.text)));
    out.push_str("}\n");
    out
}

/// The deterministic per-job success summary: one entry per data set with
/// the contoured field's range and the isogram statistics, plus the lint
/// diagnostics (if linting ran). Byte-identical across runs and across
/// service/direct execution of the same deck.
pub fn analysis_summary_json(
    name: &str,
    plots: &[StressPlot],
    lint: Option<&LintReport>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"name\": {},\n", json_escape(name)));
    out.push_str(&format!("  \"data_sets\": {},\n", plots.len()));
    out.push_str("  \"plots\": [");
    for (i, plot) in plots.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (min, max) = plot.field.min_max().unwrap_or((0.0, 0.0));
        out.push_str(&format!(
            "\n    {{\"data_set\": {i}, \"field\": {}, \"nodes\": {}, \
             \"field_min\": {min}, \"field_max\": {max}, \"interval\": {}, \
             \"levels\": {}, \"contours\": {}, \"segments\": {}}}",
            json_escape(plot.field.name()),
            plot.field.len(),
            plot.contours.interval,
            plot.contours.levels.len(),
            plot.contours.drawn_contours(),
            plot.contours.segment_count()
        ));
    }
    if !plots.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    match lint {
        Some(report) => out.push_str(&format!("  \"lint\": {}\n", lint_json(report))),
        None => out.push_str("  \"lint\": null\n"),
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafemio::fem::{CgOptions, SolverBackend};
    use cafemio::lint::LintConfig;
    use cafemio::pipeline::{PipelineBuilder, StressComponent};
    use cafemio::SessionConfig;

    /// The first catalog structure whose deck round-trips: written to
    /// card text and proven parseable again.
    fn plate_deck() -> String {
        cafemio::models::catalog()
            .into_iter()
            .find_map(|entry| {
                let text = cafemio::idlz::deck::write_deck(&[(entry.spec)()]).ok()?.to_text();
                PipelineBuilder::new().parse(&text).ok()?;
                Some(text)
            })
            .expect("at least one catalog deck round-trips")
    }

    #[test]
    fn parse_failures_map_to_400() {
        let err = PipelineBuilder::new()
            .parse("THIS IS NOT A DECK")
            .expect_err("not a deck");
        assert_eq!(status_for_error(&err), 400);
        assert_eq!(error_kind(&err), "deck_parse");
        let body = pipeline_error_body(&err);
        assert!(body.contains("\"status\": 400"), "{body}");
        assert!(body.contains("\"kind\": \"deck_parse\""), "{body}");
    }

    #[test]
    fn cg_no_convergence_maps_to_422() {
        let deck = plate_deck();
        let err = PipelineBuilder::new()
            .component(StressComponent::Effective)
            .config(
                SessionConfig::new()
                    .solver(SolverBackend::SparseCg)
                    .cg_options(CgOptions::new().with_max_iterations(1)),
            )
            .parse(&deck)
            .and_then(|p| p.idealize())
            .and_then(|i| i.setup(crate::default_setup))
            .and_then(|m| m.solve())
            .expect_err("one CG iteration cannot converge");
        assert_eq!(status_for_error(&err), 422);
        assert_eq!(error_kind(&err), "cg_no_convergence");

        // An under-constrained model on the IC(0) path breaks CG down
        // instead (tests/sparse.rs drives one); the status and kind
        // depend on the error alone.
        let err = PipelineError::at(
            Stage::Solve,
            StageError::Fem(FemError::CgBreakdown {
                iteration: 73,
                curvature: -1.9e15,
            }),
        );
        assert_eq!(status_for_error(&err), 422);
        assert_eq!(error_kind(&err), "cg_breakdown");
        let body = pipeline_error_body(&err);
        assert!(body.contains("\"kind\": \"cg_breakdown\""), "{body}");
        assert!(body.contains("broke down at iteration 73"), "{body}");
    }

    #[test]
    fn lint_denials_map_to_422() {
        let case = cafemio::lint::golden_cases()
            .into_iter()
            .find(|c| c.code == cafemio::lint::LintCode::DuplicateSubdivisionId)
            .expect("golden corpus covers every code");
        let err = PipelineBuilder::new()
            .config(SessionConfig::new().lint(LintConfig::new()))
            .parse(case.deck)
            .expect_err("duplicate subdivision id is deny by default");
        assert_eq!(status_for_error(&err), 422);
        assert_eq!(error_kind(&err), "lint_denied");
    }

    #[test]
    fn summary_is_deterministic_and_reports_contours() {
        let deck = plate_deck();
        let run = || {
            let plots = PipelineBuilder::new()
                .component(StressComponent::Effective)
                .config(SessionConfig::new().lint(LintConfig::new()))
                .parse(&deck)
                .and_then(|p| {
                    let lint = p.lint_report().cloned();
                    p.idealize()
                        .and_then(|i| i.setup(crate::default_setup))
                        .and_then(|m| m.solve())
                        .and_then(|s| s.recover())
                        .and_then(|r| r.contour())
                        .map(|plots| (plots, lint))
                })
                .expect("catalog deck analyzes");
            analysis_summary_json("plate", &plots.0, plots.1.as_ref())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.contains("\"data_sets\": 1"), "{a}");
        assert!(a.contains("\"contours\":"), "{a}");
    }

    #[test]
    fn json_escape_handles_control_and_quote_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_escape("\u{1}"), "\"\\u0001\"");
    }
}
