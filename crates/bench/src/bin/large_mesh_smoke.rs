//! CI large-mesh smoke: proves the sparse-CG path clears the 1970 scale
//! ceiling.
//!
//! Builds a ≥100 000-element plate deck (beyond every Table-2 card
//! limit), idealizes and solves it through the staged pipeline under
//! [`Capability::LargeMesh`] with the [`SolverBackend::SparseCg`]
//! backend, audits the relative residual against the standard 1e-8
//! bound, and writes the per-stage wall-clock timings and `fem.cg.*`
//! counters to `BENCH_sparse.json` (path overridable as the first
//! argument). The summary line names the preconditioner that ran, read
//! from the `fem.cg.complete_factors` and `fem.cg.ic0_fallbacks`
//! counters. Exits nonzero when the mesh is too small, the audit fails,
//! or a stage errors.

use std::process::ExitCode;
use std::time::Instant;

use cafemio::audit::{check_solution, AuditOptions};
use cafemio::fem::{AnalysisKind, FemModel, Material, SolverBackend};
use cafemio::geom::Point;
use cafemio::idlz::{Capability, IdealizationSpec, ShapeLine, Subdivision};
use cafemio::instrument::{set_enabled, take_report};
use cafemio::pipeline::PipelineBuilder;
use cafemio::SessionConfig;

/// Grid width of every subdivision (and of the whole plate).
const WIDTH: i32 = 60;
/// Grid height of one subdivision.
const BAND_HEIGHT: i32 = 60;
/// Number of subdivisions stacked vertically.
const BANDS: i32 = 16;
/// The element count the smoke must reach to prove large-mesh capacity.
const MIN_ELEMENTS: usize = 100_000;

/// A tall plate: `BANDS` rectangular subdivisions stacked vertically,
/// each mapped identically onto physical space (one grid unit = one
/// length unit), so adjacent bands share their boundary row and the
/// reform stage stitches them into one mesh. `2·WIDTH·BAND_HEIGHT`
/// elements per band — 115 200 total with the compiled-in constants,
/// far beyond Table 2's 850.
fn tall_plate_spec() -> IdealizationSpec {
    let mut spec = IdealizationSpec::new("LARGE MESH SMOKE PLATE");
    let mut options = spec.options();
    // Plots and punch output would dwarf the solve at this scale, and
    // the row-major numbering of a vertical stack is already narrow.
    options.plots = false;
    options.punch = false;
    options.renumber = false;
    spec.set_options(options);
    for band in 0..BANDS {
        let id = (band + 1) as usize;
        let (lo, hi) = (band * BAND_HEIGHT, (band + 1) * BAND_HEIGHT);
        // invariant: compiled-in grid constants satisfy the subdivision rules.
        spec.add_subdivision(
            Subdivision::rectangular(id, (0, lo), (WIDTH, hi)).expect("valid band"),
        );
        for l in [lo, hi] {
            spec.add_shape_line(
                id,
                ShapeLine::straight(
                    (0, l),
                    (WIDTH, l),
                    Point::new(0.0, l as f64),
                    Point::new(WIDTH as f64, l as f64),
                ),
            );
        }
    }
    spec
}

fn run() -> Result<String, String> {
    let spec = tall_plate_spec();
    set_enabled(true);
    let started = Instant::now();
    let top = (BANDS * BAND_HEIGHT) as f64;
    let solved = PipelineBuilder::new()
        .config(
            SessionConfig::new()
                .capability(Capability::LargeMesh)
                .solver(SolverBackend::SparseCg),
        )
        .specs(vec![spec])
        .idealize()
        .map_err(|e| format!("idealize failed: {e}"))?
        .setup(|mesh| {
            let mut model = FemModel::new(
                mesh.clone(),
                AnalysisKind::PlaneStress { thickness: 1.0 },
                Material::isotropic(30.0e6, 0.3),
            );
            for (id, node) in mesh.nodes() {
                if node.position.y.abs() < 1e-9 {
                    model.fix_both(id);
                }
                if (node.position.y - top).abs() < 1e-9 {
                    model.add_force(id, 0.0, 10.0);
                }
            }
            Ok(model)
        })
        .map_err(|e| format!("model setup failed: {e}"))?
        .solve()
        .map_err(|e| format!("sparse solve failed: {e}"))?;

    let case = &solved.cases()[0];
    let elements = case.model().mesh().element_count();
    if elements < MIN_ELEMENTS {
        return Err(format!(
            "mesh has {elements} elements, below the {MIN_ELEMENTS} large-mesh floor"
        ));
    }
    // The residual audit (‖K·u − f‖ / ‖f‖ ≤ 1e-8 plus global
    // equilibrium); the cross-solver differential stays off — a dense
    // re-solve at this scale is exactly what the sparse backend exists
    // to avoid.
    let audit = AuditOptions::new();
    check_solution(case.model(), case.solution(), &audit)
        .map_err(|e| format!("residual audit failed: {e}"))?;
    let elapsed = started.elapsed();
    set_enabled(false);

    let report = take_report();
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sparse.json".into());
    std::fs::write(&path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;

    let span_ms = |name: &str| {
        report
            .spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.nanos as f64 / 1e6)
            .unwrap_or(0.0)
    };
    let iterations = report.counter("fem.cg.iterations").unwrap_or(0);
    if iterations == 0 {
        return Err("fem.cg.iterations counter missing or zero".into());
    }
    let fallbacks = report.counter("fem.cg.ic0_fallbacks").unwrap_or(0);
    let preconditioner = if report.counter("fem.cg.complete_factors").unwrap_or(0) > 0 {
        "complete LDLᵀ"
    } else if fallbacks > 0 {
        "Jacobi"
    } else {
        "IC(0)"
    };
    Ok(format!(
        "large-mesh-smoke: {} nodes, {elements} elements ok in {:.1} s \
         (assemble {:.0} ms, {preconditioner} factor {:.0} ms, cg {:.0} ms, \
         {iterations} iterations, residual {} femto, {} nonzeros, \
         {fallbacks} IC(0) fall-backs) -> {path}",
        case.model().mesh().node_count(),
        elapsed.as_secs_f64(),
        span_ms("fem.assemble"),
        span_ms("fem.cg.factor"),
        span_ms("fem.cg.iterate"),
        report.counter("fem.cg.residual_femto").unwrap_or(0),
        report.counter("fem.cg.nonzeros").unwrap_or(0),
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("large-mesh-smoke: {message}");
            ExitCode::FAILURE
        }
    }
}
