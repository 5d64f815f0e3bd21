//! `large_plate`: one large 16-band plate deck → SVG under the
//! large-mesh capability and the sparse CG solver.

use std::time::Instant;

use cafemio::audit::{check_solution, AuditOptions};
use cafemio::fem::{AnalysisKind, CgOptions, FemError, FemModel, Material, SolverBackend};
use cafemio::idlz::Capability;
use cafemio::mesh::TriMesh;
use cafemio::ospl::{ContourOptions, OsplLimits};
use cafemio::plotter::render_svg;
use cafemio::SessionConfig;

use crate::drive::{builder, cold_phase, digest_svgs, finish, session, set_up, Direct};
use crate::inputs::{plate_deck, plate_load, PLATE_BANDS};
use crate::report::Report;

/// Timed plates per `--seconds` (each takes about 80 ms on the
/// reference machine); at least three are always timed.
pub const PLATES_PER_SECOND: f64 = 12.0;

/// Clamps the bottom row and pulls the top row up with `load` per node.
fn plate_setup(load: f64) -> impl Fn(&TriMesh) -> Result<FemModel, FemError> {
    move |mesh: &TriMesh| {
        let top = mesh
            .nodes()
            .map(|(_, n)| n.position.y)
            .fold(f64::NEG_INFINITY, f64::max);
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
                model.add_force(id, 0.0, load);
            }
        }
        Ok(model)
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::new("large_plate", seed, seconds, trace);
    let prepare = Instant::now();
    let direct = Direct {
        capability: Capability::LargeMesh,
        backend: SolverBackend::SparseCg,
        cg: CgOptions::new(),
        options: ContourOptions::new().limits(OsplLimits::unbounded()),
    };
    let large = || {
        builder(
            SessionConfig::new()
                .capability(direct.capability)
                .solver(direct.backend)
                .cg_options(direct.cg),
            direct.options.clone(),
        )
    };
    let deck = plate_deck(PLATE_BANDS)?;
    let warm_deck = plate_deck(1)?;
    let setup = plate_setup(plate_load(seed));

    // The golden SVG comes from an uncached run whose solution must also
    // pass the residual and equilibrium audit (relative residual <= 1e-8).
    let solved = large()
        .parse(&deck)
        .and_then(|parsed| parsed.idealize())
        .and_then(|idealized| idealized.setup(&setup))
        .and_then(|ready| ready.solve())
        .map_err(|e| format!("golden plate: {e}"))?;
    for case in solved.cases() {
        check_solution(case.model(), case.solution(), &AuditOptions::new())
            .map_err(|e| format!("golden plate fails the solution audit: {e}"))?;
    }
    let plots = solved
        .recover()
        .and_then(|recovered| recovered.contour())
        .map_err(|e| format!("golden plate: {e}"))?;
    let svgs: Vec<String> = plots
        .iter()
        .map(|plot| render_svg(&plot.contours.frame))
        .collect();
    let golden = digest_svgs(&svgs);
    drop((plots, svgs));
    let plates = ((seconds * PLATES_PER_SECOND).round() as usize).max(3);
    let ops = vec![(deck.as_str(), golden); plates];
    report.set_single("prepare_s", prepare.elapsed().as_secs_f64());

    // Set-up warms the same path on a one-band plate, a sixteenth of
    // the work.
    let mut make = || {
        let pipeline = large();
        session(&pipeline, &warm_deck, &setup)?;
        Ok(pipeline)
    };
    let pipeline = set_up(&mut report, &mut make, &mut drop)?;
    cold_phase(&mut report, &pipeline, &direct, &setup, &ops, 1);
    set_up(&mut report, &mut make, &mut drop).map(drop)?;
    finish(&mut report);
    Ok(report)
}
