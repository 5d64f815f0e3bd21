//! Large-mesh mode and sparse-CG backend integration tests: the
//! iterative solver against the direct ones across the whole catalog,
//! exact load scaling on every backend, the typed non-convergence
//! error, and the capability wiring that lifts the Table-2 card limits
//! (and keeps the D004 proximity lint honest about which limits are
//! active).

use cafemio::fem::{AnalysisKind, CgOptions, FemError, FemModel, Material, SolverBackend};
use cafemio::geom::Point;
use cafemio::idlz::{Capability, Idealization, IdealizationSpec, ShapeLine, Subdivision};
use cafemio::lint::{LintCode, LintConfig, Severity};
use cafemio::models::{catalog, plate};
use cafemio::pipeline::{PipelineBuilder, Stage, StageError};
use cafemio::SessionConfig;
use cafemio_bench::jobs::{near_limit_spec, standard_setup};

/// The iterative backend must agree with the skyline factorization to
/// the audit's iterative bound (1e-8) on every structure of the paper —
/// the property the sparse differential audit enforces one model at a
/// time, checked here across the full catalog.
#[test]
fn sparse_cg_matches_skyline_on_every_catalog_model() {
    for entry in catalog() {
        let result = Idealization::run(&(entry.spec)()).unwrap();
        let model = standard_setup(&result.mesh).unwrap();
        let skyline = model.solve_skyline().unwrap();
        let sparse = model
            .solve_sparse()
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let magnitude = skyline
            .dofs()
            .iter()
            .fold(0.0f64, |m, u| m.max(u.abs()))
            .max(f64::MIN_POSITIVE);
        let divergence = skyline
            .dofs()
            .iter()
            .zip(sparse.dofs())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
            / magnitude;
        assert!(
            divergence <= 1e-8,
            "{}: sparse-cg diverges from skyline by {divergence:e}",
            entry.name
        );
    }
}

/// A plane-stress `side × side` plate of unit cells (`models::plate`),
/// clamped along its bottom row and pulled up along its top row with
/// `load` per node — the load case of `perf`'s `large_plate`.
fn plate_model(side: i32, load: f64) -> FemModel {
    let mut spec = plate::spec(side, side, f64::from(side), f64::from(side));
    let mut options = spec.options();
    options.plots = false;
    spec.set_options(options);
    let mesh = Idealization::run(&spec).unwrap().mesh;
    let mut model = FemModel::new(
        mesh.clone(),
        AnalysisKind::PlaneStress { thickness: 1.0 },
        Material::isotropic(30.0e6, 0.3),
    );
    for (id, node) in mesh.nodes() {
        if node.position.y.abs() < 1e-9 {
            model.fix_both(id);
        }
        if (node.position.y - f64::from(side)).abs() < 1e-9 {
            model.add_force(id, 0.0, load);
        }
    }
    model
}

/// Scaling every load by 2^k scales every floating-point step of a
/// solve exactly, so the displacements scale bit for bit and CG takes
/// the same iterations — what `perf`'s `plate_load` relies on to vary
/// `large_plate`'s input without varying its work. `SparseCg` runs the
/// 8 × 8 plate on the complete factor and the 40 × 40 square on IC(0).
#[test]
fn power_of_two_load_scales_scale_every_backend_exactly() {
    use SolverBackend::{Band, Dense, Skyline, SparseCg};
    let cases: [(i32, &[SolverBackend], u64); 2] = [
        (8, &[Band, Skyline, Dense, SparseCg], 1),
        (40, &[SparseCg], 0),
    ];
    for (side, backends, complete_factors) in cases {
        for &backend in backends {
            let solve = |load: f64| {
                let model = plate_model(side, load);
                cafemio::instrument::record(|| model.solve_with(backend).unwrap())
            };
            let (base, base_report) = solve(10.0);
            let base_iterations = base_report.counter("fem.cg.iterations");
            if backend == SparseCg {
                assert_eq!(
                    base_report.counter("fem.cg.complete_factors"),
                    Some(complete_factors),
                    "{side}: preconditioner"
                );
            }
            for k in (-3..=3).filter(|&k| k != 0) {
                let scale = 2f64.powi(k);
                let (scaled, report) = solve(10.0 * scale);
                let iterations = report.counter("fem.cg.iterations");
                assert_eq!(iterations, base_iterations, "{side}: {backend:?} at 2^{k}");
                for (i, (u, v)) in base.dofs().iter().zip(scaled.dofs()).enumerate() {
                    assert_eq!(
                        (u * scale).to_bits(),
                        v.to_bits(),
                        "{side}: {backend:?} at 2^{k}, dof {i}"
                    );
                }
            }
        }
    }
}

/// A starved iteration budget, with a tolerance no double-precision
/// solve reaches, must fail with the typed [`FemError::CgNoConvergence`]
/// carrying the budget, the reached residual, and the tolerance — not a
/// panic, not a silently wrong answer. The 40 × 40 square runs on IC(0),
/// which needs far more than 10 iterations.
///
/// The complete factor reaches even this tolerance within the budget
/// on every stiffness-contrast strip whose pivots clear the direct
/// factors' 1e-10 floor (rigid halves up to 1e11 against a soft 30).
/// At 12 orders of contrast the rigid half floats on supports 1e12
/// times softer: its pivots fall to 7e-13 of their diagonals, below the
/// floor, and the solve reports the strip singular.
#[test]
fn cg_non_convergence_is_a_typed_error() {
    let starved = CgOptions::new()
        .with_tolerance(1e-30)
        .with_max_iterations(10);
    let model = plate_model(40, 10.0);
    let err = model.solve_sparse_with(&starved).unwrap_err();
    match err {
        FemError::CgNoConvergence {
            iterations,
            residual,
            tolerance,
        } => {
            assert_eq!(iterations, 10);
            assert!(residual > tolerance, "residual {residual:e}");
            assert_eq!(tolerance, 1e-30);
        }
        other => panic!("expected CgNoConvergence, got {other}"),
    }
    let message = model.solve_sparse_with(&starved).unwrap_err().to_string();
    assert!(
        message.starts_with("conjugate gradient did not converge in 10 iterations"),
        "{message}"
    );

    let mut spec = IdealizationSpec::new("ILL CONDITIONED STRIP");
    spec.add_subdivision(Subdivision::rectangular(1, (0, 0), (8, 2)).unwrap());
    spec.add_shape_line(
        1,
        ShapeLine::straight((0, 0), (8, 0), Point::new(0.0, 0.0), Point::new(8.0, 0.0)),
    );
    spec.add_shape_line(
        1,
        ShapeLine::straight((0, 2), (8, 2), Point::new(0.0, 2.0), Point::new(8.0, 2.0)),
    );
    let result = Idealization::run(&spec).unwrap();
    let mut strip = standard_setup(&result.mesh).unwrap();
    for (id, _) in result.mesh.elements() {
        if result.mesh.triangle(id).centroid().x > 4.0 {
            strip.set_element_material(id, Material::isotropic(3.0e13, 0.3));
        } else {
            strip.set_element_material(id, Material::isotropic(30.0, 0.3));
        }
    }
    let outcome = strip.solve_sparse_with(&starved);
    assert!(
        matches!(outcome, Err(FemError::SingularMatrix { .. })),
        "{outcome:?}"
    );
}

/// A 20 × 20 plane-strain unit square held at one node only can still
/// spin about it. That rigid rotation eliminates to a round-off pivot,
/// 1e-14 of its diagonal here, not to an exact zero, and a bare
/// `d_j <= 0` test let `Band` and `Skyline` solve it with displacements
/// of order 1e9. The relative pivot floor rejects it on every factor,
/// `SparseCg`'s complete factor included, at the same equation.
#[test]
fn a_model_held_at_one_node_is_singular_on_every_factor() {
    let mut spec = plate::spec(20, 20, 1.0, 1.0);
    let mut options = spec.options();
    options.plots = false;
    spec.set_options(options);
    let mesh = Idealization::run(&spec).unwrap().mesh;
    let at = |x: f64, y: f64| {
        mesh.nodes()
            .find(|(_, node)| {
                (node.position.x - x).abs() < 1e-9 && (node.position.y - y).abs() < 1e-9
            })
            .map(|(id, _)| id)
            .expect("grid node")
    };
    let mut model = FemModel::new(
        mesh.clone(),
        AnalysisKind::PlaneStrain,
        Material::isotropic(30.0e6, 0.3),
    );
    model.fix_both(at(0.2, 0.2));
    model.add_force(at(1.0, 1.0), 0.0, -1000.0);
    // The rotation is the last mode left when elimination reaches the
    // last equation.
    let last = 2 * mesh.node_count() - 1;
    for backend in [SolverBackend::Band, SolverBackend::Skyline, SolverBackend::SparseCg] {
        let outcome = model.solve_with(backend);
        assert!(
            matches!(outcome, Err(FemError::SingularMatrix { equation }) if equation == last),
            "{backend:?}: {outcome:?}"
        );
    }
}

#[test]
fn d004_reads_the_active_capability_limits() {
    let deny_proximity = LintConfig::new().with(LintCode::GridLimitProximity, Severity::Deny);

    // Historical limits: 38 is within 10 % of Table 2's 40 — denied.
    let err = PipelineBuilder::new()
        .config(SessionConfig::new().lint(deny_proximity.clone()))
        .specs(vec![near_limit_spec()])
        .idealize()
        .unwrap_err();
    assert_eq!(err.stage(), Stage::DeckParse);
    match err.source_error() {
        StageError::Lint(lint) => {
            assert!(lint
                .diagnostics
                .iter()
                .all(|d| d.code == LintCode::GridLimitProximity));
        }
        other => panic!("expected a lint denial, got {other:?}"),
    }

    // Large-mesh limits: nowhere near i32::MAX — clean, no false warning.
    let idealized = PipelineBuilder::new()
        .config(
            SessionConfig::new()
                .capability(Capability::LargeMesh)
                .lint(deny_proximity),
        )
        .specs(vec![near_limit_spec()])
        .idealize()
        .unwrap();
    assert_eq!(idealized.sets().len(), 1);
}

/// A spec beyond Table 2 must fail idealization under the default
/// (historical) capability and succeed under `LargeMesh`, with the
/// sparse backend solving what the direct path never could in 1970.
#[test]
fn large_mesh_capability_lifts_the_table2_ceiling() {
    let mut spec = IdealizationSpec::new("BEYOND TABLE 2");
    // 50 > max_grid_x = 40, and 51 × 11 = 561 nodes > 500.
    spec.add_subdivision(Subdivision::rectangular(1, (0, 0), (50, 10)).unwrap());
    spec.add_shape_line(
        1,
        ShapeLine::straight((0, 0), (50, 0), Point::new(0.0, 0.0), Point::new(50.0, 0.0)),
    );
    spec.add_shape_line(
        1,
        ShapeLine::straight(
            (0, 10),
            (50, 10),
            Point::new(0.0, 10.0),
            Point::new(50.0, 10.0),
        ),
    );

    let err = PipelineBuilder::new()
        .specs(vec![spec.clone()])
        .idealize()
        .unwrap_err();
    assert_eq!(err.stage(), Stage::Idealize);

    let solved = PipelineBuilder::new()
        .config(
            SessionConfig::new()
                .capability(Capability::LargeMesh)
                .solver(SolverBackend::SparseCg),
        )
        .specs(vec![spec])
        .idealize()
        .unwrap()
        .setup(standard_setup)
        .unwrap()
        .solve()
        .unwrap();
    let reference = PipelineBuilder::new()
        .config(SessionConfig::new().capability(Capability::LargeMesh))
        .specs(vec![near_limit_spec()])
        .idealize()
        .unwrap()
        .setup(standard_setup)
        .unwrap()
        .solve()
        .unwrap();
    // Both sessions solved; the sparse one on a mesh the historical
    // limits reject outright.
    assert!(solved.cases()[0].solution().max_displacement() > 0.0);
    assert!(reference.cases()[0].solution().max_displacement() > 0.0);
}
