//! Determinism and reproducibility: the same input deck must produce the
//! same mesh, the same punched cards, and the same plot command stream,
//! run after run — the property that made card-driven batch workflows
//! auditable.

use cafemio::idlz::deck::{punch_element_cards, punch_nodal_cards, write_deck};
use cafemio::idlz::Idealization;
use cafemio::models::{catalog, joint};
use cafemio::plotter::render_svg;
use cafemio::prelude::*;

#[test]
fn idealization_is_deterministic() {
    for entry in catalog() {
        let a = Idealization::run(&(entry.spec)()).unwrap();
        let b = Idealization::run(&(entry.spec)()).unwrap();
        assert_eq!(a.mesh, b.mesh, "{}", entry.name);
        assert_eq!(a.stats.bandwidth_after, b.stats.bandwidth_after);
        assert_eq!(a.reform.swaps, b.reform.swaps);
    }
}

#[test]
fn punched_decks_are_byte_identical() {
    let spec = joint::spec();
    let run = |spec: &IdealizationSpec| {
        let result = Idealization::run(spec).unwrap();
        let nodal = punch_nodal_cards(&result.mesh, spec.nodal_format()).unwrap();
        let element = punch_element_cards(&result.mesh, spec.element_format()).unwrap();
        (nodal.to_text(), element.to_text())
    };
    let (n1, e1) = run(&spec);
    let (n2, e2) = run(&spec);
    assert_eq!(n1, n2);
    assert_eq!(e1, e2);
}

#[test]
fn input_decks_are_byte_identical() {
    let spec = joint::spec();
    let d1 = write_deck(std::slice::from_ref(&spec)).unwrap().to_text();
    let d2 = write_deck(std::slice::from_ref(&spec)).unwrap().to_text();
    assert_eq!(d1, d2);
}

#[test]
fn plot_streams_are_deterministic() {
    let entry = &catalog()[1];
    let a = Idealization::run(&(entry.spec)()).unwrap();
    let b = Idealization::run(&(entry.spec)()).unwrap();
    for (fa, fb) in a.frames.iter().zip(&b.frames) {
        assert_eq!(fa.commands(), fb.commands());
        assert_eq!(render_svg(fa), render_svg(fb));
    }
}

#[test]
fn contours_invariant_under_renumbering() {
    // Isograms are geometric: renumbering the nodes (and carrying the
    // field along) must not change any contour's level set.
    let result = Idealization::run(&joint::spec()).unwrap();
    let model = joint::pressure_model(&result.mesh);
    let solution = model.solve().unwrap();
    let stresses = StressField::compute(&model, &solution).unwrap();
    let field = stresses.effective();
    let before = Ospl::run(&result.mesh, &field, &ContourOptions::new()).unwrap();

    let mut mesh = result.mesh.clone();
    let mut field = field.clone();
    let perm = cafemio::mesh::reverse_cuthill_mckee(&mesh);
    mesh.renumber_nodes(&perm);
    field.renumber(&perm);
    let after = Ospl::run(&mesh, &field, &ContourOptions::new()).unwrap();

    assert_eq!(before.levels, after.levels);
    for (a, b) in before.isograms.iter().zip(&after.isograms) {
        assert_eq!(a.segments.len(), b.segments.len(), "level {}", a.level);
        assert!((a.length() - b.length()).abs() < 1e-9, "level {}", a.level);
    }
}

/// Runs `f` twice — once with the parallel hot paths vetoed, once with
/// them enabled — and returns both results. Always re-enables
/// parallelism afterwards.
fn serial_then_parallel<T>(mut f: impl FnMut() -> T) -> (T, T) {
    use cafemio::instrument::par::set_parallel;
    // The veto is global: hold a lock so concurrently-running tests
    // can't re-enable parallelism mid-comparison.
    static VETO: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = VETO.lock().unwrap();
    set_parallel(false);
    let serial = f();
    set_parallel(true);
    let parallel = f();
    (serial, parallel)
}

#[test]
fn parallel_assembly_is_bit_identical_to_serial() {
    // The element-stiffness fan-out must not change the result at all:
    // stiffness matrices are computed in parallel but scattered serially
    // in element order, so every floating-point addition happens in the
    // same order as the serial run.
    let result = Idealization::run(&joint::spec()).unwrap();
    let model = joint::pressure_model(&result.mesh);
    let (serial, parallel) = serial_then_parallel(|| model.solve().unwrap());
    assert_eq!(serial.dofs().len(), parallel.dofs().len());
    for (i, (s, p)) in serial.dofs().iter().zip(parallel.dofs()).enumerate() {
        assert_eq!(s.to_bits(), p.to_bits(), "dof {i}: {s} vs {p}");
    }
    // The skyline path fans out the same way.
    let (serial, parallel) = serial_then_parallel(|| model.solve_skyline().unwrap());
    for (s, p) in serial.dofs().iter().zip(parallel.dofs()) {
        assert_eq!(s.to_bits(), p.to_bits());
    }
}

#[test]
fn parallel_isogram_extraction_is_bit_identical_to_serial() {
    // Levels are traced in parallel but each level sweeps the elements
    // in the same order as the serial loop, so every crossing point is
    // computed identically.
    let result = Idealization::run(&joint::spec()).unwrap();
    let model = joint::pressure_model(&result.mesh);
    let solution = model.solve().unwrap();
    let stresses = StressField::compute(&model, &solution).unwrap();
    let field = stresses.effective();
    let (serial, parallel) =
        serial_then_parallel(|| Ospl::run(&result.mesh, &field, &ContourOptions::new()).unwrap());
    assert_eq!(serial.levels, parallel.levels);
    assert_eq!(serial.isograms.len(), parallel.isograms.len());
    for (a, b) in serial.isograms.iter().zip(&parallel.isograms) {
        assert_eq!(a.segments.len(), b.segments.len(), "level {}", a.level);
        for (sa, sb) in a.segments.iter().zip(&b.segments) {
            assert_eq!(sa.a.x.to_bits(), sb.a.x.to_bits());
            assert_eq!(sa.a.y.to_bits(), sb.a.y.to_bits());
            assert_eq!(sa.b.x.to_bits(), sb.b.x.to_bits());
            assert_eq!(sa.b.y.to_bits(), sb.b.y.to_bits());
            assert_eq!(sa.a_on_boundary, sb.a_on_boundary);
            assert_eq!(sa.b_on_boundary, sb.b_on_boundary);
        }
    }
}

#[test]
fn solver_is_deterministic() {
    let result = Idealization::run(&joint::spec()).unwrap();
    let model = joint::pressure_model(&result.mesh);
    let s1 = model.solve().unwrap();
    let s2 = model.solve().unwrap();
    assert_eq!(s1.dofs(), s2.dofs());
    // All three solver paths agree to tight tolerance.
    let sky = model.solve_skyline().unwrap();
    let dense = model.solve_dense().unwrap();
    let scale = s1.max_displacement();
    for i in 0..s1.dofs().len() {
        assert!((s1.dofs()[i] - sky.dofs()[i]).abs() < 1e-9 * scale);
        assert!((s1.dofs()[i] - dense.dofs()[i]).abs() < 1e-8 * scale);
    }
}

/// Runs `f` with telemetry on and returns its result together with the
/// `fem.cg.iterations` counter it published.
fn with_cg_iterations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    use cafemio::instrument::{set_enabled, take_report};
    set_enabled(true);
    let _ = take_report();
    let out = f();
    let iterations = take_report().counter("fem.cg.iterations");
    set_enabled(false);
    (
        out,
        iterations.expect("a sparse solve publishes fem.cg.iterations"),
    )
}

/// A 1 600-element plate past the Table-2 limits (eight 10 × 10
/// bands), clamped along the bottom and pulled up along the top, solved
/// through a `LargeMesh` + `SparseCg` session.
fn large_plate_solution() -> Vec<f64> {
    use cafemio::fem::{AnalysisKind, FemModel, Material, SolverBackend};
    use cafemio::geom::Point;
    use cafemio::idlz::{Capability, ShapeLine, Subdivision};
    use cafemio::SessionConfig;
    let mut spec = IdealizationSpec::new("DETERMINISM PLATE");
    let mut options = spec.options();
    options.plots = false;
    options.punch = false;
    spec.set_options(options);
    for band in 0..8 {
        let id = band as usize + 1;
        let (lo, hi) = (band * 10, (band + 1) * 10);
        spec.add_subdivision(Subdivision::rectangular(id, (0, lo), (10, hi)).unwrap());
        for l in [lo, hi] {
            let y = f64::from(l);
            spec.add_shape_line(
                id,
                ShapeLine::straight((0, l), (10, l), Point::new(0.0, y), Point::new(10.0, y)),
            );
        }
    }
    let solved = cafemio::pipeline::PipelineBuilder::new()
        .config(
            SessionConfig::new()
                .capability(Capability::LargeMesh)
                .solver(SolverBackend::SparseCg),
        )
        .specs(vec![spec])
        .idealize()
        .unwrap()
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
                if (node.position.y - 80.0).abs() < 1e-9 {
                    model.add_force(id, 0.0, 10.0);
                }
            }
            Ok(model)
        })
        .unwrap()
        .solve()
        .unwrap();
    solved.cases()[0].solution().dofs().to_vec()
}

/// Asserts a serial and a parallel solve agree bit for bit and took the
/// same number of CG iterations.
fn assert_same_solve(name: &str, serial: (Vec<f64>, u64), parallel: (Vec<f64>, u64)) {
    assert_eq!(serial.1, parallel.1, "{name}: CG iterations");
    assert_eq!(serial.0.len(), parallel.0.len(), "{name}");
    for (i, (s, p)) in serial.0.iter().zip(&parallel.0).enumerate() {
        assert_eq!(s.to_bits(), p.to_bits(), "{name} dof {i}: {s} vs {p}");
    }
}

#[test]
fn sparse_cg_is_bit_identical_serial_and_parallel() {
    // Assembly scatters in element order and the IC(0)-PCG iteration is
    // serial, so vetoing the parallel hot paths must move neither a
    // displacement bit nor the iteration count.
    for entry in catalog() {
        let result = Idealization::run(&(entry.spec)()).unwrap();
        let model = cafemio_bench::jobs::standard_setup(&result.mesh).unwrap();
        let (serial, parallel) = serial_then_parallel(|| {
            with_cg_iterations(|| model.solve_sparse().unwrap().dofs().to_vec())
        });
        assert_same_solve(entry.name, serial, parallel);
    }
    let (serial, parallel) = serial_then_parallel(|| with_cg_iterations(large_plate_solution));
    assert_same_solve("large plate", serial, parallel);
}
