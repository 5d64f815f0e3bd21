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

/// Runs `f` twice and returns both results.
fn run_twice<T>(mut f: impl FnMut() -> T) -> (T, T) {
    (f(), f())
}

#[test]
fn assembled_dofs_are_bit_identical_across_runs() {
    // Element stiffness matrices are scattered in element order, so every
    // floating-point addition happens in the same order on every run.
    let result = Idealization::run(&joint::spec()).unwrap();
    let model = joint::pressure_model(&result.mesh);
    let (first, second) = run_twice(|| model.solve().unwrap());
    assert_eq!(first.dofs().len(), second.dofs().len());
    for (i, (a, b)) in first.dofs().iter().zip(second.dofs()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "dof {i}: {a} vs {b}");
    }
    // The skyline path assembles through the same element loop.
    let (first, second) = run_twice(|| model.solve_skyline().unwrap());
    for (a, b) in first.dofs().iter().zip(second.dofs()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn isogram_segments_are_bit_identical_across_runs() {
    // Each level sweeps its candidate elements in ascending order, so
    // every crossing point is computed identically on every run.
    let result = Idealization::run(&joint::spec()).unwrap();
    let model = joint::pressure_model(&result.mesh);
    let solution = model.solve().unwrap();
    let stresses = StressField::compute(&model, &solution).unwrap();
    let field = stresses.effective();
    let (first, second) =
        run_twice(|| Ospl::run(&result.mesh, &field, &ContourOptions::new()).unwrap());
    assert_eq!(first.levels, second.levels);
    assert_eq!(first.isograms.len(), second.isograms.len());
    for (a, b) in first.isograms.iter().zip(&second.isograms) {
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

/// Runs `f` under its own recorder and returns its result together with
/// the `fem.cg.iterations` counter it published.
fn with_cg_iterations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, report) = cafemio::instrument::record(f);
    (
        out,
        report
            .counter("fem.cg.iterations")
            .expect("a sparse solve publishes fem.cg.iterations"),
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

/// Asserts two solves agree bit for bit and took the same number of CG
/// iterations.
fn assert_same_solve(name: &str, first: (Vec<f64>, u64), second: (Vec<f64>, u64)) {
    assert_eq!(first.1, second.1, "{name}: CG iterations");
    assert_eq!(first.0.len(), second.0.len(), "{name}");
    for (i, (a, b)) in first.0.iter().zip(&second.0).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{name} dof {i}: {a} vs {b}");
    }
}

#[test]
fn sparse_cg_dofs_and_iteration_counts_repeat_exactly() {
    // Assembly scatters in element order and the IC(0)-PCG iteration is
    // serial, so a repeated solve moves neither a displacement bit nor
    // the iteration count — the fixed count the large-plate benchmark
    // relies on.
    for entry in catalog() {
        let result = Idealization::run(&(entry.spec)()).unwrap();
        let model = cafemio_bench::jobs::standard_setup(&result.mesh).unwrap();
        let (first, second) =
            run_twice(|| with_cg_iterations(|| model.solve_sparse().unwrap().dofs().to_vec()));
        assert_same_solve(entry.name, first, second);
    }
    let (first, second) = run_twice(|| with_cg_iterations(large_plate_solution));
    assert_same_solve("large plate", first, second);
}
