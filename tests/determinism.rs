//! Determinism and reproducibility: the same input deck must produce the
//! same mesh, the same punched cards, and the same plot command stream,
//! run after run — the property that made card-driven batch workflows
//! auditable.

use cafemio::cache::StableHasher;
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

/// Every SVG the catalog renders, in order: each deck's IDLZ frames, then
/// one contour plot per stress component under default contour options.
fn catalog_svgs() -> Vec<(String, String)> {
    use cafemio::ospl::OsplError;
    let mut svgs = Vec::new();
    for (deck, text) in cafemio_bench::mutate::base_decks() {
        let idealized = PipelineBuilder::new()
            .parse(&text)
            .unwrap()
            .idealize()
            .unwrap();
        let frames = idealized.sets().iter().flat_map(|set| &set.result.frames);
        for (i, frame) in frames.enumerate() {
            svgs.push((format!("{deck} idlz {i}"), render_svg(frame)));
        }
        let recovered = idealized
            .setup(cafemio_bench::jobs::standard_setup)
            .unwrap()
            .solve()
            .unwrap()
            .recover()
            .unwrap();
        for component in StressComponent::ALL {
            match recovered.contour_with(component, &ContourOptions::new()) {
                Ok(plots) => {
                    for plot in plots {
                        svgs.push((
                            format!("{deck} {component}"),
                            render_svg(&plot.contours.frame),
                        ));
                    }
                }
                // Every catalog deck is a plane problem: its hoop field
                // is identically zero, so there is no contour to draw.
                Err(error) => {
                    assert_eq!(
                        component,
                        StressComponent::Circumferential,
                        "{deck}: {error}"
                    );
                    let no_contours = StageError::Ospl(OsplError::NoContours);
                    assert_eq!(error.source_error(), &no_contours, "{deck}: {error}");
                }
            }
        }
    }
    svgs
}

/// The catalog's SVG bytes, pinned frame by frame: `(frame, StableHasher
/// digest of the SVG, length)`. A change to `render_svg`, to the plot
/// layout or to anything upstream of it shows here, named by frame.
#[rustfmt::skip]
const CATALOG_SVGS: [(&str, u64, usize); 102] = [
    ("glass-joint idlz 0", 0xdf53279b2fe8dbad, 12206),
    ("glass-joint idlz 1", 0x64651e30e88d75f9, 12202),
    ("glass-joint idlz 2", 0xae5919ff0e9b3826, 14463),
    ("glass-joint idlz 3", 0x27c4d92d9d83ec99, 4164),
    ("glass-joint RADIAL STRESS", 0xcd58734cf5df8039, 44377),
    ("glass-joint MERIDIONAL STRESS", 0xbbc3a91e26e4c4dd, 44163),
    ("glass-joint SHEAR STRESS", 0xd4645db497e497c8, 61355),
    ("glass-joint EFFECTIVE STRESS", 0x7320d56d0a30ea30, 48673),
    ("viewport-juncture idlz 0", 0xa640e6f496167558, 13919),
    ("viewport-juncture idlz 1", 0x228d6deffa55b276, 13900),
    ("viewport-juncture idlz 2", 0x0b421115a7905a1b, 13081),
    ("viewport-juncture idlz 3", 0xdf98f69d27772176, 6930),
    ("viewport-juncture RADIAL STRESS", 0xbb21d9a502413257, 36187),
    ("viewport-juncture MERIDIONAL STRESS", 0x1a7c1c109b00eef8, 63808),
    ("viewport-juncture SHEAR STRESS", 0x8585887ee7760b18, 42997),
    ("viewport-juncture EFFECTIVE STRESS", 0x138b893e213e9606, 56590),
    ("dssv-viewport idlz 0", 0xd3feec038f58f033, 9473),
    ("dssv-viewport idlz 1", 0x72f647fcdaed5ca9, 9454),
    ("dssv-viewport idlz 2", 0x0df018e7404d3f65, 13395),
    ("dssv-viewport RADIAL STRESS", 0x102f98ad8a9d2897, 28198),
    ("dssv-viewport MERIDIONAL STRESS", 0xba3f61b09d1de442, 33982),
    ("dssv-viewport SHEAR STRESS", 0x0806aa2859435ada, 59859),
    ("dssv-viewport EFFECTIVE STRESS", 0x3f37ea1b12a9c6a3, 21076),
    ("dssv-transition idlz 0", 0xd2be2c3ef4586334, 18163),
    ("dssv-transition idlz 1", 0xf37164aa68e554ed, 18144),
    ("dssv-transition idlz 2", 0xe346025a460eb82c, 13084),
    ("dssv-transition idlz 3", 0x878b25b89edd2578, 6922),
    ("dssv-transition idlz 4", 0x1a5223db053b33bc, 7600),
    ("dssv-transition RADIAL STRESS", 0x6b9244d6d0de4409, 46329),
    ("dssv-transition MERIDIONAL STRESS", 0xd20a836ff657ce60, 42719),
    ("dssv-transition SHEAR STRESS", 0x7917665610c8b04b, 50494),
    ("dssv-transition EFFECTIVE STRESS", 0xaeaaef0e320598d3, 29858),
    ("dsrv-hatch idlz 0", 0x1160017948fa669f, 11349),
    ("dsrv-hatch idlz 1", 0x9f1869a6500ba53c, 11329),
    ("dsrv-hatch idlz 2", 0xb5027e17df6faf05, 4156),
    ("dsrv-hatch idlz 3", 0x097ccd7c0962b6f6, 4165),
    ("dsrv-hatch idlz 4", 0x960fbad36cf751bd, 7593),
    ("dsrv-hatch idlz 5", 0x37b686fa4962d488, 2593),
    ("dsrv-hatch RADIAL STRESS", 0xa225b1c13846f1cc, 57345),
    ("dsrv-hatch MERIDIONAL STRESS", 0xa83250e97e77bfc3, 31430),
    ("dsrv-hatch SHEAR STRESS", 0x05dc54ba634b1834, 60340),
    ("dsrv-hatch EFFECTIVE STRESS", 0xc662affc9f8422a3, 106316),
    ("typical-shape idlz 0", 0xa39de320871314c4, 5672),
    ("typical-shape idlz 1", 0x708013e7d2f2df33, 5679),
    ("typical-shape idlz 2", 0xee219add4ff18a0e, 8128),
    ("typical-shape RADIAL STRESS", 0x4d91eddb07fee7c5, 27413),
    ("typical-shape MERIDIONAL STRESS", 0xa21f51287c4be38c, 7925),
    ("typical-shape SHEAR STRESS", 0x93fdf777064a18d9, 19892),
    ("typical-shape EFFECTIVE STRESS", 0x7d3ae53eed39a818, 9015),
    ("circular-ring idlz 0", 0x4e723f22f3099f44, 14770),
    ("circular-ring idlz 1", 0x9dcfdd4342e364fc, 14751),
    ("circular-ring idlz 2", 0x21fda8341cb15d9d, 5879),
    ("circular-ring idlz 3", 0xdfc24583f57a8e3a, 5891),
    ("circular-ring idlz 4", 0x278fa7b54c2c1c95, 5887),
    ("circular-ring idlz 5", 0x952526412b60cf72, 5884),
    ("circular-ring RADIAL STRESS", 0x80a2906bb8c611df, 113187),
    ("circular-ring MERIDIONAL STRESS", 0x06e09ed31fcd9daa, 113646),
    ("circular-ring SHEAR STRESS", 0x1c606fc841fbce3a, 117096),
    ("circular-ring EFFECTIVE STRESS", 0x00c7c9a681bac3d4, 67154),
    ("dssv-hatch idlz 0", 0x99aa461751268e1d, 5241),
    ("dssv-hatch idlz 1", 0xfb6907154c71bc36, 5237),
    ("dssv-hatch idlz 2", 0xf1c9d56f5dd6632a, 5884),
    ("dssv-hatch idlz 3", 0xdf2f27dfa8c2c6e1, 2451),
    ("dssv-hatch RADIAL STRESS", 0x8055243de587c762, 28030),
    ("dssv-hatch MERIDIONAL STRESS", 0xe01dd8fa7c2f334b, 61260),
    ("dssv-hatch SHEAR STRESS", 0xfa3d711db64009ee, 26684),
    ("dssv-hatch EFFECTIVE STRESS", 0xd72c51fdcf0b265d, 20021),
    ("t-beam idlz 0", 0xf9e8385add5300b9, 15513),
    ("t-beam idlz 1", 0xfa320c816b5459c2, 15505),
    ("t-beam idlz 2", 0xb354435d19e875a8, 7628),
    ("t-beam idlz 3", 0x90c76fbf54f73cff, 15339),
    ("t-beam RADIAL STRESS", 0x0dc15f0643c15fb6, 32491),
    ("t-beam MERIDIONAL STRESS", 0xd33922a0fa236504, 42201),
    ("t-beam SHEAR STRESS", 0x9d81a3d1a204b952, 43405),
    ("t-beam EFFECTIVE STRESS", 0xe8779fbc133ec674, 31222),
    ("stiffened-cylinder idlz 0", 0xc4f2e85e245ac07f, 13244),
    ("stiffened-cylinder idlz 1", 0x276c65a8f755fa98, 13222),
    ("stiffened-cylinder idlz 2", 0x6cd14e02545f07ab, 9330),
    ("stiffened-cylinder idlz 3", 0xdbb41689112a8e5f, 7594),
    ("stiffened-cylinder idlz 4", 0xf5021db573cc1a06, 1601),
    ("stiffened-cylinder idlz 5", 0xa61e81106503f80e, 1605),
    ("stiffened-cylinder idlz 6", 0x0d12502f7d5b90c2, 1605),
    ("stiffened-cylinder RADIAL STRESS", 0x02b3b10d2794f85a, 23332),
    ("stiffened-cylinder MERIDIONAL STRESS", 0x00505664d20b5b08, 74298),
    ("stiffened-cylinder SHEAR STRESS", 0xb6bdab09e71a491e, 26379),
    ("stiffened-cylinder EFFECTIVE STRESS", 0xdf84d2d5bfb68721, 33213),
    ("unstiffened-cylinder idlz 0", 0xa3ae611bab8fbf7f, 11184),
    ("unstiffened-cylinder idlz 1", 0x6d06a8d0fdd0415b, 11162),
    ("unstiffened-cylinder idlz 2", 0x182e59d912610115, 9307),
    ("unstiffened-cylinder idlz 3", 0x8b9dc7a2ba41387f, 7574),
    ("unstiffened-cylinder RADIAL STRESS", 0xa7192a5aab191d9b, 19008),
    ("unstiffened-cylinder MERIDIONAL STRESS", 0x960ac7e0a2410279, 61166),
    ("unstiffened-cylinder SHEAR STRESS", 0x91dccc4fb76751fd, 21547),
    ("unstiffened-cylinder EFFECTIVE STRESS", 0x5af587b40813502a, 26919),
    ("hemi-hatch idlz 0", 0x5973fb88308e714c, 6440),
    ("hemi-hatch idlz 1", 0x6fd78a12e746218b, 6436),
    ("hemi-hatch idlz 2", 0xf7109542403e2bae, 4178),
    ("hemi-hatch idlz 3", 0x8ee8c174f4330375, 5896),
    ("hemi-hatch RADIAL STRESS", 0x53c822f53bc66225, 34669),
    ("hemi-hatch MERIDIONAL STRESS", 0xa8b432fb75591e18, 22668),
    ("hemi-hatch SHEAR STRESS", 0x46ce3dd64974a8a1, 37847),
    ("hemi-hatch EFFECTIVE STRESS", 0xa64605fa55f8aaf3, 35502),
];

#[test]
fn catalog_svg_bytes_match_the_golden_table() {
    let svgs = catalog_svgs();
    let mut all = StableHasher::new();
    let mut bytes = 0;
    for ((name, svg), &(want_name, want_digest, want_len)) in svgs.iter().zip(&CATALOG_SVGS) {
        let mut one = StableHasher::new();
        one.write_bytes(svg.as_bytes());
        assert_eq!(name, want_name);
        assert_eq!((one.finish(), svg.len()), (want_digest, want_len), "{name}");
        all.write_bytes(svg.as_bytes());
        bytes += svg.len();
    }
    assert_eq!(svgs.len(), CATALOG_SVGS.len());
    assert_eq!(bytes, 2_627_288);
    assert_eq!(all.finish(), 0xbe7f_b6df_a036_b58f);
}
