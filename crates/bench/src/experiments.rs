//! The per-figure experiment runners (see `DESIGN.md` §3 for the index).

use cafemio::fem::{dof_profile, BandMatrix, SkylineMatrix};
use cafemio::idlz::{plot_mesh, Idealization, IdealizationSpec, PlotOptions, Subdivision};
use cafemio::models::{catalog, cylinder, hatch, joint, plate, ring, tbeam, viewport};
use cafemio::ospl::automatic_interval;
use cafemio::prelude::*;

use crate::FigureReport;

type Fallible<T> = Result<T, Box<dyn std::error::Error>>;

/// Runs every experiment in `DESIGN.md` order.
///
/// # Errors
///
/// Propagates the first pipeline failure (none are expected; the
/// experiments are also covered by tests).
pub fn run_all() -> Fallible<Vec<FigureReport>> {
    Ok(vec![
        figure_1_and_17()?,
        figures_2_to_5()?,
        figure_6()?,
        figure_7()?,
        figure_8()?,
        figure_9_and_10()?,
        figure_11()?,
        figure_12()?,
        figure_13()?,
        figure_14()?,
        figure_15()?,
        figure_16()?,
        figure_18()?,
        tables_1_and_2()?,
        claims_c1_c2()?,
        claim_c3()?,
        claim_c4()?,
    ])
}

fn idealize(spec: &IdealizationSpec) -> Fallible<cafemio::idlz::IdealizationResult> {
    Ok(Idealization::run(spec)?)
}

fn mesh_row(label: &str, r: &cafemio::idlz::IdealizationResult) -> String {
    format!(
        "{label}: {} nodes, {} elements, bandwidth {} -> {}, input/output data {:.1} %",
        r.mesh.node_count(),
        r.mesh.element_count(),
        r.stats.bandwidth_before,
        r.stats.bandwidth_after,
        100.0 * r.stats.input_fraction(),
    )
}

fn stress_plot(
    report: &mut FigureReport,
    stem: &str,
    model: &FemModel,
    component: StressComponent,
) -> Fallible<()> {
    let plot = PipelineBuilder::new()
        .component(component)
        .model(model.clone())
        .solve()?
        .recover()?
        .contour()?
        .into_iter()
        .next()
        .expect("one plot per model");
    let (lo, hi) = plot.field.min_max().expect("non-empty field");
    report.row(format!(
        "{component}: {lo:.0} .. {hi:.0} psi, contour interval {}, {} isograms",
        plot.contours.interval,
        plot.contours.drawn_contours(),
    ));
    report.frame(stem, plot.contours.frame);
    Ok(())
}

/// F1 + F17: the internally reinforced glass joint — idealization plots
/// and the meridional/radial stress contours.
pub fn figure_1_and_17() -> Fallible<FigureReport> {
    let mut report = FigureReport::new(
        "F1/F17",
        "Internally reinforced glass joint: idealization and stress isograms",
    );
    let result = idealize(&joint::spec())?;
    report.row(mesh_row("glass joint", &result));
    report.frame("fig01_initial", result.frames[0].clone());
    report.frame("fig01_final", result.frames[1].clone());
    let model = joint::pressure_model(&result.mesh);
    stress_plot(&mut report, "fig17_meridional", &model, StressComponent::Meridional)?;
    stress_plot(&mut report, "fig17_radial", &model, StressComponent::Radial)?;
    Ok(report)
}

/// F2–F5: the subdivision gallery — rectangle and every trapezoid
/// orientation, plotted as their initial (grid) representation.
pub fn figures_2_to_5() -> Fallible<FigureReport> {
    let mut report = FigureReport::new("F2-F5", "Subdivision gallery (grid representations)");
    let variants: Vec<(&str, Subdivision)> = vec![
        ("fig02_rect", Subdivision::rectangular(1, (0, 0), (6, 4))?),
        ("fig03_ntaprw_p1", Subdivision::row_trapezoid(1, (0, 0), (8, 3), 1)?),
        ("fig03_ntaprw_m1", Subdivision::row_trapezoid(1, (0, 0), (8, 3), -1)?),
        ("fig04_ntapcm_p1", Subdivision::column_trapezoid(1, (0, 0), (3, 8), 1)?),
        ("fig04_ntapcm_m1", Subdivision::column_trapezoid(1, (0, 0), (3, 8), -1)?),
        ("fig04_ntaprw_p2", Subdivision::row_trapezoid(1, (0, 0), (12, 3), 2)?),
        ("fig04_ntaprw_m2", Subdivision::row_trapezoid(1, (0, 0), (12, 3), -2)?),
        ("fig05_ntapcm_p3", Subdivision::column_trapezoid(1, (0, 0), (2, 12), 3)?),
    ];
    for (stem, sub) in variants {
        // Render the raw grid triangulation (the "initial representation
        // by user" panels).
        let mut mesh = TriMesh::new();
        let mut ids = std::collections::BTreeMap::new();
        for p in sub.grid_points() {
            let id = mesh.add_node(
                Point::new(p.0 as f64, p.1 as f64),
                BoundaryKind::Interior,
            );
            ids.insert(p, id);
        }
        for tri in sub.grid_elements() {
            mesh.add_element([ids[&tri[0]], ids[&tri[1]], ids[&tri[2]]])?;
        }
        report.row(format!(
            "{stem}: {} nodes, {} elements, triangular = {}",
            sub.node_count(),
            sub.element_count(),
            sub.is_triangular(),
        ));
        report.frame(stem, plot_mesh(&mesh, stem, PlotOptions::default()));
    }
    Ok(report)
}

/// F6: the glass viewport juncture with metal ring.
pub fn figure_6() -> Fallible<FigureReport> {
    let mut report = FigureReport::new("F6", "Glass viewport juncture with metal ring");
    let result = idealize(&viewport::juncture_spec())?;
    report.row(mesh_row("juncture", &result));
    report.frame("fig06_initial", result.frames[0].clone());
    report.frame("fig06_final", result.frames[1].clone());
    Ok(report)
}

/// F7: the DSSV viewport (three-sided subdivisions).
pub fn figure_7() -> Fallible<FigureReport> {
    let mut report = FigureReport::new("F7", "DSSV viewport");
    let result = idealize(&viewport::viewport_spec())?;
    report.row(mesh_row("viewport", &result));
    report.frame("fig07_initial", result.frames[0].clone());
    report.frame("fig07_final", result.frames[1].clone());
    Ok(report)
}

/// F8: the DSSV viewport and transition ring.
pub fn figure_8() -> Fallible<FigureReport> {
    let mut report = FigureReport::new("F8", "DSSV viewport and transition ring");
    let result = idealize(&viewport::transition_spec())?;
    report.row(mesh_row("transition", &result));
    report.frame("fig08_final", result.frames[1].clone());
    Ok(report)
}

/// F9 + F10: the DSRV hatch — boundary economy and element reforming.
pub fn figure_9_and_10() -> Fallible<FigureReport> {
    let mut report = FigureReport::new("F9/F10", "DSRV hatch: shaping economy and reform");
    let spec = hatch::dsrv_spec();
    let result = idealize(&spec)?;
    report.row(mesh_row("DSRV hatch", &result));
    let econ = hatch::boundary_economy(&spec, &result.mesh);
    report.row(format!(
        "boundary economy: {} boundary nodes from {} coordinates + {} arc radii \
         (paper: 100 from 24 + 11)",
        econ.boundary_nodes, econ.coordinates_supplied, econ.radii_supplied,
    ));
    report.row(format!(
        "reform: {} swaps over {} passes, min angle {:.1} deg -> {:.1} deg, needles {} -> {}",
        result.reform.swaps,
        result.reform.passes,
        result.reform.min_angle_before.to_degrees(),
        result.reform.min_angle_after.to_degrees(),
        result.reform.needles_before,
        result.reform.needles_after,
    ));
    report.frame("fig09_initial", result.frames[0].clone());
    report.frame("fig09_final", result.frames[1].clone());
    // Figure 10: the sheared "typical shape" where the blind grid
    // diagonals become needles and the reformer swaps them.
    let typical = idealize(&cafemio::models::typical_shape::spec())?;
    report.row(format!(
        "typical shape (Fig 10): {} swaps, min angle {:.1} deg -> {:.1} deg, needles {} -> {}",
        typical.reform.swaps,
        typical.reform.min_angle_before.to_degrees(),
        typical.reform.min_angle_after.to_degrees(),
        typical.reform.needles_before,
        typical.reform.needles_after,
    ));
    report.frame("fig10_reformed", typical.frames[1].clone());
    Ok(report)
}

/// F11: the circular ring and its optional plots (including
/// per-subdivision node numbering).
pub fn figure_11() -> Fallible<FigureReport> {
    let mut report = FigureReport::new("F11", "Circular ring: optional IDLZ plots");
    let result = idealize(&ring::spec())?;
    report.row(mesh_row("ring", &result));
    report.row(format!(
        "optional plots: {} frames (initial, final, {} subdivisions)",
        result.frames.len(),
        result.subdivision_nodes.len(),
    ));
    report.frame("fig11a_initial", result.frames[0].clone());
    report.frame("fig11b_final", result.frames[1].clone());
    report.frame("fig11c_subdivision1", result.frames[2].clone());
    Ok(report)
}

/// F12: the concept triangle with values 5/15/35 and contours 10/20/30.
pub fn figure_12() -> Fallible<FigureReport> {
    let mut report = FigureReport::new("F12", "OSPL concept triangle");
    let mut mesh = TriMesh::new();
    let a = mesh.add_node(Point::new(0.0, 0.0), BoundaryKind::BoundaryCorner);
    let b = mesh.add_node(Point::new(4.0, 0.0), BoundaryKind::BoundaryCorner);
    let c = mesh.add_node(Point::new(2.0, 3.0), BoundaryKind::BoundaryCorner);
    mesh.add_element([a, b, c])?;
    let field = NodalField::new("FIGURE 12", vec![5.0, 15.0, 35.0]);
    let plot = Ospl::run(&mesh, &field, &ContourOptions::with_interval(10.0))?;
    let levels: Vec<f64> = plot
        .isograms
        .iter()
        .filter(|i| !i.segments.is_empty())
        .map(|i| i.level)
        .collect();
    report.row(format!("levels crossing the triangle: {levels:?} (paper: 10, 20, 30)"));
    report.frame("fig12_triangle", plot.frame);
    Ok(report)
}

/// F13: effective stress in the DSSV bottom hatch — including the
/// "modified for contact" seat of the figure's caption and the load
/// increments its banner counts.
pub fn figure_13() -> Fallible<FigureReport> {
    let mut report = FigureReport::new("F13", "DSSV bottom hatch: effective stress");
    let result = idealize(&hatch::dssv_hatch_spec())?;
    report.row(mesh_row("bottom hatch", &result));
    let model = hatch::dssv_pressure_model(&result.mesh);
    stress_plot(&mut report, "fig13_effective", &model, StressComponent::Effective)?;
    // "MODIFIED FOR CONTACT": the hatch rests on its seat unilaterally.
    let (contact_model, supports) = hatch::dssv_contact_model(&result.mesh);
    let increments =
        cafemio::fem::solve_contact_increments(&contact_model, &supports, 4, 20)?;
    let last = increments.last().expect("non-empty schedule");
    report.row(format!(
        "modified for contact: {} of {} seat nodes bearing at full load \
         (increment {} of {})",
        last.result.engaged(),
        supports.len(),
        last.number,
        increments.len(),
    ));
    let stresses =
        cafemio::fem::StressField::compute(&contact_model, &last.result.solution)?;
    let field = StressComponent::Effective.field(&stresses);
    let contact_plot = Ospl::run(
        contact_model.mesh(),
        &field,
        &cafemio::ospl::ContourOptions {
            title: Some(format!("INCREMENT NUMBER {}", last.number)),
            ..Default::default()
        },
    )?;
    report.row(format!(
        "contact variant: effective {:.0} .. {:.0} psi, {} isograms",
        field.min_max().expect("non-empty").0,
        field.min_max().expect("non-empty").1,
        contact_plot.drawn_contours(),
    ));
    report.frame("fig13_contact_increment", contact_plot.frame);
    Ok(report)
}

/// F14: T-beam temperatures at t = 2 s and t = 3 s.
pub fn figure_14() -> Fallible<FigureReport> {
    let mut report = FigureReport::new("F14", "T-beam thermal pulse");
    let result = idealize(&tbeam::spec())?;
    report.row(mesh_row("T-beam", &result));
    let history = tbeam::run_pulse(&result.mesh, 3.0, 300)?;
    for (t, stem) in [(2.0, "fig14a_t2"), (3.0, "fig14b_t3")] {
        let field = history.at_time(t);
        let (lo, hi) = field.min_max().expect("non-empty field");
        let plot = Ospl::run(&result.mesh, field, &ContourOptions::new())?;
        report.row(format!(
            "t = {t} s: {lo:.0} .. {hi:.0} degF, interval {}, {} isograms",
            plot.interval,
            plot.drawn_contours(),
        ));
        report.frame(stem, plot.frame);
    }
    Ok(report)
}

/// F15: the stiffened GRP cylinder — circumferential and shear stress.
pub fn figure_15() -> Fallible<FigureReport> {
    let mut report = FigureReport::new("F15", "Stiffened GRP cylinder + titanium closure");
    let result = idealize(&cylinder::stiffened_spec())?;
    report.row(mesh_row("stiffened cylinder", &result));
    report.frame("fig15_idealization", result.frames[1].clone());
    let model = cylinder::pressure_model(&result.mesh);
    stress_plot(
        &mut report,
        "fig15c_circumferential",
        &model,
        StressComponent::Circumferential,
    )?;
    stress_plot(&mut report, "fig15d_shear", &model, StressComponent::Shear)?;
    Ok(report)
}

/// F16: the unstiffened cylinder — effective and circumferential stress.
pub fn figure_16() -> Fallible<FigureReport> {
    let mut report = FigureReport::new("F16", "Unstiffened GRP cylinder + titanium closure");
    let result = idealize(&cylinder::unstiffened_spec())?;
    report.row(mesh_row("unstiffened cylinder", &result));
    report.frame("fig16_idealization", result.frames[1].clone());
    let model = cylinder::pressure_model(&result.mesh);
    stress_plot(&mut report, "fig16c_effective", &model, StressComponent::Effective)?;
    stress_plot(
        &mut report,
        "fig16d_circumferential",
        &model,
        StressComponent::Circumferential,
    )?;
    Ok(report)
}

/// F18: the hemispherical glass hatch — circumferential and effective
/// stress.
pub fn figure_18() -> Fallible<FigureReport> {
    let mut report = FigureReport::new("F18", "Hemispherical hatch of a glass sphere");
    let result = idealize(&hatch::hemi_hatch_spec())?;
    report.row(mesh_row("hemi hatch", &result));
    let model = hatch::hemi_pressure_model(&result.mesh);
    stress_plot(
        &mut report,
        "fig18c_circumferential",
        &model,
        StressComponent::Circumferential,
    )?;
    stress_plot(&mut report, "fig18d_effective", &model, StressComponent::Effective)?;
    Ok(report)
}

/// T1 + T2: the numerical restrictions, exercised at and past the
/// limits.
pub fn tables_1_and_2() -> Fallible<FigureReport> {
    let mut report = FigureReport::new("T1/T2", "Numerical restrictions");
    // T2: inside the table.
    let mut inside = plate::spec(15, 16, 1.0, 1.0);
    inside.set_limits(cafemio::idlz::Limits::historical());
    report.row(format!(
        "IDLZ at 272 nodes / 480 elements (limits 500/850): {}",
        if Idealization::run(&inside).is_ok() { "accepted" } else { "REJECTED" },
    ));
    let mut outside = plate::spec(24, 20, 1.0, 1.0);
    outside.set_limits(cafemio::idlz::Limits::historical());
    report.row(format!(
        "IDLZ at 525 nodes: {}",
        match Idealization::run(&outside) {
            Err(e) => format!("rejected ({e})"),
            Ok(_) => "ACCEPTED (should not be)".to_owned(),
        },
    ));
    // T1: OSPL limits.
    let result = Idealization::run(&plate::spec(24, 20, 1.0, 1.0))?;
    let field = NodalField::new(
        "X",
        result.mesh.nodes().map(|(_, n)| n.position.x).collect(),
    );
    report.row(format!(
        "OSPL at 525 nodes / 960 elements (limits 800/1000): {}",
        if Ospl::run(&result.mesh, &field, &ContourOptions::new()).is_ok() {
            "accepted"
        } else {
            "REJECTED"
        },
    ));
    let big = Idealization::run(&plate::spec(27, 29, 1.0, 1.0))?;
    let field = NodalField::new("X", big.mesh.nodes().map(|(_, n)| n.position.x).collect());
    report.row(format!(
        "OSPL at 840 nodes: {}",
        match Ospl::run(&big.mesh, &field, &ContourOptions::new()) {
            Err(e) => format!("rejected ({e})"),
            Ok(_) => "ACCEPTED (should not be)".to_owned(),
        },
    ));
    Ok(report)
}

/// C1 + C2: the data-reduction claims across the catalog and the
/// 500-element problem.
pub fn claims_c1_c2() -> Fallible<FigureReport> {
    let mut report = FigureReport::new("C1/C2", "Data reduction claims");
    for entry in catalog() {
        let result = Idealization::run(&(entry.spec)())?;
        report.row(format!(
            "{:<22} input {:>4} values, output {:>5} values ({:>5.1} %)",
            entry.name,
            result.stats.input_values,
            result.stats.output_values,
            100.0 * result.stats.input_fraction(),
        ));
    }
    let moderate = Idealization::run(&plate::capacity_spec(280))?;
    report.row(format!(
        "~500-element problem: {} elements, analysis input {} values, IDLZ input {} values \
         ({:.1} %) (paper: ~500 elements need ~2000 values)",
        moderate.mesh.element_count(),
        moderate.stats.output_values,
        moderate.stats.input_values,
        100.0 * moderate.stats.input_fraction(),
    ));
    Ok(report)
}

/// C3: Appendix D's automatic interval.
pub fn claim_c3() -> Fallible<FigureReport> {
    let mut report = FigureReport::new("C3", "Appendix D automatic contour spacing");
    for (lo, hi) in [(10_000.0, 50_000.0), (0.0, 20.0), (-1.0, 1.0), (70.0, 320.0)] {
        report.row(format!(
            "range {lo} .. {hi}: interval {:?}",
            automatic_interval(lo, hi),
        ));
    }
    report.row("paper's worked example 10000..50000 -> 2500 (matched)".to_owned());
    Ok(report)
}

/// C4: the bandwidth ablation — dof bandwidth and band and skyline
/// storage with and without renumbering, on every catalog model and on a
/// 60 × 4 strip whose plain numbering is poor: rows of 61 nodes give it a
/// bandwidth of 61, which Cuthill–McKee collapses to 5. The rows are
/// exact counts; the band factor's flops grow with the square of the dof
/// bandwidth.
pub fn claim_c4() -> Fallible<FigureReport> {
    let mut report = FigureReport::new("C4", "Bandwidth renumbering ablation");
    let storage = |mesh: &TriMesh| {
        let dof_bandwidth = 2 * mesh.bandwidth() + 1;
        let band = BandMatrix::new(2 * mesh.node_count(), dof_bandwidth).stored_entries();
        let skyline = SkylineMatrix::new(&dof_profile(mesh)).stored_entries();
        (dof_bandwidth, band, skyline)
    };
    let mut specs: Vec<_> = catalog().iter().map(|e| (e.name, (e.spec)())).collect();
    specs.push(("60x4 strip", plate::spec(60, 4, 15.0, 1.0)));
    for (name, mut spec) in specs {
        let (bw, band, skyline) = storage(&Idealization::run(&spec)?.mesh);
        spec.set_options(cafemio::idlz::Options {
            renumber: false,
            ..cafemio::idlz::Options::default()
        });
        let (plain_bw, plain_band, plain_skyline) = storage(&Idealization::run(&spec)?.mesh);
        report.row(format!(
            "{name:<22} dof bandwidth {plain_bw:>3} -> {bw:>3}, band storage {plain_band:>6} -> \
             {band:>6}, skyline storage {plain_skyline:>6} -> {skyline:>6} entries"
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiments_run() {
        let reports = run_all().unwrap();
        assert_eq!(reports.len(), 17);
        for report in &reports {
            assert!(!report.rows.is_empty(), "{} has no rows", report.id);
        }
        // Every figure experiment produced at least one frame.
        let with_frames = reports.iter().filter(|r| !r.frames.is_empty()).count();
        assert!(with_frames >= 12, "only {with_frames} frame-bearing reports");
    }
}
