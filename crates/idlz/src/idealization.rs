//! The IDLZ pipeline driver.

use std::collections::BTreeMap;

use cafemio_geom::Point;
use cafemio_mesh::{cuthill_mckee, BoundaryKind, NodeId, TriMesh};
use cafemio_plotter::Frame;

use crate::plot::{plot_mesh, plot_subdivision_numbers, PlotOptions};
use crate::reform::{reform_elements, ReformReport};
use crate::shape::shape_nodes;
use crate::spec::IdealizationSpec;
use crate::subdivision::GridPoint;
use crate::IdlzError;

/// Bookkeeping numbers for one run — the inputs to the paper's headline
/// data-reduction claims.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdlzStats {
    /// Data values the analyst supplied (Appendix-B card fields).
    pub input_values: usize,
    /// Data values produced for the analysis program: four per nodal card
    /// (X, Y, boundary flag, node number) and four per element card
    /// (three node numbers plus the element number).
    pub output_values: usize,
    /// Matrix semi-bandwidth of the initial left-right/bottom-top
    /// numbering.
    pub bandwidth_before: usize,
    /// Semi-bandwidth after renumbering (equals `bandwidth_before` when
    /// renumbering is off).
    pub bandwidth_after: usize,
}

impl IdlzStats {
    /// Input data as a fraction of output data. "In general, the amount
    /// of input data required for IDLZ is less than five percent of the
    /// data produced by IDLZ for the finite element analysis."
    pub fn input_fraction(&self) -> f64 {
        self.input_values as f64 / self.output_values as f64
    }
}

/// The product of an idealization run.
#[derive(Debug, Clone)]
pub struct IdealizationResult {
    /// The final shaped, reformed, renumbered mesh.
    pub mesh: TriMesh,
    /// The mesh before shaping (grid coordinates), for the Figure-9b/10a
    /// style "before" plots.
    pub unshaped_mesh: TriMesh,
    /// Reform pass report.
    pub reform: ReformReport,
    /// Bookkeeping statistics.
    pub stats: IdlzStats,
    /// The node ids (post-renumbering) belonging to each subdivision, in
    /// card order — used for the per-subdivision plots of Figure 11c.
    pub subdivision_nodes: Vec<(usize, Vec<NodeId>)>,
    /// Plot frames, when the spec's plot option is on: initial
    /// representation, final idealization, and one frame per subdivision
    /// with node numbers.
    pub frames: Vec<Frame>,
}

/// The IDLZ program: see the [crate docs](crate) for the pipeline stages.
#[derive(Debug)]
pub struct Idealization;

impl Idealization {
    /// Runs every data set of an Appendix-B card deck (the Type-1 card's
    /// `NSET` counts them), returning each spec with its result — the
    /// original batch workflow, one job step for several structures.
    ///
    /// # Errors
    ///
    /// Deck parsing errors plus any per-set pipeline error.
    pub fn run_deck(
        deck: &cafemio_cards::Deck,
    ) -> Result<Vec<(IdealizationSpec, IdealizationResult)>, IdlzError> {
        let specs = crate::deck::parse_deck(deck)?;
        specs
            .into_iter()
            .map(|spec| {
                let result = Idealization::run(&spec)?;
                Ok((spec, result))
            })
            .collect()
    }

    /// Runs the full pipeline on a spec.
    ///
    /// # Errors
    ///
    /// Any of the [`IdlzError`] conditions: bad subdivisions, Table-2
    /// limits, shaping failures, overlapping subdivisions.
    pub fn run(spec: &IdealizationSpec) -> Result<IdealizationResult, IdlzError> {
        validate_spec(spec)?;

        let _run_span = cafemio_instrument::span("idlz.run");

        // ---- Assign nodal numbers: left to right, bottom to top. ----
        let grid_span = cafemio_instrument::span("idlz.grid");
        let per_sub: Vec<SubGrid> = spec
            .subdivisions()
            .iter()
            .map(|s| (s.grid_points(), s.grid_elements()))
            .collect();
        assemble(spec, &per_sub, grid_span)
    }
}

/// One subdivision's generated grid payload: its grid points and element
/// triples (in grid coordinates).
type SubGrid = (Vec<GridPoint>, Vec<[GridPoint; 3]>);

/// The pre-pipeline structural checks of [`Idealization::run`]:
/// subdivision count and grid limits, non-empty deck, and shape lines
/// naming known subdivisions.
fn validate_spec(spec: &IdealizationSpec) -> Result<(), IdlzError> {
    let limits = spec.limits();
    limits.check_subdivisions(spec.subdivisions().len())?;
    if spec.subdivisions().is_empty() {
        return Err(IdlzError::BadDeck {
            reason: "data set contains no subdivisions".to_owned(),
        });
    }
    for sub in spec.subdivisions() {
        let (k1, l1) = sub.lower_left();
        let (k2, l2) = sub.upper_right();
        limits.check_grid(sub.id(), k1, l1)?;
        limits.check_grid(sub.id(), k2, l2)?;
    }
    for &id in spec.shape_lines().keys() {
        if !spec.subdivisions().iter().any(|s| s.id() == id) {
            return Err(IdlzError::UnknownSubdivision { id });
        }
    }
    Ok(())
}

/// Everything of [`Idealization::run`] downstream of per-subdivision grid
/// generation: merge, element creation, shaping, reform, renumbering,
/// stats, and plots. Takes the open `idlz.grid` span so the merge is
/// timed under the same span as the generation before it.
fn assemble(
    spec: &IdealizationSpec,
    per_sub: &[SubGrid],
    grid_span: cafemio_instrument::Span,
) -> Result<IdealizationResult, IdlzError> {
    let limits = spec.limits();
    let mut points: Vec<GridPoint> = per_sub
        .iter()
        .flat_map(|(pts, _)| pts.iter().copied())
        .collect();
    points.sort_by_key(|&(k, l)| (l, k));
    points.dedup();
    limits.check_nodes(points.len())?;
    let node_index: BTreeMap<GridPoint, usize> = points
        .iter()
        .copied()
        .enumerate()
        .map(|(i, p)| (p, i))
        .collect();

    // ---- Create elements (and catch overlapping subdivisions). ----
    let mut element_triples: Vec<[usize; 3]> = Vec::new();
    let mut element_owner: Vec<usize> = Vec::new();
    let mut seen: BTreeMap<[usize; 3], usize> = BTreeMap::new();
    let mut subdivision_node_sets: Vec<(usize, Vec<usize>)> = Vec::new();
    for (sub, (sub_points, sub_tris)) in spec.subdivisions().iter().zip(per_sub) {
        let mut sub_nodes: Vec<usize> = sub_points.iter().map(|p| node_index[p]).collect();
        sub_nodes.sort_unstable();
        sub_nodes.dedup();
        subdivision_node_sets.push((sub.id(), sub_nodes));
        for tri in sub_tris {
            let ids = [
                node_index[&tri[0]],
                node_index[&tri[1]],
                node_index[&tri[2]],
            ];
            let mut key = ids;
            key.sort_unstable();
            if let Some(&owner) = seen.get(&key) {
                return Err(IdlzError::OverlappingSubdivisions {
                    first: owner,
                    second: sub.id(),
                });
            }
            seen.insert(key, sub.id());
            element_triples.push(ids);
            element_owner.push(sub.id());
        }
    }
    limits.check_elements(element_triples.len())?;

    // ---- Mesh before shaping: grid coordinates as positions. ----
    let mut unshaped = TriMesh::new();
    for &(k, l) in &points {
        unshaped.add_node(Point::new(k as f64, l as f64), BoundaryKind::Interior);
    }
    for ids in &element_triples {
        unshaped.add_element([NodeId(ids[0]), NodeId(ids[1]), NodeId(ids[2])])?;
    }
    drop(grid_span);
    cafemio_instrument::counter("idlz.nodes", points.len() as u64);
    cafemio_instrument::counter("idlz.elements", element_triples.len() as u64);

    // ---- Shape the structure. ----
    let shape_span = cafemio_instrument::span("idlz.shape");
    let positions = shape_nodes(
        spec.subdivisions(),
        spec.shape_lines(),
        &node_index,
        points.len(),
    )?;
    let mut mesh = unshaped.clone();
    for (i, &position) in positions.iter().enumerate() {
        mesh.node_mut(NodeId(i)).position = position;
    }

    // ---- Detect folds; normalize a globally mirrored shaping. ----
    let mut ccw = 0usize;
    let mut cw = 0usize;
    for (id, _) in mesh.elements() {
        if mesh.triangle(id).signed_area() >= 0.0 {
            ccw += 1;
        } else {
            cw += 1;
        }
    }
    if ccw > 0 && cw > 0 {
        return Err(IdlzError::FoldedShaping { ccw, cw });
    }
    if cw > 0 {
        // The user's coordinates mirror the grid (legal); restore the
        // counter-clockwise convention element by element.
        let ids: Vec<_> = mesh.elements().map(|(id, _)| id).collect();
        for id in ids {
            mesh.element_mut(id).nodes.swap(1, 2);
        }
    }
    drop(shape_span);

    // ---- Reform needle elements. ----
    let reform_span = cafemio_instrument::span("idlz.reform");
    let reform = reform_elements(&mut mesh, 20);
    drop(reform_span);

    // ---- Classify boundary nodes (the OSPL flags). ----
    mesh.classify_boundary();
    unshaped.classify_boundary();

    // ---- Renumber for bandwidth. ----
    let renumber_span = cafemio_instrument::span("idlz.renumber");
    let bandwidth_before = mesh.bandwidth();
    let mut subdivision_nodes: Vec<(usize, Vec<NodeId>)> = subdivision_node_sets
        .iter()
        .map(|(id, nodes)| (*id, nodes.iter().map(|&n| NodeId(n)).collect()))
        .collect();
    let bandwidth_after = if spec.options().renumber {
        // Renumber only when Cuthill–McKee actually narrows the band:
        // the initial left-right/bottom-top numbering is already
        // optimal for many of the paper's strip-like cross-sections.
        let perm = cuthill_mckee(&mesh);
        if bandwidth_of_permutation(&mesh, &perm) < bandwidth_before {
            mesh.renumber_nodes(&perm);
            for (_, nodes) in &mut subdivision_nodes {
                for n in nodes.iter_mut() {
                    *n = NodeId(perm[n.index()]);
                }
            }
        }
        mesh.bandwidth()
    } else {
        bandwidth_before
    };
    drop(renumber_span);
    cafemio_instrument::counter("idlz.bandwidth_before", bandwidth_before as u64);
    cafemio_instrument::counter("idlz.bandwidth_after", bandwidth_after as u64);

    mesh.validate()?;

    let stats = IdlzStats {
        input_values: spec.input_value_count(),
        output_values: 4 * mesh.node_count() + 4 * mesh.element_count(),
        bandwidth_before,
        bandwidth_after,
    };

    // ---- Plots. ----
    let _plot_span = cafemio_instrument::span("idlz.plot");
    let mut frames = Vec::new();
    if spec.options().plots {
        frames.push(plot_mesh(
            &unshaped,
            &format!("{} - INITIAL REPRESENTATION", spec.title()),
            PlotOptions::default(),
        ));
        frames.push(plot_mesh(
            &mesh,
            &format!("{} - FINAL IDEALIZATION", spec.title()),
            PlotOptions::default(),
        ));
        frames.extend(plot_subdivision_numbers(
            &mesh,
            spec.title(),
            &subdivision_nodes,
        ));
    }

    let _ = element_owner;
    Ok(IdealizationResult {
        mesh,
        unshaped_mesh: unshaped,
        reform,
        stats,
        subdivision_nodes,
        frames,
    })
}

/// The semi-bandwidth the mesh would have after applying `perm`
/// (`perm[old] = new`), computed without mutating the mesh.
fn bandwidth_of_permutation(mesh: &TriMesh, perm: &[usize]) -> usize {
    mesh.elements()
        .flat_map(|(_, el)| {
            let [a, b, c] = el.nodes;
            let (a, b, c) = (perm[a.index()], perm[b.index()], perm[c.index()]);
            [a.abs_diff(b), b.abs_diff(c), a.abs_diff(c)]
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Limits, Options, ShapeLine, Subdivision};

    fn plate_spec(nx: i32, ny: i32) -> IdealizationSpec {
        let mut spec = IdealizationSpec::new("PLATE");
        spec.add_subdivision(Subdivision::rectangular(1, (0, 0), (nx, ny)).unwrap());
        spec.add_shape_line(
            1,
            ShapeLine::straight(
                (0, 0),
                (nx, 0),
                Point::new(0.0, 0.0),
                Point::new(nx as f64, 0.0),
            ),
        );
        spec.add_shape_line(
            1,
            ShapeLine::straight(
                (0, ny),
                (nx, ny),
                Point::new(0.0, ny as f64),
                Point::new(nx as f64, ny as f64),
            ),
        );
        spec
    }

    #[test]
    fn plate_pipeline_counts() {
        let result = Idealization::run(&plate_spec(4, 3)).unwrap();
        assert_eq!(result.mesh.node_count(), 5 * 4);
        assert_eq!(result.mesh.element_count(), 4 * 3 * 2);
        result.mesh.validate().unwrap();
        // Identity shaping: total area is the grid area.
        assert!((result.mesh.total_area() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn boundary_flags_assigned() {
        let result = Idealization::run(&plate_spec(4, 3)).unwrap();
        let mut interior = 0;
        let mut boundary = 0;
        for (_, node) in result.mesh.nodes() {
            if node.boundary.is_boundary() {
                boundary += 1;
            } else {
                interior += 1;
            }
        }
        assert_eq!(boundary, 2 * (5 + 4) - 4); // perimeter of the 5 × 4 node grid
        assert_eq!(interior, 3 * 2);
    }

    #[test]
    fn renumbering_reduces_or_keeps_bandwidth() {
        let mut spec = plate_spec(10, 2);
        let with = Idealization::run(&spec).unwrap();
        assert!(with.stats.bandwidth_after <= with.stats.bandwidth_before);
        spec.set_options(Options {
            renumber: false,
            ..Options::default()
        });
        let without = Idealization::run(&spec).unwrap();
        assert_eq!(
            without.stats.bandwidth_after,
            without.stats.bandwidth_before
        );
        // Same geometry either way.
        assert!((with.mesh.total_area() - without.mesh.total_area()).abs() < 1e-9);
    }

    #[test]
    fn two_adjacent_subdivisions_share_nodes() {
        let mut spec = IdealizationSpec::new("TWO");
        spec.add_subdivision(Subdivision::rectangular(1, (0, 0), (2, 2)).unwrap());
        spec.add_subdivision(Subdivision::rectangular(2, (2, 0), (4, 2)).unwrap());
        for (id, x0) in [(1usize, 0.0), (2, 2.0)] {
            let k0 = x0 as i32;
            spec.add_shape_line(
                id,
                ShapeLine::straight(
                    (k0, 0),
                    (k0 + 2, 0),
                    Point::new(x0, 0.0),
                    Point::new(x0 + 2.0, 0.0),
                ),
            );
            spec.add_shape_line(
                id,
                ShapeLine::straight(
                    (k0, 2),
                    (k0 + 2, 2),
                    Point::new(x0, 2.0),
                    Point::new(x0 + 2.0, 2.0),
                ),
            );
        }
        let result = Idealization::run(&spec).unwrap();
        // 5 × 3 unified grid, not 2 × 9.
        assert_eq!(result.mesh.node_count(), 15);
        assert_eq!(result.mesh.element_count(), 16);
        result.mesh.validate().unwrap();
    }

    #[test]
    fn overlapping_subdivisions_rejected() {
        let mut spec = IdealizationSpec::new("OVERLAP");
        spec.add_subdivision(Subdivision::rectangular(1, (0, 0), (2, 2)).unwrap());
        spec.add_subdivision(Subdivision::rectangular(2, (1, 0), (3, 2)).unwrap());
        assert!(matches!(
            Idealization::run(&spec).unwrap_err(),
            IdlzError::OverlappingSubdivisions {
                first: 1,
                second: 2
            }
        ));
    }

    #[test]
    fn node_limit_enforced() {
        let mut spec = plate_spec(40, 25); // 41 × 26 = 1066 nodes > 500
        spec.set_limits(Limits::historical());
        assert!(matches!(
            Idealization::run(&spec).unwrap_err(),
            IdlzError::LimitExceeded { what: "nodes", .. }
        ));
        spec.set_limits(Limits::unbounded());
        assert!(Idealization::run(&spec).is_ok());
    }

    #[test]
    fn grid_limit_enforced() {
        let mut spec = IdealizationSpec::new("TOO WIDE");
        spec.add_subdivision(Subdivision::rectangular(1, (0, 0), (41, 2)).unwrap());
        assert!(matches!(
            Idealization::run(&spec).unwrap_err(),
            IdlzError::LimitExceeded {
                what: "horizontal grid coordinate",
                ..
            }
        ));
    }

    #[test]
    fn shape_line_for_unknown_subdivision_rejected() {
        let mut spec = plate_spec(2, 2);
        spec.add_shape_line(
            9,
            ShapeLine::straight((0, 0), (1, 0), Point::ORIGIN, Point::new(1.0, 0.0)),
        );
        assert_eq!(
            Idealization::run(&spec).unwrap_err(),
            IdlzError::UnknownSubdivision { id: 9 }
        );
    }

    #[test]
    fn frames_produced_when_plots_on() {
        let result = Idealization::run(&plate_spec(3, 2)).unwrap();
        // Initial + final + one per subdivision.
        assert_eq!(result.frames.len(), 3);
        assert!(result.frames[0].title().contains("INITIAL"));
        assert!(result.frames[1].title().contains("FINAL"));
        let mut spec = plate_spec(3, 2);
        spec.set_options(Options {
            plots: false,
            ..Options::default()
        });
        assert!(Idealization::run(&spec).unwrap().frames.is_empty());
    }

    #[test]
    fn stats_reduction_ratio_under_five_percent_for_real_meshes() {
        // A 16 × 10 plate: 187 nodes, 320 elements.
        let mut spec = plate_spec(16, 10);
        spec.set_limits(Limits::unbounded());
        let result = Idealization::run(&spec).unwrap();
        assert!(
            result.stats.input_fraction() < 0.05,
            "fraction = {}",
            result.stats.input_fraction()
        );
    }

    #[test]
    fn crossed_shape_lines_reported_as_fold() {
        // The "top" side dips below the "bottom" side at the right end:
        // the interpolated surface folds over itself.
        let mut spec = IdealizationSpec::new("FOLDED");
        spec.add_subdivision(Subdivision::rectangular(1, (0, 0), (4, 2)).unwrap());
        spec.add_shape_line(
            1,
            ShapeLine::straight((0, 0), (4, 0), Point::new(0.0, 0.0), Point::new(4.0, 0.0)),
        );
        spec.add_shape_line(
            1,
            ShapeLine::straight((0, 2), (4, 2), Point::new(0.0, 1.0), Point::new(4.0, -1.0)),
        );
        assert!(matches!(
            Idealization::run(&spec).unwrap_err(),
            IdlzError::FoldedShaping { .. }
        ));
    }

    #[test]
    fn mirrored_shaping_normalized_to_ccw() {
        // Top and bottom swapped in world coordinates: a clean mirror,
        // not a fold — the pipeline restores CCW elements silently.
        let mut spec = IdealizationSpec::new("MIRRORED");
        spec.add_subdivision(Subdivision::rectangular(1, (0, 0), (4, 2)).unwrap());
        spec.add_shape_line(
            1,
            ShapeLine::straight((0, 0), (4, 0), Point::new(0.0, 2.0), Point::new(4.0, 2.0)),
        );
        spec.add_shape_line(
            1,
            ShapeLine::straight((0, 2), (4, 2), Point::new(0.0, 0.0), Point::new(4.0, 0.0)),
        );
        let result = Idealization::run(&spec).unwrap();
        result.mesh.validate().unwrap();
        for (id, _) in result.mesh.elements() {
            assert!(result.mesh.triangle(id).is_ccw(), "{id} not CCW");
        }
        assert!((result.mesh.total_area() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn run_deck_handles_multiple_data_sets() {
        let spec_a = plate_spec(2, 2);
        let mut spec_b = plate_spec(4, 2);
        spec_b.set_options(Options {
            plots: false,
            ..Options::default()
        });
        let deck = crate::deck::write_deck(&[spec_a, spec_b]).unwrap();
        let results = Idealization::run_deck(&deck).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].1.mesh.node_count(), 9);
        assert_eq!(results[1].1.mesh.node_count(), 15);
        assert!(results[1].1.frames.is_empty()); // plots off survived the cards
    }

    #[test]
    fn empty_spec_rejected() {
        let spec = IdealizationSpec::new("EMPTY");
        assert!(matches!(
            Idealization::run(&spec).unwrap_err(),
            IdlzError::BadDeck { .. }
        ));
    }
}
