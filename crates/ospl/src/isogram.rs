//! Isogram extraction: the element-by-element contour construction of the
//! report's OSPL section (Figure 12).
//!
//! Tracing is accelerated by a one-dimensional [`Bvh`] over each
//! element's value interval `[lo, hi]`: a level only visits the
//! elements whose interval contains it, instead of scanning the whole
//! mesh per level. The accelerated path is bit-identical to the full
//! scan — [`extract_isograms_reference`] keeps the brute-force loop as
//! the parity oracle for tests and benchmarks.

use std::collections::HashMap;

use cafemio_geom::{inverse_lerp, lerp_point, BoundingBox, Bvh, Point};
use cafemio_mesh::{Edge, NodalField, TriMesh};

use crate::OsplError;

/// One straight contour piece inside one element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsoSegment {
    /// First end point.
    pub a: Point,
    /// Second end point.
    pub b: Point,
    /// True when `a` lies on a mesh boundary edge (a label site).
    pub a_on_boundary: bool,
    /// True when `b` lies on a mesh boundary edge.
    pub b_on_boundary: bool,
}

/// All the pieces of one contour level.
#[derive(Debug, Clone, PartialEq)]
pub struct Isogram {
    /// The constant value along the contour.
    pub level: f64,
    /// The straight pieces, one per crossed element.
    pub segments: Vec<IsoSegment>,
}

impl Isogram {
    /// Total drawn length of the contour.
    pub fn length(&self) -> f64 {
        self.segments.iter().map(|s| s.a.distance_to(s.b)).sum()
    }

    /// The points where the contour meets the mesh boundary — the label
    /// sites ("the value of each contour is printed next to its
    /// intersection with the boundary").
    pub fn boundary_intersections(&self) -> Vec<Point> {
        let mut out = Vec::new();
        for s in &self.segments {
            if s.a_on_boundary {
                out.push(s.a);
            }
            if s.b_on_boundary {
                out.push(s.b);
            }
        }
        out
    }

    /// Chains the per-element pieces into continuous polylines by joining
    /// coincident end points (within `tol`). Open contours run from
    /// boundary to boundary; closed loops come back with their first
    /// point repeated last. The original OSPL drew segment by segment;
    /// chains give downstream consumers (smooth SVG paths, contour
    /// following) the connected geometry.
    pub fn polylines(&self, tol: f64) -> Vec<Vec<Point>> {
        let n = self.segments.len();
        let mut used = vec![false; n];
        let close = |p: Point, q: Point| p.approx_eq(q, tol);
        // Bucket every segment endpoint on a grid of twice the join
        // tolerance: any endpoint within `tol` of a query point then
        // lives in the 3x3 cell neighbourhood, with slack to spare for
        // division rounding at the cell boundaries. Taking the *minimum*
        // unused index over the candidates reproduces exactly what the
        // old first-match linear scan returned, in O(1) instead of O(n)
        // per join — the chains are bit-identical.
        let cell = (2.0 * tol).max(1e-300);
        let key = |p: Point| ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64);
        let mut buckets: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
        for (j, s) in self.segments.iter().enumerate() {
            buckets.entry(key(s.a)).or_default().push(j);
            if key(s.b) != key(s.a) {
                buckets.entry(key(s.b)).or_default().push(j);
            }
        }
        let find_next = |used: &[bool], p: Point| -> Option<usize> {
            let (kx, ky) = key(p);
            let mut best: Option<usize> = None;
            for dx in -1i64..=1 {
                for dy in -1i64..=1 {
                    let neighbour = (kx.saturating_add(dx), ky.saturating_add(dy));
                    let Some(list) = buckets.get(&neighbour) else {
                        continue;
                    };
                    for &j in list {
                        if !used[j]
                            && best.is_none_or(|b| j < b)
                            && (close(self.segments[j].a, p) || close(self.segments[j].b, p))
                        {
                            best = Some(j);
                        }
                    }
                }
            }
            best
        };
        let mut chains = Vec::new();
        for start in 0..n {
            if used[start] {
                continue;
            }
            used[start] = true;
            let mut chain = vec![self.segments[start].a, self.segments[start].b];
            // Grow at the tail, then at the head.
            loop {
                // invariant: the chain is seeded with two points above.
                let tail = *chain.last().expect("non-empty chain");
                match find_next(&used, tail) {
                    Some(j) => {
                        used[j] = true;
                        let s = &self.segments[j];
                        chain.push(if close(s.a, tail) { s.b } else { s.a });
                    }
                    None => break,
                }
            }
            loop {
                let head = chain[0];
                match find_next(&used, head) {
                    Some(j) => {
                        used[j] = true;
                        let s = &self.segments[j];
                        chain.insert(0, if close(s.a, head) { s.b } else { s.a });
                    }
                    None => break,
                }
            }
            chains.push(chain);
        }
        chains
    }
}

/// Extracts one [`Isogram`] per level.
///
/// Follows the paper's four steps per element and level: find the two
/// edge pairs whose corner values bound the level, interpolate linearly
/// along each, and join the two interpolated points with a straight
/// segment. Elements the level misses contribute nothing; degenerate
/// crossings through a flat edge are skipped (the neighbouring elements
/// carry the line).
///
/// # Errors
///
/// [`OsplError::FieldSizeMismatch`] when the field does not cover the
/// mesh.
///
/// # Examples
///
/// ```
/// use cafemio_geom::Point;
/// use cafemio_mesh::{BoundaryKind, NodalField, TriMesh};
/// use cafemio_ospl::extract_isograms;
/// # fn main() -> Result<(), cafemio_ospl::OsplError> {
/// let mut mesh = TriMesh::new();
/// let a = mesh.add_node(Point::new(0.0, 0.0), BoundaryKind::BoundaryCorner);
/// let b = mesh.add_node(Point::new(4.0, 0.0), BoundaryKind::BoundaryCorner);
/// let c = mesh.add_node(Point::new(2.0, 3.0), BoundaryKind::BoundaryCorner);
/// mesh.add_element([a, b, c]).unwrap();
/// let field = NodalField::new("S", vec![5.0, 15.0, 35.0]);
/// let isograms = extract_isograms(&mesh, &field, &[10.0, 20.0, 30.0])?;
/// assert_eq!(isograms.len(), 3);
/// assert_eq!(isograms[0].segments.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn extract_isograms(
    mesh: &TriMesh,
    field: &NodalField,
    levels: &[f64],
) -> Result<Vec<Isogram>, OsplError> {
    let elements = gather_element_traces(mesh, field)?;
    // One-dimensional BVH over the element value intervals: stabbing it
    // at `level` yields exactly the elements with `lo <= level <= hi`,
    // in ascending element order — the elements the full scan would
    // have traced. (Elements whose corner values are all NaN have an
    // empty interval box and are excluded; the scan produces no
    // crossings for them either.)
    let index = Bvh::build(
        &elements
            .iter()
            .map(|el| {
                BoundingBox::from_points([Point::new(el.lo, 0.0), Point::new(el.hi, 0.0)])
            })
            .collect::<Vec<_>>(),
    );
    Ok(levels
        .iter()
        .map(|&level| Isogram {
            level,
            segments: trace_level_over(
                &elements,
                index.stabbing(Point::new(level, 0.0)).into_iter(),
                level,
            ),
        })
        .collect())
}

/// The brute-force definition of [`extract_isograms`]: every level scans
/// every element. Kept public as the parity oracle — property tests and
/// the contour benchmark compare the accelerated output against this,
/// bit for bit.
///
/// # Errors
///
/// [`OsplError::FieldSizeMismatch`] when the field does not cover the
/// mesh.
pub fn extract_isograms_reference(
    mesh: &TriMesh,
    field: &NodalField,
    levels: &[f64],
) -> Result<Vec<Isogram>, OsplError> {
    let elements = gather_element_traces(mesh, field)?;
    Ok(levels
        .iter()
        .map(|&level| Isogram {
            level,
            segments: trace_level_over(&elements, 0..elements.len(), level),
        })
        .collect())
}

/// Gathers the per-element corner values, vertices, and edge boundary
/// flags once, so each contour level traces from a flat array instead of
/// re-querying the mesh. Levels are then independent: each one can be
/// traced in its own task, element order preserved within a level — the
/// per-level segment lists are identical to the serial loop's.
fn gather_element_traces(
    mesh: &TriMesh,
    field: &NodalField,
) -> Result<Vec<ElementTrace>, OsplError> {
    if field.len() != mesh.node_count() {
        return Err(OsplError::FieldSizeMismatch {
            nodes: mesh.node_count(),
            values: field.len(),
        });
    }
    let edge_map = mesh.edges();
    Ok(mesh
        .elements()
        .map(|(id, el)| {
            let values = [
                field.value(el.nodes[0]),
                field.value(el.nodes[1]),
                field.value(el.nodes[2]),
            ];
            let mut edge_on_boundary = [false; 3];
            for (e, (i, j)) in ELEMENT_EDGES.into_iter().enumerate() {
                edge_on_boundary[e] =
                    edge_map.get(&Edge::new(el.nodes[i], el.nodes[j])).map(Vec::len) == Some(1);
            }
            ElementTrace {
                vertices: mesh.triangle(id).vertices,
                values,
                lo: values[0].min(values[1]).min(values[2]),
                hi: values[0].max(values[1]).max(values[2]),
                edge_on_boundary,
            }
        })
        .collect())
}

/// Vertex index pairs of a triangle's three edges, in trace order.
const ELEMENT_EDGES: [(usize, usize); 3] = [(0, 1), (1, 2), (2, 0)];

/// Everything isogram tracing needs from one element, gathered up front.
struct ElementTrace {
    vertices: [Point; 3],
    values: [f64; 3],
    lo: f64,
    hi: f64,
    edge_on_boundary: [bool; 3],
}

/// Traces one contour level across the elements named by `indices` (in
/// the order given — callers pass ascending element indices, either the
/// whole range or the interval index's candidate set).
fn trace_level_over(
    elements: &[ElementTrace],
    indices: impl Iterator<Item = usize>,
    level: f64,
) -> Vec<IsoSegment> {
    let mut segments = Vec::new();
    for idx in indices {
        let el = &elements[idx];
        if level < el.lo || level > el.hi || el.lo == el.hi {
            continue;
        }
        // Find the crossing points on the element's edges.
        let mut crossings: Vec<(Point, bool)> = Vec::new();
        for (e, (i, j)) in ELEMENT_EDGES.into_iter().enumerate() {
            let (va, vb) = (el.values[i], el.values[j]);
            if va == vb {
                continue; // flat edge: neighbours draw the line
            }
            let t = match inverse_lerp(va, vb, level) {
                Some(t) if (0.0..=1.0).contains(&t) => t,
                _ => continue,
            };
            let p = lerp_point(el.vertices[i], el.vertices[j], t);
            // A level hitting a shared corner appears on both incident
            // edges; keep one copy, but OR the boundary flags — the
            // corner is a label site if *any* of its coincident edges is
            // a boundary edge, regardless of which edge traced first.
            match crossings
                .iter_mut()
                .find(|(q, _)| q.approx_eq(p, 1e-12 * (1.0 + p.x.abs() + p.y.abs())))
            {
                Some((_, on_boundary)) => *on_boundary |= el.edge_on_boundary[e],
                None => crossings.push((p, el.edge_on_boundary[e])),
            }
        }
        if crossings.len() == 2 {
            segments.push(IsoSegment {
                a: crossings[0].0,
                b: crossings[1].0,
                a_on_boundary: crossings[0].1,
                b_on_boundary: crossings[1].1,
            });
        }
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafemio_mesh::BoundaryKind;

    /// The Figure-12 triangle: values 5, 15, 35.
    fn figure12() -> (TriMesh, NodalField) {
        let mut mesh = TriMesh::new();
        let a = mesh.add_node(Point::new(0.0, 0.0), BoundaryKind::BoundaryCorner);
        let b = mesh.add_node(Point::new(4.0, 0.0), BoundaryKind::BoundaryCorner);
        let c = mesh.add_node(Point::new(2.0, 3.0), BoundaryKind::BoundaryCorner);
        mesh.add_element([a, b, c]).unwrap();
        (mesh, NodalField::new("S", vec![5.0, 15.0, 35.0]))
    }

    #[test]
    fn figure12_contours_cross_where_interpolation_says() {
        let (mesh, field) = figure12();
        let isograms = extract_isograms(&mesh, &field, &[10.0, 20.0, 30.0]).unwrap();
        for iso in &isograms {
            assert_eq!(iso.segments.len(), 1, "level {}", iso.level);
            assert!(iso.length() > 0.0);
        }
        // Level 10 crosses edge a-b at t = (10-5)/(15-5) = 0.5 → (2, 0).
        let seg = isograms[0].segments[0];
        let hits_expected = |p: Point| p.approx_eq(Point::new(2.0, 0.0), 1e-12);
        assert!(hits_expected(seg.a) || hits_expected(seg.b));
        // And edge a-c at t = (10-5)/(35-5) = 1/6 → (1/3, 0.5).
        let other = Point::new(2.0 / 6.0, 3.0 / 6.0);
        assert!(seg.a.approx_eq(other, 1e-12) || seg.b.approx_eq(other, 1e-12));
    }

    #[test]
    fn single_triangle_crossings_are_on_the_boundary() {
        let (mesh, field) = figure12();
        let isograms = extract_isograms(&mesh, &field, &[20.0]).unwrap();
        let seg = isograms[0].segments[0];
        assert!(seg.a_on_boundary && seg.b_on_boundary);
        assert_eq!(isograms[0].boundary_intersections().len(), 2);
    }

    #[test]
    fn interior_edges_not_label_sites() {
        // Two triangles; the contour crosses the shared edge.
        let mut mesh = TriMesh::new();
        let a = mesh.add_node(Point::new(0.0, 0.0), BoundaryKind::Boundary);
        let b = mesh.add_node(Point::new(2.0, 0.0), BoundaryKind::Boundary);
        let c = mesh.add_node(Point::new(2.0, 2.0), BoundaryKind::Boundary);
        let d = mesh.add_node(Point::new(0.0, 2.0), BoundaryKind::Boundary);
        mesh.add_element([a, b, c]).unwrap();
        mesh.add_element([a, c, d]).unwrap();
        // Field increasing in x: a=0, b=2, c=2, d=0.
        let field = NodalField::new("S", vec![0.0, 2.0, 2.0, 0.0]);
        let isograms = extract_isograms(&mesh, &field, &[1.0]).unwrap();
        // The level-1 line x = 1 crosses both triangles.
        assert_eq!(isograms[0].segments.len(), 2);
        // Exactly two of the four end points lie on the outer boundary.
        assert_eq!(isograms[0].boundary_intersections().len(), 2);
    }

    #[test]
    fn level_outside_range_is_empty() {
        let (mesh, field) = figure12();
        let isograms = extract_isograms(&mesh, &field, &[100.0, -10.0]).unwrap();
        assert!(isograms.iter().all(|i| i.segments.is_empty()));
    }

    #[test]
    fn constant_element_is_skipped() {
        let (mesh, _) = figure12();
        let field = NodalField::new("S", vec![7.0, 7.0, 7.0]);
        let isograms = extract_isograms(&mesh, &field, &[7.0]).unwrap();
        assert!(isograms[0].segments.is_empty());
    }

    #[test]
    fn level_through_vertex_yields_single_segment() {
        let (mesh, field) = figure12(); // values 5, 15, 35
        let isograms = extract_isograms(&mesh, &field, &[15.0]).unwrap();
        // Level 15 passes exactly through node b and crosses edge a-c.
        assert_eq!(isograms[0].segments.len(), 1);
        let seg = isograms[0].segments[0];
        let through_b = seg.a.approx_eq(Point::new(4.0, 0.0), 1e-9)
            || seg.b.approx_eq(Point::new(4.0, 0.0), 1e-9);
        assert!(through_b);
    }

    #[test]
    fn segment_endpoints_interpolate_exactly() {
        // Property: for random fields, every crossing point's interpolated
        // field value equals the level.
        let mut mesh = TriMesh::new();
        let a = mesh.add_node(Point::new(0.0, 0.0), BoundaryKind::Boundary);
        let b = mesh.add_node(Point::new(1.0, 0.0), BoundaryKind::Boundary);
        let c = mesh.add_node(Point::new(0.3, 1.1), BoundaryKind::Boundary);
        mesh.add_element([a, b, c]).unwrap();
        let mut seed = 99u64;
        let mut rand = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) * 50.0
        };
        for _ in 0..20 {
            let vals = vec![rand(), rand(), rand()];
            let field = NodalField::new("S", vals.clone());
            let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            if hi - lo < 1.0 {
                continue;
            }
            let level = 0.5 * (lo + hi);
            let isograms = extract_isograms(&mesh, &field, &[level]).unwrap();
            for seg in &isograms[0].segments {
                for p in [seg.a, seg.b] {
                    let tri = mesh.triangle(cafemio_mesh::ElementId(0));
                    let w = tri.barycentric(p).unwrap();
                    let v = w[0] * vals[0] + w[1] * vals[1] + w[2] * vals[2];
                    assert!((v - level).abs() < 1e-9, "value {v} vs level {level}");
                }
            }
        }
    }

    #[test]
    fn polylines_chain_across_elements() {
        // Two triangles, one vertical contour crossing both: the two
        // per-element pieces chain into one open polyline.
        let mut mesh = TriMesh::new();
        let a = mesh.add_node(Point::new(0.0, 0.0), BoundaryKind::Boundary);
        let b = mesh.add_node(Point::new(2.0, 0.0), BoundaryKind::Boundary);
        let c = mesh.add_node(Point::new(2.0, 2.0), BoundaryKind::Boundary);
        let d = mesh.add_node(Point::new(0.0, 2.0), BoundaryKind::Boundary);
        mesh.add_element([a, b, c]).unwrap();
        mesh.add_element([a, c, d]).unwrap();
        let field = NodalField::new("S", vec![0.0, 2.0, 2.0, 0.0]);
        let isograms = extract_isograms(&mesh, &field, &[1.0]).unwrap();
        assert_eq!(isograms[0].segments.len(), 2);
        let chains = isograms[0].polylines(1e-9);
        assert_eq!(chains.len(), 1, "one continuous contour");
        assert_eq!(chains[0].len(), 3, "three points: bottom, diagonal, top");
        // It spans the plate from y = 0 to y = 2 at x = 1.
        let ys: Vec<f64> = chains[0].iter().map(|p| p.y).collect();
        assert!(ys.contains(&0.0) && ys.contains(&2.0));
        assert!(chains[0].iter().all(|p| (p.x - 1.0).abs() < 1e-12));
        // Total chain length equals the summed segment lengths.
        let chain_len: f64 = chains[0].windows(2).map(|w| w[0].distance_to(w[1])).sum();
        assert!((chain_len - isograms[0].length()).abs() < 1e-12);
    }

    #[test]
    fn polylines_separate_disjoint_contours() {
        // Two disconnected hot spots at the two ends of a strip: the same
        // level yields two chains.
        let mut mesh = TriMesh::new();
        let mut ids = Vec::new();
        for j in 0..=1 {
            for i in 0..=4 {
                ids.push(mesh.add_node(
                    Point::new(i as f64, j as f64),
                    BoundaryKind::Boundary,
                ));
            }
        }
        let at = |i: usize, j: usize| ids[j * 5 + i];
        for i in 0..4 {
            mesh.add_element([at(i, 0), at(i + 1, 0), at(i + 1, 1)]).unwrap();
            mesh.add_element([at(i, 0), at(i + 1, 1), at(i, 1)]).unwrap();
        }
        // Peaks at both ends, cold middle.
        let values: Vec<f64> = mesh
            .nodes()
            .map(|(_, n)| if n.position.x < 0.5 || n.position.x > 3.5 { 10.0 } else { 0.0 })
            .collect();
        let field = NodalField::new("S", values);
        let isograms = extract_isograms(&mesh, &field, &[5.0]).unwrap();
        let chains = isograms[0].polylines(1e-9);
        assert_eq!(chains.len(), 2, "two disjoint hot-spot contours");
    }

    #[test]
    fn corner_crossing_keeps_the_boundary_flag_from_any_incident_edge() {
        // A level passing exactly through a vertex shared by a boundary
        // edge and an interior edge: whichever edge traces first, the
        // kept crossing must still count as a label site.
        //
        //   d --- c        Elements: (a b c) and (a c d); the diagonal
        //   | \ 1 |        a-c is interior, everything else boundary.
        //   | 0 \ |        Field increases along x + y, so a mid level
        //   a --- b        passes exactly through corners b and d.
        let mut mesh = TriMesh::new();
        let a = mesh.add_node(Point::new(0.0, 0.0), BoundaryKind::Boundary);
        let b = mesh.add_node(Point::new(2.0, 0.0), BoundaryKind::Boundary);
        let c = mesh.add_node(Point::new(2.0, 2.0), BoundaryKind::Boundary);
        let d = mesh.add_node(Point::new(0.0, 2.0), BoundaryKind::Boundary);
        mesh.add_element([a, b, c]).unwrap();
        mesh.add_element([a, c, d]).unwrap();
        // f = x + y: a=0, b=2, c=4, d=2. Level 2 runs through b and d
        // and crosses the interior diagonal at (1, 1).
        let field = NodalField::new("S", vec![0.0, 2.0, 4.0, 2.0]);
        let isograms = extract_isograms(&mesh, &field, &[2.0]).unwrap();
        let segments = &isograms[0].segments;
        assert_eq!(segments.len(), 2);
        // In element 0 the trace visits edge a-b (boundary, crossing at
        // b), then b-c (boundary, same corner b — the dedup case), then
        // c-a (interior, crossing at (1,1)). The corner b crossing must
        // be flagged as boundary however the coincident edges were
        // ordered; same for d in element 1.
        for (seg, corner) in [(segments[0], Point::new(2.0, 0.0)), (segments[1], Point::new(0.0, 2.0))] {
            let (corner_flag, other_flag) = if seg.a.approx_eq(corner, 1e-12) {
                (seg.a_on_boundary, seg.b_on_boundary)
            } else {
                assert!(seg.b.approx_eq(corner, 1e-12), "segment misses corner {corner:?}");
                (seg.b_on_boundary, seg.a_on_boundary)
            };
            assert!(corner_flag, "corner {corner:?} lost its boundary flag");
            assert!(!other_flag, "interior diagonal crossing must not be a label site");
        }
        // Both corner sites survive into the label list.
        assert_eq!(isograms[0].boundary_intersections().len(), 2);
    }

    #[test]
    fn accelerated_extraction_matches_the_reference_scan() {
        // Random fields over a small grid: the interval-index path must
        // reproduce the full-scan output exactly, including NaN corners.
        let mut mesh = TriMesh::new();
        let mut ids = Vec::new();
        for j in 0..=4 {
            for i in 0..=4 {
                ids.push(mesh.add_node(
                    Point::new(i as f64, j as f64),
                    BoundaryKind::Boundary,
                ));
            }
        }
        let at = |i: usize, j: usize| ids[j * 5 + i];
        for j in 0..4 {
            for i in 0..4 {
                mesh.add_element([at(i, j), at(i + 1, j), at(i + 1, j + 1)]).unwrap();
                mesh.add_element([at(i, j), at(i + 1, j + 1), at(i, j + 1)]).unwrap();
            }
        }
        let mut seed = 2024u64;
        let mut rand = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        for round in 0..10 {
            let values: Vec<f64> = (0..mesh.node_count())
                .map(|_| {
                    let v = rand() * 100.0 - 50.0;
                    // Sprinkle NaNs in some rounds: both paths must
                    // treat poisoned elements identically.
                    if round >= 8 && v > 40.0 {
                        f64::NAN
                    } else {
                        v
                    }
                })
                .collect();
            let field = NodalField::new("S", values);
            let levels: Vec<f64> = (0..7).map(|_| rand() * 120.0 - 60.0).collect();
            let fast = extract_isograms(&mesh, &field, &levels).unwrap();
            let slow = extract_isograms_reference(&mesh, &field, &levels).unwrap();
            assert_eq!(fast, slow, "round {round}");
        }
    }

    #[test]
    fn polylines_match_the_linear_scan_reference() {
        // The bucketed endpoint join must chain exactly like the old
        // first-match linear scan, whatever the segment order.
        fn reference_polylines(iso: &Isogram, tol: f64) -> Vec<Vec<Point>> {
            let n = iso.segments.len();
            let mut used = vec![false; n];
            let close = |p: Point, q: Point| p.approx_eq(q, tol);
            let mut chains = Vec::new();
            for start in 0..n {
                if used[start] {
                    continue;
                }
                used[start] = true;
                let mut chain = vec![iso.segments[start].a, iso.segments[start].b];
                loop {
                    let tail = *chain.last().unwrap();
                    match (0..n).find(|&j| {
                        !used[j]
                            && (close(iso.segments[j].a, tail) || close(iso.segments[j].b, tail))
                    }) {
                        Some(j) => {
                            used[j] = true;
                            let s = &iso.segments[j];
                            chain.push(if close(s.a, tail) { s.b } else { s.a });
                        }
                        None => break,
                    }
                }
                loop {
                    let head = chain[0];
                    match (0..n).find(|&j| {
                        !used[j]
                            && (close(iso.segments[j].a, head) || close(iso.segments[j].b, head))
                    }) {
                        Some(j) => {
                            used[j] = true;
                            let s = &iso.segments[j];
                            chain.insert(0, if close(s.a, head) { s.b } else { s.a });
                        }
                        None => break,
                    }
                }
                chains.push(chain);
            }
            chains
        }

        let mut seed = 77u64;
        let mut rand = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..20 {
            // Random walk broken into several disjoint pieces, segments
            // shuffled by construction order.
            let mut segments = Vec::new();
            let mut p = Point::new(rand() * 10.0, rand() * 10.0);
            for k in 0..40 {
                if k % 9 == 0 {
                    p = Point::new(rand() * 10.0, rand() * 10.0); // break the chain
                }
                let q = Point::new(p.x + rand() - 0.5, p.y + rand() - 0.5);
                let flip = rand() > 0.5;
                segments.push(IsoSegment {
                    a: if flip { q } else { p },
                    b: if flip { p } else { q },
                    a_on_boundary: false,
                    b_on_boundary: false,
                });
                p = q;
            }
            let iso = Isogram { level: 0.0, segments };
            for tol in [1e-9, 1e-3, 0.3] {
                assert_eq!(iso.polylines(tol), reference_polylines(&iso, tol), "tol {tol}");
            }
        }
    }

    #[test]
    fn mismatched_field_rejected() {
        let (mesh, _) = figure12();
        let short = NodalField::new("S", vec![1.0]);
        assert!(matches!(
            extract_isograms(&mesh, &short, &[0.5]).unwrap_err(),
            OsplError::FieldSizeMismatch { nodes: 3, values: 1 }
        ));
    }
}
