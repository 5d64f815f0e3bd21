//! Shaping: locating boundary nodes and interpolating the rest.
//!
//! "After the nodes are numbered and elements formed, 'shaping' takes
//! place. … Adjacent boundary nodes forming a straight line or circular
//! arc need only have the coordinates of the two end nodes specified,
//! along with the radius, if any. … The user specifies the location of
//! nodes on any two opposite sides of the subdivision and IDLZ locates the
//! rest of the nodes through linear interpolation."

use std::collections::BTreeMap;

use cafemio_geom::{lerp_point, Arc, Point, Segment};

use crate::subdivision::{GridPoint, Side, Subdivision, Taper};
use crate::IdlzError;

/// One Type-6 shape card: a straight line or circular arc locating a run
/// of consecutive nodes along one side of a subdivision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeLine {
    /// Integer coordinates of end 1 (`K1`, `L1`).
    pub from: GridPoint,
    /// Integer coordinates of end 2 (`K2`, `L2`).
    pub to: GridPoint,
    /// Actual location of end 1 (`X1`, `Y1`).
    pub start: Point,
    /// Actual location of end 2 (`X2`, `Y2`).
    pub end: Point,
    /// Radius of curvature; zero for a straight line. "The center of
    /// curvature is located such that moving from end 1 to end 2 on the
    /// arc is a counterclockwise motion."
    pub radius: f64,
}

impl ShapeLine {
    /// A straight shape line.
    pub fn straight(from: GridPoint, to: GridPoint, start: Point, end: Point) -> ShapeLine {
        ShapeLine {
            from,
            to,
            start,
            end,
            radius: 0.0,
        }
    }

    /// A circular-arc shape line (counter-clockwise from `start` to
    /// `end`, subtending at most 90°).
    pub fn arc(
        from: GridPoint,
        to: GridPoint,
        start: Point,
        end: Point,
        radius: f64,
    ) -> ShapeLine {
        ShapeLine {
            from,
            to,
            start,
            end,
            radius,
        }
    }

    /// True when the line is an arc.
    pub fn is_arc(&self) -> bool {
        self.radius != 0.0
    }
}

/// Runs the shaping pass: returns the final position of every node
/// (indexed as in `node_index`'s values).
///
/// Subdivisions are processed in input order, so a later subdivision can
/// rely on nodes already located through a shared side (the report's Hint
/// 6). Nodes located explicitly are never overwritten by interpolation.
pub(crate) fn shape_nodes(
    subdivisions: &[Subdivision],
    lines: &BTreeMap<usize, Vec<ShapeLine>>,
    node_index: &BTreeMap<GridPoint, usize>,
    node_count: usize,
) -> Result<Vec<Point>, IdlzError> {
    let mut located: Vec<Option<Point>> = vec![None; node_count];

    for sub in subdivisions {
        // 1. Apply this subdivision's shape lines.
        if let Some(sub_lines) = lines.get(&sub.id()) {
            for line in sub_lines {
                apply_line(sub, line, node_index, &mut located)?;
            }
        }

        // 2. Interpolate the rest of the subdivision's nodes.
        interpolate_subdivision(sub, node_index, &mut located)?;
    }

    located
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            p.ok_or(IdlzError::BadDeck {
                reason: format!("node {i} was never located (internal shaping error)"),
            })
        })
        .collect()
}

/// Locates the run of side nodes covered by one shape line.
fn apply_line(
    sub: &Subdivision,
    line: &ShapeLine,
    node_index: &BTreeMap<GridPoint, usize>,
    located: &mut [Option<Point>],
) -> Result<(), IdlzError> {
    let run = side_run(sub, line.from, line.to)?;
    let positions: Vec<Point> = if run.len() == 1 {
        vec![line.start]
    } else if line.is_arc() {
        let arc = Arc::from_endpoints_radius(line.start, line.end, line.radius).map_err(
            |source| IdlzError::Arc {
                subdivision: sub.id(),
                source,
            },
        )?;
        arc.subdivide(run.len() - 1)
    } else {
        Segment::new(line.start, line.end).subdivide(run.len() - 1)
    };
    for (grid, position) in run.iter().zip(positions) {
        let idx = node_index[grid];
        located[idx] = Some(position);
    }
    Ok(())
}

/// The consecutive side nodes from `from` to `to` (inclusive, in that
/// order).
fn side_run(
    sub: &Subdivision,
    from: GridPoint,
    to: GridPoint,
) -> Result<Vec<GridPoint>, IdlzError> {
    for side in Side::ALL {
        let nodes = sub.side_nodes(side);
        let i = nodes.iter().position(|&p| p == from);
        let j = nodes.iter().position(|&p| p == to);
        if let (Some(i), Some(j)) = (i, j) {
            let run: Vec<GridPoint> = if i <= j {
                nodes[i..=j].to_vec()
            } else {
                let mut r = nodes[j..=i].to_vec();
                r.reverse();
                r
            };
            return Ok(run);
        }
    }
    Err(IdlzError::BadShapeLine {
        subdivision: sub.id(),
        reason: format!(
            "end points {from:?} and {to:?} do not lie on a common side of the subdivision"
        ),
    })
}

/// Fills every still-unlocated node of the subdivision by linear
/// interpolation between a located pair of opposite sides. Strips run in
/// order and never overwrite a node an earlier strip located.
fn interpolate_subdivision(
    sub: &Subdivision,
    node_index: &BTreeMap<GridPoint, usize>,
    located: &mut [Option<Point>],
) -> Result<(), IdlzError> {
    let strips = sub.strips();
    let is_located = |pts: &[GridPoint], located: &[Option<Point>]| {
        pts.iter().all(|p| located[node_index[p]].is_some())
    };
    // The "ends pair" runs across the strips (strip first / strip last
    // nodes); the "parallel pair" is the first and last strip themselves.
    let (ends_a, ends_b, par_a, par_b) = match sub.taper() {
        Taper::None | Taper::Row(_) => (Side::Left, Side::Right, Side::Bottom, Side::Top),
        Taper::Column(_) => (Side::Bottom, Side::Top, Side::Left, Side::Right),
    };
    let ends_located = is_located(&sub.side_nodes(ends_a), located)
        && is_located(&sub.side_nodes(ends_b), located);
    let parallel_located = is_located(&sub.side_nodes(par_a), located)
        && is_located(&sub.side_nodes(par_b), located);

    if ends_located {
        // Each strip becomes a straight line between its end nodes —
        // "two opposite sides in every subdivision will be straight
        // lines".
        for strip in &strips {
            // invariant: both strip ends are Some (the `ends_located`
            // check above), and strips are never empty.
            let first = located[node_index[&strip[0]]].expect("ends located");
            // invariant: strips are never empty and their ends are
            // located (checked above).
            let last = located[node_index[strip.last().expect("non-empty strip")]]
                .expect("ends located");
            let m = strip.len();
            for (j, grid) in strip.iter().enumerate() {
                let idx = node_index[grid];
                if located[idx].is_none() {
                    let t = if m > 1 { j as f64 / (m - 1) as f64 } else { 0.5 };
                    located[idx] = Some(lerp_point(first, last, t));
                }
            }
        }
        Ok(())
    } else if parallel_located {
        // Interpolate between the two parallel sides by fractional
        // position: strips of different lengths (trapezoids) map node j of
        // m onto the fraction j/(m-1) of each located side polyline.
        // invariant: the `parallel_located` check above guarantees every
        // node of both parallel sides is Some.
        let locate = |p: &GridPoint| located[node_index[p]].expect("parallel located");
        let side_a: Vec<Point> = sub.side_nodes(par_a).iter().map(locate).collect();
        let side_b: Vec<Point> = sub.side_nodes(par_b).iter().map(locate).collect();
        let nstrips = strips.len();
        for (r, strip) in strips.iter().enumerate() {
            let s = r as f64 / (nstrips - 1) as f64;
            let m = strip.len();
            for (j, grid) in strip.iter().enumerate() {
                let idx = node_index[grid];
                if located[idx].is_none() {
                    let t = if m > 1 { j as f64 / (m - 1) as f64 } else { 0.5 };
                    let a = polyline_at(&side_a, t);
                    let b = polyline_at(&side_b, t);
                    located[idx] = Some(lerp_point(a, b, s));
                }
            }
        }
        Ok(())
    } else {
        Err(IdlzError::SidesNotLocated {
            subdivision: sub.id(),
        })
    }
}

/// Point at index fraction `t ∈ [0, 1]` along a polyline of located side
/// nodes.
fn polyline_at(points: &[Point], t: f64) -> Point {
    if points.len() == 1 {
        return points[0];
    }
    let u = t.clamp(0.0, 1.0) * (points.len() - 1) as f64;
    let i = (u.floor() as usize).min(points.len() - 2);
    lerp_point(points[i], points[i + 1], u - i as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_for(sub: &Subdivision) -> BTreeMap<GridPoint, usize> {
        let mut pts = sub.grid_points();
        pts.sort_by_key(|&(k, l)| (l, k));
        pts.into_iter().enumerate().map(|(i, p)| (p, i)).collect()
    }

    #[test]
    fn rectangle_shaped_by_left_and_right() {
        let sub = Subdivision::rectangular(1, (0, 0), (2, 2)).unwrap();
        let index = index_for(&sub);
        let mut lines = BTreeMap::new();
        lines.insert(
            1,
            vec![
                ShapeLine::straight((0, 0), (0, 2), Point::new(0.0, 0.0), Point::new(0.0, 1.0)),
                ShapeLine::straight((2, 0), (2, 2), Point::new(3.0, 0.0), Point::new(3.0, 1.0)),
            ],
        );
        let pos = shape_nodes(&[sub], &lines, &index, index.len()).unwrap();
        // Center node lands at the center of the 3 × 1 plate.
        let center = pos[index[&(1, 1)]];
        assert!(center.approx_eq(Point::new(1.5, 0.5), 1e-12));
        // Bottom mid-node interpolates along the bottom strip.
        assert!(pos[index[&(1, 0)]].approx_eq(Point::new(1.5, 0.0), 1e-12));
    }

    #[test]
    fn rectangle_shaped_by_bottom_and_top() {
        let sub = Subdivision::rectangular(1, (0, 0), (2, 2)).unwrap();
        let index = index_for(&sub);
        let mut lines = BTreeMap::new();
        lines.insert(
            1,
            vec![
                ShapeLine::straight((0, 0), (2, 0), Point::new(0.0, 0.0), Point::new(2.0, 0.0)),
                ShapeLine::straight((0, 2), (2, 2), Point::new(0.0, 4.0), Point::new(2.0, 4.0)),
            ],
        );
        let pos = shape_nodes(&[sub], &lines, &index, index.len()).unwrap();
        assert!(pos[index[&(1, 1)]].approx_eq(Point::new(1.0, 2.0), 1e-12));
    }

    #[test]
    fn arc_side_places_nodes_on_circle() {
        let sub = Subdivision::rectangular(1, (0, 0), (4, 1)).unwrap();
        let index = index_for(&sub);
        let mut lines = BTreeMap::new();
        // Bottom: quarter arc of radius 2 about the origin; top: same arc
        // at radius 3.
        lines.insert(
            1,
            vec![
                ShapeLine::arc(
                    (0, 0),
                    (4, 0),
                    Point::new(2.0, 0.0),
                    Point::new(0.0, 2.0),
                    2.0,
                ),
                ShapeLine::arc(
                    (0, 1),
                    (4, 1),
                    Point::new(3.0, 0.0),
                    Point::new(0.0, 3.0),
                    3.0,
                ),
            ],
        );
        let pos = shape_nodes(&[sub], &lines, &index, index.len()).unwrap();
        for k in 0..=4 {
            let inner = pos[index[&(k, 0)]];
            let outer = pos[index[&(k, 1)]];
            assert!((inner.distance_to(Point::ORIGIN) - 2.0).abs() < 1e-9);
            assert!((outer.distance_to(Point::ORIGIN) - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn reversed_run_direction_accepted() {
        let sub = Subdivision::rectangular(1, (0, 0), (2, 1)).unwrap();
        let index = index_for(&sub);
        let mut lines = BTreeMap::new();
        // Bottom line given right-to-left.
        lines.insert(
            1,
            vec![
                ShapeLine::straight((2, 0), (0, 0), Point::new(2.0, 0.0), Point::new(0.0, 0.0)),
                ShapeLine::straight((0, 1), (2, 1), Point::new(0.0, 1.0), Point::new(2.0, 1.0)),
            ],
        );
        let pos = shape_nodes(&[sub], &lines, &index, index.len()).unwrap();
        assert!(pos[index[&(0, 0)]].approx_eq(Point::new(0.0, 0.0), 1e-12));
        assert!(pos[index[&(2, 0)]].approx_eq(Point::new(2.0, 0.0), 1e-12));
    }

    #[test]
    fn missing_sides_reported() {
        let sub = Subdivision::rectangular(7, (0, 0), (2, 1)).unwrap();
        let index = index_for(&sub);
        let mut lines = BTreeMap::new();
        // Only one side located.
        lines.insert(
            7,
            vec![ShapeLine::straight(
                (0, 0),
                (2, 0),
                Point::new(0.0, 0.0),
                Point::new(2.0, 0.0),
            )],
        );
        let err = shape_nodes(&[sub], &lines, &index, index.len()).unwrap_err();
        assert_eq!(err, IdlzError::SidesNotLocated { subdivision: 7 });
    }

    #[test]
    fn bad_line_endpoints_reported() {
        let sub = Subdivision::rectangular(3, (0, 0), (2, 2)).unwrap();
        let index = index_for(&sub);
        let mut lines = BTreeMap::new();
        // (0,0) is on the bottom/left, (2,2) on the top/right — no common
        // side.
        lines.insert(
            3,
            vec![ShapeLine::straight(
                (0, 0),
                (2, 2),
                Point::ORIGIN,
                Point::new(1.0, 1.0),
            )],
        );
        assert!(matches!(
            shape_nodes(&[sub], &lines, &index, index.len()).unwrap_err(),
            IdlzError::BadShapeLine { subdivision: 3, .. }
        ));
    }

    #[test]
    fn triangle_apex_located_as_point() {
        // Degenerate trapezoid: apex on top, located by a single-point
        // "line".
        let sub = Subdivision::row_trapezoid(1, (0, 0), (4, 2), -1).unwrap();
        let index = index_for(&sub);
        let mut lines = BTreeMap::new();
        lines.insert(
            1,
            vec![
                ShapeLine::straight((0, 0), (4, 0), Point::new(0.0, 0.0), Point::new(4.0, 0.0)),
                ShapeLine::straight((2, 2), (2, 2), Point::new(2.0, 3.0), Point::new(2.0, 3.0)),
            ],
        );
        let pos = shape_nodes(&[sub], &lines, &index, index.len()).unwrap();
        assert!(pos[index[&(2, 2)]].approx_eq(Point::new(2.0, 3.0), 1e-12));
        // Middle row interpolates between bottom polyline and apex.
        let mid = pos[index[&(2, 1)]];
        assert!(mid.approx_eq(Point::new(2.0, 1.5), 1e-12));
    }

    #[test]
    fn shared_side_nodes_not_overwritten() {
        // Two stacked rectangles; the shared row is located while shaping
        // subdivision 1 and must survive subdivision 2's interpolation.
        let s1 = Subdivision::rectangular(1, (0, 0), (2, 1)).unwrap();
        let s2 = Subdivision::rectangular(2, (0, 1), (2, 2)).unwrap();
        let mut pts: Vec<GridPoint> = s1
            .grid_points()
            .into_iter()
            .chain(s2.grid_points())
            .collect();
        pts.sort_by_key(|&(k, l)| (l, k));
        pts.dedup();
        let index: BTreeMap<GridPoint, usize> =
            pts.into_iter().enumerate().map(|(i, p)| (p, i)).collect();
        let mut lines = BTreeMap::new();
        lines.insert(
            1,
            vec![
                ShapeLine::straight((0, 0), (2, 0), Point::new(0.0, 0.0), Point::new(2.0, 0.0)),
                // Shared row bulges upward at the middle via two segments.
                ShapeLine::straight((0, 1), (1, 1), Point::new(0.0, 1.0), Point::new(1.0, 1.5)),
                ShapeLine::straight((1, 1), (2, 1), Point::new(1.0, 1.5), Point::new(2.0, 1.0)),
            ],
        );
        lines.insert(
            2,
            vec![ShapeLine::straight(
                (0, 2),
                (2, 2),
                Point::new(0.0, 2.0),
                Point::new(2.0, 2.0),
            )],
        );
        let pos = shape_nodes(&[s1, s2], &lines, &index, index.len()).unwrap();
        // The bulged mid-node keeps its explicit location.
        assert!(pos[index[&(1, 1)]].approx_eq(Point::new(1.0, 1.5), 1e-12));
    }

    #[test]
    fn polyline_at_interpolates_by_index() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
        ];
        assert!(polyline_at(&pts, 0.0).approx_eq(pts[0], 1e-15));
        assert!(polyline_at(&pts, 1.0).approx_eq(pts[2], 1e-15));
        assert!(polyline_at(&pts, 0.25).approx_eq(Point::new(0.5, 0.0), 1e-12));
        assert!(polyline_at(&pts, 0.75).approx_eq(Point::new(1.0, 0.5), 1e-12));
    }
}
