//! # cafemio-idlz
//!
//! The paper's first contribution: **IDLZ**, the automatic idealization
//! (mesh generation) program. "IDLZ divides a plane surface into
//! triangular elements and generates required input data for the analysis
//! program."
//!
//! The pipeline reproduces the report's flow diagram exactly:
//!
//! 1. **Read data** — an [`IdealizationSpec`] (built programmatically or
//!    parsed from an Appendix-B card deck via [`deck`]),
//! 2. **Assign nodal numbers** — integer grid points of the
//!    [`Subdivision`] assemblage, numbered left-to-right, bottom-to-top,
//! 3. **Create elements** — strip-by-strip fan triangulation, including
//!    the trapezoidal (`NTAPRW`/`NTAPCM`) and degenerate three-sided
//!    subdivisions,
//! 4. **Plot before shaping** (optional),
//! 5. **Shape the structure** — locate boundary nodes from straight-line
//!    and circular-arc segments, interpolate interior nodes linearly
//!    between two located opposite sides,
//! 6. **Reform elements** with needle-like corners (diagonal swapping that
//!    increases the minimum angle),
//! 7. **Renumber nodes** to ensure a narrow bandwidth (optional;
//!    Cuthill–McKee),
//! 8. **Print, punch, plot** — statistics, card decks in a user-supplied
//!    FORTRAN format, and SD-4020 frames.
//!
//! # Examples
//!
//! ```
//! use cafemio_idlz::{Idealization, IdealizationSpec, ShapeLine, Subdivision, Taper};
//! use cafemio_geom::Point;
//! # fn main() -> Result<(), cafemio_idlz::IdlzError> {
//! // A 4 × 2 rectangular subdivision shaped into a 2.0 × 0.5 plate.
//! let mut spec = IdealizationSpec::new("QUICK PLATE");
//! spec.add_subdivision(Subdivision::rectangular(1, (0, 0), (4, 2))?);
//! spec.add_shape_line(1, ShapeLine::straight(
//!     (0, 0), (4, 0), Point::new(0.0, 0.0), Point::new(2.0, 0.0)));
//! spec.add_shape_line(1, ShapeLine::straight(
//!     (0, 2), (4, 2), Point::new(0.0, 0.5), Point::new(2.0, 0.5)));
//! let result = Idealization::run(&spec)?;
//! assert_eq!(result.mesh.node_count(), 15);
//! assert_eq!(result.mesh.element_count(), 16);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deck;
mod error;
mod idealization;
mod limits;
mod listing;
mod plot;
mod reform;
mod shape;
mod spec;
mod subdivision;

pub use error::IdlzError;
pub use idealization::{Idealization, IdealizationResult, IdlzStats};
pub use limits::{Capability, Limits};
pub use listing::listing;
pub use plot::{plot_mesh, plot_subdivision_numbers, PlotOptions};
pub use reform::{reform_elements, ReformReport};
pub use shape::ShapeLine;
pub use spec::{IdealizationSpec, Options};
pub use subdivision::{GridPoint, Side, Subdivision, Taper};
