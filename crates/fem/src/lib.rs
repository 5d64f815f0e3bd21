//! # cafemio-fem
//!
//! The finite-element analysis substrate the paper's tools serve.
//!
//! IDLZ punches node/element cards "suitable for input to the finite
//! element analysis program" (the paper's Reference 1: an axisymmetric /
//! plane stress / plane strain solid analysis), and OSPL plots the nodal
//! stresses and temperatures those analyses print. Neither NSRDC program
//! survives in public form, so this crate implements the same technology
//! class from scratch:
//!
//! * constant-strain triangles for **plane stress**, **plane strain**, and
//!   **axisymmetric ring** problems ([`AnalysisKind`]),
//! * isotropic and (cylindrically) orthotropic materials ([`Material`]) —
//!   the orthotropic case carries the GRP cylinders of Figures 15–16,
//! * nodal loads, edge pressures, and displacement constraints on a
//!   [`FemModel`],
//! * a **symmetric banded Cholesky solver** ([`BandMatrix`]) whose cost
//!   scales with the square of the bandwidth — the quantity IDLZ's
//!   renumbering pass minimizes — plus a dense reference solver,
//! * a **sparse CSR / conjugate-gradient backend** ([`CsrMatrix`],
//!   [`solve_cg`]) for meshes past the 1970 Table-2 scale, selected via
//!   [`SolverBackend::SparseCg`],
//! * nodal stress recovery ([`StressField`]): radial, axial/meridional,
//!   circumferential, shear, and von Mises effective stress (the fields
//!   OSPL contours in Figures 13 and 15–18),
//! * **transient heat conduction** ([`ThermalModel`]) with surface flux
//!   pulses, for the T-beam temperature plots of Figure 14.
//!
//! # Examples
//!
//! ```
//! use cafemio_fem::{AnalysisKind, FemModel, Material};
//! use cafemio_geom::Point;
//! use cafemio_mesh::{BoundaryKind, TriMesh};
//! # fn main() -> Result<(), cafemio_fem::FemError> {
//! // One CST under uniaxial tension via two constrained corners.
//! let mut mesh = TriMesh::new();
//! let a = mesh.add_node(Point::new(0.0, 0.0), BoundaryKind::Boundary);
//! let b = mesh.add_node(Point::new(1.0, 0.0), BoundaryKind::Boundary);
//! let c = mesh.add_node(Point::new(0.0, 1.0), BoundaryKind::Boundary);
//! mesh.add_element([a, b, c]).unwrap();
//! let mut model = FemModel::new(mesh, AnalysisKind::PlaneStress { thickness: 1.0 },
//!                               Material::isotropic(1.0e7, 0.3));
//! model.fix_both(a);
//! model.fix_y(b);
//! model.add_force(b, 100.0, 0.0);
//! let solution = model.solve()?;
//! assert!(solution.displacement(b).0 > 0.0);
//! # Ok(())
//! # }
//! ```

// Banded/skyline factorizations are index algebra; iterator rewrites of
// their triangular loops obscure the textbook form.
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)]

mod band;
mod contact;
mod element;
mod error;
mod linalg;
mod material;
mod model;
mod skyline;
mod sparse;
mod stress;
mod thermal;
mod thermal_stress;

/// The direct factors' relative pivot floor. `Band` and `Skyline`, and
/// with `Skyline` the complete factor of `SparseCg`, reject pivot `j` as
/// [`FemError::SingularMatrix`] when `d_j ≤ PIVOT_RATIO · a_jj`, where
/// `a_jj` is the column's diagonal before elimination and `d_j` what
/// elimination leaves of it. A rigid-body mode that the supports leave
/// free eliminates to round-off of either sign, not to zero: on a
/// 20 × 20 plane-strain grid held at one node, that pivot came to between
/// 1e-17 and 2e-11 of its diagonal, and a bare `d_j ≤ 0` test passed it
/// about one time in twelve. Supported models stay far above the floor:
/// the catalog at 1.9e-3 or more, `large_plate` at 1.9e-4, the
/// large-mesh strip at 1.7e-4. A stiffness contrast of 12 orders of
/// magnitude inside one model leaves pivots near 7e-13, below the floor,
/// and is reported singular too.
///
/// [`DenseMatrix`] pivots by rows, so its diagonal moves with each swap.
/// It rejects column `j` when the partial pivot (the largest magnitude
/// elimination leaves in rows `j..`) is at or below `PIVOT_RATIO` times
/// the largest magnitude column `j` held before elimination, a
/// reference no row swap changes. By that measure the catalog's
/// smallest pivot is 3.4e-4, and that of the orthotropic compliance
/// matrices `inverse` runs on 0.92.
pub(crate) const PIVOT_RATIO: f64 = 1e-10;

pub use band::{BandMatrix, CholeskyFactor};
pub use contact::{
    solve_contact_increments, solve_with_contact, ContactIncrement, ContactResult,
    ContactSupport,
};
pub use element::{element_stiffness, ElementMatrices};
pub use error::FemError;
pub use linalg::DenseMatrix;
pub use material::{Material, ThermalMaterial};
pub use model::{AnalysisKind, FemModel, Solution, SolverBackend};
pub use skyline::{dof_profile, SkylineMatrix};
pub use sparse::{solve_cg, CgOptions, CgStats, CsrMatrix};
pub use stress::{ElementStress, StressField};
pub use thermal::{ThermalModel, ThermalSolution};
pub use thermal_stress::ThermalLoad;
