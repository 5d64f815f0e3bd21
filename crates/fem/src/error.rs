//! Error type for the analysis substrate.

use std::fmt;

/// Errors raised by model assembly and solution.
#[derive(Debug, Clone, PartialEq)]
pub enum FemError {
    /// The global stiffness matrix is singular or not positive definite —
    /// almost always an under-constrained model (rigid-body motion left
    /// free).
    SingularMatrix {
        /// Equation (degree-of-freedom) index where factorization failed.
        equation: usize,
    },
    /// The model has no elements to assemble.
    EmptyModel,
    /// The model has no displacement constraints at all, so the stiffness
    /// matrix carries every rigid-body mode and is singular by
    /// construction. Caught before factorization: rounding can smear the
    /// exact zero pivots into tiny values that factor into a garbage
    /// "solution".
    Unconstrained,
    /// A material is physically inadmissible (e.g. Poisson ratio ≥ 0.5 in
    /// plane strain, non-positive modulus).
    BadMaterial {
        /// Human-readable description.
        reason: String,
    },
    /// A referenced node does not exist in the mesh.
    UnknownNode {
        /// The offending index.
        index: usize,
    },
    /// An axisymmetric model reaches to negative radius (a node left of
    /// the axis, or an element whose centroid crosses it).
    NegativeRadius {
        /// The offending node or element index.
        index: usize,
        /// The radius found.
        radius: f64,
    },
    /// A time-stepping parameter is out of range.
    BadTimeStep {
        /// Human-readable description.
        reason: String,
    },
    /// An iterative procedure (e.g. the contact active set) failed to
    /// settle within its iteration budget.
    NoConvergence {
        /// Iterations attempted.
        iterations: usize,
        /// What was iterating.
        what: &'static str,
    },
    /// The conjugate-gradient solver exhausted its iteration budget
    /// before reaching its residual tolerance — typically a very
    /// ill-conditioned system (extreme material contrast, degenerate
    /// geometry). Carries the residual actually achieved so callers can
    /// distinguish "nearly there" from divergence.
    CgNoConvergence {
        /// Iterations performed (the whole budget).
        iterations: usize,
        /// Relative residual `‖b − A·x‖ / ‖b‖` at exit.
        residual: f64,
        /// The tolerance that was not met.
        tolerance: f64,
    },
    /// The conjugate-gradient iteration met a search direction `p` whose
    /// curvature `pᵀ·A·p` is not positive (or not finite): the matrix is
    /// not positive definite — almost always an under-constrained model.
    /// Raised on the IC(0) and Jacobi paths; the complete factor rejects
    /// such a matrix earlier, as [`SingularMatrix`](FemError::SingularMatrix)
    /// at its failing pivot.
    CgBreakdown {
        /// The iteration (counted from 1) whose direction broke down.
        iteration: usize,
        /// The curvature `pᵀ·A·p` found there.
        curvature: f64,
    },
    /// A non-finite coefficient (NaN or infinity) entered the system —
    /// usually degenerate geometry poisoning a stiffness term. Solvers
    /// refuse to propagate it into a garbage "solution".
    NonFinite {
        /// Equation (degree-of-freedom) index where it was detected.
        equation: usize,
    },
    /// An element's triangle has (numerically) zero area, so its
    /// stiffness is undefined.
    DegenerateElement {
        /// Zero-based element index.
        element: usize,
    },
    /// A pressure was applied to an edge whose two nodes coincide.
    DegenerateEdge {
        /// Zero-based index of the first node.
        a: usize,
        /// Zero-based index of the second node.
        b: usize,
    },
    /// A right-hand side vector does not match the system's order. Every
    /// solver (band, skyline, dense) reports this identically instead of
    /// panicking, so batch drivers can attribute it like any other
    /// stage error.
    RhsLength {
        /// The system order the solver expected.
        expected: usize,
        /// The length actually supplied.
        actual: usize,
    },
}

impl FemError {
    /// Re-attributes an element-level failure (from
    /// [`element_stiffness`](crate::element_stiffness), which does not
    /// know its element's index) to the element being assembled.
    pub(crate) fn for_element(self, element: usize) -> FemError {
        match self {
            FemError::SingularMatrix { .. } => FemError::DegenerateElement { element },
            FemError::NegativeRadius { radius, .. } => FemError::NegativeRadius {
                index: element,
                radius,
            },
            other => other,
        }
    }
}

impl fmt::Display for FemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FemError::SingularMatrix { equation } => write!(
                f,
                "stiffness matrix not positive definite at equation {equation} \
                 (model may be under-constrained)"
            ),
            FemError::EmptyModel => write!(f, "model has no elements"),
            FemError::Unconstrained => write!(
                f,
                "model has no displacement constraints (stiffness matrix is \
                 singular: all rigid-body modes are free)"
            ),
            FemError::BadMaterial { reason } => write!(f, "inadmissible material: {reason}"),
            FemError::UnknownNode { index } => write!(f, "node {index} does not exist"),
            FemError::NegativeRadius { index, radius } => write!(
                f,
                "axisymmetric node {index} lies at negative radius {radius}"
            ),
            FemError::BadTimeStep { reason } => write!(f, "bad time step: {reason}"),
            FemError::NoConvergence { iterations, what } => {
                write!(f, "{what} did not converge in {iterations} iterations")
            }
            FemError::CgNoConvergence {
                iterations,
                residual,
                tolerance,
            } => write!(
                f,
                "conjugate gradient did not converge in {iterations} iterations \
                 (relative residual {residual:.3e}, tolerance {tolerance:.0e})"
            ),
            FemError::CgBreakdown {
                iteration,
                curvature,
            } => write!(
                f,
                "conjugate gradient broke down at iteration {iteration}: search \
                 direction curvature {curvature:.3e} is not positive (model may be \
                 under-constrained)"
            ),
            FemError::NonFinite { equation } => write!(
                f,
                "non-finite coefficient at equation {equation} (degenerate \
                 geometry or invalid material data)"
            ),
            FemError::DegenerateElement { element } => {
                write!(f, "element {element} has zero area")
            }
            FemError::DegenerateEdge { a, b } => {
                write!(f, "pressure edge from node {a} to node {b} has zero length")
            }
            FemError::RhsLength { expected, actual } => write!(
                f,
                "right-hand side has {actual} entries but the system order is {expected}"
            ),
        }
    }
}

impl std::error::Error for FemError {}
