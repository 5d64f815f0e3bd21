//! # cafemio-audit
//!
//! Opt-in invariant checking for the pipeline's stage transitions.
//!
//! Every stage of the reproduction makes promises the next stage silently
//! relies on: the idealizer promises a valid counter-clockwise mesh whose
//! boundary nodes lie on the shape lines it was given; the renumberer
//! promises a bijective permutation that never widens the bandwidth; the
//! solver promises displacements that actually satisfy `K·u = f` and
//! reactions that balance the applied loads; the contour extractor
//! promises isogram levels inside the field's range with every straight
//! piece lying on an element edge. None of those promises are checked in
//! the normal hot path — they are exactly the invariants a subtle bug
//! violates without tripping a single typed error.
//!
//! This crate makes the promises checkable. Each `check_*` function takes
//! the *public* inputs and outputs of one stage, re-derives the invariant
//! independently (re-measuring the mesh, re-subdividing the shape lines,
//! re-multiplying `K·u`, re-solving with a different backend), and returns
//! either the number of checks that ran or a typed [`AuditError`] naming
//! the stage that broke its promise via [`AuditError::stage`].
//!
//! The checks are wired into the staged-session pipeline behind
//! `SessionConfig::audit(AuditOptions)` in `cafemio-core`; with audit
//! off, none of this code runs.
//!
//! # Examples
//!
//! ```
//! use cafemio_audit::check_permutation;
//!
//! assert!(check_permutation(&[2, 0, 1], 3).is_ok());
//! assert!(check_permutation(&[0, 0, 1], 3).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod contour;
mod error;
mod idealize;
mod options;
mod solve;

pub use contour::{check_contours, check_contours_with_index};
pub use error::{AuditError, AuditStage};
pub use idealize::{check_idealization, check_permutation};
pub use options::AuditOptions;
pub use solve::{
    check_differential, check_equilibrium, check_solution, check_sparse_differential,
};
