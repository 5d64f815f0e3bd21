//! Solve-stage invariants: residual, global equilibrium, and
//! cross-backend agreement.

use cafemio_fem::{AnalysisKind, FemModel, Solution};

use crate::{AuditError, AuditOptions};

/// Checks that a solution actually solves its model: the relative
/// residual `‖K·u − f‖ / ‖f‖` over the free dofs is below the tolerance,
/// and the reactions at the supports balance the applied loads in every
/// global direction that carries a rigid-body translation (both for the
/// plane analyses, axial only for the axisymmetric one — a radial
/// translation is not stress-free there).
///
/// Returns the number of individual checks that ran. The cross-backend
/// comparison is separate — see [`check_differential`].
///
/// # Errors
///
/// [`AuditError::ResidualTooLarge`], [`AuditError::Unbalanced`], or
/// [`AuditError::Fem`] when the model cannot produce the quantities to
/// audit.
pub fn check_solution(
    model: &FemModel,
    solution: &Solution,
    options: &AuditOptions,
) -> Result<u64, AuditError> {
    let reactions = model.reactions(solution)?;
    let forces = model.applied_forces()?;
    let constrained: Vec<usize> = model.constrained_dofs().map(|(dof, _)| dof).collect();

    let mut is_constrained = vec![false; reactions.len()];
    for &dof in &constrained {
        is_constrained[dof] = true;
    }
    let residual_norm = reactions
        .iter()
        .enumerate()
        .filter(|(dof, _)| !is_constrained[*dof])
        .map(|(_, r)| r * r)
        .sum::<f64>()
        .sqrt();
    let force_norm = forces.iter().map(|f| f * f).sum::<f64>().sqrt();
    let residual = residual_norm / if force_norm > 0.0 { force_norm } else { 1.0 };
    if residual > options.residual_tolerance() {
        return Err(AuditError::ResidualTooLarge {
            residual,
            tolerance: options.residual_tolerance(),
        });
    }

    let equilibrium_checks = check_equilibrium(
        model.kind(),
        &constrained,
        &reactions,
        &forces,
        options.equilibrium_tolerance(),
    )?;
    Ok(1 + equilibrium_checks)
}

/// Checks global equilibrium from raw vectors: in each direction that
/// carries a rigid-body translation, the support reactions must cancel
/// the applied loads, `|Σ rᵢ + Σ fᵢ|` relative to the total applied
/// force.
///
/// This is the raw-vector form so tests can audit forged reactions
/// directly; [`check_solution`] feeds it the model's real ones.
///
/// Returns the number of directions checked.
///
/// # Errors
///
/// [`AuditError::Unbalanced`] naming the out-of-balance direction.
pub fn check_equilibrium(
    kind: AnalysisKind,
    constrained: &[usize],
    reactions: &[f64],
    forces: &[f64],
    tolerance: f64,
) -> Result<u64, AuditError> {
    let directions: &[(&'static str, usize)] = match kind {
        AnalysisKind::PlaneStress { .. } | AnalysisKind::PlaneStrain => {
            &[("x", 0), ("y", 1)]
        }
        AnalysisKind::Axisymmetric => &[("axial", 1)],
    };
    let scale = forces.iter().map(|f| f.abs()).sum::<f64>();
    let denominator = if scale > 0.0 { scale } else { 1.0 };

    let mut checks = 0u64;
    for &(direction, parity) in directions {
        let reaction_sum: f64 = constrained
            .iter()
            .filter(|dof| *dof % 2 == parity)
            .map(|&dof| reactions[dof])
            .sum();
        let force_sum: f64 = forces
            .iter()
            .enumerate()
            .filter(|(dof, _)| dof % 2 == parity)
            .map(|(_, f)| f)
            .sum();
        let imbalance = (reaction_sum + force_sum).abs() / denominator;
        if imbalance > tolerance {
            return Err(AuditError::Unbalanced {
                direction,
                imbalance,
                tolerance,
            });
        }
        checks += 1;
    }
    Ok(checks)
}

/// Re-solves the model with the dense oracle
/// ([`FemModel::solve_dense`]) and the skyline backend and compares
/// each against the session's solution, `max|Δu| / max|u|`.
///
/// Three independent factorization paths agreeing to nine digits is
/// strong evidence none of them has a symmetry, profile, or back-
/// substitution bug; one drifting away points straight at it.
///
/// Returns the worst divergence observed (for the benchmark counters).
///
/// # Errors
///
/// [`AuditError::SolverDivergence`] naming the disagreeing backend, or
/// [`AuditError::Fem`] when a backend fails outright.
pub fn check_differential(
    model: &FemModel,
    solution: &Solution,
    options: &AuditOptions,
) -> Result<f64, AuditError> {
    let mut worst = 0.0f64;
    let alternatives = [
        ("dense", model.solve_dense()?),
        ("skyline", model.solve_skyline()?),
    ];
    for (backend, alternative) in &alternatives {
        let divergence = relative_divergence(solution.dofs(), alternative.dofs());
        if divergence > options.divergence_tolerance() {
            return Err(AuditError::SolverDivergence {
                backend,
                divergence,
                tolerance: options.divergence_tolerance(),
            });
        }
        worst = worst.max(divergence);
    }
    Ok(worst)
}

/// Re-solves the model with the iterative sparse-CG backend and compares
/// against the session's solution, `max|Δu| / max|u|`, under the looser
/// [`iterative_divergence_tolerance`](AuditOptions::iterative_divergence_tolerance)
/// — CG only matches a direct factorization to its own convergence
/// tolerance, so this check is separate from [`check_differential`] and
/// never tightens the direct-backend bound.
///
/// Returns the divergence observed (for the benchmark counters).
///
/// # Errors
///
/// [`AuditError::SolverDivergence`] naming the `sparse-cg` backend, or
/// [`AuditError::Fem`] when the backend fails outright (including the
/// typed non-convergence error).
pub fn check_sparse_differential(
    model: &FemModel,
    solution: &Solution,
    options: &AuditOptions,
) -> Result<f64, AuditError> {
    let alternative = model.solve_sparse()?;
    let divergence = relative_divergence(solution.dofs(), alternative.dofs());
    if divergence > options.iterative_divergence_tolerance() {
        return Err(AuditError::SolverDivergence {
            backend: "sparse-cg",
            divergence,
            tolerance: options.iterative_divergence_tolerance(),
        });
    }
    Ok(divergence)
}

/// `max|Δu| / max|u|` between a reference and an alternative dof vector
/// (infinite on length mismatch).
fn relative_divergence(reference: &[f64], alternative: &[f64]) -> f64 {
    if alternative.len() != reference.len() {
        return f64::INFINITY;
    }
    let magnitude = reference.iter().fold(0.0f64, |m, u| m.max(u.abs()));
    let denominator = if magnitude > 0.0 { magnitude } else { 1.0 };
    reference
        .iter()
        .zip(alternative)
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
        / denominator
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafemio_geom::Point;
    use cafemio_fem::Material;
    use cafemio_mesh::{BoundaryKind, TriMesh};

    /// A unit square split into two elements, fixed on the left edge and
    /// pulled to the right.
    fn pulled_square() -> FemModel {
        let mut mesh = TriMesh::new();
        let a = mesh.add_node(Point::new(0.0, 0.0), BoundaryKind::Boundary);
        let b = mesh.add_node(Point::new(1.0, 0.0), BoundaryKind::Boundary);
        let c = mesh.add_node(Point::new(1.0, 1.0), BoundaryKind::Boundary);
        let d = mesh.add_node(Point::new(0.0, 1.0), BoundaryKind::Boundary);
        mesh.add_element([a, b, c]).unwrap();
        mesh.add_element([a, c, d]).unwrap();
        let mut model = FemModel::new(
            mesh,
            AnalysisKind::PlaneStress { thickness: 1.0 },
            Material::isotropic(30.0e6, 0.3),
        );
        model.fix_both(a);
        model.fix_both(d);
        model.add_force(b, 50.0, 0.0);
        model.add_force(c, 50.0, 0.0);
        model
    }

    #[test]
    fn a_real_solution_passes_every_solve_check() {
        let model = pulled_square();
        let solution = model.solve().unwrap();
        let options = AuditOptions::strict();
        let checks = check_solution(&model, &solution, &options).unwrap();
        assert_eq!(checks, 3);
        let worst = check_differential(&model, &solution, &options).unwrap();
        assert!(worst <= options.divergence_tolerance());
    }

    #[test]
    fn a_solution_to_a_different_load_fails_the_residual() {
        let model = pulled_square();
        let solution = model.with_load_factor(2.0).solve().unwrap();
        let err = check_solution(&model, &solution, &AuditOptions::new()).unwrap_err();
        assert!(matches!(err, AuditError::ResidualTooLarge { .. }), "{err}");
    }

    #[test]
    fn forged_reactions_fail_equilibrium_in_the_named_direction() {
        // One support dof in x (dof 0), one applied x load that the
        // forged reaction does not cancel.
        let constrained = [0usize];
        let reactions = [-3.0, 0.0, 0.0, 0.0];
        let forces = [0.0, 0.0, 5.0, 0.0];
        let err = check_equilibrium(
            AnalysisKind::PlaneStrain,
            &constrained,
            &reactions,
            &forces,
            1e-6,
        )
        .unwrap_err();
        match err {
            AuditError::Unbalanced { direction, .. } => assert_eq!(direction, "x"),
            other => panic!("wrong error: {other}"),
        }
        // Balancing the books passes both directions.
        let reactions = [-5.0, 0.0, 0.0, 0.0];
        let checks = check_equilibrium(
            AnalysisKind::PlaneStrain,
            &constrained,
            &reactions,
            &forces,
            1e-6,
        )
        .unwrap();
        assert_eq!(checks, 2);
    }

    #[test]
    fn axisymmetric_audits_only_the_axial_direction() {
        // A radial imbalance is legitimate (hoop stress reacts it); an
        // axial one is not.
        let constrained = [0usize, 1];
        let reactions = [42.0, -1.0, 0.0, 0.0];
        let forces = [0.0, 1.0, 0.0, 0.0];
        let checks = check_equilibrium(
            AnalysisKind::Axisymmetric,
            &constrained,
            &reactions,
            &forces,
            1e-6,
        )
        .unwrap();
        assert_eq!(checks, 1);
    }

    #[test]
    fn sparse_differential_passes_a_real_solution() {
        let model = pulled_square();
        let solution = model.solve().unwrap();
        let options = AuditOptions::strict().with_sparse_differential(true);
        let divergence = check_sparse_differential(&model, &solution, &options).unwrap();
        assert!(divergence <= options.iterative_divergence_tolerance());
    }

    #[test]
    fn sparse_differential_flags_a_doubled_solution() {
        let model = pulled_square();
        let solution = model.with_load_factor(2.0).solve().unwrap();
        let err =
            check_sparse_differential(&model, &solution, &AuditOptions::strict()).unwrap_err();
        match err {
            AuditError::SolverDivergence { backend, .. } => assert_eq!(backend, "sparse-cg"),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn a_doubled_solution_is_a_solver_divergence() {
        let model = pulled_square();
        let solution = model.with_load_factor(2.0).solve().unwrap();
        let err = check_differential(&model, &solution, &AuditOptions::strict()).unwrap_err();
        assert!(matches!(err, AuditError::SolverDivergence { .. }), "{err}");
    }
}
