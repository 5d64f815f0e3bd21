//! Compressed-sparse-row assembly and a preconditioned
//! conjugate-gradient solver — the large-mesh backend.
//!
//! The 1970 program stack solved everything by direct factorization
//! (band, skyline, dense), whose storage and flop counts grow with the
//! bandwidth squared. Past the Table-2 scale that cost is what breaks
//! first on square meshes, so the `LargeMesh` capability routes solves
//! through this module instead: stiffness held in CSR (memory
//! proportional to the nonzeros, not the band), solved by conjugate
//! gradients under one of three preconditioners.
//!
//! * **Complete.** When the matrix's profile is cheap — Σ h_j² ≤
//!   `COMPLETE_FACTOR_BUDGET`·nnz(A)·√n, with `h_j = j −` the first
//!   stored column of row `j` — the preconditioner is the complete LDLᵀ
//!   of the `Skyline` backend (Bathe's COLSOL), built from the CSR in
//!   its own numbering. CG is then iterative refinement around a direct
//!   solve: one or two iterations. A failed pivot is the factor's typed
//!   error, as it is for the direct backends, never a fall-back.
//! * **IC(0)**, where the rule rejects the complete factor: a Cholesky
//!   factor restricted to the matrix's own lower-triangle pattern, so it
//!   costs no fill.
//! * **Jacobi** (the diagonal), only when an IC(0) pivot goes
//!   non-positive, which it can even for a positive-definite matrix.
//!   The fall-back is reported in [`CgStats::ic0_fallbacks`], never
//!   silent.
//!
//! Determinism discipline matches the rest of the repo: the sparsity
//! pattern comes from the mesh adjacency (a pure function of the
//! numbering), scatter-add happens serially in element order, and the
//! iteration is serial — matvec, triangular solves and reductions all
//! run in index order, with no thread spawns and no per-iteration
//! allocation — so results are bit-identical at any thread count. Both
//! factors follow the node numbering, so the IDLZ Cuthill–McKee
//! renumbering that narrowed the 1970 band also orders them; for the
//! complete factor it sets the profile, and with it the rule.

use crate::{FemError, SkylineMatrix};

/// The rule's constant: the complete factor is taken when the profile's
/// squared column heights Σ h_j² stay within this many times
/// nnz(A)·√n. Σ h_j² is the factor's flop count up to a constant, and
/// IC(0)-CG costs about nnz(A) per iteration over O(√n) iterations on a
/// 2-D mesh. Measured on strips and squares (`docs/SOLVERS.md`): every
/// mesh with Σ h_j² / (nnz(A)·√n) ≤ 7.1 solved faster on the complete
/// factor, every one at ≥ 10.8 faster on IC(0), and a 40 × 40 square at
/// 8.8 tied. Fixed, not an option: it changes the iteration count, never
/// the answer beyond the tolerance.
const COMPLETE_FACTOR_BUDGET: f64 = 8.0;

/// A symmetric sparse matrix in compressed-sparse-row storage with a
/// fixed sparsity pattern.
///
/// The pattern is decided up front (node adjacency × 2×2 dof blocks for
/// the FEM assembly) and [`add`](CsrMatrix::add) scatters into it by
/// binary search; entries outside the pattern are a caller bug. Both
/// triangles are stored — the assembly loop reports both orderings, and
/// a full row makes the matvec one contiguous scan.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    /// `row_start[i]..row_start[i + 1]` bounds row `i` in `cols`/`values`.
    row_start: Vec<usize>,
    /// Column index of every stored entry, ascending within a row.
    cols: Vec<usize>,
    /// Entry values, parallel to `cols`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a zero matrix with the given pattern: `pattern[i]` lists
    /// the column indices of row `i`, sorted ascending with no
    /// duplicates.
    pub fn with_pattern(pattern: &[Vec<usize>]) -> CsrMatrix {
        let mut row_start = Vec::with_capacity(pattern.len() + 1);
        row_start.push(0usize);
        let mut total = 0usize;
        for row in pattern {
            total += row.len();
            row_start.push(total);
        }
        let mut cols = Vec::with_capacity(total);
        for row in pattern {
            cols.extend_from_slice(row);
        }
        CsrMatrix {
            row_start,
            cols,
            values: vec![0.0; total],
        }
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.row_start.len() - 1
    }

    /// Stored entries (both triangles).
    pub fn nonzeros(&self) -> usize {
        self.values.len()
    }

    /// Position of `(i, j)` in the value array, if it is in the pattern.
    fn position(&self, i: usize, j: usize) -> Option<usize> {
        let (start, end) = (self.row_start[i], self.row_start[i + 1]);
        self.cols[start..end]
            .binary_search(&j)
            .ok()
            .map(|k| start + k)
    }

    /// Adds `v` to entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when `(i, j)` lies outside the sparsity pattern — the
    /// pattern is built from the same mesh the element loop walks, so
    /// this is unreachable for well-formed assembly.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        match self.position(i, j) {
            Some(k) => self.values[k] += v,
            // invariant: adjacency-derived patterns cover every element
            // dof pair; a miss means the pattern and mesh disagree.
            None => unreachable!("entry ({i}, {j}) outside the sparsity pattern"),
        }
    }

    /// The value at `(i, j)` (zero outside the pattern).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.position(i, j).map_or(0.0, |k| self.values[k])
    }

    /// `y = A·x` as a fresh vector; see [`mul_vec_into`](Self::mul_vec_into).
    ///
    /// # Panics
    ///
    /// Panics when `x` does not match the matrix order.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.order()];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// `y = A·x` into a caller-owned buffer: one serial scan over the
    /// rows, each output element a dot product summed in column order.
    ///
    /// # Panics
    ///
    /// Panics when `x` or `y` does not match the matrix order.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.order(), "vector/matrix size mismatch");
        assert_eq!(y.len(), self.order(), "vector/matrix size mismatch");
        for (yi, bounds) in y.iter_mut().zip(self.row_start.windows(2)) {
            let row = bounds[0]..bounds[1];
            *yi = self.cols[row.clone()]
                .iter()
                .zip(&self.values[row])
                .map(|(&j, v)| v * x[j])
                .sum();
        }
    }

    /// The main diagonal, the Jacobi preconditioner's data.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.order()).map(|i| self.get(i, i)).collect()
    }

    /// The skyline of the lower triangle: the first stored column of
    /// each row, which for a symmetric pattern is the first stored row
    /// of each column. Every row must store its diagonal.
    fn first_columns(&self) -> Vec<usize> {
        self.row_start[..self.order()]
            .iter()
            .map(|&start| self.cols[start])
            .collect()
    }

    /// The lower triangle in skyline storage, in this matrix's own
    /// numbering, with `first_row` from [`first_columns`](Self::first_columns).
    fn to_skyline(&self, first_row: &[usize]) -> SkylineMatrix {
        let mut skyline = SkylineMatrix::new(first_row);
        for (i, bounds) in self.row_start.windows(2).enumerate() {
            for k in bounds[0]..bounds[1] {
                if self.cols[k] > i {
                    break;
                }
                skyline.add(self.cols[k], i, self.values[k]);
            }
        }
        skyline
    }

    /// Eliminates dof `dof` for a prescribed displacement: zeroes its
    /// row and column, sets the diagonal to one, and returns the former
    /// column couplings `(other, value)` so the caller can move them to
    /// the right-hand side — the same contract as the band and skyline
    /// [`constrain`](crate::BandMatrix::constrain) methods.
    ///
    /// Pattern symmetry makes the column walk cheap: the nonzero columns
    /// of row `dof` are exactly the rows whose column `dof` is stored.
    pub fn constrain(&mut self, dof: usize) -> Vec<(usize, f64)> {
        let (start, end) = (self.row_start[dof], self.row_start[dof + 1]);
        let partners: Vec<usize> = self.cols[start..end].to_vec();
        let mut column = Vec::new();
        for other in partners {
            if other == dof {
                continue;
            }
            // invariant: the pattern is symmetric by construction, so
            // row `other` stores column `dof`.
            let k = self.position(other, dof).expect("symmetric pattern");
            if self.values[k] != 0.0 {
                column.push((other, self.values[k]));
            }
            self.values[k] = 0.0;
        }
        for k in start..end {
            self.values[k] = if self.cols[k] == dof { 1.0 } else { 0.0 };
        }
        column
    }
}

/// Tuning knobs for the conjugate-gradient iteration.
///
/// # Examples
///
/// ```
/// use cafemio_fem::CgOptions;
/// let opts = CgOptions::new();
/// assert_eq!(opts.tolerance, 1e-12);
/// let loose = CgOptions::new().with_tolerance(1e-10).with_max_iterations(500);
/// assert_eq!(loose.max_iterations, 500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgOptions {
    /// Convergence bound on the relative residual `‖b − A·x‖ / ‖b‖`.
    pub tolerance: f64,
    /// Iteration budget; exhausting it is the typed
    /// [`FemError::CgNoConvergence`] error, never a silent bad answer.
    pub max_iterations: usize,
}

impl CgOptions {
    /// The defaults: relative residual 1e-12 (well inside the audit
    /// layer's 1e-8 bound) and an order-scaled iteration budget applied
    /// at solve time ([`max_iterations`](Self::max_iterations) = 0 means
    /// `max(10·n, 1000)`).
    pub fn new() -> CgOptions {
        CgOptions {
            tolerance: 1e-12,
            max_iterations: 0,
        }
    }

    /// Sets the relative-residual convergence bound.
    pub fn with_tolerance(mut self, tolerance: f64) -> CgOptions {
        self.tolerance = tolerance;
        self
    }

    /// Sets an explicit iteration budget (0 restores the order-scaled
    /// default).
    pub fn with_max_iterations(mut self, max_iterations: usize) -> CgOptions {
        self.max_iterations = max_iterations;
        self
    }

    /// The effective iteration budget for a system of order `n`.
    pub fn budget_for(&self, n: usize) -> usize {
        if self.max_iterations > 0 {
            self.max_iterations
        } else {
            (10 * n).max(1000)
        }
    }
}

impl Default for CgOptions {
    fn default() -> CgOptions {
        CgOptions::new()
    }
}

/// What the iteration did — the numbers behind the `fem.cg.*` counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Relative residual at exit.
    pub residual: f64,
    /// 1 when the IC(0) factorization broke down and the solve ran with
    /// the Jacobi preconditioner instead, 0 otherwise.
    pub ic0_fallbacks: usize,
}

/// The IC(0) factor `L` (`A ≈ L·Lᵀ`) on the lower-triangle pattern of a
/// [`CsrMatrix`], stored by rows. The last entry of each row is the
/// diagonal, held as its reciprocal `1 / L[i][i]` so the factorization
/// and both triangular solves multiply instead of divide.
#[derive(Debug)]
struct Ic0 {
    /// `row_start[i]..row_start[i + 1]` bounds row `i`; its last entry
    /// is the (reciprocal) diagonal.
    row_start: Vec<usize>,
    /// Column index of every stored entry, ascending within a row.
    cols: Vec<usize>,
    /// Factor values, parallel to `cols`.
    values: Vec<f64>,
}

impl Ic0 {
    /// Factors the lower triangle of `matrix`, dropping every fill entry
    /// outside its pattern. `None` when a pivot is non-positive or not
    /// finite — the breakdown the Jacobi fall-back covers.
    ///
    /// Every row must store a positive diagonal; [`CgSystem::factor`]
    /// checks that before calling.
    fn factor(matrix: &CsrMatrix) -> Option<Ic0> {
        let n = matrix.order();
        let mut row_start = Vec::with_capacity(n + 1);
        let mut cols = Vec::with_capacity(matrix.nonzeros() / 2 + n);
        let mut values = Vec::with_capacity(matrix.nonzeros() / 2 + n);
        row_start.push(0usize);
        for i in 0..n {
            for k in matrix.row_start[i]..matrix.row_start[i + 1] {
                if matrix.cols[k] > i {
                    break;
                }
                cols.push(matrix.cols[k]);
                values.push(matrix.values[k]);
            }
            row_start.push(cols.len());
        }
        for i in 0..n {
            let (start, diag) = (row_start[i], row_start[i + 1] - 1);
            for idx in start..diag {
                // L[i][k] = (A[i][k] − Σ_{j<k} L[i][j]·L[k][j]) / L[k][k],
                // the sum running over the columns rows i and k share.
                let k = cols[idx];
                let k_diag = row_start[k + 1] - 1;
                let (mut a, mut b) = (start, row_start[k]);
                let mut sum = 0.0;
                while a < idx && b < k_diag {
                    match cols[a].cmp(&cols[b]) {
                        std::cmp::Ordering::Less => a += 1,
                        std::cmp::Ordering::Greater => b += 1,
                        std::cmp::Ordering::Equal => {
                            sum += values[a] * values[b];
                            a += 1;
                            b += 1;
                        }
                    }
                }
                values[idx] = (values[idx] - sum) * values[k_diag];
            }
            let pivot = values[diag] - values[start..diag].iter().map(|v| v * v).sum::<f64>();
            if !pivot.is_finite() || pivot <= 0.0 {
                return None;
            }
            values[diag] = 1.0 / pivot.sqrt();
        }
        Some(Ic0 {
            row_start,
            cols,
            values,
        })
    }

    /// `z = (L·Lᵀ)⁻¹·r`: a forward solve with `L`, then a backward solve
    /// with `Lᵀ` in place, reading `L` by rows (column-oriented for the
    /// transpose).
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for (i, &ri) in r.iter().enumerate() {
            let (start, diag) = (self.row_start[i], self.row_start[i + 1] - 1);
            let mut sum = ri;
            for idx in start..diag {
                sum -= self.values[idx] * z[self.cols[idx]];
            }
            z[i] = sum * self.values[diag];
        }
        for i in (0..r.len()).rev() {
            let (start, diag) = (self.row_start[i], self.row_start[i + 1] - 1);
            let zi = z[i] * self.values[diag];
            z[i] = zi;
            for idx in start..diag {
                z[self.cols[idx]] -= self.values[idx] * zi;
            }
        }
    }
}

/// The preconditioner one CG solve runs with.
#[derive(Debug)]
enum Preconditioner {
    /// The complete skyline LDLᵀ, when the profile passes the rule.
    Complete(SkylineMatrix),
    /// Incomplete Cholesky on the matrix pattern, where it does not.
    Ic0(Ic0),
    /// The diagonal, used only when IC(0) breaks down.
    Jacobi(Vec<f64>),
}

impl Preconditioner {
    /// IC(0), or the Jacobi `diag` when IC(0) breaks down: what a matrix
    /// whose profile fails the rule runs with.
    fn incomplete(matrix: &CsrMatrix, diag: Vec<f64>) -> Preconditioner {
        match Ic0::factor(matrix) {
            Some(factor) => Preconditioner::Ic0(factor),
            None => Preconditioner::Jacobi(diag),
        }
    }

    /// `z = M⁻¹·r`.
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            Preconditioner::Complete(factor) => {
                z.copy_from_slice(r);
                factor.substitute(z);
            }
            Preconditioner::Ic0(factor) => factor.apply(r, z),
            Preconditioner::Jacobi(diag) => {
                for ((zi, ri), di) in z.iter_mut().zip(r).zip(diag) {
                    *zi = ri / di;
                }
            }
        }
    }
}

/// A checked matrix with its preconditioner built: the split between
/// setup ([`factor`](Self::factor)) and iteration
/// ([`solve`](Self::solve)) that the `fem.cg.factor` and
/// `fem.cg.iterate` spans time apart.
#[derive(Debug)]
pub(crate) struct CgSystem<'a> {
    matrix: &'a CsrMatrix,
    preconditioner: Preconditioner,
}

impl<'a> CgSystem<'a> {
    /// Checks `matrix` and builds its preconditioner: the complete
    /// skyline LDLᵀ when the profile passes the rule
    /// (`COMPLETE_FACTOR_BUDGET`), IC(0) otherwise, falling back to
    /// Jacobi when an IC(0) pivot breaks down.
    ///
    /// # Errors
    ///
    /// * [`FemError::NonFinite`] when a stored entry is NaN or infinite,
    ///   or one reaches a pivot of the complete factor.
    /// * [`FemError::SingularMatrix`] when a diagonal entry is not
    ///   positive, or a pivot of the complete factor is not.
    pub(crate) fn factor(matrix: &'a CsrMatrix) -> Result<CgSystem<'a>, FemError> {
        // Bad input is not an IC(0) breakdown: reject it here so the
        // fall-back never hides it.
        for (i, bounds) in matrix.row_start.windows(2).enumerate() {
            if matrix.values[bounds[0]..bounds[1]]
                .iter()
                .any(|v| !v.is_finite())
            {
                return Err(FemError::NonFinite { equation: i });
            }
        }
        let diag = matrix.diagonal();
        if let Some(i) = diag.iter().position(|&d| d <= 0.0) {
            return Err(FemError::SingularMatrix { equation: i });
        }
        let first_row = matrix.first_columns();
        // Summed in f64: a u64 sum of squares overflows on an arrow
        // pattern of a few million rows.
        let squares: f64 = first_row
            .iter()
            .enumerate()
            .map(|(j, &f)| ((j - f) as f64).powi(2))
            .sum();
        let budget =
            COMPLETE_FACTOR_BUDGET * matrix.nonzeros() as f64 * (matrix.order() as f64).sqrt();
        let preconditioner = if squares <= budget {
            let mut factor = matrix.to_skyline(&first_row);
            factor.factorize()?;
            Preconditioner::Complete(factor)
        } else {
            Preconditioner::incomplete(matrix, diag)
        };
        Ok(CgSystem {
            matrix,
            preconditioner,
        })
    }

    /// 1 when IC(0) broke down and the Jacobi diagonal preconditions
    /// instead, 0 otherwise.
    pub(crate) fn ic0_fallbacks(&self) -> usize {
        usize::from(matches!(self.preconditioner, Preconditioner::Jacobi(_)))
    }

    /// 1 when the complete factor preconditions, 0 otherwise.
    pub(crate) fn complete_factors(&self) -> usize {
        usize::from(matches!(self.preconditioner, Preconditioner::Complete(_)))
    }

    /// Runs preconditioned CG on `A·x = b`. Every work vector is
    /// allocated once up front; the loop itself allocates nothing.
    ///
    /// # Errors
    ///
    /// As for [`solve_cg`], minus the matrix checks
    /// [`factor`](Self::factor) already made.
    pub(crate) fn solve(
        &self,
        b: &[f64],
        options: &CgOptions,
    ) -> Result<(Vec<f64>, CgStats), FemError> {
        let n = self.matrix.order();
        if b.len() != n {
            return Err(FemError::RhsLength {
                expected: n,
                actual: b.len(),
            });
        }
        if let Some(equation) = b.iter().position(|v| !v.is_finite()) {
            return Err(FemError::NonFinite { equation });
        }
        let stats = |iterations, residual| CgStats {
            iterations,
            residual,
            ic0_fallbacks: self.ic0_fallbacks(),
        };
        let b_norm = dot(b, b).sqrt();
        if b_norm == 0.0 {
            return Ok((vec![0.0; n], stats(0, 0.0)));
        }

        let mut x = vec![0.0; n];
        let mut r = b.to_vec();
        let mut z = vec![0.0; n];
        let mut q = vec![0.0; n];
        self.preconditioner.apply(&r, &mut z);
        let mut p = z.clone();
        let mut rz = dot(&r, &z);
        let budget = options.budget_for(n);
        let mut residual = 1.0;

        for iteration in 1..=budget {
            self.matrix.mul_vec_into(&p, &mut q);
            // Matrix and `b` are finite, so a curvature that is not
            // positive, or a step that overflows, means A is not
            // positive definite along `p`.
            let pq = dot(&p, &q);
            let alpha = rz / pq;
            if !pq.is_finite() || pq <= 0.0 || !alpha.is_finite() {
                return Err(FemError::CgBreakdown {
                    iteration,
                    curvature: pq,
                });
            }
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * q[i];
            }
            residual = dot(&r, &r).sqrt() / b_norm;
            if !residual.is_finite() {
                return Err(FemError::CgBreakdown {
                    iteration,
                    curvature: pq,
                });
            }
            if residual <= options.tolerance {
                return Ok((x, stats(iteration, residual)));
            }
            self.preconditioner.apply(&r, &mut z);
            let rz_next = dot(&r, &z);
            let beta = rz_next / rz;
            rz = rz_next;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
        }
        Err(FemError::CgNoConvergence {
            iterations: budget,
            residual,
            tolerance: options.tolerance,
        })
    }
}

/// Serial, index-ordered dot product.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solves `A·x = b` for symmetric positive-definite `A` by
/// preconditioned conjugate gradients. The preconditioner is the
/// complete skyline LDLᵀ when the matrix's profile is cheap (see the
/// module docs), and IC(0) otherwise, falling back to the Jacobi
/// preconditioner (counted in [`CgStats::ic0_fallbacks`]) when the
/// incomplete factorization breaks down.
///
/// Factorization and iteration are serial and run in index order, so
/// the returned solution is bit-identical at any thread count.
///
/// # Errors
///
/// * [`FemError::RhsLength`] when `b` does not match the matrix order.
/// * [`FemError::SingularMatrix`] when a diagonal entry is not positive,
///   or a pivot of the complete factor falls to 1e-10 of its diagonal or
///   below (as in `Skyline`), naming the failing equation.
/// * [`FemError::CgBreakdown`] when the iteration on IC(0) or Jacobi
///   meets a direction of non-positive curvature, or one so flat that
///   its step overflows, naming the iteration: the matrix is not
///   positive definite (an under-constrained model).
/// * [`FemError::NonFinite`] when the matrix or `b` holds a NaN or
///   infinity, or one reaches a pivot of the complete factor.
/// * [`FemError::CgNoConvergence`] when the iteration budget runs out
///   before the tolerance is met.
pub fn solve_cg(
    matrix: &CsrMatrix,
    b: &[f64],
    options: &CgOptions,
) -> Result<(Vec<f64>, CgStats), FemError> {
    CgSystem::factor(matrix)?.solve(b, options)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small SPD tridiagonal (the 1-D Laplacian) in CSR form.
    fn laplacian(n: usize) -> CsrMatrix {
        let pattern: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut row = Vec::new();
                if i > 0 {
                    row.push(i - 1);
                }
                row.push(i);
                if i + 1 < n {
                    row.push(i + 1);
                }
                row
            })
            .collect();
        let mut m = CsrMatrix::with_pattern(&pattern);
        for i in 0..n {
            m.add(i, i, 2.0);
            if i > 0 {
                m.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                m.add(i, i + 1, -1.0);
            }
        }
        m
    }

    /// A plane-stress `nx × ny` grid of unit CST pairs clamped along its
    /// bottom row and pulled up along its top row — the kind of system
    /// the large-mesh backend exists for.
    fn grid(nx: usize, ny: usize) -> crate::FemModel {
        let mesh = crate::model::tests::strip_mesh(nx, ny, nx as f64, ny as f64);
        let mut model = crate::FemModel::new(
            mesh,
            crate::AnalysisKind::PlaneStress { thickness: 1.0 },
            crate::Material::isotropic(30.0e6, 0.3),
        );
        for i in 0..=nx {
            model.fix_both(cafemio_mesh::NodeId(i));
            model.add_force(cafemio_mesh::NodeId(ny * (nx + 1) + i), 0.0, 10.0);
        }
        model
    }

    /// The assembled stiffness of a `side × side` grid.
    fn plate(side: usize) -> CsrMatrix {
        grid(side, side).assemble_sparse().unwrap().0
    }

    /// `matrix` under IC(0), or Jacobi when IC(0) breaks down: the path
    /// [`CgSystem::factor`] takes when the rule rejects the complete
    /// factor, built here whatever the profile.
    fn incomplete(matrix: &CsrMatrix) -> CgSystem<'_> {
        CgSystem {
            matrix,
            preconditioner: Preconditioner::incomplete(matrix, matrix.diagonal()),
        }
    }

    /// Kershaw's matrix: positive definite (eigenvalues 3 ± 2√2), but
    /// dropping the (3, 1) fill drives the last IC(0) pivot to
    /// 3 − 4/3 − 20/3 = −5.
    fn kershaw() -> CsrMatrix {
        let pattern = vec![vec![0, 1, 3], vec![0, 1, 2], vec![1, 2, 3], vec![0, 2, 3]];
        let mut m = CsrMatrix::with_pattern(&pattern);
        for (i, row) in pattern.iter().enumerate() {
            for &j in row {
                let v = match (i, j) {
                    _ if i == j => 3.0,
                    (0, 3) | (3, 0) => 2.0,
                    _ => -2.0,
                };
                m.add(i, j, v);
            }
        }
        m
    }

    #[test]
    fn ic0_of_a_fill_free_pattern_is_the_exact_factor() {
        // A tridiagonal factors with no fill, so IC(0) is the complete
        // Cholesky factor and CG converges in one step.
        let m = laplacian(12);
        let b: Vec<f64> = (0..12).map(|i| i as f64 - 4.5).collect();
        let (_, stats) = incomplete(&m).solve(&b, &CgOptions::new()).unwrap();
        assert_eq!(stats.iterations, 1);
        assert_eq!(stats.ic0_fallbacks, 0);
    }

    #[test]
    fn ic0_needs_under_a_third_of_jacobis_iterations_on_a_plate() {
        let m = plate(20);
        let b: Vec<f64> = (0..m.order()).map(|i| (i as f64 * 0.37).sin()).collect();
        let (_, ic0) = incomplete(&m).solve(&b, &CgOptions::new()).unwrap();
        let jacobi = CgSystem {
            matrix: &m,
            preconditioner: Preconditioner::Jacobi(m.diagonal()),
        };
        let (_, jacobi) = jacobi.solve(&b, &CgOptions::new()).unwrap();
        assert_eq!(ic0.ic0_fallbacks, 0);
        assert!(
            3 * ic0.iterations < jacobi.iterations,
            "IC(0) {} vs Jacobi {} iterations",
            ic0.iterations,
            jacobi.iterations
        );
    }

    #[test]
    fn ic0_breakdown_falls_back_to_jacobi_and_is_counted() {
        let m = kershaw();
        assert!(Ic0::factor(&m).is_none());
        let exact = [1.0, -2.0, 0.5, 4.0];
        let b = m.mul_vec(&exact);
        let (x, stats) = incomplete(&m).solve(&b, &CgOptions::new()).unwrap();
        assert_eq!(stats.ic0_fallbacks, 1);
        for (xi, ei) in x.iter().zip(&exact) {
            assert!((xi - ei).abs() < 1e-10, "{xi} vs {ei}");
        }
    }

    #[test]
    fn the_complete_factor_solves_where_ic0_breaks_down() {
        let m = kershaw();
        assert_eq!(CgSystem::factor(&m).unwrap().complete_factors(), 1);
        let exact = [1.0, -2.0, 0.5, 4.0];
        let b = m.mul_vec(&exact);
        let (x, stats) = solve_cg(&m, &b, &CgOptions::new()).unwrap();
        assert_eq!(stats.ic0_fallbacks, 0);
        for (xi, ei) in x.iter().zip(&exact) {
            assert!((xi - ei).abs() < 1e-10, "{xi} vs {ei}");
        }
    }

    #[test]
    fn the_rule_takes_the_complete_factor_on_a_strip_and_ic0_on_a_square() {
        let complete_factors = |model: crate::FemModel| {
            let (solved, report) = cafemio_instrument::record(|| model.solve_sparse());
            solved.unwrap();
            report.counter("fem.cg.complete_factors")
        };
        assert_eq!(complete_factors(grid(8, 128)), Some(1));
        assert_eq!(complete_factors(grid(50, 50)), Some(0));
    }

    #[test]
    fn an_indefinite_complete_factor_names_its_pivot() {
        // Both diagonals are positive, so the up-front check passes; the
        // second pivot is 1 − 2·2/1 = −3.
        let pattern = vec![vec![0, 1], vec![0, 1]];
        let mut m = CsrMatrix::with_pattern(&pattern);
        for (i, j, v) in [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 1.0)] {
            m.add(i, j, v);
        }
        assert_eq!(
            solve_cg(&m, &[1.0, 1.0], &CgOptions::new()).unwrap_err(),
            FemError::SingularMatrix { equation: 1 }
        );
        // Where the rule picks IC(0), it breaks down at the same pivot
        // and Jacobi preconditions: the first step runs along (1, 0)
        // with curvature 1, the second along (4, −2) with curvature −12.
        let system = incomplete(&m);
        assert_eq!(system.ic0_fallbacks(), 1);
        assert_eq!(
            system.solve(&[1.0, 0.0], &CgOptions::new()).unwrap_err(),
            FemError::CgBreakdown {
                iteration: 2,
                curvature: -12.0
            }
        );
    }

    #[test]
    fn non_finite_entry_is_the_typed_error() {
        let mut m = laplacian(4);
        m.add(2, 3, f64::NAN);
        assert_eq!(
            solve_cg(&m, &[1.0; 4], &CgOptions::new()).unwrap_err(),
            FemError::NonFinite { equation: 2 }
        );
        // A non-finite load names its own equation too.
        let load = [1.0, 1.0, f64::INFINITY, 1.0];
        assert_eq!(
            solve_cg(&laplacian(4), &load, &CgOptions::new()).unwrap_err(),
            FemError::NonFinite { equation: 2 }
        );
    }

    #[test]
    fn pattern_and_entries_round_trip() {
        let m = laplacian(5);
        assert_eq!(m.order(), 5);
        assert_eq!(m.nonzeros(), 13);
        assert_eq!(m.get(2, 2), 2.0);
        assert_eq!(m.get(2, 1), -1.0);
        assert_eq!(m.get(2, 4), 0.0);
    }

    #[test]
    fn matvec_matches_by_hand() {
        let m = laplacian(4);
        let y = m.mul_vec(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y, vec![0.0, 0.0, 0.0, 5.0]);
        let mut into = vec![f64::NAN; 4];
        m.mul_vec_into(&[1.0, 2.0, 3.0, 4.0], &mut into);
        assert_eq!(into, y);
    }

    #[test]
    fn cg_solves_the_laplacian() {
        let n = 40;
        let m = laplacian(n);
        let exact: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = m.mul_vec(&exact);
        let (x, stats) = solve_cg(&m, &b, &CgOptions::new()).unwrap();
        for (xi, ei) in x.iter().zip(&exact) {
            assert!((xi - ei).abs() < 1e-9, "{xi} vs {ei}");
        }
        assert!(stats.iterations > 0);
        assert!(stats.residual <= 1e-12);
    }

    #[test]
    fn constrain_returns_the_column_and_decouples_the_dof() {
        let mut m = laplacian(4);
        let column = m.constrain(1);
        assert_eq!(column, vec![(0, -1.0), (2, -1.0)]);
        assert_eq!(m.get(1, 1), 1.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 1), 0.0);
        // The remaining block is untouched.
        assert_eq!(m.get(2, 2), 2.0);
        assert_eq!(m.get(2, 3), -1.0);
    }

    #[test]
    fn budget_exhaustion_is_the_typed_error() {
        let m = plate(6);
        let b = vec![1.0; m.order()];
        let err = incomplete(&m)
            .solve(&b, &CgOptions::new().with_max_iterations(2))
            .unwrap_err();
        match err {
            FemError::CgNoConvergence {
                iterations,
                residual,
                tolerance,
            } => {
                assert_eq!(iterations, 2);
                assert!(residual > tolerance);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn indefinite_diagonal_rejected() {
        let pattern = vec![vec![0], vec![1]];
        let mut m = CsrMatrix::with_pattern(&pattern);
        m.add(0, 0, 1.0);
        m.add(1, 1, -1.0);
        assert_eq!(
            solve_cg(&m, &[1.0, 1.0], &CgOptions::new()).unwrap_err(),
            FemError::SingularMatrix { equation: 1 }
        );
    }

    #[test]
    fn zero_rhs_returns_zero_immediately() {
        let m = laplacian(8);
        let (x, stats) = solve_cg(&m, &[0.0; 8], &CgOptions::new()).unwrap();
        assert_eq!(x, vec![0.0; 8]);
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn rhs_length_checked() {
        let m = laplacian(4);
        assert_eq!(
            solve_cg(&m, &[1.0; 3], &CgOptions::new()).unwrap_err(),
            FemError::RhsLength {
                expected: 4,
                actual: 3
            }
        );
    }
}
