//! Small dense matrices: element-level algebra and the reference solver.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{FemError, PIVOT_RATIO};

/// A dense row-major matrix of `f64`.
///
/// Used for element matrices (at most 6 × 6 here) and as the reference
/// global solver against which the banded solver is verified. It is not a
/// general linear-algebra library — just the operations this workspace
/// needs.
///
/// # Examples
///
/// ```
/// use cafemio_fem::DenseMatrix;
/// let mut m = DenseMatrix::zeros(2, 2);
/// m[(0, 0)] = 2.0;
/// m[(1, 1)] = 3.0;
/// let x = m.solve(&[4.0, 9.0]).unwrap();
/// assert_eq!(x, vec![2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// A `rows` × `cols` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> DenseMatrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from rows of equal length.
    ///
    /// # Panics
    ///
    /// Panics when the rows are empty or ragged.
    pub fn from_rows(rows: &[&[f64]]) -> DenseMatrix {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "need at least one column");
        let mut m = DenseMatrix::zeros(rows.len(), cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "ragged rows");
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn mul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch in mul");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "dimension mismatch in mul_vec");
        (0..self.rows)
            .map(|i| (0..self.cols).map(|j| self[(i, j)] * v[j]).sum())
            .collect()
    }

    /// Triple product `aᵀ · self · a`, the congruence that turns a
    /// constitutive matrix into an element stiffness (`BᵀDB`).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn congruence(&self, a: &DenseMatrix) -> DenseMatrix {
        a.transpose().mul(&self.mul(a))
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Inverse via Gauss–Jordan with partial pivoting.
    ///
    /// # Errors
    ///
    /// [`FemError::SingularMatrix`] when a column's pivot falls to the
    /// relative floor (see [`solve`](Self::solve)).
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square.
    pub fn inverse(&self) -> Result<DenseMatrix, FemError> {
        assert_eq!(self.rows, self.cols, "inverse needs a square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = DenseMatrix::identity(n);
        for col in 0..n {
            let pivot_row = self.pivot(&a, col)?;
            if pivot_row != col {
                a.swap_rows(pivot_row, col);
                inv.swap_rows(pivot_row, col);
            }
            let pivot = a[(col, col)];
            for j in 0..n {
                a[(col, j)] /= pivot;
                inv[(col, j)] /= pivot;
            }
            for i in 0..n {
                if i == col {
                    continue;
                }
                let factor = a[(i, col)];
                if factor == 0.0 {
                    continue;
                }
                for j in 0..n {
                    a[(i, j)] -= factor * a[(col, j)];
                    inv[(i, j)] -= factor * inv[(col, j)];
                }
            }
        }
        Ok(inv)
    }

    /// Solves `self · x = b` by LU with partial pivoting (dense reference
    /// solver).
    ///
    /// Column `j` is singular when its partial pivot, the largest
    /// magnitude elimination leaves in it, is at or below 1e-10 of the
    /// largest magnitude it held before elimination: the relative floor
    /// of `Band` and `Skyline`, against a reference that row swaps do
    /// not move.
    ///
    /// # Errors
    ///
    /// [`FemError::SingularMatrix`] for singular systems,
    /// [`FemError::NonFinite`] when a NaN or infinity reaches a pivot,
    /// [`FemError::RhsLength`] when `b` has the wrong length.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, FemError> {
        assert_eq!(self.rows, self.cols, "solve needs a square matrix");
        if b.len() != self.rows {
            return Err(FemError::RhsLength {
                expected: self.rows,
                actual: b.len(),
            });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut x: Vec<f64> = b.to_vec();
        // Forward elimination with partial pivoting.
        for col in 0..n {
            let pivot_row = self.pivot(&a, col)?;
            if pivot_row != col {
                a.swap_rows(pivot_row, col);
                x.swap(pivot_row, col);
            }
            for i in col + 1..n {
                let factor = a[(i, col)] / a[(col, col)];
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[(i, j)] -= factor * a[(col, j)];
                }
                x[i] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = x[col];
            for j in col + 1..n {
                sum -= a[(col, j)] * x[j];
            }
            x[col] = sum / a[(col, col)];
        }
        Ok(x)
    }

    /// Maximum absolute asymmetry `|a_ij - a_ji|` (diagnostic for
    /// stiffness assembly).
    pub fn asymmetry(&self) -> f64 {
        assert_eq!(self.rows, self.cols);
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in i + 1..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Selects the partial pivot of column `col` of `a`, this matrix
    /// part-way through elimination, over rows `col..`, and checks it
    /// against the relative floor of [`solve`](Self::solve).
    ///
    /// Uses `total_cmp`, under which `NaN.abs()` sorts above every finite
    /// magnitude — so if the column holds any non-finite entry it is
    /// chosen as the pivot and reported as [`FemError::NonFinite`]
    /// instead of being silently folded into the elimination.
    fn pivot(&self, a: &DenseMatrix, col: usize) -> Result<usize, FemError> {
        let pivot_row = (col..self.rows)
            .max_by(|&r1, &r2| a[(r1, col)].abs().total_cmp(&a[(r2, col)].abs()))
            // invariant: callers pass col < rows, so the range is never empty.
            .expect("non-empty pivot range");
        let pivot = a[(pivot_row, col)].abs();
        if !pivot.is_finite() {
            return Err(FemError::NonFinite { equation: col });
        }
        let scale = (0..self.rows).fold(0.0f64, |m, r| m.max(self[(r, col)].abs()));
        if pivot <= PIVOT_RATIO * scale {
            return Err(FemError::SingularMatrix { equation: col });
        }
        Ok(pivot_row)
    }

    fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(r1 * self.cols + j, r2 * self.cols + j);
        }
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "index out of range");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "index out of range");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.4e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solves_trivially() {
        let m = DenseMatrix::identity(3);
        assert_eq!(m.solve(&[1.0, 2.0, 3.0]).unwrap(), vec![1.0, 2.0, 3.0]);
        // The pivot floor is relative: an identity scaled by 2^-1000
        // (below 1e-300) still solves, exactly.
        let mut tiny = m.clone();
        let scale = 2f64.powi(-1000);
        tiny.scale(scale);
        let b = [scale, 2.0 * scale, 3.0 * scale];
        assert_eq!(tiny.solve(&b).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the first diagonal entry forces a row swap.
        let m = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = m.solve(&[5.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 5.0]);
    }

    #[test]
    fn singular_detected() {
        // The second matrix's second column eliminates to 1e-6 against
        // entries of 1e6: far above an absolute floor, 1e-12 of the
        // column.
        for m in [
            DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]),
            DenseMatrix::from_rows(&[&[1e6, 1e6], &[1e6, 1e6 + 1e-6]]),
        ] {
            assert!(matches!(
                m.solve(&[1.0, 2.0]),
                Err(FemError::SingularMatrix { equation: 1 })
            ));
            assert!(m.inverse().is_err());
        }
    }

    #[test]
    fn non_finite_entries_reported_not_propagated() {
        let m = DenseMatrix::from_rows(&[&[1.0, f64::NAN], &[2.0, 1.0]]);
        assert!(matches!(
            m.solve(&[1.0, 1.0]),
            Err(FemError::NonFinite { equation: 1 })
        ));
        let inf = DenseMatrix::from_rows(&[&[f64::INFINITY, 0.0], &[0.0, 1.0]]);
        assert!(matches!(
            inf.inverse(),
            Err(FemError::NonFinite { equation: 0 })
        ));
    }

    #[test]
    fn inverse_round_trip() {
        let m = DenseMatrix::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]);
        let inv = m.inverse().unwrap();
        let prod = m.mul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn congruence_preserves_symmetry() {
        let d = DenseMatrix::from_rows(&[&[2.0, 0.5], &[0.5, 3.0]]);
        let b = DenseMatrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, 1.0]]);
        let k = d.congruence(&b);
        assert_eq!(k.rows(), 3);
        assert!(k.asymmetry() < 1e-14);
    }

    #[test]
    fn mul_vec_matches_mul() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_panics() {
        DenseMatrix::zeros(0, 3);
    }

    #[test]
    fn random_solve_residual_small() {
        // Deterministic pseudo-random SPD system.
        let n = 12;
        let mut seed = 42u64;
        let mut rand = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = rand();
            }
            a[(i, i)] += n as f64; // diagonally dominant
        }
        let b: Vec<f64> = (0..n).map(|_| rand()).collect();
        let x = a.solve(&b).unwrap();
        let r = a.mul_vec(&x);
        for i in 0..n {
            assert!((r[i] - b[i]).abs() < 1e-10);
        }
    }
}
