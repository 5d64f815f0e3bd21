//! Symmetric banded storage and Cholesky factorization.
//!
//! This solver is *why* the paper cares about node numbering: "the size of
//! the coefficient matrix bandwidth … is directly related to the numbering
//! scheme". A banded Cholesky factorization costs `O(n·b²)` time and
//! `O(n·b)` storage for semi-bandwidth `b`, so halving the bandwidth
//! through renumbering quarters the solve time — experiment C4 measures
//! exactly that.

use crate::{FemError, PIVOT_RATIO};

/// A symmetric positive-definite matrix stored by diagonals within a fixed
/// semi-bandwidth.
///
/// Entry `(i, j)` with `j >= i` and `j - i <= bandwidth` is stored at
/// `storage[i][j - i]`. Writes outside the band panic — by construction
/// the assembly only touches entries inside the band computed from the
/// mesh.
///
/// # Examples
///
/// ```
/// use cafemio_fem::BandMatrix;
/// let mut k = BandMatrix::new(3, 1);
/// k.add(0, 0, 2.0);
/// k.add(1, 1, 2.0);
/// k.add(2, 2, 2.0);
/// k.add(0, 1, -1.0);
/// k.add(1, 2, -1.0);
/// let x = k.clone().solve(&[1.0, 0.0, 1.0]).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BandMatrix {
    n: usize,
    bandwidth: usize,
    /// `storage[i][d]` is entry `(i, i + d)`.
    storage: Vec<Vec<f64>>,
}

impl BandMatrix {
    /// Creates an `n × n` zero matrix with the given semi-bandwidth
    /// (`bandwidth = 0` stores only the diagonal).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn new(n: usize, bandwidth: usize) -> BandMatrix {
        assert!(n > 0, "matrix order must be positive");
        let bandwidth = bandwidth.min(n - 1);
        let storage = (0..n)
            .map(|i| vec![0.0; (bandwidth + 1).min(n - i)])
            .collect();
        BandMatrix {
            n,
            bandwidth,
            storage,
        }
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Semi-bandwidth.
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    /// Number of stored entries (the storage the paper's generation of
    /// machines fought for).
    pub fn stored_entries(&self) -> usize {
        self.storage.iter().map(Vec::len).sum()
    }

    /// Adds `value` to entry `(i, j)`; symmetric entries are one entry, so
    /// callers add each element-matrix term once with `j >= i` or `j < i`
    /// interchangeably.
    ///
    /// # Panics
    ///
    /// Panics when the entry lies outside the band or the matrix.
    pub fn add(&mut self, i: usize, j: usize, value: f64) {
        let (row, col) = if j >= i { (i, j) } else { (j, i) };
        assert!(col < self.n, "index out of range");
        let d = col - row;
        assert!(
            d <= self.bandwidth,
            "entry ({i}, {j}) outside semi-bandwidth {}",
            self.bandwidth
        );
        self.storage[row][d] += value;
    }

    /// Reads entry `(i, j)` (zero outside the band).
    ///
    /// # Panics
    ///
    /// Panics when out of the matrix.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (row, col) = if j >= i { (i, j) } else { (j, i) };
        assert!(col < self.n, "index out of range");
        let d = col - row;
        if d > self.bandwidth {
            0.0
        } else {
            self.storage[row][d]
        }
    }

    /// Zeroes row and column `k` and places 1 on the diagonal — the
    /// classic way to impose a fixed degree of freedom while preserving
    /// symmetry and definiteness. Returns the former column so the caller
    /// can adjust the right-hand side for non-zero prescribed values.
    pub fn constrain(&mut self, k: usize) -> Vec<(usize, f64)> {
        assert!(k < self.n, "index out of range");
        let mut column = Vec::new();
        let lo = k.saturating_sub(self.bandwidth);
        let hi = (k + self.bandwidth).min(self.n - 1);
        for other in lo..=hi {
            if other == k {
                continue;
            }
            let v = self.get(other, k);
            if v != 0.0 {
                column.push((other, v));
                let (row, col) = if other < k { (other, k) } else { (k, other) };
                self.storage[row][col - row] = 0.0;
            }
        }
        self.storage[k][0] = 1.0;
        column
    }

    /// Multiplies by a vector (for residual checks).
    ///
    /// # Panics
    ///
    /// Panics when `x` has the wrong length.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "vector length mismatch");
        let mut y = vec![0.0; self.n];
        for i in 0..self.n {
            for (d, &v) in self.storage[i].iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                let j = i + d;
                y[i] += v * x[j];
                if d > 0 {
                    y[j] += v * x[i];
                }
            }
        }
        y
    }

    /// Cholesky-factorizes in place and solves `self · x = b`, consuming
    /// the matrix.
    ///
    /// # Errors
    ///
    /// [`FemError::SingularMatrix`] when the matrix is not positive
    /// definite: a pivot falls to 1e-10 of its diagonal or below.
    /// [`FemError::RhsLength`] when `b` has the wrong length.
    pub fn solve(self, b: &[f64]) -> Result<Vec<f64>, FemError> {
        self.cholesky()?.solve(b)
    }

    /// Factorizes once, returning a reusable factor — the transient
    /// thermal stepper solves with the same matrix every time step.
    ///
    /// # Errors
    ///
    /// [`FemError::SingularMatrix`] when the matrix is not positive
    /// definite: a pivot falls to 1e-10 of its diagonal or below.
    pub fn cholesky(mut self) -> Result<CholeskyFactor, FemError> {
        self.factorize()?;
        Ok(CholeskyFactor { inner: self })
    }

    /// Banded Cholesky `A = LLᵀ`, overwriting the storage with `Lᵀ` rows.
    fn factorize(&mut self) -> Result<(), FemError> {
        let n = self.n;
        let bw = self.bandwidth;
        for i in 0..n {
            // Diagonal.
            let a_ii = self.storage[i][0];
            let mut diag = a_ii;
            let lo = i.saturating_sub(bw);
            for k in lo..i {
                let l_ki = self.storage[k][i - k];
                diag -= l_ki * l_ki;
            }
            // NaN fails every comparison, so test finiteness explicitly
            // rather than letting a poisoned pivot sail past the floor.
            if !diag.is_finite() {
                return Err(FemError::NonFinite { equation: i });
            }
            // `diag` is l_ii², the LDLᵀ pivot d_i.
            if diag <= PIVOT_RATIO * a_ii {
                return Err(FemError::SingularMatrix { equation: i });
            }
            let l_ii = diag.sqrt();
            self.storage[i][0] = l_ii;
            // Off-diagonals of row i of Lᵀ (entries (i, j), j > i).
            let hi = (i + bw).min(n - 1);
            for j in i + 1..=hi {
                let mut sum = self.storage[i][j - i];
                let lo_j = j.saturating_sub(bw);
                for k in lo_j.max(lo)..i {
                    sum -= self.storage[k][i - k] * self.storage[k][j - k];
                }
                self.storage[i][j - i] = sum / l_ii;
            }
        }
        Ok(())
    }

    /// Forward/back substitution with the factored storage.
    fn solve_factored(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        let bw = self.bandwidth;
        // Forward: L y = b, where L(j, i) = storage[i][j - i] for j >= i.
        let mut y = b.to_vec();
        for i in 0..n {
            let lo = i.saturating_sub(bw);
            let mut sum = y[i];
            for k in lo..i {
                sum -= self.storage[k][i - k] * y[k];
            }
            y[i] = sum / self.storage[i][0];
        }
        // Back: Lᵀ x = y.
        let mut x = y;
        for i in (0..n).rev() {
            let hi = (i + bw).min(n - 1);
            let mut sum = x[i];
            for j in i + 1..=hi {
                sum -= self.storage[i][j - i] * x[j];
            }
            x[i] = sum / self.storage[i][0];
        }
        x
    }
}

/// A completed banded Cholesky factorization, reusable across right-hand
/// sides.
///
/// # Examples
///
/// ```
/// use cafemio_fem::BandMatrix;
/// # fn main() -> Result<(), cafemio_fem::FemError> {
/// let mut k = BandMatrix::new(2, 1);
/// k.add(0, 0, 4.0);
/// k.add(1, 1, 4.0);
/// k.add(0, 1, 1.0);
/// let factor = k.cholesky()?;
/// let x1 = factor.solve(&[5.0, 5.0])?;
/// let x2 = factor.solve(&[4.0, 1.0])?;
/// assert!((x1[0] - 1.0).abs() < 1e-12);
/// assert!((x2[0] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    inner: BandMatrix,
}

impl CholeskyFactor {
    /// Solves `A·x = b` with the stored factor.
    ///
    /// # Errors
    ///
    /// [`FemError::RhsLength`] when `b` has the wrong length — the same
    /// signature as every sibling factorization, so callers thread one
    /// error path through repeated solves.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, FemError> {
        if b.len() != self.inner.n {
            return Err(FemError::RhsLength {
                expected: self.inner.n,
                actual: b.len(),
            });
        }
        Ok(self.inner.solve_factored(b))
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.inner.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseMatrix;

    /// 1-D Laplacian (tridiagonal SPD).
    fn laplacian(n: usize) -> BandMatrix {
        let mut m = BandMatrix::new(n, 1);
        for i in 0..n {
            m.add(i, i, 2.0);
            if i + 1 < n {
                m.add(i, i + 1, -1.0);
            }
        }
        m
    }

    #[test]
    fn solves_tridiagonal() {
        let n = 50;
        let m = laplacian(n);
        let b = vec![1.0; n];
        let x = m.clone().solve(&b).unwrap();
        let r = m.mul_vec(&x);
        for i in 0..n {
            assert!((r[i] - 1.0).abs() < 1e-9, "residual at {i}");
        }
    }

    #[test]
    fn agrees_with_dense_solver() {
        let n = 20;
        let bw = 4;
        let mut band = BandMatrix::new(n, bw);
        let mut dense = DenseMatrix::zeros(n, n);
        let mut seed = 7u64;
        let mut rand = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            for j in i..(i + bw + 1).min(n) {
                let v = if i == j { 10.0 + rand().abs() } else { rand() * 0.5 };
                band.add(i, j, v);
                dense[(i, j)] = band.get(i, j);
                dense[(j, i)] = band.get(i, j);
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x_band = band.solve(&b).unwrap();
        let x_dense = dense.solve(&b).unwrap();
        for i in 0..n {
            assert!((x_band[i] - x_dense[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn indefinite_rejected() {
        let mut m = BandMatrix::new(2, 1);
        m.add(0, 0, 1.0);
        m.add(1, 1, -1.0);
        assert!(matches!(
            m.solve(&[1.0, 1.0]),
            Err(FemError::SingularMatrix { equation: 1 })
        ));
    }

    #[test]
    #[should_panic(expected = "outside semi-bandwidth")]
    fn write_outside_band_panics() {
        laplacian(5).add(0, 3, 1.0);
    }

    #[test]
    fn wrong_rhs_length_is_an_error_not_a_panic() {
        assert_eq!(
            laplacian(5).solve(&[1.0; 4]),
            Err(FemError::RhsLength {
                expected: 5,
                actual: 4
            })
        );
        let factor = laplacian(5).cholesky().unwrap();
        assert_eq!(
            factor.solve(&[1.0; 6]),
            Err(FemError::RhsLength {
                expected: 5,
                actual: 6
            })
        );
    }

    #[test]
    fn get_outside_band_is_zero() {
        assert_eq!(laplacian(5).get(0, 4), 0.0);
    }

    #[test]
    fn symmetric_add_and_get() {
        let mut m = BandMatrix::new(4, 2);
        m.add(2, 0, 5.0);
        assert_eq!(m.get(0, 2), 5.0);
        assert_eq!(m.get(2, 0), 5.0);
    }

    #[test]
    fn constrain_clears_row_and_column() {
        let mut m = laplacian(4);
        let column = m.constrain(1);
        assert_eq!(m.get(1, 1), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(1, 2), 0.0);
        // Returned column lists the former couplings.
        assert_eq!(column.len(), 2);
        assert!(column.contains(&(0, -1.0)));
        assert!(column.contains(&(2, -1.0)));
    }

    #[test]
    fn stored_entries_scale_with_bandwidth() {
        let narrow = BandMatrix::new(100, 2);
        let wide = BandMatrix::new(100, 50);
        assert!(narrow.stored_entries() < wide.stored_entries());
        assert_eq!(narrow.stored_entries(), 100 * 3 - 1 - 2);
    }

    #[test]
    fn bandwidth_clamped_to_order() {
        let m = BandMatrix::new(3, 10);
        assert_eq!(m.bandwidth(), 2);
    }

    #[test]
    fn diagonal_only_matrix() {
        let mut m = BandMatrix::new(3, 0);
        for i in 0..3 {
            m.add(i, i, 2.0);
        }
        let x = m.solve(&[2.0, 4.0, 6.0]).unwrap();
        for (got, want) in x.iter().zip([1.0, 2.0, 3.0]) {
            assert!((got - want).abs() < 1e-12);
        }
    }
}
