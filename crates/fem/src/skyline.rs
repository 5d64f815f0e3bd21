//! Skyline (profile) storage and LDLᵀ factorization — the other classic
//! sparse-direct scheme of the paper's era (Bathe's COLSOL). Where band
//! storage keeps a fixed-width diagonal strip, the skyline keeps each
//! column only from its first nonzero down to the diagonal, so a good
//! renumbering pays off through the *profile* even when the worst-case
//! bandwidth is stuck (reverse Cuthill–McKee's specialty).

use crate::{FemError, PIVOT_RATIO};

/// A symmetric matrix in skyline storage: column `j` holds rows
/// `first_row[j] ..= j`.
///
/// # Examples
///
/// ```
/// use cafemio_fem::SkylineMatrix;
/// // Tridiagonal 3×3: each column reaches one above the diagonal.
/// let mut a = SkylineMatrix::new(&[0, 0, 1]);
/// a.add(0, 0, 2.0);
/// a.add(1, 1, 2.0);
/// a.add(2, 2, 2.0);
/// a.add(0, 1, -1.0);
/// a.add(1, 2, -1.0);
/// let x = a.solve(&[1.0, 0.0, 1.0]).unwrap();
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SkylineMatrix {
    n: usize,
    first_row: Vec<usize>,
    /// `columns[j][k]` is entry `(first_row[j] + k, j)`.
    columns: Vec<Vec<f64>>,
}

impl SkylineMatrix {
    /// Creates a zero matrix with the given column profile
    /// (`first_row[j]` = topmost stored row of column `j`).
    ///
    /// # Panics
    ///
    /// Panics when the profile is empty or `first_row[j] > j`.
    pub fn new(first_row: &[usize]) -> SkylineMatrix {
        assert!(!first_row.is_empty(), "matrix order must be positive");
        for (j, &f) in first_row.iter().enumerate() {
            assert!(f <= j, "column {j} profile {f} reaches below the diagonal");
        }
        let columns = first_row
            .iter()
            .enumerate()
            .map(|(j, &f)| vec![0.0; j - f + 1])
            .collect();
        SkylineMatrix {
            n: first_row.len(),
            first_row: first_row.to_vec(),
            columns,
        }
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Number of stored entries — the *profile*, the storage metric RCM
    /// minimizes.
    pub fn stored_entries(&self) -> usize {
        self.columns.iter().map(Vec::len).sum()
    }

    /// Adds `value` at `(i, j)` (symmetric single entry).
    ///
    /// # Panics
    ///
    /// Panics when the entry lies above the column's profile.
    pub fn add(&mut self, i: usize, j: usize, value: f64) {
        let (row, col) = if j >= i { (i, j) } else { (j, i) };
        assert!(col < self.n, "index out of range");
        let f = self.first_row[col];
        assert!(
            row >= f,
            "entry ({i}, {j}) above the skyline of column {col}"
        );
        self.columns[col][row - f] += value;
    }

    /// Reads `(i, j)` (zero above the skyline).
    ///
    /// # Panics
    ///
    /// Panics when out of the matrix.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (row, col) = if j >= i { (i, j) } else { (j, i) };
        assert!(col < self.n, "index out of range");
        let f = self.first_row[col];
        if row < f {
            0.0
        } else {
            self.columns[col][row - f]
        }
    }

    /// Zeroes row and column `k`, sets the diagonal to 1, and returns the
    /// former couplings (for constraint handling, mirroring
    /// [`BandMatrix::constrain`](crate::BandMatrix::constrain)).
    pub fn constrain(&mut self, k: usize) -> Vec<(usize, f64)> {
        assert!(k < self.n, "index out of range");
        let mut column = Vec::new();
        // Entries above the diagonal in column k.
        let f = self.first_row[k];
        for row in f..k {
            let v = self.columns[k][row - f];
            if v != 0.0 {
                column.push((row, v));
                self.columns[k][row - f] = 0.0;
            }
        }
        // Entries right of the diagonal: row k of later columns.
        for col in k + 1..self.n {
            let fc = self.first_row[col];
            if k >= fc {
                let v = self.columns[col][k - fc];
                if v != 0.0 {
                    column.push((col, v));
                    self.columns[col][k - fc] = 0.0;
                }
            }
        }
        let fk = self.first_row[k];
        self.columns[k][k - fk] = 1.0;
        column
    }

    /// Factorizes (LDLᵀ, Bathe's COLSOL) and solves, consuming the
    /// matrix.
    ///
    /// # Errors
    ///
    /// [`FemError::SingularMatrix`] when a pivot falls to 1e-10 of its
    /// column's diagonal or below (the structural matrices here are
    /// positive definite; a free rigid-body mode leaves a round-off
    /// pivot),
    /// [`FemError::NonFinite`] when a NaN or infinity reaches a pivot,
    /// and [`FemError::RhsLength`] when `b` has the wrong length.
    pub fn solve(mut self, b: &[f64]) -> Result<Vec<f64>, FemError> {
        if b.len() != self.n {
            return Err(FemError::RhsLength {
                expected: self.n,
                actual: b.len(),
            });
        }
        self.factorize()?;
        let mut x = b.to_vec();
        self.substitute(&mut x);
        Ok(x)
    }

    /// In-place LDLᵀ: columns end up holding `l_ij` above the diagonal
    /// and `d_j` on it. The sparse backend's complete preconditioner
    /// factors with this too.
    ///
    /// # Errors
    ///
    /// As for [`solve`](Self::solve), minus the length check.
    pub(crate) fn factorize(&mut self) -> Result<(), FemError> {
        for j in 0..self.n {
            let fj = self.first_row[j];
            // Reduce the off-diagonal entries g_ij (top-down), then the
            // diagonal.
            for i in fj..j {
                let fi = self.first_row[i];
                let start = fi.max(fj);
                let mut sum = self.columns[j][i - fj];
                for k in start..i {
                    // l_ki (already reduced) * g_kj (already reduced,
                    // still unscaled in column j storage).
                    sum -= self.columns[i][k - fi] * self.columns[j][k - fj];
                }
                self.columns[j][i - fj] = sum; // g_ij
            }
            // d_j = a_jj − Σ g_ij² / d_i, and convert g to l = g / d.
            let a_jj = self.columns[j][j - fj];
            let mut diag = a_jj;
            for i in fj..j {
                let fi = self.first_row[i];
                let d_i = self.columns[i][i - fi];
                let g = self.columns[j][i - fj];
                let l = g / d_i;
                diag -= g * l;
                self.columns[j][i - fj] = l;
            }
            // NaN fails every comparison, so test finiteness explicitly
            // rather than letting a poisoned pivot sail past the floor.
            if !diag.is_finite() {
                return Err(FemError::NonFinite { equation: j });
            }
            if diag <= PIVOT_RATIO * a_jj {
                return Err(FemError::SingularMatrix { equation: j });
            }
            self.columns[j][j - fj] = diag;
        }
        Ok(())
    }

    /// The forward, diagonal and back sweep of a
    /// [`factorize`](Self::factorize)d matrix, in place: `x` holds `b`
    /// on entry and `A⁻¹·b` on exit. Allocates nothing, so the sparse
    /// backend's CG loop can run it once per iteration.
    pub(crate) fn substitute(&self, x: &mut [f64]) {
        let n = self.n;
        // Forward: L z = b.
        for j in 0..n {
            let fj = self.first_row[j];
            let mut sum = x[j];
            for i in fj..j {
                sum -= self.columns[j][i - fj] * x[i];
            }
            x[j] = sum;
        }
        // Diagonal: z / d.
        for j in 0..n {
            let fj = self.first_row[j];
            x[j] /= self.columns[j][j - fj];
        }
        // Back: Lᵀ y = z (column sweep).
        for j in (0..n).rev() {
            let fj = self.first_row[j];
            for i in fj..j {
                x[i] -= self.columns[j][i - fj] * x[j];
            }
        }
    }
}

/// Computes the dof skyline profile of a structural mesh (two dofs per
/// node): `first_row[dof] = min` coupled dof.
pub fn dof_profile(mesh: &cafemio_mesh::TriMesh) -> Vec<usize> {
    let ndof = mesh.node_count() * 2;
    let mut first: Vec<usize> = (0..ndof).collect();
    for (_, el) in mesh.elements() {
        let min_dof = el
            .nodes
            .iter()
            .map(|n| 2 * n.index())
            .min()
            // invariant: a triangle always has exactly three nodes.
            .expect("elements have nodes");
        for node in el.nodes {
            for dof in [2 * node.index(), 2 * node.index() + 1] {
                first[dof] = first[dof].min(min_dof);
            }
        }
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseMatrix;

    fn full_profile(n: usize) -> Vec<usize> {
        vec![0; n]
    }

    #[test]
    fn agrees_with_dense_on_random_spd() {
        let n = 25;
        let mut seed = 11u64;
        let mut rand = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(7);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut sky = SkylineMatrix::new(&full_profile(n));
        let mut dense = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = if i == j { 20.0 + rand().abs() } else { rand() };
                sky.add(i, j, v);
                dense[(i, j)] = sky.get(i, j);
                dense[(j, i)] = sky.get(i, j);
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let x_sky = sky.solve(&b).unwrap();
        let x_dense = dense.solve(&b).unwrap();
        for i in 0..n {
            assert!((x_sky[i] - x_dense[i]).abs() < 1e-9, "at {i}");
        }
    }

    #[test]
    fn ragged_profile_solves() {
        // Arrow-like matrix: last column is full, others tridiagonal.
        let n = 12;
        let mut first: Vec<usize> = (0..n).map(|j: usize| j.saturating_sub(1)).collect();
        first[n - 1] = 0;
        let mut sky = SkylineMatrix::new(&first);
        let mut dense = DenseMatrix::zeros(n, n);
        for j in 0..n {
            sky.add(j, j, 10.0);
            dense[(j, j)] = 10.0;
            if j > 0 && j < n - 1 {
                sky.add(j - 1, j, -2.0);
                dense[(j - 1, j)] = -2.0;
                dense[(j, j - 1)] = -2.0;
            }
        }
        for i in 0..n - 1 {
            sky.add(i, n - 1, -1.0);
            dense[(i, n - 1)] += -1.0;
            dense[(n - 1, i)] += -1.0;
        }
        let b = vec![1.0; n];
        let x_sky = sky.solve(&b).unwrap();
        let x_dense = dense.solve(&b).unwrap();
        for i in 0..n {
            assert!((x_sky[i] - x_dense[i]).abs() < 1e-9, "at {i}");
        }
    }

    #[test]
    fn above_skyline_is_zero_and_write_panics() {
        let sky = SkylineMatrix::new(&[0, 1, 2]); // diagonal only beyond col 0
        assert_eq!(sky.get(0, 2), 0.0);
        let result = std::panic::catch_unwind(move || {
            let mut sky = SkylineMatrix::new(&[0, 1, 2]);
            sky.add(0, 2, 1.0);
        });
        assert!(result.is_err());
    }

    #[test]
    fn indefinite_rejected() {
        let mut sky = SkylineMatrix::new(&full_profile(2));
        sky.add(0, 0, 1.0);
        sky.add(1, 1, -2.0);
        assert!(matches!(
            sky.solve(&[1.0, 1.0]),
            Err(FemError::SingularMatrix { equation: 1 })
        ));
    }

    #[test]
    fn constrain_matches_band_semantics() {
        let mut sky = SkylineMatrix::new(&[0, 0, 1]);
        sky.add(0, 0, 2.0);
        sky.add(1, 1, 2.0);
        sky.add(2, 2, 2.0);
        sky.add(0, 1, -1.0);
        sky.add(1, 2, -1.0);
        let column = sky.constrain(1);
        assert_eq!(sky.get(1, 1), 1.0);
        assert_eq!(sky.get(0, 1), 0.0);
        assert_eq!(sky.get(1, 2), 0.0);
        assert_eq!(column.len(), 2);
    }

    #[test]
    fn profile_smaller_than_band_for_ragged_meshes() {
        use cafemio_geom::Point;
        use cafemio_mesh::{BoundaryKind, TriMesh};
        // A mesh with one long-range element (simulating a tie): the band
        // must cover the worst pair everywhere, the skyline only in the
        // affected columns.
        let mut mesh = TriMesh::new();
        let ids: Vec<_> = (0..10)
            .map(|i| {
                mesh.add_node(
                    Point::new(i as f64, (i % 2) as f64),
                    BoundaryKind::Boundary,
                )
            })
            .collect();
        for i in 0..8 {
            mesh.add_element([ids[i], ids[i + 1], ids[i + 2]]).unwrap();
        }
        let profile = dof_profile(&mesh);
        let sky = SkylineMatrix::new(&profile);
        let bw = 2 * mesh.bandwidth() + 1;
        let band = crate::BandMatrix::new(20, bw);
        assert!(sky.stored_entries() <= band.stored_entries());
    }
}
