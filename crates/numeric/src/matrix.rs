//! Dense row-major matrix with Gaussian elimination.

/// Error type for the numeric kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericError {
    /// The linear system is singular (or numerically so) at the given
    /// elimination step.
    SingularMatrix {
        /// Pivot column at which elimination failed.
        pivot: usize,
    },
    /// Mismatched dimensions between a matrix and a vector.
    DimensionMismatch {
        /// What was expected.
        expected: usize,
        /// What was provided.
        actual: usize,
    },
}

impl core::fmt::Display for NumericError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::SingularMatrix { pivot } => {
                write!(f, "singular matrix at pivot column {pivot}")
            }
            Self::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for NumericError {}

/// A dense row-major `rows x cols` matrix of `f64`.
///
/// # Examples
///
/// ```
/// use rcs_numeric::Matrix;
/// let mut m = Matrix::zeros(2, 2);
/// m[(0, 1)] = 3.0;
/// assert_eq!(m[(0, 1)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows.checked_mul(cols).expect("matrix size overflow")],
        }
    }

    /// Creates an identity matrix of size `n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, NumericError> {
        if x.len() != self.cols {
            return Err(NumericError::DimensionMismatch {
                expected: self.cols,
                actual: x.len(),
            });
        }
        Ok((0..self.rows)
            .map(|i| {
                let row = &self.data[i * self.cols..(i + 1) * self.cols];
                row.iter().zip(x).map(|(a, b)| a * b).sum()
            })
            .collect())
    }

    /// Solves `A x = b` by Gaussian elimination with partial pivoting.
    ///
    /// The matrix is consumed logically (a working copy is made), so `self`
    /// can be reused.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] for a non-square matrix
    /// or wrong-length `b`, and [`NumericError::SingularMatrix`] if a pivot
    /// collapses below `1e-300`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        if self.rows != self.cols {
            return Err(NumericError::DimensionMismatch {
                expected: self.rows,
                actual: self.cols,
            });
        }
        if b.len() != self.rows {
            return Err(NumericError::DimensionMismatch {
                expected: self.rows,
                actual: b.len(),
            });
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();

        for col in 0..n {
            // partial pivot
            let mut pivot_row = col;
            let mut pivot_mag = a[col * n + col].abs();
            for r in (col + 1)..n {
                let mag = a[r * n + col].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
            if pivot_mag < 1e-300 {
                return Err(NumericError::SingularMatrix { pivot: col });
            }
            if pivot_row != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot_row * n + c);
                }
                x.swap(col, pivot_row);
            }
            let pivot = a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[r * n + col] = 0.0;
                for c in (col + 1)..n {
                    a[r * n + c] -= factor * a[col * n + c];
                }
                x[r] -= factor * x[col];
            }
        }
        // back substitution
        for col in (0..n).rev() {
            let mut acc = x[col];
            for c in (col + 1)..n {
                acc -= a[col * n + c] * x[c];
            }
            x[col] = acc / a[col * n + col];
        }
        Ok(x)
    }
}

impl core::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl core::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_hand_checked_3x3() {
        let mut a = Matrix::zeros(3, 3);
        let vals = [[2.0, 1.0, -1.0], [-3.0, -1.0, 2.0], [-2.0, 1.0, 2.0]];
        for (i, row) in vals.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                a[(i, j)] = *v;
            }
        }
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        // classic example: x = 2, y = 3, z = -1
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn identity_solve_returns_rhs() {
        let a = Matrix::identity(4);
        let b = [1.0, -2.0, 3.5, 0.0];
        assert_eq!(a.solve(&b).unwrap(), b.to_vec());
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_detected() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 1.0;
        a[(0, 1)] = 2.0;
        a[(1, 0)] = 2.0;
        a[(1, 1)] = 4.0;
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(NumericError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(NumericError::DimensionMismatch { .. })
        ));
        let b = Matrix::identity(2);
        assert!(matches!(
            b.solve(&[1.0]),
            Err(NumericError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn mul_vec_round_trip() {
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                a[(i, j)] = ((i * 3 + j) as f64).sin() + if i == j { 4.0 } else { 0.0 };
            }
        }
        let x = [1.0, -2.0, 0.5];
        let b = a.mul_vec(&x).unwrap();
        let back = a.solve(&b).unwrap();
        for (got, want) in back.iter().zip(x.iter()) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "matrix index out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }
}
