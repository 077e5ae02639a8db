//! Sparse graph-elimination kernel for nodal network systems.
//!
//! The hydraulic and thermal nodal matrices are symmetric, diagonally
//! dominant M-matrices whose sparsity pattern is the node incidence
//! graph — a handful of nonzeros per row regardless of network size.
//! Dense elimination pays O(n³) per Newton iteration for arithmetic
//! that is almost entirely `x -= factor * 0.0`.
//!
//! [`SparseSymbolic`] splits the solve in two:
//!
//! 1. **Symbolic analysis** (once per topology): simulate no-pivot
//!    Gaussian elimination in natural order on the boolean incidence
//!    pattern, record the fill-in, and flatten the whole elimination
//!    into a precomputed schedule of value indices.
//! 2. **Numeric factor+solve** (once per Newton iteration): replay the
//!    schedule over a flat value array — no index search, no pattern
//!    queries, no allocation.
//!
//! The numeric phase mirrors the dense [`Matrix::solve`] inner loops
//! exactly (same operation order, same `factor == 0.0` skip, same
//! singularity threshold) but touches only structural nonzeros. On the
//! diagonally dominant systems the solvers assemble, dense partial
//! pivoting never swaps rows (the strict `>` comparison keeps the
//! diagonal on ties), so the no-pivot sparse elimination performs the
//! *same arithmetic in the same order* and agrees with the dense path
//! to the last bit in all but exotic signed-zero cases.
//!
//! [`Matrix::solve`]: crate::Matrix::solve

use crate::matrix::NumericError;

/// Pivot magnitude below which the factorization reports
/// [`NumericError::SingularMatrix`] — identical to the dense threshold.
const SINGULAR_PIVOT: f64 = 1e-300;

/// Precomputed symbolic factorization of a symmetric sparsity pattern.
///
/// Build once per topology with [`SparseSymbolic::analyze`], then
/// assemble coefficient values into a [`SparseSymbolic::nnz`]-long
/// array (indices from [`SparseSymbolic::index_of`], typically cached
/// by the caller) and call [`SparseSymbolic::factor_solve`] per
/// right-hand side. The elimination order is the natural node order —
/// no reordering — so results track the dense path bit-for-bit on
/// diagonally dominant systems.
///
/// # Examples
///
/// ```
/// use rcs_numeric::SparseSymbolic;
/// // 3-node path graph: 0 — 1 — 2 (a tiny graph Laplacian + I).
/// let sym = SparseSymbolic::analyze(3, &[(0, 1), (1, 2)]);
/// let mut values = vec![0.0; sym.nnz()];
/// for (r, c, v) in [
///     (0, 0, 2.0), (0, 1, -1.0),
///     (1, 0, -1.0), (1, 1, 3.0), (1, 2, -1.0),
///     (2, 1, -1.0), (2, 2, 2.0),
/// ] {
///     values[sym.index_of(r, c).unwrap()] = v;
/// }
/// let mut rhs = vec![1.0, 0.0, 1.0];
/// sym.factor_solve(&mut values, &mut rhs).unwrap();
/// assert!((rhs[0] - 0.75).abs() < 1e-12);
/// assert!((rhs[1] - 0.5).abs() < 1e-12);
/// assert!((rhs[2] - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SparseSymbolic {
    n: usize,
    /// CSR row pointers into `cols` (and the caller's value array).
    row_ptr: Vec<usize>,
    /// Column index of each stored entry, ascending within a row.
    cols: Vec<usize>,
    /// Value index of the diagonal entry of each row.
    diag: Vec<usize>,
    /// Per column: range into `upper_idx` of the strictly-upper entries.
    upper_ptr: Vec<usize>,
    /// Value indices of the pivot row's strictly-upper entries, column
    /// ascending — the `src` operands of every rank-1 update.
    upper_idx: Vec<usize>,
    /// Per column: range into `below_row`/`below_factor_idx`.
    below_ptr: Vec<usize>,
    /// Row index of each strictly-lower entry in the pivot column,
    /// row ascending.
    below_row: Vec<usize>,
    /// Value index of that `(row, col)` entry — the factor source.
    below_factor_idx: Vec<usize>,
    /// Update destinations: for below-entry `b` of column `col`, the
    /// chunk `below_dst_idx[b * upper_len(col) ..][.. upper_len(col)]`
    /// holds the value indices of `(row, c)` aligned with `upper_idx`.
    /// Chunks are stored consecutively per column, below rows ascending.
    below_dst_ptr: Vec<usize>,
    below_dst_idx: Vec<usize>,
}

impl SparseSymbolic {
    /// Analyzes the symmetric pattern with structural nonzeros on the
    /// diagonal and at every `(r, c)` / `(c, r)` edge.
    ///
    /// `edges` lists off-diagonal adjacencies (direction and duplicates
    /// are irrelevant; self-edges are ignored since the diagonal is
    /// always structural). Fill-in from natural-order elimination is
    /// discovered here and included in the stored pattern.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is `>= n`.
    #[must_use]
    pub fn analyze(n: usize, edges: &[(usize, usize)]) -> Self {
        // Boolean pattern simulation: n is a node count (tens to a few
        // hundred), so the dense bitmap is cheap and exact.
        let mut pattern = vec![false; n * n];
        for i in 0..n {
            pattern[i * n + i] = true;
        }
        for &(r, c) in edges {
            assert!(r < n && c < n, "edge ({r}, {c}) out of bounds for n = {n}");
            if r != c {
                pattern[r * n + c] = true;
                pattern[c * n + r] = true;
            }
        }
        // Simulate elimination in natural order to discover fill-in:
        // eliminating column `col` links every pair of its remaining
        // neighbors.
        for col in 0..n {
            for r in (col + 1)..n {
                if !pattern[r * n + col] {
                    continue;
                }
                for c in (col + 1)..n {
                    if pattern[col * n + c] {
                        pattern[r * n + c] = true;
                    }
                }
            }
        }

        // Compact the filled pattern into CSR.
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut diag = vec![0; n];
        row_ptr.push(0);
        for r in 0..n {
            for c in 0..n {
                if pattern[r * n + c] {
                    if r == c {
                        diag[r] = cols.len();
                    }
                    cols.push(c);
                }
            }
            row_ptr.push(cols.len());
        }
        let index_of = |r: usize, c: usize| -> usize {
            let row = &cols[row_ptr[r]..row_ptr[r + 1]];
            row_ptr[r] + row.binary_search(&c).expect("filled pattern is closed")
        };

        // Flatten the elimination schedule.
        let mut upper_ptr = Vec::with_capacity(n + 1);
        let mut upper_idx = Vec::new();
        let mut below_ptr = Vec::with_capacity(n + 1);
        let mut below_row = Vec::new();
        let mut below_factor_idx = Vec::new();
        let mut below_dst_ptr = Vec::with_capacity(n + 1);
        let mut below_dst_idx = Vec::new();
        upper_ptr.push(0);
        below_ptr.push(0);
        below_dst_ptr.push(0);
        for col in 0..n {
            let upper: Vec<usize> = ((col + 1)..n).filter(|&c| pattern[col * n + c]).collect();
            for &c in &upper {
                upper_idx.push(index_of(col, c));
            }
            upper_ptr.push(upper_idx.len());
            for r in (col + 1)..n {
                if !pattern[r * n + col] {
                    continue;
                }
                below_row.push(r);
                below_factor_idx.push(index_of(r, col));
                // The filled pattern is elimination-closed: every
                // (r, c) target of this rank-1 update is structural.
                for &c in &upper {
                    below_dst_idx.push(index_of(r, c));
                }
            }
            below_ptr.push(below_row.len());
            below_dst_ptr.push(below_dst_idx.len());
        }

        Self {
            n,
            row_ptr,
            cols,
            diag,
            upper_ptr,
            upper_idx,
            below_ptr,
            below_row,
            below_factor_idx,
            below_dst_ptr,
            below_dst_idx,
        }
    }

    /// Number of stored entries (structural nonzeros including fill-in)
    /// — the length of the value array expected by
    /// [`SparseSymbolic::factor_solve`].
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Value-array index of entry `(r, c)`, or `None` if the entry is
    /// structurally zero. Callers assembling per-iteration coefficients
    /// should resolve indices once and cache them.
    #[must_use]
    pub fn index_of(&self, r: usize, c: usize) -> Option<usize> {
        if r >= self.n || c >= self.n {
            return None;
        }
        let row = &self.cols[self.row_ptr[r]..self.row_ptr[r + 1]];
        row.binary_search(&c).ok().map(|i| self.row_ptr[r] + i)
    }

    /// Value-array index of diagonal entry `(r, r)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= n`.
    #[must_use]
    pub fn diag_index(&self, r: usize) -> usize {
        assert!(r < self.n, "diagonal index {r} out of bounds");
        self.diag[r]
    }

    /// Factors the assembled values in place and solves for `rhs`,
    /// which is overwritten with the solution.
    ///
    /// `values` is consumed by the factorization (it holds the LU
    /// factors afterwards); reassemble before the next call. The
    /// operation sequence replays dense no-pivot elimination in natural
    /// order, including the `factor == 0.0` skip, so on diagonally
    /// dominant systems the result is bit-identical to
    /// [`crate::Matrix::solve`].
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] for wrong-length slices;
    /// [`NumericError::SingularMatrix`] if a pivot collapses below
    /// `1e-300` (same threshold as the dense path).
    pub fn factor_solve(&self, values: &mut [f64], rhs: &mut [f64]) -> Result<(), NumericError> {
        if values.len() != self.cols.len() {
            return Err(NumericError::DimensionMismatch {
                expected: self.cols.len(),
                actual: values.len(),
            });
        }
        if rhs.len() != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: self.n,
                actual: rhs.len(),
            });
        }
        for col in 0..self.n {
            let pivot = values[self.diag[col]];
            if pivot.abs() < SINGULAR_PIVOT {
                return Err(NumericError::SingularMatrix { pivot: col });
            }
            let upper = &self.upper_idx[self.upper_ptr[col]..self.upper_ptr[col + 1]];
            let ulen = upper.len();
            let below = self.below_ptr[col]..self.below_ptr[col + 1];
            let mut dst_start = self.below_dst_ptr[col];
            for b in below {
                let factor = values[self.below_factor_idx[b]] / pivot;
                let dst = &self.below_dst_idx[dst_start..dst_start + ulen];
                dst_start += ulen;
                if factor == 0.0 {
                    continue;
                }
                values[self.below_factor_idx[b]] = 0.0;
                for (&s, &d) in upper.iter().zip(dst) {
                    values[d] -= factor * values[s];
                }
                rhs[self.below_row[b]] -= factor * rhs[col];
            }
        }
        // Back substitution over the stored upper triangle.
        for col in (0..self.n).rev() {
            let mut acc = rhs[col];
            for &u in &self.upper_idx[self.upper_ptr[col]..self.upper_ptr[col + 1]] {
                acc -= values[u] * rhs[self.cols[u]];
            }
            rhs[col] = acc / values[self.diag[col]];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    /// Assembles the same system densely and sparsely and checks both
    /// solvers agree bitwise (the schedule replays the dense loops).
    fn cross_check(n: usize, edges: &[(usize, usize)], fill: impl Fn(usize, usize) -> f64) {
        let sym = SparseSymbolic::analyze(n, edges);
        let mut dense = Matrix::zeros(n, n);
        let mut values = vec![0.0; sym.nnz()];
        for r in 0..n {
            for c in 0..n {
                let v = fill(r, c);
                if v != 0.0 {
                    dense[(r, c)] = v;
                    values[sym
                        .index_of(r, c)
                        .expect("assembled entry must be structural")] = v;
                }
            }
        }
        let rhs_src: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 0.25).collect();
        let want = dense.solve(&rhs_src).unwrap();
        let mut rhs = rhs_src.clone();
        sym.factor_solve(&mut values, &mut rhs).unwrap();
        for (i, (got, want)) in rhs.iter().zip(&want).enumerate() {
            assert_eq!(got, want, "component {i}: sparse {got} vs dense {want}");
        }
    }

    #[test]
    fn path_graph_laplacian_matches_dense_bitwise() {
        let edges: Vec<(usize, usize)> = (0..7).map(|i| (i, i + 1)).collect();
        cross_check(8, &edges, |r, c| {
            if r == c {
                2.5 + r as f64 * 0.125
            } else if r.abs_diff(c) == 1 {
                -1.0
            } else {
                0.0
            }
        });
    }

    #[test]
    fn star_graph_produces_fill_and_matches_dense() {
        // Hub node 0 connected to every leaf: eliminating the hub first
        // links all leaves pairwise — maximal fill-in, worst case for
        // the natural ordering. Correctness must not depend on fill.
        let n = 6;
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
        let sym = SparseSymbolic::analyze(n, &edges);
        // hub elimination fills the leaf block densely
        assert_eq!(sym.nnz(), n * n);
        cross_check(n, &edges, |r, c| {
            if r == c {
                (n as f64) + 0.5
            } else if r == 0 || c == 0 {
                -1.0
            } else {
                0.0
            }
        });
    }

    #[test]
    fn manifold_pattern_matches_dense() {
        // Supply/return manifold with parallel loops — the hydraulic
        // solver's actual shape: two hub nodes, many two-degree loops.
        let loops = 9;
        let n = 2 + loops;
        let mut edges = vec![(0, 1)];
        for i in 0..loops {
            edges.push((0, 2 + i));
            edges.push((2 + i, 1));
        }
        cross_check(n, &edges, |r, c| {
            if r == c {
                12.0 + r as f64
            } else if edges.contains(&(r, c)) || edges.contains(&(c, r)) {
                -1.5 - (r + c) as f64 * 0.0625
            } else {
                0.0
            }
        });
    }

    #[test]
    fn disconnected_pinned_rows_solve_like_identity() {
        // The hydraulic solver pins isolated junctions to a 1.0 diagonal
        // with zero rhs; the sparse path must honor exactly that.
        let sym = SparseSymbolic::analyze(4, &[(0, 1)]);
        let mut values = vec![0.0; sym.nnz()];
        values[sym.index_of(0, 0).unwrap()] = 2.0;
        values[sym.index_of(1, 1).unwrap()] = 2.0;
        values[sym.index_of(0, 1).unwrap()] = -1.0;
        values[sym.index_of(1, 0).unwrap()] = -1.0;
        values[sym.index_of(2, 2).unwrap()] = 1.0;
        values[sym.index_of(3, 3).unwrap()] = 1.0;
        let mut rhs = vec![1.0, 1.0, 0.0, 0.0];
        sym.factor_solve(&mut values, &mut rhs).unwrap();
        assert_eq!(rhs[0], 1.0);
        assert_eq!(rhs[1], 1.0);
        assert_eq!(rhs[2], 0.0);
        assert_eq!(rhs[3], 0.0);
    }

    #[test]
    fn structurally_absent_entries_report_none() {
        let sym = SparseSymbolic::analyze(3, &[(0, 1)]);
        assert!(sym.index_of(0, 2).is_none());
        assert!(sym.index_of(2, 0).is_none());
        assert!(sym.index_of(0, 1).is_some());
        assert!(sym.index_of(3, 0).is_none(), "out of range is None");
        assert_eq!(sym.diag_index(2), sym.index_of(2, 2).unwrap());
    }

    #[test]
    fn singular_diagonal_is_detected_at_the_right_pivot() {
        let sym = SparseSymbolic::analyze(3, &[(0, 1), (1, 2)]);
        let mut values = vec![0.0; sym.nnz()];
        values[sym.index_of(0, 0).unwrap()] = 2.0;
        // leave (1,1) zero → pivot 1 collapses after eliminating col 0
        values[sym.index_of(2, 2).unwrap()] = 2.0;
        let mut rhs = vec![1.0, 1.0, 1.0];
        let err = sym.factor_solve(&mut values, &mut rhs).unwrap_err();
        assert!(matches!(err, NumericError::SingularMatrix { pivot: 1 }));
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let sym = SparseSymbolic::analyze(2, &[(0, 1)]);
        let mut short_values = vec![0.0; sym.nnz() - 1];
        let mut rhs = vec![1.0, 1.0];
        assert!(matches!(
            sym.factor_solve(&mut short_values, &mut rhs),
            Err(NumericError::DimensionMismatch { .. })
        ));
        let mut values = vec![1.0; sym.nnz()];
        let mut short_rhs = vec![1.0];
        assert!(matches!(
            sym.factor_solve(&mut values, &mut short_rhs),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_system_is_a_no_op() {
        let sym = SparseSymbolic::analyze(0, &[]);
        assert_eq!(sym.nnz(), 0);
        let mut values: Vec<f64> = vec![];
        let mut rhs: Vec<f64> = vec![];
        sym.factor_solve(&mut values, &mut rhs).unwrap();
    }

    #[test]
    fn factor_ops_scale_linearly_on_banded_ladders() {
        // Segmented supply/return headers (the layout builder's actual
        // manifold shape) give a banded incidence pattern: natural-order
        // elimination produces O(1) fill per node, so the schedule is
        // O(n) update pairs where dense elimination pays ~n³/3.
        // (A hub-first star is the worst case: eliminating the hub fills
        // the remainder densely — see the star test above — but even
        // then the schedule matches dense work, never exceeds it.)
        let segments = 40;
        let n = 2 * segments;
        // Interleaved numbering (supply_i = 2i, return_i = 2i+1) keeps
        // the bandwidth at 3 along the whole run.
        let mut edges = Vec::new();
        for i in 0..(segments - 1) {
            edges.push((2 * i, 2 * i + 2)); // supply header run
            edges.push((2 * i + 1, 2 * i + 3)); // return header run
        }
        for i in 0..segments {
            edges.push((2 * i, 2 * i + 1)); // rack loop at each segment
        }
        let sym = SparseSymbolic::analyze(n, &edges);
        // One numeric factorization costs one multiply-subtract per
        // scheduled update pair.
        let factor_ops = sym.below_dst_idx.len();
        let dense_pairs = n * n * n / 3;
        assert!(
            factor_ops * 20 < dense_pairs,
            "schedule {factor_ops} update pairs should be far below dense ~{dense_pairs}"
        );
    }
}
