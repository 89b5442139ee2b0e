//! Compressed Sparse Row (CSR): the baseline format of the paper
//! (Section 2.1, Algorithm 1) and the input to every conversion.

use crate::coo::Coo;
use crate::types::{validate_indices, validate_offsets, SparseError, SparseResult};

/// CSR sparse matrix with `u32` indices and `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// `nrows + 1` offsets into `col_idx` / `values`.
    pub row_ptr: Vec<u32>,
    /// Column index per nonzero, sorted within each row.
    pub col_idx: Vec<u32>,
    /// Value per nonzero.
    pub values: Vec<f32>,
}

impl Csr {
    /// Builds a CSR matrix, validating all structural invariants.
    pub fn new(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> SparseResult<Self> {
        if row_ptr.len() != nrows + 1 {
            return Err(SparseError::LengthMismatch {
                what: format!("row_ptr.len() = {}, expected {}", row_ptr.len(), nrows + 1),
            });
        }
        if col_idx.len() != values.len() {
            return Err(SparseError::LengthMismatch {
                what: format!("col_idx ({}) vs values ({})", col_idx.len(), values.len()),
            });
        }
        validate_offsets(&row_ptr, values.len(), "row_ptr")?;
        validate_indices(&col_idx, ncols, "col_idx")?;
        Ok(Csr { nrows, ncols, row_ptr, col_idx, values })
    }

    /// An empty `nrows x ncols` matrix.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Csr { nrows, ncols, row_ptr: vec![0; nrows + 1], col_idx: Vec::new(), values: Vec::new() }
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Nonzeros in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }

    /// Tolerance for holding row `r` of an f16 tensor-core result to the
    /// f64 oracle value `oracle` ([`Csr::spmv_f64`]): the f16 unit
    /// roundoff scaled by the row's accumulation length, relative for
    /// large values and absolute near zero. Every harness that checks
    /// served output against the oracle uses this one bound.
    pub fn oracle_tol(&self, row: usize, oracle: f64) -> f64 {
        let row_nnz = (self.row_ptr[row + 1] - self.row_ptr[row]) as f64;
        (2.0f64.powi(-10) * 3.0 * row_nnz.max(1.0) + 1e-4) * oracle.abs().max(1.0)
    }

    /// The first row where a served `y` strays from the f64 oracle
    /// `A·x` ([`Csr::spmv_f64`]) by more than [`Csr::oracle_tol`], as
    /// `(row, y[row], oracle[row])`; `None` when every row is within
    /// tolerance. Fails only when `x` does not have `ncols` entries.
    pub fn oracle_miss(&self, x: &[f32], y: &[f32]) -> SparseResult<Option<(usize, f32, f64)>> {
        let oracle = self.spmv_f64(x)?;
        Ok(y.iter()
            .zip(&oracle)
            .enumerate()
            .find(|(r, (a, e))| ((**a as f64) - **e).abs() > self.oracle_tol(*r, **e))
            .map(|(r, (a, e))| (r, *a, *e)))
    }

    /// (column, value) slice pair for row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Mean nonzeros per row (the paper's `nnz/nrow` selection criterion).
    pub fn mean_degree(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.nrows as f64
        }
    }

    /// Standard CSR SpMV, Algorithm 1 of the paper (serial).
    pub fn spmv(&self, x: &[f32]) -> SparseResult<Vec<f32>> {
        self.check_x(x)?;
        let mut y = vec![0.0f32; self.nrows];
        self.spmv_into(x, &mut y);
        Ok(y)
    }

    /// Algorithm 1 into a caller-provided output buffer.
    pub fn spmv_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(y.len(), self.nrows);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0f32;
            for (c, v) in cols.iter().zip(vals) {
                acc += v * x[*c as usize];
            }
            y[i] = acc;
        }
    }

    /// Row-parallel SpMV — "CSR SpMV can be easily parallelized by rows"
    /// (Section 2.1). Bit-identical to the serial kernel because each row
    /// accumulates independently in the same order.
    pub fn spmv_par(&self, x: &[f32]) -> SparseResult<Vec<f32>> {
        self.check_x(x)?;
        let y = crate::par::map_indexed(self.nrows, |i| {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0f32;
            for (c, v) in cols.iter().zip(vals) {
                acc += v * x[*c as usize];
            }
            acc
        });
        Ok(y)
    }

    /// High-precision oracle SpMV accumulating in `f64`.
    pub fn spmv_f64(&self, x: &[f32]) -> SparseResult<Vec<f64>> {
        self.check_x(x)?;
        let mut y = vec![0.0f64; self.nrows];
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0f64;
            for (c, v) in cols.iter().zip(vals) {
                acc += *v as f64 * x[*c as usize] as f64;
            }
            y[i] = acc;
        }
        Ok(y)
    }

    fn check_x(&self, x: &[f32]) -> SparseResult<()> {
        if x.len() != self.ncols {
            return Err(SparseError::ShapeMismatch {
                what: format!("x.len() = {}, ncols = {}", x.len(), self.ncols),
            });
        }
        Ok(())
    }

    /// Converts to COO triplets.
    pub fn to_coo(&self) -> Coo {
        let mut rows = Vec::with_capacity(self.nnz());
        for r in 0..self.nrows {
            rows.extend(std::iter::repeat_n(r as u32, self.row_nnz(r)));
        }
        Coo {
            nrows: self.nrows,
            ncols: self.ncols,
            rows,
            cols: self.col_idx.clone(),
            values: self.values.clone(),
        }
    }

    /// Transpose (used by pull-style baselines). Sorted column indices in,
    /// sorted row indices out.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0u32; self.ncols];
        for &c in &self.col_idx {
            counts[c as usize] += 1;
        }
        let row_ptr = crate::scan::exclusive_scan(&counts);
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                let dst = cursor[*c as usize] as usize;
                col_idx[dst] = r as u32;
                values[dst] = *v;
                cursor[*c as usize] += 1;
            }
        }
        Csr { nrows: self.ncols, ncols: self.nrows, row_ptr, col_idx, values }
    }

    /// Host-side memory footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.row_ptr.len() * 4 + self.col_idx.len() * 4 + self.values.len() * 4
    }

    /// Verifies every structural invariant the kernels rely on: `row_ptr`
    /// has `nrows + 1` monotone entries starting at 0 and ending at nnz,
    /// `col_idx` and `values` agree in length, every column index is in
    /// bounds, and columns are strictly increasing within each row (sorted,
    /// no duplicates). Mirrors `BitCoo::validate`; the serving layer calls
    /// this at ingress so malformed matrices are rejected with a typed
    /// error before any engine prepares them.
    pub fn validate(&self) -> SparseResult<()> {
        if self.row_ptr.len() != self.nrows + 1 {
            return Err(SparseError::LengthMismatch {
                what: format!(
                    "row_ptr.len() = {}, expected nrows + 1 = {}",
                    self.row_ptr.len(),
                    self.nrows + 1
                ),
            });
        }
        if self.col_idx.len() != self.values.len() {
            return Err(SparseError::LengthMismatch {
                what: format!(
                    "col_idx ({}) vs values ({})",
                    self.col_idx.len(),
                    self.values.len()
                ),
            });
        }
        validate_offsets(&self.row_ptr, self.nnz(), "row_ptr")?;
        validate_indices(&self.col_idx, self.ncols, "col_idx")?;
        for r in 0..self.nrows {
            let (cols, _) = self.row(r);
            if let Some(w) = cols.windows(2).find(|w| w[0] >= w[1]) {
                return Err(SparseError::MalformedOffsets {
                    what: format!(
                        "row {r}: column indices not strictly increasing ({} then {})",
                        w[0], w[1]
                    ),
                });
            }
        }
        Ok(())
    }

    /// True if column indices are sorted (strictly increasing) in each row.
    pub fn has_sorted_rows(&self) -> bool {
        (0..self.nrows).all(|r| self.row(r).0.windows(2).all(|w| w[0] < w[1]))
    }

    /// Densifies into row-major `nrows * ncols` (testing aid; panics on
    /// matrices too large to densify).
    pub fn to_dense(&self) -> Vec<f32> {
        let mut d = vec![0.0f32; self.nrows * self.ncols];
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                d[r * self.ncols + *c as usize] = *v;
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        Csr::new(3, 3, vec![0, 2, 2, 4], vec![0, 2, 0, 1], vec![1.0, 2.0, 3.0, 4.0]).unwrap()
    }

    #[test]
    fn oracle_tol_scales_with_row_length_and_magnitude() {
        let m = small();
        let unit = 2.0f64.powi(-10) * 3.0;
        // An empty row accumulates nothing but is still held to one
        // entry's roundoff plus the absolute floor.
        assert_eq!(m.oracle_tol(1, 0.0), unit + 1e-4);
        assert_eq!(m.oracle_tol(1, 0.5), unit + 1e-4);
        // A 2-nnz row: twice the roundoff, relative above |oracle| = 1.
        assert_eq!(m.oracle_tol(2, -8.0), (unit * 2.0 + 1e-4) * 8.0);
    }

    #[test]
    fn oracle_miss_names_the_first_row_outside_tolerance() {
        let m = small();
        let x = [1.0, 0.5, -1.0];
        // A·x = [-1, 0, 5].
        assert_eq!(m.oracle_miss(&x, &[-1.0, 0.0, 5.0]).unwrap(), None);
        assert_eq!(m.oracle_miss(&x, &[-1.0, 0.0, 5.003]).unwrap(), None, "within tolerance");
        assert_eq!(m.oracle_miss(&x, &[-1.0, 0.01, 6.0]).unwrap(), Some((1, 0.01, 0.0)));
        assert_eq!(m.oracle_miss(&x, &[-1.0, 0.0, 6.0]).unwrap(), Some((2, 6.0, 5.0)));
        assert!(m.oracle_miss(&x[..2], &[0.0; 3]).is_err(), "x shape is checked");
    }

    #[test]
    fn construction_validates() {
        assert!(Csr::new(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err(), "short row_ptr");
        assert!(Csr::new(2, 2, vec![0, 1, 1], vec![5], vec![1.0]).is_err(), "col oob");
        assert!(Csr::new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err(), "non-monotone");
    }

    #[test]
    fn spmv_algorithm1() {
        let y = small().spmv(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![7.0, 0.0, 11.0]);
    }

    #[test]
    fn spmv_parallel_matches_serial() {
        let m = crate::gen::random_uniform(257, 123, 2000, 42);
        let x: Vec<f32> = (0..123).map(|i| (i as f32).sin()).collect();
        assert_eq!(m.spmv(&x).unwrap(), m.spmv_par(&x).unwrap());
    }

    #[test]
    fn transpose_involution() {
        let m = crate::gen::random_uniform(64, 80, 500, 7);
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
    }

    #[test]
    fn transpose_spmv_consistency() {
        // y = A x  and  z = A^T w  satisfy  w.y == x.z (adjoint identity).
        let m = crate::gen::random_uniform(40, 30, 300, 9);
        let x: Vec<f32> = (0..30).map(|i| (i as f32 * 0.1).cos()).collect();
        let w: Vec<f32> = (0..40).map(|i| (i as f32 * 0.2).sin()).collect();
        let y = m.spmv_f64(&x).unwrap();
        let z = m.transpose().spmv_f64(&w).unwrap();
        let wy: f64 = w.iter().zip(&y).map(|(a, b)| *a as f64 * b).sum();
        let xz: f64 = x.iter().zip(&z).map(|(a, b)| *a as f64 * b).sum();
        assert!((wy - xz).abs() < 1e-3 * wy.abs().max(1.0));
    }

    #[test]
    fn coo_roundtrip() {
        let m = small();
        assert_eq!(m.to_coo().to_csr(), m);
    }

    #[test]
    fn row_accessors() {
        let m = small();
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row(2), (&[0u32, 1][..], &[3.0f32, 4.0][..]));
        assert!((m.mean_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dense_matches() {
        let d = small().to_dense();
        assert_eq!(d, vec![1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0, 4.0, 0.0]);
    }

    #[test]
    fn empty_matrix() {
        let m = Csr::empty(5, 5);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.spmv(&[1.0; 5]).unwrap(), vec![0.0; 5]);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn sorted_rows_detected() {
        assert!(small().has_sorted_rows());
        let unsorted =
            Csr { nrows: 1, ncols: 3, row_ptr: vec![0, 2], col_idx: vec![2, 0], values: vec![1.0, 2.0] };
        assert!(!unsorted.has_sorted_rows());
    }

    #[test]
    fn validate_catches_every_malformation() {
        assert!(small().validate().is_ok());
        // Unsorted columns within a row.
        let unsorted =
            Csr { nrows: 1, ncols: 3, row_ptr: vec![0, 2], col_idx: vec![2, 0], values: vec![1.0, 2.0] };
        assert!(unsorted.validate().is_err());
        // Duplicate column within a row.
        let dup =
            Csr { nrows: 1, ncols: 3, row_ptr: vec![0, 2], col_idx: vec![1, 1], values: vec![1.0, 2.0] };
        assert!(dup.validate().is_err());
        // col_idx / values length disagreement.
        let lens =
            Csr { nrows: 1, ncols: 3, row_ptr: vec![0, 1], col_idx: vec![0], values: vec![1.0, 2.0] };
        assert!(lens.validate().is_err());
        // Non-monotone row_ptr.
        let ptr =
            Csr { nrows: 2, ncols: 3, row_ptr: vec![0, 2, 1], col_idx: vec![0, 1], values: vec![1.0, 2.0] };
        assert!(ptr.validate().is_err());
        // Out-of-bounds column.
        let oob =
            Csr { nrows: 1, ncols: 2, row_ptr: vec![0, 1], col_idx: vec![5], values: vec![1.0] };
        assert!(oob.validate().is_err());
    }
}
