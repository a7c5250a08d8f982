//! Row-major dense matrix used for embedding tables and MLP weights.
//!
//! The performance-critical operation for link-prediction evaluation is
//! "score one query against every entity", which is a GEMV against the
//! entity-embedding table; [`Mat::gemv`] implements it with simple blocked
//! loops that the compiler auto-vectorizes in release builds.

use serde::{Deserialize, Serialize};

/// A dense row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Matrix filled with `v`.
    pub fn filled(rows: usize, cols: usize, v: f32) -> Self {
        Mat { rows, cols, data: vec![v; rows * cols] }
    }

    /// Build from an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "Mat::from_vec: size mismatch");
        Mat { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows, "row {} out of bounds ({} rows)", r, self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows, "row {} out of bounds ({} rows)", r, self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Whole backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Whole backing buffer, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Set every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        for v in &mut self.data {
            *v = 0.0;
        }
    }

    /// `out = self * x` (matrix-vector product): one
    /// [`crate::vecops::dot`] chain per row. `out` must have `rows` entries
    /// and `x` must have `cols` entries.
    pub fn gemv(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "gemv: x length mismatch");
        assert_eq!(out.len(), self.rows, "gemv: out length mismatch");
        // Four rows' chains interleaved, each in `dot`'s order: one chain
        // waits on FMA latency, four keep the FMA pipes busy.
        fused!({
            let full = self.rows - self.rows % 4;
            for r in (0..full).step_by(4) {
                let rows: [&[f32]; 4] = std::array::from_fn(|u| self.row(r + u));
                let mut acc = [0.0f32; 4];
                for (c, &xc) in x.iter().enumerate() {
                    for u in 0..4 {
                        acc[u] = rows[u][c].mul_add(xc, acc[u]);
                    }
                }
                out[r..r + 4].copy_from_slice(&acc);
            }
            for r in full..self.rows {
                out[r] = crate::vecops::dot_chain(self.row(r), x);
            }
        })
    }

    /// `out = selfᵀ * x` (transposed matrix-vector product): `out` zeroed,
    /// then one [`crate::vecops::axpy`] per row, rows ascending. `out` must
    /// have `cols` entries and `x` must have `rows` entries.
    pub fn gemv_t(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "gemv_t: x length mismatch");
        assert_eq!(out.len(), self.cols, "gemv_t: out length mismatch");
        crate::vecops::zero(out);
        fused!(for r in 0..self.rows {
            crate::vecops::axpy_chain(x[r], self.row(r), out);
        })
    }

    /// Rank-1 update `self += alpha * u vᵀ` (outer-product accumulate), used
    /// by MLP weight gradients: row `r` gets [`crate::vecops::axpy`] of
    /// `alpha · u_r` and `v`. A sum of such updates over the same matrix
    /// is one [`crate::gemm::rank_update_with`].
    pub fn ger(&mut self, alpha: f32, u: &[f32], v: &[f32]) {
        assert_eq!(u.len(), self.rows, "ger: u length mismatch");
        assert_eq!(v.len(), self.cols, "ger: v length mismatch");
        fused!(for r in 0..self.rows {
            crate::vecops::axpy_chain(alpha * u[r], v, self.row_mut(r));
        })
    }

    /// Dense `self * other` producing a fresh matrix. Only used in tests and
    /// small predictor paths; the training and ranking loops run the blocked
    /// kernels of [`crate::gemm`] instead.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "matmul: inner dimension mismatch");
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    let cur = out.get(i, j);
                    out.set(i, j, cur + a * other.get(k, j));
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Mat::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn row_views_are_disjoint_slices() {
        let mut m = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        m.row_mut(1)[0] = 9.0;
        assert_eq!(m.get(1, 0), 9.0);
    }

    #[test]
    fn gemv_matches_manual() {
        let m = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = [0.0; 2];
        m.gemv(&[1.0, 1.0, 1.0], &mut out);
        assert_eq!(out, [6.0, 15.0]);
    }

    #[test]
    fn gemv_t_matches_transpose_gemv() {
        let m = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = m.transposed();
        let x = [1.0, -2.0];
        let mut a = [0.0; 3];
        let mut b = [0.0; 3];
        m.gemv_t(&x, &mut a);
        t.gemv(&x, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn ger_rank_one_update() {
        let mut m = Mat::zeros(2, 2);
        m.ger(2.0, &[1.0, 3.0], &[4.0, 5.0]);
        assert_eq!(m.as_slice(), &[8.0, 10.0, 24.0, 30.0]);
    }

    #[test]
    fn matmul_identity() {
        let m = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let id = Mat::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(m.matmul(&id), m);
        assert_eq!(id.matmul(&m), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Mat::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    #[should_panic(expected = "gemv: x length mismatch")]
    fn gemv_length_mismatch_panics() {
        let m = Mat::zeros(2, 3);
        let mut out = [0.0; 2];
        m.gemv(&[1.0], &mut out);
    }
}
