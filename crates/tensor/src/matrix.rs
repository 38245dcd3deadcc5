use std::fmt;
use std::ops::{Index, IndexMut};

use megablocks_exec::workspace::{self, Buffer};

use crate::ShapeError;

/// A dense, row-major `f32` matrix.
///
/// `Matrix` is the workhorse value type of the reproduction: activations,
/// weights, and gradients are all `Matrix` values. Storage is a single
/// contiguous buffer in row-major order, which keeps row slices cheap —
/// the access pattern every kernel in this workspace is built around.
///
/// Storage is a plain allocation, except for a matrix made by
/// [`Matrix::pooled_zeros`] or [`Matrix::pooled_copy`] (and the kernels
/// that build on them): its buffer came from the calling thread's
/// workspace arena and goes back there when the matrix is dropped.
///
/// # Example
///
/// ```
/// use megablocks_tensor::Matrix;
///
/// let mut m = Matrix::zeros(2, 2);
/// m[(0, 1)] = 3.0;
/// assert_eq!(m.row(0), &[0.0, 3.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Buffer,
}

impl Matrix {
    /// Creates a `rows` x `cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 0.0)
    }

    /// Creates a `rows` x `cols` matrix with every element set to `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols].into(),
        }
    }

    /// Creates a `rows` x `cols` matrix of zeros backed by the execution
    /// runtime's per-thread workspace arena, which gets the storage back
    /// when the matrix is dropped on this thread — so short-lived values
    /// (gradients, scratch) reuse storage across calls instead of
    /// round-tripping the allocator.
    pub fn pooled_zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: workspace::take_zeroed(rows * cols),
        }
    }

    /// A copy of this matrix in workspace-arena storage, like
    /// [`Matrix::pooled_zeros`].
    pub fn pooled_copy(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: workspace::take_copy(&self.data),
        }
    }

    /// Creates the `n` x `n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new(
                "Matrix::from_vec",
                format!(
                    "data length {} does not match {}x{} = {}",
                    data.len(),
                    rows,
                    cols,
                    rows * cols
                ),
            ));
        }
        Ok(Self {
            rows,
            cols,
            data: data.into(),
        })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self {
            rows,
            cols,
            data: data.into(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies the rows `range` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the number of rows.
    pub fn rows_range(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.rows,
            "invalid row range {start}..{end}"
        );
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols]
                .to_vec()
                .into(),
        }
    }

    /// Returns a new matrix that is the transpose of `self`.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise addition: `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Element-wise `self += alpha * other` (axpy).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for v in self.data.iter_mut() {
            *v *= alpha;
        }
    }

    /// Sets every element to zero without reallocating.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl FnMut(f32) -> f32) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// The largest absolute value in the matrix (0.0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// The Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// `true` if every corresponding element differs by at most `tol`.
    ///
    /// Shapes must match for the result to be `true`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Maximum elementwise absolute difference, or `f32::INFINITY` if the
    /// shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        if self.shape() != other.shape() {
            return f32::INFINITY;
        }
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()))
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows <= 8 && self.cols <= 8 {
            writeln!(f, " [")?;
            for i in 0..self.rows {
                writeln!(f, "  {:?}", self.row(i))?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn eye_is_identity_under_index() {
        let m = Matrix::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f32);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn rows_range_copies_expected_rows() {
        let m = Matrix::from_fn(4, 2, |i, _| i as f32);
        let sub = m.rows_range(1, 3);
        assert_eq!(sub.shape(), (2, 2));
        assert_eq!(sub.row(0), &[1.0, 1.0]);
        assert_eq!(sub.row(1), &[2.0, 2.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert!(a.approx_eq(&Matrix::full(2, 2, 2.0), 1e-6));
        a.scale(2.0);
        assert!(a.approx_eq(&Matrix::full(2, 2, 4.0), 1e-6));
    }

    #[test]
    fn max_abs_diff_reports_infinity_on_shape_mismatch() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert_eq!(a.max_abs_diff(&b), f32::INFINITY);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.row(2);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Matrix::default()).is_empty());
    }
}
