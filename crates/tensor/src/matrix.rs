//! Row-major dense matrices.

use core::fmt;
use core::ops::{Index, IndexMut};

/// A row-major dense matrix.
///
/// Storage is a single `Vec<T>` of length `rows * cols`; element `(r, c)`
/// lives at `r * cols + c`. This is the layout ProTEA's AXI masters stream
/// from HBM, so tile extraction below maps directly onto burst reads.
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Matrix<T> {
    /// A `rows × cols` matrix filled with `T::default()`.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![T::default(); rows * cols] }
    }

    /// Build from a generator `f(row, col)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wrap an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must equal rows*cols");
        Self { rows, cols, data }
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

    /// `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The whole backing buffer, row-major.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable backing buffer.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    #[must_use]
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Elementwise map into a possibly different element type.
    #[must_use]
    pub fn map<U: Copy + Default>(&self, mut f: impl FnMut(T) -> U) -> Matrix<U> {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Extract the sub-matrix `[r0 .. r0+h) × [c0 .. c0+w)` into a new
    /// matrix (a tile load: what the DMA engine writes into a BRAM buffer).
    #[must_use]
    pub fn submatrix(&self, r0: usize, c0: usize, h: usize, w: usize) -> Matrix<T> {
        self.submatrix_padded(r0, c0, h, w, w)
    }

    /// The `h × w` tile at `(r0, c0)`, each row padded with
    /// `T::default()` to `width` columns.
    #[must_use]
    pub fn submatrix_padded(&self, r0: usize, c0: usize, h: usize, w: usize, width: usize) -> Self {
        assert!(r0 + h <= self.rows && c0 + w <= self.cols, "tile out of bounds");
        assert!(width >= w, "padded width below the tile width");
        let mut data = Vec::with_capacity(h * width);
        for r in r0..r0 + h {
            data.extend_from_slice(&self.data[r * self.cols + c0..r * self.cols + c0 + w]);
            data.resize(data.len() + width - w, T::default());
        }
        Matrix { rows: h, cols: width, data }
    }

    /// Write `tile` into this matrix at offset `(r0, c0)` (a tile
    /// write-back from an output buffer).
    pub fn write_submatrix(&mut self, r0: usize, c0: usize, tile: &Matrix<T>) {
        assert!(
            r0 + tile.rows <= self.rows && c0 + tile.cols <= self.cols,
            "tile write out of bounds"
        );
        for r in 0..tile.rows {
            let dst = (r0 + r) * self.cols + c0;
            self.data[dst..dst + tile.cols].copy_from_slice(tile.row(r));
        }
    }
}

impl<T: Copy + Default> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    fn index(&self, (r, c): (usize, usize)) -> &T {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl<T: Copy + Default> IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl<T: fmt::Debug + Copy + Default> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            let row = self.row(r);
            if self.cols <= 12 {
                writeln!(f, "  {row:?}")?;
            } else {
                writeln!(f, "  {:?} ...", &row[..12])?;
            }
        }
        if self.rows > show_rows {
            writeln!(f, "  ... ({} more rows)", self.rows - show_rows)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as i32);
        assert_eq!(m.as_slice(), &[0, 1, 2, 10, 11, 12]);
        assert_eq!(m[(1, 2)], 12);
    }

    #[test]
    fn row_access() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as i32);
        assert_eq!(m.row(1), &[4, 5, 6, 7]);
    }

    #[test]
    fn submatrix_round_trip() {
        let m = Matrix::from_fn(6, 8, |r, c| (r * 100 + c) as i32);
        let t = m.submatrix(2, 3, 3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t[(0, 0)], 203);
        assert_eq!(t[(2, 3)], 406);
        let mut dst = Matrix::<i32>::zeros(6, 8);
        dst.write_submatrix(2, 3, &t);
        assert_eq!(dst[(2, 3)], 203);
        assert_eq!(dst[(4, 6)], 406);
        assert_eq!(dst[(0, 0)], 0);
    }

    #[test]
    fn map_changes_type() {
        let m = Matrix::from_fn(2, 2, |r, c| (r + c) as i32);
        let f = m.map(|x| x as f32 * 0.5);
        assert_eq!(f[(1, 1)], 1.0);
    }

    #[test]
    fn zero_sized_matrices() {
        let m = Matrix::<f32>::zeros(0, 5);
        assert!(m.is_empty());
        assert_eq!(m.shape(), (0, 5));
        let n = Matrix::<f32>::zeros(5, 0);
        assert!(n.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn submatrix_oob_panics() {
        let m = Matrix::<i32>::zeros(4, 4);
        let _ = m.submatrix(2, 2, 3, 3);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 3, vec![0i32; 5]);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = Matrix::<i32>::zeros(2, 2);
        m.row_mut(1)[0] = 7;
        assert_eq!(m[(1, 0)], 7);
    }
}
