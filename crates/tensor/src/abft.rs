//! ABFT (algorithm-based fault tolerance) checksums for the packed GEMM.
//!
//! For `C = A × W` the column checksum of `C` is predictable *without*
//! computing `C`: summing the defining equation over rows gives
//!
//! ```text
//! Σᵢ C[i][j] = Σᵢ Σₖ A[i][k]·W[k][j] = Σₖ (Σᵢ A[i][k]) · W[k][j]
//! ```
//!
//! i.e. the column sums of `C` equal the single-row product
//! `colsum(A) × W`; dually the row sums of `C` equal `A × rowsum(W)`.
//! Computing both predictions costs `O(m·k + k·n)` MACs and checking
//! them against the actual output costs `O(m·n)` additions — a relative
//! overhead of roughly `1/m + 1/n + 1/k` against the `O(m·k·n)` product
//! itself, which is why ABFT is the canonical silent-data-corruption
//! defense for GEMM-dominated accelerators (Huang & Abraham 1984).
//!
//! All checksums accumulate in `i64`: every `C` element is bounded by
//! `k·2¹⁴`, so even a full row/column sum of a transformer-sized output
//! stays far below `i64::MAX` and the arithmetic is exact.
//!
//! **Coverage boundary** (why the accelerator *also* keeps a weight
//! digest): a flip in `C` or in `A`'s datapath makes observed and
//! predicted sums disagree and is caught here. A flip in `W` is
//! invisible — the prediction is computed *from the same corrupted `W`*
//! and agrees with the corrupted output perfectly. Persistent weight
//! corruption must be caught by hashing the weight image itself
//! (`protea-core`'s word-lane weight digest); the test
//! `corrupt_weights_are_invisible_to_abft` pins this boundary.

use core::fmt;

use crate::matrix::Matrix;
use crate::pack::PackedWeights;

/// Row and column checksums of a GEMM output, exact in `i64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbftChecksums {
    /// `row[i] = Σⱼ C[i][j]` — one entry per output row.
    pub row: Vec<i64>,
    /// `col[j] = Σᵢ C[i][j]` — one entry per output column.
    pub col: Vec<i64>,
}

impl AbftChecksums {
    /// Predict the checksums of `C = A × W` from the inputs alone, in
    /// `O(m·k + k·n)` MACs.
    ///
    /// # Panics
    /// Panics if `A.cols() != W.rows()`.
    #[must_use]
    pub fn predicted(a: &Matrix<i8>, w: &PackedWeights) -> Self {
        let (m, k) = a.shape();
        let n = w.cols();
        assert_eq!(k, w.rows(), "inner dimensions must agree: {m}x{k} · {}x{n}", w.rows());
        // colsum_a[p] = Σᵢ A[i][p]; rowsum_w[p] = Σⱼ W[p][j].
        let mut colsum_a = vec![0i64; k];
        for i in 0..m {
            for (acc, &v) in colsum_a.iter_mut().zip(a.row(i)) {
                *acc += i64::from(v);
            }
        }
        let mut rowsum_w = vec![0i64; k];
        for j in 0..n {
            for (acc, &v) in rowsum_w.iter_mut().zip(w.col(j)) {
                *acc += i64::from(v);
            }
        }
        let row = (0..m)
            .map(|i| a.row(i).iter().zip(&rowsum_w).map(|(&x, &s)| i64::from(x) * s).sum())
            .collect();
        let col = (0..n)
            .map(|j| w.col(j).iter().zip(&colsum_a).map(|(&x, &s)| i64::from(x) * s).sum())
            .collect();
        Self { row, col }
    }

    /// Sum the actual output: `O(m·n)` additions.
    #[must_use]
    pub fn observed(c: &Matrix<i32>) -> Self {
        let (m, n) = c.shape();
        let mut col = vec![0i64; n];
        let row = (0..m)
            .map(|i| {
                let mut r = 0i64;
                for (acc, &v) in col.iter_mut().zip(c.row(i)) {
                    r += i64::from(v);
                    *acc += i64::from(v);
                }
                r
            })
            .collect();
        Self { row, col }
    }

    /// Compare predicted against observed checksums.
    ///
    /// # Errors
    /// An [`AbftMismatch`] locating the first disagreeing row and/or
    /// column sum. A single flipped output element perturbs exactly one
    /// row sum and one column sum, so the pair localizes it.
    pub fn verify(&self, observed: &Self) -> Result<(), AbftMismatch> {
        let row = self.row.iter().zip(&observed.row).position(|(p, o)| p != o);
        let col = self.col.iter().zip(&observed.col).position(|(p, o)| p != o);
        if row.is_none() && col.is_none() {
            Ok(())
        } else {
            Err(AbftMismatch { row, col })
        }
    }
}

/// A checksum disagreement: the first row and/or column whose sum
/// diverges from prediction. A single corrupted element shows up in
/// both; corruption confined to the prediction inputs may show in one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbftMismatch {
    /// First row index whose sum disagrees, if any.
    pub row: Option<usize>,
    /// First column index whose sum disagrees, if any.
    pub col: Option<usize>,
}

impl fmt::Display for AbftMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.row, self.col) {
            (Some(r), Some(c)) => write!(f, "ABFT checksum mismatch at row {r}, col {c}"),
            (Some(r), None) => write!(f, "ABFT row-checksum mismatch at row {r}"),
            (None, Some(c)) => write!(f, "ABFT col-checksum mismatch at col {c}"),
            (None, None) => f.write_str("ABFT checksums agree"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::matmul_i8_i32_packed;

    fn a_mat(m: usize, k: usize) -> Matrix<i8> {
        Matrix::from_fn(m, k, |r, c| (((r * 47 + c * 31) % 255) as i64 - 127) as i8)
    }

    fn w_mat(k: usize, n: usize) -> Matrix<i8> {
        Matrix::from_fn(k, n, |r, c| (((r * 29 + c * 13) % 255) as i64 - 127) as i8)
    }

    #[test]
    fn clean_gemm_verifies_across_shapes() {
        for (m, k, n) in [(17, 23, 13), (4, 64, 8), (1, 7, 1), (5, 1, 17), (8, 33, 16)] {
            let a = a_mat(m, k);
            let w = PackedWeights::pack(&w_mat(k, n));
            let c = matmul_i8_i32_packed(&a, &w);
            let predicted = AbftChecksums::predicted(&a, &w);
            assert_eq!(predicted.verify(&AbftChecksums::observed(&c)), Ok(()), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn extreme_values_verify_exactly() {
        // Worst-case magnitudes: every product is 128·128, k = 3072.
        let a = Matrix::from_vec(2, 3072, vec![i8::MIN; 2 * 3072]);
        let w = PackedWeights::pack(&Matrix::from_vec(3072, 2, vec![i8::MIN; 3072 * 2]));
        let c = matmul_i8_i32_packed(&a, &w);
        assert_eq!(AbftChecksums::predicted(&a, &w).verify(&AbftChecksums::observed(&c)), Ok(()));
    }

    #[test]
    fn flipped_output_element_is_detected_and_localized() {
        let a = a_mat(12, 20);
        let w = PackedWeights::pack(&w_mat(20, 9));
        let mut c = matmul_i8_i32_packed(&a, &w);
        let clean = AbftChecksums::predicted(&a, &w);
        assert_eq!(clean.verify(&AbftChecksums::observed(&c)), Ok(()));
        // Flip one bit of one element, as an SDC would.
        let (fr, fc) = (7, 4);
        c[(fr, fc)] ^= 1 << 13;
        let err = clean.verify(&AbftChecksums::observed(&c)).expect_err("flip must be caught");
        assert_eq!(err, AbftMismatch { row: Some(fr), col: Some(fc) });
        assert!(err.to_string().contains("row 7"));
    }

    #[test]
    fn corrupt_activations_are_detected() {
        let a = a_mat(8, 16);
        let w = PackedWeights::pack(&w_mat(16, 8));
        let clean = AbftChecksums::predicted(&a, &w);
        let mut bad_a = a.clone();
        bad_a[(3, 5)] ^= 0x40;
        let c_bad = matmul_i8_i32_packed(&bad_a, &w);
        // Prediction from the clean inputs disagrees with the corrupted
        // datapath's output.
        assert!(clean.verify(&AbftChecksums::observed(&c_bad)).is_err());
    }

    #[test]
    fn corrupt_weights_are_invisible_to_abft() {
        // The coverage boundary: when the *resident weights* are
        // corrupted, the prediction is computed from the same corrupt
        // image and agrees with the corrupt output — ABFT passes even
        // though the result is wrong. This is exactly why the
        // accelerator seals weights under a word-lane digest.
        let a = a_mat(8, 16);
        let mut w_bad = w_mat(16, 8);
        w_bad[(2, 3)] ^= 0x20;
        let packed_bad = PackedWeights::pack(&w_bad);
        let c_bad = matmul_i8_i32_packed(&a, &packed_bad);
        let predicted = AbftChecksums::predicted(&a, &packed_bad);
        assert_eq!(predicted.verify(&AbftChecksums::observed(&c_bad)), Ok(()));
        // ...yet the output differs from the true product.
        let w_good = PackedWeights::pack(&w_mat(16, 8));
        assert_ne!(c_bad.as_slice(), matmul_i8_i32_packed(&a, &w_good).as_slice());
    }

    #[test]
    fn degenerate_shapes_verify() {
        let a = Matrix::<i8>::zeros(0, 4);
        let w = PackedWeights::pack(&Matrix::<i8>::zeros(4, 3));
        let c = matmul_i8_i32_packed(&a, &w);
        assert_eq!(AbftChecksums::predicted(&a, &w).verify(&AbftChecksums::observed(&c)), Ok(()));
        let a2 = Matrix::<i8>::zeros(3, 0);
        let w2 = PackedWeights::pack(&Matrix::<i8>::zeros(0, 2));
        let c2 = matmul_i8_i32_packed(&a2, &w2);
        assert_eq!(
            AbftChecksums::predicted(&a2, &w2).verify(&AbftChecksums::observed(&c2)),
            Ok(())
        );
    }
}
