//! Reference matrix multiplication kernels.
//!
//! Two kernels with one contract: `C = A × B` for `A: m×k`, `B: k×n`.
//!
//! * [`matmul_naive`] — the f32 product of the float model (textbook
//!   triple loop).
//! * [`matmul_i8_i32`] — the hardware kernel: exact i8×i8→i32, the one the
//!   accelerator model must agree with bit-for-bit.

// The kernels below use indexed `p` loops on purpose: `p` strides two
// matrices at once, and the explicit index mirrors the k-ordering
// contract the doc comments promise.
#![allow(clippy::needless_range_loop)]

use crate::matrix::Matrix;
use protea_fixed::axpy_i8;

/// Textbook `m×k · k×n` in f32.
#[must_use]
pub fn matmul_naive(a: &Matrix<f32>, b: &Matrix<f32>) -> Matrix<f32> {
    check_shapes(a.shape(), b.shape());
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0f32;
            for p in 0..k {
                acc += a[(i, p)] * b[(p, j)];
            }
            c[(i, j)] = acc;
        }
    }
    c
}

/// The hardware kernel: exact i8 × i8 → i32 accumulation. Deterministic
/// and permutation-invariant (integer adds commute), so any tiled schedule
/// that covers the reduction space once must reproduce it exactly — the
/// property the accelerator equivalence tests rely on.
#[must_use]
pub fn matmul_i8_i32(a: &Matrix<i8>, b: &Matrix<i8>) -> Matrix<i32> {
    check_shapes(a.shape(), b.shape());
    let (m, _) = a.shape();
    let n = b.cols();
    let mut out = vec![0i32; m * n];
    if n > 0 {
        for (i, c_row) in out.chunks_exact_mut(n).enumerate() {
            i8_row_product(a, b, i, c_row);
        }
    }
    Matrix::from_vec(m, n, out)
}

/// One output row of the i8 product: `c_row += A[i] · B`, with the
/// zero-activation skip living in [`axpy_i8`].
fn i8_row_product(a: &Matrix<i8>, b: &Matrix<i8>, i: usize, c_row: &mut [i32]) {
    for (p, &av) in a.row(i).iter().enumerate() {
        axpy_i8(c_row, av, b.row(p));
    }
}

fn check_shapes((m, k): (usize, usize), (k2, n): (usize, usize)) {
    assert_eq!(k, k2, "inner dimensions must agree: {m}x{k} · {k2}x{n}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a_mat() -> Matrix<f32> {
        Matrix::from_fn(7, 5, |r, c| ((r * 31 + c * 7) % 13) as f32 - 6.0)
    }

    #[test]
    fn naive_known_product() {
        let a = Matrix::from_vec(2, 2, vec![1f32, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5f32, 6.0, 7.0, 8.0]);
        let c = matmul_naive(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn i8_kernel_exact() {
        let a = Matrix::from_fn(4, 6, |r, c| ((r * 47 + c * 31) % 255) as i8);
        let b = Matrix::from_fn(6, 3, |r, c| ((r * 29 + c * 13) % 255) as i8);
        let c = matmul_i8_i32(&a, &b);
        for i in 0..4 {
            for j in 0..3 {
                let expect: i32 = (0..6).map(|p| i32::from(a[(i, p)]) * i32::from(b[(p, j)])).sum();
                assert_eq!(c[(i, j)], expect);
            }
        }
    }

    #[test]
    fn i8_extreme_values() {
        let a = Matrix::from_vec(1, 3072, vec![i8::MIN; 3072]);
        let b = Matrix::from_vec(3072, 1, vec![i8::MIN; 3072]);
        let c = matmul_i8_i32(&a, &b);
        assert_eq!(c[(0, 0)], 3072 * 128 * 128);
    }

    #[test]
    fn identity_multiplication() {
        let a = a_mat();
        let eye = Matrix::from_fn(5, 5, |r, c| if r == c { 1f32 } else { 0.0 });
        let c = matmul_naive(&a, &eye);
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn degenerate_shapes() {
        let a = Matrix::<f32>::zeros(0, 4);
        let b = Matrix::<f32>::zeros(4, 3);
        assert_eq!(matmul_naive(&a, &b).shape(), (0, 3));
        let a2 = Matrix::<f32>::zeros(3, 0);
        let b2 = Matrix::<f32>::zeros(0, 2);
        let c = matmul_naive(&a2, &b2);
        assert_eq!(c.shape(), (3, 2));
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let _ = matmul_naive(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }
}
