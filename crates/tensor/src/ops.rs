//! Elementwise and broadcast operations used around the matmul cores.

use crate::matrix::Matrix;

/// Transpose into a new matrix.
#[must_use]
pub fn transpose<T: Copy + Default>(m: &Matrix<T>) -> Matrix<T> {
    Matrix::from_fn(m.cols(), m.rows(), |r, c| m[(c, r)])
}

/// Add a bias row to every row of `m` in place (`m[r][c] += bias[c]`) —
/// the `+ B_q` in equation (2).
pub fn add_bias_row(m: &mut Matrix<f32>, bias: &[f32]) {
    assert_eq!(m.cols(), bias.len(), "bias length must equal column count");
    for r in 0..m.rows() {
        for (v, &b) in m.row_mut(r).iter_mut().zip(bias.iter()) {
            *v += b;
        }
    }
}

/// Residual connection: `out = a + b` elementwise (float path).
#[must_use]
pub fn residual_add(a: &Matrix<f32>, b: &Matrix<f32>) -> Matrix<f32> {
    assert_eq!(a.shape(), b.shape(), "residual shapes must match");
    Matrix::from_fn(a.rows(), a.cols(), |r, c| a[(r, c)] + b[(r, c)])
}

/// Maximum absolute value (for quantizer calibration). NaNs are skipped.
#[must_use]
pub fn max_abs(m: &Matrix<f32>) -> f32 {
    m.as_slice().iter().filter(|x| x.is_finite()).fold(0f32, |acc, &x| acc.max(x.abs()))
}

/// Mean squared error between two equally-shaped f32 matrices.
#[must_use]
pub fn mse(a: &Matrix<f32>, b: &Matrix<f32>) -> f64 {
    assert_eq!(a.shape(), b.shape());
    if a.is_empty() {
        return 0.0;
    }
    let sum: f64 = a
        .as_slice()
        .iter()
        .zip(b.as_slice().iter())
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum();
    sum / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 10 + c) as i32);
        let t = transpose(&m);
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t[(4, 2)], m[(2, 4)]);
        assert_eq!(transpose(&t).as_slice(), m.as_slice());
    }

    #[test]
    fn bias_broadcast() {
        let mut m = Matrix::from_fn(2, 3, |_, _| 1f32);
        add_bias_row(&mut m, &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[2.0, 3.0, 4.0]);
        assert_eq!(m.row(1), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn residual_adds() {
        let a = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(2, 2, |_, _| 1f32);
        let c = residual_add(&a, &b);
        assert_eq!(c[(1, 1)], 3.0);
    }

    #[test]
    fn max_abs_ignores_nan() {
        let m = Matrix::from_vec(1, 4, vec![1.0f32, -3.5, f32::NAN, 2.0]);
        assert_eq!(max_abs(&m), 3.5);
    }

    #[test]
    fn mse_zero_for_identical() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * c) as f32);
        assert_eq!(mse(&a, &a), 0.0);
        let empty = Matrix::<f32>::zeros(0, 3);
        assert_eq!(mse(&empty, &empty), 0.0);
    }
}
