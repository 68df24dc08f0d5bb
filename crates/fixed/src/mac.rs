//! Multiply-accumulate kernels — the PE datapath.
//!
//! Each ProTEA processing element is one DSP48 doing `acc += a * b` per
//! cycle on 8-bit operands. An engine's unrolled inner loop is a *row* of
//! PEs reducing in parallel. These kernels are the bit-exact software
//! equivalent: i8×i8 products accumulated in i32 (order-independent because
//! integer addition is associative — the property tests check permutation
//! invariance, something float kernels cannot offer).

/// The one i8 MAC step in the workspace: `acc + a·b` widened to i32.
///
/// Every i8 reduction — [`dot_i8`], [`dot_i8_unrolled`], [`axpy_i8`], the
/// tensor crate's GEMM kernels — routes its inner multiply-accumulate
/// through this function, so the PE datapath has exactly one software
/// definition that cannot drift between kernels.
#[inline(always)]
#[must_use]
pub fn mac_i8(acc: i32, a: i8, b: i8) -> i32 {
    acc + i32::from(a) * i32::from(b)
}

/// One accumulator lane of the reduction: the partial sum over indices
/// `i ≡ lane (mod stride)` — the shape an HLS `#pragma HLS unroll`
/// carves the loop into. `stride = 1` is the whole dot product.
#[inline]
fn lane_dot_i8(a: &[i8], b: &[i8], lane: usize, stride: usize) -> i32 {
    a.iter().zip(b.iter()).skip(lane).step_by(stride).fold(0i32, |acc, (&x, &y)| mac_i8(acc, x, y))
}

/// Dot product of two i8 slices accumulated exactly in i32.
///
/// The maximum magnitude is `len · 128 · 128`; callers keep `len < 2^17`
/// (true for every trip count in this design, max `4·d_model = 3072`) so
/// the accumulation cannot overflow i32. Debug builds assert this.
#[must_use]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot operands must have equal length");
    debug_assert!(a.len() < (1 << 17), "dot length {} risks i32 overflow", a.len());
    lane_dot_i8(a, b, 0, 1)
}

/// Dot product with an explicit unroll factor, mirroring how the HLS
/// `#pragma HLS unroll` splits the reduction into `unroll` parallel
/// accumulator chains that are summed at the end.
///
/// The result is identical to [`dot_i8`] (integer addition is associative);
/// both are sums of `lane_dot_i8` partial reductions over the same MAC
/// step, differing only in how the index space is carved into lanes.
#[must_use]
pub fn dot_i8_unrolled(a: &[i8], b: &[i8], unroll: usize) -> i32 {
    assert_eq!(a.len(), b.len());
    let unroll = unroll.max(1).min(a.len().max(1));
    (0..unroll).map(|lane| lane_dot_i8(a, b, lane, unroll)).sum()
}

/// Scaled row update `acc[j] += x · w[j]` — the packed GEMM microkernel's
/// inner loop (one input scalar against a resident weight row, exactly a
/// PE row firing in lockstep). Skips `x == 0` outright: adding zero is
/// the identity, so the skip cannot change any result, and zero
/// activations (ReLU outputs, batch padding rows) are common.
pub fn axpy_i8(acc: &mut [i32], x: i8, w: &[i8]) {
    assert_eq!(acc.len(), w.len(), "axpy operands must have equal length");
    if x == 0 {
        return;
    }
    for (a, &b) in acc.iter_mut().zip(w.iter()) {
        *a = mac_i8(*a, x, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_reference() {
        let a = [1i8, -2, 3, -4];
        let b = [5i8, 6, -7, 8];
        assert_eq!(dot_i8(&a, &b), 5 - 12 - 21 - 32);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot_i8(&[], &[]), 0);
    }

    #[test]
    fn dot_extreme_values_no_overflow() {
        let a = vec![i8::MIN; 3072];
        let b = vec![i8::MIN; 3072];
        assert_eq!(dot_i8(&a, &b), 3072 * 128 * 128);
    }

    #[test]
    fn unrolled_equals_rolled() {
        let a: Vec<i8> = (0..97).map(|i| (i * 7 % 251) as i8).collect();
        let b: Vec<i8> = (0..97).map(|i| (i * 13 % 251) as i8).collect();
        let reference = dot_i8(&a, &b);
        for unroll in [1, 2, 3, 8, 16, 64, 97, 200] {
            assert_eq!(dot_i8_unrolled(&a, &b, unroll), reference, "unroll={unroll}");
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn dot_rejects_mismatched_lengths() {
        let _ = dot_i8(&[1, 2], &[1]);
    }

    #[test]
    fn axpy_matches_elementwise_reference() {
        let w = [3i8, -7, 11, 0, -128, 127];
        let mut acc = [10i32, -20, 30, -40, 50, -60];
        axpy_i8(&mut acc, -5, &w);
        let expect: Vec<i32> = [10i32, -20, 30, -40, 50, -60]
            .iter()
            .zip(w.iter())
            .map(|(&a, &b)| a + (-5i32) * i32::from(b))
            .collect();
        assert_eq!(acc.to_vec(), expect);
    }

    #[test]
    fn axpy_zero_scalar_is_identity() {
        let w = [1i8, 2, 3];
        let mut acc = [4i32, 5, 6];
        axpy_i8(&mut acc, 0, &w);
        assert_eq!(acc, [4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn axpy_rejects_mismatched_lengths() {
        axpy_i8(&mut [0i32; 2], 1, &[1i8; 3]);
    }
}
