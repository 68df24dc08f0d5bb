//! Multiply-accumulate kernels — the PE datapath.
//!
//! Each ProTEA processing element is one DSP48 doing `acc += a * b` per
//! cycle on 8-bit operands. An engine's unrolled inner loop is a *row* of
//! PEs reducing in parallel. These kernels are the bit-exact software
//! equivalent: i8×i8 products accumulated in i32 (order-independent because
//! integer addition is associative, something float kernels cannot offer).

/// The one i8 MAC step in the workspace: `acc + a·b` widened to i32.
///
/// [`axpy_i8`], the inner loop of the tensor crate's reference GEMM,
/// routes its multiply-accumulate through this function, so the PE
/// datapath has one software definition.
#[inline(always)]
#[must_use]
pub fn mac_i8(acc: i32, a: i8, b: i8) -> i32 {
    acc + i32::from(a) * i32::from(b)
}

/// Scaled row update `acc[j] += x · w[j]` — the reference GEMM's inner
/// loop (one input scalar against a resident weight row, exactly a PE
/// row firing in lockstep). Skips `x == 0` outright: adding zero is
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
