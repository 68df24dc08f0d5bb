//! Exactness of every dispatchable GEMM microkernel against the naive
//! i8→i32 oracle.
//!
//! The packed GEMMs reach their output through whichever kernel the
//! host supports: widened-i16 `vpmaddwd`/`vmlal` kernels, the portable
//! fallback, or AVX-512 VNNI `vpdpbusd` on u8-biased activations with a
//! `128·colsum` correction per column. For every ISA in
//! [`supported_kernels`] these tests require the bytes of
//! [`matmul_i8_i32`] (and of [`RequantEpilogue::apply_matrix`] over it)
//! from the serial, parallel and fused entry points, over reduction
//! depths that straddle the 64-byte VNNI step (full steps, masked tails,
//! the empty reduction), row counts that straddle its 3-row register
//! tile, and widths that straddle the 8-column block. The bias trick's
//! extremes — activations biased to 0 and to 255 against weights of
//! −128 and 127 at the FFN depth — are pinned separately.

use std::sync::Mutex;

use protea::fixed::{QFormat, Requantizer, Rounding};
use protea::tensor::{
    force_kernel, matmul_i8_i32, matmul_i8_i32_packed, matmul_i8_i32_packed_parallel,
    matmul_i8_packed_requant, matmul_i8_packed_requant_parallel, supported_kernels, transpose,
    KernelIsa, Matrix, PackedWeights, RequantEpilogue,
};

const DEPTHS: [usize; 9] = [0, 1, 63, 64, 65, 96, 127, 768, 3072];
const ROWS: [usize; 6] = [1, 2, 3, 4, 5, 7];
const WIDTHS: [usize; 5] = [1, 7, 8, 9, 17];

/// `force_kernel` is process-wide; the tests in this binary take turns.
static FORCE: Mutex<()> = Mutex::new(());

/// Run `f` once per supported kernel ISA, with that ISA forced.
fn for_each_isa(mut f: impl FnMut(KernelIsa)) {
    let _turn = FORCE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for isa in supported_kernels() {
        force_kernel(Some(isa));
        f(isa);
    }
    force_kernel(None);
}

/// A deterministic matrix covering the whole i8 range.
fn mat(rows: usize, cols: usize, salt: u64) -> Matrix<i8> {
    Matrix::from_fn(rows, cols, |r, c| {
        let v = (r as u64 * 131 + c as u64 * 29 + salt * 17) * 2_654_435_761;
        (v >> 24) as u8 as i8
    })
}

/// Assert all four packed entry points reproduce the oracle on `a × w`.
fn assert_exact(a: &Matrix<i8>, w: &Matrix<i8>, packed: &PackedWeights, isa: KernelIsa) {
    let (m, k) = a.shape();
    let n = w.cols();
    let shape = format!("{m}x{k}x{n} on {isa}");
    let want = matmul_i8_i32(a, w);
    assert_eq!(matmul_i8_i32_packed(a, packed).as_slice(), want.as_slice(), "serial {shape}");
    assert_eq!(
        matmul_i8_i32_packed_parallel(a, packed).as_slice(),
        want.as_slice(),
        "parallel {shape}"
    );
    let rq = Requantizer::new(9, QFormat::new(8, 4), Rounding::NearestEven);
    let bias: Vec<i32> = (0..n as i32).map(|j| (j - 5) * 4099).collect();
    let epi = RequantEpilogue::new(rq.lanes()).with_bias(&bias);
    let want8 = epi.apply_matrix(&want);
    assert_eq!(
        matmul_i8_packed_requant(a, packed, &epi).as_slice(),
        want8.as_slice(),
        "requant {shape}"
    );
    assert_eq!(
        matmul_i8_packed_requant_parallel(a, packed, &epi).as_slice(),
        want8.as_slice(),
        "requant parallel {shape}"
    );
}

#[test]
fn every_kernel_matches_the_oracle_across_the_shape_grid() {
    for_each_isa(|isa| {
        for k in DEPTHS {
            for n in WIDTHS {
                let w = mat(k, n, 2);
                let packed = PackedWeights::pack(&w);
                for m in ROWS {
                    assert_exact(&mat(m, k, 1), &w, &packed, isa);
                }
            }
        }
    });
}

#[test]
fn bias_trick_extremes_are_exact_at_ffn_depth() {
    // Activation −128 biases to u8 0, 127 to 255; with weights at
    // either end every u8·i8 product sits at a corner of
    // [−32640, 32385] and the biased sum at its largest magnitude.
    let k = 3072;
    for_each_isa(|isa| {
        for x in [i8::MIN, i8::MAX] {
            for wv in [i8::MIN, i8::MAX] {
                let a = Matrix::from_vec(4, k, vec![x; 4 * k]);
                let w = Matrix::from_vec(k, 9, vec![wv; k * 9]);
                let packed = PackedWeights::pack(&w);
                assert_exact(&a, &w, &packed, isa);
                let want = k as i32 * i32::from(x) * i32::from(wv);
                assert!(matmul_i8_i32_packed(&a, &packed).as_slice().iter().all(|&v| v == want));
            }
        }
    });
}

#[test]
fn transposed_operands_carry_the_same_column_sums() {
    for (k, n) in [(0, 3), (1, 1), (65, 9), (96, 17), (768, 8)] {
        let w = mat(k, n, 5);
        let packed = PackedWeights::pack(&w);
        let from_t = PackedWeights::from_transpose(&transpose(&w));
        assert_eq!(from_t, packed, "{k}x{n}");
        assert_eq!(from_t.col_sums(), packed.col_sums(), "{k}x{n}");
        let sums: Vec<i32> = (0..n).map(|j| (0..k).map(|p| i32::from(w[(p, j)])).sum()).collect();
        assert_eq!(packed.col_sums(), &sums[..], "{k}x{n}");
        for_each_isa(|isa| {
            for m in [1, 3, 5] {
                assert_exact(&mat(m, k, 6), &w, &from_t, isa);
            }
        });
    }
}
