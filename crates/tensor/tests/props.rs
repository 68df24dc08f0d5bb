//! Property-based tests of the tensor layer.

use proptest::prelude::*;
use protea_fixed::{QFormat, Requantizer, Rounding};
use protea_tensor::ops::transpose;
use protea_tensor::{
    force_kernel, matmul_i8_i32, matmul_i8_i32_packed, matmul_i8_i32_packed_parallel,
    matmul_i8_packed_epilogue_checked, matmul_i8_packed_requant, matmul_i8_packed_requant_parallel,
    matmul_naive, supported_kernels, Matrix, PackedWeights, RequantEpilogue, TileGrid,
};

fn arb_matrix(max: usize) -> impl Strategy<Value = Matrix<i8>> {
    (1..=max, 1..=max, any::<u64>()).prop_map(|(r, c, seed)| {
        Matrix::from_fn(r, c, |i, j| {
            (seed.wrapping_mul(i as u64 + 3).wrapping_add(j as u64 * 7) % 255) as i8
        })
    })
}

proptest! {
    #[test]
    fn transpose_is_an_involution(m in arb_matrix(16)) {
        let back = transpose(&transpose(&m));
        prop_assert_eq!(back.as_slice(), m.as_slice());
        prop_assert_eq!(back.shape(), m.shape());
    }

    #[test]
    fn submatrix_write_read_inverse(
        m in arb_matrix(12), r0 in 0usize..6, c0 in 0usize..6
    ) {
        let r0 = r0.min(m.rows() - 1);
        let c0 = c0.min(m.cols() - 1);
        let h = m.rows() - r0;
        let w = m.cols() - c0;
        let tile = m.submatrix(r0, c0, h, w);
        let mut dst = Matrix::<i8>::zeros(m.rows(), m.cols());
        dst.write_submatrix(r0, c0, &tile);
        let read_back = dst.submatrix(r0, c0, h, w);
        prop_assert_eq!(read_back.as_slice(), tile.as_slice());
    }

    #[test]
    fn transpose_reverses_multiplication(
        a in arb_matrix(8), seed in any::<u64>()
    ) {
        // (A·B)ᵀ = Bᵀ·Aᵀ — exact in integer arithmetic.
        let b = Matrix::from_fn(a.cols(), 5, |i, j| {
            (seed.wrapping_mul(i as u64 + 11).wrapping_add(j as u64) % 255) as i8
        });
        let left = transpose(&matmul_i8_i32(&a, &b));
        let right_t = matmul_naive(
            &transpose(&b).map(f32::from),
            &transpose(&a).map(f32::from),
        );
        for i in 0..left.rows() {
            for j in 0..left.cols() {
                prop_assert_eq!(left[(i, j)], right_t[(i, j)] as i32);
            }
        }
    }

    #[test]
    fn tile_grid_count_matches_iteration(
        rows in 1usize..50, cols in 1usize..50, th in 1usize..9, tw in 1usize..9
    ) {
        let g = TileGrid::new(rows, cols, th, tw);
        prop_assert_eq!(g.tile_count(), g.iter().count());
        prop_assert_eq!(g.tile_count(), g.iter_col_major().count());
        // every tile index round-trips through tile()
        for t in g.iter() {
            let again = g.tile(t.tr, t.tc);
            prop_assert_eq!(t, again);
        }
    }

    #[test]
    fn packed_gemm_matches_naive_bitwise(
        a in arb_matrix(24), n in 1usize..24, seed in any::<u64>()
    ) {
        // The fast-backend contract: the dispatched packed kernel is
        // bit-identical to the hardware oracle for arbitrary shapes,
        // including ragged column blocks and k == 1 edges.
        let w = Matrix::from_fn(a.cols(), n, |i, j| {
            (seed.wrapping_mul(i as u64 + 11).wrapping_add(j as u64 * 3) % 255) as i8
        });
        let reference = matmul_i8_i32(&a, &w);
        let packed = PackedWeights::pack(&w);
        let serial = matmul_i8_i32_packed(&a, &packed);
        let parallel = matmul_i8_i32_packed_parallel(&a, &packed);
        prop_assert_eq!(serial.as_slice(), reference.as_slice());
        prop_assert_eq!(parallel.as_slice(), reference.as_slice());
    }

    #[test]
    fn fused_requant_epilogue_matches_separate_pass(
        a in arb_matrix(24), n in 1usize..24, seed in any::<u64>(),
        acc_frac in 0u8..=31, target_frac in 0u8..=31, pre_shift in 0u8..=12,
        mode in 0usize..3,
        use_bias in any::<bool>(),
    ) {
        // The fusion contract: requantizing whole strips in the
        // kernel's store loop is byte-for-byte the separate accumulate
        // → bias → per-element requant pipeline, for arbitrary shapes,
        // rounding modes, target formats (right and left shifts),
        // pre-shifts and bias vectors, on the serial and the
        // parallel path alike.
        let w = Matrix::from_fn(a.cols(), n, |i, j| {
            (seed.wrapping_mul(i as u64 + 17).wrapping_add(j as u64 * 29) % 255) as i8
        });
        let mode = [Rounding::Truncate, Rounding::HalfUp, Rounding::NearestEven][mode];
        let rq = Requantizer::new(acc_frac, QFormat::new(8, target_frac), mode)
            .with_pre_shift(pre_shift);
        let bias: Option<Vec<i32>> = use_bias.then(|| {
            (0..n).map(|j| ((seed.wrapping_add(j as u64) % 4001) as i32 - 2000) * 37).collect()
        });
        let packed = PackedWeights::pack(&w);
        let acc = matmul_i8_i32_packed(&a, &packed);
        let mut want = vec![0i8; a.rows() * n];
        for r in 0..a.rows() {
            for c in 0..n {
                let b = bias.as_ref().map_or(0, |b| b[c]);
                want[r * n + c] = rq.apply(acc[(r, c)].saturating_add(b));
            }
        }
        let mut epi = RequantEpilogue::new(rq.lanes());
        if let Some(b) = &bias {
            epi = epi.with_bias(b);
        }
        let fused = matmul_i8_packed_requant(&a, &packed, &epi);
        prop_assert_eq!(fused.as_slice(), &want[..]);
        let fused_par = matmul_i8_packed_requant_parallel(&a, &packed, &epi);
        prop_assert_eq!(fused_par.as_slice(), &want[..]);
        let checked = matmul_i8_packed_epilogue_checked(&a, &packed, |j, v| {
            let b = bias.as_ref().map_or(0, |b| b[j]);
            rq.apply(v.saturating_add(b))
        }).expect("clean GEMM verifies");
        prop_assert_eq!(checked.as_slice(), &want[..]);
    }

    #[test]
    fn every_supported_isa_is_bit_identical(
        a in arb_matrix(20), n in 1usize..20, seed in any::<u64>()
    ) {
        // The dispatch contract: every microkernel this host can run
        // (scalar, portable, explicit SIMD) produces the same bytes.
        let w = Matrix::from_fn(a.cols(), n, |i, j| {
            (seed.wrapping_mul(i as u64 + 23).wrapping_add(j as u64 * 41) % 255) as i8
        });
        let reference = matmul_i8_i32(&a, &w);
        let packed = PackedWeights::pack(&w);
        for isa in supported_kernels() {
            force_kernel(Some(isa));
            let out = matmul_i8_i32_packed(&a, &packed);
            force_kernel(None);
            prop_assert_eq!(out.as_slice(), reference.as_slice(), "kernel {}", isa);
        }
    }

    #[test]
    fn pack_from_transpose_agrees(a in arb_matrix(16), n in 1usize..16, seed in any::<u64>()) {
        // Packing W and packing Wᵀ-as-transpose reach the same bytes, so
        // the attention path (which packs Kᵀ straight from K's rows) is
        // the same kernel as the projection path.
        let w = Matrix::from_fn(a.cols(), n, |i, j| {
            (seed.wrapping_mul(i as u64 + 5).wrapping_add(j as u64 * 13) % 255) as i8
        });
        let direct = PackedWeights::pack(&w);
        let via_t = PackedWeights::from_transpose(&transpose(&w));
        prop_assert_eq!(&direct, &via_t);
        let fast = matmul_i8_i32_packed(&a, &direct);
        let oracle = matmul_i8_i32(&a, &w);
        prop_assert_eq!(fast.as_slice(), oracle.as_slice());
    }

    #[test]
    fn matmul_with_identity_is_identity(m in arb_matrix(10)) {
        let eye = Matrix::from_fn(m.cols(), m.cols(), |i, j| i8::from(i == j));
        let out = matmul_i8_i32(&m, &eye);
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                prop_assert_eq!(out[(i, j)], i32::from(m[(i, j)]));
            }
        }
    }
}
