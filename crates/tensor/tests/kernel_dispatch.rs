//! Runtime kernel dispatch under forced multithreading.
//!
//! The host running CI may have a single core, which would let the
//! parallel GEMM silently fall back to the serial path and leave the
//! band split untested. This binary forces the vendored rayon
//! shim to 4 workers via `RAYON_NUM_THREADS` *before its first
//! parallel call* (the shim caches the thread count on first use, which
//! is why this lives in its own test binary with a single `#[test]`),
//! then drives every supported microkernel ISA through the serial,
//! parallel, fused and fused-checked entry points, requiring the
//! exact bytes of the naive oracle from all of them.

use protea_fixed::{QFormat, Requantizer, Rounding};
use protea_tensor::{
    force_kernel, matmul_i8_i32, matmul_i8_i32_packed, matmul_i8_i32_packed_parallel,
    matmul_i8_packed_epilogue_checked, matmul_i8_packed_requant, matmul_i8_packed_requant_parallel,
    supported_kernels, Matrix, PackedWeights, RequantEpilogue,
};

fn mat(rows: usize, cols: usize, salt: u64) -> Matrix<i8> {
    Matrix::from_fn(rows, cols, |r, c| {
        let v = (r as u64 * 67).wrapping_add(c as u64 * 19).wrapping_add(salt.wrapping_mul(13));
        ((v % 255) as i64 - 127) as i8
    })
}

#[test]
fn all_isas_agree_under_forced_parallelism() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
    assert!(rayon::current_num_threads() >= 4, "shim must honor RAYON_NUM_THREADS");

    // Big enough to clear the parallel threshold (2^24 MACs) so the
    // row bands genuinely split; m deliberately not a multiple of the 4 workers
    // (bands of 13, 13, 13, 11 rows, none a multiple of the 3-row VNNI
    // tile) and n not a multiple of the 8-column block.
    let (m, k, n) = (50, 384, 917);
    let a = mat(m, k, 3);
    let w = mat(k, n, 7);
    let packed = PackedWeights::pack(&w);
    let oracle = matmul_i8_i32(&a, &w);

    let rq = Requantizer::new(9, QFormat::new(8, 5), Rounding::NearestEven);
    let bias: Vec<i32> = (0..n as i32).map(|j| (j - 60) * 513).collect();
    let epi = RequantEpilogue::new(rq.lanes()).with_bias(&bias);
    let mut fused_want = vec![0i8; m * n];
    for r in 0..m {
        for c in 0..n {
            fused_want[r * n + c] = rq.apply(oracle[(r, c)].saturating_add(bias[c]));
        }
    }

    for isa in supported_kernels() {
        force_kernel(Some(isa));
        assert_eq!(
            matmul_i8_i32_packed(&a, &packed).as_slice(),
            oracle.as_slice(),
            "serial, kernel {isa}"
        );
        assert_eq!(
            matmul_i8_i32_packed_parallel(&a, &packed).as_slice(),
            oracle.as_slice(),
            "parallel, kernel {isa}"
        );
        assert_eq!(
            matmul_i8_packed_requant(&a, &packed, &epi).as_slice(),
            &fused_want[..],
            "fused serial, kernel {isa}"
        );
        assert_eq!(
            matmul_i8_packed_requant_parallel(&a, &packed, &epi).as_slice(),
            &fused_want[..],
            "fused parallel, kernel {isa}"
        );
        let checked = matmul_i8_packed_epilogue_checked(&a, &packed, |j, v| {
            rq.apply(v.saturating_add(bias[j]))
        })
        .unwrap_or_else(|e| panic!("ABFT must verify on clean GEMM, kernel {isa}: {e:?}"));
        assert_eq!(checked.as_slice(), &fused_want[..], "fused checked, kernel {isa}");
    }
    force_kernel(None);
}
