//! Exactness of the row-band parallel GEMMs on every dispatchable
//! microkernel, with the bands genuinely split.
//!
//! The vendored rayon caches its worker count on first use, so this
//! binary holds a single test that sets `RAYON_NUM_THREADS=4` before
//! any parallel call; a single-core host would otherwise take the
//! serial fallback and leave the band split untested. The shape clears
//! the 2²⁴-MAC parallel threshold with a ragged row count: four bands
//! of 13, 13, 13 and 11 rows, none a multiple of the 3-row VNNI tile,
//! and a width that is not a multiple of the 8-column block.

use protea::fixed::{QFormat, Requantizer, Rounding};
use protea::tensor::{
    force_kernel, matmul_i8_i32, matmul_i8_i32_packed, matmul_i8_i32_packed_parallel,
    matmul_i8_packed_requant, matmul_i8_packed_requant_parallel, supported_kernels, Matrix,
    PackedWeights, RequantEpilogue,
};

fn mat(rows: usize, cols: usize, salt: u64) -> Matrix<i8> {
    Matrix::from_fn(rows, cols, |r, c| {
        let v = (r as u64 * 131 + c as u64 * 29 + salt * 17) * 2_654_435_761;
        (v >> 24) as u8 as i8
    })
}

#[test]
fn parallel_bands_match_the_oracle_on_every_kernel() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
    assert_eq!(rayon::current_num_threads(), 4, "shim must honor RAYON_NUM_THREADS");

    let (m, k, n) = (50, 384, 917);
    assert!(m * k * n >= 1 << 24, "shape must clear the parallel threshold");
    let a = mat(m, k, 3);
    let w = mat(k, n, 7);
    let packed = PackedWeights::pack(&w);
    let want = matmul_i8_i32(&a, &w);
    let rq = Requantizer::new(9, QFormat::new(8, 5), Rounding::NearestEven);
    let bias: Vec<i32> = (0..n as i32).map(|j| (j - 60) * 513).collect();
    let epi = RequantEpilogue::new(rq.lanes()).with_bias(&bias);
    let want8 = epi.apply_matrix(&want);

    for isa in supported_kernels() {
        force_kernel(Some(isa));
        let serial = matmul_i8_i32_packed(&a, &packed);
        assert_eq!(serial.as_slice(), want.as_slice(), "serial on {isa}");
        assert_eq!(
            matmul_i8_i32_packed_parallel(&a, &packed).as_slice(),
            want.as_slice(),
            "parallel on {isa}"
        );
        assert_eq!(
            matmul_i8_packed_requant_parallel(&a, &packed, &epi).as_slice(),
            want8.as_slice(),
            "requant parallel on {isa}"
        );
        assert_eq!(
            matmul_i8_packed_requant(&a, &packed, &epi).as_slice(),
            want8.as_slice(),
            "requant serial on {isa}"
        );
    }
    force_kernel(None);
}
