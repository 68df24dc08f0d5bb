//! Exactness of the parallel GEMMs on every dispatchable microkernel,
//! with the work genuinely split.
//!
//! The vendored rayon caches its worker count on first use, so this
//! binary holds a single test that sets `RAYON_NUM_THREADS=4` before
//! any parallel call; a single-core host would otherwise take the
//! serial fallback and leave the split untested. Every shape clears the
//! parallel threshold with a ragged row count and a width that is not a
//! multiple of the 8-column block, and every product is checked
//! serial == parallel == oracle, bare and with the fused requant
//! epilogue.
//!
//! Off the tiles, the rows split into one band per worker: 50 rows into
//! bands of 13, 13, 13 and 11, none a multiple of the 3-row VNNI tile.
//! On the AMX tiles the columns split instead: the activations are
//! interleaved once, each task sweeps every row against the 32-column
//! strips of its 128-column chunk, and the columns past the last whole
//! strip run on the calling thread. Width 917 makes seven whole chunks,
//! more than the four workers, and 21 trailing columns (two VNNI blocks
//! and a 5-column scalar tail); width 181 ends in a 32-column chunk. The
//! row counts cover one 16-row group (16), a ragged second group (17),
//! an odd third group (33), ragged pairs (50, 70) and many pairs (150).
//! Those shapes run on the AMX kernel and the host's default kernel, the
//! first on every ISA.

use protea::fixed::{QFormat, Requantizer, Rounding};
use protea::tensor::{
    force_kernel, matmul_i8_i32, matmul_i8_i32_packed, matmul_i8_i32_packed_parallel,
    matmul_i8_packed_requant, matmul_i8_packed_requant_parallel, supported_kernels, KernelIsa,
    Matrix, PackedWeights, RequantEpilogue,
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

    let mut tile_isas = vec![KernelIsa::Amx, KernelIsa::detect()];
    tile_isas.retain(|isa| isa.is_supported());
    tile_isas.dedup();
    let shapes = [
        ((50, 384, 917), supported_kernels()),
        ((16, 64, 917), tile_isas.clone()),
        ((17, 128, 917), tile_isas.clone()),
        ((33, 192, 181), tile_isas.clone()),
        ((70, 384, 917), tile_isas.clone()),
        ((150, 64, 917), tile_isas),
    ];
    for ((m, k, n), isas) in shapes {
        assert!(m * k * n >= 1 << 19, "shape must clear the parallel threshold");
        check_kernels(m, k, n, isas);
    }
}

fn check_kernels(m: usize, k: usize, n: usize, isas: Vec<KernelIsa>) {
    let a = mat(m, k, 3);
    let w = mat(k, n, 7);
    let packed = PackedWeights::pack(&w);
    let want = matmul_i8_i32(&a, &w);
    let rq = Requantizer::new(9, QFormat::new(8, 5), Rounding::NearestEven);
    let bias: Vec<i32> = (0..n as i32).map(|j| (j - 60) * 513).collect();
    let epi = RequantEpilogue::new(rq.lanes()).with_bias(&bias);
    let want8 = epi.apply_matrix(&want);

    for isa in isas {
        force_kernel(Some(isa));
        let serial = matmul_i8_i32_packed(&a, &packed);
        let shape = format!("{m}x{k}x{n} on {isa}");
        assert_eq!(serial.as_slice(), want.as_slice(), "serial {shape}");
        assert_eq!(
            matmul_i8_i32_packed_parallel(&a, &packed).as_slice(),
            want.as_slice(),
            "parallel {shape}"
        );
        assert_eq!(
            matmul_i8_packed_requant_parallel(&a, &packed, &epi).as_slice(),
            want8.as_slice(),
            "requant parallel {shape}"
        );
        assert_eq!(
            matmul_i8_packed_requant(&a, &packed, &epi).as_slice(),
            want8.as_slice(),
            "requant serial {shape}"
        );
    }
    force_kernel(None);
}
