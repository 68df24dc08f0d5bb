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
//!
//! The AMX tile kernel takes only bands of at least 16 rows at depths
//! that are multiples of 64, over whole 32-column blocks, so a second
//! grid reaches it: 16–48 rows (whole, ragged and odd counts of 16-row
//! groups), depths of one, two, 12 and 48 tile steps plus one the tiles
//! refuse (96), and widths that leave no tail, a scalar tail, a VNNI
//! block, and both. It runs on the AMX kernel and on the host's default
//! kernel, which the small grid already pins against every other ISA.
//! The epilogue closure runs between two tile blocks, so one test runs
//! a tile GEMM from inside it and requires the outer GEMM's later blocks
//! to be unharmed.
//!
//! On AMX the requantizing GEMMs narrow each accumulator tile inside the
//! tile kernel. A third grid pins that fused path, serial and in 32-row
//! bands (128 rows make four), element by element against `Requantizer::apply` and the activation
//! ROM over the naive accumulators: row counts of whole, ragged and odd
//! 16-row groups up to the encoder's 128, widths with and without a
//! column tail up to the FFN's 3072, three depths, and epilogues
//! without a bias, with one (some columns near `i32::MAX` and
//! `i32::MIN`, so the add saturates), with the ROM, and with a
//! pre-shift and the logit divisor.
//!
//! The encoder's heads zero-pad Q and K from `d_k` to a whole tile row
//! (`tile_depth`) so that Q·Kᵀ runs on the tiles. A fourth grid pins
//! that the padded product, through the logit epilogue, gives the
//! logits of the unpadded one: `d_k` of 32, 64, 96 and 128, 16–128
//! query rows against as many keys and against 128, serial and in
//! bands, on every tile ISA.

use std::cell::Cell;
use std::sync::Mutex;

use protea::fixed::activation::{Activation, ActivationLut};
use protea::fixed::{QFormat, Requantizer, Rounding};
use protea::model::quantized::LogitRequant;
use protea::model::{EncoderConfig, QuantSchedule};
use protea::tensor::kernels::tile_depth;
use protea::tensor::{
    force_kernel, matmul_i8_i32, matmul_i8_i32_packed, matmul_i8_i32_packed_parallel,
    matmul_i8_packed_epilogue, matmul_i8_packed_requant, matmul_i8_packed_requant_parallel,
    supported_kernels, transpose, KernelIsa, Matrix, PackedWeights, RequantEpilogue,
};

const DEPTHS: [usize; 9] = [0, 1, 63, 64, 65, 96, 127, 768, 3072];
const ROWS: [usize; 6] = [1, 2, 3, 4, 5, 7];
const WIDTHS: [usize; 5] = [1, 7, 8, 9, 17];

const TILE_ROWS: [usize; 6] = [16, 17, 31, 32, 33, 48];
const TILE_DEPTHS: [usize; 5] = [64, 96, 128, 768, 3072];
const TILE_WIDTHS: [usize; 5] = [32, 33, 40, 63, 96];

const FUSED_ROWS: [usize; 7] = [16, 17, 31, 32, 33, 48, 128];
const FUSED_DEPTHS: [usize; 3] = [64, 128, 768];
const FUSED_WIDTHS: [usize; 4] = [32, 40, 96, 3072];

const PAD_DEPTHS: [usize; 4] = [32, 64, 96, 128];
const PAD_ROWS: [usize; 8] = [16, 17, 31, 32, 33, 64, 96, 128];

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

/// Run `f` with the AMX kernel forced, then with the host's default
/// kernel, skipping either when unsupported or already run.
fn for_tile_isas(mut f: impl FnMut(KernelIsa)) {
    let _turn = FORCE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut isas = vec![KernelIsa::Amx, KernelIsa::detect()];
    isas.retain(|isa| isa.is_supported());
    isas.dedup();
    for isa in isas {
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
fn tile_shapes_match_the_oracle() {
    for_tile_isas(|isa| {
        for k in TILE_DEPTHS {
            // The shallow depths take the whole rows × widths grid; the
            // encoder depths pair each row count with one width.
            let pairs: Vec<(usize, usize)> = if k <= 128 {
                TILE_ROWS.iter().flat_map(|&m| TILE_WIDTHS.map(|n| (m, n))).collect()
            } else {
                TILE_ROWS.into_iter().zip(TILE_WIDTHS.into_iter().cycle()).collect()
            };
            for (m, n) in pairs {
                let w = mat(k, n, 4);
                assert_exact(&mat(m, k, 8), &w, &PackedWeights::pack(&w), isa);
            }
        }
    });
}

#[test]
fn fused_requant_tiles_match_the_per_element_oracle() {
    let rq = Requantizer::new(12, QFormat::new(8, 5), Rounding::NearestEven);
    let pre = Requantizer::new(9, QFormat::new(8, 4), Rounding::HalfUp).with_pre_shift(2);
    let gelu = ActivationLut::new(Activation::Gelu, QFormat::new(8, 5));
    for_tile_isas(|isa| {
        for k in FUSED_DEPTHS {
            for n in FUSED_WIDTHS {
                let w = mat(k, n, 3);
                let packed = PackedWeights::pack(&w);
                let bias: Vec<i32> = (0..n)
                    .map(|j| match j % 7 {
                        3 => i32::MAX - 9,
                        5 => i32::MIN + 9,
                        _ => (j as i32 - 20) * 4099,
                    })
                    .collect();
                for m in FUSED_ROWS {
                    let a = mat(m, k, 7);
                    let acc = matmul_i8_i32(&a, &w);
                    let check = |name: &str,
                                 epi: RequantEpilogue<'_>,
                                 f: &dyn Fn(usize, i32) -> i8| {
                        let want: Vec<i8> =
                            acc.as_slice().iter().enumerate().map(|(i, &v)| f(i % n, v)).collect();
                        let shape = format!("{name} {m}x{k}x{n} on {isa}");
                        let got = matmul_i8_packed_requant(&a, &packed, &epi);
                        assert_eq!(got.as_slice(), &want[..], "serial {shape}");
                        let got = matmul_i8_packed_requant_parallel(&a, &packed, &epi);
                        assert_eq!(got.as_slice(), &want[..], "parallel {shape}");
                    };
                    let biased = |j: usize, v: i32| v.saturating_add(bias[j]);
                    check("plain", RequantEpilogue::new(rq.lanes()), &|_, v| rq.apply(v));
                    check("bias", RequantEpilogue::new(rq.lanes()).with_bias(&bias), &|j, v| {
                        rq.apply(biased(j, v))
                    });
                    check(
                        "bias+rom",
                        RequantEpilogue::new(rq.lanes()).with_bias(&bias).with_activation(&gelu),
                        &|j, v| gelu.apply(rq.apply(biased(j, v))),
                    );
                    check(
                        "bias+div",
                        RequantEpilogue::new(pre.lanes().with_divisor(3)).with_bias(&bias),
                        &|j, v| pre.apply(biased(j, v) / 3),
                    );
                }
            }
        }
    });
}

#[test]
fn padded_depth_logits_match_the_unpadded_product() {
    let s = QuantSchedule::paper();
    for_tile_isas(|isa| {
        for dk in PAD_DEPTHS {
            let lr = LogitRequant::new(&EncoderConfig::new(8 * dk, 8, 1, 128), &s);
            let epi = RequantEpilogue::new(lr.lanes());
            let padded = dk.next_multiple_of(64);
            for m in PAD_ROWS {
                for n in [m, 128] {
                    let (q, k) = (mat(m, dk, 11), mat(n, dk, 12));
                    let want: Vec<i8> = matmul_i8_i32(&q, &transpose(&k))
                        .as_slice()
                        .iter()
                        .map(|&acc| lr.apply(acc))
                        .collect();
                    let tiles = isa == KernelIsa::Amx && m >= 16 && n >= 32;
                    let shape = format!("{m}x{dk}x{n} on {isa}");
                    assert_eq!(tile_depth(m, dk, n), if tiles { padded } else { dk }, "{shape}");
                    let qp = q.submatrix_padded(0, 0, m, dk, padded);
                    let kt =
                        PackedWeights::from_transpose(&k.submatrix_padded(0, 0, n, dk, padded));
                    let got = matmul_i8_packed_requant(&qp, &kt, &epi);
                    assert_eq!(got.as_slice(), &want[..], "serial {shape}");
                    let got = matmul_i8_packed_requant_parallel(&qp, &kt, &epi);
                    assert_eq!(got.as_slice(), &want[..], "parallel {shape}");
                }
            }
        }
    });
}

#[test]
fn tile_extremes_are_exact_at_ffn_depth() {
    // Every product (−128)·(−128): each i32 tile lane reaches its
    // largest magnitude, k·2¹⁴.
    let (m, k, n) = (33, 3072, 40);
    let a = Matrix::from_vec(m, k, vec![i8::MIN; m * k]);
    let w = Matrix::from_vec(k, n, vec![i8::MIN; k * n]);
    let packed = PackedWeights::pack(&w);
    for_tile_isas(|isa| {
        assert_exact(&a, &w, &packed, isa);
        let got = matmul_i8_i32_packed(&a, &packed);
        assert!(got.as_slice().iter().all(|&v| v == k as i32 * 128 * 128), "{isa}");
    });
}

#[test]
fn a_tile_gemm_inside_the_epilogue_leaves_the_outer_tiles_usable() {
    // Two 32-column tile blocks: the closure runs a whole tile GEMM,
    // which releases this thread's tiles, while the outer GEMM's first
    // block is stored and before its second is computed.
    let (a, w) = (mat(32, 128, 1), mat(128, 64, 2));
    let packed = PackedWeights::pack(&w);
    let (ia, iw) = (mat(16, 64, 3), mat(64, 32, 4));
    let inner = PackedWeights::pack(&iw);
    let narrow = |j: usize, acc: i32| (acc >> 12).wrapping_add(j as i32) as i8;
    let want: Vec<i8> = matmul_i8_i32(&a, &w)
        .as_slice()
        .iter()
        .enumerate()
        .map(|(i, &acc)| narrow(i % w.cols(), acc))
        .collect();
    for_tile_isas(|isa| {
        let nested = Cell::new(false);
        let got = matmul_i8_packed_epilogue(&a, &packed, |j, acc| {
            if !nested.replace(true) {
                let sums = matmul_i8_i32_packed(&ia, &inner);
                assert_eq!(sums.as_slice(), matmul_i8_i32(&ia, &iw).as_slice(), "inner on {isa}");
            }
            narrow(j, acc)
        });
        assert!(nested.get());
        assert_eq!(got.as_slice(), &want[..], "outer on {isa}");
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
