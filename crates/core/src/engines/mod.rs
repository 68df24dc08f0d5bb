//! The seven compute engines (Figs. 3 and 4).
//!
//! Every engine exposes two faces:
//!
//! * **functional** — bit-exact int8/int32 arithmetic on *tiles*,
//!   accumulating partial sums across tile iterations exactly as the
//!   hardware's intermediate buffers do ("the final output is the
//!   cumulative sum of the results computed across all tiles"), finishing
//!   through the same requantization stages as `protea-model`'s golden
//!   model;
//! * **timing** — an access plan: one [`Access`] per engine invocation
//!   (tile visit), carrying the weight bytes to stream and the compute
//!   cycles, consumed by the double-buffer scheduler.

pub mod ffn;
pub mod ln;
pub mod qk;
pub mod qkv;
pub mod softmax;
pub mod sv;

use protea_fixed::activation::ActivationLut;
use protea_fixed::{QFormat, Requantizer};
use protea_model::QuantSchedule;
use protea_tensor::{matmul_i8_packed_requant_parallel, Matrix, PackedWeights, RequantEpilogue};

/// One engine access: a tile's data movement and compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Weight/input bytes streamed from HBM for this access.
    pub load_bytes: u64,
    /// Compute cycles once the data is resident.
    pub compute_cycles: u64,
}

/// The requantizer a projection with weights in `weight_fmt` narrows
/// through: the accumulator holds `act_frac + weight_frac` fractional
/// bits and returns to the activation format.
#[must_use]
pub fn projection_requantizer(weight_fmt: QFormat, s: &QuantSchedule) -> Requantizer {
    Requantizer::new(s.act_fmt.frac_bits() + weight_fmt.frac_bits(), s.act_fmt, s.rounding)
}

/// A projection's whole narrowing stage — saturating bias add, then
/// [`projection_requantizer`] — as the strip epilogue every projection
/// path shares: fused into the GEMM ([`fused_projection`],
/// [`fused_projection_act`], which adds the activation ROM) or over a
/// materialized accumulator ([`finish_projection`]). One definition, so
/// the paths cannot drift from each other or from
/// `protea_model::quantized::project`.
#[must_use]
pub fn projection_epilogue<'a>(
    bias: &'a [i32],
    weight_fmt: QFormat,
    s: &QuantSchedule,
) -> RequantEpilogue<'a> {
    RequantEpilogue::new(projection_requantizer(weight_fmt, s).lanes()).with_bias(bias)
}

/// Finish a projection: [`projection_epilogue`] over the tile-summed
/// i32 accumulators — the identical tail to
/// `protea_model::quantized::project`.
///
/// # Panics
/// Panics if `bias` is not `acc.cols()` long.
#[must_use]
pub fn finish_projection(
    acc: Matrix<i32>,
    bias: &[i32],
    weight_fmt: QFormat,
    s: &QuantSchedule,
) -> Matrix<i8> {
    projection_epilogue(bias, weight_fmt, s).apply_matrix(&acc)
}

/// Fused linear projection: `requant(x·W ⊕ bias)` in one GEMM pass,
/// [`projection_epilogue`] narrowing each microkernel strip in the
/// store loop instead of a second sweep over a materialized i32
/// matrix. Byte-identical to `matmul` + [`finish_projection`].
/// Parallel across bands of activation rows inside the GEMM.
#[must_use]
pub fn fused_projection(
    x: &Matrix<i8>,
    w: &PackedWeights,
    bias: &[i32],
    weight_fmt: QFormat,
    s: &QuantSchedule,
) -> Matrix<i8> {
    matmul_i8_packed_requant_parallel(x, w, &projection_epilogue(bias, weight_fmt, s))
}

/// Fused projection + activation: [`fused_projection`] with the
/// activation ROM read in the same store loop — the FFN2 stage
/// (`act(requant(x·W1 ⊕ b1))`) as a single pass.
#[must_use]
pub fn fused_projection_act(
    x: &Matrix<i8>,
    w: &PackedWeights,
    bias: &[i32],
    weight_fmt: QFormat,
    s: &QuantSchedule,
    act: &ActivationLut,
) -> Matrix<i8> {
    let epi = projection_epilogue(bias, weight_fmt, s).with_activation(act);
    matmul_i8_packed_requant_parallel(x, w, &epi)
}

/// Tile-accumulated matrix product: `acc += x[:, rows_of(w_tile)] ·
/// w_tile` over every tile of `w` in the grid — the engines' inner
/// pattern. The accumulator must be pre-shaped to `(x.rows, w.cols)`.
pub fn accumulate_tiled(
    acc: &mut Matrix<i32>,
    x: &Matrix<i8>,
    w: &Matrix<i8>,
    grid: &protea_tensor::TileGrid,
) {
    assert_eq!(acc.shape(), (x.rows(), w.cols()));
    assert_eq!(x.cols(), w.rows(), "inner dimensions must agree");
    assert_eq!(grid.extent(), (w.rows(), w.cols()), "grid must tile the weight");
    for t in grid.iter() {
        for i in 0..x.rows() {
            let x_row = x.row(i);
            // `k` strides both the input row and the weight rows; the
            // explicit index keeps the two walks visibly in lockstep.
            #[allow(clippy::needless_range_loop)]
            for k in t.r0..t.r0 + t.h {
                let xv = i32::from(x_row[k]);
                if xv == 0 {
                    continue;
                }
                let w_row = w.row(k);
                let acc_row = acc.row_mut(i);
                for j in t.c0..t.c0 + t.w {
                    acc_row[j] += xv * i32::from(w_row[j]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protea_tensor::{matmul_i8_i32, TileGrid};

    #[test]
    fn tiled_accumulation_equals_direct_matmul() {
        let x = Matrix::from_fn(5, 12, |r, c| ((r * 31 + c * 7) % 255) as i8);
        let w = Matrix::from_fn(12, 9, |r, c| ((r * 13 + c * 17) % 255) as i8);
        let direct = matmul_i8_i32(&x, &w);
        for (th, tw) in [(12, 9), (4, 3), (5, 4), (1, 1), (12, 2)] {
            let mut acc = Matrix::<i32>::zeros(5, 9);
            accumulate_tiled(&mut acc, &x, &w, &TileGrid::new(12, 9, th, tw));
            assert_eq!(acc.as_slice(), direct.as_slice(), "tile {th}x{tw}");
        }
    }

    #[test]
    fn finish_projection_matches_model_project() {
        use protea_model::quantized::{project, QuantMatrix};
        let s = QuantSchedule::paper();
        let x = Matrix::from_fn(4, 8, |r, c| ((r * 11 + c * 3) % 120) as i8 - 60);
        let wm = Matrix::from_fn(8, 6, |r, c| ((r * 7 + c * 19) % 120) as i8 - 60);
        let w = QuantMatrix { data: wm.clone(), fmt: QFormat::new(8, 6) };
        let bias: Vec<i32> = (0..6).map(|i| (i - 3) * 100).collect();
        let golden = project(&x, &w, &bias, &s);
        let mut acc = Matrix::<i32>::zeros(4, 6);
        accumulate_tiled(&mut acc, &x, &wm, &TileGrid::new(8, 6, 3, 2));
        let tiled = finish_projection(acc, &bias, w.fmt, &s);
        assert_eq!(tiled.as_slice(), golden.as_slice());
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_rejected() {
        let x = Matrix::<i8>::zeros(2, 3);
        let w = Matrix::<i8>::zeros(4, 2);
        let mut acc = Matrix::<i32>::zeros(2, 2);
        accumulate_tiled(&mut acc, &x, &w, &TileGrid::new(4, 2, 2, 2));
    }
}
