//! The seven compute engines (Figs. 3 and 4).
//!
//! Each engine's `plan()` is its timing model: one [`Access`] per
//! engine invocation (tile visit), carrying the weight bytes to stream
//! and the compute cycles, consumed by the double-buffer scheduler. The
//! hardware sums partial products across tiles ("the final output is
//! the cumulative sum of the results computed across all tiles"), and
//! integer sums give the same result in any order, so the tile schedule
//! sets the cycle count and not the output bytes.
//!
//! The output bytes come from one host datapath, checked byte for byte
//! against the golden model: `protea_model::QuantizedEncoder::forward_packed`,
//! beside the golden stages and the decoder's packed decode step. The
//! functional entry points left here ([`fused_projection`],
//! [`fused_projection_act`], [`projection_requantizer`],
//! [`ln::LnEngine::compute`], [`softmax::SoftmaxEngine::compute_head`])
//! serve perfbench's per-phase shadow forward until it times the phases
//! of the forward that runs.

pub mod ffn;
pub mod ln;
pub mod qk;
pub mod qkv;
pub mod softmax;
pub mod sv;

use protea_tensor::Matrix;

pub use protea_model::quantized::{fused_projection, fused_projection_act, projection_requantizer};

/// One engine access: a tile's data movement and compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Weight/input bytes streamed from HBM for this access.
    pub load_bytes: u64,
    /// Compute cycles once the data is resident.
    pub compute_cycles: u64,
}

/// Tile-accumulated matrix product: `acc += x[:, rows_of(w_tile)] ·
/// w_tile` over every tile of `w` in the grid — the engines' tile
/// schedule as plain scalar loops. The kernels bench keeps it as the
/// fixed denominator of its GEMM speedups. The accumulator must be
/// pre-shaped to `(x.rows, w.cols)`.
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
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_rejected() {
        let x = Matrix::<i8>::zeros(2, 3);
        let w = Matrix::<i8>::zeros(4, 2);
        let mut acc = Matrix::<i32>::zeros(2, 2);
        accumulate_tiled(&mut acc, &x, &w, &TileGrid::new(4, 2, 2, 2));
    }
}
