//! Packed weights and the dispatched i8→i32 GEMM with fused epilogues.
//!
//! The naive kernels in [`crate::matmul`] walk the weight matrix row by
//! row for every output row, so at transformer shapes (`k, n` in the
//! hundreds to thousands) each weight element is re-fetched from cache
//! `m` times with no layout control, and the i8 operands never reach a
//! form a multiply-accumulate unit can stream. This module is the
//! throughput path:
//!
//! * [`PackedWeights`] — the weight matrix transposed once into
//!   column-major storage: column `j` of the logical `k×n` matrix is one
//!   contiguous `k`-long strip. That is exactly the layout a dot-product
//!   inner loop streams, and for attention's `Q·Kᵀ` it means packing
//!   `Kᵀ` is a straight copy of `K`'s row-major bytes
//!   ([`PackedWeights::from_transpose`]).
//! * [`matmul_i8_i32_packed`] — prepares the activations once (widened
//!   to i16, or biased to u8 for the VNNI kernel), hands the kernel one
//!   block of `CB` weight columns at a time (widened per block, or raw
//!   for VNNI), and reduces each output element through the microkernel
//!   selected by the runtime dispatch layer ([`crate::kernels`]):
//!   explicit AVX-512 VNNI/AVX-512/AVX2/NEON where the host supports
//!   it, the original autovectorized kernel as the portable fallback,
//!   overridable via `PROTEA_KERNEL`.
//! * [`matmul_i8_i32_packed_parallel`] — the same GEMM with parallelism
//!   *inside* the product: the activation rows are split into one band
//!   per worker, and each worker stores its band straight into its own
//!   rows of the output.
//! * [`matmul_i8_packed_requant`] and its parallel form — the fused
//!   requantization: a [`RequantEpilogue`] (saturating bias add,
//!   rounding shift or logit divide, saturation, optional activation
//!   ROM) resolved once per GEMM and applied to each `CB`-column block
//!   of microkernel results as a few vectorized passes, so the i32
//!   accumulator matrix is never materialized and the separate
//!   `O(m·n)` requant pass disappears at near-zero cost.
//! * [`matmul_i8_packed_epilogue`] — the same store loop with any
//!   per-element `(col, acc) → i8` closure.
//! * [`matmul_i8_packed_epilogue_checked`] — the ABFT hook: the same
//!   fused kernel accumulating exact i64 row/column checksums of the
//!   pre-epilogue i32 sums, verified against predictions from the
//!   inputs ([`crate::abft`]) — fusion does not weaken the
//!   silent-data-corruption defense.
//!
//! Bit-exactness: each `C[i][j]` is a sum of `A[i][p]·W[p][j]` products
//! accumulated exactly in i32 (widening to i16 is value-preserving for
//! i8, the VNNI kernel's u8 bias is removed exactly through
//! [`PackedWeights::col_sums`], and `|sum| ≤ k·2¹⁴` cannot wrap for any
//! realistic `k`). Integer addition is associative and commutative, so
//! every dispatchable
//! microkernel and every band split produces the same bytes as
//! [`crate::matmul::matmul_i8_i32`] by construction, not merely within
//! tolerance — each output element's reduction runs whole within one
//! thread and one kernel. The property tests in `tests/props.rs` and
//! `tests/kernel_dispatch.rs` pin this across random shapes, ISAs and
//! thread counts.

use crate::abft::{AbftChecksums, AbftMismatch};
use crate::kernels::{self, Activations, KernelIsa, CB};
use crate::matrix::Matrix;
use protea_fixed::activation::ActivationLut;
use protea_fixed::LaneRequant;

/// A weight matrix packed once (transposed to column-major) for
/// repeated GEMMs.
///
/// Packing costs one pass over the weights (`O(k·n)`), amortized across
/// every request/layer invocation that reuses the matrix — the
/// accelerator packs at `try_load_weights`, exactly as the hardware
/// DMA-reorders the DDR image into BRAM-friendly strips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedWeights {
    rows: usize,
    cols: usize,
    /// Column-major: logical column `j` lives at `data[j*rows..(j+1)*rows]`.
    data: Vec<i8>,
    /// `col_sums[j] = Σₚ W[p][j]`: the VNNI kernel's bias correction.
    col_sums: Vec<i32>,
}

impl PackedWeights {
    /// Pack (transpose) a logical `k×n` weight matrix.
    #[must_use]
    pub fn pack(w: &Matrix<i8>) -> Self {
        let (rows, cols) = w.shape();
        let mut data = vec![0i8; rows * cols];
        let mut col_sums = vec![0i32; cols];
        for r in 0..rows {
            let src = w.row(r);
            for c in 0..cols {
                data[c * rows + r] = src[c];
            }
            for (s, &x) in col_sums.iter_mut().zip(src) {
                *s += i32::from(x);
            }
        }
        Self { rows, cols, data, col_sums }
    }

    /// Pack the *transpose* of `wt`: the packed matrix is `wtᵀ`, i.e.
    /// `wt`'s rows become the packed columns. Because the packed layout
    /// is column-major, this is a straight memcpy of `wt`'s row-major
    /// storage — the fast path for attention's `Q·Kᵀ`, where `K` is
    /// already held row-major.
    #[must_use]
    pub fn from_transpose(wt: &Matrix<i8>) -> Self {
        let (n, k) = wt.shape();
        let col_sums = (0..n).map(|j| wt.row(j).iter().map(|&x| i32::from(x)).sum()).collect();
        Self { rows: k, cols: n, data: wt.as_slice().to_vec(), col_sums }
    }

    /// Logical (unpacked) shape `(rows, cols)` — `rows` is the reduction
    /// dimension `k`, `cols` the output width `n`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The reduction dimension.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The output width.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// One packed column: the `k` weights feeding output column `j`.
    #[must_use]
    pub fn col(&self, j: usize) -> &[i8] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Per-column weight sums, `col_sums()[j] = Σₚ W[p][j]`, computed at
    /// packing time.
    #[must_use]
    pub fn col_sums(&self) -> &[i32] {
        &self.col_sums
    }

    /// Reconstruct the unpacked matrix (test/debug aid).
    #[must_use]
    pub fn unpack(&self) -> Matrix<i8> {
        Matrix::from_fn(self.rows, self.cols, |r, c| self.data[c * self.rows + r])
    }
}

/// What one column block's results become: the raw accumulators, or a
/// fused epilogue's narrowed bytes. [`gemm_strip`] reduces one block of
/// up to `CB` columns for every activation row, then hands the sink the
/// whole block at once — `sums[di]` holds row `di`'s exact i32
/// accumulators for the `w` columns starting at *global* column `j`
/// (lanes past `w` are zero padding) — with the output region whose row
/// `di` starts at `out[di * stride]`.
trait StripSink {
    /// The stored element type.
    type Out: Copy + Default + Send;

    fn put_block(
        &mut self,
        j: usize,
        w: usize,
        sums: &mut [[i32; CB]],
        out: &mut [Self::Out],
        stride: usize,
    );
}

/// Copy the first `w` lanes of `src` into `dst`. A full block copies a
/// fixed `CB` lanes, which compiles to a few moves instead of a
/// `memcpy` call per row.
#[inline(always)]
fn copy_lanes<T: Copy>(dst: &mut [T], src: &[T], w: usize) {
    if w == CB {
        dst[..CB].copy_from_slice(&src[..CB]);
    } else {
        dst[..w].copy_from_slice(&src[..w]);
    }
}

/// Raw accumulator store (the unfused `Matrix<i32>` product).
#[derive(Clone)]
struct I32Sink;

impl StripSink for I32Sink {
    type Out = i32;

    #[inline]
    fn put_block(
        &mut self,
        _: usize,
        w: usize,
        sums: &mut [[i32; CB]],
        out: &mut [i32],
        stride: usize,
    ) {
        for (di, s) in sums.iter().enumerate() {
            copy_lanes(&mut out[di * stride..], s, w);
        }
    }
}

/// Closure-epilogue store: the per-element map runs in the store loop
/// and only the narrowed i8 ever reaches memory.
struct MapSink<'a, F>(&'a F);

impl<F: Fn(usize, i32) -> i8> StripSink for MapSink<'_, F> {
    type Out = i8;

    #[inline]
    fn put_block(
        &mut self,
        j: usize,
        w: usize,
        sums: &mut [[i32; CB]],
        out: &mut [i8],
        stride: usize,
    ) {
        for (di, s) in sums.iter().enumerate() {
            for (c, (o, &v)) in out[di * stride..di * stride + w].iter_mut().zip(s).enumerate() {
                *o = (self.0)(j + c, v);
            }
        }
    }
}

/// Closure-epilogue store that additionally folds every pre-epilogue
/// sum into exact i64 row/column checksums — the ABFT observation,
/// obtained for free in the store loop instead of a second pass over a
/// materialized i32 matrix.
struct CheckedMapSink<'a, F> {
    inner: MapSink<'a, F>,
    row: Vec<i64>,
    col: Vec<i64>,
}

impl<F: Fn(usize, i32) -> i8> StripSink for CheckedMapSink<'_, F> {
    type Out = i8;

    #[inline]
    fn put_block(
        &mut self,
        j: usize,
        w: usize,
        sums: &mut [[i32; CB]],
        out: &mut [i8],
        stride: usize,
    ) {
        for (row, s) in self.row.iter_mut().zip(sums.iter()) {
            for (col, &v) in self.col[j..j + w].iter_mut().zip(s) {
                *row += i64::from(v);
                *col += i64::from(v);
            }
        }
        self.inner.put_block(j, w, sums, out, stride);
    }
}

/// The requantizing GEMM epilogue, resolved once per GEMM: an optional
/// bias row added with saturation, a [`LaneRequant`] narrowing to i8,
/// and an optional activation ROM read. The store loop hands it one
/// `CB`-column block of microkernel results for all rows at a time, and
/// every per-element decision (rounding mode, shift, divisor, whether a
/// bias or activation applies) is already made, so each stage is one
/// vectorized pass over the block instead of a per-element closure.
///
/// Byte-identical to `act(rq.apply(acc ⊕ bias))` per element: the same
/// saturating bias add, [`LaneRequant`] is bit-exact against
/// [`protea_fixed::Requantizer::apply`] for every i32, and the ROM is
/// the same table.
#[derive(Debug, Clone, Copy)]
pub struct RequantEpilogue<'a> {
    rq: LaneRequant,
    bias: Option<&'a [i32]>,
    act: Option<&'a ActivationLut>,
}

impl<'a> RequantEpilogue<'a> {
    /// Narrow every accumulator through `rq`.
    #[must_use]
    pub fn new(rq: LaneRequant) -> Self {
        Self { rq, bias: None, act: None }
    }

    /// Add `bias[j]` (saturating) to column `j` before narrowing.
    #[must_use]
    pub fn with_bias(mut self, bias: &'a [i32]) -> Self {
        self.bias = Some(bias);
        self
    }

    /// Pass every narrowed byte through the activation ROM `act`.
    #[must_use]
    pub fn with_activation(mut self, act: &'a ActivationLut) -> Self {
        self.act = Some(act);
        self
    }

    /// Apply the epilogue to a materialized accumulator matrix — the
    /// unfused form of the same stage, through the same block store the
    /// fused GEMMs use.
    ///
    /// # Panics
    /// Panics if the bias (when given) is not `acc.cols()` long.
    #[must_use]
    pub fn apply_matrix(&self, acc: &Matrix<i32>) -> Matrix<i8> {
        let (m, n) = acc.shape();
        self.check_width(n);
        let mut out = vec![0i8; m * n];
        let mut sums = vec![[0i32; CB]; m];
        let mut sink = RequantSink::new(self);
        for j in (0..n).step_by(CB) {
            let w = CB.min(n - j);
            for (di, s) in sums.iter_mut().enumerate() {
                *s = [0; CB];
                s[..w].copy_from_slice(&acc.row(di)[j..j + w]);
            }
            sink.put_block(j, w, &mut sums, &mut out[j..], n);
        }
        Matrix::from_vec(m, n, out)
    }

    fn check_width(&self, n: usize) {
        if let Some(b) = self.bias {
            assert_eq!(b.len(), n, "bias length mismatch");
        }
    }
}

/// [`RequantEpilogue`] store: each stage runs as one pass over the
/// whole block — bias add per row strip, the narrowing over the block
/// flattened, the ROM read — before the rows are copied out. The
/// narrowed block lives in a scratch buffer allocated once per GEMM
/// (per worker), never per strip.
#[derive(Clone)]
struct RequantSink<'a> {
    epi: &'a RequantEpilogue<'a>,
    narrowed: Vec<[i8; CB]>,
}

impl<'a> RequantSink<'a> {
    fn new(epi: &'a RequantEpilogue<'a>) -> Self {
        Self { epi, narrowed: Vec::new() }
    }
}

impl StripSink for RequantSink<'_> {
    type Out = i8;

    #[inline]
    fn put_block(
        &mut self,
        j: usize,
        w: usize,
        sums: &mut [[i32; CB]],
        out: &mut [i8],
        stride: usize,
    ) {
        let epi = self.epi;
        if let Some(bias) = epi.bias {
            let mut b = [0i32; CB];
            copy_lanes(&mut b, &bias[j..], w);
            for s in sums.iter_mut() {
                for (x, &b) in s.iter_mut().zip(&b) {
                    *x = x.saturating_add(b);
                }
            }
        }
        self.narrowed.resize(sums.len(), [0; CB]);
        let narrowed = self.narrowed.as_flattened_mut();
        epi.rq.apply_slice(sums.as_flattened(), narrowed);
        if let Some(act) = epi.act {
            act.apply_slice(narrowed);
        }
        for (di, q) in self.narrowed.iter().enumerate() {
            copy_lanes(&mut out[di * stride..], q, w);
        }
    }
}

/// Reduce the `rows` activation rows `a` against every column of `w`
/// into the row-major `out`: the activations are prepared for `isa`
/// once, then each `CB`-column block runs through
/// [`kernels::reduce_block`] and goes to the sink; the ragged tail
/// (`w.cols() % CB` columns) runs a scalar dot over the i8 operands
/// with identical values.
fn gemm_strip<S: StripSink>(
    a: &[i8],
    rows: usize,
    w: &PackedWeights,
    isa: KernelIsa,
    out: &mut [S::Out],
    sink: &mut S,
) {
    let (k, n) = w.shape();
    let acts = Activations::prepare(isa, a);
    let mut wide = Vec::new();
    let mut sums = vec![[0i32; CB]; rows];
    let mut j = 0;
    while j + CB <= n {
        let strip = &w.data[j * k..(j + CB) * k];
        kernels::reduce_block(isa, &acts, k, strip, &w.col_sums[j..j + CB], &mut wide, &mut sums);
        sink.put_block(j, CB, &mut sums, &mut out[j..], n);
        j += CB;
    }
    let tail = n - j;
    if tail == 0 {
        return;
    }
    for (di, s) in sums.iter_mut().enumerate() {
        let arow = &a[di * k..(di + 1) * k];
        *s = [0; CB];
        for (c, acc) in s[..tail].iter_mut().enumerate() {
            for (&x, &wv) in arow.iter().zip(w.col(j + c)) {
                *acc += i32::from(x) * i32::from(wv);
            }
        }
    }
    sink.put_block(j, tail, &mut sums, &mut out[j..], n);
}

/// Below this many MACs a row-band fan-out costs more than it saves,
/// and the parallel entry points fall back to the serial one: the
/// vendored rayon starts an OS thread per spawned band. Parallel over
/// serial time, medians of interleaved pairs on a 2-core AVX-512 VNNI
/// host, VNNI kernel: 1.5× at 4.2M MACs (64×256×256), 1.02–1.03× at
/// 8.4M (128×256×256), 0.81× at 18.9M (128×384×384), 0.61× at 75.5M
/// (128×768×768). The widening kernels break even lower (`avx512`
/// 1.11×, `avx2` 1.14×, `packed` 0.74× at 1.6M; 0.63–0.88× at 4.2M),
/// so this one threshold leaves them serial on the few shapes between
/// 4.2M and 16.8M MACs, none of which an encoder projection has.
const MIN_PAR_MACS: usize = 1 << 24;

/// Rows per band of a parallel GEMM: one band per worker. Returns
/// `None` when the product is too small (or too short) to pay for
/// threads.
fn row_band(m: usize, k: usize, n: usize) -> Option<usize> {
    let threads = rayon::current_num_threads();
    if threads <= 1 || m < 2 || m.saturating_mul(k).saturating_mul(n) < MIN_PAR_MACS {
        return None;
    }
    Some(m.div_ceil(threads))
}

fn check_inner(a: &Matrix<i8>, w: &PackedWeights) {
    let (m, k) = a.shape();
    let n = w.cols();
    assert_eq!(k, w.rows(), "inner dimensions must agree: {m}x{k} · {}x{n}", w.rows());
}

/// The serial GEMM through `sink`.
fn gemm<S: StripSink>(a: &Matrix<i8>, w: &PackedWeights, sink: &mut S) -> Matrix<S::Out> {
    check_inner(a, w);
    let (m, n) = (a.rows(), w.cols());
    let mut out = vec![S::Out::default(); m * n];
    gemm_strip(a.as_slice(), m, w, kernels::active_kernel(), &mut out, sink);
    Matrix::from_vec(m, n, out)
}

/// The GEMM through `sink`, parallel across bands of activation rows:
/// each worker prepares its own rows and stores straight into its
/// disjoint rows of the output, while every worker streams the same
/// packed weights. The calling thread takes the first band. Falls back
/// to [`gemm`] when the product is too small to pay for threads.
fn gemm_parallel<S: StripSink + Clone + Send>(
    a: &Matrix<i8>,
    w: &PackedWeights,
    mut sink: S,
) -> Matrix<S::Out> {
    check_inner(a, w);
    let (m, k) = a.shape();
    let n = w.cols();
    let Some(band) = row_band(m, k, n) else {
        return gemm(a, w, &mut sink);
    };
    let isa = kernels::active_kernel();
    let mut out = vec![S::Out::default(); m * n];
    rayon::scope(|s| {
        let mut bands = a.as_slice().chunks(band * k).zip(out.chunks_mut(band * n));
        let (a0, out0) = bands.next().expect("m >= 2 rows make at least one band");
        for (ab, ob) in bands {
            let mut sink = sink.clone();
            s.spawn(move |_| gemm_strip(ab, ab.len() / k, w, isa, ob, &mut sink));
        }
        gemm_strip(a0, a0.len() / k, w, isa, out0, &mut sink);
    });
    Matrix::from_vec(m, n, out)
}

/// Packed GEMM: `C = A × W` with `A: m×k` i8 and `W` packed from `k×n`.
/// Bit-identical to [`crate::matmul::matmul_i8_i32`] on every dispatch
/// path.
///
/// # Panics
/// Panics if `A.cols() != W.rows()`.
#[must_use]
pub fn matmul_i8_i32_packed(a: &Matrix<i8>, w: &PackedWeights) -> Matrix<i32> {
    gemm(a, w, &mut I32Sink)
}

/// Parallel packed GEMM: identical bytes to [`matmul_i8_i32_packed`]
/// (each output element's reduction runs whole within one thread),
/// parallel across bands of activation rows inside the product.
///
/// # Panics
/// Panics if `A.cols() != W.rows()`.
#[must_use]
pub fn matmul_i8_i32_packed_parallel(a: &Matrix<i8>, w: &PackedWeights) -> Matrix<i32> {
    gemm_parallel(a, w, I32Sink)
}

/// Packed GEMM with a fused epilogue: `C[i][j] = f(j, Σₚ A[i][p]·W[p][j])`,
/// the per-element map applied in the store loop so the i32 accumulator
/// matrix is never materialized. Byte-identical to computing
/// [`matmul_i8_i32_packed`] and mapping afterwards — `f` sees the exact
/// same accumulator values in both formulations. For requantization,
/// [`matmul_i8_packed_requant`] narrows whole strips instead of calling
/// a closure per element.
///
/// # Panics
/// Panics if `A.cols() != W.rows()`.
#[must_use]
pub fn matmul_i8_packed_epilogue<F: Fn(usize, i32) -> i8>(
    a: &Matrix<i8>,
    w: &PackedWeights,
    f: F,
) -> Matrix<i8> {
    gemm(a, w, &mut MapSink(&f))
}

/// Fused requantizing GEMM: `C = epi(A × W)` in one pass, the
/// [`RequantEpilogue`] narrowing each `CB`-wide microkernel strip as it
/// leaves the kernel. Byte-identical to [`RequantEpilogue::apply_matrix`]
/// over [`matmul_i8_i32_packed`], without the i32 matrix.
///
/// # Panics
/// Panics if `A.cols() != W.rows()` or the epilogue's bias is not
/// `W.cols()` long.
#[must_use]
pub fn matmul_i8_packed_requant(
    a: &Matrix<i8>,
    w: &PackedWeights,
    epi: &RequantEpilogue<'_>,
) -> Matrix<i8> {
    epi.check_width(w.cols());
    gemm(a, w, &mut RequantSink::new(epi))
}

/// Panel-parallel form of [`matmul_i8_packed_requant`]; identical bytes.
///
/// # Panics
/// Panics if `A.cols() != W.rows()` or the epilogue's bias is not
/// `W.cols()` long.
#[must_use]
pub fn matmul_i8_packed_requant_parallel(
    a: &Matrix<i8>,
    w: &PackedWeights,
    epi: &RequantEpilogue<'_>,
) -> Matrix<i8> {
    epi.check_width(w.cols());
    gemm_parallel(a, w, RequantSink::new(epi))
}

/// ABFT-checked fused GEMM: the epilogue hook. Computes
/// `C[i][j] = f(j, acc)` exactly as [`matmul_i8_packed_epilogue`] while
/// folding every pre-epilogue i32 sum into exact i64 row/column
/// checksums, then verifies them against predictions computed from the
/// inputs alone ([`AbftChecksums::predicted`]). Fusing the requant
/// epilogue therefore costs none of the silent-data-corruption
/// coverage: the checksums observe the accumulators *before* the
/// narrowing map, the same quantity the unfused
/// [`crate::abft::matmul_i8_i32_packed_verified`] checks.
///
/// # Errors
/// An [`AbftMismatch`] if any checksum disagrees (on a fault-free host
/// this cannot happen).
///
/// # Panics
/// Panics if `A.cols() != W.rows()`.
pub fn matmul_i8_packed_epilogue_checked<F: Fn(usize, i32) -> i8>(
    a: &Matrix<i8>,
    w: &PackedWeights,
    f: F,
) -> Result<Matrix<i8>, AbftMismatch> {
    let mut sink =
        CheckedMapSink { inner: MapSink(&f), row: vec![0; a.rows()], col: vec![0; w.cols()] };
    let out = gemm(a, w, &mut sink);
    AbftChecksums::predicted(a, w).verify(&AbftChecksums { row: sink.row, col: sink.col })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul_i8_i32;
    use crate::ops::transpose;
    use protea_fixed::{QFormat, Requantizer, Rounding};

    fn a_mat(m: usize, k: usize) -> Matrix<i8> {
        Matrix::from_fn(m, k, |r, c| (((r * 47 + c * 31) % 255) as i64 - 127) as i8)
    }

    fn w_mat(k: usize, n: usize) -> Matrix<i8> {
        Matrix::from_fn(k, n, |r, c| (((r * 29 + c * 13) % 255) as i64 - 127) as i8)
    }

    #[test]
    fn pack_round_trips() {
        let w = w_mat(11, 23);
        let packed = PackedWeights::pack(&w);
        assert_eq!(packed.shape(), (11, 23));
        assert_eq!(packed.unpack().as_slice(), w.as_slice());
    }

    #[test]
    fn from_transpose_matches_pack() {
        let w = w_mat(9, 21);
        let wt = transpose(&w);
        let a = PackedWeights::pack(&w);
        let b = PackedWeights::from_transpose(&wt);
        assert_eq!(a, b);
    }

    #[test]
    fn packed_matches_naive_bitwise() {
        // Shapes straddle the CB block boundary on both sides.
        for (m, k, n) in [(17, 23, 13), (4, 64, 8), (1, 7, 1), (5, 1, 17), (8, 33, 16)] {
            let a = a_mat(m, k);
            let w = w_mat(k, n);
            let packed = PackedWeights::pack(&w);
            let c = matmul_i8_i32_packed(&a, &packed);
            assert_eq!(c.as_slice(), matmul_i8_i32(&a, &w).as_slice(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn packed_parallel_matches_serial_bitwise() {
        // 18.9M MACs clears the parallel threshold, so on a multi-core
        // host the row bands genuinely split.
        let a = a_mat(128, 384);
        let w = w_mat(384, 384);
        let packed = PackedWeights::pack(&w);
        assert_eq!(
            matmul_i8_i32_packed_parallel(&a, &packed).as_slice(),
            matmul_i8_i32(&a, &w).as_slice()
        );
    }

    #[test]
    fn fused_epilogue_equals_separate_pass() {
        let rq = Requantizer::new(11, QFormat::new(8, 5), Rounding::NearestEven);
        for (m, k, n) in [(7, 33, 19), (8, 64, 16), (1, 5, 1), (12, 20, 9)] {
            let a = a_mat(m, k);
            let packed = PackedWeights::pack(&w_mat(k, n));
            let bias: Vec<i32> = (0..n as i32).map(|j| (j - 4) * 1000).collect();
            let acc = matmul_i8_i32_packed(&a, &packed);
            let mut want = Matrix::<i8>::zeros(m, n);
            for r in 0..m {
                for c in 0..n {
                    want[(r, c)] = rq.apply(acc[(r, c)].saturating_add(bias[c]));
                }
            }
            let epi = RequantEpilogue::new(rq.lanes()).with_bias(&bias);
            let fused = matmul_i8_packed_requant(&a, &packed, &epi);
            assert_eq!(fused.as_slice(), want.as_slice(), "{m}x{k}x{n}");
            let fused_par = matmul_i8_packed_requant_parallel(&a, &packed, &epi);
            assert_eq!(fused_par.as_slice(), want.as_slice(), "parallel {m}x{k}x{n}");
            assert_eq!(epi.apply_matrix(&acc).as_slice(), want.as_slice(), "unfused {m}x{k}x{n}");
        }
    }

    #[test]
    fn fused_without_bias_is_plain_requant() {
        let rq = Requantizer::new(9, QFormat::new(8, 4), Rounding::Truncate);
        let a = a_mat(6, 24);
        let packed = PackedWeights::pack(&w_mat(24, 10));
        let want = matmul_i8_i32_packed(&a, &packed).map(|v| rq.apply(v));
        let fused = matmul_i8_packed_requant(&a, &packed, &RequantEpilogue::new(rq.lanes()));
        assert_eq!(fused.as_slice(), want.as_slice());
    }

    #[test]
    fn checked_fused_verifies_and_matches_unchecked() {
        let rq = Requantizer::new(10, QFormat::new(8, 5), Rounding::NearestEven);
        let a = a_mat(9, 40);
        let packed = PackedWeights::pack(&w_mat(40, 13));
        let plain = matmul_i8_packed_requant(&a, &packed, &RequantEpilogue::new(rq.lanes()));
        let checked = matmul_i8_packed_epilogue_checked(&a, &packed, |_, v| rq.apply(v))
            .expect("clean GEMM must verify");
        assert_eq!(checked.as_slice(), plain.as_slice());
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let a = Matrix::from_vec(1, 3072, vec![i8::MIN; 3072]);
        let w = Matrix::from_vec(3072, 1, vec![i8::MIN; 3072]);
        let packed = PackedWeights::pack(&w);
        assert_eq!(matmul_i8_i32_packed(&a, &packed)[(0, 0)], 3072 * 128 * 128);
    }

    #[test]
    fn degenerate_shapes() {
        let a = Matrix::<i8>::zeros(0, 4);
        let w = PackedWeights::pack(&Matrix::<i8>::zeros(4, 3));
        assert_eq!(matmul_i8_i32_packed(&a, &w).shape(), (0, 3));
        let a2 = Matrix::<i8>::zeros(3, 0);
        let w2 = PackedWeights::pack(&Matrix::<i8>::zeros(0, 2));
        let c = matmul_i8_i32_packed(&a2, &w2);
        assert_eq!(c.shape(), (3, 2));
        assert!(c.as_slice().iter().all(|&x| x == 0));
        let w3 = PackedWeights::pack(&Matrix::<i8>::zeros(4, 0));
        assert_eq!(matmul_i8_i32_packed(&Matrix::<i8>::zeros(2, 4), &w3).shape(), (2, 0));
        let rq = Requantizer::new(8, QFormat::new(8, 4), Rounding::Truncate);
        let epi = RequantEpilogue::new(rq.lanes());
        assert_eq!(matmul_i8_packed_requant(&a, &w, &epi).shape(), (0, 3));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let w = PackedWeights::pack(&Matrix::<i8>::zeros(4, 2));
        let _ = matmul_i8_i32_packed(&Matrix::<i8>::zeros(2, 3), &w);
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn bias_length_mismatch_panics() {
        let w = PackedWeights::pack(&Matrix::<i8>::zeros(4, 2));
        let rq = Requantizer::new(8, QFormat::new(8, 4), Rounding::Truncate);
        let epi = RequantEpilogue::new(rq.lanes()).with_bias(&[1, 2, 3]);
        let _ = matmul_i8_packed_requant(&Matrix::<i8>::zeros(2, 4), &w, &epi);
    }
}
