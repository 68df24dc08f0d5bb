//! Explicit microkernels behind runtime CPU-feature dispatch.
//!
//! The packed GEMM's inner loop — reduce one widened activation row
//! against `CB` widened weight columns into `CB` i32 sums — used to rely
//! on LLVM autovectorizing a scalar loop into `pmaddwd`. That works, but
//! only by luck of the loop shape, and it leaves half the machine on the
//! table on AVX2/AVX-512 hosts. This module makes the instruction
//! selection explicit:
//!
//! * [`KernelIsa::Scalar`] — one plain `i32 += i16·i16` loop per column.
//!   The semantic baseline; never auto-selected, only forced.
//! * [`KernelIsa::Packed`] — the original autovectorized microkernel,
//!   kept verbatim as the portable fallback ([`portable`]). This is what
//!   every host without SIMD support runs.
//! * [`KernelIsa::Avx2`] — explicit `_mm256_madd_epi16` over the same
//!   widened-i16 strips: 16 MACs per instruction, eight ymm accumulators
//!   (one per `CB` column) live across the k sweep ([`x86`]).
//! * [`KernelIsa::Avx512`] — the zmm version (`avx512bw`): 32 MACs per
//!   `vpmaddwd` ([`x86`]).
//! * [`KernelIsa::Avx512Vnni`] — `vpdpbusd` (`avx512vnni`) straight on
//!   the raw packed i8 strips, 64 MACs per instruction, register-blocked
//!   over [`x86::MR`] activation rows ([`x86::mk_vnni_block`]). It is
//!   the one kernel that does not widen: activations are biased to u8
//!   once per GEMM and the bias is subtracted per column (see below).
//! * [`KernelIsa::Amx`] — AMX-INT8 `tdpbssd` tiles on the same raw
//!   strips (`x86::AmxTiles`), computing `Cᵀ = Wᵀ·Aᵀ` so the packed
//!   weights load as tiles as they are. It takes at least 16 activation
//!   rows at a depth that is a multiple of 64, over whole 32-column
//!   blocks (`tiles_apply`); every other block and shape runs the VNNI
//!   kernel. The requantizing GEMMs narrow each accumulator tile in
//!   AVX-512 registers as it leaves the tiles (`AmxTiles::requant`), so
//!   their i32 sums never reach memory.
//! * [`KernelIsa::Neon`] — `vmlal_s16` widening multiply-accumulate on
//!   aarch64 (the `neon` module).
//!
//! Two helpers serve attention. [`tile_depth`] names the depth to which
//! a GEMM's operands are zero-padded so that the tiles take it (Q·Kᵀ at
//! `d_k = 96`). [`softmax_rows`] is the LUT softmax row kernel: word
//! permutes over the ROM and u32-lane reciprocal multiplies on the
//! AVX-512 kernels, the softmax unit itself on every other ISA.
//! [`add_norm_rows`] is the residual add and layer norm row kernel, on
//! the same terms: zmm lanes on the AVX-512 kernels, the layer-norm unit
//! itself everywhere else.
//!
//! Why `_mm256_madd_epi16` and not `_mm256_maddubs_epi16`: `maddubs`
//! multiplies *unsigned* by signed bytes and **saturates** its i16 pair
//! sums — `(255·127 + 255·127)` overflows i16 — so it cannot reproduce
//! the exact integer semantics this workspace pins byte-for-byte.
//! Widening i8→i16 first costs one shuffle per 16 operands and makes
//! `madd_epi16` exact: each i16 product is ≤ 2¹⁴, a pair sum is ≤ 2¹⁵,
//! and the per-lane i32 accumulation over `k ≤ 2¹⁶` cannot wrap. Every
//! variant computes the same sum of the same products — integer addition
//! is associative and commutative, so re-associating the reduction into
//! SIMD lanes is bit-invisible. The `kernel_dispatch` integration tests
//! and the root `equivalence` suite pin this across every selectable
//! variant.
//!
//! `vpdpbusd` is exact where `maddubs` is not: it multiplies u8 by i8
//! and adds the four products of each dword straight into an i32 lane,
//! without an i16 intermediate and without saturation. Biasing each i8
//! activation to `x + 128 ∈ [0, 255]` makes it a valid u8 operand, and
//! `Σ (x+128)·w = Σ x·w + 128·Σ w`, so the kernel subtracts
//! `128 · col_sums[j]` ([`crate::PackedWeights::col_sums`]) per column.
//! The biased sum is bounded by `255·128·k < 2³¹` for `k ≤ 2¹⁶`.
//!
//! `tdpbssd` needs no bias at all: it multiplies signed by signed bytes
//! and adds each group of four products into an i32 lane without
//! saturation, so every tile lane holds an exact partial of the signed
//! sum, bounded by `|sum| ≤ k·2¹⁴`.
//!
//! ## Selection
//!
//! The active kernel is resolved **once** per process:
//! `PROTEA_KERNEL=scalar|packed|avx2|avx512|avx512vnni|amx|neon|auto`
//! overrides; otherwise the best ISA the CPU reports is used (AMX ≻
//! AVX-512 VNNI ≻ AVX-512 ≻ AVX2 ≻ NEON ≻ portable packed). Requesting
//! an ISA the host lacks falls back to the portable packed kernel —
//! deterministically, never to an illegal-instruction fault. Benchmarks
//! and tests can re-route at runtime with [`force_kernel`]; because all
//! variants are bit-exact, forcing changes wall-clock only.

use crate::pack::RequantEpilogue;
use protea_fixed::layernorm::LayerNormUnit;
use protea_fixed::softmax::SoftmaxUnit;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

pub mod portable;

#[cfg(target_arch = "x86_64")]
pub mod x86;

#[cfg(target_arch = "aarch64")]
pub mod neon;

/// Columns processed per microkernel call: the widened `CB × k` weight
/// strip stays L1-resident across the row sweep, and `CB` accumulators
/// fit the register file at every supported vector width (eight ymm/zmm
/// accumulators plus two operand registers).
pub const CB: usize = 8;

/// A selectable microkernel instruction set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelIsa {
    /// Plain scalar reduction — the semantic baseline, forced only.
    Scalar,
    /// The autovectorized portable kernel (the pre-dispatch default).
    Packed,
    /// Explicit AVX2 (`vpmaddwd` ymm), x86-64 only.
    Avx2,
    /// Explicit AVX-512 (`vpmaddwd` zmm, needs `avx512bw`), x86-64 only.
    Avx512,
    /// AVX-512 VNNI (`vpdpbusd` on raw i8, needs `avx512bw` and
    /// `avx512vnni`), x86-64 only.
    Avx512Vnni,
    /// AMX-INT8 tiles (`tdpbssd`, needs `amx-tile`, `amx-int8`, the
    /// kernel's tile-data permission and AVX-512 VNNI for the shapes
    /// tiles do not cover), x86-64 only.
    Amx,
    /// Explicit NEON (`vmlal_s16`), aarch64 only.
    Neon,
}

impl KernelIsa {
    /// All variants, in ascending preference order.
    pub const ALL: [Self; 7] = [
        Self::Scalar,
        Self::Packed,
        Self::Avx2,
        Self::Avx512,
        Self::Avx512Vnni,
        Self::Amx,
        Self::Neon,
    ];

    /// Parse a `PROTEA_KERNEL` value (case-insensitive). `auto` and
    /// unknown strings return `None` (→ auto-detect).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(Self::Scalar),
            "packed" => Some(Self::Packed),
            "avx2" => Some(Self::Avx2),
            "avx512" => Some(Self::Avx512),
            "avx512vnni" => Some(Self::Avx512Vnni),
            "amx" => Some(Self::Amx),
            "neon" => Some(Self::Neon),
            _ => None,
        }
    }

    /// Whether this host can execute the variant.
    #[must_use]
    pub fn is_supported(self) -> bool {
        match self {
            Self::Scalar | Self::Packed => true,
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
            }
            #[cfg(target_arch = "x86_64")]
            Self::Avx512Vnni => x86::vnni_supported(),
            #[cfg(target_arch = "x86_64")]
            Self::Amx => x86::amx_supported(),
            #[cfg(target_arch = "aarch64")]
            Self::Neon => true,
            #[allow(unreachable_patterns)] // arms above are cfg-gated
            _ => false,
        }
    }

    /// The best variant this host supports (never `Scalar` — the scalar
    /// kernel exists as a forced baseline, not a serving path).
    #[must_use]
    pub fn detect() -> Self {
        [Self::Amx, Self::Avx512Vnni, Self::Avx512, Self::Avx2, Self::Neon]
            .into_iter()
            .find(|isa| isa.is_supported())
            .unwrap_or(Self::Packed)
    }
}

impl std::fmt::Display for KernelIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Scalar => "scalar",
            Self::Packed => "packed",
            Self::Avx2 => "avx2",
            Self::Avx512 => "avx512",
            Self::Avx512Vnni => "avx512vnni",
            Self::Amx => "amx",
            Self::Neon => "neon",
        })
    }
}

/// Every variant the current host can execute, ascending preference.
#[must_use]
pub fn supported_kernels() -> Vec<KernelIsa> {
    KernelIsa::ALL.into_iter().filter(|isa| isa.is_supported()).collect()
}

/// The process-wide default, resolved once: `PROTEA_KERNEL` override
/// (clamped to supported — an unsupported request falls back to the
/// portable packed kernel) or auto-detection.
fn env_kernel() -> KernelIsa {
    static RESOLVED: OnceLock<KernelIsa> = OnceLock::new();
    *RESOLVED.get_or_init(|| match std::env::var("PROTEA_KERNEL") {
        Ok(v) => match KernelIsa::parse(&v) {
            Some(isa) if isa.is_supported() => isa,
            Some(_) => KernelIsa::Packed,
            None => KernelIsa::detect(),
        },
        Err(_) => KernelIsa::detect(),
    })
}

/// Runtime re-route for benchmarks and tests; 0 = no override.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Force every subsequent packed-GEMM call onto one kernel variant
/// (`None` restores `PROTEA_KERNEL`/auto selection). Forcing an
/// unsupported variant falls back to the portable packed kernel, same
/// as the env override. All variants are bit-exact, so this changes
/// wall-clock only — it exists so benchmarks can sweep ISAs and tests
/// can pin every dispatch path inside one process.
pub fn force_kernel(isa: Option<KernelIsa>) {
    let code = match isa {
        None => 0,
        Some(i) if !i.is_supported() => 1 + KernelIsa::Packed as u8,
        Some(i) => 1 + i as u8,
    };
    FORCED.store(code, Ordering::Release);
}

/// The kernel variant the next packed GEMM will run: the
/// [`force_kernel`] override if set, else the `PROTEA_KERNEL`/detected
/// process default.
#[must_use]
pub fn active_kernel() -> KernelIsa {
    match FORCED.load(Ordering::Acquire) {
        0 => env_kernel(),
        n => KernelIsa::ALL[(n - 1) as usize],
    }
}

/// The activation rows in the form the selected kernel reads, built
/// once per GEMM (once per band of rows in the parallel GEMM).
pub(crate) enum Activations {
    /// Rows widened to i16, for the `vpmaddwd`/`vmlal`/portable kernels.
    Wide(Vec<i16>),
    /// Rows biased to u8 (`x ^ 0x80 = x + 128`), for the VNNI kernel
    /// (which also runs the blocks the AMX tiles leave).
    Biased(Vec<u8>),
}

impl Activations {
    /// Prepare the row-major activations `a` for `isa`.
    pub(crate) fn prepare(isa: KernelIsa, a: &[i8]) -> Self {
        if matches!(isa, KernelIsa::Avx512Vnni | KernelIsa::Amx) {
            Self::Biased(a.iter().map(|&x| x.cast_unsigned() ^ 0x80).collect())
        } else {
            Self::Wide(a.iter().map(|&x| i16::from(x)).collect())
        }
    }
}

/// Reduce one block of `CB` packed weight columns — `wstrip`, the raw
/// column-major `CB × k` bytes, with their `col_sums` — against every
/// activation row, into `sums[r]`. The widening kernels widen the strip
/// into the caller's per-worker scratch `wide` once per block and reuse
/// it across the row sweep; the VNNI kernel reads the bytes as they are.
pub(crate) fn reduce_block(
    isa: KernelIsa,
    acts: &Activations,
    k: usize,
    wstrip: &[i8],
    col_sums: &[i32],
    wide: &mut Vec<i16>,
    sums: &mut [[i32; CB]],
) {
    match acts {
        Activations::Biased(a8) => biased_block(a8, k, wstrip, col_sums, sums),
        Activations::Wide(a16) => {
            wide.resize(CB * k, 0);
            for (d, &s) in wide.iter_mut().zip(wstrip) {
                *d = i16::from(s);
            }
            for (r, s) in sums.iter_mut().enumerate() {
                *s = mk_block(isa, &a16[r * k..(r + 1) * k], wide, k);
            }
        }
    }
}

/// Whether `isa` runs the whole 32-column blocks of a `rows × k × n`
/// GEMM on the AMX tiles: `isa` is [`KernelIsa::Amx`], `k` a positive
/// multiple of 64 (one tile row), `n` at least one block and the rows
/// fill at least one 16-row activation tile.
#[cfg(target_arch = "x86_64")]
pub(crate) fn tiles_apply(isa: KernelIsa, rows: usize, k: usize, n: usize) -> bool {
    use x86::{AMX_NB, TILE, TILE_K};
    isa == KernelIsa::Amx && k > 0 && k.is_multiple_of(TILE_K) && n >= AMX_NB && rows >= TILE
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn tiles_apply(_: KernelIsa, _: usize, _: usize, _: usize) -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{AmxTiles, AMX_NB};

/// Output columns per AMX tile block.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) const AMX_NB: usize = 32;

/// No AMX tiles off x86-64: the type has no values, so its methods are
/// never called.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) enum AmxTiles {}

#[cfg(not(target_arch = "x86_64"))]
impl AmxTiles {
    pub(crate) fn blocks(
        &self,
        _: &[i8],
        _: std::ops::Range<usize>,
        _: impl FnMut(usize, &mut [[i32; CB]]),
    ) {
        match *self {}
    }

    pub(crate) fn requant(
        &self,
        _: &[i8],
        _: std::ops::Range<usize>,
        _: &RequantEpilogue<'_>,
        _: &mut [&mut [i8]],
    ) {
        match *self {}
    }
}

/// The `rows` row-major activation rows `a` (`k` bytes each) interleaved
/// into AMX tiles when [`tiles_apply`] to `isa`'s `rows × k × n` GEMM,
/// else `None`: the whole 32-column blocks of that GEMM then run on the
/// tiles, and every other column on [`reduce_block`].
#[cfg(target_arch = "x86_64")]
pub(crate) fn amx_tiles(
    isa: KernelIsa,
    a: &[i8],
    rows: usize,
    k: usize,
    n: usize,
) -> Option<AmxTiles> {
    tiles_apply(isa, rows, k, n).then(|| AmxTiles::new(a, rows, k))
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn amx_tiles(_: KernelIsa, _: &[i8], _: usize, _: usize, _: usize) -> Option<AmxTiles> {
    None
}

/// The depth at which to run a `rows × k × n` GEMM whose operands may be
/// zero-padded along `k`: `k` rounded up to a whole tile row (64 bytes)
/// when the active kernel would then run the product on the AMX tiles,
/// else `k` unchanged. Zero columns add nothing to an integer sum, so
/// both depths give the same bytes, and every other ISA, and fewer than
/// 16 rows, keep the unpadded MAC count.
#[must_use]
pub fn tile_depth(rows: usize, k: usize, n: usize) -> usize {
    depth_for(active_kernel(), rows, k, n)
}

fn depth_for(isa: KernelIsa, rows: usize, k: usize, n: usize) -> usize {
    let padded = k.next_multiple_of(64);
    if tiles_apply(isa, rows, padded, n) {
        padded
    } else {
        k
    }
}

/// Row softmax of the row-major logits (rows of `cols`) into `out`:
/// byte for byte [`SoftmaxUnit::forward_matrix`], whose normalization
/// (the u64 reciprocal `⌊2⁵²/sum⌋ + 1`) and its exactness argument are
/// in `protea_fixed::softmax`. The AVX-512 kernels run it in zmm lanes
/// with AVX-512 F and BW only: the u64 product is split into u32
/// multiplies, so it needs no AVX-512 DQ `vpmullq`. Every other ISA
/// calls the unit.
///
/// # Panics
/// Panics if `cols` is 0, above
/// [`SOFTMAX_MAX_LEN`](protea_fixed::softmax::SOFTMAX_MAX_LEN) or not a
/// divisor of `logits.len()`, or if `out` is not as long as `logits`.
pub fn softmax_rows(unit: &SoftmaxUnit, logits: &[i8], cols: usize, out: &mut [i8]) {
    #[cfg(target_arch = "x86_64")]
    if matches!(active_kernel(), KernelIsa::Avx512 | KernelIsa::Avx512Vnni | KernelIsa::Amx) {
        return x86::softmax_rows(unit.lut().table(), logits, cols, out);
    }
    unit.forward_matrix(logits, cols, out);
}

/// Residual add and layer norm of the row-major `x` and `sub` (rows of
/// `cols`) into `out`: each output row is `x ⊕ sub`, added with
/// saturation, then normalized by `unit`, byte for byte
/// [`LayerNormUnit::forward_row`] over the saturated sum. The AVX-512
/// kernels run units with an `i32` affine step ([`LayerNormUnit::lanes`])
/// in zmm lanes with AVX-512 F and BW only: one pass adds the row
/// (`vpaddsb`) and sums its codes (`vpsadbw`) and their squares
/// (`vpmaddwd`), and a second pass divides by `σ` with a u32 reciprocal
/// multiply (`vpmuludq`) and runs the affine step. Every other ISA, and
/// every unit with an `i64` affine step, calls the unit row by row.
///
/// # Panics
/// Panics if `cols` is 0, above `unit.dim()` or above 2¹⁶, or if the
/// slices are not whole rows of `cols` of one length.
pub fn add_norm_rows(unit: &LayerNormUnit, x: &[i8], sub: &[i8], cols: usize, out: &mut [i8]) {
    assert!(cols > 0 && cols <= unit.dim() && cols <= 1 << 16, "row width out of range");
    assert!(x.len() == out.len() && sub.len() == out.len() && out.len().is_multiple_of(cols));
    #[cfg(target_arch = "x86_64")]
    if matches!(active_kernel(), KernelIsa::Avx512 | KernelIsa::Avx512Vnni | KernelIsa::Amx) {
        if let Some(lanes) = unit.lanes() {
            return x86::add_norm_rows(lanes, x, sub, cols, out);
        }
    }
    for ((o, xr), sr) in
        out.chunks_exact_mut(cols).zip(x.chunks_exact(cols)).zip(sub.chunks_exact(cols))
    {
        for ((o, &a), &b) in o.iter_mut().zip(xr).zip(sr) {
            *o = a.saturating_add(b);
        }
        unit.forward_row(o);
    }
}

/// Narrow the row-major accumulators `acc` (rows of `n`) into `out`
/// through `epi` with the tile GEMM's AVX-512 row epilogue when `isa`
/// is [`KernelIsa::Amx`]; returns `false`, touching nothing, otherwise.
#[cfg(target_arch = "x86_64")]
pub(crate) fn requant_rows(
    isa: KernelIsa,
    acc: &[i32],
    n: usize,
    epi: &RequantEpilogue<'_>,
    out: &mut [i8],
) -> bool {
    let applies = isa == KernelIsa::Amx && n > 0;
    if applies {
        x86::requant_rows(acc, n, epi, out);
    }
    applies
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn requant_rows(
    _: KernelIsa,
    _: &[i32],
    _: usize,
    _: &RequantEpilogue<'_>,
    _: &mut [i8],
) -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
fn biased_block(a8: &[u8], k: usize, wstrip: &[i8], col_sums: &[i32], sums: &mut [[i32; CB]]) {
    x86::mk_vnni_block(a8, k, wstrip, col_sums, sums);
}

#[cfg(not(target_arch = "x86_64"))]
fn biased_block(_: &[u8], _: usize, _: &[i8], _: &[i32], _: &mut [[i32; CB]]) {
    unreachable!("biased activations are prepared only for avx512vnni and amx, x86-64 kernels")
}

/// One microkernel invocation: reduce the widened activation row
/// against `CB` widened weight columns (`wcol16[c*k..(c+1)*k]`) into
/// `CB` exact i32 sums. `isa` is resolved once per GEMM by the caller
/// and passed down so the hot loop pays one predictable branch per
/// block, not an atomic load per block.
#[inline]
#[must_use]
// The dispatch site carries the `unsafe` calls into the feature-gated
// kernels; the safety contract (CPU probed before selection) is noted
// on each arm.
#[allow(unsafe_code)]
fn mk_block(isa: KernelIsa, arow16: &[i16], wcol16: &[i16], k: usize) -> [i32; CB] {
    debug_assert_eq!(arow16.len(), k);
    debug_assert_eq!(wcol16.len(), CB * k);
    match isa {
        KernelIsa::Scalar => portable::mk_scalar(arow16, wcol16, k),
        KernelIsa::Packed => portable::mk_packed(arow16, wcol16, k),
        #[cfg(target_arch = "x86_64")]
        // SAFETY of the feature gate: `isa` only reaches these arms via
        // `env_kernel`/`force_kernel`, both of which clamp to
        // `is_supported()` — the CPU has been probed.
        KernelIsa::Avx2 => unsafe { x86::mk_avx2(arow16, wcol16, k) },
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx512 => unsafe { x86::mk_avx512(arow16, wcol16, k) },
        #[cfg(target_arch = "aarch64")]
        KernelIsa::Neon => unsafe { neon::mk_neon(arow16, wcol16, k) },
        #[allow(unreachable_patterns)] // arms above are cfg-gated
        _ => portable::mk_packed(arow16, wcol16, k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn operands(k: usize) -> (Vec<i8>, Vec<i8>) {
        let a: Vec<i8> = (0..k).map(|i| (((i * 47 + 3) % 255) as i32 - 127) as i8).collect();
        let w: Vec<i8> = (0..CB * k).map(|i| (((i * 29 + 11) % 255) as i32 - 127) as i8).collect();
        (a, w)
    }

    fn widen(v: &[i8]) -> Vec<i16> {
        v.iter().map(|&x| i16::from(x)).collect()
    }

    /// One activation row against one `CB` block through `isa`'s
    /// block path (widening or biased), as the GEMM drives it.
    fn block(isa: KernelIsa, a: &[i8], w: &[i8], k: usize) -> [i32; CB] {
        let acts = Activations::prepare(isa, a);
        let col_sums: Vec<i32> =
            (0..CB).map(|c| w[c * k..(c + 1) * k].iter().map(|&x| i32::from(x)).sum()).collect();
        let mut sums = [[0; CB]];
        reduce_block(isa, &acts, k, w, &col_sums, &mut Vec::new(), &mut sums);
        sums[0]
    }

    #[test]
    fn every_supported_isa_matches_scalar() {
        // Straddle the 16-, 32- and 64-wide chunk boundaries and the
        // empty reduction.
        for k in [0usize, 1, 7, 15, 16, 17, 31, 32, 33, 63, 64, 65, 96, 257] {
            let (a, w) = operands(k);
            let want = portable::mk_scalar(&widen(&a), &widen(&w), k);
            for isa in supported_kernels() {
                assert_eq!(block(isa, &a, &w, k), want, "isa={isa} k={k}");
            }
        }
    }

    #[test]
    fn extreme_operands_are_exact_on_every_isa() {
        // Worst case: every product is (-128)·(-128) at transformer
        // depth — the magnitude bound the no-overflow argument uses.
        let k = 3072;
        let a = vec![-128i8; k];
        let w = vec![-128i8; CB * k];
        for isa in supported_kernels() {
            assert_eq!(block(isa, &a, &w, k), [k as i32 * 128 * 128; CB], "isa={isa}");
        }
    }

    #[test]
    fn only_the_tiles_pad_the_depth() {
        // Q·Kᵀ at the encoder's d_k = 96 over 128 rows and keys.
        for isa in KernelIsa::ALL {
            let want = if isa == KernelIsa::Amx && cfg!(target_arch = "x86_64") { 128 } else { 96 };
            assert_eq!(depth_for(isa, 128, 96, 128), want, "isa={isa}");
        }
        // Too few rows or keys for a tile, an empty or whole-step depth.
        assert_eq!(depth_for(KernelIsa::Amx, 15, 96, 128), 96);
        assert_eq!(depth_for(KernelIsa::Amx, 128, 96, 31), 96);
        assert_eq!(depth_for(KernelIsa::Amx, 128, 0, 128), 0);
        assert_eq!(depth_for(KernelIsa::Amx, 128, 128, 128), 128);
    }

    #[test]
    fn parse_round_trips_and_rejects_unknown() {
        for isa in KernelIsa::ALL {
            assert_eq!(KernelIsa::parse(&isa.to_string()), Some(isa));
            assert_eq!(KernelIsa::parse(&isa.to_string().to_uppercase()), Some(isa));
        }
        assert_eq!(KernelIsa::parse("amx"), Some(KernelIsa::Amx));
        assert_eq!(KernelIsa::parse("AMX"), Some(KernelIsa::Amx));
        assert_eq!(KernelIsa::parse("auto"), None);
        assert_eq!(KernelIsa::parse("sse9"), None);
    }

    #[test]
    fn portable_kernels_are_always_supported() {
        assert!(KernelIsa::Scalar.is_supported());
        assert!(KernelIsa::Packed.is_supported());
        assert!(supported_kernels().contains(&KernelIsa::Packed));
    }

    #[test]
    fn detect_never_picks_scalar() {
        assert_ne!(KernelIsa::detect(), KernelIsa::Scalar);
        assert!(KernelIsa::detect().is_supported());
    }

    #[test]
    fn detect_prefers_amx_then_vnni_then_avx512() {
        // Each kernel's features are a superset of the next one's (AMX
        // runs its column tails on VNNI), so a host without the better
        // one still gets the next.
        if KernelIsa::Amx.is_supported() {
            assert!(KernelIsa::Avx512Vnni.is_supported());
            assert_eq!(KernelIsa::detect(), KernelIsa::Amx);
        } else if KernelIsa::Avx512Vnni.is_supported() {
            assert!(KernelIsa::Avx512.is_supported());
            assert_eq!(KernelIsa::detect(), KernelIsa::Avx512Vnni);
        } else if KernelIsa::Avx512.is_supported() {
            assert_eq!(KernelIsa::detect(), KernelIsa::Avx512);
        }
    }

    #[test]
    fn forcing_unsupported_falls_back_to_packed() {
        // NEON is never supported on x86 and vice versa, so one of the
        // two SIMD families is a guaranteed-unsupported probe.
        let unsupported =
            [KernelIsa::Neon, KernelIsa::Avx2].into_iter().find(|isa| !isa.is_supported());
        if let Some(isa) = unsupported {
            force_kernel(Some(isa));
            assert_eq!(active_kernel(), KernelIsa::Packed);
            force_kernel(None);
        }
    }
}
