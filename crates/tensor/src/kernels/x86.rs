//! Explicit x86-64 microkernels: AVX2 (ymm) and AVX-512 (zmm)
//! `vpmaddwd` over the widened-i16 strips, the AVX-512 VNNI `vpdpbusd`
//! kernel over the raw packed i8 strips, the AMX-INT8 `tdpbssd`
//! tile kernel (`AmxTiles`) over the same strips, and the AVX-512
//! softmax row kernel (`softmax_rows`).
//!
//! Exactness argument (why re-association to SIMD lanes is bit-safe):
//! every i16 operand is a widened i8, so each product is bounded by
//! `2¹⁴` and a `madd` pair sum by `2¹⁵`. One vector lane accumulates at
//! most `⌈k/lanes⌉` pair sums, so its i32 partial stays below `k·2¹⁵ ≪
//! i32::MAX` for every `k` in this design (`≤ 4·d_model`). All partial
//! sums are therefore exact, and integer addition is associative and
//! commutative — the horizontal reduction at the end produces the same
//! i32 as the scalar left-to-right loop, byte for byte.
//!
//! `unsafe` is confined to this module (and its aarch64 sibling): the
//! crate otherwise keeps `deny(unsafe_code)`. The only obligations are
//! (a) the CPU supports the feature — guaranteed by the dispatch layer,
//! which probes `is_x86_feature_detected!` (and, for AMX, CPUID and the
//! kernel's tile-data permission) before ever selecting these variants —
//! and (b) in-bounds pointers, discharged by the explicit slice bounds
//! asserted below.
#![allow(unsafe_code)]

use super::CB;
use crate::pack::RequantEpilogue;
use core::arch::asm;
use protea_fixed::softmax::SOFTMAX_MAX_LEN;
use protea_fixed::{LaneStages, RoundShift};
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{
    __cpuid_count, __get_cpuid_max, __m128i, __m256i, __m512i, _mm256_add_epi32,
    _mm256_castsi256_si128, _mm256_extracti128_si256, _mm256_loadu_si256, _mm256_madd_epi16,
    _mm256_max_epi8, _mm256_setzero_si256, _mm256_slli_epi32, _mm256_storeu_si256,
    _mm256_sub_epi32, _mm512_abs_epi32, _mm512_add_epi16, _mm512_add_epi32, _mm512_and_si512,
    _mm512_castsi128_si512, _mm512_castsi512_si128, _mm512_castsi512_si256,
    _mm512_cmpeq_epi16_mask, _mm512_cmplt_epi32_mask, _mm512_cvtepi32_epi8, _mm512_cvtepi8_epi16,
    _mm512_cvtepi8_epi32, _mm512_cvtepu16_epi32, _mm512_cvtsepi32_epi8, _mm512_dpbusd_epi32,
    _mm512_extracti64x4_epi64, _mm512_loadu_si512, _mm512_madd_epi16, _mm512_mask_blend_epi16,
    _mm512_mask_blend_epi32, _mm512_mask_blend_epi8, _mm512_mask_loadu_epi8,
    _mm512_mask_storeu_epi8, _mm512_maskz_loadu_epi32, _mm512_maskz_loadu_epi8,
    _mm512_maskz_mov_epi16, _mm512_max_epi16, _mm512_max_epi32, _mm512_max_epi8, _mm512_min_epi32,
    _mm512_min_epu32, _mm512_movepi8_mask, _mm512_mul_epu32, _mm512_mullo_epi32,
    _mm512_permutex2var_epi16, _mm512_permutex2var_epi64, _mm512_permutex2var_epi8,
    _mm512_reduce_add_epi32, _mm512_reduce_max_epi32, _mm512_set1_epi16, _mm512_set1_epi32,
    _mm512_set1_epi8, _mm512_setzero_si512, _mm512_shuffle_i32x4, _mm512_shuffle_i64x2,
    _mm512_sll_epi32, _mm512_slli_epi32, _mm512_slli_epi64, _mm512_sra_epi32, _mm512_srai_epi32,
    _mm512_srl_epi32, _mm512_srl_epi64, _mm512_srli_epi32, _mm512_srli_epi64, _mm512_storeu_si512,
    _mm512_sub_epi16, _mm512_sub_epi32, _mm512_test_epi16_mask, _mm512_unpackhi_epi32,
    _mm512_unpackhi_epi64, _mm512_unpacklo_epi32, _mm512_unpacklo_epi64, _mm512_xor_si512,
    _mm_add_epi32, _mm_cvtsi128_si32, _mm_cvtsi32_si128, _mm_mask_storeu_epi8, _mm_max_epi8,
    _mm_shuffle_epi32, _mm_storeu_si128,
};

/// Exact horizontal sum of the eight i32 lanes of a ymm accumulator.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum_epi32(v: __m256i) -> i32 {
    let lo = _mm256_castsi256_si128(v);
    let hi = _mm256_extracti128_si256(v, 1);
    let s: __m128i = _mm_add_epi32(lo, hi);
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
    _mm_cvtsi128_si32(s)
}

/// AVX2 microkernel: one activation row against `CB` weight columns.
/// Eight ymm accumulators (one per column) live across the whole `k`
/// sweep; each 16-wide chunk costs one activation load shared by all
/// eight columns plus one load + one `vpmaddwd` + one `vpaddd` per
/// column.
///
/// # Safety
/// The caller must have verified `is_x86_feature_detected!("avx2")`.
#[target_feature(enable = "avx2")]
#[must_use]
pub unsafe fn mk_avx2(arow: &[i16], wcol16: &[i16], k: usize) -> [i32; CB] {
    assert_eq!(arow.len(), k);
    assert_eq!(wcol16.len(), CB * k);
    let kc = k / 16 * 16;
    let mut acc = [_mm256_setzero_si256(); CB];
    let ap = arow.as_ptr();
    let wp = wcol16.as_ptr();
    for k0 in (0..kc).step_by(16) {
        // SAFETY: k0 + 16 <= kc <= k = arow.len(), and for each column
        // c the strip c*k + k0 + 16 <= (c+1)*k <= wcol16.len().
        let xa = _mm256_loadu_si256(ap.add(k0).cast());
        for (c, a) in acc.iter_mut().enumerate() {
            let wv = _mm256_loadu_si256(wp.add(c * k + k0).cast());
            *a = _mm256_add_epi32(*a, _mm256_madd_epi16(xa, wv));
        }
    }
    let mut sums = [0i32; CB];
    for (c, s) in sums.iter_mut().enumerate() {
        *s = hsum_epi32(acc[c]);
    }
    // Ragged k tail (< 16): scalar, same values.
    for kk in kc..k {
        let x = i32::from(arow[kk]);
        for (c, s) in sums.iter_mut().enumerate() {
            *s += x * i32::from(wcol16[c * k + kk]);
        }
    }
    sums
}

/// AVX-512 microkernel: identical structure at zmm width — 32 MACs per
/// `vpmaddwd`, `_mm512_reduce_add_epi32` for the exact horizontal sum.
///
/// # Safety
/// The caller must have verified `avx512f` and `avx512bw` detection.
#[target_feature(enable = "avx512f,avx512bw")]
#[must_use]
pub unsafe fn mk_avx512(arow: &[i16], wcol16: &[i16], k: usize) -> [i32; CB] {
    assert_eq!(arow.len(), k);
    assert_eq!(wcol16.len(), CB * k);
    let kc = k / 32 * 32;
    let mut acc = [_mm512_setzero_si512(); CB];
    let ap = arow.as_ptr();
    let wp = wcol16.as_ptr();
    for k0 in (0..kc).step_by(32) {
        // SAFETY: bounds as in `mk_avx2`, at 32-element granularity.
        let xa = _mm512_loadu_si512(ap.add(k0).cast());
        for (c, a) in acc.iter_mut().enumerate() {
            let wv = _mm512_loadu_si512(wp.add(c * k + k0).cast());
            *a = _mm512_add_epi32(*a, _mm512_madd_epi16(xa, wv));
        }
    }
    let mut sums = [0i32; CB];
    for (c, s) in sums.iter_mut().enumerate() {
        *s = _mm512_reduce_add_epi32(acc[c]);
    }
    for kk in kc..k {
        let x = i32::from(arow[kk]);
        for (c, s) in sums.iter_mut().enumerate() {
            *s += x * i32::from(wcol16[c * k + kk]);
        }
    }
    sums
}

/// Activation rows per VNNI register tile: `MR × CB` zmm accumulators
/// (24) plus `MR` activation registers and one weight register fit the
/// 32-entry zmm file, and each weight load feeds `MR` `vpdpbusd`s.
pub const MR: usize = 3;

/// Whether this host runs [`mk_vnni_block`].
#[must_use]
pub fn vnni_supported() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
        && std::arch::is_x86_feature_detected!("avx512vnni")
}

/// AVX-512 VNNI block kernel: every biased activation row of `a8`
/// (`sums.len()` rows of `k` bytes, each byte `x ^ 0x80 = x + 128` of an
/// i8 activation) against the `CB` raw i8 weight columns of `wstrip`
/// (column-major, `CB × k`), into `sums[r]` — the exact
/// `Σₚ x[r][p]·w[p][c]`.
///
/// `vpdpbusd` multiplies u8 by i8 and adds each group of four products
/// into an i32 lane without saturation. The biased sum is
/// `Σ (x+128)·w = Σ x·w + 128·colsum`, so subtracting `128·col_sums[c]`
/// recovers the signed product. Every partial is exact: a u8·i8 product
/// lies in `[−32640, 32385]`, and a whole biased sum is bounded by
/// `255·128·k < 2³¹` for `k ≤ 2¹⁶`.
///
/// Rows run in `MR`-row register tiles (a 1-row tile takes `rows % MR`);
/// `k % 64` runs as one masked 64-byte step.
///
/// # Panics
/// Panics if the host lacks AVX-512 VNNI (the dispatch layer selects
/// this kernel only after [`vnni_supported`]) or the slices disagree
/// with `k`.
pub fn mk_vnni_block(a8: &[u8], k: usize, wstrip: &[i8], col_sums: &[i32], sums: &mut [[i32; CB]]) {
    assert!(vnni_supported(), "avx512vnni kernel on a host without AVX-512 VNNI");
    assert_eq!(a8.len(), sums.len() * k);
    assert_eq!(wstrip.len(), CB * k);
    let col_sums: &[i32; CB] = col_sums.try_into().expect("one column sum per block column");
    // SAFETY: the CPU features were checked above; `vnni_rows` reads
    // exactly the `rows × k` and `CB × k` bytes asserted here.
    unsafe { vnni_rows(a8, k, wstrip, col_sums, sums) }
}

/// The row sweep of [`mk_vnni_block`]: `MR`-row tiles, then 1-row
/// tiles for the remainder.
///
/// # Safety
/// AVX-512 VNNI must be present, `a8` must hold `sums.len() × k` bytes
/// and `wstrip` `CB × k` bytes.
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn vnni_rows(
    a8: &[u8],
    k: usize,
    wstrip: &[i8],
    col_sums: &[i32; CB],
    sums: &mut [[i32; CB]],
) {
    let mut tiles = sums.chunks_exact_mut(MR);
    let mut a = a8.as_ptr();
    // SAFETY (every tile call): `a` addresses the first row of the
    // tile, and the tiles cover the `sums.len()` rows of `a8` once.
    for out in &mut tiles {
        vnni_tile::<MR>(a, k, wstrip.as_ptr(), col_sums, out);
        a = a.add(MR * k);
    }
    for out in tiles.into_remainder().chunks_exact_mut(1) {
        vnni_tile::<1>(a, k, wstrip.as_ptr(), col_sums, out);
        a = a.add(k);
    }
}

/// One `R × CB` register tile: `R·CB` zmm accumulators live across the
/// whole `k` sweep; each 64-byte step loads `R` activation vectors and
/// `CB` weight vectors and issues `R·CB` `vpdpbusd`s.
///
/// # Safety
/// AVX-512 VNNI must be present; `a` must address `R × k` bytes,
/// `w` `CB × k` bytes, and `out` must hold `R` rows.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn vnni_tile<const R: usize>(
    a: *const u8,
    k: usize,
    w: *const i8,
    col_sums: &[i32; CB],
    out: &mut [[i32; CB]],
) {
    let mut acc = [[_mm512_setzero_si512(); CB]; R];
    let kc = k / 64 * 64;
    for k0 in (0..kc).step_by(64) {
        // SAFETY: k0 + 64 <= kc <= k, so every load stays inside its
        // row (activations) or column (weights).
        let xa: [__m512i; R] =
            core::array::from_fn(|r| _mm512_loadu_si512(a.add(r * k + k0).cast()));
        for c in 0..CB {
            let wv = _mm512_loadu_si512(w.add(c * k + k0).cast());
            for (row, &x) in acc.iter_mut().zip(&xa) {
                row[c] = _mm512_dpbusd_epi32(row[c], x, wv);
            }
        }
    }
    if kc < k {
        // Masked tail: lanes past k load as zero (and never fault), so
        // they contribute 0·0 to every sum.
        let mask = u64::MAX >> (64 - (k - kc));
        let xa: [__m512i; R] =
            core::array::from_fn(|r| _mm512_maskz_loadu_epi8(mask, a.add(r * k + kc).cast()));
        for c in 0..CB {
            let wv = _mm512_maskz_loadu_epi8(mask, w.add(c * k + kc));
            for (row, &x) in acc.iter_mut().zip(&xa) {
                row[c] = _mm512_dpbusd_epi32(row[c], x, wv);
            }
        }
    }
    let bias = _mm256_slli_epi32::<7>(_mm256_loadu_si256(col_sums.as_ptr().cast()));
    for (row, o) in acc.iter().zip(out.iter_mut()) {
        let s = _mm256_sub_epi32(hsum8(row), bias);
        _mm256_storeu_si256(o.as_mut_ptr().cast(), s);
    }
}

/// Exact horizontal sums of eight zmm accumulators: lane `c` of the
/// result is the sum of the sixteen i32 lanes of `v[c]`. A
/// transpose-and-add tree (pairs of dwords, then qwords, then 128-bit
/// lanes) takes 24 instructions instead of eight separate reductions.
#[inline]
#[target_feature(enable = "avx512f")]
fn hsum8(v: &[__m512i; CB]) -> __m256i {
    // Per 128-bit lane: [a0+a2, b0+b2, a1+a3, b1+b3].
    let pair = |a, b| _mm512_add_epi32(_mm512_unpacklo_epi32(a, b), _mm512_unpackhi_epi32(a, b));
    let ab = pair(v[0], v[1]);
    let cd = pair(v[2], v[3]);
    let ef = pair(v[4], v[5]);
    let gh = pair(v[6], v[7]);
    // Per 128-bit lane: [a, b, c, d] partials.
    let quad = |x, y| _mm512_add_epi32(_mm512_unpacklo_epi64(x, y), _mm512_unpackhi_epi64(x, y));
    let abcd = quad(ab, cd);
    let efgh = quad(ef, gh);
    // 128-bit lanes [abcd0+abcd1, abcd2+abcd3, efgh0+efgh1, efgh2+efgh3].
    let lanes = _mm512_add_epi32(
        _mm512_shuffle_i64x2::<0b10_00_10_00>(abcd, efgh),
        _mm512_shuffle_i64x2::<0b11_01_11_01>(abcd, efgh),
    );
    // Low 256 bits: [abcd, efgh].
    let folded = _mm512_add_epi32(
        _mm512_shuffle_i64x2::<0b10_00_10_00>(lanes, lanes),
        _mm512_shuffle_i64x2::<0b11_01_11_01>(lanes, lanes),
    );
    _mm512_castsi512_si256(folded)
}

/// Rows (and 4-byte columns) of one AMX tile: a weight tile holds 16
/// weight columns, an activation tile 16 activation rows, and an
/// accumulator tile 16 × 16 i32 sums.
pub(crate) const TILE: usize = 16;
/// Bytes of one tile row: the reduction depth of one `tdpbssd` step.
pub(crate) const TILE_K: usize = 64;
/// Output columns per tile block: two weight tiles.
pub(crate) const AMX_NB: usize = 2 * TILE;

/// Whether this host runs the AMX tile kernel: CPUID leaf 7 reports AMX-TILE
/// (EDX bit 24) and AMX-INT8 (EDX bit 25); the VNNI kernel that runs the
/// column tails and the AVX-512 VBMI byte permutes of the fused
/// epilogue's activation ROM are present (every AMX-INT8 CPU has both);
/// and the kernel grants this process the tile data state
/// (`arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)`, requested once
/// and cached). Stable Rust cannot name the `amx-int8` target feature,
/// so the probe is by hand.
#[must_use]
pub(crate) fn amx_supported() -> bool {
    static GRANTED: OnceLock<bool> = OnceLock::new();
    *GRANTED.get_or_init(|| {
        vnni_supported()
            && std::arch::is_x86_feature_detected!("avx512vbmi")
            && amx_cpuid()
            && request_tile_data()
    })
}

fn amx_cpuid() -> bool {
    // Leaf 7 is read only when the maximum leaf reaches it.
    let (max_leaf, _) = __get_cpuid_max(0);
    if max_leaf < 7 {
        return false;
    }
    let edx = __cpuid_count(7, 0).edx;
    edx & (1 << 24) != 0 && edx & (1 << 25) != 0
}

#[cfg(target_os = "linux")]
fn request_tile_data() -> bool {
    const SYS_ARCH_PRCTL: i64 = 158;
    const ARCH_REQ_XCOMP_PERM: i64 = 0x1023;
    const XFEATURE_XTILEDATA: i64 = 18;
    let ret: i64;
    // SAFETY: this `arch_prctl` only widens the set of XSAVE features
    // the process may use; it reads no memory. `syscall` clobbers `rcx`
    // and `r11`.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") SYS_ARCH_PRCTL => ret,
            in("rdi") ARCH_REQ_XCOMP_PERM,
            in("rsi") XFEATURE_XTILEDATA,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(target_os = "linux"))]
fn request_tile_data() -> bool {
    false
}

/// The `ldtilecfg` operand: palette 1, eight tiles of 16 rows × 64
/// bytes. Tiles 0–3 accumulate, 4–5 hold weights, 6–7 activations.
#[repr(C, align(64))]
struct TileConfig {
    palette: u8,
    start_row: u8,
    reserved: [u8; 14],
    colsb: [u16; 16],
    rows: [u8; 16],
}

/// One 16 × 16 i32 accumulator tile, as `tilestored` writes it.
#[repr(C, align(64))]
struct AccTile([i32; TILE * TILE]);

/// One 64-byte tile row of interleaved activations. Tile loads are
/// several times slower when their rows straddle cache lines, so the
/// buffer is built from cache-line-aligned rows.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct TileRow([u32; TILE]);

/// The AMX-INT8 tile kernel for one band of activation rows.
///
/// `tdpbssd` multiplies signed by signed bytes and adds each group of
/// four products into an i32 lane, exactly (no bias, no saturation:
/// `|sum| ≤ k·2¹⁴`). It computes `C += A·B` with `A` a 16-row × 64-byte
/// tile and `B` a 16-row tile whose row `q` holds, for each of 16
/// output columns, the four bytes of depth `4q..4q+4`. The kernel runs
/// it as `Cᵀ = Wᵀ·Aᵀ`: the packed weights' column-major strips already
/// are `Wᵀ` row-major, so 16 weight columns × 64 depth bytes load as an
/// `A` tile as they are (stride `k`), and only the activations are
/// rearranged — once per band, by [`AmxTiles::new`] — into `B` tiles
/// laid out `[group of 16 rows][k/64][k/4 mod 16][16 rows][4 bytes]`,
/// rows past the band's end zero. Each accumulator tile is then a
/// 16-column × 16-row block of `Cᵀ`, transposed back with AVX-512
/// shuffles: by [`AmxTiles::block`] into the row-major `[[i32; CB]]`
/// blocks a `StripSink` takes, by [`AmxTiles::requant`] into one
/// activation row per register, which it narrows and stores in place.
///
/// Each [`AmxTiles::block`] or [`AmxTiles::requant`] call configures the
/// calling thread's tiles, runs the tile loop and releases them, so no
/// tile state outlives a call: whatever runs between two blocks — the
/// GEMM's sink, a caller's epilogue closure, another tile GEMM — finds
/// no configuration to disturb.
pub(crate) struct AmxTiles {
    /// Interleaved activations, one dword (4 depth bytes) per element.
    b: Vec<TileRow>,
    rows: usize,
    k: usize,
}

impl AmxTiles {
    /// Interleave the `rows` row-major activation rows `a` (`k` bytes
    /// each) into `B` tiles.
    ///
    /// # Panics
    /// Panics if the host lacks AMX ([`amx_supported`]), `k` is not a
    /// positive multiple of [`TILE_K`], or `a` is not `rows × k` bytes.
    #[must_use]
    pub(crate) fn new(a: &[i8], rows: usize, k: usize) -> Self {
        assert!(amx_supported(), "amx kernel on a host without AMX-INT8");
        assert!(
            k > 0 && k.is_multiple_of(TILE_K),
            "AMX tiles need k a positive multiple of {TILE_K}"
        );
        assert_eq!(a.len(), rows * k);
        let steps = k / TILE_K;
        let mut b = vec![TileRow([0; TILE]); rows.div_ceil(TILE) * steps * TILE];
        for (g, tiles) in b.chunks_exact_mut(steps * TILE).enumerate() {
            let group = &a[g * TILE * k..((g + 1) * TILE).min(rows) * k];
            // SAFETY: AVX-512 is implied by `amx_supported`; `group`
            // holds whole rows of `k` bytes and `tiles` one 1 KiB tile
            // per 64-byte step.
            unsafe { interleave_group(group, k, tiles) };
        }
        Self { b, rows, k }
    }

    /// Reduce [`AMX_NB`] weight columns — `wstrip`, their raw
    /// column-major `AMX_NB × k` bytes — against every activation row:
    /// `sums[c * rows + r]` receives row `r`'s exact sums for columns
    /// `c·CB .. (c+1)·CB` of the strip, for each of its four `CB`
    /// blocks.
    ///
    /// # Panics
    /// Panics if the slices disagree with the band's `rows` and `k`.
    pub(crate) fn block(&self, wstrip: &[i8], sums: &mut [[i32; CB]]) {
        assert_eq!(wstrip.len(), AMX_NB * self.k);
        assert_eq!(sums.len(), AMX_NB / CB * self.rows);
        let rows = self.rows;
        // SAFETY: `sums` holds four blocks of `rows` rows (asserted), so
        // every split below stays inside it.
        self.with_tiles(|| unsafe {
            tile_block(&self.b, rows, self.k, wstrip, |first, valid, half, tile| {
                let (lo, hi) = sums.split_at_mut((2 * half + 1) * rows);
                let lo = &mut lo[2 * half * rows + first..][..valid];
                let hi = &mut hi[first..first + valid];
                if valid == TILE {
                    store_transposed(tile, lo, hi);
                } else {
                    let mut full = [[[0i32; CB]; TILE]; 2];
                    let [flo, fhi] = &mut full;
                    store_transposed(tile, flo, fhi);
                    lo.copy_from_slice(&flo[..valid]);
                    hi.copy_from_slice(&fhi[..valid]);
                }
            });
        });
    }

    /// The fused requantizing GEMM over this band's whole 32-column
    /// blocks: reduce each block of the packed weights `wdata`
    /// (column-major, `k` bytes per column, `n` columns) against every
    /// activation row, and narrow each accumulator tile through `epi`
    /// straight into the band's row-major output `out` (rows of `n`) as
    /// it leaves the tiles ([`RowRequant`]): no i32 sums reach memory
    /// beyond the tile's own 1 KiB. Columns past the last whole block
    /// are left to the caller.
    ///
    /// # Panics
    /// Panics if `out` is not this band's `rows × n` bytes, `wdata` not
    /// `n` columns or the epilogue's bias not `n` long.
    pub(crate) fn requant(
        &self,
        wdata: &[i8],
        n: usize,
        epi: &RequantEpilogue<'_>,
        out: &mut [i8],
    ) {
        assert_eq!(out.len(), self.rows * n, "output must be the band's rows");
        assert_eq!(wdata.len(), n * self.k);
        if let Some(bias) = epi.bias {
            assert_eq!(bias.len(), n, "bias length mismatch");
        }
        // SAFETY: AVX-512 VBMI is part of `amx_supported`, checked by
        // `new`, and the asserts above are `requant_blocks`' contract.
        self.with_tiles(|| unsafe {
            requant_blocks(&self.b, self.rows, self.k, wdata, n, epi, out)
        });
    }

    /// Run `f` with this thread's tiles configured as [`tile_block`]
    /// needs them, then release them, so no tile state outlives the
    /// call.
    fn with_tiles(&self, f: impl FnOnce()) {
        let config = TileConfig {
            palette: 1,
            start_row: 0,
            reserved: [0; 14],
            colsb: core::array::from_fn(|t| if t < 8 { TILE_K as u16 } else { 0 }),
            rows: core::array::from_fn(|t| if t < 8 { TILE as u8 } else { 0 }),
        };
        // SAFETY: `new` checked that AMX is present and this process
        // holds the tile-data permission; the config is a valid palette-1
        // layout, loaded on this thread right before the tile loop.
        // `tilerelease` returns the tile state to its initial form.
        unsafe {
            asm!("ldtilecfg [{}]", in(reg) &config, options(nostack, readonly));
        }
        f();
        // SAFETY: as above.
        unsafe {
            asm!("tilerelease", options(nostack, nomem));
        }
    }
}

/// The block loop of [`AmxTiles::requant`]. The store closure is
/// defined here, inside the feature-enabled function, so it inherits
/// the features and [`transpose16`] and [`RowRequant::row`] inline into
/// it.
///
/// # Safety
/// The tiles must be configured as [`AmxTiles::with_tiles`] does and
/// AVX-512 F, BW and VBMI present; `b` must hold `rows` interleaved rows
/// of depth `k`, `wdata` `n × k` bytes, `out` `rows × n` bytes and the
/// epilogue's bias (if any) `n` columns.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn requant_blocks(
    b: &[TileRow],
    rows: usize,
    k: usize,
    wdata: &[i8],
    n: usize,
    epi: &RequantEpilogue<'_>,
    out: &mut [i8],
) {
    let rq = RowRequant::new(epi);
    for j in (0..n / AMX_NB * AMX_NB).step_by(AMX_NB) {
        // SAFETY: columns j..j + 32 ≤ n of the bias.
        let bias = epi.bias.map(|bias| {
            let p = bias.as_ptr().add(j);
            [_mm512_loadu_si512(p.cast()), _mm512_loadu_si512(p.add(TILE).cast())]
        });
        let strip = &wdata[j * k..(j + AMX_NB) * k];
        tile_block(b, rows, k, strip, |first, valid, half, tile| {
            let r: [__m512i; TILE] = core::array::from_fn(|c| {
                // SAFETY: row c of the 16 × 16 tile.
                unsafe { _mm512_loadu_si512(tile.0.as_ptr().add(c * TILE).cast()) }
            });
            let bias = bias.map(|b| b[half]);
            for (i, x) in transpose16(r).into_iter().take(valid).enumerate() {
                let dst = &mut out[(first + i) * n + j + half * TILE..][..TILE];
                // SAFETY: `dst` holds the 16 bytes stored.
                unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), rq.row(x, bias)) };
            }
        });
    }
}

/// Interleave one group of at most [`TILE`] activation rows into its
/// `B` tiles: for every 64-byte depth step, the 16 × 16 dword block of
/// the rows is transposed, so tile row `q` holds depth `4q..4q+4` of
/// each row in turn. Missing rows read as zero.
///
/// # Safety
/// AVX-512F must be present; `group` must hold whole rows of `k` bytes
/// (`k % 64 == 0`) and `tiles` `(k/64) · 16` rows.
#[target_feature(enable = "avx512f")]
unsafe fn interleave_group(group: &[i8], k: usize, tiles: &mut [TileRow]) {
    let present = group.len() / k;
    for (s, tile) in tiles.chunks_exact_mut(TILE).enumerate() {
        let rows: [__m512i; TILE] = core::array::from_fn(|r| {
            if r < present {
                // SAFETY: row r < present spans k bytes, and
                // s·64 + 64 <= k.
                _mm512_loadu_si512(group.as_ptr().add(r * k + s * TILE_K).cast())
            } else {
                _mm512_setzero_si512()
            }
        });
        for (row, v) in tile.iter_mut().zip(transpose16(rows)) {
            _mm512_storeu_si512(row.0.as_mut_ptr().cast(), v);
        }
    }
}

/// The tile loop of [`AmxTiles::block`] and [`AmxTiles::requant`]: for
/// each pair of 16-row groups, a 2 × 2 register block — two weight tiles
/// (`tmm4`, `tmm5`) against two activation tiles (`tmm6`, `tmm7`) into
/// four accumulators (`tmm0`–`tmm3`) — swept over the depth, then stored
/// and handed to `store(first, valid, half, tile)`: the accumulator tile
/// of weight columns `16·half .. 16·half + 16` for activation rows
/// `first .. first + valid` (rows past `valid` are padding). An odd last
/// group runs the 2 × 1 half of the block. Each tile is loaded just
/// before its first `tdpbssd`, not all four up front: tiles are not
/// renamed, so a load waits for the previous step's readers of its
/// register, and interleaving ran the block loop 4–6% faster (A/B in one
/// process on a 2-core AMX host).
///
/// # Safety
/// The tiles must be configured as [`AmxTiles::with_tiles`] does (so
/// AMX, and with it AVX-512 F, BW and VBMI, is present); `b` must hold
/// the band's interleaved groups and `wstrip` `AMX_NB × k` bytes.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn tile_block(
    b: &[TileRow],
    rows: usize,
    k: usize,
    wstrip: &[i8],
    mut store: impl FnMut(usize, usize, usize, &AccTile),
) {
    debug_assert_eq!(wstrip.len(), AMX_NB * k);
    let groups = rows.div_ceil(TILE);
    let steps = k / TILE_K;
    let group_rows = steps * TILE;
    let mut acc = [AccTile([0; TILE * TILE]), AccTile([0; TILE * TILE])];
    let mut acc_hi = [AccTile([0; TILE * TILE]), AccTile([0; TILE * TILE])];
    let w0 = wstrip.as_ptr();
    let w1 = w0.add(TILE * k);
    let mut g = 0;
    while g < groups {
        let pair = g + 1 < groups;
        let b0 = b.as_ptr().add(g * group_rows);
        asm!(
            "tilezero tmm0",
            "tilezero tmm1",
            "tilezero tmm2",
            "tilezero tmm3",
            options(nostack, nomem)
        );
        for s in 0..steps {
            // SAFETY: weight tile rows start at column c·k + s·64 and
            // span 64 bytes inside the column; activation tiles are
            // whole 1 KiB tiles of `b`.
            let wa = w0.add(s * TILE_K);
            let wb = w1.add(s * TILE_K);
            let ba = b0.add(s * TILE);
            if pair {
                let bb = ba.add(group_rows);
                asm!(
                    "tileloadd tmm4, [{wa} + {k}*1]",
                    "tileloadd tmm6, [{ba} + {bs}*1]",
                    "tdpbssd tmm0, tmm4, tmm6",
                    "tileloadd tmm7, [{bb} + {bs}*1]",
                    "tdpbssd tmm1, tmm4, tmm7",
                    "tileloadd tmm5, [{wb} + {k}*1]",
                    "tdpbssd tmm2, tmm5, tmm6",
                    "tdpbssd tmm3, tmm5, tmm7",
                    wa = in(reg) wa,
                    wb = in(reg) wb,
                    ba = in(reg) ba,
                    bb = in(reg) bb,
                    k = in(reg) k,
                    bs = in(reg) TILE_K,
                    options(nostack, readonly)
                );
            } else {
                asm!(
                    "tileloadd tmm4, [{wa} + {k}*1]",
                    "tileloadd tmm6, [{ba} + {bs}*1]",
                    "tdpbssd tmm0, tmm4, tmm6",
                    "tileloadd tmm5, [{wb} + {k}*1]",
                    "tdpbssd tmm2, tmm5, tmm6",
                    wa = in(reg) wa,
                    wb = in(reg) wb,
                    ba = in(reg) ba,
                    k = in(reg) k,
                    bs = in(reg) TILE_K,
                    options(nostack, readonly)
                );
            }
        }
        // tmm0/tmm1: weight columns 0–15 for groups g, g+1; tmm2/tmm3:
        // columns 16–31.
        asm!(
            "tilestored [{a0} + {bs}*1], tmm0",
            "tilestored [{a1} + {bs}*1], tmm1",
            "tilestored [{h0} + {bs}*1], tmm2",
            "tilestored [{h1} + {bs}*1], tmm3",
            a0 = in(reg) acc[0].0.as_mut_ptr(),
            a1 = in(reg) acc[1].0.as_mut_ptr(),
            h0 = in(reg) acc_hi[0].0.as_mut_ptr(),
            h1 = in(reg) acc_hi[1].0.as_mut_ptr(),
            bs = in(reg) TILE_K,
            options(nostack)
        );
        for gg in 0..if pair { 2 } else { 1 } {
            let first = (g + gg) * TILE;
            let valid = TILE.min(rows - first);
            store(first, valid, 0, &acc[gg]);
            store(first, valid, 1, &acc_hi[gg]);
        }
        g += if pair { 2 } else { 1 };
    }
}

/// A [`RequantEpilogue`] as AVX-512 constants: each call of [`row`]
/// takes one activation row's 16 i32 sums in a zmm register and returns
/// its 16 output bytes — the saturating bias add, the [`LaneStages`] as
/// lane arithmetic, the `vpmovsdb` saturating narrow, then the
/// activation ROM as two `vpermi2b` table reads (entries 0–127 and
/// 128–255, each indexed by the code's low seven bits) and a blend on
/// the code's sign bit. Byte-identical to [`LaneRequant`]'s scalar lane
/// code, stage for stage.
///
/// [`row`]: RowRequant::row
/// [`LaneRequant`]: protea_fixed::LaneRequant
struct RowRequant {
    /// The reciprocal and the shift of the 64-bit products.
    div: Option<(__m512i, __m128i)>,
    pre: Option<LaneShift>,
    post: LaneShift,
    /// The left shift's count, when there is one.
    left: Option<__m128i>,
    rom: Option<[__m512i; 4]>,
}

/// A [`RoundShift`] broadcast to every lane.
#[derive(Clone, Copy)]
struct LaneShift {
    sh: __m128i,
    low_mask: __m512i,
    add: __m512i,
    odd: __m512i,
}

impl LaneShift {
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn new(s: RoundShift) -> Self {
        let lane = |v: u32| _mm512_set1_epi32(v.cast_signed());
        Self {
            sh: _mm_cvtsi32_si128(s.sh.cast_signed()),
            low_mask: lane(s.low_mask),
            add: lane(s.add),
            odd: lane(s.odd),
        }
    }

    /// `floor(x / 2^sh)` plus the rounding carry, in u32 lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn apply(&self, x: __m512i) -> __m512i {
        let floor = _mm512_sra_epi32(x, self.sh);
        let low = _mm512_and_si512(x, self.low_mask);
        let odd = _mm512_and_si512(floor, self.odd);
        let carry =
            _mm512_srl_epi32(_mm512_add_epi32(_mm512_add_epi32(low, self.add), odd), self.sh);
        _mm512_add_epi32(floor, carry)
    }
}

impl RowRequant {
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn new(epi: &RequantEpilogue<'_>) -> Self {
        let LaneStages { div, pre, post, left } = epi.rq.stages();
        let rom = epi.act.map(|act| {
            let t = act.table();
            // SAFETY: each load reads 64 of the table's 256 bytes.
            core::array::from_fn(|q| unsafe { _mm512_loadu_si512(t.as_ptr().add(64 * q).cast()) })
        });
        Self {
            div: div.map(|d| {
                (_mm512_set1_epi32(d.mul.cast_signed()), _mm_cvtsi32_si128(d.shift.cast_signed()))
            }),
            pre: pre.map(|p| LaneShift::new(p)),
            post: LaneShift::new(post),
            left: (left > 0).then(|| _mm_cvtsi32_si128(left.cast_signed())),
            rom,
        }
    }

    /// One row of 16 sums `x`, with the 16 columns' `bias`, to 16 bytes.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    fn row(&self, x: __m512i, bias: Option<__m512i>) -> __m128i {
        let mut x = x;
        if let Some(b) = bias {
            // The add overflows where x and b share a sign the sum lacks;
            // it then saturates toward x's sign.
            let sum = _mm512_add_epi32(x, b);
            let flip = _mm512_and_si512(_mm512_xor_si512(sum, x), _mm512_xor_si512(sum, b));
            let over = _mm512_cmplt_epi32_mask(flip, _mm512_setzero_si512());
            let sat = _mm512_xor_si512(_mm512_srai_epi32::<31>(x), _mm512_set1_epi32(i32::MAX));
            x = _mm512_mask_blend_epi32(over, sum, sat);
        }
        if let Some((mul, shift)) = self.div {
            // |x|·m >> shift per 64-bit product, even and odd lanes
            // apart; every quotient fits the low 32 bits.
            let ax = _mm512_abs_epi32(x);
            let even = _mm512_srl_epi64(_mm512_mul_epu32(ax, mul), shift);
            let odd = _mm512_srl_epi64(_mm512_mul_epu32(_mm512_srli_epi64::<32>(ax), mul), shift);
            let q = _mm512_mask_blend_epi32(0xAAAA, even, _mm512_slli_epi64::<32>(odd));
            let sign = _mm512_srai_epi32::<31>(x);
            x = _mm512_sub_epi32(_mm512_xor_si512(q, sign), sign);
        }
        if let Some(pre) = &self.pre {
            x = pre.apply(x);
        }
        x = match self.left {
            Some(left) => {
                // Clamping to 9 bits first keeps the (≤ 8-bit) shift
                // inside i32 without changing which values saturate.
                let x = _mm512_min_epi32(
                    _mm512_max_epi32(x, _mm512_set1_epi32(-256)),
                    _mm512_set1_epi32(255),
                );
                _mm512_sll_epi32(x, left)
            }
            None => self.post.apply(x),
        };
        let q = _mm512_cvtsepi32_epi8(x);
        match &self.rom {
            Some([t0, t1, t2, t3]) => {
                let idx = _mm512_castsi128_si512(q);
                let pos = _mm512_permutex2var_epi8(*t0, idx, *t1);
                let neg = _mm512_permutex2var_epi8(*t2, idx, *t3);
                _mm512_castsi512_si128(_mm512_mask_blend_epi8(_mm512_movepi8_mask(idx), pos, neg))
            }
            None => q,
        }
    }
}

/// [`RequantEpilogue::apply_matrix`] on AVX-512: every row of the
/// row-major accumulators `acc` (rows of `n`) through [`RowRequant::row`],
/// 16 columns at a time, the last chunk of a row masked.
///
/// # Panics
/// Panics if the host lacks AMX (whose probe covers the AVX-512 VBMI
/// this needs), or the slices or the bias disagree with `n`.
pub(crate) fn requant_rows(acc: &[i32], n: usize, epi: &RequantEpilogue<'_>, out: &mut [i8]) {
    assert!(amx_supported(), "AVX-512 row requant on a host without AMX");
    assert_eq!(acc.len(), out.len());
    assert!(n > 0 && acc.len().is_multiple_of(n));
    if let Some(b) = epi.bias {
        assert_eq!(b.len(), n, "bias length mismatch");
    }
    // SAFETY: the features were checked above; every masked load and
    // store touches only columns `j..j + w ≤ n` of one row of `acc`,
    // `out` and the bias, whose lengths were asserted.
    unsafe { requant_rows_avx512(acc, n, epi, out) }
}

/// # Safety
/// AVX-512 F, BW and VBMI must be present; `acc` and `out` must hold
/// whole rows of `n` and the bias (if any) `n` columns.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn requant_rows_avx512(acc: &[i32], n: usize, epi: &RequantEpilogue<'_>, out: &mut [i8]) {
    let rq = RowRequant::new(epi);
    for (a, o) in acc.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
        for j in (0..n).step_by(TILE) {
            let mask = u16::MAX >> (TILE - TILE.min(n - j));
            let x = _mm512_maskz_loadu_epi32(mask, a.as_ptr().add(j));
            let bias = epi.bias.map(|b| _mm512_maskz_loadu_epi32(mask, b.as_ptr().add(j)));
            _mm_mask_storeu_epi8(o.as_mut_ptr().add(j), mask, rq.row(x, bias));
        }
    }
}

/// [`super::softmax_rows`] on AVX-512 F and BW: 64 logits per row-max
/// step, 32 ROM reads per step as two-source word permutes, 16
/// probabilities per normalization step.
///
/// # Panics
/// Panics if the host lacks AVX-512 F or BW, or the slices do not hold
/// whole rows of `cols ≤ SOFTMAX_MAX_LEN`.
pub(crate) fn softmax_rows(table: &[u16; 256], logits: &[i8], cols: usize, out: &mut [i8]) {
    assert!(
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw"),
        "AVX-512 softmax on a host without AVX-512 BW"
    );
    assert_eq!(logits.len(), out.len());
    assert!(cols > 0 && cols <= SOFTMAX_MAX_LEN && logits.len().is_multiple_of(cols));
    // SAFETY: the features and the shapes were checked above; see the
    // function's contract.
    unsafe { softmax_rows_avx512(table, logits, cols, out) }
}

/// # Safety
/// AVX-512 F and BW must be present; `logits` and `out` must hold whole
/// rows of `cols`, `0 < cols ≤ SOFTMAX_MAX_LEN`. Every row load and
/// store is masked to the row's `cols` bytes, and the exponential
/// buffer's whole 32-word steps end within its `SOFTMAX_MAX_LEN` words.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn softmax_rows_avx512(table: &[u16; 256], logits: &[i8], cols: usize, out: &mut [i8]) {
    // x − max ∈ [−128, 0] reads the ROM's code 0 or its negative half,
    // `table[128..256]`: four 32-word vectors, two word permutes with a
    // 6-bit index and a blend on bit 6 of `x − max + 128`.
    let half: [__m512i; 4] =
        core::array::from_fn(|q| _mm512_loadu_si512(table.as_ptr().add(128 + 32 * q).cast()));
    let at_max = _mm512_set1_epi16(table[0].cast_signed());
    let mut exps = [0u16; SOFTMAX_MAX_LEN];
    for (row, probs) in logits.chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
        // Row max; masked-off bytes keep the running max.
        let mut mx = _mm512_set1_epi8(i8::MIN);
        for j in (0..cols).step_by(64) {
            let mask = u64::MAX >> (64 - 64.min(cols - j));
            mx = _mm512_max_epi8(mx, _mm512_mask_loadu_epi8(mx, mask, row.as_ptr().add(j)));
        }
        let m256 = _mm256_max_epi8(_mm512_castsi512_si256(mx), _mm512_extracti64x4_epi64::<1>(mx));
        let m128 = _mm_max_epi8(_mm256_castsi256_si128(m256), _mm256_extracti128_si256::<1>(m256));
        let max = _mm512_set1_epi16(_mm512_reduce_max_epi32(_mm512_cvtepi8_epi32(m128)) as i16);
        // ROM reads and their u32 sum; masked-off words read as 0.
        let mut acc = _mm512_setzero_si512();
        for j in (0..cols).step_by(32) {
            let mask = u32::MAX >> (32 - 32.min(cols - j));
            let bytes = _mm512_maskz_loadu_epi8(u64::from(mask), row.as_ptr().add(j));
            let x = _mm512_cvtepi8_epi16(_mm512_castsi512_si256(bytes));
            let d = _mm512_max_epi16(_mm512_sub_epi16(x, max), _mm512_set1_epi16(-128));
            let idx = _mm512_add_epi16(d, _mm512_set1_epi16(128));
            let lo = _mm512_permutex2var_epi16(half[0], idx, half[1]);
            let hi = _mm512_permutex2var_epi16(half[2], idx, half[3]);
            let e =
                _mm512_mask_blend_epi16(_mm512_test_epi16_mask(idx, _mm512_set1_epi16(64)), lo, hi);
            let e = _mm512_mask_blend_epi16(
                _mm512_cmpeq_epi16_mask(d, _mm512_setzero_si512()),
                e,
                at_max,
            );
            let e = _mm512_maskz_mov_epi16(mask, e);
            _mm512_storeu_si512(exps.as_mut_ptr().add(j).cast(), e);
            let pair = _mm512_add_epi32(
                _mm512_and_si512(e, _mm512_set1_epi32(0xFFFF)),
                _mm512_srli_epi32::<16>(e),
            );
            acc = _mm512_add_epi32(acc, pair);
        }
        let sum = _mm512_reduce_add_epi32(acc).cast_unsigned();
        let m = (1u64 << 52) / u64::from(sum) + 1;
        // ⌊a·m / 2⁵²⌋ with m = mh·2³² + ml is ⌊(⌊a·ml / 2³²⌋ + a·mh) / 2²⁰⌋:
        // the high halves of the u32 products a·ml, even and odd lanes
        // apart, plus a·mh < 2²⁸ (mh ≤ 32), all in u32 lanes.
        let ml = _mm512_set1_epi32((m as u32).cast_signed());
        let mh = _mm512_set1_epi32(((m >> 32) as u32).cast_signed());
        for j in (0..cols).step_by(16) {
            let mask = u16::MAX >> (16 - 16.min(cols - j));
            let e = _mm256_loadu_si256(exps.as_ptr().add(j).cast());
            let a = _mm512_slli_epi32::<7>(_mm512_cvtepu16_epi32(e));
            let even = _mm512_srli_epi64::<32>(_mm512_mul_epu32(a, ml));
            let odd = _mm512_mul_epu32(_mm512_srli_epi64::<32>(a), ml);
            let high = _mm512_mask_blend_epi32(0xAAAA, even, odd);
            let q = _mm512_srli_epi32::<20>(_mm512_add_epi32(high, _mm512_mullo_epi32(a, mh)));
            let p = _mm512_cvtepi32_epi8(_mm512_min_epu32(q, _mm512_set1_epi32(127)));
            _mm512_mask_storeu_epi8(
                probs.as_mut_ptr().add(j),
                u64::from(mask),
                _mm512_castsi128_si512(p),
            );
        }
    }
}

/// Store the transpose of the accumulator tile `c` — row `j` holds
/// weight column `j`'s sums over the 16 activation rows — as activation
/// rows: `lo[r]` gets row `r`'s sums for weight columns 0–7, `hi[r]`
/// for columns 8–15. The first two rounds of [`transpose16`] leave each
/// 128-bit lane holding four rows of one column; two-source qword
/// permutes then pair those lanes into the 8-column halves, two
/// activation rows per register, so each store writes two adjacent
/// `[i32; CB]` rows (64 shuffles and 16 stores per tile).
///
/// # Safety
/// AVX-512F must be present; `lo` and `hi` must hold 16 rows each.
#[target_feature(enable = "avx512f")]
unsafe fn store_transposed(c: &AccTile, lo: &mut [[i32; CB]], hi: &mut [[i32; CB]]) {
    // Lanes 0 and 1 (or 2 and 3) of `a` and `b`, interleaved:
    // [a.L, b.L, a.L', b.L'].
    const LANES_01: [i64; 8] = [0, 1, 8, 9, 2, 3, 10, 11];
    const LANES_23: [i64; 8] = [4, 5, 12, 13, 6, 7, 14, 15];
    let r: [__m512i; TILE] =
        core::array::from_fn(|j| _mm512_loadu_si512(c.0.as_ptr().add(j * TILE).cast()));
    let u = transpose16_lanes(r);
    let idx01 = _mm512_loadu_si512(LANES_01.as_ptr().cast());
    let idx23 = _mm512_loadu_si512(LANES_23.as_ptr().cast());
    for (out, base) in [(lo, 0), (hi, 8)] {
        // u[base + x] and u[base + 4 + x] hold columns x, 4 + x, 8 + x,
        // 12 + x (one per lane) of rows base..base + 4 and base + 4..
        // base + 8: so `p01[x]` is [row x, row 4 + x] and `p23[x]`
        // [row 8 + x, row 12 + x] of this 8-column half.
        let p01: [__m512i; 4] = core::array::from_fn(|x| {
            _mm512_permutex2var_epi64(u[base + x], idx01, u[base + 4 + x])
        });
        let p23: [__m512i; 4] = core::array::from_fn(|x| {
            _mm512_permutex2var_epi64(u[base + x], idx23, u[base + 4 + x])
        });
        let o = out.as_mut_ptr();
        for x in [0, 2] {
            for (p, row) in [(&p01, x), (&p23, 8 + x)] {
                let near = _mm512_shuffle_i64x2::<0b01_00_01_00>(p[x], p[x + 1]);
                let far = _mm512_shuffle_i64x2::<0b11_10_11_10>(p[x], p[x + 1]);
                _mm512_storeu_si512(o.add(row).cast(), near);
                _mm512_storeu_si512(o.add(row + 4).cast(), far);
            }
        }
    }
}

/// The first two rounds of [`transpose16`]: lane `L` of result
/// `4q + c` holds rows `4q..4q+4` of column `4L + c`.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose16_lanes(r: [__m512i; TILE]) -> [__m512i; TILE] {
    // Lane L of t[2i] / t[2i+1]: rows 2i, 2i+1 at columns 4L..4L+1 /
    // 4L+2..4L+3, interleaved.
    let t: [__m512i; TILE] = core::array::from_fn(|i| {
        let (a, b) = (r[i & !1], r[i | 1]);
        if i % 2 == 0 {
            _mm512_unpacklo_epi32(a, b)
        } else {
            _mm512_unpackhi_epi32(a, b)
        }
    });
    core::array::from_fn(|i| {
        let (q, c) = (i / 4, i % 4);
        let (a, b) = (t[4 * q + c / 2], t[4 * q + 2 + c / 2]);
        if c % 2 == 0 {
            _mm512_unpacklo_epi64(a, b)
        } else {
            _mm512_unpackhi_epi64(a, b)
        }
    })
}

/// Transpose a 16 × 16 matrix of i32 held one row per register:
/// dword pairs, then qword pairs, then two rounds of 128-bit lanes
/// (64 shuffles).
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose16(r: [__m512i; TILE]) -> [__m512i; TILE] {
    let u = transpose16_lanes(r);
    // v[8h + 4j + c] for row half h (rows 8h..8h+8) and column c + 4j:
    // lanes [rows 8h..+4 col c+4j, rows 8h..+4 col c+4j+8, rows 8h+4..+8
    // col c+4j, rows 8h+4..+8 col c+4j+8].
    let v: [__m512i; TILE] = core::array::from_fn(|i| {
        let (h, j, c) = (i / 8, (i / 4) % 2, i % 4);
        let (a, b) = (u[8 * h + c], u[8 * h + 4 + c]);
        if j == 0 {
            _mm512_shuffle_i32x4::<0b10_00_10_00>(a, b)
        } else {
            _mm512_shuffle_i32x4::<0b11_01_11_01>(a, b)
        }
    });
    // Column n = c + 4j + 8m: the four row quarters in order.
    core::array::from_fn(|n| {
        let (m, j, c) = (n / 8, (n / 4) % 2, n % 4);
        let (a, b) = (v[4 * j + c], v[8 + 4 * j + c]);
        if m == 0 {
            _mm512_shuffle_i32x4::<0b10_00_10_00>(a, b)
        } else {
            _mm512_shuffle_i32x4::<0b11_01_11_01>(a, b)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::portable::mk_scalar;

    #[test]
    fn avx_variants_match_scalar_when_supported() {
        for k in [0usize, 5, 16, 31, 32, 49, 160] {
            let a: Vec<i16> = (0..k).map(|i| ((i * 91 + 17) % 255) as i16 - 127).collect();
            let w: Vec<i16> = (0..CB * k).map(|i| ((i * 53 + 5) % 255) as i16 - 127).collect();
            let want = mk_scalar(&a, &w, k);
            if std::arch::is_x86_feature_detected!("avx2") {
                assert_eq!(unsafe { mk_avx2(&a, &w, k) }, want, "avx2 k={k}");
            }
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
            {
                assert_eq!(unsafe { mk_avx512(&a, &w, k) }, want, "avx512 k={k}");
            }
        }
    }

    #[test]
    fn vnni_block_matches_scalar_when_supported() {
        if !vnni_supported() {
            return;
        }
        // Both tile heights (MR and the 1-row remainder), full and
        // masked 64-byte steps, and the empty reduction.
        for k in [0usize, 1, 63, 64, 65, 96, 200] {
            let w: Vec<i8> = (0..CB * k).map(|i| ((i * 53 + 5) % 256) as u8 as i8).collect();
            let col_sums: Vec<i32> = (0..CB)
                .map(|c| w[c * k..(c + 1) * k].iter().map(|&x| i32::from(x)).sum())
                .collect();
            let w16: Vec<i16> = w.iter().map(|&x| i16::from(x)).collect();
            for rows in 0..=2 * MR + 1 {
                let a: Vec<i8> = (0..rows * k).map(|i| ((i * 91 + 17) % 256) as u8 as i8).collect();
                let a8: Vec<u8> = a.iter().map(|&x| x.cast_unsigned() ^ 0x80).collect();
                let mut sums = vec![[0i32; CB]; rows];
                mk_vnni_block(&a8, k, &w, &col_sums, &mut sums);
                for (r, got) in sums.iter().enumerate() {
                    let arow: Vec<i16> =
                        a[r * k..(r + 1) * k].iter().map(|&x| i16::from(x)).collect();
                    assert_eq!(*got, mk_scalar(&arow, &w16, k), "vnni k={k} rows={rows} row={r}");
                }
            }
        }
    }

    #[test]
    fn amx_tiles_match_scalar_when_supported() {
        if !amx_supported() {
            return;
        }
        // One and two tile steps; a whole group, a ragged second group
        // (2 × 1 half block), and a pair plus a ragged third group.
        for k in [64usize, 128] {
            let w: Vec<i8> = (0..AMX_NB * k).map(|i| ((i * 53 + 5) % 256) as u8 as i8).collect();
            let w16: Vec<i16> = w.iter().map(|&x| i16::from(x)).collect();
            for rows in [16usize, 17, 33] {
                let a: Vec<i8> = (0..rows * k).map(|i| ((i * 91 + 17) % 256) as u8 as i8).collect();
                let mut sums = vec![[0i32; CB]; AMX_NB / CB * rows];
                AmxTiles::new(&a, rows, k).block(&w, &mut sums);
                for (c, block) in sums.chunks_exact(rows).enumerate() {
                    let wc = &w16[c * CB * k..(c + 1) * CB * k];
                    for (r, got) in block.iter().enumerate() {
                        let arow: Vec<i16> =
                            a[r * k..(r + 1) * k].iter().map(|&x| i16::from(x)).collect();
                        assert_eq!(*got, mk_scalar(&arow, wc, k), "k={k} rows={rows} c={c} r={r}");
                    }
                }
            }
        }
    }
}
