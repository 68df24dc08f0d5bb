//! Explicit x86-64 microkernels: AVX2 (ymm) and AVX-512 (zmm)
//! `vpmaddwd` over the widened-i16 strips, and the AVX-512 VNNI
//! `vpdpbusd` kernel over the raw packed i8 strips.
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
//! which probes `is_x86_feature_detected!` before ever selecting these
//! variants — and (b) in-bounds pointers, discharged by the explicit
//! slice bounds asserted below.
#![allow(unsafe_code)]

use super::CB;

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{
    __m128i, __m256i, __m512i, _mm256_add_epi32, _mm256_castsi256_si128, _mm256_extracti128_si256,
    _mm256_loadu_si256, _mm256_madd_epi16, _mm256_setzero_si256, _mm256_slli_epi32,
    _mm256_storeu_si256, _mm256_sub_epi32, _mm512_add_epi32, _mm512_castsi512_si256,
    _mm512_dpbusd_epi32, _mm512_loadu_si512, _mm512_madd_epi16, _mm512_maskz_loadu_epi8,
    _mm512_reduce_add_epi32, _mm512_setzero_si512, _mm512_shuffle_i64x2, _mm512_unpackhi_epi32,
    _mm512_unpackhi_epi64, _mm512_unpacklo_epi32, _mm512_unpacklo_epi64, _mm_add_epi32,
    _mm_cvtsi128_si32, _mm_shuffle_epi32,
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
}
