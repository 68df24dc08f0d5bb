//! Integer layer normalization.
//!
//! ProTEA places a layer-normalization module after `FFN1_CE` and
//! `FFN3_CE` (each MHA and FFN sub-layer has residual + LN). The hardware
//! computes row mean, variance, an integer square root, and a reciprocal
//! multiply, all in fixed point with LUT/FF resources. This module is that
//! datapath, bit-exact and deterministic.
//!
//! The divisor is resolved once per row, not once per element. After the
//! row's mean `μ` and `σ = max(1, isqrt(var))` are known, the normalized
//! value `t = round((x − μ)·2⁸ / σ)` (ties away from zero) depends only on
//! the 8-bit input code `x`, so the unit fills a 256-entry table over the
//! codes, stepping the quotient and remainder by `2⁸ / σ` and `2⁸ mod σ`
//! per code — one division per row. The element loop is then a table
//! read, one multiply by γ, an add of β (aligned to the accumulator's
//! fraction once, at construction) and a branch-free round-to-nearest-even
//! shift. `|x − μ| ≤ 255` bounds `|t| ≤ 255·2⁸`, so
//! `|t·γ + β|` stays within an `i32` whenever β's alignment shift and the
//! output shift are small enough; [`LayerNormUnit::new`] checks that bound
//! from the formats and keeps an `i64` element loop for formats that do
//! not satisfy it.

use crate::qformat::QFormat;
use crate::rounding::Rounding;

/// Internal precision of the normalized intermediate (`(x-μ)/σ` in Q.8):
/// the normalized value of a layer-normed row is bounded by `±sqrt(n)` but
/// in practice ±8 covers it; Q8.8 in an i32 never overflows here.
pub const NORM_FRAC: u32 = 8;

/// Largest `|t|`: `|x − μ| ≤ 255` for i8 codes and `σ ≥ 1`.
const T_MAX: i64 = 255 << NORM_FRAC;

/// Elements per strip of the `i32` element loop.
const LN_STRIP: usize = 64;

/// Integer square root: largest `s` with `s² ≤ x`. Newton's method, exact.
#[must_use]
pub fn isqrt_u64(x: u64) -> u64 {
    if x < 2 {
        return x;
    }
    // Initial guess from float sqrt, then correct — float sqrt of u64 can
    // be off by a few ULP, so settle with exact integer steps.
    let mut s = (x as f64).sqrt() as u64;
    while s.checked_mul(s).is_none_or(|sq| sq > x) {
        s -= 1;
    }
    while (s + 1).checked_mul(s + 1).is_some_and(|sq| sq <= x) {
        s += 1;
    }
    s
}

/// A layer-normalization unit with quantized affine parameters.
#[derive(Debug, Clone)]
pub struct LayerNormUnit {
    gamma: Vec<i8>,
    beta: BetaAcc,
    /// Right shift from the accumulator fraction to the output fraction
    /// (negative: left shift).
    out_shift: i32,
    out_fmt: QFormat,
}

/// The `i32` affine step of a unit whose formats bound it, as the lane
/// data of a vector row kernel: `y = sat8(rne(t·γ + β, out_shift))`, with
/// `t` the row's normalized value ([`norm_table`]) and `rne` the
/// round-to-nearest-even right shift, exactly as
/// [`LayerNormUnit::forward_row`] runs it.
#[derive(Debug, Clone, Copy)]
pub struct NormLanes<'a> {
    /// γ per feature.
    pub gamma: &'a [i8],
    /// β per feature, aligned to the accumulator fraction.
    pub beta: &'a [i32],
    /// Right shift from the accumulator to the output fraction, below 31.
    pub out_shift: u32,
}

/// β per column, already aligned to the accumulator fraction
/// (`NORM_FRAC + γ_frac`), in the accumulator width the formats allow.
#[derive(Debug, Clone)]
enum BetaAcc {
    /// `t·γ + β` and its rounding provably fit an `i32`.
    Narrow(Vec<i32>),
    Wide(Vec<i64>),
}

impl LayerNormUnit {
    /// Build from quantized affine parameters. `gamma` and `beta` must have
    /// the same length (the feature dimension).
    #[must_use]
    pub fn new(
        gamma: Vec<i8>,
        beta: Vec<i8>,
        gamma_fmt: QFormat,
        beta_fmt: QFormat,
        out_fmt: QFormat,
    ) -> Self {
        assert_eq!(gamma.len(), beta.len(), "gamma/beta length mismatch");
        let acc_frac = NORM_FRAC as i32 + i32::from(gamma_fmt.frac_bits());
        let beta_shift = acc_frac - i32::from(beta_fmt.frac_bits());
        let aligned = beta.iter().map(|&b| shift_signed(i64::from(b), beta_shift));
        let out_shift = acc_frac - i32::from(out_fmt.frac_bits());
        // Worst case over every i8 γ/β code: |t·γ| + |β_acc|, plus the
        // rounding addend of the output shift.
        let beta_max = shift_signed(-128, beta_shift).abs();
        let bound = T_MAX * 128 + beta_max + (1i64 << out_shift.clamp(0, 62));
        let beta = if (0..31).contains(&out_shift) && bound <= i64::from(i32::MAX) {
            BetaAcc::Narrow(aligned.map(|b| b as i32).collect())
        } else {
            BetaAcc::Wide(aligned.collect())
        };
        Self { gamma, beta, out_shift, out_fmt }
    }

    /// An identity-affine unit (γ=1, β=0) over `dim` features.
    #[must_use]
    pub fn identity(dim: usize, out_fmt: QFormat) -> Self {
        let gamma_fmt = QFormat::new(8, 6); // 1.0 representable as 64
        let beta_fmt = QFormat::new(8, 6);
        Self::new(vec![64; dim], vec![0; dim], gamma_fmt, beta_fmt, out_fmt)
    }

    /// Feature dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.gamma.len()
    }

    /// Output format.
    #[must_use]
    pub fn output_format(&self) -> QFormat {
        self.out_fmt
    }

    /// The lane data of the `i32` affine step, or `None` when the
    /// formats need the `i64` step, whose rows stay on
    /// [`forward_row`](Self::forward_row).
    #[must_use]
    pub fn lanes(&self) -> Option<NormLanes<'_>> {
        match &self.beta {
            BetaAcc::Narrow(beta) => {
                Some(NormLanes { gamma: &self.gamma, beta, out_shift: self.out_shift as u32 })
            }
            BetaAcc::Wide(_) => None,
        }
    }

    /// Normalize one row in place (`row.len()` may be ≤ `dim()` when the
    /// runtime `d_model` is below the synthesized maximum; the affine
    /// parameters are indexed from 0). The input scale never enters:
    /// `(x − μ)/σ` cancels it.
    pub fn forward_row(&self, row: &mut [i8]) {
        assert!(row.len() <= self.dim(), "row exceeds synthesized dimension");
        let n = row.len();
        if n == 0 {
            return;
        }
        // Mean in raw units, rounded to nearest.
        let sum: i64 = row.iter().map(|&x| i64::from(x)).sum();
        let mean = div_round_nearest(sum, n as i64);
        // Variance in raw² units (biased, as hardware implements).
        let var: i64 = row
            .iter()
            .map(|&x| {
                let c = i64::from(x) - mean;
                c * c
            })
            .sum::<i64>()
            / n as i64;
        // Standard deviation in raw units; epsilon = keep σ ≥ 1 LSB, the
        // integer analogue of the float eps guard.
        let sigma = isqrt_u64(var as u64).max(1);
        // The rounded mean of i8 codes is itself an i8 code.
        let t = norm_table(mean as i8, sigma);
        let gamma = &self.gamma[..n];
        match &self.beta {
            BetaAcc::Narrow(beta) => {
                let sh = self.out_shift as u32;
                // Branch-free nearest-even: add `half − 1` plus the kept LSB.
                let (bias, lsb) = if sh > 0 { ((1i32 << (sh - 1)) - 1, 1) } else { (0, 0) };
                // Table reads first, then the affine step over the whole
                // strip with no loads in between, which keeps it
                // vectorizable and its clamp free of branches.
                let mut strip = [0i32; LN_STRIP];
                for ((xs, gs), bs) in
                    row.chunks_mut(LN_STRIP).zip(gamma.chunks(LN_STRIP)).zip(beta.chunks(LN_STRIP))
                {
                    let strip = &mut strip[..xs.len()];
                    for (tv, &x) in strip.iter_mut().zip(xs.iter()) {
                        *tv = t[x as u8 as usize];
                    }
                    for (((x, &tv), &g), &b) in xs.iter_mut().zip(strip.iter()).zip(gs).zip(bs) {
                        let acc = tv * i32::from(g) + b;
                        let y = (acc + bias + ((acc >> sh) & lsb)) >> sh;
                        *x = y.clamp(-128, 127) as i8;
                    }
                }
            }
            BetaAcc::Wide(beta) => {
                for ((x, &g), &b) in row.iter_mut().zip(gamma).zip(beta) {
                    let acc = i64::from(t[*x as u8 as usize]) * i64::from(g) + b;
                    *x = shift_round(acc, self.out_shift).clamp(-128, 127) as i8;
                }
            }
        }
    }
}

/// A row's rounded mean `μ` and `σ = max(1, isqrt(var))` from its length
/// `n > 0` and the sums `Σx`, `Σx²` of its i8 codes: the one-pass form of
/// [`LayerNormUnit::forward_row`]'s statistics. `μ` is `Σx/n` rounded to
/// nearest, ties away from zero, and the biased variance
/// `Σ(x − μ)²/n = (Σx² − 2μΣx + nμ²)/n` is exact in `i64`. Rows of i8
/// codes give `σ ≤ 127`.
#[must_use]
pub fn mean_sigma(n: usize, sum: i64, sum_sq: i64) -> (i8, u64) {
    let n = n as i64;
    let mean = div_round_nearest(sum, n);
    let var = (sum_sq - 2 * mean * sum + n * mean * mean) / n;
    (mean as i8, isqrt_u64(var as u64).max(1))
}

/// A row's normalized values `t(x) = round((x − μ)·2⁸ / σ)`, ties away
/// from zero, for every i8 code `x`, indexed by `x as u8`. `σ ≥ 1`. One
/// division: the quotient and remainder step by `2⁸ / σ` and `2⁸ mod σ`
/// per code, and `t` is odd in `x − μ`.
#[must_use]
pub fn norm_table(mean: i8, sigma: u64) -> [i32; 256] {
    assert!(sigma >= 1, "norm_table needs sigma >= 1");
    // Any σ > 2¹⁷ already rounds every |c|·2⁸ ≤ 65280 to 0.
    let sigma = sigma.min(1 << 32) as i64;
    let mean = i64::from(mean);
    let (above, below) = (127 - mean, mean + 128);
    let mut t = [0i32; 256];
    let (dq, dr) = ((1i64 << NORM_FRAC) / sigma, (1i64 << NORM_FRAC) % sigma);
    // c = 0: (0 + ⌊σ/2⌋) / σ = 0, remainder ⌊σ/2⌋.
    let (mut q, mut r) = (0i64, sigma / 2);
    for c in 0..=above.max(below) {
        if c > 0 {
            q += dq;
            r += dr;
            if r >= sigma {
                r -= sigma;
                q += 1;
            }
        }
        if c <= above {
            t[(mean + c) as i8 as u8 as usize] = q as i32;
        }
        if c <= below {
            t[(mean - c) as i8 as u8 as usize] = -q as i32;
        }
    }
    t
}

/// The u32 multiplier with which a row kernel divides by `σ` in place of
/// [`norm_table`]: for `2 ≤ σ < 2⁸`, `m = ⌊2³²/σ⌋ + 1`, and
/// `⌊a/σ⌋ = ⌊a·m / 2³²⌋` for every `a < 2¹⁶`. Proof: `m·σ = 2³² + e` with
/// `0 < e ≤ σ`, so `a·m / 2³² = a/σ + a·e/(σ·2³²)`, and the excess is
/// below `1/σ` because `a·σ < 2³²`: it never reaches the next multiple of
/// `1/σ`. The numerators of [`norm_table`]'s entries,
/// `|x − μ|·2⁸ + ⌊σ/2⌋`, are below 2¹⁶ for i8 codes. `None` for `σ = 1`,
/// where the quotient is `a` itself.
///
/// # Panics
/// Panics if `σ` is 0 or at least 2⁸.
#[must_use]
pub fn norm_reciprocal(sigma: u64) -> Option<u32> {
    assert!((1..1 << 8).contains(&sigma), "norm_reciprocal needs 1 <= sigma < 256");
    (sigma > 1).then(|| ((1u64 << 32) / sigma + 1) as u32)
}

/// `num/den` rounded to nearest, ties away from zero. `den > 0`.
fn div_round_nearest(num: i64, den: i64) -> i64 {
    debug_assert!(den > 0);
    let half = den / 2;
    if num >= 0 {
        (num + half) / den
    } else {
        (num - half) / den
    }
}

/// Shift left for positive `sh`, rounding right shift for negative.
fn shift_signed(v: i64, sh: i32) -> i64 {
    if sh >= 0 {
        v << sh.min(62)
    } else {
        Rounding::NearestEven.shift_right(v, (-sh) as u32)
    }
}

/// Right shift by `sh` with round-to-nearest-even (left shift if negative).
fn shift_round(v: i64, sh: i32) -> i64 {
    if sh > 0 {
        Rounding::NearestEven.shift_right(v, sh as u32)
    } else {
        v << (-sh).min(62)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q85() -> QFormat {
        QFormat::new(8, 5)
    }

    #[test]
    fn isqrt_exact_small() {
        for x in 0u64..2000 {
            let s = isqrt_u64(x);
            assert!(s * s <= x);
            assert!((s + 1) * (s + 1) > x);
        }
    }

    #[test]
    fn isqrt_large_values() {
        for &x in &[u64::MAX, u64::MAX - 1, 1u64 << 62, (1u64 << 32) - 1] {
            let s = isqrt_u64(x);
            assert!(s.checked_mul(s).is_some_and(|sq| sq <= x));
            assert!((s + 1).checked_mul(s + 1).is_none_or(|sq| sq > x));
        }
    }

    #[test]
    fn constant_row_normalizes_to_beta() {
        let unit = LayerNormUnit::identity(8, q85());
        let row = vec![42i8; 8];
        let mut out = row.clone();
        unit.forward_row(&mut out);
        // zero variance → centered values are 0 → output β = 0.
        assert!(out.iter().all(|&y| y == 0), "{out:?}");
    }

    #[test]
    fn output_mean_near_zero_identity_affine() {
        let unit = LayerNormUnit::identity(16, q85());
        let row: Vec<i8> = (0..16).map(|i| (i * 8 - 60) as i8).collect();
        let mut out = row.clone();
        unit.forward_row(&mut out);
        let mean: f64 = out.iter().map(|&y| f64::from(y)).sum::<f64>() / 16.0;
        assert!(mean.abs() < 4.0, "mean = {mean}");
    }

    #[test]
    fn matches_float_layernorm() {
        let unit = LayerNormUnit::identity(32, q85());
        let row: Vec<i8> = (0..32).map(|i| ((i * 37 % 101) as i8).wrapping_sub(50)).collect();
        let mut out = row.clone();
        unit.forward_row(&mut out);
        // float reference (on raw values; LN is scale-invariant)
        let xs: Vec<f64> = row.iter().map(|&x| f64::from(x)).collect();
        let m = xs.iter().sum::<f64>() / 32.0;
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / 32.0;
        let s = v.sqrt().max(1.0);
        for i in 0..32 {
            let expect = (xs[i] - m) / s;
            let got = unit.output_format().raw_to_real(i64::from(out[i]));
            assert!((got - expect).abs() < 0.15, "i={i} got={got} expect={expect}");
        }
    }

    #[test]
    fn affine_parameters_apply() {
        // γ = 2.0, β = 1.0 in Q1.6/Q1.6
        let gamma_fmt = QFormat::new(8, 5);
        let beta_fmt = QFormat::new(8, 5);
        let unit = LayerNormUnit::new(
            vec![64; 8], // 2.0 in Q.5
            vec![32; 8], // 1.0 in Q.5
            gamma_fmt,
            beta_fmt,
            QFormat::new(8, 4),
        );
        let row: Vec<i8> = vec![-40, -30, -20, -10, 10, 20, 30, 40];
        let mut out = row.clone();
        unit.forward_row(&mut out);
        // expectation: 2*(x-0)/σ + 1
        let v: f64 = row.iter().map(|&x| f64::from(x) * f64::from(x)).sum::<f64>() / 8.0;
        let s = v.sqrt();
        for i in 0..8 {
            let expect = 2.0 * f64::from(row[i]) / s + 1.0;
            let got = f64::from(out[i]) / 16.0;
            assert!((got - expect).abs() < 0.3, "i={i} got={got} expect={expect}");
        }
    }

    #[test]
    fn runtime_dim_below_synthesized_max() {
        let unit = LayerNormUnit::identity(768, q85());
        let row: Vec<i8> = (0..256).map(|i| (i % 100) as i8).collect();
        let mut out = row.clone();
        unit.forward_row(&mut out); // must not panic
    }

    #[test]
    #[should_panic(expected = "exceeds synthesized dimension")]
    fn over_dim_row_rejected() {
        let unit = LayerNormUnit::identity(4, q85());
        let row = vec![0i8; 8];
        let mut out = row.clone();
        unit.forward_row(&mut out);
    }

    #[test]
    fn formats_choose_the_i32_datapath_only_when_they_bound_it() {
        let unit = |g, b, o| {
            let f = |frac| QFormat::new(8, frac);
            LayerNormUnit::new(vec![-128; 4], vec![-128; 4], f(g), f(b), f(o))
        };
        // The paper's formats, a zero output shift, a rounding β shift.
        for (g, b, o) in [(5, 5, 5), (0, 0, 8), (5, 20, 3), (7, 0, 0)] {
            assert!(matches!(unit(g, b, o).beta, BetaAcc::Narrow(_)), "({g}, {b}, {o})");
        }
        // β aligned up past i32, an output left shift, both at once.
        for (g, b, o) in [(20, 0, 5), (0, 0, 20), (31, 0, 0)] {
            assert!(matches!(unit(g, b, o).beta, BetaAcc::Wide(_)), "({g}, {b}, {o})");
        }
        assert!(matches!(LayerNormUnit::identity(8, q85()).beta, BetaAcc::Narrow(_)));
    }

    #[test]
    fn div_round_nearest_behaviour() {
        assert_eq!(div_round_nearest(7, 2), 4);
        assert_eq!(div_round_nearest(-7, 2), -4);
        assert_eq!(div_round_nearest(6, 4), 2);
        assert_eq!(div_round_nearest(5, 10), 1);
    }
}
