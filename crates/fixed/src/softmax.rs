//! LUT-based fixed-point softmax.
//!
//! The paper: "The softmax function, implemented in HLS, utilizes LUTs and
//! flip-flops to compute the result." The standard hardware recipe — and
//! what we model bit-exactly — is:
//!
//! 1. row max (for range safety; keeps every exponent argument ≤ 0),
//! 2. `exp(x - max)` via a 256-entry lookup table indexed by the raw 8-bit
//!    difference (the table is burned into LUTs at synthesis, one per
//!    input format),
//! 3. integer sum of the table outputs,
//! 4. normalization `⌊exp_i · 2⁷ / sum⌋`, clamped to 127, as a u64
//!    reciprocal multiply resolved once per row: `m = ⌊2⁵² / sum⌋ + 1`,
//!    then each element is `(exp_i · 2⁷ · m) >> 52`.
//!
//! Why that floor is exact: the ROM returns `e ≤ 2¹⁵` and the row max
//! reads exactly `2¹⁵`, so `2¹⁵ ≤ sum ≤ 512·2¹⁵ < 2²⁵` and
//! `m ≤ 2³⁷ + 1`; with `a = e·2⁷ ≤ 2²²` the product `a·m < 2⁶⁰` fits
//! u64. As `2⁵²/sum < m ≤ 2⁵²/sum + 1`, `a·m/2⁵²` exceeds `a/sum` by
//! more than 0 and at most `a/2⁵² ≤ 2⁻³⁰`. The fraction of `a/sum` is a
//! multiple of `1/sum` below 1, so at most `1 − 1/sum < 1 − 2⁻²⁵`, and
//! an excess below `2⁻³⁰` never carries it to the next integer.
//!
//! Output probabilities are Q0.7 (`i8`, 7 fractional bits), the natural
//! format for values in `[0, 1)`.
//!
//! [`SoftmaxUnit::forward_row`] is the golden oracle, and
//! `tests/norm_exact.rs` checks it against the per-element division.
//! The host datapaths call `protea_tensor::kernels::softmax_rows`: on
//! the AVX-512 kernels it runs these numerics in zmm lanes, reading the
//! ROM through [`ExpLut::table`]; on every other ISA it calls this unit.

use crate::qformat::QFormat;

/// Number of entries in the exponential lookup table (one per i8 code).
pub const EXP_LUT_SIZE: usize = 256;

/// Fractional bits of the LUT output (u16 storage, Q0.15-ish unsigned).
pub const EXP_OUT_FRAC: u8 = 15;

/// The longest row the softmax unit takes (the hardware's `SL_max`): it
/// bounds a row's exponential sum by `512 · 2¹⁵ = 2²⁴`.
pub const SOFTMAX_MAX_LEN: usize = 512;

/// A synthesized exponential lookup table for a given input format.
///
/// Entry `i` holds `round(exp(value_of(i as i8)) * 2^15)` for non-positive
/// inputs, clamped to `2^15` (exp(0) = 1.0). Positive inputs never occur
/// after max-subtraction but are clamped to 1.0 defensively, exactly as a
/// synthesized ROM would saturate.
#[derive(Debug, Clone)]
pub struct ExpLut {
    table: Box<[u16; EXP_LUT_SIZE]>,
}

impl ExpLut {
    /// Build the ROM contents for inputs interpreted in `input_fmt`.
    #[must_use]
    pub fn new(input_fmt: QFormat) -> Self {
        assert_eq!(input_fmt.total_bits(), 8, "softmax LUT takes 8-bit inputs");
        let mut table = Box::new([0u16; EXP_LUT_SIZE]);
        let one = 1u32 << EXP_OUT_FRAC;
        for (i, slot) in table.iter_mut().enumerate() {
            let raw = i as u8 as i8;
            let x = input_fmt.raw_to_real(i64::from(raw));
            let e = if x >= 0.0 { 1.0 } else { x.exp() };
            *slot = ((e * f64::from(one)).round() as u32).min(u32::from(u16::MAX)) as u16;
        }
        Self { table }
    }

    /// Look up `exp(x)` for a raw 8-bit input. Pure combinational read.
    #[must_use]
    pub fn lookup(&self, raw: i8) -> u16 {
        self.table[raw as u8 as usize]
    }

    /// The ROM contents, indexed by the input code as a `u8` (entries
    /// 128–255 hold the negative inputs). Every entry is at most
    /// `2^EXP_OUT_FRAC`.
    #[must_use]
    pub fn table(&self) -> &[u16; EXP_LUT_SIZE] {
        &self.table
    }
}

/// The softmax functional unit: one per attention head in ProTEA.
#[derive(Debug, Clone)]
pub struct SoftmaxUnit {
    lut: ExpLut,
}

impl SoftmaxUnit {
    /// Build a unit whose ROM matches `input_fmt`.
    #[must_use]
    pub fn new(input_fmt: QFormat) -> Self {
        Self { lut: ExpLut::new(input_fmt) }
    }

    /// The exponential ROM this unit reads.
    #[must_use]
    pub fn lut(&self) -> &ExpLut {
        &self.lut
    }

    /// The output probability format (Q0.7).
    #[must_use]
    pub fn output_format(&self) -> QFormat {
        QFormat::q8_prob()
    }

    /// Softmax over one row of raw attention logits, writing Q0.7
    /// probabilities. `out.len()` must equal `row.len()`.
    pub fn forward_row(&self, row: &[i8], out: &mut [i8]) {
        assert_eq!(row.len(), out.len());
        if row.is_empty() {
            return;
        }
        let max = row.iter().copied().max().expect("non-empty row");
        // Exponentials of (x - max): differences saturate at i8 range,
        // which the LUT covers (exp of anything ≤ -4 in Q2.5 is ~0 anyway).
        let mut sum: u32 = 0;
        let mut exps = [0u16; SOFTMAX_MAX_LEN];
        assert!(row.len() <= exps.len(), "row longer than hardware SL_max");
        for (e, &x) in exps.iter_mut().zip(row.iter()) {
            let diff = i16::from(x) - i16::from(max);
            let raw = diff.clamp(-128, 127) as i8;
            *e = self.lut.lookup(raw);
            sum += u32::from(*e);
        }
        // Normalize: p = ⌊e · 128 / sum⌋, clamped to Q0.7 max (127), by
        // the row's reciprocal ⌊2⁵² / sum⌋ + 1 (module docs, step 4).
        // sum ≥ exp(0) = 2^15 always, since the max element maps to 1.0.
        let recip = (1u64 << 52) / u64::from(sum) + 1;
        for (o, &e) in out.iter_mut().zip(exps.iter().take(row.len())) {
            *o = (((u64::from(e) << 7) * recip) >> 52).min(127) as i8;
        }
    }

    /// Masked softmax over one row: positions at index ≥ `valid` receive
    /// zero probability and take no part in the normalization — the
    /// decoder's causal mask ("Mask(…)" in equation (1)), realized in
    /// hardware as a comparator gating the exponential lookup.
    pub fn forward_row_masked(&self, row: &[i8], valid: usize, out: &mut [i8]) {
        assert_eq!(row.len(), out.len());
        let valid = valid.min(row.len());
        if valid == 0 {
            out.fill(0);
            return;
        }
        self.forward_row(&row[..valid], &mut out[..valid]);
        out[valid..].fill(0);
    }

    /// Softmax over a row-major `rows × cols` matrix in place.
    pub fn forward_matrix(&self, data: &[i8], cols: usize, out: &mut [i8]) {
        assert_eq!(data.len(), out.len());
        assert!(cols > 0 && data.len().is_multiple_of(cols), "matrix shape mismatch");
        for (r_in, r_out) in data.chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
            self.forward_row(r_in, r_out);
        }
    }
}

/// Convenience: softmax of a row with a freshly built LUT. Prefer keeping a
/// [`SoftmaxUnit`] around; this exists for tests and examples.
#[must_use]
pub fn softmax_fixed(row: &[i8], input_fmt: QFormat) -> Vec<i8> {
    let unit = SoftmaxUnit::new(input_fmt);
    let mut out = vec![0i8; row.len()];
    unit.forward_row(row, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt() -> QFormat {
        QFormat::new(8, 5)
    }

    #[test]
    fn lut_is_monotone_nonpositive_side() {
        let lut = ExpLut::new(fmt());
        // raw -128..=0 maps to increasing exp values.
        let mut prev = 0u16;
        for raw in -128i16..=0 {
            let v = lut.lookup(raw as i8);
            assert!(v >= prev, "lut not monotone at {raw}");
            prev = v;
        }
        assert_eq!(lut.lookup(0), 1 << EXP_OUT_FRAC);
    }

    #[test]
    fn lut_clamps_positive_inputs_to_one() {
        let lut = ExpLut::new(fmt());
        for raw in 1i16..=127 {
            assert_eq!(lut.lookup(raw as i8), 1 << EXP_OUT_FRAC);
        }
    }

    #[test]
    fn probabilities_sum_close_to_one() {
        let unit = SoftmaxUnit::new(fmt());
        let row: Vec<i8> = vec![10, -3, 64, 0, -128, 127, 5, 5];
        let mut out = vec![0i8; row.len()];
        unit.forward_row(&row, &mut out);
        let total: i32 = out.iter().map(|&p| i32::from(p)).sum();
        // Q0.7: 1.0 == 128. Flooring division loses < 1 LSB per element.
        assert!((total - 128).unsigned_abs() as usize <= row.len(), "sum = {total}");
        assert!(out.iter().all(|&p| p >= 0));
    }

    #[test]
    fn uniform_input_gives_uniform_output() {
        let unit = SoftmaxUnit::new(fmt());
        let row = vec![7i8; 8];
        let mut out = vec![0i8; 8];
        unit.forward_row(&row, &mut out);
        assert!(out.iter().all(|&p| p == out[0]));
        assert_eq!(out[0], 16); // 128/8
    }

    #[test]
    fn dominant_logit_takes_nearly_all_mass() {
        // Use Q4.3 so the representable logit gap (±16) makes the
        // non-dominant exponentials vanish at 16-bit LUT resolution.
        let wide = QFormat::new(8, 3);
        let unit = SoftmaxUnit::new(wide);
        let mut row = vec![-128i8; 16];
        row[3] = 127;
        let mut out = vec![0i8; 16];
        unit.forward_row(&row, &mut out);
        assert!(out[3] >= 120, "dominant got {}", out[3]);
        assert!(out.iter().enumerate().all(|(i, &p)| i == 3 || p <= 1));
    }

    #[test]
    fn narrow_format_dominant_logit_still_argmax() {
        // In Q2.5 the representable gap saturates at −4, so the tail mass
        // is nonzero — but the dominant logit must still dwarf each other
        // element (hardware behaviour with a narrow logit format).
        let unit = SoftmaxUnit::new(fmt());
        let mut row = vec![-128i8; 16];
        row[3] = 127;
        let mut out = vec![0i8; 16];
        unit.forward_row(&row, &mut out);
        let rest_max = out.iter().enumerate().filter(|&(i, _)| i != 3).map(|(_, &p)| p).max();
        assert!(out[3] >= 10 * rest_max.unwrap_or(0).max(1));
    }

    #[test]
    fn matches_float_softmax_shape() {
        let unit = SoftmaxUnit::new(fmt());
        let row: Vec<i8> = vec![32, 16, 0, -16, -32, 48];
        let mut out = vec![0i8; row.len()];
        unit.forward_row(&row, &mut out);
        // float reference
        let xs: Vec<f64> = row.iter().map(|&r| fmt().raw_to_real(i64::from(r))).collect();
        let m = xs.iter().cloned().fold(f64::MIN, f64::max);
        let es: Vec<f64> = xs.iter().map(|x| (x - m).exp()).collect();
        let s: f64 = es.iter().sum();
        for (i, &p) in out.iter().enumerate() {
            let pf = f64::from(p) / 128.0;
            assert!((pf - es[i] / s).abs() < 0.02, "i={i} fixed={pf} float={}", es[i] / s);
        }
    }

    #[test]
    fn shift_invariance() {
        // softmax(x) == softmax(x + c) exactly, thanks to max subtraction.
        let unit = SoftmaxUnit::new(fmt());
        let row: Vec<i8> = vec![1, 2, 3, 4, 5];
        let shifted: Vec<i8> = row.iter().map(|&x| x + 40).collect();
        let mut a = vec![0i8; 5];
        let mut b = vec![0i8; 5];
        unit.forward_row(&row, &mut a);
        unit.forward_row(&shifted, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn matrix_forward_is_rowwise() {
        let unit = SoftmaxUnit::new(fmt());
        let data: Vec<i8> = vec![1, 2, 3, 4, 9, 8, 7, 6];
        let mut out = vec![0i8; 8];
        unit.forward_matrix(&data, 4, &mut out);
        let mut r0 = vec![0i8; 4];
        unit.forward_row(&data[..4], &mut r0);
        assert_eq!(&out[..4], &r0[..]);
    }

    #[test]
    fn empty_row_is_noop() {
        let unit = SoftmaxUnit::new(fmt());
        let mut out: Vec<i8> = vec![];
        unit.forward_row(&[], &mut out);
    }

    #[test]
    fn masked_softmax_zeroes_future_positions() {
        let unit = SoftmaxUnit::new(fmt());
        let row: Vec<i8> = vec![10, 20, 30, 40, 50, 60];
        let mut out = vec![0i8; 6];
        unit.forward_row_masked(&row, 3, &mut out);
        assert!(out[3..].iter().all(|&p| p == 0), "masked tail must be zero");
        let sum: i32 = out[..3].iter().map(|&p| i32::from(p)).sum();
        assert!((sum - 128).unsigned_abs() <= 3, "visible prefix normalizes: {sum}");
        // prefix must equal an unmasked softmax of the prefix
        let mut prefix = vec![0i8; 3];
        unit.forward_row(&row[..3], &mut prefix);
        assert_eq!(&out[..3], &prefix[..]);
    }

    #[test]
    fn masked_softmax_edge_valid_counts() {
        let unit = SoftmaxUnit::new(fmt());
        let row = vec![5i8; 4];
        let mut out = vec![0i8; 4];
        unit.forward_row_masked(&row, 0, &mut out);
        assert_eq!(out, vec![0; 4]);
        unit.forward_row_masked(&row, 1, &mut out);
        assert_eq!(out[0], 127); // all mass on the single visible position
        unit.forward_row_masked(&row, 99, &mut out); // valid beyond len clamps
        assert!(out.iter().all(|&p| p == 32));
    }
}
