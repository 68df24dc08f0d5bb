//! Per-tensor quantization: real data ↔ 8-bit fixed point.
//!
//! ProTEA's software driver quantizes trained weights offline ("data was
//! quantized to 8-bit fixed-point format"). With power-of-two scales the
//! quantization parameter is just a [`QFormat`], which keeps the hardware
//! requantization stage a pure shifter. The [`Quantizer`] selects the
//! format per tensor from its dynamic range.

use crate::qformat::QFormat;

/// Quantization parameters for one tensor: its storage format.
///
/// `value = raw * 2^-frac_bits`. Symmetric (zero-point-free) quantization,
/// as is standard for weight matrices and what a shifter-only datapath
/// requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantParams {
    fmt: QFormat,
}

impl QuantParams {
    /// Parameters using an explicit format.
    #[must_use]
    pub fn with_format(fmt: QFormat) -> Self {
        Self { fmt }
    }

    /// The storage format.
    #[must_use]
    pub fn format(self) -> QFormat {
        self.fmt
    }

    /// Quantize one real value.
    #[must_use]
    pub fn quantize(self, x: f32) -> i8 {
        self.fmt.real_to_raw(f64::from(x)) as i8
    }

    /// Dequantize one raw value.
    #[must_use]
    pub fn dequantize(self, raw: i8) -> f32 {
        self.fmt.raw_to_real(i64::from(raw)) as f32
    }
}

/// Chooses per-tensor formats and performs bulk conversions.
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    storage_bits: u8,
}

impl Default for Quantizer {
    fn default() -> Self {
        Self { storage_bits: 8 }
    }
}

impl Quantizer {
    /// A quantizer targeting `storage_bits`-wide storage.
    #[must_use]
    pub fn new(storage_bits: u8) -> Self {
        Self { storage_bits }
    }

    /// Choose the best-precision format that covers `data`'s range.
    #[must_use]
    pub fn calibrate(&self, data: &[f32]) -> QuantParams {
        let max_abs =
            data.iter().filter(|x| x.is_finite()).fold(0f64, |m, &x| m.max(f64::from(x).abs()));
        QuantParams::with_format(QFormat::fit(self.storage_bits, max_abs))
    }

    /// Calibrate on `data` and quantize it in one pass.
    #[must_use]
    pub fn quantize(&self, data: &[f32]) -> (Vec<i8>, QuantParams) {
        let params = self.calibrate(data);
        let mut out = Vec::with_capacity(data.len());
        out.extend(data.iter().map(|&x| params.quantize(x)));
        (out, params)
    }
}

/// Quantize a slice with explicit parameters.
#[must_use]
pub fn quantize_slice(data: &[f32], params: QuantParams) -> Vec<i8> {
    data.iter().map(|&x| params.quantize(x)).collect()
}

/// Dequantize a slice with explicit parameters.
#[must_use]
pub fn dequantize_slice(raw: &[i8], params: QuantParams) -> Vec<f32> {
    raw.iter().map(|&r| params.dequantize(r)).collect()
}

/// Signal-to-quantization-noise ratio in dB between a reference and a
/// reconstruction; used by accuracy tests and the quantization example.
#[must_use]
pub fn sqnr_db(reference: &[f32], reconstructed: &[f32]) -> f64 {
    assert_eq!(reference.len(), reconstructed.len());
    let (mut sig, mut noise) = (0f64, 0f64);
    for (&r, &q) in reference.iter().zip(reconstructed.iter()) {
        sig += f64::from(r) * f64::from(r);
        let e = f64::from(r) - f64::from(q);
        noise += e * e;
    }
    if noise == 0.0 {
        f64::INFINITY
    } else if sig == 0.0 {
        0.0
    } else {
        10.0 * (sig / noise).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrate_covers_range() {
        let data = [0.5f32, -1.75, 0.03, 1.2];
        let q = Quantizer::default();
        let params = q.calibrate(&data);
        assert!(params.format().real_max() >= 1.75);
        // and is the tightest such: doubling frac would not cover.
        let tighter = QFormat::new(8, params.format().frac_bits() + 1);
        assert!(tighter.real_max() < 1.75);
    }

    #[test]
    fn quantize_dequantize_error_bounded() {
        let data: Vec<f32> = (0..256).map(|i| ((i as f32) - 128.0) / 43.7).collect();
        let (raw, params) = Quantizer::default().quantize(&data);
        let back = dequantize_slice(&raw, params);
        let lsb = params.format().lsb() as f32;
        for (x, y) in data.iter().zip(back.iter()) {
            assert!((x - y).abs() <= lsb / 2.0 + 1e-6, "x={x} y={y}");
        }
    }

    #[test]
    fn nonfinite_inputs_do_not_poison_calibration() {
        let data = [1.0f32, f32::NAN, f32::INFINITY, -0.5];
        let params = Quantizer::default().calibrate(&data);
        assert!(params.format().real_max() >= 1.0);
        assert!(params.format().real_max() < 4.0);
    }

    #[test]
    fn sqnr_reasonable_for_8bit() {
        // 8-bit quantization of a well-scaled signal should exceed ~30 dB.
        let data: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.017).sin()).collect();
        let (raw, params) = Quantizer::default().quantize(&data);
        let back = dequantize_slice(&raw, params);
        let s = sqnr_db(&data, &back);
        assert!(s > 30.0, "sqnr = {s}");
    }

    #[test]
    fn sqnr_edge_cases() {
        assert!(sqnr_db(&[1.0, 2.0], &[1.0, 2.0]).is_infinite());
        assert_eq!(sqnr_db(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn all_zero_tensor_quantizes() {
        let (raw, _params) = Quantizer::default().quantize(&[0.0; 16]);
        assert!(raw.iter().all(|&r| r == 0));
    }
}
