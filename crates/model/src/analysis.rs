//! Quantization error propagation analysis.
//!
//! "Data was quantized to 8-bit fixed-point format; while this might
//! result in accuracy loss depending on the application, it was not a
//! primary focus." This module makes the loss measurable: it runs the
//! float and quantized encoders in lockstep and reports the per-layer
//! error trajectory — does the 8-bit error accumulate layer over layer,
//! or does layer normalization keep re-centering it? (Empirically the
//! latter: LN bounds the error signal each layer, so SQNR plateaus
//! instead of collapsing — the structural reason 8-bit encoders work.)

use crate::config::EncoderConfig;
use crate::float::FloatEncoder;
use crate::quantized::QuantizedEncoder;
use crate::weights::EncoderWeights;
use protea_tensor::ops::mse;
use protea_tensor::Matrix;

/// Error metrics after one layer.
#[derive(Debug, Clone, Copy)]
pub struct LayerError {
    /// Layer index (0-based).
    pub layer: usize,
    /// Mean squared error between dequantized int8 and f32 activations.
    pub mse: f64,
    /// Signal-to-quantization-noise ratio in dB.
    pub sqnr_db: f64,
    /// Largest absolute elementwise deviation.
    pub max_abs_err: f64,
}

/// The full profile of one input through the stack.
#[derive(Debug, Clone)]
pub struct ErrorProfile {
    /// Per-layer metrics, in execution order.
    pub layers: Vec<LayerError>,
}

impl ErrorProfile {
    /// Whether the error stays bounded: the last layer's MSE is within
    /// `factor` of the worst layer's (no runaway accumulation).
    #[must_use]
    pub fn is_stable(&self, factor: f64) -> bool {
        let worst = self.layers.iter().map(|l| l.mse).fold(0.0, f64::max);
        self.layers.last().is_none_or(|l| l.mse <= worst * factor.max(1.0))
    }
}

/// Run the lockstep comparison.
///
/// # Panics
/// Panics if `x` is not `SL × d_model` for the weight set's config.
#[must_use]
pub fn error_profile(
    weights: &EncoderWeights,
    quantized: &QuantizedEncoder,
    x: &Matrix<f32>,
) -> ErrorProfile {
    let cfg: EncoderConfig = weights.config;
    assert_eq!(x.shape(), (cfg.seq_len, cfg.d_model));
    let float_enc = FloatEncoder::new(weights.clone());
    let mut hf = x.clone();
    let mut hq = quantized.quantize_input(x);
    let mut layers = Vec::with_capacity(cfg.layers);
    for (i, (fw, qw)) in weights.layers.iter().zip(quantized.layers.iter()).enumerate() {
        hf = float_enc.forward_layer(&hf, fw);
        hq = quantized.forward_layer(&hq, qw).out;
        let deq = quantized.dequantize(&hq);
        let e = mse(&hf, &deq);
        let (mut sig, mut max_err) = (0f64, 0f64);
        for (&a, &b) in hf.as_slice().iter().zip(deq.as_slice()) {
            sig += f64::from(a) * f64::from(a);
            max_err = max_err.max((f64::from(a) - f64::from(b)).abs());
        }
        let n = hf.len().max(1) as f64;
        let sqnr = if e > 0.0 { 10.0 * ((sig / n) / e).log10() } else { f64::INFINITY };
        layers.push(LayerError { layer: i, mse: e, sqnr_db: sqnr, max_abs_err: max_err });
    }
    ErrorProfile { layers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantized::QuantSchedule;

    fn setup(layers: usize) -> (EncoderWeights, QuantizedEncoder, Matrix<f32>) {
        let cfg = EncoderConfig::new(64, 4, layers, 16);
        let w = EncoderWeights::random(cfg, 321);
        let q = QuantizedEncoder::from_float(&w, QuantSchedule::paper());
        let x = Matrix::from_fn(16, 64, |r, c| (((r * 19 + c * 7) % 53) as f32 / 53.0 - 0.5) * 2.0);
        (w, q, x)
    }

    #[test]
    fn profile_has_one_entry_per_layer() {
        let (w, q, x) = setup(4);
        let p = error_profile(&w, &q, &x);
        assert_eq!(p.layers.len(), 4);
        assert!(p.layers.iter().enumerate().all(|(i, l)| l.layer == i));
    }

    #[test]
    fn error_does_not_run_away_thanks_to_layernorm() {
        let (w, q, x) = setup(6);
        let p = error_profile(&w, &q, &x);
        assert!(p.is_stable(2.0), "per-layer MSEs: {:?}", p.layers);
        // every layer keeps a usable SQNR
        for l in &p.layers {
            assert!(l.sqnr_db > 5.0, "layer {} sqnr = {}", l.layer, l.sqnr_db);
        }
    }

    #[test]
    fn errors_are_nonzero_but_bounded() {
        let (w, q, x) = setup(2);
        let p = error_profile(&w, &q, &x);
        for l in &p.layers {
            assert!(l.mse > 0.0, "8-bit cannot be exact");
            assert!(l.max_abs_err < 1.0, "layer {} max err {}", l.layer, l.max_abs_err);
        }
    }
}
