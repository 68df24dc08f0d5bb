//! Decoder support on the ProTEA architecture — the paper's future work,
//! built "using the same design principles".
//!
//! A decoder layer maps onto the existing engines with two extra phases:
//! the masked self-attention reuses `QKV_CE`/`QK_CE`/softmax/`SV_CE`
//! (the mask is a comparator gating the softmax normalization — see
//! [`protea_fixed::SoftmaxUnit::forward_row_masked`]); the cross-attention
//! runs the same engines a second time with keys/values projected from
//! the encoder memory; `FFN1_CE` computes both attention output
//! projections; the FFN pair and the three add-&-norm modules are
//! unchanged. Timing uses the identical calibrated engine formulas over
//! the rectangular (target × source) iteration spaces. Functionally, a
//! packed decode step runs the encoder's host datapath (the fused
//! projections and fused attention head of `protea_model::quantized`).

use crate::accelerator::Accelerator;
use crate::engines::ffn::{FfnEngine, FfnStage};
use crate::engines::Access;
use crate::registers::{RegisterError, RuntimeConfig};
use crate::report::CycleReport;
use crate::synthesis::SynthesisConfig;
use protea_mem::kv as kv_mem;
use protea_model::decoder::QuantizedDecoder;
use protea_tensor::Matrix;

/// Result of a decoder run.
#[derive(Debug, Clone)]
pub struct DecoderRunResult {
    /// The decoded output (`SL_tgt × d_model`).
    pub output: Matrix<i8>,
    /// Cycle accounting for the decoder stack.
    pub report: CycleReport,
    /// Latency in milliseconds at the synthesized clock.
    pub latency_ms: f64,
}

impl Accelerator {
    /// Validate that a decoder workload fits the synthesized capacity:
    /// both sequence lengths bounded by `sl_max`, dims by the registers.
    pub fn validate_decoder(
        &self,
        dec: &QuantizedDecoder,
        src_len: usize,
    ) -> Result<(), RegisterError> {
        let syn = &self.design().config;
        if src_len == 0 || src_len > syn.sl_max {
            return Err(RegisterError::ExceedsCapacity {
                reg: "src_len",
                requested: src_len as u32,
                max: syn.sl_max as u32,
            });
        }
        let rt = RuntimeConfig {
            heads: dec.config.heads,
            layers: dec.config.layers,
            d_model: dec.config.d_model,
            seq_len: dec.config.seq_len,
        };
        rt.validate(syn)
    }

    /// Run a decoder stack: `x` is the target input (`SL_tgt × d`),
    /// `memory` the encoder output (`SL_src × d`). The output is
    /// [`QuantizedDecoder::forward`]'s; the timing comes from the
    /// calibrated engine formulas.
    ///
    /// # Panics
    /// Panics on shape mismatches or capacity violations.
    #[must_use]
    pub fn run_decoder(
        &self,
        dec: &QuantizedDecoder,
        x: &Matrix<i8>,
        memory: &Matrix<i8>,
    ) -> DecoderRunResult {
        self.validate_decoder(dec, memory.rows()).expect("decoder fits capacity");
        assert_eq!(x.cols(), dec.config.d_model);
        assert_eq!(memory.cols(), dec.config.d_model);

        let output = dec.forward(x, memory);
        let report = self.decoder_timing_report(dec, x.rows(), memory.rows());
        let latency_ms = report.latency_ms();
        DecoderRunResult { output, report, latency_ms }
    }

    /// Timing of one autoregressive decode step at `position` (0-based)
    /// with a KV cache: the engines process a single target row; the
    /// self-attention reduction spans the `position + 1` cached
    /// positions, the cross-attention spans `src_len`. Weight streaming
    /// is unchanged (every tile still loads — the dominant cost of
    /// single-token decoding, which is why generation is bandwidth-bound
    /// everywhere); the cache's own traffic — appending the new K/V row,
    /// streaming the cached rows back through the attention reductions —
    /// is charged over the same memory link.
    #[must_use]
    pub fn decode_step_timing(
        &self,
        dec: &QuantizedDecoder,
        position: usize,
        src_len: usize,
    ) -> CycleReport {
        let syn = &self.design().config;
        let cfg = &dec.config;
        let rt = RuntimeConfig {
            heads: cfg.heads,
            layers: cfg.layers,
            d_model: cfg.d_model,
            seq_len: 1,
        };
        let phase_plans = decode_step_plans(syn, &rt, (position + 1) as u64, src_len as u64, 1);
        // One decode step always overlaps loads with compute (the
        // decoder has no serial-ablation knob).
        self.price_phase_plans(&phase_plans, cfg.layers, 1, true, None)
    }

    /// Timing of a decoder stack without data.
    #[must_use]
    pub fn decoder_timing_report(
        &self,
        dec: &QuantizedDecoder,
        tgt_len: usize,
        src_len: usize,
    ) -> CycleReport {
        let syn = &self.design().config;
        let t = &syn.timing;
        let cfg = &dec.config;
        let rt = RuntimeConfig {
            heads: cfg.heads,
            layers: cfg.layers,
            d_model: cfg.d_model,
            seq_len: tgt_len,
        };
        let dk = rt.dk() as u64;
        let sl_t = tgt_len as u64;
        let sl_s = src_len as u64;
        let compute_only = |cycles: u64| vec![Access { load_bytes: 0, compute_cycles: cycles }];

        let phase_plans: Vec<(&'static str, Vec<Access>)> = vec![
            ("SelfQKV", proj_plan(syn, &rt, sl_t)),
            ("SelfQK", compute_only(t.qk_cycles_rect(sl_t, sl_t, dk, syn.dk_max() as u64))),
            ("SelfSoftmax", compute_only(t.softmax_cycles(sl_t))),
            ("SelfSV", compute_only(t.sv_cycles_rect(sl_t, sl_t, dk, syn.sl_unroll as u64))),
            ("SelfProj", FfnEngine::plan(FfnStage::Ffn1, &rt, syn)),
            ("AddNorm1", compute_only(t.ln_cycles(sl_t, rt.d_model as u64))),
            // cross attention: K/V projected from the (usually longer)
            // source stream share the engine pipeline with Q.
            ("CrossQKV", proj_plan(syn, &rt, sl_t.max(sl_s))),
            ("CrossQK", compute_only(t.qk_cycles_rect(sl_t, sl_s, dk, syn.dk_max() as u64))),
            ("CrossSoftmax", compute_only(t.softmax_cycles(sl_t.max(sl_s)))),
            ("CrossSV", compute_only(t.sv_cycles_rect(sl_t, sl_s, dk, syn.sl_unroll as u64))),
            ("CrossProj", FfnEngine::plan(FfnStage::Ffn1, &rt, syn)),
            ("AddNorm2", compute_only(t.ln_cycles(sl_t, rt.d_model as u64))),
            ("FFN2_CE", FfnEngine::plan(FfnStage::Ffn2, &rt, syn)),
            ("FFN3_CE", FfnEngine::plan(FfnStage::Ffn3, &rt, syn)),
            ("AddNorm3", compute_only(t.ln_cycles(sl_t, rt.d_model as u64))),
        ];

        self.price_phase_plans(&phase_plans, cfg.layers, 1, true, None)
    }
}

/// QKV-style projection phase: `rows` activation rows, the weight strips
/// tiled `tiles_mha` times. Shared by every decoder plan builder.
fn proj_plan(syn: &SynthesisConfig, rt: &RuntimeConfig, rows: u64) -> Vec<Access> {
    let t = &syn.timing;
    let dk = rt.dk() as u64;
    let tiles = syn.tiles_mha() as u64;
    let w = rt.mha_tile_width(syn) as u64;
    let h = rt.heads as u64;
    let load = h * (3 * dk * w + rows * w);
    let compute = t.qkv_tile_cycles(rows, dk);
    (0..tiles).map(|_| Access { load_bytes: load, compute_cycles: compute }).collect()
}

/// Per-layer phase plans of one KV-cached decode step for `rows`
/// resident sessions in lockstep: each session contributes one target
/// row against `kv` cached self-attention positions and `sl_s` rows of
/// encoder memory. KV-cache residency is charged on the memory link —
/// every session's new K/V row is written once (`SelfQKV`) and each
/// session streams *its own* cached rows back through the attention
/// reductions, so cache traffic scales with the batch. The engines,
/// by contrast, stream the batch's rows back-to-back through a single
/// pipeline fill (the same rows-streaming model the encoder uses):
/// this is the weight-stationary amortization that makes batched
/// decode cheaper per token than single-stream. `rows = 1` reproduces
/// the historical single-session plan exactly. `rt.seq_len` must be 1.
pub(crate) fn decode_step_plans(
    syn: &SynthesisConfig,
    rt: &RuntimeConfig,
    kv: u64,
    sl_s: u64,
    rows: u64,
) -> Vec<(&'static str, Vec<Access>)> {
    let t = &syn.timing;
    let dk = rt.dk() as u64;
    let d = rt.d_model;
    let compute_only = |cycles: u64| vec![Access { load_bytes: 0, compute_cycles: cycles }];
    let kv_access = |per_session: u64, cycles: u64| {
        vec![Access {
            load_bytes: rows * kv_mem::attn_read_bytes(per_session, d),
            compute_cycles: cycles,
        }]
    };
    // FFN-style engines take their row count from the runtime's
    // sequence register; the batched step streams `rows` rows.
    let ffn_rt = RuntimeConfig { seq_len: rows as usize, ..*rt };
    let mut self_qkv = proj_plan(syn, rt, rows);
    self_qkv.push(Access { load_bytes: rows * kv_mem::step_write_bytes(d), compute_cycles: 0 });
    vec![
        ("SelfQKV", self_qkv),
        ("SelfQK", kv_access(kv, t.qk_cycles_rect(rows, kv, dk, syn.dk_max() as u64))),
        ("SelfSoftmax", compute_only((rows * t.softmax_cycles(1)).max(rows * kv))),
        ("SelfSV", kv_access(kv, t.sv_cycles_rect(rows, kv, dk, syn.sl_unroll as u64))),
        ("SelfProj", FfnEngine::plan(FfnStage::Ffn1, &ffn_rt, syn)),
        ("AddNorm1", compute_only(t.ln_cycles(rows, rt.d_model as u64))),
        ("CrossQKV", proj_plan(syn, rt, rows)), // memory K/V cached: only Q projects
        ("CrossQK", kv_access(sl_s, t.qk_cycles_rect(rows, sl_s, dk, syn.dk_max() as u64))),
        ("CrossSoftmax", compute_only((rows * t.softmax_cycles(1)).max(rows * sl_s))),
        ("CrossSV", kv_access(sl_s, t.sv_cycles_rect(rows, sl_s, dk, syn.sl_unroll as u64))),
        ("CrossProj", FfnEngine::plan(FfnStage::Ffn1, &ffn_rt, syn)),
        ("AddNorm2", compute_only(t.ln_cycles(rows, rt.d_model as u64))),
        ("FFN2_CE", FfnEngine::plan(FfnStage::Ffn2, &ffn_rt, syn)),
        ("FFN3_CE", FfnEngine::plan(FfnStage::Ffn3, &ffn_rt, syn)),
        ("AddNorm3", compute_only(t.ln_cycles(rows, rt.d_model as u64))),
    ]
}

/// Per-layer phase plans of a prefill pass: the whole `rt.seq_len`-row
/// prompt runs through the decoder stack once, *populating* the KV cache
/// — the self K/V rows of every prompt position are written out
/// (`SelfQKV`), the cross K/V of the `sl_s`-row encoder memory is
/// written once (`CrossQKV`), and the attention reductions stream the
/// freshly cached rows back. Compute shape matches the full
/// target-length decoder pass.
pub(crate) fn prefill_plans(
    syn: &SynthesisConfig,
    rt: &RuntimeConfig,
    sl_s: u64,
) -> Vec<(&'static str, Vec<Access>)> {
    let t = &syn.timing;
    let dk = rt.dk() as u64;
    let d = rt.d_model;
    let sl_t = rt.seq_len as u64;
    let compute_only = |cycles: u64| vec![Access { load_bytes: 0, compute_cycles: cycles }];
    let kv_access = |rows: u64, cycles: u64| {
        vec![Access { load_bytes: kv_mem::attn_read_bytes(rows, d), compute_cycles: cycles }]
    };
    let mut self_qkv = proj_plan(syn, rt, sl_t);
    self_qkv.push(Access { load_bytes: sl_t * kv_mem::step_write_bytes(d), compute_cycles: 0 });
    let mut cross_qkv = proj_plan(syn, rt, sl_t.max(sl_s));
    cross_qkv.push(Access { load_bytes: sl_s * kv_mem::step_write_bytes(d), compute_cycles: 0 });
    vec![
        ("SelfQKV", self_qkv),
        ("SelfQK", kv_access(sl_t, t.qk_cycles_rect(sl_t, sl_t, dk, syn.dk_max() as u64))),
        ("SelfSoftmax", compute_only(t.softmax_cycles(sl_t))),
        ("SelfSV", kv_access(sl_t, t.sv_cycles_rect(sl_t, sl_t, dk, syn.sl_unroll as u64))),
        ("SelfProj", FfnEngine::plan(FfnStage::Ffn1, rt, syn)),
        ("AddNorm1", compute_only(t.ln_cycles(sl_t, rt.d_model as u64))),
        ("CrossQKV", cross_qkv),
        ("CrossQK", kv_access(sl_s, t.qk_cycles_rect(sl_t, sl_s, dk, syn.dk_max() as u64))),
        ("CrossSoftmax", compute_only(t.softmax_cycles(sl_t.max(sl_s)))),
        ("CrossSV", kv_access(sl_s, t.sv_cycles_rect(sl_t, sl_s, dk, syn.sl_unroll as u64))),
        ("CrossProj", FfnEngine::plan(FfnStage::Ffn1, rt, syn)),
        ("AddNorm2", compute_only(t.ln_cycles(sl_t, rt.d_model as u64))),
        ("FFN2_CE", FfnEngine::plan(FfnStage::Ffn2, rt, syn)),
        ("FFN3_CE", FfnEngine::plan(FfnStage::Ffn3, rt, syn)),
        ("AddNorm3", compute_only(t.ln_cycles(sl_t, rt.d_model as u64))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use protea_model::decoder::DecoderWeights;
    use protea_model::{EncoderConfig, QuantSchedule};
    use protea_platform::FpgaDevice;

    fn setup(cfg: EncoderConfig, seed: u64) -> (Accelerator, QuantizedDecoder) {
        let accel =
            Accelerator::try_new(SynthesisConfig::paper_default(), &FpgaDevice::alveo_u55c())
                .expect("design must fit the device");
        let dec = QuantizedDecoder::from_float(
            &DecoderWeights::random(cfg, seed),
            QuantSchedule::paper(),
        );
        (accel, dec)
    }

    #[test]
    fn decoder_timing_scales_with_source_length() {
        let cfg = EncoderConfig::new(768, 8, 6, 32);
        let (accel, dec) = setup(cfg, 1);
        let short = accel.decoder_timing_report(&dec, 32, 16).total;
        let long = accel.decoder_timing_report(&dec, 32, 128).total;
        assert!(long > short, "longer source memory must cost more");
    }

    #[test]
    fn decoder_layer_costs_more_than_encoder_layer() {
        // Same dims: a decoder layer adds a whole cross-attention block.
        let cfg = EncoderConfig::new(768, 8, 1, 64);
        let (mut accel, dec) = setup(cfg, 2);
        accel.program(RuntimeConfig { heads: 8, layers: 1, d_model: 768, seq_len: 64 }).unwrap();
        let enc_cycles = accel.timing_report().total;
        let dec_cycles = accel.decoder_timing_report(&dec, 64, 64).total;
        assert!(dec_cycles.get() > enc_cycles.get());
        let ratio = dec_cycles.get() as f64 / enc_cycles.get() as f64;
        assert!((1.1..1.8).contains(&ratio), "decoder/encoder cycle ratio = {ratio:.2}");
    }

    #[test]
    fn decode_step_is_load_dominated_and_grows_slowly() {
        // Single-token decoding still streams every weight tile, so the
        // per-step latency barely depends on the position — the classic
        // bandwidth-bound generation profile.
        let cfg = EncoderConfig::new(768, 8, 2, 1);
        let (accel, dec) = setup(cfg, 7);
        let early = accel.decode_step_timing(&dec, 0, 64).total;
        let late = accel.decode_step_timing(&dec, 63, 64).total;
        assert!(late >= early);
        let growth = late.get() as f64 / early.get() as f64;
        assert!(growth < 1.3, "per-step growth = {growth:.2}");
        // and a step costs far less than a full 64-token forward
        let full = accel.decoder_timing_report(&dec, 64, 64).total;
        assert!(full.get() > 5 * late.get());
    }

    #[test]
    fn oversized_source_rejected() {
        let cfg = EncoderConfig::new(96, 4, 1, 8);
        let (accel, dec) = setup(cfg, 3);
        assert!(accel.validate_decoder(&dec, 4096).is_err());
        assert!(accel.validate_decoder(&dec, 0).is_err());
        assert!(accel.validate_decoder(&dec, 64).is_ok());
    }

    #[test]
    fn causal_mask_hides_future_rows() {
        let cfg = EncoderConfig::new(64, 4, 1, 6);
        let (accel, dec) = setup(cfg, 4);
        let mem = Matrix::from_fn(5, 64, |r, c| ((r * 3 + c) % 90) as i8);
        let x1 = Matrix::from_fn(6, 64, |r, c| ((r * 11 + c * 5) % 90) as i8);
        let mut x2 = x1.clone();
        for v in x2.row_mut(5) {
            *v = v.saturating_add(7);
        }
        let y1 = accel.run_decoder(&dec, &x1, &mem).output;
        let y2 = accel.run_decoder(&dec, &x2, &mem).output;
        for r in 0..5 {
            assert_eq!(y1.row(r), y2.row(r), "row {r} saw a later position");
        }
    }
}
