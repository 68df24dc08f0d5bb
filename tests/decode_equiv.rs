//! Prefix equivalence of KV-cached decoding: for random prompts and
//! step counts, incremental decode through the phase-aware pipeline is
//! bit-identical to a full-forward recompute at every prefix length —
//! on every kernel ISA this host supports, and on both the scalar
//! reference and the packed host datapath.
//!
//! This is the gate on the decode fast path: a kernel, packing, or
//! cache change that alters even one output byte at any position fails
//! here.

use proptest::prelude::*;
use protea::model::decoder::{DecoderKvCache, DecoderWeights, QuantizedDecoder};
use protea::prelude::*;
use protea::tensor::{force_kernel, supported_kernels};

fn accel_for(cfg: &EncoderConfig, src_len: usize) -> Accelerator {
    let ts = (1..=64.min(cfg.d_model)).rev().find(|t| cfg.d_model.is_multiple_of(*t)).unwrap_or(1);
    let syn = SynthesisConfig::builder()
        .heads(cfg.heads)
        .d_max(cfg.d_model)
        .sl_max(src_len.max(cfg.seq_len).max(2))
        .ts_mha(ts)
        .ts_ffn(ts)
        .build()
        .expect("synthesis config must be valid");
    let mut acc = Accelerator::try_new(syn, &FpgaDevice::alveo_u250()).expect("design must fit");
    acc.program(RuntimeConfig {
        heads: cfg.heads,
        layers: cfg.layers,
        d_model: cfg.d_model,
        seq_len: src_len,
    })
    .expect("runtime fits synthesized capacity");
    acc
}

fn mat(rows: usize, cols: usize, salt: u64) -> Matrix<i8> {
    Matrix::from_fn(rows, cols, |r, c| {
        let v = (r as u64 * 131).wrapping_add(c as u64 * 31).wrapping_add(salt.wrapping_mul(7));
        ((v % 251) as i64 - 125) as i8
    })
}

/// Decode `steps` positions incrementally (prompt rows drawn from one
/// random target matrix) and check every prefix against the full
/// forward recompute, through both the scalar and packed session paths.
fn assert_prefix_equiv(cfg: &EncoderConfig, src_len: usize, steps: usize, seed: u64) {
    let accel = accel_for(cfg, src_len);
    let dec =
        QuantizedDecoder::from_float(&DecoderWeights::random(*cfg, seed), QuantSchedule::paper());
    let packed = dec.pack();
    let memory = mat(src_len, cfg.d_model, seed ^ 0x9e37);
    let x = mat(steps, cfg.d_model, seed ^ 0x85eb);

    let mut scalar_cache = DecoderKvCache::new(&dec, &memory);
    let mut packed_cache = DecoderKvCache::bounded(&dec, &memory, steps);
    for pos in 0..steps {
        let row = x.submatrix(pos, 0, 1, cfg.d_model);
        let scalar = accel
            .execute(RunPlan::decode(pos, pos + 1, 1).with_session(DecodeSession {
                decoder: &dec,
                packed: None,
                cache: &mut scalar_cache,
                x_row: &row,
            }))
            .0
            .expect("scalar decode step runs");
        let fast = accel
            .execute(RunPlan::decode(pos, pos + 1, 1).with_session(DecodeSession {
                decoder: &dec,
                packed: Some(&packed),
                cache: &mut packed_cache,
                x_row: &row,
            }))
            .0
            .expect("packed decode step runs");
        assert_eq!(
            scalar.outputs[0].row(0),
            fast.outputs[0].row(0),
            "scalar vs packed at position {pos}, cfg={cfg:?}"
        );
        // Full-forward recompute of the whole prefix must match the
        // incremental output at this position (and every earlier one —
        // the causal mask makes earlier rows invariant).
        let prefix = x.submatrix(0, 0, pos + 1, cfg.d_model);
        let full = dec.forward(&prefix, &memory);
        assert_eq!(
            fast.outputs[0].row(0),
            full.row(pos),
            "incremental vs full forward at prefix length {}, cfg={cfg:?}",
            pos + 1
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random shapes, prompts and step counts: KV-cached incremental
    /// decoding equals full-forward recompute at every prefix length.
    #[test]
    fn prefix_equivalence_random_shapes(
        heads in 1usize..=4,
        dk_ix in 0usize..3,
        layers in 1usize..=2,
        src_len in 2usize..=10,
        steps in 1usize..=8,
        seed in 0u64..1000,
    ) {
        let dk = [8usize, 16, 24][dk_ix];
        let d_model = heads * dk;
        let cfg = EncoderConfig::new(d_model, heads, layers, steps.max(1));
        assert_prefix_equiv(&cfg, src_len, steps, seed);
    }
}

/// The same prefix equivalence holds under every kernel ISA this host
/// supports — the dispatch layer may change *how* the GEMMs reduce,
/// never a single output byte. The second shape runs the fused head at
/// the encoder's head width (`d_k = 96`) on its one query row.
#[test]
fn prefix_equivalence_on_every_kernel_isa() {
    let narrow = EncoderConfig::new(96, 4, 2, 6);
    let wide = EncoderConfig::new(192, 2, 1, 4);
    for isa in supported_kernels() {
        force_kernel(Some(isa));
        assert_prefix_equiv(&narrow, 8, 6, 42);
        assert_prefix_equiv(&wide, 8, 4, 43);
    }
    force_kernel(None);
}
