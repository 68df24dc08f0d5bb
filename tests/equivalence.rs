//! The central correctness contract: the accelerator's host datapath
//! (packed GEMMs, thread-parallel heads and batches) must produce
//! **bit-identical** outputs to the software golden model, for every
//! shape, schedule, batch and dispatchable kernel ISA.
//!
//! This is the gate on every datapath optimization: a kernel or
//! parallelization change that alters even one output byte fails here.

use proptest::prelude::*;
use protea::prelude::*;
use protea::tensor::{force_kernel, supported_kernels};

fn input(sl: usize, d: usize, seed: usize) -> Matrix<i8> {
    Matrix::from_fn(sl, d, |r, c| (((r * 31 + c * 17 + seed * 7) % 200) as i32 - 100) as i8)
}

fn check_equivalence(cfg: EncoderConfig, schedule: QuantSchedule, seed: u64) {
    let syn = SynthesisConfig::paper_default();
    let weights = EncoderWeights::random(cfg, seed);
    let golden = QuantizedEncoder::from_float(&weights, schedule);
    let mut accel =
        Accelerator::try_new(syn, &FpgaDevice::alveo_u55c()).expect("design must fit the device");
    accel.program(RuntimeConfig::from_model(&cfg, &syn).expect("fits")).expect("register write");
    accel.try_load_weights(golden.clone()).expect("weights must match the programmed registers");
    let x = input(cfg.seq_len, cfg.d_model, seed as usize);
    let hw = accel.run(&x).output;
    let sw = golden.forward(&x);
    assert_eq!(hw.as_slice(), sw.as_slice(), "accelerator != golden model for {cfg:?}");
}

/// A programmed, weight-loaded accelerator synthesized for `cfg`'s own
/// shape, so head counts and widths the paper design does not divide
/// evenly reach the datapath too.
fn fitted_accel(cfg: &EncoderConfig, seed: u64) -> (Accelerator, QuantizedEncoder) {
    // Tile sizes must divide d_model, and wide tiles at high head
    // counts blow the LUT budget: take the largest divisor ≤ 64.
    let ts = (1..=64.min(cfg.d_model)).rev().find(|t| cfg.d_model.is_multiple_of(*t)).unwrap_or(1);
    let syn = SynthesisConfig::builder()
        .heads(cfg.heads)
        .d_max(cfg.d_model)
        .sl_max(cfg.seq_len)
        .ts_mha(ts)
        .ts_ffn(ts)
        .build()
        .expect("synthesis config must be valid");
    let mut acc = Accelerator::try_new(syn, &FpgaDevice::alveo_u250()).expect("design must fit");
    acc.program(RuntimeConfig {
        heads: cfg.heads,
        layers: cfg.layers,
        d_model: cfg.d_model,
        seq_len: cfg.seq_len,
    })
    .expect("runtime fits synthesized capacity");
    let qw =
        QuantizedEncoder::from_float(&EncoderWeights::random(*cfg, seed), QuantSchedule::paper());
    acc.try_load_weights(qw.clone()).expect("weights match registers");
    (acc, qw)
}

fn fitted_input(cfg: &EncoderConfig, salt: u64) -> Matrix<i8> {
    Matrix::from_fn(cfg.seq_len, cfg.d_model, |r, c| {
        let v = (r as u64 * 131).wrapping_add(c as u64 * 31).wrapping_add(salt.wrapping_mul(7));
        ((v % 251) as i64 - 125) as i8
    })
}

/// [`check_equivalence`] on a design synthesized for `cfg`'s shape.
fn check_fitted(cfg: &EncoderConfig, seed: u64) {
    let (acc, golden) = fitted_accel(cfg, seed);
    let x = fitted_input(cfg, seed);
    let hw = acc.try_run(&x).expect("run succeeds").output;
    assert_eq!(hw.as_slice(), golden.forward(&x).as_slice(), "accelerator != golden for {cfg:?}");
}

#[test]
fn equivalence_across_shape_grid() {
    for (d, h) in [(32usize, 2usize), (96, 4), (128, 8), (256, 8)] {
        for sl in [1usize, 4, 16] {
            for layers in [1usize, 2] {
                check_equivalence(
                    EncoderConfig::new(d, h, layers, sl),
                    QuantSchedule::paper(),
                    (d + h * 100 + sl) as u64,
                );
            }
        }
    }
}

#[test]
fn equivalence_under_standard_scaling() {
    for (d, h, sl) in [(64usize, 4usize, 8usize), (128, 8, 12)] {
        let cfg = EncoderConfig::new(d, h, 1, sl).with_scaling(AttnScaling::InvSqrtDk);
        check_equivalence(cfg, QuantSchedule::standard_scaling(), 9);
    }
}

#[test]
fn equivalence_with_gelu_activation() {
    let cfg = EncoderConfig::new(64, 4, 2, 8).with_activation(protea::fixed::Activation::Gelu);
    check_equivalence(cfg, QuantSchedule::paper(), 5);
}

#[test]
fn equivalence_at_paper_scale_single_layer() {
    // The full d_model=768 path through real tile geometry (12 MHA tiles,
    // 6 FFN tiles) — expensive, so one layer and a short sequence.
    check_equivalence(EncoderConfig::new(768, 8, 1, 8), QuantSchedule::paper(), 21);
}

#[test]
fn equivalence_with_ragged_runtime_tiles() {
    // d_model=512 on the tiles-of-768 synthesis exercises ceil-division
    // tile widths (43 and 86) and a short final tile.
    check_equivalence(EncoderConfig::new(512, 8, 1, 8), QuantSchedule::paper(), 33);
    // d_model=320: width ceil(320/12)=27, last tile ragged.
    check_equivalence(EncoderConfig::new(320, 8, 1, 4), QuantSchedule::paper(), 34);
}

#[test]
fn quantized_output_tracks_float_reference() {
    // End-to-end sanity: the int8 pipeline approximates the f32 encoder.
    let cfg = EncoderConfig::new(96, 4, 2, 12);
    let weights = EncoderWeights::random(cfg, 77);
    let float_enc = FloatEncoder::new(weights.clone());
    let golden = QuantizedEncoder::from_float(&weights, QuantSchedule::paper());
    let xf = Matrix::from_fn(12, 96, |r, c| ((r * 13 + c) % 50) as f32 / 25.0 - 1.0);
    let yf = float_enc.forward(&xf);
    let yq = golden.dequantize(&golden.forward(&golden.quantize_input(&xf)));
    let err = protea::tensor::ops::mse(&yf, &yq);
    assert!(err < 0.5, "quantized output diverged from float reference: mse = {err}");
}

#[test]
fn equivalence_on_fitted_designs() {
    check_fitted(&EncoderConfig::new(96, 4, 2, 8), 31);
    // dk = 12: ragged CB blocks inside each head's GEMMs.
    check_fitted(&EncoderConfig::new(144, 12, 1, 9), 5);
    check_fitted(&EncoderConfig::new(40, 1, 2, 7), 77);
}

#[test]
fn equivalence_of_batched_and_single_runs() {
    // Batch fan-out must not reorder or alter per-item outputs, and the
    // timing model must not depend on the inputs.
    let cfg = EncoderConfig::new(64, 4, 2, 8);
    let (acc, golden) = fitted_accel(&cfg, 13);
    let xs: Vec<Matrix<i8>> = (0..5).map(|i| fitted_input(&cfg, 100 + i)).collect();
    let (outs, report) = acc.try_run_batch(&xs).expect("batch run");
    for (i, x) in xs.iter().enumerate() {
        let single = acc.try_run(x).expect("single run").output;
        assert_eq!(outs[i].as_slice(), single.as_slice(), "item {i}");
        assert_eq!(single.as_slice(), golden.forward(x).as_slice(), "item {i} vs golden");
    }
    assert_eq!(report.total, acc.timing_report_batched(xs.len()).total);
}

#[test]
fn equivalence_under_every_kernel_isa() {
    // The dispatch gate: force each microkernel this host can run
    // (scalar control, portable fallback, and whatever explicit SIMD
    // variants the CPU supports) and require the golden bytes under
    // every one of them. `force_kernel` takes the same code path as a
    // `PROTEA_KERNEL` override, minus the once-per-process env cache.
    let cfg = EncoderConfig::new(144, 12, 1, 9);
    let (acc, golden) = fitted_accel(&cfg, 41);
    let x = fitted_input(&cfg, 41);
    let sw = golden.forward(&x);
    for isa in supported_kernels() {
        force_kernel(Some(isa));
        let hw = acc.try_run(&x).expect("run succeeds").output;
        assert_eq!(hw.as_slice(), sw.as_slice(), "kernel {isa} diverged from the golden model");
    }
    force_kernel(None);
}

#[test]
fn self_test_passes_on_a_fitted_design() {
    let (acc, _) = fitted_accel(&EncoderConfig::new(96, 4, 2, 8), 3);
    assert_eq!(acc.self_test(), Ok(()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn equivalence_random_shapes(
        heads in 1usize..=6,
        dk in 1usize..=16,
        layers in 1usize..=2,
        sl in 1usize..=12,
        seed in any::<u64>(),
    ) {
        check_fitted(&EncoderConfig::new(heads * dk, heads, layers, sl), seed);
    }
}
