//! Timing-model regression pins: exact cycle counts for the calibrated
//! design points. The Table I calibration was validated against the
//! paper once; these tests freeze it so an innocent-looking change to an
//! engine formula, the overlap scheduler, or the congestion model cannot
//! silently drift the reproduction. If a change is *intentional*, update
//! the pins and re-verify `bench::table1` against EXPERIMENTS.md.

use protea::prelude::*;

fn accel() -> Accelerator {
    Accelerator::try_new(SynthesisConfig::paper_default(), &FpgaDevice::alveo_u55c())
        .expect("design must fit the device")
}

#[test]
fn pin_table1_test1_cycles() {
    let mut a = accel();
    a.program(
        RuntimeConfig::from_model(&EncoderConfig::paper_test1(), &SynthesisConfig::paper_default())
            .unwrap(),
    )
    .unwrap();
    let total = a.timing_report().total.get();
    // 287.3 ms at 190.9 MHz. Pin the exact integer.
    assert_eq!(total, 54_839_472, "timing model drifted: {total} cycles");
}

#[test]
fn pin_fmax_at_paper_point() {
    let a = accel();
    let fmax = a.design().fmax_mhz;
    assert!((fmax - 190.858).abs() < 0.01, "congestion model drifted: {fmax}");
}

#[test]
fn pin_resources_at_paper_point() {
    let r = accel().design().resources;
    assert_eq!(r.dsps, 3_612);
    assert_eq!(r.ffs, 704_115);
    assert_eq!(r.luts, 1_058_643);
    assert_eq!(r.bram18, 784);
}

#[test]
fn pin_phase_breakdown_shape() {
    let mut a = accel();
    a.program(
        RuntimeConfig::from_model(&EncoderConfig::paper_test1(), &SynthesisConfig::paper_default())
            .unwrap(),
    )
    .unwrap();
    let report = a.timing_report();
    // FFN2 dominance is the load-bearing qualitative fact.
    let ffn2 = report.phase_fraction("FFN2_CE");
    assert!((0.50..0.60).contains(&ffn2), "FFN2 fraction drifted: {ffn2:.3}");
    let mha = report.phase_fraction("QKV_CE")
        + report.phase_fraction("QK_CE")
        + report.phase_fraction("Softmax")
        + report.phase_fraction("SV_CE");
    assert!(mha < 0.05, "MHA fraction drifted: {mha:.3}");
}

#[test]
fn pin_functional_output_checksum() {
    // The bit-exact datapath's output for a fixed seed/input must never
    // change (quantization schedule, requantization points, softmax ROM
    // contents are all under this checksum).
    let cfg = EncoderConfig::new(96, 4, 2, 8);
    let weights = EncoderWeights::random(cfg, 424_242);
    let q = QuantizedEncoder::from_float(&weights, QuantSchedule::paper());
    let syn = SynthesisConfig::paper_default();
    let mut a = accel();
    a.program(RuntimeConfig::from_model(&cfg, &syn).unwrap()).unwrap();
    a.try_load_weights(q).expect("weights must match the programmed registers");
    let x = Matrix::from_fn(8, 96, |r, c| (((r * 29 + c * 13) % 190) as i32 - 95) as i8);
    let sum = checksum(&a.run(&x).output);
    // Re-pinned after the workspace switched to the vendored deterministic
    // RNG (the original pin was derived from upstream rand's ChaCha-based
    // StdRng stream; the datapath itself is unchanged and hw==sw holds).
    assert_eq!(sum, 35_073, "functional datapath drifted: checksum {sum}");
}

/// The position-weighted byte sum every checksum pin uses.
fn checksum(m: &Matrix<i8>) -> i64 {
    m.as_slice().iter().enumerate().map(|(i, &v)| i64::from(v) * (i as i64 % 251 + 1)).sum()
}

fn pinned_decoder() -> (protea::model::QuantizedDecoder, Matrix<i8>, Matrix<i8>) {
    let cfg = EncoderConfig::new(96, 4, 2, 6);
    let weights = protea::model::DecoderWeights::random(cfg, 424_243);
    let dec = protea::model::QuantizedDecoder::from_float(&weights, QuantSchedule::paper());
    let memory = Matrix::from_fn(8, 96, |r, c| (((r * 37 + c * 11) % 190) as i32 - 95) as i8);
    let x = Matrix::from_fn(6, 96, |r, c| (((r * 29 + c * 13) % 190) as i32 - 95) as i8);
    (dec, x, memory)
}

#[test]
fn pin_decoder_forward_checksum() {
    // The golden decoder's full forward (causal self-attention,
    // cross-attention over the memory, FFN) for a fixed seed and input.
    let (dec, x, memory) = pinned_decoder();
    let sum = checksum(&dec.forward(&x, &memory));
    assert_eq!(sum, 5_862, "golden decoder drifted: checksum {sum}");
}

#[test]
fn pin_packed_decode_checksum() {
    // Six KV-cached steps on the packed host datapath, the rows stacked
    // in decode order.
    let (dec, x, memory) = pinned_decoder();
    let packed = dec.pack();
    let mut cache = protea::model::DecoderKvCache::new(&dec, &memory);
    let mut out = Matrix::<i8>::zeros(6, 96);
    for pos in 0..6 {
        let row = x.submatrix(pos, 0, 1, 96);
        let y = dec.try_decode_step_packed(&packed, &mut cache, &row).expect("step fits the cache");
        out.write_submatrix(pos, 0, &y);
    }
    let sum = checksum(&out);
    assert_eq!(sum, 5_862, "packed decode drifted: checksum {sum}");
}
