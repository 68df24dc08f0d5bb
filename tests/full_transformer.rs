//! Cross-crate integration: the complete sequence-to-sequence system —
//! encoder and decoder both on the simulated accelerator, KV-cached
//! generation, workload generators — against the pure-software golden
//! paths.

use protea::model::decoder::{DecoderKvCache, DecoderWeights, QuantizedDecoder};
use protea::model::workload;
use protea::prelude::*;

fn accel_for(cfg: &EncoderConfig) -> Accelerator {
    let syn = SynthesisConfig::paper_default();
    let mut a =
        Accelerator::try_new(syn, &FpgaDevice::alveo_u55c()).expect("design must fit the device");
    a.program(RuntimeConfig::from_model(cfg, &syn).unwrap()).unwrap();
    a
}

#[test]
fn encoder_decoder_chain_on_the_accelerator() {
    let cfg = EncoderConfig::new(96, 4, 2, 12);
    let enc_w = EncoderWeights::random(cfg, 1);
    let dec_w = DecoderWeights::random(cfg, 2);
    let enc_q = QuantizedEncoder::from_float(&enc_w, QuantSchedule::paper());
    let dec_q = QuantizedDecoder::from_float(&dec_w, QuantSchedule::paper());

    let mut accel = accel_for(&cfg);
    accel.try_load_weights(enc_q.clone()).expect("weights must match the programmed registers");

    let src = enc_q.quantize_input(&workload::uniform_activations(&cfg, 1.5, 10));
    let tgt_f = workload::uniform_activations(&EncoderConfig::new(96, 4, 2, 8), 1.5, 11);
    let tgt = dec_q.quantize_input(&tgt_f);

    // accelerator path
    let memory_hw = accel.run(&src);
    let out_hw = accel.run_decoder(&dec_q, &tgt, &memory_hw.output);
    // software golden path
    let memory_sw = enc_q.forward(&src);
    let out_sw = dec_q.forward(&tgt, &memory_sw);
    assert_eq!(memory_hw.output.as_slice(), memory_sw.as_slice());
    assert_eq!(out_hw.output.as_slice(), out_sw.as_slice());
    // end-to-end latency is the sum of the two stacks
    assert!(out_hw.latency_ms > 0.0 && memory_hw.latency_ms > 0.0);
}

#[test]
fn kv_cached_generation_matches_accelerator_full_pass() {
    let cfg = EncoderConfig::new(64, 4, 1, 6);
    let dec_q =
        QuantizedDecoder::from_float(&DecoderWeights::random(cfg, 3), QuantSchedule::paper());
    let accel = accel_for(&cfg);
    let mem = Matrix::from_fn(10, 64, |r, c| ((r * 7 + c * 3) % 120) as i8);
    let x = Matrix::from_fn(6, 64, |r, c| ((r * 11 + c * 5) % 120) as i8);
    // full pass through the accelerator (the golden decoder forward)
    let full = accel.run_decoder(&dec_q, &x, &mem).output;
    // incremental with KV cache (software; same golden datapath)
    let mut cache = DecoderKvCache::new(&dec_q, &mem);
    for r in 0..6 {
        let row = dec_q.decode_step(&mut cache, &x.submatrix(r, 0, 1, 64));
        assert_eq!(row.row(0), full.row(r), "position {r}");
    }
}

#[test]
fn self_test_guards_deployments() {
    let cfg = EncoderConfig::new(96, 4, 1, 8);
    let mut accel = accel_for(&cfg);
    accel
        .try_load_weights(QuantizedEncoder::from_float(
            &EncoderWeights::random(cfg, 4),
            QuantSchedule::paper(),
        ))
        .expect("weights must match the programmed registers");
    assert_eq!(accel.self_test(), Ok(()));
}

#[test]
fn workload_generators_feed_the_accelerator() {
    let cfg = EncoderConfig::new(96, 4, 1, 16);
    let mut accel = accel_for(&cfg);
    let q = QuantizedEncoder::from_float(&EncoderWeights::random(cfg, 5), QuantSchedule::paper());
    accel.try_load_weights(q.clone()).expect("weights must match the programmed registers");
    // a batch of generated inputs
    let inputs: Vec<Matrix<i8>> =
        workload::batch(&cfg, 3, 2.0, 77).iter().map(|x| q.quantize_input(x)).collect();
    let (outs, report) = accel.run_batch(&inputs);
    assert_eq!(outs.len(), 3);
    assert!(report.total.get() > 0);
    for (o, x) in outs.iter().zip(&inputs) {
        assert_eq!(o.as_slice(), q.forward(x).as_slice());
    }
    // needle sequences survive quantization with their planted structure
    let (needle_x, pos) = workload::needle_sequence(&cfg, 16, 9);
    let xq = q.quantize_input(&needle_x);
    let norms: Vec<i64> = (0..cfg.seq_len)
        .map(|r| xq.row(r).iter().map(|&v| i64::from(v) * i64::from(v)).sum())
        .collect();
    let argmax = norms.iter().enumerate().max_by_key(|&(_, n)| *n).unwrap().0;
    assert_eq!(argmax, pos, "needle must survive quantization");
}
