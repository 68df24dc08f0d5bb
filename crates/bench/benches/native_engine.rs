//! Criterion benchmarks of the golden int8 encoder forward on this
//! machine (serial, the oracle every host datapath is checked against)
//! and of weight quantization. perfbench's `encoder_forward` times the
//! accelerator's packed, thread-parallel datapath.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use protea_fixed::Quantizer;
use protea_model::{EncoderConfig, EncoderWeights, QuantSchedule, QuantizedEncoder};
use protea_tensor::Matrix;

fn bench_forward(c: &mut Criterion) {
    let mut g = c.benchmark_group("native_forward");
    g.sample_size(10);
    for &(d, h, n, sl, tag) in &[
        (64usize, 8usize, 1usize, 8usize, "model2_hep"),
        (256, 8, 2, 32, "small"),
        (768, 8, 1, 12, "model1_bertslice"),
    ] {
        let cfg = EncoderConfig::new(d, h, n, sl);
        let enc =
            QuantizedEncoder::from_float(&EncoderWeights::random(cfg, 5), QuantSchedule::paper());
        let x = Matrix::from_fn(sl, d, |r, cc| ((r * 31 + cc * 7) % 127) as i8);
        g.bench_with_input(BenchmarkId::new("golden_serial", tag), &d, |b, _| {
            b.iter(|| black_box(enc.forward(&x)))
        });
    }
    g.finish();
}

fn bench_quantization(c: &mut Criterion) {
    let data: Vec<f32> = (0..768 * 768).map(|i| ((i % 977) as f32 - 488.0) / 977.0).collect();
    c.bench_function("quantize_768x768", |b| {
        b.iter(|| Quantizer::default().quantize(black_box(&data)))
    });
}

criterion_group!(benches, bench_forward, bench_quantization);
criterion_main!(benches);
