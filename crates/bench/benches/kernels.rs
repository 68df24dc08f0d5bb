//! Criterion microbenchmarks of the compute kernels: the matmul
//! variants and the nonlinear units.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use protea_fixed::layernorm::LayerNormUnit;
use protea_fixed::{softmax_fixed, QFormat};
use protea_tensor::{matmul_i8_i32, matmul_naive, Matrix, PackedWeights};

fn i8_vec(n: usize, seed: u64) -> Vec<i8> {
    (0..n).map(|i| ((i as u64).wrapping_mul(seed).wrapping_add(17) % 255) as i8).collect()
}

fn bench_matmul_f32(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul_f32");
    g.sample_size(10);
    for &n in &[64usize, 128] {
        let a = Matrix::from_fn(n, n, |r, cc| ((r * 7 + cc) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(n, n, |r, cc| ((r + cc * 5) % 11) as f32 - 5.0);
        g.throughput(Throughput::Elements((n * n * n) as u64));
        g.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| matmul_naive(black_box(&a), black_box(&b)))
        });
    }
    g.finish();
}

fn bench_matmul_i8(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul_i8");
    g.sample_size(10);
    for &n in &[64usize, 256] {
        let a = Matrix::from_vec(n, n, i8_vec(n * n, 3));
        let b = Matrix::from_vec(n, n, i8_vec(n * n, 7));
        g.throughput(Throughput::Elements((n * n * n) as u64));
        g.bench_with_input(BenchmarkId::new("serial", n), &n, |bch, _| {
            bch.iter(|| matmul_i8_i32(black_box(&a), black_box(&b)))
        });
        let packed = PackedWeights::pack(&b);
        g.bench_with_input(BenchmarkId::new("packed", n), &n, |bch, _| {
            bch.iter(|| protea_tensor::matmul_i8_i32_packed(black_box(&a), black_box(&packed)))
        });
    }
    g.finish();
}

fn bench_nonlinear(c: &mut Criterion) {
    let mut g = c.benchmark_group("nonlinear");
    let fmt = QFormat::new(8, 5);
    let row = i8_vec(128, 91);
    g.bench_function("softmax_row128", |bch| bch.iter(|| softmax_fixed(black_box(&row), fmt)));
    let ln = LayerNormUnit::identity(768, fmt);
    let data = i8_vec(768, 13);
    let mut row = vec![0i8; 768];
    g.bench_function("layernorm_row768", |bch| {
        bch.iter(|| {
            row.copy_from_slice(black_box(&data));
            ln.forward_row(black_box(&mut row));
        })
    });
    g.finish();
}

criterion_group!(benches, bench_matmul_f32, bench_matmul_i8, bench_nonlinear);
criterion_main!(benches);
