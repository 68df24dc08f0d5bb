//! Fast-backend kernel benchmark: packed GEMM, model forward, fleet memo.
//!
//! Three measurements, all wall-clock, all over bit-identical
//! computations (the fast path is an exact re-association of the
//! reference path — `backend_equiv` pins the bytes):
//!
//! 1. **GEMM sweep** — the packed widened-i16 GEMM
//!    ([`protea_tensor::matmul_i8_i32_packed`]) on its auto-dispatched
//!    microkernel against the reference tile-accumulated product
//!    ([`protea_core::engines::accumulate_tiled`], the Reference
//!    backend's inner pattern) and the dense kernel
//!    ([`protea_tensor::matmul_i8_i32`], the golden model's), plus a
//!    per-ISA column block timing every kernel this host supports
//!    (scalar control, portable fallback, explicit SIMD) and the fused
//!    requant epilogue. The gate shape is `128×768×768` — one
//!    projection of the paper's 12-head/768-dim encoder at SL=128.
//! 2. **Model forward** — a full encoder run at d_model=768, 12 heads,
//!    SL=128 under [`Backend::Fast`] vs [`Backend::Reference`].
//! 3. **Fleet serving sweep** — a Poisson workload served with the
//!    timing memo on vs off, on a fine-tiled bitstream where the cycle
//!    model dominates the simulation (the component the memo removes).
//!
//! The binary writes `BENCH_kernels.json`; CI gates on
//! [`KernelsReport::gate`].

use crate::fmt::num;
use protea_core::engines::accumulate_tiled;
use protea_core::{Accelerator, Backend, RuntimeConfig, SynthesisConfig};
use protea_fixed::{QFormat, Requantizer, Rounding};
use protea_model::{EncoderConfig, EncoderWeights, QuantSchedule, QuantizedEncoder};
use protea_platform::FpgaDevice;
use protea_serve::{Fleet, FleetConfig, ServePlan, Workload};
use protea_tensor::{
    active_kernel, force_kernel, matmul_i8_i32, matmul_i8_i32_packed,
    matmul_i8_i32_packed_parallel, matmul_i8_packed_requant, supported_kernels, KernelIsa, Matrix,
    PackedWeights, RequantEpilogue, TileGrid,
};
use std::time::Instant;

/// Serial packed-GEMM timing under one forced microkernel ISA.
#[derive(Debug, Clone)]
pub struct IsaMs {
    /// Kernel name (`scalar`, `packed`, `avx2`, `avx512`, `avx512vnni`,
    /// `neon`).
    pub isa: String,
    /// Min-of-iters wall clock, ms.
    pub ms: f64,
}

/// One GEMM shape measurement (milliseconds are min-of-iters).
#[derive(Debug, Clone)]
pub struct GemmRow {
    /// Activation rows (sequence length).
    pub m: usize,
    /// Reduction dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Reference tile-accumulated product, ms.
    pub tiled_ms: f64,
    /// Dense `matmul_i8_i32`, ms.
    pub dense_ms: f64,
    /// Packed microkernel (serial, auto-dispatched ISA), ms.
    pub packed_ms: f64,
    /// Packed microkernel through the parallel entry point, ms.
    pub packed_parallel_ms: f64,
    /// Fused bias + requant epilogue (`matmul_i8_packed_requant`,
    /// serial), ms — the GEMM *plus* the narrowing stage the separate
    /// pipeline pays as an extra `O(m·n)` pass.
    pub fused_ms: f64,
    /// Median of fused over bare serial GEMM time across interleaved
    /// pairs — the fused-epilogue gate's ratio.
    pub fused_ratio: f64,
    /// Serial timing with each supported ISA forced in turn.
    pub per_isa: Vec<IsaMs>,
    /// `tiled_ms / packed_ms` — the headline per-kernel speedup.
    pub speedup: f64,
}

impl GemmRow {
    /// Speedup of the *portable fallback* kernel over the tiled
    /// reference on this shape — what a host without explicit SIMD
    /// support gets.
    #[must_use]
    pub fn fallback_speedup(&self) -> f64 {
        self.per_isa
            .iter()
            .find(|e| e.isa == KernelIsa::Packed.to_string())
            .map_or(0.0, |e| self.tiled_ms / e.ms)
    }
}

/// Full-encoder forward timing, fast vs reference backend.
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// Model width.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// Sequence length.
    pub seq_len: usize,
    /// Encoder layers run.
    pub layers: usize,
    /// Fast-backend forward, ms (min-of-iters).
    pub fast_ms: f64,
    /// Reference-backend forward, ms (min-of-iters).
    pub reference_ms: f64,
    /// `reference_ms / fast_ms`.
    pub speedup: f64,
    /// Worker threads available to the fast path's fan-out.
    pub threads: usize,
}

/// Fleet serving sweep wall-clock, memo on vs off.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Requests served.
    pub requests: usize,
    /// Wall-clock with the timing memo enabled, ms.
    pub memo_ms: f64,
    /// Wall-clock with the timing memo disabled, ms.
    pub no_memo_ms: f64,
    /// `no_memo_ms / memo_ms`.
    pub speedup: f64,
}

/// Everything the `kernels` binary measures.
#[derive(Debug, Clone)]
pub struct KernelsReport {
    /// The auto-dispatched microkernel ISA the headline numbers ran on.
    pub kernel: String,
    /// Every ISA this host can run (per-ISA rows cover each).
    pub supported: Vec<String>,
    /// GEMM sweep rows (last row is the 768-wide gate shape).
    pub gemm: Vec<GemmRow>,
    /// Encoder forward at the paper's 12-head/768-dim shape.
    pub model: ModelRow,
    /// Serving sweep with the timing memo on/off.
    pub fleet: FleetRow,
}

impl KernelsReport {
    /// The CI gate: packed-kernel speedup at the 12-head/768-dim shape
    /// (`128×768×768`, the last GEMM row), on the auto-dispatched ISA.
    #[must_use]
    pub fn gate(&self) -> f64 {
        self.gemm.last().map_or(0.0, |r| r.speedup)
    }

    /// The fallback gate: the portable kernel's speedup on the same
    /// shape — what CI enforces on runners without explicit SIMD.
    #[must_use]
    pub fn fallback_gate(&self) -> f64 {
        self.gemm.last().map_or(0.0, GemmRow::fallback_speedup)
    }

    /// True when the auto-dispatched kernel is an explicit SIMD variant
    /// (AVX2/AVX-512/AVX-512 VNNI/NEON) rather than the portable
    /// fallback — decides which gate threshold applies.
    #[must_use]
    pub fn simd_dispatched(&self) -> bool {
        self.kernel != KernelIsa::Packed.to_string() && self.kernel != KernelIsa::Scalar.to_string()
    }

    /// The VNNI gate: how many times faster the `avx512vnni` kernel runs
    /// the gate shape than the widened-i16 `avx512` kernel (serial,
    /// per-ISA rows); `None` when the host lacks either.
    #[must_use]
    pub fn vnni_speedup(&self) -> Option<f64> {
        let row = self.gemm.last()?;
        let ms =
            |isa: KernelIsa| row.per_isa.iter().find(|e| e.isa == isa.to_string()).map(|e| e.ms);
        Some(ms(KernelIsa::Avx512)? / ms(KernelIsa::Avx512Vnni)?)
    }

    /// Shapes with `k` and `n` of at least `min_dim` where the fused
    /// requant epilogue costs more than `max_ratio ×` the bare serial
    /// GEMM — empty means the epilogue is near-free at those shapes,
    /// the fused-epilogue gate. Shallower rows are reported but not
    /// gated: there the GEMM is too short to hide the narrowing.
    #[must_use]
    pub fn fused_regressions(&self, max_ratio: f64, min_dim: usize) -> Vec<String> {
        self.gemm
            .iter()
            .filter(|r| r.k.min(r.n) >= min_dim && r.fused_ratio > max_ratio)
            .map(|r| format!("{}x{}x{} ({:.2}x)", r.m, r.k, r.n, r.fused_ratio))
            .collect()
    }

    /// Shapes where the parallel entry point ran slower than the
    /// serial kernel beyond `tol_frac` (+ a fixed 50µs noise floor) —
    /// empty means parallel ≥ serial everywhere, the regression gate.
    #[must_use]
    pub fn parallel_regressions(&self, tol_frac: f64) -> Vec<String> {
        self.gemm
            .iter()
            .filter(|r| r.packed_parallel_ms > r.packed_ms * (1.0 + tol_frac) + 0.05)
            .map(|r| format!("{}x{}x{}", r.m, r.k, r.n))
            .collect()
    }

    /// Hand-rolled JSON (the workspace has no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        let supported: Vec<String> = self.supported.iter().map(|s| format!("\"{s}\"")).collect();
        let mut s = format!(
            "{{\n  \"kernel\": \"{}\",\n  \"supported\": [{}],\n  \"gemm\": [\n",
            self.kernel,
            supported.join(", ")
        );
        for (i, r) in self.gemm.iter().enumerate() {
            let isa_ms: Vec<String> =
                r.per_isa.iter().map(|e| format!("\"{}\": {:.4}", e.isa, e.ms)).collect();
            s.push_str(&format!(
                "    {{\"m\": {}, \"k\": {}, \"n\": {}, \"tiled_ms\": {:.4}, \"dense_ms\": {:.4}, \
                 \"packed_ms\": {:.4}, \"packed_parallel_ms\": {:.4}, \"fused_ms\": {:.4}, \
                 \"fused_ratio\": {:.3}, \"isa_ms\": {{{}}}, \"speedup\": {:.3}}}{}\n",
                r.m,
                r.k,
                r.n,
                r.tiled_ms,
                r.dense_ms,
                r.packed_ms,
                r.packed_parallel_ms,
                r.fused_ms,
                r.fused_ratio,
                isa_ms.join(", "),
                r.speedup,
                if i + 1 < self.gemm.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        let m = &self.model;
        s.push_str(&format!(
            "  \"model\": {{\"d_model\": {}, \"heads\": {}, \"seq_len\": {}, \"layers\": {}, \
             \"fast_ms\": {:.3}, \"reference_ms\": {:.3}, \"speedup\": {:.3}, \"threads\": {}}},\n",
            m.d_model,
            m.heads,
            m.seq_len,
            m.layers,
            m.fast_ms,
            m.reference_ms,
            m.speedup,
            m.threads
        ));
        let f = &self.fleet;
        s.push_str(&format!(
            "  \"fleet\": {{\"requests\": {}, \"memo_ms\": {:.3}, \"no_memo_ms\": {:.3}, \
             \"speedup\": {:.3}}},\n",
            f.requests, f.memo_ms, f.no_memo_ms, f.speedup
        ));
        let vnni = self.vnni_speedup().map_or("null".to_string(), |v| format!("{v:.3}"));
        s.push_str(&format!(
            "  \"gate_speedup_768\": {:.3},\n  \"fallback_speedup_768\": {:.3},\n  \
             \"vnni_speedup_768\": {vnni}\n}}\n",
            self.gate(),
            self.fallback_gate()
        ));
        s
    }

    /// Render the sections as tables for the binary.
    #[must_use]
    pub fn render(&self) -> String {
        let gemm_rows: Vec<Vec<String>> = self
            .gemm
            .iter()
            .map(|r| {
                vec![
                    format!("{}x{}x{}", r.m, r.k, r.n),
                    num(r.tiled_ms),
                    num(r.dense_ms),
                    num(r.packed_ms),
                    num(r.packed_parallel_ms),
                    num(r.fused_ms),
                    format!("{:.2}x", r.fused_ratio),
                    format!("{:.2}x", r.speedup),
                ]
            })
            .collect();
        let isa_headers: Vec<String> = std::iter::once("shape (MxKxN)".to_string())
            .chain(self.supported.iter().map(|s| format!("{s} ms")))
            .collect();
        let isa_header_refs: Vec<&str> = isa_headers.iter().map(String::as_str).collect();
        let isa_rows: Vec<Vec<String>> = self
            .gemm
            .iter()
            .map(|r| {
                std::iter::once(format!("{}x{}x{}", r.m, r.k, r.n))
                    .chain(r.per_isa.iter().map(|e| num(e.ms)))
                    .collect()
            })
            .collect();
        let m = &self.model;
        let model_rows = vec![vec![
            format!("d={} h={} SL={} L={}", m.d_model, m.heads, m.seq_len, m.layers),
            num(m.fast_ms),
            num(m.reference_ms),
            format!("{:.2}x", m.speedup),
            m.threads.to_string(),
        ]];
        let f = &self.fleet;
        let fleet_rows = vec![vec![
            f.requests.to_string(),
            num(f.memo_ms),
            num(f.no_memo_ms),
            format!("{:.2}x", f.speedup),
        ]];
        format!(
            "GEMM microkernel (min-of-iters, dispatched kernel: {})\n{}\nPer-ISA serial packed GEMM\n{}\nEncoder forward\n{}\nFleet serving sweep (timing memo)\n{}",
            self.kernel,
            crate::fmt::render_table(
                &[
                    "shape (MxKxN)",
                    "tiled ms",
                    "dense ms",
                    "packed ms",
                    "packed-par ms",
                    "fused ms",
                    "fused/bare",
                    "speedup"
                ],
                &gemm_rows
            ),
            crate::fmt::render_table(&isa_header_refs, &isa_rows),
            crate::fmt::render_table(
                &["shape", "fast ms", "reference ms", "speedup", "threads"],
                &model_rows
            ),
            crate::fmt::render_table(
                &["requests", "memo ms", "no-memo ms", "speedup"],
                &fleet_rows
            ),
        )
    }
}

fn mat(m: usize, k: usize, salt: usize) -> Matrix<i8> {
    Matrix::from_fn(m, k, |r, c| (((r * 31 + c * 7 + salt * 13) % 251) as i64 - 125) as i8)
}

fn min_ms<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Measure one GEMM shape with `iters` repetitions per kernel.
#[must_use]
pub fn gemm_row(m: usize, k: usize, n: usize, iters: u32) -> GemmRow {
    let a = mat(m, k, 1);
    let w = mat(k, n, 2);
    let packed = PackedWeights::pack(&w);
    // The Reference backend's tile width: the paper default 64, clamped
    // to the reduction dimension.
    let ts = 64.min(k).max(1);
    let grid = TileGrid::new(k, n, ts, n);
    let tiled_ms = min_ms(iters, || {
        let mut acc = Matrix::<i32>::zeros(m, n);
        accumulate_tiled(&mut acc, &a, &w, &grid);
        std::hint::black_box(&acc);
    });
    let dense_ms = min_ms(iters, || {
        std::hint::black_box(matmul_i8_i32(&a, &w));
    });
    let packed_ms = min_ms(iters, || {
        std::hint::black_box(matmul_i8_i32_packed(&a, &packed));
    });
    let packed_parallel_ms = min_ms(iters, || {
        std::hint::black_box(matmul_i8_i32_packed_parallel(&a, &packed));
    });
    // Every encoder projection carries a bias, so the fused epilogue
    // is timed with one. It is gated against the bare GEMM as the
    // median ratio of interleaved pairs, over at least 10 pairs and
    // 300 ms: host noise then lands on both sides of each pair, and the
    // microsecond-scale shapes get enough pairs for a stable median.
    let rq = Requantizer::new(10, QFormat::new(8, 5), Rounding::NearestEven);
    let bias: Vec<i32> = (0..n).map(|j| (j as i32 % 97 - 48) * 211).collect();
    let epi = RequantEpilogue::new(rq.lanes()).with_bias(&bias);
    let mut fused_ms = f64::INFINITY;
    let mut ratios = Vec::new();
    let start = Instant::now();
    while ratios.len() < iters.max(10) as usize || start.elapsed().as_secs_f64() < 0.3 {
        let bare = min_ms(1, || {
            std::hint::black_box(matmul_i8_i32_packed(&a, &packed));
        });
        let fused = min_ms(1, || {
            std::hint::black_box(matmul_i8_packed_requant(&a, &packed, &epi));
        });
        fused_ms = fused_ms.min(fused);
        ratios.push(fused / bare);
    }
    ratios.sort_by(f64::total_cmp);
    let fused_ratio = ratios[ratios.len() / 2];
    // Per-ISA rows: the same serial GEMM with each supported kernel
    // forced. The scalar control is slow at the large shapes, so it gets
    // fewer repetitions.
    let per_isa = supported_kernels()
        .into_iter()
        .map(|isa| {
            let reps = if isa == KernelIsa::Scalar { iters.clamp(1, 2) } else { iters };
            force_kernel(Some(isa));
            let ms = min_ms(reps, || {
                std::hint::black_box(matmul_i8_i32_packed(&a, &packed));
            });
            force_kernel(None);
            IsaMs { isa: isa.to_string(), ms }
        })
        .collect();
    GemmRow {
        m,
        k,
        n,
        tiled_ms,
        dense_ms,
        packed_ms,
        packed_parallel_ms,
        fused_ms,
        fused_ratio,
        per_isa,
        speedup: tiled_ms / packed_ms,
    }
}

/// The GEMM sweep: small/medium shapes plus the 768-wide gate shape
/// (one QKV projection of the 12-head encoder at SL=128) last.
#[must_use]
pub fn gemm_sweep(iters: u32) -> Vec<GemmRow> {
    vec![
        gemm_row(32, 96, 96, iters.max(8)),
        gemm_row(64, 256, 256, iters.max(4)),
        gemm_row(128, 768, 3072, iters),
        gemm_row(128, 768, 768, iters),
    ]
}

/// Forward a full encoder at the paper's 12-head/768-dim shape under
/// both backends and time each (min of `iters` runs after one warmup).
///
/// # Panics
/// Panics if the 12-head/768-wide design does not fit the U250 (it
/// does) or the register file is rejected.
#[must_use]
pub fn model_forward(iters: u32) -> ModelRow {
    let (d_model, heads, seq_len, layers) = (768, 12, 128, 2);
    let syn = SynthesisConfig::builder()
        .heads(heads)
        .d_max(d_model)
        .sl_max(seq_len)
        .ts_mha(64)
        .ts_ffn(64)
        .build()
        .expect("paper-scale synthesis config");
    let mut acc = Accelerator::try_new(syn, &FpgaDevice::alveo_u250()).expect("fits the U250");
    acc.program(RuntimeConfig { heads, layers, d_model, seq_len }).expect("within capacity");
    let cfg = EncoderConfig::new(d_model, heads, layers, seq_len);
    let qw = QuantizedEncoder::from_float(&EncoderWeights::random(cfg, 7), QuantSchedule::paper());
    acc.try_load_weights(qw).expect("image matches registers");
    let x = mat(seq_len, d_model, 3);

    let mut time_backend = |backend: Backend| -> f64 {
        acc.set_backend(backend);
        let _ = acc.try_run(&x).expect("warmup run"); // warmup (packs lazily)
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            let t = Instant::now();
            let _ = acc.try_run(&x).expect("timed run");
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        best
    };
    let fast_ms = time_backend(Backend::Fast);
    let reference_ms = time_backend(Backend::Reference);
    ModelRow {
        d_model,
        heads,
        seq_len,
        layers,
        fast_ms,
        reference_ms,
        speedup: reference_ms / fast_ms,
        threads: rayon::current_num_threads(),
    }
}

/// Serve a heavy Poisson sweep with the timing memo on and off. The
/// bitstream is deliberately fine-tiled (ts=8 at d_max=768 → 96-strip
/// FFN plans), making the cycle model the dominant simulation cost —
/// exactly the component the memo collapses to one evaluation per
/// `(runtime, batch)` key.
///
/// # Panics
/// Panics if the fine-tiled synthesis is rejected or the sweep fails
/// (neither happens for the fixed workload).
#[must_use]
pub fn fleet_sweep(requests: usize) -> FleetRow {
    let wl = Workload::poisson(requests, 50_000.0, &[(768, 12, 2)], (16, 128), 9);
    let syn = SynthesisConfig::builder()
        .heads(12)
        .d_max(768)
        .sl_max(128)
        .ts_mha(8)
        .ts_ffn(8)
        .build()
        .expect("fine-tiled synthesis config");
    let mut walls = [0.0f64; 2];
    for (i, memo) in [true, false].into_iter().enumerate() {
        let fleet = Fleet::try_new(FleetConfig {
            timing_memo: memo,
            synthesis: syn,
            device: FpgaDevice::alveo_u250(),
            ..FleetConfig::default()
        })
        .expect("fleet construction");
        let t = Instant::now();
        let report = fleet.run(ServePlan::workload(&wl)).expect("sweep serves").report;
        assert_eq!(report.completed, requests, "all requests must complete");
        walls[i] = t.elapsed().as_secs_f64() * 1e3;
    }
    FleetRow { requests, memo_ms: walls[0], no_memo_ms: walls[1], speedup: walls[1] / walls[0] }
}

/// Run the full benchmark. `iters` scales the per-kernel repetitions;
/// `requests` the serving sweep length.
#[must_use]
pub fn run(iters: u32, requests: usize) -> KernelsReport {
    KernelsReport {
        kernel: active_kernel().to_string(),
        supported: supported_kernels().into_iter().map(|k| k.to_string()).collect(),
        gemm: gemm_sweep(iters),
        model: model_forward(iters),
        fleet: fleet_sweep(requests),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_row_is_positive_and_consistent() {
        let r = gemm_row(8, 32, 24, 2);
        assert!(r.tiled_ms > 0.0 && r.packed_ms > 0.0);
        assert!((r.speedup - r.tiled_ms / r.packed_ms).abs() < 1e-9);
    }

    #[test]
    fn gemm_row_covers_every_supported_isa() {
        let r = gemm_row(4, 16, 12, 1);
        let names: Vec<String> = r.per_isa.iter().map(|e| e.isa.clone()).collect();
        for isa in supported_kernels() {
            assert!(names.contains(&isa.to_string()), "missing per-ISA row for {isa}");
        }
        assert!(r.fused_ms > 0.0 && r.fused_ratio > 0.0);
        assert!(r.fallback_speedup() > 0.0);
    }

    #[test]
    fn fused_gate_flags_only_wide_rows_over_the_ratio() {
        let mut slow = gemm_row(4, 16, 12, 1);
        slow.fused_ratio = 1.2;
        let mut fast = slow.clone();
        fast.fused_ratio = 1.1;
        let mut narrow = gemm_row(4, 8, 12, 1);
        narrow.fused_ratio = 1.3;
        let rep = KernelsReport {
            kernel: active_kernel().to_string(),
            supported: Vec::new(),
            gemm: vec![slow, fast, narrow],
            model: ModelRow {
                d_model: 1,
                heads: 1,
                seq_len: 1,
                layers: 1,
                fast_ms: 1.0,
                reference_ms: 1.0,
                speedup: 1.0,
                threads: 1,
            },
            fleet: FleetRow { requests: 1, memo_ms: 1.0, no_memo_ms: 1.0, speedup: 1.0 },
        };
        assert_eq!(rep.fused_regressions(1.15, 12), vec!["4x16x12 (1.20x)".to_string()]);
        // The VNNI gate reads the last (gate-shape) row's per-ISA times.
        let mut rep = rep;
        let avx512 = IsaMs { isa: KernelIsa::Avx512.to_string(), ms: 3.0 };
        let vnni = IsaMs { isa: KernelIsa::Avx512Vnni.to_string(), ms: 1.5 };
        rep.gemm.last_mut().expect("rows").per_isa = vec![avx512.clone()];
        assert_eq!(rep.vnni_speedup(), None, "no VNNI row, no VNNI gate");
        rep.gemm.last_mut().expect("rows").per_isa = vec![avx512, vnni];
        assert_eq!(rep.vnni_speedup(), Some(2.0));
    }

    #[test]
    fn json_shape_is_well_formed() {
        let rep = KernelsReport {
            kernel: active_kernel().to_string(),
            supported: supported_kernels().into_iter().map(|k| k.to_string()).collect(),
            gemm: vec![gemm_row(8, 32, 24, 1)],
            model: ModelRow {
                d_model: 768,
                heads: 12,
                seq_len: 128,
                layers: 2,
                fast_ms: 1.0,
                reference_ms: 3.0,
                speedup: 3.0,
                threads: 1,
            },
            fleet: FleetRow { requests: 10, memo_ms: 1.0, no_memo_ms: 9.0, speedup: 9.0 },
        };
        let j = rep.to_json();
        assert!(j.contains("\"gate_speedup_768\""));
        assert!(j.contains("\"fallback_speedup_768\""));
        assert!(j.contains("\"vnni_speedup_768\""));
        assert!(j.contains("\"kernel\""));
        assert!(j.contains("\"isa_ms\""));
        assert!(j.contains("\"fused_ms\"") && j.contains("\"fused_ratio\""));
        assert!(j.contains("\"fleet\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn fleet_sweep_memo_wins() {
        let r = fleet_sweep(200);
        assert!(r.speedup > 1.0, "memo must not slow the sweep: {r:?}");
    }
}
