//! Kernel benchmark: packed GEMM and the fleet timing memo.
//!
//! Two measurements, both wall-clock, both over bit-identical
//! computations (every kernel reproduces `matmul_i8_i32`'s
//! accumulators exactly — `kernel_exact` pins the bytes):
//!
//! 1. **GEMM sweep** — the packed GEMM
//!    ([`protea_tensor::matmul_i8_i32_packed`]) on its auto-dispatched
//!    microkernel against the tile-accumulated scalar product
//!    ([`protea_core::engines::accumulate_tiled`], a fixed denominator
//!    no kernel change moves) and the dense kernel
//!    ([`protea_tensor::matmul_i8_i32`], the golden model's), plus a
//!    per-ISA column block timing every kernel this host supports
//!    (scalar control, portable fallback, explicit SIMD) and the fused
//!    requant epilogue. The gate shape is `128×768×768` — one
//!    projection of the paper's 12-head/768-dim encoder at SL=128.
//! 2. **Fleet serving sweep** — a Poisson workload served with the
//!    timing memo on vs off, on a fine-tiled bitstream where the cycle
//!    model dominates the simulation (the component the memo removes).
//!
//! The encoder forward itself is timed by perfbench's
//! `encoder_forward` workload. The binary writes `BENCH_kernels.json`;
//! CI gates on [`KernelsReport::gate`].

use crate::fmt::num;
use protea_core::engines::accumulate_tiled;
use protea_core::SynthesisConfig;
use protea_fixed::{QFormat, Requantizer, Rounding};
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
    /// `amx`, `neon`).
    pub isa: String,
    /// Min-of-iters wall clock, ms.
    pub ms: f64,
}

/// A gated speed ratio between two serial GEMMs of one shape: the
/// median of `slow / fast` wall-clock ratios over interleaved pairs.
#[derive(Debug, Clone)]
pub struct IsaRatio {
    /// The slower kernel.
    pub slow: String,
    /// The faster kernel.
    pub fast: String,
    /// Median `slow / fast` time.
    pub ratio: f64,
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
    /// The cross-kernel gates' ratios ([`gate_ratios`]); measured on the
    /// gate shape only, empty on the other rows.
    pub ratios: Vec<IsaRatio>,
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

    /// How many times faster `fast` ran this shape than `slow`, when the
    /// row measured that pair.
    #[must_use]
    pub fn ratio(&self, slow: KernelIsa, fast: KernelIsa) -> Option<f64> {
        let (slow, fast) = (slow.to_string(), fast.to_string());
        self.ratios.iter().find(|r| r.slow == slow && r.fast == fast).map(|r| r.ratio)
    }
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

    /// How many times faster `fast` runs the gate shape than `slow`
    /// (serial, median of interleaved pairs); `None` when the host lacks
    /// either.
    fn isa_speedup(&self, fast: KernelIsa, slow: KernelIsa) -> Option<f64> {
        self.gemm.last()?.ratio(slow, fast)
    }

    /// The VNNI gate: how many times faster the `avx512vnni` kernel runs
    /// the gate shape than the widened-i16 `avx512` kernel; `None` when
    /// the host lacks either.
    #[must_use]
    pub fn vnni_speedup(&self) -> Option<f64> {
        self.isa_speedup(KernelIsa::Avx512Vnni, KernelIsa::Avx512)
    }

    /// The AMX gate: how many times faster the `amx` tile kernel runs the
    /// gate shape than the `avx512vnni` kernel; `None` when the host
    /// lacks either.
    #[must_use]
    pub fn amx_speedup(&self) -> Option<f64> {
        self.isa_speedup(KernelIsa::Amx, KernelIsa::Avx512Vnni)
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
        let f = &self.fleet;
        s.push_str(&format!(
            "  \"fleet\": {{\"requests\": {}, \"memo_ms\": {:.3}, \"no_memo_ms\": {:.3}, \
             \"speedup\": {:.3}}},\n",
            f.requests, f.memo_ms, f.no_memo_ms, f.speedup
        ));
        let opt = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.3}"));
        let (vnni, amx) = (opt(self.vnni_speedup()), opt(self.amx_speedup()));
        s.push_str(&format!(
            "  \"gate_speedup_768\": {:.3},\n  \"fallback_speedup_768\": {:.3},\n  \
             \"vnni_speedup_768\": {vnni},\n  \"amx_speedup_768\": {amx}\n}}\n",
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
        let f = &self.fleet;
        let fleet_rows = vec![vec![
            f.requests.to_string(),
            num(f.memo_ms),
            num(f.no_memo_ms),
            format!("{:.2}x", f.speedup),
        ]];
        format!(
            "GEMM microkernel (min-of-iters, dispatched kernel: {})\n{}\nPer-ISA serial packed GEMM\n{}\nFleet serving sweep (timing memo)\n{}",
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

/// Time `a` and `b` in interleaved pairs, at least `min_pairs` of them
/// and 300 ms, and return the median `a / b` ratio with the fastest
/// time of `a`. Host noise then lands on both sides of each pair: the
/// cores of a shared host drift by up to 2× over seconds, which skews a
/// ratio of two separately timed minimums.
fn paired(min_pairs: u32, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let mut a_ms = f64::INFINITY;
    let mut ratios = Vec::new();
    let start = Instant::now();
    while ratios.len() < min_pairs as usize || start.elapsed().as_secs_f64() < 0.3 {
        let ta = min_ms(1, &mut a);
        a_ms = a_ms.min(ta);
        ratios.push(ta / min_ms(1, &mut b));
    }
    ratios.sort_by(f64::total_cmp);
    (ratios[ratios.len() / 2], a_ms)
}

/// Measure one GEMM shape with `iters` repetitions per kernel.
#[must_use]
pub fn gemm_row(m: usize, k: usize, n: usize, iters: u32) -> GemmRow {
    let a = mat(m, k, 1);
    let w = mat(k, n, 2);
    let packed = PackedWeights::pack(&w);
    // The tiled denominator's tile width: the paper default 64, clamped
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
    // median ratio of interleaved pairs, so the microsecond-scale
    // shapes get enough pairs for a stable median.
    let rq = Requantizer::new(10, QFormat::new(8, 5), Rounding::NearestEven);
    let bias: Vec<i32> = (0..n).map(|j| (j as i32 % 97 - 48) * 211).collect();
    let epi = RequantEpilogue::new(rq.lanes()).with_bias(&bias);
    let (fused_ratio, fused_ms) = paired(
        iters.max(10),
        || {
            std::hint::black_box(matmul_i8_packed_requant(&a, &packed, &epi));
        },
        || {
            std::hint::black_box(matmul_i8_i32_packed(&a, &packed));
        },
    );
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
        ratios: Vec::new(),
        speedup: tiled_ms / packed_ms,
    }
}

/// The cross-kernel gates' ratios on one shape, each the median of
/// interleaved serial pairs (`paired`): `avx512vnni` over `avx512`,
/// and `amx` over `avx512vnni`, each when the host runs both kernels.
#[must_use]
pub fn gate_ratios(m: usize, k: usize, n: usize, iters: u32) -> Vec<IsaRatio> {
    let a = mat(m, k, 1);
    let packed = PackedWeights::pack(&mat(k, n, 2));
    let gemm_on = |isa: KernelIsa| {
        force_kernel(Some(isa));
        std::hint::black_box(matmul_i8_i32_packed(&a, &packed));
    };
    let supported = supported_kernels();
    let mut ratios = Vec::new();
    for (slow, fast) in
        [(KernelIsa::Avx512, KernelIsa::Avx512Vnni), (KernelIsa::Avx512Vnni, KernelIsa::Amx)]
    {
        if supported.contains(&slow) && supported.contains(&fast) {
            let (ratio, _) = paired(iters.max(10), || gemm_on(slow), || gemm_on(fast));
            ratios.push(IsaRatio { slow: slow.to_string(), fast: fast.to_string(), ratio });
        }
    }
    force_kernel(None);
    ratios
}

/// The GEMM sweep: small/medium shapes plus the 768-wide gate shape
/// (one QKV projection of the 12-head encoder at SL=128) last. The first
/// two rows straddle the parallel GEMM's 2¹⁹-MAC threshold: 32×96×96
/// (0.3M MACs) runs its serial fallback, 64×96×128 (0.8M) splits into
/// bands. They take microseconds, well inside the parallel gate's 50 µs
/// allowance, so they report the break-even rather than gate it. Only
/// the gate shape measures the cross-kernel ratios ([`gate_ratios`]).
#[must_use]
pub fn gemm_sweep(iters: u32) -> Vec<GemmRow> {
    let mut gate = gemm_row(128, 768, 768, iters);
    gate.ratios = gate_ratios(128, 768, 768, iters);
    vec![
        gemm_row(32, 96, 96, iters.max(8)),
        gemm_row(64, 96, 128, iters.max(8)),
        gemm_row(64, 256, 256, iters.max(4)),
        gemm_row(128, 768, 3072, iters),
        gate,
    ]
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
    fn gate_ratios_cover_every_supported_pair() {
        let ratios = gate_ratios(4, 16, 12, 1);
        let pairs: Vec<(&str, &str)> =
            ratios.iter().map(|r| (r.slow.as_str(), r.fast.as_str())).collect();
        assert!(ratios.iter().all(|r| r.ratio > 0.0));
        for (slow, fast) in
            [(KernelIsa::Avx512, KernelIsa::Avx512Vnni), (KernelIsa::Avx512Vnni, KernelIsa::Amx)]
        {
            let both = slow.is_supported() && fast.is_supported();
            assert_eq!(pairs.contains(&(&*slow.to_string(), &*fast.to_string())), both);
        }
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
            fleet: FleetRow { requests: 1, memo_ms: 1.0, no_memo_ms: 1.0, speedup: 1.0 },
        };
        assert_eq!(rep.fused_regressions(1.15, 12), vec!["4x16x12 (1.20x)".to_string()]);
        // The cross-kernel gates read the last (gate-shape) row's ratios.
        let mut rep = rep;
        let ratio = |slow: KernelIsa, fast: KernelIsa, ratio| IsaRatio {
            slow: slow.to_string(),
            fast: fast.to_string(),
            ratio,
        };
        let vnni = ratio(KernelIsa::Avx512, KernelIsa::Avx512Vnni, 2.0);
        rep.gemm.last_mut().expect("rows").ratios = vec![vnni.clone()];
        assert_eq!(rep.vnni_speedup(), Some(2.0));
        assert_eq!(rep.amx_speedup(), None, "no AMX ratio, no AMX gate");
        rep.gemm.last_mut().expect("rows").ratios =
            vec![vnni, ratio(KernelIsa::Avx512Vnni, KernelIsa::Amx, 3.0)];
        assert_eq!(rep.amx_speedup(), Some(3.0));
    }

    #[test]
    fn json_shape_is_well_formed() {
        let rep = KernelsReport {
            kernel: active_kernel().to_string(),
            supported: supported_kernels().into_iter().map(|k| k.to_string()).collect(),
            gemm: vec![gemm_row(8, 32, 24, 1)],
            fleet: FleetRow { requests: 10, memo_ms: 1.0, no_memo_ms: 9.0, speedup: 9.0 },
        };
        let j = rep.to_json();
        assert!(j.contains("\"gate_speedup_768\""));
        assert!(j.contains("\"fallback_speedup_768\""));
        assert!(j.contains("\"vnni_speedup_768\""));
        assert!(j.contains("\"amx_speedup_768\""));
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
