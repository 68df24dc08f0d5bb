//! Fast-backend kernel benchmark: packed GEMM vs reference (per
//! microkernel ISA), encoder forward fast vs reference, and the fleet
//! timing memo on vs off. Writes `BENCH_kernels.json` next to the
//! working directory.
//!
//! Flags: `--smoke` shrinks iterations for CI; `--check` additionally
//! exits nonzero unless every gate holds on the 12-head/768-dim gate
//! shape (`128×768×768`):
//!
//! * dispatched kernel ≥ 8× the tiled reference when an explicit SIMD
//!   variant (AVX2/AVX-512/NEON) was selected, ≥ 3× otherwise;
//! * the portable fallback kernel ≥ 3× regardless of dispatch — the
//!   floor a runner without SIMD support must still clear;
//! * the panel-parallel entry point no slower than the serial kernel
//!   (within a 10% + 50µs noise allowance) on *every* sweep shape;
//! * the fused bias + requant epilogue at most 1.15× the bare serial
//!   GEMM on the encoder-sized sweep shapes (`k`, `n` ≥ 768);
//! * the timing memo wins the serving sweep.

use protea_bench::kernels;

/// The fused-epilogue gate: a fused GEMM may cost at most this multiple
/// of the bare one ...
const FUSED_MAX_RATIO: f64 = 1.15;
/// ... at every sweep shape whose `k` and `n` reach the encoder's
/// `d_model`. On a 2-core AVX-512 host the shallower rows measure up
/// to 1.17× (32×96×96) and 1.15× (64×256×256) — their GEMMs hide little
/// of the narrowing — and are reported, not gated; the 768-wide rows
/// measure at most 1.08× under every kernel ISA.
const FUSED_GATE_MIN_DIM: usize = 768;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let (iters, requests) = if smoke { (3, 600) } else { (5, 2000) };

    println!("KERNELS — fast functional backend vs reference\n");
    let report = kernels::run(iters, requests);
    println!("{}", report.render());

    let json = report.to_json();
    let path = "BENCH_kernels.json";
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");

    if check {
        let gate = report.gate();
        let gate_need = if report.simd_dispatched() { 8.0 } else { 3.0 };
        let fallback = report.fallback_gate();
        let memo = report.fleet.speedup;
        let regressions = report.parallel_regressions(0.10);
        let fused = report.fused_regressions(FUSED_MAX_RATIO, FUSED_GATE_MIN_DIM);
        println!(
            "\ncheck: gate ({} vs tiled @128x768x768) = {gate:.2}x (need >= {gate_need}), \
             fallback = {fallback:.2}x (need >= 3), memo sweep = {memo:.2}x (need > 1)",
            report.kernel
        );
        // Every failing gate is reported before exiting, so one run
        // shows all of them.
        let mut failures = Vec::new();
        if gate < gate_need {
            failures.push(format!("dispatched kernel below {gate_need}x on the gate shape"));
        }
        if fallback < 3.0 {
            failures.push("portable fallback kernel below 3x on the gate shape".to_string());
        }
        if !regressions.is_empty() {
            failures.push(format!(
                "panel-parallel GEMM slower than serial on: {}",
                regressions.join(", ")
            ));
        }
        if !fused.is_empty() {
            failures.push(format!(
                "fused requant epilogue above {FUSED_MAX_RATIO}x the bare GEMM on: {}",
                fused.join(", ")
            ));
        }
        if memo <= 1.0 {
            failures.push("timing memo does not speed up the serving sweep".to_string());
        }
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        println!("check passed");
    }
}
