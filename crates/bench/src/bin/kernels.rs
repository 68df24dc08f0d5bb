//! Kernel benchmark: packed GEMM vs the tiled scalar product (per
//! microkernel ISA) and the fleet timing memo on vs off. Writes
//! `BENCH_kernels.json` next to the working directory.
//!
//! Flags: `--smoke` shrinks iterations for CI; `--check` additionally
//! exits nonzero unless every gate holds on the 12-head/768-dim gate
//! shape (`128×768×768`):
//!
//! * dispatched kernel ≥ 8× the tiled reference when an explicit SIMD
//!   variant (AVX2/AVX-512/AVX-512 VNNI/NEON) was selected, ≥ 3×
//!   otherwise;
//! * the portable fallback kernel ≥ 3× regardless of dispatch — the
//!   floor a runner without SIMD support must still clear;
//! * the parallel entry point no slower than the serial kernel
//!   (within a 10% + 50µs noise allowance) on *every* sweep shape;
//! * the fused bias + requant epilogue at most 1.15× the bare serial
//!   GEMM on the encoder-sized sweep shapes (`k`, `n` ≥ 768);
//! * on hosts with AVX-512 VNNI, the `avx512vnni` kernel ≥ 1.5× faster
//!   than the widened-i16 `avx512` kernel on the gate shape (serial);
//! * on hosts with AMX-INT8, the `amx` tile kernel ≥ 1.5× faster than
//!   the `avx512vnni` kernel on the gate shape (serial);
//! * the timing memo wins the serving sweep.
//!
//! The VNNI and AMX gates compare two kernels as the median ratio of
//! interleaved serial pairs, as the fused gate compares its GEMMs; the
//! other gates compare minimums.

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

/// The VNNI gate: `vpdpbusd` on the raw bytes must beat the widened
/// `vpmaddwd` kernel by at least this factor. Three full runs on a
/// 2-core AVX-512 VNNI host measured 3.8–4.0× at 128×768×768.
const VNNI_MIN_SPEEDUP: f64 = 1.5;

/// The AMX gate: `tdpbssd` tiles must beat the VNNI kernel by at least
/// this factor at the gate shape, serial. Ten full runs on a 2-core AMX
/// host measured 1.76–2.96× at 128×768×768.
const AMX_MIN_SPEEDUP: f64 = 1.5;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let (iters, requests) = if smoke { (3, 600) } else { (5, 2000) };

    println!("KERNELS — packed GEMM microkernels vs the tiled scalar product\n");
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
            failures
                .push(format!("parallel GEMM slower than serial on: {}", regressions.join(", ")));
        }
        if !fused.is_empty() {
            failures.push(format!(
                "fused requant epilogue above {FUSED_MAX_RATIO}x the bare GEMM on: {}",
                fused.join(", ")
            ));
        }
        if let Some(vnni) = report.vnni_speedup() {
            println!("check: avx512vnni vs avx512 @128x768x768 = {vnni:.2}x (need >= {VNNI_MIN_SPEEDUP})");
            if vnni < VNNI_MIN_SPEEDUP {
                failures.push(format!(
                    "avx512vnni kernel below {VNNI_MIN_SPEEDUP}x the avx512 kernel on the gate shape"
                ));
            }
        }
        if let Some(amx) = report.amx_speedup() {
            println!(
                "check: amx vs avx512vnni @128x768x768 = {amx:.2}x (need >= {AMX_MIN_SPEEDUP})"
            );
            if amx < AMX_MIN_SPEEDUP {
                failures.push(format!(
                    "amx kernel below {AMX_MIN_SPEEDUP}x the avx512vnni kernel on the gate shape"
                ));
            }
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
