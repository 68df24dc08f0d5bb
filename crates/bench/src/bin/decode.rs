//! Decode serving: tokens/s scaling with decode batch width
//! (extension).
//!
//! ```text
//! decode [--smoke] [--check] [--out <path.json>]
//! ```
//!
//! `--smoke` shrinks the generation length for CI; `--check`
//! additionally exits nonzero unless the widest batch sustains at
//! least twice the single-stream tokens/s. The JSON result is written
//! only when `--out` names a file, so a smoke run from the repository
//! root leaves the committed `BENCH_decode.json` (recorded with `--out
//! BENCH_decode.json`) untouched.

use protea_bench::decode;
use protea_bench::fmt::{render_table, write_out};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let steps = if smoke { 16 } else { decode::STEPS };

    println!("DECODE — tokens/s vs decode batch width (seed {:#x})\n", decode::SEED);
    println!(
        "workload: same-shape generation sessions (d=768, 8 heads, 2 layers) on one card, \
         {}-token prompts, {steps} generated tokens per session, KV resident across steps\n",
        decode::PROMPT_LEN
    );
    let rows = match decode::run_sweep(&decode::WIDTHS, steps) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.batch),
                format!("{}", r.report.tokens_emitted),
                format!("{:.1}", r.report.tokens_per_s),
                format!("{:.4}", r.report.prefill_ms_mean),
                format!("{:.4}", r.report.decode_ms_per_token),
                format!("{:.2}x", decode::speedup_vs_single(&rows, r)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["Batch", "Tokens", "tok/s", "Prefill ms", "Decode ms/tok", "vs single"],
            &body
        )
    );
    println!(
        "Every cell preserved token conservation (emitted + shed == requested; \
         a violation aborts the run)."
    );

    let json = decode::to_json(&rows, steps);
    if let Err(e) = write_out(&args, &json) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }

    if check {
        let widest = rows.last().expect("sweep has rows");
        let speedup = decode::speedup_vs_single(&rows, widest);
        if speedup < 2.0 {
            eprintln!(
                "FAIL: batch {} reached only {speedup:.2}x single-stream tokens/s \
                 ({:.1} vs {:.1})",
                widest.batch, widest.report.tokens_per_s, rows[0].report.tokens_per_s
            );
            std::process::exit(1);
        }
        println!("check passed: batch {} at {speedup:.2}x single-stream", widest.batch);
    }
}
