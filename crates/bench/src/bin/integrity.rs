//! Silent-data-corruption defense: detection coverage and goodput
//! overhead across injection rates and scrub intervals (extension).
//!
//! ```text
//! integrity [--smoke] [--check] [--out <path.json>]
//! ```
//!
//! `--smoke` shrinks the workload for CI; `--check` additionally exits
//! nonzero unless every injected defended cell reaches >= 99% detection
//! coverage at <= 5% goodput overhead and the exposed cells
//! demonstrably serve silent wrongs. The JSON result is written only
//! when `--out` names a file, so a smoke run from the repository root
//! leaves the committed `BENCH_integrity.json` (recorded with `--out
//! BENCH_integrity.json`) untouched.

use protea_bench::fmt::{render_table, write_out};
use protea_bench::integrity;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let requests = if smoke { 96 } else { integrity::REQUESTS };

    println!(
        "INTEGRITY — SDC detection coverage and goodput overhead (seed {:#x})\n",
        integrity::SEED
    );
    println!(
        "workload: {requests} Poisson requests per cell at {:.0} req/s \
         (d=96/d=64 mix, SL 8-32) on 2 cards; defended cells run ABFT epilogue \
         checksums plus a periodic weight-digest scrub; exposed cells inject \
         with no detector; the clean cell is the goodput yardstick\n",
        integrity::OFFERED_RPS
    );
    let rows = match integrity::run_sweep(requests) {
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
                r.posture.to_string(),
                format!("{:.2}", r.sdc_rate),
                r.scrub_every_ns.map_or_else(|| "-".into(), |v| format!("{:.1}", v as f64 / 1e6)),
                if r.abft { "on" } else { "off" }.into(),
                format!("{}", r.report.sdc_injected),
                format!("{}", r.report.sdc_detected),
                format!("{}", r.report.sdc_missed),
                format!("{}", r.report.re_execs),
                if r.report.sdc_injected + r.report.sdc_detected + r.report.sdc_missed > 0 {
                    format!("{:.1}%", 100.0 * r.coverage())
                } else {
                    "-".into()
                },
                format!("{:.1}", r.report.goodput_rps),
                format!("{:.1}%", 100.0 * r.overhead),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Posture",
                "Rate",
                "Scrub ms",
                "ABFT",
                "Inj",
                "Det",
                "Miss",
                "Re-exec",
                "Coverage",
                "good inf/s",
                "Overhead",
            ],
            &body
        )
    );
    println!(
        "Coverage = detected / (detected + missed); overhead is goodput lost \
         vs the clean cell. Every cell preserved the conservation invariant \
         (checked by the sweep; a violation aborts the run)."
    );

    let json = integrity::to_json(&rows);
    if let Err(e) = write_out(&args, &json) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }

    if check {
        let mut ok = true;
        for r in rows.iter().filter(|r| r.posture == "defended" && r.sdc_rate > 0.0) {
            if r.report.sdc_injected == 0 {
                eprintln!("FAIL: defended cell rate {:.2} never took a hit", r.sdc_rate);
                ok = false;
            }
            if r.coverage() < 0.99 {
                eprintln!(
                    "FAIL: defended cell rate {:.2} scrub {:?} coverage {:.4} < 0.99",
                    r.sdc_rate,
                    r.scrub_every_ns,
                    r.coverage()
                );
                ok = false;
            }
            if r.overhead > 0.05 {
                eprintln!(
                    "FAIL: defended cell rate {:.2} scrub {:?} overhead {:.4} > 0.05",
                    r.sdc_rate, r.scrub_every_ns, r.overhead
                );
                ok = false;
            }
        }
        let exposed_missed: u64 =
            rows.iter().filter(|r| r.posture == "exposed").map(|r| r.report.sdc_missed).sum();
        if exposed_missed == 0 {
            eprintln!("FAIL: no exposed cell served a silent wrong — the gap never opened");
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        println!("check passed");
    }
}
