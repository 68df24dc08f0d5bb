//! Elastic fleets under churn: goodput and per-tenant SLO attainment
//! across fleet compositions and churn intensities (extension).
//!
//! ```text
//! elastic [--smoke] [--check] [--out <path.json>]
//! ```
//!
//! `--smoke` shrinks the workload for CI; `--check` additionally exits
//! nonzero unless the calm cells stay healthy and the interactive
//! tenant outlives the best-effort tenant under heavy churn. The JSON
//! result is written only when `--out` names a file, so a smoke run
//! from the repository root leaves the committed `BENCH_elastic.json`
//! (recorded with `--out BENCH_elastic.json`) untouched.

use protea_bench::elastic;
use protea_bench::fmt::{render_table, write_out};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let requests = if smoke { 64 } else { elastic::REQUESTS };
    let churn_counts = [0usize, 4, 8, 12];

    println!(
        "ELASTIC — goodput and per-tenant SLO under runtime churn (seed {:#x})\n",
        elastic::SEED
    );
    println!(
        "workload: {requests} Poisson requests per cell at {:.0} req/s \
         (d=96, 4 heads, 2 layers, SL 8-32), tenants 0/1/2 round-robin \
         (interactive@50ms / normal@200ms / best-effort), capacity-aware placement, \
         brownout ladder armed, churn seeded over the first {:.0} ms\n",
        elastic::OFFERED_RPS,
        elastic::HORIZON_NS as f64 / 1e6
    );
    let rows = match elastic::run_sweep(&churn_counts, requests) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let slo = |t: u32| {
                r.report
                    .tenant_slo
                    .iter()
                    .find(|s| s.tenant == t)
                    .map_or_else(|| "-".into(), |s| format!("{:.1}%", 100.0 * s.attainment()))
            };
            vec![
                r.composition.to_string(),
                format!("{}", r.churn_events),
                format!("{}/{}", r.report.joins, r.report.drains),
                format!("{:.1}", r.report.throughput_rps),
                format!("{:.1}", r.report.goodput_rps),
                format!("{}", r.report.shed.len() + r.report.expired.len()),
                slo(0),
                slo(1),
                slo(2),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Composition",
                "Churn",
                "Joins/Drains",
                "inf/s",
                "good inf/s",
                "Shed+Exp",
                "SLO t0 (int)",
                "SLO t1 (norm)",
                "SLO t2 (be)",
            ],
            &body
        )
    );
    println!(
        "Every cell preserved the conservation invariant fleet-wide and per tenant \
         (checked by the sweep; a violation aborts the run)."
    );

    let json = elastic::to_json(&rows);
    if let Err(e) = write_out(&args, &json) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }

    if check {
        // Calm cells (no churn) must serve every tenant, and in every
        // churned cell the brownout ladder must triage in class order:
        // the best-effort tenant is shed at least as hard as the
        // interactive one. (Attainment itself is not comparable across
        // the two — best-effort carries no deadline, so each of its
        // completions counts as within-SLO.)
        let mut ok = true;
        for r in rows.iter().filter(|r| r.churn_events == 0) {
            if r.report.completed == 0 {
                eprintln!("FAIL: calm cell {} completed nothing", r.composition);
                ok = false;
            }
        }
        for r in rows.iter().filter(|r| r.churn_events > 0) {
            let shed =
                |t: u32| r.report.tenant_slo.iter().find(|s| s.tenant == t).map_or(0, |s| s.shed);
            if shed(0) > shed(2) {
                eprintln!(
                    "FAIL: {} under {} churn events shed interactive harder than \
                     best-effort ({} vs {})",
                    r.composition,
                    r.churn_events,
                    shed(0),
                    shed(2)
                );
                ok = false;
            }
        }
        if !ok {
            std::process::exit(1);
        }
        println!("check passed");
    }
}
