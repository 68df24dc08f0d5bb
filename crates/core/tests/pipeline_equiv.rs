//! Shim equivalence: every remaining `Accelerator` entry point is a
//! thin shim over [`Accelerator::execute`], and this suite pins the
//! contract byte-for-byte — outputs, cycle reports and error
//! classification must be identical whether a caller goes through a
//! shim or builds the [`RunPlan`] directly, and reports and fault
//! statistics must be identical with tracing on or off (fault-armed
//! runs driven by identically seeded streams).

use protea_core::{
    Accelerator, CoreError, CycleReport, FaultKind, FaultPlan, FaultRates, FaultStream,
    RetryPolicy, RunPlan, RuntimeConfig, SynthesisConfig, Watchdog,
};
use protea_model::{EncoderConfig, EncoderWeights, QuantSchedule, QuantizedEncoder};
use protea_platform::FpgaDevice;
use protea_tensor::Matrix;

/// A programmed, weight-loaded accelerator on the small test shape.
fn accel() -> Accelerator {
    let cfg = EncoderConfig::new(96, 4, 2, 8);
    let syn = SynthesisConfig::builder()
        .heads(cfg.heads)
        .d_max(cfg.d_model)
        .sl_max(cfg.seq_len)
        .ts_mha(32)
        .ts_ffn(32)
        .build()
        .expect("synthesis config must be valid");
    let mut acc = Accelerator::try_new(syn, &FpgaDevice::alveo_u250()).expect("design must fit");
    acc.program(RuntimeConfig {
        heads: cfg.heads,
        layers: cfg.layers,
        d_model: cfg.d_model,
        seq_len: cfg.seq_len,
    })
    .expect("runtime fits synthesized capacity");
    let qw = QuantizedEncoder::from_float(&EncoderWeights::random(cfg, 23), QuantSchedule::paper());
    acc.try_load_weights(qw).expect("weights match registers");
    acc
}

fn input(salt: u64) -> Matrix<i8> {
    Matrix::from_fn(8, 96, |r, c| {
        let v = (r as u64 * 131).wrapping_add(c as u64 * 31).wrapping_add(salt.wrapping_mul(7));
        ((v % 251) as i64 - 125) as i8
    })
}

fn assert_reports_identical(a: &CycleReport, b: &CycleReport) {
    assert_eq!(a.total, b.total, "cycle totals diverge");
    assert_eq!(a.layers, b.layers);
    assert_eq!(a.phases, b.phases, "phase breakdowns diverge");
    assert!((a.fmax_mhz - b.fmax_mhz).abs() < f64::EPSILON);
}

#[test]
fn try_run_shim_equals_direct_execute() {
    let acc = accel();
    let x = input(1);
    let shim = acc.try_run(&x).expect("run succeeds");
    let (direct, stats) = acc.execute(RunPlan::functional(std::slice::from_ref(&x)));
    let direct = direct.expect("run succeeds");
    assert!(!stats.any(), "deterministic plans report zero fault stats");
    assert_eq!(direct.outputs.len(), 1);
    assert_eq!(shim.output.as_slice(), direct.outputs[0].as_slice());
    assert_reports_identical(&shim.report, &direct.report);
    assert!((shim.latency_ms - direct.latency_ms).abs() < f64::EPSILON);
    assert!((shim.gops - direct.gops).abs() < f64::EPSILON);
}

#[test]
fn timing_report_shims_equal_direct_execute() {
    let acc = accel();
    let (single, _) = acc.execute(RunPlan::timing(1));
    assert_reports_identical(&acc.timing_report(), &single.unwrap().report);
    for batch in [1usize, 2, 7] {
        let (direct, _) = acc.execute(RunPlan::timing(batch));
        assert_reports_identical(&acc.timing_report_batched(batch), &direct.unwrap().report);
    }
}

#[test]
fn try_run_batch_shim_equals_direct_execute() {
    let acc = accel();
    let xs: Vec<Matrix<i8>> = (0..4).map(input).collect();
    let (shim_outs, shim_rep) = acc.try_run_batch(&xs).expect("batch succeeds");
    let (direct, _) = acc.execute(RunPlan::functional(&xs));
    let direct = direct.expect("batch succeeds");
    assert_eq!(shim_outs.len(), direct.outputs.len());
    for (s, d) in shim_outs.iter().zip(&direct.outputs) {
        assert_eq!(s.as_slice(), d.as_slice());
    }
    assert_reports_identical(&shim_rep, &direct.report);
}

#[test]
fn error_classification_is_identical_through_the_shim() {
    let acc = accel();
    let bad = Matrix::<i8>::zeros(3, 96);
    let shim = acc.try_run(&bad).unwrap_err();
    let (direct, _) = acc.execute(RunPlan::functional(std::slice::from_ref(&bad)));
    assert_eq!(shim, direct.unwrap_err());
    let (empty, _) = acc.execute(RunPlan::functional(&[]));
    assert_eq!(empty.unwrap_err(), CoreError::EmptyBatch);
}

/// Tracing is observational on every path: the traced report (and, for
/// faulty runs, the stats) must be byte-identical to the untraced run.
#[test]
fn tracing_never_perturbs_any_path() {
    let acc = accel();

    let (plain, _) = acc.execute(RunPlan::timing(3));
    let (traced, _) = acc.execute(RunPlan::timing(3).with_trace());
    let traced = traced.unwrap();
    assert_reports_identical(&plain.unwrap().report, &traced.report);
    assert!(!traced.trace.expect("traced run records spans").is_empty());

    let events = [(1u64, FaultKind::AxiStall), (4, FaultKind::EccSingle)];
    let mut plain_stream = FaultStream::seeded(3, 0, FaultRates::ZERO).with_events(events);
    let mut traced_stream = FaultStream::seeded(3, 0, FaultRates::ZERO).with_events(events);
    let wd = Watchdog::default();
    let retry = RetryPolicy::default();
    let (plain, plain_stats) = acc.execute(RunPlan::timing(2).with_faults(FaultPlan {
        stream: &mut plain_stream,
        watchdog: wd,
        retry,
        now_ns: 5,
    }));
    let (traced, traced_stats) = acc.execute(
        RunPlan::timing(2)
            .with_faults(FaultPlan { stream: &mut traced_stream, watchdog: wd, retry, now_ns: 5 })
            .with_trace(),
    );
    let traced = traced.unwrap();
    assert_eq!(plain_stats, traced_stats);
    assert_reports_identical(&plain.unwrap().report, &traced.report);
    let trace = traced.trace.expect("traced faulty run records spans");
    // Faulty pricing is layer-by-layer: each phase appears once per layer.
    let phase_spans = trace.spans().filter(|s| s.kind == protea_hwsim::SpanKind::Phase).count();
    assert_eq!(phase_spans, 9 * 2, "nine phases per layer, two layers");
}
