//! Exactness of the strip requantization epilogue against the
//! per-element oracles it replaces in the fused GEMMs.
//!
//! The fused GEMMs narrow each `CB`-wide microkernel strip through a
//! [`RequantEpilogue`] whose rounding, shifts and divisor are resolved
//! once per GEMM. These tests pin that resolved lane arithmetic, byte
//! for byte, to the per-element stages that define the numerics:
//! [`Requantizer::apply`] (projections, SV), [`LogitRequant::apply`]
//! (the attention-logit divide) and the activation ROM composed after
//! the requantizer (FFN2). Accumulators are the exhaustive boundary set
//! of each shift — the i32 extremes, every exact tie `±k·2^sh ± half`
//! and its neighbours, the saturation edges — with biases that saturate
//! the add. `crates/tensor/tests/props.rs` covers random GEMMs.
//!
//! When the active kernel is `amx`, [`RequantEpilogue::apply_matrix`]
//! runs the AMX tile GEMM's AVX-512 row epilogue (bias add with
//! saturation, divisor, shifts, `vpmovsdb`, the ROM as byte permutes),
//! so on AMX hosts these boundary sets pin that code; elsewhere they pin
//! the strip epilogue the other kernels use.

use protea::fixed::activation::{Activation, ActivationLut};
use protea::fixed::{QFormat, Requantizer, Rounding};
use protea::model::quantized::{
    fused_projection_act, project, projection_epilogue, projection_requantizer, LogitRequant,
    QuantMatrix,
};
use protea::model::{AttnScaling, EncoderConfig, QuantSchedule};
use protea::tensor::{
    matmul_i8_packed_requant, matmul_i8_packed_requant_parallel, Matrix, PackedWeights,
    RequantEpilogue,
};

const MODES: [Rounding; 3] = [Rounding::Truncate, Rounding::HalfUp, Rounding::NearestEven];

/// Eleven columns: one full 8-lane strip plus a ragged tail, so both
/// store paths run. The large entries saturate the bias add.
const BIASES: [i32; 11] =
    [0, 1, -1, i32::MAX, i32::MIN, 1 << 30, -(1 << 30), 12_345, -7, 1 << 20, -(1 << 16)];

/// The accumulators at which a right shift by any of `shifts` can
/// change its answer: the i32 extremes, and for each shift every exact
/// tie `±k·2^sh + half` with its neighbours, for quotients `k` around
/// zero, around the i8 saturation edge and at the top of the range.
fn boundaries(shifts: &[u32]) -> Vec<i32> {
    let mut v = vec![i32::MIN, i32::MIN + 1, i32::MAX, i32::MAX - 1, -1, 0, 1];
    for &sh in shifts.iter().filter(|&&sh| (1..=31).contains(&sh)) {
        let step = 1i64 << sh;
        let half = step / 2;
        let top = i64::from(i32::MAX) >> sh;
        for k in [0, 1, 2, 3, 127, 128, 129, 255, 256, top - 1, top] {
            for off in [-half - 1, -half, -half + 1, -1, 0, 1, half - 1, half, half + 1] {
                for x in [k * step + off, -k * step + off] {
                    if let Ok(x) = i32::try_from(x) {
                        v.push(x);
                    }
                }
            }
        }
    }
    v.sort_unstable();
    v.dedup();
    v
}

/// Every row of the matrix holds one accumulator, repeated across the
/// eleven bias columns.
fn acc_matrix(values: &[i32]) -> Matrix<i32> {
    Matrix::from_fn(values.len(), BIASES.len(), |r, _| values[r])
}

#[test]
fn strip_requant_matches_requantizer_apply_on_every_boundary() {
    let target_fracs = [0u8, 5, 7];
    for mode in MODES {
        for pre in [0u8, 1, 3, 10, 31, 32, 40] {
            // Right shifts 1..=31 (acc_frac > target_frac) and the
            // left-shift path (dst ≥ src) with shifts 0..=31.
            let formats = target_fracs
                .iter()
                .flat_map(|&t| (t + 1..=31).map(move |a| (a, t)))
                .chain((0..=31).map(|t| (0, t)))
                .chain([(3, 7), (5, 5)]);
            for (acc_frac, target_frac) in formats {
                let rq = Requantizer::new(acc_frac, QFormat::new(8, target_frac), mode)
                    .with_pre_shift(pre);
                let post = u32::from(acc_frac.saturating_sub(target_frac));
                let values = boundaries(&[u32::from(pre), post, u32::from(pre) + post]);
                let acc = acc_matrix(&values);
                let got = RequantEpilogue::new(rq.lanes()).with_bias(&BIASES).apply_matrix(&acc);
                for (r, &a) in values.iter().enumerate() {
                    for (c, &b) in BIASES.iter().enumerate() {
                        assert_eq!(
                            got[(r, c)],
                            rq.apply(a.saturating_add(b)),
                            "{mode:?} acc Q.{acc_frac} -> Q.{target_frac} pre {pre}: {a} + {b}"
                        );
                    }
                }
                // Without a bias the epilogue is the bare requantizer.
                let bare = RequantEpilogue::new(rq.lanes()).apply_matrix(&acc);
                for (r, &a) in values.iter().enumerate() {
                    assert_eq!(bare[(r, 7)], rq.apply(a), "{mode:?} no bias: {a}");
                }
            }
        }
    }
}

#[test]
fn strip_logit_requant_matches_the_i64_division() {
    let shapes = [(64, 1), (64, 8), (96, 12), (128, 2), (256, 4), (384, 8), (768, 8), (768, 12)];
    for scaling in [AttnScaling::InvDmodel, AttnScaling::InvSqrtDk] {
        for mode in MODES {
            for (act_frac, logit_frac) in [(5, 7), (5, 5), (5, 0), (5, 12), (5, 31), (0, 0), (7, 3)]
            {
                let s = QuantSchedule {
                    act_fmt: QFormat::new(8, act_frac),
                    logit_fmt: QFormat::new(8, logit_frac),
                    rounding: mode,
                    scaling,
                };
                for (d_model, heads) in shapes {
                    let cfg = EncoderConfig::new(d_model, heads, 1, 16);
                    let lr = LogitRequant::new(&cfg, &s);
                    let denom = match scaling {
                        AttnScaling::InvDmodel => d_model as i64,
                        AttnScaling::InvSqrtDk => (cfg.d_k() as f64).sqrt().floor().max(1.0) as i64,
                    };
                    let sh = (2 * u32::from(act_frac)).saturating_sub(u32::from(logit_frac));
                    // Quotient boundaries scaled back through the divide:
                    // the first and last accumulator of each quotient.
                    let values: Vec<i32> = boundaries(&[sh])
                        .into_iter()
                        .flat_map(|q| {
                            let q = i64::from(q) * denom;
                            [q, q + denom - 1, q - denom + 1]
                        })
                        .chain([i64::from(i32::MIN), i64::from(i32::MAX)])
                        .filter_map(|x| i32::try_from(x).ok())
                        .collect();
                    // Rows of 17, so the values land in every lane of a
                    // 16-lane row chunk and in its masked tail.
                    let rows = values.len().div_ceil(17);
                    let acc = Matrix::from_fn(rows, 17, |r, c| {
                        values.get(r * 17 + c).copied().unwrap_or(0)
                    });
                    let got = RequantEpilogue::new(lr.lanes()).apply_matrix(&acc);
                    for (i, &a) in values.iter().enumerate() {
                        assert_eq!(
                            got.as_slice()[i],
                            lr.apply(a),
                            "{scaling:?} {mode:?} Q.{act_frac}->Q.{logit_frac} d{d_model}/h{heads}: {a}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn activation_rom_composes_after_the_strip_requant() {
    let s = QuantSchedule::paper();
    let weight_fmt = QFormat::new(8, 6);
    let rq = projection_requantizer(weight_fmt, &s);
    let values = boundaries(&[u32::from(s.act_fmt.frac_bits() + weight_fmt.frac_bits())]);
    let acc = acc_matrix(&values);
    for kind in [Activation::Relu, Activation::Gelu, Activation::Identity] {
        let act = ActivationLut::new(kind, s.act_fmt);
        let got =
            projection_epilogue(&BIASES, weight_fmt, &s).with_activation(&act).apply_matrix(&acc);
        for (r, &a) in values.iter().enumerate() {
            for (c, &b) in BIASES.iter().enumerate() {
                assert_eq!(
                    got[(r, c)],
                    act.apply(rq.apply(a.saturating_add(b))),
                    "{kind:?}: {a} + {b}"
                );
            }
        }

        // The fused FFN2 GEMM against the golden model's project + ROM.
        let (m, k, n) = (9, 40, 19);
        let x = Matrix::from_fn(m, k, |r, c| ((r * 37 + c * 11) % 255) as i8);
        let w = QuantMatrix {
            data: Matrix::from_fn(k, n, |r, c| ((r * 13 + c * 29 + 7) % 255) as i8),
            fmt: weight_fmt,
        };
        let bias: Vec<i32> = (0..n).map(|j| BIASES[j % BIASES.len()] / 3).collect();
        let mut want = project(&x, &w, &bias, &s);
        act.apply_slice(want.as_mut_slice());
        let fused = fused_projection_act(&x, &PackedWeights::pack(&w.data), &bias, w.fmt, &s, &act);
        assert_eq!(fused.as_slice(), want.as_slice(), "{kind:?} fused FFN2");
    }
}

#[test]
fn fused_bias_add_saturates_on_both_sides_of_the_overflow_bound() {
    // With every operand −128 each accumulator is exactly k·2^14, the
    // largest an i8 GEMM of depth k can reach. A bias up to
    // `i32::MAX − k·2^14` lands on or below `i32::MAX`; one more
    // overflows, and the fused GEMM must saturate exactly as the oracle
    // does rather than wrap.
    let (m, k, n) = (3, 64, 11);
    let x = Matrix::from_vec(m, k, vec![i8::MIN; m * k]);
    let w = PackedWeights::pack(&Matrix::from_vec(k, n, vec![i8::MIN; k * n]));
    let acc_max = (k as i32) << 14;
    let rq = Requantizer::new(31, QFormat::new(8, 7), Rounding::NearestEven);
    for edge in [i32::MAX - acc_max, i32::MAX - acc_max + 1] {
        let bias: Vec<i32> = (0..n as i32).map(|j| edge - j % 3).collect();
        let epi = RequantEpilogue::new(rq.lanes()).with_bias(&bias);
        let want: Vec<i8> =
            (0..m * n).map(|i| rq.apply(acc_max.saturating_add(bias[i % n]))).collect();
        assert_eq!(matmul_i8_packed_requant(&x, &w, &epi).as_slice(), &want[..], "bias {edge}");
        assert_eq!(
            matmul_i8_packed_requant_parallel(&x, &w, &epi).as_slice(),
            &want[..],
            "parallel, bias {edge}"
        );
    }
}
