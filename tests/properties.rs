//! Property-based tests (proptest) of the core invariants:
//! quantization error bounds, tiling-order independence, serialization
//! round-trips, softmax distribution laws, and the double-buffer
//! scheduler against its closed form.

use proptest::prelude::*;
use protea::fixed::quant::{dequantize_slice, quantize_slice};
use protea::fixed::{softmax_fixed, QFormat, Quantizer, Rounding};
use protea::hwsim::Cycles;
use protea::mem::overlap::{analytic_double_buffered, simulate_double_buffered, simulate_serial};
use protea::model::serialize::{decode, encode, peek_config};
use protea::prelude::*;
use protea::tensor::TileGrid;

proptest! {
    #[test]
    fn quantize_round_trip_error_within_half_lsb(
        data in prop::collection::vec(-100f32..100f32, 1..200)
    ) {
        let (raw, params) = Quantizer::default().quantize(&data);
        let back = dequantize_slice(&raw, params);
        let lsb = params.format().lsb() as f32;
        for (x, y) in data.iter().zip(back.iter()) {
            prop_assert!((x - y).abs() <= lsb / 2.0 + 1e-5, "x={x} y={y} lsb={lsb}");
        }
    }

    #[test]
    fn quantize_slice_is_idempotent(
        data in prop::collection::vec(-8f32..8f32, 1..100)
    ) {
        let q = Quantizer::default();
        let params = q.calibrate(&data);
        let once = quantize_slice(&data, params);
        let back = dequantize_slice(&once, params);
        let twice = quantize_slice(&back, params);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn rounding_shift_bounded_error(v in any::<i32>(), s in 1u32..20) {
        for mode in [Rounding::Truncate, Rounding::HalfUp, Rounding::NearestEven] {
            let r = mode.shift_right(i64::from(v), s) as f64;
            let exact = f64::from(v) / (1u64 << s) as f64;
            prop_assert!((r - exact).abs() < 1.0 + 1e-9, "{mode:?} {v} >> {s}");
        }
    }

    #[test]
    fn tile_grids_cover_exactly(
        rows in 1usize..40, cols in 1usize..40,
        th in 1usize..12, tw in 1usize..12
    ) {
        let g = TileGrid::new(rows, cols, th, tw);
        let mut cover = vec![0u8; rows * cols];
        for t in g.iter() {
            for r in t.r0..t.r0 + t.h {
                for c in t.c0..t.c0 + t.w {
                    cover[r * cols + c] += 1;
                }
            }
        }
        prop_assert!(cover.iter().all(|&n| n == 1));
    }

    #[test]
    fn softmax_rows_sum_to_one_and_are_nonnegative(
        row in prop::collection::vec(any::<i8>(), 1..64)
    ) {
        let probs = softmax_fixed(&row, QFormat::new(8, 5));
        let sum: i32 = probs.iter().map(|&p| i32::from(p)).sum();
        prop_assert!(probs.iter().all(|&p| p >= 0));
        // flooring division: sum within len LSBs below 1.0 (=128)
        prop_assert!(sum <= 128 && sum >= 128 - row.len() as i32, "sum = {sum}");
    }

    #[test]
    fn softmax_is_shift_invariant(
        row in prop::collection::vec(-60i8..60, 2..32), shift in -30i8..30
    ) {
        let shifted: Vec<i8> = row.iter().map(|&x| x + shift).collect();
        let a = softmax_fixed(&row, QFormat::new(8, 5));
        let b = softmax_fixed(&shifted, QFormat::new(8, 5));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn overlap_sim_equals_closed_form(
        accesses in prop::collection::vec((0u64..500, 0u64..500), 0..60)
    ) {
        let schedule: Vec<(Cycles, Cycles)> =
            accesses.iter().map(|&(l, c)| (Cycles(l), Cycles(c))).collect();
        let sim = simulate_double_buffered(&schedule);
        prop_assert_eq!(sim.total, analytic_double_buffered(&schedule));
        // and never slower than serial, never faster than either lower bound
        let serial = simulate_serial(&schedule);
        prop_assert!(sim.total <= serial.total);
        let sum_l: u64 = accesses.iter().map(|a| a.0).sum();
        let sum_c: u64 = accesses.iter().map(|a| a.1).sum();
        prop_assert!(sim.total.get() >= sum_l.max(sum_c));
    }

    #[test]
    fn weight_blob_round_trips(
        d_exp in 2u32..6, h_exp in 0u32..3, layers in 1usize..3, sl in 1usize..9,
        seed in any::<u64>()
    ) {
        let d = 1usize << d_exp; // 4..32
        let h = (1usize << h_exp).min(d);
        let cfg = EncoderConfig::new(d, h, layers, sl);
        let w = EncoderWeights::random(cfg, seed);
        let blob = encode(&w);
        prop_assert_eq!(peek_config(&blob).unwrap(), cfg);
        let back = decode(&blob).unwrap();
        prop_assert_eq!(back.config, cfg);
        for (a, b) in w.layers.iter().zip(back.layers.iter()) {
            prop_assert_eq!(a.wq.as_slice(), b.wq.as_slice());
            prop_assert_eq!(&a.b2, &b.b2);
        }
    }

    #[test]
    fn corrupted_blobs_never_panic(
        mut blob in prop::collection::vec(any::<u8>(), 0..256)
    ) {
        // decode must return an error or a valid result, never panic.
        let _ = peek_config(&blob);
        let _ = decode(&blob);
        // also try with a valid magic prefix
        if blob.len() >= 4 {
            blob[..4].copy_from_slice(b"PTEA");
            let _ = decode(&blob);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn accelerator_equivalence_random_shapes(
        d_sel in 0usize..4, sl in 1usize..12, seed in any::<u64>()
    ) {
        let (d, h) = [(32, 2), (64, 4), (96, 4), (128, 8)][d_sel];
        let cfg = EncoderConfig::new(d, h, 1, sl);
        let syn = SynthesisConfig::paper_default();
        let weights = EncoderWeights::random(cfg, seed);
        let golden = QuantizedEncoder::from_float(&weights, QuantSchedule::paper());
        let mut accel = Accelerator::try_new(syn, &FpgaDevice::alveo_u55c()).expect("design must fit the device");
        accel.program(RuntimeConfig::from_model(&cfg, &syn).unwrap()).unwrap();
        accel.try_load_weights(golden.clone()).expect("weights must match the programmed registers");
        let x = Matrix::from_fn(sl, d, |r, c| {
            (seed.wrapping_mul(r as u64 + 3).wrapping_add(c as u64 * 11) % 200) as i64 as i8
        });
        let hw = accel.run(&x).output;
        let sw = golden.forward(&x);
        prop_assert_eq!(hw.as_slice(), sw.as_slice());
    }
}

/// Model widths and head counts the image and the register file draw
/// from: every head count divides both widths, so every pair is a valid
/// register write within the paper design's capacity.
const SHAPES: [(usize, usize); 6] = [(32, 1), (32, 2), (32, 4), (64, 1), (64, 2), (64, 4)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The register file and the weight image agree on heads and
    /// `d_model`, with no more programmed layers than the image holds,
    /// or nothing runs: the load fails, or the run fails with the typed
    /// error, or the run returns the golden forward over the programmed
    /// layers. Registers are written either before the load or, after a
    /// load under the image's own registers, as a reprogram.
    #[test]
    fn registers_and_image_agree_or_nothing_runs(
        image_sel in 0usize..6, image_layers in 1usize..3,
        reg_sel in 0usize..6, reg_layers in 1usize..3,
        sl in 1usize..6, reprogram in any::<bool>(), seed in any::<u64>()
    ) {
        let (d, h) = SHAPES[image_sel];
        let image_cfg = EncoderConfig::new(d, h, image_layers, sl);
        let (rd, rh) = SHAPES[reg_sel];
        let regs = RuntimeConfig { heads: rh, layers: reg_layers, d_model: rd, seq_len: sl };
        let syn = SynthesisConfig::paper_default();
        let image = QuantizedEncoder::from_float(
            &EncoderWeights::random(image_cfg, seed),
            QuantSchedule::paper(),
        );
        let mut accel = Accelerator::try_new(syn, &FpgaDevice::alveo_u55c()).expect("design fits");
        if reprogram {
            accel.program(RuntimeConfig::from_model(&image_cfg, &syn).unwrap()).unwrap();
            accel.try_load_weights(image.clone()).expect("the image's own registers");
            accel.program(regs).expect("within capacity");
        } else {
            accel.program(regs).expect("within capacity");
            if let Err(e) = accel.try_load_weights(image.clone()) {
                prop_assert!(matches!(e, CoreError::WeightShape { .. }), "load: {:?}", e);
                return Ok(());
            }
        }
        let x = Matrix::from_fn(sl, rd, |r, c| {
            (seed.wrapping_mul(r as u64 + 5).wrapping_add(c as u64 * 13) % 200) as i64 as i8
        });
        match accel.try_run(&x) {
            Err(e) => prop_assert!(matches!(e, CoreError::WeightShape { .. }), "run: {:?}", e),
            Ok(run) => {
                let mut want = x.clone();
                for layer in image.layers.iter().take(reg_layers) {
                    want = image.forward_layer(&want, layer).out;
                }
                prop_assert_eq!(run.output.as_slice(), want.as_slice());
            }
        }
    }
}
