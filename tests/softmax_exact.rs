//! Exactness of the softmax row kernel against the golden softmax unit.
//!
//! The host datapaths normalize each softmax row through
//! [`softmax_rows`]. On the AVX-512 kernels that is an intrinsic arm of
//! the unit's numerics (one u64 multiply by the row's reciprocal
//! `⌊2⁵²/sum⌋ + 1`, split into u32 lanes); on every other ISA it calls
//! [`SoftmaxUnit::forward_matrix`]. For every ISA in
//! [`supported_kernels`] these tests require the unit's bytes from the
//! kernel, and from the softmax engine's [`SoftmaxEngine::compute_head`], on:
//! - every row length from 1 to 512, in matrices of several rows;
//! - constant rows, whose sum `n·2¹⁵` is the largest a length allows,
//!   up to `512·2¹⁵`;
//! - rows whose spread exceeds 128, so `x − max` clamps at the ROM's
//!   input range;
//! - every ROM code beside the row max, at small and large sums;
//! - the rows whose quotients sit closest below an integer, where a
//!   reciprocal with fewer bits floors wrong; on these the unit itself
//!   must also give the per-element division;
//! - random rows.

use std::sync::Mutex;

use protea::core::engines::softmax::SoftmaxEngine;
use protea::fixed::softmax::ExpLut;
use protea::fixed::{QFormat, SoftmaxUnit};
use protea::model::QuantSchedule;
use protea::tensor::kernels::softmax_rows;
use protea::tensor::{force_kernel, supported_kernels, KernelIsa, Matrix};

/// `force_kernel` is process-wide; the tests in this binary take turns.
static FORCE: Mutex<()> = Mutex::new(());

/// Run `f` once per supported kernel ISA, with that ISA forced.
fn for_each_isa(mut f: impl FnMut(KernelIsa)) {
    let _turn = FORCE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for isa in supported_kernels() {
        force_kernel(Some(isa));
        f(isa);
    }
    force_kernel(None);
}

/// SplitMix64: a deterministic stream for the random rows.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// `n` codes drawn around `centre` with the given spread, saturating.
    fn codes(&mut self, n: usize, centre: i16, spread: u64) -> Vec<i8> {
        (0..n)
            .map(|_| {
                let off = self.below(2 * spread + 1) as i16 - spread as i16;
                (centre + off).clamp(-128, 127) as i8
            })
            .collect()
    }
}

/// The logit formats the tests burn ROMs for.
fn formats() -> [QFormat; 3] {
    [5, 3, 7].map(|frac| QFormat::new(8, frac))
}

/// Assert the kernel gives the unit's bytes on the rows of `logits`.
fn check(unit: &SoftmaxUnit, logits: &[i8], cols: usize, isa: KernelIsa) {
    let mut want = vec![0i8; logits.len()];
    unit.forward_matrix(logits, cols, &mut want);
    let mut got = vec![0i8; logits.len()];
    softmax_rows(unit, logits, cols, &mut got);
    for (r, (g, w)) in got.chunks(cols).zip(want.chunks(cols)).enumerate() {
        assert_eq!(g, w, "{isa}: row {r} of {cols}: {:?}", &logits[r * cols..(r + 1) * cols]);
    }
}

#[test]
fn every_row_length_matches_the_unit() {
    let mut rng = Rng(0x50F7);
    for_each_isa(|isa| {
        for fmt in formats() {
            let unit = SoftmaxUnit::new(fmt);
            for n in 1..=512usize {
                let rows = 1 + n % 3;
                let logits: Vec<i8> = (0..rows)
                    .flat_map(|_| {
                        let centre = rng.below(256) as i16 - 128;
                        let spread = 1 + rng.below(255);
                        rng.codes(n, centre, spread)
                    })
                    .collect();
                check(&unit, &logits, n, isa);
            }
        }
    });
}

#[test]
fn constant_rows_reach_the_largest_sum() {
    for_each_isa(|isa| {
        for fmt in formats() {
            let unit = SoftmaxUnit::new(fmt);
            for n in 1..=512usize {
                for x in [i8::MIN, -1, 0, 1, i8::MAX] {
                    check(&unit, &vec![x; n], n, isa);
                }
            }
        }
    });
}

#[test]
fn spreads_beyond_the_rom_range_clamp_alike() {
    let mut rng = Rng(0xC1A9);
    for_each_isa(|isa| {
        for fmt in formats() {
            let unit = SoftmaxUnit::new(fmt);
            // The two ends of the i8 range: x − max = −255 clamps to −128.
            for n in [2usize, 17, 64, 128, 129, 511, 512] {
                let mut row = vec![i8::MIN; n];
                row[n / 2] = i8::MAX;
                check(&unit, &row, n, isa);
            }
            for _ in 0..2_000 {
                let n = 1 + rng.below(512) as usize;
                let spread = 129 + rng.below(127);
                check(&unit, &rng.codes(n, 0, spread), n, isa);
            }
        }
    });
}

#[test]
fn every_rom_code_beside_the_max_matches_the_unit() {
    for_each_isa(|isa| {
        for fmt in formats() {
            let unit = SoftmaxUnit::new(fmt);
            // Each exponential the ROM returns, as the numerator beside
            // the row max, at the smallest and largest sums for it.
            for d in i8::MIN..=0 {
                for copies in [1usize, 7, 127, 511] {
                    let mut row = vec![d; copies + 1];
                    row[0] = 0;
                    check(&unit, &row, copies + 1, isa);
                }
            }
        }
    });
}

/// Every row of `c0 ≥ 1` copies of the max and `c ≥ 1` copies of one
/// lower code in which a quotient `a / sum` (`a = e·2⁷`) lies less than
/// `a / 2⁴⁰` below the next integer: among them are the rows that a
/// reciprocal of `2⁴⁴` (excess up to `a / 2⁴⁴`) floors wrong.
fn tight_rows(lut: &ExpLut) -> Vec<Vec<i8>> {
    let table = lut.table();
    let mut rows = Vec::new();
    for d in i8::MIN..0 {
        let e = u64::from(table[usize::from(d.cast_unsigned())]);
        for c0 in 1..512usize {
            for c in 1..=512 - c0 {
                let sum = c0 as u64 * (1 << 15) + c as u64 * e;
                let tight = [1u64 << 22, e << 7]
                    .into_iter()
                    .any(|a| a > 0 && (u128::from(sum - a % sum) << 40) < u128::from(a * sum));
                if tight {
                    let mut row = vec![0i8; c0];
                    row.resize(c0 + c, d);
                    rows.push(row);
                }
            }
        }
    }
    rows
}

/// The per-element softmax: one integer division per probability.
fn division(lut: &ExpLut, row: &[i8]) -> Vec<i8> {
    let max = row.iter().copied().max().expect("non-empty row");
    let exps: Vec<u64> = row
        .iter()
        .map(|&x| u64::from(lut.lookup((i16::from(x) - i16::from(max)).max(-128) as i8)))
        .collect();
    let sum: u64 = exps.iter().sum();
    exps.iter().map(|&e| ((e << 7) / sum).min(127) as i8).collect()
}

#[test]
fn quotients_just_below_an_integer_floor_exactly() {
    let cases: Vec<(SoftmaxUnit, Vec<Vec<i8>>)> = formats()
        .into_iter()
        .map(|fmt| {
            let unit = SoftmaxUnit::new(fmt);
            let rows = tight_rows(unit.lut());
            assert!(!rows.is_empty(), "{fmt:?} has no tight row");
            for row in &rows {
                let mut got = vec![0i8; row.len()];
                unit.forward_row(row, &mut got);
                assert_eq!(got, division(unit.lut(), row), "unit in {fmt:?}: {row:?}");
            }
            (unit, rows)
        })
        .collect();
    for_each_isa(|isa| {
        for (unit, rows) in &cases {
            for row in rows {
                check(unit, row, row.len(), isa);
            }
        }
    });
}

#[test]
fn random_rows_match_the_unit() {
    let mut rng = Rng(0xD15C);
    for_each_isa(|isa| {
        let unit = SoftmaxUnit::new(QFormat::new(8, 5));
        for _ in 0..5_000 {
            let n = 1 + rng.below(512) as usize;
            let centre = rng.below(256) as i16 - 128;
            let spread = [0u64, 1, 2, 4, 8, 16, 32, 64, 128, 255][rng.below(10) as usize];
            check(&unit, &rng.codes(n, centre, spread), n, isa);
        }
    });
}

#[test]
fn compute_head_matches_forward_matrix() {
    let mut rng = Rng(0x4EAD);
    for_each_isa(|isa| {
        for fmt in formats() {
            let s = QuantSchedule { logit_fmt: fmt, ..QuantSchedule::paper() };
            let engine = SoftmaxEngine::new(&s);
            let unit = SoftmaxUnit::new(fmt);
            for (rows, cols) in [(1, 1), (8, 8), (16, 17), (64, 64), (128, 128), (96, 512)] {
                let logits = Matrix::from_vec(rows, cols, rng.codes(rows * cols, 0, 128));
                let mut want = vec![0i8; rows * cols];
                unit.forward_matrix(logits.as_slice(), cols, &mut want);
                let got = engine.compute_head(&logits);
                assert_eq!(got.as_slice(), &want[..], "{isa}: {rows}x{cols} in {fmt:?}");
            }
        }
    });
}
