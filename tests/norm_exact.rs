//! Exactness of the row-resolved layer norm and softmax against the
//! per-element formulas that define their numerics.
//!
//! [`LayerNormUnit`] resolves `(x − μ)·2⁸ / σ` once per row into a
//! table over the i8 codes and runs its affine step in `i32` when the
//! formats bound it; [`SoftmaxUnit`] divides by the row's exponential sum
//! through one reciprocal per row. Both backends and the decoders share
//! these units, so `backend_equiv` cannot see an error in them. The
//! oracles below are the per-element formulas: one rounded division per
//! layer-norm element, one integer division per probability.

use protea::fixed::layernorm::{isqrt_u64, norm_table, LayerNormUnit};
use protea::fixed::softmax::ExpLut;
use protea::fixed::{QFormat, Rounding, SoftmaxUnit};

/// SplitMix64: a deterministic stream for the random sweeps.
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

    fn code(&mut self) -> i8 {
        self.next() as u8 as i8
    }

    /// Codes drawn around `centre` with the given spread, saturating.
    fn codes(&mut self, n: usize, centre: i16, spread: u64) -> Vec<i8> {
        (0..n)
            .map(|_| {
                let d = self.below(2 * spread + 1) as i16 - spread as i16;
                (centre + d).clamp(-128, 127) as i8
            })
            .collect()
    }
}

// --- layer norm oracle ----------------------------------------------------

/// `num/den` rounded to nearest, ties away from zero.
fn div_round_nearest(num: i64, den: i64) -> i64 {
    let half = den / 2;
    if num >= 0 {
        (num + half) / den
    } else {
        (num - half) / den
    }
}

fn shift_signed(v: i64, sh: i32) -> i64 {
    if sh >= 0 {
        v << sh.min(62)
    } else {
        Rounding::NearestEven.shift_right(v, (-sh) as u32)
    }
}

fn shift_round(v: i64, sh: i32) -> i64 {
    if sh > 0 {
        Rounding::NearestEven.shift_right(v, sh as u32)
    } else {
        v << (-sh).min(62)
    }
}

/// The affine parameters and formats a unit was built from.
struct Affine {
    gamma: Vec<i8>,
    beta: Vec<i8>,
    gamma_fmt: QFormat,
    beta_fmt: QFormat,
    out_fmt: QFormat,
}

impl Affine {
    fn uniform(dim: usize, g: i8, b: i8, fmts: (u8, u8, u8)) -> Self {
        Self::from_codes(vec![g; dim], vec![b; dim], fmts)
    }

    fn from_codes(gamma: Vec<i8>, beta: Vec<i8>, (gf, bf, of): (u8, u8, u8)) -> Self {
        let f = |frac| QFormat::new(8, frac);
        Self { gamma, beta, gamma_fmt: f(gf), beta_fmt: f(bf), out_fmt: f(of) }
    }

    fn unit(&self) -> LayerNormUnit {
        LayerNormUnit::new(
            self.gamma.clone(),
            self.beta.clone(),
            self.gamma_fmt,
            self.beta_fmt,
            self.out_fmt,
        )
    }

    /// The per-element layer norm: one rounded division per element.
    fn oracle(&self, row: &[i8]) -> Vec<i8> {
        let n = row.len();
        let mut out = vec![0i8; n];
        if n == 0 {
            return out;
        }
        let sum: i64 = row.iter().map(|&x| i64::from(x)).sum();
        let mean = div_round_nearest(sum, n as i64);
        let var: i64 = row
            .iter()
            .map(|&x| {
                let c = i64::from(x) - mean;
                c * c
            })
            .sum::<i64>()
            / n as i64;
        let sigma = isqrt_u64(var as u64).max(1);
        let inv_gain = 1i64 << 8;
        for i in 0..n {
            let c = i64::from(row[i]) - mean;
            let t = div_round_nearest(c * inv_gain, sigma as i64);
            let acc_frac = 8 + u32::from(self.gamma_fmt.frac_bits());
            let mut acc = t * i64::from(self.gamma[i]);
            let beta_shift = acc_frac as i32 - i32::from(self.beta_fmt.frac_bits());
            acc += shift_signed(i64::from(self.beta[i]), beta_shift);
            let dst = i32::from(self.out_fmt.frac_bits());
            out[i] = shift_round(acc, acc_frac as i32 - dst).clamp(-128, 127) as i8;
        }
        out
    }

    fn check(&self, unit: &LayerNormUnit, row: &[i8], what: &str) {
        let mut got = row.to_vec();
        unit.forward_row(&mut got);
        assert_eq!(got, self.oracle(row), "{what}: row {row:?}");
    }
}

/// Format triples `(γ_frac, β_frac, out_frac)`: the paper's, an
/// output shift of zero, β finer than the accumulator (a rounding right
/// shift), and a wide range of output shifts.
const NARROW_FMTS: [(u8, u8, u8); 6] =
    [(5, 5, 5), (6, 6, 5), (0, 0, 8), (5, 20, 3), (7, 0, 0), (2, 4, 7)];

/// Formats that do not bound `t·γ + β` in an `i32`: β aligned up by 28
/// or 39 bits, and an output finer than the accumulator (a left shift).
const WIDE_FMTS: [(u8, u8, u8); 3] = [(20, 0, 5), (0, 0, 20), (31, 0, 0)];

#[test]
fn norm_table_matches_the_rounded_division_for_every_offset_and_sigma() {
    for sigma in 1..=256u64 {
        for mean in i8::MIN..=i8::MAX {
            let t = norm_table(mean, sigma);
            for x in i8::MIN..=i8::MAX {
                let c = i64::from(x) - i64::from(mean);
                let want = div_round_nearest(c << 8, sigma as i64);
                assert_eq!(i64::from(t[x as u8 as usize]), want, "c={c} sigma={sigma} mean={mean}");
            }
        }
    }
}

#[test]
fn edge_rows_match_the_per_element_oracle() {
    let mut edges: Vec<Vec<i8>> = Vec::new();
    for v in [-128i8, -1, 0, 1, 42, 127] {
        edges.push(vec![v; 768]); // constant: σ clamps to 1
        edges.push(vec![v; 3]);
    }
    for n in [2usize, 3, 64, 767, 768] {
        edges.push((0..n).map(|i| if i % 2 == 0 { -128 } else { 127 }).collect());
        edges.push((0..n).map(|i| if i == 0 { 127 } else { -128 }).collect());
        edges.push((0..n).map(|i| if i == 0 { -128 } else { 127 }).collect());
        edges.push((0..n).map(|i| if i == n / 2 { 1 } else { 0 }).collect());
    }
    edges.push(vec![-128]);
    edges.push(vec![127]);
    edges.push(vec![]);
    let mut affines: Vec<Affine> = Vec::new();
    for fmts in NARROW_FMTS.iter().chain(&WIDE_FMTS) {
        for (g, b) in [(-128i8, -128i8), (-128, 127), (127, -128), (127, 127), (0, 0), (64, 0)] {
            affines.push(Affine::uniform(768, g, b, *fmts));
        }
    }
    for a in &affines {
        let unit = a.unit();
        for row in &edges {
            a.check(&unit, row, "edge row");
        }
    }
}

#[test]
fn random_rows_at_every_runtime_width_match_the_per_element_oracle() {
    let mut rng = Rng(0x1A7E_5EED);
    for fmts in NARROW_FMTS.iter().chain(&WIDE_FMTS) {
        let a = Affine::from_codes(
            (0..768).map(|_| rng.code()).collect(),
            (0..768).map(|_| rng.code()).collect(),
            *fmts,
        );
        let unit = a.unit();
        for n in [1usize, 2, 3, 64, 256, 768] {
            for _ in 0..24 {
                let centre = rng.below(256) as i16 - 128;
                let spread = [0, 1, 3, 20, 90, 255][rng.below(6) as usize];
                a.check(&unit, &rng.codes(n, centre, spread), "random row");
            }
        }
    }
}

#[test]
fn identity_unit_matches_the_per_element_oracle() {
    let out_fmt = QFormat::new(8, 5);
    let unit = LayerNormUnit::identity(768, out_fmt);
    let a = Affine {
        gamma: vec![64; 768],
        beta: vec![0; 768],
        gamma_fmt: QFormat::new(8, 6),
        beta_fmt: QFormat::new(8, 6),
        out_fmt,
    };
    let mut rng = Rng(7);
    for n in [1usize, 2, 3, 64, 256, 768] {
        for spread in [0u64, 2, 50, 255] {
            a.check(&unit, &rng.codes(n, 0, spread), "identity unit");
        }
    }
}

// --- softmax oracle -------------------------------------------------------

/// The per-element softmax: one integer division per probability.
fn softmax_oracle(lut: &ExpLut, row: &[i8]) -> Vec<i8> {
    let max = row.iter().copied().max().expect("non-empty row");
    let exps: Vec<u16> = row
        .iter()
        .map(|&x| lut.lookup((i16::from(x) - i16::from(max)).clamp(-128, 127) as i8))
        .collect();
    let sum: u32 = exps.iter().map(|&e| u32::from(e)).sum();
    exps.iter().map(|&e| ((u64::from(e) << 7) / u64::from(sum)).min(127) as i8).collect()
}

fn check_softmax(unit: &SoftmaxUnit, lut: &ExpLut, row: &[i8]) {
    let mut got = vec![0i8; row.len()];
    unit.forward_row(row, &mut got);
    assert_eq!(got, softmax_oracle(lut, row), "row {row:?}");
}

#[test]
fn softmax_matches_the_division_for_every_length_and_lut_code() {
    let mut rng = Rng(0x50F7);
    for fmt in [5, 3, 7].map(|frac| QFormat::new(8, frac)) {
        let (unit, lut) = (SoftmaxUnit::new(fmt), ExpLut::new(fmt));
        for n in 1..=512usize {
            let centre = rng.below(256) as i16 - 128;
            let spread = 1 + rng.below(255);
            check_softmax(&unit, &lut, &rng.codes(n, centre, spread));
        }
        // Every exponential the ROM can return, as the numerator beside
        // the row's maximum, at the smallest and largest sums for that
        // code: one partner, and 511 copies.
        for d in i8::MIN..=0 {
            for copies in [1usize, 7, 511] {
                let mut row = vec![d; copies + 1];
                row[0] = 0;
                check_softmax(&unit, &lut, &row);
            }
        }
    }
}

#[test]
fn softmax_matches_the_division_across_the_sum_range() {
    let fmt = QFormat::new(8, 5);
    let (unit, lut) = (SoftmaxUnit::new(fmt), ExpLut::new(fmt));
    // sum = 2¹⁵ (one element) and sum = 512·2¹⁵ (512 equal elements).
    check_softmax(&unit, &lut, &[5]);
    check_softmax(&unit, &lut, &[-128; 512]);
    check_softmax(&unit, &lut, &[127; 512]);
    // Dense sweep between: the spread sets how far below 2¹⁵ the
    // non-maximal exponentials fall, the length how many are summed.
    let mut rng = Rng(0xD15C);
    for _ in 0..20_000 {
        let n = 1 + rng.below(512) as usize;
        let centre = rng.below(256) as i16 - 128;
        let spread = [0u64, 1, 2, 4, 8, 16, 32, 64, 128, 255][rng.below(10) as usize];
        check_softmax(&unit, &lut, &rng.codes(n, centre, spread));
    }
}
