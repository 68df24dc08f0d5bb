//! Requantization: wide accumulator → narrow storage.
//!
//! After an engine finishes an output element, the 32-bit accumulator holds
//! a value in the *product* format (`frac_a + frac_b` fractional bits). The
//! hardware requantization stage shifts it back to the 8-bit storage format
//! and saturates. ProTEA's `QK_CE` additionally divides by the embedding
//! dimension (Algorithm 2, line 9) — a power-of-two-friendly scaling we
//! fold into the same shift where possible and model exactly otherwise.

use crate::qformat::QFormat;
use crate::rounding::Rounding;

/// Requantize one accumulator value from `acc_frac` fractional bits to the
/// `target` format, rounding per `mode` and saturating.
#[must_use]
pub fn requantize(acc: i32, acc_frac: u8, target: QFormat, mode: Rounding) -> i8 {
    debug_assert_eq!(target.total_bits(), 8, "requantize targets 8-bit storage");
    let src = i32::from(acc_frac);
    let dst = i32::from(target.frac_bits());
    let v = i64::from(acc);
    let shifted = if dst >= src {
        // Widening the fraction: left shift, saturating.
        let sh = (dst - src) as u32;
        v.checked_shl(sh).unwrap_or(if v >= 0 { i64::MAX } else { i64::MIN })
    } else {
        mode.shift_right(v, (src - dst) as u32)
    };
    shifted.clamp(-128, 127) as i8
}

/// A configured requantizer: fixed source fraction, target format, rounding
/// mode, and an optional extra integer divisor (for the `S/d_model` scaling
/// in Algorithm 2). One of these sits at the output of every engine.
#[derive(Debug, Clone, Copy)]
pub struct Requantizer {
    acc_frac: u8,
    target: QFormat,
    mode: Rounding,
    /// Extra right-shift applied before format conversion; used for the
    /// attention scaling `1/d_k^(1/2)` (the paper scales by the embedding
    /// dimension, a stronger power-of-two-able normalization).
    pre_shift: u8,
}

impl Requantizer {
    /// Build a requantizer from the accumulator fraction and target format.
    #[must_use]
    pub fn new(acc_frac: u8, target: QFormat, mode: Rounding) -> Self {
        Self { acc_frac, target, mode, pre_shift: 0 }
    }

    /// Add a power-of-two pre-scaling of `2^-shift` (e.g. `shift =
    /// log2(d_model)` for Algorithm 2's division by the embedding
    /// dimension).
    #[must_use]
    pub fn with_pre_shift(mut self, shift: u8) -> Self {
        self.pre_shift = shift;
        self
    }

    /// The target storage format.
    #[must_use]
    pub fn target(&self) -> QFormat {
        self.target
    }

    /// Requantize a single accumulator value.
    #[must_use]
    pub fn apply(&self, acc: i32) -> i8 {
        let pre = self.mode.shift_right(i64::from(acc), u32::from(self.pre_shift));
        // `pre` still fits i32 semantics (a right shift only shrinks), but
        // keep the wide path through requantize for uniform rounding.
        let src = i32::from(self.acc_frac);
        let dst = i32::from(self.target.frac_bits());
        let shifted = if dst >= src {
            let sh = (dst - src) as u32;
            pre.checked_shl(sh).unwrap_or(if pre >= 0 { i64::MAX } else { i64::MIN })
        } else {
            self.mode.shift_right(pre, (src - dst) as u32)
        };
        shifted.clamp(-128, 127) as i8
    }

    /// This requantizer resolved into branch-free lane arithmetic
    /// ([`LaneRequant`]): the rounding mode and both shifts are decided
    /// here, once, instead of per element. Bit-identical to
    /// [`apply`](Self::apply) for every i32 accumulator.
    #[must_use]
    pub fn lanes(&self) -> LaneRequant {
        let shift = i32::from(self.acc_frac) - i32::from(self.target.frac_bits());
        LaneRequant::new(self.mode, u32::from(self.pre_shift), shift)
    }

    /// Requantize a slice of accumulators into an i8 buffer.
    pub fn apply_slice(&self, acc: &[i32], out: &mut [i8]) {
        assert_eq!(acc.len(), out.len());
        for (o, &a) in out.iter_mut().zip(acc.iter()) {
            *o = self.apply(a);
        }
    }
}

/// One rounding right shift in i32 lanes: `floor(x / 2^sh)` plus a
/// carry of 0 or 1 computed in u32 from the discarded bits, so no lane
/// ever widens to i64 and no lane branches on the mode.
///
/// The carry is `(low + add + (floor & odd)) >> sh` with `low` the
/// discarded bits: truncation adds nothing, half-up adds half an LSB,
/// and round-half-to-even adds half an LSB less one plus the parity of
/// `floor`, which carries on a tie exactly when `floor` is odd. The sum
/// stays below `2^32` for every `sh ≤ 31`.
///
/// The fields are the resolved constants, public so that a SIMD
/// implementation elsewhere can run the same lane arithmetic
/// ([`LaneRequant::stages`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundShift {
    /// Arithmetic right shift giving the floor, `0..=31`.
    pub sh: u32,
    /// Mask of the `sh` discarded low bits.
    pub low_mask: u32,
    /// Constant added to the discarded bits before the carry shift.
    pub add: u32,
    /// Mask of the floor's bits added into the carry (its parity for
    /// round-half-to-even).
    pub odd: u32,
}

impl RoundShift {
    const IDENTITY: Self = Self { sh: 0, low_mask: 0, add: 0, odd: 0 };

    /// Resolve `mode.shift_right(x, shift)` for i32 inputs.
    fn new(mode: Rounding, shift: u32) -> Self {
        if shift == 0 {
            return Self::IDENTITY;
        }
        if shift >= 32 {
            // A shift of 32 or more leaves an i32 only its sign:
            // truncation floors it to −1 or 0 (as a shift by 31 does),
            // and both rounding modes round every i32 to 0 — the carry
            // term `floor & 2^31` adds back exactly the 1 that lifts a
            // floor of −1 to 0.
            return match mode {
                Rounding::Truncate => Self { sh: 31, ..Self::IDENTITY },
                Rounding::HalfUp | Rounding::NearestEven => {
                    Self { sh: 31, low_mask: u32::MAX >> 1, add: 0, odd: 1 << 31 }
                }
            };
        }
        let half = 1u32 << (shift - 1);
        let low_mask = (1u32 << shift) - 1;
        match mode {
            Rounding::Truncate => Self { sh: shift, ..Self::IDENTITY },
            Rounding::HalfUp => Self { sh: shift, low_mask, add: half, odd: 0 },
            Rounding::NearestEven => Self { sh: shift, low_mask, add: half - 1, odd: 1 },
        }
    }

    #[inline(always)]
    fn apply(self, x: i32) -> i32 {
        let floor = x >> self.sh;
        let low = x as u32 & self.low_mask;
        let carry = (low + self.add + (floor as u32 & self.odd)) >> self.sh;
        floor + carry as i32
    }
}

/// Truncating (C-style, toward zero) division of an i32 by a fixed
/// positive divisor `d ≤ 2^31`, resolved into one multiply and one
/// shift: `|x| / d = (|x| · m) >> (31 + l)` with `l = ⌈log₂ d⌉` and
/// `m = ⌈2^(31+l) / d⌉ < 2^32`. The rounding error `m·d − 2^(31+l)` is
/// below `d`, so for `|x| ≤ 2^31` the product never crosses the next
/// multiple of `d` and the quotient is exact. The quotient fits 32 bits,
/// and the sign is restored as `(q ^ s) − s` with `s = x >> 31`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactDiv {
    /// The reciprocal `m`.
    pub mul: u32,
    /// The right shift `31 + l`, `31..=62`, of the 64-bit product.
    pub shift: u32,
}

impl ExactDiv {
    fn new(d: u32) -> Self {
        assert!((1..=1 << 31).contains(&d), "divisor must be in 1..=2^31, got {d}");
        let shift = 31 + d.next_power_of_two().trailing_zeros();
        let mul = (1u64 << shift).div_ceil(u64::from(d));
        Self { mul: u32::try_from(mul).expect("reciprocal fits 32 bits"), shift }
    }

    #[inline(always)]
    fn apply(self, x: i32) -> i32 {
        let q = ((u64::from(x.unsigned_abs()) * u64::from(self.mul)) >> self.shift) as i32;
        // Restore the sign: `(q ^ s) − s` negates when `s = −1`. Only
        // `i32::MIN / 1` wraps the magnitude, and wrapping negation
        // maps it back onto itself.
        let sign = x >> 31;
        (q ^ sign).wrapping_sub(sign)
    }
}

/// A requantization stage resolved once into branch-free i32 lane
/// arithmetic: an optional truncating division, a rounding pre-shift,
/// a rounding right shift or a saturating left shift, then saturation
/// to i8. Every per-element decision — rounding mode, shift direction
/// and amount, the divisor's reciprocal — is made at construction, so
/// [`apply_slice`](Self::apply_slice) is straight-line lane code LLVM
/// vectorizes on every ISA.
///
/// Built by [`Requantizer::lanes`] for projection and SV outputs, and
/// with [`with_divisor`](Self::with_divisor) for the attention-logit
/// scaling. The per-element [`Requantizer::apply`] stays the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneRequant {
    div: Option<ExactDiv>,
    /// `None` when there is no pre-shift.
    pre: Option<RoundShift>,
    post: RoundShift,
    /// Left shift, capped at 8: past that every non-zero value
    /// saturates anyway.
    left: u32,
}

impl LaneRequant {
    /// `clamp(round(round(x / 2^pre_shift) / 2^shift))` when `shift ≥ 0`,
    /// `clamp(round(x / 2^pre_shift) · 2^-shift)` otherwise, both
    /// roundings per `mode` — [`Requantizer::apply`]'s two stages.
    ///
    /// # Panics
    /// Panics if `shift < −31` (no 8-bit target format is that far
    /// from an accumulator format).
    #[must_use]
    pub fn new(mode: Rounding, pre_shift: u32, shift: i32) -> Self {
        assert!(shift >= -31, "left shift out of range: {shift}");
        Self {
            div: None,
            pre: (pre_shift > 0).then(|| RoundShift::new(mode, pre_shift)),
            post: RoundShift::new(mode, shift.max(0).unsigned_abs()),
            left: shift.min(0).unsigned_abs().min(8),
        }
    }

    /// Divide every accumulator by `denom` first, truncating toward
    /// zero — the exact integer divide of the attention-logit scaling.
    ///
    /// # Panics
    /// Panics if `denom` is 0 or above `2^31`.
    #[must_use]
    pub fn with_divisor(mut self, denom: u32) -> Self {
        self.div = Some(ExactDiv::new(denom));
        self
    }

    /// The resolved stages as plain data, in the order they run.
    #[must_use]
    pub fn stages(&self) -> LaneStages {
        LaneStages { div: self.div, pre: self.pre, post: self.post, left: self.left }
    }

    /// Narrow `acc` into `out` element by element. The stages this
    /// requantizer has are picked once per call, and each combination
    /// runs as one branch-free loop — the shape LLVM's loop vectorizer
    /// turns into whole-register shifts, masks and saturating packs.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    #[inline]
    pub fn apply_slice(&self, acc: &[i32], out: &mut [i8]) {
        assert_eq!(acc.len(), out.len(), "requant slice lengths differ");
        match self.div {
            None => self.narrow_each(acc, out, |_, x| x),
            Some(div) => self.narrow_each(acc, out, |_, x| div.apply(x)),
        }
    }

    /// [`apply_slice`](Self::apply_slice) of `acc[i] + offset[i % 16]`,
    /// the add folded into the same lane loop: a per-column bias over
    /// rows whose width divides 16. The add wraps, so the caller must
    /// know that no sum overflows i32 (a saturating add would differ
    /// only then).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    #[inline]
    pub fn apply_slice_offset(&self, acc: &[i32], offset: &[i32; 16], out: &mut [i8]) {
        assert_eq!(acc.len(), out.len(), "requant slice lengths differ");
        match self.div {
            None => self.narrow_each(acc, out, |l, x| x.wrapping_add(offset[l])),
            Some(div) => self.narrow_each(acc, out, |l, x| div.apply(x.wrapping_add(offset[l]))),
        }
    }

    /// `first` gets each element with its lane (index mod 16).
    #[inline(always)]
    fn narrow_each(&self, acc: &[i32], out: &mut [i8], first: impl Fn(usize, i32) -> i32) {
        let (post, left) = (self.post, self.left);
        let right = |x: i32| post.apply(x).clamp(-128, 127) as i8;
        // A left shift means no right shift follows the pre-shift.
        // Clamping to 9 bits first keeps the (≤ 8-bit) shift inside i32
        // without changing which values saturate.
        let left = |x: i32| (x.clamp(-256, 255) << left).clamp(-128, 127) as i8;
        match (self.pre, self.left) {
            (None, 0) => each(acc, out, |l, x| right(first(l, x))),
            (Some(pre), 0) => each(acc, out, |l, x| right(pre.apply(first(l, x)))),
            (None, _) => each(acc, out, |l, x| left(first(l, x))),
            (Some(pre), _) => each(acc, out, |l, x| left(pre.apply(first(l, x)))),
        }
    }
}

/// The stages of a [`LaneRequant`], for code that runs its lane
/// arithmetic in explicit vector registers. Per element, in order:
/// `div` if present, `pre` if present, then `post` when `left == 0`, or
/// else `clamp(x, −256, 255) << left`; finally saturation to i8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneStages {
    /// The truncating divide of the attention-logit scaling.
    pub div: Option<ExactDiv>,
    /// The rounding pre-shift.
    pub pre: Option<RoundShift>,
    /// The rounding right shift into the target format.
    pub post: RoundShift,
    /// The left shift into the target format, `0..=8`; when non-zero,
    /// `post` is the identity.
    pub left: u32,
}

/// `out[i] = f(i % 16, acc[i])`, sixteen lanes per step: a fixed-width
/// body is what lets LLVM merge the narrowing into whole-register
/// saturating packs and a single 16-byte store.
#[inline(always)]
fn each(acc: &[i32], out: &mut [i8], f: impl Fn(usize, i32) -> i8) {
    let mut outs = out.chunks_exact_mut(16);
    let mut accs = acc.chunks_exact(16);
    for (o, x) in (&mut outs).zip(&mut accs) {
        let o: &mut [i8; 16] = o.try_into().expect("16-lane chunk");
        let x: &[i32; 16] = x.try_into().expect("16-lane chunk");
        for (l, (o, &x)) in o.iter_mut().zip(x).enumerate() {
            *o = f(l, x);
        }
    }
    for (l, (o, &x)) in outs.into_remainder().iter_mut().zip(accs.remainder()).enumerate() {
        *o = f(l, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requantize_identity_when_formats_match() {
        let t = QFormat::new(8, 5);
        assert_eq!(requantize(100, 5, t, Rounding::Truncate), 100);
        assert_eq!(requantize(-100, 5, t, Rounding::Truncate), -100);
    }

    #[test]
    fn requantize_shifts_down_product_format() {
        // acc holds Q.10 (two Q.5 inputs); target Q.5 → shift right 5.
        let t = QFormat::new(8, 5);
        assert_eq!(requantize(32 << 5, 10, t, Rounding::NearestEven), 32);
    }

    #[test]
    fn requantize_saturates() {
        let t = QFormat::new(8, 5);
        assert_eq!(requantize(i32::MAX, 10, t, Rounding::Truncate), 127);
        assert_eq!(requantize(i32::MIN, 10, t, Rounding::Truncate), -128);
    }

    #[test]
    fn requantize_widening_fraction() {
        let t = QFormat::new(8, 7);
        // acc = 1 in Q.5 (=1/32); in Q.7 it's raw 4.
        assert_eq!(requantize(1, 5, t, Rounding::Truncate), 4);
    }

    #[test]
    fn pre_shift_divides() {
        let t = QFormat::new(8, 5);
        let r = Requantizer::new(10, t, Rounding::Truncate).with_pre_shift(3);
        // acc = 8.0 in Q.10 → pre-shift /8 → 1.0 → Q.5 raw 32.
        assert_eq!(r.apply(8 << 10), 32);
    }

    #[test]
    fn apply_slice_matches_scalar() {
        let t = QFormat::new(8, 4);
        let r = Requantizer::new(9, t, Rounding::NearestEven);
        let acc: Vec<i32> = (-20..20).map(|i| i * 137).collect();
        let mut out = vec![0i8; acc.len()];
        r.apply_slice(&acc, &mut out);
        for (i, &a) in acc.iter().enumerate() {
            assert_eq!(out[i], r.apply(a));
        }
    }

    #[test]
    fn offset_slice_is_the_slice_of_the_added_values() {
        // Lengths with and without a 16-lane remainder, a left-shifting
        // and a right-shifting requantizer, each with and without the
        // divisor stage.
        let offset: [i32; 16] = core::array::from_fn(|l| (l as i32 - 7) * 40_961);
        for (acc_frac, denom) in [(9, None), (2, None), (9, Some(12)), (2, Some(3))] {
            for mode in [Rounding::Truncate, Rounding::HalfUp, Rounding::NearestEven] {
                let rq = Requantizer::new(acc_frac, QFormat::new(8, 4), mode).lanes();
                let rq = denom.map_or(rq, |d| rq.with_divisor(d));
                for len in [0usize, 7, 16, 40] {
                    let acc: Vec<i32> = (0..len as i32).map(|i| (i - 20) * 3_001).collect();
                    let added: Vec<i32> =
                        acc.iter().enumerate().map(|(i, &x)| x + offset[i % 16]).collect();
                    let mut want = vec![0i8; len];
                    rq.apply_slice(&added, &mut want);
                    let mut got = vec![0i8; len];
                    rq.apply_slice_offset(&acc, &offset, &mut got);
                    assert_eq!(got, want, "{mode:?} frac {acc_frac} div {denom:?} len {len}");
                }
            }
        }
    }

    #[test]
    fn divisor_matches_i64_division() {
        // Every small divisor, and the powers of two with their
        // neighbours up to the 2^31 limit, against quotient boundaries:
        // the extremes and `±(k·d + {−1, 0, 1})` near both ends.
        let pow2 = (1..=31).flat_map(|b| [(1u32 << b) - 1, 1 << b, (1 << b) + 1]);
        for d in (1u32..=3000).chain(pow2).filter(|&d| d <= 1 << 31) {
            let div = ExactDiv::new(d);
            let big = i64::from(i32::MAX) / i64::from(d) * i64::from(d);
            for base in [0, i64::from(d), big - i64::from(d), big] {
                for x in [base - 1, base, base + 1].into_iter().flat_map(|v| [v, -v]) {
                    let x = x.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
                    assert_eq!(i64::from(div.apply(x)), i64::from(x) / i64::from(d), "{x} / {d}");
                }
            }
            for x in [i32::MIN, i32::MIN + 1, i32::MAX] {
                assert_eq!(i64::from(div.apply(x)), i64::from(x) / i64::from(d), "{x} / {d}");
            }
        }
    }

    #[test]
    fn requantize_error_within_half_lsb_of_target() {
        let t = QFormat::new(8, 5);
        for acc in (-4000i32..4000).step_by(7) {
            let real = f64::from(acc) / 1024.0; // Q.10
            let q = requantize(acc, 10, t, Rounding::NearestEven);
            let back = f64::from(q) / 32.0;
            if real.abs() < t.real_max() {
                assert!((back - real).abs() <= t.lsb() / 2.0 + 1e-12, "acc={acc}");
            }
        }
    }
}
