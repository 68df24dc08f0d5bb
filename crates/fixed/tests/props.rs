//! Property-based tests of the fixed-point layer's algebraic contracts.

use proptest::prelude::*;
use protea_fixed::layernorm::isqrt_u64;
use protea_fixed::{gelu_i8, relu_i8, requantize, QFormat, Rounding};

proptest! {
    #[test]
    fn requantize_is_monotone_in_the_accumulator(
        a in -100_000i32..100_000, delta in 0i32..10_000, frac in 6u8..14
    ) {
        let t = QFormat::new(8, 5);
        for mode in [Rounding::Truncate, Rounding::NearestEven, Rounding::HalfUp] {
            let lo = requantize(a, frac, t, mode);
            let hi = requantize(a.saturating_add(delta), frac, t, mode);
            prop_assert!(hi >= lo, "{mode:?}: requantize must be monotone");
        }
    }

    #[test]
    fn relu_gelu_bounded_by_identity(x in any::<i8>()) {
        let fmt = QFormat::q8_default();
        prop_assert!(relu_i8(x) >= 0);
        prop_assert!(relu_i8(x) >= x.min(0));
        let g = gelu_i8(x, fmt);
        // gelu(x) ≤ max(x, 0) + 1 LSB and ≥ min(x, 0) − slack
        prop_assert!(i16::from(g) <= i16::from(x.max(0)) + 1);
        prop_assert!(i16::from(g) >= i16::from(x.min(0)) - 1);
    }

    #[test]
    fn isqrt_is_exact_floor_sqrt(x in any::<u64>()) {
        let s = isqrt_u64(x);
        prop_assert!(s.checked_mul(s).is_some_and(|sq| sq <= x));
        prop_assert!((s + 1).checked_mul(s + 1).is_none_or(|sq| sq > x));
    }

    #[test]
    fn rounding_modes_agree_on_exact_multiples(v in -1_000_000i64..1_000_000, s in 1u32..16) {
        let exact = v << s;
        for mode in [Rounding::Truncate, Rounding::NearestEven, Rounding::HalfUp] {
            prop_assert_eq!(mode.shift_right(exact, s), v);
        }
    }
}
