//! bfloat16: 1 sign bit, 8 exponent bits (the full f32 range), 7 explicit
//! significand bits. Named by the paper (§VII) as a future extension of its
//! reduced-precision modes.
//!
//! bfloat16 is exactly the upper 16 bits of an IEEE binary32, so conversion
//! from `f32` is a round-to-nearest-even truncation of the low 16 bits —
//! the crate's shared rounding core ([`crate::Flex`]) specialised to
//! `E8M7`, where no rebias and no subnormal step are needed; a test pins it
//! to `Flex::<8, 7>::from_f32` — and widening is a zero-extension.
//!
//! * **Arithmetic** (`+ − × ÷`, `sqrt`) runs in `f32` and is rounded once.
//!   binary32 carries `24 ≥ 2·8 + 2` significand bits (Figueroa's bound for
//!   innocuous double rounding), so results are correctly rounded wherever
//!   the binary32 result is normal. Below 2⁻¹²⁶ binary32 keeps fewer bits
//!   and a quotient there may round twice, as a binary32 register would;
//!   this is the same result the former `f64` path produced.
//! * **`f64` inputs** ([`Bf16::from_f64`]) are rounded to binary32 *to odd*
//!   first, then to bfloat16. A plain `f64 → f32` cast would round twice to
//!   nearest and can land on a false tie: `1 + 2⁻⁸ + 2⁻³⁰` must round up to
//!   `1 + 2⁻⁷`, not down to `1`.
//! * **[`Bf16::mul_add`]** stays in `f64` with one final rounding; a
//!   binary32 FMA would round `a·b + c` to 24 bits first and could lose a
//!   tiny `c` into a false tie.

use crate::flex::f64_to_f32_odd;
use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A bfloat16 ("brain floating point") number.
#[derive(Clone, Copy, Default)]
#[repr(transparent)]
pub struct Bf16(u16);

fn f32_to_bf16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Keep a quiet NaN; ensure the payload stays nonzero after truncation.
        return ((bits >> 16) as u16) | 0x0040;
    }
    // Round to nearest even on the low 16 bits. The add can carry all the way
    // through the exponent, which correctly turns overflow into infinity.
    let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1));
    (rounded >> 16) as u16
}

impl Bf16 {
    /// Positive zero.
    pub const ZERO: Bf16 = Bf16(0x0000);
    /// One.
    pub const ONE: Bf16 = Bf16(0x3F80);
    /// Positive infinity.
    pub const INFINITY: Bf16 = Bf16(0x7F80);
    /// Negative infinity.
    pub const NEG_INFINITY: Bf16 = Bf16(0xFF80);
    /// A quiet NaN.
    pub const NAN: Bf16 = Bf16(0x7FC0);
    /// Machine epsilon, 2⁻⁷.
    pub const EPSILON: Bf16 = Bf16(0x3C00);

    /// Construct from raw bits.
    #[inline]
    pub const fn from_bits(bits: u16) -> Bf16 {
        Bf16(bits)
    }
    /// The raw bits.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Round an `f64` to the nearest bfloat16: to odd at binary32, then
    /// round-to-nearest-even (module docs).
    #[inline]
    pub fn from_f64(x: f64) -> Bf16 {
        Bf16(f32_to_bf16_bits(f64_to_f32_odd(x)))
    }

    /// Round an `f32` to the nearest bfloat16.
    #[inline]
    pub fn from_f32(x: f32) -> Bf16 {
        Bf16(f32_to_bf16_bits(x))
    }

    /// Widen to `f32` exactly.
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Widen to `f64` exactly.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// `true` for NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7F80) == 0x7F80 && (self.0 & 0x007F) != 0
    }

    /// `true` for anything that is neither NaN nor ±∞.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7F80) != 0x7F80
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Bf16 {
        Bf16(self.0 & 0x7FFF)
    }

    /// Square root, correctly rounded (in `f32`, module docs).
    #[inline]
    pub fn sqrt(self) -> Bf16 {
        Bf16::from_f32(self.to_f32().sqrt())
    }

    /// Fused multiply-add with a single final rounding, computed in `f64`
    /// (module docs).
    #[inline]
    pub fn mul_add(self, a: Bf16, b: Bf16) -> Bf16 {
        Bf16::from_f64(self.to_f64().mul_add(a.to_f64(), b.to_f64()))
    }

    /// IEEE `minNum` minimum.
    #[inline]
    pub fn min(self, other: Bf16) -> Bf16 {
        if self.is_nan() {
            other
        } else if other.is_nan() || self.to_f32() <= other.to_f32() {
            self
        } else {
            other
        }
    }

    /// IEEE `maxNum` maximum.
    #[inline]
    pub fn max(self, other: Bf16) -> Bf16 {
        if self.is_nan() {
            other
        } else if other.is_nan() || self.to_f32() >= other.to_f32() {
            self
        } else {
            other
        }
    }

    /// Total order for sorting: −∞ < finite < +∞ < NaN.
    #[inline]
    pub fn total_cmp(&self, other: &Bf16) -> Ordering {
        self.total_key().cmp(&other.total_key())
    }

    /// The monotone integer key behind [`Bf16::total_cmp`]: all NaNs map to
    /// `i32::MAX`, negatives below every non-negative (−0 maps to −1 < +0).
    #[inline]
    pub fn total_key(self) -> i32 {
        if self.is_nan() {
            return i32::MAX;
        }
        let bits = self.0 as i32;
        if bits & 0x8000 != 0 {
            -(bits & 0x7FFF) - 1
        } else {
            bits
        }
    }
}

macro_rules! bf16_binop {
    ($trait:ident, $method:ident, $op:tt, $assign_trait:ident, $assign_method:ident) => {
        impl $trait for Bf16 {
            type Output = Bf16;
            #[inline]
            fn $method(self, rhs: Bf16) -> Bf16 {
                Bf16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
        impl $assign_trait for Bf16 {
            #[inline]
            fn $assign_method(&mut self, rhs: Bf16) {
                *self = *self $op rhs;
            }
        }
    };
}

bf16_binop!(Add, add, +, AddAssign, add_assign);
bf16_binop!(Sub, sub, -, SubAssign, sub_assign);
bf16_binop!(Mul, mul, *, MulAssign, mul_assign);
bf16_binop!(Div, div, /, DivAssign, div_assign);

impl Neg for Bf16 {
    type Output = Bf16;
    #[inline]
    fn neg(self) -> Bf16 {
        Bf16(self.0 ^ 0x8000)
    }
}

impl PartialEq for Bf16 {
    #[inline]
    fn eq(&self, other: &Bf16) -> bool {
        if self.is_nan() || other.is_nan() {
            return false;
        }
        self.to_f32() == other.to_f32()
    }
}

impl PartialOrd for Bf16 {
    #[inline]
    fn partial_cmp(&self, other: &Bf16) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}bf16", self.to_f64())
    }
}

impl fmt::Display for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f64(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_patterns() {
        assert_eq!(Bf16::from_f64(0.0).to_bits(), 0x0000);
        assert_eq!(Bf16::from_f64(1.0).to_bits(), 0x3F80);
        assert_eq!(Bf16::from_f64(-2.0).to_bits(), 0xC000);
        assert_eq!(Bf16::from_f64(f64::INFINITY).to_bits(), 0x7F80);
        assert!(Bf16::from_f64(f64::NAN).is_nan());
    }

    #[test]
    fn round_trip_all_patterns() {
        for bits in 0u16..=0xFFFF {
            let b = Bf16::from_bits(bits);
            if b.is_nan() {
                assert!(Bf16::from_f32(b.to_f32()).is_nan());
                continue;
            }
            assert_eq!(
                Bf16::from_f32(b.to_f32()).to_bits(),
                bits,
                "bits {bits:#06x}"
            );
        }
    }

    #[test]
    fn rne_rounding() {
        // 1 + 2^-8 is halfway between 1.0 (even) and 1+2^-7: ties to even.
        assert_eq!(Bf16::from_f64(1.0 + 2f64.powi(-8)).to_bits(), 0x3F80);
        assert_eq!(Bf16::from_f64(1.0 + 3.0 * 2f64.powi(-8)).to_bits(), 0x3F82);
    }

    #[test]
    fn wide_range_no_overflow_at_f16_max() {
        // The key property vs binary16: 1e6 is representable.
        let big = Bf16::from_f64(1.0e6);
        assert!(big.is_finite());
        assert!((big.to_f64() - 1.0e6).abs() / 1.0e6 < 2f64.powi(-7));
    }

    #[test]
    fn accumulation_stalls_at_2_pow_8() {
        let mut acc = Bf16::ZERO;
        for _ in 0..1024 {
            acc += Bf16::ONE;
        }
        assert_eq!(acc.to_f64(), 256.0);
    }

    #[test]
    fn overflow_carry_to_infinity() {
        // Largest finite f32 rounds to bf16 infinity via the carry chain.
        assert_eq!(Bf16::from_f32(f32::MAX).to_bits(), 0x7F80);
    }
}
