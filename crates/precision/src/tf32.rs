//! TF32 ("TensorFloat-32"): NVIDIA Ampere's tensor-core input format with the
//! 8-bit exponent of binary32 and a 10-bit explicit significand. Named by the
//! paper (§VII) as a future extension.
//!
//! On hardware, TF32 values occupy a 32-bit register whose low 13 mantissa
//! bits are ignored by the tensor cores. We model that directly: a [`Tf32`]
//! stores an `f32` that is always quantized to a 10-bit significand
//! (round-to-nearest-even on the discarded 13 bits — the crate's shared
//! rounding core at `E8M10`, pinned to `Flex::<8, 10>::from_f32` by test),
//! and every arithmetic result is re-quantized.
//!
//! * **Arithmetic** (`+ − × ÷`, `sqrt`) runs in `f32` and is quantized
//!   once, as a GPU computing in binary32 registers would. binary32 carries
//!   `24 = 2·11 + 2` significand bits, so results are correctly rounded
//!   wherever they are binary32 normals. A product or quotient inside
//!   binary32's subnormal range (below 2⁻¹²⁶) is rounded twice at fixed
//!   quanta and can miss by one TF32 subnormal ulp; that is the register
//!   model's behaviour, kept on purpose.
//! * **`f64` inputs** ([`Tf32::from_f64`]) are rounded to binary32 *to odd*
//!   first, then quantized, which is exact: `1 + 2⁻¹¹ + 2⁻³⁰` rounds up to
//!   `1 + 2⁻¹⁰`, where a plain `f64 → f32` cast would leave a false tie.
//! * **[`Tf32::mul_add`]** stays in `f64` with one final rounding; a
//!   binary32 FMA could lose a tiny addend into a false tie.

use crate::flex::f64_to_f32_odd;
use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A TensorFloat-32 number (f32 range, 11-bit significand precision).
#[derive(Clone, Copy, Default)]
#[repr(transparent)]
pub struct Tf32(f32);

/// Quantize an `f32` to a 10-bit explicit significand, RNE.
#[inline]
fn quantize(x: f32) -> f32 {
    if !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    // Round-to-nearest-even on the low 13 bits; carry may ripple into the
    // exponent, which correctly rounds up to the next binade or to infinity
    // (never past it, so a finite input never becomes NaN).
    f32::from_bits(bits.wrapping_add(0x0FFF + ((bits >> 13) & 1)) & !0x1FFF)
}

impl Tf32 {
    /// Positive zero.
    pub const ZERO: Tf32 = Tf32(0.0);
    /// One.
    pub const ONE: Tf32 = Tf32(1.0);
    /// Positive infinity.
    pub const INFINITY: Tf32 = Tf32(f32::INFINITY);
    /// Negative infinity.
    pub const NEG_INFINITY: Tf32 = Tf32(f32::NEG_INFINITY);
    /// A quiet NaN.
    pub const NAN: Tf32 = Tf32(f32::NAN);

    /// Round an `f64` to the nearest TF32 value: to odd at binary32, then
    /// quantize (module docs).
    #[inline]
    pub fn from_f64(x: f64) -> Tf32 {
        Tf32(quantize(f64_to_f32_odd(x)))
    }

    /// Round an `f32` to the nearest TF32 value.
    #[inline]
    pub fn from_f32(x: f32) -> Tf32 {
        Tf32(quantize(x))
    }

    /// The quantized `f32` payload (exact).
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.0
    }

    /// Widen to `f64` exactly.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64
    }

    /// `true` for NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.0.is_nan()
    }

    /// `true` for finite values.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Tf32 {
        Tf32(self.0.abs())
    }

    /// Square root in `f32`, re-quantized.
    #[inline]
    pub fn sqrt(self) -> Tf32 {
        Tf32(quantize(self.0.sqrt()))
    }

    /// Fused multiply-add with a single final quantization, computed in
    /// `f64` (module docs).
    #[inline]
    pub fn mul_add(self, a: Tf32, b: Tf32) -> Tf32 {
        Tf32::from_f64(self.to_f64().mul_add(a.to_f64(), b.to_f64()))
    }

    /// IEEE `minNum` minimum.
    #[inline]
    pub fn min(self, other: Tf32) -> Tf32 {
        Tf32(self.0.min(other.0))
    }

    /// IEEE `maxNum` maximum.
    #[inline]
    pub fn max(self, other: Tf32) -> Tf32 {
        Tf32(self.0.max(other.0))
    }

    /// Total order for sorting: −∞ < finite < +∞ < NaN.
    #[inline]
    pub fn total_cmp(&self, other: &Tf32) -> Ordering {
        match (self.is_nan(), other.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => self.0.total_cmp(&other.0),
        }
    }

    /// The monotone integer key behind [`Tf32::total_cmp`]: the standard
    /// sign-magnitude flip of the f32 payload bits, with all NaNs (any
    /// sign/payload) collapsed to `i32::MAX` — equal keys exactly where
    /// `total_cmp` returns `Equal`.
    #[inline]
    pub fn total_key(self) -> i32 {
        if self.is_nan() {
            return i32::MAX;
        }
        let bits = self.0.to_bits() as i32;
        bits ^ (((bits >> 31) as u32) >> 1) as i32
    }
}

macro_rules! tf32_binop {
    ($trait:ident, $method:ident, $op:tt, $assign_trait:ident, $assign_method:ident) => {
        impl $trait for Tf32 {
            type Output = Tf32;
            #[inline]
            fn $method(self, rhs: Tf32) -> Tf32 {
                Tf32(quantize(self.0 $op rhs.0))
            }
        }
        impl $assign_trait for Tf32 {
            #[inline]
            fn $assign_method(&mut self, rhs: Tf32) {
                *self = *self $op rhs;
            }
        }
    };
}

tf32_binop!(Add, add, +, AddAssign, add_assign);
tf32_binop!(Sub, sub, -, SubAssign, sub_assign);
tf32_binop!(Mul, mul, *, MulAssign, mul_assign);
tf32_binop!(Div, div, /, DivAssign, div_assign);

impl Neg for Tf32 {
    type Output = Tf32;
    #[inline]
    fn neg(self) -> Tf32 {
        Tf32(-self.0)
    }
}

impl PartialEq for Tf32 {
    #[inline]
    fn eq(&self, other: &Tf32) -> bool {
        self.0 == other.0
    }
}

impl PartialOrd for Tf32 {
    #[inline]
    fn partial_cmp(&self, other: &Tf32) -> Option<Ordering> {
        self.0.partial_cmp(&other.0)
    }
}

impl fmt::Debug for Tf32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}tf32", self.0)
    }
}

impl fmt::Display for Tf32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_keeps_10_bits() {
        let x = Tf32::from_f64(1.0 + 2f64.powi(-10));
        assert_eq!(x.to_f64(), 1.0 + 2f64.powi(-10));
        // Halfway between 1.0 and 1+2^-10: ties to even -> 1.0.
        let y = Tf32::from_f64(1.0 + 2f64.powi(-11));
        assert_eq!(y.to_f64(), 1.0);
        // Below a quarter ulp rounds down.
        let z = Tf32::from_f64(1.0 + 2f64.powi(-13));
        assert_eq!(z.to_f64(), 1.0);
    }

    #[test]
    fn range_is_f32_like() {
        let big = Tf32::from_f64(1.0e30);
        assert!(big.is_finite());
        assert!((big.to_f64() - 1.0e30).abs() / 1.0e30 < 2f64.powi(-10));
        assert!(!Tf32::from_f64(1.0e40).is_finite());
    }

    #[test]
    fn arithmetic_requantizes() {
        let a = Tf32::from_f64(1.0);
        let b = Tf32::from_f64(2f64.powi(-12));
        assert_eq!((a + b).to_f64(), 1.0, "sub-ulp addend must vanish");
        let mut acc = Tf32::ZERO;
        for _ in 0..4096 {
            acc += Tf32::ONE;
        }
        assert_eq!(acc.to_f64(), 2048.0, "accumulation stalls at 2^11");
    }

    #[test]
    fn non_finite_passthrough() {
        assert!(Tf32::NAN.is_nan());
        assert!((Tf32::INFINITY + Tf32::ONE).to_f64().is_infinite());
        assert!((Tf32::INFINITY - Tf32::INFINITY).is_nan());
    }

    #[test]
    fn total_cmp_sorts_nan_last() {
        let mut v = [Tf32::NAN, Tf32::ONE, Tf32::NEG_INFINITY];
        v.sort_by(Tf32::total_cmp);
        assert!(v[0].to_f64().is_infinite() && v[0].to_f64() < 0.0);
        assert_eq!(v[1].to_f64(), 1.0);
        assert!(v[2].is_nan());
    }
}
