//! IEEE 754 binary16 (`Half`) implemented from scratch.
//!
//! Layout: 1 sign bit, 5 exponent bits (bias 15), 10 explicit significand
//! bits (11 with the implicit leading one). Finite range ±65504, smallest
//! positive normal 2⁻¹⁴, smallest positive subnormal 2⁻²⁴.
//!
//! Rounding and widening are the crate's shared `f32` core at `E5M10`
//! ([`crate::Flex`] documents it): [`Half::from_f32`] rounds a binary32
//! with integer bit tricks, and [`Half::to_f32`] builds the binary32 bit
//! pattern directly.
//!
//! * **Arithmetic** (`+ − × ÷`, `sqrt`, `recip`) runs in `f32` and is
//!   rounded once, round-to-nearest-even. binary32 has `24 = 2·11 + 2`
//!   significand bits, exactly Figueroa's bound for innocuous double
//!   rounding, so every result is the correctly rounded binary16 of the
//!   exact one — the contract CUDA's `__hadd`/`__hmul`/`__hdiv`/`hsqrt`
//!   intrinsics provide. Exhaustive tests compare every operand pair with
//!   a slow `f64` reference.
//! * **`f64` inputs** ([`Half::from_f64`]) are rounded to binary32 *to odd*
//!   first, then by the core; that is exact for an 11-bit target.
//! * **[`Half::mul_add`]** stays in `f64`: a binary32 FMA rounds
//!   `a·b + c` once to 24 bits, where a tiny `c` can vanish and leave a
//!   false tie for the final rounding. `f64` holds every finite binary16
//!   FMA result closely enough that the final rounding is innocuous.

use crate::flex::f64_to_f32_odd;
use crate::Flex;
use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An IEEE 754 binary16 ("half precision") floating point number.
///
/// The in-memory representation is the 16 raw bits, so `&[Half]` models the
/// 2-byte-per-element storage footprint that gives the paper's FP16 modes
/// their bandwidth advantage.
#[derive(Clone, Copy, Default)]
#[repr(transparent)]
pub struct Half(u16);

/// The rounding core's geometry for binary16.
type Core = Flex<5, 10>;

const EXP_MASK: u16 = 0x7C00;
const FRAC_MASK: u16 = 0x03FF;

impl Half {
    /// Positive zero.
    pub const ZERO: Half = Half(0x0000);
    /// One.
    pub const ONE: Half = Half(0x3C00);
    /// Negative one.
    pub const NEG_ONE: Half = Half(0xBC00);
    /// Positive infinity.
    pub const INFINITY: Half = Half(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: Half = Half(0xFC00);
    /// A quiet NaN.
    pub const NAN: Half = Half(0x7E00);
    /// Largest finite value, 65504.
    pub const MAX: Half = Half(0x7BFF);
    /// Most negative finite value, −65504.
    pub const MIN: Half = Half(0xFBFF);
    /// Smallest positive normal value, 2⁻¹⁴.
    pub const MIN_POSITIVE: Half = Half(0x0400);
    /// Smallest positive subnormal value, 2⁻²⁴.
    pub const MIN_POSITIVE_SUBNORMAL: Half = Half(0x0001);
    /// Machine epsilon: distance from 1.0 to the next larger value, 2⁻¹⁰.
    pub const EPSILON: Half = Half(0x1400);

    /// Construct from raw binary16 bits.
    #[inline]
    pub const fn from_bits(bits: u16) -> Half {
        Half(bits)
    }

    /// The raw binary16 bits.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Round an `f64` to the nearest binary16 (ties to even): to odd at
    /// binary32, then the shared core.
    #[inline]
    pub fn from_f64(x: f64) -> Half {
        Half::from_f32(f64_to_f32_odd(x))
    }

    /// Round an `f32` to the nearest binary16 (ties to even).
    #[inline]
    pub fn from_f32(x: f32) -> Half {
        Half(Core::from_f32(x).to_bits() as u16)
    }

    /// Widen to `f64` (exact).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// Widen to `f32` (exact — every binary16 value fits in `f32`). NaN
    /// keeps its sign and payload and is quiet.
    #[inline]
    pub fn to_f32(self) -> f32 {
        Core::from_bits(self.0 as u32).to_f32()
    }

    /// `true` for NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & FRAC_MASK) != 0
    }

    /// `true` for ±∞.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// `true` for anything that is neither NaN nor ±∞.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }

    /// `true` for subnormal values (nonzero, exponent field zero).
    #[inline]
    pub fn is_subnormal(self) -> bool {
        (self.0 & EXP_MASK) == 0 && (self.0 & FRAC_MASK) != 0
    }

    /// `true` for +0 or −0.
    #[inline]
    pub fn is_zero(self) -> bool {
        (self.0 & 0x7FFF) == 0
    }

    /// `true` when the sign bit is set (including −0 and NaNs with sign).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        (self.0 & 0x8000) != 0
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    pub fn abs(self) -> Half {
        Half(self.0 & 0x7FFF)
    }

    /// Square root, correctly rounded (in `f32`, module docs).
    #[inline]
    pub fn sqrt(self) -> Half {
        Half::from_f32(self.to_f32().sqrt())
    }

    /// Reciprocal `1/x`, correctly rounded.
    #[inline]
    pub fn recip(self) -> Half {
        Half::from_f32(1.0 / self.to_f32())
    }

    /// Fused multiply-add `self * a + b` with a single final rounding —
    /// the behaviour of the GPU `HFMA` instruction. Computed in `f64`
    /// (module docs).
    #[inline]
    pub fn mul_add(self, a: Half, b: Half) -> Half {
        Half::from_f64(self.to_f64().mul_add(a.to_f64(), b.to_f64()))
    }

    /// IEEE `minNum`-style minimum: returns the other operand if one is NaN.
    #[inline]
    pub fn min(self, other: Half) -> Half {
        if self.is_nan() {
            return other;
        }
        if other.is_nan() {
            return self;
        }
        if self.to_f32() <= other.to_f32() {
            self
        } else {
            other
        }
    }

    /// IEEE `maxNum`-style maximum: returns the other operand if one is NaN.
    #[inline]
    pub fn max(self, other: Half) -> Half {
        if self.is_nan() {
            return other;
        }
        if other.is_nan() {
            return self;
        }
        if self.to_f32() >= other.to_f32() {
            self
        } else {
            other
        }
    }

    /// Total order for sorting: −∞ < finite < +∞ < NaN, with −0 < +0.
    ///
    /// This is the comparator the simulated Bitonic sort network uses, so
    /// that NaNs produced by half-precision overflow behave deterministically
    /// (they sink to the end of the ascending order, exactly like sorting
    /// with a `+∞` sentinel on a GPU).
    #[inline]
    pub fn total_cmp(&self, other: &Half) -> Ordering {
        self.total_key().cmp(&other.total_key())
    }

    /// The monotone integer key behind [`Half::total_cmp`]: all NaNs map to
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

macro_rules! half_binop {
    ($trait:ident, $method:ident, $op:tt, $assign_trait:ident, $assign_method:ident) => {
        impl $trait for Half {
            type Output = Half;
            #[inline]
            fn $method(self, rhs: Half) -> Half {
                Half::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
        impl $assign_trait for Half {
            #[inline]
            fn $assign_method(&mut self, rhs: Half) {
                *self = *self $op rhs;
            }
        }
    };
}

half_binop!(Add, add, +, AddAssign, add_assign);
half_binop!(Sub, sub, -, SubAssign, sub_assign);
half_binop!(Mul, mul, *, MulAssign, mul_assign);
half_binop!(Div, div, /, DivAssign, div_assign);

impl Neg for Half {
    type Output = Half;
    #[inline]
    fn neg(self) -> Half {
        Half(self.0 ^ 0x8000)
    }
}

impl PartialEq for Half {
    #[inline]
    fn eq(&self, other: &Half) -> bool {
        if self.is_nan() || other.is_nan() {
            return false;
        }
        if self.is_zero() && other.is_zero() {
            return true;
        }
        self.0 == other.0
    }
}

impl PartialOrd for Half {
    #[inline]
    fn partial_cmp(&self, other: &Half) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}f16", self.to_f64())
    }
}

impl fmt::Display for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f64(), f)
    }
}

impl From<f64> for Half {
    fn from(x: f64) -> Half {
        Half::from_f64(x)
    }
}

impl From<f32> for Half {
    fn from(x: f32) -> Half {
        Half::from_f32(x)
    }
}

impl From<Half> for f64 {
    fn from(h: Half) -> f64 {
        h.to_f64()
    }
}

impl From<Half> for f32 {
    fn from(h: Half) -> f32 {
        h.to_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_bit_patterns() {
        assert_eq!(Half::from_f64(0.0).to_bits(), 0x0000);
        assert_eq!(Half::from_f64(-0.0).to_bits(), 0x8000);
        assert_eq!(Half::from_f64(1.0).to_bits(), 0x3C00);
        assert_eq!(Half::from_f64(-1.0).to_bits(), 0xBC00);
        assert_eq!(Half::from_f64(2.0).to_bits(), 0x4000);
        assert_eq!(Half::from_f64(0.5).to_bits(), 0x3800);
        assert_eq!(Half::from_f64(65504.0).to_bits(), 0x7BFF);
        assert_eq!(Half::from_f64(f64::INFINITY).to_bits(), 0x7C00);
        assert_eq!(Half::from_f64(f64::NEG_INFINITY).to_bits(), 0xFC00);
        // 1/3 rounds to 0x3555 (0.333251953125)
        assert_eq!(Half::from_f64(1.0 / 3.0).to_bits(), 0x3555);
        // smallest subnormal
        assert_eq!(Half::from_f64(2f64.powi(-24)).to_bits(), 0x0001);
        // smallest normal
        assert_eq!(Half::from_f64(2f64.powi(-14)).to_bits(), 0x0400);
    }

    #[test]
    fn round_trip_all_finite_bit_patterns() {
        for bits in 0u16..=0xFFFF {
            let h = Half::from_bits(bits);
            if h.is_nan() {
                assert!(Half::from_f64(h.to_f64()).is_nan());
                continue;
            }
            let rt = Half::from_f64(h.to_f64());
            assert_eq!(rt.to_bits(), bits, "bits {bits:#06x} failed round trip");
        }
    }

    #[test]
    fn overflow_rounds_to_infinity_at_65520() {
        // 65504 is MAX; the overflow threshold is the midpoint 65520.
        assert_eq!(Half::from_f64(65519.999).to_bits(), 0x7BFF);
        assert_eq!(Half::from_f64(65520.0).to_bits(), 0x7C00); // tie rounds away (to even = inf)
        assert_eq!(Half::from_f64(65536.0).to_bits(), 0x7C00);
        assert_eq!(Half::from_f64(-65520.0).to_bits(), 0xFC00);
    }

    #[test]
    fn underflow_to_zero_and_subnormals() {
        let tiny = 2f64.powi(-25);
        assert_eq!(Half::from_f64(tiny).to_bits(), 0x0000); // exact tie to even (0)
        assert_eq!(Half::from_f64(tiny * 1.0001).to_bits(), 0x0001);
        assert_eq!(Half::from_f64(2f64.powi(-26)).to_bits(), 0x0000);
        assert_eq!(Half::from_f64(-2f64.powi(-24)).to_bits(), 0x8001);
        assert_eq!(Half::from_f64(2f64.powi(-300)).to_bits(), 0x0000);
        // f64 subnormal
        assert_eq!(Half::from_f64(f64::MIN_POSITIVE / 4.0).to_bits(), 0x0000);
    }

    #[test]
    fn round_to_nearest_even_ties() {
        // 1 + 2^-11 is exactly halfway between 1.0 (even) and 1+2^-10: ties to even -> 1.0
        assert_eq!(Half::from_f64(1.0 + 2f64.powi(-11)).to_bits(), 0x3C00);
        // 1 + 3*2^-11 is halfway between 1+2^-10 (odd) and 1+2^-9 (even): -> 1+2^-9
        assert_eq!(Half::from_f64(1.0 + 3.0 * 2f64.powi(-11)).to_bits(), 0x3C02);
        // just above the tie rounds up
        assert_eq!(
            Half::from_f64(1.0 + 2f64.powi(-11) + 2f64.powi(-30)).to_bits(),
            0x3C01
        );
    }

    #[test]
    fn rounding_carry_into_exponent() {
        // Largest value below 2.0 that rounds up to 2.0: 2 - 2^-11 = midpoint.
        assert_eq!(Half::from_f64(2.0 - 2f64.powi(-11)).to_bits(), 0x4000);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Half::from_f64(1.5);
        let b = Half::from_f64(2.25);
        assert_eq!((a + b).to_f64(), 3.75);
        assert_eq!((b - a).to_f64(), 0.75);
        assert_eq!((a * b).to_f64(), 3.375);
        assert_eq!((b / a).to_f64(), 1.5);
        assert_eq!((-a).to_f64(), -1.5);
        assert_eq!(a.mul_add(b, Half::ONE).to_f64(), 4.375);
    }

    #[test]
    fn arithmetic_rounds_each_operation() {
        // 1024 + 1 in binary16: 1 is below half ulp(1024)=1... ulp at 1024 is 1.0,
        // so 1025 is representable; 1024 + 0.4 rounds back to 1024.
        let big = Half::from_f64(1024.0);
        let small = Half::from_f64(0.4);
        assert_eq!((big + small).to_f64(), 1024.0);
        // Swamping: summing 2048 copies of 1.0 in f16 stalls at 2048
        let mut acc = Half::ZERO;
        for _ in 0..4096 {
            acc += Half::ONE;
        }
        assert_eq!(acc.to_f64(), 2048.0, "accumulation stalls at 2^11");
    }

    #[test]
    fn overflow_in_arithmetic() {
        let max = Half::MAX;
        assert!((max + max).is_infinite());
        assert!((max * Half::from_f64(2.0)).is_infinite());
        assert!(
            !(max + Half::ONE).is_infinite(),
            "65504+1 rounds back to 65504"
        );
    }

    #[test]
    fn nan_propagation_and_comparisons() {
        let nan = Half::NAN;
        assert!(nan.is_nan());
        assert!((nan + Half::ONE).is_nan());
        assert!(Half::from_f64(-1.0).sqrt().is_nan());
        assert!(nan != nan);
        assert!(nan.partial_cmp(&Half::ONE).is_none());
        assert_eq!(Half::ONE.min(nan).to_f64(), 1.0);
        assert_eq!(nan.max(Half::ONE).to_f64(), 1.0);
    }

    #[test]
    fn signed_zero_semantics() {
        let pz = Half::from_f64(0.0);
        let nz = Half::from_f64(-0.0);
        assert_eq!(pz, nz);
        assert_ne!(pz.to_bits(), nz.to_bits());
        assert_eq!(pz.total_cmp(&nz), Ordering::Greater);
    }

    #[test]
    fn total_cmp_ordering() {
        let mut vals = [
            Half::NAN,
            Half::INFINITY,
            Half::NEG_INFINITY,
            Half::ZERO,
            Half::ONE,
            Half::NEG_ONE,
            Half::MAX,
            Half::MIN,
        ];
        vals.sort_by(Half::total_cmp);
        let as_f64: Vec<f64> = vals.iter().map(|h| h.to_f64()).collect();
        assert_eq!(as_f64[0], f64::NEG_INFINITY);
        assert_eq!(as_f64[1], -65504.0);
        assert_eq!(as_f64[2], -1.0);
        assert_eq!(as_f64[3], 0.0);
        assert_eq!(as_f64[4], 1.0);
        assert_eq!(as_f64[5], 65504.0);
        assert_eq!(as_f64[6], f64::INFINITY);
        assert!(vals[7].is_nan());
    }

    #[test]
    fn subnormal_arithmetic() {
        let s = Half::MIN_POSITIVE_SUBNORMAL;
        assert!(s.is_subnormal());
        assert_eq!((s + s).to_bits(), 0x0002);
        assert_eq!((s / Half::from_f64(2.0)).to_bits(), 0x0000); // tie to even
        let almost_normal = Half::from_bits(0x03FF);
        assert!(almost_normal.is_subnormal());
        assert_eq!((almost_normal + s).to_bits(), 0x0400); // carries into normal
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", Half::from_f64(1.5)), "1.5");
        assert_eq!(format!("{:?}", Half::from_f64(1.5)), "1.5f16");
    }
}
