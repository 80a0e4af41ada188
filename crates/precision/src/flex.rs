//! Parametric ("FlexFloat-style") reduced-precision floats, and the
//! binary32 rounding core behind the crate's software formats.
//!
//! The paper's related work (§II) cites Fernandez's matrix-profile study
//! with FlexFloat [18], a software library for transprecision computing
//! with arbitrary exponent/mantissa widths. [`Flex<E, M>`] provides the
//! same capability natively: an IEEE-754-style binary float with `E`
//! exponent bits and `M` explicit mantissa bits (plus sign), with
//! round-to-nearest-even conversions, subnormals, infinities and NaN.
//!
//! Two aliases wire the contemporary 8-bit formats into the precision-mode
//! system as extension studies beyond the paper's BF16/TF32 outlook:
//! [`Fp8E4M3`] and [`Fp8E5M2`] (IEEE-style variants: unlike the OCP FP8
//! spec, E4M3 here keeps its all-ones exponent reserved for Inf/NaN).
//!
//! ## The rounding core
//!
//! [`Flex::from_f32`] rounds a binary32 to the format with integer bit
//! tricks: rebias the exponent and round-to-nearest-even on the dropped
//! significand bits (the carry ripples into the exponent and saturates at
//! infinity); below the format's normal range one binary32 addition of a
//! constant whose ulp is the subnormal quantum lets the FPU do the
//! rounding. [`crate::Half::from_f32`] is this core at `E5M10`.
//! Widening ([`Flex::to_f32`]) builds the binary32 bit pattern directly.
//!
//! * **From `f64`.** [`Flex::from_f64`] first rounds the `f64` to binary32
//!   *to odd* (truncate, then set the last bit if anything was dropped)
//!   and then calls the core. Rounding to odd at `p + 2 ≤ 24` bits followed
//!   by round-to-nearest-even at `p` bits equals direct rounding, so the
//!   result is correctly rounded for every geometry with `M ≤ 21`;
//!   `Flex<8, 23>` is binary32 itself and uses the hardware conversion.
//! * **Arithmetic.** For `M ≤ 10` and `E ≤ 7`, `+ − × ÷ sqrt` run in `f32`
//!   and are rounded once by the core. Figueroa's innocuous-double-rounding
//!   bound (`p′ ≥ 2p + 2`, tight at binary16 in binary32) makes the result
//!   equal to the correctly rounded one, and with `E ≤ 7` every value near a
//!   rounding boundary of the format is a binary32 *normal*. With `E = 8`
//!   a product can land in the binary32 subnormal range, where binary32
//!   keeps too few bits (a test pins a `Flex<8, 10>` counterexample), so
//!   those geometries, and every geometry with `M > 10`, keep the `f64`
//!   path: compute in `f64`, round with `from_f64`.
//! * **`mul_add`** always runs in `f64`. An `f32` FMA would round `a·b + c`
//!   once to 24 bits, and a tiny `c` can vanish into a tie of the second
//!   rounding; `f64` keeps every finite result of these formats exact
//!   enough for one innocuous final rounding.
//!
//! ```
//! use mdmp_precision::{Flex, Half, Real};
//!
//! // Flex<5, 10> is bit-compatible with binary16.
//! let x = 1.0 / 3.0;
//! assert_eq!(Flex::<5, 10>::from_f64(x).to_f64(), Half::from_f64(x).to_f64());
//! ```

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An IEEE-754-style float with `E` exponent bits and `M` explicit mantissa
/// bits, stored in the low `1 + E + M` bits of a `u32`.
///
/// Constraints (asserted at construction): `1 ≤ E ≤ 8` and `1 ≤ M ≤ 21`,
/// or `Flex<8, 23>` (binary32 itself), so every value widens exactly to
/// `f32` and `f64` inputs round correctly through binary32 (see the module
/// docs).
#[derive(Clone, Copy, Default)]
#[repr(transparent)]
pub struct Flex<const E: u32, const M: u32>(u32);

/// IEEE-style FP8 with 4 exponent and 3 mantissa bits.
pub type Fp8E4M3 = Flex<4, 3>;
/// IEEE-style FP8 with 5 exponent and 2 mantissa bits.
pub type Fp8E5M2 = Flex<5, 2>;

/// Round an `f64` to binary32 *to odd*: truncate toward zero, then set the
/// last significand bit when the conversion was inexact. Followed by a
/// round-to-nearest-even at `p ≤ 22` bits this equals direct rounding of
/// the `f64`, because no value rounded to odd at `p + 2` bits sits on a
/// midpoint of the `p`-bit format unless the input did. Overflow keeps the
/// largest finite binary32 (odd), which every narrower format rounds to
/// infinity; NaN stays NaN.
#[inline]
pub(crate) fn f64_to_f32_odd(x: f64) -> f32 {
    const MIN_NORMAL: u64 = 0x3810_0000_0000_0000; // 2^-126
    const OVERFLOW: u64 = 0x47F0_0000_0000_0000; // 2^128
    let bits = x.to_bits();
    let abs = bits & !(1 << 63);
    if abs.wrapping_sub(MIN_NORMAL) < OVERFLOW - MIN_NORMAL {
        // binary32 normal range: rebias, truncate, fold the dropped bits
        // into the last one.
        let sign = (bits >> 32) as u32 & 0x8000_0000;
        let truncated = ((abs - ((1023 - 127) << 52)) >> 29) as u32;
        let sticky = (abs & 0x1FFF_FFFF != 0) as u32;
        return f32::from_bits(sign | truncated | sticky);
    }
    // Zero, binary32 subnormals, overflow, ±∞ and NaN.
    let nearest = x as f32;
    let wide = nearest as f64;
    let inexact = wide != x && !x.is_nan();
    let overshot = wide.abs() > x.abs();
    f32::from_bits((nearest.to_bits() - overshot as u32) | inexact as u32)
}

impl<const E: u32, const M: u32> Flex<E, M> {
    const _VALID: () = assert!(E >= 1 && E <= 8 && M >= 1 && (M <= 21 || (E == 8 && M == 23)));

    /// Exponent bias `2^(E−1) − 1`.
    pub const BIAS: i32 = (1 << (E - 1)) - 1;
    /// Largest unbiased exponent of a normal value.
    pub const EMAX: i32 = Self::BIAS;
    /// Smallest unbiased exponent of a normal value, `1 − bias`.
    pub const EMIN: i32 = 1 - Self::BIAS;
    /// Total storage bits.
    pub const BITS: u32 = 1 + E + M;

    const SIGN_MASK: u32 = 1 << (E + M);
    const EXP_MASK: u32 = ((1 << E) - 1) << M;
    const FRAC_MASK: u32 = (1 << M) - 1;

    /// Significand bits binary32 has beyond this format's.
    const DROP: u32 = 23 - M;
    /// Round-to-nearest-even addend below the kept bits (half an ulp − 1).
    const ROUND_HALF: u32 = if M == 23 { 0 } else { (1 << (22 - M)) - 1 };
    /// Mask of the kept significand's last bit, shifted down (the tie-break).
    const ROUND_LSB: u32 = if M == 23 { 0 } else { 1 };
    /// Exponent-field offset between binary32 and this format, in place.
    const REBIAS: u32 = ((127 - Self::BIAS) as u32) << 23;
    /// binary32 bits of this format's smallest normal, `2^EMIN`.
    const MIN_NORMAL_F32: u32 = ((Self::EMIN + 127) as u32) << 23;
    /// binary32 bits of `2^(EMIN + 23 − M)`, whose ulp is the subnormal
    /// quantum `2^(EMIN − M)`.
    const SUBNORMAL_MAGIC: u32 = ((Self::EMIN + 150 - M as i32) as u32) << 23;
    /// binary32 bits of the subnormal quantum `2^(EMIN − M)` (`E < 8` only,
    /// where it is a binary32 normal).
    const SUBNORMAL_QUANTUM: u32 = if E == 8 {
        0
    } else {
        ((Self::EMIN + 127 - M as i32) as u32) << 23
    };
    /// Whether `+ − × ÷ sqrt` may run in `f32` with one final rounding
    /// (module docs): `2p + 2 ≤ 24` and no boundary in binary32's
    /// subnormal range.
    const F32_ARITH: bool = M <= 10 && E <= 7;

    /// Positive zero.
    pub const ZERO: Self = Flex(0);
    /// Positive infinity.
    pub const INFINITY: Self = Flex(Self::EXP_MASK);
    /// Negative infinity.
    pub const NEG_INFINITY: Self = Flex(Self::SIGN_MASK | Self::EXP_MASK);
    /// A quiet NaN.
    pub const NAN: Self = Flex(Self::EXP_MASK | (1 << (M - 1)));

    /// Construct from raw bits (low `1+E+M` bits used).
    #[inline]
    pub const fn from_bits(bits: u32) -> Self {
        Flex(bits & (Self::SIGN_MASK | Self::EXP_MASK | Self::FRAC_MASK))
    }

    /// The raw bits.
    #[inline]
    pub const fn to_bits(self) -> u32 {
        self.0
    }

    /// Round an `f32` to this format, round-to-nearest-even: the shared
    /// rounding core (module docs). NaN becomes the quiet NaN with the
    /// input's sign; overflow saturates to a signed infinity.
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        // Force the geometry check (associated consts are lazy).
        #[allow(clippy::let_unit_value)]
        let _ = Self::_VALID;
        let bits = x.to_bits();
        let sign = (bits >> 31) << (E + M);
        let abs = bits & 0x7FFF_FFFF;
        if abs > 0x7F80_0000 {
            return Flex(sign | Self::NAN.0);
        }
        let mag = if abs >= Self::MIN_NORMAL_F32 {
            let v = abs - Self::REBIAS;
            let r = (v + Self::ROUND_HALF + ((v >> Self::DROP) & Self::ROUND_LSB)) >> Self::DROP;
            r.min(Self::EXP_MASK)
        } else {
            // The sum stays in the magic constant's binade, so its low bits
            // count subnormal quanta, rounded by the FPU (a carry out of
            // the subnormal range lands on the smallest normal encoding).
            let magic = f32::from_bits(Self::SUBNORMAL_MAGIC);
            (f32::from_bits(abs) + magic).to_bits() - Self::SUBNORMAL_MAGIC
        };
        Flex(sign | mag)
    }

    /// Round an `f64` to this format, round-to-nearest-even: to odd at
    /// binary32 first, then the core (exact, see the module docs).
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        if M == 23 {
            Self::from_f32(x as f32)
        } else {
            Self::from_f32(f64_to_f32_odd(x))
        }
    }

    /// Widen to `f32` exactly. NaN keeps its sign and payload and is quiet.
    #[inline]
    pub fn to_f32(self) -> f32 {
        let sign = (self.0 & Self::SIGN_MASK) << (31 - E - M);
        let exp = self.0 & Self::EXP_MASK;
        let frac = self.0 & Self::FRAC_MASK;
        let mag = if E == 8 {
            // binary32's own exponent field: widening is a shift.
            (exp | frac) << Self::DROP
        } else if exp == Self::EXP_MASK {
            let quiet = if frac != 0 { 0x0040_0000 } else { 0 };
            0x7F80_0000 | quiet | (frac << Self::DROP)
        } else if exp == 0 {
            (frac as f32 * f32::from_bits(Self::SUBNORMAL_QUANTUM)).to_bits()
        } else {
            ((exp | frac) << Self::DROP) + Self::REBIAS
        };
        f32::from_bits(sign | mag)
    }

    /// Widen to `f64` exactly.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// `true` for NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & Self::EXP_MASK) == Self::EXP_MASK && (self.0 & Self::FRAC_MASK) != 0
    }

    /// `true` for finite values.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & Self::EXP_MASK) != Self::EXP_MASK
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        Flex(self.0 & !Self::SIGN_MASK)
    }

    /// Square root, correctly rounded (in `f32` where the module docs
    /// allow it, else in `f64`).
    #[inline]
    pub fn sqrt(self) -> Self {
        if Self::F32_ARITH {
            Self::from_f32(self.to_f32().sqrt())
        } else {
            Self::from_f64(self.to_f64().sqrt())
        }
    }

    /// Fused multiply-add with one final rounding, computed in `f64`
    /// (module docs).
    #[inline]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        Self::from_f64(self.to_f64().mul_add(a.to_f64(), b.to_f64()))
    }

    /// IEEE `minNum`-style minimum.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        if self.is_nan() {
            other
        } else if other.is_nan() || self.to_f32() <= other.to_f32() {
            self
        } else {
            other
        }
    }

    /// IEEE `maxNum`-style maximum.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        if self.is_nan() {
            other
        } else if other.is_nan() || self.to_f32() >= other.to_f32() {
            self
        } else {
            other
        }
    }

    /// Total order for sorting: −∞ < finite < +∞ < NaN, −0 < +0.
    #[inline]
    pub fn total_cmp(&self, other: &Self) -> Ordering {
        self.total_key().cmp(&other.total_key())
    }

    /// The monotone integer key behind [`Flex::total_cmp`]: all NaNs map to
    /// `i64::MAX`, negatives below every non-negative (−0 maps to −1 < +0).
    #[inline]
    pub fn total_key(self) -> i64 {
        if self.is_nan() {
            return i64::MAX;
        }
        let bits = self.0 as i64;
        let sign = 1i64 << (E + M);
        if bits & sign != 0 {
            -(bits & (sign - 1)) - 1
        } else {
            bits
        }
    }
}

macro_rules! flex_binop {
    ($trait:ident, $method:ident, $op:tt, $assign_trait:ident, $assign_method:ident) => {
        impl<const E: u32, const M: u32> $trait for Flex<E, M> {
            type Output = Flex<E, M>;
            #[inline]
            fn $method(self, rhs: Flex<E, M>) -> Flex<E, M> {
                if Self::F32_ARITH {
                    Flex::from_f32(self.to_f32() $op rhs.to_f32())
                } else {
                    Flex::from_f64(self.to_f64() $op rhs.to_f64())
                }
            }
        }
        impl<const E: u32, const M: u32> $assign_trait for Flex<E, M> {
            #[inline]
            fn $assign_method(&mut self, rhs: Flex<E, M>) {
                *self = *self $op rhs;
            }
        }
    };
}

flex_binop!(Add, add, +, AddAssign, add_assign);
flex_binop!(Sub, sub, -, SubAssign, sub_assign);
flex_binop!(Mul, mul, *, MulAssign, mul_assign);
flex_binop!(Div, div, /, DivAssign, div_assign);

impl<const E: u32, const M: u32> Neg for Flex<E, M> {
    type Output = Flex<E, M>;
    #[inline]
    fn neg(self) -> Flex<E, M> {
        Flex(self.0 ^ Self::SIGN_MASK)
    }
}

impl<const E: u32, const M: u32> PartialEq for Flex<E, M> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        if self.is_nan() || other.is_nan() {
            return false;
        }
        self.to_f32() == other.to_f32()
    }
}

impl<const E: u32, const M: u32> PartialOrd for Flex<E, M> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl<const E: u32, const M: u32> fmt::Debug for Flex<E, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}flex<{E},{M}>", self.to_f64())
    }
}

impl<const E: u32, const M: u32> fmt::Display for Flex<E, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f64(), f)
    }
}

impl<const E: u32, const M: u32> crate::Real for Flex<E, M> {
    const NAME: &'static str = match (E, M) {
        (4, 3) => "FP8-E4M3",
        (5, 2) => "FP8-E5M2",
        _ => "FLEX",
    };
    const BYTES: usize = if 1 + E + M <= 8 {
        1
    } else if 1 + E + M <= 16 {
        2
    } else {
        4
    };
    const EPSILON: f64 = 1.0 / (1u64 << M) as f64;
    const MAX_FINITE: f64 =
        (2.0 - 1.0 / (1u64 << M) as f64) * (1u128 << ((1 << (E - 1)) - 1)) as f64;

    #[inline]
    fn from_f64(x: f64) -> Self {
        Flex::from_f64(x)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        Flex::to_f64(self)
    }
    #[inline]
    fn infinity() -> Self {
        Self::INFINITY
    }
    #[inline]
    fn neg_infinity() -> Self {
        Self::NEG_INFINITY
    }
    #[inline]
    fn sqrt(self) -> Self {
        Flex::sqrt(self)
    }
    #[inline]
    fn abs(self) -> Self {
        Flex::abs(self)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        Flex::mul_add(self, a, b)
    }
    #[inline]
    fn is_nan(self) -> bool {
        Flex::is_nan(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        Flex::is_finite(self)
    }
    #[inline]
    fn min(self, other: Self) -> Self {
        Flex::min(self, other)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        Flex::max(self, other)
    }
    #[inline]
    fn total_order(self, other: Self) -> Ordering {
        self.total_cmp(&other)
    }
    type SortKey = i64;
    #[inline(always)]
    fn sort_key(self) -> i64 {
        self.total_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Half, Real};

    /// Flex<5,10> must agree with the dedicated binary16 implementation on
    /// every one of the 65536 bit patterns' widened values, and on rounding
    /// a dense sample of f64 inputs.
    #[test]
    fn flex_5_10_matches_half_exactly() {
        for bits in 0u16..=0xFFFF {
            let h = Half::from_bits(bits);
            let fx = Flex::<5, 10>::from_bits(bits as u32);
            if h.is_nan() {
                assert!(fx.is_nan(), "bits {bits:#06x}");
            } else {
                assert_eq!(h.to_f64(), fx.to_f64(), "bits {bits:#06x}");
            }
        }
        let mut x = -70000.0f64;
        while x < 70000.0 {
            let h = Half::from_f64(x);
            let fx = Flex::<5, 10>::from_f64(x);
            assert_eq!(h.to_bits() as u32, fx.to_bits(), "x = {x}");
            x += 13.37;
        }
        // Subnormal range too.
        let mut x = -1e-4f64;
        while x < 1e-4 {
            assert_eq!(
                Half::from_f64(x).to_bits() as u32,
                Flex::<5, 10>::from_f64(x).to_bits(),
                "x = {x}"
            );
            x += 3.1e-7;
        }
    }

    #[test]
    fn fp8_e4m3_constants() {
        assert_eq!(Fp8E4M3::BIAS, 7);
        assert_eq!(Fp8E4M3::EMAX, 7);
        // Max finite (IEEE-style): (2 - 2^-3) * 2^7 = 240.
        assert_eq!(<Fp8E4M3 as Real>::MAX_FINITE, 240.0);
        assert_eq!(<Fp8E4M3 as Real>::EPSILON, 0.125);
        assert_eq!(<Fp8E4M3 as Real>::BYTES, 1);
        assert_eq!(Fp8E4M3::from_f64(240.0).to_f64(), 240.0);
        assert!(!Fp8E4M3::from_f64(260.0).is_finite());
    }

    #[test]
    fn fp8_e5m2_range_vs_precision_tradeoff() {
        // E5M2 trades mantissa for range: max (2-2^-2)*2^15 = 57344.
        assert_eq!(<Fp8E5M2 as Real>::MAX_FINITE, 57344.0);
        assert!(Fp8E5M2::from_f64(30000.0).is_finite());
        assert!(!Fp8E4M3::from_f64(30000.0).is_finite());
        // E4M3 is more precise near 1.
        let x = 1.1;
        let e4 = (Fp8E4M3::from_f64(x).to_f64() - x).abs();
        let e5 = (Fp8E5M2::from_f64(x).to_f64() - x).abs();
        assert!(e4 <= e5);
    }

    #[test]
    fn fp8_round_trips() {
        for bits in 0u32..=0xFF {
            let v = Fp8E4M3::from_bits(bits);
            if v.is_nan() {
                assert!(Fp8E4M3::from_f64(v.to_f64()).is_nan());
            } else {
                assert_eq!(Fp8E4M3::from_f64(v.to_f64()).to_bits(), bits, "{bits:#04x}");
            }
        }
    }

    #[test]
    fn fp8_arithmetic_and_swamping() {
        let one = Fp8E4M3::from_f64(1.0);
        let mut acc = Fp8E4M3::ZERO;
        for _ in 0..64 {
            acc += one;
        }
        // 8-bit accumulator stalls at 2^(M+1) = 16.
        assert_eq!(acc.to_f64(), 16.0);
    }

    #[test]
    fn real_trait_contract_for_fp8() {
        let two = Fp8E4M3::from_f64(2.0);
        assert_eq!((two * two).to_f64(), 4.0);
        assert_eq!(Fp8E4M3::from_f64(4.0).sqrt().to_f64(), 2.0);
        assert_eq!(two.mul_add(two, Fp8E4M3::from_f64(1.0)).to_f64(), 5.0);
        assert!(Fp8E4M3::from_f64(f64::NAN).is_nan());
        use core::cmp::Ordering;
        assert_eq!(
            Fp8E4M3::NAN.total_cmp(&Fp8E4M3::INFINITY),
            Ordering::Greater
        );
        assert_eq!(
            Fp8E4M3::from_f64(-0.0).total_cmp(&Fp8E4M3::ZERO),
            Ordering::Less
        );
    }

    #[test]
    fn odd_geometry_flex_formats() {
        // A 6-bit float: E=3, M=2 — bias 3, max (2-0.25)*2^3 = 14.
        type Tiny = Flex<3, 2>;
        assert_eq!(<Tiny as Real>::MAX_FINITE, 14.0);
        assert_eq!(Tiny::from_f64(14.0).to_f64(), 14.0);
        assert!(!Tiny::from_f64(16.0).is_finite());
        // Subnormal quantum 2^(EMIN-M) = 2^(-2-2) = 1/16.
        assert_eq!(Tiny::from_f64(1.0 / 16.0).to_f64(), 1.0 / 16.0);
        // 0.025 is below half the quantum: flushes to zero; 0.04 rounds up.
        assert_eq!(Tiny::from_f64(0.025).to_f64(), 0.0);
        assert_eq!(Tiny::from_f64(0.04).to_f64(), 0.0625);
    }
}
