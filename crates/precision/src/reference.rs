//! Slow reference implementations of the software formats and the
//! bit-identity gates that pin the `f32` rounding core to them. Test-only.
//!
//! The references are the straightforward `f64` definitions: round an
//! `f64` with integer arithmetic on its 53-bit significand, widen with
//! `powi`, and run every operation in `f64` with one final rounding. They
//! are correct by construction (each `f64` intermediate is exact or an
//! innocuous rounding for formats of ≤ 24 bits) and too slow for the
//! kernels.
//!
//! The default run checks every binary16 value, every FP8 operand pair,
//! every bit pattern of five geometries and a seeded 10⁷-sample `f64`
//! sweep. The exhaustive binary32-input and binary16-pair sweeps are
//! `#[ignore]`d; run them with
//! `cargo test --release -p mdmp-precision -- --ignored`.

use crate::{Bf16, Flex, Half, Tf32};

/// Round an `f64` to the `E`/`M` geometry, round-to-nearest-even, on the
/// integer significand. NaN → `sign | quiet NaN`; overflow → `sign | ∞`.
pub(crate) fn round_f64<const E: u32, const M: u32>(x: f64) -> u32 {
    let bias = (1i32 << (E - 1)) - 1;
    let (emax, emin) = (bias, 1 - bias);
    let sign_mask = 1u32 << (E + M);
    let exp_mask = ((1u32 << E) - 1) << M;
    let bits = x.to_bits();
    let sign = if bits >> 63 != 0 { sign_mask } else { 0 };
    let exp = ((bits >> 52) & 0x7FF) as i32;
    let frac = bits & 0x000F_FFFF_FFFF_FFFF;
    if exp == 0x7FF {
        return sign | exp_mask | if frac != 0 { 1 << (M - 1) } else { 0 };
    }
    if exp == 0 {
        return sign; // f64 subnormals underflow in every geometry
    }
    let e = exp - 1023;
    if e > emax {
        return sign | exp_mask;
    }
    let round = |sig: u64, shift: u32| -> u32 {
        let kept = (sig >> shift) as u32;
        let rest = sig & ((1u64 << shift) - 1);
        let half = 1u64 << (shift - 1);
        kept + u32::from(rest > half || (rest == half && kept & 1 == 1))
    };
    if e >= emin {
        let m = round(frac, 52 - M);
        // A carry out of the significand bumps the exponent; the encoding
        // arithmetic does that by itself and saturates at infinity.
        let enc = (((e + bias) as u32) << M) + m;
        return sign | enc.min(exp_mask);
    }
    let shift = 52 + (emin - M as i32) - e;
    if shift >= 64 {
        return sign;
    }
    sign | round((1u64 << 52) | frac, shift as u32)
}

/// Widen `E`/`M` bits to `f64` with `powi`; every NaN → `f64::NAN`.
pub(crate) fn widen<const E: u32, const M: u32>(bits: u32) -> f64 {
    let bias = (1i32 << (E - 1)) - 1;
    let sign = if bits & (1 << (E + M)) != 0 {
        -1.0
    } else {
        1.0
    };
    let exp = (bits >> M) & ((1 << E) - 1);
    let frac = bits & ((1 << M) - 1);
    if exp == (1 << E) - 1 {
        return if frac != 0 {
            f64::NAN
        } else {
            sign * f64::INFINITY
        };
    }
    if exp == 0 {
        return sign * frac as f64 * 2f64.powi(1 - bias - M as i32);
    }
    sign * (1.0 + frac as f64 / (1u64 << M) as f64) * 2f64.powi(exp as i32 - bias)
}

/// An `f64` binary operation, named.
type Op = (&'static str, fn(f64, f64) -> f64);

/// The four binary operations the gates sweep.
const OPS: [Op; 4] = [
    ("+", |a, b| a + b),
    ("-", |a, b| a - b),
    ("*", |a, b| a * b),
    ("/", |a, b| a / b),
];

fn is_nan_bits<const E: u32, const M: u32>(bits: u32) -> bool {
    Flex::<E, M>::from_bits(bits).is_nan()
}

/// `got` equals the reference `want`; NaNs need only agree on NaN-ness
/// (and sign when `with_sign`), since payload rules differ by format.
#[track_caller]
fn assert_same<const E: u32, const M: u32>(got: u32, want: u32, with_sign: bool, what: &str) {
    if is_nan_bits::<E, M>(want) {
        let sign = 1 << (E + M);
        assert!(
            is_nan_bits::<E, M>(got) && (!with_sign || got & sign == want & sign),
            "{what}: got {got:#x}, want NaN {want:#x}"
        );
    } else {
        assert_eq!(got, want, "{what}");
    }
}

#[test]
fn half_every_value_widens_rounds_and_roots_like_the_reference() {
    for bits in 0u16..=0xFFFF {
        let h = Half::from_bits(bits);
        let old = widen_half_reference(bits);
        assert_eq!(h.to_f64().to_bits(), old.to_bits(), "widen {bits:#06x}");
        assert_eq!(h.to_f32().to_bits(), (old as f32).to_bits(), "{bits:#06x}");
        let rt = u32::from(Half::from_f64(h.to_f64()).to_bits());
        assert_same::<5, 10>(rt, round_f64::<5, 10>(old), true, "round trip");
        let rt32 = u32::from(Half::from_f32(h.to_f32()).to_bits());
        assert_same::<5, 10>(rt32, round_f64::<5, 10>(old), true, "f32 round trip");
        if !h.is_nan() {
            assert_eq!(rt, u32::from(bits), "round trip {bits:#06x}");
        }
        let sqrt = u32::from(h.sqrt().to_bits());
        assert_eq!(sqrt, round_f64::<5, 10>(old.sqrt()), "sqrt {bits:#06x}");
        let recip = u32::from(h.recip().to_bits());
        assert_eq!(recip, round_f64::<5, 10>(1.0 / old), "recip {bits:#06x}");
    }
}

/// binary16 widening with the sign and payload of a NaN kept, as the
/// `f64` path always did (`powi` for the rest).
fn widen_half_reference(bits: u16) -> f64 {
    if Half::from_bits(bits).is_nan() {
        let sign = u64::from(bits >> 15) << 63;
        let payload = u64::from(bits & 0x03FF) << 42;
        return f64::from_bits(sign | 0x7FF8_0000_0000_0000 | payload);
    }
    widen::<5, 10>(u32::from(bits))
}

fn fp8_pairs<const E: u32, const M: u32>() {
    for a in 0u32..=0xFF {
        for b in 0u32..=0xFF {
            let (fa, fb) = (Flex::<E, M>::from_bits(a), Flex::<E, M>::from_bits(b));
            let (wa, wb) = (widen::<E, M>(a), widen::<E, M>(b));
            let got = [fa + fb, fa - fb, fa * fb, fa / fb];
            for ((name, op), g) in OPS.iter().zip(got) {
                let want = round_f64::<E, M>(op(wa, wb));
                // NaN operands widen with their sign now, so only NaN-ness
                // of a NaN result is pinned.
                assert_same::<E, M>(
                    g.to_bits(),
                    want,
                    false,
                    &format!("{a:#04x} {name} {b:#04x}"),
                );
            }
        }
    }
}

#[test]
fn fp8_every_operand_pair_matches_the_reference() {
    fp8_pairs::<4, 3>();
    fp8_pairs::<5, 2>();
}

fn widen_every_pattern<const E: u32, const M: u32>() {
    for bits in 0u32..(1 << (1 + E + M)) {
        let got = Flex::<E, M>::from_bits(bits);
        let want = widen::<E, M>(bits);
        if want.is_nan() {
            assert!(got.to_f64().is_nan(), "{bits:#x}");
        } else {
            assert_eq!(got.to_f64().to_bits(), want.to_bits(), "E{E}M{M} {bits:#x}");
            assert_eq!(got.to_f32() as f64, want, "E{E}M{M} {bits:#x}");
            assert_eq!(Flex::<E, M>::from_f32(got.to_f32()).to_bits(), bits);
        }
    }
}

#[test]
fn every_bit_pattern_widens_like_the_reference() {
    widen_every_pattern::<4, 3>();
    widen_every_pattern::<5, 2>();
    widen_every_pattern::<5, 10>();
    widen_every_pattern::<8, 7>();
    widen_every_pattern::<8, 10>();
}

/// SplitMix64: the sweep's deterministic sample source.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One sample aimed at the `E`/`M` geometry's hard cases: a rounding
/// midpoint ± a few `f64` ulps (the double-rounding trap), a value far
/// inside the subnormal range, the overflow edge, or raw `f64` bits (which
/// cover NaN payloads and signs, infinities and `f64` subnormals).
fn sample<const E: u32, const M: u32>(r: u64) -> f64 {
    let width = 1 + E + M;
    let pattern = ((r >> 8) as u32) & ((1 << width) - 1);
    let nudge = ((r >> 48) & 0xF) as i64 - 8;
    let step = |x: f64, k: i64| f64::from_bits((x.to_bits() as i64 + k) as u64);
    let v = widen::<E, M>(pattern);
    match r & 0x7 {
        0..=2 if v.is_finite() => {
            // Midpoint between this value and its upper neighbour.
            let up = widen::<E, M>(pattern + 1);
            let mid = if up.is_finite() { (v + up) / 2.0 } else { v };
            step(mid, nudge)
        }
        3 if v.is_finite() => {
            // A random offset below binary32's resolution around v.
            let frac = (r >> 20) as f64 / (1u64 << 44) as f64;
            v * (1.0 + (frac - 0.5) * 2f64.powi(-22))
        }
        4 => {
            // Deep subnormal range and below.
            let emin = 2 - (1i32 << (E - 1));
            let scale = 2f64.powi(emin - M as i32 - 3 + ((r >> 32) % 8) as i32);
            ((r >> 11) as f64 / (1u64 << 53) as f64) * scale * if r >> 63 != 0 { -1.0 } else { 1.0 }
        }
        5 => {
            // The overflow edge: largest finite, its midpoint to 2^(emax+1).
            let bias = (1i32 << (E - 1)) - 1;
            let max = (2.0 - 2f64.powi(-(M as i32))) * 2f64.powi(bias);
            let edge = max + 2f64.powi(bias - M as i32 - 1);
            step(if r & 0x8 != 0 { edge } else { max }, nudge)
        }
        _ => f64::from_bits(r),
    }
}

fn sweep<const E: u32, const M: u32>(samples: u64, seed: u64, got: impl Fn(f64) -> u32) {
    let mut state = seed;
    for _ in 0..samples {
        let x = sample::<E, M>(splitmix(&mut state));
        assert_same::<E, M>(
            got(x),
            round_f64::<E, M>(x),
            true,
            &format!("E{E}M{M} x = {x:e} ({:#018x})", x.to_bits()),
        );
    }
}

#[test]
fn from_f64_sweep_matches_the_reference() {
    // 10⁷ samples in all, over the seven geometries the crate rounds to.
    const PER: u64 = 10_000_000 / 7 + 1;
    sweep::<5, 10>(PER, 1, |x| u32::from(Half::from_f64(x).to_bits()));
    sweep::<8, 7>(PER, 2, |x| u32::from(Bf16::from_f64(x).to_bits()));
    sweep::<8, 10>(PER, 3, |x| {
        Flex::<8, 10>::from_f32(Tf32::from_f64(x).to_f32()).to_bits()
    });
    sweep::<4, 3>(PER, 4, |x| Flex::<4, 3>::from_f64(x).to_bits());
    sweep::<5, 2>(PER, 5, |x| Flex::<5, 2>::from_f64(x).to_bits());
    sweep::<8, 10>(PER, 6, |x| Flex::<8, 10>::from_f64(x).to_bits());
    sweep::<6, 21>(PER, 7, |x| Flex::<6, 21>::from_f64(x).to_bits());
}

#[test]
fn double_rounding_counterexamples_are_rounded_correctly() {
    // A plain f64 → f32 cast lands both on a false tie of the narrow
    // format and rounds to even (1.0); rounding to odd keeps the sticky bit.
    let bf = 1.0 + 2f64.powi(-8) + 2f64.powi(-30);
    assert_eq!(Bf16::from_f64(bf).to_f64(), 1.0078125);
    assert_eq!(Flex::<8, 7>::from_f64(bf).to_f64(), 1.0078125);
    let tf = 1.0 + 2f64.powi(-11) + 2f64.powi(-30);
    assert_eq!(Tf32::from_f64(tf).to_f64(), 1.0009765625);
    assert_eq!(Half::from_f64(tf).to_f64(), 1.0009765625);
}

#[test]
fn e8_products_keep_the_f64_path() {
    // 145·2⁻⁷⁵ × 113·2⁻⁷⁶ = 2⁻¹³⁷ + 2⁻¹⁵¹: just above the midpoint between
    // 0 and Flex<8, 10>'s smallest subnormal 2⁻¹³⁶. binary32 rounds the
    // product to 2⁻¹³⁷ (its subnormal quantum is 2⁻¹⁴⁹), a false tie that
    // then rounds to even, 0 — so E = 8 geometries multiply in f64.
    type F = Flex<8, 10>;
    let (a, b) = (
        F::from_f64(145.0 * 2f64.powi(-75)),
        F::from_f64(113.0 * 2f64.powi(-76)),
    );
    assert_eq!((a * b).to_f64(), 2f64.powi(-136));
    assert_eq!(F::from_f32(a.to_f32() * b.to_f32()).to_f64(), 0.0);
}

/// Run `check(lo..hi)` over `0..=u32::MAX` split across the host's cores.
fn par_u32(check: impl Fn(u64, u64) + Sync) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let total = 1u64 << 32;
    let per = total.div_ceil(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let check = &check;
            s.spawn(move || check(t * per, ((t + 1) * per).min(total)));
        }
    });
}

#[test]
#[ignore = "exhaustive: all 2^32 binary32 inputs; run with --release -- --ignored"]
fn every_f32_rounds_like_the_reference() {
    par_u32(|lo, hi| {
        for bits in lo..hi {
            let x = f32::from_bits(bits as u32);
            let w = x as f64;
            assert_same::<5, 10>(
                u32::from(Half::from_f32(x).to_bits()),
                round_f64::<5, 10>(w),
                true,
                "half",
            );
            assert_same::<4, 3>(
                Flex::<4, 3>::from_f32(x).to_bits(),
                round_f64::<4, 3>(w),
                true,
                "e4m3",
            );
            assert_same::<5, 2>(
                Flex::<5, 2>::from_f32(x).to_bits(),
                round_f64::<5, 2>(w),
                true,
                "e5m2",
            );
            if !x.is_nan() {
                // Bf16 and Tf32 keep their own f32 bit tricks; they must be
                // the shared core at E8M7 / E8M10.
                let bf = Flex::<8, 7>::from_f32(x).to_bits();
                assert_eq!(u32::from(Bf16::from_f32(x).to_bits()), bf, "bf16 {bits:#x}");
                let tf = Flex::<8, 10>::from_f32(x).to_f32();
                assert_eq!(
                    Tf32::from_f32(x).to_f32().to_bits(),
                    tf.to_bits(),
                    "tf32 {bits:#x}"
                );
            }
        }
    });
}

#[test]
#[ignore = "exhaustive: all 2^32 binary16 operand pairs; run with --release -- --ignored"]
fn every_half_pair_matches_the_reference() {
    par_u32(|lo, hi| {
        for pair in lo..hi {
            let (a, b) = ((pair >> 16) as u16, pair as u16);
            let (ha, hb) = (Half::from_bits(a), Half::from_bits(b));
            let (wa, wb) = (widen_half_reference(a), widen_half_reference(b));
            let got = [ha + hb, ha - hb, ha * hb, ha / hb];
            for ((name, op), g) in OPS.iter().zip(got) {
                let want = round_f64::<5, 10>(op(wa, wb));
                if g.to_bits() as u32 != want {
                    panic!(
                        "{a:#06x} {name} {b:#06x}: got {:#06x}, want {want:#06x}",
                        g.to_bits()
                    );
                }
            }
        }
    });
}
