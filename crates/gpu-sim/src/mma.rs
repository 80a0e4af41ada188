//! Simulated tensor-core matrix-multiply-accumulate (MMA) unit.
//!
//! Models the numerical contract of NVIDIA tensor cores as established by
//! Khattak & Mikaitis ("Numerical behavior of NVIDIA tensor cores", Part I)
//! and used by the mixed-precision Euclidean-distance GEMM literature:
//!
//! 1. **Operand rounding.** The A/B multiply operands are rounded to the
//!    unit's input format (FP16, BF16, or TF32) with round-to-nearest-even
//!    *per operation* — the surrounding kernel keeps its data in FP32.
//! 2. **Exact products.** Products of two rounded operands are exact in
//!    FP32: every supported input format has ≤ 11 significand bits, so a
//!    product needs ≤ 22 bits — under binary32's 24.
//! 3. **Chunked FP32 accumulation.** The hardware dot-product unit sums a
//!    fixed-width chunk of products into an FP32 accumulator in a fixed
//!    order, then adds the chunk sum to the running FP32 accumulator. The
//!    chunk width is a hardware constant (4 on Volta, 8/16 on Ampere
//!    depending on the instruction shape); we expose it as
//!    [`MmaConfig::chunk_k`] so its effect on rounding is testable.
//!
//! The simulation is *functional*: it produces the exact bit pattern such a
//! unit would produce for a given chunk width and operand order, which is
//! what the reproducibility and accuracy experiments need. Throughput is
//! modelled separately by [`crate::device::TcThroughput`] and the timing
//! model's fragment-traffic term (operands are staged through shared-memory
//! fragments before they reach the unit, as in WMMA/WGMMA).

use mdmp_precision::{Bf16, Format, Half, Real, Tf32};

/// Chunk widths the simulated unit supports (hardware dot-product sizes).
pub const MMA_CHUNK_SIZES: [usize; 3] = [4, 8, 16];

/// Configuration of one simulated MMA issue: input format + accumulator
/// chunk width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmaConfig {
    /// Format the A/B operands are rounded to before multiplying.
    pub input: Format,
    /// Products summed per FP32 accumulator chunk (4, 8, or 16).
    pub chunk_k: usize,
}

impl MmaConfig {
    /// Config with the format's default hardware chunk width.
    ///
    /// # Panics
    /// Panics if `input` is not a tensor-core input format.
    pub fn new(input: Format) -> MmaConfig {
        MmaConfig {
            input,
            chunk_k: default_chunk_k(input),
        }
    }

    /// Override the chunk width.
    ///
    /// # Panics
    /// Panics if `chunk_k` is not one of [`MMA_CHUNK_SIZES`].
    pub fn with_chunk_k(mut self, chunk_k: usize) -> MmaConfig {
        assert!(
            MMA_CHUNK_SIZES.contains(&chunk_k),
            "MMA chunk width must be one of {MMA_CHUNK_SIZES:?}, got {chunk_k}"
        );
        self.chunk_k = chunk_k;
        self
    }
}

/// The default hardware accumulator chunk width for an input format:
/// FP16/BF16 MMA shapes accumulate 8 products per chunk on Ampere, TF32
/// shapes 4 (half the k extent, same instruction).
///
/// # Panics
/// Panics if `input` is not a tensor-core input format.
pub fn default_chunk_k(input: Format) -> usize {
    match input {
        Format::Fp16 | Format::Bf16 => 8,
        Format::Tf32 => 4,
        other => panic!("{other} is not a tensor-core input format"),
    }
}

/// Round a value (carried in f64) to the MMA input format, returned as
/// the binary32 the unit multiplies.
///
/// Every supported input format embeds exactly in binary32, so the result
/// loses nothing beyond the format's own rounding.
///
/// # Panics
/// Panics if `fmt` is not a tensor-core input format.
#[inline]
pub fn round_operand(x: f64, fmt: Format) -> f32 {
    match fmt {
        Format::Fp16 => Half::from_f64(x).to_f32(),
        Format::Bf16 => Bf16::from_f64(x).to_f32(),
        Format::Tf32 => Tf32::from_f64(x).to_f32(),
        other => panic!("{other} is not a tensor-core input format"),
    }
}

/// Round every value of `src` to the MMA input format into `dst` — the
/// once-per-panel operand staging that lets [`mma_dot_rounded`] skip the
/// per-product rounding of [`mma_dot`].
///
/// # Panics
/// Panics if the slices differ in length or `fmt` is not a tensor-core
/// input format.
pub fn round_operands<T: Real>(src: &[T], fmt: Format, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "operand staging slices must match");
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = round_operand(x.to_f64(), fmt);
    }
}

/// One simulated MMA dot product: `base + Σ round(a[i]) · round(b[i])`,
/// with FP32 chunked accumulation.
///
/// `base` and the result are FP32 values carried exactly in f64 (the
/// accumulator register). Chunk boundaries fall at multiples of
/// `cfg.chunk_k` from the start of `a`, so the association order — and
/// therefore the exact result bits — is a deterministic function of
/// `(operands, input format, chunk_k)` alone.
///
/// This is the per-product oracle: it rounds both operands of every
/// product. Kernels that reuse operands stage them once with
/// [`round_operands`] and call [`mma_dot_rounded`], which gives the same
/// bits because rounding is a pure function.
///
/// # Panics
/// Panics if `a` and `b` differ in length.
#[inline]
pub fn mma_dot(base: f64, a: &[f64], b: &[f64], cfg: &MmaConfig) -> f64 {
    assert_eq!(a.len(), b.len(), "MMA operand vectors must match");
    let mut acc = base as f32;
    for (ca, cb) in a.chunks(cfg.chunk_k).zip(b.chunks(cfg.chunk_k)) {
        let mut chunk = 0.0f32;
        for (&x, &y) in ca.iter().zip(cb.iter()) {
            // Product of two ≤11-bit significands is exact in binary32.
            chunk += round_operand(x, cfg.input) * round_operand(y, cfg.input);
        }
        acc += chunk;
    }
    acc as f64
}

/// [`mma_dot`] on operands already rounded to `cfg.input` (see
/// [`round_operands`]): the same chunked FP32 accumulation without the
/// per-product rounding. Operands that are not values of the input format
/// are multiplied as they are.
///
/// # Panics
/// Panics if `a` and `b` differ in length.
#[inline]
pub fn mma_dot_rounded(base: f64, a: &[f32], b: &[f32], cfg: &MmaConfig) -> f64 {
    assert_eq!(a.len(), b.len(), "MMA operand vectors must match");
    let mut acc = base as f32;
    for (ca, cb) in a.chunks(cfg.chunk_k).zip(b.chunks(cfg.chunk_k)) {
        let mut chunk = 0.0f32;
        for (&x, &y) in ca.iter().zip(cb.iter()) {
            chunk += x * y;
        }
        acc += chunk;
    }
    acc as f64
}

/// `N` independent [`mma_dot_rounded`] panel dots, one per lane — the lane
/// form of one blocked-GEMM output row segment (columns `j .. j + N`).
///
/// The `s = rf.len()` panel steps share the reference-side operands
/// `rf[u]` = `df_r[i − u]` and `rg[u]` = `dg_r[i − u]`; the query side is a
/// sliding window `qf`/`qg` over columns `j − s + 1 .. j + N`. Lane `l`,
/// step `u` multiplies `rf[u]·qg[w]`, then `qf[w]·rg[u]`, with
/// `w = l + s − 1 − u` (column `j + l − u`): exactly the product order of
/// [`mma_dot_rounded`] on the per-column operand vectors
/// `a = [rf[0], qf[·], rf[1], …]`, `b = [qg[·], rg[0], qg[·], …]`. Each lane
/// starts from `base[l]`; every `cfg.chunk_k` products are summed into a
/// chunk that starts from `0.0f32` and then joins the lane's accumulator.
/// Lanes never interact, so each lane's bits equal the scalar dot's (a NaN
/// result is a NaN in both; Rust leaves its sign and payload unspecified).
///
/// The conversions between the kernel's storage type `T` and the FP32
/// accumulator happen here, as in the scalar path's `base.to_f64()` /
/// `T::from_f64` round trip.
///
/// # Panics
/// Panics if `base` has fewer than `N` values, `rf` and `rg` differ in
/// length, or a query window is shorter than `N + s − 1`.
#[inline]
pub fn mma_dot_rounded_lanes<T: Real, const N: usize>(
    base: &[T],
    rf: &[f32],
    rg: &[f32],
    qf: &[f32],
    qg: &[f32],
    cfg: &MmaConfig,
) -> [T; N] {
    let steps = rf.len();
    assert_eq!(rg.len(), steps, "MMA reference panels must match");
    let mut acc = [0.0f32; N];
    for (a, b) in acc.iter_mut().zip(&base[..N]) {
        *a = b.to_f64() as f32;
    }
    let mut chunk = [0.0f32; N];
    let mut filled = 0;
    let mut flush = |chunk: &mut [f32; N], filled: &mut usize| {
        for (a, c) in acc.iter_mut().zip(chunk.iter_mut()) {
            *a += *c;
            *c = 0.0;
        }
        *filled = 0;
    };
    for u in 0..steps {
        let w = steps - 1 - u;
        let (qf_u, qg_u) = (&qf[w..w + N], &qg[w..w + N]);
        for (c, &y) in chunk.iter_mut().zip(qg_u) {
            *c += rf[u] * y;
        }
        filled += 1;
        if filled == cfg.chunk_k {
            flush(&mut chunk, &mut filled);
        }
        for (c, &x) in chunk.iter_mut().zip(qf_u) {
            *c += x * rg[u];
        }
        filled += 1;
        if filled == cfg.chunk_k {
            flush(&mut chunk, &mut filled);
        }
    }
    if filled > 0 {
        flush(&mut chunk, &mut filled);
    }
    acc.map(|a| T::from_f64(a as f64))
}

/// Analytic forward-error bound for [`mma_dot`] against the exact real
/// dot product: operand rounding contributes `≤ (2ε_in + ε_in²)·Σ|a·b|`,
/// and the FP32 chunked summation of `n` products contributes at most
/// `(n + ⌈n/k⌉)·ε₃₂ / (1 − n·ε₃₂)` relative to the magnitude sum (standard
/// recursive-summation bound over the two-level tree; `ε₃₂ = 2⁻²⁴` unit
/// roundoff). The caller supplies `mag = Σ|a[i]·b[i]| + |base|`.
pub fn mma_error_bound(n: usize, mag: f64, cfg: &MmaConfig) -> f64 {
    let eps_in = cfg.input.epsilon() / 2.0; // Format::epsilon is 2u, we need u
    let eps32 = 2f64.powi(-24);
    let adds = (n + n.div_ceil(cfg.chunk_k) + 1) as f64;
    let input_term = (2.0 * eps_in + eps_in * eps_in) * mag;
    let sum_term = adds * eps32 / (1.0 - adds * eps32) * mag;
    input_term + sum_term
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panel(seed: u64, n: usize) -> (Vec<f64>, Vec<f64>) {
        // Small deterministic LCG so the test needs no external RNG.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let a: Vec<f64> = (0..n).map(|_| next()).collect();
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        (a, b)
    }

    #[test]
    fn exact_on_representable_operands() {
        // Powers of two are exact in every input format; products and sums
        // stay exact in FP32, so the MMA result must equal the f64 dot.
        let a = [1.0, 0.5, 2.0, 0.25, 4.0, 0.125, 8.0, 1.0];
        let b = [2.0, 2.0, 0.5, 4.0, 0.25, 8.0, 0.125, 1.0];
        let exact: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
        for fmt in [Format::Fp16, Format::Bf16, Format::Tf32] {
            let got = mma_dot(0.0, &a, &b, &MmaConfig::new(fmt));
            assert_eq!(got, exact, "{fmt} MMA drifted on exact inputs");
        }
    }

    #[test]
    fn within_analytic_bound() {
        for seed in 0..32u64 {
            let n = 4 + (seed as usize % 29);
            let (a, b) = panel(seed, n);
            let exact: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
            let mag: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x * y).abs()).sum();
            for fmt in [Format::Fp16, Format::Bf16, Format::Tf32] {
                for k in MMA_CHUNK_SIZES {
                    let cfg = MmaConfig::new(fmt).with_chunk_k(k);
                    let got = mma_dot(0.0, &a, &b, &cfg);
                    let bound = mma_error_bound(n, mag, &cfg);
                    assert!(
                        (got - exact).abs() <= bound,
                        "{fmt} k={k} n={n}: |{got} - {exact}| > {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunk_width_changes_bits_deterministically() {
        let (a, b) = panel(7, 48);
        let cfg8 = MmaConfig::new(Format::Fp16);
        let cfg4 = cfg8.with_chunk_k(4);
        let r8a = mma_dot(1.0, &a, &b, &cfg8);
        let r8b = mma_dot(1.0, &a, &b, &cfg8);
        let r4 = mma_dot(1.0, &a, &b, &cfg4);
        // Same config → identical bits; different chunking → a different
        // association order that is allowed (and here does) change them.
        assert_eq!(r8a.to_bits(), r8b.to_bits());
        assert_ne!(r8a.to_bits(), r4.to_bits());
    }

    #[test]
    fn pre_rounded_dot_equals_the_per_product_oracle() {
        for seed in 0..24u64 {
            let n = 1 + (seed as usize % 32);
            let (a, b) = panel(seed, n);
            for fmt in [Format::Fp16, Format::Bf16, Format::Tf32] {
                let (mut ra, mut rb) = (vec![0.0f32; n], vec![0.0f32; n]);
                round_operands(&a, fmt, &mut ra);
                round_operands(&b, fmt, &mut rb);
                for k in MMA_CHUNK_SIZES {
                    let cfg = MmaConfig::new(fmt).with_chunk_k(k);
                    let base = a[0] * 3.0;
                    let oracle = mma_dot(base, &a, &b, &cfg);
                    let staged = mma_dot_rounded(base, &ra, &rb, &cfg);
                    assert_eq!(oracle.to_bits(), staged.to_bits(), "{fmt} k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn lane_dots_equal_the_scalar_dot_per_lane() {
        const N: usize = 8;
        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        for seed in 0..40u64 {
            let steps = seed as usize % 17;
            // Query window over columns j − steps + 1 .. j + N, reference
            // panel of `steps` values, one base per lane.
            let (mut qf, mut qg) = panel(seed, N + steps);
            let (mut rf, mut rg) = panel(seed + 100, steps.max(1));
            let (mut base, _) = panel(seed + 200, N);
            // Every fourth seed plants ±0, ±∞ and NaN among the operands
            // and bases.
            if seed % 4 == 3 {
                let at = |i: usize, len: usize| (seed as usize + i) % len;
                let r_len = rf.len();
                for (i, &s) in specials.iter().enumerate() {
                    [&mut qf, &mut qg][i % 2][at(3 * i, N + steps)] = s;
                    rf[at(i, r_len)] = specials[(i + 1) % 5];
                    rg[at(2 * i, r_len)] = s;
                    base[at(i, N)] = s;
                }
            }
            let (rf, rg) = (&rf[..steps], &rg[..steps]);
            let base: Vec<f32> = base.iter().map(|&b| b as f32).collect();
            for fmt in [Format::Fp16, Format::Bf16, Format::Tf32] {
                let stage = |src: &[f64]| {
                    let mut dst = vec![0.0f32; src.len()];
                    round_operands(src, fmt, &mut dst);
                    dst
                };
                let (sqf, sqg, srf, srg) = (stage(&qf), stage(&qg), stage(rf), stage(rg));
                for k in MMA_CHUNK_SIZES {
                    let cfg = MmaConfig::new(fmt).with_chunk_k(k);
                    let lanes =
                        mma_dot_rounded_lanes::<f32, N>(&base, &srf, &srg, &sqf, &sqg, &cfg);
                    for (l, got) in lanes.iter().enumerate() {
                        // Lane l, step u: df_r[i−u]·dg_q[w], df_q[w]·dg_r[i−u].
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        let (mut ra, mut rb) = (Vec::new(), Vec::new());
                        for u in 0..steps {
                            let w = l + steps - 1 - u;
                            a.extend([rf[u], qf[w]]);
                            b.extend([qg[w], rg[u]]);
                            ra.extend([srf[u], sqf[w]]);
                            rb.extend([sqg[w], srg[u]]);
                        }
                        let base_l = base[l] as f64;
                        let staged = mma_dot_rounded(base_l, &ra, &rb, &cfg) as f32;
                        let oracle = mma_dot(base_l, &a, &b, &cfg) as f32;
                        let what = format!("{fmt} k={k} steps={steps} lane={l} seed={seed}");
                        // Rust leaves the sign and payload of a NaN result
                        // unspecified (an add of two NaNs may be commuted),
                        // so a NaN matches any NaN; everything else, ±0
                        // included, matches bit for bit.
                        let same = |x: f32, y: f32| {
                            (x.is_nan() && y.is_nan()) || x.to_bits() == y.to_bits()
                        };
                        assert!(same(*got, staged), "{what}: {got} vs staged {staged}");
                        assert!(same(*got, oracle), "{what}: {got} vs oracle {oracle}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk width")]
    fn rejects_bad_chunk() {
        let _ = MmaConfig::new(Format::Fp16).with_chunk_k(5);
    }

    #[test]
    fn default_chunks_match_hardware_shapes() {
        assert_eq!(default_chunk_k(Format::Fp16), 8);
        assert_eq!(default_chunk_k(Format::Bf16), 8);
        assert_eq!(default_chunk_k(Format::Tf32), 4);
    }
}
