//! # mdmp-precision
//!
//! Reduced-precision arithmetic substrate for the multi-dimensional matrix
//! profile reproduction of *Exploiting Reduced Precision for GPU-based Time
//! Series Mining* (IPDPS 2022).
//!
//! The paper evaluates five precision modes (FP64, FP32, FP16, Mixed, FP16C)
//! on NVIDIA GPUs, using CUDA `__half` intrinsics for half precision. This
//! crate provides the software equivalent, built from scratch:
//!
//! * [`Half`] — IEEE 754 binary16 with correctly rounded (round-to-nearest-
//!   even) conversions and per-operation rounding identical in unit roundoff
//!   to CUDA half intrinsics;
//! * [`Bf16`] and [`Tf32`] — the two formats the paper names as future work;
//! * the [`Real`] trait — the generic scalar abstraction every kernel in
//!   `mdmp-core` is written against;
//! * [`KahanSum`] — compensated summation used by the paper's FP16C mode in
//!   the precalculation step;
//! * [`PrecisionMode`] — the run-time mode selector (storage format of the
//!   main loop + precalculation format + compensation flag), whose
//!   [`PrecisionMode::dispatch`] runs a [`ModeVisitor`] with the mode's
//!   scalar types;
//! * [`analysis`] — the `e ∝ n·ε` dot-product error-bound model (§V-B of the
//!   paper, after Yang et al.) used to reason about tile sizes.
//!
//! Extensions beyond the paper: [`Flex`] — FlexFloat-style parametric
//! floats with the [`Fp8E4M3`]/[`Fp8E5M2`] aliases — and [`stochastic`] —
//! stochastic rounding with unbiased accumulation.
//!
//! ## Example
//!
//! ```
//! use mdmp_precision::{Half, Real};
//!
//! let a = Half::from_f64(1.0 / 3.0);
//! // binary16 has an 11-bit significand: unit roundoff 2^-11.
//! assert!((a.to_f64() - 1.0 / 3.0).abs() <= (1.0 / 3.0) * 2f64.powi(-11));
//! let b = a + a;
//! assert!((b.to_f64() - 2.0 / 3.0).abs() <= (2.0 / 3.0) * 2f64.powi(-10));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod analysis;
mod bf16;
mod f16;
mod flex;
mod kahan;
mod mode;
mod real;
#[cfg(test)]
mod reference;
pub mod stochastic;
mod tf32;

pub use bf16::Bf16;
pub use f16::Half;
pub use flex::{Flex, Fp8E4M3, Fp8E5M2};
pub use kahan::{kahan_dot, kahan_sum, plain_dot, KahanSum};
pub use mode::{Format, ModeVisitor, PrecisionMode};
pub use real::{convert_slice, widen_slice, Real};
pub use stochastic::{round_stochastic, SrRng, StochasticSum};
pub use tf32::Tf32;
