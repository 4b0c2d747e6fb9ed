//! Deterministic transcendental kernels for noise synthesis.
//!
//! The ziggurat normal sampler in [`crate::noise`] needs `ln` (its tail)
//! and `exp` (its wedges and its layer tables). The platform's determinism
//! contract — identical bits from scalar sources, fleet lanes, and any host
//! — rules out `f64::ln`/`f64::exp`: libm results differ across platforms.
//! This module provides polynomial implementations built **only** from
//! IEEE-exact operations (`+`, `−`, `×`, `/`, comparisons, integer
//! conversions and bit manipulation), each of which produces the same bits
//! on every host, with or without SIMD or FMA hardware.
//!
//! Two rules keep the results host-independent:
//!
//! 1. **No `mul_add`.** Rust never contracts `a*b + c` into an FMA, so
//!    writing polynomials with plain multiplies and adds guarantees the
//!    same rounding everywhere. Calling `mul_add` explicitly would change
//!    results between FMA and non-FMA code paths.
//! 2. **No `floor`/`round`.** Without SSE4.1 those lower to libm calls;
//!    range reduction rounds with a truncating `as` conversion instead.
//!
//! Accuracy is ~1e-15 relative over the domains the sampler uses (`ln` on
//! `(0, 1]`, `exp` on `[-7, 0]`) — far below the noise floor of any modeled
//! component, and exactly reproducible.

// The ln 2 split below is quoted at full double precision (fdlibm
// convention); rounding it to the shortest representation would obscure
// its provenance without changing the stored bits.
#![allow(clippy::excessive_precision)]

/// `ln 2` split into a high part exact in 32 bits and the residual, so
/// `e·LN2_HI` is exact for the |e| ≤ 1074 exponents seen here.
const LN2_HI: f64 = 6.931_471_803_691_238_16e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_70e-10;

/// Natural logarithm for finite positive normal inputs.
///
/// Domain: normal positive `f64` (the uniforms `(0, 1]` the ziggurat tail
/// draws always qualify; subnormals and zero are the caller's
/// responsibility). Matches `f64::ln` to ~1e-14 relative and, unlike libm,
/// is bit-identical across hosts.
#[inline(always)]
#[must_use]
pub fn ln(x: f64) -> f64 {
    // Split x = 2^e · m with m ∈ [1, 2), then renormalize to
    // m ∈ [√2/2, √2) so the atanh argument is small and symmetric.
    let bits = x.to_bits();
    let e_raw = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let m_bits = (bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52);
    let m = f64::from_bits(m_bits);
    let big = m >= std::f64::consts::SQRT_2;
    let m = if big { 0.5 * m } else { m };
    let e = f64::from(e_raw + i32::from(big));
    // ln m = 2·atanh(t), t = (m−1)/(m+1), |t| ≤ 0.1716.
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    // Odd series 2t·(1 + t²/3 + t⁴/5 + …): |t²| ≤ 0.0295, nine terms
    // bound the truncation error below 1e-15 relative.
    let mut p = 1.0 / 19.0;
    p = p * t2 + 1.0 / 17.0;
    p = p * t2 + 1.0 / 15.0;
    p = p * t2 + 1.0 / 13.0;
    p = p * t2 + 1.0 / 11.0;
    p = p * t2 + 1.0 / 9.0;
    p = p * t2 + 1.0 / 7.0;
    p = p * t2 + 1.0 / 5.0;
    p = p * t2 + 1.0 / 3.0;
    let ln_m = 2.0 * t + 2.0 * t * t2 * p;
    (e * LN2_HI + ln_m) + e * LN2_LO
}

/// Exponential for `x ∈ [-708, 709]` (normal, finite results).
///
/// Range reduction `x = k·ln 2 + r`, `|r| ≤ ln 2 / 2`, with `k` rounded
/// half away from zero by a truncating conversion, then a degree-13
/// Taylor polynomial for `e^r` (truncation error below 5e-18) and an
/// exact scaling by `2^k` through the exponent bits. Matches `f64::exp` to
/// ~1e-15 relative and is bit-identical across hosts.
#[inline(always)]
#[must_use]
pub fn exp(x: f64) -> f64 {
    let half = if x < 0.0 { -0.5 } else { 0.5 };
    let k = (x * std::f64::consts::LOG2_E + half) as i64;
    let kf = k as f64;
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    // e^r = Σ r^n / n!, n = 0..=13, in Horner form.
    let mut p = 1.0 / FACTORIAL[13];
    for n in (1..13).rev() {
        p = p * r + 1.0 / FACTORIAL[n];
    }
    let er = 1.0 + r * p;
    er * f64::from_bits(((k + 1023) as u64) << 52)
}

/// `n!` for `n = 0..=13`, exact in `f64`.
const FACTORIAL: [f64; 14] = [
    1.0,
    1.0,
    2.0,
    6.0,
    24.0,
    120.0,
    720.0,
    5_040.0,
    40_320.0,
    362_880.0,
    3_628_800.0,
    39_916_800.0,
    479_001_600.0,
    6_227_020_800.0,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_matches_libm_closely() {
        let mut worst = 0.0f64;
        for k in 1..20_000u64 {
            let x = k as f64 / 20_000.0;
            let rel = (ln(x) - x.ln()).abs() / x.ln().abs().max(1e-300);
            worst = worst.max(rel);
        }
        // Tiny magnitudes too (the ziggurat tail).
        for e in 1..=53 {
            let x = (2.0f64).powi(-e);
            let rel = (ln(x) - x.ln()).abs() / x.ln().abs();
            worst = worst.max(rel);
        }
        assert!(worst < 1e-13, "ln relative error {worst}");
    }

    #[test]
    fn ln_exact_at_one_and_powers_of_two() {
        assert_eq!(ln(1.0), 0.0);
        for e in [-40, -10, -1, 1, 10, 40] {
            let x = (2.0f64).powi(e);
            let rel = (ln(x) - x.ln()).abs() / x.ln().abs();
            assert!(rel < 1e-14, "2^{e}: {rel}");
        }
    }

    #[test]
    fn exp_matches_libm_closely() {
        let mut worst = 0.0f64;
        // The sampler's domain, densely.
        for k in 0..=40_000u64 {
            let x = -7.0 * k as f64 / 40_000.0;
            worst = worst.max((exp(x) - x.exp()).abs() / x.exp());
        }
        // The whole documented domain, coarsely.
        for k in -708..=709 {
            let x = f64::from(k) + 0.37;
            if x <= 709.0 {
                worst = worst.max((exp(x) - x.exp()).abs() / x.exp());
            }
        }
        assert!(worst < 1e-14, "exp relative error {worst}");
    }

    #[test]
    fn exp_exact_at_zero_and_inverts_ln() {
        assert_eq!(exp(0.0), 1.0);
        for k in [-20i32, -3, -1, 1, 5, 30] {
            let x = f64::from(k) * std::f64::consts::LN_2;
            let want = (2.0f64).powi(k);
            assert!((exp(x) - want).abs() / want < 1e-15, "2^{k}");
        }
        for k in 1..1000u64 {
            let x = k as f64 / 1000.0;
            assert!((exp(ln(x)) - x).abs() / x < 1e-14, "exp(ln({x}))");
        }
    }
}
