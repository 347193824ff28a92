//! Owned f32 transcendentals: [`exp`], [`ln`], [`tanh`] and [`sin_cos`].
//!
//! Every noise batch, dataset pixel, activation and loss in the workspace
//! that needs one of these functions gets it from here, not from the host's
//! libm. Libm's `expf` / `logf` / `tanhf` / `sinf` are not correctly rounded
//! and have changed between releases, so results defined by them (and every
//! pinned hash downstream) held on one libc only. The bodies below define
//! the result instead.
//!
//! Each function is one branch-free body: a range reduction, a fixed
//! polynomial evaluated in f64 with `+` and `×` (plus one division in `ln`
//! and `tanh`), integer bit moves and selects, then a single rounding to f32.
//! There is no `mul_add`: Rust never contracts `a * b + c`, so the bits are
//! the same on every x86-64 level, with or without hardware FMA, and the
//! portable build calls no libm `fma` either. The f64 polynomials are good to
//! about 1e-11 relative, far below half an f32 ulp (3e-8), so each result is
//! within 1 ulp of the exact value; the exhaustive sweeps in the tests check
//! ≤ 2 ulp against f64 libm over every f32 in each function's domain:
//!
//! | function  | checked over   | notes                                       |
//! |-----------|----------------|---------------------------------------------|
//! | `exp`     | every f32      | 0 below −103.98, +inf above 88.72           |
//! | `ln`      | every f32      | `ln(±0) = −inf`, `ln(x < 0)` is NaN         |
//! | `tanh`    | every f32      | ±1 beyond ±9.01                             |
//! | `sin_cos` | `\|x\| ≤ 2¹⁴`    | beyond: deterministic, accuracy unchecked; non-finite → NaN |
//!
//! A NaN argument comes back as that same NaN (`sin_cos`: the canonical
//! `f32::NAN`, as for ±inf).
//!
//! The `*_slice` entry points run the same `#[inline(always)]` body over a
//! slice in a plain loop, which LLVM vectorizes (the f64 steps take half the
//! lanes of the vector width): the lane-wise result *is* the scalar result,
//! bit for bit, with no `unsafe` and no second copy of the code.

/// `1.5 · 2⁵²`. For `|t| < 2⁵¹`, `(t + ROUND) - ROUND` is `t` rounded to the
/// nearest integer, and the low bits of `(t + ROUND).to_bits()` hold that
/// integer in two's complement.
const ROUND: f64 = 6_755_399_441_055_744.0;
/// `2⁵²`: `from_bits(TWO52.to_bits() | n) - TWO52` is `n` for `n < 2⁵²`.
const TWO52: f64 = 4_503_599_627_370_496.0;
const LN_2: f64 = std::f64::consts::LN_2;
const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// Bits of `√½` in f64: `ln` reduces its argument to `[√½, √2)`.
const SQRT_HALF_BITS: u64 = 0x3FE6_A09E_667F_3BCD;
const MANTISSA: u64 = (1 << 52) - 1;
const FRAC_2_PI: f64 = std::f64::consts::FRAC_2_PI;
/// `π/2` split for the `sin_cos` reduction: the first 33 bits, so that
/// `k · PIO2_HI` is exact for `|k| < 2²⁰`, and the f64 nearest the rest.
const PIO2_HI: f64 = f64::from_bits(0x3FF9_21FB_5440_0000);
const PIO2_LO: f64 = f64::from_bits(0x3DD0_B461_1A62_6331);

/// `eʸ = scale · (1 + p)` with `scale = 2ᵏ`, `k = round(y / ln 2)`, and
/// `p = eʳ − 1` for `r = y − k ln 2`, `|r| ≤ ln 2 / 2`, relative to ~1e-11
/// (Taylor to `r⁹`). Needs `|y| < 700`.
#[inline(always)]
fn exp_parts(y: f64) -> (f64, f64) {
    let t = y * LOG2_E + ROUND;
    let k = t.to_bits().wrapping_sub(ROUND.to_bits());
    let scale = f64::from_bits(k.wrapping_add(1023) << 52);
    let r = y - (t - ROUND) * LN_2;
    let p = r + r
        * r
        * (1.0 / 2.0
            + r * (1.0 / 6.0
                + r * (1.0 / 24.0
                    + r * (1.0 / 120.0
                        + r * (1.0 / 720.0
                            + r * (1.0 / 5040.0 + r * (1.0 / 40320.0 + r * (1.0 / 362_880.0))))))));
    (scale, p)
}

/// `eˣ`. Below −110 the f32 result is 0 and above 100 it is +inf, so the
/// argument is clamped there first and the scale stays a normal f64.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    let y = f64::from(x);
    let y = if y < -110.0 { -110.0 } else { y };
    let y = if y > 100.0 { 100.0 } else { y };
    let (scale, p) = exp_parts(y);
    let e = (scale * (1.0 + p)) as f32;
    if x.is_nan() {
        x
    } else {
        e
    }
}

/// Natural logarithm. `x = 2ᵏ · m` with `m ∈ [√½, √2)`, taken from the f64
/// bits (an f32 subnormal is a normal f64), and
/// `ln m = 2 atanh(f)`, `f = (m − 1)/(m + 1)`, `|f| ≤ 0.172`, by its odd
/// series to `f¹³`.
#[inline(always)]
pub fn ln(x: f32) -> f32 {
    let ix = f64::from(x)
        .to_bits()
        .wrapping_add(1f64.to_bits().wrapping_sub(SQRT_HALF_BITS));
    let k = f64::from_bits(TWO52.to_bits() | (ix >> 52)) - (TWO52 + 1023.0);
    let m = f64::from_bits((ix & MANTISSA) + SQRT_HALF_BITS);
    let f = (m - 1.0) / (m + 1.0);
    let s = f * f;
    let ln_m = f
        * (2.0
            + s * (2.0 / 3.0
                + s * (2.0 / 5.0
                    + s * (2.0 / 7.0 + s * (2.0 / 9.0 + s * (2.0 / 11.0 + s * (2.0 / 13.0)))))));
    let y = (k * LN_2 + ln_m) as f32;
    // NaN and +inf come back as they are.
    let special = if x == 0.0 {
        f32::NEG_INFINITY
    } else if x < 0.0 {
        f32::NAN
    } else {
        x
    };
    if (x > 0.0) & (x < f32::INFINITY) {
        y
    } else {
        special
    }
}

/// Hyperbolic tangent: `sign(x) · u / (u + 2)` with `u = e^{2|x|} − 1`
/// formed as `scale · p + (scale − 1)`, which is `p` itself while
/// `2|x| ≤ ln 2 / 2`, so small arguments keep their relative accuracy.
/// `tanh(±20)` is already ±1 in f32; the bound keeps the scale finite.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let y = 2.0 * f64::from(x.abs());
    let y = if y > 40.0 { 40.0 } else { y };
    let (scale, p) = exp_parts(y);
    let u = scale * p + (scale - 1.0);
    let t = ((u / (u + 2.0)) as f32).copysign(x);
    if x.is_nan() {
        x
    } else {
        t
    }
}

/// `(sin x, cos x)`. `x = k·π/2 + r`, `|r| ≤ π/4`, with `k·π/2` subtracted in
/// two steps (33 exact bits of `π/2`, then the rest); Taylor to `r¹¹` (sine)
/// and `r¹²` (cosine); `k mod 4` swaps and negates. Accurate for
/// `|x| ≤ 2¹⁴` (checked exhaustively); non-finite `x` gives NaN.
#[inline(always)]
pub fn sin_cos(x: f32) -> (f32, f32) {
    let xd = f64::from(x);
    let t = xd * FRAC_2_PI + ROUND;
    let q = t.to_bits();
    let k = t - ROUND;
    let r = (xd - k * PIO2_HI) - k * PIO2_LO;
    let r2 = r * r;
    let s = r
        * (1.0
            + r2 * (-1.0 / 6.0
                + r2 * (1.0 / 120.0
                    + r2 * (-1.0 / 5040.0 + r2 * (1.0 / 362_880.0 + r2 * (-1.0 / 39_916_800.0))))));
    let c = 1.0
        + r2 * (-1.0 / 2.0
            + r2 * (1.0 / 24.0
                + r2 * (-1.0 / 720.0
                    + r2 * (1.0 / 40320.0
                        + r2 * (-1.0 / 3_628_800.0 + r2 * (1.0 / 479_001_600.0))))));
    // Quadrant k mod 4: sin = s, c, −s, −c and cos = c, −s, −c, s.
    let odd = q & 1 != 0;
    let sin = if odd { c } else { s };
    let cos = if odd { s } else { c };
    let sin = f64::from_bits(sin.to_bits() ^ ((q & 2) << 62));
    let cos = f64::from_bits(cos.to_bits() ^ ((q.wrapping_add(1) & 2) << 62));
    let finite = x.is_finite();
    (
        if finite { sin as f32 } else { f32::NAN },
        if finite { cos as f32 } else { f32::NAN },
    )
}

/// [`exp`] of every element, in place.
pub fn exp_slice(xs: &mut [f32]) {
    for x in xs {
        *x = exp(*x);
    }
}

/// [`ln`] of every element, in place.
pub fn ln_slice(xs: &mut [f32]) {
    for x in xs {
        *x = ln(*x);
    }
}

/// [`tanh`] of every element, in place.
pub fn tanh_slice(xs: &mut [f32]) {
    for x in xs {
        *x = tanh(*x);
    }
}

/// The sine half of [`sin_cos`] of every element, in place.
pub fn sin_slice(xs: &mut [f32]) {
    for x in xs {
        *x = sin_cos(*x).0;
    }
}

/// [`sin_cos`] of every element of `xs`: the sines replace `xs`, the
/// cosines go to `cos`.
///
/// # Panics
/// Panics if the lengths differ.
pub fn sin_cos_slice(xs: &mut [f32], cos: &mut [f32]) {
    assert_eq!(xs.len(), cos.len(), "sin_cos_slice length mismatch");
    for (s, c) in xs.iter_mut().zip(cos) {
        (*s, *c) = sin_cos(*s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    type Scalar = fn(f32) -> f32;
    type Slice = fn(&mut [f32]);
    type Reference = fn(f64) -> f64;

    fn sin(x: f32) -> f32 {
        sin_cos(x).0
    }

    fn cos(x: f32) -> f32 {
        sin_cos(x).1
    }

    /// `cos` through [`sin_cos_slice`], the only slice path that writes it.
    fn cos_slice(xs: &mut [f32]) {
        let mut c = vec![0.0; xs.len()];
        sin_cos_slice(xs, &mut c);
        xs.copy_from_slice(&c);
    }

    /// `sin` through [`sin_cos_slice`].
    fn sin_via_pair_slice(xs: &mut [f32]) {
        let mut c = vec![0.0; xs.len()];
        sin_cos_slice(xs, &mut c);
    }

    /// Each function with its slice entries and its f64 reference.
    fn functions() -> Vec<(&'static str, Scalar, Vec<Slice>, Reference)> {
        vec![
            ("exp", exp, vec![exp_slice], f64::exp),
            ("ln", ln, vec![ln_slice], f64::ln),
            ("tanh", tanh, vec![tanh_slice], f64::tanh),
            ("sin", sin, vec![sin_slice, sin_via_pair_slice], f64::sin),
            ("cos", cos, vec![cos_slice], f64::cos),
        ]
    }

    /// Sort key of an f32: ascending keys are ascending values, NaNs at
    /// both ends.
    fn key(x: f32) -> u32 {
        let b = x.to_bits();
        if b >> 31 == 1 {
            !b
        } else {
            b | 1 << 31
        }
    }

    fn from_key(k: u32) -> f32 {
        f32::from_bits(if k >> 31 == 1 { k & !(1 << 31) } else { !k })
    }

    /// Distance of `y` from `exact` in units of the f32 spacing at `exact`
    /// (`2⁻¹⁴⁹` below the normal range); +inf stands for `2¹²⁸`.
    fn ulps(y: f32, exact: f64) -> f64 {
        if exact.is_nan() || y.is_nan() {
            return if exact.is_nan() && y.is_nan() {
                0.0
            } else {
                f64::INFINITY
            };
        }
        if f64::from(y) == exact {
            return 0.0;
        }
        let big = 2f64.powi(128);
        let yd = f64::from(y).clamp(-big, big);
        let ex = exact.clamp(-big, big);
        let e = ((ex.abs().to_bits() >> 52) as i32 - 1023).max(-126);
        (yd - ex).abs() / 2f64.powi(e - 23)
    }

    /// Boundary and special values: zeros, subnormals, infinities, NaN, the
    /// overflow and underflow edges, and the reduction seams of every body,
    /// each with its two f32 neighbours.
    fn specials() -> Vec<f32> {
        let mut v = vec![
            0.0,
            f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            f32::MIN_POSITIVE,
            f32::EPSILON,
            1.0,
            2.0,
            0.5,
            std::f32::consts::FRAC_1_SQRT_2,
            std::f32::consts::SQRT_2,
            88.722_83,
            88.722_84,
            89.0,
            87.336_55,
            103.278_93,
            103.972_08,
            104.0,
            110.0,
            100.0,
            std::f32::consts::LN_2 / 2.0,
            std::f32::consts::LN_2 / 4.0,
            9.010_913,
            20.0,
            40.0,
            16384.0,
            1_048_576.0,
            f32::MAX,
            f32::INFINITY,
        ];
        // Multiples of π/4: the `sin_cos` quadrant seams.
        for k in 1..64 {
            v.push(k as f32 * std::f32::consts::FRAC_PI_4);
        }
        // Multiples of ln 2 / 2: the `exp` seams (and `tanh`'s at half).
        for k in 1..300 {
            v.push(k as f32 * std::f32::consts::LN_2 / 2.0);
            v.push(k as f32 * std::f32::consts::LN_2 / 4.0);
        }
        // Powers of two times √2: the `ln` seams.
        for e in -140..128 {
            v.push(std::f32::consts::SQRT_2 * 2f32.powi(e));
        }
        let mut all = Vec::new();
        for x in v {
            for y in [x, -x] {
                all.push(y);
                all.push(f32::from_bits(y.to_bits().wrapping_add(1)));
                all.push(f32::from_bits(y.to_bits().wrapping_sub(1)));
            }
        }
        all.retain(|x| !x.is_nan());
        all.extend([f32::NAN, -f32::NAN, f32::from_bits(0x7F80_0001)]);
        all
    }

    /// Every 65 537th bit pattern: 65 537 values across every exponent and
    /// sign, NaNs included.
    fn strided() -> impl Iterator<Item = f32> {
        (0..=u32::MAX / 65_537).map(|i| f32::from_bits(i * 65_537))
    }

    fn check_slices_match_scalar(xs: &[f32]) {
        for (name, f, slices, _) in functions() {
            for slice in slices {
                let mut ys = xs.to_vec();
                slice(&mut ys);
                for (&x, &y) in xs.iter().zip(&ys) {
                    let s = f(black_box(x));
                    assert_eq!(
                        s.to_bits(),
                        y.to_bits(),
                        "{name}({x:e} = {:#010x}): scalar {s:e}, slice {y:e}",
                        x.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn slices_match_scalar_bitwise_on_specials() {
        check_slices_match_scalar(&specials());
    }

    #[test]
    fn slices_match_scalar_bitwise_across_the_bit_space() {
        check_slices_match_scalar(&strided().collect::<Vec<_>>());
    }

    #[test]
    fn special_values() {
        let inf = f32::INFINITY;
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(inf), inf);
        assert_eq!(exp(-inf).to_bits(), 0);
        assert_eq!(exp(88.722_84), inf);
        assert_eq!(exp(-104.0).to_bits(), 0);
        assert_eq!(
            exp(-103.0).to_bits(),
            1,
            "e^-103 is 1.4e-45, one subnormal step"
        );
        assert_eq!(ln(1.0).to_bits(), 0);
        assert_eq!(ln(0.0), -inf);
        assert_eq!(ln(-0.0), -inf);
        assert_eq!(ln(inf), inf);
        assert!(ln(-1.0).is_nan() && ln(-inf).is_nan());
        assert_eq!(ln(f32::from_bits(1)), -103.278_93);
        assert_eq!(tanh(0.0).to_bits(), 0);
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(inf), 1.0);
        assert_eq!(tanh(-inf), -1.0);
        assert_eq!(tanh(1e-30), 1e-30);
        assert_eq!(tanh(f32::from_bits(0x8000_0001)).to_bits(), 0x8000_0001);
        assert_eq!(sin_cos(0.0), (0.0, 1.0));
        assert_eq!(sin_cos(-0.0).0.to_bits(), (-0.0f32).to_bits());
        assert_eq!(sin_cos(1e-30).0, 1e-30);
        for x in [inf, -inf, f32::NAN] {
            let (s, c) = sin_cos(x);
            assert!(s.is_nan() && c.is_nan(), "sin_cos({x})");
        }
        let nan = f32::from_bits(0x7FC0_1234);
        for f in [exp, ln, tanh] {
            assert_eq!(f(nan).to_bits(), nan.to_bits());
        }
    }

    #[test]
    fn within_two_ulps_on_specials_and_a_stride() {
        for (name, f, _, reference) in functions() {
            let domain =
                |x: f32| !name.starts_with("sin") && !name.starts_with("cos") || x.abs() <= 16384.0;
            for x in specials()
                .into_iter()
                .chain(strided())
                .filter(|&x| domain(x))
            {
                let err = ulps(f(x), reference(f64::from(x)));
                assert!(err <= 2.0, "{name}({x:e}): {err} ulp");
            }
        }
    }

    #[test]
    fn exp_ln_tanh_are_monotone_on_runs_across_the_range() {
        for (name, f, _, _) in functions().into_iter().take(3) {
            // 4 097 runs of 64 consecutive f32 in ascending order.
            for start in (0..u32::MAX - 64).step_by(1 << 20) {
                let mut prev = f32::NEG_INFINITY;
                for k in start..start + 64 {
                    let y = f(from_key(k));
                    if y.is_nan() {
                        prev = f32::NEG_INFINITY;
                        continue;
                    }
                    assert!(prev <= y, "{name} decreases at {:e}", from_key(k));
                    prev = y;
                }
            }
        }
    }

    fn fnv1a(h: u64, bits: u32) -> u64 {
        bits.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The outputs on a fixed input set, hashed per function. The build for
    /// every target CPU must land on these constants: they are the bits the
    /// pinned trajectories and checksums downstream were recorded with.
    #[test]
    fn outputs_hash_to_the_recorded_constants() {
        let inputs: Vec<f32> = specials().into_iter().chain(strided()).collect();
        let hashes: Vec<(&str, u64)> = functions()
            .into_iter()
            .map(|(name, _, slices, _)| {
                let mut ys = inputs.clone();
                slices[0](&mut ys);
                let h = ys
                    .iter()
                    .fold(0xcbf2_9ce4_8422_2325, |h, y| fnv1a(h, y.to_bits()));
                (name, h)
            })
            .collect();
        let recorded = [
            ("exp", 0x1075_045b_b5a4_ac15),
            ("ln", 0x16aa_8217_32c1_02a9),
            ("tanh", 0x6ab1_cb42_e77a_c11f),
            ("sin", 0x9a79_9cc3_c086_dd53),
            ("cos", 0x1c12_544d_3001_4472),
        ];
        assert_eq!(hashes, recorded);
    }

    /// The worst ulp error of `f` against `reference` over every f32 whose
    /// sort key lies in `keys`, in ascending order, and whether `f` is
    /// non-decreasing there. Every value also goes through the first slice
    /// entry, which must agree with the scalar call bit for bit.
    fn sweep(
        name: &str,
        f: Scalar,
        slice: Slice,
        reference: Reference,
        keys: std::ops::RangeInclusive<u32>,
        monotone: bool,
    ) {
        const BLOCK: u32 = 4096;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u32;
        let (lo, hi) = (*keys.start(), *keys.end());
        let span = (hi - lo) / threads + 1;
        let worst = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    // Each part starts one key early so the monotone check
                    // covers the seams between parts.
                    let start = lo + (t * span).saturating_sub(1).min(hi - lo);
                    let end = (lo + (t + 1) * span - 1).min(hi);
                    scope.spawn(move || {
                        let mut worst = (0.0f64, 0.0f32);
                        let mut prev: Option<f32> = None;
                        let mut xs = Vec::with_capacity(BLOCK as usize);
                        let mut k = start;
                        loop {
                            xs.clear();
                            let block_end = end.min(k.saturating_add(BLOCK - 1));
                            xs.extend((k..=block_end).map(from_key));
                            let mut ys = xs.clone();
                            slice(&mut ys);
                            for (&x, &y) in xs.iter().zip(&ys) {
                                let s = f(black_box(x));
                                assert_eq!(
                                    s.to_bits(),
                                    y.to_bits(),
                                    "{name}({x:e}): scalar ≠ slice"
                                );
                                let err = ulps(y, reference(f64::from(x)));
                                if err > worst.0 {
                                    worst = (err, x);
                                }
                                if monotone && !x.is_nan() && !y.is_nan() {
                                    if let Some(p) = prev {
                                        assert!(p <= y, "{name} decreases at {x:e}");
                                    }
                                    prev = Some(y);
                                }
                            }
                            if block_end == end {
                                break worst;
                            }
                            k = block_end + 1;
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .fold((0.0f64, 0.0f32), |a, b| if b.0 > a.0 { b } else { a })
        });
        println!("{name}: worst {:.4} ulp at {:e}", worst.0, worst.1);
        assert!(worst.0 <= 2.0, "{name}: {} ulp at {:e}", worst.0, worst.1);
    }

    #[test]
    #[ignore = "exhaustive: every f32, about a minute on 2 cores"]
    fn sweep_exp() {
        sweep("exp", exp, exp_slice, f64::exp, 0..=u32::MAX, true);
    }

    #[test]
    #[ignore = "exhaustive: every f32, about a minute on 2 cores"]
    fn sweep_ln() {
        sweep("ln", ln, ln_slice, f64::ln, 0..=u32::MAX, true);
    }

    #[test]
    #[ignore = "exhaustive: every f32, about a minute on 2 cores"]
    fn sweep_tanh() {
        sweep("tanh", tanh, tanh_slice, f64::tanh, 0..=u32::MAX, true);
    }

    #[test]
    #[ignore = "exhaustive: every |x| <= 2^14, about two minutes on 2 cores"]
    fn sweep_sin_cos() {
        let keys = key(-16384.0)..=key(16384.0);
        sweep("sin", sin, sin_slice, f64::sin, keys.clone(), false);
        sweep("cos", cos, cos_slice, f64::cos, keys, false);
    }
}
