//! Brain-float-16 rounding and INT8 quantization.
//!
//! The accelerator computes in BF16 "to maintain the original network
//! accuracy across different networks, whereas the lower INT precision,
//! INT8 and INT4, are still supported … for the case that the processing
//! latency is prioritized over the accuracy" (§III-C). We model BF16 as
//! `f32` with the mantissa truncated to 7 bits using round-to-nearest-even
//! — bit-exact with hardware BF16 for normal values — rather than carrying
//! a distinct storage type through the hot path.

use serde::{Deserialize, Serialize};

/// Numeric precision of an inference (paper §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Precision {
    /// Brain float 16: the default, full-accuracy mode (16 TFLOPS peak).
    #[default]
    Bf16,
    /// 8-bit integers: 4x the throughput (64 TOPS peak), lossy.
    Int8,
    /// 4-bit integers: supported by the PE array, rarely used.
    Int4,
}

impl Precision {
    /// Peak-throughput multiplier relative to BF16 (the paper's
    /// 16 TFLOPS vs 64 TOPS gives 4x for INT8; INT4 doubles that).
    pub fn throughput_multiplier(self) -> f64 {
        match self {
            Precision::Bf16 => 1.0,
            Precision::Int8 => 4.0,
            Precision::Int4 => 8.0,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::Bf16 => f.write_str("bf16"),
            Precision::Int8 => f.write_str("int8"),
            Precision::Int4 => f.write_str("int4"),
        }
    }
}

/// Rounds an `f32` to the nearest representable BF16 value
/// (round-to-nearest-even), returned as `f32`.
///
/// # Example
///
/// ```
/// use lt_dnn::bf16_round;
/// // 1.0 is exactly representable.
/// assert_eq!(bf16_round(1.0), 1.0);
/// // BF16 has ~3 significant decimal digits.
/// assert_ne!(bf16_round(1.001), 1.001);
/// ```
#[inline]
pub fn bf16_round(x: f32) -> f32 {
    let bits = x.to_bits();
    // Round-to-nearest-even on the truncated 16 mantissa bits.
    let rounding_bias = 0x7FFF + ((bits >> 16) & 1);
    let rounded = bits.wrapping_add(rounding_bias) & 0xFFFF_0000;
    f32::from_bits(rounded)
}

/// Rounds a whole slice to BF16 in place.
pub fn bf16_round_slice(xs: &mut [f32]) {
    for x in xs {
        *x = bf16_round(*x);
    }
}

/// Symmetric per-tensor INT8 quantization.
///
/// Returns the quantized bytes and the scale such that
/// `value ≈ q as f32 * scale`.
pub fn quantize_int8(xs: &[f32]) -> (Vec<i8>, f32) {
    let max_abs = xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    if max_abs == 0.0 {
        return (vec![0; xs.len()], 1.0);
    }
    let scale = max_abs / 127.0;
    let q = xs
        .iter()
        .map(|&x| (x / scale).round().clamp(-127.0, 127.0) as i8)
        .collect();
    (q, scale)
}

/// Reverses [`quantize_int8`].
pub fn dequantize_int8(q: &[i8], scale: f32) -> Vec<f32> {
    q.iter().map(|&v| v as f32 * scale).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_survive() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 256.0, -0.25] {
            assert_eq!(bf16_round(v), v);
        }
    }

    #[test]
    fn rounding_error_is_bounded() {
        // BF16 has 8 mantissa bits (incl. hidden): relative error < 2^-8.
        for i in 1..1000 {
            let x = i as f32 * 0.37;
            let r = bf16_round(x);
            assert!(((r - x) / x).abs() < 1.0 / 256.0, "{x} -> {r}");
        }
    }

    #[test]
    fn round_to_nearest_even() {
        // A value exactly halfway between two BF16 values rounds to even.
        let lo = f32::from_bits(0x3F80_0000); // 1.0
        let half_ulp = f32::from_bits(0x3F80_8000); // halfway to next bf16
        let r = bf16_round(half_ulp);
        // 0x3F80 is even, 0x3F81 is odd: ties go to 0x3F80.
        assert_eq!(r, lo);
    }

    #[test]
    fn idempotent() {
        for i in 0..100 {
            let x = (i as f32 - 50.0) * 1.7;
            assert_eq!(bf16_round(bf16_round(x)), bf16_round(x));
        }
    }

    #[test]
    fn specials_preserved() {
        assert!(bf16_round(f32::NAN).is_nan());
        assert_eq!(bf16_round(f32::INFINITY), f32::INFINITY);
        assert_eq!(bf16_round(f32::NEG_INFINITY), f32::NEG_INFINITY);
        assert_eq!(bf16_round(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn slice_rounding() {
        let mut xs = vec![1.001f32, 2.003, 3.007];
        bf16_round_slice(&mut xs);
        for x in &xs {
            assert_eq!(bf16_round(*x), *x);
        }
    }

    #[test]
    fn int8_round_trip_error_bounded() {
        let xs: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) * 0.11).collect();
        let (q, scale) = quantize_int8(&xs);
        let back = dequantize_int8(&q, scale);
        let max_abs = xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        for (a, b) in xs.iter().zip(&back) {
            assert!((a - b).abs() <= scale * 0.5 + 1e-6, "{a} vs {b}");
        }
        assert!(scale > 0.0 && scale <= max_abs / 126.0);
    }

    #[test]
    fn int8_zero_tensor() {
        let (q, scale) = quantize_int8(&[0.0, 0.0]);
        assert_eq!(q, vec![0, 0]);
        assert_eq!(scale, 1.0);
    }

    #[test]
    fn precision_multipliers() {
        assert_eq!(Precision::Bf16.throughput_multiplier(), 1.0);
        assert_eq!(Precision::Int8.throughput_multiplier(), 4.0);
        assert_eq!(Precision::Int4.throughput_multiplier(), 8.0);
        assert_eq!(Precision::default(), Precision::Bf16);
        assert_eq!(Precision::Int8.to_string(), "int8");
    }
}
