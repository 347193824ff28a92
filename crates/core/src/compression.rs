//! Message compression — the paper's §VII.2 perspective, implemented.
//!
//! > "The parameter server framework [...] has the obvious drawback of
//! > creating a communication bottleneck [...]. Methods such as Adacomp
//! > propose to communicate updates based on gradient staleness, which
//! > constitutes a form of data compression. In the context of GANs, those
//! > methods may be applied on generated data before they are sent to
//! > workers, and to the error feedback messages sent by workers to the
//! > server."
//!
//! Two orthogonal lossy codecs, composable:
//! * **8-bit uniform quantization** — natural for generated images (the
//!   tanh range quantizes well) and a 4× wire saving,
//! * **top-k sparsification** — keep only the largest-|x| fraction of a
//!   feedback gradient (the Adacomp/compressed-SGD family).
//!
//! [`MdGanConfig`](crate::config::MdGanConfig) has no codec field — codecs
//! are enabled explicitly per system via
//! [`MdGan::with_codecs`](crate::mdgan::trainer::MdGan::with_codecs), so the
//! default runtime stays byte-exact with the paper's Table III.

use bytes::Bytes;
use md_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A lossy tensor codec.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Codec {
    /// Identity (dense f32) — 4 bytes/element.
    None,
    /// Uniform 8-bit quantization over the tensor's own [min, max] range —
    /// 1 byte/element + 8 bytes of header.
    Quantize8,
    /// Keep the `frac` largest-magnitude elements (at least one) as
    /// (u32 index, f32 value) pairs — 8 bytes/kept element.
    TopK {
        /// Fraction of elements kept, in (0, 1].
        frac: f32,
    },
    /// Top-k indices with 8-bit quantized values — 5 bytes/kept element.
    TopKQuantize8 {
        /// Fraction of elements kept, in (0, 1].
        frac: f32,
    },
}

/// A compressed tensor: enough to reconstruct an approximation and to
/// charge the wire.
#[derive(Clone, Debug)]
pub struct Compressed {
    shape: Vec<usize>,
    payload: Payload,
}

#[derive(Clone, Debug)]
enum Payload {
    Dense(Vec<f32>),
    Quant8 {
        min: f32,
        scale: f32,
        data: Bytes,
    },
    Sparse {
        indices: Vec<u32>,
        values: Vec<f32>,
    },
    SparseQuant8 {
        min: f32,
        scale: f32,
        indices: Vec<u32>,
        data: Bytes,
    },
}

impl Codec {
    /// Compresses a tensor.
    pub fn compress(&self, t: &Tensor) -> Compressed {
        let shape = t.shape().to_vec();
        let payload = match *self {
            Codec::None => Payload::Dense(t.data().to_vec()),
            Codec::Quantize8 => {
                let (min, scale) = quant_range(t.data());
                let data: Vec<u8> = t.data().iter().map(|&v| quantize(v, min, scale)).collect();
                Payload::Quant8 {
                    min,
                    scale,
                    data: Bytes::from(data),
                }
            }
            Codec::TopK { frac } => {
                let (indices, values) = top_k(t.data(), frac);
                Payload::Sparse { indices, values }
            }
            Codec::TopKQuantize8 { frac } => {
                let (indices, values) = top_k(t.data(), frac);
                let (min, scale) = quant_range(&values);
                let data: Vec<u8> = values.iter().map(|&v| quantize(v, min, scale)).collect();
                Payload::SparseQuant8 {
                    min,
                    scale,
                    indices,
                    data: Bytes::from(data),
                }
            }
        };
        Compressed { shape, payload }
    }

    /// Sends `t` across one link: returns what the receiver trains on and
    /// the bytes the wire is charged. The identity codec hands the tensor
    /// through untouched at `4·len` bytes; lossy codecs return the
    /// [`compress`](Self::compress) → [`decompress`](Compressed::decompress)
    /// approximation at its compressed wire size.
    pub fn transmit(self, t: Tensor) -> (Tensor, u64) {
        if matches!(self, Codec::None) {
            let bytes = 4 * t.len() as u64;
            return (t, bytes);
        }
        let c = self.compress(&t);
        (c.decompress(), c.wire_bytes())
    }
}

impl Compressed {
    /// Reconstructs the (approximate) tensor.
    pub fn decompress(&self) -> Tensor {
        let n: usize = self.shape.iter().product();
        match &self.payload {
            Payload::Dense(v) => Tensor::new(&self.shape, v.clone()),
            Payload::Quant8 { min, scale, data } => {
                let v: Vec<f32> = data.iter().map(|&q| dequantize(q, *min, *scale)).collect();
                Tensor::new(&self.shape, v)
            }
            Payload::Sparse { indices, values } => {
                let mut v = vec![0.0f32; n];
                for (&i, &x) in indices.iter().zip(values) {
                    v[i as usize] = x;
                }
                Tensor::new(&self.shape, v)
            }
            Payload::SparseQuant8 {
                min,
                scale,
                indices,
                data,
            } => {
                let mut v = vec![0.0f32; n];
                for (&i, &q) in indices.iter().zip(data.iter()) {
                    v[i as usize] = dequantize(q, *min, *scale);
                }
                Tensor::new(&self.shape, v)
            }
        }
    }

    /// Bytes this message costs on the wire (payload + small headers).
    pub fn wire_bytes(&self) -> u64 {
        match &self.payload {
            Payload::Dense(v) => 4 * v.len() as u64,
            Payload::Quant8 { data, .. } => 8 + data.len() as u64,
            Payload::Sparse { indices, .. } => 8 * indices.len() as u64,
            Payload::SparseQuant8 { indices, data, .. } => {
                8 + 4 * indices.len() as u64 + data.len() as u64
            }
        }
    }

    /// Compression ratio vs dense f32 (>1 means smaller on the wire).
    pub fn ratio(&self) -> f64 {
        let dense = 4.0 * self.shape.iter().product::<usize>() as f64;
        dense / self.wire_bytes() as f64
    }
}

fn quant_range(data: &[f32]) -> (f32, f32) {
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &v in data {
        min = min.min(v);
        max = max.max(v);
    }
    if !min.is_finite() || !max.is_finite() || min == max {
        return (if min.is_finite() { min } else { 0.0 }, 0.0);
    }
    (min, (max - min) / 255.0)
}

#[inline]
fn quantize(v: f32, min: f32, scale: f32) -> u8 {
    if scale == 0.0 {
        0
    } else {
        (((v - min) / scale).round().clamp(0.0, 255.0)) as u8
    }
}

#[inline]
fn dequantize(q: u8, min: f32, scale: f32) -> f32 {
    min + q as f32 * scale
}

/// Indices and values of the `frac·n` largest-magnitude elements
/// (at least 1), indices ascending.
fn top_k(data: &[f32], frac: f32) -> (Vec<u32>, Vec<f32>) {
    assert!(
        frac > 0.0 && frac <= 1.0,
        "top-k fraction must be in (0, 1], got {frac}"
    );
    let n = data.len();
    let k = ((n as f32 * frac).ceil() as usize).clamp(1, n);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        data[b as usize]
            .abs()
            .partial_cmp(&data[a as usize].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut indices: Vec<u32> = order[..k].to_vec();
    indices.sort_unstable();
    let values = indices.iter().map(|&i| data[i as usize]).collect();
    (indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_tensor::rng::Rng64;

    #[test]
    fn none_roundtrips_exactly() {
        let mut rng = Rng64::seed_from_u64(1);
        let t = Tensor::randn(&[3, 7], &mut rng);
        let c = Codec::None.compress(&t);
        assert_eq!(c.decompress().data(), t.data());
        assert_eq!(c.wire_bytes(), 4 * 21);
        assert!((c.ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quantize8_error_is_bounded_by_half_step() {
        let mut rng = Rng64::seed_from_u64(2);
        let t = Tensor::randn(&[1000], &mut rng);
        let c = Codec::Quantize8.compress(&t);
        let r = c.decompress();
        let range = t.max() - t.min();
        let half_step = range / 255.0 / 2.0 + 1e-6;
        for (a, b) in t.data().iter().zip(r.data()) {
            assert!((a - b).abs() <= half_step, "{a} vs {b}");
        }
        // ~4x smaller.
        assert!(c.ratio() > 3.5, "ratio {}", c.ratio());
    }

    #[test]
    fn quantize8_constant_tensor() {
        let t = Tensor::full(&[16], 2.5);
        let c = Codec::Quantize8.compress(&t);
        let r = c.decompress();
        assert!(r.data().iter().all(|&v| (v - 2.5).abs() < 1e-6));
    }

    #[test]
    fn top_k_keeps_largest_magnitudes() {
        let t = Tensor::new(&[6], vec![0.1, -5.0, 0.2, 3.0, -0.05, 0.0]);
        let c = Codec::TopK { frac: 0.34 }.compress(&t); // k = ceil(6*0.34) = 3
        let r = c.decompress();
        // The three largest magnitudes are -5.0, 3.0 and 0.2.
        assert_eq!(r.data(), &[0.0, -5.0, 0.2, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn top_k_wire_savings() {
        let mut rng = Rng64::seed_from_u64(3);
        let t = Tensor::randn(&[10_000], &mut rng);
        let c = Codec::TopK { frac: 0.1 }.compress(&t);
        assert!(c.ratio() > 4.5, "ratio {}", c.ratio()); // 8 bytes * 10% vs 4 bytes * 100%
        let cq = Codec::TopKQuantize8 { frac: 0.1 }.compress(&t);
        assert!(cq.ratio() > c.ratio(), "{} vs {}", cq.ratio(), c.ratio());
    }

    #[test]
    fn top_k_preserves_energy() {
        // The kept coordinates carry most of the L2 energy for heavy-tailed
        // data; at minimum the reconstruction error is below the original
        // norm (it's a projection).
        let mut rng = Rng64::seed_from_u64(4);
        let t = Tensor::randn(&[2048], &mut rng);
        let r = Codec::TopK { frac: 0.25 }.compress(&t).decompress();
        let err = t.sub(&r).norm();
        assert!(err < t.norm(), "projection cannot grow the error");
        // Top-25% of a Gaussian holds well over half the energy.
        assert!(r.sq_norm() > 0.5 * t.sq_norm());
    }

    #[test]
    fn full_fraction_topk_is_lossless() {
        let mut rng = Rng64::seed_from_u64(5);
        let t = Tensor::randn(&[64], &mut rng);
        let r = Codec::TopK { frac: 1.0 }.compress(&t).decompress();
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn transmit_matches_the_compress_decompress_roundtrip() {
        let mut rng = Rng64::seed_from_u64(6);
        let t = Tensor::randn(&[5, 3, 4, 4], &mut rng);
        for codec in [
            Codec::None,
            Codec::Quantize8,
            Codec::TopK { frac: 0.3 },
            Codec::TopKQuantize8 { frac: 0.3 },
        ] {
            let c = codec.compress(&t);
            let (got, bytes) = codec.transmit(t.clone());
            assert_eq!(got.shape(), t.shape(), "{codec:?}");
            assert_eq!(got.data(), c.decompress().data(), "{codec:?}");
            assert_eq!(bytes, c.wire_bytes(), "{codec:?}");
        }
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_rejected() {
        Codec::TopK { frac: 0.0 }.compress(&Tensor::ones(&[4]));
    }
}
