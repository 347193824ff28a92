//! Procedural class-conditional image generators.
//!
//! These are the repository's stand-ins for MNIST, CIFAR10 and CelebA.
//! Each produces a deterministic (seeded) dataset whose samples are
//! class-structured but individually varied — the two properties the
//! paper's experiments actually exercise: a GAN can (partially) learn the
//! distribution, and a classifier can be trained on it to compute
//! MNIST-Score / Inception-Score / FID analogues.
//!
//! Pixel values are in `[-1, 1]` (tanh range). Image buffers are drawn
//! from the workspace shelf ([`md_tensor::workspace`]), where a dropped
//! dataset's buffer went, so a run that builds one dataset after another
//! reuses one buffer instead of holding a dead one per build.

use crate::dataset::Dataset;
use md_tensor::rng::Rng64;
use md_tensor::{math, workspace, Tensor};
use serde::{Deserialize, Serialize};

/// Which synthetic family to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Family {
    /// Seven-segment digit shapes, grayscale, 10 classes (MNIST stand-in).
    MnistLike,
    /// Oriented color textures, RGB, 10 classes (CIFAR10 stand-in).
    CifarLike,
    /// Procedural face-like compositions, RGB, 4 attribute classes
    /// (CelebA stand-in).
    CelebaLike,
}

impl Family {
    /// Checks that the family can draw `img`-sided images: digits and
    /// textures need 8 pixels, faces 16.
    pub fn check_img(self, img: usize) -> Result<(), String> {
        let (name, min) = match self {
            Family::MnistLike => ("mnist_like", 8),
            Family::CifarLike => ("cifar_like", 8),
            Family::CelebaLike => ("celeba_like", 16),
        };
        if img < min {
            return Err(format!("{name} needs img >= {min}, got {img}"));
        }
        Ok(())
    }
}

/// Full description of a synthetic dataset.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DataSpec {
    /// Family of patterns.
    pub family: Family,
    /// Square image side (pixels).
    pub img: usize,
    /// Number of samples to generate.
    pub n: usize,
    /// RNG seed.
    pub seed: u64,
    /// Additive Gaussian pixel noise (std, in pixel units of a [-1,1] scale).
    pub noise_std: f32,
}

impl DataSpec {
    /// MNIST stand-in at the given scale.
    pub fn mnist(img: usize, n: usize, seed: u64) -> Self {
        DataSpec {
            family: Family::MnistLike,
            img,
            n,
            seed,
            noise_std: 0.08,
        }
    }

    /// CIFAR10 stand-in at the given scale.
    pub fn cifar(img: usize, n: usize, seed: u64) -> Self {
        DataSpec {
            family: Family::CifarLike,
            img,
            n,
            seed,
            noise_std: 0.08,
        }
    }

    /// CelebA stand-in at the given scale.
    pub fn celeba(img: usize, n: usize, seed: u64) -> Self {
        DataSpec {
            family: Family::CelebaLike,
            img,
            n,
            seed,
            noise_std: 0.05,
        }
    }

    /// Channel count of this family.
    pub fn channels(&self) -> usize {
        match self.family {
            Family::MnistLike => 1,
            Family::CifarLike | Family::CelebaLike => 3,
        }
    }

    /// Class count of this family.
    pub fn num_classes(&self) -> usize {
        match self.family {
            Family::MnistLike | Family::CifarLike => 10,
            Family::CelebaLike => 4,
        }
    }

    /// The paper's `d` (floats per object).
    pub fn object_size(&self) -> usize {
        self.channels() * self.img * self.img
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        match self.family {
            Family::MnistLike => mnist_like(self.img, self.n, self.seed, self.noise_std),
            Family::CifarLike => cifar_like(self.img, self.n, self.seed, self.noise_std),
            Family::CelebaLike => celeba_like(self.img, self.n, self.seed, self.noise_std),
        }
    }
}

/// Seven-segment layout: which segments are lit per digit 0-9.
/// Segments: 0 top, 1 top-left, 2 top-right, 3 middle, 4 bottom-left,
/// 5 bottom-right, 6 bottom.
const SEGMENTS: [[bool; 7]; 10] = [
    [true, true, true, false, true, true, true],     // 0
    [false, false, true, false, false, true, false], // 1
    [true, false, true, true, true, false, true],    // 2
    [true, false, true, true, false, true, true],    // 3
    [false, true, true, true, false, true, false],   // 4
    [true, true, false, true, false, true, true],    // 5
    [true, true, false, true, true, true, true],     // 6
    [true, false, true, false, false, true, false],  // 7
    [true, true, true, true, true, true, true],      // 8
    [true, true, true, true, false, true, true],     // 9
];

/// MNIST stand-in: grayscale seven-segment "digits" with per-sample jitter,
/// stroke-intensity variation and Gaussian noise. 10 classes.
pub fn mnist_like(img: usize, n: usize, seed: u64, noise_std: f32) -> Dataset {
    Family::MnistLike
        .check_img(img)
        .unwrap_or_else(|e| panic!("{e}"));
    let mut rng = Rng64::seed_from_u64(seed ^ 0x004D_4E49_5354);
    let mut data = workspace::take_filled(n * img * img, -1.0);
    let mut labels = Vec::with_capacity(n);
    // One sample's pixel noise, drawn as a batch.
    let mut noise = workspace::take_uninit(img * img);

    for s in 0..n {
        let digit = rng.below(10);
        labels.push(digit);
        let canvas = &mut data[s * img * img..(s + 1) * img * img];

        // Digit bounding box with jitter.
        let margin = (img / 8).max(1);
        let jx = rng.below(2 * margin + 1) as isize - margin as isize;
        let jy = rng.below(2 * margin + 1) as isize - margin as isize;
        let x0 = (img / 4) as isize + jx;
        let y0 = (img / 8) as isize + jy;
        let wseg = (img / 2) as isize;
        let hseg = ((3 * img) / 4) as isize;
        let half = hseg / 2;
        let thick = 1 + (img / 12) as isize;
        let amp = 0.7 + 0.3 * rng.uniform();

        // Segment rectangles relative to (x0, y0): (x, y, w, h).
        let rects: [(isize, isize, isize, isize); 7] = [
            (0, 0, wseg, thick),                // top
            (0, 0, thick, half),                // top-left
            (wseg - thick, 0, thick, half),     // top-right
            (0, half - thick / 2, wseg, thick), // middle
            (0, half, thick, half),             // bottom-left
            (wseg - thick, half, thick, half),  // bottom-right
            (0, hseg - thick, wseg, thick),     // bottom
        ];
        for (seg, &(rx, ry, rw, rh)) in rects.iter().enumerate() {
            if !SEGMENTS[digit][seg] {
                continue;
            }
            for y in y0 + ry..y0 + ry + rh {
                for x in x0 + rx..x0 + rx + rw {
                    if y >= 0 && (y as usize) < img && x >= 0 && (x as usize) < img {
                        canvas[y as usize * img + x as usize] = amp;
                    }
                }
            }
        }
        rng.fill_normal(&mut noise);
        for (v, &z) in canvas.iter_mut().zip(&noise) {
            *v = (*v + noise_std * z).clamp(-1.0, 1.0);
        }
    }
    workspace::recycle(noise);
    Dataset::new(Tensor::new(&[n, 1, img, img], data), labels, 10)
}

/// CIFAR10 stand-in: RGB oriented sinusoidal textures whose orientation,
/// frequency and hue are class-determined, with random phase, a random
/// bright blob, and Gaussian noise. 10 classes.
pub fn cifar_like(img: usize, n: usize, seed: u64, noise_std: f32) -> Dataset {
    Family::CifarLike
        .check_img(img)
        .unwrap_or_else(|e| panic!("{e}"));
    let mut rng = Rng64::seed_from_u64(seed ^ 0x00C1_FA12);
    let hw = img * img;
    // Every element is written below.
    let mut data = workspace::take_uninit(n * 3 * hw);
    let mut labels = Vec::with_capacity(n);
    // One sample's pixel noise (three values per pixel, in pixel order), then
    // one row of wave and one row of blob values.
    let mut scratch = workspace::take_uninit(3 * hw + 2 * img);
    let (noise, rows) = scratch.split_at_mut(3 * hw);
    let (wave, blob) = rows.split_at_mut(img);

    for s in 0..n {
        let class = rng.below(10);
        labels.push(class);
        let theta = std::f32::consts::PI * class as f32 / 10.0;
        let freq = 1.5 + (class % 5) as f32 * 0.7;
        let (hr, hg, hb) = class_hue(class);
        let phase = 2.0 * std::f32::consts::PI * rng.uniform();
        let blob_x = rng.uniform() * img as f32;
        let blob_y = rng.uniform() * img as f32;
        let blob_r = img as f32 * (0.15 + 0.1 * rng.uniform());
        let blob_gain = 0.5 + 0.3 * rng.uniform();
        rng.fill_normal(noise);

        let (st, ct) = math::sin_cos(theta);
        for y in 0..img {
            for (x, (w, b)) in wave.iter_mut().zip(blob.iter_mut()).enumerate() {
                let u = (x as f32 * ct + y as f32 * st) / img as f32;
                *w = 2.0 * std::f32::consts::PI * freq * u + phase;
                let dx = x as f32 - blob_x;
                let dy = y as f32 - blob_y;
                *b = -(dx * dx + dy * dy) / (blob_r * blob_r);
            }
            math::sin_slice(wave);
            math::exp_slice(blob);
            let z = &noise[3 * y * img..3 * (y + 1) * img];
            for (x, ((&w, &b), z)) in wave.iter().zip(&*blob).zip(z.chunks_exact(3)).enumerate() {
                let base = 0.5 * w + blob_gain * b;
                let idx = s * 3 * hw + y * img + x;
                data[idx] = (hr * base + 0.2 * hr - 0.1 + noise_std * z[0]).clamp(-1.0, 1.0);
                data[idx + hw] = (hg * base + 0.2 * hg - 0.1 + noise_std * z[1]).clamp(-1.0, 1.0);
                data[idx + 2 * hw] =
                    (hb * base + 0.2 * hb - 0.1 + noise_std * z[2]).clamp(-1.0, 1.0);
            }
        }
    }
    workspace::recycle(scratch);
    Dataset::new(Tensor::new(&[n, 3, img, img], data), labels, 10)
}

/// A crude but distinct hue per class.
fn class_hue(class: usize) -> (f32, f32, f32) {
    let t = class as f32 / 10.0 * 2.0 * std::f32::consts::PI;
    let cos = |a: f32| math::sin_cos(a).1;
    (
        0.6 + 0.4 * cos(t),
        0.6 + 0.4 * cos(t + 2.1),
        0.6 + 0.4 * cos(t + 4.2),
    )
}

/// CelebA stand-in: procedural "portraits" — background gradient, an
/// elliptical face with varying tone/position/size, eye dots and a mouth
/// bar. The 4 classes quantize (skin tone × background) combinations; the
/// GAN itself trains unconditionally on these, exactly as the paper's
/// CelebA GAN has a single output neuron.
pub fn celeba_like(img: usize, n: usize, seed: u64, noise_std: f32) -> Dataset {
    Family::CelebaLike
        .check_img(img)
        .unwrap_or_else(|e| panic!("{e}"));
    let mut rng = Rng64::seed_from_u64(seed ^ 0x00CE_1EBA);
    let hw = img * img;
    // Every element is written below.
    let mut data = workspace::take_uninit(n * 3 * hw);
    let mut labels = Vec::with_capacity(n);
    // One sample's pixel noise, three values per pixel in pixel order.
    let mut noise = workspace::take_uninit(3 * hw);

    for s in 0..n {
        let skin_dark = rng.uniform() < 0.5;
        let bg_warm = rng.uniform() < 0.5;
        labels.push((skin_dark as usize) * 2 + bg_warm as usize);

        let skin = if skin_dark {
            (0.25f32, 0.05f32, -0.15f32)
        } else {
            (0.75, 0.55, 0.35)
        };
        let bg = if bg_warm {
            (0.3f32, 0.0f32, -0.4f32)
        } else {
            (-0.5f32, -0.2f32, 0.3f32)
        };

        let cx = img as f32 * (0.45 + 0.1 * rng.uniform());
        let cy = img as f32 * (0.45 + 0.1 * rng.uniform());
        let rx = img as f32 * (0.22 + 0.08 * rng.uniform());
        let ry = img as f32 * (0.3 + 0.08 * rng.uniform());
        let eye_dy = ry * 0.25;
        let eye_dx = rx * 0.45;
        let mouth_dy = ry * 0.45;
        let mouth_w = rx * 0.6;
        rng.fill_normal(&mut noise);

        for y in 0..img {
            for x in 0..img {
                let fx = (x as f32 - cx) / rx;
                let fy = (y as f32 - cy) / ry;
                let inside = fx * fx + fy * fy <= 1.0;
                let grad = y as f32 / img as f32 * 0.3;
                let (mut r, mut g, mut b) = if inside {
                    skin
                } else {
                    (bg.0 + grad, bg.1 + grad, bg.2 + grad)
                };
                if inside {
                    // Eyes.
                    for ex in [cx - eye_dx, cx + eye_dx] {
                        let dx = x as f32 - ex;
                        let dy = y as f32 - (cy - eye_dy);
                        if dx * dx + dy * dy < (img as f32 * 0.035).powi(2).max(1.0) {
                            r = -0.8;
                            g = -0.8;
                            b = -0.8;
                        }
                    }
                    // Mouth.
                    let dy = y as f32 - (cy + mouth_dy);
                    let dx = (x as f32 - cx).abs();
                    if dy.abs() < (img as f32 * 0.02).max(1.0) && dx < mouth_w {
                        r = 0.4;
                        g = -0.5;
                        b = -0.4;
                    }
                }
                let idx = s * 3 * hw + y * img + x;
                let z = &noise[3 * (y * img + x)..];
                data[idx] = (r + noise_std * z[0]).clamp(-1.0, 1.0);
                data[idx + hw] = (g + noise_std * z[1]).clamp(-1.0, 1.0);
                data[idx + 2 * hw] = (b + noise_std * z[2]).clamp(-1.0, 1.0);
            }
        }
    }
    workspace::recycle(noise);
    Dataset::new(Tensor::new(&[n, 3, img, img], data), labels, 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnist_like_shapes_and_range() {
        let d = mnist_like(16, 50, 1, 0.08);
        assert_eq!(d.len(), 50);
        assert_eq!(d.image_shape(), (1, 16, 16));
        assert!(d.images().data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
        assert_eq!(d.num_classes(), 10);
    }

    #[test]
    fn cifar_like_shapes_and_range() {
        let d = cifar_like(16, 50, 2, 0.08);
        assert_eq!(d.image_shape(), (3, 16, 16));
        assert!(d.images().data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn celeba_like_shapes_and_range() {
        let d = celeba_like(16, 30, 3, 0.05);
        assert_eq!(d.image_shape(), (3, 16, 16));
        assert_eq!(d.num_classes(), 4);
        assert!(d.images().data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = mnist_like(16, 20, 42, 0.08);
        let b = mnist_like(16, 20, 42, 0.08);
        assert_eq!(a.images().data(), b.images().data());
        assert_eq!(a.labels(), b.labels());
        let c = mnist_like(16, 20, 43, 0.08);
        assert_ne!(a.images().data(), c.images().data());
    }

    #[test]
    fn classes_are_roughly_balanced() {
        let d = mnist_like(16, 2000, 5, 0.08);
        let h = d.class_histogram();
        for (c, &count) in h.iter().enumerate() {
            assert!(count > 100, "class {c} has only {count} samples");
        }
    }

    #[test]
    fn same_class_samples_are_similar_but_not_identical() {
        let d = mnist_like(16, 400, 7, 0.08);
        // Find two samples of class 8.
        let idx: Vec<usize> = (0..d.len())
            .filter(|&i| d.labels()[i] == 8)
            .take(2)
            .collect();
        assert_eq!(idx.len(), 2);
        let a = d.images().index_axis0(idx[0]);
        let b = d.images().index_axis0(idx[1]);
        assert_ne!(a.data(), b.data());
        // Inter-class distance exceeds intra-class distance on average.
        let other: Vec<usize> = (0..d.len())
            .filter(|&i| d.labels()[i] == 1)
            .take(1)
            .collect();
        let c = d.images().index_axis0(other[0]);
        let intra = a.sub(&b).norm();
        let inter = a.sub(&c).norm();
        assert!(inter > intra * 0.8, "inter {inter} vs intra {intra}");
    }

    #[test]
    fn cifar_classes_have_distinct_hues() {
        let d = cifar_like(16, 600, 9, 0.02);
        // Mean red-channel value per class must not all coincide.
        let mut sums = [0.0f32; 10];
        let hw = 16 * 16;
        for i in 0..d.len() {
            let img = d.images().index_axis0(i);
            let red_mean: f32 = img.data()[..hw].iter().sum::<f32>() / hw as f32;
            sums[d.labels()[i]] += red_mean;
        }
        let means: Vec<f32> = sums
            .iter()
            .zip(d.class_histogram())
            .map(|(s, c)| s / c.max(1) as f32)
            .collect();
        let spread = means.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
            - means.iter().cloned().fold(f32::INFINITY, f32::min);
        assert!(spread > 0.2, "class hue spread too small: {spread}");
    }

    #[test]
    fn spec_helpers_match_families() {
        let spec = DataSpec::mnist(16, 100, 1);
        assert_eq!(spec.channels(), 1);
        assert_eq!(spec.num_classes(), 10);
        assert_eq!(spec.object_size(), 256);
        let d = spec.generate();
        assert_eq!(d.len(), 100);

        let spec = DataSpec::celeba(16, 10, 2);
        assert_eq!(spec.channels(), 3);
        assert_eq!(spec.num_classes(), 4);
    }

    #[test]
    fn digits_differ_between_classes() {
        // Average image per class should differ strongly between digit 1
        // (few segments) and digit 8 (all segments).
        let d = mnist_like(16, 1000, 11, 0.0);
        let mut mean1 = vec![0.0f32; 256];
        let mut mean8 = vec![0.0f32; 256];
        let (mut n1, mut n8) = (0, 0);
        for i in 0..d.len() {
            let img = d.images().index_axis0(i);
            match d.labels()[i] {
                1 => {
                    n1 += 1;
                    for (m, &v) in mean1.iter_mut().zip(img.data()) {
                        *m += v;
                    }
                }
                8 => {
                    n8 += 1;
                    for (m, &v) in mean8.iter_mut().zip(img.data()) {
                        *m += v;
                    }
                }
                _ => {}
            }
        }
        assert!(n1 > 0 && n8 > 0);
        let lit1: f32 = mean1.iter().map(|&v| v / n1 as f32 + 1.0).sum();
        let lit8: f32 = mean8.iter().map(|&v| v / n8 as f32 + 1.0).sum();
        assert!(
            lit8 > lit1 * 1.2,
            "digit 8 should light more pixels: {lit8} vs {lit1}"
        );
    }
}
