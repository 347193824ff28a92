//! Minimal image output: binary PGM (grayscale) / PPM (RGB) writers and a
//! contact-sheet tiler, so examples and experiments can dump generated
//! samples for visual inspection without an image-codec dependency.
//!
//! Pixel convention: tensors hold `[-1, 1]` (tanh range), mapped linearly
//! to `0..=255`.

use md_tensor::Tensor;
use std::fs;
use std::io;
use std::path::Path;

/// Maps a `[-1, 1]` activation to a byte.
#[inline]
fn to_byte(v: f32) -> u8 {
    (((v.clamp(-1.0, 1.0) + 1.0) / 2.0) * 255.0).round() as u8
}

/// Writes a single image tensor as PGM (1 channel) or PPM (3 channels).
///
/// Accepts `(C, H, W)` with `C ∈ {1, 3}`.
///
/// # Errors
/// I/O errors from writing the file.
///
/// # Panics
/// Panics on unsupported shapes.
pub fn write_image(path: impl AsRef<Path>, image: &Tensor) -> io::Result<()> {
    assert_eq!(
        image.ndim(),
        3,
        "write_image expects (C, H, W), got {:?}",
        image.shape()
    );
    let (c, h, w) = (image.shape()[0], image.shape()[1], image.shape()[2]);
    let mut out: Vec<u8>;
    match c {
        1 => {
            out = format!("P5\n{w} {h}\n255\n").into_bytes();
            out.reserve(h * w);
            for &v in image.data() {
                out.push(to_byte(v));
            }
        }
        3 => {
            out = format!("P6\n{w} {h}\n255\n").into_bytes();
            out.reserve(3 * h * w);
            let hw = h * w;
            for i in 0..hw {
                // Planar (C,H,W) -> interleaved RGB.
                out.push(to_byte(image.data()[i]));
                out.push(to_byte(image.data()[hw + i]));
                out.push(to_byte(image.data()[2 * hw + i]));
            }
        }
        other => panic!("write_image supports 1 or 3 channels, got {other}"),
    }
    fs::write(path, out)
}

/// Tiles a batch `(N, C, H, W)` into one `(C, rows*H + gaps, cols*W + gaps)`
/// contact sheet with a 1-pixel separator (background −1).
pub fn tile_grid(batch: &Tensor, cols: usize) -> Tensor {
    assert_eq!(batch.ndim(), 4, "tile_grid expects (N, C, H, W)");
    assert!(cols > 0, "cols must be positive");
    let (n, c, h, w) = (
        batch.shape()[0],
        batch.shape()[1],
        batch.shape()[2],
        batch.shape()[3],
    );
    assert!(n > 0, "empty batch");
    let rows = n.div_ceil(cols);
    let gh = rows * h + rows - 1;
    let gw = cols * w + cols - 1;
    let mut grid = Tensor::full(&[c, gh, gw], -1.0);
    for i in 0..n {
        let (r, col) = (i / cols, i % cols);
        let y0 = r * (h + 1);
        let x0 = col * (w + 1);
        for ch in 0..c {
            for y in 0..h {
                for x in 0..w {
                    *grid.at_mut(&[ch, y0 + y, x0 + x]) = batch.at(&[i, ch, y, x]);
                }
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_mapping_endpoints() {
        assert_eq!(to_byte(-1.0), 0);
        assert_eq!(to_byte(1.0), 255);
        assert_eq!(to_byte(0.0), 128);
        assert_eq!(to_byte(-5.0), 0); // clamped
    }

    #[test]
    fn pgm_header_and_size() {
        let img = Tensor::zeros(&[1, 4, 6]);
        let path = std::env::temp_dir().join("mdgan_test.pgm");
        write_image(&path, &img).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::remove_file(&path).ok();
        assert!(bytes.starts_with(b"P5\n6 4\n255\n"));
        assert_eq!(bytes.len(), b"P5\n6 4\n255\n".len() + 24);
    }

    #[test]
    fn ppm_interleaves_channels() {
        // One pixel: R=-1, G=0, B=1.
        let img = Tensor::new(&[3, 1, 1], vec![-1.0, 0.0, 1.0]);
        let path = std::env::temp_dir().join("mdgan_test.ppm");
        write_image(&path, &img).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::remove_file(&path).ok();
        let header = b"P6\n1 1\n255\n";
        assert!(bytes.starts_with(header));
        assert_eq!(&bytes[header.len()..], &[0, 128, 255]);
    }

    #[test]
    fn tile_grid_shapes_and_placement() {
        let mut batch = Tensor::full(&[3, 1, 2, 2], -1.0);
        // Mark sample 2's top-left pixel.
        *batch.at_mut(&[2, 0, 0, 0]) = 1.0;
        let grid = tile_grid(&batch, 2);
        // 2 rows x 2 cols of 2x2 with 1px gaps: 5x5.
        assert_eq!(grid.shape(), &[1, 5, 5]);
        // Sample 2 sits at row 1, col 0 -> grid y=3, x=0.
        assert_eq!(grid.at(&[0, 3, 0]), 1.0);
        // Separator stays background.
        assert_eq!(grid.at(&[0, 2, 2]), -1.0);
    }

    #[test]
    #[should_panic(expected = "1 or 3 channels")]
    fn rejects_two_channel_images() {
        let img = Tensor::zeros(&[2, 2, 2]);
        let _ = write_image(std::env::temp_dir().join("x.pgm"), &img);
    }
}
