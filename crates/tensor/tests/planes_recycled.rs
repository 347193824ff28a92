//! `ConvPlanes` drawn from a NaN-filled workspace buffer hold exactly what
//! the reference `im2col` unfolds: the planes are written in full —
//! padding zeros included — and never zeroed as a whole, so a stale value
//! left in a recycled buffer must not reach a product.
//!
//! This file deliberately holds a **single** test: the workspace shelf is
//! process-global, and a concurrently running test could take the NaN
//! buffer first.

use md_tensor::ops::conv::{conv_out_dim, im2col, ConvPlanes};
use md_tensor::tensor::Tensor;
use md_tensor::workspace;

#[test]
fn planes_in_a_nan_filled_recycled_buffer_match_the_reference() {
    // Stride 2 over 16-pixel rows (the fixed-length deinterleave) and
    // stride 3 over odd rows with an odd pad (the general one).
    for (b, c, h, w, k, s, p) in [(3, 5, 16, 16, 3, 2, 1), (2, 3, 7, 11, 4, 3, 2)] {
        let x = Tensor::new(
            &[b, c, h, w],
            (0..b * c * h * w).map(|i| (i % 97) as f32 - 48.0).collect(),
        );
        // The only buffer on the shelf, large enough for the planes and
        // within the shelf's waste bound of them.
        workspace::clear();
        workspace::recycle(vec![f32::NAN; 3 * b * c * h * w]);
        let before = workspace::stats();
        let planes = ConvPlanes::split(&x, k, k, s, p);
        let after = workspace::stats();
        assert_eq!(
            after.hits,
            before.hits + 1,
            "planes not drawn from the shelf"
        );
        assert_eq!(after.pooled_bufs, 0, "the NaN buffer is still on the shelf");

        let (oh, ow) = (conv_out_dim(h, k, s, p), conv_out_dim(w, k, s, p));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut got = vec![0.0; c * k * k * oh * ow];
        let mut want = vec![0.0; c * k * k * oh * ow];
        for (bi, image) in x.data().chunks_exact(c * h * w).enumerate() {
            planes.im2col(bi, &mut got);
            im2col(image, c, h, w, k, k, s, p, oh, ow, &mut want);
            assert_eq!(
                bits(&got),
                bits(&want),
                "sample {bi} of {:?}",
                (c, h, w, k, s, p)
            );
        }
        assert_eq!(bits(planes.unsplit().data()), bits(x.data()));
    }
}
