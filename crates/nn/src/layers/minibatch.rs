//! Minibatch discrimination (Salimans et al., "Improved Techniques for
//! Training GANs" — reference \[20\] of the paper).
//!
//! The paper's CNN discriminators include one of these layers: it lets the
//! discriminator look at relationships *between* samples in a batch, a
//! standard counter-measure to generator mode collapse.
//!
//! Given input `x: (B, A)` and a learned tensor `T: (A, nb*nc)`, compute
//! `M = x·T` reshaped to `(B, nb, nc)`. For each pair of samples `(i, j)`
//! and each feature `f`, `c_ijf = exp(-||M_if - M_jf||_1)`. The layer output
//! appends `o_if = Σ_{j≠i} c_ijf` to the input: `(B, A + nb)`. Batches
//! stacked along axis 0 ([`Layer::forward_stacked`]) are kept apart: a row
//! is compared with the rows of its own batch only.

use crate::init::Init;
use crate::layer::{GradSlot, Layer, Need};
use md_tensor::ops::matmul::matmul_tn_into;
use md_tensor::rng::Rng64;
use md_tensor::workspace;
use md_tensor::Tensor;

/// The minibatch-discrimination layer.
pub struct MinibatchDiscrimination {
    t: Tensor, // (A, nb*nc)
    grad_t: GradSlot,
    in_features: usize,
    nb: usize,
    nc: usize,
    cache: Option<Cache>,
}

struct Cache {
    x: Tensor,
    m: Tensor,   // (groups*B, nb*nc)
    c: Vec<f32>, // batch g, rows i and j of it: c[((g*b + i)*b + j)*nb + f]
    groups: usize,
}

impl MinibatchDiscrimination {
    /// Creates the layer with `nb` output features of `nc` kernel dims each.
    pub fn new(in_features: usize, nb: usize, nc: usize, rng: &mut Rng64) -> Self {
        MinibatchDiscrimination {
            t: Init::XavierUniform.sample(&[in_features, nb * nc], in_features, nb * nc, rng),
            grad_t: GradSlot::default(),
            in_features,
            nb,
            nc,
            cache: None,
        }
    }

    /// Output width = input width + `nb`.
    pub fn out_features(&self) -> usize {
        self.in_features + self.nb
    }

    /// The one gradient body: `acc` adds the parameter gradient to what the
    /// slot holds (zeros when empty), `!acc` writes it.
    fn gradient(&mut self, grad_out: &Tensor, need: Need, acc: bool) -> Option<Tensor> {
        let cache = self
            .cache
            .as_ref()
            .expect("MinibatchDiscrimination::backward before forward");
        let rows = cache.x.shape()[0];
        let b = rows / cache.groups;
        let (a, nb, nc) = (self.in_features, self.nb, self.nc);
        assert_eq!(
            grad_out.shape(),
            &[rows, a + nb],
            "MinibatchDiscrimination grad shape mismatch"
        );

        // The similarity-feature half of the incoming gradient.
        let mut go = vec![0.0f32; rows * nb];
        for i in 0..rows {
            go[i * nb..(i + 1) * nb].copy_from_slice(&grad_out.row(i)[a..]);
        }

        // dL/dM: for every unordered pair contribution, batch by batch.
        let mut gm = workspace::take_zeroed(rows * nb * nc);
        for g in 0..cache.groups {
            let md = &cache.m.data()[g * b * nb * nc..(g + 1) * b * nb * nc];
            let c = &cache.c[g * b * b * nb..(g + 1) * b * b * nb];
            let go = &go[g * b * nb..(g + 1) * b * nb];
            let gm = &mut gm[g * b * nb * nc..(g + 1) * b * nb * nc];
            for i in 0..b {
                for j in 0..b {
                    if i == j {
                        continue;
                    }
                    for f in 0..nb {
                        // No skip when `c_ijf` underflowed to 0: a NaN or
                        // infinite `dL/do_if` must still reach the gradient
                        // as `0·NaN`. On finite gradients the `±0` terms
                        // leave every sum bit for bit as it was.
                        let cv = c[(i * b + j) * nb + f];
                        // dL/do_if and dL/do_jf both touch c_ijf; iterate
                        // ordered pairs and attribute only the o_if term to
                        // avoid double counting (the (j,i) iteration handles
                        // o_jf).
                        let w = go[i * nb + f] * cv;
                        for cdim in 0..nc {
                            let mi = md[i * nb * nc + f * nc + cdim];
                            let mj = md[j * nb * nc + f * nc + cdim];
                            let s = if mi > mj {
                                1.0
                            } else if mi < mj {
                                -1.0
                            } else {
                                0.0
                            };
                            // d c_ijf / d M_i = -c * s ; d c_ijf / d M_j = +c * s
                            gm[i * nb * nc + f * nc + cdim] -= w * s;
                            gm[j * nb * nc + f * nc + cdim] += w * s;
                        }
                    }
                }
            }
        }
        let gm = Tensor::new(&[rows, nb * nc], gm);

        // dL/dT (+)= x^T · gm, one zero-seeded product per batch added in
        // batch order — what one accumulating call per batch computes, not
        // one chain over all the rows. A zero-seeded product holds no -0.0,
        // so the first may be written in place of being added to zeros.
        if need.params() {
            let grad_t = self.grad_t.draw(self.t.shape(), acc);
            for g in 0..cache.groups {
                let xg = &cache.x.data()[g * b * a..(g + 1) * b * a];
                let gmg = &gm.data()[g * b * nb * nc..(g + 1) * b * nb * nc];
                if g == 0 && !acc {
                    matmul_tn_into(xg, gmg, grad_t.data_mut(), a, b, nb * nc);
                } else {
                    let mut product =
                        Tensor::new(grad_t.shape(), workspace::take_uninit(a * nb * nc));
                    matmul_tn_into(xg, gmg, product.data_mut(), a, b, nb * nc);
                    grad_t.add_assign(&product);
                }
            }
        }
        // dL/dx = (pass-through half of grad_out) + gm · T^T
        need.input().then(|| {
            let mut gx_direct = workspace::take_raw(rows * a);
            for i in 0..rows {
                gx_direct.extend_from_slice(&grad_out.row(i)[..a]);
            }
            let mut gx = Tensor::new(&[rows, a], gx_direct);
            gx.add_assign(&gm.matmul_nt(&self.t));
            gx
        })
    }
}

impl Layer for MinibatchDiscrimination {
    /// `o_if` sums over the other rows of a sample's own batch: each of the
    /// `groups` stacked batches gets its own similarities.
    fn forward_stacked(&mut self, x: &Tensor, groups: usize, _train: bool) -> Tensor {
        assert_eq!(x.ndim(), 2, "MinibatchDiscrimination expects (B, A)");
        assert_eq!(
            x.shape()[1],
            self.in_features,
            "MinibatchDiscrimination width mismatch"
        );
        let rows = x.shape()[0];
        assert!(
            groups >= 1 && rows.is_multiple_of(groups),
            "MinibatchDiscrimination: {rows} rows do not split into {groups} equal batches"
        );
        let b = rows / groups;
        let (nb, nc) = (self.nb, self.nc);
        let m = x.matmul(&self.t); // (rows, nb*nc)

        // c_ijf = exp(-L1(M_if, M_jf)); o_if = sum_{j != i} c_ijf, `i` and
        // `j` rows of the same batch.
        let mut c = vec![0.0f32; groups * b * b * nb];
        let mut o = vec![0.0f32; rows * nb];
        for g in 0..groups {
            let md = &m.data()[g * b * nb * nc..(g + 1) * b * nb * nc];
            let c = &mut c[g * b * b * nb..(g + 1) * b * b * nb];
            let o = &mut o[g * b * nb..(g + 1) * b * nb];
            for i in 0..b {
                for j in 0..b {
                    if i == j {
                        continue;
                    }
                    for f in 0..nb {
                        let mi = &md[i * nb * nc + f * nc..i * nb * nc + (f + 1) * nc];
                        let mj = &md[j * nb * nc + f * nc..j * nb * nc + (f + 1) * nc];
                        let l1: f32 = mi.iter().zip(mj).map(|(a, b)| (a - b).abs()).sum();
                        let cv = (-l1).exp();
                        c[(i * b + j) * nb + f] = cv;
                        o[i * nb + f] += cv;
                    }
                }
            }
        }

        // Output = concat(x, o) along features.
        let mut out = workspace::take_raw(rows * (self.in_features + nb));
        for i in 0..rows {
            out.extend_from_slice(x.row(i));
            out.extend_from_slice(&o[i * nb..(i + 1) * nb]);
        }
        self.cache = Some(Cache {
            x: x.clone(),
            m,
            c,
            groups,
        });
        Tensor::new(&[rows, self.in_features + nb], out)
    }

    fn backprop(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        self.gradient(grad_out, need, true)
    }

    fn backprop_first(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        self.gradient(grad_out, need, false)
    }

    fn release_cache(&mut self) {
        self.cache = None;
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.t]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.t]
    }

    fn grad_slots(&self) -> Vec<&GradSlot> {
        vec![&self.grad_t]
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut GradSlot)> {
        vec![(&mut self.t, &mut self.grad_t)]
    }

    fn name(&self) -> String {
        format!(
            "MinibatchDisc(A={}, nb={}, nc={})",
            self.in_features, self.nb, self.nc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_concatenates_similarity_features() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut l = MinibatchDiscrimination::new(4, 3, 2, &mut rng);
        let x = Tensor::randn(&[5, 4], &mut rng);
        let y = l.forward(&x, true);
        assert_eq!(y.shape(), &[5, 7]);
        // First 4 features are passed through unchanged.
        for i in 0..5 {
            assert_eq!(&y.row(i)[..4], x.row(i));
        }
        // Similarity features are positive and bounded by B-1.
        for i in 0..5 {
            for f in 4..7 {
                let v = y.row(i)[f];
                assert!((0.0..=4.0).contains(&v), "o value {v}");
            }
        }
    }

    #[test]
    fn identical_samples_have_max_similarity() {
        let mut rng = Rng64::seed_from_u64(2);
        let mut l = MinibatchDiscrimination::new(3, 2, 2, &mut rng);
        let row = [0.3f32, -0.7, 1.1];
        let x = Tensor::new(&[2, 3], [row, row].concat());
        let y = l.forward(&x, true);
        // L1 distance 0 => c = exp(0) = 1 for the single other sample.
        for f in 3..5 {
            assert!((y.row(0)[f] - 1.0).abs() < 1e-5);
            assert!((y.row(1)[f] - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn gradcheck() {
        crate::gradcheck::check_layer(
            |rng| Box::new(MinibatchDiscrimination::new(3, 2, 2, rng)),
            &[4, 3],
            1e-3,
            5e-2,
        );
    }

    /// Two rows far apart: every similarity underflows to 0, so the
    /// similarity features are 0 — yet a NaN upstream gradient on one of
    /// them must reach both rows' input gradients and `dT` as `0·NaN`
    /// instead of being skipped with the zero.
    #[test]
    fn nan_gradient_at_an_underflowed_pair_propagates() {
        let mut rng = Rng64::seed_from_u64(4);
        let mut l = MinibatchDiscrimination::new(3, 2, 2, &mut rng);
        let x = Tensor::new(&[2, 3], vec![900.0, -700.0, 800.0, -900.0, 700.0, -800.0]);
        let y = l.forward(&x, true);
        assert_eq!(&y.row(0)[3..], &[0.0, 0.0], "similarities must underflow");
        let mut g = Tensor::ones(&[2, 5]);
        g.data_mut()[3] = f32::NAN; // dL/do_{0,0}
        let gx = l.backward(&g);
        assert!(gx.row(0).iter().all(|v| v.is_nan()), "{:?}", gx.row(0));
        assert!(gx.row(1).iter().all(|v| v.is_nan()), "{:?}", gx.row(1));
        assert!(l.grads()[0].data().iter().any(|v| v.is_nan()));
    }

    #[test]
    fn batch_of_one_has_zero_similarity() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut l = MinibatchDiscrimination::new(2, 2, 2, &mut rng);
        let x = Tensor::randn(&[1, 2], &mut rng);
        let y = l.forward(&x, true);
        assert_eq!(y.row(0)[2], 0.0);
        assert_eq!(y.row(0)[3], 0.0);
    }
}
