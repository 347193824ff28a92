//! Shape-adapter layers: `Reshape` and `Flatten`.

use crate::layer::{Layer, Need};
use md_tensor::Tensor;

/// Reshapes every sample: `(B, in...) -> (B, out...)`, where `out` is fixed
/// at construction. The batch dimension is preserved.
pub struct Reshape {
    target: Vec<usize>,
    cached_shape: Option<Vec<usize>>,
}

impl Reshape {
    /// Creates a reshape to per-sample dimensions `target` (without the
    /// batch dimension).
    pub fn new(target: &[usize]) -> Self {
        Reshape {
            target: target.to_vec(),
            cached_shape: None,
        }
    }
}

impl Layer for Reshape {
    fn forward_stacked(&mut self, x: &Tensor, _groups: usize, _train: bool) -> Tensor {
        assert!(x.ndim() >= 1, "Reshape expects a batched input");
        let b = x.shape()[0];
        let per_sample: usize = x.shape()[1..].iter().product();
        let target_n: usize = self.target.iter().product();
        assert_eq!(
            per_sample, target_n,
            "Reshape: sample has {per_sample} elements, target {:?} needs {target_n}",
            self.target
        );
        self.cached_shape = Some(x.shape().to_vec());
        let mut dims = vec![b];
        dims.extend_from_slice(&self.target);
        x.reshape(&dims)
    }

    fn backprop(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        if !need.input() {
            return None;
        }
        let shape = self
            .cached_shape
            .as_ref()
            .expect("Reshape::backward before forward");
        Some(grad_out.reshape(shape))
    }

    fn name(&self) -> String {
        format!("Reshape(B, {:?})", self.target)
    }
}

/// Flattens each sample to a vector: `(B, d1, d2, ...) -> (B, d1*d2*...)`.
#[derive(Default)]
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward_stacked(&mut self, x: &Tensor, _groups: usize, _train: bool) -> Tensor {
        assert!(x.ndim() >= 2, "Flatten expects at least (B, d)");
        self.cached_shape = Some(x.shape().to_vec());
        let b = x.shape()[0];
        x.reshape(&[b, x.len() / b])
    }

    fn backprop(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        if !need.input() {
            return None;
        }
        let shape = self
            .cached_shape
            .as_ref()
            .expect("Flatten::backward before forward");
        Some(grad_out.reshape(shape))
    }

    fn name(&self) -> String {
        "Flatten".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshape_roundtrip() {
        let mut r = Reshape::new(&[2, 3]);
        let x = Tensor::arange(12).into_reshape(&[2, 6]);
        let y = r.forward(&x, true);
        assert_eq!(y.shape(), &[2, 2, 3]);
        let g = r.backward(&y);
        assert_eq!(g.shape(), &[2, 6]);
        assert_eq!(g.data(), x.data());
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::arange(24).into_reshape(&[2, 3, 2, 2]);
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 12]);
        let g = f.backward(&y);
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    #[should_panic(expected = "Reshape")]
    fn reshape_rejects_bad_target() {
        let mut r = Reshape::new(&[5]);
        r.forward(&Tensor::zeros(&[2, 6]), true);
    }
}
