//! Fully-connected layers.

use rand::Rng;

use crate::init;
use crate::layers::{join, Module};
use crate::matrix::Matrix;
use crate::ops;
use crate::tensor::Tensor;

/// An affine map `y = x W + b` (weights stored `in × out`).
pub struct Linear {
    w: Tensor,
    b: Tensor,
}

impl Linear {
    /// Creates a layer with Xavier-initialized weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            w: Tensor::param(init::xavier_uniform(in_dim, out_dim, rng)),
            b: Tensor::param(Matrix::zeros(1, out_dim)),
        }
    }

    /// Applies the layer to an `n × in` tensor.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        ops::add_row(&ops::matmul(x, &self.w), &self.b)
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.value().rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.value().cols()
    }
}

impl Module for Linear {
    fn collect_params(&self, prefix: &str, out: &mut Vec<(String, Tensor)>) {
        out.push((join(prefix, "w"), self.w.clone()));
        out.push((join(prefix, "b"), self.b.clone()));
    }
}

/// A plain multi-layer perceptron with ReLU activations between layers.
///
/// This is the "very simple 3-layer fully-connected model" the paper uses
/// as the prediction head on top of PreQR embeddings (§4.3.2).
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[128, 64, 1]` for a
    /// 3-layer head over 128-dim inputs.
    ///
    /// # Panics
    /// Panics if fewer than two widths are given.
    pub fn new(widths: &[usize], rng: &mut impl Rng) -> Self {
        assert!(widths.len() >= 2, "Mlp needs at least input and output widths");
        let layers = widths.windows(2).map(|w| Linear::new(w[0], w[1], rng)).collect();
        Self { layers }
    }

    /// Forward pass; ReLU after every layer except the last.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut h = ops::identity(x);
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            if i + 1 < self.layers.len() {
                h = ops::relu(&h);
            }
        }
        h
    }
}

impl Module for Mlp {
    fn collect_params(&self, prefix: &str, out: &mut Vec<(String, Tensor)>) {
        for (i, l) in self.layers.iter().enumerate() {
            l.collect_params(&join(prefix, &format!("l{i}")), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let l = Linear::new(4, 2, &mut rng);
        let x = Tensor::constant(Matrix::zeros(3, 4));
        assert_eq!(l.forward(&x).shape(), (3, 2));
        assert_eq!(l.in_dim(), 4);
        assert_eq!(l.out_dim(), 2);
    }

    #[test]
    fn linear_param_names() {
        let mut rng = StdRng::seed_from_u64(3);
        let l = Linear::new(2, 2, &mut rng);
        let names: Vec<String> = l.named_params("head").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["head.w", "head.b"]);
        assert_eq!(l.param_count(), 2 * 2 + 2);
    }

    #[test]
    fn mlp_learns_a_linear_function() {
        // y = 2*x0 - x1; the MLP should fit it to low error quickly.
        let mut rng = StdRng::seed_from_u64(42);
        let mlp = Mlp::new(&[2, 8, 1], &mut rng);
        let mut opt = Adam::new(mlp.params(), 0.02);
        let data: Vec<([f32; 2], f32)> = (0..32)
            .map(|i| {
                let x0 = (i % 8) as f32 / 8.0;
                let x1 = (i / 8) as f32 / 4.0;
                ([x0, x1], 2.0 * x0 - x1)
            })
            .collect();
        let mut last = f32::MAX;
        for _ in 0..300 {
            let xs = Matrix::from_fn(data.len(), 2, |r, c| data[r].0[c]);
            let ys = Matrix::from_fn(data.len(), 1, |r, _| data[r].1);
            let pred = mlp.forward(&Tensor::constant(xs));
            let loss = ops::mse_loss(&pred, &ys);
            last = loss.value_clone().get(0, 0);
            loss.backward();
            opt.step();
        }
        assert!(last < 1e-3, "MLP failed to fit linear target, loss={last}");
    }
}
