//! Scaled dot-product and multi-head attention (Eq. 5 of the paper).

use rand::Rng;

use crate::layers::{join, Linear, Module};
use crate::ops;
use crate::tensor::Tensor;

/// Multi-head attention supporting both self-attention (`q == kv`) and
/// cross-attention (query-aware schema linking uses the query sequence as
/// `q` and the schema node embeddings as `kv`).
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    head_dim: usize,
}

impl MultiHeadAttention {
    /// Creates `heads`-head attention over `dim`-dimensional inputs.
    ///
    /// # Panics
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(dim: usize, heads: usize, rng: &mut impl Rng) -> Self {
        assert!(heads > 0 && dim.is_multiple_of(heads), "dim {dim} must divide into {heads} heads");
        Self {
            wq: Linear::new(dim, dim, rng),
            wk: Linear::new(dim, dim, rng),
            wv: Linear::new(dim, dim, rng),
            wo: Linear::new(dim, dim, rng),
            heads,
            head_dim: dim / heads,
        }
    }

    /// Attention with separate query and key/value sequences.
    ///
    /// `q` is `n_q × dim`, `kv` is `n_kv × dim`; the result is `n_q × dim`.
    pub fn forward(&self, q: &Tensor, kv: &Tensor) -> Tensor {
        let (kp, vp) = self.project_kv(kv);
        self.forward_projected(q, &kp, &vp)
    }

    /// The key and value projections of a `n_kv × dim` key/value sequence.
    /// They depend on `kv` and the `wk`/`wv` weights only, so a fixed
    /// sequence (the schema nodes) can be projected once per pass and
    /// attended by many queries through
    /// [`MultiHeadAttention::forward_projected`]. On the tape, gradients
    /// reach `wk`, `wv` and `kv` through every use of the projections.
    pub fn project_kv(&self, kv: &Tensor) -> (Tensor, Tensor) {
        (self.wk.forward(kv), self.wv.forward(kv))
    }

    /// Attention of `q` over keys `kp` and values `vp` already projected
    /// by [`MultiHeadAttention::project_kv`]; `forward` is that projection
    /// followed by this, so both paths compute the same bits.
    pub fn forward_projected(&self, q: &Tensor, kp: &Tensor, vp: &Tensor) -> Tensor {
        let qp = self.wq.forward(q);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut head_outs: Option<Tensor> = None;
        for h in 0..self.heads {
            let c0 = h * self.head_dim;
            let c1 = c0 + self.head_dim;
            let qh = ops::slice_cols(&qp, c0, c1);
            let kh = ops::slice_cols(kp, c0, c1);
            let vh = ops::slice_cols(vp, c0, c1);
            let scores = ops::scale(&ops::matmul_transpose_b(&qh, &kh), scale);
            let attn = ops::softmax_rows(&scores);
            let out = ops::matmul(&attn, &vh);
            head_outs = Some(match head_outs {
                Some(acc) => ops::concat_cols(&acc, &out),
                None => out,
            });
        }
        self.wo.forward(&head_outs.expect("at least one head"))
    }

    /// Parameters the key/value projections depend on (`wk`, `wv`).
    pub fn kv_params(&self) -> Vec<Tensor> {
        let mut out = self.wk.params();
        out.extend(self.wv.params());
        out
    }

    /// Self-attention convenience wrapper.
    pub fn forward_self(&self, x: &Tensor) -> Tensor {
        self.forward(x, x)
    }

    /// Returns the raw attention weights of the first head for
    /// interpretability (e.g. inspecting query→schema linking). Shape is
    /// `n_q × n_kv`.
    pub fn attention_weights(&self, q: &Tensor, kv: &Tensor) -> Tensor {
        let qp = self.wq.forward(q);
        let kp = self.wk.forward(kv);
        let qh = ops::slice_cols(&qp, 0, self.head_dim);
        let kh = ops::slice_cols(&kp, 0, self.head_dim);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        ops::softmax_rows(&ops::scale(&ops::matmul_transpose_b(&qh, &kh), scale))
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.heads
    }
}

impl Module for MultiHeadAttention {
    fn collect_params(&self, prefix: &str, out: &mut Vec<(String, Tensor)>) {
        self.wq.collect_params(&join(prefix, "wq"), out);
        self.wk.collect_params(&join(prefix, "wk"), out);
        self.wv.collect_params(&join(prefix, "wv"), out);
        self.wo.collect_params(&join(prefix, "wo"), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn self_attention_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(11);
        let attn = MultiHeadAttention::new(8, 2, &mut rng);
        let x = Tensor::constant(Matrix::from_fn(5, 8, |r, c| ((r + c) % 3) as f32 * 0.3));
        assert_eq!(attn.forward_self(&x).shape(), (5, 8));
    }

    #[test]
    fn cross_attention_output_rows_follow_query() {
        let mut rng = StdRng::seed_from_u64(11);
        let attn = MultiHeadAttention::new(4, 1, &mut rng);
        let q = Tensor::constant(Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1));
        let kv = Tensor::constant(Matrix::from_fn(7, 4, |r, c| (r + c) as f32 * 0.05));
        assert_eq!(attn.forward(&q, &kv).shape(), (3, 4));
    }

    #[test]
    fn attention_weights_are_a_distribution() {
        let mut rng = StdRng::seed_from_u64(11);
        let attn = MultiHeadAttention::new(4, 2, &mut rng);
        let q = Tensor::constant(Matrix::from_fn(2, 4, |r, c| (r + c) as f32 * 0.2));
        let kv = Tensor::constant(Matrix::from_fn(5, 4, |r, c| (r * c) as f32 * 0.1));
        let w = attn.attention_weights(&q, &kv).value_clone();
        assert_eq!(w.shape(), (2, 5));
        for r in 0..2 {
            let s: f32 = w.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
            assert!(w.row(r).iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn projected_forward_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(12);
        let attn = MultiHeadAttention::new(8, 2, &mut rng);
        let q = Tensor::constant(Matrix::from_fn(3, 8, |r, c| (r * 8 + c) as f32 * 0.07));
        let kv = Tensor::constant(Matrix::from_fn(6, 8, |r, c| (r + 3 * c) as f32 * 0.03));
        let (kp, vp) = attn.project_kv(&kv);
        assert_eq!(
            attn.forward(&q, &kv).value_clone(),
            attn.forward_projected(&q, &kp, &vp).value_clone()
        );
        assert_eq!(attn.kv_params().len(), 4, "wk and wv, weights and biases");
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_indivisible_heads() {
        let mut rng = StdRng::seed_from_u64(11);
        let _ = MultiHeadAttention::new(6, 4, &mut rng);
    }

    #[test]
    fn gradients_reach_all_projections() {
        let mut rng = StdRng::seed_from_u64(11);
        let attn = MultiHeadAttention::new(4, 2, &mut rng);
        let x = Tensor::constant(Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1));
        ops::sum_all(&attn.forward_self(&x)).backward();
        for (name, p) in attn.named_params("a") {
            assert!(p.grad().is_some(), "no grad for {name}");
        }
    }
}
