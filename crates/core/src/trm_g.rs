//! The `Trm_g` module (§3.5.1, Figure 6): a standard transformer encoder
//! sub-layer (Eq. 6) combined with the query-aware sub-graph transformer
//! (Eq. 5, 7), merged by concatenation (Eq. 8).

use rand::rngs::StdRng;

use preqr_nn::layers::{
    join, FeedForward, LayerNorm, Linear, Module, MultiHeadAttention, TransformerLayer,
};
use preqr_nn::{ops, Tensor};

/// Output of one `Trm_g` layer.
pub struct TrmGOutput {
    /// `n × d` merged representation fed to the next layer.
    pub merged: Tensor,
    /// `e_q`: the standard transformer branch output (`n × d`).
    pub e_q: Tensor,
    /// `e_g`: the query-aware sub-graph branch output (`n × d`), when the
    /// schema module is enabled.
    pub e_g: Option<Tensor>,
}

impl TrmGOutput {
    /// Eq. 8 at the last layer: the final `n × output_dim` representation
    /// `y = Concat(e_q, e_g)` (`e_q` alone without the schema branch).
    pub fn final_rep(self) -> Tensor {
        match self.e_g {
            Some(e_g) => ops::concat_cols(&self.e_q, &e_g),
            None => self.e_q,
        }
    }
}

/// The schema branch's key and value projections of the schema nodes
/// (from [`TrmG::project_nodes`]).
pub type SchemaKv = (Tensor, Tensor);

/// The query-aware sub-graph transformer (red rectangle of Figure 6).
struct SubGraphBranch {
    attn: MultiHeadAttention,
    ln1: LayerNorm,
    ffn: FeedForward,
    ln2: LayerNorm,
    merge: Linear,
}

/// One `Trm_g` layer. The schema nodes enter it only through their
/// key/value projections ([`TrmG::project_nodes`]): they depend on the
/// nodes and the layer's weights alone, so a caller projects them once
/// and runs any number of queries over them with [`TrmG::forward`].
pub struct TrmG {
    trm: TransformerLayer,
    branch: Option<SubGraphBranch>,
}

impl TrmG {
    /// Creates a layer. `with_schema = false` degrades to a plain
    /// transformer layer (the `PreQRNT` ablation).
    pub fn new(d: usize, heads: usize, with_schema: bool, rng: &mut StdRng) -> Self {
        let branch = with_schema.then(|| SubGraphBranch {
            attn: MultiHeadAttention::new(d, heads, rng),
            ln1: LayerNorm::new(d),
            ffn: FeedForward::new(d, d * 2, rng),
            ln2: LayerNorm::new(d),
            merge: Linear::new(2 * d, d, rng),
        });
        Self { trm: TransformerLayer::new(d, heads, rng), branch }
    }

    /// The schema branch's key/value projections of the `|V| × d` schema
    /// vertex matrix from Schema2Graph (`None` for a layer without the
    /// branch). On the tape, gradients flow back through them into the
    /// branch's `wk`/`wv` and into `nodes`.
    pub fn project_nodes(&self, nodes: &Tensor) -> Option<SchemaKv> {
        self.branch.as_ref().map(|b| b.attn.project_kv(nodes))
    }

    /// Parameters the schema key/value projections depend on.
    pub(crate) fn schema_kv_params(&self) -> Vec<Tensor> {
        self.branch.as_ref().map(|b| b.attn.kv_params()).unwrap_or_default()
    }

    /// Forward pass over the `n × d` input `x`. `kv` is this layer's
    /// [`TrmG::project_nodes`] of the schema nodes; required iff the layer
    /// was built with the schema branch.
    pub fn forward(&self, x: &Tensor, kv: Option<&SchemaKv>) -> TrmGOutput {
        let e_q = self.trm.forward(x);
        match (&self.branch, kv) {
            (Some(b), Some((kp, vp))) => {
                // Eq. 5: scaled dot-product attention of the query tokens
                // over the schema graph — soft pruning to the query-aware
                // sub-graph.
                let attended = b.attn.forward_projected(&e_q, kp, vp);
                // Eq. 7: residual + layer norms around the attention and
                // feed-forward sub-layers.
                let e_g = b.ln1.forward(&attended);
                let e_g = b.ln2.forward(&ops::add(&e_g, &b.ffn.forward(&e_g)));
                // Eq. 8 merged back to width d so layers stack.
                let merged = b.merge.forward(&ops::concat_cols(&e_q, &e_g));
                TrmGOutput { merged, e_q, e_g: Some(e_g) }
            }
            (None, _) => TrmGOutput { merged: e_q.clone(), e_q, e_g: None },
            (Some(_), None) => panic!("TrmG built with schema branch requires node states"),
        }
    }

    /// Attention weights of the sub-graph branch's first head
    /// (interpretability: which schema vertices a token links to).
    pub fn schema_attention(&self, x: &Tensor, nodes: &Tensor) -> Option<Tensor> {
        let b = self.branch.as_ref()?;
        let e_q = self.trm.forward(x);
        Some(b.attn.attention_weights(&e_q, nodes))
    }
}

impl Module for TrmG {
    fn collect_params(&self, prefix: &str, out: &mut Vec<(String, Tensor)>) {
        self.trm.collect_params(&join(prefix, "trm"), out);
        if let Some(b) = &self.branch {
            b.attn.collect_params(&join(prefix, "g_attn"), out);
            b.ln1.collect_params(&join(prefix, "g_ln1"), out);
            b.ffn.collect_params(&join(prefix, "g_ffn"), out);
            b.ln2.collect_params(&join(prefix, "g_ln2"), out);
            b.merge.collect_params(&join(prefix, "g_merge"), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preqr_nn::Matrix;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes_with_and_without_schema() {
        let mut rng = StdRng::seed_from_u64(1);
        let with = TrmG::new(8, 2, true, &mut rng);
        let without = TrmG::new(8, 2, false, &mut rng);
        let x = Tensor::constant(Matrix::from_fn(5, 8, |r, c| (r + c) as f32 * 0.1));
        let nodes = Tensor::constant(Matrix::from_fn(7, 8, |r, c| (r * c) as f32 * 0.05));
        let out = with.forward(&x, with.project_nodes(&nodes).as_ref());
        assert_eq!(out.merged.shape(), (5, 8));
        assert_eq!(out.e_q.shape(), (5, 8));
        assert_eq!(out.e_g.as_ref().unwrap().shape(), (5, 8));
        let out2 = without.forward(&x, None);
        assert_eq!(out2.merged.shape(), (5, 8));
        assert!(out2.e_g.is_none());
    }

    #[test]
    #[should_panic(expected = "requires node states")]
    fn schema_layer_requires_nodes() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = TrmG::new(8, 2, true, &mut rng);
        let x = Tensor::constant(Matrix::zeros(2, 8));
        let _ = layer.forward(&x, None);
    }

    #[test]
    fn schema_branch_responds_to_node_changes() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = TrmG::new(8, 2, true, &mut rng);
        let x = Tensor::constant(Matrix::from_fn(3, 8, |r, c| (r + c) as f32 * 0.1));
        let nodes_a = Tensor::constant(Matrix::from_fn(4, 8, |r, c| (r * c) as f32 * 0.1));
        let nodes_b = Tensor::constant(Matrix::from_fn(4, 8, |r, c| (r + 2 * c) as f32 * 0.1));
        let a = layer.forward(&x, layer.project_nodes(&nodes_a).as_ref()).merged.value_clone();
        let b = layer.forward(&x, layer.project_nodes(&nodes_b).as_ref()).merged.value_clone();
        assert_ne!(a, b, "schema content must influence the output");
    }

    #[test]
    fn schema_attention_is_distribution_over_vertices() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = TrmG::new(8, 2, true, &mut rng);
        let x = Tensor::constant(Matrix::from_fn(3, 8, |r, c| (r + c) as f32 * 0.1));
        let nodes = Tensor::constant(Matrix::from_fn(6, 8, |r, c| (r * c) as f32 * 0.1));
        let w = layer.schema_attention(&x, &nodes).unwrap().value_clone();
        assert_eq!(w.shape(), (3, 6));
        for r in 0..3 {
            assert!((w.row(r).iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn gradients_flow_through_both_branches() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = TrmG::new(8, 2, true, &mut rng);
        let x = Tensor::constant(Matrix::from_fn(3, 8, |r, c| (r + c) as f32 * 0.1));
        let nodes = Tensor::param(Matrix::from_fn(4, 8, |r, c| (r * c) as f32 * 0.1));
        let out = layer.forward(&x, layer.project_nodes(&nodes).as_ref());
        ops::sum_all(&out.merged).backward();
        assert!(nodes.grad().is_some(), "schema nodes must receive gradient");
        for (name, p) in layer.named_params("l") {
            assert!(p.grad().is_some(), "no grad for {name}");
        }
    }
}
