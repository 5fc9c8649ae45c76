//! Relational graph convolution (Eq. 3 of the paper).
//!
//! `h_i^{l+1} = σ( Σ_r Σ_{j ∈ N_i^r} (1/λ_{i,r}) W_r h_j^l  +  W_self h_i^l )`
//!
//! The normalization constant λ is `|N_i^r|` as suggested by the paper; the
//! self-connection edge the paper adds per vertex is the `W_self` term.

use std::sync::Arc;

use rand::Rng;

use crate::init;
use crate::layers::{join, Module};
use crate::ops;
use crate::tensor::Tensor;

/// Pre-normalized adjacency for one relation type: `adj[i]` lists the
/// weighted in-neighbours of vertex `i`.
#[derive(Clone, Debug, Default)]
pub struct RelAdjacency {
    adj: Arc<Vec<Vec<(usize, f32)>>>,
}

impl RelAdjacency {
    /// Builds a normalized adjacency over `n` vertices from directed edges
    /// `(src, dst)`; each in-neighbour of `dst` gets weight `1/|N_dst|`.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut lists: Vec<Vec<(usize, f32)>> = vec![Vec::new(); n];
        for &(src, dst) in edges {
            assert!(src < n && dst < n, "edge ({src},{dst}) out of range for {n} vertices");
            lists[dst].push((src, 1.0));
        }
        for nbrs in &mut lists {
            let lambda = nbrs.len() as f32;
            if lambda > 0.0 {
                for (_, w) in nbrs.iter_mut() {
                    *w = 1.0 / lambda;
                }
            }
        }
        Self { adj: Arc::new(lists) }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Total number of stored (normalized) edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    pub(crate) fn lists(&self) -> Arc<Vec<Vec<(usize, f32)>>> {
        Arc::clone(&self.adj)
    }
}

/// One R-GCN layer with per-relation weight matrices plus a self-loop
/// weight.
pub struct RgcnLayer {
    w_rel: Vec<Tensor>,
    w_self: Tensor,
    relations: usize,
}

impl RgcnLayer {
    /// Creates a layer mapping `in_dim` vertex states to `out_dim`, with
    /// one weight matrix per relation type.
    pub fn new(in_dim: usize, out_dim: usize, relations: usize, rng: &mut impl Rng) -> Self {
        let w_rel = (0..relations)
            .map(|_| Tensor::param(init::xavier_uniform(in_dim, out_dim, rng)))
            .collect();
        Self { w_rel, w_self: Tensor::param(init::xavier_uniform(in_dim, out_dim, rng)), relations }
    }

    /// Forward pass: `h` is `n × in_dim`, `adjs` has one adjacency per
    /// relation (same vertex count), output is `relu`-activated `n × out_dim`.
    ///
    /// # Panics
    /// Panics if `adjs.len()` differs from the layer's relation count.
    pub fn forward(&self, h: &Tensor, adjs: &[RelAdjacency]) -> Tensor {
        assert_eq!(adjs.len(), self.relations, "relation count mismatch");
        let mut acc = ops::matmul(h, &self.w_self);
        for (w, adj) in self.w_rel.iter().zip(adjs.iter()) {
            if adj.edge_count() == 0 {
                continue;
            }
            let agg = ops::neighbor_agg(h, adj.lists());
            acc = ops::add(&acc, &ops::matmul(&agg, w));
        }
        ops::relu(&acc)
    }

    /// Number of relation types.
    pub fn relations(&self) -> usize {
        self.relations
    }
}

impl Module for RgcnLayer {
    fn collect_params(&self, prefix: &str, out: &mut Vec<(String, Tensor)>) {
        for (i, w) in self.w_rel.iter().enumerate() {
            out.push((join(prefix, &format!("w_rel{i}")), w.clone()));
        }
        out.push((join(prefix, "w_self"), self.w_self.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn adjacency_normalizes_by_in_degree() {
        let adj = RelAdjacency::from_edges(3, &[(0, 2), (1, 2), (2, 0)]);
        let lists = adj.lists();
        assert_eq!(lists[2], vec![(0, 0.5), (1, 0.5)]);
        assert_eq!(lists[0], vec![(2, 1.0)]);
        assert!(lists[1].is_empty());
        assert_eq!(adj.edge_count(), 3);
    }

    #[test]
    fn forward_shape_and_isolated_vertices() {
        let mut rng = StdRng::seed_from_u64(41);
        let layer = RgcnLayer::new(4, 6, 2, &mut rng);
        let h = Tensor::constant(Matrix::from_fn(5, 4, |r, c| (r + c) as f32 * 0.1));
        let adjs =
            vec![RelAdjacency::from_edges(5, &[(0, 1), (1, 2)]), RelAdjacency::from_edges(5, &[])];
        let out = layer.forward(&h, &adjs);
        assert_eq!(out.shape(), (5, 6));
    }

    #[test]
    fn information_propagates_along_edges() {
        let mut rng = StdRng::seed_from_u64(41);
        let layer = RgcnLayer::new(2, 2, 1, &mut rng);
        // Force positive weights so the ReLU cannot mask the propagation.
        for (_, p) in layer.named_params("") {
            let (r, c) = p.shape();
            p.set_value(Matrix::full(r, c, 0.5));
        }
        // Vertex 1 receives from vertex 0. Changing vertex 0's features must
        // change vertex 1's output; vertex 2 is isolated and must not change.
        let base = Matrix::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        let mut changed = base.clone();
        changed.set(0, 0, 5.0);
        let adjs = vec![RelAdjacency::from_edges(3, &[(0, 1)])];
        let out_a = layer.forward(&Tensor::constant(base), &adjs).value_clone();
        let out_b = layer.forward(&Tensor::constant(changed), &adjs).value_clone();
        assert_ne!(out_a.row(1), out_b.row(1), "edge should propagate change");
        assert_eq!(out_a.row(2), out_b.row(2), "isolated vertex must be unaffected");
    }

    #[test]
    #[should_panic(expected = "relation count mismatch")]
    fn rejects_wrong_relation_count() {
        let mut rng = StdRng::seed_from_u64(41);
        let layer = RgcnLayer::new(2, 2, 2, &mut rng);
        let h = Tensor::constant(Matrix::zeros(1, 2));
        let _ = layer.forward(&h, &[RelAdjacency::from_edges(1, &[])]);
    }

    #[test]
    fn gradients_reach_relation_weights() {
        let mut rng = StdRng::seed_from_u64(41);
        let layer = RgcnLayer::new(3, 3, 2, &mut rng);
        let h = Tensor::constant(Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.1 + 0.1));
        let adjs = vec![
            RelAdjacency::from_edges(4, &[(0, 1), (2, 3)]),
            RelAdjacency::from_edges(4, &[(3, 0)]),
        ];
        ops::sum_all(&layer.forward(&h, &adjs)).backward();
        for (name, p) in layer.named_params("g") {
            assert!(p.grad().is_some(), "missing grad for {name}");
        }
    }
}
