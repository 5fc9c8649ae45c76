//! Schema2Graph (§3.4): BiLSTM vertex-name encoding (Eq. 1–2) + R-GCN
//! propagation over the ten-relation schema graph (Eq. 3) + average
//! pooling to the global schema representation `e_G` (Eq. 4).

use std::collections::BTreeMap;

use rand::rngs::StdRng;

use preqr_nn::layers::{join, BiLstm, Embedding, Linear, Module, RelAdjacency, RgcnLayer};
use preqr_nn::{ops, Tensor};
use preqr_schema::graph::{EdgeLabel, SchemaGraph};
use preqr_schema::Schema;
use preqr_sql::vocab::Vocab;

use crate::config::PreqrConfig;

/// The Schema2Graph module.
pub struct Schema2Graph {
    /// Name-token embedding (the paper feeds BERT token embeddings; here
    /// a dedicated name-token table plays that role).
    name_emb: Embedding,
    name_vocab: Vocab,
    name_lstm: BiLstm,
    /// Projects the BiLSTM summary (2×hidden) to `d_model`.
    init_proj: Linear,
    gcn: Vec<RgcnLayer>,
    graph: SchemaGraph,
    adjacency: Vec<RelAdjacency>,
    /// Per-vertex name-token id sequences (cached).
    vertex_tokens: Vec<Vec<usize>>,
}

impl Schema2Graph {
    /// Builds the module from a schema.
    pub fn build(schema: &Schema, config: &PreqrConfig, rng: &mut StdRng) -> Self {
        let graph = SchemaGraph::build(schema);
        let mut name_vocab = Vocab::build(
            graph.vertices().iter().flat_map(|v| v.name_tokens.iter().map(String::as_str)),
            1,
        );
        let vertex_tokens: Vec<Vec<usize>> = graph
            .vertices()
            .iter()
            .map(|v| v.name_tokens.iter().map(|t| name_vocab.add(t)).collect::<Vec<usize>>())
            .collect();
        let adjacency = build_adjacency(&graph);
        let d = config.d_model;
        let hidden = config.name_lstm_hidden;
        let gcn = (0..config.gcn_layers.max(1))
            .map(|_| RgcnLayer::new(d, d, EdgeLabel::ALL.len(), rng))
            .collect();
        Self {
            name_emb: Embedding::new(name_vocab.len(), d, rng),
            name_lstm: BiLstm::new(d, hidden, rng),
            init_proj: Linear::new(2 * hidden, d, rng),
            gcn,
            graph,
            adjacency,
            name_vocab,
            vertex_tokens,
        }
    }

    /// Replaces the schema graph after a schema update (§3.6 Case 2) —
    /// the learned weights are kept, vertex caches are rebuilt.
    pub fn update_schema(&mut self, schema: &Schema) {
        self.graph = SchemaGraph::build(schema);
        self.vertex_tokens = self
            .graph
            .vertices()
            .iter()
            .map(|v| v.name_tokens.iter().map(|t| self.name_vocab.add(t)).collect::<Vec<usize>>())
            .collect();
        // New name tokens may have grown the vocabulary beyond the
        // embedding table; clamp at lookup time instead of resizing, to
        // keep old rows stable.
        self.adjacency = build_adjacency(&self.graph);
    }

    /// The schema graph.
    pub fn graph(&self) -> &SchemaGraph {
        &self.graph
    }

    /// Forward pass: returns the `|V| × d_model` vertex representation
    /// matrix after R-GCN propagation. The global pooled `e_G` (Eq. 4) is
    /// available via [`ops::mean_rows`] of this output.
    pub fn node_states(&self) -> Tensor {
        let mut by_len: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (v, toks) in self.vertex_tokens.iter().enumerate() {
            by_len.entry(toks.len()).or_default().push(v);
        }
        self.node_states_grouped(by_len.into_values())
    }

    /// [`Schema2Graph::node_states`] with the BiLSTM run once per group of
    /// vertices whose names are of equal length: every step of a group of
    /// `k` is one `k × d` operand. Kernel rows do not interact, so the
    /// states do not depend on the grouping, bit for bit.
    fn node_states_grouped(&self, groups: impl IntoIterator<Item = Vec<usize>>) -> Tensor {
        // Initial vertex representations: BiLSTM over name tokens,
        // concat(last-fwd, first-rev), projected to d (Eq. 1–2).
        let max_id = self.name_emb.vocab() - 1;
        let mut summaries = Vec::new();
        let mut row_of = vec![0; self.vertex_tokens.len()];
        let mut rows = 0;
        for group in groups {
            // The group's names, position-major.
            let ids: Vec<usize> = (0..self.vertex_tokens[group[0]].len())
                .flat_map(|t| group.iter().map(move |&v| self.vertex_tokens[v][t].min(max_id)))
                .collect();
            summaries.push(self.name_lstm.encode(&self.name_emb.forward(&ids), group.len()));
            for v in group {
                row_of[v] = rows;
                rows += 1;
            }
        }
        assert!(!summaries.is_empty(), "schema graph has vertices");
        let inits = self.init_proj.forward(&ops::stack_rows(&summaries));
        let mut h = ops::gather_rows(&inits, &row_of);
        for layer in &self.gcn {
            h = layer.forward(&h, &self.adjacency);
        }
        h
    }

    /// Global schema embedding `e_G` (Eq. 4): average pooling over
    /// vertices.
    pub fn global_embedding(&self) -> Tensor {
        ops::mean_rows(&self.node_states())
    }
}

fn build_adjacency(graph: &SchemaGraph) -> Vec<RelAdjacency> {
    graph
        .edges_by_relation()
        .iter()
        .map(|edges| RelAdjacency::from_edges(graph.len(), edges))
        .collect()
}

impl Module for Schema2Graph {
    fn collect_params(&self, prefix: &str, out: &mut Vec<(String, Tensor)>) {
        self.name_emb.collect_params(&join(prefix, "name_emb"), out);
        self.name_lstm.collect_params(&join(prefix, "name_lstm"), out);
        self.init_proj.collect_params(&join(prefix, "init_proj"), out);
        for (i, g) in self.gcn.iter().enumerate() {
            g.collect_params(&join(prefix, &format!("gcn{i}")), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preqr_schema::{Column, ColumnType, ForeignKey, Table};
    use rand::SeedableRng;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_table(Table::new(
            "title",
            vec![
                Column::primary("id", ColumnType::Int),
                Column::new("production_year", ColumnType::Int),
            ],
        ));
        s.add_table(Table::new(
            "movie_companies",
            vec![Column::primary("id", ColumnType::Int), Column::new("movie_id", ColumnType::Int)],
        ));
        s.add_foreign_key(ForeignKey {
            from_table: "movie_companies".into(),
            from_column: "movie_id".into(),
            to_table: "title".into(),
            to_column: "id".into(),
        });
        s
    }

    #[test]
    fn node_states_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let s2g = Schema2Graph::build(&schema(), &PreqrConfig::test(), &mut rng);
        let states = s2g.node_states();
        assert_eq!(states.shape(), (2 + 4, PreqrConfig::test().d_model));
        assert_eq!(s2g.global_embedding().shape(), (1, PreqrConfig::test().d_model));
    }

    #[test]
    fn params_cover_all_submodules_and_receive_grads() {
        let mut rng = StdRng::seed_from_u64(3);
        let s2g = Schema2Graph::build(&schema(), &PreqrConfig::test(), &mut rng);
        ops::sum_all(&s2g.global_embedding()).backward();
        let mut missing = Vec::new();
        for (name, p) in s2g.named_params("s2g") {
            if p.grad().is_none() {
                missing.push(name);
            }
        }
        // Some GCN relation weights legitimately get no gradient when the
        // schema has no edges of that relation; everything else must.
        assert!(
            missing.iter().all(|n| n.contains("w_rel")),
            "unexpected grad-less params: {missing:?}"
        );
    }

    #[test]
    fn schema_update_extends_graph_keeping_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = schema();
        let mut s2g = Schema2Graph::build(&s, &PreqrConfig::test(), &mut rng);
        let before = s2g.graph().len();
        s.add_table(Table::new("keyword", vec![Column::primary("id", ColumnType::Int)]));
        s2g.update_schema(&s);
        assert_eq!(s2g.graph().len(), before + 2);
        // Forward still runs with the enlarged graph.
        assert_eq!(s2g.node_states().shape().0, before + 2);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.value().data().iter().map(|x| x.to_bits()).collect()
    }

    /// The node states with every vertex in a group of its own, so the
    /// BiLSTM runs on one name at a time.
    fn one_vertex_per_group(s2g: &Schema2Graph) -> Tensor {
        s2g.node_states_grouped((0..s2g.graph().len()).map(|v| vec![v]))
    }

    fn name_lengths(s2g: &Schema2Graph) -> std::collections::BTreeSet<usize> {
        s2g.vertex_tokens.iter().map(Vec::len).collect()
    }

    /// Names of one to three tokens, plus a table of sixteen two-token
    /// columns: wide enough for the packed matmul kernel at the small
    /// config. The grouped states match one vertex per group bit for
    /// bit, before and after a schema update adds a fourth length.
    #[test]
    fn grouped_node_states_match_one_vertex_per_group_bitwise() {
        for config in [PreqrConfig::test(), PreqrConfig::small()] {
            let mut s = schema();
            let wide = (0..16).map(|i| Column::new(format!("c{i}"), ColumnType::Int)).collect();
            s.add_table(Table::new("wide", wide));
            let mut rng = StdRng::seed_from_u64(9);
            let mut s2g = Schema2Graph::build(&s, &config, &mut rng);
            assert_eq!(name_lengths(&s2g), [1, 2, 3].into());
            assert_eq!(bits(&s2g.node_states()), bits(&one_vertex_per_group(&s2g)));

            s.add_table(Table::new(
                "movie_info_idx",
                vec![Column::new("info_type_id", ColumnType::Int)],
            ));
            s2g.update_schema(&s);
            assert_eq!(name_lengths(&s2g), [1, 2, 3, 4].into());
            assert_eq!(bits(&s2g.node_states()), bits(&one_vertex_per_group(&s2g)));
        }
    }

    #[test]
    fn related_vertices_are_closer_than_unrelated_after_propagation() {
        // Not a learned property — just checks propagation mixes related
        // vertices' features (fk-linked columns see each other).
        let mut rng = StdRng::seed_from_u64(5);
        let s2g = Schema2Graph::build(&schema(), &PreqrConfig::test(), &mut rng);
        let states = s2g.node_states().value_clone();
        assert!(states.data().iter().any(|&x| x != 0.0), "states must be non-trivial");
    }
}
