//! Model configuration.

/// Hyper-parameters of the PreQR model (paper defaults: L=4, H=256, A=4,
/// ~40 M parameters; the CPU-scale presets shrink H for tractable
/// single-core pre-training — Table 13 sweeps these knobs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PreqrConfig {
    /// Transformer hidden size (`H`, `d_model`).
    pub d_model: usize,
    /// Number of `Trm_g` layers (`L`).
    pub layers: usize,
    /// Attention heads (`A`).
    pub heads: usize,
    /// Maximum sequence length (positions beyond this are clamped).
    pub max_seq: usize,
    /// Per-column value-range buckets (§3.3.2).
    pub value_buckets: usize,
    /// MLM masking probability.
    pub mask_prob: f32,
    /// Dropout probability during pre-training.
    pub dropout: f32,
    /// Include the automaton state embedding (ablation `PreQRNA` sets
    /// this to `false`).
    pub use_automaton: bool,
    /// Include the query-aware schema module `Trm_g` (ablation `PreQRNT`
    /// sets this to `false`).
    pub use_schema: bool,
    /// R-GCN propagation layers in Schema2Graph.
    pub gcn_layers: usize,
    /// BiLSTM hidden size for vertex-name encoding (output is `2×` this;
    /// it is projected to `d_model`).
    pub name_lstm_hidden: usize,
    /// RNG seed for weight initialization and masking.
    pub seed: u64,
}

impl PreqrConfig {
    /// The paper's configuration (L=4, H=256, A=4).
    pub fn paper() -> Self {
        Self { d_model: 256, layers: 4, heads: 4, ..Self::small() }
    }

    /// CPU-scale default used by the reproduction driver.
    pub fn small() -> Self {
        Self {
            d_model: 64,
            layers: 2,
            heads: 4,
            max_seq: 128,
            value_buckets: 16,
            mask_prob: 0.15,
            dropout: 0.1,
            use_automaton: true,
            use_schema: true,
            gcn_layers: 2,
            name_lstm_hidden: 16,
            seed: 42,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn test() -> Self {
        Self {
            d_model: 32,
            layers: 1,
            heads: 2,
            gcn_layers: 1,
            name_lstm_hidden: 8,
            ..Self::small()
        }
    }

    /// Ablation: PreQR without the automaton state embedding.
    pub fn without_automaton(mut self) -> Self {
        self.use_automaton = false;
        self
    }

    /// Ablation: PreQR without the query-aware schema module (`Trm_g`
    /// degrades to a plain transformer).
    pub fn without_schema(mut self) -> Self {
        self.use_schema = false;
        self
    }

    /// Ablation: plain BERT — neither automaton nor schema.
    pub fn bert_only(self) -> Self {
        self.without_automaton().without_schema()
    }

    /// Output width of the encoder: `Trm_g` concatenates `e_q` with `e_g`
    /// (Eq. 8), so the final representation is `2 × d_model` when the
    /// schema module is enabled.
    pub fn output_dim(&self) -> usize {
        if self.use_schema {
            2 * self.d_model
        } else {
            self.d_model
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_4_3() {
        let c = PreqrConfig::paper();
        assert_eq!((c.layers, c.d_model, c.heads), (4, 256, 4));
        assert!((c.mask_prob - 0.15).abs() < 1e-6);
    }

    #[test]
    fn ablations_toggle_flags() {
        let c = PreqrConfig::test();
        assert!(!c.without_automaton().use_automaton);
        assert!(!c.without_schema().use_schema);
        let b = c.bert_only();
        assert!(!b.use_automaton && !b.use_schema);
    }

    #[test]
    fn output_dim_doubles_with_schema() {
        let c = PreqrConfig::test();
        assert_eq!(c.output_dim(), 2 * c.d_model);
        assert_eq!(c.without_schema().output_dim(), c.d_model);
    }
}
