//! SQL-to-Text baselines (§4.3.3): Seq2Seq (Bahdanau-style attention),
//! Seq2Seq+cp (copy mechanism), Seq2Seq+cp+lv (latent variable),
//! Tree2Seq (AST encoder), and Graph2Seq (query-graph encoder). All share
//! the same attentional RNN decoder; PreQR2Seq plugs the PreQR encoder
//! into the same decoder (wired in `preqr-tasks`).

use std::collections::HashMap;

use rand::rngs::StdRng;

use preqr_nn::layers::{
    join, BiLstm, Embedding, Linear, LstmCell, Module, RelAdjacency, RgcnLayer,
};
use preqr_nn::{init, ops, Matrix, Tensor};
use preqr_sql::ast::{Expr, Query};
use preqr_sql::normalize::linearize;

/// Target-side vocabulary with `[PAD]/[BOS]/[EOS]/[UNK]` specials.
#[derive(Clone, Debug)]
pub struct TextVocab {
    ids: HashMap<String, usize>,
    words: Vec<String>,
}

/// Beginning-of-sequence id.
pub const BOS: usize = 1;
/// End-of-sequence id.
pub const EOS: usize = 2;
/// Unknown-word id.
pub const UNK: usize = 3;

impl TextVocab {
    /// Builds from target word lists.
    pub fn build<'a>(words: impl IntoIterator<Item = &'a str>) -> Self {
        let mut v = Self { ids: HashMap::new(), words: Vec::new() };
        for s in ["[PAD]", "[BOS]", "[EOS]", "[UNK]"] {
            v.add(s);
        }
        for w in words {
            v.add(w);
        }
        v
    }

    fn add(&mut self, w: &str) -> usize {
        match self.ids.get(w) {
            Some(&i) => i,
            None => {
                let i = self.words.len();
                self.ids.insert(w.to_string(), i);
                self.words.push(w.to_string());
                i
            }
        }
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when only the specials exist.
    pub fn is_empty(&self) -> bool {
        self.words.len() <= 4
    }

    /// Id of a word (UNK fallback).
    pub fn id(&self, w: &str) -> usize {
        self.ids.get(w).copied().unwrap_or(UNK)
    }

    /// Word of an id.
    pub fn word(&self, id: usize) -> &str {
        self.words.get(id).map_or("[UNK]", String::as_str)
    }

    /// Encodes a sentence (no specials).
    pub fn encode(&self, sentence: &[String]) -> Vec<usize> {
        sentence.iter().map(|w| self.id(w)).collect()
    }

    /// Decodes ids, stopping at EOS and skipping specials.
    pub fn decode(&self, ids: &[usize]) -> Vec<String> {
        let mut out = Vec::new();
        for &i in ids {
            if i == EOS {
                break;
            }
            if i > UNK {
                out.push(self.word(i).to_string());
            }
        }
        out
    }
}

/// Encoded query memory handed to the decoder.
pub struct EncodedSource {
    /// `n × d` memory the decoder attends over.
    pub memory: Tensor,
    /// `1 × d` initial decoder context.
    pub init: Tensor,
    /// Per-memory-row target-vocabulary id (for the copy mechanism);
    /// `UNK` when a source token has no target-side counterpart.
    pub copy_ids: Vec<usize>,
}

/// A query encoder for SQL-to-Text.
pub trait TextEncoder {
    /// Encodes a query.
    fn encode(&self, q: &Query) -> EncodedSource;
    /// Trainable parameters.
    fn encoder_params(&self) -> Vec<Tensor>;
}

/// Source-side vocabulary shared by the sequence/tree/graph encoders.
#[derive(Clone, Debug)]
pub struct SourceVocab {
    ids: HashMap<String, usize>,
}

impl SourceVocab {
    /// Builds from a query corpus (linearized token texts).
    pub fn build(corpus: &[Query]) -> Self {
        let mut ids = HashMap::new();
        ids.insert("[UNK]".to_string(), 0);
        for q in corpus {
            for t in linearize(q) {
                let next = ids.len();
                ids.entry(t.text).or_insert(next);
            }
        }
        Self { ids }
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when only `[UNK]` exists.
    pub fn is_empty(&self) -> bool {
        self.ids.len() <= 1
    }

    /// Token id with UNK fallback.
    pub fn id(&self, t: &str) -> usize {
        self.ids.get(t).copied().unwrap_or(0)
    }
}

/// Copy-target ids: source tokens whose literal text appears in the
/// target vocabulary can be copied verbatim (numbers, category names).
fn copy_ids_for(q: &Query, tv: &TextVocab) -> Vec<usize> {
    linearize(q)
        .iter()
        .map(|t| {
            let text = t.text.trim_matches('\'');
            tv.ids.get(text).copied().unwrap_or(UNK)
        })
        .collect()
}

/// The basic attention Seq2Seq encoder: BiLSTM over the token sequence.
pub struct LstmTextEncoder {
    vocab: SourceVocab,
    emb: Embedding,
    lstm: BiLstm,
    proj: Linear,
    init_proj: Linear,
    tv: TextVocab,
}

impl LstmTextEncoder {
    /// Builds the encoder.
    pub fn new(corpus: &[Query], tv: &TextVocab, d: usize, rng: &mut StdRng) -> Self {
        let vocab = SourceVocab::build(corpus);
        let hidden = d / 2;
        Self {
            emb: Embedding::new(vocab.len(), d, rng),
            lstm: BiLstm::new(d, hidden, rng),
            proj: Linear::new(2 * hidden, d, rng),
            init_proj: Linear::new(2 * hidden, d, rng),
            vocab,
            tv: tv.clone(),
        }
    }
}

impl TextEncoder for LstmTextEncoder {
    fn encode(&self, q: &Query) -> EncodedSource {
        let ids: Vec<usize> = linearize(q).iter().map(|t| self.vocab.id(&t.text)).collect();
        let emb = self.emb.forward(&ids);
        let outputs = self.lstm.outputs(&emb);
        let memory = self.proj.forward(&outputs);
        let init = self.init_proj.forward(&self.lstm.encode(&emb, 1));
        EncodedSource { memory, init, copy_ids: copy_ids_for(q, &self.tv) }
    }

    fn encoder_params(&self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.emb.collect_params("emb", &mut out);
        self.lstm.collect_params("lstm", &mut out);
        self.proj.collect_params("proj", &mut out);
        self.init_proj.collect_params("init", &mut out);
        out.into_iter().map(|(_, t)| t).collect()
    }
}

/// Tree2Seq: encodes the AST bottom-up; each node's vector is
/// `tanh(W [label-emb ; mean(children)])`. Sibling information is lost —
/// the weakness §4.6 discusses.
pub struct TreeTextEncoder {
    vocab: SourceVocab,
    emb: Embedding,
    compose: Linear,
    tv: TextVocab,
}

impl TreeTextEncoder {
    /// Builds the encoder.
    pub fn new(corpus: &[Query], tv: &TextVocab, d: usize, rng: &mut StdRng) -> Self {
        let vocab = SourceVocab::build(corpus);
        Self {
            emb: Embedding::new(vocab.len(), d, rng),
            compose: Linear::new(2 * d, d, rng),
            vocab,
            tv: tv.clone(),
        }
    }

    fn node(&self, label: &str, children: Vec<Tensor>) -> Tensor {
        let d = self.compose.out_dim();
        let lab = self.emb.forward(&[self.vocab.id(label)]);
        let kids = if children.is_empty() {
            Tensor::constant(Matrix::zeros(1, d))
        } else {
            ops::mean_rows(&ops::stack_rows(&children))
        };
        ops::tanh(&self.compose.forward(&ops::concat_cols(&lab, &kids)))
    }

    fn encode_expr(&self, e: &Expr, nodes: &mut Vec<Tensor>) -> Tensor {
        let v = match e {
            Expr::And(a, b) => {
                let ca = self.encode_expr(a, nodes);
                let cb = self.encode_expr(b, nodes);
                self.node("AND", vec![ca, cb])
            }
            Expr::Or(a, b) => {
                let ca = self.encode_expr(a, nodes);
                let cb = self.encode_expr(b, nodes);
                self.node("OR", vec![ca, cb])
            }
            Expr::Not(a) => {
                let c = self.encode_expr(a, nodes);
                self.node("NOT", vec![c])
            }
            Expr::Cmp { left, op, right } => {
                let l = self.node(&left.to_string(), vec![]);
                let r = self.node(&right.to_string(), vec![]);
                self.node(op.as_str(), vec![l, r])
            }
            other => self.node(&other.to_string(), vec![]),
        };
        nodes.push(v.clone());
        v
    }
}

impl TextEncoder for TreeTextEncoder {
    fn encode(&self, q: &Query) -> EncodedSource {
        let mut nodes: Vec<Tensor> = Vec::new();
        let mut roots: Vec<Tensor> = Vec::new();
        for s in q.selects() {
            let mut children = Vec::new();
            for item in &s.projections {
                let leaf = self.node(&item.to_string(), vec![]);
                nodes.push(leaf.clone());
                children.push(leaf);
            }
            for t in s.tables() {
                let leaf = self.node(&t.table, vec![]);
                nodes.push(leaf.clone());
                children.push(leaf);
            }
            if let Some(w) = &s.where_clause {
                children.push(self.encode_expr(w, &mut nodes));
            }
            let root = self.node("SELECT", children);
            nodes.push(root.clone());
            roots.push(root);
        }
        let init = if roots.len() == 1 {
            roots[0].clone()
        } else {
            ops::mean_rows(&ops::stack_rows(&roots))
        };
        let memory = ops::stack_rows(&nodes);
        // The tree has no 1:1 token alignment; copying is not available
        // (matches Tree2Seq's design).
        let copy_ids = vec![UNK; nodes.len()];
        let _ = &self.tv;
        EncodedSource { memory, init, copy_ids }
    }

    fn encoder_params(&self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.emb.collect_params("emb", &mut out);
        self.compose.collect_params("compose", &mut out);
        out.into_iter().map(|(_, t)| t).collect()
    }
}

/// Graph2Seq: the query as a token graph (sequence edges + clause
/// co-membership edges), encoded with a 2-layer GCN.
pub struct GraphTextEncoder {
    vocab: SourceVocab,
    emb: Embedding,
    gcn1: RgcnLayer,
    gcn2: RgcnLayer,
    tv: TextVocab,
}

impl GraphTextEncoder {
    /// Builds the encoder.
    pub fn new(corpus: &[Query], tv: &TextVocab, d: usize, rng: &mut StdRng) -> Self {
        let vocab = SourceVocab::build(corpus);
        Self {
            emb: Embedding::new(vocab.len(), d, rng),
            gcn1: RgcnLayer::new(d, d, 2, rng),
            gcn2: RgcnLayer::new(d, d, 2, rng),
            vocab,
            tv: tv.clone(),
        }
    }
}

impl TextEncoder for GraphTextEncoder {
    fn encode(&self, q: &Query) -> EncodedSource {
        let toks = linearize(q);
        let n = toks.len();
        let ids: Vec<usize> = toks.iter().map(|t| self.vocab.id(&t.text)).collect();
        // Relation 0: sequence adjacency (both directions). Relation 1:
        // same clause-region co-membership.
        let mut seq_edges = Vec::new();
        for i in 1..n {
            seq_edges.push((i - 1, i));
            seq_edges.push((i, i - 1));
        }
        let mut clause_edges = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j && toks[i].key.region == toks[j].key.region {
                    clause_edges.push((i, j));
                }
            }
        }
        let adjs = vec![
            RelAdjacency::from_edges(n, &seq_edges),
            RelAdjacency::from_edges(n, &clause_edges),
        ];
        let x = self.emb.forward(&ids);
        let h = self.gcn2.forward(&self.gcn1.forward(&x, &adjs), &adjs);
        let init = ops::mean_rows(&h);
        EncodedSource { memory: h, init, copy_ids: copy_ids_for(q, &self.tv) }
    }

    fn encoder_params(&self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.emb.collect_params("emb", &mut out);
        self.gcn1.collect_params("g1", &mut out);
        self.gcn2.collect_params("g2", &mut out);
        out.into_iter().map(|(_, t)| t).collect()
    }
}

/// Decoder options.
#[derive(Clone, Copy, Debug, Default)]
pub struct DecoderOptions {
    /// Enable the copy mechanism (+cp).
    pub copy: bool,
    /// Enable the latent-variable bottleneck (+lv).
    pub latent: bool,
}

/// The shared attentional RNN decoder.
pub struct RnnDecoder {
    emb: Embedding,
    cell: LstmCell,
    out: Linear,
    copy_gate: Option<Linear>,
    latent: Option<Linear>,
    d: usize,
    vocab_size: usize,
    options: DecoderOptions,
}

impl RnnDecoder {
    /// Builds a decoder over target vocabulary `tv` with memory width `d`.
    pub fn new(tv: &TextVocab, d: usize, options: DecoderOptions, rng: &mut StdRng) -> Self {
        Self {
            emb: Embedding::new(tv.len(), d, rng),
            cell: LstmCell::new(2 * d, d, rng),
            out: Linear::new(2 * d, tv.len(), rng),
            copy_gate: options.copy.then(|| Linear::new(2 * d, 1, rng)),
            latent: options.latent.then(|| Linear::new(d, d, rng)),
            d,
            vocab_size: tv.len(),
            options,
        }
    }

    fn init_state(&self, src: &EncodedSource, training: bool, rng: &mut StdRng) -> Tensor {
        match &self.latent {
            Some(l) => {
                // +lv: a tanh bottleneck with train-time Gaussian noise —
                // the latent-variable trick in its simplest form.
                let z = ops::tanh(&l.forward(&src.init));
                if training {
                    let noise = Tensor::constant(init::normal(1, self.d, 0.05, rng));
                    ops::add(&z, &noise)
                } else {
                    z
                }
            }
            None => ops::identity(&src.init),
        }
    }

    /// One decode step: returns `(probabilities 1 × V, next h, next c)`.
    fn step(
        &self,
        src: &EncodedSource,
        prev_word: usize,
        h: &Tensor,
        c: &Tensor,
        copy_matrix: Option<&Matrix>,
    ) -> (Tensor, Tensor, Tensor) {
        // Dot-product attention of the state over the memory.
        let scores = ops::matmul_transpose_b(h, &src.memory);
        let attn = ops::softmax_rows(&scores);
        let context = ops::matmul(&attn, &src.memory);
        let emb = self.emb.forward(&[prev_word]);
        let x = ops::concat_cols(&emb, &context);
        let (h2, c2) = self.cell.step(&x, h, c);
        let features = ops::concat_cols(&h2, &context);
        let gen_probs = ops::softmax_rows(&self.out.forward(&features));
        let probs = match (&self.copy_gate, copy_matrix) {
            (Some(gate), Some(cm)) => {
                // +cp: mixture of generation and copy distributions.
                let g = ops::sigmoid(&gate.forward(&features)); // 1×1
                let ones = Tensor::constant(Matrix::full(1, self.vocab_size, 1.0));
                let g_row = ops::matmul(&g, &ones);
                let inv_row = ops::sub(&ones, &g_row);
                let copy_probs = ops::matmul(&attn, &Tensor::constant(cm.clone()));
                ops::add(&ops::mul(&inv_row, &gen_probs), &ops::mul(&g_row, &copy_probs))
            }
            _ => gen_probs,
        };
        (probs, h2, c2)
    }

    fn copy_matrix(&self, src: &EncodedSource) -> Option<Matrix> {
        if !self.options.copy {
            return None;
        }
        let n = src.copy_ids.len();
        let mut m = Matrix::zeros(n, self.vocab_size);
        for (i, &id) in src.copy_ids.iter().enumerate() {
            m.set(i, id.min(self.vocab_size - 1), 1.0);
        }
        Some(m)
    }

    /// Teacher-forced training loss (mean token NLL) for one pair.
    pub fn loss(
        &self,
        src: &EncodedSource,
        target: &[usize],
        training: bool,
        rng: &mut StdRng,
    ) -> Tensor {
        let cm = self.copy_matrix(src);
        let mut h = self.init_state(src, training, rng);
        let mut c = Tensor::constant(Matrix::zeros(1, self.d));
        let mut prev = BOS;
        let mut total: Option<Tensor> = None;
        let mut steps = 0.0f32;
        for &t in target.iter().chain(std::iter::once(&EOS)) {
            let (probs, h2, c2) = self.step(src, prev, &h, &c, cm.as_ref());
            // NLL of the gold token from the probability row.
            let mut onehot = Matrix::zeros(1, self.vocab_size);
            onehot.set(0, t.min(self.vocab_size - 1), 1.0);
            let p_t = ops::sum_all(&ops::mul(&probs, &Tensor::constant(onehot)));
            let nll = ops::scale(&ops::ln(&p_t), -1.0);
            total = Some(match total {
                Some(acc) => ops::add(&acc, &nll),
                None => nll,
            });
            steps += 1.0;
            h = h2;
            c = c2;
            prev = t;
        }
        ops::scale(&total.expect("non-empty target"), 1.0 / steps)
    }

    /// Greedy decoding.
    pub fn generate(&self, src: &EncodedSource, max_len: usize) -> Vec<usize> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut h = self.init_state(src, false, &mut rng);
        let mut c = Tensor::constant(Matrix::zeros(1, self.d));
        let cm = self.copy_matrix(src);
        let mut prev = BOS;
        let mut out = Vec::new();
        for _ in 0..max_len {
            let (probs, h2, c2) = self.step(src, prev, &h, &c, cm.as_ref());
            let v = probs.value_clone();
            let next = v
                .row(0)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probs"))
                .map(|(i, _)| i)
                .expect("non-empty vocab");
            if next == EOS {
                break;
            }
            out.push(next);
            prev = next;
            h = h2;
            c = c2;
        }
        out
    }
}

use rand::SeedableRng;

impl Module for RnnDecoder {
    fn collect_params(&self, prefix: &str, out: &mut Vec<(String, Tensor)>) {
        self.emb.collect_params(&join(prefix, "emb"), out);
        self.cell.collect_params(&join(prefix, "cell"), out);
        self.out.collect_params(&join(prefix, "out"), out);
        if let Some(g) = &self.copy_gate {
            g.collect_params(&join(prefix, "copy_gate"), out);
        }
        if let Some(l) = &self.latent {
            l.collect_params(&join(prefix, "latent"), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preqr_sql::parser::parse;
    use preqr_train::{FnTask, Plan, StepOutput, Trainer, TrainerConfig};
    use rand::SeedableRng;

    fn corpus() -> Vec<Query> {
        vec![
            parse("SELECT COUNT(*) FROM customer WHERE balance > 500").unwrap(),
            parse("SELECT COUNT(*) FROM customer WHERE balance > 100").unwrap(),
            parse("SELECT name FROM item WHERE category = 'food'").unwrap(),
        ]
    }

    fn tv() -> TextVocab {
        TextVocab::build([
            "how",
            "many",
            "customers",
            "with",
            "balance",
            "greater",
            "than",
            "500",
            "100",
            "list",
            "names",
            "of",
            "items",
            "category",
            "food",
        ])
    }

    #[test]
    fn text_vocab_round_trip() {
        let v = tv();
        let ids = v.encode(&["how".into(), "many".into(), "zzz".into()]);
        assert_eq!(ids[2], UNK);
        assert_eq!(v.decode(&[ids[0], ids[1], EOS, 999]), vec!["how", "many"]);
    }

    #[test]
    fn all_encoders_produce_memory_and_init() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = corpus();
        let v = tv();
        let encs: Vec<Box<dyn TextEncoder>> = vec![
            Box::new(LstmTextEncoder::new(&c, &v, 16, &mut rng)),
            Box::new(TreeTextEncoder::new(&c, &v, 16, &mut rng)),
            Box::new(GraphTextEncoder::new(&c, &v, 16, &mut rng)),
        ];
        for e in &encs {
            let src = e.encode(&c[0]);
            assert_eq!(src.init.shape().0, 1);
            assert_eq!(src.init.shape().1, 16);
            assert!(src.memory.shape().0 > 1);
            assert_eq!(src.memory.shape().1, 16);
            assert_eq!(src.copy_ids.len(), src.memory.shape().0);
            assert!(!e.encoder_params().is_empty());
        }
    }

    #[test]
    fn copy_ids_map_literals_to_target_vocab() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = corpus();
        let v = tv();
        let enc = LstmTextEncoder::new(&c, &v, 16, &mut rng);
        let src = enc.encode(&c[0]);
        // "500" appears in the target vocabulary, so some copy id must be
        // a real word id (not UNK).
        assert!(src.copy_ids.iter().any(|&i| i > UNK));
    }

    #[test]
    fn decoder_loss_and_generation_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let c = corpus();
        let v = tv();
        let enc = LstmTextEncoder::new(&c, &v, 16, &mut rng);
        for opts in [
            DecoderOptions::default(),
            DecoderOptions { copy: true, latent: false },
            DecoderOptions { copy: true, latent: true },
        ] {
            let dec = RnnDecoder::new(&v, 16, opts, &mut rng);
            let src = enc.encode(&c[0]);
            let target = v.encode(&["how".into(), "many".into(), "customers".into()]);
            let loss = dec.loss(&src, &target, true, &mut rng);
            assert!(loss.value_clone().get(0, 0) > 0.0);
            let gen = dec.generate(&src, 8);
            assert!(gen.len() <= 8);
        }
    }

    #[test]
    fn decoder_memorizes_tiny_dataset() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = corpus();
        let v = tv();
        let enc = LstmTextEncoder::new(&c, &v, 16, &mut rng);
        let dec = RnnDecoder::new(&v, 16, DecoderOptions::default(), &mut rng);
        let targets: Vec<Vec<usize>> = vec![
            v.encode(&["how".into(), "many".into(), "customers".into(), "500".into()]),
            v.encode(&["how".into(), "many".into(), "customers".into(), "100".into()]),
            v.encode(&["list".into(), "names".into(), "of".into(), "items".into()]),
        ];
        let mut params = enc.encoder_params();
        params.extend(dec.params());
        let mut task = FnTask::new("test.seq2seq", c.len(), params, |idx, rng| {
            let src = enc.encode(&c[idx]);
            let loss = dec.loss(&src, &targets[idx], true, rng);
            let scalar = f64::from(loss.value_clone().get(0, 0));
            loss.backward();
            StepOutput { loss: scalar, ..StepOutput::default() }
        });
        let config =
            TrainerConfig::new(Plan::Epochs { epochs: 60, chunk: c.len(), shuffle: false }, 1e-2);
        Trainer::new(config).fit(&mut task, &mut rng);
        let mut correct = 0;
        for (q, t) in c.iter().zip(&targets) {
            let gen = dec.generate(&enc.encode(q), 6);
            if gen == *t {
                correct += 1;
            }
        }
        assert!(correct >= 2, "decoder failed to memorize: {correct}/3");
    }
}
