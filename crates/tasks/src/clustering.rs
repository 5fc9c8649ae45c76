//! The query-clustering task (§4.4): BetaCV over the labelled datasets
//! and NDCG / group-distance analysis on the CH workload (Table 7 top,
//! Figure 7).

use rand::rngs::StdRng;
use rand::SeedableRng;

use preqr::SqlBert;
use preqr_baselines::cluster_sims::{
    aligon_similarity, aouiche_similarity, column_universe, cosine, makiyama_similarity,
};
use preqr_baselines::mscn::{MscnFeaturizer, MscnModel};
use preqr_baselines::seq2seq::{
    DecoderOptions, LstmTextEncoder, RnnDecoder, TextEncoder, TextVocab,
};
use preqr_data::clustering::{ChWorkload, PairKind};
use preqr_engine::Database;
use preqr_nn::layers::Module;
use preqr_sql::ast::Query;
use preqr_sql::normalize::linearize;
use preqr_train::{FnTask, Plan, StepOutput, Trainer, TrainerConfig};

use crate::metrics::{betacv, ndcg_at_k};

/// The similarity methods of Table 7's clustering block.
pub enum SimilarityMethod<'a> {
    /// Aouiche et al. — binary code + Hamming.
    Aouiche,
    /// Aligon et al. — string sets + Jaccard.
    Aligon,
    /// Makiyama et al. — item frequency + cosine.
    Makiyama,
    /// One-hot encoding + cosine (MSCN features).
    OneHot(&'a Database),
    /// Attention Seq2Seq embeddings + cosine.
    Seq2Seq(Box<Seq2SeqEmbedder>),
    /// PreQR `[CLS]` embeddings + cosine.
    Preqr(&'a SqlBert),
}

impl SimilarityMethod<'_> {
    /// Row label.
    pub fn name(&self) -> &'static str {
        match self {
            SimilarityMethod::Aouiche => "Aouiche",
            SimilarityMethod::Aligon => "Aligon",
            SimilarityMethod::Makiyama => "Makiyama",
            SimilarityMethod::OneHot(_) => "One-hotDis",
            SimilarityMethod::Seq2Seq(_) => "Seq2SeqDis",
            SimilarityMethod::Preqr(_) => "PreQRDis",
        }
    }

    /// Pairwise similarity matrix over a query set.
    pub fn similarity_matrix(&self, queries: &[Query]) -> Vec<Vec<f64>> {
        let n = queries.len();
        let mut sim = vec![vec![0.0f64; n]; n];
        // Vector-based methods embed once.
        let embeddings: Option<Vec<Vec<f32>>> = match self {
            SimilarityMethod::OneHot(db) => {
                let f = MscnFeaturizer::new(db, 0);
                Some(
                    queries
                        .iter()
                        .map(|q| {
                            let feats = f.featurize(db, q, None);
                            MscnModel::onehot_vector(&feats, &f)
                        })
                        .collect(),
                )
            }
            SimilarityMethod::Seq2Seq(embedder) => {
                Some(center(queries.iter().map(|q| embedder.embed(q)).collect()))
            }
            SimilarityMethod::Preqr(model) => Some(center(
                model.encode_batch(queries).iter().map(|e| e.row(0).to_vec()).collect(),
            )),
            _ => None,
        };
        let universe = column_universe(queries);
        for i in 0..n {
            sim[i][i] = 1.0;
            for j in i + 1..n {
                let s = match (self, &embeddings) {
                    (SimilarityMethod::Aouiche, _) => {
                        aouiche_similarity(&queries[i], &queries[j], &universe)
                    }
                    (SimilarityMethod::Aligon, _) => aligon_similarity(&queries[i], &queries[j]),
                    (SimilarityMethod::Makiyama, _) => {
                        makiyama_similarity(&queries[i], &queries[j])
                    }
                    (_, Some(e)) => cosine(&e[i], &e[j]),
                    _ => unreachable!("vector methods have embeddings"),
                };
                sim[i][j] = s;
                sim[j][i] = s;
            }
        }
        sim
    }
}

/// Mean-centers a set of neural embeddings (the standard anisotropy
/// correction for transformer sentence vectors: without it every pair's
/// cosine saturates near 1 and the ranking signal drowns).
fn center(mut embeddings: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
    if embeddings.is_empty() {
        return embeddings;
    }
    let d = embeddings[0].len();
    let n = embeddings.len() as f32;
    let mut mean = vec![0.0f32; d];
    for e in &embeddings {
        for (m, &x) in mean.iter_mut().zip(e.iter()) {
            *m += x / n;
        }
    }
    for e in &mut embeddings {
        for (x, &m) in e.iter_mut().zip(mean.iter()) {
            *x -= m;
        }
    }
    embeddings
}

/// Distance matrix `1 − similarity` (clamped to `[0, 2]`).
pub fn to_distance(sim: &[Vec<f64>]) -> Vec<Vec<f64>> {
    sim.iter().map(|row| row.iter().map(|&s| (1.0 - s).clamp(0.0, 2.0)).collect()).collect()
}

/// BetaCV of a method on a labelled dataset (smaller is better).
pub fn betacv_of(method: &SimilarityMethod<'_>, queries: &[Query], labels: &[usize]) -> f64 {
    let sim = method.similarity_matrix(queries);
    betacv(&to_distance(&sim), labels)
}

/// Mean NDCG@k on the CH workload: for each query, rank the others by
/// predicted similarity; relevance = measured result overlap.
pub fn ch_ndcg(method: &SimilarityMethod<'_>, ch: &ChWorkload, k: usize) -> f64 {
    let sim = method.similarity_matrix(&ch.queries);
    let n = ch.len();
    let mut total = 0.0;
    for i in 0..n {
        let mut others: Vec<usize> = (0..n).filter(|&j| j != i).collect();
        others.sort_by(|&a, &b| sim[i][b].partial_cmp(&sim[i][a]).expect("finite similarity"));
        // Relevance indexed by position in `others`.
        let relevance: Vec<f64> = (0..n).filter(|&j| j != i).map(|j| ch.overlap[i][j]).collect();
        let index_of: std::collections::HashMap<usize, usize> =
            (0..n).filter(|&j| j != i).enumerate().map(|(pos, j)| (j, pos)).collect();
        let ranking: Vec<usize> = others.iter().map(|j| index_of[j]).collect();
        total += ndcg_at_k(&relevance, &ranking, k);
    }
    total / n as f64
}

/// Mean predicted distances per pair category (Figure 7b).
#[derive(Clone, Copy, Debug)]
pub struct GroupDistances {
    /// Mean distance between logically-equivalent pairs.
    pub equivalent: f64,
    /// Mean distance between same-template pairs.
    pub same_template: f64,
    /// Mean distance between irrelevant pairs.
    pub irrelevant: f64,
}

/// Computes Figure 7b's per-category mean distances.
pub fn ch_group_distances(method: &SimilarityMethod<'_>, ch: &ChWorkload) -> GroupDistances {
    let sim = method.similarity_matrix(&ch.queries);
    let dist = to_distance(&sim);
    let mut sums = [0.0f64; 3];
    let mut counts = [0usize; 3];
    for i in 0..ch.len() {
        for j in i + 1..ch.len() {
            let k = match ch.pair_kind(i, j) {
                PairKind::Equivalent => 0,
                PairKind::SameTemplate => 1,
                PairKind::Irrelevant => 2,
            };
            sums[k] += dist[i][j];
            counts[k] += 1;
        }
    }
    GroupDistances {
        equivalent: sums[0] / counts[0].max(1) as f64,
        same_template: sums[1] / counts[1].max(1) as f64,
        irrelevant: sums[2] / counts[2].max(1) as f64,
    }
}

/// A trained Seq2Seq auto-encoder whose encoder state embeds queries
/// (the `Seq2SeqDis` baseline).
pub struct Seq2SeqEmbedder {
    encoder: LstmTextEncoder,
}

impl Seq2SeqEmbedder {
    /// Trains the auto-encoder on a query corpus: the decoder reconstructs
    /// the query's own token sequence from the encoder state.
    pub fn train(corpus: &[Query], d: usize, epochs: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Target vocabulary = the queries' own token texts (auto-encoding).
        let token_texts: Vec<Vec<String>> =
            corpus.iter().map(|q| linearize(q).iter().map(|t| t.text.clone()).collect()).collect();
        let all_words: Vec<&str> =
            token_texts.iter().flat_map(|ts| ts.iter().map(String::as_str)).collect();
        let tv = TextVocab::build(all_words);
        let encoder = LstmTextEncoder::new(corpus, &tv, d, &mut rng);
        let decoder = RnnDecoder::new(&tv, d, DecoderOptions::default(), &mut rng);
        let mut params = encoder.encoder_params();
        params.extend(decoder.params());
        // Scoped so the task's borrow of the encoder ends before the move.
        {
            let mut task = FnTask::new("cluster.seq2seq", corpus.len(), params, |idx, rng| {
                let src = encoder.encode(&corpus[idx]);
                let target = tv.encode(&token_texts[idx]);
                let loss = decoder.loss(&src, &target, true, rng);
                let scalar = f64::from(loss.value_clone().get(0, 0));
                loss.backward();
                StepOutput { loss: scalar, ..StepOutput::default() }
            });
            let config =
                TrainerConfig::new(Plan::Epochs { epochs, chunk: 2, shuffle: false }, 5e-3);
            Trainer::new(config).fit(&mut task, &mut rng);
        }
        Self { encoder }
    }

    /// Embeds a query as the encoder's initial-context vector.
    pub fn embed(&self, q: &Query) -> Vec<f32> {
        let src = self.encoder.encode(q);
        src.init.value_clone().row(0).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preqr_data::chdb::{generate, ChConfig};
    use preqr_data::clustering::{ch_workload, iit_bombay};

    #[test]
    fn classic_methods_produce_valid_betacv() {
        let ds = iit_bombay();
        for method in
            [SimilarityMethod::Aouiche, SimilarityMethod::Aligon, SimilarityMethod::Makiyama]
        {
            let b = betacv_of(&method, &ds.queries, &ds.labels);
            assert!(b.is_finite() && b > 0.0, "{} betacv {b}", method.name());
            assert!(b < 1.5, "{} betacv should be below random-ish 1.5: {b}", method.name());
        }
    }

    #[test]
    fn onehot_method_runs_on_ch_schema() {
        let db = generate(ChConfig::tiny());
        let ds = iit_bombay();
        let m = SimilarityMethod::OneHot(&db);
        let b = betacv_of(&m, &ds.queries, &ds.labels);
        assert!(b.is_finite() && b > 0.0);
    }

    #[test]
    fn ndcg_and_group_distances_on_ch() {
        let db = generate(ChConfig::tiny());
        let ch = ch_workload(&db, 5, 1);
        let m = SimilarityMethod::Makiyama;
        let ndcg = ch_ndcg(&m, &ch, 10);
        assert!((0.0..=1.0).contains(&ndcg), "ndcg {ndcg}");
        let gd = ch_group_distances(&m, &ch);
        assert!(gd.equivalent.is_finite());
        assert!(gd.irrelevant > gd.equivalent, "irrelevant pairs must be farther: {gd:?}");
    }

    #[test]
    fn seq2seq_embedder_distinguishes_queries() {
        let ds = iit_bombay();
        let corpus: Vec<Query> = ds.queries.iter().take(12).cloned().collect();
        let emb = Seq2SeqEmbedder::train(&corpus, 16, 2, 5);
        let a = emb.embed(&corpus[0]);
        let b = emb.embed(&corpus[11]);
        assert_eq!(a.len(), 16);
        assert!(cosine(&a, &b) < 0.999, "distinct queries should not collapse");
    }

    #[test]
    fn distance_matrix_is_metric_like() {
        let ds = iit_bombay();
        let sim = SimilarityMethod::Aligon.similarity_matrix(&ds.queries[..8]);
        let d = to_distance(&sim);
        for i in 0..8 {
            assert!(d[i][i].abs() < 1e-9, "self distance 0");
            for j in 0..8 {
                assert!((d[i][j] - d[j][i]).abs() < 1e-12, "symmetry");
                assert!((0.0..=2.0).contains(&d[i][j]));
            }
        }
    }
}
