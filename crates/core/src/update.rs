//! Model update paths (§3.6, Table 5).
//!
//! | Case | Trigger | What retrains |
//! |---|---|---|
//! | 1 | data distribution changed | last SQLBERT layer (incremental) |
//! | 2 | schema updated | Schema2Graph (graph rebuilt + its params) |
//! | 3 | query patterns changed | automaton extended + Input Embedding |
//! | 4 | from scratch | everything |
//!
//! Each path is a thin wrapper that runs MLM steps while the optimizer
//! only owns the affected parameter subset — the paper's Table 5 point is
//! the cost *ordering* of these subsets, which [`UpdateReport`] captures.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use preqr_nn::layers::Module;
use preqr_sql::ast::Query;
use preqr_sql::normalize::state_keys;
use preqr_sql::Query as SqlQuery;
use preqr_train::{FnTask, Plan, StepOutput, Trainer, TrainerConfig};

use crate::sqlbert::{ChunkNodes, SqlBert};

/// The four update cases of §3.6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateCase {
    /// Incremental learning for the last layer of SQLBERT.
    DataDistribution,
    /// Incremental learning for the Schema2Graph part.
    SchemaChange,
    /// Retraining the Input Embedding module (new query patterns).
    QueryPatterns,
    /// Training from scratch.
    FromScratch,
}

impl UpdateCase {
    /// Paper's description (Table 5).
    pub fn description(&self) -> &'static str {
        match self {
            UpdateCase::DataDistribution => "Incremental learning for the last layer of SQLBERT",
            UpdateCase::SchemaChange => "Incremental Learning for the Schema2Graph part",
            UpdateCase::QueryPatterns => "Incremental learning for the Input Embedding module",
            UpdateCase::FromScratch => "Train from scratch",
        }
    }
}

/// Outcome of one update run.
#[derive(Clone, Copy, Debug)]
pub struct UpdateReport {
    /// Which case ran.
    pub case: UpdateCase,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Number of parameters the optimizer owned.
    pub trained_params: usize,
    /// Final MLM loss. Cases 1–3: the mean over the last window of at
    /// most 4 samples (`TrainReport::last_chunk_loss`). Case 4: the last
    /// epoch's mean over the whole corpus (NaN when no epoch ran).
    pub final_loss: f64,
}

/// Runs MLM steps over `samples` with the optimizer owning only `params`,
/// via the shared Trainer in its sliding-window plan: one optimizer step
/// per window of up to 4 samples, with the window's schema node states
/// computed and backpropagated once ([`ChunkNodes`]).
fn train_subset(
    model: &SqlBert,
    params: Vec<preqr_nn::Tensor>,
    samples: &[Query],
    steps: usize,
    lr: f32,
    seed: u64,
) -> (usize, f64) {
    let trained = params.iter().map(|p| p.value().len()).sum();
    let mut rng = StdRng::seed_from_u64(seed);
    let prepared: Vec<_> = samples.iter().map(|q| model.prepare(q)).collect();
    let nodes = std::cell::RefCell::new(None);
    let mut task = FnTask::new("update", prepared.len(), params, |idx, rng| {
        let (loss, _, _) =
            model.mlm_loss(&prepared[idx], nodes.borrow().as_ref().map(ChunkNodes::leaf), rng);
        let scalar = f64::from(loss.value_clone().get(0, 0));
        loss.backward();
        StepOutput { loss: scalar, ..StepOutput::default() }
    })
    .with_chunk_start(|| *nodes.borrow_mut() = model.chunk_nodes())
    .with_chunk_end(|| {
        if let Some(chunk) = nodes.borrow_mut().take() {
            chunk.backward();
        }
    })
    .with_post_step(|| {
        // Gradients accumulated into frozen params are discarded by
        // construction: the optimizer never owns them, and each
        // backward clears interior grads. Clear leaf grads globally
        // to avoid unbounded accumulation on frozen leaves.
        for p in model.params() {
            p.zero_grad();
        }
    });
    let config = TrainerConfig::new(Plan::Window { steps, take: 4 }, lr);
    let report = Trainer::new(config).fit(&mut task, &mut rng);
    (trained, report.last_chunk_loss)
}

/// Case 1: data distribution changed — refresh value-range semantics by
/// incrementally training the last SQLBERT layer on fresh samples.
pub fn update_data_distribution(
    model: &mut SqlBert,
    samples: &[Query],
    steps: usize,
) -> UpdateReport {
    let t0 = Instant::now();
    let params = model.last_layer_params();
    let (trained_params, final_loss) = train_subset(model, params, samples, steps, 1e-3, 11);
    UpdateReport {
        case: UpdateCase::DataDistribution,
        seconds: t0.elapsed().as_secs_f64(),
        trained_params,
        final_loss,
    }
}

/// Case 2: the schema changed — rebuild the schema graph and
/// incrementally train the Schema2Graph parameters.
pub fn update_schema(
    model: &mut SqlBert,
    new_schema: &preqr_schema::Schema,
    samples: &[Query],
    steps: usize,
) -> UpdateReport {
    let t0 = Instant::now();
    model.update_schema(new_schema);
    let params = model.schema_params();
    let (trained_params, final_loss) = train_subset(model, params, samples, steps, 1e-3, 12);
    UpdateReport {
        case: UpdateCase::SchemaChange,
        seconds: t0.elapsed().as_secs_f64(),
        trained_params,
        final_loss,
    }
}

/// Case 3: query patterns changed — extend the automaton with the new
/// templates and retrain the Input Embedding module.
pub fn update_query_patterns(
    model: &mut SqlBert,
    new_queries: &[SqlQuery],
    steps: usize,
) -> UpdateReport {
    let t0 = Instant::now();
    for q in new_queries {
        let keys = state_keys(q);
        model.input_mut().automaton_mut().add_template(&keys);
    }
    let params = model.input_params();
    let (trained_params, final_loss) = train_subset(model, params, new_queries, steps, 1e-3, 13);
    UpdateReport {
        case: UpdateCase::QueryPatterns,
        seconds: t0.elapsed().as_secs_f64(),
        trained_params,
        final_loss,
    }
}

/// Case 4: full retraining from scratch.
pub fn retrain_from_scratch(
    corpus: &[Query],
    schema: &preqr_schema::Schema,
    buckets: crate::embedding::ValueBuckets,
    config: crate::config::PreqrConfig,
    epochs: usize,
) -> (SqlBert, UpdateReport) {
    let t0 = Instant::now();
    let mut model = SqlBert::new(corpus, schema, buckets, config);
    let stats = model.pretrain(corpus, epochs, 1e-3);
    let trained_params = model.num_parameters();
    let final_loss = stats.last().map_or(f64::NAN, |s| s.loss);
    (
        model,
        UpdateReport {
            case: UpdateCase::FromScratch,
            seconds: t0.elapsed().as_secs_f64(),
            trained_params,
            final_loss,
        },
    )
}

/// Deterministically subsamples a corpus (for incremental-update sample
/// sets).
pub fn subsample(corpus: &[Query], n: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..corpus.len()).collect();
    for i in (1..idx.len()).rev() {
        idx.swap(i, rng.random_range(0..=i));
    }
    idx.into_iter().take(n).map(|i| corpus[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PreqrConfig;
    use crate::embedding::ValueBuckets;
    use preqr_schema::{Column, ColumnType, Schema, Table};
    use preqr_sql::parser::parse;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_table(Table::new(
            "title",
            vec![
                Column::primary("id", ColumnType::Int),
                Column::new("production_year", ColumnType::Int),
            ],
        ));
        s
    }

    fn corpus() -> Vec<SqlQuery> {
        (0..6)
            .map(|i| {
                parse(&format!(
                    "SELECT COUNT(*) FROM title t WHERE t.production_year > {}",
                    1990 + i
                ))
                .unwrap()
            })
            .collect()
    }

    fn model() -> SqlBert {
        let mut b = ValueBuckets::new(4);
        b.insert("title", "production_year", (1930..2020).map(f64::from).collect());
        SqlBert::new(&corpus(), &schema(), b, PreqrConfig::test())
    }

    #[test]
    fn case1_trains_fewest_params() {
        let mut m = model();
        let r1 = update_data_distribution(&mut m, &corpus(), 2);
        assert_eq!(r1.case, UpdateCase::DataDistribution);
        assert!(r1.trained_params > 0);
        assert!(r1.trained_params < m.num_parameters() / 2);
        assert!(r1.final_loss.is_finite());
    }

    #[test]
    fn case2_rebuilds_graph_and_trains_schema_params() {
        let mut m = model();
        let mut s2 = schema();
        s2.add_table(Table::new("movie_companies", vec![Column::primary("id", ColumnType::Int)]));
        let before = m.schema2graph().unwrap().graph().len();
        let r = update_schema(&mut m, &s2, &corpus(), 2);
        assert!(m.schema2graph().unwrap().graph().len() > before);
        assert_eq!(r.case, UpdateCase::SchemaChange);
    }

    #[test]
    fn case3_extends_automaton_for_new_patterns() {
        let mut m = model();
        let new_q = parse("SELECT kind_id FROM title GROUP BY kind_id ORDER BY kind_id").unwrap();
        // New pattern is initially unknown.
        let cov_before = m.prepare(&new_q).structure_coverage;
        let r = update_query_patterns(&mut m, std::slice::from_ref(&new_q), 2);
        let cov_after = m.prepare(&new_q).structure_coverage;
        assert!(cov_after > cov_before, "automaton must learn the new template");
        assert_eq!(r.case, UpdateCase::QueryPatterns);
    }

    #[test]
    fn update_costs_are_ordered_like_table5() {
        // Incremental cases train strict parameter subsets of the full
        // retrain (Case 4). The paper's full Case 1 < Case 3 wall-clock
        // ordering additionally depends on the 30k-token vocabulary,
        // which the paper-scale reproduction (`repro table05`) measures.
        let mut m = model();
        let r1 = update_data_distribution(&mut m, &corpus(), 1);
        let r3 = update_query_patterns(&mut m, &corpus(), 1);
        let (_, r4) = retrain_from_scratch(
            &corpus(),
            &schema(),
            {
                let mut b = ValueBuckets::new(4);
                b.insert("title", "production_year", (1930..2020).map(f64::from).collect());
                b
            },
            PreqrConfig::test(),
            1,
        );
        assert!(r1.trained_params < r4.trained_params);
        assert!(r3.trained_params < r4.trained_params);
        assert_eq!(r4.trained_params, m.num_parameters());
    }

    #[test]
    fn subsample_is_deterministic_and_bounded() {
        let c = corpus();
        let a = subsample(&c, 3, 5);
        let b = subsample(&c, 3, 5);
        assert_eq!(
            a.iter().map(SqlQuery::sql).collect::<Vec<_>>(),
            b.iter().map(SqlQuery::sql).collect::<Vec<_>>()
        );
        assert_eq!(a.len(), 3);
        assert_eq!(subsample(&c, 100, 5).len(), c.len());
    }
}
