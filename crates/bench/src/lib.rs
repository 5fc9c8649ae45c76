//! `preqr-bench` — the reproduction harness.
//!
//! One driver, `repro`, reproduces every paper table and figure
//! (`cargo run --release -p preqr-bench --bin repro [artifact…]`, all
//! artifacts when none is named; see [`repro`]); `bench_kernels` is the
//! kernel benchmark. The shared context here builds the mini-IMDB
//! database, the pre-training corpus, the pre-trained PreQR models (once
//! per distinct configuration, in memory) and the labelled workloads, at
//! a scale controlled by the `PREQR_SCALE` environment variable (`small`
//! default, `full` for longer runs closer to the paper's sizes).

#![warn(missing_docs)]
use std::cell::{OnceCell, RefCell};
use std::rc::Rc;

use preqr::{PreqrConfig, SqlBert};
use preqr_data::imdb::{generate, ImdbConfig};
use preqr_data::workloads::{self, LabeledQuery};
use preqr_engine::{BitmapSampler, CostModel, Database, TableStats};
use preqr_obs as obs;
use preqr_sql::ast::Query;
use preqr_tasks::setup::build_pretrained;

pub mod repro;
mod runner;

/// Run scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-per-artifact defaults.
    Small,
    /// Larger corpora/epochs, closer to the paper's sizes.
    Full,
}

/// Parses a `PREQR_SCALE` value: `small` or unset is [`Scale::Small`],
/// `full` is [`Scale::Full`], and anything else is an error naming the
/// valid values.
pub fn parse_scale(value: Option<&str>) -> Result<Scale, String> {
    match value {
        None | Some("small") => Ok(Scale::Small),
        Some("full") => Ok(Scale::Full),
        Some(other) => Err(format!("unknown PREQR_SCALE `{other}`; valid values: small full")),
    }
}

/// Reads `PREQR_SCALE` through [`parse_scale`].
pub fn read_scale() -> Result<Scale, String> {
    let value = std::env::var_os("PREQR_SCALE").map(|v| v.to_string_lossy().into_owned());
    parse_scale(value.as_deref())
}

/// [`read_scale`], panicking on an invalid value (`repro` checks it
/// before any work and exits 2 instead).
pub fn scale() -> Scale {
    read_scale().unwrap_or_else(|e| panic!("{e}"))
}

/// Scale-dependent experiment sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `title` rows of the mini-IMDB.
    pub movies: usize,
    /// Pre-training corpus size (paper: 100,000).
    pub pretrain: usize,
    /// Pre-training epochs.
    pub pretrain_epochs: usize,
    /// Estimation training queries (paper: 90% of 100,000).
    pub train: usize,
    /// Validation queries.
    pub valid: usize,
    /// Synthetic test workload size (paper: 5,000).
    pub synthetic: usize,
    /// JOB-style test workload size.
    pub job: usize,
    /// Fine-tuning epochs for learned estimators.
    pub est_epochs: usize,
    /// SQL-to-Text corpus size per style.
    pub text_pairs: usize,
    /// SQL-to-Text training epochs.
    pub text_epochs: usize,
    /// NeuroCard sampling budget.
    pub nc_samples: usize,
}

impl Sizes {
    /// Sizes for a scale.
    pub fn of(scale: Scale) -> Self {
        match scale {
            Scale::Small => Self {
                movies: 4_000,
                pretrain: 1_500,
                pretrain_epochs: 4,
                train: 1_000,
                valid: 120,
                synthetic: 400,
                job: 50,
                est_epochs: 16,
                text_pairs: 160,
                text_epochs: 24,
                nc_samples: 600,
            },
            Scale::Full => Self {
                movies: 20_000,
                pretrain: 6_000,
                pretrain_epochs: 5,
                train: 4_000,
                valid: 400,
                synthetic: 2_000,
                job: 100,
                est_epochs: 16,
                text_pairs: 600,
                text_epochs: 40,
                nc_samples: 2_000,
            },
        }
    }
}

/// Every seed a reproduction run draws from, named once (the models'
/// own seed is [`PreqrConfig::seed`] in [`Ctx::config`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    /// Mini-IMDB generation ([`ImdbConfig::seed`]).
    pub imdb: u64,
    /// The MLM pre-training corpus.
    pub corpus: u64,
    /// Estimation training workload (Synthetic family).
    pub train: u64,
    /// Estimation validation workload (Synthetic family).
    pub valid: u64,
    /// JOB-family training workload.
    pub job_train: u64,
    /// JOB-family validation workload.
    pub job_valid: u64,
    /// JOB-light test workload.
    pub job_light: u64,
    /// Synthetic test workload.
    pub synthetic: u64,
    /// Scale test workload.
    pub scale: u64,
    /// JOB (string predicates) test workload.
    pub job: u64,
    /// Bitmap sampler row draws.
    pub sampler: u64,
    /// Estimator fine-tuning and the NeuroCard sampler.
    pub finetune: u64,
    /// The CH-benCHmark database of the clustering and generation blocks.
    pub ch: u64,
    /// The CH workload with measured result overlap.
    pub ch_workload: u64,
    /// The Seq2Seq auto-encoder baseline.
    pub seq2seq: u64,
    /// WikiSQL-style text pairs.
    pub wikisql: u64,
    /// StackOverflow-style text pairs.
    pub stackoverflow: u64,
    /// SQL-to-Text generator training.
    pub textgen: u64,
    /// Table 5's update samples.
    pub update: u64,
    /// Table 5's new query patterns (Case 3).
    pub new_patterns: u64,
}

impl Default for Seeds {
    fn default() -> Self {
        Self {
            imdb: 42,
            corpus: 11,
            train: 21,
            valid: 22,
            job_train: 31,
            job_valid: 32,
            job_light: 41,
            synthetic: 42,
            scale: 43,
            job: 44,
            sampler: 1,
            finetune: 7,
            ch: 7,
            ch_workload: 3,
            seq2seq: 9,
            wikisql: 5,
            stackoverflow: 6,
            textgen: 3,
            update: 5,
            new_patterns: 99,
        }
    }
}

/// Shared experiment context: one per run.
pub struct Ctx {
    /// The mini-IMDB database.
    pub db: Database,
    /// Analyzed statistics.
    pub stats: TableStats,
    /// Materialized sample bitmaps.
    pub sampler: BitmapSampler,
    /// The engine cost model.
    pub cost_model: CostModel,
    /// Scale sizes.
    pub sizes: Sizes,
    /// The run's seeds.
    pub seeds: Seeds,
    /// The `main` model's configuration, its seed included; the ablations
    /// and the size ladder derive from it.
    pub config: PreqrConfig,
    /// Pre-trained models, one per distinct configuration.
    models: RefCell<Vec<(PreqrConfig, Rc<SqlBert>)>>,
    /// The Table 8/9 battery's output per target, cardinality first.
    estimation: [OnceCell<String>; 2],
}

impl Ctx {
    /// Builds the context for the current scale with `PreqrConfig::small()`.
    pub fn build() -> Self {
        Self::new(Sizes::of(scale()), PreqrConfig::small())
    }

    /// Builds a context with the default seeds and `config` as `main`.
    pub fn new(sizes: Sizes, config: PreqrConfig) -> Self {
        let seeds = Seeds::default();
        let _span = obs::span("bench.ctx_build").field("movies", sizes.movies);
        eprintln!("[ctx] generating mini-IMDB ({} movies)…", sizes.movies);
        let db =
            generate(ImdbConfig { movies: sizes.movies, seed: seeds.imdb, ..Default::default() });
        let stats = TableStats::analyze(&db);
        let sampler = BitmapSampler::new(&db, 64, seeds.sampler);
        Self {
            db,
            stats,
            sampler,
            cost_model: CostModel::default(),
            sizes,
            seeds,
            config,
            models: RefCell::default(),
            estimation: Default::default(),
        }
    }

    /// The MLM pre-training corpus.
    pub fn pretrain_corpus(&self) -> Vec<Query> {
        workloads::pretrain_corpus(&self.db, self.sizes.pretrain, self.seeds.corpus)
    }

    /// Labels a workload with ground truth (executes every query).
    pub fn label(&self, queries: &[Query]) -> Vec<LabeledQuery> {
        workloads::label(&self.db, queries, &self.cost_model)
    }

    /// The estimation training/validation sets (numeric star workload,
    /// disjoint seed from every test workload).
    pub fn estimation_train(&self) -> (Vec<LabeledQuery>, Vec<LabeledQuery>) {
        let s = &self.seeds;
        let train = self.label(&workloads::synthetic(&self.db, self.sizes.train, s.train));
        let valid = self.label(&workloads::synthetic(&self.db, self.sizes.valid, s.valid));
        (train, valid)
    }

    /// The mixed-predicate (JOB) training/validation sets.
    pub fn job_train(&self) -> (Vec<LabeledQuery>, Vec<LabeledQuery>) {
        let (db, s) = (&self.db, &self.seeds);
        let train = self.label(&workloads::job_full(db, self.sizes.train / 2, s.job_train));
        let valid = self.label(&workloads::job_full(db, self.sizes.valid / 2 + 10, s.job_valid));
        (train, valid)
    }

    /// Test workloads `(name, labeled)` in paper order.
    pub fn test_workloads(&self) -> Vec<(&'static str, Vec<LabeledQuery>)> {
        let (db, n, s) = (&self.db, self.sizes.synthetic, &self.seeds);
        vec![
            ("JOB-light", self.label(&workloads::job_light(db, s.job_light))),
            ("Synthetic", self.label(&workloads::synthetic(db, n, s.synthetic))),
            ("Scale", self.label(&workloads::scale(db, s.scale))),
        ]
    }

    /// The string-predicate JOB test workload.
    pub fn job_workload(&self) -> Vec<LabeledQuery> {
        self.label(&workloads::job_full(&self.db, self.sizes.job, self.seeds.job))
    }

    /// The PreQR model pre-trained on the mini-IMDB corpus under
    /// `config`. Each distinct configuration is pre-trained once per
    /// context and then shared read-only; an artifact that needs to
    /// change a model copies it first.
    pub fn pretrained(&self, config: PreqrConfig) -> Rc<SqlBert> {
        if let Some((_, model)) = self.models.borrow().iter().find(|(c, _)| *c == config) {
            return Rc::clone(model);
        }
        let _span = obs::span("bench.pretrained").field("config", format!("{config:?}"));
        let corpus = self.pretrain_corpus();
        eprintln!("[ctx] pre-training PreQR on {} queries: {config:?}", corpus.len());
        let epochs = self.sizes.pretrain_epochs;
        let model = Rc::new(build_pretrained(&self.db, &corpus, config, epochs, 1e-3).0);
        self.models.borrow_mut().push((config, Rc::clone(&model)));
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_up() {
        let s = Sizes::of(Scale::Small);
        let f = Sizes::of(Scale::Full);
        assert!(f.movies > s.movies);
        assert!(f.pretrain > s.pretrain);
    }

    #[test]
    fn parse_scale_accepts_only_small_full_or_unset() {
        assert_eq!(parse_scale(None), Ok(Scale::Small));
        assert_eq!(parse_scale(Some("small")), Ok(Scale::Small));
        assert_eq!(parse_scale(Some("full")), Ok(Scale::Full));
        for typo in ["ful", "Full", "", " full", "large"] {
            let err = parse_scale(Some(typo)).unwrap_err();
            assert!(err.contains(&format!("`{typo}`")), "{err}");
            assert!(err.contains("small full"), "{err}");
        }
    }

    #[test]
    fn scale_env_default_is_small() {
        // Note: assumes PREQR_SCALE is unset in the test environment.
        if std::env::var("PREQR_SCALE").is_err() {
            assert_eq!(scale(), Scale::Small);
        }
    }
}
