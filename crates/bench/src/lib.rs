//! `preqr-bench` — the reproduction harness.
//!
//! One binary per paper table/figure (run with
//! `cargo run --release -p preqr-bench --bin <id>`), plus the kernel
//! benchmark `bench_kernels`. The shared context here builds the
//! mini-IMDB database, the pre-training corpus, the pre-trained PreQR
//! model (cached on disk under `artifacts/`), and the labelled
//! workloads, at a scale controlled by the `PREQR_SCALE` environment
//! variable (`small` default, `full` for longer runs closer to the
//! paper's sizes).

#![warn(missing_docs)]
use std::path::PathBuf;
use std::time::Instant;

use preqr::{PreqrConfig, SqlBert};
use preqr_data::imdb::{generate, ImdbConfig};
use preqr_data::workloads::{self, LabeledQuery};
use preqr_engine::{BitmapSampler, CostModel, Database, TableStats};
use preqr_nn::layers::Module;
use preqr_nn::serialize;
use preqr_obs as obs;
use preqr_sql::ast::Query;
use preqr_tasks::setup::value_buckets_from_db;

/// Run scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-per-binary defaults.
    Small,
    /// Larger corpora/epochs, closer to the paper's sizes.
    Full,
}

/// Reads `PREQR_SCALE` (`small` | `full`).
pub fn scale() -> Scale {
    match std::env::var("PREQR_SCALE").as_deref() {
        Ok("full") => Scale::Full,
        _ => Scale::Small,
    }
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

/// Shared experiment context.
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
}

impl Ctx {
    /// Builds the context for the current scale.
    pub fn build() -> Self {
        let sizes = Sizes::of(scale());
        let _span = obs::span("bench.ctx_build").field("movies", sizes.movies);
        eprintln!("[ctx] generating mini-IMDB ({} movies)…", sizes.movies);
        let db = generate(ImdbConfig { movies: sizes.movies, ..ImdbConfig::default() });
        let stats = TableStats::analyze(&db);
        let sampler = BitmapSampler::new(&db, 64, 1);
        Self { db, stats, sampler, cost_model: CostModel::default(), sizes }
    }

    /// The MLM pre-training corpus.
    pub fn pretrain_corpus(&self) -> Vec<Query> {
        workloads::pretrain_corpus(&self.db, self.sizes.pretrain, 11)
    }

    /// Labels a workload with ground truth (executes every query).
    pub fn label(&self, queries: &[Query]) -> Vec<LabeledQuery> {
        workloads::label(&self.db, queries, &self.cost_model)
    }

    /// The estimation training/validation sets (numeric star workload,
    /// disjoint seed from every test workload).
    pub fn estimation_train(&self) -> (Vec<LabeledQuery>, Vec<LabeledQuery>) {
        let train = self.label(&workloads::synthetic(&self.db, self.sizes.train, 21));
        let valid = self.label(&workloads::synthetic(&self.db, self.sizes.valid, 22));
        (train, valid)
    }

    /// The mixed-predicate (JOB) training/validation sets.
    pub fn job_train(&self) -> (Vec<LabeledQuery>, Vec<LabeledQuery>) {
        let train = self.label(&workloads::job_full(&self.db, self.sizes.train / 2, 31));
        let valid = self.label(&workloads::job_full(&self.db, self.sizes.valid / 2 + 10, 32));
        (train, valid)
    }

    /// Test workloads `(name, labeled)` in paper order.
    pub fn test_workloads(&self) -> Vec<(&'static str, Vec<LabeledQuery>)> {
        vec![
            ("JOB-light", self.label(&workloads::job_light(&self.db, 41))),
            ("Synthetic", self.label(&workloads::synthetic(&self.db, self.sizes.synthetic, 42))),
            ("Scale", self.label(&workloads::scale(&self.db, 43))),
        ]
    }

    /// The string-predicate JOB test workload.
    pub fn job_workload(&self) -> Vec<LabeledQuery> {
        self.label(&workloads::job_full(&self.db, self.sizes.job, 44))
    }

    /// Builds (or loads from the artifact cache) a pre-trained PreQR
    /// model. The cache key covers the scale and the configuration tag,
    /// and vocabulary/automaton construction is deterministic, so cached
    /// parameters always match the freshly-built architecture.
    pub fn pretrained(&self, tag: &str, config: PreqrConfig) -> SqlBert {
        let _span = obs::span("bench.pretrained").field("tag", tag);
        let corpus = self.pretrain_corpus();
        let buckets = value_buckets_from_db(&self.db, config.value_buckets);
        let mut model = SqlBert::new(&corpus, self.db.schema(), buckets, config);
        let path = artifact_path(&format!(
            "preqr_{tag}_{:?}_{}x{}x{}.bin",
            scale(),
            config.layers,
            config.d_model,
            config.heads
        ));
        if let Ok(loaded) = serialize::load_from_file(&path) {
            if serialize::apply_params(&model.named_params("m"), &loaded).is_ok() {
                eprintln!("[ctx] loaded cached model {}", path.display());
                return model;
            }
        }
        eprintln!(
            "[ctx] pre-training PreQR[{tag}] (L={}, H={}, A={}) on {} queries…",
            config.layers,
            config.d_model,
            config.heads,
            corpus.len()
        );
        let t0 = Instant::now();
        let stats = model.pretrain(&corpus, self.sizes.pretrain_epochs, 1e-3);
        if let Some(last) = stats.last() {
            eprintln!(
                "[ctx] pre-training done in {:.1}s (loss {:.3}, mask acc {:.2})",
                t0.elapsed().as_secs_f64(),
                last.loss,
                last.accuracy
            );
        }
        let _ = std::fs::create_dir_all(path.parent().expect("artifact dir"));
        if let Err(e) = serialize::save_to_file(&path, &model.named_params("m")) {
            eprintln!("[ctx] warning: could not cache model: {e}");
        }
        model
    }
}

/// Artifact cache location (`artifacts/` at the workspace root).
pub fn artifact_path(name: &str) -> PathBuf {
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    root.join("artifacts").join(name)
}

/// Prints a table header in the Tables 8–11 format.
pub fn print_qerror_header(title: &str) {
    println!("\n=== {title} ===");
    println!(
        "{:<20} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8}",
        "method", "median", "90th", "95th", "99th", "max", "mean"
    );
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
    fn scale_env_default_is_small() {
        // Note: assumes PREQR_SCALE is unset in the test environment.
        if std::env::var("PREQR_SCALE").is_err() {
            assert_eq!(scale(), Scale::Small);
        }
    }

    #[test]
    fn artifact_path_is_under_artifacts() {
        let p = artifact_path("x.bin");
        assert!(p.to_string_lossy().contains("artifacts"));
    }
}

pub mod runner;
