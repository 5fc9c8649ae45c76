//! Cardinality estimation with PreQR: the paper's flagship downstream
//! task, end to end at demo scale.
//!
//! ```sh
//! cargo run --release --example cardinality_estimation
//! ```

use preqr::PreqrConfig;
use preqr_data::imdb::{generate, ImdbConfig};
use preqr_data::workloads;
use preqr_engine::{BitmapSampler, CostModel, TableStats};
use preqr_tasks::estimation::{evaluate, train_preqr, PgBaseline, Target};
use preqr_tasks::setup::build_pretrained;

fn main() {
    let db = generate(ImdbConfig { movies: 2_000, ..ImdbConfig::default() });
    let stats = TableStats::analyze(&db);
    let sampler = BitmapSampler::new(&db, 32, 1);
    let cost_model = CostModel::default();

    // Pre-train PreQR on a mixed corpus (structure coverage for the
    // automaton, value coverage for the range tokens).
    let corpus = workloads::pretrain_corpus(&db, 400, 7);
    println!("pre-training PreQR on {} queries…", corpus.len());
    let (model, _) = build_pretrained(&db, &corpus, PreqrConfig::small(), 2, 1e-3);

    // Label training and test workloads with true cardinalities by
    // executing them on the engine.
    println!("labelling workloads…");
    let train = workloads::label(&db, &workloads::synthetic(&db, 400, 21), &cost_model);
    let valid = workloads::label(&db, &workloads::synthetic(&db, 60, 22), &cost_model);
    let test = workloads::label(&db, &workloads::job_light(&db, 41), &cost_model);

    // Fine-tune the last SQLBERT layer + a 3-layer FC head (§4.3.2).
    println!("fine-tuning PreQR head…");
    let preqr = train_preqr(
        &db,
        &model,
        Some(&sampler),
        &train,
        &valid,
        Target::Cardinality,
        6,
        7,
        "PreQRCard",
    );
    let pg = PgBaseline::new(&db, &stats, Target::Cardinality);

    println!("\nJOB-light q-errors (70 queries):");
    println!("{:<10} {:>8} {:>8} {:>8}", "method", "median", "95th", "mean");
    for (name, s) in [
        ("PG", evaluate(&pg, Target::Cardinality, &test)),
        ("PreQR", evaluate(&preqr, Target::Cardinality, &test)),
    ] {
        println!("{:<10} {:>8.2} {:>8.2} {:>8.2}", name, s.median, s.p95, s.mean);
    }
    println!("\n(small demo scale — run the preqr-bench `repro` driver for the full reproduction)");
}
