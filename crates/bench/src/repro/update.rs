//! Model update cost: Table 5.

use std::collections::HashMap;
use std::io::{self, Write};

use preqr::update::{
    retrain_from_scratch, subsample, update_data_distribution, update_query_patterns,
    update_schema, UpdateReport,
};
use preqr::SqlBert;
use preqr_data::workloads;
use preqr_nn::layers::Module;
use preqr_nn::serialize::apply_params;
use preqr_nn::Matrix;
use preqr_schema::{Column, ColumnType, Table};
use preqr_tasks::setup::value_buckets_from_db;

use crate::Ctx;

/// Each case is timed this many times, every run from the same `main`
/// weights; the table prints the median and the range.
const RUNS: usize = 3;

/// Table 5 — model update cost for the four cases of §3.6.
///
/// Paper reference (absolute times are hardware-bound; the *ordering*
/// Case 1 ≪ Case 2 < Case 3 < Case 4 is the reproduced shape):
/// Case 1: 15 min, Case 2: 3.5 h, Case 3: 6.7 h, Case 4: 18.3 h.
pub fn table05(ctx: &Ctx, out: &mut dyn Write) -> io::Result<()> {
    let corpus = ctx.pretrain_corpus();
    let config = ctx.config;
    let buckets = || value_buckets_from_db(&ctx.db, config.value_buckets);
    // The updates write the model, so each run starts from a fresh copy
    // of the shared `main` weights.
    let weights: HashMap<String, Matrix> = ctx
        .pretrained(config)
        .named_params("m")
        .into_iter()
        .map(|(name, t)| (name, t.value().clone()))
        .collect();
    let main_copy = || {
        let model = SqlBert::new(&corpus, ctx.db.schema(), buckets(), config);
        apply_params(&model.named_params("m"), &weights).expect("same configuration");
        model
    };
    let samples = subsample(&corpus, 64, ctx.seeds.update);
    let steps = 24;
    let mut new_schema = ctx.db.schema().clone();
    new_schema.add_table(Table::new(
        "aka_title",
        vec![
            Column::primary("id", ColumnType::Int),
            Column::new("movie_id", ColumnType::Int),
            Column::new("title", ColumnType::Varchar),
        ],
    ));
    let new_patterns = workloads::pretrain_corpus(&ctx.db, 64, ctx.seeds.new_patterns);

    writeln!(out, "=== Table 5: update cost of the PreQR model ({RUNS} runs per case) ===")?;
    writeln!(
        out,
        "{:<8} {:<55} {:>9} {:>13} {:>14}",
        "case", "description", "median s", "min–max s", "params trained"
    )?;
    let mut row = |case: &str, run: &dyn Fn() -> UpdateReport| {
        let reports: Vec<UpdateReport> = (0..RUNS).map(|_| run()).collect();
        let (about, params) = (reports[0].case.description(), reports[0].trained_params);
        assert!(reports.iter().all(|r| r.trained_params == params), "{case}: runs differ");
        let mut secs: Vec<f64> = reports.iter().map(|r| r.seconds).collect();
        secs.sort_by(f64::total_cmp);
        let (median, range) = (secs[RUNS / 2], format!("{:.2}–{:.2}", secs[0], secs[RUNS - 1]));
        writeln!(out, "{case:<8} {about:<55} {median:>9.2} {range:>13} {params:>14}")
    };
    row("Case 1", &|| update_data_distribution(&mut main_copy(), &samples, steps))?;
    row("Case 2", &|| update_schema(&mut main_copy(), &new_schema, &samples, steps))?;
    row("Case 3", &|| update_query_patterns(&mut main_copy(), &new_patterns, steps))?;
    row("Case 4", &|| retrain_from_scratch(&corpus, ctx.db.schema(), buckets(), config, 1).1)?;
    writeln!(out, "\npaper: Case 1 = 15 min, Case 2 = 3.5 h, Case 3 = 6.7 h, Case 4 = 18.3 h (ordering is the reproduced shape; Case 4 here runs 1 epoch — multiply by the full epoch count for end-to-end time)")
}
