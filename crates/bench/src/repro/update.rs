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

/// Table 5 — model update cost for the four cases of §3.6.
///
/// Paper reference (absolute times are hardware-bound; the *ordering*
/// Case 1 ≪ Case 2 < Case 3 < Case 4 is the reproduced shape):
/// Case 1: 15 min, Case 2: 3.5 h, Case 3: 6.7 h, Case 4: 18.3 h.
pub fn table05(ctx: &Ctx, out: &mut dyn Write) -> io::Result<()> {
    let corpus = ctx.pretrain_corpus();
    let config = ctx.config;
    let buckets = || value_buckets_from_db(&ctx.db, config.value_buckets);
    // The updates write the model, so they run on a copy of the shared
    // `main` weights.
    let mut model = SqlBert::new(&corpus, ctx.db.schema(), buckets(), config);
    let weights: HashMap<String, Matrix> = ctx
        .pretrained(config)
        .named_params("m")
        .into_iter()
        .map(|(name, t)| (name, t.value().clone()))
        .collect();
    apply_params(&model.named_params("m"), &weights).expect("same configuration");
    let samples = subsample(&corpus, 64, ctx.seeds.update);
    let steps = 24;

    writeln!(out, "=== Table 5: update cost of the PreQR model ===")?;
    writeln!(out, "{:<8} {:<55} {:>9} {:>14}", "case", "description", "seconds", "params trained")?;
    let mut row = |case: &str, r: UpdateReport| {
        let (about, secs, params) = (r.case.description(), r.seconds, r.trained_params);
        writeln!(out, "{case:<8} {about:<55} {secs:>9.2} {params:>14}")
    };

    row("Case 1", update_data_distribution(&mut model, &samples, steps))?;

    let mut new_schema = model.schema().clone();
    new_schema.add_table(Table::new(
        "aka_title",
        vec![
            Column::primary("id", ColumnType::Int),
            Column::new("movie_id", ColumnType::Int),
            Column::new("title", ColumnType::Varchar),
        ],
    ));
    row("Case 2", update_schema(&mut model, &new_schema, &samples, steps))?;

    let new_patterns = workloads::pretrain_corpus(&ctx.db, 64, ctx.seeds.new_patterns);
    row("Case 3", update_query_patterns(&mut model, &new_patterns, steps))?;

    let (_, r4) = retrain_from_scratch(&corpus, ctx.db.schema(), buckets(), config, 1);
    row("Case 4", r4)?;
    writeln!(out, "\npaper: Case 1 = 15 min, Case 2 = 3.5 h, Case 3 = 6.7 h, Case 4 = 18.3 h (ordering is the reproduced shape; Case 4 here runs 1 epoch — multiply by the full epoch count for end-to-end time)")
}
