//! Query similarity on the CH-benCHmark schema (Figure 7) and the overall
//! summary (Table 7), whose clustering and generation blocks pre-train
//! their own CH-schema models.

use std::io::{self, Write};

use preqr::SqlBert;
use preqr_data::chdb::{self, ChConfig};
use preqr_data::clustering::{ch_workload, iit_bombay, pocketdata, ub_exam};
use preqr_data::text::{corpus, TextStyle};
use preqr_engine::Database;
use preqr_sql::ast::Query;
use preqr_tasks::clustering::{
    betacv_of, ch_group_distances, ch_ndcg, Seq2SeqEmbedder, SimilarityMethod,
};
use preqr_tasks::estimation::Target;
use preqr_tasks::setup::value_buckets_from_db;
use preqr_tasks::textgen::{train_generator, GenEncoder};

use crate::{scale, Ctx, Scale};

/// The CH database of the clustering experiments at the current scale.
fn ch_db(ctx: &Ctx) -> Database {
    let customers = if scale() == Scale::Full { ChConfig::default().customers } else { 400 };
    chdb::generate(ChConfig { customers, seed: ctx.seeds.ch })
}

/// An untrained PreQR model over a CH-schema query log.
fn ch_model(ctx: &Ctx, db: &Database, corpus: &[Query]) -> SqlBert {
    SqlBert::new(corpus, db.schema(), value_buckets_from_db(db, 10), ctx.config)
}

/// The similarity methods of Figure 7 and Table 7, PreQR last.
fn similarity_methods<'a>(
    ctx: &Ctx,
    db: &'a Database,
    corpus: &[Query],
    model: &'a SqlBert,
) -> Vec<SimilarityMethod<'a>> {
    eprintln!("[clustering] training Seq2Seq auto-encoder…");
    let s2s = Seq2SeqEmbedder::train(&corpus[..corpus.len().min(120)], 32, 6, ctx.seeds.seq2seq);
    vec![
        SimilarityMethod::Aouiche,
        SimilarityMethod::Aligon,
        SimilarityMethod::Makiyama,
        SimilarityMethod::OneHot(db),
        SimilarityMethod::Seq2Seq(Box::new(s2s)),
        SimilarityMethod::Preqr(model),
    ]
}

/// Figure 7 — query-similarity validation on the CH workload:
/// (a) NDCG ranking validation per similarity method;
/// (b) mean distances within equivalent / same-template / irrelevant
/// query groups.
///
/// Expected shape (paper): PreQR has the highest NDCG; its equivalent-
/// group distance < same-template distance < irrelevant distance.
pub fn fig07(ctx: &Ctx, out: &mut dyn Write) -> io::Result<()> {
    let full = scale() == Scale::Full;
    let ch_db = ch_db(ctx);
    let n_seeds = if full { 60 } else { 20 };
    eprintln!("[fig07] building CH workload ({n_seeds} seeds)…");
    let ch = ch_workload(&ch_db, n_seeds, ctx.seeds.ch_workload);
    eprintln!("[fig07] {} queries with measured result overlap", ch.len());

    // Pre-train PreQR on the CH schema: clustering queries + CH workload
    // shapes form the corpus.
    let mut corpus: Vec<Query> = ch.queries.clone();
    corpus.extend(iit_bombay().queries);
    let mut model = ch_model(ctx, &ch_db, &corpus);
    eprintln!("[fig07] pre-training PreQR on the CH schema…");
    model.pretrain(&corpus, if full { 5 } else { 3 }, 1e-3);

    let methods = similarity_methods(ctx, &ch_db, &corpus, &model);
    writeln!(out, "\n=== Figure 7a: NDCG@(n/3) on the CH workload ===")?;
    writeln!(out, "{:<12} {:>8}", "method", "NDCG")?;
    for m in &methods {
        writeln!(out, "{:<12} {:>8.3}", m.name(), ch_ndcg(m, &ch, ch.len() / 3))?;
    }
    writeln!(out, "\npaper NDCG: Aouiche 0.131, Aligon 0.120, Makiyama 0.214, One-hot 0.191, Seq2Seq 0.584, PreQR 0.710")?;

    writeln!(out, "\n=== Figure 7b: mean group distances (PreQR) ===")?;
    for m in &methods {
        let g = ch_group_distances(m, &ch);
        writeln!(
            out,
            "{:<12} equivalent {:.3}  same-template {:.3}  irrelevant {:.3}",
            m.name(),
            g.equivalent,
            g.same_template,
            g.irrelevant
        )?;
    }
    writeln!(out, "\npaper: PreQR orders the groups equivalent < same-template < irrelevant.")
}

/// Table 7 — overall performance with the same training settings:
/// query clustering (BetaCV ↓ / NDCG ↑), cardinality & cost estimation
/// (mean q-error ↓), and SQL-to-Text generation (BLEU ↑).
///
/// The estimation block prints the Table 8/9 rows; fig07 and table08–09
/// give the other blocks in more detail.
pub fn table07(ctx: &Ctx, out: &mut dyn Write) -> io::Result<()> {
    clustering_block(ctx, out)?;
    for target in [Target::Cardinality, Target::Cost] {
        out.write_all(ctx.estimation(target).as_bytes())?;
    }
    generation_block(ctx, out)
}

fn clustering_block(ctx: &Ctx, out: &mut dyn Write) -> io::Result<()> {
    let ch_db = ch_db(ctx);
    let datasets = [iit_bombay(), ub_exam(), pocketdata()];
    let n_seeds = if scale() == Scale::Full { 40 } else { 15 };
    let ch = ch_workload(&ch_db, n_seeds, ctx.seeds.ch_workload);

    // PreQR pre-trained on the CH-schema query log.
    let mut corpus_q: Vec<Query> = ch.queries.clone();
    for ds in &datasets {
        corpus_q.extend(ds.queries.clone());
    }
    let mut model = ch_model(ctx, &ch_db, &corpus_q);
    eprintln!("[table07] pre-training PreQR on the CH schema…");
    model.pretrain(&corpus_q, 3, 1e-3);

    writeln!(out, "\n=== Table 7 (clustering): BetaCV ↓ and NDCG ↑ ===")?;
    writeln!(
        out,
        "{:<12} {:>11} {:>9} {:>11} {:>8}",
        "method", "IIT Bombay", "UB Exam", "PocketData", "CH NDCG"
    )?;
    for m in &similarity_methods(ctx, &ch_db, &corpus_q, &model) {
        let [iit, ub, pocket] = datasets.each_ref().map(|d| betacv_of(m, &d.queries, &d.labels));
        let (name, ndcg) = (m.name(), ch_ndcg(m, &ch, ch.len() / 3));
        writeln!(out, "{name:<12} {iit:>11.3} {ub:>9.3} {pocket:>11.3} {ndcg:>8.3}")?;
    }
    writeln!(out, "paper:       Aouiche .577/.923/.893/.131  Aligon .535/.799/.898/.120  Makiyama .665/.897/.879/.214")?;
    writeln!(out, "             One-hot .565/.852/.883/.191  Seq2Seq .459/.761/.801/.584  PreQR .387/.622/.752/.710")
}

/// Builds a generator's encoder, given the PreQR model only PreQR2Seq uses.
type MakeEncoder = fn(&SqlBert) -> GenEncoder<'_>;

fn generation_block(ctx: &Ctx, out: &mut dyn Write) -> io::Result<()> {
    let (n, epochs, s) = (ctx.sizes.text_pairs, ctx.sizes.text_epochs, &ctx.seeds);
    writeln!(out, "\n=== Table 7 (SQL-to-Text): BLEU ↑ ===")?;
    writeln!(out, "{:<14} {:>9} {:>14}", "method", "WikiSQL", "StackOverflow")?;
    // PreQR pre-trained on the text corpus queries (CH schema).
    let wiki = corpus(TextStyle::WikiSql, n, s.wikisql);
    let stack = corpus(TextStyle::StackOverflow, n, s.stackoverflow);
    let ch_db = chdb::generate(ChConfig { customers: 200, seed: s.ch });
    let corpus_q: Vec<Query> = wiki.iter().chain(stack.iter()).map(|p| p.query.clone()).collect();
    let mut preqr = ch_model(ctx, &ch_db, &corpus_q);
    eprintln!("[table07] pre-training PreQR for generation…");
    preqr.pretrain(&corpus_q[..corpus_q.len().min(400)], 2, 1e-3);

    let split_w = (wiki.len() * 4) / 5;
    let split_s = (stack.len() * 4) / 5;
    let encoders: [(&str, MakeEncoder); 6] = [
        ("Seq2Seq", |_| GenEncoder::Seq2Seq),
        ("Seq2Seq+cp", |_| GenEncoder::Seq2SeqCp),
        ("Seq2Seq+cp+lv", |_| GenEncoder::Seq2SeqCpLv),
        ("Tree2Seq", |_| GenEncoder::Tree2Seq),
        ("Graph2Seq", |_| GenEncoder::Graph2Seq),
        ("PreQR2Seq", |m| GenEncoder::Preqr2Seq(m)),
    ];
    for (name, encoder) in encoders {
        eprintln!("[table07] training {name} (wiki)…");
        let mw = train_generator(encoder(&preqr), &wiki[..split_w], 24, epochs, s.textgen);
        let bw = mw.evaluate(&wiki[split_w..]);
        eprintln!("[table07] training {name} (stackoverflow)…");
        let ms = train_generator(encoder(&preqr), &stack[..split_s], 24, epochs, s.textgen);
        let bs = ms.evaluate(&stack[split_s..]);
        writeln!(out, "{:<14} {:>9.3} {:>14.3}", name, bw, bs)?;
    }
    writeln!(
        out,
        "paper BLEU %: Seq2Seq 20.9/13.3, +cp 24.1/16.6, +cp+lv 26.3/18.4, Tree2Seq 26.7/17.0,"
    )?;
    writeln!(out, "              Graph2Seq 29.3/19.9, PreQR2Seq 32.1/21.1")
}
