//! Cardinality and cost estimation: Tables 8–13 and Figures 8–9.

use std::io::{self, Write};

use preqr::{PreqrConfig, SqlBert};
use preqr_data::workloads::{self, LabeledQuery};
use preqr_tasks::estimation::{
    evaluate, train_lstm, train_mscn, train_preqr, Estimator, PgBaseline, Predictor, Target,
};
use preqr_tasks::metrics::qerror;

use crate::runner::run_estimation;
use crate::Ctx;

/// Table 8 — cardinality q-errors on the numeric workloads (JOB-light /
/// Synthetic / Scale) for PG, MSCN, LSTM, PreQR, NeuroCard and
/// NeuroCard+PreQR.
///
/// Expected shape (paper): PG ≫ MSCN > LSTM > PreQR on the query-driven
/// rows; NeuroCard best on JOB-light but worse than the query-driven
/// models on Synthetic/Scale; NeuroCard+PreQR improves NeuroCard.
pub fn table08(ctx: &Ctx, out: &mut dyn Write) -> io::Result<()> {
    out.write_all(ctx.estimation(Target::Cardinality).as_bytes())?;
    writeln!(out, "\npaper means: JOB-light PG 174 / MSCN 57.9 / LSTM 24.9 / PreQR 11.5 / NeuroCard 2.33 / NC+PreQR 2.16")?;
    writeln!(out, "             Synthetic PG 154 / MSCN 2.89 / LSTM 2.87 / PreQR 2.86 / NeuroCard 6.25 / NC+PreQR 2.83")?;
    writeln!(out, "             Scale     PG 568 / MSCN 35.1 / LSTM 28.1 / PreQR 25.8 / NeuroCard 21.1 / NC+PreQR 18.5")
}

/// Table 9 — cost q-errors on the numeric workloads for PG, MSCN, LSTM
/// and PreQR.
///
/// Expected shape (paper): PG ≫ MSCN > LSTM > PreQR, with PreQR's tail
/// percentiles improving the most.
pub fn table09(ctx: &Ctx, out: &mut dyn Write) -> io::Result<()> {
    out.write_all(ctx.estimation(Target::Cost).as_bytes())?;
    writeln!(out, "\npaper means: JOB-light PG 173 / MSCN 27.4 / LSTM 17 / PreQR 5.25")?;
    writeln!(out, "             Synthetic PG 62.7 / MSCN 10.3 / LSTM 4.45 / PreQR 1.09")?;
    writeln!(out, "             Scale     PG 35.7 / MSCN 8.22 / LSTM 5.21 / PreQR 4.15")
}

/// PreQR fine-tuned with the bitmap sampler at the run's epochs and seed.
fn fit_preqr<'a>(
    ctx: &'a Ctx,
    model: &'a SqlBert,
    (train, valid): &(Vec<LabeledQuery>, Vec<LabeledQuery>),
    target: Target,
    label: &str,
) -> Predictor<'a> {
    let (sampler, epochs, seed) = (Some(&ctx.sampler), ctx.sizes.est_epochs, ctx.seeds.finetune);
    train_preqr(&ctx.db, model, sampler, train, valid, target, epochs, seed, label)
}

/// Table 10 — cardinality q-errors on the JOB workload with string
/// predicates.
///
/// Expected shape (paper): PreQR's margin over LSTM grows versus the
/// numeric-only workloads, because the automaton + BERT encoding
/// separates structure from string predicates.
pub fn table10(ctx: &Ctx, out: &mut dyn Write) -> io::Result<()> {
    run_estimation(ctx, Target::Cardinality, false, out)?;
    writeln!(out, "\npaper means: PG 10416 / LSTM 53.0 / PreQR 45.3")
}

/// Table 11 — cost q-errors on the JOB workload with string predicates.
pub fn table11(ctx: &Ctx, out: &mut dyn Write) -> io::Result<()> {
    run_estimation(ctx, Target::Cost, false, out)?;
    writeln!(out, "\npaper means: PG 105 / LSTM 9.4 / PreQR 6.5")
}

/// Table 12 — ablation over model composition: BERT (no automaton, no
/// Trm_g), PreQRNT (no Trm_g), PreQRNA (no automaton), full PreQR;
/// cardinality and cost mean q-errors on all four workloads.
///
/// Expected shape (paper): BERT < PreQRNT < PreQRNA < PreQR, i.e. the
/// schema module matters more than the automaton.
pub fn table12(ctx: &Ctx, out: &mut dyn Write) -> io::Result<()> {
    let variants: [(&str, PreqrConfig); 4] = [
        ("BERT", ctx.config.bert_only()),
        ("PreQRNT", ctx.config.without_schema()),
        ("PreQRNA", ctx.config.without_automaton()),
        ("PreQR", ctx.config),
    ];
    let (numeric, job) = (ctx.estimation_train(), ctx.job_train());
    let mut tests = ctx.test_workloads();
    tests.push(("JOB", ctx.job_workload()));
    for target in [Target::Cardinality, Target::Cost] {
        writeln!(out, "\n=== Table 12 ({target:?}): mean q-error ===")?;
        writeln!(
            out,
            "{:<10} {:>10} {:>10} {:>10} {:>10}",
            "method", "JOB-light", "Synthetic", "Scale", "JOB"
        )?;
        for (name, config) in variants {
            let model = ctx.pretrained(config);
            let pred = fit_preqr(ctx, &model, &numeric, target, name);
            let jpred = fit_preqr(ctx, &model, &job, target, name);
            let means: Vec<f64> = tests
                .iter()
                .map(|(wname, w)| {
                    let p = if *wname == "JOB" { &jpred } else { &pred };
                    evaluate(p, target, w).mean
                })
                .collect();
            writeln!(
                out,
                "{:<10} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                name, means[0], means[1], means[2], means[3]
            )?;
        }
    }
    writeln!(out, "\npaper (card means): BERT 36.5/3.53/39.2/58.4, PreQRNT 28.2/3.25/35.4/53.1,")?;
    writeln!(out, "                    PreQRNA 20.3/2.95/29.8/50.8, PreQR 11.5/2.85/25.8/48.3")
}

/// Table 13 — ablation over model size (#L, #H, #A) on the cost task.
///
/// Expected shape (paper): accuracy improves monotonically with model
/// size, with diminishing returns (the paper picks L=4/H=256/A=4 as the
/// cost/quality sweet spot).
pub fn table13(ctx: &Ctx, out: &mut dyn Write) -> io::Result<()> {
    // CPU-scaled sweep mirroring the paper's (2,256,4)/(4,256,4)/
    // (6,256,8)/(12,256,8) ladder; (2, 64, 4) is the `main` model.
    let ladder = [(1, 32, 2), (2, 64, 4), (3, 64, 4), (4, 96, 4)];
    let train = ctx.estimation_train();
    let tests = ctx.test_workloads();
    writeln!(out, "=== Table 13: ablation over model size (cost estimation, mean q-error) ===")?;
    writeln!(
        out,
        "{:<4} {:<5} {:<4} {:>10} {:>10} {:>10}",
        "#L", "#H", "#A", "JOB-light", "Synthetic", "Scale"
    )?;
    for (l, h, a) in ladder {
        let config = PreqrConfig { layers: l, d_model: h, heads: a, ..ctx.config };
        let model = ctx.pretrained(config);
        let pred = fit_preqr(ctx, &model, &train, Target::Cost, "PreQRCost");
        let means: Vec<f64> =
            tests.iter().map(|(_, w)| evaluate(&pred, Target::Cost, w).mean).collect();
        writeln!(
            out,
            "{:<4} {:<5} {:<4} {:>10.2} {:>10.2} {:>10.2}",
            l, h, a, means[0], means[1], means[2]
        )?;
    }
    writeln!(out, "\npaper (JOB-light/Synthetic/Scale/JOB): 2,256,4→5.63/1.16/4.52/8.5; 4,256,4→5.25/1.09/4.15/8.0;")?;
    writeln!(out, "                                       6,256,8→5.03/1.05/4.10/7.8; 12,256,8→4.94/1.04/4.07/7.7")
}

/// Figure 8 — validation error vs training epoch on the Synthetic
/// workload, with and without bitmap sampling ("NS" = no sampling).
///
/// Expected shape (paper): sampling helps every learned model; PreQR-NS
/// still beats the sampled baselines.
pub fn fig08(ctx: &Ctx, out: &mut dyn Write) -> io::Result<()> {
    let model = ctx.pretrained(ctx.config);
    let (train, valid) = ctx.estimation_train();
    let epochs = ctx.sizes.est_epochs.max(6);
    let (db, seed) = (&ctx.db, ctx.seeds.finetune);
    let sampled = Some(&ctx.sampler);

    for target in [Target::Cardinality, Target::Cost] {
        writeln!(out, "\n=== Figure 8 ({target:?}): mean validation q-error per epoch ===")?;
        let mscn = |s| train_mscn(db, s, &train, &valid, target, epochs, seed).history;
        let lstm = |s| train_lstm(db, s, &train, &valid, target, epochs, seed).history;
        let preqr = |s, name| {
            train_preqr(db, &model, s, &train, &valid, target, epochs, seed, name).history
        };
        let series = [
            ("MSCN", mscn(sampled)),
            ("NS-MSCN", mscn(None)),
            ("LSTM", lstm(sampled)),
            ("NS-LSTM", lstm(None)),
            ("PreQR", preqr(sampled, "PreQR")),
            ("NS-PreQR", preqr(None, "NS-PreQR")),
        ];
        let max_len = series.iter().map(|(_, h)| h.len()).max().unwrap_or(0);
        write!(out, "{:<10}", "epoch")?;
        for e in 0..max_len {
            write!(out, " {:>8}", e + 1)?;
        }
        writeln!(out)?;
        for (name, hist) in &series {
            write!(out, "{name:<10}")?;
            for v in hist {
                write!(out, " {v:>8.2}")?;
            }
            writeln!(out)?;
        }
    }
    writeln!(out, "\npaper: all approaches improve with the bitmap-sampling trick; even NS-PreQR outperforms the sampled baselines.")
}

/// Figure 9 — q-error variance on JOB-light: box-plot statistics
/// (min / q1 / median / q3 / max) per method for cardinality and cost.
///
/// Expected shape (paper): PreQR's errors stay within a small range
/// while the MSCN-based approaches are much more spread out.
pub fn fig09(ctx: &Ctx, out: &mut dyn Write) -> io::Result<()> {
    let model = ctx.pretrained(ctx.config);
    let data = ctx.estimation_train();
    let job_light = ctx.label(&workloads::job_light(&ctx.db, ctx.seeds.job_light));
    let (db, (train, valid)) = (&ctx.db, &data);
    let (sampler, epochs, seed) = (Some(&ctx.sampler), ctx.sizes.est_epochs, ctx.seeds.finetune);
    for target in [Target::Cardinality, Target::Cost] {
        let pg = PgBaseline::new(db, &ctx.stats, target);
        let mscn = train_mscn(db, sampler, train, valid, target, epochs, seed);
        let lstm = train_lstm(db, sampler, train, valid, target, epochs, seed);
        let preqr = fit_preqr(ctx, &model, &data, target, "PreQR");
        writeln!(out, "\n=== Figure 9 ({target:?}): q-error spread on JOB-light ===")?;
        writeln!(
            out,
            "{:<10} {:>8} {:>8} {:>8} {:>8} {:>9}",
            "method", "min", "q1", "median", "q3", "max"
        )?;
        let methods: [&dyn Estimator; 4] = [&pg, &mscn, &lstm, &preqr];
        for m in methods {
            let mut errs: Vec<f64> =
                job_light.iter().map(|lq| qerror(m.predict(&lq.query), target.truth(lq))).collect();
            errs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let [min, q1, median, q3, max] = [0.0, 0.25, 0.5, 0.75, 1.0]
                .map(|p: f64| errs[((errs.len() - 1) as f64 * p).round() as usize]);
            let name = m.name();
            writeln!(out, "{name:<10} {min:>8.2} {q1:>8.2} {median:>8.2} {q3:>8.2} {max:>9.2}")?;
        }
    }
    writeln!(
        out,
        "\npaper: PreQR's box is the tightest; MSCN-based methods show the widest spread."
    )
}
