//! Shared estimation-experiment runner used by the table/figure artifacts.

use std::io::{self, Write};

use preqr_tasks::estimation::{
    evaluate, train_corrected, train_lstm, train_mscn, train_preqr, Estimator, NeuroCardPredictor,
    PgBaseline, Target,
};

use crate::Ctx;

/// Writes a table header in the Tables 8–11 format.
fn write_qerror_header(out: &mut dyn Write, title: &str) -> io::Result<()> {
    writeln!(out, "\n=== {title} ===")?;
    writeln!(
        out,
        "{:<20} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8}",
        "method", "median", "90th", "95th", "99th", "max", "mean"
    )
}

/// Runs the method battery for one target with the `main` model, writing
/// each row to `out` as it completes. On the numeric workloads (Tables
/// 8–9) that is PG, MSCN, LSTM and PreQR, plus NeuroCard and
/// NeuroCard+PreQR for cardinality; on JOB with string predicates (Tables
/// 10–11) MSCN and NeuroCard sit out ("current MSCN model does not
/// support string predicates").
pub(crate) fn run_estimation(
    ctx: &Ctx,
    target: Target,
    numeric: bool,
    out: &mut dyn Write,
) -> io::Result<()> {
    let preqr_label = match target {
        Target::Cardinality => "PreQRCard",
        Target::Cost => "PreQRCost",
    };
    let model = ctx.pretrained(ctx.config);
    let ((train, valid), tests) = if numeric {
        (ctx.estimation_train(), ctx.test_workloads())
    } else {
        (ctx.job_train(), vec![("JOB (strings)", ctx.job_workload())])
    };
    let _span = preqr_obs::span("bench.run_estimation")
        .field("label", preqr_label)
        .field("workloads", tests.len());
    let (db, sampler) = (&ctx.db, Some(&ctx.sampler));
    let (epochs, seed) = (ctx.sizes.est_epochs, ctx.seeds.finetune);

    let pg = PgBaseline::new(db, &ctx.stats, target);
    let mscn = numeric.then(|| {
        eprintln!("[run] training MSCN…");
        train_mscn(db, sampler, &train, &valid, target, epochs, seed)
    });
    eprintln!("[run] training LSTM…");
    let lstm = train_lstm(db, sampler, &train, &valid, target, epochs, seed);
    eprintln!("[run] fine-tuning PreQR…");
    let preqr = train_preqr(db, &model, sampler, &train, &valid, target, epochs, seed, preqr_label);
    let neurocard = numeric && target == Target::Cardinality;
    let neurocard = neurocard.then(|| {
        eprintln!("[run] training NeuroCard+PreQR correction…");
        let nc = ctx.sizes.nc_samples;
        let base = NeuroCardPredictor::new(db, nc, seed);
        (base, train_corrected(db, &model, sampler, &train, &valid, nc, epochs, seed))
    });

    for (wname, workload) in &tests {
        let mut methods: Vec<&dyn Estimator> = vec![&pg];
        if let Some(m) = &mscn {
            methods.push(m);
        }
        methods.extend([&lstm as &dyn Estimator, &preqr]);
        if let Some((n, c)) = &neurocard {
            methods.extend([n as &dyn Estimator, c]);
        }
        write_qerror_header(out, &format!("{wname} ({target:?})"))?;
        for m in methods {
            writeln!(out, "{}", evaluate(m, target, workload).row(&m.name()))?;
        }
    }
    Ok(())
}

impl Ctx {
    /// The Table 8 (cardinality) or Table 9 (cost) battery on the numeric
    /// workloads, as written by `run_estimation`. Runs once per target
    /// per context; Table 7's estimation block prints the same rows.
    pub fn estimation(&self, target: Target) -> &str {
        let cell = match target {
            Target::Cardinality => &self.estimation[0],
            Target::Cost => &self.estimation[1],
        };
        cell.get_or_init(|| {
            let mut out = Vec::new();
            run_estimation(self, target, true, &mut out).expect("writing to memory");
            String::from_utf8(out).expect("rows are UTF-8")
        })
    }
}
