//! Workload statistics: Tables 3 and 6.

use std::io::{self, Write};

use preqr_data::clustering::{iit_bombay, pocketdata, ub_exam};
use preqr_data::text::{corpus, TextStyle};
use preqr_data::workloads::{self, join_distribution};
use preqr_sql::ast::Query;
use preqr_sql::template::TemplateSet;

use crate::Ctx;

/// Table 3 — the number of query templates per dataset.
///
/// Paper reference: JOB-light 1, Synthetic 1, Scale 1, WikiSQL 2, JOB 3,
/// UB Exam 3, IIT Bombay 4, PocketData 4, StackOverflow 8 — the point
/// being that a small number of templates covers each workload, so
/// building and matching the automaton is cheap.
pub fn table03(ctx: &Ctx, out: &mut dyn Write) -> io::Result<()> {
    let (db, s) = (&ctx.db, &ctx.seeds);
    let text = |style, seed| -> Vec<Query> {
        corpus(style, 200, seed).into_iter().map(|p| p.query).collect()
    };
    let datasets: [(&str, Vec<Query>, usize); 9] = [
        ("JOB-light", workloads::job_light(db, s.job_light), 1),
        ("Synthetic", workloads::synthetic(db, 600, s.synthetic), 1),
        ("Scale", workloads::scale(db, s.scale), 1),
        ("WikiSQL", text(TextStyle::WikiSql, s.wikisql), 2),
        ("JOB", workloads::job_full(db, 120, s.job), 3),
        ("UB Exam", ub_exam().queries, 3),
        ("IIT Bombay", iit_bombay().queries, 4),
        ("PocketData", pocketdata().queries, 4),
        ("StackOverflow", text(TextStyle::StackOverflow, s.stackoverflow), 8),
    ];
    writeln!(out, "=== Table 3: number of query templates ===")?;
    writeln!(out, "{:<14} {:>10} {:>8}", "dataset", "measured", "paper")?;
    for (name, queries, paper) in datasets {
        // The paper's template extraction is semi-automatic and coarse
        // (one template covers all of JOB-light). A merge threshold of
        // 0.5 on the hybrid distance reproduces that granularity.
        let templates = TemplateSet::extract(&queries, 0.5);
        writeln!(out, "{name:<14} {:>10} {:>8}", templates.len(), paper)?;
    }
    Ok(())
}

/// Table 6 — distribution of joins in the Synthetic / Scale / JOB-light
/// workloads.
///
/// Paper reference:
/// ```text
/// Number of Joins   0     1     2     3    4   overall
/// Synthetic      1636  1407  1957    0    0      5000
/// Scale           100   100   100  100  100       500
/// JOB-light         0     3    32   23   12        70
/// ```
pub fn table06(ctx: &Ctx, out: &mut dyn Write) -> io::Result<()> {
    let (db, s) = (&ctx.db, &ctx.seeds);
    writeln!(out, "=== Table 6: distribution of joins ===")?;
    writeln!(
        out,
        "{:<12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>9}",
        "workload", "0", "1", "2", "3", "4", "overall"
    )?;
    let rows: [(&str, Vec<Query>); 3] = [
        ("Synthetic", workloads::synthetic(db, 5000, s.synthetic)),
        ("Scale", workloads::scale(db, s.scale)),
        ("JOB-light", workloads::job_light(db, s.job_light)),
    ];
    for (name, qs) in rows {
        let mut hist = join_distribution(&qs);
        hist.resize(5, 0);
        let [j0, j1, j2, j3, j4] = [hist[0], hist[1], hist[2], hist[3], hist[4]];
        let n = qs.len();
        writeln!(out, "{name:<12} {j0:>6} {j1:>6} {j2:>6} {j3:>6} {j4:>6} {n:>9}")?;
    }
    writeln!(out, "\npaper:    Synthetic 1636/1407/1957/0/0 (5000), Scale 100x5 (500), JOB-light 0/3/32/23/12 (70)")
}
