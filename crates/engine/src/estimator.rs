//! PostgreSQL-style analytic cardinality estimator.
//!
//! Reproduces the algorithmic behaviour (and therefore the failure modes)
//! of the `PG` baseline rows in Tables 7–11: per-predicate selectivities
//! from histograms/MCVs, multiplied under the *attribute independence*
//! assumption, and PK–FK join selectivity `1 / max(nd(a), nd(b))`.

use preqr_sql::ast::{CmpOp, Expr, Query, Scalar, SelectStmt, Value};

use crate::bind::{Bindings, ExecError};
use crate::stats::TableStats;
use crate::storage::{ColumnData, Database};

/// Default selectivity for LIKE predicates with wildcards (PG's
/// `DEFAULT_MATCH_SEL` is 0.005; patterns anchored with leading `%` get a
/// larger default here because the JOB-style workloads use contains-
/// patterns heavily).
const LIKE_SEL: f64 = 0.05;
/// Default selectivity for IN-subquery predicates.
const IN_SUBQUERY_SEL: f64 = 0.1;
/// Default when nothing is known.
const DEFAULT_SEL: f64 = 0.33;

/// A per-step cardinality estimate mirroring the executor's plan shape.
#[derive(Clone, Debug, Default)]
pub struct PlanEstimate {
    /// Estimated filtered size of each bound table.
    pub filtered: Vec<f64>,
    /// Estimated result size after each join step.
    pub joins: Vec<f64>,
    /// Final estimated join cardinality.
    pub total: f64,
}

/// The estimator. Borrows the database only for string-literal dictionary
/// lookups; all estimates come from [`TableStats`].
pub struct PgEstimator<'a> {
    db: &'a Database,
    stats: &'a TableStats,
}

impl<'a> PgEstimator<'a> {
    /// Creates an estimator over analyzed statistics.
    pub fn new(db: &'a Database, stats: &'a TableStats) -> Self {
        Self { db, stats }
    }

    /// Estimates the join cardinality of a query (UNION members summed).
    ///
    /// # Errors
    /// Name-resolution failures.
    pub fn estimate(&self, q: &Query) -> Result<f64, ExecError> {
        let mut total = 0.0;
        for s in q.selects() {
            total += self.estimate_plan(s)?.total;
        }
        Ok(total.max(1.0))
    }

    /// Estimates per-step cardinalities for one SELECT.
    ///
    /// # Errors
    /// Name-resolution failures.
    pub fn estimate_plan(&self, stmt: &SelectStmt) -> Result<PlanEstimate, ExecError> {
        let bindings = Bindings::of(stmt, self.db.schema())?;
        let mut sel: Vec<f64> = vec![1.0; bindings.len()];
        let mut joins: Vec<(usize, usize, f64)> = Vec::new();
        let mut conjuncts: Vec<&Expr> = Vec::new();
        if let Some(w) = &stmt.where_clause {
            conjuncts.extend(w.conjuncts());
        }
        for j in &stmt.joins {
            conjuncts.extend(j.on.conjuncts());
        }
        for c in conjuncts {
            self.apply_conjunct(c, &bindings, &mut sel, &mut joins)?;
        }
        let filtered: Vec<f64> = (0..bindings.len())
            .map(|t| {
                let rows = self.stats.row_count(bindings.table_name(t)) as f64;
                (rows * sel[t]).max(1.0)
            })
            .collect();
        let mut join_sizes = Vec::with_capacity(joins.len());
        // Apply join selectivities progressively to produce per-step sizes
        // comparable to the executor's step cardinalities.
        let mut acc = filtered.first().copied().unwrap_or(1.0);
        let mut bound = vec![false; bindings.len()];
        if !bound.is_empty() {
            bound[0] = true;
        }
        for &(a, b, s) in &joins {
            let new = if bound[a] && bound[b] {
                acc * s
            } else {
                let t = if bound[a] { b } else { a };
                bound[t] = true;
                acc * filtered[t] * s
            };
            acc = new.max(1.0);
            join_sizes.push(acc);
        }
        // Tables never joined multiply in as cross products.
        for (t, &bnd) in bound.iter().enumerate() {
            if !bnd {
                acc *= filtered[t];
            }
        }
        Ok(PlanEstimate { filtered, joins: join_sizes, total: acc.max(1.0) })
    }

    fn apply_conjunct(
        &self,
        c: &Expr,
        bindings: &Bindings,
        sel: &mut [f64],
        joins: &mut Vec<(usize, usize, f64)>,
    ) -> Result<(), ExecError> {
        // Equi-join?
        if let Expr::Cmp { left: Scalar::Column(a), op: CmpOp::Eq, right: Scalar::Column(b) } = c {
            let ba = bindings.resolve(a, self.db.schema())?;
            let bb = bindings.resolve(b, self.db.schema())?;
            if ba.table != bb.table {
                let nd_a = self
                    .col_stats(bindings, ba.table, &a.column)
                    .map_or(1.0, |s| s.n_distinct as f64);
                let nd_b = self
                    .col_stats(bindings, bb.table, &b.column)
                    .map_or(1.0, |s| s.n_distinct as f64);
                let s = 1.0 / nd_a.max(nd_b).max(1.0);
                joins.push((ba.table, bb.table, s));
                return Ok(());
            }
        }
        // Single-table predicate: attribute it to its table.
        let cols = c.columns();
        let table = match cols.first() {
            Some(col) => bindings.resolve(col, self.db.schema())?.table,
            None => return Ok(()),
        };
        let s = self.predicate_selectivity(c, bindings, table)?;
        sel[table] *= s.clamp(1e-9, 1.0);
        Ok(())
    }

    fn col_stats(
        &self,
        bindings: &Bindings,
        table: usize,
        column: &str,
    ) -> Option<&crate::stats::ColumnStats> {
        self.stats.column(bindings.table_name(table), column)
    }

    fn literal_as_f64(&self, bindings: &Bindings, table: usize, column: &str, v: &Value) -> f64 {
        match v {
            Value::Str(s) => {
                // Map the string to its dictionary code, matching how
                // string MCVs are stored.
                match self.db.column(bindings.table_name(table), column) {
                    Some(ColumnData::Str { dict, .. }) => dict.code(s).map_or(-1.0, |c| c as f64),
                    _ => -1.0,
                }
            }
            other => other.as_f64().unwrap_or(0.0),
        }
    }

    fn predicate_selectivity(
        &self,
        e: &Expr,
        bindings: &Bindings,
        table: usize,
    ) -> Result<f64, ExecError> {
        Ok(match e {
            Expr::And(a, b) => {
                // Independence assumption — the key simplification that
                // makes PG underestimate correlated predicates.
                self.predicate_selectivity(a, bindings, table)?
                    * self.predicate_selectivity(b, bindings, table)?
            }
            Expr::Or(a, b) => {
                let sa = self.predicate_selectivity(a, bindings, table)?;
                let sb = self.predicate_selectivity(b, bindings, table)?;
                (sa + sb - sa * sb).clamp(0.0, 1.0)
            }
            Expr::Not(a) => 1.0 - self.predicate_selectivity(a, bindings, table)?,
            Expr::Cmp { left: Scalar::Column(c), op, right: Scalar::Value(v) } => {
                self.cmp_selectivity(bindings, table, &c.column, *op, v)
            }
            Expr::Cmp { left: Scalar::Value(v), op, right: Scalar::Column(c) } => {
                self.cmp_selectivity(bindings, table, &c.column, op.flip(), v)
            }
            Expr::Cmp { .. } => DEFAULT_SEL,
            Expr::Between { col, low, high } => {
                let stats = self.col_stats(bindings, table, &col.column);
                match (stats, low.as_f64(), high.as_f64()) {
                    (Some(s), Some(l), Some(h)) => {
                        (s.fraction_le(h) - s.fraction_le(l - 1e-9)).clamp(0.0, 1.0)
                    }
                    _ => DEFAULT_SEL,
                }
            }
            Expr::InList { col, values, negated } => {
                let s: f64 = values
                    .iter()
                    .map(|v| self.cmp_selectivity(bindings, table, &col.column, CmpOp::Eq, v))
                    .sum();
                let s = s.clamp(0.0, 1.0);
                if *negated {
                    1.0 - s
                } else {
                    s
                }
            }
            Expr::InSubquery { negated, .. } => {
                if *negated {
                    1.0 - IN_SUBQUERY_SEL
                } else {
                    IN_SUBQUERY_SEL
                }
            }
            Expr::Like { negated, .. } => {
                if *negated {
                    1.0 - LIKE_SEL
                } else {
                    LIKE_SEL
                }
            }
            Expr::IsNull { negated, .. } => {
                // No NULLs in generated data.
                if *negated {
                    1.0
                } else {
                    0.0
                }
            }
        })
    }

    fn cmp_selectivity(
        &self,
        bindings: &Bindings,
        table: usize,
        column: &str,
        op: CmpOp,
        v: &Value,
    ) -> f64 {
        let Some(stats) = self.col_stats(bindings, table, column) else {
            return DEFAULT_SEL;
        };
        let x = self.literal_as_f64(bindings, table, column, v);
        match op {
            CmpOp::Eq => stats.eq_selectivity(x),
            CmpOp::Ne => 1.0 - stats.eq_selectivity(x),
            CmpOp::Lt => {
                if stats.histogram.is_empty() {
                    DEFAULT_SEL
                } else {
                    stats.fraction_le(x) - stats.eq_selectivity(x)
                }
            }
            CmpOp::Le => {
                if stats.histogram.is_empty() {
                    DEFAULT_SEL
                } else {
                    stats.fraction_le(x)
                }
            }
            CmpOp::Gt => {
                if stats.histogram.is_empty() {
                    DEFAULT_SEL
                } else {
                    1.0 - stats.fraction_le(x)
                }
            }
            CmpOp::Ge => {
                if stats.histogram.is_empty() {
                    DEFAULT_SEL
                } else {
                    1.0 - stats.fraction_le(x) + stats.eq_selectivity(x)
                }
            }
        }
        .clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TableStats;
    use crate::storage::{Database, Datum};
    use preqr_schema::{Column, ColumnType, Schema, Table};
    use preqr_sql::parser::parse;

    fn db() -> Database {
        let mut s = Schema::new();
        s.add_table(Table::new(
            "t",
            vec![
                Column::primary("id", ColumnType::Int),
                Column::new("x", ColumnType::Int),
                Column::new("name", ColumnType::Varchar),
            ],
        ));
        let mut db = Database::new(s);
        for i in 0..1000i64 {
            db.insert(
                "t",
                &[Datum::Int(i), Datum::Int(i % 100), Datum::Str(format!("n{}", i % 4))],
            );
        }
        db
    }

    fn est_sel(sql: &str) -> f64 {
        let database = db();
        let stats = TableStats::analyze(&database);
        let est = PgEstimator::new(&database, &stats);
        est.estimate(&parse(sql).unwrap()).unwrap() / 1000.0
    }

    #[test]
    fn range_selectivity_tracks_histogram() {
        let sel = est_sel("SELECT COUNT(*) FROM t WHERE t.x < 50");
        assert!((sel - 0.5).abs() < 0.1, "x<50 should be ~half: {sel}");
        let sel = est_sel("SELECT COUNT(*) FROM t WHERE t.x >= 90");
        assert!((sel - 0.1).abs() < 0.07, "x>=90 should be ~10%: {sel}");
    }

    #[test]
    fn equality_uses_mcv_or_uniformity() {
        let sel = est_sel("SELECT COUNT(*) FROM t WHERE t.x = 7");
        assert!((sel - 0.01).abs() < 0.01, "x=7 ~1%: {sel}");
        let sel = est_sel("SELECT COUNT(*) FROM t WHERE t.name = 'n1'");
        assert!((sel - 0.25).abs() < 0.05, "string MCV ~25%: {sel}");
    }

    #[test]
    fn in_list_sums_equalities() {
        let one = est_sel("SELECT COUNT(*) FROM t WHERE t.x = 1");
        let three = est_sel("SELECT COUNT(*) FROM t WHERE t.x IN (1, 2, 3)");
        assert!((three - 3.0 * one).abs() < 0.02, "IN sums eq sels: {three} vs {one}");
    }

    #[test]
    fn or_uses_inclusion_exclusion_and_not_complements() {
        let a = est_sel("SELECT COUNT(*) FROM t WHERE t.x < 50");
        let or = est_sel("SELECT COUNT(*) FROM t WHERE (t.x < 50 OR t.x < 50)");
        let expected = a + a - a * a;
        assert!((or - expected).abs() < 0.02, "{or} vs {expected}");
        let not = est_sel("SELECT COUNT(*) FROM t WHERE NOT (t.x < 50)");
        assert!((not + a - 1.0).abs() < 0.02);
    }

    #[test]
    fn like_and_subquery_use_defaults() {
        let like = est_sel("SELECT COUNT(*) FROM t WHERE t.name LIKE '%z%'");
        assert!((like - 0.05).abs() < 1e-6);
        let sub = est_sel("SELECT COUNT(*) FROM t WHERE t.x IN (SELECT id FROM t WHERE t.id < 3)");
        assert!((sub - 0.1).abs() < 1e-6);
    }

    #[test]
    fn between_matches_range_difference() {
        let sel = est_sel("SELECT COUNT(*) FROM t WHERE t.x BETWEEN 20 AND 39");
        assert!((sel - 0.2).abs() < 0.07, "20..39 is ~20%: {sel}");
    }

    #[test]
    fn union_estimates_sum_branches() {
        let single = est_sel("SELECT COUNT(*) FROM t WHERE t.x < 50");
        let union =
            est_sel("SELECT id FROM t WHERE t.x < 50 UNION SELECT id FROM t WHERE t.x < 50");
        assert!((union - 2.0 * single).abs() < 0.02);
    }
}
