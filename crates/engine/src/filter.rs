//! Single-table predicate compilation and evaluation.
//!
//! Per-table conjuncts are compiled once per query into [`Compiled`]
//! predicates over column indices (string comparisons become dictionary
//! code-set membership), then evaluated row-at-a-time over the columnar
//! storage.

use std::collections::HashSet;

use preqr_sql::ast::{CmpOp, Expr, Scalar, Value};

use crate::bind::{Bindings, BoundColumn, ExecError};
use crate::storage::{ColumnData, Database, TableData};

/// A compiled single-table predicate.
#[derive(Clone, Debug)]
pub enum Compiled {
    /// Numeric comparison against a constant.
    NumCmp {
        /// Column index.
        col: usize,
        /// Operator.
        op: CmpOp,
        /// Constant right-hand side.
        rhs: f64,
    },
    /// Numeric column-to-column comparison within the same table.
    NumColCmp {
        /// Left column index.
        left: usize,
        /// Operator.
        op: CmpOp,
        /// Right column index.
        right: usize,
    },
    /// Numeric range (`BETWEEN`).
    NumBetween {
        /// Column index.
        col: usize,
        /// Inclusive low bound.
        low: f64,
        /// Inclusive high bound.
        high: f64,
    },
    /// Numeric set membership.
    NumInSet {
        /// Column index.
        col: usize,
        /// Accepted values (compared as i64 where possible).
        set: HashSet<i64>,
        /// Negated (`NOT IN`).
        negated: bool,
    },
    /// String set membership over dictionary codes (covers `=`, `!=`,
    /// `IN`, `LIKE` after dictionary scan).
    StrInCodes {
        /// Column index.
        col: usize,
        /// Accepted dictionary codes.
        codes: HashSet<u32>,
        /// Negated.
        negated: bool,
    },
    /// String ordering comparison (lexicographic, resolved per row).
    StrCmp {
        /// Column index.
        col: usize,
        /// Operator (only `<,<=,>,>=`).
        op: CmpOp,
        /// Constant.
        rhs: String,
    },
    /// Conjunction.
    And(Box<Compiled>, Box<Compiled>),
    /// Disjunction.
    Or(Box<Compiled>, Box<Compiled>),
    /// Negation.
    Not(Box<Compiled>),
    /// Constant truth value (e.g. `IS NULL` on NOT NULL data).
    Const(bool),
}

impl Compiled {
    /// Evaluates the predicate on one row of a table.
    pub fn eval(&self, table: &TableData, row: usize) -> bool {
        match self {
            Compiled::NumCmp { col, op, rhs } => {
                let v = table.columns[*col].get_f64(row).unwrap_or(f64::NAN);
                cmp_f64(v, *op, *rhs)
            }
            Compiled::NumColCmp { left, op, right } => {
                let a = table.columns[*left].get_f64(row).unwrap_or(f64::NAN);
                let b = table.columns[*right].get_f64(row).unwrap_or(f64::NAN);
                cmp_f64(a, *op, b)
            }
            Compiled::NumBetween { col, low, high } => {
                let v = table.columns[*col].get_f64(row).unwrap_or(f64::NAN);
                v >= *low && v <= *high
            }
            Compiled::NumInSet { col, set, negated } => {
                let hit = match &table.columns[*col] {
                    ColumnData::Int(v) => set.contains(&v[row]),
                    ColumnData::Float(v) => {
                        let f = v[row];
                        f.fract() == 0.0 && set.contains(&(f as i64))
                    }
                    ColumnData::Str { .. } => false,
                };
                hit != *negated
            }
            Compiled::StrInCodes { col, codes, negated } => {
                let hit = match &table.columns[*col] {
                    ColumnData::Str { codes: rows, .. } => codes.contains(&rows[row]),
                    _ => false,
                };
                hit != *negated
            }
            Compiled::StrCmp { col, op, rhs } => match &table.columns[*col] {
                ColumnData::Str { codes, dict } => {
                    let s = dict.string(codes[row]);
                    match op {
                        CmpOp::Lt => s < rhs.as_str(),
                        CmpOp::Le => s <= rhs.as_str(),
                        CmpOp::Gt => s > rhs.as_str(),
                        CmpOp::Ge => s >= rhs.as_str(),
                        CmpOp::Eq => s == rhs.as_str(),
                        CmpOp::Ne => s != rhs.as_str(),
                    }
                }
                _ => false,
            },
            Compiled::And(a, b) => a.eval(table, row) && b.eval(table, row),
            Compiled::Or(a, b) => a.eval(table, row) || b.eval(table, row),
            Compiled::Not(a) => !a.eval(table, row),
            Compiled::Const(v) => *v,
        }
    }
}

fn cmp_f64(a: f64, op: CmpOp, b: f64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// SQL `LIKE` pattern match (`%` = any run, `_` = any char), case
/// sensitive, iterative with backtracking.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi, si));
            pi += 1;
        } else if let Some((sp, ss)) = star {
            pi = sp + 1;
            si = ss + 1;
            star = Some((sp, ss + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// Compiles a single-table predicate expression for binding `target`.
///
/// `resolve` must already have confirmed that every column in `expr`
/// belongs to `target`.
///
/// # Errors
/// Propagates resolution errors and reports unsupported shapes.
pub fn compile(
    expr: &Expr,
    target: usize,
    bindings: &Bindings,
    db: &Database,
) -> Result<Compiled, ExecError> {
    let resolve = |cr: &preqr_sql::ast::ColumnRef| -> Result<BoundColumn, ExecError> {
        let bc = bindings.resolve(cr, db.schema())?;
        if bc.table != target {
            return Err(ExecError::Unsupported(format!("predicate on `{cr}` is not single-table")));
        }
        Ok(bc)
    };
    let table_name = bindings.table_name(target);
    let column_data = |bc: BoundColumn| -> &ColumnData {
        &db.table(table_name).expect("bound table exists").columns[bc.column]
    };
    match expr {
        Expr::And(a, b) => Ok(Compiled::And(
            Box::new(compile(a, target, bindings, db)?),
            Box::new(compile(b, target, bindings, db)?),
        )),
        Expr::Or(a, b) => Ok(Compiled::Or(
            Box::new(compile(a, target, bindings, db)?),
            Box::new(compile(b, target, bindings, db)?),
        )),
        Expr::Not(a) => Ok(Compiled::Not(Box::new(compile(a, target, bindings, db)?))),
        Expr::Cmp { left, op, right } => match (left, right) {
            (Scalar::Column(c), Scalar::Value(v)) => {
                let bc = resolve(c)?;
                compile_cmp(bc, *op, v, column_data(bc))
            }
            (Scalar::Value(v), Scalar::Column(c)) => {
                let bc = resolve(c)?;
                compile_cmp(bc, op.flip(), v, column_data(bc))
            }
            (Scalar::Column(a), Scalar::Column(b)) => {
                let (ba, bb) = (resolve(a)?, resolve(b)?);
                Ok(Compiled::NumColCmp { left: ba.column, op: *op, right: bb.column })
            }
            (Scalar::Value(a), Scalar::Value(b)) => {
                let truth = match (a.as_f64(), b.as_f64()) {
                    (Some(x), Some(y)) => cmp_f64(x, *op, y),
                    _ => false,
                };
                Ok(Compiled::Const(truth))
            }
        },
        Expr::Between { col, low, high } => {
            let bc = resolve(col)?;
            let (l, h) = match (low.as_f64(), high.as_f64()) {
                (Some(l), Some(h)) => (l, h),
                _ => return Err(ExecError::Unsupported("BETWEEN over strings".to_string())),
            };
            Ok(Compiled::NumBetween { col: bc.column, low: l, high: h })
        }
        Expr::InList { col, values, negated } => {
            let bc = resolve(col)?;
            match column_data(bc) {
                ColumnData::Str { dict, .. } => {
                    let codes: HashSet<u32> = values
                        .iter()
                        .filter_map(|v| match v {
                            Value::Str(s) => dict.code(s),
                            _ => None,
                        })
                        .collect();
                    Ok(Compiled::StrInCodes { col: bc.column, codes, negated: *negated })
                }
                _ => {
                    let set: HashSet<i64> = values
                        .iter()
                        .filter_map(Value::as_f64)
                        .filter(|f| f.fract() == 0.0)
                        .map(|f| f as i64)
                        .collect();
                    Ok(Compiled::NumInSet { col: bc.column, set, negated: *negated })
                }
            }
        }
        Expr::Like { col, pattern, negated } => {
            let bc = resolve(col)?;
            match column_data(bc) {
                ColumnData::Str { dict, .. } => {
                    let codes: HashSet<u32> = dict
                        .iter()
                        .filter(|(_, s)| like_match(s, pattern))
                        .map(|(c, _)| c)
                        .collect();
                    Ok(Compiled::StrInCodes { col: bc.column, codes, negated: *negated })
                }
                _ => Ok(Compiled::Const(*negated)),
            }
        }
        Expr::IsNull { negated, .. } => {
            // Generated data contains no NULLs.
            Ok(Compiled::Const(*negated))
        }
        Expr::InSubquery { .. } => Err(ExecError::Unsupported(
            "IN subquery must be pre-evaluated by the executor".to_string(),
        )),
    }
}

fn compile_cmp(
    bc: BoundColumn,
    op: CmpOp,
    v: &Value,
    col: &ColumnData,
) -> Result<Compiled, ExecError> {
    match (col, v) {
        (ColumnData::Str { dict, .. }, Value::Str(s)) => match op {
            CmpOp::Eq | CmpOp::Ne => {
                let codes: HashSet<u32> = dict.code(s).into_iter().collect();
                Ok(Compiled::StrInCodes { col: bc.column, codes, negated: op == CmpOp::Ne })
            }
            other => Ok(Compiled::StrCmp { col: bc.column, op: other, rhs: s.clone() }),
        },
        (ColumnData::Str { .. }, _) => {
            Err(ExecError::Unsupported("numeric literal compared to a string column".to_string()))
        }
        (_, v) => {
            let rhs = v.as_f64().ok_or_else(|| {
                ExecError::Unsupported("string literal compared to a numeric column".to_string())
            })?;
            Ok(Compiled::NumCmp { col: bc.column, op, rhs })
        }
    }
}

/// Filters a table, returning row ids satisfying the compiled predicate.
pub fn filter_rows(table: &TableData, pred: &Compiled) -> Vec<u32> {
    let n = table.row_count();
    let mut out = Vec::new();
    for row in 0..n {
        if pred.eval(table, row) {
            out.push(row as u32);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::Datum;
    use preqr_schema::{Column, ColumnType, Schema, Table};
    use preqr_sql::parser::parse;

    fn db() -> Database {
        let mut s = Schema::new();
        s.add_table(Table::new(
            "t",
            vec![
                Column::primary("id", ColumnType::Int),
                Column::new("year", ColumnType::Int),
                Column::new("name", ColumnType::Varchar),
            ],
        ));
        let mut db = Database::new(s);
        let names = ["alpha", "beta", "alphabet", "gamma", "beta"];
        for (i, n) in names.iter().enumerate() {
            db.insert(
                "t",
                &[Datum::Int(i as i64), Datum::Int(2000 + i as i64), Datum::Str((*n).into())],
            );
        }
        db
    }

    fn rows_matching(db: &Database, sql: &str) -> Vec<u32> {
        let q = parse(sql).unwrap();
        let b = Bindings::of(&q.body, db.schema()).unwrap();
        let pred = compile(q.body.where_clause.as_ref().unwrap(), 0, &b, db).unwrap();
        filter_rows(db.table("t").unwrap(), &pred)
    }

    #[test]
    fn like_match_semantics() {
        assert!(like_match("alphabet", "alpha%"));
        assert!(like_match("alphabet", "%bet"));
        assert!(like_match("alphabet", "%pha%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
        assert!(!like_match("xyz", "abc"));
    }

    #[test]
    fn numeric_range_filter() {
        let db = db();
        assert_eq!(rows_matching(&db, "SELECT * FROM t WHERE year > 2002"), vec![3, 4]);
        assert_eq!(
            rows_matching(&db, "SELECT * FROM t WHERE year BETWEEN 2001 AND 2002"),
            vec![1, 2]
        );
        assert_eq!(rows_matching(&db, "SELECT * FROM t WHERE 2002 < year"), vec![3, 4]);
    }

    #[test]
    fn string_equality_and_in() {
        let db = db();
        assert_eq!(rows_matching(&db, "SELECT * FROM t WHERE name = 'beta'"), vec![1, 4]);
        assert_eq!(rows_matching(&db, "SELECT * FROM t WHERE name != 'beta'"), vec![0, 2, 3]);
        assert_eq!(
            rows_matching(&db, "SELECT * FROM t WHERE name IN ('alpha', 'gamma')"),
            vec![0, 3]
        );
        assert_eq!(
            rows_matching(&db, "SELECT * FROM t WHERE name NOT IN ('alpha', 'gamma')"),
            vec![1, 2, 4]
        );
    }

    #[test]
    fn like_filter_uses_dictionary() {
        let db = db();
        assert_eq!(rows_matching(&db, "SELECT * FROM t WHERE name LIKE 'alpha%'"), vec![0, 2]);
        assert_eq!(rows_matching(&db, "SELECT * FROM t WHERE name NOT LIKE '%a'"), vec![2]);
    }

    #[test]
    fn unknown_string_literal_matches_nothing() {
        let db = db();
        assert!(rows_matching(&db, "SELECT * FROM t WHERE name = 'zzz'").is_empty());
    }

    #[test]
    fn boolean_combinations() {
        let db = db();
        assert_eq!(
            rows_matching(
                &db,
                "SELECT * FROM t WHERE (name = 'beta' OR name = 'alpha') AND year < 2004"
            ),
            vec![0, 1]
        );
        assert_eq!(rows_matching(&db, "SELECT * FROM t WHERE NOT (year > 2000)"), vec![0]);
    }

    #[test]
    fn int_in_list_filter() {
        let db = db();
        assert_eq!(rows_matching(&db, "SELECT * FROM t WHERE id IN (0, 4, 9)"), vec![0, 4]);
    }

    #[test]
    fn is_null_is_constant_on_not_null_data() {
        let db = db();
        assert!(rows_matching(&db, "SELECT * FROM t WHERE id IS NULL").is_empty());
        assert_eq!(rows_matching(&db, "SELECT * FROM t WHERE id IS NOT NULL").len(), 5);
    }

    #[test]
    fn same_table_column_comparison() {
        let db = db();
        assert!(rows_matching(&db, "SELECT * FROM t WHERE id = year").is_empty());
        assert_eq!(rows_matching(&db, "SELECT * FROM t WHERE id < year").len(), 5);
    }

    #[test]
    fn cross_table_predicate_is_rejected() {
        let mut schema = Schema::new();
        schema.add_table(Table::new("a", vec![Column::primary("id", ColumnType::Int)]));
        schema.add_table(Table::new("b", vec![Column::primary("id", ColumnType::Int)]));
        let db2 = Database::new(schema);
        let q = parse("SELECT * FROM a, b WHERE a.id = b.id").unwrap();
        let bind = Bindings::of(&q.body, db2.schema()).unwrap();
        let r = compile(q.body.where_clause.as_ref().unwrap(), 0, &bind, &db2);
        assert!(matches!(r, Err(ExecError::Unsupported(_))));
    }
}
