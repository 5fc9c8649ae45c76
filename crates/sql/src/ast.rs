//! Typed AST for the SQL subset used across the PreQR reproduction, with a
//! canonical pretty-printer (the printer output round-trips through the
//! parser).

use std::fmt;

/// A literal value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String.
    Str(String),
}

impl Value {
    /// Numeric view (strings are `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Str(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            // Keep a decimal point so floats re-parse as floats.
            Value::Float(v) if v.fract() == 0.0 && v.is_finite() => write!(f, "{v:.1}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

/// A possibly-qualified column reference.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    /// Table name or alias qualifier.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Unqualified reference.
    pub fn bare(column: impl Into<String>) -> Self {
        Self { table: None, column: column.into() }
    }

    /// Qualified reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        Self { table: Some(table.into()), column: column.into() }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// SQL spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// The operator with its operands swapped: `a op b` ⇔ `b op.flip() a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// All six operators (used by workload generators).
    pub fn all() -> [CmpOp; 6] {
        [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// A scalar operand in a comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum Scalar {
    /// Column reference.
    Column(ColumnRef),
    /// Literal value.
    Value(Value),
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Column(c) => write!(f, "{c}"),
            Scalar::Value(v) => write!(f, "{v}"),
        }
    }
}

/// Boolean predicate expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Binary comparison.
    Cmp {
        /// Left operand.
        left: Scalar,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        right: Scalar,
    },
    /// `col BETWEEN low AND high`.
    Between {
        /// Column tested.
        col: ColumnRef,
        /// Inclusive lower bound.
        low: Value,
        /// Inclusive upper bound.
        high: Value,
    },
    /// `col [NOT] IN (v1, v2, …)`.
    InList {
        /// Column tested.
        col: ColumnRef,
        /// Candidate values.
        values: Vec<Value>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `col [NOT] IN (SELECT …)`.
    InSubquery {
        /// Column tested.
        col: ColumnRef,
        /// The subquery; must project one column.
        subquery: Box<Query>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `col [NOT] LIKE 'pattern'` (`%` and `_` wildcards).
    Like {
        /// Column tested.
        col: ColumnRef,
        /// Pattern.
        pattern: String,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// `col IS [NOT] NULL`.
    IsNull {
        /// Column tested.
        col: ColumnRef,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

impl Expr {
    /// Builds the conjunction of a non-empty list of predicates.
    ///
    /// # Panics
    /// Panics on an empty list.
    pub fn and_all(mut exprs: Vec<Expr>) -> Expr {
        assert!(!exprs.is_empty(), "and_all needs at least one predicate");
        let mut acc = exprs.remove(0);
        for e in exprs {
            acc = Expr::And(Box::new(acc), Box::new(e));
        }
        acc
    }

    /// Flattens nested conjunctions into a list (non-AND nodes become
    /// single-element conjuncts).
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::And(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// All column references mentioned anywhere in this expression.
    pub fn columns(&self) -> Vec<&ColumnRef> {
        let mut out = Vec::new();
        fn scalar<'a>(s: &'a Scalar, out: &mut Vec<&'a ColumnRef>) {
            if let Scalar::Column(c) = s {
                out.push(c);
            }
        }
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a ColumnRef>) {
            match e {
                Expr::And(a, b) | Expr::Or(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                Expr::Not(a) => walk(a, out),
                Expr::Cmp { left, right, .. } => {
                    scalar(left, out);
                    scalar(right, out);
                }
                Expr::Between { col, .. }
                | Expr::InList { col, .. }
                | Expr::Like { col, .. }
                | Expr::IsNull { col, .. } => out.push(col),
                Expr::InSubquery { col, subquery, .. } => {
                    out.push(col);
                    for sel in subquery.selects() {
                        if let Some(w) = &sel.where_clause {
                            walk(w, out);
                        }
                    }
                }
            }
        }
        walk(self, &mut out);
        out
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::And(a, b) => write!(f, "{a} AND {b}"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(a) => write!(f, "NOT ({a})"),
            Expr::Cmp { left, op, right } => write!(f, "{left} {op} {right}"),
            Expr::Between { col, low, high } => write!(f, "{col} BETWEEN {low} AND {high}"),
            Expr::InList { col, values, negated } => {
                let vs: Vec<String> = values.iter().map(Value::to_string).collect();
                write!(f, "{col} {}IN ({})", if *negated { "NOT " } else { "" }, vs.join(", "))
            }
            Expr::InSubquery { col, subquery, negated } => {
                write!(f, "{col} {}IN ({subquery})", if *negated { "NOT " } else { "" })
            }
            Expr::Like { col, pattern, negated } => {
                write!(f, "{col} {}LIKE '{pattern}'", if *negated { "NOT " } else { "" })
            }
            Expr::IsNull { col, negated } => {
                write!(f, "{col} IS {}NULL", if *negated { "NOT " } else { "" })
            }
        }
    }
}

/// Aggregate functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// SQL spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// One item of the projection list.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Star,
    /// Plain column.
    Column(ColumnRef),
    /// Aggregate call; `arg = None` means `COUNT(*)`.
    Aggregate {
        /// Function.
        func: AggFunc,
        /// Argument column (`None` only valid for COUNT).
        arg: Option<ColumnRef>,
        /// DISTINCT modifier.
        distinct: bool,
    },
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Star => write!(f, "*"),
            SelectItem::Column(c) => write!(f, "{c}"),
            SelectItem::Aggregate { func, arg, distinct } => {
                let d = if *distinct { "DISTINCT " } else { "" };
                match arg {
                    Some(c) => write!(f, "{}({d}{c})", func.as_str()),
                    None => write!(f, "{}({d}*)", func.as_str()),
                }
            }
        }
    }
}

/// A table reference with an optional alias.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// Alias, if any.
    pub alias: Option<String>,
}

impl TableRef {
    /// Reference without an alias.
    pub fn new(table: impl Into<String>) -> Self {
        Self { table: table.into(), alias: None }
    }

    /// Reference with an alias.
    pub fn aliased(table: impl Into<String>, alias: impl Into<String>) -> Self {
        Self { table: table.into(), alias: Some(alias.into()) }
    }

    /// The name predicates use to refer to this table (alias if present).
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} {a}", self.table),
            None => write!(f, "{}", self.table),
        }
    }
}

/// An explicit `JOIN … ON …` clause.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinClause {
    /// Joined table.
    pub table: TableRef,
    /// Join condition.
    pub on: Expr,
}

/// One SELECT statement (no set operators).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SelectStmt {
    /// Projection list.
    pub projections: Vec<SelectItem>,
    /// FROM list (implicit cross-join style).
    pub from: Vec<TableRef>,
    /// Explicit JOIN clauses following the FROM list.
    pub joins: Vec<JoinClause>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY columns.
    pub group_by: Vec<ColumnRef>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY list; `true` = descending.
    pub order_by: Vec<(ColumnRef, bool)>,
    /// LIMIT count.
    pub limit: Option<u64>,
}

impl SelectStmt {
    /// All table references (FROM list plus JOINs).
    pub fn tables(&self) -> Vec<&TableRef> {
        self.from.iter().chain(self.joins.iter().map(|j| &j.table)).collect()
    }
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let proj: Vec<String> = self.projections.iter().map(SelectItem::to_string).collect();
        write!(f, "SELECT {}", proj.join(", "))?;
        if !self.from.is_empty() {
            let from: Vec<String> = self.from.iter().map(TableRef::to_string).collect();
            write!(f, " FROM {}", from.join(", "))?;
        }
        for j in &self.joins {
            write!(f, " JOIN {} ON {}", j.table, j.on)?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            let g: Vec<String> = self.group_by.iter().map(ColumnRef::to_string).collect();
            write!(f, " GROUP BY {}", g.join(", "))?;
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            let o: Vec<String> = self
                .order_by
                .iter()
                .map(|(c, desc)| format!("{c}{}", if *desc { " DESC" } else { "" }))
                .collect();
            write!(f, " ORDER BY {}", o.join(", "))?;
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

/// A full query: a SELECT optionally UNIONed with further SELECTs.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// The first SELECT.
    pub body: SelectStmt,
    /// Further SELECTs combined with `UNION` (set semantics).
    pub unions: Vec<SelectStmt>,
}

impl Query {
    /// Wraps a single SELECT.
    pub fn single(body: SelectStmt) -> Self {
        Self { body, unions: Vec::new() }
    }

    /// All member SELECTs in order.
    pub fn selects(&self) -> Vec<&SelectStmt> {
        std::iter::once(&self.body).chain(self.unions.iter()).collect()
    }

    /// The canonical SQL text of this query.
    pub fn sql(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.body)?;
        for u in &self.unions {
            write!(f, " UNION {u}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_select() -> SelectStmt {
        SelectStmt {
            projections: vec![SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            }],
            from: vec![TableRef::aliased("title", "t"), TableRef::aliased("movie_companies", "mc")],
            joins: vec![],
            where_clause: Some(Expr::and_all(vec![
                Expr::Cmp {
                    left: Scalar::Column(ColumnRef::qualified("t", "id")),
                    op: CmpOp::Eq,
                    right: Scalar::Column(ColumnRef::qualified("mc", "movie_id")),
                },
                Expr::Cmp {
                    left: Scalar::Column(ColumnRef::qualified("t", "production_year")),
                    op: CmpOp::Gt,
                    right: Scalar::Value(Value::Int(2010)),
                },
            ])),
            ..Default::default()
        }
    }

    #[test]
    fn display_matches_expected_sql() {
        let q = Query::single(sample_select());
        assert_eq!(
            q.sql(),
            "SELECT COUNT(*) FROM title t, movie_companies mc \
             WHERE t.id = mc.movie_id AND t.production_year > 2010"
        );
    }

    #[test]
    fn flip_swaps_the_operand_order() {
        use CmpOp::*;
        for (op, flipped) in [(Eq, Eq), (Ne, Ne), (Lt, Gt), (Le, Ge), (Gt, Lt), (Ge, Le)] {
            assert_eq!(op.flip(), flipped);
        }
        for op in CmpOp::all() {
            assert_eq!(op.flip().flip(), op);
        }
    }

    #[test]
    fn conjuncts_flatten() {
        let s = sample_select();
        let w = s.where_clause.unwrap();
        assert_eq!(w.conjuncts().len(), 2);
    }

    #[test]
    fn expr_columns_collects_all() {
        let s = sample_select();
        let w = s.where_clause.unwrap();
        let cols = w.columns();
        assert_eq!(cols.len(), 3);
        assert!(cols.contains(&&ColumnRef::qualified("mc", "movie_id")));
    }

    #[test]
    fn and_all_single_is_identity() {
        let e = Expr::IsNull { col: ColumnRef::bare("x"), negated: false };
        assert_eq!(Expr::and_all(vec![e.clone()]), e);
    }

    #[test]
    fn value_as_f64() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(0.5).as_f64(), Some(0.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn string_value_display_escapes_quotes() {
        assert_eq!(Value::Str("O'Brien".into()).to_string(), "'O''Brien'");
    }

    #[test]
    fn binding_prefers_alias() {
        assert_eq!(TableRef::aliased("title", "t").binding(), "t");
        assert_eq!(TableRef::new("title").binding(), "title");
    }

    #[test]
    fn union_display() {
        let mut a = SelectStmt::default();
        a.projections.push(SelectItem::Column(ColumnRef::bare("name")));
        a.from.push(TableRef::new("u"));
        let q = Query { body: a.clone(), unions: vec![a] };
        assert_eq!(q.sql(), "SELECT name FROM u UNION SELECT name FROM u");
    }

    #[test]
    fn in_list_display() {
        let e = Expr::InList {
            col: ColumnRef::bare("rank"),
            values: vec![Value::Str("adm".into()), Value::Str("sup".into())],
            negated: false,
        };
        assert_eq!(e.to_string(), "rank IN ('adm', 'sup')");
    }
}
