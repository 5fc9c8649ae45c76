//! `preqr` — reproduction of **PreQR: Pre-training Representation for SQL
//! Understanding** (SIGMOD 2022).
//!
//! The model has three modules (Figure 3 of the paper):
//!
//! 1. **Input Embedding** ([`embedding`]) — composite token / SQL-state /
//!    position embeddings; literals are replaced by per-column value-range
//!    tokens; the SQL state comes from SQL2Automaton (crate
//!    `preqr-automaton`).
//! 2. **Query-Aware Schema** ([`schema2graph`]) — the database schema as a
//!    ten-relation graph, vertex names encoded with a BiLSTM, propagated
//!    with a relational GCN, linked to the query by scaled dot-product
//!    attention inside every transformer block.
//! 3. **SQLBERT** ([`sqlbert`]) — a stack of [`trm_g::TrmG`] layers
//!    pre-trained with masked language modelling; the final representation
//!    is `y = Concat(e_q, e_g)`.
//!
//! [`update`] implements the four incremental-update paths of §3.6.
//!
//! ```no_run
//! use preqr::{PreqrConfig, SqlBert, ValueBuckets};
//! use preqr_schema::{Column, ColumnType, Schema, Table};
//! use preqr_sql::parser::parse;
//!
//! let mut schema = Schema::new();
//! schema.add_table(Table::new("title", vec![
//!     Column::primary("id", ColumnType::Int),
//!     Column::new("production_year", ColumnType::Int),
//! ]));
//! let corpus = vec![
//!     parse("SELECT COUNT(*) FROM title t WHERE t.production_year > 2000").unwrap(),
//! ];
//! let mut buckets = ValueBuckets::new(8);
//! buckets.insert("title", "production_year", (1930..2020).map(f64::from).collect());
//! let mut model = SqlBert::new(&corpus, &schema, buckets, PreqrConfig::small());
//! model.pretrain(&corpus, 3, 1e-3);
//! let embedding = model.cls_vector(&corpus[0]);
//! assert_eq!(embedding.len(), PreqrConfig::small().output_dim());
//! ```

#![warn(missing_docs)]
pub mod config;
pub mod embedding;
pub mod schema2graph;
pub mod sqlbert;
pub mod trm_g;
pub mod update;

pub use config::PreqrConfig;
pub use embedding::{InputEmbedding, PreparedQuery, ValueBuckets};
pub use schema2graph::Schema2Graph;
pub use sqlbert::{ChunkNodes, EpochStats, SqlBert};
pub use trm_g::TrmG;
