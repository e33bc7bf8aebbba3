//! A small SQL frontend for the join study.
//!
//! The paper's host system "accepts the queries using a SQL frontend"
//! (§4), and the paper specifies its microbenchmarks as SQL (§5.1.2,
//! §5.2, §5.4.2). This crate makes those statements runnable verbatim:
//!
//! ```
//! use joinstudy_sql::Session;
//! use joinstudy_core::JoinAlgo;
//!
//! let mut session = Session::new(2);
//! session.execute("CREATE TABLE b (key BIGINT NOT NULL, pay BIGINT NOT NULL)").unwrap();
//! session.execute("INSERT INTO b VALUES (1, 10), (2, 20), (3, 30)").unwrap();
//! session.execute("CREATE TABLE r (k BIGINT, p BIGINT)").unwrap();
//! session.execute("INSERT INTO r VALUES (2, 0), (2, 1), (9, 2)").unwrap();
//!
//! session.set_join_algo(JoinAlgo::Brj);
//! let t = session.execute("SELECT count(*) FROM r, b WHERE r.k = b.key").unwrap();
//! assert_eq!(t.column(0).as_i64()[0], 2);
//! ```
//!
//! Supported subset (documented in [`parser`]): `CREATE TABLE`,
//! multi-row `INSERT INTO ... VALUES`, and `SELECT` with multi-table FROM
//! (comma joins), WHERE (including join predicates, `BETWEEN`, `IN`,
//! `LIKE`, `CASE`, `EXTRACT(YEAR ...)`, `substring`), aggregates
//! (`count(*)`, `count(distinct)`, `sum`, `avg`, `min`, `max`), `GROUP
//! BY`, `ORDER BY ... [DESC]`, and `LIMIT`. Equality predicates between
//! two tables become hash joins, planned left-deep smallest-build-first
//! and executed with the session's configured join algorithm.

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod planner;
pub mod server;
pub mod session;
pub mod stats;

pub use server::{ServerConfig, SqlServer};
pub use session::{Session, SqlError};
pub use stats::{AshRing, AshSample, StatLog};
