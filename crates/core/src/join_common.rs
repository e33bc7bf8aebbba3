//! Join variants and shared helpers.
//!
//! The paper's host system supports "all variants of equi-joins, including
//! outer-, mark-, semi-, and anti-joins" (§1). Variants are classified by
//! *which side they preserve* relative to the build/probe roles — e.g.
//! TPC-H Q22's `NOT EXISTS` becomes an anti join that preserves the build
//! side (customer is built, the large orders relation probes, §5.3.2).

use joinstudy_exec::expr::Expr;
use joinstudy_storage::column::{ColumnData, StrColumn};
use joinstudy_storage::table::{Field, Schema};
use joinstudy_storage::types::DataType;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Equi-join variants, named by the preserved side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// All matching (build, probe) pairs.
    Inner,
    /// Probe tuples with ≥ 1 match (EXISTS with probe preserved).
    ProbeSemi,
    /// Probe tuples with no match (NOT EXISTS / NOT IN).
    ProbeAnti,
    /// Every probe tuple plus a boolean "has match" column.
    ProbeMark,
    /// All pairs, plus unmatched probe tuples padded with NULL build columns
    /// (an outer join preserving the probe side).
    ProbeOuter,
    /// Build tuples with ≥ 1 match.
    BuildSemi,
    /// Build tuples with no match (Q22's variant).
    BuildAnti,
}

/// Name of the synthetic mark column.
pub const MARK_COLUMN: &str = "@mark";

impl JoinType {
    /// Whether the variant needs per-build-tuple "matched" bookkeeping and
    /// emits (only) build tuples after the probe completes.
    pub fn preserves_build(self) -> bool {
        matches!(self, JoinType::BuildSemi | JoinType::BuildAnti)
    }

    /// Whether probe tuples can pass without a match. Such variants must
    /// not pre-filter the probe side with a Bloom filter *droppingly*; the
    /// BRJ handles them by disabling the reducer (the optimizer would not
    /// choose it there anyway).
    pub fn probe_tuples_survive_unmatched(self) -> bool {
        matches!(
            self,
            JoinType::ProbeAnti | JoinType::ProbeMark | JoinType::ProbeOuter
        )
    }

    /// Output schema given both input schemas.
    pub fn output_schema(self, build: &Schema, probe: &Schema) -> Schema {
        match self {
            JoinType::Inner | JoinType::ProbeOuter => {
                let mut fields = build.fields.clone();
                fields.extend(probe.fields.iter().cloned());
                Schema::new(fields)
            }
            JoinType::ProbeSemi | JoinType::ProbeAnti => probe.clone(),
            JoinType::ProbeMark => {
                let mut fields = probe.fields.clone();
                fields.push(Field::new(MARK_COLUMN, DataType::Bool));
                Schema::new(fields)
            }
            JoinType::BuildSemi | JoinType::BuildAnti => build.clone(),
        }
    }
}

/// Shared per-join counters filled during the probe phase: the Join
/// node's `probe_total` and `probe_matched` (Figure 2's join-partner
/// statistics).
#[derive(Debug, Default, Clone)]
pub struct JoinStats {
    /// Probe tuples processed.
    pub probe_total: Arc<AtomicU64>,
    /// Probe tuples with at least one join partner.
    pub probe_matched: Arc<AtomicU64>,
}

/// A join's residual predicate: a condition beyond key equality, written
/// over the `build ++ probe` columns whatever the join type, that a
/// key-equal candidate pair must pass before it counts — before it is
/// emitted, marks its build row or makes its probe row matched. Every
/// algorithm tests it in one place, on candidate pairs decoded a batch at a
/// time, and adds what it saw to the two counters (EXPLAIN ANALYZE).
pub struct Residual {
    pub pred: Expr,
    /// Key-equal candidate pairs tested.
    pub candidates: Arc<AtomicU64>,
    /// Candidate pairs that passed.
    pub passed: Arc<AtomicU64>,
}

impl Residual {
    pub fn new(pred: Expr) -> Arc<Residual> {
        Arc::new(Residual {
            pred,
            candidates: Arc::default(),
            passed: Arc::default(),
        })
    }

    /// Publish one worker's (or one task's) counts.
    pub fn count(&self, candidates: u64, passed: u64) {
        self.candidates.fetch_add(candidates, Relaxed);
        self.passed.fetch_add(passed, Relaxed);
    }
}

/// An all-default column of `n` rows (NULL padding storage for outer joins;
/// the accompanying validity mask carries the NULL-ness).
pub fn default_column(dtype: DataType, n: usize) -> ColumnData {
    match dtype {
        DataType::Bool => ColumnData::Bool(vec![false; n]),
        DataType::Int32 => ColumnData::Int32(vec![0; n]),
        DataType::Int64 => ColumnData::Int64(vec![0; n]),
        DataType::Float64 => ColumnData::Float64(vec![0.0; n]),
        DataType::Date => ColumnData::Date(vec![0; n]),
        DataType::Decimal => ColumnData::Decimal(vec![0; n]),
        DataType::Str => {
            let mut c = StrColumn::new();
            for _ in 0..n {
                c.push("");
            }
            ColumnData::Str(c)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schemas() -> (Schema, Schema) {
        (
            Schema::of(&[("bk", DataType::Int64), ("bp", DataType::Str)]),
            Schema::of(&[("pk", DataType::Int64), ("pp", DataType::Decimal)]),
        )
    }

    #[test]
    fn output_schemas_per_variant() {
        let (b, p) = schemas();
        assert_eq!(JoinType::Inner.output_schema(&b, &p).len(), 4);
        assert_eq!(JoinType::ProbeOuter.output_schema(&b, &p).len(), 4);
        assert_eq!(JoinType::ProbeSemi.output_schema(&b, &p), p);
        assert_eq!(JoinType::ProbeAnti.output_schema(&b, &p), p);
        let mark = JoinType::ProbeMark.output_schema(&b, &p);
        assert_eq!(mark.len(), 3);
        assert_eq!(mark.fields[2].name, MARK_COLUMN);
        assert_eq!(JoinType::BuildSemi.output_schema(&b, &p), b);
        assert_eq!(JoinType::BuildAnti.output_schema(&b, &p), b);
    }

    #[test]
    fn classification_flags() {
        assert!(JoinType::BuildAnti.preserves_build());
        assert!(JoinType::BuildSemi.preserves_build());
        assert!(!JoinType::Inner.preserves_build());
        assert!(JoinType::ProbeAnti.probe_tuples_survive_unmatched());
        assert!(JoinType::ProbeOuter.probe_tuples_survive_unmatched());
        assert!(!JoinType::ProbeSemi.probe_tuples_survive_unmatched());
        assert!(!JoinType::Inner.probe_tuples_survive_unmatched());
    }

    #[test]
    fn default_columns_have_requested_length() {
        for t in [
            DataType::Bool,
            DataType::Int32,
            DataType::Int64,
            DataType::Float64,
            DataType::Date,
            DataType::Decimal,
            DataType::Str,
        ] {
            let c = default_column(t, 5);
            assert_eq!(c.len(), 5);
            assert_eq!(c.data_type(), t);
        }
    }
}
