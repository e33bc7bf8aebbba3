//! The groupjoin (Moerkotte & Neumann, VLDB'11), the paper's Q13 operator
//! (footnote 6): one group per build tuple, updated in place by its probe
//! matches, output once even if empty. It is the BHJ with another action on
//! a match: [`cells_op`] gives each build row a zero 8-byte cell per
//! aggregate, [`GroupJoinProbeOp`] adds each match the BHJ's staged chain
//! walk finds into them, and `BhjUnmatchedSource::every_row` emits the rows.

use crate::bhj::{BhjWalker, ProbeLocal};
use joinstudy_exec::batch::Batch;
use joinstudy_exec::error::ExecResult;
use joinstudy_exec::expr::Expr;
use joinstudy_exec::ops::ProjectOp;
use joinstudy_exec::pipeline::{Emit, LocalState, Operator};
use joinstudy_storage::table::{Field, Schema};
use joinstudy_storage::types::Decimal;
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

/// Aggregates a groupjoin can maintain per build row. All states fit in one
/// atomic 64-bit cell, which is what makes lock-free parallel probes work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupAggFunc {
    /// Number of matching probe tuples.
    CountMatches,
    /// Sum of an Int64 probe column over the matches.
    SumInt64,
    /// Sum of a Decimal probe column over the matches.
    SumDecimal,
}

/// One aggregate column of the groupjoin output.
#[derive(Debug, Clone)]
pub struct GroupAggSpec {
    pub func: GroupAggFunc,
    /// Probe column the aggregate reads (ignored for `CountMatches`).
    pub input: usize,
    pub name: String,
}

impl GroupAggSpec {
    pub fn count(name: impl Into<String>) -> GroupAggSpec {
        GroupAggSpec::sum(GroupAggFunc::CountMatches, 0, name)
    }

    pub fn sum(func: GroupAggFunc, input: usize, name: impl Into<String>) -> GroupAggSpec {
        let name = name.into();
        GroupAggSpec { func, input, name }
    }

    /// The state before any match, typed as the output column.
    fn zero(&self) -> Expr {
        match self.func {
            GroupAggFunc::CountMatches | GroupAggFunc::SumInt64 => Expr::i64(0),
            GroupAggFunc::SumDecimal => Expr::dec(Decimal(0)),
        }
    }
}

/// Output schema of a groupjoin: build columns followed by the aggregates.
/// The one derivation, for the plan node and the operators alike.
pub fn output_schema(build_schema: &Schema, aggs: &[GroupAggSpec]) -> Schema {
    let cell = |a: &GroupAggSpec| Field::new(&a.name, a.zero().dtype(build_schema));
    let cells = aggs.iter().map(cell);
    Schema::new(build_schema.fields.iter().cloned().chain(cells).collect())
}

/// Widens a `width`-column build side to [`output_schema`] by zero cells.
pub fn cells_op(width: usize, aggs: &[GroupAggSpec]) -> ProjectOp {
    let zeros = aggs.iter().map(GroupAggSpec::zero);
    ProjectOp::new((0..width).map(Expr::col).chain(zeros).collect())
}

/// In-pipeline probe adding every match into its row's cells; emits nothing.
pub struct GroupJoinProbeOp {
    pub walker: BhjWalker,
    /// Per aggregate: (cell offset in a row, probe column summed or `None`).
    cells: Vec<(usize, Option<usize>)>,
}

impl GroupJoinProbeOp {
    /// `walker`'s table holds a build side [`cells_op`] widened for `aggs`.
    pub fn new(walker: BhjWalker, aggs: &[GroupAggSpec]) -> GroupJoinProbeOp {
        let layout = &walker.state.layout;
        let first = layout.num_columns() - aggs.len();
        let cell = |(a, spec): (usize, &GroupAggSpec)| {
            let sums = spec.func != GroupAggFunc::CountMatches;
            (layout.col_offset(first + a), sums.then_some(spec.input))
        };
        let cells = aggs.iter().enumerate().map(cell).collect();
        GroupJoinProbeOp { walker, cells }
    }
}

impl Operator for GroupJoinProbeOp {
    fn create_local(&self) -> LocalState {
        Box::<ProbeLocal>::default()
    }

    fn process(&self, local: &mut LocalState, input: Batch, _out: Emit) -> ExecResult {
        let walk = &mut local.downcast_mut::<ProbeLocal>().expect("own local").walk;
        self.walker.walk(walk, &input, |r, row| {
            for &(off, sum) in &self.cells {
                let delta = sum.map_or(1, |c| input.column(c).as_i64()[r as usize]);
                // SAFETY: `walk` reports live rows of the walker's state, whose
                // cells are 8-aligned (arena pages are `Vec<u64>`, strides are
                // multiples of 8, `RowLayout` packs 8-byte slots first) and,
                // while probes run, touched by atomics only; the scan reads after.
                let cell = unsafe { AtomicI64::from_ptr(row.add(off).cast_mut().cast()) };
                cell.fetch_add(delta, Relaxed);
            }
            true
        });
        Ok(())
    }

    fn flush(&self, local: &mut LocalState, _out: Emit) -> ExecResult {
        self.walker.publish(local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bhj::{build_sink, BhjUnmatchedSource};
    use joinstudy_exec::pipeline::{Sink, Source};
    use joinstudy_storage::column::ColumnData;
    use joinstudy_storage::types::{DataType, Value, Value::Int64};

    type Kv = [(i64, i64)];

    /// The three pipelines operator by operator, every column Int64; rows by key.
    fn run_groupjoin(build: &Kv, probe: &Kv, aggs: Vec<GroupAggSpec>) -> Vec<Vec<Value>> {
        let kv = |rows: &Kv| {
            let col = |f: fn(&(i64, i64)) -> i64| ColumnData::Int64(rows.iter().map(f).collect());
            Batch::new(vec![col(|r| r.0), col(|r| r.1)])
        };
        let sink = build_sink(&vec![DataType::Int64; 2 + aggs.len()], vec![0]);
        let pad = cells_op(2, &aggs);
        let mut local = sink.create_local();
        let mut consume = |b| sink.consume(&mut local, b).unwrap();
        pad.process(&mut pad.create_local(), kv(build), &mut consume)
            .unwrap();
        sink.finish_local(local).unwrap();
        let exec = joinstudy_exec::Executor::new(1);
        let ctx = joinstudy_exec::context::QueryContext::unbounded();
        let state = sink.finalize_table(usize::MAX, &exec, &ctx).unwrap();
        let op = GroupJoinProbeOp::new(BhjWalker::new(state.clone(), vec![0], true), &aggs);
        let mut plocal = op.create_local();
        let mut no_output = |_: Batch| panic!("groupjoin probe must not emit");
        op.process(&mut plocal, kv(probe), &mut no_output).unwrap();
        op.flush(&mut plocal, &mut no_output).unwrap();
        let mut rows = Vec::new();
        let mut emit = |b: Batch| {
            let row = |r| (0..b.num_columns()).map(|c| b.value(c, r)).collect();
            rows.extend((0..b.num_rows()).map(row));
        };
        let source = BhjUnmatchedSource::every_row(state);
        (0..source.task_count()).for_each(|t| source.poll_task(t, &mut emit).unwrap());
        rows.sort_by_key(|r: &Vec<Value>| r[0].as_i64());
        rows
    }

    #[test]
    fn counts_matches_including_empty_groups() {
        let build = vec![(1, 10), (2, 20), (3, 30)];
        let probe = vec![(1, 100), (1, 101), (3, 300), (9, 900)];
        let rows = run_groupjoin(&build, &probe, vec![GroupAggSpec::count("n")]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec![Int64(1), Int64(10), Int64(2)]);
        assert_eq!(rows[1], vec![Int64(2), Int64(20), Int64(0)]);
        assert_eq!(rows[2], vec![Int64(3), Int64(30), Int64(1)]);
    }

    #[test]
    fn sums_probe_column() {
        let build = vec![(7, 0), (8, 0)];
        let probe = vec![(7, 5), (7, 6), (8, -2)];
        let sum = GroupAggSpec::sum(GroupAggFunc::SumInt64, 1, "s");
        let rows = run_groupjoin(&build, &probe, vec![GroupAggSpec::count("n"), sum]);
        assert_eq!(rows[0][2], Value::Int64(2));
        assert_eq!(rows[0][3], Value::Int64(11));
        assert_eq!(rows[1][2], Value::Int64(1));
        assert_eq!(rows[1][3], Value::Int64(-2));
    }

    #[test]
    fn duplicate_build_keys_each_get_their_matches() {
        // Groupjoin groups by build *row*, so duplicate keys both count.
        let build = vec![(5, 1), (5, 2)];
        let probe = vec![(5, 0), (5, 0), (5, 0)];
        let rows = run_groupjoin(&build, &probe, vec![GroupAggSpec::count("n")]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][2], Value::Int64(3));
        assert_eq!(rows[1][2], Value::Int64(3));
    }

    #[test]
    fn empty_probe_yields_all_zero_groups() {
        let rows = run_groupjoin(&[(1, 0), (2, 0)], &[], vec![GroupAggSpec::count("n")]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r[2] == Value::Int64(0)));
    }
}
