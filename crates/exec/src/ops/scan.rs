//! Morsel-wise base-table scan with projection and predicate pushdown.
//!
//! Mirrors the paper's "early materialization" table scan (§4.2): only the
//! required columns are read, scan-level predicates are applied before any
//! tuple is materialized, and the surviving tuples are stitched into batches
//! for the pipeline. Optionally emits a tuple-id column, which is the hook
//! late materialization (§4.2) uses to re-fetch columns after selective
//! joins.
//!
//! A pushed-down predicate selects over a [`Rows`] view of the table's own
//! columns before anything is copied; only the survivors are then gathered,
//! once. Unfiltered and all-pass batches are sliced. The read accounting
//! counts the projected rows before the filter, as the paper's scan reads
//! them.

use crate::batch::{slice_column, take_column, Batch};
use crate::error::ExecResult;
use crate::expr::{Expr, Rows};
use crate::metrics::{self, MemPhase};
use crate::pipeline::{Emit, Source};
use crate::BATCH_ROWS;
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::table::{Field, Morsel, Schema, Table, MORSEL_ROWS};
use joinstudy_storage::types::DataType;
use std::sync::Arc;

/// Name given to the synthetic tuple-id column.
pub const TID_COLUMN: &str = "@tid";

/// A morsel-driven scan over a materialized table.
pub struct TableScan {
    table: Arc<Table>,
    /// Projected column indices (in output order).
    cols: Vec<usize>,
    /// Pushed-down predicate over the *projected* columns (not `@tid`).
    filter: Option<Expr>,
    /// Emit a trailing `@tid` Int64 column with the base-table row id.
    emit_tid: bool,
    /// Phase attribution for byte accounting.
    phase: MemPhase,
    morsels: Vec<Morsel>,
}

impl TableScan {
    pub fn new(table: Arc<Table>, cols: Vec<usize>, filter: Option<Expr>) -> TableScan {
        let morsels = table.morsels(MORSEL_ROWS);
        TableScan {
            table,
            cols,
            filter,
            emit_tid: false,
            phase: MemPhase::Other,
            morsels,
        }
    }

    /// Scan projecting columns by name.
    pub fn by_names(table: Arc<Table>, names: &[&str], filter: Option<Expr>) -> TableScan {
        let cols = names.iter().map(|n| table.schema().index_of(n)).collect();
        TableScan::new(table, cols, filter)
    }

    /// Enable the trailing tuple-id column.
    pub fn with_tid(mut self) -> TableScan {
        self.emit_tid = true;
        self
    }

    /// Attribute the scan's read volume to the given phase (Figure 10).
    pub fn with_phase(mut self, phase: MemPhase) -> TableScan {
        self.phase = phase;
        self
    }

    /// The schema of emitted batches.
    pub fn output_schema(&self) -> Schema {
        TableScan::schema_of(&self.table, &self.cols, self.emit_tid)
    }

    /// What a scan of `cols` of `table` emits, `tid` adding the trailing
    /// tuple-id column. The one derivation, for plan nodes and scans alike.
    pub fn schema_of(table: &Table, cols: &[usize], tid: bool) -> Schema {
        let mut fields: Vec<Field> = cols
            .iter()
            .map(|&i| table.schema().fields[i].clone())
            .collect();
        if tid {
            fields.push(Field::new(TID_COLUMN, DataType::Int64));
        }
        Schema::new(fields)
    }
}

impl TableScan {
    /// Rows `start..end` of the projected columns (and `@tid`), copied out
    /// of the table: all of them, sliced, or those at positions `sel`,
    /// gathered.
    fn copy(&self, start: usize, end: usize, sel: Option<&[u32]>) -> Batch {
        let base = u32::try_from(start).expect("row ids fit in u32");
        let tids: Option<Vec<u32>> = sel.map(|sel| sel.iter().map(|&i| base + i).collect());
        let (mut columns, mut validity) = (Vec::new(), Vec::new());
        for &c in &self.cols {
            let (col, mask) = (self.table.column(c), self.table.validity(c));
            if let Some(tids) = &tids {
                columns.push(take_column(col, tids));
                validity.push(mask.map(|m| tids.iter().map(|&t| m[t as usize]).collect()));
            } else {
                columns.push(slice_column(col, start, end));
                validity.push(mask.map(|m| m[start..end].to_vec()));
            }
        }
        if self.emit_tid {
            let all = || (start as i64..end as i64).collect();
            columns.push(ColumnData::Int64(
                tids.map_or_else(all, |t| t.iter().map(|&t| t.into()).collect()),
            ));
            validity.push(None);
        }
        Batch::with_validity(columns, validity)
    }
}

impl Source for TableScan {
    fn task_count(&self) -> usize {
        self.morsels.len()
    }

    fn poll_task(&self, task: usize, out: Emit) -> ExecResult {
        let morsel = self.morsels[task];
        metrics::add_source_rows(morsel.len() as u64);
        for start in (morsel.start..morsel.end).step_by(BATCH_ROWS) {
            let end = (start + BATCH_ROWS).min(morsel.end);
            if metrics::enabled() {
                // What the unfiltered batch holds: the rows the scan reads.
                let tid = if self.emit_tid { (end - start) * 8 } else { 0 };
                let cols = self.cols.iter().map(|&c| self.table.column(c));
                let bytes = cols.map(|c| c.slice_byte_size(start, end)).sum::<usize>() + tid;
                metrics::record_read(self.phase, bytes as u64);
            }
            let view = || Rows::of_table(&self.table, &self.cols, start, end - start);
            let batch = match self.filter.as_ref().map(|pred| pred.select(&view())) {
                Some(sel) if sel.len() < end - start => self.copy(start, end, Some(&sel)),
                _ => self.copy(start, end, None),
            };
            if batch.num_rows() > 0 {
                out(batch);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinstudy_storage::table::TableBuilder;
    use joinstudy_storage::types::Value;

    fn table(n: i64) -> Arc<Table> {
        let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Int64)]);
        let mut b = TableBuilder::new(schema);
        for i in 0..n {
            b.push_row(&[Value::Int64(i), Value::Int64(i * 2)]);
        }
        Arc::new(b.finish())
    }

    fn drain(scan: &TableScan) -> Vec<Batch> {
        let mut out = Vec::new();
        for t in 0..scan.task_count() {
            scan.poll_task(t, &mut |b| out.push(b)).unwrap();
        }
        out
    }

    #[test]
    fn scans_all_rows_in_batches() {
        let scan = TableScan::new(table(5000), vec![0, 1], None);
        let batches = drain(&scan);
        let total: usize = batches.iter().map(Batch::num_rows).sum();
        assert_eq!(total, 5000);
        assert!(batches.iter().all(|b| b.num_rows() <= BATCH_ROWS));
    }

    #[test]
    fn projection_by_name_and_order() {
        let scan = TableScan::by_names(table(10), &["v", "k"], None);
        assert_eq!(scan.output_schema().fields[0].name, "v");
        let batches = drain(&scan);
        assert_eq!(batches[0].column(0).as_i64()[3], 6); // v = k*2
        assert_eq!(batches[0].column(1).as_i64()[3], 3);
    }

    #[test]
    fn predicate_pushdown_filters_rows() {
        let scan = TableScan::new(table(3000), vec![0], Some(Expr::col(0).lt(Expr::i64(100))));
        let batches = drain(&scan);
        let total: usize = batches.iter().map(Batch::num_rows).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn tid_column_tracks_row_ids() {
        let scan =
            TableScan::new(table(2500), vec![0], Some(Expr::col(0).ge(Expr::i64(2000)))).with_tid();
        assert_eq!(scan.output_schema().fields[1].name, TID_COLUMN);
        let batches = drain(&scan);
        let mut tids: Vec<i64> = batches
            .iter()
            .flat_map(|b| b.column(1).as_i64().to_vec())
            .collect();
        tids.sort_unstable();
        assert_eq!(tids, (2000..2500).collect::<Vec<_>>());
    }

    #[test]
    fn empty_table_emits_nothing() {
        let scan = TableScan::new(table(0), vec![0], None);
        assert_eq!(scan.task_count(), 0);
    }
}
