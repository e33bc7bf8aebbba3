//! Morsel-wise base-table scan with projection and predicate pushdown.
//!
//! Mirrors the paper's "early materialization" table scan (§4.2): only the
//! required columns are read, scan-level predicates are applied immediately
//! (vectorized), and the surviving tuples are stitched into batches for the
//! pipeline. Optionally emits a tuple-id column, which is the hook late
//! materialization (§4.2) uses to re-fetch columns after selective joins.

use crate::batch::{slice_column, Batch};
use crate::error::ExecResult;
use crate::expr::Expr;
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
    /// Pushed-down predicate over the *projected* columns.
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

impl Source for TableScan {
    fn task_count(&self) -> usize {
        self.morsels.len()
    }

    fn poll_task(&self, task: usize, out: Emit) -> ExecResult {
        let morsel = self.morsels[task];
        metrics::add_source_rows(morsel.len() as u64);
        let mut start = morsel.start;
        while start < morsel.end {
            let end = (start + BATCH_ROWS).min(morsel.end);
            let mut columns: Vec<ColumnData> = self
                .cols
                .iter()
                .map(|&c| slice_column(self.table.column(c), start, end))
                .collect();
            let mut validity: Vec<Option<Vec<bool>>> = self
                .cols
                .iter()
                .map(|&c| self.table.validity(c).map(|m| m[start..end].to_vec()))
                .collect();
            if self.emit_tid {
                columns.push(ColumnData::Int64((start as i64..end as i64).collect()));
                validity.push(None);
            }
            let batch = Batch::with_validity(columns, validity);
            if metrics::enabled() {
                let bytes: usize = batch.columns().iter().map(ColumnData::byte_size).sum();
                metrics::record_read(self.phase, bytes as u64);
            }
            let batch = match &self.filter {
                None => batch,
                Some(pred) => {
                    let sel = pred.eval_sel(&batch);
                    if sel.len() == batch.num_rows() {
                        batch
                    } else {
                        batch.take(&sel)
                    }
                }
            };
            if batch.num_rows() > 0 {
                out(batch);
            }
            start = end;
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
