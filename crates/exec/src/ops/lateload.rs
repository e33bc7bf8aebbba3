//! Late materialization: re-fetch columns by tuple id.
//!
//! The paper's §4.2: when a column is first used far above its table scan,
//! the plan can carry only the tuple id through the joins and insert a
//! *late-load* operator right before the first use. The operator performs a
//! random-access gather against the base table — cheap when only a few
//! tuples survive the joins, expensive at high selectivity (the trade-off
//! measured in Figure 15 and Table 3).

use crate::batch::{take_column, Batch};
use crate::error::ExecResult;
use crate::metrics::{self, MemPhase};
use crate::pipeline::{Emit, LocalState, Operator};
use joinstudy_storage::table::{Schema, Table};
use std::sync::Arc;

/// Gathers `load_cols` of `table` for each tuple id found in column
/// `tid_col` of the input batch and appends them as new columns.
pub struct LateLoadOp {
    table: Arc<Table>,
    tid_col: usize,
    load_cols: Vec<usize>,
}

impl LateLoadOp {
    pub fn new(table: Arc<Table>, tid_col: usize, load_cols: Vec<usize>) -> LateLoadOp {
        LateLoadOp {
            table,
            tid_col,
            load_cols,
        }
    }

    pub fn by_names(table: Arc<Table>, tid_col: usize, names: &[&str]) -> LateLoadOp {
        let load_cols = names.iter().map(|n| table.schema().index_of(n)).collect();
        LateLoadOp::new(table, tid_col, load_cols)
    }

    /// Input schema + the appended late-loaded fields.
    pub fn output_schema(&self, input: &Schema) -> Schema {
        LateLoadOp::schema_of(input, &self.table, &self.load_cols)
    }

    /// `input` plus the `load_cols` of `table`. The one derivation, for
    /// plan nodes and operators alike.
    pub fn schema_of(input: &Schema, table: &Table, load_cols: &[usize]) -> Schema {
        let mut fields = input.fields.clone();
        for &c in load_cols {
            fields.push(table.schema().fields[c].clone());
        }
        Schema::new(fields)
    }
}

impl Operator for LateLoadOp {
    fn process(&self, _local: &mut LocalState, mut input: Batch, out: Emit) -> ExecResult {
        let tids: Vec<u32> = (input.column(self.tid_col).as_i64().iter())
            .map(|&t| u32::try_from(t).expect("row ids fit in u32"))
            .collect();
        let mut gathered_bytes = 0usize;
        for &c in &self.load_cols {
            let col = take_column(self.table.column(c), &tids);
            gathered_bytes += col.byte_size();
            input.push_column(col);
        }
        if metrics::enabled() {
            metrics::record_read(MemPhase::Other, gathered_bytes as u64);
        }
        out(input);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinstudy_storage::column::ColumnData;
    use joinstudy_storage::table::TableBuilder;
    use joinstudy_storage::types::{DataType, Value};

    fn base_table() -> Arc<Table> {
        let schema = Schema::of(&[("k", DataType::Int64), ("name", DataType::Str)]);
        let mut b = TableBuilder::new(schema);
        for i in 0..100 {
            b.push_row(&[Value::Int64(i * 10), Value::Str(format!("row{i}"))]);
        }
        Arc::new(b.finish())
    }

    #[test]
    fn loads_columns_by_tid() {
        let table = base_table();
        let op = LateLoadOp::by_names(table, 0, &["k", "name"]);
        let input = Batch::new(vec![ColumnData::Int64(vec![5, 99, 0])]);
        let mut local = op.create_local();
        let mut out = Vec::new();
        op.process(&mut local, input, &mut |b| out.push(b)).unwrap();
        let b = &out[0];
        assert_eq!(b.num_columns(), 3);
        assert_eq!(b.column(1).as_i64(), &[50, 990, 0]);
        assert_eq!(b.column(2).as_str().get(0), "row5");
        assert_eq!(b.column(2).as_str().get(1), "row99");
    }

    #[test]
    fn output_schema_appends_fields() {
        let table = base_table();
        let op = LateLoadOp::by_names(table, 0, &["name"]);
        let input = Schema::of(&[("@tid", DataType::Int64)]);
        let s = op.output_schema(&input);
        assert_eq!(s.len(), 2);
        assert_eq!(s.fields[1].name, "name");
    }
}
