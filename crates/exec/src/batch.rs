//! Tuple batches — the unit of vectorized dataflow inside a pipeline.
//!
//! A [`Batch`] is a small columnar chunk (at most [`BATCH_ROWS`] rows) that
//! stays cache-resident while it traverses the fused operators of one
//! pipeline. This is the Relaxed-Operator-Fusion staging buffer from the
//! paper: small enough to live in L1/L2, large enough to amortize per-batch
//! dispatch and to give the prefetcher a full vector of hash-table probes.

use crate::expr::Rows;
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::types::{DataType, Value};

/// Maximum rows per batch. Menon et al. and the paper use vectors sized so a
/// batch of probe keys + hashes fits comfortably in L1; 1024 rows is the
/// conventional choice.
pub const BATCH_ROWS: usize = 1024;

/// Optional per-column validity: `None` means "all rows valid" (the common
/// case — TPC-H base data is NOT NULL; only outer-join padding creates
/// nulls). `Some(mask)` stores one bool per row, `true` = valid.
pub type Validity = Option<Vec<bool>>;

/// A columnar chunk of tuples flowing through a pipeline.
#[derive(Debug, Clone)]
pub struct Batch {
    columns: Vec<ColumnData>,
    validity: Vec<Validity>,
    rows: usize,
}

impl Batch {
    /// Build from columns (all non-null). Panics on length mismatch.
    pub fn new(columns: Vec<ColumnData>) -> Batch {
        let rows = columns.first().map_or(0, ColumnData::len);
        for c in &columns {
            assert_eq!(c.len(), rows, "batch column length mismatch");
        }
        let validity = vec![None; columns.len()];
        Batch {
            columns,
            validity,
            rows,
        }
    }

    /// Build from columns with explicit validity masks.
    pub fn with_validity(columns: Vec<ColumnData>, validity: Vec<Validity>) -> Batch {
        let rows = columns.first().map_or(0, ColumnData::len);
        assert_eq!(columns.len(), validity.len());
        for c in &columns {
            assert_eq!(c.len(), rows, "batch column length mismatch");
        }
        for v in validity.iter().flatten() {
            assert_eq!(v.len(), rows, "validity length mismatch");
        }
        Batch {
            columns,
            validity,
            rows,
        }
    }

    /// An empty batch with no columns and no rows (used as a unit value).
    pub fn empty() -> Batch {
        Batch {
            columns: Vec::new(),
            validity: Vec::new(),
            rows: 0,
        }
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub fn column(&self, i: usize) -> &ColumnData {
        &self.columns[i]
    }

    pub fn columns(&self) -> &[ColumnData] {
        &self.columns
    }

    pub fn validity(&self, i: usize) -> &Validity {
        &self.validity[i]
    }

    /// True if row `row` of column `col` is valid (non-NULL).
    pub fn is_valid(&self, col: usize, row: usize) -> bool {
        match &self.validity[col] {
            None => true,
            Some(mask) => mask[row],
        }
    }

    /// A borrowed view of all rows, for expression evaluation.
    pub fn rows(&self) -> Rows<'_> {
        let validity = self.validity.iter().map(|v| v.as_deref()).collect();
        Rows::new(self.columns.iter().collect(), validity, 0, self.rows)
    }

    /// Consume into columns, dropping validity (caller must know it's all-valid).
    pub fn into_columns(self) -> Vec<ColumnData> {
        self.columns
    }

    /// Consume into columns and their validity masks.
    pub fn into_parts(self) -> (Vec<ColumnData>, Vec<Validity>) {
        (self.columns, self.validity)
    }

    /// Dynamically-typed cell accessor honoring validity (tests/result edges).
    pub fn value(&self, col: usize, row: usize) -> Value {
        if self.is_valid(col, row) {
            self.columns[col].value(row)
        } else {
            Value::Null
        }
    }

    /// Append a column (all valid). Panics on length mismatch.
    pub fn push_column(&mut self, col: ColumnData) {
        if self.columns.is_empty() {
            self.rows = col.len();
        }
        assert_eq!(col.len(), self.rows, "pushed column length mismatch");
        self.columns.push(col);
        self.validity.push(None);
    }

    /// Gather the given row indices into a new batch (selection vector apply).
    pub fn take(&self, sel: &[u32]) -> Batch {
        let columns = self.columns.iter().map(|c| take_column(c, sel)).collect();
        let validity = self
            .validity
            .iter()
            .map(|v| {
                v.as_ref()
                    .map(|mask| sel.iter().map(|&i| mask[i as usize]).collect())
            })
            .collect();
        Batch {
            columns,
            validity,
            rows: sel.len(),
        }
    }

    /// Project (and reorder) columns by index.
    pub fn project(&self, cols: &[usize]) -> Batch {
        let columns = cols.iter().map(|&i| self.columns[i].clone()).collect();
        let validity = cols.iter().map(|&i| self.validity[i].clone()).collect();
        Batch {
            columns,
            validity,
            rows: self.rows,
        }
    }
}

/// Gather rows `sel` out of a column.
pub fn take_column(col: &ColumnData, sel: &[u32]) -> ColumnData {
    match col {
        ColumnData::Bool(v) => ColumnData::Bool(sel.iter().map(|&i| v[i as usize]).collect()),
        ColumnData::Int32(v) => ColumnData::Int32(sel.iter().map(|&i| v[i as usize]).collect()),
        ColumnData::Int64(v) => ColumnData::Int64(sel.iter().map(|&i| v[i as usize]).collect()),
        ColumnData::Float64(v) => ColumnData::Float64(sel.iter().map(|&i| v[i as usize]).collect()),
        ColumnData::Date(v) => ColumnData::Date(sel.iter().map(|&i| v[i as usize]).collect()),
        ColumnData::Decimal(v) => ColumnData::Decimal(sel.iter().map(|&i| v[i as usize]).collect()),
        ColumnData::Str(v) => ColumnData::Str(v.take(sel)),
    }
}

/// Copy a contiguous row range out of a column (morsel → batch slicing).
pub fn slice_column(col: &ColumnData, start: usize, end: usize) -> ColumnData {
    match col {
        ColumnData::Bool(v) => ColumnData::Bool(v[start..end].to_vec()),
        ColumnData::Int32(v) => ColumnData::Int32(v[start..end].to_vec()),
        ColumnData::Int64(v) => ColumnData::Int64(v[start..end].to_vec()),
        ColumnData::Float64(v) => ColumnData::Float64(v[start..end].to_vec()),
        ColumnData::Date(v) => ColumnData::Date(v[start..end].to_vec()),
        ColumnData::Decimal(v) => ColumnData::Decimal(v[start..end].to_vec()),
        ColumnData::Str(v) => ColumnData::Str(v.slice(start, end)),
    }
}

/// Incrementally assemble output batches of bounded size, emitting each full
/// batch through a callback. Used by probe operators that can produce many
/// output rows per input batch.
pub struct BatchBuilder {
    schema_types: Vec<DataType>,
    columns: Vec<ColumnData>,
    validity: Vec<Validity>,
    rows: usize,
}

impl BatchBuilder {
    pub fn new(schema_types: Vec<DataType>) -> BatchBuilder {
        let columns = schema_types
            .iter()
            .map(|&t| ColumnData::with_capacity(t, BATCH_ROWS))
            .collect();
        let validity = vec![None; schema_types.len()];
        BatchBuilder {
            schema_types,
            columns,
            validity,
            rows: 0,
        }
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Mutable access to column `i` for typed appends. Caller must keep all
    /// columns at equal length and call [`BatchBuilder::advance`] after each
    /// appended row set.
    pub fn column_mut(&mut self, i: usize) -> &mut ColumnData {
        &mut self.columns[i]
    }

    /// Mark row `self.rows + added` rows as appended.
    pub fn advance(&mut self, added: usize) {
        self.rows += added;
        debug_assert!(self.columns.iter().all(|c| c.len() == self.rows));
    }

    /// Append one dynamically-typed row (slow path; tests and cold operators).
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.columns.len());
        for (i, v) in row.iter().enumerate() {
            if v.is_null() {
                // Materialize a default value and mark it invalid.
                let mask = self.validity[i].get_or_insert_with(|| vec![true; self.rows]);
                mask.push(false);
                push_default(&mut self.columns[i]);
            } else {
                if let Some(mask) = &mut self.validity[i] {
                    mask.push(true);
                }
                self.columns[i].push_value(v);
            }
        }
        self.rows += 1;
    }

    /// True once the builder holds a full batch.
    pub fn is_full(&self) -> bool {
        self.rows >= BATCH_ROWS
    }

    /// Take the accumulated rows as a batch, resetting the builder.
    pub fn flush(&mut self) -> Option<Batch> {
        if self.rows == 0 {
            return None;
        }
        let columns = std::mem::take(&mut self.columns);
        let mut validity = std::mem::take(&mut self.validity);
        for (v, c) in validity.iter_mut().zip(&columns) {
            if let Some(mask) = v {
                debug_assert_eq!(mask.len(), c.len());
            }
        }
        let batch = Batch {
            columns,
            validity,
            rows: self.rows,
        };
        self.columns = self
            .schema_types
            .iter()
            .map(|&t| ColumnData::with_capacity(t, BATCH_ROWS))
            .collect();
        self.validity = vec![None; self.schema_types.len()];
        self.rows = 0;
        Some(batch)
    }
}

fn push_default(col: &mut ColumnData) {
    match col {
        ColumnData::Bool(v) => v.push(false),
        ColumnData::Int32(v) | ColumnData::Date(v) => v.push(0),
        ColumnData::Int64(v) | ColumnData::Decimal(v) => v.push(0),
        ColumnData::Float64(v) => v.push(0.0),
        ColumnData::Str(v) => v.push(""),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinstudy_storage::column::StrColumn;
    use joinstudy_storage::types::Decimal;

    fn int_batch(values: &[i64]) -> Batch {
        Batch::new(vec![ColumnData::Int64(values.to_vec())])
    }

    #[test]
    fn new_checks_lengths() {
        let b = Batch::new(vec![
            ColumnData::Int64(vec![1, 2, 3]),
            ColumnData::Int32(vec![4, 5, 6]),
        ]);
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.num_columns(), 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn new_rejects_ragged_columns() {
        Batch::new(vec![
            ColumnData::Int64(vec![1]),
            ColumnData::Int64(vec![1, 2]),
        ]);
    }

    #[test]
    fn take_gathers_rows() {
        let b = int_batch(&[10, 20, 30, 40]);
        let t = b.take(&[3, 1, 1]);
        assert_eq!(t.column(0).as_i64(), &[40, 20, 20]);
        assert_eq!(t.num_rows(), 3);
    }

    #[test]
    fn take_carries_validity() {
        let b = Batch::with_validity(
            vec![ColumnData::Int64(vec![1, 2, 3])],
            vec![Some(vec![true, false, true])],
        );
        let t = b.take(&[1, 2]);
        assert!(!t.is_valid(0, 0));
        assert!(t.is_valid(0, 1));
        assert_eq!(t.value(0, 0), Value::Null);
        assert_eq!(t.value(0, 1), Value::Int64(3));
    }

    #[test]
    fn take_strings() {
        let mut s = StrColumn::new();
        for w in ["a", "bb", "ccc"] {
            s.push(w);
        }
        let b = Batch::new(vec![ColumnData::Str(s)]);
        let t = b.take(&[2, 0]);
        assert_eq!(t.column(0).as_str().get(0), "ccc");
        assert_eq!(t.column(0).as_str().get(1), "a");
    }

    #[test]
    fn project_reorders() {
        let b = Batch::new(vec![
            ColumnData::Int64(vec![1, 2]),
            ColumnData::Int32(vec![3, 4]),
        ]);
        let p = b.project(&[1, 0, 1]);
        assert_eq!(p.num_columns(), 3);
        assert_eq!(p.column(0).as_i32(), &[3, 4]);
        assert_eq!(p.column(2).as_i32(), &[3, 4]);
    }

    #[test]
    fn slice_column_ranges() {
        let c = ColumnData::Decimal(vec![1, 2, 3, 4, 5]);
        let s = slice_column(&c, 1, 4);
        assert_eq!(s.as_i64(), &[2, 3, 4]);
    }

    #[test]
    fn builder_emits_full_batches() {
        let mut bb = BatchBuilder::new(vec![DataType::Int64]);
        for i in 0..(BATCH_ROWS as i64 + 10) {
            bb.push_row(&[Value::Int64(i)]);
            if bb.is_full() {
                let batch = bb.flush().unwrap();
                assert_eq!(batch.num_rows(), BATCH_ROWS);
            }
        }
        let rest = bb.flush().unwrap();
        assert_eq!(rest.num_rows(), 10);
        assert!(bb.flush().is_none());
    }

    #[test]
    fn builder_null_handling() {
        let mut bb = BatchBuilder::new(vec![DataType::Decimal]);
        bb.push_row(&[Value::Decimal(Decimal(5))]);
        bb.push_row(&[Value::Null]);
        let b = bb.flush().unwrap();
        assert_eq!(b.value(0, 0), Value::Decimal(Decimal(5)));
        assert_eq!(b.value(0, 1), Value::Null);
    }

    #[test]
    fn builder_typed_append_path() {
        let mut bb = BatchBuilder::new(vec![DataType::Int64, DataType::Int64]);
        match bb.column_mut(0) {
            ColumnData::Int64(v) => v.extend_from_slice(&[1, 2, 3]),
            _ => unreachable!(),
        }
        match bb.column_mut(1) {
            ColumnData::Int64(v) => v.extend_from_slice(&[4, 5, 6]),
            _ => unreachable!(),
        }
        bb.advance(3);
        let b = bb.flush().unwrap();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.column(1).as_i64(), &[4, 5, 6]);
    }
}
