//! Schemas, tables and morsels.
//!
//! A [`Table`] is an immutable, fully materialized columnar relation. Query
//! pipelines consume it in [`Morsel`]s — contiguous row ranges of a fixed
//! target size — which is the unit of work stealing in the morsel-driven
//! scheduler (Leis et al., SIGMOD'14), exactly as in the paper's host system.

use crate::column::ColumnData;
use crate::types::{DataType, Value};
use std::sync::Arc;

/// A named, typed column slot in a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub dtype: DataType,
}

impl Field {
    pub fn new(name: impl Into<String>, dtype: DataType) -> Field {
        Field {
            name: name.into(),
            dtype,
        }
    }
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    pub fields: Vec<Field>,
}

impl Schema {
    pub fn new(fields: Vec<Field>) -> Schema {
        Schema { fields }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn of(fields: &[(&str, DataType)]) -> Schema {
        Schema {
            fields: fields.iter().map(|(n, t)| Field::new(*n, *t)).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of a column by name; panics if absent (planner bug).
    pub fn index_of(&self, name: &str) -> usize {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("no column named {name:?} in schema {self:?}"))
    }

    pub fn dtype(&self, idx: usize) -> DataType {
        self.fields[idx].dtype
    }
}

/// A contiguous range of rows, the unit of parallel work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    pub start: usize,
    pub end: usize,
}

impl Morsel {
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Default number of rows per morsel. The paper's system uses ~10k-row
/// morsels; we follow suit (small enough for load balancing, large enough
/// to amortize scheduling).
pub const MORSEL_ROWS: usize = 16 * 1024;

/// An immutable, fully materialized columnar relation.
///
/// Base TPC-H data is NOT NULL throughout; nullability (`validity`) only
/// appears in materialized intermediate results, e.g. outer-join padding.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<ColumnData>,
    /// Per-column validity; `None` = all rows valid (the common case).
    validity: Vec<Option<Vec<bool>>>,
    rows: usize,
}

impl Table {
    /// Build from a schema and matching columns. Panics if column count,
    /// types or lengths disagree with the schema.
    pub fn new(schema: Schema, columns: Vec<ColumnData>) -> Table {
        assert_eq!(schema.len(), columns.len(), "schema/column count mismatch");
        let rows = columns.first().map_or(0, ColumnData::len);
        for (f, c) in schema.fields.iter().zip(&columns) {
            assert_eq!(f.dtype, c.data_type(), "column {:?} type mismatch", f.name);
            assert_eq!(c.len(), rows, "column {:?} length mismatch", f.name);
        }
        let validity = vec![None; columns.len()];
        Table {
            schema,
            columns,
            validity,
            rows,
        }
    }

    /// [`Table::new`] plus per-column validity (`None` = all rows valid).
    pub fn with_validity(
        schema: Schema,
        columns: Vec<ColumnData>,
        validity: Vec<Option<Vec<bool>>>,
    ) -> Table {
        let mut t = Table::new(schema, columns);
        assert_eq!(validity.len(), t.columns.len(), "validity count mismatch");
        for mask in validity.iter().flatten() {
            assert_eq!(mask.len(), t.rows, "validity length mismatch");
        }
        t.validity = validity;
        t
    }

    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Table {
        let columns: Vec<ColumnData> = schema
            .fields
            .iter()
            .map(|f| ColumnData::new(f.dtype))
            .collect();
        let validity = vec![None; columns.len()];
        Table {
            schema,
            columns,
            validity,
            rows: 0,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, idx: usize) -> &ColumnData {
        &self.columns[idx]
    }

    pub fn column_by_name(&self, name: &str) -> &ColumnData {
        &self.columns[self.schema.index_of(name)]
    }

    pub fn columns(&self) -> &[ColumnData] {
        &self.columns
    }

    /// Per-column validity mask: `None` = all rows valid.
    pub fn validity(&self, col: usize) -> Option<&[bool]> {
        self.validity[col].as_deref()
    }

    /// Whether row `row` of column `col` is valid (non-NULL).
    pub fn is_valid(&self, col: usize, row: usize) -> bool {
        match &self.validity[col] {
            None => true,
            Some(mask) => mask[row],
        }
    }

    /// Dynamically-typed row accessor (tests / result display only).
    pub fn row(&self, i: usize) -> Vec<Value> {
        (0..self.columns.len())
            .map(|c| {
                if self.is_valid(c, i) {
                    self.columns[c].value(i)
                } else {
                    Value::Null
                }
            })
            .collect()
    }

    /// Total heap footprint of all columns in bytes.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(ColumnData::byte_size).sum()
    }

    /// Split the row range into morsels of at most `morsel_rows` rows.
    pub fn morsels(&self, morsel_rows: usize) -> Vec<Morsel> {
        morsels_of(self.rows, morsel_rows)
    }
}

/// Split `rows` into contiguous ranges of at most `morsel_rows`.
pub fn morsels_of(rows: usize, morsel_rows: usize) -> Vec<Morsel> {
    assert!(morsel_rows > 0, "morsel size must be positive");
    let mut out = Vec::with_capacity(rows / morsel_rows + 1);
    let mut start = 0;
    while start < rows {
        let end = (start + morsel_rows).min(rows);
        out.push(Morsel { start, end });
        start = end;
    }
    out
}

/// Incremental row-oriented table construction (data generators, tests).
pub struct TableBuilder {
    schema: Schema,
    columns: Vec<ColumnData>,
    validity: Vec<Option<Vec<bool>>>,
}

impl TableBuilder {
    pub fn new(schema: Schema) -> TableBuilder {
        let columns: Vec<ColumnData> = schema
            .fields
            .iter()
            .map(|f| ColumnData::new(f.dtype))
            .collect();
        let validity = vec![None; columns.len()];
        TableBuilder {
            schema,
            columns,
            validity,
        }
    }

    pub fn with_capacity(schema: Schema, rows: usize) -> TableBuilder {
        let columns: Vec<ColumnData> = schema
            .fields
            .iter()
            .map(|f| ColumnData::with_capacity(f.dtype, rows))
            .collect();
        let validity = vec![None; columns.len()];
        TableBuilder {
            schema,
            columns,
            validity,
        }
    }

    /// Direct mutable access to a column for bulk typed appends.
    pub fn column_mut(&mut self, idx: usize) -> &mut ColumnData {
        &mut self.columns[idx]
    }

    /// Append one row of dynamically-typed values. NULLs are stored as a
    /// default value plus a validity bit.
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        for (i, v) in row.iter().enumerate() {
            let col = &mut self.columns[i];
            if v.is_null() {
                let rows = col.len();
                let mask = self.validity[i].get_or_insert_with(|| vec![true; rows]);
                mask.push(false);
                col.push_default();
            } else {
                if let Some(mask) = &mut self.validity[i] {
                    mask.push(true);
                }
                col.push_value(v);
            }
        }
    }

    pub fn finish(self) -> Table {
        Table::with_validity(self.schema, self.columns, self.validity)
    }
}

/// Shared, immutable table handle as passed around between pipelines.
pub type TableRef = Arc<Table>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Decimal;

    fn sample() -> Table {
        let schema = Schema::of(&[("id", DataType::Int64), ("name", DataType::Str)]);
        let mut b = TableBuilder::new(schema);
        b.push_row(&[Value::Int64(1), Value::Str("a".into())]);
        b.push_row(&[Value::Int64(2), Value::Str("b".into())]);
        b.push_row(&[Value::Int64(3), Value::Str("c".into())]);
        b.finish()
    }

    #[test]
    fn build_and_access() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.column_by_name("id").as_i64(), &[1, 2, 3]);
        assert_eq!(t.row(1), vec![Value::Int64(2), Value::Str("b".into())]);
    }

    #[test]
    fn schema_lookup() {
        let t = sample();
        assert_eq!(t.schema().index_of("name"), 1);
        assert_eq!(t.schema().dtype(0), DataType::Int64);
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn schema_lookup_missing_panics() {
        sample().schema().index_of("ghost");
    }

    #[test]
    fn morsel_splitting_exact_and_ragged() {
        assert_eq!(morsels_of(0, 10), vec![]);
        assert_eq!(morsels_of(10, 10), vec![Morsel { start: 0, end: 10 }]);
        let m = morsels_of(25, 10);
        assert_eq!(
            m,
            vec![
                Morsel { start: 0, end: 10 },
                Morsel { start: 10, end: 20 },
                Morsel { start: 20, end: 25 }
            ]
        );
        assert_eq!(m.iter().map(Morsel::len).sum::<usize>(), 25);
    }

    #[test]
    fn byte_size_sums_columns() {
        let schema = Schema::of(&[("v", DataType::Decimal)]);
        let mut b = TableBuilder::new(schema);
        for i in 0..4 {
            b.push_row(&[Value::Decimal(Decimal(i))]);
        }
        assert_eq!(b.finish().byte_size(), 32);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_columns_panic() {
        let schema = Schema::of(&[("a", DataType::Int32), ("b", DataType::Int32)]);
        let c1 = {
            let mut c = ColumnData::new(DataType::Int32);
            c.push_value(&Value::Int32(1));
            c
        };
        let c2 = ColumnData::new(DataType::Int32);
        Table::new(schema, vec![c1, c2]);
    }
}
