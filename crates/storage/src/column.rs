//! Typed columnar buffers.
//!
//! A [`ColumnData`] is one column of a [`crate::Table`]: a dense, typed
//! vector without nulls (TPC-H base data is NOT NULL throughout; nullability
//! appears only in intermediate results, where the execution engine carries
//! explicit validity masks). Strings use the classic offsets-plus-arena
//! layout so that scans touch contiguous memory.

use crate::types::{DataType, Date, Decimal, Value};

/// Variable-length string column: `offsets.len() == len + 1`, value `i`
/// occupies `bytes[offsets[i] as usize .. offsets[i + 1] as usize]`.
#[derive(Debug, Clone, Default)]
pub struct StrColumn {
    offsets: Vec<u64>,
    bytes: Vec<u8>,
}

impl StrColumn {
    pub fn new() -> StrColumn {
        StrColumn {
            offsets: vec![0],
            bytes: Vec::new(),
        }
    }

    pub fn with_capacity(rows: usize, bytes: usize) -> StrColumn {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        StrColumn {
            offsets,
            bytes: Vec::with_capacity(bytes),
        }
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn push(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
        self.offsets.push(self.bytes.len() as u64);
    }

    pub fn get(&self, i: usize) -> &str {
        // SAFETY: every byte range between two offsets was appended as a
        // whole `&str` (`push`), or copied whole from such a range (`slice`,
        // `take`); spill decode validates UTF-8 before it pushes.
        unsafe { std::str::from_utf8_unchecked(self.bytes_of(i)) }
    }

    /// Byte length of value `i` without materializing it.
    pub fn value_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Value `i`'s bytes, for kernels that compare in place.
    #[inline]
    pub fn bytes_of(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Values `start..end` as a column of their own: their bytes copied
    /// as one range, their offsets rebased to it.
    pub fn slice(&self, start: usize, end: usize) -> StrColumn {
        let base = self.offsets[start];
        let offsets = self.offsets[start..=end]
            .iter()
            .map(|&o| o - base)
            .collect();
        let bytes = self.bytes[base as usize..self.offsets[end] as usize].to_vec();
        StrColumn { offsets, bytes }
    }

    /// Values `sel`, in order, as a column of their own: one allocation
    /// sized from the offsets, then each value's bytes appended.
    pub fn take(&self, sel: &[u32]) -> StrColumn {
        let total = sel.iter().map(|&i| self.value_len(i as usize)).sum();
        let mut out = StrColumn::with_capacity(sel.len(), total);
        for &i in sel {
            out.bytes.extend_from_slice(self.bytes_of(i as usize));
            out.offsets.push(out.bytes.len() as u64);
        }
        out
    }

    /// Total arena bytes (for size accounting in the harness).
    pub fn arena_bytes(&self) -> usize {
        self.bytes.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// One column of data. The enum-of-vectors layout keeps the hot scan loops
/// monomorphic per type while letting schemas be dynamic.
#[derive(Debug, Clone)]
pub enum ColumnData {
    Bool(Vec<bool>),
    Int32(Vec<i32>),
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    /// Days since epoch.
    Date(Vec<i32>),
    /// Scaled by 100 (see [`Decimal`]).
    Decimal(Vec<i64>),
    Str(StrColumn),
}

impl ColumnData {
    /// Append `other`'s values, of the same type, after this column's.
    pub fn append(&mut self, other: &ColumnData) {
        use ColumnData::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a.extend_from_slice(b),
            (Int32(a), Int32(b)) | (Date(a), Date(b)) => a.extend_from_slice(b),
            (Int64(a), Int64(b)) | (Decimal(a), Decimal(b)) => a.extend_from_slice(b),
            (Float64(a), Float64(b)) => a.extend_from_slice(b),
            (Str(a), Str(b)) => {
                let base = *a.offsets.last().expect("offsets start at 0");
                a.bytes.extend_from_slice(&b.bytes);
                a.offsets.extend(b.offsets[1..].iter().map(|o| o + base));
            }
            (a, b) => panic!("append of {:?} to {:?}", b.data_type(), a.data_type()),
        }
    }

    /// An empty column of the given type.
    pub fn new(dtype: DataType) -> ColumnData {
        match dtype {
            DataType::Bool => ColumnData::Bool(Vec::new()),
            DataType::Int32 => ColumnData::Int32(Vec::new()),
            DataType::Int64 => ColumnData::Int64(Vec::new()),
            DataType::Float64 => ColumnData::Float64(Vec::new()),
            DataType::Date => ColumnData::Date(Vec::new()),
            DataType::Decimal => ColumnData::Decimal(Vec::new()),
            DataType::Str => ColumnData::Str(StrColumn::new()),
        }
    }

    pub fn with_capacity(dtype: DataType, rows: usize) -> ColumnData {
        match dtype {
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(rows)),
            DataType::Int32 => ColumnData::Int32(Vec::with_capacity(rows)),
            DataType::Int64 => ColumnData::Int64(Vec::with_capacity(rows)),
            DataType::Float64 => ColumnData::Float64(Vec::with_capacity(rows)),
            DataType::Date => ColumnData::Date(Vec::with_capacity(rows)),
            DataType::Decimal => ColumnData::Decimal(Vec::with_capacity(rows)),
            DataType::Str => ColumnData::Str(StrColumn::with_capacity(rows, rows * 16)),
        }
    }

    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Int32(_) => DataType::Int32,
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Date(_) => DataType::Date,
            ColumnData::Decimal(_) => DataType::Decimal,
            ColumnData::Str(_) => DataType::Str,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int32(v) => v.len(),
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Decimal(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dynamically-typed accessor (edges of the system only).
    pub fn value(&self, i: usize) -> Value {
        match self {
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Int32(v) => Value::Int32(v[i]),
            ColumnData::Int64(v) => Value::Int64(v[i]),
            ColumnData::Float64(v) => Value::Float64(v[i]),
            ColumnData::Date(v) => Value::Date(Date(v[i])),
            ColumnData::Decimal(v) => Value::Decimal(Decimal(v[i])),
            ColumnData::Str(v) => Value::Str(v.get(i).to_owned()),
        }
    }

    /// Append a dynamically-typed value; type must match.
    pub fn push_value(&mut self, v: &Value) {
        match (self, v) {
            (ColumnData::Bool(c), Value::Bool(v)) => c.push(*v),
            (ColumnData::Int32(c), Value::Int32(v)) => c.push(*v),
            (ColumnData::Int64(c), Value::Int64(v)) => c.push(*v),
            (ColumnData::Float64(c), Value::Float64(v)) => c.push(*v),
            (ColumnData::Date(c), Value::Date(v)) => c.push(v.0),
            (ColumnData::Decimal(c), Value::Decimal(v)) => c.push(v.0),
            (ColumnData::Str(c), Value::Str(v)) => c.push(v),
            (c, v) => panic!(
                "type mismatch: pushing {v:?} into {:?} column",
                c.data_type()
            ),
        }
    }

    /// Append this type's default value (NULL storage slot; the validity
    /// mask carries the NULL-ness).
    pub fn push_default(&mut self) {
        match self {
            ColumnData::Bool(v) => v.push(false),
            ColumnData::Int32(v) | ColumnData::Date(v) => v.push(0),
            ColumnData::Int64(v) | ColumnData::Decimal(v) => v.push(0),
            ColumnData::Float64(v) => v.push(0.0),
            ColumnData::Str(v) => v.push(""),
        }
    }

    /// Heap footprint in bytes (size accounting for Figures 1/13).
    pub fn byte_size(&self) -> usize {
        self.slice_byte_size(0, self.len())
    }

    /// What [`ColumnData::byte_size`] reports for a copy of rows
    /// `start..end`, without making one.
    pub fn slice_byte_size(&self, start: usize, end: usize) -> usize {
        let n = end - start;
        match self {
            ColumnData::Bool(_) => n,
            ColumnData::Int32(_) | ColumnData::Date(_) => n * 4,
            ColumnData::Int64(_) | ColumnData::Decimal(_) | ColumnData::Float64(_) => n * 8,
            ColumnData::Str(v) => (v.offsets[end] - v.offsets[start]) as usize + (n + 1) * 8,
        }
    }

    // Typed accessors: panic on type mismatch, which indicates a planner bug.

    pub fn as_bool(&self) -> &[bool] {
        match self {
            ColumnData::Bool(v) => v,
            other => panic!("expected Bool column, got {:?}", other.data_type()),
        }
    }

    pub fn as_i32(&self) -> &[i32] {
        match self {
            ColumnData::Int32(v) | ColumnData::Date(v) => v,
            other => panic!("expected Int32/Date column, got {:?}", other.data_type()),
        }
    }

    pub fn as_i64(&self) -> &[i64] {
        match self {
            ColumnData::Int64(v) | ColumnData::Decimal(v) => v,
            other => panic!("expected Int64/Decimal column, got {:?}", other.data_type()),
        }
    }

    pub fn as_f64(&self) -> &[f64] {
        match self {
            ColumnData::Float64(v) => v,
            other => panic!("expected Float64 column, got {:?}", other.data_type()),
        }
    }

    pub fn as_str(&self) -> &StrColumn {
        match self {
            ColumnData::Str(v) => v,
            other => panic!("expected Str column, got {:?}", other.data_type()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn str_column_roundtrip() {
        let mut c = StrColumn::new();
        c.push("hello");
        c.push("");
        c.push("world");
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), "hello");
        assert_eq!(c.get(1), "");
        assert_eq!(c.get(2), "world");
        assert_eq!(c.value_len(0), 5);
        assert_eq!(c.value_len(1), 0);
        assert_eq!(c.arena_bytes(), 10);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec!["hello", "", "world"]);
    }

    #[test]
    fn slice_byte_size_is_the_copys_byte_size() {
        let mut s = StrColumn::new();
        for w in ["a", "", "ccc", "dd"] {
            s.push(w);
        }
        let s = ColumnData::Str(s);
        assert_eq!(s.slice_byte_size(1, 3), 3 + 3 * 8);
        assert_eq!(s.slice_byte_size(2, 2), 8);
        let d = ColumnData::Decimal(vec![1, 2, 3]);
        assert_eq!(d.slice_byte_size(0, 2), 16);
        assert_eq!(ColumnData::Bool(vec![]).slice_byte_size(0, 0), 0);
    }

    #[test]
    fn column_value_roundtrip_all_types() {
        let values = vec![
            Value::Bool(true),
            Value::Int32(-7),
            Value::Int64(1 << 50),
            Value::Float64(3.25),
            Value::Date(Date::from_ymd(1995, 6, 17)),
            Value::Decimal(Decimal::from_parts(9, 99)),
            Value::Str("acme".into()),
        ];
        for v in &values {
            let mut col = ColumnData::new(v.data_type().unwrap());
            col.push_value(v);
            col.push_value(v);
            assert_eq!(col.len(), 2);
            assert_eq!(&col.value(0), v);
            assert_eq!(&col.value(1), v);
        }
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn column_push_type_mismatch_panics() {
        let mut col = ColumnData::new(DataType::Int32);
        col.push_value(&Value::Str("nope".into()));
    }

    #[test]
    fn byte_size_accounting() {
        let mut c = ColumnData::new(DataType::Int32);
        for i in 0..10 {
            c.push_value(&Value::Int32(i));
        }
        assert_eq!(c.byte_size(), 40);

        let mut s = ColumnData::new(DataType::Str);
        s.push_value(&Value::Str("abcd".into()));
        // 4 arena bytes + 2 offsets * 8.
        assert_eq!(s.byte_size(), 4 + 16);
    }

    #[test]
    fn typed_accessors() {
        let mut c = ColumnData::new(DataType::Decimal);
        c.push_value(&Value::Decimal(Decimal(42)));
        assert_eq!(c.as_i64(), &[42]);
        let mut d = ColumnData::new(DataType::Date);
        d.push_value(&Value::Date(Date(100)));
        assert_eq!(d.as_i32(), &[100]);
    }
}
