//! Hash aggregation (GROUP BY) with thread-local pre-aggregation — the
//! morsel-driven strategy of the paper's host system, in five parts:
//!
//! (a) *One group table per worker.* A [`GroupTable`] maps an encoded key to
//! a dense group id by linear probing: `slots` holds id + 1 (0 = empty) at
//! load ≤ ½ in a power-of-two capacity that doubles by rehashing the stored
//! per-group hashes. Keys are stored once, back to back, in a byte arena.
//! Every key column encodes as a validity tag byte (0 = NULL, nothing
//! follows; 1 = valid, the value follows: fixed width little-endian,
//! strings length-prefixed) whether or not the batch carries a mask, so a
//! NULL key is a group of its own, never `0`'s or `""`'s. The hash is one
//! multiply-xorshift per 8-byte word of that encoding (`exec` cannot call
//! `core::hash`).
//!
//! (b) *Batch at a time.* `consume` first resolves the batch's group ids
//! into a reused per-worker vector — every key encoded, then every key
//! hashed, then every key probed, so the probes' cache misses overlap; an
//! ungrouped aggregate skips all that and puts every row in group 0. Then
//! it folds each aggregate column-wise into column-major states: one vector
//! of (value, inputs folded) per aggregate, indexed by group id, with one
//! typed loop per (state type, input type). Only MIN/MAX over Str and Bool
//! build a [`Value`] per row.
//!
//! (c) *`COUNT(DISTINCT x)`* is a second [`GroupTable`] keyed on (aggregate
//! index, group id, x): each pair it accepts adds 1 to its group's count,
//! tallied once in `into_table` from the pairs it holds.
//!
//! (d) *Merge.* The first `finish_local` adopts its worker's table by move.
//! Each later one inserts the local groups with their stored hashes (no
//! rehash, no re-encoding), moves their states into new groups or folds them
//! into existing ones, and re-inserts the distinct pairs through the
//! local→global id map: counts come only from accepted pairs, never from
//! local counts.
//!
//! (e) *Output.* `into_table` decodes the key arena column by column and
//! finalizes each aggregate's states in one pass.
//!
//! NULL inputs (outer-join padding) are skipped by every aggregate except
//! `COUNT(*)`. A group without a valid input reads NULL for MIN, MAX and
//! AVG, 0 for `COUNT(DISTINCT)` and — as it always has — 0 for SUM. Output
//! group order is unspecified, and `Float64` sums depend on merge order.

use crate::batch::{Batch, Validity};
use crate::error::ExecResult;
use crate::pipeline::{LocalState, Sink};
use joinstudy_storage::column::{ColumnData, ColumnData as C};
use joinstudy_storage::table::{Field, Schema, Table};
use joinstudy_storage::types::{DataType, Decimal, Value};
use parking_lot::Mutex;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Aggregate functions supported by the TPC-H plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `SUM(col)` — result type follows the input (Int64/Decimal/Float64;
    /// Int32 sums to Int64).
    Sum,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `COUNT(*)` — `input` is ignored.
    CountStar,
    /// `COUNT(DISTINCT col)`.
    CountDistinct,
    /// `AVG(col)` over a Decimal column.
    Avg,
}

/// One aggregate column: function + input column index in the batch.
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFunc,
    /// Input column; unused for `CountStar` (use 0).
    pub input: usize,
    /// Output column name.
    pub name: String,
}

impl AggSpec {
    pub fn new(func: AggFunc, input: usize, name: impl Into<String>) -> AggSpec {
        AggSpec {
            func,
            input,
            name: name.into(),
        }
    }

    fn output_type(&self, input: &Schema) -> DataType {
        match self.func {
            AggFunc::CountStar | AggFunc::CountDistinct => DataType::Int64,
            AggFunc::Avg => DataType::Decimal,
            AggFunc::Sum if input.dtype(self.input) == DataType::Int32 => DataType::Int64,
            _ => input.dtype(self.input),
        }
    }
}

/// Total order over same-typed values (aggregation min/max and sorting).
pub fn value_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Int32(x), Value::Int32(y)) => x.cmp(y),
        (Value::Int64(x), Value::Int64(y)) => x.cmp(y),
        (Value::Date(x), Value::Date(y)) => x.cmp(y),
        (Value::Decimal(x), Value::Decimal(y)) => x.cmp(y),
        (Value::Float64(x), Value::Float64(y)) => x.total_cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        // NULLs sort last (SQL default for ASC in most engines).
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Greater,
        (_, Value::Null) => Ordering::Less,
        _ => panic!("comparing values of different types: {a:?} vs {b:?}"),
    }
}

/// Hash of an encoded key: one multiply-xorshift per little-endian 8-byte
/// word, seeded with the length. A ragged tail is read as the key's last
/// 8 bytes (overlapping the word before), a key shorter than a word as one
/// zero-extended word. Each step is a bijection of `h ^ word`, and the
/// xorshift folds the product's high half into the low bits that index
/// the slots.
fn hash_key(key: &[u8]) -> u64 {
    let mix = |h: u64, w: u64| {
        let h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 32)
    };
    let len = key.len();
    let word = |i: usize| match len {
        0..8 => key.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)),
        _ => u64::from_le_bytes(le(&key[(8 * i).min(len - 8)..])),
    };
    (0..len.div_ceil(8)).map(word).fold(len as u64, mix)
}

/// The first `N` bytes of `b` as an array.
fn le<const N: usize>(b: &[u8]) -> [u8; N] {
    b[..N].try_into().expect("a slice of exactly N bytes")
}

/// Heap bytes a vector holds.
fn heap<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// `None` when every row is valid.
fn mask(valid: Vec<bool>) -> Validity {
    (!valid.iter().all(|&v| v)).then_some(valid)
}

/// Encoded key → dense id, by open addressing with linear probing.
#[derive(Default)]
struct GroupTable {
    /// Id + 1 per slot, 0 = empty; power-of-two length, load ≤ ½.
    slots: Vec<u32>,
    /// Hash per id: compared before the key, reused when the slots double
    /// and by merges.
    hashes: Vec<u64>,
    /// Keys back to back; id `i`'s ends at `key_end[i]`.
    key_bytes: Vec<u8>,
    key_end: Vec<usize>,
}

impl GroupTable {
    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn key_start(&self, id: usize) -> usize {
        id.checked_sub(1).map_or(0, |prev| self.key_end[prev])
    }

    fn key(&self, id: usize) -> &[u8] {
        &self.key_bytes[self.key_start(id)..self.key_end[id]]
    }

    fn bytes(&self) -> usize {
        heap(&self.slots) + heap(&self.hashes) + heap(&self.key_bytes) + heap(&self.key_end)
    }

    /// The first slot from `hash`'s home that is empty or holds an id `hit`
    /// accepts: the one probe sequence of the table.
    fn slot(&self, hash: u64, hit: impl Fn(usize) -> bool) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i] != 0 && !hit(self.slots[i] as usize - 1) {
            i = (i + 1) & mask;
        }
        i
    }

    /// The id of `key` (whose hash is `hash`), inserting it if absent. New
    /// ids are dense and ascending.
    fn find_or_insert(&mut self, hash: u64, key: &[u8]) -> usize {
        if 2 * (self.len() + 1) > self.slots.len() {
            // Double the slots, placing every id by its stored hash.
            self.slots = vec![0; (2 * self.slots.len()).max(16)];
            for id in 0..self.len() {
                let i = self.slot(self.hashes[id], |_| false);
                self.slots[i] = id as u32 + 1;
            }
        }
        let i = self.slot(hash, |id| self.hashes[id] == hash && self.key(id) == key);
        if self.slots[i] != 0 {
            return self.slots[i] as usize - 1;
        }
        let id = self.len();
        self.slots[i] = u32::try_from(id + 1).expect("fewer than 2^32 groups");
        self.hashes.push(hash);
        self.key_bytes.extend_from_slice(key);
        self.key_end.push(self.key_bytes.len());
        id
    }

    /// Find or insert a batch of keys (key `i` ends at `ends[i]`, the next
    /// starts there) in order, passing each one's id to `f`, and empty the
    /// batch. Every key is hashed before any is probed, so the probes' cache
    /// misses overlap.
    fn resolve(&mut self, keys: &mut Vec<u8>, ends: &mut Vec<usize>, mut f: impl FnMut(usize)) {
        let key = |i: usize| &keys[i.checked_sub(1).map_or(0, |p| ends[p])..ends[i]];
        let hashes: Vec<u64> = (0..ends.len()).map(|i| hash_key(key(i))).collect();
        for (i, hash) in hashes.into_iter().enumerate() {
            f(self.find_or_insert(hash, key(i)));
        }
        keys.clear();
        ends.clear();
    }

    /// Decode the next key column: each key's cursor in `cur` (one per id)
    /// points at that column's validity tag and moves past the cell.
    fn decode_column(&self, dtype: DataType, cur: &mut [usize]) -> (ColumnData, Validity) {
        let mut col = C::with_capacity(dtype, cur.len());
        let mut valid = Vec::with_capacity(cur.len());
        for p in cur.iter_mut() {
            let (tag, b) = (self.key_bytes[*p], &self.key_bytes[*p + 1..]);
            let str_len = || u32::from_le_bytes(le(b)) as usize;
            match (tag, &mut col) {
                (0, col) => col.push_default(),
                (_, C::Bool(v)) => v.push(b[0] != 0),
                (_, C::Int32(v) | C::Date(v)) => v.push(i32::from_le_bytes(le(b))),
                (_, C::Int64(v) | C::Decimal(v)) => v.push(i64::from_le_bytes(le(b))),
                (_, C::Float64(v)) => v.push(f64::from_le_bytes(le(b))),
                (_, C::Str(v)) => v.push(std::str::from_utf8(&b[4..4 + str_len()]).expect("UTF-8")),
            }
            valid.push(tag == 1);
            *p += 1 + match (tag, dtype) {
                (0, _) => 0,
                (_, DataType::Str) => 4 + str_len(),
                (_, fixed) => fixed.slot_width(),
            };
        }
        (col, mask(valid))
    }
}

/// Append `col[row]` to `buf`: fixed width little-endian, strings as a u32
/// length and their bytes.
fn encode_value(buf: &mut Vec<u8>, col: &ColumnData, row: usize) {
    match col {
        C::Bool(v) => buf.push(v[row] as u8),
        C::Int32(v) | C::Date(v) => buf.extend_from_slice(&v[row].to_le_bytes()),
        C::Int64(v) | C::Decimal(v) => buf.extend_from_slice(&v[row].to_le_bytes()),
        C::Float64(v) => buf.extend_from_slice(&v[row].to_le_bytes()),
        C::Str(v) => {
            let s = v.get(row);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
    }
}

/// The (aggregate, group) a `COUNT(DISTINCT)` pair key names: two u32s
/// ahead of the value.
fn pair_of(key: &[u8]) -> (usize, usize) {
    let word = |at: usize| u32::from_le_bytes(le(&key[at..])) as usize;
    (word(0), word(4))
}

/// A running aggregate value: integer-like sums, counts and extrema wrap in
/// `i64`, Float64 ones are `f64`, and MIN/MAX over Str and Bool keep a
/// [`Value`]. `Default` is the value of a group that folded nothing (NULL
/// for a `Value`).
trait State: Default {
    fn order(&self, other: &Self) -> Ordering;
    /// Append to the output column.
    fn push(self, col: &mut ColumnData);
    fn add(&mut self, _: Self) {
        unreachable!("SUM and AVG fold numeric states only")
    }
}

impl State for i64 {
    fn order(&self, other: &i64) -> Ordering {
        self.cmp(other)
    }
    fn push(self, col: &mut ColumnData) {
        match col {
            // MIN/MAX over 32-bit inputs: every state is one of the inputs.
            ColumnData::Int32(v) | ColumnData::Date(v) => v.push(self as i32),
            ColumnData::Int64(v) | ColumnData::Decimal(v) => v.push(self),
            other => unreachable!("integer state for a {:?} column", other.data_type()),
        }
    }
    fn add(&mut self, x: i64) {
        *self = self.wrapping_add(x);
    }
}

impl State for f64 {
    fn order(&self, other: &f64) -> Ordering {
        self.total_cmp(other)
    }
    fn push(self, col: &mut ColumnData) {
        col.push_value(&Value::Float64(self));
    }
    fn add(&mut self, x: f64) {
        *self += x;
    }
}

impl State for Value {
    fn order(&self, other: &Value) -> Ordering {
        value_cmp(self, other)
    }
    fn push(self, col: &mut ColumnData) {
        match self {
            Value::Null => col.push_default(),
            v => col.push_value(&v),
        }
    }
}

/// One aggregate's states, indexed by group id: (value, inputs folded).
type States<T> = Vec<(T, i64)>;

/// Fold `x`, standing for `n` inputs, into one group's state.
fn fold<T: State>(s: &mut (T, i64), x: T, n: i64, func: AggFunc) {
    match func {
        AggFunc::Min if s.1 == 0 || x.order(&s.0).is_lt() => s.0 = x,
        AggFunc::Max if s.1 == 0 || x.order(&s.0).is_gt() => s.0 = x,
        AggFunc::Min | AggFunc::Max => {}
        _ => s.0.add(x),
    }
    s.1 += n;
}

/// Fold every row of the batch whose groups are `ids` into its group's
/// state; `x` reads a row, `None` when it is NULL. One loop per state type
/// and input column type.
fn fold_in<T: State>(s: &mut States<T>, f: AggFunc, ids: &[usize], x: impl Fn(usize) -> Option<T>) {
    for (row, &g) in ids.iter().enumerate() {
        if let Some(x) = x(row) {
            fold(&mut s[g], x, 1, f);
        }
    }
}

/// Fold a worker's states in along the local→global id `map`; `dst`
/// already has a (default) state for every group the merge added, so a new
/// group's state moves in unchanged.
fn merge_states<T: State>(dst: &mut States<T>, src: States<T>, map: &[usize], func: AggFunc) {
    for ((x, n), &g) in src.into_iter().zip(map) {
        if n > 0 {
            fold(&mut dst[g], x, n, func);
        }
    }
}

/// One aggregate's states, of the type it folds.
enum Acc {
    Int(States<i64>),
    Float(States<f64>),
    Val(States<Value>),
}

/// Evaluate `$e` with `$s` bound to the states of whichever type `$acc` has.
macro_rules! each_acc {
    ($acc:expr, $s:ident => $e:expr) => {
        match $acc {
            Acc::Int($s) => $e,
            Acc::Float($s) => $e,
            Acc::Val($s) => $e,
        }
    };
}

/// A worker's (or the merged) aggregation state.
#[derive(Default)]
struct AggTable {
    groups: GroupTable,
    /// One per aggregate, each as long as `groups` between batches.
    accs: Vec<Acc>,
    /// The accepted (aggregate, group, value) keys of `COUNT(DISTINCT)`.
    pairs: GroupTable,
    /// Scratch of the owning worker: the batch's group ids and keys.
    gids: Vec<usize>,
    keys: Vec<u8>,
    ends: Vec<usize>,
}

impl AggTable {
    fn bytes(&self) -> usize {
        let accs: usize = self.accs.iter().map(|a| each_acc!(a, s => heap(s))).sum();
        self.groups.bytes() + self.pairs.bytes() + accs
    }

    /// Fold the batch whose rows belong to the groups `self.gids` into every
    /// aggregate, one column at a time.
    fn update(&mut self, aggs: &[AggSpec], input: &Batch) {
        let g = &self.gids;
        for (a, (acc, spec)) in self.accs.iter_mut().zip(aggs).enumerate() {
            each_acc!(acc, s => s.resize_with(self.groups.len(), Default::default));
            let (f, col) = (spec.func, input.column(spec.input));
            let valid = input.validity(spec.input).as_deref();
            let ok = |row: usize| valid.is_none_or(|m| m[row]);
            match (acc, col) {
                // Every row counts, NULL inputs included.
                (Acc::Int(s), _) if f == AggFunc::CountStar => fold_in(s, f, g, |_| Some(1)),
                (Acc::Int(_), _) if f == AggFunc::CountDistinct => {
                    for (row, &id) in g.iter().enumerate().filter(|&(row, _)| ok(row)) {
                        self.keys.extend_from_slice(&(a as u32).to_le_bytes());
                        self.keys.extend_from_slice(&(id as u32).to_le_bytes());
                        encode_value(&mut self.keys, col, row);
                        self.ends.push(self.keys.len());
                    }
                }
                (Acc::Int(s), C::Int64(v) | C::Decimal(v)) => {
                    fold_in(s, f, g, |r| ok(r).then(|| v[r]))
                }
                (Acc::Int(s), C::Int32(v) | C::Date(v)) => {
                    fold_in(s, f, g, |r| ok(r).then(|| v[r].into()))
                }
                (Acc::Float(s), C::Float64(v)) => fold_in(s, f, g, |r| ok(r).then(|| v[r])),
                (Acc::Val(s), col) => fold_in(s, f, g, |r| ok(r).then(|| col.value(r))),
                (_, col) => panic!("{f:?} over a {:?} column", col.data_type()),
            }
        }
        self.pairs.resolve(&mut self.keys, &mut self.ends, |_| {});
    }

    /// Merge another worker's table into this one, moving its states.
    fn merge(&mut self, other: AggTable, aggs: &[AggSpec]) {
        let mut map = Vec::with_capacity(other.groups.len());
        for (l, &hash) in other.groups.hashes.iter().enumerate() {
            map.push(self.groups.find_or_insert(hash, other.groups.key(l)));
        }
        for ((acc, local), spec) in self.accs.iter_mut().zip(other.accs).zip(aggs) {
            each_acc!(&mut *acc, s => s.resize_with(self.groups.len(), Default::default));
            match (acc, local) {
                (Acc::Int(a), Acc::Int(b)) => merge_states(a, b, &map, spec.func),
                (Acc::Float(a), Acc::Float(b)) => merge_states(a, b, &map, spec.func),
                (Acc::Val(a), Acc::Val(b)) => merge_states(a, b, &map, spec.func),
                _ => unreachable!("every table of one AggSink has the same state types"),
            }
        }
        for p in 0..other.pairs.len() {
            let (agg, g) = pair_of(other.pairs.key(p));
            self.keys.extend_from_slice(&(agg as u32).to_le_bytes());
            self.keys.extend_from_slice(&(map[g] as u32).to_le_bytes());
            self.keys.extend_from_slice(&other.pairs.key(p)[8..]);
            self.ends.push(self.keys.len());
        }
        self.pairs.resolve(&mut self.keys, &mut self.ends, |_| {});
    }
}

/// The aggregation pipeline breaker.
pub struct AggSink {
    input_schema: Schema,
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    global: Mutex<Option<AggTable>>,
    /// Time inside the serialized `finish_local` merges.
    merge_ns: AtomicU64,
}

impl AggSink {
    pub fn new(input_schema: Schema, group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> AggSink {
        AggSink {
            input_schema,
            group_cols,
            aggs,
            global: Mutex::new(None),
            merge_ns: AtomicU64::new(0),
        }
    }

    /// Schema of the result: group columns followed by aggregate columns.
    pub fn output_schema(&self) -> Schema {
        AggSink::schema_of(&self.input_schema, &self.group_cols, &self.aggs)
    }

    /// What aggregating `input` by `group_cols` yields. The one derivation,
    /// for plan nodes and sinks alike.
    pub fn schema_of(input: &Schema, group_cols: &[usize], aggs: &[AggSpec]) -> Schema {
        let field = |a: &AggSpec| Field::new(a.name.clone(), a.output_type(input));
        let keys = group_cols.iter().map(|&i| input.fields[i].clone());
        Schema::new(keys.chain(aggs.iter().map(field)).collect())
    }

    /// Microseconds spent inside the serialized `finish_local` merges.
    pub fn merge_us(&self) -> u64 {
        self.merge_ns.load(Relaxed) / 1_000
    }

    /// Heap bytes of the merged table (groups, distinct pairs and states);
    /// 0 once `into_table` has taken it.
    pub fn table_bytes(&self) -> usize {
        self.global.lock().as_ref().map_or(0, AggTable::bytes)
    }

    /// An empty table, with each aggregate's states of the type it folds.
    fn new_table(&self) -> AggTable {
        let mut t = AggTable::default();
        for a in &self.aggs {
            t.accs.push(match a.output_type(&self.input_schema) {
                DataType::Float64 => Acc::Float(Vec::new()),
                t if t.is_integer_like() => Acc::Int(Vec::new()),
                _ => Acc::Val(Vec::new()),
            });
        }
        t
    }

    /// Extract the final result (consumes the accumulated state).
    pub fn into_table(&self) -> Table {
        let schema = self.output_schema();
        let taken = self.global.lock().take();
        let mut table = taken.unwrap_or_else(|| self.new_table());
        // SQL: a global aggregate over zero rows still yields one row.
        if self.group_cols.is_empty() {
            table.groups.find_or_insert(hash_key(&[]), &[]);
        }
        let groups = table.groups.len();
        let mut cur: Vec<usize> = (0..groups).map(|g| table.groups.key_start(g)).collect();
        let (keys, aggs) = schema.fields.split_at(self.group_cols.len());
        let decode = |f: &Field| table.groups.decode_column(f.dtype, &mut cur);
        let mut out: Vec<(ColumnData, Validity)> = keys.iter().map(decode).collect();
        for acc in &mut table.accs {
            each_acc!(acc, s => s.resize_with(groups, Default::default));
        }
        // Every accepted (aggregate, group, value) adds 1 to its count.
        for p in 0..table.pairs.len() {
            let (agg, g) = pair_of(table.pairs.key(p));
            if let Acc::Int(s) = &mut table.accs[agg] {
                s[g].0 += 1;
            }
        }
        for ((mut acc, spec), field) in table.accs.into_iter().zip(&self.aggs).zip(aggs) {
            if let (Acc::Int(s), AggFunc::Avg) = (&mut acc, spec.func) {
                for (x, n) in s.iter_mut().filter(|(_, n)| *n > 0) {
                    *x = Decimal(*x).div(Decimal::from_int(*n)).0;
                }
            }
            // MIN, MAX and AVG of a group that folded no input are NULL.
            let nullable = matches!(spec.func, AggFunc::Min | AggFunc::Max | AggFunc::Avg);
            out.push(each_acc!(acc, s => {
                let valid = s.iter().map(|&(_, n)| !nullable || n > 0).collect();
                let mut col = ColumnData::with_capacity(field.dtype, s.len());
                s.into_iter().for_each(|(x, _)| x.push(&mut col));
                (col, mask(valid))
            }));
        }
        let (columns, validity) = out.into_iter().unzip();
        Table::with_validity(schema, columns, validity)
    }
}

impl Sink for AggSink {
    fn create_local(&self) -> LocalState {
        Box::new(self.new_table())
    }

    fn consume(&self, local: &mut LocalState, input: Batch) -> ExecResult {
        let t = local.downcast_mut::<AggTable>().expect("an AggTable");
        if input.is_empty() {
            return Ok(());
        }
        t.gids.clear();
        if self.group_cols.is_empty() {
            let g = t.groups.find_or_insert(hash_key(&[]), &[]);
            t.gids.resize(input.num_rows(), g);
        } else {
            for row in 0..input.num_rows() {
                for &c in &self.group_cols {
                    let valid = input.is_valid(c, row);
                    t.keys.push(valid as u8);
                    if valid {
                        encode_value(&mut t.keys, input.column(c), row);
                    }
                }
                t.ends.push(t.keys.len());
            }
            let gids = &mut t.gids;
            t.groups.resolve(&mut t.keys, &mut t.ends, |g| gids.push(g));
        }
        t.update(&self.aggs, &input);
        Ok(())
    }

    fn finish_local(&self, local: LocalState) -> ExecResult {
        let local = *local.downcast::<AggTable>().expect("an AggTable");
        let mut global = self.global.lock();
        let start = Instant::now();
        match &mut *global {
            Some(table) => table.merge(local, &self.aggs),
            None => *global = Some(local),
        }
        let ns = start.elapsed().as_nanos() as u64;
        self.merge_ns.fetch_add(ns, Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinstudy_storage::column::StrColumn;

    fn sample_batch() -> Batch {
        let mut grp = StrColumn::new();
        for g in ["a", "b", "a", "a", "b"] {
            grp.push(g);
        }
        Batch::new(vec![
            ColumnData::Str(grp),
            ColumnData::Int64(vec![1, 2, 3, 4, 5]),
            ColumnData::Decimal(vec![100, 200, 300, 400, 500]),
        ])
    }

    fn run(sink: &AggSink, batches: Vec<Batch>) -> Table {
        let mut local = sink.create_local();
        for b in batches {
            sink.consume(&mut local, b).unwrap();
        }
        sink.finish_local(local).unwrap();
        sink.finish();
        sink.into_table()
    }

    fn schema() -> Schema {
        Schema::of(&[
            ("g", DataType::Str),
            ("v", DataType::Int64),
            ("d", DataType::Decimal),
        ])
    }

    #[test]
    fn global_count_and_sum() {
        let sink = AggSink::new(
            schema(),
            vec![],
            vec![
                AggSpec::new(AggFunc::CountStar, 0, "cnt"),
                AggSpec::new(AggFunc::Sum, 1, "total"),
            ],
        );
        let t = run(&sink, vec![sample_batch(), sample_batch()]);
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.column_by_name("cnt").as_i64(), &[10]);
        assert_eq!(t.column_by_name("total").as_i64(), &[30]);
    }

    #[test]
    fn global_agg_over_empty_input_yields_one_row() {
        let sink = AggSink::new(
            schema(),
            vec![],
            vec![AggSpec::new(AggFunc::CountStar, 0, "cnt")],
        );
        let t = run(&sink, vec![]);
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.column_by_name("cnt").as_i64(), &[0]);
    }

    #[test]
    fn grouped_sums() {
        let sink = AggSink::new(
            schema(),
            vec![0],
            vec![
                AggSpec::new(AggFunc::Sum, 1, "sv"),
                AggSpec::new(AggFunc::CountStar, 0, "cnt"),
            ],
        );
        let t = run(&sink, vec![sample_batch()]);
        assert_eq!(t.num_rows(), 2);
        let mut rows: Vec<(String, i64, i64)> = (0..2)
            .map(|i| {
                (
                    t.column(0).as_str().get(i).to_owned(),
                    t.column(1).as_i64()[i],
                    t.column(2).as_i64()[i],
                )
            })
            .collect();
        rows.sort();
        assert_eq!(rows, vec![("a".into(), 8, 3), ("b".into(), 7, 2)]);
    }

    #[test]
    fn min_max_avg() {
        let sink = AggSink::new(
            schema(),
            vec![0],
            vec![
                AggSpec::new(AggFunc::Min, 2, "lo"),
                AggSpec::new(AggFunc::Max, 2, "hi"),
                AggSpec::new(AggFunc::Avg, 2, "avg"),
            ],
        );
        let t = run(&sink, vec![sample_batch()]);
        let idx_a = (0..2)
            .find(|&i| t.column(0).as_str().get(i) == "a")
            .unwrap();
        assert_eq!(t.column_by_name("lo").as_i64()[idx_a], 100);
        assert_eq!(t.column_by_name("hi").as_i64()[idx_a], 400);
        // avg(1.00, 3.00, 4.00) = 2.66
        assert_eq!(t.column_by_name("avg").as_i64()[idx_a], 266);
    }

    #[test]
    fn count_distinct() {
        let sink = AggSink::new(
            schema(),
            vec![0],
            vec![AggSpec::new(AggFunc::CountDistinct, 1, "dv")],
        );
        let mut grp = StrColumn::new();
        for g in ["a", "a", "a", "b"] {
            grp.push(g);
        }
        let batch = Batch::new(vec![
            ColumnData::Str(grp),
            ColumnData::Int64(vec![7, 7, 8, 7]),
            ColumnData::Decimal(vec![0, 0, 0, 0]),
        ]);
        let t = run(&sink, vec![batch]);
        let idx_a = (0..2)
            .find(|&i| t.column(0).as_str().get(i) == "a")
            .unwrap();
        assert_eq!(t.column_by_name("dv").as_i64()[idx_a], 2);
        assert_eq!(t.column_by_name("dv").as_i64()[1 - idx_a], 1);
    }

    #[test]
    fn parallel_merge_equals_serial() {
        let sink = AggSink::new(schema(), vec![0], vec![AggSpec::new(AggFunc::Sum, 1, "sv")]);
        // Two workers each with a local table.
        let mut l1 = sink.create_local();
        let mut l2 = sink.create_local();
        sink.consume(&mut l1, sample_batch()).unwrap();
        sink.consume(&mut l2, sample_batch()).unwrap();
        sink.finish_local(l1).unwrap();
        sink.finish_local(l2).unwrap();
        let t = sink.into_table();
        let mut rows: Vec<(String, i64)> = (0..t.num_rows())
            .map(|i| {
                (
                    t.column(0).as_str().get(i).to_owned(),
                    t.column(1).as_i64()[i],
                )
            })
            .collect();
        rows.sort();
        assert_eq!(rows, vec![("a".into(), 16), ("b".into(), 14)]);
    }

    #[test]
    fn multi_column_group_keys() {
        let sink = AggSink::new(
            Schema::of(&[("a", DataType::Int32), ("b", DataType::Int32)]),
            vec![0, 1],
            vec![AggSpec::new(AggFunc::CountStar, 0, "cnt")],
        );
        let batch = Batch::new(vec![
            ColumnData::Int32(vec![1, 1, 2, 1]),
            ColumnData::Int32(vec![1, 2, 1, 1]),
        ]);
        let t = run(&sink, vec![batch]);
        assert_eq!(t.num_rows(), 3);
        let cnt_total: i64 = t.column_by_name("cnt").as_i64().iter().sum();
        assert_eq!(cnt_total, 4);
    }

    /// Outer-join padding: a NULL key is its own group, whatever value sits
    /// under the mask, and NULL inputs are skipped by all but `COUNT(*)`.
    #[test]
    fn null_keys_group_apart_and_null_inputs_are_skipped() {
        let sink = AggSink::new(
            Schema::of(&[("k", DataType::Int64), ("v", DataType::Decimal)]),
            vec![0],
            vec![
                AggSpec::new(AggFunc::CountStar, 0, "n"),
                AggSpec::new(AggFunc::Sum, 1, "sum"),
                AggSpec::new(AggFunc::Min, 1, "lo"),
                AggSpec::new(AggFunc::Max, 1, "hi"),
                AggSpec::new(AggFunc::Avg, 1, "avg"),
                AggSpec::new(AggFunc::CountDistinct, 1, "dv"),
            ],
        );
        let batch = Batch::with_validity(
            vec![
                ColumnData::Int64(vec![0, 7, 0, 8, 5]),
                ColumnData::Decimal(vec![100, 200, 300, 400, 500]),
            ],
            vec![
                Some(vec![true, false, true, false, true]),
                Some(vec![true, true, false, true, false]),
            ],
        );
        let t = run(&sink, vec![batch]);
        let mut rows: Vec<Vec<Value>> = (0..t.num_rows()).map(|r| t.row(r)).collect();
        rows.sort_by(|a, b| value_cmp(&a[0], &b[0]));
        let dec = |v: i64| Value::Decimal(Decimal(v));
        assert_eq!(
            rows,
            vec![
                vec![
                    Value::Int64(0),
                    Value::Int64(2),
                    dec(100),
                    dec(100),
                    dec(100),
                    dec(100),
                    Value::Int64(1)
                ],
                vec![
                    Value::Int64(5),
                    Value::Int64(1),
                    dec(0),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Int64(0)
                ],
                vec![
                    Value::Null,
                    Value::Int64(2),
                    dec(600),
                    dec(200),
                    dec(400),
                    dec(300),
                    Value::Int64(2)
                ],
            ]
        );
    }

    #[test]
    fn value_cmp_total_order() {
        assert_eq!(
            value_cmp(&Value::Int64(1), &Value::Int64(2)),
            Ordering::Less
        );
        assert_eq!(
            value_cmp(&Value::Str("abc".into()), &Value::Str("abd".into())),
            Ordering::Less
        );
        assert_eq!(value_cmp(&Value::Null, &Value::Int64(0)), Ordering::Greater);
        assert_eq!(
            value_cmp(&Value::Float64(1.5), &Value::Float64(1.5)),
            Ordering::Equal
        );
    }
}
