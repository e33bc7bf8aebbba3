//! Fixed-width materialized row layout.
//!
//! Pipeline breakers (radix partitioning, hash-table build) materialize
//! tuples as fixed-width rows:
//!
//! ```text
//! [next: u64]?  [hash: u64]  [col slots ...]  [padding]
//! ```
//!
//! * the optional `next` header slot exists only in non-partitioned-join
//!   build rows (intrusive chaining + the build-preserved "matched" flag),
//! * the 64-bit join hash is always stored with the tuple, as in the paper
//!   (§5.2), so partitioning passes and the final join never rehash,
//! * column slots are packed widest-first (no alignment holes), strings are
//!   stored out-of-line in per-worker [`StrHeap`]s with a packed 8-byte
//!   reference in the row,
//! * the row **stride** is the width padded to the next power of two when
//!   ≤ 64 B — the paper's padding rule that makes software write-combine
//!   buffers and non-temporal streaming applicable (§5.2.3); wider tuples
//!   keep their natural (8-byte-rounded) width and forgo SWWCBs (§5.4.2).

use joinstudy_exec::batch::Batch;
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::types::DataType;

/// Offset of the stored hash from the row start.
const HASH_OFF_NO_HEADER: usize = 0;

/// An out-of-line string arena. Each worker owns one during materialization;
/// after the pipeline finishes the set of heaps is frozen and shared.
#[derive(Debug, Default)]
pub struct StrHeap {
    bytes: Vec<u8>,
}

/// Packed string reference: `heap_id(8) | offset(40) | len(16)`.
pub type StrRef = u64;

impl StrHeap {
    pub fn new() -> StrHeap {
        StrHeap { bytes: Vec::new() }
    }

    /// Append a string, returning its packed reference for heap `heap_id`.
    pub fn push(&mut self, heap_id: usize, s: &str) -> StrRef {
        let off = self.bytes.len() as u64;
        let len = s.len() as u64;
        assert!(heap_id < 256, "too many worker heaps");
        assert!(off < 1 << 40, "string heap exceeds 1 TiB");
        assert!(len < 1 << 16, "string longer than 64 KiB");
        self.bytes.extend_from_slice(s.as_bytes());
        ((heap_id as u64) << 56) | (off << 16) | len
    }

    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Forget every string. Only sound once no row referring to this heap
    /// is left (the radix sink's staging heap, after its rows were spilled).
    pub fn clear(&mut self) {
        self.bytes.clear();
    }
}

/// Resolve a packed reference against the heap set it was created in.
pub fn resolve_str(heaps: &[StrHeap], r: StrRef) -> &str {
    let heap_id = (r >> 56) as usize;
    let off = ((r >> 16) & ((1 << 40) - 1)) as usize;
    let len = (r & 0xFFFF) as usize;
    let bytes = &heaps[heap_id].bytes[off..off + len];
    // SAFETY: `StrHeap::push` is the only writer of `bytes`, and it appends
    // whole `&str`s; a reference it returned spans exactly one of them, so
    // `bytes` is valid UTF-8 (the slice above is bounds-checked, and a
    // reference into a cleared heap panics there rather than misreading).
    unsafe { std::str::from_utf8_unchecked(bytes) }
}

/// The physical layout of one materialized tuple.
#[derive(Debug, Clone)]
pub struct RowLayout {
    types: Vec<DataType>,
    /// Byte offset of each column slot, indexed by logical column.
    offsets: Vec<usize>,
    /// Bytes before the hash: 8 when the row carries a `next` header.
    base: usize,
    /// Used bytes, rounded up to 8.
    width: usize,
    /// Distance between consecutive rows in a buffer.
    stride: usize,
    /// Whether SWWCBs + non-temporal streaming apply (width ≤ 64).
    swwcb_eligible: bool,
}

impl RowLayout {
    /// Layout for the given column types. `with_header` adds the leading
    /// 8-byte `next`/flag slot used by the non-partitioned join's build rows.
    pub fn new(types: &[DataType], with_header: bool) -> RowLayout {
        let base = if with_header { 8 } else { HASH_OFF_NO_HEADER };
        // Hash slot right after the optional header.
        let cols_start = base + 8;

        // Assign slots widest-first to avoid alignment holes; remember the
        // original column order in `offsets`.
        let mut order: Vec<usize> = (0..types.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(types[i].slot_width()));
        let mut offsets = vec![0usize; types.len()];
        let mut cursor = cols_start;
        for &i in &order {
            let w = types[i].slot_width();
            // Align to slot width (1, 4, or 8).
            cursor = cursor.div_ceil(w) * w;
            offsets[i] = cursor;
            cursor += w;
        }
        let width = cursor.div_ceil(8) * 8;
        let (stride, swwcb_eligible) = if width <= 64 {
            (width.next_power_of_two(), true)
        } else {
            (width, false)
        };
        RowLayout {
            types: types.to_vec(),
            offsets,
            base,
            width,
            stride,
            swwcb_eligible,
        }
    }

    pub fn num_columns(&self) -> usize {
        self.types.len()
    }

    pub fn types(&self) -> &[DataType] {
        &self.types
    }

    pub fn col_offset(&self, col: usize) -> usize {
        self.offsets[col]
    }

    /// Unpadded row width in bytes (multiple of 8).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Padded distance between rows (power of two when SWWCB-eligible).
    pub fn stride(&self) -> usize {
        self.stride
    }

    pub fn swwcb_eligible(&self) -> bool {
        self.swwcb_eligible
    }

    /// Whether rows carry the `next` header slot.
    pub fn has_header(&self) -> bool {
        self.base == 8
    }

    /// Offset of the stored hash.
    pub fn hash_offset(&self) -> usize {
        self.base
    }

    /// Read the stored hash of a row.
    #[inline]
    pub fn read_hash(&self, row: &[u8]) -> u64 {
        read_u64(row, self.base)
    }

    /// Write one tuple (`hash` + the batch's row `r`) into `dst`
    /// (`dst.len() >= self.width`). String columns are appended to `heap`.
    pub fn encode_row(
        &self,
        dst: &mut [u8],
        hash: u64,
        batch: &Batch,
        r: usize,
        heap: &mut StrHeap,
        heap_id: usize,
    ) {
        if self.has_header() {
            write_u64(dst, 0, 0);
        }
        write_u64(dst, self.base, hash);
        for (c, &off) in self.offsets.iter().enumerate() {
            match batch.column(c) {
                ColumnData::Bool(v) => dst[off] = v[r] as u8,
                ColumnData::Int32(v) | ColumnData::Date(v) => {
                    dst[off..off + 4].copy_from_slice(&v[r].to_le_bytes())
                }
                ColumnData::Int64(v) | ColumnData::Decimal(v) => {
                    dst[off..off + 8].copy_from_slice(&v[r].to_le_bytes())
                }
                ColumnData::Float64(v) => {
                    dst[off..off + 8].copy_from_slice(&v[r].to_bits().to_le_bytes())
                }
                ColumnData::Str(v) => {
                    let sref = heap.push(heap_id, v.get(r));
                    dst[off..off + 8].copy_from_slice(&sref.to_le_bytes());
                }
            }
        }
    }

    /// Decode column `c` of the rows starting at the given byte offsets in
    /// `data`, appending to `out` (which must have the matching type).
    pub fn decode_column_into(
        &self,
        data: &[u8],
        row_offsets: &[usize],
        c: usize,
        heaps: &[StrHeap],
        out: &mut ColumnData,
    ) {
        let off = self.offsets[c];
        match (self.types[c], out) {
            (DataType::Bool, ColumnData::Bool(v)) => {
                v.extend(row_offsets.iter().map(|&ro| data[ro + off] != 0))
            }
            (DataType::Int32, ColumnData::Int32(v)) | (DataType::Date, ColumnData::Date(v)) => {
                v.extend(row_offsets.iter().map(|&ro| read_i32(data, ro + off)))
            }
            (DataType::Int64, ColumnData::Int64(v))
            | (DataType::Decimal, ColumnData::Decimal(v)) => v.extend(
                row_offsets
                    .iter()
                    .map(|&ro| read_u64(data, ro + off) as i64),
            ),
            (DataType::Float64, ColumnData::Float64(v)) => v.extend(
                row_offsets
                    .iter()
                    .map(|&ro| f64::from_bits(read_u64(data, ro + off))),
            ),
            (DataType::Str, ColumnData::Str(v)) => {
                for &ro in row_offsets {
                    v.push(resolve_str(heaps, read_u64(data, ro + off)));
                }
            }
            (t, o) => panic!("decode type mismatch: {:?} into {:?}", t, o.data_type()),
        }
    }

    /// Decode column `c` of rows addressed by raw pointers (chained build
    /// rows of the non-partitioned join), appending to `out`.
    ///
    /// # Safety
    /// Every pointer must reference a live row of this layout.
    pub unsafe fn decode_ptrs_into(
        &self,
        ptrs: &[*const u8],
        c: usize,
        heaps: &[StrHeap],
        out: &mut ColumnData,
    ) {
        let off = self.offsets[c];
        let width = self.width;
        for &p in ptrs {
            let row = std::slice::from_raw_parts(p, width);
            match (self.types[c], &mut *out) {
                (DataType::Bool, ColumnData::Bool(v)) => v.push(row[off] != 0),
                (DataType::Int32, ColumnData::Int32(v)) | (DataType::Date, ColumnData::Date(v)) => {
                    v.push(read_i32(row, off))
                }
                (DataType::Int64, ColumnData::Int64(v))
                | (DataType::Decimal, ColumnData::Decimal(v)) => v.push(read_u64(row, off) as i64),
                (DataType::Float64, ColumnData::Float64(v)) => {
                    v.push(f64::from_bits(read_u64(row, off)))
                }
                (DataType::Str, ColumnData::Str(v)) => {
                    v.push(resolve_str(heaps, read_u64(row, off)))
                }
                (t, o) => panic!("decode type mismatch: {:?} into {:?}", t, o.data_type()),
            }
        }
    }

    /// Compare the key columns of a *batch* tuple against a materialized
    /// row (the non-partitioned join probes without materializing the probe
    /// side). Key lists are pairwise type-compatible.
    #[inline]
    pub fn keys_match_batch(
        &self,
        row: &[u8],
        row_keys: &[usize],
        heaps: &[StrHeap],
        batch: &Batch,
        batch_keys: &[usize],
        r: usize,
    ) -> bool {
        for (&kr, &kb) in row_keys.iter().zip(batch_keys) {
            let off = self.offsets[kr];
            let equal = match (self.types[kr], batch.column(kb)) {
                (DataType::Bool, ColumnData::Bool(v)) => (row[off] != 0) == v[r],
                (DataType::Int32, ColumnData::Int32(v)) | (DataType::Date, ColumnData::Date(v)) => {
                    read_i32(row, off) == v[r]
                }
                (DataType::Int64, ColumnData::Int64(v))
                | (DataType::Decimal, ColumnData::Decimal(v)) => read_u64(row, off) as i64 == v[r],
                (DataType::Int32, ColumnData::Int64(v)) => i64::from(read_i32(row, off)) == v[r],
                (DataType::Int64, ColumnData::Int32(v)) => {
                    read_u64(row, off) as i64 == i64::from(v[r])
                }
                (DataType::Float64, ColumnData::Float64(v)) => read_u64(row, off) == v[r].to_bits(),
                (DataType::Str, ColumnData::Str(v)) => {
                    resolve_str(heaps, read_u64(row, off)) == v.get(r)
                }
                (t, c) => panic!("incomparable key types {t:?} vs {:?}", c.data_type()),
            };
            if !equal {
                return false;
            }
        }
        true
    }

    /// Compare the key columns of two rows (possibly from different layouts
    /// but with pairwise-matching key types and shared heaps per side).
    #[inline]
    #[allow(clippy::too_many_arguments)] // two (row, keys, heaps) triples + self
    pub fn keys_equal(
        &self,
        row_a: &[u8],
        keys_a: &[usize],
        heaps_a: &[StrHeap],
        layout_b: &RowLayout,
        row_b: &[u8],
        keys_b: &[usize],
        heaps_b: &[StrHeap],
    ) -> bool {
        debug_assert_eq!(keys_a.len(), keys_b.len());
        for (&ka, &kb) in keys_a.iter().zip(keys_b) {
            let oa = self.offsets[ka];
            let ob = layout_b.offsets[kb];
            let equal = match (self.types[ka], layout_b.types[kb]) {
                (DataType::Bool, DataType::Bool) => row_a[oa] == row_b[ob],
                (DataType::Int32, DataType::Int32) | (DataType::Date, DataType::Date) => {
                    read_i32(row_a, oa) == read_i32(row_b, ob)
                }
                (DataType::Int64, DataType::Int64) | (DataType::Decimal, DataType::Decimal) => {
                    read_u64(row_a, oa) == read_u64(row_b, ob)
                }
                // Mixed-width integer keys (INT vs BIGINT foreign keys).
                (DataType::Int32, DataType::Int64) => {
                    i64::from(read_i32(row_a, oa)) == read_u64(row_b, ob) as i64
                }
                (DataType::Int64, DataType::Int32) => {
                    read_u64(row_a, oa) as i64 == i64::from(read_i32(row_b, ob))
                }
                (DataType::Float64, DataType::Float64) => {
                    read_u64(row_a, oa) == read_u64(row_b, ob)
                }
                (DataType::Str, DataType::Str) => {
                    resolve_str(heaps_a, read_u64(row_a, oa))
                        == resolve_str(heaps_b, read_u64(row_b, ob))
                }
                (ta, tb) => panic!("incomparable key types {ta:?} vs {tb:?}"),
            };
            if !equal {
                return false;
            }
        }
        true
    }
}

#[inline]
pub fn read_u64(data: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(data[off..off + 8].try_into().unwrap())
}

#[inline]
pub fn write_u64(data: &mut [u8], off: usize, v: u64) {
    data[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn read_i32(data: &[u8], off: usize) -> i32 {
    i32::from_le_bytes(data[off..off + 4].try_into().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinstudy_storage::types::Value;

    #[test]
    fn layout_packs_widest_first() {
        let l = RowLayout::new(&[DataType::Int32, DataType::Int64, DataType::Bool], false);
        // hash at 0..8, i64 at 8, i32 at 16, bool at 20 → width 24 → stride 32.
        assert_eq!(l.hash_offset(), 0);
        assert_eq!(l.col_offset(1), 8);
        assert_eq!(l.col_offset(0), 16);
        assert_eq!(l.col_offset(2), 20);
        assert_eq!(l.width(), 24);
        assert_eq!(l.stride(), 32);
        assert!(l.swwcb_eligible());
    }

    #[test]
    fn layout_header_shifts_offsets() {
        let l = RowLayout::new(&[DataType::Int64], true);
        assert!(l.has_header());
        assert_eq!(l.hash_offset(), 8);
        assert_eq!(l.col_offset(0), 16);
        assert_eq!(l.width(), 24);
    }

    #[test]
    fn wide_rows_skip_padding_and_swwcb() {
        // 9 × 8B payload + 8B hash = 80 B > 64.
        let types = vec![DataType::Int64; 9];
        let l = RowLayout::new(&types, false);
        assert_eq!(l.width(), 80);
        assert_eq!(l.stride(), 80);
        assert!(!l.swwcb_eligible());
    }

    #[test]
    fn padding_hits_powers_of_two() {
        // hash + 1×8B = 16 → stride 16.
        assert_eq!(RowLayout::new(&[DataType::Int64], false).stride(), 16);
        // hash + 2×8B = 24 → stride 32.
        assert_eq!(RowLayout::new(&[DataType::Int64; 2], false).stride(), 32);
        // hash + 7×8B = 64 → stride 64 (still eligible).
        let l = RowLayout::new([DataType::Int64; 7].as_ref(), false);
        assert_eq!(l.stride(), 64);
        assert!(l.swwcb_eligible());
    }

    #[test]
    fn encode_decode_roundtrip_all_types() {
        let types = [
            DataType::Int64,
            DataType::Int32,
            DataType::Decimal,
            DataType::Str,
            DataType::Bool,
            DataType::Date,
        ];
        let layout = RowLayout::new(&types, false);
        let mut b = joinstudy_exec::batch::BatchBuilder::new(types.to_vec());
        b.push_row(&[
            Value::Int64(-99),
            Value::Int32(7),
            Value::Decimal(joinstudy_storage::types::Decimal(1234)),
            Value::Str("tpch".into()),
            Value::Bool(true),
            Value::Date(joinstudy_storage::types::Date(9204)),
        ]);
        b.push_row(&[
            Value::Int64(5),
            Value::Int32(-1),
            Value::Decimal(joinstudy_storage::types::Decimal(-50)),
            Value::Str("".into()),
            Value::Bool(false),
            Value::Date(joinstudy_storage::types::Date(0)),
        ]);
        let batch = b.flush().unwrap();

        let mut heap = StrHeap::new();
        let mut data = vec![0u8; layout.stride() * 2];
        let stride = layout.stride();
        for r in 0..2 {
            layout.encode_row(
                &mut data[r * stride..r * stride + layout.width()],
                0xDEAD + r as u64,
                &batch,
                r,
                &mut heap,
                0,
            );
        }
        let heaps = vec![heap];
        let offsets = vec![0, stride];

        assert_eq!(layout.read_hash(&data[0..]), 0xDEAD);
        assert_eq!(layout.read_hash(&data[stride..]), 0xDEAE);

        for (c, &t) in types.iter().enumerate() {
            let mut out = ColumnData::new(t);
            layout.decode_column_into(&data, &offsets, c, &heaps, &mut out);
            assert_eq!(out.value(0), batch.value(c, 0), "col {c} row 0");
            assert_eq!(out.value(1), batch.value(c, 1), "col {c} row 1");
        }
    }

    #[test]
    fn keys_equal_across_layouts() {
        let la = RowLayout::new(&[DataType::Int64, DataType::Str], false);
        let lb = RowLayout::new(&[DataType::Str, DataType::Int64, DataType::Int32], false);

        let mut ba = joinstudy_exec::batch::BatchBuilder::new(vec![DataType::Int64, DataType::Str]);
        ba.push_row(&[Value::Int64(42), Value::Str("k".into())]);
        let ba = ba.flush().unwrap();
        let mut bb = joinstudy_exec::batch::BatchBuilder::new(vec![
            DataType::Str,
            DataType::Int64,
            DataType::Int32,
        ]);
        bb.push_row(&[Value::Str("k".into()), Value::Int64(42), Value::Int32(0)]);
        bb.push_row(&[Value::Str("k".into()), Value::Int64(43), Value::Int32(0)]);
        let bb = bb.flush().unwrap();

        let mut ha = StrHeap::new();
        let mut hb = StrHeap::new();
        let mut rowa = vec![0u8; la.width()];
        la.encode_row(&mut rowa, 1, &ba, 0, &mut ha, 0);
        let mut rowb0 = vec![0u8; lb.width()];
        let mut rowb1 = vec![0u8; lb.width()];
        lb.encode_row(&mut rowb0, 1, &bb, 0, &mut hb, 0);
        lb.encode_row(&mut rowb1, 1, &bb, 1, &mut hb, 0);

        let has = vec![ha];
        let hbs = vec![hb];
        // (42,"k") == (42,"k") matching columns (1,0) of b → (0,1) order.
        assert!(la.keys_equal(&rowa, &[0, 1], &has, &lb, &rowb0, &[1, 0], &hbs));
        assert!(!la.keys_equal(&rowa, &[0, 1], &has, &lb, &rowb1, &[1, 0], &hbs));
    }

    #[test]
    fn mixed_width_integer_keys_compare() {
        let la = RowLayout::new(&[DataType::Int32], false);
        let lb = RowLayout::new(&[DataType::Int64], false);
        let mut ba = joinstudy_exec::batch::BatchBuilder::new(vec![DataType::Int32]);
        ba.push_row(&[Value::Int32(-5)]);
        let ba = ba.flush().unwrap();
        let mut bb = joinstudy_exec::batch::BatchBuilder::new(vec![DataType::Int64]);
        bb.push_row(&[Value::Int64(-5)]);
        let bb = bb.flush().unwrap();
        let (mut ha, mut hb) = (StrHeap::new(), StrHeap::new());
        let mut ra = vec![0u8; la.width()];
        let mut rb = vec![0u8; lb.width()];
        la.encode_row(&mut ra, 0, &ba, 0, &mut ha, 0);
        lb.encode_row(&mut rb, 0, &bb, 0, &mut hb, 0);
        assert!(la.keys_equal(&ra, &[0], &[ha], &lb, &rb, &[0], &[hb]));
    }

    #[test]
    fn str_heap_pack_unpack() {
        let mut h = StrHeap::new();
        let r1 = h.push(3, "hello");
        let r2 = h.push(3, "");
        let mut heaps = vec![
            StrHeap::new(),
            StrHeap::new(),
            StrHeap::new(),
            StrHeap::new(),
        ];
        heaps[3] = h;
        assert_eq!(resolve_str(&heaps, r1), "hello");
        assert_eq!(resolve_str(&heaps, r2), "");
    }
}
