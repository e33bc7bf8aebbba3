//! Chunked, constant-memory streaming TPC-H generator.
//!
//! The materializing generator ([`crate::dbgen`]) caps experiments at the
//! scale factors that fit in RAM. This module removes that cap in the
//! spirit of tpchgen-rs: every table is generated in bounded **chunks**,
//! and each *unit* (one supplier, one part, one partsupp row, one order
//! together with its lineitems) is produced by its own deterministically
//! seeded [`Rng`], so a chunk's content depends only on
//! `(scale, seed, table, unit range)` — never on chunk size, chunk order,
//! or how many worker threads are generating concurrently.
//!
//! # Determinism guarantee
//!
//! For a fixed `(sf, seed)`, concatenating the chunks of a table in unit
//! order yields byte-identical rows for **any** chunk size and any degree
//! of parallelism. [`crate::dbgen::generate`] is itself built on this
//! module (one materializing pass over the chunks), so the streaming and
//! materializing paths cannot drift apart: they are the same code.
//!
//! # Projection
//!
//! [`StreamGen::chunk_cols`] generates only the requested columns, and
//! [`StreamGen::chunk`] is its all-columns case: one routine per table.
//! A unit makes the same draws in the same order whatever is requested,
//! formats and stores only the requested values, and stops drawing after
//! the last of them. Nothing can observe the skipped draws, because no
//! other unit shares its [`Rng`], so each projected column equals that
//! column of the full chunk.
//!
//! # Constant memory
//!
//! A [`StreamScan`] holds no table data; each executor task materializes
//! the projected columns of one chunk (default [`CHUNK_UNITS`] units, a
//! few MiB at most), slices them into batches, and drops them. Peak
//! generator memory is `chunks_in_flight × chunk_bytes`, independent of
//! scale factor — SF 10+ flows straight into the (spilling) join path
//! without ever existing as a whole table.

use crate::dbgen::{cardinalities, retail_price_cents, supp_for_part};
use crate::text;
use joinstudy_exec::batch::{slice_column, Batch};
use joinstudy_exec::error::ExecResult;
use joinstudy_exec::metrics;
use joinstudy_exec::pipeline::{Emit, Source};
use joinstudy_exec::BATCH_ROWS;
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::gen::{Rng, Zipf};
use joinstudy_storage::table::{Schema, Table, TableBuilder};
use joinstudy_storage::types::{DataType, Date};
use std::fmt::Write;
use std::ops::Range;
use std::sync::Arc;

/// Default generation units per chunk. One unit is one row for the base
/// tables and one *order* (with its 1–7 lineitems) for orders/lineitem, so
/// a default chunk stays well under a few MiB for every table.
pub const CHUNK_UNITS: usize = 8 * 1024;

/// The eight TPC-H relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpchTable {
    Region,
    Nation,
    Supplier,
    Part,
    Partsupp,
    Customer,
    Orders,
    Lineitem,
}

/// All tables, in generation order.
pub const TABLES: [TpchTable; 8] = [
    TpchTable::Region,
    TpchTable::Nation,
    TpchTable::Supplier,
    TpchTable::Part,
    TpchTable::Partsupp,
    TpchTable::Customer,
    TpchTable::Orders,
    TpchTable::Lineitem,
];

impl TpchTable {
    pub fn name(self) -> &'static str {
        match self {
            TpchTable::Region => "region",
            TpchTable::Nation => "nation",
            TpchTable::Supplier => "supplier",
            TpchTable::Part => "part",
            TpchTable::Partsupp => "partsupp",
            TpchTable::Customer => "customer",
            TpchTable::Orders => "orders",
            TpchTable::Lineitem => "lineitem",
        }
    }

    pub fn by_name(name: &str) -> TpchTable {
        TABLES
            .into_iter()
            .find(|t| t.name() == name)
            .unwrap_or_else(|| panic!("unknown TPC-H table {name:?}"))
    }

    /// The table's schema (shared by the streaming and materializing paths).
    pub fn schema(self) -> Schema {
        match self {
            TpchTable::Region => Schema::of(&[
                ("r_regionkey", DataType::Int64),
                ("r_name", DataType::Str),
                ("r_comment", DataType::Str),
            ]),
            TpchTable::Nation => Schema::of(&[
                ("n_nationkey", DataType::Int64),
                ("n_name", DataType::Str),
                ("n_regionkey", DataType::Int64),
                ("n_comment", DataType::Str),
            ]),
            TpchTable::Supplier => Schema::of(&[
                ("s_suppkey", DataType::Int64),
                ("s_name", DataType::Str),
                ("s_address", DataType::Str),
                ("s_nationkey", DataType::Int64),
                ("s_phone", DataType::Str),
                ("s_acctbal", DataType::Decimal),
                ("s_comment", DataType::Str),
            ]),
            TpchTable::Part => Schema::of(&[
                ("p_partkey", DataType::Int64),
                ("p_name", DataType::Str),
                ("p_mfgr", DataType::Str),
                ("p_brand", DataType::Str),
                ("p_type", DataType::Str),
                ("p_size", DataType::Int32),
                ("p_container", DataType::Str),
                ("p_retailprice", DataType::Decimal),
                ("p_comment", DataType::Str),
            ]),
            TpchTable::Partsupp => Schema::of(&[
                ("ps_partkey", DataType::Int64),
                ("ps_suppkey", DataType::Int64),
                ("ps_availqty", DataType::Int32),
                ("ps_supplycost", DataType::Decimal),
                ("ps_comment", DataType::Str),
            ]),
            TpchTable::Customer => Schema::of(&[
                ("c_custkey", DataType::Int64),
                ("c_name", DataType::Str),
                ("c_address", DataType::Str),
                ("c_nationkey", DataType::Int64),
                ("c_phone", DataType::Str),
                ("c_acctbal", DataType::Decimal),
                ("c_mktsegment", DataType::Str),
                ("c_comment", DataType::Str),
            ]),
            TpchTable::Orders => Schema::of(&[
                ("o_orderkey", DataType::Int64),
                ("o_custkey", DataType::Int64),
                ("o_orderstatus", DataType::Str),
                ("o_totalprice", DataType::Decimal),
                ("o_orderdate", DataType::Date),
                ("o_orderpriority", DataType::Str),
                ("o_clerk", DataType::Str),
                ("o_shippriority", DataType::Int32),
                ("o_comment", DataType::Str),
            ]),
            TpchTable::Lineitem => Schema::of(&[
                ("l_orderkey", DataType::Int64),
                ("l_partkey", DataType::Int64),
                ("l_suppkey", DataType::Int64),
                ("l_linenumber", DataType::Int32),
                ("l_quantity", DataType::Decimal),
                ("l_extendedprice", DataType::Decimal),
                ("l_discount", DataType::Decimal),
                ("l_tax", DataType::Decimal),
                ("l_returnflag", DataType::Str),
                ("l_linestatus", DataType::Str),
                ("l_shipdate", DataType::Date),
                ("l_commitdate", DataType::Date),
                ("l_receiptdate", DataType::Date),
                ("l_shipinstruct", DataType::Str),
                ("l_shipmode", DataType::Str),
                ("l_comment", DataType::Str),
            ]),
        }
    }

    /// Per-table stream tag mixed into every unit's seed, so the same unit
    /// index in different tables draws unrelated values.
    fn tag(self) -> u64 {
        (self as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)
    }
}

/// SplitMix64 output permutation — the seed scrambler that makes per-unit
/// RNG streams independent even for consecutive unit indices.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG owning all value draws of one generation unit.
fn unit_rng(seed: u64, table: TpchTable, unit: u64) -> Rng {
    let a = mix64(seed ^ 0x7063_6854_7374_726D); // "pchTstrm"
    let b = mix64(a ^ table.tag());
    Rng::new(mix64(b.wrapping_add(unit)))
}

/// Foreign-key skew configuration (the JCC-H-style extension the paper's
/// footnote 11 points at). `o_custkey` / `l_partkey` are drawn Zipf over
/// permuted key domains; referential integrity is preserved because
/// `(l_partkey, l_suppkey)` pairs still come from the spec formula.
pub(crate) struct FkSkew {
    cust: Zipf,
    cust_perm: Vec<u64>,
    part: Zipf,
    part_perm: Vec<u64>,
}

impl FkSkew {
    /// The permutations are seeded from `(seed)` alone, so skewed streams
    /// keep the same determinism guarantee as uniform ones. At large scale
    /// factors the permutations are the only non-constant memory
    /// (8 bytes/key); the SF-10+ streaming path uses uniform keys.
    fn new(seed: u64, customers: usize, parts: usize, zipf: f64) -> FkSkew {
        let mut rng = Rng::new(mix64(seed ^ 0x6A63_6348_536B_6577)); // "jccHSkew"
        FkSkew {
            cust: Zipf::new(customers as u64, zipf),
            cust_perm: rng.permutation(customers),
            part: Zipf::new(parts as u64, zipf),
            part_perm: rng.permutation(parts),
        }
    }
}

/// The streaming generator: scale, seed, optional skew, chunk granularity.
pub struct StreamGen {
    sf: f64,
    seed: u64,
    suppliers: usize,
    parts: usize,
    customers: usize,
    orders: usize,
    clerks: i64,
    chunk_units: usize,
    skew: Option<FkSkew>,
    date_lo: i32,
    date_hi: i32,
    current: i32,
}

impl StreamGen {
    pub fn new(sf: f64, seed: u64) -> StreamGen {
        let (suppliers, parts, customers, orders) = cardinalities(sf);
        StreamGen {
            sf,
            seed,
            suppliers,
            parts,
            customers,
            orders,
            clerks: ((orders / 1000).max(1)) as i64,
            chunk_units: CHUNK_UNITS,
            skew: None,
            date_lo: Date::from_ymd(1992, 1, 1).0,
            // Last order date: 1998-08-02 (spec: end - 151 days).
            date_hi: Date::from_ymd(1998, 8, 2).0,
            current: Date::from_ymd(1995, 6, 17).0,
        }
    }

    /// Zipf-skewed foreign keys (JCC-H-flavoured variant).
    pub fn skewed(sf: f64, seed: u64, zipf: f64) -> StreamGen {
        let mut g = StreamGen::new(sf, seed);
        g.skew = Some(FkSkew::new(seed, g.customers, g.parts, zipf));
        g
    }

    /// Override the chunk granularity (units per chunk). Chunk size changes
    /// *packaging only* — the generated rows are identical for any value.
    pub fn with_chunk_units(mut self, units: usize) -> StreamGen {
        assert!(units > 0);
        self.chunk_units = units;
        self
    }

    pub fn sf(&self) -> f64 {
        self.sf
    }

    /// Generation units of a table: rows for base tables, *orders* for both
    /// orders and lineitem (one order unit emits 1–7 lineitems).
    pub fn units(&self, table: TpchTable) -> usize {
        match table {
            TpchTable::Region => text::REGIONS.len(),
            TpchTable::Nation => text::NATIONS.len(),
            TpchTable::Supplier => self.suppliers,
            TpchTable::Part => self.parts,
            TpchTable::Partsupp => self.parts * 4,
            TpchTable::Customer => self.customers,
            TpchTable::Orders | TpchTable::Lineitem => self.orders,
        }
    }

    pub fn chunk_count(&self, table: TpchTable) -> usize {
        self.units(table).div_ceil(self.chunk_units)
    }

    /// The unit range of chunk `idx`.
    pub fn unit_range(&self, table: TpchTable, idx: usize) -> Range<usize> {
        let lo = idx * self.chunk_units;
        let hi = (lo + self.chunk_units).min(self.units(table));
        lo..hi
    }

    /// Estimated output rows of a full scan (lineitem averages 4 per order).
    pub fn est_rows(&self, table: TpchTable) -> f64 {
        match table {
            TpchTable::Lineitem => self.orders as f64 * 4.0,
            t => self.units(t) as f64,
        }
    }

    /// Materialize one chunk with every column, as a standalone table —
    /// deterministic in `(sf, seed, table, unit range)` only.
    pub fn chunk(&self, table: TpchTable, idx: usize) -> Table {
        self.chunk_cols(table, idx, &all_columns(table))
    }

    /// Materialize the columns `cols` (schema indices, in output order) of
    /// one chunk. Each column equals the same column of
    /// [`StreamGen::chunk`]: every unit makes the same draws from its own
    /// [`Rng`] up to its last requested value, and only the requested
    /// columns are formatted and stored.
    pub fn chunk_cols(&self, table: TpchTable, idx: usize, cols: &[usize]) -> Table {
        let range = self.unit_range(table, idx);
        let cap = match table {
            TpchTable::Lineitem => range.len() * 5,
            _ => range.len(),
        };
        let mut b = TableBuilder::with_capacity(project(&table.schema(), cols), cap);
        let out = Out::new(&mut b, cols);
        match table {
            TpchTable::Orders => self.append_orders_lineitem(range, Some(out), None),
            TpchTable::Lineitem => self.append_orders_lineitem(range, None, Some(out)),
            t => self.append_units(t, range, out),
        }
        b.finish()
    }

    /// Materialize a whole base table (the materializing generator's path).
    pub fn materialize(&self, table: TpchTable) -> Table {
        assert!(
            !matches!(table, TpchTable::Orders | TpchTable::Lineitem),
            "orders/lineitem are co-generated; use materialize_orders_lineitem"
        );
        let units = self.units(table);
        let mut b = TableBuilder::with_capacity(table.schema(), units);
        self.append_units(table, 0..units, Out::new(&mut b, &all_columns(table)));
        b.finish()
    }

    /// Materialize orders and lineitem in one co-generating pass.
    pub fn materialize_orders_lineitem(&self) -> (Table, Table) {
        let (orders, lineitem) = (TpchTable::Orders, TpchTable::Lineitem);
        let mut ob = TableBuilder::with_capacity(orders.schema(), self.orders);
        let mut lb = TableBuilder::with_capacity(lineitem.schema(), self.orders * 4);
        self.append_orders_lineitem(
            0..self.orders,
            Some(Out::new(&mut ob, &all_columns(orders))),
            Some(Out::new(&mut lb, &all_columns(lineitem))),
        );
        (ob.finish(), lb.finish())
    }

    /// Generate the units `range` of a base table into `out`.
    fn append_units(&self, table: TpchTable, range: Range<usize>, mut out: Out) {
        let mut buf = String::new();
        for u in range {
            let mut rng = unit_rng(self.seed, table, u as u64);
            match table {
                TpchTable::Region => {
                    out.i64(0, u as i64);
                    out.str(1, text::REGIONS[u]);
                    if out.wants(2) {
                        comment(&mut rng, Some(&mut buf));
                        out.str(2, &buf);
                    }
                }
                TpchTable::Nation => {
                    let (name, region) = text::NATIONS[u];
                    out.i64(0, u as i64);
                    out.str(1, name);
                    out.i64(2, region);
                    if out.wants(3) {
                        comment(&mut rng, Some(&mut buf));
                        out.str(3, &buf);
                    }
                }
                TpchTable::Supplier => {
                    self.supplier_row(&mut rng, u as i64 + 1, &mut out, &mut buf)
                }
                TpchTable::Part => self.part_row(&mut rng, u as i64 + 1, &mut out, &mut buf),
                TpchTable::Partsupp => {
                    // Unit u is the u-th partsupp row: part u/4, slot u%4.
                    let pk = (u / 4) as i64 + 1;
                    let i = (u % 4) as i64;
                    out.i64(0, pk);
                    out.i64(1, supp_for_part(pk, i, self.suppliers as i64));
                    if !out.needs_from(2) {
                        continue;
                    }
                    out.i32(2, rng.i32_range(1, 9_999));
                    out.dec(3, rng.i64_range(100, 100_000));
                    if out.wants(4) {
                        comment(&mut rng, Some(&mut buf));
                        out.str(4, &buf);
                    }
                }
                TpchTable::Customer => {
                    self.customer_row(&mut rng, u as i64 + 1, &mut out, &mut buf)
                }
                TpchTable::Orders | TpchTable::Lineitem => unreachable!(),
            }
        }
    }

    fn supplier_row(&self, rng: &mut Rng, k: i64, out: &mut Out, buf: &mut String) {
        out.i64(0, k);
        if out.wants(1) {
            buf.clear();
            let _ = write!(buf, "Supplier#{k:09}");
            out.str(1, buf);
        }
        if !out.needs_from(2) {
            return;
        }
        let nation = rng.u64_below(25) as i64;
        rng.alpha_string(10, 30, out.wants(2).then_some(&mut *buf));
        out.str(2, buf);
        out.i64(3, nation);
        if !out.needs_from(4) {
            return;
        }
        phone(rng, nation, out.wants(4).then_some(&mut *buf));
        out.str(4, buf);
        out.dec(5, rng.i64_range(-99_999, 999_999));
        if !out.wants(6) {
            return;
        }
        // Q16's pattern: the spec injects complaints into 5 per 10k suppliers.
        if rng.bool(0.0005) {
            out.str(6, "the slyly final Customer ironic Complaints sleep");
        } else {
            comment(rng, Some(buf));
            out.str(6, buf);
        }
    }

    fn part_row(&self, rng: &mut Rng, k: i64, out: &mut Out, buf: &mut String) {
        out.i64(0, k);
        out.dec(7, retail_price_cents(k));
        if !out.needs_from(1) {
            return;
        }
        // p_name: five distinct color words.
        let name = out.wants(1);
        buf.clear();
        let mut used = [usize::MAX; 5];
        for w in 0..5 {
            let mut idx;
            loop {
                idx = rng.u64_below(text::COLORS.len() as u64) as usize;
                if !used[..w].contains(&idx) {
                    break;
                }
            }
            used[w] = idx;
            if name {
                if w > 0 {
                    buf.push(' ');
                }
                buf.push_str(text::COLORS[idx]);
            }
        }
        out.str(1, buf);
        let mfgr = 1 + rng.u64_below(5);
        let brand = 1 + rng.u64_below(5);
        if out.wants(2) {
            buf.clear();
            let _ = write!(buf, "Manufacturer#{mfgr}");
            out.str(2, buf);
        }
        if out.wants(3) {
            buf.clear();
            let _ = write!(buf, "Brand#{mfgr}{brand}");
            out.str(3, buf);
        }
        let ptype = [
            *rng.pick::<&str>(&text::TYPE_S1),
            *rng.pick::<&str>(&text::TYPE_S2),
            *rng.pick::<&str>(&text::TYPE_S3),
        ];
        if out.wants(4) {
            buf.clear();
            let _ = write!(buf, "{} {} {}", ptype[0], ptype[1], ptype[2]);
            out.str(4, buf);
        }
        out.i32(5, rng.i32_range(1, 50));
        let container = [
            *rng.pick::<&str>(&text::CONTAINER_S1),
            *rng.pick::<&str>(&text::CONTAINER_S2),
        ];
        if out.wants(6) {
            buf.clear();
            let _ = write!(buf, "{} {}", container[0], container[1]);
            out.str(6, buf);
        }
        if out.wants(8) {
            comment(rng, Some(buf));
            out.str(8, buf);
        }
    }

    fn customer_row(&self, rng: &mut Rng, k: i64, out: &mut Out, buf: &mut String) {
        out.i64(0, k);
        if out.wants(1) {
            buf.clear();
            let _ = write!(buf, "Customer#{k:09}");
            out.str(1, buf);
        }
        if !out.needs_from(2) {
            return;
        }
        let nation = rng.u64_below(25) as i64;
        rng.alpha_string(10, 40, out.wants(2).then_some(&mut *buf));
        out.str(2, buf);
        out.i64(3, nation);
        if !out.needs_from(4) {
            return;
        }
        phone(rng, nation, out.wants(4).then_some(&mut *buf));
        out.str(4, buf);
        out.dec(5, rng.i64_range(-99_999, 999_999));
        out.str(6, rng.pick::<&str>(&text::SEGMENTS));
        if out.wants(7) {
            comment(rng, Some(buf));
            out.str(7, buf);
        }
    }

    /// Generate orders `range`, appending the requested order columns to
    /// `ob` and lineitem columns to `lb`. A unit draws in three stages: the
    /// head (`o_custkey`, `o_orderdate`), the lines (every lineitem value,
    /// and `o_orderstatus`/`o_totalprice` from them), then the trailer
    /// (`o_orderpriority`, `o_clerk`, `o_comment`). It stops after the last
    /// stage a requested value comes from: `o_orderkey` and
    /// `o_shippriority` draw nothing, and a lineitem-only stream skips the
    /// trailer. Within the lines every draw runs.
    fn append_orders_lineitem(
        &self,
        range: Range<usize>,
        mut ob: Option<Out>,
        mut lb: Option<Out>,
    ) {
        let o = |c| ob.as_ref().is_some_and(|ob| ob.wants(c));
        let trailer = o(5) || o(6) || o(8);
        let lines = trailer || o(2) || o(3) || lb.is_some();
        let head = lines || o(1) || o(4);
        let (clerk_col, order_comment) = (o(6), o(8));
        let line_comment = lb.as_ref().is_some_and(|lb| lb.wants(15));
        let (mut lbuf, mut obuf) = (String::new(), String::new());
        for u in range {
            let i = u as i64;
            // Sparse keys: 8 used out of every 32 consecutive values.
            let orderkey = (i / 8) * 32 + i % 8 + 1;
            if let Some(ob) = ob.as_mut() {
                ob.i64(0, orderkey);
                ob.i32(7, 0);
            }
            if !head {
                continue;
            }
            let mut rng = unit_rng(self.seed, TpchTable::Orders, u as u64);
            // A third of the customers place no orders (custkey % 3 == 0).
            let custkey = loop {
                let c = match &self.skew {
                    None => 1 + rng.u64_below(self.customers as u64) as i64,
                    Some(s) => 1 + s.cust_perm[(s.cust.sample(&mut rng) - 1) as usize] as i64,
                };
                if c % 3 != 0 || self.customers < 3 {
                    break c;
                }
            };
            let orderdate = rng.i32_range(self.date_lo, self.date_hi);
            if let Some(ob) = ob.as_mut() {
                ob.i64(1, custkey);
                ob.date(4, orderdate);
            }
            if !lines {
                continue;
            }

            let nlines = 1 + rng.u64_below(7) as i32;
            let mut total = 0i64;
            let mut any_open = false;
            let mut any_fulfilled = false;
            for ln in 1..=nlines {
                let partkey = match &self.skew {
                    None => 1 + rng.u64_below(self.parts as u64) as i64,
                    Some(s) => 1 + s.part_perm[(s.part.sample(&mut rng) - 1) as usize] as i64,
                };
                let suppkey =
                    supp_for_part(partkey, rng.u64_below(4) as i64, self.suppliers as i64);
                let qty = rng.i64_range(1, 50);
                let extprice = qty * retail_price_cents(partkey);
                let discount = rng.i64_range(0, 10); // 0.00 – 0.10
                let tax = rng.i64_range(0, 8);
                let shipdate = orderdate + rng.i32_range(1, 121);
                let commitdate = orderdate + rng.i32_range(30, 90);
                let receiptdate = shipdate + rng.i32_range(1, 30);
                let returnflag = if receiptdate <= self.current {
                    if rng.bool(0.5) {
                        "R"
                    } else {
                        "A"
                    }
                } else {
                    "N"
                };
                let linestatus = if shipdate > self.current { "O" } else { "F" };
                if linestatus == "O" {
                    any_open = true;
                } else {
                    any_fulfilled = true;
                }
                total += extprice * (100 - discount) / 100 * (100 + tax) / 100;

                // The line's last draws (instruction, mode, comment) run
                // whether or not lineitems are stored: the trailer draws
                // after them.
                let instruction = *rng.pick::<&str>(&text::INSTRUCTIONS);
                let mode = *rng.pick::<&str>(&text::MODES);
                comment(&mut rng, line_comment.then_some(&mut lbuf));
                if let Some(lb) = lb.as_mut() {
                    lb.i64(0, orderkey);
                    lb.i64(1, partkey);
                    lb.i64(2, suppkey);
                    lb.i32(3, ln);
                    lb.dec(4, qty * 100);
                    lb.dec(5, extprice);
                    lb.dec(6, discount);
                    lb.dec(7, tax);
                    lb.str(8, returnflag);
                    lb.str(9, linestatus);
                    lb.date(10, shipdate);
                    lb.date(11, commitdate);
                    lb.date(12, receiptdate);
                    lb.str(13, instruction);
                    lb.str(14, mode);
                    lb.str(15, &lbuf);
                }
            }
            let Some(ob) = ob.as_mut() else { continue };
            let status = match (any_open, any_fulfilled) {
                (true, false) => "O",
                (false, true) => "F",
                _ => "P",
            };
            ob.str(2, status);
            ob.dec(3, total);
            if !trailer {
                continue;
            }
            ob.str(5, rng.pick::<&str>(&text::PRIORITIES));
            let clerk = 1 + rng.u64_below(self.clerks as u64);
            if clerk_col {
                obuf.clear();
                let _ = write!(obuf, "Clerk#{clerk:09}");
                ob.str(6, &obuf);
            }
            comment(&mut rng, order_comment.then_some(&mut obuf));
            ob.str(8, &obuf);
        }
    }
}

/// A comment of 3–7 vocabulary words. The draws are the same whether or
/// not there is an `out`; the words are joined into it only if there is.
fn comment(rng: &mut Rng, mut out: Option<&mut String>) {
    let words = 3 + rng.u64_below(5);
    if let Some(s) = out.as_deref_mut() {
        s.clear();
    }
    for w in 0..words {
        let vocabulary: &[&str] = match w % 3 {
            0 => &text::ADVERBS,
            1 => &text::NOUNS,
            _ => &text::VERBS,
        };
        let word = *rng.pick(vocabulary);
        if let Some(s) = out.as_deref_mut() {
            if w > 0 {
                s.push(' ');
            }
            s.push_str(word);
        }
    }
}

/// A phone number for `nationkey`: three draws, formatted into `out` only
/// if there is one.
fn phone(rng: &mut Rng, nationkey: i64, out: Option<&mut String>) {
    let (a, b, c) = (
        100 + rng.u64_below(900),
        100 + rng.u64_below(900),
        1000 + rng.u64_below(9000),
    );
    if let Some(out) = out {
        out.clear();
        let _ = write!(out, "{}-{a:03}-{b:03}-{c:04}", 10 + nationkey);
    }
}

/// Every column of `table`, in schema order.
fn all_columns(table: TpchTable) -> Vec<usize> {
    (0..table.schema().len()).collect()
}

/// The schema of the columns `cols` of `schema`, in that order. A
/// projection names at least one column, each at most once.
fn project(schema: &Schema, cols: &[usize]) -> Schema {
    assert!(!cols.is_empty(), "a projection needs at least one column");
    for (i, c) in cols.iter().enumerate() {
        assert!(!cols[..i].contains(c), "column {c} projected twice");
    }
    Schema::new(cols.iter().map(|&c| schema.fields[c].clone()).collect())
}

/// The widest TPC-H table (lineitem) has 16 columns.
const MAX_COLS: usize = 16;
const NO_SLOT: u8 = u8::MAX;

/// Where one chunk's values go: for every schema column, its slot in the
/// builder of the projected columns, or none. Resolved once per chunk, so a
/// push is one table lookup, and a push to a column not asked for does
/// nothing. The generation routines test [`Out::wants`] before they format
/// a string and [`Out::needs_from`] before they draw the rest of a unit.
struct Out<'a> {
    b: &'a mut TableBuilder,
    slot: [u8; MAX_COLS],
    /// Bit `c` is set iff schema column `c` is requested.
    mask: u32,
}

impl<'a> Out<'a> {
    /// `cols` as checked by [`project`], which built `b`'s schema.
    fn new(b: &'a mut TableBuilder, cols: &[usize]) -> Out<'a> {
        let mut slot = [NO_SLOT; MAX_COLS];
        let mut mask = 0u32;
        for (i, &c) in cols.iter().enumerate() {
            slot[c] = i as u8;
            mask |= 1 << c;
        }
        Out { b, slot, mask }
    }

    #[inline]
    fn wants(&self, col: usize) -> bool {
        self.mask >> col & 1 != 0
    }

    /// Whether a column at schema index `col` or later is requested.
    #[inline]
    fn needs_from(&self, col: usize) -> bool {
        self.mask >> col != 0
    }

    #[inline]
    fn column(&mut self, col: usize) -> Option<&mut ColumnData> {
        match self.slot[col] {
            NO_SLOT => None,
            s => Some(self.b.column_mut(usize::from(s))),
        }
    }

    // Typed pushes (hot path: no Value boxing).

    fn i64(&mut self, col: usize, v: i64) {
        match self.column(col) {
            Some(ColumnData::Int64(c)) => c.push(v),
            None => {}
            Some(_) => unreachable!(),
        }
    }

    fn i32(&mut self, col: usize, v: i32) {
        match self.column(col) {
            Some(ColumnData::Int32(c)) => c.push(v),
            None => {}
            Some(_) => unreachable!(),
        }
    }

    fn dec(&mut self, col: usize, cents: i64) {
        match self.column(col) {
            Some(ColumnData::Decimal(c)) => c.push(cents),
            None => {}
            Some(_) => unreachable!(),
        }
    }

    fn date(&mut self, col: usize, days: i32) {
        match self.column(col) {
            Some(ColumnData::Date(c)) => c.push(days),
            None => {}
            Some(_) => unreachable!(),
        }
    }

    fn str(&mut self, col: usize, v: &str) {
        match self.column(col) {
            Some(ColumnData::Str(c)) => c.push(v),
            None => {}
            Some(_) => unreachable!(),
        }
    }
}

/// A [`Source`] that generates a TPC-H table on the fly, one chunk per
/// executor task. Plugged into the engine's pipelines it gets
/// morsel-stealing [`WorkerPool`](joinstudy_exec::pool::WorkerPool)
/// parallelism for free, and never holds more than the in-flight chunks.
pub struct StreamScan {
    gen: Arc<StreamGen>,
    table: TpchTable,
    /// Projected column indices (in output order).
    cols: Vec<usize>,
    chunks: usize,
}

impl StreamScan {
    pub fn new(gen: Arc<StreamGen>, table: TpchTable, cols: Vec<usize>) -> StreamScan {
        let chunks = gen.chunk_count(table);
        StreamScan {
            gen,
            table,
            cols,
            chunks,
        }
    }

    /// Stream projecting columns by name.
    pub fn by_names(gen: Arc<StreamGen>, table: TpchTable, names: &[&str]) -> StreamScan {
        let schema = table.schema();
        let cols = names.iter().map(|n| schema.index_of(n)).collect();
        StreamScan::new(gen, table, cols)
    }

    /// The schema of emitted batches.
    pub fn output_schema(&self) -> Schema {
        project(&self.table.schema(), &self.cols)
    }

    pub fn est_rows(&self) -> f64 {
        self.gen.est_rows(self.table)
    }

    pub fn label(&self) -> String {
        format!("stream {} sf={}", self.table.name(), self.gen.sf())
    }
}

impl Source for StreamScan {
    fn task_count(&self) -> usize {
        self.chunks
    }

    fn poll_task(&self, task: usize, out: Emit) -> ExecResult {
        let chunk = self.gen.chunk_cols(self.table, task, &self.cols);
        let rows = chunk.num_rows();
        metrics::add_source_rows(rows as u64);
        let mut start = 0usize;
        while start < rows {
            let end = (start + BATCH_ROWS).min(rows);
            let columns: Vec<ColumnData> = chunk
                .columns()
                .iter()
                .map(|c| slice_column(c, start, end))
                .collect();
            let batch = Batch::new(columns);
            if metrics::enabled() {
                let bytes: usize = batch.columns().iter().map(ColumnData::byte_size).sum();
                metrics::record_read(metrics::MemPhase::Other, bytes as u64);
            }
            out(batch);
            start = end;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_size_does_not_change_rows() {
        let a = StreamGen::new(0.001, 11).with_chunk_units(64);
        let b = StreamGen::new(0.001, 11).with_chunk_units(1000);
        for table in TABLES {
            let ta: Vec<Table> = (0..a.chunk_count(table))
                .map(|i| a.chunk(table, i))
                .collect();
            let tb: Vec<Table> = (0..b.chunk_count(table))
                .map(|i| b.chunk(table, i))
                .collect();
            let rows_a: usize = ta.iter().map(Table::num_rows).sum();
            let rows_b: usize = tb.iter().map(Table::num_rows).sum();
            assert_eq!(rows_a, rows_b, "{}", table.name());
        }
    }

    #[test]
    fn stream_scan_emits_all_units() {
        let gen = Arc::new(StreamGen::new(0.001, 3).with_chunk_units(100));
        let scan = StreamScan::by_names(gen.clone(), TpchTable::Customer, &["c_custkey"]);
        assert!(scan.task_count() > 1);
        let mut rows = 0usize;
        let mut keys = Vec::new();
        for t in 0..scan.task_count() {
            scan.poll_task(t, &mut |b: Batch| {
                rows += b.num_rows();
                keys.extend_from_slice(b.column(0).as_i64());
            })
            .unwrap();
        }
        assert_eq!(rows, gen.units(TpchTable::Customer));
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), rows, "customer keys must be unique");
    }
}
