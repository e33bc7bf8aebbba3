//! Deterministic TPC-H data generator.
//!
//! Follows the TPC-H 2.18 specification's schemas, cardinalities, key
//! structure and value distributions, with a float scale factor so tests
//! can run at SF 0.01 while benchmarks use SF 0.1–1+ (DESIGN.md §1 records
//! this substitution). Everything join-relevant is spec-faithful:
//!
//! * table cardinality ratios (10k suppliers : 200k parts : 800k partsupp :
//!   150k customers : 1.5M orders : ~6M lineitems per SF 1),
//! * sparse order keys (8 of every 32 key values used),
//! * one third of customers without orders,
//! * `l_suppkey`/`ps_suppkey` generated with the spec formula so every
//!   lineitem `(partkey, suppkey)` pair exists in partsupp (Q9's join),
//! * retail-price formula, date correlations (`commit`/`receipt`/`ship`),
//!   and the categorical vocabularies the query predicates select on.
//!
//! Comments are drawn from a compact vocabulary rather than the spec
//! grammar; the only query-visible pattern — `%Customer%Complaints%` in
//! supplier comments (Q16) — is injected at the spec's expected frequency.
//!
//! Since the streaming generator landed ([`crate::stream`]), this module is
//! a thin materializing facade: all row generation lives in per-unit-seeded
//! chunk code shared with the constant-memory streaming path.

use crate::stream::{StreamGen, TpchTable};
use joinstudy_exec::{Executor, QueryContext};
use joinstudy_storage::table::{Table, TableBuilder};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// The eight TPC-H relations plus generation metadata.
pub struct TpchData {
    pub sf: f64,
    pub region: Arc<Table>,
    pub nation: Arc<Table>,
    pub supplier: Arc<Table>,
    pub part: Arc<Table>,
    pub partsupp: Arc<Table>,
    pub customer: Arc<Table>,
    pub orders: Arc<Table>,
    pub lineitem: Arc<Table>,
}

impl TpchData {
    /// Total data set size in bytes.
    pub fn byte_size(&self) -> usize {
        self.region.byte_size()
            + self.nation.byte_size()
            + self.supplier.byte_size()
            + self.part.byte_size()
            + self.partsupp.byte_size()
            + self.customer.byte_size()
            + self.orders.byte_size()
            + self.lineitem.byte_size()
    }

    /// Look up a table by its TPC-H name.
    pub fn table(&self, name: &str) -> &Arc<Table> {
        match name {
            "region" => &self.region,
            "nation" => &self.nation,
            "supplier" => &self.supplier,
            "part" => &self.part,
            "partsupp" => &self.partsupp,
            "customer" => &self.customer,
            "orders" => &self.orders,
            "lineitem" => &self.lineitem,
            other => panic!("unknown TPC-H table {other:?}"),
        }
    }
}

/// Row counts at scale factor `sf`.
pub fn cardinalities(sf: f64) -> (usize, usize, usize, usize) {
    let suppliers = ((10_000.0 * sf) as usize).max(10);
    let parts = ((200_000.0 * sf) as usize).max(200);
    let customers = ((150_000.0 * sf) as usize).max(150);
    let orders = customers * 10;
    (suppliers, parts, customers, orders)
}

/// The spec's supplier-for-part formula: supplier `i ∈ 0..4` of part `pk`
/// (1-based keys). Guarantees lineitem ⋈ partsupp referential integrity.
pub fn supp_for_part(pk: i64, i: i64, supplier_count: i64) -> i64 {
    let s = supplier_count;
    (pk + i * (s / 4 + (pk - 1) / s)) % s + 1
}

/// Retail price of a part in cents (spec formula).
pub fn retail_price_cents(pk: i64) -> i64 {
    90_000 + (pk / 10) % 20_001 + 100 * (pk % 1_000)
}

/// Generate the full data set at scale factor `sf`, deterministically from
/// `seed`.
pub fn generate(sf: f64, seed: u64) -> TpchData {
    materialize(StreamGen::new(sf, seed))
}

/// Generate with Zipf-skewed foreign keys (`o_custkey`, `l_partkey` drawn
/// Zipf(z) over permuted key domains) — a JCC-H-flavoured variant that
/// preserves referential integrity (the `(l_partkey, l_suppkey)` pairs are
/// still derived with the spec formula). Footnote 11 of the paper.
pub fn generate_skewed(sf: f64, seed: u64, zipf: f64) -> TpchData {
    materialize(StreamGen::skewed(sf, seed, zipf))
}

/// Orders per orders+lineitem task of [`materialize`]: few rows in flight.
const TASK_UNITS: usize = 1024;

/// One materializing pass over the chunk generator — the streaming and
/// materializing paths are literally the same code, so SF-for-SF they
/// produce identical rows (asserted in `tests/stream_determinism.rs`).
/// One pipeline: a task per [`TASK_UNITS`] orders and their lineitems,
/// then one per base table, largest first. Tasks are claimed in order, so
/// a chunk waits only for chunks being generated, and is appended and
/// dropped in its turn: at most one chunk per worker is held.
fn materialize(gen: StreamGen) -> TpchData {
    use TpchTable::*;
    let gen = gen.with_chunk_units(TASK_UNITS);
    let others = [Partsupp, Part, Customer, Supplier, Nation, Region];
    let made: [Mutex<Option<Table>>; 6] = Default::default();
    let units = gen.units(Orders);
    let reserve = |t: TpchTable, rows| TableBuilder::with_capacity(t.schema(), rows);
    let tables = Mutex::new((0, [reserve(Orders, units), reserve(Lineitem, units * 4)]));
    let turn = Condvar::new();
    let chunks = gen.chunk_count(Orders);
    let task = |idx: usize| {
        if let Some(t) = idx.checked_sub(chunks) {
            *made[t].lock().unwrap() = Some(gen.materialize(others[t]));
            return Ok(());
        }
        // A chunk that fails still takes its turn, so no later one waits
        // for it; its panic then poisons the tables for them.
        let range = gen.unit_range(Orders, idx);
        let chunk = panic::catch_unwind(AssertUnwindSafe(|| gen.orders_lineitem(range)));
        let mut next = turn
            .wait_while(tables.lock().unwrap(), |(n, _)| *n != idx)
            .unwrap();
        next.0 += 1;
        turn.notify_all();
        let (orders, lineitem) = chunk.unwrap_or_else(|p| panic::resume_unwind(p));
        for (to, from) in next.1.iter_mut().zip([orders, lineitem]) {
            for (c, col) in from.columns().iter().enumerate() {
                to.column_mut(c).append(col);
            }
        }
        Ok(())
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tasks = chunks + others.len();
    let ctx = QueryContext::unbounded();
    let pass = Executor::new(threads).run_tasks(&ctx, "tpch generate".into(), tasks, task);
    pass.expect("generation runs no fallible step");
    let [partsupp, part, customer, supplier, nation, region] =
        made.map(|m| Arc::new(m.into_inner().unwrap().expect("every task ran")));
    let [orders, lineitem] = tables.into_inner().unwrap().1.map(|b| Arc::new(b.finish()));
    TpchData {
        sf: gen.sf(),
        region,
        nation,
        supplier,
        part,
        partsupp,
        customer,
        orders,
        lineitem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TpchData {
        generate(0.01, 42)
    }

    #[test]
    fn cardinalities_scale() {
        let d = small();
        assert_eq!(d.region.num_rows(), 5);
        assert_eq!(d.nation.num_rows(), 25);
        assert_eq!(d.supplier.num_rows(), 100);
        assert_eq!(d.part.num_rows(), 2000);
        assert_eq!(d.partsupp.num_rows(), 8000);
        assert_eq!(d.customer.num_rows(), 1500);
        assert_eq!(d.orders.num_rows(), 15_000);
        // 1–7 lineitems per order, average 4.
        let l = d.lineitem.num_rows();
        assert!((45_000..=75_000).contains(&l), "lineitem rows: {l}");
    }

    /// The parallel pass appends its chunks into the serial pass's tables,
    /// row for row.
    #[test]
    fn parallel_generation_matches_the_serial_pass() {
        let gen = StreamGen::new(0.01, 7);
        let units = gen.units(TpchTable::Orders);
        assert!(units > 4 * TASK_UNITS, "several chunks");
        let (orders, lineitem) = gen.orders_lineitem(0..units);
        let partsupp = gen.materialize(TpchTable::Partsupp);
        let d = generate(0.01, 7);
        for (serial, parallel) in [
            (&orders, &d.orders),
            (&lineitem, &d.lineitem),
            (&partsupp, &d.partsupp),
        ] {
            assert_eq!(serial.num_rows(), parallel.num_rows());
            for r in 0..serial.num_rows() {
                assert_eq!(serial.row(r), parallel.row(r), "row {r}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(0.01, 7);
        let b = generate(0.01, 7);
        assert_eq!(a.lineitem.num_rows(), b.lineitem.num_rows());
        assert_eq!(
            a.lineitem.column_by_name("l_partkey").as_i64()[..100],
            b.lineitem.column_by_name("l_partkey").as_i64()[..100]
        );
        let c = generate(0.01, 8);
        assert_ne!(
            a.lineitem.column_by_name("l_partkey").as_i64()[..100],
            c.lineitem.column_by_name("l_partkey").as_i64()[..100]
        );
    }

    #[test]
    fn referential_integrity_lineitem_partsupp() {
        // Every (l_partkey, l_suppkey) must exist in partsupp (Q9's join).
        let d = small();
        let ps_pk = d.partsupp.column_by_name("ps_partkey").as_i64();
        let ps_sk = d.partsupp.column_by_name("ps_suppkey").as_i64();
        let pairs: std::collections::HashSet<(i64, i64)> =
            ps_pk.iter().zip(ps_sk).map(|(&p, &s)| (p, s)).collect();
        let l_pk = d.lineitem.column_by_name("l_partkey").as_i64();
        let l_sk = d.lineitem.column_by_name("l_suppkey").as_i64();
        for (i, (&p, &s)) in l_pk.iter().zip(l_sk).enumerate().step_by(97) {
            assert!(
                pairs.contains(&(p, s)),
                "lineitem {i}: ({p},{s}) not in partsupp"
            );
            let _ = i;
        }
    }

    #[test]
    fn orders_skip_every_third_customer() {
        let d = small();
        let custkeys = d.orders.column_by_name("o_custkey").as_i64();
        assert!(custkeys.iter().all(|&c| c % 3 != 0));
        assert!(custkeys.iter().all(|&c| (1..=1500).contains(&c)));
    }

    #[test]
    fn order_keys_are_sparse_and_unique() {
        let d = small();
        let mut keys = d.orders.column_by_name("o_orderkey").as_i64().to_vec();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), d.orders.num_rows(), "order keys must be unique");
        // Sparse: max key ≈ 4 × count.
        let max = *keys.last().unwrap();
        assert!(max > 3 * keys.len() as i64, "keys not sparse: max {max}");
    }

    #[test]
    fn date_correlations_hold() {
        let d = small();
        let ship = d.lineitem.column_by_name("l_shipdate").as_i32();
        let receipt = d.lineitem.column_by_name("l_receiptdate").as_i32();
        let odate_by_key: std::collections::HashMap<i64, i32> = {
            let keys = d.orders.column_by_name("o_orderkey").as_i64();
            let dates = d.orders.column_by_name("o_orderdate").as_i32();
            keys.iter().zip(dates).map(|(&k, &v)| (k, v)).collect()
        };
        let l_ok = d.lineitem.column_by_name("l_orderkey").as_i64();
        for i in (0..d.lineitem.num_rows()).step_by(101) {
            assert!(receipt[i] > ship[i], "receipt must follow ship");
            let od = odate_by_key[&l_ok[i]];
            assert!(ship[i] > od && ship[i] <= od + 121);
        }
    }

    #[test]
    fn retail_price_formula_matches_spec() {
        assert_eq!(retail_price_cents(1), 90_000 + 100);
        assert_eq!(retail_price_cents(1000), (90_000 + 100));
        let d = small();
        let pk = d.part.column_by_name("p_partkey").as_i64();
        let price = d.part.column_by_name("p_retailprice").as_i64();
        for i in (0..pk.len()).step_by(37) {
            assert_eq!(price[i], retail_price_cents(pk[i]));
        }
    }

    #[test]
    fn lineitem_prices_match_part_prices() {
        let d = small();
        let l_pk = d.lineitem.column_by_name("l_partkey").as_i64();
        let qty = d.lineitem.column_by_name("l_quantity").as_i64();
        let ext = d.lineitem.column_by_name("l_extendedprice").as_i64();
        for i in (0..l_pk.len()).step_by(53) {
            assert_eq!(ext[i], (qty[i] / 100) * retail_price_cents(l_pk[i]));
        }
    }

    #[test]
    fn query_predicate_vocabulary_present() {
        let d = small();
        // Q9/Q20 rely on color words; Q16 on the complaints pattern shape;
        // Q12 on ship modes; Q3 on segments.
        let names = d.part.column_by_name("p_name").as_str();
        let green = (0..names.len())
            .filter(|&i| names.get(i).contains("green"))
            .count();
        assert!(green > 0, "no green parts generated");
        let forest = (0..names.len())
            .filter(|&i| names.get(i).starts_with("forest"))
            .count();
        assert!(forest > 0, "no forest-prefixed parts generated");
        let types = d.part.column_by_name("p_type").as_str();
        assert!((0..types.len()).any(|i| types.get(i).ends_with("BRASS")));
        let seg = d.customer.column_by_name("c_mktsegment").as_str();
        assert!((0..seg.len()).any(|i| seg.get(i) == "BUILDING"));
    }

    #[test]
    fn supp_for_part_stays_in_range() {
        for pk in 1..=1000i64 {
            for i in 0..4 {
                let s = supp_for_part(pk, i, 100);
                assert!((1..=100).contains(&s), "supp {s} for part {pk}");
            }
        }
    }
}

#[cfg(test)]
mod skew_tests {
    use super::*;

    #[test]
    fn skewed_generation_preserves_integrity() {
        let d = generate_skewed(0.01, 42, 1.5);
        // Referential integrity must survive the skew.
        let ps_pk = d.partsupp.column_by_name("ps_partkey").as_i64();
        let ps_sk = d.partsupp.column_by_name("ps_suppkey").as_i64();
        let pairs: std::collections::HashSet<(i64, i64)> =
            ps_pk.iter().zip(ps_sk).map(|(&p, &s)| (p, s)).collect();
        let l_pk = d.lineitem.column_by_name("l_partkey").as_i64();
        let l_sk = d.lineitem.column_by_name("l_suppkey").as_i64();
        for (&p, &s) in l_pk.iter().zip(l_sk).step_by(101) {
            assert!(pairs.contains(&(p, s)));
        }
        let custkeys = d.orders.column_by_name("o_custkey").as_i64();
        assert!(custkeys
            .iter()
            .all(|&c| c % 3 != 0 && (1..=1500).contains(&c)));
    }

    #[test]
    fn skew_concentrates_foreign_keys() {
        let uniform = generate(0.01, 7);
        let skewed = generate_skewed(0.01, 7, 1.5);
        let hottest = |t: &Table, col: &str| -> usize {
            let mut counts = std::collections::HashMap::new();
            for &k in t.column_by_name(col).as_i64() {
                *counts.entry(k).or_insert(0usize) += 1;
            }
            counts.values().max().copied().unwrap_or(0)
        };
        let hot_u = hottest(&uniform.lineitem, "l_partkey");
        let hot_s = hottest(&skewed.lineitem, "l_partkey");
        assert!(
            hot_s > hot_u * 10,
            "skewed hottest part {hot_s} vs uniform {hot_u}"
        );
    }
}
