//! The benchmark's own input generators.
//!
//! Everything a workload feeds the engine is made here from `--seed`: the
//! product crates receive finished tables and SQL text, never a seed-driven
//! generator of their own (the one exception is TPC-H, whose generator *is*
//! a product layer; `expected.json` pins its output instead). Keeping a
//! private RNG and Zipf sampler means a change to `storage::gen` cannot
//! silently reshape a micro workload.

use joinstudy_core::{JoinAlgo, JoinType, Plan};
use joinstudy_exec::ops::{AggFunc, AggSpec};
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::table::{Schema, Table, TableBuilder};
use joinstudy_storage::types::DataType;
use joinstudy_tpch::TpchData;
use std::collections::HashMap;
use std::sync::Arc;

/// SplitMix64 (Steele, Lea, Flood 2014): one multiply-xorshift chain per
/// draw, enough quality for shuffles and key draws, and bit-reproducible.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`. The multiply-shift reduction has a bias of
    /// at most `bound / 2^64`, irrelevant at benchmark domain sizes.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A Fisher-Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<i64> {
        let mut v: Vec<i64> = (0..n as i64).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

/// Zipf ranks in `[1, n]` with exponent `z > 0` by rejection-inversion
/// (Hörmann & Derflinger 1996): O(1) per draw and no CDF table, which is
/// what keeps `micro_zipf`'s set-up from dominating its run.
pub struct Zipf {
    n: f64,
    z: f64,
    h_x1: f64,
    h_n: f64,
    s: f64,
}

impl Zipf {
    pub fn new(n: usize, z: f64) -> Zipf {
        assert!(n > 0 && z > 0.0, "Zipf needs a non-empty domain and z > 0");
        let mut zipf = Zipf {
            n: n as f64,
            z,
            h_x1: 0.0,
            h_n: 0.0,
            s: 0.0,
        };
        zipf.h_x1 = zipf.h_int(1.5) - 1.0;
        zipf.h_n = zipf.h_int(zipf.n + 0.5);
        zipf.s = 2.0 - zipf.h_int_inv(zipf.h_int(2.5) - zipf.h(2.0));
        zipf
    }

    /// The hat function `x^-z`.
    fn h(&self, x: f64) -> f64 {
        (-self.z * x.ln()).exp()
    }

    /// Its integral `(x^(1-z) - 1) / (1 - z)`, which is `ln x` at `z = 1`.
    fn h_int(&self, x: f64) -> f64 {
        let t = (1.0 - self.z) * x.ln();
        let expm1_over_t = if t.abs() > 1e-8 {
            t.exp_m1() / t
        } else {
            1.0 + t / 2.0 * (1.0 + t / 3.0)
        };
        expm1_over_t * x.ln()
    }

    fn h_int_inv(&self, y: f64) -> f64 {
        let t = (y * (1.0 - self.z)).max(-1.0);
        let ln1p_over_t = if t.abs() > 1e-8 {
            t.ln_1p() / t
        } else {
            1.0 - t / 2.0 * (1.0 - 2.0 * t / 3.0)
        };
        (ln1p_over_t * y).exp()
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        loop {
            let u = self.h_n + rng.unit() * (self.h_x1 - self.h_n);
            let x = self.h_int_inv(u);
            let k = x.clamp(1.0, self.n).round();
            if k - x <= self.s || u >= self.h_int(k + 0.5) - self.h(k) {
                return k as usize;
            }
        }
    }
}

/// How probe keys relate to the dense build key domain `0..build_rows`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeKeys {
    /// Every probe key has exactly one partner (Workload A).
    UniformFk,
    /// This share of probe keys has a partner; the rest fall outside the
    /// build domain (Fig 14).
    Selectivity(f64),
    /// Zipf over the build domain, ranks mapped through a permutation so
    /// the hot keys are not the small ones (Fig 17).
    Zipf(f64),
}

/// Shape of one Workload-A' join pair: 8 B key + 8 B payload on the build
/// side, 8 B key + `payload_cols` x 8 B on the probe side.
#[derive(Debug, Clone, Copy)]
pub struct MicroSpec {
    pub build_rows: usize,
    pub probe_rows: usize,
    pub payload_cols: usize,
    pub keys: ProbeKeys,
}

/// The generated pair, with the join's answer as the generator knows it.
pub struct Micro {
    pub spec: MicroSpec,
    pub build: Arc<Table>,
    pub probe: Arc<Table>,
    /// Probe rows that have a partner: the `count(*)` of the join.
    pub matches: i64,
    /// `sum(p1)` over those rows (0 without payload columns).
    pub p1_sum: i64,
}

pub fn micro_tables(spec: MicroSpec, seed: u64) -> Micro {
    let mut rng = SplitMix64::new(seed);
    let n = spec.build_rows;

    let keys = rng.permutation(n);
    let build_schema = Schema::of(&[("bk", DataType::Int64), ("bp", DataType::Int64)]);
    let mut bb = TableBuilder::with_capacity(build_schema, n);
    *bb.column_mut(1) = ColumnData::Int64(keys.iter().map(|k| k ^ 0x5bd1).collect());
    *bb.column_mut(0) = ColumnData::Int64(keys);

    let pk: Vec<i64> = match spec.keys {
        ProbeKeys::UniformFk => (0..spec.probe_rows)
            .map(|_| rng.below(n as u64) as i64)
            .collect(),
        ProbeKeys::Selectivity(share) => (0..spec.probe_rows)
            .map(|_| {
                let inside = rng.unit() < share;
                let k = rng.below(n as u64) as i64;
                if inside {
                    k
                } else {
                    k + n as i64
                }
            })
            .collect(),
        ProbeKeys::Zipf(z) => {
            let zipf = Zipf::new(n, z);
            let rank_to_key = rng.permutation(n);
            (0..spec.probe_rows)
                .map(|_| rank_to_key[zipf.sample(&mut rng) - 1])
                .collect()
        }
    };

    let names: Vec<String> = (1..=spec.payload_cols).map(|i| format!("p{i}")).collect();
    let mut fields = vec![("pk", DataType::Int64)];
    fields.extend(names.iter().map(|n| (n.as_str(), DataType::Int64)));
    let mut pb = TableBuilder::with_capacity(Schema::of(&fields), spec.probe_rows);
    let mut p1_sum = 0i64;
    for c in 1..=spec.payload_cols {
        // 40-bit payloads: wide enough to be incompressible, small enough
        // that a 16 Mi-row sum stays far inside an i64.
        let col: Vec<i64> = (0..spec.probe_rows)
            .map(|_| (rng.next_u64() >> 24) as i64)
            .collect();
        if c == 1 {
            p1_sum = col
                .iter()
                .zip(&pk)
                .filter(|(_, &k)| (k as usize) < n)
                .map(|(v, _)| v)
                .sum();
        }
        *pb.column_mut(c) = ColumnData::Int64(col);
    }
    let matches = pk.iter().filter(|&&k| (k as usize) < n).count() as i64;
    *pb.column_mut(0) = ColumnData::Int64(pk);

    Micro {
        spec,
        build: Arc::new(bb.finish()),
        probe: Arc::new(pb.finish()),
        matches,
        p1_sum,
    }
}

impl Micro {
    /// The same build side with only the first `rows` probe rows, and the
    /// answers recomputed for them.
    pub fn probe_prefix(&self, rows: usize) -> Micro {
        let rows = rows.min(self.spec.probe_rows);
        let n = self.spec.build_rows;
        let cols: Vec<ColumnData> = self
            .probe
            .columns()
            .iter()
            .map(|c| ColumnData::Int64(c.as_i64()[..rows].to_vec()))
            .collect();
        let matched = |k: &i64| (*k as usize) < n;
        let matches = cols[0].as_i64().iter().filter(|k| matched(k)).count() as i64;
        let p1_sum = match cols.get(1) {
            Some(p1) => p1
                .as_i64()
                .iter()
                .zip(cols[0].as_i64())
                .filter(|(_, k)| matched(k))
                .map(|(v, _)| v)
                .sum(),
            None => 0,
        };
        Micro {
            spec: MicroSpec {
                probe_rows: rows,
                ..self.spec
            },
            build: Arc::clone(&self.build),
            probe: Arc::new(Table::new(self.probe.schema().clone(), cols)),
            matches,
            p1_sum,
        }
    }

    /// `SELECT count(*) FROM probe, build WHERE pk = bk`, or with payload
    /// columns `SELECT count(*), sum(p1) ...` with every payload column
    /// carried through the join (early materialization, the paper's 5.4.2).
    pub fn plan(&self, algo: JoinAlgo) -> Plan {
        let names: Vec<String> = (1..=self.spec.payload_cols)
            .map(|i| format!("p{i}"))
            .collect();
        let mut probe_cols = vec!["pk"];
        probe_cols.extend(names.iter().map(String::as_str));
        let joined = Plan::scan(&self.build, &["bk"], None).join(
            Plan::scan(&self.probe, &probe_cols, None),
            algo,
            JoinType::Inner,
            &[0],
            &[0],
        );
        let mut aggs = vec![AggSpec::new(AggFunc::CountStar, 0, "cnt")];
        if self.spec.payload_cols > 0 {
            let p1 = joined.schema().index_of("p1");
            aggs.push(AggSpec::new(AggFunc::Sum, p1, "s"));
        }
        joined.aggregate(&[], aggs)
    }

    /// Whether a result of [`Micro::plan`] is the generator's answer.
    pub fn check(&self, result: &Table) -> bool {
        result.num_rows() == 1
            && result.column(0).as_i64()[0] == self.matches
            && (self.spec.payload_cols == 0 || result.column(1).as_i64()[0] == self.p1_sum)
    }
}

/// Tables the statement mix reads, in registration order.
pub const TPCH_TABLES: [&str; 8] = [
    "region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem",
];

/// The catalog `plan_select` resolves the mix's table names against.
pub fn tpch_catalog(data: &TpchData) -> HashMap<String, Arc<Table>> {
    TPCH_TABLES
        .iter()
        .map(|name| (name.to_string(), Arc::clone(data.table(name))))
        .collect()
}

/// The six-statement serving mix (aggregate, scan-aggregate, two-way joins
/// small and large, the three-way Q3 shape). Clients rotate through it
/// starting at their own index, so both clients never run the same
/// statement in lock-step.
pub const MIX: [&str; 6] = [
    "SELECT o_orderpriority, count(*) FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority",
    "SELECT count(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey",
    "SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_shipdate > DATE '1995-03-15'",
    "SELECT count(*) FROM supplier, nation WHERE s_nationkey = n_nationkey",
    "SELECT o_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue \
     FROM customer, orders, lineitem \
     WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey \
     AND o_orderdate < DATE '1995-03-15' AND l_shipdate > DATE '1995-03-15' \
     GROUP BY o_orderkey ORDER BY revenue DESC, o_orderkey LIMIT 5",
    "SELECT n_name, count(*) FROM customer, nation WHERE c_nationkey = n_nationkey \
     GROUP BY n_name ORDER BY n_name",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tables() {
        let spec = MicroSpec {
            build_rows: 1000,
            probe_rows: 5000,
            payload_cols: 2,
            keys: ProbeKeys::Zipf(1.0),
        };
        let (a, b) = (micro_tables(spec, 7), micro_tables(spec, 7));
        assert_eq!(a.probe.column(0).as_i64(), b.probe.column(0).as_i64());
        assert_eq!(a.p1_sum, b.p1_sum);
        let c = micro_tables(spec, 8);
        assert_ne!(a.probe.column(0).as_i64(), c.probe.column(0).as_i64());
    }

    #[test]
    fn selectivity_sets_the_match_share() {
        let spec = MicroSpec {
            build_rows: 2000,
            probe_rows: 100_000,
            payload_cols: 0,
            keys: ProbeKeys::Selectivity(0.05),
        };
        let m = micro_tables(spec, 3);
        let share = m.matches as f64 / spec.probe_rows as f64;
        assert!((share - 0.05).abs() < 0.005, "match share {share}");
    }

    #[test]
    fn zipf_one_is_heavy_headed_and_in_range() {
        let n = 10_000;
        let zipf = Zipf::new(n, 1.0);
        let mut rng = SplitMix64::new(11);
        let draws = 200_000;
        let mut first = 0usize;
        for _ in 0..draws {
            let k = zipf.sample(&mut rng);
            assert!((1..=n).contains(&k));
            first += usize::from(k == 1);
        }
        // P(rank 1) = 1 / H_n; H_10000 = 9.7876.
        let share = first as f64 / draws as f64;
        assert!((share - 1.0 / 9.7876).abs() < 0.005, "rank-1 share {share}");
    }
}
