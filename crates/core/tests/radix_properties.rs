//! Property tests on the radix machinery: partitioning is a
//! hash-consistent permutation under arbitrary configurations; the Bloom
//! filter never loses a key; the row layout round-trips arbitrary values;
//! the partition-wise join matches a hash-map reference.

use joinstudy_core::bloom::BlockedBloom;
use joinstudy_core::hash::hash_u64;
use joinstudy_core::hybrid::largest_resident;
use joinstudy_core::radix::{
    partition_of, ClosedSet, Eviction, PartitionSink, PartitionedSide, PhaseSet, RadixConfig,
};
use joinstudy_core::row::{RowLayout, StrHeap};
use joinstudy_core::spill::SpillDir;
use joinstudy_exec::batch::BatchBuilder;
use joinstudy_exec::pipeline::Sink;
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::types::{DataType, Value};
use proptest::prelude::*;
use std::collections::HashMap;

fn partition(values: &[i64], cfg: RadixConfig, bits2: u32) -> PartitionedSide {
    let layout = RowLayout::new(&[DataType::Int64], false);
    let sink = PartitionSink::new(layout, vec![0], cfg, PhaseSet::build());
    feed_and_finalize(&sink, values, Some(bits2))
}

fn feed_and_finalize(sink: &PartitionSink, values: &[i64], bits2: Option<u32>) -> PartitionedSide {
    let mut local = sink.create_local();
    for chunk in values.chunks(1024) {
        let mut bb = BatchBuilder::new(vec![DataType::Int64]);
        *bb.column_mut(0) = ColumnData::Int64(chunk.to_vec());
        bb.advance(chunk.len());
        sink.consume(&mut local, bb.flush().unwrap()).unwrap();
    }
    sink.finish_local(local).unwrap();
    sink.finalize(1, bits2, false).unwrap().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No budget ⇒ RJ: the hybrid join's evicting sink, when nothing ever
    /// refuses its lease, lays out byte for byte what the plain sink does,
    /// picks the same pass-2 fan-out, and touches no file.
    #[test]
    fn evicting_sink_without_a_budget_is_the_plain_sink(
        values in prop::collection::vec(any::<i64>(), 0..6000),
        bits1 in 1u32..7,
        target_kib in 1usize..64,
    ) {
        let cfg = RadixConfig {
            bits_pass1: bits1,
            target_partition_bytes: target_kib * 1024,
            ..RadixConfig::default()
        };
        let layout = || RowLayout::new(&[DataType::Int64], false);
        let plain = PartitionSink::new(layout(), vec![0], cfg, PhaseSet::build());
        let plain = feed_and_finalize(&plain, &values, None);

        let base = std::env::temp_dir().join(format!("joinstudy-norj-{}", std::process::id()));
        let dir = SpillDir::create(Some(base.clone())).unwrap();
        let evicting = PartitionSink::new(layout(), vec![0], cfg, PhaseSet::build())
            .with_eviction(Eviction {
                closed: ClosedSet::new(1 << bits1),
                dir: std::sync::Arc::clone(&dir),
                tag: "build".into(),
                worker_cap: usize::MAX,
                write_buf: 4096,
                victim: largest_resident,
            });
        let side = feed_and_finalize(&evicting, &values, None);

        prop_assert_eq!(side.bits2(), plain.bits2());
        prop_assert_eq!(side.num_partitions(), plain.num_partitions());
        for p in 0..side.num_partitions() {
            prop_assert_eq!(side.partition_row_range(p), plain.partition_row_range(p));
        }
        prop_assert_eq!(side.data_bytes(), plain.data_bytes());
        prop_assert_eq!(evicting.spilled_partitions(), 0);
        prop_assert!(evicting.take_runs().unwrap().iter().all(Option::is_none));
        prop_assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 0);
        drop(dir);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn partitioning_is_hash_consistent_permutation(
        values in prop::collection::vec(any::<i64>(), 0..4000),
        bits1 in 1u32..7,
        bits2 in 0u32..4,
        use_swwcb: bool,
        use_nt: bool,
    ) {
        let cfg = RadixConfig {
            bits_pass1: bits1,
            use_swwcb,
            use_nt_stores: use_nt,
            ..RadixConfig::default()
        };
        let side = partition(&values, cfg, bits2);
        prop_assert_eq!(side.total_rows(), values.len());
        let stride = side.layout().stride();
        let data = side.data_bytes();
        let mut got = Vec::new();
        for p in 0..side.num_partitions() {
            for r in side.partition_row_range(p) {
                let row = &data[r * stride..(r + 1) * stride];
                let h = side.layout().read_hash(row);
                let v = joinstudy_core::row::read_u64(row, side.layout().col_offset(0)) as i64;
                prop_assert_eq!(h, hash_u64(v as u64));
                prop_assert_eq!(partition_of(h, side.bits1(), side.bits2()), p);
                got.push(v);
            }
        }
        let mut want = values.clone();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bloom_never_loses_inserted_keys(
        keys in prop::collection::vec(any::<u64>(), 1..2000),
        parts_log in 0u32..8,
    ) {
        let parts = 1usize << parts_log;
        let bloom = BlockedBloom::new(parts, keys.len());
        for &k in &keys {
            let h = hash_u64(k);
            bloom.insert(h as usize & (parts - 1), h);
        }
        for &k in &keys {
            let h = hash_u64(k);
            prop_assert!(bloom.contains(h as usize & (parts - 1), h));
        }
    }

    #[test]
    fn row_layout_roundtrips_arbitrary_values(
        rows in prop::collection::vec(
            (any::<i64>(), any::<i32>(), "[a-z]{0,12}", any::<bool>()),
            1..64
        )
    ) {
        let types = [DataType::Int64, DataType::Int32, DataType::Str, DataType::Bool];
        let layout = RowLayout::new(&types, false);
        let mut bb = BatchBuilder::new(types.to_vec());
        for (a, b, s, f) in &rows {
            bb.push_row(&[
                Value::Int64(*a),
                Value::Int32(*b),
                Value::Str(s.clone()),
                Value::Bool(*f),
            ]);
        }
        let batch = bb.flush().unwrap();
        let stride = layout.stride();
        let mut data = vec![0u8; stride * rows.len()];
        let mut heap = StrHeap::new();
        for r in 0..rows.len() {
            layout.encode_row(
                &mut data[r * stride..r * stride + layout.width()],
                hash_u64(r as u64),
                &batch,
                r,
                &mut heap,
                0,
            );
        }
        let heaps = vec![heap];
        let offsets: Vec<usize> = (0..rows.len()).map(|r| r * stride).collect();
        for (c, &t) in types.iter().enumerate() {
            let mut out = ColumnData::new(t);
            layout.decode_column_into(&data, &offsets, c, &heaps, &mut out);
            for r in 0..rows.len() {
                prop_assert_eq!(out.value(r), batch.value(c, r), "col {} row {}", c, r);
            }
        }
    }

    #[test]
    fn engine_inner_join_matches_hashmap_reference(
        build in prop::collection::vec((-16i64..16, any::<i16>()), 0..300),
        probe in prop::collection::vec(-16i64..16, 0..600),
    ) {
        use joinstudy_core::{Engine, JoinAlgo, JoinType, Plan};
        use joinstudy_exec::ops::{AggFunc, AggSpec};
        use joinstudy_storage::table::{Schema, TableBuilder};

        let mut counts: HashMap<i64, usize> = HashMap::new();
        for (k, _) in &build {
            *counts.entry(*k).or_default() += 1;
        }
        let expected: usize = probe.iter().map(|k| counts.get(k).copied().unwrap_or(0)).sum();

        let schema = Schema::of(&[("k", DataType::Int64)]);
        let mut bt = TableBuilder::new(schema.clone());
        for (k, _) in &build {
            bt.push_row(&[Value::Int64(*k)]);
        }
        let bt = std::sync::Arc::new(bt.finish());
        let mut pt = TableBuilder::new(schema);
        for k in &probe {
            pt.push_row(&[Value::Int64(*k)]);
        }
        let pt = std::sync::Arc::new(pt.finish());

        for algo in [JoinAlgo::Rj, JoinAlgo::Brj] {
            let plan = Plan::scan(&bt, &["k"], None)
                .join(Plan::scan(&pt, &["k"], None), algo, JoinType::Inner, &[0], &[0])
                .aggregate(&[], vec![AggSpec::new(AggFunc::CountStar, 0, "cnt")]);
            let t = Engine::new(1).run(&plan);
            prop_assert_eq!(t.column_by_name("cnt").as_i64()[0] as usize, expected, "{:?}", algo);
        }
    }
}
