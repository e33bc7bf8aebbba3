//! The BHJ's staged, round-based probe against a nested-loop oracle.
//!
//! One grid per generated case: all seven join types × prefetch on/off ×
//! build sides with heavy duplicates, with a deliberately tiny table (16
//! buckets under 1 000 rows: 60-row chains of rows that share a bucket but
//! not a hash, walked over many rounds) and with no rows at all × probe
//! batches of 0, 1, 1 023, 1 024 and 3 000 rows × Int64, mixed Int32/Int64
//! and Str keys × no residual and a residual that passes only some of a
//! row's key partners. Pairs are compared as multisets (they come out in
//! round order); semi, anti and mark must keep the input's order.
//!
//! The groupjoin, which walks the same chains with another action on a
//! match, is one more row of the grid: every build row once, with its
//! partners' count, Int64 sum and Decimal sum.

use joinstudy_core::bhj::{build_sink, BhjProbeOp, BhjState, BhjUnmatchedSource, BhjWalker};
use joinstudy_core::groupjoin::{cells_op, GroupAggFunc, GroupAggSpec, GroupJoinProbeOp};
use joinstudy_core::ht_chain::ChainTable;
use joinstudy_core::join_common::Residual;
use joinstudy_core::JoinType;
use joinstudy_exec::batch::Batch;
use joinstudy_exec::context::QueryContext;
use joinstudy_exec::expr::Expr;
use joinstudy_exec::pipeline::{Operator, Sink, Source};
use joinstudy_exec::Executor;
use joinstudy_storage::column::{ColumnData, StrColumn};
use joinstudy_storage::types::{DataType, Value};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const KINDS: [JoinType; 7] = [
    JoinType::Inner,
    JoinType::ProbeOuter,
    JoinType::ProbeSemi,
    JoinType::ProbeAnti,
    JoinType::ProbeMark,
    JoinType::BuildSemi,
    JoinType::BuildAnti,
];

/// How a logical key `(a, b)` is laid out as key columns on each side.
#[derive(Clone, Copy, Debug)]
enum Keys {
    /// One Int64 column holding `a` (`b` is 0 everywhere).
    Int64,
    /// Two columns, Int32 × Int64 on the build side and Int64 × Int32 on
    /// the probe side: both widening comparisons.
    Mixed,
    /// One Str column, long enough that equal prefixes do not decide it.
    Str,
}

impl Keys {
    fn columns(self, rows: &[(i64, i64)], build: bool) -> Vec<ColumnData> {
        let a = rows.iter().map(|r| r.0);
        let b = rows.iter().map(|r| r.1);
        match self {
            Keys::Int64 => vec![ColumnData::Int64(a.collect())],
            Keys::Mixed if build => vec![
                ColumnData::Int32(a.map(|v| v as i32).collect()),
                ColumnData::Int64(b.collect()),
            ],
            Keys::Mixed => vec![
                ColumnData::Int64(a.collect()),
                ColumnData::Int32(b.map(|v| v as i32).collect()),
            ],
            Keys::Str => {
                let mut col = StrColumn::new();
                for v in a {
                    col.push(&format!("a-rather-long-common-prefix-{v}"));
                }
                vec![ColumnData::Str(col)]
            }
        }
    }

    fn arity(self) -> usize {
        match self {
            Keys::Mixed => 2,
            _ => 1,
        }
    }
}

/// One side's batch: key columns, then an Int64 row id.
fn side_batch(keys: Keys, rows: &[(i64, i64)], build: bool) -> Batch {
    let mut columns = keys.columns(rows, build);
    columns.push(ColumnData::Int64((0..rows.len() as i64).collect()));
    Batch::new(columns)
}

/// Materialize `rows` as a build side of two arenas, widened by one
/// groupjoin cell per aggregate of `aggs`. `tiny` relinks every row into
/// the 16 buckets `ChainTable::new` floors at.
fn build_state(
    keys: Keys,
    rows: &[(i64, i64)],
    tiny: bool,
    aggs: &[GroupAggSpec],
) -> Arc<BhjState> {
    let mut input = side_batch(keys, rows, true);
    if !aggs.is_empty() {
        let cells = cells_op(input.num_columns(), aggs);
        let mut widened = Vec::new();
        let mut local = cells.create_local();
        cells
            .process(&mut local, input, &mut |b| widened.push(b))
            .unwrap();
        input = widened.pop().expect("a projection emits every batch");
    }
    let types: Vec<DataType> = (0..input.num_columns())
        .map(|c| input.column(c).data_type())
        .collect();
    let sink = build_sink(&types, (0..keys.arity()).collect());
    let half: Vec<u32> = (0..rows.len() as u32 / 2).collect();
    let rest: Vec<u32> = (rows.len() as u32 / 2..rows.len() as u32).collect();
    for sel in [half, rest] {
        let mut local = sink.create_local();
        sink.consume(&mut local, input.take(&sel)).unwrap();
        sink.finish_local(local).unwrap();
    }
    let ctx = QueryContext::unbounded();
    let state = sink
        .finalize_table(usize::MAX, &Executor::new(2), &ctx)
        .unwrap();
    if !tiny {
        return state;
    }
    let mut state = Arc::try_unwrap(state).ok().expect("sole owner");
    let full = std::mem::replace(&mut state.table, ChainTable::new(0));
    assert_eq!(state.table.num_buckets(), 16);
    let hash_off = state.layout.hash_offset();
    for bucket in 0..full.num_buckets() {
        let mut row = ChainTable::first_row(full.head(bucket as u64));
        while !row.is_null() {
            // SAFETY: `row` is linked in `full`, so it is a live row of
            // `state`'s arenas with its hash at `hash_off`; this thread is
            // the state's only owner, and each row is relinked once, after
            // its old `next` was read.
            unsafe {
                let next = ChainTable::next_row(row);
                let hash = std::ptr::read(row.add(hash_off).cast::<u64>());
                state.table.insert(row as *mut u8, hash);
                row = next;
            }
        }
    }
    let stats = state.chain_stats();
    assert_eq!(stats.total_rows, rows.len());
    assert!(stats.max_chain >= rows.len() / 16, "{stats:?}");
    Arc::new(state)
}

/// A row as integers, so that multisets sort: NULL is `i64::MIN`, a Str key
/// its numeric suffix.
fn encode(batch: &Batch, r: usize) -> Vec<i64> {
    (0..batch.num_columns())
        .map(|c| match batch.value(c, r) {
            Value::Null => i64::MIN,
            Value::Bool(b) => i64::from(b),
            Value::Int32(v) => i64::from(v),
            Value::Int64(v) => v,
            Value::Decimal(d) => d.0,
            Value::Str(s) => s.rsplit('-').next().unwrap().parse().unwrap(),
            other => panic!("unexpected {other:?}"),
        })
        .collect()
}

fn rows_of(batches: &[Batch]) -> Vec<Vec<i64>> {
    batches
        .iter()
        .flat_map(|b| (0..b.num_rows()).map(move |r| encode(b, r)))
        .collect()
}

fn sorted(mut rows: Vec<Vec<i64>>) -> Vec<Vec<i64>> {
    rows.sort_unstable();
    rows
}

/// `assert_eq!` that names the first difference instead of printing two
/// 70 000-row vectors.
fn assert_rows(got: &[Vec<i64>], expected: &[Vec<i64>], ctx: &str) {
    let first = got.iter().zip(expected).position(|(g, e)| g != e);
    assert!(
        got.len() == expected.len() && first.is_none(),
        "{ctx}: {} rows against {} expected; first difference at {first:?}: {:?} / {:?}",
        got.len(),
        expected.len(),
        first.map(|i| &got[i]),
        first.map(|i| &expected[i]),
    );
}

/// Deterministic keys: `n` rows over `domain` values of `a`; under
/// `Keys::Mixed` `b` takes three values, so equal `a` does not imply a match.
fn gen_rows(seed: &mut u64, n: usize, domain: i64, keys: Keys) -> Vec<(i64, i64)> {
    let mut next = || {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*seed >> 33) as i64
    };
    (0..n)
        .map(|_| {
            let a = next() % domain;
            let b = if matches!(keys, Keys::Mixed) {
                next() % 3
            } else {
                0
            };
            (a, b)
        })
        .collect()
}

/// Run one probe batch (with every third row id NULL) through a fresh
/// operator, flush it, and for the build-preserving kinds drain the
/// unmatched source too. Returns (probe output, build-side output).
fn run(
    state: &Arc<BhjState>,
    keys: Keys,
    kind: JoinType,
    prefetch: bool,
    probe: &[(i64, i64)],
    residual: Option<&Arc<Residual>>,
) -> (Vec<Batch>, Vec<Batch>) {
    let plain = side_batch(keys, probe, false);
    let mut validity = vec![None; plain.num_columns()];
    validity[keys.arity()] = Some((0..probe.len()).map(|r| !r.is_multiple_of(3)).collect());
    let input = Batch::with_validity(plain.into_columns(), validity);

    let op = BhjProbeOp::new(
        Arc::clone(state),
        (0..keys.arity()).collect(),
        kind,
        prefetch,
        residual.cloned(),
    );
    let mut local = op.create_local();
    let mut out = Vec::new();
    op.process(&mut local, input, &mut |b| out.push(b)).unwrap();
    op.flush(&mut local, &mut |b| out.push(b)).unwrap();
    let count = |c: &Arc<AtomicU64>| c.load(Ordering::Relaxed);
    assert_eq!(count(&op.walker.counters.rows), probe.len() as u64);
    assert!(count(&op.walker.counters.tag_rejects) <= probe.len() as u64);
    if state.rows == 0 {
        assert_eq!(count(&op.walker.counters.tag_rejects), probe.len() as u64);
        assert_eq!(count(&op.walker.counters.visits), 0);
    }

    let mut build_out = Vec::new();
    if kind.preserves_build() {
        let source = BhjUnmatchedSource::new(Arc::clone(state), kind);
        for task in 0..source.task_count() {
            source.poll_task(task, &mut |b| build_out.push(b)).unwrap();
        }
    }
    (out, build_out)
}

/// Check one (build side, probe batch) against the nested loop, for every
/// join type and both prefetch settings, without a residual and with
/// `build.id < probe.id` — which passes only some of a probe row's
/// key-equal partners, so no chain may retire on its first key match. The
/// residual reads the stored probe ids: pair batches are all-valid.
fn check(keys: Keys, build: &[(i64, i64)], tiny: bool, probe: &[(i64, i64)]) {
    let partners: Vec<Vec<usize>> = probe
        .iter()
        .map(|p| (0..build.len()).filter(|&b| build[b] == *p).collect())
        .collect();
    check_kinds(keys, build, tiny, probe, &partners, None);
    let id_col = keys.arity();
    let residual = Residual::new(Expr::col(id_col).lt(Expr::col(2 * id_col + 1)));
    let below: Vec<Vec<usize>> = partners
        .iter()
        .enumerate()
        .map(|(r, bs)| bs.iter().copied().filter(|&b| b < r).collect())
        .collect();
    let candidates = partners.iter().map(Vec::len).sum::<usize>() as u64;
    check_kinds(
        keys,
        build,
        tiny,
        probe,
        &below,
        Some((&residual, candidates)),
    );
    check_groupjoin(keys, build, tiny, probe, &partners);
}

/// The grid of [`check`] for one residual: `partners` are the build rows
/// of each probe row that count, and with a residual come the key-equal
/// candidates it must have tested on every run.
fn check_kinds(
    keys: Keys,
    build: &[(i64, i64)],
    tiny: bool,
    probe: &[(i64, i64)],
    partners: &[Vec<usize>],
    residual: Option<(&Arc<Residual>, u64)>,
) {
    let build_batch = side_batch(keys, build, true);
    let probe_batch = side_batch(keys, probe, false);
    let id_col = keys.arity();
    // Probe rows as the probe-preserving kinds emit them: the id's NULLs kept.
    let probe_row = |r: usize| {
        let mut row = encode(&probe_batch, r);
        if r.is_multiple_of(3) {
            row[id_col] = i64::MIN;
        }
        row
    };
    // A pair: build row, then the probe row's stored values (pair batches
    // are built all-valid, as they always were).
    let pair = |b: usize, r: usize| [encode(&build_batch, b), encode(&probe_batch, r)].concat();
    let pairs = || {
        (0..probe.len())
            .flat_map(|r| partners[r].iter().map(move |&b| (b, r)))
            .map(|(b, r)| pair(b, r))
    };
    let hit: Vec<bool> = partners.iter().map(|p| !p.is_empty()).collect();
    let build_hit: Vec<bool> = {
        let mut seen = vec![false; build.len()];
        partners.iter().flatten().for_each(|&b| seen[b] = true);
        seen
    };

    let shared = build_state(keys, build, tiny, &[]);
    for kind in KINDS {
        for prefetch in [true, false] {
            // The build-preserving kinds leave marks in the state.
            let fresh;
            let state = if kind.preserves_build() {
                fresh = build_state(keys, build, tiny, &[]);
                &fresh
            } else {
                &shared
            };
            let before = residual.map(|(res, _)| counts(res));
            let (out, build_out) = run(state, keys, kind, prefetch, probe, residual.map(|r| r.0));
            let got = rows_of(&out);
            let ctx = format!(
                "{keys:?} {kind:?} prefetch={prefetch} tiny={tiny} residual={} build={} probe={}",
                residual.is_some(),
                build.len(),
                probe.len()
            );
            if let (Some((res, candidates)), Some((c0, p0))) = (residual, before) {
                let passed = partners.iter().map(Vec::len).sum::<usize>() as u64;
                let (c1, p1) = counts(res);
                assert_eq!(
                    (c1 - c0, p1 - p0),
                    (candidates, passed),
                    "{ctx}: residual counts"
                );
            }
            match kind {
                JoinType::Inner => assert_rows(&sorted(got), &sorted(pairs().collect()), &ctx),
                JoinType::ProbeOuter => {
                    let width = build_batch.num_columns();
                    let padded = (0..probe.len())
                        .filter(|&r| !hit[r])
                        .map(|r| [vec![i64::MIN; width], probe_row(r)].concat());
                    let expected: Vec<_> = pairs().chain(padded.clone()).collect();
                    assert_rows(&sorted(got.clone()), &sorted(expected), &ctx);
                    // The padded rows come last, in input order, and their
                    // build half is NULL through the validity mask.
                    let tail: Vec<_> = padded.collect();
                    assert_rows(&got[got.len() - tail.len()..], &tail, &ctx);
                    if let Some(last) = out.last().filter(|_| !tail.is_empty()) {
                        for c in 0..width {
                            assert_eq!(last.validity(c), &Some(vec![false; tail.len()]), "{ctx}");
                        }
                    }
                }
                JoinType::ProbeSemi | JoinType::ProbeAnti => {
                    let want = kind == JoinType::ProbeSemi;
                    let expected: Vec<_> = (0..probe.len())
                        .filter(|&r| hit[r] == want)
                        .map(probe_row)
                        .collect();
                    assert_rows(&got, &expected, &ctx);
                }
                JoinType::ProbeMark => {
                    let expected: Vec<_> = (0..probe.len())
                        .map(|r| [probe_row(r), vec![i64::from(hit[r])]].concat())
                        .collect();
                    assert_rows(&got, &expected, &ctx);
                }
                JoinType::BuildSemi | JoinType::BuildAnti => {
                    assert!(got.is_empty(), "{ctx}: the marking probe emits nothing");
                    let want = kind == JoinType::BuildSemi;
                    let expected: Vec<_> = (0..build.len())
                        .filter(|&b| build_hit[b] == want)
                        .map(|b| encode(&build_batch, b))
                        .collect();
                    assert_rows(&sorted(rows_of(&build_out)), &sorted(expected), &ctx);
                }
            }
        }
    }
}

/// (candidates, passed) a residual has counted so far.
fn counts(residual: &Residual) -> (u64, u64) {
    let load = |c: &Arc<AtomicU64>| c.load(Ordering::Relaxed);
    (load(&residual.candidates), load(&residual.passed))
}

/// The groupjoin: per build row its partners' count and the sums of their
/// (unmasked) Int64 ids and of a Decimal column.
fn check_groupjoin(
    keys: Keys,
    build: &[(i64, i64)],
    tiny: bool,
    probe: &[(i64, i64)],
    partners: &[Vec<usize>],
) {
    let build_batch = side_batch(keys, build, true);
    let probe_batch = side_batch(keys, probe, false);
    let id_col = keys.arity();
    let dec = |r: usize| 3 * r as i64 - 1_000;
    let mut cells = vec![[0i64; 3]; build.len()];
    for (r, bs) in partners.iter().enumerate() {
        for &b in bs {
            cells[b][0] += 1;
            cells[b][1] += r as i64;
            cells[b][2] += dec(r);
        }
    }
    let expected: Vec<_> = (0..build.len())
        .map(|b| [encode(&build_batch, b), cells[b].to_vec()].concat())
        .collect();
    let mut columns = probe_batch.into_columns();
    columns.push(ColumnData::Decimal((0..probe.len()).map(dec).collect()));
    let input = Batch::new(columns);
    let aggs = [
        GroupAggSpec::count("n"),
        GroupAggSpec::sum(GroupAggFunc::SumInt64, id_col, "ids"),
        GroupAggSpec::sum(GroupAggFunc::SumDecimal, id_col + 1, "decs"),
    ];
    for prefetch in [true, false] {
        let state = build_state(keys, build, tiny, &aggs);
        let walker = BhjWalker::new(Arc::clone(&state), (0..id_col).collect(), prefetch);
        let op = GroupJoinProbeOp::new(walker, &aggs);
        let mut local = op.create_local();
        let mut out = Vec::new();
        op.process(&mut local, input.clone(), &mut |b| out.push(b))
            .unwrap();
        op.flush(&mut local, &mut |b| out.push(b)).unwrap();
        let ctx = format!(
            "{keys:?} groupjoin prefetch={prefetch} tiny={tiny} build={} probe={}",
            build.len(),
            probe.len()
        );
        assert!(out.is_empty(), "{ctx}: the groupjoin probe emits nothing");
        let counters = &op.walker.counters;
        assert_eq!(counters.rows.load(Ordering::Relaxed), probe.len() as u64);
        let source = BhjUnmatchedSource::every_row(state);
        for task in 0..source.task_count() {
            source.poll_task(task, &mut |b| out.push(b)).unwrap();
        }
        assert_rows(&sorted(rows_of(&out)), &sorted(expected.clone()), &ctx);
        let cell_types = [DataType::Int64, DataType::Int64, DataType::Decimal];
        for b in &out {
            let width = b.num_columns();
            let types: Vec<_> = (width - 3..width)
                .map(|c| b.column(c).data_type())
                .collect();
            assert_eq!(types, cell_types, "{ctx}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn staged_probe_matches_nested_loop(
        seed in any::<u64>(),
        dup_domain in 8i64..48,
        wide_domain in 400i64..900,
    ) {
        let mut seed = seed;
        for keys in [Keys::Int64, Keys::Mixed, Keys::Str] {
            // (domain, tiny table): heavy duplicates in a full-size table,
            // many keys in 16 buckets, and both at once.
            let shapes = [(dup_domain, false), (wide_domain, true), (dup_domain, true)];
            for (domain, tiny) in shapes {
                let build = gen_rows(&mut seed, 1_000, domain, keys);
                for n in [0, 1, 1_023, 1_024, 3_000] {
                    // Half as many keys again as the build side: a third of
                    // the probe rows find nothing.
                    let probe = gen_rows(&mut seed, n, domain + domain / 2, keys);
                    check(keys, &build, tiny, &probe);
                }
            }
            for n in [0, 1, 1_024] {
                let probe = gen_rows(&mut seed, n, dup_domain, keys);
                check(keys, &[], false, &probe);
            }
        }
    }
}
