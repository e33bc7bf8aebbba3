//! The Radix-Partitioned Join's final phase and the Bloom-filter reducer —
//! turning two [`PartitionedSide`]s into the joined output pipeline.
//!
//! After both inputs are partitioned (see [`crate::radix`]), the join itself
//! is a new *pipeline starter* (the paper's Algorithm 2): each final
//! partition pair becomes one task; the worker builds a robin-hood hash
//! table over the (cache-resident) build partition, probes it with the
//! probe partition, and pushes joined batches up the consuming pipeline.
//! Tasks are claimed dynamically, which is the skew tolerance of §4.5 (8).
//!
//! The hash table allocation is reused across all partitions a worker
//! processes (§4.6), via a thread-local.
//!
//! A join with a [`Residual`] collects a partition's key-equal candidates
//! for every join type and filters them in one place,
//! [`RadixJoinSource`]'s `keep_passing`, before the per-join-type tail
//! sees them.
//!
//! [`BloomProbeOp`] is the §4.7 semi-join reducer of the BRJ: it sits in the
//! probe pipeline *before* the partitioning sink and drops probe tuples
//! whose key cannot be in the build side, saving both partitioning passes
//! for them. Its adaptive mode samples the pass rate and switches the
//! filter off when almost everything passes (§5.4.1).

use crate::bloom::BlockedBloom;
use crate::hash::hash_columns;
use crate::ht_rh::RobinHoodTable;
use crate::join_common::{default_column, JoinStats, JoinType, Residual};
use crate::radix::PartitionedSide;
use joinstudy_exec::batch::{Batch, BATCH_ROWS};
use joinstudy_exec::error::ExecResult;
use joinstudy_exec::metrics::{self, MemPhase};
use joinstudy_exec::pipeline::{Emit, LocalState, Operator, Source};
use joinstudy_storage::column::ColumnData;
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// Reused per-worker hash table (one allocation for the whole query).
    static WORKER_TABLE: RefCell<RobinHoodTable> = RefCell::new(RobinHoodTable::new());
}

/// Pipeline starter performing the partition-wise join.
pub struct RadixJoinSource {
    build: Arc<PartitionedSide>,
    probe: Arc<PartitionedSide>,
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
    join_type: JoinType,
    /// Tested on every key-equal candidate pair.
    residual: Option<Arc<Residual>>,
    stats: Option<Arc<JoinStats>>,
}

impl RadixJoinSource {
    pub fn new(
        build: Arc<PartitionedSide>,
        probe: Arc<PartitionedSide>,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
        join_type: JoinType,
        residual: Option<Arc<Residual>>,
    ) -> RadixJoinSource {
        assert_eq!(build.bits1(), probe.bits1(), "partitioning fanout mismatch");
        assert_eq!(build.bits2(), probe.bits2(), "partitioning fanout mismatch");
        assert_eq!(build_keys.len(), probe_keys.len());
        RadixJoinSource {
            build,
            probe,
            build_keys,
            probe_keys,
            join_type,
            residual,
            stats: None,
        }
    }

    /// The partitioned build side this source joins against.
    pub fn build(&self) -> &Arc<PartitionedSide> {
        &self.build
    }

    /// The partitioned probe side.
    pub fn probe(&self) -> &Arc<PartitionedSide> {
        &self.probe
    }

    /// Attach shared match-statistics counters (Figure 2 harness).
    pub fn with_stats(mut self, stats: Arc<JoinStats>) -> RadixJoinSource {
        self.stats = Some(stats);
        self
    }

    /// The (build, probe) row pairs at the given byte offsets as one
    /// (build ++ probe) batch.
    fn pair_batch(&self, build_offs: &[usize], probe_offs: &[usize]) -> Batch {
        debug_assert_eq!(build_offs.len(), probe_offs.len());
        let mut columns = Vec::new();
        for (side, offs) in [(&self.build, build_offs), (&self.probe, probe_offs)] {
            let layout = side.layout();
            for c in 0..layout.num_columns() {
                let mut col = ColumnData::with_capacity(layout.types()[c], offs.len());
                layout.decode_column_into(side.data_bytes(), offs, c, side.heaps(), &mut col);
                columns.push(col);
            }
        }
        Batch::new(columns)
    }

    /// Decode and emit output batches for matched (build, probe) row pairs.
    fn emit_pairs(&self, build_offs: &[usize], probe_offs: &[usize], out: Emit) {
        let chunks = build_offs.chunks(BATCH_ROWS);
        for (b, p) in chunks.zip(probe_offs.chunks(BATCH_ROWS)) {
            out(self.pair_batch(b, p));
        }
    }

    /// The residual, between "candidates found" and the join type's tail:
    /// decode the candidate pairs `(build_offs[i], probe_offs[i])` into
    /// pair batches of at most [`BATCH_ROWS`], evaluate the predicate on
    /// each, and keep in both lists only the pairs that pass. With `out`
    /// (Inner, ProbeOuter) each batch's survivors are emitted here, so a
    /// pair is decoded once.
    fn keep_passing(
        &self,
        residual: &Residual,
        build_offs: &mut Vec<usize>,
        probe_offs: &mut Vec<usize>,
        mut out: Option<Emit>,
    ) {
        let candidates = build_offs.len();
        let mut kept = 0;
        for start in (0..candidates).step_by(BATCH_ROWS) {
            let end = (start + BATCH_ROWS).min(candidates);
            let pairs = self.pair_batch(&build_offs[start..end], &probe_offs[start..end]);
            let pass = residual.pred.eval_sel(&pairs);
            for &i in &pass {
                build_offs[kept] = build_offs[start + i as usize];
                probe_offs[kept] = probe_offs[start + i as usize];
                kept += 1;
            }
            if let Some(out) = out.as_deref_mut() {
                if pass.len() == pairs.num_rows() {
                    out(pairs);
                } else if !pass.is_empty() {
                    out(pairs.take(&pass));
                }
            }
        }
        build_offs.truncate(kept);
        probe_offs.truncate(kept);
        residual.count(candidates as u64, kept as u64);
    }

    /// Emit probe-side-only batches (semi/anti/mark and outer padding).
    fn emit_probe_rows(
        &self,
        probe_offs: &[usize],
        marks: Option<&[bool]>,
        pad_build_null: bool,
        out: Emit,
    ) {
        let pl = self.probe.layout();
        let pdata = self.probe.data_bytes();
        let bl = self.build.layout();
        let mut start = 0;
        while start < probe_offs.len() {
            let end = (start + BATCH_ROWS).min(probe_offs.len());
            let k = end - start;
            let mut columns = Vec::new();
            let mut validity = Vec::new();
            if pad_build_null {
                for &t in bl.types() {
                    columns.push(default_column(t, k));
                    validity.push(Some(vec![false; k]));
                }
            }
            for c in 0..pl.num_columns() {
                let mut col = ColumnData::with_capacity(pl.types()[c], k);
                pl.decode_column_into(
                    pdata,
                    &probe_offs[start..end],
                    c,
                    self.probe.heaps(),
                    &mut col,
                );
                columns.push(col);
                validity.push(None);
            }
            if let Some(m) = marks {
                columns.push(ColumnData::Bool(m[start..end].to_vec()));
                validity.push(None);
            }
            out(Batch::with_validity(columns, validity));
            start = end;
        }
    }

    /// Emit build-side-only batches (build-preserving variants).
    fn emit_build_rows(&self, build_offs: &[usize], out: Emit) {
        let bl = self.build.layout();
        let bdata = self.build.data_bytes();
        let mut start = 0;
        while start < build_offs.len() {
            let end = (start + BATCH_ROWS).min(build_offs.len());
            let mut columns = Vec::with_capacity(bl.num_columns());
            for c in 0..bl.num_columns() {
                let mut col = ColumnData::with_capacity(bl.types()[c], end - start);
                bl.decode_column_into(
                    bdata,
                    &build_offs[start..end],
                    c,
                    self.build.heaps(),
                    &mut col,
                );
                columns.push(col);
            }
            out(Batch::new(columns));
            start = end;
        }
    }
}

impl Source for RadixJoinSource {
    fn task_count(&self) -> usize {
        self.build.num_partitions()
    }

    fn poll_task(&self, p: usize, out: Emit) -> ExecResult {
        let bl = self.build.layout();
        let pl = self.probe.layout();
        let bstride = bl.stride();
        let pstride = pl.stride();
        let bdata = self.build.data_bytes();
        let pdata = self.probe.data_bytes();
        let brange = self.build.partition_row_range(p);
        let prange = self.probe.partition_row_range(p);
        let b_n = brange.len();

        metrics::record_read(
            MemPhase::Join,
            (b_n * bstride + prange.len() * pstride) as u64,
        );

        // Row byte offsets of the build partition, indexed by local row id.
        let build_offs: Vec<usize> = brange.clone().map(|r| r * bstride).collect();

        if b_n == 0 {
            if let Some(stats) = &self.stats {
                stats
                    .probe_total
                    .fetch_add(prange.len() as u64, std::sync::atomic::Ordering::Relaxed);
            }
            // No build rows: anti/outer/mark still emit probe tuples.
            match self.join_type {
                JoinType::ProbeAnti => {
                    let probe_offs: Vec<usize> = prange.map(|r| r * pstride).collect();
                    self.emit_probe_rows(&probe_offs, None, false, out);
                }
                JoinType::ProbeOuter => {
                    let probe_offs: Vec<usize> = prange.map(|r| r * pstride).collect();
                    self.emit_probe_rows(&probe_offs, None, true, out);
                }
                JoinType::ProbeMark => {
                    let probe_offs: Vec<usize> = prange.map(|r| r * pstride).collect();
                    let marks = vec![false; probe_offs.len()];
                    self.emit_probe_rows(&probe_offs, Some(&marks), false, out);
                }
                _ => {}
            }
            return Ok(());
        }

        WORKER_TABLE.with(|cell| {
            let mut table = cell.borrow_mut();
            table.reset(b_n);
            for (local_id, &off) in build_offs.iter().enumerate() {
                let h = bl.read_hash(&bdata[off..off + bstride]);
                table.insert(h, local_id as u32);
            }

            let mut matched_build = if self.join_type.preserves_build() {
                vec![false; b_n]
            } else {
                Vec::new()
            };

            let mut pair_b: Vec<usize> = Vec::new();
            let mut pair_p: Vec<usize> = Vec::new();
            let mut probe_sel: Vec<usize> = Vec::new();
            let mut marks: Vec<bool> = Vec::new();
            let mut outer_unmatched: Vec<usize> = Vec::new();
            let mut stat_total = 0u64;
            let mut stat_matched = 0u64;

            // Whether build row `local_id` is a key-equal partner of the
            // probe row `prow`, whose hash is `h`.
            let partner = |local_id: u32, h: u64, prow: &[u8]| {
                let boff = build_offs[local_id as usize];
                let brow = &bdata[boff..boff + bstride];
                bl.read_hash(brow) == h
                    && bl.keys_equal(
                        brow,
                        &self.build_keys,
                        self.build.heaps(),
                        pl,
                        prow,
                        &self.probe_keys,
                        self.probe.heaps(),
                    )
            };
            // What a probe row leaves behind once it is known whether any
            // partner counts.
            let mut settle = |poff: usize, any: bool| {
                stat_total += 1;
                stat_matched += u64::from(any);
                match self.join_type {
                    JoinType::ProbeSemi if any => probe_sel.push(poff),
                    JoinType::ProbeAnti if !any => probe_sel.push(poff),
                    JoinType::ProbeMark => {
                        probe_sel.push(poff);
                        marks.push(any);
                    }
                    JoinType::ProbeOuter if !any => outer_unmatched.push(poff),
                    _ => {}
                }
            };

            match &self.residual {
                None => {
                    for r in prange {
                        let poff = r * pstride;
                        let prow = &pdata[poff..poff + pstride];
                        let h = pl.read_hash(prow);
                        let mut any = false;
                        table.for_each_match(h, |local_id| {
                            if partner(local_id, h, prow) {
                                any = true;
                                match self.join_type {
                                    JoinType::Inner | JoinType::ProbeOuter => {
                                        pair_b.push(build_offs[local_id as usize]);
                                        pair_p.push(poff);
                                    }
                                    JoinType::BuildSemi | JoinType::BuildAnti => {
                                        matched_build[local_id as usize] = true;
                                    }
                                    _ => {}
                                }
                            }
                        });
                        settle(poff, any);
                    }
                }
                // Every candidate of the partition first, for every join
                // type; the residual keeps the pairs that count.
                Some(residual) => {
                    for r in prange.clone() {
                        let poff = r * pstride;
                        let prow = &pdata[poff..poff + pstride];
                        let h = pl.read_hash(prow);
                        table.for_each_match(h, |local_id| {
                            if partner(local_id, h, prow) {
                                pair_b.push(build_offs[local_id as usize]);
                                pair_p.push(poff);
                            }
                        });
                    }
                    let emits = matches!(self.join_type, JoinType::Inner | JoinType::ProbeOuter);
                    self.keep_passing(
                        residual,
                        &mut pair_b,
                        &mut pair_p,
                        emits.then_some(&mut *out),
                    );
                    let mut hit = vec![false; prange.len()];
                    for &poff in &pair_p {
                        hit[poff / pstride - prange.start] = true;
                    }
                    if self.join_type.preserves_build() {
                        for &boff in &pair_b {
                            matched_build[boff / bstride - brange.start] = true;
                        }
                    }
                    for (r, any) in prange.zip(hit) {
                        settle(r * pstride, any);
                    }
                    // `keep_passing` emitted the Inner / ProbeOuter pairs.
                    pair_b.clear();
                    pair_p.clear();
                }
            }

            if let Some(stats) = &self.stats {
                use std::sync::atomic::Ordering;
                stats.probe_total.fetch_add(stat_total, Ordering::Relaxed);
                stats
                    .probe_matched
                    .fetch_add(stat_matched, Ordering::Relaxed);
            }
            match self.join_type {
                JoinType::Inner => self.emit_pairs(&pair_b, &pair_p, out),
                JoinType::ProbeOuter => {
                    self.emit_pairs(&pair_b, &pair_p, &mut *out);
                    self.emit_probe_rows(&outer_unmatched, None, true, out);
                }
                JoinType::ProbeSemi | JoinType::ProbeAnti => {
                    self.emit_probe_rows(&probe_sel, None, false, out)
                }
                JoinType::ProbeMark => self.emit_probe_rows(&probe_sel, Some(&marks), false, out),
                JoinType::BuildSemi | JoinType::BuildAnti => {
                    let want = self.join_type == JoinType::BuildSemi;
                    let offs: Vec<usize> = matched_build
                        .iter()
                        .enumerate()
                        .filter(|&(_i, &m)| m == want)
                        .map(|(i, &_m)| build_offs[i])
                        .collect();
                    self.emit_build_rows(&offs, out);
                }
            }
        });
        Ok(())
    }
}

/// Probe-pipeline Bloom-filter reducer (the "B" in BRJ).
pub struct BloomProbeOp {
    bloom: Arc<BlockedBloom>,
    key_cols: Vec<usize>,
    bits1: u32,
    bits2: u32,
    /// Sample the pass rate and switch off when it stops paying (§5.4.1).
    adaptive: bool,
    /// Whether any worker's adaptive sampling switched the filter off
    /// (reported by EXPLAIN ANALYZE).
    disabled_flag: std::sync::atomic::AtomicBool,
}

/// Adaptive switch-off: after this many sampled tuples ...
const ADAPTIVE_SAMPLE: u64 = 64 * 1024;
/// ... disable the filter if more than this fraction passed.
const ADAPTIVE_THRESHOLD: f64 = 0.9;

struct BloomLocal {
    hashes: Vec<u64>,
    seen: u64,
    passed: u64,
    disabled: bool,
}

impl BloomProbeOp {
    pub fn new(
        bloom: Arc<BlockedBloom>,
        key_cols: Vec<usize>,
        bits1: u32,
        bits2: u32,
        adaptive: bool,
    ) -> BloomProbeOp {
        BloomProbeOp {
            bloom,
            key_cols,
            bits1,
            bits2,
            adaptive,
            disabled_flag: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Whether the adaptive sampling disabled the filter on any worker.
    pub fn was_disabled(&self) -> bool {
        self.disabled_flag
            .load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Operator for BloomProbeOp {
    fn create_local(&self) -> LocalState {
        Box::new(BloomLocal {
            hashes: Vec::new(),
            seen: 0,
            passed: 0,
            disabled: false,
        })
    }

    fn process(&self, local: &mut LocalState, input: Batch, out: Emit) -> ExecResult {
        let local = local.downcast_mut::<BloomLocal>().unwrap();
        if local.disabled {
            out(input);
            return Ok(());
        }
        let n = input.num_rows();
        let key_cols: Vec<_> = self.key_cols.iter().map(|&c| input.column(c)).collect();
        let mut hashes = std::mem::take(&mut local.hashes);
        hash_columns(&key_cols, n, &mut hashes);
        drop(key_cols);

        let mut sel: Vec<u32> = Vec::with_capacity(n);
        self.bloom
            .probe_sel(self.bits1, self.bits2, &hashes[..n], &mut sel);
        local.seen += n as u64;
        local.passed += sel.len() as u64;
        if self.adaptive
            && local.seen >= ADAPTIVE_SAMPLE
            && local.passed as f64 / local.seen as f64 > ADAPTIVE_THRESHOLD
        {
            local.disabled = true;
            self.disabled_flag
                .store(true, std::sync::atomic::Ordering::Relaxed);
            joinstudy_exec::trace::instant("bloom filter adaptively disabled");
        }
        local.hashes = hashes;
        if sel.len() == n {
            out(input);
        } else if !sel.is_empty() {
            out(input.take(&sel));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix::{PartitionSink, PhaseSet, RadixConfig};
    use joinstudy_exec::batch::BatchBuilder;
    use joinstudy_exec::pipeline::Sink;
    use joinstudy_storage::types::{DataType, Value};

    fn partition_pairs(
        rows: &[(i64, i64)],
        bits2: Option<u32>,
        bloom: bool,
    ) -> (Arc<PartitionedSide>, Option<Arc<BlockedBloom>>, u32) {
        let layout = crate::row::RowLayout::new(&[DataType::Int64, DataType::Int64], false);
        let sink = PartitionSink::new(layout, vec![0], RadixConfig::default(), PhaseSet::build());
        let mut local = sink.create_local();
        let mut bb = BatchBuilder::new(vec![DataType::Int64, DataType::Int64]);
        for &(k, v) in rows {
            bb.push_row(&[Value::Int64(k), Value::Int64(v)]);
            if bb.is_full() {
                sink.consume(&mut local, bb.flush().unwrap()).unwrap();
            }
        }
        if let Some(b) = bb.flush() {
            sink.consume(&mut local, b).unwrap();
        }
        sink.finish_local(local).unwrap();
        let (side, bf) = sink.finalize(1, bits2, bloom).unwrap();
        let bits2 = side.bits2();
        (Arc::new(side), bf.map(Arc::new), bits2)
    }

    fn run_join(
        build: &[(i64, i64)],
        probe: &[(i64, i64)],
        join_type: JoinType,
    ) -> Vec<Vec<Value>> {
        let (bside, _, bits2) = partition_pairs(build, Some(2), false);
        let (pside, _, _) = partition_pairs(probe, Some(bits2), false);
        let src = RadixJoinSource::new(bside, pside, vec![0], vec![0], join_type, None);
        let mut rows = Vec::new();
        for t in 0..src.task_count() {
            src.poll_task(t, &mut |b| {
                for r in 0..b.num_rows() {
                    rows.push(
                        (0..b.num_columns())
                            .map(|c| b.value(c, r))
                            .collect::<Vec<_>>(),
                    );
                }
            })
            .unwrap();
        }
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    }

    #[test]
    fn inner_join_with_duplicates() {
        let build = vec![(1, 10), (2, 20), (2, 21)];
        let probe = vec![(2, 200), (3, 300), (1, 100), (2, 201)];
        let rows = run_join(&build, &probe, JoinType::Inner);
        // key 2: 2 build × 2 probe = 4 pairs; key 1: 1; key 3: 0.
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert_eq!(r[0], r[2], "join keys must match");
        }
    }

    #[test]
    fn semi_and_anti_probe() {
        let build = vec![(1, 0), (2, 0), (2, 0)];
        let probe = vec![(1, 11), (2, 22), (3, 33), (2, 44)];
        let semi = run_join(&build, &probe, JoinType::ProbeSemi);
        assert_eq!(semi.len(), 3); // rows with keys 1, 2, 2 — each once
        let anti = run_join(&build, &probe, JoinType::ProbeAnti);
        assert_eq!(anti.len(), 1);
        assert_eq!(anti[0][0], Value::Int64(3));
    }

    #[test]
    fn mark_join_flags_every_probe_row() {
        let build = vec![(7, 0)];
        let probe = vec![(7, 1), (8, 2)];
        let rows = run_join(&build, &probe, JoinType::ProbeMark);
        assert_eq!(rows.len(), 2);
        let flagged: Vec<(i64, bool)> = rows
            .iter()
            .map(|r| (r[0].as_i64(), matches!(r[2], Value::Bool(true))))
            .collect();
        assert!(flagged.contains(&(7, true)));
        assert!(flagged.contains(&(8, false)));
    }

    #[test]
    fn probe_outer_pads_nulls() {
        let build = vec![(5, 50)];
        let probe = vec![(5, 500), (6, 600)];
        let rows = run_join(&build, &probe, JoinType::ProbeOuter);
        assert_eq!(rows.len(), 2);
        let unmatched = rows.iter().find(|r| r[2] == Value::Int64(6)).unwrap();
        assert_eq!(unmatched[0], Value::Null);
        assert_eq!(unmatched[1], Value::Null);
        let matched = rows.iter().find(|r| r[2] == Value::Int64(5)).unwrap();
        assert_eq!(matched[1], Value::Int64(50));
    }

    #[test]
    fn build_anti_and_semi() {
        let build = vec![(1, 10), (2, 20), (3, 30)];
        let probe = vec![(2, 0), (2, 0)];
        let anti = run_join(&build, &probe, JoinType::BuildAnti);
        let keys: Vec<i64> = anti.iter().map(|r| r[0].as_i64()).collect();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&1) && keys.contains(&3));
        let semi = run_join(&build, &probe, JoinType::BuildSemi);
        assert_eq!(semi.len(), 1);
        assert_eq!(semi[0][0], Value::Int64(2));
    }

    #[test]
    fn large_fk_join_counts_match() {
        // 1000 build keys, each probed 0..5 times — verify exact match count.
        let build: Vec<(i64, i64)> = (0..1000).map(|k| (k, k * 2)).collect();
        let mut probe = Vec::new();
        let mut expected = 0usize;
        for k in 0..2000i64 {
            let reps = (k % 5) as usize;
            for _ in 0..reps {
                probe.push((k, k));
            }
            if k < 1000 {
                expected += reps;
            }
        }
        let rows = run_join(&build, &probe, JoinType::Inner);
        assert_eq!(rows.len(), expected);
    }

    #[test]
    fn empty_sides() {
        assert_eq!(run_join(&[], &[(1, 1)], JoinType::Inner).len(), 0);
        assert_eq!(run_join(&[], &[(1, 1)], JoinType::ProbeAnti).len(), 1);
        assert_eq!(run_join(&[(1, 1)], &[], JoinType::Inner).len(), 0);
        assert_eq!(run_join(&[(1, 1)], &[], JoinType::BuildAnti).len(), 1);
    }

    #[test]
    fn bloom_probe_filters_and_adapts() {
        // Build side: keys 0..1000. Probe: keys 0..10000 (10% hit rate).
        let build: Vec<(i64, i64)> = (0..1000).map(|k| (k, 0)).collect();
        let (bside, bloom, bits2) = partition_pairs(&build, Some(2), true);
        let bloom = bloom.unwrap();
        let op = BloomProbeOp::new(bloom.clone(), vec![0], bside.bits1(), bits2, false);
        let mut local = op.create_local();
        let probe_keys: Vec<i64> = (0..10_000).collect();
        let input = Batch::new(vec![ColumnData::Int64(probe_keys)]);
        let mut passed = 0usize;
        op.process(&mut local, input, &mut |b| passed += b.num_rows())
            .unwrap();
        // All 1000 true hits must pass; false positives stay low.
        assert!(passed >= 1000, "dropped true matches: {passed}");
        assert!(passed < 2000, "bloom too weak: {passed}/10000 passed");

        // Adaptive mode disables itself under a 100%-hit workload.
        let op = BloomProbeOp::new(bloom, vec![0], bside.bits1(), bits2, true);
        let mut local = op.create_local();
        for _ in 0..80 {
            let keys: Vec<i64> = (0..1000).collect();
            let mut got = 0;
            op.process(
                &mut local,
                Batch::new(vec![ColumnData::Int64(keys)]),
                &mut |b| got += b.num_rows(),
            )
            .unwrap();
            assert_eq!(got, 1000);
        }
        let l = local.downcast_ref::<BloomLocal>().unwrap();
        assert!(l.disabled, "adaptive filter should have switched off");
    }
}
