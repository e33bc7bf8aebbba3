//! The groupjoin: a fused join + group-by (Moerkotte & Neumann, VLDB'11).
//!
//! The paper's footnote 6: "Our system uses a groupjoin for Query 13,
//! which combines join and group by". The operator groups the probe side
//! *by the build rows*: every build tuple becomes one group, probe matches
//! update that group's aggregates in place, and the output contains every
//! build tuple exactly once together with its aggregates — including empty
//! groups (the LEFT OUTER semantics Q13 needs: customers with zero
//! orders).
//!
//! Implementation: the build side is materialized into indexed row storage
//! with a robin-hood index (hash → row id); probe workers update per-row
//! atomic aggregate cells, so the probe stays fully pipelined and parallel
//! with no per-worker hash tables to merge.

use crate::hash::hash_columns;
use crate::ht_rh::RobinHoodTable;
use crate::row::{RowLayout, StrHeap};
use joinstudy_exec::batch::{Batch, BatchBuilder, BATCH_ROWS};
use joinstudy_exec::error::ExecResult;
use joinstudy_exec::pipeline::{Emit, LocalState, Operator, Sink, Source};
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::table::{Field, Schema};
use joinstudy_storage::types::DataType;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Aggregates a groupjoin can maintain per build row. All states fit in one
/// atomic 64-bit cell, which is what makes lock-free parallel probes work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupAggFunc {
    /// Number of matching probe tuples.
    CountMatches,
    /// Sum of an Int64 probe column over the matches.
    SumInt64,
    /// Sum of a Decimal probe column over the matches.
    SumDecimal,
}

/// One aggregate column of the groupjoin output.
#[derive(Debug, Clone)]
pub struct GroupAggSpec {
    pub func: GroupAggFunc,
    /// Probe column the aggregate reads (ignored for `CountMatches`).
    pub input: usize,
    pub name: String,
}

impl GroupAggSpec {
    pub fn count(name: impl Into<String>) -> GroupAggSpec {
        GroupAggSpec {
            func: GroupAggFunc::CountMatches,
            input: 0,
            name: name.into(),
        }
    }

    pub fn sum(func: GroupAggFunc, input: usize, name: impl Into<String>) -> GroupAggSpec {
        GroupAggSpec {
            func,
            input,
            name: name.into(),
        }
    }

    fn output_type(&self) -> DataType {
        match self.func {
            GroupAggFunc::CountMatches | GroupAggFunc::SumInt64 => DataType::Int64,
            GroupAggFunc::SumDecimal => DataType::Decimal,
        }
    }
}

struct BuildLocal {
    rows: Vec<u8>,
    heap: StrHeap,
    heap_id: usize,
    hashes: Vec<u64>,
    count: usize,
}

struct BuildGlobal {
    chunks: Vec<(Vec<u8>, usize)>,
    heaps: Vec<(usize, StrHeap)>,
}

/// Pipeline breaker materializing and indexing the groupjoin's build side.
pub struct GroupJoinBuildSink {
    layout: RowLayout,
    key_cols: Vec<usize>,
    next_heap_id: AtomicUsize,
    global: Mutex<BuildGlobal>,
}

impl GroupJoinBuildSink {
    pub fn new(types: &[DataType], key_cols: Vec<usize>) -> GroupJoinBuildSink {
        GroupJoinBuildSink {
            layout: RowLayout::new(types, false),
            key_cols,
            next_heap_id: AtomicUsize::new(0),
            global: Mutex::new(BuildGlobal {
                chunks: Vec::new(),
                heaps: Vec::new(),
            }),
        }
    }

    /// Concatenate worker chunks, build the index, allocate aggregate cells.
    pub fn into_state(&self, aggs: Vec<GroupAggSpec>) -> Arc<GroupJoinState> {
        let mut global = self.global.lock();
        let chunks = std::mem::take(&mut global.chunks);
        let mut heap_pairs = std::mem::take(&mut global.heaps);
        drop(global);

        let max_id = heap_pairs
            .iter()
            .map(|(id, _)| *id)
            .max()
            .map_or(0, |m| m + 1);
        let mut heaps: Vec<StrHeap> = (0..max_id).map(|_| StrHeap::new()).collect();
        for (id, heap) in heap_pairs.drain(..) {
            heaps[id] = heap;
        }

        let total: usize = chunks.iter().map(|(_, n)| n).sum();
        let stride = self.layout.stride();
        let mut data = Vec::with_capacity(total * stride);
        for (chunk, _) in &chunks {
            data.extend_from_slice(chunk);
        }

        let mut index = RobinHoodTable::new();
        index.reset(total);
        for r in 0..total {
            let h = self.layout.read_hash(&data[r * stride..(r + 1) * stride]);
            index.insert(h, r as u32);
        }

        let mut cells = Vec::new();
        cells.resize_with(total * aggs.len().max(1), || AtomicI64::new(0));

        Arc::new(GroupJoinState {
            layout: self.layout.clone(),
            key_cols: self.key_cols.clone(),
            heaps,
            data,
            rows: total,
            index,
            aggs,
            cells,
        })
    }
}

impl Sink for GroupJoinBuildSink {
    fn create_local(&self) -> LocalState {
        Box::new(BuildLocal {
            rows: Vec::new(),
            heap: StrHeap::new(),
            heap_id: self.next_heap_id.fetch_add(1, Ordering::Relaxed),
            hashes: Vec::new(),
            count: 0,
        })
    }

    fn consume(&self, local: &mut LocalState, input: Batch) -> ExecResult {
        let local = local.downcast_mut::<BuildLocal>().unwrap();
        let n = input.num_rows();
        let key_cols: Vec<_> = self.key_cols.iter().map(|&c| input.column(c)).collect();
        let mut hashes = std::mem::take(&mut local.hashes);
        hash_columns(&key_cols, n, &mut hashes);
        drop(key_cols);
        let stride = self.layout.stride();
        for r in 0..n {
            let at = local.rows.len();
            local.rows.resize(at + stride, 0);
            self.layout.encode_row(
                &mut local.rows[at..at + stride],
                hashes[r],
                &input,
                r,
                &mut local.heap,
                local.heap_id,
            );
        }
        local.count += n;
        local.hashes = hashes;
        Ok(())
    }

    fn finish_local(&self, local: LocalState) -> ExecResult {
        let local = *local.downcast::<BuildLocal>().unwrap();
        let mut global = self.global.lock();
        global.chunks.push((local.rows, local.count));
        global.heaps.push((local.heap_id, local.heap));
        Ok(())
    }
}

/// The frozen build side: indexed rows + per-row atomic aggregate cells.
pub struct GroupJoinState {
    layout: RowLayout,
    key_cols: Vec<usize>,
    heaps: Vec<StrHeap>,
    data: Vec<u8>,
    rows: usize,
    index: RobinHoodTable,
    aggs: Vec<GroupAggSpec>,
    cells: Vec<AtomicI64>,
}

impl GroupJoinState {
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// Output schema of a groupjoin: build columns followed by the aggregates.
/// The one derivation, for the plan node and the operators alike.
pub fn output_schema(build_schema: &Schema, aggs: &[GroupAggSpec]) -> Schema {
    let mut fields = build_schema.fields.clone();
    for a in aggs {
        fields.push(Field::new(a.name.clone(), a.output_type()));
    }
    Schema::new(fields)
}

/// In-pipeline probe: updates the matched build rows' aggregate cells.
/// Emits nothing — the groupjoin's output pipeline starts at
/// [`GroupJoinSource`].
pub struct GroupJoinProbeOp {
    state: Arc<GroupJoinState>,
    probe_keys: Vec<usize>,
}

impl GroupJoinProbeOp {
    pub fn new(state: Arc<GroupJoinState>, probe_keys: Vec<usize>) -> GroupJoinProbeOp {
        GroupJoinProbeOp { state, probe_keys }
    }
}

struct ProbeLocal {
    hashes: Vec<u64>,
}

impl Operator for GroupJoinProbeOp {
    fn create_local(&self) -> LocalState {
        Box::new(ProbeLocal { hashes: Vec::new() })
    }

    fn process(&self, local: &mut LocalState, input: Batch, _out: Emit) -> ExecResult {
        let local = local.downcast_mut::<ProbeLocal>().unwrap();
        let n = input.num_rows();
        let key_cols: Vec<_> = self.probe_keys.iter().map(|&c| input.column(c)).collect();
        let mut hashes = std::mem::take(&mut local.hashes);
        hash_columns(&key_cols, n, &mut hashes);
        drop(key_cols);

        let s = &self.state;
        let stride = s.layout.stride();
        let n_aggs = s.aggs.len().max(1);
        for r in 0..n {
            let h = hashes[r];
            s.index.for_each_match(h, |row_id| {
                let row = &s.data[row_id as usize * stride..(row_id as usize + 1) * stride];
                if s.layout.read_hash(row) == h
                    && s.layout.keys_match_batch(
                        row,
                        &s.key_cols,
                        &s.heaps,
                        &input,
                        &self.probe_keys,
                        r,
                    )
                {
                    for (a, spec) in s.aggs.iter().enumerate() {
                        let delta = match spec.func {
                            GroupAggFunc::CountMatches => 1,
                            GroupAggFunc::SumInt64 | GroupAggFunc::SumDecimal => {
                                input.column(spec.input).as_i64()[r]
                            }
                        };
                        s.cells[row_id as usize * n_aggs + a].fetch_add(delta, Ordering::Relaxed);
                    }
                }
            });
        }
        local.hashes = hashes;
        Ok(())
    }
}

/// Output pipeline starter: every build row once, with its aggregates.
pub struct GroupJoinSource {
    state: Arc<GroupJoinState>,
}

/// Rows per output task.
const TASK_ROWS: usize = 64 * 1024;

impl GroupJoinSource {
    pub fn new(state: Arc<GroupJoinState>) -> GroupJoinSource {
        GroupJoinSource { state }
    }
}

impl Source for GroupJoinSource {
    fn task_count(&self) -> usize {
        self.state.rows.div_ceil(TASK_ROWS)
    }

    fn poll_task(&self, task: usize, out: Emit) -> ExecResult {
        let s = &self.state;
        let stride = s.layout.stride();
        let n_aggs = s.aggs.len().max(1);
        let start = task * TASK_ROWS;
        let end = ((task + 1) * TASK_ROWS).min(s.rows);
        let mut types: Vec<DataType> = s.layout.types().to_vec();
        for a in &s.aggs {
            types.push(a.output_type());
        }
        let mut bb = BatchBuilder::new(types);
        let mut cursor = start;
        while cursor < end {
            let chunk_end = (cursor + BATCH_ROWS).min(end);
            let offsets: Vec<usize> = (cursor..chunk_end).map(|r| r * stride).collect();
            for c in 0..s.layout.num_columns() {
                s.layout
                    .decode_column_into(&s.data, &offsets, c, &s.heaps, bb.column_mut(c));
            }
            for (a, _) in s.aggs.iter().enumerate() {
                let col = bb.column_mut(s.layout.num_columns() + a);
                match col {
                    ColumnData::Int64(v) | ColumnData::Decimal(v) => {
                        v.extend(
                            (cursor..chunk_end)
                                .map(|r| s.cells[r * n_aggs + a].load(Ordering::Relaxed)),
                        );
                    }
                    _ => unreachable!("groupjoin aggregates are 64-bit"),
                }
            }
            bb.advance(chunk_end - cursor);
            if let Some(b) = bb.flush() {
                out(b);
            }
            cursor = chunk_end;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinstudy_storage::types::Value;

    fn run_groupjoin(
        build: &[(i64, i64)],
        probe: &[(i64, i64)],
        aggs: Vec<GroupAggSpec>,
    ) -> Vec<Vec<Value>> {
        let sink = GroupJoinBuildSink::new(&[DataType::Int64, DataType::Int64], vec![0]);
        let mut local = sink.create_local();
        let mut bb = BatchBuilder::new(vec![DataType::Int64, DataType::Int64]);
        for &(k, v) in build {
            bb.push_row(&[Value::Int64(k), Value::Int64(v)]);
        }
        if let Some(b) = bb.flush() {
            sink.consume(&mut local, b).unwrap();
        }
        sink.finish_local(local).unwrap();
        let state = sink.into_state(aggs);

        let op = GroupJoinProbeOp::new(Arc::clone(&state), vec![0]);
        let mut plocal = op.create_local();
        let mut pb = BatchBuilder::new(vec![DataType::Int64, DataType::Int64]);
        for &(k, v) in probe {
            pb.push_row(&[Value::Int64(k), Value::Int64(v)]);
        }
        if let Some(b) = pb.flush() {
            op.process(&mut plocal, b, &mut |_| {
                panic!("groupjoin probe must not emit")
            })
            .unwrap();
        }

        let source = GroupJoinSource::new(state);
        let mut rows = Vec::new();
        for t in 0..source.task_count() {
            source
                .poll_task(t, &mut |b| {
                    for r in 0..b.num_rows() {
                        rows.push((0..b.num_columns()).map(|c| b.value(c, r)).collect());
                    }
                })
                .unwrap();
        }
        rows.sort_by_key(|r: &Vec<Value>| r[0].as_i64());
        rows
    }

    #[test]
    fn counts_matches_including_empty_groups() {
        let build = vec![(1, 10), (2, 20), (3, 30)];
        let probe = vec![(1, 100), (1, 101), (3, 300), (9, 900)];
        let rows = run_groupjoin(&build, &probe, vec![GroupAggSpec::count("n")]);
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0],
            vec![Value::Int64(1), Value::Int64(10), Value::Int64(2)]
        );
        assert_eq!(
            rows[1],
            vec![Value::Int64(2), Value::Int64(20), Value::Int64(0)]
        );
        assert_eq!(
            rows[2],
            vec![Value::Int64(3), Value::Int64(30), Value::Int64(1)]
        );
    }

    #[test]
    fn sums_probe_column() {
        let build = vec![(7, 0), (8, 0)];
        let probe = vec![(7, 5), (7, 6), (8, -2)];
        let rows = run_groupjoin(
            &build,
            &probe,
            vec![
                GroupAggSpec::count("n"),
                GroupAggSpec::sum(GroupAggFunc::SumInt64, 1, "s"),
            ],
        );
        assert_eq!(rows[0][2], Value::Int64(2));
        assert_eq!(rows[0][3], Value::Int64(11));
        assert_eq!(rows[1][2], Value::Int64(1));
        assert_eq!(rows[1][3], Value::Int64(-2));
    }

    #[test]
    fn duplicate_build_keys_each_get_their_matches() {
        // Groupjoin groups by build *row*, so duplicate keys both count.
        let build = vec![(5, 1), (5, 2)];
        let probe = vec![(5, 0), (5, 0), (5, 0)];
        let rows = run_groupjoin(&build, &probe, vec![GroupAggSpec::count("n")]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][2], Value::Int64(3));
        assert_eq!(rows[1][2], Value::Int64(3));
    }

    #[test]
    fn empty_probe_yields_all_zero_groups() {
        let build = vec![(1, 0), (2, 0)];
        let rows = run_groupjoin(&build, &[], vec![GroupAggSpec::count("n")]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r[2] == Value::Int64(0)));
    }
}
