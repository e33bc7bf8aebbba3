//! What the levels of a partitioned join share ([`HybridJoin`]), and the
//! out-of-core join built from it. The radix join (RJ) and its
//! Bloom-filtered variant (BRJ) partition both inputs and join them with a
//! [`RadixJoinSource`]. The dynamic hybrid hash join (HHJ) is the BHJ
//! compiled with an eviction, and only the HHJ — the last rung of the
//! degradation ladder — evicts: it is the out-of-core join, correct under
//! any memory budget that holds its minimum working set
//! ([`min_working_set`]), and naming that floor when one does not. The RJ's
//! and BRJ's sinks lease what they hold and fail when the budget refuses.
//!
//! There is one partitioner, [`crate::radix::PartitionSink`], and one probe,
//! [`BhjProbeOp`]. An HHJ level partitions its build side only:
//!
//! * **Open.** A build pre-partition stays *open* for as long as the join's
//!   share of the budget ([`Level`]) allows. When the build side is done,
//!   the open pre-partitions' rows are linked into one BHJ table
//!   ([`PartitionSink::finalize_table`]) and the probe side streams through
//!   a [`RouteOp`]: a probe row of an open pre-partition probes that table
//!   in flight, as the BHJ's probe rows do.
//! * **Closed.** When a build worker's lease may not grow, the victim policy
//!   ([`largest_resident`]) names a pre-partition to *close*: its build rows
//!   move to a [`crate::spill`] run and later ones follow. Closed stays
//!   closed; the probe rows of a closed pre-partition go to a run of their
//!   own. Only closed partitions are written.
//! * **Reloaded.** Once the probe side has streamed, the level's table goes
//!   (unless a build-preserving join type still scans it), and each closed
//!   pair is joined one level down, on the next hash-bit window
//!   ([`Level::child`]), the same way: its build run goes through the
//!   evicting sink, what fits becomes a table, and the probe run streams
//!   through a [`RouteOp`] over it, which sends the rows of what closed
//!   again one level further down. A pair that stops
//!   shrinking (degenerate keys) or exhausts [`MAX_RELOAD_DEPTH`] goes to a
//!   streaming block nested-loop join that processes the build side in
//!   share-sized chunks. All seven [`JoinType`]s are preserved through every
//!   level.
//!
//! [`HybridJoinSource`] runs the reloads, one task per closed pair. For a
//! build-preserving join type it also scans the resident table, and it
//! starts the join's output pipeline; for the others the resident rows were
//! joined in flight, and it continues the probe pipeline.
//!
//! A join's [`Residual`] rides along and is tested where each level joins:
//! in the [`RadixJoinSource`] of the RJ and BRJ, and in the [`BhjProbeOp`]s
//! of the HHJ's levels and nested loop. This module never evaluates it.

use crate::bhj::{self, BhjProbeOp, BhjState, BhjUnmatchedSource};
use crate::ht_chain::FIRST_PAGE_BYTES;
use crate::join_common::{default_column, JoinType, Residual};
use crate::radix::{
    ClosedSet, Eviction, PartitionSink, PartitionedSide, PhaseSet, RadixConfig, RouteOp,
};
use crate::rj::RadixJoinSource;
use crate::row::RowLayout;
use crate::spill::{SpillDir, SpillFile, SpillReader, WRITE_BUF_BYTES};
use crate::swwcb::SWWCB_BYTES;
use joinstudy_exec::batch::Batch;
use joinstudy_exec::context::{BudgetLease, QueryContext};
use joinstudy_exec::error::{ExecError, ExecResult};
use joinstudy_exec::pipeline::{Emit, Operator, Sink, Source};
use joinstudy_exec::{trace, Executor};
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::types::DataType;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cap on the log2 pass-1 fan-out of a join that may evict under a memory
/// budget, beside [`RadixConfig::bits_pass1`]; a small budget lowers it
/// further ([`Level`]). Pass-1 pre-partitions are the spill unit, and every
/// one that is closed costs a run file per side. On ext4 (a 2-vCPU host,
/// yardstick seeds 42 and 43) a cap of 6 bits instead of 4 made every
/// hybrid pass slower: `tpch` 0.30–0.34 s against 0.23 s, `spill_stream`
/// 0.99–1.16 s against 0.79–0.82 s, `micro_fk` 0.34–0.37 s against 0.28 s.
const SPILL_FANOUT_BITS: u32 = 4;

/// Deepest reload level; beyond it a closed pair degrades to the streaming
/// nested-loop fallback.
const MAX_RELOAD_DEPTH: u32 = 4;

/// Smallest write buffer a spill run is opened with.
const MIN_WRITE_BUF: usize = 1024;

/// The victim policy: close the largest resident pre-partition — the most
/// memory freed per run opened, and the most partitions left resident
/// ("Design Trade-offs for a Robust Dynamic Hybrid Hash Join"). `resident`
/// is bytes per pre-partition, zero for closed or empty ones. A
/// correlation-aware choice (NOCAP: keep the partitions whose keys the probe
/// side hits most) would replace this function and nothing else.
pub fn largest_resident(resident: &[usize]) -> Option<usize> {
    let (victim, &bytes) = resident.iter().enumerate().max_by_key(|(_, &b)| b)?;
    (bytes > 0).then_some(victim)
}

/// Bytes one join level needs before it holds a single row, at pass-1
/// fan-out `fanout` on `workers` workers. A level partitions its build side
/// only: per worker one write-combine slot and one first page per
/// pre-partition, plus one run's write buffer per pre-partition. Its probe
/// side holds no pages, only one run's write buffer per closed
/// pre-partition, which the build side's sealed runs have given back: the
/// build side sets the floor.
pub fn min_working_set(fanout: usize, workers: usize) -> usize {
    workers * fanout * (SWWCB_BYTES + FIRST_PAGE_BYTES) + fanout * MIN_WRITE_BUF
}

/// One level of a hybrid join: which hash bits its pass 1 reads, how wide,
/// and how many bytes it may hold.
#[derive(Debug, Clone, Copy)]
pub struct Level {
    /// Bytes this level's sink, table, runs and reloads may hold between
    /// them; `None` without a budget.
    share: Option<usize>,
    workers: usize,
    /// 0 for the join's own inputs, +1 per reload.
    depth: u32,
    shift: u32,
    bits1: u32,
}

/// Widest pass-1 fan-out of at most `max_bits` whose minimum working set
/// fits half of `share` (the other half is for rows). A level with a share
/// may spill, so its fan-out is also capped at [`SPILL_FANOUT_BITS`].
fn fit_bits(share: Option<usize>, workers: usize, max_bits: u32) -> Option<u32> {
    let Some(share) = share else {
        return Some(max_bits);
    };
    (1..=max_bits.clamp(1, SPILL_FANOUT_BITS))
        .rev()
        .find(|&bits| 2 * min_working_set(1 << bits, workers) <= share)
}

impl Level {
    pub fn bits1(&self) -> u32 {
        self.bits1
    }

    pub fn fanout(&self) -> usize {
        1 << self.bits1
    }

    /// The level a closed pair of this one is reloaded at: the next
    /// hash-bit window, on the one worker that runs the reload task, under
    /// what this level's share leaves beside the `held` bytes still resident
    /// (a table whose build rows are scanned beside the reloads).
    /// Reloads of a join's own inputs run beside each other, so each gets
    /// an equal part — no two tasks ever compete for the same headroom.
    /// Deeper levels run one after another inside their task.
    fn child(&self, max_bits: u32, held: usize) -> Level {
        let share = self.share.map(|s| s.saturating_sub(held) / self.workers);
        Level {
            share,
            workers: 1,
            depth: self.depth + 1,
            shift: self.shift + self.bits1,
            bits1: fit_bits(share, 1, max_bits).unwrap_or(1),
        }
    }

    /// The part of the share that rows may take: all but the runs' write
    /// buffers ([`Level::write_buf`], at most a quarter between them).
    fn rows_share(&self) -> Option<usize> {
        self.share
            .map(|s| s.saturating_sub(self.fanout() * self.write_buf()))
    }

    /// Bytes one worker's pass-1 pages may reach: its part of the rows that
    /// fit when each costs its row (`stride`) and up to two buckets of the
    /// table it becomes.
    fn worker_cap(&self, stride: usize) -> usize {
        self.table_cap() / (stride + 16) * stride / self.workers
    }

    /// Bytes the level's table, rows and buckets, may hold.
    fn table_cap(&self) -> usize {
        self.rows_share().unwrap_or(usize::MAX)
    }

    /// Build-row bytes of one chunk of the nested loop: half of what rows
    /// may take, the other half being the chunk's hash table.
    fn chunk_bytes(&self) -> usize {
        self.rows_share().map_or(usize::MAX, |s| s / 2)
    }

    fn write_buf(&self) -> usize {
        self.share.map_or(WRITE_BUF_BYTES, |s| {
            (s / 4 / self.fanout()).clamp(MIN_WRITE_BUF, WRITE_BUF_BYTES)
        })
    }
}

/// A closed partition's rows on one side: a finished spill run, or nothing.
struct Run(Option<SpillFile>);

impl Run {
    fn rows(&self) -> u64 {
        self.0.as_ref().map_or(0, SpillFile::rows)
    }

    /// Re-iterable: the nested loop streams the same run repeatedly.
    fn stream(&self, ctx: &Arc<QueryContext>) -> ExecResult<RunStream> {
        let reader = self.0.as_ref().map(|f| SpillReader::open(f, ctx));
        Ok(RunStream(reader.transpose()?))
    }

    /// Eagerly reclaim a consumed run (the dir guard is the backstop).
    fn discard(self) {
        if let Some(file) = self.0 {
            file.remove();
        }
    }
}

struct RunStream(Option<SpillReader>);

impl RunStream {
    fn next(&mut self) -> ExecResult<Option<Batch>> {
        match &mut self.0 {
            Some(reader) => reader.read_batch(),
            None => Ok(None),
        }
    }
}

/// A closed pre-partition of one level: its build rows and its probe rows.
struct ClosedPair {
    build: Run,
    probe: Run,
    /// The build run holds every build row of its level: the level's hash
    /// bits did not split them, another level will not either.
    stuck: bool,
}

/// What an HHJ level's build side left: the open pre-partitions' rows as
/// one BHJ table, the closed ones' rows in runs.
pub struct LevelTable {
    pub state: Arc<BhjState>,
    /// Per pre-partition: a closed one's build run.
    runs: Vec<Option<SpillFile>>,
    /// The closed pre-partitions, ascending.
    closed: Vec<usize>,
    evictions: usize,
}

impl LevelTable {
    /// Pre-partitions the build side closed.
    pub fn closed_partitions(&self) -> usize {
        self.closed.len()
    }

    /// Pre-partitions the build side closed under memory pressure.
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    fn runs(&self) -> impl Iterator<Item = &SpillFile> {
        self.runs.iter().flatten()
    }

    /// Build rows, resident and spilled.
    pub fn build_rows(&self) -> u64 {
        self.state.rows as u64 + self.runs().map(SpillFile::rows).sum::<u64>()
    }

    /// Bytes the table holds of the level's share while the level's
    /// reloads run: its rows and buckets.
    fn held(&self) -> usize {
        let state = &self.state;
        state.rows * state.layout.stride() + state.table.num_buckets() * 8
    }
}

/// Everything the levels of one partitioned join share.
pub struct HybridJoin {
    pub ctx: Arc<QueryContext>,
    /// Where the runs of closed partitions go; `None` unless this join
    /// evicts ([`HybridJoin::open_spill_dir`]).
    pub dir: Option<Arc<SpillDir>>,
    pub radix: RadixConfig,
    pub build_types: Vec<DataType>,
    pub probe_types: Vec<DataType>,
    pub build_keys: Vec<usize>,
    pub probe_keys: Vec<usize>,
    pub kind: JoinType,
    /// Tested on the key-equal candidates of every level's join.
    pub residual: Option<Arc<Residual>>,
    pub prefetch: bool,
    /// Makes run names unique across sinks and levels.
    pub seq: AtomicU64,
    /// Deepest level a reload reached (EXPLAIN ANALYZE's `reload_depth`).
    pub reload_depth: Arc<AtomicU64>,
    /// Runs of the join's own inputs on disk, both sides, and their bytes
    /// (`spill_partitions`, `spill_bytes`): the probe runs are known only
    /// once the probe side has streamed.
    pub spill_runs: Arc<AtomicU64>,
    pub spill_bytes: Arc<AtomicU64>,
}

impl HybridJoin {
    /// Let this join evict: the partitions its build sinks close go to runs
    /// in a fresh spill directory. Only the ladder's last rung, the HHJ,
    /// does.
    pub fn open_spill_dir(&mut self) -> ExecResult {
        self.dir = Some(SpillDir::create(self.ctx.spill_dir())?);
        Ok(())
    }

    /// The level of the join's own inputs on `workers` workers under
    /// `share` bytes (`None` for a join that does not evict): the fan-out
    /// *shrinks to fit* the share. `Err` carries the smallest share that
    /// would do, when even two partitions do not.
    pub fn top_level(&self, share: Option<usize>, workers: usize) -> Result<Level, usize> {
        let bits1 = fit_bits(share, workers, self.radix.bits_pass1)
            .ok_or(2 * min_working_set(2, workers))?;
        Ok(Level {
            share,
            workers,
            depth: 0,
            shift: 0,
            bits1,
        })
    }

    /// The radix sink of one side on `level`'s hash-bit window; its rows
    /// carry the BHJ's chain `header` when they are to be linked into a
    /// table.
    fn plain_sink(&self, level: &Level, build_side: bool, header: bool) -> PartitionSink {
        let (types, keys, phases) = if build_side {
            (&self.build_types, &self.build_keys, PhaseSet::build())
        } else {
            (&self.probe_types, &self.probe_keys, PhaseSet::probe())
        };
        let radix = RadixConfig {
            bits_pass1: level.bits1,
            ..self.radix
        };
        PartitionSink::new(RowLayout::new(types, header), keys.clone(), radix, phases)
            .with_context(Arc::clone(&self.ctx))
            .with_shift(level.shift)
    }

    /// The build side's sink at `level`. It evicts when this join does,
    /// closing pre-partitions in `closed`, and its rows are then those of
    /// the level's table ([`PartitionSink::finalize_table`]).
    pub fn build_sink(&self, level: &Level, closed: &Arc<ClosedSet>) -> PartitionSink {
        let Some(dir) = &self.dir else {
            return self.plain_sink(level, true, false);
        };
        let sink = self.plain_sink(level, true, true);
        let stride = sink.layout().stride();
        sink.with_eviction(Eviction {
            closed: Arc::clone(closed),
            dir: Arc::clone(dir),
            tag: format!("build-{}", self.seq.fetch_add(1, Ordering::Relaxed)),
            worker_cap: level.worker_cap(stride),
            write_buf: level.write_buf(),
            victim: largest_resident,
        })
    }

    /// The probe side's sink at `level` of a join that partitions it (the RJ
    /// and BRJ).
    pub fn probe_sink(&self, level: &Level) -> PartitionSink {
        self.plain_sink(level, false, false)
    }

    /// The radix join of two sides partitioned alike (the RJ and BRJ).
    pub fn radix_join(&self, build: PartitionedSide, probe: PartitionedSide) -> RadixJoinSource {
        RadixJoinSource::new(
            Arc::new(build),
            Arc::new(probe),
            self.build_keys.clone(),
            self.probe_keys.clone(),
            self.kind,
            self.residual.clone(),
        )
    }

    /// Finish `level`'s evicting build sink, whose input is complete: the
    /// open pre-partitions become its table, linked on `exec`, the closed
    /// ones (in `closed`) keep their runs.
    pub fn table(
        &self,
        level: &Level,
        sink: &PartitionSink,
        closed: &ClosedSet,
        exec: &Executor,
    ) -> ExecResult<LevelTable> {
        let state = sink.finalize_table(level.table_cap(), exec, &self.ctx)?;
        Ok(LevelTable {
            state,
            runs: sink.take_runs()?,
            closed: closed.closed(),
            evictions: sink.evictions(),
        })
    }

    /// The probe side of the level `sink` partitioned the build side of: a
    /// route to the runs of its closed pre-partitions in front of the probe
    /// of its `table`.
    pub fn route(&self, table: &LevelTable, sink: &PartitionSink) -> RouteOp {
        let probe = self.probe_op(&table.state, self.kind);
        let tag = format!("probe-{}", self.seq.fetch_add(1, Ordering::Relaxed));
        RouteOp::new(probe, self.probe_keys.clone(), sink, tag)
    }

    /// Closed pre-partition `p`'s pair, once its level's probe side is done,
    /// or `None` when it cannot produce a row: no probe rows (unless
    /// unmatched build rows are the answer), or no build rows (unless
    /// unmatched probe rows are).
    fn pair(&self, build: Run, probe: Run, level_build_rows: u64) -> Option<ClosedPair> {
        let idle = (probe.rows() == 0 && self.kind != JoinType::BuildAnti)
            || (build.rows() == 0 && !self.kind.probe_tuples_survive_unmatched());
        if idle {
            build.discard();
            probe.discard();
            return None;
        }
        let stuck = build.rows() == level_build_rows;
        Some(ClosedPair {
            build,
            probe,
            stuck,
        })
    }

    /// Join a closed pair at `level`, one hash-bit window below the level
    /// that closed it, as the join's own inputs were joined: the build run
    /// through the evicting sink, the probe run through a [`RouteOp`] over
    /// the table of what fit. Then the table goes, and what closed again is
    /// reloaded one level further down.
    fn reload(&self, pair: ClosedPair, level: Level, out: Emit) -> ExecResult {
        self.ctx.check()?;
        let can_split = !pair.stuck
            && level.depth <= MAX_RELOAD_DEPTH
            && level.shift + level.bits1 + self.radix.max_bits_pass2 <= 64;
        if !can_split {
            return self.block_nested_loop(pair.build, pair.probe, &level, out);
        }
        let closed = ClosedSet::new(level.fanout());
        let sink = self.build_sink(&level, &closed);
        let mut local = sink.create_local();
        let mut stream = pair.build.stream(&self.ctx)?;
        while let Some(batch) = stream.next()? {
            sink.consume(&mut local, batch)?;
        }
        sink.finish_local(local)?;
        drop(stream);
        pair.build.discard();
        // This runs inside a task: the table is linked on this worker.
        let mut table = self.table(&level, &sink, &closed, &Executor::new(1))?;

        let route = self.route(&table, &sink);
        let mut local = route.create_local();
        let mut stream = pair.probe.stream(&self.ctx)?;
        while let Some(batch) = stream.next()? {
            route.process(&mut local, batch, out)?;
        }
        route.flush(&mut local, out)?;
        drop(stream);
        pair.probe.discard();
        if self.kind.preserves_build() {
            let rows = BhjUnmatchedSource::new(Arc::clone(&table.state), self.kind);
            for t in 0..rows.task_count() {
                rows.poll_task(t, out)?;
            }
        }

        if !table.closed.is_empty() {
            let closed = table.closed.len();
            let depth = level.depth;
            trace::instant(
                &self.ctx,
                format!("HHJ recurse: {closed} partitions closed again at depth {depth}"),
            );
            self.ctx.note_spill_recursion(u64::from(level.depth));
            self.reload_depth
                .fetch_max(u64::from(level.depth), Ordering::Relaxed);
        }
        let build_rows = table.build_rows();
        let mut pairs = Vec::new();
        for &p in &table.closed {
            let (build, probe) = (Run(table.runs[p].take()), Run(route.take_run(p)?));
            pairs.extend(self.pair(build, probe, build_rows));
        }
        // The level's table goes before anything is read back.
        drop(route);
        drop(table);
        let child = level.child(self.radix.bits_pass1, 0);
        for pair in pairs {
            self.ctx.check()?;
            self.reload(pair, child, out)?;
        }
        Ok(())
    }

    /// A probe of `state` as `kind`, testing the join's residual.
    fn probe_op(&self, state: &Arc<BhjState>, kind: JoinType) -> BhjProbeOp {
        let keys = self.probe_keys.clone();
        let residual = self.residual.clone();
        BhjProbeOp::new(Arc::clone(state), keys, kind, self.prefetch, residual)
    }

    /// Probe `state` with the partition's probe side, streaming output.
    /// Handles the build-preserving variants' unmatched scan; correct
    /// because each chunk of the nested loop holds every build row of it
    /// exactly once.
    fn probe_into(&self, state: &Arc<BhjState>, probe: &Run, out: Emit) -> ExecResult {
        let op = self.probe_op(state, self.kind);
        let mut local = op.create_local();
        let mut stream = probe.stream(&self.ctx)?;
        while let Some(batch) = stream.next()? {
            op.process(&mut local, batch, out)?;
        }
        op.flush(&mut local, out)?;
        if self.kind.preserves_build() {
            let unmatched = BhjUnmatchedSource::new(Arc::clone(state), self.kind);
            for t in 0..unmatched.task_count() {
                unmatched.poll_task(t, out)?;
            }
        }
        Ok(())
    }

    /// Streaming block nested-loop fallback: the build side is consumed in
    /// chunks sized to `level`'s share, each probed with the full probe
    /// side. Probe-preserving variants collect a cross-chunk match bitmap
    /// (charged against the budget) and emit survivors in one final probe
    /// pass.
    fn block_nested_loop(&self, build: Run, probe: Run, level: &Level, out: Emit) -> ExecResult {
        let rows = build.rows();
        trace::instant(
            &self.ctx,
            format!("HHJ fallback: block nested loop ({rows} build rows)"),
        );
        self.ctx.note_bnl_fallback();
        let needs_bitmap = matches!(
            self.kind,
            JoinType::ProbeSemi | JoinType::ProbeAnti | JoinType::ProbeMark | JoinType::ProbeOuter
        );
        let probe_rows = probe.rows() as usize;
        let mut bitmap_lease = BudgetLease::empty(&self.ctx);
        let mut matched = Vec::new();
        if needs_bitmap {
            bitmap_lease.grow(probe_rows)?;
            matched = vec![false; probe_rows];
        }

        let stride = RowLayout::new(&self.build_types, true).stride();
        let mut stream = build.stream(&self.ctx)?;
        let mut carry: Option<Batch> = None;
        let mut exhausted = false;
        while !exhausted {
            // Assemble one chunk: consume until the budget refuses (leaving
            // the refused batch for the next chunk) or the chunk has its
            // part of the share (the rest is the chunk's hash table).
            let sink = bhj::build_sink(&self.build_types, self.build_keys.clone())
                .with_context(Arc::clone(&self.ctx));
            let mut local = sink.create_local();
            let mut chunk_rows = 0u64;
            loop {
                let batch = match carry.take() {
                    Some(b) => b,
                    None => match stream.next()? {
                        Some(b) => b,
                        None => {
                            exhausted = true;
                            break;
                        }
                    },
                };
                let rows = batch.num_rows() as u64;
                match sink.consume(&mut local, batch.clone()) {
                    Ok(()) => chunk_rows += rows,
                    Err(ExecError::BudgetExceeded { .. }) if chunk_rows > 0 => {
                        carry = Some(batch);
                        break;
                    }
                    Err(e) => return Err(e),
                }
                if chunk_rows as usize * stride >= level.chunk_bytes() {
                    break;
                }
            }
            if chunk_rows == 0 && exhausted {
                break;
            }
            sink.finish_local(local)?;
            let state = sink.finalize_table(usize::MAX, &Executor::new(1), &self.ctx)?;
            self.probe_chunk(&state, &probe, &mut matched, out)?;
        }
        drop(stream);

        if needs_bitmap {
            self.emit_from_bitmap(&probe, &matched, out)?;
        }
        drop(bitmap_lease);
        build.discard();
        probe.discard();
        Ok(())
    }

    /// Probe the full probe side against one build chunk.
    fn probe_chunk(
        &self,
        state: &Arc<BhjState>,
        probe: &Run,
        matched: &mut [bool],
        out: Emit,
    ) -> ExecResult {
        match self.kind {
            // Build-preserving variants are correct per chunk: every build
            // row lives in exactly one chunk, so per-chunk unmatched scans
            // partition the overall answer.
            JoinType::Inner | JoinType::BuildSemi | JoinType::BuildAnti => {
                self.probe_into(state, probe, out)
            }
            JoinType::ProbeSemi | JoinType::ProbeAnti | JoinType::ProbeMark => {
                self.mark_chunk(state, probe, matched, None)
            }
            JoinType::ProbeOuter => {
                // Inner pairs stream out per chunk; unmatched probe rows are
                // resolved by the bitmap after the last chunk.
                self.mark_chunk(state, probe, matched, Some(out))
            }
        }
    }

    /// Run a `ProbeMark` pass over the probe side, OR-ing the mark column
    /// into the global bitmap. With `pairs`, additionally emit the inner
    /// matches of this chunk (the `ProbeOuter` case).
    fn mark_chunk(
        &self,
        state: &Arc<BhjState>,
        probe: &Run,
        matched: &mut [bool],
        mut pairs: Option<Emit>,
    ) -> ExecResult {
        let mark_op = self.probe_op(state, JoinType::ProbeMark);
        let inner_op = self.probe_op(state, JoinType::Inner);
        let mut mark_local = mark_op.create_local();
        let mut inner_local = inner_op.create_local();
        let mut stream = probe.stream(&self.ctx)?;
        let mut offset = 0usize;
        while let Some(batch) = stream.next()? {
            let n = batch.num_rows();
            if let Some(out) = pairs.as_mut() {
                inner_op.process(&mut inner_local, batch.clone(), out)?;
            }
            // ProbeMark preserves input order and row count, appending the
            // mark as the last column.
            mark_op.process(&mut mark_local, batch, &mut |b: Batch| {
                let marks = b.column(b.num_columns() - 1).as_bool();
                for (i, &m) in marks.iter().enumerate() {
                    if m {
                        matched[offset + i] = true;
                    }
                }
            })?;
            offset += n;
        }
        // The mark probe tested every candidate once; the inner probe of
        // the same batches keeps its residual counts to itself.
        mark_op.flush(&mut mark_local, &mut |_| {})
    }

    /// Final probe pass of the nested loop: emit the probe-preserving
    /// variants' answer from the cross-chunk bitmap.
    fn emit_from_bitmap(&self, probe: &Run, matched: &[bool], out: Emit) -> ExecResult {
        let mut stream = probe.stream(&self.ctx)?;
        let mut offset = 0usize;
        let mut sel = Vec::new();
        while let Some(batch) = stream.next()? {
            let n = batch.num_rows();
            let bits = &matched[offset..offset + n];
            offset += n;
            match self.kind {
                JoinType::ProbeSemi | JoinType::ProbeAnti => {
                    let keep = self.kind == JoinType::ProbeSemi;
                    sel.clear();
                    sel.extend(
                        bits.iter()
                            .enumerate()
                            .filter(|(_, &m)| m == keep)
                            .map(|(i, _)| i as u32),
                    );
                    if !sel.is_empty() {
                        out(batch.take(&sel));
                    }
                }
                JoinType::ProbeMark => {
                    let mut b = batch;
                    b.push_column(ColumnData::Bool(bits.to_vec()));
                    out(b);
                }
                JoinType::ProbeOuter => {
                    sel.clear();
                    sel.extend(
                        bits.iter()
                            .enumerate()
                            .filter(|(_, &m)| !m)
                            .map(|(i, _)| i as u32),
                    );
                    if sel.is_empty() {
                        continue;
                    }
                    let k = sel.len();
                    let pb = batch.take(&sel);
                    let mut columns = Vec::with_capacity(self.build_types.len() + pb.num_columns());
                    let mut validity = Vec::with_capacity(columns.capacity());
                    for &t in &self.build_types {
                        columns.push(default_column(t, k));
                        validity.push(Some(vec![false; k]));
                    }
                    for c in 0..pb.num_columns() {
                        validity.push(pb.validity(c).clone());
                    }
                    columns.extend(pb.into_columns());
                    out(Batch::with_validity(columns, validity));
                }
                _ => unreachable!("bitmap emission only for probe-preserving variants"),
            }
        }
        Ok(())
    }
}

/// The HHJ's source after its top level's probe side: one reload task per
/// closed pair, claimed dynamically and run concurrently, and — for a
/// build-preserving join type — the resident table's build-row scan first.
pub struct HybridJoinSource {
    join: Arc<HybridJoin>,
    resident: Option<BhjUnmatchedSource>,
    /// Holds the top level's probe runs until their reload tasks take them,
    /// and its table until the first reload releases it.
    route: Arc<RouteOp>,
    /// Per closed pre-partition: it and its build run, until its reload
    /// task takes them.
    builds: Vec<Mutex<Option<(usize, Run)>>>,
    build_rows: u64,
    child: Level,
}

impl HybridJoinSource {
    /// The source of `level`, the join's own inputs, whose build side left
    /// `table` and whose probe side streams (or streamed) through `route`.
    pub fn new(
        join: Arc<HybridJoin>,
        level: &Level,
        mut table: LevelTable,
        route: Arc<RouteOp>,
    ) -> HybridJoinSource {
        let runs = table.runs().count() as u64;
        let bytes = table.runs().map(SpillFile::bytes).sum();
        join.spill_runs.fetch_add(runs, Ordering::Relaxed);
        join.spill_bytes.fetch_add(bytes, Ordering::Relaxed);
        let kind = join.kind;
        let resident = kind
            .preserves_build()
            .then(|| BhjUnmatchedSource::new(Arc::clone(&table.state), kind));
        // The first reload releases the table, unless its build rows are
        // still to be scanned beside the reloads.
        let held = if resident.is_some() { table.held() } else { 0 };
        let builds = table
            .closed
            .iter()
            .map(|&p| Mutex::new(Some((p, Run(table.runs[p].take())))))
            .collect();
        HybridJoinSource {
            child: level.child(join.radix.bits_pass1, held),
            build_rows: table.build_rows(),
            join,
            resident,
            route,
            builds,
        }
    }
}

impl Source for HybridJoinSource {
    fn task_count(&self) -> usize {
        self.resident.as_ref().map_or(0, Source::task_count) + self.builds.len()
    }

    fn poll_task(&self, task: usize, out: Emit) -> ExecResult {
        let resident_tasks = self.resident.as_ref().map_or(0, Source::task_count);
        if let Some(resident) = self.resident.as_ref().filter(|_| task < resident_tasks) {
            return resident.poll_task(task, out);
        }
        let (p, build) = self.builds[task - resident_tasks]
            .lock()
            .take()
            .expect("the executor polls each task once");
        // The probe side has streamed: the level's table goes before
        // anything is read back.
        self.route.release();
        let probe = self.route.take_run(p)?;
        if let Some(run) = &probe {
            let join = &self.join;
            join.spill_runs.fetch_add(1, Ordering::Relaxed);
            join.spill_bytes.fetch_add(run.bytes(), Ordering::Relaxed);
        }
        let Some(pair) = self.join.pair(build, Run(probe), self.build_rows) else {
            return Ok(());
        };
        let _scope = trace::phase_scope(&self.join.ctx, format!("HHJ reload p{p}"));
        self.join.reload(pair, self.child, out)
    }
}
