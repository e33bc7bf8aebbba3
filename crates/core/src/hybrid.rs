//! The partitioned joins' pipeline pair: [`HybridJoin`] partitions both
//! inputs of a radix join (RJ), a Bloom-filtered radix join (BRJ) or a
//! dynamic hybrid hash join (HHJ), and [`HybridJoinSource`] joins them. The
//! HHJ is the RJ compiled with an eviction, and only the HHJ — the last rung
//! of the degradation ladder — evicts: it is the out-of-core join, correct
//! under any memory budget that holds its minimum working set
//! ([`min_working_set`]), and naming that floor when one does not. The RJ's
//! and BRJ's sinks lease what they hold and fail when the budget refuses.
//!
//! There is one partitioner, [`crate::radix::PartitionSink`]. This module
//! gives it what it needs to evict and joins what it evicted:
//!
//! * **Open.** Both inputs are radix-partitioned exactly as the RJ does it.
//!   A pre-partition stays *open* — in pages, then in the contiguous
//!   [`PartitionedSide`] — for as long as the join's share of the budget
//!   ([`Level`]) allows, and is joined by the ordinary [`RadixJoinSource`].
//! * **Closed.** When a worker's lease may not grow, the victim policy
//!   ([`largest_resident`]) names a pre-partition to *close*: its rows move
//!   to a [`crate::spill`] run and later ones follow. Closed stays closed,
//!   and the probe side starts from the build side's closed set.
//! * **Reloaded.** After the resident join, each pair closed on both sides
//!   is read back through the same evicting sink on the next hash-bit
//!   window ([`Level::child`]) — which joins what now fits and closes what
//!   still does not. A pair only the probe side closed has its probe run
//!   joined, chunk by chunk, against the build rows that stayed resident. A
//!   pair that stops shrinking (degenerate keys) or exhausts
//!   [`MAX_RELOAD_DEPTH`] goes to a streaming block nested-loop join
//!   that processes the build side in share-sized chunks. All seven
//!   [`JoinType`]s are preserved through every level.
//!
//! A join's [`Residual`] rides along and is tested where each level joins:
//! in the [`RadixJoinSource`] of the resident and reloaded partitions, and
//! in the [`BhjProbeOp`]s of the nested loop. This module never evaluates it.

use crate::bhj::{BhjBuildSink, BhjProbeOp, BhjState, BhjUnmatchedSource};
use crate::bloom::BlockedBloom;
use crate::join_common::{default_column, JoinStats, JoinType, Residual};
use crate::radix::{
    ClosedSet, Eviction, PartitionSink, PartitionedSide, PhaseSet, RadixConfig, FIRST_PAGE_BYTES,
};
use crate::rj::RadixJoinSource;
use crate::row::RowLayout;
use crate::spill::{SpillDir, SpillFile, SpillReader, SpillWriter, WRITE_BUF_BYTES};
use crate::swwcb::SWWCB_BYTES;
use joinstudy_exec::batch::Batch;
use joinstudy_exec::context::{BudgetLease, QueryContext};
use joinstudy_exec::error::{ExecError, ExecResult};
use joinstudy_exec::pipeline::{Emit, Operator, Sink, Source};
use joinstudy_exec::registry;
use joinstudy_exec::trace;
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::types::DataType;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cap on the log2 pass-1 fan-out of a join that may evict under a memory
/// budget, beside [`RadixConfig::bits_pass1`]; a small budget lowers it
/// further ([`Level`]). Pass-1 pre-partitions are the spill unit, and every
/// one that is closed costs a file per side: on the yardstick's `tpch`
/// workload 64 of them ran 1.0–2.0 s a pass on ext4 where 16 run
/// 0.75–0.85 s, with nothing lost on the large joins of `micro_*`.
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
/// fan-out `fanout` on `workers` workers: per worker one write-combine slot
/// and one first page per pre-partition, plus one run's write buffer per
/// pre-partition (a level partitions one side at a time).
pub fn min_working_set(fanout: usize, workers: usize) -> usize {
    workers * fanout * (SWWCB_BYTES + FIRST_PAGE_BYTES) + fanout * MIN_WRITE_BUF
}

/// One level of a hybrid join: which hash bits its pass 1 reads, how wide,
/// and how many bytes it may hold.
#[derive(Debug, Clone, Copy)]
pub struct Level {
    /// Bytes this level's sinks, resident sides and reloads may hold
    /// between them; `None` without a budget.
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
    /// what this level's share leaves beside the `held` bytes still resident.
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

    /// Bytes one worker's pass-1 pages may reach while `held` bytes of the
    /// share are resident already (the build side, when the probe side is
    /// partitioned): half of what is free, because pass 2 copies what stayed
    /// resident before the pages go.
    fn worker_cap(&self, held: usize) -> usize {
        self.rows_share()
            .map_or(usize::MAX, |s| s.saturating_sub(held) / (2 * self.workers))
    }

    /// Row bytes a reload holds at a time of a side it streams — the probe
    /// rows joined against a build partition that stayed resident, the
    /// build rows of a nested-loop chunk: half of what rows may take, the
    /// other half being their pass-2 copy or their hash table.
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

    fn bytes(&self) -> u64 {
        self.0.as_ref().map_or(0, SpillFile::bytes)
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

/// A closed pre-partition: its probe rows are in a run, and so are its
/// build rows — unless only the probe side closed it, after the build rows
/// had become resident (`build` is `None`, the rows are pre-partition `p` of
/// the level's build side).
struct ClosedPair {
    p: usize,
    build: Option<Run>,
    probe: Run,
    /// The build run holds every build row of its level: the level's hash
    /// bits did not split them, another level will not either.
    stuck: bool,
}

/// What a finished sink leaves: its resident side, and one slot per
/// pre-partition for the run of what was closed.
pub type Finished = (PartitionedSide, Vec<Option<SpillFile>>);

/// Both sides of one level, partitioned: the open pre-partitions as a radix
/// join, the closed ones as run pairs.
pub struct Partitioned {
    resident: RadixJoinSource,
    /// Per pre-partition; tasks of the resident join under a closed one are
    /// skipped.
    closed: Vec<bool>,
    pairs: Vec<ClosedPair>,
    /// Build rows of the level, resident and spilled.
    build_rows: u64,
    /// The level its pairs are reloaded at, beside the resident sides.
    child: Level,
}

impl Partitioned {
    pub fn resident_build(&self) -> &Arc<PartitionedSide> {
        self.resident.build()
    }

    pub fn resident_probe(&self) -> &Arc<PartitionedSide> {
        self.resident.probe()
    }

    /// Pre-partitions that stayed open on both sides.
    pub fn resident_partitions(&self) -> usize {
        self.closed.iter().filter(|&&c| !c).count()
    }

    fn sum(&self, f: impl Fn(&ClosedPair) -> u64) -> u64 {
        self.pairs.iter().map(f).sum()
    }

    /// Runs on disk, both sides.
    pub fn spilled_runs(&self) -> usize {
        let on_disk = |run: &Run| u64::from(run.0.is_some());
        self.sum(|p| p.build.as_ref().map_or(0, on_disk) + on_disk(&p.probe)) as usize
    }

    pub fn spilled_bytes(&self) -> u64 {
        self.sum(|p| p.build.as_ref().map_or(0, Run::bytes) + p.probe.bytes())
    }

    /// Build rows, resident and spilled.
    pub fn build_rows(&self) -> u64 {
        self.build_rows
    }

    /// Probe rows, resident and spilled.
    pub fn probe_rows(&self) -> u64 {
        self.resident_probe().total_rows() as u64 + self.sum(|p| p.probe.rows())
    }

    /// Count the resident join's probe matches into `stats`.
    pub fn with_stats(mut self, stats: Arc<JoinStats>) -> Partitioned {
        self.resident = self.resident.with_stats(stats);
        self
    }

    /// Run one resident-join task unless its pre-partition is closed.
    fn poll_resident(&self, task: usize, out: Emit) -> ExecResult {
        if self.closed[task >> self.resident_build().bits2()] {
            return Ok(());
        }
        self.resident.poll_task(task, out)
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
}

impl HybridJoin {
    /// Let this join evict: the partitions its sinks close go to runs in a
    /// fresh spill directory. Only the ladder's last rung, the HHJ, does.
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

    /// The radix sink of one side on `level`'s hash-bit window.
    fn plain_sink(&self, level: &Level, build_side: bool) -> PartitionSink {
        let (types, keys, phases) = if build_side {
            (&self.build_types, &self.build_keys, PhaseSet::build())
        } else {
            (&self.probe_types, &self.probe_keys, PhaseSet::probe())
        };
        let radix = RadixConfig {
            bits_pass1: level.bits1,
            ..self.radix
        };
        PartitionSink::new(RowLayout::new(types, false), keys.clone(), radix, phases)
            .with_context(Arc::clone(&self.ctx))
            .with_shift(level.shift)
    }

    /// The sink of one side at `level`: the build side's, or (`build`
    /// given) the probe side's beside that resident build side. It evicts
    /// when this join does.
    pub fn sink(
        &self,
        level: &Level,
        closed: &Arc<ClosedSet>,
        build: Option<&PartitionedSide>,
    ) -> PartitionSink {
        let sink = self.plain_sink(level, build.is_none());
        let Some(dir) = &self.dir else {
            return sink;
        };
        let side = if build.is_some() { "probe" } else { "build" };
        let held = build.map_or(0, |b| b.total_rows() * b.layout().stride());
        sink.with_eviction(Eviction {
            closed: Arc::clone(closed),
            dir: Arc::clone(dir),
            tag: format!("{side}-{}", self.seq.fetch_add(1, Ordering::Relaxed)),
            worker_cap: level.worker_cap(held),
            write_buf: level.write_buf(),
            victim: largest_resident,
        })
    }

    /// The radix join of two sides partitioned alike.
    fn radix_join(&self, build: Arc<PartitionedSide>, probe: PartitionedSide) -> RadixJoinSource {
        RadixJoinSource::new(
            build,
            Arc::new(probe),
            self.build_keys.clone(),
            self.probe_keys.clone(),
            self.kind,
            self.residual.clone(),
        )
    }

    /// Run pass 2 of a sink whose input is complete, building the Bloom
    /// filter in it when asked to (the BRJ's build side), and seal its runs.
    pub fn finish(
        sink: &PartitionSink,
        threads: usize,
        bits2: Option<u32>,
        bloom: bool,
    ) -> ExecResult<(Finished, Option<BlockedBloom>)> {
        let (side, filter) = sink.finalize(threads, bits2, bloom)?;
        Ok(((side, sink.take_runs()?), filter))
    }

    /// Pair up what two finalized sinks of one level left: the resident
    /// sides become a radix join, the runs closed pairs. A pre-partition
    /// only the probe side closed keeps its build rows resident and has its
    /// probe run joined against them chunk by chunk — except under a
    /// build-preserving join type with more probe rows than one chunk
    /// (unmatched build rows are only known after the last probe row): there
    /// the build rows follow the probe rows to disk.
    pub fn pair_up(
        &self,
        level: &Level,
        closed: &ClosedSet,
        build: Finished,
        probe: Finished,
    ) -> ExecResult<Partitioned> {
        let (bside, mut bruns) = build;
        let (pside, mut pruns) = probe;
        let bytes = |side: &PartitionedSide| side.total_rows() * side.layout().stride();
        let child = level.child(self.radix.bits_pass1, bytes(&bside) + bytes(&pside));
        let mut build_rows = bside.total_rows() as u64;
        let mut is_closed = vec![false; level.fanout()];
        let mut pairs = Vec::new();
        for p in closed.closed() {
            is_closed[p] = true;
            let probe = Run(pruns[p].take());
            let resident = bside.prepartition_rows(p);
            let build = if resident == 0 {
                let run = Run(bruns[p].take());
                build_rows += run.rows();
                Some(run)
            } else if self.kind.preserves_build()
                && probe.rows() as usize * pside.layout().stride() > child.chunk_bytes()
            {
                let dir = self
                    .dir
                    .as_ref()
                    .expect("only an evicting join closes partitions");
                let name = format!("demoted-{}-p{p}", self.seq.fetch_add(1, Ordering::Relaxed));
                let mut run = SpillWriter::create_sized(dir, &name, &self.ctx, level.write_buf())?;
                bside.spill_prepartition(p, &mut run)?;
                Some(Run(Some(run.finish()?)))
            } else {
                None
            };
            if build.as_ref().map_or(resident as u64, Run::rows) + probe.rows() > 0 {
                pairs.push(ClosedPair {
                    p,
                    build,
                    probe,
                    stuck: false,
                });
            }
        }
        for pair in &mut pairs {
            pair.stuck = pair.build.as_ref().is_some_and(|b| b.rows() == build_rows);
        }
        Ok(Partitioned {
            resident: self.radix_join(Arc::new(bside), pside),
            closed: is_closed,
            pairs,
            build_rows,
            child,
        })
    }

    /// Join one closed pair of `parent`, the level that closed it, at
    /// `level`.
    fn reload(
        &self,
        parent: &Partitioned,
        pair: ClosedPair,
        level: Level,
        out: Emit,
    ) -> ExecResult {
        self.ctx.check()?;
        match pair.build {
            Some(build) => self.reload_both(build, pair.probe, pair.stuck, level, out),
            None => self.reload_probe(parent, pair.p, pair.probe, level, out),
        }
    }

    /// Join a probe run against pre-partition `p` of `parent`'s resident
    /// build side: partition a chunk of it exactly as the resident probe
    /// side was, run p's tasks of the radix join, drop the chunk, repeat.
    fn reload_probe(
        &self,
        parent: &Partitioned,
        p: usize,
        probe: Run,
        level: Level,
        out: Emit,
    ) -> ExecResult {
        let build = parent.resident_build();
        let geometry = Level {
            shift: level.shift - build.bits1(),
            bits1: build.bits1(),
            ..level
        };
        let bits2 = build.bits2();
        let stride = parent.resident_probe().layout().stride();
        let mut stream = probe.stream(&self.ctx)?;
        let mut carry = stream.next()?;
        loop {
            let sink = self.plain_sink(&geometry, false);
            let mut local = sink.create_local();
            let mut fed = 0;
            // At least one batch, then as many as keep the chunk in bounds.
            while let Some(batch) = carry.take() {
                let bytes = batch.num_rows() * stride;
                if fed > 0 && fed + bytes > level.chunk_bytes() {
                    carry = Some(batch);
                    break;
                }
                fed += bytes;
                sink.consume(&mut local, batch)?;
                carry = stream.next()?;
            }
            sink.finish_local(local)?;
            let (chunk, _) = sink.finalize(1, Some(bits2), false)?;
            let join = self.radix_join(Arc::clone(build), chunk);
            for task in p << bits2..(p + 1) << bits2 {
                join.poll_task(task, out)?;
            }
            if carry.is_none() {
                break;
            }
        }
        drop(stream);
        probe.discard();
        Ok(())
    }

    /// Join a pair of runs at `level`: partition both on the level's
    /// hash-bit window through the evicting sink, join what stayed
    /// resident, free it, then reload what was closed again one level down.
    fn reload_both(
        &self,
        build: Run,
        probe: Run,
        stuck: bool,
        level: Level,
        out: Emit,
    ) -> ExecResult {
        let can_split = !stuck
            && level.depth <= MAX_RELOAD_DEPTH
            && level.shift + level.bits1 + self.radix.max_bits_pass2 <= 64;
        if !can_split {
            return self.block_nested_loop(build, probe, &level, out);
        }
        let closed = ClosedSet::new(level.fanout());
        let partition = |run: Run, beside: Option<&PartitionedSide>, bits2: Option<u32>| {
            let sink = self.sink(&level, &closed, beside);
            let mut local = sink.create_local();
            let mut stream = run.stream(&self.ctx)?;
            while let Some(batch) = stream.next()? {
                sink.consume(&mut local, batch)?;
            }
            sink.finish_local(local)?;
            drop(stream);
            run.discard();
            Ok(HybridJoin::finish(&sink, 1, bits2, false)?.0)
        };
        let build = partition(build, None, None)?;
        let probe = partition(probe, Some(&build.0), Some(build.0.bits2()))?;
        let mut parts = self.pair_up(&level, &closed, build, probe)?;
        if !parts.pairs.is_empty() {
            trace::instant(format!(
                "HHJ recurse: {} pairs closed again at depth {}",
                parts.pairs.len(),
                level.depth
            ));
            self.ctx.note_spill_depth(u64::from(level.depth));
            self.reload_depth
                .fetch_max(u64::from(level.depth), Ordering::Relaxed);
            registry::global().counter("spill.recursions").inc();
        }
        for task in 0..parts.resident.task_count() {
            parts.poll_resident(task, out)?;
        }
        // Pairs whose build rows are resident go first; the resident sides
        // go before anything else is read back.
        let (on_resident, on_disk): (Vec<_>, Vec<_>) = std::mem::take(&mut parts.pairs)
            .into_iter()
            .partition(|pair| pair.build.is_none());
        for pair in on_resident {
            self.reload(&parts, pair, parts.child, out)?;
        }
        drop(parts);
        let child = level.child(self.radix.bits_pass1, 0);
        for pair in on_disk {
            let build = pair.build.expect("partitioned on it");
            self.ctx.check()?;
            self.reload_both(build, pair.probe, pair.stuck, child, out)?;
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
        trace::instant(format!(
            "HHJ fallback: block nested loop ({} build rows)",
            build.rows()
        ));
        registry::global().counter("spill.bnl_fallbacks").inc();
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
            let sink = BhjBuildSink::new(&self.build_types, self.build_keys.clone())
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
            let state = sink.into_state(1)?;
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

/// Source of a partitioned join's output pipeline: the resident radix
/// join's tasks (parallel, per-worker reused tables), then one reload task
/// per closed pair — all claimed dynamically, all running concurrently.
pub struct HybridJoinSource {
    join: Arc<HybridJoin>,
    parts: Partitioned,
    /// `parts.pairs`, moved out so each reload task can take its own.
    pairs: Vec<Mutex<Option<ClosedPair>>>,
}

impl HybridJoinSource {
    pub fn new(join: Arc<HybridJoin>, mut parts: Partitioned) -> HybridJoinSource {
        let pairs = std::mem::take(&mut parts.pairs);
        HybridJoinSource {
            join,
            parts,
            pairs: pairs.into_iter().map(|p| Mutex::new(Some(p))).collect(),
        }
    }
}

impl Source for HybridJoinSource {
    fn task_count(&self) -> usize {
        self.parts.resident.task_count() + self.pairs.len()
    }

    fn poll_task(&self, task: usize, out: Emit) -> ExecResult {
        let resident_tasks = self.parts.resident.task_count();
        if task < resident_tasks {
            return self.parts.poll_resident(task, out);
        }
        let pair = self.pairs[task - resident_tasks]
            .lock()
            .take()
            .expect("the executor polls each task once");
        let _scope = trace::phase_scope(format!("HHJ reload p{}", pair.p));
        self.join.reload(&self.parts, pair, self.parts.child, out)
    }
}
