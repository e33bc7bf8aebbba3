//! Two-pass, morsel-driven radix partitioning (the paper's §4.5, Figure 6).
//!
//! The partitioning step consumes a *dataflow* (not a materialized array —
//! the key difference to stand-alone radix joins), so cardinalities are
//! unknown until the input pipeline finishes. The structure follows the
//! paper exactly:
//!
//! 1. **Pass 1** — each worker consumes morsels from the source pipeline,
//!    hashes the join key, and scatters rows by the hash's low `bits1` bits
//!    into its *worker-local* set of pre-partitions, each a
//!    [`RowArena`] (a list of pages). Writes go through SWWCBs flushed
//!    with non-temporal stores. No synchronization anywhere.
//! 2. **Histogram scan** — the pre-partitions' pages are scanned to
//!    count, per pre-partition, how many rows fall into each of the
//!    `2^bits2` second-pass sub-partitions.
//! 3. **Exchange** — prefix sums over the histograms yield the exact byte
//!    range every final partition occupies in one contiguous output buffer;
//!    all workers' arenas for a pre-partition are (conceptually)
//!    concatenated.
//! 4. **Pass 2** — pre-partitions become morsels again: workers steal them
//!    from a shared queue (skew tolerance) and scatter each row to its
//!    final position, again through SWWCBs + streaming stores. Each task
//!    writes a private contiguous region, so there is still no
//!    synchronization. Optionally, the build side populates the
//!    register-blocked Bloom filter here (§4.7: "the second pass over the
//!    build side generates the filter while partitioning").
//!
//! Deviation from Figure 6, documented in DESIGN.md: the histogram scan
//! runs as its own parallel phase over pre-partitions (instead of inline in
//! each pass-1 worker), because `bits2` is chosen adaptively from the now-
//! known cardinality. The byte volume touched is identical.
//!
//! The same sink is the hybrid join's build-side partitioner
//! ([`crate::hybrid`]): given an [`Eviction`], a worker whose lease may not
//! grow *closes* a victim pre-partition instead of failing — its pages
//! stream to a spill run and later tuples for it follow. Pass 2 is then
//! replaced by [`PartitionSink::finalize_table`], which links the resident
//! pre-partitions' rows into one BHJ table, and the probe side streams
//! through [`RouteOp`]: rows of closed pre-partitions go to runs, the rest
//! probe the table in flight. Without an eviction, nothing below differs
//! from the above.
//!
//! The BHJ's build side is this sink at one pre-partition
//! ([`crate::bhj::build_sink`]), finished by the same
//! [`PartitionSink::finalize_table`]: not to partition is to partition
//! 2^0 ways. A sink of one pre-partition writes its rows in place — a
//! write-combine buffer in front of a single output gains nothing.

use crate::bhj::{BhjProbeOp, BhjState};
use crate::bloom::BlockedBloom;
use crate::hash::hash_columns;
use crate::ht_chain::{ChainTable, RowArena};
use crate::row::{read_u64, RowLayout, StrHeap};
use crate::spill::{SpillDir, SpillFile, SpillWriter};
use crate::swwcb::{nt_copy, nt_fence, SwwcbSet};
use joinstudy_exec::batch::{Batch, BATCH_ROWS};
use joinstudy_exec::context::{BudgetLease, QueryContext};
use joinstudy_exec::error::{ExecError, ExecResult};
use joinstudy_exec::metrics::{self, MemPhase};
use joinstudy_exec::pipeline::{Emit, LocalState, Operator, Sink};
use joinstudy_exec::{trace, Executor, PipelineLabel, WaitState};
use joinstudy_storage::column::ColumnData;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::RwLock;

/// Tuning knobs of the radix machinery. The ablation benches flip the
/// boolean switches; everything else follows the paper's setup.
#[derive(Debug, Clone, Copy)]
pub struct RadixConfig {
    /// Pass-1 fanout bits. 64 pre-partitions stays within typical L1-TLB
    /// reach, the original motivation for multi-pass partitioning.
    pub bits_pass1: u32,
    /// Upper bound on pass-2 fanout bits.
    pub max_bits_pass2: u32,
    /// Target bytes per final build partition; `bits2` is chosen so the
    /// per-partition hash table stays cache-resident.
    pub target_partition_bytes: usize,
    /// Software write-combine buffers (ablation switch).
    pub use_swwcb: bool,
    /// Non-temporal streaming stores (ablation switch; only effective
    /// together with SWWCBs, as in the paper).
    pub use_nt_stores: bool,
}

impl Default for RadixConfig {
    fn default() -> RadixConfig {
        RadixConfig {
            bits_pass1: 6,
            max_bits_pass2: 8,
            target_partition_bytes: 128 * 1024,
            use_swwcb: true,
            use_nt_stores: true,
        }
    }
}

/// Final partition index of a hash under the two-pass split: region-major
/// (pre-partition first, sub-partition second). Build and probe side MUST
/// use identical `bits1`/`bits2`.
#[inline]
pub fn partition_of(hash: u64, bits1: u32, bits2: u32) -> usize {
    let p1 = (hash & ((1u64 << bits1) - 1)) as usize;
    let p2 = ((hash >> bits1) & ((1u64 << bits2) - 1)) as usize;
    (p1 << bits2) | p2
}

/// Phase attribution for the byte-accounting of each partitioning stage.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSet {
    pub pass1: MemPhase,
    pub hist: MemPhase,
    pub pass2: MemPhase,
}

impl PhaseSet {
    /// Build-side pipelines: everything counts as "build" (Figure 10).
    pub fn build() -> PhaseSet {
        PhaseSet {
            pass1: MemPhase::Build,
            hist: MemPhase::Build,
            pass2: MemPhase::Build,
        }
    }

    /// Probe-side pipelines: the individually plotted phases of Figure 10.
    pub fn probe() -> PhaseSet {
        PhaseSet {
            pass1: MemPhase::PartitionPass1,
            hist: MemPhase::HistogramScan,
            pass2: MemPhase::PartitionPass2,
        }
    }
}

// ---------------------------------------------------------------------------
// Eviction: closed pre-partitions live in spill runs
// ---------------------------------------------------------------------------

/// Which pre-partitions of one join level are *closed*: evicted to spill
/// runs, every later tuple of theirs following. A partition is only ever
/// closed, never reopened. Only a level's build side closes partitions; its
/// probe side ([`RouteOp`]) reads the set once the build side is done.
pub struct ClosedSet {
    flags: Vec<AtomicBool>,
}

impl ClosedSet {
    pub fn new(partitions: usize) -> Arc<ClosedSet> {
        Arc::new(ClosedSet {
            flags: (0..partitions).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    /// `Relaxed` throughout: a flag publishes no data — whoever acts on it
    /// reaches the partition's run through that run's own mutex.
    pub fn is_closed(&self, p: usize) -> bool {
        self.flags[p].load(Ordering::Relaxed)
    }

    /// Close `p`; false if it already was.
    fn close(&self, p: usize) -> bool {
        !self.flags[p].swap(true, Ordering::Relaxed)
    }

    /// The closed pre-partitions, ascending.
    pub fn closed(&self) -> Vec<usize> {
        (0..self.flags.len())
            .filter(|&p| self.is_closed(p))
            .collect()
    }
}

/// What makes a [`PartitionSink`] the hybrid join's evicting sink.
pub struct Eviction {
    pub closed: Arc<ClosedSet>,
    pub dir: Arc<SpillDir>,
    /// Prefix of this sink's run names, unique within `dir`.
    pub tag: String,
    /// Bytes one worker's lease may reach before it has to give some up
    /// (`usize::MAX`: only a refusal by the query's budget makes it).
    pub worker_cap: usize,
    /// Write-buffer bytes of each run.
    pub write_buf: usize,
    /// The victim policy: resident bytes per pre-partition in, the one to
    /// close out (`None` when nothing is resident).
    pub victim: fn(&[usize]) -> Option<usize>,
}

/// An [`Eviction`] at work: one lazily created run per pre-partition, each
/// behind its own lock — there is no sink-wide one.
struct Evictor {
    cfg: Eviction,
    runs: Vec<Mutex<Option<SpillWriter>>>,
    /// Partitions this sink closed.
    evictions: AtomicUsize,
}

impl Evictor {
    /// Close `p` as a victim of memory pressure, marked in the trace of
    /// the query `ctx` runs.
    fn close(&self, ctx: &QueryContext, p: usize) {
        if self.cfg.closed.close(p) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            trace::instant(ctx, format!("HHJ evict: {} p{p} -> disk", self.cfg.tag));
        }
    }
}

/// Decode materialized rows back into batches (a spill frame is an encoded
/// [`Batch`]; the stored hash is dropped and recomputed on reload).
fn spill_rows<'a>(
    layout: &RowLayout,
    heaps: &[StrHeap],
    chunks: impl Iterator<Item = &'a [u8]>,
    run: &mut SpillWriter,
) -> ExecResult {
    let stride = layout.stride();
    let mut offsets: Vec<usize> = Vec::new();
    for chunk in chunks {
        for rows in chunk.chunks(BATCH_ROWS * stride) {
            offsets.clear();
            offsets.extend((0..rows.len() / stride).map(|i| i * stride));
            let columns = (0..layout.num_columns())
                .map(|c| {
                    let mut col = ColumnData::with_capacity(layout.types()[c], offsets.len());
                    layout.decode_column_into(rows, &offsets, c, heaps, &mut col);
                    col
                })
                .collect();
            run.write_batch(&Batch::new(columns))?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Pass 1: the pipeline sink
// ---------------------------------------------------------------------------

struct Pass1Local {
    swwcb: Option<SwwcbSet>,
    arenas: Vec<RowArena>,
    /// String heaps by heap id. Only this worker's own (`heap_id`) and,
    /// once it has seen a closed partition, its staging heap have content.
    heaps: Vec<StrHeap>,
    heap_id: usize,
    /// The heap each pre-partition's rows encode their strings into: the
    /// worker's own while the partition is open, the staging heap after.
    heap_of: Vec<u8>,
    /// Heap for strings of rows on their way to a run; emptied whenever
    /// those rows are written, so closed partitions' strings never pile up.
    stage_heap: Option<usize>,
    /// Pre-partitions this worker has drained and treats as closed.
    closed: Vec<bool>,
    hashes: Vec<u64>,
    /// Budget charged for this worker's pages + SWWCBs. Dropping the local
    /// (e.g. when a sibling worker fails) releases the reservation.
    lease: BudgetLease,
}

impl Pass1Local {
    /// Row bytes in this worker's pages per pre-partition, counting only the
    /// partitions it treats as closed (`closed`) or only the open ones.
    fn held(&self, closed: bool) -> Vec<usize> {
        self.arenas
            .iter()
            .zip(&self.closed)
            .map(|(arena, &c)| if c == closed { arena.bytes() } else { 0 })
            .collect()
    }
}

struct Pass1Global {
    /// One entry per finished worker: its pre-partitions' arenas.
    worker_arenas: Vec<Vec<RowArena>>,
    /// (heap_id, heap) pairs, placed into a dense vec at finalize.
    heaps: Vec<(usize, StrHeap)>,
    /// Accumulated worker leases; released when pass-1 pages are freed.
    lease: BudgetLease,
}

/// The radix join's pipeline breaker: materializes and pass-1-partitions an
/// input dataflow. After the pipeline completes, [`PartitionSink::finalize`]
/// runs the histogram/exchange/pass-2 stages and yields a
/// [`PartitionedSide`].
pub struct PartitionSink {
    layout: RowLayout,
    key_cols: Vec<usize>,
    cfg: RadixConfig,
    /// First hash bit pass 1 reads. 0 for a join's own inputs; a reloaded
    /// spill partition is split on the bits after its parent's pass 1.
    shift: u32,
    phases: PhaseSet,
    ctx: Arc<QueryContext>,
    next_heap_id: AtomicUsize,
    global: Mutex<Pass1Global>,
    evict: Option<Evictor>,
}

impl PartitionSink {
    pub fn new(
        layout: RowLayout,
        key_cols: Vec<usize>,
        cfg: RadixConfig,
        phases: PhaseSet,
    ) -> PartitionSink {
        let ctx = QueryContext::unbounded();
        PartitionSink {
            layout,
            key_cols,
            cfg,
            shift: 0,
            phases,
            next_heap_id: AtomicUsize::new(0),
            global: Mutex::new(Pass1Global {
                worker_arenas: Vec::new(),
                heaps: Vec::new(),
                lease: BudgetLease::empty(&ctx),
            }),
            ctx,
            evict: None,
        }
    }

    /// Charge this sink's materialization against `ctx`'s memory budget
    /// (and observe its cancellation in [`PartitionSink::finalize`]).
    pub fn with_context(mut self, ctx: Arc<QueryContext>) -> PartitionSink {
        self.global.get_mut().lease = BudgetLease::empty(&ctx);
        self.ctx = ctx;
        self
    }

    /// Evict instead of failing when memory runs out.
    pub fn with_eviction(mut self, cfg: Eviction) -> PartitionSink {
        self.evict = Some(Evictor {
            runs: (0..self.fanout1()).map(|_| Mutex::new(None)).collect(),
            evictions: AtomicUsize::new(0),
            cfg,
        });
        self
    }

    /// Partition on the hash bits from `shift` up.
    pub fn with_shift(mut self, shift: u32) -> PartitionSink {
        self.shift = shift;
        self
    }

    pub fn layout(&self) -> &RowLayout {
        &self.layout
    }

    fn fanout1(&self) -> usize {
        1 << self.cfg.bits_pass1
    }

    /// Runs this sink has opened so far.
    pub fn spilled_partitions(&self) -> usize {
        self.evict.as_ref().map_or(0, |ev| {
            ev.runs.iter().filter(|r| r.lock().is_some()).count()
        })
    }

    /// Pre-partitions this sink closed under memory pressure.
    pub fn evictions(&self) -> usize {
        self.evict
            .as_ref()
            .map_or(0, |ev| ev.evictions.load(Ordering::Relaxed))
    }

    /// Seal the runs and hand them over, one slot per pre-partition. Call
    /// after [`PartitionSink::finalize`], which may still evict.
    pub fn take_runs(&self) -> ExecResult<Vec<Option<SpillFile>>> {
        let Some(ev) = &self.evict else {
            return Ok(Vec::new());
        };
        ev.runs
            .iter()
            .map(|run| run.lock().take().map(SpillWriter::finish).transpose())
            .collect()
    }

    /// Reserve lease bytes for up to `rows` more rows and say how many were
    /// granted. Without eviction that is all of them or the budget's error.
    /// With it, a refusal (by the budget, or by the worker's own cap) is
    /// answered by [`PartitionSink::relieve`]; only when this worker holds
    /// nothing it could give up is the request halved, and only a refusal
    /// of a single row is an error.
    fn admit(&self, local: &mut Pass1Local, mut rows: usize) -> ExecResult<usize> {
        let stride = self.layout.stride();
        // The first charge also pays for the write-combine buffers.
        let fixed = if local.lease.bytes() == 0 {
            local.swwcb.as_ref().map_or(0, SwwcbSet::byte_size)
        } else {
            0
        };
        let Some(ev) = &self.evict else {
            local.lease.grow(rows * stride + fixed)?;
            return Ok(rows);
        };
        loop {
            self.observe_closures(ev, local)?;
            let charge = rows * stride + fixed;
            let refusal = if local.lease.bytes().saturating_add(charge) > ev.cfg.worker_cap {
                ExecError::BudgetExceeded {
                    requested: charge,
                    in_use: local.lease.bytes(),
                    budget: ev.cfg.worker_cap,
                    phase: self.ctx.wait_state().name(),
                }
            } else {
                match local.lease.grow(charge) {
                    Ok(()) => return Ok(rows),
                    Err(e @ ExecError::BudgetExceeded { .. }) => e,
                    Err(e) => return Err(e),
                }
            };
            if !self.relieve(ev, local)? {
                if rows == 1 {
                    return Err(refusal);
                }
                rows /= 2;
            }
        }
    }

    /// Catch up with pre-partitions a sibling closed since this worker last
    /// looked: what it holds of them goes to their runs, and their rows
    /// encode strings into the staging heap from here on. (One relaxed load per pre-partition
    /// and batch; a plain sink never gets here.)
    fn observe_closures(&self, ev: &Evictor, local: &mut Pass1Local) -> ExecResult {
        for p in 0..self.fanout1() {
            if local.closed[p] || !ev.cfg.closed.is_closed(p) {
                continue;
            }
            self.drain(ev, local, p)?;
            local.closed[p] = true;
            let next_heap_id = &self.next_heap_id;
            let stage = *local
                .stage_heap
                .get_or_insert_with(|| next_heap_id.fetch_add(1, Ordering::Relaxed));
            if local.heaps.len() <= stage {
                local.heaps.resize_with(stage + 1, StrHeap::new);
            }
            local.heap_of[p] = u8::try_from(stage).expect("heap ids fit a StrRef's 8 bits");
        }
        Ok(())
    }

    /// Append the rows of `arena`, of pre-partition `p`, to p's run,
    /// which is created on first use.
    fn write(&self, ev: &Evictor, p: usize, heaps: &[StrHeap], arena: &RowArena) -> ExecResult {
        if arena.bytes() == 0 {
            return Ok(());
        }
        let mut run = ev.runs[p].lock();
        if run.is_none() {
            let name = format!("{}-p{p}", ev.cfg.tag);
            let writer =
                SpillWriter::create_sized(&ev.cfg.dir, &name, &self.ctx, ev.cfg.write_buf)?;
            *run = Some(writer);
            self.ctx.add_spill_partition();
        }
        let run = run.as_mut().expect("just created");
        spill_rows(&self.layout, heaps, arena.chunks(), run)
    }

    /// Move this worker's rows of pre-partition `p` — write-combine buffer
    /// remainder and pages — to p's run.
    fn drain(&self, ev: &Evictor, local: &mut Pass1Local, p: usize) -> ExecResult {
        if let Some(set) = &mut local.swwcb {
            local.arenas[p].append(set.filled(p), false);
            set.clear(p);
        }
        let arena = local.arenas[p].take();
        // The pages are on their way out: their bytes go back first, so a
        // run's write buffer can be reserved out of what its rows free.
        local.lease.shrink(arena.bytes());
        self.write(ev, p, &local.heaps, &arena)
    }

    /// Write out everything this worker has staged for closed partitions;
    /// nothing refers to the staging heap afterwards, so it starts over.
    fn drain_closed(&self, ev: &Evictor, local: &mut Pass1Local) -> ExecResult {
        for p in 0..self.fanout1() {
            if local.closed[p] {
                self.drain(ev, local, p)?;
            }
        }
        if let Some(stage) = local.stage_heap {
            local.heaps[stage].clear();
        }
        Ok(())
    }

    /// Give up lease bytes: write out what is staged for closed partitions,
    /// and when that was little (under an eighth of the worker's cap, so the
    /// next refusal would follow at once) close the policy's victim too.
    /// False when this worker holds nothing it could give up.
    fn relieve(&self, ev: &Evictor, local: &mut Pass1Local) -> ExecResult<bool> {
        let staged: usize = local.held(true).iter().sum();
        if staged > 0 {
            self.drain_closed(ev, local)?;
            if staged >= ev.cfg.worker_cap / 8 {
                return Ok(true);
            }
        }
        match (ev.cfg.victim)(&local.held(false)) {
            Some(victim) => {
                ev.close(&self.ctx, victim);
                self.observe_closures(ev, local)?;
                Ok(true)
            }
            None => Ok(staged > 0),
        }
    }

    /// Encode rows `range` of `input` into their pre-partitions.
    fn scatter(
        &self,
        local: &mut Pass1Local,
        input: &Batch,
        hashes: &[u64],
        range: std::ops::Range<usize>,
    ) {
        let mask1 = (self.fanout1() - 1) as u64;
        let nt = self.cfg.use_nt_stores;
        let width = self.layout.width();
        for r in range {
            let h = hashes[r];
            let p = ((h >> self.shift) & mask1) as usize;
            let heap_id = local.heap_of[p] as usize;
            let slot = match &mut local.swwcb {
                Some(set) => {
                    if set.is_full(p) {
                        local.arenas[p].append(set.filled(p), nt);
                        set.clear(p);
                    }
                    set.next_slot(p)
                }
                None => local.arenas[p].alloc_row(),
            };
            self.layout.encode_row(
                &mut slot[..width],
                h,
                input,
                r,
                &mut local.heaps[heap_id],
                heap_id,
            );
        }
    }
}

impl Sink for PartitionSink {
    fn create_local(&self) -> LocalState {
        let heap_id = self.next_heap_id.fetch_add(1, Ordering::Relaxed);
        let stride = self.layout.stride();
        // One pre-partition is written in place: no buffer combines writes
        // to a single output.
        let use_swwcb = self.cfg.use_swwcb && self.layout.swwcb_eligible() && self.fanout1() > 1;
        Box::new(Pass1Local {
            swwcb: use_swwcb.then(|| SwwcbSet::new(self.fanout1(), stride)),
            arenas: (0..self.fanout1()).map(|_| RowArena::new(stride)).collect(),
            heaps: (0..=heap_id).map(|_| StrHeap::new()).collect(),
            heap_id,
            heap_of: vec![
                u8::try_from(heap_id).expect("heap ids fit a StrRef's 8 bits");
                self.fanout1()
            ],
            stage_heap: None,
            closed: vec![false; self.fanout1()],
            hashes: Vec::new(),
            lease: BudgetLease::empty(&self.ctx),
        })
    }

    fn consume(&self, local: &mut LocalState, input: Batch) -> ExecResult {
        let local = local.downcast_mut::<Pass1Local>().unwrap();
        if self.evict.is_some() {
            // A worker that only stages never reaches a spill write's check.
            self.ctx.check()?;
        }
        let n = input.num_rows();
        let key_cols: Vec<_> = self.key_cols.iter().map(|&c| input.column(c)).collect();
        let mut hashes = std::mem::take(&mut local.hashes);
        hash_columns(&key_cols, n, &mut hashes);
        drop(key_cols);

        // Charge the rows a stretch of the batch materializes (plus, the
        // first time, this worker's write-combine buffers) before writing
        // them; without eviction the stretch is always the whole batch.
        let mut start = 0;
        let mut ask = n;
        while start < n {
            ask = self.admit(local, ask.min(n - start))?;
            self.scatter(local, &input, &hashes, start..start + ask);
            start += ask;
        }
        local.hashes = hashes;
        metrics::record_write(self.phases.pass1, (n * self.layout.stride()) as u64);
        Ok(())
    }

    fn finish_local(&self, local: LocalState) -> ExecResult {
        let mut local = *local.downcast::<Pass1Local>().unwrap();
        if let Some(set) = &mut local.swwcb {
            for p in set.non_empty() {
                local.arenas[p].append(set.filled(p), self.cfg.use_nt_stores);
                set.clear(p);
            }
        }
        nt_fence();
        if let Some(ev) = &self.evict {
            self.observe_closures(ev, &mut local)?;
            self.drain_closed(ev, &mut local)?;
        }
        let mut global = self.global.lock();
        global.worker_arenas.push(local.arenas);
        global.heaps.push((
            local.heap_id,
            std::mem::take(&mut local.heaps[local.heap_id]),
        ));
        global.lease.absorb(local.lease);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Histogram / exchange / pass 2
// ---------------------------------------------------------------------------

/// A fully partitioned, contiguous, materialized join side.
pub struct PartitionedSide {
    layout: RowLayout,
    heaps: Vec<StrHeap>,
    data: Vec<u64>,
    total_rows: usize,
    /// Row-index boundaries of each final partition: `bounds[p]..bounds[p+1]`.
    bounds: Vec<usize>,
    bits1: u32,
    bits2: u32,
    /// Budget reservation for `data` (and the Bloom filter); released when
    /// the partitioned side is dropped.
    _lease: BudgetLease,
}

impl PartitionedSide {
    pub fn layout(&self) -> &RowLayout {
        &self.layout
    }

    pub fn heaps(&self) -> &[StrHeap] {
        &self.heaps
    }

    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    pub fn bits1(&self) -> u32 {
        self.bits1
    }

    pub fn bits2(&self) -> u32 {
        self.bits2
    }

    pub fn num_partitions(&self) -> usize {
        self.bounds.len() - 1
    }

    pub fn partition_row_range(&self, p: usize) -> std::ops::Range<usize> {
        self.bounds[p]..self.bounds[p + 1]
    }

    /// All row bytes (stride-spaced).
    pub fn data_bytes(&self) -> &[u8] {
        // SAFETY: `finalize`, the only constructor, allocates `data` as
        // `(total_rows * stride).div_ceil(8)` zeroed words — at least
        // `total_rows * stride` bytes — and nothing resizes it after; the
        // fields are private to this module.
        unsafe {
            std::slice::from_raw_parts(
                self.data.as_ptr().cast::<u8>(),
                self.total_rows * self.layout.stride(),
            )
        }
    }

    /// Total materialized bytes (rows + out-of-line strings).
    pub fn byte_size(&self) -> usize {
        self.total_rows * self.layout.stride()
            + self.heaps.iter().map(StrHeap::byte_len).sum::<usize>()
    }
}

/// Disjoint-region shared output buffer for pass-2 scatter tasks.
struct SharedBuf {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: `ptr` and `len` are written once, at construction, and only read
// after; the bytes behind `ptr` are reached only through `slice_mut`, whose
// callers write disjoint ranges, so sharing the handle across the scatter
// pipeline's workers, inline or pooled, races on nothing.
unsafe impl Sync for SharedBuf {}

impl SharedBuf {
    /// # Safety
    /// Caller guarantees `off + len <= self.len`, that the buffer outlives
    /// the returned slice, and disjoint ranges across concurrent calls —
    /// each pass-2 task owns a private byte range, so handing out `&mut`
    /// from `&self` is sound here (the usual reason `mut_from_ref` is
    /// denied does not apply).
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, off: usize, len: usize) -> &mut [u8] {
        debug_assert!(off + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(off), len)
    }
}

impl PartitionSink {
    /// [`PartitionSink::finalize_on`] on an `Executor::new(threads)`: inline
    /// for one thread, else a pool of `threads` workers spawned for the call.
    pub fn finalize(
        &self,
        threads: usize,
        bits2_override: Option<u32>,
        build_bloom: bool,
    ) -> ExecResult<(PartitionedSide, Option<BlockedBloom>)> {
        self.finalize_on(&Executor::new(threads), bits2_override, build_bloom)
    }

    /// Run histogram, exchange and pass 2, producing the final partitioned
    /// side. The histogram scan and the scatter are one pipeline each on
    /// `exec`, whose task `p` is pre-partition `p`. `bits2_override` forces
    /// the pass-2 fanout (the probe side must reuse the build side's
    /// value); `bloom` requests construction of the Bloom-filter reducer
    /// during the scatter (build side of the BRJ).
    ///
    /// Fails if the query was cancelled / timed out (checked before each
    /// pre-partition task) or if the contiguous output buffer would exceed
    /// the memory budget. On failure every reservation this sink made is
    /// released before returning.
    pub fn finalize_on(
        &self,
        exec: &Executor,
        bits2_override: Option<u32>,
        build_bloom: bool,
    ) -> ExecResult<(PartitionedSide, Option<BlockedBloom>)> {
        // The contiguous pass-2 output buffer is the second copy of every
        // row.
        let stride = self.layout.stride();
        let Settled {
            worker_arenas,
            heaps,
            pre_counts,
            pass1_lease: _pass1_lease,
            lease: mut out_lease,
        } = self.settle(usize::MAX, |rows| rows * stride)?;
        let fanout1 = self.fanout1();
        let total_rows: usize = pre_counts.iter().sum();

        // Choose the pass-2 fanout so build partitions hit the cache target.
        // Closed pre-partitions hold no rows: the resident bytes spread over
        // the open ones only.
        let open = match &self.evict {
            Some(ev) => (fanout1 - ev.cfg.closed.closed().len()).max(1),
            None => fanout1,
        };
        let bits2 = bits2_override.unwrap_or_else(|| {
            let total_bytes = total_rows * stride * fanout1 / open;
            let ideal_parts = total_bytes.div_ceil(self.cfg.target_partition_bytes).max(1);
            let total_bits =
                (ideal_parts.next_power_of_two().trailing_zeros()).max(self.cfg.bits_pass1);
            (total_bits - self.cfg.bits_pass1).min(self.cfg.max_bits_pass2)
        });
        let fanout2 = 1usize << bits2;
        let nparts = fanout1 * fanout2;
        let mask2 = (fanout2 - 1) as u64;
        let bits1 = self.cfg.bits_pass1;
        // Pass 2 reads the hash bits right after pass 1's.
        let pass2_shift = self.shift + bits1;
        debug_assert!(
            self.shift == 0 || !build_bloom,
            "the Bloom reducer assumes shift 0"
        );

        // Which side this sink partitioned, for the pipeline labels (the
        // build PhaseSet folds every phase into `Build`).
        let side_label = if self.phases.hist == MemPhase::Build {
            "build"
        } else {
            "probe"
        };

        // Histogram scan: per pre-partition, count rows per sub-partition.
        let histograms: Vec<Mutex<Vec<usize>>> =
            (0..fanout1).map(|_| Mutex::new(Vec::new())).collect();
        let hash_off = self.layout.hash_offset();
        let label = format!("radix histogram scan ({side_label})");
        let label = PipelineLabel::new(&label, WaitState::CpuPartition, self.phases.hist);
        exec.run_tasks(&self.ctx, label, fanout1, |p| {
            let mut counts = vec![0usize; fanout2];
            let mut bytes = 0usize;
            for arenas in &worker_arenas {
                for chunk in arenas[p].chunks() {
                    bytes += chunk.len();
                    crate::simd::hist_chunk(
                        chunk,
                        stride,
                        hash_off,
                        pass2_shift,
                        mask2,
                        &mut counts,
                    );
                }
            }
            metrics::record_read(self.phases.hist, bytes as u64);
            crate::simd::note(
                crate::simd::Kernel::Hist,
                crate::simd::active(),
                bytes / stride,
            );
            *histograms[p].lock() = counts;
            Ok(())
        })?;

        // Exchange (b): absolute row offsets per final partition.
        let mut bounds = vec![0usize; nparts + 1];
        {
            let mut cursor = 0usize;
            for p in 0..fanout1 {
                let hist = histograms[p].lock();
                for s in 0..fanout2 {
                    bounds[p * fanout2 + s] = cursor;
                    cursor += hist[s];
                }
            }
            bounds[nparts] = cursor;
            debug_assert_eq!(cursor, total_rows);
        }

        // Pass 2: scatter every pre-partition into its contiguous region.
        let mut data = vec![0u64; (total_rows * stride).div_ceil(8)];
        let shared = SharedBuf {
            ptr: data.as_mut_ptr().cast::<u8>(),
            len: total_rows * stride,
        };
        let bloom = build_bloom.then(|| BlockedBloom::new(nparts, total_rows.max(1)));
        if let Some(b) = &bloom {
            out_lease.grow(b.byte_size())?;
        }
        let use_swwcb = self.cfg.use_swwcb && self.layout.swwcb_eligible();
        let nt = self.cfg.use_nt_stores;

        let label = match build_bloom {
            true => format!("radix partition pass 2 + bloom build ({side_label})"),
            false => format!("radix partition pass 2 ({side_label})"),
        };
        let label = PipelineLabel::new(&label, WaitState::CpuPartition, self.phases.pass2);
        exec.run_tasks(&self.ctx, label, fanout1, |p| {
            let mut set = use_swwcb.then(|| SwwcbSet::new(fanout2, stride));
            // Row cursors per sub-partition, in absolute rows. Cursor `s`
            // only moves over the rows this task scatters to `s`, which the
            // histogram counted exactly: it stays within final partition
            // `p * fanout2 + s`'s bounds, which lie inside `shared`, whose
            // length is the sum of all bounds. No other task writes them:
            // the morsel loop's cursor hands each pre-partition `p` to
            // exactly one task, inline and on a pool alike.
            let mut cursors: Vec<usize> = (0..fanout2).map(|s| bounds[p * fanout2 + s]).collect();
            let mut bytes = 0usize;
            for arenas in &worker_arenas {
                for chunk in arenas[p].chunks() {
                    bytes += chunk.len();
                    for row in chunk.chunks_exact(stride) {
                        let h = read_u64(row, hash_off);
                        let s = ((h >> pass2_shift) & mask2) as usize;
                        if let Some(b) = &bloom {
                            b.insert(p * fanout2 + s, h);
                        }
                        match &mut set {
                            Some(set) => {
                                if set.is_full(s) {
                                    let buf = set.filled(s);
                                    let rows = buf.len() / stride;
                                    // SAFETY: the buffered rows are this
                                    // task's next `rows` rows of `s`, in
                                    // the range only task `p` writes (the
                                    // cursor bound above).
                                    let dst =
                                        unsafe { shared.slice_mut(cursors[s] * stride, buf.len()) };
                                    if nt {
                                        nt_copy(dst, buf);
                                    } else {
                                        dst.copy_from_slice(buf);
                                    }
                                    cursors[s] += rows;
                                    set.clear(s);
                                }
                                set.next_slot(s).copy_from_slice(row);
                            }
                            None => {
                                // SAFETY: one row of this task's `s`, in
                                // the range only task `p` writes (the
                                // cursor bound above).
                                let dst = unsafe { shared.slice_mut(cursors[s] * stride, stride) };
                                dst.copy_from_slice(row);
                                cursors[s] += 1;
                            }
                        }
                    }
                }
            }
            if let Some(set) = &mut set {
                for s in set.non_empty() {
                    let buf = set.filled(s);
                    // SAFETY: the last rows of this task's `s`, in the range
                    // only task `p` writes (the cursor bound above).
                    let dst = unsafe { shared.slice_mut(cursors[s] * stride, buf.len()) };
                    if nt {
                        nt_copy(dst, buf);
                    } else {
                        dst.copy_from_slice(buf);
                    }
                    cursors[s] += buf.len() / stride;
                    set.clear(s);
                }
            }
            metrics::record_read(self.phases.pass2, bytes as u64);
            metrics::record_write(self.phases.pass2, bytes as u64);
            crate::simd::note(
                crate::simd::Kernel::Scatter,
                crate::simd::active(),
                bytes / stride,
            );
            // The task's streaming stores are visible before the pipeline
            // ends, whichever worker reads the partition next.
            nt_fence();
            Ok(())
        })?;

        let side = PartitionedSide {
            layout: self.layout.clone(),
            heaps,
            data,
            total_rows,
            bounds,
            bits1,
            bits2,
            _lease: out_lease,
        };
        Ok((side, bloom))
    }
}

/// What pass 1 left once the resident copy of it is reserved
/// ([`PartitionSink::settle`]).
struct Settled {
    worker_arenas: Vec<Vec<RowArena>>,
    /// Dense, indexed by heap id.
    heaps: Vec<StrHeap>,
    /// Rows per pre-partition that stay; 0 for closed ones.
    pre_counts: Vec<usize>,
    /// Charged for the pages, which die with `worker_arenas`.
    pass1_lease: BudgetLease,
    /// Charged for the resident copy.
    lease: BudgetLease,
}

impl PartitionSink {
    /// Take what pass 1 left and reserve `copy_bytes(rows)` for the copy
    /// the resident rows are about to get, up front, so a budget breach
    /// surfaces before the allocation instead of as an OOM kill. An
    /// evicting sink first writes out what workers that finished early
    /// still held of closed partitions, then answers a breach — of the
    /// budget, or of `cap` by the resident rows and their copy together —
    /// by closing one more victim. (Pass 1 caps each worker's rows, but a
    /// pipeline with continuations brings new workers, so the sink checks
    /// the sum here.)
    fn settle(&self, cap: usize, copy_bytes: impl Fn(usize) -> usize) -> ExecResult<Settled> {
        let mut global = self.global.lock();
        let mut worker_arenas = std::mem::take(&mut global.worker_arenas);
        let heap_pairs = std::mem::take(&mut global.heaps);
        let mut pass1_lease = std::mem::replace(&mut global.lease, BudgetLease::empty(&self.ctx));
        drop(global);

        let slots = heap_pairs.iter().map(|(id, _)| id + 1).max().unwrap_or(0);
        let mut heaps: Vec<StrHeap> = (0..slots).map(|_| StrHeap::new()).collect();
        for (id, heap) in heap_pairs {
            heaps[id] = heap;
        }

        let mut pre_counts = vec![0usize; self.fanout1()];
        for arenas in &worker_arenas {
            for (p, arena) in arenas.iter().enumerate() {
                pre_counts[p] += arena.rows();
            }
        }
        if let Some(ev) = &self.evict {
            for p in ev.cfg.closed.closed() {
                self.evict_resident(ev, p, &mut worker_arenas, &heaps, &mut pass1_lease)?;
                pre_counts[p] = 0;
            }
        }
        let stride = self.layout.stride();
        let lease = loop {
            let rows: usize = pre_counts.iter().sum();
            let bytes = copy_bytes(rows);
            let reserved = match rows * stride + bytes {
                held if held > cap => Err(ExecError::BudgetExceeded {
                    requested: held,
                    in_use: 0,
                    budget: cap,
                    phase: self.ctx.wait_state().name(),
                }),
                _ => BudgetLease::reserve(&self.ctx, bytes),
            };
            match (reserved, &self.evict) {
                (Ok(lease), _) => break lease,
                (Err(e @ ExecError::BudgetExceeded { .. }), Some(ev)) => {
                    let resident: Vec<usize> = pre_counts.iter().map(|&n| n * stride).collect();
                    let victim = (ev.cfg.victim)(&resident).ok_or(e)?;
                    ev.close(&self.ctx, victim);
                    self.evict_resident(ev, victim, &mut worker_arenas, &heaps, &mut pass1_lease)?;
                    pre_counts[victim] = 0;
                }
                (Err(e), _) => return Err(e),
            }
        };
        Ok(Settled {
            worker_arenas,
            heaps,
            pre_counts,
            pass1_lease,
            lease,
        })
    }

    /// Finish the sink as a BHJ table instead of running pass 2 — the
    /// BHJ's own (at one pre-partition) or a hybrid join level's resident
    /// one: the rows of the pre-partitions still open are linked where
    /// pass 1 wrote them — its arenas hold the rows of the table, which
    /// is why this sink's rows carry the BHJ's chain header — into one
    /// [`ChainTable`] indexed by the hash bits after this sink's. The
    /// bucket array is leased where pass 2's
    /// contiguous buffer would be, and a refusal — or a table of more than
    /// `cap` bytes, rows and buckets — closes one more victim
    /// ([`PartitionSink::settle`]). The table is linked on `exec` under
    /// `ctx`, the query's context whether or not this sink is charged to
    /// it ([`BhjState::link`]). Call [`PartitionSink::take_runs`] after.
    pub fn finalize_table(
        &self,
        cap: usize,
        exec: &Executor,
        ctx: &Arc<QueryContext>,
    ) -> ExecResult<Arc<BhjState>> {
        assert!(self.layout.has_header(), "table rows carry a chain header");
        let Settled {
            worker_arenas,
            heaps,
            pass1_lease,
            mut lease,
            ..
        } = self.settle(cap, |rows| ChainTable::buckets_for(rows) * 8)?;
        ctx.check()?;
        // One arena per pass-1 worker, its pre-partitions end to end: the
        // link's and the build-row scan's tasks, as many as the workers.
        let stride = self.layout.stride();
        let arenas = worker_arenas
            .into_iter()
            .map(|parts| {
                parts
                    .into_iter()
                    .fold(RowArena::new(stride), RowArena::concat)
            })
            .collect();
        lease.absorb(pass1_lease);
        let (layout, keys) = (self.layout.clone(), self.key_cols.clone());
        let shift = self.shift + self.cfg.bits_pass1;
        let state = BhjState::new(layout, keys, arenas, heaps, lease, shift);
        state.link(exec, ctx)
    }

    /// Write what the finished workers still hold of pre-partition `p` to
    /// its run (finalize runs alone, after every worker has finished).
    fn evict_resident(
        &self,
        ev: &Evictor,
        p: usize,
        worker_arenas: &mut [Vec<RowArena>],
        heaps: &[StrHeap],
        lease: &mut BudgetLease,
    ) -> ExecResult {
        for arenas in worker_arenas {
            let arena = arenas[p].take();
            lease.shrink(arena.bytes());
            self.write(ev, p, heaps, &arena)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The probe side of an evicting level
// ---------------------------------------------------------------------------

/// The probe side of a hybrid join level ([`crate::hybrid`]), fused into
/// its probe pipeline: a row whose pre-partition the level's build side
/// closed is appended to that partition's run, every other row goes on to
/// `probe`, the BHJ probe of the level's resident table
/// ([`PartitionSink::finalize_table`]). So the probe side is neither
/// partitioned nor materialized, and it never closes a partition: the
/// closed set was frozen when the build side finished. Each run holds one
/// write buffer, opened on the partition's first row.
pub struct RouteOp {
    /// `None` once [`RouteOp::release`]d.
    probe: RwLock<Option<BhjProbeOp>>,
    keys: Vec<usize>,
    shift: u32,
    /// Per pre-partition.
    closed: Vec<bool>,
    runs: Vec<Mutex<Option<SpillWriter>>>,
    dir: Arc<SpillDir>,
    ctx: Arc<QueryContext>,
    tag: String,
    write_buf: usize,
}

struct RouteLocal {
    probe: LocalState,
    hashes: Vec<u64>,
    /// Rows of the batch at hand that go on to the probe.
    open: Vec<u32>,
    /// Per pre-partition, rows of the batch at hand that go to its run.
    closed: Vec<Vec<u32>>,
}

impl RouteOp {
    /// The probe side of the level `build`, an evicting sink that has been
    /// finalized: its hash-bit window, closed set, spill directory and
    /// write-buffer size. `keys` are the probe side's key columns, `tag`
    /// prefixes the runs' names.
    pub fn new(probe: BhjProbeOp, keys: Vec<usize>, build: &PartitionSink, tag: String) -> RouteOp {
        let ev = build.evict.as_ref().expect("a hybrid join level evicts");
        let fanout = build.fanout1();
        RouteOp {
            probe: RwLock::new(Some(probe)),
            keys,
            shift: build.shift,
            closed: (0..fanout).map(|p| ev.cfg.closed.is_closed(p)).collect(),
            runs: (0..fanout).map(|_| Mutex::new(None)).collect(),
            dir: Arc::clone(&ev.cfg.dir),
            ctx: Arc::clone(&build.ctx),
            tag,
            write_buf: ev.cfg.write_buf,
        }
    }

    /// Run `f` on the probe of the resident table.
    pub fn with_probe<R>(&self, f: impl FnOnce(&BhjProbeOp) -> R) -> R {
        let probe = self.probe.read().expect("no probe panics holding the lock");
        f(probe
            .as_ref()
            .expect("the table is released after the probe side"))
    }

    /// Let the resident table go: the probe side has streamed, and no row
    /// will pass this operator again. What the table's lease holds returns
    /// to the budget once nothing else shares the table.
    pub fn release(&self) {
        let probe = self
            .probe
            .write()
            .expect("no probe panics holding the lock")
            .take();
        drop(probe);
    }

    /// Seal pre-partition `p`'s run and hand it over; `None` if no row went
    /// there. Call once every pipeline through this operator has finished.
    pub fn take_run(&self, p: usize) -> ExecResult<Option<SpillFile>> {
        self.runs[p]
            .lock()
            .take()
            .map(SpillWriter::finish)
            .transpose()
    }

    /// Append `rows` of pre-partition `p` to its run, opening it first.
    fn write(&self, p: usize, rows: &Batch) -> ExecResult {
        let mut run = self.runs[p].lock();
        if run.is_none() {
            let name = format!("{}-p{p}", self.tag);
            let writer = SpillWriter::create_sized(&self.dir, &name, &self.ctx, self.write_buf)?;
            *run = Some(writer);
            self.ctx.add_spill_partition();
        }
        run.as_mut().expect("just opened").write_batch(rows)
    }
}

impl Operator for RouteOp {
    fn create_local(&self) -> LocalState {
        Box::new(RouteLocal {
            probe: self.with_probe(BhjProbeOp::create_local),
            hashes: Vec::new(),
            open: Vec::new(),
            closed: vec![Vec::new(); self.closed.len()],
        })
    }

    fn process(&self, local: &mut LocalState, input: Batch, out: Emit) -> ExecResult {
        let l = local.downcast_mut::<RouteLocal>().expect("own local");
        if !self.closed.contains(&true) {
            return self.with_probe(|probe| probe.process(&mut l.probe, input, out));
        }
        let n = input.num_rows();
        let key_cols: Vec<_> = self.keys.iter().map(|&c| input.column(c)).collect();
        hash_columns(&key_cols, n, &mut l.hashes);
        let mask = (self.closed.len() - 1) as u64;
        l.open.clear();
        for (r, &h) in l.hashes.iter().enumerate() {
            let p = ((h >> self.shift) & mask) as usize;
            if self.closed[p] {
                l.closed[p].push(r as u32);
            } else {
                l.open.push(r as u32);
            }
        }
        for (p, rows) in l.closed.iter_mut().enumerate() {
            if !rows.is_empty() {
                self.write(p, &input.take(rows))?;
                rows.clear();
            }
        }
        let input = match l.open.len() {
            0 => return Ok(()),
            all if all == n => input,
            _ => input.take(&l.open),
        };
        self.with_probe(|probe| probe.process(&mut l.probe, input, out))
    }

    fn flush(&self, local: &mut LocalState, out: Emit) -> ExecResult {
        let l = local.downcast_mut::<RouteLocal>().expect("own local");
        self.with_probe(|probe| probe.flush(&mut l.probe, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_u64;
    use joinstudy_exec::batch::BatchBuilder;
    use joinstudy_exec::WorkerPool;
    use joinstudy_storage::types::{DataType, Value};

    fn partition_i64(
        values: &[i64],
        cfg: RadixConfig,
        threads: usize,
        bits2: Option<u32>,
    ) -> PartitionedSide {
        let layout = RowLayout::new(&[DataType::Int64], false);
        let sink = PartitionSink::new(layout, vec![0], cfg, PhaseSet::build());
        feed_i64(&sink, values);
        sink.finish();
        sink.finalize(threads, bits2, false).unwrap().0
    }

    fn feed_i64(sink: &PartitionSink, values: &[i64]) {
        let mut local = sink.create_local();
        let mut bb = BatchBuilder::new(vec![DataType::Int64]);
        for &v in values {
            bb.push_row(&[Value::Int64(v)]);
            if bb.is_full() {
                sink.consume(&mut local, bb.flush().unwrap()).unwrap();
            }
        }
        if let Some(b) = bb.flush() {
            sink.consume(&mut local, b).unwrap();
        }
        sink.finish_local(local).unwrap();
    }

    fn collect_rows(side: &PartitionedSide) -> Vec<(usize, u64, i64)> {
        let stride = side.layout().stride();
        let data = side.data_bytes();
        let mut out = Vec::new();
        for p in 0..side.num_partitions() {
            for r in side.partition_row_range(p) {
                let row = &data[r * stride..(r + 1) * stride];
                let h = side.layout().read_hash(row);
                let v = read_u64(row, side.layout().col_offset(0)) as i64;
                out.push((p, h, v));
            }
        }
        out
    }

    #[test]
    fn partitioning_is_a_permutation() {
        let values: Vec<i64> = (0..50_000).collect();
        let side = partition_i64(&values, RadixConfig::default(), 1, Some(2));
        assert_eq!(side.total_rows(), values.len());
        let mut got: Vec<i64> = collect_rows(&side).iter().map(|&(_, _, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, values);
    }

    #[test]
    fn rows_land_in_their_hash_partition() {
        let values: Vec<i64> = (0..20_000).collect();
        let side = partition_i64(&values, RadixConfig::default(), 1, Some(3));
        for (p, h, v) in collect_rows(&side) {
            assert_eq!(h, hash_u64(v as u64), "stored hash mismatch for {v}");
            assert_eq!(
                partition_of(h, side.bits1(), side.bits2()),
                p,
                "row {v} in wrong partition"
            );
        }
    }

    #[test]
    fn parallel_partitioning_matches_serial() {
        let values: Vec<i64> = (0..30_000).map(|i| i * 7 + 3).collect();
        let serial = partition_i64(&values, RadixConfig::default(), 1, Some(4));
        // Histogram scan and scatter on a private pool and on a shared one.
        for exec in [Executor::new(4), Executor::pooled(WorkerPool::new(2))] {
            // Multi-worker pass 1 (simulate two workers consuming halves).
            let layout = RowLayout::new(&[DataType::Int64], false);
            let sink =
                PartitionSink::new(layout, vec![0], RadixConfig::default(), PhaseSet::build());
            std::thread::scope(|scope| {
                for half in values.chunks(values.len() / 2 + 1) {
                    let sink = &sink;
                    scope.spawn(move || feed_i64(sink, half));
                }
            });
            let parallel = sink.finalize_on(&exec, Some(4), false).unwrap().0;

            assert_eq!(parallel.total_rows(), serial.total_rows());
            assert_eq!(parallel.num_partitions(), serial.num_partitions());
            // Same (partition, value) multiset; order within a partition may
            // differ.
            let mut a = collect_sorted(&serial);
            let mut b = collect_sorted(&parallel);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{exec:?}");
        }
    }

    #[test]
    fn ablations_produce_identical_partitions() {
        let values: Vec<i64> = (0..10_000).map(|i| i * 13).collect();
        let base = RadixConfig::default();
        let no_swwcb = RadixConfig {
            use_swwcb: false,
            ..base
        };
        let no_nt = RadixConfig {
            use_nt_stores: false,
            ..base
        };
        let reference = collect_sorted(&partition_i64(&values, base, 1, Some(2)));
        assert_eq!(
            reference,
            collect_sorted(&partition_i64(&values, no_swwcb, 1, Some(2)))
        );
        assert_eq!(
            reference,
            collect_sorted(&partition_i64(&values, no_nt, 1, Some(2)))
        );
    }

    fn collect_sorted(side: &PartitionedSide) -> Vec<(usize, i64)> {
        let mut v: Vec<(usize, i64)> = collect_rows(side)
            .iter()
            .map(|&(p, _, val)| (p, val))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn adaptive_bits2_respects_target() {
        // 100k rows × 16 B ≈ 1.6 MB; with a 16 KiB target and bits1=6 the
        // sink should pick bits2 > 0.
        let cfg = RadixConfig {
            target_partition_bytes: 16 * 1024,
            ..RadixConfig::default()
        };
        let values: Vec<i64> = (0..100_000).collect();
        let side = partition_i64(&values, cfg, 1, None);
        assert!(side.bits2() >= 1, "bits2 = {}", side.bits2());
        // Partitions should be near the target on average.
        let avg = (side.total_rows() * side.layout().stride()) / side.num_partitions();
        assert!(avg <= 32 * 1024, "avg partition {avg} bytes");
    }

    #[test]
    fn empty_input_finalizes_cleanly() {
        let side = partition_i64(&[], RadixConfig::default(), 2, None);
        assert_eq!(side.total_rows(), 0);
        assert_eq!(side.bits2(), 0);
        assert!(side.num_partitions() >= 1);
        for p in 0..side.num_partitions() {
            assert!(side.partition_row_range(p).is_empty());
        }
    }

    #[test]
    fn bloom_filter_built_during_pass2() {
        let layout = RowLayout::new(&[DataType::Int64], false);
        let sink = PartitionSink::new(layout, vec![0], RadixConfig::default(), PhaseSet::build());
        feed_i64(&sink, &(0..5000i64).collect::<Vec<_>>());
        let (side, bloom) = sink.finalize(1, Some(2), true).unwrap();
        let bloom = bloom.expect("bloom requested");
        // Every inserted key must pass its partition's filter.
        for v in 0..5000u64 {
            let h = hash_u64(v);
            let p = partition_of(h, side.bits1(), side.bits2());
            assert!(bloom.contains(p, h), "false negative for {v}");
        }
        // Most absent keys are rejected.
        let mut rejected = 0;
        for v in 10_000..20_000u64 {
            let h = hash_u64(v);
            let p = partition_of(h, side.bits1(), side.bits2());
            if !bloom.contains(p, h) {
                rejected += 1;
            }
        }
        assert!(rejected > 8500, "bloom rejected only {rejected}/10000");
    }

    #[test]
    fn strings_survive_partitioning() {
        let layout = RowLayout::new(&[DataType::Int64, DataType::Str], false);
        let sink = PartitionSink::new(layout, vec![0], RadixConfig::default(), PhaseSet::build());
        let mut local = sink.create_local();
        let mut bb = BatchBuilder::new(vec![DataType::Int64, DataType::Str]);
        for i in 0..3000i64 {
            bb.push_row(&[Value::Int64(i), Value::Str(format!("name-{i}"))]);
            if bb.is_full() {
                sink.consume(&mut local, bb.flush().unwrap()).unwrap();
            }
        }
        if let Some(b) = bb.flush() {
            sink.consume(&mut local, b).unwrap();
        }
        sink.finish_local(local).unwrap();
        let (side, _) = sink.finalize(1, Some(1), false).unwrap();
        let stride = side.layout().stride();
        let data = side.data_bytes();
        let mut checked = 0;
        for p in 0..side.num_partitions() {
            for r in side.partition_row_range(p) {
                let row = &data[r * stride..(r + 1) * stride];
                let id = read_u64(row, side.layout().col_offset(0)) as i64;
                let sref = read_u64(row, side.layout().col_offset(1));
                assert_eq!(
                    crate::row::resolve_str(side.heaps(), sref),
                    format!("name-{id}")
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 3000);
    }

    #[test]
    fn budget_breach_in_pass1_releases_everything() {
        let ctx = QueryContext::unbounded();
        ctx.set_memory_budget(Some(4 * 1024));
        let layout = RowLayout::new(&[DataType::Int64], false);
        let sink = PartitionSink::new(layout, vec![0], RadixConfig::default(), PhaseSet::build())
            .with_context(Arc::clone(&ctx));
        let mut local = sink.create_local();
        let mut bb = BatchBuilder::new(vec![DataType::Int64]);
        let mut err = None;
        for v in 0..100_000i64 {
            bb.push_row(&[Value::Int64(v)]);
            if bb.is_full() {
                if let Err(e) = sink.consume(&mut local, bb.flush().unwrap()) {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(
            matches!(err, Some(ExecError::BudgetExceeded { .. })),
            "{err:?}"
        );
        // Dropping the worker local (as the executor does on failure) must
        // return every reserved byte.
        drop(local);
        drop(sink);
        assert_eq!(ctx.used(), 0);
    }

    #[test]
    fn budget_breach_in_finalize_releases_everything() {
        // Budget fits pass-1 pages but not the second, contiguous copy.
        let values: Vec<i64> = (0..20_000).collect();
        let rows_bytes = values.len() * 16;
        let ctx = QueryContext::unbounded();
        ctx.set_memory_budget(Some(rows_bytes + rows_bytes / 2));
        let layout = RowLayout::new(&[DataType::Int64], false);
        let sink = PartitionSink::new(layout, vec![0], RadixConfig::default(), PhaseSet::build())
            .with_context(Arc::clone(&ctx));
        feed_i64(&sink, &values);
        assert!(ctx.used() >= rows_bytes, "pass 1 must be charged");
        let err = sink.finalize(1, Some(2), false).err().unwrap();
        assert!(matches!(err, ExecError::BudgetExceeded { .. }), "{err}");
        drop(sink);
        assert_eq!(ctx.used(), 0);
    }

    #[test]
    fn finalize_observes_cancellation() {
        for exec in [Executor::new(2), Executor::pooled(WorkerPool::new(2))] {
            let ctx = QueryContext::unbounded();
            let layout = RowLayout::new(&[DataType::Int64], false);
            let sink =
                PartitionSink::new(layout, vec![0], RadixConfig::default(), PhaseSet::build())
                    .with_context(Arc::clone(&ctx));
            feed_i64(&sink, &(0..10_000i64).collect::<Vec<_>>());
            ctx.cancel();
            let err = sink.finalize_on(&exec, Some(2), false).err().unwrap();
            assert_eq!(err, ExecError::Cancelled, "{exec:?}");
            drop(sink);
            assert_eq!(ctx.used(), 0, "{exec:?}");
        }
    }

    #[test]
    fn partitioned_side_releases_budget_on_drop() {
        let ctx = QueryContext::unbounded();
        ctx.set_memory_budget(Some(64 * 1024 * 1024));
        let layout = RowLayout::new(&[DataType::Int64], false);
        let sink = PartitionSink::new(layout, vec![0], RadixConfig::default(), PhaseSet::build())
            .with_context(Arc::clone(&ctx));
        feed_i64(&sink, &(0..5000i64).collect::<Vec<_>>());
        let (side, _) = sink.finalize(1, Some(2), false).unwrap();
        drop(sink); // pass-1 pages + their lease
        assert_eq!(ctx.used(), side.total_rows() * side.layout().stride());
        drop(side);
        assert_eq!(ctx.used(), 0);
    }
}
