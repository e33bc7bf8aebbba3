//! The Buffered Non-Partitioned Hash Join (BHJ).
//!
//! The paper's baseline-in-system (§4.3, §5.1.1): a global chaining hash
//! table with tagged pointers, built in parallel from materialized rows,
//! probed *inside* the probe pipeline without materializing probe tuples.
//! It is "buffered" so that relaxed operator fusion can stage a whole batch
//! and overlap its cache misses; [`BhjProbeOp`] does that in four stages:
//!
//! 1. hash the batch's keys;
//! 2. prefetch every bucket head;
//! 3. load each head, drop the rows its tag filter rejects, prefetch the
//!    chain's first row and put `(probe row, build row)` on a work list;
//! 4. walk the list in *rounds* — compare hash and keys, report the match,
//!    read `next`, prefetch it and keep the entry for the next round — so the
//!    k-th row of every live chain is in flight at once.
//!
//! Prefetching the heads alone would hide one miss of two or three: at load
//! factor 1 a hit dereferences two rows, and each is a dependent DRAM miss
//! when the chains are walked one probe row at a time. On the 4 Mi ⋈ 6 Mi
//! `micro_fk` pass (2 workers, times summed over both) such a walk takes
//! 750 ms beside 8 ms of hashing, 60 ms of head prefetch and 40 ms of emit;
//! in rounds it takes 300–360 ms. The table link is staged the same way
//! ([`BhjBuildSink::into_state`]: read hash → prefetch bucket → CAS insert,
//! a batch at a time; 80–90 → 60–70 ms wall there).
//!
//! Build-preserving variants (e.g. Q22's anti join) mark matched build rows
//! through an atomic flag in the row header; a follow-up pipeline
//! ([`BhjUnmatchedSource`]) then scans the build rows and emits the
//! (un)matched ones — exactly how a real system starts the anti-join's
//! result pipeline from the hash table.
//!
//! The walk itself is [`BhjWalker`], which [`BhjProbeOp`] dispatches over
//! the join types; the groupjoin ([`crate::groupjoin`]) runs it bare, with
//! its own action on a match, over a table built by the same sink.
//!
//! A join with a [`Residual`] (Q21's `l2.l_suppkey <> l1.l_suppkey`) walks
//! every chain to its end, collects all key-equal candidates, and filters
//! them in one place, [`BhjProbeOp`]'s `keep_passing`, before the
//! per-join-type tail sees them.

use crate::hash::hash_columns;
use crate::ht_chain::{ChainTable, RowArena};
use crate::join_common::{default_column, JoinType, Residual};
use crate::row::{RowLayout, StrHeap};
use crate::swwcb::prefetch_read;
use joinstudy_exec::batch::{Batch, BatchBuilder, BATCH_ROWS};
use joinstudy_exec::context::{BudgetLease, QueryContext};
use joinstudy_exec::error::ExecResult;
use joinstudy_exec::metrics::{self, MemPhase};
use joinstudy_exec::pipeline::{Emit, LocalState, Operator, Sink, Source};
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::types::DataType;
use parking_lot::Mutex;
use std::mem::take;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// The materialized build side: arenas + chaining table. Kept alive behind
/// an `Arc` for as long as any probe operator holds pointers into it.
pub struct BhjState {
    pub layout: RowLayout,
    pub key_cols: Vec<usize>,
    arenas: Vec<RowArena>,
    pub heaps: Vec<StrHeap>,
    pub table: ChainTable,
    pub rows: usize,
    /// Budget reservation for the arenas + chaining table; released when the
    /// state is dropped.
    _lease: BudgetLease,
}

impl BhjState {
    /// Total bytes of materialized build rows (harness size accounting).
    pub fn byte_size(&self) -> usize {
        self.arenas.iter().map(RowArena::byte_size).sum::<usize>()
            + self.heaps.iter().map(StrHeap::byte_len).sum::<usize>()
    }

    /// Bucket-occupancy summary of the chaining table (EXPLAIN ANALYZE).
    pub fn chain_stats(&self) -> crate::ht_chain::ChainStats {
        // SAFETY: `self.arenas` owns every row `into_state` linked into
        // `self.table` and lives as long as `self`; linking finished before
        // the state was constructed, so no insert runs concurrently.
        unsafe { self.table.chain_stats() }
    }
}

struct BuildLocal {
    arena: RowArena,
    heap: StrHeap,
    heap_id: usize,
    hashes: Vec<u64>,
    /// Budget charged for this worker's arena; released if the local is
    /// dropped without reaching `finish_local` (pipeline failure).
    lease: BudgetLease,
}

struct BuildGlobal {
    arenas: Vec<RowArena>,
    heaps: Vec<(usize, StrHeap)>,
    lease: BudgetLease,
}

/// Pipeline breaker materializing the build side into row arenas.
pub struct BhjBuildSink {
    layout: RowLayout,
    key_cols: Vec<usize>,
    ctx: Arc<QueryContext>,
    next_heap_id: AtomicUsize,
    global: Mutex<BuildGlobal>,
}

/// Build sides below this many rows are linked by the caller alone. A scoped
/// team of two costs 50–100 µs to launch on the reference host
/// (`exec.sched.pipeline_launch_us` 66–99 µs) and an insert into a
/// cache-resident table 9–13 ns, so a launch is worth 5–10 K inserts and two
/// workers, each saving the other half the rows, cannot win below 10–20 K
/// rows. That is a floor: the team's threads also start with cold caches, and
/// `into_state(2)` timed against `into_state(1)` on two arenas (best of 12–40)
/// loses at 4, 16 and 64 Ki rows (80 / 304 / 941 µs against 38 / 195 / 864)
/// and first wins at 128 Ki (1.76 against 1.90 ms).
const INLINE_LINK_ROWS: usize = 128 * 1024;

impl BhjBuildSink {
    /// `types`: the build input schema's column types; `key_cols`: join-key
    /// columns within that schema.
    pub fn new(types: &[DataType], key_cols: Vec<usize>) -> BhjBuildSink {
        let ctx = QueryContext::unbounded();
        BhjBuildSink {
            layout: RowLayout::new(types, true),
            key_cols,
            next_heap_id: AtomicUsize::new(0),
            global: Mutex::new(BuildGlobal {
                arenas: Vec::new(),
                heaps: Vec::new(),
                lease: BudgetLease::empty(&ctx),
            }),
            ctx,
        }
    }

    /// Charge this sink's materialization against `ctx`'s memory budget.
    pub fn with_context(mut self, ctx: Arc<QueryContext>) -> BhjBuildSink {
        self.global.get_mut().lease = BudgetLease::empty(&ctx);
        self.ctx = ctx;
        self
    }

    /// Build the chaining hash table over all materialized rows and freeze
    /// the state ([`BhjState::link`]). Fails if the bucket array would
    /// exceed the memory budget.
    pub fn into_state(&self, threads: usize) -> ExecResult<Arc<BhjState>> {
        let mut global = self.global.lock();
        let arenas = take(&mut global.arenas);
        let heap_pairs = take(&mut global.heaps);
        let mut lease = std::mem::replace(&mut global.lease, BudgetLease::empty(&self.ctx));
        drop(global);

        let slots = heap_pairs.iter().map(|(id, _)| id + 1).max().unwrap_or(0);
        let mut heaps: Vec<StrHeap> = (0..slots).map(|_| StrHeap::new()).collect();
        for (id, heap) in heap_pairs {
            heaps[id] = heap;
        }
        let rows: usize = arenas.iter().map(RowArena::rows).sum();
        lease.grow(ChainTable::buckets_for(rows) * 8)?;
        let (layout, keys) = (self.layout.clone(), self.key_cols.clone());
        Ok(BhjState::link(
            layout, keys, arenas, heaps, lease, 0, threads,
        ))
    }
}

impl BhjState {
    /// Link the rows of `arenas` (rows of `layout`, strings in `heaps`)
    /// into a chaining table indexed by the hash bits from `shift` up, and
    /// freeze them as one state holding `lease`, which must already cover
    /// the rows and the bucket array. Rows are linked a batch at a time —
    /// read the stored hashes and prefetch their buckets, then CAS-insert —
    /// so the bucket misses of a batch overlap. At [`INLINE_LINK_ROWS`] rows
    /// and above, `threads` workers link in parallel (one arena each; arenas
    /// are per build worker, so counts are balanced); below it the caller
    /// links alone.
    pub(crate) fn link(
        layout: RowLayout,
        key_cols: Vec<usize>,
        arenas: Vec<RowArena>,
        heaps: Vec<StrHeap>,
        lease: BudgetLease,
        shift: u32,
        threads: usize,
    ) -> Arc<BhjState> {
        let rows: usize = arenas.iter().map(RowArena::rows).sum();
        let table = ChainTable::with_shift(rows, shift);
        let hash_off = layout.hash_offset();

        let link_arena = |arena: &RowArena| {
            let mut hashes = [0u64; BATCH_ROWS];
            for chunk in arena.row_ptrs().chunks(BATCH_ROWS) {
                for (h, &ptr) in hashes.iter_mut().zip(chunk) {
                    // SAFETY: `ptr` is a row of `arena`, which outlives this
                    // closure; `consume` stored the row's hash at `hash_off`.
                    *h = unsafe { std::ptr::read(ptr.add(hash_off).cast::<u64>()) };
                    prefetch_read(table.bucket_ptr(*h));
                }
                for (&h, &ptr) in hashes.iter().zip(chunk) {
                    // SAFETY: as above; each row is linked exactly once (an
                    // arena is linked by one worker), nobody reads the table
                    // before the linking is over, and the arenas move into
                    // the `BhjState` that owns the table.
                    unsafe { table.insert(ptr as *mut u8, h) };
                }
            }
        };
        let workers = threads.min(arenas.len());
        if workers <= 1 || rows < INLINE_LINK_ROWS {
            arenas.iter().for_each(link_arena);
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        while let Some(arena) = arenas.get(next.fetch_add(1, Relaxed)) {
                            link_arena(arena);
                        }
                    });
                }
            });
        }

        Arc::new(BhjState {
            layout,
            key_cols,
            arenas,
            heaps,
            table,
            rows,
            _lease: lease,
        })
    }
}

impl Sink for BhjBuildSink {
    fn create_local(&self) -> LocalState {
        Box::new(BuildLocal {
            arena: RowArena::new(self.layout.stride()),
            heap: StrHeap::new(),
            heap_id: self.next_heap_id.fetch_add(1, Relaxed),
            hashes: Vec::new(),
            lease: BudgetLease::empty(&self.ctx),
        })
    }

    fn consume(&self, local: &mut LocalState, input: Batch) -> ExecResult {
        let local = local.downcast_mut::<BuildLocal>().unwrap();
        let n = input.num_rows();
        local.lease.grow(n * self.layout.stride())?;
        let key_cols: Vec<_> = self.key_cols.iter().map(|&c| input.column(c)).collect();
        hash_columns(&key_cols, n, &mut local.hashes);
        for (r, &hash) in local.hashes.iter().enumerate() {
            let row = local.arena.alloc_row();
            self.layout
                .encode_row(row, hash, &input, r, &mut local.heap, local.heap_id);
        }
        metrics::record_write(MemPhase::Build, (n * self.layout.stride()) as u64);
        Ok(())
    }

    fn finish_local(&self, local: LocalState) -> ExecResult {
        let local = *local.downcast::<BuildLocal>().unwrap();
        let mut global = self.global.lock();
        global.arenas.push(local.arena);
        global.heaps.push((local.heap_id, local.heap));
        global.lease.absorb(local.lease);
        Ok(())
    }
}

/// How hard one [`BhjWalker`] had to work, summed over its workers when
/// each flushes (EXPLAIN ANALYZE). `visits ÷ rows` is the number of
/// build rows a probe row dereferences — what the cost model's BHJ term
/// charges a cache miss for.
#[derive(Default)]
pub struct ProbeCounters {
    /// Probe rows hashed.
    pub rows: Arc<AtomicU64>,
    /// Probe rows the bucket head's tag filter turned away unwalked.
    pub tag_rejects: Arc<AtomicU64>,
    /// Build rows dereferenced.
    pub visits: Arc<AtomicU64>,
}

/// The walker half of a BHJ probe: the table it walks, the probe's key
/// columns, the prefetch switch and what the walks cost.
pub struct BhjWalker {
    pub(crate) state: Arc<BhjState>,
    probe_keys: Vec<usize>,
    prefetch: bool,
    /// Complete once every worker has flushed.
    pub counters: ProbeCounters,
}

/// The in-pipeline probe operator: the four stages of the module doc, one
/// batch at a time, for all seven join types.
///
/// Matched pairs of one batch come out in *round* order (every chain's first
/// row, then every chain's second, …), not in probe-row order; the semi,
/// anti, mark and outer variants read a per-row bitmap afterwards and keep
/// the input's order.
pub struct BhjProbeOp {
    pub walker: BhjWalker,
    join_type: JoinType,
    /// Tested on every key-equal candidate pair; without one, semi, anti
    /// and mark retire a chain on its first key match.
    residual: Option<Arc<Residual>>,
}

/// The walker's scratch and counters.
#[derive(Default)]
pub(crate) struct Walk {
    hashes: Vec<u64>,
    /// The chains still being walked: (probe row, build row to visit next).
    cur: Vec<(u32, *const u8)>,
    rows: u64,
    tag_rejects: u64,
    visits: u64,
}

/// Per-worker scratch of a [`BhjWalker`]'s operator, reused batch to batch.
#[derive(Default)]
pub(crate) struct ProbeLocal {
    pub(crate) walk: Walk,
    /// Matched pairs: build row `ptrs[i]` joins probe row `sel[i]`.
    ptrs: Vec<*const u8>,
    sel: Vec<u32>,
    /// Which probe rows found a partner (semi / anti / mark / outer).
    matched: Vec<bool>,
    /// Candidate pairs the residual tested and passed since the last flush.
    residual_counts: (u64, u64),
}

// SAFETY: the raw pointers are scratch that `process` refills from the
// operator's `BhjState` on every call and never dereferences across calls;
// the state is `Sync` and its arenas outlive every local of its operator.
unsafe impl Send for ProbeLocal {}

/// The rows of `matched` equal to `want`, as a selection vector.
fn select(matched: &[bool], want: bool, sel: &mut Vec<u32>) {
    sel.clear();
    sel.extend((0..matched.len() as u32).filter(|&r| matched[r as usize] == want));
}

impl BhjWalker {
    pub fn new(state: Arc<BhjState>, probe_keys: Vec<usize>, prefetch: bool) -> BhjWalker {
        BhjWalker {
            state,
            probe_keys,
            prefetch,
            counters: ProbeCounters::default(),
        }
    }

    /// The one chain walk: stages 1–4 over `input`, calling
    /// `on_match(probe row, build row)` for every key-equal pair. A `false`
    /// from it retires the probe row's chain (semi, anti and mark need only
    /// the first partner — unless a residual is still to decide which
    /// partners count). `prefetch = false` runs the same stages and issues
    /// no prefetch instruction.
    pub(crate) fn walk(
        &self,
        w: &mut Walk,
        input: &Batch,
        mut on_match: impl FnMut(u32, *const u8) -> bool,
    ) {
        let n = input.num_rows();
        let state = &*self.state;
        let prefetch = |line: *const u8| {
            if self.prefetch {
                prefetch_read(line);
            }
        };
        let key_cols: Vec<_> = self.probe_keys.iter().map(|&c| input.column(c)).collect();
        hash_columns(&key_cols, n, &mut w.hashes);
        for &h in &w.hashes {
            prefetch(state.table.bucket_ptr(h).cast());
        }
        w.cur.clear();
        for (r, &h) in w.hashes.iter().enumerate() {
            let head = state.table.head(h);
            if ChainTable::tag_may_contain(head, h) {
                let row = ChainTable::first_row(head);
                prefetch(row);
                w.cur.push((r as u32, row));
            }
        }
        w.rows += n as u64;
        w.tag_rejects += (n - w.cur.len()) as u64;

        let layout = &state.layout;
        while !w.cur.is_empty() {
            w.visits += w.cur.len() as u64;
            let mut live = 0;
            for i in 0..w.cur.len() {
                let (r, row) = w.cur[i];
                // SAFETY: `row` came out of `state.table` — a bucket head
                // whose tag is set (so non-null) or a linked row's `next` —
                // and every linked row lives in `state.arenas`, which the
                // `Arc<BhjState>` this walker holds keeps alive. After
                // `into_state` nobody writes a row but for `mark_matched`'s
                // atomic flag in the header word and the groupjoin's
                // `fetch_add`s into its aggregate cells — both atomics only,
                // while walkers hold a view of the row. `bytes` spans that
                // word and those cells, but `read_hash` reads the hash,
                // `keys_match_batch` the key columns only, and `next_row`
                // loads the header atomically.
                let next = unsafe {
                    let bytes = std::slice::from_raw_parts(row, layout.width());
                    if layout.read_hash(bytes) == w.hashes[r as usize]
                        && layout.keys_match_batch(
                            bytes,
                            &state.key_cols,
                            &state.heaps,
                            input,
                            &self.probe_keys,
                            r as usize,
                        )
                        && !on_match(r, row)
                    {
                        continue;
                    }
                    ChainTable::next_row(row)
                };
                if !next.is_null() {
                    prefetch(next);
                    w.cur[live] = (r, next);
                    live += 1;
                }
            }
            w.cur.truncate(live);
        }
    }

    /// Publish one worker's walk counts: its operator's `flush`.
    pub(crate) fn publish(&self, local: &mut LocalState) -> ExecResult {
        let w = &mut local.downcast_mut::<ProbeLocal>().expect("own local").walk;
        let c = &self.counters;
        c.rows.fetch_add(take(&mut w.rows), Relaxed);
        c.tag_rejects.fetch_add(take(&mut w.tag_rejects), Relaxed);
        c.visits.fetch_add(take(&mut w.visits), Relaxed);
        Ok(())
    }
}

impl BhjProbeOp {
    pub fn new(
        state: Arc<BhjState>,
        probe_keys: Vec<usize>,
        join_type: JoinType,
        prefetch: bool,
        residual: Option<Arc<Residual>>,
    ) -> BhjProbeOp {
        let walker = BhjWalker::new(state, probe_keys, prefetch);
        BhjProbeOp {
            walker,
            join_type,
            residual,
        }
    }

    /// The pairs `(ptrs[i], sel[i])` as one (build ++ probe) batch.
    fn pair_batch(&self, input: &Batch, ptrs: &[*const u8], sel: &[u32]) -> Batch {
        debug_assert_eq!(ptrs.len(), sel.len());
        let state = &*self.walker.state;
        let layout = &state.layout;
        let mut columns = Vec::with_capacity(layout.num_columns() + input.num_columns());
        for c in 0..layout.num_columns() {
            let mut col = ColumnData::with_capacity(layout.types()[c], ptrs.len());
            // SAFETY: `walk` reported every pointer in `ptrs` as a live row
            // of `state`, whose heaps these are.
            unsafe {
                layout.decode_ptrs_into(ptrs, c, &state.heaps, &mut col);
            }
            columns.push(col);
        }
        columns.extend(input.take(sel).into_columns());
        Batch::new(columns)
    }

    /// Emit matched pairs as (build ++ probe) batches.
    fn emit_pairs(&self, input: &Batch, ptrs: &[*const u8], sel: &[u32], out: Emit) {
        for (ptrs, sel) in ptrs.chunks(BATCH_ROWS).zip(sel.chunks(BATCH_ROWS)) {
            out(self.pair_batch(input, ptrs, sel));
        }
    }

    /// The residual, between "candidates found" and the join type's tail:
    /// decode the candidates `(l.ptrs[i], l.sel[i])` into pair batches of at
    /// most [`BATCH_ROWS`], evaluate the predicate on each, and keep in
    /// `l.ptrs` / `l.sel` only the pairs that pass. With `out` (Inner,
    /// ProbeOuter) each batch's survivors are emitted here, so a pair is
    /// decoded once.
    fn keep_passing(
        &self,
        residual: &Residual,
        input: &Batch,
        l: &mut ProbeLocal,
        mut out: Option<Emit>,
    ) {
        let candidates = l.ptrs.len();
        let mut kept = 0;
        for start in (0..candidates).step_by(BATCH_ROWS) {
            let end = (start + BATCH_ROWS).min(candidates);
            let pairs = self.pair_batch(input, &l.ptrs[start..end], &l.sel[start..end]);
            let pass = residual.pred.eval_sel(&pairs);
            for &i in &pass {
                l.ptrs[kept] = l.ptrs[start + i as usize];
                l.sel[kept] = l.sel[start + i as usize];
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
        l.ptrs.truncate(kept);
        l.sel.truncate(kept);
        l.residual_counts.0 += candidates as u64;
        l.residual_counts.1 += kept as u64;
    }

    /// NULL-padded build columns beside the probe rows `unmatched`.
    fn emit_padded(&self, input: &Batch, unmatched: &[u32], out: Emit) {
        let k = unmatched.len();
        let mut columns = Vec::new();
        let mut validity = Vec::new();
        for &t in self.walker.state.layout.types() {
            columns.push(default_column(t, k));
            validity.push(Some(vec![false; k]));
        }
        let probe_part = input.take(unmatched);
        for (i, col) in probe_part.into_columns().into_iter().enumerate() {
            validity.push(
                input
                    .validity(i)
                    .as_ref()
                    .map(|m| unmatched.iter().map(|&r| m[r as usize]).collect()),
            );
            columns.push(col);
        }
        out(Batch::with_validity(columns, validity));
    }
}

impl Operator for BhjProbeOp {
    fn create_local(&self) -> LocalState {
        Box::<ProbeLocal>::default()
    }

    fn process(&self, local: &mut LocalState, input: Batch, out: Emit) -> ExecResult {
        let l = local.downcast_mut::<ProbeLocal>().expect("own local");
        l.ptrs.clear();
        l.sel.clear();
        l.matched.clear();
        l.matched.resize(input.num_rows(), false);
        let kind = self.join_type;
        // Candidates found, pairs emitted (Inner, ProbeOuter), `matched`
        // and the build rows' flags set.
        match &self.residual {
            None => match kind {
                JoinType::Inner | JoinType::ProbeOuter => {
                    self.walker.walk(&mut l.walk, &input, |r, row| {
                        l.ptrs.push(row);
                        l.sel.push(r);
                        l.matched[r as usize] = true;
                        true
                    });
                    self.emit_pairs(&input, &l.ptrs, &l.sel, out);
                }
                JoinType::ProbeSemi | JoinType::ProbeAnti | JoinType::ProbeMark => {
                    self.walker.walk(&mut l.walk, &input, |r, _| {
                        l.matched[r as usize] = true;
                        false
                    })
                }
                JoinType::BuildSemi | JoinType::BuildAnti => {
                    self.walker.walk(&mut l.walk, &input, |_, row| {
                        // SAFETY: `walk` reports live rows of its state only.
                        unsafe { ChainTable::mark_matched(row) };
                        true
                    })
                }
            },
            Some(residual) => {
                self.walker.walk(&mut l.walk, &input, |r, row| {
                    l.ptrs.push(row);
                    l.sel.push(r);
                    true
                });
                let emits = matches!(kind, JoinType::Inner | JoinType::ProbeOuter);
                self.keep_passing(residual, &input, l, emits.then_some(&mut *out));
                for &r in &l.sel {
                    l.matched[r as usize] = true;
                }
                if kind.preserves_build() {
                    for &row in &l.ptrs {
                        // SAFETY: `walk` reports live rows of its state only.
                        unsafe { ChainTable::mark_matched(row) };
                    }
                }
            }
        }
        match kind {
            // Build-preserving kinds emit nothing here: the result pipeline
            // starts from BhjUnmatchedSource.
            JoinType::Inner | JoinType::BuildSemi | JoinType::BuildAnti => {}
            JoinType::ProbeOuter => {
                select(&l.matched, false, &mut l.sel);
                if !l.sel.is_empty() {
                    self.emit_padded(&input, &l.sel, out);
                }
            }
            JoinType::ProbeMark => {
                let mut batch = input;
                batch.push_column(ColumnData::Bool(l.matched.clone()));
                out(batch);
            }
            JoinType::ProbeSemi | JoinType::ProbeAnti => {
                select(&l.matched, kind == JoinType::ProbeSemi, &mut l.sel);
                if !l.sel.is_empty() {
                    out(input.take(&l.sel));
                }
            }
        }
        Ok(())
    }

    /// Publish this worker's probe-effort and residual counts.
    fn flush(&self, local: &mut LocalState, _out: Emit) -> ExecResult {
        if let Some(residual) = &self.residual {
            let l = local.downcast_mut::<ProbeLocal>().expect("own local");
            let (candidates, passed) = take(&mut l.residual_counts);
            residual.count(candidates, passed);
        }
        self.walker.publish(local)
    }
}

/// Result pipeline source for build-preserving variants: scans every build
/// row, emitting those whose matched flag agrees with the variant — or,
/// for the groupjoin, every row.
pub struct BhjUnmatchedSource {
    state: Arc<BhjState>,
    /// The matched flag of the rows to emit: `Some(true)` = BuildSemi,
    /// `Some(false)` = BuildAnti, `None` = every row.
    emit: Option<bool>,
}

impl BhjUnmatchedSource {
    pub fn new(state: Arc<BhjState>, join_type: JoinType) -> BhjUnmatchedSource {
        let emit = Some(match join_type {
            JoinType::BuildSemi => true,
            JoinType::BuildAnti => false,
            other => panic!("BhjUnmatchedSource on non-build-preserving {other:?}"),
        });
        BhjUnmatchedSource { state, emit }
    }

    /// Every build row, whatever its flag (the groupjoin's output).
    pub fn every_row(state: Arc<BhjState>) -> BhjUnmatchedSource {
        BhjUnmatchedSource { state, emit: None }
    }
}

impl Source for BhjUnmatchedSource {
    fn task_count(&self) -> usize {
        self.state.arenas.len()
    }

    fn poll_task(&self, task: usize, out: Emit) -> ExecResult {
        let layout = &self.state.layout;
        let arena = &self.state.arenas[task];
        let mut bb = BatchBuilder::new(layout.types().to_vec());
        let mut selected: Vec<*const u8> = Vec::new();
        let flush = |bb: &mut BatchBuilder, selected: &mut Vec<*const u8>, out: Emit| {
            if selected.is_empty() {
                return;
            }
            for c in 0..layout.num_columns() {
                // SAFETY: `selected` holds rows of `arena`, which
                // `self.state` owns together with the heaps; nothing writes
                // them any more (see below).
                unsafe {
                    layout.decode_ptrs_into(selected, c, &self.state.heaps, bb.column_mut(c));
                }
            }
            bb.advance(selected.len());
            selected.clear();
            if let Some(b) = bb.flush() {
                out(b);
            }
        };
        for ptr in arena.row_ptrs() {
            // SAFETY: `ptr` is a row of `arena`, alive with `self.state`;
            // the probe pipeline — which marks flags or, in a groupjoin,
            // adds into cells — finished before this source was polled, so
            // no row is written any more.
            let matched = unsafe { ChainTable::is_matched(ptr) };
            if self.emit.is_none_or(|want| matched == want) {
                selected.push(ptr);
                if selected.len() >= BATCH_ROWS {
                    flush(&mut bb, &mut selected, &mut *out);
                }
            }
        }
        flush(&mut bb, &mut selected, &mut *out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinstudy_storage::types::Value;

    fn build_state(keys: &[i64], payloads: &[i64], threads: usize) -> Arc<BhjState> {
        build_state_in(keys, payloads, 1, threads)
    }

    /// The rows dealt round-robin to `arenas` build workers.
    fn build_state_in(
        keys: &[i64],
        payloads: &[i64],
        arenas: usize,
        threads: usize,
    ) -> Arc<BhjState> {
        let sink = BhjBuildSink::new(&[DataType::Int64, DataType::Int64], vec![0]);
        for a in 0..arenas {
            let mut local = sink.create_local();
            let mine = |col: &[i64]| col.iter().copied().skip(a).step_by(arenas).collect();
            let batch = Batch::new(vec![
                ColumnData::Int64(mine(keys)),
                ColumnData::Int64(mine(payloads)),
            ]);
            sink.consume(&mut local, batch).unwrap();
            sink.finish_local(local).unwrap();
        }
        sink.into_state(threads).unwrap()
    }

    fn probe(state: Arc<BhjState>, join_type: JoinType, probe_keys: &[i64]) -> Vec<Vec<Value>> {
        let op = BhjProbeOp::new(state, vec![0], join_type, true, None);
        let mut local = op.create_local();
        let input = Batch::new(vec![ColumnData::Int64(probe_keys.to_vec())]);
        let mut outs = Vec::new();
        op.process(&mut local, input, &mut |b| outs.push(b))
            .unwrap();
        let mut rows = Vec::new();
        for b in outs {
            for r in 0..b.num_rows() {
                rows.push((0..b.num_columns()).map(|c| b.value(c, r)).collect());
            }
        }
        rows.sort_by(|a: &Vec<Value>, b| format!("{a:?}").cmp(&format!("{b:?}")));
        rows
    }

    #[test]
    fn inner_join_matches_pairs_and_duplicates() {
        let state = build_state(&[1, 2, 2, 3], &[10, 20, 21, 30], 1);
        let rows = probe(state, JoinType::Inner, &[2, 4, 1]);
        // key 2 matches two build rows; key 4 none; key 1 one.
        assert_eq!(rows.len(), 3);
        for row in &rows {
            // [build key, build payload, probe key]
            assert_eq!(row[0], row[2]);
        }
        let payloads: Vec<i64> = rows.iter().map(|r| r[1].as_i64()).collect();
        assert!(payloads.contains(&20) && payloads.contains(&21) && payloads.contains(&10));
    }

    #[test]
    fn semi_anti_mark_variants() {
        let state = build_state(&[1, 2], &[0, 0], 1);
        let semi = probe(state.clone(), JoinType::ProbeSemi, &[1, 3, 2, 2]);
        assert_eq!(semi.len(), 3);
        let anti = probe(state.clone(), JoinType::ProbeAnti, &[1, 3, 2, 4]);
        assert_eq!(anti.len(), 2);
        let mark = probe(state, JoinType::ProbeMark, &[1, 3]);
        assert_eq!(mark.len(), 2);
        let marked: Vec<(i64, bool)> = mark
            .iter()
            .map(|r| (r[0].as_i64(), matches!(r[1], Value::Bool(true))))
            .collect();
        assert!(marked.contains(&(1, true)));
        assert!(marked.contains(&(3, false)));
    }

    #[test]
    fn probe_outer_pads_with_nulls() {
        let state = build_state(&[5], &[50], 1);
        let rows = probe(state, JoinType::ProbeOuter, &[5, 6]);
        assert_eq!(rows.len(), 2);
        let matched = rows.iter().find(|r| r[2] == Value::Int64(5)).unwrap();
        assert_eq!(matched[0], Value::Int64(5));
        assert_eq!(matched[1], Value::Int64(50));
        let unmatched = rows.iter().find(|r| r[2] == Value::Int64(6)).unwrap();
        assert_eq!(unmatched[0], Value::Null);
        assert_eq!(unmatched[1], Value::Null);
    }

    #[test]
    fn build_anti_emits_unmatched_build_rows() {
        let state = build_state(&[1, 2, 3, 4], &[10, 20, 30, 40], 1);
        // Probe with keys {2, 4}: marks those build rows.
        let _ = probe(state.clone(), JoinType::BuildAnti, &[2, 4, 4]);
        let source = BhjUnmatchedSource::new(state, JoinType::BuildAnti);
        let mut rows = Vec::new();
        for t in 0..source.task_count() {
            source
                .poll_task(t, &mut |b| {
                    for r in 0..b.num_rows() {
                        rows.push((b.value(0, r).as_i64(), b.value(1, r).as_i64()));
                    }
                })
                .unwrap();
        }
        rows.sort_unstable();
        assert_eq!(rows, vec![(1, 10), (3, 30)]);
    }

    #[test]
    fn build_semi_emits_matched_build_rows() {
        let state = build_state(&[1, 2, 3], &[10, 20, 30], 1);
        let _ = probe(state.clone(), JoinType::BuildSemi, &[3, 3, 1]);
        let source = BhjUnmatchedSource::new(state, JoinType::BuildSemi);
        let mut rows = Vec::new();
        for t in 0..source.task_count() {
            source
                .poll_task(t, &mut |b| {
                    for r in 0..b.num_rows() {
                        rows.push(b.value(0, r).as_i64());
                    }
                })
                .unwrap();
        }
        rows.sort_unstable();
        assert_eq!(rows, vec![1, 3]);
    }

    #[test]
    fn parallel_build_equals_serial() {
        // Below INLINE_LINK_ROWS `into_state(4)` links on the caller, at and
        // above it on a team of four: either way the table is the serial one.
        for rows in [10_000, INLINE_LINK_ROWS + 1_000] {
            let keys: Vec<i64> = (0..rows as i64).map(|i| i % 1000).collect();
            let serial = build_state_in(&keys, &keys, 4, 1);
            let parallel = build_state_in(&keys, &keys, 4, 4);
            assert_eq!(serial.rows, rows);
            assert_eq!(serial.chain_stats(), parallel.chain_stats(), "{rows} rows");
            for kind in [JoinType::Inner, JoinType::ProbeAnti] {
                let expected = probe(serial.clone(), kind, &[7, 1000, 999]);
                let partners = keys.iter().filter(|&&k| k == 7 || k == 999).count();
                let want = if kind == JoinType::Inner { partners } else { 1 };
                assert_eq!(expected.len(), want);
                assert_eq!(probe(parallel.clone(), kind, &[7, 1000, 999]), expected);
            }
        }
    }

    #[test]
    fn empty_build_side() {
        let state = build_state(&[], &[], 1);
        assert_eq!(probe(state.clone(), JoinType::Inner, &[1, 2]).len(), 0);
        assert_eq!(probe(state.clone(), JoinType::ProbeAnti, &[1, 2]).len(), 2);
        let outer = probe(state, JoinType::ProbeOuter, &[9]);
        assert_eq!(outer.len(), 1);
        assert_eq!(outer[0][0], Value::Null);
    }
}
