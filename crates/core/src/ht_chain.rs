//! Global chaining hash table with tagged pointers — the heart of the
//! buffered non-partitioned hash join (BHJ).
//!
//! Build tuples are materialized once into per-worker [`RowArena`]s (stable
//! addresses, no relocation), then linked into a shared bucket array with
//! lock-free CAS inserts. Each bucket head carries a 16-bit *tag* — a tiny
//! Bloom filter ORed from one-hot bits of every inserted hash (Leis et al.,
//! SIGMOD'14). A probe whose tag bit is absent skips the pointer chase
//! entirely; this is the BHJ's built-in semi-join reducer the paper refers
//! to (§5.1.1 "a semi-join reducer based on tagged pointers").
//!
//! Row format (see [`crate::row::RowLayout`] with `with_header = true`):
//! `[next+flag: u64][hash: u64][columns...]`. Bit 63 of the header doubles
//! as the "matched" flag needed by build-side-preserving join variants
//! (right-semi/right-anti, e.g. TPC-H Q22's anti join).

use crate::hash::pointer_tag;
use std::sync::atomic::{AtomicU64, Ordering};

/// Low 48 bits: the actual row address (x86-64 canonical user pointers).
pub const PTR_MASK: u64 = 0x0000_FFFF_FFFF_FFFF;
/// High 16 bits of a bucket head: the tag filter.
pub const TAG_MASK: u64 = !PTR_MASK;
/// Bit 63 of a row header: set when a probe tuple matched this build tuple.
pub const MATCH_FLAG: u64 = 1 << 63;

/// A paged allocator handing out fixed-stride row slots with stable
/// addresses. One arena per build worker; arenas are kept alive by the join
/// state for as long as any pointer into them exists.
///
/// `Send` and `Sync` by its fields. The contract its raw row pointers carry:
/// `&mut self` methods run in the single-owner build phase only; afterwards
/// many probe workers reach rows through `*const u8`, read columns and
/// hashes nobody writes any more, and touch the header word through
/// [`ChainTable`]'s atomics alone.
pub struct RowArena {
    /// Each page with the rows allocated in it.
    pages: Vec<(Vec<u64>, usize)>,
    stride: usize,
    rows_per_page: usize,
    rows: usize,
}

/// Target page size. Big enough to amortize allocation, small enough that a
/// worker's working set stays reasonable.
const ARENA_PAGE_BYTES: usize = 256 * 1024;

impl RowArena {
    pub fn new(stride: usize) -> RowArena {
        assert!(
            stride > 0 && stride.is_multiple_of(8),
            "arena stride must be a multiple of 8"
        );
        let rows_per_page = (ARENA_PAGE_BYTES / stride).max(1);
        RowArena {
            pages: Vec::new(),
            stride,
            rows_per_page,
            rows: 0,
        }
    }

    /// An arena over rows already written: each page with its row count,
    /// rows of `stride` bytes from the page's start (the hybrid join's
    /// pass-1 pages, linked where they lie).
    pub fn from_pages(
        stride: usize,
        pages: impl IntoIterator<Item = (Vec<u64>, usize)>,
    ) -> RowArena {
        let mut arena = RowArena::new(stride);
        for (words, rows) in pages {
            assert!(rows * stride <= words.len() * 8, "a page holds its rows");
            arena.rows += rows;
            arena.pages.push((words, rows));
        }
        // Nothing is allocated after the adopted pages.
        arena.rows_per_page = 0;
        arena
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Total bytes occupied by allocated rows.
    pub fn byte_size(&self) -> usize {
        self.rows * self.stride
    }

    /// Allocate the next row slot and return it for initialization.
    pub fn alloc_row(&mut self) -> &mut [u8] {
        assert!(
            self.rows_per_page > 0,
            "an arena over adopted pages is full"
        );
        if self
            .pages
            .last()
            .is_none_or(|&(_, n)| n == self.rows_per_page)
        {
            let words = vec![0u64; self.rows_per_page * self.stride / 8];
            self.pages.push((words, 0));
        }
        let (page, used) = self.pages.last_mut().unwrap();
        let off = *used * self.stride;
        *used += 1;
        self.rows += 1;
        // SAFETY: the page holds `rows_per_page * stride` bytes and it had
        // fewer than `rows_per_page` rows (checked above), so the slot lies
        // inside it; the `&mut self` borrow the slice inherits keeps any
        // other slot from being handed out while it lives.
        unsafe {
            std::slice::from_raw_parts_mut(page.as_mut_ptr().cast::<u8>().add(off), self.stride)
        }
    }

    /// Raw pointers to every allocated row. The pointers remain valid for
    /// the arena's lifetime (pages never move or shrink).
    pub fn row_ptrs(&self) -> Vec<*const u8> {
        let mut out = Vec::with_capacity(self.rows);
        for (page, rows) in &self.pages {
            let base = page.as_ptr().cast::<u8>();
            for r in 0..*rows {
                // SAFETY: a page's `rows` rows lie inside it (`alloc_row`
                // fills at most `rows_per_page`, `from_pages` asserts it).
                out.push(unsafe { base.add(r * self.stride) });
            }
        }
        out
    }
}

/// The shared bucket array.
pub struct ChainTable {
    buckets: Vec<AtomicU64>,
    mask: u64,
    /// Hash bits below this one are not read: the hybrid join's rows of one
    /// table share them (they chose the rows' partition).
    shift: u32,
}

impl ChainTable {
    /// Allocate for `count` rows: one bucket per row, rounded up to a power
    /// of two (chained, so load factor 1 is fine).
    pub fn new(count: usize) -> ChainTable {
        ChainTable::with_shift(count, 0)
    }

    /// [`ChainTable::new`], indexing buckets by the hash bits from `shift`
    /// up.
    pub fn with_shift(count: usize, shift: u32) -> ChainTable {
        let n = ChainTable::buckets_for(count);
        let mut buckets = Vec::with_capacity(n);
        buckets.resize_with(n, || AtomicU64::new(0));
        ChainTable {
            buckets,
            mask: (n - 1) as u64,
            shift,
        }
    }

    /// Buckets a table for `count` rows has.
    pub fn buckets_for(count: usize) -> usize {
        count.max(16).next_power_of_two()
    }

    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Bucket index from the hash's low bits from `shift` up (0 for the
    /// BHJ, which never partitions).
    #[inline]
    fn bucket(&self, hash: u64) -> &AtomicU64 {
        &self.buckets[((hash >> self.shift) & self.mask) as usize]
    }

    /// Address of the bucket word (for software prefetching).
    #[inline]
    pub fn bucket_ptr(&self, hash: u64) -> *const AtomicU64 {
        self.bucket(hash)
    }

    /// Link `row` (whose header slot is at offset 0) into the table.
    /// Lock-free; safe to call from many workers concurrently.
    ///
    /// # Safety
    /// `row` must point to a live row with a writable 8-byte header at
    /// offset 0, not concurrently accessed except through this table.
    pub unsafe fn insert(&self, row: *mut u8, hash: u64) {
        debug_assert_eq!(row as u64 & !PTR_MASK, 0, "non-canonical row pointer");
        let bucket = self.bucket(hash);
        let tag = pointer_tag(hash);
        let mut old = bucket.load(Ordering::Relaxed);
        loop {
            // Store the previous head as this row's next pointer.
            let next = old & PTR_MASK;
            // SAFETY: the caller owns `row` exclusively until the CAS below
            // publishes it, and its first 8 bytes are the (8-aligned) header.
            std::ptr::write(row.cast::<u64>(), next);
            let new = (row as u64) | (old & TAG_MASK) | tag;
            match bucket.compare_exchange_weak(old, new, Ordering::Release, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => old = actual,
            }
        }
    }

    /// Load a bucket head for probing (tag + first row pointer).
    #[inline]
    pub fn head(&self, hash: u64) -> u64 {
        self.bucket(hash).load(Ordering::Acquire)
    }

    /// Whether the head's tag filter can contain this hash.
    #[inline]
    pub fn tag_may_contain(head: u64, hash: u64) -> bool {
        head & pointer_tag(hash) != 0
    }

    /// First row of the chain, or null.
    #[inline]
    pub fn first_row(head: u64) -> *const u8 {
        (head & PTR_MASK) as *const u8
    }

    /// Successor of `row` in the chain, or null.
    ///
    /// # Safety
    /// `row` must point to a live row inserted into this table.
    #[inline]
    pub unsafe fn next_row(row: *const u8) -> *const u8 {
        // SAFETY: the caller vouches for a live, linked row, whose 8-aligned
        // header `insert` wrote before publishing it. The load is atomic
        // because `mark_matched` may set bit 63 of the same word from
        // another worker meanwhile; the pointer bits kept here never change.
        let header = &*(row.cast::<AtomicU64>());
        (header.load(Ordering::Relaxed) & PTR_MASK) as *const u8
    }

    /// Atomically mark `row` as matched (build-preserved join variants).
    ///
    /// # Safety
    /// `row` must point to a live row inserted into this table.
    #[inline]
    pub unsafe fn mark_matched(row: *const u8) {
        // SAFETY: the caller vouches for a live, linked row; after linking,
        // its 8-aligned header is only ever accessed atomically.
        let header = &*(row.cast::<AtomicU64>());
        // Cheap check first: the flag is set at most once per row in the
        // common case, so skip the RMW when already set.
        if header.load(Ordering::Relaxed) & MATCH_FLAG == 0 {
            header.fetch_or(MATCH_FLAG, Ordering::Relaxed);
        }
    }

    /// Whether `row` was marked as matched.
    ///
    /// # Safety
    /// `row` must point to a live row inserted into this table.
    #[inline]
    pub unsafe fn is_matched(row: *const u8) -> bool {
        // SAFETY: as in `mark_matched`, which may run concurrently.
        let header = &*(row.cast::<AtomicU64>());
        header.load(Ordering::Relaxed) & MATCH_FLAG != 0
    }

    /// Walk every bucket chain and summarize occupancy (profiler support).
    ///
    /// # Safety
    /// Every row ever inserted into this table must still be live (the
    /// arenas backing them not dropped), and no concurrent inserts may run.
    pub unsafe fn chain_stats(&self) -> ChainStats {
        let mut stats = ChainStats {
            buckets: self.buckets.len(),
            occupied: 0,
            total_rows: 0,
            max_chain: 0,
        };
        for bucket in &self.buckets {
            let head = bucket.load(Ordering::Acquire);
            let mut row = ChainTable::first_row(head);
            if row.is_null() {
                continue;
            }
            stats.occupied += 1;
            let mut len = 0usize;
            while !row.is_null() {
                len += 1;
                // SAFETY: `row` is a bucket head or a linked row's `next`,
                // and the caller keeps every linked row alive.
                row = ChainTable::next_row(row);
            }
            stats.total_rows += len;
            stats.max_chain = stats.max_chain.max(len);
        }
        stats
    }
}

/// Bucket-occupancy summary of a [`ChainTable`] (hash-table load factor and
/// chain lengths reported by EXPLAIN ANALYZE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainStats {
    pub buckets: usize,
    /// Buckets with at least one row.
    pub occupied: usize,
    pub total_rows: usize,
    /// Longest chain.
    pub max_chain: usize,
}

impl ChainStats {
    /// Rows per bucket (the classic load factor).
    pub fn load_factor(&self) -> f64 {
        if self.buckets == 0 {
            0.0
        } else {
            self.total_rows as f64 / self.buckets as f64
        }
    }

    /// Average chain length over non-empty buckets.
    pub fn avg_chain(&self) -> f64 {
        if self.occupied == 0 {
            0.0
        } else {
            self.total_rows as f64 / self.occupied as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_u64;
    use crate::row::write_u64;

    /// Build tiny rows: [next][hash][key] with stride 24.
    fn make_rows(arena: &mut RowArena, keys: &[u64]) -> Vec<(*mut u8, u64)> {
        keys.iter()
            .map(|&k| {
                let h = hash_u64(k);
                let row = arena.alloc_row();
                write_u64(row, 8, h);
                write_u64(row, 16, k);
                (row.as_mut_ptr(), h)
            })
            .collect()
    }

    fn chain_keys(table: &ChainTable, hash: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let head = table.head(hash);
        if !ChainTable::tag_may_contain(head, hash) {
            return out;
        }
        let mut row = ChainTable::first_row(head);
        while !row.is_null() {
            // SAFETY: `row` was linked by the test from a `make_rows` arena
            // that is still alive: 24 bytes of [next][hash][key].
            unsafe {
                let rh = std::ptr::read(row.add(8).cast::<u64>());
                if rh == hash {
                    out.push(std::ptr::read(row.add(16).cast::<u64>()));
                }
                row = ChainTable::next_row(row);
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn arena_rows_stable_and_counted() {
        let mut arena = RowArena::new(24);
        let mut ptrs = Vec::new();
        for i in 0..20_000u64 {
            let row = arena.alloc_row();
            write_u64(row, 16, i);
            ptrs.push(row.as_ptr());
        }
        assert_eq!(arena.rows(), 20_000);
        assert_eq!(arena.byte_size(), 20_000 * 24);
        // Every recorded pointer still reads back its value.
        for (i, &p) in ptrs.iter().enumerate() {
            // SAFETY: `p` is a 24-byte slot of `arena`, whose pages never move.
            let v = unsafe { std::ptr::read(p.add(16).cast::<u64>()) };
            assert_eq!(v, i as u64);
        }
        assert_eq!(arena.row_ptrs().len(), 20_000);
        assert_eq!(arena.row_ptrs()[5], ptrs[5]);
    }

    #[test]
    fn insert_and_probe_chains() {
        let mut arena = RowArena::new(24);
        let rows = make_rows(&mut arena, &[1, 2, 3, 2, 2]);
        let table = ChainTable::new(rows.len());
        for &(ptr, h) in &rows {
            // SAFETY: a `make_rows` slot of the live `arena`, linked once.
            unsafe { table.insert(ptr, h) };
        }
        assert_eq!(chain_keys(&table, hash_u64(1)), vec![1]);
        assert_eq!(chain_keys(&table, hash_u64(2)), vec![2, 2, 2]);
        assert_eq!(chain_keys(&table, hash_u64(3)), vec![3]);
        assert_eq!(chain_keys(&table, hash_u64(99)), Vec::<u64>::new());
    }

    #[test]
    fn tags_filter_absent_keys() {
        let mut arena = RowArena::new(24);
        let rows = make_rows(&mut arena, &(0..64).collect::<Vec<u64>>());
        let table = ChainTable::new(4096);
        for &(ptr, h) in &rows {
            // SAFETY: a `make_rows` slot of the live `arena`, linked once.
            unsafe { table.insert(ptr, h) };
        }
        // With 4096 buckets and 64 keys, most buckets are empty: their tag
        // (zero) must reject everything.
        let mut rejected = 0;
        for k in 1000..2000u64 {
            let h = hash_u64(k);
            if !ChainTable::tag_may_contain(table.head(h), h) {
                rejected += 1;
            }
        }
        assert!(rejected > 900, "tags rejected only {rejected}/1000");
        // And never reject a present key.
        for k in 0..64u64 {
            let h = hash_u64(k);
            assert!(ChainTable::tag_may_contain(table.head(h), h));
        }
    }

    #[test]
    fn concurrent_inserts_lose_nothing() {
        let stride = 24;
        let keys_per_thread = 5000u64;
        let threads = 4;
        let mut arenas: Vec<RowArena> = (0..threads).map(|_| RowArena::new(stride)).collect();
        let table = ChainTable::new((threads as usize) * keys_per_thread as usize);
        std::thread::scope(|scope| {
            for (t, arena) in arenas.iter_mut().enumerate() {
                let table = &table;
                scope.spawn(move || {
                    for i in 0..keys_per_thread {
                        let k = t as u64 * keys_per_thread + i;
                        let h = hash_u64(k);
                        let row = arena.alloc_row();
                        write_u64(row, 8, h);
                        write_u64(row, 16, k);
                        // SAFETY: a fresh slot of this thread's own arena,
                        // which outlives the table.
                        unsafe { table.insert(row.as_mut_ptr(), h) };
                    }
                });
            }
        });
        for k in 0..threads as u64 * keys_per_thread {
            assert_eq!(chain_keys(&table, hash_u64(k)), vec![k], "lost key {k}");
        }
    }

    #[test]
    fn chain_stats_counts_rows_and_chains() {
        let mut arena = RowArena::new(24);
        let rows = make_rows(&mut arena, &[1, 2, 3, 2, 2]);
        let table = ChainTable::new(rows.len());
        for &(ptr, h) in &rows {
            // SAFETY: a `make_rows` slot of the live `arena`, linked once.
            unsafe { table.insert(ptr, h) };
        }
        // SAFETY: `arena` is alive and nobody inserts any more.
        let stats = unsafe { table.chain_stats() };
        assert_eq!(stats.total_rows, 5);
        assert!(stats.occupied >= 1 && stats.occupied <= 3);
        assert!(stats.max_chain >= 3, "three dup keys share one chain");
        assert!(stats.load_factor() > 0.0);
        assert!(stats.avg_chain() >= 1.0);
    }

    #[test]
    fn match_flags() {
        let mut arena = RowArena::new(24);
        let rows = make_rows(&mut arena, &[10, 20]);
        let table = ChainTable::new(2);
        for &(ptr, h) in &rows {
            // SAFETY: a `make_rows` slot of the live `arena`, linked once.
            unsafe { table.insert(ptr, h) };
        }
        // SAFETY: both rows are linked slots of the live `arena`.
        unsafe {
            assert!(!ChainTable::is_matched(rows[0].0));
            ChainTable::mark_matched(rows[0].0);
            ChainTable::mark_matched(rows[0].0); // idempotent
            assert!(ChainTable::is_matched(rows[0].0));
            assert!(!ChainTable::is_matched(rows[1].0));
            // The flag must not corrupt the next pointer.
            let next = ChainTable::next_row(rows[0].0);
            assert!(next.is_null() || next as u64 & !PTR_MASK == 0);
        }
    }
}
