//! Global chaining hash table with tagged pointers — the heart of the
//! buffered non-partitioned hash join (BHJ).
//!
//! Build tuples are materialized once into the partition sink's
//! [`RowArena`]s, one per worker and pre-partition (stable addresses, no
//! relocation), then linked where they lie into a shared bucket array with
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
use crate::swwcb::nt_copy;
use std::sync::atomic::{AtomicU64, Ordering};

/// Low 48 bits: the actual row address (x86-64 canonical user pointers).
pub const PTR_MASK: u64 = 0x0000_FFFF_FFFF_FFFF;
/// High 16 bits of a bucket head: the tag filter.
pub const TAG_MASK: u64 = !PTR_MASK;
/// Bit 63 of a row header: set when a probe tuple matched this build tuple.
pub const MATCH_FLAG: u64 = 1 << 63;

/// Growth schedule: "whenever a page is full, a larger page is prepended".
/// A [`RowArena`]'s first page has this size, each next one twice the last,
/// up to [`MAX_PAGE_BYTES`].
pub(crate) const FIRST_PAGE_BYTES: usize = 4 * 1024;
/// Big enough to amortize allocation, small enough that a worker's working
/// set stays reasonable.
const MAX_PAGE_BYTES: usize = 256 * 1024;

/// One page of a [`RowArena`]: its buffer and the bytes of rows it holds.
struct Page {
    words: Vec<u64>,
    len: usize,
}

impl Page {
    fn capacity(&self) -> usize {
        self.words.len() * 8
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: `len <= capacity()`, the byte size of `words`: `len` only
        // grows in `RowArena::append`/`alloc_row`, by at most the room
        // `current_page` guaranteed. The words are initialized (zeroed at
        // allocation), and `u8` has no alignment to meet.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

/// The one row container: a list of pages holding fixed-stride rows at
/// stable addresses (pages never move or shrink). A partition sink's worker
/// keeps one per pre-partition; a BHJ table takes them over, one per worker
/// ([`RowArena::concat`]), and links their rows into its [`ChainTable`]
/// where they lie.
///
/// `Send` and `Sync` by its fields. The contract its raw row pointers carry:
/// `&mut self` methods run in the single-owner build phase only; afterwards
/// many probe workers reach rows through `*const u8`, read columns and
/// hashes nobody writes any more, and touch the header word through
/// [`ChainTable`]'s atomics alone.
pub struct RowArena {
    pages: Vec<Page>,
    stride: usize,
    bytes: usize,
}

impl RowArena {
    pub fn new(stride: usize) -> RowArena {
        assert!(
            stride > 0 && stride.is_multiple_of(8),
            "arena stride must be a multiple of 8"
        );
        RowArena {
            pages: Vec::new(),
            stride,
            bytes: 0,
        }
    }

    pub fn rows(&self) -> usize {
        self.bytes / self.stride
    }

    /// Bytes of the rows held (the figure a lease is charged).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Take the pages out, leaving an empty arena of the same stride.
    pub(crate) fn take(&mut self) -> RowArena {
        std::mem::replace(self, RowArena::new(self.stride))
    }

    /// The page the next write goes to, guaranteed to have room for
    /// `bytes` more. This is the single place encoding the arena's growth
    /// rule: writes go to the last page, or to a new one when it is full,
    /// so they never search.
    fn current_page(&mut self, bytes: usize) -> &mut Page {
        if self
            .pages
            .last()
            .is_none_or(|p| p.capacity() - p.len < bytes)
        {
            let grown = self
                .pages
                .last()
                .map_or(FIRST_PAGE_BYTES, |p| (p.capacity() * 2).min(MAX_PAGE_BYTES));
            let cap = grown.max(bytes.next_multiple_of(8));
            self.pages.push(Page {
                words: vec![0u64; cap / 8],
                len: 0,
            });
        }
        self.pages.last_mut().expect("a page with room was pushed")
    }

    /// This arena with `other`'s pages behind its own (rows of one stride).
    pub(crate) fn concat(mut self, mut other: RowArena) -> RowArena {
        assert_eq!(self.stride, other.stride, "arenas of one row layout");
        self.bytes += other.bytes;
        self.pages.append(&mut other.pages);
        self
    }

    /// Append a block of whole rows (a flushed SWWCB), with non-temporal
    /// stores when `nt`.
    pub(crate) fn append(&mut self, bytes: &[u8], nt: bool) {
        debug_assert_eq!(bytes.len() % self.stride, 0);
        if bytes.is_empty() {
            return;
        }
        self.bytes += bytes.len();
        let page = self.current_page(bytes.len());
        let off = page.len;
        page.len += bytes.len();
        // SAFETY: `current_page` returned a page with at least
        // `bytes.len()` bytes free past `off`, so the slice lies inside
        // `words`, which the `&mut` page borrow keeps from any other alias.
        let dst = unsafe {
            std::slice::from_raw_parts_mut(
                page.words.as_mut_ptr().cast::<u8>().add(off),
                bytes.len(),
            )
        };
        if nt {
            nt_copy(dst, bytes);
        } else {
            dst.copy_from_slice(bytes);
        }
    }

    /// Allocate the next row slot and return it for initialization.
    pub fn alloc_row(&mut self) -> &mut [u8] {
        let stride = self.stride;
        self.bytes += stride;
        let page = self.current_page(stride);
        let off = page.len;
        page.len += stride;
        // SAFETY: `current_page` returned a page with at least `stride`
        // bytes free past `off`; the slice borrows `self` mutably, so it is
        // the only view of those bytes while it lives.
        unsafe {
            std::slice::from_raw_parts_mut(page.words.as_mut_ptr().cast::<u8>().add(off), stride)
        }
    }

    /// The filled part of every page.
    pub(crate) fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.pages.iter().map(Page::bytes)
    }

    /// Every row where it lies, in page order. The pointers stay valid for
    /// the arena's lifetime and, derived from the pages' buffers rather than
    /// from a shared slice, may write a row's header through
    /// [`ChainTable::insert`].
    pub(crate) fn row_iter(&self) -> impl Iterator<Item = *const u8> + '_ {
        let stride = self.stride;
        self.pages.iter().flat_map(move |p| {
            let base = p.words.as_ptr().cast::<u8>();
            (0..p.len / stride).map(move |r| base.wrapping_add(r * stride))
        })
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
    use crate::row::{read_u64, write_u64};

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
        assert_eq!(arena.bytes(), 20_000 * 24);
        // Every recorded pointer still reads back its value.
        for (i, &p) in ptrs.iter().enumerate() {
            // SAFETY: `p` is a 24-byte slot of `arena`, whose pages never move.
            let v = unsafe { std::ptr::read(p.add(16).cast::<u64>()) };
            assert_eq!(v, i as u64);
        }
        assert!(arena.row_iter().eq(ptrs.iter().copied()));
    }

    #[test]
    fn arena_pages_grow_and_chunk() {
        let mut arena = RowArena::new(16);
        let row_count = 10_000;
        for i in 0..row_count {
            let slot = arena.alloc_row();
            slot[..8].copy_from_slice(&(i as u64).to_le_bytes());
        }
        // A flushed write-combine buffer appends whole rows, streamed or not.
        let block: Vec<u8> = (row_count..row_count + 4)
            .flat_map(|i| [(i as u64).to_le_bytes(), [0; 8]].concat())
            .collect();
        arena.append(&block[..32], true);
        arena.append(&block[32..], false);
        assert_eq!(arena.rows(), row_count + 4);
        assert_eq!(arena.bytes(), (row_count + 4) * 16);
        let pages: Vec<usize> = arena.chunks().map(<[u8]>::len).collect();
        // Full pages double from the first; the last holds the remainder.
        let full: Vec<usize> = (0..5).map(|i| FIRST_PAGE_BYTES << i).collect();
        assert_eq!(pages[..5], full[..], "{pages:?}");
        assert_eq!(pages.len(), 6, "{pages:?}");
        let mut seen = 0u64;
        for chunk in arena.chunks() {
            assert_eq!(chunk.len() % 16, 0);
            for row in chunk.chunks_exact(16) {
                assert_eq!(read_u64(row, 0), seen);
                seen += 1;
            }
        }
        assert_eq!(seen, row_count as u64 + 4);
        let taken = arena.take();
        assert_eq!((taken.rows(), arena.rows()), (row_count + 4, 0));
        // Concatenation moves pages: the rows keep their order and places.
        let first: Vec<*const u8> = taken.row_iter().collect();
        arena.alloc_row()[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        let joined = taken.concat(arena);
        assert_eq!(joined.rows(), row_count + 5);
        assert!(joined.row_iter().take(row_count + 4).eq(first));
        // SAFETY: `joined` holds `row_count + 5` rows of 16 bytes, 8-aligned
        // (pages are `Vec<u64>`).
        let last = unsafe { std::ptr::read(joined.row_iter().last().unwrap().cast::<u64>()) };
        assert_eq!(last, u64::MAX);
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
