//! Software write-combine buffers (SWWCBs) and non-temporal streaming.
//!
//! Radix partitioning scatters rows to hundreds of destinations; writing
//! each row straight to its partition touches one cache line (and TLB entry)
//! per destination per row. SWWCBs (Wassenberg & Sanders; adopted for joins
//! by Balkesen et al.) fix this: each worker keeps one small cache-resident
//! buffer per partition, rows are first appended there, and only *full*
//! buffers are written out — with non-temporal streaming stores that bypass
//! the cache hierarchy entirely, halving write traffic and avoiding cache
//! pollution (§3.3 of the paper).
//!
//! Both optimizations are independently switchable (the ablation benches
//! measure each), and the non-temporal path falls back to plain `memcpy` on
//! non-x86 targets.

/// Copy `src` to `dst` with non-temporal (cache-bypassing) stores.
///
/// Requirements: equal lengths, a multiple of 8, and `dst` 8-byte aligned
/// (guaranteed by page buffers being `u64`-backed and row strides being
/// multiples of 8); a call that breaks one panics. Callers must execute
/// [`nt_fence`] before the written data is handed to another thread.
///
/// Dispatches through [`crate::simd`]: on AVX2 hosts the body uses 256-bit
/// `_mm256_stream_si256` stores (with 8-byte head/tail alignment handling);
/// the scalar path keeps the original 8-byte `_mm_stream_si64` loop, so
/// `JOINSTUDY_NO_SIMD=1` reproduces the pre-SIMD binary exactly.
#[inline]
pub fn nt_copy(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "NT copy of unequal lengths");
    assert_eq!(dst.len() % 8, 0, "NT copy of a partial word");
    assert_eq!(dst.as_ptr() as usize % 8, 0, "unaligned NT destination");
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if crate::simd::active() == crate::simd::SimdPath::Avx2 {
        crate::simd::nt_copy_avx2(dst, src);
        return;
    }
    // SAFETY: `dst` and `src` are `n` whole words long (asserted above), so
    // every word read and stored lies inside them; `dst` is word-aligned.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use std::arch::x86_64::_mm_stream_si64;
        let n = dst.len() / 8;
        let d = dst.as_mut_ptr().cast::<i64>();
        let s = src.as_ptr().cast::<i64>();
        for i in 0..n {
            _mm_stream_si64(d.add(i), s.add(i).read_unaligned());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    dst.copy_from_slice(src);
}

/// Drain the CPU's write-combining buffers. Must run before another thread
/// reads data written through [`nt_copy`]; we call it once per pass-1 worker
/// and pass-2 task (like the original radix-join code), not per flush.
#[inline]
pub fn nt_fence() {
    // SAFETY: `sfence` only orders stores; it touches no memory.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        std::arch::x86_64::_mm_sfence();
    }
}

/// Prefetch the cache line containing `ptr` into all cache levels. Used by
/// the non-partitioned join's staged probe and table link (relaxed operator
/// fusion). A no-op off x86-64 and under Miri.
#[inline]
pub fn prefetch_read<T>(ptr: *const T) {
    // SAFETY: a prefetch is a hint; it faults on no address, mapped or not.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(ptr.cast::<i8>(), _MM_HINT_T0);
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = ptr;
}

/// Default SWWCB capacity: four cache lines per partition buffer, a common
/// sweet spot (≥ 1 line as required, small enough that `fanout × buffer`
/// stays cache-resident).
pub const SWWCB_BYTES: usize = 256;

/// One write-combine buffer per partition, all backed by a single
/// `u64`-aligned allocation.
pub struct SwwcbSet {
    data: Vec<u64>,
    /// Fill level in bytes, per partition.
    fill: Vec<u32>,
    buf_bytes: usize,
    stride: usize,
}

impl SwwcbSet {
    /// `stride` must be a power of two ≤ 64 (the row-layout eligibility rule
    /// enforces this before a `SwwcbSet` is ever constructed).
    pub fn new(partitions: usize, stride: usize) -> SwwcbSet {
        assert!(
            stride.is_power_of_two() && stride <= 64,
            "stride {stride} not SWWCB-eligible"
        );
        let buf_bytes = SWWCB_BYTES.max(stride);
        SwwcbSet {
            data: vec![0u64; partitions * buf_bytes / 8],
            fill: vec![0; partitions],
            buf_bytes,
            stride,
        }
    }

    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Bytes this buffer set occupies (memory-budget accounting).
    pub fn byte_size(&self) -> usize {
        self.data.len() * 8 + self.fill.len() * 4
    }

    /// Whether partition `p`'s buffer has no room for another row.
    #[inline]
    pub fn is_full(&self, p: usize) -> bool {
        self.fill[p] as usize + self.stride > self.buf_bytes
    }

    /// The filled prefix of partition `p`'s buffer.
    #[inline]
    pub fn filled(&self, p: usize) -> &[u8] {
        let fill = self.fill[p] as usize;
        let base = p * self.buf_bytes;
        // SAFETY: `fill[p]` was indexed above, so `p` is a partition and its
        // `buf_bytes` from `base` lie inside `data`; a fill never exceeds them
        // (`next_slot` asserts it).
        unsafe { std::slice::from_raw_parts(self.data.as_ptr().cast::<u8>().add(base), fill) }
    }

    /// Mark partition `p`'s buffer as drained.
    #[inline]
    pub fn clear(&mut self, p: usize) {
        self.fill[p] = 0;
    }

    /// Reserve the next row slot in partition `p`'s buffer. The caller must
    /// have drained a full buffer first; a full one panics.
    #[inline]
    pub fn next_slot(&mut self, p: usize) -> &mut [u8] {
        assert!(!self.is_full(p), "SWWCB of partition {p} is full");
        let at = p * self.buf_bytes + self.fill[p] as usize;
        self.fill[p] += self.stride as u32;
        // SAFETY: `p` is a partition (`is_full` indexed `fill[p]`) and its
        // buffer had room for one more row (asserted above), so the slot lies
        // inside that buffer, and `&mut self` keeps it unaliased.
        unsafe {
            std::slice::from_raw_parts_mut(self.data.as_mut_ptr().cast::<u8>().add(at), self.stride)
        }
    }

    /// Partitions with buffered rows (for the end-of-input flush).
    pub fn non_empty(&self) -> Vec<usize> {
        self.fill
            .iter()
            .enumerate()
            .filter_map(|(p, &f)| (f > 0).then_some(p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nt_copy_roundtrip() {
        let src: Vec<u8> = (0..64u8).collect();
        let mut dst_words = vec![0u64; 8];
        let dst =
            unsafe { std::slice::from_raw_parts_mut(dst_words.as_mut_ptr().cast::<u8>(), 64) };
        nt_copy(dst, &src);
        nt_fence();
        assert_eq!(dst, &src[..]);
    }

    #[test]
    fn swwcb_fill_and_flush_cycle() {
        let stride = 16;
        let mut set = SwwcbSet::new(4, stride);
        let rows_per_buf = SWWCB_BYTES / stride;
        // Fill partition 2 to capacity.
        for i in 0..rows_per_buf {
            assert!(!set.is_full(2));
            let slot = set.next_slot(2);
            slot[0] = i as u8;
        }
        assert!(set.is_full(2));
        assert!(!set.is_full(1));
        let filled = set.filled(2);
        assert_eq!(filled.len(), SWWCB_BYTES);
        assert_eq!(filled[0], 0);
        assert_eq!(filled[stride], 1);
        set.clear(2);
        assert!(!set.is_full(2));
        assert_eq!(set.filled(2).len(), 0);
    }

    #[test]
    fn non_empty_reports_partial_buffers() {
        let mut set = SwwcbSet::new(8, 32);
        set.next_slot(1)[0] = 1;
        set.next_slot(5)[0] = 1;
        set.next_slot(5)[0] = 1;
        assert_eq!(set.non_empty(), vec![1, 5]);
        assert_eq!(set.filled(5).len(), 64);
    }

    #[test]
    #[should_panic(expected = "not SWWCB-eligible")]
    fn rejects_oversized_stride() {
        SwwcbSet::new(4, 128);
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn nt_copy_rejects_a_short_source() {
        // Lengths are checked before alignment.
        nt_copy(&mut [0u8; 64], &[0u8; 32]);
    }

    #[test]
    #[should_panic(expected = "partial word")]
    fn nt_copy_rejects_a_partial_word() {
        nt_copy(&mut [0u8; 12], &[0u8; 12]);
    }

    #[test]
    #[should_panic(expected = "unaligned NT destination")]
    fn nt_copy_rejects_an_unaligned_destination() {
        let mut buf = [0u8; 24];
        let skew = usize::from((buf.as_ptr() as usize).is_multiple_of(8));
        nt_copy(&mut buf[skew..skew + 16], &[0u8; 16]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn filled_rejects_a_partition_past_the_set() {
        let set = SwwcbSet::new(4, 16);
        set.filled(4);
    }

    #[test]
    #[should_panic(expected = "is full")]
    fn next_slot_rejects_a_full_buffer() {
        // The last partition's buffer ends where `data` does.
        let mut set = SwwcbSet::new(2, 64);
        for _ in 0..=SWWCB_BYTES / 64 {
            set.next_slot(1);
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn next_slot_rejects_a_partition_past_the_set() {
        SwwcbSet::new(2, 64).next_slot(2);
    }

    #[test]
    fn buffers_do_not_interfere() {
        let mut set = SwwcbSet::new(2, 64);
        set.next_slot(0).fill(0xAA);
        set.next_slot(1).fill(0xBB);
        assert!(set.filled(0).iter().all(|&b| b == 0xAA));
        assert!(set.filled(1).iter().all(|&b| b == 0xBB));
    }
}
