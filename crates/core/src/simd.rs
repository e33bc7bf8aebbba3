//! Runtime-dispatched SIMD kernels for the three hot inner loops.
//!
//! The paper's partition-or-not verdict hinges on per-tuple kernel costs;
//! modern engines vectorize exactly three of ours: key hashing
//! ([`crate::hash`]), the radix partition scatter
//! ([`crate::radix`]/[`crate::swwcb`]), and the Bloom-filter probe
//! ([`crate::bloom`]). This module holds the AVX2 variants of those loops
//! and the dispatch layer that picks between them and the portable scalar
//! code at runtime.
//!
//! # Dispatch contract
//!
//! * The path is probed **once per process** (cpuid via
//!   `is_x86_feature_detected!`, cached in a `OnceLock`) and never changes
//!   afterwards — callers may cache per-query state derived from it.
//! * `JOINSTUDY_NO_SIMD=1` forces the scalar path (CI's scalar-forced leg);
//!   miri and non-x86_64 targets always take it.
//! * Scalar and AVX2 paths are **byte-equivalent**: every kernel is pure
//!   integer arithmetic, so both paths produce identical outputs for
//!   identical inputs (proptest-verified in `tests/simd_equivalence.rs`,
//!   asserted end-to-end by CI's Q3 dispatch-equivalence step).
//! * Each dispatched call bumps a per-kernel `simd.<kernel>.<path>` registry
//!   counter by the number of rows processed, so EXPLAIN ANALYZE, traces and
//!   the bench gate can all see which path actually ran.
//!
//! # Alignment and tails
//!
//! AVX2 kernels make no alignment assumptions on their *inputs* (unaligned
//! loads / gathers); trailing `len % 4` elements fall through to the scalar
//! reference code. The non-temporal store kernel aligns its *destination*
//! cursor up to 32 bytes with 8-byte streaming stores before switching to
//! 256-bit `_mm256_stream_si256`, and finishes the tail the same way — the
//! destination is always 8-byte aligned (guaranteed by `u64`-backed buffers
//! and strides that are multiples of 8, same contract as
//! [`crate::swwcb::nt_copy`]).

use crate::hash::{hash_combine, hash_u64};
use joinstudy_exec::registry::{self, Counter};
use std::sync::Arc;
use std::sync::OnceLock;

/// Environment variable forcing the scalar path when set to anything but
/// `0` (documented form: `JOINSTUDY_NO_SIMD=1`).
pub const NO_SIMD_ENV: &str = "JOINSTUDY_NO_SIMD";

/// Which kernel implementation the dispatcher selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPath {
    /// AVX2 intrinsics (x86_64 with the `avx2` cpuid bit, not under miri,
    /// not disabled via [`NO_SIMD_ENV`]).
    Avx2,
    /// Portable scalar reference code.
    Scalar,
}

impl SimdPath {
    /// Short name used in EXPLAIN ANALYZE headers and counter names.
    pub fn name(self) -> &'static str {
        match self {
            SimdPath::Avx2 => "avx2",
            SimdPath::Scalar => "scalar",
        }
    }
}

/// Whether the CPU supports AVX2 at all, ignoring the [`NO_SIMD_ENV`]
/// override. Equivalence tests use this to decide whether the AVX2 side of
/// an A/B comparison can run.
pub fn avx2_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| std::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    false
}

/// The process-wide dispatch decision (probed once, cached forever).
pub fn active() -> SimdPath {
    static PATH: OnceLock<SimdPath> = OnceLock::new();
    *PATH.get_or_init(|| {
        let disabled = std::env::var_os(NO_SIMD_ENV).is_some_and(|v| !v.is_empty() && v != "0");
        if !disabled && avx2_available() {
            SimdPath::Avx2
        } else {
            SimdPath::Scalar
        }
    })
}

/// The kernels instrumented with `simd.*` counters.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    /// Key hashing in [`crate::hash::hash_columns`].
    Hash,
    /// The radix histogram scan (pass 2 preparation).
    Hist,
    /// The pass-2 partition scatter (SWWCB flushes / row copies).
    Scatter,
    /// The Bloom-filter probe of the BRJ's probe pipeline.
    Bloom,
}

struct KernelCounters {
    avx2: [Arc<Counter>; 4],
    scalar: [Arc<Counter>; 4],
}

fn counters() -> &'static KernelCounters {
    static C: OnceLock<KernelCounters> = OnceLock::new();
    C.get_or_init(|| {
        let reg = registry::global();
        let mk = |path: &str| {
            ["hash", "hist", "scatter", "bloom"].map(|k| reg.counter(&format!("simd.{k}.{path}")))
        };
        KernelCounters {
            avx2: mk("avx2"),
            scalar: mk("scalar"),
        }
    })
}

/// Record `rows` tuples processed by `kernel` on `path`. Called once per
/// batch / per task, never per row — the counters must not show up in the
/// loops they instrument.
#[inline]
pub fn note(kernel: Kernel, path: SimdPath, rows: usize) {
    let c = counters();
    let set = match path {
        SimdPath::Avx2 => &c.avx2,
        SimdPath::Scalar => &c.scalar,
    };
    set[kernel as usize].add(rows as u64);
}

// ---------------------------------------------------------------------------
// Hash kernels
// ---------------------------------------------------------------------------

/// Scalar reference: hash a slice of i64 keys (`v as u64` then murmur
/// finalizer), either initializing `out` (`first`) or combining into it.
pub fn hash_i64_scalar(vals: &[i64], out: &mut [u64], first: bool) {
    debug_assert_eq!(vals.len(), out.len());
    if first {
        for (o, &v) in out.iter_mut().zip(vals) {
            *o = hash_u64(v as u64);
        }
    } else {
        for (o, &v) in out.iter_mut().zip(vals) {
            *o = hash_combine(*o, hash_u64(v as u64));
        }
    }
}

/// Scalar reference for i32 keys (sign-extended exactly like `v as u64`
/// on an `i32`, so INT and BIGINT columns agree on the hash).
pub fn hash_i32_scalar(vals: &[i32], out: &mut [u64], first: bool) {
    debug_assert_eq!(vals.len(), out.len());
    if first {
        for (o, &v) in out.iter_mut().zip(vals) {
            *o = hash_u64(v as u64);
        }
    } else {
        for (o, &v) in out.iter_mut().zip(vals) {
            *o = hash_combine(*o, hash_u64(v as u64));
        }
    }
}

/// Dispatched i64 key hashing. Counts rows under `simd.hash.*`.
pub fn hash_i64(vals: &[i64], out: &mut [u64], first: bool) {
    assert_eq!(vals.len(), out.len(), "hash output length");
    let path = active();
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if path == SimdPath::Avx2 {
        // SAFETY: the dispatcher chose AVX2, so the CPU has it, and the
        // kernel's bound `vals.len() == out.len()` was asserted above.
        unsafe { avx2::hash_i64(vals, out, first) };
        note(Kernel::Hash, path, vals.len());
        return;
    }
    hash_i64_scalar(vals, out, first);
    note(Kernel::Hash, path, vals.len());
}

/// Dispatched i32 key hashing. Counts rows under `simd.hash.*`.
pub fn hash_i32(vals: &[i32], out: &mut [u64], first: bool) {
    assert_eq!(vals.len(), out.len(), "hash output length");
    let path = active();
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if path == SimdPath::Avx2 {
        // SAFETY: the dispatcher chose AVX2, so the CPU has it, and the
        // kernel's bound `vals.len() == out.len()` was asserted above.
        unsafe { avx2::hash_i32(vals, out, first) };
        note(Kernel::Hash, path, vals.len());
        return;
    }
    hash_i32_scalar(vals, out, first);
    note(Kernel::Hash, path, vals.len());
}

/// AVX2 i64 hashing, callable directly by equivalence tests. Falls back to
/// scalar if AVX2 is unavailable (so the call is always safe).
pub fn hash_i64_avx2(vals: &[i64], out: &mut [u64], first: bool) {
    assert_eq!(vals.len(), out.len(), "hash output length");
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if avx2_available() {
        // SAFETY: AVX2 is present, and `vals.len() == out.len()` was
        // asserted above.
        unsafe { avx2::hash_i64(vals, out, first) };
        return;
    }
    hash_i64_scalar(vals, out, first);
}

/// AVX2 i32 hashing, callable directly by equivalence tests.
pub fn hash_i32_avx2(vals: &[i32], out: &mut [u64], first: bool) {
    assert_eq!(vals.len(), out.len(), "hash output length");
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if avx2_available() {
        // SAFETY: AVX2 is present, and `vals.len() == out.len()` was
        // asserted above.
        unsafe { avx2::hash_i32(vals, out, first) };
        return;
    }
    hash_i32_scalar(vals, out, first);
}

// ---------------------------------------------------------------------------
// Radix histogram kernel
// ---------------------------------------------------------------------------

/// Scalar reference: count rows per sub-partition over one packed row chunk.
/// `chunk` holds `chunk.len() / stride` rows; each row's materialized hash
/// sits at `hash_off`; the sub-partition is `(h >> bits1) & mask2`.
pub fn hist_chunk_scalar(
    chunk: &[u8],
    stride: usize,
    hash_off: usize,
    bits1: u32,
    mask2: u64,
    counts: &mut [usize],
) {
    for row in chunk.chunks_exact(stride) {
        let h = crate::row::read_u64(row, hash_off);
        counts[((h >> bits1) & mask2) as usize] += 1;
    }
}

/// Panics unless every row's 8-byte hash at `hash_off` lies inside its
/// `stride`-byte row — the bound the AVX2 gather relies on.
#[inline]
fn assert_hash_in_row(stride: usize, hash_off: usize) {
    assert!(
        stride > 0 && hash_off.checked_add(8).is_some_and(|end| end <= stride),
        "hash word at {hash_off} outside a {stride}-byte row"
    );
}

/// Dispatched histogram over one chunk. The caller notes `simd.hist.*` at
/// task granularity (one task scans many chunks).
#[inline]
pub fn hist_chunk(
    chunk: &[u8],
    stride: usize,
    hash_off: usize,
    bits1: u32,
    mask2: u64,
    counts: &mut [usize],
) {
    assert_hash_in_row(stride, hash_off);
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if active() == SimdPath::Avx2 {
        // SAFETY: the dispatcher chose AVX2, so the CPU has it, and the
        // gather's bound `hash_off + 8 <= stride` was asserted above.
        unsafe { avx2::hist_chunk(chunk, stride, hash_off, bits1, mask2, counts) };
        return;
    }
    hist_chunk_scalar(chunk, stride, hash_off, bits1, mask2, counts);
}

/// AVX2 histogram, callable directly by equivalence tests (scalar fallback
/// when AVX2 is unavailable).
pub fn hist_chunk_avx2(
    chunk: &[u8],
    stride: usize,
    hash_off: usize,
    bits1: u32,
    mask2: u64,
    counts: &mut [usize],
) {
    assert_hash_in_row(stride, hash_off);
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if avx2_available() {
        // SAFETY: AVX2 is present, and `hash_off + 8 <= stride` was
        // asserted above.
        unsafe { avx2::hist_chunk(chunk, stride, hash_off, bits1, mask2, counts) };
        return;
    }
    hist_chunk_scalar(chunk, stride, hash_off, bits1, mask2, counts);
}

// ---------------------------------------------------------------------------
// Non-temporal copy (SWWCB flush) kernel
// ---------------------------------------------------------------------------

/// AVX2 non-temporal copy: 8-byte streaming stores up to 32-byte destination
/// alignment, 256-bit `_mm256_stream_si256` for the body, 8-byte stores for
/// the tail. Same contract as [`crate::swwcb::nt_copy`]: equal lengths, a
/// multiple of 8, destination 8-byte aligned. Falls back to a plain copy if
/// AVX2 is unavailable (callers dispatch before reaching here; the fallback
/// only matters for direct test calls on non-AVX2 hosts).
pub fn nt_copy_avx2(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "NT copy of unequal lengths");
    assert_eq!(dst.len() % 8, 0, "NT copy of a partial word");
    assert_eq!(dst.as_ptr() as usize % 8, 0, "unaligned NT destination");
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if avx2_available() {
        // SAFETY: AVX2 is present, and the contract was asserted above.
        unsafe { avx2::nt_copy(dst, src) };
        return;
    }
    dst.copy_from_slice(src);
}

// ---------------------------------------------------------------------------
// Bloom probe kernel
// ---------------------------------------------------------------------------

/// AVX2 Bloom probe over a batch of hashes: for each hash, derive the final
/// radix partition `(p1 << bits2) | p2`, gather that partition's block word,
/// build the K-bit sector mask with variable shifts, and push the row index
/// of every hash whose mask bits are all set.
///
/// `words` is the filter's flat word array (`AtomicU64` reinterpreted as
/// `u64`: same layout, and probes never run concurrently with inserts —
/// build completes before the probe pipeline starts). `wpp_shift` is
/// `log2(words_per_partition)`; `word_mask` is `words_per_partition - 1`.
///
/// # Safety
///
/// The CPU must have AVX2. `words` must point to at least
/// `(1 << (bits1 + bits2 + wpp_shift))` readable words, and every hash's
/// derived index stays below that bound by construction (partition bits and
/// word bits are masked).
#[cfg(all(target_arch = "x86_64", not(miri)))]
pub unsafe fn bloom_probe_avx2(
    words: *const u64,
    wpp_shift: u32,
    word_mask: u64,
    bits1: u32,
    bits2: u32,
    hashes: &[u64],
    sel: &mut Vec<u32>,
) {
    // SAFETY: the caller upholds the `words` bound stated above, and the
    // caller dispatched here only with AVX2 present.
    unsafe { avx2::bloom_probe(words, wpp_shift, word_mask, bits1, bits2, hashes, sel) }
}

// ---------------------------------------------------------------------------
// AVX2 implementations
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod avx2 {
    use std::arch::x86_64::*;

    const MURMUR_C1: i64 = 0xFF51_AFD7_ED55_8CCD_u64 as i64;
    const MURMUR_C2: i64 = 0xC4CE_B9FE_1A85_EC53_u64 as i64;
    const COMBINE_K: i64 = 0x9E37_79B9_7F4A_7C15_u64 as i64;

    /// 64x64→64 low multiply synthesized from 32-bit multiplies (AVX2 has no
    /// `_mm256_mullo_epi64`): `lo(a)*lo(b) + ((hi(a)*lo(b) + lo(a)*hi(b)) << 32)`.
    ///
    /// # Safety
    /// The CPU must have AVX2; the rest is register arithmetic.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul64(a: __m256i, b: __m256i) -> __m256i {
        let lo = _mm256_mul_epu32(a, b);
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
        _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(cross))
    }

    /// Four murmur finalizers at once — bit-identical to
    /// [`crate::hash::hash_u64`] per lane.
    ///
    /// # Safety
    /// The CPU must have AVX2; the rest is register arithmetic.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fmix4(mut h: __m256i) -> __m256i {
        h = _mm256_xor_si256(h, _mm256_srli_epi64::<33>(h));
        h = mul64(h, _mm256_set1_epi64x(MURMUR_C1));
        h = _mm256_xor_si256(h, _mm256_srli_epi64::<33>(h));
        h = mul64(h, _mm256_set1_epi64x(MURMUR_C2));
        _mm256_xor_si256(h, _mm256_srli_epi64::<33>(h))
    }

    /// Four `hash_combine(acc, next)` at once.
    ///
    /// # Safety
    /// The CPU must have AVX2; the rest is register arithmetic.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn combine4(acc: __m256i, next: __m256i) -> __m256i {
        let t = _mm256_add_epi64(
            _mm256_add_epi64(next, _mm256_set1_epi64x(COMBINE_K)),
            _mm256_slli_epi64::<6>(acc),
        );
        fmix4(_mm256_xor_si256(acc, t))
    }

    /// # Safety
    /// The CPU must have AVX2, and `vals.len() == out.len()`: every 4-lane
    /// load and store is at `i + 4 <= vals.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn hash_i64(vals: &[i64], out: &mut [u64], first: bool) {
        debug_assert_eq!(vals.len(), out.len());
        let n = vals.len();
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_loadu_si256(vals.as_ptr().add(i).cast());
            let h = fmix4(v);
            let o = out.as_mut_ptr().add(i).cast::<__m256i>();
            let res = if first {
                h
            } else {
                combine4(_mm256_loadu_si256(o), h)
            };
            _mm256_storeu_si256(o, res);
            i += 4;
        }
        super::hash_i64_scalar(&vals[i..], &mut out[i..], first);
    }

    /// # Safety
    /// The CPU must have AVX2, and `vals.len() == out.len()`: every 4-lane
    /// load and store is at `i + 4 <= vals.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn hash_i32(vals: &[i32], out: &mut [u64], first: bool) {
        debug_assert_eq!(vals.len(), out.len());
        let n = vals.len();
        let mut i = 0usize;
        while i + 4 <= n {
            // Sign-extend four i32 lanes to i64 — matches `v as u64` on i32.
            let v32 = _mm_loadu_si128(vals.as_ptr().add(i).cast());
            let v = _mm256_cvtepi32_epi64(v32);
            let h = fmix4(v);
            let o = out.as_mut_ptr().add(i).cast::<__m256i>();
            let res = if first {
                h
            } else {
                combine4(_mm256_loadu_si256(o), h)
            };
            _mm256_storeu_si256(o, res);
            i += 4;
        }
        super::hash_i32_scalar(&vals[i..], &mut out[i..], first);
    }

    /// # Safety
    /// The CPU must have AVX2, `stride > 0` and `hash_off + 8 <= stride`:
    /// the gather reads 8 bytes at `hash_off` of rows `i..i + 4`, all below
    /// `chunk.len() / stride`, so each read stays inside its row.
    #[target_feature(enable = "avx2")]
    pub unsafe fn hist_chunk(
        chunk: &[u8],
        stride: usize,
        hash_off: usize,
        bits1: u32,
        mask2: u64,
        counts: &mut [usize],
    ) {
        let rows = chunk.len() / stride;
        let base = chunk.as_ptr();
        let shift = _mm_cvtsi64_si128(i64::from(bits1));
        let maskv = _mm256_set1_epi64x(mask2 as i64);
        let step = _mm256_set1_epi64x((4 * stride) as i64);
        // Byte offsets of the hash field in rows 0..4, advanced by 4 rows
        // per iteration; `_mm256_i64gather_epi64` with scale 1 reads the
        // (8-byte-aligned) hash word of each row.
        let mut offs = _mm256_set_epi64x(
            (3 * stride + hash_off) as i64,
            (2 * stride + hash_off) as i64,
            (stride + hash_off) as i64,
            hash_off as i64,
        );
        let mut i = 0usize;
        let mut lanes = [0u64; 4];
        while i + 4 <= rows {
            let h = _mm256_i64gather_epi64::<1>(base.cast(), offs);
            let s = _mm256_and_si256(_mm256_srl_epi64(h, shift), maskv);
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), s);
            counts[lanes[0] as usize] += 1;
            counts[lanes[1] as usize] += 1;
            counts[lanes[2] as usize] += 1;
            counts[lanes[3] as usize] += 1;
            offs = _mm256_add_epi64(offs, step);
            i += 4;
        }
        super::hist_chunk_scalar(&chunk[i * stride..], stride, hash_off, bits1, mask2, counts);
    }

    /// # Safety
    /// The CPU must have AVX2, and `dst` and `src` have one length, a
    /// multiple of 8 (`nt_copy_avx2` asserts both): every load and store is
    /// 8 or 32 bytes inside `rem`, which counts down from that length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn nt_copy(dst: &mut [u8], src: &[u8]) {
        let mut rem = dst.len();
        let mut d = dst.as_mut_ptr();
        let mut s = src.as_ptr();
        // Head: 8-byte streams until the destination is 32-byte aligned.
        while rem >= 8 && !(d as usize).is_multiple_of(32) {
            _mm_stream_si64(d.cast(), s.cast::<i64>().read_unaligned());
            d = d.add(8);
            s = s.add(8);
            rem -= 8;
        }
        // Body: 256-bit streaming stores.
        while rem >= 32 {
            _mm256_stream_si256(d.cast(), _mm256_loadu_si256(s.cast()));
            d = d.add(32);
            s = s.add(32);
            rem -= 32;
        }
        // Tail.
        while rem >= 8 {
            _mm_stream_si64(d.cast(), s.cast::<i64>().read_unaligned());
            d = d.add(8);
            s = s.add(8);
            rem -= 8;
        }
    }

    /// # Safety
    /// As [`super::bloom_probe_avx2`]; the hash loads are at
    /// `i + 4 <= hashes.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn bloom_probe(
        words: *const u64,
        wpp_shift: u32,
        word_mask: u64,
        bits1: u32,
        bits2: u32,
        hashes: &[u64],
        sel: &mut Vec<u32>,
    ) {
        let n = hashes.len();
        sel.reserve(n);
        let mask1 = _mm256_set1_epi64x(((1u64 << bits1) - 1) as i64);
        let mask2 = _mm256_set1_epi64x(((1u64 << bits2) - 1) as i64);
        let wmask = _mm256_set1_epi64x(word_mask as i64);
        let sixty_three = _mm256_set1_epi64x(63);
        let ones = _mm256_set1_epi64x(1);
        let sh_b1 = _mm_cvtsi64_si128(i64::from(bits1));
        let sh_b2 = _mm_cvtsi64_si128(i64::from(bits2));
        let sh_wpp = _mm_cvtsi64_si128(i64::from(wpp_shift));
        let mut i = 0usize;
        while i + 4 <= n {
            let h = _mm256_loadu_si256(hashes.as_ptr().add(i).cast());
            // p = (p1 << bits2) | p2, same bit plumbing as
            // `radix::partition_of`.
            let p1 = _mm256_and_si256(h, mask1);
            let p2 = _mm256_and_si256(_mm256_srl_epi64(h, sh_b1), mask2);
            let p = _mm256_or_si256(_mm256_sll_epi64(p1, sh_b2), p2);
            // word index: p * words_per_partition + ((h >> 40) & word_mask)
            let widx = _mm256_add_epi64(
                _mm256_sll_epi64(p, sh_wpp),
                _mm256_and_si256(_mm256_srli_epi64::<40>(h), wmask),
            );
            let word = _mm256_i64gather_epi64::<8>(words.cast(), widx);
            // K = 4 sector bits from hash bits 16..40, 6 bits each.
            let mut hm = _mm256_srli_epi64::<16>(h);
            let mut mask = _mm256_setzero_si256();
            for _ in 0..4 {
                let bit = _mm256_sllv_epi64(ones, _mm256_and_si256(hm, sixty_three));
                mask = _mm256_or_si256(mask, bit);
                hm = _mm256_srli_epi64::<6>(hm);
            }
            let hit = _mm256_cmpeq_epi64(_mm256_and_si256(word, mask), mask);
            let bits = _mm256_movemask_pd(_mm256_castsi256_pd(hit));
            for lane in 0..4u32 {
                if bits & (1 << lane) != 0 {
                    sel.push(i as u32 + lane);
                }
            }
            i += 4;
        }
        // Scalar tail, same formulas.
        for (r, &h) in hashes.iter().enumerate().skip(i) {
            let p1 = h & ((1u64 << bits1) - 1);
            let p2 = (h >> bits1) & ((1u64 << bits2) - 1);
            let p = (p1 << bits2) | p2;
            let idx = ((p << wpp_shift) + ((h >> 40) & word_mask)) as usize;
            let word = *words.add(idx);
            let mut mask = 0u64;
            let mut hm = h >> 16;
            for _ in 0..4 {
                mask |= 1u64 << (hm & 63);
                hm >>= 6;
            }
            if word & mask == mask {
                sel.push(r as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_name_is_stable() {
        assert_eq!(SimdPath::Avx2.name(), "avx2");
        assert_eq!(SimdPath::Scalar.name(), "scalar");
        // Whatever the host picked, it must be one of the two.
        assert!(matches!(active(), SimdPath::Avx2 | SimdPath::Scalar));
        // And the probe is stable across calls.
        assert_eq!(active(), active());
    }

    #[test]
    fn hash_kernels_match_scalar_reference() {
        let vals64: Vec<i64> = (0..1003)
            .map(|i| (i as i64).wrapping_mul(-97) + 5)
            .collect();
        let vals32: Vec<i32> = (0..1003i32).map(|i| i.wrapping_mul(-31) + 7).collect();
        for first in [true, false] {
            let mut a = vec![0x5Au64; vals64.len()];
            let mut b = a.clone();
            hash_i64_scalar(&vals64, &mut a, first);
            hash_i64_avx2(&vals64, &mut b, first);
            assert_eq!(a, b);
            let mut a = vec![0xC3u64; vals32.len()];
            let mut b = a.clone();
            hash_i32_scalar(&vals32, &mut a, first);
            hash_i32_avx2(&vals32, &mut b, first);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn hash_matches_hash_u64_per_element() {
        let vals: Vec<i64> = vec![0, 1, -1, i64::MAX, i64::MIN, 42];
        let mut out = vec![0u64; vals.len()];
        hash_i64(&vals, &mut out, true);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(out[i], hash_u64(v as u64));
        }
    }

    #[test]
    fn hist_kernels_agree() {
        let stride = 16usize;
        let hash_off = 8usize;
        let rows = 777usize;
        let mut chunk = vec![0u8; rows * stride];
        for r in 0..rows {
            let h = hash_u64(r as u64);
            chunk[r * stride + hash_off..r * stride + hash_off + 8]
                .copy_from_slice(&h.to_le_bytes());
        }
        let (bits1, mask2) = (4u32, 7u64);
        let mut a = vec![0usize; 8];
        let mut b = vec![0usize; 8];
        hist_chunk_scalar(&chunk, stride, hash_off, bits1, mask2, &mut a);
        hist_chunk_avx2(&chunk, stride, hash_off, bits1, mask2, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.iter().sum::<usize>(), rows);
    }

    // The safe wrappers check the bounds the AVX2 kernels rely on, in
    // release builds too, whichever path the host dispatches to.

    #[test]
    #[should_panic(expected = "hash output length")]
    fn hash_i64_rejects_a_short_output() {
        hash_i64(&[1; 9], &mut [0; 5], true);
    }

    #[test]
    #[should_panic(expected = "hash output length")]
    fn hash_i32_rejects_a_short_output() {
        hash_i32(&[1; 9], &mut [0; 5], false);
    }

    #[test]
    #[should_panic(expected = "hash output length")]
    fn hash_i64_avx2_rejects_a_short_output() {
        hash_i64_avx2(&[1; 9], &mut [0; 5], true);
    }

    #[test]
    #[should_panic(expected = "hash output length")]
    fn hash_i32_avx2_rejects_a_short_output() {
        hash_i32_avx2(&[1; 9], &mut [0; 5], false);
    }

    #[test]
    #[should_panic(expected = "outside a 16-byte row")]
    fn hist_chunk_rejects_a_hash_past_the_row() {
        hist_chunk(&[0; 16 * 8], 16, 9, 0, 7, &mut [0; 8]);
    }

    #[test]
    #[should_panic(expected = "outside a 0-byte row")]
    fn hist_chunk_avx2_rejects_a_zero_stride() {
        hist_chunk_avx2(&[0; 64], 0, 0, 0, 7, &mut [0; 8]);
    }

    #[test]
    fn nt_copy_avx2_roundtrip_all_lengths() {
        // Cover head-alignment + body + tail combinations.
        for words in [1usize, 2, 3, 4, 5, 8, 9, 16, 31] {
            let src: Vec<u8> = (0..words * 8).map(|i| i as u8).collect();
            let mut dst_words = vec![0u64; words];
            // SAFETY: `dst_words` owns `words * 8` initialized bytes, 8-byte
            // aligned, and outlives `dst`.
            let dst = unsafe {
                std::slice::from_raw_parts_mut(dst_words.as_mut_ptr().cast::<u8>(), words * 8)
            };
            nt_copy_avx2(dst, &src);
            crate::swwcb::nt_fence();
            assert_eq!(dst, &src[..]);
        }
    }

    #[test]
    fn counters_accumulate() {
        let before = registry::global().counter("simd.hash.scalar").get()
            + registry::global().counter("simd.hash.avx2").get();
        let vals = vec![1i64; 100];
        let mut out = vec![0u64; 100];
        hash_i64(&vals, &mut out, true);
        let after = registry::global().counter("simd.hash.scalar").get()
            + registry::global().counter("simd.hash.avx2").get();
        assert_eq!(after - before, 100);
    }
}
