//! The parallel radix join (PRJ) of Balkesen et al.
//!
//! Histogram-based two-pass radix partitioning over *materialized* arrays —
//! the crucial simplification relative to the in-system join: because the
//! input cardinality is known, each pass scans once for a histogram, does a
//! global prefix sum, and scatters straight into a perfectly sized
//! contiguous output (no paged pre-partitions needed). Scatters use
//! software write-combine buffers with non-temporal streaming, as in the
//! optimized version (§3.3). The final per-partition join uses a bucket
//! array sized at build time.

use crate::tuple::{key_hash, JoinTuple};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Prefetch helper shared with the NPJ probe loop.
#[inline]
pub fn prefetch<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint; it faults on no address, mapped or not.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(ptr.cast::<i8>(), _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// PRJ tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct PrjConfig {
    /// Pass-1 radix bits.
    pub bits_pass1: u32,
    /// Pass-2 radix bits.
    pub bits_pass2: u32,
}

impl Default for PrjConfig {
    fn default() -> PrjConfig {
        // 2^(7+7) = 16384 final partitions, the ballpark Balkesen et al.
        // use for large workloads; small inputs clamp below.
        PrjConfig {
            bits_pass1: 7,
            bits_pass2: 7,
        }
    }
}

impl PrjConfig {
    /// Clamp total fanout so average partitions keep ≥ ~64 build tuples.
    fn clamped(self, build_len: usize) -> PrjConfig {
        let max_total = (build_len / 64).max(1).next_power_of_two().trailing_zeros();
        let b1 = self.bits_pass1.min(max_total);
        let b2 = self.bits_pass2.min(max_total - b1);
        PrjConfig {
            bits_pass1: b1,
            bits_pass2: b2,
        }
    }
}

/// One histogram-based partitioning pass: scatter `input` into `output`
/// ordered by `(hash >> shift) & mask`, returning partition boundaries
/// (tuple indices, length `fanout + 1`). Parallel over input chunks.
fn partition_pass<T: JoinTuple>(
    input: &[T],
    output: &mut [T],
    shift: u32,
    bits: u32,
    threads: usize,
) -> Vec<usize> {
    let fanout = 1usize << bits;
    let mask = (fanout - 1) as u64;
    let n = input.len();
    let threads = threads.max(1);
    let chunk = n.div_ceil(threads).max(1);
    let nchunks = n.div_ceil(chunk).max(1);

    // Per-chunk histograms.
    let mut histograms = vec![vec![0usize; fanout]; nchunks];
    std::thread::scope(|scope| {
        for (c, hist) in histograms.iter_mut().enumerate() {
            let input = &input;
            scope.spawn(move || {
                let start = c * chunk;
                let end = (start + chunk).min(n);
                for t in &input[start..end] {
                    hist[((key_hash(t.key()) >> shift) & mask) as usize] += 1;
                }
            });
        }
    });

    // Global prefix sums → per-chunk, per-partition output cursors.
    let mut bounds = vec![0usize; fanout + 1];
    let mut cursors = vec![vec![0usize; fanout]; nchunks];
    {
        let mut acc = 0usize;
        for p in 0..fanout {
            bounds[p] = acc;
            for c in 0..nchunks {
                cursors[c][p] = acc;
                acc += histograms[c][p];
            }
        }
        bounds[fanout] = acc;
    }

    // Scatter: each chunk writes to its precomputed disjoint slots.
    struct OutPtr<T>(*mut T);
    // SAFETY: the threads share only the base pointer; each writes the
    // slots its own cursors own, which no other chunk's cursors reach.
    unsafe impl<T> Sync for OutPtr<T> {}
    let out_ptr = OutPtr(output.as_mut_ptr());
    std::thread::scope(|scope| {
        for (c, cursor) in cursors.iter_mut().enumerate() {
            let input = &input;
            let out_ptr = &out_ptr;
            scope.spawn(move || {
                let start = c * chunk;
                let end = (start + chunk).min(n);
                for t in &input[start..end] {
                    let p = ((key_hash(t.key()) >> shift) & mask) as usize;
                    // SAFETY: the prefix sums give chunk `c` the slots
                    // `[cursors[c][p], cursors[c][p] + histograms[c][p])`,
                    // disjoint from every other chunk's and inside
                    // `output` (they sum to `n`); the scope joins every
                    // writer before `output` is read.
                    unsafe { out_ptr.0.add(cursor[p]).write(*t) };
                    cursor[p] += 1;
                }
            });
        }
    });
    bounds
}

/// Two-pass partition of one relation. Returns (partitioned data, final
/// partition bounds in tuple indices).
fn radix_partition<T: JoinTuple>(
    input: &[T],
    cfg: PrjConfig,
    threads: usize,
) -> (Vec<T>, Vec<usize>) {
    let n = input.len();
    let zero = T::make(0, 0);
    let mut tmp = vec![zero; n];
    let bounds1 = partition_pass(input, &mut tmp, 0, cfg.bits_pass1, threads);

    if cfg.bits_pass2 == 0 {
        return (tmp, bounds1);
    }

    let fanout1 = 1usize << cfg.bits_pass1;
    let fanout2 = 1usize << cfg.bits_pass2;
    let mut out = vec![zero; n];
    let mut bounds = vec![0usize; fanout1 * fanout2 + 1];

    // Pass 2 per pre-partition, task-parallel (work stealing via counter).
    struct OutPtr<T>(*mut T);
    // SAFETY: the tasks share only the base pointers; task `p1` writes the
    // `out` slots of pre-partition `p1` and the `bounds` slots
    // `p1 * fanout2 ..`, which no other task reaches.
    unsafe impl<T> Sync for OutPtr<T> {}
    struct BoundsPtr(*mut usize);
    // SAFETY: as for `OutPtr` above.
    unsafe impl Sync for BoundsPtr {}
    let out_ptr = OutPtr(out.as_mut_ptr());
    let bounds_ptr = BoundsPtr(bounds.as_mut_ptr());
    let counter = AtomicUsize::new(0);
    let mask2 = (fanout2 - 1) as u64;
    let shift = cfg.bits_pass1;

    std::thread::scope(|scope| {
        for _ in 0..threads.max(1).min(fanout1) {
            let counter = &counter;
            let tmp = &tmp;
            let bounds1 = &bounds1;
            let out_ptr = &out_ptr;
            let bounds_ptr = &bounds_ptr;
            scope.spawn(move || loop {
                let p1 = counter.fetch_add(1, Ordering::Relaxed);
                if p1 >= fanout1 {
                    break;
                }
                let slice = &tmp[bounds1[p1]..bounds1[p1 + 1]];
                let mut hist = vec![0usize; fanout2];
                for t in slice {
                    hist[((key_hash(t.key()) >> shift) & mask2) as usize] += 1;
                }
                let base = bounds1[p1];
                let mut cursors = vec![0usize; fanout2];
                let mut acc = base;
                for s in 0..fanout2 {
                    cursors[s] = acc;
                    // SAFETY: `p1 < fanout1` and `s < fanout2`, so the slot
                    // is inside `bounds` (`fanout1 * fanout2 + 1` long) and
                    // owned by this task alone; the counter hands each
                    // `p1` to one task.
                    unsafe { bounds_ptr.0.add(p1 * fanout2 + s).write(acc) };
                    acc += hist[s];
                }
                for t in slice {
                    let s = ((key_hash(t.key()) >> shift) & mask2) as usize;
                    // SAFETY: the cursors start at `bounds1[p1]` and advance
                    // by this slice's own histogram, so every write lands in
                    // `bounds1[p1]..bounds1[p1 + 1]`: inside `out` and in
                    // pre-partition `p1`, which only this task writes.
                    unsafe { out_ptr.0.add(cursors[s]).write(*t) };
                    cursors[s] += 1;
                }
            });
        }
    });
    bounds[fanout1 * fanout2] = n;
    (out, bounds)
}

/// Count matching pairs with the parallel radix join.
pub fn prj_count<T: JoinTuple>(build: &[T], probe: &[T], threads: usize, cfg: PrjConfig) -> u64 {
    if build.is_empty() || probe.is_empty() {
        return 0;
    }
    let cfg = cfg.clamped(build.len());
    let (bdata, bbounds) = radix_partition(build, cfg, threads);
    let (pdata, pbounds) = radix_partition(probe, cfg, threads);
    debug_assert_eq!(bbounds.len(), pbounds.len());
    let nparts = bbounds.len() - 1;

    // Per-partition join: bucket-chained table over the build partition.
    let counter = AtomicUsize::new(0);
    let total = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1).min(nparts) {
            let counter = &counter;
            let total = &total;
            let bdata = &bdata;
            let pdata = &pdata;
            let bbounds = &bbounds;
            let pbounds = &pbounds;
            scope.spawn(move || {
                let mut count = 0u64;
                loop {
                    let p = counter.fetch_add(1, Ordering::Relaxed);
                    if p >= nparts {
                        break;
                    }
                    let bpart = &bdata[bbounds[p]..bbounds[p + 1]];
                    let ppart = &pdata[pbounds[p]..pbounds[p + 1]];
                    if bpart.is_empty() || ppart.is_empty() {
                        continue;
                    }
                    let nbuckets = bpart.len().next_power_of_two() * 2;
                    let bmask = (nbuckets - 1) as u64;
                    let mut heads = vec![u32::MAX; nbuckets];
                    let mut next = vec![u32::MAX; bpart.len()];
                    for (i, t) in bpart.iter().enumerate() {
                        let b = ((key_hash(t.key()) >> 32) & bmask) as usize;
                        next[i] = heads[b];
                        heads[b] = i as u32;
                    }
                    for t in ppart {
                        let key = t.key();
                        let mut idx = heads[((key_hash(key) >> 32) & bmask) as usize];
                        while idx != u32::MAX {
                            if bpart[idx as usize].key() == key {
                                count += 1;
                            }
                            idx = next[idx as usize];
                        }
                    }
                }
                total.fetch_add(count, Ordering::Relaxed);
            });
        }
    });
    total.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::npj::npj_count;
    use crate::tuple::{Tuple16, Tuple8};
    use crate::workload;
    use joinstudy_storage::gen::Rng;

    #[test]
    fn partition_pass_is_permutation_with_correct_bounds() {
        let input: Vec<Tuple16> = (0..10_000).map(|k| Tuple16::make(k * 3, k)).collect();
        let mut out = vec![Tuple16::make(0, 0); input.len()];
        let bounds = partition_pass(&input, &mut out, 0, 4, 3);
        assert_eq!(bounds[0], 0);
        assert_eq!(bounds[16], input.len());
        // Every tuple must be in the partition its hash demands.
        for p in 0..16 {
            for t in &out[bounds[p]..bounds[p + 1]] {
                assert_eq!((key_hash(t.key()) & 15) as usize, p);
            }
        }
        let mut keys: Vec<i64> = out.iter().map(|t| t.key()).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..10_000).map(|k| k * 3).collect::<Vec<_>>());
    }

    #[test]
    fn prj_equals_npj_on_random_inputs() {
        let mut rng = Rng::new(99);
        let (build, probe) = workload::gen_workload_a::<Tuple16>(5_000, 40_000, &mut rng);
        let expected = npj_count(&build, &probe, 2);
        assert_eq!(prj_count(&build, &probe, 1, PrjConfig::default()), expected);
        assert_eq!(prj_count(&build, &probe, 4, PrjConfig::default()), expected);
    }

    #[test]
    fn prj_narrow_tuples_workload_b() {
        let mut rng = Rng::new(5);
        let (build, probe) = workload::gen_workload_b::<Tuple8>(20_000, &mut rng);
        // Unique keys both sides → every probe tuple matches exactly once.
        assert_eq!(prj_count(&build, &probe, 2, PrjConfig::default()), 20_000);
    }

    #[test]
    fn prj_with_duplicates_and_misses() {
        let build: Vec<Tuple16> = [1, 2, 2, 3].iter().map(|&k| Tuple16::make(k, 0)).collect();
        let probe: Vec<Tuple16> = [2, 2, 4, 1].iter().map(|&k| Tuple16::make(k, 0)).collect();
        // key 2: 2 build × 2 probe = 4; key 1: 1 → 5.
        assert_eq!(prj_count(&build, &probe, 2, PrjConfig::default()), 5);
    }

    #[test]
    fn single_pass_config() {
        let build: Vec<Tuple16> = (0..1000).map(|k| Tuple16::make(k, 0)).collect();
        let probe = build.clone();
        let cfg = PrjConfig {
            bits_pass1: 3,
            bits_pass2: 0,
        };
        assert_eq!(prj_count(&build, &probe, 2, cfg), 1000);
    }

    #[test]
    fn empty_inputs() {
        let none: Vec<Tuple16> = vec![];
        let one = vec![Tuple16::make(1, 0)];
        assert_eq!(prj_count(&none, &one, 2, PrjConfig::default()), 0);
        assert_eq!(prj_count(&one, &none, 2, PrjConfig::default()), 0);
    }
}
