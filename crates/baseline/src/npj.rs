//! The no-partitioning join (NPJ) of Blanas et al. / Balkesen et al.
//!
//! One shared chaining hash table over the whole build side, built and
//! probed in parallel. The hardware-conscious refinement is software
//! prefetching in the probe loop: bucket heads are prefetched a fixed
//! distance ahead, hiding the DRAM latency of the random accesses that
//! dominate once the table exceeds the caches.

use crate::tuple::{key_hash, JoinTuple};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Index-based chained hash table: `heads[b]` holds `index + 1` of the
/// first build tuple in bucket `b` (0 = empty); `next[i]` links onward.
struct SharedChainTable {
    heads: Vec<AtomicU64>,
    next: Vec<u32>,
    mask: u64,
}

/// Probe-loop prefetch distance (buckets ahead).
const PREFETCH_DIST: usize = 16;

/// Sentinel for "end of chain" in `next`.
const NIL: u32 = u32::MAX;

impl SharedChainTable {
    fn build<T: JoinTuple>(build: &[T], threads: usize) -> SharedChainTable {
        let nbuckets = build.len().max(16).next_power_of_two();
        let mut heads = Vec::with_capacity(nbuckets);
        heads.resize_with(nbuckets, || AtomicU64::new(0));
        let mut next = vec![NIL; build.len()];
        let mask = (nbuckets - 1) as u64;

        // Parallel CAS inserts; each worker claims a chunk of build tuples.
        // `next` is written only by the worker owning index i — expose it as
        // a raw pointer wrapper for disjoint writes.
        struct NextPtr(*mut u32);
        // SAFETY: the workers share only the base pointer; each writes the
        // `next` slots of the build indices in the chunks it claimed, and
        // the counter hands every chunk to one worker.
        unsafe impl Sync for NextPtr {}
        let next_ptr = NextPtr(next.as_mut_ptr());
        let chunk = build.len().div_ceil(threads.max(1)).max(1);
        let counter = AtomicUsize::new(0);
        let heads_ref = &heads;
        let work = |range: std::ops::Range<usize>, next_ptr: &NextPtr| {
            for i in range {
                let h = key_hash(build[i].key());
                let head = &heads_ref[(h & mask) as usize];
                let mut old = head.load(Ordering::Relaxed);
                loop {
                    let prev = if old == 0 { NIL } else { (old - 1) as u32 };
                    // SAFETY: `i < build.len() == next.len()`, and slot `i`
                    // belongs to the one worker that claimed its chunk;
                    // nothing reads `next` before every writer is done.
                    unsafe { *next_ptr.0.add(i) = prev };
                    match head.compare_exchange_weak(
                        old,
                        (i as u64) + 1,
                        Ordering::Release,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(actual) => old = actual,
                    }
                }
            }
        };
        if threads <= 1 || build.len() < 2 * chunk {
            work(0..build.len(), &next_ptr);
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    let counter = &counter;
                    let work = &work;
                    let next_ptr = &next_ptr;
                    scope.spawn(move || loop {
                        let c = counter.fetch_add(1, Ordering::Relaxed);
                        let start = c * chunk;
                        if start >= build.len() {
                            break;
                        }
                        work(start..(start + chunk).min(build.len()), next_ptr);
                    });
                }
            });
        }
        SharedChainTable { heads, next, mask }
    }
}

/// Count matching (build, probe) pairs with the no-partitioning join.
pub fn npj_count<T: JoinTuple>(build: &[T], probe: &[T], threads: usize) -> u64 {
    if build.is_empty() || probe.is_empty() {
        return 0;
    }
    let table = SharedChainTable::build(build, threads);

    let chunk = probe.len().div_ceil(threads.max(1)).max(1);
    let counter = AtomicUsize::new(0);
    let total = AtomicU64::new(0);
    let probe_chunk = |range: std::ops::Range<usize>| -> u64 {
        let mut count = 0u64;
        let n = range.end;
        for i in range {
            // Software prefetch a fixed distance ahead.
            let ahead = i + PREFETCH_DIST;
            if ahead < n {
                let hb = key_hash(probe[ahead].key());
                crate::prj::prefetch(&table.heads[(hb & table.mask) as usize]);
            }
            let key = probe[i].key();
            let h = key_hash(key);
            let slot = table.heads[(h & table.mask) as usize].load(Ordering::Acquire);
            let mut idx = if slot == 0 { NIL } else { (slot - 1) as u32 };
            while idx != NIL {
                if build[idx as usize].key() == key {
                    count += 1;
                }
                idx = table.next[idx as usize];
            }
        }
        count
    };
    if threads <= 1 || probe.len() < 2 * chunk {
        return probe_chunk(0..probe.len());
    }
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let counter = &counter;
            let total = &total;
            let probe_chunk = &probe_chunk;
            scope.spawn(move || loop {
                let c = counter.fetch_add(1, Ordering::Relaxed);
                let start = c * chunk;
                if start >= probe.len() {
                    break;
                }
                let cnt = probe_chunk(start..(start + chunk).min(probe.len()));
                total.fetch_add(cnt, Ordering::Relaxed);
            });
        }
    });
    total.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple16;
    use crate::workload;
    use joinstudy_storage::gen::Rng;

    #[test]
    fn counts_exact_matches() {
        let build: Vec<Tuple16> = (0..100).map(|k| Tuple16::make(k, 0)).collect();
        let probe: Vec<Tuple16> = (0..300).map(|k| Tuple16::make(k % 150, 0)).collect();
        // keys 0..100 appear twice each among probe keys 0..150 → 200 matches.
        assert_eq!(npj_count(&build, &probe, 1), 200);
        assert_eq!(npj_count(&build, &probe, 4), 200);
    }

    #[test]
    fn duplicates_on_both_sides() {
        let build: Vec<Tuple16> = [1, 1, 2].iter().map(|&k| Tuple16::make(k, 0)).collect();
        let probe: Vec<Tuple16> = [1, 2, 2].iter().map(|&k| Tuple16::make(k, 0)).collect();
        // key 1: 2×1; key 2: 1×2 → 4.
        assert_eq!(npj_count(&build, &probe, 2), 4);
    }

    #[test]
    fn empty_inputs() {
        let t: Vec<Tuple16> = vec![];
        let one = vec![Tuple16::make(1, 1)];
        assert_eq!(npj_count(&t, &one, 2), 0);
        assert_eq!(npj_count(&one, &t, 2), 0);
    }

    #[test]
    fn workload_a_shape_fk_join() {
        let mut rng = Rng::new(7);
        let (build, probe) = workload::gen_workload_a::<Tuple16>(10_000, 160_000, &mut rng);
        // FK workload: every probe tuple matches exactly once.
        assert_eq!(npj_count(&build, &probe, 4), 160_000);
    }
}
