//! The real `perf_event_open` path. The exec crate's unit tests count
//! through a fake syscall layer; an integration test links the library as
//! built for use, so this one reaches the kernel.

use joinstudy_exec::pmu::{paranoid_level, CounterGroup, CounterKind};

/// Skip-not-fail: exercises a real counter group only where the host
/// grants one.
#[test]
fn open_counts_cycles_where_available() {
    let g = CounterGroup::open();
    if !g.available() {
        eprintln!(
            "pmu: perf_event_open unavailable (paranoid={:?}); skipping",
            paranoid_level()
        );
        return;
    }
    let before = g.read();
    assert!(before.get(CounterKind::Cycles).is_some());
    // Burn some user-space work so cycles must advance.
    let mut acc = 0u64;
    for i in 0..200_000u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(acc);
    let after = g.read();
    let delta = after.delta_since(&before);
    assert!(
        delta.get(CounterKind::Cycles).unwrap_or(0) > 0,
        "cycles advanced across a compute loop"
    );
}
