//! Hardware PMU counters via raw `perf_event_open` — the measured
//! counterpart to the software byte accounting in [`metrics`](crate::metrics).
//!
//! The paper explains its Table-4 partitioning regimes with hardware
//! counters sampled by Intel PCM (LLC misses, TLB misses, cycles per
//! phase). This module reproduces that evidence path with **zero new
//! dependencies**: the `perf_event_open(2)` syscall, `ioctl(2)` and
//! `read(2)` are declared directly via `extern "C"` against the libc that
//! `std` already links.
//!
//! # Counter taxonomy
//!
//! One [`CounterGroup`] holds up to [`NUM_COUNTERS`] events
//! ([`CounterKind`]): cycles (group leader), instructions, LLC
//! loads/misses, dTLB loads/misses and branch misses. All siblings are
//! attached to the leader so the kernel schedules them as one unit and a
//! single `read` returns a consistent snapshot
//! (`PERF_FORMAT_GROUP | TOTAL_TIME_ENABLED | TOTAL_TIME_RUNNING`).
//! When the PMU has fewer physical slots than requested events the kernel
//! time-multiplexes the group; [`CounterGroup::read`] rescales each value
//! by `time_enabled / time_running` (the standard estimate) and the raw
//! ratio is preserved in [`CounterValues`] so callers can report
//! multiplexing.
//!
//! # Graceful degradation
//!
//! `perf_event_open` is frequently unavailable: containers seccomp-filter
//! it (ENOSYS), `/proc/sys/kernel/perf_event_paranoid >= 2` forbids
//! unprivileged use (EACCES/EPERM), and non-Linux or non-{x86_64,aarch64}
//! targets have no syscall number compiled in at all. Every entry point
//! degrades to a no-op: [`CounterGroup::open`] returns a group with
//! [`CounterGroup::available`]` == false`, reads return empty
//! [`CounterValues`], and when sampling is off a worker pays one relaxed
//! atomic load per pipeline and nothing per morsel. Setting
//! `JOINSTUDY_NO_PMU=1` forces the unavailable path (used by CI to pin
//! down the degraded behaviour).
//!
//! # Attribution
//!
//! A worker's group counts one pipeline's work only: it is read before and
//! after each morsel step and around the drain, so the morsels a pool
//! worker runs for other pipelines in between (the round-robin fairness
//! rule) are not counted, and the sum lands in the pipeline's [`HwSlot`]
//! and its phase's `pmu.<phase>.*`. What the submitting thread does between
//! a query's pipelines is a segment of the query's record
//! ([`crate::progress`]): the record opens that thread's group when the
//! query samples counters and folds each stretch's delta into the phase of
//! the pipeline before it. Work on a pool worker is always inside a morsel
//! or drain, so it is never such a stretch.
//!
//! # Ordering contract
//!
//! Aggregation slots ([`HwSlot`], the `pmu.*` registry counters) use
//! `Ordering::Relaxed`, same contract as [`metrics`](crate::metrics):
//! reads are exact only once every sampling worker has drained. Workers
//! flush exactly once, at drain, and the submitter of a pipeline returns
//! only after every worker drained (a pool's retirement waits under its
//! state lock, which orders the flushes before the return), so post-drain
//! reads — profile snapshots, registry snapshots after `Engine::execute`
//! returns — are exact.

use crate::metrics::MemPhase;
use crate::registry::{self, Counter};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of distinct hardware events a [`CounterGroup`] requests.
pub const NUM_COUNTERS: usize = 7;

/// The hardware events sampled per thread, in sibling-attach order
/// ([`CounterKind::Cycles`] is the group leader).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterKind {
    /// CPU cycles (`PERF_COUNT_HW_CPU_CYCLES`) — the group leader.
    Cycles,
    /// Retired instructions (`PERF_COUNT_HW_INSTRUCTIONS`).
    Instructions,
    /// Last-level-cache load accesses (`PERF_COUNT_HW_CACHE_LL`, read).
    LlcLoads,
    /// Last-level-cache load misses — the paper's Figure 7 y-axis.
    LlcMisses,
    /// Data-TLB load accesses (`PERF_COUNT_HW_CACHE_DTLB`, read).
    DtlbLoads,
    /// Data-TLB load misses — what radix partitioning is meant to avoid.
    DtlbMisses,
    /// Mispredicted branches (`PERF_COUNT_HW_BRANCH_MISSES`).
    BranchMisses,
}

impl CounterKind {
    /// All kinds in sibling-attach order.
    pub const ALL: [CounterKind; NUM_COUNTERS] = [
        CounterKind::Cycles,
        CounterKind::Instructions,
        CounterKind::LlcLoads,
        CounterKind::LlcMisses,
        CounterKind::DtlbLoads,
        CounterKind::DtlbMisses,
        CounterKind::BranchMisses,
    ];

    /// Registry-name segment (no spaces, stable).
    pub fn slug(self) -> &'static str {
        match self {
            CounterKind::Cycles => "cycles",
            CounterKind::Instructions => "instructions",
            CounterKind::LlcLoads => "llc_loads",
            CounterKind::LlcMisses => "llc_misses",
            CounterKind::DtlbLoads => "dtlb_loads",
            CounterKind::DtlbMisses => "dtlb_misses",
            CounterKind::BranchMisses => "branch_misses",
        }
    }

    /// Dense index into [`CounterValues::values`] / [`CounterKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            CounterKind::Cycles => 0,
            CounterKind::Instructions => 1,
            CounterKind::LlcLoads => 2,
            CounterKind::LlcMisses => 3,
            CounterKind::DtlbLoads => 4,
            CounterKind::DtlbMisses => 5,
            CounterKind::BranchMisses => 6,
        }
    }

    /// `perf_event_attr` `(type, config)` pair for this event.
    ///
    /// Cache events encode `id | (op << 8) | (result << 16)` with
    /// `op = READ (0)` and `result = ACCESS (0) | MISS (1)`.
    fn event(self) -> (u32, u64) {
        const TYPE_HARDWARE: u32 = 0;
        const TYPE_HW_CACHE: u32 = 3;
        const CACHE_LL: u64 = 2;
        const CACHE_DTLB: u64 = 3;
        const RESULT_MISS: u64 = 1 << 16;
        match self {
            CounterKind::Cycles => (TYPE_HARDWARE, 0),
            CounterKind::Instructions => (TYPE_HARDWARE, 1),
            CounterKind::BranchMisses => (TYPE_HARDWARE, 5),
            CounterKind::LlcLoads => (TYPE_HW_CACHE, CACHE_LL),
            CounterKind::LlcMisses => (TYPE_HW_CACHE, CACHE_LL | RESULT_MISS),
            CounterKind::DtlbLoads => (TYPE_HW_CACHE, CACHE_DTLB),
            CounterKind::DtlbMisses => (TYPE_HW_CACHE, CACHE_DTLB | RESULT_MISS),
        }
    }
}

/// A snapshot (or delta) of the counters in one group.
///
/// `values[k]` is meaningful only where `present[k]` is set: hardware may
/// reject individual siblings (e.g. no dTLB event on some cores) while the
/// rest of the group still counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterValues {
    /// Counter readings indexed by [`CounterKind::index`], already rescaled
    /// for multiplexing.
    pub values: [u64; NUM_COUNTERS],
    /// Which slots actually carry a live counter.
    pub present: [bool; NUM_COUNTERS],
    /// Nanoseconds the group was scheduled-or-pending (from the kernel).
    pub time_enabled_ns: u64,
    /// Nanoseconds the group was actually counting; `< time_enabled_ns`
    /// means the kernel multiplexed it.
    pub time_running_ns: u64,
}

impl CounterValues {
    /// The reading for `kind`, if that event is live.
    pub fn get(self, kind: CounterKind) -> Option<u64> {
        self.present[kind.index()].then_some(self.values[kind.index()])
    }

    /// True when no event in this snapshot is live.
    pub fn is_empty(self) -> bool {
        !self.present.iter().any(|&p| p)
    }

    /// `self - earlier`, per counter. A slot is present in the delta only
    /// if it is present in both snapshots; subtraction wraps so a reopened
    /// group cannot panic in release-style arithmetic.
    pub fn delta_since(self, earlier: &CounterValues) -> CounterValues {
        let mut out = CounterValues::default();
        for i in 0..NUM_COUNTERS {
            out.present[i] = self.present[i] && earlier.present[i];
            if out.present[i] {
                out.values[i] = self.values[i].wrapping_sub(earlier.values[i]);
            }
        }
        out.time_enabled_ns = self.time_enabled_ns.wrapping_sub(earlier.time_enabled_ns);
        out.time_running_ns = self.time_running_ns.wrapping_sub(earlier.time_running_ns);
        out
    }

    /// Accumulate `other` into `self` (union of present slots).
    pub fn add(&mut self, other: &CounterValues) {
        for i in 0..NUM_COUNTERS {
            if other.present[i] {
                self.values[i] = self.values[i].wrapping_add(other.values[i]);
                self.present[i] = true;
            }
        }
        self.time_enabled_ns = self.time_enabled_ns.wrapping_add(other.time_enabled_ns);
        self.time_running_ns = self.time_running_ns.wrapping_add(other.time_running_ns);
    }
}

// ---------------------------------------------------------------------------
// Raw syscall layer, compiled only where a perf_event_open number exists
// (unit tests count through the fake one, `fake_sys`, at the end;
// `tests/pmu_real.rs` reaches the real one).
// ---------------------------------------------------------------------------

#[cfg(all(
    not(test),
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use std::os::raw::{c_int, c_long, c_uint, c_ulong};

    #[cfg(target_arch = "x86_64")]
    const SYS_PERF_EVENT_OPEN: c_long = 298;
    #[cfg(target_arch = "aarch64")]
    const SYS_PERF_EVENT_OPEN: c_long = 241;

    const PERF_EVENT_IOC_ENABLE: c_ulong = 0x2400;
    const PERF_EVENT_IOC_RESET: c_ulong = 0x2403;
    const PERF_IOC_FLAG_GROUP: c_ulong = 1;
    const PERF_FLAG_FD_CLOEXEC: c_ulong = 8;

    // PERF_FORMAT_TOTAL_TIME_ENABLED | _TOTAL_TIME_RUNNING | _GROUP
    const READ_FORMAT: u64 = 1 | 2 | 8;

    // Bits of the flags word at offset 40 of perf_event_attr.
    const ATTR_DISABLED: u64 = 1 << 0;
    const ATTR_EXCLUDE_KERNEL: u64 = 1 << 5;
    const ATTR_EXCLUDE_HV: u64 = 1 << 6;

    /// `perf_event_attr`, ABI version 0 layout (64 bytes). The kernel
    /// accepts any declared `size`; fields we never set stay zero.
    #[repr(C)]
    struct PerfEventAttr {
        type_: u32,
        size: u32,
        config: u64,
        sample_period: u64,
        sample_type: u64,
        read_format: u64,
        flags: u64,
        wakeup_events: u32,
        bp_type: u32,
        bp_addr: u64,
    }

    extern "C" {
        fn syscall(num: c_long, ...) -> c_long;
        fn ioctl(fd: c_int, request: c_ulong, ...) -> c_int;
        fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    /// Open one counter on the calling thread (`pid = 0, cpu = -1`),
    /// attached to `group_fd` (or a new group leader when `-1`). Returns a
    /// negative value on any failure. Counting user space only: the
    /// `exclude_kernel`/`exclude_hv` bits keep the call usable at
    /// `perf_event_paranoid == 1` and make the numbers comparable across
    /// hosts.
    pub fn open(type_: u32, config: u64, group_fd: i32) -> i32 {
        let attr = PerfEventAttr {
            type_,
            size: std::mem::size_of::<PerfEventAttr>() as u32,
            config,
            sample_period: 0,
            sample_type: 0,
            read_format: READ_FORMAT,
            flags: ATTR_DISABLED | ATTR_EXCLUDE_KERNEL | ATTR_EXCLUDE_HV,
            wakeup_events: 0,
            bp_type: 0,
            bp_addr: 0,
        };
        // SAFETY: `attr` is a live, fully initialised `perf_event_attr`
        // whose `size` field declares its length; the kernel only reads it.
        unsafe {
            syscall(
                SYS_PERF_EVENT_OPEN,
                &attr as *const PerfEventAttr,
                0 as c_int,
                -1 as c_int,
                group_fd as c_int,
                PERF_FLAG_FD_CLOEXEC,
            ) as i32
        }
    }

    pub fn reset_group(leader_fd: i32) {
        // SAFETY: this request takes an integer argument and touches no
        // memory of ours; a stale fd fails with EBADF.
        unsafe {
            ioctl(
                leader_fd,
                PERF_EVENT_IOC_RESET,
                PERF_IOC_FLAG_GROUP as c_uint,
            );
        }
    }

    pub fn enable_group(leader_fd: i32) {
        // SAFETY: as in `reset_group`.
        unsafe {
            ioctl(
                leader_fd,
                PERF_EVENT_IOC_ENABLE,
                PERF_IOC_FLAG_GROUP as c_uint,
            );
        }
    }

    /// Read the group snapshot into `buf` (u64 words). Returns the number
    /// of u64 words filled, or `None` on error/short read.
    pub fn read_group(leader_fd: i32, buf: &mut [u64]) -> Option<usize> {
        let bytes = std::mem::size_of_val(buf);
        // SAFETY: `buf` is a live exclusive borrow of exactly `bytes` bytes,
        // and any bit pattern is a valid `u64`.
        let n = unsafe { read(leader_fd, buf.as_mut_ptr() as *mut u8, bytes) };
        if n < 0 || !(n as usize).is_multiple_of(8) {
            return None;
        }
        Some(n as usize / 8)
    }

    pub fn close_fd(fd: i32) {
        // SAFETY: callers pass only an fd `open` returned and close it once
        // (`CounterGroup`'s drop, `probe`), so no other owner's fd is hit.
        unsafe {
            close(fd);
        }
    }
}

#[cfg(not(any(
    test,
    all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )
)))]
mod sys {
    //! Stub for targets without a compiled-in syscall number: every open
    //! fails, so the whole subsystem reports unavailable.
    pub fn open(_type: u32, _config: u64, _group_fd: i32) -> i32 {
        -1
    }
    pub fn reset_group(_leader_fd: i32) {}
    pub fn enable_group(_leader_fd: i32) {}
    pub fn read_group(_leader_fd: i32, _buf: &mut [u64]) -> Option<usize> {
        None
    }
    pub fn close_fd(_fd: i32) {}
}

// ---------------------------------------------------------------------------
// CounterGroup
// ---------------------------------------------------------------------------

/// RAII handle over one per-thread group of hardware counters.
///
/// [`CounterGroup::open`] never fails: when the syscall is denied (or the
/// target has no PMU support compiled in) it returns a no-op group with
/// [`available`](CounterGroup::available)` == false` whose reads are empty.
/// Counters run from `open` until the group is dropped; file descriptors
/// are closed on drop.
#[derive(Debug)]
pub struct CounterGroup {
    /// `(kind, fd)` in sibling-attach order, leader first. Empty when the
    /// group is unavailable.
    fds: Vec<(CounterKind, i32)>,
}

impl CounterGroup {
    /// Open a counter group on the calling thread, degrading to a no-op if
    /// the PMU is unavailable (see module docs). The availability probe is
    /// cached process-wide, so repeated calls on a denied host cost one
    /// atomic load, not one failed syscall each.
    pub fn open() -> CounterGroup {
        if !probe() {
            return CounterGroup::unavailable();
        }
        let (leader_ty, leader_cfg) = CounterKind::Cycles.event();
        let leader = sys::open(leader_ty, leader_cfg, -1);
        if leader < 0 {
            return CounterGroup::unavailable();
        }
        let mut fds = vec![(CounterKind::Cycles, leader)];
        for kind in CounterKind::ALL.into_iter().skip(1) {
            let (ty, cfg) = kind.event();
            let fd = sys::open(ty, cfg, leader);
            // Tolerate per-sibling failure: some cores expose no dTLB or
            // LLC event; the rest of the group still counts.
            if fd >= 0 {
                fds.push((kind, fd));
            }
        }
        sys::reset_group(leader);
        sys::enable_group(leader);
        CounterGroup { fds }
    }

    /// The explicit no-op group (what [`open`](CounterGroup::open) degrades
    /// to). Public so tests can pin the degraded behaviour regardless of
    /// host capability.
    pub fn unavailable() -> CounterGroup {
        CounterGroup { fds: Vec::new() }
    }

    /// Whether this group is actually counting.
    pub fn available(&self) -> bool {
        !self.fds.is_empty()
    }

    /// Snapshot all counters with one group read. Values are rescaled by
    /// `time_enabled / time_running` when the kernel multiplexed the
    /// group. Returns empty values when unavailable or on read error.
    pub fn read(&self) -> CounterValues {
        let mut out = CounterValues::default();
        let Some(&(_, leader)) = self.fds.first() else {
            return out;
        };
        // Layout: nr, time_enabled, time_running, value[nr].
        let mut buf = [0u64; 3 + NUM_COUNTERS];
        let Some(words) = sys::read_group(leader, &mut buf) else {
            return out;
        };
        let nr = buf[0] as usize;
        if nr != self.fds.len() || words < 3 + nr {
            return out;
        }
        out.time_enabled_ns = buf[1];
        out.time_running_ns = buf[2];
        let (enabled, running) = (buf[1] as u128, buf[2] as u128);
        for (i, &(kind, _)) in self.fds.iter().enumerate() {
            let raw = buf[3 + i];
            let scaled = if running > 0 && running < enabled {
                ((raw as u128 * enabled) / running) as u64
            } else {
                raw
            };
            out.values[kind.index()] = scaled;
            out.present[kind.index()] = true;
        }
        out
    }
}

impl Drop for CounterGroup {
    fn drop(&mut self) {
        for &(_, fd) in &self.fds {
            sys::close_fd(fd);
        }
    }
}

// ---------------------------------------------------------------------------
// Availability probing
// ---------------------------------------------------------------------------

/// Whether `perf_event_open` works on this host (cached after the first
/// call). `JOINSTUDY_NO_PMU=1` in the environment forces `false` so CI can
/// exercise the degraded path deterministically.
pub fn probe() -> bool {
    static PROBE: OnceLock<bool> = OnceLock::new();
    *PROBE.get_or_init(|| {
        if std::env::var_os("JOINSTUDY_NO_PMU").is_some() {
            return false;
        }
        let (ty, cfg) = CounterKind::Cycles.event();
        let fd = sys::open(ty, cfg, -1);
        if fd < 0 {
            return false;
        }
        sys::close_fd(fd);
        true
    })
}

/// The `/proc/sys/kernel/perf_event_paranoid` level, if readable.
/// `<= 1` allows unprivileged user-space counting; `>= 2` typically
/// explains an unavailable PMU (containers often also seccomp-filter the
/// syscall outright, which this file cannot show).
pub fn paranoid_level() -> Option<i64> {
    std::fs::read_to_string("/proc/sys/kernel/perf_event_paranoid")
        .ok()?
        .trim()
        .parse()
        .ok()
}

// ---------------------------------------------------------------------------
// Sampling switch + per-phase attribution
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn hardware-counter sampling on or off for every query of the
/// process (the switch of the bench bins; a query opts in alone through
/// `QueryContext::set_counters`).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether process-wide sampling is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Registry handles for the per-phase counter totals, resolved once.
struct Handles {
    /// `pmu.<phase_slug>.<kind_slug>`, indexed `[phase][kind]`.
    phases: Vec<Vec<Arc<Counter>>>,
    /// Number of worker counter-group samples folded in.
    worker_samples: Arc<Counter>,
}

static HANDLES: OnceLock<Handles> = OnceLock::new();

fn handles() -> &'static Handles {
    HANDLES.get_or_init(|| {
        let reg = registry::global();
        Handles {
            phases: MemPhase::ALL
                .iter()
                .map(|p| {
                    CounterKind::ALL
                        .iter()
                        .map(|k| reg.counter(&format!("pmu.{}.{}", p.slug(), k.slug())))
                        .collect()
                })
                .collect(),
            worker_samples: reg.counter("pmu.worker_samples"),
        }
    })
}

pub(crate) fn flush_to_phase(phase: MemPhase, delta: &CounterValues) {
    let h = handles();
    for kind in CounterKind::ALL {
        let i = kind.index();
        if delta.present[i] && delta.values[i] > 0 {
            h.phases[phase.index()][i].add(delta.values[i]);
        }
    }
}

// ---------------------------------------------------------------------------
// Worker sampling
// ---------------------------------------------------------------------------

/// A worker's counter group for one pipeline, opened when the worker
/// joins it and finished exactly once at drain (see [`finish_worker`]).
#[derive(Debug)]
pub(crate) struct WorkerSampler {
    group: CounterGroup,
    /// What this pipeline's steps counted so far.
    total: CounterValues,
}

impl WorkerSampler {
    /// The reading a step starts from.
    pub(crate) fn start(&self) -> CounterValues {
        self.group.read()
    }

    /// The step that began at `start` ended: count it for the pipeline.
    pub(crate) fn stop(&mut self, start: &CounterValues) {
        self.total.add(&self.group.read().delta_since(start));
    }
}

/// Open a sampler on the calling worker thread. Returns `None` — and costs
/// only the `enabled()` load — unless process-wide sampling or the
/// per-query flag (`query_on`) asks for counters *and* the PMU is usable.
pub(crate) fn worker_sampler(query_on: bool) -> Option<WorkerSampler> {
    if !(enabled() || query_on) {
        return None;
    }
    let group = CounterGroup::open();
    let total = CounterValues::default();
    group.available().then_some(WorkerSampler { group, total })
}

/// Finish a worker sample: fold what its steps counted into the pipeline's
/// [`HwSlot`] and into the `pmu.<phase>.*` registry counters of the
/// pipeline's `phase`. Safe to call with `None` (no-op).
pub(crate) fn finish_worker(sampler: Option<WorkerSampler>, slot: &HwSlot, phase: MemPhase) {
    let Some(s) = sampler else { return };
    if s.total.is_empty() {
        return;
    }
    slot.add(&s.total);
    flush_to_phase(phase, &s.total);
    handles().worker_samples.inc();
}

// ---------------------------------------------------------------------------
// HwSlot — relaxed-atomic aggregation for PipelineStats
// ---------------------------------------------------------------------------

/// Lock-free accumulator for worker counter deltas, one per pipeline run
/// (lives in `profile::PipelineStats`). Same relaxed-ordering contract as
/// its `StageStats`: exact once the workers have drained.
#[derive(Debug, Default)]
pub struct HwSlot {
    values: [AtomicU64; NUM_COUNTERS],
    /// Bitmask of counter indices that ever reported.
    present: AtomicU64,
    /// Number of worker samples folded in (0 ⇒ no hardware data).
    samples: AtomicU64,
}

impl HwSlot {
    /// Fold one worker delta in.
    pub fn add(&self, delta: &CounterValues) {
        for i in 0..NUM_COUNTERS {
            if delta.present[i] {
                self.values[i].fetch_add(delta.values[i], Ordering::Relaxed);
                self.present.fetch_or(1 << i, Ordering::Relaxed);
            }
        }
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of worker samples folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Aggregated totals, or `None` when no worker ever sampled (counters
    /// off or PMU unavailable) — callers emit nothing in that case, which
    /// is what keeps `.counters off` output byte-identical.
    pub fn snapshot(&self) -> Option<CounterValues> {
        if self.samples() == 0 {
            return None;
        }
        let mask = self.present.load(Ordering::Relaxed);
        let mut out = CounterValues::default();
        for i in 0..NUM_COUNTERS {
            if mask & (1 << i) != 0 {
                out.present[i] = true;
                out.values[i] = self.values[i].load(Ordering::Relaxed);
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::fake_sys;
    use super::*;
    use crate::context::QueryContext;
    use crate::error::ExecResult;
    use crate::morsel::PipelineLabel;
    use crate::pipeline::{DiscardSink, Emit, Source};
    use crate::pool::WorkerPool;
    use crate::profile::PipelineStats;
    use crate::progress::{SegmentKind, WaitState};
    use crate::sched::Executor;

    #[test]
    fn kind_table_is_consistent() {
        for (i, k) in CounterKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "index order matches ALL order");
            assert!(
                k.slug()
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "slug {:?} registry-safe",
                k.slug()
            );
        }
        // Leader must be cycles: open() relies on it.
        assert_eq!(CounterKind::ALL[0], CounterKind::Cycles);
    }

    #[test]
    fn delta_and_add_math() {
        let mut a = CounterValues::default();
        a.values[0] = 100;
        a.present[0] = true;
        a.values[1] = 7;
        a.present[1] = true;
        a.time_enabled_ns = 50;
        a.time_running_ns = 50;

        let mut b = a;
        b.values[0] = 250;
        b.values[1] = 7;
        b.present[2] = true; // present in later snapshot only
        b.values[2] = 99;
        b.time_enabled_ns = 80;
        b.time_running_ns = 60;

        let d = b.delta_since(&a);
        assert_eq!(d.get(CounterKind::Cycles), Some(150));
        assert_eq!(d.get(CounterKind::Instructions), Some(0));
        assert_eq!(d.get(CounterKind::LlcLoads), None, "present must AND");
        assert_eq!(d.time_enabled_ns, 30);
        assert_eq!(d.time_running_ns, 10);

        let mut sum = CounterValues::default();
        sum.add(&d);
        sum.add(&d);
        assert_eq!(sum.get(CounterKind::Cycles), Some(300));
        assert!(!sum.is_empty());
    }

    /// The graceful-degradation contract: the no-op group reports
    /// unavailable, reads empty, and drops cleanly.
    #[test]
    fn unavailable_group_is_noop() {
        let g = CounterGroup::unavailable();
        assert!(!g.available());
        let v = g.read();
        assert!(v.is_empty());
        assert_eq!(v.time_enabled_ns, 0);
        drop(g);

        // Samplers built on an unavailable PMU collapse to None/no-op.
        let slot = HwSlot::default();
        finish_worker(None, &slot, MemPhase::Other);
        assert_eq!(slot.samples(), 0);
        assert!(slot.snapshot().is_none(), "zero samples ⇒ no hw details");
    }

    /// The unit tests' counter source: through the fake syscall layer a
    /// group counts what its thread added.
    #[test]
    fn pmu_fake_group_counts_what_its_thread_added() {
        let g = CounterGroup::open();
        if !probe() {
            assert!(!g.available(), "JOINSTUDY_NO_PMU forces the no-op group");
            return;
        }
        let before = g.read();
        fake_sys::add(5);
        let delta = g.read().delta_since(&before);
        assert_eq!(delta.get(CounterKind::Cycles), Some(5));
        assert_eq!(delta.get(CounterKind::LlcMisses), None, "one-counter group");
    }

    #[test]
    fn worker_sampler_gates_on_flags() {
        // Neither the global flag nor the query flag: no syscalls, no slot.
        if !enabled() {
            assert!(worker_sampler(false).is_none());
        }
        // Query flag on: a sampler exists only where the PMU does, and a
        // step's counts reach the slot.
        match worker_sampler(true) {
            Some(mut s) => {
                let start = s.start();
                fake_sys::add(3);
                s.stop(&start);
                let slot = HwSlot::default();
                finish_worker(Some(s), &slot, MemPhase::Other);
                assert_eq!(slot.samples(), 1);
                assert_eq!(slot.snapshot().unwrap().get(CounterKind::Cycles), Some(3));
            }
            None => assert!(!probe()),
        }
    }

    /// A source whose every morsel adds `add` to the running worker's fake
    /// count. The first morsel of the one with `wait` set raises its flag
    /// and waits until two pipelines are active on the pool, so the pool
    /// interleaves them.
    struct Adding<'a> {
        tasks: usize,
        add: u64,
        wait: Option<(&'a WorkerPool, &'a AtomicBool)>,
    }

    impl Source for Adding<'_> {
        fn task_count(&self) -> usize {
            self.tasks
        }

        fn poll_task(&self, task: usize, _out: Emit) -> ExecResult {
            if let (0, Some((pool, started))) = (task, self.wait) {
                started.store(true, Ordering::Release);
                while pool.active_pipelines() < 2 {
                    std::thread::yield_now();
                }
            }
            fake_sys::add(self.add);
            Ok(())
        }
    }

    fn counted(ctx: &Arc<QueryContext>, tasks: u64) -> Arc<PipelineStats> {
        let label = PipelineLabel::new("adding", WaitState::CpuScan, MemPhase::Join);
        Arc::new(PipelineStats::new(ctx, label, 0, tasks, false))
    }

    fn cycles(stats: &PipelineStats) -> Option<u64> {
        stats.hw.snapshot()?.get(CounterKind::Cycles)
    }

    /// Two pipelines interleave morsel by morsel on one pool worker: each
    /// worker sample counts only its own pipeline's morsels. B is submitted
    /// once A's first morsel runs, so it cannot finish before A is active.
    #[test]
    fn pmu_worker_sample_counts_only_its_own_pipeline() {
        let pool = WorkerPool::new(1);
        let started = AtomicBool::new(false);
        let run = |add: u64, wait: Option<(&WorkerPool, &AtomicBool)>| {
            let ctx = QueryContext::unbounded();
            ctx.set_counters(true);
            let stats = counted(&ctx, 10);
            let source = Adding {
                tasks: 10,
                add,
                wait,
            };
            Executor::pooled(Arc::clone(&pool))
                .run_pipeline_obs(&ctx, &source, &[], &DiscardSink, &stats)
                .unwrap();
            stats
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| run(1, Some((&pool, &started))));
            let b = s.spawn(|| {
                while !started.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                run(1000, None)
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        if !probe() {
            assert_eq!((cycles(&a), cycles(&b)), (None, None));
            return;
        }
        assert_eq!(cycles(&a), Some(10), "A counted another pipeline's morsels");
        assert_eq!(cycles(&b), Some(10_000));
    }

    /// The record keeps the submitting thread's phase: a nested pipeline's
    /// end does not move it, and work on a pool worker — a morsel, and a
    /// pipeline nested in it — is never a stretch between pipelines.
    #[test]
    fn record_phase_and_between_segments_follow_top_level_pipelines() {
        let ctx = QueryContext::unbounded();
        ctx.set_counters(true);
        ctx.arm();
        let build = PipelineLabel::new("build", WaitState::CpuBuild, MemPhase::Build);
        let build = Arc::new(PipelineStats::new(&ctx, build, 0, 1, false));
        let (outer, _) = ctx.record().pipeline_begin(&build);
        let (nested, _) = ctx.record().pipeline_begin(&counted(&ctx, 1));
        assert!(
            outer.is_some() && nested.is_none(),
            "inside a running one: nested"
        );
        ctx.record().pipeline_end(nested, crate::trace::now_ns());
        ctx.record().pipeline_end(outer, crate::trace::now_ns());

        // A morsel on a pool worker that runs a nested pipeline inline.
        let outer = counted(&ctx, 1);
        let source = TaskBody(|| {
            fake_sys::add(1);
            Executor::new(1).run_tasks(&ctx, "nested".into(), 2, |_| {
                fake_sys::add(1000);
                Ok(())
            })
        });
        Executor::pooled(WorkerPool::new(1))
            .run_pipeline_obs(&ctx, &source, &[], &DiscardSink, &outer)
            .unwrap();
        let record = ctx.close_record();
        let kinds: Vec<_> = record
            .segments
            .iter()
            .map(|s| match &s.kind {
                SegmentKind::Pipeline(p) => format!("pipeline {}", p.label),
                SegmentKind::Between { phase, hw } => format!(
                    "between {} {:?}",
                    phase.slug(),
                    hw.and_then(|hw| hw.get(CounterKind::Cycles))
                ),
                other => format!("{other:?}"),
            })
            .collect();
        let hw = |n: u64| format!("{:?}", probe().then_some(n));
        let between = |phase: &str| format!("between {phase} {}", hw(0));
        assert_eq!(
            kinds,
            [
                between("other"),
                "pipeline build".to_string(),
                between("build"),
                "pipeline adding".to_string(),
                between("join"),
            ]
        );
        let total: u64 = record.segments.iter().map(|s| s.dur_ns()).sum();
        assert_eq!(total, record.wall_ns, "the segments tile the query");
        if probe() {
            assert_eq!(cycles(&outer), Some(2001), "the worker's step holds both");
        }
    }

    /// A one-task source running `body` as its task.
    struct TaskBody<F>(F);

    impl<F: Fn() -> ExecResult + Send + Sync> Source for TaskBody<F> {
        fn task_count(&self) -> usize {
            1
        }

        fn poll_task(&self, _task: usize, _out: Emit) -> ExecResult {
            (self.0)()
        }
    }

    #[test]
    fn hw_slot_accumulates() {
        let slot = HwSlot::default();
        let mut d = CounterValues::default();
        d.present[3] = true; // LlcMisses
        d.values[3] = 41;
        slot.add(&d);
        slot.add(&d);
        let snap = slot.snapshot().unwrap();
        assert_eq!(snap.get(CounterKind::LlcMisses), Some(82));
        assert_eq!(snap.get(CounterKind::Cycles), None);
        assert_eq!(slot.samples(), 2);
    }
}

/// The unit tests' counter source (a host may deny `perf_event_open`): a
/// group of one counter, the cycles leader, reading how much its thread
/// [`add`](fake_sys::add)ed.
#[cfg(test)]
mod fake_sys {
    use std::cell::Cell;

    thread_local! {
        static COUNT: Cell<u64> = const { Cell::new(0) };
    }

    pub fn add(n: u64) {
        COUNT.with(|c| c.set(c.get() + n));
    }

    pub fn open(_type: u32, _config: u64, group_fd: i32) -> i32 {
        if group_fd < 0 {
            3
        } else {
            -1
        }
    }
    pub fn reset_group(_leader_fd: i32) {}
    pub fn enable_group(_leader_fd: i32) {}
    pub fn read_group(_leader_fd: i32, buf: &mut [u64]) -> Option<usize> {
        buf[..4].copy_from_slice(&[1, 0, 0, COUNT.with(Cell::get)]);
        Some(4)
    }
    pub fn close_fd(_fd: i32) {}
}

#[cfg(test)]
use fake_sys as sys;
