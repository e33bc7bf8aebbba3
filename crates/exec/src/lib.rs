//! Vectorized, morsel-driven pipeline execution engine.
//!
//! This crate is the reproduction of the *environment* the paper keeps
//! emphasizing: a join inside a real system is not a stand-alone kernel but
//! part of operator pipelines. The engine here mirrors the structure of the
//! paper's host system (Umbra):
//!
//! * **Pipelines** ([`pipeline`]): a [`pipeline::Source`] produces tuple
//!   batches morsel-by-morsel, a chain of fused [`pipeline::Operator`]s
//!   transforms them *without materialization*, and a
//!   [`pipeline::Sink`] (the pipeline breaker) materializes.
//! * **Morsel-driven parallelism** ([`morsel`], [`sched`]): worker threads
//!   pull morsels from a shared queue, giving work stealing and skew
//!   tolerance (Leis et al., SIGMOD'14). One claim → poll → feed → drain
//!   loop serves every pipeline, inline on the caller or on a worker pool.
//! * **Relaxed operator fusion**: tuples flow in cache-resident batches of
//!   [`batch::BATCH_ROWS`] rows — exactly the staging points ROF
//!   (Menon et al., VLDB'17) introduces into data-centric plans, which is
//!   what enables the software prefetching used by the non-partitioned join.
//! * **Vectorized expressions** ([`expr`]): the predicate/projection
//!   machinery TPC-H queries need (arithmetic, dates, `LIKE`, `CASE`, ...).
//! * **Relational operators** ([`ops`]): scans with predicate pushdown,
//!   filters, projections, hash aggregation, sorting, late materialization.
//! * **Byte-accounting instrumentation** ([`metrics`]): per-phase memory
//!   traffic for Figure 10 (its phase bands are a traced run's pipeline
//!   spans, [`trace`]), backed by the
//!   named-counter [`registry`] of process-wide totals. It is the portable fallback for, and runs
//!   alongside, the real hardware counters in [`pmu`]. The phase is the
//!   pipeline's own: its compiler labels it ([`PipelineLabel::phase`]).
//! * **Hardware PMU counters** ([`pmu`]): raw `perf_event_open` counter
//!   groups (cycles, instructions, LLC/dTLB loads+misses, branch misses)
//!   sampled per worker and pipeline and folded into that pipeline's
//!   phase, replacing the paper's Intel PCM; degrades to a no-op where the
//!   syscall is denied.
//! * **Per-operator counters** ([`profile`]): one counter block per
//!   pipeline run (morsels, tuples, and — for profiled queries — busy
//!   time), fed by the morsel loop — the data behind `EXPLAIN ANALYZE`,
//!   `jsys.query_progress` and ASH alike.
//! * **Worker-timeline tracing** ([`trace`]): opt-in per-worker span
//!   buffers (morsels, phases, synthesized idle intervals) collected on the
//!   query's own context and exported as Chrome/Perfetto `trace_event`
//!   JSON.
//! * **Worker pool** ([`pool`]): the one owner of threads — a fixed worker
//!   team that interleaves morsels from every pipeline submitted to it,
//!   shared by the server's sessions or private to an [`Executor`].
//! * **Admission control** ([`admission`]): a global memory pool granting
//!   each admitted query a budget lease, queueing queries when memory is
//!   contended and shrinking grants so joins degrade RJ → BHJ → HHJ
//!   instead of failing.
//!
//! The join operators themselves live in `joinstudy-core`; they plug into
//! this engine through the same [`pipeline`] traits as every other operator.

pub mod admission;
pub mod batch;
pub mod context;
pub mod error;
pub mod expr;
pub mod metrics;
pub mod morsel;
pub mod ops;
pub mod pipeline;
pub mod pmu;
pub mod pool;
pub mod profile;
pub mod progress;
pub mod registry;
pub mod sched;
#[cfg(test)]
mod test_fixtures;
pub mod trace;

pub use admission::{AdmissionController, AdmissionGrant};
pub use batch::{Batch, BATCH_ROWS};
pub use context::{BudgetLease, QueryContext};
pub use error::{ExecError, ExecResult};
pub use morsel::PipelineLabel;
pub use pipeline::{Operator, Sink, Source, StreamSpec};
pub use pmu::{CounterGroup, CounterKind, CounterValues, HwSlot};
pub use pool::WorkerPool;
pub use profile::{DetailValue, PipelineStats, ProfileNode, QueryProfile, StageStats, WorkerProf};
pub use progress::{QueryRecord, Segment, SegmentKind, WaitState};
pub use registry::{Counter, Histogram, MetricsRegistry};
pub use sched::Executor;
pub use trace::{QueryTrace, SpanKind, TraceSpan};
