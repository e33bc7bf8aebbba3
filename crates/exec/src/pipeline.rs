//! The pipeline abstraction: sources, fused operators, and sinks.
//!
//! A query plan is decomposed into pipelines exactly as in the paper's
//! data-centric host system: a pipeline starts at a [`Source`] (a base-table
//! scan or a pipeline breaker's output, e.g. the radix join's partition-wise
//! join phase), pushes batches through a chain of fused [`Operator`]s (
//! filters, projections, non-partitioned hash-join probes, Bloom-filter
//! probes, late loads), and ends in a [`Sink`] — the next pipeline breaker
//! (hash-table build, radix partitioning, aggregation, sort, result
//! collection).
//!
//! All three traits are `Send + Sync` and keep their mutable execution state
//! in per-worker *local state* objects, so one shared operator instance can
//! be driven by any number of morsel-stealing workers without locks.

use crate::batch::Batch;
use crate::error::ExecResult;
use crate::metrics::MemPhase;
use crate::morsel::PipelineLabel;
use crate::progress::WaitState;
use joinstudy_storage::table::Schema;
use std::any::Any;
use std::sync::Arc;

/// Per-worker mutable state of an operator or sink.
pub type LocalState = Box<dyn Any + Send>;

/// Batch emission callback: operators push produced batches downstream
/// through this.
pub type Emit<'a> = &'a mut dyn FnMut(Batch);

/// A pipeline starter: owns the input data and hands it out task-by-task
/// (a task is a morsel of a base table, or e.g. one partition pair of a
/// radix join). Tasks are claimed dynamically by workers, which is what
/// gives morsel-driven work stealing.
pub trait Source: Send + Sync {
    /// Number of independent tasks. Task ids are `0..task_count()`.
    fn task_count(&self) -> usize;

    /// Produce all batches of one task. Batches already emitted before an
    /// `Err` are discarded by the executor.
    fn poll_task(&self, task: usize, out: Emit) -> ExecResult;
}

/// A fused in-pipeline operator: consumes one batch, emits zero or more.
pub trait Operator: Send + Sync {
    /// Create this worker's local state.
    fn create_local(&self) -> LocalState {
        Box::new(())
    }

    /// Process one input batch, pushing outputs through `out`.
    fn process(&self, local: &mut LocalState, input: Batch, out: Emit) -> ExecResult;

    /// Flush any buffered rows at end-of-input (per worker). Operators with
    /// ROF staging buffers override this.
    fn flush(&self, _local: &mut LocalState, _out: Emit) -> ExecResult {
        Ok(())
    }
}

/// A pipeline breaker: consumes all batches of a pipeline and materializes
/// them (hash table, partitions, aggregate states, sorted runs, ...).
pub trait Sink: Send + Sync {
    /// Create this worker's local state.
    fn create_local(&self) -> LocalState {
        Box::new(())
    }

    /// Consume one batch. Materializing sinks charge their allocations
    /// against the query's memory budget here and fail with
    /// [`crate::error::ExecError::BudgetExceeded`] when it is exhausted.
    fn consume(&self, local: &mut LocalState, input: Batch) -> ExecResult;

    /// Merge one worker's local state into the sink's global state. Called
    /// once per worker after all tasks are drained; may run concurrently
    /// across workers, so implementations synchronize internally.
    fn finish_local(&self, _local: LocalState) -> ExecResult {
        Ok(())
    }

    /// Finalize the sink after every worker finished. Runs single-threaded.
    fn finish(&self) {}
}

/// A sink that drops everything: the end of a pipeline whose work is done on
/// the way (a marking probe, an [`crate::Executor::run_tasks`] pipeline).
pub struct DiscardSink;

impl Sink for DiscardSink {
    fn consume(&self, _local: &mut LocalState, _input: Batch) -> ExecResult {
        Ok(())
    }
}

/// A compiled (sub-)pipeline: where tuples come from, which fused operators
/// they traverse, and the schema they carry at the end of the chain.
///
/// Plan compilation produces a `StreamSpec` per pipeline; the executor then
/// attaches the next pipeline breaker as the sink and runs it.
#[derive(Clone)]
pub struct StreamSpec {
    pub source: Arc<dyn Source>,
    pub ops: Vec<Arc<dyn Operator>>,
    pub schema: Schema,
    /// What a breaker that adds no join work of its own (aggregate, sort,
    /// output) reports this pipeline's CPU time as: `CpuScan`, until a
    /// compiler fuses a hash-join probe into the chain.
    pub cpu: WaitState,
    /// The Figure 10 phase such a breaker's pipeline runs in: `Other`,
    /// until a join compiler starts the pipeline with its join phase.
    pub phase: MemPhase,
    /// Output of fused operators that only exists once `source` is drained
    /// (a hybrid join's reloaded partitions), in the order it must run.
    pub continuations: Vec<Continuation>,
}

/// A second source of one pipeline: after the main source is drained, its
/// batches enter the operator chain at `entry`, so every operator pushed
/// after that index — and the sink — sees them too.
#[derive(Clone)]
pub struct Continuation {
    pub source: Arc<dyn Source>,
    pub entry: usize,
}

impl StreamSpec {
    pub fn new(source: Arc<dyn Source>, schema: Schema) -> StreamSpec {
        StreamSpec {
            source,
            ops: Vec::new(),
            schema,
            cpu: WaitState::CpuScan,
            phase: MemPhase::Other,
            continuations: Vec::new(),
        }
    }

    /// What a pipeline of this spec named `name` is labeled: its CPU wait
    /// state and its Figure 10 phase.
    pub fn label<'a>(&self, name: &'a str) -> PipelineLabel<'a> {
        PipelineLabel::new(name, self.cpu, self.phase)
    }

    /// Append a fused operator and update the carried schema.
    pub fn push_op(mut self, op: Arc<dyn Operator>, schema: Schema) -> StreamSpec {
        self.ops.push(op);
        self.schema = schema;
        self
    }

    /// Let `source` continue the chain behind its last operator, after the
    /// main source and every earlier continuation.
    pub fn continue_with(mut self, source: Arc<dyn Source>) -> StreamSpec {
        let entry = self.ops.len();
        self.continuations.push(Continuation { source, entry });
        self
    }
}
