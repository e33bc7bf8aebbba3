//! Every pipeline carries its Figure 10 phase, and a traced query's trace
//! records it on each pipeline span: the phases in run order are the
//! timeline `repro fig10` prints.

use joinstudy_core::{Engine, JoinAlgo, JoinType, Plan};
use joinstudy_exec::metrics::MemPhase;
use joinstudy_exec::ops::{AggFunc, AggSpec};
use joinstudy_storage::table::{Schema, Table, TableBuilder};
use joinstudy_storage::types::{DataType, Value};
use std::sync::Arc;

fn table_kv(rows: i64, key_mod: i64) -> Arc<Table> {
    let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Int64)]);
    let mut b = TableBuilder::new(schema);
    for i in 0..rows {
        b.push_row(&[Value::Int64(i % key_mod), Value::Int64(i)]);
    }
    Arc::new(b.finish())
}

/// `repro fig10`'s query shape: a key-only build side joined with a
/// 30x larger probe side, `sum` over a probe payload column.
fn sum_plan(algo: JoinAlgo) -> Plan {
    let (build, probe) = (table_kv(2_000, 2_000), table_kv(60_000, 2_000));
    Plan::scan(&build, &["k"], None)
        .join(
            Plan::scan(&probe, &["k", "v"], None),
            algo,
            JoinType::Inner,
            &[0],
            &[0],
        )
        .aggregate(&[], vec![AggSpec::new(AggFunc::Sum, 2, "s")])
}

/// The phases of the pipelines one traced run of `plan` started, in run
/// order.
fn phases(plan: &Plan) -> Vec<MemPhase> {
    let engine = Engine::new(2);
    engine.ctx.set_memory_budget(None);
    engine.ctx.set_tracing(true);
    engine.run(plan);
    let trace = engine.take_trace().expect("a traced run leaves its trace");
    trace.pipelines.iter().map(|p| p.phase).collect()
}

#[test]
fn pipelines_start_the_fig10_timeline_in_their_phases() {
    use MemPhase::*;
    // The RJ: the build side's three pipelines (partition, histogram scan,
    // pass 2) all count as build, then the probe side's three, the
    // partition-wise join into the aggregate, and the output.
    assert_eq!(
        phases(&sum_plan(JoinAlgo::Rj)),
        [
            Build,
            Build,
            Build,
            PartitionPass1,
            HistogramScan,
            PartitionPass2,
            Join,
            Other
        ]
    );
    // The BHJ: the build (its 2 000 rows are linked inline), the probe
    // into the aggregate, and the output.
    assert_eq!(phases(&sum_plan(JoinAlgo::Bhj)), [Build, Other, Other]);
}
