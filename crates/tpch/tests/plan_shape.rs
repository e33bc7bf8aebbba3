//! Every TPC-H query is one plan, and `main_joins` counts all of its
//! joins: the join nodes of a profiled BHJ run and the entries of an
//! all-RJ join log, which is what the Fig 1 sizes and the Fig 12 override
//! numbering rely on. Its own test binary, because the join log is
//! process-wide.

use joinstudy_core::plan::joinlog;
use joinstudy_core::{Engine, JoinAlgo};
use joinstudy_tpch::generate;
use joinstudy_tpch::queries::{all_queries, QueryConfig};

#[test]
fn main_joins_counts_every_join_of_the_one_plan() {
    let data = generate(0.01, 20260706);
    let engine = Engine::new(2);
    // No budget: a join that degrades would log a second entry.
    engine.ctx.set_memory_budget(None);
    engine.ctx.set_profiling(true);
    joinlog::set_enabled(true);
    for q in all_queries() {
        let _ = (q.run)(&data, &QueryConfig::new(JoinAlgo::Bhj), &engine);
        let profile = engine.take_profile().expect("a profiled run");
        let nodes = profile.nodes();
        let joins = nodes
            .iter()
            .filter(|n| n.label.starts_with("Join "))
            .count();
        assert_eq!(joins, q.main_joins, "Q{}: join nodes in the profile", q.id);

        joinlog::take();
        let _ = (q.run)(&data, &QueryConfig::new(JoinAlgo::Rj), &engine);
        let log = joinlog::take();
        assert_eq!(log.len(), q.main_joins, "Q{}: all-RJ join log", q.id);
        assert!(log.iter().all(|j| j.algo == "RJ"), "Q{}: {log:?}", q.id);
    }
}
