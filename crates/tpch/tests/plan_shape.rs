//! Every TPC-H query is one plan, and `main_joins` counts all of its
//! joins: the join nodes of a profiled BHJ run and of a profiled all-RJ
//! run, which is what the Fig 1 sizes and the Fig 12 override numbering
//! rely on.

use joinstudy_core::{Engine, JoinAlgo};
use joinstudy_tpch::generate;
use joinstudy_tpch::queries::{all_queries, QueryConfig};

#[test]
fn main_joins_counts_every_join_of_the_one_plan() {
    let data = generate(0.01, 20260706);
    let engine = Engine::new(2);
    // No budget: a join that degrades would change its node's label.
    engine.ctx.set_memory_budget(None);
    engine.ctx.set_profiling(true);
    for q in all_queries() {
        let joins = |algo: JoinAlgo| -> Vec<String> {
            let _ = (q.run)(&data, &QueryConfig::new(algo), &engine);
            let profile = engine.take_profile().expect("a profiled run");
            let nodes = profile.root.post_order().into_iter();
            let joins = nodes.filter(|n| n.label.starts_with("Join "));
            joins.map(|n| n.label.clone()).collect()
        };
        let bhj = joins(JoinAlgo::Bhj);
        assert_eq!(
            bhj.len(),
            q.main_joins,
            "Q{}: join nodes in the profile",
            q.id
        );

        let rj = joins(JoinAlgo::Rj);
        assert_eq!(rj.len(), q.main_joins, "Q{}: all-RJ join nodes", q.id);
        assert!(
            rj.iter().all(|label| label.starts_with("Join RJ ")),
            "Q{}: {rj:?}",
            q.id
        );
    }
}
