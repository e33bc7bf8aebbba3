//! The adaptive planner is a fourth drop-in contender: every TPC-H query
//! returns the same result under `JoinAlgo::Adaptive` as under the static
//! BHJ, and — the paper's headline finding — at small scale the model
//! answers "do not partition" for the overwhelming majority of joins.

use joinstudy_core::{Engine, JoinAlgo};
use joinstudy_storage::table::Table;
use joinstudy_tpch::queries::{all_queries, QueryConfig};
use joinstudy_tpch::{generate, TpchData};
use std::sync::OnceLock;

fn data() -> &'static TpchData {
    static DATA: OnceLock<TpchData> = OnceLock::new();
    DATA.get_or_init(|| generate(0.01, 20260706))
}

fn canonical(t: &Table) -> Vec<String> {
    let mut rows: Vec<String> = (0..t.num_rows())
        .map(|r| {
            t.row(r)
                .iter()
                .map(|v| format!("{v}"))
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn adaptive_matches_bhj_reference_and_mostly_picks_bhj() {
    let data = data();
    let engine = Engine::new(2);
    let (mut decisions, mut bhj) = (0, 0);
    for q in all_queries() {
        let reference = canonical(&(q.run)(data, &QueryConfig::new(JoinAlgo::Bhj), &engine));
        engine.ctx.set_profiling(true);
        let adaptive = canonical(&(q.run)(
            data,
            &QueryConfig::new(JoinAlgo::Adaptive),
            &engine,
        ));
        engine.ctx.set_profiling(false);
        assert_eq!(adaptive, reference, "Q{} differs under Adaptive", q.id);
        // Each adaptive join records its choice on its own profile node.
        let profile = engine.take_profile().expect("a profiled run");
        for n in profile.nodes() {
            if let Some((_, choice)) = n.details.iter().find(|(k, _)| k == "adaptive_choice") {
                decisions += 1;
                bhj += usize::from(choice.to_string() == JoinAlgo::Bhj.name());
            }
        }
    }
    assert!(decisions > 0, "no adaptive decisions recorded");
    // At SF 0.01 every hash table fits the LLC comfortably: the model must
    // answer "do not partition" nearly everywhere (paper: 58 of 59 joins).
    assert!(
        bhj as f64 >= decisions as f64 * 0.9,
        "expected ≥90% BHJ picks at tiny scale, got {bhj}/{decisions}"
    );
}
