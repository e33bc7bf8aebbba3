//! `metrics::reset_all` zeroes process-wide counters under every running
//! query, so a debug build refuses it while any pipeline runs. A test
//! binary of its own: no other test's pipelines run in this process.

use joinstudy_exec::context::QueryContext;
use joinstudy_exec::metrics;
use joinstudy_exec::sched::Executor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn reset_all_is_refused_while_a_pipeline_runs() {
    let (started, release) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let held = {
        let (started, release) = (Arc::clone(&started), Arc::clone(&release));
        std::thread::spawn(move || {
            let ctx = QueryContext::unbounded();
            Executor::new(1)
                .run_tasks(&ctx, "held".into(), 1, |_| {
                    started.store(true, Ordering::Release);
                    while !release.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok(())
                })
                .unwrap();
        })
    };
    while !started.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let refused = std::panic::catch_unwind(metrics::reset_all).is_err();
    release.store(true, Ordering::Release);
    held.join().unwrap();
    assert_eq!(refused, cfg!(debug_assertions));
    // Once the pipeline retired, the reset goes through.
    metrics::reset_all();
}
