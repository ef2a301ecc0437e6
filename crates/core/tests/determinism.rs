//! Parallel determinism: a multi-threaded search must produce rankings
//! byte-for-byte identical to the single-threaded search.
//!
//! The worker threads race over a shared candidate queue and a shared
//! global-fit memo, so both the evaluation order and which thread first
//! populates a memo entry vary run to run — none of which may leak into
//! the ranked output. The county cases compare the full wire JSON, which
//! also carries each summary's `condition_attrs` and descriptor order.

use charles_core::{Charles, CharlesConfig, Query, Session};
use charles_relation::SnapshotPair;
use charles_server::proto::WireQueryResult;
use charles_synth::{county, example1};

fn pair() -> SnapshotPair {
    let scenario = example1();
    SnapshotPair::align(scenario.source, scenario.target).expect("example1 aligns")
}

/// Render a run's ranking with everything deterministic in it (summary
/// displays include scores to three decimals, conditions, and
/// transformations; wall-clock time is deliberately excluded).
fn rendered_ranking(threads: usize) -> String {
    let engine = Charles::from_pair(pair(), "bonus")
        .expect("engine")
        .with_condition_attrs(["edu", "exp", "gen"])
        .with_transform_attrs(["bonus", "salary"])
        .with_config(CharlesConfig::default().with_threads(threads));
    let result = engine.run().expect("run");
    result
        .summaries
        .iter()
        .enumerate()
        .map(|(i, s)| format!("#{} {s}", i + 1))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn serial_and_parallel_rankings_are_byte_identical() {
    let serial = rendered_ranking(1);
    let parallel = rendered_ranking(4);
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "threads=1 and threads=4 must rank identically"
    );
}

#[test]
fn parallel_runs_are_reproducible_across_invocations() {
    let first = rendered_ranking(4);
    let second = rendered_ranking(4);
    assert_eq!(first, second, "same config must reproduce byte-for-byte");
}

/// Thread counts every wire comparison runs at, whatever the host's core
/// count.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// A county payroll query's result as wire JSON, with the wall time
/// zeroed (the one field allowed to differ between runs).
fn county_wire(rows: usize, seed: u64, cond: &[&str], tran: &[&str], threads: usize) -> String {
    let scenario = county(rows, seed);
    let target = scenario.target_attr.clone();
    let pair = SnapshotPair::align(scenario.source, scenario.target).expect("county aligns");
    let config = CharlesConfig::default().with_threads(threads);
    let session = Session::open_with_config(pair, config).expect("session opens");
    let query = Query::new(target)
        .with_condition_attrs(cond.iter().copied())
        .with_transform_attrs(tran.iter().copied());
    let result = session.run(&query).expect("query runs");
    let mut wire = WireQueryResult::from_result(&result);
    wire.elapsed_ms = 0.0;
    wire.to_json().to_string()
}

/// Run a county query twice at every thread count in [`THREADS`] and
/// require one wire JSON throughout.
fn assert_wire_identical_across_threads(rows: usize, seed: u64, cond: &[&str], tran: &[&str]) {
    let serial = county_wire(rows, seed, cond, tran, 1);
    assert!(serial.contains("condition_attrs"), "{serial}");
    for threads in THREADS {
        for run in 0..2 {
            let wire = county_wire(rows, seed, cond, tran, threads);
            assert_eq!(
                wire, serial,
                "county({rows}, {seed}) at {threads} threads (run {run}) differs from 1 thread"
            );
        }
    }
}

/// Regression: two summaries with one signature and one score used to be
/// kept in whichever order the worker threads finished, so the surviving
/// copy's descriptor order and `condition_attrs` varied run to run.
#[test]
fn county_186_529_dedup_keeps_the_same_copy_at_any_thread_count() {
    assert_wire_identical_across_threads(186, 529, &["department", "grade"], &["base_salary"]);
}

#[test]
fn county_wire_json_is_identical_across_thread_counts() {
    assert_wire_identical_across_threads(
        400,
        42,
        &["department", "grade", "division"],
        &["base_salary", "overtime_pay"],
    );
}
