//! Parallel determinism: a multi-threaded search must produce rankings
//! byte-for-byte identical to the single-threaded search.
//!
//! The worker threads race over a shared candidate queue and a shared
//! global-fit memo, so both the evaluation order and which thread first
//! populates a memo entry vary run to run — none of which may leak into
//! the ranked output. The county cases compare the full wire JSON, which
//! also carries each summary's `condition_attrs` and descriptor order.
//!
//! The property suite at the end widens the net: on policy-driven pairs
//! and county payroll pairs of proptest-drawn sizes, a session at 2 and 4
//! threads must answer exactly like the one-thread oracle — rendered
//! summaries, score bits, `targets()`, `sweep_alpha`, and the error
//! message when the query fails.

use charles_core::{Charles, CharlesConfig, Query, QueryResult, Session};
use charles_relation::{
    apply_updates, ApplyMode, Expr, Predicate, SnapshotPair, TableBuilder, UpdateStatement,
};
use charles_server::proto::WireQueryResult;
use charles_synth::{county, example1};
use proptest::prelude::*;

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

/// Thread counts the property suite compares against the one-thread
/// oracle.
const SUBJECT_THREADS: [usize; 2] = [2, 4];

/// Render a result for exact comparison: display strings plus the raw bits
/// of every score component.
fn fingerprint(result: &QueryResult) -> Vec<(String, u64, u64, u64)> {
    result
        .summaries
        .iter()
        .map(|s| {
            (
                s.to_string(),
                s.scores.score.to_bits(),
                s.scores.accuracy.to_bits(),
                s.scores.interpretability.to_bits(),
            )
        })
        .collect()
}

fn session_at(pair: &SnapshotPair, threads: usize) -> Session {
    Session::open_with_config(pair.clone(), CharlesConfig::default().with_threads(threads))
        .expect("session opens")
}

/// Assert that sessions at [`SUBJECT_THREADS`] answer `query` (and an
/// α-sweep over it) exactly like the one-thread oracle: identical
/// successes or identical errors.
fn assert_thread_equivalent(
    pair: &SnapshotPair,
    query: &Query,
    alphas: &[f64],
) -> Result<(), TestCaseError> {
    let oracle = session_at(pair, 1);
    let base = oracle.run(query);
    for threads in SUBJECT_THREADS {
        let subject = session_at(pair, threads);
        prop_assert_eq!(
            subject.targets().unwrap(),
            oracle.targets().unwrap(),
            "targets() diverged at {} threads",
            threads
        );
        match (&base, &subject.run(query)) {
            (Ok(expected), Ok(actual)) => {
                prop_assert_eq!(
                    fingerprint(actual),
                    fingerprint(expected),
                    "rankings diverged at {} threads",
                    threads
                );
                prop_assert_eq!(actual.alpha.to_bits(), expected.alpha.to_bits());
                let swept_oracle = oracle.sweep_alpha(expected, alphas).unwrap();
                let swept_subject = subject.sweep_alpha(actual, alphas).unwrap();
                for (a, b) in swept_subject.iter().zip(swept_oracle.iter()) {
                    prop_assert_eq!(
                        fingerprint(a),
                        fingerprint(b),
                        "sweep diverged at {} threads, α={}",
                        threads,
                        b.alpha
                    );
                }
            }
            (Err(expected), Err(actual)) => {
                prop_assert_eq!(
                    actual.to_string(),
                    expected.to_string(),
                    "errors diverged at {} threads",
                    threads
                );
            }
            (expected, actual) => {
                return Err(TestCaseError::fail(format!(
                    "the one-thread oracle and {threads} threads disagree on feasibility: \
                     oracle={expected:?} subject={actual:?}"
                )));
            }
        }
    }
    Ok(())
}

/// A policy-driven synthetic pair: `rows` employees over three education
/// groups, bonus evolved by per-group affine rules drawn from the
/// parameters. Deterministic in its inputs, so proptest failures replay.
fn policy_pair(rows: usize, scale_pct: u8, offset_step: u16, churn: u8) -> SnapshotPair {
    let names: Vec<String> = (0..rows).map(|i| format!("e{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let edu: Vec<&str> = (0..rows)
        .map(|i| ["PhD", "MS", "BS"][(i + churn as usize) % 3])
        .collect();
    let exp: Vec<i64> = (0..rows)
        .map(|i| ((i * 7 + churn as usize) % 11) as i64)
        .collect();
    let bonus: Vec<f64> = (0..rows)
        .map(|i| 5_000.0 + ((i as f64 * 631.0 + churn as f64 * 97.0) % 17_000.0))
        .collect();
    let source = TableBuilder::new("v1")
        .str_col("name", &name_refs)
        .str_col("edu", &edu)
        .int_col("exp", &exp)
        .float_col("bonus", &bonus)
        .key("name")
        .build()
        .unwrap();
    let scale = 1.0 + f64::from(scale_pct % 16) / 100.0;
    let offset = f64::from(offset_step % 12) * 250.0;
    let policy = [
        UpdateStatement::new(
            "bonus",
            Expr::affine("bonus", scale, offset),
            Predicate::eq("edu", "PhD"),
        ),
        UpdateStatement::new(
            "bonus",
            Expr::affine("bonus", 1.0 + f64::from(scale_pct % 7) / 200.0, 400.0),
            Predicate::eq("edu", "MS"),
        ),
    ];
    let target = apply_updates(&source, &policy, ApplyMode::FirstMatch)
        .unwrap()
        .table;
    SnapshotPair::align(source, target).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Policy-driven synthetic pairs across sizes straddling the
    /// 128-row block boundary, × α overrides.
    #[test]
    fn threaded_equals_one_thread_on_policy_pairs(
        rows in prop_oneof![0usize..6, 6usize..130, 130usize..400],
        scale_pct in 0u8..=255,
        offset_step in 0u16..=999,
        churn in 0u8..=255,
        alpha_idx in 0usize..4,
    ) {
        let pair = policy_pair(rows, scale_pct, offset_step, churn);
        let alpha = [0.0, 0.3, 0.5, 1.0][alpha_idx];
        let query = Query::new("bonus")
            .with_condition_attrs(["edu", "exp"])
            .with_transform_attrs(["bonus"])
            .with_alpha(alpha);
        assert_thread_equivalent(&pair, &query, &[0.0, 0.25, 0.5, 0.75, 1.0])?;
    }

    /// The paper's county payroll scenario at proptest-drawn sizes and
    /// seeds, queried with the bench shortlists.
    #[test]
    fn threaded_equals_one_thread_on_county_payroll(
        rows in 40usize..320,
        seed in 0u64..1_000,
    ) {
        let scenario = county(rows, seed);
        let pair = SnapshotPair::align(scenario.source, scenario.target).unwrap();
        let query = Query::new(&scenario.target_attr)
            .with_condition_attrs(["department", "grade"])
            .with_transform_attrs(["base_salary"]);
        assert_thread_equivalent(&pair, &query, &[0.0, 0.5, 1.0])?;
    }
}

/// Degenerate pairs, pinned deterministically (not only via proptest).
#[test]
fn degenerate_pairs_match_the_one_thread_oracle() {
    // Fewer rows than one 128-row block.
    let pair = policy_pair(9, 5, 4, 0);
    let query = Query::new("bonus")
        .with_condition_attrs(["edu"])
        .with_transform_attrs(["bonus"]);
    assert_thread_equivalent(&pair, &query, &[0.0, 1.0]).unwrap();

    // A zero-row pair: sessions open, targets() is empty, and the query
    // answers (or fails with the same message) at every thread count.
    let empty = policy_pair(0, 1, 1, 1);
    assert!(session_at(&empty, 1).targets().unwrap().is_empty());
    assert_thread_equivalent(&empty, &query, &[0.0, 1.0]).unwrap();
}
