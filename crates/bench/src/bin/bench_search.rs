//! Benchmark of the search's statistics kernels, parallel search and
//! session reruns on the e5 scalability workload (the county payroll
//! scenario), emitting `BENCH_search.json`.
//!
//! - **Kernels** — the blocked Gram and moment kernels against their
//!   retained scalar references, on the design the search evaluates. The
//!   binary asserts the Gram kernel is ≥ 1.5× the scalar one.
//! - **Parallel search** — end-to-end [`run_search`] wall time over the
//!   shared [`SearchContext`].
//! - **Session** — a cold one-shot `Charles::run` against a warm rerun of
//!   the identical query on a long-lived [`charles_core::Session`] — the
//!   interactive reload path. The binary asserts the warm rerun is ≥ 5×
//!   faster with byte-identical ranked summaries, and records
//!   `session_warm_speedup`.
//!
//! Run: `cargo run --release -p charles-bench --bin bench_search [rows] [threads]`
//!
//! The parallel end-to-end section detects available parallelism
//! (`std::thread::available_parallelism`, cgroup-aware) unless a thread
//! count is forced via the second argument or `CHARLES_BENCH_THREADS`;
//! the JSON records the count the search *actually ran with*
//! ([`charles_core::SearchStats::threads_used`]), not the one requested.

use charles_bench::pair_of;
use charles_core::search::{generate_candidates, run_search, SearchContext};
use charles_core::{Charles, CharlesConfig, Query, Session};
use charles_numerics::ols::{
    column_moments, column_moments_scalar, gram_partial, gram_partial_scalar,
};
use charles_synth::county;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let rows: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4_000);
    // 0 = auto-detect (available_parallelism); override by arg or env.
    let threads: usize = std::env::args()
        .nth(2)
        .or_else(|| std::env::var("CHARLES_BENCH_THREADS").ok())
        .and_then(|a| a.parse().ok())
        .unwrap_or(0);
    let target = "base_salary";
    let scenario = county(rows, 42);
    let pair = pair_of(&scenario);
    let schema = pair.source().schema();
    let config = CharlesConfig::default().with_threads(1);

    let cond: Vec<_> = ["department", "grade", "division"]
        .iter()
        .map(|a| schema.attr_ref(a).expect("county attr"))
        .collect();
    let tran_names: Vec<String> = ["base_salary", "overtime_pay"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let tran: Vec<_> = tran_names
        .iter()
        .map(|a| schema.attr_ref(a).expect("county attr"))
        .collect();
    let candidates = generate_candidates(&cond, &tran, &config);
    eprintln!(
        "e5 workload: {rows} rows, {} candidates (c=department/grade/division, t=base_salary/overtime_pay)",
        candidates.len()
    );

    // Kernel microbench: the blocked statistics kernels against
    // their retained scalar references, on the same e5 design the search
    // evaluates (d = 3: intercept + base_salary + overtime_pay). Each
    // kernel runs enough repetitions to amortize timer noise; black_box
    // keeps the optimizer from hoisting the work out of the loop.
    let kviews: Vec<charles_relation::NumericView> = tran_names
        .iter()
        .map(|a| {
            pair.source()
                .column_by_name(a)
                .expect("predictor column")
                .numeric_view(a)
                .expect("numeric view")
        })
        .collect();
    let kcols: Vec<&[f64]> = kviews.iter().map(|v| v.as_slice()).collect();
    let ky_view = pair
        .target()
        .column_by_name(target)
        .expect("target column")
        .numeric_view(target)
        .expect("numeric view");
    let ky = ky_view.as_slice();
    let kscales = column_moments(&kcols, ky)
        .expect("moments")
        .validated_scales(kcols.len())
        .expect("scales");
    let reps = (2_000_000 / rows.max(1)).max(10);
    let time_reps = |f: &dyn Fn()| -> f64 {
        f(); // warm-up
        let started = Instant::now();
        for _ in 0..reps {
            f();
        }
        started.elapsed().as_secs_f64()
    };
    let gram_kernel_secs = time_reps(&|| {
        black_box(gram_partial(black_box(&kcols), black_box(ky), &kscales, 0));
    });
    let gram_scalar_secs = time_reps(&|| {
        black_box(gram_partial_scalar(
            black_box(&kcols),
            black_box(ky),
            &kscales,
            0,
        ));
    });
    let moments_kernel_secs = time_reps(&|| {
        black_box(column_moments(black_box(&kcols), black_box(ky)).expect("moments"));
    });
    let moments_scalar_secs = time_reps(&|| {
        black_box(column_moments_scalar(black_box(&kcols), black_box(ky)).expect("moments"));
    });
    let total_rows = (rows * reps) as f64;
    let gram_rows_per_sec = total_rows / gram_kernel_secs;
    let moments_rows_per_sec = total_rows / moments_kernel_secs;
    let kernel_vs_scalar_speedup = gram_scalar_secs / gram_kernel_secs.max(1e-12);
    let moments_vs_scalar_speedup = moments_scalar_secs / moments_kernel_secs.max(1e-12);
    eprintln!(
        "kernels ({reps} reps × {rows} rows, d={}): gram {gram_rows_per_sec:.0} rows/s \
         ({kernel_vs_scalar_speedup:.2}x vs scalar), moments {moments_rows_per_sec:.0} rows/s \
         ({moments_vs_scalar_speedup:.2}x vs scalar)",
        kcols.len() + 1,
    );

    // End-to-end parallel search wall time on the shared plane, for the
    // perf trajectory. `threads = 0` lets the engine detect available
    // parallelism; the JSON reports what the search actually used.
    let started = Instant::now();
    let par_config = CharlesConfig::default().with_threads(threads);
    let par_ctx = SearchContext::new(&pair, target, &tran_names, &par_config).expect("context");
    let (ranked, stats) = run_search(&par_ctx, &candidates).expect("search");
    let parallel_secs = started.elapsed().as_secs_f64();
    eprintln!(
        "parallel search: {} worker thread(s) (requested {}, detected {})",
        stats.threads_used,
        if threads == 0 {
            "auto".to_string()
        } else {
            threads.to_string()
        },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    // Session mode: cold one-shot engine vs warm rerun of the identical
    // query on a long-lived session (the interactive reload path).
    let query = Query::new(target)
        .with_condition_attrs(["department", "grade", "division"])
        .with_transform_attrs(["base_salary", "overtime_pay"]);
    let started = Instant::now();
    let cold_engine = Charles::from_pair(pair.clone(), target)
        .expect("engine")
        .with_condition_attrs(["department", "grade", "division"])
        .with_transform_attrs(["base_salary", "overtime_pay"]);
    let cold_result = cold_engine.run().expect("cold run");
    let session_cold_secs = started.elapsed().as_secs_f64();

    let session = Session::open(pair.clone()).expect("session");
    let first = session.run(&query).expect("first session run");
    let fits_after_first = session.stats().global_fits_computed;
    let started = Instant::now();
    let warm_result = session.run(&query).expect("warm session run");
    let session_warm_secs = started.elapsed().as_secs_f64();
    let session_warm_speedup = session_cold_secs / session_warm_secs.max(1e-9);

    // Warm rerun must be pure cache hits and byte-identical — to the first
    // session run and to the cold one-shot engine.
    assert_eq!(
        session.stats().global_fits_computed,
        fits_after_first,
        "warm rerun performed new global fits"
    );
    let render = |s: &[charles_core::ChangeSummary]| -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    };
    assert_eq!(render(&first.summaries), render(&warm_result.summaries));
    assert_eq!(
        render(&cold_result.summaries),
        render(&warm_result.summaries),
        "session and one-shot engine disagree"
    );

    let json = format!(
        "{{\n  \"workload\": \"e5_county_scalability\",\n  \"rows\": {rows},\n  \"candidates\": {},\n  \"gram_rows_per_sec\": {gram_rows_per_sec:.0},\n  \"moments_rows_per_sec\": {moments_rows_per_sec:.0},\n  \"kernel_vs_scalar_speedup\": {kernel_vs_scalar_speedup:.2},\n  \"moments_vs_scalar_speedup\": {moments_vs_scalar_speedup:.2},\n  \"parallel_search_seconds\": {parallel_secs:.4},\n  \"parallel_threads\": {},\n  \"ranked_summaries\": {},\n  \"distinct_summaries\": {},\n  \"session_cold_seconds\": {session_cold_secs:.4},\n  \"session_warm_seconds\": {session_warm_secs:.6},\n  \"session_warm_speedup\": {session_warm_speedup:.2}\n}}\n",
        candidates.len(),
        stats.threads_used,
        ranked.len(),
        stats.distinct,
    );
    std::fs::write("BENCH_search.json", &json).expect("write BENCH_search.json");
    print!("{json}");
    eprintln!(
        "warm session rerun vs cold run: {session_warm_speedup:.2}x — wrote BENCH_search.json"
    );
    assert!(
        session_warm_speedup >= 5.0,
        "warm session rerun must be ≥ 5x a cold run, got {session_warm_speedup:.2}x"
    );
    assert!(
        kernel_vs_scalar_speedup >= 1.5,
        "blocked gram kernel must be ≥ 1.5x the scalar reference, got \
         {kernel_vs_scalar_speedup:.2}x"
    );
    // CI regression floor: fail if the kernel itself got slower than the
    // recorded baseline (rows/sec, set from a committed bench run).
    if let Some(floor) = std::env::var("CHARLES_BENCH_GRAM_FLOOR")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        assert!(
            gram_rows_per_sec >= floor,
            "gram_rows_per_sec {gram_rows_per_sec:.0} fell below the recorded floor {floor:.0}"
        );
    }
}
