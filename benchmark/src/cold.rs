//! `county-cold-4k` and `county-cold-16k`: closed loop, one client, in
//! process. One op opens a `Session` on the pre-aligned pair, runs the
//! shortlisted query and drops the session.

use crate::data::{self, TARGET};
use crate::fingerprint::{Ranking, Verdict};
use crate::metrics::{ms, peak_rss_mb, Outcome};
use crate::replay::{replay, Split};
use crate::stats::{median, tail};
use crate::trace::{trace_path, Tracer};
use crate::Args;
use charles_core::{evaluate_recovery, CharlesConfig, Query, Session};
use std::time::{Duration, Instant};

/// Timed ingests of the pair after each op, outside its latency, so that
/// `setup_s` samples the host over the same window as the ops.
const INGESTS_PER_OP: usize = 3;

/// Run a cold workload on `rows` rows. `attribute_default` adds the
/// default (assistant-chosen) query to the traced pass.
pub fn run(args: &Args, rows: usize, attribute_default: bool) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let tracer = Tracer::new(args.trace);
    let (prepared, mut ingests) = data::prepare(rows, args.seed, data::SETUP_REPEATS)?;
    let pair = &prepared.pair;
    let query = data::shortlisted_query();

    // The reference: one engine thread, computed once.
    let one_thread = CharlesConfig {
        threads: 1,
        ..CharlesConfig::default()
    };
    let reference = Session::open_with_config(pair.clone(), one_thread)
        .and_then(|s| s.run(&query))
        .map_err(|e| format!("reference run: {e}"))?;
    let expected = Ranking::of_summaries(&reference.summaries);
    let top = reference.top().ok_or("the reference ranked no summary")?;
    let recovery = evaluate_recovery(
        top,
        pair,
        TARGET,
        &prepared.truth,
        &CharlesConfig::default(),
    )
    .map_err(|e| format!("evaluate_recovery: {e}"))?;
    out.set("top_ari", "ratio", recovery.ari);
    out.note(format!(
        "{} rows, seed {}: reference fingerprint {} ({} summaries)",
        rows,
        args.seed,
        expected.digest(),
        expected.len()
    ));

    // The timed loop. In the traced pass every other op records spans,
    // and its latency includes the recording, so the pass measures its
    // own overhead against the untraced ops.
    let window = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let (mut fits, mut labelings, mut computed) = (Vec::new(), Vec::new(), Vec::new());
    let mut threads_used = 0;
    let mut op: u64 = 0;
    while op == 0 || started.elapsed() < window {
        let pair = pair.clone();
        let t0 = Instant::now();
        let session = Session::open(pair);
        let t1 = Instant::now();
        let result = match &session {
            Ok(s) => s.run(&query).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        let t2 = Instant::now();
        let counters = session.as_ref().ok().map(Session::stats);
        drop(session);
        let t3 = Instant::now();
        if args.trace && op % 2 == 1 {
            let parent = tracer.record("cold_op", op, None, t0, t3);
            tracer.record("Session::open", op, parent, t0, t1);
            tracer.record("Session::run", op, parent, t1, t2);
            tracer.record("Session::drop", op, parent, t2, t3);
            traced.push(ms(t0.elapsed()));
        } else {
            untraced.push(ms(t3 - t0));
        }
        out.attempted += 1;
        match result {
            Ok(result) => {
                match Ranking::of_summaries(&result.summaries).verdict(&expected) {
                    Verdict::Same => {}
                    Verdict::RenderOnly => out.set(
                        "search.render_mismatch",
                        "count",
                        out.get("search.render_mismatch").unwrap_or(0.0) + 1.0,
                    ),
                    Verdict::Different => {
                        out.failed += 1;
                        out.note(format!("op {op}: ranking differs from the reference"));
                    }
                }
                threads_used = result.stats.threads_used;
            }
            Err(e) => {
                out.failed += 1;
                out.note(format!("op {op}: {e}"));
            }
        }
        if let Some(c) = counters {
            fits.push(c.global_fits_computed as f64);
            labelings.push(c.labelings_computed as f64);
            computed.push(c.candidates_computed as f64);
        }
        for _ in 0..INGESTS_PER_OP {
            ingests.sample(&prepared)?;
        }
        op += 1;
    }
    set_relation(&mut out, &prepared, &ingests);
    if out.failed > 0 {
        out.fail_check(format!("{} of {} ops failed", out.failed, out.attempted));
    }
    if !out.has("search.render_mismatch") {
        out.set("search.render_mismatch", "count", 0.0);
    }

    let all: Vec<f64> = traced.iter().chain(&untraced).copied().collect();
    let p50 = median(&all).ok_or("no op ran")?;
    let listed: Vec<String> = all.iter().map(|v| format!("{v:.0}")).collect();
    out.note(format!("op latencies (ms): {}", listed.join(" ")));
    out.set("query_ms.p50", "ms", p50);
    out.set("cold_query_s.p50", "s", p50 / 1e3);
    let t = tail(&all);
    out.set_opt("cold_query_s.tail", "s", t.map(|t| t.value / 1e3));
    out.note(match t {
        Some(t) => format!(
            "cold_query_s.tail is p{} with {} samples beyond ({} ops)",
            t.percentile,
            t.beyond,
            all.len()
        ),
        None => format!(
            "cold_query_s.tail n/a: {} ops leave fewer than 10 beyond p75",
            all.len()
        ),
    });
    out.set(
        "error_rate",
        "ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("threads_used", "count", threads_used as f64);
    out.set("search.threads_used", "count", threads_used as f64);
    out.set("nproc", "count", nproc() as f64);
    out.set_opt("peak_rss_mb", "MB", peak_rss_mb());
    for (name, unit) in NOT_SERVED {
        out.set(name, unit, 0.0);
    }

    if args.trace {
        out.set("trace.query_ms.p50", "ms", p50);
        let overhead = match (median(&traced), median(&untraced)) {
            (Some(t), Some(u)) => t / u - 1.0,
            _ => 0.0,
        };
        out.set("trace.overhead_frac", "ratio", overhead);
        out.set(
            "search.fits_computed",
            "count",
            median(&fits).unwrap_or(0.0),
        );
        out.set(
            "search.labelings_computed",
            "count",
            median(&labelings).unwrap_or(0.0),
        );
        out.set(
            "search.candidates_computed",
            "count",
            median(&computed).unwrap_or(0.0),
        );

        // A warm rerun on a resident session (the engine's default threads).
        let session = Session::open(pair.clone()).map_err(|e| format!("open: {e}"))?;
        session.run(&query).map_err(|e| format!("run: {e}"))?;
        let warm: Vec<f64> = (0..20)
            .map(|_| {
                let t = Instant::now();
                let r = std::hint::black_box(session.run(&query));
                (ms(t.elapsed()), r.is_ok())
            })
            .map(|(t, ok)| if ok { t } else { f64::NAN })
            .collect();
        out.set(
            "session.warm_run_ms",
            "ms",
            median(&warm).unwrap_or(f64::NAN),
        );
        drop(session);

        let split = replay(pair, &query, true, &tracer, op)?;
        set_split(&mut out, &split, &expected);
        let ops = fits.len() as f64;
        out.set(
            "search.fit_memo_useful_frac",
            "ratio",
            split.fits as f64 * ops / fits.iter().sum::<f64>(),
        );
        out.set(
            "search.label_memo_useful_frac",
            "ratio",
            split.labelings() as f64 * ops / labelings.iter().sum::<f64>(),
        );
        if attribute_default {
            let default = replay(pair, &Query::new(TARGET), false, &tracer, op + 1)?;
            if let Some(why) = default.counter_mismatch() {
                out.fail_check(format!("default query work counters: {why}"));
            }
            set_default(&mut out, &default);
        } else {
            set_default_absent(&mut out);
        }
        out.set("trace.spans", "count", tracer.len() as f64);
        let path = trace_path(&args.workload, args.seed);
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        out.note(format!("spans written to {}", path.display()));
    }
    Ok(out)
}

/// Per-layer metrics a workload without the server reports as 0.
const NOT_SERVED: [(&str, &str); 17] = [
    ("manager.opens", "count"),
    ("manager.hits", "count"),
    ("manager.evictions", "count"),
    ("manager.resident_bytes", "B"),
    ("manager.warm_reopens", "count"),
    ("server.wire_overhead_ms", "ms"),
    ("proto.encode_ms", "ms"),
    ("json.parse_ms", "ms"),
    ("server.response_bytes", "B"),
    ("server.rejected_503", "count"),
    ("loadgen.lag_ms.max", "ms"),
    ("loadgen.sent.r25", "count"),
    ("loadgen.sent.r50", "count"),
    ("loadgen.sent.r100", "count"),
    ("loadgen.sent.r200", "count"),
    ("loadgen.sent.r400", "count"),
    ("loadgen.sent.mixed", "count"),
];

/// Record `setup_s` and the relation-layer numbers of a run's ingests.
pub fn set_relation(out: &mut Outcome, prepared: &data::Prepared, ingests: &data::IngestTimes) {
    let listed: Vec<String> = ingests
        .total_ms()
        .iter()
        .map(|v| format!("{v:.1}"))
        .collect();
    out.note(format!("ingest times (ms): {}", listed.join(" ")));
    out.set_opt("setup_s", "s", ingests.setup_s());
    out.set_opt("relation.read_csv_ms", "ms", ingests.read_csv_ms());
    out.set_opt("relation.align_ms", "ms", ingests.align_ms());
    out.set("relation.csv_bytes", "B", prepared.csv_bytes() as f64);
}

/// Record the layer split of the shortlisted query, and check that its
/// work counters and ranking match the pipeline's.
pub fn set_split(out: &mut Outcome, split: &Split, expected: &Ranking) {
    if let Some(why) = split.counter_mismatch() {
        out.fail_check(format!("work counters: {why}"));
    }
    if split.ranking.verdict(expected) == Verdict::Different {
        out.fail_check("the traced one-thread run ranked differently from the reference");
    }
    out.set("session.open_ms", "ms", split.open_ms);
    out.set("session.plane_bytes", "B", split.plane_bytes as f64);
    out.set("assistant.analyze_ms", "ms", split.assistant_ms);
    out.set("numerics.global_fit_ms", "ms", split.fit_ms);
    out.set("numerics.global_fits", "count", split.fits as f64);
    out.set("cluster.cluster_ms", "ms", split.cluster_ms);
    out.set("cluster.calls", "count", split.cluster_calls as f64);
    out.set("cluster.points", "count", split.cluster_points as f64);
    out.set("labeling.categorical_ms", "ms", split.categorical_ms);
    out.set(
        "labeling.categorical_calls",
        "count",
        split.categorical_calls as f64,
    );
    out.set("partition.induce_ms", "ms", split.induce_ms);
    out.set("partition.induce_calls", "count", split.induce_calls as f64);
    out.set(
        "partition.induce_distinct",
        "count",
        split.induce_distinct as f64,
    );
    out.set("partition.leaves", "count", split.leaves as f64);
    out.set("fit_snap_score.remainder_ms", "ms", split.remainder_ms());
    out.set("search.candidates", "count", split.candidates as f64);
    out.set("search.evaluate_ms", "ms", split.evaluate_ms);
    out.set("search.rank_dedup_ms", "ms", split.rank_dedup_ms);
    out.set("trace.coverage", "ratio", split.coverage());
    out.note(format!(
        "one-thread split: run {:.1} ms = assistant {:.1} + evaluate {:.1} \
         (fits {:.1}, clustering {:.1}, categorical {:.1}, trees {:.1}, \
         fit+snap+score {:.1}) + rank/dedup {:.1}; counters {}/{}/{} match SessionStats",
        split.session_run_ms,
        split.assistant_ms,
        split.evaluate_ms,
        split.fit_ms,
        split.cluster_ms,
        split.categorical_ms,
        split.induce_ms,
        split.remainder_ms(),
        split.rank_dedup_ms,
        split.fits,
        split.labelings(),
        split.candidates,
    ));
}

/// Record the default (assistant-chosen) query's split.
pub fn set_default(out: &mut Outcome, split: &Split) {
    out.set("default.candidates", "count", split.candidates as f64);
    out.set("default.assistant_ms", "ms", split.assistant_ms);
    out.set("default.evaluate_ms", "ms", split.evaluate_ms);
    out.set("default.global_fit_ms", "ms", split.fit_ms);
    out.set(
        "default.cluster_ms",
        "ms",
        split.cluster_ms + split.categorical_ms,
    );
    out.set("default.induce_ms", "ms", split.induce_ms);
    out.set("default.remainder_ms", "ms", split.remainder_ms());
    out.set("default.coverage", "ratio", split.coverage());
    out.set("default.labelings", "count", split.labelings() as f64);
}

/// The default query is attributed on `county-cold-4k` only.
pub fn set_default_absent(out: &mut Outcome) {
    for (name, unit) in crate::metrics::PER_LAYER {
        if name.starts_with("default.") {
            out.set(name, unit, 0.0);
        }
    }
}

/// Logical CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
