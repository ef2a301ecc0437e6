//! `county-served-4k`: an in-process `charles_server` with 2 workers under
//! an open-loop interactive mix from 2 generator threads, each holding one
//! keep-alive connection. The window has two halves:
//!
//! - The mixed half: the light lane at a fixed rate beside the heavy lane.
//!   The light requests are the warm shortlisted `query`, an α `sweep`
//!   {0.25, 0.5, 0.75}, and `stats`/`targets` reads. The heavy lane
//!   alternates an α-override `query` (never memoized, so a cold search)
//!   with a write that uploads a fresh county pair under a rotating name,
//!   queries it cold and unregisters it. `served_query_ms.*` is the light
//!   lane's warm query here, so a gain for one lane that costs the other
//!   shows in its tail.
//! - The ladder, once the heavy lane is done: the light lane alone, at five
//!   fixed rates in turn. `query_ms.p50` pools the warm queries of the
//!   rungs up to 100 req/s; the higher rungs probe saturation, and
//!   `served_max_rps` is the highest sustained rung.
//!
//! Every answer is checked against a one-thread in-process reference.

use crate::cold::{nproc, set_default_absent, set_relation, set_split};
use crate::data::{self, Prepared, TARGET};
use crate::fingerprint::{Ranking, Verdict};
use crate::loadgen::{run_open_loop, Due, Sample};
use crate::metrics::{ms, peak_rss_mb, Outcome};
use crate::replay::replay;
use crate::stats::{median, tail};
use crate::trace::{trace_path, Tracer};
use crate::Args;
use charles_core::{
    evaluate_recovery, CharlesConfig, ManagerConfig, Query, Session, SessionManager,
};
use charles_server::{
    http_request, HttpClient, HttpResponse, Json, Server, ServerConfig, WireQuery, WireQueryResult,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Light-lane rates of the ladder, requests per second, one rung each.
pub const LADDER: [u32; 5] = [25, 50, 100, 200, 400];
/// The highest ladder rate `query_ms.p50` pools: well below saturation,
/// so the gated median measures service, not queueing.
const POOLED_MAX_RATE: u32 = 100;
/// Light-lane rate of the mixed half.
const MIXED_RATE: u32 = 50;
/// The rung index light requests of the mixed half carry.
const MIXED: usize = LADDER.len();
/// Heavy ops in the mixed half, evenly spaced, alternating kinds.
const HEAVY_OPS: usize = 4;
/// The light-lane tail latency a rung must meet to count as sustained.
pub const LIMIT_MS: f64 = 50.0;
/// Server worker threads.
const WORKERS: usize = 2;
/// The sweep's α values.
const ALPHAS: [f64; 3] = [0.25, 0.5, 0.75];
/// The heavy lane's α override (off the session's α, so never memoized).
const ALPHA_OVERRIDE: f64 = 0.7;
/// Fresh pairs the write op uploads in turn (seeds `seed+1`, …).
const INGEST_PAIRS: u64 = 1;
/// Timed ingests of the pair once the lanes are done, so that `setup_s`
/// samples the host at both ends of the run.
const LATE_INGESTS: usize = 10;
/// How long after the window the lanes may drain before requests still
/// unsent count as failed.
const DRAIN: Duration = Duration::from_secs(30);
/// Dataset name of the served pair.
const DATASET: &str = "county";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Light {
    Query,
    Sweep,
    Stats,
    Targets,
}

/// The light mix, cycled: half warm queries, a sweep, two reads.
const LIGHT_MIX: [Light; 6] = [
    Light::Query,
    Light::Sweep,
    Light::Query,
    Light::Stats,
    Light::Query,
    Light::Targets,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Heavy {
    AlphaQuery(usize),
    Write(usize),
}

/// What one request came to.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Ok,
    RenderOnly,
    Rejected,
    Failed(String),
}

impl Answer {
    fn ok(&self) -> bool {
        matches!(self, Answer::Ok | Answer::RenderOnly)
    }
}

/// The expected answers, from one-thread in-process sessions.
struct Expected {
    query: Ranking,
    sweep: Vec<Ranking>,
    alpha: Ranking,
    ingest: Vec<Ranking>,
    targets: Vec<String>,
}

/// Request bodies, encoded once.
struct Bodies {
    query: String,
    sweep: String,
    alpha: String,
    ingest: Vec<String>,
}

fn wire_ranking(result: &charles_core::QueryResult) -> Result<Ranking, String> {
    Ranking::of_wire(&WireQueryResult::from_result(result).to_json())
}

fn one_thread() -> CharlesConfig {
    CharlesConfig {
        threads: 1,
        ..CharlesConfig::default()
    }
}

fn upload_body(p: &Prepared) -> String {
    Json::obj([
        ("source_csv", Json::str(&p.source_csv)),
        ("target_csv", Json::str(&p.target_csv)),
        ("key", Json::str("name")),
    ])
    .encode()
}

/// Judge one response: 503 is a rejection, other non-2xx and unparsable
/// bodies fail, and `check` judges the rest.
fn judge(
    response: std::io::Result<HttpResponse>,
    check: impl FnOnce(&Json) -> Answer,
) -> (Answer, Option<String>) {
    match response {
        Err(e) => (Answer::Failed(format!("transport: {e}")), None),
        Ok(r) if r.status == 503 => (Answer::Rejected, None),
        Ok(r) if !r.is_success() => (Answer::Failed(format!("{}: {}", r.status, r.body)), None),
        Ok(r) => match Json::parse(&r.body) {
            Ok(doc) => (check(&doc), Some(r.body)),
            Err(e) => (Answer::Failed(format!("bad JSON: {e}")), None),
        },
    }
}

fn ranking_check(expected: &Ranking) -> impl FnOnce(&Json) -> Answer + '_ {
    move |doc| match Ranking::of_wire(doc) {
        Err(e) => Answer::Failed(e),
        Ok(got) => match got.verdict(expected) {
            Verdict::Same => Answer::Ok,
            Verdict::RenderOnly => Answer::RenderOnly,
            Verdict::Different => Answer::Failed("ranking differs from the reference".into()),
        },
    }
}

fn sweep_check(expected: &[Ranking]) -> impl FnOnce(&Json) -> Answer + '_ {
    move |doc| {
        let Some(results) = doc.get("results").and_then(Json::as_arr) else {
            return Answer::Failed("sweep has no results".into());
        };
        if results.len() != expected.len() {
            return Answer::Failed(format!("sweep has {} results", results.len()));
        }
        let mut answer = Answer::Ok;
        for (got, want) in results.iter().zip(expected) {
            match ranking_check(want)(got) {
                Answer::Ok => {}
                Answer::RenderOnly => answer = Answer::RenderOnly,
                other => return other,
            }
        }
        answer
    }
}

/// Run the served workload on `rows`-row pairs.
pub fn run(args: &Args, rows: usize) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let tracer = Tracer::new(args.trace);
    let (prepared, mut ingests) = data::prepare(rows, args.seed, data::SETUP_REPEATS)?;
    let ingest: Vec<Prepared> = (1..=INGEST_PAIRS)
        .map(|i| data::prepare(rows, args.seed + i, 1).map(|(p, _)| p))
        .collect::<Result<_, _>>()?;

    // References.
    let query = data::shortlisted_query();
    let engine = |e: charles_core::CharlesError| format!("reference: {e}");
    let reference =
        Session::open_with_config(prepared.pair.clone(), one_thread()).map_err(engine)?;
    let base = reference.run(&query).map_err(engine)?;
    let top = base.top().ok_or("the reference ranked no summary")?;
    let recovery = evaluate_recovery(
        top,
        &prepared.pair,
        TARGET,
        &prepared.truth,
        &CharlesConfig::default(),
    )
    .map_err(|e| format!("evaluate_recovery: {e}"))?;
    out.set("top_ari", "ratio", recovery.ari);
    let expected = Expected {
        query: wire_ranking(&base)?,
        sweep: reference
            .sweep_alpha(&base, &ALPHAS)
            .map_err(engine)?
            .iter()
            .map(wire_ranking)
            .collect::<Result<_, _>>()?,
        alpha: wire_ranking(
            &reference
                .run(&query.clone().with_alpha(ALPHA_OVERRIDE))
                .map_err(engine)?,
        )?,
        ingest: ingest
            .iter()
            .map(|p| {
                Session::open_with_config(p.pair.clone(), one_thread())
                    .and_then(|s| s.run(&query))
                    .map_err(engine)
                    .and_then(|r| wire_ranking(&r))
            })
            .collect::<Result<_, _>>()?,
        targets: reference.targets().map_err(engine)?,
    };
    drop(reference);
    out.note(format!(
        "{rows} rows, seed {}: reference fingerprint {} ({} summaries)",
        args.seed,
        expected.query.digest(),
        expected.query.len()
    ));

    let mut wire_query = WireQuery::new(TARGET);
    wire_query.condition_attrs = query.condition_attrs.clone();
    wire_query.transform_attrs = query.transform_attrs.clone();
    let mut alpha_query = wire_query.clone();
    alpha_query.alpha = Some(ALPHA_OVERRIDE);
    let bodies = Bodies {
        query: wire_query.to_json().encode(),
        sweep: Json::obj([
            ("query", wire_query.to_json()),
            (
                "alphas",
                Json::Arr(ALPHAS.iter().map(|&a| Json::Num(a)).collect()),
            ),
        ])
        .encode(),
        alpha: alpha_query.to_json().encode(),
        ingest: ingest.iter().map(upload_body).collect(),
    };

    // The server, with the pair uploaded and its session warm. Dropping
    // the server (on any early return too) shuts it down and joins it.
    let manager = Arc::new(SessionManager::new(ManagerConfig::default()));
    let mut server = Server::start(
        Arc::clone(&manager),
        ServerConfig::default().with_workers(WORKERS),
    )
    .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr();
    let uploaded = http_request(
        addr,
        "POST",
        &format!("/v1/datasets/{DATASET}"),
        Some(&upload_body(&prepared)),
    )
    .map_err(|e| format!("upload: {e}"))?;
    if !uploaded.is_success() {
        return Err(format!("upload: {} {}", uploaded.status, uploaded.body));
    }
    let (first, _) = judge(
        http_request(addr, "POST", &query_path(DATASET), Some(&bodies.query)),
        ranking_check(&expected.query),
    );
    if !first.ok() {
        return Err(format!("first served query: {first:?}"));
    }

    let (light, heavy, last_query_body) = run_lanes(args, addr, &expected, &bodies, &tracer)?;
    summarize(&mut out, &light, &heavy);
    for _ in 0..LATE_INGESTS {
        ingests.sample(&prepared)?;
    }
    set_relation(&mut out, &prepared, &ingests);
    out.set(
        "threads_used",
        "count",
        CharlesConfig::default().effective_threads() as f64,
    );
    out.set("nproc", "count", nproc() as f64);
    out.set_opt("peak_rss_mb", "MB", peak_rss_mb());

    if args.trace {
        let is_query = |s: &&LightSample| {
            s.item.0 == Light::Query && s.result.as_ref().is_some_and(Answer::ok)
        };
        let split_by_tracing = |traced: bool| -> Vec<f64> {
            light
                .iter()
                .filter(is_query)
                .filter(|s| traced_request(&tracer, s.item.2) == traced)
                .filter_map(Sample::latency_ms)
                .collect()
        };
        if let (Some(t), Some(u)) = (
            median(&split_by_tracing(true)),
            median(&split_by_tracing(false)),
        ) {
            out.set("trace.overhead_frac", "ratio", t / u - 1.0);
        }
        let expected_here = Ranking::of_summaries(&base.summaries);
        trace_extras(
            &mut out,
            &manager,
            &query,
            last_query_body,
            &prepared,
            &expected_here,
            &tracer,
        )?;
        let path = trace_path(&args.workload, args.seed);
        out.set("trace.spans", "count", tracer.len() as f64);
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        out.note(format!("spans written to {}", path.display()));
    }
    server.shutdown();
    Ok(out)
}

fn query_path(dataset: &str) -> String {
    format!("/v1/datasets/{dataset}/query")
}

type LightSample = Sample<(Light, usize, u64), Answer>;
type HeavySample = Sample<Heavy, Answer>;

/// Append `rate` light requests per second for `len` from `from`, tagged
/// with rung `r`; the mix cycles on across calls.
fn light_phase(
    schedule: &mut Vec<Due<(Light, usize, u64)>>,
    from: Duration,
    len: Duration,
    rate: u32,
    r: usize,
) {
    let n = (f64::from(rate) * len.as_secs_f64()).floor().max(1.0) as u64;
    for i in 0..n {
        let idx = schedule.len() as u64;
        schedule.push(Due {
            at: from + Duration::from_secs_f64(i as f64 / f64::from(rate)),
            item: (LIGHT_MIX[idx as usize % LIGHT_MIX.len()], r, idx),
        });
    }
}

/// Drive the mixed half (both lanes), then the ladder (light lane alone,
/// started once the heavy lane is done); returns the samples and the last
/// warm query response body.
fn run_lanes(
    args: &Args,
    addr: std::net::SocketAddr,
    expected: &Expected,
    bodies: &Bodies,
    tracer: &Tracer,
) -> Result<(Vec<LightSample>, Vec<HeavySample>, String), String> {
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    // One index sequence; each half's due times count from its own start.
    let mut schedule = Vec::new();
    light_phase(&mut schedule, Duration::ZERO, half, MIXED_RATE, MIXED);
    let ladder_from = schedule.len();
    let rung = half / LADDER.len() as u32;
    for (r, &rate) in LADDER.iter().enumerate() {
        light_phase(&mut schedule, rung * r as u32, rung, rate, r);
    }
    let (mixed, ladder) = schedule.split_at(ladder_from);
    let heavy_schedule: Vec<Due<Heavy>> = (0..HEAVY_OPS)
        .map(|i| Due {
            at: half * i as u32 / HEAVY_OPS as u32,
            item: if i % 2 == 0 {
                Heavy::AlphaQuery(i)
            } else {
                Heavy::Write(i)
            },
        })
        .collect();

    let mut light_client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut heavy_client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut last_query_body = String::new();
    let mut send_light = |&(kind, _, idx): &(Light, usize, u64)| {
        let (method, path, body) = match kind {
            Light::Query => ("POST", query_path(DATASET), Some(bodies.query.as_str())),
            Light::Sweep => (
                "POST",
                format!("/v1/datasets/{DATASET}/sweep"),
                Some(bodies.sweep.as_str()),
            ),
            Light::Stats => ("GET", format!("/v1/datasets/{DATASET}/stats"), None),
            Light::Targets => ("GET", format!("/v1/datasets/{DATASET}/targets"), None),
        };
        let t0 = Instant::now();
        let response = light_client.request(method, &path, body);
        if traced_request(tracer, idx) {
            tracer.record(light_span(kind), idx, None, t0, Instant::now());
        }
        response
    };
    let mut check_light = |&(kind, _, _): &(Light, usize, u64), response| {
        let (answer, body) = judge(response, |doc| match kind {
            Light::Query => ranking_check(&expected.query)(doc),
            Light::Sweep => sweep_check(&expected.sweep)(doc),
            Light::Stats => match doc.get("name").and_then(Json::as_str) {
                Some(DATASET) => Answer::Ok,
                _ => Answer::Failed("stats for the wrong dataset".into()),
            },
            Light::Targets => {
                let got: Option<Vec<&str>> = doc
                    .get("targets")
                    .and_then(Json::as_arr)
                    .map(|a| a.iter().filter_map(Json::as_str).collect());
                if got == Some(expected.targets.iter().map(String::as_str).collect()) {
                    Answer::Ok
                } else {
                    Answer::Failed("targets differ from the reference".into())
                }
            }
        });
        if let (Light::Query, Some(body)) = (kind, body) {
            last_query_body = body;
        }
        answer
    };

    let start = Instant::now();
    let deadline = start + half + DRAIN;
    let (mut light, heavy) = std::thread::scope(|scope| {
        let heavy = scope.spawn(|| {
            run_open_loop(
                start,
                deadline,
                &heavy_schedule,
                |item| heavy_op(&mut heavy_client, *item, expected, bodies, tracer),
                |_, answer| answer,
            )
        });
        let light = run_open_loop(start, deadline, mixed, &mut send_light, &mut check_light);
        (light, heavy.join())
    });
    let heavy = heavy.map_err(|_| "the heavy lane panicked".to_string())?;
    let start = Instant::now();
    light.extend(run_open_loop(
        start,
        start + half + DRAIN,
        ladder,
        &mut send_light,
        &mut check_light,
    ));
    Ok((light, heavy, last_query_body))
}

/// Light requests alternate, one mix cycle at a time, between traced and
/// untraced in the traced pass.
fn traced_request(tracer: &Tracer, idx: u64) -> bool {
    tracer.enabled() && (idx / LIGHT_MIX.len() as u64) % 2 == 1
}

fn light_span(kind: Light) -> &'static str {
    match kind {
        Light::Query => "http.query",
        Light::Sweep => "http.sweep",
        Light::Stats => "http.stats",
        Light::Targets => "http.targets",
    }
}

/// One heavy-lane op.
fn heavy_op(
    client: &mut HttpClient,
    op: Heavy,
    expected: &Expected,
    bodies: &Bodies,
    tracer: &Tracer,
) -> Answer {
    let t0 = Instant::now();
    match op {
        Heavy::AlphaQuery(r) => {
            let response = client.request("POST", &query_path(DATASET), Some(&bodies.alpha));
            tracer.record("http.alpha_query", r as u64, None, t0, Instant::now());
            judge(response, ranking_check(&expected.alpha)).0
        }
        Heavy::Write(r) => {
            let pair = r % expected.ingest.len();
            let name = format!("ingest-{r}");
            let parent = tracer.record("heavy.write", r as u64, None, t0, t0);
            let answer = write_steps(client, r, pair, &name, expected, bodies, tracer, parent);
            if let Some(id) = parent {
                tracer.finish(id, Instant::now());
            }
            answer
        }
    }
}

/// The write op's steps: upload, cold query, unregister.
#[allow(clippy::too_many_arguments)]
fn write_steps(
    client: &mut HttpClient,
    r: usize,
    pair: usize,
    name: &str,
    expected: &Expected,
    bodies: &Bodies,
    tracer: &Tracer,
    parent: Option<crate::trace::SpanId>,
) -> Answer {
    let mut step = |span: &'static str, method: &str, path: String, body: Option<&str>| {
        let t = Instant::now();
        let response = client.request(method, &path, body);
        tracer.record(span, r as u64, parent, t, Instant::now());
        response
    };
    let uploaded = step(
        "http.upload",
        "POST",
        format!("/v1/datasets/{name}"),
        Some(&bodies.ingest[pair]),
    );
    let (answer, _) = judge(uploaded, |_| Answer::Ok);
    if !answer.ok() {
        return answer;
    }
    let queried = step(
        "http.cold_query",
        "POST",
        query_path(name),
        Some(&bodies.query),
    );
    let (answer, _) = judge(queried, ranking_check(&expected.ingest[pair]));
    let removed = step(
        "http.unregister",
        "DELETE",
        format!("/v1/datasets/{name}"),
        None,
    );
    let (removed, _) = judge(removed, |_| Answer::Ok);
    if !removed.ok() {
        return removed;
    }
    answer
}

fn count_failures<T, R>(samples: &[Sample<T, R>], failed: impl Fn(&R) -> bool) -> u64 {
    samples
        .iter()
        .filter(|s| s.result.as_ref().is_none_or(&failed))
        .count() as u64
}

/// Latencies (ms) of the successful samples matching `keep`.
fn latencies<T, F: Fn(&T) -> bool>(samples: &[Sample<T, Answer>], keep: F) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| keep(&s.item) && s.result.as_ref().is_some_and(Answer::ok))
        .filter_map(Sample::latency_ms)
        .collect()
}

/// The end-to-end and ladder metrics of both lanes.
fn summarize(out: &mut Outcome, light: &[LightSample], heavy: &[HeavySample]) {
    let failed = |a: &Answer| !a.ok();
    out.attempted = (light.len() + heavy.len()) as u64;
    out.failed = count_failures(light, failed) + count_failures(heavy, failed);
    let light_items = light.iter().map(|s| (format!("{:?}", s.item), &s.result));
    let heavy_items = heavy.iter().map(|s| (format!("{:?}", s.item), &s.result));
    for (item, result) in light_items.chain(heavy_items) {
        match result {
            Some(Answer::Failed(why)) => out.note(format!("request {item} failed: {why}")),
            None => out.note(format!("request {item} was never sent")),
            _ => {}
        }
    }
    if out.failed > 0 {
        out.fail_check(format!(
            "{} of {} requests failed",
            out.failed, out.attempted
        ));
    }
    out.set(
        "error_rate",
        "ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    let count = |answer: Answer| {
        let is = |r: &Option<Answer>| r.as_ref() == Some(&answer);
        (light.iter().filter(|s| is(&s.result)).count()
            + heavy.iter().filter(|s| is(&s.result)).count()) as f64
    };
    out.set("search.render_mismatch", "count", count(Answer::RenderOnly));
    out.set("server.rejected_503", "count", count(Answer::Rejected));

    let pooled = |kind: Light| {
        latencies(light, move |&(k, r, _)| {
            k == kind && LADDER.get(r).is_some_and(|&rate| rate <= POOLED_MAX_RATE)
        })
    };
    out.set_opt("query_ms.p50", "ms", median(&pooled(Light::Query)));
    let queries = latencies(light, |&(k, r, _)| k == Light::Query && r == MIXED);
    out.set_opt("served_query_ms.p50", "ms", median(&queries));
    let t = tail(&queries);
    out.set_opt("served_query_ms.tail", "ms", t.map(|t| t.value));
    if let Some(t) = t {
        out.note(format!(
            "served_query_ms.tail is p{} with {} samples beyond ({} queries beside the heavy lane)",
            t.percentile,
            t.beyond,
            queries.len()
        ));
    }
    out.set_opt("served_sweep_ms.p50", "ms", median(&pooled(Light::Sweep)));
    let secs = |v: Vec<f64>| median(&v).map(|m| m / 1e3);
    out.set_opt(
        "served_alpha_query_s.p50",
        "s",
        secs(latencies(heavy, |h| matches!(h, Heavy::AlphaQuery(_)))),
    );
    out.set_opt(
        "served_ingest_query_s.p50",
        "s",
        secs(latencies(heavy, |h| matches!(h, Heavy::Write(_)))),
    );

    // The ladder: a rung is sustained when every request succeeded, its
    // light-lane tail meets the limit, and the generator was not still
    // running late over the rung's last quarter (no growing backlog).
    let mut max_rps = 0.0;
    let lag_max = light
        .iter()
        .filter_map(|s| s.lag.map(ms))
        .fold(0.0, f64::max);
    for (r, &rate) in LADDER.iter().enumerate() {
        let rung: Vec<&LightSample> = light.iter().filter(|s| s.item.1 == r).collect();
        let all_ok = rung
            .iter()
            .all(|s| s.result.as_ref().is_some_and(Answer::ok));
        let lat: Vec<f64> = rung.iter().filter_map(|s| s.latency_ms()).collect();
        let lags: Vec<f64> = rung.iter().filter_map(|s| s.lag.map(ms)).collect();
        let last_quarter = &lags[lags.len() * 3 / 4..];
        let backlog = median(last_quarter).unwrap_or(f64::INFINITY);
        let t = tail(&lat);
        let sustained = all_ok && backlog <= LIMIT_MS && t.is_some_and(|t| t.value <= LIMIT_MS);
        if sustained {
            max_rps = f64::from(rate);
        }
        out.set(&format!("loadgen.sent.r{rate}"), "count", lags.len() as f64);
        out.note(format!(
            "rung {rate} req/s: {} sent, p50 {:.3} ms, tail {}, late {:.3} ms over the last quarter, {}",
            lags.len(),
            median(&lat).unwrap_or(f64::NAN),
            t.map_or("n/a".to_string(), |t| format!("p{} {:.3} ms", t.percentile, t.value)),
            backlog,
            if sustained { "sustained" } else { "not sustained" }
        ));
    }
    let mixed = light
        .iter()
        .filter(|s| s.item.1 == MIXED && s.lag.is_some());
    out.set("loadgen.sent.mixed", "count", mixed.count() as f64);
    out.set("loadgen.lag_ms.max", "ms", lag_max);
    out.set("served_max_rps", "req/s", max_rps);
    out.set("served_latency_limit_ms", "ms", LIMIT_MS);
}

/// The traced pass's extras: overhead, in-process layer costs of the
/// wire path, manager counters, and the one-thread layer split.
fn trace_extras(
    out: &mut Outcome,
    manager: &SessionManager,
    query: &Query,
    last_query_body: String,
    prepared: &Prepared,
    expected: &Ranking,
    tracer: &Tracer,
) -> Result<(), String> {
    let stats = manager
        .dataset_stats(DATASET)
        .map_err(|e| format!("dataset stats: {e}"))?;
    out.set("manager.opens", "count", stats.opens as f64);
    out.set("manager.hits", "count", stats.hits as f64);
    out.set("manager.evictions", "count", stats.evictions as f64);
    out.set(
        "manager.resident_bytes",
        "B",
        manager.resident_bytes() as f64,
    );
    out.set(
        "manager.warm_reopens",
        "count",
        stats.opens.saturating_sub(1) as f64,
    );

    let session = manager
        .peek_session(DATASET)
        .ok_or("the served session is not resident")?;
    let counters = session.stats();
    let mut warm = Vec::new();
    let mut last = None;
    for _ in 0..20 {
        let t = Instant::now();
        let result = session.run(query).map_err(|e| format!("warm run: {e}"))?;
        warm.push(ms(t.elapsed()));
        last = Some(result);
    }
    let last = last.ok_or("no warm run")?;
    let warm_ms = median(&warm).ok_or("no warm run")?;
    out.set("session.warm_run_ms", "ms", warm_ms);
    out.set(
        "search.threads_used",
        "count",
        last.stats.threads_used as f64,
    );
    let encode: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(WireQueryResult::from_result(&last).to_json().encode());
            ms(t.elapsed())
        })
        .collect();
    out.set("proto.encode_ms", "ms", median(&encode).unwrap_or(f64::NAN));
    let parse: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            let _ = std::hint::black_box(Json::parse(&last_query_body));
            ms(t.elapsed())
        })
        .collect();
    out.set("json.parse_ms", "ms", median(&parse).unwrap_or(f64::NAN));
    out.set("server.response_bytes", "B", last_query_body.len() as f64);
    let served = out.get("query_ms.p50").unwrap_or(f64::NAN);
    out.set("server.wire_overhead_ms", "ms", served - warm_ms);
    out.set("trace.query_ms.p50", "ms", served);
    if !out.has("trace.overhead_frac") {
        out.set("trace.overhead_frac", "ratio", 0.0);
    }

    let split = replay(&prepared.pair, query, true, tracer, u64::MAX)?;
    set_split(out, &split, expected);
    out.set(
        "search.fits_computed",
        "count",
        counters.global_fits_computed as f64,
    );
    out.set(
        "search.labelings_computed",
        "count",
        counters.labelings_computed as f64,
    );
    out.set(
        "search.candidates_computed",
        "count",
        counters.candidates_computed as f64,
    );
    out.set(
        "search.fit_memo_useful_frac",
        "ratio",
        split.fits as f64 / counters.global_fits_computed as f64,
    );
    out.set(
        "search.label_memo_useful_frac",
        "ratio",
        split.labelings() as f64 / counters.labelings_computed as f64,
    );
    set_default_absent(out);
    Ok(())
}
