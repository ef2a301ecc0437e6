//! Served-throughput benchmark for the multi-tenant serving layer,
//! emitting `BENCH_serve.json`.
//!
//! The workload is the e5 county payroll scenario served over real HTTP:
//! the dataset is registered as two CSV files on disk, the server runs
//! with its bounded worker pool, and a raw-TCP client measures full
//! request→response round-trips (HTTP parse + JSON decode + engine +
//! JSON encode) in two regimes:
//!
//! - **cold** — each request is preceded by `POST .../evict`, so the
//!   manager re-reads the CSVs, re-aligns the pair, reopens the session,
//!   and runs the search from nothing (the "dataset-open + query" cost a
//!   naive stateless service would pay per request);
//! - **warm** — the session stays resident and the client holds a
//!   **keep-alive** connection ([`charles_server::HttpClient`]), so each
//!   request rides the fully cached plane (PR 2's warm path) plus only
//!   the wire framing — no per-request TCP setup, isolating engine cost
//!   from connection cost.
//!
//! Cold and warm rankings are asserted byte-identical (modulo the
//! `elapsed_ms` timing field), and the binary asserts warm serving is
//! ≥ 50x cold on the full 4k-row workload (≥ 5x under `--smoke`, which
//! CI runs on a small row count).
//!
//! Run: `cargo run --release -p charles-bench --bin bench_serve [--smoke] [rows]`

use charles_core::{ManagerConfig, SessionManager};
use charles_server::{
    http_request, HttpClient, Json, Server, ServerConfig, WireQuery, PROTOCOL_VERSION,
};
use charles_synth::county;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let rows: usize = args
        .iter()
        .find_map(|a| a.parse().ok())
        .unwrap_or(if smoke { 600 } else { 4_000 });
    let (cold_requests, warm_requests) = if smoke { (1, 5) } else { (3, 25) };

    // Register the county dataset as CSVs on disk: the cold path then
    // exercises the whole ingest stack (read + type-sniff + align) on
    // every re-open, exactly what a stateless service would pay.
    let scenario = county(rows, 42);
    let dir = std::env::temp_dir().join(format!("charles_bench_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let source_path = dir.join("county_v1.csv");
    let target_path = dir.join("county_v2.csv");
    charles_relation::write_csv_path(&scenario.source, &source_path).expect("write source CSV");
    charles_relation::write_csv_path(&scenario.target, &target_path).expect("write target CSV");

    let manager = Arc::new(SessionManager::new(
        ManagerConfig::default().with_max_sessions(4),
    ));
    manager.register_csv("county", &source_path, &target_path, Some("name".into()));
    let mut server = Server::start(
        Arc::clone(&manager),
        ServerConfig::default().with_workers(2),
    )
    .expect("server starts");
    let addr = server.local_addr();
    eprintln!("bench_serve: {rows} rows on http://{addr} (smoke={smoke})");

    // Smoke gate: the health probe and one query must round-trip 2xx.
    let health = http_request(addr, "GET", "/healthz", None).expect("healthz");
    assert!(health.is_success(), "healthz failed: {}", health.body);
    let mut query = WireQuery::new(&scenario.target_attr);
    query.condition_attrs = Some(vec!["department".into(), "grade".into(), "division".into()]);
    query.transform_attrs = Some(vec!["base_salary".into(), "overtime_pay".into()]);
    let body = query.to_json().encode();
    let first =
        http_request(addr, "POST", "/v1/datasets/county/query", Some(&body)).expect("first query");
    assert!(
        first.is_success(),
        "query round-trip failed ({}): {}",
        first.status,
        first.body
    );

    // Rankings only (timing stripped) for the identity assertions.
    let rankings = |body: &str| -> String {
        let mut doc = Json::parse(body).expect("response JSON");
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "elapsed_ms");
        }
        doc.encode()
    };
    let reference = rankings(&first.body);

    // Cold regime: evict, then pay open+query per request.
    let mut cold_total = 0.0f64;
    for i in 0..cold_requests {
        let evicted = http_request(addr, "POST", "/v1/datasets/county/evict", None).expect("evict");
        assert!(evicted.is_success(), "evict failed: {}", evicted.body);
        let started = Instant::now();
        let response = http_request(addr, "POST", "/v1/datasets/county/query", Some(&body))
            .expect("cold query");
        // lint:allow(float-fold-order: wall-clock accounting in the bench harness)
        cold_total += started.elapsed().as_secs_f64();
        assert!(response.is_success(), "cold query {i}: {}", response.body);
        assert_eq!(
            rankings(&response.body),
            reference,
            "cold request {i} diverged from the reference ranking"
        );
    }

    // Warm regime: the resident session serves every request, and the
    // client reuses ONE keep-alive connection for the whole loop —
    // engine + framing cost only, no per-request TCP setup.
    let warmup =
        http_request(addr, "POST", "/v1/datasets/county/query", Some(&body)).expect("warmup query");
    assert!(warmup.is_success());
    let mut client = HttpClient::connect(addr).expect("keep-alive connect");
    let mut warm_total = 0.0f64;
    for i in 0..warm_requests {
        let started = Instant::now();
        let response = client
            .request("POST", "/v1/datasets/county/query", Some(&body))
            .expect("warm keep-alive query");
        // lint:allow(float-fold-order: wall-clock accounting in the bench harness)
        warm_total += started.elapsed().as_secs_f64();
        assert!(response.is_success(), "warm query {i}: {}", response.body);
        assert!(
            !client.is_closed(),
            "server closed the keep-alive connection mid-bench"
        );
        assert_eq!(
            rankings(&response.body),
            reference,
            "warm request {i} diverged from the reference ranking"
        );
    }

    let cold_per_req = cold_total / cold_requests as f64;
    let warm_per_req = warm_total / warm_requests as f64;
    let cold_rps = 1.0 / cold_per_req.max(1e-9);
    let warm_rps = 1.0 / warm_per_req.max(1e-9);
    let speedup = cold_per_req / warm_per_req.max(1e-12);

    let stats = manager.dataset_stats("county").expect("county stats");
    let json = format!(
        "{{\n  \"workload\": \"e5_county_served\",\n  \"rows\": {rows},\n  \"protocol_version\": {PROTOCOL_VERSION},\n  \"server_workers\": 2,\n  \"smoke\": {smoke},\n  \"cold_requests\": {cold_requests},\n  \"warm_requests\": {warm_requests},\n  \"warm_keep_alive\": true,\n  \"cold_seconds_per_request\": {cold_per_req:.4},\n  \"warm_seconds_per_request\": {warm_per_req:.6},\n  \"cold_requests_per_sec\": {cold_rps:.2},\n  \"warm_requests_per_sec\": {warm_rps:.2},\n  \"served_warm_speedup\": {speedup:.2},\n  \"identical_rankings\": true,\n  \"dataset_opens\": {},\n  \"dataset_evictions\": {},\n  \"resident_bytes\": {}\n}}\n",
        stats.opens, stats.evictions, stats.approx_bytes,
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    print!("{json}");
    eprintln!(
        "cold {cold_per_req:.3}s/req ({cold_rps:.2} req/s) vs warm {warm_per_req:.5}s/req \
         ({warm_rps:.1} req/s): {speedup:.1}x — wrote BENCH_serve.json"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    let floor = if smoke { 5.0 } else { 50.0 };
    assert!(
        speedup >= floor,
        "warm served queries must be ≥ {floor}x cold open+query, got {speedup:.2}x"
    );
}
