//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload county-cold-4k --seed 42 --seconds 20 --trace 0
//! ```
//!
//! One run measures one workload for `--seconds`, checks every answer
//! against a single-threaded reference computed at set-up, prints one
//! `metric <name> = <value> <unit>` line per metric, and ends with one
//! JSON object: the end-to-end metrics of `BENCHMARK.json` with
//! `--trace 0`, its per-layer metrics with `--trace 1`. See
//! `benchmark/README.md` for the workloads and the metric → layer map.

mod cold;
mod data;
mod fingerprint;
mod loadgen;
mod metrics;
mod replay;
mod served;
mod stats;
mod trace;

use metrics::Outcome;
use std::process::ExitCode;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["county-cold-4k", "county-cold-16k", "county-served-4k"];

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// County generator seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            args.workload
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Run one workload to its outcome.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "county-cold-4k" => cold::run(args, 4_000, true),
        "county-cold-16k" => cold::run(args, 16_000, false),
        "county-served-4k" => served::run(args, 4_000),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("charles-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("charles-benchmark: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    match outcome.render(args.trace) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("charles-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Report-only metrics of the cold workloads.
    pub const REPORT_COLD: [(&str, &str); 6] = [
        ("cold_query_s.p50", "s"),
        ("cold_query_s.tail", "s"),
        ("top_ari", "ratio"),
        ("error_rate", "ratio"),
        ("threads_used", "count"),
        ("nproc", "count"),
    ];

    /// Report-only metrics of the served workload.
    pub const REPORT_SERVED: [(&str, &str); 8] = [
        ("served_query_ms.p50", "ms"),
        ("served_query_ms.tail", "ms"),
        ("served_sweep_ms.p50", "ms"),
        ("served_alpha_query_s.p50", "s"),
        ("served_ingest_query_s.p50", "s"),
        ("served_max_rps", "req/s"),
        ("served_latency_limit_ms", "ms"),
        ("top_ari", "ratio"),
    ];

    /// Rows of the smoke runs' pairs.
    const SMOKE_ROWS: usize = 240;

    /// A tiny-row run of `workload` in both passes emits every metric
    /// name with its unit, and every answer checks out.
    fn smoke(
        workload: &str,
        report: &[(&str, &str)],
        run: impl Fn(&Args) -> Result<Outcome, String>,
    ) {
        for trace in [false, true] {
            let args = Args {
                workload: workload.to_string(),
                seed: 3,
                seconds: 1.0,
                trace,
            };
            let outcome = run(&args).expect("smoke run");
            let text = outcome
                .render(trace)
                .expect("every contract metric measured");
            assert!(outcome.correct, "{workload}: a check failed:\n{text}");
            assert!(outcome.attempted >= 1);
            let names = metrics::END_TO_END.iter().chain(report).chain(if trace {
                &metrics::PER_LAYER[..]
            } else {
                &[]
            });
            for (name, unit) in names {
                let line = format!("metric {name} = ");
                let found = text
                    .lines()
                    .find(|l| l.starts_with(&line))
                    .unwrap_or_else(|| panic!("{workload}: no {name} in\n{text}"));
                assert!(
                    line.len() < found.len() && found.ends_with(&format!(" {unit}")),
                    "{found}"
                );
            }
            let last = charles_server::Json::parse(text.lines().last().unwrap()).unwrap();
            let set = if trace {
                &metrics::PER_LAYER[..]
            } else {
                &metrics::END_TO_END[..]
            };
            let emitted = last.get("metrics").and_then(|m| match m {
                charles_server::Json::Obj(pairs) => Some(pairs.len()),
                _ => None,
            });
            assert_eq!(emitted, Some(set.len()));
        }
    }

    #[test]
    fn smoke_county_cold_4k() {
        smoke("county-cold-4k", &REPORT_COLD, |a| {
            cold::run(a, SMOKE_ROWS, true)
        });
    }

    #[test]
    fn smoke_county_cold_16k() {
        smoke("county-cold-16k", &REPORT_COLD, |a| {
            cold::run(a, SMOKE_ROWS, false)
        });
    }

    #[test]
    fn smoke_county_served_4k() {
        smoke("county-served-4k", &REPORT_SERVED, |a| {
            served::run(a, SMOKE_ROWS)
        });
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload county-served-4k --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("county-served-4k", 7, 12.0, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload county-cold-4k --trace 2")).is_err());
        assert!(parse_args(&argv("--workload county-cold-4k --bogus 1")).is_err());
    }
}
