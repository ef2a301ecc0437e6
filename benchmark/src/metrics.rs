//! Metric names, units and the result line.
//!
//! Every workload reports the same two contract sets — [`END_TO_END`]
//! with `--trace 0`, [`PER_LAYER`] with `--trace 1` — so that
//! `BENCHMARK.json` can list one set for all of them. A layer a workload
//! does not exercise reports 0 (a count of work not done). Metrics that
//! only some workloads have (`cold_query_s.*`, `served_*`, `top_ari`, …)
//! are printed as report lines above the result line.

use std::fmt::Write as _;

/// End-to-end metrics, gated by `BENCHMARK.json`. `query_ms.p50` is the
/// median latency of the workload's primary op: `Session::open` + `run`
/// on the cold workloads, the warm served `query` on the ladder rungs up
/// to 100 req/s on the served one.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("query_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced pass).
pub const PER_LAYER: [(&str, &str); 59] = [
    ("relation.read_csv_ms", "ms"),
    ("relation.align_ms", "ms"),
    ("relation.csv_bytes", "B"),
    ("session.open_ms", "ms"),
    ("session.plane_bytes", "B"),
    ("session.warm_run_ms", "ms"),
    ("assistant.analyze_ms", "ms"),
    ("numerics.global_fit_ms", "ms"),
    ("numerics.global_fits", "count"),
    ("cluster.cluster_ms", "ms"),
    ("cluster.calls", "count"),
    ("cluster.points", "count"),
    ("labeling.categorical_ms", "ms"),
    ("labeling.categorical_calls", "count"),
    ("partition.induce_ms", "ms"),
    ("partition.induce_calls", "count"),
    ("partition.induce_distinct", "count"),
    ("partition.leaves", "count"),
    ("fit_snap_score.remainder_ms", "ms"),
    ("search.candidates", "count"),
    ("search.evaluate_ms", "ms"),
    ("search.rank_dedup_ms", "ms"),
    ("search.threads_used", "count"),
    ("search.fits_computed", "count"),
    ("search.labelings_computed", "count"),
    ("search.candidates_computed", "count"),
    ("search.fit_memo_useful_frac", "ratio"),
    ("search.label_memo_useful_frac", "ratio"),
    ("search.render_mismatch", "count"),
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
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
    ("trace.query_ms.p50", "ms"),
    ("default.candidates", "count"),
    ("default.assistant_ms", "ms"),
    ("default.evaluate_ms", "ms"),
    ("default.global_fit_ms", "ms"),
    ("default.cluster_ms", "ms"),
    ("default.induce_ms", "ms"),
    ("default.remainder_ms", "ms"),
    ("default.coverage", "ratio"),
    ("default.labelings", "count"),
];

/// The outcome of one run: counts, checks and every measured metric.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every check passed (fingerprints, work counters, statuses).
    pub correct: bool,
    /// Ops attempted in the measured window.
    pub attempted: u64,
    /// Ops that failed (mismatch, non-2xx, never sent).
    pub failed: u64,
    metrics: Vec<(String, Option<f64>, String)>,
    notes: Vec<String>,
}

impl Outcome {
    /// An outcome with no ops yet, correct until a check fails.
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Record (or overwrite) a metric; `None` prints as `n/a`.
    pub fn set_opt(&mut self, name: &str, unit: &str, value: Option<f64>) {
        match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_string(), value, unit.to_string()),
            None => self
                .metrics
                .push((name.to_string(), value, unit.to_string())),
        }
    }

    /// Record (or overwrite) a metric.
    pub fn set(&mut self, name: &str, unit: &str, value: f64) {
        self.set_opt(name, unit, Some(value));
    }

    /// A recorded metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .and_then(|(_, v, _)| *v)
    }

    /// Whether a metric was recorded (possibly as `n/a`).
    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|(n, _, _)| n == name)
    }

    /// Add a free-text line to the report (context for a reader).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Mark the run incorrect and say why.
    pub fn fail_check(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.note(format!("CHECK FAILED: {}", why.into()));
    }

    /// Report lines, then the result line with the contract set of the
    /// pass. Fails when a contract metric is missing or not finite.
    pub fn render(&self, trace: bool) -> Result<String, String> {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for (name, value, unit) in &self.metrics {
            match value {
                Some(v) => {
                    let _ = writeln!(out, "metric {name} = {v} {unit}");
                }
                None => {
                    let _ = writeln!(out, "metric {name} = n/a {unit}");
                }
            }
        }
        let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(set.len());
        for &(name, unit) in set {
            let value = self
                .get(name)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            fields.push(format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            ));
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        Ok(out)
    }
}

fn json_str(s: &str) -> String {
    charles_server::Json::str(s).encode()
}

/// Peak resident set of this process in MB (`VmHWM`), Linux only.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Milliseconds of a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_server::Json;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut reports: Vec<(&str, &str)> = crate::tests::REPORT_COLD
            .iter()
            .chain(crate::tests::REPORT_SERVED.iter())
            .copied()
            .collect();
        reports.sort_unstable();
        reports.dedup();
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .chain(reports.iter())
            .map(|(n, _)| *n)
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            all.len(),
            "duplicate metric name (or one unit per name)"
        );
        for name in all {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_is_the_contract_set_and_last() {
        let mut o = Outcome::new();
        o.attempted = 3;
        for (name, unit) in END_TO_END {
            o.set(name, unit, 1.25);
        }
        o.set("top_ari", "ratio", 1.0);
        let text = o.render(false).unwrap();
        let last = Json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(last.get("attempted").and_then(Json::as_usize), Some(3));
        let metrics = last.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(1.25)
        );
        assert!(metrics.get("top_ari").is_none());
        assert!(text.contains("metric top_ari = 1 ratio"));
        // A missing contract metric is an error, not a silent omission.
        assert!(o.render(true).is_err());
    }
}
