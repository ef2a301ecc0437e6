//! Workload inputs: county payroll pairs made from the seed, written to
//! CSV text and read back the way a user's files would be.

use crate::metrics::ms;
use crate::stats::median;
use charles_core::{Query, TruthRule};
use charles_relation::{read_csv, write_csv, SnapshotPair, Table};
use std::time::Instant;

/// The attribute the county policy changes.
pub const TARGET: &str = "base_salary";
/// The shortlisted condition attributes (the paper's demo flow, step 5).
pub const CONDITION_ATTRS: [&str; 3] = ["department", "grade", "division"];
/// The shortlisted transformation attributes.
pub const TRANSFORM_ATTRS: [&str; 2] = ["base_salary", "overtime_pay"];

/// Timed ingests of a run's pair before its measured window.
pub const SETUP_REPEATS: usize = 5;

/// The shortlisted query every timed op asks.
pub fn shortlisted_query() -> Query {
    Query::new(TARGET)
        .with_condition_attrs(CONDITION_ATTRS)
        .with_transform_attrs(TRANSFORM_ATTRS)
}

/// One prepared county pair.
pub struct Prepared {
    /// The aligned pair, read back from CSV.
    pub pair: SnapshotPair,
    /// The earlier snapshot as CSV text.
    pub source_csv: String,
    /// The later snapshot as CSV text.
    pub target_csv: String,
    /// The latent policy, as truth rules for `evaluate_recovery`.
    pub truth: Vec<TruthRule>,
}

impl Prepared {
    /// Bytes of CSV text in the pair.
    pub fn csv_bytes(&self) -> usize {
        self.source_csv.len() + self.target_csv.len()
    }
}

/// Wall times of the timed ingests of one pair: parse both CSV texts and
/// align them on `name`, as a user's upload does.
#[derive(Debug, Default)]
pub struct IngestTimes {
    read_ms: Vec<f64>,
    align_ms: Vec<f64>,
    total_ms: Vec<f64>,
}

impl IngestTimes {
    /// Ingest `prepared`'s CSV text once more, timed, and drop the pair.
    pub fn sample(&mut self, prepared: &Prepared) -> Result<(), String> {
        ingest(&prepared.source_csv, &prepared.target_csv, self).map(drop)
    }

    /// Median ingest time in seconds: the workload's `setup_s`.
    pub fn setup_s(&self) -> Option<f64> {
        median(&self.total_ms).map(|m| m / 1e3)
    }

    /// Every ingest's wall time, in order.
    pub fn total_ms(&self) -> &[f64] {
        &self.total_ms
    }

    /// Median time of parsing both CSV texts.
    pub fn read_csv_ms(&self) -> Option<f64> {
        median(&self.read_ms)
    }

    /// Median time of aligning the pair.
    pub fn align_ms(&self) -> Option<f64> {
        median(&self.align_ms)
    }
}

fn ingest(
    source_csv: &str,
    target_csv: &str,
    times: &mut IngestTimes,
) -> Result<SnapshotPair, String> {
    let parse = Instant::now();
    let source = read_csv(source_csv.as_bytes()).map_err(|e| format!("read source CSV: {e}"))?;
    let target = read_csv(target_csv.as_bytes()).map_err(|e| format!("read target CSV: {e}"))?;
    let align = Instant::now();
    let pair = SnapshotPair::align_on(source, target, "name").map_err(|e| format!("align: {e}"))?;
    let done = Instant::now();
    times.read_ms.push(ms(align - parse));
    times.align_ms.push(ms(done - align));
    times.total_ms.push(ms(done - parse));
    Ok(pair)
}

/// Generate the county pair for `seed` and write both snapshots to CSV
/// text, untimed; then ingest the text `repeats` times, timed, keeping
/// the last pair.
pub fn prepare(rows: usize, seed: u64, repeats: usize) -> Result<(Prepared, IngestTimes), String> {
    let scenario = charles_synth::county(rows, seed);
    let source_csv = to_csv(&scenario.source)?;
    let target_csv = to_csv(&scenario.target)?;
    let mut times = IngestTimes::default();
    let mut pair = ingest(&source_csv, &target_csv, &mut times)?;
    for _ in 1..repeats {
        pair = ingest(&source_csv, &target_csv, &mut times)?;
    }
    let truth = scenario
        .policy
        .rule_pairs()
        .into_iter()
        .map(|(condition, expr)| TruthRule { condition, expr })
        .collect();
    let prepared = Prepared {
        pair,
        source_csv,
        target_csv,
        truth,
    };
    Ok((prepared, times))
}

fn to_csv(table: &Table) -> Result<String, String> {
    let mut bytes = Vec::new();
    write_csv(table, &mut bytes).map_err(|e| format!("write CSV: {e}"))?;
    String::from_utf8(bytes).map_err(|e| format!("CSV is not UTF-8: {e}"))
}
