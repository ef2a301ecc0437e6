//! Single-threaded layer attribution of one query.
//!
//! The replay answers the query once through a one-thread `Session` (the
//! pipeline's own run, whose `SessionStats` give the exact work counts),
//! then walks the same candidates through the public layer functions with
//! the inputs the search gives them:
//!
//! - `evaluate_candidate` per candidate — the parent span;
//! - `fit_ols_cols` once per distinct transformation subset `T`;
//! - `cluster_residuals` once per distinct (signal, k) over the residual,
//!   delta and relative-delta signals, and the categorical GROUP-BY
//!   labeling once per single categorical condition attribute;
//! - `induce_partitions` per candidate and distinct labeling, as the
//!   search calls it.
//!
//! With `per_candidate` off (the default query, 606 candidates), the
//! candidates are not evaluated a second time: the one-thread
//! `Session::run` is the parent and `search.evaluate_ms` is its time.
//!
//! The children run after their parent, on the same inputs, and are
//! timed one by one; what the parent spent beyond them is partition
//! fitting, snapping and scoring. The replay's call counts must equal the
//! pipeline's `SessionStats` deltas, so the replay cannot drift from the
//! pipeline unnoticed.

use crate::fingerprint::{Ranking, Verdict};
use crate::metrics::ms;
use crate::trace::Tracer;
use charles_core::partition::{cluster_residuals, induce_partitions};
use charles_core::{
    evaluate_candidate, generate_candidates, run_search, CharlesConfig, Query, SearchContext,
    Session, SessionStats,
};
use charles_numerics::ols::fit_ols_cols;
use charles_relation::{AttrRef, SnapshotPair, Table};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// The per-layer split of one query, single-threaded.
#[derive(Debug, Clone)]
pub struct Split {
    /// Median `Session::open` time.
    pub open_ms: f64,
    /// The setup assistant (`Session::setup`).
    pub assistant_ms: f64,
    /// The one-thread session run, end to end.
    pub session_run_ms: f64,
    /// Resident bytes of the session after the run.
    pub plane_bytes: usize,
    /// Work counters of the one-thread run.
    pub stats: SessionStats,
    /// Its ranking.
    pub ranking: Ranking,
    /// Candidates enumerated.
    pub candidates: usize,
    /// Σ `evaluate_candidate`.
    pub evaluate_ms: f64,
    /// Distinct global fits replayed, and their time.
    pub fits: usize,
    pub fit_ms: f64,
    /// Clusterings replayed, their points and time.
    pub cluster_calls: usize,
    pub cluster_points: usize,
    pub cluster_ms: f64,
    /// Categorical labelings replayed and their time.
    pub categorical_calls: usize,
    pub categorical_ms: f64,
    /// Tree inductions replayed (as the search calls them), how many
    /// distinct (C, labeling) inputs they had, leaves produced, time.
    pub induce_calls: usize,
    pub induce_distinct: usize,
    pub leaves: usize,
    pub induce_ms: f64,
    /// `run_search` over the warm memo: dedup + rank (+ memo lookups).
    pub rank_dedup_ms: f64,
}

impl Split {
    /// Time of every replayed child.
    pub fn children_ms(&self) -> f64 {
        self.fit_ms + self.cluster_ms + self.categorical_ms + self.induce_ms
    }

    /// Evaluate time the children do not cover: partition fit, snap, score.
    pub fn remainder_ms(&self) -> f64 {
        self.evaluate_ms - self.children_ms()
    }

    /// Replayed children over `search.evaluate_ms`.
    pub fn coverage(&self) -> f64 {
        self.children_ms() / self.evaluate_ms
    }

    /// Labelings replayed (clusterings + categorical groupings).
    pub fn labelings(&self) -> usize {
        self.cluster_calls + self.categorical_calls
    }

    /// `Some(reason)` when the replay's call counts differ from the
    /// pipeline's `SessionStats`.
    pub fn counter_mismatch(&self) -> Option<String> {
        let pairs = [
            ("global fits", self.fits, self.stats.global_fits_computed),
            ("labelings", self.labelings(), self.stats.labelings_computed),
            (
                "candidates",
                self.candidates,
                self.stats.candidates_computed,
            ),
        ];
        let bad: Vec<String> = pairs
            .iter()
            .filter(|(_, replay, pipeline)| replay != pipeline)
            .map(|(what, replay, pipeline)| format!("{what}: replay {replay}, pipeline {pipeline}"))
            .collect();
        (!bad.is_empty()).then(|| bad.join("; "))
    }
}

/// Which change signal a labeling clusters (mirrors the search's memo key).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Signal {
    Residual(Vec<String>),
    Delta,
    RelDelta,
}

/// Replay `query` on `pair` single-threaded; spans go to `tracer` under
/// op id `op`.
pub fn replay(
    pair: &SnapshotPair,
    query: &Query,
    per_candidate: bool,
    tracer: &Tracer,
    op: u64,
) -> Result<Split, String> {
    let config = CharlesConfig {
        threads: 1,
        ..CharlesConfig::default()
    };
    fn err(what: &'static str) -> impl Fn(charles_core::CharlesError) -> String {
        move |e| format!("{what}: {e}")
    }

    let mut opens = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let session = Session::open_with_config(pair.clone(), config.clone());
        opens.push(ms(started.elapsed()));
        drop(session);
    }
    let session = Session::open_with_config(pair.clone(), config.clone()).map_err(err("open"))?;

    let started = Instant::now();
    let (setup, _) = tracer.span("Session::setup", op, None, || session.setup(&query.target));
    let setup = setup.map_err(err("assistant"))?;
    let assistant_ms = ms(started.elapsed());

    let started = Instant::now();
    let (result, run_span) = tracer.span("Session::run", op, None, || session.run(query));
    let result = result.map_err(err("one-thread run"))?;
    let session_run_ms = ms(started.elapsed());
    let stats = session.stats();
    let ranking = Ranking::of_summaries(&result.summaries);

    let cond_names = query
        .condition_attrs
        .clone()
        .unwrap_or_else(|| setup.condition_attrs());
    let tran_names = query
        .transform_attrs
        .clone()
        .unwrap_or_else(|| setup.transform_attrs());
    let schema = pair.source().schema();
    let refs = |names: &[String]| -> Result<Vec<AttrRef>, String> {
        names
            .iter()
            .map(|n| {
                schema
                    .attr_ref(n)
                    .map_err(|e| format!("attribute {n}: {e}"))
            })
            .collect()
    };
    let (cond_refs, tran_refs) = (refs(&cond_names)?, refs(&tran_names)?);
    let ctx = SearchContext::new(pair, &query.target, &tran_names, &config)
        .map_err(err("search context"))?;
    let candidates = generate_candidates(&cond_refs, &tran_refs, &config);
    // The candidate-independent change signals, as the search derives them.
    let delta: Vec<f64> = ctx
        .y_target
        .iter()
        .zip(ctx.y_source.iter())
        .map(|(t, s)| t - s)
        .collect();
    let rel_delta: Vec<f64> = ctx
        .y_target
        .iter()
        .zip(ctx.y_source.iter())
        .map(|(t, s)| (t - s) / s.abs().max(1.0))
        .collect();

    let mut split = Split {
        open_ms: crate::stats::median(&opens).unwrap_or(0.0),
        assistant_ms,
        session_run_ms,
        plane_bytes: session.approx_plane_bytes(),
        stats,
        ranking,
        candidates: candidates.len(),
        evaluate_ms: 0.0,
        fits: 0,
        fit_ms: 0.0,
        cluster_calls: 0,
        cluster_points: 0,
        cluster_ms: 0.0,
        categorical_calls: 0,
        categorical_ms: 0.0,
        induce_calls: 0,
        induce_distinct: 0,
        leaves: 0,
        induce_ms: 0.0,
        rank_dedup_ms: 0.0,
    };
    let mut residuals: HashMap<Vec<String>, Option<Vec<f64>>> = HashMap::new();
    let mut labelings: HashMap<(Signal, usize), Vec<usize>> = HashMap::new();
    let mut categorical: HashMap<String, Option<Vec<usize>>> = HashMap::new();
    let mut induced: HashSet<(Vec<String>, u64)> = HashSet::new();
    let timed = |name: &'static str, parent, total: &mut f64, f: &mut dyn FnMut()| {
        let started = Instant::now();
        f();
        let ended = Instant::now();
        *total += ms(ended - started);
        tracer.record(name, op, parent, started, ended);
    };

    if !per_candidate {
        split.evaluate_ms = session_run_ms;
    }
    for candidate in &candidates {
        let parent = if per_candidate {
            let started = Instant::now();
            let evaluated = std::hint::black_box(evaluate_candidate(&ctx, candidate));
            let ended = Instant::now();
            evaluated.map_err(err("evaluate_candidate"))?;
            split.evaluate_ms += ms(ended - started);
            tracer.record("evaluate_candidate", op, None, started, ended)
        } else {
            run_span
        };

        let t_key: Vec<String> = candidate
            .tran_attrs
            .iter()
            .map(|a| a.name().to_string())
            .collect();
        if !residuals.contains_key(&t_key) {
            let cols: Vec<&[f64]> = candidate
                .tran_attrs
                .iter()
                .map(|a| {
                    a.id()
                        .and_then(|id| ctx.views.get(&id))
                        .map(|v| v.as_slice())
                        .ok_or(format!("no view for {}", a.name()))
                })
                .collect::<Result<_, _>>()?;
            let mut fit = None;
            timed("fit_ols_cols", parent, &mut split.fit_ms, &mut || {
                fit = Some(fit_ols_cols(&cols, &ctx.y_target));
            });
            split.fits += 1;
            let fit = fit.expect("fit ran");
            residuals.insert(t_key.clone(), fit.ok().map(|f| f.residuals));
        }
        let Some(resid) = residuals[&t_key].clone() else {
            continue; // infeasible global fit: the search stops here too
        };

        let k = candidate.k;
        let signals: [(Signal, &[f64]); 3] = [
            (Signal::Residual(t_key.clone()), &resid),
            (Signal::Delta, &delta),
            (Signal::RelDelta, &rel_delta),
        ];
        let mut mine: Vec<Vec<usize>> = Vec::with_capacity(4);
        for (signal, values) in signals {
            let key = (signal, k);
            if !labelings.contains_key(&key) {
                let mut labels = Ok(Vec::new());
                timed(
                    "cluster_residuals",
                    parent,
                    &mut split.cluster_ms,
                    &mut || {
                        labels = cluster_residuals(values, k, &config);
                    },
                );
                split.cluster_calls += 1;
                split.cluster_points += values.len();
                labelings.insert(key.clone(), labels.map_err(err("cluster_residuals"))?);
            }
            mine.push(labelings[&key].clone());
        }
        if let [attr] = candidate.cond_attrs.as_slice() {
            if !categorical.contains_key(attr.name()) {
                let mut labels = None;
                timed(
                    "categorical_labels",
                    parent,
                    &mut split.categorical_ms,
                    &mut || {
                        labels = categorical_labels(pair.source(), attr);
                    },
                );
                split.categorical_calls += 1;
                categorical.insert(attr.name().to_string(), labels);
            }
            if let Some(labels) = &categorical[attr.name()] {
                mine.push(labels.clone());
            }
        }

        let c_key: Vec<String> = candidate
            .cond_attrs
            .iter()
            .map(|a| a.name().to_string())
            .collect();
        let mut seen: Vec<&Vec<usize>> = Vec::new();
        for labels in &mine {
            if seen.contains(&labels) {
                continue; // identical labeling ⇒ the search skips it too
            }
            seen.push(labels);
            let mut specs = Ok(Vec::new());
            timed(
                "induce_partitions",
                parent,
                &mut split.induce_ms,
                &mut || {
                    specs =
                        induce_partitions(pair.source(), &candidate.cond_attrs, labels, &config);
                },
            );
            split.induce_calls += 1;
            split.leaves += specs.map_err(err("induce_partitions"))?.len();
            let mut h = DefaultHasher::new();
            labels.hash(&mut h);
            induced.insert((c_key.clone(), h.finish()));
        }
    }
    split.induce_distinct = induced.len();
    if !per_candidate {
        return Ok(split);
    }

    let started = Instant::now();
    let (ranked, _) = tracer.span("run_search", op, None, || run_search(&ctx, &candidates));
    let (summaries, _) = ranked.map_err(err("run_search"))?;
    split.rank_dedup_ms = ms(started.elapsed());
    if Ranking::of_summaries(&summaries).verdict(&split.ranking) == Verdict::Different {
        return Err("the replayed search ranked differently from the one-thread session".into());
    }
    Ok(split)
}

/// GROUP-BY-value labels of one categorical condition attribute, as the
/// search builds them: `None` for numeric or null-containing columns and
/// outside 2..=24 groups.
fn categorical_labels(table: &Table, attr: &AttrRef) -> Option<Vec<usize>> {
    let col = table.column_by_name(attr.name()).ok()?;
    if col.dtype().is_numeric() || col.null_count() > 0 {
        return None;
    }
    let groups = col.group_codes()?;
    (2..=24)
        .contains(&groups.n_groups())
        .then_some(groups.labels)
}
