//! Partition discovery: from regression residuals to *expressible*
//! partitions.
//!
//! The paper's engine fits one global regression for the target attribute
//! over the transformation attributes, then clusters rows **by distance
//! from the regression line**. The clusters are only *potential* partitions
//! though: a cluster is useful to a human only if it can be described by
//! conditions over the condition attributes. This module closes that gap —
//! and with it the paper's "cyclic dependency" between clustering and
//! pattern sharing — by inducing a shallow CART-style decision tree over
//! the condition attributes that predicts the cluster labels, then
//! re-partitioning rows by the induced predicates. The result is a set of
//! disjoint, covering, *expressible* partitions: whatever the clusters
//! suggested that conditions cannot express is washed out, and whatever
//! they suggested that conditions can express becomes exact.

use crate::condition::{Condition, Descriptor};
use crate::config::{CharlesConfig, PartitionMethod};
use crate::error::Result;
use charles_cluster::{dbscan, kmeans_1d};
use charles_numerics::normality::{roundness, snap_candidates};
use charles_numerics::stats::{mad, median};
use charles_relation::{AttrRef, Column, Table, Value};
use std::collections::BTreeMap;

/// A discovered partition: an expressible condition plus the rows that
/// satisfy it.
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    /// The condition describing this partition.
    pub condition: Condition,
    /// Source row ids matching the condition (disjoint across specs).
    pub rows: Vec<usize>,
}

/// Distance (in MADs from the median) beyond which a residual is treated
/// as an out-of-policy outlier and excluded from clustering. Keeps a
/// handful of hand-edited cells from hijacking k-means clusters (k-means
/// is notoriously outlier-sensitive).
const OUTLIER_MADS: f64 = 8.0;

/// Label marking rows whose change is out-of-policy noise. Condition
/// induction *ignores* these rows when computing impurity: noise is not
/// structure to describe, and trying to describe it is how trees overfit.
/// The rows still land in whichever partition their attribute values
/// select, where the trimmed per-partition refit absorbs them.
pub const OUTLIER_LABEL: usize = usize::MAX;

/// Split rows into (inlier indices, outlier indices) by MAD distance.
fn trim_outliers(values: &[f64]) -> (Vec<usize>, Vec<usize>) {
    let med = median(values).unwrap_or(0.0);
    let spread = mad(values).unwrap_or(0.0);
    if spread <= 0.0 {
        return ((0..values.len()).collect(), Vec::new());
    }
    let cutoff = OUTLIER_MADS * spread;
    let mut inliers = Vec::with_capacity(values.len());
    let mut outliers = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        if (v - med).abs() > cutoff {
            outliers.push(i);
        } else {
            inliers.push(i);
        }
    }
    // Guard: if "outliers" are actually a substantial population (≥ 10%),
    // they are structure, not noise — keep everything.
    if outliers.len() * 10 >= values.len() {
        return ((0..values.len()).collect(), Vec::new());
    }
    (inliers, outliers)
}

/// Cluster residuals into `k` groups using the configured method.
/// Returns one label per row (labels are dense, 0-based). Out-of-policy
/// outliers (beyond [`OUTLIER_MADS`]) are assigned a dedicated trailing
/// label rather than participating in clustering.
pub fn cluster_residuals(
    residuals: &[f64],
    k: usize,
    config: &CharlesConfig,
) -> Result<Vec<usize>> {
    if k <= 1 || residuals.len() <= 1 {
        return Ok(vec![0; residuals.len()]);
    }
    let (inliers, outliers) = match config.partition_method {
        PartitionMethod::ResidualDbscan => ((0..residuals.len()).collect(), Vec::new()),
        _ => trim_outliers(residuals),
    };
    if !outliers.is_empty() {
        let inlier_vals: Vec<f64> = inliers.iter().map(|&i| residuals[i]).collect();
        let sub = cluster_residuals(&inlier_vals, k, config)?;
        let mut labels = vec![0usize; residuals.len()];
        for (slot, &row) in inliers.iter().enumerate() {
            labels[row] = sub[slot];
        }
        for &row in &outliers {
            labels[row] = OUTLIER_LABEL;
        }
        return Ok(labels);
    }
    let k = k.min(residuals.len());
    match config.partition_method {
        PartitionMethod::ResidualKMeans => Ok(kmeans_1d(residuals, k)?.assignments),
        PartitionMethod::ResidualQuantile => {
            let mut sorted = residuals.to_vec();
            sorted.sort_by(|a, b| a.total_cmp(b));
            // Boundaries at the i/k quantiles.
            let bounds: Vec<f64> = (1..k).map(|i| sorted[(i * sorted.len()) / k]).collect();
            Ok(residuals
                .iter()
                .map(|&r| bounds.iter().take_while(|&&b| r >= b).count())
                .collect())
        }
        PartitionMethod::ResidualDbscan => {
            let spread = mad(residuals).unwrap_or(0.0);
            let med = median(residuals).unwrap_or(0.0);
            let eps = (spread * 1.5).max(med.abs() * 1e-6).max(1e-9);
            let min_points = (residuals.len() / 50).max(2);
            let points: Vec<Vec<f64>> = residuals.iter().map(|&r| vec![r]).collect();
            let res = dbscan(&points, eps, min_points)?;
            // Noise points become their own trailing label so the tree can
            // still try to describe them.
            let noise_label = res.n_clusters;
            Ok(res
                .labels
                .iter()
                .map(|&l| if l < 0 { noise_label } else { l as usize })
                .collect())
        }
    }
}

// ---------------------------------------------------------------------------
// Decision-tree induction over condition attributes
// ---------------------------------------------------------------------------
//
// Split search scores every candidate split from label counts alone and
// builds row vectors only for the winner. Per node and condition
// attribute it makes one counting pass over the node's rows — a label
// histogram per dictionary code (or per value), or one sort plus one
// sweep with running label counts for a numeric attribute — and then
// scores each candidate split from its histogram and the parent's. The
// cost per node is O(rows × attrs) for the count pass (O(rows · log rows)
// for the sort of a numeric attribute) plus O(thresholds × labels) for
// scoring, where a categorical attribute offers at most
// `MAX_CATEGORIES` splits and a numeric one at most `MAX_THRESHOLDS`.

/// Numeric split thresholds evaluated per attribute per node: larger nodes
/// evaluate every `⌈boundaries / MAX_THRESHOLDS⌉`-th boundary.
const MAX_THRESHOLDS: usize = 32;

/// Categorical attributes with more distinct values (the null group
/// included) at a node offer no split there.
const MAX_CATEGORIES: usize = 24;

/// Gini impurity of a label histogram whose counts sum to `labelled`.
fn gini_of(counts: impl Iterator<Item = usize>, labelled: usize) -> f64 {
    if labelled == 0 {
        return 0.0;
    }
    1.0 - counts
        .map(|c| {
            let p = c as f64 / labelled as f64;
            p * p
        })
        // lint:allow(float-fold-order: Gini over a handful of label counts, fixed slice order)
        .sum::<f64>()
}

/// Whether all (non-outlier) rows share one label.
fn is_pure(labels: &[usize], rows: &[usize]) -> bool {
    let mut first: Option<usize> = None;
    for &r in rows {
        let l = labels[r];
        if l == OUTLIER_LABEL {
            continue;
        }
        match first {
            None => first = Some(l),
            Some(f) if f != l => return false,
            _ => {}
        }
    }
    true
}

/// The label histogram of a row set. Rows labelled [`OUTLIER_LABEL`]
/// count toward `rows` — and so toward `min_leaf` — but are invisible to
/// the impurity.
struct Tally {
    /// All rows, outliers included.
    rows: usize,
    /// Rows per label.
    counts: Vec<usize>,
}

impl Tally {
    fn new(n_labels: usize) -> Tally {
        Tally {
            rows: 0,
            counts: vec![0; n_labels],
        }
    }

    fn add(&mut self, label: usize) {
        self.rows += 1;
        if label != OUTLIER_LABEL {
            self.counts[label] += 1;
        }
    }
}

/// A node's tally with its impurity, against which splits are scored.
struct Node {
    tally: Tally,
    /// Rows carrying a (non-outlier) label: the sum of the counts.
    labelled: usize,
    gini: f64,
}

impl Node {
    fn new(labels: &[usize], rows: &[usize], n_labels: usize) -> Node {
        let mut tally = Tally::new(n_labels);
        for &r in rows {
            tally.add(labels[r]);
        }
        let labelled = tally.counts.iter().sum();
        Node {
            gini: gini_of(tally.counts.iter().copied(), labelled),
            tally,
            labelled,
        }
    }

    /// Impurity decrease of sending the rows tallied in `yes` one way and
    /// the rest of the node the other, or `None` when either side has
    /// fewer than `min_leaf` rows.
    fn gain(&self, yes: &Tally, min_leaf: usize) -> Option<f64> {
        let no_rows = self.tally.rows - yes.rows;
        if yes.rows < min_leaf || no_rows < min_leaf {
            return None;
        }
        let yes_labelled: usize = yes.counts.iter().sum();
        let no = self
            .tally
            .counts
            .iter()
            .zip(&yes.counts)
            .map(|(all, y)| all - y);
        let n = self.tally.rows as f64;
        let child = (yes.rows as f64 / n) * gini_of(yes.counts.iter().copied(), yes_labelled)
            + (no_rows as f64 / n) * gini_of(no, self.labelled - yes_labelled);
        Some(self.gini - child)
    }
}

/// Which rows of a node a scored split sends to its `yes` side.
enum Route {
    /// Rows with this dictionary code.
    Code(u32),
    /// Rows with this value (non-dictionary columns).
    Value(Value),
    /// Rows with a value below this threshold.
    Below(f64),
}

/// The best split one attribute offers at a node.
struct Scored {
    descriptor: Descriptor,
    route: Route,
    gain: f64,
}

/// A chosen binary split with its rows.
struct Split {
    descriptor: Descriptor,
    yes: Vec<usize>,
    no: Vec<usize>,
}

/// Pick the roundest threshold `t` such that `x < t` partitions identically
/// for every `t ∈ (below, above]`, where `below` is the largest value going
/// left and `above` the smallest going right.
fn nice_threshold(below: f64, above: f64) -> f64 {
    let mid = (below + above) / 2.0;
    let mut best = above; // `x < above` is always a valid boundary
    let mut best_r = roundness(above);
    for cand in snap_candidates(mid) {
        if cand > below && cand <= above {
            let r = roundness(cand);
            if r > best_r || (r == best_r && (cand - mid).abs() < (best - mid).abs()) {
                best = cand;
                best_r = r;
            }
        }
    }
    best
}

/// Keep `candidate` if it is the first with the strictly greatest gain
/// above the noise floor.
fn offer(best: &mut Option<Scored>, gain: f64, candidate: impl FnOnce() -> (Descriptor, Route)) {
    if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.gain) {
        let (descriptor, route) = candidate();
        *best = Some(Scored {
            descriptor,
            route,
            gain,
        });
    }
}

/// One distinct value of a categorical column at a node, with the
/// tally of its rows.
struct Group {
    value: Value,
    code: Option<u32>,
    tally: Tally,
}

/// The distinct values of a categorical column over a node's rows, in
/// first-appearance order; the null group, when present, carries
/// `Value::Null`. Dictionary-encoded columns count by code with no string
/// hashing; non-dictionary categoricals (booleans) group by `Value` in a
/// `BTreeMap`. `None` when there are more than [`MAX_CATEGORIES`] groups.
fn categorical_groups(
    col: &Column,
    labels: &[usize],
    rows: &[usize],
    n_labels: usize,
) -> Option<Vec<Group>> {
    let Some(view) = col.codes_view() else {
        let mut by_value: BTreeMap<Value, Tally> = BTreeMap::new();
        for &r in rows {
            by_value
                .entry(col.get(r))
                .or_insert_with(|| Tally::new(n_labels))
                .add(labels[r]);
        }
        if by_value.len() > MAX_CATEGORIES {
            return None;
        }
        let group = |(value, tally)| Group {
            value,
            code: None,
            tally,
        };
        return Some(by_value.into_iter().map(group).collect());
    };
    const UNSEEN: usize = usize::MAX;
    let mut slot_of_code = vec![UNSEEN; view.dict_len()];
    let mut null_slot = UNSEEN;
    let mut groups: Vec<Group> = Vec::new();
    for &r in rows {
        let code = view.code(r);
        let slot = match code {
            Some(c) => &mut slot_of_code[c as usize],
            None => &mut null_slot,
        };
        if *slot == UNSEEN {
            if groups.len() == MAX_CATEGORIES {
                return None;
            }
            *slot = groups.len();
            groups.push(Group {
                value: col.get(r),
                code,
                tally: Tally::new(n_labels),
            });
        }
        groups[*slot].tally.add(labels[r]);
    }
    Some(groups)
}

/// The best one-vs-rest `Equals` split on a categorical attribute,
/// scanning the distinct values in `Value` order. An attribute with a null
/// at the node offers no split: the null rows would go to the `≠ v` side,
/// which the re-verified condition `attr ≠ v` does not match.
fn best_equals_split(
    attr: &AttrRef,
    col: &Column,
    labels: &[usize],
    rows: &[usize],
    node: &Node,
    min_leaf: usize,
) -> Option<Scored> {
    let groups = categorical_groups(col, labels, rows, node.tally.counts.len())?;
    if groups.len() < 2 || groups.iter().any(|g| g.value.is_null()) {
        return None;
    }
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by(|&a, &b| groups[a].value.cmp(&groups[b].value));
    let mut best = None;
    for g in order {
        let group = &groups[g];
        let Some(gain) = node.gain(&group.tally, min_leaf) else {
            continue;
        };
        offer(&mut best, gain, || {
            let descriptor = Descriptor::Equals {
                attr: attr.clone(),
                value: group.value.clone(),
            };
            let route = match group.code {
                Some(code) => Route::Code(code),
                None => Route::Value(group.value.clone()),
            };
            (descriptor, route)
        });
    }
    best
}

/// The best `LessThan` split on a numeric attribute, over every
/// `MAX_THRESHOLDS`-stepped boundary between adjacent distinct values.
/// An attribute with a null at the node offers no split.
fn best_threshold_split(
    attr: &AttrRef,
    col: &Column,
    labels: &[usize],
    rows: &[usize],
    node: &Node,
    min_leaf: usize,
) -> Option<Scored> {
    let mut vals: Vec<(f64, usize)> = Vec::with_capacity(rows.len());
    for &r in rows {
        vals.push((col.get_f64(r)?, labels[r]));
    }
    vals.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    // `ends[i]` is the length of the sorted prefix left of boundary `i`.
    let ends: Vec<usize> = (1..vals.len())
        .filter(|&i| vals[i - 1].0 < vals[i].0)
        .collect();
    let step = ends.len().div_ceil(MAX_THRESHOLDS).max(1);
    // Every threshold lies in `(below, above]`, so `x < threshold` holds
    // for exactly the non-NaN values of the prefix: a NaN is never below
    // a threshold, and negative NaNs sort first.
    let mut yes = Tally::new(node.tally.counts.len());
    let mut swept = 0;
    let mut best = None;
    for &end in ends.iter().step_by(step) {
        for &(v, l) in &vals[swept..end] {
            if !v.is_nan() {
                yes.add(l);
            }
        }
        swept = end;
        let Some(gain) = node.gain(&yes, min_leaf) else {
            continue;
        };
        offer(&mut best, gain, || {
            let threshold = nice_threshold(vals[end - 1].0, vals[end].0);
            let descriptor = Descriptor::LessThan {
                attr: attr.clone(),
                threshold,
            };
            (descriptor, Route::Below(threshold))
        });
    }
    best
}

/// Resolve a condition attribute to its column: interned ids index
/// directly; unresolved handles fall back to one name lookup.
fn column_of<'t>(table: &'t Table, attr: &AttrRef) -> Option<&'t Column> {
    if let Some(id) = attr.id() {
        if let Ok(field) = table.schema().field(id.index()) {
            if field.name() == attr.name() {
                return Some(table.column_by_id(id));
            }
        }
    }
    table.column_by_name(attr.name()).ok()
}

/// The split with the strictly greatest gain — the first in attribute,
/// then threshold order, among equals — and the column it splits.
fn best_scored<'t>(
    table: &'t Table,
    cond_attrs: &[AttrRef],
    labels: &[usize],
    rows: &[usize],
    n_labels: usize,
    min_leaf: usize,
) -> Option<(Scored, &'t Column)> {
    let node = Node::new(labels, rows, n_labels);
    let mut best: Option<(Scored, &Column)> = None;
    for attr in cond_attrs {
        let Some(col) = column_of(table, attr) else {
            continue;
        };
        let scored = if col.dtype().is_numeric() {
            best_threshold_split(attr, col, labels, rows, &node, min_leaf)
        } else {
            best_equals_split(attr, col, labels, rows, &node, min_leaf)
        };
        if let Some(s) = scored {
            if best.as_ref().is_none_or(|(b, _)| s.gain > b.gain) {
                best = Some((s, col));
            }
        }
    }
    best
}

/// The [`best_scored`] split with the node's rows divided between its
/// sides, in node order.
fn best_split(
    table: &Table,
    cond_attrs: &[AttrRef],
    labels: &[usize],
    rows: &[usize],
    n_labels: usize,
    min_leaf: usize,
) -> Option<Split> {
    let (scored, col) = best_scored(table, cond_attrs, labels, rows, n_labels, min_leaf)?;
    let (yes, no) = match scored.route {
        Route::Code(code) => {
            let view = col.codes_view()?;
            rows.iter().partition(|&&r| view.code(r) == Some(code))
        }
        Route::Value(value) => rows.iter().partition(|&&r| col.get(r) == value),
        Route::Below(threshold) => rows
            .iter()
            .partition(|&&r| col.get_f64(r).is_some_and(|v| v < threshold)),
    };
    Some(Split {
        descriptor: scored.descriptor,
        yes,
        no,
    })
}

/// Remove redundant descriptors from a root-to-leaf path:
/// - an `Equals` on an attribute supersedes any `NotEquals` on it;
/// - multiple `LessThan` keep the tightest (smallest threshold);
/// - multiple `AtLeast` keep the tightest (largest threshold);
/// - an `AtLeast`+`LessThan` pair fuses into `InRange`.
fn simplify_path(path: Vec<Descriptor>) -> Vec<Descriptor> {
    use std::collections::BTreeMap;
    let mut equals: BTreeMap<String, Descriptor> = BTreeMap::new();
    let mut not_equals: Vec<Descriptor> = Vec::new();
    let mut lt: BTreeMap<String, f64> = BTreeMap::new();
    let mut ge: BTreeMap<String, f64> = BTreeMap::new();
    let mut attr_order: Vec<AttrRef> = Vec::new();
    let note_attr = |order: &mut Vec<AttrRef>, attr: &AttrRef| {
        if !order.iter().any(|a| a == attr) {
            order.push(attr.clone());
        }
    };
    for d in path {
        note_attr(&mut attr_order, d.attr_ref());
        let attr = d.attr().to_string();
        match d {
            Descriptor::Equals { .. } => {
                equals.insert(attr, d);
            }
            Descriptor::NotEquals { .. } => not_equals.push(d),
            Descriptor::LessThan { threshold, .. } => {
                lt.entry(attr)
                    .and_modify(|t| *t = t.min(threshold))
                    .or_insert(threshold);
            }
            Descriptor::AtLeast { threshold, .. } => {
                ge.entry(attr)
                    .and_modify(|t| *t = t.max(threshold))
                    .or_insert(threshold);
            }
            other => not_equals.push(other), // OneOf/InRange pass through
        }
    }
    let mut out = Vec::new();
    for attr in attr_order {
        let name = attr.name().to_string();
        if let Some(eq) = equals.remove(&name) {
            out.push(eq);
            // Drop NotEquals on this attribute: implied by equality.
            not_equals.retain(|d| d.attr() != name);
        }
        match (ge.remove(&name), lt.remove(&name)) {
            (Some(lo), Some(hi)) => out.push(Descriptor::InRange {
                attr: attr.clone(),
                lo,
                hi,
            }),
            (Some(lo), None) => out.push(Descriptor::AtLeast {
                attr: attr.clone(),
                threshold: lo,
            }),
            (None, Some(hi)) => out.push(Descriptor::LessThan {
                attr: attr.clone(),
                threshold: hi,
            }),
            (None, None) => {}
        }
        let (matching, rest): (Vec<_>, Vec<_>) =
            not_equals.into_iter().partition(|d| d.attr() == name);
        out.extend(matching);
        not_equals = rest;
    }
    out.extend(not_equals);
    out
}

/// Induce expressible partitions from cluster labels.
///
/// Returns disjoint, covering partitions, each with a condition built from
/// `cond_attrs`. With `cond_attrs` empty (or labels constant), a single
/// universal partition is returned.
pub fn induce_partitions(
    table: &Table,
    cond_attrs: &[AttrRef],
    labels: &[usize],
    config: &CharlesConfig,
) -> Result<Vec<PartitionSpec>> {
    grow_partitions(table, cond_attrs, labels, config, best_split)
}

/// A node's split search: [`best_split`], or the row-based oracle the
/// tests pin it against.
type SplitSearch = fn(&Table, &[AttrRef], &[usize], &[usize], usize, usize) -> Option<Split>;

/// [`induce_partitions`] with the split search as a parameter.
fn grow_partitions(
    table: &Table,
    cond_attrs: &[AttrRef],
    labels: &[usize],
    config: &CharlesConfig,
    split_search: SplitSearch,
) -> Result<Vec<PartitionSpec>> {
    let n = table.height();
    let all_rows: Vec<usize> = (0..n).collect();
    let n_labels = labels
        .iter()
        .copied()
        .filter(|&l| l != OUTLIER_LABEL)
        .max()
        .map_or(1, |m| m + 1);
    if cond_attrs.is_empty() || n_labels <= 1 || n == 0 {
        return Ok(vec![PartitionSpec {
            condition: Condition::all(),
            rows: all_rows,
        }]);
    }
    let min_leaf = ((n as f64 * config.min_partition_fraction).ceil() as usize).max(1);
    let max_depth = config.max_tree_depth.max(1);

    // Recursive growth with an explicit stack.
    struct Work {
        rows: Vec<usize>,
        path: Vec<Descriptor>,
        depth: usize,
    }
    let mut leaves: Vec<(Vec<Descriptor>, Vec<usize>)> = Vec::new();
    let mut stack = vec![Work {
        rows: all_rows,
        path: Vec::new(),
        depth: 0,
    }];
    while let Some(node) = stack.pop() {
        let stop = node.depth >= max_depth
            || node.rows.len() < 2 * min_leaf
            || is_pure(labels, &node.rows);
        let split = if stop {
            None
        } else {
            split_search(table, cond_attrs, labels, &node.rows, n_labels, min_leaf)
        };
        match split {
            Some(s) => {
                let mut yes_path = node.path.clone();
                yes_path.push(s.descriptor.clone());
                let mut no_path = node.path;
                no_path.push(s.descriptor.negate());
                stack.push(Work {
                    rows: s.yes,
                    path: yes_path,
                    depth: node.depth + 1,
                });
                stack.push(Work {
                    rows: s.no,
                    path: no_path,
                    depth: node.depth + 1,
                });
            }
            None => leaves.push((node.path, node.rows)),
        }
    }

    // Build specs; verify conditions by re-evaluating them (the partitions
    // must be *exactly* what the conditions say, not what the tree said).
    let mut specs = Vec::with_capacity(leaves.len());
    for (path, tree_rows) in leaves {
        let condition = Condition::new(simplify_path(path));
        // Re-evaluating keeps conditions and rows consistent even after
        // path simplification.
        let rows = condition.matching_rows(table)?;
        debug_assert_eq!(
            {
                let mut a = rows.clone();
                a.sort_unstable();
                a
            },
            {
                let mut b = tree_rows.clone();
                b.sort_unstable();
                b
            },
            "simplified condition must select the same rows as the tree path"
        );
        specs.push(PartitionSpec { condition, rows });
    }
    // Deterministic order: by first row id.
    specs.sort_by_key(|s| s.rows.first().copied().unwrap_or(usize::MAX));
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_relation::TableBuilder;

    /// Nine employees as in paper Example 1.
    fn emp() -> Table {
        TableBuilder::new("emp")
            .str_col(
                "edu",
                &["PhD", "PhD", "MS", "MS", "BS", "MS", "BS", "MS", "PhD"],
            )
            .int_col("exp", &[2, 3, 5, 1, 2, 4, 3, 4, 1])
            .build()
            .unwrap()
    }

    /// Labels mirroring the paper's four latent groups:
    /// PhD → 0, MS&exp≥3 → 1, MS&exp<3 → 2, BS → 3.
    fn truth_labels() -> Vec<usize> {
        vec![0, 0, 1, 2, 3, 1, 3, 1, 0]
    }

    fn default_config() -> CharlesConfig {
        CharlesConfig {
            min_partition_fraction: 0.01,
            ..CharlesConfig::default()
        }
    }

    #[test]
    fn recovers_example_1_partitions() {
        let table = emp();
        let labels = truth_labels();
        let specs = induce_partitions(
            &table,
            &["edu".into(), "exp".into()],
            &labels,
            &default_config(),
        )
        .unwrap();
        assert_eq!(specs.len(), 4, "{specs:?}");
        // Every spec must be pure w.r.t. the labels.
        for spec in &specs {
            let first = labels[spec.rows[0]];
            assert!(
                spec.rows.iter().all(|&r| labels[r] == first),
                "impure partition {spec:?}"
            );
        }
        // Partitions are disjoint and covering.
        let mut all: Vec<usize> = specs.iter().flat_map(|s| s.rows.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>());
        // The induced partitions must coincide with the four latent groups
        // (equivalent conditions may differ from the paper's phrasing, e.g.
        // `edu ≠ PhD ∧ exp ≥ 4` describes the same rows as
        // `edu = MS ∧ exp ≥ 3` on this data — both are exact).
        for spec in &specs {
            let expected: Vec<usize> = (0..9)
                .filter(|&r| labels[r] == labels[spec.rows[0]])
                .collect();
            let mut got = spec.rows.clone();
            got.sort_unstable();
            assert_eq!(got, expected, "partition differs from latent group");
        }
        // Numeric splits carry round thresholds.
        let rendered: Vec<String> = specs.iter().map(|s| s.condition.to_string()).collect();
        assert!(
            rendered.iter().any(|r| r.contains("exp")),
            "expected a numeric split on exp, got {rendered:?}"
        );
    }

    /// A null in a categorical condition column must land in exactly one
    /// partition: on the `≠ v` side of an `Equals` split the re-verified
    /// condition `dept ≠ v` would not match it.
    #[test]
    fn categorical_nulls_stay_in_exactly_one_partition() {
        use charles_relation::DataType;
        let dept: Vec<Value> = ["A", "A", "A", "A", "B", "B", "B", "B", "", ""]
            .iter()
            .map(|&d| {
                if d.is_empty() {
                    Value::Null
                } else {
                    Value::str(d)
                }
            })
            .collect();
        let table = TableBuilder::new("nulls")
            .value_col("dept", DataType::Utf8, &dept)
            .unwrap()
            .int_col("grade", &[1, 1, 2, 2, 3, 3, 4, 4, 5, 5])
            .build()
            .unwrap();
        let labels = [0, 0, 0, 0, 1, 1, 1, 1, 1, 1];
        for attrs in [vec!["dept".into()], vec!["dept".into(), "grade".into()]] {
            let specs = induce_partitions(&table, &attrs, &labels, &default_config()).unwrap();
            let mut covered: Vec<usize> = specs.iter().flat_map(|s| s.rows.clone()).collect();
            covered.sort_unstable();
            assert_eq!(covered, (0..10).collect::<Vec<_>>(), "{specs:?}");
        }
    }

    #[test]
    fn constant_labels_single_partition() {
        let table = emp();
        let specs = induce_partitions(&table, &["edu".into()], &[0; 9], &default_config()).unwrap();
        assert_eq!(specs.len(), 1);
        assert!(specs[0].condition.is_universal());
        assert_eq!(specs[0].rows.len(), 9);
    }

    #[test]
    fn no_condition_attrs_single_partition() {
        let table = emp();
        let specs = induce_partitions(&table, &[], &truth_labels(), &default_config()).unwrap();
        assert_eq!(specs.len(), 1);
    }

    #[test]
    fn inexpressible_labels_collapse() {
        // Labels alternate independently of edu/exp: no split can help, so
        // the tree yields few (possibly one) impure partitions rather than
        // inventing noise.
        let table = emp();
        let labels = vec![0, 1, 0, 1, 0, 1, 0, 1, 0];
        let specs = induce_partitions(&table, &["edu".into()], &labels, &default_config()).unwrap();
        let total: usize = specs.iter().map(|s| s.rows.len()).sum();
        assert_eq!(total, 9);
        assert!(specs.len() <= 3);
    }

    #[test]
    fn min_partition_fraction_blocks_tiny_leaves() {
        let table = emp();
        let config = CharlesConfig {
            min_partition_fraction: 0.4, // leaves need ≥ 4 of 9 rows
            ..CharlesConfig::default()
        };
        let specs = induce_partitions(
            &table,
            &["edu".into(), "exp".into()],
            &truth_labels(),
            &config,
        )
        .unwrap();
        for s in &specs {
            assert!(s.rows.len() >= 4 || specs.len() == 1, "{specs:?}");
        }
    }

    #[test]
    fn cluster_residuals_kmeans_and_quantile() {
        let residuals = vec![0.0, 0.1, -0.1, 100.0, 100.1, 99.9];
        let config = default_config();
        let labels = cluster_residuals(&residuals, 2, &config).unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[3]);

        let qconfig = CharlesConfig {
            partition_method: PartitionMethod::ResidualQuantile,
            ..default_config()
        };
        let qlabels = cluster_residuals(&residuals, 2, &qconfig).unwrap();
        assert_eq!(qlabels[0], qlabels[1]);
        assert_ne!(qlabels[0], qlabels[3]);
    }

    #[test]
    fn cluster_residuals_k1_trivial() {
        let config = default_config();
        assert_eq!(
            cluster_residuals(&[1.0, 2.0, 3.0], 1, &config).unwrap(),
            vec![0, 0, 0]
        );
        assert!(cluster_residuals(&[], 3, &config).unwrap().is_empty());
    }

    #[test]
    fn cluster_residuals_dbscan_no_k() {
        let mut residuals = vec![0.0; 30];
        residuals.extend(vec![500.0; 30]);
        let config = CharlesConfig {
            partition_method: PartitionMethod::ResidualDbscan,
            ..default_config()
        };
        let labels = cluster_residuals(&residuals, 4, &config).unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[30]);
    }

    #[test]
    fn nice_threshold_prefers_round() {
        // Any t in (2, 3] splits identically: 3 is roundest.
        assert_eq!(nice_threshold(2.0, 3.0), 3.0);
        // (23.4, 27.9]: 25 is the roundest inside.
        assert_eq!(nice_threshold(23.4, 27.9), 25.0);
        // Degenerate narrow gap still yields a valid boundary.
        let t = nice_threshold(1.0001, 1.0002);
        assert!(t > 1.0001 && t <= 1.0002);
    }

    #[test]
    fn simplify_fuses_ranges_and_drops_redundant() {
        let path = vec![
            Descriptor::NotEquals {
                attr: "edu".into(),
                value: Value::str("BS"),
            },
            Descriptor::Equals {
                attr: "edu".into(),
                value: Value::str("MS"),
            },
            Descriptor::AtLeast {
                attr: "exp".into(),
                threshold: 1.0,
            },
            Descriptor::LessThan {
                attr: "exp".into(),
                threshold: 5.0,
            },
            Descriptor::LessThan {
                attr: "exp".into(),
                threshold: 3.0,
            },
        ];
        let simplified = simplify_path(path);
        let rendered: Vec<String> = simplified.iter().map(|d| d.to_string()).collect();
        assert!(rendered.contains(&"edu = MS".to_string()));
        assert!(rendered.contains(&"1 ≤ exp < 3".to_string()));
        assert!(
            !rendered.iter().any(|r| r.contains("≠")),
            "NotEquals should be dropped: {rendered:?}"
        );
        assert_eq!(simplified.len(), 2);
    }

    /// The row-based split search that [`best_split`] replaced, kept as
    /// its oracle: Gini from row lists, one `HashSet` per categorical
    /// value, and fresh yes/no vectors per numeric threshold.
    mod oracle {
        use super::super::{column_of, nice_threshold, Split, OUTLIER_LABEL};
        use crate::condition::Descriptor;
        use charles_relation::{AttrRef, Column, Table, Value};
        use std::collections::BTreeMap;

        /// Gini impurity of the label multiset at `rows`; rows labelled
        /// [`OUTLIER_LABEL`] are invisible to the impurity.
        pub fn gini(labels: &[usize], rows: &[usize], n_labels: usize) -> f64 {
            let mut counts = vec![0usize; n_labels];
            let mut n = 0usize;
            for &r in rows {
                if labels[r] != OUTLIER_LABEL {
                    counts[labels[r]] += 1;
                    n += 1;
                }
            }
            if n == 0 {
                return 0.0;
            }
            1.0 - counts
                .iter()
                .map(|&c| {
                    let p = c as f64 / n as f64;
                    p * p
                })
                .sum::<f64>()
        }

        fn categorical_groups(col: &Column, rows: &[usize]) -> Vec<(Value, Vec<usize>)> {
            if let Some(view) = col.codes_view() {
                const UNSEEN: usize = usize::MAX;
                let mut slot_of_code = vec![UNSEEN; view.dict_len()];
                let mut null_slot = UNSEEN;
                let mut groups: Vec<(Value, Vec<usize>)> = Vec::new();
                for &r in rows {
                    let slot = match view.code(r) {
                        Some(code) => {
                            let slot = &mut slot_of_code[code as usize];
                            if *slot == UNSEEN {
                                *slot = groups.len();
                                groups.push((col.get(r), Vec::new()));
                            }
                            *slot
                        }
                        None => {
                            if null_slot == UNSEEN {
                                null_slot = groups.len();
                                groups.push((Value::Null, Vec::new()));
                            }
                            null_slot
                        }
                    };
                    groups[slot].1.push(r);
                }
                groups
            } else {
                let mut by_value: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
                for &r in rows {
                    by_value.entry(col.get(r)).or_default().push(r);
                }
                by_value.into_iter().collect()
            }
        }

        fn splits_for_attr(
            attr: &AttrRef,
            col: &Column,
            labels: &[usize],
            rows: &[usize],
            n_labels: usize,
            min_leaf: usize,
        ) -> Vec<(Split, f64)> {
            let parent_gini = gini(labels, rows, n_labels);
            let n = rows.len() as f64;
            let mut out = Vec::new();
            let mut push = |descriptor, yes: Vec<usize>, no: Vec<usize>| {
                let child = (yes.len() as f64 / n) * gini(labels, &yes, n_labels)
                    + (no.len() as f64 / n) * gini(labels, &no, n_labels);
                out.push((
                    Split {
                        descriptor,
                        yes,
                        no,
                    },
                    parent_gini - child,
                ));
            };
            if col.dtype().is_numeric() {
                let mut vals: Vec<(f64, usize)> = rows
                    .iter()
                    .filter_map(|&r| col.get_f64(r).map(|v| (v, r)))
                    .collect();
                if vals.len() < rows.len() {
                    return out;
                }
                vals.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut boundaries: Vec<(f64, f64)> = Vec::new();
                for w in vals.windows(2) {
                    if w[0].0 < w[1].0 {
                        boundaries.push((w[0].0, w[1].0));
                    }
                }
                let step = boundaries.len().div_ceil(32).max(1);
                for (below, above) in boundaries.into_iter().step_by(step) {
                    let threshold = nice_threshold(below, above);
                    let mut yes = Vec::new();
                    let mut no = Vec::new();
                    for &(v, r) in &vals {
                        if v < threshold {
                            yes.push(r);
                        } else {
                            no.push(r);
                        }
                    }
                    if yes.len() < min_leaf || no.len() < min_leaf {
                        continue;
                    }
                    let attr = attr.clone();
                    push(Descriptor::LessThan { attr, threshold }, yes, no);
                }
            } else {
                let mut groups = categorical_groups(col, rows);
                let has_null = groups.iter().any(|(value, _)| value.is_null());
                if groups.len() < 2 || groups.len() > 24 || has_null {
                    return out;
                }
                groups.sort_by(|a, b| a.0.cmp(&b.0));
                for (value, yes) in groups {
                    let yes_set: std::collections::HashSet<usize> = yes.iter().copied().collect();
                    let no: Vec<usize> = rows
                        .iter()
                        .copied()
                        .filter(|r| !yes_set.contains(r))
                        .collect();
                    if yes.len() < min_leaf || no.len() < min_leaf {
                        continue;
                    }
                    let attr = attr.clone();
                    push(Descriptor::Equals { attr, value }, yes, no);
                }
            }
            out
        }

        /// The winning split and its gain.
        pub fn best_split(
            table: &Table,
            cond_attrs: &[AttrRef],
            labels: &[usize],
            rows: &[usize],
            n_labels: usize,
            min_leaf: usize,
        ) -> Option<(Split, f64)> {
            let mut best: Option<(Split, f64)> = None;
            for attr in cond_attrs {
                let Some(col) = column_of(table, attr) else {
                    continue;
                };
                for (split, gain) in splits_for_attr(attr, col, labels, rows, n_labels, min_leaf) {
                    if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.1) {
                        best = Some((split, gain));
                    }
                }
            }
            best
        }

        /// [`best_split`] in the shape `grow_partitions` takes.
        pub fn split_search(
            table: &Table,
            cond_attrs: &[AttrRef],
            labels: &[usize],
            rows: &[usize],
            n_labels: usize,
            min_leaf: usize,
        ) -> Option<Split> {
            best_split(table, cond_attrs, labels, rows, n_labels, min_leaf).map(|(s, _)| s)
        }
    }

    #[test]
    fn count_gini_matches_row_gini_bit_for_bit() {
        let labels = [0, 1, 1, 2, OUTLIER_LABEL, 2, 2, 0, OUTLIER_LABEL, 1, 3, 3];
        let subsets: [&[usize]; 6] = [
            &[],
            &[4, 8],
            &[0],
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
            &[1, 2, 4, 9],
            &[3, 5, 6, 10, 0, 8],
        ];
        for rows in subsets {
            let node = Node::new(&labels, rows, 4);
            assert_eq!(
                node.gini.to_bits(),
                oracle::gini(&labels, rows, 4).to_bits(),
                "rows {rows:?}"
            );
            assert_eq!(node.tally.rows, rows.len());
        }
        // Empty and all-outlier nodes have zero impurity, as row lists do.
        assert_eq!(gini_of([0, 0].into_iter(), 0).to_bits(), 0f64.to_bits());
        assert_eq!(Node::new(&labels, &[4, 8], 4).labelled, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Count-based Gini equals the row-based Gini bit for bit on
        /// random label multisets with outliers, including the empty and
        /// all-outlier ones.
        #[test]
        fn count_gini_matches_row_gini_on_random_labels(
            labels in proptest::collection::vec(0usize..6, 0..40),
            n_labels in 1usize..6,
        ) {
            let labels: Vec<usize> = labels
                .into_iter()
                .map(|l| if l >= n_labels { OUTLIER_LABEL } else { l })
                .collect();
            let rows: Vec<usize> = (0..labels.len()).collect();
            let node = Node::new(&labels, &rows, n_labels);
            proptest::prop_assert_eq!(
                node.gini.to_bits(),
                oracle::gini(&labels, &rows, n_labels).to_bits()
            );
        }
    }

    /// One generated row: `((dept, wide, grade), (pay, flag, label))`.
    type GenRow = ((u8, u8, i64), (u8, bool, u8));

    /// Build a table with ties everywhere: `dept` (5 values, and a null
    /// group when `dept_nulls`) and its copy `dept2`, `wide` (up to 30 values), `grade` and
    /// its copy `grade2` (7 integers), `pay` (floats with ±0.0, nulls when
    /// `pay_nulls`, NaNs of both signs when `pay_nan`) and the bool `flag`. Labels are
    /// 0–2, with code 7 standing for [`OUTLIER_LABEL`].
    fn gen_table(
        rows: &[GenRow],
        dept_nulls: bool,
        pay_nulls: bool,
        pay_nan: bool,
    ) -> (Table, Vec<usize>) {
        use charles_relation::DataType;
        let dept: Vec<Value> = rows
            .iter()
            .map(|((d, _, _), _)| match d {
                5 if dept_nulls => Value::Null,
                d => Value::str(format!("d{d}")),
            })
            .collect();
        let wide: Vec<String> = rows
            .iter()
            .map(|((_, w, _), _)| format!("w{w:02}"))
            .collect();
        let grade: Vec<i64> = rows.iter().map(|((_, _, g), _)| *g).collect();
        let pay: Vec<Value> = rows
            .iter()
            .map(|(_, (p, _, _))| match p {
                0 => Value::Float(-0.0),
                1 => Value::Float(0.0),
                5 if pay_nan => Value::Float(-f64::NAN),
                6 if pay_nan => Value::Float(f64::NAN),
                7 if pay_nulls => Value::Null,
                p => Value::Float(f64::from(*p) * 1.25),
            })
            .collect();
        let flag: Vec<bool> = rows.iter().map(|(_, (_, f, _))| *f).collect();
        let labels = rows
            .iter()
            .map(|(_, (_, _, l))| {
                if *l == 7 {
                    OUTLIER_LABEL
                } else {
                    usize::from(*l % 3)
                }
            })
            .collect();
        let table = TableBuilder::new("gen")
            .value_col("dept", DataType::Utf8, &dept)
            .unwrap()
            .value_col("dept2", DataType::Utf8, &dept)
            .unwrap()
            .str_col("wide", &wide)
            .int_col("grade", &grade)
            .int_col("grade2", &grade)
            .value_col("pay", DataType::Float64, &pay)
            .unwrap()
            .bool_col("flag", &flag)
            .build()
            .unwrap();
        (table, labels)
    }

    fn gen_rows() -> impl proptest::strategy::Strategy<Value = Vec<GenRow>> {
        proptest::collection::vec(
            (
                (0u8..6, 0u8..30, -3i64..4),
                (0u8..8, proptest::prelude::any::<bool>(), 0u8..8),
            ),
            0..48,
        )
    }

    fn sorted(rows: &[usize]) -> Vec<usize> {
        let mut rows = rows.to_vec();
        rows.sort_unstable();
        rows
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(384))]

        /// The count-based split search picks the oracle's split: same
        /// descriptor, same gain bits, same yes/no row sets — at the root
        /// and at a random sub-node, over a rotated attribute order.
        #[test]
        fn count_split_search_matches_row_oracle(
            rows in gen_rows(),
            flags in (proptest::prelude::any::<bool>(), proptest::prelude::any::<bool>(), 0usize..7),
            min_leaf in 1usize..8,
            subset in proptest::collection::vec(proptest::prelude::any::<bool>(), 48),
        ) {
            let (pay_nulls, pay_nan, rotate) = flags;
            let (table, labels) = gen_table(&rows, true, pay_nulls, pay_nan);
            let mut attrs: Vec<AttrRef> = ["dept", "dept2", "wide", "grade", "grade2", "pay", "flag"]
                .iter()
                .map(|&a| table.schema().attr_ref(a).unwrap())
                .collect();
            attrs.rotate_left(rotate);
            let n_labels = 3;
            let all: Vec<usize> = (0..table.height()).collect();
            let some: Vec<usize> = all.iter().copied().filter(|&r| subset[r]).collect();
            for node_rows in [&all, &some] {
                let got = best_scored(&table, &attrs, &labels, node_rows, n_labels, min_leaf);
                let split = best_split(&table, &attrs, &labels, node_rows, n_labels, min_leaf);
                let want = oracle::best_split(&table, &attrs, &labels, node_rows, n_labels, min_leaf);
                match (got, split, want) {
                    (None, None, None) => {}
                    (Some((scored, _)), Some(split), Some((oracle, gain))) => {
                        let want = format!("{:?}", oracle.descriptor);
                        proptest::prop_assert_eq!(format!("{:?}", scored.descriptor), want.clone());
                        proptest::prop_assert_eq!(format!("{:?}", split.descriptor), want);
                        proptest::prop_assert_eq!(scored.gain.to_bits(), gain.to_bits());
                        proptest::prop_assert_eq!(sorted(&split.yes), sorted(&oracle.yes));
                        proptest::prop_assert_eq!(sorted(&split.no), sorted(&oracle.no));
                    }
                    (got, split, want) => proptest::prop_assert!(
                        false,
                        "winner presence differs: scored {} split {} oracle {}",
                        got.is_some(),
                        split.is_some(),
                        want.is_some()
                    ),
                }
            }
        }

        /// Whole trees agree: `induce_partitions` returns the same
        /// partitions as the tree grown by the oracle split search, with
        /// nulls in categorical and numeric condition columns alike.
        #[test]
        fn induced_partitions_match_row_oracle(
            rows in gen_rows(),
            nulls in (proptest::prelude::any::<bool>(), proptest::prelude::any::<bool>()),
            fraction_idx in 0usize..4,
            depth in 1usize..5,
        ) {
            let (dept_nulls, pay_nulls) = nulls;
            let (table, labels) = gen_table(&rows, dept_nulls, pay_nulls, false);
            let config = CharlesConfig {
                min_partition_fraction: [0.0, 0.05, 0.1, 0.25][fraction_idx],
                max_tree_depth: depth,
                ..CharlesConfig::default()
            };
            let attrs: Vec<AttrRef> = ["dept", "wide", "grade", "pay", "flag", "dept2", "grade2"]
                .iter()
                .map(|&a| AttrRef::from(a))
                .collect();
            let render = |specs: Vec<PartitionSpec>| -> Vec<(String, Vec<usize>)> {
                specs.into_iter().map(|s| (format!("{:?}", s.condition), s.rows)).collect()
            };
            let got = render(induce_partitions(&table, &attrs, &labels, &config).unwrap());
            let want = render(
                grow_partitions(&table, &attrs, &labels, &config, oracle::split_search).unwrap(),
            );
            proptest::prop_assert_eq!(got, want);
        }
    }
}
