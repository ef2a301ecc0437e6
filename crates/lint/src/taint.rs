//! Interprocedural float-provenance taint.
//!
//! The bit-identity contract says every float that reaches the wire or a
//! ranking comparison was produced by a `kernels` fixed-order fold. The
//! statement-level rules check the two ends separately —
//! `float-fold-order` flags ad-hoc folds where they happen,
//! `wire-float-exactness` flags raw `Json::Num` in `proto.rs` — but
//! nothing connects them: a helper in `charles_core` can `.sum()` a
//! `HashMap`'s values (with a perfectly reasonable local `lint:allow`,
//! because the *local* use is fine), return the total, and three calls
//! later that value is serialized. A local allow justifies local use; it
//! does not certify cross-machine bit-identity on the wire.
//!
//! This pass marks **sources** — float folds outside
//! `numerics/src/kernels.rs` and hash-order iteration — and propagates
//! the taint through `let` bindings, call arguments (into the callee's
//! parameter), and float-returning calls (back into the caller), as a
//! fixpoint over the workspace call graph. A finding (`float-taint`)
//! fires when a tainted value reaches a **sink** — wire serialization
//! (`Json::Num`, or a call to a bit-hex encoder named `f64_bits*`, kept
//! in the sink set should one return) or a ranking comparison (the
//! `sort_by` family) — in a *different* function from the source, with
//! the provenance chain in the finding. `human_f64` is the wire's float
//! encoder and is not a sink.

use std::collections::BTreeMap;

use crate::graph::{LintFile, Workspace};
use crate::token::{num_is_float, Tok, TokKind};
use crate::Finding;

/// Where a tainted value came from and how it got here.
#[derive(Debug, Clone)]
struct Taint {
    /// Function containing the source expression.
    origin: usize,
    /// Source line in the origin function's file.
    line: u32,
    /// What the source was (for the message).
    kind: &'static str,
    /// Intermediate functions strictly between origin and the current
    /// holder, in flow order.
    via: Vec<usize>,
}

/// Per-function taint state, updated to fixpoint.
#[derive(Default, Clone)]
struct FnState {
    /// Tainted bindings (params seeded by callers, lets seeded locally).
    vars: BTreeMap<String, Taint>,
    /// The function can return a tainted float.
    ret: Option<Taint>,
}

fn is_p(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

fn is_i(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

const FOLDS: [&str; 3] = ["sum", "product", "fold"];
const HASH_ITERS: [&str; 6] = ["keys", "values", "iter", "into_iter", "drain", "values_mut"];
const SORT_SINKS: [&str; 5] = [
    "sort_by",
    "sort_unstable_by",
    "sort_by_key",
    "sort_unstable_by_key",
    "binary_search_by",
];
const WIRE_FNS: [&str; 3] = ["f64_bits", "f64_bits_arr", "f64_bits_field"];

/// Statement ranges of a function body, split at `;`/`{`/`}`, with
/// nested-fn spans removed.
fn stmts_of(
    toks: &[Tok],
    start: usize,
    end: usize,
    nested: &[(usize, usize)],
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut a = start + 1;
    let mut i = start + 1;
    while i < end {
        if let Some(&(_, b)) = nested.iter().find(|&&(na, nb)| i > na && i < nb) {
            i = b;
            continue;
        }
        let t = &toks[i];
        if is_p(t, ";") || is_p(t, "{") || is_p(t, "}") {
            if i > a {
                out.push((a, i));
            }
            a = i + 1;
        }
        i += 1;
    }
    if end > a {
        out.push((a, end));
    }
    out
}

/// Does the statement contain float evidence (`f64`/`f32`, float literal)?
fn has_float_hint(toks: &[Tok], a: usize, b: usize) -> bool {
    toks[a..b].iter().any(|t| {
        is_i(t, "f64") || is_i(t, "f32") || (t.kind == TokKind::Num && num_is_float(&t.text))
    })
}

/// A taint source inside the statement: ad-hoc float fold or hash-order
/// iteration. `kernels.rs` is the one sanctioned fold site.
fn source_in(
    toks: &[Tok],
    a: usize,
    b: usize,
    rel: &str,
    returns_float: bool,
) -> Option<(u32, &'static str)> {
    let in_kernels = rel.ends_with("numerics/src/kernels.rs");
    let float_hint = has_float_hint(toks, a, b) || returns_float;
    let has_hash = toks[a..b]
        .iter()
        .any(|t| is_i(t, "HashMap") || is_i(t, "HashSet"));
    for i in a..b {
        let t = &toks[i];
        if t.kind != TokKind::Ident || i == a || !is_p(&toks[i - 1], ".") {
            continue;
        }
        if i + 1 < b && !is_p(&toks[i + 1], "(") {
            continue;
        }
        if !in_kernels && float_hint && FOLDS.contains(&t.text.as_str()) {
            return Some((t.line, "ad-hoc float fold"));
        }
        if has_hash && HASH_ITERS.contains(&t.text.as_str()) {
            return Some((t.line, "hash-order iteration"));
        }
    }
    None
}

/// A taint sink inside the statement: wire serialization or ranking.
fn sink_in(toks: &[Tok], a: usize, b: usize) -> Option<(u32, &'static str)> {
    for i in a..b {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let called = i + 1 < b && is_p(&toks[i + 1], "(");
        if t.text == "Num"
            && i >= 2
            && is_p(&toks[i - 1], "::")
            && is_i(&toks[i - 2], "Json")
            && called
        {
            return Some((t.line, "wire serialization (`Json::Num`)"));
        }
        if WIRE_FNS.contains(&t.text.as_str()) && called {
            return Some((t.line, "wire serialization (bit-exact encoder input)"));
        }
        if i > a && is_p(&toks[i - 1], ".") && SORT_SINKS.contains(&t.text.as_str()) && called {
            return Some((t.line, "ranking comparison"));
        }
    }
    None
}

/// First tainted binding mentioned in the statement.
fn mentioned_taint<'a>(
    toks: &[Tok],
    a: usize,
    b: usize,
    vars: &'a BTreeMap<String, Taint>,
) -> Option<&'a Taint> {
    toks[a..b]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .find_map(|t| vars.get(&t.text))
}

/// Extend a taint's via-chain as the value moves out of `holder`.
fn flow_through(t: &Taint, holder: usize) -> Taint {
    let mut via = t.via.clone();
    if t.origin != holder && !via.contains(&holder) {
        via.push(holder);
        via.truncate(8);
    }
    Taint {
        origin: t.origin,
        line: t.line,
        kind: t.kind,
        via,
    }
}

/// Run the pass over the workspace.
pub fn float_taint(ws: &Workspace, files: &[LintFile]) -> Vec<Finding> {
    let n = ws.fns.len();
    let mut states: Vec<FnState> = vec![FnState::default(); n];
    // Precompute statement lists.
    let mut stmts: Vec<Vec<(usize, usize)>> = Vec::with_capacity(n);
    for (f, item) in ws.fns.iter().enumerate() {
        let toks = &files[item.file].ft.toks;
        let nested: Vec<(usize, usize)> = ws
            .fns
            .iter()
            .filter(|g| {
                g.file == item.file
                    && g.body.0 > item.body.0
                    && g.body.1 <= item.body.1
                    && g.body.0 < g.body.1
            })
            .map(|g| g.body)
            .collect();
        if item.in_test || files[item.file].relaxed || item.body.0 >= item.body.1 {
            stmts.push(Vec::new());
        } else {
            stmts.push(stmts_of(toks, item.body.0, item.body.1, &nested));
        }
        let _ = f;
    }

    // Fixpoint: propagate taint through lets, returns, and call args.
    for _ in 0..10 {
        let mut changed = false;
        for f in 0..n {
            let item = &ws.fns[f];
            let toks = &files[item.file].ft.toks;
            let rel = &files[item.file].rel;
            for &(a, b) in &stmts[f] {
                // Taint carried by this statement, if any.
                let mut t: Option<Taint> =
                    source_in(toks, a, b, rel, item.returns_float).map(|(line, kind)| Taint {
                        origin: f,
                        line,
                        kind,
                        via: Vec::new(),
                    });
                if t.is_none() {
                    t = mentioned_taint(toks, a, b, &states[f].vars).cloned();
                }
                if t.is_none() {
                    // A call returning taint poisons the statement.
                    for call in ws.calls[f].iter().filter(|c| c.tok >= a && c.tok < b) {
                        for &c in &call.callees {
                            if let Some(rt) = &states[c].ret {
                                t = Some(flow_through(rt, c));
                                break;
                            }
                        }
                        if t.is_some() {
                            break;
                        }
                    }
                }
                let Some(t) = t else { continue };
                // `let x = <tainted>` binds the taint.
                if is_i(&toks[a], "let") {
                    let name_at = if a + 1 < b && is_i(&toks[a + 1], "mut") {
                        a + 2
                    } else {
                        a + 1
                    };
                    if name_at < b && toks[name_at].kind == TokKind::Ident {
                        let name = toks[name_at].text.clone();
                        if let std::collections::btree_map::Entry::Vacant(e) =
                            states[f].vars.entry(name)
                        {
                            e.insert(t.clone());
                            changed = true;
                        }
                    }
                }
                // Float-returning function with a tainted statement can
                // return the taint.
                if item.returns_float && states[f].ret.is_none() {
                    states[f].ret = Some(t.clone());
                    changed = true;
                }
                // Tainted args seed the callee's parameter.
                let mut arg_taints: Vec<(usize, usize, Taint)> = Vec::new();
                for call in ws.calls[f].iter().filter(|c| c.tok >= a && c.tok < b) {
                    for (pos, &(ra, rb)) in call.args.iter().enumerate() {
                        let hit = source_in(toks, ra, rb, rel, false)
                            .map(|(line, kind)| Taint {
                                origin: f,
                                line,
                                kind,
                                via: Vec::new(),
                            })
                            .or_else(|| mentioned_taint(toks, ra, rb, &states[f].vars).cloned());
                        if let Some(ti) = hit {
                            for &c in &call.callees {
                                arg_taints.push((c, pos, ti.clone()));
                            }
                        }
                    }
                }
                for (c, pos, ti) in arg_taints {
                    if ws.fns[c].in_test {
                        continue;
                    }
                    let Some(param) = ws.fns[c].params.get(pos) else {
                        continue;
                    };
                    let pname = param.name.clone();
                    if let std::collections::btree_map::Entry::Vacant(e) =
                        states[c].vars.entry(pname)
                    {
                        e.insert(flow_through(&ti, f));
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Final pass: tainted statements hitting a sink in another function.
    let mut out = Vec::new();
    for f in 0..n {
        let item = &ws.fns[f];
        let toks = &files[item.file].ft.toks;
        let rel = &files[item.file].rel;
        for &(a, b) in &stmts[f] {
            let Some((line, sink)) = sink_in(toks, a, b) else {
                continue;
            };
            let mut t: Option<Taint> = mentioned_taint(toks, a, b, &states[f].vars).cloned();
            if t.is_none() {
                for call in ws.calls[f].iter().filter(|c| c.tok >= a && c.tok < b) {
                    for &c in &call.callees {
                        if let Some(rt) = &states[c].ret {
                            t = Some(flow_through(rt, c));
                            break;
                        }
                    }
                    if t.is_some() {
                        break;
                    }
                }
            }
            let Some(t) = t else { continue };
            if t.origin == f {
                continue; // same-function: the statement rules own this
            }
            let mut chain = vec![ws.display(t.origin, files)];
            chain.extend(t.via.iter().map(|&v| ws.display(v, files)));
            chain.push(ws.display(f, files));
            out.push(Finding {
                rule: "float-taint",
                path: rel.clone(),
                line,
                message: format!(
                    "value from {} in `{}` ({}:{}) reaches {} here — only \
                     `kernels` fixed-order folds are bit-identical across \
                     shards; recompute via `kernels` or keep this value off \
                     the wire/ranking path",
                    t.kind,
                    ws.display(t.origin, files),
                    files[ws.fns[t.origin].file].rel,
                    t.line,
                    sink,
                ),
                contract: "only kernels-computed floats reach wire and ranking sinks",
                call_chain: chain,
            });
        }
    }
    out
}
