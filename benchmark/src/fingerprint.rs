//! Ranking fingerprints: the correctness gate every timed op passes.
//!
//! A fingerprint is, per ranked summary, its rank, an order-insensitive
//! signature and the score's bit pattern. The known dedup race (two
//! equal-score duplicates whose descriptors render in different orders,
//! `≠ FRS ∧ ≠ POL` vs `≠ POL ∧ ≠ FRS`, or whose `condition_attrs` differ)
//! cannot flip it. Differences in what a reader sees but the fingerprint
//! ignores — the rendered text and `condition_attrs` — are reported
//! separately as render mismatches, which keep the race visible without
//! failing unrelated changes at random.

use charles_core::ChangeSummary;
use charles_server::Json;

/// One ranked entry of a fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    rank: usize,
    signature: String,
    score_bits: u64,
}

/// A ranking reduced to what must repeat exactly, plus what a reader sees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ranking {
    entries: Vec<Entry>,
    /// Per summary: the rendered CTs in partition order and the
    /// condition attributes.
    rendering: Vec<(Vec<String>, Vec<String>)>,
}

/// How a ranking compares with its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Identical fingerprint and rendering.
    Same,
    /// Identical fingerprint, different rendering (counted, not failed).
    RenderOnly,
    /// A different fingerprint: the op failed.
    Different,
}

impl Ranking {
    /// The ranking of an in-process result; the signature is the engine's
    /// own [`ChangeSummary::signature`].
    pub fn of_summaries(summaries: &[ChangeSummary]) -> Ranking {
        Ranking {
            entries: summaries
                .iter()
                .enumerate()
                .map(|(i, s)| Entry {
                    rank: i + 1,
                    signature: s.signature(),
                    score_bits: s.scores.score.to_bits(),
                })
                .collect(),
            rendering: summaries
                .iter()
                .map(|s| {
                    (
                        s.cts.iter().map(ToString::to_string).collect(),
                        s.condition_attrs.clone(),
                    )
                })
                .collect(),
        }
    }

    /// The ranking of a served result (one wire query result object).
    /// `elapsed_ms` and every other field outside the summaries are
    /// ignored; the signature is [`wire_signature`] of the rendered CTs.
    pub fn of_wire(result: &Json) -> Result<Ranking, String> {
        let summaries = result
            .get("summaries")
            .and_then(Json::as_arr)
            .ok_or("response has no \"summaries\" array")?;
        let mut ranking = Ranking {
            entries: Vec::with_capacity(summaries.len()),
            rendering: Vec::with_capacity(summaries.len()),
        };
        for s in summaries {
            let strings = |key: &str| -> Result<Vec<String>, String> {
                s.get(key)
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("summary lacks {key:?}"))?
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_string)
                            .ok_or(format!("{key:?} item"))
                    })
                    .collect()
            };
            let cts = strings("cts")?;
            ranking.entries.push(Entry {
                rank: s.get("rank").and_then(Json::as_usize).ok_or("rank")?,
                signature: wire_signature(&cts),
                score_bits: s
                    .get("score")
                    .and_then(Json::as_f64)
                    .ok_or("score")?
                    .to_bits(),
            });
            ranking.rendering.push((cts, strings("condition_attrs")?));
        }
        Ok(ranking)
    }

    /// Compare with a reference ranking.
    pub fn verdict(&self, reference: &Ranking) -> Verdict {
        if self.entries != reference.entries {
            Verdict::Different
        } else if self.rendering != reference.rendering {
            Verdict::RenderOnly
        } else {
            Verdict::Same
        }
    }

    /// Number of ranked summaries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// A short stable digest for the record (FNV-1a over the entries).
    pub fn digest(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for e in &self.entries {
            let text = format!("{}|{}|{:016x};", e.rank, e.signature, e.score_bits);
            for b in text.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!("{h:016x}")
    }
}

/// Order-insensitive signature of rendered CTs: each CT's condition
/// descriptors (joined by ` ∧ ` before the ` → `) are sorted, then the
/// CTs themselves are sorted.
pub fn wire_signature(cts: &[String]) -> String {
    let mut canon: Vec<String> = cts
        .iter()
        .map(|ct| match ct.split_once(" → ") {
            Some((condition, transformation)) => {
                let mut parts: Vec<&str> = condition.split(" ∧ ").collect();
                parts.sort_unstable();
                format!("{} → {transformation}", parts.join(" ∧ "))
            }
            None => ct.clone(),
        })
        .collect();
    canon.sort();
    canon.join(" | ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_core::{
        Condition, ConditionalTransformation, Descriptor, InterpretabilityBreakdown, Scores,
        Transformation,
    };
    use charles_relation::Value;

    fn not_in(first: &str, second: &str) -> Condition {
        let ne = |v: &str| Descriptor::NotEquals {
            attr: "department".into(),
            value: Value::str(v),
        };
        Condition::new(vec![ne(first), ne(second)])
    }

    fn summary(condition: Condition, attrs: &[&str], score: f64) -> ChangeSummary {
        let ct = ConditionalTransformation::new(
            condition,
            Transformation::linear("base_salary", Vec::new(), 1500.0),
            vec![0, 1],
            4,
            0.0,
        );
        ChangeSummary {
            cts: vec![ct],
            target_attr: "base_salary".into(),
            condition_attrs: attrs.iter().map(|a| a.to_string()).collect(),
            transform_attrs: vec!["base_salary".into()],
            scores: Scores {
                accuracy: 1.0,
                interpretability: 0.5,
                score,
            },
            breakdown: InterpretabilityBreakdown::default(),
            total_rows: 4,
        }
    }

    #[test]
    fn race_variants_share_a_fingerprint_but_not_a_rendering() {
        let a = summary(not_in("FRS", "POL"), &["department", "grade"], 0.75);
        let b = summary(not_in("POL", "FRS"), &["grade", "department"], 0.75);
        let (ra, rb) = (Ranking::of_summaries(&[a]), Ranking::of_summaries(&[b]));
        assert_eq!(rb.verdict(&ra), Verdict::RenderOnly);
        assert_eq!(ra.verdict(&ra), Verdict::Same);
        assert_eq!(ra.digest(), rb.digest());
    }

    #[test]
    fn a_changed_score_bit_is_a_different_ranking() {
        let score = 0.75f64;
        let nudged = f64::from_bits(score.to_bits() + 1);
        let a = Ranking::of_summaries(&[summary(not_in("FRS", "POL"), &["department"], score)]);
        let b = Ranking::of_summaries(&[summary(not_in("FRS", "POL"), &["department"], nudged)]);
        assert_eq!(b.verdict(&a), Verdict::Different);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn wire_rankings_ignore_descriptor_order_and_elapsed_time() {
        let wire = |cts: &str, score: &str, elapsed: &str| {
            Json::parse(&format!(
                r#"{{"elapsed_ms": {elapsed}, "summaries": [{{"rank": 1, "score": {score},
                    "cts": ["{cts}"], "condition_attrs": ["department"]}}]}}"#
            ))
            .unwrap()
        };
        let a = Ranking::of_wire(&wire(
            "department ≠ FRS ∧ department ≠ POL → x",
            "0.5",
            "1.5",
        ))
        .unwrap();
        let b = Ranking::of_wire(&wire(
            "department ≠ POL ∧ department ≠ FRS → x",
            "0.5",
            "9.0",
        ))
        .unwrap();
        let c = Ranking::of_wire(&wire(
            "department ≠ FRS ∧ department ≠ POL → x",
            "0.5000000000000001",
            "1.5",
        ))
        .unwrap();
        assert_eq!(b.verdict(&a), Verdict::RenderOnly);
        assert_eq!(c.verdict(&a), Verdict::Different);
    }
}
