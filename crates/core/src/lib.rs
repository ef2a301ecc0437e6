//! # charles-core
//!
//! The reference implementation of **ChARLES** — *Change-Aware Recovery of
//! Latent Evolution Semantics* (He, Meliou, Fariha; SIGMOD 2025 demo,
//! [arXiv:2409.18386](https://arxiv.org/abs/2409.18386)).
//!
//! Given two snapshots of a relational table over the same entities and a
//! numerical target attribute, ChARLES produces a **ranked list of change
//! summaries**: sets of *conditional transformations* such as
//!
//! ```text
//! edu = PhD → new_bonus = 1.05 × old_bonus + 1000
//! ```
//!
//! scored by `α·Accuracy + (1−α)·Interpretability`.
//!
//! ## Pipeline (paper §2, Figure 3)
//!
//! 1. **Setup assistant** ([`assistant`]) shortlists condition and
//!    transformation attributes by correlation with the observed change.
//! 2. **Enumeration** ([`search`]) walks all attribute subsets within the
//!    `c`/`t` budgets and a range of partition counts `k`.
//! 3. **Partition discovery** ([`partition`]) fits a global regression,
//!    clusters rows by distance from the regression line (exact 1-D
//!    k-means), and *induces* expressible conditions over the condition
//!    attributes with a CART-style tree — resolving the paper's cyclic
//!    dependency between clustering and pattern sharing.
//! 4. **Transformation discovery** ([`search`], [`snap`]) refits a linear
//!    model per partition and snaps constants to *normal* (round) values
//!    when accuracy permits.
//! 5. **Scoring & ranking** ([`score`]) implements the paper's accuracy
//!    measure (inverse normalized L1) and the four interpretability
//!    desiderata (size, simplicity, coverage, normality).
//!
//! ## Quick start
//!
//! ```
//! use charles_core::{Charles, CharlesConfig};
//! use charles_relation::{TableBuilder, Expr, Predicate, UpdateStatement,
//!                        apply_updates, ApplyMode};
//!
//! // A tiny salary table...
//! let v2016 = TableBuilder::new("2016")
//!     .str_col("name", &["Anne", "Bob", "Cathy", "Dan"])
//!     .str_col("edu", &["PhD", "PhD", "BS", "BS"])
//!     .float_col("bonus", &[23_000.0, 25_000.0, 11_000.0, 9_000.0])
//!     .key("name")
//!     .build()
//!     .unwrap();
//! // ...evolved by a latent policy: PhDs get 5% + $1000.
//! let policy = [UpdateStatement::new(
//!     "bonus",
//!     Expr::affine("bonus", 1.05, 1000.0),
//!     Predicate::eq("edu", "PhD"),
//! )];
//! let v2017 = apply_updates(&v2016, &policy, ApplyMode::FirstMatch).unwrap().table;
//!
//! // Recover the policy from the two snapshots alone.
//! let result = Charles::new(v2016, v2017, "bonus").unwrap().run().unwrap();
//! let top = result.top().unwrap();
//! assert!(top.scores.accuracy > 0.999);
//! assert!(top.to_string().contains("1.05"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assistant;
pub mod combi;
pub mod condition;
pub mod config;
pub mod ct;
pub mod engine;
pub mod error;
pub mod explain;
pub mod features;
pub mod manager;
pub mod partition;
pub mod recovery;
pub mod report;
pub mod score;
pub mod search;
pub mod session;
pub mod snap;
pub mod summary;
pub mod transform;
pub mod tree;
pub mod viz;

pub use assistant::{analyze, AttributeScore, SetupReport};
pub use condition::{Condition, Descriptor};
pub use config::{CharlesConfig, PartitionMethod};
pub use ct::ConditionalTransformation;
pub use engine::{Charles, RunResult};
pub use error::{CharlesError, QueryError, Result};
pub use explain::{explain_ct, explain_summary};
pub use features::{augment, augment_table, FeatureSet};
pub use manager::{DatasetSpec, DatasetStats, ManagerConfig, SessionManager};
pub use recovery::{
    adjusted_rand_index, evaluate_recovery, summary_labels, truth_labels, RecoveryReport, TruthRule,
};
pub use score::ScoringContext;
pub use search::{
    evaluate_candidate, evaluate_candidate_naive, generate_candidates, run_search, Candidate,
    PlaneCaches, SearchContext, SearchStats,
};
pub use session::{Query, QueryResult, Session, SessionStats};
pub use summary::{ChangeSummary, InterpretabilityBreakdown, Scores};
pub use transform::{Term, Transformation};
pub use tree::{LinearModelTree, TreeNode};
pub use viz::{PartitionViz, VizRect};
