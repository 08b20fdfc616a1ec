//! # ps2-data — synthetic workloads and dataset presets
//!
//! The paper evaluates on three public datasets (KDDB, KDD12, PubMED) and
//! five Tencent-internal ones (CTR, App, Gender, Graph1, Graph2) that are
//! not available. This crate substitutes **seeded synthetic generators**
//! whose row/column/sparsity *ratios* mirror Table 2 at laptop scale:
//!
//! * [`SparseDatasetGen`] — sparse classification data from a logistic
//!   ground-truth model with power-law feature popularity (the shape of
//!   CTR-style data); drives LR, SVM and GBDT.
//! * [`GraphGen`] + [`RandomWalks`] — preferential-attachment graphs and the
//!   random-walk corpus DeepWalk trains on (the paper receives pre-sampled
//!   walks from the business unit; so do we, from the generator).
//! * [`CorpusGen`] — documents drawn from a Dirichlet topic model, for LDA.
//! * [`presets`] — the Table 2 datasets scaled down, each knowing its
//!   original statistics so the benchmark harness can print both.
//!
//! Everything is a deterministic function of `(seed, partition)` — the
//! property lineage-based recovery in `ps2-dataflow` relies on.

mod corpus;
mod graph;
pub mod presets;
mod sparse;

pub use corpus::{CorpusGen, Document};
pub use graph::{Graph, GraphGen, RandomWalks, SkipGramPair};
pub use sparse::{Example, SparseDatasetGen};

/// splitmix64 — the crate's deterministic scalar hash.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
