//! # ps2-ml — the paper's ML workloads and baseline systems
//!
//! Every model from the paper's evaluation (§5.2, §6), each implemented
//! against one or more *execution backends* that reproduce the
//! communication structure of the compared systems:
//!
//! | model | backends |
//! |---|---|
//! | [`lr`] Logistic Regression (SGD/Adam/Adagrad/RMSProp) | `SparkDriver` (MLlib), `PsPullPush` (PS-), `Ps2Dcv` (PS2-), `PetuumStyle`, `DistmlStyle` |
//! | [`deepwalk`] DeepWalk graph embedding | `PsPullPush`, `Ps2Dcv` |
//! | [`gbdt`] Gradient Boosted Decision Trees | `Ps2Dcv`, `XgboostStyle` (ring AllReduce) |
//! | [`lda`] Latent Dirichlet Allocation (collapsed Gibbs) | `Ps2Dcv`, `PetuumStyle`, `GlintStyle`, `SparkDriver` (MLlib) |
//! | [`svm`] linear SVM (hinge loss) | `Ps2Dcv` |
//! | [`lbfgs`] L-BFGS for LR | `Ps2Dcv` (history on DCVs, two-loop recursion on Gram scalars: two round trips per iteration) |
//!
//! All training runs on the simulated cluster: the math is real (losses are
//! genuine convergence curves), the clock is virtual (a 10 Gbps cluster's
//! communication structure). Each run returns a [`TrainingTrace`] of
//! `(virtual seconds, loss)` points — the series behind every figure in the
//! paper's §6.

pub mod capabilities;
pub mod deepwalk;
pub mod fm;
pub mod gbdt;
pub mod hyper;
pub mod lbfgs;
pub mod lda;
pub mod lr;
mod metrics;
pub mod modes;
pub mod optim;
pub mod serve;
pub mod svm;

pub use metrics::{auc, StepBreakdown, TrainingTrace};

/// Sort-and-merge raw `(index, value)` accumulations into the strictly
/// increasing form PS pushes require.
pub(crate) fn sort_merge_pairs(mut pairs: Vec<(u64, f64)>) -> Vec<(u64, f64)> {
    pairs.sort_unstable_by_key(|&(j, _)| j);
    pairs.dedup_by(|b, a| {
        if a.0 == b.0 {
            a.1 += b.1;
            true
        } else {
            false
        }
    });
    pairs
}

#[cfg(test)]
mod tests {
    use super::sort_merge_pairs;

    #[test]
    fn sort_merge_accumulates_duplicates() {
        let merged = sort_merge_pairs(vec![(5, 1.0), (2, 2.0), (5, 3.0), (2, -1.0)]);
        assert_eq!(merged, vec![(2, 1.0), (5, 4.0)]);
    }

    #[test]
    fn sort_merge_handles_empty_and_single() {
        assert!(sort_merge_pairs(vec![]).is_empty());
        assert_eq!(sort_merge_pairs(vec![(0, 1.0)]), vec![(0, 1.0)]);
    }
}
