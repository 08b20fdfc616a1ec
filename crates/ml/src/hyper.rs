//! Hyperparameter settings from the paper's Table 4 (Appendix A) that
//! callers vary. The ones every caller leaves at Table 4's value are
//! constants where they are read: Adam's `β1`, `β2`, `ε` in
//! [`crate::optim`], DeepWalk's learning rate, window and negative samples in
//! [`crate::deepwalk`], GBDT's learning rate in [`crate::gbdt`], LDA's `α`
//! and `β` in [`crate::lda`].

/// LR: `learning_rate = 0.618`, `mini_batch_fraction = 0.01`.
#[derive(Clone, Copy, Debug)]
pub struct LrHyper {
    pub learning_rate: f64,
    pub mini_batch_fraction: f64,
}

impl Default for LrHyper {
    fn default() -> Self {
        LrHyper {
            learning_rate: 0.618,
            mini_batch_fraction: 0.01,
        }
    }
}

/// GBDT tree shape. Table 4 sets `number_of_trees = 100`, `max_depth = 7`,
/// `size_of_histogram = 100`; the scaled runs default to 10 trees of depth 5
/// with 50 bins, the one source of which is `ps2::RunSpec`'s `gbdt` workload.
#[derive(Clone, Copy, Debug)]
pub struct GbdtHyper {
    pub num_trees: usize,
    pub max_depth: usize,
    pub histogram_bins: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_4() {
        let lr = LrHyper::default();
        assert_eq!(lr.learning_rate, 0.618);
        assert_eq!(lr.mini_batch_fraction, 0.01);
        use crate::optim::{ADAM_BETA1, ADAM_BETA2, EPSILON};
        assert_eq!((ADAM_BETA1, ADAM_BETA2, EPSILON), (0.9, 0.999, 1e-8));
        use crate::deepwalk::{LEARNING_RATE, NEGATIVE_SAMPLES, WINDOW_SIZE};
        assert_eq!((WINDOW_SIZE, NEGATIVE_SAMPLES), (4, 5));
        assert_eq!(ps2_data::presets::WALK_LEN, 8);
        assert_eq!(LEARNING_RATE, 0.01);
        assert_eq!(crate::gbdt::LEARNING_RATE, 0.1);
        assert_eq!((crate::lda::ALPHA, crate::lda::BETA), (0.5, 0.01));
    }
}
