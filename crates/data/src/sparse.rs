//! Sparse classification data from a logistic ground-truth model.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mix64;

/// One labelled sparse example. `features` are `(column, value)` pairs
/// sorted by column; `label` is ±1.
#[derive(Clone, Debug)]
pub struct Example {
    pub label: f64,
    pub features: Arc<Vec<(u64, f64)>>,
}

impl Example {
    /// Sparse dot with a dense weight vector.
    pub fn dot_dense(&self, w: &[f64]) -> f64 {
        self.features.iter().map(|&(j, v)| w[j as usize] * v).sum()
    }
}

/// Zipf skew of column popularity (0 = uniform; ~1 = heavy head).
const SKEW: f64 = 0.6;

/// Deterministic generator of sparse classification data.
///
/// Feature popularity follows a power law (`column ~ zipf`), matching the
/// long-tailed ID features of CTR-style workloads; labels come from a
/// logistic model over a sparse ground-truth weight vector, so learners have
/// real signal to find and losses converge like they should.
#[derive(Clone, Debug)]
pub struct SparseDatasetGen {
    pub rows: u64,
    pub dim: u64,
    /// Average non-zeros per row.
    pub nnz_per_row: u32,
    pub partitions: usize,
    pub seed: u64,
    /// Feature values: `false` → one-hot 1.0 (ID features, LR-style);
    /// `true` → uniform in (0, 1] (continuous features, GBDT-style).
    pub continuous: bool,
}

impl SparseDatasetGen {
    pub fn new(rows: u64, dim: u64, nnz_per_row: u32, partitions: usize, seed: u64) -> Self {
        SparseDatasetGen {
            rows,
            dim,
            nnz_per_row,
            partitions,
            seed,
            continuous: false,
        }
    }

    /// Switch to continuous feature values in (0, 1].
    pub fn continuous(mut self) -> SparseDatasetGen {
        self.continuous = true;
        self
    }

    /// Total non-zeros in the dataset (approximate; reported for Table 2).
    pub fn total_nnz(&self) -> u64 {
        self.rows * self.nnz_per_row as u64
    }

    /// Ground-truth weight of column `j`: a sparse signal (every 5th column
    /// carries weight) with deterministic magnitude in `[-2, 2]`.
    pub fn true_weight(&self, j: u64) -> f64 {
        let h = mix64(self.seed ^ mix64(j.wrapping_add(0xABCD)));
        if h.is_multiple_of(5) {
            let unit = (mix64(h) >> 11) as f64 / (1u64 << 53) as f64;
            4.0 * unit - 2.0
        } else {
            0.0
        }
    }

    /// Draw a power-law-popular column.
    fn sample_col(&self, rng: &mut StdRng) -> u64 {
        // Inverse-CDF of a truncated Pareto over [0, dim): heavier head for
        // larger skew.
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let exponent = 1.0 / (1.0 - SKEW);
        let col = (u.powf(exponent) * self.dim as f64) as u64;
        col.min(self.dim - 1)
    }

    /// Generate partition `part` — a pure function of `(seed, part)`.
    pub fn partition(&self, part: usize) -> Vec<Example> {
        assert!(part < self.partitions);
        let p = self.partitions as u64;
        let lo = part as u64 * self.rows / p;
        let hi = (part as u64 + 1) * self.rows / p;
        (lo..hi).map(|row| self.example(row)).collect()
    }

    /// Generate a single example (pure in `(seed, row)`).
    pub fn example(&self, row: u64) -> Example {
        let mut rng = StdRng::seed_from_u64(mix64(self.seed ^ mix64(row)));
        // Poisson-ish nnz around the mean: mean/2 .. 3*mean/2.
        let mean = self.nnz_per_row.max(1) as u64;
        let nnz = (mean / 2 + rng.gen_range(0..=mean)).max(1).min(self.dim);
        let mut cols: Vec<u64> = (0..nnz).map(|_| self.sample_col(&mut rng)).collect();
        cols.sort_unstable();
        cols.dedup();
        let features: Vec<(u64, f64)> = cols
            .into_iter()
            .map(|c| {
                let v = if self.continuous {
                    1.0 - rng.gen::<f64>()
                } else {
                    1.0
                };
                (c, v)
            })
            .collect();
        // Logistic ground truth with a little label noise.
        let margin: f64 = features.iter().map(|&(j, v)| self.true_weight(j) * v).sum();
        let p = 1.0 / (1.0 + (-margin).exp());
        let label = if rng.gen::<f64>() < p { 1.0 } else { -1.0 };
        Example {
            label,
            features: Arc::new(features),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen() -> SparseDatasetGen {
        SparseDatasetGen::new(1000, 5000, 20, 4, 42)
    }

    #[test]
    fn partitions_cover_all_rows_exactly_once() {
        let g = gen();
        let total: u64 = (0..g.partitions).map(|p| g.partition(p).len() as u64).sum();
        assert_eq!(total, g.rows);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen().partition(2);
        let b = gen().partition(2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.features, y.features);
        }
    }

    #[test]
    fn features_are_sorted_unique_and_in_range() {
        let g = gen();
        for ex in g.partition(0) {
            assert!(!ex.features.is_empty());
            assert!(ex.features.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(ex.features.iter().all(|&(j, _)| j < g.dim));
            assert!(ex.label == 1.0 || ex.label == -1.0);
        }
    }

    #[test]
    fn nnz_is_near_target() {
        let g = gen();
        let rows = g.partition(0);
        let avg: f64 =
            rows.iter().map(|e| e.features.len() as f64).sum::<f64>() / rows.len() as f64;
        assert!((10.0..=30.0).contains(&avg), "avg nnz {avg}");
    }

    #[test]
    fn labels_correlate_with_ground_truth() {
        // Predicting with the true weights should beat 65% accuracy — the
        // data has learnable signal.
        let g = gen();
        let mut correct = 0usize;
        let mut n = 0usize;
        for part in 0..g.partitions {
            for ex in g.partition(part) {
                let margin: f64 = ex.features.iter().map(|&(j, v)| g.true_weight(j) * v).sum();
                let pred = if margin >= 0.0 { 1.0 } else { -1.0 };
                if pred == ex.label {
                    correct += 1;
                }
                n += 1;
            }
        }
        let acc = correct as f64 / n as f64;
        assert!(acc > 0.65, "accuracy {acc}");
    }

    #[test]
    fn column_popularity_is_skewed() {
        let g = gen();
        let mut head = 0u64;
        let mut total = 0u64;
        for part in 0..g.partitions {
            for ex in g.partition(part) {
                for &(j, _) in ex.features.iter() {
                    total += 1;
                    if j < g.dim / 10 {
                        head += 1;
                    }
                }
            }
        }
        let frac = head as f64 / total as f64;
        assert!(frac > 0.25, "head fraction {frac} not skewed");
    }
}
