//! Linear SVM with hinge loss — one of the "other models" of §5.2.4,
//! trained PS2-style: sparse pulls, scaled sparse pushes.

use ps2_core::{Ps2Context, WorkCtx};
use ps2_data::{Example, SparseDatasetGen};
use ps2_simnet::SimCtx;

use crate::lr::{distinct_cols, ColIndex};
use crate::metrics::TrainingTrace;
use crate::sort_merge_pairs;

/// L2 regularization strength, shared with the consistency-mode SVM update.
pub(crate) const REG: f64 = 1e-4;
/// Fraction of the data sampled per iteration.
const MINI_BATCH_FRACTION: f64 = 0.05;

/// SVM training configuration.
#[derive(Clone, Debug)]
pub struct SvmConfig {
    pub dataset: SparseDatasetGen,
    pub learning_rate: f64,
    pub iterations: usize,
}

impl SvmConfig {
    pub fn new(dataset: SparseDatasetGen, iterations: usize) -> SvmConfig {
        SvmConfig {
            dataset,
            learning_rate: 0.1,
            iterations,
        }
    }
}

/// Hinge-loss subgradient over a batch, aligned with `cols`.
pub(crate) fn hinge_grad(batch: &[Example], cols: &[u64], w: &[f64]) -> (Vec<f64>, f64) {
    let index = ColIndex::new(cols);
    let mut grad = vec![0.0; cols.len()];
    let mut loss = 0.0;
    let mut pos = Vec::new();
    for ex in batch {
        pos.clear();
        pos.extend(ex.features.iter().map(|&(j, _)| index.pos(j)));
        let mut margin = 0.0;
        for (&p, &(_, v)) in pos.iter().zip(ex.features.iter()) {
            margin += w[p] * v;
        }
        let ym = ex.label * margin;
        if ym < 1.0 {
            loss += 1.0 - ym;
            for (&p, &(_, v)) in pos.iter().zip(ex.features.iter()) {
                grad[p] -= ex.label * v;
            }
        }
    }
    (grad, loss)
}

/// Train a linear SVM on PS2; returns the hinge-loss trace.
pub fn train_svm(ctx: &mut SimCtx, ps2: &mut Ps2Context, cfg: &SvmConfig) -> TrainingTrace {
    let gen = cfg.dataset.clone();
    let parts = gen.partitions;
    let gen2 = gen.clone();
    let data = ps2
        .spark
        .source(parts, move |p, w| {
            let rows = gen2.partition(p);
            let nnz: u64 = rows.iter().map(|e| e.features.len() as u64).sum();
            w.sim.charge_mem(16 * nnz);
            rows
        })
        .cache();
    let _ = ps2.spark.count(ctx, &data);

    let w_dcv = ps2.dense_dcv(ctx, gen.dim, 1);
    let expected_batch = (gen.rows as f64 * MINI_BATCH_FRACTION).max(1.0);
    let lr = cfg.learning_rate;

    let mut trace = TrainingTrace::new("PS2-SVM");
    let start = ctx.now();
    for t in 1..=cfg.iterations {
        let it0 = ctx.now();
        let batch = data.sample(MINI_BATCH_FRACTION, t as u64);
        let wd = w_dcv.clone();
        let scale = lr / expected_batch;
        let results = ps2
            .spark
            .run_job(
                ctx,
                &batch,
                move |examples, wk: &mut WorkCtx<'_, '_>| {
                    if examples.is_empty() {
                        return (0.0, 0u64);
                    }
                    let cols = distinct_cols(examples);
                    let wv = wd.pull_indices(wk.sim, &cols);
                    let (grad, loss) = hinge_grad(examples, &cols, &wv);
                    let nnz: u64 = examples.iter().map(|e| e.features.len() as u64).sum();
                    wk.sim.charge_flops(5 * nnz);
                    // Subgradient step + local L2 shrinkage on touched coords.
                    let pairs: Vec<(u64, f64)> = sort_merge_pairs(
                        cols.iter()
                            .zip(&grad)
                            .zip(&wv)
                            .map(|((&j, &g), &wj)| (j, -scale * g - lr * REG * wj))
                            .collect(),
                    );
                    wd.add_sparse(wk.sim, &pairs);
                    (loss, examples.len() as u64)
                },
                |_| 24,
            )
            .expect("svm iteration failed");
        let (loss_sum, n): (f64, u64) = results
            .into_iter()
            .fold((0.0, 0), |(l, c), (li, ci)| (l + li, c + ci));
        ctx.metric_add("ml.iterations", 1);
        ctx.metric_observe("ml.iteration", ctx.now() - it0);
        trace.record(start, ctx.now(), loss_sum / n.max(1) as f64);
    }
    trace
}
