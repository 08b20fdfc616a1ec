//! L-BFGS for logistic regression (§5.2.4's "modern optimizations") — a
//! showcase for DCV column ops: the entire two-loop recursion runs
//! server-side as `dot`/`axpy`/`copy` over co-located history vectors, with
//! only scalars at the coordinator.

use ps2_core::{Dcv, Ps2Context, WorkCtx};
use ps2_data::SparseDatasetGen;
use ps2_simnet::SimCtx;

use crate::lr::{distinct_cols, grad_aligned};
use crate::metrics::TrainingTrace;
use crate::sort_merge_pairs;

/// History pairs kept (`m`).
const HISTORY: usize = 5;
/// Fixed step size (no line search — full-batch gradients are stable enough
/// on this objective).
const STEP: f64 = 0.5;

/// L-BFGS configuration.
#[derive(Clone, Debug)]
pub struct LbfgsConfig {
    pub dataset: SparseDatasetGen,
    pub iterations: usize,
    /// Fraction of data per gradient evaluation (1.0 = full batch).
    pub batch_fraction: f64,
}

impl LbfgsConfig {
    pub fn new(dataset: SparseDatasetGen, iterations: usize) -> LbfgsConfig {
        LbfgsConfig {
            dataset,
            iterations,
            batch_fraction: 1.0,
        }
    }
}

/// Train LR with L-BFGS on PS2; returns the loss trace.
pub fn train_lbfgs(ctx: &mut SimCtx, ps2: &mut Ps2Context, cfg: &LbfgsConfig) -> TrainingTrace {
    let gen = cfg.dataset.clone();
    let parts = gen.partitions;
    let m = HISTORY;
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

    // Raw matrix rows: w, g, prev_g, q, then m × (s_i, y_i).
    let w_dcv = ps2.dense_dcv(ctx, gen.dim, (4 + 2 * m) as u32);
    let g = w_dcv.derive(ctx);
    let prev_g = w_dcv.derive(ctx);
    let q = w_dcv.derive(ctx);
    let s_hist: Vec<Dcv> = (0..m).map(|_| w_dcv.derive(ctx)).collect();
    let y_hist: Vec<Dcv> = (0..m).map(|_| w_dcv.derive(ctx)).collect();
    let mut rho: Vec<f64> = vec![0.0; m];
    let mut filled = 0usize; // history entries valid
    let mut cursor = 0usize; // ring position of the next write

    let expected_batch = (gen.rows as f64 * cfg.batch_fraction).max(1.0);
    let mut trace = TrainingTrace::new("PS2-LBFGS");
    let start = ctx.now();

    for t in 1..=cfg.iterations {
        let it0 = ctx.now();
        // Gradient phase: workers push the batch gradient into g.
        g.zero(ctx);
        let batch = if cfg.batch_fraction >= 1.0 {
            data.clone()
        } else {
            data.sample(cfg.batch_fraction, t as u64)
        };
        let gd = g.clone();
        let wd = w_dcv.clone();
        let scale = 1.0 / expected_batch;
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
                    let (grad, loss) = grad_aligned(examples, &cols, &wv);
                    let nnz: u64 = examples.iter().map(|e| e.features.len() as u64).sum();
                    wk.sim.charge_flops(6 * nnz);
                    let pairs: Vec<(u64, f64)> = sort_merge_pairs(
                        cols.iter()
                            .zip(&grad)
                            .map(|(&j, &gv)| (j, gv * scale))
                            .collect(),
                    );
                    gd.add_sparse(wk.sim, &pairs);
                    (loss, examples.len() as u64)
                },
                |_| 24,
            )
            .expect("gradient job failed");
        let (loss_sum, n): (f64, u64) = results
            .into_iter()
            .fold((0.0, 0), |(l, c), (li, ci)| (l + li, c + ci));

        // History update: s = -step·q_prev was written last iteration; now
        // y_prev = g - prev_g.
        if t > 1 {
            let slot = (cursor + m - 1) % m;
            y_hist[slot].assign_sub(ctx, &g, &prev_g);
            let sy = s_hist[slot].dot(ctx, &y_hist[slot]);
            rho[slot] = if sy.abs() > 1e-12 { 1.0 / sy } else { 0.0 };
        }

        // Two-loop recursion, entirely server-side.
        q.copy_from(ctx, &g);
        let mut alpha = vec![0.0; m];
        let order: Vec<usize> = (0..filled).map(|i| (cursor + m - 1 - i) % m).collect(); // most recent first
        for &i in &order {
            if rho[i] == 0.0 {
                continue;
            }
            alpha[i] = rho[i] * s_hist[i].dot(ctx, &q);
            q.iaxpy(ctx, &y_hist[i], -alpha[i]);
        }
        if let Some(&last) = order.first() {
            // Scale by γ = (s·y)/(y·y) of the most recent pair.
            let yy = y_hist[last].dot(ctx, &y_hist[last]);
            if yy > 1e-12 && rho[last] != 0.0 {
                let gamma = 1.0 / (rho[last] * yy);
                q.scale(ctx, gamma);
            }
        }
        for &i in order.iter().rev() {
            if rho[i] == 0.0 {
                continue;
            }
            let beta = rho[i] * y_hist[i].dot(ctx, &q);
            q.iaxpy(ctx, &s_hist[i], alpha[i] - beta);
        }

        // Step: w -= step·q; record s = -step·q and prev_g = g.
        w_dcv.iaxpy(ctx, &q, -STEP);
        s_hist[cursor].copy_from(ctx, &q);
        s_hist[cursor].scale(ctx, -STEP);
        prev_g.copy_from(ctx, &g);
        cursor = (cursor + 1) % m;
        filled = (filled + 1).min(m);

        ctx.metric_add("ml.iterations", 1);
        ctx.metric_observe("ml.iteration", ctx.now() - it0);
        ctx.metric_gauge_set(
            "ml.loss_micro",
            (loss_sum / n.max(1) as f64 * 1e6).round() as i64,
        );
        trace.record(start, ctx.now(), loss_sum / n.max(1) as f64);
    }
    trace
}
