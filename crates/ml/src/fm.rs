//! Factorization Machines — the other classification model the paper's
//! introduction motivates for high-dimensional user profiling ("models like
//! logistic regression or factorization machine are used").
//!
//! The model is a bias, a weight vector `w` and a `k × dim` factor matrix
//! `V`; the prediction is
//!
//! ```text
//! ŷ(x) = b + Σⱼ wⱼ xⱼ + ½ Σ_f [ (Σⱼ V_{f,j} xⱼ)² − Σⱼ V_{f,j}² xⱼ² ]
//! ```
//!
//! On PS2 everything lives in one raw matrix (row 0 = `w`, rows 1..=k =
//! `V`), so a mini-batch's working set is a sparse *block*: one
//! `pull_block` fetches the weights and all factor rows of the touched
//! columns from their (co-located) servers, and one `push_block` returns
//! the updates — the LDA access pattern reused for a completely different
//! model.

use ps2_core::{Ps2Context, WorkCtx};
use ps2_data::{Example, SparseDatasetGen};
use ps2_simnet::SimCtx;

use crate::lr::{distinct_cols, log_loss, sigmoid, ColIndex};
use crate::metrics::TrainingTrace;

/// L2 on the factors.
const REG: f64 = 1e-4;
/// Fraction of the data sampled per iteration.
const MINI_BATCH_FRACTION: f64 = 0.05;
/// Factors start uniform in `[-INIT_SCALE, INIT_SCALE)`.
const INIT_SCALE: f64 = 0.05;

/// FM training configuration.
#[derive(Clone, Debug)]
pub struct FmConfig {
    pub dataset: SparseDatasetGen,
    /// Number of latent factors (`k`).
    pub factors: u32,
    pub learning_rate: f64,
    pub iterations: usize,
}

impl FmConfig {
    pub fn new(dataset: SparseDatasetGen, factors: u32, iterations: usize) -> FmConfig {
        FmConfig {
            dataset,
            factors,
            learning_rate: 0.05,
            iterations,
        }
    }
}

/// FM margin for one example given the *aligned* working set:
/// `w[i]`/`v[f][i]` correspond to `ex.features[i]`.
pub fn fm_margin(ex: &Example, w: &[f64], v: &[Vec<f64>]) -> f64 {
    let mut m = 0.0;
    for (i, &(_, x)) in ex.features.iter().enumerate() {
        m += w[i] * x;
    }
    for vf in v {
        let (mut s, mut s2) = (0.0, 0.0);
        for (i, &(_, x)) in ex.features.iter().enumerate() {
            let t = vf[i] * x;
            s += t;
            s2 += t * t;
        }
        m += 0.5 * (s * s - s2);
    }
    m
}

/// Train an FM classifier on PS2; returns the logistic-loss trace.
pub fn train_fm(ctx: &mut SimCtx, ps2: &mut Ps2Context, cfg: &FmConfig) -> TrainingTrace {
    let gen = cfg.dataset.clone();
    let parts = gen.partitions;
    let k = cfg.factors;
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

    // Row 0 = w; rows 1..=k = V. Factors start small and random (an FM with
    // zero factors has zero interaction gradient).
    let model = ps2.dense_dcv_init(
        ctx,
        gen.dim,
        1 + k,
        ps2_core::InitKind::Uniform {
            lo: -INIT_SCALE,
            hi: INIT_SCALE,
            seed: gen.seed ^ 0xf4,
        },
    );
    // The weight row starts at zero.
    model.zero(ctx);
    let handle = model.matrix().clone();
    let rows: Vec<u32> = (0..=k).collect();

    let expected_batch = (gen.rows as f64 * MINI_BATCH_FRACTION).max(1.0);
    let lr = cfg.learning_rate;
    let mut trace = TrainingTrace::new("PS2-FM");
    let start = ctx.now();

    for t in 1..=cfg.iterations {
        let batch = data.sample(MINI_BATCH_FRACTION, t as u64);
        let h = handle.clone();
        let rows_c = rows.clone();
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
                    // One block pull: w and all k factor rows of the
                    // touched columns.
                    let block = h.pull_block(wk.sim, &rows_c, &cols);
                    // block[c] = [w_c, v_1c, .., v_kc]
                    let kk = rows_c.len() - 1;
                    let mut grad: Vec<Vec<f64>> = vec![vec![0.0; kk + 1]; cols.len()];
                    let mut loss = 0.0;
                    let index = ColIndex::new(&cols);
                    for ex in examples {
                        // Gather this example's aligned working set.
                        let idx: Vec<usize> =
                            ex.features.iter().map(|&(j, _)| index.pos(j)).collect();
                        let w_al: Vec<f64> = idx.iter().map(|&p| block[p][0]).collect();
                        let v_al: Vec<Vec<f64>> = (0..kk)
                            .map(|f| idx.iter().map(|&p| block[p][f + 1]).collect())
                            .collect();
                        let margin = fm_margin(ex, &w_al, &v_al);
                        let ym = ex.label * margin;
                        loss += log_loss(ym);
                        let coef = -ex.label * sigmoid(-ym);
                        // Linear part.
                        for (slot, &(_, x)) in idx.iter().zip(ex.features.iter()) {
                            grad[*slot][0] += coef * x;
                        }
                        // Interaction part: dV_{f,j} = x_j (s_f − V_{f,j} x_j).
                        for (f, vf) in v_al.iter().enumerate() {
                            let s: f64 = ex
                                .features
                                .iter()
                                .zip(vf)
                                .map(|(&(_, x), &vv)| vv * x)
                                .sum();
                            for ((slot, &(_, x)), &vv) in idx.iter().zip(ex.features.iter()).zip(vf)
                            {
                                grad[*slot][f + 1] += coef * (x * s - vv * x * x);
                            }
                        }
                    }
                    let nnz: u64 = examples.iter().map(|e| e.features.len() as u64).sum();
                    wk.sim.charge_flops(nnz * (6 + 8 * kk as u64));
                    // One block push: -lr·grad − lr·reg·param on factors.
                    let updates: Vec<(u64, Vec<f64>)> = cols
                        .iter()
                        .enumerate()
                        .map(|(c, &j)| {
                            let mut delta = vec![0.0; kk + 1];
                            delta[0] = -scale * grad[c][0];
                            for f in 0..kk {
                                delta[f + 1] = -scale * grad[c][f + 1] - lr * REG * block[c][f + 1];
                            }
                            (j, delta)
                        })
                        .collect();
                    h.push_block(wk.sim, &rows_c, &updates);
                    (loss, examples.len() as u64)
                },
                |_| 24,
            )
            .expect("fm iteration failed");
        let (loss_sum, n): (f64, u64) = results
            .into_iter()
            .fold((0.0, 0), |(l, c), (li, ci)| (l + li, c + ci));
        trace.record(start, ctx.now(), loss_sum / n.max(1) as f64);
    }
    trace
}
