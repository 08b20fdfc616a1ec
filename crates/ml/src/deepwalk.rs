//! DeepWalk graph embedding (paper §5.2.2, Figures 5/6, evaluated in
//! Figure 9(c,d)).
//!
//! The model is `2V` embedding vectors of dimension `K`, stored as one raw
//! matrix `dense(K, 2V)`: row `u` is vertex `u`'s input embedding, row
//! `V + u` its context embedding. Rows are column-partitioned over the
//! servers, so the vectors of any two vertices are dimension co-located.
//!
//! Workers process skip-gram pairs in batches (paper Table 4:
//! `batch_size = 512`); per batch:
//!
//! * **PS2-DeepWalk** — all dot products `⟨u, v'⟩` run server-side in one
//!   scatter/gather, then all pair updates as server-side `zip`s: only
//!   scalars and headers cross the network. With many servers the
//!   per-request headers dominate and the advantage shrinks — the Figure
//!   9(d) effect.
//! * **PS-DeepWalk** — pull the batch's embedding vectors, update locally,
//!   push the deltas: `O(batch · K)` values cross the network both ways.

use std::sync::Arc;

use ps2_core::{BatchResult, InitKind, MatrixHandle, Ps2Context, PsBatch, WorkCtx, ZipSegs};
use ps2_data::RandomWalks;
use ps2_ps::ZipMutFn;
use ps2_simnet::SimCtx;
use rand::Rng;

use crate::lr::{log_loss, sigmoid};
use crate::metrics::TrainingTrace;

/// Paper Table 4: `learning_rate = 0.01`, `window_size = 4`,
/// `negative_sampling = 5`.
pub(crate) const LEARNING_RATE: f64 = 0.01;
pub(crate) const WINDOW_SIZE: usize = 4;
pub(crate) const NEGATIVE_SAMPLES: usize = 5;

/// Execution backend for DeepWalk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeepWalkBackend {
    /// Pull embeddings, update locally, push back.
    PsPullPush,
    /// Server-side dot + zip update (DCV).
    Ps2Dcv,
}

impl DeepWalkBackend {
    pub fn label(&self) -> &'static str {
        match self {
            DeepWalkBackend::PsPullPush => "PS-DeepWalk",
            DeepWalkBackend::Ps2Dcv => "PS2-DeepWalk",
        }
    }
}

/// DeepWalk training configuration.
#[derive(Clone, Debug)]
pub struct DeepWalkConfig {
    pub vertices: u32,
    /// Embedding dimension `K` (paper §5.2.2: "one hundred or bigger").
    pub embedding_dim: u64,
    /// Positive skip-gram pairs consumed per worker per iteration.
    pub batch_per_worker: usize,
    pub iterations: usize,
    pub seed: u64,
}

/// One (center row, context row, label) training example.
type Sgns = (u32, u32, f64);

/// Train embeddings from a pre-sampled walk corpus; returns the
/// loss-versus-time trace (mean skip-gram logistic loss per iteration).
pub fn train_deepwalk(
    ctx: &mut SimCtx,
    ps2: &mut Ps2Context,
    cfg: &DeepWalkConfig,
    walks: &RandomWalks,
    backend: DeepWalkBackend,
) -> TrainingTrace {
    let v = cfg.vertices;
    let k = cfg.embedding_dim;
    let mut trace = TrainingTrace::new(backend.label());

    // All 2V embeddings in one raw matrix: rows 0..V input, V..2V context.
    let emb = ps2.dense_dcv_init(
        ctx,
        k,
        2 * v,
        InitKind::Uniform {
            lo: -0.5 / k as f64,
            hi: 0.5 / k as f64,
            seed: cfg.seed,
        },
    );
    let handle = emb.matrix().clone();

    // Distribute the pair corpus (the paper's `calculateSimilar` output).
    let pairs = Arc::new(walks.skip_gram_pairs(WINDOW_SIZE));
    assert!(!pairs.is_empty(), "walk corpus produced no training pairs");
    let parts = ps2.spark.num_executors();
    let pairs_rdd = {
        let pairs = Arc::clone(&pairs);
        ps2.spark
            .source(parts, move |p, _w| {
                pairs
                    .iter()
                    .copied()
                    .skip(p)
                    .step_by(parts)
                    .collect::<Vec<_>>()
            })
            .cache()
    };
    let _ = ps2.spark.count(ctx, &pairs_rdd);

    let start = ctx.now();
    for t in 0..cfg.iterations {
        let h = handle.clone();
        let use_dcv = backend == DeepWalkBackend::Ps2Dcv;
        let batch = cfg.batch_per_worker;
        let vv = v;
        let results = ps2
            .spark
            .run_job(
                ctx,
                &pairs_rdd,
                move |local_pairs, wk: &mut WorkCtx<'_, '_>| {
                    if local_pairs.is_empty() {
                        return (0.0, 0u64);
                    }
                    // This iteration's slice of the local pair stream.
                    let lo = (t * batch) % local_pairs.len();
                    let mut examples: Vec<Sgns> =
                        Vec::with_capacity(batch * (1 + NEGATIVE_SAMPLES));
                    for i in 0..batch {
                        let p = local_pairs[(lo + i) % local_pairs.len()];
                        examples.push((p.center, vv + p.context, 1.0));
                        for _ in 0..NEGATIVE_SAMPLES {
                            let nv = wk.sim.rng().gen_range(0..vv);
                            if nv != p.center {
                                examples.push((p.center, vv + nv, 0.0));
                            }
                        }
                    }
                    let loss = if use_dcv {
                        batch_update_dcv(wk, &h, &examples)
                    } else {
                        batch_update_pullpush(wk, &h, &examples)
                    };
                    (loss, examples.len() as u64)
                },
                |_r| 24,
            )
            .expect("deepwalk iteration failed");
        let (loss_sum, n): (f64, u64) = results
            .into_iter()
            .fold((0.0, 0), |(l, c), (li, ci)| (l + li, c + ci));
        trace.record(start, ctx.now(), loss_sum / n.max(1) as f64);
    }
    trace
}

/// DCV batch: one scatter/gather of server-side dots, then one of zips.
fn batch_update_dcv(wk: &mut WorkCtx<'_, '_>, h: &MatrixHandle, examples: &[Sgns]) -> f64 {
    // Two flushes per batch, each one envelope per server: all dots, then
    // — once the coefficients are known — all zip updates.
    let mut net = PsBatch::new();
    let dots: Vec<BatchResult<f64>> = examples
        .iter()
        .map(|&(u, v, _)| h.dot_in(&mut net, u, v))
        .collect();
    net.flush(wk.sim);
    let mut loss = 0.0;
    for (&(u, v, label), dot) in examples.iter().zip(&dots) {
        let dot = dot.take();
        let p = sigmoid(dot);
        let coef = LEARNING_RATE * (label - p);
        loss += if label > 0.5 {
            log_loss(dot)
        } else {
            log_loss(-dot)
        };
        let step: ZipMutFn = Arc::new(move |zs: &mut ZipSegs<'_>| {
            // u += coef * v'; v' += coef * u_old (paper Equation 2).
            let (us, rest) = zs.segs.split_first_mut().expect("two rows");
            let vs = &mut rest[0];
            for i in 0..us.len() {
                let u_old = us[i];
                us[i] += coef * vs[i];
                vs[i] += coef * u_old;
            }
        });
        h.zip_in(wk.sim, &mut net, &[u, v], step, 4);
    }
    net.flush(wk.sim);
    loss
}

/// Pull/push batch, the naive per-pair protocol of the paper's Figure 5:
/// each example pulls both of its vectors and pushes both updates — no
/// cross-pair dedup, so `4·K` values per example cross the network.
fn batch_update_pullpush(wk: &mut WorkCtx<'_, '_>, h: &MatrixHandle, examples: &[Sgns]) -> f64 {
    let mut net = PsBatch::new();
    let pulls: Vec<BatchResult<Vec<f64>>> = examples
        .iter()
        .flat_map(|&(u, v, _)| [u, v])
        .map(|row| h.pull_row_in(&mut net, row))
        .collect();
    net.flush(wk.sim);
    let k = h.dim() as usize;
    let mut loss = 0.0;
    for (pair, &(u, v, label)) in pulls.chunks(2).zip(examples) {
        let (uv, vv) = (pair[0].take(), pair[1].take());
        let dot: f64 = uv.iter().zip(&vv).map(|(a, b)| a * b).sum();
        let p = sigmoid(dot);
        let coef = LEARNING_RATE * (label - p);
        loss += if label > 0.5 {
            log_loss(dot)
        } else {
            log_loss(-dot)
        };
        let du: Vec<f64> = vv.iter().map(|x| coef * x).collect();
        let dv: Vec<f64> = uv.iter().map(|x| coef * x).collect();
        h.push_dense_in(wk.sim, &mut net, u, &du);
        h.push_dense_in(wk.sim, &mut net, v, &dv);
    }
    wk.sim.charge_flops(examples.len() as u64 * 8 * k as u64);
    net.flush(wk.sim);
    loss
}
