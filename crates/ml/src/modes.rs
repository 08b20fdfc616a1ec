//! First-class consistency modes: one worker loop, three synchronization
//! disciplines.
//!
//! The same Spark-free pull → gradient → push topology runs under any
//! [`ConsistencyMode`] —
//!
//! * **BSP** — every iteration gated by the clock service with `bound = 0`
//!   (a barrier), pushes acknowledged before the iteration ends.
//! * **SSP(s)** — gated with `bound = s`, and push(t) overlaps
//!   compute(t+1): [`MatrixHandle::push_sparse_begin`] is the request
//!   fabric's `begin`, [`MatrixHandle::push_wait`] its `settle`.
//! * **async** — no clock traffic at all; free-running workers with
//!   pipelined pushes.
//!
//! Every mode pulls its mini-batch's columns from the servers each
//! iteration; the relaxed modes win by not waiting at the barrier and by
//! overlapping the push with the next compute. A worker still reads its own
//! writes while its push is unsettled: push(t) is sent before pull(t+1), one
//! link delivers in send order, and a server runs requests in arrival order.

use std::sync::Arc;

use parking_lot::Mutex;
use ps2_core::{InitKind, MatrixHandle, Partitioning, PsMaster};
use ps2_data::{Example, SparseDatasetGen};
use ps2_ps::{
    deploy_ps, ClockClient, ClockService, ConsistencyMode, PendingPush, DISK_BYTES_PER_SEC,
};
use ps2_simnet::{ProcId, SimBuilder, SimReport, SimTime};

use crate::lr::{distinct_cols, grad_aligned};
use crate::metrics::TrainingTrace;
use crate::sort_merge_pairs;
use crate::svm::{self, hinge_grad};

/// Configuration for a consistency-mode training run.
#[derive(Clone, Debug)]
pub struct ModeConfig {
    pub dataset: SparseDatasetGen,
    pub workers: usize,
    pub servers: usize,
    pub mode: ConsistencyMode,
    pub iterations: u32,
    pub learning_rate: f64,
    pub mini_batch: usize,
    /// Extra compute time per iteration for worker 0, simulating a
    /// straggler (heterogeneous hardware / co-located jobs).
    pub straggler_slowdown: SimTime,
    pub seed: u64,
}

impl ModeConfig {
    pub fn new(
        dataset: SparseDatasetGen,
        workers: usize,
        servers: usize,
        mode: ConsistencyMode,
    ) -> ModeConfig {
        ModeConfig {
            dataset,
            workers,
            servers,
            mode,
            iterations: 30,
            learning_rate: 2.0,
            mini_batch: 64,
            straggler_slowdown: SimTime::ZERO,
            seed: 11,
        }
    }
}

/// Which gradient the mode engine trains with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModeAlgo {
    /// Logistic regression (log loss).
    Lr,
    /// Linear SVM (hinge loss, L2 shrinkage).
    Svm,
}

impl ModeAlgo {
    pub fn label(&self) -> &'static str {
        match self {
            ModeAlgo::Lr => "lr",
            ModeAlgo::Svm => "svm",
        }
    }

    fn grad(&self, batch: &[Example], cols: &[u64], w: &[f64]) -> (Vec<f64>, f64) {
        match self {
            ModeAlgo::Lr => grad_aligned(batch, cols, w),
            ModeAlgo::Svm => hinge_grad(batch, cols, w),
        }
    }

    fn flops_per_nnz(&self) -> u64 {
        match self {
            ModeAlgo::Lr => 6,
            ModeAlgo::Svm => 5,
        }
    }

    /// The sparse update for one mini-batch, aligned with `cols`.
    fn update(
        &self,
        cols: &[u64],
        grad: &[f64],
        wv: &[f64],
        learning_rate: f64,
        mini_batch: usize,
    ) -> Vec<(u64, f64)> {
        let scale = learning_rate / mini_batch as f64;
        let pairs = match self {
            ModeAlgo::Lr => cols
                .iter()
                .zip(grad)
                .map(|(&j, &g)| (j, -scale * g))
                .collect(),
            // SGD step plus L2 shrinkage on the touched coordinates.
            ModeAlgo::Svm => cols
                .iter()
                .zip(grad.iter().zip(wv))
                .map(|(&j, (&g, &wj))| (j, -scale * g - learning_rate * svm::REG * wj))
                .collect(),
        };
        sort_merge_pairs(pairs)
    }
}

/// A worker's `[lo, hi)` row shard: contiguous ranges, remainders to the
/// tail workers.
pub fn shard_range(rows: u64, worker: usize, workers: usize) -> (u64, u64) {
    let w = worker as u64;
    let n = workers as u64;
    (w * rows / n, (w + 1) * rows / n)
}

/// The rows of worker-shard `(lo, hi)`'s mini-batch at iteration `t`: a
/// wrapped window of `mini_batch` consecutive rows starting at a
/// per-iteration offset *within* the shard.
///
/// The offset arithmetic is entirely shard-relative — the old SSP loop
/// added the absolute `lo` on both sides of the modulo, which aliased the
/// window and skewed every worker with `lo > 0` toward the front of its
/// shard (see the regression test in `tests/consistency_modes.rs`).
pub fn shard_batch_rows(shard: (u64, u64), t: u32, mini_batch: usize) -> Vec<u64> {
    let (lo, hi) = shard;
    let span = (hi - lo).max(1);
    let start = (t as u64 * 131) % span;
    (0..mini_batch as u64)
        .map(|i| lo + (start + i) % span)
        .collect()
}

/// One `(worker, iter, virtual secs, mean batch loss)` measurement.
type LossSample = (usize, u32, f64, f64);

/// Run mode-gated training on a dedicated (Spark-free) topology with the
/// default simulator. Returns the merged loss trace — per iteration index,
/// the mean loss and the mean completion time across workers — and the
/// simulation report.
pub fn run_mode(cfg: &ModeConfig, algo: ModeAlgo) -> (TrainingTrace, SimReport) {
    run_mode_with(SimBuilder::new(), cfg, algo)
}

/// [`run_mode`] on a caller-supplied simulator builder (tracing, telemetry
/// windows, …). The builder's seed is overridden by `cfg.seed`.
pub fn run_mode_with(
    builder: SimBuilder,
    cfg: &ModeConfig,
    algo: ModeAlgo,
) -> (TrainingTrace, SimReport) {
    let mut sim = builder.seed(cfg.seed).build();
    let (servers, storage) = deploy_ps(&mut sim, cfg.servers, DISK_BYTES_PER_SEC);
    // The clock service is spawned in every mode — async runs send it no
    // traffic, but keeping it pins identical ProcIds across modes, so runs
    // differ only in behavior, never in topology.
    let clock_proc = sim.spawn_agent_daemon("mode-clock", ClockService::new(cfg.workers));

    let samples: Arc<Mutex<Vec<LossSample>>> = Arc::new(Mutex::new(Vec::new()));

    // Spawn order fixes the ids: servers (0..S), storage (S), clock (S+1),
    // coordinator (S+2), then the workers.
    let worker_ids: Vec<ProcId> = (0..cfg.workers)
        .map(|w| ProcId(cfg.servers + 3 + w))
        .collect();
    {
        let cfg = cfg.clone();
        let worker_ids = worker_ids.clone();
        sim.spawn("mode-coordinator", move |ctx| {
            let mut master = PsMaster::new(servers, storage);
            let h = master.create_matrix(
                ctx,
                cfg.dataset.dim,
                1,
                Partitioning::Column,
                InitKind::Zero,
            );
            for &w in &worker_ids {
                ctx.send(w, 7, h.clone(), 64);
            }
        });
    }

    for w in 0..cfg.workers {
        let cfg = cfg.clone();
        let samples = Arc::clone(&samples);
        sim.spawn(&format!("mode-worker-{w}"), move |ctx| {
            let h: MatrixHandle = ctx.recv().downcast::<MatrixHandle>();
            let clock = ClockClient::new(clock_proc, w);
            let mut inflight: Option<PendingPush> = None;
            let gen = cfg.dataset.clone();
            let shard = shard_range(gen.rows, w, cfg.workers);
            let start = ctx.now();
            for t in 1..=cfg.iterations {
                // The consistency gate; async modes free-run.
                if let Some(bound) = cfg.mode.bound() {
                    let min = clock.wait(ctx, t, bound);
                    assert!(min + bound + 1 >= t, "clock grant out of bound");
                }
                let it0 = ctx.now();
                let batch: Vec<Example> = shard_batch_rows(shard, t, cfg.mini_batch)
                    .into_iter()
                    .map(|r| gen.example(r))
                    .collect();
                let cols = distinct_cols(&batch);
                let wv = h.pull_cols(ctx, 0, &cols);
                let (grad, loss) = algo.grad(&batch, &cols, &wv);
                let nnz: u64 = batch.iter().map(|e| e.features.len() as u64).sum();
                ctx.charge_flops(algo.flops_per_nnz() * nnz);
                if w == 0 {
                    // The straggler pays extra compute every iteration.
                    ctx.advance(cfg.straggler_slowdown);
                }
                let pairs = algo.update(&cols, &grad, &wv, cfg.learning_rate, cfg.mini_batch);
                if cfg.mode.pipelined() {
                    // Overlap: settle push(t-1) only now, then leave
                    // push(t) in flight across the next compute.
                    if let Some(p) = inflight.take() {
                        h.push_wait(ctx, p);
                    }
                    inflight = Some(h.push_sparse_begin(ctx, 0, &pairs));
                } else {
                    h.push_sparse(ctx, 0, &pairs);
                }
                if cfg.mode.bound().is_some() {
                    clock.report(ctx, t);
                }
                ctx.metric_add("ml.iterations", 1);
                ctx.metric_observe("ml.iteration", ctx.now() - it0);
                samples.lock().push((
                    w,
                    t,
                    (ctx.now() - start).as_secs_f64(),
                    loss / cfg.mini_batch as f64,
                ));
            }
            // Settle the last in-flight push before exiting.
            if let Some(p) = inflight.take() {
                h.push_wait(ctx, p);
            }
        });
    }

    let report = sim.run().expect("mode simulation failed");
    // Merge per-worker samples: per iteration, the mean loss and the mean
    // completion time across workers — under BSP everyone is
    // straggler-paced; under SSP/async the fast workers pull the mean down.
    let samples = samples.lock();
    let mut trace = TrainingTrace::new(format!("{}-{}", algo.label(), cfg.mode.label()));
    for t in 1..=cfg.iterations {
        let iter: Vec<&LossSample> = samples.iter().filter(|s| s.1 == t).collect();
        if iter.is_empty() {
            continue;
        }
        let time = iter.iter().map(|s| s.2).sum::<f64>() / iter.len() as f64;
        let loss = iter.iter().map(|s| s.3).sum::<f64>() / iter.len() as f64;
        trace.points.push((time, loss));
    }
    (trace, report)
}
