//! Logistic regression with mini-batch gradient descent, implemented
//! against five execution backends that reproduce the communication
//! structure of the systems compared in the paper (Figures 1, 9, 10, 13).

use std::cmp::Ordering;

use ps2_core::{Dcv, Ps2Context, PsBatch, Rdd, WorkCtx};
use ps2_data::{Example, SparseDatasetGen};
use ps2_simnet::{SimCtx, WireSize};

use crate::hyper::LrHyper;
use crate::metrics::{StepBreakdown, TrainingTrace};
use crate::optim::Optimizer;
use crate::sort_merge_pairs;

/// Which system's communication structure to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LrBackend {
    /// Spark MLlib: driver broadcasts the dense model, workers return dense
    /// gradients, the driver aggregates and updates — the "single-node
    /// bottleneck" of §2.
    SparkDriver,
    /// "PS-": parameter servers with pull/push only. Gradients go to the
    /// servers, but the optimizer update is done by workers that pull dense
    /// model slices and push them back (no server-side computation).
    PsPullPush,
    /// "PS2-": the full system — sparse pulls, gradient push, and the
    /// optimizer as a server-side DCV `zip`.
    Ps2Dcv,
    /// Petuum-style: parameter servers without sparse communication —
    /// workers pull the whole dense model and push dense updates (§6.3.1:
    /// "Petuum has to pull all of the model").
    PetuumStyle,
    /// DistML-style: dense pulls, sparse pushes, and an extra per-iteration
    /// monitor synchronization round.
    DistmlStyle,
}

impl LrBackend {
    pub fn label(&self, opt: &Optimizer) -> String {
        let prefix = match self {
            LrBackend::SparkDriver => "Spark",
            LrBackend::PsPullPush => "PS",
            LrBackend::Ps2Dcv => "PS2",
            LrBackend::PetuumStyle => "Petuum",
            LrBackend::DistmlStyle => "DistML",
        };
        format!("{prefix}-{}", opt.name())
    }
}

/// A complete LR training configuration.
#[derive(Clone, Debug)]
pub struct LrConfig {
    pub dataset: SparseDatasetGen,
    pub optimizer: Optimizer,
    pub hyper: LrHyper,
    pub iterations: usize,
}

impl LrConfig {
    pub fn new(dataset: SparseDatasetGen, optimizer: Optimizer, iterations: usize) -> LrConfig {
        LrConfig {
            dataset,
            optimizer,
            hyper: LrHyper::default(),
            iterations,
        }
    }
}

#[inline]
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Numerically stable `ln(1 + exp(-m))` (logistic loss at margin `m`).
#[inline]
pub fn log_loss(margin: f64) -> f64 {
    if margin > 0.0 {
        (-margin).exp().ln_1p()
    } else {
        -margin + margin.exp().ln_1p()
    }
}

/// Bits per digit of [`distinct_cols`]' radix sort: a 2048-entry count
/// table, two passes over a KDD-sized column space.
const RADIX_BITS: u32 = 11;

/// Sorted distinct feature columns of a batch — the sparse-pull working set.
/// An LSD radix sort, one pass per digit the largest key has.
pub fn distinct_cols(batch: &[Example]) -> Vec<u64> {
    let mut cols = Vec::with_capacity(batch_nnz(batch) as usize);
    for ex in batch {
        cols.extend(ex.features.iter().map(|&(j, _)| j));
    }
    let max = cols.iter().copied().max().unwrap_or(0);
    let passes = (u64::BITS - max.leading_zeros()).div_ceil(RADIX_BITS);
    let mut sorted = vec![0; cols.len()];
    for pass in 0..passes {
        let digit = |j: u64| ((j >> (pass * RADIX_BITS)) & ((1 << RADIX_BITS) - 1)) as usize;
        let mut next = [0usize; 1 << RADIX_BITS];
        for &j in &cols {
            next[digit(j)] += 1;
        }
        let mut start = 0;
        for slot in next.iter_mut() {
            (*slot, start) = (start, start + *slot);
        }
        for &j in &cols {
            let d = digit(j);
            sorted[next[d]] = j;
            next[d] += 1;
        }
        std::mem::swap(&mut cols, &mut sorted);
    }
    cols.dedup();
    cols
}

/// Positions in a sorted, distinct working set (a [`distinct_cols`]
/// result). The keys fall into the next power of two ≥ `cols.len()`
/// buckets by the high bits of their offset from the first key, so a
/// lookup reads one bucket's bounds and scans its keys. A bucket holds at
/// most as many keys as it is wide: on the generators' Pareto columns the
/// dense head sits a few keys per bucket, but keys packed into a span far
/// narrower than the set's range share a bucket and scan linearly.
pub(crate) struct ColIndex<'a> {
    cols: &'a [u64],
    first: u64,
    shift: u32,
    /// Bucket `b` holds `cols[starts[b]..starts[b + 1]]`.
    starts: Vec<usize>,
}

impl<'a> ColIndex<'a> {
    pub(crate) fn new(cols: &'a [u64]) -> ColIndex<'a> {
        let buckets = cols.len().next_power_of_two();
        let first = cols.first().copied().unwrap_or(0);
        let span = cols.last().map_or(0, |&last| last - first);
        // The fewest low bits to drop so that every offset fits `buckets`.
        let shift = (u64::BITS - span.leading_zeros()).saturating_sub(buckets.trailing_zeros());
        let mut starts = vec![0; buckets + 1];
        for &j in cols {
            starts[((j - first) >> shift) as usize + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        ColIndex {
            cols,
            first,
            shift,
            starts,
        }
    }

    /// The position of column `j`; panics if the working set lacks it.
    pub(crate) fn pos(&self, j: u64) -> usize {
        let b = (j.wrapping_sub(self.first) >> self.shift) as usize;
        if let Some(&[lo, hi]) = self.starts.get(b..b + 2) {
            if let Some(i) = self.cols[lo..hi].iter().position(|&c| c == j) {
                return lo + i;
            }
        }
        panic!("col {j} missing from working set");
    }
}

/// Gradient of the logistic loss over `batch`, aligned with `cols` (which
/// must contain every feature of the batch). Returns `(gradient, loss sum)`.
pub fn grad_aligned(batch: &[Example], cols: &[u64], w: &[f64]) -> (Vec<f64>, f64) {
    debug_assert_eq!(cols.len(), w.len());
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
        loss += log_loss(ym);
        let coef = -ex.label * sigmoid(-ym);
        for (&p, &(_, v)) in pos.iter().zip(ex.features.iter()) {
            grad[p] += coef * v;
        }
    }
    (grad, loss)
}

/// Same gradient against a full dense weight vector (the broadcast path).
pub fn grad_dense(batch: &[Example], w: &[f64]) -> (Vec<(u64, f64)>, f64) {
    let mut pairs = Vec::new();
    let mut loss = 0.0;
    for ex in batch {
        let margin = ex.dot_dense(w);
        let ym = ex.label * margin;
        loss += log_loss(ym);
        let coef = -ex.label * sigmoid(-ym);
        for &(j, v) in ex.features.iter() {
            pairs.push((j, coef * v));
        }
    }
    (sort_merge_pairs(pairs), loss)
}

fn batch_nnz(batch: &[Example]) -> u64 {
    batch.iter().map(|e| e.features.len() as u64).sum()
}

/// Train LR and return the loss-versus-time trace.
pub fn train_lr(
    ctx: &mut SimCtx,
    ps2: &mut Ps2Context,
    cfg: &LrConfig,
    backend: LrBackend,
) -> TrainingTrace {
    let gen = cfg.dataset.clone();
    let parts = gen.partitions;
    let gen2 = gen.clone();
    let data = ps2
        .spark
        .source(parts, move |p, w| {
            let rows = gen2.partition(p);
            w.sim.charge_mem(16 * batch_nnz(&rows));
            rows
        })
        .cache();
    // Materialize the cache before the timed loop (data loading is not part
    // of the figures' training time).
    let _ = ps2.spark.count(ctx, &data);

    match backend {
        LrBackend::SparkDriver => train_spark_driver(ctx, ps2, cfg, &data),
        _ => train_ps_family(ctx, ps2, cfg, &data, backend),
    }
}

// ---- Spark MLlib emulation ---------------------------------------------------

/// One partition's share of an MLlib gradient step, and the sum of several
/// once merged: the gradient as sorted `(column, value)` pairs, the loss sum
/// and example count, and the slowest partition's compute seconds (the
/// breakdown's gradient share).
struct GradPartial {
    grad: Vec<(u64, f64)>,
    loss: f64,
    count: u64,
    compute: f64,
    dim: u64,
}

impl WireSize for GradPartial {
    /// MLlib's `treeAggregate` ships dense gradient vectors: the loss,
    /// count and compute time, then `dim` values.
    fn wire_size(&self) -> u64 {
        24 + 8 * self.dim
    }
}

impl GradPartial {
    /// Spark's `combOp`: gradients summed by one linear pass over the two
    /// sorted lists, losses and counts added, the slower compute kept.
    fn merge(self, other: GradPartial) -> GradPartial {
        let mut grad = Vec::with_capacity(self.grad.len() + other.grad.len());
        let mut a = self.grad.into_iter().peekable();
        let mut b = other.grad.into_iter().peekable();
        while let (Some(&(i, u)), Some(&(j, v))) = (a.peek(), b.peek()) {
            if i <= j {
                a.next();
            }
            if j <= i {
                b.next();
            }
            grad.push(match i.cmp(&j) {
                Ordering::Less => (i, u),
                Ordering::Greater => (j, v),
                Ordering::Equal => (i, u + v),
            });
        }
        grad.extend(a);
        grad.extend(b);
        GradPartial {
            grad,
            loss: self.loss + other.loss,
            count: self.count + other.count,
            compute: self.compute.max(other.compute),
            dim: self.dim,
        }
    }
}

fn train_spark_driver(
    ctx: &mut SimCtx,
    ps2: &mut Ps2Context,
    cfg: &LrConfig,
    data: &Rdd<Example>,
) -> TrainingTrace {
    let dim = cfg.dataset.dim as usize;
    let lr = cfg.hyper.learning_rate;
    let expected_batch = (cfg.dataset.rows as f64 * cfg.hyper.mini_batch_fraction).max(1.0);
    let opt = cfg.optimizer;

    let mut trace = TrainingTrace::new(LrBackend::SparkDriver.label(&opt));
    let mut breakdown = StepBreakdown::default();

    let mut w = vec![0.0; dim];
    let mut aux: Vec<Vec<f64>> = (0..opt.aux_rows()).map(|_| vec![0.0; dim]).collect();

    let start = ctx.now();
    for t in 1..=cfg.iterations {
        let t0 = ctx.now();
        // (1) Model broadcast: the driver ships the dense model to every
        // executor, serializing on its out-NIC.
        let b = ps2.spark.broadcast(ctx, w.clone(), 8 * dim as u64);
        let t1 = ctx.now();

        // (2)+(3) Gradient calculation and aggregation through MLlib's
        // depth-2 `treeAggregate`: workers *compute* sparsely, but partials
        // travel (and merge) as dense vectors.
        let batch = data.sample(cfg.hyper.mini_batch_fraction, t as u64);
        let GradPartial {
            grad,
            loss: loss_sum,
            count: n,
            compute: max_compute,
            ..
        } = ps2
            .spark
            .reduce_partitions(
                ctx,
                &batch,
                move |examples, wk: &mut WorkCtx<'_, '_>| {
                    let c0 = wk.sim.now();
                    let wv = wk.broadcast(&b);
                    let (grad, loss) = grad_dense(examples, &wv);
                    wk.sim.charge_flops(6 * batch_nnz(examples));
                    GradPartial {
                        grad,
                        loss,
                        count: examples.len() as u64,
                        compute: (wk.sim.now() - c0).as_secs_f64(),
                        dim: dim as u64,
                    }
                },
                GradPartial::merge,
            )
            .expect("the sample keeps the dataset's partitions");
        let t2 = ctx.now();

        // (4) Model update at the driver.
        let mut g = vec![0.0; dim];
        for (j, v) in grad {
            g[j as usize] = v / expected_batch;
        }
        ctx.charge_flops(dim as u64 * (2 + opt.flops_per_elem()));
        {
            let mut aux_refs: Vec<&mut [f64]> = aux.iter_mut().map(|v| v.as_mut_slice()).collect();
            opt.apply(lr, t as i32, &mut w, &mut aux_refs, &g);
        }
        ps2.spark.drop_broadcast(ctx, b);
        let t3 = ctx.now();

        breakdown.broadcast += (t1 - t0).as_secs_f64();
        breakdown.gradient_calc += max_compute;
        breakdown.aggregation += ((t2 - t1).as_secs_f64() - max_compute).max(0.0);
        breakdown.model_update += (t3 - t2).as_secs_f64();
        ctx.metric_add("ml.iterations", 1);
        ctx.metric_observe("ml.iteration", ctx.now() - t0);
        trace.record(start, ctx.now(), loss_sum / (n.max(1) as f64));
    }
    let iters = cfg.iterations.max(1) as f64;
    breakdown.broadcast /= iters;
    breakdown.gradient_calc /= iters;
    breakdown.aggregation /= iters;
    breakdown.model_update /= iters;
    trace.breakdown = Some(breakdown);
    trace
}

// ---- parameter-server family -------------------------------------------------

/// The four parameter-server backends (every [`LrBackend`] but
/// `SparkDriver`), which differ only in how they pull, push and update.
fn train_ps_family(
    ctx: &mut SimCtx,
    ps2: &mut Ps2Context,
    cfg: &LrConfig,
    data: &Rdd<Example>,
    backend: LrBackend,
) -> TrainingTrace {
    let dim = cfg.dataset.dim;
    let lr = cfg.hyper.learning_rate;
    let expected_batch = (cfg.dataset.rows as f64 * cfg.hyper.mini_batch_fraction).max(1.0);
    let opt = cfg.optimizer;
    let mut trace = TrainingTrace::new(backend.label(&opt));

    // SGD with direct scaled pushes needs only `w`; stateful optimizers
    // need the aux vectors and a gradient accumulator.
    let direct_sgd = matches!(opt, Optimizer::Sgd) && backend != LrBackend::PsPullPush;
    let k = if direct_sgd { 1 } else { 2 + opt.aux_rows() };
    let w = ps2.dense_dcv(ctx, dim, k);
    let aux: Vec<Dcv> = (0..opt.aux_rows()).map(|_| w.derive(ctx)).collect();
    let g = if direct_sgd {
        None
    } else {
        Some(w.derive(ctx))
    };

    // The worker-slice update job for pull/push mode.
    let workers = ps2.spark.num_executors();
    let slices = ps2.spark.source(workers, |p, _w| vec![p as u64]);

    let start = ctx.now();
    for t in 1..=cfg.iterations {
        let it0 = ctx.now();
        let batch = data.sample(cfg.hyper.mini_batch_fraction, t as u64);
        let wd = w.clone();
        let gd = g.clone();
        let scale = 1.0 / expected_batch;
        let dense_pull = matches!(backend, LrBackend::PetuumStyle | LrBackend::DistmlStyle);
        let dense_push = backend == LrBackend::PetuumStyle;

        // Gradient phase (workers).
        let results = ps2
            .spark
            .run_job(
                ctx,
                &batch,
                move |examples, wk: &mut WorkCtx<'_, '_>| {
                    if examples.is_empty() {
                        return (0.0, 0u64);
                    }
                    let (pairs, loss) = if dense_pull {
                        let wv = wd.pull(wk.sim);
                        grad_dense(examples, &wv)
                    } else {
                        let cols = distinct_cols(examples);
                        let wv = wd.pull_indices(wk.sim, &cols);
                        let (grad, loss) = grad_aligned(examples, &cols, &wv);
                        (cols.into_iter().zip(grad).collect::<Vec<_>>(), loss)
                    };
                    wk.sim.charge_flops(6 * batch_nnz(examples));
                    let target = gd.as_ref().unwrap_or(&wd);
                    let factor = if gd.is_some() { scale } else { -lr * scale };
                    if dense_push {
                        let mut dense = vec![0.0; wd.dim() as usize];
                        for (j, v) in &pairs {
                            dense[*j as usize] = v * factor;
                        }
                        target.add_dense(wk.sim, &dense);
                    } else {
                        let scaled: Vec<(u64, f64)> =
                            pairs.into_iter().map(|(j, v)| (j, v * factor)).collect();
                        target.add_sparse(wk.sim, &scaled);
                    }
                    (loss, examples.len() as u64)
                },
                |_r| 24,
            )
            .expect("gradient job failed");
        // The action return is the paper's global barrier (Figure 3 line 19).

        // Model update phase.
        if let Some(gdcv) = &g {
            match backend {
                LrBackend::Ps2Dcv => {
                    // Server-side zip over [w, aux.., g]; no model bytes
                    // move. The zip and the gradient-reset coalesce into one
                    // envelope per server — one round trip per iteration for
                    // the whole update phase.
                    let rows: Vec<&Dcv> = aux.iter().chain(std::iter::once(gdcv)).collect();
                    let mut update = PsBatch::new();
                    w.zip(&rows).map_partitions_in(
                        ctx,
                        &mut update,
                        opt.zip_fn(lr, t as i32),
                        opt.flops_per_elem(),
                    );
                    gdcv.zero_in(ctx, &mut update);
                    update.flush(ctx);
                }
                _ => {
                    // Without server-side computation the update runs on the
                    // workers. The pull/push interface is *row-granular*
                    // (the §4.1 limitation DCV exists to fix), so every
                    // worker pulls the full model rows, updates its 1/W
                    // slice locally, and pushes that slice's deltas back as
                    // a sparse row update.
                    let wd = w.clone();
                    let auxd = aux.clone();
                    let gdcv = gdcv.clone();
                    let nw = workers as u64;
                    let dim_ = dim;
                    let t_ = t as i32;
                    ps2.spark
                        .for_each_partition(ctx, &slices, move |ids, wk| {
                            let r = ids[0];
                            let lo = (r * dim_ / nw) as usize;
                            let hi = ((r + 1) * dim_ / nw) as usize;
                            if lo == hi {
                                return;
                            }
                            // Row-granular pulls: the whole of every vector.
                            let wv_full = wd.pull(wk.sim);
                            let auxv_full: Vec<Vec<f64>> =
                                auxd.iter().map(|a| a.pull(wk.sim)).collect();
                            let gv_full = gdcv.pull(wk.sim);
                            let mut wv = wv_full[lo..hi].to_vec();
                            let w_old = wv.clone();
                            let mut auxv: Vec<Vec<f64>> =
                                auxv_full.iter().map(|a| a[lo..hi].to_vec()).collect();
                            let aux_old = auxv.clone();
                            let gv = &gv_full[lo..hi];
                            let mut aux_refs: Vec<&mut [f64]> =
                                auxv.iter_mut().map(|v| v.as_mut_slice()).collect();
                            opt.apply(lr, t_, &mut wv, &mut aux_refs, gv);
                            wk.sim.charge_flops((hi - lo) as u64 * opt.flops_per_elem());
                            // Sparse row updates for the owned slice.
                            let delta_pairs = |new: &[f64], old: &[f64]| -> Vec<(u64, f64)> {
                                new.iter()
                                    .zip(old)
                                    .enumerate()
                                    .filter(|(_, (n, o))| *n != *o)
                                    .map(|(i, (n, o))| ((lo + i) as u64, n - o))
                                    .collect()
                            };
                            wd.add_sparse(wk.sim, &delta_pairs(&wv, &w_old));
                            for (a, (new_a, old_a)) in auxd.iter().zip(auxv.iter().zip(&aux_old)) {
                                a.add_sparse(wk.sim, &delta_pairs(new_a, old_a));
                            }
                            let neg_g: Vec<(u64, f64)> = gv
                                .iter()
                                .enumerate()
                                .filter(|(_, v)| **v != 0.0)
                                .map(|(i, v)| ((lo + i) as u64, -v))
                                .collect();
                            gdcv.add_sparse(wk.sim, &neg_g);
                        })
                        .expect("update job failed");
                }
            }
        }

        if backend == LrBackend::DistmlStyle {
            // DistML's monitor: an extra coordination round per iteration.
            let dummy = ps2.spark.count(ctx, &slices);
            let _ = dummy;
        }

        let mut loss_sum = 0.0;
        let mut n = 0u64;
        for (loss, cnt) in results {
            loss_sum += loss;
            n += cnt;
        }
        ctx.metric_add("ml.iterations", 1);
        ctx.metric_observe("ml.iteration", ctx.now() - it0);
        trace.record(start, ctx.now(), loss_sum / (n.max(1) as f64));
    }
    trace
}

/// MLlib\* (the paper's reference \[34\]): Spark MLlib improved with local
/// model replicas and ring-AllReduce model averaging instead of driver
/// aggregation. No parameter servers at all; requires one partition per
/// worker. Included as the strongest driver-free baseline.
pub fn train_lr_mllib_star(
    ctx: &mut SimCtx,
    ps2: &mut Ps2Context,
    cfg: &LrConfig,
) -> TrainingTrace {
    assert!(
        matches!(cfg.optimizer, Optimizer::Sgd),
        "MLlib* emulation implements SGD with model averaging"
    );
    let gen = cfg.dataset.clone();
    let workers = ps2.spark.num_executors();
    assert_eq!(
        gen.partitions, workers,
        "MLlib* needs one partition per worker (AllReduce ranks)"
    );
    let dim = gen.dim as usize;
    let lr = cfg.hyper.learning_rate;
    let fraction = cfg.hyper.mini_batch_fraction;
    let expected_batch = (gen.rows as f64 * fraction / workers as f64).max(1.0);
    let gen2 = gen.clone();
    let data = ps2
        .spark
        .source(workers, move |p, w| {
            let rows = gen2.partition(p);
            w.sim.charge_mem(16 * batch_nnz(&rows));
            rows
        })
        .cache();
    let _ = ps2.spark.count(ctx, &data);

    let peers: Vec<ps2_simnet::ProcId> = ps2.spark.executors().to_vec();
    let mut trace = TrainingTrace::new("MLlib*-SGD");
    const KEY_MODEL: u64 = 0x57;
    let start = ctx.now();
    for t in 1..=cfg.iterations {
        let it0 = ctx.now();
        let batch = data.sample(fraction, t as u64);
        let peers_c = peers.clone();
        let nw = workers as f64;
        let results = ps2
            .spark
            .run_job(
                ctx,
                &batch,
                move |examples, wk: &mut WorkCtx<'_, '_>| {
                    let mut w: Vec<f64> =
                        wk.take_state(KEY_MODEL).unwrap_or_else(|| vec![0.0; dim]);
                    // Local SGD step on the replica.
                    let (pairs, loss) = grad_dense(examples, &w);
                    for (j, g) in &pairs {
                        w[*j as usize] -= lr * g / expected_batch;
                    }
                    wk.sim.charge_flops(6 * batch_nnz(examples));
                    // Model averaging via ring AllReduce.
                    ps2_dataflow::ring_allreduce_sum(wk, &peers_c, wk.partition, &mut w);
                    for wi in w.iter_mut() {
                        *wi /= nw;
                    }
                    wk.sim.charge_flops(dim as u64);
                    wk.put_state(KEY_MODEL, w);
                    (loss, examples.len() as u64)
                },
                |_| 24,
            )
            .expect("mllib* iteration failed");
        let (loss_sum, n): (f64, u64) = results
            .into_iter()
            .fold((0.0, 0), |(l, c), (li, ci)| (l + li, c + ci));
        ctx.metric_add("ml.iterations", 1);
        ctx.metric_observe("ml.iteration", ctx.now() - it0);
        trace.record(start, ctx.now(), loss_sum / n.max(1) as f64);
    }
    trace
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use proptest::prelude::*;

    use super::*;

    /// The working set spelled out: every key of the batch, sorted, once.
    fn sorted_dedup(batch: &[Example]) -> Vec<u64> {
        let mut cols: Vec<u64> = batch
            .iter()
            .flat_map(|ex| ex.features.iter().map(|&(j, _)| j))
            .collect();
        cols.sort();
        cols.dedup();
        cols
    }

    /// The gradient with every position found by `binary_search`, in the
    /// kernel's operation order.
    fn grad_by_binary_search(batch: &[Example], cols: &[u64], w: &[f64]) -> (Vec<f64>, f64) {
        let pos = |j: u64| cols.binary_search(&j).unwrap();
        let mut grad = vec![0.0; cols.len()];
        let mut loss = 0.0;
        for ex in batch {
            let mut margin = 0.0;
            for &(j, v) in ex.features.iter() {
                margin += w[pos(j)] * v;
            }
            let ym = ex.label * margin;
            loss += log_loss(ym);
            let coef = -ex.label * sigmoid(-ym);
            for &(j, v) in ex.features.iter() {
                grad[pos(j)] += coef * v;
            }
        }
        (grad, loss)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One drawn row: its label's sign and its non-zeros as
    /// `(kind, raw key, value)`.
    type RawRow = (bool, Vec<(u8, u64, f64)>);

    /// A batch from raw draws: each non-zero's `kind` picks its key's range
    /// (a dense head with many repeats, a KDD-sized column space, keys
    /// above 2³², or the whole `u64` domain).
    fn batch_of(rows: &[RawRow]) -> Vec<Example> {
        rows.iter()
            .map(|(positive, nnz)| Example {
                label: if *positive { 1.0 } else { -1.0 },
                features: Arc::new(
                    nnz.iter()
                        .map(|&(kind, raw, v)| {
                            let key = match kind {
                                0 => raw % 64,
                                1 => raw % 546_000,
                                2 => (1 << 32) + raw % (1 << 40),
                                _ => raw,
                            };
                            (key, v)
                        })
                        .collect(),
                ),
            })
            .collect()
    }

    /// Checks both kernels on `batch` against their references, bit for bit.
    fn check(batch: &[Example]) -> Result<(), TestCaseError> {
        let cols = distinct_cols(batch);
        prop_assert_eq!(&cols, &sorted_dedup(batch));
        let w: Vec<f64> = cols
            .iter()
            .map(|&j| (j % 1999) as f64 / 999.5 - 1.0)
            .collect();
        let (grad, loss) = grad_aligned(batch, &cols, &w);
        let (want, want_loss) = grad_by_binary_search(batch, &cols, &w);
        prop_assert_eq!(bits(&grad), bits(&want));
        prop_assert_eq!(loss.to_bits(), want_loss.to_bits());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn working_set_kernels_match_their_references(
            rows in prop::collection::vec(
                (
                    any::<bool>(),
                    prop::collection::vec((0u8..4, any::<u64>(), -2.0f64..2.0), 0..24),
                ),
                0..40,
            ),
        ) {
            check(&batch_of(&rows))?;
        }
    }

    #[test]
    fn working_set_kernels_on_edge_batches() {
        let one = |label: f64, features: Vec<(u64, f64)>| Example {
            label,
            features: Arc::new(features),
        };
        let cases: Vec<Vec<Example>> = vec![
            Vec::new(),
            vec![one(1.0, Vec::new())],
            vec![
                one(1.0, vec![(7, 0.5)]),
                one(-1.0, vec![(7, -1.5), (7, 2.0)]),
            ],
            vec![one(-1.0, vec![(0, 1.0)])],
            vec![one(1.0, vec![(u64::MAX, 1.0), (1 << 32, -0.25), (0, 3.0)])],
            vec![
                one(1.0, vec![((1 << 33) + 5, 1.0), (1 << 33, 2.0)]),
                one(-1.0, vec![((1 << 33) + 5, -1.0), ((1 << 63) + 1, 0.5)]),
            ],
        ];
        for batch in &cases {
            check(batch).unwrap();
        }
    }
}
