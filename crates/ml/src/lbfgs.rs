//! L-BFGS for logistic regression (§5.2.4's "modern optimizations") — a
//! showcase for DCV column ops: the history pairs `(s_i, y_i)` stay
//! co-located on the servers and only scalars reach the coordinator.
//!
//! The two-loop recursion runs in coefficient form (VL-BFGS: Chen, Wang &
//! Zhou, "Large-scale L-BFGS using MapReduce", NIPS 2014). The search
//! direction is `q = δ_g·g + Σ δ_si·s_i + δ_yi·y_i`; `two_loop` finds the
//! `2m + 1` coefficients from a small Gram table of the inner products
//! the recursion reads (`g·s_i`, `g·y_i`, `s_i·y_j`, `y_i·y_j`; never
//! `s·s`). So an iteration makes two PS round trips after its gradient job:
//!
//! 1. one [`PsBatch`]: a zip that writes the newest `y = g − prev_g`, then
//!    every dot that touches `g` or the newest pair (≤ 5m − 1). A server
//!    runs an envelope's sub-requests in order, so the dots see the new
//!    `y`. Every entry is a server-side dot straight from the vectors —
//!    none is derived by subtraction, which cancels catastrophically near
//!    convergence;
//! 2. one zip over `[w, g, prev_g, s_*, y_*]` that forms `q` per element
//!    and applies the step: `w −= STEP·q`, `s_cursor = −STEP·q`,
//!    `prev_g = g`, `g = 0`.

use std::sync::Arc;

use ps2_core::{BatchResult, Dcv, Ps2Context, PsBatch, WorkCtx, ZipSegs};
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
/// Columns per block of the step zip: its `q` stays in L1 across the
/// terms.
const STEP_BLOCK: usize = 1024;
/// Curvature floor: a pair with `s·y` at or below it is skipped (Nocedal &
/// Wright §7.2), and so is the γ scaling when `y·y` is.
const CURVATURE_EPS: f64 = 1e-12;

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

/// One inner product of the [`Gram`] table; indices are history slots.
#[derive(Clone, Copy)]
enum Entry {
    /// `g·s_i`
    Gs(usize),
    /// `g·y_i`
    Gy(usize),
    /// `s_i·y_j`
    Sy(usize, usize),
    /// `y_i·y_j` (symmetric)
    Yy(usize, usize),
}

/// The inner products the two-loop recursion reads, kept at the
/// coordinator between iterations.
struct Gram {
    gs: Vec<f64>,
    gy: Vec<f64>,
    /// `sy[i][j] = s_i·y_j`
    sy: Vec<Vec<f64>>,
    yy: Vec<Vec<f64>>,
}

impl Gram {
    fn new(m: usize) -> Gram {
        Gram {
            gs: vec![0.0; m],
            gy: vec![0.0; m],
            sy: vec![vec![0.0; m]; m],
            yy: vec![vec![0.0; m]; m],
        }
    }

    /// The entries a new gradient and a new newest pair (in slot `newest`)
    /// leave stale: all that touch `g`, and all that pair `newest` with a
    /// live slot — `2·|live| + (2·|live| − 1) + |live|` ≤ 5m − 1 dots.
    /// Entries among older pairs keep their values: those vectors did not
    /// change.
    fn stale(newest: usize, live: &[usize]) -> Vec<Entry> {
        let mut entries = Vec::with_capacity(5 * live.len());
        for &i in live {
            entries.extend([Entry::Gs(i), Entry::Gy(i)]);
        }
        for &i in live {
            entries.push(Entry::Sy(newest, i));
            if i != newest {
                entries.push(Entry::Sy(i, newest));
            }
            entries.push(Entry::Yy(newest, i));
        }
        entries
    }

    fn set(&mut self, entry: Entry, value: f64) {
        match entry {
            Entry::Gs(i) => self.gs[i] = value,
            Entry::Gy(i) => self.gy[i] = value,
            Entry::Sy(i, j) => self.sy[i][j] = value,
            Entry::Yy(i, j) => {
                self.yy[i][j] = value;
                self.yy[j][i] = value;
            }
        }
    }

    /// `1 / s_i·y_i`, or 0 (skip the pair) unless the curvature is positive.
    fn rho(&self, i: usize) -> f64 {
        let sy = self.sy[i][i];
        if sy > CURVATURE_EPS {
            1.0 / sy
        } else {
            0.0
        }
    }
}

/// A search direction as coefficients: `q = g·g + Σ s[i]·s_i + y[i]·y_i`.
#[derive(Debug, PartialEq)]
struct Direction {
    g: f64,
    s: Vec<f64>,
    y: Vec<f64>,
}

/// The L-BFGS two-loop recursion on scalars. `order` lists the live history
/// slots, most recent first; a pair whose `rho` is 0 is skipped, and `q` is
/// scaled by γ = `s·y / y·y` of the most recent pair between the loops.
fn two_loop(gram: &Gram, order: &[usize]) -> Direction {
    let m = gram.gs.len();
    let mut d = Direction {
        g: 1.0,
        s: vec![0.0; m],
        y: vec![0.0; m],
    };
    let mut alpha = vec![0.0; m];
    for &i in order {
        let rho = gram.rho(i);
        if rho == 0.0 {
            continue;
        }
        // q = δ_g·g + Σ δ_yj·y_j here: s_i·q needs no s·s.
        let sq: f64 = d.g * gram.gs[i] + order.iter().map(|&j| d.y[j] * gram.sy[i][j]).sum::<f64>();
        alpha[i] = rho * sq;
        d.y[i] -= alpha[i];
    }
    if let Some(&last) = order.first() {
        let yy = gram.yy[last][last];
        let rho = gram.rho(last);
        if yy > CURVATURE_EPS && rho != 0.0 {
            let gamma = 1.0 / (rho * yy);
            d.g *= gamma;
            d.s.iter_mut().chain(&mut d.y).for_each(|c| *c *= gamma);
        }
    }
    for &i in order.iter().rev() {
        let rho = gram.rho(i);
        if rho == 0.0 {
            continue;
        }
        let yq: f64 = d.g * gram.gy[i]
            + order
                .iter()
                .map(|&j| d.s[j] * gram.sy[j][i] + d.y[j] * gram.yy[i][j])
                .sum::<f64>();
        d.s[i] += alpha[i] - rho * yq;
    }
    d
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

    // Raw matrix rows: w, g, prev_g, then m × s_i and m × y_i. g starts
    // zero, and the step zip zeroes it for the next gradient job.
    let w_dcv = ps2.dense_dcv(ctx, gen.dim, (3 + 2 * m) as u32);
    let g = w_dcv.derive(ctx);
    let prev_g = w_dcv.derive(ctx);
    let s_hist: Vec<Dcv> = (0..m).map(|_| w_dcv.derive(ctx)).collect();
    let y_hist: Vec<Dcv> = (0..m).map(|_| w_dcv.derive(ctx)).collect();
    let mut gram = Gram::new(m);
    let mut filled = 0usize; // history entries valid
    let mut cursor = 0usize; // ring position of the next write

    let expected_batch = (gen.rows as f64 * cfg.batch_fraction).max(1.0);
    let mut trace = TrainingTrace::new("PS2-LBFGS");
    let start = ctx.now();

    for t in 1..=cfg.iterations {
        let it0 = ctx.now();
        // Gradient phase: workers push the batch gradient into g.
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

        // Round trip 1: the newest pair's y = g − prev_g (its s was written
        // last iteration), then every stale Gram entry.
        let order: Vec<usize> = (0..filled).map(|i| (cursor + m - 1 - i) % m).collect(); // most recent first
        if let Some(&newest) = order.first() {
            let mut trip = PsBatch::new();
            y_hist[newest].zip(&[&g, &prev_g]).map_partitions_in(
                ctx,
                &mut trip,
                Arc::new(|zs: &mut ZipSegs<'_>| {
                    let [y, g, prev_g] = &mut zs.segs[..] else {
                        unreachable!("the y zip reads three rows")
                    };
                    for (y, (g, prev_g)) in y.iter_mut().zip(g.iter().zip(prev_g.iter())) {
                        *y = g - prev_g;
                    }
                }),
                1,
            );
            let dots: Vec<(Entry, BatchResult<f64>)> = Gram::stale(newest, &order)
                .into_iter()
                .map(|entry| {
                    let (a, b) = match entry {
                        Entry::Gs(i) => (&g, &s_hist[i]),
                        Entry::Gy(i) => (&g, &y_hist[i]),
                        Entry::Sy(i, j) => (&s_hist[i], &y_hist[j]),
                        Entry::Yy(i, j) => (&y_hist[i], &y_hist[j]),
                    };
                    (entry, a.dot_in(&mut trip, b))
                })
                .collect();
            trip.flush(ctx);
            for (entry, dot) in dots {
                gram.set(entry, dot.take());
            }
        }

        // Round trip 2: form q per element and take the step.
        let dir = two_loop(&gram, &order);
        let dg = dir.g;
        let terms: Vec<(usize, f64)> = dir
            .s
            .iter()
            .chain(&dir.y)
            .copied()
            .enumerate()
            .filter(|&(_, c)| c != 0.0)
            .collect();
        let flops_per_elem = 2 * (1 + terms.len() as u64) + 3;
        let rows: Vec<&Dcv> = [&g, &prev_g]
            .into_iter()
            .chain(&s_hist)
            .chain(&y_hist)
            .collect();
        w_dcv.zip(&rows).map_partitions(
            ctx,
            Arc::new(move |zs: &mut ZipSegs<'_>| {
                let (fixed, hist) = zs.segs.split_at_mut(3);
                let [w, g, prev_g] = fixed else {
                    unreachable!("the step zip reads w, g and prev_g first")
                };
                let mut q = [0.0; STEP_BLOCK];
                for lo in (0..w.len()).step_by(STEP_BLOCK) {
                    let cols = lo..(lo + STEP_BLOCK).min(w.len());
                    let q = &mut q[..cols.len()];
                    // Column-major within the block: q = dg·g, then each
                    // term in order, so every element sums exactly as a
                    // per-element loop would.
                    for (q, g) in q.iter_mut().zip(&g[cols.clone()]) {
                        *q = dg * g;
                    }
                    for &(k, c) in &terms {
                        for (q, x) in q.iter_mut().zip(&hist[k][cols.clone()]) {
                            *q += c * x;
                        }
                    }
                    let steps = w[cols.clone()]
                        .iter_mut()
                        .zip(&mut hist[cursor][cols.clone()]);
                    let grads = prev_g[cols.clone()].iter_mut().zip(&mut g[cols.clone()]);
                    for (((w, s), (prev_g, g)), q) in steps.zip(grads).zip(q.iter()) {
                        *w -= STEP * q;
                        *s = -STEP * q;
                        *prev_g = *g;
                        *g = 0.0;
                    }
                }
            }),
            flops_per_elem,
        );
        cursor = (cursor + 1) % m;
        filled = (filled + 1).min(m);

        ctx.metric_add("ml.iterations", 1);
        ctx.metric_observe("ml.iteration", ctx.now() - it0);
        trace.record(start, ctx.now(), loss_sum / n.max(1) as f64);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// The textbook vector two-loop recursion (Nocedal & Wright Alg. 7.4)
    /// with the same skip and γ rules.
    fn vector_two_loop(g: &[f64], s: &[Vec<f64>], y: &[Vec<f64>], order: &[usize]) -> Vec<f64> {
        let rho = |i: usize| {
            let sy = dot(&s[i], &y[i]);
            if sy > CURVATURE_EPS {
                1.0 / sy
            } else {
                0.0
            }
        };
        let mut q = g.to_vec();
        let mut alpha = vec![0.0; s.len()];
        for &i in order {
            if rho(i) == 0.0 {
                continue;
            }
            alpha[i] = rho(i) * dot(&s[i], &q);
            q.iter_mut()
                .zip(&y[i])
                .for_each(|(q, y)| *q -= alpha[i] * y);
        }
        if let Some(&last) = order.first() {
            let yy = dot(&y[last], &y[last]);
            if yy > CURVATURE_EPS && rho(last) != 0.0 {
                let gamma = 1.0 / (rho(last) * yy);
                q.iter_mut().for_each(|q| *q *= gamma);
            }
        }
        for &i in order.iter().rev() {
            if rho(i) == 0.0 {
                continue;
            }
            let beta = rho(i) * dot(&y[i], &q);
            q.iter_mut()
                .zip(&s[i])
                .for_each(|(q, s)| *q += (alpha[i] - beta) * s);
        }
        q
    }

    /// `q` spelled out from its coefficients.
    fn materialize(d: &Direction, g: &[f64], s: &[Vec<f64>], y: &[Vec<f64>]) -> Vec<f64> {
        (0..g.len())
            .map(|e| {
                d.g * g[e]
                    + (0..s.len())
                        .map(|i| d.s[i] * s[i][e] + d.y[i] * y[i][e])
                        .sum::<f64>()
            })
            .collect()
    }

    fn rel_err(a: &[f64], b: &[f64]) -> f64 {
        let diff: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
        dot(&diff, &diff).sqrt() / dot(b, b).sqrt()
    }

    /// Nine iterations of a 40-dim ring of m = 5 (so it wraps), the Gram
    /// table kept up by [`Gram::stale`] alone, one pair with s·y < 0 (its
    /// rho is 0): the scalar recursion's direction matches the vector one.
    #[test]
    fn scalar_recursion_matches_the_vector_two_loop() {
        let (m, dim) = (HISTORY, 40);
        let mut rng = StdRng::seed_from_u64(11);
        let mut random = |scale: f64| -> Vec<f64> {
            (0..dim).map(|_| scale * rng.gen_range(-1.0..1.0)).collect()
        };
        let curvature: Vec<f64> = random(1.0).iter().map(|c| 1.5 + c).collect();
        let (mut s, mut y) = (vec![vec![0.0; dim]; m], vec![vec![0.0; dim]; m]);
        let mut gram = Gram::new(m);
        let (mut cursor, mut filled) = (0, 0);
        for t in 0..9 {
            let g = random(1.0);
            let order: Vec<usize> = (0..filled).map(|i| (cursor + m - 1 - i) % m).collect();
            if let Some(&n) = order.first() {
                let noise = random(0.1);
                y[n] = if t == 4 {
                    s[n].iter().map(|v| -v).collect()
                } else {
                    (0..dim)
                        .map(|e| curvature[e] * s[n][e] + noise[e])
                        .collect()
                };
                for entry in Gram::stale(n, &order) {
                    let value = match entry {
                        Entry::Gs(i) => dot(&g, &s[i]),
                        Entry::Gy(i) => dot(&g, &y[i]),
                        Entry::Sy(i, j) => dot(&s[i], &y[j]),
                        Entry::Yy(i, j) => dot(&y[i], &y[j]),
                    };
                    gram.set(entry, value);
                }
            }
            if t == 4 {
                assert_eq!(gram.rho(order[0]), 0.0, "the s·y < 0 pair is skipped");
            }
            let want = vector_two_loop(&g, &s, &y, &order);
            let got = materialize(&two_loop(&gram, &order), &g, &s, &y);
            let err = rel_err(&got, &want);
            assert!(err <= 1e-12, "iteration {t}: relative error {err:e}");
            s[cursor] = want.iter().map(|q| -STEP * q).collect();
            cursor = (cursor + 1) % m;
            filled = (filled + 1).min(m);
        }
    }

    #[test]
    fn a_full_ring_refreshes_five_m_minus_one_dots() {
        let order = [2, 1, 0, 4, 3];
        assert_eq!(Gram::stale(2, &order).len(), 5 * HISTORY - 1);
        assert_eq!(Gram::stale(0, &[0]).len(), 4);
    }

    /// A pair with s·y < 0 is skipped: the direction is the one the
    /// recursion gives without it.
    #[test]
    fn negative_curvature_pair_leaves_the_direction_unchanged() {
        let mut gram = Gram::new(HISTORY);
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..HISTORY {
            gram.gs[i] = rng.gen_range(-1.0..1.0);
            gram.gy[i] = rng.gen_range(-1.0..1.0);
            for j in 0..HISTORY {
                gram.sy[i][j] = rng.gen_range(-0.2..0.2);
            }
            for j in 0..=i {
                gram.set(Entry::Yy(i, j), rng.gen_range(-0.2..0.2));
            }
            gram.sy[i][i] = 1.0 + rng.gen_range(0.0..1.0);
            gram.yy[i][i] = 2.0 + rng.gen_range(0.0..1.0);
        }
        gram.sy[1][1] = -0.5;
        let with = two_loop(&gram, &[2, 1, 0]);
        let without = two_loop(&gram, &[2, 0]);
        assert_eq!(with, without);
        assert_ne!(
            two_loop(&gram, &[2, 0]),
            two_loop(&gram, &[2]),
            "pair 0 does count"
        );
    }
}
