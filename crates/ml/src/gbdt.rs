//! Gradient Boosted Decision Trees (paper §5.2.3, Figures 7/8, evaluated in
//! Figure 11 against XGBoost).
//!
//! Histogram-based GBDT for binary classification with logistic loss. Per
//! tree node (the paper's Figure 8 loop) the workers build first- and
//! second-order gradient histograms over `(feature, bin)` cells; the split
//! is found from the aggregated histograms. The two backends differ only in
//! *where the histograms meet*:
//!
//! * **PS2** — workers `add` their partial histograms to two co-located
//!   DCVs (`gradHist`, `hessHist`); split finding runs server-side as a
//!   `zip`-argmax, so only the winning `(gain, cell)` crosses the network.
//! * **XGBoost-style** — workers ring-AllReduce the full histograms among
//!   themselves (`2·(W-1)/W · |H|` values each way, `2(W-1)` sequential
//!   latency steps), then each finds the split locally — the cost the paper
//!   blames for XGBoost's slowdown (§6.3.2).

use std::sync::Arc;

use ps2_core::Ps2Context;
use ps2_data::{Example, SparseDatasetGen};
use ps2_dataflow::ring_allreduce_sum;
use ps2_simnet::{ProcId, SimCtx};

use crate::hyper::GbdtHyper;
use crate::lr::{log_loss, sigmoid};
use crate::metrics::TrainingTrace;

/// Shrinkage applied to every leaf weight (paper Table 4:
/// `learning_rate = 0.1`).
pub(crate) const LEARNING_RATE: f64 = 0.1;
/// Minimum hessian mass per child for a split to be accepted.
const MIN_CHILD_WEIGHT: f64 = 1.0;
/// L2 regularization on leaf weights.
const LAMBDA: f64 = 1.0;

/// Execution backend for GBDT.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GbdtBackend {
    /// Histograms on parameter servers, server-side split finding.
    Ps2Dcv,
    /// Ring-AllReduce of histograms among workers.
    XgboostStyle,
}

impl GbdtBackend {
    pub fn label(&self) -> &'static str {
        match self {
            GbdtBackend::Ps2Dcv => "PS2-GBDT",
            GbdtBackend::XgboostStyle => "XGBoost",
        }
    }
}

/// GBDT training configuration.
#[derive(Clone, Debug)]
pub struct GbdtConfig {
    pub dataset: SparseDatasetGen,
    pub hyper: GbdtHyper,
}

/// One node of a regression tree, in array form.
#[derive(Clone, Copy, Debug)]
pub enum TreeNode {
    /// Internal: instances with `feature` present and `bin(value) <= bin`
    /// go left; others (including absent) go right.
    Split {
        feature: u32,
        bin: u32,
    },
    Leaf {
        weight: f64,
    },
    /// Not expanded (child indices beyond the frontier).
    Empty,
}

/// A complete tree: heap-ordered nodes (children of `i` at `2i+1`, `2i+2`).
#[derive(Clone, Debug)]
pub struct Tree {
    pub nodes: Vec<TreeNode>,
    pub bins: u32,
}

impl Tree {
    fn new(max_depth: usize, bins: u32) -> Tree {
        Tree {
            nodes: vec![TreeNode::Empty; (1 << (max_depth + 1)) - 1],
            bins,
        }
    }

    /// Route an example to its leaf weight.
    pub fn predict(&self, ex: &Example) -> f64 {
        let mut i = 0usize;
        loop {
            match self.nodes[i] {
                TreeNode::Leaf { weight } => return weight,
                TreeNode::Empty => return 0.0,
                TreeNode::Split { feature, bin } => {
                    let goes_left = ex
                        .features
                        .binary_search_by_key(&(feature as u64), |&(j, _)| j)
                        .map(|pos| value_bin(ex.features[pos].1, self.bins) <= bin)
                        .unwrap_or(false);
                    i = if goes_left { 2 * i + 1 } else { 2 * i + 2 };
                }
            }
        }
    }
}

#[inline]
fn value_bin(v: f64, bins: u32) -> u32 {
    ((v * bins as f64) as u32).min(bins - 1)
}

/// XGBoost gain for a split, with L2 regularization.
#[inline]
fn gain(gl: f64, hl: f64, g: f64, h: f64, lambda: f64) -> f64 {
    let gr = g - gl;
    let hr = h - hl;
    0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - g * g / (h + lambda))
}

/// Scan one histogram pair for the best split among the features whose bins
/// lie entirely in `[lo, lo + seg_len)`. Returns `(gain, global cell idx)`.
fn best_split_in_segment(
    grad: &[f64],
    hess: &[f64],
    lo: u64,
    bins: u32,
    node_g: f64,
    node_h: f64,
) -> (f64, u64) {
    let b = bins as u64;
    let hi = lo + grad.len() as u64;
    let first_feat = lo.div_ceil(b);
    let mut best = (f64::NEG_INFINITY, u64::MAX);
    let mut f = first_feat;
    while (f + 1) * b <= hi {
        let off = (f * b - lo) as usize;
        let (mut gl, mut hl) = (0.0, 0.0);
        for t in 0..(b as usize - 1) {
            gl += grad[off + t];
            hl += hess[off + t];
            if hl < MIN_CHILD_WEIGHT || node_h - hl < MIN_CHILD_WEIGHT {
                continue;
            }
            let gn = gain(gl, hl, node_g, node_h, LAMBDA);
            let cell = f * b + t as u64;
            if gn > best.0 || (gn == best.0 && cell < best.1) {
                best = (gn, cell);
            }
        }
        f += 1;
    }
    best
}

/// Features whose bin ranges straddle a boundary of `plan_ranges` — their
/// split scan cannot run inside one server and is fixed up client-side.
fn straddling_features(ranges: &[(u64, u64)], bins: u32, n_features: u32) -> Vec<u32> {
    let b = bins as u64;
    let mut out = Vec::new();
    for &(lo, _hi) in ranges.iter().skip(1) {
        if lo % b != 0 {
            let f = (lo / b) as u32;
            if f < n_features {
                out.push(f);
            }
        }
    }
    out.dedup();
    out
}

/// Build one local histogram pair for the instances currently in `node`.
fn build_local_histograms(
    examples: &[Example],
    assign: &[u32],
    grads: &[(f64, f64)],
    node: u32,
    bins: u32,
    cells: usize,
) -> (Vec<f64>, Vec<f64>, f64, f64, u64) {
    let mut gh = vec![0.0; cells];
    let mut hh = vec![0.0; cells];
    let (mut ng, mut nh) = (0.0, 0.0);
    let mut count = 0u64;
    for (i, ex) in examples.iter().enumerate() {
        if assign[i] != node {
            continue;
        }
        let (g, h) = grads[i];
        ng += g;
        nh += h;
        count += 1;
        for &(j, v) in ex.features.iter() {
            let cell = j as usize * bins as usize + value_bin(v, bins) as usize;
            gh[cell] += g;
            hh[cell] += h;
        }
    }
    (gh, hh, ng, nh, count)
}

// Known limitation: the per-partition assignment/gradient state lives in
// executor memory between stages. An executor lost *mid-tree* cannot
// rebuild it (it would require replaying the partial tree against the
// partition), so GBDT training aborts on mid-tree executor loss rather than
// recovering; losses between trees are tolerated (state is rebuilt from the
// margins at each tree start, and margins re-derive from the model).

/// State keys in the executor-resident store.
const KEY_MARGIN: u64 = 0x6d61;
const KEY_ASSIGN: u64 = 0x6173;
const KEY_GRADS: u64 = 0x6772;

/// Train a GBDT model; returns `(trace, trees)`. The trace has one point
/// per tree: `(virtual time, mean training logloss after that tree)`.
pub fn train_gbdt(
    ctx: &mut SimCtx,
    ps2: &mut Ps2Context,
    cfg: &GbdtConfig,
    backend: GbdtBackend,
) -> (TrainingTrace, Vec<Tree>) {
    let gen = cfg.dataset.clone();
    let parts = gen.partitions;
    let workers = ps2.spark.num_executors();
    if backend == GbdtBackend::XgboostStyle {
        assert_eq!(
            parts, workers,
            "the AllReduce backend needs exactly one partition per worker"
        );
    }
    let bins = cfg.hyper.histogram_bins as u32;
    let n_features = gen.dim as u32;
    let cells = (gen.dim * bins as u64) as usize;
    let max_depth = cfg.hyper.max_depth;

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

    // The PS2 histograms: gradHist = dense(cells, 2), hessHist derived
    // (paper Figure 8 lines 2-3), reused across nodes.
    let (grad_hist, hess_hist) = if backend == GbdtBackend::Ps2Dcv {
        let g = ps2.dense_dcv(ctx, cells as u64, 2);
        let h = g.derive(ctx);
        (Some(g), Some(h))
    } else {
        (None, None)
    };
    let executors: Vec<ProcId> = ps2.spark.executors().to_vec();

    let mut trace = TrainingTrace::new(backend.label());
    let mut trees: Vec<Tree> = Vec::with_capacity(cfg.hyper.num_trees);
    let start = ctx.now();

    for _tree_idx in 0..cfg.hyper.num_trees {
        // Phase A: refresh gradients from current margins; reset assignment.
        ps2.spark
            .for_each_partition(ctx, &data, move |examples, w| {
                let margins: Vec<f64> = w
                    .take_state(KEY_MARGIN)
                    .unwrap_or_else(|| vec![0.0; examples.len()]);
                let grads: Vec<(f64, f64)> = examples
                    .iter()
                    .zip(&margins)
                    .map(|(ex, &m)| {
                        let p = sigmoid(m);
                        let y01 = if ex.label > 0.0 { 1.0 } else { 0.0 };
                        (p - y01, (p * (1.0 - p)).max(1e-12))
                    })
                    .collect();
                w.sim.charge_flops(4 * examples.len() as u64);
                w.put_state(KEY_MARGIN, margins);
                w.put_state(KEY_GRADS, grads);
                w.put_state(KEY_ASSIGN, vec![0u32; examples.len()]);
            })
            .expect("gradient refresh failed");

        // Phase B: grow the tree node by node (paper Figure 8's loop).
        let mut tree = Tree::new(max_depth, bins);
        // Frontier entries: (node index, depth, node G, node H, count).
        // Root stats are discovered by its histogram build.
        let mut frontier: Vec<(usize, usize)> = vec![(0, 0)];
        while let Some((node, depth)) = frontier.pop() {
            // B1: build + aggregate histograms for this node.
            let (node_g, node_h, count, split) = match backend {
                GbdtBackend::Ps2Dcv => {
                    let gh = grad_hist.as_ref().unwrap();
                    let hh = hess_hist.as_ref().unwrap();
                    gh.zero(ctx);
                    hh.zero(ctx);
                    let ghc = gh.clone();
                    let hhc = hh.clone();
                    let node_u = node as u32;
                    let stats = ps2
                        .spark
                        .run_job(
                            ctx,
                            &data,
                            move |examples, w| {
                                let assign: Vec<u32> =
                                    w.take_state(KEY_ASSIGN).expect("assignment missing");
                                let grads: Vec<(f64, f64)> =
                                    w.take_state(KEY_GRADS).expect("grads missing");
                                let (lg, lh, ng, nh, cnt) = build_local_histograms(
                                    examples, &assign, &grads, node_u, bins, cells,
                                );
                                w.sim.charge_flops(
                                    4 * examples
                                        .iter()
                                        .map(|e| e.features.len() as u64)
                                        .sum::<u64>(),
                                );
                                ghc.add_dense(w.sim, &lg);
                                hhc.add_dense(w.sim, &lh);
                                w.put_state(KEY_ASSIGN, assign);
                                w.put_state(KEY_GRADS, grads);
                                (ng, nh, cnt)
                            },
                            |_| 32,
                        )
                        .expect("histogram job failed");
                    let (mut g, mut h, mut c) = (0.0, 0.0, 0u64);
                    for (ng, nh, cnt) in stats {
                        g += ng;
                        h += nh;
                        c += cnt;
                    }
                    // B2: server-side split finding over complete features…
                    let (mut best_gain, mut best_cell) = gh.zip(&[hh]).map_argmax(
                        ctx,
                        Arc::new(move |segs, lo| {
                            best_split_in_segment(segs[0], segs[1], lo, bins, g, h)
                        }),
                        3,
                    );
                    // …plus a client-side fix-up for boundary-straddling
                    // features (their bins span two servers).
                    let plan_ranges: Vec<(u64, u64)> = gh
                        .matrix()
                        .plan
                        .column_ranges()
                        .iter()
                        .map(|&(_, lo, hi)| (lo, hi))
                        .collect();
                    for f in straddling_features(&plan_ranges, bins, n_features) {
                        let lo = f as u64 * bins as u64;
                        let hi = lo + bins as u64;
                        let cols: Vec<u64> = (lo..hi).collect();
                        let gvals = gh.pull_indices(ctx, &cols);
                        let hvals = hh.pull_indices(ctx, &cols);
                        let (gn, cell) = best_split_in_segment(&gvals, &hvals, lo, bins, g, h);
                        if gn > best_gain {
                            best_gain = gn;
                            best_cell = cell;
                        }
                    }
                    (g, h, c, (best_gain, best_cell))
                }
                GbdtBackend::XgboostStyle => {
                    let peers = executors.clone();
                    let node_u = node as u32;
                    let results = ps2
                        .spark
                        .run_job(
                            ctx,
                            &data,
                            move |examples, w| {
                                let assign: Vec<u32> =
                                    w.take_state(KEY_ASSIGN).expect("assignment missing");
                                let grads: Vec<(f64, f64)> =
                                    w.take_state(KEY_GRADS).expect("grads missing");
                                let (mut lg, mut lh, ng, nh, cnt) = build_local_histograms(
                                    examples, &assign, &grads, node_u, bins, cells,
                                );
                                w.sim.charge_flops(
                                    4 * examples
                                        .iter()
                                        .map(|e| e.features.len() as u64)
                                        .sum::<u64>(),
                                );
                                w.put_state(KEY_ASSIGN, assign);
                                w.put_state(KEY_GRADS, grads);
                                // AllReduce both histograms and the node stats.
                                let rank = w.partition;
                                let mut stats = vec![ng, nh, cnt as f64];
                                ring_allreduce_sum(w, &peers, rank, &mut lg);
                                ring_allreduce_sum(w, &peers, rank, &mut lh);
                                ring_allreduce_sum(w, &peers, rank, &mut stats);
                                // Every worker finds the split locally.
                                let (gn, cell) =
                                    best_split_in_segment(&lg, &lh, 0, bins, stats[0], stats[1]);
                                w.sim.charge_flops(3 * cells as u64);
                                (stats[0], stats[1], stats[2] as u64, gn, cell)
                            },
                            |_| 48,
                        )
                        .expect("histogram job failed");
                    let (g, h, c, gn, cell) = results[0];
                    (g, h, c, (gn, cell))
                }
            };

            // B3: decide split vs leaf.
            let (best_gain, best_cell) = split;
            let make_leaf =
                depth >= max_depth || count < 2 || best_gain <= 1e-9 || best_cell == u64::MAX;
            if make_leaf {
                tree.nodes[node] = TreeNode::Leaf {
                    weight: -LEARNING_RATE * node_g / (node_h + LAMBDA),
                };
                continue;
            }
            let feature = (best_cell / bins as u64) as u32;
            let bin = (best_cell % bins as u64) as u32;
            tree.nodes[node] = TreeNode::Split { feature, bin };
            frontier.push((2 * node + 1, depth + 1));
            frontier.push((2 * node + 2, depth + 1));

            // B4: reassign this node's instances to its children.
            let node_u = node as u32;
            ps2.spark
                .for_each_partition(ctx, &data, move |examples, w| {
                    let mut assign: Vec<u32> =
                        w.take_state(KEY_ASSIGN).expect("assignment missing");
                    for (i, ex) in examples.iter().enumerate() {
                        if assign[i] != node_u {
                            continue;
                        }
                        let left = ex
                            .features
                            .binary_search_by_key(&(feature as u64), |&(j, _)| j)
                            .map(|pos| value_bin(ex.features[pos].1, bins) <= bin)
                            .unwrap_or(false);
                        assign[i] = if left { 2 * node_u + 1 } else { 2 * node_u + 2 };
                    }
                    w.sim.charge_flops(examples.len() as u64);
                    w.put_state(KEY_ASSIGN, assign);
                })
                .expect("reassignment failed");
        }

        // Phase C: apply the tree to the margins and measure the loss.
        let tree_b = ps2
            .spark
            .broadcast(ctx, tree.clone(), 16 * tree.nodes.len() as u64);
        let results = ps2
            .spark
            .run_job(
                ctx,
                &data,
                move |examples, w| {
                    let t = w.broadcast(&tree_b);
                    let mut margins: Vec<f64> = w.take_state(KEY_MARGIN).expect("margins missing");
                    let mut loss = 0.0;
                    for (i, ex) in examples.iter().enumerate() {
                        margins[i] += t.predict(ex);
                        loss += log_loss(ex.label * margins[i]);
                    }
                    w.sim.charge_flops(10 * examples.len() as u64);
                    w.put_state(KEY_MARGIN, margins);
                    (loss, examples.len() as u64)
                },
                |_| 24,
            )
            .expect("margin update failed");
        ps2.spark.drop_broadcast(ctx, tree_b);
        let (loss_sum, n): (f64, u64) = results
            .into_iter()
            .fold((0.0, 0), |(l, c), (li, ci)| (l + li, c + ci));
        trace.record(start, ctx.now(), loss_sum / n.max(1) as f64);
        trees.push(tree);
    }
    (trace, trees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ex(features: Vec<(u64, f64)>, label: f64) -> Example {
        Example {
            label,
            features: Arc::new(features),
        }
    }

    fn stump(bins: u32) -> Tree {
        // Split on feature 2 at bin <= 4; left leaf +1.5, right leaf -0.5.
        let mut t = Tree::new(1, bins);
        t.nodes[0] = TreeNode::Split { feature: 2, bin: 4 };
        t.nodes[1] = TreeNode::Leaf { weight: 1.5 };
        t.nodes[2] = TreeNode::Leaf { weight: -0.5 };
        t
    }

    #[test]
    fn tree_routes_present_absent_and_boundary_values() {
        let t = stump(10);
        // bin(0.3 * 10) = 3 <= 4 → left.
        assert_eq!(t.predict(&ex(vec![(2, 0.3)], 1.0)), 1.5);
        // bin(0.9 * 10) = 9 > 4 → right.
        assert_eq!(t.predict(&ex(vec![(2, 0.9)], 1.0)), -0.5);
        // Absent feature → default right.
        assert_eq!(t.predict(&ex(vec![(5, 0.3)], 1.0)), -0.5);
        // Exact bin boundary 0.4*10 = 4 → left (<=).
        assert_eq!(t.predict(&ex(vec![(2, 0.4)], 1.0)), 1.5);
    }

    #[test]
    fn gain_reflects_split_quality() {
        // Unregularized, splitting identical halves gains nothing.
        let g = gain(5.0, 5.0, 10.0, 10.0, 0.0);
        assert!(g.abs() < 1e-9, "{g}");
        // With L2, the same split is *penalized* (two regularized children).
        assert!(gain(5.0, 5.0, 10.0, 10.0, 1.0) < 0.0);
        // Separating opposite-signed gradients gains a lot.
        let g2 = gain(5.0, 5.0, 0.0, 10.0, 1.0);
        assert!(g2 > 1.0);
    }

    #[test]
    fn best_split_scans_only_complete_features() {
        let bins = 4u32;
        // Two features × 4 bins; a clear split inside feature 1.
        let grad = vec![0.0, 0.0, 0.0, 0.0, 5.0, 5.0, -5.0, -5.0];
        let hess = vec![1.0; 8];
        let (g_full, cell) = best_split_in_segment(&grad, &hess, 0, bins, 0.0, 8.0);
        assert!(g_full > 0.0);
        assert_eq!(cell / bins as u64, 1, "split must be inside feature 1");
        // A segment starting mid-feature must skip the partial feature.
        let (_, cell2) = best_split_in_segment(&grad[2..], &hess[2..], 2, bins, 0.0, 8.0);
        assert!(cell2 == u64::MAX || cell2 / bins as u64 >= 1);
    }

    #[test]
    fn straddlers_are_detected() {
        // bins = 10; ranges split at 25 (not a multiple of 10) → feature 2
        // straddles.
        let ranges = vec![(0u64, 25u64), (25, 50)];
        assert_eq!(straddling_features(&ranges, 10, 5), vec![2]);
        // Aligned boundary → no straddlers.
        let ranges = vec![(0u64, 30u64), (30, 50)];
        assert!(straddling_features(&ranges, 10, 5).is_empty());
    }
}
