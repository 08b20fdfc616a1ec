//! The paper's motivating pipeline (§1): use Spark to collect and clean
//! raw event data, *then* train a high-dimensional classifier on PS2 — all
//! in one system, no data movement between frameworks.
//!
//! Stage 1 (dataflow + shuffle): aggregate raw (user, item) click events
//! into per-user sparse feature vectors with `reduce_by_key`.
//! Stage 2 (PS2): train logistic regression with FTRL (the CTR-standard
//! optimizer) on the assembled examples, evaluating AUC.
//!
//! ```text
//! cargo run --release --example user_profiling_pipeline
//! ```

use std::sync::Arc;

use ps2::dataflow::deploy_shuffle_services;
use ps2::ml::lr::{distinct_cols, grad_aligned};
use ps2::ml::optim::Optimizer;
use ps2::ml::{auc, TrainingTrace};
use ps2::{deploy, ClusterSpec, Ps2Context, SimBuilder};
use ps2_data::Example;

fn main() {
    let spec = ClusterSpec {
        workers: 8,
        servers: 8,
    };
    let mut sim = SimBuilder::new().seed(17).build();
    let deployment = deploy(&mut sim, &spec);
    let services = deploy_shuffle_services(&mut sim, spec.workers);

    let out = sim.spawn_collect("coordinator", move |ctx| {
        let mut ps2 = Ps2Context::new(deployment);

        // ---- Stage 1: raw events -> per-user feature vectors ------------
        // Synthetic click log: (user, item) events; a user's taste is a
        // deterministic function of their id.
        let users = 3_000u64;
        let items = 20_000u64;
        let events_per_part = 8_000u64;
        let raw = ps2.spark.source(8, move |part, _w| {
            let mut out = Vec::with_capacity(events_per_part as usize);
            for i in 0..events_per_part {
                let h = (part as u64 * 1_000_003 + i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let user = h % users;
                // Users click items near their taste center.
                let center = (user * 37) % items;
                let item = (center + (h >> 17) % 50) % items;
                out.push((user, item));
            }
            out
        });
        let events = ps2.spark.count(ctx, &raw);
        println!("stage 1: {events} raw click events");

        // Count clicks per (user, item) with one shuffle, then gather each
        // user's full feature list with a second, user-keyed shuffle.
        let keyed = raw.map(|&(u, i)| ((u, i), 1u64));
        let counts = ps2
            .spark
            .reduce_by_key(ctx, &services, &keyed, |a, b| a + b)
            .expect("shuffle failed");
        let by_user = counts.map(|&((u, i), c)| (u, vec![(i, c as f64)]));
        let assembled = ps2
            .spark
            .reduce_by_key(ctx, &services, &by_user, |mut a, mut b| {
                a.append(&mut b);
                a
            })
            .expect("shuffle failed");
        let per_user = keyed_to_examples(&assembled, items);
        let n_examples = ps2.spark.count(ctx, &per_user);
        println!("stage 1: assembled {n_examples} user feature vectors");
        let per_user = per_user.cache();

        // ---- Stage 2: FTRL logistic regression on PS2 --------------------
        let dim = items;
        let opt = Optimizer::Ftrl;
        let w = ps2.dense_dcv(ctx, dim, 4); // w, z, n, g
        let z = w.derive(ctx);
        let nacc = w.derive(ctx);
        let g = w.derive(ctx);
        let mut trace = TrainingTrace::new("PS2-FTRL");
        let start = ctx.now();
        for t in 1..=25u64 {
            g.zero(ctx);
            let batch = per_user.sample(0.2, t);
            let wd = w.clone();
            let gd = g.clone();
            let results = ps2
                .spark
                .run_job(
                    ctx,
                    &batch,
                    move |examples, wk| {
                        if examples.is_empty() {
                            return (0.0, 0u64);
                        }
                        let cols = distinct_cols(examples);
                        let wv = wd.pull_indices(wk.sim, &cols);
                        let (grad, loss) = grad_aligned(examples, &cols, &wv);
                        let n = examples.len() as f64;
                        let pairs: Vec<(u64, f64)> = cols
                            .iter()
                            .zip(&grad)
                            .map(|(&j, &gv)| (j, gv / n))
                            .collect();
                        gd.add_sparse(wk.sim, &pairs);
                        (loss, examples.len() as u64)
                    },
                    |_| 24,
                )
                .expect("training stage failed");
            // Server-side FTRL step over [w, z, n, g].
            w.zip(&[&z, &nacc, &g]).map_partitions(
                ctx,
                opt.zip_fn(1.0, t as i32),
                opt.flops_per_elem(),
            );
            let (loss_sum, n) = results
                .into_iter()
                .fold((0.0, 0u64), |(l, c), (li, ci)| (l + li, c + ci));
            trace.record(start, ctx.now(), loss_sum / n.max(1) as f64);
        }

        // ---- Evaluate: AUC on a held-out pass -----------------------------
        let wd = w.clone();
        let scored = ps2
            .spark
            .run_job(
                ctx,
                &per_user,
                move |examples, wk| {
                    let cols = distinct_cols(examples);
                    let wv = wd.pull_indices(wk.sim, &cols);
                    examples
                        .iter()
                        .map(|ex| {
                            let margin: f64 = ex
                                .features
                                .iter()
                                .map(|&(j, v)| wv[cols.binary_search(&j).unwrap()] * v)
                                .sum();
                            (margin, ex.label)
                        })
                        .collect::<Vec<(f64, f64)>>()
                },
                |r: &Vec<(f64, f64)>| 16 * r.len() as u64,
            )
            .expect("scoring failed");
        let all: Vec<(f64, f64)> = scored.into_iter().flatten().collect();
        let model_nnz = w.nnz(ctx);
        (trace, auc(&all), model_nnz, dim)
    });

    let report = sim.run().unwrap();
    let (trace, auc_value, model_nnz, dim) = out.take();
    println!("\nstage 2 ({}):", trace.label);
    for (i, (secs, loss)) in trace.points.iter().enumerate() {
        if i % 5 == 0 || i + 1 == trace.points.len() {
            println!("  iter {i:>2}: loss {loss:.4}  ({secs:.2}s simulated)");
        }
    }
    println!("\nAUC = {auc_value:.3}; FTRL kept {model_nnz}/{dim} weights non-zero (L1 sparsity)");
    println!(
        "whole pipeline: {} simulated, {:?} wall, {:.1} MB moved",
        report.virtual_time,
        report.wall_time,
        report.total_bytes as f64 / 1e6
    );
}

/// Stage-1 helper: turn `(user, [(item, clicks)])` into labelled examples —
/// label +1 when the user's clicks concentrate on their taste slice.
fn keyed_to_examples(
    assembled: &ps2::dataflow::Rdd<(u64, Vec<(u64, f64)>)>,
    items: u64,
) -> ps2::dataflow::Rdd<Example> {
    assembled.map_partitions(move |users, w| {
        w.charge_scan(users.len());
        users
            .iter()
            .map(|(user, feats)| {
                let mut features = feats.clone();
                features.sort_unstable_by_key(|&(j, _)| j);
                let center = (user * 37) % items;
                let on_taste: f64 = features
                    .iter()
                    .filter(|&&(j, _)| j >= center && j < center + 50)
                    .map(|&(_, c)| c)
                    .sum();
                let total: f64 = features.iter().map(|&(_, c)| c).sum();
                let label = if on_taste * 2.0 > total { 1.0 } else { -1.0 };
                Example {
                    label,
                    features: Arc::new(features),
                }
            })
            .collect()
    })
}
