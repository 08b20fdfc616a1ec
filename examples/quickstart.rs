//! Quickstart: the paper's Figure 3 — training logistic regression with
//! Adam on PS2 — written against this library's public API.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use ps2::ml::lr::{distinct_cols, grad_aligned};
use ps2::{run_ps2, ClusterSpec, ZipSegs};
use ps2_data::SparseDatasetGen;

fn main() {
    // A 20-worker / 20-server simulated cluster, like the paper's §6 setup.
    let spec = ClusterSpec {
        workers: 20,
        servers: 20,
    };

    let (final_loss, report) = run_ps2(spec, 42, |ctx, ps2| {
        // ---- load data as an RDD (paper Figure 3, lines 1-2) ----------
        let gen = SparseDatasetGen::new(20_000, 100_000, 20, 20, 7);
        let g2 = gen.clone();
        let data = ps2.spark.source(20, move |p, _w| g2.partition(p)).cache();
        let n = ps2.spark.count(ctx, &data);
        println!("loaded {n} examples over 20 partitions");

        // ---- allocate four co-located DCVs (lines 3-7) -----------------
        let dim = gen.dim;
        let weight = ps2.dense_dcv(ctx, dim, 4);
        let square = weight.derive(ctx).filled(ctx, 0.0);
        let velocity = weight.derive(ctx).filled(ctx, 0.0);
        let gradient = weight.derive(ctx);

        let (beta1, beta2, eps, eta): (f64, f64, f64, f64) = (0.9, 0.999, 1e-8, 0.05);
        let expected_batch = 20_000.0 * 0.01;
        let mut last_loss = f64::NAN;

        for t in 1..=30i32 {
            gradient.zero(ctx);

            // ---- gradient computation on the workers (lines 12-19) ----
            let batch = data.sample(0.01, t as u64);
            let w = weight.clone();
            let g = gradient.clone();
            let results = ps2
                .spark
                .run_job(
                    ctx,
                    &batch,
                    move |examples, wk| {
                        if examples.is_empty() {
                            return (0.0, 0u64);
                        }
                        // Pull only the needed weights from the PS.
                        let cols = distinct_cols(examples);
                        let local_w = w.pull_indices(wk.sim, &cols);
                        // Calculate the gradient locally…
                        let (grad, loss) = grad_aligned(examples, &cols, &local_w);
                        // …and push it back (the action is the barrier).
                        let pairs: Vec<(u64, f64)> = cols
                            .iter()
                            .zip(&grad)
                            .map(|(&j, &v)| (j, v / expected_batch))
                            .collect();
                        g.add_sparse(wk.sim, &pairs);
                        (loss, examples.len() as u64)
                    },
                    |_| 24,
                )
                .expect("iteration failed");

            // ---- server-side Adam update via zip (lines 21-26) --------
            weight.zip(&[&square, &velocity, &gradient]).map_partitions(
                ctx,
                Arc::new(move |zs: &mut ZipSegs<'_>| {
                    let [w, s, v, g] = &mut zs.segs[..] else {
                        unreachable!()
                    };
                    let (bc1, bc2) = (1.0 - beta1.powi(t), 1.0 - beta2.powi(t));
                    for i in 0..w.len() {
                        s[i] = beta1 * s[i] + (1.0 - beta1) * g[i] * g[i];
                        v[i] = beta2 * v[i] + (1.0 - beta2) * g[i];
                        let (s_hat, v_hat) = (s[i] / bc1, v[i] / bc2);
                        w[i] -= eta * v_hat / (s_hat.sqrt() + eps);
                    }
                }),
                14,
            );

            let (loss_sum, cnt) = results
                .into_iter()
                .fold((0.0, 0u64), |(l, c), (li, ci)| (l + li, c + ci));
            last_loss = loss_sum / cnt.max(1) as f64;
            println!("iter {t:>2}: loss {last_loss:.4}  (virtual {})", ctx.now());
        }
        last_loss
    });

    println!("\nfinal training loss: {final_loss:.4}");
    println!(
        "simulated cluster time {}; wall time {:?}; {} messages, {:.1} MB moved",
        report.virtual_time,
        report.wall_time,
        report.total_msgs,
        report.total_bytes as f64 / 1e6
    );
}
