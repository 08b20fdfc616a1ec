//! Fault tolerance on PS2 (paper §5.3): task failures are retried, a lost
//! executor is replaced and its data recomputed from lineage, and a lost
//! PS-server is restored from a checkpoint — all inside one training run.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use ps2::{run_ps2, ClusterSpec, SimTime};
use ps2_data::SparseDatasetGen;
use ps2_ml::lr::{distinct_cols, grad_aligned};

fn main() {
    let spec = ClusterSpec {
        workers: 6,
        servers: 4,
    };

    let (story, report) = run_ps2(spec, 99, |ctx, ps2| {
        let mut story: Vec<String> = Vec::new();
        // 10% of task attempts fail — the paper's harshest Figure 13(c) case.
        ps2.spark.failure.task_failure_prob = 0.1;
        ps2.spark.failure.max_task_attempts = 100;

        let gen = SparseDatasetGen::new(3_000, 5_000, 15, 6, 3);
        let g2 = gen.clone();
        let data = ps2.spark.source(6, move |p, _w| g2.partition(p)).cache();
        let _ = ps2.spark.count(ctx, &data);

        let w = ps2.dense_dcv(ctx, gen.dim, 1);
        let expected_batch = gen.rows as f64 * 0.05;

        let step = |ctx: &mut ps2::SimCtx, ps2: &mut ps2::Ps2Context, t: u64| -> f64 {
            let batch = data.sample(0.05, t);
            let wd = w.clone();
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
                        let pairs: Vec<(u64, f64)> = cols
                            .iter()
                            .zip(&grad)
                            .map(|(&j, &g)| (j, -2.0 * g / expected_batch))
                            .collect();
                        wd.add_sparse(wk.sim, &pairs);
                        (loss, examples.len() as u64)
                    },
                    |_| 24,
                )
                .expect("training job failed");
            let (l, n) = results
                .into_iter()
                .fold((0.0, 0u64), |(a, c), (li, ci)| (a + li, c + ci));
            l / n.max(1) as f64
        };

        // Train a while under task failures…
        for t in 1..=10 {
            let loss = step(ctx, ps2, t);
            if t == 10 {
                story.push(format!(
                    "after 10 iterations with 10% task failures: loss {loss:.4}, \
                     {} task retries absorbed",
                    ps2.spark.task_retries
                ));
            }
        }

        // …checkpoint the model, then kill a PS-server.
        ps2.ps.checkpoint_all(ctx);
        let victim_server = w.matrix().route.resolve(1);
        ctx.kill(victim_server);
        ctx.advance(SimTime::from_millis(5));
        let recovered = ps2.ps.recover_dead_servers(ctx);
        story.push(format!(
            "killed PS-server slot 1; master recovered slots {recovered:?} from checkpoint"
        ));

        // …kill an executor too; lineage recomputes its cached partition.
        let victim_exec = ps2.spark.executors()[2];
        ctx.kill(victim_exec);
        story.push("killed executor 2; scheduler will respawn on demand".into());

        for t in 11..=20 {
            let loss = step(ctx, ps2, t);
            if t == 20 {
                story.push(format!(
                    "after recovery, training continued to loss {loss:.4} \
                     ({} executors replaced)",
                    ps2.spark.executors_replaced
                ));
            }
        }
        story
    });

    println!("fault-tolerance walkthrough:");
    for line in story {
        println!("  - {line}");
    }
    println!(
        "\nsimulated {}, wall {:?}, {} dropped messages (dead recipients)",
        report.virtual_time, report.wall_time, report.dropped_msgs
    );
}
