//! Ablation — MLlib\* (the paper's reference [34]): Spark MLlib improved
//! with local replicas + ring-AllReduce model averaging, no parameter
//! servers. Where does the driver-free Spark design land between MLlib and
//! PS2, and where does it still lose?

use std::io::Write;

use ps2_bench::{banner, csv, paper_says, WORKERS};
use ps2_core::{run_ps2, ClusterSpec};
use ps2_data::SparseDatasetGen;
use ps2_ml::lr::{train_lr, train_lr_mllib_star, LrBackend, LrConfig};
use ps2_ml::optim::Optimizer;

fn main() {
    banner(
        "Ablation",
        "MLlib* (AllReduce model averaging) vs MLlib vs PS2",
    );
    paper_says("related work [34]: \"MLlib* further optimizes MLlib by integrating");
    paper_says("model averaging and AllReduce\"");

    let mut f = csv("ablation_mllib_star.csv");
    writeln!(f, "features,mllib_s,mllib_star_s,ps2_s").unwrap();
    println!(
        "\n  total time for 10 LR-SGD iterations, 20 workers\n  {:>10} {:>10} {:>10} {:>10}",
        "features", "MLlib", "MLlib*", "PS2"
    );
    for dim in [50_000u64, 500_000, 5_000_000] {
        let run = |which: u8| {
            let (trace, _) = run_ps2(
                ClusterSpec {
                    workers: WORKERS,
                    servers: WORKERS,
                },
                3,
                move |ctx, ps2| {
                    let gen = SparseDatasetGen::new(20_000, dim, 25, WORKERS, 7);
                    let mut cfg = LrConfig::new(gen, Optimizer::Sgd, 10);
                    cfg.hyper.mini_batch_fraction = 0.01;
                    match which {
                        0 => train_lr(ctx, ps2, &cfg, LrBackend::SparkDriver),
                        1 => train_lr_mllib_star(ctx, ps2, &cfg),
                        _ => train_lr(ctx, ps2, &cfg, LrBackend::Ps2Dcv),
                    }
                },
            );
            trace.total_time()
        };
        let (mllib, star, ps2t) = (run(0), run(1), run(2));
        println!("  {dim:>10} {mllib:>9.2}s {star:>9.2}s {ps2t:>9.2}s");
        writeln!(f, "{dim},{mllib:.4},{star:.4},{ps2t:.4}").unwrap();
    }
    println!("\n  AllReduce removes the driver bottleneck, but still moves 2x the");
    println!("  dense model per worker per iteration; PS2's sparse working-set");
    println!("  traffic stays flat as the model widens.");
}
