//! Figure 1 — empirical analysis of Spark MLlib (paper §2).
//!
//! (a) Time per iteration of LR+SGD on MLlib as the number of features
//!     grows (paper: 40K → 60,000K features, 168× degradation).
//! (b) Per-iteration breakdown into the four steps: model broadcast,
//!     gradient calculation, gradient aggregation, model update — with
//!     aggregation dominating at scale.
//!
//! 20 executors, mini-batch fraction 0.01, features scaled ÷10.

use std::io::Write;

use ps2_bench::{banner, csv, paper_says, WORKERS};
use ps2_core::{run_ps2, ClusterSpec};
use ps2_data::SparseDatasetGen;
use ps2_ml::lr::{train_lr, LrBackend, LrConfig};
use ps2_ml::optim::Optimizer;

fn main() {
    banner("Figure 1", "Spark MLlib's single-node bottleneck");
    paper_says("40K -> 60,000K features: 168x slower per iteration;");
    paper_says("gradient aggregation occupies most of each iteration.");

    // Paper dims ÷10 so the largest model stays laptop-sized.
    let dims: [u64; 4] = [4_000, 300_000, 3_000_000, 6_000_000];
    let mut out = csv("fig1.csv");
    writeln!(
        out,
        "features,sec_per_iter,broadcast,gradient_calc,aggregation,model_update"
    )
    .unwrap();

    println!(
        "\n  {:>10} {:>10} | {:>9} {:>9} {:>9} {:>9}",
        "features", "s/iter", "bcast", "grad", "agg", "update"
    );
    let mut first = None;
    for dim in dims {
        let (trace, _) = run_ps2(
            ClusterSpec {
                workers: WORKERS,
                servers: 1, // MLlib uses no parameter servers
            },
            1,
            move |ctx, ps2| {
                let mut cfg = LrConfig::new(
                    SparseDatasetGen::new(20_000, dim, 30, WORKERS, 7),
                    Optimizer::Sgd,
                    5,
                );
                cfg.hyper.mini_batch_fraction = 0.01;
                train_lr(ctx, ps2, &cfg, LrBackend::SparkDriver)
            },
        );
        let per_iter = trace.time_per_iteration();
        let b = trace.breakdown.expect("MLlib backend records a breakdown");
        println!(
            "  {:>10} {:>10.3} | {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            dim, per_iter, b.broadcast, b.gradient_calc, b.aggregation, b.model_update
        );
        writeln!(
            out,
            "{dim},{per_iter:.6},{:.6},{:.6},{:.6},{:.6}",
            b.broadcast, b.gradient_calc, b.aggregation, b.model_update
        )
        .unwrap();
        first.get_or_insert(per_iter);
        if dim == *dims.last().unwrap() {
            let degradation = per_iter / first.unwrap();
            println!("\n  degradation smallest -> largest: {degradation:.0}x (paper: 168x)");
            let frac = b.aggregation / b.total();
            println!("  aggregation share at largest dim: {:.0}%", frac * 100.0);
        }
    }
}
