//! Ablation — sparse versus dense pulls: the mechanism behind PS2's win
//! over Petuum in Figure 10 (§6.3.1: "PS2 supports sparse communication and
//! only pulls the needed model parameters").

use std::io::Write;

use ps2_bench::{banner, csv, paper_says, SERVERS};
use ps2_core::{run_ps2, ClusterSpec};

fn main() {
    banner("Ablation", "sparse vs dense (full-model) pulls");
    paper_says("the speedup over Petuum \"mostly comes from\" sparse pulls");

    let dim = 5_000_000u64;
    let working_sets = [1_000usize, 10_000, 100_000, 1_000_000];
    let mut f = csv("ablation_sparse_pull.csv");
    writeln!(f, "working_set,sparse_pull_s,dense_pull_s,advantage").unwrap();
    println!(
        "\n  model dim = {dim}\n  {:>12} {:>14} {:>14} {:>10}",
        "working set", "sparse pull", "dense pull", "advantage"
    );
    for ws in working_sets {
        let (times, _) = run_ps2(
            ClusterSpec {
                workers: 2,
                servers: SERVERS,
            },
            5,
            move |ctx, ps2| {
                let v = ps2.dense_dcv(ctx, dim, 1);
                // Evenly spread working-set indices.
                let cols: Vec<u64> = (0..ws as u64).map(|i| i * dim / ws as u64).collect();
                let t0 = ctx.now();
                let sparse = v.pull_indices(ctx, &cols);
                let t1 = ctx.now();
                let dense = v.pull(ctx);
                let t2 = ctx.now();
                assert_eq!(sparse.len(), ws);
                assert_eq!(dense.len() as u64, dim);
                ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
            },
        );
        let (sp, de) = times;
        println!("  {:>12} {:>13.4}s {:>13.4}s {:>9.1}x", ws, sp, de, de / sp);
        writeln!(f, "{ws},{sp:.6},{de:.6},{:.2}", de / sp).unwrap();
    }
    println!("\n  the advantage decays as the working set approaches the model size —");
    println!("  exactly why PS2's edge over Petuum is ~2x, not orders of magnitude.");
}
