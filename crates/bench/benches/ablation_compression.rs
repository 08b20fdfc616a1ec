//! Ablation — message compression (the paper's LDA engineering, §6.3.3:
//! part of PS2's 9× over Glint is "message compression technique").

use std::io::Write;

use ps2_bench::{banner, csv, paper_says, SERVERS};
use ps2_core::{run_ps2, ClusterSpec};

fn main() {
    banner("Ablation", "4-byte wire compression vs raw f64");
    paper_says("PS2's LDA advantage includes \"message compression technique\"");

    let dim = 2_000_000u64;
    let mut f = csv("ablation_compression.csv");
    writeln!(f, "mode,pull_s,push_s,total_bytes").unwrap();
    println!(
        "\n  {:>12} {:>12} {:>12} {:>14}",
        "mode", "pull", "push", "total bytes"
    );
    for compress in [false, true] {
        let ((pull_s, push_s), report) = run_ps2(
            ClusterSpec {
                workers: 2,
                servers: SERVERS,
            },
            7,
            move |ctx, ps2| {
                let mut v = ps2.dense_dcv(ctx, dim, 1);
                if compress {
                    v = v.compressed();
                }
                let values = vec![1.0f64; dim as usize];
                let t0 = ctx.now();
                let _ = v.pull(ctx);
                let t1 = ctx.now();
                v.add_dense(ctx, &values);
                let t2 = ctx.now();
                ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
            },
        );
        let mode = if compress { "4-byte" } else { "8-byte" };
        println!(
            "  {:>12} {:>11.4}s {:>11.4}s {:>14}",
            mode, pull_s, push_s, report.total_bytes
        );
        writeln!(f, "{mode},{pull_s:.6},{push_s:.6},{}", report.total_bytes).unwrap();
    }
    println!("\n  compression halves the bytes of every pull/push at identical results");
    println!("  (counts in LDA fit comfortably in 32 bits).");
}
