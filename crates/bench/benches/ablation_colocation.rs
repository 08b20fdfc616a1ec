//! Ablation — dimension co-location (the paper's Figure 4 story).
//!
//! `dot` between two DCVs `derive`d from one allocation (co-located) versus
//! two independent `dense` allocations with misaligned partition plans:
//! the misaligned op must shuffle segments between servers.

use std::io::Write;

use ps2_bench::{banner, csv, paper_says, SERVERS};
use ps2_core::{run_ps2, ClusterSpec};

fn main() {
    banner("Ablation", "co-located vs misaligned DCV ops");
    paper_says("Figure 4: derive() vs independent dense() — the latter \"would");
    paper_says("incur huge communication cost among parameter servers\"");

    let dims = [100_000u64, 1_000_000, 10_000_000];
    let mut f = csv("ablation_colocation.csv");
    writeln!(f, "dim,colocated_dot_s,misaligned_dot_s,slowdown").unwrap();
    println!(
        "\n  {:>12} {:>16} {:>16} {:>10}",
        "dim", "co-located dot", "misaligned dot", "slowdown"
    );
    for dim in dims {
        let (times, _) = run_ps2(
            ClusterSpec {
                workers: 2,
                servers: SERVERS,
            },
            3,
            move |ctx, ps2| {
                let a = ps2.dense_dcv(ctx, dim, 2);
                let a2 = a.derive(ctx);
                a.fill(ctx, 1.0);
                a2.fill(ctx, 2.0);
                let b = ps2.dense_dcv_misaligned(ctx, dim, 1);
                b.fill(ctx, 2.0);

                let t0 = ctx.now();
                let d1 = a.dot(ctx, &a2);
                let t1 = ctx.now();
                let d2 = a.dot(ctx, &b);
                let t2 = ctx.now();
                assert_eq!(d1, d2, "results must agree");
                ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
            },
        );
        let (co, mis) = times;
        println!(
            "  {:>12} {:>15.4}s {:>15.4}s {:>9.1}x",
            dim,
            co,
            mis,
            mis / co
        );
        writeln!(f, "{dim},{co:.6},{mis:.6},{:.2}", mis / co).unwrap();
    }
}
