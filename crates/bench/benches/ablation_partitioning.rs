//! Ablation — column versus row partitioning (§4.3: row partitioning
//! "cannot run row access operators in parallel, causing the single-point
//! problem").
//!
//! W workers concurrently pull one wide row. Under column partitioning the
//! row is spread over S servers (aggregate bandwidth S×); under row
//! partitioning the whole row sits on one server whose out-NIC serializes
//! every worker.

use std::io::Write;

use ps2_bench::{banner, csv, paper_says};
use ps2_ps::{deploy_ps, InitKind, MatrixHandle, Partitioning, PsMaster, DISK_BYTES_PER_SEC};
use ps2_simnet::{ProcId, SimBuilder, SimTime};

fn makespan(partitioning: Partitioning, servers: usize, workers: usize, dim: u64) -> f64 {
    let mut sim = SimBuilder::new().seed(2).build();
    let (srv, storage) = deploy_ps(&mut sim, servers, DISK_BYTES_PER_SEC);
    let worker_ids: Vec<ProcId> = (0..workers).map(|w| ProcId(servers + 2 + w)).collect();
    sim.spawn("coordinator", move |ctx| {
        let mut m = PsMaster::new(srv, storage);
        let h = m.create_matrix(ctx, dim, 1, partitioning, InitKind::Zero);
        for &w in &worker_ids {
            ctx.send(w, 7, h.clone(), 64);
        }
    });
    let mut slots = Vec::new();
    for i in 0..workers {
        let slot = sim.spawn_collect(&format!("worker-{i}"), move |ctx| {
            let env = ctx.recv();
            let h: MatrixHandle = env.downcast::<MatrixHandle>();
            let _ = h.pull_row(ctx, 0);
            ctx.now()
        });
        slots.push(slot);
    }
    sim.run().unwrap();
    slots
        .into_iter()
        .map(|s| s.take())
        .max()
        .unwrap_or(SimTime::ZERO)
        .as_secs_f64()
}

fn main() {
    banner("Ablation", "column vs row partitioning for row access");
    paper_says("§4.3: with row partitioning \"the system cannot run row access");
    paper_says("operators in parallel, causing single-point problem\"");

    let dim = 4_000_000u64;
    let workers = 16usize;
    let mut f = csv("ablation_partitioning.csv");
    writeln!(f, "servers,column_s,row_s,advantage").unwrap();
    println!(
        "\n  {workers} workers pulling a {dim}-wide row concurrently\n  {:>8} {:>12} {:>12} {:>10}",
        "servers", "column", "row", "advantage"
    );
    for servers in [2usize, 4, 8, 16] {
        let col = makespan(Partitioning::Column, servers, workers, dim);
        let row = makespan(Partitioning::Row, servers, workers, dim);
        println!(
            "  {:>8} {:>11.4}s {:>11.4}s {:>9.1}x",
            servers,
            col,
            row,
            row / col
        );
        writeln!(f, "{servers},{col:.6},{row:.6},{:.2}", row / col).unwrap();
    }
    println!("\n  row partitioning never improves with servers (one owner serializes);");
    println!("  column partitioning scales with the fleet.");
}
