//! Ablations: one mechanism of PS2 switched off at a time.

use ps2_bench::{banner, paper_says, Table, SERVERS, WORKERS};
use ps2_core::{run_ps2, ClusterSpec};
use ps2_data::SparseDatasetGen;
use ps2_ml::lr::{train_lr, train_lr_mllib_star, LrBackend, LrConfig};
use ps2_ml::modes::{run_mode, ModeAlgo, ModeConfig};
use ps2_ml::optim::Optimizer;
use ps2_ps::{
    deploy_ps, ConsistencyMode, InitKind, MatrixHandle, Partitioning, PsMaster, DISK_BYTES_PER_SEC,
};
use ps2_simnet::{ProcId, SimBuilder, SimTime};

/// Two workers on the full server fleet: the shape of the single-op
/// ablations.
const PAIR: ClusterSpec = ClusterSpec {
    workers: 2,
    servers: SERVERS,
};

/// Dimension co-location (the paper's Figure 4 story).
///
/// `dot` between two DCVs `derive`d from one allocation (co-located) versus
/// two independent `dense` allocations with misaligned partition plans:
/// the misaligned op must shuffle segments between servers.
pub fn ablation_colocation() {
    banner("Ablation", "co-located vs misaligned DCV ops");
    paper_says("Figure 4: derive() vs independent dense() — the latter \"would");
    paper_says("incur huge communication cost among parameter servers\"");

    let mut t = Table::new(
        "ablation_colocation.csv",
        "dim,colocated_dot_s,misaligned_dot_s,slowdown",
    );
    for dim in [100_000u64, 1_000_000, 10_000_000] {
        let ((co, mis), _) = run_ps2(PAIR, 3, move |ctx, ps2| {
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
        });
        t.row(&[
            dim.to_string(),
            format!("{co:.6}"),
            format!("{mis:.6}"),
            format!("{:.2}", mis / co),
        ]);
    }
}

/// Sparse versus dense pulls: the mechanism behind PS2's win over Petuum in
/// Figure 10 (§6.3.1: "PS2 supports sparse communication and only pulls the
/// needed model parameters").
pub fn ablation_sparse_pull() {
    banner("Ablation", "sparse vs dense (full-model) pulls");
    paper_says("the speedup over Petuum \"mostly comes from\" sparse pulls");

    let dim = 5_000_000u64;
    println!("\n  model dim = {dim}");
    let mut t = Table::new(
        "ablation_sparse_pull.csv",
        "working_set,sparse_pull_s,dense_pull_s,advantage",
    );
    for ws in [1_000usize, 10_000, 100_000, 1_000_000] {
        let ((sp, de), _) = run_ps2(PAIR, 5, move |ctx, ps2| {
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
        });
        t.row(&[
            ws.to_string(),
            format!("{sp:.6}"),
            format!("{de:.6}"),
            format!("{:.2}", de / sp),
        ]);
    }
    println!("\n  the advantage decays as the working set approaches the model size —");
    println!("  exactly why PS2's edge over Petuum is ~2x, not orders of magnitude.");
}

/// Message compression (the paper's LDA engineering, §6.3.3: part of PS2's
/// 9× over Glint is "message compression technique").
pub fn ablation_compression() {
    banner("Ablation", "4-byte wire compression vs raw f64");
    paper_says("PS2's LDA advantage includes \"message compression technique\"");

    let dim = 2_000_000u64;
    let mut t = Table::new("ablation_compression.csv", "mode,pull_s,push_s,total_bytes");
    for compress in [false, true] {
        let ((pull_s, push_s), report) = run_ps2(PAIR, 7, move |ctx, ps2| {
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
        });
        let mode = if compress { "4-byte" } else { "8-byte" };
        t.row(&[
            mode.to_string(),
            format!("{pull_s:.6}"),
            format!("{push_s:.6}"),
            report.total_bytes.to_string(),
        ]);
    }
    println!("\n  compression halves the bytes of every pull/push at identical results");
    println!("  (counts in LDA fit comfortably in 32 bits).");
}

/// The virtual makespan of `workers` concurrently pulling one `dim`-wide row
/// partitioned over `servers`.
fn pull_row_makespan(partitioning: Partitioning, servers: usize, workers: usize, dim: u64) -> f64 {
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
    let slots: Vec<_> = (0..workers)
        .map(|i| {
            sim.spawn_collect(&format!("worker-{i}"), move |ctx| {
                let env = ctx.recv();
                let h: MatrixHandle = env.downcast::<MatrixHandle>();
                let _ = h.pull_row(ctx, 0);
                ctx.now()
            })
        })
        .collect();
    sim.run().unwrap();
    slots
        .into_iter()
        .map(|s| s.take())
        .max()
        .unwrap_or(SimTime::ZERO)
        .as_secs_f64()
}

/// Column versus row partitioning (§4.3: row partitioning "cannot run row
/// access operators in parallel, causing the single-point problem").
///
/// W workers concurrently pull one wide row. Under column partitioning the
/// row is spread over S servers (aggregate bandwidth S×); under row
/// partitioning the whole row sits on one server whose out-NIC serializes
/// every worker.
pub fn ablation_partitioning() {
    banner("Ablation", "column vs row partitioning for row access");
    paper_says("§4.3: with row partitioning \"the system cannot run row access");
    paper_says("operators in parallel, causing single-point problem\"");

    let dim = 4_000_000u64;
    let workers = 16usize;
    println!("\n  {workers} workers pulling a {dim}-wide row concurrently");
    let mut t = Table::new(
        "ablation_partitioning.csv",
        "servers,column_s,row_s,advantage",
    );
    for servers in [2usize, 4, 8, 16] {
        let col = pull_row_makespan(Partitioning::Column, servers, workers, dim);
        let row = pull_row_makespan(Partitioning::Row, servers, workers, dim);
        t.row(&[
            servers.to_string(),
            format!("{col:.6}"),
            format!("{row:.6}"),
            format!("{:.2}", row / col),
        ]);
    }
    println!("\n  row partitioning never improves with servers (one owner serializes);");
    println!("  column partitioning scales with the fleet.");
}

/// MLlib\* (the paper's reference [34]): Spark MLlib improved with local
/// replicas + ring-AllReduce model averaging, no parameter servers. Where
/// does the driver-free Spark design land between MLlib and PS2, and where
/// does it still lose?
pub fn ablation_mllib_star() {
    banner(
        "Ablation",
        "MLlib* (AllReduce model averaging) vs MLlib vs PS2",
    );
    paper_says("related work [34]: \"MLlib* further optimizes MLlib by integrating");
    paper_says("model averaging and AllReduce\"");

    println!("\n  total time for 10 LR-SGD iterations, 20 workers");
    let mut t = Table::new(
        "ablation_mllib_star.csv",
        "features,mllib_s,mllib_star_s,ps2_s",
    );
    for dim in [50_000u64, 500_000, 5_000_000] {
        let run = |which: u8| {
            let spec = ClusterSpec {
                workers: WORKERS,
                servers: WORKERS,
            };
            let (trace, _) = run_ps2(spec, 3, move |ctx, ps2| {
                let gen = SparseDatasetGen::new(20_000, dim, 25, WORKERS, 7);
                let mut cfg = LrConfig::new(gen, Optimizer::Sgd, 10);
                cfg.hyper.mini_batch_fraction = 0.01;
                match which {
                    0 => train_lr(ctx, ps2, &cfg, LrBackend::SparkDriver),
                    1 => train_lr_mllib_star(ctx, ps2, &cfg),
                    _ => train_lr(ctx, ps2, &cfg, LrBackend::Ps2Dcv),
                }
            });
            format!("{:.4}", trace.total_time())
        };
        t.row(&[dim.to_string(), run(0), run(1), run(2)]);
    }
    println!("\n  AllReduce removes the driver bottleneck, but still moves 2x the");
    println!("  dense model per worker per iteration; PS2's sparse working-set");
    println!("  traffic stays flat as the model widens.");
}

/// BSP vs SSP under stragglers (the consistency model of Petuum [28] and the
/// heterogeneity-aware PS the paper cites [16]).
///
/// One of 8 workers is slowed by an extra 40 ms of compute per iteration.
/// BSP (staleness 0) paces the whole fleet at the straggler's speed; with a
/// staleness bound the healthy workers run ahead and overall progress per
/// wall-clock improves, at a (usually small) statistical cost.
pub fn ablation_ssp() {
    banner("Ablation", "BSP vs SSP staleness under a straggler");
    paper_says("Petuum's SSP [28] and heterogeneity-aware PS [16] motivate");
    paper_says("bounded staleness when workers are uneven");

    println!("\n  8 workers, worker 0 slowed 40ms/iter, 25 iterations");
    let mut t = Table::new("ablation_ssp.csv", "staleness,mean_iter_time_s,final_loss");
    for staleness in [0u32, 1, 2, 4, 8] {
        let cfg = ModeConfig {
            dataset: SparseDatasetGen::new(8_000, 20_000, 15, 8, 7),
            workers: 8,
            servers: 8,
            mode: ConsistencyMode::Ssp { bound: staleness },
            iterations: 25,
            learning_rate: 2.0,
            mini_batch: 64,
            straggler_slowdown: SimTime::from_millis(40),
            seed: 11,
        };
        let (trace, _) = run_mode(&cfg, ModeAlgo::Lr);
        let mean_iter = trace.total_time() / trace.points.len().max(1) as f64;
        t.row(&[
            staleness.to_string(),
            format!("{mean_iter:.6}"),
            format!("{:.6}", trace.final_loss()),
        ]);
    }
    println!("\n  staleness lets healthy workers proceed; losses stay comparable");
    println!("  because stale gradients at these bounds barely hurt SGD.");
}
