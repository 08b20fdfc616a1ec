//! Criterion microbenchmarks — real wall-clock cost of the reproduction's
//! hot paths (the simulator, DCV ops, data generators). These measure *this
//! implementation*, complementing the figure benches which measure
//! *simulated cluster time*.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ps2_core::{run_ps2, ClusterSpec};
use ps2_data::{CorpusGen, GraphGen, SparseDatasetGen};
use ps2_simnet::{ProcId, SimBuilder};

fn spec() -> ClusterSpec {
    ClusterSpec {
        workers: 4,
        servers: 4,
    }
}

fn bench_simnet_round_trip(c: &mut Criterion) {
    c.bench_function("simnet/1000_rpc_round_trips", |b| {
        b.iter(|| {
            let mut sim = SimBuilder::new().seed(1).build();
            sim.spawn_daemon("server", |ctx| loop {
                let env = ctx.recv();
                ctx.reply(&env, (), 8);
            });
            sim.spawn("client", |ctx| {
                for _ in 0..1000 {
                    let _ = ctx.call(ProcId(0), 0, (), 64);
                }
            });
            sim.run().unwrap()
        })
    });
}

fn bench_dcv_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("dcv");
    for dim in [10_000u64, 100_000] {
        g.bench_with_input(BenchmarkId::new("dot", dim), &dim, |b, &dim| {
            b.iter(|| {
                run_ps2(spec(), 1, move |ctx, ps2| {
                    let a = ps2.dense_dcv(ctx, dim, 2);
                    let a2 = a.derive(ctx);
                    a.fill(ctx, 1.0);
                    a2.fill(ctx, 2.0);
                    let mut acc = 0.0;
                    for _ in 0..10 {
                        acc += a.dot(ctx, &a2);
                    }
                    acc
                })
            })
        });
        g.bench_with_input(BenchmarkId::new("pull_push", dim), &dim, |b, &dim| {
            b.iter(|| {
                run_ps2(spec(), 1, move |ctx, ps2| {
                    let v = ps2.dense_dcv(ctx, dim, 1);
                    let values = vec![1.0; dim as usize];
                    for _ in 0..5 {
                        v.add_dense(ctx, &values);
                        let _ = v.pull(ctx);
                    }
                })
            })
        });
    }
    g.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut g = c.benchmark_group("generators");
    g.bench_function("sparse_10k_rows", |b| {
        let gen = SparseDatasetGen::new(10_000, 100_000, 30, 1, 7);
        b.iter(|| gen.partition(0))
    });
    g.bench_function("graph_2540_vertices", |b| {
        let gg = GraphGen {
            vertices: 2_540,
            edges_per_vertex: 4,
            seed: 7,
        };
        b.iter(|| gg.generate())
    });
    g.bench_function("corpus_1k_docs", |b| {
        let cg = CorpusGen::new(1_000, 10_000, 50, 80, 1, 7);
        b.iter(|| cg.partition(0))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simnet_round_trip, bench_dcv_ops, bench_generators
}
criterion_main!(benches);
