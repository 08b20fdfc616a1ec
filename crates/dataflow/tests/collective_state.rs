//! Tests for executor-resident task state and the ring AllReduce collective.

use ps2_dataflow::{deploy_executors, ring_allreduce_sum, SparkContext};
use ps2_simnet::SimBuilder;

#[test]
fn task_state_persists_across_stages_on_same_executor() {
    let mut sim = SimBuilder::new().seed(1).build();
    let executors = deploy_executors(&mut sim, 3);
    let out = sim.spawn_collect("driver", move |ctx| {
        let mut sc = SparkContext::new(executors);
        let rdd = sc.source(3, |part, _w| vec![part as u64]);
        // Stage 1: store a counter per partition.
        sc.for_each_partition(ctx, &rdd, |_data, w| {
            let mut c: u64 = w.take_state(42).unwrap_or(0);
            c += 10;
            w.put_state(42, c);
        })
        .unwrap();
        // Stage 2: bump it again and read it back.
        sc.run_job(
            ctx,
            &rdd,
            |_data, w| {
                let mut c: u64 = w.take_state(42).unwrap_or(0);
                c += 1;
                w.put_state(42, c);
                c
            },
            |_| 8,
        )
        .unwrap()
    });
    sim.run().unwrap();
    assert_eq!(out.take(), vec![11, 11, 11]);
}

#[test]
fn state_keys_are_isolated() {
    let mut sim = SimBuilder::new().seed(1).build();
    let executors = deploy_executors(&mut sim, 2);
    let out = sim.spawn_collect("driver", move |ctx| {
        let mut sc = SparkContext::new(executors);
        let rdd = sc.source(2, |part, _w| vec![part as u64]);
        sc.for_each_partition(ctx, &rdd, |_d, w| {
            w.put_state(1, 100u64);
            w.put_state(2, vec![1.0f64, 2.0]);
        })
        .unwrap();
        sc.run_job(
            ctx,
            &rdd,
            |_d, w| {
                let a: u64 = w.take_state(1).unwrap();
                let b: Vec<f64> = w.take_state(2).unwrap();
                let missing: Option<u64> = w.take_state(3);
                (a, b.len() as u64, missing.is_none())
            },
            |_| 24,
        )
        .unwrap()
    });
    sim.run().unwrap();
    for (a, blen, missing) in out.take() {
        assert_eq!((a, blen, missing), (100, 2, true));
    }
}

#[test]
fn ring_allreduce_sums_across_all_workers() {
    let execs = 4usize;
    let n = 103usize; // deliberately not divisible by 4
    let mut sim = SimBuilder::new().seed(2).build();
    let executors = deploy_executors(&mut sim, execs);
    let peers = executors.clone();
    let out = sim.spawn_collect("driver", move |ctx| {
        let mut sc = SparkContext::new(executors);
        let rdd = sc.source(execs, |part, _w| vec![part as u64]);
        sc.run_job(
            ctx,
            &rdd,
            move |_d, w| {
                let rank = w.partition;
                // Worker r contributes value (r+1) at every position.
                let mut data = vec![(rank + 1) as f64; n];
                ring_allreduce_sum(w, &peers, rank, &mut data);
                data
            },
            |v: &Vec<f64>| 8 * v.len() as u64 + 8,
        )
        .unwrap()
    });
    sim.run().unwrap();
    let results = out.take();
    let expect = vec![(1 + 2 + 3 + 4) as f64; n];
    for r in results {
        assert_eq!(r, expect, "every rank must hold the full sum");
    }
}

#[test]
fn ring_allreduce_single_worker_is_identity() {
    let mut sim = SimBuilder::new().seed(2).build();
    let executors = deploy_executors(&mut sim, 1);
    let peers = executors.clone();
    let out = sim.spawn_collect("driver", move |ctx| {
        let mut sc = SparkContext::new(executors);
        let rdd = sc.source(1, |_p, _w| vec![0u64]);
        sc.run_job(
            ctx,
            &rdd,
            move |_d, w| {
                let mut data = vec![5.0; 10];
                ring_allreduce_sum(w, &peers, 0, &mut data);
                data
            },
            |v: &Vec<f64>| 8 * v.len() as u64,
        )
        .unwrap()
    });
    sim.run().unwrap();
    assert_eq!(out.take()[0], vec![5.0; 10]);
}

#[test]
fn allreduce_cost_scales_with_data_not_workers_squared() {
    // Total ring traffic ≈ 2 · W · n values; per-worker ≈ 2n regardless of W.
    let bytes_for = |execs: usize| {
        let n = 50_000usize;
        let mut sim = SimBuilder::new().seed(3).build();
        let executors = deploy_executors(&mut sim, execs);
        let peers = executors.clone();
        let out = sim.spawn_collect("driver", move |ctx| {
            let mut sc = SparkContext::new(executors);
            let rdd = sc.source(execs, |part, _w| vec![part as u64]);
            sc.run_job(
                ctx,
                &rdd,
                move |_d, w| {
                    let mut data = vec![1.0; n];
                    ring_allreduce_sum(w, &peers, w.partition, &mut data);
                    data[0]
                },
                |_| 8,
            )
            .unwrap()
        });
        let report = sim.run().unwrap();
        out.take();
        report.total_bytes
    };
    let b2 = bytes_for(2);
    let b8 = bytes_for(8);
    // Total bytes grow linearly-ish with W (each of W workers moves ~2n).
    assert!(b8 > 3 * b2 && b8 < 8 * b2, "b2={b2} b8={b8}");
}
