//! Behavioural tests for the RDD engine: transformations, actions, caching,
//! broadcast, task retry and executor recovery.

use ps2_dataflow::{deploy_executors, FailureConfig, SparkContext};
use ps2_simnet::{SimBuilder, SimReport, SimTime};

/// Run a driver closure on a cluster of `execs` executors.
fn with_cluster<T, F>(execs: usize, seed: u64, f: F) -> (T, SimReport)
where
    T: Send + 'static,
    F: FnOnce(&mut ps2_simnet::SimCtx, &mut SparkContext) -> T + Send + 'static,
{
    let mut sim = SimBuilder::new().seed(seed).build();
    let executors = deploy_executors(&mut sim, execs);
    let out = sim.spawn_collect("driver", move |ctx| {
        let mut sc = SparkContext::new(executors);
        f(ctx, &mut sc)
    });
    let report = sim.run().unwrap();
    (out.take(), report)
}

#[test]
fn map_filter_collect() {
    let (got, _) = with_cluster(3, 1, |ctx, sc| {
        let rdd = sc.parallelize(ctx, (1..=10u64).collect(), 3);
        let evens = rdd.map(|x| x * 10).filter(|x| x % 20 == 0);
        sc.collect(ctx, &evens)
    });
    assert_eq!(got, vec![20, 40, 60, 80, 100]);
}

#[test]
fn partitions_preserve_order_and_balance() {
    let (got, _) = with_cluster(4, 1, |ctx, sc| {
        let rdd = sc.parallelize(ctx, (0..100u64).collect(), 7);
        (sc.collect(ctx, &rdd), sc.count(ctx, &rdd))
    });
    assert_eq!(got.0, (0..100).collect::<Vec<_>>());
    assert_eq!(got.1, 100);
}

#[test]
fn reduce_partitions_combines_partials() {
    let (got, _) = with_cluster(4, 1, |ctx, sc| {
        let rdd = sc.parallelize(ctx, (1..=1000u64).collect(), 8);
        sc.reduce_partitions(ctx, &rdd, |p, _| p.iter().sum::<u64>(), |a, b| a + b)
    });
    assert_eq!(got, Some(500500));
}

#[test]
fn source_generates_per_partition() {
    let (got, _) = with_cluster(2, 1, |ctx, sc| {
        let rdd = sc.source(5, |part, _w| vec![part as u64; 3]);
        sc.collect(ctx, &rdd)
    });
    assert_eq!(got.len(), 15);
    assert_eq!(&got[0..3], &[0, 0, 0]);
    assert_eq!(&got[12..15], &[4, 4, 4]);
}

#[test]
fn sample_is_deterministic_per_salt_and_roughly_fractional() {
    let (got, _) = with_cluster(2, 1, |ctx, sc| {
        let rdd = sc.parallelize(ctx, (0..10_000u64).collect(), 4);
        let a = sc.collect(ctx, &rdd.sample(0.1, 7));
        let b = sc.collect(ctx, &rdd.sample(0.1, 7));
        let c = sc.collect(ctx, &rdd.sample(0.1, 8));
        (a, b, c)
    });
    assert_eq!(got.0, got.1, "same salt must give the same sample");
    assert_ne!(got.0, got.2, "different salts should differ");
    let frac = got.0.len() as f64 / 10_000.0;
    assert!(
        (0.07..=0.13).contains(&frac),
        "fraction {frac} out of range"
    );
}

#[test]
fn cache_avoids_recomputation() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let computes = Arc::new(AtomicU64::new(0));
    let c2 = Arc::clone(&computes);
    let ((), _) = with_cluster(2, 1, move |ctx, sc| {
        let counter = Arc::clone(&c2);
        let rdd = sc
            .source(4, move |part, _w| {
                counter.fetch_add(1, Ordering::Relaxed);
                vec![part as u64]
            })
            .cache();
        let _ = sc.count(ctx, &rdd);
        let _ = sc.count(ctx, &rdd);
        let _ = sc.count(ctx, &rdd);
    });
    assert_eq!(
        computes.load(std::sync::atomic::Ordering::Relaxed),
        4,
        "cached source must be generated exactly once per partition"
    );
}

#[test]
fn uncached_source_recomputes_every_action() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let computes = Arc::new(AtomicU64::new(0));
    let c2 = Arc::clone(&computes);
    let ((), _) = with_cluster(2, 1, move |ctx, sc| {
        let counter = Arc::clone(&c2);
        let rdd = sc.source(4, move |_part, _w| {
            counter.fetch_add(1, Ordering::Relaxed);
            vec![1u64]
        });
        let _ = sc.count(ctx, &rdd);
        let _ = sc.count(ctx, &rdd);
    });
    assert_eq!(computes.load(std::sync::atomic::Ordering::Relaxed), 8);
}

#[test]
fn broadcast_reaches_all_tasks() {
    let (got, _) = with_cluster(3, 1, |ctx, sc| {
        let b = sc.broadcast(ctx, vec![1.0f64, 2.0, 3.0], 32);
        let rdd = sc.parallelize(ctx, vec![0usize, 1, 2, 0, 1, 2], 3);
        let picked = rdd.map_partitions(move |part, w| {
            let v = w.broadcast(&b);
            part.iter().map(|&i| v[i]).collect()
        });
        sc.collect(ctx, &picked)
    });
    assert_eq!(got, vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
}

#[test]
fn broadcast_scales_logarithmically_via_relay_tree() {
    // Torrent-style broadcast: the driver ships one copy; executors relay
    // down a binary tree. Cost grows with depth (log E), far slower than
    // linear fan-out would.
    let time_for = |execs: usize| {
        let (t, _) = with_cluster(execs, 1, |ctx, sc| {
            let before = ctx.now();
            let _b = sc.broadcast(ctx, (), 50_000_000); // 50 MB
            ctx.now() - before
        });
        t
    };
    let t1 = time_for(1);
    let t2 = time_for(2);
    let t16 = time_for(16);
    assert!(t2 > t1, "a deeper tree must cost more: {t1:?} vs {t2:?}");
    assert!(
        t16.as_nanos() < 8 * t2.as_nanos(),
        "16 executors must cost far less than 8x the 2-executor time \
         (log, not linear): {t2:?} vs {t16:?}"
    );
}

#[test]
fn injected_task_failures_are_retried_and_job_completes() {
    let (got, _) = with_cluster(4, 99, |ctx, sc| {
        sc.failure = FailureConfig {
            task_failure_prob: 0.3,
            failure_waste: SimTime::from_millis(10),
            max_task_attempts: 50,
        };
        let rdd = sc.parallelize(ctx, (1..=100u64).collect(), 20);
        let sum = sc.reduce_partitions(ctx, &rdd, |p, _| p.iter().sum::<u64>(), |a, b| a + b);
        (sum, sc.task_retries)
    });
    assert_eq!(got.0, Some(5050), "result must be exact despite failures");
    assert!(
        got.1 > 0,
        "with p=0.3 over 20 tasks some retries must happen"
    );
}

#[test]
fn task_failures_slow_the_job_down() {
    // Figure 13(c)'s mechanism: higher failure probability, longer job.
    let run = |p: f64| {
        let (t, _) = with_cluster(4, 7, move |ctx, sc| {
            sc.failure.task_failure_prob = p;
            sc.failure.failure_waste = SimTime::from_millis(100);
            sc.failure.max_task_attempts = 1000;
            let rdd = sc.parallelize(ctx, (0..400u64).collect(), 40);
            let before = ctx.now();
            for salt in 0..5 {
                let s = rdd.sample(0.5, salt);
                let _ = sc.count(ctx, &s);
            }
            ctx.now() - before
        });
        t
    };
    let clean = run(0.0);
    let faulty = run(0.2);
    assert!(
        faulty > clean,
        "failures must cost time: {clean:?} vs {faulty:?}"
    );
}

#[test]
fn retry_budget_exhaustion_aborts_the_job() {
    let (got, _) = with_cluster(2, 5, |ctx, sc| {
        sc.failure.task_failure_prob = 1.0;
        sc.failure.max_task_attempts = 3;
        let rdd = sc.parallelize(ctx, vec![1u64], 1);
        sc.run_job(ctx, &rdd, |p, _| p.len(), |_| 8).err()
    });
    match got {
        Some(e) => assert!(e.to_string().contains("failed 3 times")),
        None => panic!("job should have aborted"),
    }
}

#[test]
fn executor_loss_recovers_by_respawn_and_lineage_recompute() {
    let mut sim = SimBuilder::new().seed(11).build();
    let executors = deploy_executors(&mut sim, 3);
    let victim = executors[1];
    let out = sim.spawn_collect("driver", move |ctx| {
        let mut sc = SparkContext::new(executors);
        let rdd = sc
            .source(6, |part, _w| vec![(part as u64 + 1) * 100])
            .cache();
        let before = sc.reduce_partitions(ctx, &rdd, |p, _| p.iter().sum::<u64>(), |a, b| a + b);
        // Simulate a machine dying between stages.
        ctx.kill(victim);
        let after = sc.reduce_partitions(ctx, &rdd, |p, _| p.iter().sum::<u64>(), |a, b| a + b);
        (before, after, sc.executors_replaced)
    });
    sim.run().unwrap();
    let (before, after, replaced) = out.take();
    assert_eq!(before, Some(2100));
    assert_eq!(
        after,
        Some(2100),
        "lineage recompute must restore lost data"
    );
    assert_eq!(replaced, 1);
}

#[test]
fn executor_loss_mid_job_is_detected_by_liveness_poll() {
    let mut sim = SimBuilder::new().seed(13).build();
    let executors = deploy_executors(&mut sim, 2);
    let victim = executors[0];
    // A saboteur kills an executor shortly after the job starts.
    sim.spawn("saboteur", move |ctx| {
        ctx.advance(SimTime::from_millis(1));
        ctx.kill(victim);
    });
    let out = sim.spawn_collect("driver", move |ctx| {
        let mut sc = SparkContext::new(executors);
        // Tasks long enough that the kill lands while they are in flight.
        let rdd = sc.source(4, |part, w| {
            w.sim.advance(SimTime::from_millis(500));
            vec![part as u64]
        });
        sc.reduce_partitions(ctx, &rdd, |p, _| p.iter().sum::<u64>(), |a, b| a + b)
    });
    sim.run().unwrap();
    assert_eq!(out.take(), Some(1 + 2 + 3));
}

#[test]
fn stuck_non_executor_dependency_aborts_instead_of_livelocking() {
    // A task blocks against a process that is alive but never answers — not
    // an executor, so the timeout branch finds nothing to redispatch, and the
    // scheduler cannot recover anything else. It used to re-poll that state
    // forever (driver livelock); now it errors out after
    // `MAX_FRUITLESS_POLLS`.
    use ps2_dataflow::{JobError, MAX_FRUITLESS_POLLS};
    let mut sim = SimBuilder::new().seed(17).build();
    let executors = deploy_executors(&mut sim, 2);
    let blackhole = sim.spawn_daemon("blackhole", |ctx| loop {
        let _ = ctx.recv(); // swallow every request, reply to none
    });
    let out = sim.spawn_collect("driver", move |ctx| {
        let mut sc = SparkContext::new(executors);
        let rdd = sc.source(1, move |_p, w| {
            let _ = w.sim.call(blackhole, 7, (), 8);
            vec![0u64]
        });
        sc.run_job(ctx, &rdd, |p, _| p.len(), |_| 8).err()
    });
    sim.run().unwrap();
    match out.take() {
        Some(JobError::LivenessTimeout {
            outstanding,
            fruitless_polls,
        }) => {
            assert_eq!(outstanding, 1);
            assert_eq!(fruitless_polls, MAX_FRUITLESS_POLLS);
        }
        other => panic!("expected LivenessTimeout, got {other:?}"),
    }
}

#[test]
fn engine_runs_are_deterministic() {
    let run = || {
        let (t, report) = with_cluster(5, 21, |ctx, sc| {
            sc.failure.task_failure_prob = 0.1;
            sc.failure.max_task_attempts = 100;
            let rdd = sc.parallelize(ctx, (0..2000u64).collect(), 25).cache();
            for salt in 0..4 {
                let _ = sc.count(ctx, &rdd.sample(0.3, salt));
            }
            ctx.now()
        });
        (t, report.total_msgs, report.total_bytes)
    };
    assert_eq!(run(), run());
}
