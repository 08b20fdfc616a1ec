//! `reduce_partitions` combines through Spark's depth-2 tree: partials meet
//! at group leaders' executors and the driver merges one result per group.
//! The sum must come out exact whatever the partition/executor ratio, and
//! through task failures, a leader's executor dying, and a child dying
//! between its partial and its ack.

use std::sync::{Arc, Mutex};

use ps2_dataflow::{deploy_executors, SparkContext};
use ps2_simnet::{SimBuilder, SimCtx, SimReport, SimTime, WireSize};

/// A partial sum that declares a dense-vector-sized wire footprint, so the
/// driver's received bytes show how many partials reached it.
struct Heavy(u64);

const HEAVY_BYTES: u64 = 80_000;
/// A child's ack to the driver.
const ACK_BYTES: u64 = 16;

impl WireSize for Heavy {
    fn wire_size(&self) -> u64 {
        HEAVY_BYTES
    }
}

/// `parts` partitions holding `1..=parts`, summed through the tree on
/// `execs` executors. `setup` may spawn a saboteur before the driver,
/// `configure` arms the driver's failure policy, and `map_hook` runs inside
/// every map task. Returns the sum, the executors replaced and the report.
fn tree_sum(
    execs: usize,
    parts: usize,
    seed: u64,
    setup: impl FnOnce(&mut ps2_simnet::SimRuntime, &[ps2_simnet::ProcId]),
    configure: impl FnOnce(&mut SparkContext) + Send + 'static,
    map_hook: impl Fn(&mut SimCtx, usize) + Send + Sync + 'static,
) -> (Option<u64>, u64, SimReport) {
    let mut sim = SimBuilder::new().seed(seed).build();
    let executors = deploy_executors(&mut sim, execs);
    setup(&mut sim, &executors);
    let out = sim.spawn_collect("driver", move |ctx| {
        let mut sc = SparkContext::new(executors);
        configure(&mut sc);
        let rdd = sc.source(parts, |p, _w| vec![p as u64 + 1]);
        let sum = sc
            .reduce_partitions(
                ctx,
                &rdd,
                move |p, w| {
                    map_hook(w.sim, w.partition);
                    Heavy(p.iter().sum())
                },
                |a, b| Heavy(a.0 + b.0),
            )
            .map(|h| h.0);
        (sum, sc.executors_replaced)
    });
    let report = sim.run().unwrap();
    let (sum, replaced) = out.take();
    (sum, replaced, report)
}

fn plain_sum(parts: usize) -> u64 {
    (1..=parts as u64).sum()
}

fn no_setup(_: &mut ps2_simnet::SimRuntime, _: &[ps2_simnet::ProcId]) {}

#[test]
fn driver_merges_one_partial_per_group_at_any_partition_executor_ratio() {
    // (executors, partitions, Spark's group count).
    for (execs, parts, groups) in [(4, 4, 4), (16, 9, 3), (8, 8, 2), (4, 20, 4)] {
        let (sum, _, report) = tree_sum(execs, parts, 1, no_setup, |_| {}, |_, _| {});
        assert_eq!(sum, Some(plain_sum(parts)), "E={execs} P={parts}");
        let driver_in = report.proc("driver").expect("driver stats").bytes_recv;
        assert_eq!(
            driver_in,
            groups * HEAVY_BYTES + (parts as u64 - groups) * ACK_BYTES,
            "E={execs} P={parts}: the driver must receive {groups} partials"
        );
    }
}

#[test]
fn tree_sum_survives_task_failures() {
    let (sum, _, report) = tree_sum(
        4,
        20,
        99,
        no_setup,
        |sc| {
            sc.failure.task_failure_prob = 0.3;
            sc.failure.failure_waste = SimTime::from_millis(10);
            sc.failure.max_task_attempts = 50;
        },
        |_, _| {},
    );
    assert_eq!(sum, Some(plain_sum(20)));
    assert!(report.metrics.counter("spark.task_retries") > 0);
}

#[test]
fn leader_executor_loss_resends_its_children() {
    // E = 8, P = 16: 4 groups. Group 1's leader (partition 1, executor 1)
    // runs long; its child 5 (executor 5) finishes, sends its partial to
    // executor 1 and acks. Executor 1 dies with that partial and with child
    // 9 queued behind the leader. Child 13, behind 5 on executor 5, is still
    // running when the driver replaces executor 1 (at the 30 s liveness
    // poll): it sends to the dead executor it was told and acks after that.
    let (sum, replaced, report) = tree_sum(
        8,
        16,
        13,
        |sim, execs| {
            let victim = execs[1];
            sim.spawn("saboteur", move |ctx| {
                ctx.advance(SimTime::from_millis(1_500));
                ctx.kill(victim);
            });
        },
        |_| {},
        |sim, part| {
            let ms = match part {
                1 => 3_000,
                13 => 40_000,
                _ => 500,
            };
            sim.advance(SimTime::from_millis(ms));
        },
    );
    assert_eq!(sum, Some(plain_sum(16)));
    assert_eq!(replaced, 1);
    // Leader 1 and child 9 from the dead executor; child 5, which acked to
    // the old executor, with the leader; child 13 when its stale ack comes.
    assert_eq!(report.metrics.counter("spark.task_redispatches"), 4);
}

#[test]
fn child_lost_between_partial_and_ack_is_counted_once() {
    // E = 8, P = 16: partitions 5 and 13 run on executor 5, children of
    // group 1 whose leader is on executor 1. Executor 5 dies just after
    // partition 5 sent its partial, before its ack: the driver re-runs 5
    // (and the never-run 13), and the leader drops 5's second partial.
    const VICTIM: usize = 5;
    let run = |kill_at: Option<SimTime>| {
        let finished = Arc::new(Mutex::new(None));
        let seen = Arc::clone(&finished);
        let (sum, replaced, report) = tree_sum(
            8,
            16,
            3,
            move |sim, execs| {
                let victim = execs[VICTIM];
                sim.spawn("saboteur", move |ctx| {
                    if let Some(at) = kill_at {
                        ctx.advance(at);
                        ctx.kill(victim);
                    }
                });
            },
            |_| {},
            move |sim, part| {
                if part == VICTIM {
                    seen.lock().unwrap().get_or_insert(sim.now());
                }
            },
        );
        let finished = finished.lock().unwrap().expect("partition 5 ran");
        (sum, replaced, report, finished)
    };
    // A clean run says when partition 5's map returns; the executor's next
    // yield is the partial's send, which takes one per-message overhead
    // (2 µs). Kill halfway through it.
    let (sum, _, clean, finished) = run(None);
    assert_eq!(sum, Some(plain_sum(16)));
    assert_eq!(clean.metrics.counter("executor.duplicate_partials"), 0);
    let kill_at = finished + SimTime::from_micros(1);
    let (sum, replaced, report, _) = run(Some(kill_at));
    assert_eq!(sum, Some(plain_sum(16)));
    assert_eq!(replaced, 1);
    assert_eq!(report.metrics.counter("executor.duplicate_partials"), 1);
}
