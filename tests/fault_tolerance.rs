//! End-to-end fault tolerance: a PS-server is killed in the *middle* of an
//! LR iteration — while worker tasks are blocked on it — and training still
//! completes, because the PS-clients' deadline/retry layer detects the dead
//! server, triggers checkpoint-based recovery from inside the job, and
//! replays the in-flight requests against the replacement.
//!
//! Before the request layer existed this scenario was a hard hang: the
//! workers blocked forever on the dead server, the driver polled executor
//! liveness (all alive) forever, and the run ended in `SimError::Deadlock`.

use ps2::data::SparseDatasetGen;
use ps2::ml::lr::{distinct_cols, grad_aligned};
use ps2::simnet::CausalAnalysis;
use ps2::{deploy, ClusterSpec, MetricsSnapshot, Ps2Context, RunReport, SimBuilder, SimTime};

const SEED: u64 = 23;
const ITERS: usize = 8;
const ROWS: u64 = 2_000;
const DIM: u64 = 4_000;
const LEARNING_RATE: f64 = 20.0;
/// The model is checkpointed at the end of this (1-based) iteration and the
/// kill lands inside the following iteration's gradient phase.
const CHECKPOINT_AFTER: usize = 4;

struct RunOutcome {
    losses: Vec<f64>,
    /// `ctx.now()` right after each iteration's gradient job returns.
    grad_done: Vec<SimTime>,
    /// `ctx.now()` at the very end of each iteration.
    iter_done: Vec<SimTime>,
    recoveries: u64,
    silent_reinits: u64,
    /// Flight-recorder registry captured from the final `SimReport`.
    metrics: MetricsSnapshot,
    /// Aggregated breakdown report (per-op rows, drops by tag).
    run_report: RunReport,
    /// Critical-path attribution of the whole run.
    critical: CausalAnalysis,
}

/// One deterministic run of a hand-rolled mini-batch-free LR loop (full
/// batch per iteration), checkpointing once after `CHECKPOINT_AFTER`
/// iterations. When `kill_at` is set, a chaos process kills one PS-server at
/// that virtual time. The chaos process is spawned in *both* runs so process
/// ids and scheduling are identical up to the kill.
fn run_lr(kill_at: Option<SimTime>) -> RunOutcome {
    let spec = ClusterSpec {
        workers: 4,
        servers: 4,
    };
    let mut sim = SimBuilder::new().seed(SEED).trace(true).build();
    let deployment = deploy(&mut sim, &spec);
    let victim = deployment.servers[1];
    sim.spawn("chaos", move |ctx| {
        if let Some(at) = kill_at {
            ctx.advance(at);
            ctx.kill(victim);
        }
    });
    let out = sim.spawn_collect("coordinator", move |ctx| {
        let mut ps2 = Ps2Context::new(deployment);
        let gen = SparseDatasetGen::new(ROWS, DIM, 10, 4, SEED);
        let gen2 = gen.clone();
        let data = ps2
            .spark
            .source(gen.partitions, move |p, _w| gen2.partition(p))
            .cache();
        let _ = ps2.spark.count(ctx, &data);

        let w = ps2.dense_dcv(ctx, DIM, 1);
        let mut losses = Vec::new();
        let mut grad_done = Vec::new();
        let mut iter_done = Vec::new();
        for t in 1..=ITERS {
            let wd = w.clone();
            let results = ps2
                .spark
                .run_job(
                    ctx,
                    &data,
                    move |examples, wk| {
                        let cols = distinct_cols(examples);
                        let wv = wd.pull_indices(wk.sim, &cols);
                        let (grad, loss) = grad_aligned(examples, &cols, &wv);
                        let scaled: Vec<(u64, f64)> = cols
                            .into_iter()
                            .zip(grad)
                            .map(|(j, g)| (j, -LEARNING_RATE * g / ROWS as f64))
                            .collect();
                        wd.add_sparse(wk.sim, &scaled);
                        (loss, examples.len() as u64)
                    },
                    |_| 24,
                )
                .expect("gradient job must survive the server kill");
            grad_done.push(ctx.now());
            let (loss_sum, n) = results
                .into_iter()
                .fold((0.0, 0u64), |(l, c), (li, ci)| (l + li, c + ci));
            losses.push(loss_sum / n.max(1) as f64);
            if t == CHECKPOINT_AFTER {
                ps2.ps.checkpoint_all(ctx);
            }
            iter_done.push(ctx.now());
        }
        (
            losses,
            grad_done,
            iter_done,
            ps2.ps.recoveries(),
            ps2.ps.silent_reinits(),
        )
    });
    let report = sim.run().expect("simulation must complete (no deadlock)");
    let (losses, grad_done, iter_done, recoveries, silent_reinits) = out.take();
    let run_report = RunReport::from_sim(&report);
    let critical = CausalAnalysis::from_report(&report).expect("traced run has a critical path");
    RunOutcome {
        losses,
        grad_done,
        iter_done,
        recoveries,
        silent_reinits,
        critical,
        metrics: report.metrics,
        run_report,
    }
}

#[test]
fn server_killed_mid_iteration_training_completes_via_in_job_recovery() {
    // Fault-free reference run, used both as the timing oracle (where does
    // iteration 5's gradient phase live in virtual time?) and as the loss
    // baseline.
    let clean = run_lr(None);
    assert_eq!(clean.losses.len(), ITERS);
    assert_eq!(clean.recoveries, 0);
    assert!(
        clean.losses[ITERS - 1] < 0.8 * clean.losses[0],
        "reference run must actually learn: {:?}",
        clean.losses
    );

    // Kill one server squarely inside iteration `CHECKPOINT_AFTER + 1`'s
    // gradient phase: after the post-checkpoint iteration starts, before its
    // gradient job completes — while worker pulls/pushes are in flight.
    let lo = clean.iter_done[CHECKPOINT_AFTER - 1];
    let hi = clean.grad_done[CHECKPOINT_AFTER];
    assert!(lo < hi);
    let kill_at = SimTime(lo.0 + (hi.0 - lo.0) / 2);

    let faulty = run_lr(Some(kill_at));
    assert_eq!(
        faulty.losses.len(),
        ITERS,
        "every iteration must complete despite the mid-iteration kill"
    );
    assert!(
        faulty.recoveries >= 1,
        "the dead server must have been recovered during the job"
    );
    assert_eq!(
        faulty.silent_reinits, 0,
        "recovery must restore the checkpoint, not silently re-init"
    );
    // Identical prefix: both runs are bit-deterministic until the kill.
    assert_eq!(
        &faulty.losses[..CHECKPOINT_AFTER],
        &clean.losses[..CHECKPOINT_AFTER],
        "pre-kill iterations must be unaffected"
    );
    // Post-recovery tolerance. The victim's slot rolls back to the
    // checkpoint, so gradient pushes acknowledged on it between the
    // checkpoint and the kill are lost (in-flight ones are retried and
    // applied exactly once, thanks to per-request op ids). The model
    // therefore drifts slightly from the reference, but training must still
    // converge to the same neighbourhood.
    let c = clean.losses[ITERS - 1];
    let f = faulty.losses[ITERS - 1];
    assert!(
        f < 0.8 * faulty.losses[0],
        "faulty run must still learn: {:?}",
        faulty.losses
    );
    assert!(
        (f - c).abs() / c < 0.2,
        "final losses must agree within the documented lost-push tolerance: \
         clean {c}, faulty {f}"
    );
    // The recovered run pays the detection deadline at least once.
    assert!(
        faulty.iter_done[ITERS - 1] > clean.iter_done[ITERS - 1],
        "recovery must cost virtual time"
    );
    // The flight recorder must have tagged the fault handling: the clients'
    // retry path and the master's recovery span both leave counters behind.
    let tagged =
        faulty.metrics.counter("ps.client.retries") + faulty.metrics.counter("ps.fleet.recoveries");
    assert!(
        tagged >= 1,
        "faulty run must record at least one tagged retry/recovery span"
    );
    assert_eq!(
        faulty.metrics.counter("ps.fleet.recoveries"),
        faulty.recoveries,
        "registry recovery count must match the master's own count"
    );
    assert_eq!(
        clean.metrics.counter("ps.client.retries"),
        0,
        "clean run must not record retries"
    );
    assert_eq!(clean.metrics.counter("ps.fleet.recoveries"), 0);
    // Messages addressed to the killed server are dropped, and the runtime
    // attributes every drop to its protocol tag — the faulty run's breakdown
    // table must name the tags and account for every dropped message.
    assert!(
        !faulty.run_report.drops_by_tag.is_empty(),
        "faulty run must attribute its dropped messages to protocol tags"
    );
    let by_tag: u64 = faulty.run_report.drops_by_tag.iter().map(|(_, n)| n).sum();
    assert_eq!(
        by_tag, faulty.run_report.dropped_msgs,
        "per-tag drop counts must sum to the total drop count"
    );
    assert!(
        clean.run_report.drops_by_tag.is_empty(),
        "clean run must drop nothing"
    );
    // The recovery stall is idle time on the critical path: the extra
    // makespan the kill costs is the path waiting out the dead server's
    // attempt deadline, not compute, network or queueing.
    let extra = faulty.critical.makespan.as_nanos() - clean.critical.makespan.as_nanos();
    let extra_idle = faulty.critical.idle_ns as i64 - clean.critical.idle_ns as i64;
    let idle_share_milli = extra_idle * 1000 / extra as i64;
    assert_eq!(
        idle_share_milli,
        999,
        "idle must carry the recovery stall: clean {:?}, faulty {:?}",
        clean.critical.categories(),
        faulty.critical.categories()
    );
}
