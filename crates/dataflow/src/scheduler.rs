//! The driver-side scheduler: job execution, retries, executor recovery.

use std::any::Any;
use std::marker::PhantomData;
use std::sync::Arc;

use ps2_simnet::fabric::{Dispatcher, FabricPolicy};
use ps2_simnet::hostprof::{self, Scope as ProfScope};
use ps2_simnet::{ProcId, SimCtx, SimTime, WireSize};

use crate::broadcast::{Broadcast, BroadcastValue};
use crate::executor::{executor_main, tags, Combine, Sink, TaskJob, TaskResult, TaskSpec, WorkCtx};
use crate::rdd::{materialize_any, Rdd};

/// How long the driver waits on task replies before polling executor
/// liveness (executor-loss detection).
const LIVENESS_POLL: SimTime = SimTime::from_millis(30_000);
/// Consecutive liveness polls that find nothing to fix (no reply, no dead
/// executor) before the job aborts. Tasks can be stuck on a *non-executor*
/// dependency — a process that is alive but never answers, which the
/// scheduler cannot replace — and without this bound the timeout branch
/// would re-poll forever (a driver livelock rather than a simulator
/// deadlock, since the deadline keeps the driver runnable). A dead PS-server
/// is not such a dependency: the PS client's own request timeout recovers
/// it long before the first poll.
pub const MAX_FRUITLESS_POLLS: u32 = 32;
/// Declared wire size of a serialized task closure.
const TASK_BYTES: u64 = 2048;
/// Spark's default `treeAggregate` depth: partials meet at group leaders,
/// then at the driver.
const AGGREGATION_DEPTH: u32 = 2;

/// Spark's `treeAggregate` rule for how many groups `parts` partials are
/// combined in before the driver: shrink by `scale` = ⌈parts^(1/depth)⌉ (at
/// least 2) while another level still saves work. Group `g` is the
/// partitions `p ≡ g (mod groups)`, led by partition `g`; with `groups ==
/// parts` every partial goes straight to the driver.
fn aggregation_groups(parts: usize) -> usize {
    let root = (parts as f64).powf(1.0 / f64::from(AGGREGATION_DEPTH));
    let scale = (root.ceil() as usize).max(2);
    let mut groups = parts;
    while groups > scale + groups.div_ceil(scale) {
        groups /= scale;
    }
    groups
}

/// One `combine` of a tree aggregation, charged like Spark's dense
/// `combOp`: one flop per 8-byte value the merged-in partial declares on the
/// wire.
fn merge<R: WireSize>(ctx: &mut SimCtx, combine: &impl Fn(R, R) -> R, acc: R, partial: R) -> R {
    ctx.charge_flops(partial.wire_size() / 8);
    combine(acc, partial)
}

/// Failure-injection and recovery policy.
///
/// Retry semantics follow the paper (§5.3): a side-effecting operation —
/// a PS push, a shuffle write — should be a task's *final* operation, so a
/// task that failed before it can be re-run safely. The shuffle service
/// additionally keys writes by map partition (idempotent re-puts). PS
/// *gradient pushes* retain the paper's caveat: an executor dying in the
/// narrow window between a successful push and the task reply causes that
/// partition's gradient to be applied twice on retry — statistically
/// harmless for SGD, and inherent to the protocol being reproduced.
#[derive(Clone, Debug)]
pub struct FailureConfig {
    /// Probability that a task attempt fails (Figure 13(c) sweeps this).
    pub task_failure_prob: f64,
    /// Virtual time a failed attempt wastes before reporting.
    pub failure_waste: SimTime,
    /// Attempts per task before the job aborts.
    pub max_task_attempts: u32,
}

impl Default for FailureConfig {
    fn default() -> Self {
        FailureConfig {
            task_failure_prob: 0.0,
            failure_waste: SimTime::from_millis(50),
            max_task_attempts: 4,
        }
    }
}

/// A job failed permanently.
#[derive(Debug, Clone)]
pub enum JobError {
    /// Some task exhausted its retry budget.
    TaskRetriesExhausted { partition: usize, attempts: u32 },
    /// Outstanding tasks made no progress across [`MAX_FRUITLESS_POLLS`]
    /// consecutive liveness polls: every tracked executor is alive, yet no
    /// reply arrives. The tasks are stuck on a dependency the scheduler
    /// cannot recover.
    LivenessTimeout {
        outstanding: usize,
        fruitless_polls: u32,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::TaskRetriesExhausted {
                partition,
                attempts,
            } => write!(
                f,
                "task for partition {partition} failed {attempts} times; aborting job"
            ),
            JobError::LivenessTimeout {
                outstanding,
                fruitless_polls,
            } => write!(
                f,
                "{outstanding} task(s) made no progress across {fruitless_polls} liveness \
                 polls with all executors alive; aborting job instead of polling forever"
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// Driver-side entry point to the dataflow engine. Lives inside the driver
/// process; every method that talks to the cluster takes the driver's
/// [`SimCtx`].
pub struct SparkContext {
    executors: Vec<ProcId>,
    next_broadcast: u64,
    /// Broadcast registry kept for re-seeding replacement executors.
    broadcasts: Vec<BroadcastValue>,
    pub failure: FailureConfig,
    /// Count of executors replaced after being detected dead.
    pub executors_replaced: u64,
    /// Count of task attempts that failed and were retried.
    pub task_retries: u64,
    /// Jobs run so far — doubles as the job id carried on the
    /// `spark.job.*` trace marks.
    jobs_submitted: u64,
}

impl SparkContext {
    pub fn new(executors: Vec<ProcId>) -> SparkContext {
        assert!(!executors.is_empty(), "need at least one executor");
        SparkContext {
            executors,
            next_broadcast: 1,
            broadcasts: Vec::new(),
            failure: FailureConfig::default(),
            executors_replaced: 0,
            task_retries: 0,
            jobs_submitted: 0,
        }
    }

    pub fn num_executors(&self) -> usize {
        self.executors.len()
    }

    pub fn executors(&self) -> &[ProcId] {
        &self.executors
    }

    // ---- dataset creation --------------------------------------------------

    /// Distribute an in-memory collection (the data is *shipped* to the
    /// executors lazily as lineage; the driver pays no transfer here because
    /// each partition generator captures its slice).
    pub fn parallelize<T: Clone + Send + Sync + 'static>(
        &mut self,
        _ctx: &mut SimCtx,
        data: Vec<T>,
        partitions: usize,
    ) -> Rdd<T> {
        let data = Arc::new(data);
        let n = data.len();
        Rdd::from_source(partitions, move |part, _w| {
            let lo = part * n / partitions;
            let hi = (part + 1) * n / partitions;
            data[lo..hi].to_vec()
        })
    }

    /// Create a dataset from a deterministic per-partition generator — the
    /// stand-in for reading HDFS splits. Regeneration after executor loss is
    /// exactly a re-read.
    pub fn source<T, F>(&mut self, partitions: usize, gen: F) -> Rdd<T>
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(usize, &mut WorkCtx<'_, '_>) -> Vec<T> + Send + Sync + 'static,
    {
        Rdd::from_source(partitions, gen)
    }

    // ---- broadcast ----------------------------------------------------------

    /// Broadcast a value to every executor, torrent-style (like Spark's
    /// TorrentBroadcast): the value travels down a binary relay tree among
    /// the executors, so the driver sends only one copy and the makespan is
    /// `O(log executors)` transfer times rather than `O(executors)`.
    pub fn broadcast<T: Send + Sync + 'static>(
        &mut self,
        ctx: &mut SimCtx,
        value: T,
        bytes: u64,
    ) -> Broadcast<T> {
        let id = self.next_broadcast;
        self.next_broadcast += 1;
        let bv = BroadcastValue {
            id,
            value: Arc::new(value),
            bytes,
        };
        self.broadcasts.push(bv.clone());

        // Binary relay tree over executor indices; one ack token per node.
        let me = ctx.id();
        let mut tokens = Vec::with_capacity(self.executors.len());
        for _ in 0..self.executors.len() {
            tokens.push(ctx.alloc_reply_token());
        }
        fn subtree(
            executors: &[ProcId],
            tokens: &[u64],
            i: usize,
        ) -> crate::broadcast::BroadcastTree {
            let mut children = Vec::new();
            for c in [2 * i + 1, 2 * i + 2] {
                if c < executors.len() {
                    children.push(subtree(executors, tokens, c));
                }
            }
            crate::broadcast::BroadcastTree {
                node: executors[i],
                ack_token: tokens[i],
                children,
            }
        }
        let root = subtree(&self.executors, &tokens, 0);
        let ship = crate::broadcast::BroadcastShip {
            value: bv,
            ack_to: me,
            ack_token: root.ack_token,
            children: root.children,
        };
        ctx.send(self.executors[0], tags::BROADCAST_RELAY, ship, bytes);
        let mut pending = tokens;
        while !pending.is_empty() {
            let env = ctx
                .recv_reply(&pending, None)
                .expect("broadcast ack wait failed");
            pending.retain(|&t| t != env.corr);
        }
        Broadcast {
            id,
            _marker: PhantomData,
        }
    }

    /// Release a broadcast variable on the driver and every executor.
    /// Iterative drivers that broadcast a fresh model each round (the MLlib
    /// loop) must drop the previous one or executor memory grows without
    /// bound.
    pub fn drop_broadcast<T>(&mut self, ctx: &mut SimCtx, b: Broadcast<T>) {
        self.broadcasts.retain(|bv| bv.id != b.id);
        let reqs = self
            .executors
            .iter()
            .map(|&e| {
                (
                    e,
                    tags::DROP_BROADCAST,
                    Box::new(b.id) as Box<dyn Any + Send>,
                    16u64,
                )
            })
            .collect();
        let _ = ctx.call_many(reqs);
    }

    // ---- job execution -------------------------------------------------------

    /// Run one task per partition of `rdd`; each task materializes its
    /// partition and applies `f`. Returns per-partition results in
    /// partition order. This is the engine's only stage primitive — every
    /// action is sugar over it.
    pub fn run_job<T, R>(
        &mut self,
        ctx: &mut SimCtx,
        rdd: &Rdd<T>,
        f: impl Fn(&[T], &mut WorkCtx<'_, '_>) -> R + Send + Sync + 'static,
        result_bytes: impl Fn(&R) -> u64 + Send + Sync + 'static,
    ) -> Result<Vec<R>, JobError>
    where
        T: Clone + Send + Sync + 'static,
        R: Send + 'static,
    {
        let raw = self.run_tasks(ctx, task_jobs(rdd, f, result_bytes), None)?;
        Ok(raw.into_iter().map(unbox).collect())
    }

    /// Scatter the erased tasks across executors (partition `p` prefers
    /// executor `p % E`), gather replies, retry failures, replace dead
    /// executors. With a `combine` the partials meet in
    /// [`aggregation_groups`] groups at their leaders' executors, and one
    /// result per group comes back, in group order; without one, every
    /// partition's result comes back, in partition order.
    ///
    /// Correlation bookkeeping and deadline waits live in the fabric's
    /// streaming [`Dispatcher`] (metrics under `spark.fabric.*`); retry
    /// *policy* — attempt budgets, liveness polls, executor replacement —
    /// stays here, because unlike a PS request a task is re-plannable: a
    /// failed attempt may move to a different executor.
    fn run_tasks(
        &mut self,
        ctx: &mut SimCtx,
        jobs: Vec<TaskJob>,
        combine: Option<Combine>,
    ) -> Result<Vec<Box<dyn Any + Send>>, JobError> {
        let n = jobs.len();
        let job_start = ctx.now();
        let job_id = self.jobs_submitted;
        self.jobs_submitted += 1;
        ctx.metric_add("spark.jobs", 1);
        ctx.trace_mark_with("spark.job.submit", job_id);
        let groups = match combine {
            Some(_) => aggregation_groups(n),
            None => n,
        };
        let mut run = JobRun {
            id: job_id,
            jobs,
            combine,
            groups,
            net: Dispatcher::new(FabricPolicy {
                attempt_timeout: LIVENESS_POLL,
                max_stale_attempts: MAX_FRUITLESS_POLLS,
                scope: "spark.fabric",
            }),
            told: vec![None; n],
            acked: vec![false; n],
        };
        let mut results: Vec<Option<Box<dyn Any + Send>>> = (0..groups).map(|_| None).collect();
        let mut attempts = vec![0u32; n];

        for part in 0..n {
            run.dispatch(self, ctx, part);
        }

        let mut fruitless_polls = 0u32;
        while !run.net.is_empty() {
            match run.net.await_any(ctx) {
                Some((sent, env)) => {
                    fruitless_polls = 0;
                    let part = sent.item;
                    ctx.metric_observe("spark.task.latency", ctx.now() - sent.sent_at);
                    match env.downcast::<TaskResult>() {
                        TaskResult::Ok(value) => {
                            ctx.trace_mark_with("spark.task.finish", part as u64);
                            results[part] = Some(value);
                        }
                        TaskResult::Forwarded => {
                            ctx.trace_mark_with("spark.task.finish", part as u64);
                            let leader = part % groups;
                            let current = self.executors[leader % self.executors.len()];
                            if results[leader].is_none() && run.told[part] != Some(current) {
                                // The leader's executor was replaced after
                                // this attempt was dispatched: the partial
                                // went to a dead proc.
                                ctx.metric_add("spark.task_redispatches", 1);
                                run.dispatch(self, ctx, part);
                            } else {
                                run.acked[part] = true;
                            }
                        }
                        TaskResult::Failed => {
                            attempts[part] += 1;
                            self.task_retries += 1;
                            ctx.metric_add("spark.task_retries", 1);
                            ctx.trace_mark_with("spark.task.retry", part as u64);
                            if attempts[part] >= self.failure.max_task_attempts {
                                return Err(JobError::TaskRetriesExhausted {
                                    partition: part,
                                    attempts: attempts[part],
                                });
                            }
                            run.dispatch(self, ctx, part);
                        }
                    }
                }
                None => {
                    // Timed out. Reclaim tasks whose executor died and
                    // resend — all but children of a group whose leader has
                    // replied, whose partials are in.
                    ctx.metric_add("spark.liveness_polls", 1);
                    let dead = run.net.take_dead(|proc| ctx.is_alive(ProcId(proc)));
                    let redispatched = !dead.is_empty();
                    for sent in dead {
                        if results[sent.item % groups].is_some() {
                            continue;
                        }
                        ctx.metric_add("spark.task_redispatches", 1);
                        run.dispatch(self, ctx, sent.item);
                    }
                    // A poll that fixed nothing is fruitless; too many in a
                    // row means the stuck dependency is outside anything we
                    // can recover, and re-polling forever would livelock.
                    if redispatched {
                        fruitless_polls = 0;
                    } else {
                        fruitless_polls += 1;
                        if fruitless_polls >= MAX_FRUITLESS_POLLS {
                            return Err(JobError::LivenessTimeout {
                                outstanding: run.net.outstanding(),
                                fruitless_polls,
                            });
                        }
                    }
                }
            }
        }
        ctx.metric_observe("spark.job.latency", ctx.now() - job_start);
        ctx.trace_mark_with("spark.job.finish", job_id);
        Ok(results
            .into_iter()
            .map(|r| r.expect("missing task result"))
            .collect())
    }

    /// The executor partition `part` runs on, `part % E`. A dead one is
    /// replaced with a fresh one first (lost cache is rebuilt from lineage on
    /// demand) and the broadcast variables re-seeded.
    fn executor_for(&mut self, ctx: &mut SimCtx, part: usize) -> ProcId {
        let exec_idx = part % self.executors.len();
        if !ctx.is_alive(self.executors[exec_idx]) {
            self.executors_replaced += 1;
            let name = format!("executor-{exec_idx}r{}", self.executors_replaced);
            let id = ctx.spawn_daemon(&name, executor_main);
            self.executors[exec_idx] = id;
            for bv in &self.broadcasts {
                let _: ps2_simnet::Envelope = ctx.call(id, tags::BROADCAST, bv.clone(), bv.bytes);
            }
        }
        self.executors[exec_idx]
    }

    // ---- actions ------------------------------------------------------------

    /// Gather all elements at the driver (each partition's wire size is the
    /// sum of its elements').
    pub fn collect<T>(&mut self, ctx: &mut SimCtx, rdd: &Rdd<T>) -> Vec<T>
    where
        T: Clone + Send + Sync + WireSize + 'static,
    {
        let parts = self
            .run_job(
                ctx,
                rdd,
                |data, _w| data.to_vec(),
                |r: &Vec<T>| {
                    let _prof = hostprof::scope(ProfScope::CodecEncode);
                    r.wire_size()
                },
            )
            .expect("collect failed");
        parts.into_iter().flatten().collect()
    }

    /// Count elements.
    pub fn count<T>(&mut self, ctx: &mut SimCtx, rdd: &Rdd<T>) -> u64
    where
        T: Clone + Send + Sync + 'static,
    {
        self.run_job(ctx, rdd, |data, _w| data.len() as u64, |_| 8)
            .expect("count failed")
            .into_iter()
            .sum()
    }

    /// Map each partition to a partial result and combine the partials
    /// through Spark's depth-2 `treeAggregate` tree — the MLlib
    /// gradient-aggregation pattern. Spark's rule makes `groups` ≈ √P
    /// groups (partition `p` in group `p mod groups`, led by partition `p
    /// mod groups`); each partial travels to its group leader's executor,
    /// which merges them as they arrive, and the driver merges one result
    /// per group, so its in-NIC serializes `groups` partials instead of one
    /// per partition. Few partitions make groups of one: every partial goes
    /// to the driver.
    ///
    /// `combine` runs wherever a merge does, in arrival order, so it must
    /// be associative and commutative. Each merge is charged one flop per
    /// 8 bytes the merged-in partial declares, like Spark's dense `combOp`.
    pub fn reduce_partitions<T, R>(
        &mut self,
        ctx: &mut SimCtx,
        rdd: &Rdd<T>,
        map: impl Fn(&[T], &mut WorkCtx<'_, '_>) -> R + Send + Sync + 'static,
        combine: impl Fn(R, R) -> R + Send + Sync + 'static,
    ) -> Option<R>
    where
        T: Clone + Send + Sync + 'static,
        R: Send + WireSize + 'static,
    {
        let combine = Arc::new(combine);
        let erased: Combine = {
            let combine = Arc::clone(&combine);
            Arc::new(move |ctx: &mut SimCtx, acc, partial| {
                let merged = merge(ctx, &*combine, unbox(acc), unbox(partial));
                let bytes = merged.wire_size();
                (Box::new(merged) as Box<dyn Any + Send>, bytes)
            })
        };
        let jobs = task_jobs(rdd, map, |r: &R| {
            let _prof = hostprof::scope(ProfScope::CodecEncode);
            r.wire_size()
        });
        let partials = self
            .run_tasks(ctx, jobs, Some(erased))
            .expect("reduce failed");
        partials
            .into_iter()
            .map(unbox)
            .reduce(|acc, partial| merge(ctx, &*combine, acc, partial))
    }

    /// Run `f` over every partition for its side effects and block until all
    /// tasks finish — PS2's global barrier idiom (paper Figure 3, line 19).
    pub fn for_each_partition<T>(
        &mut self,
        ctx: &mut SimCtx,
        rdd: &Rdd<T>,
        f: impl Fn(&[T], &mut WorkCtx<'_, '_>) + Send + Sync + 'static,
    ) -> Result<(), JobError>
    where
        T: Clone + Send + Sync + 'static,
    {
        self.run_job(
            ctx,
            rdd,
            move |data, w| {
                f(data, w);
            },
            |_| 8,
        )
        .map(|_| ())
    }
}

/// One type-erased task body per partition of `rdd`: materialize the
/// partition, apply `f`, size the result.
fn task_jobs<T, R>(
    rdd: &Rdd<T>,
    f: impl Fn(&[T], &mut WorkCtx<'_, '_>) -> R + Send + Sync + 'static,
    result_bytes: impl Fn(&R) -> u64 + Send + Sync + 'static,
) -> Vec<TaskJob>
where
    T: Clone + Send + Sync + 'static,
    R: Send + 'static,
{
    let node = rdd.erased();
    let f = Arc::new(f);
    let result_bytes = Arc::new(result_bytes);
    (0..rdd.partitions())
        .map(|part| {
            let node = Arc::clone(&node);
            let f = Arc::clone(&f);
            let result_bytes = Arc::clone(&result_bytes);
            Arc::new(move |w: &mut WorkCtx<'_, '_>| {
                let data = materialize_any(&node, part, w);
                let typed = data
                    .downcast_ref::<Vec<T>>()
                    .expect("job input type mismatch");
                let r = f(typed, w);
                let bytes = result_bytes(&r);
                (Box::new(r) as Box<dyn Any + Send>, bytes)
            }) as TaskJob
        })
        .collect()
}

fn unbox<R: 'static>(b: Box<dyn Any + Send>) -> R {
    *b.downcast::<R>().expect("job result type mismatch")
}

/// The driver's view of one job in flight: its tasks, their aggregation
/// groups, and which children's partials went where.
struct JobRun {
    id: u64,
    jobs: Vec<TaskJob>,
    combine: Option<Combine>,
    /// Aggregation groups ([`aggregation_groups`]); `jobs.len()` without a
    /// combine.
    groups: usize,
    net: Dispatcher,
    /// Per child partition: the executor its latest attempt was told to send
    /// its partial to, and whether that attempt acked.
    told: Vec<Option<ProcId>>,
    acked: Vec<bool>,
}

impl JobRun {
    /// Put partition `part`'s task on the wire, to the executor it prefers.
    /// A child is told its leader's *current* executor. A leader moved to a
    /// new executor takes its acked children with it: their partials went
    /// to the old one.
    fn dispatch(&mut self, sc: &mut SparkContext, ctx: &mut SimCtx, part: usize) {
        let dst = sc.executor_for(ctx, part);
        let leader = part % self.groups;
        let children = (leader + self.groups..self.jobs.len()).step_by(self.groups);
        let sink = match &self.combine {
            None => Sink::Reply,
            Some(combine) if part == leader => Sink::Lead {
                children: children.clone().collect(),
                combine: Arc::clone(combine),
            },
            Some(_) => {
                let exec = sc.executor_for(ctx, leader);
                self.told[part] = Some(exec);
                Sink::Parent { leader, exec }
            }
        };
        let spec = Arc::new(TaskSpec {
            job: Arc::clone(&self.jobs[part]),
            job_id: self.id,
            partition: part,
            sink,
            failure_prob: sc.failure.task_failure_prob,
            failure_waste: sc.failure.failure_waste,
        });
        ctx.metric_add("spark.tasks_dispatched", 1);
        ctx.trace_mark_with("spark.task.start", part as u64);
        self.net
            .dispatch(ctx, dst, tags::TASK, spec, TASK_BYTES, part, dst.0);
        self.acked[part] = false;
        if part == leader {
            for child in children {
                if self.acked[child] && self.told[child] != Some(dst) {
                    ctx.metric_add("spark.task_redispatches", 1);
                    self.dispatch(sc, ctx, child);
                }
            }
        }
    }
}
