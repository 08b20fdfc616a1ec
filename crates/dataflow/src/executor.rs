//! Executor processes: task execution, block cache, broadcast store.

use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use rand::Rng;

use ps2_simnet::{Envelope, ProcId, SimCtx, SimRuntime, SimTime};

use crate::broadcast::BroadcastValue;
use crate::rdd::RddId;

/// Protocol tags between driver and executors.
pub(crate) mod tags {
    pub const TASK: u32 = 1;
    pub const BROADCAST: u32 = 2;
    pub const DROP_BROADCAST: u32 = 4;
    pub const BROADCAST_RELAY: u32 = 5;
    pub const PARTIAL: u32 = 6;

    /// Symbolic name for a tag, for diagnostics.
    pub fn name(tag: u32) -> &'static str {
        match tag {
            TASK => "TASK",
            BROADCAST => "BROADCAST",
            DROP_BROADCAST => "DROP_BROADCAST",
            BROADCAST_RELAY => "BROADCAST_RELAY",
            PARTIAL => "PARTIAL",
            _ => "?",
        }
    }
}

/// Type-erased task body: runs on an executor, returns the boxed result and
/// its wire size.
pub(crate) type TaskJob =
    Arc<dyn Fn(&mut WorkCtx<'_, '_>) -> (Box<dyn Any + Send>, u64) + Send + Sync>;

/// Type-erased `combine` of a tree aggregation: merges a partial into the
/// accumulator, charging the merge to the calling proc, and returns the
/// merged value with its wire size.
pub(crate) type Combine = Arc<
    dyn Fn(&mut SimCtx, Box<dyn Any + Send>, Box<dyn Any + Send>) -> (Box<dyn Any + Send>, u64)
        + Send
        + Sync,
>;

/// Where a task's result goes.
pub(crate) enum Sink {
    /// Reply to the driver with it.
    Reply,
    /// A tree-aggregation group leader: merge the partials of `children` into
    /// it, then reply to the driver with the combined value.
    Lead {
        children: Vec<usize>,
        combine: Combine,
    },
    /// A tree-aggregation child: send it to partition `leader`'s executor
    /// `exec`, then reply to the driver with an ack.
    Parent { leader: usize, exec: ProcId },
}

/// A child's partial on its way to the group leader.
struct Partial {
    job: u64,
    leader: usize,
    partition: usize,
    value: Box<dyn Any + Send>,
}

/// A leader whose own partial is done and whose children's are not all in.
struct Lead {
    /// The leader's `TASK`, answered once `waiting` is empty.
    request: Envelope,
    acc: Box<dyn Any + Send>,
    bytes: u64,
    waiting: Vec<usize>,
    combine: Combine,
}

impl Lead {
    fn merge(&mut self, ctx: &mut SimCtx, child: usize, partial: Box<dyn Any + Send>) {
        self.waiting.retain(|&c| c != child);
        let acc = std::mem::replace(&mut self.acc, Box::new(()));
        ctx.op_label("spark.combine");
        (self.acc, self.bytes) = (self.combine)(ctx, acc, partial);
        ctx.op_label_clear();
    }

    fn reply(self, ctx: &mut SimCtx) {
        ctx.reply(&self.request, TaskResult::Ok(self.acc), self.bytes);
    }
}

/// A fully type-erased unit of work shipped to an executor.
pub(crate) struct TaskSpec {
    /// Executes the task, returning the boxed result and its wire size.
    pub job: TaskJob,
    /// The driver's job counter: keys tree-aggregation partials, and lets an
    /// executor drop what older jobs left behind.
    pub job_id: u64,
    pub partition: usize,
    pub sink: Sink,
    /// Probability that this attempt fails before doing any side-effecting
    /// work (the paper's task-failure model: the PS push is a task's final
    /// operation, so an aborted task has pushed nothing).
    pub failure_prob: f64,
    /// Virtual time wasted by a failed attempt before the failure is
    /// reported.
    pub failure_waste: SimTime,
}

/// Reply payload for a task.
pub(crate) enum TaskResult {
    Ok(Box<dyn Any + Send>),
    /// A tree-aggregation child sent its partial to the group leader.
    Forwarded,
    Failed,
}

/// Executor-resident state and simulator access, handed to task closures.
///
/// The `sim` field is public: tasks charge their own compute time and issue
/// parameter-server RPCs through it (that is how PS2 workers talk to
/// PS-servers from inside an RDD operation).
pub struct WorkCtx<'a, 'b> {
    pub sim: &'a mut SimCtx,
    /// Partition index this task is computing.
    pub partition: usize,
    cache: &'b mut BlockCache,
    broadcasts: &'b HashMap<u64, BroadcastValue>,
    user_state: &'b mut HashMap<(u64, usize), Box<dyn Any + Send>>,
}

impl<'a, 'b> WorkCtx<'a, 'b> {
    pub(crate) fn cache_get(&self, rdd: RddId, part: usize) -> Option<Arc<dyn Any + Send + Sync>> {
        self.cache.blocks.get(&(rdd, part)).cloned()
    }

    pub(crate) fn cache_put(&mut self, rdd: RddId, part: usize, data: Arc<dyn Any + Send + Sync>) {
        self.cache.blocks.insert((rdd, part), data);
    }

    /// Take persistent per-`(key, partition)` executor state left by a
    /// previous task (e.g. GBDT's instance→node assignment, LDA's topic
    /// assignments). Returns `None` on first use or after executor loss —
    /// callers must be able to rebuild, which keeps recovery correct.
    /// Pair with [`WorkCtx::put_state`].
    pub fn take_state<T: Send + 'static>(&mut self, key: u64) -> Option<T> {
        self.user_state
            .remove(&(key, self.partition))
            .map(|b| *b.downcast::<T>().expect("executor state type mismatch"))
    }

    /// Store persistent per-`(key, partition)` state for later tasks.
    pub fn put_state<T: Send + 'static>(&mut self, key: u64, value: T) {
        self.user_state
            .insert((key, self.partition), Box::new(value));
    }

    /// Fetch a broadcast variable previously registered by the driver.
    pub fn broadcast<T: Send + Sync + 'static>(&self, b: &crate::Broadcast<T>) -> Arc<T> {
        let v = self
            .broadcasts
            .get(&b.id)
            .unwrap_or_else(|| panic!("broadcast {} not present on this executor", b.id));
        Arc::clone(&v.value)
            .downcast::<T>()
            .expect("broadcast type mismatch")
    }
}

/// Cached materialized partitions, keyed by `(rdd id, partition)`.
#[derive(Default)]
struct BlockCache {
    blocks: HashMap<(RddId, usize), Arc<dyn Any + Send + Sync>>,
}

/// The executor server loop. Runs until the simulation shuts down (daemon)
/// or the executor is killed.
///
/// The one service that stays a thread proc: a task body is a straight-line
/// program that blocks on PS calls through [`WorkCtx::sim`], a `&mut
/// SimCtx`, and an agent's non-blocking step has no `SimCtx` to lend it.
///
/// A tree-aggregation leader waits for its children here, in the loop, not
/// in its task body, so children queued behind it on this executor still
/// run.
pub fn executor_main(ctx: &mut SimCtx) {
    let mut cache = BlockCache::default();
    let mut broadcasts: HashMap<u64, BroadcastValue> = HashMap::new();
    let mut user_state: HashMap<(u64, usize), Box<dyn Any + Send>> = HashMap::new();
    // Partials by `(job, child partition)` that no waiting leader took yet:
    // they came before their leader's task, or after a failed attempt of it.
    let mut partials: HashMap<(u64, usize), Box<dyn Any + Send>> = HashMap::new();
    // Leaders waiting for children, by `(job, leader partition)`.
    let mut leads: HashMap<(u64, usize), Lead> = HashMap::new();
    loop {
        let env = ctx.recv();
        // A task that timed out a PS request and retried can still receive
        // the original reply later (the server was slow, not dead). By then
        // the task has moved on, so the reply lands here, between tasks —
        // drop it rather than mis-parse it as a driver request.
        if env.is_reply() {
            continue;
        }
        match env.tag {
            tags::TASK => {
                let spec: &Arc<TaskSpec> = env.downcast_ref();
                let spec = Arc::clone(spec);
                // The driver runs one job at a time, so what an older job
                // left here (a duplicate partial, an abandoned leader) is
                // garbage.
                partials.retain(|key, _| key.0 >= spec.job_id);
                leads.retain(|key, _| key.0 >= spec.job_id);
                ctx.trace_mark_with("executor.task.start", spec.partition as u64);
                ctx.metric_add("executor.tasks", 1);
                // All compute this task charges (overhead, RDD
                // materialization, the job body) shows up under one label in
                // the trace's per-op compute breakdown.
                ctx.op_label("spark.task");
                ctx.charge_task_overhead();
                if spec.failure_prob > 0.0 && ctx.rng().gen::<f64>() < spec.failure_prob {
                    ctx.advance(spec.failure_waste);
                    ctx.metric_add("executor.task_failures", 1);
                    ctx.op_label_clear();
                    ctx.reply(&env, TaskResult::Failed, 16);
                    continue;
                }
                let (value, bytes) = {
                    let mut w = WorkCtx {
                        sim: ctx,
                        partition: spec.partition,
                        cache: &mut cache,
                        broadcasts: &broadcasts,
                        user_state: &mut user_state,
                    };
                    (spec.job)(&mut w)
                };
                ctx.op_label_clear();
                let job = spec.job_id;
                match &spec.sink {
                    Sink::Reply => ctx.reply(&env, TaskResult::Ok(value), bytes),
                    Sink::Parent { leader, exec } => {
                        let partial = Partial {
                            job,
                            leader: *leader,
                            partition: spec.partition,
                            value,
                        };
                        ctx.send(*exec, tags::PARTIAL, partial, bytes);
                        ctx.reply(&env, TaskResult::Forwarded, 16);
                    }
                    Sink::Lead { children, combine } => {
                        let mut lead = Lead {
                            request: env,
                            acc: value,
                            bytes,
                            waiting: children.clone(),
                            combine: Arc::clone(combine),
                        };
                        for &child in children {
                            if let Some(partial) = partials.remove(&(job, child)) {
                                lead.merge(ctx, child, partial);
                            }
                        }
                        if lead.waiting.is_empty() {
                            lead.reply(ctx);
                        } else {
                            leads.insert((job, spec.partition), lead);
                        }
                    }
                }
            }
            tags::PARTIAL => {
                let p: Partial = env.downcast();
                match leads.entry((p.job, p.leader)) {
                    Entry::Occupied(mut lead) if lead.get().waiting.contains(&p.partition) => {
                        lead.get_mut().merge(ctx, p.partition, p.value);
                        if lead.get().waiting.is_empty() {
                            lead.remove().reply(ctx);
                        }
                    }
                    // A retried child's resend of a partial already merged.
                    Entry::Occupied(_) => ctx.metric_add("executor.duplicate_partials", 1),
                    Entry::Vacant(_) => {
                        if partials.insert((p.job, p.partition), p.value).is_some() {
                            ctx.metric_add("executor.duplicate_partials", 1);
                        }
                    }
                }
            }
            tags::BROADCAST => {
                // Direct (non-relayed) broadcast: store and ack in place.
                let v: &BroadcastValue = env.downcast_ref();
                broadcasts.insert(v.id, v.clone());
                ctx.reply(&env, (), 4);
            }
            tags::BROADCAST_RELAY => {
                // Torrent-style: store, forward to child subtrees, ack the
                // driver via the pre-allocated token.
                let ship: &crate::broadcast::BroadcastShip = env.downcast_ref();
                let ship = ship.clone();
                broadcasts.insert(ship.value.id, ship.value.clone());
                for child in &ship.children {
                    let next = crate::broadcast::BroadcastShip {
                        value: ship.value.clone(),
                        ack_to: ship.ack_to,
                        ack_token: child.ack_token,
                        children: child.children.clone(),
                    };
                    ctx.send(child.node, tags::BROADCAST_RELAY, next, ship.value.bytes);
                }
                ctx.send_token_reply(ship.ack_to, tags::BROADCAST_RELAY, ship.ack_token, (), 8);
            }
            tags::DROP_BROADCAST => {
                let id: &u64 = env.downcast_ref();
                broadcasts.remove(id);
                ctx.reply(&env, (), 4);
            }
            other => panic!(
                "{} (proc {}): unknown tag {} ({}) from proc {} — \
                 executors speak TASK/BROADCAST/DROP_BROADCAST/BROADCAST_RELAY/\
                 PARTIAL only; a message was misrouted or a tag constant diverged",
                ctx.proc_name(),
                ctx.id().0,
                other,
                tags::name(other),
                env.src.0
            ),
        }
    }
}

/// Spawn `n` executor daemons on a runtime being assembled.
pub fn deploy_executors(sim: &mut SimRuntime, n: usize) -> Vec<ProcId> {
    (0..n)
        .map(|i| sim.spawn_daemon(&format!("executor-{i}"), executor_main))
        .collect()
}
