//! Executor processes: task execution, block cache, broadcast store.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use rand::Rng;

use ps2_simnet::{ProcId, SimCtx, SimRuntime, SimTime};

use crate::broadcast::BroadcastValue;
use crate::rdd::RddId;

/// Protocol tags between driver and executors.
pub(crate) mod tags {
    pub const TASK: u32 = 1;
    pub const BROADCAST: u32 = 2;
    pub const DROP_BROADCAST: u32 = 4;
    pub const BROADCAST_RELAY: u32 = 5;

    /// Symbolic name for a tag, for diagnostics.
    pub fn name(tag: u32) -> &'static str {
        match tag {
            TASK => "TASK",
            BROADCAST => "BROADCAST",
            DROP_BROADCAST => "DROP_BROADCAST",
            BROADCAST_RELAY => "BROADCAST_RELAY",
            _ => "?",
        }
    }
}

/// Type-erased task body: runs on an executor, returns the boxed result and
/// its wire size.
pub(crate) type TaskJob =
    Arc<dyn Fn(&mut WorkCtx<'_, '_>) -> (Box<dyn Any + Send>, u64) + Send + Sync>;

/// A fully type-erased unit of work shipped to an executor.
pub(crate) struct TaskSpec {
    /// Executes the task, returning the boxed result and its wire size.
    pub job: TaskJob,
    pub partition: usize,
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
pub fn executor_main(ctx: &mut SimCtx) {
    let mut cache = BlockCache::default();
    let mut broadcasts: HashMap<u64, BroadcastValue> = HashMap::new();
    let mut user_state: HashMap<(u64, usize), Box<dyn Any + Send>> = HashMap::new();
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
                ctx.reply(&env, TaskResult::Ok(value), bytes);
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
                 executors speak TASK/BROADCAST/DROP_BROADCAST/BROADCAST_RELAY \
                 only; a message was misrouted or a tag constant diverged",
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
