//! The PS-master: matrix lifecycle, routing, checkpoints and server
//! recovery. Lives inside the coordinator (driver) process, per §5.1.

use std::any::Any;
use std::sync::Arc;

use parking_lot::Mutex;
use ps2_simnet::{fabric, ProcId, SimCtx, WireSize};

use crate::client::{ps_policy, MatrixHandle, PsRouter};
use crate::plan::{MatrixId, PartitionPlan, Partitioning, RouteTable};
use crate::protocol::{tags, CheckpointReq, CreateReq, FreeReq, InitKind, RestoreReq, HDR};
use crate::server::PsServerAgent;

#[derive(Clone, Copy, Default)]
struct FleetStats {
    recoveries: u64,
    silent_reinits: u64,
    respawns: u64,
}

/// Shared, recovery-capable view of the PS-server fleet.
///
/// Extracted from [`PsMaster`] so that *any* process noticing a dead server
/// can replace it: every PS-client holding a [`MatrixHandle`] (from a
/// timed-out request) and the driver (through
/// [`PsMaster::recover_dead_servers`]). Recovery is single-flight: whoever
/// wins the `in_recovery` try-lock performs it; everyone else backs off and
/// retries their request once the [`RouteTable`] epoch advances.
///
/// Lock discipline: `matrices` and `stats` are held only for non-yielding
/// metadata reads/writes. `in_recovery` *is* held across simulator yield
/// points, which is safe only because it is exclusively `try_lock`ed —
/// blocking on it from another simulated process would wedge the scheduler.
pub struct PsFleet {
    route: Arc<RouteTable>,
    storage: ProcId,
    /// Metadata replayed into replacement servers on recovery.
    matrices: Mutex<Vec<(MatrixId, Arc<PartitionPlan>, InitKind)>>,
    stats: Mutex<FleetStats>,
    in_recovery: Mutex<()>,
}

impl PsFleet {
    fn new(servers: Vec<ProcId>, storage: ProcId) -> PsFleet {
        PsFleet {
            route: RouteTable::new(servers),
            storage,
            matrices: Mutex::new(Vec::new()),
            stats: Mutex::new(FleetStats::default()),
            in_recovery: Mutex::new(()),
        }
    }

    pub fn route(&self) -> Arc<RouteTable> {
        Arc::clone(&self.route)
    }

    /// Servers replaced after failures.
    pub fn recoveries(&self) -> u64 {
        self.stats.lock().recoveries
    }

    /// Recoveries that found no checkpoint and fell back to re-initialized
    /// parameters — the failure mode `recover_dead_servers` used to swallow.
    pub fn silent_reinits(&self) -> u64 {
        self.stats.lock().silent_reinits
    }

    /// Detect dead servers and replace each with a fresh process whose state
    /// is rebuilt from matrix metadata plus the latest checkpoint. The route
    /// table flips to the replacement (bumping the recovery epoch) only
    /// after it is fully initialized, so a concurrent client never reaches a
    /// half-built server. Returns the slots recovered; empty when nothing is
    /// dead *or* when another process is already mid-recovery.
    pub fn recover_dead_servers(&self, ctx: &mut SimCtx) -> Vec<usize> {
        let Some(_guard) = self.in_recovery.try_lock() else {
            return Vec::new();
        };
        let mut recovered = Vec::new();
        for slot in 0..self.route.n_slots() {
            if ctx.is_alive(self.route.resolve(slot)) {
                continue;
            }
            let respawn = {
                let mut stats = self.stats.lock();
                stats.respawns += 1;
                stats.respawns
            };
            let name = format!("ps-server-{slot}r{respawn}");
            let fresh = ctx.spawn_agent_daemon(&name, PsServerAgent::new());
            // Replay metadata, then load checkpointed values.
            let metas: Vec<_> = self.matrices.lock().clone();
            for (id, plan, init) in &metas {
                let req = CreateReq {
                    id: *id,
                    plan: Arc::clone(plan),
                    init: init.clone(),
                    slot,
                };
                let bytes = HDR + req.wire_size();
                let _: () = ctx.call(fresh, tags::CREATE, req, bytes).downcast();
            }
            let req = RestoreReq {
                storage: self.storage,
                key: slot as u64,
            };
            let restored: bool = ctx.call(fresh, tags::RESTORE, req, 48).downcast();
            {
                let mut stats = self.stats.lock();
                stats.recoveries += 1;
                if !restored {
                    stats.silent_reinits += 1;
                }
            }
            ctx.metric_add("ps.fleet.recoveries", 1);
            if !restored {
                ctx.metric_add("ps.fleet.silent_reinits", 1);
            }
            ctx.trace_mark_with("ps.fleet.recover", slot as u64);
            self.route.set(slot, fresh);
            recovered.push(slot);
        }
        recovered
    }
}

/// Coordinator-side manager of the parameter-server fleet.
pub struct PsMaster {
    fleet: Arc<PsFleet>,
    next_id: u64,
}

impl PsMaster {
    pub fn new(servers: Vec<ProcId>, storage: ProcId) -> PsMaster {
        assert!(!servers.is_empty(), "need at least one PS-server");
        PsMaster {
            fleet: Arc::new(PsFleet::new(servers, storage)),
            next_id: 1,
        }
    }

    pub fn route(&self) -> Arc<RouteTable> {
        self.fleet.route()
    }

    /// Servers replaced after failures.
    pub fn recoveries(&self) -> u64 {
        self.fleet.recoveries()
    }

    /// Recoveries that found no checkpoint to restore from.
    pub fn silent_reinits(&self) -> u64 {
        self.fleet.silent_reinits()
    }

    /// Scatter a lifecycle request to every slot through the shared request
    /// fabric — the same retry/re-resolution pipeline data ops use, so a
    /// server dying mid-create or mid-checkpoint is recovered, not hung on.
    fn to_every_slot<P: Any + Send + Sync>(
        &self,
        ctx: &mut SimCtx,
        tag: u32,
        reqs: Vec<(usize, P, u64)>,
    ) -> Vec<ps2_simnet::Envelope> {
        let router = PsRouter {
            route: Arc::clone(&self.fleet.route),
            fleet: Some(Arc::clone(&self.fleet)),
        };
        let n = reqs.len() as u64;
        fabric::call_slots(ctx, &router, &ps_policy(), tags::name(tag), tag, reqs, n)
    }

    /// Allocate a `rows × dim` matrix across the servers. Its handle ships
    /// 8-byte values ([`MatrixHandle::value_bytes`]).
    pub fn create_matrix(
        &mut self,
        ctx: &mut SimCtx,
        dim: u64,
        rows: u32,
        partitioning: Partitioning,
        init: InitKind,
    ) -> MatrixHandle {
        let id = MatrixId(self.next_id);
        self.next_id += 1;
        let route = self.fleet.route();
        let plan = Arc::new(PartitionPlan::new(dim, rows, route.n_slots(), partitioning));
        // Metadata is registered *before* the scatter so a recovery racing
        // the create replays this matrix into any replacement server; the
        // fabric's resend of a CreateReq is idempotent server-side.
        self.fleet
            .matrices
            .lock()
            .push((id, Arc::clone(&plan), init.clone()));
        let reqs: Vec<(usize, CreateReq, u64)> = (0..route.n_slots())
            .map(|slot| {
                let req = CreateReq {
                    id,
                    plan: Arc::clone(&plan),
                    init: init.clone(),
                    slot,
                };
                let bytes = HDR + req.wire_size();
                (slot, req, bytes)
            })
            .collect();
        let _ = self.to_every_slot(ctx, tags::CREATE, reqs);
        MatrixHandle {
            id,
            plan,
            route,
            value_bytes: 8,
            fleet: Some(Arc::clone(&self.fleet)),
        }
    }

    /// Release a matrix on all servers.
    pub fn free_matrix(&mut self, ctx: &mut SimCtx, handle: &MatrixHandle) {
        self.fleet
            .matrices
            .lock()
            .retain(|(id, _, _)| *id != handle.id);
        let route = self.fleet.route();
        let reqs: Vec<(usize, FreeReq, u64)> = (0..route.n_slots())
            .map(|slot| (slot, FreeReq { id: handle.id }, 32))
            .collect();
        let _ = self.to_every_slot(ctx, tags::FREE, reqs);
    }

    /// Checkpoint every server's shards to the reliable external storage
    /// (paper §5.3 "periodically checkpoints the model parameters").
    pub fn checkpoint_all(&mut self, ctx: &mut SimCtx) {
        let route = self.fleet.route();
        let reqs: Vec<(usize, CheckpointReq, u64)> = (0..route.n_slots())
            .map(|slot| {
                let req = CheckpointReq {
                    storage: self.fleet.storage,
                    key: slot as u64,
                };
                (slot, req, 48)
            })
            .collect();
        let _ = self.to_every_slot(ctx, tags::CHECKPOINT, reqs);
    }

    /// Detect dead servers and replace each with a fresh process whose state
    /// is rebuilt from matrix metadata plus the latest checkpoint. Updates
    /// the shared route table so existing handles keep working. Returns the
    /// slots recovered.
    pub fn recover_dead_servers(&mut self, ctx: &mut SimCtx) -> Vec<usize> {
        self.fleet.recover_dead_servers(ctx)
    }
}
