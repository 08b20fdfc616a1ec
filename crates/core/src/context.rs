//! The integrated PS2 context: one coordinator driving Spark executors and
//! PS-servers.

use ps2_dataflow::{deploy_executors, SparkContext};
use ps2_ps::{deploy_ps, InitKind, Partitioning, PsMaster, DISK_BYTES_PER_SEC};
use ps2_simnet::{ProcId, SimCtx, SimRuntime};

use crate::dcv::Dcv;

/// Cluster shape for a PS2 deployment (paper §6: "same number of
/// workers/servers" per experiment).
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    pub workers: usize,
    pub servers: usize,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            workers: 4,
            servers: 4,
        }
    }
}

/// Process ids of a deployed cluster, to be captured by the driver closure.
#[derive(Clone, Debug)]
pub struct Deployment {
    pub executors: Vec<ProcId>,
    pub servers: Vec<ProcId>,
    pub storage: ProcId,
}

/// Launch executors, PS-servers and checkpoint storage on a runtime being
/// assembled. The paper's "two separate applications" — the PS fleet is
/// deployed independently of Spark, then bridged by the coordinator.
pub fn deploy(sim: &mut SimRuntime, spec: &ClusterSpec) -> Deployment {
    let executors = deploy_executors(sim, spec.workers);
    let (servers, storage) = deploy_ps(sim, spec.servers, DISK_BYTES_PER_SEC);
    Deployment {
        executors,
        servers,
        storage,
    }
}

/// The coordinator's handle to the whole system: the Spark driver side
/// ([`SparkContext`]) plus the PS-master. Lives inside the driver process.
pub struct Ps2Context {
    pub spark: SparkContext,
    pub ps: PsMaster,
}

impl Ps2Context {
    pub fn new(deployment: Deployment) -> Ps2Context {
        let mut spark = SparkContext::new(deployment.executors);
        let ps = PsMaster::new(deployment.servers, deployment.storage);
        // Bridge the two applications' failure handling: when a job's tasks
        // stall, the scheduler heartbeats the PS fleet and triggers
        // dead-server recovery mid-run instead of deadlocking on workers
        // blocked against a dead server.
        spark.register_probe(ps.fleet());
        Ps2Context { spark, ps }
    }

    /// `DCV.dense(dim, k)` (paper Figure 3, line 4): allocate a raw
    /// `k × dim` matrix and return its first row as a DCV. The remaining
    /// `k - 1` rows are pre-allocated for [`Dcv::derive`].
    pub fn dense_dcv(&mut self, ctx: &mut SimCtx, dim: u64, k: u32) -> Dcv {
        self.dense_dcv_init(ctx, dim, k, InitKind::Zero)
    }

    /// `dense` with explicit initialization (e.g. random embeddings).
    pub fn dense_dcv_init(&mut self, ctx: &mut SimCtx, dim: u64, k: u32, init: InitKind) -> Dcv {
        let handle = self
            .ps
            .create_matrix(ctx, dim, k, Partitioning::Column, init);
        Dcv::first_of(handle)
    }

    /// A deliberately *misaligned* dense DCV — created with a partition
    /// plan rotated by one slot, as if by an independent `DCV.dense` call
    /// (the "inefficient writing" of Figure 4). Ops between this and a
    /// normal DCV pay server↔server shuffles.
    pub fn dense_dcv_misaligned(&mut self, ctx: &mut SimCtx, dim: u64, k: u32) -> Dcv {
        let handle =
            self.ps
                .create_matrix(ctx, dim, k, Partitioning::ColumnRotated(1), InitKind::Zero);
        Dcv::first_of(handle)
    }
}
