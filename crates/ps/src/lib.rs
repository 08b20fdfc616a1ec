//! # ps2-ps — the parameter-server substrate
//!
//! Implements the PS-master / PS-server / PS-client triple of the paper's
//! architecture (§3.2, §5.1) on the simulated cluster:
//!
//! * **PS-servers** are daemon processes storing matrix *shards*. A matrix
//!   has `k` rows over `dim` columns; under the **column partition plan**
//!   every server owns a contiguous column range *of every row* — the layout
//!   that makes the paper's DCV co-location work. A **row partition plan**
//!   (whole rows hashed to servers) is also provided as the Petuum-style
//!   baseline layout.
//! * **PS-clients** are not processes: any worker task holding a
//!   [`MatrixHandle`] can issue scatter/gather requests through its own
//!   `SimCtx`. Handles route by the partition plan.
//! * **PS-master** lives in the coordinator (driver) process: it allocates
//!   matrices, tracks metadata, coordinates checkpoints to a storage
//!   process, and replaces failed servers (recovering their state from the
//!   last checkpoint — the paper's server fault-tolerance story, §5.3).
//!
//! Server-side computation — the mechanism DCV enables — is exposed as
//! element-wise ops ([`MatrixHandle::elem`], [`MatrixHandle::axpy`],
//! [`MatrixHandle::dot`]) and user zips ([`MatrixHandle::zip`],
//! [`MatrixHandle::zip_map`]) that run on each server over co-located
//! segments, with only scalars crossing the network.

mod client;
mod consistency;
mod master;
mod plan;
mod protocol;
mod serve;
mod server;

pub use client::{BatchResult, MatrixHandle, PendingPush, PsBatch};
pub use consistency::{
    clock_policy, clock_tags, ClockClient, ClockGrant, ClockReportReq, ClockService, ClockWaitReq,
    ConsistencyMode,
};
pub use master::{PsFleet, PsMaster};
pub use plan::{MatrixId, PartitionPlan, Partitioning, PlanKind, RouteTable};
pub use protocol::{AggKind, ElemOp, InitKind, ZipArgmaxFn, ZipMapFn, ZipMutFn, ZipSegs};
pub use serve::{create_serve_table, ServeClientAgent, ServeClientConfig, ZipfTable};
pub use server::{deploy_ps, PsServerAgent, StorageAgent, DISK_BYTES_PER_SEC};
