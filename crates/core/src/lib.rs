//! # ps2-core — the PS2 system: DCVs on Spark + parameter servers
//!
//! This crate is the paper's primary contribution: it welds the dataflow
//! engine (`ps2-dataflow`) and the parameter servers (`ps2-ps`) into one
//! system ([`Ps2Context`]) and exposes the **Dimension Co-located Vector**
//! ([`Dcv`]) with the operator set of the paper's Table 1:
//!
//! | category | operators |
//! |---|---|
//! | row access | `pull`, `pull_indices`, `push`, `add`, `sum`, `nnz`, `norm2` |
//! | column access | `axpy`, `iaxpy`, `dot`, `copy_from`, `assign_add/sub/mul/div`, `zip`, `zip_map` |
//! | creation | `dense`, `derive`, `fill`, `zero` |
//!
//! A `dense(dim, k)` call allocates a raw `k × dim` matrix, column-partitioned
//! across the PS-servers; the returned DCV is its row 0 and `derive` hands
//! out the pre-allocated remaining rows. Derived DCVs share the partition
//! plan, so the same dimensions of all of them sit on the same server —
//! element-wise column ops then run entirely server-side, with only scalars
//! crossing the network (paper §4).
//!
//! ```
//! use ps2_core::{ClusterSpec, run_ps2};
//!
//! let spec = ClusterSpec { workers: 4, servers: 4 };
//! let (result, report) = run_ps2(spec, 42, |ctx, ps2| {
//!     // The paper's Figure 3 allocation pattern:
//!     let weight = ps2.dense_dcv(ctx, 1_000, 4);
//!     let velocity = weight.derive(ctx).filled(ctx, 0.0);
//!     let gradient = weight.derive(ctx);
//!     gradient.add_sparse(ctx, &[(7, 2.0), (500, -1.0)]);
//!     // Server-side: velocity = 0.9*velocity + gradient (axpy then swap
//!     // roles), here just demonstrate dot:
//!     weight.iaxpy(ctx, &gradient, -0.1);
//!     (weight.dot(ctx, &velocity), weight.nnz(ctx))
//! });
//! assert_eq!(result.0, 0.0);
//! assert_eq!(result.1, 2);
//! assert!(report.virtual_time.as_secs_f64() > 0.0);
//! ```

mod context;
mod dcv;
mod harness;

pub use context::{deploy, ClusterSpec, Deployment, Ps2Context};
pub use dcv::{Dcv, ZipBuilder};
pub use harness::{run_ps2, run_ps2_with};

// Re-export the pieces users need alongside the context.
pub use ps2_dataflow::{Broadcast, FailureConfig, Rdd, SparkContext, WorkCtx};
pub use ps2_ps::{
    AggKind, BatchResult, ElemOp, InitKind, MatrixHandle, Partitioning, PsBatch, PsMaster,
    ZipArgmaxFn, ZipMapFn, ZipMutFn, ZipSegs,
};
pub use ps2_simnet::{
    ComputeConfig, MetricsSnapshot, NetConfig, OpRow, ProcId, RunReport, SimBuilder, SimConfig,
    SimCtx, SimReport, SimRuntime, SimTime, VtHistogram,
};
