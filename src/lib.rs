//! # PS2 — a parameter server on a Spark-like dataflow engine
//!
//! A Rust reproduction of *PS2: Parameter Server on Spark* (SIGMOD 2019):
//! the Dimension Co-located Vector (DCV) abstraction on top of an
//! integrated dataflow + parameter-server system, evaluated on a
//! deterministic cluster simulator.
//!
//! This facade re-exports the whole workspace; see the individual crates
//! for depth:
//!
//! * [`simnet`] — the deterministic discrete-event cluster simulator.
//! * [`dataflow`] — the Spark-like RDD engine (lineage, tasks, broadcast,
//!   fault tolerance).
//! * [`ps`] — PS-master / PS-servers / PS-clients, partition plans,
//!   checkpointing.
//! * [`core`] — [`Dcv`], [`Ps2Context`] and the Table 1 operator set: the
//!   paper's contribution.
//! * [`data`] — synthetic workload generators and the Table 2 presets.
//! * [`ml`] — LR, DeepWalk, GBDT, LDA, SVM and L-BFGS, each with
//!   communication-faithful baseline backends (Spark MLlib, Petuum,
//!   XGBoost, Glint, DistML).
//!
//! ## Quickstart
//!
//! ```
//! use ps2::{run_ps2, ClusterSpec};
//!
//! let spec = ClusterSpec { workers: 4, servers: 4 };
//! let (nnz, report) = run_ps2(spec, 42, |ctx, ps2| {
//!     let w = ps2.dense_dcv(ctx, 1_000_000, 4); // paper Figure 3, line 4
//!     let g = w.derive(ctx);                    // co-located sibling
//!     g.add_sparse(ctx, &[(3, 1.0), (999_999, -2.0)]);
//!     w.iaxpy(ctx, &g, -0.618);                 // server-side update
//!     w.nnz(ctx)
//! });
//! assert_eq!(nnz, 2);
//! println!("simulated {} in {:?} wall", report.virtual_time, report.wall_time);
//! ```

pub mod slo;
pub mod tracefile;

pub use ps2_core as core;
pub use ps2_data as data;
pub use ps2_dataflow as dataflow;
pub use ps2_ml as ml;
pub use ps2_ps as ps;
pub use ps2_simnet as simnet;

// The most-used names at the top level.
pub use ps2_core::{
    deploy, run_ps2, run_ps2_with, AggKind, ClusterSpec, Dcv, Deployment, ElemOp, InitKind,
    MetricsSnapshot, Partitioning, Ps2Context, RunReport, SimBuilder, SimCtx, SimReport, SimTime,
    ZipSegs,
};
pub use ps2_ml::TrainingTrace;
