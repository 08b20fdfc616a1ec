//! # ps2-simnet — a deterministic discrete-event cluster simulator
//!
//! This crate is the substrate every other `ps2` crate runs on. It stands in
//! for the Tencent Yarn cluster used in the PS2 paper (2700 machines, 12-core
//! 2.2 GHz CPUs, 10 Gbps Ethernet): logical processes model machines, a NIC
//! model serializes transfers per endpoint, and a virtual clock measures time.
//!
//! ## Execution model
//!
//! There is one scheduling rule — the scheduler always resumes the *ready
//! process with the smallest virtual clock* (ties broken by process id), so
//! sends occur in non-decreasing virtual time, NIC-queue accounting stays
//! causal, and every simulation is **bit-for-bit deterministic** — the
//! property that lets the benchmark harness regenerate the paper's figures
//! exactly. There are two ways to write a process under it, and a run
//! reports the same events at the same clocks whichever is used:
//!
//! * **Thread procs** ([`SimRuntime::spawn`]) hold one OS thread each and are
//!   written in direct style (plain loops, blocking `recv`/`call`). At each
//!   simulator call the running process yields and the scheduler picks next.
//!   Right for straight-line code on at most hundreds of procs.
//! * **Steppable agents** ([`SimRuntime::spawn_agent`], the [`Proc`] trait)
//!   hold **no thread**: the scheduler steps them inline on message delivery
//!   and timer expiry, each step runs atomically via a non-blocking
//!   [`StepCtx`], and what a step sends goes out in later turns, each at its
//!   own clock. Right for services and for very large populations (the PS
//!   servers, checkpoint storage, the SSP clock and the shuffle service
//!   are agents; the serving scenarios step tens of thousands of
//!   simulated endpoints this way).
//!
//! Thread procs are written in direct style (plain loops), not as event
//! handlers:
//!
//! ```
//! use ps2_simnet::{SimBuilder, WireSize};
//!
//! let mut sim = SimBuilder::new().seed(7).build();
//! let pong = sim.spawn_daemon("pong", |ctx| loop {
//!     let env = ctx.recv();
//!     let n: &u64 = env.downcast_ref();
//!     ctx.reply(&env, n + 1, 8);
//! });
//! let out = sim.spawn_collect("ping", move |ctx| {
//!     let r = ctx.call(pong, 0, 41u64, 8);
//!     *r.downcast_ref::<u64>()
//! });
//! let report = sim.run().unwrap();
//! assert_eq!(out.take(), 42);
//! assert!(report.virtual_time.as_secs_f64() > 0.0);
//! ```
//!
//! ## Time model
//!
//! *Communication.* A message of `B` bytes from `a` to `b` queues on `a`'s
//! out-NIC (`start = max(now_a, nic_out_free_a)`), transmits at the NIC
//! bandwidth, crosses the link latency, then queues on `b`'s in-NIC. Many
//! senders converging on one receiver — the Spark-driver "single-node
//! bottleneck" of the paper's §2 — serialize on the receiver's in-NIC with no
//! special-casing.
//!
//! *Computation.* Process code calls [`SimCtx::charge_flops`] /
//! [`SimCtx::charge_mem`] / [`SimCtx::charge_task_overhead`] with the work it
//! actually performed; the cost model converts work to virtual nanoseconds.
//! The arithmetic itself runs for real, so losses and models are genuine —
//! only the clock is simulated.

pub mod causal;
mod config;
mod ctx;
pub mod fabric;
pub mod hostprof;
pub mod json;
mod message;
pub mod metrics;
pub mod perfetto;
mod report;
pub mod reqtrace;
mod runtime;
mod time;
pub mod watchdog;
pub mod whatif;

pub use causal::{
    CausalAnalysis, CausalDag, CausalError, DagEvent, DagProc, PathCategory, PathSegment,
    ProcSummary,
};
pub use config::{ComputeConfig, NetConfig, SimConfig};
pub use ctx::SimCtx;
pub use fabric::{FabricPolicy, SlotRouter, StaticRoutes};
pub use hostprof::{HostProfile, ScopeStat};
pub use message::{payload_ref, Envelope, WireSize};
pub use metrics::{MetricsSnapshot, OpRow, RunReport, VtHistogram};
pub use perfetto::export_trace_full;
pub use report::{LabelId, ProcStats, SimReport, TraceEvent};
pub use reqtrace::{
    render_slo, render_slo_diff, slo_from_json, slo_json, OpReqStats, ReqRecord, ReqSummary,
    ReqToken, EXEMPLAR_K,
};
pub use runtime::{OutputSlot, Proc, ProcId, SimBuilder, SimError, SimRuntime, StepCtx};
pub use time::SimTime;
pub use watchdog::{Alert, SloKind, SloObjective};
pub use whatif::{
    parse_spec, replay, run_battery, standard_battery, Edit, ExperimentResult, OpTails, Replay,
    TailEst, WhatifReport,
};

/// The counting allocator is installed unconditionally (it is a single
/// relaxed atomic load in front of `System` until
/// [`hostprof::set_alloc_counting`] turns counting on), so every binary that
/// links simnet can attribute allocation pressure without a rebuild.
#[global_allocator]
static GLOBAL_ALLOC: hostprof::CountingAlloc = hostprof::CountingAlloc;
