//! Small loops that time one public function of one layer each. Host
//! numbers; they run once per traced run, after the traced pass, with the
//! program's host profiler off.

use std::hint::black_box;
use std::time::Instant;

use ps2::data::presets;
use ps2::ml::lr::{distinct_cols, grad_aligned};
use ps2::simnet::fabric::call_slots;
use ps2::simnet::{
    Envelope, FabricPolicy, Proc, ProcId, SimBuilder, SimTime, StaticRoutes, StepCtx, WireSize,
};
use ps2::{run_ps2_with, ClusterSpec};

use crate::spans::Spans;

/// One value per probe, in the unit its metric name carries.
#[derive(Clone, Debug)]
pub struct Probes {
    pub thread_handoff_us: f64,
    pub thread_handoff_parked32_us: f64,
    pub agent_step_us: f64,
    pub fabric_call_us: f64,
    pub wire_size_ns_per_kb: f64,
    pub metrics_record_ns: f64,
    pub job_overhead_us: f64,
    pub axpy_ns_per_elem: f64,
    pub gen_rows_per_s: f64,
    pub grad_ns_per_nnz: f64,
}

pub fn run_all(seed: u64, spans: &mut Spans) -> Probes {
    let mut probe = |name: &str, f: &dyn Fn() -> f64| spans.scope(name, |_| f()).0;
    Probes {
        thread_handoff_us: probe("probe.runtime.thread_handoff", &|| thread_handoff_us(0)),
        thread_handoff_parked32_us: probe("probe.runtime.thread_handoff_parked32", &|| {
            thread_handoff_us(32)
        }),
        agent_step_us: probe("probe.runtime.agent_step", &agent_step_us),
        fabric_call_us: probe("probe.fabric.call", &fabric_call_us),
        wire_size_ns_per_kb: probe("probe.codec.wire_size", &wire_size_ns_per_kb),
        metrics_record_ns: probe("probe.metrics.record", &metrics_record_ns),
        job_overhead_us: probe("probe.dataflow.job_overhead", &job_overhead_us),
        axpy_ns_per_elem: probe("probe.dcv.axpy", &axpy_ns_per_elem),
        gen_rows_per_s: probe("probe.data.gen", &|| gen_rows_per_s(seed)),
        grad_ns_per_nnz: probe("probe.ml.grad", &|| grad_ns_per_nnz(seed)),
    }
}

/// Host µs per blocking `call` between two thread procs (two hand-offs
/// each), with `parked` more thread procs blocked in `recv` the whole time —
/// the ones a `notify_all` wakes for nothing.
fn thread_handoff_us(parked: usize) -> f64 {
    const CALLS: u64 = 20_000;
    let mut sim = SimBuilder::new().seed(1).build();
    for i in 0..parked {
        sim.spawn_daemon(&format!("parked-{i}"), |ctx| loop {
            ctx.recv();
        });
    }
    let pong = sim.spawn_daemon("pong", |ctx| loop {
        let env = ctx.recv();
        let n = *env.downcast_ref::<u64>();
        ctx.reply(&env, n + 1, 8);
    });
    let out = sim.spawn_collect("ping", move |ctx| {
        let mut n = 0u64;
        for _ in 0..CALLS {
            n = *ctx.call(pong, 1, n, 8).downcast_ref::<u64>();
        }
        n
    });
    let t = Instant::now();
    sim.run().expect("hand-off probe failed");
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(out.take(), CALLS);
    secs * 1e6 / CALLS as f64
}

/// Replies to requests, bounces plain sends back to their sender.
struct Echo;

impl Proc for Echo {
    fn on_message(&mut self, ctx: &mut StepCtx<'_>, env: Envelope) {
        if env.corr != 0 {
            ctx.reply(&env, 0u64, 8);
        } else {
            ctx.send(env.src, env.tag, 0u64, 8);
        }
    }
}

/// Sends one message to `peer` and one more per answer, `left` times.
struct Pinger {
    peer: ProcId,
    left: u64,
}

impl Proc for Pinger {
    fn on_start(&mut self, ctx: &mut StepCtx<'_>) {
        ctx.send(self.peer, 1, 0u64, 8);
    }

    fn on_message(&mut self, ctx: &mut StepCtx<'_>, _env: Envelope) {
        self.left -= 1;
        if self.left == 0 {
            ctx.finish();
        } else {
            ctx.send(self.peer, 1, 0u64, 8);
        }
    }
}

/// Host µs per message stepped through two agents (no thread procs).
fn agent_step_us() -> f64 {
    const ROUND_TRIPS: u64 = 100_000;
    let mut sim = SimBuilder::new().seed(1).build();
    let echo = sim.spawn_agent_daemon("echo", Echo);
    sim.spawn_agent(
        "pinger",
        Pinger {
            peer: echo,
            left: ROUND_TRIPS,
        },
    );
    let t = Instant::now();
    let report = sim.run().expect("agent probe failed");
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(report.total_msgs, 2 * ROUND_TRIPS);
    secs * 1e6 / report.total_msgs as f64
}

/// Host µs per request through `call_slots`: 1250 scatters over 8 echo
/// agents, so the thread side is one proc and the cost is the fabric's.
fn fabric_call_us() -> f64 {
    const SLOTS: usize = 8;
    const SCATTERS: u64 = 1250;
    let mut sim = SimBuilder::new().seed(1).build();
    let echoes: Vec<ProcId> = (0..SLOTS)
        .map(|i| sim.spawn_agent_daemon(&format!("echo-{i}"), Echo))
        .collect();
    sim.spawn("caller", move |ctx| {
        let routes = StaticRoutes(echoes);
        let policy = FabricPolicy {
            attempt_timeout: SimTime::from_millis(1000),
            max_stale_attempts: 3,
            scope: "probe.fabric",
        };
        for _ in 0..SCATTERS {
            let reqs = (0..SLOTS).map(|s| (s, 0u64, 8u64)).collect();
            let replies = call_slots(ctx, &routes, &policy, "echo", 1, reqs, SLOTS as u64);
            assert_eq!(replies.len(), SLOTS);
        }
    });
    let t = Instant::now();
    sim.run().expect("fabric probe failed");
    t.elapsed().as_secs_f64() * 1e6 / (SCATTERS * SLOTS as u64) as f64
}

/// Host ns per declared KB of `WireSize` walking a batch of sparse rows
/// (nested, so the walk is not folded to a multiplication).
fn wire_size_ns_per_kb() -> f64 {
    const REPS: u32 = 200;
    let payload: Vec<Vec<(u64, f64)>> = (0..4096u64)
        .map(|r| (0..16).map(|i| (r + i, i as f64)).collect())
        .collect();
    let t = Instant::now();
    let mut bytes = 0u64;
    for _ in 0..REPS {
        bytes += black_box(&payload).wire_size();
    }
    let ns = t.elapsed().as_nanos() as f64;
    ns / (black_box(bytes) as f64 / 1024.0)
}

/// Host ns per metrics-registry record (half counters, half histograms).
fn metrics_record_ns() -> f64 {
    const RECORDS: u64 = 200_000;
    let mut sim = SimBuilder::new().seed(1).build();
    sim.spawn("recorder", |ctx| {
        for i in 0..RECORDS / 2 {
            ctx.metric_add("probe.counter", 1);
            ctx.metric_observe("probe.hist", SimTime(1_000 + i));
        }
    });
    let t = Instant::now();
    let report = sim.run().expect("metrics probe failed");
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(report.metrics.counter("probe.counter"), RECORDS / 2);
    ns / RECORDS as f64
}

/// Host µs per empty 20-partition `count` job on 20 executors.
fn job_overhead_us() -> f64 {
    const JOBS: u64 = 200;
    let spec = ClusterSpec {
        workers: 20,
        servers: 1,
        ..ClusterSpec::default()
    };
    let t = Instant::now();
    let (rows, _) = run_ps2_with(SimBuilder::new().seed(1), spec, |ctx, ps2| {
        let rdd = ps2.spark.parallelize(ctx, Vec::<u64>::new(), 20);
        (0..JOBS).map(|_| ps2.spark.count(ctx, &rdd)).sum::<u64>()
    });
    assert_eq!(rows, 0);
    t.elapsed().as_secs_f64() * 1e6 / JOBS as f64
}

/// Host ns per element of a server-side `iaxpy` on one server, dim 4 M.
fn axpy_ns_per_elem() -> f64 {
    const DIM: u64 = 4_000_000;
    const REPS: u64 = 8;
    let spec = ClusterSpec {
        workers: 1,
        servers: 1,
        ..ClusterSpec::default()
    };
    let (secs, _) = run_ps2_with(SimBuilder::new().seed(1), spec, |ctx, ps2| {
        let w = ps2.dense_dcv(ctx, DIM, 2);
        let g = w.derive(ctx).filled(ctx, 1.0);
        let t = Instant::now();
        for _ in 0..REPS {
            w.iaxpy(ctx, &g, 0.5);
        }
        t.elapsed().as_secs_f64()
    });
    secs * 1e9 / (DIM * REPS) as f64
}

/// Rows per host second out of the KDDB generator, all 20 partitions.
fn gen_rows_per_s(seed: u64) -> f64 {
    let gen = presets::kddb(20, seed).gen;
    let t = Instant::now();
    let rows: usize = (0..gen.partitions)
        .map(|p| black_box(gen.partition(p)).len())
        .sum();
    rows as f64 / t.elapsed().as_secs_f64()
}

/// Host ns per non-zero of the LR gradient kernel over 10 k KDDB rows.
fn grad_ns_per_nnz(seed: u64) -> f64 {
    const REPS: u32 = 5;
    let gen = presets::kddb(1, seed).gen;
    let batch: Vec<_> = (0..10_000).map(|r| gen.example(r)).collect();
    let cols = distinct_cols(&batch);
    let w = vec![0.0; cols.len()];
    let nnz: usize = batch.iter().map(|e| e.features.len()).sum();
    let t = Instant::now();
    for _ in 0..REPS {
        black_box(grad_aligned(black_box(&batch), &cols, &w));
    }
    t.elapsed().as_nanos() as f64 / (nnz as f64 * REPS as f64)
}
