//! # Serving-workload agents — aggregate open-loop pull clients
//!
//! The paper's premise is a parameter server absorbing traffic from
//! *millions of users*; a thread-per-proc simulation tops out at hundreds of
//! endpoints. This module models serving scale the way real load generators
//! do: one steppable [`ServeClientAgent`] (no OS thread, stepped inline by
//! the scheduler) stands in for **thousands of users**. A user keeps no
//! state of its own: it is a slot in the agent's exact open-loop schedule.
//!
//! *Open loop* means arrival times are fixed by the configured rate, not by
//! reply progress — a slow fleet faces a growing backlog instead of a
//! conveniently self-throttling one, which is what makes tail latency under
//! load honest. User `u` of `users` issues its `k`-th pull at exactly
//! `(u·period)/users + k·period`, so the aggregate stream is a uniform
//! interleaving at `users/period` requests per second and every user's
//! interarrival is exactly `period`.
//!
//! Row selection models NuPS-style skew: with probability
//! [`ServeClientConfig::zipf_fraction`] the row is drawn from a Zipf
//! distribution over all rows (rank-`r` mass ∝ `1/r^s`), otherwise
//! uniformly. The distribution is one [`ZipfTable`] per run — built once by
//! whoever spawns the population and shared by every agent, each drawing
//! from it with its own rng — so its cost does not grow with the number of
//! agents. Metrics land under the same `ps.client.*` names the training
//! fabric uses (`ps.client.op.pull.latency` etc.), so the existing SLO
//! objectives, burn-rate alerts, and report tables work unchanged.

use std::collections::VecDeque;
use std::sync::Arc;

use ps2_simnet::{Counter, Envelope, Hist, Proc, ProcId, SimCtx, SimTime, StepCtx, WireSize};
use rand::rngs::StdRng;
use rand::Rng;

use crate::plan::{MatrixId, PartitionPlan, PlanKind};
use crate::protocol::{tags, ColsSel, CreateReq, InitKind, PullReq, HDR};

/// Bytes per served value on the wire: uncompressed `f64`s.
const VALUE_BYTES: u64 = 8;

/// Everything one aggregate client agent needs to drive its users.
#[derive(Clone)]
pub struct ServeClientConfig {
    /// The PS fleet, indexed by slot (`plan.row_owner` routes into this).
    pub servers: Vec<ProcId>,
    /// The served (pre-trained) model table.
    pub matrix: MatrixId,
    pub plan: Arc<PartitionPlan>,
    /// Simulated users this one agent stands in for.
    pub users: u32,
    /// Per-user think time: each user issues one pull every `user_period`.
    pub user_period: SimTime,
    /// How long the generator issues new arrivals; the agent then drains
    /// outstanding replies and finishes.
    pub duration: SimTime,
    /// Probability in `[0, 1]` that a pull targets a Zipf-skewed row.
    pub zipf_fraction: f64,
    /// The skewed distribution over `plan.rows` rows, shared by the run's
    /// agents.
    pub zipf: Arc<ZipfTable>,
}

impl ServeClientConfig {
    /// Total arrivals this agent will issue: every `i` with
    /// `(i·period)/users < duration` — exactly `users · duration/period`
    /// when `duration` is a whole number of periods.
    pub fn total_arrivals(&self) -> u64 {
        self.duration.as_nanos() * self.users as u64 / self.user_period.as_nanos()
    }
}

/// Zipf distribution over row ranks `0..rows` (rank-`r` mass ∝
/// `1/(r+1)^s`) as cumulative mass per rank, binary-searched per draw.
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    pub fn new(rows: u32, exponent: f64) -> ZipfTable {
        assert!(rows > 0, "a Zipf table needs at least one row");
        let mut acc = 0.0f64;
        let cdf = (1..=rows)
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(exponent);
                acc
            })
            .collect();
        ZipfTable { cdf }
    }

    /// Draw one row: a single `f64` from `rng`, scaled to the total mass.
    fn sample(&self, rng: &mut StdRng) -> u32 {
        let total = *self.cdf.last().expect("at least one row");
        let x = rng.gen::<f64>() * total;
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1) as u32
    }
}

/// One in-flight pull, beside its correlation id.
struct InFlight {
    issued_at: SimTime,
    req_bytes: u64,
}

/// The agent's metric handles, resolved on first use (in `on_start`).
#[derive(Clone, Copy)]
struct PullMetrics {
    envelopes: Counter,
    count: Counter,
    reqs: Counter,
    bytes: Counter,
    rows: Counter,
    latency: Hist,
}

impl PullMetrics {
    fn resolve(ctx: &mut StepCtx<'_>) -> PullMetrics {
        PullMetrics {
            envelopes: ctx.counter("ps.client.envelopes"),
            count: ctx.counter("ps.client.op.pull.count"),
            reqs: ctx.counter("ps.client.op.pull.reqs"),
            bytes: ctx.counter("ps.client.op.pull.bytes"),
            rows: ctx.counter("ps.client.op.pull.rows"),
            latency: ctx.hist("ps.client.op.pull.latency"),
        }
    }
}

/// An aggregate open-loop client: one steppable agent modeling
/// [`ServeClientConfig::users`] users. Spawn with
/// [`ps2_simnet::SimCtx::spawn_agent`] (non-daemon: the agent finishes —
/// and lets the simulation end — once the duration has elapsed and every
/// outstanding reply drained).
pub struct ServeClientAgent {
    cfg: ServeClientConfig,
    /// Spawn clock, the origin of the arrival schedule (set in `on_start`).
    start: SimTime,
    /// Next arrival index `i` (time `(i·period)/users`, user `i % users`).
    next_arrival: u64,
    total_arrivals: u64,
    /// In-flight pulls in issue order. A proc's correlation ids rise
    /// strictly, so this is sorted by id and a reply is found by binary
    /// search, even when it overtakes earlier pulls to another server.
    outstanding: VecDeque<(u64, InFlight)>,
    completed: u64,
    metrics: Option<PullMetrics>,
}

impl ServeClientAgent {
    pub fn new(cfg: ServeClientConfig) -> ServeClientAgent {
        assert!(
            matches!(cfg.plan.kind, PlanKind::Row { .. }),
            "serving pulls whole rows; build the table with Partitioning::Row"
        );
        assert!((0.0..=1.0).contains(&cfg.zipf_fraction));
        assert!(cfg.users > 0, "an aggregate client needs at least one user");
        assert_eq!(
            cfg.zipf.cdf.len(),
            cfg.plan.rows as usize,
            "the Zipf table must span the served table's rows"
        );
        let total_arrivals = cfg.total_arrivals();
        ServeClientAgent {
            cfg,
            start: SimTime::ZERO,
            next_arrival: 0,
            total_arrivals,
            outstanding: VecDeque::new(),
            completed: 0,
            metrics: None,
        }
    }

    /// Virtual time of arrival `i`, relative to the agent's spawn clock.
    fn arrival_offset(&self, i: u64) -> SimTime {
        SimTime(i * self.cfg.user_period.as_nanos() / self.cfg.users as u64)
    }

    fn pick_row(&self, rng: &mut StdRng) -> u32 {
        if rng.gen::<f64>() < self.cfg.zipf_fraction {
            self.cfg.zipf.sample(rng)
        } else {
            rng.gen_range(0..self.cfg.plan.rows)
        }
    }

    fn metrics(&mut self, ctx: &mut StepCtx<'_>) -> PullMetrics {
        *self
            .metrics
            .get_or_insert_with(|| PullMetrics::resolve(ctx))
    }

    fn issue_due(&mut self, ctx: &mut StepCtx<'_>, start: SimTime) {
        let m = self.metrics(ctx);
        let now = ctx.now();
        while self.next_arrival < self.total_arrivals
            && start + self.arrival_offset(self.next_arrival) <= now
        {
            self.next_arrival += 1;
            let row = self.pick_row(ctx.rng());
            let req = PullReq {
                id: self.cfg.matrix,
                row,
                cols: ColsSel::All,
                value_bytes: VALUE_BYTES,
            };
            let dst = self.cfg.servers[self.cfg.plan.row_owner(row)];
            let req_bytes = HDR + req.wire_size();
            let token = ctx.req_begin("pull");
            ctx.add(m.envelopes, 1);
            // Each send of the batch leaves one per-message overhead after
            // the one before: latency counts from this pull's own issue.
            let issued_at = ctx.now();
            let corr = ctx.send_request_traced(dst, tags::PULL, req, req_bytes, token);
            debug_assert!(self.outstanding.back().is_none_or(|&(last, _)| last < corr));
            self.outstanding.push_back((
                corr,
                InFlight {
                    issued_at,
                    req_bytes,
                },
            ));
        }
        if self.next_arrival < self.total_arrivals {
            let next_at = start + self.arrival_offset(self.next_arrival);
            ctx.set_timer(next_at.saturating_sub(ctx.now()));
        }
    }

    fn maybe_finish(&mut self, ctx: &mut StepCtx<'_>) {
        if self.next_arrival >= self.total_arrivals && self.outstanding.is_empty() {
            debug_assert_eq!(self.completed, self.total_arrivals);
            ctx.finish();
        }
    }
}

impl Proc for ServeClientAgent {
    fn on_start(&mut self, ctx: &mut StepCtx<'_>) {
        // Remember our spawn clock as the schedule origin by anchoring
        // arrival 0 now; all offsets are relative to this instant.
        self.start = ctx.now();
        self.metrics(ctx);
        if self.total_arrivals == 0 {
            ctx.finish();
            return;
        }
        let start = self.start;
        self.issue_due(ctx, start);
        self.maybe_finish(ctx);
    }

    fn on_timer(&mut self, ctx: &mut StepCtx<'_>, _timer: u64) {
        let start = self.start;
        self.issue_due(ctx, start);
        self.maybe_finish(ctx);
    }

    fn on_message(&mut self, ctx: &mut StepCtx<'_>, env: Envelope) {
        if !env.is_reply() {
            return;
        }
        let found = self
            .outstanding
            .binary_search_by_key(&env.corr, |&(corr, _)| corr);
        let Some((_, inf)) = found.ok().and_then(|i| self.outstanding.remove(i)) else {
            return;
        };
        self.completed += 1;
        let m = self.metrics(ctx);
        ctx.add(m.count, 1);
        ctx.add(m.reqs, 1);
        ctx.add(m.bytes, inf.req_bytes + env.bytes);
        ctx.add(m.rows, 1);
        ctx.observe(m.latency, ctx.now() - inf.issued_at);
        self.maybe_finish(ctx);
    }
}

/// Load the served model into the PS fleet: one idempotent CREATE per
/// server, issued from a thread proc (the serve coordinator). `init` is the
/// checkpoint stand-in — [`InitKind::Uniform`] gives a deterministic
/// "trained" table without running a training job first.
pub fn create_serve_table(
    ctx: &mut SimCtx,
    servers: &[ProcId],
    id: MatrixId,
    plan: &Arc<PartitionPlan>,
    init: InitKind,
) {
    for (slot, &server) in servers.iter().enumerate() {
        let req = CreateReq {
            id,
            plan: Arc::clone(plan),
            init: init.clone(),
            slot,
        };
        let bytes = HDR + req.wire_size();
        ctx.call(server, tags::CREATE, req, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Partitioning;
    use crate::server::PsServerAgent;
    use ps2_simnet::SimBuilder;

    fn run_serve_window(users: u32, period_ms: u64, duration_ms: u64) -> ps2_simnet::SimReport {
        let mut sim = SimBuilder::new().seed(7).build();
        let servers: Vec<_> = (0..4)
            .map(|i| sim.spawn_agent_daemon(&format!("ps-{i}"), PsServerAgent::new()))
            .collect();
        let plan = Arc::new(PartitionPlan::new(16, 512, 4, Partitioning::Row));
        let id = MatrixId(9);
        sim.spawn("coord", move |ctx| {
            create_serve_table(ctx, &servers, id, &plan, InitKind::Zero);
            let zipf = Arc::new(ZipfTable::new(plan.rows, 1.0));
            let cfg = ServeClientConfig {
                servers,
                matrix: id,
                plan,
                users,
                user_period: SimTime::from_millis(period_ms),
                duration: SimTime::from_millis(duration_ms),
                zipf_fraction: 0.5,
                zipf,
            };
            ctx.spawn_agent("clients", ServeClientAgent::new(cfg));
        });
        sim.run().expect("serve test sim failed")
    }

    #[test]
    fn zipf_table_is_one_monotone_entry_per_row() {
        let table = ZipfTable::new(1000, 1.2);
        assert_eq!(table.cdf.len(), 1000);
        assert_eq!(table.cdf[0], 1.0);
        assert!(table.cdf.windows(2).all(|w| w[0] < w[1]));
        // Rank-r mass is 1/r^s, accumulated in rank order.
        assert_eq!(ZipfTable::new(3, 2.0).cdf, [1.0, 1.25, 1.25 + 1.0 / 9.0]);
    }

    /// Row choice through the shared table is the per-agent table's, draw
    /// for draw: the skew coin first, then one `f64` into the cumulative
    /// mass (or one uniform row). The pinned rows are what the parent
    /// commit, which built the table inside each agent, drew for this seed.
    #[test]
    fn shared_table_picks_the_rows_a_private_table_did() {
        use rand::SeedableRng;
        let rows = 1000;
        let agent = ServeClientAgent::new(ServeClientConfig {
            servers: Vec::new(),
            matrix: MatrixId(1),
            plan: Arc::new(PartitionPlan::new(4, rows, 4, Partitioning::Row)),
            users: 1,
            user_period: SimTime::from_millis(1),
            duration: SimTime::ZERO,
            zipf_fraction: 0.8,
            zipf: Arc::new(ZipfTable::new(rows, 1.2)),
        });
        let mut rng = StdRng::seed_from_u64(42);
        let picked: Vec<u32> = (0..1000).map(|_| agent.pick_row(&mut rng)).collect();
        assert_eq!(picked[..8], [2, 314, 584, 123, 11, 1, 42, 171]);
        assert_eq!(picked.iter().map(|&r| r as u64).sum::<u64>(), 154_153);
    }

    /// One aggregate agent with N=1000 users at 1 pull / 10 ms / user over a
    /// 100 ms window issues *exactly* the configured open-loop rate:
    /// 1000 × 10 = 10,000 pulls — no more, no fewer — and drains them all.
    #[test]
    fn aggregate_agent_issues_exact_open_loop_rate() {
        let report = run_serve_window(1000, 10, 100);
        assert_eq!(report.metrics.counter("ps.client.envelopes"), 10_000);
        assert_eq!(report.metrics.counter("ps.client.op.pull.count"), 10_000);
        let lat = report
            .metrics
            .hist("ps.client.op.pull.latency")
            .expect("pull latency histogram");
        assert_eq!(lat.count(), 10_000);
    }

    /// A window that is not a whole number of periods floors: 1000 users at
    /// 10 ms over 25 ms → arrivals strictly before 25 ms → 2500 pulls.
    #[test]
    fn partial_window_floors_arrival_count() {
        let report = run_serve_window(1000, 10, 25);
        assert_eq!(report.metrics.counter("ps.client.envelopes"), 2_500);
        assert_eq!(report.metrics.counter("ps.client.op.pull.count"), 2_500);
    }

    /// Two servers, the first held by a large CREATE just as the pulls
    /// start: the second server's replies overtake the first's, and each
    /// pull still completes exactly once. The latency histogram's count,
    /// sum and max are pinned.
    #[test]
    fn two_servers_whose_replies_overtake_complete_every_pull_once() {
        use ps2_simnet::TraceEvent;
        let mut sim = SimBuilder::new().seed(7).trace(true).build();
        let servers: Vec<_> = (0..2)
            .map(|i| sim.spawn_agent_daemon(&format!("ps-{i}"), PsServerAgent::new()))
            .collect();
        let plan = Arc::new(PartitionPlan::new(16, 512, 2, Partitioning::Row));
        let id = MatrixId(9);
        sim.spawn("coord", move |ctx| {
            create_serve_table(ctx, &servers, id, &plan, InitKind::Zero);
            let cfg = ServeClientConfig {
                servers: servers.clone(),
                matrix: id,
                zipf: Arc::new(ZipfTable::new(plan.rows, 1.0)),
                plan,
                users: 1000,
                user_period: SimTime::from_millis(1),
                duration: SimTime::from_millis(2),
                zipf_fraction: 0.5,
            };
            ctx.spawn_agent("clients", ServeClientAgent::new(cfg));
            let big = Arc::new(PartitionPlan::new(1 << 16, 8, 1, Partitioning::Row));
            create_serve_table(ctx, &servers[..1], MatrixId(10), &big, InitKind::Zero);
        });
        let report = sim.run().expect("serve test sim failed");
        // The client sends the first PULL; replies carry the request's tag.
        // A server answers in arrival order, so replies that come back in an
        // order other than the requests' crossed between the two servers.
        let pulls = report.trace.iter().filter_map(|e| match *e {
            TraceEvent::Send { src, dst, tag, .. } if tag == tags::PULL => Some((src, dst)),
            _ => None,
        });
        let client = pulls.clone().next().expect("a pull was sent").0;
        let issued: Vec<ProcId> = pulls
            .filter(|&(src, _)| src == client)
            .map(|(_, dst)| dst)
            .collect();
        let replied: Vec<ProcId> = report
            .trace
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Recv { proc, src, .. } if proc == client => Some(src),
                _ => None,
            })
            .collect();
        assert_eq!(replied.len(), issued.len());
        assert_ne!(replied, issued, "no reply overtook another");
        assert_eq!(report.metrics.counter("ps.client.envelopes"), 2_000);
        assert_eq!(report.metrics.counter("ps.client.op.pull.count"), 2_000);
        let lat = report
            .metrics
            .hist("ps.client.op.pull.latency")
            .expect("pull latency histogram");
        assert_eq!(
            (lat.count(), lat.sum_ns(), lat.max_ns()),
            (2_000, 1_830_734_814, 2_158_000)
        );
    }
}
