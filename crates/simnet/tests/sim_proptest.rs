//! Property-based tests for the simulator's invariants.

use proptest::prelude::*;
use ps2_simnet::{Envelope, NetConfig, Proc, ProcId, SimBuilder, SimTime, StepCtx, VtHistogram};

fn quiet_net() -> NetConfig {
    NetConfig {
        bandwidth_bps: 1e9,
        latency: SimTime::from_micros(100),
        per_msg_overhead: SimTime::ZERO,
        loopback: SimTime::from_micros(1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arrival time is monotone in message size: a bigger message from the
    /// same idle sender never arrives earlier.
    #[test]
    fn arrival_monotone_in_bytes(b1 in 1u64..10_000_000, b2 in 1u64..10_000_000) {
        let (small, big) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        let arr = |bytes: u64| {
            let mut sim = SimBuilder::new().network(quiet_net()).build();
            let rx = sim.spawn_collect("rx", |ctx| ctx.recv().arrival);
            sim.spawn("tx", move |ctx| ctx.send(ProcId(0), 0, (), bytes));
            sim.run().unwrap();
            rx.take()
        };
        prop_assert!(arr(small) <= arr(big));
    }

    /// Virtual clocks never decrease: each process's finish time is at
    /// least its total charged busy time.
    #[test]
    fn finish_time_bounds_busy_time(
        charges in prop::collection::vec(1u64..5_000_000, 1..20)
    ) {
        let mut sim = SimBuilder::new().build();
        let cs = charges.clone();
        sim.spawn("busy", move |ctx| {
            for c in &cs {
                ctx.advance(SimTime(*c));
            }
        });
        let report = sim.run().unwrap();
        let p = report.proc("busy").unwrap();
        let total: u64 = charges.iter().sum();
        prop_assert_eq!(p.busy, SimTime(total));
        prop_assert!(p.finished_at >= p.busy);
    }

    /// With N parallel one-shot senders to one sink, the sink's last arrival
    /// is at least N * wire-time (in-NIC serialization) and the whole run is
    /// deterministic across repetitions.
    #[test]
    fn incast_lower_bound_holds(n in 1usize..10, kb in 1u64..512) {
        let bytes = kb * 1024;
        let run = || {
            let mut sim = SimBuilder::new().network(quiet_net()).build();
            let nn = n;
            let sink = sim.spawn_collect("sink", move |ctx| {
                let mut last = SimTime::ZERO;
                for _ in 0..nn {
                    last = last.max(ctx.recv().arrival);
                }
                last
            });
            for i in 0..n {
                sim.spawn(&format!("tx{i}"), move |ctx| ctx.send(ProcId(0), 0, (), bytes));
            }
            sim.run().unwrap();
            sink.take()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b);
        let wire_ns = (bytes as f64 * 8.0 / 1e9 * 1e9).round() as u64;
        prop_assert!(a.as_nanos() >= wire_ns * n as u64);
    }

    /// Trace integrity under a randomized multi-proc workload: message
    /// pairing is an exact bijection on the explicit `seq` — every `Recv`
    /// consumes a strictly-earlier `Send` with the same seq, src, dst and
    /// tag; no seq is received twice or never sent — and the trace is
    /// non-decreasing in virtual time.
    #[test]
    fn trace_recvs_pair_with_earlier_sends(
        n_procs in 2usize..6,
        msgs in prop::collection::vec((0usize..6, 0usize..6, 0u32..8, 1u64..100_000), 1..30),
        pre_work in prop::collection::vec(0u64..2_000_000, 0..6),
    ) {
        // Assign each message to its sender; count how many each proc will
        // receive. Sends are non-blocking, so every proc can send all its
        // mail first and then drain exactly its expected count — no deadlock.
        let mut outbox: Vec<Vec<(usize, u32, u64)>> = vec![Vec::new(); n_procs];
        let mut expected_recv = vec![0usize; n_procs];
        for &(src, dst, tag, bytes) in &msgs {
            let (src, dst) = (src % n_procs, dst % n_procs);
            outbox[src].push((dst, tag, bytes));
            expected_recv[dst] += 1;
        }

        let mut sim = SimBuilder::new().network(quiet_net()).trace(true).build();
        for (i, mail) in outbox.iter().enumerate() {
            let mail = mail.clone();
            let n_recv = expected_recv[i];
            let warm = pre_work.get(i).copied().unwrap_or(0);
            sim.spawn(&format!("p{i}"), move |ctx| {
                ctx.advance(SimTime(warm));
                for (dst, tag, bytes) in mail {
                    ctx.send(ProcId(dst), tag, (), bytes);
                }
                for _ in 0..n_recv {
                    let _ = ctx.recv();
                }
            });
        }
        let report = sim.run().unwrap();

        // Non-decreasing virtual time across the whole trace.
        let times: Vec<u64> = report.trace.iter().map(|e| e.at().as_nanos()).collect();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));

        // Walk in trace order: every Recv names, via `seq`, exactly one
        // strictly-earlier Send with matching endpoints and tag (latency > 0
        // guarantees strictness), and no seq is reused or invented.
        let mut sent: std::collections::BTreeMap<u64, (SimTime, usize, usize, u32)> =
            std::collections::BTreeMap::new();
        let mut received: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut recvs = 0usize;
        for e in &report.trace {
            match e {
                ps2_simnet::TraceEvent::Send { at, src, dst, tag, seq, .. } => {
                    let dup = sent.insert(*seq, (*at, src.0, dst.0, *tag));
                    prop_assert!(dup.is_none(), "send seq {seq} allocated twice");
                }
                ps2_simnet::TraceEvent::Recv { at, proc, src, tag, seq } => {
                    recvs += 1;
                    let s = sent.get(seq);
                    prop_assert!(s.is_some(), "Recv seq {seq} has no earlier Send");
                    let &(sent_at, s_src, s_dst, s_tag) = s.unwrap();
                    prop_assert_eq!((s_src, s_dst, s_tag), (src.0, proc.0, *tag));
                    prop_assert!(sent_at < *at, "Recv at {at} not after Send at {sent_at}");
                    prop_assert!(received.insert(*seq), "seq {seq} received twice");
                }
                _ => {}
            }
        }
        prop_assert_eq!(recvs, msgs.len());
        // Exact bijection: everything sent was received (no drops here).
        prop_assert_eq!(received.len(), sent.len());
    }

    /// A mixed run — echo servers and a timer-driven ticker interleaved with
    /// thread-proc clients — is byte-identical across repeated same-seed
    /// executions, and the same to the nanosecond whether the echo servers
    /// are steppable agents or thread procs running the same loop: identical
    /// virtual time, proc stats, metrics registry and trace events. Clients
    /// scatter to every server and the large replies converge on one in-NIC,
    /// so a server whose send claimed that NIC out of clock order would show.
    /// A greeter swaps engines too: its first send, at the clock it was
    /// picked at, is the one an agent makes on the spot, and its second,
    /// after an `advance`, the one that waits for its own turn.
    #[test]
    fn mixed_agent_and_thread_runs_are_byte_identical(
        clients in 2usize..5,
        rounds in 1usize..5,
        charges in prop::collection::vec(0u64..500_000, 3..4),
        reply_kb in 100u64..1000,
        overhead in 1u64..20_000,
        tick_period in 1u64..2_000_000,
        ticks in 1u32..8,
        greet_work in 0u64..500_000,
        seed in 0u64..1000,
    ) {
        let run = |agents: bool| {
            let net = NetConfig { per_msg_overhead: SimTime(overhead), ..quiet_net() };
            let mut sim = SimBuilder::new().seed(seed).network(net).trace(true).build();
            let echoes: Vec<ProcId> = charges
                .iter()
                .enumerate()
                .map(|(i, &charge)| {
                    let name = format!("echo-{i}");
                    let reply_bytes = reply_kb * 1000 * (i as u64 + 1);
                    if agents {
                        sim.spawn_agent_daemon(&name, EchoAgent { charge, reply_bytes })
                    } else {
                        sim.spawn_daemon(&name, move |ctx| loop {
                            let env = ctx.recv();
                            ctx.advance(SimTime(charge));
                            let x: u64 = *env.downcast_ref::<u64>();
                            ctx.reply(&env, x + 1, reply_bytes);
                        })
                    }
                })
                .collect();
            let sink = sim.spawn(
                "tick-sink",
                {
                    let n = ticks as usize + 2;
                    move |ctx| {
                        for _ in 0..n {
                            let _ = ctx.recv();
                        }
                    }
                },
            );
            sim.spawn_agent(
                "ticker",
                TickerAgent { period: tick_period, left: ticks, dst: sink },
            );
            if agents {
                sim.spawn_agent("greeter", GreeterAgent { work: greet_work, dst: sink });
            } else {
                sim.spawn("greeter", move |ctx| {
                    ctx.send(sink, 8, 0u64, 32);
                    ctx.advance(SimTime(greet_work));
                    ctx.send(sink, 8, 1u64, 32);
                });
            }
            for c in 0..clients {
                let echoes = echoes.clone();
                sim.spawn(&format!("client-{c}"), move |ctx| {
                    for r in 0..rounds {
                        let x = (c * 100 + r) as u64;
                        let requests = echoes
                            .iter()
                            .map(|&dst| (dst, 3, Box::new(x) as Box<dyn std::any::Any + Send>, 16))
                            .collect();
                        for reply in ctx.call_many(requests) {
                            assert_eq!(reply.downcast::<u64>(), x + 1);
                        }
                    }
                });
            }
            let report = sim.run().unwrap();
            let counters: Vec<String> = report
                .metrics
                .counters()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let hists: Vec<String> = report
                .metrics
                .hists()
                .map(|(k, h)| format!("{k}:{}", h.to_json()))
                .collect();
            let totals = format!(
                "{:?}|{:?}|{counters:?}|{hists:?}",
                report.virtual_time, report.procs,
            );
            let trace: Vec<String> = report.trace.iter().map(|e| format!("{e:?}")).collect();
            (totals, trace)
        };
        let a = run(true);
        prop_assert_eq!(&a, &run(true));
        // Across engines the trace is compared as a set: events of different
        // procs at the same nanosecond sit in host order, which no report
        // reads and the two engines need not share.
        let (totals, mut trace) = a;
        let (thread_totals, mut thread_trace) = run(false);
        trace.sort();
        thread_trace.sort();
        prop_assert_eq!(totals, thread_totals);
        prop_assert_eq!(trace, thread_trace);
    }

    /// RPC replies always match their requests even under interleaving.
    #[test]
    fn rpc_replies_match_under_interleaving(rounds in 1usize..20, clients in 1usize..6) {
        let mut sim = SimBuilder::new().build();
        let server = sim.spawn_daemon("server", |ctx| loop {
            let env = ctx.recv();
            let v: u64 = *env.downcast_ref::<u64>();
            ctx.reply(&env, v + 1, 8);
        });
        let mut slots = Vec::new();
        for c in 0..clients {
            let slot = sim.spawn_collect(&format!("c{c}"), move |ctx| {
                let mut ok = true;
                for r in 0..rounds {
                    let x = (c * 1000 + r) as u64;
                    let y: u64 = ctx.call(server, 0, x, 8).downcast();
                    ok &= y == x + 1;
                }
                ok
            });
            slots.push(slot);
        }
        sim.run().unwrap();
        for s in slots {
            prop_assert!(s.take());
        }
    }
}

/// Steppable echo server: charges fixed compute, replies `x + 1`.
struct EchoAgent {
    charge: u64,
    reply_bytes: u64,
}

impl Proc for EchoAgent {
    fn on_message(&mut self, ctx: &mut StepCtx<'_>, env: Envelope) {
        if env.is_reply() {
            return;
        }
        ctx.advance(SimTime(self.charge));
        let x: u64 = *env.downcast_ref::<u64>();
        ctx.reply(&env, x + 1, self.reply_bytes);
    }
}

/// Agent that sends as soon as it starts, works, sends again and finishes.
struct GreeterAgent {
    work: u64,
    dst: ProcId,
}

impl Proc for GreeterAgent {
    fn on_start(&mut self, ctx: &mut StepCtx<'_>) {
        ctx.send(self.dst, 8, 0u64, 32);
        ctx.advance(SimTime(self.work));
        ctx.send(self.dst, 8, 1u64, 32);
        ctx.finish();
    }

    fn on_message(&mut self, _ctx: &mut StepCtx<'_>, _env: Envelope) {}
}

/// Timer-driven agent: every `period` ns it sends one message to a thread
/// sink, then finishes after `left` ticks.
struct TickerAgent {
    period: u64,
    left: u32,
    dst: ProcId,
}

impl Proc for TickerAgent {
    fn on_start(&mut self, ctx: &mut StepCtx<'_>) {
        ctx.set_timer(SimTime(self.period));
    }

    fn on_message(&mut self, _ctx: &mut StepCtx<'_>, _env: Envelope) {}

    fn on_timer(&mut self, ctx: &mut StepCtx<'_>, _timer: u64) {
        ctx.send(self.dst, 7, self.left as u64, 24);
        self.left -= 1;
        if self.left == 0 {
            ctx.finish();
        } else {
            ctx.set_timer(SimTime(self.period));
        }
    }
}

fn hist_of(values: &[u64]) -> VtHistogram {
    let mut h = VtHistogram::default();
    for &v in values {
        h.observe(SimTime(v));
    }
    h
}

// Properties of the mergeable log-linear latency histogram: the quantile
// estimator is monotone in `q`, and merging two histograms (the wire form
// used by cross-proc op summaries) never produces a quantile outside the
// interval spanned by the inputs' own quantiles at the same `q`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `quantile_ns` is monotone non-decreasing in `q` and pinned to the
    /// observed extremes at the ends: q=1 returns `max_ns` exactly, and q=0
    /// lands in the minimum's own bucket (within the log-linear relative
    /// error of 1/2^SUB_BITS).
    #[test]
    fn hist_quantile_monotone_in_q(
        values in prop::collection::vec(0u64..(1u64 << 44), 1..200),
        qs_milli in prop::collection::vec(0u64..=1000, 2..8),
    ) {
        let h = hist_of(&values);
        let mut qs: Vec<f64> = qs_milli.iter().map(|&m| m as f64 / 1000.0).collect();
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let estimates: Vec<u64> = qs.iter().map(|&q| h.quantile_ns(q)).collect();
        prop_assert!(
            estimates.windows(2).all(|w| w[0] <= w[1]),
            "quantiles not monotone: {qs:?} -> {estimates:?}"
        );
        let q0 = h.quantile_ns(0.0);
        prop_assert!(
            h.min_ns() <= q0 && q0 <= h.min_ns() + h.min_ns() / 32 + 1,
            "q=0 estimate {q0} outside min's bucket (min {})", h.min_ns()
        );
        prop_assert_eq!(h.quantile_ns(1.0), h.max_ns());
    }

    /// A merged histogram is exact on count/sum/min/max, and its quantile at
    /// any `q` stays within the interval spanned by the inputs' quantiles at
    /// the same `q` — merging shards can coarsen a tail estimate but never
    /// invent one outside what the shards saw.
    #[test]
    fn hist_merge_bounds_input_quantiles(
        a in prop::collection::vec(0u64..(1u64 << 44), 1..120),
        b in prop::collection::vec(0u64..(1u64 << 44), 1..120),
        qs_milli in prop::collection::vec(0u64..=1000, 1..6),
    ) {
        let qs: Vec<f64> = qs_milli.iter().map(|&m| m as f64 / 1000.0).collect();
        let ha = hist_of(&a);
        let hb = hist_of(&b);
        let mut hm = ha.clone();
        hm.merge(&hb);

        prop_assert_eq!(hm.count(), ha.count() + hb.count());
        prop_assert_eq!(hm.sum_ns(), ha.sum_ns() + hb.sum_ns());
        prop_assert_eq!(hm.min_ns(), ha.min_ns().min(hb.min_ns()));
        prop_assert_eq!(hm.max_ns(), ha.max_ns().max(hb.max_ns()));

        for &q in &qs {
            let (qa, qb, qm) = (ha.quantile_ns(q), hb.quantile_ns(q), hm.quantile_ns(q));
            prop_assert!(
                qa.min(qb) <= qm && qm <= qa.max(qb),
                "q={q}: merged {qm} outside [{}, {}]", qa.min(qb), qa.max(qb)
            );
        }
    }

    /// Merging is order-insensitive on everything the SLO report consumes:
    /// a⊕b and b⊕a agree on count, sum, extremes, buckets, and quantiles.
    #[test]
    fn hist_merge_is_commutative(
        a in prop::collection::vec(0u64..(1u64 << 44), 0..80),
        b in prop::collection::vec(0u64..(1u64 << 44), 0..80),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert_eq!(ab.sum_ns(), ba.sum_ns());
        prop_assert_eq!(ab.min_ns(), ba.min_ns());
        prop_assert_eq!(ab.max_ns(), ba.max_ns());
        prop_assert_eq!(ab.sparse_buckets(), ba.sparse_buckets());
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            prop_assert_eq!(ab.quantile_ns(q), ba.quantile_ns(q));
        }
    }
}
