//! Behavioural tests for the discrete-event runtime: determinism, NIC
//! serialization, RPC, deadlines, failures.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use ps2_simnet::{
    Envelope, NetConfig, Proc, ProcId, SimBuilder, SimError, SimReport, SimRuntime, SimTime,
    StepCtx,
};

/// Run the simulation on a helper thread and fail, instead of hanging the
/// suite, if a missed wake-up leaves it parked forever.
fn run_bounded(sim: SimRuntime) -> Result<SimReport, SimError> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(sim.run());
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("simulation did not finish within 30 s")
}

/// Counts proc closures that have returned or unwound. `run()` joins every
/// proc thread before it returns, so afterwards the count is exact.
struct Exited(Arc<AtomicUsize>);

impl Drop for Exited {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Spawn `n` daemons that park in `recv` forever.
fn park_daemons(sim: &mut SimRuntime, n: usize, exited: &Arc<AtomicUsize>) {
    for i in 0..n {
        let guard = Exited(Arc::clone(exited));
        sim.spawn_daemon(&format!("parked-{i}"), move |ctx| {
            let _guard = guard;
            loop {
                let _ = ctx.recv();
            }
        });
    }
}

fn net(bw_gbps: f64, latency_us: u64) -> NetConfig {
    NetConfig {
        bandwidth_bps: bw_gbps * 1e9,
        latency: SimTime::from_micros(latency_us),
        per_msg_overhead: SimTime::ZERO,
        loopback: SimTime::from_micros(1),
    }
}

#[test]
fn single_process_advances_clock() {
    let mut sim = SimBuilder::new().build();
    let out = sim.spawn_collect("solo", |ctx| {
        ctx.advance(SimTime::from_millis(5));
        ctx.now()
    });
    let report = sim.run().unwrap();
    assert_eq!(out.take(), SimTime::from_millis(5));
    assert_eq!(report.virtual_time, SimTime::from_millis(5));
}

#[test]
fn message_transfer_time_matches_model() {
    // 8 MB over 8 Gbps = 8ms wire; latency 1 ms; no overheads.
    let mut sim = SimBuilder::new().network(net(8.0, 1000)).build();
    let receiver = sim.spawn_collect("rx", |ctx| {
        let env = ctx.recv();
        env.arrival
    });
    let _sender = sim.spawn("tx", move |ctx| {
        ctx.send(receiver_id(), 0, (), 8_000_000);
    });
    // The receiver id is the first spawned proc: ProcId(0).
    fn receiver_id() -> ProcId {
        ProcId(0)
    }
    let _ = receiver;
    let report = sim.run().unwrap();
    // arrival = 0 + latency(1ms) + wire(8ms) = 9ms
    let rx = report.proc("rx").unwrap();
    assert_eq!(rx.finished_at, SimTime::from_millis(9));
}

#[test]
fn incast_serializes_on_receiver_nic() {
    // W senders each push B bytes to one sink: the sink's in-NIC serializes,
    // so completion ~= W * wire(B). This is the Spark-driver bottleneck.
    let w = 8u64;
    let bytes = 10_000_000u64; // 10 MB, wire = 10ms at 8 Gbps
    let mut sim = SimBuilder::new().network(net(8.0, 100)).build();
    let sink = sim.spawn_collect("sink", move |ctx| {
        let mut last = SimTime::ZERO;
        for _ in 0..w {
            let env = ctx.recv();
            last = last.max(env.arrival);
        }
        last
    });
    let sink_id = ProcId(0);
    for i in 0..w {
        sim.spawn(&format!("w{i}"), move |ctx| {
            ctx.send(sink_id, 0, (), bytes);
        });
    }
    let report = sim.run().unwrap();
    let last = sink.take();
    let wire_each = SimTime::from_millis(10);
    // All senders start at t=0; transfers serialize at the sink.
    let expected_min = SimTime(wire_each.as_nanos() * w);
    assert!(
        last >= expected_min,
        "incast did not serialize: {last:?} < {expected_min:?}"
    );
    assert!(last.as_nanos() < expected_min.as_nanos() + 10_000_000);
    let _ = report;
}

#[test]
fn fanout_from_one_sender_serializes_on_sender_nic() {
    // Broadcast from one node serializes on its out-NIC — the MLlib model
    // broadcast cost.
    let w = 8u64;
    let bytes = 10_000_000u64;
    let mut sim = SimBuilder::new().network(net(8.0, 100)).build();
    let mut arrivals = Vec::new();
    for i in 0..w {
        let slot = sim.spawn_collect(&format!("rx{i}"), |ctx| ctx.recv().arrival);
        arrivals.push(slot);
    }
    sim.spawn("bcast", move |ctx| {
        for i in 0..w {
            ctx.send(ProcId(i as usize), 0, (), bytes);
        }
    });
    sim.run().unwrap();
    let last = arrivals.iter().map(|s| s.take()).max().unwrap();
    assert!(last >= SimTime::from_millis(10 * w));
}

#[test]
fn rpc_round_trip_and_selective_receive() {
    let mut sim = SimBuilder::new().build();
    let mut sb = SimBuilder::new(); // keep builder pattern exercised
    let _ = &mut sb;
    let server = sim.spawn_daemon("server", |ctx| loop {
        let env = ctx.recv();
        let x: u64 = *env.downcast_ref::<u64>();
        ctx.reply(&env, x * 2, 8);
    });
    let out = sim.spawn_collect("client", move |ctx| {
        // Interleave: a stray one-way message must not satisfy the call.
        let me = ctx.id();
        ctx.send(me, 99, 123u64, 8); // self-send queued
        let doubled: u64 = ctx.call(server, 1, 21u64, 8).downcast();
        let stray = ctx.recv();
        (doubled, stray.tag)
    });
    sim.run().unwrap();
    assert_eq!(out.take(), (42, 99));
}

#[test]
fn call_many_gathers_in_request_order() {
    let n = 5;
    let mut sim = SimBuilder::new().build();
    let mut servers = Vec::new();
    for i in 0..n {
        let id = sim.spawn_daemon(&format!("s{i}"), move |ctx| loop {
            let env = ctx.recv();
            ctx.reply(&env, i as u64, 8);
        });
        servers.push(id);
    }
    let out = sim.spawn_collect("client", move |ctx| {
        let reqs = servers
            .iter()
            .rev() // reversed dispatch order
            .map(|&s| (s, 0u32, Box::new(()) as Box<dyn std::any::Any + Send>, 8u64))
            .collect();
        ctx.call_many(reqs)
            .into_iter()
            .map(|env| *env.downcast_ref::<u64>())
            .collect::<Vec<_>>()
    });
    sim.run().unwrap();
    assert_eq!(out.take(), vec![4, 3, 2, 1, 0]);
}

#[test]
fn recv_deadline_times_out() {
    let mut sim = SimBuilder::new().build();
    let out = sim.spawn_collect("waiter", |ctx| {
        let got = ctx.recv_timeout(SimTime::from_millis(50));
        (got.is_none(), ctx.now())
    });
    sim.run().unwrap();
    let (timed_out, now) = out.take();
    assert!(timed_out);
    assert_eq!(now, SimTime::from_millis(50));
}

#[test]
fn recv_deadline_prefers_earlier_mail() {
    let mut sim = SimBuilder::new().network(net(10.0, 10)).build();
    let waiter = sim.spawn_collect("waiter", |ctx| {
        let got = ctx.recv_timeout(SimTime::from_millis(500));
        got.map(|e| e.tag)
    });
    let waiter_id = ProcId(0);
    sim.spawn("sender", move |ctx| {
        ctx.advance(SimTime::from_millis(5));
        ctx.send(waiter_id, 7, (), 16);
    });
    sim.run().unwrap();
    assert_eq!(waiter.take(), Some(7));
}

#[test]
fn deadlock_is_reported() {
    let mut sim = SimBuilder::new().build();
    let exited = Arc::new(AtomicUsize::new(0));
    for i in 0..8 {
        let guard = Exited(Arc::clone(&exited));
        sim.spawn(&format!("stuck-{i}"), move |ctx| {
            let _guard = guard;
            let _ = ctx.recv(); // nobody ever sends
        });
    }
    // Seven procs are parked when the eighth finds the deadlock; the shutdown
    // broadcast must reach every one of them.
    let err = run_bounded(sim).unwrap_err();
    assert!(matches!(err, SimError::Deadlock(_)), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("deadlock"), "unexpected error: {msg}");
    assert!(msg.contains("stuck-0"), "missing process name: {msg}");
    assert_eq!(exited.load(Ordering::SeqCst), 8, "run() joins every thread");
}

#[test]
fn real_panic_is_reported_with_process_name() {
    let mut sim = SimBuilder::new().build();
    let exited = Arc::new(AtomicUsize::new(0));
    park_daemons(&mut sim, 8, &exited);
    sim.spawn("bad", |ctx| {
        // Let every daemon park in `recv` first.
        ctx.advance(SimTime::from_micros(1));
        panic!("kaboom")
    });
    let err = run_bounded(sim).unwrap_err();
    assert!(matches!(err, SimError::ProcPanic { .. }), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("bad") && msg.contains("kaboom"), "{msg}");
    assert_eq!(exited.load(Ordering::SeqCst), 8, "run() joins every thread");
}

#[test]
fn killed_process_unwinds_and_messages_are_dropped() {
    let mut sim = SimBuilder::new().build();
    let exited = Arc::new(AtomicUsize::new(0));
    let guard = Exited(Arc::clone(&exited));
    let victim = sim.spawn_daemon("victim", move |ctx| {
        let _guard = guard;
        loop {
            let env = ctx.recv();
            ctx.reply(&env, (), 0);
        }
    });
    let out = sim.spawn_collect("killer", move |ctx| {
        // One successful round trip first; the victim is then parked in
        // `recv` with an empty mailbox.
        let _ = ctx.call(victim, 0, (), 8);
        ctx.kill(victim);
        ctx.advance(SimTime::from_millis(1));
        let alive = ctx.is_alive(victim);
        // Sends to the dead victim are dropped, not delivered.
        ctx.send(victim, 0, (), 8);
        alive
    });
    let report = run_bounded(sim).unwrap();
    assert!(!out.take());
    assert!(report.dropped_msgs >= 1);
    assert_eq!(exited.load(Ordering::SeqCst), 1, "the victim unwound");
}

#[test]
fn daemons_do_not_keep_simulation_alive() {
    let mut sim = SimBuilder::new().build();
    let exited = Arc::new(AtomicUsize::new(0));
    park_daemons(&mut sim, 64, &exited);
    sim.spawn("quick", |ctx| {
        ctx.advance(SimTime::from_micros(1));
    });
    let report = run_bounded(sim).unwrap();
    assert_eq!(report.virtual_time, SimTime::from_micros(1));
    assert_eq!(
        exited.load(Ordering::SeqCst),
        64,
        "run() joins every thread"
    );
}

#[test]
fn a_daemon_never_given_a_turn_still_drops_its_closure() {
    let mut sim = SimBuilder::new().build();
    let exited = Arc::new(AtomicUsize::new(0));
    // The lower id finishes at t = 0 without yielding, which ends the run
    // before the daemon is ever picked.
    sim.spawn("quick", |_ctx| {});
    let guard = Exited(Arc::clone(&exited));
    sim.spawn_daemon("never", move |_ctx| {
        let _guard = guard;
        panic!("the daemon was given a turn");
    });
    let report = run_bounded(sim).unwrap();
    assert_eq!(report.virtual_time, SimTime::ZERO);
    assert_eq!(exited.load(Ordering::SeqCst), 1, "the closure was dropped");
}

#[test]
fn a_proc_killed_before_its_first_turn_still_drops_its_closure() {
    let mut sim = SimBuilder::new().build();
    let exited = Arc::new(AtomicUsize::new(0));
    let victim = ProcId(1);
    sim.spawn("killer", move |ctx| ctx.kill(victim));
    let guard = Exited(Arc::clone(&exited));
    let id = sim.spawn("victim", move |_ctx| {
        let _guard = guard;
        panic!("the victim was given a turn");
    });
    assert_eq!(id, victim);
    let report = run_bounded(sim).unwrap();
    assert_eq!(report.procs[victim.0].finished_at, SimTime::ZERO);
    assert_eq!(exited.load(Ordering::SeqCst), 1, "the closure was dropped");
}

#[test]
fn dynamic_spawn_inherits_clock() {
    let mut sim = SimBuilder::new().build();
    // Bystanders parked in `recv`: the child's first turn must be handed to
    // the child, a proc that did not exist when they parked.
    let exited = Arc::new(AtomicUsize::new(0));
    park_daemons(&mut sim, 4, &exited);
    let out = sim.spawn_collect("parent", |ctx| {
        ctx.advance(SimTime::from_millis(3));
        let me = ctx.id();
        ctx.spawn("child", move |cctx| {
            let start = cctx.now();
            cctx.send(me, 0, start, 8);
        });
        let env = ctx.recv();
        *env.downcast_ref::<SimTime>()
    });
    run_bounded(sim).unwrap();
    assert_eq!(out.take(), SimTime::from_millis(3));
    assert_eq!(exited.load(Ordering::SeqCst), 4, "run() joins every thread");
}

fn run_pipeline(seed: u64) -> SimReport {
    let mut sim = SimBuilder::new().seed(seed).network(net(10.0, 50)).build();
    let n_workers = 6usize;
    let sink = sim.spawn_daemon("agg", move |ctx| {
        let mut total = 0u64;
        loop {
            let env = ctx.recv();
            total += *env.downcast_ref::<u64>();
            ctx.reply(&env, total, 8);
        }
    });
    for i in 0..n_workers {
        sim.spawn(&format!("w{i}"), move |ctx| {
            for round in 0..10u64 {
                let work = (ctx.rng_sample() % 1000) + round;
                ctx.charge_flops(work * 1000);
                let _ = ctx.call(sink, 0, work, 256);
            }
        });
    }
    sim.run().unwrap()
}

// small helper via extension trait to pull a deterministic sample
trait RngSample {
    fn rng_sample(&mut self) -> u64;
}
impl RngSample for ps2_simnet::SimCtx {
    fn rng_sample(&mut self) -> u64 {
        use rand::Rng;
        self.rng().gen()
    }
}

#[test]
fn simulation_is_deterministic() {
    let a = run_pipeline(42);
    let b = run_pipeline(42);
    assert_eq!(a.virtual_time, b.virtual_time);
    assert_eq!(a.total_msgs, b.total_msgs);
    assert_eq!(a.total_bytes, b.total_bytes);
    for (pa, pb) in a.procs.iter().zip(&b.procs) {
        assert_eq!(pa.finished_at, pb.finished_at, "proc {}", pa.name);
        assert_eq!(pa.bytes_sent, pb.bytes_sent, "proc {}", pa.name);
    }
    let c = run_pipeline(43);
    assert_ne!(
        a.virtual_time, c.virtual_time,
        "different seeds should change the workload"
    );
}

#[test]
fn report_counts_messages_and_bytes() {
    let mut sim = SimBuilder::new().build();
    let rx = sim.spawn_collect("rx", |ctx| {
        let e1 = ctx.recv();
        let e2 = ctx.recv();
        e1.bytes + e2.bytes
    });
    sim.spawn("tx", |ctx| {
        ctx.send(ProcId(0), 0, (), 100);
        ctx.send(ProcId(0), 0, (), 200);
    });
    let report = sim.run().unwrap();
    assert_eq!(rx.take(), 300);
    assert_eq!(report.total_msgs, 2);
    assert_eq!(report.total_bytes, 300);
    let tx = report.proc("tx").unwrap();
    assert_eq!(tx.msgs_sent, 2);
    assert_eq!(tx.bytes_sent, 300);
}

/// Agent that, given a message, works for `work`, sends one message to
/// `dst` and optionally finishes — all in one step.
struct WorkThenSend {
    work: SimTime,
    dst: ProcId,
    finish: bool,
}

impl Proc for WorkThenSend {
    fn on_message(&mut self, ctx: &mut StepCtx<'_>, _env: Envelope) {
        ctx.advance(self.work);
        ctx.send(self.dst, 5, (), 8);
        if self.finish {
            ctx.finish();
        }
    }
}

/// A thread proc sends, *then* exits; so does an agent that sends and calls
/// `finish()` in the same step, even though the send leaves in a later turn.
#[test]
fn agent_send_followed_by_finish_is_delivered() {
    let mut sim = SimBuilder::new().network(net(8.0, 1000)).build();
    let sink = sim.spawn_collect("sink", |ctx| {
        // Arrives at 1 ms (latency); the agent then works until 3 ms.
        ctx.send(ProcId(1), 0, (), 0);
        ctx.recv().sent_at
    });
    let agent = WorkThenSend {
        work: SimTime::from_millis(2),
        dst: ProcId(0),
        finish: true,
    };
    let agent = sim.spawn_agent("worker", agent);
    let report = run_bounded(sim).unwrap();
    assert_eq!(sink.take(), SimTime::from_millis(3));
    assert_eq!(report.procs[agent.0].finished_at, SimTime::from_millis(3));
    assert_eq!(report.dropped_msgs, 0);
}

/// A killed thread proc unwinds at its next yield without sending; an agent
/// killed while its send waits for its turn sends nothing either, and ends
/// at the clock it had reached when it tried to send.
#[test]
fn killed_agent_drops_its_queued_sends() {
    let mut sim = SimBuilder::new().network(net(8.0, 1000)).build();
    let sink = sim.spawn_collect("sink", |ctx| {
        ctx.recv_deadline(SimTime::from_millis(50)).is_some()
    });
    let agent = WorkThenSend {
        work: SimTime::from_millis(10),
        dst: ProcId(0),
        finish: false,
    };
    let agent = sim.spawn_agent_daemon("worker", agent);
    sim.spawn("killer", move |ctx| {
        // Arrives at 1 ms (latency); the agent then works until 11 ms.
        ctx.send(agent, 0, (), 0);
        ctx.advance(SimTime::from_millis(5));
        ctx.kill(agent);
    });
    let report = run_bounded(sim).unwrap();
    assert!(!sink.take(), "the queued send must not be delivered");
    assert_eq!(report.total_msgs, 1, "only the killer's message was sent");
    assert_eq!(report.procs[agent.0].msgs_sent, 0);
    assert_eq!(report.procs[agent.0].finished_at, SimTime::from_millis(11));
}

/// Agent that calls an echo server and waits for the reply selectively,
/// logging every event it is given with the clock it arrived at.
struct Caller {
    server: ProcId,
    log: Arc<Mutex<Vec<(&'static str, SimTime)>>>,
}

impl Proc for Caller {
    fn on_start(&mut self, ctx: &mut StepCtx<'_>) {
        let corr = ctx.send_request(self.server, 9, (), 8);
        ctx.await_reply(corr);
        ctx.set_timer(SimTime::from_millis(3));
    }

    fn on_message(&mut self, ctx: &mut StepCtx<'_>, env: Envelope) {
        let what = match (env.is_reply(), env.tag) {
            (true, _) => "reply",
            (false, 1) => "first",
            (false, _) => "second",
        };
        let mut log = self.log.lock().unwrap();
        log.push((what, ctx.now()));
        if log.len() == 4 {
            ctx.finish();
        }
    }

    fn on_timer(&mut self, ctx: &mut StepCtx<'_>, _timer: u64) {
        self.log.lock().unwrap().push(("timer", ctx.now()));
    }
}

/// `await_reply` is the selective receive of `SimCtx::call`: unrelated mail
/// that arrives first is delivered only after the awaited reply, in arrival
/// order, and timers keep firing meanwhile.
#[test]
fn await_reply_holds_unrelated_mail_until_the_reply() {
    let mut sim = SimBuilder::new().network(net(8.0, 1000)).build();
    let server = sim.spawn_daemon("slow-echo", |ctx| loop {
        let env = ctx.recv();
        ctx.advance(SimTime::from_millis(10));
        ctx.reply(&env, (), 8);
    });
    let log = Arc::new(Mutex::new(Vec::new()));
    let caller = Caller {
        server,
        log: Arc::clone(&log),
    };
    let caller = sim.spawn_agent("caller", caller);
    sim.spawn("chatter", move |ctx| {
        ctx.send(caller, 1, (), 0);
        ctx.advance(SimTime::from_millis(1));
        ctx.send(caller, 2, (), 0);
    });
    run_bounded(sim).unwrap();
    let ms = SimTime::from_millis;
    // Request out at 0, served 1..11 ms, reply back at 12 ms (8 bytes of
    // wire time are below the millisecond); the chatter's mail arrived at
    // 1 and 2 ms.
    let log = log.lock().unwrap();
    let events: Vec<&str> = log.iter().map(|(what, _)| *what).collect();
    assert_eq!(events, ["timer", "reply", "first", "second"]);
    assert_eq!(log[0].1, ms(3));
    assert!(log[1].1 >= ms(12) && log[1].1 < ms(13), "{:?}", log[1]);
    assert_eq!(log[2].1, log[1].1);
    assert_eq!(log[3].1, log[1].1);
}

/// Mail is taken in `(arrival, seq)` order whatever order it was queued in:
/// a loopback send that arrives before network mail already queued goes
/// first, and mail that ties on arrival — two senders', then a loopback's —
/// goes in send order.
#[test]
fn mail_is_taken_in_arrival_then_send_order() {
    let mut sim = SimBuilder::new().network(net(8.0, 1000)).build();
    let rx = sim.spawn_collect("rx", |ctx| {
        // The three senders go at 0; their mail arrives at 1, 1 and 2 ms.
        ctx.advance(SimTime::from_micros(10));
        let me = ctx.id();
        // Arrives at 11 µs, ahead of everything queued.
        ctx.send(me, 0, (), 8);
        ctx.advance(SimTime::from_micros(989));
        // Arrives at 1 ms, tied with the first two senders' mail.
        ctx.send(me, 0, (), 8);
        (0..5)
            .map(|_| {
                let env = ctx.recv();
                (env.src, env.arrival, env.seq)
            })
            .collect::<Vec<_>>()
    });
    for (name, bytes) in [("a", 0), ("b", 0), ("c", 1_000_000)] {
        sim.spawn(name, move |ctx| ctx.send(ProcId(0), 0, (), bytes));
    }
    run_bounded(sim).unwrap();
    let got = rx.take();
    let us = SimTime::from_micros;
    let srcs: Vec<usize> = got.iter().map(|(src, _, _)| src.0).collect();
    assert_eq!(srcs, [0, 1, 2, 0, 3]);
    let arrivals: Vec<SimTime> = got.iter().map(|&(_, at, _)| at).collect();
    assert_eq!(arrivals, [us(11), us(1000), us(1000), us(1000), us(2000)]);
    let keys: Vec<(SimTime, u64)> = got.iter().map(|&(_, at, seq)| (at, seq)).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
}

/// Agent that calls a slow echo server and, until the reply, holds back
/// the mail that queues behind it; logs the reply and the payload of every
/// other message in the order they are handed to it.
struct Backlogged {
    server: ProcId,
    expect: usize,
    log: Arc<Mutex<Vec<Option<u64>>>>,
}

impl Proc for Backlogged {
    fn on_start(&mut self, ctx: &mut StepCtx<'_>) {
        let corr = ctx.send_request(self.server, 9, (), 8);
        ctx.await_reply(corr);
    }

    fn on_message(&mut self, ctx: &mut StepCtx<'_>, env: Envelope) {
        let mut log = self.log.lock().unwrap();
        log.push((!env.is_reply()).then(|| *env.downcast_ref::<u64>()));
        if log.len() == self.expect {
            ctx.finish();
        }
    }
}

/// An agent parked on `await_reply` takes its reply from behind more than a
/// hundred queued requests, then drains them in arrival order.
#[test]
fn await_reply_takes_its_reply_from_behind_a_long_backlog() {
    const BACKLOG: u64 = 150;
    let mut sim = SimBuilder::new().network(net(8.0, 1000)).build();
    let server = sim.spawn_daemon("slow-echo", |ctx| loop {
        let env = ctx.recv();
        ctx.advance(SimTime::from_millis(10));
        ctx.reply(&env, (), 8);
    });
    let log = Arc::new(Mutex::new(Vec::new()));
    let agent = Backlogged {
        server,
        expect: BACKLOG as usize + 1,
        log: Arc::clone(&log),
    };
    let agent = sim.spawn_agent("backlogged", agent);
    sim.spawn("flood", move |ctx| {
        for i in 0..BACKLOG {
            ctx.send(agent, 1, i, 64);
            ctx.advance(SimTime::from_micros(20));
        }
    });
    let report = run_bounded(sim).unwrap();
    let log = log.lock().unwrap();
    assert_eq!(log[0], None, "the reply first");
    let drained: Vec<u64> = log[1..].iter().map(|p| p.expect("a request")).collect();
    assert_eq!(drained, (0..BACKLOG).collect::<Vec<_>>());
    assert_eq!(report.procs[agent.0].msgs_recv, BACKLOG + 1);
}

/// Agent that arms timers out of order — two pairs tie on their fire time —
/// and one more from the first to fire, tied with two already armed; logs
/// each firing's token and clock.
struct Alarms {
    log: Arc<Mutex<Vec<(u64, SimTime)>>>,
}

impl Proc for Alarms {
    fn on_start(&mut self, ctx: &mut StepCtx<'_>) {
        for ms in [5, 2, 5, 1, 2] {
            ctx.set_timer(SimTime::from_millis(ms));
        }
    }

    fn on_message(&mut self, _ctx: &mut StepCtx<'_>, _env: Envelope) {}

    fn on_timer(&mut self, ctx: &mut StepCtx<'_>, timer: u64) {
        let mut log = self.log.lock().unwrap();
        log.push((timer, ctx.now()));
        if timer == 3 {
            ctx.set_timer(SimTime::from_millis(1));
        }
        if log.len() == 6 {
            ctx.finish();
        }
    }
}

/// Timers fire in `(fire time, token)` order: ties in the order they were
/// armed, a timer armed later behind earlier ones it ties with.
#[test]
fn timers_fire_in_fire_time_then_token_order() {
    let mut sim = SimBuilder::new().build();
    let log = Arc::new(Mutex::new(Vec::new()));
    sim.spawn_agent(
        "alarms",
        Alarms {
            log: Arc::clone(&log),
        },
    );
    run_bounded(sim).unwrap();
    let ms = SimTime::from_millis;
    assert_eq!(
        *log.lock().unwrap(),
        [
            (3, ms(1)),
            (1, ms(2)),
            (4, ms(2)),
            (5, ms(2)),
            (0, ms(5)),
            (2, ms(5)),
        ]
    );
}

/// Agent that calls a server which never answers, so it stays parked on
/// `await_reply`, and logs a timer it re-arms from `on_timer` every 2 ms.
struct Probe {
    server: ProcId,
    log: Arc<Mutex<Vec<(&'static str, SimTime)>>>,
}

impl Proc for Probe {
    fn on_start(&mut self, ctx: &mut StepCtx<'_>) {
        let corr = ctx.send_request(self.server, 9, (), 8);
        ctx.await_reply(corr);
        ctx.set_timer(SimTime::from_millis(2));
    }

    fn on_message(&mut self, ctx: &mut StepCtx<'_>, _env: Envelope) {
        self.log.lock().unwrap().push(("mail", ctx.now()));
    }

    fn on_timer(&mut self, ctx: &mut StepCtx<'_>, _timer: u64) {
        self.log.lock().unwrap().push(("timer", ctx.now()));
        ctx.set_timer(SimTime::from_millis(2));
    }
}

/// One run through every way a proc's scheduling key changes behind the
/// scheduler's back — the edges `pick()`'s cached keys must be told about
/// (debug builds compare the cache with a full recompute on every pick):
/// a kill of an agent parked on `await_reply` with other mail queued, an
/// agent spawned mid-run that is mailed before it was ever picked, a timer
/// re-armed from `on_timer`, a `recv_deadline` whose wake-up mail pulls
/// forward and one that expires, and a send to a finished proc.
#[test]
fn scheduling_keys_follow_kills_spawns_timers_deadlines_and_drops() {
    let ms = SimTime::from_millis;
    let mut sim = SimBuilder::new().network(net(8.0, 1000)).build();
    let mute = sim.spawn_daemon("mute", |ctx| loop {
        let _ = ctx.recv();
    });
    let log = Arc::new(Mutex::new(Vec::new()));
    let probe = Probe {
        server: mute,
        log: Arc::clone(&log),
    };
    let probe = sim.spawn_agent_daemon("probe", probe);
    let driver = sim.spawn_collect("driver", move |ctx| {
        // In the probe's mailbox from 1 ms on, held back by `await_reply`.
        ctx.send(probe, 1, (), 0);
        ctx.advance(ms(5));
        ctx.kill(probe);
        let late = WorkThenSend {
            work: SimTime::ZERO,
            dst: ctx.id(),
            finish: true,
        };
        let late = ctx.spawn_agent("late", late);
        // Mailed before its first turn; it starts at 5 ms, takes this at
        // 6 ms and answers at once. The answer, sent while the driver is
        // parked until 8 ms, wakes it at 7 ms; nothing follows it.
        ctx.send(late, 0, (), 0);
        let answer = ctx.recv_deadline(ms(8)).expect("late's answer");
        let woke_at = ctx.now();
        let nothing = ctx.recv_deadline(ms(9));
        let gave_up_at = ctx.now();
        ctx.send(probe, 1, (), 0);
        (answer.sent_at, woke_at, nothing.is_none(), gave_up_at, late)
    });
    let report = run_bounded(sim).unwrap();
    let (answered_at, woke_at, timed_out, gave_up_at, late) = driver.take();
    assert_eq!(answered_at, ms(6));
    assert!(woke_at >= ms(7) && woke_at < ms(8), "woke at {woke_at}");
    assert!(timed_out);
    assert_eq!(gave_up_at, ms(9));
    assert_eq!(report.procs[late.0].finished_at, ms(6));
    // Two timer turns, then the kill: the held mail is never delivered.
    assert_eq!(*log.lock().unwrap(), [("timer", ms(2)), ("timer", ms(4))]);
    assert_eq!(report.procs[probe.0].msgs_recv, 0);
    assert_eq!(report.procs[probe.0].finished_at, ms(4));
    assert_eq!(report.dropped_msgs, 1, "the send to the dead probe");
}

/// Hand-off stress: `RING` thread procs pass tokens round a ring, working
/// between hops, while a killer removes every 8th member at fixed virtual
/// times. Every hop and every work charge passes the turn between threads
/// and every kill wakes a parked victim, so a wake-up the scheduler loses
/// parks the run forever — which `run_bounded` turns into a failure.
/// Returns the report and how many tokens came back to the killer.
fn run_ring() -> (SimReport, u64) {
    const RING: usize = 48;
    const HOPS: u64 = 200;
    let killer = ProcId(RING);
    let mut sim = SimBuilder::new().seed(3).network(net(10.0, 20)).build();
    for i in 0..RING {
        let id = sim.spawn_daemon(&format!("ring-{i}"), move |ctx| loop {
            let env = ctx.recv();
            let hops = *env.downcast_ref::<u64>();
            ctx.advance(SimTime::from_micros(3 + (5 * i as u64 + hops) % 11));
            if hops == HOPS {
                ctx.send(killer, 0, hops, 8);
                continue;
            }
            let next = (1..RING)
                .map(|d| ProcId((i + d) % RING))
                .find(|&p| ctx.is_alive(p))
                .expect("a live successor");
            ctx.send(next, 0, hops + 1, 64);
        });
        assert_eq!(id, ProcId(i));
    }
    let out = sim.spawn_collect("killer", move |ctx| {
        for start in [0, 12, 24, 36] {
            ctx.send(ProcId(start), 0, 0u64, 64);
        }
        for (n, victim) in (0..RING).step_by(8).enumerate() {
            let at = SimTime::from_micros(400 * (n as u64 + 1));
            ctx.advance(at.saturating_sub(ctx.now()));
            ctx.kill(ProcId(victim));
            // Dropped: the victim is dead.
            ctx.send(ProcId(victim), 0, 0u64, 64);
            // A fresh token, in case the victim held one.
            ctx.send(ProcId(victim + 1), 0, 0u64, 64);
        }
        let mut back = 0;
        while ctx.recv_timeout(SimTime::from_millis(5)).is_some() {
            back += 1;
        }
        back
    });
    assert_eq!(ProcId(RING), killer);
    let report = run_bounded(sim).unwrap();
    (report, out.take())
}

#[test]
fn ring_handoff_under_kills_is_deterministic() {
    let (a, back_a) = run_ring();
    let (b, back_b) = run_ring();
    assert_eq!(a.virtual_time, b.virtual_time);
    assert_eq!(a.total_msgs, b.total_msgs);
    assert_eq!(a.dropped_msgs, b.dropped_msgs);
    assert_eq!(back_a, back_b);
    assert_eq!(
        (
            a.virtual_time.as_nanos(),
            a.total_msgs,
            a.dropped_msgs,
            back_a
        ),
        (13_064_308, 1882, 6, 9),
        "one of the ten tokens dies with a victim"
    );
}
