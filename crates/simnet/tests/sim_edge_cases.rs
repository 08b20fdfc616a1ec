//! Edge-case tests for the simulator runtime.

use ps2_simnet::{ProcId, SimBuilder, SimTime};

#[test]
fn empty_simulation_completes() {
    let sim = SimBuilder::new().build();
    let report = sim.run().unwrap();
    assert_eq!(report.virtual_time, SimTime::ZERO);
    assert_eq!(report.total_msgs, 0);
}

#[test]
fn only_daemons_means_zero_duration() {
    let mut sim = SimBuilder::new().build();
    sim.spawn_daemon("lonely", |ctx| loop {
        let _ = ctx.recv();
    });
    let report = sim.run().unwrap();
    assert_eq!(report.virtual_time, SimTime::ZERO);
}

#[test]
fn self_send_uses_loopback() {
    let mut sim = SimBuilder::new().build();
    let out = sim.spawn_collect("solo", |ctx| {
        let me = ctx.id();
        ctx.send(me, 1, 42u32, 1_000_000_000); // a GB to itself
        let env = ctx.recv();
        (env.arrival, *env.downcast_ref::<u32>())
    });
    sim.run().unwrap();
    let (arrival, v) = out.take();
    assert_eq!(v, 42);
    // Loopback ignores NIC bandwidth entirely.
    assert!(arrival < SimTime::from_millis(1), "{arrival:?}");
}

#[test]
fn zero_byte_messages_cost_only_overheads() {
    let mut sim = SimBuilder::new().build();
    let rx = sim.spawn_collect("rx", |ctx| ctx.recv().arrival);
    sim.spawn("tx", |ctx| ctx.send(ProcId(0), 0, (), 0));
    sim.run().unwrap();
    let arrival = rx.take();
    assert!(arrival > SimTime::ZERO);
    assert!(arrival < SimTime::from_millis(1));
}

#[test]
fn messages_to_finished_processes_are_dropped() {
    let mut sim = SimBuilder::new().build();
    sim.spawn("short", |ctx| {
        ctx.advance(SimTime::from_micros(1));
    });
    sim.spawn("late", |ctx| {
        ctx.advance(SimTime::from_millis(1));
        ctx.send(ProcId(0), 0, (), 64);
        ctx.advance(SimTime::from_millis(1));
    });
    let report = sim.run().unwrap();
    assert_eq!(report.dropped_msgs, 1);
}

#[test]
fn many_processes_scale() {
    let n = 200usize;
    let mut sim = SimBuilder::new().build();
    let sink = sim.spawn_collect("sink", move |ctx| {
        let mut total = 0u64;
        for _ in 0..n {
            total += *ctx.recv().downcast_ref::<u64>();
        }
        total
    });
    for i in 0..n {
        sim.spawn(&format!("p{i}"), move |ctx| {
            ctx.send(ProcId(0), 0, i as u64, 8);
        });
    }
    let report = sim.run().unwrap();
    assert_eq!(sink.take(), (n as u64 - 1) * n as u64 / 2);
    assert_eq!(report.total_msgs, n as u64);
}

#[test]
fn nested_rpc_chains_work() {
    // client -> middle -> backend and back.
    let mut sim = SimBuilder::new().build();
    let backend = sim.spawn_daemon("backend", |ctx| loop {
        let env = ctx.recv();
        let x = *env.downcast_ref::<u64>();
        ctx.reply(&env, x * 10, 8);
    });
    let middle = sim.spawn_daemon("middle", move |ctx| loop {
        let env = ctx.recv();
        let x = *env.downcast_ref::<u64>();
        let y: u64 = ctx.call(backend, 0, x + 1, 8).downcast();
        ctx.reply(&env, y, 8);
    });
    let out = sim.spawn_collect("client", move |ctx| {
        let r: u64 = ctx.call(middle, 0, 4u64, 8).downcast();
        r
    });
    sim.run().unwrap();
    assert_eq!(out.take(), 50);
}

#[test]
fn kill_then_respawn_with_same_name_is_fine() {
    let mut sim = SimBuilder::new().build();
    let out = sim.spawn_collect("boss", |ctx| {
        let w1 = ctx.spawn_daemon("worker", |c| loop {
            let env = c.recv();
            c.reply(&env, 1u32, 4);
        });
        let a: u32 = ctx.call(w1, 0, (), 4).downcast();
        ctx.kill(w1);
        let w2 = ctx.spawn_daemon("worker", |c| loop {
            let env = c.recv();
            c.reply(&env, 2u32, 4);
        });
        let b: u32 = ctx.call(w2, 0, (), 4).downcast();
        a + b
    });
    sim.run().unwrap();
    assert_eq!(out.take(), 3);
}

#[test]
fn per_process_rngs_differ_but_are_reproducible() {
    use rand::Rng;
    let draws = |seed: u64| {
        let mut sim = SimBuilder::new().seed(seed).build();
        let a = sim.spawn_collect("a", |ctx| ctx.rng().gen::<u64>());
        let b = sim.spawn_collect("b", |ctx| ctx.rng().gen::<u64>());
        sim.run().unwrap();
        (a.take(), b.take())
    };
    let (a1, b1) = draws(5);
    let (a2, b2) = draws(5);
    assert_eq!((a1, b1), (a2, b2), "same seed, same draws");
    assert_ne!(a1, b1, "processes get distinct streams");
    let (a3, _) = draws(6);
    assert_ne!(a1, a3, "different seed, different draws");
}

#[test]
fn virtual_time_is_far_ahead_of_wall_time_for_big_transfers() {
    // Moving a (virtual) 10 GB costs 8 s of cluster time but almost no
    // wall time — the point of simulating.
    let mut sim = SimBuilder::new().build();
    let rx = sim.spawn_collect("rx", |ctx| ctx.recv().arrival);
    sim.spawn("tx", |ctx| ctx.send(ProcId(0), 0, (), 10_000_000_000));
    let report = sim.run().unwrap();
    assert!(rx.take() > SimTime::from_secs_f64(7.9));
    assert!(report.wall_time.as_millis() < 1000);
}

#[test]
fn deadline_receive_leaves_later_mail_queued() {
    // The mail is queued before the receiver waits (sent at t = 0) but
    // arrives at ≈ 7 ms, after the 6.5 ms deadline: the deadline receive
    // returns nothing at 6.5 ms, and the next receive gets the mail on
    // arrival.
    let deadline = SimTime::from_micros(6_500);
    let mut sim = SimBuilder::new().build();
    sim.spawn("tx", |ctx| ctx.send(ProcId(1), 0, (), 8_622_500));
    let rx = sim.spawn_collect("rx", move |ctx| {
        let early = ctx.recv_deadline(deadline).is_some();
        let timed_out_at = ctx.now();
        let env = ctx.recv();
        (early, timed_out_at, env.arrival, ctx.now())
    });
    sim.run().unwrap();
    let (early, timed_out_at, arrival, received_at) = rx.take();
    assert!(!early, "mail arriving after the deadline was handed out");
    assert_eq!(timed_out_at, deadline);
    assert!(arrival > deadline && arrival < SimTime::from_micros(7_100));
    assert_eq!(received_at, arrival);
}
