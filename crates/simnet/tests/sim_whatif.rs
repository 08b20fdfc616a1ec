//! Tests for `simnet::whatif` counterfactual replay over real simulated
//! workloads (hand-built-DAG unit tests live in the module itself).

use ps2_simnet::{
    parse_spec, replay, run_battery, standard_battery, CausalDag, NetConfig, ProcId, SimBuilder,
    SimReport, SimTime,
};

fn quiet_net() -> NetConfig {
    NetConfig {
        bandwidth_bps: 1e9,
        latency: SimTime::from_micros(100),
        per_msg_overhead: SimTime::ZERO,
        loopback: SimTime::from_micros(1),
    }
}

fn rpc_workload(seed: u64) -> SimReport {
    let mut sim = SimBuilder::new().seed(seed).trace(true).build();
    let server = sim.spawn_daemon("server", |ctx| loop {
        let env = ctx.recv();
        ctx.op_label("serve");
        ctx.charge_flops(50_000);
        ctx.op_label_clear();
        ctx.reply(&env, (), 256);
    });
    for c in 0..3 {
        sim.spawn(&format!("client{c}"), move |ctx| {
            for _ in 0..5u64 {
                let _ = ctx.call(server, 1, (), 4096);
                ctx.charge_flops(20_000 * (c + 1) as u64);
            }
        });
    }
    sim.run().unwrap()
}

/// The acceptance invariant: replaying the unmodified DAG of a
/// real run reproduces the measured makespan exactly, across seeds and
/// workload shapes.
#[test]
fn unmodified_replay_reproduces_the_measured_makespan() {
    for seed in [1u64, 7, 11, 42] {
        let report = rpc_workload(seed);
        let dag = CausalDag::from_report(&report).unwrap();
        let r = replay(&dag, &[]).unwrap();
        assert_eq!(
            r.makespan_ns,
            report.virtual_time.as_nanos(),
            "seed {seed}: unmodified replay must be a fixed point"
        );
        // Every process, not just the bound one, reproduces its finish.
        for (p, st) in report.procs.iter().enumerate() {
            assert_eq!(
                r.proc_finish_ns[p],
                st.finished_at.as_nanos(),
                "seed {seed}: proc {} ({}) drifted",
                p,
                st.name
            );
        }
    }
}

#[test]
fn replay_is_a_fixed_point_across_deadline_waits() {
    // Expired recv_timeouts leave untraced gaps; replay must carry them
    // verbatim.
    let mut sim = SimBuilder::new().network(quiet_net()).trace(true).build();
    sim.spawn("poller", |ctx| {
        assert!(ctx.recv_timeout(SimTime::from_millis(3)).is_none());
        ctx.advance(SimTime::from_millis(1));
        assert!(ctx.recv_timeout(SimTime::from_millis(2)).is_none());
    });
    sim.spawn("worker", |ctx| ctx.advance(SimTime::from_millis(4)));
    let report = sim.run().unwrap();
    let dag = CausalDag::from_report(&report).unwrap();
    assert_eq!(
        replay(&dag, &[]).unwrap().makespan_ns,
        report.virtual_time.as_nanos()
    );
}

#[test]
fn global_compute_speedup_shrinks_a_compute_bound_run() {
    let mut sim = SimBuilder::new().trace(true).build();
    sim.spawn("p", |ctx| ctx.advance(SimTime::from_millis(8)));
    let report = sim.run().unwrap();
    let dag = CausalDag::from_report(&report).unwrap();
    let edits = parse_spec(&dag, "compute=0.5").unwrap();
    // A pure-compute run halves exactly.
    assert_eq!(
        replay(&dag, &edits).unwrap().makespan_ns,
        report.virtual_time.as_nanos() / 2
    );
}

#[test]
fn zeroing_queue_recovers_the_incast_surplus() {
    // Six senders converge on one sink: the in-NIC serializes them, so the
    // recorded makespan carries queueing the counterfactual can remove.
    let mut sim = SimBuilder::new().network(quiet_net()).trace(true).build();
    let n = 6usize;
    sim.spawn("sink", move |ctx| {
        for _ in 0..n {
            let _ = ctx.recv();
        }
    });
    for i in 0..n {
        sim.spawn(&format!("tx{i}"), |ctx| {
            ctx.send(ProcId(0), 0, (), 500_000);
        });
    }
    let report = sim.run().unwrap();
    let dag = CausalDag::from_report(&report).unwrap();
    let base = replay(&dag, &[]).unwrap().makespan_ns;
    assert_eq!(base, report.virtual_time.as_nanos());
    let noq = replay(&dag, &parse_spec(&dag, "queue=0").unwrap())
        .unwrap()
        .makespan_ns;
    assert!(
        noq < base,
        "removing queueing must shrink an incast-bound run ({noq} vs {base})"
    );
    // Zeroing queue into the sink specifically achieves the same thing here
    // (the sink is the only congested destination).
    let local = replay(&dag, &parse_spec(&dag, "queue@dst:sink=0").unwrap())
        .unwrap()
        .makespan_ns;
    assert_eq!(local, noq);
}

#[test]
fn speedups_are_absorbed_by_off_path_slack() {
    // client0 does 1 ms of work; client1 does 5 ms. Speeding up client0
    // cannot move the makespan; speeding up client1 must.
    let mut sim = SimBuilder::new().trace(true).build();
    sim.spawn("short", |ctx| ctx.advance(SimTime::from_millis(1)));
    sim.spawn("long", |ctx| ctx.advance(SimTime::from_millis(5)));
    let report = sim.run().unwrap();
    let dag = CausalDag::from_report(&report).unwrap();
    let base = report.virtual_time.as_nanos();
    let r = replay(&dag, &parse_spec(&dag, "compute@proc:short=0.5").unwrap()).unwrap();
    assert_eq!(r.makespan_ns, base, "off-path speedup must be absorbed");
    let r = replay(&dag, &parse_spec(&dag, "compute@proc:long=0.5").unwrap()).unwrap();
    assert!(r.makespan_ns < base, "on-path speedup must pay off");
}

#[test]
fn battery_report_is_ranked_and_byte_identical_across_same_seed_runs() {
    let mk = || {
        let report = rpc_workload(11);
        let dag = CausalDag::from_report(&report).unwrap();
        let specs = standard_battery(&dag);
        run_battery(&dag, &[], &specs).unwrap()
    };
    let w1 = mk();
    let w2 = mk();
    assert!(
        w1.experiments.len() >= 5,
        "battery too small: {}",
        w1.experiments.len()
    );
    for w in w1.experiments.windows(2) {
        assert!(w[0].delta_ns >= w[1].delta_ns, "experiments not ranked");
    }
    assert_eq!(w1.to_json(), w2.to_json());
    assert_eq!(w1.render(), w2.render());
}
