//! Tests for `simnet::causal` critical-path analysis and the Perfetto
//! exporter.

use ps2_simnet::json::parse_json;
use ps2_simnet::{
    export_trace_full, CausalAnalysis, CausalDag, CausalError, NetConfig, PathCategory, ProcId,
    SimBuilder, SimReport, SimTime,
};

fn quiet_net() -> NetConfig {
    NetConfig {
        bandwidth_bps: 1e9,
        latency: SimTime::from_micros(100),
        per_msg_overhead: SimTime::ZERO,
        loopback: SimTime::from_micros(1),
    }
}

/// The analysis must partition [0, makespan] exactly: contiguous segments
/// from zero to the makespan, and category sums equal to it.
fn assert_partitions(report: &SimReport, a: &CausalAnalysis) {
    assert_eq!(a.makespan, report.virtual_time);
    assert_eq!(a.category_total_ns(), report.virtual_time.as_nanos());
    assert!(!a.segments.is_empty());
    assert_eq!(a.segments[0].start, SimTime::ZERO);
    assert_eq!(a.segments.last().unwrap().end, a.makespan);
    for w in a.segments.windows(2) {
        assert_eq!(w[0].end, w[1].start, "segments must be contiguous");
    }
}

#[test]
fn pure_compute_run_is_all_compute() {
    let mut sim = SimBuilder::new().trace(true).build();
    sim.spawn("p", |ctx| ctx.advance(SimTime::from_millis(7)));
    let report = sim.run().unwrap();
    let a = CausalAnalysis::from_report(&report).unwrap();
    assert_partitions(&report, &a);
    assert_eq!(a.compute_ns, SimTime::from_millis(7).as_nanos());
    assert_eq!(a.network_ns + a.queue_ns + a.idle_ns, 0);
}

#[test]
fn blocked_receive_crosses_the_message_edge_to_the_sender() {
    // Sender computes 1 ms, then sends; the receiver blocks from t=0. The
    // path must be: sender compute [0, 1ms] -> uncontended transit
    // (latency + wire) -> receiver compute. No queue, no idle.
    let net = quiet_net();
    let wire = net.wire_time(1000);
    let latency = net.latency;
    let mut sim = SimBuilder::new().network(net).trace(true).build();
    sim.spawn("rx", |ctx| {
        let _ = ctx.recv();
        ctx.advance(SimTime::from_millis(2));
    });
    sim.spawn("tx", |ctx| {
        ctx.advance(SimTime::from_millis(1));
        ctx.send(ProcId(0), 0, (), 1000);
    });
    let report = sim.run().unwrap();
    let a = CausalAnalysis::from_report(&report).unwrap();
    assert_partitions(&report, &a);
    assert_eq!(a.idle_ns, 0);
    assert_eq!(a.queue_ns, 0);
    assert_eq!(a.network_ns, (latency + wire).as_nanos());
    assert_eq!(
        a.compute_ns,
        (SimTime::from_millis(1) + SimTime::from_millis(2)).as_nanos()
    );
    // The path visits both processes.
    assert!(a.procs[0].critical_ns > 0);
    assert!(a.procs[1].critical_ns > 0);
    // Categories in forward order: tx compute, transit, rx compute.
    let cats: Vec<PathCategory> = a.segments.iter().map(|s| s.category).collect();
    assert_eq!(
        cats,
        vec![
            PathCategory::Compute,
            PathCategory::Network,
            PathCategory::Compute
        ]
    );
}

#[test]
fn incast_contention_shows_up_as_queue_time() {
    // Many senders fire large messages at one sink at t=0: the sink's
    // in-NIC serializes them, so later arrivals wait far longer than the
    // ideal transit — the surplus must be attributed as queue.
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
    let a = CausalAnalysis::from_report(&report).unwrap();
    assert_partitions(&report, &a);
    assert!(a.queue_ns > 0, "incast must surface as queue time");
    assert!(a.network_ns > 0);
}

#[test]
fn deadline_waits_are_idle_time() {
    let mut sim = SimBuilder::new().network(quiet_net()).trace(true).build();
    sim.spawn("poller", |ctx| {
        // Nothing ever arrives: both waits run to their deadlines.
        assert!(ctx.recv_timeout(SimTime::from_millis(3)).is_none());
        assert!(ctx.recv_timeout(SimTime::from_millis(2)).is_none());
        ctx.advance(SimTime::from_millis(1));
    });
    let report = sim.run().unwrap();
    let a = CausalAnalysis::from_report(&report).unwrap();
    assert_partitions(&report, &a);
    assert_eq!(a.idle_ns, SimTime::from_millis(5).as_nanos());
    assert_eq!(a.compute_ns, SimTime::from_millis(1).as_nanos());
}

#[test]
fn op_labels_split_critical_path_compute() {
    let mut sim = SimBuilder::new().trace(true).build();
    sim.spawn("p", |ctx| {
        ctx.op_label("pull");
        ctx.advance(SimTime::from_millis(2));
        ctx.op_label("push");
        ctx.advance(SimTime::from_millis(3));
        ctx.op_label_clear();
        ctx.advance(SimTime::from_millis(4));
    });
    let report = sim.run().unwrap();
    let a = CausalAnalysis::from_report(&report).unwrap();
    assert_partitions(&report, &a);
    assert_eq!(
        a.compute_by_label.get("pull").copied(),
        Some(SimTime::from_millis(2).as_nanos())
    );
    assert_eq!(
        a.compute_by_label.get("push").copied(),
        Some(SimTime::from_millis(3).as_nanos())
    );
    assert_eq!(
        a.compute_by_label.get("(unlabeled)").copied(),
        Some(SimTime::from_millis(4).as_nanos())
    );
}

#[test]
fn analysis_requires_a_trace() {
    let mut sim = SimBuilder::new().build();
    sim.spawn("p", |ctx| ctx.advance(SimTime::from_millis(1)));
    let report = sim.run().unwrap();
    assert!(matches!(
        CausalAnalysis::from_report(&report),
        Err(CausalError::NoTrace)
    ));
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
            for i in 0..5u64 {
                ctx.trace_mark_with("iter", i);
                let _ = ctx.call(server, 1, (), 4096);
                ctx.charge_flops(20_000 * (c + 1) as u64);
            }
        });
    }
    sim.run().unwrap()
}

#[test]
fn analysis_and_export_are_byte_identical_across_same_seed_runs() {
    let r1 = rpc_workload(11);
    let r2 = rpc_workload(11);
    let a1 = CausalAnalysis::from_report(&r1).unwrap();
    let a2 = CausalAnalysis::from_report(&r2).unwrap();
    assert_partitions(&r1, &a1);
    assert_eq!(a1.render(), a2.render());
    assert_eq!(export(&r1), export(&r2));
}

/// The full export: critical-path track plus the retained DAG.
fn export(r: &SimReport) -> String {
    let dag = CausalDag::from_report(r).unwrap();
    export_trace_full(
        r,
        Some(&dag.critical_path().unwrap()),
        &[],
        None,
        Some(&dag),
    )
}

#[test]
fn different_seeds_still_partition_exactly() {
    for seed in [1u64, 2, 3, 4] {
        let r = rpc_workload(seed);
        let a = CausalAnalysis::from_report(&r).unwrap();
        assert_partitions(&r, &a);
    }
}

#[test]
fn perfetto_export_contains_tracks_flows_and_analysis() {
    let r = rpc_workload(7);
    let a = CausalAnalysis::from_report(&r).unwrap();
    let json = export(&r);
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"thread_name\""));
    assert!(json.contains("\"name\":\"server\""));
    assert!(json.contains("\"name\":\"critical-path\""));
    // Flow events pair sends and receives.
    assert!(json.contains("\"ph\":\"s\""));
    assert!(json.contains("\"ph\":\"f\""));
    // Marks carry their payloads.
    assert!(json.contains("\"name\":\"iter\""));
    assert!(json.contains("\"payload\":4"));
    // Labeled compute slices.
    assert!(json.contains("\"name\":\"serve\""));
    // The embedded DAG section rebuilds the same critical path.
    let doc = parse_json(&json).unwrap();
    let dag = CausalDag::from_json(doc.get("ps2").and_then(|p| p.get("dag")).unwrap()).unwrap();
    assert_eq!(dag.critical_path().unwrap().render(), a.render());
}
