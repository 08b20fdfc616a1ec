//! Tests for the optional event trace.

use ps2_simnet::{ProcId, SimBuilder, SimTime, TraceEvent};

#[test]
fn trace_records_sends_recvs_compute_and_finishes() {
    let mut sim = SimBuilder::new().trace(true).build();
    let rx = sim.spawn_collect("rx", |ctx| {
        let env = ctx.recv();
        ctx.advance(SimTime::from_millis(2));
        *env.downcast_ref::<u64>()
    });
    sim.spawn("tx", |ctx| {
        ctx.advance(SimTime::from_millis(1));
        ctx.send(ProcId(0), 7, 99u64, 64);
    });
    let report = sim.run().unwrap();
    assert_eq!(rx.take(), 99);

    let sends: Vec<_> = report
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Send { .. }))
        .collect();
    assert_eq!(sends.len(), 1);
    if let TraceEvent::Send {
        src,
        dst,
        tag,
        bytes,
        ..
    } = sends[0]
    {
        assert_eq!((*src, *dst, *tag, *bytes), (ProcId(1), ProcId(0), 7, 64));
    }
    assert!(report.trace.iter().any(|e| matches!(
        e,
        TraceEvent::Recv {
            proc: ProcId(0),
            tag: 7,
            ..
        }
    )));
    assert!(report.trace.iter().any(|e| matches!(
        e,
        TraceEvent::Compute {
            proc: ProcId(0),
            ..
        }
    )));
    let finishes = report
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Finish { .. }))
        .count();
    assert_eq!(finishes, 2);

    // Events come back in virtual-time order.
    let times: Vec<u64> = report.trace.iter().map(|e| e.at().as_nanos()).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn dropped_message_is_attributed_to_sender() {
    let mut sim = SimBuilder::new().trace(true).build();
    let victim = sim.spawn_daemon("victim", |ctx| loop {
        let _ = ctx.recv();
    });
    sim.spawn("killer-sender", move |ctx| {
        ctx.send(victim, 3, 1u64, 32);
        ctx.advance(SimTime::from_millis(1));
        ctx.kill(victim);
        ctx.send(victim, 4, 2u64, 64);
    });
    let report = sim.run().unwrap();

    // Global count and per-proc attribution: the sender (not the dead
    // destination) owns the drop.
    assert_eq!(report.dropped_msgs, 1);
    assert_eq!(report.proc("killer-sender").unwrap().msgs_dropped, 1);
    assert_eq!(report.proc("victim").unwrap().msgs_dropped, 0);

    let drops: Vec<_> = report
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Drop { .. }))
        .collect();
    assert_eq!(drops.len(), 1);
    if let TraceEvent::Drop {
        src,
        dst,
        tag,
        bytes,
        ..
    } = drops[0]
    {
        assert_eq!((*src, *dst, *tag, *bytes), (ProcId(1), victim, 4, 64));
    }
}

#[test]
fn trace_marks_record_labels_at_current_clock() {
    let mut sim = SimBuilder::new().trace(true).build();
    sim.spawn("p", |ctx| {
        ctx.advance(SimTime::from_millis(5));
        ctx.trace_mark("job.submit");
        ctx.trace_mark_with("task.start", 17);
    });
    let report = sim.run().unwrap();
    let submit = report.label_id("job.submit").expect("label interned");
    assert!(report.trace.iter().any(|e| matches!(
        e,
        TraceEvent::Mark {
            at,
            label,
            payload: None,
            ..
        } if *at == SimTime::from_millis(5) && *label == submit
    )));
    let start = report.label_id("task.start").expect("label interned");
    assert!(report.trace.iter().any(|e| matches!(
        e,
        TraceEvent::Mark {
            label,
            payload: Some(17),
            ..
        } if *label == start
    )));
    assert_eq!(report.label_name(submit), "job.submit");
}

#[test]
fn send_and_recv_share_a_run_unique_seq() {
    let mut sim = SimBuilder::new().trace(true).build();
    sim.spawn("rx", |ctx| {
        let _ = ctx.recv();
        let _ = ctx.recv();
    });
    sim.spawn("tx", move |ctx| {
        ctx.send(ProcId(0), 1, (), 32);
        ctx.send(ProcId(0), 2, (), 32);
    });
    let report = sim.run().unwrap();
    let send_seqs: Vec<u64> = report
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Send { seq, .. } => Some(*seq),
            _ => None,
        })
        .collect();
    let recv_seqs: Vec<u64> = report
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Recv { seq, .. } => Some(*seq),
            _ => None,
        })
        .collect();
    assert_eq!(send_seqs.len(), 2);
    assert_ne!(send_seqs[0], send_seqs[1]);
    let mut sorted_sends = send_seqs.clone();
    sorted_sends.sort_unstable();
    let mut sorted_recvs = recv_seqs.clone();
    sorted_recvs.sort_unstable();
    assert_eq!(sorted_sends, sorted_recvs);
}

#[test]
fn op_labels_tag_compute_events() {
    let mut sim = SimBuilder::new().trace(true).build();
    sim.spawn("p", |ctx| {
        ctx.advance(SimTime::from_millis(1));
        ctx.op_label("pull");
        ctx.advance(SimTime::from_millis(2));
        ctx.op_label_clear();
        ctx.advance(SimTime::from_millis(3));
    });
    let report = sim.run().unwrap();
    let pull = report.label_id("pull").expect("label interned");
    let labels: Vec<Option<ps2_simnet::LabelId>> = report
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Compute { label, .. } => Some(*label),
            _ => None,
        })
        .collect();
    assert_eq!(labels, vec![None, Some(pull), None]);
}

#[test]
fn metrics_registry_is_captured_in_report() {
    let mut sim = SimBuilder::new().build();
    sim.spawn("p", |ctx| {
        ctx.metric_add("test.counter", 2);
        ctx.metric_add("test.counter", 3);
        ctx.advance(SimTime::from_millis(1));
        ctx.metric_observe("test.hist", SimTime::from_micros(50));
    });
    let report = sim.run().unwrap();
    assert_eq!(report.metrics.counter("test.counter"), 5);
    let h = report.metrics.hist("test.hist").unwrap();
    assert_eq!(h.count(), 1);
    assert_eq!(h.sum_ns(), 50_000);
}

#[test]
fn metric_calls_do_not_perturb_timing() {
    let run = |instrument: bool| {
        let mut sim = SimBuilder::new().seed(5).build();
        let server = sim.spawn_daemon("s", move |ctx| loop {
            let env = ctx.recv();
            if instrument {
                ctx.metric_add("srv.reqs", 1);
            }
            ctx.reply(&env, (), 8);
        });
        sim.spawn("c", move |ctx| {
            for i in 0..20 {
                let t0 = ctx.now();
                let _ = ctx.call(server, 0, (), 128);
                if instrument {
                    ctx.metric_observe("cli.latency", ctx.now() - t0);
                    ctx.metric_add("cli.reqs", 1);
                }
                ctx.advance(SimTime::from_micros(10 + i));
            }
        });
        sim.run().unwrap().virtual_time
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn procs_named_returns_all_matches() {
    let mut sim = SimBuilder::new().build();
    sim.spawn("worker", |ctx| ctx.advance(SimTime::from_millis(1)));
    sim.spawn("worker", |ctx| ctx.advance(SimTime::from_millis(2)));
    sim.spawn("solo", |ctx| ctx.advance(SimTime::from_millis(3)));
    let report = sim.run().unwrap();
    assert_eq!(report.procs_named("worker").len(), 2);
    assert_eq!(report.procs_named("solo").len(), 1);
    assert_eq!(report.procs_named("missing").len(), 0);
    // Unique lookup still works through `proc`.
    assert_eq!(report.proc("solo").unwrap().busy, SimTime::from_millis(3));
}

#[test]
#[should_panic(expected = "not unique")]
#[cfg(debug_assertions)]
fn proc_debug_asserts_name_uniqueness() {
    let mut sim = SimBuilder::new().build();
    sim.spawn("dup", |ctx| ctx.advance(SimTime::from_millis(1)));
    sim.spawn("dup", |ctx| ctx.advance(SimTime::from_millis(2)));
    let report = sim.run().unwrap();
    let _ = report.proc("dup");
}

#[test]
fn tracing_is_off_by_default_and_costs_nothing() {
    let mut sim = SimBuilder::new().build();
    sim.spawn("p", |ctx| {
        let me = ctx.id();
        ctx.send(me, 0, (), 8);
        let _ = ctx.recv();
        ctx.advance(SimTime::from_millis(1));
    });
    let report = sim.run().unwrap();
    assert!(report.trace.is_empty());
}

#[test]
fn traced_and_untraced_runs_have_identical_timing() {
    // Marks, payload marks and op labels only run when tracing is on, so
    // this also pins down that the tracing instrumentation itself (label
    // interning included) never moves a clock.
    let run = |trace: bool| {
        let mut sim = SimBuilder::new().seed(9).trace(trace).build();
        let server = sim.spawn_daemon("s", |ctx| loop {
            let env = ctx.recv();
            ctx.op_label("serve");
            ctx.advance(SimTime::from_micros(3));
            ctx.op_label_clear();
            ctx.reply(&env, (), 8);
        });
        sim.spawn("c", move |ctx| {
            for i in 0..20 {
                ctx.trace_mark_with("iter", i);
                let _ = ctx.call(server, 0, (), 128);
                ctx.advance(SimTime::from_micros(10));
            }
        });
        let report = sim.run().unwrap();
        let stats: Vec<(String, u64, u64)> = report
            .procs
            .iter()
            .map(|p| (p.name.clone(), p.finished_at.as_nanos(), p.busy.as_nanos()))
            .collect();
        (report.virtual_time, stats)
    };
    assert_eq!(run(false), run(true));
}
