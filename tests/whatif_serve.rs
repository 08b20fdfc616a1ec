//! Causal analysis over the PR 9 steppable-agent runtime: a `serve-*`
//! scenario's critical path must traverse agent procs (the PS server
//! daemons and the aggregate client agents hold no OS threads), and the
//! what-if engine's replay of the *unmodified* DAG must reproduce the
//! measured makespan byte-for-byte — on agent-scheduled traffic, not just
//! thread-proc workloads. Also covers the offline round trip: a trace file
//! exported with the embedded `ps2-dag-v1` section parses back into a DAG
//! whose replay and battery agree with the in-process ones.

use ps2::ml::serve::{run_serve, serve_spec, ServeSummary};
use ps2::simnet::{
    export_trace_full, replay, run_battery, slo_json, standard_battery, CausalAnalysis, CausalDag,
    OpTails, SimBuilder, SimReport, SimTime,
};
use ps2::tracefile::whatif_input;

/// `serve-kddb`, shrunk to dev-machine size but keeping the shape: steppable
/// server daemons, aggregate open-loop client agents, one coordinator
/// thread proc.
fn serve_run(seed: u64) -> (ServeSummary, SimReport) {
    let mut spec = serve_spec("serve-kddb").expect("serve-kddb is a preset");
    spec.rows = 2_000;
    spec.servers = 4;
    spec.agents = 2;
    // Sparse enough that a client agent is idle between replies: a blocked
    // recv is what makes the backward walk hop across a message edge into
    // the server daemons.
    spec.users_per_agent = 4;
    spec.user_period = SimTime::from_millis(1);
    spec.duration = SimTime::from_millis(20);
    run_serve(
        SimBuilder::new().seed(seed).trace(true).reqtrace(true),
        &spec,
    )
}

#[test]
fn critical_path_traverses_agent_procs() {
    let (summary, report) = serve_run(42);
    assert!(summary.completed > 0, "the scenario must serve pulls");
    let a = CausalAnalysis::from_report(&report).unwrap();
    assert_eq!(
        a.makespan, report.virtual_time,
        "critical path must span the whole serve run"
    );
    // The walk must pass through steppable agents, not just the coordinator
    // thread proc: at least one server daemon and one client agent carry
    // critical-path time.
    let critical_on = |prefix: &str| {
        a.procs
            .iter()
            .filter(|p| p.name.starts_with(prefix))
            .map(|p| p.critical_ns)
            .sum::<u64>()
    };
    assert!(
        critical_on("ps-server-") > 0,
        "server agent daemons must appear on the critical path: {:?}",
        a.procs
            .iter()
            .map(|p| (&p.name, p.critical_ns))
            .collect::<Vec<_>>()
    );
    assert!(
        critical_on("serve-clients-") > 0,
        "client agents must appear on the critical path"
    );
    // And the path's own segments name agent procs, not only the summaries.
    let on_path: std::collections::BTreeSet<&str> = a
        .segments
        .iter()
        .map(|s| a.procs[s.proc].name.as_str())
        .collect();
    assert!(
        on_path.iter().any(|n| n.starts_with("serve-clients-")),
        "path segments must visit an agent proc: {on_path:?}"
    );
}

#[test]
fn unmodified_replay_reproduces_the_serve_makespan() {
    let (_, report) = serve_run(42);
    let dag = CausalDag::from_report(&report).unwrap();
    let r = replay(&dag, &[]).unwrap();
    assert_eq!(
        r.makespan_ns,
        report.virtual_time.as_nanos(),
        "identity replay over agent-scheduled traffic must be exact"
    );
}

#[test]
fn whatif_round_trips_through_the_trace_file() {
    let run = |seed| {
        let (_, report) = serve_run(seed);
        let a = CausalAnalysis::from_report(&report).unwrap();
        let dag = CausalDag::from_report(&report).unwrap();
        let reqs = report.reqs.as_ref().expect("reqtrace was enabled");
        let slo = slo_json(reqs, &[], &[]);
        let json = export_trace_full(&report, Some(&a), &[], Some(&slo), Some(&dag));
        (report, dag, json)
    };
    let (report, dag, json) = run(42);

    // Offline parse of the embedded ps2-dag-v1 section agrees with the
    // in-process DAG: identity replay lands on the measured makespan and
    // the standard battery replays to identical numbers.
    let (parsed, tails) = whatif_input(&json).unwrap();
    assert_eq!(parsed.makespan_ns, report.virtual_time.as_nanos());
    let r = replay(&parsed, &[]).unwrap();
    assert_eq!(r.makespan_ns, report.virtual_time.as_nanos());
    assert!(
        !tails.is_empty(),
        "the slo section must yield per-op tails for estimation"
    );
    assert_eq!(
        tails,
        OpTails::from_reqs(report.reqs.as_ref().unwrap()),
        "the file's tails are the live run's"
    );

    let in_proc = run_battery(
        &dag,
        &OpTails::from_reqs(report.reqs.as_ref().unwrap()),
        &standard_battery(&dag),
    )
    .unwrap();
    let offline = run_battery(&parsed, &tails, &standard_battery(&parsed)).unwrap();
    assert!(
        in_proc.experiments.len() >= 5,
        "the standard battery must rank at least 5 experiments, got {}",
        in_proc.experiments.len()
    );
    assert_eq!(
        in_proc.to_json(),
        offline.to_json(),
        "offline replay from the trace file must match the in-process report"
    );

    // Determinism: a second same-seed run produces a byte-identical sidecar.
    let (_, dag2, json2) = run(42);
    assert_eq!(
        json, json2,
        "same-seed trace exports must be byte-identical"
    );
    let again = run_battery(
        &dag2,
        &OpTails::from_reqs(report.reqs.as_ref().unwrap()),
        &standard_battery(&dag2),
    )
    .unwrap();
    assert_eq!(in_proc.to_json(), again.to_json());
}
