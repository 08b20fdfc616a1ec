//! Helpers shared by the integration-test binaries (`mod common;`); each
//! binary uses a subset.
#![allow(dead_code)]

use ps2::{RunReport, SimReport};

/// The golden `alerts` row's run: `kddb` LR under SSP with staleness 2 and a
/// 20 ms straggler, on the mode grid's shape.
pub const ALERTS_SPEC: &str =
    "lr --preset kddb --mode ssp:2 --straggler-ms 20 --workers 4 --servers 3 \
     --iters 6 --seed 1 --lr 1";

/// Every virtual-time observable of two runs of one seeded scenario is
/// bit-identical: clock, message and byte totals, each process's counters,
/// the metrics JSON and the SLO burn alerts.
pub fn assert_same_virtual_run(a: &SimReport, b: &SimReport) {
    assert_eq!(a.virtual_time, b.virtual_time);
    assert_eq!((a.total_msgs, a.total_bytes), (b.total_msgs, b.total_bytes));
    assert_eq!(a.procs.len(), b.procs.len());
    for (p, q) in a.procs.iter().zip(&b.procs) {
        assert_eq!(p.name, q.name);
        assert_eq!(
            (p.msgs_sent, p.msgs_recv, p.bytes_sent),
            (q.msgs_sent, q.msgs_recv, q.bytes_sent)
        );
        assert_eq!((p.busy, p.finished_at), (q.busy, q.finished_at));
    }
    assert_eq!(virtual_json(a), virtual_json(b));
    assert_eq!(a.alerts, b.alerts);
}

/// The run's rendered metrics JSON minus `wall_ms`, its single deliberate
/// wall-clock line — every remaining byte is virtual-time and must repeat
/// exactly for the same seed.
pub fn virtual_json(report: &SimReport) -> String {
    RunReport::from_sim(report)
        .to_json()
        .lines()
        .filter(|l| !l.contains("\"wall_ms\""))
        .collect::<Vec<_>>()
        .join("\n")
}
