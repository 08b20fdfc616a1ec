//! The run report's metric maps: which names appear in them and in what
//! order. Every golden digest and benchmark fingerprint folds the maps in
//! iteration order, so both are part of a run's bytes.

use ps2_simnet::{SimBuilder, SimCtx, SimReport, SimTime};

/// Run one thread proc per recorder, in order.
fn run(recorders: Vec<fn(&mut SimCtx)>) -> SimReport {
    let mut sim = SimBuilder::new().build();
    for (i, f) in recorders.into_iter().enumerate() {
        sim.spawn(&format!("p{i}"), f);
    }
    sim.run().expect("metrics sim failed")
}

fn counter_names(r: &SimReport) -> Vec<&str> {
    r.metrics.counters().map(|(k, _)| k).collect()
}

fn hist_names(r: &SimReport) -> Vec<&str> {
    r.metrics.hists().map(|(k, _)| k).collect()
}

#[test]
fn a_counter_recorded_only_with_zero_is_reported_as_zero() {
    let r = run(vec![|ctx| {
        ctx.metric_add("zero", 0);
        ctx.metric_add("zero", 0);
    }]);
    let counters: Vec<(&str, u64)> = r.metrics.counters().collect();
    assert_eq!(counters, [("zero", 0)]);
    assert_eq!(hist_names(&r), Vec::<&str>::new());
}

#[test]
fn a_name_used_as_counter_and_histogram_appears_in_both_maps() {
    let r = run(vec![|ctx| {
        ctx.metric_add("both", 3);
        ctx.metric_observe("both", SimTime(40));
    }]);
    assert_eq!(r.metrics.counter("both"), 3);
    let h = r.metrics.hist("both").expect("histogram recorded");
    assert_eq!((h.count(), h.sum_ns()), (1, 40));
    assert_eq!(counter_names(&r), ["both"]);
    assert_eq!(hist_names(&r), ["both"]);
}

#[test]
fn the_report_lists_names_in_name_order_whatever_the_first_record_order() {
    let r = run(vec![
        |ctx| {
            ctx.metric_add("m.b", 1);
            ctx.metric_observe("h.z", SimTime(5));
            ctx.advance(SimTime(10));
            ctx.metric_add("m.a", 2);
        },
        |ctx| {
            ctx.metric_add("m.c", 3);
            ctx.metric_observe("h.y", SimTime(6));
            ctx.metric_add("a.first", 4);
            ctx.metric_observe("h.x", SimTime(7));
        },
    ]);
    let counters: Vec<(&str, u64)> = r.metrics.counters().collect();
    assert_eq!(
        counters,
        [("a.first", 4), ("m.a", 2), ("m.b", 1), ("m.c", 3)]
    );
    assert_eq!(hist_names(&r), ["h.x", "h.y", "h.z"]);
}

#[test]
fn a_handle_resolved_but_never_recorded_is_not_reported() {
    let r = run(vec![|ctx| {
        let idle = ctx.counter("idle");
        assert_eq!(ctx.counter("idle"), idle, "a name resolves to one handle");
        ctx.hist("never");
        let (busy, seen) = (ctx.counter("busy"), ctx.hist("seen"));
        ctx.add(busy, 2);
        ctx.observe(seen, SimTime(9));
    }]);
    assert_eq!(counter_names(&r), ["busy"]);
    assert_eq!(hist_names(&r), ["seen"]);
}
