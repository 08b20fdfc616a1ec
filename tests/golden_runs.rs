//! The determinism gate: `tests/golden_runs.txt` pins a grid of seeded
//! simulations to the last virtual-time byte, one row per run:
//!
//! ```text
//! key | virtual_ns total_msgs total_bytes <exact columns> digest=<hex>
//! ```
//!
//! A row's key is its run's canonical [`RunSpec`] string, so the row is a
//! `ps2-run` command line, and this file builds the run by parsing it. The
//! protocol probes no spec expresses are keyed `name seed` and built by hand.
//!
//! `digest` is FNV-1a-64 over the run report's JSON (`wall_ms` line dropped),
//! i.e. every counter, gauge and histogram, extended with the bits of every
//! `(time, loss)` point of the run's loss curve, and on the `alerts` row then
//! with every SLO burn alert's fields. A row that differs in `digest` alone
//! means a metric or a loss moved while the headline numbers held.
//!
//! Each test rewrites the fresh table under `CARGO_TARGET_TMPDIR`; a change
//! *meant* to move virtual time is blessed by copying that file over the
//! golden one (the failure prints the `cp`) — never by editing rows. One test
//! per group, so libtest overlaps them.

use std::sync::Mutex;

use ps2::data::SparseDatasetGen;
use ps2::dataflow::{deploy_executors, deploy_shuffle_services, SparkContext};
use ps2::ml::lr::{train_lr, LrBackend, LrConfig};
use ps2::ml::optim::Optimizer;
use ps2::ps::{deploy_ps, MatrixHandle, PsMaster};
use ps2::simnet::{Alert, ProcId, SloObjective};
use ps2::slo::{preset_slos, SLO_WINDOW};
use ps2::{
    run_ps2_with, ClusterSpec, InitKind, Partitioning, Ps2Context, RunOutput, RunSpec, SimBuilder,
    SimCtx, SimReport, SimTime,
};

mod common;
use common::{virtual_json, ALERTS_SPEC};

const GOLDEN: &str = include_str!("golden_runs.txt");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_runs.txt");
const FRESH_PATH: &str = concat!(env!("CARGO_TARGET_TMPDIR"), "/golden_runs.txt");

/// The fresh table: starts as the golden lines, and each group swaps in the
/// rows it just produced (matched on the key), so the file is a complete
/// table whichever subset of the tests ran.
static FRESH: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Hold one group's fresh rows against the golden table.
fn check(rows: Vec<String>) {
    let mut diff = String::new();
    {
        let mut table = FRESH.lock().expect("no group panics holding the table");
        if table.is_empty() {
            *table = GOLDEN.lines().map(str::to_string).collect();
        }
        for row in rows {
            let key_len = row.find(" | ").expect("key | columns") + 3;
            match table.iter_mut().find(|l| l.starts_with(&row[..key_len])) {
                Some(golden) if *golden == row => {}
                Some(golden) => {
                    diff += &format!("  golden {golden}\n  fresh  {row}\n");
                    *golden = row;
                }
                None => {
                    diff += &format!("  golden (no such row)\n  fresh  {row}\n");
                    table.push(row);
                }
            }
        }
        std::fs::write(FRESH_PATH, table.join("\n") + "\n").expect("write the fresh table");
    }
    assert!(
        diff.is_empty(),
        "virtual-time results moved against tests/golden_runs.txt:\n{diff}\
         Only `digest` differs? A counter, gauge, histogram or loss changed: \
         diff `ps2-run <key> --metrics-json` output across the two commits.\n\
         If the change is intended, run the whole of `cargo test --test golden_runs` and bless:\n  \
         cp {FRESH_PATH} {GOLDEN_PATH}\n"
    );
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Render one row: `curve` and then `tail` (the `alerts` row's alert list)
/// are folded into the digest after the report.
fn row(key: &str, report: &SimReport, exact: &str, curve: &[(f64, f64)], tail: &[u8]) -> String {
    let mut digest = fnv1a(0xcbf2_9ce4_8422_2325, virtual_json(report).as_bytes());
    for &(secs, loss) in curve {
        digest = fnv1a(digest, &secs.to_bits().to_le_bytes());
        digest = fnv1a(digest, &loss.to_bits().to_le_bytes());
    }
    digest = fnv1a(digest, tail);
    format!(
        "{key} | {} {} {} {exact} digest={digest:016x}",
        report.virtual_time.as_nanos(),
        report.total_msgs,
        report.total_bytes
    )
}

/// Run `spec` and render its row, keyed by the canonical spec and with its
/// loss curve in the digest; `exact` reads the group's exact columns.
fn spec_row(spec: &str, exact: impl FnOnce(&RunOutput) -> String) -> String {
    let spec: RunSpec = spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"));
    let out = spec.run(SimBuilder::new());
    let key = spec.to_string();
    row(&key, &out.report, &exact(&out), &out.trace.points, &[])
}

/// A protocol probe's row: keyed `name seed`, with no curve.
fn probe_row(name: &str, seed: u64, report: &SimReport, exact: &str) -> String {
    row(&format!("{name} {seed}"), report, exact, &[], &[])
}

fn envelopes(report: &SimReport) -> String {
    let envelopes = report.metrics.counter("ps.client.envelopes");
    format!("envelopes={envelopes}")
}

/// Makespan-shaped training runs through the dataflow engine: 4 workers ×
/// 4 servers × 4 iterations, seeds 1–3. Full-batch L-BFGS gradients would
/// dominate the test's wall time; a fixed fraction keeps the cell cheap and
/// still exercises both round trips of an iteration: the envelope carrying
/// the y zip and the Gram dots, and the step zip. Four iterations do not wrap
/// the history ring.
#[test]
fn training_grid() {
    let mut rows = Vec::new();
    for run in [
        "lr --preset kddb",
        "svm --preset kddb",
        "lr --preset kdd12",
        "lbfgs --preset kdd12 --fraction 0.25",
    ] {
        for seed in 1..=3 {
            let spec = format!("{run} --workers 4 --servers 4 --iters 4 --seed {seed}");
            rows.push(spec_row(&spec, |out| {
                let metrics = &out.report.metrics;
                let train_ns = metrics.hist("ml.iteration").map_or(0, |h| h.sum_ns());
                let iterations = metrics.counter("ml.iterations");
                format!("train_ns={train_ns} iterations={iterations}")
            }));
        }
    }
    check(rows);
}

/// Convergence-shaped runs of the Spark-free worker loop under each
/// consistency mode: 4 workers × 3 servers × 6 iterations at learning rate 1,
/// with a mild fixed straggler so the three modes differ in pacing; seeds
/// 1–2.
#[test]
fn mode_grid() {
    let mut rows = Vec::new();
    for preset in ["kddb", "kdd12"] {
        for algo in ["lr", "svm"] {
            for mode in ["bsp", "ssp:2", "async"] {
                for seed in 1..=2 {
                    let spec = format!(
                        "{algo} --preset {preset} --mode {mode} --straggler-ms 20 \
                         --workers 4 --servers 3 --iters 6 --seed {seed} --lr 1"
                    );
                    rows.push(spec_row(&spec, |out| {
                        let iterations = out.report.metrics.counter("ml.iterations");
                        let loss_micro = (out.trace.final_loss() * 1e6).round() as i64;
                        format!("iterations={iterations} final_loss_micro={loss_micro}")
                    }));
                }
            }
        }
    }
    check(rows);
}

/// SLO burns judged over [`ALERTS_SPEC`]'s run in [`SLO_WINDOW`]s: the
/// `kddb` preset SLOs plus one unattainable 1 µs pull p999 that must burn.
/// `alerts` is the burn count; each alert's fields are folded into the
/// digest.
#[test]
fn alerts() {
    let spec: RunSpec = ALERTS_SPEC.parse().expect("the alerts spec parses");
    let mut objectives = preset_slos(spec.preset());
    objectives.push(SloObjective::latency_p999(
        "unattainable.pull.p999",
        "ps.client.op.pull.latency",
        SimTime::from_micros(1),
    ));
    let out = spec.run(SimBuilder::new().timeseries(SLO_WINDOW).slo(objectives));
    let alerts = &out.report.alerts;
    let mut tail = String::new();
    for a in alerts {
        let (at, window, subject, value) = (a.at.as_nanos(), a.window, &a.subject, a.value_milli);
        tail += &format!("{} {at} {window} {subject} {value}\n", Alert::LABEL);
    }
    let exact = format!("alerts={}", alerts.len());
    let (report, curve) = (&out.report, &out.trace.points);
    let row = row("alerts 1", report, &exact, curve, tail.as_bytes());
    check(vec![row]);
}

/// `envelopes` pins request coalescing: 4 CREATE + 36 per iteration (16
/// pull, 16 push, 4 batched updates).
#[test]
fn lr_adam() {
    let spec = "lr --rows 19000 --dim 290000 --nnz 31 --optimizer adam \
                --workers 4 --servers 4 --iters 3 --lr 1";
    check(vec![spec_row(spec, |out| envelopes(&out.report))]);
}

/// One shipped serving preset under seed 1: open-loop pulls against a fleet
/// of steppable server agents.
fn serve_row(preset: &str) -> String {
    spec_row(&format!("serve --preset {preset} --seed 1"), |out| {
        let s = out.serve.expect("a serving run");
        assert_eq!(s.issued, s.completed, "{preset}: unanswered pulls");
        let (pulls, p99, p999) = (s.completed, s.p99_ns, s.p999_ns);
        format!("pulls={pulls} p99_ns={p99} p999_ns={p999}")
    })
}

#[test]
fn serve_kddb() {
    check(vec![serve_row("serve-kddb")]);
}

#[test]
fn serve_kdd12() {
    check(vec![serve_row("serve-kdd12")]);
}

/// The PS paths no other group runs, each on a tiny shape at seed 1 on the
/// 4 × 4 cluster: the LR baselines' dense row access, the MLlib\* ring
/// AllReduce (no PS), the stateful optimizers' server-side zips, GBDT's
/// `zip_map` / `zip_argmax`, LDA's block and per-key access and its MLlib
/// driver gather, FM's blocks and DeepWalk's batched envelopes. Then
/// the probes no spec expresses: the MLlib baseline's driver-side gradient
/// aggregation with more partitions than executors (`lr-mllib`, no PS),
/// misaligned DCV ops and row-plan pulls. `envelopes`
/// (`ps.client.envelopes`) pins how many requests each op fanned out to.
#[test]
fn backends() {
    let tiny = "--workers 4 --servers 4 --seed 1";
    let lr = format!("lr --rows 2000 --dim 5000 --nnz 10 --iters 2 {tiny}");
    let gbdt = format!("gbdt --rows 1000 --dim 30 --nnz 10 --trees 1 --depth 3 --bins 8 {tiny}");
    let lda = format!("lda --docs 200 --vocab 500 --topics 4 --iters 2 {tiny}");
    let dw = format!("deepwalk --vertices 200 --walks 100 --embedding-dim 8 --iters 2 {tiny}");
    let specs = [
        format!("{lr} --backend petuum"),
        format!("{lr} --backend ps"),
        format!("{lr} --backend distml"),
        format!("{lr} --backend mllib-star"),
        format!("{lr} --optimizer adagrad"),
        format!("{lr} --optimizer rmsprop"),
        format!("{lr} --optimizer ftrl"),
        gbdt.clone(),
        format!("{gbdt} --backend xgboost"),
        lda.clone(),
        format!("{lda} --backend petuum"),
        format!("{lda} --backend glint"),
        format!("{lda} --backend spark"),
        format!("fm --rows 1000 --dim 2000 --nnz 10 --factors 4 --iters 2 {tiny}"),
        dw.clone(),
        format!("{dw} --backend ps"),
    ];
    let mut rows: Vec<String> = specs
        .iter()
        .map(|spec| spec_row(spec, |out| envelopes(&out.report)))
        .collect();

    let seed = 1;
    let (workers, servers) = (4, 4);
    let cluster = || ClusterSpec { workers, servers };
    // P = 16 partitions on E = 4 executors.
    let mllib = move |ctx: &mut SimCtx, ps2: &mut Ps2Context| {
        let gen = SparseDatasetGen::new(2_000, 5_000, 10, 16, seed);
        let cfg = LrConfig::new(gen, Optimizer::Sgd, 2);
        train_lr(ctx, ps2, &cfg, LrBackend::SparkDriver);
    };
    // Figure 4's misaligned pair: a cross-server dot, the pull/push
    // fallback of `iaxpy`, and `copy_from`'s cross-server element op.
    let misaligned = |ctx: &mut SimCtx, ps2: &mut Ps2Context| {
        let a = ps2.dense_dcv(ctx, 10_000, 2);
        let b = ps2.dense_dcv_misaligned(ctx, 10_000, 1);
        a.fill(ctx, 1.0);
        b.fill(ctx, 2.0);
        assert_eq!(a.dot(ctx, &b), 20_000.0);
        a.iaxpy(ctx, &b, 0.5);
        a.derive(ctx).copy_from(ctx, &b);
    };
    let builder = || SimBuilder::new().seed(seed);
    let mllib = run_ps2_with(builder(), cluster(), mllib).1;
    let misaligned = run_ps2_with(builder(), cluster(), misaligned).1;
    let probes = [("lr-mllib", mllib), ("dcv-misaligned", misaligned)];
    for (name, report) in probes.into_iter().chain([("row-pull", row_pull(seed))]) {
        rows.push(probe_row(name, seed, &report, &envelopes(&report)));
    }
    check(rows);
}

/// `ablation_partitioning`'s body on a row plan: 4 workers concurrently
/// pull one 4 000-wide row, which sits whole on one of the 4 servers.
fn row_pull(seed: u64) -> SimReport {
    let (servers, workers, dim) = (4, 4, 4_000);
    let mut sim = SimBuilder::new().seed(seed).build();
    let (srv, storage) = deploy_ps(&mut sim, servers, 500e6);
    let worker_ids: Vec<ProcId> = (0..workers).map(|w| ProcId(servers + 2 + w)).collect();
    sim.spawn("coordinator", move |ctx| {
        let mut m = PsMaster::new(srv, storage);
        let h = m.create_matrix(ctx, dim, 1, Partitioning::Row, InitKind::Zero);
        for &w in &worker_ids {
            ctx.send(w, 7, h.clone(), 64);
        }
    });
    for i in 0..workers {
        sim.spawn(&format!("worker-{i}"), move |ctx| {
            let h: MatrixHandle = ctx.recv().downcast();
            assert_eq!(h.pull_row(ctx, 0), vec![0.0; dim as usize]);
        });
    }
    sim.run().expect("row-pull sim failed")
}

/// The two services no other group drives, at seed 1: the shuffle service
/// (`envelopes` = `shuffle.fabric.envelopes`, puts plus fetches) and
/// checkpoint storage (`recoveries` = `ps.fleet.recoveries`), the latter
/// once behind a blocking pull and once behind a split-phase push's hole
/// (`timeouts` = `ps.client.timeouts`).
#[test]
fn services() {
    let seed = 1;
    let report = shuffle(seed);
    let envelopes = report.metrics.counter("shuffle.fabric.envelopes");
    let exact = format!("envelopes={envelopes}");
    let mut rows = vec![probe_row("shuffle", seed, &report, &exact)];
    let report = recovery(seed);
    let recoveries = report.metrics.counter("ps.fleet.recoveries");
    let exact = format!("recoveries={recoveries}");
    rows.push(probe_row("recovery", seed, &report, &exact));
    let report = push_hole(seed);
    let recoveries = report.metrics.counter("ps.fleet.recoveries");
    let timeouts = report.metrics.counter("ps.client.timeouts");
    let exact = format!("recoveries={recoveries} timeouts={timeouts}");
    rows.push(probe_row("push-hole", seed, &report, &exact));
    check(rows);
}

/// `reduce_by_key` then `group_by_key` over 4 executors and 4 shuffle
/// services: 8 map partitions of 97 keys.
fn shuffle(seed: u64) -> SimReport {
    let mut sim = SimBuilder::new().seed(seed).build();
    let executors = deploy_executors(&mut sim, 4);
    let services = deploy_shuffle_services(&mut sim, 4);
    sim.spawn("driver", move |ctx| {
        let mut sc = SparkContext::new(executors);
        let pairs: Vec<(u64, u64)> = (0..2_000u64).map(|i| (i % 97, i)).collect();
        let rdd = sc.parallelize(ctx, pairs, 8);
        let sums = sc
            .reduce_by_key(ctx, &services, &rdd, |a, b| a + b)
            .expect("reduce_by_key");
        let total: u64 = sc.collect(ctx, &sums).iter().map(|(_, s)| s).sum();
        assert_eq!(total, (0..2_000u64).sum::<u64>());
        let groups = sc.group_by_key(ctx, &services, &rdd).expect("group_by_key");
        assert_eq!(sc.count(ctx, &groups), 97);
    });
    sim.run().expect("shuffle sim failed")
}

/// A push, `checkpoint_all`, server 1 killed, then a pull through its slot:
/// the pull times out, the fleet respawns the server and `RESTORE`s it from
/// storage, and the retried pull reads the checkpointed values.
fn recovery(seed: u64) -> SimReport {
    let mut sim = SimBuilder::new().seed(seed).build();
    let (servers, storage) = deploy_ps(&mut sim, 4, 500e6);
    sim.spawn("coordinator", move |ctx| {
        let victim = servers[1];
        let mut m = PsMaster::new(servers, storage);
        let h = m.create_matrix(ctx, 4_000, 1, Partitioning::Column, InitKind::Zero);
        let pairs = [(10, 1.0), (1_500, 2.0), (3_999, 3.0)];
        h.push_sparse(ctx, 0, &pairs);
        m.checkpoint_all(ctx);
        ctx.kill(victim);
        assert_eq!(
            h.pull_cols(ctx, 0, &[10, 1_500, 3_999]),
            vec![1.0, 2.0, 3.0]
        );
        assert_eq!((m.recoveries(), m.silent_reinits()), (1, 0));
    });
    sim.run().expect("recovery sim failed")
}

/// `checkpoint_all`, server 1 killed, then a split-phase push over all four
/// slots: the sub-request to the dead server is a hole that `push_wait`
/// settles through recovery, and the pull reads every delta back.
fn push_hole(seed: u64) -> SimReport {
    let mut sim = SimBuilder::new().seed(seed).build();
    let (servers, storage) = deploy_ps(&mut sim, 4, 500e6);
    sim.spawn("coordinator", move |ctx| {
        let victim = servers[1];
        let mut m = PsMaster::new(servers, storage);
        let h = m.create_matrix(ctx, 4_000, 1, Partitioning::Column, InitKind::Zero);
        m.checkpoint_all(ctx);
        ctx.kill(victim);
        let cols = [10, 1_500, 2_500, 3_999];
        let pairs: Vec<(u64, f64)> = cols.iter().map(|&c| (c, c as f64)).collect();
        let pending = h.push_sparse_begin(ctx, 0, &pairs);
        h.push_wait(ctx, pending);
        let pulled = h.pull_cols(ctx, 0, &cols);
        assert_eq!(pulled, vec![10.0, 1_500.0, 2_500.0, 3_999.0]);
        assert_eq!((m.recoveries(), m.silent_reinits()), (1, 0));
    });
    sim.run().expect("push-hole sim failed")
}
