//! The determinism gate: `tests/golden_runs.txt` pins a grid of seeded
//! simulations to the last virtual-time byte, one row per run:
//!
//! ```text
//! name seed virtual_ns total_msgs total_bytes <exact columns> digest=<hex>
//! ```
//!
//! `digest` is FNV-1a-64 over the run report's JSON (`wall_ms` line dropped),
//! i.e. every counter, gauge and histogram; mode rows extend it with the bits
//! of every `(time, loss)` point of the convergence curve. A row that differs
//! in `digest` alone means a metric moved while the headline numbers held.
//!
//! Each test rewrites the fresh table under `CARGO_TARGET_TMPDIR`; a change
//! *meant* to move virtual time is blessed by copying that file over the
//! golden one (the failure prints the `cp`) — never by editing rows. One test
//! per group, so libtest overlaps them.

use std::sync::Mutex;

use ps2::data::{presets, SparseDatasetGen};
use ps2::ml::lbfgs::{train_lbfgs, LbfgsConfig};
use ps2::ml::lr::{train_lr, LrBackend, LrConfig};
use ps2::ml::modes::{run_mode, ModeAlgo, ModeConfig};
use ps2::ml::optim::Optimizer;
use ps2::ml::serve::{run_serve, serve_spec};
use ps2::ml::svm::{train_svm, SvmConfig};
use ps2::ps::ConsistencyMode;
use ps2::{run_ps2_with, ClusterSpec, SimBuilder, SimReport, SimTime};

mod common;
use common::virtual_json;

const GOLDEN: &str = include_str!("golden_runs.txt");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_runs.txt");
const FRESH_PATH: &str = concat!(env!("CARGO_TARGET_TMPDIR"), "/golden_runs.txt");

/// The fresh table: starts as the golden lines, and each group swaps in the
/// rows it just produced (matched on `name seed`), so the file is a complete
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
            let key_len = row.match_indices(' ').nth(1).expect("name seed ...").0 + 1;
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
         Only `digest` differs? A counter, gauge or histogram changed: diff \
         `ps2-run … --metrics-json` output across the two commits.\n\
         If the change is intended, run the whole of `cargo test --test golden_runs` and bless:\n  \
         cp {FRESH_PATH} {GOLDEN_PATH}\n"
    );
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Render one row. `curve` is empty except on mode rows.
fn row(name: &str, seed: u64, report: &SimReport, exact: &str, curve: &[(f64, f64)]) -> String {
    let mut digest = fnv1a(0xcbf2_9ce4_8422_2325, virtual_json(report).as_bytes());
    for &(secs, loss) in curve {
        digest = fnv1a(digest, &secs.to_bits().to_le_bytes());
        digest = fnv1a(digest, &loss.to_bits().to_le_bytes());
    }
    format!(
        "{name} {seed} {} {} {} {exact} digest={digest:016x}",
        report.virtual_time.as_nanos(),
        report.total_msgs,
        report.total_bytes
    )
}

fn cluster() -> ClusterSpec {
    ClusterSpec {
        workers: 4,
        servers: 4,
        ..ClusterSpec::default()
    }
}

/// A sparse preset split over the 4 workers every grid uses.
fn sparse(preset: &str, seed: u64) -> SparseDatasetGen {
    match preset {
        "kddb" => presets::kddb(4, seed).gen,
        "kdd12" => presets::kdd12(4, seed).gen,
        other => panic!("no golden preset '{other}'"),
    }
}

/// Makespan-shaped training runs through the dataflow engine: 4 workers ×
/// 4 servers × 4 iterations, seeds 1–3.
#[test]
fn training_grid() {
    let mut rows = Vec::new();
    for name in ["kddb-lr", "kddb-svm", "kdd12-lr", "kdd12-lbfgs"] {
        let (preset, algo) = name.split_once('-').expect("preset-algorithm");
        for seed in 1..=3 {
            let gen = sparse(preset, seed);
            let builder = SimBuilder::new().seed(seed);
            let (_, report) = match algo {
                "lr" => run_ps2_with(builder, cluster(), move |ctx, ps2| {
                    let cfg = LrConfig::new(gen, Optimizer::Sgd, 4);
                    train_lr(ctx, ps2, &cfg, LrBackend::Ps2Dcv);
                }),
                "svm" => run_ps2_with(builder, cluster(), move |ctx, ps2| {
                    train_svm(ctx, ps2, &SvmConfig::new(gen, 4));
                }),
                _ => run_ps2_with(builder, cluster(), move |ctx, ps2| {
                    let mut cfg = LbfgsConfig::new(gen, 4);
                    // Full-batch gradients would dominate the test's wall
                    // time; a fixed fraction keeps the cell cheap and still
                    // exercises the server-side two-loop recursion.
                    cfg.batch_fraction = 0.25;
                    train_lbfgs(ctx, ps2, &cfg);
                }),
            };
            let iteration_spans = report.metrics.hist("ml.iteration");
            let train_ns = iteration_spans.map_or(0, |h| h.sum_ns());
            let iterations = report.metrics.counter("ml.iterations");
            let exact = format!("train_ns={train_ns} iterations={iterations}");
            rows.push(row(name, seed, &report, &exact, &[]));
        }
    }
    check(rows);
}

/// Convergence-shaped runs of the Spark-free worker loop under each
/// consistency mode: 4 workers × 3 servers × 6 iterations, seeds 1–2.
#[test]
fn mode_grid() {
    let mut rows = Vec::new();
    for preset in ["kddb", "kdd12"] {
        for algo in [ModeAlgo::Lr, ModeAlgo::Svm] {
            for mode in ["bsp", "ssp:2", "async"] {
                let mode = ConsistencyMode::parse(mode).expect("static mode");
                for seed in 1..=2 {
                    let mut cfg = ModeConfig::new(sparse(preset, seed), 4, 3, mode);
                    cfg.iterations = 6;
                    cfg.learning_rate = 1.0;
                    cfg.seed = seed;
                    // A mild fixed straggler, so the three modes differ in pacing.
                    cfg.straggler_slowdown = SimTime::from_millis(20);
                    let (trace, report) = run_mode(&cfg, algo);
                    let iterations = report.metrics.counter("ml.iterations");
                    let loss_micro = (trace.final_loss() * 1e6).round() as i64;
                    let exact = format!("iterations={iterations} final_loss_micro={loss_micro}");
                    let name = format!("{preset}-{}-{}", algo.label(), mode.label());
                    rows.push(row(&name, seed, &report, &exact, &trace.points));
                }
            }
        }
    }
    check(rows);
}

/// `ps2-run lr --optimizer adam --rows 19000 --dim 290000 --nnz 31 --iters 3
/// --workers 4 --servers 4 --seed 42`. `envelopes` pins request coalescing:
/// 4 CREATE + 36 per iteration (16 pull, 16 push, 4 batched updates).
#[test]
fn lr_adam() {
    let gen = SparseDatasetGen::new(19_000, 290_000, 31, 4, 42);
    let adam = Optimizer::Adam {
        beta1: 0.9,
        beta2: 0.999,
        epsilon: 1e-8,
    };
    let (_, report) = run_ps2_with(SimBuilder::new().seed(42), cluster(), move |ctx, ps2| {
        let mut cfg = LrConfig::new(gen, adam, 3);
        cfg.hyper.learning_rate = 1.0;
        train_lr(ctx, ps2, &cfg, LrBackend::Ps2Dcv);
    });
    let envelopes = report.metrics.counter("ps.client.envelopes");
    let exact = format!("envelopes={envelopes}");
    check(vec![row("lr-adam", 42, &report, &exact, &[])]);
}

/// One shipped serving preset under seed 1: open-loop pulls against a fleet
/// of steppable server agents.
fn serve_row(preset: &str) -> String {
    let spec = serve_spec(preset).expect("shipped serve preset");
    let (s, report) = run_serve(SimBuilder::new().seed(1), &spec);
    assert_eq!(s.issued, s.completed, "{preset}: unanswered pulls");
    let (pulls, p99, p999) = (s.completed, s.p99_ns, s.p999_ns);
    let exact = format!("pulls={pulls} p99_ns={p99} p999_ns={p999}");
    row(preset, 1, &report, &exact, &[])
}

#[test]
fn serve_kddb() {
    check(vec![serve_row("serve-kddb")]);
}

#[test]
fn serve_kdd12() {
    check(vec![serve_row("serve-kdd12")]);
}
