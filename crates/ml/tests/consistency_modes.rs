//! Tests for the first-class consistency modes: the shard-sampling fix,
//! per-mode convergence, pipelining, and determinism.

use ps2_data::SparseDatasetGen;
use ps2_ml::modes::{run_mode, shard_batch_rows, shard_range, ModeAlgo, ModeConfig};
use ps2_ps::ConsistencyMode;
use ps2_simnet::SimTime;

fn base_cfg(mode: ConsistencyMode) -> ModeConfig {
    ModeConfig::new(SparseDatasetGen::new(2_000, 3_000, 12, 4, 7), 4, 3, mode)
}

/// Regression test for the SSP mini-batch indexing bug: the old loop
/// computed an *absolute* start row `lo + offset` and then re-added the
/// shard base inside the modulo (`rows.0 + (start + i) % span`), skewing
/// and aliasing the sample for every worker with `rows.0 > 0`.
#[test]
fn batch_rows_stay_in_shard_without_double_offset() {
    let rows = 2_000u64;
    let workers = 4;
    for w in 0..workers {
        let shard = shard_range(rows, w, workers);
        let (lo, hi) = shard;
        let span = hi - lo;
        for t in 1..=40u32 {
            let batch = shard_batch_rows(shard, t, 64);
            assert_eq!(batch.len(), 64);
            for &r in &batch {
                assert!(
                    (lo..hi).contains(&r),
                    "worker {w} iter {t}: row {r} outside shard [{lo}, {hi})"
                );
            }
            // The exact expected window: a shard-relative offset, wrapped
            // within the shard. The buggy version started instead at
            // lo + (lo + (t·131 % span)) % span — for worker 1 of this
            // config (lo = 500) that is 250 rows away from the correct
            // start, which this equality catches.
            let start = (t as u64 * 131) % span;
            let expect: Vec<u64> = (0..64u64).map(|i| lo + (start + i) % span).collect();
            assert_eq!(batch, expect, "worker {w} iter {t}");
        }
    }
}

/// With `mini_batch = span`, successive batches must cover the shard
/// exactly — every row sampled once per batch, none aliased away.
#[test]
fn batch_covers_the_shard_uniformly() {
    let shard = (500u64, 600u64); // a worker-1-style shard with lo > 0
    let span = (shard.1 - shard.0) as usize;
    for t in 1..=5u32 {
        let mut batch = shard_batch_rows(shard, t, span);
        batch.sort_unstable();
        batch.dedup();
        assert_eq!(batch.len(), span, "iter {t} aliased rows within the shard");
        assert_eq!(batch[0], shard.0);
        assert_eq!(*batch.last().unwrap(), shard.1 - 1);
    }
}

#[test]
fn every_mode_converges() {
    for mode in [
        ConsistencyMode::Bsp,
        ConsistencyMode::Ssp { bound: 2 },
        ConsistencyMode::Async,
    ] {
        for algo in [ModeAlgo::Lr, ModeAlgo::Svm] {
            let mut cfg = base_cfg(mode);
            cfg.iterations = 20;
            let (trace, report) = run_mode(&cfg, algo);
            assert!(trace.is_sane(), "{}: {:?}", trace.label, trace.points);
            assert_eq!(trace.points.len(), 20);
            assert!(
                trace.final_loss() < trace.points[0].1,
                "{} did not learn: {:?} -> {:?}",
                trace.label,
                trace.points.first(),
                trace.points.last()
            );
            assert!(report.total_msgs > 0);
        }
    }
}

#[test]
fn relaxed_modes_outpace_bsp_under_a_straggler() {
    let run = |mode: ConsistencyMode| {
        let mut cfg = base_cfg(mode);
        cfg.iterations = 16;
        cfg.straggler_slowdown = SimTime::from_millis(40);
        let (trace, _) = run_mode(&cfg, ModeAlgo::Lr);
        trace
    };
    let bsp = run(ConsistencyMode::Bsp);
    let ssp = run(ConsistencyMode::Ssp { bound: 3 });
    let asy = run(ConsistencyMode::Async);
    let mid = 8;
    assert!(
        ssp.points[mid].0 < bsp.points[mid].0,
        "ssp {:?} vs bsp {:?}",
        ssp.points[mid],
        bsp.points[mid]
    );
    assert!(
        asy.points[mid].0 < bsp.points[mid].0,
        "async {:?} vs bsp {:?}",
        asy.points[mid],
        bsp.points[mid]
    );
}

#[test]
fn mode_runs_are_deterministic() {
    for mode in [
        ConsistencyMode::Bsp,
        ConsistencyMode::Ssp { bound: 2 },
        ConsistencyMode::Async,
    ] {
        let mut cfg = base_cfg(mode);
        cfg.iterations = 8;
        let (t1, r1) = run_mode(&cfg, ModeAlgo::Svm);
        let (t2, r2) = run_mode(&cfg, ModeAlgo::Svm);
        assert_eq!(t1.points, t2.points, "{}", t1.label);
        assert_eq!(r1.total_msgs, r2.total_msgs);
        assert_eq!(r1.total_bytes, r2.total_bytes);
        assert_eq!(r1.virtual_time, r2.virtual_time);
    }
}
