//! Worker-to-worker collectives, used to emulate AllReduce-based systems
//! (the paper's XGBoost baseline, §6.3.2).
//!
//! A collective stage must be launched with **exactly one task per
//! executor** (`partitions == executors`): all participants run
//! concurrently, exchanging messages directly between executor processes
//! while the driver waits at the stage barrier.

use ps2_simnet::ProcId;

use crate::executor::WorkCtx;

/// Message tag for ring traffic (distinct from the driver protocol tags).
const RING_TAG: u32 = 7;
/// Bytes per value on the ring: uncompressed `f64`s.
const VALUE_BYTES: u64 = 8;

struct RingChunk {
    step_kind: u8, // 0 = reduce-scatter, 1 = allgather
    step: usize,
    chunk_idx: usize,
    values: Vec<f64>,
}

/// Ring AllReduce (sum) over `data`, in place.
///
/// `peers` are the executor processes in rank order and `my_rank` is this
/// task's position. Each rank sends and receives `2 · (W-1) · n/W` values —
/// the classic bandwidth-optimal ring, and exactly the cost structure that
/// makes AllReduce-based GBDT split finding expensive compared to pushing
/// partial histograms to parameter servers.
pub fn ring_allreduce_sum(
    w: &mut WorkCtx<'_, '_>,
    peers: &[ProcId],
    my_rank: usize,
    data: &mut [f64],
) {
    let n_ranks = peers.len();
    assert!(my_rank < n_ranks);
    if n_ranks <= 1 {
        return;
    }
    let n = data.len();
    let bounds: Vec<usize> = (0..=n_ranks).map(|i| i * n / n_ranks).collect();
    let next = peers[(my_rank + 1) % n_ranks];

    let send_chunk = |w: &mut WorkCtx<'_, '_>, kind: u8, step: usize, idx: usize, data: &[f64]| {
        let values = data[bounds[idx]..bounds[idx + 1]].to_vec();
        let bytes = 24 + VALUE_BYTES * values.len() as u64;
        w.sim.send(
            next,
            RING_TAG,
            RingChunk {
                step_kind: kind,
                step,
                chunk_idx: idx,
                values,
            },
            bytes,
        );
    };

    let recv_chunk = |w: &mut WorkCtx<'_, '_>, kind: u8, step: usize| -> (usize, Vec<f64>) {
        let env = w.sim.recv();
        assert_eq!(env.tag, RING_TAG, "unexpected message during collective");
        let chunk = env.downcast::<RingChunk>();
        assert_eq!(
            (chunk.step_kind, chunk.step),
            (kind, step),
            "ring protocol out of step"
        );
        (chunk.chunk_idx, chunk.values)
    };

    // Reduce-scatter: after W-1 steps, this rank holds the fully reduced
    // chunk (my_rank + 1) mod W.
    for step in 0..n_ranks - 1 {
        let send_idx = (my_rank + n_ranks - step) % n_ranks;
        send_chunk(w, 0, step, send_idx, data);
        let (idx, values) = recv_chunk(w, 0, step);
        debug_assert_eq!(idx, (my_rank + n_ranks - step - 1) % n_ranks);
        let dst = &mut data[bounds[idx]..bounds[idx + 1]];
        for (d, v) in dst.iter_mut().zip(&values) {
            *d += v;
        }
        w.sim.charge_flops(values.len() as u64);
    }
    // Allgather: circulate the reduced chunks.
    for step in 0..n_ranks - 1 {
        let send_idx = (my_rank + 1 + n_ranks - step) % n_ranks;
        send_chunk(w, 1, step, send_idx, data);
        let (idx, values) = recv_chunk(w, 1, step);
        debug_assert_eq!(idx, (my_rank + n_ranks - step) % n_ranks);
        data[bounds[idx]..bounds[idx + 1]].copy_from_slice(&values);
    }
}
