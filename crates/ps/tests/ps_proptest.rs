//! Property-based tests for the parameter-server substrate.

use proptest::prelude::*;
use ps2_ps::{deploy_ps, ElemOp, InitKind, PartitionPlan, Partitioning, PsMaster};
use ps2_simnet::{SimBuilder, SimCtx};

fn with_ps<T, F>(n: usize, seed: u64, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce(&mut SimCtx, &mut PsMaster) -> T + Send + 'static,
{
    let mut sim = SimBuilder::new().seed(seed).build();
    let (servers, storage) = deploy_ps(&mut sim, n, 500e6);
    let out = sim.spawn_collect("coordinator", move |ctx| {
        let mut master = PsMaster::new(servers, storage);
        f(ctx, &mut master)
    });
    sim.run().unwrap();
    out.take()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every plan gives each slot one column range: column plans cover
    /// every column exactly once (slots past `dim` hold an empty range),
    /// row plans give every slot the whole row. `pieces` tiles any
    /// `[lo, hi)` in column order, each piece inside its slot's range and
    /// on the owner `col_owner` / `row_owner` names.
    #[test]
    fn plans_partition_the_dimension(
        dim in 1u64..100_000,
        slots in 1usize..40,
        small in 0u8..2,
        kind in 0usize..3,
        rot in 0usize..40,
        row in 0u32..100,
        ends in (0u64..100_000, 0u64..100_000)
    ) {
        let dim = if small == 1 { dim % 64 + 1 } else { dim };
        let p = [Partitioning::Column, Partitioning::ColumnRotated(rot), Partitioning::Row][kind];
        let plan = PartitionPlan::new(dim, 100, slots, p);
        let mut ranges: Vec<(u64, u64)> = (0..slots).map(|s| plan.cols_of(s)).collect();
        if p == Partitioning::Row {
            prop_assert!(ranges.iter().all(|&r| r == (0, dim)));
        } else {
            let empty = ranges.iter().filter(|&&(lo, hi)| lo == hi).count();
            prop_assert_eq!(empty, slots.saturating_sub(dim as usize));
            ranges.sort_unstable();
            let mut next = 0;
            for (lo, hi) in ranges {
                prop_assert!(lo == next && lo <= hi);
                next = hi;
            }
            prop_assert_eq!(next, dim);
        }
        let (a, b) = (ends.0 % (dim + 1), ends.1 % (dim + 1));
        let (lo, hi) = (a.min(b), a.max(b));
        let mut next = lo;
        for (slot, plo, phi) in plan.pieces(row, lo, hi) {
            let (slo, shi) = plan.cols_of(slot);
            prop_assert!(plo == next && plo < phi && slo <= plo && phi <= shi);
            if p == Partitioning::Row {
                prop_assert_eq!(slot, plan.row_owner(row));
            } else {
                prop_assert_eq!(slot, plan.col_owner(plo));
                prop_assert_eq!(slot, plan.col_owner(phi - 1));
            }
            next = phi;
        }
        prop_assert_eq!(next, hi);
    }

    /// Push-then-pull is the identity for arbitrary sparse updates, on any
    /// cluster size.
    #[test]
    fn sparse_push_pull_identity(
        servers in 1usize..7,
        dim in 1u64..2_000,
        updates in prop::collection::btree_map(0u64..2_000, -100.0f64..100.0, 0..40)
    ) {
        let updates: Vec<(u64, f64)> = updates.into_iter()
            .filter(|&(j, _)| j < dim)
            .collect();
        let got = with_ps(servers, 1, move |ctx, m| {
            let h = m.create_matrix(ctx, dim, 1, Partitioning::Column, InitKind::Zero);
            h.push_sparse(ctx, 0, &updates);
            let full = h.pull_row(ctx, 0);
            (updates, full)
        });
        let (updates, full) = got;
        let mut expect = vec![0.0; dim as usize];
        for (j, v) in updates {
            expect[j as usize] += v;
        }
        prop_assert_eq!(full, expect);
    }

    /// Server-side dot equals the local dot for random vectors, regardless
    /// of how many servers the columns are spread over.
    #[test]
    fn distributed_dot_matches_local(
        servers in 1usize..7,
        values in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..200)
    ) {
        let dim = values.len() as u64;
        let (got, expect) = with_ps(servers, 2, move |ctx, m| {
            let h = m.create_matrix(ctx, dim, 2, Partitioning::Column, InitKind::Zero);
            let a: Vec<f64> = values.iter().map(|&(x, _)| x).collect();
            let b: Vec<f64> = values.iter().map(|&(_, y)| y).collect();
            h.push_dense(ctx, 0, &a);
            h.push_dense(ctx, 1, &b);
            let local: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            (h.dot(ctx, 0, 1), local)
        });
        prop_assert!((got - expect).abs() <= 1e-9 * (1.0 + expect.abs()));
    }

    /// Element-wise server ops match their local counterparts.
    #[test]
    fn elem_ops_match_local(
        servers in 1usize..5,
        values in prop::collection::vec((-10.0f64..10.0, 0.5f64..10.0), 1..100),
        op_idx in 0usize..4
    ) {
        let op = [ElemOp::Add, ElemOp::Sub, ElemOp::Mul, ElemOp::Div][op_idx];
        let dim = values.len() as u64;
        let (got, expect) = with_ps(servers, 3, move |ctx, m| {
            let h = m.create_matrix(ctx, dim, 3, Partitioning::Column, InitKind::Zero);
            let a: Vec<f64> = values.iter().map(|&(x, _)| x).collect();
            let b: Vec<f64> = values.iter().map(|&(_, y)| y).collect();
            h.push_dense(ctx, 0, &a);
            h.push_dense(ctx, 1, &b);
            h.elem(ctx, 2, 0, 1, op);
            let expect: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| op.apply(x, y)).collect();
            (h.pull_row(ctx, 2), expect)
        });
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!((g - e).abs() <= 1e-9 * (1.0 + e.abs()));
        }
    }

    /// Row plans and column plans, aligned or rotated, hold the same data
    /// and answer every row-access op alike; only placement differs. Half
    /// the cases use a dim of at most 4, which leaves column slots empty.
    #[test]
    fn row_and_column_plans_agree_on_contents(
        servers in 1usize..5,
        dim in 1u64..500,
        small in 0u8..2,
        row in 0u32..4,
        rot in 0usize..4,
        ends in (0u64..500, 0u64..500),
        picks in prop::collection::btree_set(0u64..500, 0..20),
        deltas in prop::collection::btree_map(0u64..500, -10.0f64..10.0, 0..20)
    ) {
        let dim = if small == 1 { dim % 4 + 1 } else { dim };
        let (lo, hi) = (ends.0.min(ends.1).min(dim), ends.0.max(ends.1).min(dim));
        let cols: Vec<u64> = picks.into_iter().filter(|&c| c < dim).collect();
        let pairs: Vec<(u64, f64)> = deltas.into_iter().filter(|&(c, _)| c < dim).collect();
        let ramp: Vec<f64> = (lo..hi).map(|c| c as f64).collect();
        let plans = [Partitioning::Column, Partitioning::ColumnRotated(rot), Partitioning::Row];
        let (cols_c, pairs_c) = (cols.clone(), pairs.clone());
        let got = with_ps(servers, 4, move |ctx, m| {
            let init = InitKind::Uniform { lo: -1.0, hi: 1.0, seed: 9 };
            plans.map(|p| {
                let h = m.create_matrix(ctx, dim, 4, p, init.clone());
                let full = h.pull_row(ctx, row);
                let range = h.pull_range(ctx, row, lo, hi);
                let picked = h.pull_cols(ctx, row, &cols_c);
                h.push_dense_range(ctx, row, lo, &ramp);
                h.push_sparse(ctx, row, &pairs_c);
                (full, range, picked, h.pull_row(ctx, row))
            })
        });
        let (full, range, picked, pushed) = &got[0];
        prop_assert_eq!(range.as_slice(), &full[lo as usize..hi as usize]);
        let want: Vec<f64> = cols.iter().map(|&c| full[c as usize]).collect();
        prop_assert_eq!(picked, &want);
        let mut want = full.clone();
        for c in lo..hi {
            want[c as usize] += c as f64;
        }
        for &(c, d) in &pairs {
            want[c as usize] += d;
        }
        prop_assert_eq!(pushed, &want);
        for other in &got[1..] {
            prop_assert_eq!(other, &got[0]);
        }
    }
}
