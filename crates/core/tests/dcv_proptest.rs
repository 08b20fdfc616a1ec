//! Property-based tests on DCV invariants.

use std::sync::Arc;

use proptest::prelude::*;
use ps2_core::{run_ps2, ClusterSpec, ZipSegs};

fn spec(s: usize) -> ClusterSpec {
    ClusterSpec {
        workers: 2,
        servers: s,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// zip over co-located rows applies exactly the same function the local
    /// reference applies, for any server count — co-location is invisible
    /// to semantics.
    #[test]
    fn zip_is_semantically_local(
        servers in 1usize..6,
        values in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 1..120),
        scale in -2.0f64..2.0
    ) {
        let dim = values.len() as u64;
        let (got, expect) = run_ps2(spec(servers), 3, move |ctx, ps2| {
            let w = ps2.dense_dcv(ctx, dim, 2);
            let g = w.derive(ctx);
            let a: Vec<f64> = values.iter().map(|&(x, _)| x).collect();
            let b: Vec<f64> = values.iter().map(|&(_, y)| y).collect();
            w.add_dense(ctx, &a);
            g.add_dense(ctx, &b);
            w.zip(&[&g]).map_partitions(
                ctx,
                Arc::new(move |zs: &mut ZipSegs<'_>| {
                    let (wseg, rest) = zs.segs.split_first_mut().unwrap();
                    let gseg = &rest[0];
                    for i in 0..wseg.len() {
                        wseg[i] = wseg[i] * scale + gseg[i] * gseg[i];
                    }
                }),
                3,
            );
            let expect: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| x * scale + y * y).collect();
            (w.pull(ctx), expect)
        }).0;
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!((g - e).abs() <= 1e-9 * (1.0 + e.abs()), "{g} vs {e}");
        }
    }

    /// The zip's `lo` offset really is the global column of each segment:
    /// writing `lo + i` yields the ramp 0..dim.
    #[test]
    fn zip_lo_offsets_are_global_columns(servers in 1usize..6, dim in 1u64..500) {
        let (got, _) = run_ps2(spec(servers), 5, move |ctx, ps2| {
            let w = ps2.dense_dcv(ctx, dim, 1);
            w.zip(&[]).map_partitions(
                ctx,
                Arc::new(|zs: &mut ZipSegs<'_>| {
                    let lo = zs.lo;
                    for (i, v) in zs.segs[0].iter_mut().enumerate() {
                        *v = (lo + i as u64) as f64;
                    }
                }),
                1,
            );
            w.pull(ctx)
        });
        let expect: Vec<f64> = (0..dim).map(|i| i as f64).collect();
        prop_assert_eq!(got, expect);
    }

    /// Sparse pulls return exactly the dense values at those indices.
    #[test]
    fn pull_indices_matches_dense_pull(
        servers in 1usize..6,
        dim in 10u64..2_000,
        idx in prop::collection::btree_set(0u64..2_000, 1..30)
    ) {
        let cols: Vec<u64> = idx.into_iter().filter(|&j| j < dim).collect();
        prop_assume!(!cols.is_empty());
        let (sparse, dense) = run_ps2(spec(servers), 7, move |ctx, ps2| {
            let v = ps2.dense_dcv_init(
                ctx,
                dim,
                1,
                ps2_core::InitKind::Uniform { lo: -1.0, hi: 1.0, seed: 5 },
            );
            (v.pull_indices(ctx, &cols), (v.pull(ctx), cols))
        }).0;
        let (full, cols) = dense;
        let expect: Vec<f64> = cols.iter().map(|&j| full[j as usize]).collect();
        prop_assert_eq!(sparse, expect);
    }

    /// pull_range agrees with the dense pull on any subrange.
    #[test]
    fn pull_range_matches_dense_pull(servers in 1usize..6, dim in 2u64..1_000, a in 0u64..1_000, b in 0u64..1_000) {
        let lo = a.min(b) % dim;
        let hi = (a.max(b) % dim).max(lo);
        let (ranged, full) = run_ps2(spec(servers), 9, move |ctx, ps2| {
            let v = ps2.dense_dcv_init(
                ctx,
                dim,
                1,
                ps2_core::InitKind::Uniform { lo: 0.0, hi: 1.0, seed: 8 },
            );
            (v.pull_range(ctx, lo, hi), v.pull(ctx))
        }).0;
        prop_assert_eq!(&ranged[..], &full[lo as usize..hi as usize]);
    }
}
