//! Property-based tests for the workload generators.

use proptest::prelude::*;
use ps2_data::{CorpusGen, GraphGen, RandomWalks, SparseDatasetGen};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Partitioning is a pure function: any partition count covers every
    /// row exactly once and per-row content is independent of partitioning.
    #[test]
    fn sparse_partitioning_is_content_stable(
        rows in 1u64..2_000,
        parts_a in 1usize..9,
        parts_b in 1usize..9,
        seed in 0u64..1_000
    ) {
        let mut ga = SparseDatasetGen::new(rows, 5_000, 10, parts_a, seed);
        let mut gb = ga.clone();
        ga.partitions = parts_a;
        gb.partitions = parts_b;
        let flat = |g: &SparseDatasetGen| -> Vec<(f64, usize)> {
            (0..g.partitions)
                .flat_map(|p| g.partition(p))
                .map(|e| (e.label, e.features.len()))
                .collect()
        };
        prop_assert_eq!(flat(&ga), flat(&gb));
    }

    /// Graphs are symmetric and connected-ish for any size/degree.
    #[test]
    fn graphs_are_well_formed(vertices in 2u32..400, m in 1u32..6, seed in 0u64..50) {
        let g = GraphGen { vertices, edges_per_vertex: m, seed }.generate();
        prop_assert_eq!(g.vertices() as u32, vertices);
        for (v, nbrs) in g.adj.iter().enumerate() {
            for &u in nbrs {
                prop_assert!(u < vertices);
                prop_assert!(g.adj[u as usize].contains(&(v as u32)));
            }
        }
        prop_assert!(g.adj.iter().all(|n| !n.is_empty()));
    }

    /// Walks stay on edges and have the requested length.
    #[test]
    fn walks_follow_edges(vertices in 2u32..200, n_walks in 1usize..50, len in 2usize..10) {
        let g = GraphGen { vertices, edges_per_vertex: 3, seed: 1 }.generate();
        let walks = RandomWalks::sample(&g, n_walks, len, 2);
        prop_assert_eq!(walks.walks.len(), n_walks);
        for w in &walks.walks {
            prop_assert_eq!(w.len(), len);
            for pair in w.windows(2) {
                prop_assert!(g.adj[pair[0] as usize].contains(&pair[1]));
            }
        }
    }

    /// Skip-gram pairs never pair a vertex with itself and respect the
    /// window.
    #[test]
    fn skip_gram_pairs_are_valid(window in 1usize..5, len in 2usize..10) {
        let g = GraphGen { vertices: 100, edges_per_vertex: 3, seed: 3 }.generate();
        let walks = RandomWalks::sample(&g, 20, len, 4);
        for p in walks.skip_gram_pairs(window) {
            prop_assert_ne!(p.center, p.context);
        }
    }

    /// Corpus documents are sorted, in-vocabulary, deterministic.
    #[test]
    fn corpus_documents_are_well_formed(docs in 1u64..100, vocab in 10u32..2_000, seed in 0u64..50) {
        let gen = CorpusGen::new(docs, vocab, 5, 30, 1, seed);
        for d in gen.partition(0) {
            prop_assert!(d.tokens() >= 1);
            prop_assert!(d.words.windows(2).all(|w| w[0].0 < w[1].0));
            prop_assert!(d.words.iter().all(|&(w, c)| w < vocab && c > 0));
        }
        let a = gen.document(0);
        let b = gen.document(0);
        prop_assert_eq!(a.words, b.words);
    }
}
