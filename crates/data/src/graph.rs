//! Power-law graphs, random walks, and skip-gram pair extraction for
//! DeepWalk.
//!
//! The paper notes (§6.1) that the original graphs were unavailable even to
//! the authors — "users from the business unit do the sampling of random
//! walks on graphs" — i.e. the training input *is* a set of walks. We mirror
//! that: [`GraphGen`] builds a preferential-attachment graph, and
//! [`RandomWalks`] samples the walk corpus that DeepWalk consumes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mix64;

/// An undirected graph in adjacency-list form.
#[derive(Clone, Debug)]
pub struct Graph {
    pub adj: Vec<Vec<u32>>,
}

impl Graph {
    pub fn vertices(&self) -> usize {
        self.adj.len()
    }

    pub fn edges(&self) -> usize {
        self.adj.iter().map(|n| n.len()).sum::<usize>() / 2
    }
}

/// Preferential-attachment (Barabási–Albert style) generator: new vertices
/// attach to `edges_per_vertex` existing vertices with probability
/// proportional to degree, yielding the power-law degree distribution of
/// social graphs like the paper's QQ network.
#[derive(Clone, Copy, Debug)]
pub struct GraphGen {
    pub vertices: u32,
    pub edges_per_vertex: u32,
    pub seed: u64,
}

impl GraphGen {
    pub fn generate(&self) -> Graph {
        assert!(self.vertices >= 2);
        let m = self.edges_per_vertex.max(1) as usize;
        let mut rng = StdRng::seed_from_u64(mix64(self.seed ^ 0x0067_7261_7068)); // "graph"
        let n = self.vertices as usize;
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        // Endpoint pool: vertices appear once per incident edge — sampling
        // uniformly from it is degree-proportional attachment.
        let mut pool: Vec<u32> = Vec::with_capacity(2 * m * n);
        adj[0].push(1);
        adj[1].push(0);
        pool.extend_from_slice(&[0, 1]);
        for v in 2..n as u32 {
            let k = m.min(v as usize);
            let mut targets: Vec<u32> = Vec::with_capacity(k);
            while targets.len() < k {
                let t = pool[rng.gen_range(0..pool.len())];
                if t != v && !targets.contains(&t) {
                    targets.push(t);
                }
            }
            for t in targets {
                adj[v as usize].push(t);
                adj[t as usize].push(v);
                pool.push(v);
                pool.push(t);
            }
        }
        Graph { adj }
    }
}

/// A corpus of fixed-length random walks over a graph.
#[derive(Clone, Debug)]
pub struct RandomWalks {
    pub walks: Vec<Vec<u32>>,
}

impl RandomWalks {
    /// Sample `num_walks` walks of length `walk_len` (paper Table 4:
    /// `length_of_random_walk = 8`), starting vertices round-robin.
    pub fn sample(graph: &Graph, num_walks: usize, walk_len: usize, seed: u64) -> RandomWalks {
        let n = graph.vertices() as u32;
        let mut walks = Vec::with_capacity(num_walks);
        for w in 0..num_walks {
            let mut rng = StdRng::seed_from_u64(mix64(seed ^ mix64(w as u64)));
            let mut cur = (w as u32) % n;
            let mut walk = Vec::with_capacity(walk_len);
            walk.push(cur);
            for _ in 1..walk_len {
                let nbrs = &graph.adj[cur as usize];
                if nbrs.is_empty() {
                    break;
                }
                cur = nbrs[rng.gen_range(0..nbrs.len())];
                walk.push(cur);
            }
            walks.push(walk);
        }
        RandomWalks { walks }
    }

    /// Extract skip-gram training pairs with the given window (paper Table
    /// 4: `window_size = 4`): every `(center, context)` co-occurrence within
    /// the window, in deterministic order.
    pub fn skip_gram_pairs(&self, window: usize) -> Vec<SkipGramPair> {
        let mut pairs = Vec::new();
        for walk in &self.walks {
            for (i, &u) in walk.iter().enumerate() {
                let lo = i.saturating_sub(window);
                let hi = (i + window).min(walk.len() - 1);
                for (j, &v) in walk.iter().enumerate().take(hi + 1).skip(lo) {
                    if i != j && u != v {
                        pairs.push(SkipGramPair {
                            center: u,
                            context: v,
                        });
                    }
                }
            }
        }
        pairs
    }
}

/// A positive (center, context) co-occurrence to embed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SkipGramPair {
    pub center: u32,
    pub context: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Graph {
        GraphGen {
            vertices: 500,
            edges_per_vertex: 3,
            seed: 7,
        }
        .generate()
    }

    #[test]
    fn graph_is_connected_enough_and_undirected() {
        let g = small();
        assert_eq!(g.vertices(), 500);
        for (v, nbrs) in g.adj.iter().enumerate() {
            for &u in nbrs {
                assert!(
                    g.adj[u as usize].contains(&(v as u32)),
                    "edge ({v},{u}) not symmetric"
                );
            }
        }
        assert!(g.adj.iter().all(|n| !n.is_empty()), "no isolated vertices");
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let g = small();
        let mut degs: Vec<usize> = g.adj.iter().map(Vec::len).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        let top = degs[..5].iter().sum::<usize>() as f64;
        let median = degs[g.vertices() / 2] as f64;
        assert!(
            top / 5.0 > 4.0 * median,
            "hubs should dominate: top5 avg {} vs median {median}",
            top / 5.0
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.adj, b.adj);
    }

    #[test]
    fn walks_have_requested_shape_and_follow_edges() {
        let g = small();
        let walks = RandomWalks::sample(&g, 100, 8, 3);
        assert_eq!(walks.walks.len(), 100);
        for walk in &walks.walks {
            assert_eq!(walk.len(), 8);
            for w in walk.windows(2) {
                assert!(g.adj[w[0] as usize].contains(&w[1]), "walk uses non-edge");
            }
        }
    }

    #[test]
    fn skip_gram_pairs_respect_window() {
        let walks = RandomWalks {
            walks: vec![vec![1, 2, 3, 4, 5]],
        };
        let pairs = walks.skip_gram_pairs(1);
        // Each interior vertex pairs with both neighbours; ends with one.
        assert_eq!(pairs.len(), 2 * 4);
        assert!(pairs.contains(&SkipGramPair {
            center: 2,
            context: 3
        }));
        assert!(!pairs.iter().any(|p| p.center == 1 && p.context == 3));
    }
}
