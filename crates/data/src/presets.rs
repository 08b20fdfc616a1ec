//! The paper's Table 2 datasets, scaled to laptop size.
//!
//! Each preset keeps the original's *shape* — the rows:columns ratio and
//! average non-zeros per row (or tokens per document, walks per vertex) —
//! while shrinking absolute size so a simulated cluster can run on one
//! machine. The original statistics ride along so the benchmark harness can
//! print Table 2 with both columns.

use crate::{CorpusGen, GraphGen, SparseDatasetGen};

/// Statistics of the original dataset as reported in Table 2.
#[derive(Clone, Copy, Debug)]
pub struct OriginalStats {
    pub rows: u64,
    pub cols: u64,
    pub nnz: u64,
    pub size: &'static str,
}

/// A scaled classification dataset preset.
#[derive(Clone, Debug)]
pub struct SparsePreset {
    pub name: &'static str,
    pub model: &'static str,
    pub original: OriginalStats,
    pub gen: SparseDatasetGen,
}

/// A scaled corpus preset.
#[derive(Clone, Debug)]
pub struct CorpusPreset {
    pub name: &'static str,
    pub original: OriginalStats,
    pub gen: CorpusGen,
}

/// Length of every sampled random walk (paper Table 4:
/// `length_of_random_walk = 8`).
pub const WALK_LEN: usize = 8;

/// A scaled graph preset; its walks are [`WALK_LEN`] long.
#[derive(Clone, Debug)]
pub struct GraphPreset {
    pub name: &'static str,
    /// Original vertex / walk counts.
    pub original_vertices: u64,
    pub original_walks: u64,
    pub original_size: &'static str,
    pub gen: GraphGen,
    pub num_walks: usize,
}

/// KDDB (LR): 19M × 29M, 585M nnz, 4.8 GB → rows ÷1000, columns ÷100.
///
/// Columns shrink less than rows on purpose: the paper's bottlenecks are
/// *model-size* effects (dense aggregation, full pulls) competing with
/// per-iteration fixed costs. Scaling both ÷1000 would shrink the model
/// 1000× while scheduler overheads shrink far less, flattening every curve;
/// keeping the model 10× wider preserves the ratio that produces the
/// paper's shapes. nnz/row is preserved exactly.
pub fn kddb(partitions: usize, seed: u64) -> SparsePreset {
    SparsePreset {
        name: "KDDB",
        model: "LR",
        original: OriginalStats {
            rows: 19_000_000,
            cols: 29_000_000,
            nnz: 585_000_000,
            size: "4.8GB",
        },
        gen: SparseDatasetGen::new(19_000, 290_000, 31, partitions, seed),
    }
}

/// KDD12 (LR): 149M × 54.6M, 1.64B nnz, 21 GB → rows ÷5000, columns ÷100
/// (see [`kddb`] for the scaling rationale).
pub fn kdd12(partitions: usize, seed: u64) -> SparsePreset {
    SparsePreset {
        name: "KDD12",
        model: "LR",
        original: OriginalStats {
            rows: 149_000_000,
            cols: 54_600_000,
            nnz: 1_640_000_000,
            size: "21GB",
        },
        gen: SparseDatasetGen::new(29_800, 546_000, 11, partitions, seed),
    }
}

/// CTR (LR): 343M × 1.7B, 57B nnz, 662 GB → scaled: very wide model
/// (the property Figure 9(b) stresses) with the original ~166 nnz/row.
pub fn ctr(partitions: usize, seed: u64) -> SparsePreset {
    SparsePreset {
        name: "CTR",
        model: "LR",
        original: OriginalStats {
            rows: 343_000_000,
            cols: 1_700_000_000,
            nnz: 57_000_000_000,
            size: "662.4GB",
        },
        gen: SparseDatasetGen::new(34_000, 1_700_000, 166, partitions, seed),
    }
}

/// PubMED (LDA): 8.2M docs, 141K vocab, 737M tokens → scaled ÷1000 docs,
/// ÷10 vocab, original ~90 tokens/doc.
pub fn pubmed(partitions: usize, seed: u64) -> CorpusPreset {
    CorpusPreset {
        name: "PubMED",
        original: OriginalStats {
            rows: 8_200_000,
            cols: 141_000,
            nnz: 737_000_000,
            size: "4GB",
        },
        gen: CorpusGen::new(8_200, 14_100, 50, 90, partitions, seed),
    }
}

/// App (LDA): 2.3B docs, 558K vocab, 161B tokens — the dataset only PS2
/// could handle (Figure 12(c)) → scaled but still the largest corpus here.
pub fn app(partitions: usize, seed: u64) -> CorpusPreset {
    CorpusPreset {
        name: "App",
        original: OriginalStats {
            rows: 2_300_000_000,
            cols: 558_000,
            nnz: 161_000_000_000,
            size: "797GB",
        },
        gen: CorpusGen::new(46_000, 11_160, 80, 70, partitions, seed),
    }
}

/// Gender (GBDT): 122M × 330K, 12.17B nnz, 145 GB → scaled; GBDT wants
/// moderately dense rows (~100 nnz).
pub fn gender(partitions: usize, seed: u64) -> SparsePreset {
    SparsePreset {
        name: "Gender",
        model: "GBDT",
        original: OriginalStats {
            rows: 122_000_000,
            cols: 330_000,
            nnz: 12_170_000_000,
            size: "145GB",
        },
        gen: SparseDatasetGen::new(24_400, 3_300, 100, partitions, seed).continuous(),
    }
}

/// Graph1 (DeepWalk): 254K vertices, 308K walks, 100 MB → ÷100.
pub fn graph1(seed: u64) -> GraphPreset {
    GraphPreset {
        name: "Graph1",
        original_vertices: 254_000,
        original_walks: 308_000,
        original_size: "100MB",
        gen: GraphGen {
            vertices: 2_540,
            edges_per_vertex: 4,
            seed,
        },
        num_walks: 3_080,
    }
}

/// Graph2 (DeepWalk): 115M vertices, 156M walks, 10.5 GB → much larger than
/// Graph1, used with 30 servers in Figure 9(d).
pub fn graph2(seed: u64) -> GraphPreset {
    GraphPreset {
        name: "Graph2",
        original_vertices: 115_000_000,
        original_walks: 156_000_000,
        original_size: "10.5GB",
        gen: GraphGen {
            vertices: 23_000,
            edges_per_vertex: 4,
            seed,
        },
        num_walks: 31_200,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_presets_preserve_nnz_per_row_shape() {
        let k = kddb(4, 1);
        let orig_ratio = k.original.nnz as f64 / k.original.rows as f64;
        assert!((orig_ratio - k.gen.nnz_per_row as f64).abs() < 2.0);
        let c = ctr(4, 1);
        let orig_ratio = c.original.nnz as f64 / c.original.rows as f64;
        assert!((orig_ratio - c.gen.nnz_per_row as f64).abs() < 2.0);
    }

    #[test]
    fn ctr_is_much_wider_than_kddb() {
        // The property Figure 9(b) stresses: CTR's model is far wider.
        assert!(ctr(4, 1).gen.dim > 5 * kddb(4, 1).gen.dim);
    }

    #[test]
    fn graph2_is_larger_than_graph1() {
        assert!(graph2(1).gen.vertices > 5 * graph1(1).gen.vertices);
    }

    #[test]
    fn presets_generate() {
        assert!(!kddb(4, 1).gen.partition(0).is_empty());
        assert!(!pubmed(4, 1).gen.partition(0).is_empty());
        let g = graph1(1).gen.generate();
        assert_eq!(g.vertices(), 2_540);
    }
}
