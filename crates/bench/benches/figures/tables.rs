//! Tables 2 and 3: the datasets and which system runs which algorithm.

use ps2_bench::{banner, Table};
use ps2_data::presets;
use ps2_ml::capabilities::{supports, Algorithm, System};

/// Table 2 — dataset statistics: the paper's originals next to the scaled
/// synthetic stand-ins this reproduction trains on.
pub fn table2_datasets() {
    banner(
        "Table 2",
        "dataset statistics (original vs scaled synthetic)",
    );
    let mut t = Table::new(
        "table2.csv",
        "model,dataset,orig_rows,orig_cols,orig_nnz,orig_size,scaled_rows,scaled_cols,scaled_nnz",
    );
    for p in [
        presets::kddb(20, 1),
        presets::kdd12(20, 1),
        presets::ctr(20, 1),
        presets::gender(20, 1),
    ] {
        let o = p.original;
        t.row(&[
            p.model.to_string(),
            p.name.to_string(),
            o.rows.to_string(),
            o.cols.to_string(),
            o.nnz.to_string(),
            o.size.to_string(),
            p.gen.rows.to_string(),
            p.gen.dim.to_string(),
            p.gen.total_nnz().to_string(),
        ]);
    }
    for p in [presets::pubmed(20, 1), presets::app(20, 1)] {
        let o = p.original;
        t.row(&[
            "LDA".to_string(),
            p.name.to_string(),
            o.rows.to_string(),
            o.cols.to_string(),
            o.nnz.to_string(),
            o.size.to_string(),
            p.gen.docs.to_string(),
            p.gen.vocab.to_string(),
            p.gen.total_tokens().to_string(),
        ]);
    }
    for p in [presets::graph1(1), presets::graph2(1)] {
        t.row(&[
            "DeepWalk".to_string(),
            p.name.to_string(),
            p.original_vertices.to_string(),
            "-".to_string(),
            p.original_walks.to_string(),
            p.original_size.to_string(),
            p.gen.vertices.to_string(),
            "-".to_string(),
            p.num_walks.to_string(),
        ]);
    }
    println!("\n  (*) scaled synthetic generator; ratios (nnz/row, cols:rows) preserved.");
}

/// Table 3 — algorithms supported by the compared systems.
pub fn table3_capabilities() {
    banner("Table 3", "algorithms supported by each system");
    let algorithms: Vec<&str> = Algorithm::all().iter().map(|a| a.name()).collect();
    let mut t = Table::new("table3.csv", &format!("system,{}", algorithms.join(",")));
    for s in System::all() {
        let mut cells = vec![s.name().to_string()];
        for a in Algorithm::all() {
            cells.push(if supports(s, a) { "yes" } else { "-" }.to_string());
        }
        t.row(&cells);
    }
    println!("\n  PS2 is the only system covering all four workloads.");
}
