//! Every table, figure and ablation of the paper's evaluation (§6), one
//! named entry each.
//!
//! `cargo bench -p ps2-bench --bench figures` runs every entry in table
//! order; `cargo bench -p ps2-bench --bench figures -- fig9_dcv ablation_ssp`
//! runs only the named ones. An unknown name exits with code 2 and lists the
//! known names. CSVs land in `target/ps2-results/`.

mod ablations;
mod figs;
mod tables;

const FIGURES: &[(&str, fn())] = &[
    ("table2_datasets", tables::table2_datasets),
    ("table3_capabilities", tables::table3_capabilities),
    ("fig1_mllib_analysis", figs::fig1_mllib_analysis),
    ("fig9_dcv", figs::fig9_dcv),
    ("fig10_lr_endtoend", figs::fig10_lr_endtoend),
    ("fig11_gbdt", figs::fig11_gbdt),
    ("fig12_lda", figs::fig12_lda),
    ("fig13_scalability_ft", figs::fig13_scalability_ft),
    ("ablation_colocation", ablations::ablation_colocation),
    ("ablation_sparse_pull", ablations::ablation_sparse_pull),
    ("ablation_compression", ablations::ablation_compression),
    ("ablation_partitioning", ablations::ablation_partitioning),
    ("ablation_mllib_star", ablations::ablation_mllib_star),
    ("ablation_ssp", ablations::ablation_ssp),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
    match ps2_bench::select(&args, &names) {
        Ok(picked) => picked.into_iter().for_each(|i| (FIGURES[i].1)()),
        Err(e) => {
            eprintln!("figures: {e}");
            std::process::exit(2);
        }
    }
}
