//! # ps2-bench — regenerating the paper's evaluation
//!
//! One bench target, `figures` (`benches/figures/main.rs`), walks a table of
//! named entries; each reproduces one table or figure of the paper's §6 (or
//! an ablation) on the simulated cluster and prints the same rows/series the
//! paper reports, next to the paper's headline numbers.
//! `cargo bench -p ps2-bench --bench figures` runs every entry;
//! `… --bench figures -- fig9_dcv ablation_ssp` runs only those. Each entry's
//! rows also land as CSV under `target/ps2-results/`.
//!
//! Absolute times differ from the paper (its testbed was a 2700-machine
//! production cluster; ours is a deterministic simulator driving scaled
//! datasets) — the claims under reproduction are the *shapes*: who wins, by
//! roughly what factor, and where the crossovers sit.

use std::borrow::Borrow;
use std::fs::{self, File};
use std::io::Write;
use std::path::PathBuf;

use ps2_ml::TrainingTrace;

/// Standard cluster width used by most figures (paper: "the number of
/// executors/servers are 20").
pub const WORKERS: usize = 20;
pub const SERVERS: usize = 20;

/// One result table: a CSV under `target/ps2-results/` and the same cells
/// on stdout, each cell formatted once by the caller.
pub struct Table {
    csv: File,
    widths: Vec<usize>,
}

impl Table {
    /// Create (truncate) `csv_name` in the results dir, write the
    /// comma-separated `header` as its first line and print it as a column
    /// header.
    pub fn new(csv_name: &str, header: &str) -> Table {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/ps2-results");
        let csv = fs::create_dir_all(&dir)
            .and_then(|()| File::create(dir.join(csv_name)))
            .expect("cannot create results file");
        let names: Vec<&str> = header.split(',').collect();
        let widths = names.iter().map(|n| n.len().max(10)).collect();
        let mut table = Table { csv, widths };
        println!();
        table.put(&names, true);
        table
    }

    /// Write one CSV line and print the same cells.
    pub fn row(&mut self, cells: &[String]) {
        self.put(cells, true);
    }

    /// Write one CSV line without printing it (long series print a sample).
    pub fn csv_only(&mut self, cells: &[String]) {
        self.put(cells, false);
    }

    fn put<S: Borrow<str>>(&mut self, cells: &[S], echo: bool) {
        writeln!(self.csv, "{}", cells.join(",")).unwrap();
        if echo {
            let mut line = String::from(" ");
            for (cell, &w) in cells.iter().zip(&self.widths) {
                line.push_str(&format!(" {:>w$}", cell.borrow()));
            }
            println!("{line}");
        }
    }
}

/// Print a figure banner.
pub fn banner(fig: &str, caption: &str) {
    println!();
    println!("================================================================");
    println!("{fig} — {caption}");
    println!("================================================================");
}

/// Persist a set of loss-versus-time traces as one series table
/// (`{fig}.csv`), printing a summary and every tenth point of each.
pub fn print_traces(fig: &str, traces: &[&TrainingTrace]) {
    let mut table = Table::new(&format!("{fig}.csv"), "system,iteration,seconds,loss");
    for t in traces {
        println!(
            "\n  {} — {} iterations, {:.1}s total, final loss {:.4}",
            t.label,
            t.points.len(),
            t.total_time(),
            t.final_loss()
        );
        let stride = (t.points.len() / 10).max(1);
        for (i, &(secs, loss)) in t.points.iter().enumerate() {
            let cells = [
                t.label.to_string(),
                i.to_string(),
                format!("{secs:.6}"),
                format!("{loss:.6}"),
            ];
            if i % stride == 0 || i + 1 == t.points.len() {
                table.row(&cells);
            } else {
                table.csv_only(&cells);
            }
        }
    }
}

/// Report the time each trace takes to first reach `target` loss, plus
/// speedups relative to the first trace.
pub fn print_time_to_loss(traces: &[&TrainingTrace], target: f64) {
    println!("\n  time to reach loss {target:.3}:");
    let base = traces[0].time_to_loss(target);
    for t in traces {
        match (t.time_to_loss(target), base) {
            (Some(tt), Some(b)) if tt > 0.0 => {
                println!(
                    "    {:<16} {:>10.2}s   ({:.2}x vs {})",
                    t.label,
                    tt,
                    tt / b,
                    traces[0].label
                )
            }
            (Some(tt), _) => println!("    {:<16} {:>10.2}s", t.label, tt),
            (None, _) => println!(
                "    {:<16}   not reached (final {:.4})",
                t.label,
                t.final_loss()
            ),
        }
    }
}

/// A loss target all traces reached: 2% above the worst of the best losses,
/// so every system has a crossing time.
pub fn common_target(traces: &[&TrainingTrace]) -> f64 {
    traces
        .iter()
        .map(|t| {
            t.points
                .iter()
                .map(|&(_, l)| l)
                .fold(f64::INFINITY, f64::min)
        })
        .fold(f64::NEG_INFINITY, f64::max)
        * 1.02
        + 1e-9
}

/// Print a paper-reference line (the number the original reports).
pub fn paper_says(s: &str) {
    println!("  [paper] {s}");
}

/// Which of the `known` entries the command line asks for, as indices in
/// the order given. Arguments starting with `--` (cargo appends `--bench`)
/// are ignored; no names selects every entry; an unknown name is an error
/// that lists the known ones.
pub fn select(args: &[String], known: &[&str]) -> Result<Vec<usize>, String> {
    let mut picked = Vec::new();
    for arg in args.iter().filter(|a| !a.starts_with("--")) {
        match known.iter().position(|k| k == arg) {
            Some(i) => picked.push(i),
            None => return Err(format!("unknown entry `{arg}`; known: {}", known.join(" "))),
        }
    }
    if picked.is_empty() {
        picked = (0..known.len()).collect();
    }
    Ok(picked)
}

#[cfg(test)]
mod tests {
    use super::select;

    const KNOWN: &[&str] = &["table2_datasets", "fig9_dcv", "ablation_ssp"];

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_names_selects_every_entry() {
        assert_eq!(select(&args(&[]), KNOWN), Ok(vec![0, 1, 2]));
    }

    #[test]
    fn cargo_bench_flag_is_ignored() {
        assert_eq!(select(&args(&["--bench"]), KNOWN), Ok(vec![0, 1, 2]));
        assert_eq!(select(&args(&["fig9_dcv", "--bench"]), KNOWN), Ok(vec![1]));
    }

    #[test]
    fn known_names_select_in_the_order_given() {
        assert_eq!(
            select(&args(&["ablation_ssp", "table2_datasets"]), KNOWN),
            Ok(vec![2, 0])
        );
    }

    #[test]
    fn unknown_name_is_an_error_listing_every_known_name() {
        let err = select(&args(&["fig9_dcv", "fig99", "--bench"]), KNOWN).unwrap_err();
        assert!(err.contains("fig99"), "{err}");
        for k in KNOWN {
            assert!(err.contains(k), "{err} lacks {k}");
        }
    }
}
