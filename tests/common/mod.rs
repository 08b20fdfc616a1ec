//! Helpers shared by the integration-test binaries (`mod common;`).

use ps2::{RunReport, SimReport};

/// The run's rendered metrics JSON minus `wall_ms`, its single deliberate
/// wall-clock line — every remaining byte is virtual-time and must repeat
/// exactly for the same seed.
pub fn virtual_json(report: &SimReport) -> String {
    RunReport::from_sim(report)
        .to_json()
        .lines()
        .filter(|l| !l.contains("\"wall_ms\""))
        .collect::<Vec<_>>()
        .join("\n")
}
