//! Service-level objectives: [`preset_slos`], the per-preset objectives
//! `ps2-run --slo-json` holds a run to, and [`SLO_WINDOW`], the one window
//! width they are judged over.
//!
//! Nothing here measures or gates anything: cross-commit exactness of
//! *virtual-time* results is pinned by `tests/golden_runs.rs`, and host time
//! is measured by `benchmark/`.

use crate::simnet::SloObjective;
use crate::SimTime;

/// The window width every judged run uses: `ps2-run --slo-json` judges its
/// objectives over it. The burn spans
/// ([`SLO_SLOW_WINDOWS`](crate::simnet::watchdog::SLO_SLOW_WINDOWS) of them)
/// are sized for it.
pub const SLO_WINDOW: SimTime = SimTime::from_millis(1);

/// The service-level objectives a preset's PS traffic is held to, judged
/// as each of the run's [`SLO_WINDOW`]-wide windows closes
/// ([`SimBuilder::slo`](crate::SimBuilder::slo)).
///
/// Latency targets are calibrated from healthy seed-42 runs of each preset
/// at gate scale (4 workers / 4 servers): the target sits ~2× above the
/// observed p999, so a healthy run never burns budget while a straggling
/// server or a saturated NIC trips the multi-window burn alert. Unknown
/// presets (including ad-hoc `--rows/--dim` shapes) get the generic tier.
pub fn preset_slos(preset: Option<&str>) -> Vec<SloObjective> {
    // Serving presets gate the pull path only (serving issues no pushes) and
    // carry the preset name in the objective, so a burn alert says
    // *which* serving SLO is burning, not just "some pull somewhere".
    if let Some(p @ ("serve-kddb" | "serve-kdd12")) = preset {
        // ~2× above the healthy seed-1/2 pull p999 of each serve preset
        // (observed: serve-kddb 213 µs, serve-kdd12 221 µs).
        let pull_ns = match p {
            "serve-kddb" => 450_000,
            _ => 500_000,
        };
        return vec![
            SloObjective::latency_p999(
                &format!("{p}.pull.p999"),
                "ps.client.op.pull.latency",
                SimTime(pull_ns),
            ),
            SloObjective::error_rate(
                &format!("{p}.timeouts"),
                "ps.client.timeouts",
                "ps.client.envelopes",
                10,
            ),
        ];
    }
    // (pull p999 target, push p999 target), nanoseconds of virtual time.
    // Healthy p999s observed: kddb lr/svm 226–318 µs, kdd12 lr 214 µs. The
    // rest (ctr, gender, ad-hoc shapes) get a roomy bound.
    let (pull_ns, push_ns) = match preset {
        Some("kddb" | "kdd12") => (1_000_000, 1_000_000),
        _ => (2_000_000, 2_000_000),
    };
    vec![
        SloObjective::latency_p999(
            "ps.pull.p999",
            "ps.client.op.pull.latency",
            SimTime(pull_ns),
        ),
        SloObjective::latency_p999(
            "ps.push.p999",
            "ps.client.op.push.latency",
            SimTime(push_ns),
        ),
        // At most 1% of fabric envelopes may time out.
        SloObjective::error_rate(
            "ps.timeouts",
            "ps.client.timeouts",
            "ps.client.envelopes",
            10,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ml::serve::SERVE_PRESETS;

    #[test]
    fn serve_presets_have_named_slos() {
        for preset in SERVE_PRESETS {
            let objectives = preset_slos(Some(preset));
            assert!(
                objectives.iter().any(|o| o.name.contains(preset)),
                "{preset}: objectives must carry the preset name"
            );
        }
    }
}
