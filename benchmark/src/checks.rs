//! Correctness checks and failure counting, run on every pass. A failed
//! check fails the command.

use ps2::simnet::MetricsSnapshot;

use crate::workloads::{Pass, Scale, Workload, SERVE_REFERENCE, SERVE_SLO_NS};

/// Operations a pass attempted and how many of them failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
}

/// Sum of every counter whose name ends in `suffix` (`ps.client.envelopes`,
/// `spark.fabric.envelopes`, `ps.clock.envelopes`, …).
pub fn suffix_sum(m: &MetricsSnapshot, suffix: &str) -> u64 {
    m.counters()
        .filter(|(k, _)| k.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

/// Attempted = fabric envelopes + dataflow tasks (a served pull is one
/// envelope). Failed = client timeouts + task retries and failures + pulls
/// never answered + pulls later than the SLO at rates up to the reference
/// rate. Past the reference rate a late pull is what the sweep is there to
/// find; it is reported as `serve.late_frac`, not as a failure.
pub fn counts(pass: &Pass) -> Counts {
    let mut c = Counts::default();
    for r in &pass.reports {
        let m = &r.metrics;
        c.attempted += suffix_sum(m, ".envelopes") + m.counter("spark.tasks_dispatched");
        c.failed += suffix_sum(m, ".timeouts")
            + m.counter("spark.task_retries")
            + m.counter("executor.task_failures");
    }
    for (i, rate) in pass.rates.iter().enumerate() {
        c.failed += rate.issued - rate.completed;
        if i <= SERVE_REFERENCE {
            c.failed += rate.late;
        }
    }
    c
}

/// Mean loss over the last fifth of the curve.
pub fn tail_mean_loss(points: &[(f64, f64)]) -> f64 {
    let n = (points.len() / 5).max(1);
    let tail = &points[points.len() - n..];
    tail.iter().map(|p| p.1).sum::<f64>() / n as f64
}

/// Check one pass; hands back its operation counts (with `failed == 0`).
pub fn check(w: Workload, scale: Scale, pass: &Pass) -> Result<Counts, String> {
    for r in &pass.reports {
        let recoveries = r.metrics.counter("ps.fleet.recoveries");
        if recoveries != 0 {
            return Err(format!(
                "{recoveries} PS fleet recoveries in a fault-free run"
            ));
        }
        if r.dropped_msgs != 0 {
            return Err(format!(
                "{} messages dropped in a fault-free run",
                r.dropped_msgs
            ));
        }
    }
    if let Some(curve) = &pass.curve {
        if !curve.is_sane() {
            return Err("loss curve is empty or not finite".into());
        }
        // The loss numbers were measured at the full shape only.
        if let (Some(loss), false) = (w.loss_numbers(), scale.quick) {
            let tail = tail_mean_loss(&curve.points);
            if tail > loss.bar {
                return Err(format!(
                    "training did not converge: mean loss of the last fifth is {tail:.6}, bar {}",
                    loss.bar
                ));
            }
        }
    }
    for (i, rate) in pass.rates.iter().enumerate() {
        if rate.issued == 0 {
            return Err(format!("no pulls issued at {} kpps", rate.rate_kpps));
        }
        if rate.issued != rate.completed {
            return Err(format!(
                "{} of {} pulls unanswered at {} kpps",
                rate.issued - rate.completed,
                rate.issued,
                rate.rate_kpps
            ));
        }
        if i <= SERVE_REFERENCE && !rate.meets_slo() {
            return Err(format!(
                "p{:.1} {:.0} ns misses the {} ns SLO (drain {} ns) at {} kpps, below the knee",
                rate.tail_q * 100.0,
                rate.tail_ns,
                SERVE_SLO_NS,
                rate.drain_ns,
                rate.rate_kpps
            ));
        }
    }
    let c = counts(pass);
    if c.attempted == 0 {
        return Err("pass attempted no operation".into());
    }
    if c.failed != 0 {
        return Err(format!("{} of {} operations failed", c.failed, c.attempted));
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_mean_takes_the_last_fifth() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, i as f64)).collect();
        assert_eq!(tail_mean_loss(&pts), 8.5);
        assert_eq!(tail_mean_loss(&pts[..3]), 2.0);
    }
}
