//! Virtual time: integer nanoseconds for exact, ordered arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or span of) virtual time, in nanoseconds since simulation
/// start.
///
/// Integer nanoseconds keep the simulation deterministic: cost-model
/// computations happen in `f64` but are rounded once, here, so accumulated
/// clocks never depend on summation order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from (non-negative, finite) seconds, rounding to nanoseconds.
    pub fn from_secs_f64(secs: f64) -> SimTime {
        debug_assert!(secs >= 0.0 && secs.is_finite(), "bad duration {secs}");
        SimTime((secs * 1e9).round() as u64)
    }

    pub const fn from_micros(us: u64) -> SimTime {
        SimTime(us * 1_000)
    }

    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    pub fn as_nanos(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Saturating difference: `self - other`, or zero when `other` is later.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_round_trips() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(3);
        let b = SimTime::from_micros(500);
        assert_eq!((a + b).as_nanos(), 3_500_000);
        assert_eq!((a - b).as_nanos(), 2_500_000);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_micros(1) - SimTime::from_micros(2);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_millis(2),
            SimTime::ZERO,
            SimTime::from_micros(1),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_millis(2));
    }
}
