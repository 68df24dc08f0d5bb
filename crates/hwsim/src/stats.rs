//! Simulation statistics: busy/utilization tracking.

use crate::time::Cycles;

/// Tracks how many cycles a unit was busy, for utilization reports
/// (e.g. per-engine busy fraction in the cycle report).
#[derive(Debug, Clone, Default)]
pub struct Utilization {
    busy: u64,
    busy_since: Option<Cycles>,
}

impl Utilization {
    /// A fresh, idle tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark busy starting at `now`. Idempotent if already busy.
    pub fn begin(&mut self, now: Cycles) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
        }
    }

    /// Mark idle at `now`, accumulating the busy interval.
    ///
    /// # Panics
    /// Panics if `now` precedes the matching [`begin`](Self::begin).
    pub fn end(&mut self, now: Cycles) {
        if let Some(start) = self.busy_since.take() {
            assert!(now >= start, "utilization interval ends before it begins");
            self.busy += now.get() - start.get();
        }
    }

    /// Total busy cycles accumulated.
    #[must_use]
    pub fn busy_cycles(&self) -> Cycles {
        Cycles(self.busy)
    }

    /// Busy fraction of `total` (0.0 if `total` is zero).
    #[must_use]
    pub fn fraction_of(&self, total: Cycles) -> f64 {
        if total.get() == 0 {
            0.0
        } else {
            self.busy as f64 / total.get() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_intervals() {
        let mut u = Utilization::new();
        u.begin(Cycles(10));
        u.end(Cycles(30));
        u.begin(Cycles(50));
        u.end(Cycles(60));
        assert_eq!(u.busy_cycles(), Cycles(30));
        assert!((u.fraction_of(Cycles(100)) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn utilization_begin_idempotent() {
        let mut u = Utilization::new();
        u.begin(Cycles(10));
        u.begin(Cycles(20)); // ignored: already busy since 10
        u.end(Cycles(30));
        assert_eq!(u.busy_cycles(), Cycles(20));
    }

    #[test]
    fn utilization_end_without_begin_is_noop() {
        let mut u = Utilization::new();
        u.end(Cycles(100));
        assert_eq!(u.busy_cycles(), Cycles(0));
    }

    #[test]
    fn utilization_zero_total() {
        let u = Utilization::new();
        assert_eq!(u.fraction_of(Cycles(0)), 0.0);
    }
}
