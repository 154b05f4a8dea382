//! Deterministic fuel budgets for the II search.
//!
//! A [`FuelBudget`] bounds the number of placement probes of one
//! [`crate::IiSearchDriver`] run, so a pathological loop cannot burn unbounded time
//! inside a sweep.  Probes dominate engine work, so a probe limit caps total effort
//! roughly uniformly across loop shapes.  Because the unit is a counter of
//! deterministic engine events (never wall clock), a budgeted run spends exactly the
//! same fuel on every machine, at every thread count, on every repeat: budgeted
//! results are bit-reproducible.
//!
//! The driver threads a [`FuelMeter`] through the search; when the probes run out
//! the search stops with [`crate::ScheduleError::BudgetExhausted`] carrying the exact
//! [`FuelSpent`] counters, which also surface in
//! [`crate::ScheduleDiagnostics::fuel`] on success.  The meter also counts attempts
//! and II steps (receipts report them); it limits them only in that it refuses
//! everything once the probes are exhausted.

use serde::{Deserialize, Serialize};

/// A limit on the placement probes of one scheduling run.  `None` means unlimited
/// (the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct FuelBudget {
    /// Maximum number of placement probes ([`crate::EngineView::probe`] /
    /// [`crate::EngineView::probe_unified`] calls) across the whole search.
    pub max_probes: Option<u64>,
}

impl FuelBudget {
    /// The unlimited budget.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget of `n` placement probes.
    pub fn probes(n: u64) -> Self {
        Self {
            max_probes: Some(n),
        }
    }
}

/// The fuel actually consumed by a scheduling run.  Deterministic: identical inputs
/// and budget produce identical counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuelSpent {
    /// Placement probes evaluated.
    pub probes: u64,
    /// Scheduling attempts (orderings) started.
    pub attempts: u64,
    /// Candidate IIs explored.
    pub ii_steps: u64,
}

impl FuelSpent {
    /// Accumulate another run's counters (the ladder sums its rungs).
    pub fn absorb(&mut self, other: FuelSpent) {
        self.probes += other.probes;
        self.attempts += other.attempts;
        self.ii_steps += other.ii_steps;
    }

    /// Total counted events across all dimensions.
    pub fn total(&self) -> u64 {
        self.probes + self.attempts + self.ii_steps
    }
}

/// The running meter the driver threads through one search: counts events and
/// refuses probes once the [`FuelBudget`] is spent.
#[derive(Debug, Clone)]
pub struct FuelMeter {
    budget: FuelBudget,
    spent: FuelSpent,
    exhausted: bool,
}

impl FuelMeter {
    /// A meter over `budget`.
    pub fn new(budget: FuelBudget) -> Self {
        Self {
            budget,
            spent: FuelSpent::default(),
            exhausted: false,
        }
    }

    /// Charge one placement probe; `false` once the probe budget is exhausted.
    #[inline]
    pub fn spend_probe(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        if matches!(self.budget.max_probes, Some(max) if self.spent.probes >= max) {
            self.exhausted = true;
            return false;
        }
        self.spent.probes += 1;
        true
    }

    /// Charge one scheduling attempt; `false` once the budget is exhausted.
    pub fn spend_attempt(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        self.spent.attempts += 1;
        true
    }

    /// Charge one II step; `false` once the budget is exhausted.
    pub fn spend_ii_step(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        self.spent.ii_steps += 1;
        true
    }

    /// Whether a probe has been refused because the budget ran out.
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// The counters so far.
    pub fn spent(&self) -> FuelSpent {
        self.spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_refuses() {
        let mut m = FuelMeter::new(FuelBudget::unlimited());
        for _ in 0..10_000 {
            assert!(m.spend_probe());
        }
        assert!(m.spend_attempt());
        assert!(m.spend_ii_step());
        assert!(!m.exhausted());
        assert_eq!(m.spent().probes, 10_000);
        assert_eq!(m.spent().total(), 10_002);
    }

    #[test]
    fn probe_budget_exhausts_exactly_at_the_limit() {
        let mut m = FuelMeter::new(FuelBudget::probes(3));
        assert!(m.spend_probe());
        assert!(m.spend_probe());
        assert!(m.spend_probe());
        assert!(!m.spend_probe());
        assert!(m.exhausted());
        assert_eq!(m.spent().probes, 3);
        // Once exhausted, every dimension refuses.
        assert!(!m.spend_attempt());
        assert!(!m.spend_ii_step());
        assert_eq!(m.spent().attempts, 0);
    }

    #[test]
    fn fuel_spent_absorbs_and_roundtrips() {
        let mut a = FuelSpent {
            probes: 5,
            attempts: 2,
            ii_steps: 1,
        };
        a.absorb(FuelSpent {
            probes: 1,
            attempts: 1,
            ii_steps: 1,
        });
        assert_eq!(a.probes, 6);
        assert_eq!(a.total(), 11);
        let json = serde_json::to_string(&a).unwrap();
        let back: FuelSpent = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn budget_constructors_compose() {
        assert_eq!(FuelBudget::probes(10).max_probes, Some(10));
        assert_eq!(FuelBudget::unlimited().max_probes, None);
    }
}
