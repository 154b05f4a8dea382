//! The lint registry: every lint this crate can emit, with a stable id and a
//! fixed severity.
//!
//! Deny-level lints are the *certification* set — together they statically prove
//! the four invariants the dynamic verifier checks by replay (dependence legality,
//! reservation-table conflict freedom, register-pressure bounds, the
//! `NCYCLES`-window) plus the code-size clamp promoted from a `debug_assert!`.
//! Warn-level lints are *quality* observations that never fail certification.
//! Ids are stable API: reports and CI assertions key on them.

use crate::diagnostics::Severity;

/// A registered lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintDescriptor {
    /// Stable kebab-case id.
    pub id: &'static str,
    /// Fixed severity.
    pub severity: Severity,
    /// One-line description.
    pub summary: &'static str,
}

/// A node was never placed.
pub const UNSCHEDULED_NODE: LintDescriptor = LintDescriptor {
    id: "unscheduled-node",
    severity: Severity::Deny,
    summary: "a graph node has no placement in the schedule",
};

/// A placement names a nonexistent cluster, a foreign cluster's unit, a unit of
/// the wrong kind, or a bus row.
pub const BAD_PLACEMENT: LintDescriptor = LintDescriptor {
    id: "bad-placement",
    severity: Severity::Deny,
    summary: "an operation is placed on an impossible resource",
};

/// A dependence edge is violated (negative slack).
pub const DEPENDENCE: LintDescriptor = LintDescriptor {
    id: "dependence-violated",
    severity: Severity::Deny,
    summary: "a dependence edge misses its latency by a negative slack",
};

/// A cross-cluster value edge has no recorded bus transfer.
pub const MISSING_COMMUNICATION: LintDescriptor = LintDescriptor {
    id: "missing-communication",
    severity: Severity::Deny,
    summary: "a value consumed in another cluster has no communication",
};

/// Two operations share a functional unit in the same kernel row.
pub const FU_CONFLICT: LintDescriptor = LintDescriptor {
    id: "fu-conflict",
    severity: Severity::Deny,
    summary: "two operations reserve the same functional unit in one kernel row",
};

/// Two transfers overlap on one bus in the same kernel row.
pub const BUS_CONFLICT: LintDescriptor = LintDescriptor {
    id: "bus-conflict",
    severity: Severity::Deny,
    summary: "two transfers reserve the same bus in one kernel row",
};

/// A cluster's MaxLive exceeds its register file.
pub const REGISTER_PRESSURE: LintDescriptor = LintDescriptor {
    id: "register-pressure",
    severity: Severity::Deny,
    summary: "a cluster needs more simultaneously live registers than it has",
};

/// `NCYCLES` drifted outside its provable window around the makespan.
pub const NCYCLES_WINDOW: LintDescriptor = LintDescriptor {
    id: "ncycles-window",
    severity: Severity::Deny,
    summary: "the IPC denominator NCYCLES drifted outside the makespan window",
};

/// The code-size accounting invariant `ops·SC ≤ (2(SC−1)+1)·II·width` is broken
/// (promoted from a `debug_assert!` so release builds check it too).
pub const CODE_SIZE_CLAMP: LintDescriptor = LintDescriptor {
    id: "code-size-clamp",
    severity: Severity::Deny,
    summary: "useful operation slots exceed the loop's total code-size slots",
};

/// The achieved II exceeds the *solver-certified* lower bound — the
/// certificate-backed upgrade of [`II_SLACK`], emitted instead of it when an
/// [`crate::optimal::OptCertificate`] is attached to the certifier.
pub const CERTIFIED_II_GAP: LintDescriptor = LintDescriptor {
    id: "certified-ii-gap",
    severity: Severity::Warn,
    summary: "the schedule's II is above the solver-certified lower bound",
};

/// A value is computed but never read by any placed consumer.
pub const DEAD_VALUE: LintDescriptor = LintDescriptor {
    id: "dead-value",
    severity: Severity::Warn,
    summary: "a computed value has no reader (dead copy after unrolling?)",
};

/// The achieved II exceeds the lower bound MII.
pub const II_SLACK: LintDescriptor = LintDescriptor {
    id: "ii-slack",
    severity: Severity::Warn,
    summary: "the schedule's II is above the MII lower bound",
};

/// Operation counts are lopsided across clusters.
pub const CLUSTER_IMBALANCE: LintDescriptor = LintDescriptor {
    id: "cluster-imbalance",
    severity: Severity::Warn,
    summary: "operations are distributed very unevenly across clusters",
};

/// A cluster's MaxLive sits within the cliff margin of its register file — the
/// regime where one more unroll copy collapses the schedule (fig_unroll, U = 8).
pub const REGISTER_CLIFF: LintDescriptor = LintDescriptor {
    id: "register-cliff",
    severity: Severity::Warn,
    summary: "register pressure is within the cliff margin of the file size",
};

/// Every registered lint, deny set first, each group in id order.
pub const ALL: [LintDescriptor; 14] = [
    BAD_PLACEMENT,
    BUS_CONFLICT,
    CODE_SIZE_CLAMP,
    DEPENDENCE,
    FU_CONFLICT,
    MISSING_COMMUNICATION,
    NCYCLES_WINDOW,
    REGISTER_PRESSURE,
    UNSCHEDULED_NODE,
    CERTIFIED_II_GAP,
    CLUSTER_IMBALANCE,
    DEAD_VALUE,
    II_SLACK,
    REGISTER_CLIFF,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        for (i, a) in ALL.iter().enumerate() {
            for b in &ALL[i + 1..] {
                assert_ne!(a.id, b.id, "duplicate lint id");
            }
        }
    }

    #[test]
    fn registry_is_deny_first_then_sorted() {
        let deny: Vec<&str> = ALL
            .iter()
            .filter(|l| l.severity == Severity::Deny)
            .map(|l| l.id)
            .collect();
        let warn: Vec<&str> = ALL
            .iter()
            .filter(|l| l.severity == Severity::Warn)
            .map(|l| l.id)
            .collect();
        assert_eq!(deny.len() + warn.len(), ALL.len());
        let mut sorted = deny.clone();
        sorted.sort_unstable();
        assert_eq!(deny, sorted);
        let mut sorted = warn.clone();
        sorted.sort_unstable();
        assert_eq!(warn, sorted);
        // The deny block precedes the warn block.
        let first_warn = ALL
            .iter()
            .position(|l| l.severity == Severity::Warn)
            .unwrap();
        assert!(ALL[..first_warn]
            .iter()
            .all(|l| l.severity == Severity::Deny));
        assert!(ALL[first_warn..]
            .iter()
            .all(|l| l.severity == Severity::Warn));
    }
}
