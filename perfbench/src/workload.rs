//! What every workload provides to the run loop in `main.rs`.

use crate::digest::Digest;
use crate::trace::Tracer;
use vliw_arch::MachineConfig;
use vliw_ddg::DepGraph;
use vliw_lint::OptCertificate;
use vliw_sms::{FuelBudget, FuelSpent, ScheduledLoop};

/// Quality of the generated code over one whole pass.  Deterministic: the
/// population is fixed, so these read the same on every run of one commit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    /// Aggregate IPC, summed as `IpcAccountant` does.
    pub ipc: f64,
    /// Static code size: total VLIW slots per useful operation.
    pub slots_per_op: f64,
    /// Share of schedules whose II equals their MII.
    pub at_mii_share: f64,
    /// Share of solver certificates that pin the optimal II within the default budget.
    pub certified_exact_share: f64,
}

/// The untimed output check of one pass.
#[derive(Debug, Default)]
pub struct Checked {
    /// Every wrong output, described.
    pub problems: Vec<String>,
    /// Quality of the checked outputs.
    pub quality: Quality,
}

/// One workload: a fixed population of requests, run in seeded orders.
pub trait Workload {
    /// What one request returns.
    type Output;

    /// Seconds one pass took when the benchmark was defined (2-vCPU shared KVM
    /// guest, Intel Xeon).  A run makes `--seconds / PASS_S` passes, a count that
    /// does not depend on how fast the program under test is.
    const PASS_S: f64;

    /// Generate the inputs and construct the machines.
    fn build() -> Self;

    /// Number of requests in one pass.
    fn population(&self) -> usize;

    /// The untimed warm-up pass: a light, fixed sweep over every input.
    fn warm_up(&self);

    /// Run request `id` — the call that is timed.
    fn request(&self, id: usize) -> Self::Output;

    /// Run request `id` with spans around each layer call (the traced run).
    fn traced_request(&self, id: usize, t: &mut Tracer) -> Self::Output;

    /// Whether the request failed (an error, an unscheduled loop or a violation).
    fn failed(&self, out: &Self::Output) -> bool;

    /// Fold the request's schedule identity (II, stage count, comm count, unroll
    /// factor) into `d`.
    fn record(&self, out: &Self::Output, d: &mut Digest);

    /// Check one pass of outputs (indexed by request id) and measure their quality.
    fn check(&self, outs: &[Self::Output]) -> Checked;
}

/// A fuel budget no loop of the benchmark comes near: the scheduler runs exactly
/// as unbudgeted and reports its work receipt.
pub fn non_binding_budget() -> FuelBudget {
    FuelBudget::probes(u64::MAX)
}

/// Schedule `graph` with BSA under a non-binding fuel budget inside an
/// `sms.schedule` span and count its work receipt.
pub fn traced_bsa(
    t: &mut Tracer,
    machine: &MachineConfig,
    graph: &DepGraph,
) -> Option<(ScheduledLoop, FuelSpent)> {
    let mii = t.span("ddg.mii", |_| vliw_ddg::mii(graph, machine));
    let _ = std::hint::black_box(t.span("sms.order", |_| vliw_sms::sms_order(graph, mii.max(1))));
    let scheduled = t.span("sms.schedule", |_| {
        cvliw_core::BsaScheduler::new(machine)
            .with_fuel(non_binding_budget())
            .schedule_diag(graph)
    });
    let out = scheduled.ok()?;
    let spent = out.diagnostics.fuel.unwrap_or_default();
    t.count("sms.calls", 1);
    t.count("sms.probes", spent.probes);
    t.count("sms.attempts", spent.attempts);
    t.count("sms.ii_steps", spent.ii_steps);
    Some((out, spent))
}

/// Count one solver certificate into the traced run's solver counters.
pub fn count_solve(t: &mut Tracer, cert: &OptCertificate) {
    t.count("lint.solves", 1);
    t.count("lint.solver_probes", cert.spent.probes);
    t.count("lint.solver_exhausted", u64::from(cert.exhausted));
}

/// `numerator / denominator`, 0 for an empty denominator.
pub fn share(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}
