//! `audit`: one request is `vliw_verify::check_case` on one generated fuzz case —
//! five policies scheduled, validated, simulated, certified and solved, plus the
//! case's exact-unroll audit.

use crate::digest::Digest;
use crate::trace::Tracer;
use crate::workload::{count_solve, share, traced_bsa, Checked, Quality, Workload};
use std::collections::BTreeSet;
use vliw_arch::MachineSpace;
use vliw_metrics::{CodeSizeModel, CodeSizeReport, IpcAccountant, LoopContribution};
use vliw_verify::{generate_case, CaseOutcome, FuzzCase, Policy, PolicyOutcome};

/// The fixed campaign the population is drawn from (the `verify` gate's default
/// seed) and its size.
const CAMPAIGN_SEED: u64 = 0xC1B0;
const CASES: u64 = 128;

/// The workload's inputs.
pub struct Audit {
    cases: Vec<FuzzCase>,
}

/// Every policy outcome of a case, the unroll audit's included.
fn outcomes(out: &CaseOutcome) -> impl Iterator<Item = &PolicyOutcome> {
    out.outcomes
        .iter()
        .map(|(_, o)| o)
        .chain(out.unrolled.as_ref().map(|u| &u.outcome))
}

/// The BSA schedule's IPC contribution and code size, accounted as
/// `run_corpus` accounts a non-unrolled loop.
fn account_bsa(
    case: &FuzzCase,
    schedule: &vliw_sms::ModuloSchedule,
) -> (LoopContribution, CodeSizeReport) {
    let g = &case.graph;
    let contribution = LoopContribution::new(
        schedule,
        g.iterations,
        g.n_nodes(),
        g.iterations,
        g.invocations,
        1,
    );
    let size = CodeSizeModel::new(&case.machine).loop_size(schedule, g.n_nodes());
    (contribution, size)
}

impl Workload for Audit {
    type Output = CaseOutcome;
    const PASS_S: f64 = 6.1;

    fn build() -> Self {
        let space = MachineSpace::default();
        Self {
            cases: (0..CASES)
                .map(|i| generate_case(CAMPAIGN_SEED, i, &space))
                .collect(),
        }
    }

    fn population(&self) -> usize {
        self.cases.len()
    }

    fn warm_up(&self) {
        // Every case once through BSA and N&E, unaudited.
        for case in &self.cases {
            for policy in [Policy::Bsa, Policy::NystromEichenberger] {
                let _ = std::hint::black_box(policy.schedule(&case.machine, &case.graph));
            }
        }
    }

    fn request(&self, id: usize) -> Self::Output {
        vliw_verify::check_case(self.cases[id].clone())
    }

    fn traced_request(&self, id: usize, t: &mut Tracer) -> Self::Output {
        let case = &self.cases[id];
        let (machine, graph) = (&case.machine, &case.graph);
        t.span("request", |t| {
            let out = t.span("verify.check_case", |_| {
                vliw_verify::check_case(case.clone())
            });
            // The layers of `check_case`, called one by one.
            let schedules: Vec<_> = Policy::ALL
                .iter()
                .map(|&p| {
                    let r = t.span("verify.schedule", |_| {
                        vliw_sms::contain_schedule(|| p.schedule(machine, graph))
                    });
                    (p, r)
                })
                .collect();
            if let Some((bsa, _)) = traced_bsa(t, machine, graph) {
                let _ = std::hint::black_box(
                    t.span("metrics.account", |_| account_bsa(case, &bsa.schedule)),
                );
            }
            let best_ii = |target: &vliw_arch::MachineConfig| {
                schedules
                    .iter()
                    .filter(|(p, _)| p.target_machine(machine) == *target)
                    .filter_map(|(_, r)| r.as_ref().ok().map(|o| o.diagnostics.ii))
                    .min()
            };
            let base = t.span("lint.solve", |_| {
                vliw_verify::solve_certificate(machine, graph, best_ii(machine))
            });
            count_solve(t, &base);
            let unified_target = Policy::UnifiedSms.target_machine(machine);
            let unified = if unified_target == *machine {
                base.clone()
            } else {
                let cert = t.span("lint.solve", |_| {
                    vliw_verify::solve_certificate(&unified_target, graph, best_ii(&unified_target))
                });
                count_solve(t, &cert);
                cert
            };
            let iterations = vliw_sim::verification_iterations(graph);
            for (p, r) in &schedules {
                let Ok(scheduled) = r else { continue };
                let target = p.target_machine(machine);
                let cert = if *p == Policy::UnifiedSms {
                    &unified
                } else {
                    &base
                };
                let _ = std::hint::black_box(t.span("sim.check", |_| {
                    vliw_sim::check_schedule(&target, graph, &scheduled.schedule, iterations)
                }));
                let _ = std::hint::black_box(t.span("lint.certify", |_| {
                    vliw_lint::Certifier::new(&target)
                        .with_certificate(cert.clone())
                        .check(graph, &scheduled.schedule, iterations)
                }));
            }
            let factor = case.unroll_factor;
            if factor >= 2 && u64::from(factor) <= graph.iterations {
                let unrolled = t.span("ddg.unroll", |_| vliw_ddg::unroll_exact(graph, factor));
                t.count("ddg.unrolled_nodes", unrolled.kernel.n_nodes() as u64);
                let _ = std::hint::black_box(t.span("verify.unroll_audit", |_| {
                    vliw_verify::check_unrolled(machine, graph, factor)
                }));
            }
            out
        })
    }

    fn failed(&self, out: &Self::Output) -> bool {
        // `Unschedulable` is legitimate coverage; a violation or a typed
        // rejection is a failure.
        outcomes(out).any(PolicyOutcome::is_violation)
    }

    fn record(&self, out: &Self::Output, d: &mut Digest) {
        for outcome in outcomes(out) {
            match outcome {
                PolicyOutcome::Scheduled {
                    ii,
                    mii,
                    certificate,
                    ..
                } => {
                    d.word(u64::from(*ii));
                    d.word(u64::from(*mii));
                    d.word(u64::from(certificate.lower_bound().unwrap_or(0)));
                    d.word(u64::from(certificate.is_exact()));
                }
                PolicyOutcome::Unschedulable => d.word(u64::MAX - 1),
                PolicyOutcome::Rejected { .. } => d.word(u64::MAX),
            }
        }
        d.word(out.unrolled.as_ref().map_or(0, |u| u64::from(u.factor)));
    }

    fn check(&self, outs: &[Self::Output]) -> Checked {
        let mut checked = Checked::default();
        let mut acc = IpcAccountant::new();
        let mut code = CodeSizeReport::zero();
        let (mut scheduled, mut at_mii) = (0u64, 0u64);
        let (mut certificates, mut exact) = (0u64, 0u64);
        for (case, out) in self.cases.iter().zip(outs) {
            for (policy, outcome) in &out.outcomes {
                if outcome.is_violation() {
                    checked.problems.push(format!(
                        "case {} ({}): {outcome:?}",
                        case.index,
                        policy.label()
                    ));
                }
            }
            if let Some(u) = out.unrolled.as_ref().filter(|u| u.outcome.is_violation()) {
                checked.problems.push(format!(
                    "case {} (unrolled x{}): {:?}",
                    case.index, u.factor, u.outcome
                ));
            }
            // One certificate per solved (machine, loop), however many policies
            // carry it.
            let mut seen = BTreeSet::new();
            for outcome in outcomes(out) {
                if let PolicyOutcome::Scheduled {
                    ii,
                    mii,
                    certificate,
                    ..
                } = outcome
                {
                    scheduled += 1;
                    at_mii += u64::from(ii == mii);
                    if seen.insert((certificate.machine.clone(), certificate.loop_name.clone())) {
                        certificates += 1;
                        exact += u64::from(certificate.is_exact());
                    }
                }
            }
            // Code quality of the BSA policy: re-derive its schedule, which must
            // carry the II the audit reported.
            let reported = out.outcomes.iter().find_map(|(p, o)| match o {
                PolicyOutcome::Scheduled { ii, .. } if *p == Policy::Bsa => Some(*ii),
                _ => None,
            });
            if let Ok(bsa) = Policy::Bsa.schedule(&case.machine, &case.graph) {
                if reported != Some(bsa.diagnostics.ii) {
                    checked.problems.push(format!(
                        "case {}: BSA rescheduled at II {} but the audit reported {reported:?}",
                        case.index, bsa.diagnostics.ii
                    ));
                }
                let (contribution, size) = account_bsa(case, &bsa.schedule);
                acc.add(contribution);
                code.accumulate(size);
            }
        }
        checked.quality = Quality {
            ipc: acc.ipc(),
            slots_per_op: share(code.total_slots, code.useful_ops),
            at_mii_share: share(at_mii, scheduled),
            certified_exact_share: share(exact, certificates),
        };
        checked
    }
}
