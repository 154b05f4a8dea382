//! `unroll-deep`: one request is one loop on one `fig_unroll` machine, run
//! through the public `vliw_bench::Sweep` with the nine `fig_unroll` cells
//! (`Fixed(1..=8)` and `Explore { max_factor: 8 }`).

use crate::digest::Digest;
use crate::trace::Tracer;
use crate::workload::{share, traced_bsa, Checked, Quality, Workload};
use cvliw_core::{BsaScheduler, ClusterSchedule, SelectiveUnroller, UnrollPolicy};
use vliw_arch::MachineConfig;
use vliw_bench::{Algorithm, CellId, CorpusResult, Sweep, SweepResults};
use vliw_ddg::DepGraph;
use vliw_metrics::{CodeSizeModel, CodeSizeReport, IpcAccountant, LoopContribution};
use vliw_workloads::LoopCorpus;

/// The largest unroll factor of the `fig_unroll` cells.
const MAX_FACTOR: u32 = 8;

/// Loops of at most this many nodes are in the population (95 of the 192 loops;
/// their x8 kernels reach 144 nodes).  The larger loops cost up to 11 s per
/// request on the 4-cluster machine, more than a whole pass of this population.
const MAX_NODES: usize = 18;

/// The nine `fig_unroll` policies, in cell order.
fn policies() -> Vec<UnrollPolicy> {
    (1..=MAX_FACTOR)
        .map(UnrollPolicy::Fixed)
        .chain([UnrollPolicy::Explore {
            max_factor: MAX_FACTOR,
        }])
        .collect()
}

/// One machine with its declared sweep.
struct Target {
    machine: MachineConfig,
    code_model: CodeSizeModel,
    sweep: Sweep,
    cells: Vec<CellId>,
}

/// The workload's inputs.
pub struct UnrollDeep {
    /// One single-loop corpus per population loop.
    corpora: Vec<[LoopCorpus; 1]>,
    targets: Vec<Target>,
    /// `(loop, target)` of every request.
    requests: Vec<(usize, usize)>,
}

/// Replay a cluster schedule (kernel and exact-unroll remainder) through the
/// differential oracle; `None` when clean.
fn replay(machine: &MachineConfig, graph: &DepGraph, cs: &ClusterSchedule) -> Option<String> {
    let kernel = vliw_sim::check_schedule(
        machine,
        &cs.scheduled_graph,
        &cs.schedule,
        vliw_sim::verification_iterations(&cs.scheduled_graph),
    );
    if !kernel.is_clean() {
        return Some(format!("kernel: {:?}", kernel.findings));
    }
    let rem = cs.remainder.as_ref()?;
    let report = vliw_sim::check_schedule(
        machine,
        graph,
        &rem.schedule,
        vliw_sim::verification_iterations(graph),
    );
    (!report.is_clean()).then(|| format!("remainder: {:?}", report.findings))
}

/// The IPC contribution and code size of one cluster schedule, as `run_corpus`
/// accounts them.
fn account(cs: &ClusterSchedule, model: &CodeSizeModel) -> (LoopContribution, CodeSizeReport) {
    let contribution = LoopContribution::new(
        &cs.schedule,
        cs.scheduled_graph.iterations,
        cs.original_ops,
        cs.original_iterations,
        cs.invocations,
        cs.unroll_factor,
    )
    .with_epilogue_cycles(cs.epilogue_cycles_per_invocation());
    (contribution, cs.code_size(model))
}

/// A schedule's identity: II, stage count, comm count and unroll factor.
type Identity = (u32, u32, u64, u32);

/// The identity of the schedule one sweep cell produced for the request's single
/// loop (`None` when the cell could not schedule it).
fn swept_identity(result: &CorpusResult) -> Option<Identity> {
    let c = result.contributions.first()?;
    (result.failed_loops == 0).then_some((
        c.ii,
        c.stage_count,
        result.diagnostics.total_comms,
        c.unroll_factor,
    ))
}

impl UnrollDeep {
    fn parts(&self, id: usize) -> (&[LoopCorpus; 1], &Target) {
        let (l, m) = self.requests[id];
        (&self.corpora[l], &self.targets[m])
    }
}

impl Workload for UnrollDeep {
    type Output = SweepResults;
    const PASS_S: f64 = 6.8;

    fn build() -> Self {
        let corpora: Vec<[LoopCorpus; 1]> = LoopCorpus::all()
            .into_iter()
            .flat_map(|c| {
                let benchmark = c.benchmark;
                c.loops.into_iter().map(move |g| (benchmark, g))
            })
            .filter(|(_, g)| g.n_nodes() <= MAX_NODES)
            .map(|(benchmark, g)| {
                [LoopCorpus {
                    benchmark,
                    loops: vec![g],
                }]
            })
            .collect();
        let targets: Vec<Target> = [
            MachineConfig::two_cluster(1, 1),
            MachineConfig::four_cluster(1, 1),
        ]
        .into_iter()
        .map(|machine| {
            let mut sweep = Sweep::new();
            let cells = policies()
                .into_iter()
                .map(|policy| sweep.cell(machine.clone(), Algorithm::Bsa, policy))
                .collect();
            Target {
                code_model: CodeSizeModel::new(&machine),
                machine,
                sweep,
                cells,
            }
        })
        .collect();
        let requests = (0..targets.len())
            .flat_map(|m| (0..corpora.len()).map(move |l| (l, m)))
            .collect();
        Self {
            corpora,
            targets,
            requests,
        }
    }

    fn population(&self) -> usize {
        self.requests.len()
    }

    fn warm_up(&self) {
        // Every (loop, machine) once at factors 1 and 2.
        for id in 0..self.requests.len() {
            let (corpus, target) = self.parts(id);
            let unroller = SelectiveUnroller::new(BsaScheduler::new(&target.machine));
            for factor in [1, 2] {
                let _ = std::hint::black_box(
                    unroller.schedule_with_policy(&corpus[0].loops[0], UnrollPolicy::Fixed(factor)),
                );
            }
        }
    }

    fn request(&self, id: usize) -> Self::Output {
        let (corpus, target) = self.parts(id);
        target.sweep.run(corpus)
    }

    fn traced_request(&self, id: usize, t: &mut Tracer) -> Self::Output {
        let (corpus, target) = self.parts(id);
        let graph = &corpus[0].loops[0];
        t.span("request", |t| {
            let out = t.span("bench.sweep", |_| target.sweep.run(corpus));
            // The same nine jobs, called directly: the sweep's overhead is the
            // difference.
            let unroller = SelectiveUnroller::new(BsaScheduler::new(&target.machine));
            let direct: Vec<_> = policies()
                .into_iter()
                .map(|policy| {
                    let name = match policy {
                        UnrollPolicy::Explore { .. } => "core.explore",
                        _ => "core.fixed",
                    };
                    t.span(name, |_| unroller.schedule_with_policy(graph, policy))
                })
                .collect();
            // The engine's layers on every kernel the factor axis schedules.
            for factor in 1..=MAX_FACTOR {
                if u64::from(factor) > graph.iterations {
                    break;
                }
                let kernel = if factor == 1 {
                    graph.clone()
                } else {
                    let unrolled = t.span("ddg.unroll", |_| vliw_ddg::unroll_exact(graph, factor));
                    t.count("ddg.unrolled_nodes", unrolled.kernel.n_nodes() as u64);
                    unrolled.kernel
                };
                let _ = std::hint::black_box(traced_bsa(t, &target.machine, &kernel));
            }
            for cs in direct.iter().flatten() {
                let _ = std::hint::black_box(
                    t.span("metrics.account", |_| account(cs, &target.code_model)),
                );
                let _ = std::hint::black_box(
                    t.span("sim.check", |_| replay(&target.machine, graph, cs)),
                );
            }
            out
        })
    }

    fn failed(&self, out: &Self::Output) -> bool {
        // A request fails when any cell could not schedule its loop.
        (0..out.len()).any(|cell| swept_identity(&out.cell(cell)[0].result).is_none())
    }

    fn record(&self, out: &Self::Output, d: &mut Digest) {
        for cell in 0..out.len() {
            match swept_identity(&out.cell(cell)[0].result) {
                Some((ii, stage_count, comms, factor)) => {
                    d.word(u64::from(ii));
                    d.word(u64::from(stage_count));
                    d.word(comms);
                    d.word(u64::from(factor));
                }
                None => d.word(u64::MAX),
            }
        }
    }

    fn check(&self, outs: &[Self::Output]) -> Checked {
        let mut checked = Checked::default();
        let mut acc = IpcAccountant::new();
        let mut code = CodeSizeReport::zero();
        let mut at_mii = 0u64;
        let mut cells = 0u64;
        let mut exact = 0u64;
        let mut solves = 0u64;
        for (id, out) in outs.iter().enumerate() {
            let (corpus, target) = self.parts(id);
            let graph = &corpus[0].loops[0];
            // The sweep keeps no schedules, so the check re-derives each job
            // directly, requires the same schedule identity and replays it.
            let unroller = SelectiveUnroller::new(BsaScheduler::new(&target.machine));
            let mut base_ii = None;
            for (policy, &cell) in policies().into_iter().zip(&target.cells) {
                let what = format!("{} on {} ({})", graph.name, target.machine, policy.label());
                let swept = &out.cell(cell)[0].result;
                let cs = match (
                    unroller.schedule_with_policy(graph, policy),
                    swept_identity(swept),
                ) {
                    (Ok(cs), Some(identity)) => {
                        let direct = (
                            cs.schedule.ii(),
                            cs.schedule.stage_count(),
                            cs.diagnostics.n_comms as u64,
                            cs.unroll_factor,
                        );
                        if direct != identity {
                            checked.problems.push(format!(
                                "{what}: sweep schedule {identity:?} differs from the direct job's {direct:?}"
                            ));
                        }
                        cs
                    }
                    (Ok(_), None) => {
                        checked
                            .problems
                            .push(format!("{what}: the sweep lost the loop"));
                        continue;
                    }
                    (Err(e), _) => {
                        checked.problems.push(format!("{what}: {e}"));
                        continue;
                    }
                };
                if let Some(finding) = replay(&target.machine, graph, &cs) {
                    checked.problems.push(format!("{what}: {finding}"));
                }
                if policy == UnrollPolicy::Fixed(1) {
                    base_ii = Some(cs.schedule.ii());
                }
                let (contribution, size) = account(&cs, &target.code_model);
                acc.add(contribution);
                code.accumulate(size);
                at_mii += u64::from(swept.diagnostics.at_mii == 1);
                cells += 1;
            }
            let cert = vliw_verify::solve_certificate(&target.machine, graph, base_ii);
            exact += u64::from(cert.is_exact());
            solves += 1;
        }
        checked.quality = Quality {
            ipc: acc.ipc(),
            slots_per_op: share(code.total_slots, code.useful_ops),
            at_mii_share: share(at_mii, cells),
            certified_exact_share: share(exact, solves),
        };
        checked
    }
}
