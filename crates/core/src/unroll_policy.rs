//! Loop-unrolling policies (Section 5.2 and Figure 6 of the paper), generalized to a
//! factor-parameterized policy space.
//!
//! Three policies are evaluated in the paper's Figure 8:
//!
//! * **No unrolling** ([`UnrollPolicy::None`]) — schedule the loop body as-is;
//! * **Unrolling** ([`UnrollPolicy::ByClusters`]) — unroll *every* loop by the number
//!   of clusters before scheduling;
//! * **Selective unrolling** ([`UnrollPolicy::Selective`]) — schedule the original
//!   body first and unroll (by the number of clusters) only when (a) the schedule was
//!   limited by the communication buses and (b) a quick analytical estimate says the
//!   communications of the unrolled body fit inside its initiation interval
//!   (Figure 6).
//!
//! The paper only ever answers its titular question at the single point
//! `U = n_clusters`.  Two additional policies open the factor dimension:
//!
//! * [`UnrollPolicy::Fixed`]`(u)` — unroll every loop by an explicit factor `u`,
//!   under the **exact** iteration model ([`vliw_ddg::unroll_exact`]): the kernel
//!   covers `⌊NITER/u⌋` iterations and the leftover `NITER mod u` iterations run as
//!   a remainder epilogue (the original body's schedule).  This is the sweep axis of
//!   the `fig_unroll` experiment.
//! * [`UnrollPolicy::Explore`]`{ max_factor }` — schedule every candidate factor
//!   `1..=max_factor` and keep the best IPC whose static code size stays within a
//!   budget ([`EXPLORE_CODE_GROWTH`] times the non-unrolled loop's code).  The engine's
//!   [`ScheduleDiagnostics`](vliw_sms::ScheduleDiagnostics) prune the search: once a
//!   candidate is register-limited and fails to win, larger factors are not tried —
//!   `MaxLive` pressure only grows with the factor.
//!
//! Every policy reads one lazy per-loop memo
//! ([`SelectiveUnroller::schedule_with_policies`]): the original body, each
//! exact-unroll kernel and the paper-model kernel are scheduled at most once per
//! loop, however many policies read them.  `Fixed(u)` and `Explore` share the
//! kernels of a factor sweep, `None`, `Fixed(1)` and the first step of `Selective`
//! share the original body, and `Selective` shares its unrolled kernel with
//! `ByClusters`.
//!
//! `ByClusters` and `Selective` deliberately keep the paper's iteration model
//! ([`vliw_ddg::unroll`](fn@vliw_ddg::unroll), `⌈NITER/U⌉` kernel iterations with the overshoot charged
//! to the kernel): the committed figure artifacts reproduce the paper's published
//! accounting byte-for-byte.  The factor-exploration policies use the exact model.
//!
//! The estimate of Figure 6 works as follows.  Unrolling by `U = n_clusters` and
//! scheduling one copy of the body per cluster leaves only the loop-carried
//! dependences whose distance is not a multiple of `U` crossing clusters; each such
//! dependence crosses once per copy, so `comneeded = NDepsNotMult(G, U) × U`
//! transfers are needed per unrolled iteration, taking
//! `cycneeded = ⌈comneeded / nbuses⌉ × latbus` bus cycles.  If `cycneeded` is below
//! the initiation interval of the (non-unrolled) schedule, unrolling is worthwhile.
//! The predicate is **strict** (`cycneeded < II`): at equality the transfers exactly
//! fill the window and unrolling buys nothing, so the original schedule is kept
//! (pinned by a boundary test below).

use crate::result::{ClusterSchedule, LoopScheduler, RemainderEpilogue};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vliw_ddg::{unroll, unroll_exact, DepGraph, UnrolledLoop};
use vliw_metrics::CodeSizeModel;
use vliw_sms::{contain_schedule, LimitingResource, ScheduleError, ScheduledLoop};

/// Which unrolling policy to apply before scheduling a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnrollPolicy {
    /// Schedule the original loop body.
    None,
    /// Unroll every loop by an explicit factor, with exact remainder accounting.
    Fixed(u32),
    /// Unroll every loop by the number of clusters (the paper's "Unrolling" bars).
    ByClusters,
    /// Unroll only bus-limited loops, by the number of clusters (Figure 6).
    Selective,
    /// Schedule candidate factors `1..=max_factor` and keep the best admissible one.
    Explore {
        /// The largest unroll factor to try.
        max_factor: u32,
    },
}

impl UnrollPolicy {
    /// The paper's three policies, in the order Figure 8 presents them.
    pub const ALL: [UnrollPolicy; 3] = [
        UnrollPolicy::None,
        UnrollPolicy::ByClusters,
        UnrollPolicy::Selective,
    ];

    /// Human-readable label; the paper policies keep the labels of the paper's
    /// figures (the committed artifacts key on them).
    pub fn label(self) -> String {
        match self {
            UnrollPolicy::None => "No unrolling".to_string(),
            UnrollPolicy::Fixed(factor) => format!("Unroll x{factor}"),
            UnrollPolicy::ByClusters => "Unrolling".to_string(),
            UnrollPolicy::Selective => "Selective unrolling".to_string(),
            UnrollPolicy::Explore { max_factor } => format!("Explore <=x{max_factor}"),
        }
    }
}

impl std::fmt::Display for UnrollPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// The [`UnrollPolicy::Explore`] code-size budget: an explored winner's static
/// code (kernel + remainder loop) may be at most this multiple of the
/// non-unrolled loop's.
pub const EXPLORE_CODE_GROWTH: f64 = 4.0;

/// The unrolling driver: the selective algorithm of Figure 6 plus the generalized
/// factor policies, generic over the underlying scheduler (BSA in the paper; the
/// N&E baseline and the unified scheduler are also accepted so ablations can be
/// run).
#[derive(Debug, Clone)]
pub struct SelectiveUnroller<S> {
    scheduler: S,
}

impl<S: LoopScheduler> SelectiveUnroller<S> {
    /// Wrap `scheduler` with the unrolling policies.
    pub fn new(scheduler: S) -> Self {
        Self { scheduler }
    }

    /// The wrapped scheduler.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Schedule `graph` with the given policy: the one-policy case of
    /// [`Self::schedule_with_policies`].
    pub fn schedule_with_policy(
        &self,
        graph: &DepGraph,
        policy: UnrollPolicy,
    ) -> Result<ClusterSchedule, ScheduleError> {
        LoopMemo::new(self, graph).schedule(policy)
    }

    /// Schedule `graph` under every policy of `policies`, one result per policy in
    /// input order.
    ///
    /// The policies share one lazy per-loop memo: the original body, each
    /// exact-unroll kernel and the paper-model kernel are scheduled at most once for
    /// the whole list, so the nine `fig_unroll` policies (`Fixed(1..=8)` and
    /// `Explore { max_factor: 8 }`) cost eight schedulings instead of the 23 they
    /// need one by one.  Each result equals what [`Self::schedule_with_policy`]
    /// returns for that policy alone (scheduling is deterministic).
    ///
    /// Every memo fill runs behind [`vliw_sms::contain_schedule`]: a panic is kept as
    /// that entry's [`ScheduleError::PolicyPanic`] and fails exactly the policies
    /// that read the entry.
    pub fn schedule_with_policies(
        &self,
        graph: &DepGraph,
        policies: &[UnrollPolicy],
    ) -> Vec<Result<ClusterSchedule, ScheduleError>> {
        let mut memo = LoopMemo::new(self, graph);
        policies
            .iter()
            .map(|&policy| memo.schedule(policy))
            .collect()
    }

    /// The Figure-6 estimate of the bus cycles one unrolled iteration needs:
    /// `comneeded = NDepsNotMult(G, U) × U` transfers over the machine's buses,
    /// `cycneeded = ⌈comneeded / nbuses⌉ × latbus`.
    pub fn fig6_cycneeded(&self, graph: &DepGraph, ufactor: u32) -> u64 {
        let machine = self.scheduler.machine();
        let comneeded = graph.deps_not_multiple_of(ufactor) as u64 * ufactor as u64;
        comneeded.div_ceil(machine.buses.count as u64) * machine.buses.latency as u64
    }

    /// The unroll factor used by the cluster-count policies: the number of clusters
    /// (Figure 6, line 3).
    pub fn unroll_factor(&self) -> u32 {
        self.scheduler.machine().n_clusters as u32
    }
}

/// An exact-unroll kernel and its schedule.
type ExactKernel = (UnrolledLoop, ScheduledLoop);

/// The schedules of one loop, filled on first read and shared by every policy read
/// through the memo: the original body, each exact-unroll kernel
/// `unroll_exact(graph, u)` and the paper-model kernel `unroll(graph, n_clusters)`.
///
/// A policy whose kernel fails to schedule falls back to the original body (or, in
/// `Explore`, skips the factor) — but never past a contained panic, which fails the
/// policy as the uncontained panic would have.
struct LoopMemo<'a, S> {
    unroller: &'a SelectiveUnroller<S>,
    graph: &'a DepGraph,
    base: Option<Result<ScheduledLoop, ScheduleError>>,
    exact: BTreeMap<u32, Result<ExactKernel, ScheduleError>>,
    paper: Option<Result<(DepGraph, ScheduledLoop), ScheduleError>>,
}

impl<'a, S: LoopScheduler> LoopMemo<'a, S> {
    fn new(unroller: &'a SelectiveUnroller<S>, graph: &'a DepGraph) -> Self {
        Self {
            unroller,
            graph,
            base: None,
            exact: BTreeMap::new(),
            paper: None,
        }
    }

    fn schedule(&mut self, policy: UnrollPolicy) -> Result<ClusterSchedule, ScheduleError> {
        match policy {
            UnrollPolicy::None => self.original(),
            UnrollPolicy::Fixed(factor) => self.schedule_fixed(factor),
            UnrollPolicy::ByClusters => self.schedule_unrolled(),
            UnrollPolicy::Selective => self.schedule_selective(),
            UnrollPolicy::Explore { max_factor } => self.schedule_explore(max_factor),
        }
    }

    /// The original body's schedule.
    fn base(&mut self) -> Result<ScheduledLoop, ScheduleError> {
        let (scheduler, graph) = (&self.unroller.scheduler, self.graph);
        self.base
            .get_or_insert_with(|| contain_schedule(|| scheduler.schedule_loop(graph)))
            .clone()
    }

    /// The original body as a cluster schedule.
    fn original(&mut self) -> Result<ClusterSchedule, ScheduleError> {
        Ok(ClusterSchedule::from_original(self.graph, self.base()?))
    }

    /// The fallback of a policy whose kernel failed: the original body, unless the
    /// failure is a contained panic.
    fn or_original(&mut self, failure: ScheduleError) -> Result<ClusterSchedule, ScheduleError> {
        match failure {
            ScheduleError::PolicyPanic { .. } => Err(failure),
            _ => self.original(),
        }
    }

    /// The exact-unroll kernel by `factor` as a cluster schedule: the kernel covers
    /// `⌊NITER/factor⌋` iterations and, when `factor ∤ NITER`, a remainder epilogue
    /// runs the original body's schedule for the leftover `NITER mod factor`.
    fn exact(&mut self, factor: u32) -> Result<ClusterSchedule, ScheduleError> {
        let (scheduler, graph) = (&self.unroller.scheduler, self.graph);
        let (unrolled, scheduled) = self
            .exact
            .entry(factor)
            .or_insert_with(|| {
                contain_schedule(|| {
                    let unrolled = unroll_exact(graph, factor);
                    let scheduled = scheduler.schedule_loop(&unrolled.kernel)?;
                    Ok((unrolled, scheduled))
                })
            })
            .clone()?;
        let remainder = match unrolled.remainder_iterations {
            0 => None,
            iterations => Some(RemainderEpilogue {
                schedule: self.base()?.schedule,
                iterations,
            }),
        };
        Ok(ClusterSchedule::from_unrolled_exact(
            graph,
            unrolled.kernel,
            scheduled,
            factor,
            remainder,
        ))
    }

    /// The paper-model kernel `unroll(graph, n_clusters)` as a cluster schedule.
    fn paper(&mut self) -> Result<ClusterSchedule, ScheduleError> {
        let (unroller, graph) = (self.unroller, self.graph);
        let factor = unroller.unroll_factor();
        let (kernel, scheduled) = self
            .paper
            .get_or_insert_with(|| {
                contain_schedule(|| {
                    let kernel = unroll(graph, factor);
                    let scheduled = unroller.scheduler.schedule_loop(&kernel)?;
                    Ok((kernel, scheduled))
                })
            })
            .clone()?;
        Ok(ClusterSchedule::from_unrolled(
            graph, kernel, scheduled, factor,
        ))
    }

    /// `ByClusters`: unroll by the number of clusters unconditionally (the paper's
    /// iteration model).
    ///
    /// If the unrolled body cannot be scheduled at all (e.g. the per-cluster register
    /// file cannot hold its live values at any initiation interval), the original
    /// body is kept instead — a compiler would never trade a working loop for an
    /// unschedulable one.
    fn schedule_unrolled(&mut self) -> Result<ClusterSchedule, ScheduleError> {
        if self.unroller.unroll_factor() <= 1 {
            return self.original();
        }
        self.paper().or_else(|failure| self.or_original(failure))
    }

    /// `Fixed(factor)`: unroll by an explicit factor under the exact iteration model.
    ///
    /// Falls back to the original body when the factor is trivial, exceeds the trip
    /// count (the kernel would never run), or the unrolled kernel cannot be
    /// scheduled.  The remainder epilogue and the fallback both read the memo's
    /// original-body schedule, so over a whole factor sweep of one loop the original
    /// body is scheduled once and each factor costs one kernel scheduling, shared
    /// with `Explore`.
    fn schedule_fixed(&mut self, factor: u32) -> Result<ClusterSchedule, ScheduleError> {
        if factor <= 1 || factor as u64 > self.graph.iterations {
            return self.original();
        }
        self.exact(factor)
            .or_else(|failure| self.or_original(failure))
    }

    /// `Explore { max_factor }`: schedule every candidate factor `1..=max_factor`
    /// and keep the best one.
    ///
    /// The winner maximizes IPC (exact remainder accounting included) among the
    /// candidates whose static code size — kernel plus remainder loop, from the
    /// machine's [`CodeSizeModel`] — stays within the
    /// [`EXPLORE_CODE_GROWTH`] budget.  The factor-1
    /// schedule is always a candidate, so `Explore` never returns a schedule worse
    /// than [`UnrollPolicy::None`]; it is also every candidate's remainder
    /// epilogue.  Candidate factors that cannot be scheduled are skipped; the
    /// engine's diagnostics cut the search short once a register-limited candidate
    /// fails to win (register pressure only grows with the factor), and no kernel
    /// past that break is scheduled.
    fn schedule_explore(&mut self, max_factor: u32) -> Result<ClusterSchedule, ScheduleError> {
        let base = self.original()?;
        if max_factor <= 1 {
            return Ok(base);
        }
        let model = CodeSizeModel::new(self.unroller.scheduler.machine());
        let budget = base.code_size(&model).total_slots as f64 * EXPLORE_CODE_GROWTH;
        let mut best_ipc = base.ipc();
        let mut best = base;
        for factor in 2..=max_factor {
            if factor as u64 > self.graph.iterations {
                break;
            }
            let candidate = match self.exact(factor) {
                Ok(candidate) => candidate,
                Err(panic @ ScheduleError::PolicyPanic { .. }) => return Err(panic),
                // Unschedulable at this factor (typically the register file); larger
                // factors may still differ, so keep scanning within the budget.
                Err(_) => continue,
            };
            let register_limited =
                matches!(candidate.diagnostics.limiting, LimitingResource::Registers);
            let within_budget = candidate.code_size(&model).total_slots as f64 <= budget;
            let ipc = candidate.ipc();
            if within_budget && ipc > best_ipc {
                best_ipc = ipc;
                best = candidate;
            } else if register_limited {
                break;
            }
        }
        Ok(best)
    }

    /// `Selective`: the selective-unrolling algorithm of Figure 6.
    fn schedule_selective(&mut self) -> Result<ClusterSchedule, ScheduleError> {
        // (1) Compute the schedule of the original graph.
        let original = self.original()?;
        // (2) Only bus-limited schedules are candidates for unrolling.  The predicate
        // comes from the engine's structured diagnostics: the II search had to leave
        // MII behind because of bus saturation (`LimitingResource::Bus`).
        if !original.diagnostics.limited_by_bus() {
            return Ok(original);
        }
        let ufactor = self.unroller.unroll_factor();
        if ufactor <= 1 || self.unroller.scheduler.machine().buses.count == 0 {
            return Ok(original);
        }
        // (4)-(5) The analytical estimate of the unrolled body's bus traffic.
        let cycneeded = self.unroller.fig6_cycneeded(self.graph, ufactor);
        // (6) Unroll only if the communications fit *strictly* under the current II
        // (at equality the transfers exactly fill the window — nothing is gained).
        // Keep the original schedule when the unrolled body turns out to be
        // unschedulable.
        if cycneeded < original.schedule.ii() as u64 {
            return self.paper().or_else(|failure| self.or_original(failure));
        }
        Ok(original)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsa::BsaScheduler;
    use std::cell::Cell;
    use vliw_arch::{MachineConfig, OpClass};
    use vliw_ddg::GraphBuilder;
    use vliw_sms::{ModuloSchedule, ScheduleDiagnostics};
    use vliw_workloads::{LoopCorpus, SpecFp95};

    /// A loop body with plenty of intra-iteration value traffic but no loop-carried
    /// dependences: the classic case where unrolling lets each cluster run its own
    /// iteration.
    fn parallel_loop() -> DepGraph {
        GraphBuilder::new("parallel")
            .iterations(400)
            .node("l0", OpClass::Load)
            .node("l1", OpClass::Load)
            .node("m0", OpClass::FpMul)
            .node("a0", OpClass::FpAdd)
            .node("a1", OpClass::FpAdd)
            .node("s0", OpClass::Store)
            .flow("l0", "m0")
            .flow("l1", "a0")
            .flow("m0", "a0")
            .flow("a0", "a1")
            .flow("m0", "a1")
            .flow("a1", "s0")
            .build()
    }

    #[test]
    fn policy_labels_match_the_paper() {
        assert_eq!(UnrollPolicy::None.label(), "No unrolling");
        assert_eq!(UnrollPolicy::ByClusters.label(), "Unrolling");
        assert_eq!(UnrollPolicy::Selective.label(), "Selective unrolling");
        assert_eq!(UnrollPolicy::Fixed(3).label(), "Unroll x3");
        assert_eq!(
            UnrollPolicy::Explore { max_factor: 8 }.label(),
            "Explore <=x8"
        );
        assert_eq!(UnrollPolicy::ALL.len(), 3);
    }

    #[test]
    fn no_unrolling_keeps_factor_one() {
        let machine = MachineConfig::two_cluster(1, 1);
        let driver = SelectiveUnroller::new(BsaScheduler::new(&machine));
        let g = parallel_loop();
        let r = driver.schedule_with_policy(&g, UnrollPolicy::None).unwrap();
        assert_eq!(r.unroll_factor, 1);
        assert_eq!(r.scheduled_graph.n_nodes(), g.n_nodes());
        assert!(r.remainder.is_none());
    }

    #[test]
    fn by_clusters_policy_unrolls_by_cluster_count() {
        let machine = MachineConfig::four_cluster(1, 1);
        let driver = SelectiveUnroller::new(BsaScheduler::new(&machine));
        let g = parallel_loop();
        let r = driver
            .schedule_with_policy(&g, UnrollPolicy::ByClusters)
            .unwrap();
        assert_eq!(r.unroll_factor, 4);
        assert_eq!(r.scheduled_graph.n_nodes(), g.n_nodes() * 4);
        // Accounting still refers to the original loop.
        assert_eq!(r.original_ops, g.n_nodes());
        assert_eq!(r.original_iterations, 400);
    }

    #[test]
    fn by_clusters_policy_on_unified_machine_is_a_no_op() {
        let machine = MachineConfig::unified();
        let driver = SelectiveUnroller::new(vliw_sms::SmsScheduler::new(&machine));
        let g = parallel_loop();
        let r = driver
            .schedule_with_policy(&g, UnrollPolicy::ByClusters)
            .unwrap();
        assert_eq!(r.unroll_factor, 1);
    }

    #[test]
    fn selective_policy_skips_loops_that_are_not_bus_limited() {
        // With 2 buses of latency 1 the parallel loop is not bus limited, so the
        // selective policy must not unroll it.
        let machine = MachineConfig::two_cluster(2, 1);
        let driver = SelectiveUnroller::new(BsaScheduler::new(&machine));
        let g = parallel_loop();
        let r = driver
            .schedule_with_policy(&g, UnrollPolicy::Selective)
            .unwrap();
        assert_eq!(r.unroll_factor, 1);
    }

    #[test]
    fn selective_policy_never_loses_to_no_unrolling_by_much() {
        // On a bus-starved machine the selective policy must perform at least as well
        // as never unrolling (same loop, same scheduler).
        let machine = MachineConfig::four_cluster(1, 2);
        let driver = SelectiveUnroller::new(BsaScheduler::new(&machine));
        let g = parallel_loop();
        let none = driver.schedule_with_policy(&g, UnrollPolicy::None).unwrap();
        let sel = driver
            .schedule_with_policy(&g, UnrollPolicy::Selective)
            .unwrap();
        assert!(
            sel.ipc() + 1e-9 >= none.ipc() * 0.99,
            "selective {} vs none {}",
            sel.ipc(),
            none.ipc()
        );
    }

    #[test]
    fn unroll_factor_tracks_cluster_count() {
        for n in [2usize, 4] {
            let machine = MachineConfig::clustered(n, 1, 1);
            let driver = SelectiveUnroller::new(BsaScheduler::new(&machine));
            assert_eq!(driver.unroll_factor(), n as u32);
        }
    }

    /// The remainder-accounting bugfix, pinned: `NITER = 100`, `U = 3` must execute
    /// 33 kernel iterations of the unrolled body plus exactly one epilogue iteration
    /// of the original body — not 34 kernel iterations charging a phantom
    /// 2-iteration overshoot.
    #[test]
    fn fixed_policy_models_the_remainder_exactly() {
        let machine = MachineConfig::two_cluster(2, 1);
        let driver = SelectiveUnroller::new(BsaScheduler::new(&machine));
        let g = parallel_loop().with_iterations(100);
        let r = driver
            .schedule_with_policy(&g, UnrollPolicy::Fixed(3))
            .unwrap();
        assert_eq!(r.unroll_factor, 3);
        assert_eq!(r.scheduled_graph.iterations, 33);
        let rem = r.remainder.as_ref().expect("3 does not divide 100");
        assert_eq!(rem.iterations, 1);

        // Cross-check the pinned accounting against independently produced
        // schedules of the kernel and the original body (scheduling is
        // deterministic): cycles = (33 + SC_k − 1)·II_k + (1 + SC_o − 1)·II_o,
        // useful ops = the original 6 ops × 100 iterations.
        let scheduler = BsaScheduler::new(&machine);
        let kernel = scheduler
            .schedule_loop(&vliw_ddg::unroll_exact(&g, 3).kernel)
            .unwrap();
        let original = scheduler.schedule_loop(&g).unwrap();
        let expected_cycles = kernel.schedule.cycles_for(33) + original.schedule.cycles_for(1);
        assert_eq!(r.cycles_per_invocation(), expected_cycles);
        assert_eq!(
            r.epilogue_cycles_per_invocation(),
            original.schedule.cycles_for(1)
        );
        assert_eq!(r.total_useful_ops(), 6 * 100);
        let expected_ipc = 600.0 / expected_cycles as f64;
        assert!((r.ipc() - expected_ipc).abs() < 1e-12);
    }

    #[test]
    fn fixed_policy_with_a_dividing_factor_has_no_epilogue() {
        let machine = MachineConfig::two_cluster(2, 1);
        let driver = SelectiveUnroller::new(BsaScheduler::new(&machine));
        let g = parallel_loop(); // 400 iterations
        let r = driver
            .schedule_with_policy(&g, UnrollPolicy::Fixed(4))
            .unwrap();
        assert_eq!(r.unroll_factor, 4);
        assert_eq!(r.scheduled_graph.iterations, 100);
        assert!(r.remainder.is_none());
    }

    #[test]
    fn fixed_policy_degenerate_factors_fall_back_to_the_original() {
        let machine = MachineConfig::two_cluster(2, 1);
        let driver = SelectiveUnroller::new(BsaScheduler::new(&machine));
        let g = parallel_loop().with_iterations(5);
        for factor in [0u32, 1, 6, 100] {
            let r = driver
                .schedule_with_policy(&g, UnrollPolicy::Fixed(factor))
                .unwrap();
            assert_eq!(r.unroll_factor, 1, "factor {factor}");
            assert!(r.remainder.is_none());
        }
    }

    #[test]
    fn explore_picks_a_factor_no_worse_than_none() {
        for machine in [
            MachineConfig::two_cluster(1, 1),
            MachineConfig::four_cluster(1, 2),
        ] {
            let driver = SelectiveUnroller::new(BsaScheduler::new(&machine));
            let g = parallel_loop();
            let none = driver.schedule_with_policy(&g, UnrollPolicy::None).unwrap();
            let explored = driver
                .schedule_with_policy(&g, UnrollPolicy::Explore { max_factor: 6 })
                .unwrap();
            assert!(
                explored.ipc() >= none.ipc(),
                "{}: explore {} < none {}",
                machine.name,
                explored.ipc(),
                none.ipc()
            );
            assert!(explored.unroll_factor >= 1);
            assert!(explored.unroll_factor <= 6);
        }
    }

    #[test]
    fn explore_respects_the_code_size_budget() {
        // However profitable a larger factor would be, every Explore winner's code
        // stays within EXPLORE_CODE_GROWTH × its factor-1 code.
        let machine = MachineConfig::four_cluster(1, 1);
        let driver = SelectiveUnroller::new(BsaScheduler::new(&machine));
        let model = CodeSizeModel::new(&machine);
        // Mgrid's small bodies include loops whose best IPC lies past the budget.
        let corpus = LoopCorpus::generate(SpecFp95::Mgrid);
        let policies = [UnrollPolicy::None, UnrollPolicy::Explore { max_factor: 8 }];
        let mut unrolled = 0;
        for g in corpus.loops.iter().filter(|g| g.n_nodes() <= 13).take(4) {
            let [none, explored] = <[_; 2]>::try_from(driver.schedule_with_policies(g, &policies))
                .expect("one result per policy")
                .map(|r| r.expect("schedulable"));
            let budget = none.code_size(&model).total_slots as f64 * EXPLORE_CODE_GROWTH;
            let spent = explored.code_size(&model).total_slots;
            assert!(
                spent as f64 <= budget,
                "{}: x{} spends {spent} slots, budget {budget}",
                g.name,
                explored.unroll_factor
            );
            unrolled += usize::from(explored.unroll_factor > 1);
        }
        assert!(
            unrolled > 0,
            "no winner unrolled: the budget was never tested"
        );
    }

    #[test]
    fn explore_with_trivial_max_factor_is_none() {
        let machine = MachineConfig::two_cluster(1, 1);
        let driver = SelectiveUnroller::new(BsaScheduler::new(&machine));
        let g = parallel_loop();
        let none = driver.schedule_with_policy(&g, UnrollPolicy::None).unwrap();
        let r = driver
            .schedule_with_policy(&g, UnrollPolicy::Explore { max_factor: 1 })
            .unwrap();
        assert_eq!(r.unroll_factor, 1);
        assert_eq!(r.ipc(), none.ipc());
    }

    /// A canned scheduler that reports a fixed II with bus-limited diagnostics, so
    /// the Figure-6 decision can be pinned at the exact boundary `cycneeded == II`.
    struct StubScheduler {
        machine: MachineConfig,
        ii: u32,
    }

    impl LoopScheduler for StubScheduler {
        fn machine(&self) -> &MachineConfig {
            &self.machine
        }

        fn schedule_loop(&self, graph: &DepGraph) -> Result<ScheduledLoop, ScheduleError> {
            Ok(ScheduledLoop {
                schedule: ModuloSchedule::new(&graph.name, graph.n_nodes(), self.ii, 1),
                diagnostics: ScheduleDiagnostics {
                    ii: self.ii,
                    mii: 1,
                    res_mii: 1,
                    rec_mii: 1,
                    limiting: LimitingResource::Bus,
                    ii_trajectory: Vec::new(),
                    n_comms: 0,
                    max_live_per_cluster: vec![0; self.machine.n_clusters],
                    fuel: None,
                    rung: None,
                },
            })
        }

        fn name(&self) -> &'static str {
            "stub"
        }
    }

    /// One loop-carried flow dependence at odd distance on a 2-cluster, 1-bus,
    /// latency-1 machine: `comneeded = 1 × 2`, `cycneeded = ⌈2/1⌉ × 1 = 2`.
    fn boundary_graph() -> DepGraph {
        let mut g = DepGraph::new("boundary");
        let a = g.add_named_node(OpClass::FpAdd, Some("a"));
        let b = g.add_named_node(OpClass::FpMul, Some("b"));
        g.add_edge(a, b, 1, 0, vliw_ddg::DepKind::Flow);
        g.add_edge(b, a, 1, 1, vliw_ddg::DepKind::Flow);
        g.with_iterations(64)
    }

    /// Figure-6 boundary: the predicate is strictly `cycneeded < II`, so a
    /// bus-limited schedule whose II *equals* the estimated bus cycles must NOT be
    /// unrolled — and one cycle of headroom must flip the decision.
    #[test]
    fn selective_predicate_is_strict_at_the_boundary() {
        let machine = MachineConfig::two_cluster(1, 1);
        let g = boundary_graph();
        let at_boundary = SelectiveUnroller::new(StubScheduler {
            machine: machine.clone(),
            ii: 2,
        });
        assert_eq!(at_boundary.fig6_cycneeded(&g, 2), 2);
        let r = at_boundary
            .schedule_with_policy(&g, UnrollPolicy::Selective)
            .unwrap();
        assert_eq!(r.unroll_factor, 1, "cycneeded == II must keep the original");

        let above_boundary = SelectiveUnroller::new(StubScheduler { machine, ii: 3 });
        let r = above_boundary
            .schedule_with_policy(&g, UnrollPolicy::Selective)
            .unwrap();
        assert_eq!(r.unroll_factor, 2, "cycneeded < II must unroll");
    }

    /// A stub that counts its `schedule_loop` calls.  Every body is scheduled at
    /// `II = n_nodes`, so each factor's cycles exactly match the original body's and
    /// no candidate ever wins on IPC; `limiting` decides whether `Explore` stops at
    /// its first losing candidate (`Registers`) or scans every factor.  The body
    /// whose name ends in `panic_on` panics.
    struct CountingStub {
        machine: MachineConfig,
        limiting: LimitingResource,
        panic_on: Option<&'static str>,
        calls: Cell<usize>,
    }

    impl CountingStub {
        fn new(limiting: LimitingResource) -> Self {
            Self {
                machine: MachineConfig::two_cluster(1, 1),
                limiting,
                panic_on: None,
                calls: Cell::new(0),
            }
        }

        fn panicking_on(mut self, suffix: &'static str) -> Self {
            self.panic_on = Some(suffix);
            self
        }
    }

    impl LoopScheduler for CountingStub {
        fn machine(&self) -> &MachineConfig {
            &self.machine
        }

        fn schedule_loop(&self, graph: &DepGraph) -> Result<ScheduledLoop, ScheduleError> {
            self.calls.set(self.calls.get() + 1);
            if self
                .panic_on
                .is_some_and(|suffix| graph.name.ends_with(suffix))
            {
                panic!("injected fault in {}", graph.name);
            }
            let ii = graph.n_nodes() as u32;
            Ok(ScheduledLoop {
                schedule: ModuloSchedule::new(&graph.name, graph.n_nodes(), ii, ii),
                diagnostics: ScheduleDiagnostics {
                    ii,
                    mii: ii,
                    res_mii: ii,
                    rec_mii: 1,
                    limiting: self.limiting,
                    ii_trajectory: Vec::new(),
                    n_comms: 0,
                    max_live_per_cluster: vec![0; self.machine.n_clusters],
                    fuel: None,
                    rung: None,
                },
            })
        }

        fn name(&self) -> &'static str {
            "counting-stub"
        }
    }

    /// The nine `fig_unroll` policies.
    fn fig_unroll_policies() -> Vec<UnrollPolicy> {
        (1..=8)
            .map(UnrollPolicy::Fixed)
            .chain([UnrollPolicy::Explore { max_factor: 8 }])
            .collect()
    }

    /// `NITER = 101` is prime, so every factor leaves a remainder epilogue.
    #[test]
    fn a_shared_memo_schedules_each_body_once() {
        let g = parallel_loop().with_iterations(101);
        let shared = SelectiveUnroller::new(CountingStub::new(LimitingResource::FunctionalUnits));
        let results = shared.schedule_with_policies(&g, &fig_unroll_policies());
        assert!(results.iter().all(Result::is_ok));
        // The original body once, the kernels x2..x8 once each.
        assert_eq!(shared.scheduler().calls.get(), 8);

        // One policy at a time: Fixed(1) schedules the original body, each of
        // Fixed(2..=8) its kernel and the original body for its remainder, and
        // Explore the original body and all seven kernels.
        let single = SelectiveUnroller::new(CountingStub::new(LimitingResource::FunctionalUnits));
        for (policy, result) in fig_unroll_policies().into_iter().zip(&results) {
            assert_eq!(&single.schedule_with_policy(&g, policy), result, "{policy}");
        }
        assert_eq!(single.scheduler().calls.get(), 1 + 7 * 2 + 8);
    }

    #[test]
    fn a_standalone_explore_stops_scheduling_at_its_register_limited_break() {
        let g = parallel_loop().with_iterations(101);
        let driver = SelectiveUnroller::new(CountingStub::new(LimitingResource::Registers));
        let r = driver
            .schedule_with_policy(&g, UnrollPolicy::Explore { max_factor: 8 })
            .unwrap();
        assert_eq!(r.unroll_factor, 1);
        // The original body and the x2 kernel, which is register-limited and loses.
        assert_eq!(driver.scheduler().calls.get(), 2);
    }

    #[test]
    fn a_panicking_kernel_fails_only_the_policies_that_read_it() {
        let g = parallel_loop().with_iterations(101);
        let policies = fig_unroll_policies();
        for (limiting, explore_reaches_x5) in [
            (LimitingResource::FunctionalUnits, true),
            (LimitingResource::Registers, false),
        ] {
            let driver = SelectiveUnroller::new(CountingStub::new(limiting).panicking_on("x5"));
            let results = driver.schedule_with_policies(&g, &policies);
            for (policy, result) in policies.iter().zip(results) {
                let reads_x5 = match policy {
                    UnrollPolicy::Fixed(factor) => *factor == 5,
                    _ => explore_reaches_x5,
                };
                match result {
                    Err(ScheduleError::PolicyPanic { message }) => {
                        assert!(reads_x5, "{policy} failed: {message}");
                        assert_eq!(message, "injected fault in parallelx5");
                    }
                    Err(e) => panic!("{policy}: unexpected error {e}"),
                    Ok(cs) => {
                        assert!(!reads_x5, "{policy} must fail with the x5 kernel");
                        if let UnrollPolicy::Fixed(factor) = policy {
                            assert_eq!(cs.unroll_factor, *factor);
                        }
                    }
                }
            }
        }
    }
}
