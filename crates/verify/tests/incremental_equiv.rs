//! Replay test of the engine's incremental register-pressure tracker: for every
//! policy, on random machines and random loops, re-commit each produced schedule
//! into a fresh [`PressureTracker`] one node at a time, and check that every
//! [`PressureTracker::evaluate`] answer equals a whole-schedule [`LifetimeMap`]
//! built over the same trial schedule.  The tracker is a pure optimization of the
//! map; any difference is a bug.
//!
//! The replay visits the nodes in node-id order and in reverse, neither of which is
//! the engine's scheduling order, so the tracker also meets partial schedules the
//! search never builds.  The sampled machine space includes harsh configurations
//! (tiny register files, saturated buses), so the schedules come from deep II retry
//! chains, not just first-try successes.  The comparison is a plain assertion: it
//! runs in release builds too.

use cvliw_core::{BsaScheduler, LoadBalancedScheduler, NeScheduler, RoundRobinScheduler};
use vliw_arch::{MachineConfig, MachineSpace};
use vliw_ddg::{DepGraph, NodeId};
use vliw_sms::{
    LifetimeMap, ModuloSchedule, PressureTracker, ScheduleError, ScheduledLoop, SmsScheduler,
};
use vliw_verify::generate_case;

const POLICIES: [&str; 5] = ["unified-sms", "bsa", "ne", "round-robin", "load-balanced"];

/// Schedule `graph` under one policy; returns the machine the schedule targets (the
/// unified counterpart for the unified scheduler) with the outcome.
fn schedule(
    label: &str,
    machine: &MachineConfig,
    graph: &DepGraph,
) -> (MachineConfig, Result<ScheduledLoop, ScheduleError>) {
    match label {
        "unified-sms" => {
            let target = if machine.is_clustered() {
                machine.unified_counterpart()
            } else {
                machine.clone()
            };
            let out = SmsScheduler::new(&target).schedule_diag(graph);
            (target, out)
        }
        "bsa" => (
            machine.clone(),
            BsaScheduler::new(machine).schedule_diag(graph),
        ),
        "ne" => (
            machine.clone(),
            NeScheduler::new(machine).schedule_diag(graph),
        ),
        "round-robin" => (
            machine.clone(),
            RoundRobinScheduler::new(machine).schedule_diag(graph),
        ),
        "load-balanced" => (
            machine.clone(),
            LoadBalancedScheduler::new(machine).schedule_diag(graph),
        ),
        other => unreachable!("unknown policy {other}"),
    }
}

/// Re-commit `sched` into an empty schedule node by node in `order`.  Each step
/// places the node together with every transfer whose two ends are then placed,
/// asks the tracker about the trial exactly as the engine does (affected set
/// prepared on the committed schedule, then `evaluate` on the trial) and checks the
/// answer against a fresh [`LifetimeMap`].
fn replay(
    graph: &DepGraph,
    machine: &MachineConfig,
    sched: &ModuloSchedule,
    order: impl Iterator<Item = NodeId>,
    what: &str,
) {
    let mut trial = ModuloSchedule::new(&graph.name, graph.n_nodes(), sched.ii(), sched.mii);
    let mut tracker = PressureTracker::new();
    tracker.reset(machine, graph.n_nodes(), sched.ii());
    let mut comm_added = vec![false; sched.comms().len()];
    for node in order {
        let op = *sched.placement(node).expect("complete schedule");
        tracker.prepare_probe(graph, &trial, node);
        trial.place(op);
        for (added, comm) in comm_added.iter_mut().zip(sched.comms()) {
            if !*added
                && trial.placement(comm.src_node).is_some()
                && trial.placement(comm.dst_node).is_some()
            {
                trial.add_comm(*comm);
                *added = true;
            }
        }
        let got = tracker.evaluate(graph, &trial, node, op.cluster);
        let map = LifetimeMap::new(graph, &trial, machine);
        assert_eq!(
            got,
            (map.fits(machine), map.max_live_in(op.cluster)),
            "{what}: tracker diverged from LifetimeMap placing {node} on cluster {} at \
             cycle {}",
            op.cluster,
            op.cycle
        );
        tracker.commit(graph, &trial, node);
    }
    assert!(
        comm_added.iter().all(|&added| added),
        "{what}: transfer left out"
    );
}

#[test]
fn incremental_pressure_matches_lifetime_map_on_replayed_schedules() {
    let space = MachineSpace::default();
    let mut scheduled = 0usize;
    let mut retried = 0usize;
    let mut with_transfers = 0usize;
    for index in 0..24 {
        let case = generate_case(0xE9_01, index, &space);
        let graph = &case.graph;
        for label in POLICIES {
            let (machine, out) = schedule(label, &case.machine, graph);
            let Ok(out) = out else { continue };
            scheduled += 1;
            if !out.schedule.comms().is_empty() {
                with_transfers += 1;
            }
            if !out.diagnostics.ii_trajectory.is_empty() {
                retried += 1;
            }
            let what = format!("case {index}, policy {label}");
            let ids: Vec<NodeId> = graph.node_ids().collect();
            replay(graph, &machine, &out.schedule, ids.iter().copied(), &what);
            replay(
                graph,
                &machine,
                &out.schedule,
                ids.iter().rev().copied(),
                &what,
            );
        }
    }
    // The property is vacuous unless the cases actually schedule, retry (II retries
    // are where register-limited schedules come from) and cross the buses.
    assert!(scheduled >= 40, "only {scheduled} schedules produced");
    assert!(retried >= 8, "only {retried} searches took an II retry");
    assert!(
        with_transfers >= 8,
        "only {with_transfers} schedules used the buses"
    );
}
