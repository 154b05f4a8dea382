//! Value lifetimes and register-pressure (`MaxLive`) estimation.
//!
//! The paper's schedulers generate no spill code; instead, a cluster whose register
//! file would overflow is simply not a candidate for the node being placed ("those
//! clusters for which the insertion of this node would increase the register
//! requirements above the number of available registers are discarded", Section 5.1).
//! The register requirement of a cluster is estimated with the standard `MaxLive`
//! measure: the maximum, over the `II` rows of the kernel, of the number of
//! simultaneously live values the cluster's register file must hold.
//!
//! Lifetime model (documented assumptions):
//!
//! * a value produced by node `p` placed at cycle `t_p` is live from `t_p` (the
//!   register is conservatively considered allocated at issue) until the issue cycle of
//!   its last consumer, where a consumer at distance `d` reads at `t_c + d·II`;
//! * a consumer placed in a *different* cluster reads the value at the start cycle of
//!   the corresponding bus transfer (after which the value lives in the bus / in the
//!   consumer's incoming-value register, not in the producer's register file);
//! * a value received over a bus is written to the receiving cluster's register file
//!   only if it is not consumed exactly at its arrival cycle (otherwise it is read
//!   directly from the incoming-value register, as the architecture of Figure 2
//!   allows); when written, it is live from arrival until its last local use;
//! * values with no consumer occupy a register for a single cycle.

use crate::schedule::ModuloSchedule;
use serde::{Deserialize, Serialize};
use vliw_arch::MachineConfig;
use vliw_ddg::{DepGraph, NodeId};

/// One live range contributing register pressure to a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LiveRange {
    /// The node whose value this range belongs to.
    pub node: NodeId,
    /// The cluster whose register file holds the value.
    pub cluster: usize,
    /// First cycle (inclusive) the value occupies a register.
    pub start: i64,
    /// Last cycle (exclusive).
    pub end: i64,
}

/// All live ranges of a schedule, plus the per-cluster pressure they imply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LifetimeMap {
    /// Every live range (producer-side and receiver-side).
    pub ranges: Vec<LiveRange>,
    /// Row-major `[cluster × II]` live-value counts — one flat allocation, since a
    /// map is built per placement trial in the cluster schedulers.
    pressure: Vec<u32>,
    ii: u32,
}

/// Append the live ranges contributed by one producer `node` to `out`.
///
/// Pushes nothing when `node` defines no value or is not placed. `remote_last_read`
/// is caller-provided scratch sized to the cluster count (contents are overwritten).
/// This is the single source of truth for the lifetime model: both the whole-schedule
/// [`LifetimeMap`] and the incremental [`crate::pressure::PressureTracker`] build their
/// ranges through it, which is what keeps the two byte-identical.
pub(crate) fn push_producer_ranges(
    graph: &DepGraph,
    sched: &ModuloSchedule,
    node: NodeId,
    remote_last_read: &mut [Option<(i64, i64)>],
    out: &mut Vec<LiveRange>,
) {
    let ii = sched.ii();
    if !graph.node(node).class.defines_value() {
        return;
    }
    let Some(prod) = sched.placement(node) else {
        return;
    };

    // Producer-side range: from issue until the last read performed from this
    // cluster's register file (local consumers, or the bus transfer start for
    // remote consumers).
    let mut last_local_read = prod.cycle + 1; // minimum 1-cycle occupancy

    remote_last_read.fill(None);

    for e in graph.out_edges(node).filter(|e| e.kind.carries_value()) {
        let Some(cons) = sched.placement(e.dst) else {
            continue;
        };
        let read_cycle = cons.cycle + e.distance as i64 * ii as i64;
        if cons.cluster == prod.cluster {
            last_local_read = last_local_read.max(read_cycle);
        } else {
            // The producer's register feeds the bus transfer.
            let transfer = sched
                .comms()
                .iter()
                .find(|c| c.src_node == node && c.to_cluster == cons.cluster);
            let (send, arrive) = match transfer {
                Some(c) => (c.start_cycle, c.start_cycle + c.duration as i64),
                // No transfer recorded (e.g. mid-construction): fall back to
                // the consumer's read cycle.
                None => (read_cycle, read_cycle),
            };
            last_local_read = last_local_read.max(send);
            let entry = &mut remote_last_read[cons.cluster];
            let (arr, last) = entry.unwrap_or((arrive, arrive));
            *entry = Some((arr.min(arrive), last.max(read_cycle)));
        }
    }

    out.push(LiveRange {
        node,
        cluster: prod.cluster,
        start: prod.cycle,
        end: last_local_read,
    });
    for (cluster, entry) in remote_last_read.iter().enumerate() {
        if let Some((arrive, last_read)) = entry {
            // Read straight from the incoming-value register when consumed on
            // arrival; otherwise it occupies a register until its last use.
            if last_read > arrive {
                out.push(LiveRange {
                    node,
                    cluster,
                    start: *arrive,
                    end: *last_read,
                });
            }
        }
    }
}

/// Apply one live range to a cluster's `II` pressure rows via `f` (used with `+=`
/// to add a range and `-=` to retract one).
///
/// A range of `len` cycles contributes ceil-style coverage of kernel rows:
/// row (start + k) mod II for k in 0..len — i.e. `len div II` instances in
/// every row plus one more in the `len mod II` rows starting at the range's
/// start row (a contiguous wrapped interval, since (start + (len div
/// II)·II) mod II == start mod II).
#[inline]
pub(crate) fn apply_range_rows(
    rows: &mut [u32],
    ii: u32,
    r: &LiveRange,
    mut f: impl FnMut(&mut u32, u32),
) {
    let len = (r.end - r.start).max(1);
    let full = (len / ii as i64) as u32;
    let rem = (len % ii as i64) as usize;
    if full > 0 {
        for slot in rows.iter_mut() {
            f(slot, full);
        }
    }
    let row0 = r.start.rem_euclid(ii as i64) as usize;
    let wrap = (row0 + rem).saturating_sub(ii as usize);
    for slot in &mut rows[row0..(row0 + rem - wrap)] {
        f(slot, 1);
    }
    for slot in &mut rows[..wrap] {
        f(slot, 1);
    }
}

impl LifetimeMap {
    /// Compute the lifetimes of `sched` for `graph` on `machine`.
    ///
    /// Works on partial schedules too: only placed producers/consumers contribute,
    /// which is exactly what the incremental cluster-feasibility check needs.
    pub fn new(graph: &DepGraph, sched: &ModuloSchedule, machine: &MachineConfig) -> Self {
        let ii = sched.ii();
        let mut ranges = Vec::with_capacity(graph.n_nodes());
        // Receiver-side ranges are grouped per destination cluster; the buffer is
        // reused across nodes (this runs once per placement trial in the cluster
        // schedulers, so per-call allocations are hot).
        let mut remote_last_read: Vec<Option<(i64, i64)>> = vec![None; machine.n_clusters];
        for node in graph.nodes() {
            push_producer_ranges(graph, sched, node.id, &mut remote_last_read, &mut ranges);
        }

        let mut pressure = vec![0u32; machine.n_clusters * ii as usize];
        for r in &ranges {
            let base = r.cluster * ii as usize;
            let rows = &mut pressure[base..base + ii as usize];
            apply_range_rows(rows, ii, r, |slot, v| *slot += v);
        }

        Self {
            ranges,
            pressure,
            ii,
        }
    }

    /// The per-row live-value counts of one cluster.
    pub fn pressure_of(&self, cluster: usize) -> &[u32] {
        let base = cluster * self.ii as usize;
        &self.pressure[base..base + self.ii as usize]
    }

    /// Maximum number of simultaneously live values per cluster.
    pub fn max_live(&self) -> Vec<u32> {
        self.pressure
            .chunks_exact(self.ii as usize)
            .map(|rows| rows.iter().copied().max().unwrap_or(0))
            .collect()
    }

    /// Maximum live values in a single cluster.
    pub fn max_live_in(&self, cluster: usize) -> u32 {
        self.pressure_of(cluster).iter().copied().max().unwrap_or(0)
    }

    /// Whether every cluster fits in its register file.  Allocation-free (unlike
    /// going through [`LifetimeMap::max_live`]) — this is the query the schedulers
    /// issue once per placement trial.
    pub fn fits(&self, machine: &MachineConfig) -> bool {
        // A single max over the flat array is enough: every cluster has the same
        // register-file size.
        self.pressure
            .iter()
            .all(|&live| live as usize <= machine.cluster.registers)
    }
}

/// Convenience: the per-cluster `MaxLive` of a schedule.
pub fn cluster_max_live(
    graph: &DepGraph,
    sched: &ModuloSchedule,
    machine: &MachineConfig,
) -> Vec<u32> {
    LifetimeMap::new(graph, sched, machine).max_live()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{CommPlacement, PlacedOp};
    use vliw_arch::{FuKind, MachineConfig, OpClass, ResourcePool};
    use vliw_ddg::{DepGraph, DepKind};

    fn place(
        sched: &mut ModuloSchedule,
        pool: &ResourcePool,
        node: u32,
        cycle: i64,
        cluster: usize,
        kind: FuKind,
    ) {
        sched.place(PlacedOp {
            node: NodeId(node),
            cycle,
            cluster,
            fu: pool.fus(cluster, kind).next().unwrap(),
        });
    }

    #[test]
    fn single_local_consumer_lifetime() {
        // load (cycle 0) -> fadd (cycle 5), same cluster: value live 0..5 => covers
        // rows 0..5 with II 8, MaxLive 1.
        let machine = MachineConfig::unified();
        let pool = ResourcePool::new(&machine);
        let mut g = DepGraph::new("t");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        let mut s = ModuloSchedule::new("t", 2, 8, 1);
        place(&mut s, &pool, 0, 0, 0, FuKind::Mem);
        place(&mut s, &pool, 1, 5, 0, FuKind::Fp);
        let lt = LifetimeMap::new(&g, &s, &machine);
        assert_eq!(lt.max_live_in(0), 1);
        assert_eq!(lt.ranges.len(), 2); // load's value + fadd's (unused) value
        let load_range = lt.ranges.iter().find(|r| r.node == a).unwrap();
        assert_eq!((load_range.start, load_range.end), (0, 5));
        assert!(lt.fits(&machine));
    }

    #[test]
    fn long_lifetime_wraps_around_the_kernel() {
        // Value live for 2*II + 1 cycles: every row holds at least 2 instances.
        let machine = MachineConfig::unified();
        let pool = ResourcePool::new(&machine);
        let mut g = DepGraph::new("wrap");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        let mut s = ModuloSchedule::new("wrap", 2, 4, 1);
        place(&mut s, &pool, 0, 0, 0, FuKind::Mem);
        place(&mut s, &pool, 1, 9, 0, FuKind::Fp);
        let lt = LifetimeMap::new(&g, &s, &machine);
        // lifetime 0..9 = 9 cycles, II=4 -> 2 full wraps + 1 extra row
        assert_eq!(lt.max_live_in(0), 3);
        assert!(lt.ranges.iter().any(|r| r.end - r.start == 9));
    }

    #[test]
    fn remote_consumer_splits_the_lifetime() {
        let machine = MachineConfig::two_cluster(1, 2);
        let pool = ResourcePool::new(&machine);
        let mut g = DepGraph::new("remote");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        let mut s = ModuloSchedule::new("remote", 2, 6, 1);
        place(&mut s, &pool, 0, 0, 0, FuKind::Mem);
        place(&mut s, &pool, 1, 5, 1, FuKind::Fp);
        s.add_comm(CommPlacement {
            src_node: a,
            dst_node: b,
            from_cluster: 0,
            to_cluster: 1,
            bus: pool.buses().next().unwrap(),
            start_cycle: 2,
            duration: 2,
        });
        let lt = LifetimeMap::new(&g, &s, &machine);
        // Producer-side range ends at the transfer start (cycle 2), receiver-side
        // range spans arrival (4) to the consumer read (5).
        let prod_range = lt
            .ranges
            .iter()
            .find(|r| r.node == a && r.cluster == 0)
            .unwrap();
        assert_eq!((prod_range.start, prod_range.end), (0, 2));
        let recv_range = lt
            .ranges
            .iter()
            .find(|r| r.node == a && r.cluster == 1)
            .unwrap();
        assert_eq!((recv_range.start, recv_range.end), (4, 5));
    }

    #[test]
    fn value_consumed_on_arrival_needs_no_receiver_register() {
        let machine = MachineConfig::two_cluster(1, 1);
        let pool = ResourcePool::new(&machine);
        let mut g = DepGraph::new("irv");
        let a = g.add_node(OpClass::Load);
        let b = g.add_node(OpClass::FpAdd);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        let mut s = ModuloSchedule::new("irv", 2, 6, 1);
        place(&mut s, &pool, 0, 0, 0, FuKind::Mem);
        place(&mut s, &pool, 1, 3, 1, FuKind::Fp);
        s.add_comm(CommPlacement {
            src_node: a,
            dst_node: b,
            from_cluster: 0,
            to_cluster: 1,
            bus: pool.buses().next().unwrap(),
            start_cycle: 2,
            duration: 1,
        });
        let lt = LifetimeMap::new(&g, &s, &machine);
        // Arrival cycle 3 == consumer cycle 3: read from the IRV, no register range in
        // cluster 1 for node a.
        assert!(!lt.ranges.iter().any(|r| r.node == a && r.cluster == 1));
    }

    #[test]
    fn loop_carried_consumer_extends_lifetime_by_ii() {
        let machine = MachineConfig::unified();
        let pool = ResourcePool::new(&machine);
        let mut g = DepGraph::new("carried");
        let a = g.add_node(OpClass::FpAdd);
        let b = g.add_node(OpClass::FpMul);
        g.add_edge(a, b, 3, 1, DepKind::Flow); // consumed one iteration later
        let mut s = ModuloSchedule::new("carried", 2, 5, 1);
        place(&mut s, &pool, 0, 0, 0, FuKind::Fp);
        place(&mut s, &pool, 1, 1, 0, FuKind::Fp);
        let lt = LifetimeMap::new(&g, &s, &machine);
        let r = lt.ranges.iter().find(|r| r.node == a).unwrap();
        // read at 1 + 1*5 = 6
        assert_eq!((r.start, r.end), (0, 6));
        assert_eq!(lt.max_live_in(0), 2); // the range wraps past II once
    }

    #[test]
    fn store_defines_no_value() {
        let machine = MachineConfig::unified();
        let pool = ResourcePool::new(&machine);
        let mut g = DepGraph::new("store");
        let _st = g.add_node(OpClass::Store);
        let mut s = ModuloSchedule::new("store", 1, 2, 1);
        place(&mut s, &pool, 0, 0, 0, FuKind::Mem);
        let lt = LifetimeMap::new(&g, &s, &machine);
        assert!(lt.ranges.is_empty());
        assert_eq!(lt.max_live_in(0), 0);
    }

    #[test]
    fn fits_reflects_register_file_size() {
        // A tiny machine with 16 registers per cluster: 20 simultaneously live values
        // must not fit.
        let machine = MachineConfig::four_cluster(1, 1);
        let pool = ResourcePool::new(&machine);
        let mut g = DepGraph::new("pressure");
        let mut s = ModuloSchedule::new("pressure", 21, 1, 1);
        let consumer = g.add_node(OpClass::FpAdd);
        // 20 producers all alive until the consumer reads them far in the future.
        for i in 1..=20u32 {
            let p = g.add_node(OpClass::Load);
            g.add_edge(p, consumer, 2, 0, DepKind::Flow);
            s.place(PlacedOp {
                node: p,
                cycle: i as i64,
                cluster: 0,
                fu: pool.fus(0, FuKind::Mem).next().unwrap(),
            });
        }
        s.place(PlacedOp {
            node: consumer,
            cycle: 100,
            cluster: 0,
            fu: pool.fus(0, FuKind::Fp).next().unwrap(),
        });
        let lt = LifetimeMap::new(&g, &s, &machine);
        assert!(lt.max_live_in(0) >= 20);
        assert!(!lt.fits(&machine));
    }
}
