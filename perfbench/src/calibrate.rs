//! A fixed reference workload that gauges the host's current speed.  It uses none
//! of the repository's crates, so a change to the program under test cannot move
//! it; it moves only with the host.  The benchmark divides its time metrics by
//! the gauge, which turns them into times at the reference host's speed.

use crate::digest::mix;
use std::collections::BTreeMap;
use std::time::Instant;

/// Seconds one round of reference work took on the reference host (2-vCPU shared
/// KVM guest, Intel Xeon) in its quiet state.  A time measured while one round
/// takes `g` seconds reads as `time × REFERENCE_ROUND_S / g`.
pub const REFERENCE_ROUND_S: f64 = 0.0045;

/// Nodes of the reference graph.
const NODES: usize = 3000;

/// Rounds timed by one [`gauge`]; it reports their median.
const ROUNDS: usize = 5;

/// One round of reference work in the style of a modulo scheduler: build a
/// pseudo-random dependence graph, order it by depth, and place every node into
/// a reservation table keyed by (row, resource), with small allocations
/// throughout.  The work is the same in every round.  Returns a checksum so that
/// it cannot be optimised away.
fn reference_work(seed: u64) -> u64 {
    let mut state = mix(seed);
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); NODES];
    for to in 1..NODES {
        for _ in 0..3 {
            state = mix(state);
            let from = (state % to as u64) as usize;
            succs[from].push(to as u32);
        }
    }
    let mut depth = vec![0u32; NODES];
    for from in 0..NODES {
        for &to in &succs[from] {
            depth[to as usize] = depth[to as usize].max(depth[from] + 1);
        }
    }
    let mut order: Vec<usize> = (0..NODES).collect();
    order.sort_by_key(|&v| (depth[v], succs[v].len(), v));
    let ii = 64u32;
    let mut table: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    let mut sum = 0u64;
    for v in order {
        let resource = (v % 7) as u32;
        let home = depth[v] % ii;
        let mut row = home;
        while table.contains_key(&(row, resource)) {
            row = (row + 1) % ii;
            if row == home {
                table.retain(|&(_, r), _| r != resource);
            }
        }
        table.insert((row, resource), v as u32);
        sum = sum.wrapping_add(u64::from(row) * v as u64);
    }
    sum ^ table.len() as u64
}

/// Seconds one round of reference work takes now.
pub fn round_s() -> f64 {
    let start = Instant::now();
    std::hint::black_box(reference_work(std::hint::black_box(1)));
    start.elapsed().as_secs_f64()
}

/// Seconds one round takes now: the median of [`ROUNDS`] rounds.
pub fn gauge() -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS).map(|_| round_s()).collect();
    crate::stats::median(&rounds).expect("at least one round")
}
