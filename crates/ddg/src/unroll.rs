//! Loop unrolling on dependence graphs.
//!
//! Unrolling by a factor `U` replaces the loop body by `U` consecutive copies of
//! itself.  Dependences are remapped as follows: a dependence `u → v` at distance `d`
//! in the original loop connects copy `i` of `u` to copy `(i + d) mod U` of `v` at
//! distance `(i + d) div U`.
//!
//! The paper uses unrolling (Section 5.2) because the iterations of most SPECfp95
//! innermost loops are almost independent: after unrolling by the number of clusters,
//! each copy can be scheduled on its own cluster and only the few dependences whose
//! distance is not a multiple of `U` still require inter-cluster communication.
//!
//! Two iteration-count models are provided:
//!
//! * [`unroll`] — the paper's model: the unrolled kernel runs `⌈NITER / U⌉`
//!   iterations.  When `U ∤ NITER` this **overshoots**: the kernel executes
//!   `U·⌈NITER/U⌉ > NITER` body copies, and the cycle accounting charges the extra
//!   copies while the useful-op accounting (correctly) credits only the original
//!   `NITER` iterations.  The figure pipelines keep this model because it is the one
//!   behind the paper's published numbers.
//! * [`unroll_exact`] — the exact model: the kernel runs `⌊NITER / U⌋` iterations and
//!   the leftover `NITER mod U` iterations are reported separately, to be executed as
//!   an epilogue invocation of the *original* body's schedule (see
//!   `ClusterSchedule::remainder` in `cvliw_core`).  The factor-exploration policies
//!   (`UnrollPolicy::Fixed` / `UnrollPolicy::Explore`) use this model, as does the
//!   verification campaign.
//!
//! Unrolling **composes**: every copy records its flat root-relative copy index and
//! its node id in the root (pre-unrolling) graph, so `unroll(unroll(g, a), b)` is
//! structurally identical to `unroll(g, a·b)` — same node order, same provenance,
//! same remapped edges (guarded by tests below).

use crate::graph::{DepGraph, NodeId};

/// An exactly-unrolled loop: the kernel graph plus the leftover iteration count.
#[derive(Debug, Clone, PartialEq)]
pub struct UnrolledLoop {
    /// The unrolled body; its `iterations` is `⌊NITER / U⌋`.
    pub kernel: DepGraph,
    /// `NITER mod U` — iterations the kernel does not cover.  They must be executed
    /// by an epilogue invocation of the original loop body (the original body's
    /// modulo schedule, run `remainder_iterations` times).
    pub remainder_iterations: u64,
}

/// Build the `factor`-times-replicated body of `graph` (nodes, edges, invocations —
/// everything except the iteration count, which the two public entry points model
/// differently).
fn unrolled_body(graph: &DepGraph, factor: u32) -> DepGraph {
    let mut out = DepGraph::new(format!("{}x{}", graph.name, factor));
    out.invocations = graph.invocations;

    // Flat copy indices compose across repeated unrolling: copying copy `c_prev` of a
    // graph that already holds `prev` copies per original as the `c`-th copy yields
    // flat copy `c * prev + c_prev` — iteration `c` of the new body is iterations
    // `[c·prev, (c+1)·prev)` of the root loop.
    let prev = graph.copies_per_original();
    let ids: Vec<Vec<NodeId>> = (0..factor)
        .map(|copy| {
            graph
                .nodes()
                .map(|node| out.add_copy_of(node, copy * prev + node.copy))
                .collect()
        })
        .collect();

    for copy in 0..factor {
        for e in graph.edges() {
            let target_copy = (copy + e.distance) % factor;
            let new_distance = (copy + e.distance) / factor;
            out.add_edge(
                ids[copy as usize][e.src.index()],
                ids[target_copy as usize][e.dst.index()],
                e.latency,
                new_distance,
                e.kind,
            );
        }
    }
    out
}

/// Unroll `graph` by `factor` under the paper's iteration model, returning the new
/// graph.
///
/// * `factor == 1` returns a plain clone.
/// * The returned graph's `iterations` is `⌈iterations / factor⌉` — the overshoot
///   model of Section 5.2 (see the module docs; [`unroll_exact`] models the
///   remainder exactly).  Its name is suffixed with `xU`.
/// * Node `copy`/`original` fields record the provenance of every copy relative to
///   the **root** graph so that IPC accounting can keep counting *original*
///   operations even across composed unrolling steps.
pub fn unroll(graph: &DepGraph, factor: u32) -> DepGraph {
    assert!(factor >= 1, "unroll factor must be at least 1");
    if factor == 1 {
        return graph.clone();
    }
    let mut out = unrolled_body(graph, factor);
    out.iterations = graph.iterations.div_ceil(factor as u64);
    out
}

/// Unroll `graph` by `factor` under the exact iteration model: the kernel runs
/// `⌊NITER / U⌋` iterations and the leftover `NITER mod U` iterations are returned
/// in [`UnrolledLoop::remainder_iterations`], to be drained by an epilogue
/// invocation of the original body.
///
/// `factor == 1` returns a clone with no remainder.  A `factor` larger than the
/// iteration count yields a kernel with zero iterations — callers should treat that
/// as "do not unroll" (the whole trip count would run in the epilogue).
pub fn unroll_exact(graph: &DepGraph, factor: u32) -> UnrolledLoop {
    assert!(factor >= 1, "unroll factor must be at least 1");
    if factor == 1 {
        return UnrolledLoop {
            kernel: graph.clone(),
            remainder_iterations: 0,
        };
    }
    let mut kernel = unrolled_body(graph, factor);
    kernel.iterations = graph.iterations / factor as u64;
    UnrolledLoop {
        kernel,
        remainder_iterations: graph.iterations % factor as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DepGraph, DepKind};
    use crate::mii::rec_mii;
    use vliw_arch::OpClass;

    fn simple_loop() -> DepGraph {
        // load -> fmul -> store, plus fmul -> fmul at distance 1 (accumulator-like).
        let mut g = DepGraph::new("simple");
        let a = g.add_named_node(OpClass::Load, Some("a"));
        let b = g.add_named_node(OpClass::FpMul, Some("b"));
        let c = g.add_named_node(OpClass::Store, Some("c"));
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g.add_edge(b, c, 4, 0, DepKind::Flow);
        g.add_edge(b, b, 4, 1, DepKind::Flow);
        g.with_iterations(100)
    }

    #[test]
    fn factor_one_is_identity() {
        let g = simple_loop();
        let u = unroll(&g, 1);
        assert_eq!(u, g);
        let exact = unroll_exact(&g, 1);
        assert_eq!(exact.kernel, g);
        assert_eq!(exact.remainder_iterations, 0);
    }

    #[test]
    fn node_and_edge_counts_scale_with_factor() {
        let g = simple_loop();
        for factor in [2u32, 3, 4] {
            let u = unroll(&g, factor);
            assert_eq!(u.n_nodes(), g.n_nodes() * factor as usize);
            assert_eq!(u.n_edges(), g.n_edges() * factor as usize);
            assert!(u.validate().is_ok());
        }
    }

    #[test]
    fn iterations_divide_by_factor() {
        let g = simple_loop();
        assert_eq!(unroll(&g, 2).iterations, 50);
        assert_eq!(unroll(&g, 3).iterations, 34); // ceil(100/3): the paper's overshoot
        assert_eq!(unroll(&g, 4).iterations, 25);
    }

    #[test]
    fn exact_unrolling_models_the_remainder() {
        let g = simple_loop();
        // 100 = 3·33 + 1: the kernel covers 99 iterations, the epilogue 1.
        let exact = unroll_exact(&g, 3);
        assert_eq!(exact.kernel.iterations, 33);
        assert_eq!(exact.remainder_iterations, 1);
        // Covered iterations always add up to NITER exactly.
        for factor in 2..=8u32 {
            let e = unroll_exact(&g, factor);
            assert_eq!(
                e.kernel.iterations * factor as u64 + e.remainder_iterations,
                g.iterations,
                "factor {factor}"
            );
            assert!(e.remainder_iterations < factor as u64);
        }
        // Dividing factors have no remainder and agree with the paper model.
        let even = unroll_exact(&g, 4);
        assert_eq!(even.remainder_iterations, 0);
        assert_eq!(even.kernel, unroll(&g, 4));
    }

    #[test]
    fn exact_factor_above_niter_yields_an_empty_kernel() {
        let g = simple_loop().with_iterations(3);
        let e = unroll_exact(&g, 4);
        assert_eq!(e.kernel.iterations, 0);
        assert_eq!(e.remainder_iterations, 3);
    }

    #[test]
    fn original_intra_iteration_edges_stay_inside_their_copy() {
        let g = simple_loop();
        let factor = 2u32;
        let u = unroll(&g, factor);
        // Each original distance-0 edge yields `factor` copies, all within one copy of
        // the body; original distance-d edges go from copy i to copy (i+d) mod factor.
        let same_copy_zero_dist = u
            .edges()
            .filter(|e| e.distance == 0 && u.node(e.src).copy == u.node(e.dst).copy)
            .count();
        let original_zero_dist = g.edges().filter(|e| e.distance == 0).count();
        assert_eq!(same_copy_zero_dist, original_zero_dist * factor as usize);
        for e in u.edges() {
            let orig_src = u.node(e.src).original;
            let orig_dst = u.node(e.dst).original;
            // Provenance: the unrolled edge maps back to an original edge.
            assert!(g
                .edges()
                .any(|oe| oe.src == orig_src && oe.dst == orig_dst && oe.kind == e.kind));
        }
    }

    #[test]
    fn distance_one_edge_connects_consecutive_copies() {
        let g = simple_loop();
        let u = unroll(&g, 2);
        // The accumulator edge b->b (distance 1) must appear as copy0 -> copy1 at
        // distance 0 and copy1 -> copy0 at distance 1.
        let acc_edges: Vec<_> = u
            .edges()
            .filter(|e| u.node(e.src).original == u.node(e.dst).original && e.src != e.dst)
            .collect();
        assert_eq!(acc_edges.len(), 2);
        let zero_dist = acc_edges.iter().find(|e| e.distance == 0).unwrap();
        assert_eq!(u.node(zero_dist.src).copy, 0);
        assert_eq!(u.node(zero_dist.dst).copy, 1);
        let one_dist = acc_edges.iter().find(|e| e.distance == 1).unwrap();
        assert_eq!(u.node(one_dist.src).copy, 1);
        assert_eq!(u.node(one_dist.dst).copy, 0);
    }

    #[test]
    fn distance_multiple_of_factor_stays_within_copy_with_reduced_distance() {
        let mut g = DepGraph::new("dist2");
        let a = g.add_node(OpClass::FpAdd);
        g.add_edge(a, a, 3, 2, DepKind::Flow);
        let u = unroll(&g, 2);
        // Each copy keeps a self edge at distance 1.
        assert_eq!(u.n_edges(), 2);
        for e in u.edges() {
            assert_eq!(e.src, e.dst);
            assert_eq!(e.distance, 1);
        }
    }

    #[test]
    fn per_iteration_rec_mii_does_not_increase() {
        // RecMII of the unrolled graph, divided by the factor, can only improve
        // (Lavery & Hwu's observation): here RecMII = 4 and unrolled-by-2 RecMII = 8,
        // i.e. exactly 4 per original iteration.
        let g = simple_loop();
        let r1 = rec_mii(&g);
        let u = unroll(&g, 2);
        let r2 = rec_mii(&u);
        assert!(r2 <= r1 * 2);
        assert_eq!(r1, 4);
        assert_eq!(r2, 8);
    }

    #[test]
    fn provenance_is_recorded() {
        let g = simple_loop();
        let u = unroll(&g, 3);
        for node in u.nodes() {
            assert!(node.copy < 3);
            assert!(node.original.index() < g.n_nodes());
            assert_eq!(node.class, g.node(node.original).class);
        }
        // Exactly `factor` copies of each original node, with distinct copy indices.
        for orig in g.node_ids() {
            let copies: Vec<u32> = u
                .nodes()
                .filter(|n| n.original == orig)
                .map(|n| n.copy)
                .collect();
            assert_eq!(copies.len(), 3);
            let distinct: std::collections::BTreeSet<u32> = copies.iter().copied().collect();
            assert_eq!(distinct.len(), 3);
        }
        assert_eq!(u.copies_per_original(), 3);
    }

    /// The provenance-composition guard of the factor-exploration subsystem:
    /// unrolling an unrolled graph must attribute every node to the *root* graph
    /// with a flat copy index, exactly as a single unroll by the product factor
    /// would.  (A provenance scheme rebased on the intermediate graph would collapse
    /// the four copies onto two copy indices and corrupt useful-op accounting.)
    #[test]
    fn double_unroll_composes_to_the_product_factor() {
        let g = simple_loop();
        let composed = unroll(&unroll(&g, 2), 2);
        let direct = unroll(&g, 4);

        assert_eq!(composed.iterations, direct.iterations);
        assert_eq!(composed.n_nodes(), direct.n_nodes());
        assert_eq!(composed.n_edges(), direct.n_edges());
        assert_eq!(composed.copies_per_original(), 4);

        // Node-by-node: same class, same root original, same flat copy, same name.
        for (a, b) in composed.nodes().zip(direct.nodes()) {
            assert_eq!(a.class, b.class);
            assert_eq!(a.original, b.original, "original must refer to the root");
            assert_eq!(a.copy, b.copy, "copy must be the flat root-relative index");
            assert_eq!(a.name, b.name);
        }
        // Edge-by-edge: identical remapping.
        for (a, b) in composed.edges().zip(direct.edges()) {
            assert_eq!(
                (a.src, a.dst, a.latency, a.distance, a.kind),
                (b.src, b.dst, b.latency, b.distance, b.kind)
            );
        }
        // Exact model composes too: floor(floor(100/2)/2) == floor(100/4).
        let composed_exact = unroll_exact(&unroll_exact(&g, 2).kernel, 2);
        assert_eq!(
            composed_exact.kernel.iterations,
            unroll_exact(&g, 4).kernel.iterations
        );
    }

    #[test]
    fn names_of_copies_get_a_suffix() {
        let g = simple_loop();
        let u = unroll(&g, 2);
        let names: Vec<String> = u.nodes().map(super::super::graph::Node::label).collect();
        assert!(names.contains(&"a".to_string()));
        assert!(names.contains(&"a'1".to_string()));
        // Composed unrolling suffixes from the root base name, not the intermediate.
        let uu = unroll(&u, 2);
        let names: Vec<String> = uu.nodes().map(super::super::graph::Node::label).collect();
        for expected in ["a", "a'1", "a'2", "a'3"] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
        assert!(!names
            .iter()
            .any(|n| n.contains("''") || n.matches('\'').count() > 1));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_factor_panics() {
        let g = simple_loop();
        let _ = unroll(&g, 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_factor_panics_exactly_too() {
        let g = simple_loop();
        let _ = unroll_exact(&g, 0);
    }
}
