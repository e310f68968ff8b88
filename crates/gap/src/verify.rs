//! Validity checking for GAP assignments.
//!
//! [`check_assignment`] certifies the Shmoys–Tardos guarantee from first
//! principles: every item is assigned to an in-range bin it is actually
//! allowed in (finite cost), and no bin's load exceeds its *augmented*
//! capacity `CAP_j + max_i w_ij` — the rounding's Lemma-2 bound. It reads
//! only the raw instance data, sharing no code with the rounding itself.
//!
//! [`check_flow`] certifies a solved [`MinCostFlow`] the same way: the
//! flow is conserved and within its bounds, the final node potentials
//! prove it minimum-cost, and a short routing leaves no augmenting path.
//!
//! With the `verify` cargo feature enabled,
//! [`crate::shmoys_tardos::solve`] and [`MinCostFlow::run`] certify their
//! own output before returning and panic with a full report on any
//! violation.

use crate::flow::{FlowResult, MinCostFlow};
use crate::instance::{Assignment, GapInstance};
use crate::shmoys_tardos::augmented_capacity;
use mec_num::{approx_eq, approx_ge, approx_le};

/// A single broken invariant found in a GAP [`Assignment`].
#[derive(Debug, Clone, PartialEq)]
pub enum GapViolation {
    /// An item points at a bin index `>= inst.bins()`.
    BinOutOfRange {
        /// The item.
        item: usize,
        /// The out-of-range bin index.
        bin: usize,
    },
    /// An item was assigned to a bin its cost marks as forbidden.
    ForbiddenAssignment {
        /// The item.
        item: usize,
        /// The forbidden bin.
        bin: usize,
    },
    /// A bin's load exceeds its augmented capacity.
    BinOverloaded {
        /// The bin.
        bin: usize,
        /// Load the assignment puts on it.
        load: f64,
        /// `CAP_j + max_i w_ij`, the Shmoys–Tardos bound.
        augmented_capacity: f64,
    },
    /// The assignment covers a different number of items than the instance.
    ItemCountMismatch {
        /// Items in the assignment.
        assigned: usize,
        /// Items in the instance.
        expected: usize,
    },
}

impl std::fmt::Display for GapViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GapViolation::BinOutOfRange { item, bin } => {
                write!(f, "item {item} assigned to out-of-range bin {bin}")
            }
            GapViolation::ForbiddenAssignment { item, bin } => {
                write!(f, "item {item} assigned to forbidden bin {bin}")
            }
            GapViolation::BinOverloaded {
                bin,
                load,
                augmented_capacity,
            } => write!(
                f,
                "bin {bin} load {load} exceeds augmented capacity {augmented_capacity}"
            ),
            GapViolation::ItemCountMismatch { assigned, expected } => {
                write!(
                    f,
                    "assignment covers {assigned} items, instance has {expected}"
                )
            }
        }
    }
}

/// Certifies `assignment` against `inst`; returns every violation found
/// (empty = valid under the Shmoys–Tardos augmented-capacity guarantee).
///
/// `tol` is the absolute slack allowed on each bin's augmented capacity.
pub fn check_assignment(
    inst: &GapInstance,
    assignment: &Assignment,
    tol: f64,
) -> Vec<GapViolation> {
    let mut out = Vec::new();
    if assignment.len() != inst.items() {
        out.push(GapViolation::ItemCountMismatch {
            assigned: assignment.len(),
            expected: inst.items(),
        });
        return out; // Loads below would index out of bounds.
    }

    let mut loads = vec![0.0; inst.bins()];
    for (item, bin) in assignment.iter() {
        if bin >= inst.bins() {
            out.push(GapViolation::BinOutOfRange { item, bin });
            continue;
        }
        if !inst.cost(item, bin).is_finite() {
            out.push(GapViolation::ForbiddenAssignment { item, bin });
        }
        loads[bin] += inst.weight(item, bin);
    }

    for (bin, &load) in loads.iter().enumerate() {
        let cap = augmented_capacity(inst, bin);
        if !approx_le(load, cap, tol) {
            out.push(GapViolation::BinOverloaded {
                bin,
                load,
                augmented_capacity: cap,
            });
        }
    }
    out
}

/// A single broken invariant found in a solved [`MinCostFlow`].
#[derive(Debug, Clone, PartialEq)]
pub enum FlowViolation {
    /// An arc's flow lies outside `[0, cap]`.
    OutOfBounds {
        /// Arc index, in insertion order.
        arc: usize,
        /// Its flow.
        flow: f64,
        /// Its capacity.
        cap: f64,
    },
    /// A node's net outflow differs from its supply: the routed amount at
    /// the source, minus that at the sink, zero elsewhere.
    Unbalanced {
        /// The node.
        node: usize,
        /// Flow out of it minus flow into it.
        net_outflow: f64,
        /// What conservation requires.
        expected: f64,
    },
    /// An arc with residual capacity has a negative reduced cost under the
    /// final potentials, so the flow is not minimum-cost.
    NotOptimal {
        /// Arc index, in insertion order.
        arc: usize,
        /// Reduced cost in the arc's residual direction.
        reduced_cost: f64,
    },
    /// The reported cost is not the cost of the arc flows.
    CostMismatch {
        /// Cost the run reported.
        reported: f64,
        /// `Σ cost · flow` over the arcs.
        actual: f64,
    },
    /// More than the requested amount was routed, or less while the
    /// residual network still has a source-to-sink path.
    WrongAmount {
        /// Flow the run reported.
        routed: f64,
        /// Flow that was requested.
        amount: f64,
    },
}

impl std::fmt::Display for FlowViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowViolation::OutOfBounds { arc, flow, cap } => {
                write!(f, "arc {arc} carries {flow}, outside [0, {cap}]")
            }
            FlowViolation::Unbalanced {
                node,
                net_outflow,
                expected,
            } => write!(
                f,
                "node {node} net outflow {net_outflow}, expected {expected}"
            ),
            FlowViolation::NotOptimal { arc, reduced_cost } => {
                write!(f, "residual arc {arc} has reduced cost {reduced_cost}")
            }
            FlowViolation::CostMismatch { reported, actual } => {
                write!(f, "reported cost {reported}, arc flows cost {actual}")
            }
            FlowViolation::WrongAmount { routed, amount } => {
                write!(
                    f,
                    "routed {routed} of {amount}: too much, or short with an augmenting path left"
                )
            }
        }
    }
}

/// Certifies the flow a [`MinCostFlow::run`]`(s, t, amount)` call left on
/// `net` and the `result` it returned; returns every violation found
/// (empty = a minimum-cost flow of the maximum amount up to `amount`).
///
/// `tol` is relative: flows are compared within `tol · (1 + amount)`,
/// reduced costs within `tol · (1 + max |potential|)`.
pub fn check_flow(
    net: &MinCostFlow,
    s: usize,
    t: usize,
    amount: f64,
    result: FlowResult,
    tol: f64,
) -> Vec<FlowViolation> {
    let n = net.node_count();
    let flow_tol = tol * (1.0 + amount);
    let pi = |v: usize| net.pi.get(v).copied().unwrap_or(0.0);
    let cost_tol = tol * (1.0 + net.pi.iter().fold(0.0, |a: f64, p| a.max(p.abs())));
    let mut out = Vec::new();
    let mut net_outflow = vec![0.0; n];
    let mut actual = 0.0;
    // Residual graph, to look for an augmenting path if the run was short.
    let mut residual = vec![Vec::new(); n];
    for arc in 0..net.flow.len() {
        let (u, v, cap, flow) = (
            net.source[arc],
            net.target[arc],
            net.cap[arc],
            net.flow[arc],
        );
        if !approx_ge(flow, 0.0, flow_tol) || !approx_le(flow, cap, flow_tol) {
            out.push(FlowViolation::OutOfBounds { arc, flow, cap });
        }
        net_outflow[u] += flow;
        net_outflow[v] -= flow;
        actual += net.cost[arc] * flow;
        let rc = net.cost[arc] + pi(u) - pi(v);
        let residual_fwd = !approx_ge(flow, cap, flow_tol);
        let residual_bwd = !approx_le(flow, 0.0, flow_tol);
        if residual_fwd {
            residual[u].push(v);
            if !approx_ge(rc, 0.0, cost_tol) {
                out.push(FlowViolation::NotOptimal {
                    arc,
                    reduced_cost: rc,
                });
            }
        }
        if residual_bwd {
            residual[v].push(u);
            if !approx_le(rc, 0.0, cost_tol) {
                out.push(FlowViolation::NotOptimal {
                    arc,
                    reduced_cost: -rc,
                });
            }
        }
    }
    for (node, &net_out) in net_outflow.iter().enumerate() {
        let expected = if node == s {
            result.flow
        } else if node == t {
            -result.flow
        } else {
            0.0
        };
        if !approx_eq(net_out, expected, flow_tol) {
            out.push(FlowViolation::Unbalanced {
                node,
                net_outflow: net_out,
                expected,
            });
        }
    }
    if !approx_eq(result.cost, actual, tol * (1.0 + actual.abs())) {
        out.push(FlowViolation::CostMismatch {
            reported: result.cost,
            actual,
        });
    }
    let short = !approx_ge(result.flow, amount, flow_tol);
    if !approx_le(result.flow, amount, flow_tol) || (short && reachable(&residual, s, t)) {
        out.push(FlowViolation::WrongAmount {
            routed: result.flow,
            amount,
        });
    }
    out
}

/// Whether `t` is reachable from `s` in the graph given by `adj`.
fn reachable(adj: &[Vec<usize>], s: usize, t: usize) -> bool {
    let mut seen = vec![false; adj.len()];
    seen[s] = true;
    let mut stack = vec![s];
    while let Some(u) = stack.pop() {
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    seen[t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::FORBIDDEN;

    fn inst() -> GapInstance {
        let mut inst = GapInstance::new(3, 2);
        inst.set_cost(0, 0, 1.0).set_cost(0, 1, 2.0);
        inst.set_cost(1, 0, 2.0).set_cost(1, 1, 1.0);
        inst.set_cost(2, 0, 3.0).set_cost(2, 1, FORBIDDEN);
        inst.set_uniform_weights(1.0);
        inst.set_capacity(0, 2.0);
        inst.set_capacity(1, 1.0);
        inst
    }

    #[test]
    fn valid_assignment_is_clean() {
        let i = inst();
        let a = Assignment::new(vec![0, 1, 0]);
        assert_eq!(check_assignment(&i, &a, 1e-9), vec![]);
    }

    #[test]
    fn flags_forbidden_pair() {
        let i = inst();
        let a = Assignment::new(vec![0, 1, 1]);
        let v = check_assignment(&i, &a, 1e-9);
        assert!(v
            .iter()
            .any(|v| matches!(v, GapViolation::ForbiddenAssignment { item: 2, bin: 1 })));
    }

    #[test]
    fn flags_overload_beyond_augmentation() {
        // Bin 1: capacity 1, max allowed weight 1 -> augmented cap 2.
        // Three unit items overflow even the augmented bound.
        let mut i = inst();
        i.set_cost(2, 1, 5.0); // make it allowed so overload is the only issue
        let a = Assignment::new(vec![1, 1, 1]);
        let v = check_assignment(&i, &a, 1e-9);
        assert!(v
            .iter()
            .any(|v| matches!(v, GapViolation::BinOverloaded { bin: 1, .. })));
    }

    #[test]
    fn allows_overflow_within_augmentation() {
        // Two unit items in bin 1 (cap 1, augmented 2): exactly the
        // Shmoys–Tardos worst case, which must certify as valid.
        let mut i = inst();
        i.set_cost(2, 1, 5.0);
        let a = Assignment::new(vec![0, 1, 1]);
        assert_eq!(check_assignment(&i, &a, 1e-9), vec![]);
    }

    #[test]
    fn flags_out_of_range_bin_and_count_mismatch() {
        let i = inst();
        let a = Assignment::new(vec![0, 1, 7]);
        let v = check_assignment(&i, &a, 1e-9);
        assert!(v
            .iter()
            .any(|v| matches!(v, GapViolation::BinOutOfRange { item: 2, bin: 7 })));
        let short = Assignment::new(vec![0]);
        let v = check_assignment(&i, &short, 1e-9);
        assert_eq!(
            v,
            vec![GapViolation::ItemCountMismatch {
                assigned: 1,
                expected: 3
            }]
        );
    }

    /// `s -> a -> t` is cheap, `s -> b -> t` dear; one unit to route.
    fn two_paths() -> (MinCostFlow, FlowResult) {
        let mut f = MinCostFlow::new(4);
        f.add_edge(0, 1, 1.0, 1.0);
        f.add_edge(1, 3, 1.0, 1.0);
        f.add_edge(0, 2, 1.0, 5.0);
        f.add_edge(2, 3, 1.0, 5.0);
        let r = f.run(0, 3, 1.0);
        (f, r)
    }

    #[test]
    fn solved_flow_is_clean() {
        let (f, r) = two_paths();
        assert_eq!(check_flow(&f, 0, 3, 1.0, r, 1e-9), vec![]);
    }

    #[test]
    fn flags_perturbed_flows() {
        // Half a unit more on one arc: s and a no longer balance.
        let (mut f, r) = two_paths();
        f.flow[0] += 0.5;
        let v = check_flow(&f, 0, 3, 1.0, r, 1e-9);
        assert!(v
            .iter()
            .any(|v| matches!(v, FlowViolation::Unbalanced { node: 1, .. })));
        assert!(v
            .iter()
            .any(|v| matches!(v, FlowViolation::CostMismatch { .. })));

        // Beyond capacity.
        let (mut f, r) = two_paths();
        f.flow[1] = 1.5;
        let v = check_flow(&f, 0, 3, 1.0, r, 1e-9);
        assert!(v
            .iter()
            .any(|v| matches!(v, FlowViolation::OutOfBounds { arc: 1, .. })));

        // Balanced and within bounds, but over the dear path: the cheap
        // path's arcs have residual capacity at a negative reduced cost
        // under the potentials of the optimum.
        let (mut f, _) = two_paths();
        f.flow = vec![0.0, 0.0, 1.0, 1.0];
        let dear = FlowResult {
            flow: 1.0,
            cost: 10.0,
        };
        let v = check_flow(&f, 0, 3, 1.0, dear, 1e-9);
        assert!(v
            .iter()
            .any(|v| matches!(v, FlowViolation::NotOptimal { .. })));

        // Nothing routed although a path is free.
        let (mut f, _) = two_paths();
        f.flow = vec![0.0; 4];
        let none = FlowResult {
            flow: 0.0,
            cost: 0.0,
        };
        let v = check_flow(&f, 0, 3, 1.0, none, 1e-9);
        assert!(v
            .iter()
            .any(|v| matches!(v, FlowViolation::WrongAmount { .. })));
        for v in v {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn violations_render() {
        let i = inst();
        let a = Assignment::new(vec![0, 1, 1]);
        for v in check_assignment(&i, &a, 1e-9) {
            assert!(!v.to_string().is_empty());
        }
    }
}
