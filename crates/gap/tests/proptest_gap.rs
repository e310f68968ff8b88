//! Property tests for the GAP pipeline.
//!
//! Invariants checked on random small instances:
//! * the Shmoys–Tardos assignment costs no more than the LP optimum;
//! * the LP optimum lower-bounds the exact integral optimum;
//! * rounding never overflows a bin by more than the largest item weight;
//! * the transportation fast path agrees with the general LP relaxation,
//!   also on instances with fractional weights, forbidden pairs,
//!   zero-capacity bins and exact cost ties, and fails exactly when it does;
//! * the `verify::check_assignment` certifier accepts every rounded output.

use mec_gap::{check_assignment, exact, greedy, lp_relax, shmoys_tardos, GapInstance, FORBIDDEN};
use mec_lp::SolverBackend;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandInst {
    items: usize,
    bins: usize,
    costs: Vec<f64>,
    weights: Vec<f64>,
    cap_slack: f64,
}

fn rand_inst() -> impl Strategy<Value = RandInst> {
    (2usize..6, 2usize..4).prop_flat_map(|(items, bins)| {
        let costs = proptest::collection::vec(0.1..10.0f64, items * bins);
        let weights = proptest::collection::vec(0.5..2.0f64, items);
        (Just(items), Just(bins), costs, weights, 1.1..3.0f64).prop_map(
            |(items, bins, costs, weights, cap_slack)| RandInst {
                items,
                bins,
                costs,
                weights,
                cap_slack,
            },
        )
    })
}

fn build(r: &RandInst) -> GapInstance {
    let mut inst = GapInstance::new(r.items, r.bins);
    for i in 0..r.items {
        for j in 0..r.bins {
            inst.set_cost(i, j, r.costs[i * r.bins + j]);
        }
        inst.set_item_weight(i, r.weights[i]);
    }
    // Capacity sized so the instance is always feasible: the total weight
    // split across bins with some slack.
    let total: f64 = r.weights.iter().sum();
    let per_bin = total / r.bins as f64 * r.cap_slack + 2.0;
    for j in 0..r.bins {
        inst.set_capacity(j, per_bin);
    }
    inst
}

/// A transportation-class instance (per-item uniform weights) built to be
/// degenerate: costs drawn from a few integers tie exactly, some pairs are
/// forbidden, some bins have zero capacity, and the capacities may not
/// cover the total weight.
#[derive(Debug, Clone)]
struct TransportInst {
    items: usize,
    bins: usize,
    costs: Vec<f64>,
    forbidden: Vec<bool>,
    weights: Vec<f64>,
    /// Per bin: its share of the total weight (zero = zero capacity).
    cap_share: Vec<f64>,
}

fn transport_inst() -> impl Strategy<Value = TransportInst> {
    (2usize..9, 2usize..6).prop_flat_map(|(items, bins)| {
        // Half the costs are small integers (exact ties), a seventh of the
        // items weigh nothing, a quarter of the pairs are forbidden and a
        // quarter of the bins have no capacity.
        let cost = (0u8..2, 1u8..4, 0.1..10.0f64)
            .prop_map(|(k, tie, x)| if k == 0 { f64::from(tie) } else { x });
        let weight = (0u8..7, 0.05..2.0f64).prop_map(|(k, w)| if k == 0 { 0.0 } else { w });
        let forbidden = (0u8..4).prop_map(|k| k == 0);
        let share = (0u8..4, 0.1..0.8f64).prop_map(|(k, x)| if k == 0 { 0.0 } else { x });
        (
            Just(items),
            Just(bins),
            proptest::collection::vec(cost, items * bins),
            proptest::collection::vec(forbidden, items * bins),
            proptest::collection::vec(weight, items),
            proptest::collection::vec(share, bins),
        )
            .prop_map(|(items, bins, costs, forbidden, weights, cap_share)| {
                TransportInst {
                    items,
                    bins,
                    costs,
                    forbidden,
                    weights,
                    cap_share,
                }
            })
    })
}

fn build_transport(r: &TransportInst) -> GapInstance {
    let mut inst = GapInstance::new(r.items, r.bins);
    let total: f64 = r.weights.iter().sum();
    for i in 0..r.items {
        for j in 0..r.bins {
            let k = i * r.bins + j;
            inst.set_cost(
                i,
                j,
                if r.forbidden[k] {
                    FORBIDDEN
                } else {
                    r.costs[k]
                },
            );
        }
        inst.set_item_weight(i, r.weights[i]);
    }
    for j in 0..r.bins {
        inst.set_capacity(j, r.cap_share[j] * total);
    }
    inst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The network simplex behind the transportation fast path against the
    /// revised simplex on the general LP: the same optimum within 1e-6, or
    /// the same error.
    #[test]
    fn transportation_matches_revised_on_degenerate_instances(r in transport_inst()) {
        let inst = build_transport(&r);
        prop_assert!(inst.has_uniform_allowed_weights());
        let lp = lp_relax::solve_lp_with(&inst, SolverBackend::Revised);
        let flow = lp_relax::solve_transportation(&inst);
        match (lp, flow) {
            (Ok(a), Ok(b)) => {
                prop_assert!((a.objective - b.objective).abs() < 1e-6 * (1.0 + a.objective.abs()),
                    "revised {} vs transportation {}", a.objective, b.objective);
                prop_assert!(b.covers_all_items(r.items));
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "revised {:?} vs transportation {:?}",
                a.map(|s| s.objective), b.map(|s| s.objective)),
        }
    }

    #[test]
    fn st_cost_at_most_lp(r in rand_inst()) {
        let inst = build(&r);
        let sol = shmoys_tardos::solve(&inst).unwrap();
        prop_assert!(sol.assignment_cost <= sol.lp_objective + 1e-6,
            "rounded {} > LP {}", sol.assignment_cost, sol.lp_objective);
    }

    #[test]
    fn lp_lower_bounds_exact(r in rand_inst()) {
        let inst = build(&r);
        let sol = shmoys_tardos::solve(&inst).unwrap();
        let opt = exact::solve(&inst).unwrap();
        prop_assert!(sol.lp_objective <= opt.total_cost(&inst) + 1e-6,
            "LP {} > OPT {}", sol.lp_objective, opt.total_cost(&inst));
    }

    #[test]
    fn rounding_overflow_bounded(r in rand_inst()) {
        let inst = build(&r);
        let sol = shmoys_tardos::solve(&inst).unwrap();
        let max_w = r.weights.iter().cloned().fold(0.0, f64::max);
        prop_assert!(sol.assignment.max_overflow(&inst) <= max_w + 1e-9);
    }

    #[test]
    fn transportation_agrees_with_lp(r in rand_inst()) {
        let inst = build(&r);
        let a = lp_relax::solve_lp(&inst).unwrap();
        let b = lp_relax::solve_transportation(&inst).unwrap();
        prop_assert!((a.objective - b.objective).abs() < 1e-5,
            "LP {} vs transportation {}", a.objective, b.objective);
    }

    #[test]
    fn greedy_feasible_when_it_succeeds(r in rand_inst()) {
        let inst = build(&r);
        if let Ok(a) = greedy::solve(&inst) {
            prop_assert!(a.is_capacity_feasible(&inst));
            let opt = exact::solve(&inst).unwrap();
            prop_assert!(a.total_cost(&inst) >= opt.total_cost(&inst) - 1e-9);
        }
    }

    /// The independent validity certifier (`verify::check_assignment`)
    /// accepts every Shmoys–Tardos output: in-range bins, no forbidden
    /// pairs, loads within the augmented capacities.
    #[test]
    fn st_output_passes_validity_certificate(r in rand_inst()) {
        let inst = build(&r);
        let sol = shmoys_tardos::solve(&inst).unwrap();
        let violations = check_assignment(&inst, &sol.assignment, 1e-9);
        prop_assert!(violations.is_empty(), "certifier rejected ST output: {violations:?}");
    }

    #[test]
    fn fractional_solution_covers_items(r in rand_inst()) {
        let inst = build(&r);
        let frac = lp_relax::solve_relaxation(&inst).unwrap();
        prop_assert!(frac.covers_all_items(r.items));
    }

    /// The dense tableau and the sparse revised simplex solve the same
    /// assignment LP; their optima must agree on every random relaxation.
    #[test]
    fn dense_and_revised_agree_on_relaxation(r in rand_inst()) {
        let inst = build(&r);
        let dense = lp_relax::solve_lp_with(&inst, SolverBackend::Dense).unwrap();
        let revised = lp_relax::solve_lp_with(&inst, SolverBackend::Revised).unwrap();
        prop_assert!((dense.objective - revised.objective).abs()
            < 1e-5 * (1.0 + dense.objective.abs()),
            "dense {} vs revised {}", dense.objective, revised.objective);
    }

    /// Widened fast-path applicability: uniform per-item weights with
    /// FORBIDDEN arcs still qualify (`has_uniform_allowed_weights`), and
    /// the transportation optimum matches the general LP there. Bin 0 is
    /// never forbidden, so every item fits somewhere.
    #[test]
    fn transportation_agrees_with_forbidden_arcs(
        r in rand_inst(),
        forbidden in proptest::collection::vec(proptest::bool::ANY, 5 * 3),
    ) {
        let mut inst = build(&r);
        for i in 0..r.items {
            for j in 1..r.bins {
                if forbidden[(i * r.bins + j) % forbidden.len()] {
                    inst.set_cost(i, j, FORBIDDEN);
                }
            }
        }
        // Forbidding arcs can push every item onto one bin; size capacities
        // so the instance stays feasible no matter how arcs were removed.
        let total: f64 = r.weights.iter().sum();
        for j in 0..r.bins {
            inst.set_capacity(j, total + 2.0);
        }
        prop_assert!(inst.has_uniform_allowed_weights());
        let a = lp_relax::solve_lp(&inst).unwrap();
        let b = lp_relax::solve_transportation(&inst).unwrap();
        prop_assert!((a.objective - b.objective).abs()
            < 1e-5 * (1.0 + a.objective.abs()),
            "LP {} vs transportation {}", a.objective, b.objective);
    }
}
