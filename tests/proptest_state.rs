//! Differential property tests: the incremental `GameState` must stay in
//! exact agreement with recomputation from scratch under arbitrary move
//! and demand-change sequences, and every query answered from its
//! maintained aggregates must match the reference `Profile` path.

use mec_core::game::{best_response, BestResponseDynamics, MoveOrder};
use mec_core::model::{CloudletSpec, Market, ProviderSpec};
use mec_core::state::GameState;
use mec_core::{Placement, Profile, ProviderId};
use mec_topology::CloudletId;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandMarket {
    cloudlets: Vec<(f64, f64, f64, f64)>,
    providers: Vec<(f64, f64, f64, f64)>,
    update: f64,
}

fn rand_market() -> impl Strategy<Value = RandMarket> {
    let cloudlet = (10.0..40.0f64, 50.0..200.0f64, 0.0..1.0f64, 0.0..1.0f64);
    let provider = (0.5..4.0f64, 2.0..15.0f64, 0.2..1.5f64, 3.0..25.0f64);
    (
        proptest::collection::vec(cloudlet, 2..5),
        proptest::collection::vec(provider, 3..12),
        0.0..0.5f64,
    )
        .prop_map(|(cloudlets, providers, update)| RandMarket {
            cloudlets,
            providers,
            update,
        })
}

fn build(r: &RandMarket) -> Market {
    let mut b = Market::builder();
    for &(c, bw, a, be) in &r.cloudlets {
        b = b.cloudlet(CloudletSpec::new(c, bw, a, be));
    }
    for &(cd, bd, ic, rc) in &r.providers {
        b = b.provider(ProviderSpec::new(cd, bd, ic, rc));
    }
    b.uniform_update_cost(r.update).build()
}

/// Decodes `(provider pick, cloudlet pick)` pairs into a move sequence:
/// pick == cloudlet count means Remote. Moves may be infeasible or no-ops —
/// the state must track bookkeeping regardless.
fn apply_script(state: &mut GameState<'_>, script: &[(usize, usize)]) {
    let n = state.len();
    let m = state.market().cloudlet_count();
    for &(lp, cp) in script {
        let l = ProviderId(lp % n);
        let to = match cp % (m + 1) {
            k if k == m => Placement::Remote,
            k => Placement::Cloudlet(CloudletId(k)),
        };
        let old = state.apply_move(l, to);
        let _ = old;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any sequence of moves and demand changes the maintained
    /// congestion, loads and residuals equal a from-scratch recomputation
    /// from the profile, and every `set_demand` leaves the state equal to a
    /// fresh `GameState::new` over the updated market: congestion exactly,
    /// loads within 1e-9, costs bit-identical.
    #[test]
    fn state_matches_recompute_after_any_move_sequence(
        r in rand_market(),
        script in proptest::collection::vec(
            (0usize..64, 0usize..8, proptest::bool::ANY, (0.0..6.0f64, 0.0..20.0f64)),
            0..40,
        ),
    ) {
        let market = build(&r);
        let mut updated = market.clone();
        let mut state = GameState::all_remote(&market);
        for &(lp, cp, redemand, (a, b)) in &script {
            if !redemand {
                apply_script(&mut state, &[(lp, cp)]);
                continue;
            }
            let l = ProviderId(lp % state.len());
            state.set_demand(l, a, b);
            updated.set_provider_demand(l, a, b);
            let fresh = GameState::new(&updated, state.profile().clone());
            prop_assert_eq!(state.market().provider(l), updated.provider(l));
            prop_assert_eq!(state.congestion_counts(), fresh.congestion_counts());
            let close = |(a, b): (f64, f64), (c, d): (f64, f64)| (a - c).abs() <= 1e-9 && (b - d).abs() <= 1e-9;
            prop_assert!(updated.cloudlets().all(|i| close(state.load(i), fresh.load(i))));
            let bits = |s: &GameState<'_>, k| s.provider_cost(k).to_bits();
            prop_assert!(updated.providers().all(|k| bits(&state, k) == bits(&fresh, k)));
        }
        prop_assert!(state.agrees_with_recompute(1e-9));

        let profile = state.profile().clone();
        let sigma = profile.congestion(&updated);
        prop_assert_eq!(state.congestion_counts(), sigma.as_slice());
        for (i, want) in updated.cloudlets().zip(profile.residual(&updated)) {
            let got = state.residual(i);
            prop_assert!((got.0 - want.0).abs() <= 1e-9 && (got.1 - want.1).abs() <= 1e-9,
                "residual mismatch at {}: {:?} vs {:?}", i, got, want);
        }
    }

    /// Undoing a move with the returned old placement restores the exact
    /// previous aggregates (congestion is integral, so equality is exact).
    #[test]
    fn apply_move_undo_roundtrip(
        r in rand_market(),
        script in proptest::collection::vec((0usize..64, 0usize..8), 1..30),
        probe in (0usize..64, 0usize..8),
    ) {
        let market = build(&r);
        let mut state = GameState::all_remote(&market);
        apply_script(&mut state, &script);
        let l = ProviderId(probe.0 % state.len());
        let to = match probe.1 % (market.cloudlet_count() + 1) {
            k if k == market.cloudlet_count() => Placement::Remote,
            k => Placement::Cloudlet(CloudletId(k)),
        };
        let sigma_before = state.congestion_counts().to_vec();
        let profile_before = state.profile().clone();
        let old = state.apply_move(l, to);
        state.apply_move(l, old);
        prop_assert_eq!(state.congestion_counts(), sigma_before.as_slice());
        prop_assert_eq!(state.profile(), &profile_before);
    }

    /// Every per-provider and aggregate cost answered from the maintained
    /// counts equals the Profile recompute path. Congestion is integral, so
    /// costs are bit-identical, not merely close.
    #[test]
    fn costs_identical_via_both_paths(
        r in rand_market(),
        script in proptest::collection::vec((0usize..64, 0usize..8), 0..40),
    ) {
        let market = build(&r);
        let mut state = GameState::all_remote(&market);
        apply_script(&mut state, &script);
        let profile = state.profile().clone();
        for l in market.providers() {
            prop_assert_eq!(state.provider_cost(l), profile.provider_cost(&market, l));
        }
        prop_assert_eq!(state.social_cost(), profile.social_cost(&market));
        let evens: Vec<ProviderId> = market.providers().filter(|l| l.index() % 2 == 0).collect();
        prop_assert_eq!(
            state.subset_cost(evens.iter().copied()),
            profile.subset_cost(&market, evens.iter().copied())
        );
        prop_assert_eq!(state.is_feasible(), profile.is_feasible(&market));
    }

    /// best_response answered from the maintained aggregates is identical —
    /// same placement, same cost, same tie-breaks — to the recompute path.
    #[test]
    fn best_response_identical_via_both_paths(
        r in rand_market(),
        script in proptest::collection::vec((0usize..64, 0usize..8), 0..40),
    ) {
        let market = build(&r);
        let mut state = GameState::all_remote(&market);
        apply_script(&mut state, &script);
        let profile = state.profile().clone();
        for l in market.providers() {
            prop_assert_eq!(
                state.best_response(l),
                best_response(&market, &profile, l),
                "best response diverged for {}", l
            );
        }
    }

    /// The incremental dynamics make exactly the moves the seed recompute
    /// implementation makes: identical final profile and convergence stats,
    /// for both move orders.
    #[test]
    fn dynamics_match_reference_implementation(
        r in rand_market(),
        max_gain in proptest::bool::ANY,
        mask in proptest::collection::vec(proptest::bool::ANY, 12),
    ) {
        let market = build(&r);
        let n = market.provider_count();
        let movable: Vec<bool> = (0..n).map(|k| mask[k % mask.len()]).collect();
        let order = if max_gain { MoveOrder::MaxGain } else { MoveOrder::RoundRobin };
        let driver = BestResponseDynamics::new(order);
        let mut p_inc = Profile::all_remote(n);
        let mut p_ref = Profile::all_remote(n);
        let c_inc = driver.run(&market, &mut p_inc, &movable);
        let c_ref = driver.run_reference(&market, &mut p_ref, &movable);
        prop_assert_eq!(c_inc, c_ref);
        prop_assert_eq!(p_inc, p_ref);
        prop_assert_eq!(
            p_inc.social_cost(&market),
            p_ref.social_cost(&market)
        );
    }
}
