//! Differential property tests for the one placement scan behind
//! `GameState::best_response`, `GameState::best_response_in` and
//! `GameState::cheapest_fit`. Each is checked against a plain reference
//! rule kept here: `game::best_response` for the whole market, and inline
//! copies of the per-candidate tolerance rule and of the
//! `filter(fits).min_by(total_cmp)` admission rule for restricted scopes.
//! Results must be identical — same placement, same cost bits.

use mec_core::game::{best_response, IMPROVEMENT_TOL};
use mec_core::model::{CloudletSpec, Market, ProviderSpec, CAP_SLACK};
use mec_core::state::{GameState, Scope};
use mec_core::{Placement, ProviderId};
use mec_topology::CloudletId;
use proptest::prelude::*;

/// How a random market is drawn.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Specs from a few discrete values and one uniform update cost: many
    /// candidates cost exactly the same.
    Ties,
    /// Continuous specs and a per-(provider, cloudlet) update matrix.
    Random,
    /// Identical specs, update costs a few 1e-10 apart: costs within
    /// `IMPROVEMENT_TOL` of each other.
    NearTies,
}

#[derive(Debug, Clone)]
struct RandMarket {
    kind: Kind,
    cloudlets: Vec<(f64, f64, f64, f64)>,
    providers: Vec<(f64, f64, f64, f64)>,
    /// Update-cost seeds, one per (provider, cloudlet) pair (cycled).
    update: Vec<f64>,
    /// Forbid the remote option for every provider.
    no_remote: bool,
}

fn rand_market() -> impl Strategy<Value = RandMarket> {
    let cloudlet = (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64);
    let provider = (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64);
    (
        0usize..3,
        proptest::collection::vec(cloudlet, 1..8),
        proptest::collection::vec(provider, 2..10),
        proptest::collection::vec(0.0..1.0f64, 1..40),
        0usize..4,
    )
        .prop_map(|(kind, cloudlets, providers, update, remote)| RandMarket {
            kind: [Kind::Ties, Kind::Random, Kind::NearTies][kind],
            cloudlets,
            providers,
            update,
            no_remote: remote == 0,
        })
}

/// Picks one of `values` by a unit draw.
fn pick(values: &[f64], u: f64) -> f64 {
    values[((u * values.len() as f64) as usize).min(values.len() - 1)]
}

fn build(r: &RandMarket) -> Market {
    let mut b = Market::builder();
    for &(c, bw, a, be) in &r.cloudlets {
        b = b.cloudlet(match r.kind {
            Kind::Ties => CloudletSpec::new(
                pick(&[4.0, 8.0], c),
                pick(&[20.0, 40.0], bw),
                pick(&[0.25, 0.5], a),
                pick(&[0.25, 0.5], be),
            ),
            Kind::Random => CloudletSpec::new(4.0 + 20.0 * c, 20.0 + 100.0 * bw, a, be),
            Kind::NearTies => CloudletSpec::new(6.0, 30.0, 0.5, 0.25),
        });
    }
    for &(cd, bd, ic, rc) in &r.providers {
        let remote = if r.no_remote {
            f64::INFINITY
        } else {
            2.0 + 10.0 * rc
        };
        b = b.provider(match r.kind {
            Kind::Ties => ProviderSpec::new(
                pick(&[1.0, 2.0, 4.0], cd),
                pick(&[5.0, 10.0], bd),
                pick(&[0.5, 1.0], ic),
                remote,
            ),
            Kind::Random => ProviderSpec::new(0.5 + 3.5 * cd, 2.0 + 13.0 * bd, 0.2 + ic, remote),
            Kind::NearTies => ProviderSpec::new(2.0, 10.0, 1.0, remote),
        });
    }
    let pairs = r.providers.len() * r.cloudlets.len();
    let seed = |k: usize| r.update[k % r.update.len()];
    match r.kind {
        Kind::Ties => b.uniform_update_cost(0.25).build(),
        Kind::Random => b
            .update_cost_matrix((0..pairs).map(|k| 0.5 * seed(k)).collect())
            .build(),
        Kind::NearTies => b
            .update_cost_matrix(
                (0..pairs)
                    .map(|k| 0.3 + (seed(k) * 4.0).floor() * 3e-10)
                    .collect(),
            )
            .build(),
    }
}

/// Decodes `(provider pick, cloudlet pick)` pairs into moves (`pick ==
/// cloudlet count` is remote). Moves may overload a cloudlet; the scan
/// must agree with the reference on any profile.
fn apply_script(state: &mut GameState<'_>, script: &[(usize, usize)]) {
    let n = state.len();
    let m = state.market().cloudlet_count();
    for &(lp, cp) in script {
        let to = match cp % (m + 1) {
            k if k == m => Placement::Remote,
            k => Placement::Cloudlet(CloudletId(k)),
        };
        state.apply_move(ProviderId(lp % n), to);
    }
}

/// The free space a restricted scan sees at `i`: the residual less the
/// held-back space.
fn free(state: &GameState<'_>, held: &[(f64, f64)], i: CloudletId) -> (f64, f64) {
    let (a, b) = state.residual(i);
    (a - held[i.index()].0, b - held[i.index()].1)
}

/// Reference best response over a restricted view: `free(i)` is the free
/// space at `i` with the provider *not* removed, `None` excludes `i`.
/// One candidate at a time, through the tolerance rule of
/// `game::best_response`.
fn reference_within(
    state: &GameState<'_>,
    l: ProviderId,
    free: impl Fn(CloudletId) -> Option<(f64, f64)>,
) -> Option<(Placement, f64)> {
    let market = state.market();
    let current = state.placement(l);
    let spec = market.provider(l);
    let mut best: Option<(Placement, f64)> = None;
    let mut consider = |p: Placement, cost: f64| {
        let better = match best {
            None => true,
            Some((bp, bc)) => {
                cost < bc - IMPROVEMENT_TOL
                    || ((cost - bc).abs() <= IMPROVEMENT_TOL && p == current && bp != current)
            }
        };
        if better {
            best = Some((p, cost));
        }
    };
    if spec.can_stay_remote() {
        consider(Placement::Remote, spec.remote_cost);
    }
    for i in market.cloudlets() {
        let Some((mut free_a, mut free_b)) = free(i) else {
            continue;
        };
        let mut others = state.congestion(i);
        if current == Placement::Cloudlet(i) {
            free_a += spec.compute_demand;
            free_b += spec.bandwidth_demand;
            others -= 1;
        }
        if market.fits(l, (free_a, free_b)) {
            consider(
                Placement::Cloudlet(i),
                market.caching_cost(l, i, others + 1),
            );
        }
    }
    best
}

/// Reference admission: the cheapest fitting cloudlet by `total_cmp`,
/// the first of equal minima winning.
fn reference_admission(
    state: &GameState<'_>,
    l: ProviderId,
    free: impl Fn(CloudletId) -> Option<(f64, f64)>,
) -> Option<CloudletId> {
    let market = state.market();
    market
        .cloudlets()
        .filter(|&i| free(i).is_some_and(|f| market.fits(l, f)))
        .min_by(|&a, &b| {
            let ca = market.caching_cost(l, a, state.congestion(a) + 1);
            let cb = market.caching_cost(l, b, state.congestion(b) + 1);
            ca.total_cmp(&cb)
        })
}

/// Checks every scan entry point for every provider against the
/// references, with the scope `listed(l)` and `held` space.
fn check_scoped(
    state: &GameState<'_>,
    held: &[(f64, f64)],
    listed: impl Fn(ProviderId) -> Vec<bool>,
) -> Result<(), String> {
    let market = state.market();
    for l in market.providers() {
        let mask = listed(l);
        let cloudlets: Vec<CloudletId> = market.cloudlets().filter(|i| mask[i.index()]).collect();
        let scope = Scope::Within {
            cloudlets: &cloudlets,
            held,
        };
        let view = |i: CloudletId| mask[i.index()].then(|| free(state, held, i));
        let got = state.best_response_in(l, scope);
        let want = reference_within(state, l, view);
        if got != want {
            return Err(format!(
                "best_response_in({l}) over {cloudlets:?}: {got:?} vs {want:?}"
            ));
        }
        let got = state.cheapest_fit(l, scope);
        let want = reference_admission(state, l, view);
        if got.map(|(i, _)| i) != want {
            return Err(format!(
                "cheapest_fit({l}) over {cloudlets:?}: {got:?} vs {want:?}"
            ));
        }
        if let Some((i, cost)) = got {
            let priced = market.caching_cost(l, i, state.congestion(i) + 1);
            if cost.to_bits() != priced.to_bits() {
                return Err(format!("cheapest_fit({l}) cost {cost} vs Eq. 3 {priced}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The whole-market scan: `best_response` is identical to the
    /// recompute reference, and admission over every cloudlet with
    /// nothing held back is the `min_by` rule.
    #[test]
    fn whole_market_scan_matches_references(
        r in rand_market(),
        script in proptest::collection::vec((0usize..64, 0usize..9), 0..30),
    ) {
        let market = build(&r);
        let mut state = GameState::all_remote(&market);
        apply_script(&mut state, &script);
        for l in market.providers() {
            prop_assert_eq!(
                state.best_response(l),
                best_response(&market, state.profile(), l),
                "best response diverged for {}", l
            );
            let admitted = state.cheapest_fit(l, Scope::All).map(|(i, _)| i);
            let want = reference_admission(&state, l, |i| Some(state.residual(i)));
            prop_assert_eq!(admitted, want, "admission diverged for {}", l);
        }
        let every: Vec<bool> = vec![true; market.cloudlet_count()];
        let none_held = vec![(0.0, 0.0); market.cloudlet_count()];
        prop_assert_eq!(check_scoped(&state, &none_held, |_| every.clone()), Ok(()));
    }

    /// Restricted scopes — empty, full, random, and every cloudlet but the
    /// provider's own — with held-back space, including two reservations
    /// on one cloudlet.
    #[test]
    fn scoped_scan_matches_references(
        r in rand_market(),
        script in proptest::collection::vec((0usize..64, 0usize..9), 0..30),
        shape in 0usize..4,
        mask in proptest::collection::vec(proptest::bool::ANY, 8),
        reservations in proptest::collection::vec((0usize..8, 0.0..3.0f64, 0.0..12.0f64), 0..5),
    ) {
        let market = build(&r);
        let m = market.cloudlet_count();
        let mut state = GameState::all_remote(&market);
        apply_script(&mut state, &script);
        // Summed in list order, as a shard writer keeps them; the first
        // two land on one cloudlet whenever there are two.
        let mut held = vec![(0.0, 0.0); m];
        for (k, &(c, a, b)) in reservations.iter().enumerate() {
            let c = if k == 1 { reservations[0].0 % m } else { c % m };
            held[c].0 += a;
            held[c].1 += b;
        }
        let listed = |l: ProviderId| -> Vec<bool> {
            match shape {
                0 => vec![false; m],
                1 => vec![true; m],
                2 => (0..m).map(|c| mask[c]).collect(),
                _ => (0..m)
                    .map(|c| state.placement(l) != Placement::Cloudlet(CloudletId(c)))
                    .collect(),
            }
        };
        prop_assert_eq!(check_scoped(&state, &held, listed), Ok(()));
    }

    /// Demands exactly at the capacity slack: the held-back space at each
    /// cloudlet leaves `demand - CAP_SLACK` free for one provider, nudged
    /// by up to two ULPs either way, so the fit test runs on both sides of
    /// (and at) `demand <= free + CAP_SLACK`.
    #[test]
    fn scan_agrees_at_the_capacity_slack(
        r in rand_market(),
        script in proptest::collection::vec((0usize..64, 0usize..9), 0..30),
        probe in 0usize..16,
        nudges in proptest::collection::vec((0usize..5, 0usize..5, proptest::bool::ANY), 8),
    ) {
        let market = build(&r);
        let m = market.cloudlet_count();
        let mut state = GameState::all_remote(&market);
        apply_script(&mut state, &script);
        let l = ProviderId(probe % market.provider_count());
        let spec = market.provider(l).clone();
        // `x` moved by `k - 2` ULPs, never below +0.0 (held space is
        // never negative).
        let nudge = |x: f64, k: usize| -> f64 {
            let bits = (x.max(0.0).to_bits() as i64 + k as i64 - 2).max(0);
            f64::from_bits(bits as u64)
        };
        let mut held = vec![(0.0, 0.0); m];
        for i in market.cloudlets() {
            let (ka, kb, tight_b) = nudges[i.index()];
            let (ra, rb) = state.residual(i);
            let mut own = (0.0, 0.0);
            if state.placement(l) == Placement::Cloudlet(i) {
                own = (spec.compute_demand, spec.bandwidth_demand);
            }
            // held = residual + own - (demand - slack), so that the free
            // space the scan sees is demand - slack (up to rounding).
            let ha = (ra + own.0) - (spec.compute_demand - CAP_SLACK);
            let hb = (rb + own.1) - (spec.bandwidth_demand - CAP_SLACK);
            held[i.index()] = (
                nudge(ha, ka),
                if tight_b { nudge(hb, kb) } else { 0.0 },
            );
        }
        prop_assert_eq!(check_scoped(&state, &held, |_| vec![true; m]), Ok(()));
    }
}
