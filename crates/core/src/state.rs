//! Incremental game state: the profile plus maintained congestion counts,
//! aggregate loads and residual capacities.
//!
//! Every hot path of the mechanism — best-response sweeps, LCF, the
//! social-cost local search, churn replanning — repeatedly asks the same
//! three questions about a profile: *how congested is cloudlet `i`*
//! (`|σ_i|`), *how much capacity is left there*, and *what does provider
//! `l` currently pay*. [`Profile`] answers each by scanning all `N`
//! providers and allocating fresh vectors; at `N` providers and `M`
//! cloudlets a single best-response sweep built that way costs
//! `O(N·(N+M))` time and `~3N` heap allocations.
//!
//! [`GameState`] answers all three in `O(1)` by carrying the aggregates
//! alongside the profile and updating them in [`GameState::apply_move`]
//! and [`GameState::set_demand`]:
//!
//! | operation            | `Profile` (recompute) | `GameState` |
//! |----------------------|-----------------------|-------------|
//! | congestion lookup    | `O(N)` + alloc        | `O(1)`      |
//! | residual lookup      | `O(N+M)` + alloc      | `O(1)`      |
//! | provider cost        | `O(N)`                | `O(1)`      |
//! | apply one move       | —                     | `O(1)`      |
//! | change one demand    | —                     | `O(1)`      |
//! | best response        | `O(N+M)` + 2 allocs   | `O(M)`, allocation-free |
//! | best response / admission in a [`Scope`] of `K` cloudlets | — | `O(K)`, allocation-free |
//! | full sweep           | `O(N·(N+M))`          | `O(N·M)`    |
//!
//! Best response and admission share one placement scan: it walks the
//! provider's update-cost row over the candidate cloudlets, prices each
//! candidate once with the expression of [`Market::caching_cost`] (so every
//! cost is bit-identical to it), and marks a candidate that fails
//! Eq. 4–5 by making its cost +∞ rather than by branching. Only the
//! decision rule differs: admission takes a strict argmin (lowest index on
//! a tie), best response the [`IMPROVEMENT_TOL`] rule of
//! [`crate::game::best_response`].
//!
//! A demand `(A_l, B_l)` enters only the Eq. 4–5 capacity constraints, not
//! the Eq. 3 cost, so a demand change rewrites one market row and at most
//! one cloudlet's load, with no rebuild.
//!
//! The maintained invariant — checked by a `debug_assert!` after every
//! move and demand change, and by randomized differential tests — is exact
//! agreement with recomputation from scratch:
//!
//! ```text
//! sigma[i] == |{l : σ(l) = CL_i}|                  (exactly)
//! loads[i] == Σ_{σ(l)=CL_i} (A_l, B_l)             (within 1e-9)
//! ```
//!
//! Congestion counts are integers, so every cost derived from them is
//! *bit-identical* to the recompute path; loads accumulate floating-point
//! increments and may drift by ULPs relative to a fresh summation, which
//! only matters at capacity boundaries already blurred by the
//! [`CAP_SLACK`] feasibility slack in [`Market::fits`].

use std::borrow::Cow;

use mec_topology::CloudletId;

use crate::game::IMPROVEMENT_TOL;
use crate::model::{eq3, CloudletSpec, Market, ProviderId, CAP_SLACK};
use crate::strategy::{Placement, Profile};

/// A strategy profile together with incrementally-maintained congestion
/// counts, aggregate `(compute, bandwidth)` loads and residual capacities.
///
/// # Examples
///
/// ```
/// use mec_core::model::{CloudletSpec, Market, ProviderSpec};
/// use mec_core::state::GameState;
/// use mec_core::{Placement, Profile, ProviderId};
/// use mec_topology::CloudletId;
///
/// let market = Market::builder()
///     .cloudlet(CloudletSpec::new(10.0, 50.0, 0.5, 0.5))
///     .provider(ProviderSpec::new(2.0, 10.0, 1.0, 8.0))
///     .provider(ProviderSpec::new(2.0, 10.0, 1.0, 8.0))
///     .uniform_update_cost(0.1)
///     .build();
/// let mut state = GameState::new(&market, Profile::all_remote(2));
/// let old = state.apply_move(ProviderId(0), Placement::Cloudlet(CloudletId(0)));
/// assert_eq!(old, Placement::Remote);
/// assert_eq!(state.congestion(CloudletId(0)), 1);
/// assert_eq!(state.residual(CloudletId(0)), (8.0, 40.0));
/// ```
#[derive(Debug, Clone)]
pub struct GameState<'m> {
    market: Cow<'m, Market>,
    profile: Profile,
    /// Congestion `|σ_i|` per cloudlet.
    sigma: Vec<usize>,
    /// Aggregate `(compute, bandwidth)` demand cached at each cloudlet.
    loads: Vec<(f64, f64)>,
}

impl<'m> GameState<'m> {
    /// Builds the state from a profile in `O(N + M)`.
    ///
    /// # Panics
    ///
    /// Panics if `profile` does not cover exactly the market's providers.
    pub fn new(market: &'m Market, profile: Profile) -> Self {
        GameState::over(Cow::Borrowed(market), profile)
    }

    /// [`GameState::new`] over a market the state owns, so that demand
    /// changes ([`GameState::set_demand`]) never copy it.
    ///
    /// # Panics
    ///
    /// Panics if `profile` does not cover exactly the market's providers.
    pub fn owned(market: Market, profile: Profile) -> Self {
        GameState::over(Cow::Owned(market), profile)
    }

    fn over(market: Cow<'m, Market>, profile: Profile) -> Self {
        assert_eq!(
            profile.len(),
            market.provider_count(),
            "profile/provider count mismatch"
        );
        let sigma = profile.congestion(&market);
        let loads = profile.loads(&market);
        GameState {
            market,
            profile,
            sigma,
            loads,
        }
    }

    /// All-remote starting state (the pre-caching status quo).
    pub fn all_remote(market: &'m Market) -> Self {
        GameState::new(market, Profile::all_remote(market.provider_count()))
    }

    /// The underlying market.
    #[inline]
    pub fn market(&self) -> &Market {
        &self.market
    }

    /// Read-only view of the profile.
    #[inline]
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Consumes the state, returning the profile.
    pub fn into_profile(self) -> Profile {
        self.profile
    }

    /// Number of providers covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.profile.len()
    }

    /// `false`: markets always have at least one provider.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.profile.is_empty()
    }

    /// Placement of provider `l` — `O(1)`.
    #[inline]
    pub fn placement(&self, l: ProviderId) -> Placement {
        self.profile.placement(l)
    }

    /// Congestion `|σ_i|` of cloudlet `i` — `O(1)`.
    #[inline]
    pub fn congestion(&self, i: CloudletId) -> usize {
        self.sigma[i.index()]
    }

    /// Maintained congestion counts, indexed by cloudlet.
    #[inline]
    pub fn congestion_counts(&self) -> &[usize] {
        &self.sigma
    }

    /// Aggregate `(compute, bandwidth)` load at cloudlet `i` — `O(1)`.
    #[inline]
    pub fn load(&self, i: CloudletId) -> (f64, f64) {
        self.loads[i.index()]
    }

    /// Residual `(compute, bandwidth)` capacity at cloudlet `i` — `O(1)`.
    /// Negative components mean the profile overloads the cloudlet.
    #[inline]
    pub fn residual(&self, i: CloudletId) -> (f64, f64) {
        let spec = self.market.cloudlet(i);
        let (a, b) = self.loads[i.index()];
        (spec.compute_capacity - a, spec.bandwidth_capacity - b)
    }

    /// `true` if every cloudlet's capacities hold — `O(M)`.
    pub fn is_feasible(&self) -> bool {
        self.market.cloudlets().all(|i| {
            let (a, b) = self.residual(i);
            a >= -CAP_SLACK && b >= -CAP_SLACK
        })
    }

    /// Moves provider `l` to `placement`, updating every aggregate in
    /// `O(1)`, and returns the previous placement (pass it back to undo).
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use mec_core::model::{CloudletSpec, Market, ProviderSpec};
    /// use mec_core::{GameState, Placement};
    ///
    /// let market = Market::builder()
    ///     .cloudlet(CloudletSpec::new(20.0, 100.0, 0.5, 0.5))
    ///     .provider(ProviderSpec::new(2.0, 10.0, 1.0, 30.0))
    ///     .uniform_update_cost(0.3)
    ///     .build();
    /// let i = market.cloudlets().next().unwrap();
    /// let l = market.providers().next().unwrap();
    ///
    /// let mut state = GameState::all_remote(&market);
    /// let prev = state.apply_move(l, Placement::Cloudlet(i));
    /// assert_eq!(prev, Placement::Remote);
    /// assert_eq!(state.congestion(i), 1);
    ///
    /// state.apply_move(l, prev); // pass the old placement back to undo
    /// assert_eq!(state.congestion(i), 0);
    /// ```
    pub fn apply_move(&mut self, l: ProviderId, placement: Placement) -> Placement {
        let old = self.profile.placement(l);
        if old == placement {
            return old;
        }
        let spec = self.market.provider(l);
        if let Placement::Cloudlet(c) = old {
            let k = c.index();
            self.sigma[k] -= 1;
            self.loads[k].0 -= spec.compute_demand;
            self.loads[k].1 -= spec.bandwidth_demand;
        }
        if let Placement::Cloudlet(c) = placement {
            let k = c.index();
            self.sigma[k] += 1;
            self.loads[k].0 += spec.compute_demand;
            self.loads[k].1 += spec.bandwidth_demand;
        }
        self.profile.set(l, placement);
        debug_assert!(
            self.agrees_with_recompute(1e-9),
            "incremental state diverged from recompute after moving {l} to {placement}"
        );
        old
    }

    /// Replaces provider `l`'s `(compute, bandwidth)` demands and moves
    /// its cloudlet's load (if it is cached) by the difference — `O(1)`;
    /// congestion and costs are unchanged. A state over a borrowed market
    /// copies the market on the first call.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range or a demand is negative/non-finite.
    pub fn set_demand(&mut self, l: ProviderId, compute: f64, bandwidth: f64) {
        let old = self.market.provider(l);
        let delta = (
            compute - old.compute_demand,
            bandwidth - old.bandwidth_demand,
        );
        let market = self.market.to_mut();
        market.set_provider_demand(l, compute, bandwidth);
        if let Placement::Cloudlet(c) = self.profile.placement(l) {
            let k = c.index();
            self.loads[k].0 += delta.0;
            self.loads[k].1 += delta.1;
        }
        debug_assert!(
            self.agrees_with_recompute(1e-9),
            "incremental state diverged from recompute after re-demanding {l}"
        );
    }

    /// Cost provider `l` pays under the current profile — `O(1)`
    /// (Eq. (3)/(5), or the remote cost when not cached).
    pub fn provider_cost(&self, l: ProviderId) -> f64 {
        match self.profile.placement(l) {
            Placement::Remote => self.market.provider(l).remote_cost,
            Placement::Cloudlet(c) => self.market.caching_cost(l, c, self.sigma[c.index()]),
        }
    }

    /// Social cost — Eq. (6) — in `O(N)`.
    pub fn social_cost(&self) -> f64 {
        self.market.providers().map(|l| self.provider_cost(l)).sum()
    }

    /// Sum of provider costs over a subset in `O(|subset|)`.
    pub fn subset_cost<I: IntoIterator<Item = ProviderId>>(&self, subset: I) -> f64 {
        subset.into_iter().map(|l| self.provider_cost(l)).sum()
    }

    /// The best response of provider `l` against the rest of the profile,
    /// evaluated against the maintained aggregates: `O(M)` and
    /// allocation-free. Candidate set, costs and tie-breaking are identical
    /// to the recompute path [`crate::game::best_response`].
    ///
    /// Returns `None` when no candidate at all is available.
    pub fn best_response(&self, l: ProviderId) -> Option<(Placement, f64)> {
        self.best_response_in(l, Scope::All)
    }

    /// [`GameState::best_response`] over the cloudlets of `scope`, each
    /// with its held-back space out of reach. Candidate costs and
    /// tie-breaking are those of the unrestricted call, which is this one
    /// with [`Scope::All`]: the remote option first, then the cloudlets in
    /// ascending order, each replacing the best so far only when cheaper
    /// by more than [`IMPROVEMENT_TOL`] — except the provider's own
    /// cloudlet, which also wins a tie within the tolerance. A current
    /// cloudlet outside the scope is no candidate at all.
    pub fn best_response_in(&self, l: ProviderId, scope: Scope<'_>) -> Option<(Placement, f64)> {
        let current = match self.profile.placement(l) {
            Placement::Cloudlet(c) => c.index(),
            Placement::Remote => REMOTE,
        };
        // The remote option comes first; forbidden, it costs +∞: "no
        // candidate yet", which any fitting cloudlet beats.
        let remote = (REMOTE, self.market.provider(l).remote_cost);
        match self.scan(l, scope, current, remote, IMPROVEMENT_TOL) {
            (REMOTE, cost) if cost.is_finite() => Some((Placement::Remote, cost)),
            (REMOTE, _) => None,
            (i, cost) => Some((Placement::Cloudlet(CloudletId(i)), cost)),
        }
    }

    /// Admission of a provider not cached anywhere: the cheapest cloudlet
    /// of `scope` (Eq. 3 at one more provider) where it fits beside the
    /// held-back space, the lowest index winning an exact tie; `None` when
    /// it fits nowhere. The remote option is not a candidate.
    pub fn cheapest_fit(&self, l: ProviderId, scope: Scope<'_>) -> Option<(CloudletId, f64)> {
        match self.scan(l, scope, REMOTE, (REMOTE, f64::INFINITY), 0.0) {
            (REMOTE, _) => None,
            (i, cost) => Some((CloudletId(i), cost)),
        }
    }

    /// [`Pricer::sweep`] over the cloudlets of `scope`, split around the
    /// `current` cloudlet (none when `current` is not in the scope).
    fn scan(
        &self,
        l: ProviderId,
        scope: Scope<'_>,
        current: usize,
        best: (usize, f64),
        tol: f64,
    ) -> (usize, f64) {
        let pricer = self.pricer(l);
        match scope {
            Scope::All => {
                let m = self.sigma.len();
                let at = current.min(m);
                let cells = |r: std::ops::Range<usize>| r.map(|i| (i, (0.0, 0.0)));
                let own = (at < m).then_some((at, (0.0, 0.0)));
                pricer.sweep(cells(0..at), own, cells((at + 1).min(m)..m), best, tol)
            }
            Scope::Within { cloudlets, held } => {
                debug_assert!(
                    cloudlets.windows(2).all(|w| w[0] < w[1]),
                    "scope cloudlets must be strictly ascending"
                );
                let at = cloudlets.partition_point(|c| c.index() < current);
                let (below, rest) = cloudlets.split_at(at);
                let (own, above) = match rest.split_first() {
                    Some((c, above)) if c.index() == current => {
                        (Some((current, held[current])), above)
                    }
                    _ => (None, rest),
                };
                pricer.sweep(listed(below, held), own, listed(above, held), best, tol)
            }
        }
    }

    fn pricer(&self, l: ProviderId) -> Pricer<'_> {
        let spec = self.market.provider(l);
        Pricer {
            specs: self.market.cloudlet_specs(),
            loads: &self.loads,
            sigma: &self.sigma,
            update: self.market.update_costs(l),
            demand: (spec.compute_demand, spec.bandwidth_demand),
            instantiation: spec.instantiation_cost,
        }
    }

    /// `true` if the maintained aggregates match a from-scratch
    /// recomputation: congestion exactly, loads within `tol` per component.
    /// This is the invariant the incremental path guarantees; it is
    /// `debug_assert!`ed after every [`GameState::apply_move`] and pounded
    /// by the randomized differential tests.
    pub fn agrees_with_recompute(&self, tol: f64) -> bool {
        let sigma = self.profile.congestion(&self.market);
        if sigma != self.sigma {
            return false;
        }
        let loads = self.profile.loads(&self.market);
        loads
            .iter()
            .zip(&self.loads)
            .all(|(a, b)| (a.0 - b.0).abs() <= tol && (a.1 - b.1).abs() <= tol)
    }
}

/// The cloudlets a placement scan may choose from, and the capacity held
/// back at each of them.
#[derive(Debug, Clone, Copy)]
pub enum Scope<'a> {
    /// Every cloudlet, nothing held back: the game's own best response.
    All,
    /// A shard writer's view: only its own region's cloudlets, with the
    /// space granted to in-flight incoming migrations out of reach.
    Within {
        /// Candidate cloudlets, strictly ascending.
        cloudlets: &'a [CloudletId],
        /// `(compute, bandwidth)` held back at each cloudlet, indexed by
        /// cloudlet over the whole market (`0.0` where nothing is held).
        held: &'a [(f64, f64)],
    },
}

/// Placement index standing for the remote option.
const REMOTE: usize = usize::MAX;

/// One provider's side of a placement scan, hoisted out of the loop.
struct Pricer<'s> {
    specs: &'s [CloudletSpec],
    loads: &'s [(f64, f64)],
    sigma: &'s [usize],
    /// The provider's update-cost row, indexed by cloudlet.
    update: &'s [f64],
    demand: (f64, f64),
    instantiation: f64,
}

impl Pricer<'_> {
    /// The provider's Eq. 3 cost at cloudlet `i`, or +∞ where Eq. 4–5
    /// fail: the free space is the residual less `held`, and `own` marks
    /// the provider's current cloudlet, seen with the provider removed.
    #[inline(always)]
    fn price(&self, i: usize, held: (f64, f64), own: bool) -> f64 {
        let spec = &self.specs[i];
        let (a, b) = self.loads[i];
        let mut free = (
            (spec.compute_capacity - a) - held.0,
            (spec.bandwidth_capacity - b) - held.1,
        );
        // Congestion counting the provider itself.
        let mut congestion = self.sigma[i] + 1;
        if own {
            free.0 += self.demand.0;
            free.1 += self.demand.1;
            congestion -= 1;
        }
        let cost = eq3(spec, congestion, self.instantiation, self.update[i]);
        // Eq. 4–5 as a sign: `demand <= free + CAP_SLACK` exactly when
        // `(free + CAP_SLACK) - demand` is not negative (finite operands;
        // IEEE subtraction is zero only for equal ones, and then +0.0).
        // Smearing the sign bits gives an all-ones mask on a misfit, and
        // adding +0.0 or +∞ by that mask keeps a (non-negative) cost
        // bit-identical or makes it +∞ — no branch on the fit.
        let sign_mask = |x: f64| ((x.to_bits() as i64) >> 63) as u64;
        let misfit = sign_mask((free.0 + CAP_SLACK) - self.demand.0)
            | sign_mask((free.1 + CAP_SLACK) - self.demand.1);
        cost + f64::from_bits(misfit & f64::INFINITY.to_bits())
    }

    /// A decision over the candidates in index order: those `below` the
    /// provider's current cloudlet, then its `own` cloudlet (if a
    /// candidate), then those `above` it. Returns the new best
    /// `(index, cost)`.
    #[inline(always)]
    fn sweep(
        &self,
        below: impl Iterator<Item = Cell>,
        own: Option<Cell>,
        above: impl Iterator<Item = Cell>,
        best: (usize, f64),
        tol: f64,
    ) -> (usize, f64) {
        let mut best = self.run(below, best, tol);
        if let Some((i, held)) = own {
            // The provider stays put on a tie within `tol`.
            let cost = self.price(i, held, true);
            if cost < best.1 - tol || (cost - best.1).abs() <= tol {
                best = (i, cost);
            }
        }
        self.run(above, best, tol)
    }

    /// The one Eq. 3 scan: each candidate (none of them the provider's own
    /// cloudlet) priced once, replacing `best` when cheaper than it by more
    /// than `tol` — a strict argmin at `tol = 0`, the lowest index winning
    /// a tie.
    #[inline(always)]
    fn run(&self, cells: impl Iterator<Item = Cell>, best: (usize, f64), tol: f64) -> (usize, f64) {
        let (mut bi, mut bc) = best;
        let mut bar = bc - tol;
        for (i, held) in cells {
            let cost = self.price(i, held, false);
            if cost < bar {
                // Rare past the first few candidates: a predicted branch
                // keeps the running best off the loop's critical path.
                std::hint::cold_path();
                bi = i;
                bc = cost;
                bar = cost - tol;
            }
        }
        (bi, bc)
    }
}

/// A candidate cloudlet's index and the space held back there.
type Cell = (usize, (f64, f64));

/// The listed `cloudlets`, each with its `held` space.
fn listed<'a>(
    cloudlets: &'a [CloudletId],
    held: &'a [(f64, f64)],
) -> impl Iterator<Item = Cell> + 'a {
    cloudlets.iter().map(|c| (c.index(), held[c.index()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::best_response;
    use crate::model::{CloudletSpec, ProviderSpec};

    fn market(n: usize) -> Market {
        let mut b = Market::builder()
            .cloudlet(CloudletSpec::new(20.0, 100.0, 0.5, 0.5))
            .cloudlet(CloudletSpec::new(15.0, 80.0, 0.3, 0.2))
            .cloudlet(CloudletSpec::new(10.0, 60.0, 0.8, 0.1));
        for k in 0..n {
            b = b.provider(ProviderSpec::new(
                1.0 + (k % 3) as f64,
                4.0 + (k % 5) as f64,
                0.5 + 0.25 * (k % 4) as f64,
                12.0 + k as f64,
            ));
        }
        b.uniform_update_cost(0.2).build()
    }

    #[test]
    fn new_matches_profile_aggregates() {
        let m = market(7);
        let mut p = Profile::all_remote(7);
        p.set(ProviderId(0), Placement::Cloudlet(CloudletId(0)));
        p.set(ProviderId(3), Placement::Cloudlet(CloudletId(0)));
        p.set(ProviderId(5), Placement::Cloudlet(CloudletId(2)));
        let s = GameState::new(&m, p.clone());
        assert_eq!(s.congestion_counts(), p.congestion(&m).as_slice());
        for (i, want) in m.cloudlets().zip(p.residual(&m)) {
            let got = s.residual(i);
            assert!((got.0 - want.0).abs() < 1e-12 && (got.1 - want.1).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_move_updates_and_returns_old() {
        let m = market(4);
        let mut s = GameState::all_remote(&m);
        let old = s.apply_move(ProviderId(1), Placement::Cloudlet(CloudletId(1)));
        assert_eq!(old, Placement::Remote);
        assert_eq!(s.congestion(CloudletId(1)), 1);
        // Move again: cloudlet 1 -> cloudlet 0.
        let old = s.apply_move(ProviderId(1), Placement::Cloudlet(CloudletId(0)));
        assert_eq!(old, Placement::Cloudlet(CloudletId(1)));
        assert_eq!(s.congestion(CloudletId(1)), 0);
        assert_eq!(s.congestion(CloudletId(0)), 1);
        // Undo with the returned placement.
        s.apply_move(ProviderId(1), old);
        assert_eq!(s.congestion(CloudletId(1)), 1);
        assert!(s.agrees_with_recompute(1e-12));
    }

    #[test]
    fn apply_move_to_same_place_is_noop() {
        let m = market(3);
        let mut s = GameState::all_remote(&m);
        s.apply_move(ProviderId(0), Placement::Cloudlet(CloudletId(0)));
        let before = s.congestion_counts().to_vec();
        let old = s.apply_move(ProviderId(0), Placement::Cloudlet(CloudletId(0)));
        assert_eq!(old, Placement::Cloudlet(CloudletId(0)));
        assert_eq!(s.congestion_counts(), before.as_slice());
    }

    #[test]
    fn provider_and_social_costs_match_profile() {
        let m = market(6);
        let mut s = GameState::all_remote(&m);
        for k in 0..5 {
            s.apply_move(ProviderId(k), Placement::Cloudlet(CloudletId(k % 3)));
        }
        for l in m.providers() {
            assert_eq!(s.provider_cost(l), s.profile().provider_cost(&m, l));
        }
        assert!((s.social_cost() - s.profile().social_cost(&m)).abs() < 1e-12);
        let subset = [ProviderId(0), ProviderId(4), ProviderId(5)];
        assert!(
            (s.subset_cost(subset.iter().copied())
                - s.profile().subset_cost(&m, subset.iter().copied()))
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn best_response_matches_recompute_path() {
        let m = market(8);
        let mut s = GameState::all_remote(&m);
        for k in 0..6 {
            s.apply_move(ProviderId(k), Placement::Cloudlet(CloudletId(k % 3)));
        }
        for l in m.providers() {
            assert_eq!(s.best_response(l), best_response(&m, s.profile(), l), "{l}");
        }
    }

    #[test]
    fn restricted_best_response_skips_excluded_and_held_back_space() {
        let m = market(8);
        let mut s = GameState::all_remote(&m);
        for k in 0..6 {
            s.apply_move(ProviderId(k), Placement::Cloudlet(CloudletId(k % 3)));
        }
        // Only cloudlet 1, with all of its residual held back.
        let only_1 = [CloudletId(1)];
        let mut held = vec![(0.0, 0.0); m.cloudlet_count()];
        held[1] = s.residual(CloudletId(1));
        let full = Scope::Within {
            cloudlets: &only_1,
            held: &held,
        };
        let empty = Scope::Within {
            cloudlets: &[],
            held: &held,
        };
        for l in m.providers() {
            // Nothing free at the only candidate: never a cloudlet other
            // than the one the provider already occupies.
            match s.best_response_in(l, full) {
                Some((Placement::Cloudlet(i), _)) => {
                    assert_eq!(s.placement(l), Placement::Cloudlet(i), "{l}")
                }
                Some((Placement::Remote, _)) | None => {}
            }
            assert_eq!(s.cheapest_fit(l, full), None, "{l}");
            // Every cloudlet excluded: the remote option or nothing.
            let none = s.best_response_in(l, empty);
            assert!(matches!(none, Some((Placement::Remote, _)) | None), "{l}");
            assert_eq!(s.cheapest_fit(l, empty), None, "{l}");
        }
    }

    #[test]
    fn feasibility_matches_profile() {
        let m = Market::builder()
            .cloudlet(CloudletSpec::new(2.0, 10.0, 0.1, 0.1))
            .provider(ProviderSpec::new(2.0, 5.0, 1.0, 3.0))
            .provider(ProviderSpec::new(2.0, 5.0, 1.0, 3.0))
            .uniform_update_cost(0.0)
            .build();
        let mut s = GameState::all_remote(&m);
        assert!(s.is_feasible());
        s.apply_move(ProviderId(0), Placement::Cloudlet(CloudletId(0)));
        assert!(s.is_feasible());
        s.apply_move(ProviderId(1), Placement::Cloudlet(CloudletId(0)));
        assert!(!s.is_feasible());
        assert_eq!(s.is_feasible(), s.profile().is_feasible(&m));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn rejects_wrong_profile_size() {
        let m = market(3);
        let _ = GameState::new(&m, Profile::all_remote(2));
    }
}
