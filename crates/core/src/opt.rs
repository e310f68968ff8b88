//! Exact social optimum for small markets (branch and bound).
//!
//! Used to measure empirical Price of Anarchy ([`crate::poa`]) and to
//! validate the `Appro` approximation on instances where the true optimum
//! is computable. Exponential in the provider count — intended for
//! `providers ≤ ~12`.

use mec_topology::CloudletId;

use crate::error::CoreError;
use crate::model::{Market, CAP_SLACK};
use crate::strategy::{Placement, Profile};

/// Maximum provider count accepted by [`social_optimum`].
pub const MAX_PROVIDERS: usize = 14;

/// Result of [`social_optimum`].
#[derive(Debug, Clone)]
pub struct Optimum {
    /// A socially optimal, capacity-feasible profile.
    pub profile: Profile,
    /// Its social cost (Eq. 6).
    pub social_cost: f64,
}

/// Computes the exact minimum social cost over all capacity-feasible
/// profiles (including remote placements where allowed).
///
/// # Errors
///
/// Returns [`CoreError::Infeasible`] when no feasible profile exists.
///
/// # Panics
///
/// Panics if the market has more than [`MAX_PROVIDERS`] providers.
pub fn social_optimum(market: &Market) -> Result<Optimum, CoreError> {
    let n = market.provider_count();
    assert!(
        n <= MAX_PROVIDERS,
        "exact optimum limited to {MAX_PROVIDERS} providers, got {n}"
    );
    let m = market.cloudlet_count();

    // Optimistic per-provider bound: cheapest congestion-one placement.
    let lower: Vec<f64> = market
        .providers()
        .map(|l| {
            let mut best = market.provider(l).remote_cost;
            for i in market.cloudlets() {
                best = best.min(market.caching_cost(l, i, 1));
            }
            best
        })
        .collect();
    let mut suffix = vec![0.0; n + 1];
    for i in (0..n).rev() {
        suffix[i] = suffix[i + 1] + lower[i];
    }

    struct Search<'a> {
        market: &'a Market,
        suffix: Vec<f64>,
        best_cost: f64,
        best: Option<Vec<Placement>>,
        current: Vec<Placement>,
        counts: Vec<usize>,
        free: Vec<(f64, f64)>,
    }

    impl Search<'_> {
        /// Social cost of a *complete* prefix assignment is recomputed at the
        /// leaf; during search we track an additive surrogate that lower
        /// bounds it (each placement priced at the congestion level at
        /// insertion time, which undercounts the final quadratic term).
        fn dfs(&mut self, idx: usize, partial: f64) {
            let n = self.market.provider_count();
            if partial + self.suffix[idx] >= self.best_cost - 1e-12 {
                return;
            }
            if idx == n {
                let profile = Profile::new(self.current.clone());
                let cost = profile.social_cost(self.market);
                if cost < self.best_cost - 1e-12 {
                    self.best_cost = cost;
                    self.best = Some(self.current.clone());
                }
                return;
            }
            let l = crate::model::ProviderId(idx);
            let spec = self.market.provider(l).clone();
            // Cloudlet placements.
            for i in self.market.cloudlets() {
                let free = self.free[i.index()];
                if spec.compute_demand <= free.0 + CAP_SLACK
                    && spec.bandwidth_demand <= free.1 + CAP_SLACK
                {
                    let c = i.index();
                    self.counts[c] += 1;
                    self.free[c].0 -= spec.compute_demand;
                    self.free[c].1 -= spec.bandwidth_demand;
                    self.current[idx] = Placement::Cloudlet(CloudletId(c));
                    let add = self.market.caching_cost(l, CloudletId(c), self.counts[c]);
                    self.dfs(idx + 1, partial + add);
                    self.counts[c] -= 1;
                    self.free[c].0 += spec.compute_demand;
                    self.free[c].1 += spec.bandwidth_demand;
                }
            }
            // Remote placement.
            if spec.can_stay_remote() {
                self.current[idx] = Placement::Remote;
                self.dfs(idx + 1, partial + spec.remote_cost);
            }
        }
    }

    let mut s = Search {
        market,
        suffix,
        best_cost: f64::INFINITY,
        best: None,
        current: vec![Placement::Remote; n],
        counts: vec![0; m],
        free: market
            .cloudlets()
            .map(|i| {
                let c = market.cloudlet(i);
                (c.compute_capacity, c.bandwidth_capacity)
            })
            .collect(),
    };
    s.dfs(0, 0.0);
    let best_cost = s.best_cost;
    s.best
        .map(|placements| Optimum {
            profile: Profile::new(placements),
            social_cost: best_cost,
        })
        .ok_or(CoreError::Infeasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CloudletSpec, ProviderSpec};

    fn tiny() -> Market {
        Market::builder()
            .cloudlet(CloudletSpec::new(10.0, 50.0, 0.5, 0.5))
            .cloudlet(CloudletSpec::new(10.0, 50.0, 0.2, 0.2))
            .provider(ProviderSpec::new(2.0, 10.0, 1.0, 10.0))
            .provider(ProviderSpec::new(2.0, 10.0, 1.0, 10.0))
            .provider(ProviderSpec::new(2.0, 10.0, 1.0, 10.0))
            .uniform_update_cost(0.2)
            .build()
    }

    #[test]
    fn optimum_is_feasible_and_minimal_vs_brute_force() {
        let m = tiny();
        let opt = social_optimum(&m).unwrap();
        assert!(opt.profile.is_feasible(&m));

        // Brute force over all 3^3 placements (2 cloudlets + remote).
        let mut best = f64::INFINITY;
        for mask in 0..27usize {
            let mut x = mask;
            let mut placements = Vec::new();
            for _ in 0..3 {
                placements.push(match x % 3 {
                    0 => Placement::Cloudlet(CloudletId(0)),
                    1 => Placement::Cloudlet(CloudletId(1)),
                    _ => Placement::Remote,
                });
                x /= 3;
            }
            let p = Profile::new(placements);
            if p.is_feasible(&m) {
                best = best.min(p.social_cost(&m));
            }
        }
        assert!((opt.social_cost - best).abs() < 1e-9);
    }

    #[test]
    fn optimum_spreads_to_avoid_congestion() {
        // Two identical cloudlets, two providers: optimum splits them.
        let m = Market::builder()
            .cloudlet(CloudletSpec::new(10.0, 50.0, 1.0, 1.0))
            .cloudlet(CloudletSpec::new(10.0, 50.0, 1.0, 1.0))
            .provider(ProviderSpec::new(1.0, 5.0, 0.5, 100.0))
            .provider(ProviderSpec::new(1.0, 5.0, 0.5, 100.0))
            .uniform_update_cost(0.1)
            .build();
        let opt = social_optimum(&m).unwrap();
        let sigma = opt.profile.congestion(&m);
        assert_eq!(sigma, vec![1, 1]);
    }

    #[test]
    fn infeasible_when_remote_forbidden_and_no_room() {
        let m = Market::builder()
            .cloudlet(CloudletSpec::new(1.0, 5.0, 0.1, 0.1))
            .provider(ProviderSpec::new(2.0, 1.0, 1.0, f64::INFINITY))
            .uniform_update_cost(0.0)
            .build();
        assert_eq!(social_optimum(&m).unwrap_err(), CoreError::Infeasible);
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn rejects_large_markets() {
        let mut b = Market::builder().cloudlet(CloudletSpec::new(100.0, 100.0, 0.1, 0.1));
        for _ in 0..MAX_PROVIDERS + 1 {
            b = b.provider(ProviderSpec::new(1.0, 1.0, 1.0, 1.0));
        }
        let m = b.uniform_update_cost(0.0).build();
        let _ = social_optimum(&m);
    }
}
