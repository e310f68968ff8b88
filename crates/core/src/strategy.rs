//! Strategy profiles: where each provider's service lives.

use mec_topology::CloudletId;

use crate::model::{Market, ProviderId, CAP_SLACK};

/// One provider's strategy: cache at a cloudlet or stay in the remote cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Cache the service at this cloudlet.
    Cloudlet(CloudletId),
    /// Serve from the original instance in the remote data center.
    Remote,
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Placement::Cloudlet(c) => write!(f, "{c}"),
            Placement::Remote => write!(f, "remote"),
        }
    }
}

/// A full strategy profile: a placement for every provider.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    placements: Vec<Placement>,
}

impl Profile {
    /// Creates a profile from raw placements.
    ///
    /// # Panics
    ///
    /// Panics if `placements` is empty.
    pub fn new(placements: Vec<Placement>) -> Self {
        assert!(!placements.is_empty(), "profile must cover providers");
        Profile { placements }
    }

    /// All-remote profile for `n` providers (the pre-caching status quo).
    pub fn all_remote(n: usize) -> Self {
        Profile::new(vec![Placement::Remote; n])
    }

    /// Number of providers covered.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// `false`: profiles always cover at least one provider.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Placement of provider `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn placement(&self, l: ProviderId) -> Placement {
        self.placements[l.index()]
    }

    /// Sets the placement of provider `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn set(&mut self, l: ProviderId, p: Placement) {
        self.placements[l.index()] = p;
    }

    /// Iterates over `(provider, placement)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProviderId, Placement)> + '_ {
        self.placements
            .iter()
            .enumerate()
            .map(|(i, &p)| (ProviderId(i), p))
    }

    /// Congestion `|σ_i|` per cloudlet: how many providers cache at each.
    pub fn congestion(&self, market: &Market) -> Vec<usize> {
        let mut sigma = vec![0usize; market.cloudlet_count()];
        for &p in &self.placements {
            if let Placement::Cloudlet(c) = p {
                sigma[c.index()] += 1;
            }
        }
        sigma
    }

    /// Aggregate `(compute, bandwidth)` load per cloudlet.
    pub fn loads(&self, market: &Market) -> Vec<(f64, f64)> {
        let mut loads = vec![(0.0, 0.0); market.cloudlet_count()];
        for (l, p) in self.iter() {
            if let Placement::Cloudlet(c) = p {
                let spec = market.provider(l);
                loads[c.index()].0 += spec.compute_demand;
                loads[c.index()].1 += spec.bandwidth_demand;
            }
        }
        loads
    }

    /// Residual `(compute, bandwidth)` capacity per cloudlet (may be
    /// negative if the profile overloads a cloudlet).
    pub fn residual(&self, market: &Market) -> Vec<(f64, f64)> {
        self.loads(market)
            .into_iter()
            .zip(market.cloudlets())
            .map(|((a, b), i)| {
                let c = market.cloudlet(i);
                (c.compute_capacity - a, c.bandwidth_capacity - b)
            })
            .collect()
    }

    /// `true` if every cloudlet's compute and bandwidth capacity holds.
    pub fn is_feasible(&self, market: &Market) -> bool {
        self.residual(market)
            .iter()
            .all(|&(a, b)| a >= -CAP_SLACK && b >= -CAP_SLACK)
    }

    /// Cost of provider `l` under this profile — Eq. (3)/(5), or the remote
    /// cost when `l` is not cached.
    pub fn provider_cost(&self, market: &Market, l: ProviderId) -> f64 {
        match self.placement(l) {
            Placement::Remote => market.provider(l).remote_cost,
            Placement::Cloudlet(c) => {
                let sigma = self
                    .placements
                    .iter()
                    .filter(|p| matches!(p, Placement::Cloudlet(x) if *x == c))
                    .count();
                market.caching_cost(l, c, sigma)
            }
        }
    }

    /// Social cost — Eq. (6): sum of all provider costs.
    pub fn social_cost(&self, market: &Market) -> f64 {
        let sigma = self.congestion(market);
        self.iter()
            .map(|(l, p)| match p {
                Placement::Remote => market.provider(l).remote_cost,
                Placement::Cloudlet(c) => market.caching_cost(l, c, sigma[c.index()]),
            })
            .sum()
    }

    /// Sum of provider costs over a subset (used for the coordinated /
    /// selfish split of Figures 2–3).
    pub fn subset_cost<I: IntoIterator<Item = ProviderId>>(
        &self,
        market: &Market,
        subset: I,
    ) -> f64 {
        let sigma = self.congestion(market);
        subset
            .into_iter()
            .map(|l| match self.placement(l) {
                Placement::Remote => market.provider(l).remote_cost,
                Placement::Cloudlet(c) => market.caching_cost(l, c, sigma[c.index()]),
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CloudletSpec, ProviderSpec};
    use mec_num::assert_approx_eq;

    fn market() -> Market {
        Market::builder()
            .cloudlet(CloudletSpec::new(10.0, 50.0, 0.5, 0.5))
            .cloudlet(CloudletSpec::new(8.0, 40.0, 0.2, 0.3))
            .provider(ProviderSpec::new(2.0, 10.0, 1.0, 10.0))
            .provider(ProviderSpec::new(3.0, 12.0, 1.5, 12.0))
            .provider(ProviderSpec::new(1.0, 8.0, 0.5, 6.0))
            .uniform_update_cost(0.4)
            .build()
    }

    #[test]
    fn congestion_counts() {
        let m = market();
        let p = Profile::new(vec![
            Placement::Cloudlet(CloudletId(0)),
            Placement::Cloudlet(CloudletId(0)),
            Placement::Remote,
        ]);
        assert_eq!(p.congestion(&m), vec![2, 0]);
    }

    #[test]
    fn loads_and_feasibility() {
        let m = market();
        let p = Profile::new(vec![
            Placement::Cloudlet(CloudletId(0)),
            Placement::Cloudlet(CloudletId(0)),
            Placement::Cloudlet(CloudletId(1)),
        ]);
        let loads = p.loads(&m);
        assert_eq!(loads[0], (5.0, 22.0));
        assert_eq!(loads[1], (1.0, 8.0));
        assert!(p.is_feasible(&m));
    }

    #[test]
    fn infeasible_when_overloaded() {
        let m = Market::builder()
            .cloudlet(CloudletSpec::new(2.0, 100.0, 0.1, 0.1))
            .provider(ProviderSpec::new(2.0, 1.0, 1.0, 5.0))
            .provider(ProviderSpec::new(2.0, 1.0, 1.0, 5.0))
            .uniform_update_cost(0.0)
            .build();
        let p = Profile::new(vec![
            Placement::Cloudlet(CloudletId(0)),
            Placement::Cloudlet(CloudletId(0)),
        ]);
        assert!(!p.is_feasible(&m));
    }

    #[test]
    fn provider_cost_includes_congestion() {
        let m = market();
        let p = Profile::new(vec![
            Placement::Cloudlet(CloudletId(0)),
            Placement::Cloudlet(CloudletId(0)),
            Placement::Remote,
        ]);
        // sigma=2 at CL0: cost(p0) = 1.0*2 + 1.0 + 0.4 = 3.4
        assert!((p.provider_cost(&m, ProviderId(0)) - 3.4).abs() < 1e-12);
        // remote provider pays its remote cost
        assert_approx_eq!(p.provider_cost(&m, ProviderId(2)), 6.0, 0.0);
    }

    #[test]
    fn social_cost_sums_provider_costs() {
        let m = market();
        let p = Profile::new(vec![
            Placement::Cloudlet(CloudletId(0)),
            Placement::Cloudlet(CloudletId(1)),
            Placement::Remote,
        ]);
        let direct: f64 = m.providers().map(|l| p.provider_cost(&m, l)).sum();
        assert!((p.social_cost(&m) - direct).abs() < 1e-9);
    }

    #[test]
    fn subset_cost_partitions_social_cost() {
        let m = market();
        let p = Profile::new(vec![
            Placement::Cloudlet(CloudletId(0)),
            Placement::Cloudlet(CloudletId(0)),
            Placement::Cloudlet(CloudletId(1)),
        ]);
        let a = p.subset_cost(&m, [ProviderId(0), ProviderId(1)]);
        let b = p.subset_cost(&m, [ProviderId(2)]);
        assert!((a + b - p.social_cost(&m)).abs() < 1e-9);
    }

    #[test]
    fn all_remote_profile() {
        let m = market();
        let p = Profile::all_remote(3);
        assert!(p.is_feasible(&m));
        assert_approx_eq!(p.social_cost(&m), 10.0 + 12.0 + 6.0, 0.0);
    }

    #[test]
    fn set_and_get() {
        let mut p = Profile::all_remote(2);
        p.set(ProviderId(1), Placement::Cloudlet(CloudletId(0)));
        assert_eq!(
            p.placement(ProviderId(1)),
            Placement::Cloudlet(CloudletId(0))
        );
        assert_eq!(p.placement(ProviderId(0)), Placement::Remote);
    }

    #[test]
    fn display() {
        assert_eq!(Placement::Remote.to_string(), "remote");
        assert_eq!(Placement::Cloudlet(CloudletId(2)).to_string(), "CL2");
    }
}
