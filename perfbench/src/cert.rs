//! The whole-market certificate, computed from outside the daemon on a
//! merged drained profile: Eq. 4–5 capacity and Lemma 3 Nash stability
//! over every active provider at once, not region by region.

use mec_core::game::IMPROVEMENT_TOL;
use mec_core::model::Market;
use mec_core::{check_capacity, check_nash, GameState, Placement, Profile, Violation};

pub struct Certificate {
    /// Providers active at drain.
    pub admitted: usize,
    /// Active providers holding a cloudlet placement (the rest stay in
    /// the remote cloud).
    pub cached: usize,
    /// Eq. 6 over the active providers.
    pub social_cost: f64,
    /// Active providers with at least one improving unilateral move.
    pub violators: usize,
    /// The largest relative saving any active provider gets from one
    /// unilateral move (0 at a global Nash equilibrium).
    pub nash_gap: f64,
    /// Eq. 4–5 violations.
    pub capacity_violations: usize,
}

pub fn certify(market: &Market, profile: &Profile, active: &[bool]) -> Certificate {
    let nash = check_nash(market, profile, active, IMPROVEMENT_TOL);
    let mut violators: Vec<usize> = Vec::new();
    let mut gap = 0.0f64;
    for v in &nash {
        if let Violation::ProfitableDeviation {
            provider,
            current_cost,
            deviation_cost,
            ..
        } = v
        {
            violators.push(provider.index());
            if *current_cost > 0.0 {
                gap = gap.max((current_cost - deviation_cost) / current_cost);
            }
        }
    }
    violators.sort_unstable();
    violators.dedup();
    let state = GameState::new(market, profile.clone());
    Certificate {
        admitted: active.iter().filter(|&&a| a).count(),
        cached: profile
            .iter()
            .filter(|&(l, p)| active[l.index()] && p != Placement::Remote)
            .count(),
        social_cost: state.subset_cost(market.providers().filter(|l| active[l.index()])),
        violators: violators.len(),
        nash_gap: gap,
        capacity_violations: check_capacity(market, profile).len(),
    }
}
