//! Recompute vs incremental best-response dynamics.
//!
//! `run_reference` is the seed implementation (congestion/residuals
//! recomputed from scratch for every candidate evaluation, profile cloned
//! once per round); `run` drives the same moves through the incremental
//! `GameState`. Both converge to identical equilibria — these benchmarks
//! measure only the sweep machinery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mec_core::game::{best_response, BestResponseDynamics, MoveOrder};
use mec_core::state::{GameState, Scope};
use mec_core::{Placement, Profile, ProviderId};
use mec_serve::drain::churn_stream;
use mec_topology::CloudletId;
use mec_workload::{gtitm_scenario, Params, Scenario};

fn scenario(providers: usize) -> Scenario {
    gtitm_scenario(200, &Params::paper().with_providers(providers), 42)
}

fn bench_sweep_recompute_vs_incremental(c: &mut Criterion) {
    let mut g = c.benchmark_group("dynamics_sweep");
    g.sample_size(10);
    for providers in [60usize, 150, 300] {
        let s = scenario(providers);
        let market = &s.generated.market;
        let movable = vec![true; market.provider_count()];
        g.bench_with_input(
            BenchmarkId::new("recompute", providers),
            &(market, &movable),
            |b, (market, movable)| {
                b.iter(|| {
                    let mut profile = Profile::all_remote(market.provider_count());
                    BestResponseDynamics::new(MoveOrder::RoundRobin).run_reference(
                        black_box(market),
                        &mut profile,
                        movable,
                    )
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("incremental", providers),
            &(market, &movable),
            |b, (market, movable)| {
                b.iter(|| {
                    let mut profile = Profile::all_remote(market.provider_count());
                    BestResponseDynamics::new(MoveOrder::RoundRobin).run(
                        black_box(market),
                        &mut profile,
                        movable,
                    )
                })
            },
        );
    }
    g.finish();
}

fn bench_single_best_response(c: &mut Criterion) {
    // One best-response query at an equilibrium profile: the reference path
    // pays O(N+M) plus three allocations, the state path O(M) and none.
    let s = scenario(300);
    let market = &s.generated.market;
    let movable = vec![true; market.provider_count()];
    let mut profile = Profile::all_remote(market.provider_count());
    BestResponseDynamics::new(MoveOrder::RoundRobin).run(market, &mut profile, &movable);
    let state = GameState::new(market, profile.clone());
    let probe = ProviderId(market.provider_count() / 2);

    let mut g = c.benchmark_group("single_best_response");
    g.bench_function("recompute", |b| {
        b.iter(|| best_response(black_box(market), black_box(&profile), probe))
    });
    g.bench_function("incremental", |b| {
        b.iter(|| black_box(&state).best_response(probe))
    });
    g.finish();
}

fn bench_admission_scan(c: &mut Criterion) {
    // The drain bench's market (800 providers, GT-ITM size 4000: 400
    // cloudlets) at a mid-stream profile: the first half of its churn
    // stream replayed through one-shard admission, leaves to remote.
    let market = gtitm_scenario(4000, &Params::paper().with_providers(800), 1)
        .generated
        .market;
    let every: Vec<CloudletId> = market.cloudlets().collect();
    let held = vec![(0.0, 0.0); market.cloudlet_count()];
    let scope = Scope::Within {
        cloudlets: &every,
        held: &held,
    };
    let mut state = GameState::all_remote(&market);
    let mut joined = vec![false; market.provider_count()];
    for (p, join) in churn_stream(market.provider_count(), 200_000, 1) {
        let l = ProviderId(p);
        joined[p] = join;
        let to = match state.cheapest_fit(l, scope) {
            Some((i, _)) if join => Placement::Cloudlet(i),
            _ => Placement::Remote,
        };
        state.apply_move(l, to);
    }
    let waiting = ProviderId(joined.iter().position(|j| !j).expect("a provider is out"));
    let cached = market
        .providers()
        .find(|&l| matches!(state.placement(l), Placement::Cloudlet(_)))
        .expect("a provider is cached");

    let mut g = c.benchmark_group("admission_scan");
    g.bench_function("generic_join", |b| {
        b.iter(|| black_box(&state).cheapest_fit(waiting, scope))
    });
    g.bench_function("best_response", |b| {
        b.iter(|| black_box(&state).best_response(cached))
    });
    g.finish();
}

fn bench_max_gain(c: &mut Criterion) {
    let s = scenario(150);
    let market = &s.generated.market;
    let movable = vec![true; market.provider_count()];
    let mut g = c.benchmark_group("dynamics_max_gain");
    g.sample_size(10);
    g.bench_function("recompute", |b| {
        b.iter(|| {
            let mut profile = Profile::all_remote(market.provider_count());
            BestResponseDynamics::new(MoveOrder::MaxGain).run_reference(
                black_box(market),
                &mut profile,
                &movable,
            )
        })
    });
    g.bench_function("incremental", |b| {
        b.iter(|| {
            let mut profile = Profile::all_remote(market.provider_count());
            BestResponseDynamics::new(MoveOrder::MaxGain).run(
                black_box(market),
                &mut profile,
                &movable,
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sweep_recompute_vs_incremental,
    bench_single_best_response,
    bench_admission_scan,
    bench_max_gain
);
criterion_main!(benches);
