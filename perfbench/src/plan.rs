//! `plan`: the paper's offline pipeline — `appro` (GAP relaxation via
//! `mec-gap`/`mec-lp`, Shmoys–Tardos rounding, local-search polish),
//! then `lcf` with ξ = 0.7 as `mec run` uses it — on a set of GT-ITM
//! markets derived from the seed. Single-threaded, no I/O.

use std::time::Instant;

use mec_core::game::IMPROVEMENT_TOL;
use mec_core::{appro, check_capacity, check_nash, lcf, ApproConfig, LcfConfig};
use mec_workload::{gtitm_scenario, Params};

use crate::cert::certify;
use crate::report::{median, Metric, Outcome};
use crate::spans::Tracer;
use crate::Args;

/// Providers and GT-ITM network size of each market: one appro + lcf
/// takes about 0.5 s on a 2-core x86 host.
const PROVIDERS: usize = 200;
const NET_SIZE: usize = 200;
/// Markets solved per pass. The LP's work varies by a fifth from one
/// market to the next; the mean over this many keeps `op_us` steady
/// from seed to seed, and one pass fills a 20 s run.
const MARKETS: usize = 32;
/// Set-ups timed for `setup_s`: one generates every market, in tens of
/// milliseconds, so the median needs several.
const SETUPS: usize = 7;
const XI: f64 = 0.7;

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let seeds: Vec<u64> = (0..MARKETS as u64)
        .map(|k| args.seed.wrapping_mul(1000).wrapping_add(k))
        .collect();

    let mut setup = Vec::new();
    let mut markets = Vec::new();
    for rep in 0..SETUPS {
        let t0 = Instant::now();
        let ms: Vec<_> = seeds
            .iter()
            .map(|&s| {
                tr.time("topology.gen", None, rep as u64, || {
                    gtitm_scenario(NET_SIZE, &Params::paper().with_providers(PROVIDERS), s)
                        .generated
                        .market
                })
            })
            .collect();
        setup.push(t0.elapsed().as_secs_f64());
        markets = ms;
    }

    // Whole passes over the market set while the next one still fits in
    // the run's time; at least one.
    let mut appro_s = Vec::new();
    let mut lcf_s = Vec::new();
    let mut pass_s: Vec<f64> = Vec::new();
    let mut totals = (0.0f64, 0.0f64);
    let (mut leaders, mut followers, mut applied, mut attempted) = (0usize, 0usize, 0u64, 0u64);
    let mut cached = 0usize;
    // The whole-market certificate of each plan: its violators are the
    // leaders LCF pins off their best response.
    let (mut gap, mut violators, mut cap_total) = (0.0f64, 0usize, 0usize);
    let started = Instant::now();
    let mut pass = 0u64;
    loop {
        let mut solve_s = 0.0;
        for (k, market) in markets.iter().enumerate() {
            let id = pass * MARKETS as u64 + k as u64;
            let t = Instant::now();
            let a = tr.time("appro", None, id, || appro(market, &ApproConfig::new()));
            let t_appro = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let l = tr.time("lcf", None, id, || lcf(market, &LcfConfig::new(XI)));
            let t_lcf = t.elapsed().as_secs_f64();
            appro_s.push(t_appro);
            lcf_s.push(t_lcf);
            solve_s += t_appro + t_lcf;
            out.attempted += 1;
            let (a, l) = match (a, l) {
                (Ok(a), Ok(l)) => (a, l),
                (a, l) => {
                    out.failed += 1;
                    out.errors.push(format!(
                        "market {k}: appro {:?} / lcf {:?}",
                        a.err(),
                        l.err()
                    ));
                    continue;
                }
            };
            if pass > 0 {
                continue;
            }
            // Correctness of the plan: Eq. 4-5 on both outputs, and the
            // selfish followers at Nash against the pinned leaders.
            let n = market.provider_count();
            let mut movable = vec![true; n];
            for c in &l.coordinated {
                movable[c.index()] = false;
            }
            let cap = tr.time("core.check_capacity", None, id, || {
                check_capacity(market, &l.profile).len() + check_capacity(market, &a.profile).len()
            });
            out.check(cap == 0, || {
                format!("market {k}: {cap} capacity violations")
            });
            out.check(l.convergence.converged, || {
                format!("market {k}: follower dynamics did not converge")
            });
            let nash = tr.time("core.check_nash", None, id, || {
                check_nash(market, &l.profile, &movable, IMPROVEMENT_TOL).len()
            });
            out.check(nash == 0, || {
                format!("market {k}: {nash} followers have an improving move")
            });
            out.check(l.appro.lp_lower_bound == a.lp_lower_bound, || {
                format!("market {k}: lcf's appro disagrees with a standalone appro")
            });
            let cert = tr.time("core.certify", None, id, || {
                certify(market, &l.profile, &vec![true; n])
            });
            gap = gap.max(cert.nash_gap);
            violators = violators.max(cert.violators);
            cap_total += cert.capacity_violations;
            cached += cert.cached;
            totals.0 += l.social_cost;
            totals.1 += a.lp_lower_bound;
            leaders += l.coordinated.len();
            followers += n - l.coordinated.len();
            applied += l.convergence.moves as u64;
            attempted += (l.convergence.rounds * (n - l.coordinated.len())) as u64;
        }
        pass_s.push(solve_s);
        pass += 1;
        let next = started.elapsed().as_secs_f64() + median(&pass_s);
        if next > args.seconds as f64 {
            break;
        }
    }

    let per_market: Vec<f64> = pass_s.iter().map(|s| s / MARKETS as f64).collect();
    // Set-up is market generation alone, so it is also the topology layer.
    out.layer
        .push(Metric::median_of("topology.gen_s", "s", setup.clone()));
    out.e2e.push(Metric::median_of("setup_s", "s", setup));
    // The workload's operation is one market's appro + lcf solve.
    let per_market_us: Vec<f64> = per_market.iter().map(|s| s * 1e6).collect();
    out.e2e
        .push(Metric::median_of("op_us", "us", per_market_us));
    out.e2e.push(Metric::new(
        "social_cost",
        "cost",
        totals.0 / MARKETS as f64,
    ));
    // Every provider is in the plan; "admitted" counts the ones it
    // caches in a cloudlet, per market.
    out.e2e.push(Metric::new(
        "admitted",
        "count",
        cached as f64 / MARKETS as f64,
    ));
    out.e2e.push(Metric::new(
        "hit_rate",
        "ratio",
        cached as f64 / (MARKETS * PROVIDERS) as f64,
    ));

    out.layer
        .push(Metric::new("lp_ratio", "ratio", totals.0 / totals.1));
    out.layer.push(Metric::new("nash_gap", "ratio", gap));
    out.layer
        .push(Metric::new("nash.violators", "count", violators as f64));
    out.layer.push(Metric::new(
        "capacity.violations",
        "count",
        cap_total as f64,
    ));

    out.layer.push(Metric::median_of("appro.s", "s", appro_s));
    out.layer.push(Metric::median_of("lcf.s", "s", lcf_s));
    out.layer
        .push(Metric::new("lcf.leaders", "count", leaders as f64));
    out.layer
        .push(Metric::new("lcf.followers", "count", followers as f64));
    out.layer.push(Metric::new(
        "core.dynamics.useful_ratio",
        "ratio",
        if attempted > 0 {
            applied as f64 / attempted as f64
        } else {
            0.0
        },
    ));
    out.notes.push(format!(
        "plan: {MARKETS} GT-ITM markets ({PROVIDERS} providers, size {NET_SIZE}) per pass, \
         {} passes; core.dynamics moves applied {applied} of {attempted} best-response checks",
        pass_s.len()
    ));
    out
}
