//! `drain`: `mec_serve::drain_bench` at one shard on the CI scale-gate
//! market (800 providers, GT-ITM size 4000): the writer and `GameState`
//! at saturation, no I/O.
//!
//! `DrainReport` carries counts, not the drained profile, so the
//! certificate replays the same command stream through the public
//! single-writer entry point `run_market` (the code path `drain_bench`
//! runs at one shard) and checks that both drains ran the same epochs
//! and moves before certifying the replica's profile.

use std::sync::Arc;
use std::time::Instant;

use mec_core::model::Market;
use mec_core::{GameState, Placement, Profile, ProviderId};
use mec_serve::chan;
use mec_serve::market::{run_market, Command, MarketConfig, Reply};
use mec_serve::{drain_bench, DrainConfig, DrainReport, MarketView, SharedView};
use mec_workload::{gtitm_scenario, Params};

use crate::cert::{certify, Certificate};
use crate::report::{median, Metric, Outcome};
use crate::spans::Tracer;
use crate::Args;

/// The CI scale-gate market (`marketload --direct --providers 800
/// --size 4000`, market seed 1): a fixed deployment, with the seed
/// choosing the command stream.
const PROVIDERS: usize = 800;
const NET_SIZE: usize = 4000;
const MARKET_SEED: u64 = 1;
/// Join/leave commands per drain: about 1.5 s of writer time on a
/// 2-core x86 host, so one drain is long against scheduler noise.
const COMMANDS: usize = 400_000;
/// Command streams per run: outcome metrics are means over them, since
/// who is joined at the end of one stream is a coin toss per provider.
const STREAMS: u64 = 3;
const SETUPS: usize = 3;

/// The splitmix64 stream `drain_bench` draws providers from.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `drain_bench`'s command stream: `(provider, join?)` in order.
fn stream(n: usize, commands: usize, seed: u64) -> Vec<(usize, bool)> {
    let mut rng = seed;
    let mut joined = vec![false; n];
    (0..commands)
        .map(|_| {
            let p = (next_rand(&mut rng) % n as u64) as usize;
            joined[p] = !joined[p];
            (p, joined[p])
        })
        .collect()
}

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut market = None;
    for rep in 0..SETUPS {
        let t0 = Instant::now();
        let m = tr.time("topology.gen", None, rep as u64, || {
            gtitm_scenario(
                NET_SIZE,
                &Params::paper().with_providers(PROVIDERS),
                MARKET_SEED,
            )
            .generated
            .market
        });
        setup.push(t0.elapsed().as_secs_f64());
        market = Some(m);
    }
    let market = market.expect("at least one set-up");
    let cfg = |stream: u64| DrainConfig {
        shards: 1,
        commands: COMMANDS,
        seed: args.seed.wrapping_mul(STREAMS).wrapping_add(stream),
        ..DrainConfig::default()
    };

    // Drains cycle through the streams until the run's time is spent.
    let mut ops = Vec::new();
    let mut elapsed = Vec::new();
    let mut last: Vec<Option<DrainReport>> = (0..STREAMS).map(|_| None).collect();
    let started = Instant::now();
    let mut rep = 0u64;
    loop {
        let k = rep % STREAMS;
        let r = tr.time("drain.bench", None, rep, || {
            drain_bench(market.clone(), None, &cfg(k))
        });
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                out.errors.push(format!("drain_bench: {e}"));
                return out;
            }
        };
        out.attempted += r.commands as u64;
        out.check(r.equilibrium, || {
            format!("rep {rep}: drain ended off equilibrium")
        });
        out.check(r.per_shard.iter().sum::<u64>() == r.commands as u64, || {
            format!(
                "rep {rep}: {:?} writes settled of {}",
                r.per_shard, r.commands
            )
        });
        ops.push(r.write_ops_per_sec());
        elapsed.push(r.elapsed.as_secs_f64());
        last[k as usize] = Some(r);
        rep += 1;
        let next = started.elapsed().as_secs_f64() + median(&elapsed);
        if rep >= STREAMS && next > args.seconds as f64 {
            break;
        }
    }

    // The certificate of each stream, on a replica drain of it.
    let mut certs = Vec::new();
    for (k, last) in last.iter().enumerate() {
        let last = last.as_ref().expect("every stream drained");
        let c = cfg(k as u64);
        let commands = stream(market.provider_count(), COMMANDS, c.seed);
        let outcome = tr.time("drain.replica", None, k as u64, || {
            replica(&market, &commands, &c)
        });
        out.check(
            outcome.epochs == last.epochs && outcome.moves == last.moves,
            || {
                format!(
                    "stream {k}: replica drained with {}/{} epochs/moves, drain_bench with {}/{}",
                    outcome.epochs, outcome.moves, last.epochs, last.moves
                )
            },
        );
        let cert = tr.time("core.certify", None, k as u64, || {
            certify(&market, &outcome.profile, &outcome.active)
        });
        let cv = cert.capacity_violations;
        out.check(cv == 0, || {
            format!("stream {k}: {cv} capacity violations at drain")
        });
        certs.push(cert);
    }
    let mean = |f: fn(&Certificate) -> f64| certs.iter().map(f).sum::<f64>() / certs.len() as f64;
    let worst = |f: fn(&Certificate) -> f64| certs.iter().map(f).fold(0.0, f64::max);

    let drains = ops.len();
    out.e2e
        .push(Metric::median_of("setup_s", "s", setup.clone()));
    // The workload's operation is one write command: writer time per
    // command, the inverse of write ops/s.
    let per_op: Vec<f64> = ops.iter().map(|r| 1e6 / r).collect();
    out.e2e.push(Metric::median_of("op_us", "us", per_op));
    out.e2e
        .push(Metric::new("social_cost", "cost", mean(|c| c.social_cost)));
    out.e2e.push(Metric::new(
        "admitted",
        "count",
        mean(|c| c.admitted as f64),
    ));
    out.e2e.push(Metric::new(
        "hit_rate",
        "ratio",
        mean(|c| c.cached as f64 / c.admitted.max(1) as f64),
    ));

    out.layer.push(Metric::median_of("write_ops_s", "1/s", ops));

    out.layer
        .push(Metric::median_of("topology.gen_s", "s", setup));
    out.layer
        .push(Metric::median_of("drain.elapsed_s", "s", elapsed));
    let sum = |f: fn(&DrainReport) -> u64| last.iter().flatten().map(f).sum::<u64>() as f64;
    out.layer
        .push(Metric::new("drain.epochs", "count", sum(|r| r.epochs)));
    out.layer
        .push(Metric::new("drain.moves", "count", sum(|r| r.moves)));
    out.layer
        .push(Metric::new("nash_gap", "ratio", worst(|c| c.nash_gap)));
    out.layer.push(Metric::new(
        "nash.violators",
        "count",
        worst(|c| c.violators as f64),
    ));
    out.layer.push(Metric::new(
        "capacity.violations",
        "count",
        certs.iter().map(|c| c.capacity_violations).sum::<usize>() as f64,
    ));
    if tr.on() {
        let commands = stream(market.provider_count(), COMMANDS, cfg(0).seed);
        let (ops_s, br_ns) = core_replay(&market, &commands, tr);
        out.layer
            .push(Metric::new("core.replay_ops_s", "1/s", ops_s));
        out.layer
            .push(Metric::new("core.best_response_ns", "ns", br_ns));
    }
    for (k, c) in certs.iter().enumerate() {
        out.notes.push(format!(
            "stream {k} whole-market certificate at drain: {} of {} active providers have an \
             improving move, nash_gap {:.4}, social cost {:.2}",
            c.violators, c.admitted, c.nash_gap, c.social_cost
        ));
    }
    out.notes.push(format!(
        "drain: CI scale-gate market ({PROVIDERS} providers, size {NET_SIZE}), 1 shard, \
         {COMMANDS} commands per drain, {drains} drains over {STREAMS} streams"
    ));
    out
}

/// The one-shard drain, replayed through `run_market` so the drained
/// profile comes back: stream preloaded, shutdown queued behind it.
fn replica(
    market: &Market,
    commands: &[(usize, bool)],
    cfg: &DrainConfig,
) -> mec_serve::MarketOutcome {
    let n = market.provider_count();
    let (tx, rx) = chan::bounded::<Command>(commands.len() + 2);
    for &(provider, join) in commands {
        let (otx, _orx) = chan::oneshot();
        let reply = Reply::Oneshot(otx);
        let cmd = if join {
            Command::Join {
                provider,
                cloudlet: None,
                reply,
            }
        } else {
            Command::Leave { provider, reply }
        };
        assert!(tx.send(cmd).is_ok(), "replica queue sized to the stream");
    }
    let (otx, _orx) = chan::oneshot();
    assert!(
        tx.send(Command::Shutdown {
            reply: Reply::Oneshot(otx)
        })
        .is_ok(),
        "replica queue sized to the stream"
    );
    drop(tx);
    let view = Arc::new(SharedView::new(MarketView::empty(n)));
    let mcfg = MarketConfig {
        epoch_moves: cfg.epoch_moves,
        batch_max: cfg.batch_max,
        snapshot_path: None,
    };
    run_market(
        market.clone(),
        Profile::all_remote(n),
        vec![false; n],
        0,
        &rx,
        &view,
        &mcfg,
    )
}

/// The layer under the writer: the same stream replayed single-threaded
/// into a `GameState` (join = best response from remote, then the move;
/// leave = move to remote). Returns ops/s of a plain replay, and the mean
/// best-response time from a second replay that times each call.
fn core_replay(market: &Market, commands: &[(usize, bool)], tr: &mut Tracer) -> (f64, f64) {
    let replay = |timed: bool| {
        let mut state = GameState::new(market, Profile::all_remote(market.provider_count()));
        let mut br_ns = 0u128;
        let mut joins = 0u64;
        for &(p, join) in commands {
            let l = ProviderId(p);
            if join {
                let t = timed.then(Instant::now);
                let best = std::hint::black_box(state.best_response(l));
                if let Some(t) = t {
                    br_ns += t.elapsed().as_nanos();
                }
                joins += 1;
                if let Some((to, _)) = best {
                    state.apply_move(l, to);
                }
            } else {
                state.apply_move(l, Placement::Remote);
            }
        }
        br_ns as f64 / joins.max(1) as f64
    };
    let t = Instant::now();
    tr.time("core.replay", None, 0, || replay(false));
    let ops_s = commands.len() as f64 / t.elapsed().as_secs_f64();
    (ops_s, replay(true))
}
