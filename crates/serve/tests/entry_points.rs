//! The one-shard entry points run one code path: `drain_bench` at one
//! shard (the daemon's wiring, a queued coordinated drain) and
//! `run_market` (a solo writer, a queued shutdown) must drain the same
//! seeded churn stream to the same market.

use mec_core::Profile;
use mec_serve::chan;
use mec_serve::drain::churn_stream;
use mec_serve::market::{run_market, Command, MarketConfig, Reply};
use mec_serve::{drain_bench, DrainConfig, MarketView, SharedView};
use mec_workload::{gtitm_scenario, Params};

#[test]
fn one_shard_drain_bench_and_run_market_agree() {
    let market = gtitm_scenario(60, &Params::paper().with_providers(24), 7)
        .generated
        .market;
    let n = market.provider_count();
    for seed in [1, 5] {
        let cfg = DrainConfig {
            shards: 1,
            commands: 2_000,
            seed,
            ..DrainConfig::default()
        };
        let bench = drain_bench(market.clone(), None, &cfg).expect("drain bench");

        let stream = churn_stream(n, cfg.commands, cfg.seed);
        let (tx, rx) = chan::bounded::<Command>(stream.len() + 1);
        for (provider, join) in stream {
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
            assert!(tx.send(cmd).is_ok(), "queue sized to the stream");
        }
        let (otx, _orx) = chan::oneshot();
        assert!(tx
            .send(Command::Shutdown {
                reply: Reply::Oneshot(otx)
            })
            .is_ok());
        drop(tx);
        let outcome = run_market(
            market.clone(),
            Profile::all_remote(n),
            vec![false; n],
            0,
            &rx,
            &SharedView::new(MarketView::empty(n)),
            &MarketConfig {
                epoch_moves: cfg.epoch_moves,
                batch_max: cfg.batch_max,
                snapshot_path: None,
            },
        );

        assert!(bench.equilibrium && outcome.equilibrium, "seed {seed}");
        assert_eq!(
            (bench.epochs, bench.moves),
            (outcome.epochs, outcome.moves),
            "seed {seed}: epochs/moves"
        );
        assert_eq!(bench.profile, outcome.profile, "seed {seed}: profile");
        assert_eq!(bench.active, outcome.active, "seed {seed}: active mask");
        assert!(
            bench.active.iter().any(|a| *a),
            "seed {seed}: nobody joined"
        );
    }
}
