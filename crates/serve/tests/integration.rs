//! End-to-end daemon tests over real sockets on ephemeral ports.
//!
//! Each test boots an in-process daemon (`serve` with port 0), talks to
//! it through [`Client`], and drains it with a `shutdown` request. The
//! admission arc — join to capacity, rejection, leave, re-admission —
//! and the snapshot/restore crash-recovery path both run against the
//! full TCP stack, not the market thread in isolation.

use std::path::Path;
use std::time::{Duration, Instant};

use mec_core::model::{CloudletSpec, Market, ProviderSpec};
use mec_core::{BestResponseDynamics, MoveOrder, Placement, Profile, ProviderId};
use mec_serve::shard::{parse_manifest, shard_snapshot_path};
use mec_serve::{serve, Client, Response, ServerConfig, ServerHandle};
use mec_topology::CloudletId;

/// Two cloudlets, each with room for exactly two of the identical
/// providers (compute 4.0 / demand 2.0, bandwidth 20.0 / demand 8.0).
fn two_slot_market(providers: usize) -> Market {
    let mut b = Market::builder()
        .cloudlet(CloudletSpec::new(4.0, 20.0, 0.5, 0.5))
        .cloudlet(CloudletSpec::new(4.0, 20.0, 0.3, 0.2));
    for _ in 0..providers {
        b = b.provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0));
    }
    b.uniform_update_cost(0.2).build()
}

fn boot(market: Market, snapshot: Option<&Path>) -> (ServerHandle, Client) {
    boot_sharded(market, snapshot, 1)
}

/// Boots a `shards`-shard daemon. Over the two-cloudlet market the
/// contiguous region map gives shard 0 cloudlet 0 and shard 1 cloudlet
/// 1, and providers home to shard `p % 2`.
fn boot_sharded(market: Market, snapshot: Option<&Path>, shards: usize) -> (ServerHandle, Client) {
    let cfg = ServerConfig {
        snapshot_path: snapshot.map(|p| p.to_path_buf()),
        shards,
        ..ServerConfig::default()
    };
    let handle = serve(market, &cfg).expect("boot");
    let client = Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    (handle, client)
}

fn drain(handle: ServerHandle, client: &mut Client) -> mec_serve::MarketOutcome {
    assert_eq!(client.shutdown().expect("shutdown"), Response::Draining);
    handle.join()
}

#[test]
fn join_to_capacity_rejection_leave_readmission() {
    let (handle, mut client) = boot(two_slot_market(5), None);

    // Four providers fill both cloudlets.
    for p in 0..4 {
        match client.join(p).expect("join") {
            Response::Admitted { cloudlet, cost } => {
                assert!(cost.is_finite());
                assert!(cloudlet < 2);
            }
            other => panic!("provider {p}: expected admission, got {other:?}"),
        }
    }
    // The fifth finds no capacity anywhere: rejected, not errored.
    assert!(matches!(
        client.join(4).expect("join"),
        Response::Rejected { .. }
    ));
    // Rejected providers stay inactive and remote.
    match client.query(4).expect("query") {
        Response::Placement { at, active, .. } => {
            assert_eq!(at, None);
            assert!(!active);
        }
        other => panic!("expected placement, got {other:?}"),
    }

    // A departure frees a slot; the rejected provider now gets in.
    // (Which cloudlet has the free slot depends on the maintenance epochs
    // that may have rebalanced providers in the meantime.)
    assert_eq!(client.leave(0).expect("leave"), Response::Left);
    assert!(matches!(
        client.join(4).expect("rejoin"),
        Response::Admitted { .. }
    ));

    let stats = client.stats().expect("stats");
    assert_eq!(stats.providers, 5);
    assert_eq!(stats.active, 4);
    assert_eq!(stats.cached, 4);

    let outcome = drain(handle, &mut client);
    assert_eq!(outcome.active.iter().filter(|a| **a).count(), 4);
    assert!(outcome.equilibrium);
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
}

#[test]
fn protocol_errors_do_not_kill_the_connection() {
    let (handle, mut client) = boot(two_slot_market(2), None);
    // Unknown provider, double join, leave-without-join: all errors, all
    // on the same connection, which stays usable throughout.
    assert!(matches!(
        client.join(99).expect("join oob"),
        Response::Error { .. }
    ));
    assert!(matches!(
        client.join(0).expect("join"),
        Response::Admitted { .. }
    ));
    assert!(matches!(
        client.join(0).expect("double join"),
        Response::Error { .. }
    ));
    assert!(matches!(
        client.leave(1).expect("leave inactive"),
        Response::Error { .. }
    ));
    assert!(matches!(
        client.update(0, f64::NAN, 1.0).expect("bad update"),
        Response::Error { .. }
    ));
    // Booted without a snapshot path: nothing to write or load.
    assert!(matches!(
        client.snapshot().expect("snapshot"),
        Response::Error { .. }
    ));
    assert!(matches!(
        client.restore().expect("restore"),
        Response::Error { .. }
    ));
    // Still alive.
    assert_eq!(client.stats().expect("stats").active, 1);
    drain(handle, &mut client);
}

#[test]
fn update_demand_round_trips_and_evicts() {
    let (handle, mut client) = boot(two_slot_market(2), None);
    assert!(matches!(
        client.join(0).expect("join"),
        Response::Admitted { .. }
    ));
    // Shrink: still fits, not evicted.
    match client.update(0, 1.0, 4.0).expect("shrink") {
        Response::Updated { evicted, .. } => assert!(!evicted),
        other => panic!("expected update, got {other:?}"),
    }
    // Outgrow every cloudlet: evicted to remote but still active.
    match client.update(0, 100.0, 4.0).expect("grow") {
        Response::Updated { evicted, cost } => {
            assert!(evicted);
            assert!((cost - 30.0).abs() < 1e-9, "remote cost, got {cost}");
        }
        other => panic!("expected update, got {other:?}"),
    }
    match client.query(0).expect("query") {
        Response::Placement { at, active, .. } => {
            assert_eq!(at, None);
            assert!(active);
        }
        other => panic!("expected placement, got {other:?}"),
    }
    let outcome = drain(handle, &mut client);
    assert!(outcome.active[0]);
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
}

#[test]
fn snapshot_restore_recovers_market_state() {
    crash_recovery(1);
}

#[test]
fn kill9_mid_migration_restores_from_shard_slices() {
    crash_recovery(2);
}

/// Snapshot mid-run, then "kill -9": stash the whole snapshot set
/// (manifest + slices), drain via a throwaway client to free the port
/// (which writes a *newer* set and garbage-collects ours), put the
/// mid-run set back, and reboot from it. At two shards provider 4 joins
/// through a live cross-shard handoff that the crash must neither lose
/// nor duplicate.
fn crash_recovery(shards: usize) {
    let dir = std::env::temp_dir().join(format!(
        "mec-serve-it-{}-{}-{shards}",
        std::process::id(),
        line!()
    ));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let snap = dir.join("market.snap");

    let (handle, mut client) = boot_sharded(two_slot_market(6), Some(&snap), shards);
    // Providers 0 and 2 (home shard 0) fill shard 0's cloudlet; provider
    // 4 (also home shard 0) then finds its region full and forwards to
    // shard 1. Provider 1 fills shard 1's last slot. One shard simply
    // admits all four.
    for (p, sharded_at) in [(0, 0), (2, 0), (4, 1), (1, 1)] {
        match client.join(p).expect("join") {
            Response::Admitted { cloudlet, .. } => {
                if shards == 2 {
                    assert_eq!(cloudlet, sharded_at, "provider {p}");
                }
            }
            other => panic!("provider {p}: expected admission, got {other:?}"),
        }
    }

    // Coordinated snapshot: prepare quiesces in-flight handoffs before
    // any slice is written, so the set on disk is consistent even though
    // a migration was just in flight.
    let seq_at_snapshot = match client.snapshot().expect("snapshot") {
        Response::Snapshotted { seq } => seq,
        other => panic!("expected snapshot ack, got {other:?}"),
    };
    let pre: Vec<Response> = (0..6).map(|p| client.query(p).expect("query")).collect();

    let manifest_bytes = std::fs::read(&snap).expect("manifest bytes");
    let manifest = parse_manifest(std::str::from_utf8(&manifest_bytes).expect("manifest utf8"))
        .expect("manifest parses");
    assert_eq!(manifest.shards, shards);
    let slice_paths: Vec<_> = (0..shards)
        .map(|k| shard_snapshot_path(&snap, manifest.epoch, k))
        .collect();
    let slice_bytes: Vec<_> = slice_paths
        .iter()
        .map(|p| std::fs::read(p).expect("slice bytes"))
        .collect();
    let mut admin = Client::connect(handle.addr()).expect("admin");
    admin.shutdown().expect("shutdown");
    handle.join();
    std::fs::remove_dir_all(&dir).expect("wipe");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    std::fs::write(&snap, &manifest_bytes).expect("rewind manifest");
    for (p, bytes) in slice_paths.iter().zip(&slice_bytes) {
        std::fs::write(p, bytes).expect("rewind slice");
    }

    // The set itself: one epoch, every provider claimed by exactly one
    // shard's ownership mask, and the ack carries the newest slice seq.
    let slices: Vec<_> = slice_paths
        .iter()
        .map(|p| mec_core::load_snapshot(p).expect("slice parses"))
        .collect();
    let slice_seq_max = slices.iter().map(|s| s.seq).max();
    assert_eq!(Some(seq_at_snapshot), slice_seq_max);
    let masks: Vec<&Vec<bool>> = slices
        .iter()
        .map(|s| &s.shard.as_ref().expect("slice has shard meta").owned)
        .collect();
    for p in 0..6 {
        let claims = masks.iter().filter(|m| m[p]).count();
        assert_eq!(claims, 1, "provider {p} claimed by {claims} shards");
    }
    if shards == 2 {
        assert!(masks[1][4], "forwarded provider must be owned by shard 1");
    }
    for s in &slices {
        let meta = s.shard.as_ref().expect("meta");
        assert_eq!(meta.epoch, manifest.epoch, "mixed-epoch set");
        assert_eq!(meta.count, shards);
    }

    // Daemon #2 boots from the slices: same seq, same placements, and
    // fully operational — including fresh cross-shard forwarding after a
    // slot frees up.
    let (handle2, mut client2) = boot_sharded(two_slot_market(6), Some(&snap), shards);
    let stats = client2.stats().expect("stats");
    assert_eq!(
        stats.shards.len(),
        shards,
        "restored daemon reports every shard"
    );
    // Composite stats sum the per-shard seqs; each restored shard starts
    // at its slice's seq.
    assert_eq!(stats.seq, slices.iter().map(|s| s.seq).sum::<u64>());
    assert_eq!(stats.active, 4);
    assert_eq!(stats.cached, 4);
    for (p, before) in pre.iter().enumerate() {
        let after = client2.query(p).expect("query");
        let (
            Response::Placement {
                at: a0,
                active: x0,
                cost: c0,
                ..
            },
            Response::Placement {
                at: a1,
                active: x1,
                cost: c1,
                ..
            },
        ) = (before, &after)
        else {
            panic!("expected placements, got {before:?} / {after:?}");
        };
        assert_eq!(a0, a1, "provider {p} placement");
        assert_eq!(x0, x1, "provider {p} active flag");
        assert!((c0 - c1).abs() < 1e-12, "provider {p} cost");
    }
    assert_eq!(client2.leave(0).expect("leave"), Response::Left);
    // Let maintenance settle the freed slot first: at one shard a quantum
    // moves a provider into the cheaper slot provider 0 left, and a join
    // that overtook it would land there instead.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !client2.stats().expect("stats").equilibrium {
        assert!(
            Instant::now() < deadline,
            "market never settled after the leave"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Provider 5 homes to shard 1, whose cloudlet is still full; the
    // restored router must forward it to the slot shard 0 just freed.
    match client2.join(5).expect("post-restore join") {
        Response::Admitted { cloudlet, .. } => assert_eq!(cloudlet, 0),
        other => panic!("expected admission, got {other:?}"),
    }
    assert!(matches!(
        client2.join(3).expect("join"),
        Response::Rejected { .. }
    ));
    let outcome = drain(handle2, &mut client2);
    assert_eq!(outcome.active.iter().filter(|a| **a).count(), 4);
    assert!(outcome.equilibrium);
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);

    let _ = std::fs::remove_dir_all(&dir);
}

/// No daemon writes the plain whole-market snapshot format any more, but
/// boot still reads one at every shard count, and a one-shard `restore`
/// still accepts one.
#[test]
fn plain_snapshot_file_boots_at_any_shard_count() {
    let market = two_slot_market(5);
    let mut profile = Profile::all_remote(5);
    profile.set(ProviderId(0), Placement::Cloudlet(CloudletId(0)));
    profile.set(ProviderId(1), Placement::Cloudlet(CloudletId(1)));
    profile.set(ProviderId(2), Placement::Cloudlet(CloudletId(1)));
    // Provider 4 never joined. Settle the admitted four first, so the
    // booted writers' maintenance has nothing left to move.
    let active = [true, true, true, true, false];
    let settled =
        BestResponseDynamics::new(MoveOrder::RoundRobin).run(&market, &mut profile, &active);
    assert!(settled.converged);
    let want: Vec<(Option<usize>, bool)> = (0..5)
        .map(|p| match profile.placement(ProviderId(p)) {
            Placement::Cloudlet(c) => (Some(c.index()), active[p]),
            Placement::Remote => (None, active[p]),
        })
        .collect();

    let mut seen = Vec::new();
    for shards in [1, 2] {
        let dir = std::env::temp_dir().join(format!(
            "mec-serve-it-{}-{}-{shards}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let snap = dir.join("market.snap");
        mec_core::save_snapshot(&snap, 7, &market, &profile, &active).expect("plain snapshot");

        let (handle, mut client) = boot_sharded(two_slot_market(5), Some(&snap), shards);
        let placements: Vec<(Option<usize>, bool)> = (0..5)
            .map(|p| match client.query(p).expect("query") {
                Response::Placement { at, active, .. } => (at, active),
                other => panic!("expected placement, got {other:?}"),
            })
            .collect();
        assert_eq!(placements, want, "{shards} shard(s)");
        let stats = client.stats().expect("stats");
        let cached = want.iter().filter(|(at, _)| at.is_some()).count();
        assert_eq!(
            (stats.providers, stats.active, stats.cached),
            (5, 4, cached)
        );
        seen.push(stats.social_cost);
        if shards == 1 {
            match client.restore().expect("restore") {
                Response::Restored { seq } => assert_eq!(seq, 7),
                other => panic!("expected restore ack, got {other:?}"),
            }
            assert_eq!(client.stats().expect("stats").seq, 7);
        }
        let outcome = drain(handle, &mut client);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!((seen[0] - seen[1]).abs() < 1e-9, "social cost {seen:?}");
}

#[test]
fn restore_request_rewinds_live_state() {
    let dir = std::env::temp_dir().join(format!("mec-serve-it-{}-{}", std::process::id(), line!()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let snap = dir.join("market.snap");

    let (handle, mut client) = boot(two_slot_market(4), Some(&snap));
    assert!(matches!(
        client.join(0).expect("join"),
        Response::Admitted { .. }
    ));
    let seq = match client.snapshot().expect("snapshot") {
        Response::Snapshotted { seq } => seq,
        other => panic!("expected snapshot ack, got {other:?}"),
    };
    // Mutate past the snapshot, then rewind to it.
    assert!(matches!(
        client.join(1).expect("join"),
        Response::Admitted { .. }
    ));
    match client.restore().expect("restore") {
        Response::Restored { seq: restored } => assert_eq!(restored, seq),
        other => panic!("expected restore ack, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.seq, seq);
    assert_eq!(stats.active, 1, "join(1) must be rewound");
    drain(handle, &mut client);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_reads_observe_preceding_writes() {
    // Read-your-writes across a batched drain: a query pipelined behind
    // writes on the same connection must see a view at least as new as
    // those writes, even though the market thread applies the whole
    // batch in one pass, publishes once, and only then acknowledges.
    // The pipelined reads sit behind in-flight commands, forcing the
    // event loop through its deferred-read path — a stale pre-write view
    // here is exactly the regression batching could introduce.
    use mec_serve::Request;
    let (handle, mut client) = boot(two_slot_market(4), None);
    let batch = [
        Request::Join {
            provider: 0,
            cloudlet: None,
        },
        Request::Query { provider: 0 }, // deferred behind the join
    ];
    let resps: Vec<Response> = client
        .pipeline(&batch)
        .expect("pipeline")
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    assert!(matches!(resps[0], Response::Admitted { .. }));
    match &resps[1] {
        Response::Placement { at, active, .. } => {
            assert!(active, "query pipelined after join must see the join");
            assert!(at.is_some());
        }
        other => panic!("expected placement, got {other:?}"),
    }
    // A batch whose writes supersede each other: the trailing reads must
    // reflect the final state of the batch (join(1) + leave(0) both
    // applied), never a pre-write view.
    let batch = [
        Request::Join {
            provider: 1,
            cloudlet: None,
        },
        Request::Leave { provider: 0 },
        Request::Query { provider: 0 }, // must see the leave applied
        Request::Query { provider: 1 }, // must see the join applied
        Request::Stats,                 // must count exactly provider 1
    ];
    let resps: Vec<Response> = client
        .pipeline(&batch)
        .expect("pipeline")
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    assert!(matches!(resps[0], Response::Admitted { .. }));
    assert_eq!(resps[1], Response::Left);
    match &resps[2] {
        Response::Placement { at, active, .. } => {
            assert!(!active, "query pipelined after leave must see the leave");
            assert_eq!(*at, None);
        }
        other => panic!("expected placement, got {other:?}"),
    }
    assert!(matches!(
        &resps[3],
        Response::Placement { active: true, .. }
    ));
    match &resps[4] {
        Response::Stats(s) => assert_eq!(s.active, 1),
        other => panic!("expected stats, got {other:?}"),
    }
    drain(handle, &mut client);
}

#[test]
fn slow_reader_does_not_stall_other_clients() {
    // One client writes a request but never reads the response; with the
    // event loop this parks a buffer, not a thread, and other clients
    // keep getting served.
    use std::io::Write;
    let (handle, mut client) = boot(two_slot_market(4), None);
    let mut lazy = std::net::TcpStream::connect(handle.addr()).expect("connect");
    lazy.write_all(b"24\n{\"op\":\"stats\",\"seq\":100}\n")
        .expect("write");
    // Never read from `lazy`; the daemon must still answer everyone else.
    for p in 0..2 {
        assert!(matches!(
            client.join(p).expect("join"),
            Response::Admitted { .. }
        ));
    }
    assert_eq!(client.stats().expect("stats").active, 2);
    drop(lazy);
    drain(handle, &mut client);
}

#[test]
fn concurrent_clients_admit_exactly_to_capacity() {
    // 8 providers race for 4 slots from 8 connections; admissions must
    // total exactly 4 with the rest rejected, and the daemon must drain
    // to a feasible equilibrium.
    let (handle, mut client) = boot(two_slot_market(8), None);
    let addr = handle.addr();
    let results: Vec<Response> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|p| {
                scope.spawn(move |_| {
                    let mut c = Client::connect(addr).expect("connect");
                    c.join(p).expect("join")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    })
    .expect("scope");
    let admitted = results
        .iter()
        .filter(|r| matches!(r, Response::Admitted { .. }))
        .count();
    let rejected = results
        .iter()
        .filter(|r| matches!(r, Response::Rejected { .. }))
        .count();
    assert_eq!(admitted, 4, "{results:?}");
    assert_eq!(rejected, 4, "{results:?}");
    let outcome = drain(handle, &mut client);
    assert!(outcome.equilibrium);
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
}
