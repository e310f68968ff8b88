//! The TCP front half of the daemon: acceptor, event-loop I/O threads,
//! boot and drain plumbing.
//!
//! Threading model (single-writer *per region* / multi-reader):
//!
//! ```text
//! acceptor ──inbox+wake──► io threads ──Command batch──► shard threads (×N)
//!                           │    ▲                           │   ▲
//!         reads from views ─┘    └──── Completions ◄──── publishes+acks
//!                                                            └── peer queues
//! ```
//!
//! The acceptor owns the listener and hands each accepted socket to one
//! of a small, fixed set of I/O threads (round-robin), which run the
//! poll-based event loop in [`crate::eventloop`]: nonblocking reads into
//! per-connection frame decoders, reads answered from the owning shard's
//! published [`crate::view::MarketView`], writes routed by the
//! provider→shard [`Router`] as [`Command`]s whose replies come back
//! through a completion mailbox and leave in request order. No thread is
//! ever parked on one client.
//!
//! Each region gets its own writer thread, and one shard is the plain
//! case of N, not a separate mode. Admin requests fan out as coordinated
//! two-phase ops (see [`crate::shard`]), every snapshot is a per-shard
//! slice set behind a manifest (boot and a one-shard `restore` still read
//! a plain whole-market file), and teardown is signalled by the `io_live`
//! counter (peers hold each other's senders, so disconnection can never
//! fire). `Plumbing` builds that per-shard wiring for both the daemon
//! and [`crate::drain_bench`].

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use mec_core::model::Market;
use mec_core::{load_snapshot, MarketSnapshot, Placement, Profile, ProviderId};

use crate::chan::{self, Receiver, Sender};
use crate::demand::DemandTracker;
use crate::eventloop::{run_io, Completions, IoShared};
use crate::market::{run_shard, Command, MarketConfig, MarketOutcome, Shard, ShardCtx};
use crate::proto::{self, Response};
use crate::shard::{
    contiguous_regions, parse_manifest, shard_snapshot_path, Coordinator, Router, ShardGauges,
};
use crate::view::{MarketView, SharedView};

/// Boot configuration of [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7690`; port 0 picks an ephemeral
    /// port (read it back from [`ServerHandle::addr`]).
    pub addr: String,
    /// Snapshot file. If it exists at boot, the daemon restores market,
    /// placements and admission state from it (crash recovery) instead of
    /// using the market passed to [`serve`]. The daemon writes a manifest
    /// here pointing at per-shard slice files `<path>.e<E>.s<k>`; boot
    /// also reads a plain whole-market snapshot file, at any shard count.
    pub snapshot_path: Option<PathBuf>,
    /// Improving moves per equilibrium-maintenance quantum.
    pub epoch_moves: usize,
    /// Bound of each shard's command queue (backpressure for writers).
    pub queue_cap: usize,
    /// Most commands a shard thread takes per batched drain.
    pub batch_max: usize,
    /// Event-loop I/O threads; 0 sizes the fleet from the machine
    /// (`available_parallelism`, capped at 4 — the shard threads are the
    /// write bottleneck, extra I/O threads past that just add contention).
    pub io_threads: usize,
    /// Maximum simultaneous client connections.
    pub max_connections: usize,
    /// Market shards (writer threads), each owning one topology region.
    /// Defaults to 1; clamped to the cloudlet count.
    pub shards: usize,
    /// Cloudlet→shard region map (`regions[c]` is the owning shard of
    /// cloudlet `c`). `None` derives a contiguous index split; callers
    /// with topology metadata pass `MecNetwork::regions(shards)` for a
    /// spatial partition.
    pub regions: Option<Vec<usize>>,
    /// Address of the HTTP admin surface ([`crate::admin`]), e.g.
    /// `127.0.0.1:9640`; port 0 picks an ephemeral port (read it back
    /// from [`ServerHandle::admin_addr`]). `None` (the default) runs no
    /// admin listener.
    pub admin_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            snapshot_path: None,
            epoch_moves: 32,
            queue_cap: 1024,
            batch_max: 256,
            io_threads: 0,
            max_connections: 512,
            shards: 1,
            regions: None,
            admin_addr: None,
        }
    }
}

impl ServerConfig {
    fn io_thread_count(&self) -> usize {
        if self.io_threads > 0 {
            return self.io_threads;
        }
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // On a single core one I/O thread is strictly better: the market
        // thread needs the core more than a second poll loop does.
        cores.saturating_sub(1).clamp(1, 4)
    }
}

/// A running daemon. Dropping the handle does **not** stop the daemon;
/// send a `shutdown` request and [`ServerHandle::join`] it.
pub struct ServerHandle {
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    shards: Vec<JoinHandle<MarketOutcome>>,
    acceptor: JoinHandle<()>,
    io: Vec<JoinHandle<()>>,
    admin: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound admin address, when [`ServerConfig::admin_addr`] asked
    /// for one (resolves port 0 to the actual ephemeral port).
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// Blocks until the daemon drains and returns the merged market
    /// outcome (totals summed across shards, placements merged by the
    /// final admission mask — after a drain every provider is active on
    /// at most one shard).
    ///
    /// # Panics
    ///
    /// Panics if a shard, the acceptor, or an I/O thread itself panicked.
    pub fn join(self) -> MarketOutcome {
        let outcome = join_writers(self.shards);
        if let Err(e) = self.acceptor.join() {
            std::panic::resume_unwind(e);
        }
        for h in self.io {
            if let Err(e) = h.join() {
                std::panic::resume_unwind(e);
            }
        }
        if let Some(h) = self.admin {
            if let Err(e) = h.join() {
                std::panic::resume_unwind(e);
            }
        }
        outcome
    }
}

/// Joins every writer thread and folds the per-shard outcomes into the
/// daemon-wide one. Counters sum, equilibrium ANDs, violations
/// concatenate; a provider's placement and admission flag come from
/// whichever shard holds it active (unique after a drain — migrations are
/// quiesced before shards finish).
///
/// # Panics
///
/// Re-raises a writer thread's panic.
pub(crate) fn join_writers(writers: Vec<JoinHandle<MarketOutcome>>) -> MarketOutcome {
    let mut outcomes = writers.into_iter().map(|h| match h.join() {
        Ok(o) => o,
        Err(e) => std::panic::resume_unwind(e),
    });
    // At least one shard always runs (shard counts clamp to >= 1).
    // lint: allow(panics)
    let mut merged = outcomes.next().expect("at least one writer");
    for o in outcomes {
        merged.seq += o.seq;
        merged.epochs += o.epochs;
        merged.moves += o.moves;
        merged.equilibrium &= o.equilibrium;
        merged.violations.extend(o.violations);
        for p in 0..o.active.len() {
            if o.active[p] {
                merged.active[p] = true;
                merged
                    .profile
                    .set(ProviderId(p), o.profile.placement(ProviderId(p)));
            }
        }
    }
    merged
}

/// Boot state recovered from disk (or the caller's fresh market): the
/// merged global market, placements, admission mask, seq, the epoch to
/// seed the snapshot coordinator with, and any per-provider ownership
/// claims a sharded snapshot set recorded.
struct BootState {
    market: Market,
    profile: Profile,
    active: Vec<bool>,
    seq: u64,
    epoch0: u64,
    claim: Vec<Option<usize>>,
}

/// Restores boot state from `path` if a snapshot exists there: either a
/// sharded manifest (merge every slice of the newest consistent set) or
/// a plain whole-market file. No snapshot means a fresh all-remote boot
/// from the caller's market.
fn boot_state(market: Market, path: Option<&Path>) -> std::io::Result<BootState> {
    let fresh = |market: Market| {
        let n = market.provider_count();
        BootState {
            market,
            profile: Profile::all_remote(n),
            active: vec![false; n],
            seq: 0,
            epoch0: 0,
            claim: vec![None; n],
        }
    };
    let Some(path) = path.filter(|p| p.exists()) else {
        return Ok(fresh(market));
    };
    let text = std::fs::read_to_string(path)?;
    let Some(manifest) = parse_manifest(&text) else {
        // Plain whole-market snapshot: the file *is* the market state.
        let snap = load_snapshot(path).map_err(|e| restore_err(path, &e))?;
        let n = snap.market.provider_count();
        return Ok(BootState {
            market: snap.market,
            profile: snap.profile,
            active: snap.active,
            seq: snap.seq,
            epoch0: 0,
            claim: vec![None; n],
        });
    };
    let mut slices = Vec::with_capacity(manifest.shards);
    for k in 0..manifest.shards {
        let slice_path = shard_snapshot_path(path, manifest.epoch, k);
        slices.push(load_snapshot(&slice_path).map_err(|e| restore_err(&slice_path, &e))?);
    }
    Ok(merge_slices(slices, manifest.epoch))
}

fn restore_err(path: &Path, e: &dyn std::fmt::Display) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("restoring {}: {e}", path.display()),
    )
}

/// Merges the slices of one coordinated snapshot set into a global boot
/// state. Each slice is authoritative for the providers its ownership
/// mask claims: their placement, admission flag, and demand vector come
/// from the owning slice (each shard's market copy tracks `update`s only
/// for its own providers). Claim conflicts — possible when a crash lands
/// between a join-forward's ownership transfer and the peer's slice
/// write — resolve in favor of an *active* claim: the claimant actually
/// holding the provider in its game state is unique, because migrations
/// are quiesced while slices are written.
fn merge_slices(slices: Vec<MarketSnapshot>, epoch: u64) -> BootState {
    let mut slices = slices.into_iter();
    // The manifest loader rejects empty snapshot sets before this call.
    // lint: allow(panics)
    let first = slices.next().expect("manifest guarantees >= 1 shard");
    let mut out = BootState {
        seq: first.seq,
        epoch0: epoch,
        claim: vec![None; first.market.provider_count()],
        profile: Profile::all_remote(first.market.provider_count()),
        active: vec![false; first.market.provider_count()],
        market: first.market.clone(),
    };
    let n = out.market.provider_count();
    let mut fold = |k: usize, snap: &MarketSnapshot| {
        out.seq = out.seq.max(snap.seq);
        let Some(meta) = snap.shard.as_ref() else {
            return;
        };
        for p in 0..n {
            if !meta.owned.get(p).copied().unwrap_or(false) {
                continue;
            }
            if out.claim[p].is_some() && (out.active[p] || !snap.active[p]) {
                // Keep an active claim; an inactive double-claim is a
                // converged Remote/inactive copy on both sides.
                continue;
            }
            out.claim[p] = Some(k);
            out.active[p] = snap.active[p];
            out.profile
                .set(ProviderId(p), snap.profile.placement(ProviderId(p)));
            let spec = snap.market.provider(ProviderId(p));
            out.market.set_provider_demand(
                ProviderId(p),
                spec.compute_demand,
                spec.bandwidth_demand,
            );
        }
    };
    fold(0, &first);
    for (k, snap) in slices.enumerate() {
        fold(k + 1, &snap);
    }
    out
}

/// Validates a caller-supplied region map (or derives the contiguous
/// fallback): every cloudlet mapped, every shard non-empty.
pub(crate) fn region_map(
    regions: Option<&Vec<usize>>,
    cloudlets: usize,
    shards: usize,
) -> std::io::Result<Vec<usize>> {
    let Some(r) = regions else {
        return Ok(contiguous_regions(cloudlets, shards));
    };
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
    if r.len() != cloudlets {
        return Err(bad(format!(
            "region map covers {} cloudlets, market has {cloudlets}",
            r.len()
        )));
    }
    for k in 0..shards {
        if !r.contains(&k) {
            return Err(bad(format!(
                "region map leaves shard {k} without cloudlets"
            )));
        }
    }
    if let Some(&r_max) = r.iter().max() {
        if r_max >= shards {
            return Err(bad(format!(
                "region map names shard {r_max}, daemon has {shards}"
            )));
        }
    }
    Ok(r.clone())
}

/// The per-shard wiring of one market: a view, queue and writer per
/// region, plus the router, gauges and coordinator they share. [`serve`]
/// and [`crate::drain_bench`] both build it, fill the queues or hand the
/// senders to their producers, then [`Plumbing::spawn`] the writers.
pub(crate) struct Plumbing {
    /// Cloudlet→shard region map.
    pub(crate) region_of: Vec<usize>,
    /// Published view of every shard.
    pub(crate) views: Vec<Arc<SharedView>>,
    /// Provider→shard ownership; providers start on their home shard.
    pub(crate) router: Arc<Router>,
    /// Per-shard depth/write gauges.
    pub(crate) gauges: Arc<ShardGauges>,
    /// Shared epochs and drain/quiesce barriers.
    pub(crate) coord: Arc<Coordinator>,
    /// Command sender of every shard; each writer holds all of them.
    pub(crate) txs: Vec<Sender<Command>>,
    /// Live producers; the writers self-drain once it reaches zero.
    pub(crate) io_live: Arc<AtomicUsize>,
    /// Command receiver of every shard, until [`Plumbing::spawn`] moves
    /// them into the writers.
    pub(crate) rxs: Vec<Receiver<Command>>,
}

impl Plumbing {
    /// Wiring for `providers` providers over the region map `region_of`
    /// (one shard per region), with `queue_cap`-bounded queues, the
    /// snapshot coordinator at `epoch0`, and `io_live` live producers.
    pub(crate) fn new(
        providers: usize,
        region_of: Vec<usize>,
        epoch0: u64,
        queue_cap: usize,
        io_live: usize,
    ) -> Plumbing {
        let shards = region_of.iter().max().map_or(1, |&r| r + 1);
        let (txs, rxs) = (0..shards)
            .map(|_| chan::bounded::<Command>(queue_cap))
            .unzip();
        Plumbing {
            views: (0..shards)
                .map(|_| Arc::new(SharedView::new(MarketView::empty(providers))))
                .collect(),
            router: Arc::new(Router::new(providers, shards)),
            gauges: Arc::new(ShardGauges::new(shards)),
            coord: Arc::new(Coordinator::new(shards, region_of.clone(), epoch0)),
            txs,
            io_live: Arc::new(AtomicUsize::new(io_live)),
            rxs,
            region_of,
        }
    }

    /// Shard `k`'s writer context over this wiring.
    pub(crate) fn ctx(&self, k: usize) -> ShardCtx {
        ShardCtx::new(
            k,
            self.txs.len(),
            self.region_of.iter().map(|&r| r == k).collect(),
            self.router.clone(),
            self.txs.clone(),
            self.views.clone(),
            self.coord.clone(),
            self.gauges.clone(),
            Some(self.io_live.clone()),
        )
    }

    /// Spawns one writer per shard over its slice of the boot state: the
    /// providers the router gives a shard carry their placement and
    /// admission flag, all others are Remote/inactive there (their
    /// owner's slice carries them). Every shard's state is built, and its
    /// boot view published, on the calling thread before any writer
    /// starts, so neither a read right after this returns nor a writer's
    /// rebalance estimate ever sees an empty placeholder view. `on_exit`
    /// runs on each writer thread once its shard has drained. Call once:
    /// the queues' receivers move into the writers.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn(
        &mut self,
        market: &Market,
        profile: &Profile,
        active: &[bool],
        seq: u64,
        cfg: &MarketConfig,
        demand: &Arc<DemandTracker>,
        on_exit: impl Fn() + Clone + Send + 'static,
    ) -> Vec<JoinHandle<MarketOutcome>> {
        let n = market.provider_count();
        let shards: Vec<(Shard, ShardCtx)> = (0..self.txs.len())
            .map(|k| {
                let ctx = self.ctx(k).with_demand(demand.clone());
                let mut shard_profile = Profile::all_remote(n);
                let mut shard_active = vec![false; n];
                for p in 0..n {
                    if self.router.owner(p) == k {
                        shard_active[p] = active[p];
                        shard_profile.set(ProviderId(p), profile.placement(ProviderId(p)));
                    }
                }
                let (market, view) = (market.clone(), &self.views[k]);
                let shard = Shard::boot(market, shard_profile, shard_active, seq, view, &ctx);
                (shard, ctx)
            })
            .collect();
        let rxs = std::mem::take(&mut self.rxs);
        let mut writers = Vec::with_capacity(rxs.len());
        for ((rx, (shard, ctx)), view) in rxs.into_iter().zip(shards).zip(&self.views) {
            let view = view.clone();
            let cfg = cfg.clone();
            let on_exit = on_exit.clone();
            // The shard's writer thread: owns its region for its whole
            // life. Intentionally a raw thread, not the bench pool — it is
            // joined through its handle. lint: allow(thread-spawn)
            writers.push(std::thread::spawn(move || {
                let outcome = run_shard(shard, &rx, &view, &cfg, &ctx);
                on_exit();
                outcome
            }));
        }
        writers
    }
}

/// Boots the daemon: restores the snapshot if one exists, binds the
/// listener, and starts the shard, acceptor, and I/O threads.
///
/// # Errors
///
/// Propagates bind errors, waker-socket errors, invalid region maps, and
/// snapshot-restore I/O or corruption errors.
pub fn serve(market: Market, cfg: &ServerConfig) -> std::io::Result<ServerHandle> {
    let boot = boot_state(market, cfg.snapshot_path.as_deref())?;
    let BootState {
        market,
        profile,
        active,
        seq,
        epoch0,
        claim,
    } = boot;
    let n = market.provider_count();
    let m = market.cloudlet_count();
    let shards = cfg.shards.clamp(1, m.max(1));
    let region_of = region_map(cfg.regions.as_ref(), m, shards)?;

    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let io_count = cfg.io_thread_count();
    let mut plumbing = Plumbing::new(n, region_of, epoch0, cfg.queue_cap, io_count);
    for (p, &claimed) in claim.iter().enumerate() {
        // Restored/derived ownership: a cached provider belongs to its
        // cloudlet's region (capacity is accounted there); a remote one
        // keeps its snapshot claim when still valid, else its home shard.
        let owner = match profile.placement(ProviderId(p)) {
            Placement::Cloudlet(c) => plumbing.region_of[c.index()],
            Placement::Remote => claimed.filter(|&k| k < shards).unwrap_or(p % shards),
        };
        plumbing.router.set_owner(p, owner);
    }
    let stop = Arc::new(AtomicBool::new(false));
    // Bind the admin listener before any thread starts so a bad admin
    // address fails the boot instead of leaking a half-started daemon.
    let admin_listener = match cfg.admin_addr.as_deref() {
        Some(a) => Some(crate::admin::bind_admin(a)?),
        None => None,
    };
    let live = Arc::new(AtomicUsize::new(0));
    // One demand tracker daemon-wide: every I/O thread notes queries into
    // it, each writer folds (only) its owned providers' counts.
    let demand = Arc::new(DemandTracker::new(n));

    // One IoShared per event-loop thread: its own completion mailbox and
    // accepted-connection inbox, everything else shared daemon-wide.
    let mut io_shared: Vec<Arc<IoShared>> = Vec::with_capacity(io_count);
    for _ in 0..io_count {
        io_shared.push(Arc::new(IoShared {
            completions: Arc::new(Completions::new()?),
            inbox: Mutex::new(Vec::new()),
            stop: stop.clone(),
            live: live.clone(),
            txs: plumbing.txs.clone(),
            views: plumbing.views.clone(),
            router: plumbing.router.clone(),
            gauges: plumbing.gauges.clone(),
            coord: plumbing.coord.clone(),
            demand: demand.clone(),
            addr,
        }));
    }

    let market_cfg = MarketConfig {
        epoch_moves: cfg.epoch_moves,
        batch_max: cfg.batch_max,
        snapshot_path: cfg.snapshot_path.clone(),
    };
    let wakers: Vec<Arc<Completions>> = io_shared.iter().map(|s| s.completions.clone()).collect();
    let stop_w = stop.clone();
    // A drained shard stops the acceptor, pokes it out of `accept()` with
    // a throwaway connection, and wakes every I/O thread so it observes
    // the flag and flushes out. Idempotent across shards.
    let on_exit = move || {
        stop_w.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        for c in &wakers {
            c.wake();
        }
    };
    let shard_threads = plumbing.spawn(
        &market,
        &profile,
        &active,
        seq,
        &market_cfg,
        &demand,
        on_exit,
    );

    let mut io = Vec::with_capacity(io_count);
    for shared in &io_shared {
        let shared = shared.clone();
        let io_live_k = plumbing.io_live.clone();
        // One poll loop per I/O thread, joined through the ServerHandle.
        // lint: allow(thread-spawn)
        io.push(std::thread::spawn(move || {
            run_io(&shared);
            // Signal the shard threads: one fewer I/O-side sender. At
            // zero the shards self-drain even though their peers still
            // hold senders (disconnection can never fire).
            io_live_k.fetch_sub(1, Ordering::AcqRel);
        }));
    }

    let mut admin_addr = None;
    let mut admin = None;
    if let Some((admin_l, bound)) = admin_listener {
        admin_addr = Some(bound);
        let shared = Arc::new(crate::admin::AdminShared {
            views: plumbing.views.clone(),
            router: plumbing.router.clone(),
            gauges: plumbing.gauges.clone(),
            coord: plumbing.coord.clone(),
            stop: stop.clone(),
            cloudlets: m,
            providers: n,
        });
        admin = Some(crate::admin::spawn_admin(admin_l, shared));
    }

    let max_connections = cfg.max_connections;
    // Acceptor: owns the listener; exits when the stop flag flips.
    // lint: allow(thread-spawn)
    let acceptor = std::thread::spawn(move || {
        accept_loop(&listener, &io_shared, &stop, &live, max_connections);
    });

    Ok(ServerHandle {
        addr,
        admin_addr,
        shards: shard_threads,
        acceptor,
        io,
        admin,
    })
}

/// Accepts connections and deals them round-robin to the I/O threads.
fn accept_loop(
    listener: &TcpListener,
    io_shared: &[Arc<IoShared>],
    stop: &AtomicBool,
    live: &AtomicUsize,
    max_connections: usize,
) {
    let mut next = 0usize;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // Frames are small request/response pairs; never batch them.
        let _ = stream.set_nodelay(true);
        if live.load(Ordering::SeqCst) >= max_connections {
            let mut s = stream;
            let payload = proto::encode_response(&Response::Error {
                msg: "server at connection capacity".to_string(),
            });
            let _ = proto::write_frame(&mut s, &payload);
            continue;
        }
        live.fetch_add(1, Ordering::SeqCst);
        let target = &io_shared[next % io_shared.len()];
        next = next.wrapping_add(1);
        {
            let mut inbox = target.inbox.lock().unwrap_or_else(|e| e.into_inner());
            inbox.push(stream);
        }
        target.completions.wake();
    }
}
