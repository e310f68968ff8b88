//! The single-writer market thread: batched admission control,
//! preemptible equilibrium maintenance, snapshots, and graceful drain.
//!
//! One thread owns the [`Market`] and an incremental [`GameState`] over
//! it. I/O threads enqueue [`Command`]s on a bounded channel; the market
//! thread drains the queue in *batches* — everything queued is taken in
//! one lock, applied in one pass over the state, and covered by a single
//! published [`MarketView`]. Publishing is the expensive step (`O(N)`
//! placement/cost vectors per view), so amortizing one publish over a
//! whole batch is where the daemon's write throughput comes from.
//!
//! Read-your-writes is preserved batch-wide: the view covering a batch
//! is published *before* any command in the batch is acknowledged, so a
//! client holding a reply can immediately observe its write through
//! `query`/`stats` — whichever thread answers the read.
//!
//! Whenever a drain comes back empty and the active players are not yet
//! at equilibrium, the thread spends the gap on one *maintenance
//! quantum*: a bounded best-response sweep applying at most
//! `epoch_moves` improving moves (Lemma 3 dynamics). Quanta interleave
//! with queue drains, so maintenance is preemptible — a request burst
//! waits for at most one quantum, never a full convergence run — while
//! the exact-potential argument still guarantees the dynamics terminate
//! once the queue goes quiet. At equilibrium with an empty queue the
//! thread sleeps on the channel, waking each idle tick for housekeeping.
//!
//! Each shard builds one `Shard` at boot and keeps it until drain: a
//! [`GameState`] that owns the shard's market copy, plus its book-keeping.
//! A demand update moves one cloudlet's load in `O(1)`
//! ([`GameState::set_demand`]) and a restore swaps the state in place, so
//! neither leaves the batch pass, and every command — serving or
//! draining — goes through one dispatcher, `Shard::step`.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mec_core::game::IMPROVEMENT_TOL;
use mec_core::model::Market;
use mec_core::{
    load_snapshot, save_snapshot_sharded, GameState, Placement, Profile, ProviderId, Scope,
    ShardMeta, CAP_SLACK,
};
use mec_topology::CloudletId;

use crate::chan::{OneSender, Receiver, RecvTimeout, Sender, TrySendError};
use crate::demand::{demand_order, DemandTracker, DEMAND_EWMA_ALPHA};
use crate::eventloop::Completions;
use crate::proto::{Request, Response, StatsReport};
use crate::shard::{
    parse_manifest, shard_snapshot_path, write_manifest, CoordKind, CoordOp, Coordinator, DrainOp,
    Manifest, Router, ShardGauges,
};
use crate::view::{MarketView, SharedView};

/// How long an idle writer sleeps between housekeeping ticks (rebalance
/// scans, noticing the I/O side went away).
const IDLE_TICK: Duration = Duration::from_millis(10);

/// Housekeeping ticks between cross-shard rebalance scans.
const REBALANCE_TICKS: u64 = 8;

/// Minimum relative cost improvement before a cross-shard migration is
/// worth the handoff (on top of [`IMPROVEMENT_TOL`]).
const MIGRATION_MARGIN: f64 = 0.01;

/// Backstop for the drain linger: if a peer shard wedges, stop waiting
/// for the quiesce barrier after this long and finish anyway.
const DRAIN_LINGER_MAX: Duration = Duration::from_secs(5);

/// Where a command's response goes once the market thread settles it.
pub enum Reply {
    /// A blocking oneshot slot (in-process drivers, unit tests).
    Oneshot(OneSender<Response>),
    /// An event-loop route: the response is pushed into the owning I/O
    /// thread's completion mailbox, keyed by connection and request id,
    /// and the loop serializes it in request order.
    Conn {
        /// The owning I/O thread's completion mailbox.
        mailbox: Arc<Completions>,
        /// Connection id within that thread.
        conn: u64,
        /// Request id within that connection.
        req: u64,
    },
}

impl Reply {
    /// Delivers the response to whoever is waiting.
    pub fn send(self, resp: Response) {
        match self {
            Reply::Oneshot(tx) => tx.send(resp),
            Reply::Conn { mailbox, conn, req } => mailbox.push(conn, req, resp),
        }
    }
}

impl From<OneSender<Response>> for Reply {
    fn from(tx: OneSender<Response>) -> Reply {
        Reply::Oneshot(tx)
    }
}

/// A mutating request, carried from an I/O thread to the market thread
/// with its reply route. Reads (`query`/`stats`) never become commands —
/// they are answered from the published [`MarketView`].
pub enum Command {
    /// Admit a provider (optionally at a specific cloudlet).
    Join {
        /// Provider id.
        provider: usize,
        /// Requested cloudlet, if any.
        cloudlet: Option<usize>,
        /// Reply route.
        reply: Reply,
    },
    /// Deactivate a provider.
    Leave {
        /// Provider id.
        provider: usize,
        /// Reply route.
        reply: Reply,
    },
    /// Replace a provider's demand vector.
    Update {
        /// Provider id.
        provider: usize,
        /// New compute demand.
        compute: f64,
        /// New bandwidth demand.
        bandwidth: f64,
        /// Reply route.
        reply: Reply,
    },
    /// Drain this shard (in-process drivers; the event loop fans a
    /// client `shutdown` out to every shard as [`Command::DrainAll`]).
    Shutdown {
        /// Reply route.
        reply: Reply,
    },
    /// (cross-shard) A join handed over from another shard. Ownership has
    /// already transferred to the receiver; the provider's authoritative
    /// demands ride along so the receiver can sync its market copy.
    JoinForward {
        /// Provider id.
        provider: usize,
        /// Requested cloudlet, if any.
        cloudlet: Option<usize>,
        /// Authoritative compute demand.
        compute: f64,
        /// Authoritative bandwidth demand.
        bandwidth: f64,
        /// Shards tried so far (a generic join gives up after a full lap).
        hop: usize,
        /// Reply route.
        reply: Reply,
    },
    /// (cross-shard) Phase 1 of a migration handoff: reserve capacity at
    /// `cloudlet` on the receiving shard.
    MigrateReserve {
        /// Provider id.
        provider: usize,
        /// Target cloudlet (in the receiver's region).
        cloudlet: usize,
        /// Compute demand to reserve.
        compute: f64,
        /// Bandwidth demand to reserve.
        bandwidth: f64,
        /// Source shard awaiting the grant.
        from: usize,
    },
    /// (cross-shard) The target's answer to a reservation.
    MigrateGrant {
        /// Provider id.
        provider: usize,
        /// `true` if capacity was reserved.
        granted: bool,
    },
    /// (cross-shard) Phase 2: the source released the provider; place it.
    MigrateCommit {
        /// Provider id.
        provider: usize,
        /// Reserved cloudlet.
        cloudlet: usize,
        /// Authoritative compute demand.
        compute: f64,
        /// Authoritative bandwidth demand.
        bandwidth: f64,
    },
    /// (cross-shard) Cancel a granted reservation.
    MigrateAbort {
        /// Provider id.
        provider: usize,
    },
    /// (coordinated) Phase 1 of a snapshot/restore: pause
    /// migrations and ack once in-flight handoffs have resolved.
    Prepare {
        /// The coordinated operation.
        op: Arc<CoordOp>,
    },
    /// (coordinated) Phase 2: write/load this shard's slice.
    Apply {
        /// The coordinated operation.
        op: Arc<CoordOp>,
    },
    /// (coordinated) Graceful drain of the whole daemon.
    DrainAll {
        /// The shared drain barrier.
        op: Arc<DrainOp>,
    },
}

/// Builds the market command for a provider write. Read requests are
/// answered from the view and admin requests fan out through the
/// coordinator (see `eventloop::fan_out_admin`), so neither maps to one
/// command; asking for one returns the error response to send instead.
pub fn command_for(req: Request, reply: Reply) -> Result<Command, Response> {
    Ok(match req {
        Request::Join { provider, cloudlet } => Command::Join {
            provider,
            cloudlet,
            reply,
        },
        Request::Leave { provider } => Command::Leave { provider, reply },
        Request::UpdateDemand {
            provider,
            compute,
            bandwidth,
        } => Command::Update {
            provider,
            compute,
            bandwidth,
            reply,
        },
        Request::Query { .. } | Request::Stats => {
            return Err(Response::Error {
                msg: "read requests are answered from the view".to_string(),
            })
        }
        Request::Snapshot | Request::Restore | Request::Shutdown => {
            return Err(Response::Error {
                msg: "admin requests fan out through the coordinator".to_string(),
            })
        }
    })
}

/// Tuning knobs of the market thread.
#[derive(Debug, Clone)]
pub struct MarketConfig {
    /// Improving moves allowed per maintenance quantum.
    pub epoch_moves: usize,
    /// Most commands taken from the queue per drain (one published view
    /// covers the whole batch).
    pub batch_max: usize,
    /// Snapshot file; `None` disables `snapshot`/`restore` and the final
    /// drain snapshot.
    pub snapshot_path: Option<PathBuf>,
}

impl Default for MarketConfig {
    fn default() -> Self {
        MarketConfig {
            epoch_moves: 32,
            batch_max: 256,
            snapshot_path: None,
        }
    }
}

/// Everything one shard's writer thread shares with the rest of the
/// daemon: its region, the ownership router, peer queues and views, and
/// the coordination barriers. A one-shard daemon is the plain case: its
/// only shard owns every cloudlet and every provider.
pub struct ShardCtx {
    /// This shard's index.
    pub index: usize,
    /// Total shard count.
    pub shards: usize,
    /// Cloudlet→"belongs to this shard" mask over the full topology.
    pub mine: Vec<bool>,
    /// Provider→shard ownership map (shared with the I/O threads).
    pub router: Arc<Router>,
    /// Command senders to every shard, self included (empty in a
    /// [`ShardCtx::solo`] context).
    pub peers: Vec<Sender<Command>>,
    /// Published views of every shard, self included (used for
    /// cross-shard rebalance estimates).
    pub views: Vec<Arc<SharedView>>,
    /// Shared epochs and drain/quiesce barriers.
    pub coord: Arc<Coordinator>,
    /// Per-shard depth/write gauges read by `stats`.
    pub gauges: Arc<ShardGauges>,
    /// Live I/O-side senders; at zero the shard self-drains. `None` in a
    /// [`ShardCtx::solo`] context, which relies on channel disconnection.
    pub io_live: Option<Arc<AtomicUsize>>,
    /// Per-provider query counters noted by the I/O side; folded into
    /// demand EWMAs at quantum start. Defaults to the inert
    /// [`DemandTracker::disabled`] — attach a live one with
    /// [`ShardCtx::with_demand`].
    pub demand: Arc<DemandTracker>,
    /// Interned probe name for this shard's publish latency.
    publish_probe: &'static str,
    /// The cloudlets `mine` marks, ascending: the candidates of every
    /// admission scan and best response this shard runs.
    owned: Vec<CloudletId>,
}

/// Literal per-shard publish probes (the common shard counts); higher
/// indices intern a leaked name once per shard thread.
const PUBLISH_PROBES: [&str; 4] = [
    "serve.publish.s0.ns",
    "serve.publish.s1.ns",
    "serve.publish.s2.ns",
    "serve.publish.s3.ns",
];

impl ShardCtx {
    /// Builds the context for shard `index` of `shards`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        index: usize,
        shards: usize,
        mine: Vec<bool>,
        router: Arc<Router>,
        peers: Vec<Sender<Command>>,
        views: Vec<Arc<SharedView>>,
        coord: Arc<Coordinator>,
        gauges: Arc<ShardGauges>,
        io_live: Option<Arc<AtomicUsize>>,
    ) -> ShardCtx {
        assert!(index < shards, "shard index out of range");
        let publish_probe = if shards == 1 {
            "serve.publish.ns"
        } else if let Some(name) = PUBLISH_PROBES.get(index).copied() {
            name
        } else {
            Box::leak(format!("serve.publish.s{index}.ns").into_boxed_str())
        };
        let owned = (0..mine.len())
            .filter(|&c| mine[c])
            .map(CloudletId)
            .collect();
        ShardCtx {
            index,
            shards,
            mine,
            router,
            peers,
            views,
            coord,
            gauges,
            io_live,
            demand: Arc::new(DemandTracker::disabled()),
            publish_probe,
            owned,
        }
    }

    /// The context of a market that is its own only shard, run by an
    /// in-process driver holding the queue's only senders ([`run_market`],
    /// the scenario replay): no peers, so no coordinated snapshot or
    /// restore, and teardown by a queued shutdown or by disconnection.
    pub fn solo(providers: usize, cloudlets: usize) -> ShardCtx {
        ShardCtx::new(
            0,
            1,
            vec![true; cloudlets],
            Arc::new(Router::new(providers, 1)),
            Vec::new(),
            Vec::new(),
            Arc::new(Coordinator::new(1, vec![0; cloudlets], 0)),
            Arc::new(ShardGauges::new(1)),
            None,
        )
    }

    /// Attaches the live demand tracker shared with the I/O threads
    /// (builder-style; the default context carries an inert tracker).
    pub fn with_demand(mut self, demand: Arc<DemandTracker>) -> ShardCtx {
        self.demand = demand;
        self
    }

    /// `true` if cloudlet `c` belongs to this shard's region.
    fn owns_cloudlet(&self, c: usize) -> bool {
        self.mine.get(c).copied().unwrap_or(false)
    }

    /// The placement-scan scope of this shard's region, with `held`
    /// (per cloudlet) out of reach.
    fn scope<'a>(&'a self, held: &'a [(f64, f64)]) -> Scope<'a> {
        Scope::Within {
            cloudlets: &self.owned,
            held,
        }
    }

    /// `true` if some cloudlet belongs to another shard's region.
    fn has_peer_region(&self) -> bool {
        self.mine.contains(&false)
    }

    /// `true` once every I/O-side sender has exited (a daemon's writers
    /// cannot rely on channel disconnection — peers hold senders too).
    fn io_gone(&self) -> bool {
        self.io_live
            .as_ref()
            .is_some_and(|l| l.load(Ordering::Acquire) == 0)
    }
}

/// What the market thread hands back when it drains.
#[derive(Debug)]
pub struct MarketOutcome {
    /// Final state version.
    pub seq: u64,
    /// Final placement profile.
    pub profile: Profile,
    /// Final admission mask.
    pub active: Vec<bool>,
    /// Maintenance quanta run over the daemon's lifetime.
    pub epochs: u64,
    /// Improving moves those quanta applied.
    pub moves: u64,
    /// `true` if the drained placement is a Nash equilibrium of the
    /// active providers.
    pub equilibrium: bool,
    /// Violations found by the exit certification (always empty unless
    /// the `verify` feature is on and something is wrong).
    pub violations: Vec<String>,
}

/// Capacity debited at a cloudlet for an in-flight incoming migration.
struct Reservation {
    provider: usize,
    cloudlet: usize,
    compute: f64,
    bandwidth: f64,
}

/// This shard's at-most-one outgoing migration handoff.
struct Outgoing {
    provider: usize,
    target: usize,
    cloudlet: usize,
}

/// A shard's book-keeping beside its game state.
struct Book {
    active: Vec<bool>,
    seq: u64,
    epochs: u64,
    moves: u64,
    equilibrium: bool,
    /// Round-robin scan position for maintenance quanta (the fallback
    /// order when no demand has been observed).
    cursor: usize,
    /// Per-provider request-rate EWMAs ([`DEMAND_EWMA_ALPHA`]), folded
    /// from the shared [`DemandTracker`] at every quantum start. Drives
    /// the hot-first maintenance scan and is published in the view.
    demand_ewma: Vec<f64>,
    /// Cross-shard sends that hit a full peer queue, drained FIFO so
    /// per-target ordering is preserved. The writer never blocks on a
    /// peer queue — that is what makes shard-to-shard cycles safe.
    outbound: VecDeque<(usize, Command)>,
    /// Capacity debits granted to in-flight incoming migrations. Change
    /// it only through [`Book::reserve`], [`Book::release`] and
    /// [`Book::clear_reserved`], which keep `held` in step.
    reserved: Vec<Reservation>,
    /// `reserved` summed per cloudlet (exactly `0.0` where there is
    /// none): the space admission and best responses may not use.
    held: Vec<(f64, f64)>,
    /// The at-most-one outgoing migration handoff.
    outgoing: Option<Outgoing>,
    /// Providers whose client left between reserve-grant and commit; the
    /// commit is dropped instead of resurrecting them.
    tombstones: Vec<usize>,
    /// `true` between a coordinated prepare and its apply: no new
    /// migrations originate and no reservations are granted.
    paused: bool,
    /// `true` once the shard drains: client work is refused, no
    /// reservation is granted, an outgoing handoff still in flight is
    /// aborted, and only migration traffic is settled.
    draining: bool,
    /// Prepare fan-outs deferred until the outgoing handoff resolves.
    parked_preps: Vec<Arc<CoordOp>>,
    /// Idle housekeeping ticks (throttles rebalance scans).
    ticks: u64,
}

impl Book {
    fn new(active: Vec<bool>, seq: u64, cloudlets: usize) -> Book {
        let n = active.len();
        Book {
            active,
            seq,
            epochs: 0,
            moves: 0,
            equilibrium: false,
            cursor: 0,
            demand_ewma: vec![0.0; n],
            outbound: VecDeque::new(),
            reserved: Vec::new(),
            held: vec![(0.0, 0.0); cloudlets],
            outgoing: None,
            tombstones: Vec::new(),
            paused: false,
            draining: false,
            parked_preps: Vec::new(),
            ticks: 0,
        }
    }

    /// Grants an incoming migration its capacity.
    fn reserve(&mut self, r: Reservation) {
        self.reserved.push(r);
        self.rehold();
    }

    /// Drops `provider`'s reservation, if any; `true` if there was one.
    fn release(&mut self, provider: usize) -> bool {
        let before = self.reserved.len();
        self.reserved.retain(|r| r.provider != provider);
        let released = self.reserved.len() != before;
        if released {
            self.rehold();
        }
        released
    }

    /// Drops every reservation, over a market of `cloudlets` cloudlets.
    fn clear_reserved(&mut self, cloudlets: usize) {
        self.reserved.clear();
        self.held = vec![(0.0, 0.0); cloudlets];
    }

    /// Rebuilds `held` from `reserved`.
    fn rehold(&mut self) {
        self.held.fill((0.0, 0.0));
        for r in &self.reserved {
            self.held[r.cloudlet].0 += r.compute;
            self.held[r.cloudlet].1 += r.bandwidth;
        }
    }

    /// Enters drain mode: this shard originates no further migrations, and
    /// an in-flight outgoing handoff is aborted when its grant comes back.
    /// Coordinated snapshots parked behind that handoff fail with the
    /// drain error; their barriers still complete so no client is
    /// stranded.
    fn begin_drain(&mut self, ctx: &ShardCtx) {
        self.draining = true;
        for op in std::mem::take(&mut self.parked_preps) {
            op.push_error("daemon is draining".to_string());
            complete_prepare(self, ctx, &op);
        }
    }
}

/// One shard's writer state for its whole life, boot to drain: the game
/// over the shard's own market copy and the book-keeping beside it. A
/// demand change or a restore updates it in place.
pub(crate) struct Shard {
    state: GameState<'static>,
    book: Book,
}

impl Shard {
    /// Builds a shard's boot state (`market`/`profile`/`active`/`seq`,
    /// possibly restored from a snapshot by the caller) and publishes its
    /// first view, so a read answered before the writer thread runs
    /// already sees the boot state.
    pub(crate) fn boot(
        market: Market,
        profile: Profile,
        active: Vec<bool>,
        seq: u64,
        view: &SharedView,
        ctx: &ShardCtx,
    ) -> Shard {
        let shard = Shard {
            book: Book::new(active, seq, market.cloudlet_count()),
            state: GameState::owned(market, profile),
        };
        publish_timed(view, &shard.state, &shard.book, ctx);
        shard
    }

    /// Applies one command: the writer's only command dispatcher, run by
    /// the serving loop and the drain linger alike. Replies that may leave
    /// only once the view covering them is published go to `acks`.
    fn step(
        &mut self,
        cmd: Command,
        ctx: &ShardCtx,
        cfg: &MarketConfig,
        acks: &mut Vec<(Reply, Response)>,
    ) {
        let Shard { state, book } = self;
        let routed = match &cmd {
            Command::Join { provider, .. }
            | Command::Leave { provider, .. }
            | Command::Update { provider, .. } => Some(*provider),
            _ => None,
        };
        let migration = matches!(
            cmd,
            Command::MigrateReserve { .. }
                | Command::MigrateGrant { .. }
                | Command::MigrateCommit { .. }
                | Command::MigrateAbort { .. }
        );
        if book.draining && !migration {
            return refuse(cmd);
        }
        // A client write whose provider the router moved to another shard
        // after the I/O thread picked this queue chases the owner. The
        // chase converges because ownership only changes when the new
        // owner actually processes work for the provider.
        if let Some(owner) = routed
            .map(|p| ctx.router.owner(p))
            .filter(|&k| k != ctx.index)
        {
            mec_obs::counter_add("serve.shard.route", 1);
            return send_peer(book, ctx, owner, cmd);
        }
        match cmd {
            Command::Join {
                provider,
                cloudlet,
                reply,
            } => {
                if let Some(ack) = handle_join(state, book, ctx, provider, cloudlet, 0, reply) {
                    ctx.gauges.add_writes(ctx.index, 1);
                    acks.push(ack);
                }
            }
            Command::Leave { provider, reply } => {
                ctx.gauges.add_writes(ctx.index, 1);
                acks.push((reply, handle_leave(state, book, provider)));
            }
            Command::Update {
                provider,
                compute,
                bandwidth,
                reply,
            } => {
                ctx.gauges.add_writes(ctx.index, 1);
                let resp = handle_update(state, book, provider, compute, bandwidth);
                acks.push((reply, resp));
            }
            Command::JoinForward {
                provider,
                cloudlet,
                compute,
                bandwidth,
                hop,
                reply,
            } => {
                if provider >= state.len() {
                    acks.push((reply, unknown_provider(provider)));
                    return;
                }
                let spec = state.market().provider(ProviderId(provider));
                let held = (
                    spec.compute_demand.to_bits(),
                    spec.bandwidth_demand.to_bits(),
                );
                if held != (compute.to_bits(), bandwidth.to_bits()) {
                    // The forwarder's demands are authoritative.
                    state.set_demand(ProviderId(provider), compute, bandwidth);
                    book.seq += 1;
                    book.equilibrium = false;
                }
                if let Some(ack) = handle_join(state, book, ctx, provider, cloudlet, hop, reply) {
                    ctx.gauges.add_writes(ctx.index, 1);
                    acks.push(ack);
                }
            }
            Command::MigrateReserve {
                provider,
                cloudlet,
                compute,
                bandwidth,
                from,
            } => {
                // Authoritative Eq. 4–5 admission on the target's own
                // thread; never granted while draining or while a
                // coordinated snapshot is between prepare and apply (a
                // commit admitted then could land behind the apply and
                // vanish from every slice).
                let granted = !book.paused
                    && !book.draining
                    && provider < state.len()
                    && ctx.owns_cloudlet(cloudlet)
                    && !book.active[provider]
                    && {
                        let (a, b) = free_at(state, book, CloudletId(cloudlet));
                        compute <= a + CAP_SLACK && bandwidth <= b + CAP_SLACK
                    };
                if granted {
                    book.reserve(Reservation {
                        provider,
                        cloudlet,
                        compute,
                        bandwidth,
                    });
                }
                send_peer(book, ctx, from, Command::MigrateGrant { provider, granted });
            }
            Command::MigrateGrant { provider, granted } => {
                handle_grant(state, book, ctx, provider, granted);
            }
            Command::MigrateCommit {
                provider,
                cloudlet,
                compute,
                bandwidth,
            } => {
                book.release(provider);
                if let Some(ix) = book.tombstones.iter().position(|p| *p == provider) {
                    // The client left while the handoff was in flight; we
                    // own an inactive remote provider.
                    book.tombstones.swap_remove(ix);
                } else if provider < state.len() && !book.active[provider] {
                    // The source's demands are authoritative. Capacity was
                    // reserved at grant time, but demands may have moved
                    // underneath the reservation: re-check, and fall back
                    // to remote (still active; maintenance quanta re-place
                    // it when capacity frees up).
                    let l = ProviderId(provider);
                    state.set_demand(l, compute, bandwidth);
                    let fits = ctx.owns_cloudlet(cloudlet)
                        && state
                            .market()
                            .fits(l, free_at(state, book, CloudletId(cloudlet)));
                    let to = fits.then_some(Placement::Cloudlet(CloudletId(cloudlet)));
                    state.apply_move(l, to.unwrap_or(Placement::Remote));
                    book.active[provider] = true;
                    book.seq += 1;
                    book.equilibrium = false;
                    ctx.gauges.add_writes(ctx.index, 1);
                }
            }
            Command::MigrateAbort { provider } => {
                book.release(provider);
                book.tombstones.retain(|p| *p != provider);
            }
            Command::Prepare { op } => {
                book.paused = true;
                if book.outgoing.is_some() {
                    // Ack only once the in-flight handoff has sent commit
                    // or abort — that FIFO-orders any commit ahead of the
                    // apply fan-out on the target.
                    book.parked_preps.push(op);
                } else {
                    complete_prepare(book, ctx, &op);
                }
            }
            Command::Apply { op } => {
                let applied = match op.kind {
                    CoordKind::Snapshot => snapshot_base(cfg)
                        .and_then(|base| write_shard_slice(state, book, ctx, base, op.epoch)),
                    CoordKind::Restore => load_my_slice(cfg, ctx).map(|snap| {
                        *state = GameState::owned(snap.market, snap.profile);
                        book.active = snap.active;
                        book.seq = snap.seq;
                        book.equilibrium = false;
                        book.cursor = 0;
                        book.clear_reserved(state.market().cloudlet_count());
                        book.tombstones.clear();
                        for (p, owned) in snap.shard.iter().flat_map(|m| m.owned.iter().enumerate())
                        {
                            if *owned {
                                ctx.router.set_owner(p, ctx.index);
                            }
                        }
                    }),
                };
                if let Err(msg) = applied {
                    op.push_error(msg);
                }
                op.fold_seq(book.seq);
                book.paused = false;
                acks.extend(complete_apply(&op, cfg));
            }
            Command::DrainAll { op } => {
                book.begin_drain(ctx);
                if op.ack() {
                    acks.extend(op.take_reply().map(|reply| (reply, Response::Draining)));
                }
            }
            Command::Shutdown { reply } => {
                // In-process drivers: drain this shard with the full
                // protocol, so in-flight migrations still resolve.
                book.begin_drain(ctx);
                acks.push((reply, Response::Draining));
            }
        }
    }
}

/// Runs a market as its own only shard ([`ShardCtx::solo`]) to
/// completion. `market`/`profile`/`active`/`seq` are the boot state
/// (possibly restored from a snapshot by the caller); the function
/// returns when a `shutdown` command drains it or every sender
/// disappears. A daemon runs `run_shard` once per region instead.
pub fn run_market(
    market: Market,
    profile: Profile,
    active: Vec<bool>,
    seq: u64,
    rx: &Receiver<Command>,
    view: &SharedView,
    cfg: &MarketConfig,
) -> MarketOutcome {
    let ctx = ShardCtx::solo(market.provider_count(), market.cloudlet_count());
    let shard = Shard::boot(market, profile, active, seq, view, &ctx);
    run_shard(shard, rx, view, cfg, &ctx)
}

/// Runs one shard's writer thread to completion: the batched serving loop,
/// cross-shard forwarding, two-phase migration, and the coordinated
/// snapshot/restore/drain protocol. `shard` comes from [`Shard::boot`]
/// over the same `view` and `ctx`.
pub(crate) fn run_shard(
    mut shard: Shard,
    rx: &Receiver<Command>,
    view: &SharedView,
    cfg: &MarketConfig,
    ctx: &ShardCtx,
) -> MarketOutcome {
    let mut batch: Vec<Command> = Vec::new();
    // Replies settled in the current batch, flushed only after the
    // covering view is published: a client that sees the reply must be
    // able to read its own write from the view (`query`/`stats` never
    // round-trip through this thread).
    let mut acks: Vec<(Reply, Response)> = Vec::new();
    while !shard.book.draining {
        drain_outbound(&mut shard.book, ctx);
        // Wait only at equilibrium; otherwise peek nonblockingly and spend
        // empty gaps on maintenance quanta. The writer never blocks
        // forever: peers hold its sender, so disconnection cannot signal
        // teardown — it wakes on an idle tick to rebalance and to notice
        // the I/O side died.
        let timeout = if shard.book.equilibrium {
            IDLE_TICK
        } else {
            Duration::ZERO
        };
        match rx.recv_batch(&mut batch, cfg.batch_max, Some(timeout)) {
            Ok((taken, depth)) => {
                mec_obs::record("serve.drain.batch", taken as u64);
                mec_obs::record("serve.drain.depth", depth as u64);
                mec_obs::gauge("serve.queue.depth", shard.book.seq, depth as f64);
                ctx.gauges.set_depth(ctx.index, depth);
            }
            Err(RecvTimeout::Timeout) => {
                let Shard { state, book } = &mut shard;
                if !book.equilibrium {
                    run_quantum(state, book, ctx, cfg.epoch_moves);
                    publish_timed(view, state, book, ctx);
                } else {
                    maybe_rebalance(state, book, ctx);
                }
                if ctx.io_gone() {
                    book.begin_drain(ctx);
                }
                continue;
            }
            // Every sender is gone: the driver is tearing down without a
            // drain command.
            Err(RecvTimeout::Disconnected) => {
                shard.book.begin_drain(ctx);
                continue;
            }
        }
        // One pass over the batch; one publish; acks after.
        for cmd in batch.drain(..) {
            shard.step(cmd, ctx, cfg, &mut acks);
        }
        publish_timed(view, &shard.state, &shard.book, ctx);
        flush_acks(&mut acks);
    }
    drain_and_finish(shard, cfg, ctx, rx)
}

fn flush_acks(acks: &mut Vec<(Reply, Response)>) {
    for (reply, resp) in acks.drain(..) {
        reply.send(resp);
    }
}

fn unknown_provider(provider: usize) -> Response {
    Response::Error {
        msg: format!("unknown provider {provider}"),
    }
}

/// Residual capacity at `i` net of migration reservations — the free
/// space admission and best responses are allowed to see.
fn free_at(state: &GameState<'_>, book: &Book, i: CloudletId) -> (f64, f64) {
    let (a, b) = state.residual(i);
    let (ha, hb) = book.held[i.index()];
    (a - ha, b - hb)
}

/// Enqueues a cross-shard command, never blocking: anything that does not
/// fit the peer queue right now waits in `book.outbound` (global FIFO, so
/// per-target ordering is preserved) and is retried every loop iteration.
fn send_peer(book: &mut Book, ctx: &ShardCtx, target: usize, cmd: Command) {
    book.outbound.push_back((target, cmd));
    drain_outbound(book, ctx);
}

fn drain_outbound(book: &mut Book, ctx: &ShardCtx) {
    while let Some((target, cmd)) = book.outbound.pop_front() {
        let Some(tx) = ctx.peers.get(target) else {
            // Solo context: no peers, nothing to deliver.
            continue;
        };
        match tx.try_send(cmd) {
            Ok(()) => {}
            Err(TrySendError::Full(cmd)) => {
                // Stop at the first full queue: draining past it could
                // reorder two sends to the same target.
                book.outbound.push_front((target, cmd));
                break;
            }
            // Peer thread already exited (teardown): drop the message.
            Err(TrySendError::Closed(_)) => {}
        }
    }
}

/// Hands a join (and the provider's ownership) to `target`.
#[allow(clippy::too_many_arguments)]
fn forward_join(
    state: &GameState<'_>,
    book: &mut Book,
    ctx: &ShardCtx,
    provider: usize,
    cloudlet: Option<usize>,
    hop: usize,
    reply: Reply,
    target: usize,
) {
    let spec = state.market().provider(ProviderId(provider));
    ctx.router.set_owner(provider, target);
    mec_obs::counter_add("serve.shard.route", 1);
    send_peer(
        book,
        ctx,
        target,
        Command::JoinForward {
            provider,
            cloudlet,
            compute: spec.compute_demand,
            bandwidth: spec.bandwidth_demand,
            hop,
            reply,
        },
    );
}

/// Settles the target's answer to this shard's outgoing reservation: on a
/// usable grant, release the provider locally, transfer ownership, and
/// commit on the target; otherwise (a draining shard included) abort any
/// reserved capacity.
fn handle_grant(
    state: &mut GameState<'_>,
    book: &mut Book,
    ctx: &ShardCtx,
    provider: usize,
    granted: bool,
) {
    let Some(out) = book.outgoing.take() else {
        return; // stale grant: nothing in flight
    };
    if out.provider != provider {
        book.outgoing = Some(out);
        return;
    }
    let usable = !book.draining
        && book.active.get(provider).copied().unwrap_or(false)
        && ctx.router.owner(provider) == ctx.index;
    if granted && usable {
        let l = ProviderId(provider);
        let spec = state.market().provider(l);
        let (compute, bandwidth) = (spec.compute_demand, spec.bandwidth_demand);
        state.apply_move(l, Placement::Remote);
        book.active[provider] = false;
        book.seq += 1;
        book.equilibrium = false;
        ctx.router.set_owner(provider, out.target);
        mec_obs::counter_add("serve.shard.migrate", 1);
        ctx.gauges.add_migrations(out.target, 1);
        send_peer(
            book,
            ctx,
            out.target,
            Command::MigrateCommit {
                provider,
                cloudlet: out.cloudlet,
                compute,
                bandwidth,
            },
        );
    } else if granted {
        send_peer(book, ctx, out.target, Command::MigrateAbort { provider });
    }
    resolve_parked(book, ctx);
}

/// Acks a prepare; the last shard to ack fans the apply out to everyone
/// (through its outbound, so per-target FIFO holds).
fn complete_prepare(book: &mut Book, ctx: &ShardCtx, op: &Arc<CoordOp>) {
    if op.ack_prepare() {
        for k in 0..ctx.shards {
            send_peer(book, ctx, k, Command::Apply { op: op.clone() });
        }
    }
}

/// Fires deferred prepare-acks once the outgoing handoff has resolved.
fn resolve_parked(book: &mut Book, ctx: &ShardCtx) {
    if book.outgoing.is_some() {
        return;
    }
    for op in std::mem::take(&mut book.parked_preps) {
        complete_prepare(book, ctx, &op);
    }
}

/// Acks an apply; the last shard returns the client's answer, carrying
/// the op's folded seq (the newest state any shard wrote or restored) —
/// and, for a clean snapshot, writes the manifest first (manifest last on
/// disk, so a crash leaves either the previous complete set or the new
/// one).
fn complete_apply(op: &Arc<CoordOp>, cfg: &MarketConfig) -> Option<(Reply, Response)> {
    if !op.ack_apply() {
        return None;
    }
    let errors = op.take_errors();
    let reply = op.take_reply()?;
    let done = if !errors.is_empty() {
        Err(errors.join("; "))
    } else {
        match op.kind {
            CoordKind::Snapshot => snapshot_base(cfg).and_then(|base| {
                let set = Manifest {
                    epoch: op.epoch,
                    shards: op.shards,
                };
                write_manifest(base, &set).map_err(|e| format!("manifest write failed: {e}"))
            }),
            CoordKind::Restore => Ok(()),
        }
    };
    let resp = match (done, op.kind) {
        (Err(msg), _) => Response::Error { msg },
        (Ok(()), CoordKind::Snapshot) => Response::Snapshotted { seq: op.seq() },
        (Ok(()), CoordKind::Restore) => Response::Restored { seq: op.seq() },
    };
    Some((reply, resp))
}

/// The configured snapshot base path, or the error a snapshot or restore
/// answers without one.
fn snapshot_base(cfg: &MarketConfig) -> Result<&Path, String> {
    cfg.snapshot_path
        .as_deref()
        .ok_or_else(|| "daemon was started without --snapshot".to_string())
}

/// Writes this shard's slice of the epoch-`epoch` snapshot set at `base`.
fn write_shard_slice(
    state: &GameState<'_>,
    book: &Book,
    ctx: &ShardCtx,
    base: &Path,
    epoch: u64,
) -> Result<(), String> {
    let meta = ShardMeta {
        epoch,
        index: ctx.index,
        count: ctx.shards,
        owned: (0..state.len())
            .map(|p| ctx.router.owner(p) == ctx.index)
            .collect(),
    };
    save_snapshot_sharded(
        &shard_snapshot_path(base, epoch, ctx.index),
        book.seq,
        state.market(),
        state.profile(),
        &book.active,
        &meta,
    )
    .map_err(|e| format!("shard {} snapshot failed: {e}", ctx.index))
}

/// Loads this shard's slice of the newest manifest-complete snapshot set.
/// A plain whole-market snapshot (the format before snapshot sets) is a
/// valid slice for a shard whose region is the whole market.
fn load_my_slice(cfg: &MarketConfig, ctx: &ShardCtx) -> Result<mec_core::MarketSnapshot, String> {
    let base = snapshot_base(cfg)?;
    let text =
        std::fs::read_to_string(base).map_err(|e| format!("restore failed: {base:?}: {e}"))?;
    let Some(manifest) = parse_manifest(&text) else {
        if ctx.has_peer_region() {
            return Err("snapshot path holds no shard manifest".to_string());
        }
        return load_snapshot(base).map_err(|e| format!("restore failed: {e}"));
    };
    if manifest.shards != ctx.shards {
        return Err(format!(
            "snapshot set has {} shards, daemon runs {}; restart to re-partition",
            manifest.shards, ctx.shards
        ));
    }
    load_snapshot(&shard_snapshot_path(base, manifest.epoch, ctx.index))
        .map_err(|e| format!("shard {} restore failed: {e}", ctx.index))
}

/// Periodic cross-shard rebalance, piggybacked on idle housekeeping
/// ticks: find the owned active provider with the largest estimated gain
/// from moving into a peer region (advisory congestion/residuals read
/// from the peer's published view) and start a reserve→commit handoff.
/// At most one outgoing handoff is in flight per shard.
fn maybe_rebalance(state: &GameState<'_>, book: &mut Book, ctx: &ShardCtx) {
    if !ctx.has_peer_region() || book.paused || book.outgoing.is_some() {
        return;
    }
    book.ticks += 1;
    if !book.ticks.is_multiple_of(REBALANCE_TICKS) {
        return;
    }
    let views: Vec<Arc<MarketView>> = ctx.views.iter().map(|v| v.load()).collect();
    // One map load per pass: a concurrent admin reload swaps the Arc,
    // and this pass keeps targeting under the map it started with.
    let region_of = ctx.coord.region_map();
    let market = state.market();
    let mut best: Option<(usize, usize, f64)> = None;
    for l in market.providers() {
        let p = l.index();
        if !book.active[p] || ctx.router.owner(p) != ctx.index {
            continue;
        }
        let current = state.provider_cost(l);
        let spec = market.provider(l);
        for i in market.cloudlets() {
            let c = i.index();
            if ctx.owns_cloudlet(c) {
                continue;
            }
            let r = region_of.get(c).copied().unwrap_or(0);
            if r == ctx.index {
                // A reloaded map can point an unowned cloudlet back at
                // this shard; capacity ownership is fixed at boot, so a
                // handoff to ourselves could never be granted.
                continue;
            }
            let Some(v) = views.get(r) else {
                continue;
            };
            let (Some(&cong), Some(&(ra, rb))) = (v.congestion.get(c), v.residual.get(c)) else {
                continue;
            };
            if spec.compute_demand > ra + CAP_SLACK || spec.bandwidth_demand > rb + CAP_SLACK {
                continue;
            }
            let est = market.caching_cost(l, i, cong + 1);
            let gain = current - est;
            if est + IMPROVEMENT_TOL < current * (1.0 - MIGRATION_MARGIN)
                && best.is_none_or(|(_, _, g)| gain > g)
            {
                best = Some((p, c, gain));
            }
        }
    }
    let Some((provider, cloudlet, _)) = best else {
        return;
    };
    let spec = market.provider(ProviderId(provider));
    let target = region_of.get(cloudlet).copied().unwrap_or(0);
    book.outgoing = Some(Outgoing {
        provider,
        target,
        cloudlet,
    });
    mec_obs::record("serve.shard.rebalance.moves", 1);
    send_peer(
        book,
        ctx,
        target,
        Command::MigrateReserve {
            provider,
            cloudlet,
            compute: spec.compute_demand,
            bandwidth: spec.bandwidth_demand,
            from: ctx.index,
        },
    );
}

/// Admission control (Eq. 4–5 against the maintained residuals, net of
/// migration reservations): place at the requested cloudlet if it fits,
/// else — with no explicit request — at the cheapest fitting cloudlet of
/// this shard's region by Eq. 3. A pinned join for a foreign region is
/// handed to that region's shard; a generic join that does not fit here
/// tries the next shard, giving up after a full lap. Returns the ack to
/// send, or `None` when the join (and the provider's ownership) was
/// forwarded — the receiving shard answers.
fn handle_join(
    state: &mut GameState<'_>,
    book: &mut Book,
    ctx: &ShardCtx,
    provider: usize,
    cloudlet: Option<usize>,
    hop: usize,
    reply: Reply,
) -> Option<(Reply, Response)> {
    if provider >= state.len() {
        return Some((reply, unknown_provider(provider)));
    }
    let l = ProviderId(provider);
    if book.active[provider] {
        return Some((
            reply,
            Response::Error {
                msg: format!("provider {provider} already joined"),
            },
        ));
    }
    let market = state.market();
    if let Some(c) = cloudlet {
        if c >= market.cloudlet_count() {
            return Some((
                reply,
                Response::Error {
                    msg: format!("unknown cloudlet {c}"),
                },
            ));
        }
        if !ctx.owns_cloudlet(c) {
            let target = ctx.coord.region_of(c);
            // Under the boot map the owner is one direct hop away. After
            // an admin topology reload the map can disagree with the
            // boot-time ownership masks (capacity ownership never moves
            // at runtime): a map that points back at this shard, or a
            // forward chain that has done a full lap without finding the
            // mask owner, must reject cleanly instead of bouncing the
            // command between shards forever.
            if target == ctx.index || hop >= ctx.shards {
                mec_obs::counter_add("serve.join.rejected", 1);
                return Some((
                    reply,
                    Response::Rejected {
                        reason: format!(
                            "cloudlet {c} is not owned by any shard under the current \
                             region map (reload moved it off its boot owner; restart \
                             to re-partition)"
                        ),
                    },
                ));
            }
            forward_join(state, book, ctx, provider, cloudlet, hop + 1, reply, target);
            return None;
        }
    }
    let chosen = match cloudlet {
        Some(c) => {
            let i = CloudletId(c);
            market.fits(l, free_at(state, book, i)).then_some(i)
        }
        None => state.cheapest_fit(l, ctx.scope(&book.held)).map(|(i, _)| i),
    };
    match chosen {
        Some(i) => {
            state.apply_move(l, Placement::Cloudlet(i));
            book.active[provider] = true;
            book.seq += 1;
            book.equilibrium = false;
            mec_obs::counter_add("serve.join.admitted", 1);
            Some((
                reply,
                Response::Admitted {
                    cloudlet: i.index(),
                    cost: state.provider_cost(l),
                },
            ))
        }
        None => {
            if cloudlet.is_none() && hop + 1 < ctx.shards {
                let target = (ctx.index + 1) % ctx.shards;
                forward_join(state, book, ctx, provider, None, hop + 1, reply, target);
                return None;
            }
            mec_obs::counter_add("serve.join.rejected", 1);
            Some((
                reply,
                Response::Rejected {
                    reason: match cloudlet {
                        Some(c) => format!("cloudlet {c} lacks capacity for provider {provider}"),
                        None => format!("no cloudlet has capacity for provider {provider}"),
                    },
                },
            ))
        }
    }
}

fn handle_leave(state: &mut GameState<'_>, book: &mut Book, provider: usize) -> Response {
    if provider >= state.len() {
        return unknown_provider(provider);
    }
    if !book.active[provider] {
        // An incoming migration commit may be about to land (the client's
        // leave overtook it): honor the leave by tombstoning the handoff.
        if book.release(provider) {
            if !book.tombstones.contains(&provider) {
                book.tombstones.push(provider);
            }
            mec_obs::counter_add("serve.leave", 1);
            return Response::Left;
        }
        return Response::Error {
            msg: format!("provider {provider} is not joined"),
        };
    }
    state.apply_move(ProviderId(provider), Placement::Remote);
    book.active[provider] = false;
    book.seq += 1;
    book.equilibrium = false;
    mec_obs::counter_add("serve.leave", 1);
    Response::Left
}

/// `update`: replace the provider's demands in place; if the new demand
/// no longer fits its cloudlet, evict to the remote cloud (still active —
/// maintenance quanta will re-place it when capacity frees up).
fn handle_update(
    state: &mut GameState<'_>,
    book: &mut Book,
    provider: usize,
    compute: f64,
    bandwidth: f64,
) -> Response {
    if provider >= state.len() {
        return unknown_provider(provider);
    }
    if [compute, bandwidth]
        .iter()
        .any(|v| !v.is_finite() || *v < 0.0)
    {
        return Response::Error {
            msg: format!("demands must be finite and non-negative, got ({compute}, {bandwidth})"),
        };
    }
    let l = ProviderId(provider);
    state.set_demand(l, compute, bandwidth);
    book.seq += 1;
    book.equilibrium = false;
    let mut evicted = false;
    if let Placement::Cloudlet(i) = state.placement(l) {
        let (a, b) = state.residual(i);
        if a < -CAP_SLACK || b < -CAP_SLACK {
            state.apply_move(l, Placement::Remote);
            book.seq += 1;
            evicted = true;
        }
    }
    mec_obs::counter_add("serve.update", 1);
    if evicted {
        mec_obs::counter_add("serve.update.evicted", 1);
    }
    Response::Updated {
        cost: state.provider_cost(l),
        evicted,
    }
}

/// Folds the query counts the I/O side accumulated since the last
/// quantum into this shard's per-provider demand EWMAs. Counts for
/// providers owned by other shards are left in the tracker for their
/// owner's next fold; owned EWMAs decay toward zero through quiet
/// quanta (the same update with a zero count).
fn fold_demand(book: &mut Book, ctx: &ShardCtx) {
    if ctx.demand.is_empty() {
        return;
    }
    let n = book.demand_ewma.len().min(ctx.demand.len());
    for p in 0..n {
        if ctx.router.owner(p) != ctx.index {
            continue;
        }
        let count = ctx.demand.take(p) as f64;
        let e = &mut book.demand_ewma[p];
        *e = (1.0 - DEMAND_EWMA_ALPHA) * *e + DEMAND_EWMA_ALPHA * count;
    }
}

/// One bounded maintenance quantum: scan the providers **hottest first**
/// (by the demand EWMAs just folded from the I/O side; round-robin from
/// the saved cursor when no demand has ever been observed), applying
/// best responses of *active* providers until `max_moves` improvements
/// land or a full quiet sweep proves the active players are at
/// equilibrium. Demand biases only the order — every move is still an
/// exact best response, so the fixed points stay Nash equilibria; under
/// a bounded quantum the hot services simply get first claim on scarce
/// capacity. Bounding the moves is what makes maintenance preemptible —
/// the serving loop re-checks the queue after every quantum, so a
/// request burst waits for one quantum at most.
fn run_quantum(state: &mut GameState<'_>, book: &mut Book, ctx: &ShardCtx, max_moves: usize) {
    let n = state.len();
    book.epochs += 1;
    mec_obs::counter_add("serve.epoch", 1);
    fold_demand(book, ctx);
    let order = demand_order(n, &book.demand_ewma, book.cursor);
    let mut pos = 0usize;
    let mut applied = 0usize;
    let mut recached = 0u64;
    let mut quiet_streak = 0usize;
    while applied < max_moves && quiet_streak < n {
        let l = ProviderId(order[pos % n]);
        pos += 1;
        if !book.active[l.index()] || ctx.router.owner(l.index()) != ctx.index {
            quiet_streak += 1;
            continue;
        }
        let current = state.provider_cost(l);
        // Best response over this shard's region, with migration
        // reservations held back from the free space.
        let br = state.best_response_in(l, ctx.scope(&book.held));
        match br {
            Some((p, cost)) if p != state.placement(l) && cost < current - IMPROVEMENT_TOL => {
                state.apply_move(l, p);
                if matches!(p, Placement::Cloudlet(_)) {
                    recached += 1;
                }
                applied += 1;
                quiet_streak = 0;
            }
            _ => quiet_streak += 1,
        }
    }
    // Advance the fallback rotation exactly as the legacy per-step
    // cursor bump did: one examined provider per iteration.
    book.cursor = (book.cursor + pos) % n.max(1);
    mec_obs::record("serve.quantum.moves", applied as u64);
    if applied > 0 {
        book.moves += applied as u64;
        book.seq += 1;
        mec_obs::counter_add("serve.epoch.moves", applied as u64);
    }
    if recached > 0 {
        mec_obs::counter_add("serve.recache", recached);
    }
    // A full pass with no improving move is exactly the Nash condition
    // restricted to the active players (Lemma 3 terminates the dynamics).
    book.equilibrium = quiet_streak >= n;
}

fn publish(view: &SharedView, state: &GameState<'_>, book: &Book) {
    let market = state.market();
    let placements: Vec<Placement> = market.providers().map(|l| state.placement(l)).collect();
    let costs: Vec<f64> = market.providers().map(|l| state.provider_cost(l)).collect();
    let social_cost = state.subset_cost(market.providers().filter(|l| book.active[l.index()]));
    let congestion = state.congestion_counts().to_vec();
    // Peers read the residuals to estimate migrations: show them the free
    // space net of already-granted reservations so they never over-target.
    let residual: Vec<(f64, f64)> = market
        .cloudlets()
        .map(|i| free_at(state, book, i))
        .collect();
    let demands: Vec<(f64, f64)> = market
        .providers()
        .map(|l| {
            let spec = market.provider(l);
            (spec.compute_demand, spec.bandwidth_demand)
        })
        .collect();
    view.store(MarketView {
        seq: book.seq,
        placements,
        costs,
        active: book.active.clone(),
        social_cost,
        congestion,
        residual,
        demands,
        demand_ewma: book.demand_ewma.clone(),
        epochs: book.epochs,
        moves: book.moves,
        equilibrium: book.equilibrium,
    });
}

/// [`publish`], with the per-batch view-build latency recorded when the
/// probes are armed (`enabled()` is `const`, so the timer folds away in
/// no-op builds). Sharded daemons record per-shard probes
/// (`serve.publish.s<k>.ns`); `obsreport` folds them back together.
fn publish_timed(view: &SharedView, state: &GameState<'_>, book: &Book, ctx: &ShardCtx) {
    if mec_obs::enabled() {
        let t0 = std::time::Instant::now();
        publish(view, state, book);
        mec_obs::record(ctx.publish_probe, t0.elapsed().as_nanos() as u64);
    } else {
        publish(view, state, book);
    }
}

/// Folds every shard's published view (plus the shared gauges) into one
/// daemon-wide stats record: totals summed, equilibrium ANDed, and one
/// per-shard row appended per shard, at every shard count.
pub fn composite_stats(views: &[Arc<SharedView>], gauges: &ShardGauges) -> StatsReport {
    let mut st = StatsReport {
        seq: 0,
        providers: 0,
        active: 0,
        cached: 0,
        social_cost: 0.0,
        epochs: 0,
        moves: 0,
        equilibrium: true,
        shards: Vec::with_capacity(views.len()),
    };
    for (k, view) in views.iter().enumerate() {
        let v = view.load();
        st.seq += v.seq;
        st.providers = v.placements.len();
        st.active += v.active_count();
        st.cached += v.cached_count();
        st.social_cost += v.social_cost;
        st.epochs += v.epochs;
        st.moves += v.moves;
        st.equilibrium &= v.equilibrium;
        st.shards.push(crate::proto::ShardStat {
            seq: v.seq,
            depth: gauges.depth(k) as u64,
            writes: gauges.writes(k),
        });
    }
    st
}

/// Answers a command with the draining error (used for everything queued
/// behind a shutdown, and by I/O threads whose queue closed under them).
pub(crate) fn refuse(cmd: Command) {
    let draining = || Response::Error {
        msg: "daemon is draining".to_string(),
    };
    match cmd {
        Command::Join { reply, .. }
        | Command::Leave { reply, .. }
        | Command::Update { reply, .. }
        | Command::JoinForward { reply, .. } => reply.send(draining()),
        Command::Shutdown { reply } => reply.send(Response::Draining),
        // Cross-shard bookkeeping has no client waiting on it.
        Command::MigrateReserve { .. }
        | Command::MigrateGrant { .. }
        | Command::MigrateCommit { .. }
        | Command::MigrateAbort { .. } => {}
        // Coordinated ops: fail this shard's share of the barrier so the
        // last arriver answers the client with the drain error.
        Command::Prepare { op } => {
            op.push_error("daemon is draining".to_string());
            let _ = op.ack_prepare();
        }
        Command::Apply { op } => {
            op.push_error("daemon is draining".to_string());
            if op.ack_apply() {
                if let Some(reply) = op.take_reply() {
                    reply.send(draining());
                }
            }
        }
        Command::DrainAll { op } => {
            if op.ack() {
                if let Some(reply) = op.take_reply() {
                    reply.send(Response::Draining);
                }
            }
        }
    }
}

/// Coordinated drain of one shard already in drain mode: keep settling
/// migration traffic until every shard has quiesced, then run maintenance
/// quanta until the active players reach equilibrium, write this shard's
/// slice of the drain-epoch snapshot set (the last shard to finish writes
/// the manifest), and (with the `verify` feature) re-certify the
/// placement from first principles.
fn drain_and_finish(
    mut shard: Shard,
    cfg: &MarketConfig,
    ctx: &ShardCtx,
    rx: &Receiver<Command>,
) -> MarketOutcome {
    // A draining shard refuses client work outright, so no reply settled
    // here waits on a view.
    let mut acks = Vec::new();
    // Linger until every shard has quiesced, settling migration traffic
    // (reservation requests are refused, commits/aborts applied). This
    // shard arrives at the quiesce barrier once its own outgoing handoff
    // has resolved, and only after every reply it settled has gone out:
    // past the barrier a peer may finish and stop the I/O threads. The
    // deadline is a backstop against a wedged peer.
    let deadline = Instant::now() + DRAIN_LINGER_MAX;
    let mut quiesced = false;
    loop {
        drain_outbound(&mut shard.book, ctx);
        if !quiesced && shard.book.outgoing.is_none() {
            ctx.coord.arrive_quiesced();
            quiesced = true;
        }
        if (quiesced && ctx.coord.all_quiesced()) || Instant::now() >= deadline {
            break;
        }
        match rx.recv_timeout(Duration::from_millis(1)) {
            Ok(cmd) => shard.step(cmd, ctx, cfg, &mut acks),
            Err(RecvTimeout::Timeout) => {}
            Err(RecvTimeout::Disconnected) => break,
        }
        flush_acks(&mut acks);
    }
    drain_outbound(&mut shard.book, ctx);
    for cmd in rx.try_drain() {
        shard.step(cmd, ctx, cfg, &mut acks);
    }
    flush_acks(&mut acks);
    let Shard {
        mut state,
        mut book,
    } = shard;
    // Any reservation left now belongs to a handoff that died with its
    // source; drop them so the final equilibrium is unconstrained.
    book.clear_reserved(state.market().cloudlet_count());
    // Equilibrium is guaranteed to be reached: best-response dynamics on
    // the exact-potential game terminate (Lemma 3). The cap is a backstop
    // against a cost-model bug turning the drain into a hot loop.
    let mut guard = 0usize;
    while !book.equilibrium && guard < 100_000 {
        run_quantum(&mut state, &mut book, ctx, usize::MAX);
        guard += 1;
    }
    if let Some(path) = cfg.snapshot_path.as_deref() {
        // Failure here must not abort the drain; the error goes into the
        // outcome for the caller to report.
        let epoch = ctx.coord.drain_epoch();
        let wrote = write_shard_slice(&state, &book, ctx, path, epoch);
        if wrote.is_err() {
            ctx.coord.mark_drain_failed();
        }
        if ctx.coord.arrive_finished() && !ctx.coord.drain_failed() {
            if let Err(e) = write_manifest(
                path,
                &Manifest {
                    epoch,
                    shards: ctx.shards,
                },
            ) {
                return outcome(state, book, vec![format!("final manifest failed: {e}")]);
            }
        }
        if let Err(msg) = wrote {
            return outcome(state, book, vec![format!("final snapshot failed: {msg}")]);
        }
    }
    let violations = certify(&state, &book, ctx);
    outcome(state, book, violations)
}

fn outcome(state: GameState<'_>, book: Book, violations: Vec<String>) -> MarketOutcome {
    MarketOutcome {
        seq: book.seq,
        profile: state.into_profile(),
        active: book.active,
        epochs: book.epochs,
        moves: book.moves,
        equilibrium: book.equilibrium,
        violations,
    }
}

#[cfg(feature = "verify")]
fn certify(state: &GameState<'_>, book: &Book, ctx: &ShardCtx) -> Vec<String> {
    let market = state.market();
    let mut out: Vec<String> = Vec::new();
    out.extend(
        mec_core::check_capacity(market, state.profile())
            .into_iter()
            .map(|v| v.to_string()),
    );
    out.extend(
        mec_core::check_state(state, 1e-6)
            .into_iter()
            .map(|v| v.to_string()),
    );
    out.extend(certify_region_nash(state, book, ctx));
    out
}

/// Nash certification restricted to this shard's region. The shard's
/// market copy sees foreign cloudlets as empty (their load lives on other
/// shards), so a whole-market `check_nash` would report phantom improving
/// moves into them. Rebuild a sub-market of just the region's cloudlets,
/// re-index the owned placements into it, and certify that. A one-shard
/// region is the whole market, so there this certifies the whole game.
#[cfg(feature = "verify")]
fn certify_region_nash(state: &GameState<'_>, book: &Book, ctx: &ShardCtx) -> Vec<String> {
    let market = state.market();
    let keep: Vec<usize> = (0..market.cloudlet_count())
        .filter(|&c| ctx.owns_cloudlet(c))
        .collect();
    let mut local_of = vec![None; market.cloudlet_count()];
    for (j, &c) in keep.iter().enumerate() {
        local_of[c] = Some(j);
    }
    let mut b = Market::builder();
    for &c in &keep {
        b = b.cloudlet(market.cloudlet(CloudletId(c)).clone());
    }
    for l in market.providers() {
        b = b.provider(market.provider(l).clone());
    }
    let mut update_cost = Vec::with_capacity(market.provider_count() * keep.len());
    for l in market.providers() {
        for &c in &keep {
            update_cost.push(market.update_cost(l, CloudletId(c)));
        }
    }
    let sub = b.update_cost_matrix(update_cost).build();
    let mut violations = Vec::new();
    let mut placements = Vec::with_capacity(market.provider_count());
    let mut mask = vec![false; market.provider_count()];
    for l in market.providers() {
        let p = l.index();
        let owned = ctx.router.owner(p) == ctx.index;
        let place = match state.placement(l) {
            Placement::Cloudlet(i) if owned => match local_of[i.index()] {
                Some(j) => Placement::Cloudlet(CloudletId(j)),
                None => {
                    violations.push(format!(
                        "shard {}: owned provider {p} placed outside its region",
                        ctx.index
                    ));
                    Placement::Remote
                }
            },
            _ => Placement::Remote,
        };
        placements.push(place);
        mask[p] = owned && book.active[p];
    }
    let profile = Profile::new(placements);
    violations.extend(
        mec_core::check_nash(&sub, &profile, &mask, IMPROVEMENT_TOL)
            .into_iter()
            .map(|v| format!("shard {}: {v}", ctx.index)),
    );
    violations
}

#[cfg(not(feature = "verify"))]
fn certify(_state: &GameState<'_>, _book: &Book, _ctx: &ShardCtx) -> Vec<String> {
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chan;
    use mec_core::model::{CloudletSpec, ProviderSpec};

    fn tiny_market(providers: usize) -> Market {
        let mut b = Market::builder()
            .cloudlet(CloudletSpec::new(4.0, 20.0, 0.5, 0.5))
            .cloudlet(CloudletSpec::new(4.0, 20.0, 0.3, 0.2));
        for _ in 0..providers {
            b = b.provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0));
        }
        b.uniform_update_cost(0.2).build()
    }

    /// Drives a solo writer synchronously: every command is enqueued
    /// before the thread starts, followed by a shutdown whose reply comes
    /// back with the outcome.
    fn drive(market: Market, cmds: Vec<Command>) -> (Option<Response>, MarketOutcome) {
        let ctx = ShardCtx::solo(market.provider_count(), market.cloudlet_count());
        drive_with(market, cmds, &ctx)
    }

    fn drive_with(
        market: Market,
        cmds: Vec<Command>,
        ctx: &ShardCtx,
    ) -> (Option<Response>, MarketOutcome) {
        let n = market.provider_count();
        let (tx, rx) = chan::bounded(cmds.len() + 1);
        for cmd in cmds {
            tx.send(cmd).map_err(|_| ()).unwrap();
        }
        let (sd_tx, sd_rx) = chan::oneshot();
        tx.send(Command::Shutdown {
            reply: sd_tx.into(),
        })
        .map_err(|_| ())
        .unwrap();
        drop(tx);
        let view = SharedView::new(MarketView::empty(n));
        let cfg = MarketConfig::default();
        let outcome = run_shard(fresh(market, &view, ctx), &rx, &view, &cfg, ctx);
        (sd_rx.recv(), outcome)
    }

    /// A shard booted with every provider remote and inactive.
    fn fresh(market: Market, view: &SharedView, ctx: &ShardCtx) -> Shard {
        let n = market.provider_count();
        Shard::boot(market, Profile::all_remote(n), vec![false; n], 0, view, ctx)
    }

    fn join(provider: usize) -> (Command, chan::OneReceiver<Response>) {
        let (tx, rx) = chan::oneshot();
        (
            Command::Join {
                provider,
                cloudlet: None,
                reply: tx.into(),
            },
            rx,
        )
    }

    /// A demand update whose reply nobody reads.
    fn update(provider: usize, compute: f64, bandwidth: f64) -> Command {
        let reply = chan::oneshot().0.into();
        Command::Update {
            provider,
            compute,
            bandwidth,
            reply,
        }
    }

    #[test]
    fn join_to_capacity_then_reject_then_leave_readmits() {
        // Each cloudlet fits exactly 2 of these providers (4.0 / 2.0).
        let (mut cmds, mut replies): (Vec<_>, Vec<_>) = (0..5).map(join).unzip();
        let (leave_tx, leave_rx) = chan::oneshot();
        cmds.push(Command::Leave {
            provider: 0,
            reply: leave_tx.into(),
        });
        let (rejoin, rejoin_rx) = join(4);
        cmds.push(rejoin);
        let (draining, outcome) = drive(tiny_market(5), cmds);

        let admitted = replies
            .drain(..4)
            .map(|r| matches!(r.recv(), Some(Response::Admitted { .. })))
            .filter(|x| *x)
            .count();
        assert_eq!(admitted, 4, "four providers fit two 2-slot cloudlets");
        assert!(matches!(
            replies.pop().unwrap().recv(),
            Some(Response::Rejected { .. })
        ));
        assert_eq!(leave_rx.recv(), Some(Response::Left));
        assert!(matches!(rejoin_rx.recv(), Some(Response::Admitted { .. })));
        assert_eq!(draining, Some(Response::Draining));
        assert_eq!(outcome.active.iter().filter(|a| **a).count(), 4);
        assert!(outcome.equilibrium);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    }

    /// The demand signal must change *which* provider wins scarce
    /// capacity. One cloudlet, two providers: grow both past capacity
    /// (evicting both), shrink both back to a size where exactly one
    /// fits, and let the drain's maintenance quanta re-cache one of
    /// them. With no observations the round-robin cursor picks provider
    /// 0; with provider 1 hot, hot-first must pick provider 1.
    #[test]
    fn observed_demand_biases_recaching_toward_hot_providers() {
        fn run(notes: &[(usize, u64)]) -> (Placement, Placement) {
            let market = Market::builder()
                .cloudlet(CloudletSpec::new(4.0, 20.0, 0.5, 0.5))
                .provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0))
                .provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0))
                .uniform_update_cost(0.2)
                .build();
            let demand = Arc::new(DemandTracker::new(2));
            for &(p, c) in notes {
                for _ in 0..c {
                    demand.note(p);
                }
            }
            let ctx = ShardCtx::solo(2, 1).with_demand(demand);
            let mut cmds: Vec<Command> = (0..2).map(|p| join(p).0).collect();
            // Grow past capacity (each eviction), then shrink to a size
            // where one — and only one — fits the cloudlet again.
            for &(compute, bandwidth) in &[(5.0, 8.0), (3.0, 8.0)] {
                cmds.extend((0..2).map(|p| update(p, compute, bandwidth)));
            }
            let (draining, outcome) = drive_with(market, cmds, &ctx);
            assert_eq!(draining, Some(Response::Draining));
            assert!(outcome.equilibrium);
            assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
            (
                outcome.profile.placement(ProviderId(0)),
                outcome.profile.placement(ProviderId(1)),
            )
        }

        let (p0, p1) = run(&[]);
        assert!(
            matches!(p0, Placement::Cloudlet(_)),
            "without demand the round-robin cursor re-caches provider 0, got {p0:?}/{p1:?}"
        );
        assert_eq!(p1, Placement::Remote);

        let (p0, p1) = run(&[(1, 50), (0, 2)]);
        assert_eq!(p0, Placement::Remote);
        assert!(
            matches!(p1, Placement::Cloudlet(_)),
            "hot provider 1 must win the slot under demand-driven ordering, got {p0:?}/{p1:?}"
        );
    }

    /// Space granted to an incoming migration is out of reach of every
    /// admission scan until the reservation goes away.
    #[test]
    fn held_back_space_is_never_admitted_into() {
        // Cloudlet 0 is the cheaper; each cloudlet fits one provider.
        let market = Market::builder()
            .cloudlet(CloudletSpec::new(2.0, 8.0, 0.1, 0.1))
            .cloudlet(CloudletSpec::new(2.0, 8.0, 1.0, 1.0))
            .provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0))
            .provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0))
            .provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0))
            .uniform_update_cost(0.2)
            .build();
        // Provider 0 takes the dear cloudlet, so the cheap one is the only
        // one with room; then it is reserved for provider 2's migration.
        let (pin_tx, pin_rx) = chan::oneshot();
        let pin = Command::Join {
            provider: 0,
            cloudlet: Some(1),
            reply: pin_tx.into(),
        };
        let reserve = Command::MigrateReserve {
            provider: 2,
            cloudlet: 0,
            compute: 2.0,
            bandwidth: 8.0,
            from: 0,
        };
        let (held_join, held_rx) = join(1);
        let abort = Command::MigrateAbort { provider: 2 };
        let (free_join, free_rx) = join(1);
        let (_, outcome) = drive(market, vec![pin, reserve, held_join, abort, free_join]);

        assert!(matches!(
            pin_rx.recv(),
            Some(Response::Admitted { cloudlet: 1, .. })
        ));
        assert!(
            matches!(held_rx.recv(), Some(Response::Rejected { .. })),
            "the only free space is held back"
        );
        assert!(
            matches!(free_rx.recv(), Some(Response::Admitted { cloudlet: 0, .. })),
            "the abort frees the cheap cloudlet"
        );
        assert_eq!(
            outcome.profile.placement(ProviderId(1)),
            Placement::Cloudlet(CloudletId(0))
        );
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    }

    #[test]
    fn double_join_and_unknown_ids_error() {
        let market = tiny_market(2);
        let (j0, r0) = join(0);
        let (j0_again, r0_again) = join(0);
        let (j_bad, r_bad) = join(99);
        let (draining, _outcome) = drive(market, vec![j0, j0_again, j_bad]);
        assert!(matches!(r0.recv(), Some(Response::Admitted { .. })));
        assert!(matches!(r0_again.recv(), Some(Response::Error { .. })));
        assert!(matches!(r_bad.recv(), Some(Response::Error { .. })));
        assert_eq!(draining, Some(Response::Draining));
    }

    #[test]
    fn update_evicts_when_demand_outgrows_cloudlet() {
        // One batch: join → update → join → leave, each settled in order
        // against the one state the update changed in place.
        let market = tiny_market(2);
        let (j, jr) = join(0);
        let (u_tx, u_rx) = chan::oneshot();
        let grow = Command::Update {
            provider: 0,
            compute: 100.0,
            bandwidth: 8.0,
            reply: u_tx.into(),
        };
        let (j1, r1) = join(1);
        let (l_tx, l_rx) = chan::oneshot();
        let leave = Command::Leave {
            provider: 1,
            reply: l_tx.into(),
        };
        let (_, outcome) = drive(market, vec![j, grow, j1, leave]);
        assert!(matches!(jr.recv(), Some(Response::Admitted { .. })));
        match u_rx.recv() {
            Some(Response::Updated { evicted, .. }) => assert!(evicted),
            other => panic!("expected Updated, got {other:?}"),
        }
        assert!(matches!(r1.recv(), Some(Response::Admitted { .. })));
        assert_eq!(l_rx.recv(), Some(Response::Left));
        // Still active, parked remotely; no cloudlet fits 100 compute.
        assert!(outcome.active[0] && !outcome.active[1]);
        assert_eq!(outcome.profile.placement(ProviderId(0)), Placement::Remote);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    }

    #[test]
    fn drain_reaches_equilibrium_of_active_players() {
        // Asymmetric cloudlets: join picks greedily, the drain quanta then
        // settle any provider that could improve.
        let mut b = Market::builder()
            .cloudlet(CloudletSpec::new(10.0, 50.0, 1.5, 1.5))
            .cloudlet(CloudletSpec::new(10.0, 50.0, 0.1, 0.1));
        for _ in 0..6 {
            b = b.provider(ProviderSpec::new(1.0, 4.0, 0.5, 40.0));
        }
        let market = b.uniform_update_cost(0.1).build();
        let mut cmds = Vec::new();
        let mut joins = Vec::new();
        for p in 0..6 {
            let (c, r) = join(p);
            cmds.push(c);
            joins.push(r);
        }
        let (_, outcome) = drive(market, cmds);
        for r in joins {
            assert!(matches!(r.recv(), Some(Response::Admitted { .. })));
        }
        assert!(outcome.equilibrium);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    }

    /// A provider's demands as a shard's market copy holds them.
    fn demands_at(shard: &Shard, provider: usize) -> (f64, f64) {
        let spec = shard.state.market().provider(ProviderId(provider));
        (spec.compute_demand, spec.bandwidth_demand)
    }

    /// A migration commit handled in drain mode places the provider with
    /// the demands the commit carries (the source's, which are
    /// authoritative), not with this shard's stale copy.
    #[test]
    fn drain_mode_commit_adopts_the_commit_demands() {
        let (ctx, cfg) = (ShardCtx::solo(2, 2), MarketConfig::default());
        let view = SharedView::new(MarketView::empty(2));
        let mut shard = fresh(tiny_market(2), &view, &ctx);
        let reply = chan::oneshot().0.into();
        shard.step(Command::Shutdown { reply }, &ctx, &cfg, &mut Vec::new());
        // Past the quiesce barrier a peer may finish and stop the I/O
        // threads, so a shard arrives there only once its replies are out.
        assert!(!ctx.coord.all_quiesced());
        let (compute, bandwidth) = (1.5, 6.0);
        let commit = Command::MigrateCommit {
            provider: 1,
            cloudlet: 0,
            compute,
            bandwidth,
        };
        shard.step(commit, &ctx, &cfg, &mut Vec::new());
        assert!(shard.book.draining && shard.book.active[1]);
        assert_eq!(demands_at(&shard, 1), (compute, bandwidth));
        assert_eq!(shard.state.load(CloudletId(0)), (compute, bandwidth));
    }

    /// Two shards stepped by hand, peer messages shuttled in a fixed
    /// order: a reserve→grant→commit handoff, a leave that overtakes its
    /// commit (tombstone), and a commit that lands while the target
    /// drains. No provider is lost or doubled, and the owning shard holds
    /// each provider's latest demands.
    #[test]
    fn two_shard_handoffs_keep_providers_and_demands() {
        // Cloudlet 0 (shard 0) is dear, cloudlet 1 (shard 1) cheap, so
        // shard 0's rebalance hands its providers to shard 1. Providers
        // home to shard `p % 2`.
        let mut b = Market::builder()
            .cloudlet(CloudletSpec::new(4.0, 20.0, 1.0, 1.0))
            .cloudlet(CloudletSpec::new(4.0, 20.0, 0.1, 0.1));
        for _ in 0..6 {
            b = b.provider(ProviderSpec::new(1.0, 4.0, 1.0, 30.0));
        }
        let market = b.uniform_update_cost(0.2).build();
        let mut wiring = crate::server::Plumbing::new(6, vec![0, 1], 0, 64, 1);
        let rxs = std::mem::take(&mut wiring.rxs);
        let ctxs: Vec<_> = (0..2).map(|k| wiring.ctx(k)).collect();
        let (views, cfg) = (&wiring.views, MarketConfig::default());
        let mut shards: Vec<_> = (0..2)
            .map(|k| fresh(market.clone(), &views[k], &ctxs[k]))
            .collect();
        // Steps `cmd` on shard `k`, then publishes and acks as a serving
        // batch ends.
        let step = |shards: &mut [Shard], k: usize, cmd: Command| {
            let mut acks = Vec::new();
            shards[k].step(cmd, &ctxs[k], &cfg, &mut acks);
            publish(&views[k], &shards[k].state, &shards[k].book);
            flush_acks(&mut acks);
        };
        // Provider `p` joins shard 0 (at its only cloudlet), takes new
        // demands there, and is handed to shard 1 (reserve → grant), its
        // commit left queued at shard 1.
        let handoff = |shards: &mut [Shard], p: usize, (compute, bandwidth): (f64, f64)| {
            step(shards, 0, join(p).0);
            step(shards, 0, update(p, compute, bandwidth));
            let Shard { state, book } = &mut shards[0];
            (0..REBALANCE_TICKS).for_each(|_| maybe_rebalance(state, book, &ctxs[0]));
            for k in [1, 0] {
                for cmd in rxs[k].try_drain() {
                    step(shards, k, cmd);
                }
            }
            assert_eq!(wiring.router.owner(p), 1, "provider {p} handed over");
        };
        let deliver_commit = |shards: &mut [Shard]| {
            let queued = rxs[1].try_drain();
            assert!(matches!(queued[..], [Command::MigrateCommit { .. }]));
            queued.into_iter().for_each(|cmd| step(shards, 1, cmd));
        };

        handoff(&mut shards, 0, (2.0, 8.0));
        deliver_commit(&mut shards);
        let at_1 = Placement::Cloudlet(CloudletId(1));
        assert_eq!(shards[1].state.placement(ProviderId(0)), at_1);
        // The client's leave, routed to the new owner, overtakes the commit.
        handoff(&mut shards, 2, (1.0, 4.0));
        let (tx, rx) = chan::oneshot();
        let reply = tx.into();
        step(&mut shards, 1, Command::Leave { provider: 2, reply });
        assert_eq!(rx.recv(), Some(Response::Left));
        deliver_commit(&mut shards);
        assert!(shards[1].book.tombstones.is_empty());
        // The commit lands once shard 1 has begun to drain.
        handoff(&mut shards, 4, (0.5, 2.0));
        let op = Arc::new(DrainOp::new(2, chan::oneshot().0.into()));
        step(&mut shards, 1, Command::DrainAll { op });
        deliver_commit(&mut shards);
        assert_eq!(shards[1].state.placement(ProviderId(4)), at_1);

        // Exactly providers 0 and 4 are active, on shard 1 alone, which
        // holds their latest demands.
        for p in 0..6 {
            let holders: Vec<usize> = (0..2).filter(|&k| shards[k].book.active[p]).collect();
            let want = if p % 4 == 0 { vec![1] } else { vec![] };
            assert_eq!(holders, want, "provider {p}");
        }
        assert_eq!(demands_at(&shards[1], 0), (2.0, 8.0));
        assert_eq!(demands_at(&shards[1], 4), (0.5, 2.0));
        assert!(shards.iter().all(|s| s.state.agrees_with_recompute(1e-9)));
    }
}
