//! `flash-open`: the daemon (`mec_serve::serve`, two shards on the
//! topology's spatial regions) booted in-process on a GT-ITM market and
//! driven open-loop over TCP by a seeded `mec-scenario` flash-crowd
//! trace.
//!
//! Every epoch of the trace becomes leaves for services that went cold,
//! joins for services that went warm, then the epoch's Zipf queries;
//! service `k` is provider `k`. The requests are laid on a fixed send
//! schedule (a warm-up, the nominal rate, and on the last of several
//! rounds a ramp of higher rates), and each request's latency is timed
//! from its intended send time, so a stall is charged to every request
//! it delays. Load comes from two threads over at most `nproc`
//! connections: one generator (sends on schedule) and one reader (times
//! replies).
//!
//! A provider's membership writes are ordered by their replies. A leave
//! waits for its join's reply: a client does not leave before it knows it
//! got in, and a rejected join leaves nothing to leave. A rejoin waits for
//! its leave's reply: the protocol orders replies on a connection, and
//! makes a write visible only once it is acknowledged, but it does not
//! order the effects of writes pipelined before an acknowledgement (a
//! sharded daemon may apply them on different shards). A held request is
//! still timed from when it was due.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use mec_core::model::Market;
use mec_scenario::{FlashCrowd, Trace, TraceConfig};
use mec_serve::proto::{self, FrameDecoder, Request, Response, StatsReport};
use mec_serve::{serve, Client, ServerConfig, ServerHandle};
use mec_workload::{gtitm_scenario, Params};
use polling::{poll, PollFd, POLLIN};

use crate::cert::{certify, Certificate};
use crate::report::{nproc, percentile_sorted, Metric, Outcome};
use crate::spans::Tracer;
use crate::Args;

/// A fixed deployment (market seed 1); the seed chooses the traces.
const PROVIDERS: usize = 800;
const NET_SIZE: usize = 400;
const MARKET_SEED: u64 = 1;
const SHARDS: usize = 2;
/// Mean queries per trace epoch.
const QUERIES_PER_EPOCH: usize = 2000;
/// Offered request rates (requests/s). The first is the nominal rate,
/// whose latencies are the headline numbers; the rest form the ramp of
/// the SLO search, whose top lies past the daemon's knee on a 2-core x86
/// host, so `slo_rps` is bracketed.
const RATES: [f64; 5] = [16_000.0, 64_000.0, 128_000.0, 256_000.0, 384_000.0];
/// Rounds per run. Each boots a fresh daemon and replays its own trace
/// derived from the seed, so one unlucky boot (thread placement, a stall
/// of a shared host) or one trace moves one round; the headline numbers
/// are medians over rounds.
const ROUNDS: usize = 7;
/// Shares of the run's seconds: each round's warm-up and nominal step,
/// and each ramp step (ramp on the last round only).
const WARMUP_SHARE: f64 = 0.02;
const NOMINAL_SHARE: f64 = 0.09;
const RAMP_SHARE: f64 = 0.0575;
/// Query p99 limit for `slo_rps`.
const QUERY_P99_LIMIT_US: f64 = 20_000.0;
/// Idle time after each step, for its backlog to drain and stats to be
/// read before the next rate starts.
const STEP_GAP: Duration = Duration::from_millis(200);
/// One request (and one socket call) in this many records spans: the
/// self-time means stay unbiased and the span file stays tens of MB.
const SPAN_SAMPLE: u64 = 64;
/// How long the reader waits for the oldest outstanding reply before it
/// fails the run (a lost reply would otherwise hang it).
const REPLY_MAX: Duration = Duration::from_secs(10);
/// How long the daemon may take to drain after `shutdown`.
const DRAIN_MAX: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Join,
    Leave,
    Query,
    /// The daemon's counters, read in the gap after each step.
    Stats,
}

/// One scheduled request.
#[derive(Clone, Copy)]
struct Planned {
    /// Global index, the request's span id.
    id: u64,
    kind: Kind,
    provider: usize,
    /// Index into the round's layout: 0 is the warm-up, `k + 1` is
    /// `RATES[k]`.
    step: usize,
    /// Intended send time, from the start of the schedule.
    due: Duration,
}

/// One segment of the send schedule.
#[derive(Clone, Copy)]
struct Step {
    rate: f64,
    /// Start, from the start of the schedule, and length, in seconds.
    start: f64,
    secs: f64,
}

/// A round's steps: the warm-up and the nominal rate, then (on the
/// last round) the ramp; each followed by a gap.
fn layout(seconds: u64, ramp: bool) -> Vec<Step> {
    let s = seconds as f64;
    let mut shares = vec![(RATES[0], WARMUP_SHARE), (RATES[0], NOMINAL_SHARE)];
    if ramp {
        shares.extend(RATES[1..].iter().map(|&r| (r, RAMP_SHARE)));
    }
    let mut start = 0.0;
    shares
        .into_iter()
        .map(|(rate, share)| {
            let st = Step {
                rate,
                start,
                secs: share * s,
            };
            start += st.secs + STEP_GAP.as_secs_f64();
            st
        })
        .collect()
}

/// A membership write's outcome, sent from the reader back to the
/// generator.
enum Learnt {
    Admitted(usize),
    Rejected(usize),
    Left(usize),
}

#[derive(Default, Clone)]
struct StepStats {
    sent: u64,
    ok: u64,
    failed: u64,
    rejected: u64,
    /// Leaves not sent because their join was rejected.
    skipped: u64,
    /// Generator lateness, ns.
    late_ns: Vec<u64>,
    /// `(due offset into the step, latency)`, both ns.
    query_ns: Vec<(u64, u64)>,
    write_ns: Vec<(u64, u64)>,
    hits: u64,
    queries: u64,
}

impl StepStats {
    fn merge(&mut self, o: StepStats) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.failed += o.failed;
        self.rejected += o.rejected;
        self.skipped += o.skipped;
        self.late_ns.extend(o.late_ns);
        self.query_ns.extend(o.query_ns);
        self.write_ns.extend(o.write_ns);
        self.hits += o.hits;
        self.queries += o.queries;
    }
}

/// Client-side protocol and socket counters of one connection.
#[derive(Default)]
struct WireStats {
    encode_ns: u64,
    decode_ns: u64,
    bytes: u64,
    write_calls: u64,
    read_wait_ns: u64,
    replies: u64,
    recaches: u64,
    errors: Vec<String>,
}

impl WireStats {
    fn merge(&mut self, o: WireStats) {
        self.encode_ns += o.encode_ns;
        self.decode_ns += o.decode_ns;
        self.bytes += o.bytes;
        self.write_calls += o.write_calls;
        self.read_wait_ns += o.read_wait_ns;
        self.replies += o.replies;
        self.recaches += o.recaches;
        self.errors.extend(o.errors);
    }
}

struct Setup {
    market: Market,
    regions: Vec<usize>,
    trace: Trace,
}

fn make_setup(seed: u64, total: usize, tr: &mut Tracer, rep: u64) -> (Setup, f64, f64) {
    let t = Instant::now();
    let sc = tr.time("topology.gen", None, rep, || {
        gtitm_scenario(
            NET_SIZE,
            &Params::paper().with_providers(PROVIDERS),
            MARKET_SEED,
        )
    });
    let regions = sc.net.regions(SHARDS);
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    // Enough epochs for the whole schedule; the surge covers the middle
    // third, so it lands in the middle rate steps.
    let epochs = total / QUERIES_PER_EPOCH + 2;
    let trace = tr.time("scenario.trace_gen", None, rep, || {
        TraceConfig::new("flash_crowd", PROVIDERS, epochs, QUERIES_PER_EPOCH, seed)
            .with_flash(FlashCrowd {
                start: epochs / 3,
                duration: (epochs / 3).max(1),
                targets: 5,
                boost: 50.0,
            })
            .generate()
    });
    let trace_s = t.elapsed().as_secs_f64();
    (
        Setup {
            market: sc.generated.market,
            regions,
            trace,
        },
        gen_s,
        trace_s,
    )
}

fn boot(s: &Setup, tr: &mut Tracer, rep: u64) -> std::io::Result<(ServerHandle, f64)> {
    let t = Instant::now();
    let h = tr.time("serve.boot", None, rep, || {
        serve(
            s.market.clone(),
            &ServerConfig {
                shards: SHARDS,
                regions: Some(s.regions.clone()),
                ..ServerConfig::default()
            },
        )
    })?;
    Ok((h, t.elapsed().as_secs_f64()))
}

/// Shuts the daemon down and waits (bounded) for its merged outcome.
fn drain(addr: std::net::SocketAddr, h: ServerHandle) -> Result<mec_serve::MarketOutcome, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect for shutdown: {e}"))?;
    match c.shutdown() {
        Ok(Response::Draining) => {}
        other => return Err(format!("shutdown answered {other:?}")),
    }
    drop(c);
    let (tx, rx) = mpsc::channel();
    // The daemon's join blocks; bound it so a drain that never finishes
    // fails the run instead of hanging it. A wedged joiner dies with the
    // process, which then exits non-zero.
    // lint: allow(thread-spawn)
    std::thread::spawn(move || {
        let _ = tx.send(h.join());
    });
    rx.recv_timeout(DRAIN_MAX)
        .map_err(|_| format!("daemon did not drain within {DRAIN_MAX:?}"))
}

/// Lays the trace out as requests on the stepped-rate schedule.
fn schedule(trace: &Trace, steps: &[Step], id_base: u64) -> Vec<Planned> {
    let mut ops: Vec<(Kind, usize)> = Vec::new();
    let mut joined = vec![false; trace.services];
    for e in 0..trace.epoch_count() {
        let counts = trace.counts(e);
        for (s, &c) in counts.iter().enumerate() {
            if c == 0 && joined[s] {
                joined[s] = false;
                ops.push((Kind::Leave, s));
            }
        }
        for (s, &c) in counts.iter().enumerate() {
            if c > 0 && !joined[s] {
                joined[s] = true;
                ops.push((Kind::Join, s));
            }
        }
        ops.extend(
            trace
                .requests_in(e)
                .iter()
                .map(|&s| (Kind::Query, s as usize)),
        );
    }
    let mut out = Vec::new();
    let mut it = ops.into_iter();
    for (step, st) in steps.iter().enumerate() {
        let count = (st.rate * st.secs) as usize;
        for (i, (kind, provider)) in it.by_ref().take(count).enumerate() {
            out.push(Planned {
                id: id_base + out.len() as u64,
                kind,
                provider,
                step,
                due: Duration::from_secs_f64(st.start + i as f64 / st.rate),
            });
        }
        out.push(Planned {
            id: id_base + out.len() as u64,
            kind: Kind::Stats,
            provider: 0,
            step,
            due: Duration::from_secs_f64(st.start + st.secs) + STEP_GAP / 2,
        });
    }
    out
}

/// How many connections ("lanes") the load uses: at most `nproc`, with
/// queries and writes on separate connections (independent users; a
/// query does not wait behind someone else's write). One core: one lane.
fn lane_count(nproc: usize) -> usize {
    nproc.max(1)
}

/// The lane of a request: each kind is split by provider, so one
/// provider's writes stay in order on one connection. Stats ride the
/// first query lane.
fn lane_of(p: &Planned, lanes: usize) -> usize {
    if lanes < 2 {
        return 0;
    }
    let qn = lanes / 2;
    match p.kind {
        Kind::Query | Kind::Stats => p.provider % qn,
        Kind::Join | Kind::Leave => qn + p.provider % (lanes - qn),
    }
}

/// Per-provider state the generator keeps to order each membership
/// write after the previous one's reply.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Member {
    Out,
    JoinSent,
    In,
    LeaveSent,
}

/// The load generator: one thread for every connection. It sends each
/// request when it is due, batching the requests due at one wake-up into
/// one write per connection. Every request is passed to the reader before
/// it is written, and a connection's replies come back in send order.
fn generator(
    mut socks: Vec<TcpStream>,
    plan: Vec<Planned>,
    nsteps: usize,
    start: Instant,
    to_reader: mpsc::Sender<(usize, Planned)>,
    learnt: mpsc::Receiver<Learnt>,
    mut tr: Tracer,
) -> (Vec<StepStats>, WireStats, Tracer) {
    let lanes = socks.len();
    let mut steps = vec![StepStats::default(); nsteps];
    let mut wire = WireStats::default();
    let mut member = vec![Member::Out; PROVIDERS];
    // Requests held back behind a join whose reply is not in yet, and
    // how many are held per provider (later requests queue behind them).
    let mut held: VecDeque<Planned> = VecDeque::new();
    let mut held_for = vec![0u32; PROVIDERS];
    let mut next = 0usize;
    let mut bufs: Vec<Vec<u8>> = vec![Vec::with_capacity(64 * 1024); lanes];
    let mut writes = 0u64;

    // Whether a due request goes out now, waits for the reply to its
    // provider's last membership write, or is dropped (a leave after a
    // rejected join).
    enum Verdict {
        Send,
        Hold,
        Skip,
    }
    let verdict = |p: &Planned, member: &[Member]| match (p.kind, member[p.provider]) {
        (Kind::Leave, Member::JoinSent) | (Kind::Join, Member::LeaveSent) => Verdict::Hold,
        (Kind::Leave, Member::Out) => Verdict::Skip,
        _ => Verdict::Send,
    };

    loop {
        loop {
            match learnt.try_recv() {
                Ok(Learnt::Admitted(p)) => member[p] = Member::In,
                Ok(Learnt::Rejected(p) | Learnt::Left(p)) => member[p] = Member::Out,
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    wire.errors.push("reader thread exited early".to_string());
                    return (steps, wire, tr);
                }
            }
        }
        let now = start.elapsed();
        let mut ready: Vec<(Planned, bool)> = Vec::new();
        // Held requests first, in order, while their provider is settled.
        let mut keep = VecDeque::new();
        let mut blocked = vec![];
        while let Some(p) = held.pop_front() {
            if blocked.contains(&p.provider) {
                keep.push_back(p);
                continue;
            }
            match verdict(&p, &member) {
                Verdict::Hold => {
                    blocked.push(p.provider);
                    keep.push_back(p);
                }
                v => {
                    held_for[p.provider] -= 1;
                    if matches!(v, Verdict::Skip) {
                        steps[p.step].skipped += 1;
                    } else {
                        ready.push((p, true));
                        apply_send(&p, &mut member);
                    }
                }
            }
        }
        held = keep;
        while next < plan.len() && plan[next].due <= now {
            let p = plan[next];
            next += 1;
            if held_for[p.provider] > 0 {
                held_for[p.provider] += 1;
                held.push_back(p);
                continue;
            }
            match verdict(&p, &member) {
                Verdict::Hold => {
                    held_for[p.provider] += 1;
                    held.push_back(p);
                }
                Verdict::Skip => steps[p.step].skipped += 1,
                Verdict::Send => {
                    ready.push((p, false));
                    apply_send(&p, &mut member);
                }
            }
        }
        for &(p, was_held) in &ready {
            let lane = lane_of(&p, lanes);
            let t = Instant::now();
            let req = match p.kind {
                Kind::Join => Request::Join {
                    provider: p.provider,
                    cloudlet: None,
                },
                Kind::Leave => Request::Leave {
                    provider: p.provider,
                },
                Kind::Query => Request::Query {
                    provider: p.provider,
                },
                Kind::Stats => Request::Stats,
            };
            proto::push_frame(&mut bufs[lane], &proto::encode_request(&req));
            let done = Instant::now();
            wire.encode_ns += (done - t).as_nanos() as u64;
            if p.id.is_multiple_of(SPAN_SAMPLE) {
                tr.record("proto.encode", t, done, None, p.id);
            }
            let st = &mut steps[p.step];
            st.sent += 1;
            if !was_held {
                st.late_ns.push(now.saturating_sub(p.due).as_nanos() as u64);
            }
            if to_reader.send((lane, p)).is_err() {
                wire.errors.push("reader thread exited early".to_string());
                return (steps, wire, tr);
            }
        }
        for (sock, buf) in socks.iter_mut().zip(&mut bufs) {
            if buf.is_empty() {
                continue;
            }
            let t = Instant::now();
            if let Err(e) = sock.write_all(buf) {
                wire.errors.push(format!("write: {e}"));
                return (steps, wire, tr);
            }
            if writes.is_multiple_of(SPAN_SAMPLE) {
                tr.record("client.write", t, Instant::now(), None, writes);
            }
            writes += 1;
            wire.write_calls += 1;
            wire.bytes += buf.len() as u64;
            buf.clear();
        }
        if next >= plan.len() && held.is_empty() {
            return (steps, wire, tr);
        }
        if let Some(p) = held.front() {
            if now.saturating_sub(p.due) > REPLY_MAX {
                wire.errors.push(format!(
                    "{:?} provider {} held {REPLY_MAX:?} for its last write's reply (member {:?})",
                    p.kind, p.provider, member[p.provider]
                ));
                return (steps, wire, tr);
            }
        }
        // Sleep to the next due time; poll faster while requests are held.
        let mut wait = plan.get(next).map_or(Duration::from_millis(1), |p| {
            p.due.saturating_sub(start.elapsed())
        });
        if !held.is_empty() {
            wait = wait.min(Duration::from_micros(200));
        }
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }
}

fn apply_send(p: &Planned, member: &mut [Member]) {
    match p.kind {
        Kind::Join => member[p.provider] = Member::JoinSent,
        Kind::Leave => member[p.provider] = Member::LeaveSent,
        Kind::Query | Kind::Stats => {}
    }
}

/// The reply reader: one thread for every connection, woken by `poll(2)`
/// as replies arrive. It times each reply from its request's due time and
/// checks that it answers the request.
#[allow(clippy::too_many_arguments)]
fn reader(
    mut socks: Vec<TcpStream>,
    start: Instant,
    from_gen: mpsc::Receiver<(usize, Planned)>,
    learnt: mpsc::Sender<Learnt>,
    gens: Arc<Vec<AtomicU32>>,
    layout: Vec<Step>,
    mut tr: Tracer,
) -> (Vec<StepStats>, WireStats, Vec<StatsReport>, Tracer) {
    let lanes = socks.len();
    let mut steps = vec![StepStats::default(); layout.len()];
    let mut stats = Vec::new();
    let mut wire = WireStats::default();
    let mut decs: Vec<FrameDecoder> = (0..lanes).map(|_| FrameDecoder::new()).collect();
    // Requests sent and not yet answered, per connection, in send order.
    let mut flight: Vec<VecDeque<Planned>> = vec![VecDeque::new(); lanes];
    let mut sent_all = false;
    let mut buf = vec![0u8; 64 * 1024];
    // Membership generation and cloudlet of each provider's last query
    // answer that found it cached.
    let mut seen: Vec<Option<(u32, usize)>> = vec![None; PROVIDERS];
    // Each provider's last membership answer, named in a failure report.
    let mut last_write: Vec<&'static str> = vec!["none"; PROVIDERS];
    let mut reads = 0u64;
    let mut progress = Instant::now();
    let mut fds: Vec<PollFd> = socks
        .iter()
        .map(|s| PollFd::new(s.as_raw_fd(), POLLIN))
        .collect();
    loop {
        loop {
            match from_gen.try_recv() {
                Ok((lane, p)) => flight[lane].push_back(p),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    sent_all = true;
                    break;
                }
            }
        }
        let waiting = flight.iter().any(|f| !f.is_empty());
        if sent_all && !waiting {
            return (steps, wire, stats, tr);
        }
        if !waiting {
            progress = Instant::now();
        } else if progress.elapsed() > REPLY_MAX {
            let oldest: Vec<String> = flight
                .iter()
                .filter_map(|f| f.front())
                .map(|p| format!("{:?} provider {} due {:?}", p.kind, p.provider, p.due))
                .collect();
            wire.errors.push(format!(
                "no reply for {REPLY_MAX:?} with {} requests outstanding; oldest: {}",
                flight.iter().map(VecDeque::len).sum::<usize>(),
                oldest.join(", ")
            ));
            return (steps, wire, stats, tr);
        }
        // A short timeout only to notice new requests and the end; a
        // reply wakes the poll at once.
        let t = Instant::now();
        if let Err(e) = poll(&mut fds, Some(Duration::from_millis(2))) {
            wire.errors.push(format!("poll: {e}"));
            return (steps, wire, stats, tr);
        }
        if waiting {
            wire.read_wait_ns += t.elapsed().as_nanos() as u64;
        }
        for lane in 0..lanes {
            if !fds[lane].readable() {
                continue;
            }
            let t = Instant::now();
            let n = match socks[lane].read(&mut buf) {
                Ok(0) => {
                    wire.errors.push("daemon closed the connection".to_string());
                    return (steps, wire, stats, tr);
                }
                Ok(n) => n,
                Err(e) => {
                    wire.errors.push(format!("read: {e}"));
                    return (steps, wire, stats, tr);
                }
            };
            let done = Instant::now();
            wire.read_wait_ns += (done - t).as_nanos() as u64;
            if reads.is_multiple_of(SPAN_SAMPLE) {
                tr.record("client.read", t, done, None, reads);
            }
            reads += 1;
            wire.bytes += n as u64;
            decs[lane].extend(&buf[..n]);
            loop {
                let t = Instant::now();
                let frame = match decs[lane].next_frame() {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(e) => {
                        wire.errors.push(format!("frame: {e}"));
                        return (steps, wire, stats, tr);
                    }
                };
                // The generator queues a request before writing it, so
                // its entry is in the channel if not yet in `flight`.
                while flight[lane].is_empty() {
                    match from_gen.recv() {
                        Ok((l, p)) => flight[l].push_back(p),
                        Err(_) => {
                            wire.errors.push("a reply without a request".to_string());
                            return (steps, wire, stats, tr);
                        }
                    }
                }
                let p = flight[lane].pop_front().expect("checked non-empty");
                progress = Instant::now();
                let resp = proto::parse_response(&frame);
                let got = Instant::now();
                wire.decode_ns += (got - t).as_nanos() as u64;
                let due = start + p.due;
                if p.id.is_multiple_of(SPAN_SAMPLE) {
                    tr.record("proto.decode", t, got, None, p.id);
                    tr.record("flash.request", due, got, None, p.id);
                }
                wire.replies += 1;
                let lat = got.saturating_duration_since(due).as_nanos() as u64;
                let off = (p.due.as_secs_f64() - layout[p.step].start).max(0.0);
                let sample = ((off * 1e9) as u64, lat);
                let st = &mut steps[p.step];
                let mut ok = true;
                match (p.kind, resp) {
                    (Kind::Query, Ok(Response::Placement { at, active, .. })) => {
                        st.queries += 1;
                        st.query_ns.push(sample);
                        if active && at.is_some() {
                            st.hits += 1;
                        }
                        // A cloudlet change within one membership (no join
                        // or leave reply in between, no inactive answer)
                        // is a re-cache by maintenance. Membership replies
                        // arrive on another connection, so a race of a few
                        // microseconds can miscount one.
                        let gen = gens[p.provider].load(Ordering::Relaxed);
                        match (active, at, seen[p.provider]) {
                            (false, _, _) => seen[p.provider] = None,
                            (true, Some(c), Some((g, c0))) if g == gen && c0 != c => {
                                wire.recaches += 1;
                                seen[p.provider] = Some((gen, c));
                            }
                            (true, Some(c), _) => seen[p.provider] = Some((gen, c)),
                            (true, None, _) => {}
                        }
                    }
                    (Kind::Join, Ok(Response::Admitted { .. })) => {
                        last_write[p.provider] = "admitted";
                        st.write_ns.push(sample);
                        gens[p.provider].fetch_add(1, Ordering::Relaxed);
                        let _ = learnt.send(Learnt::Admitted(p.provider));
                    }
                    (Kind::Join, Ok(Response::Rejected { .. })) => {
                        last_write[p.provider] = "rejected";
                        st.write_ns.push(sample);
                        st.rejected += 1;
                        let _ = learnt.send(Learnt::Rejected(p.provider));
                    }
                    (Kind::Stats, Ok(Response::Stats(report))) => stats.push(report),
                    (Kind::Leave, Ok(Response::Left)) => {
                        last_write[p.provider] = "left";
                        st.write_ns.push(sample);
                        gens[p.provider].fetch_add(1, Ordering::Relaxed);
                        let _ = learnt.send(Learnt::Left(p.provider));
                    }
                    (kind, other) => {
                        ok = false;
                        st.failed += 1;
                        match kind {
                            // Not admitted: nothing for a later leave to undo.
                            Kind::Join => {
                                let _ = learnt.send(Learnt::Rejected(p.provider));
                            }
                            // Settled either way: a later join may go.
                            Kind::Leave => {
                                let _ = learnt.send(Learnt::Left(p.provider));
                            }
                            Kind::Query | Kind::Stats => {}
                        }
                        if wire.errors.len() < 8 {
                            wire.errors.push(format!(
                                "{kind:?} provider {}: {other:?} (its last membership answer: {})",
                                p.provider, last_write[p.provider]
                            ));
                        }
                    }
                }
                if ok {
                    st.ok += 1;
                }
            }
        }
    }
}

/// Percentile `p` of nanosecond samples, in microseconds.
fn pct(v: &mut [u64], p: f64) -> f64 {
    v.sort_unstable();
    percentile_sorted(v, p) as f64 / 1e3
}

/// Percentile `p` (us) of the latencies of samples due in `[lo, hi)` ns
/// into their step, with the sample count.
fn pct_in(samples: &[(u64, u64)], lo: u64, hi: u64, p: f64) -> (f64, usize) {
    let mut v: Vec<u64> = samples
        .iter()
        .filter(|s| s.0 >= lo && s.0 < hi)
        .map(|s| s.1)
        .collect();
    (pct(&mut v, p), v.len())
}

/// What one round measured.
struct Round {
    steps: Vec<Step>,
    got: Vec<StepStats>,
    wire: WireStats,
    stats: Vec<StatsReport>,
    cert: Certificate,
    setup_s: f64,
    gen_s: f64,
    trace_s: f64,
    boot_s: f64,
}

/// Boots a daemon on the round's market, replays its trace open-loop,
/// drains it and certifies the merged outcome.
fn round(seed: u64, r: u64, steps: Vec<Step>, tr: &mut Tracer) -> Result<Round, String> {
    let total: usize = steps.iter().map(|s| (s.rate * s.secs) as usize).sum();
    let t = Instant::now();
    let (setup, gen_s, trace_s) = make_setup(seed, total, tr, r);
    let (handle, boot_s) = boot(&setup, tr, r).map_err(|e| format!("boot: {e}"))?;
    let setup_s = t.elapsed().as_secs_f64();
    let addr = handle.addr();
    let plan = schedule(&setup.trace, &steps, r << 40);

    let start = Instant::now() + Duration::from_millis(20);
    // Join/leave replies bump a provider's membership generation, which
    // the query readers use to tell a re-cache from a re-join.
    let gens: Arc<Vec<AtomicU32>> = Arc::new((0..PROVIDERS).map(|_| AtomicU32::new(0)).collect());
    let mut socks = Vec::new();
    for _ in 0..lane_count(nproc()) {
        let s = TcpStream::connect(addr)
            .and_then(|s| s.set_nodelay(true).map(|()| s))
            .map_err(|e| format!("connect: {e}"))?;
        socks.push(s);
    }
    let rsocks = socks
        .iter()
        .map(TcpStream::try_clone)
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("clone socket: {e}"))?;
    let (to_reader, from_gen) = mpsc::channel();
    let (learnt_tx, learnt_rx) = mpsc::channel();
    let (gtr, rtr) = (tr.fork(), tr.fork());
    let (lay, nsteps) = (steps.clone(), steps.len());
    let send = move || generator(socks, plan, nsteps, start, to_reader, learnt_rx, gtr);
    let read = move || reader(rsocks, start, from_gen, learnt_tx, gens, lay, rtr);
    // The two load threads, joined below.
    // lint: allow(thread-spawn)
    let g = std::thread::spawn(send);
    // lint: allow(thread-spawn)
    let rd = std::thread::spawn(read);
    let (gs, gw, gt) = g.join().expect("generator thread");
    let (rs, rw, stats, rt) = rd.join().expect("reader thread");
    let mut got = vec![StepStats::default(); steps.len()];
    for (k, (a, b)) in gs.into_iter().zip(rs).enumerate() {
        got[k].merge(a);
        got[k].merge(b);
    }
    let mut wire = gw;
    wire.merge(rw);
    tr.absorb(gt);
    tr.absorb(rt);
    tr.link_to_roots("flash.request");

    let t = Instant::now();
    let outcome = drain(addr, handle)?;
    tr.record("serve.drain", t, Instant::now(), None, r);
    let cert = tr.time("core.certify", None, r, || {
        certify(&setup.market, &outcome.profile, &outcome.active)
    });
    Ok(Round {
        steps,
        got,
        wire,
        stats,
        cert,
        setup_s,
        gen_s,
        trace_s,
        boot_s,
    })
}

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut rounds = Vec::new();
    for r in 0..ROUNDS as u64 {
        let steps = layout(args.seconds, r + 1 == ROUNDS as u64);
        let seed = args.seed.wrapping_mul(ROUNDS as u64).wrapping_add(r);
        match round(seed, r, steps, tr) {
            Ok(x) => rounds.push(x),
            Err(e) => {
                out.errors.push(format!("round {r}: {e}"));
                return out;
            }
        }
    }

    // Accounting and correctness.
    let mut wire = WireStats::default();
    for (r, x) in rounds.iter_mut().enumerate() {
        for e in std::mem::take(&mut x.wire.errors) {
            out.errors.push(format!("round {r}: protocol: {e}"));
        }
        let cv = x.cert.capacity_violations;
        out.check(cv == 0, || {
            format!("round {r}: {cv} capacity violations at drain")
        });
        let n = x.steps.len();
        out.check(x.stats.len() == n, || {
            format!("round {r}: {} of {n} stats reads answered", x.stats.len())
        });
        for (k, s) in x.got.iter().enumerate() {
            out.attempted += s.sent;
            out.failed += s.failed;
            out.check(s.sent == s.ok + s.failed, || {
                format!(
                    "round {r} step {k}: {} sent, {} answered",
                    s.sent,
                    s.ok + s.failed
                )
            });
        }
        wire.merge(std::mem::take(&mut x.wire));
    }
    let failed = out.failed;
    out.check(failed == 0, || format!("{failed} requests failed"));

    // Per-step tables; the nominal step of every round; the SLO search
    // over the last round's steps.
    let mut nominal = [vec![], vec![], vec![], vec![]];
    let mut late = Vec::new();
    let (mut nq, mut nw) = (0, 0);
    let (mut hits, mut queries) = (0u64, 0u64);
    let mut score = Vec::new();
    let mut passed = Vec::new();
    let last = rounds.len() - 1;
    for (r, x) in rounds.iter_mut().enumerate() {
        for (k, (s, st)) in x.got.iter_mut().zip(&x.steps).enumerate() {
            let end = (st.secs * 1e9) as u64;
            let (q50, n_q) = pct_in(&s.query_ns, 0, end, 50.0);
            let (q99, _) = pct_in(&s.query_ns, 0, end, 99.0);
            let (w50, n_w) = pct_in(&s.write_ns, 0, end, 50.0);
            let (w99, _) = pct_in(&s.write_ns, 0, end, 99.0);
            // A growing backlog shows as the step's last tenth waiting
            // longer than the limit even when the step's p99 is diluted
            // by its start.
            let (tail, _) = pct_in(&s.query_ns, end - end / 10, end, 50.0);
            let late_n = s.late_ns.len();
            let late99 = pct(&mut s.late_ns, 99.0);
            let ok = s.failed == 0 && q99.max(tail) <= QUERY_P99_LIMIT_US;
            if k > 0 {
                hits += s.hits;
                queries += s.queries;
            }
            if k == 1 {
                for (v, x) in nominal.iter_mut().zip([q50, q99, w50, w99]) {
                    v.push(x);
                }
                nq += n_q;
                nw += n_w;
                late.extend_from_slice(&s.late_ns);
            }
            if r == last && k > 0 {
                score.push(q99.max(tail));
                passed.push(ok);
            }
            let label = if k == 0 { "warm-up" } else { "step" };
            out.notes.push(format!(
                "round {r} {label:<7} {:>6} rps for {:.2} s: sent {} ok {} failed {} rejected {} \
                 skipped {} | query p50 {q50:.1} p99 {q99:.1} us (n={n_q}) last-tenth p50 \
                 {tail:.1} | write p50 {w50:.1} p99 {w99:.1} us (n={n_w}) | gen late p99 \
                 {late99:.1} us (n={late_n}){}",
                st.rate,
                st.secs,
                s.sent,
                s.ok,
                s.failed,
                s.rejected,
                s.skipped,
                if r == last && k > 0 {
                    format!(" | meets SLO {ok}")
                } else {
                    String::new()
                }
            ));
        }
    }
    let slo = slo_rps(&passed, &score);
    let [q50, q99, w50, w99] = nominal;
    let mean = |f: fn(&Certificate) -> f64| {
        rounds.iter().map(|x| f(&x.cert)).sum::<f64>() / rounds.len() as f64
    };
    let per_round = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();

    out.e2e
        .push(Metric::median_of("setup_s", "s", per_round(|x| x.setup_s)));
    // The workload's operation is a query, timed from its intended send
    // time at the nominal rate.
    out.e2e.push(Metric {
        samples: Some(nq),
        ..Metric::median_of("op_us", "us", q50)
    });
    out.e2e.push(Metric::new(
        "hit_rate",
        "ratio",
        hits as f64 / queries.max(1) as f64,
    ));
    out.e2e
        .push(Metric::new("social_cost", "cost", mean(|c| c.social_cost)));
    out.e2e.push(Metric::new(
        "admitted",
        "count",
        mean(|c| c.admitted as f64),
    ));

    // Tails, writes and the knee swing by a third or more from run to run
    // on a shared 2-vCPU host, beyond any bound a gate can use: reported
    // here, ungated.
    out.layer.push(Metric {
        samples: Some(nq),
        ..Metric::median_of("query_p99_us", "us", q99)
    });
    out.layer.push(Metric {
        samples: Some(nw),
        ..Metric::median_of("write_p50_us", "us", w50)
    });
    out.layer.push(Metric {
        samples: Some(nw),
        ..Metric::median_of("write_p99_us", "us", w99)
    });
    out.layer.push(Metric::new("slo_rps", "1/s", slo));
    let ops = wire.replies.max(1) as f64;
    out.layer.push(Metric::median_of(
        "topology.gen_s",
        "s",
        per_round(|x| x.gen_s),
    ));
    out.layer.push(Metric::median_of(
        "scenario.trace_gen_s",
        "s",
        per_round(|x| x.trace_s),
    ));
    out.layer.push(Metric::median_of(
        "serve.boot_s",
        "s",
        per_round(|x| x.boot_s),
    ));
    out.layer.push(Metric::new(
        "proto.encode_ns",
        "ns",
        wire.encode_ns as f64 / ops,
    ));
    out.layer.push(Metric::new(
        "proto.decode_ns",
        "ns",
        wire.decode_ns as f64 / ops,
    ));
    out.layer.push(Metric::new(
        "proto.bytes_per_op",
        "B",
        wire.bytes as f64 / ops,
    ));
    out.layer.push(Metric::new(
        "client.write_calls_per_op",
        "ratio",
        wire.write_calls as f64 / ops,
    ));
    out.layer.push(Metric::new(
        "client.read_wait_ns",
        "ns",
        wire.read_wait_ns as f64 / ops,
    ));
    let late_n = late.len();
    out.layer.push(Metric::pct(
        "gen.late_p99_us",
        "us",
        pct(&mut late, 99.0),
        late_n,
    ));
    let sum = |f: fn(&StepStats) -> u64| {
        rounds.iter().flat_map(|x| x.got.iter()).map(f).sum::<u64>() as f64
    };
    out.layer
        .push(Metric::new("gen.sent", "count", sum(|s| s.sent)));
    out.layer
        .push(Metric::new("gen.ok", "count", sum(|s| s.ok)));
    out.layer
        .push(Metric::new("gen.failed", "count", sum(|s| s.failed)));
    out.layer
        .push(Metric::new("gen.rejected", "count", sum(|s| s.rejected)));
    // The daemon's own counters, from the stats read after each step of
    // the last round (the one that runs the ramp).
    let stats = &rounds[last].stats;
    if let Some(s) = stats.last() {
        out.layer
            .push(Metric::new("serve.epochs", "count", s.epochs as f64));
        out.layer
            .push(Metric::new("serve.moves", "count", s.moves as f64));
        for k in 0..SHARDS {
            let w = s.shards.get(k).map_or(0, |x| x.writes);
            out.layer.push(Metric::new(
                format!("serve.shard_writes.{k}"),
                "count",
                w as f64,
            ));
        }
    }
    for k in 0..SHARDS {
        // Deepest queue a shard reported at any step boundary.
        let depth = stats
            .iter()
            .filter_map(|s| s.shards.get(k).map(|x| x.depth))
            .max()
            .unwrap_or(0);
        out.layer.push(Metric::new(
            format!("serve.queue_depth.{k}"),
            "count",
            depth as f64,
        ));
    }
    out.layer.push(Metric::new(
        "demand.recaches",
        "count",
        wire.recaches as f64,
    ));
    // The worst round: the defect is that any round can end off the
    // global equilibrium.
    let worst = |f: fn(&Round) -> f64| per_round(f).into_iter().fold(0.0, f64::max);
    out.layer
        .push(Metric::new("nash_gap", "ratio", worst(|x| x.cert.nash_gap)));
    out.layer.push(Metric::new(
        "nash.violators",
        "count",
        worst(|x| x.cert.violators as f64),
    ));
    out.layer.push(Metric::new(
        "capacity.violations",
        "count",
        rounds
            .iter()
            .map(|x| x.cert.capacity_violations)
            .sum::<usize>() as f64,
    ));
    for (k, s) in stats.iter().enumerate() {
        out.notes.push(format!(
            "round {last} stats after step {k}: seq {} active {} cached {} epochs {} moves {} \
             equilibrium {} shards (writes, depth) {:?}",
            s.seq,
            s.active,
            s.cached,
            s.epochs,
            s.moves,
            s.equilibrium,
            s.shards
                .iter()
                .map(|x| (x.writes, x.depth))
                .collect::<Vec<_>>()
        ));
    }
    for (r, x) in rounds.iter().enumerate() {
        out.notes.push(format!(
            "round {r} whole-market certificate at drain: {} of {} active providers have an \
             improving move, nash_gap {:.4}, social cost {:.2}, {} capacity violations",
            x.cert.violators,
            x.cert.admitted,
            x.cert.nash_gap,
            x.cert.social_cost,
            x.cert.capacity_violations
        ));
    }
    out.notes.push(format!(
        "flash-open: {ROUNDS} rounds of {PROVIDERS} providers on GT-ITM size {NET_SIZE}, \
         {SHARDS} shards, {} load connections (queries and writes apart); nominal {} rps; \
         SLO query p99 <= {QUERY_P99_LIMIT_US} us. A non-zero nash_gap is the known defect: \
         each shard certifies only its own region.",
        lane_count(nproc()),
        RATES[0]
    ));
    out
}

/// The highest offered rate meeting the SLO, interpolated (in log
/// latency) toward the first step that misses it.
fn slo_rps(passed: &[bool], score: &[f64]) -> f64 {
    let Some(f) = passed.iter().position(|&p| !p) else {
        return RATES[RATES.len() - 1];
    };
    if f == 0 {
        return RATES[0] * (QUERY_P99_LIMIT_US / score[0]).min(1.0);
    }
    let (lo, hi) = (score[f - 1].max(1.0), score[f].max(1.0));
    let frac = if hi > lo {
        ((QUERY_P99_LIMIT_US / lo).ln() / (hi / lo).ln()).clamp(0.0, 1.0)
    } else {
        0.0
    };
    RATES[f - 1] + (RATES[f] - RATES[f - 1]) * frac
}
