//! The market daemon's benchmark: one command, three workloads, every
//! end-to-end metric by name and unit, per-layer metrics and span self
//! times from a separate traced run, and correctness checks that fail
//! the run. See README.md in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flash-open|drain|plan> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The human report goes to stdout first; the last stdout line is one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics of an untraced run, the per-layer ones of a
//! traced run. Every workload reports every metric of [`E2E`] and
//! [`LAYER`]; a per-layer metric of a layer the workload does not reach
//! reads 0.

#![forbid(unsafe_code)]

mod cert;
mod drain;
mod flash;
mod plan;
mod report;
mod spans;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::{Host, Metric, Outcome};
use spans::Tracer;

/// A run that has not finished by then is wedged: fail it.
const WATCHDOG: Duration = Duration::from_secs(170);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <flash-open|drain|plan> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let num = || -> u64 {
            val.parse()
                .unwrap_or_else(|_| usage(&format!("invalid {flag} '{val}' (expected a number)")))
        };
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = num(),
            "--seconds" => a.seconds = num().max(1),
            "--trace" => a.trace = num() != 0,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    a
}

type Workload = fn(&Args, &mut Tracer) -> Outcome;

fn workload(name: &str) -> Option<Workload> {
    match name {
        "flash-open" => Some(flash::run),
        "drain" => Some(drain::run),
        "plan" => Some(plan::run),
        _ => None,
    }
}

/// The end-to-end metrics, each measured by every workload; README.md
/// says what each means on each workload.
const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_us", "us"),
    ("social_cost", "cost"),
    ("admitted", "count"),
    ("hit_rate", "ratio"),
];

/// The end-to-end metric whose time the traced run compares with the
/// untraced one.
const PRIMARY: &str = "op_us";

/// The per-layer metrics of a traced run (`self_us.<span>` and
/// `trace.overhead_pct` are added from the spans).
const LAYER: [(&str, &str); 39] = [
    ("query_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("slo_rps", "1/s"),
    ("topology.gen_s", "s"),
    ("scenario.trace_gen_s", "s"),
    ("serve.boot_s", "s"),
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("proto.bytes_per_op", "B"),
    ("client.write_calls_per_op", "ratio"),
    ("client.read_wait_ns", "ns"),
    ("gen.late_p99_us", "us"),
    ("gen.sent", "count"),
    ("gen.ok", "count"),
    ("gen.failed", "count"),
    ("gen.rejected", "count"),
    ("serve.epochs", "count"),
    ("serve.moves", "count"),
    ("serve.shard_writes.0", "count"),
    ("serve.shard_writes.1", "count"),
    ("serve.queue_depth.0", "count"),
    ("serve.queue_depth.1", "count"),
    ("demand.recaches", "count"),
    ("nash_gap", "ratio"),
    ("nash.violators", "count"),
    ("capacity.violations", "count"),
    ("write_ops_s", "1/s"),
    ("drain.elapsed_s", "s"),
    ("drain.epochs", "count"),
    ("drain.moves", "count"),
    ("core.replay_ops_s", "1/s"),
    ("core.best_response_ns", "ns"),
    ("lp_ratio", "ratio"),
    ("appro.s", "s"),
    ("lcf.s", "s"),
    ("lcf.leaders", "count"),
    ("lcf.followers", "count"),
    ("core.dynamics.useful_ratio", "ratio"),
];

/// Every span name a workload records; each becomes `self_us.<name>`.
const SPANS: [&str; 17] = [
    "topology.gen",
    "scenario.trace_gen",
    "serve.boot",
    "proto.encode",
    "client.write",
    "client.read",
    "proto.decode",
    "flash.request",
    "serve.drain",
    "core.certify",
    "drain.bench",
    "drain.replica",
    "core.replay",
    "appro",
    "lcf",
    "core.check_capacity",
    "core.check_nash",
];

/// Orders `got` as `want`, with a unit check. A name a workload did not
/// report is an error when `fill` is off and reads 0 when it is on; a
/// name outside `want` is an error.
fn conform(
    got: Vec<Metric>,
    want: &[(&str, &'static str)],
    fill: bool,
    errors: &mut Vec<String>,
) -> Vec<Metric> {
    for m in &got {
        match want.iter().find(|(n, _)| *n == m.name) {
            None => errors.push(format!("metric {} is not in the manifest", m.name)),
            Some((_, u)) if *u != m.unit => {
                errors.push(format!("metric {} in {}, not {u}", m.name, m.unit));
            }
            Some(_) => {}
        }
    }
    want.iter()
        .filter_map(|&(name, unit)| match got.iter().find(|m| m.name == name) {
            Some(m) => Some(m.clone()),
            None if fill => Some(Metric::new(name, unit, 0.0)),
            None => {
                errors.push(format!("workload did not measure {name}"));
                None
            }
        })
        .collect()
}

fn value(out: &Outcome, name: &str) -> f64 {
    out.e2e
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

fn main() {
    let args = parse_args();
    let Some(run) = workload(&args.workload) else {
        usage(&format!("unknown workload '{}'", args.workload));
    };
    // Watchdog; it ends the process, so it is never joined.
    // lint: allow(thread-spawn)
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}; a layer is wedged");
        std::process::exit(1);
    });
    let host = Host::probe();
    let origin = Instant::now();

    let mut out = run(&args, &mut Tracer::new(false, origin));
    let e2e = std::mem::take(&mut out.e2e);
    out.e2e = conform(e2e, &E2E, false, &mut out.errors);
    if args.trace {
        // Same seed again with spans on: per-layer numbers come from this
        // pass, and its primary time against the untraced pass's is the
        // tracing overhead.
        let mut tr = Tracer::new(true, origin);
        let traced = run(&args, &mut tr);
        let (a, b) = (value(&out, PRIMARY), value(&traced, PRIMARY));
        let overhead = b / a - 1.0;
        let mut layer = conform(traced.layer, &LAYER, true, &mut out.errors);
        let times = tr.self_times();
        for name in times.keys().filter(|n| !SPANS.contains(n)) {
            out.errors
                .push(format!("span {name} is not in the manifest"));
        }
        for name in SPANS {
            let (secs, count) = times.get(name).copied().unwrap_or((0.0, 0));
            layer.push(Metric::new(
                format!("self_us.{name}"),
                "us",
                secs * 1e6 / count.max(1) as f64,
            ));
        }
        layer.push(Metric::new("trace.overhead_pct", "%", overhead * 100.0));
        out.layer = layer;
        out.errors.extend(traced.errors);
        // The per-layer metrics come from the traced pass: so do the
        // notes (per-round certificates, per-step tables) behind them.
        out.notes.extend(
            traced
                .notes
                .into_iter()
                .map(|n| format!("traced pass: {n}")),
        );
        out.notes.push(format!(
            "tracing overhead: {PRIMARY} untraced {a:.4}, traced {b:.4} ({:+.2}%)",
            overhead * 100.0
        ));
        let path = PathBuf::from("perfbench/out").join(format!("spans-{}.jsonl", args.workload));
        match tr.write_jsonl(&path) {
            Ok(()) => out
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => out.errors.push(format!("writing {}: {e}", path.display())),
        }
    }

    let header = format!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    report::print_report(&header, &host, &out, args.trace);
    println!("{}", report::result_json(&out, args.trace));
    if !out.errors.is_empty() {
        std::process::exit(1);
    }
}
