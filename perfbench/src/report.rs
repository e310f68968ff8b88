//! Metrics, summary statistics, host metadata and the two output forms:
//! the human report and the final one-line JSON result.

use std::fmt::Write as _;

/// One reported number. `reps` holds the per-repetition values the
/// number summarises (for the median/quartile line); `samples` is the
/// sample count behind a percentile.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub reps: Vec<f64>,
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            reps: Vec::new(),
            samples: None,
        }
    }

    /// The median of `reps`, keeping the reps for the quartile line.
    pub fn median_of(name: impl Into<String>, unit: &'static str, reps: Vec<f64>) -> Metric {
        Metric {
            value: median(&reps),
            reps,
            ..Metric::new(name, unit, 0.0)
        }
    }

    /// A percentile read from `n` samples.
    pub fn pct(name: impl Into<String>, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            samples: Some(n),
            ..Metric::new(name, unit, value)
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (printed in the JSON of an untraced run).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (printed in the JSON of a traced run).
    pub layer: Vec<Metric>,
    /// Operations attempted and failed (protocol errors, transport
    /// errors; a rejected join is an admission result, not a failure).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; any entry makes the run exit non-zero.
    pub errors: Vec<String>,
    /// Extra report lines (per-step tables, known defects).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile (`q` in 0..=1); NaN on empty input.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile of an already sorted sample (`p` in 0..=100).
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Host and build facts printed with every run.
pub struct Host {
    pub rev: String,
    pub nproc: usize,
    pub cpu: String,
    pub profile: &'static str,
}

impl Host {
    pub fn probe() -> Host {
        // GIT_DIR pins the lookup to this checkout: an enclosing
        // repository's revision would misdescribe the code measured.
        let rev = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .env("GIT_DIR", ".git")
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            rev,
            nproc: nproc(),
            cpu,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The human report: one line per metric, with unit and spread.
pub fn print_report(header: &str, host: &Host, out: &Outcome, traced: bool) {
    println!("{header}");
    println!(
        "host: rev={} nproc={} cpu=\"{}\" profile={}",
        host.rev, host.nproc, host.cpu, host.profile
    );
    let section = |title: &str, ms: &[Metric]| {
        println!("{title}:");
        for m in ms {
            let mut line = format!("  {:<28} {:>14.4} {:<6}", m.name, m.value, m.unit);
            if !m.reps.is_empty() {
                let _ = write!(
                    line,
                    " median of {} reps, q1 {:.4} q3 {:.4}",
                    m.reps.len(),
                    quantile(&m.reps, 0.25),
                    quantile(&m.reps, 0.75)
                );
            }
            if let Some(n) = m.samples {
                let _ = write!(line, " n={n}");
            }
            println!("{line}");
        }
    };
    section("end-to-end", &out.e2e);
    if traced {
        section("per-layer", &out.layer);
    }
    for n in &out.notes {
        println!("{n}");
    }
    println!(
        "attempted={} failed={} correct={}",
        out.attempted,
        out.failed,
        out.errors.is_empty()
    );
    for e in &out.errors {
        println!("CORRECTNESS FAILURE: {e}");
    }
}

/// The final result line the benchmark contract asks for.
pub fn result_json(out: &Outcome, traced: bool) -> String {
    let metrics = if traced { &out.layer } else { &out.e2e };
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.errors.is_empty(),
        out.attempted,
        out.failed
    );
    for (k, m) in metrics.iter().enumerate() {
        if k > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            fmt_num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}
