//! The repository's benchmark: three closed-loop workloads driven from
//! outside the library and server, with every answer checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search|serve|live> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! * `search` — one client answers a pinned pool of vetted requests that
//!   each need a real branch-and-bound search (`qr-milp`).
//! * `serve` — two clients run interactive ε-sweeps against an in-process
//!   `qr-server` (accept loop, pool, solution cache, fast paths).
//! * `live` — one client interleaves small `apply` batches with reads on
//!   two sessions (`qr-relation`, `qr-provenance`, model build).
//!
//! `--trace 0` measures with no tracing and prints the end-to-end metrics;
//! `--trace 1` replays the requests through the layers' public functions
//! with spans around each call — right after each measured request for
//! `search` and `live`, after a half-length measured window for `serve` —
//! checks that the replay answers as the measured run did, and prints the
//! per-layer metrics. Both print the metrics by name, unit and sample count, the
//! recorded inputs as one JSON line, and — as the last line — one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Any failed or wrong
//! answer makes the run exit with code 1.

mod layers;
mod live;
mod rng;
mod search;
mod serve;
mod stats;
mod trace;

use stats::Metric;
use std::fmt::Write as _;
use std::time::Duration;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back: operation counts, metrics, recorded inputs.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// First few failure descriptions, for the report.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Further numbers printed in the report but not in the result line.
    pub report_only: Vec<Metric>,
    /// Recorded inputs and settings: (key, JSON value).
    pub inputs: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Count one failed operation, keeping its description for the report.
    pub fn fail(&mut self, what: String) {
        eprintln!("perfbench: FAILED: {what}");
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(what);
        }
    }

    pub fn input(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.inputs.push((key, value.to_string()));
    }

    pub fn text_input(&mut self, key: &'static str, value: &str) {
        self.inputs.push((key, json_string(value)));
    }
}

fn parse_args(args: &[String]) -> Result<Settings, String> {
    let mut settings = Settings {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => settings.workload = value.to_string(),
            "--seed" => settings.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => settings.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => settings.trace = value != "0",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if settings.seconds.is_nan() || settings.seconds <= 0.0 || settings.seconds > 600.0 {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    if settings.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(settings)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse_args(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <search|serve|live> --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let mut outcome = match settings.workload.as_str() {
        "search" => search::run(&settings),
        "serve" => serve::run(&settings),
        "live" => live::run(&settings),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (expected search, serve or live)");
            std::process::exit(2);
        }
    };
    record_common_inputs(&settings, &mut outcome);
    print!("{}", report(&settings, &outcome));
    println!("{}", result_line(&outcome));
    if !outcome.correct() {
        std::process::exit(1);
    }
}

impl Outcome {
    /// A run is correct when it attempted something and nothing failed: a
    /// wrong, unproven, interrupted or refused answer fails the run.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

fn record_common_inputs(settings: &Settings, outcome: &mut Outcome) {
    outcome.text_input("workload", &settings.workload);
    outcome.input("seed", settings.seed);
    outcome.input("seconds", settings.seconds);
    outcome.input("trace", settings.trace);
    outcome.text_input("commit", &commit());
    outcome.input(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    outcome.text_input(
        "build",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release (lto = thin, codegen-units = 1, panic = unwind)"
        },
    );
}

/// The human-readable report: failures, every metric with unit and sample
/// count, then the recorded inputs as one JSON line.
fn report(settings: &Settings, outcome: &Outcome) -> String {
    let mut out = String::new();
    for failure in &outcome.failures {
        let _ = writeln!(out, "# FAILED: {failure}");
    }
    let _ = writeln!(
        out,
        "# {} (seed {}, trace {}): attempted {}, failed {}, fail_rate {:.4}",
        settings.workload,
        settings.seed,
        u8::from(settings.trace),
        outcome.attempted,
        outcome.failed,
        stats::ratio(outcome.failed as f64, outcome.attempted as f64)
    );
    for m in outcome.metrics.iter().chain(&outcome.report_only) {
        let _ = writeln!(
            out,
            "# {:<28} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let inputs: Vec<String> = outcome
        .inputs
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let _ = writeln!(out, "{{\"inputs\":{{{}}}}}", inputs.join(","));
    out
}

/// The last line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(outcome: &Outcome) -> String {
    let correct = outcome.correct();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    )
}

/// A JSON number with every digit; a non-finite value (a percentile that
/// fell on a failed operation) becomes a huge finite one.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "1e300".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit being measured, read from `.git` when the working directory
/// is a git checkout; `unknown` otherwise.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_string()
        } else {
            head.to_string()
        };
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find(|line| line.ends_with(reference))
        .and_then(|line| line.split(' ').next())
        .unwrap_or("unknown")
        .to_string()
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 when unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What an untraced run measured, common to every workload.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds of each repeated set-up.
    pub setups: Vec<f64>,
    /// Client-side latency of each solve request (failures as misses).
    pub solves: stats::Latencies,
    /// Latency of each closed-loop round (failures as misses).
    pub rounds: stats::Latencies,
    /// Wall time of the measured loop.
    pub elapsed_s: f64,
    /// Completed solve requests.
    pub completed: usize,
    /// Peak resident memory at the end of the measured loop, before the
    /// correctness gate allocates its own sessions.
    pub peak_rss_mb: f64,
}

/// Run a workload's set-up `repeats` times, recording the seconds each took
/// into `setups`, and keep the last result. `once` times only the set-up
/// itself and returns the seconds with the result. Workloads call this
/// before their measured loop and again after it, so that `setup_s`, the
/// median, does not rest on one moment of a machine whose speed drifts.
pub fn repeat_set_up<T>(
    repeats: usize,
    setups: &mut Vec<f64>,
    mut once: impl FnMut() -> (f64, Result<T, String>),
) -> Result<T, String> {
    let mut last = Err("set-up was not run".to_string());
    for _ in 0..repeats {
        let (seconds, result) = once();
        setups.push(seconds);
        last = Ok(result?);
    }
    last
}

/// The end-to-end metrics, in `BENCHMARK.json` order. `tail_p` is the
/// workload's tail percentile; when too few samples lie beyond it the
/// highest percentile that has ten beyond it is reported instead (and
/// recorded as `tail_percentile`).
pub fn end_to_end(m: &Measured, tail_p: f64, outcome: &mut Outcome) {
    let n = m.solves.count();
    let tail = m
        .solves
        .tail(tail_p)
        .map(|v| (tail_p, v))
        .unwrap_or_else(|| {
            let p = (100.0 * n.saturating_sub(stats::MIN_BEYOND) as f64 / n.max(1) as f64)
                .floor()
                .max(50.0);
            (p, m.solves.percentile(p).unwrap_or(0.0))
        });
    outcome.input("tail_percentile", tail.0);
    outcome.metrics.extend([
        Metric::new("setup_s", "s", stats::median_of(&m.setups), m.setups.len()),
        Metric::new("peak_rss_mb", "MiB", m.peak_rss_mb, 1),
        Metric::new(
            "throughput_rps",
            "req/s",
            stats::ratio(m.completed as f64, m.elapsed_s),
            m.completed,
        ),
        Metric::new("solve_p50_ms", "ms", m.solves.median().unwrap_or(0.0), n),
        Metric::new("solve_tail_ms", "ms", tail.1, n),
        Metric::new(
            "round_p50_ms",
            "ms",
            m.rounds.median().unwrap_or(0.0),
            m.rounds.count(),
        ),
    ]);
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Where a traced run writes its spans: under the build directory, inside
/// the checkout.
pub fn spans_path(settings: &Settings) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || std::path::PathBuf::from("target"),
        std::path::PathBuf::from,
    );
    dir.join("perfbench-spans")
        .join(format!("{}-{}.jsonl", settings.workload, settings.seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_failed_operation_fails_the_run() {
        let mut outcome = Outcome {
            attempted: 10,
            metrics: vec![Metric::new("solve_p50_ms", "ms", 1.5, 10)],
            ..Outcome::default()
        };
        assert!(outcome.correct());
        assert!(
            result_line(&outcome).starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,")
        );
        outcome.fail("a wrong answer".to_string());
        assert!(!outcome.correct());
        assert!(
            result_line(&outcome).starts_with("{\"correct\":false,\"attempted\":10,\"failed\":1,")
        );
        assert!(
            !Outcome::default().correct(),
            "a run that attempted nothing is not correct"
        );
    }

    #[test]
    fn the_result_line_carries_every_metric_with_its_unit() {
        let outcome = Outcome {
            attempted: 1,
            metrics: vec![
                Metric::new("setup_s", "s", 0.25, 5),
                Metric::new("solve_tail_ms", "ms", f64::INFINITY, 1),
            ],
            ..Outcome::default()
        };
        assert_eq!(
            result_line(&outcome),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"},\"solve_tail_ms\":{\"value\":1e300,\"unit\":\"ms\"}}}"
        );
    }
}
