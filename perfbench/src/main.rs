//! The repository benchmark: SQL-to-last-batch latency and throughput
//! on four closed-loop workloads, with an outside-in traced run per
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload external_uniform --seed 2003 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics. Every result is checked against a reference computed once
//! per distinct query by another code path; a mismatch, a typed error
//! or a shed submission makes the run exit with code 1. `--poison-reference` corrupts every reference
//! checksum, to show that the check bites. The last line of standard
//! output is the JSON result; see `perfbench/README.md`.

mod external;
mod interactive;
mod report;
mod sharded;
mod sql;
mod trace;

use report::{Host, RunReport, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{median, percentile, sorted, supported_tail, Recorder};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "external_uniform",
    "external_correlated",
    "interactive_mix",
    "engine_sharded",
];

/// Set-ups per run: at least [`SETUP_MIN_REPS`], more while their total
/// stays under [`SETUP_BUDGET_S`], at most [`SETUP_MAX_REPS`]. `setup_s`
/// is their median. A single set-up's time is bimodal on a busy host
/// (worker threads scheduled at once or not), so a short set-up is
/// repeated until its median no longer flips between the modes.
pub const SETUP_MIN_REPS: usize = 9;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MAX_REPS: usize = 101;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_BUDGET_S: f64 = 5.0;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window; required, so that
    /// `BENCHMARK.json`'s `run_seconds` is the only default.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Corrupt every reference checksum.
    pub poison: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2003,
        seconds: 0.0,
        trace: false,
        poison: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--poison-reference" => args.poison = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds is required and must be in (0, 120]".into());
    }
    Ok(args)
}

/// Closed-loop samples of one measured window.
#[derive(Debug, Default)]
pub struct Timed {
    /// Latency of every correct query, ms.
    pub latency_ms: Vec<f64>,
    /// Time to the first result batch of every correct query, ms.
    pub first_ms: Vec<f64>,
    /// Window length: from the first submission to the last completion.
    pub elapsed_s: f64,
    /// Queries sent.
    pub attempted: u64,
    /// Queries failed, shed, or wrong.
    pub failed: u64,
    /// Queries whose result disagreed with the reference.
    pub mismatched: u64,
}

impl Timed {
    /// Fold another client's samples of the same window into this one.
    pub fn merge(&mut self, other: Timed) {
        self.latency_ms.extend(other.latency_ms);
        self.first_ms.extend(other.first_ms);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
    }

    /// Median latency, ms.
    pub fn p50(&self) -> f64 {
        median(&self.latency_ms)
    }
}

/// Run `setup` repeatedly (see [`SETUP_MIN_REPS`]), dropping each result
/// before the next, and return the last result with the median set-up
/// seconds.
///
/// # Errors
/// The first set-up error.
pub fn setup_median<S>(
    rec: &Recorder,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut secs: Vec<f64> = Vec::new();
    let mut state = None;
    while secs.len() < SETUP_MIN_REPS
        || (secs.len() < SETUP_MAX_REPS && secs.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(state.take());
        let (s, len) = rec.time("bench.setup", 0, &mut setup);
        state = Some(s?);
        secs.push(len.as_secs_f64());
    }
    Ok((state.expect("at least one set-up ran"), median(&secs)))
}

/// Fill the end-to-end metrics of `r` from a timed window.
///
/// # Errors
/// When no query completed correctly, or the RSS is unreadable.
pub fn end_to_end(r: &mut RunReport, t: &Timed, setup_s: f64) -> Result<(), String> {
    if t.latency_ms.is_empty() {
        return Err(format!(
            "no query completed correctly ({} attempted, {} failed, {} disagreed with \
             their reference)",
            t.attempted, t.failed, t.mismatched
        ));
    }
    let lat = sorted(&t.latency_ms);
    r.set("query_p50_ms", percentile(&lat, 50.0));
    r.set("first_batch_p50_ms", median(&t.first_ms));
    r.set("queries_per_s", lat.len() as f64 / t.elapsed_s);
    r.set("setup_s", setup_s);
    r.set("peak_rss_mb", report::peak_rss_mb()?);
    r.note("samples", lat.len());
    r.note("query_p90_ms", tail_note(&lat, 90.0));
    r.note("query_p99_ms", tail_note(&lat, 99.0));
    r.note(
        "tail_rule",
        supported_tail(lat.len()).map_or("none (fewer than 100 samples)".into(), |p| {
            format!("p{p} has >=10 samples beyond it")
        }),
    );
    r.note("failed_frac", t.failed as f64 / t.attempted.max(1) as f64);
    r.attempted = t.attempted;
    r.failed = t.failed;
    r.mismatched = t.mismatched;
    Ok(())
}

/// Percentile `p` of an ascending sample in ms, or `unsupported` when
/// fewer than ten samples lie beyond it. Tails are printed, and
/// compared by `steady.py` where supported, but are not in the result
/// line: the result's metrics apply to every workload, and only
/// `interactive_mix` always completes enough queries to support a p90.
pub fn tail_note(lat: &[f64], p: f64) -> String {
    match supported_tail(lat.len()) {
        Some(q) if q >= p => format!("{:.4} ms", percentile(lat, p)),
        _ => format!("unsupported (n={})", lat.len()),
    }
}

/// When a window that starts now and lasts `secs` seconds ends.
pub fn deadline(secs: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(secs)
}

fn run(args: &Args) -> Result<RunReport, String> {
    match args.workload.as_str() {
        "external_uniform" => external::run(external::Kind::Uniform, args),
        "external_correlated" => external::run(external::Kind::Correlated, args),
        "interactive_mix" => interactive::run(args),
        "engine_sharded" => sharded::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    println!(
        "{}",
        report::stamp(&args.workload, args.seed, args.trace, &host)
    );
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for line in report::human_lines(table, &report) {
        println!("{line}");
    }
    match report::save(&args.workload, args.seed, args.trace, &host, table, &report) {
        Ok(path) => println!("# report: {}", path.display()),
        Err(e) => {
            eprintln!("perfbench: writing the report: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{}", report::result_line(table, &report));
    if !report.correct() {
        eprintln!(
            "perfbench: {} of {} queries failed ({} disagreed with their reference, the \
             rest ended in an error or were shed)",
            report.failed, report.attempted, report.mismatched
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload engine_sharded --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("engine_sharded", 7, 3.0, true)
        );
        assert!(!a.poison);
        let d = parse_args(&argv("--workload interactive_mix --seconds 15")).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (2003, 15.0, false));
        assert!(parse_args(&argv("--workload interactive_mix")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload interactive_mix --trace 2")).is_err());
        assert!(parse_args(&argv("--workload interactive_mix --seed")).is_err());
    }

    #[test]
    fn timed_windows_merge() {
        let mut a = Timed {
            latency_ms: vec![1.0],
            first_ms: vec![0.5],
            elapsed_s: 2.0,
            attempted: 2,
            failed: 1,
            mismatched: 1,
        };
        a.merge(Timed {
            latency_ms: vec![3.0, 2.0],
            first_ms: vec![1.0, 1.0],
            elapsed_s: 2.5,
            attempted: 2,
            ..Timed::default()
        });
        assert_eq!((a.attempted, a.failed, a.mismatched), (4, 1, 1));
        assert_eq!(a.elapsed_s, 2.5);
        assert_eq!(a.p50(), 2.0);
    }

    #[test]
    fn tails_are_reported_only_with_ten_samples_beyond() {
        let lat: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_note(&lat, 90.0), "90.0000 ms");
        assert_eq!(tail_note(&lat, 99.0), "unsupported (n=100)");
        assert_eq!(tail_note(&lat[..99], 90.0), "unsupported (n=99)");
    }
}
