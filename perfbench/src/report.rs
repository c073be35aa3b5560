//! Metric tables, the host fingerprint, and the report writers.
//!
//! The tables here are the ones `BENCHMARK.json` declares; a test keeps
//! the two in step.

use crate::trace::{self_times, valid_metric_name, Span};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("query_p50_ms", "ms"),
    ("first_batch_p50_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). A
/// layer a workload does not reach reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.admit_us", "us"),
    ("server.first_batch_wait_ms", "ms"),
    ("server.stream_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.shed", "count"),
    ("server.failed", "count"),
    ("query.parse_us", "us"),
    ("query.execute_ms", "ms"),
    ("query.unattributed_ms", "ms"),
    ("relation.encode_ms", "ms"),
    ("storage.load_heap_ms", "ms"),
    ("core.entropy_stats_ms", "ms"),
    ("exec.presort_ms", "ms"),
    ("core.filter_ms", "ms"),
    ("core.comparisons", "count"),
    ("core.lanes_compared", "count"),
    ("core.blocks_skipped", "count"),
    ("core.passes", "count"),
    ("core.window_inserts", "count"),
    ("core.temp_records", "count"),
    ("core.skyline_rows", "count"),
    ("core.ns_per_comparison", "ns"),
    ("core.lane_utilization", "ratio"),
    ("core.spill_ratio", "ratio"),
    ("storage.pages_read", "count"),
    ("storage.pages_written", "count"),
    ("core.inmem_us", "us"),
    ("exec.batch_presort_ms", "ms"),
    ("core.batch_filter_ms", "ms"),
    ("core.rows_materialized", "count"),
    ("core.union_entries", "count"),
    ("core.coordinator_comparisons", "count"),
    ("core.shard_records_max", "count"),
    ("core.shard_local_skyline_max", "count"),
    ("exchange.bytes", "count"),
    ("exchange.frames", "count"),
    ("exchange.codec_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Named values a run produced; looked up by the tables above.
pub type Values = HashMap<&'static str, f64>;

/// What one run hands back to `main` for printing.
pub struct RunReport {
    /// Metric values: the end-to-end set untraced, the per-layer set
    /// traced.
    pub metrics: Values,
    /// Printed and saved but not compared: tail percentiles with their
    /// sample counts, `failed_frac`, skyline sizes.
    pub notes: Vec<(String, String)>,
    /// Per layer crate: median self time per replayed query in ms.
    /// Traced runs only.
    pub layer_ms: Vec<(&'static str, f64)>,
    /// The replayed queries' median latency (submit to last batch, or
    /// call to first record) the layer shares are taken of; the layer
    /// self times add up to it.
    pub share_base_ms: f64,
    /// Queries attempted in the timed window (traced: in the traced
    /// phase and the replay).
    pub attempted: u64,
    /// Attempted queries that failed, were shed, or were wrong.
    pub failed: u64,
    /// Results that disagreed with their reference.
    pub mismatched: u64,
    /// Spans kept by a traced run.
    pub spans: Vec<Span>,
}

impl RunReport {
    /// An empty report with every metric of `table` set to 0.
    pub fn zeroed(table: &[(&'static str, &str)]) -> Self {
        assert!(table.iter().all(|(n, _)| valid_metric_name(n)));
        RunReport {
            metrics: table.iter().map(|&(n, _)| (n, 0.0)).collect(),
            notes: Vec::new(),
            layer_ms: Vec::new(),
            share_base_ms: 0.0,
            attempted: 0,
            failed: 0,
            mismatched: 0,
            spans: Vec::new(),
        }
    }

    /// Whether every attempted query completed with the reference's
    /// result: nothing wrong, nothing ended in an error, nothing shed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatched == 0
    }

    /// Set a metric that must be in the table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.metrics.contains_key(name), "unknown metric {name}");
        self.metrics.insert(name, value);
    }

    /// Add a free-form note.
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }
}

/// Where the host and build came from.
pub struct Host {
    /// Cores the process may use.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `unknown` outside git.
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let s = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !s.trim().is_empty()).then(|| s.trim().to_string())
}

impl Host {
    /// Fingerprint this host.
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.rustc),
            json_str(&self.commit)
        )
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
///
/// # Errors
/// When `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
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

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v}")
}

fn metrics_json(table: &[(&str, &str)], values: &Values) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(values[name])
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The one-line result the benchmark ends its standard output with.
pub fn result_line(table: &[(&str, &str)], r: &RunReport) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics_json(table, &r.metrics)
    )
}

/// Human-readable lines: every metric by name with its unit, the
/// notes, and for a traced run the per-layer self times and shares.
pub fn human_lines(table: &[(&str, &str)], r: &RunReport) -> Vec<String> {
    let mut out: Vec<String> = table
        .iter()
        .map(|&(name, unit)| format!("  {name:<32} {:>16.4} {unit}", r.metrics[name]))
        .collect();
    out.extend(r.notes.iter().map(|(k, v)| format!("  {k:<32} {v:>16}")));
    for &(layer, ms) in &r.layer_ms {
        out.push(format!(
            "  layer {layer:<26} {ms:>16.4} ms self  {:>6.1}% of replayed p50",
            100.0 * ms / r.share_base_ms
        ));
    }
    out
}

/// Per span name, in name order: (name, spans, mean length ms, mean
/// self time ms).
pub fn span_summary(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut by_name: std::collections::BTreeMap<&'static str, (usize, u64, u64)> =
        std::collections::BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.len_ns();
        e.2 += selfs[&s.id];
    }
    by_name
        .into_iter()
        .map(|(name, (n, len, own))| {
            let per = |ns: u64| ns as f64 / n as f64 / 1e6;
            (name, n, per(len), per(own))
        })
        .collect()
}

/// Directory the per-run report and span files go to.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write the run's JSON report (and, when traced, its spans) under
/// [`out_dir`]. Returns the report path.
///
/// # Errors
/// I/O errors creating the directory or writing a file.
pub fn save(
    workload: &str,
    seed: u64,
    traced: bool,
    host: &Host,
    table: &[(&str, &str)],
    r: &RunReport,
) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{workload}-seed{seed}-trace{}", u8::from(traced));
    let notes: Vec<String> = r
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let layers: Vec<String> = r
        .layer_ms
        .iter()
        .map(|&(l, ms)| {
            format!(
                "{{\"layer\": \"{l}\", \"self_ms\": {}, \"share_of_p50\": {}}}",
                json_num(ms),
                json_num(ms / r.share_base_ms)
            )
        })
        .collect();
    let spans: Vec<String> = span_summary(&r.spans)
        .iter()
        .map(|&(name, n, len, own)| {
            format!(
                "{{\"name\": \"{name}\", \"count\": {n}, \"mean_ms\": {}, \"mean_self_ms\": {}}}",
                json_num(len),
                json_num(own)
            )
        })
        .collect();
    let report = format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"traced\": {traced},\n  \
         \"host\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"mismatched\": {},\n  \
         \"metrics\": {},\n  \"notes\": {{{}}},\n  \"layers\": [{}],\n  \"spans\": [{}],\n  \
         \"claim\": null\n}}\n",
        host.json(),
        r.attempted,
        r.failed,
        r.mismatched,
        metrics_json(table, &r.metrics),
        notes.join(", "),
        layers.join(", "),
        spans.join(", "),
    );
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, report)?;
    if traced {
        let mut lines = String::new();
        for s in &r.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                lines,
                "{{\"id\": {}, \"name\": \"{}\", \"query\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.query, s.start_ns, s.end_ns
            );
        }
        std::fs::write(dir.join(format!("{stem}-spans.jsonl")), lines)?;
    }
    Ok(path)
}

/// Host and seed stamp printed at the top of a run.
pub fn stamp(workload: &str, seed: u64, traced: bool, host: &Host) -> String {
    format!(
        "# perfbench workload={workload} seed={seed} trace={} nproc={} cpu=\"{}\" rustc=\"{}\" commit={}",
        u8::from(traced),
        host.nproc,
        host.cpu,
        host.rustc,
        host.commit
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_benchmark_json_and_names_are_legal() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let squashed: String = spec.split_whitespace().collect();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
            let needle = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(squashed.contains(&needle), "{name} ({unit}) missing");
        }
        let declared = squashed.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for layer in [
            "server", "query", "relation", "storage", "exec", "core", "exchange",
        ] {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n.starts_with(layer)),
                "{layer}"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunReport::zeroed(END_TO_END);
        r.set("query_p50_ms", 1.25);
        r.attempted = 3;
        let line = result_line(END_TO_END, &r);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(line.contains("\"query_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        r.failed = 1;
        assert!(result_line(END_TO_END, &r).starts_with("{\"correct\": false"));
        r.failed = 0;
        r.mismatched = 1;
        assert!(result_line(END_TO_END, &r).starts_with("{\"correct\": false"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
