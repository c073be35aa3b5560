//! The SQL side shared by the three server workloads: server set-up,
//! references, the closed-loop client, the traced server phase, and
//! the direct replay that splits a query's time by layer.

use crate::trace::{mean, median, row_hash, Recorder};
use crate::{deadline, Timed};
use skyline_query::{catalog::Catalog, execute_with, parse, ExecOptions};
use skyline_relation::{Rng, Table, Tuple, Value};
use skyline_server::{ServerConfig, ServerError, Session, SkylineServer};
use skyline_storage::BufferPool;
use std::time::Duration;

/// The one table every SQL workload queries.
pub const TABLE: &str = "t";

/// A result as the check sees it: row count plus an order-independent
/// checksum of the rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Rows returned.
    pub rows: usize,
    /// Wrapping sum of the row hashes.
    pub sum: u64,
}

fn value_bytes(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(2);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Date(d) => {
            out.push(4);
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
}

impl Expected {
    /// Summarize a result's rows.
    pub fn of<'a>(rows: impl IntoIterator<Item = &'a Tuple>) -> Self {
        let mut buf = Vec::new();
        let mut n = 0;
        let sum = crate::trace::checksum(rows.into_iter().map(|t| {
            n += 1;
            buf.clear();
            for v in t.values() {
                value_bytes(v, &mut buf);
            }
            row_hash(buf.iter().copied())
        }));
        Expected { rows: n, sum }
    }

    /// This summary with its checksum flipped: a reference that no
    /// correct result can match.
    pub fn poisoned(self) -> Self {
        Expected {
            sum: self.sum ^ 1,
            ..self
        }
    }
}

/// Set-up: register `table`, start a default server, and run
/// `warm_sql` once, untimed by the loop.
///
/// # Errors
/// When the warm-up query fails.
pub fn start(table: Table, warm_sql: &str) -> Result<SkylineServer, String> {
    let mut catalog = Catalog::new();
    catalog.register(TABLE, table);
    let server = SkylineServer::new(catalog, ServerConfig::default());
    server
        .session()
        .submit(warm_sql)
        .and_then(skyline_server::QueryHandle::collect)
        .map_err(|e| format!("warm-up query failed: {e}"))?;
    Ok(server)
}

/// The benchmark's own catalog over `table`, for references and the
/// direct replay.
pub fn catalog(table: Table) -> Catalog {
    let mut c = Catalog::new();
    c.register(TABLE, table);
    c
}

/// The execution contract a default server gives each query.
pub fn server_opts() -> ExecOptions {
    let cfg = ServerConfig::default();
    ExecOptions::default()
        .with_pool(BufferPool::new(cfg.quota_pages))
        .with_threads(cfg.threads)
        .with_sort_pages(cfg.sort_pages)
        .with_external_threshold(cfg.external_threshold)
}

/// Compute each distinct query's reference once, under `opts`.
///
/// # Errors
/// When a reference query fails.
pub fn references(
    catalog: &Catalog,
    sqls: &[String],
    opts: &ExecOptions,
    poison: bool,
) -> Result<Vec<Expected>, String> {
    sqls.iter()
        .map(|sql| {
            let t =
                execute_with(sql, catalog, opts).map_err(|e| format!("reference {sql}: {e}"))?;
            let e = Expected::of(t.rows());
            Ok(if poison { e.poisoned() } else { e })
        })
        .collect()
}

/// One server round trip: submit to last batch.
pub struct RoundTrip {
    /// Submit to last batch.
    pub total: Duration,
    /// Submit to first batch (or to the end of an empty result).
    pub first: Duration,
    /// The result, summarized after the clock stopped.
    pub got: Expected,
}

/// Send `sql` through `session` and drain the stream, under spans
/// `server.query` ⊃ {`server.admit`, `server.first_batch_wait`,
/// `server.stream`}.
///
/// # Errors
/// A shed submission or a query that ended in a typed error.
pub fn round_trip(
    session: &Session,
    sql: &str,
    rec: &Recorder,
    qid: u64,
) -> Result<RoundTrip, ServerError> {
    let root = rec.start("server.query", qid, None);
    let admit = rec.start("server.admit", qid, root.id());
    let submitted = session.submit(sql);
    rec.end(admit);
    let mut handle = match submitted {
        Ok(h) => h,
        Err(e) => {
            rec.end(root);
            return Err(e);
        }
    };
    let wait = rec.start("server.first_batch_wait", qid, root.id());
    let mut batches = Vec::new();
    if let Some(b) = handle.next_batch() {
        batches.push(b?);
    }
    rec.end(wait);
    let first = root.elapsed();
    let stream = rec.start("server.stream", qid, root.id());
    while let Some(b) = handle.next_batch() {
        batches.push(b?);
    }
    rec.end(stream);
    let total = rec.end(root);
    Ok(RoundTrip {
        total,
        first,
        got: Expected::of(batches.iter().flatten()),
    })
}

/// How each client picks its next query.
#[derive(Debug, Clone, Copy)]
pub enum Pick {
    /// Query `k mod n` for the client's k-th request.
    Cycle,
    /// Uniformly at random from a per-client stream of `seed`.
    Random(u64),
}

/// Run `clients` closed-loop client threads, one session each, until
/// `secs` have passed. Every result is checked against `expected`.
pub fn closed_loop(
    server: &SkylineServer,
    clients: usize,
    sqls: &[String],
    expected: &[Expected],
    pick: Pick,
    secs: f64,
    rec: &Recorder,
) -> Timed {
    let until = deadline(secs);
    let per_client: Vec<Timed> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let session = server.session();
                s.spawn(move || {
                    let mut rng = match pick {
                        Pick::Random(seed) => Some(Rng::seed_from_u64(seed ^ (c as u64 + 1))),
                        Pick::Cycle => None,
                    };
                    let mut t = Timed::default();
                    let window = rec.start("bench.window", c as u64, None);
                    while std::time::Instant::now() < until {
                        let i = match rng.as_mut() {
                            Some(r) => r.usize_below(sqls.len()),
                            None => t.attempted as usize % sqls.len(),
                        };
                        let qid = ((c as u64) << 32) | t.attempted;
                        t.attempted += 1;
                        match round_trip(&session, &sqls[i], rec, qid) {
                            Ok(rt) if rt.got == expected[i] => {
                                t.latency_ms.push(rt.total.as_secs_f64() * 1e3);
                                t.first_ms.push(rt.first.as_secs_f64() * 1e3);
                            }
                            Ok(_) => {
                                t.failed += 1;
                                t.mismatched += 1;
                            }
                            Err(_) => t.failed += 1,
                        }
                    }
                    t.elapsed_s = rec.end(window).as_secs_f64();
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Timed::default();
    for t in per_client {
        all.merge(t);
    }
    all
}

/// Half the window untraced, half traced; set the server metrics and
/// `trace.overhead_frac`.
///
/// # Errors
/// When either half completes no query.
pub fn server_phase(
    r: &mut crate::report::RunReport,
    server: &SkylineServer,
    clients: usize,
    sqls: &[String],
    expected: &[Expected],
    pick: Pick,
    secs: f64,
    rec: &Recorder,
) -> Result<(), String> {
    let untraced = closed_loop(
        server,
        clients,
        sqls,
        expected,
        pick,
        secs / 2.0,
        &Recorder::new(false),
    );
    let before = server.snapshot().totals;
    let traced = closed_loop(server, clients, sqls, expected, pick, secs / 2.0, rec);
    let after = server.snapshot().totals;
    if untraced.latency_ms.is_empty() || traced.latency_ms.is_empty() {
        return Err("a traced-run window completed no query".into());
    }
    let spans = rec.spans();
    let span_mean_ms = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.len_ns() as f64 / 1e6)
            .collect();
        mean(&v)
    };
    r.set("server.admit_us", span_mean_ms("server.admit") * 1e3);
    r.set(
        "server.first_batch_wait_ms",
        span_mean_ms("server.first_batch_wait"),
    );
    r.set("server.stream_ms", span_mean_ms("server.stream"));
    let completed = (after.completed - before.completed).max(1);
    r.set(
        "server.queue_wait_ms",
        (after.queue_wait_ms - before.queue_wait_ms) as f64 / completed as f64,
    );
    r.set("server.shed", (after.rejected - before.rejected) as f64);
    r.set("server.failed", (after.failed - before.failed) as f64);
    r.set(
        "trace.overhead_frac",
        median(&traced.latency_ms) / median(&untraced.latency_ms) - 1.0,
    );
    r.attempted += untraced.attempted + traced.attempted;
    r.failed += untraced.failed + traced.failed;
    r.mismatched += untraced.mismatched + traced.mismatched;
    r.note(
        "traced_p50_ms",
        format!("{:.4}", median(&traced.latency_ms)),
    );
    r.note(
        "untraced_p50_ms",
        format!("{:.4}", median(&untraced.latency_ms)),
    );
    Ok(())
}

/// One query's direct replay: parse, `execute_with`, and a server round
/// trip of the same text.
pub struct Direct {
    /// `parse` alone.
    pub parse: Duration,
    /// `execute_with` (which parses again).
    pub execute: Duration,
    /// Submit to last batch through the server.
    pub server: Duration,
}

/// Replay `sql` directly and through `session`, checking both results.
///
/// # Errors
/// A failed call, or a result that disagrees with `expected`.
pub fn direct(
    session: &Session,
    catalog: &Catalog,
    sql: &str,
    expected: Expected,
    rec: &Recorder,
    qid: u64,
) -> Result<Direct, String> {
    let (parsed, parse_len) = rec.time("query.parse", qid, || parse(sql));
    parsed.map_err(|e| format!("parse {sql}: {e}"))?;
    let opts = server_opts();
    let (table, execute) = rec.time("query.execute_with", qid, || {
        execute_with(sql, catalog, &opts)
    });
    let table = table.map_err(|e| format!("execute_with {sql}: {e}"))?;
    if Expected::of(table.rows()) != expected {
        return Err(format!(
            "direct execute_with disagrees with the reference: {sql}"
        ));
    }
    let rt = round_trip(session, sql, rec, qid).map_err(|e| format!("server {sql}: {e}"))?;
    if rt.got != expected {
        return Err(format!("server result disagrees with the reference: {sql}"));
    }
    Ok(Direct {
        parse: parse_len,
        execute,
        server: rt.total,
    })
}

/// Medians over a replay's [`Direct`] samples, in ms: (parse,
/// execute, server round trip).
pub fn direct_medians(samples: &[Direct]) -> (f64, f64, f64) {
    let ms = |f: fn(&Direct) -> Duration| {
        median(
            &samples
                .iter()
                .map(|d| f(d).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    (ms(|d| d.parse), ms(|d| d.execute), ms(|d| d.server))
}
