//! `external_uniform` and `external_correlated`: one client sends
//! 7-criteria skylines over a 100k-row table, far larger than the
//! server's 64-page sort arena, so every query takes the external
//! presort + SFS filter.
//!
//! The traced run replays each distinct query through the same public
//! calls the pushdown makes (`RecordLayout::encode`, `load_heap`,
//! `entropy_stats_of_records`, `presort`, `sfs_filter`) to split
//! `execute_with` into stages; what the replay does not explain is
//! `query.unattributed_ms`.

use crate::report::{RunReport, END_TO_END, PER_LAYER};
use crate::sql::{self, Pick};
use crate::trace::{mean, median, Recorder};
use crate::{end_to_end, setup_median, Args};
use skyline_core::cardinality::recommend_window_pages;
use skyline_core::planner::{entropy_stats_of_records, load_heap, presort, sfs_filter};
use skyline_core::{
    Criterion, Direction, MetricsSnapshot, SfsConfig, SkylineMetrics, SkylineSpec, SortOrder,
};
use skyline_exec::Operator;
use skyline_relation::{ColumnType, RecordLayout, Rng, Schema, Table, Tuple, Value};
use skyline_server::ServerConfig;
use skyline_storage::{Disk, IoSnapshot, MemDisk};
use std::sync::Arc;
use std::time::Duration;

/// Rows in the table (ROADMAP's 100k × d7 reference size).
pub const ROWS: usize = 100_000;
/// Criteria, all integer columns `c0..c6`.
pub const DIMS: usize = 7;
/// Values are drawn from `0..DOMAIN`.
pub const DOMAIN: i32 = 1_000_000;
/// Correlated jitter: ±1% of the domain around a per-row base.
pub const JITTER: i32 = DOMAIN / 100;
/// Queries the traced run replays, spread evenly over the mixes.
pub const REPLAYED: usize = 16;

/// Which data distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Independent uniform criteria (the paper's §5 distribution).
    Uniform,
    /// Criteria sharing a per-row base value plus jitter.
    Correlated,
}

/// Row-major `ROWS × DIMS` values for `kind` from `seed`.
pub fn values(kind: Kind, seed: u64) -> Vec<i32> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut v = Vec::with_capacity(ROWS * DIMS);
    for _ in 0..ROWS {
        let base = rng.i32_inclusive(0, DOMAIN - 1);
        for _ in 0..DIMS {
            v.push(match kind {
                Kind::Uniform => rng.i32_inclusive(0, DOMAIN - 1),
                Kind::Correlated => base + rng.i32_inclusive(-JITTER, JITTER),
            });
        }
    }
    v
}

fn table(kind: Kind, seed: u64) -> Table {
    let cols: Vec<String> = (0..DIMS).map(|j| format!("c{j}")).collect();
    let schema = Schema::of(
        &cols
            .iter()
            .map(|c| (c.as_str(), ColumnType::Int))
            .collect::<Vec<_>>(),
    );
    let rows = values(kind, seed)
        .chunks_exact(DIMS)
        .map(|r| Tuple::new(r.iter().map(|&x| Value::Int(i64::from(x))).collect()))
        .collect();
    Table::new(schema, rows).expect("generated rows match the schema")
}

/// The fixed MIN/MAX direction mixes (`true` = MIN) a client cycles
/// through. Eight on uniform data, so the latency median averages over
/// several skylines instead of sitting between two; bit `j` of a mask
/// makes `c{j}` MIN. On correlated data only the two uniform-direction
/// mixes keep the correlation (a mixed one turns it into
/// anti-correlation), so that workload cycles through those two.
pub fn mixes(kind: Kind) -> Vec<[bool; DIMS]> {
    let masks: &[u8] = match kind {
        Kind::Uniform => &[
            0b000_0000, 0b111_1111, 0b101_0101, 0b010_1010, 0b000_0111, 0b111_1000, 0b011_0011,
            0b100_1100,
        ],
        Kind::Correlated => &[0b000_0000, 0b111_1111],
    };
    masks
        .iter()
        .map(|m| std::array::from_fn(|j| m >> j & 1 == 1))
        .collect()
}

/// The engine-level spec of a mix: criterion `j` is attribute `j`.
pub fn spec_of(mix: &[bool; DIMS]) -> SkylineSpec {
    SkylineSpec::new(
        mix.iter()
            .enumerate()
            .map(|(attr, &min)| Criterion {
                attr,
                direction: if min { Direction::Min } else { Direction::Max },
            })
            .collect(),
    )
}

fn sql_of(mix: &[bool; DIMS]) -> String {
    let items: Vec<String> = mix
        .iter()
        .enumerate()
        .map(|(j, &min)| format!("c{j} {}", if min { "MIN" } else { "MAX" }))
        .collect();
    format!(
        "SELECT * FROM {} SKYLINE OF {}",
        sql::TABLE,
        items.join(", ")
    )
}

/// One run of an external workload.
///
/// # Errors
/// Set-up, reference, or replay failures.
pub fn run(kind: Kind, args: &Args) -> Result<RunReport, String> {
    let mixes = mixes(kind);
    let sqls: Vec<String> = mixes.iter().map(sql_of).collect();
    let clock = Recorder::new(false);
    let (server, setup_s) = setup_median(&clock, || sql::start(table(kind, args.seed), &sqls[0]))?;
    let catalog = sql::catalog(table(kind, args.seed));
    let in_memory = skyline_query::ExecOptions::default().with_external_threshold(usize::MAX);
    let expected = sql::references(&catalog, &sqls, &in_memory, args.poison)?;

    if !args.trace {
        let mut r = RunReport::zeroed(END_TO_END);
        let t = sql::closed_loop(
            &server,
            1,
            &sqls,
            &expected,
            Pick::Cycle,
            args.seconds,
            &clock,
        );
        end_to_end(&mut r, &t, setup_s)?;
        for (sql, e) in sqls.iter().zip(&expected) {
            r.note(format!("skyline_rows[{sql}]"), e.rows);
        }
        return Ok(r);
    }

    let mut r = RunReport::zeroed(PER_LAYER);
    let rec = Recorder::new(true);
    sql::server_phase(
        &mut r,
        &server,
        1,
        &sqls,
        &expected,
        Pick::Cycle,
        args.seconds,
        &rec,
    )?;

    let session = server.session();
    let mut directs = Vec::new();
    let mut stages = Vec::new();
    for rep in 0..REPLAYED / sqls.len() {
        for (i, (sql, mix)) in sqls.iter().zip(&mixes).enumerate() {
            let qid = (1 << 40) | ((rep * sqls.len() + i) as u64);
            directs.push(sql::direct(
                &session,
                &catalog,
                sql,
                expected[i],
                &rec,
                qid,
            )?);
            let st = replay_stages(catalog_rows(&catalog), mix, &rec, qid)?;
            if st.skyline != expected[i].rows as u64 {
                return Err(format!(
                    "stage replay found {} skyline rows, the reference {}: {sql}",
                    st.skyline, expected[i].rows
                ));
            }
            stages.push(st);
        }
    }
    r.attempted += directs.len() as u64;
    let (parse_ms, execute_ms, server_ms) = sql::direct_medians(&directs);
    let stage_ms = |f: fn(&Stages) -> Duration| {
        median(
            &stages
                .iter()
                .map(|s| f(s).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let encode = stage_ms(|s| s.encode);
    let load = stage_ms(|s| s.load);
    let entropy = stage_ms(|s| s.entropy);
    let presort_ms = stage_ms(|s| s.presort);
    let filter = stage_ms(|s| s.filter);
    let unattributed = execute_ms - (encode + load + entropy + presort_ms + filter);
    r.set("query.parse_us", parse_ms * 1e3);
    r.set("query.execute_ms", execute_ms);
    r.set("query.unattributed_ms", unattributed);
    r.set("server.overhead_ms", server_ms - execute_ms);
    r.set("relation.encode_ms", encode);
    r.set("storage.load_heap_ms", load);
    r.set("core.entropy_stats_ms", entropy);
    r.set("exec.presort_ms", presort_ms);
    r.set("core.filter_ms", filter);

    let count =
        |f: fn(&Stages) -> u64| mean(&stages.iter().map(|s| f(s) as f64).collect::<Vec<_>>());
    let comparisons = count(|s| s.metrics.comparisons);
    let lanes = count(|s| s.metrics.lanes_compared);
    let temp = count(|s| s.metrics.temp_records);
    r.set("core.comparisons", comparisons);
    r.set("core.lanes_compared", lanes);
    r.set("core.blocks_skipped", count(|s| s.metrics.blocks_skipped));
    r.set("core.passes", count(|s| s.metrics.passes));
    r.set("core.window_inserts", count(|s| s.metrics.window_inserts));
    r.set("core.temp_records", temp);
    r.set("core.skyline_rows", count(|s| s.skyline));
    r.set("core.ns_per_comparison", ratio(filter * 1e6, comparisons));
    r.set("core.lane_utilization", ratio(comparisons, lanes));
    r.set("core.spill_ratio", temp / ROWS as f64);
    r.set("storage.pages_read", count(|s| s.io.reads));
    r.set("storage.pages_written", count(|s| s.io.writes));

    r.layer_ms = vec![
        ("server", server_ms - execute_ms),
        ("query", unattributed),
        ("relation", encode),
        ("storage", load),
        ("exec", presort_ms),
        ("core", entropy + filter),
    ];
    r.share_base_ms = server_ms;
    r.note("replayed_queries", directs.len());
    r.spans = rec.spans();
    Ok(r)
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn catalog_rows(catalog: &skyline_query::catalog::Catalog) -> &[Tuple] {
    catalog
        .get(sql::TABLE)
        .expect("the benchmark catalog holds the table")
        .rows()
}

/// One replay of the pushdown's stages for one query.
struct Stages {
    encode: Duration,
    load: Duration,
    entropy: Duration,
    presort: Duration,
    filter: Duration,
    metrics: MetricsSnapshot,
    io: IoSnapshot,
    skyline: u64,
}

/// Replay the external SFS path of `SELECT * … SKYLINE OF` the way the
/// pushdown runs it, one span per stage.
fn replay_stages(
    rows: &[Tuple],
    mix: &[bool; DIMS],
    rec: &Recorder,
    qid: u64,
) -> Result<Stages, String> {
    let cfg = ServerConfig::default();
    let layout = RecordLayout::new(DIMS, 8);
    let (records, encode) = rec.time("relation.encode", qid, || {
        let mut attrs = [0i32; DIMS];
        rows.iter()
            .enumerate()
            .map(|(rowno, row)| {
                for (slot, a) in attrs.iter_mut().enumerate() {
                    let v = row.get(slot).as_i64().expect("integer criteria");
                    *a = i32::try_from(v).expect("criteria fit i32");
                }
                layout.encode(&attrs, &(rowno as u64).to_le_bytes())
            })
            .collect::<Vec<_>>()
    });
    let spec = spec_of(mix);
    let disk = MemDisk::shared();
    let io_before = disk.stats().snapshot();
    let disk: Arc<dyn Disk> = disk;
    let (heap, load) = rec.time("storage.load_heap", qid, || {
        load_heap(
            Arc::clone(&disk),
            layout.record_size(),
            records.iter().map(Vec::as_slice),
        )
    });
    let mut heap = heap.map_err(|e| format!("load_heap: {e}"))?;
    heap.mark_temp();
    let (stats, entropy) = rec.time("core.entropy_stats", qid, || {
        entropy_stats_of_records(&layout, &spec, records.iter().map(Vec::as_slice))
    });
    drop(records);
    let window_pages = recommend_window_pages(rows.len(), DIMS, 4 * DIMS);
    let (sorted, presort_len) = rec.time("exec.presort", qid, || {
        presort(
            Arc::new(heap),
            layout,
            spec.clone(),
            SortOrder::Entropy,
            Some(stats),
            cfg.sort_pages,
            Arc::clone(&disk),
        )
    });
    let mut sorted = sorted.map_err(|e| format!("presort: {e}"))?;
    sorted.mark_temp();
    let metrics = SkylineMetrics::shared();
    let (skyline, filter) = rec.time("core.filter", qid, || -> Result<u64, String> {
        let mut sfs = sfs_filter(
            Arc::new(sorted),
            layout,
            spec,
            SfsConfig::new(window_pages).with_projection(),
            Arc::clone(&disk),
            Arc::clone(&metrics),
        )
        .map_err(|e| format!("sfs_filter: {e}"))?;
        sfs.open().map_err(|e| e.to_string())?;
        let mut n = 0;
        while sfs.next().map_err(|e| e.to_string())?.is_some() {
            n += 1;
        }
        sfs.close();
        Ok(n)
    });
    Ok(Stages {
        encode,
        load,
        entropy,
        presort: presort_len,
        filter,
        metrics: metrics.snapshot(),
        io: disk.stats().snapshot().since(&io_before),
        skyline: skyline?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seeded_and_shaped() {
        let a = values(Kind::Uniform, 5);
        assert_eq!(a.len(), ROWS * DIMS);
        assert_eq!(a, values(Kind::Uniform, 5));
        assert_ne!(a, values(Kind::Uniform, 6));
        assert!(a.iter().all(|&v| (0..DOMAIN).contains(&v)));
        let c = values(Kind::Correlated, 5);
        for row in c.chunks_exact(DIMS) {
            let (lo, hi) = (row.iter().min().unwrap(), row.iter().max().unwrap());
            assert!(hi - lo <= 2 * JITTER, "criteria share a base value");
        }
    }

    #[test]
    fn mixes_are_distinct_and_keep_the_correlation() {
        let m = mixes(Kind::Uniform);
        assert_eq!(m.len(), 8);
        for (i, a) in m.iter().enumerate() {
            assert!(m[i + 1..].iter().all(|b| a != b), "mix {i} repeats");
        }
        assert_eq!(mixes(Kind::Correlated), vec![[false; DIMS], [true; DIMS]]);
        assert_eq!(m[2], [true, false, true, false, true, false, true]);
    }

    #[test]
    fn sql_names_every_criterion() {
        let sql = sql_of(&[true, false, true, false, true, false, true]);
        assert_eq!(
            sql,
            "SELECT * FROM t SKYLINE OF c0 MIN, c1 MAX, c2 MIN, c3 MAX, c4 MIN, c5 MAX, c6 MIN"
        );
        assert!(skyline_query::parse(&sql).is_ok());
    }
}
