//! `interactive_mix`: two client sessions send a seeded mix of small
//! skyline queries (2-D to 5-D criteria, `WHERE` ranges of 5–50%
//! selectivity, `DIFF` on a category, `ORDER BY … LIMIT 10`,
//! projections) over a 20k-row table, below the external threshold, so
//! parsing, `WHERE`, the in-memory skyline, admission, worker handoff
//! and streaming carry the time.

use crate::report::{RunReport, END_TO_END, PER_LAYER};
use crate::sql::{self, Pick};
use crate::trace::{median, Recorder};
use crate::{end_to_end, setup_median, Args};
use skyline_core::lowdim::skyline_auto;
use skyline_core::KeyMatrix;
use skyline_query::{ExecOptions, SkylineAlgo};
use skyline_relation::{ColumnType, Rng, Schema, Table, Tuple, Value};
use std::collections::BTreeMap;

/// Rows in the table.
pub const ROWS: usize = 20_000;
/// Numeric columns; values are drawn from `0..DOMAIN`.
pub const COLUMNS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
/// Value domain of the numeric columns.
pub const DOMAIN: i64 = 100_000;
/// Distinct values of the `cat` column.
pub const CATEGORIES: i64 = 10;
/// Distinct queries in the mix.
pub const POOL: usize = 128;
/// Client sessions (at most `nproc` = 2 on the reference host).
pub const CLIENTS: usize = 2;
/// Replays of each distinct query in the traced run.
pub const REPLAYS: usize = 2;
/// The set-up's warm-up query: fixed, so set-up work does not depend on
/// the seed's query pool.
pub const WARM_UP: &str = "SELECT * FROM t SKYLINE OF a MAX, b MAX, c MAX";

fn table(seed: u64) -> Table {
    let mut cols: Vec<(&str, ColumnType)> = COLUMNS.iter().map(|&c| (c, ColumnType::Int)).collect();
    cols.push(("cat", ColumnType::Int));
    let mut rng = Rng::seed_from_u64(seed);
    let rows = (0..ROWS)
        .map(|_| {
            let mut v: Vec<Value> = (0..COLUMNS.len())
                .map(|_| Value::Int(rng.i64_inclusive(0, DOMAIN - 1)))
                .collect();
            v.push(Value::Int(rng.i64_inclusive(0, CATEGORIES - 1)));
            Tuple::new(v)
        })
        .collect();
    Table::new(Schema::of(&cols), rows).expect("generated rows match the schema")
}

/// One query of the mix, kept structured so the replay can redo it.
#[derive(Debug, Clone)]
pub struct MixQuery {
    /// The SQL text.
    pub sql: String,
    /// (column index, is MIN) per criterion.
    pub crit: Vec<(usize, bool)>,
    /// `DIFF` on `cat`.
    pub diff: bool,
    /// `WHERE col >= lo AND col < hi`.
    pub range: (usize, i64, i64),
    /// `ORDER BY … LIMIT 10` on top.
    pub limited: bool,
}

/// The seeded pool of distinct queries. Query `q`'s shape (criteria
/// count, `DIFF`, `LIMIT`, projection, selectivity) depends only on
/// `q`, so every seed's pool has the same composition; the seed draws
/// the columns, directions and range positions.
pub fn pool(seed: u64) -> Vec<MixQuery> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    (0..POOL)
        .map(|q| {
            let k = 2 + q % 4;
            let diff = (q / 4) % 4 == 0;
            let limited = q % 3 == 0;
            let project = (q / 16) % 2 == 0;
            // golden-ratio sequence: selectivities spread evenly over 5–50%
            let spread = (q as f64 * 0.618_033_988_749_895).fract();
            let width = ((0.05 + 0.45 * spread) * DOMAIN as f64) as i64;
            let mut cols: Vec<usize> = (0..COLUMNS.len()).collect();
            rng.shuffle(&mut cols);
            let crit: Vec<(usize, bool)> = cols[..k].iter().map(|&c| (c, rng.bool())).collect();
            let wcol = rng.usize_below(COLUMNS.len());
            let lo = rng.i64_inclusive(0, DOMAIN - width);
            let select = if project {
                let mut names: Vec<&str> = crit.iter().map(|&(c, _)| COLUMNS[c]).collect();
                names.push("cat");
                names.join(", ")
            } else {
                "*".to_string()
            };
            let mut items: Vec<String> = crit
                .iter()
                .map(|&(c, min)| format!("{} {}", COLUMNS[c], if min { "MIN" } else { "MAX" }))
                .collect();
            if diff {
                items.push("cat DIFF".into());
            }
            let mut sql = format!(
                "SELECT {select} FROM {} WHERE {w} >= {lo} AND {w} < {hi} SKYLINE OF {}",
                sql::TABLE,
                items.join(", "),
                w = COLUMNS[wcol],
                hi = lo + width,
            );
            if limited {
                sql.push_str(&format!(" ORDER BY {} DESC LIMIT 10", COLUMNS[crit[0].0]));
            }
            MixQuery {
                sql,
                crit,
                diff,
                range: (wcol, lo, lo + width),
                limited,
            }
        })
        .collect()
}

/// One run of the interactive mix.
///
/// # Errors
/// Set-up, reference, or replay failures.
pub fn run(args: &Args) -> Result<RunReport, String> {
    let queries = pool(args.seed);
    let sqls: Vec<String> = queries.iter().map(|q| q.sql.clone()).collect();
    let clock = Recorder::new(false);
    let (server, setup_s) = setup_median(&clock, || sql::start(table(args.seed), WARM_UP))?;
    let catalog = sql::catalog(table(args.seed));
    let other_algo = ExecOptions::default().with_algo(SkylineAlgo::Bnl);
    let expected = sql::references(&catalog, &sqls, &other_algo, args.poison)?;
    let pick = Pick::Random(args.seed);

    if !args.trace {
        let mut r = RunReport::zeroed(END_TO_END);
        let t = sql::closed_loop(
            &server,
            CLIENTS,
            &sqls,
            &expected,
            pick,
            args.seconds,
            &clock,
        );
        end_to_end(&mut r, &t, setup_s)?;
        return Ok(r);
    }

    let mut r = RunReport::zeroed(PER_LAYER);
    let rec = Recorder::new(true);
    sql::server_phase(
        &mut r,
        &server,
        CLIENTS,
        &sqls,
        &expected,
        pick,
        args.seconds,
        &rec,
    )?;

    let rows = catalog
        .get(sql::TABLE)
        .expect("the benchmark catalog holds the table")
        .rows();
    let session = server.session();
    let mut directs = Vec::new();
    let mut inmem_us = Vec::new();
    for rep in 0..REPLAYS {
        for (i, q) in queries.iter().enumerate() {
            let qid = (1 << 40) | ((rep * queries.len() + i) as u64);
            directs.push(sql::direct(
                &session,
                &catalog,
                &q.sql,
                expected[i],
                &rec,
                qid,
            )?);
            let (found, us) = replay_inmem(rows, q, &rec, qid);
            if !q.limited && found != expected[i].rows {
                return Err(format!(
                    "in-memory replay found {found} rows, the reference {}: {}",
                    expected[i].rows, q.sql
                ));
            }
            inmem_us.push(us);
        }
    }
    r.attempted += directs.len() as u64;
    let (parse_ms, execute_ms, server_ms) = sql::direct_medians(&directs);
    let inmem_ms = median(&inmem_us) / 1e3;
    r.set("query.parse_us", parse_ms * 1e3);
    r.set("query.execute_ms", execute_ms);
    r.set("query.unattributed_ms", execute_ms - inmem_ms);
    r.set("server.overhead_ms", server_ms - execute_ms);
    r.set("core.inmem_us", inmem_ms * 1e3);
    r.layer_ms = vec![
        ("server", server_ms - execute_ms),
        ("query", execute_ms - inmem_ms),
        ("core", inmem_ms),
    ];
    r.share_base_ms = server_ms;
    r.note("replayed_queries", directs.len());
    r.spans = rec.spans();
    Ok(r)
}

/// Redo `q`'s skyline on the `WHERE`-selected key matrix with
/// `lowdim::skyline_auto`, per `DIFF` group. Returns the skyline size
/// and the microseconds spent inside `skyline_auto`.
fn replay_inmem(rows: &[Tuple], q: &MixQuery, rec: &Recorder, qid: u64) -> (usize, f64) {
    let (wcol, lo, hi) = q.range;
    let cat = COLUMNS.len();
    let int = |row: &Tuple, c: usize| row.get(c).as_i64().expect("integer column");
    let selected: Vec<&Tuple> = rows
        .iter()
        .filter(|r| (lo..hi).contains(&int(r, wcol)))
        .collect();
    let mut groups: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
    for (i, r) in selected.iter().enumerate() {
        groups
            .entry(if q.diff { int(r, cat) } else { 0 })
            .or_default()
            .push(i);
    }
    let mut found = 0;
    let mut us = 0.0;
    for members in groups.values() {
        let mut data = Vec::with_capacity(members.len() * q.crit.len());
        for &i in members {
            for &(c, min) in &q.crit {
                let v = int(selected[i], c) as f64;
                data.push(if min { -v } else { v });
            }
        }
        let keys = KeyMatrix::new(q.crit.len(), data);
        let (sky, len) = rec.time("core.skyline_auto", qid, || skyline_auto(&keys));
        found += sky.indices.len();
        us += len.as_secs_f64() * 1e6;
    }
    (found, us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_seeded_and_parses() {
        let p = pool(3);
        assert_eq!(p.len(), POOL);
        assert_eq!(
            p.iter().map(|q| &q.sql).collect::<Vec<_>>(),
            pool(3).iter().map(|q| &q.sql).collect::<Vec<_>>()
        );
        for q in &p {
            assert!((2..=5).contains(&q.crit.len()), "{}", q.sql);
            let (_, lo, hi) = q.range;
            let sel = (hi - lo) as f64 / DOMAIN as f64;
            assert!((0.049..=0.501).contains(&sel), "{}", q.sql);
            skyline_query::parse(&q.sql).unwrap_or_else(|e| panic!("{}: {e}", q.sql));
        }
        assert_eq!(p.iter().filter(|q| q.diff).count(), POOL / 4);
        assert_eq!(p.iter().filter(|q| q.limited).count(), POOL.div_ceil(3));
        // same composition for another seed, different queries
        let other = pool(4);
        assert_eq!(
            p.iter()
                .map(|q| (q.crit.len(), q.diff, q.limited))
                .collect::<Vec<_>>(),
            other
                .iter()
                .map(|q| (q.crit.len(), q.diff, q.limited))
                .collect::<Vec<_>>()
        );
        assert_ne!(p[0].sql, other[0].sql);
    }

    #[test]
    fn replay_agrees_with_the_engine() {
        let t = table(11);
        let cat = sql::catalog(t.clone());
        for q in pool(11).iter().filter(|q| !q.limited).take(8) {
            let out = skyline_query::execute_with(&q.sql, &cat, &ExecOptions::default()).unwrap();
            let (found, _) = replay_inmem(t.rows(), q, &Recorder::new(false), 0);
            assert_eq!(found, out.len(), "{}", q.sql);
        }
    }
}
