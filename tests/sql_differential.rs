//! Seeded SQL-level differential suite: generated queries run through
//! `execute_with` on both skyline routes — the paged external engine
//! (`external_threshold = 0`) and the in-memory executor
//! (`external_threshold = usize::MAX`) — under every `SkylineAlgo`, and
//! each result must equal a naive oracle computed directly from the
//! table rows, row for row and in order.
//!
//! The generated shapes cover 2–6 MIN/MAX criteria plus DIFF, WHERE
//! trees of AND/OR/NOT over ranges and equality, ORDER BY ASC/DESC with
//! LIMIT, aliased projections, and GROUP BY/HAVING. The tables carry
//! NULLs, floats and values outside `i32`, so pushdown fallback and the
//! parity of `Semantic` errors between the two routes are exercised
//! too. The spill disk's page counters show which route really ran: a
//! query the pushdown can encode must write pages on the external
//! route, and one it cannot must fall back without writing any.

use skyline::query::catalog::Catalog;
use skyline::query::{execute_with, ExecOptions, QueryError, SkylineAlgo};
use skyline::relation::{Column, ColumnType, Rng, Schema, Table, Tuple, Value};
use skyline::storage::{Disk, MemDisk};
use std::cmp::Ordering;
use std::sync::Arc;

const ALGOS: [SkylineAlgo; 6] = [
    SkylineAlgo::Auto,
    SkylineAlgo::Sfs,
    SkylineAlgo::Bnl,
    SkylineAlgo::DivideAndConquer,
    SkylineAlgo::Parallel,
    SkylineAlgo::Strata,
];

// Base table columns; column 0 is `id`, the row number.
const A: usize = 1; // a..f: non-null integers
const X: usize = 7; // float; integral in some cases, fractional in others
const BIG: usize = 8; // integer; outside i32 in some cases
const N: usize = 9; // integer with NULLs in some cases
const CAT: usize = 10; // small integer, the DIFF / GROUP BY column
const NAME: usize = 11; // string
const NAMES: [&str; 12] = [
    "id", "a", "b", "c", "d", "e", "f", "x", "big", "n", "cat", "name",
];
const WORDS: [&str; 3] = ["ann", "bob", "cy"];

/// Numeric base columns a skyline criterion may name.
const CRITERIA: [usize; 9] = [A, A + 1, A + 2, A + 3, A + 4, A + 5, X, BIG, N];

fn table(rng: &mut Rng) -> Table {
    let n = rng.usize_below(200);
    let domain = [3, 9, 1000][rng.usize_below(3)];
    let fractional = rng.bool();
    let wide = rng.usize_below(3) == 0;
    let nulls = rng.usize_below(3) == 0;
    let schema = Schema::new(
        NAMES
            .iter()
            .enumerate()
            .map(|(j, name)| {
                let ty = match j {
                    X => ColumnType::Float,
                    NAME => ColumnType::Str,
                    _ => ColumnType::Int,
                };
                Column::new(*name, ty)
            })
            .collect(),
    )
    .unwrap();
    let mut t = Table::empty(schema);
    for i in 0..n {
        let mut v = vec![Value::Int(i as i64)];
        for _ in 0..6 {
            v.push(Value::Int(rng.i64_inclusive(0, domain)));
        }
        let xi = rng.i64_inclusive(0, domain) as f64;
        v.push(Value::Float(if fractional { xi + 0.5 } else { xi }));
        let big = rng.i64_inclusive(-domain, domain);
        v.push(Value::Int(if wide && rng.usize_below(8) == 0 {
            big.signum().max(1) * 3_000_000_000 + big
        } else {
            big
        }));
        v.push(if nulls && rng.usize_below(10) == 0 {
            Value::Null
        } else {
            Value::Int(rng.i64_inclusive(0, domain))
        });
        v.push(Value::Int(rng.i64_inclusive(0, 3)));
        v.push(Value::Str(WORDS[rng.usize_below(WORDS.len())].into()));
        t.push(Tuple::new(v)).unwrap();
    }
    t
}

// ---------------------------------------------------------------------
// Query model: generated, rendered to SQL, and evaluated by the oracle.

#[derive(Debug, Clone, Copy)]
enum Op {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

const OPS: [Op; 6] = [Op::Eq, Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge];

#[derive(Debug, Clone)]
enum Pred {
    Cmp(usize, Op, Value),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

#[derive(Debug, Clone, Copy)]
enum Agg {
    Max,
    Min,
    Sum,
    Count,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Dir {
    Min,
    Max,
    Diff,
}

/// GROUP BY `cols`, then one aliased aggregate per `aggs` entry.
#[derive(Debug)]
struct Grouping {
    cols: Vec<usize>,
    aggs: Vec<(Agg, usize)>,
}

/// Column positions in `where_` refer to the base table; every other
/// position refers to the relation the clause sees (the grouped output
/// when `group` is set).
#[derive(Debug)]
struct Query {
    select: Vec<(usize, Option<String>)>,
    group: Option<Grouping>,
    where_: Option<Pred>,
    having: Option<Pred>,
    skyline: Vec<(usize, Dir)>,
    order: Vec<(usize, bool)>,
    limit: Option<usize>,
}

fn agg_alias(j: usize) -> String {
    format!("g{j}")
}

/// Column names of the relation the post-grouping clauses see.
fn rel_names(q: &Query) -> Vec<String> {
    match &q.group {
        None => NAMES.iter().map(|s| s.to_string()).collect(),
        Some(g) => g
            .cols
            .iter()
            .map(|&c| NAMES[c].to_string())
            .chain((0..g.aggs.len()).map(agg_alias))
            .collect(),
    }
}

fn pick<T: Copy>(rng: &mut Rng, xs: &[T]) -> T {
    xs[rng.usize_below(xs.len())]
}

/// A comparison leaf over `cols` of a relation whose `NAME`-like string
/// columns are `strs`.
fn leaf(rng: &mut Rng, cols: &[usize], strs: &[usize]) -> Pred {
    let col = pick(rng, cols);
    let op = pick(rng, &OPS);
    let lit = if strs.contains(&col) {
        if rng.usize_below(8) == 0 {
            Value::Int(1) // cross-type: never true
        } else {
            Value::Str(pick(rng, &WORDS).into())
        }
    } else {
        match rng.usize_below(10) {
            0 => Value::Null,
            1 | 2 => Value::Float(rng.i64_inclusive(0, 9) as f64 + 0.5),
            _ => Value::Int(rng.i64_inclusive(0, 10)),
        }
    };
    Pred::Cmp(col, op, lit)
}

fn pred(rng: &mut Rng, depth: usize, cols: &[usize], strs: &[usize]) -> Pred {
    if depth == 0 {
        return leaf(rng, cols, strs);
    }
    match rng.usize_below(5) {
        0 => leaf(rng, cols, strs),
        // a range: lo <= col AND col <= hi
        1 => {
            let col = pick(rng, cols);
            if strs.contains(&col) {
                return leaf(rng, cols, strs);
            }
            let lo = rng.i64_inclusive(0, 6);
            Pred::And(
                Box::new(Pred::Cmp(col, Op::Ge, Value::Int(lo))),
                Box::new(Pred::Cmp(col, Op::Le, Value::Int(lo + 4))),
            )
        }
        2 => Pred::Not(Box::new(pred(rng, depth - 1, cols, strs))),
        3 => Pred::And(
            Box::new(pred(rng, depth - 1, cols, strs)),
            Box::new(pred(rng, depth - 1, cols, strs)),
        ),
        _ => Pred::Or(
            Box::new(pred(rng, depth - 1, cols, strs)),
            Box::new(pred(rng, depth - 1, cols, strs)),
        ),
    }
}

/// Distinct picks from `xs`, between `lo` and `hi` of them.
fn distinct(rng: &mut Rng, xs: &[usize], lo: usize, hi: usize) -> Vec<usize> {
    let mut pool = xs.to_vec();
    let k = lo + rng.usize_below(hi.min(pool.len()) - lo + 1);
    (0..k)
        .map(|_| pool.swap_remove(rng.usize_below(pool.len())))
        .collect()
}

fn direction(rng: &mut Rng) -> Dir {
    if rng.bool() {
        Dir::Min
    } else {
        Dir::Max
    }
}

fn gen_query(rng: &mut Rng) -> Query {
    let all: Vec<usize> = (0..NAMES.len()).collect();
    let base_numeric: Vec<usize> = (0..NAMES.len()).filter(|&c| c != NAME).collect();
    let where_ = (rng.usize_below(5) < 3).then(|| pred(rng, 2, &base_numeric, &[NAME]));
    let mut q = Query {
        select: Vec::new(),
        group: None,
        where_,
        having: None,
        skyline: Vec::new(),
        order: Vec::new(),
        limit: None,
    };
    if rng.usize_below(5) == 0 {
        // GROUP BY cat [, name] with 2..4 aggregates over a..f
        let cols = if rng.bool() {
            vec![CAT]
        } else {
            vec![CAT, NAME]
        };
        let aggs: Vec<(Agg, usize)> = (0..2 + rng.usize_below(3))
            .map(|_| {
                let f = pick(rng, &[Agg::Max, Agg::Min, Agg::Sum, Agg::Count]);
                (f, A + rng.usize_below(6))
            })
            .collect();
        let width = cols.len() + aggs.len();
        let strs: Vec<usize> = (cols.len() == 2).then_some(1).into_iter().collect();
        let numeric: Vec<usize> = (0..width).filter(|c| !strs.contains(c)).collect();
        q.group = Some(Grouping { cols, aggs });
        if rng.bool() {
            q.having = Some(pred(rng, 1, &numeric, &strs));
        }
        if rng.usize_below(4) != 0 {
            let crit = distinct(rng, &numeric, 2, 6);
            q.skyline = crit.iter().map(|&c| (c, direction(rng))).collect();
            if !strs.is_empty() && rng.bool() {
                q.skyline.push((strs[0], Dir::Diff));
            }
        }
        if rng.bool() {
            q.order = distinct(rng, &(0..width).collect::<Vec<_>>(), 1, 2)
                .into_iter()
                .map(|c| (c, rng.bool()))
                .collect();
        }
    } else {
        if rng.bool() {
            q.select = distinct(rng, &all, 1, 4)
                .into_iter()
                .enumerate()
                .map(|(j, c)| (c, rng.bool().then(|| format!("p{j}"))))
                .collect();
        }
        if rng.usize_below(10) != 0 {
            // mostly a..f; the float, wide and nullable columns now and then
            let pool: Vec<usize> = if rng.usize_below(3) == 0 {
                CRITERIA.to_vec()
            } else {
                CRITERIA[..6].to_vec()
            };
            let crit = distinct(rng, &pool, 2, 6);
            q.skyline = crit.iter().map(|&c| (c, direction(rng))).collect();
            match rng.usize_below(8) {
                0 | 1 => q.skyline.push((CAT, Dir::Diff)),
                2 => q.skyline.push((NAME, Dir::Diff)),
                _ => {}
            }
        }
        if rng.usize_below(5) < 2 {
            q.order = distinct(rng, &all, 1, 2)
                .into_iter()
                .map(|c| (c, rng.bool()))
                .collect();
        }
    }
    if rng.usize_below(10) < 3 {
        q.limit = Some(rng.usize_below(20));
    }
    q
}

// ---------------------------------------------------------------------
// Rendering.

fn render_value(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{s}'"),
        Value::Float(f) => format!("{f:?}"),
        other => other.to_string(),
    }
}

/// Column references in predicates and clauses are sometimes upper-cased:
/// binding is case-insensitive.
fn render_col(names: &[String], c: usize, upper: bool) -> String {
    if upper {
        names[c].to_uppercase()
    } else {
        names[c].clone()
    }
}

fn render_pred(p: &Pred, names: &[String]) -> String {
    match p {
        Pred::Cmp(c, op, v) => {
            let op = match op {
                Op::Eq => "=",
                Op::Ne => "<>",
                Op::Lt => "<",
                Op::Le => "<=",
                Op::Gt => ">",
                Op::Ge => ">=",
            };
            format!(
                "{} {op} {}",
                render_col(names, *c, c % 2 == 1),
                render_value(v)
            )
        }
        Pred::And(a, b) => format!("({} AND {})", render_pred(a, names), render_pred(b, names)),
        Pred::Or(a, b) => format!("({} OR {})", render_pred(a, names), render_pred(b, names)),
        Pred::Not(x) => format!("NOT {}", render_pred(x, names)),
    }
}

fn render(q: &Query) -> String {
    let base: Vec<String> = NAMES.iter().map(|s| s.to_string()).collect();
    let rel = rel_names(q);
    let select = match &q.group {
        Some(g) => g
            .cols
            .iter()
            .map(|&c| NAMES[c].to_string())
            .chain(g.aggs.iter().enumerate().map(|(j, (f, c))| {
                let f = match f {
                    Agg::Max => "MAX",
                    Agg::Min => "MIN",
                    Agg::Sum => "SUM",
                    Agg::Count => "COUNT",
                };
                format!("{f}({}) AS {}", NAMES[*c], agg_alias(j))
            }))
            .collect::<Vec<_>>()
            .join(", "),
        None if q.select.is_empty() => "*".into(),
        None => q
            .select
            .iter()
            .map(|(c, alias)| match alias {
                Some(a) => format!("{} AS {a}", NAMES[*c]),
                None => NAMES[*c].to_string(),
            })
            .collect::<Vec<_>>()
            .join(", "),
    };
    let mut sql = format!("SELECT {select} FROM t");
    if let Some(w) = &q.where_ {
        sql += &format!(" WHERE {}", render_pred(w, &base));
    }
    if let Some(g) = &q.group {
        let cols: Vec<&str> = g.cols.iter().map(|&c| NAMES[c]).collect();
        sql += &format!(" GROUP BY {}", cols.join(", "));
    }
    if let Some(h) = &q.having {
        sql += &format!(" HAVING {}", render_pred(h, &rel));
    }
    if !q.skyline.is_empty() {
        let items: Vec<String> = q
            .skyline
            .iter()
            .map(|&(c, d)| {
                let d = match d {
                    Dir::Min => "MIN",
                    Dir::Max => "MAX",
                    Dir::Diff => "DIFF",
                };
                format!("{} {d}", render_col(&rel, c, c % 3 == 2))
            })
            .collect();
        sql += &format!(" SKYLINE OF {}", items.join(", "));
    }
    if !q.order.is_empty() {
        let items: Vec<String> = q
            .order
            .iter()
            .map(|&(c, desc)| format!("{} {}", rel[c], if desc { "DESC" } else { "ASC" }))
            .collect();
        sql += &format!(" ORDER BY {}", items.join(", "));
    }
    if let Some(n) = q.limit {
        sql += &format!(" LIMIT {n}");
    }
    sql
}

// ---------------------------------------------------------------------
// The oracle: straight from the rows, no engine code.

/// SQL comparison as the dialect defines it: NULL sorts first, strings
/// compare with strings, numbers with numbers, anything else is
/// incomparable.
fn compare(a: &Value, b: &Value) -> Option<Ordering> {
    let num = |v: &Value| match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    };
    match (a, b) {
        (Value::Null, Value::Null) => Some(Ordering::Equal),
        (Value::Null, _) => Some(Ordering::Less),
        (_, Value::Null) => Some(Ordering::Greater),
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        _ => num(a)?.partial_cmp(&num(b)?),
    }
}

/// Two-valued predicate logic: a comparison with NULL, or across types,
/// is false (and `NOT` of it true).
fn holds(p: &Pred, row: &[Value]) -> bool {
    match p {
        Pred::Cmp(c, op, lit) => {
            let v = &row[*c];
            if matches!(v, Value::Null) || matches!(lit, Value::Null) {
                return false;
            }
            let Some(ord) = compare(v, lit) else {
                return false;
            };
            match op {
                Op::Eq => ord == Ordering::Equal,
                Op::Ne => ord != Ordering::Equal,
                Op::Lt => ord == Ordering::Less,
                Op::Le => ord != Ordering::Greater,
                Op::Gt => ord == Ordering::Greater,
                Op::Ge => ord != Ordering::Less,
            }
        }
        Pred::And(a, b) => holds(a, row) && holds(b, row),
        Pred::Or(a, b) => holds(a, row) || holds(b, row),
        Pred::Not(x) => !holds(x, row),
    }
}

fn group_rows(g: &Grouping, base: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut keys: Vec<Vec<Value>> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (i, row) in base.iter().enumerate() {
        let key: Vec<Value> = g.cols.iter().map(|&c| row[c].clone()).collect();
        match keys.iter().position(|k| *k == key) {
            Some(p) => members[p].push(i),
            None => {
                keys.push(key);
                members.push(vec![i]);
            }
        }
    }
    keys.into_iter()
        .zip(members)
        .map(|(mut out, m)| {
            for &(f, c) in &g.aggs {
                let vals = m.iter().map(|&i| match base[i][c] {
                    Value::Int(v) => v,
                    ref other => panic!("aggregated column holds {other:?}"),
                });
                out.push(Value::Int(match f {
                    Agg::Max => vals.max().unwrap(),
                    Agg::Min => vals.min().unwrap(),
                    Agg::Sum => vals.sum(),
                    Agg::Count => vals.count() as i64,
                }));
            }
            out
        })
        .collect()
}

/// What the oracle predicts for one query: the result rows, or the
/// skyline's `Semantic` error. `pushdown` says whether the external
/// engine can encode the skyline's input (so the external route must
/// write pages when the input is non-empty).
struct Expected {
    names: Vec<String>,
    result: Result<Vec<Vec<Value>>, ()>,
    skyline_input: usize,
    pushdown_encodable: bool,
}

fn fits_i32(v: f64) -> bool {
    v.fract() == 0.0 && v >= f64::from(i32::MIN) && v <= f64::from(i32::MAX)
}

fn oracle(q: &Query, table: &Table) -> Expected {
    let base: Vec<Vec<Value>> = table.rows().iter().map(|r| r.values().to_vec()).collect();
    let filtered: Vec<Vec<Value>> = base
        .into_iter()
        .filter(|r| q.where_.as_ref().is_none_or(|p| holds(p, r)))
        .collect();
    let mut rel = match &q.group {
        Some(g) => group_rows(g, &filtered),
        None => filtered,
    };
    if let Some(h) = &q.having {
        rel.retain(|r| holds(h, r));
    }
    let mut expected = Expected {
        names: Vec::new(),
        result: Err(()),
        skyline_input: rel.len(),
        pushdown_encodable: false,
    };
    if !q.skyline.is_empty() {
        let crit: Vec<(usize, bool)> = q
            .skyline
            .iter()
            .filter(|(_, d)| *d != Dir::Diff)
            .map(|&(c, d)| (c, d == Dir::Min))
            .collect();
        let diff: Vec<usize> = q
            .skyline
            .iter()
            .filter(|(_, d)| *d == Dir::Diff)
            .map(|&(c, _)| c)
            .collect();
        let mut keys = Vec::with_capacity(rel.len());
        for r in &rel {
            let mut key = Vec::with_capacity(crit.len());
            for &(c, is_min) in &crit {
                let v = match r[c] {
                    Value::Int(i) => i as f64,
                    Value::Float(f) => f,
                    _ => return expected, // non-numeric criterion: Semantic
                };
                key.push(if is_min { -v } else { v });
            }
            keys.push(key);
        }
        expected.pushdown_encodable = rel.iter().all(|r| {
            crit.iter().all(|&(c, _)| match r[c] {
                Value::Int(i) => fits_i32(i as f64),
                Value::Float(f) => fits_i32(f),
                _ => false,
            }) && diff
                .iter()
                .all(|&c| matches!(r[c], Value::Int(i) if i32::try_from(i).is_ok()))
        });
        let same_group = |p: usize, s: usize| diff.iter().all(|&c| rel[p][c] == rel[s][c]);
        let dominated = |s: usize| {
            (0..rel.len()).any(|p| {
                same_group(p, s)
                    && keys[p].iter().zip(&keys[s]).all(|(x, y)| x >= y)
                    && keys[p].iter().zip(&keys[s]).any(|(x, y)| x > y)
            })
        };
        let keep: Vec<usize> = (0..rel.len()).filter(|&s| !dominated(s)).collect();
        rel = keep.into_iter().map(|i| rel[i].clone()).collect();
    }
    // stable, so ties keep skyline (= input) order
    rel.sort_by(|a, b| {
        for &(c, desc) in &q.order {
            let ord = compare(&a[c], &b[c]).unwrap_or(Ordering::Equal);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    if let Some(n) = q.limit {
        rel.truncate(n);
    }
    if q.group.is_none() && !q.select.is_empty() {
        expected.names = q
            .select
            .iter()
            .map(|(c, alias)| alias.clone().unwrap_or_else(|| NAMES[*c].to_string()))
            .collect();
        rel = rel
            .into_iter()
            .map(|r| q.select.iter().map(|&(c, _)| r[c].clone()).collect())
            .collect();
    } else {
        expected.names = rel_names(q);
    }
    expected.result = Ok(rel);
    expected
}

// ---------------------------------------------------------------------

/// Can the pushdown take this query shape under `algo` at all?
fn algo_pushes_down(algo: SkylineAlgo, q: &Query) -> bool {
    let diff = q.skyline.iter().any(|(_, d)| *d == Dir::Diff);
    match algo {
        SkylineAlgo::DivideAndConquer => false,
        SkylineAlgo::Bnl | SkylineAlgo::Parallel | SkylineAlgo::Strata => !diff,
        SkylineAlgo::Auto | SkylineAlgo::Sfs => true,
    }
}

#[test]
fn generated_queries_match_the_oracle_on_both_routes_and_every_algorithm() {
    let mut external_runs = 0usize;
    let mut fallbacks = 0usize;
    let mut semantic_errors = 0usize;
    skyline_testkit::cases(160, 0x5D1F, |rng| {
        let table = table(rng);
        let mut catalog = Catalog::new();
        catalog.register("t", table.clone());
        for _ in 0..4 {
            let q = gen_query(rng);
            let sql = render(&q);
            let want = oracle(&q, &table);
            let mut errors = Vec::new();
            for algo in ALGOS {
                for external in [true, false] {
                    let disk = MemDisk::shared();
                    let opts = ExecOptions::default()
                        .with_algo(algo)
                        .with_threads(2)
                        .with_sort_pages(4)
                        .with_disk(Arc::clone(&disk) as Arc<dyn Disk>)
                        .with_external_threshold(if external { 0 } else { usize::MAX });
                    let what = format!("{sql}\n  [{algo:?}, external={external}]");
                    let got = execute_with(&sql, &catalog, &opts);
                    let writes = disk.stats().snapshot().writes;
                    match (&want.result, got) {
                        (Ok(rows), Ok(out)) => {
                            let names: Vec<&str> = out
                                .schema()
                                .columns()
                                .iter()
                                .map(|c| c.name.as_str())
                                .collect();
                            assert_eq!(names, want.names, "{what}: column names");
                            let got: Vec<Vec<Value>> =
                                out.rows().iter().map(|r| r.values().to_vec()).collect();
                            assert_eq!(&got, rows, "{what}: rows");
                        }
                        (Err(()), Err(e @ QueryError::Semantic(_))) => errors.push(e.to_string()),
                        (want, got) => panic!("{what}: expected {want:?}, got {got:?}"),
                    }
                    let pushed = external
                        && !q.skyline.is_empty()
                        && want.result.is_ok()
                        && want.pushdown_encodable
                        && algo_pushes_down(algo, &q);
                    if pushed && want.skyline_input > 0 {
                        assert!(writes > 0, "{what}: external route wrote no pages");
                        external_runs += 1;
                    } else if !pushed {
                        assert_eq!(writes, 0, "{what}: fell back but wrote pages");
                        if external && !q.skyline.is_empty() && want.result.is_ok() {
                            fallbacks += 1;
                        }
                    }
                    assert_eq!(disk.allocated_pages(), 0, "{what}: leaked pages");
                }
            }
            // Both routes report the same first offending row.
            if let Some(first) = errors.first() {
                assert!(first.contains("not numeric"), "{sql}: {first}");
                assert!(errors.iter().all(|e| e == first), "{sql}: {errors:?}");
                semantic_errors += 1;
            }
        }
    });
    // the generator really reaches every route
    assert!(external_runs > 500, "external runs: {external_runs}");
    assert!(fallbacks > 100, "fallbacks: {fallbacks}");
    assert!(semantic_errors > 5, "semantic errors: {semantic_errors}");
}
