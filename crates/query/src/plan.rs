//! Logical planning and execution.
//!
//! The plan shape is fixed — the skyline operator is *holistic* (does not
//! commute with selection), so `WHERE` always applies below `SKYLINE OF`,
//! and `ORDER BY`/`LIMIT` above it:
//!
//! ```text
//! Limit → Project → Sort → Skyline(SFS) → Filter → Scan
//! ```

use crate::ast::{AggFunc, Directive, Expr, Query, SelectItem};
use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::expr;
use crate::options::{matrix_pages, ExecOptions, SkylineAlgo};
use crate::parser::parse;
use skyline_core::algo;
use skyline_core::algo::MemSortOrder;
use skyline_core::cardinality::expected_skyline_size;
use skyline_core::lowdim::skyline_auto;
use skyline_core::par::{parallel_skyline_cancellable, AlgoError};
use skyline_core::KeyMatrix;
use skyline_exec::cancel::poll;
use skyline_exec::ExecError;
use skyline_relation::{Table, Tuple, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Parse and execute `sql` against `catalog`.
///
/// # Errors
/// Parse failures, plus everything [`execute_query`] reports.
pub fn execute(sql: &str, catalog: &Catalog) -> Result<Table, QueryError> {
    execute_query(&parse(sql)?, catalog)
}

/// Parse and execute `sql` under an execution contract.
///
/// # Errors
/// Parse failures, plus everything [`execute_query_with`] reports.
pub fn execute_with(sql: &str, catalog: &Catalog, opts: &ExecOptions) -> Result<Table, QueryError> {
    execute_query_with(&parse(sql)?, catalog, opts)
}

/// Execute an already-parsed query.
///
/// # Errors
/// Unknown tables or columns, and semantic violations (aggregates
/// without grouping, non-numeric skyline criteria).
pub fn execute_query(query: &Query, catalog: &Catalog) -> Result<Table, QueryError> {
    execute_query_with(query, catalog, &ExecOptions::default())
}

/// Execute an already-parsed query under an execution contract: the
/// skyline honours the algorithm choice, charges its working sets to
/// the quota pool, polls the cancel token, and spills to the contract's
/// disk (see [`ExecOptions`]).
///
/// Execution is late-materialized: WHERE, SKYLINE OF, ORDER BY and
/// LIMIT narrow a selection of row indices into the catalog's rows,
/// which are borrowed, never copied; output rows are built once, at the
/// end. GROUP BY produces its own rows, and the selection then indexes
/// those.
///
/// # Errors
/// Everything [`execute_query`] reports, plus the contract errors:
/// [`QueryError::QuotaExceeded`] and [`QueryError::Cancelled`].
///
/// # Panics
/// On an aggregate query that validation let through without a
/// grouping clause — a parser invariant, not reachable from SQL text.
pub fn execute_query_with(
    query: &Query,
    catalog: &Catalog,
    opts: &ExecOptions,
) -> Result<Table, QueryError> {
    let table = catalog
        .get(&query.from)
        .ok_or_else(|| QueryError::NoSuchTable(query.from.clone()))?;

    // Filter: the selection starts as every row WHERE keeps, ascending.
    let mut sel: Vec<usize> = match &query.where_clause {
        Some(pred) => {
            let pred = expr::validate(pred, table.schema())?;
            let rows = table.rows();
            (0..rows.len()).filter(|&i| pred.eval(&rows[i])).collect()
        }
        None => (0..table.len()).collect(),
    };

    // Group by / aggregate (the paper's Fig. 8 pre-pass shape). The
    // grouped output becomes the relation the skyline operates on —
    // matching the clause order of the paper's Fig. 3.
    let has_agg = query
        .select
        .iter()
        .any(|i| matches!(i, SelectItem::Aggregate { .. }));
    let grouped = !query.group_by.is_empty() || has_agg;
    let group_rel = if grouped {
        let rel = apply_group_by(table.schema(), table.rows(), &sel, query)?;
        sel = (0..rel.1.len()).collect();
        Some(rel)
    } else {
        None
    };
    let (schema, rows) = match &group_rel {
        Some((schema, rows)) => (schema, rows.as_slice()),
        None => (table.schema(), table.rows()),
    };
    if let Some(having) = &query.having {
        if !grouped {
            return Err(QueryError::Semantic(
                "HAVING requires GROUP BY or aggregates".into(),
            ));
        }
        let having = expr::validate(having, schema)?;
        sel.retain(|&i| having.eval(&rows[i]));
    }

    // Skyline (over the possibly-grouped relation)
    if let Some(clause) = &query.skyline {
        sel = apply_skyline(rows, &sel, schema, clause, opts)?;
    }

    // Order by (stable, so ties keep selection order)
    if !query.order_by.is_empty() {
        let mut keys = Vec::with_capacity(query.order_by.len());
        for item in &query.order_by {
            let idx = schema
                .index_of(&item.column)
                .ok_or_else(|| QueryError::NoSuchColumn(item.column.clone()))?;
            keys.push((idx, item.desc));
        }
        sel.sort_by(|&a, &b| {
            let (a, b) = (&rows[a], &rows[b]);
            for &(idx, desc) in &keys {
                let ord = a.get(idx).sql_cmp(b.get(idx)).unwrap_or(Ordering::Equal);
                let ord = if desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }

    // Limit
    if let Some(n) = query.limit {
        sel.truncate(n as usize);
    }

    // Materialize: the only place output rows are built. Grouping
    // already produced the output shape, so its selected rows move out.
    let Some((schema, mut rows)) = group_rel else {
        return materialize(table, &sel, &query.select);
    };
    let out = sel
        .iter()
        .map(|&i| std::mem::replace(&mut rows[i], Tuple::new(Vec::new())))
        .collect();
    Table::new(schema, out).map_err(|e| QueryError::Semantic(e.to_string()))
}

/// Build the output of an ungrouped query: the selected catalog rows,
/// cloned whole for `SELECT *` or projected onto the select list.
fn materialize(table: &Table, sel: &[usize], select: &[SelectItem]) -> Result<Table, QueryError> {
    let (schema, rows) = (table.schema(), table.rows());
    if select.is_empty() {
        let out = sel.iter().map(|&i| rows[i].clone()).collect();
        return Table::new(schema.clone(), out).map_err(|e| QueryError::Semantic(e.to_string()));
    }
    let mut indices = Vec::with_capacity(select.len());
    let mut out_cols = Vec::with_capacity(select.len());
    for item in select {
        let SelectItem::Column { name, .. } = item else {
            unreachable!("aggregates imply grouping");
        };
        let idx = schema
            .index_of(name)
            .ok_or_else(|| QueryError::NoSuchColumn(name.clone()))?;
        indices.push(idx);
        out_cols.push(skyline_relation::Column::new(
            item.output_name(),
            schema.column(idx).ty,
        ));
    }
    let out_schema =
        skyline_relation::Schema::new(out_cols).map_err(|e| QueryError::Semantic(e.to_string()))?;
    let out = sel.iter().map(|&i| rows[i].project(&indices)).collect();
    Table::new(out_schema, out).map_err(|e| QueryError::Semantic(e.to_string()))
}

/// Evaluate GROUP BY + aggregates over the selected rows: returns the
/// grouped schema and rows in select-list order. Every plain select
/// column must appear in GROUP BY (standard SQL restriction); with no
/// GROUP BY, the whole selection is one group.
fn apply_group_by(
    schema: &skyline_relation::Schema,
    rows: &[Tuple],
    sel: &[usize],
    query: &Query,
) -> Result<(skyline_relation::Schema, Vec<Tuple>), QueryError> {
    use skyline_relation::{Column, ColumnType, Schema};
    if query.select.is_empty() {
        return Err(QueryError::Semantic(
            "GROUP BY requires an explicit select list".into(),
        ));
    }
    let mut group_idx = Vec::with_capacity(query.group_by.len());
    for g in &query.group_by {
        group_idx.push(
            schema
                .index_of(g)
                .ok_or_else(|| QueryError::NoSuchColumn(g.clone()))?,
        );
    }
    // resolve select items
    enum Out {
        Group(usize),
        Agg(AggFunc, usize),
    }
    let mut outs = Vec::with_capacity(query.select.len());
    let mut out_cols = Vec::with_capacity(query.select.len());
    for item in &query.select {
        match item {
            SelectItem::Column { name, .. } => {
                let idx = schema
                    .index_of(name)
                    .ok_or_else(|| QueryError::NoSuchColumn(name.clone()))?;
                if !group_idx.contains(&idx) {
                    return Err(QueryError::Semantic(format!(
                        "column {name} must appear in GROUP BY or inside an aggregate"
                    )));
                }
                outs.push(Out::Group(idx));
                out_cols.push(Column::new(item.output_name(), schema.column(idx).ty));
            }
            SelectItem::Aggregate { func, column, .. } => {
                let idx = schema
                    .index_of(column)
                    .ok_or_else(|| QueryError::NoSuchColumn(column.clone()))?;
                let ty = match func {
                    AggFunc::Count => ColumnType::Int,
                    AggFunc::Avg => ColumnType::Float,
                    _ => schema.column(idx).ty,
                };
                outs.push(Out::Agg(*func, idx));
                out_cols.push(Column::new(item.output_name(), ty));
            }
        }
    }
    // partition rows into groups (insertion order preserved)
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Vec<usize>> = HashMap::new();
    for &i in sel {
        let key = group_idx
            .iter()
            .map(|&g| rows[i].get(g).to_string())
            .collect::<Vec<_>>()
            .join("\u{1}");
        groups
            .entry(key.clone())
            .or_insert_with(|| {
                order.push(key);
                Vec::new()
            })
            .push(i);
    }
    if query.group_by.is_empty() && !sel.is_empty() {
        // single implicit group
        debug_assert_eq!(groups.len(), 1);
    }
    let agg_value = |func: AggFunc, idx: usize, members: &[usize]| -> Result<Value, QueryError> {
        let nums: Vec<f64> = members
            .iter()
            .filter_map(|&i| rows[i].get(idx).as_f64())
            .collect();
        if func == AggFunc::Count {
            return Ok(Value::Int(
                members
                    .iter()
                    .filter(|&&i| !rows[i].get(idx).is_null())
                    .count() as i64,
            ));
        }
        if nums.is_empty() {
            return Ok(Value::Null);
        }
        let is_int = members
            .iter()
            .all(|&i| rows[i].get(idx).as_i64().is_some() || rows[i].get(idx).is_null());
        Ok(match func {
            AggFunc::Max => {
                let m = nums.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                if is_int {
                    Value::Int(m as i64)
                } else {
                    Value::Float(m)
                }
            }
            AggFunc::Min => {
                let m = nums.iter().cloned().fold(f64::INFINITY, f64::min);
                if is_int {
                    Value::Int(m as i64)
                } else {
                    Value::Float(m)
                }
            }
            AggFunc::Sum => {
                let s: f64 = nums.iter().sum();
                if is_int {
                    Value::Int(s as i64)
                } else {
                    Value::Float(s)
                }
            }
            AggFunc::Avg => Value::Float(nums.iter().sum::<f64>() / nums.len() as f64),
            AggFunc::Count => unreachable!("handled above"),
        })
    };
    let mut out_rows = Vec::with_capacity(groups.len());
    for key in &order {
        let members = &groups[key];
        let mut vals = Vec::with_capacity(outs.len());
        for out in &outs {
            match out {
                Out::Group(idx) => vals.push(rows[members[0]].get(*idx).clone()),
                Out::Agg(func, idx) => vals.push(agg_value(*func, *idx, members)?),
            }
        }
        out_rows.push(Tuple::new(vals));
    }
    let out_schema = Schema::new(out_cols).map_err(|e| QueryError::Semantic(e.to_string()))?;
    Ok((out_schema, out_rows))
}

/// Skyline of the selected rows: returns the surviving subset of `sel`
/// (which must be ascending), ascending.
fn apply_skyline(
    rows: &[Tuple],
    sel: &[usize],
    schema: &skyline_relation::Schema,
    clause: &crate::ast::SkylineClause,
    opts: &ExecOptions,
) -> Result<Vec<usize>, QueryError> {
    let mut crit: Vec<(usize, bool)> = Vec::new(); // (col idx, is_min)
    let mut diff: Vec<usize> = Vec::new();
    for item in &clause.items {
        let idx = schema
            .index_of(&item.column)
            .ok_or_else(|| QueryError::NoSuchColumn(item.column.clone()))?;
        match item.directive {
            Directive::Min => crit.push((idx, true)),
            Directive::Max => crit.push((idx, false)),
            Directive::Diff => diff.push(idx),
        }
    }
    if crit.is_empty() {
        return Err(QueryError::Semantic(
            "SKYLINE OF needs at least one MIN/MAX criterion".into(),
        ));
    }
    // Large relations push down to the external paged engine (a no-op
    // fall-through when values aren't representable there or the chosen
    // algorithm has no external form for this query shape).
    if sel.len() >= opts.external_threshold {
        if let Some(keep) =
            crate::pushdown::external_skyline_with(schema, rows, sel, &crit, &diff, opts)?
        {
            return Ok(keep);
        }
    }

    // The in-memory working set — the oriented matrix — charges the
    // quota pool before it is built, for as long as the filter runs.
    let d = crit.len();
    let _lease = match &opts.pool {
        Some(pool) => Some(
            pool.reserve(matrix_pages(sel.len(), d))
                .map_err(|e| QueryError::from_exec(ExecError::Buffer(e)))?,
        ),
        None => None,
    };
    let cancel = opts.cancel.as_ref();
    let mut data = Vec::with_capacity(sel.len() * d);
    for (rowno, &i) in sel.iter().enumerate() {
        poll(cancel, rowno as u64).map_err(QueryError::from_exec)?;
        for &(idx, is_min) in &crit {
            let v = rows[i].get(idx).as_f64().ok_or_else(|| {
                QueryError::Semantic(format!(
                    "row {rowno}: skyline column {} is not numeric",
                    schema.column(idx).name
                ))
            })?;
            data.push(if is_min { -v } else { v });
        }
    }
    let keys = KeyMatrix::new(d, data);

    // Positions into `sel` (= rows of `keys`).
    let mut keep: Vec<usize> = if diff.is_empty() {
        mem_skyline(&keys, opts)?
    } else {
        // group rows by the rendered diff key, skyline per group
        let mut groups: HashMap<String, Vec<usize>> = HashMap::new();
        for (pos, &i) in sel.iter().enumerate() {
            let gk = diff
                .iter()
                .map(|&idx| rows[i].get(idx).to_string())
                .collect::<Vec<_>>()
                .join("\u{1}");
            groups.entry(gk).or_default().push(pos);
        }
        let mut keep = Vec::new();
        for members in groups.values() {
            let sub = keys.select(members);
            keep.extend(mem_skyline(&sub, opts)?.iter().map(|&l| members[l]));
        }
        keep
    };
    keep.sort_unstable();
    Ok(keep.into_iter().map(|pos| sel[pos]).collect())
}

/// Dispatch the in-memory skyline to the contract's algorithm. `Auto`
/// keeps the historical behaviour: the 1-D/2-D/3-D special cases where
/// they apply, entropy-presorted SFS otherwise.
fn mem_skyline(keys: &KeyMatrix, opts: &ExecOptions) -> Result<Vec<usize>, QueryError> {
    match opts.algo {
        SkylineAlgo::Auto => Ok(skyline_auto(keys).indices),
        SkylineAlgo::Sfs => Ok(algo::sfs(keys, MemSortOrder::Entropy).indices),
        SkylineAlgo::Bnl => Ok(algo::bnl(keys).indices),
        SkylineAlgo::DivideAndConquer => Ok(algo::divide_and_conquer(keys).indices),
        SkylineAlgo::Parallel => {
            parallel_skyline_cancellable(keys, opts.threads, opts.cancel.as_ref()).map_err(|e| {
                match e {
                    AlgoError::Cancelled { records_processed } => {
                        QueryError::Cancelled { records_processed }
                    }
                    other => QueryError::Exec(other.to_string()),
                }
            })
        }
        // Stratum s₀ of the strata decomposition is the skyline.
        SkylineAlgo::Strata => Ok(algo::strata(keys, 1, MemSortOrder::Entropy)
            .0
            .into_iter()
            .next()
            .unwrap_or_default()),
    }
}

/// Render the logical plan for `sql`, annotated with the skyline
/// cardinality estimate the optimizer would use.
///
/// # Errors
/// Parse failures and unknown tables or columns.
pub fn explain(sql: &str, catalog: &Catalog) -> Result<String, QueryError> {
    let q = parse(sql)?;
    let table = catalog
        .get(&q.from)
        .ok_or_else(|| QueryError::NoSuchTable(q.from.clone()))?;
    let n = table.len();
    let mut lines: Vec<String> = Vec::new();
    if let Some(limit) = q.limit {
        lines.push(format!("Limit({limit})"));
    }
    if !q.select.is_empty() {
        let items: Vec<String> = q.select.iter().map(SelectItem::output_name).collect();
        lines.push(format!("Project({})", items.join(", ")));
    }
    if !q.order_by.is_empty() {
        let items: Vec<String> = q
            .order_by
            .iter()
            .map(|o| format!("{} {}", o.column, if o.desc { "DESC" } else { "ASC" }))
            .collect();
        lines.push(format!("Sort({})", items.join(", ")));
    }
    if let Some(sky) = &q.skyline {
        let items: Vec<String> = sky
            .items
            .iter()
            .map(|i| {
                format!(
                    "{} {}",
                    i.column,
                    match i.directive {
                        Directive::Min => "MIN",
                        Directive::Max => "MAX",
                        Directive::Diff => "DIFF",
                    }
                )
            })
            .collect();
        let d = sky
            .items
            .iter()
            .filter(|i| i.directive != Directive::Diff)
            .count();
        let est = if d > 0 {
            expected_skyline_size(n, d)
        } else {
            0.0
        };
        lines.push(format!(
            "Skyline[SFS, presort=entropy, est≈{est:.0} rows]({})",
            items.join(", ")
        ));
    }
    if let Some(h) = &q.having {
        lines.push(format!("Having({})", render_expr(h)));
    }
    if !q.group_by.is_empty() {
        lines.push(format!("GroupBy({})", q.group_by.join(", ")));
    }
    if let Some(w) = &q.where_clause {
        lines.push(format!("Filter({})", render_expr(w)));
    }
    lines.push(format!("Scan({}, {n} rows)", q.from));

    let mut out = String::new();
    for (depth, line) in lines.iter().enumerate() {
        if depth == 0 {
            let _ = writeln!(out, "{line}");
        } else {
            let _ = writeln!(out, "{}└─ {line}", "   ".repeat(depth - 1));
        }
    }
    Ok(out)
}

fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Column(c) => c.clone(),
        Expr::Literal(Value::Str(s)) => format!("'{s}'"),
        Expr::Literal(v) => v.to_string(),
        Expr::Cmp { left, op, right } => {
            format!("{} {op} {}", render_expr(left), render_expr(right))
        }
        Expr::And(a, b) => format!("({} AND {})", render_expr(a), render_expr(b)),
        Expr::Or(a, b) => format!("({} OR {})", render_expr(a), render_expr(b)),
        Expr::Not(x) => format!("NOT {}", render_expr(x)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_relation::samples::{good_eats, GOOD_EATS_SKYLINE};

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        c.register("GoodEats", good_eats());
        c
    }

    #[test]
    fn figure_2_skyline_of_figure_1() {
        let out = execute(
            "SELECT * FROM GoodEats SKYLINE OF S MAX, F MAX, D MAX, price MIN",
            &cat(),
        )
        .unwrap();
        let names: Vec<&str> = out
            .rows()
            .iter()
            .map(|r| r.get(0).as_str().unwrap())
            .collect();
        assert_eq!(names, GOOD_EATS_SKYLINE);
    }

    #[test]
    fn removing_price_drops_fenton() {
        // paper: "If we were to remove price as one of our criteria, then
        // the Fenton & Pickle should be eliminated too."
        let out = execute(
            "SELECT restaurant FROM GoodEats SKYLINE OF S MAX, F MAX, D MAX",
            &cat(),
        )
        .unwrap();
        let names: Vec<&str> = out
            .rows()
            .iter()
            .map(|r| r.get(0).as_str().unwrap())
            .collect();
        assert_eq!(names, vec!["Summer Moon", "Zakopane", "Yamanote"]);
    }

    #[test]
    fn where_below_skyline_changes_result() {
        // Skyline is holistic: filtering first genuinely changes the
        // answer. Without Zakopane, the Brearton Grill re-enters.
        let out = execute(
            "SELECT restaurant FROM GoodEats WHERE restaurant <> 'Zakopane' \
             SKYLINE OF S MAX, F MAX, D MAX, price MIN",
            &cat(),
        )
        .unwrap();
        let names: Vec<&str> = out
            .rows()
            .iter()
            .map(|r| r.get(0).as_str().unwrap())
            .collect();
        assert!(names.contains(&"Brearton Grill"));
    }

    #[test]
    fn order_by_and_limit() {
        let out = execute(
            "SELECT restaurant, price FROM GoodEats \
             SKYLINE OF S MAX, F MAX, D MAX, price MIN \
             ORDER BY price ASC LIMIT 2",
            &cat(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0].get(0).as_str(), Some("Fenton & Pickle"));
        assert_eq!(out.rows()[1].get(0).as_str(), Some("Summer Moon"));
    }

    #[test]
    fn diff_groups() {
        use skyline_relation::{tuple, ColumnType, Schema, Table};
        let schema = Schema::of(&[
            ("name", ColumnType::Str),
            ("cuisine", ColumnType::Str),
            ("food", ColumnType::Int),
        ]);
        let t = Table::new(
            schema,
            vec![
                tuple!["a", "thai", 20],
                tuple!["b", "thai", 25],
                tuple!["c", "bbq", 10],
            ],
        )
        .unwrap();
        let mut c = Catalog::new();
        c.register("r", t);
        let out = execute("SELECT name FROM r SKYLINE OF food MAX, cuisine DIFF", &c).unwrap();
        let names: Vec<&str> = out
            .rows()
            .iter()
            .map(|r| r.get(0).as_str().unwrap())
            .collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn semantic_errors() {
        assert!(matches!(
            execute("SELECT * FROM nope SKYLINE OF a", &cat()),
            Err(QueryError::NoSuchTable(_))
        ));
        assert!(matches!(
            execute("SELECT * FROM GoodEats SKYLINE OF bogus MAX", &cat()),
            Err(QueryError::NoSuchColumn(_))
        ));
        assert!(matches!(
            execute("SELECT * FROM GoodEats SKYLINE OF restaurant MAX", &cat()),
            Err(QueryError::Semantic(_))
        ));
        assert!(matches!(
            execute("SELECT * FROM GoodEats SKYLINE OF restaurant DIFF", &cat()),
            Err(QueryError::Semantic(_))
        ));
    }

    #[test]
    fn explain_renders_plan() {
        let plan = explain(
            "SELECT restaurant FROM GoodEats WHERE price < 60 \
             SKYLINE OF S MAX, price MIN ORDER BY price LIMIT 3",
            &cat(),
        )
        .unwrap();
        assert!(plan.contains("Limit(3)"));
        assert!(plan.contains("Skyline[SFS"));
        assert!(plan.contains("Filter(price < 60)"));
        assert!(plan.contains("Scan(GoodEats, 6 rows)"));
        // the skyline node is annotated with a cardinality estimate
        assert!(plan.contains("est≈"));
    }

    #[test]
    fn figure_8_group_max_reduction() {
        use skyline_relation::{tuple, ColumnType, Schema, Table};
        // small-domain table: GROUP BY a1,a2 with MAX(a3) collapses each
        // group to its best a3 — the dimensional-reduction pre-pass
        let schema = Schema::of(&[
            ("a1", ColumnType::Int),
            ("a2", ColumnType::Int),
            ("a3", ColumnType::Int),
        ]);
        let t = Table::new(
            schema,
            vec![
                tuple![1, 1, 5],
                tuple![1, 1, 9],
                tuple![1, 2, 3],
                tuple![2, 1, 7],
                tuple![2, 1, 2],
            ],
        )
        .unwrap();
        let mut c = Catalog::new();
        c.register("R", t);
        let out = execute(
            "SELECT a1, a2, MAX(a3) AS a3 FROM R GROUP BY a1, a2              ORDER BY a1 DESC, a2 DESC",
            &c,
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.schema().index_of("a3"), Some(2));
        let rows: Vec<Vec<i64>> = out
            .rows()
            .iter()
            .map(|r| r.values().iter().map(|v| v.as_i64().unwrap()).collect())
            .collect();
        assert_eq!(rows, vec![vec![2, 1, 7], vec![1, 2, 3], vec![1, 1, 9]]);

        // and the skyline of the reduced relation equals the skyline of
        // the full one (the optimization's correctness claim)
        let reduced_sky = execute(
            "SELECT a1, a2, MAX(a3) AS a3 FROM R GROUP BY a1, a2              SKYLINE OF a1 MAX, a2 MAX, a3 MAX",
            &c,
        )
        .unwrap();
        let full_sky = execute("SELECT * FROM R SKYLINE OF a1, a2, a3", &c).unwrap();
        let key = |t: &Table| {
            let mut v: Vec<Vec<i64>> = t
                .rows()
                .iter()
                .map(|r| r.values().iter().map(|x| x.as_i64().unwrap()).collect())
                .collect();
            v.sort();
            v
        };
        assert_eq!(key(&reduced_sky), key(&full_sky));
    }

    #[test]
    fn aggregates_without_group_by_collapse_to_one_row() {
        let out = execute(
            "SELECT COUNT(price) AS n, MIN(price) AS lo, MAX(price) AS hi, AVG(S) AS s              FROM GoodEats",
            &cat(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        let r = &out.rows()[0];
        assert_eq!(r.get(0).as_i64(), Some(6));
        assert_eq!(r.get(1).as_f64(), Some(17.5));
        assert_eq!(r.get(2).as_f64(), Some(62.0));
        let avg_s = r.get(3).as_f64().unwrap();
        assert!((avg_s - 112.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn ungrouped_column_with_aggregate_is_error() {
        assert!(matches!(
            execute("SELECT restaurant, MAX(S) FROM GoodEats", &cat()),
            Err(QueryError::Semantic(_))
        ));
        assert!(matches!(
            execute(
                "SELECT restaurant, MAX(S) AS s FROM GoodEats GROUP BY price",
                &cat()
            ),
            Err(QueryError::Semantic(_))
        ));
    }

    #[test]
    fn group_by_without_select_list_is_error() {
        assert!(matches!(
            execute("SELECT * FROM GoodEats GROUP BY S", &cat()),
            Err(QueryError::Semantic(_))
        ));
    }

    #[test]
    fn having_filters_groups() {
        use skyline_relation::{tuple, ColumnType, Schema, Table};
        let schema = Schema::of(&[("g", ColumnType::Int), ("x", ColumnType::Int)]);
        let t = Table::new(
            schema,
            vec![tuple![1, 5], tuple![1, 9], tuple![2, 3], tuple![3, 8]],
        )
        .unwrap();
        let mut c = Catalog::new();
        c.register("t", t);
        // Figure 3's clause order: group by … having … skyline of
        let out = execute(
            "SELECT g, MAX(x) AS best FROM t GROUP BY g HAVING best > 4              SKYLINE OF best MAX, g MIN ORDER BY g",
            &c,
        )
        .unwrap();
        let rows: Vec<Vec<i64>> = out
            .rows()
            .iter()
            .map(|r| r.values().iter().map(|v| v.as_i64().unwrap()).collect())
            .collect();
        // groups: (1,9), (3,8) pass HAVING; skyline keeps both
        // ((1,9) has better best AND smaller g → (3,8) dominated)
        assert_eq!(rows, vec![vec![1, 9]]);
        // HAVING without grouping is rejected
        assert!(matches!(
            execute("SELECT g FROM t HAVING g > 1", &c),
            Err(QueryError::Semantic(_))
        ));
    }

    #[test]
    fn count_ignores_nulls() {
        use skyline_relation::{ColumnType, Schema, Table, Tuple, Value};
        let schema = Schema::of(&[("g", ColumnType::Int), ("x", ColumnType::Int)]);
        let t = Table::new(
            schema,
            vec![
                Tuple::new(vec![Value::Int(1), Value::Int(5)]),
                Tuple::new(vec![Value::Int(1), Value::Null]),
                Tuple::new(vec![Value::Int(1), Value::Int(7)]),
            ],
        )
        .unwrap();
        let mut c = Catalog::new();
        c.register("t", t);
        let out = execute("SELECT g, COUNT(x) AS n, SUM(x) AS s FROM t GROUP BY g", &c).unwrap();
        assert_eq!(out.rows()[0].get(1).as_i64(), Some(2));
        assert_eq!(out.rows()[0].get(2).as_i64(), Some(12));
    }

    #[test]
    fn plain_select_passthrough() {
        let out = execute("SELECT restaurant FROM GoodEats LIMIT 2", &cat()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().len(), 1);
    }
}
