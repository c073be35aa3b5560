//! Pushing `SKYLINE OF` down into the paged external engine.
//!
//! The in-memory executor in [`crate::plan`] is right for small and
//! medium tables; past a threshold the planner hands the skyline to the
//! external SFS operator instead: the selected rows are encoded in one
//! pass into one flat buffer of fixed-width records (criteria + diff
//! attributes as i32, the originating row index in the payload) with
//! the entropy statistics folded into the same loop
//! ([`encode_selection`]), loaded into a heap file, entropy-presorted
//! with the external sort, and filtered through a window sized by the §6
//! cardinality estimator. This is the integration the paper argues for —
//! the skyline as *an operator inside the engine*, not an application
//! post-pass.
//!
//! [`external_skyline_with`] is the contract-aware entry: it honours the
//! [`ExecOptions`] algorithm choice (SFS, BNL, the parallel pipeline,
//! strata), charges each pass's arena against the optional quota pool
//! (sort arena while sorting, filter window while filtering — the same
//! lease discipline as `planner::budgeted_skyline_plan`), threads the
//! cancel token through encoding and the operators, and spills to the
//! caller's disk when one is given. Every heap file it creates is
//! temp-marked, so pages are reclaimed on *every* path — success, typed
//! quota error, cancellation, or storage fault.
//!
//! Falls back to the in-memory path when a criterion value does not fit
//! an `i32` (the record codec's attribute width), or when the chosen
//! algorithm has no external form for the query shape (divide-and-
//! conquer always; BNL/parallel/strata under a `DIFF` clause).

use crate::error::QueryError;
use crate::options::{ExecOptions, SkylineAlgo};
use skyline_core::cardinality::recommend_window_pages;
use skyline_core::planner::{load_heap, parallel_skyline_pipeline, presort, sfs_filter};
use skyline_core::strata::strata_external;
use skyline_core::{
    Criterion, Direction, EntropyScore, SfsConfig, SkylineMetrics, SkylineSpec, SortOrder,
};
use skyline_exec::cancel::poll;
use skyline_exec::{CancelToken, ExecError, Operator};
use skyline_relation::{ColumnStats, RecordLayout, Schema, TableStats, Tuple};
use skyline_storage::{BufferLease, Disk, HeapFile, MemDisk, StorageError};
use std::sync::Arc;

/// Row-count threshold above which [`crate::execute`] routes the skyline
/// through the external engine.
pub const EXTERNAL_THRESHOLD: usize = 50_000;

fn storage_err(e: StorageError) -> QueryError {
    QueryError::from_exec(ExecError::Storage(e))
}

fn check_cancel(cancel: Option<&CancelToken>, count: u64) -> Result<(), QueryError> {
    poll(cancel, count).map_err(QueryError::from_exec)
}

/// Charge `pages` against the quota pool, if one is set. The lease is
/// released when the returned guard drops — including on error unwind.
fn reserve(opts: &ExecOptions, pages: usize) -> Result<Option<BufferLease>, QueryError> {
    match &opts.pool {
        Some(pool) => pool
            .reserve(pages)
            .map(Some)
            .map_err(|e| QueryError::from_exec(ExecError::Buffer(e))),
        None => Ok(None),
    }
}

/// Attempt the external skyline with the historical defaults (SFS, no
/// quota, no deadline, private in-memory spill disk). Returns `Ok(None)`
/// when the rows cannot be pushed down (criterion values outside i32),
/// in which case the caller should run the in-memory path.
///
/// `sel` is the ascending selection of `rows` the skyline ranges over;
/// `crit` is `(column index, is_min)` per MIN/MAX criterion; `diff` is
/// the DIFF column indices. Returned row indices are a subset of `sel`,
/// ascending.
///
/// # Errors
/// Everything [`external_skyline_with`] reports.
pub fn external_skyline_indices(
    schema: &Schema,
    rows: &[Tuple],
    sel: &[usize],
    crit: &[(usize, bool)],
    diff: &[usize],
) -> Result<Option<Vec<usize>>, QueryError> {
    external_skyline_with(schema, rows, sel, crit, diff, &ExecOptions::default())
}

/// [`external_skyline_indices`] under an execution contract: algorithm
/// choice, page quota, cancellation, and spill-disk placement all come
/// from `opts`. Returns `Ok(None)` when the query cannot (or should
/// not) run externally; the caller then uses the in-memory executor.
///
/// # Errors
/// [`QueryError::QuotaExceeded`] when a pass's arena does not fit the
/// quota pool, [`QueryError::Cancelled`] when the token trips, and
/// [`QueryError::Exec`] for storage or worker failures. No heap pages
/// remain allocated on any error path.
pub fn external_skyline_with(
    schema: &Schema,
    rows: &[Tuple],
    sel: &[usize],
    crit: &[(usize, bool)],
    diff: &[usize],
    opts: &ExecOptions,
) -> Result<Option<Vec<usize>>, QueryError> {
    match opts.algo {
        // No external divide-and-conquer; BNL, the parallel pipeline and
        // the strata machinery reject DIFF grouping.
        SkylineAlgo::DivideAndConquer => return Ok(None),
        SkylineAlgo::Bnl | SkylineAlgo::Parallel | SkylineAlgo::Strata if !diff.is_empty() => {
            return Ok(None)
        }
        _ => {}
    }
    let Some(encoded) = encode_selection(schema, rows, sel, crit, diff, opts.cancel.as_ref())?
    else {
        return Ok(None);
    };
    let EncodedSelection {
        layout,
        spec,
        records,
        stats,
    } = encoded;

    let disk: Arc<dyn Disk> = match &opts.disk {
        Some(d) => Arc::clone(d),
        None => MemDisk::shared(),
    };
    let mut heap = load_heap(
        Arc::clone(&disk),
        layout.record_size(),
        records.chunks_exact(layout.record_size()),
    )
    .map_err(storage_err)?;
    drop(records);
    // Temp-marked: the input's pages are reclaimed when the last handle
    // drops, whichever path (success or unwind) gets there.
    heap.mark_temp();
    let heap = Arc::new(heap);
    let stats = EntropyScore::new(stats);

    let k = crit.len();
    let window_pages = recommend_window_pages(sel.len(), k.max(1), 4 * k.max(1));
    let mut keep = match opts.algo {
        SkylineAlgo::Bnl => bnl_path(heap, layout, spec, window_pages, disk, opts)?,
        SkylineAlgo::Parallel => {
            parallel_path(heap, layout, spec, stats, window_pages, disk, opts)?
        }
        SkylineAlgo::Strata => strata_path(heap, layout, spec, stats, window_pages, disk, opts)?,
        // Auto and Sfs share the paper's presort+filter; DivideAndConquer
        // returned above.
        _ => sfs_path(heap, layout, spec, stats, window_pages, disk, opts)?,
    };
    keep.sort_unstable();
    Ok(Some(keep))
}

/// A selection encoded for the external engine in one pass.
#[derive(Debug, Clone)]
pub struct EncodedSelection {
    /// Record layout: the criteria as `i32`, then the DIFF attributes,
    /// then the originating row index as an 8-byte payload.
    pub layout: RecordLayout,
    /// The skyline over that layout: criterion `j` is attribute `j`,
    /// the DIFF attributes follow.
    pub spec: SkylineSpec,
    /// Every record back to back, in selection order
    /// (`layout.record_size()` bytes each).
    pub records: Vec<u8>,
    /// Oriented min/max statistics of the criteria, bit-identical to
    /// `planner::entropy_stats_of_records` over `records`.
    pub stats: TableStats,
}

/// Encode the selected rows into one flat record buffer and fold the
/// entropy statistics in the same loop. Returns `Ok(None)` when a value
/// cannot be pushed down: a criterion that is not an integer in the
/// `i32` range, or a DIFF value that is not an `i32` integer.
///
/// # Errors
/// [`QueryError::Semantic`] for a non-numeric criterion value (`row` in
/// the message is the position in `sel`), [`QueryError::Cancelled`]
/// when the token trips.
pub fn encode_selection(
    schema: &Schema,
    rows: &[Tuple],
    sel: &[usize],
    crit: &[(usize, bool)],
    diff: &[usize],
    cancel: Option<&CancelToken>,
) -> Result<Option<EncodedSelection>, QueryError> {
    let k = crit.len();
    let m = diff.len();
    let layout = RecordLayout::new(k + m, 8); // payload: row index as u64
    let spec = SkylineSpec::new(
        crit.iter()
            .enumerate()
            .map(|(slot, &(_, is_min))| Criterion {
                attr: slot,
                direction: if is_min {
                    Direction::Min
                } else {
                    Direction::Max
                },
            })
            .collect(),
    )
    .with_diff((k..k + m).collect());

    // encode: oriented values must fit i32 exactly
    let mut records = Vec::with_capacity(sel.len() * layout.record_size());
    let mut cols = vec![ColumnStats::empty(); k];
    for (rowno, &i) in sel.iter().enumerate() {
        check_cancel(cancel, rowno as u64)?;
        let row = &rows[i];
        for ((c, col), &(idx, _)) in spec.criteria.iter().zip(&mut cols).zip(crit) {
            let v = row.get(idx).as_f64().ok_or_else(|| {
                QueryError::Semantic(format!(
                    "row {rowno}: skyline column {} is not numeric",
                    schema.column(idx).name
                ))
            })?;
            if v.fract() != 0.0 || v < f64::from(i32::MIN) || v > f64::from(i32::MAX) {
                return Ok(None); // not representable: fall back
            }
            let a = v as i32;
            records.extend_from_slice(&a.to_le_bytes());
            // Oriented from the encoded `i32`, as `oriented_stats` reads
            // it back from the record, so the statistics stay
            // bit-identical to a separate pass (`-0.0` encodes as `0`).
            col.observe(c.orient(f64::from(a)));
        }
        for &idx in diff {
            let Some(v) = row.get(idx).as_i64() else {
                return Ok(None); // non-integer diff key: fall back
            };
            let Ok(v) = i32::try_from(v) else {
                return Ok(None);
            };
            records.extend_from_slice(&v.to_le_bytes());
        }
        records.extend_from_slice(&(i as u64).to_le_bytes());
    }
    Ok(Some(EncodedSelection {
        layout,
        spec,
        records,
        stats: TableStats::from_columns(cols),
    }))
}

/// Entropy presort (sort arena charged while sorting) then the SFS
/// filter (window charged while filtering) — the lease discipline of
/// `planner::budgeted_skyline_plan`.
fn sfs_path(
    heap: Arc<HeapFile>,
    layout: RecordLayout,
    spec: SkylineSpec,
    stats: EntropyScore,
    window_pages: usize,
    disk: Arc<dyn Disk>,
    opts: &ExecOptions,
) -> Result<Vec<usize>, QueryError> {
    let sort_lease = reserve(opts, opts.sort_pages)?;
    check_cancel(opts.cancel.as_ref(), 0)?;
    let mut sorted = presort(
        heap,
        layout,
        spec.clone(),
        SortOrder::Entropy,
        Some(stats),
        opts.sort_pages,
        Arc::clone(&disk),
    )
    .map_err(QueryError::from_exec)?;
    drop(sort_lease);
    sorted.mark_temp();

    let _window_lease = reserve(opts, window_pages)?;
    let mut sfs = sfs_filter(
        Arc::new(sorted),
        layout,
        spec,
        SfsConfig::new(window_pages).with_projection(),
        disk,
        SkylineMetrics::shared(),
    )
    .map_err(QueryError::from_exec)?;
    if let Some(token) = &opts.cancel {
        sfs = sfs.with_cancel(token.clone());
    }
    drain_tags(&mut sfs, &layout)
}

/// Block-nested-loops straight over the unsorted heap; only the window
/// is charged.
fn bnl_path(
    heap: Arc<HeapFile>,
    layout: RecordLayout,
    spec: SkylineSpec,
    window_pages: usize,
    disk: Arc<dyn Disk>,
    opts: &ExecOptions,
) -> Result<Vec<usize>, QueryError> {
    let _window_lease = reserve(opts, window_pages)?;
    let mut bnl = skyline_core::planner::bnl_over(
        heap,
        layout,
        spec,
        window_pages,
        disk,
        SkylineMetrics::shared(),
    )
    .map_err(QueryError::from_exec)?;
    if let Some(token) = &opts.cancel {
        bnl = bnl.with_cancel(token.clone());
    }
    drain_tags(&mut bnl, &layout)
}

/// The threaded presort + partitioned filter; the pipeline charges the
/// pool itself, so only the pass-through wiring lives here. The
/// materialized skyline heap is temp-marked before scanning so its pages
/// are reclaimed even when a read faults mid-scan.
fn parallel_path(
    heap: Arc<HeapFile>,
    layout: RecordLayout,
    spec: SkylineSpec,
    stats: EntropyScore,
    window_pages: usize,
    disk: Arc<dyn Disk>,
    opts: &ExecOptions,
) -> Result<Vec<usize>, QueryError> {
    let outcome = parallel_skyline_pipeline(
        heap,
        layout,
        spec,
        SortOrder::Entropy,
        Some(stats),
        SfsConfig::new(window_pages).with_projection(),
        opts.sort_pages,
        opts.threads,
        disk,
        SkylineMetrics::shared(),
        opts.pool.as_ref(),
        opts.cancel.clone(),
    )
    .map_err(QueryError::from_exec)?;
    let mut sky = outcome.skyline;
    sky.mark_temp();
    scan_tags(&sky, &layout, opts.cancel.as_ref())
}

/// `strata_external` with `k = 1`: stratum s₀ is the skyline. The
/// machinery has no quota/cancel plumbing of its own, so the whole
/// footprint (sort arena + window) is charged up front and the token is
/// checked at the pass boundaries.
fn strata_path(
    heap: Arc<HeapFile>,
    layout: RecordLayout,
    spec: SkylineSpec,
    stats: EntropyScore,
    window_pages: usize,
    disk: Arc<dyn Disk>,
    opts: &ExecOptions,
) -> Result<Vec<usize>, QueryError> {
    let _lease = reserve(opts, opts.sort_pages + window_pages)?;
    check_cancel(opts.cancel.as_ref(), 0)?;
    let result = strata_external(
        heap,
        layout,
        &spec,
        1,
        window_pages,
        opts.sort_pages,
        SortOrder::Entropy,
        Some(stats),
        disk,
    )
    .map_err(QueryError::from_exec)?;
    // Caller owns the persisted strata; temp-mark them all so every exit
    // from here reclaims their pages.
    let mut strata = result.strata;
    for s in &mut strata {
        s.mark_temp();
    }
    check_cancel(
        opts.cancel.as_ref(),
        strata.first().map_or(0, HeapFile::len),
    )?;
    match strata.first() {
        Some(s0) => scan_tags(s0, &layout, opts.cancel.as_ref()),
        None => Ok(Vec::new()),
    }
}

/// Drain an operator's output, decoding the row tag from each payload.
fn drain_tags(op: &mut dyn Operator, layout: &RecordLayout) -> Result<Vec<usize>, QueryError> {
    let mut keep = Vec::new();
    op.open().map_err(QueryError::from_exec)?;
    while let Some(r) = op.next().map_err(QueryError::from_exec)? {
        keep.push(tag_of(layout, r)?);
    }
    op.close();
    Ok(keep)
}

/// Read the row tags out of a materialized heap file.
fn scan_tags(
    heap: &HeapFile,
    layout: &RecordLayout,
    cancel: Option<&CancelToken>,
) -> Result<Vec<usize>, QueryError> {
    let mut keep = Vec::new();
    let mut scan = heap.scan();
    while let Some(r) = scan.next_record().map_err(storage_err)? {
        let tag = tag_of(layout, r)?;
        check_cancel(cancel, keep.len() as u64)?;
        keep.push(tag);
    }
    Ok(keep)
}

/// The 8-byte row tag this module planted in the record payload.
fn tag_of(layout: &RecordLayout, record: &[u8]) -> Result<usize, QueryError> {
    let payload = layout.payload_of(record);
    let bytes: [u8; 8] = payload
        .get(..8)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .ok_or_else(|| QueryError::Exec("record payload lost its 8-byte row tag".into()))?;
    Ok(u64::from_le_bytes(bytes) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_relation::{tuple, ColumnType, Value};
    use skyline_storage::BufferPool;

    fn random_table(n: usize) -> (Schema, Vec<Tuple>) {
        let schema = Schema::of(&[
            ("x", ColumnType::Int),
            ("y", ColumnType::Int),
            ("g", ColumnType::Int),
        ]);
        let rows = (0..n as i64)
            .map(|i| tuple![(i * 37) % 101, (i * 53) % 97, i % 3])
            .collect();
        (schema, rows)
    }

    fn all(rows: &[Tuple]) -> Vec<usize> {
        (0..rows.len()).collect()
    }

    fn in_memory(rows: &[Tuple], crit: &[(usize, bool)], diff: &[usize]) -> Vec<usize> {
        use skyline_core::KeyMatrix;
        let d = crit.len();
        let mut data = Vec::with_capacity(rows.len() * d);
        for r in rows {
            for &(idx, is_min) in crit {
                let v = r.get(idx).as_f64().unwrap();
                data.push(if is_min { -v } else { v });
            }
        }
        let km = KeyMatrix::new(d, data);
        if diff.is_empty() {
            let mut out = skyline_core::algo::naive(&km).indices;
            out.sort_unstable();
            out
        } else {
            use std::collections::HashMap;
            let mut groups: HashMap<Vec<i64>, Vec<usize>> = HashMap::new();
            for (i, r) in rows.iter().enumerate() {
                let gk: Vec<i64> = diff.iter().map(|&d| r.get(d).as_i64().unwrap()).collect();
                groups.entry(gk).or_default().push(i);
            }
            let mut out = Vec::new();
            for members in groups.values() {
                let sub = km.select(members);
                out.extend(
                    skyline_core::algo::naive(&sub)
                        .indices
                        .iter()
                        .map(|&l| members[l]),
                );
            }
            out.sort_unstable();
            out
        }
    }

    #[test]
    fn external_matches_in_memory() {
        let (schema, rows) = random_table(3_000);
        for (crit, diff) in [
            (vec![(0usize, false), (1usize, false)], vec![]),
            (vec![(0, true), (1, false)], vec![]),
            (vec![(0, false), (1, true)], vec![2usize]),
        ] {
            let ext = external_skyline_indices(&schema, &rows, &all(&rows), &crit, &diff)
                .unwrap()
                .expect("pushdown applies");
            assert_eq!(ext, in_memory(&rows, &crit, &diff), "{crit:?} {diff:?}");
        }
    }

    #[test]
    fn a_sub_selection_returns_its_row_indices() {
        let (schema, rows) = random_table(3_000);
        let crit = vec![(0usize, false), (1usize, true)];
        let sel: Vec<usize> = (0..rows.len()).filter(|i| i % 3 != 1).collect();
        let picked: Vec<Tuple> = sel.iter().map(|&i| rows[i].clone()).collect();
        let want: Vec<usize> = in_memory(&picked, &crit, &[])
            .into_iter()
            .map(|pos| sel[pos])
            .collect();
        let got = external_skyline_indices(&schema, &rows, &sel, &crit, &[])
            .unwrap()
            .expect("pushdown applies");
        assert_eq!(got, want);
    }

    #[test]
    fn every_external_algorithm_matches_the_oracle() {
        let (schema, rows) = random_table(3_000);
        let crit = vec![(0usize, false), (1usize, true)];
        let oracle = in_memory(&rows, &crit, &[]);
        for algo in [
            SkylineAlgo::Auto,
            SkylineAlgo::Sfs,
            SkylineAlgo::Bnl,
            SkylineAlgo::Parallel,
            SkylineAlgo::Strata,
        ] {
            let opts = ExecOptions::default().with_algo(algo).with_threads(2);
            let ext = external_skyline_with(&schema, &rows, &all(&rows), &crit, &[], &opts)
                .unwrap()
                .expect("pushdown applies");
            assert_eq!(ext, oracle, "{algo:?}");
        }
    }

    #[test]
    fn dnc_and_diff_restricted_algorithms_fall_back() {
        let (schema, rows) = random_table(100);
        let crit = vec![(0usize, false), (1usize, true)];
        let opts = ExecOptions::default().with_algo(SkylineAlgo::DivideAndConquer);
        assert!(
            external_skyline_with(&schema, &rows, &all(&rows), &crit, &[], &opts)
                .unwrap()
                .is_none()
        );
        for algo in [SkylineAlgo::Bnl, SkylineAlgo::Parallel, SkylineAlgo::Strata] {
            let opts = ExecOptions::default().with_algo(algo);
            assert!(
                external_skyline_with(&schema, &rows, &all(&rows), &crit, &[2], &opts)
                    .unwrap()
                    .is_none(),
                "{algo:?} has no external DIFF form"
            );
        }
    }

    #[test]
    fn external_quota_and_cancel_surface_typed_and_leak_free() {
        let (schema, rows) = random_table(2_000);
        let crit = vec![(0usize, false), (1usize, true)];
        let disk = MemDisk::shared();

        // a pool far below the sort arena: typed quota error, no pages left
        let pool = BufferPool::new(8);
        let opts = ExecOptions::default()
            .with_algo(SkylineAlgo::Sfs)
            .with_pool(pool.clone())
            .with_disk(disk.clone());
        let err =
            external_skyline_with(&schema, &rows, &all(&rows), &crit, &[], &opts).unwrap_err();
        assert!(matches!(err, QueryError::QuotaExceeded { .. }), "{err}");
        assert_eq!(pool.used(), 0, "quota refusal must release every lease");
        assert_eq!(disk.allocated_pages(), 0, "no heap pages may leak");

        // a pre-tripped token: typed cancellation, no pages left
        let token = skyline_exec::CancelToken::new();
        token.cancel();
        let opts = ExecOptions::default()
            .with_algo(SkylineAlgo::Sfs)
            .with_cancel(token)
            .with_disk(disk.clone());
        let err =
            external_skyline_with(&schema, &rows, &all(&rows), &crit, &[], &opts).unwrap_err();
        assert!(matches!(err, QueryError::Cancelled { .. }), "{err}");
        assert_eq!(disk.allocated_pages(), 0, "no heap pages may leak");
    }

    #[test]
    fn falls_back_on_non_integer_values() {
        let schema = Schema::of(&[("x", ColumnType::Float)]);
        let rows = vec![tuple![1.5], tuple![2.5]];
        let out =
            external_skyline_indices(&schema, &rows, &all(&rows), &[(0, false)], &[]).unwrap();
        assert!(out.is_none(), "fractional values cannot push down");
        let schema = Schema::of(&[("x", ColumnType::Int)]);
        let rows = vec![
            Tuple::new(vec![Value::Int(i64::from(i32::MAX) + 1)]),
            Tuple::new(vec![Value::Int(0)]),
        ];
        let out =
            external_skyline_indices(&schema, &rows, &all(&rows), &[(0, false)], &[]).unwrap();
        assert!(out.is_none(), "out-of-range values cannot push down");
    }

    #[test]
    fn empty_rows_ok() {
        let (schema, _) = random_table(0);
        let out = external_skyline_indices(&schema, &[], &[], &[(0, false)], &[])
            .unwrap()
            .unwrap();
        assert!(out.is_empty());
    }
}
