//! `engine_sharded`: the heap of `external_uniform`, loaded once in
//! set-up, then a loop of `planner::sharded_skyline_pipeline` calls
//! (Grid routing, 2 shards) cycling through `external_uniform`'s
//! direction mixes. The only path that reaches `exchange` and the
//! columnar batch pipeline.

use crate::external::{self, Kind, DIMS, ROWS};
use crate::report::{RunReport, END_TO_END, PER_LAYER};
use crate::trace::{checksum, mean, median, row_hash, Recorder};
use crate::{deadline, end_to_end, setup_median, Args, Timed};
use skyline_core::planner::{batch_skyline_pipeline, load_heap, sharded_skyline_pipeline};
use skyline_core::{
    batch_presort, parallel_batch_filter, BatchConfig, KeySumScore, ShardConfig, ShardStrategy,
    SkylineMetrics, SkylineSpec,
};
use skyline_exchange::{decode_stream, encode_frame, FrameKind, FRAME_ROWS};
use skyline_exec::batch::BATCH_ROWS;
use skyline_exec::NarrowLayout;
use skyline_relation::RecordLayout;
use skyline_storage::{Disk, HeapFile, MemDisk};
use std::sync::Arc;
use std::time::Duration;

/// Shards, all on this process.
pub const SHARDS: usize = 2;
/// Filter window per shard, and for the single-node batch reference.
pub const WINDOW_PAGES: usize = 64;
/// Sort arena of the single-node batch reference (the shards' default).
pub const SORT_PAGES: usize = 64;
/// Replays of the per-layer calls per mix in the traced run.
pub const REPLAYS: usize = 1;

/// The loaded heap every call reads.
struct Loaded {
    disk: Arc<dyn Disk>,
    heap: Arc<HeapFile>,
    layout: RecordLayout,
    specs: Vec<SkylineSpec>,
}

impl Loaded {
    fn new(seed: u64) -> Result<Self, String> {
        let layout = RecordLayout::new(DIMS, 8);
        let records: Vec<Vec<u8>> = external::values(Kind::Uniform, seed)
            .chunks_exact(DIMS)
            .enumerate()
            .map(|(i, attrs)| layout.encode(attrs, &(i as u64).to_le_bytes()))
            .collect();
        let disk: Arc<dyn Disk> = MemDisk::shared();
        let heap = load_heap(
            Arc::clone(&disk),
            layout.record_size(),
            records.iter().map(Vec::as_slice),
        )
        .map_err(|e| format!("load_heap: {e}"))?;
        Ok(Loaded {
            disk,
            heap: Arc::new(heap),
            layout,
            specs: external::mixes(Kind::Uniform)
                .iter()
                .map(external::spec_of)
                .collect(),
        })
    }

    fn shard_cfg() -> ShardConfig {
        ShardConfig::new(SHARDS, ShardStrategy::Grid, WINDOW_PAGES)
    }

    /// Count and order-independent checksum of a skyline heap's
    /// criteria; deletes the heap.
    fn summarize(&self, skyline: HeapFile) -> Result<(u64, u64), String> {
        let mut hashes = Vec::with_capacity(skyline.len() as usize);
        {
            let mut scan = skyline.scan();
            while let Some(r) = scan.next_record().map_err(|e| e.to_string())? {
                hashes.push(row_hash(
                    (0..DIMS).flat_map(|j| self.layout.attr(r, j).to_le_bytes()),
                ));
            }
        }
        skyline.delete();
        Ok((hashes.len() as u64, checksum(hashes)))
    }
}

/// One timed call: call to return, and call to the first skyline record.
fn timed_call(
    ld: &Loaded,
    spec: &SkylineSpec,
    rec: &Recorder,
    qid: u64,
    metrics: Arc<SkylineMetrics>,
) -> Result<(Duration, Duration, skyline_core::ShardOutcome), String> {
    let root = rec.start("core.sharded_skyline_pipeline", qid, None);
    let outcome = sharded_skyline_pipeline(
        Arc::clone(&ld.heap),
        &ld.layout,
        spec,
        Loaded::shard_cfg(),
        Arc::clone(&ld.disk),
        metrics,
        None,
    );
    let total = rec.end(root);
    let outcome = outcome.map_err(|e| format!("sharded_skyline_pipeline: {e}"))?;
    let first = rec.start("storage.first_record", qid, None);
    let read = outcome.skyline.scan().next_record().map(|r| r.is_some());
    let first_len = rec.end(first);
    read.map_err(|e| e.to_string())?;
    Ok((total, total + first_len, outcome))
}

fn closed_loop(
    ld: &Loaded,
    expected: &[(u64, u64)],
    secs: f64,
    rec: &Recorder,
) -> Result<Timed, String> {
    let until = deadline(secs);
    let mut t = Timed::default();
    let window = rec.start("bench.window", 0, None);
    while std::time::Instant::now() < until {
        let i = t.attempted as usize % ld.specs.len();
        t.attempted += 1;
        match timed_call(ld, &ld.specs[i], rec, t.attempted, SkylineMetrics::shared()) {
            Ok((total, first, outcome)) => {
                if ld.summarize(outcome.skyline)? == expected[i] {
                    t.latency_ms.push(total.as_secs_f64() * 1e3);
                    t.first_ms.push(first.as_secs_f64() * 1e3);
                } else {
                    t.failed += 1;
                    t.mismatched += 1;
                }
            }
            Err(_) => t.failed += 1,
        }
    }
    t.elapsed_s = rec.end(window).as_secs_f64();
    Ok(t)
}

/// One run of the sharded workload.
///
/// # Errors
/// Set-up, reference, or pipeline failures.
pub fn run(args: &Args) -> Result<RunReport, String> {
    let clock = Recorder::new(false);
    let (ld, setup_s) = setup_median(&clock, || {
        let ld = Loaded::new(args.seed)?;
        let (_, _, warm) = timed_call(&ld, &ld.specs[0], &clock, 0, SkylineMetrics::shared())?;
        warm.skyline.delete();
        Ok(ld)
    })?;
    let mut expected = Vec::with_capacity(ld.specs.len());
    for spec in &ld.specs {
        let outcome = batch_skyline_pipeline(
            Arc::clone(&ld.heap),
            &ld.layout,
            spec,
            BatchConfig::new(WINDOW_PAGES),
            SORT_PAGES,
            1,
            Arc::clone(&ld.disk),
            SkylineMetrics::shared(),
            None,
            None,
        )
        .map_err(|e| format!("single-node reference: {e}"))?;
        let (rows, sum) = ld.summarize(outcome.skyline)?;
        expected.push((rows, if args.poison { sum ^ 1 } else { sum }));
    }

    if !args.trace {
        let mut r = RunReport::zeroed(END_TO_END);
        let t = closed_loop(&ld, &expected, args.seconds, &clock)?;
        end_to_end(&mut r, &t, setup_s)?;
        for (i, e) in expected.iter().enumerate() {
            r.note(format!("skyline_rows[mix {i}]"), e.0);
        }
        return Ok(r);
    }

    let mut r = RunReport::zeroed(PER_LAYER);
    let untraced = closed_loop(&ld, &expected, args.seconds / 2.0, &clock)?;
    let rec = Recorder::new(true);
    let traced = closed_loop(&ld, &expected, args.seconds / 2.0, &rec)?;
    for t in [&untraced, &traced] {
        r.attempted += t.attempted;
        r.failed += t.failed;
        r.mismatched += t.mismatched;
    }
    if untraced.latency_ms.is_empty() || traced.latency_ms.is_empty() {
        return Err("a traced-run window completed no call".into());
    }
    r.set("trace.overhead_frac", traced.p50() / untraced.p50() - 1.0);

    let mut presort_ms = Vec::new();
    let mut filter_ms = Vec::new();
    let mut codec_ms = Vec::new();
    let mut call_ms = Vec::new();
    let mut first_ms = Vec::new();
    let mut counters: Vec<[f64; 7]> = Vec::new();
    for rep in 0..REPLAYS {
        for (i, spec) in ld.specs.iter().enumerate() {
            let qid = (1 << 40) | (rep * ld.specs.len() + i) as u64;
            let metrics = SkylineMetrics::shared();
            let (total, first, outcome) = timed_call(&ld, spec, &rec, qid, Arc::clone(&metrics))?;
            call_ms.push(total.as_secs_f64() * 1e3);
            first_ms.push((first - total).as_secs_f64() * 1e3);
            let max_of = |f: fn(&skyline_core::ShardStats) -> u64| {
                outcome.shard_stats.iter().map(f).max().unwrap_or(0) as f64
            };
            counters.push([
                metrics.snapshot().rows_materialized as f64,
                outcome.union_entries as f64,
                outcome.coordinator_metrics.comparisons as f64,
                max_of(|s| s.records),
                max_of(|s| s.local_skyline),
                outcome.exchange.bytes_exchanged as f64,
                outcome.exchange.exchange_frames as f64,
            ]);
            let union = outcome.union_entries as usize;
            r.attempted += 1;
            if ld.summarize(outcome.skyline)? != expected[i] {
                r.mismatched += 1;
                r.failed += 1;
            }
            let (p, f) = batch_reference(&ld, spec, &rec, qid, expected[i].0)?;
            presort_ms.push(p);
            filter_ms.push(f);
            codec_ms.push(codec(&ld, union, &rec, qid)?);
        }
    }
    let names = [
        "core.rows_materialized",
        "core.union_entries",
        "core.coordinator_comparisons",
        "core.shard_records_max",
        "core.shard_local_skyline_max",
        "exchange.bytes",
        "exchange.frames",
    ];
    for (k, name) in names.into_iter().enumerate() {
        r.set(
            name,
            mean(&counters.iter().map(|c| c[k]).collect::<Vec<_>>()),
        );
    }
    r.set("exec.batch_presort_ms", median(&presort_ms));
    r.set("core.batch_filter_ms", median(&filter_ms));
    r.set("exchange.codec_ms", median(&codec_ms));
    r.layer_ms = vec![("core", median(&call_ms)), ("storage", median(&first_ms))];
    r.share_base_ms = median(&call_ms) + median(&first_ms);
    r.note(
        "exchange.codec_share_of_call",
        format!("{:.4}", median(&codec_ms) / median(&call_ms)),
    );
    r.note("rows", ROWS);
    r.spans = rec.spans();
    Ok(r)
}

/// The single-node batch pipeline at one thread, stage by stage:
/// (`batch_presort` ms, `parallel_batch_filter` ms).
fn batch_reference(
    ld: &Loaded,
    spec: &SkylineSpec,
    rec: &Recorder,
    qid: u64,
    rows: u64,
) -> Result<(f64, f64), String> {
    let metrics = SkylineMetrics::shared();
    let (sorted, presort_len) = rec.time("exec.batch_presort", qid, || {
        batch_presort(
            Arc::clone(&ld.heap),
            &ld.layout,
            spec,
            Arc::new(KeySumScore),
            BATCH_ROWS,
            SORT_PAGES,
            1,
            Arc::clone(&ld.disk),
            Arc::clone(&metrics),
            None,
        )
    });
    let mut sorted = sorted.map_err(|e| format!("batch_presort: {e}"))?;
    sorted.mark_temp();
    let (outcome, filter_len) = rec.time("core.batch_filter", qid, || {
        parallel_batch_filter(
            Arc::new(sorted),
            Arc::clone(&ld.heap),
            NarrowLayout::new(DIMS),
            BatchConfig::new(WINDOW_PAGES),
            1,
            Arc::clone(&ld.disk),
            metrics,
            None,
            None,
        )
    });
    let outcome = outcome.map_err(|e| format!("parallel_batch_filter: {e}"))?;
    let found = outcome.skyline.len();
    outcome.skyline.delete();
    if found != rows {
        return Err(format!(
            "batch reference found {found} rows, expected {rows}"
        ));
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    Ok((ms(presort_len), ms(filter_len)))
}

/// Frame and decode `entries` narrow entries — the byte volume of the
/// coordinator's union — and return the ms spent in `encode_frame` plus
/// `decode_stream`. The entries are the heap's first records (as
/// all-MAX keys), since the union itself stays inside the pipeline.
fn codec(ld: &Loaded, entries: usize, rec: &Recorder, qid: u64) -> Result<f64, String> {
    let narrow = NarrowLayout::new(DIMS);
    let mut payload = Vec::with_capacity(entries * narrow.entry_size());
    let mut entry = Vec::with_capacity(narrow.entry_size());
    let mut key = Vec::with_capacity(DIMS);
    let mut scan = ld.heap.scan();
    let mut row = 0u64;
    while (row as usize) < entries {
        let Some(r) = scan.next_record().map_err(|e| e.to_string())? else {
            break;
        };
        key.clear();
        key.extend((0..DIMS).map(|j| f64::from(ld.layout.attr(r, j))));
        narrow.encode_into(&key, row, &mut entry);
        payload.extend_from_slice(&entry);
        row += 1;
    }
    let (decoded, len) = rec.time("exchange.codec", qid, || {
        let mut wire = Vec::new();
        for chunk in payload.chunks(FRAME_ROWS * narrow.entry_size()) {
            wire.extend(encode_frame(FrameKind::Skyline, 0, &narrow, chunk));
        }
        decode_stream(&wire).map(|frames| frames.iter().map(|f| f.entries()).sum::<usize>())
    });
    let decoded = decoded.map_err(|e| format!("decode_stream: {e}"))?;
    if decoded != row as usize {
        return Err(format!("codec round trip kept {decoded} of {row} entries"));
    }
    Ok(len.as_secs_f64() * 1e3)
}
