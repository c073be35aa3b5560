//! Freeze test for the SQL pushdown: the external skyline's result
//! indices and its page traffic on a seeded 20k×d5 table are pinned, so
//! any change to how the pushdown encodes, loads, sorts or filters must
//! leave both bit-identical. The one-pass encode's fused statistics are
//! also checked bit for bit against a separate statistics pass over
//! records encoded one at a time.

use skyline::core::planner::entropy_stats_of_records;
use skyline::query::pushdown::{encode_selection, external_skyline_with};
use skyline::query::{ExecOptions, SkylineAlgo};
use skyline::relation::{ColumnType, RecordLayout, Rng, Schema, Tuple, Value};
use skyline::storage::{Disk, MemDisk};
use std::sync::Arc;

const ROWS: usize = 20_000;
const SEED: u64 = 2003;

/// Criteria `c0..c4` with mixed directions (`true` = MIN).
const CRIT: [(usize, bool); 5] = [(0, false), (1, true), (2, false), (3, true), (4, false)];
/// Column `g`: four DIFF groups.
const DIFF: usize = 5;

fn table() -> (Schema, Vec<Tuple>) {
    let schema = Schema::of(&[
        ("c0", ColumnType::Int),
        ("c1", ColumnType::Int),
        ("c2", ColumnType::Int),
        ("c3", ColumnType::Int),
        ("c4", ColumnType::Int),
        ("g", ColumnType::Int),
    ]);
    let mut rng = Rng::seed_from_u64(SEED);
    let rows = (0..ROWS)
        .map(|_| {
            let mut v: Vec<Value> = (0..5)
                .map(|_| Value::Int(i64::from(rng.i32_inclusive(0, 999_999))))
                .collect();
            v.push(Value::Int(i64::from(rng.i32_inclusive(0, 3))));
            Tuple::new(v)
        })
        .collect();
    (schema, rows)
}

/// FNV-1a over the indices' little-endian `u64` bytes.
fn fnv(idx: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &i in idx {
        for b in (i as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

struct Frozen {
    algo: SkylineAlgo,
    diff: bool,
    len: usize,
    fnv: u64,
    first: [usize; 5],
    reads: u64,
    writes: u64,
}

/// Recorded before the one-pass encode replaced the per-row record
/// vectors; the sort arena is 16 pages so the presort spills and merges.
const FROZEN: [Frozen; 5] = [
    Frozen {
        algo: SkylineAlgo::Sfs,
        diff: false,
        len: 629,
        fnv: 0xe98c_38bf_9e5f_0e55,
        first: [49, 102, 126, 208, 231],
        reads: 419,
        writes: 419,
    },
    Frozen {
        algo: SkylineAlgo::Bnl,
        diff: false,
        len: 629,
        fnv: 0xe98c_38bf_9e5f_0e55,
        first: [49, 102, 126, 208, 231],
        reads: 137,
        writes: 137,
    },
    Frozen {
        algo: SkylineAlgo::Parallel,
        diff: false,
        len: 629,
        fnv: 0xe98c_38bf_9e5f_0e55,
        first: [49, 102, 126, 208, 231],
        reads: 726,
        writes: 581,
    },
    Frozen {
        algo: SkylineAlgo::Strata,
        diff: false,
        len: 629,
        fnv: 0xe98c_38bf_9e5f_0e55,
        first: [49, 102, 126, 208, 231],
        reads: 424,
        writes: 557,
    },
    Frozen {
        algo: SkylineAlgo::Sfs,
        diff: true,
        len: 1352,
        fnv: 0xf538_d2e0_0951_02a9,
        first: [19, 49, 86, 102, 105],
        reads: 471,
        writes: 471,
    },
];

#[test]
fn pushdown_indices_and_page_traffic_are_frozen() {
    let (schema, rows) = table();
    let sel: Vec<usize> = (0..rows.len()).collect();
    for f in &FROZEN {
        let diff: &[usize] = if f.diff { &[DIFF] } else { &[] };
        let disk: Arc<dyn Disk> = MemDisk::shared();
        let opts = ExecOptions::default()
            .with_algo(f.algo)
            .with_threads(2)
            .with_sort_pages(16)
            .with_disk(Arc::clone(&disk));
        let keep = external_skyline_with(&schema, &rows, &sel, &CRIT, diff, &opts)
            .unwrap()
            .expect("integer criteria push down");
        let io = disk.stats().snapshot();
        let what = format!("{:?} diff={}", f.algo, f.diff);
        assert_eq!(keep.len(), f.len, "{what}: skyline size");
        assert_eq!(keep[..5], f.first, "{what}: first indices");
        assert_eq!(fnv(&keep), f.fnv, "{what}: index checksum");
        assert_eq!(
            (io.reads, io.writes),
            (f.reads, f.writes),
            "{what}: pages read/written"
        );
        assert_eq!(disk.allocated_pages(), 0, "{what}: leaked pages");
    }
}

#[test]
fn fused_encode_matches_per_record_encode_and_stats_bit_for_bit() {
    let (schema, mut rows) = table();
    // Signed zeros and the i32 edges: the fused pass must orient the
    // encoded integer, exactly as a stats pass over the records does.
    rows[3] = Tuple::new(vec![
        Value::Float(-0.0),
        Value::Int(i64::from(i32::MIN)),
        Value::Int(i64::from(i32::MAX)),
        Value::Float(0.0),
        Value::Int(-7),
        Value::Int(2),
    ]);
    // Every third row, so payload tags are row indices, not positions.
    let sel: Vec<usize> = (0..rows.len()).step_by(3).collect();
    for diff in [&[][..], &[DIFF][..]] {
        let enc = encode_selection(&schema, &rows, &sel, &CRIT, diff, None)
            .unwrap()
            .expect("integer criteria push down");
        let layout = RecordLayout::new(CRIT.len() + diff.len(), 8);
        assert_eq!(enc.layout, layout);
        let per_record: Vec<Vec<u8>> = sel
            .iter()
            .map(|&i| {
                let mut attrs: Vec<i32> = CRIT
                    .iter()
                    .map(|&(c, _)| rows[i].get(c).as_f64().unwrap() as i32)
                    .collect();
                attrs.extend(
                    diff.iter()
                        .map(|&c| rows[i].get(c).as_i64().unwrap() as i32),
                );
                layout.encode(&attrs, &(i as u64).to_le_bytes())
            })
            .collect();
        assert_eq!(enc.records, per_record.concat(), "diff={diff:?}: records");

        let separate =
            entropy_stats_of_records(&layout, &enc.spec, per_record.iter().map(Vec::as_slice));
        let (fused, separate) = (enc.stats.columns(), separate.stats().columns());
        assert_eq!(fused.len(), separate.len());
        for (j, (a, b)) in fused.iter().zip(separate).enumerate() {
            assert_eq!(a.min.to_bits(), b.min.to_bits(), "dim {j} min");
            assert_eq!(a.max.to_bits(), b.max.to_bits(), "dim {j} max");
            assert_eq!(a.count, b.count, "dim {j} count");
        }
    }
}
