//! The one timing source of the benchmark: a span recorder, plus the
//! statistics helpers every workload reports through.
//!
//! Every timed interval — a timed query, a traced server round trip, a
//! replayed stage call — goes through [`Recorder::start`] /
//! [`Recorder::end`]. With tracing off the recorder only reads the
//! clock; with tracing on it also keeps a [`Span`] (name, start, end,
//! parent, query id) in memory, written out when the run ends.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded interval. Times are nanoseconds since the recorder's
/// origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Recorder-unique id (1-based; 0 is never issued).
    pub id: u32,
    /// `<layer>.<call>`: the layer is the crate the call enters.
    pub name: &'static str,
    /// The query this span belongs to.
    pub query: u64,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn len_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An interval that has started and not ended.
#[must_use = "an open span measures nothing until it is ended"]
pub struct Open {
    id: u32,
    name: &'static str,
    query: u64,
    parent: Option<u32>,
    start: Instant,
}

impl Open {
    /// Id to pass as the parent of a nested span (0 when not tracing).
    pub fn id(&self) -> Option<u32> {
        (self.id != 0).then_some(self.id)
    }

    /// Time since the span started, without ending it.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Clock plus optional in-memory span store. Shared by reference
/// between client threads.
pub struct Recorder {
    origin: Instant,
    tracing: bool,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder that keeps spans only when `tracing` is on.
    pub fn new(tracing: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            tracing,
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Begin an interval.
    pub fn start(&self, name: &'static str, query: u64, parent: Option<u32>) -> Open {
        let id = if self.tracing {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            name,
            query,
            parent,
            start: Instant::now(),
        }
    }

    /// End an interval and return its length; keeps the span when
    /// tracing.
    pub fn end(&self, open: Open) -> Duration {
        let end = Instant::now();
        let len = end - open.start;
        if self.tracing {
            let ns = |t: Instant| u64::try_from((t - self.origin).as_nanos()).unwrap_or(u64::MAX);
            let span = Span {
                id: open.id,
                name: open.name,
                query: open.query,
                parent: open.parent,
                start_ns: ns(open.start),
                end_ns: ns(end),
            };
            self.spans.lock().expect("span store poisoned").push(span);
        }
        len
    }

    /// Time `f` as one span and return its result with the length.
    pub fn time<T>(&self, name: &'static str, query: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.start(name, query, None);
        let out = f();
        (out, self.end(open))
    }

    /// Every span kept so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span store poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Self time of every span: its length minus the part of it covered by
/// its children. Overlapping children are counted once, and a child
/// reaching outside its parent is clipped to the parent.
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let covered = covered_ns(s.start_ns, s.end_ns, kids);
            (s.id, s.len_ns() - covered)
        })
        .collect()
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`.
fn covered_ns(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Nearest-rank percentile of ascending `sorted` (`p` in `(0, 100]`):
/// the smallest sample with at least `p`% of the samples at or below it.
///
/// # Panics
/// On an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`, in exact
/// integer arithmetic (`p` to three decimals).
fn rank(p: f64, n: usize) -> usize {
    let milli = (p * 1000.0).round() as usize;
    (milli * n).div_ceil(100_000)
}

/// The highest of the reported tail percentiles (p99.9, p99, p90) that
/// leaves at least ten samples beyond it in a sample of `n`, or `None`
/// when even p90 is not supported.
pub fn supported_tail(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0]
        .into_iter()
        .find(|&p| n >= rank(p, n) + 10)
}

/// Ascending copy of a sample.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 50.0)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// FNV-1a hash of one row's canonical bytes.
pub fn row_hash(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Order-independent checksum of a multiset of rows: the wrapping sum
/// of their row hashes.
pub fn checksum(row_hashes: impl IntoIterator<Item = u64>) -> u64 {
    row_hashes.into_iter().fold(0u64, u64::wrapping_add)
}

/// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok_char)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "t.x",
            query: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 91.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(supported_tail(99), None); // p90 rank 90 leaves 9
        assert_eq!(supported_tail(100), Some(90.0)); // rank 90 leaves 10
        assert_eq!(supported_tail(999), Some(90.0)); // p99 rank 990 leaves 9
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn checksum_is_order_independent_and_content_sensitive() {
        let rows: Vec<Vec<u8>> = vec![vec![1, 2], vec![3], vec![1, 2], vec![9, 9, 9]];
        let fwd = checksum(rows.iter().map(|r| row_hash(r.iter().copied())));
        let rev = checksum(rows.iter().rev().map(|r| row_hash(r.iter().copied())));
        assert_eq!(fwd, rev);
        let changed = checksum(
            [vec![1, 2], vec![4], vec![1, 2], vec![9, 9, 9]]
                .iter()
                .map(|r| row_hash(r.iter().copied())),
        );
        assert_ne!(fwd, changed);
        // a duplicate row counts: multiset, not set
        let dropped_dup = checksum(rows[1..].iter().map(|r| row_hash(r.iter().copied())));
        assert_ne!(fwd, dropped_dup);
    }

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        // root [0,100): children [10,30) and [20,50) overlap → 40 covered;
        // child [90,120) reaches outside → clipped to 10 covered.
        // grandchild [12,18) is inside child 2 and does not count for root.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 90, 120),
            span(5, Some(2), 12, 18),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 20 - 6);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&5], 6);
        // a childless span is all self time
        assert_eq!(self_times(&[span(7, None, 5, 9)])[&7], 4);
    }

    #[test]
    fn recorder_keeps_spans_only_when_tracing() {
        let off = Recorder::new(false);
        let o = off.start("server.query", 1, None);
        assert_eq!(o.id(), None);
        off.end(o);
        assert!(off.spans().is_empty());

        let on = Recorder::new(true);
        let root = on.start("server.query", 7, None);
        let child = on.start("server.admit", 7, root.id());
        on.end(child);
        on.end(root);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn metric_name_charset() {
        for ok in ["query_p50_ms", "core.ns_per_comparison", "a-b", "9x"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "a/b",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
