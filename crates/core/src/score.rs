//! Monotone scoring functions and the presort comparators they induce.
//!
//! Section 3 of the paper: a *monotone scoring function* is
//! `S(t) = Σᵢ fᵢ(t[aᵢ])` with each `fᵢ` monotone increasing. Theorem 6:
//! ordering a relation by any monotone scoring function (highest first) is
//! a topological sort of the dominance partial order — the property SFS's
//! presort relies on. Theorem 7 shows the nested sort
//! `ORDER BY a₁ DESC, …, a_k DESC` is one such order.
//!
//! Section 4.3 introduces **entropy scoring**:
//! `E(t) = Σᵢ ln(v̄ᵢ + 1)` over values normalized into `(0,1)`, which
//! orders tuples by their approximate *dominance probability*
//! `Πᵢ v̄ᵢ` — filling the SFS window with strong dominators first and
//! maximizing the reduction factor.

use crate::dominance::SkylineSpec;
use skyline_exec::RecordComparator;
use skyline_relation::{RecordLayout, TableStats};
use std::cmp::Ordering;

/// A monotone scoring function over **oriented** key rows (all-max
/// orientation, as produced by [`SkylineSpec::key_of`]).
pub trait MonotoneScore: Send + Sync {
    /// Score a key row; higher is better.
    fn score(&self, key: &[f64]) -> f64;
}

/// The paper's entropy score `E(t) = Σ ln(v̄ᵢ + 1)` with `v̄ᵢ` the
/// min/max-normalized oriented value, strictly increasing in every
/// coordinate — hence a (strictly) monotone scoring function usable as the
/// SFS presort for *any* data distribution.
#[derive(Debug, Clone)]
pub struct EntropyScore {
    stats: TableStats,
}

impl EntropyScore {
    /// Build from per-dimension statistics of the **oriented** keys.
    ///
    /// # Panics
    /// Panics if `stats` covers no dimensions.
    pub fn new(stats: TableStats) -> Self {
        assert!(
            stats.dims() > 0,
            "entropy score needs at least one dimension"
        );
        EntropyScore { stats }
    }

    /// Convenience: compute stats from oriented key rows (`n × d`, flat).
    pub fn from_keys(keys: &[f64], d: usize) -> Self {
        EntropyScore::new(TableStats::from_keys(keys, d))
    }

    /// The underlying statistics.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }
}

impl MonotoneScore for EntropyScore {
    #[inline]
    fn score(&self, key: &[f64]) -> f64 {
        debug_assert_eq!(key.len(), self.stats.dims());
        let mut e = 0.0;
        for (i, &v) in key.iter().enumerate() {
            e += (self.stats.column(i).normalize(v) + 1.0).ln();
        }
        e
    }
}

/// A positive linear scoring `W(t) = Σ wᵢ·vᵢ` (Definition 3). A proper
/// subclass of the monotone scorings: Theorem 4 exhibits a skyline tuple —
/// `(2,2)` among `{(4,1),(2,2),(1,4)}` — that no positive linear scoring
/// ranks first.
#[derive(Debug, Clone)]
pub struct LinearScore {
    weights: Vec<f64>,
}

impl LinearScore {
    /// Build from positive weights.
    ///
    /// # Panics
    /// Panics if any weight is not strictly positive and finite.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(
            !weights.is_empty() && weights.iter().all(|w| *w > 0.0 && w.is_finite()),
            "linear scoring requires positive finite weights"
        );
        LinearScore { weights }
    }

    /// The weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl MonotoneScore for LinearScore {
    #[inline]
    fn score(&self, key: &[f64]) -> f64 {
        debug_assert_eq!(key.len(), self.weights.len());
        key.iter().zip(&self.weights).map(|(v, w)| v * w).sum()
    }
}

/// An arbitrary user monotone scoring built from per-dimension closures
/// (Definition 1's general form) — used e.g. to build Theorem 5's witness
/// function selecting a given skyline tuple.
pub struct ComposedScore {
    fns: Vec<Box<dyn Fn(f64) -> f64 + Send + Sync>>,
}

impl ComposedScore {
    /// Build from per-dimension monotone increasing functions. The caller
    /// is responsible for monotonicity.
    pub fn new(fns: Vec<Box<dyn Fn(f64) -> f64 + Send + Sync>>) -> Self {
        assert!(!fns.is_empty());
        ComposedScore { fns }
    }
}

impl MonotoneScore for ComposedScore {
    fn score(&self, key: &[f64]) -> f64 {
        debug_assert_eq!(key.len(), self.fns.len());
        key.iter().zip(&self.fns).map(|(v, f)| f(*v)).sum()
    }
}

/// Compare two oriented keys lexicographically, **descending** — the
/// nested sort of the paper's Figure 6 (`ORDER BY a₁ DESC, …, a_k DESC`),
/// itself a monotone order by Theorem 7.
#[inline]
pub fn nested_desc(a: &[f64], b: &[f64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        match y.partial_cmp(x).expect("keys are never NaN") {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

/// Which monotone order the presort uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Nested `ORDER BY a₁ DESC, …, a_k DESC` (basic SFS).
    Nested,
    /// Entropy score, descending (SFS w/E).
    Entropy,
    /// Entropy score **ascending** — the adversarial order of the paper's
    /// BNL w/RE experiments. Not a valid SFS presort.
    ReverseEntropy,
}

/// A [`RecordComparator`] sorting records into a skyline-ready order.
///
/// Score comparators tie-break with the nested order. The tie-break is
/// load-bearing for correctness, not cosmetics: with floating-point
/// scores, two tuples where one dominates the other can round to the
/// *same* score, and emitting the dominated one first would wrongly put it
/// in the skyline. Nested-desc is itself a topological order, so the
/// composite stays one.
pub struct SkylineOrderCmp {
    layout: RecordLayout,
    spec: SkylineSpec,
    order: SortOrder,
    entropy: Option<EntropyScore>,
}

impl SkylineOrderCmp {
    /// Build a comparator. `entropy` stats are required for the entropy
    /// orders and ignored for `Nested`.
    ///
    /// # Panics
    /// Panics if an entropy order is requested without stats.
    pub fn new(
        layout: RecordLayout,
        spec: SkylineSpec,
        order: SortOrder,
        entropy: Option<EntropyScore>,
    ) -> Self {
        if matches!(order, SortOrder::Entropy | SortOrder::ReverseEntropy) {
            assert!(entropy.is_some(), "entropy order requires table stats");
        }
        SkylineOrderCmp {
            layout,
            spec,
            order,
            entropy,
        }
    }

    /// Compare records *within* one diff group (or when no diff attrs).
    fn cmp_in_group(&self, ka: &[f64], kb: &[f64]) -> Ordering {
        match self.order {
            SortOrder::Nested => nested_desc(ka, kb),
            SortOrder::Entropy => {
                let e = self.entropy.as_ref().expect("checked in new");
                let (sa, sb) = (e.score(ka), e.score(kb));
                sb.partial_cmp(&sa)
                    .expect("scores are never NaN")
                    .then_with(|| nested_desc(ka, kb))
            }
            SortOrder::ReverseEntropy => {
                let e = self.entropy.as_ref().expect("checked in new");
                let (sa, sb) = (e.score(ka), e.score(kb));
                sa.partial_cmp(&sb)
                    .expect("scores are never NaN")
                    .then_with(|| nested_desc(kb, ka))
            }
        }
    }
}

impl RecordComparator for SkylineOrderCmp {
    /// Decorate-sort-undecorate key (paper §5: the entropy sort is a
    /// *single-attribute* sort on the tuple's E value, "computed
    /// on-the-fly"): the score — or the first nested attribute — packed
    /// into an order-preserving u64, computed once per record. Disabled
    /// when DIFF attributes are present (they sort outermost).
    fn prefix_key(&self, record: &[u8]) -> Option<u64> {
        use skyline_exec::sort::{f64_ascending_bits, f64_descending_bits};
        if !self.spec.diff.is_empty() {
            return None;
        }
        Some(
            self.spec
                .with_key(&self.layout, record, |key| match self.order {
                    SortOrder::Nested => f64_descending_bits(key[0]),
                    SortOrder::Entropy => f64_descending_bits(
                        self.entropy.as_ref().expect("checked in new").score(key),
                    ),
                    SortOrder::ReverseEntropy => f64_ascending_bits(
                        self.entropy.as_ref().expect("checked in new").score(key),
                    ),
                }),
        )
    }

    fn cmp(&self, a: &[u8], b: &[u8]) -> Ordering {
        // DIFF attributes sort outermost (paper §4.3 "Diff"): groups are
        // contiguous so the filter can clear its window at boundaries.
        for &attr in &self.spec.diff {
            let (va, vb) = (self.layout.attr(a, attr), self.layout.attr(b, attr));
            match vb.cmp(&va) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        self.spec.with_key(&self.layout, a, |ka| {
            self.spec
                .with_key(&self.layout, b, |kb| self.cmp_in_group(ka, kb))
        })
    }
}

/// A [`RecordComparator`] ordering records by a *user* monotone scoring
/// function, descending, with the nested order as tie-break — §4.4's
/// "SFS can be combined with any preference ordering": because the
/// preference is monotone, its descending order is a valid SFS presort
/// (Theorem 6), and SFS then emits the skyline *in preference order*, so
/// `LIMIT N` on top yields the user's top-N skyline tuples with early
/// termination.
pub struct PreferenceCmp {
    layout: RecordLayout,
    spec: SkylineSpec,
    score: std::sync::Arc<dyn MonotoneScore>,
}

impl PreferenceCmp {
    /// Build from a monotone scoring over the spec's oriented keys.
    pub fn new(
        layout: RecordLayout,
        spec: SkylineSpec,
        score: std::sync::Arc<dyn MonotoneScore>,
    ) -> Self {
        PreferenceCmp {
            layout,
            spec,
            score,
        }
    }
}

impl RecordComparator for PreferenceCmp {
    fn prefix_key(&self, record: &[u8]) -> Option<u64> {
        if !self.spec.diff.is_empty() {
            return None;
        }
        Some(self.spec.with_key(&self.layout, record, |key| {
            skyline_exec::sort::f64_descending_bits(self.score.score(key))
        }))
    }

    fn cmp(&self, a: &[u8], b: &[u8]) -> Ordering {
        self.spec.with_key(&self.layout, a, |ka| {
            self.spec.with_key(&self.layout, b, |kb| {
                let (sa, sb) = (self.score.score(ka), self.score.score(kb));
                sb.partial_cmp(&sa)
                    .expect("scores are never NaN")
                    .then_with(|| nested_desc(ka, kb))
            })
        })
    }
}

/// Compute oriented-key statistics for `spec` over encoded records —
/// what a catalog would hand the planner for entropy presorting.
pub fn oriented_stats<'a, I>(layout: &RecordLayout, spec: &SkylineSpec, records: I) -> TableStats
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut cols = vec![skyline_relation::ColumnStats::empty(); spec.dims()];
    let mut key = Vec::with_capacity(spec.dims());
    for r in records {
        spec.key_of(layout, r, &mut key);
        for (c, &v) in cols.iter_mut().zip(&key) {
            c.observe(v);
        }
    }
    TableStats::from_columns(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::{dominates, Criterion};

    fn keys3() -> Vec<Vec<f64>> {
        vec![vec![4.0, 1.0], vec![2.0, 2.0], vec![1.0, 4.0]]
    }

    #[test]
    fn linear_score_cannot_pick_balanced_tuple() {
        // Theorem 4: no positive linear scoring ranks (2,2) first.
        let ks = keys3();
        for w1 in [0.1, 0.5, 1.0, 2.0, 10.0] {
            for w2 in [0.1, 0.5, 1.0, 2.0, 10.0] {
                let s = LinearScore::new(vec![w1, w2]);
                let scores: Vec<f64> = ks.iter().map(|k| s.score(k)).collect();
                let best = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                assert!(
                    scores[1] < best || scores[0] >= scores[1] || scores[2] >= scores[1],
                    "(2,2) must never be the unique maximum"
                );
                // Stronger: (2,2) is the unique max only if 2(w1+w2) >
                // max(4w1+w2, w1+4w2), impossible for positive weights.
                assert!(!(scores[1] > scores[0] && scores[1] > scores[2]));
            }
        }
    }

    #[test]
    fn composed_score_witnesses_theorem_5() {
        // Theorem 5's construction for t = (2,2) (values scaled into (0,1)
        // as 0.2-based coordinates): f_i jumps by k when v ≥ t[i].
        let k = 2.0;
        let t = [0.2, 0.2];
        let mk = move |ti: f64| move |v: f64| if v < ti { v } else { k + v };
        let s = ComposedScore::new(vec![Box::new(mk(t[0])), Box::new(mk(t[1]))]);
        let pts = [[0.4, 0.1], [0.2, 0.2], [0.1, 0.4]];
        let scores: Vec<f64> = pts.iter().map(|p| s.score(p)).collect();
        assert!(scores[1] > scores[0] && scores[1] > scores[2]);
    }

    #[test]
    fn entropy_is_strictly_monotone() {
        let keys: Vec<f64> = vec![0.0, 0.0, 10.0, 10.0, 3.0, 7.0, 7.0, 3.0];
        let e = EntropyScore::from_keys(&keys, 2);
        // strictly better in one coord, equal in the other → higher score
        assert!(e.score(&[5.0, 7.0]) > e.score(&[4.0, 7.0]));
        assert!(e.score(&[10.0, 10.0]) > e.score(&[9.9, 10.0]));
    }

    #[test]
    fn entropy_order_is_topological_wrt_dominance() {
        // Theorem 6 spot-check on a grid of keys.
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for x in 0..6 {
            for y in 0..6 {
                rows.push(vec![f64::from(x), f64::from(y)]);
            }
        }
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let e = EntropyScore::from_keys(&flat, 2);
        for a in &rows {
            for b in &rows {
                if dominates(a, b) {
                    assert!(
                        e.score(a) > e.score(b),
                        "dominator must score strictly higher: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn nested_desc_is_lexicographic() {
        assert_eq!(nested_desc(&[2.0, 0.0], &[1.0, 9.0]), Ordering::Less);
        assert_eq!(nested_desc(&[1.0, 9.0], &[1.0, 3.0]), Ordering::Less);
        assert_eq!(nested_desc(&[1.0, 1.0], &[1.0, 1.0]), Ordering::Equal);
        assert_eq!(nested_desc(&[0.0, 0.0], &[1.0, 0.0]), Ordering::Greater);
    }

    #[test]
    fn record_comparator_nested_with_min() {
        let layout = RecordLayout::new(2, 0);
        let spec = SkylineSpec::new(vec![Criterion::max(0), Criterion::min(1)]);
        let cmp = SkylineOrderCmp::new(layout, spec, SortOrder::Nested, None);
        let hi = layout.encode(&[5, 1], b""); // oriented (5, -1)
        let lo = layout.encode(&[5, 3], b""); // oriented (5, -3)
        assert_eq!(cmp.cmp(&hi, &lo), Ordering::Less); // hi sorts first
    }

    #[test]
    fn diff_groups_sort_outermost() {
        let layout = RecordLayout::new(3, 0);
        let spec = SkylineSpec::max_all(2).with_diff(vec![2]);
        let cmp = SkylineOrderCmp::new(layout, spec, SortOrder::Nested, None);
        let g9_small = layout.encode(&[0, 0, 9], b"");
        let g1_big = layout.encode(&[100, 100, 1], b"");
        assert_eq!(cmp.cmp(&g9_small, &g1_big), Ordering::Less);
    }

    #[test]
    fn reverse_entropy_is_reverse_of_entropy() {
        let layout = RecordLayout::new(2, 0);
        let spec = SkylineSpec::max_all(2);
        let recs = vec![
            layout.encode(&[9, 9], b""),
            layout.encode(&[1, 1], b""),
            layout.encode(&[5, 5], b""),
        ];
        let stats = oriented_stats(&layout, &spec, recs.iter().map(Vec::as_slice));
        let fwd = SkylineOrderCmp::new(
            layout,
            spec.clone(),
            SortOrder::Entropy,
            Some(EntropyScore::new(stats.clone())),
        );
        let rev = SkylineOrderCmp::new(
            layout,
            spec,
            SortOrder::ReverseEntropy,
            Some(EntropyScore::new(stats)),
        );
        let mut a = recs.clone();
        a.sort_by(|x, y| fwd.cmp(x, y));
        let mut b = recs.clone();
        b.sort_by(|x, y| rev.cmp(x, y));
        b.reverse();
        assert_eq!(a, b);
        assert_eq!(layout.attr(&a[0], 0), 9, "entropy-desc puts best first");
    }

    #[test]
    fn prefix_keys_refine_the_comparator() {
        use skyline_exec::RecordComparator as _;
        let layout = RecordLayout::new(3, 0);
        let spec = SkylineSpec::new(vec![
            Criterion::max(0),
            Criterion::min(1),
            Criterion::max(2),
        ]);
        let recs: Vec<Vec<u8>> = (0..200i32)
            .map(|i| layout.encode(&[(i * 37) % 23 - 11, (i * 53) % 19, (i * 7) % 29], b""))
            .collect();
        let stats = oriented_stats(&layout, &spec, recs.iter().map(Vec::as_slice));
        for order in [
            SortOrder::Nested,
            SortOrder::Entropy,
            SortOrder::ReverseEntropy,
        ] {
            let cmp = SkylineOrderCmp::new(
                layout,
                spec.clone(),
                order,
                Some(EntropyScore::new(stats.clone())),
            );
            for a in &recs {
                for b in &recs {
                    let (ka, kb) = (cmp.prefix_key(a).unwrap(), cmp.prefix_key(b).unwrap());
                    if ka < kb {
                        assert_eq!(
                            cmp.cmp(a, b),
                            Ordering::Less,
                            "{order:?}: key order must refine cmp"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn diff_disables_prefix_keys() {
        use skyline_exec::RecordComparator as _;
        let layout = RecordLayout::new(3, 0);
        let spec = SkylineSpec::max_all(2).with_diff(vec![2]);
        let cmp = SkylineOrderCmp::new(layout, spec, SortOrder::Nested, None);
        let r = layout.encode(&[1, 2, 3], b"");
        assert_eq!(cmp.prefix_key(&r), None);
    }

    #[test]
    fn f64_bit_tricks_preserve_order() {
        use skyline_exec::sort::{f64_ascending_bits, f64_descending_bits};
        let vals = [-1e300, -5.0, -0.0, 0.0, 1e-300, 3.5, 1e300];
        for w in vals.windows(2) {
            assert!(f64_ascending_bits(w[0]) <= f64_ascending_bits(w[1]));
            assert!(f64_descending_bits(w[0]) >= f64_descending_bits(w[1]));
        }
    }

    #[test]
    fn oriented_stats_respects_direction() {
        let layout = RecordLayout::new(1, 0);
        let spec = SkylineSpec::new(vec![Criterion::min(0)]);
        let recs = [layout.encode(&[10], b""), layout.encode(&[20], b"")];
        let stats = oriented_stats(&layout, &spec, recs.iter().map(Vec::as_slice));
        assert_eq!(stats.column(0).min, -20.0);
        assert_eq!(stats.column(0).max, -10.0);
    }
}
