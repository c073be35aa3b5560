//! Columnar block windows: batched dominance kernels with per-block
//! pruning bounds (DESIGN.md §12).
//!
//! Every window user in this crate — external SFS/BNL/winnow, the
//! in-memory algorithms, and the parallel filter's prefix merge — spends
//! its inner loop testing one candidate key against many window entries.
//! The scalar path ([`crate::external`]'s `KeyWindow`, kept as the
//! differential reference) walks entries row-at-a-time through
//! [`dom_rel`], a branchy, short-circuiting loop. Here the window is one
//! contiguous arena of column-major blocks of [`BLOCK_LANES`] entries
//! (keys are already *oriented* all-max by [`SkylineSpec::key_of`], so
//! MIN criteria folded away at insert time), and each block carries two
//! summaries, kept in flat side vectors, that let a probe skip it
//! wholesale:
//!
//! * **Per-criterion maxima.** If the candidate strictly beats a block's
//!   max on any criterion, no entry in the block can dominate *or equal*
//!   the candidate — sound because every entry is ≤ the max coordinate-wise.
//! * **Score bound (Theorem 4).** Every dominator of the candidate has a
//!   strictly greater value under any strictly monotone scoring; we use
//!   the oriented key sum. A block whose max score is strictly below the
//!   candidate's score holds no dominator and no equal key (equal keys
//!   sum equal). When insertion scores have been non-increasing (tracked
//!   per window), block max-scores are non-increasing too, and the first
//!   block falling below the candidate ends the whole scan.
//!
//! Floating-point note: the f64 sum is evaluated left-to-right and
//! rounding is monotone, so `a` dominating `b` still implies
//! `score(a) >= score(b)` after rounding. All score pruning is therefore
//! *strict* (`<`), never `<=`. NaN coordinates are conservatively safe:
//! a NaN never compares greater, so summaries simply fail to advertise
//! the entry and no skip condition can fire against a block it could have
//! decided — and a NaN-keyed entry can neither dominate nor equal
//! anything under [`dom_rel`] anyway.
//!
//! The batched kernel compares a whole sixteen-lane column at once: it
//! folds `entry >= key` criterion by criterion into one `u16` lane
//! bitmask (a shape LLVM autovectorizes), stops as soon as no lane is
//! left, and `trailing_zeros` picks the first candidate lane; only that
//! lane's strictness (`>` somewhere: dominator, not equal) is read back
//! scalar; BNL victims are found the same way with `<=` / `<`. Nothing is
//! allocated per block. Model *comparisons* are still charged
//! entry-at-a-time, up to and including the first decisive entry in
//! window order — never more than the scalar kernel would charge — while
//! [`ProbeCost::lanes`] records the physical lane work and
//! [`ProbeCost::blocks_skipped`] the summary prunes.
//!
//! [`dom_rel`]: crate::dominance::dom_rel
//! [`SkylineSpec::key_of`]: crate::dominance::SkylineSpec::key_of

/// Entries per block. Sixteen f64 lanes per criterion column = two cache
/// lines, small enough that per-block summaries prune at fine grain and
/// large enough that the lane loop vectorizes; one `u16` holds a block's
/// lane mask.
pub const BLOCK_LANES: usize = 16;

/// The oriented key sum — Theorem 4's positive linear scoring with unit
/// weights, the strictly monotone score all block-level bounds use.
#[inline]
#[must_use]
pub fn key_score(key: &[f64]) -> f64 {
    key.iter().sum()
}

/// What one block-window operation cost, in both model and machine units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCost {
    /// Model dominance comparisons charged: entries of non-skipped blocks
    /// scanned up to and including the first decisive entry. Never
    /// exceeds what the scalar kernel charges for the same probe.
    pub comparisons: u64,
    /// Window-entry lanes the batched kernel physically evaluated
    /// (the full population of every non-skipped block).
    pub lanes: u64,
    /// Blocks pruned whole by a summary or score bound.
    pub blocks_skipped: u64,
}

impl ProbeCost {
    /// Component-wise accumulation.
    #[inline]
    pub fn absorb(&mut self, other: ProbeCost) {
        self.comparisons += other.comparisons;
        self.lanes += other.lanes;
        self.blocks_skipped += other.blocks_skipped;
    }
}

/// Outcome of probing an append-only block window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockVerdict {
    /// Some window entry strictly dominates the candidate.
    Dominated,
    /// Some window entry has exactly the candidate's key. (Sound as an
    /// early verdict because window entries are pairwise non-dominating:
    /// nothing can dominate a key equal to one of them.)
    Equal,
    /// The candidate is incomparable with every entry.
    Incomparable,
}

/// Mask of the live lanes of a block holding `len` (1..=16) entries.
#[inline]
fn live(len: usize) -> u16 {
    u16::MAX >> (BLOCK_LANES - len)
}

/// The storage both window shapes share: every block in one contiguous
/// column-major arena plus flat per-block summaries. Unused lanes of the
/// tail block are padded with `-inf`, which can never dominate, equal,
/// or raise a max; kernels run over full blocks and mask to live lanes.
#[derive(Default)]
struct Arena {
    d: usize,
    len: usize,
    /// Block `b`, criterion `c`, lane `l` at `(b·d + c)·16 + l`.
    cols: Vec<f64>,
    /// Per-criterion maximum / minimum over block `b`'s live lanes, at
    /// `b·d + c`.
    maxs: Vec<f64>,
    mins: Vec<f64>,
    /// Maximum / minimum [`key_score`] over block `b`'s live lanes.
    max_score: Vec<f64>,
    min_score: Vec<f64>,
}

impl Arena {
    fn new(d: usize) -> Self {
        debug_assert!(d > 0);
        Arena {
            d,
            ..Arena::default()
        }
    }

    #[inline]
    fn blocks(&self) -> usize {
        self.max_score.len()
    }

    /// Live entries of block `b`.
    #[inline]
    fn block_len(&self, b: usize) -> usize {
        (self.len - b * BLOCK_LANES).min(BLOCK_LANES)
    }

    /// Index of criterion `c` at global position `pos` in `cols`.
    #[inline]
    fn slot(&self, pos: usize, c: usize) -> usize {
        ((pos / BLOCK_LANES) * self.d + c) * BLOCK_LANES + pos % BLOCK_LANES
    }

    /// Keep the first `blocks` blocks (entries beyond them must be gone).
    fn truncate(&mut self, blocks: usize) {
        self.cols.truncate(blocks * self.d * BLOCK_LANES);
        self.maxs.truncate(blocks * self.d);
        self.mins.truncate(blocks * self.d);
        self.max_score.truncate(blocks);
        self.min_score.truncate(blocks);
    }

    fn clear(&mut self) {
        self.len = 0;
        self.truncate(0);
    }

    fn push(&mut self, key: &[f64]) {
        debug_assert_eq!(key.len(), self.d);
        let (b, d) = (self.len / BLOCK_LANES, self.d);
        if self.len.is_multiple_of(BLOCK_LANES) {
            self.cols
                .resize((b + 1) * d * BLOCK_LANES, f64::NEG_INFINITY);
            self.maxs.resize((b + 1) * d, f64::NEG_INFINITY);
            self.mins.resize((b + 1) * d, f64::INFINITY);
            self.max_score.push(f64::NEG_INFINITY);
            self.min_score.push(f64::INFINITY);
        }
        for (c, &v) in key.iter().enumerate() {
            let s = self.slot(self.len, c);
            self.cols[s] = v;
        }
        self.len += 1;
        self.summarize(self.len - 1);
    }

    /// Fold the entry at global position `pos` into its block's summaries.
    fn summarize(&mut self, pos: usize) {
        let (b, d) = (pos / BLOCK_LANES, self.d);
        let mut score = 0.0;
        for c in 0..d {
            let v = self.cols[self.slot(pos, c)];
            score += v;
            self.maxs[b * d + c] = self.maxs[b * d + c].max(v);
            self.mins[b * d + c] = self.mins[b * d + c].min(v);
        }
        self.max_score[b] = self.max_score[b].max(score);
        self.min_score[b] = self.min_score[b].min(score);
    }

    /// Recompute block `b`'s summaries from its live lanes.
    fn rebuild_summaries(&mut self, b: usize) {
        let d = self.d;
        self.max_score[b] = f64::NEG_INFINITY;
        self.min_score[b] = f64::INFINITY;
        self.maxs[b * d..][..d].fill(f64::NEG_INFINITY);
        self.mins[b * d..][..d].fill(f64::INFINITY);
        for l in 0..self.block_len(b) {
            self.summarize(b * BLOCK_LANES + l);
        }
    }

    /// `Vec::swap_remove` at global position `pos`: the last entry fills
    /// the hole and the summaries of both touched blocks are rebuilt.
    fn remove_at(&mut self, pos: usize) {
        debug_assert!(pos < self.len);
        let last = self.len - 1;
        for c in 0..self.d {
            let (hole, tail) = (self.slot(pos, c), self.slot(last, c));
            self.cols[hole] = self.cols[tail];
            // Shrink the tail: reset the vacated lane to padding.
            self.cols[tail] = f64::NEG_INFINITY;
        }
        self.len -= 1;
        let (pb, lb) = (pos / BLOCK_LANES, last / BLOCK_LANES);
        if pb != lb {
            self.rebuild_summaries(pb);
        }
        if last.is_multiple_of(BLOCK_LANES) {
            self.truncate(lb);
        } else {
            self.rebuild_summaries(lb);
        }
    }

    /// Can any entry of block `b` dominate or equal `key`? (Max-coordinate
    /// and strict score screens; both conservative.)
    #[inline]
    fn may_beat(&self, b: usize, key: &[f64], score: f64) -> bool {
        if self.max_score[b] < score {
            return false;
        }
        let maxs = &self.maxs[b * self.d..][..self.d];
        !key.iter().zip(maxs).any(|(&k, &m)| k > m)
    }

    /// Can any entry of block `b` be dominated by `key`? (Min-coordinate
    /// and strict score screens, mirror image of [`Arena::may_beat`].)
    #[inline]
    fn may_fall(&self, b: usize, key: &[f64], score: f64) -> bool {
        if self.min_score[b] > score {
            return false;
        }
        let mins = &self.mins[b * self.d..][..self.d];
        !key.iter().zip(mins).any(|(&k, &m)| k < m)
    }

    /// The batched kernel: fold `keep(entry[c], key[c])` across the
    /// criteria of block `b` into a bitmask of its live lanes, one
    /// sixteen-lane compare per criterion, stopping once no lane is left.
    #[inline]
    fn mask(&self, b: usize, key: &[f64], keep: impl Fn(f64, f64) -> bool) -> u16 {
        let block = &self.cols[b * self.d * BLOCK_LANES..][..self.d * BLOCK_LANES];
        let mut bits = live(self.block_len(b));
        for (col, &k) in block.chunks_exact(BLOCK_LANES).zip(key) {
            let mut m = 0u16;
            for (l, &v) in col.iter().enumerate() {
                m |= u16::from(keep(v, k)) << l;
            }
            bits &= m;
            if bits == 0 {
                break;
            }
        }
        bits
    }

    /// First lane of `hits` (a [`Arena::mask`] result) whose entry also
    /// satisfies `strict` on some criterion, as a lane index.
    #[inline]
    fn first_strict(
        &self,
        b: usize,
        mut hits: u16,
        key: &[f64],
        strict: impl Fn(f64, f64) -> bool,
    ) -> Option<usize> {
        while hits != 0 {
            let l = hits.trailing_zeros() as usize;
            let pos = b * BLOCK_LANES + l;
            if (0..self.d).any(|c| strict(self.cols[self.slot(pos, c)], key[c])) {
                return Some(l);
            }
            hits &= hits - 1;
        }
        None
    }
}

/// Append-only columnar window — the SFS shape: entries are only ever
/// inserted (survivors are proven skyline) and the whole window clears
/// between passes or DIFF groups. Also serves, fully populated, as the
/// read-only arena of the parallel prefix merge via
/// [`BlockWindow::probe_prefix`].
pub struct BlockWindow {
    arena: Arena,
    capacity: usize,
    /// True while insertion scores have been non-increasing — the
    /// precondition for the Theorem-4 whole-tail cutoff.
    monotone: bool,
    last_score: f64,
}

impl BlockWindow {
    /// A window over `d`-criterion oriented keys holding at most
    /// `capacity` entries (use `usize::MAX` for unbounded in-memory use).
    #[must_use]
    pub fn new(d: usize, capacity: usize) -> Self {
        BlockWindow {
            arena: Arena::new(d),
            capacity: capacity.max(1),
            monotone: true,
            last_score: f64::INFINITY,
        }
    }

    /// Entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arena.len
    }

    /// True when no entries are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arena.len == 0
    }

    /// Maximum entries this window may hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.arena.len >= self.capacity
    }

    /// Whether insertion scores have been non-increasing so far (the
    /// Theorem-4 tail cutoff is armed). Exposed for tests.
    #[must_use]
    pub fn is_monotone(&self) -> bool {
        self.monotone
    }

    /// Drop all entries (pass / DIFF-group boundary). The arena keeps its
    /// allocation for the next pass.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.monotone = true;
        self.last_score = f64::INFINITY;
    }

    /// Append a key. Caller must have checked [`BlockWindow::is_full`].
    pub fn insert(&mut self, key: &[f64]) {
        debug_assert!(!self.is_full());
        let score = key_score(key);
        if self.arena.len > 0 && score > self.last_score {
            self.monotone = false;
        }
        self.last_score = score;
        self.arena.push(key);
    }

    /// Probe the window for a dominator or an equal key. Verdicts are
    /// identical to the scalar kernel's: the first decisive entry in
    /// window order decides (skipped blocks provably hold none).
    #[must_use]
    pub fn probe(&self, key: &[f64]) -> (BlockVerdict, ProbeCost) {
        let a = &self.arena;
        debug_assert_eq!(key.len(), a.d);
        let score = key_score(key);
        let mut cost = ProbeCost::default();
        let mut examined = 0u64;
        for b in 0..a.blocks() {
            // Theorem-4 cutoff: with non-increasing insertion scores the
            // block max-scores are non-increasing, so the first block
            // strictly below the candidate ends the scan.
            if self.monotone && a.max_score[b] < score {
                cost.blocks_skipped += (a.blocks() - b) as u64;
                break;
            }
            if !a.may_beat(b, key, score) {
                cost.blocks_skipped += 1;
                continue;
            }
            let len = a.block_len(b) as u64;
            cost.lanes += len;
            let ge = a.mask(b, key, |v, k| v >= k);
            if ge != 0 {
                let l = ge.trailing_zeros() as usize;
                cost.comparisons = examined + l as u64 + 1;
                let verdict = match a.first_strict(b, ge & (1 << l), key, |v, k| v > k) {
                    Some(_) => BlockVerdict::Dominated,
                    None => BlockVerdict::Equal,
                };
                return (verdict, cost);
            }
            examined += len;
        }
        cost.comparisons = examined;
        (BlockVerdict::Incomparable, cost)
    }

    /// Probe only the first `prefix` entries, looking for a *dominator*
    /// (equal keys do not decide — the parallel merge keeps duplicates).
    /// The partial tail block is screened by its whole-block summaries,
    /// a superset bound, and its lanes are read only up to the prefix.
    #[must_use]
    pub fn probe_prefix(&self, key: &[f64], prefix: usize) -> (bool, ProbeCost) {
        let a = &self.arena;
        debug_assert_eq!(key.len(), a.d);
        debug_assert!(prefix <= a.len);
        let score = key_score(key);
        let mut cost = ProbeCost::default();
        let mut examined = 0u64;
        for b in 0..prefix.div_ceil(BLOCK_LANES) {
            if !a.may_beat(b, key, score) {
                cost.blocks_skipped += 1;
                continue;
            }
            let visible = (prefix - b * BLOCK_LANES).min(BLOCK_LANES);
            cost.lanes += visible as u64;
            let ge = a.mask(b, key, |v, k| v >= k) & live(visible);
            if let Some(l) = a.first_strict(b, ge, key, |v, k| v > k) {
                cost.comparisons = examined + l as u64 + 1;
                return (true, cost);
            }
            examined += visible as u64;
        }
        cost.comparisons = examined;
        (false, cost)
    }
}

/// Columnar window with replacement — the BNL shape: a probe can both
/// discard the candidate (a window entry dominates it) and evict window
/// entries the candidate dominates. Blocks carry min summaries too, so
/// either direction can rule a block out.
///
/// Removals follow `Vec::swap_remove` semantics over global positions
/// (block-major order): the last entry fills the hole. Callers that
/// mirror per-entry metadata in a `Vec` apply the reported positions with
/// `Vec::swap_remove`, in order, to stay aligned.
pub struct ReplaceWindow {
    arena: Arena,
}

impl ReplaceWindow {
    /// An unbounded replace-window over `d`-criterion oriented keys
    /// (capacity policy belongs to the caller, which also owns records).
    #[must_use]
    pub fn new(d: usize) -> Self {
        ReplaceWindow {
            arena: Arena::new(d),
        }
    }

    /// Entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arena.len
    }

    /// True when no entries are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arena.len == 0
    }

    /// Drop all entries.
    pub fn clear(&mut self) {
        self.arena.clear();
    }

    /// Append a key (no capacity check — the caller owns that policy).
    pub fn push(&mut self, key: &[f64]) {
        self.arena.push(key);
    }

    /// Remove the entry at global position `pos` by moving the last entry
    /// into its place (`Vec::swap_remove` semantics). Summaries of the
    /// touched blocks are rebuilt exactly.
    pub fn remove_at(&mut self, pos: usize) {
        self.arena.remove_at(pos);
    }

    /// Probe with replacement. Returns whether the candidate is dominated
    /// and, when it survives, fills `removed` with the positions of the
    /// entries it dominates — already applied here via [`Self::remove_at`],
    /// in the reported order, for the caller to mirror.
    ///
    /// Verdicts and the removed set match the scalar BNL loop exactly:
    /// window entries are pairwise non-dominating (the BNL invariant), so
    /// by transitivity "some entry dominates the candidate" and "the
    /// candidate dominates some entry" are mutually exclusive, and
    /// decision order cannot matter.
    pub fn probe_replace(&mut self, key: &[f64], removed: &mut Vec<usize>) -> (bool, ProbeCost) {
        let a = &self.arena;
        debug_assert_eq!(key.len(), a.d);
        removed.clear();
        let score = key_score(key);
        let mut cost = ProbeCost::default();
        let mut examined = 0u64;
        for b in 0..a.blocks() {
            let beat = a.may_beat(b, key, score);
            let fall = a.may_fall(b, key, score);
            if !beat && !fall {
                cost.blocks_skipped += 1;
                continue;
            }
            let len = a.block_len(b) as u64;
            cost.lanes += len;
            if beat {
                let ge = a.mask(b, key, |v, k| v >= k);
                if let Some(l) = a.first_strict(b, ge, key, |v, k| v > k) {
                    // A dominator excludes victims window-wide (pairwise
                    // non-domination + transitivity), so nothing was or
                    // will be removed on this probe.
                    debug_assert!(removed.is_empty());
                    removed.clear();
                    cost.comparisons = examined + l as u64 + 1;
                    return (true, cost);
                }
            }
            if fall {
                let mut le = a.mask(b, key, |v, k| v <= k);
                while let Some(l) = a.first_strict(b, le, key, |v, k| v < k) {
                    removed.push(b * BLOCK_LANES + l);
                    le &= !(u16::MAX >> (BLOCK_LANES - 1 - l));
                }
            }
            examined += len;
        }
        cost.comparisons = examined;
        // Apply evictions highest-position-first: swap_remove only
        // disturbs the last position, so earlier victim positions stay
        // valid (and a victim at the very end is simply truncated).
        removed.reverse();
        for &pos in removed.iter() {
            self.arena.remove_at(pos);
        }
        (false, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::{dom_rel, DomRel};

    fn window_from(rows: &[&[f64]]) -> BlockWindow {
        let mut w = BlockWindow::new(rows[0].len(), usize::MAX);
        for r in rows {
            w.insert(r);
        }
        w
    }

    /// Scalar reference: verdict + comparison charge of `KeyWindow::probe`.
    fn scalar_probe(rows: &[Vec<f64>], key: &[f64]) -> (BlockVerdict, u64) {
        let mut comparisons = 0;
        for entry in rows {
            comparisons += 1;
            match dom_rel(entry, key) {
                DomRel::Dominates => return (BlockVerdict::Dominated, comparisons),
                DomRel::Equal => return (BlockVerdict::Equal, comparisons),
                DomRel::DominatedBy | DomRel::Incomparable => {}
            }
        }
        (BlockVerdict::Incomparable, comparisons)
    }

    #[test]
    fn probe_outcomes_match_scalar_semantics() {
        let w = window_from(&[&[5.0, 5.0], &[0.0, 9.0]]);
        assert_eq!(w.probe(&[4.0, 4.0]).0, BlockVerdict::Dominated);
        assert_eq!(w.probe(&[5.0, 5.0]).0, BlockVerdict::Equal);
        assert_eq!(w.probe(&[6.0, 0.0]).0, BlockVerdict::Incomparable);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn verdicts_agree_with_scalar_across_block_boundaries() {
        // 40 mutually incomparable entries spanning 3 blocks.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![f64::from(i), f64::from(40 - i)])
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let w = window_from(&refs);
        for i in -5..50i32 {
            for j in -5..50i32 {
                let key = [f64::from(i), f64::from(j)];
                let (bv, cost) = w.probe(&key);
                let (sv, scmp) = scalar_probe(&rows, &key);
                assert_eq!(bv, sv, "key {key:?}");
                assert!(
                    cost.comparisons <= scmp,
                    "key {key:?}: charged more than scalar"
                );
            }
        }
    }

    #[test]
    fn summary_skip_prunes_whole_blocks() {
        // One block of weak entries, one with the dominator.
        let mut rows: Vec<Vec<f64>> = (0..BLOCK_LANES)
            .map(|i| vec![1.0 + i as f64 / 100.0, 1.0 - i as f64 / 100.0])
            .collect();
        rows.push(vec![100.0, 100.0]);
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let mut w = BlockWindow::new(2, usize::MAX);
        for r in &refs {
            w.insert(r);
        }
        // Candidate beats block 0's max on criterion 0: block 0 skipped,
        // dominator found at block 1 lane 0 with a single charged entry.
        let (v, cost) = w.probe(&[50.0, 50.0]);
        assert_eq!(v, BlockVerdict::Dominated);
        assert_eq!(cost.blocks_skipped, 1);
        assert_eq!(cost.comparisons, 1);
        assert_eq!(cost.lanes, 1);
    }

    #[test]
    fn monotone_cutoff_ends_scan_early() {
        // Scores strictly decreasing: monotone flag stays armed.
        let rows: Vec<Vec<f64>> = (0..BLOCK_LANES * 3)
            .map(|i| {
                let v = (BLOCK_LANES * 3 - i) as f64;
                vec![v, v]
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let w = window_from(&refs);
        assert!(w.is_monotone());
        // Candidate scores above every entry: first block already falls
        // below it, all 3 blocks skipped, zero comparisons.
        let (v, cost) = w.probe(&[1000.0, 1000.0]);
        assert_eq!(v, BlockVerdict::Incomparable);
        assert_eq!(cost.blocks_skipped, 3);
        assert_eq!(cost.comparisons, 0);
        assert_eq!(cost.lanes, 0);
    }

    #[test]
    fn non_monotone_insertion_disarms_cutoff_but_not_block_skips() {
        let mut w = BlockWindow::new(2, usize::MAX);
        w.insert(&[1.0, 1.0]);
        w.insert(&[9.0, 9.0]); // score rises: not monotone
        assert!(!w.is_monotone());
        // (9,9) must still be found as a dominator of (2,2).
        assert_eq!(w.probe(&[2.0, 2.0]).0, BlockVerdict::Dominated);
    }

    #[test]
    fn equal_key_not_masked_by_score_bound() {
        let mut w = BlockWindow::new(2, usize::MAX);
        w.insert(&[3.0, 4.0]);
        // Equal key has equal score: the strict score bound must not skip.
        let (v, _) = w.probe(&[3.0, 4.0]);
        assert_eq!(v, BlockVerdict::Equal);
    }

    #[test]
    fn clear_resets_everything() {
        let mut w = BlockWindow::new(2, 3);
        w.insert(&[1.0, 1.0]);
        w.insert(&[5.0, 5.0]);
        assert!(!w.is_monotone());
        w.clear();
        assert_eq!(w.len(), 0);
        assert!(w.is_monotone());
        assert_eq!(w.probe(&[0.0, 0.0]).0, BlockVerdict::Incomparable);
        assert!(!w.is_full());
    }

    #[test]
    fn probe_prefix_sees_only_the_prefix() {
        let rows: Vec<Vec<f64>> = vec![
            vec![5.0, 1.0],
            vec![1.0, 5.0],
            vec![9.0, 9.0], // dominator, position 2
        ];
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let w = window_from(&refs);
        let key = [2.0, 2.0];
        assert!(w.probe_prefix(&key, 3).0);
        assert!(!w.probe_prefix(&key, 2).0, "dominator beyond the prefix");
        assert!(!w.probe_prefix(&key, 0).0, "empty prefix dominates nothing");
        // An equal key in the prefix must NOT read as dominated.
        assert!(!w.probe_prefix(&[5.0, 1.0], 1).0);
    }

    #[test]
    fn probe_prefix_partial_tail_block() {
        // 20 entries: prefix 18 cuts into the second block.
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![f64::from(i), f64::from(20 - i)])
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let w = window_from(&refs);
        // Entry 18 is (18, 2); it dominates (17.5, 1.5) but sits beyond
        // prefix 18 (positions 0..18).
        let key = [17.5, 1.5];
        assert!(!w.probe_prefix(&key, 18).0);
        assert!(w.probe_prefix(&key, 19).0);
    }

    /// Scalar BNL reference over a Vec window: verdict + removal set.
    fn scalar_bnl_probe(window: &mut Vec<Vec<f64>>, key: &[f64]) -> (bool, Vec<Vec<f64>>) {
        let mut k = 0;
        let mut removed = Vec::new();
        while k < window.len() {
            match dom_rel(&window[k], key) {
                DomRel::Dominates => return (true, removed),
                DomRel::DominatedBy => removed.push(window.swap_remove(k)),
                DomRel::Equal | DomRel::Incomparable => k += 1,
            }
        }
        (false, removed)
    }

    #[test]
    fn replace_window_matches_scalar_bnl() {
        // Deterministic pseudo-random stream, enough to cross blocks and
        // trigger both discard directions repeatedly.
        let mut scalar: Vec<Vec<f64>> = Vec::new();
        let mut block = ReplaceWindow::new(3);
        let mut removed = Vec::new();
        let mut state = 2003u64;
        for _ in 0..600 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = f64::from((state >> 33) as u32 % 50);
            let b = f64::from((state >> 13) as u32 % 50);
            let c = f64::from((state >> 3) as u32 % 50);
            let key = vec![a, b, c];
            let (bd, _) = block.probe_replace(&key, &mut removed);
            let (sd, sremoved) = scalar_bnl_probe(&mut scalar, &key);
            assert_eq!(bd, sd, "verdict diverged on {key:?}");
            assert_eq!(removed.len(), sremoved.len(), "removal count on {key:?}");
            if !bd {
                block.push(&key);
                scalar.push(key);
            }
            assert_eq!(block.len(), scalar.len());
        }
        // Final windows hold the same multiset of keys.
        let mut s = scalar.clone();
        s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut b: Vec<Vec<f64>> = (0..block.len()).map(|p| block.key_at(p)).collect();
        b.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert_eq!(b, s);
    }

    #[test]
    fn replace_window_mirrors_vec_swap_remove() {
        // The reported removal order must reproduce Vec::swap_remove on a
        // parallel metadata vector.
        let mut block = ReplaceWindow::new(2);
        let mut meta: Vec<usize> = Vec::new();
        let mut keys: Vec<Vec<f64>> = Vec::new();
        let mut removed = Vec::new();
        // Anti-correlated survivors then one crusher that evicts them all.
        for i in 0..20 {
            let key = vec![f64::from(i), f64::from(20 - i)];
            let (d, _) = block.probe_replace(&key, &mut removed);
            assert!(!d);
            for &p in &removed {
                meta.swap_remove(p);
                keys.swap_remove(p);
            }
            block.push(&key);
            meta.push(i as usize);
            keys.push(key);
        }
        let crusher = vec![100.0, 100.0];
        let (d, cost) = block.probe_replace(&crusher, &mut removed);
        assert!(!d);
        assert_eq!(removed.len(), 20, "crusher evicts everyone");
        assert!(cost.comparisons <= 20);
        for &p in &removed {
            meta.swap_remove(p);
            keys.swap_remove(p);
        }
        assert!(meta.is_empty());
        assert_eq!(block.len(), 0);
        block.push(&crusher);
        assert_eq!(block.len(), 1);
        assert_eq!(block.probe(&crusher).0, BlockVerdict::Equal);
        assert_eq!(block.probe(&[99.0, 99.0]).0, BlockVerdict::Dominated);
    }

    impl ReplaceWindow {
        /// Test-only: simple dominator/equal probe (BNL verdict ignoring
        /// the replacement direction).
        fn probe(&self, key: &[f64]) -> (BlockVerdict, ProbeCost) {
            let mut w = BlockWindow::new(self.arena.d, usize::MAX);
            for p in 0..self.len() {
                w.insert(&self.key_at(p));
            }
            w.probe(key)
        }

        /// Test-only: the key stored at global position `pos`.
        fn key_at(&self, pos: usize) -> Vec<f64> {
            let a = &self.arena;
            (0..a.d).map(|c| a.cols[a.slot(pos, c)]).collect()
        }
    }

    #[test]
    fn replace_window_both_direction_skips() {
        // Block 0: entries strong on criterion 0 but weak on criterion 1
        // (max c1 = 15). Block 1: entries below 1.0 on both criteria.
        let mut w = ReplaceWindow::new(2);
        for i in 0..BLOCK_LANES {
            w.push(&[200.0 + i as f64, i as f64]);
        }
        for i in 0..BLOCK_LANES {
            w.push(&[i as f64 / 100.0, 1.0 - i as f64 / 100.0]);
        }
        let mut removed = Vec::new();
        // (25, 25) beats block 0's c1 max (no dominator there) and sits
        // above block 0's c0 min only coordinate-wise impossibly (25 <
        // min c0 = 200: no victim there either) — block 0 skipped whole.
        // Block 1 is examined in the fall direction and fully evicted.
        let (d, cost) = w.probe_replace(&[25.0, 25.0], &mut removed);
        assert!(!d);
        assert_eq!(removed.len(), BLOCK_LANES, "weak block fully evicted");
        assert_eq!(cost.blocks_skipped, 1, "strong block pruned both ways");
        assert_eq!(w.len(), BLOCK_LANES);
        // Only the strong block remains; (1,1) is dominated by its second
        // entry (201, 1) — two charged comparisons, no removals.
        let (d2, cost2) = w.probe_replace(&[1.0, 1.0], &mut removed);
        assert!(d2);
        assert_eq!(cost2.comparisons, 2);
        assert!(removed.is_empty());
    }

    #[test]
    fn nan_keys_never_decide_or_mask() {
        // A NaN-keyed entry advertises nothing and beats nothing.
        let mut w = BlockWindow::new(2, usize::MAX);
        w.insert(&[f64::NAN, 5.0]);
        w.insert(&[3.0, 3.0]);
        let (v, _) = w.probe(&[2.0, 2.0]);
        assert_eq!(v, BlockVerdict::Dominated, "(3,3) still found");
        let (v2, _) = w.probe(&[f64::NAN, 1.0]);
        assert_eq!(v2, BlockVerdict::Incomparable);
    }

    #[test]
    fn charging_never_exceeds_window_len() {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![f64::from(i % 10), f64::from((i * 7) % 13)])
            .collect();
        let mut w = BlockWindow::new(2, usize::MAX);
        let mut held = 0u64;
        for r in &rows {
            let (v, cost) = w.probe(r);
            assert!(cost.comparisons <= held);
            assert!(cost.lanes <= held);
            if !matches!(v, BlockVerdict::Dominated) && !w.is_full() {
                w.insert(r);
                held += 1;
            }
        }
    }

    /// Recompute every block summary from the live lanes and check the
    /// arena's shape: one block per started run of 16 entries, `-inf`
    /// padding past the tail, summaries exact.
    fn assert_arena_exact(a: &Arena) {
        let (d, blocks) = (a.d, a.len.div_ceil(BLOCK_LANES));
        assert_eq!(a.blocks(), blocks, "block count");
        assert_eq!(a.cols.len(), blocks * d * BLOCK_LANES, "arena length");
        assert_eq!((a.maxs.len(), a.mins.len()), (blocks * d, blocks * d));
        assert_eq!(a.min_score.len(), blocks);
        for b in 0..blocks {
            let live: Vec<Vec<f64>> = (b * BLOCK_LANES..(b * BLOCK_LANES + a.block_len(b)))
                .map(|p| (0..d).map(|c| a.cols[a.slot(p, c)]).collect())
                .collect();
            for c in 0..d {
                let col = live.iter().map(|k| k[c]);
                assert_eq!(
                    a.maxs[b * d + c],
                    col.clone().fold(f64::NEG_INFINITY, f64::max)
                );
                assert_eq!(a.mins[b * d + c], col.fold(f64::INFINITY, f64::min));
                for l in live.len()..BLOCK_LANES {
                    let pad = a.cols[(b * d + c) * BLOCK_LANES + l];
                    assert_eq!(pad, f64::NEG_INFINITY, "padding at block {b} lane {l}");
                }
            }
            let scores = live.iter().map(|k| key_score(k));
            assert_eq!(
                a.max_score[b],
                scores.clone().fold(f64::NEG_INFINITY, f64::max)
            );
            assert_eq!(a.min_score[b], scores.fold(f64::INFINITY, f64::min));
        }
    }

    /// Seeded keys over a small integer domain (plenty of ties).
    fn lcg_rows(n: usize, d: usize, seed: u64, domain: u32) -> Vec<Vec<f64>> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        f64::from((state >> 33) as u32 % domain)
                    })
                    .collect()
            })
            .collect()
    }

    /// Both window shapes against the scalar references on one stream:
    /// SFS verdicts and charge bounds (presorted and unsorted), and BNL
    /// verdicts plus position-exact swap-remove mirroring.
    fn check_against_scalar(rows: &[Vec<f64>]) {
        let d = rows[0].len();
        let mut presorted = rows.to_vec();
        presorted.sort_by(|a, b| key_score(b).total_cmp(&key_score(a)));
        for stream in [&presorted, rows] {
            let (mut w, mut held) = (BlockWindow::new(d, usize::MAX), Vec::new());
            for key in stream.iter() {
                let (v, cost) = w.probe(key);
                let (sv, scmp) = scalar_probe(&held, key);
                assert_eq!(v, sv, "d={d} key {key:?}");
                assert!(cost.comparisons <= scmp && cost.lanes <= held.len() as u64);
                if v != BlockVerdict::Dominated {
                    w.insert(key);
                    held.push(key.clone());
                }
            }
            assert_arena_exact(&w.arena);
        }
        let (mut w, mut mirror, mut removed) = (ReplaceWindow::new(d), Vec::new(), Vec::new());
        for key in rows {
            let (dominated, _) = w.probe_replace(key, &mut removed);
            let (sd, sremoved) = scalar_bnl_probe(&mut mirror.clone(), key);
            assert_eq!(
                (dominated, removed.len()),
                (sd, sremoved.len()),
                "d={d} {key:?}"
            );
            for &p in &removed {
                mirror.swap_remove(p);
            }
            if !dominated {
                w.push(key);
                mirror.push(key.clone());
            }
            let held: Vec<Vec<f64>> = (0..w.len()).map(|p| w.key_at(p)).collect();
            assert_eq!(held, mirror, "d={d}: positions must mirror swap_remove");
        }
        assert_arena_exact(&w.arena);
    }

    #[test]
    fn arena_handles_one_and_sixteen_criteria() {
        check_against_scalar(&lcg_rows(400, 1, 11, 50));
        check_against_scalar(&lcg_rows(400, 16, 13, 3));
        check_against_scalar(&lcg_rows(400, 16, 17, 1000));
    }

    /// `len` mutually incomparable entries `(i, len - i)`, all scoring
    /// `len`, inserted in order (monotone: equal scores never rise).
    fn diagonal(len: usize) -> BlockWindow {
        let mut w = BlockWindow::new(2, len);
        for i in 0..len {
            w.insert(&[i as f64, (len - i) as f64]);
        }
        w
    }

    #[test]
    fn window_lengths_around_block_boundaries() {
        for len in [15, 16, 17, 31, 32, 33] {
            let w = diagonal(len);
            assert!(w.is_full() && w.is_monotone());
            assert_arena_exact(&w.arena);
            let rows: Vec<Vec<f64>> = (0..len).map(|i| vec![i as f64, (len - i) as f64]).collect();
            for i in 0..len {
                let (x, y) = (i as f64, (len - i) as f64);
                // the entry itself, and a key only entry i dominates
                for (key, want) in [
                    ([x, y], BlockVerdict::Equal),
                    ([x - 0.5, y - 0.5], BlockVerdict::Dominated),
                ] {
                    let (v, cost) = w.probe(&key);
                    assert_eq!(v, want, "len {len} key {key:?}");
                    assert_eq!(scalar_probe(&rows, &key).0, want);
                    let tail = (len - i / BLOCK_LANES * BLOCK_LANES).min(BLOCK_LANES);
                    assert_eq!(cost.lanes, tail as u64, "only entry {i}'s block is read");
                    assert_eq!(cost.comparisons, (i % BLOCK_LANES) as u64 + 1);
                }
            }
            // A key scoring above every entry: the cutoff skips all blocks.
            let (v, cost) = w.probe(&[len as f64, len as f64]);
            assert_eq!(v, BlockVerdict::Incomparable);
            assert_eq!(cost.blocks_skipped, len.div_ceil(BLOCK_LANES) as u64);
            assert_eq!((cost.lanes, cost.comparisons), (0, 0));
        }
    }

    #[test]
    fn probe_prefix_at_every_offset_of_a_partial_tail_block() {
        let len = BLOCK_LANES + 7;
        let w = diagonal(len);
        for i in 0..len {
            let (x, y) = (i as f64, (len - i) as f64);
            for prefix in 0..=len {
                let (hit, cost) = w.probe_prefix(&[x - 0.5, y - 0.5], prefix);
                assert_eq!(hit, i < prefix, "entry {i} prefix {prefix}");
                assert!(cost.lanes <= prefix as u64 && cost.comparisons <= prefix as u64);
                if hit {
                    assert_eq!(cost.comparisons, (i % BLOCK_LANES) as u64 + 1);
                }
                // an equal key never reads as dominated
                assert!(!w.probe_prefix(&[x, y], prefix).0);
            }
        }
    }

    fn replace_from(rows: &[Vec<f64>]) -> ReplaceWindow {
        let mut w = ReplaceWindow::new(rows[0].len());
        for r in rows {
            w.push(r);
        }
        w
    }

    #[test]
    fn remove_at_hole_and_last_in_one_block() {
        let rows = lcg_rows(10, 3, 5, 100);
        let mut w = replace_from(&rows);
        w.remove_at(3);
        let mut mirror = rows.clone();
        mirror.swap_remove(3);
        assert_eq!(
            (0..w.len()).map(|p| w.key_at(p)).collect::<Vec<_>>(),
            mirror
        );
        assert_arena_exact(&w.arena);
    }

    #[test]
    fn remove_at_last_lane_of_a_full_block() {
        for (len, pos) in [(16, 15), (32, 31), (32, 4), (17, 16), (17, 5), (33, 20)] {
            let rows = lcg_rows(len, 4, len as u64, 100);
            let mut w = replace_from(&rows);
            w.remove_at(pos);
            let mut mirror = rows.clone();
            mirror.swap_remove(pos);
            let held: Vec<Vec<f64>> = (0..w.len()).map(|p| w.key_at(p)).collect();
            assert_eq!(held, mirror, "len {len} pos {pos}");
            assert_arena_exact(&w.arena);
        }
        // Draining a window block by block from the front ends empty.
        let mut w = replace_from(&lcg_rows(40, 2, 3, 100));
        while !w.is_empty() {
            w.remove_at(0);
            assert_arena_exact(&w.arena);
        }
    }

    #[test]
    fn repeated_clear_and_refill() {
        let mut block = BlockWindow::new(3, 64);
        let mut replace = ReplaceWindow::new(3);
        for round in 0..4u64 {
            let rows = lcg_rows(17 + 15 * round as usize, 3, round, 20);
            block.clear();
            replace.clear();
            assert!(block.is_empty() && replace.is_empty() && block.is_monotone());
            assert_arena_exact(&block.arena);
            assert_arena_exact(&replace.arena);
            let mut held: Vec<Vec<f64>> = Vec::new();
            for key in &rows {
                let (v, _) = block.probe(key);
                assert_eq!(v, scalar_probe(&held, key).0, "round {round}");
                if v != BlockVerdict::Dominated {
                    block.insert(key);
                    held.push(key.clone());
                }
                replace.push(key);
            }
            assert_arena_exact(&block.arena);
            assert_arena_exact(&replace.arena);
            let stored: Vec<Vec<f64>> = (0..replace.len()).map(|p| replace.key_at(p)).collect();
            assert_eq!(stored, rows, "round {round}: refill starts at position 0");
        }
    }
}
