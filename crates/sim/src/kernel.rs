//! Sublinear decision kernels: incremental argmin over the SoA slave state.
//!
//! Every paper heuristic reduces to repeated *argmin* decisions over
//! per-slave keys (SRPT's fastest idle slave, List Scheduling's earliest
//! estimated completion, Round Robin's first eligible slave in order). The
//! historical implementation re-scans all `m` slaves on every decision;
//! this module makes those decisions sublinear in `m` while staying
//! **bit-identical** to the linear scan:
//!
//! * [`scan_argmin`] — the historical sequential scan (strict `<` keeps
//!   the lowest index), kept as the executable reference;
//! * [`chunked_argmin`] — the same winner computed in 8 independent lanes
//!   and combined by an exact lexicographic `(key, index)` reduction. No
//!   arithmetic is performed on keys, only comparisons, so the winner is
//!   *exactly* the sequential scan's winner;
//! * [`ArgminTree`] — a tournament tree (segment tree of min, ties broken
//!   by lowest slave index) over materialized keys: O(log m) per updated
//!   leaf, O(1) queries from the root;
//! * [`TouchJournal`] — the engine-side ring of event-touched slaves that
//!   tells a kernel *which* leaves can have changed since it last synced;
//! * [`IncrementalArgmin`] — the scheduler-facing kernel combining all of
//!   the above: it replays the journal suffix into the tree (or rebuilds
//!   on a run/platform change or journal overflow) and answers from the
//!   root. Below [`TREE_THRESHOLD`] slaves, or on views without a journal
//!   (owned [`ViewState`](crate::ViewState)s), it falls back to the
//!   chunked scan;
//! * [`CompletionWalk`] — List Scheduling's completion-time argmin: a
//!   walk over the slaves in static `c_j + p_j` order that stops once a
//!   rounding-safe lower bound on every remaining key exceeds the best
//!   key found.
//!
//! # The bit-identity argument
//!
//! The sequential scan keeps the first strictly smaller key, so its
//! winner is the minimum of the lexicographic pairs `(key_j, j)`. Lane
//! minima and tree nodes each hold the lexicographic minimum of a subset
//! of those pairs, and combining subsets loses nothing — min is
//! associative — so every strategy yields the same pair, hence the same
//! `SlaveId`, with **no** rounding anywhere (comparisons only). This is
//! what lets kernel-backed heuristics claim observational purity
//! (ARCHITECTURE contract #15): traces, digests and artifacts are
//! byte-identical to the scan-based heuristics they replace.
//!
//! # Three key classes
//!
//! * *Journal-stable keys* live in the tree. The tree caches keys, so a
//!   key must be a pure function of state whose changes are journaled —
//!   per-slave believed rates, queue lengths, availability (SRPT; RR's
//!   believed order key gated by eligibility). Debug builds check every
//!   tree answer against the scan, so a key that is not journal-stable
//!   fails loudly.
//! * *Static order plus a monotone lower bound* is served by the pruned
//!   walk. List Scheduling's clairvoyant completion estimate
//!   `fl(max(fl(L + c_j), R_j) + p_j)` changes for *all* slaves with the
//!   port's free time `L`, so no tree can cache it. But f64 addition is
//!   monotone, so the key is at least its link term `fl(fl(L + c_j) +
//!   p_j)`, which is in turn bounded below through the static
//!   `c_j + p_j` alone. Nominal rates are fixed for a whole run (drift is
//!   invisible to schedulers), so the order is sorted once per run and
//!   each decision evaluates exact keys only until the bound of the next
//!   slave in order strictly exceeds the best key. The busy slaves'
//!   `R_j` terms never need a bound.
//! * *Anything else* — keys that move for every slave and admit no
//!   static bound — uses the chunked scan.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::info::InfoTier;
use crate::platform::SlaveId;
use crate::view::SimView;
use mss_obs::kernel_stats::{
    record_kernel_query, record_kernel_rebuild, record_kernel_replayed, record_kernel_scan,
};

/// Below this many slaves the tree bookkeeping costs more than it saves
/// and [`IncrementalArgmin`] answers by [`chunked_argmin`] instead. Tests
/// force the tree at small `m` via [`IncrementalArgmin::with_threshold`].
pub const TREE_THRESHOLD: usize = 64;

/// Monotone source of per-run nonces ([`TouchJournal::run`]): process-wide
/// so a scheduler reused against *any* other workspace (sweep workers
/// hand schedulers and workspaces around independently) can never mistake
/// a new run's journal for a continuation of the one it synced against.
static RUN_NONCE: AtomicU64 = AtomicU64::new(1);

/// The historical argmin: one sequential pass, strict `<`, so the lowest
/// index wins ties; all-infinite keys yield index 0. Keys must not be NaN
/// (debug-asserted). This is the executable reference the kernels are
/// proven against — production paths use [`chunked_argmin`] or the tree.
pub fn scan_argmin<F: FnMut(usize) -> f64>(m: usize, mut key: F) -> usize {
    let mut best = f64::INFINITY;
    let mut arg = 0usize;
    for j in 0..m {
        let k = key(j);
        debug_assert!(!k.is_nan(), "argmin key for slave {j} is NaN");
        if k < best {
            best = k;
            arg = j;
        }
    }
    arg
}

/// Exact chunked argmin: 8 independent lanes each keep the lexicographic
/// `(key, index)` minimum of their stripe, combined by one final exact
/// reduction. Same winner as [`scan_argmin`], bit for bit (comparisons
/// only, no arithmetic on keys); the dense stripes keep the hot loop free
/// of the single serial `best` dependency the sequential scan carries.
pub fn chunked_argmin<F: FnMut(usize) -> f64>(m: usize, mut key: F) -> usize {
    const LANES: usize = 8;
    let mut lane_key = [f64::INFINITY; LANES];
    let mut lane_idx = [usize::MAX; LANES];
    let mut base = 0usize;
    while base + LANES <= m {
        for l in 0..LANES {
            let j = base + l;
            let k = key(j);
            debug_assert!(!k.is_nan(), "argmin key for slave {j} is NaN");
            if k < lane_key[l] {
                lane_key[l] = k;
                lane_idx[l] = j;
            }
        }
        base += LANES;
    }
    for (l, j) in (base..m).enumerate() {
        let k = key(j);
        debug_assert!(!k.is_nan(), "argmin key for slave {j} is NaN");
        if k < lane_key[l] {
            lane_key[l] = k;
            lane_idx[l] = j;
        }
    }
    // Lexicographic (key, index) reduction over the lanes. A lane's index
    // is MAX iff it never saw a finite-beating key; if every lane is MAX
    // the scan's answer is index 0.
    let mut bk = f64::INFINITY;
    let mut bi = usize::MAX;
    for l in 0..LANES {
        if lane_key[l] < bk || (lane_key[l] == bk && lane_idx[l] < bi) {
            bk = lane_key[l];
            bi = lane_idx[l];
        }
    }
    if bi == usize::MAX {
        0
    } else {
        bi
    }
}

/// Ring journal of event-touched slaves, maintained by the engine inside
/// its workspace and exposed to schedulers through
/// [`SimView::touch_journal`](crate::SimView::touch_journal).
///
/// Every engine event that can change a slave's observable state (sends,
/// completions, failures, recoveries, estimate updates) appends the slave
/// index — deduplicated per refresh cycle, so a batch touches each slave
/// at most once. `epoch` counts appends over the whole run; the ring
/// holds the most recent `capacity` entries, so a kernel whose lag
/// exceeds the capacity simply rebuilds (correct either way — the journal
/// is a performance hint, never a source of truth).
#[derive(Debug, Default)]
pub struct TouchJournal {
    run: u64,
    epoch: u64,
    ring: Vec<u32>,
}

impl TouchJournal {
    /// Re-arms the journal for a fresh run over `m` slaves: new run
    /// nonce, epoch zero, ring sized to a power of two that comfortably
    /// covers a full between-decisions event burst (O(m)).
    pub(crate) fn reset(&mut self, m: usize) {
        self.run = RUN_NONCE.fetch_add(1, Ordering::Relaxed);
        self.epoch = 0;
        let cap = (2 * m + 64).next_power_of_two();
        if self.ring.len() != cap {
            self.ring.clear();
            self.ring.resize(cap, 0);
        }
    }

    /// Appends a touched slave index.
    #[inline]
    pub(crate) fn touch(&mut self, j: u32) {
        let mask = self.ring.len() - 1;
        self.ring[(self.epoch as usize) & mask] = j;
        self.epoch += 1;
    }

    /// Nonce of the run this journal describes — unique process-wide, so
    /// comparing it against a previously synced nonce is a sound "same
    /// run?" test even for schedulers migrating between workspaces.
    pub fn run(&self) -> u64 {
        self.run
    }

    /// Total touches appended this run.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of most-recent entries the ring retains.
    pub fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// The touch appended at absolute epoch `e`. Meaningful only for
    /// `e` within `capacity` of [`TouchJournal::epoch`].
    #[inline]
    pub fn entry(&self, e: u64) -> u32 {
        self.ring[(e as usize) & (self.ring.len() - 1)]
    }
}

/// Tournament tree of lexicographic `(key, slave index)` minima: a
/// power-of-two segment tree whose padding leaves hold `(+∞, u32::MAX)`
/// so they can never win against a real slave. Updates bubble a changed
/// leaf to the root in O(log m); the winner is read from the root in
/// O(1). Comparisons never round, so the root is exactly the
/// [`scan_argmin`] winner over the same keys.
#[derive(Debug, Default, Clone)]
pub struct ArgminTree {
    /// Node keys, 1-based heap layout (`key[1]` is the root, leaves at
    /// `p2..p2 + m`).
    key: Vec<f64>,
    /// Winning slave index per node (`u32::MAX` on padding).
    idx: Vec<u32>,
    m: usize,
    p2: usize,
}

impl ArgminTree {
    /// Number of leaves (slaves) currently indexed.
    pub fn len(&self) -> usize {
        self.m
    }

    /// `true` before the first rebuild.
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    #[inline]
    fn better(ka: f64, ia: u32, kb: f64, ib: u32) -> bool {
        // Is (kb, ib) lexicographically smaller than (ka, ia)?
        kb < ka || (kb == ka && ib < ia)
    }

    /// Re-keys every slave from `key` and rebuilds all internal nodes:
    /// O(m). Reuses node storage across runs of the same size.
    pub fn rebuild<F: FnMut(usize) -> f64>(&mut self, m: usize, key: &mut F) {
        let p2 = m.next_power_of_two().max(1);
        if self.p2 != p2 {
            self.key.clear();
            self.key.resize(2 * p2, f64::INFINITY);
            self.idx.clear();
            self.idx.resize(2 * p2, u32::MAX);
            self.p2 = p2;
        }
        self.m = m;
        for j in 0..m {
            let k = key(j);
            debug_assert!(!k.is_nan(), "argmin key for slave {j} is NaN");
            self.key[p2 + j] = k;
            self.idx[p2 + j] = j as u32;
        }
        for j in m..p2 {
            self.key[p2 + j] = f64::INFINITY;
            self.idx[p2 + j] = u32::MAX;
        }
        for i in (1..p2).rev() {
            let (lk, li) = (self.key[2 * i], self.idx[2 * i]);
            let (rk, ri) = (self.key[2 * i + 1], self.idx[2 * i + 1]);
            if Self::better(lk, li, rk, ri) {
                self.key[i] = rk;
                self.idx[i] = ri;
            } else {
                self.key[i] = lk;
                self.idx[i] = li;
            }
        }
    }

    /// Updates slave `j`'s key and bubbles the change to the root,
    /// stopping as soon as a node is unaffected: O(log m) worst case.
    pub fn update(&mut self, j: usize, k: f64) {
        debug_assert!(!k.is_nan(), "argmin key for slave {j} is NaN");
        debug_assert!(j < self.m, "update of slave {j} past tree size {}", self.m);
        let mut i = self.p2 + j;
        if self.key[i].to_bits() == k.to_bits() {
            return;
        }
        self.key[i] = k;
        while i > 1 {
            i /= 2;
            let (lk, li) = (self.key[2 * i], self.idx[2 * i]);
            let (rk, ri) = (self.key[2 * i + 1], self.idx[2 * i + 1]);
            let (nk, ni) = if Self::better(lk, li, rk, ri) {
                (rk, ri)
            } else {
                (lk, li)
            };
            if self.key[i].to_bits() == nk.to_bits() && self.idx[i] == ni {
                break;
            }
            self.key[i] = nk;
            self.idx[i] = ni;
        }
    }

    /// The winning slave index — the [`scan_argmin`] answer over the
    /// current keys (index 0 when every key is `+∞`, like the scan).
    pub fn winner(&self) -> usize {
        debug_assert!(self.m > 0, "winner() on an empty tree");
        let i = self.idx[1];
        if i == u32::MAX {
            0
        } else {
            i as usize
        }
    }
}

/// The scheduler-facing decision kernel: an argmin over per-slave keys
/// that is sublinear in `m` when the view carries a [`TouchJournal`] and
/// bit-identical to [`scan_argmin`] always.
///
/// One kernel indexes **one key family**: the keys it caches are only
/// re-derived for journaled slaves, so calling [`IncrementalArgmin::argmin`]
/// with closures that disagree about un-touched slaves is a logic error
/// (debug builds check every tree answer against [`chunked_argmin`]). If
/// an external input to the key family changes wholesale, call
/// [`IncrementalArgmin::invalidate`].
#[derive(Debug, Clone)]
pub struct IncrementalArgmin {
    tree: ArgminTree,
    synced_run: u64,
    synced_epoch: u64,
    live: bool,
    scan_only: bool,
    threshold: usize,
}

impl Default for IncrementalArgmin {
    fn default() -> Self {
        IncrementalArgmin::new()
    }
}

impl IncrementalArgmin {
    /// A tree-backed kernel with the default small-`m` scan threshold.
    pub fn new() -> Self {
        IncrementalArgmin {
            tree: ArgminTree::default(),
            synced_run: 0,
            synced_epoch: 0,
            live: false,
            scan_only: false,
            threshold: TREE_THRESHOLD,
        }
    }

    /// The linear-scan reference kernel: every decision is answered by
    /// [`chunked_argmin`], never the tree. Used by equivalence proptests
    /// and the `kernel-vs-scan` benchmarks as the historical path.
    pub fn scan_reference() -> Self {
        IncrementalArgmin {
            scan_only: true,
            ..IncrementalArgmin::new()
        }
    }

    /// Overrides [`TREE_THRESHOLD`] (tests force the tree at tiny `m`
    /// with a threshold of 0).
    pub fn with_threshold(mut self, threshold: usize) -> Self {
        self.threshold = threshold;
        self
    }

    /// Forgets all cached keys; the next decision rebuilds. Call after
    /// wholesale changes to the key family's external inputs.
    pub fn invalidate(&mut self) {
        self.live = false;
    }

    /// The slave minimizing `key`, resolving ties toward the lowest
    /// index — exactly the [`scan_argmin`] winner. Sublinear when the
    /// tree is engaged; an exact chunked scan otherwise.
    pub fn argmin<F: FnMut(usize) -> f64>(&mut self, view: &SimView<'_>, mut key: F) -> SlaveId {
        let m = view.num_slaves();
        let journal = match view.touch_journal() {
            Some(j) if !self.scan_only && m >= self.threshold => j,
            _ => {
                record_kernel_scan();
                return SlaveId(chunked_argmin(m, key));
            }
        };
        if !self.live
            || journal.run() != self.synced_run
            || m != self.tree.len()
            || journal.epoch() - self.synced_epoch > journal.capacity() as u64
        {
            self.tree.rebuild(m, &mut key);
            record_kernel_rebuild();
        } else if journal.epoch() > self.synced_epoch {
            for e in self.synced_epoch..journal.epoch() {
                let j = journal.entry(e) as usize;
                self.tree.update(j, key(j));
            }
            record_kernel_replayed(journal.epoch() - self.synced_epoch);
        }
        self.live = true;
        self.synced_run = journal.run();
        self.synced_epoch = journal.epoch();
        record_kernel_query();
        let winner = self.tree.winner();
        // Staleness tripwire: a key the journal cannot see change leaves
        // the tree behind the scan. Calls the scan directly so no kernel
        // counter moves and counts stay build-invariant.
        debug_assert_eq!(
            winner,
            chunked_argmin(m, &mut key),
            "tree winner disagrees with the scan: a key outside the journal changed"
        );
        SlaveId(winner)
    }
}

/// `1 - 2^-48`: scales `fl(L + s)` to a strict lower bound on every
/// `fl(fl(L + c) + p)` with `fl(c + p) >= s`, for non-negative finite
/// operands. The key's two roundings and `fl(c + p)`'s one lose at most
/// `3u` relative (`u = 2^-53`) and the bound's own two at most `2u` more;
/// `1 - 32u` leaves ample margin, so pruning never drops a key that could
/// win.
const WALK_SLACK: f64 = 1.0 - 1.0 / (1u64 << 48) as f64;

/// List Scheduling's completion-time argmin, sublinear in `m` and
/// bit-identical to [`scan_argmin`] over
/// [`SimView::completion_estimate`](crate::SimView::completion_estimate).
///
/// At the start of each run (a new [`TouchJournal::run`] nonce) the
/// slaves are sorted once by their nominal `(c_j + p_j, j)`. Each decision
/// walks that order, evaluating the exact key of every visited slave and
/// keeping the lexicographic `(key, index)` minimum, and stops as soon as
/// the next slave's lower bound `fl(fl(L + fl(c_j + p_j))·(1 − 2⁻⁴⁸))` is
/// **strictly** greater than the best key: every slave from there on has
/// a strictly larger key, so it can neither win nor tie. `L` is the
/// port's free time.
///
/// The walk engages at [`InfoTier::Clairvoyant`](crate::InfoTier) on
/// journaled views with at least [`TREE_THRESHOLD`] slaves. Elsewhere —
/// learned rates move the order, small platforms, owned views — it
/// answers by [`chunked_argmin`].
///
/// The `key` closure must return, for every slave, a value no smaller
/// than `fl(fl(L + c_j) + p_j)` over nominal rates — the clairvoyant
/// completion estimate satisfies this by monotone rounding.
#[derive(Debug, Default, Clone)]
pub struct CompletionWalk {
    /// Slaves in `(fl(c_j + p_j), j)` order for the synced run.
    order: Vec<(f64, u32)>,
    synced_run: u64,
}

impl CompletionWalk {
    /// The slave minimizing `key`, resolving ties toward the lowest
    /// index — exactly the [`scan_argmin`] winner.
    pub fn argmin<F: FnMut(usize) -> f64>(&mut self, view: &SimView<'_>, mut key: F) -> SlaveId {
        let m = view.num_slaves();
        let link = view.link_free_at().as_f64();
        let run = match view.touch_journal() {
            Some(j)
                if m >= TREE_THRESHOLD
                    && view.info_tier() == InfoTier::Clairvoyant
                    && link >= 0.0 =>
            {
                j.run()
            }
            _ => return SlaveId(chunked_argmin(m, key)),
        };
        if run != self.synced_run || self.order.len() != m {
            let platform = view.platform();
            self.order.clear();
            self.order.extend(
                platform
                    .slave_ids()
                    .map(|j| (platform.c(j) + platform.p(j), j.0 as u32)),
            );
            self.order
                .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            self.synced_run = run;
        }
        let (mut best, mut arg) = (f64::INFINITY, usize::MAX);
        for &(s, j) in &self.order {
            if (link + s) * WALK_SLACK > best {
                break;
            }
            let j = j as usize;
            let k = key(j);
            debug_assert!(!k.is_nan(), "argmin key for slave {j} is NaN");
            if k < best || (k == best && j < arg) {
                best = k;
                arg = j;
            }
        }
        // Only an all-infinite key set leaves the walk without a finite
        // winner; it then visited every slave, and the scan answers 0.
        SlaveId(if best == f64::INFINITY { 0 } else { arg })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_matches_scan_on_awkward_shapes() {
        // Duplicate minima, infinities, lane boundaries, tiny m.
        let cases: Vec<Vec<f64>> = vec![
            vec![],
            vec![3.0],
            vec![f64::INFINITY],
            vec![f64::INFINITY; 17],
            vec![2.0, 1.0, 1.0, 5.0],
            (0..64).map(|i| ((i * 7) % 13) as f64).collect(),
            (0..65).map(|i| ((i * 11) % 5) as f64).collect(),
            (0..100)
                .map(|i| if i % 9 == 0 { f64::INFINITY } else { 4.0 })
                .collect(),
        ];
        for keys in cases {
            let m = keys.len();
            if m == 0 {
                continue;
            }
            assert_eq!(
                chunked_argmin(m, |j| keys[j]),
                scan_argmin(m, |j| keys[j]),
                "keys {keys:?}"
            );
        }
    }

    #[test]
    fn tree_tracks_scan_through_updates() {
        let mut keys: Vec<f64> = (0..37).map(|i| ((i * 29) % 17) as f64).collect();
        let mut tree = ArgminTree::default();
        tree.rebuild(keys.len(), &mut |j| keys[j]);
        assert_eq!(tree.winner(), scan_argmin(keys.len(), |j| keys[j]));
        // A deterministic walk of updates, including ties and infinities.
        for step in 0..200usize {
            let j = (step * 13) % keys.len();
            let k = match step % 4 {
                0 => f64::INFINITY,
                1 => 0.0,
                2 => ((step * 31) % 23) as f64,
                _ => keys[(step * 7) % keys.len()],
            };
            keys[j] = k;
            tree.update(j, k);
            assert_eq!(
                tree.winner(),
                scan_argmin(keys.len(), |j| keys[j]),
                "step {step}: keys {keys:?}"
            );
        }
    }

    #[test]
    fn all_infinite_keys_pick_slave_zero_everywhere() {
        let m = 9;
        let mut tree = ArgminTree::default();
        tree.rebuild(m, &mut |_| f64::INFINITY);
        assert_eq!(tree.winner(), 0);
        assert_eq!(chunked_argmin(m, |_| f64::INFINITY), 0);
        assert_eq!(scan_argmin(m, |_| f64::INFINITY), 0);
    }

    #[test]
    fn walk_bound_stays_below_every_link_term() {
        // Operands spread over 40 binades, sums landing on both sides of
        // every rounding boundary: the scaled bound through `fl(c + p)`
        // must stay strictly below `fl(fl(L + c) + p)`.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mant = 1.0 + (x >> 11) as f64 / (1u64 << 53) as f64;
            mant * 2f64.powi((x % 40) as i32 - 20)
        };
        for _ in 0..100_000 {
            let (link, c, p) = (draw(), draw(), draw());
            let bound = (link + (c + p)) * WALK_SLACK;
            assert!(bound < (link + c) + p, "L={link:e} c={c:e} p={p:e}");
        }
    }

    /// A journaled clairvoyant view over `state`, as the engine hands out.
    fn journaled<'a>(state: &'a crate::ViewState, journal: &'a TouchJournal) -> SimView<'a> {
        let mut view = state.view();
        view.journal = Some(journal);
        view
    }

    /// The walk's and the scan's answers on a journaled view of
    /// `(c, p)` slaves padded to the threshold with slow ones; `busy`
    /// gives slave 1 a ready time.
    fn walk_and_scan(slaves: &[(f64, f64)], now: f64, busy: Option<f64>) -> (SlaveId, usize) {
        let (mut c, mut p): (Vec<f64>, Vec<f64>) = slaves.iter().copied().unzip();
        c.resize(TREE_THRESHOLD, 4.0);
        p.resize(TREE_THRESHOLD, 4.0);
        let mut state = crate::ViewState::new(crate::Platform::from_vectors(&c, &p), 0, None);
        state.now = crate::Time::new(now);
        if let Some(ready) = busy {
            state.slaves.outstanding[1] = 1;
            state.slaves.ready_estimate[1] = ready;
        }
        let mut journal = TouchJournal::default();
        journal.reset(c.len());
        let view = journaled(&state, &journal);
        let key = |j: usize| view.completion_estimate(SlaveId(j)).as_f64();
        assert_eq!(key(0), key(1), "the case must be a tie");
        let walk = CompletionWalk::default().argmin(&view, key);
        (walk, scan_argmin(c.len(), key))
    }

    #[test]
    fn walk_breaks_cross_order_ties_to_the_lowest_index() {
        // Slave 1 sorts first (c + p = 1) but is busy until 1.5, so both
        // keys are exactly L + 2 = 2 and slave 0's bound meets the best
        // key: the walk must still visit slave 0.
        assert_eq!(
            walk_and_scan(&[(1.0, 1.0), (0.5, 0.5)], 0.0, Some(1.5)),
            (SlaveId(0), 0)
        );
        // Both idle, keys both 8.1 at L = 5.2, but fl(1.3 + 1.6) rounds
        // one ulp above fl(2.8 + 0.1), so slave 1 sorts first and an
        // unscaled bound fl(L + 2.9000000000000004) = 8.100000000000001
        // would skip slave 0.
        assert_eq!(
            walk_and_scan(&[(1.3, 1.6), (2.8, 0.1)], 5.2, None),
            (SlaveId(0), 0)
        );
    }

    #[test]
    fn walk_matches_scan_on_random_views() {
        // Dyadic rates make ties exact; decimal rates make `c + p` round.
        // One walk serves every view, each under a fresh run nonce, so a
        // stale order from the previous platform would show.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut walk = CompletionWalk::default();
        let mut journal = TouchJournal::default();
        for trial in 0..400 {
            let m = TREE_THRESHOLD + draw(80) as usize;
            let dyadic = trial % 2 == 0;
            let (c, p): (Vec<f64>, Vec<f64>) = (0..m)
                .map(|_| {
                    let (a, b) = ((1 + draw(4)) as f64, (1 + draw(8)) as f64);
                    if dyadic {
                        (0.125 * a, 0.25 * b)
                    } else {
                        (0.1 * a, 0.3 * b)
                    }
                })
                .unzip();
            let mut state = crate::ViewState::new(crate::Platform::from_vectors(&c, &p), 0, None);
            state.now = crate::Time::new(0.25 * draw(40) as f64);
            state.link_busy_until = state.now + 0.25 * draw(3) as f64;
            for j in 0..m {
                if draw(3) > 0 {
                    state.slaves.outstanding[j] = 1 + draw(3) as usize;
                    state.slaves.ready_estimate[j] = state.now.as_f64() + 0.25 * draw(12) as f64;
                } else {
                    state.slaves.ready_estimate[j] = state.now.as_f64();
                }
            }
            journal.reset(m);
            let view = journaled(&state, &journal);
            let key = |j: usize| view.completion_estimate(SlaveId(j)).as_f64();
            assert_eq!(
                walk.argmin(&view, key),
                SlaveId(scan_argmin(m, key)),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn journal_ring_wraps_and_renumbers_runs() {
        let mut j = TouchJournal::default();
        j.reset(2);
        let first_run = j.run();
        let cap = j.capacity();
        assert!(cap >= 4 && cap.is_power_of_two());
        for i in 0..(cap as u64 + 3) {
            j.touch((i % 5) as u32);
        }
        assert_eq!(j.epoch(), cap as u64 + 3);
        // The most recent `cap` entries are retrievable.
        for e in j.epoch() - cap as u64..j.epoch() {
            assert_eq!(j.entry(e), (e % 5) as u32);
        }
        j.reset(2);
        assert_ne!(j.run(), first_run);
        assert_eq!(j.epoch(), 0);
    }
}
