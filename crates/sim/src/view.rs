//! The scheduler's window into the simulation.
//!
//! This module is split into a **raw observable core** and a
//! **tier-filtering facade**:
//!
//! * the raw core is what any master trivially observes regardless of
//!   information model — the clock, the state of its own port, released
//!   tasks and their release times, per-slave counts and availability
//!   ([`SlaveView`]), and the learned per-slave rate estimates
//!   ([`SlaveEstimate`]) distilled from its own event timestamps;
//! * the facade is [`SimView`]: every accessor that involves privileged
//!   knowledge — the nominal platform, nominal-size ready/completion
//!   estimates, the total-task-count hint — dispatches on the view's
//!   [`InfoTier`] and answers from nominal values at
//!   [`InfoTier::Clairvoyant`] (bit-identical to the historical,
//!   pre-information-model view) or from learned estimates below it.
//!
//! Unreleased tasks and actual (perturbed) sizes of unfinished work are
//! invisible at *every* tier.

use crate::info::{InfoTier, SlaveEstimate, SlaveEstimates};
use crate::kernel::TouchJournal;
use crate::platform::{Platform, SlaveId};
use crate::task::TaskId;
use crate::time::Time;

/// One slave's observable state, as a value snapshot — the per-slave row
/// of [`SlaveViews`], handed out by [`SimView::slave`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SlaveView {
    /// Tasks sent (or being sent) to this slave and not yet completed.
    pub outstanding: usize,
    /// Estimated time at which the slave finishes all outstanding work.
    /// At [`InfoTier::Clairvoyant`] this is computed with nominal sizes and
    /// re-anchored on every observed completion; below it, from the learned
    /// per-slave rates. Equals `now` for an idle slave.
    pub ready_estimate: Time,
    /// Total number of tasks completed by this slave so far.
    pub completed: usize,
    /// `false` while the slave is failed (scenario timelines; always `true`
    /// on a static platform). The master observes failures, so availability
    /// is part of the on-line information model at every tier.
    pub available: bool,
}

/// The fleet's observable state, stored column-major (structure of
/// arrays): one contiguous column per [`SlaveView`] field, indexed by
/// slave.
///
/// The columns are public and maintained directly — the DES engine writes
/// them in `recompute_view`, the `mss-cluster` executor and custom
/// harnesses write them through an owned [`ViewState`]. Keeping
/// `ready_estimate` as a dense `f64` column (rather than an array of
/// structs) means the heuristics' per-decision argmin scans — SRPT's
/// idle-slave ranking, List Scheduling's completion-estimate
/// minimization — traverse contiguous same-typed memory.
#[derive(Clone, Debug, Default)]
pub struct SlaveViews {
    /// Tasks sent (or being sent) to each slave and not yet completed.
    pub outstanding: Vec<usize>,
    /// Per-slave ready estimates, in seconds ([`SlaveView::ready_estimate`]
    /// as its raw `f64`).
    pub ready_estimate: Vec<f64>,
    /// Total tasks completed by each slave so far.
    pub completed: Vec<usize>,
    /// Per-slave availability (`false` while failed).
    pub available: Vec<bool>,
}

impl SlaveViews {
    /// Fresh columns for `m` idle, available slaves at time zero.
    pub fn new(m: usize) -> Self {
        let mut v = SlaveViews::default();
        v.reset(m);
        v
    }

    /// Re-initializes for `m` slaves, keeping column capacity (the
    /// workspace-reuse path).
    pub fn reset(&mut self, m: usize) {
        self.outstanding.clear();
        self.outstanding.resize(m, 0);
        self.ready_estimate.clear();
        self.ready_estimate.resize(m, 0.0);
        self.completed.clear();
        self.completed.resize(m, 0);
        self.available.clear();
        self.available.resize(m, true);
    }

    /// Number of slaves the columns cover.
    pub fn len(&self) -> usize {
        self.outstanding.len()
    }

    /// `true` iff the columns cover no slave.
    pub fn is_empty(&self) -> bool {
        self.outstanding.is_empty()
    }

    /// Value snapshot of slave `j`'s row.
    pub fn get(&self, j: usize) -> SlaveView {
        SlaveView {
            outstanding: self.outstanding[j],
            ready_estimate: Time::new(self.ready_estimate[j]),
            completed: self.completed[j],
            available: self.available[j],
        }
    }

    /// Writes slave `j`'s row from a value snapshot.
    pub fn set(&mut self, j: usize, v: SlaveView) {
        self.outstanding[j] = v.outstanding;
        self.ready_estimate[j] = v.ready_estimate.as_f64();
        self.completed[j] = v.completed;
        self.available[j] = v.available;
    }
}

/// Owned observable state from which a [`SimView`] can be borrowed.
///
/// The DES engine builds views internally; alternative backends (the
/// threaded cluster executor of `mss-cluster`, custom harnesses, tests)
/// maintain a `ViewState` and call [`ViewState::view`] to drive any
/// [`OnlineScheduler`](crate::OnlineScheduler) outside the simulator.
/// [`ViewState::new`] starts at [`InfoTier::Clairvoyant`]; set
/// [`ViewState::tier`] (and maintain [`ViewState::estimates`]) to drive
/// schedulers under a withdrawn information model.
#[derive(Clone, Debug)]
pub struct ViewState {
    /// Current time.
    pub now: Time,
    /// The (nominal) platform.
    pub platform: Platform,
    /// Information tier the borrowed views filter at.
    pub tier: InfoTier,
    /// When the master's port frees (≤ `now` when idle).
    pub link_busy_until: Time,
    /// Per-slave observable state, column-major.
    pub slaves: SlaveViews,
    /// Per-slave learned rate estimates, column-major (read below
    /// `Clairvoyant`).
    pub estimates: SlaveEstimates,
    /// Bumped whenever an estimate absorbs a new observation.
    pub estimate_version: u64,
    /// Released, unassigned tasks in FIFO order.
    pub pending: Vec<TaskId>,
    /// Release time per task id (only entries for released tasks are read).
    pub releases: Vec<Time>,
    /// Total-task-count hint, if granted.
    pub horizon: Option<usize>,
    /// Number of tasks released so far.
    pub released_count: usize,
    /// Number of tasks completed so far.
    pub completed_count: usize,
}

impl ViewState {
    /// Fresh state at time zero for a platform (clairvoyant tier).
    pub fn new(platform: Platform, num_tasks: usize, horizon: Option<usize>) -> Self {
        let m = platform.num_slaves();
        ViewState {
            now: Time::ZERO,
            platform,
            tier: InfoTier::Clairvoyant,
            link_busy_until: Time::ZERO,
            slaves: SlaveViews::new(m),
            estimates: SlaveEstimates::new(m),
            estimate_version: 0,
            pending: Vec::new(),
            releases: vec![Time::ZERO; num_tasks],
            horizon,
            released_count: 0,
            completed_count: 0,
        }
    }

    /// Borrows the state as the view schedulers consume.
    pub fn view(&self) -> SimView<'_> {
        SimView {
            now: self.now,
            platform: &self.platform,
            tier: self.tier,
            link_busy_until: self.link_busy_until,
            slaves: &self.slaves,
            estimates: &self.estimates,
            estimate_version: self.estimate_version,
            pending: &self.pending,
            releases: &self.releases,
            release_base: 0,
            horizon: self.horizon,
            released_count: self.released_count,
            completed_count: self.completed_count,
            journal: None,
            idle_lazy: false,
        }
    }
}

/// Immutable snapshot handed to [`OnlineScheduler`](crate::OnlineScheduler)
/// callbacks — the tier-filtering facade.
///
/// Inside the engine this is a pure borrow of incrementally maintained
/// state — constructing and reading a view allocates nothing, at every
/// tier. Outside the engine, borrow one from an owned [`ViewState`]:
///
/// ```
/// use mss_sim::{Platform, SlaveId, TaskId, Time, ViewState};
///
/// let mut state = ViewState::new(Platform::from_vectors(&[1.0, 2.0], &[3.0, 5.0]), 4, None);
/// state.pending.push(TaskId(0));
/// state.released_count = 1;
/// let view = state.view();
/// assert_eq!(view.num_slaves(), 2);
/// assert_eq!(view.pending_tasks(), &[TaskId(0)]);
/// assert!(view.link_idle());
/// // Both slaves are idle: a new task finishes at c_j + p_j.
/// assert_eq!(view.completion_estimate(SlaveId(0)), Time::new(4.0));
/// assert_eq!(view.completion_estimate(SlaveId(1)), Time::new(7.0));
/// ```
pub struct SimView<'a> {
    pub(crate) now: Time,
    pub(crate) platform: &'a Platform,
    pub(crate) tier: InfoTier,
    pub(crate) link_busy_until: Time,
    pub(crate) slaves: &'a SlaveViews,
    pub(crate) estimates: &'a SlaveEstimates,
    pub(crate) estimate_version: u64,
    pub(crate) pending: &'a [TaskId],
    pub(crate) releases: &'a [Time],
    /// First task id `releases` holds a slot for (0 except in
    /// bounded-memory streamed runs, where finalized slots are recycled
    /// and the window starts at the oldest live task).
    pub(crate) release_base: usize,
    pub(crate) horizon: Option<usize>,
    pub(crate) released_count: usize,
    pub(crate) completed_count: usize,
    /// The engine's ring of event-touched slaves, when this view is
    /// engine-backed — the raw material of the sublinear decision kernels
    /// ([`crate::kernel::IncrementalArgmin`]). `None` for views borrowed
    /// from an owned [`ViewState`], where kernels fall back to the exact
    /// chunked scan.
    pub(crate) journal: Option<&'a TouchJournal>,
    /// Engine-backed views answer an idle slave's ready estimate as `now`
    /// directly instead of reading the cached column (the fold over an
    /// empty queue *is* `now`, so this is bit-identical) — which is what
    /// lets the engine skip per-callback recomputation of idle rows.
    /// `ViewState`-backed views keep full column authority.
    pub(crate) idle_lazy: bool,
}

impl<'a> SimView<'a> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The information tier this view filters at.
    pub fn info_tier(&self) -> InfoTier {
        self.tier
    }

    /// The platform (nominal `c_j`, `p_j`).
    ///
    /// **Capability gate:** nominal values are privileged knowledge, so
    /// this accessor exists only at [`InfoTier::Clairvoyant`] and panics
    /// below it. Tier-portable schedulers use [`SimView::believed_c`] /
    /// [`SimView::believed_p`] (and [`SimView::num_slaves`] /
    /// [`SimView::slave_ids`] for the tier-free topology) instead.
    #[track_caller]
    pub fn platform(&self) -> &Platform {
        assert!(
            self.tier == InfoTier::Clairvoyant,
            "SimView::platform() is capability-gated: nominal (c_j, p_j) are hidden at \
             InfoTier::{:?} — use believed_c/believed_p instead",
            self.tier
        );
        self.platform
    }

    /// Number of slaves (tier-free: the master always knows its fleet).
    pub fn num_slaves(&self) -> usize {
        self.slaves.len()
    }

    /// Ids of all slaves in index order (tier-free).
    pub fn slave_ids(&self) -> impl Iterator<Item = SlaveId> + 'a {
        (0..self.slaves.len()).map(SlaveId)
    }

    /// When the master's port is next free (`== now()` if idle).
    ///
    /// # Examples
    /// ```
    /// use mss_sim::{Platform, Time, ViewState};
    /// let mut state = ViewState::new(Platform::from_vectors(&[1.0], &[2.0]), 1, None);
    /// state.now = Time::new(3.0);
    /// state.link_busy_until = Time::new(5.0);
    /// assert_eq!(state.view().link_free_at(), Time::new(5.0));
    /// assert!(!state.view().link_idle());
    /// ```
    pub fn link_free_at(&self) -> Time {
        self.link_busy_until.max(self.now)
    }

    /// `true` iff the port is idle right now.
    pub fn link_idle(&self) -> bool {
        self.link_busy_until <= self.now
    }

    /// Released tasks not yet assigned to any slave, in FIFO release order.
    ///
    /// # Examples
    /// ```
    /// use mss_sim::{Platform, TaskId, ViewState};
    /// let mut state = ViewState::new(Platform::from_vectors(&[1.0], &[2.0]), 2, None);
    /// state.pending.extend([TaskId(1), TaskId(0)]); // FIFO: release order, not id order
    /// assert_eq!(state.view().pending_tasks().first(), Some(&TaskId(1)));
    /// ```
    pub fn pending_tasks(&self) -> &[TaskId] {
        self.pending
    }

    /// Release time of a task that has already been released (an
    /// observation the master made itself, so it is visible at every tier).
    ///
    /// In bounded-memory streamed runs this is defined for *live* tasks —
    /// pending or in flight; a finalized task's slot may have been
    /// recycled (panics on a recycled id, like any out-of-range index).
    pub fn release_time(&self, t: TaskId) -> Time {
        self.releases[t.0 - self.release_base]
    }

    /// Observable state of slave `j`. Below [`InfoTier::Clairvoyant`] the
    /// `ready_estimate` field carries the estimate-based value of
    /// [`SimView::ready_estimate`] instead of the nominal one.
    ///
    /// # Examples
    /// ```
    /// use mss_sim::{Platform, SlaveId, Time, ViewState};
    /// let mut state = ViewState::new(Platform::from_vectors(&[1.0], &[2.0]), 0, None);
    /// state.slaves.outstanding[0] = 3;
    /// state.slaves.ready_estimate[0] = 9.0;
    /// let view = state.view();
    /// assert_eq!(view.slave(SlaveId(0)).outstanding, 3);
    /// assert_eq!(view.slave(SlaveId(0)).ready_estimate, Time::new(9.0));
    /// assert!(!view.slave_idle(SlaveId(0)));
    /// ```
    pub fn slave(&self, j: SlaveId) -> SlaveView {
        match self.tier {
            InfoTier::Clairvoyant => {
                let mut v = self.slaves.get(j.0);
                if self.idle_lazy && v.outstanding == 0 {
                    v.ready_estimate = self.now;
                }
                v
            }
            _ => SlaveView {
                ready_estimate: self.ready_estimate(j),
                ..self.slaves.get(j.0)
            },
        }
    }

    /// The learned rate estimates for slave `j` (derived purely from the
    /// master's own observations, so visible at every tier; at
    /// [`InfoTier::Clairvoyant`] the engine does not maintain them and
    /// they stay at the prior).
    pub fn slave_estimate(&self, j: SlaveId) -> SlaveEstimate {
        self.estimates.get(j.0)
    }

    /// Bumped each time a learned estimate absorbs a new observation
    /// (always `0` at [`InfoTier::Clairvoyant`]). Schedulers that cache
    /// structures derived from *all* estimates (e.g. the cyclic
    /// Round-Robin ring) compare this to decide when to rebuild; per-slave
    /// keys need not, since the observing event journals its slave.
    pub fn estimate_version(&self) -> u64 {
        self.estimate_version
    }

    /// `true` iff slave `j` has no outstanding work at all (SRPT's notion of
    /// a *free* slave).
    pub fn slave_idle(&self, j: SlaveId) -> bool {
        self.slaves.outstanding[j.0] == 0
    }

    /// `true` iff slave `j` is up (not failed). Always `true` on a static
    /// platform.
    pub fn slave_available(&self, j: SlaveId) -> bool {
        self.slaves.available[j.0]
    }

    /// Ids of the currently available (up) slaves, in index order.
    ///
    /// # Examples
    /// ```
    /// use mss_sim::{Platform, SlaveId, ViewState};
    /// let mut state = ViewState::new(Platform::from_vectors(&[1.0, 1.0], &[2.0, 3.0]), 0, None);
    /// state.slaves.available[0] = false; // P1 is down
    /// let view = state.view();
    /// assert!(!view.slave_available(SlaveId(0)));
    /// assert_eq!(view.available_slaves().collect::<Vec<_>>(), vec![SlaveId(1)]);
    /// ```
    pub fn available_slaves(&self) -> impl Iterator<Item = SlaveId> + '_ {
        self.slaves
            .available
            .iter()
            .enumerate()
            .filter(|(_, &up)| up)
            .map(|(j, _)| SlaveId(j))
    }

    /// The master's belief about slave `j`'s per-task communication time:
    /// the nominal `c_j` at [`InfoTier::Clairvoyant`], the learned
    /// [`SlaveEstimate::c_hat`] below it (a memoized dense-column read —
    /// see [`SlaveEstimates::c_hats`]).
    pub fn believed_c(&self, j: SlaveId) -> f64 {
        match self.tier {
            InfoTier::Clairvoyant => self.platform.c(j),
            _ => self.estimates.c_hats()[j.0],
        }
    }

    /// The master's belief about slave `j`'s per-task computation time:
    /// the nominal `p_j` at [`InfoTier::Clairvoyant`], the learned
    /// [`SlaveEstimate::p_hat`] below it (a memoized dense-column read —
    /// see [`SlaveEstimates::p_hats`]).
    pub fn believed_p(&self, j: SlaveId) -> f64 {
        match self.tier {
            InfoTier::Clairvoyant => self.platform.p(j),
            _ => self.estimates.p_hats()[j.0],
        }
    }

    /// Estimated time at which slave `j` finishes all outstanding work
    /// (`now` for an idle slave).
    ///
    /// At [`InfoTier::Clairvoyant`] this is the engine's incrementally
    /// maintained nominal-size estimate, bit-identical to the historical
    /// `SlaveView::ready_estimate`. Below it, the facade folds the learned
    /// rates over the observable queue: the computation believed in
    /// progress ends at `max(now, observed_start + p̂)`, and every other
    /// outstanding task adds one `p̂`.
    pub fn ready_estimate(&self, j: SlaveId) -> Time {
        match self.tier {
            InfoTier::Clairvoyant => {
                if self.idle_lazy && self.slaves.outstanding[j.0] == 0 {
                    // An idle slave's fold is `now` itself; answering it
                    // directly spares the engine the per-callback
                    // recomputation of every idle row (bit-identical).
                    self.now
                } else {
                    Time::new(self.slaves.ready_estimate[j.0])
                }
            }
            _ => {
                let outstanding = self.slaves.outstanding[j.0];
                let now = self.now.as_f64();
                let p = self.estimates.p_hats()[j.0];
                let (base, tail) = if self.estimates.is_computing(j.0) {
                    (
                        (self.estimates.cur_start(j.0) + p).max(now),
                        outstanding.saturating_sub(1),
                    )
                } else {
                    (now, outstanding)
                };
                Time::new(base + tail as f64 * p)
            }
        }
    }

    /// Estimated completion time of a *new nominal task* if the master
    /// started sending it to `j` as soon as the port is free:
    /// `start = max(link_free, ready_j_estimate_after_comm)`, i.e.
    /// `max(link_free + c_j, ready_j) + p_j`.
    ///
    /// This is the quantity the paper's List Scheduling heuristic
    /// minimizes. Below [`InfoTier::Clairvoyant`] the same formula is
    /// evaluated over believed values and the estimate-based ready time.
    pub fn completion_estimate(&self, j: SlaveId) -> Time {
        match self.tier {
            InfoTier::Clairvoyant => {
                let recv = self.link_free_at() + self.platform.c(j);
                let ready = if self.idle_lazy && self.slaves.outstanding[j.0] == 0 {
                    self.now
                } else {
                    Time::new(self.slaves.ready_estimate[j.0])
                };
                let start = recv.max(ready);
                start + self.platform.p(j)
            }
            _ => {
                let recv = self.link_free_at() + self.believed_c(j);
                let start = recv.max(self.ready_estimate(j));
                start + self.believed_p(j)
            }
        }
    }

    /// Total number of tasks the instance will ever contain, when the
    /// scheduler has been granted that knowledge (the paper gives it to SLJF
    /// and SLJFWC); `None` in the pure on-line setting.
    ///
    /// At [`InfoTier::NonClairvoyant`] the hint is withdrawn (it is
    /// knowledge about unseen workload) and this always answers `None`.
    pub fn horizon(&self) -> Option<usize> {
        match self.tier {
            InfoTier::NonClairvoyant => None,
            _ => self.horizon,
        }
    }

    /// The engine's journal of event-touched slaves, when this view is
    /// engine-backed — what lets [`crate::kernel::IncrementalArgmin`]
    /// update only the leaves that can have changed. `None` on views
    /// borrowed from an owned [`ViewState`] (kernels then fall back to
    /// the exact chunked scan).
    pub fn touch_journal(&self) -> Option<&'a TouchJournal> {
        self.journal
    }

    /// How many tasks have been released so far.
    pub fn released_count(&self) -> usize {
        self.released_count
    }

    /// How many tasks have completed so far.
    pub fn completed_count(&self) -> usize {
        self.completed_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ViewState {
        ViewState::new(Platform::from_vectors(&[1.0, 2.0], &[3.0, 5.0]), 4, Some(4))
    }

    #[test]
    fn clairvoyant_believes_nominal_values() {
        let s = state();
        let v = s.view();
        assert_eq!(v.believed_c(SlaveId(1)), 2.0);
        assert_eq!(v.believed_p(SlaveId(1)), 5.0);
        assert_eq!(v.horizon(), Some(4));
        assert_eq!(v.estimate_version(), 0);
    }

    #[test]
    fn lower_tiers_answer_from_estimates() {
        let mut s = state();
        s.tier = InfoTier::SpeedOblivious;
        s.estimates.observe_send(0, 0.5);
        s.estimates.observe_compute(0, 4.0);
        let v = s.view();
        assert_eq!(v.believed_c(SlaveId(0)), 0.5);
        assert_eq!(v.believed_p(SlaveId(0)), 4.0);
        // No observations on slave 1 yet: the prior.
        assert_eq!(v.believed_c(SlaveId(1)), SlaveEstimate::PRIOR);
        assert_eq!(v.horizon(), Some(4), "horizon survives at speed-oblivious");
    }

    #[test]
    fn non_clairvoyant_hides_the_horizon() {
        let mut s = state();
        s.tier = InfoTier::NonClairvoyant;
        assert_eq!(s.view().horizon(), None);
    }

    #[test]
    #[should_panic(expected = "capability-gated")]
    fn platform_is_gated_below_clairvoyant() {
        let mut s = state();
        s.tier = InfoTier::SpeedOblivious;
        let _ = s.view().platform();
    }

    #[test]
    fn estimate_ready_folds_the_observable_queue() {
        let mut s = state();
        s.tier = InfoTier::SpeedOblivious;
        s.now = Time::new(10.0);
        s.slaves.outstanding[0] = 3;
        s.estimates.observe_compute(0, 2.0);
        s.estimates.begin_compute(0, 9.0);
        let v = s.view();
        // Current task ends at max(10, 9 + 2) = 11, plus two more at 2 each.
        assert_eq!(v.ready_estimate(SlaveId(0)), Time::new(15.0));
        // Idle slave: ready now, completion = link_free + ĉ + p̂ (priors).
        assert_eq!(v.ready_estimate(SlaveId(1)), Time::new(10.0));
        assert_eq!(v.completion_estimate(SlaveId(1)), Time::new(12.0));
    }
}
