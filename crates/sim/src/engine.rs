//! The discrete-event engine.
//!
//! [`simulate`] runs one on-line scheduler over one task instance on one
//! platform and returns the full [`Trace`]. The engine owns the two scarce
//! resources of the model and enforces them *by construction*:
//!
//! * the master's **one port** — a single link state; a send can only
//!   start when the port is idle, and occupies it for `c_j · size_c` seconds;
//! * each slave's **serial execution** — a slave computes the tasks it has
//!   received one at a time, FIFO, each for `p_j · size_p` seconds.
//!
//! Determinism: events are processed in `(time, insertion sequence)` order
//! and all simultaneous events are applied and delivered to the scheduler
//! before any decision is taken, so a deterministic scheduler always sees
//! the same history — the adversary games rely on this to replay prefixes.
//!
//! [`simulate_in`] is the general run: it also consumes a platform-event
//! [`Timeline`] (slave failures, recoveries, link/speed drift — see
//! [`crate::events`]), pulls tasks from a [`TaskSource`] as readily as from
//! a slice ([`TaskInput`]), and reports to a [`Probe`]. Timeline events
//! enter the same heap after the task releases, so the determinism contract
//! extends unchanged to dynamic platforms, and an empty timeline is
//! bit-for-bit the static engine. [`simulate_objectives_in`] is the same
//! run returning only the objectives.
//!
//! # The zero-allocation hot path
//!
//! The event loop performs **no heap allocation in steady state**: every
//! buffer it touches lives in a [`SimWorkspace`] that is sized once and
//! reused, both across the events of one run and — through [`simulate_in`]
//! and [`simulate_objectives_in`] — across runs (the sweep executor keeps
//! one workspace per worker thread). Three mechanisms make this possible:
//!
//! * **incrementally maintained slave views** — the [`SlaveView`] handed to
//!   the scheduler is cached per slave and recomputed only when stale — an
//!   event touched that slave (tracked in an explicit dirty stack, with the
//!   `NEG_INFINITY` `view_valid_until` sentinel deduplicating pushes) or
//!   the clock passed the instant up to which the cached nominal estimate
//!   is provably exact (a lazy-deletion min-heap over `view_valid_until`
//!   anchors). Idle slaves — whose fold is `now` itself — are answered
//!   lazily by the view and never recomputed at all, so a refresh touches
//!   only the slaves that actually changed: O(dirty · log m) per callback,
//!   not O(m). The recomputation replays the *same sequential float
//!   arithmetic* as a from-scratch evaluation, so cached and fresh views
//!   are bit-identical — a `debug_assertions` oracle re-derives every view
//!   from scratch after each refresh and asserts bitwise equality;
//! * **an indexed task-phase map** — pending-membership checks in
//!   [`Decision::Send`] validation are O(1) array lookups instead of a scan
//!   of the pending queue, and the pending queue itself is a ring buffer
//!   (front pops — the common case for every paper heuristic — are O(1) and
//!   move no memory);
//! * **pre-sized, reused event heap and notification buffers** — pushes in
//!   steady state never grow capacity.
//!
//! The determinism contract above is unaffected: this module's refactor is
//! observationally transparent (fig1a–d/fig2/table1 artifacts are
//! byte-identical to the pre-refactor engine, enforced by the lab's
//! regression suite).

use crate::events::{PlatformEventKind, Timeline};
use crate::info::{InfoTier, SlaveEstimates};
use crate::kernel::TouchJournal;
use crate::platform::{Platform, SlaveId};
use crate::scheduler::{Decision, OnlineScheduler, SchedulerEvent};
use crate::source::TaskSource;
use crate::task::{TaskArrival, TaskId};
use crate::time::Time;
use crate::trace::{TaskRecord, Trace};
use crate::view::{SimView, SlaveViews};
use mss_obs::{NoopProbe, Probe};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// If `Some(n)`, schedulers are told the instance will contain `n` tasks
    /// in total (the knowledge the paper grants SLJF/SLJFWC). `None` for the
    /// pure on-line setting.
    pub horizon_hint: Option<usize>,
    /// Hard cap on processed events + scheduler polls, to turn scheduler
    /// bugs (e.g. busy wake loops) into errors instead of hangs.
    pub max_steps: usize,
    /// Information tier the scheduler's views filter at (see
    /// [`InfoTier`]). `Clairvoyant` — the default — is the paper's fully
    /// informed setting and is bit-identical to the historical engine;
    /// below it the engine additionally maintains the per-slave learned
    /// rate estimates the filtered views answer from.
    pub info: InfoTier,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            horizon_hint: None,
            max_steps: 10_000_000,
            info: InfoTier::Clairvoyant,
        }
    }
}

impl SimConfig {
    /// Config that reveals the total task count to the scheduler.
    pub fn with_horizon(n: usize) -> Self {
        SimConfig {
            horizon_hint: Some(n),
            ..SimConfig::default()
        }
    }
}

/// Why a simulation could not complete.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// No events remain, the port is idle, tasks are unfinished, and the
    /// scheduler keeps answering [`Decision::Idle`].
    Stalled {
        /// Time at which the simulation stalled.
        at: Time,
        /// Tasks completed before the stall.
        completed: usize,
        /// Total tasks in the instance.
        total: usize,
    },
    /// The scheduler returned a decision that violates the model.
    InvalidDecision {
        /// Time of the offending decision.
        at: Time,
        /// Human-readable explanation.
        reason: String,
    },
    /// `max_steps` exhausted (runaway wake loop or gigantic instance).
    BudgetExhausted {
        /// The configured step budget.
        max_steps: usize,
    },
    /// The run's [`InfoTier`] grants less information than the scheduler
    /// declared it needs to stay live ([`OnlineScheduler::min_tier`]);
    /// refused before the first event.
    InsufficientInformation {
        /// The tier the run was configured with.
        granted: InfoTier,
        /// The scheduler's declared minimum tier.
        required: InfoTier,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled {
                at,
                completed,
                total,
            } => write!(
                f,
                "simulation stalled at {at}: {completed}/{total} tasks completed and the scheduler idles"
            ),
            SimError::InvalidDecision { at, reason } => {
                write!(f, "invalid scheduler decision at {at}: {reason}")
            }
            SimError::BudgetExhausted { max_steps } => {
                write!(f, "step budget of {max_steps} exhausted")
            }
            SimError::InsufficientInformation { granted, required } => write!(
                f,
                "information tier `{granted}` is below the scheduler's declared minimum `{required}`"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Internal event kinds. `Platform(i)` indexes into the run's [`Timeline`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    Release(TaskId),
    SendComplete(TaskId, SlaveId),
    ComputeComplete(TaskId, SlaveId),
    Platform(usize),
    Wake,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct HeapItem {
    time: Time,
    seq: u64,
    event: Event,
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One task outstanding at (or in flight towards) a slave.
#[derive(Clone, Copy, Debug)]
struct OutTask {
    id: TaskId,
    /// Predicted (or, once observed, actual) time the slave has the task.
    avail: f64,
}

#[derive(Clone, Debug, Default)]
struct SlaveRt {
    /// Sent-and-not-completed tasks, in send order. Index 0 is the one
    /// currently computing when `computing` is `Some`.
    outstanding: VecDeque<OutTask>,
    /// Received tasks waiting to compute (subset of `outstanding`).
    queue: VecDeque<TaskId>,
    /// Task currently computing, if any.
    computing: Option<TaskId>,
    /// Heap sequence of the pending `ComputeComplete` (for cancellation on
    /// failure); meaningful only while `computing` is `Some`.
    compute_seq: u64,
    /// Predicted end of the current computation (nominal size).
    cur_pred_end: f64,
    /// `true` while the slave is failed (scenario timelines only).
    down: bool,
    completed: usize,
}

impl SlaveRt {
    /// Clears per-run state while keeping buffer capacity.
    fn reset(&mut self) {
        self.outstanding.clear();
        self.queue.clear();
        self.computing = None;
        self.compute_seq = 0;
        self.cur_pred_end = 0.0;
        self.down = false;
        self.completed = 0;
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct PartialRecord {
    release: f64,
    send_start: f64,
    send_end: f64,
    compute_start: f64,
    compute_end: f64,
    /// Billed multipliers of the successful attempt: the task's actual size
    /// times the drift factor in force when the phase started.
    billed_c: f64,
    billed_p: f64,
    slave: usize,
    assigned: bool,
    done: bool,
}

/// Lifecycle phase of a task, indexed by `TaskId` — the slot map behind O(1)
/// pending-membership checks (no scan of the pending queue).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskPhase {
    /// Release event not yet processed.
    Unreleased,
    /// Released and waiting at the master (member of the pending queue).
    Pending,
    /// Sent (or in flight) to a slave.
    Assigned,
    /// Computation completed.
    Done,
}

/// Reusable simulation buffers — the allocation arena of the engine.
///
/// A workspace owns every growable structure the event loop touches: the
/// event heap, per-slave runtime queues, the pending ring buffer, the task
/// phase/record arrays, and the incrementally maintained [`SlaveViews`]
/// column cache. [`simulate_in`] sizes them once per run and the loop then runs
/// allocation-free in steady state; reusing one workspace across runs (as
/// the `mss-sweep` executor does per worker thread) also skips the sizing.
///
/// Results are bit-identical whether a workspace is fresh or reused — every
/// field is re-initialized per run.
///
/// # Examples
/// ```
/// use mss_sim::{simulate_in, NoopProbe, SimConfig, SimWorkspace, Platform, Timeline,
///               bag_of_tasks};
/// use mss_sim::{Decision, OnlineScheduler, SchedulerEvent, SimView, SlaveId};
///
/// struct FirstSlave;
/// impl OnlineScheduler for FirstSlave {
///     fn name(&self) -> String { "first".into() }
///     fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
///         match (view.link_idle(), view.pending_tasks().first()) {
///             (true, Some(&task)) => Decision::Send { task, slave: SlaveId(0) },
///             _ => Decision::Idle,
///         }
///     }
/// }
///
/// let platform = Platform::from_vectors(&[1.0], &[2.0]);
/// let mut ws = SimWorkspace::new();
/// // Buffers warmed by the first run are reused by the second.
/// let (tasks, cfg) = (bag_of_tasks(5), SimConfig::default());
/// let a = simulate_in(&mut ws, &platform, &tasks, &cfg, &Timeline::EMPTY,
///                     &mut FirstSlave, &mut NoopProbe).unwrap();
/// let b = simulate_in(&mut ws, &platform, &tasks, &cfg, &Timeline::EMPTY,
///                     &mut FirstSlave, &mut NoopProbe).unwrap();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Default)]
pub struct SimWorkspace {
    heap: BinaryHeap<Reverse<HeapItem>>,
    slaves: Vec<SlaveRt>,
    /// Current drift factors; effective `c_j`/`p_j` is nominal × factor.
    link_factor: Vec<f64>,
    speed_factor: Vec<f64>,
    /// Heap sequences of events voided by a failure (aborted transfers,
    /// computations of lost tasks); popped items with these seqs are skipped.
    cancelled: HashSet<u64>,
    /// Released, unassigned tasks in FIFO order. A ring buffer so that the
    /// dominant removal pattern (the oldest task) is O(1); kept contiguous
    /// so `SimView::pending_tasks` can hand out a plain slice.
    pending: VecDeque<TaskId>,
    /// Task lifecycle phases, indexed by `TaskId` (the slot map).
    phases: Vec<TaskPhase>,
    releases: Vec<Time>,
    records: Vec<PartialRecord>,
    /// Cached per-slave observable state, maintained incrementally —
    /// column-major ([`SlaveViews`]), so scheduler-side argmin scans read
    /// dense same-typed columns.
    views: SlaveViews,
    /// Instant up to which `views.ready_estimate[j]` is exact without
    /// recomputation (see [`Engine::recompute_view`]); `NEG_INFINITY` is
    /// the "dirty" sentinel (an event touched the slave since its view was
    /// cached, and the slave's index sits in `view_dirty`), `INFINITY`
    /// marks an idle slave (its view is answered lazily and never
    /// expires).
    view_valid_until: Vec<f64>,
    /// Indices of slaves whose `view_valid_until` is the dirty sentinel,
    /// drained by `refresh_views` — so a refresh walks the touched
    /// slaves, not all `m`. The sentinel doubles as the de-duplication
    /// guard: a slave is pushed only on its `valid → dirty` transition.
    view_dirty: Vec<u32>,
    /// Lazy-deletion min-heap of `(view_valid_until bits, slave)` for
    /// busy slaves, so the refresh finds clock-expired views (possible
    /// only under perturbed sizes or drift, where a computation outlives
    /// its nominal prediction) without scanning. Entries are validated
    /// against `view_valid_until` on pop; stale ones are discarded.
    /// `f64::to_bits` is order-preserving on the non-negative times
    /// stored here.
    view_expiry: BinaryHeap<Reverse<(u64, u32)>>,
    /// Ring journal of event-touched slaves for the scheduler-side
    /// decision kernels (see [`crate::kernel`]), exposed through
    /// [`SimView::touch_journal`].
    journal: TouchJournal,
    /// Per-slave learned rate estimates (the observable raw material of
    /// the sub-clairvoyant information tiers). Maintained only when the
    /// run's tier is below `Clairvoyant`; at `Clairvoyant` the hot path
    /// never touches them, so the historical engine is unchanged bit for
    /// bit. Column-major ([`SlaveEstimates`]) with memoized believed
    /// rates, so sub-clairvoyant argmin scans are dense `f64` reads.
    estimates: SlaveEstimates,
    /// Per-batch notification buffer (reused across batches).
    notifications: Vec<SchedulerEvent>,
    /// Scratch for tasks lost to a slave failure.
    lost: Vec<TaskId>,
    /// Task indices in release order — stably sorted by `(release, index)`,
    /// which equals the historical `(time, seq)` heap order of release
    /// events. Releases are *streamed* from this array instead of living in
    /// the heap, so the heap only ever holds the O(m) runtime events
    /// (sends, computes, wakes) and its operations stay near-constant.
    release_order: Vec<u32>,
    /// Timeline event indices, stably sorted by `(time, index)` (the
    /// historical order of their heap entries, which carried sequence
    /// numbers `n..n+k`).
    timeline_order: Vec<u32>,
    /// Streamed-mode arrival window, parallel to `phases`/`releases`/
    /// `records` (which hold slots `window_start..window_start + len` in
    /// streamed runs). Unused — and empty — in materialized runs.
    arrivals: Vec<TaskArrival>,
    /// First task id resident in the slot window. Always `0` in
    /// materialized runs and in streamed runs that retain every record
    /// (trace builds); advanced by slot recycling in bounded-memory
    /// streamed runs.
    window_start: usize,
}

impl SimWorkspace {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        SimWorkspace::default()
    }

    /// Slot index of task `t` in the windowed task arrays. The identity in
    /// materialized runs (`window_start` is 0 there).
    #[inline]
    fn slot(&self, t: TaskId) -> usize {
        t.0 - self.window_start
    }

    /// Re-initializes every buffer for a run of `tasks` over `platform`,
    /// keeping capacity from previous runs.
    fn reset(&mut self, platform: &Platform, tasks: &[TaskArrival], timeline: &Timeline) {
        let n = tasks.len();
        self.release_order.clear();
        self.release_order.extend(0..n as u32);
        // Stable order by (release, index): indices are distinct, so an
        // unstable sort on the pair is stable in effect. Arrival processes
        // produce non-decreasing releases, so the sortedness pre-check makes
        // the common case a plain sequential scan.
        if !tasks.windows(2).all(|w| w[0].release <= w[1].release) {
            self.release_order
                .sort_unstable_by_key(|&i| (tasks[i as usize].release, i));
        }
        self.phases.clear();
        self.phases.resize(n, TaskPhase::Unreleased);
        self.releases.clear();
        self.releases.resize(n, Time::ZERO);
        self.records.clear();
        self.records.resize(n, PartialRecord::default());
        self.pending.clear();
        self.pending.reserve(n);
        self.arrivals.clear();
        self.reset_common(platform, timeline);
    }

    /// [`SimWorkspace::reset`] for a streamed run: the task arrays start
    /// empty and grow (and, in bounded-memory mode, recycle) as the feed
    /// pulls arrivals.
    fn reset_streamed(&mut self, platform: &Platform, timeline: &Timeline) {
        self.release_order.clear();
        self.phases.clear();
        self.releases.clear();
        self.records.clear();
        self.arrivals.clear();
        self.reset_common(platform, timeline);
    }

    /// The feed-independent part of a reset.
    fn reset_common(&mut self, platform: &Platform, timeline: &Timeline) {
        let m = platform.num_slaves();
        self.heap.clear();
        // Releases and timeline events are streamed from their sorted
        // sources; the live heap only holds runtime events: at most one
        // compute per slave, one send in flight, and a few wakes.
        self.heap.reserve(m + 8);
        self.timeline_order.clear();
        self.timeline_order
            .extend(0..timeline.events().len() as u32);
        let tl = timeline.events();
        if !tl.windows(2).all(|w| w[0].time <= w[1].time) {
            self.timeline_order
                .sort_unstable_by_key(|&i| (tl[i as usize].time, i));
        }
        self.window_start = 0;
        for s in &mut self.slaves {
            s.reset();
        }
        if self.slaves.len() > m {
            self.slaves.truncate(m);
        } else {
            self.slaves.resize_with(m, SlaveRt::default);
        }
        self.link_factor.clear();
        self.link_factor.resize(m, 1.0);
        self.speed_factor.clear();
        self.speed_factor.resize(m, 1.0);
        self.cancelled.clear();
        self.pending.clear();
        self.views.reset(m);
        self.view_valid_until.clear();
        self.view_valid_until.resize(m, f64::NEG_INFINITY);
        self.view_dirty.clear();
        self.view_dirty.extend(0..m as u32);
        self.view_expiry.clear();
        self.view_expiry.reserve(m + 8);
        self.journal.reset(m);
        self.estimates.reset(m);
        self.notifications.clear();
        self.lost.clear();
    }
}

/// How the engine obtains task arrivals: from a materialized slice (the
/// historical path) or by pulling a [`TaskSource`] (the streamed path).
///
/// The engine is generic over this seam and monomorphizes per feed, so the
/// slice feed compiles to exactly the pre-streaming engine — same
/// instructions, same allocation profile, bit-identical results — while
/// the stream feed adds the windowed slot bookkeeping only streamed runs
/// pay for.
trait Feed {
    /// Re-initializes the workspace for this feed's run.
    fn prepare(&mut self, ws: &mut SimWorkspace, platform: &Platform, timeline: &Timeline);
    /// First sequence number available to runtime events, given the
    /// timeline length `k`.
    fn seq_base(&self, k: usize) -> u64;
    /// Release time of the next unreleased task, if any. May pull from the
    /// underlying source (one-task lookahead).
    fn peek_release(&mut self, ws: &SimWorkspace) -> Option<Time>;
    /// Pops the next release — only called right after [`Feed::peek_release`]
    /// returned `Some` — ensuring the task's slot exists in the window.
    fn pop_release(&mut self, ws: &mut SimWorkspace) -> TaskId;
    /// Arrival data of a live (windowed) task.
    fn arrival(&self, ws: &SimWorkspace, t: TaskId) -> TaskArrival;
    /// `true` once the run is over: every task released and completed.
    fn is_complete(&mut self, released: usize, completed: usize) -> bool;
    /// The `total` a [`SimError::Stalled`] reports. A stall requires the
    /// release stream to be exhausted, so for every feed this equals the
    /// full instance size.
    fn stall_total(&self, released: usize) -> usize;
    /// Per-iteration housekeeping; the streamed bounded-memory feed
    /// finalizes completed records and recycles their slots here.
    fn maintain(&mut self, ws: &mut SimWorkspace);
}

/// The materialized feed: releases stream from `ws.release_order` over a
/// task slice, exactly as the pre-streaming engine did.
struct SliceFeed<'s> {
    tasks: &'s [TaskArrival],
    /// Next entry of `ws.release_order` to stream.
    cursor: usize,
}

impl Feed for SliceFeed<'_> {
    fn prepare(&mut self, ws: &mut SimWorkspace, platform: &Platform, timeline: &Timeline) {
        ws.reset(platform, self.tasks, timeline);
        self.cursor = 0;
    }

    fn seq_base(&self, k: usize) -> u64 {
        // Sequence numbering is unchanged from the heap-resident layout:
        // release `i` owns seq `i`, timeline event `i` owns seq `n + i`,
        // and runtime events count on from `n + k` — so the merged stream
        // replays the exact historical `(time, seq)` event order.
        (self.tasks.len() + k) as u64
    }

    fn peek_release(&mut self, ws: &SimWorkspace) -> Option<Time> {
        ws.release_order
            .get(self.cursor)
            .map(|&i| self.tasks[i as usize].release)
    }

    fn pop_release(&mut self, ws: &mut SimWorkspace) -> TaskId {
        let i = ws.release_order[self.cursor];
        self.cursor += 1;
        TaskId(i as usize)
    }

    fn arrival(&self, _ws: &SimWorkspace, t: TaskId) -> TaskArrival {
        self.tasks[t.0]
    }

    fn is_complete(&mut self, _released: usize, completed: usize) -> bool {
        completed >= self.tasks.len()
    }

    fn stall_total(&self, _released: usize) -> usize {
        self.tasks.len()
    }

    fn maintain(&mut self, _ws: &mut SimWorkspace) {}
}

/// Recycle slots only once at least this many lead the window: keeps the
/// compaction memmove amortized O(1) per task without letting tiny windows
/// thrash.
const COMPACT_MIN: usize = 64;

/// The streamed feed: pulls a [`TaskSource`] with one task of lookahead
/// and materializes task slots into the workspace window on release.
///
/// In `recycle` mode it also finalizes completed records in id order —
/// folding the three objectives with exactly the arithmetic (and fold
/// order) of [`simulate_objectives_in`] — and compacts the window, so a
/// run's resident slot count stays proportional to the number of
/// *in-flight* tasks, not the instance size.
struct StreamFeed<'s> {
    source: &'s mut dyn TaskSource,
    lookahead: Option<TaskArrival>,
    exhausted: bool,
    /// Id the next pulled task will get (== tasks released so far).
    next_id: usize,
    /// Monotonicity guard: greatest release seen.
    last_release: Time,
    /// `false` retains every slot (trace builds); `true` recycles.
    recycle: bool,
    /// First task id not yet folded into the objective accumulators.
    finalize_cursor: usize,
    makespan: f64,
    max_flow: f64,
    sum_flow: f64,
    peak_live: usize,
    peak_resident: usize,
}

impl<'s> StreamFeed<'s> {
    fn new(source: &'s mut dyn TaskSource, recycle: bool) -> Self {
        StreamFeed {
            source,
            lookahead: None,
            exhausted: false,
            next_id: 0,
            last_release: Time::ZERO,
            recycle,
            finalize_cursor: 0,
            makespan: 0.0,
            max_flow: 0.0,
            sum_flow: 0.0,
            peak_live: 0,
            peak_resident: 0,
        }
    }

    /// Ensures the one-task lookahead holds the next arrival (or that the
    /// source is known to be exhausted), enforcing the non-decreasing
    /// release contract.
    fn fill(&mut self) {
        if self.lookahead.is_some() || self.exhausted {
            return;
        }
        match self.source.next_task() {
            Some(arr) => {
                assert!(
                    arr.release >= self.last_release,
                    "TaskSource contract violation: release {} of task {} decreases below \
                     the previous release {}",
                    arr.release,
                    self.next_id,
                    self.last_release,
                );
                self.last_release = arr.release;
                self.lookahead = Some(arr);
            }
            None => self.exhausted = true,
        }
    }
}

impl Feed for StreamFeed<'_> {
    fn prepare(&mut self, ws: &mut SimWorkspace, platform: &Platform, timeline: &Timeline) {
        ws.reset_streamed(platform, timeline);
    }

    fn seq_base(&self, k: usize) -> u64 {
        // Streamed releases never enter the heap and own no sequence
        // numbers; only the relative order of runtime seqs (and the
        // release > timeline > runtime tie priority, which `pop_next`
        // resolves structurally) is observable, so counting from `k`
        // replays the materialized event order exactly.
        k as u64
    }

    fn peek_release(&mut self, _ws: &SimWorkspace) -> Option<Time> {
        self.fill();
        self.lookahead.as_ref().map(|a| a.release)
    }

    fn pop_release(&mut self, ws: &mut SimWorkspace) -> TaskId {
        let arr = self.lookahead.take().expect("pop_release after peek");
        let t = TaskId(self.next_id);
        self.next_id += 1;
        ws.arrivals.push(arr);
        ws.phases.push(TaskPhase::Unreleased);
        ws.releases.push(Time::ZERO);
        ws.records.push(PartialRecord::default());
        self.peak_resident = self.peak_resident.max(ws.records.len());
        let live = ws.records.len() - (self.finalize_cursor - ws.window_start);
        self.peak_live = self.peak_live.max(live);
        t
    }

    fn arrival(&self, ws: &SimWorkspace, t: TaskId) -> TaskArrival {
        ws.arrivals[ws.slot(t)]
    }

    fn is_complete(&mut self, released: usize, completed: usize) -> bool {
        // Peek so an exhausted (e.g. empty) source terminates the loop —
        // the streamed analogue of `completed == tasks.len()`.
        self.fill();
        self.exhausted && completed >= released
    }

    fn stall_total(&self, released: usize) -> usize {
        // A stall implies the stream is exhausted, so every task of the
        // instance has been released: `released` is the instance size,
        // matching the materialized `tasks.len()`.
        released
    }

    fn maintain(&mut self, ws: &mut SimWorkspace) {
        if !self.recycle {
            return;
        }
        // Finalize the completed prefix in id order: the same values, in
        // the same fold order, as the end-of-run objective folds of the
        // materialized path, so the accumulated objectives are
        // bit-identical to them.
        loop {
            let slot = self.finalize_cursor - ws.window_start;
            if slot >= ws.records.len() || !ws.records[slot].done {
                break;
            }
            let r = &ws.records[slot];
            self.makespan = self.makespan.max(r.compute_end);
            self.max_flow = self.max_flow.max(r.compute_end - r.release);
            self.sum_flow += r.compute_end - r.release;
            self.finalize_cursor += 1;
        }
        // Recycle finalized slots once they dominate the window: amortized
        // O(1) per task, allocation-free (`drain` keeps capacity), and the
        // window length stays within 2× the live count + the threshold.
        let dead = self.finalize_cursor - ws.window_start;
        let live = ws.records.len() - dead;
        if dead >= COMPACT_MIN && dead >= live {
            ws.arrivals.drain(..dead);
            ws.phases.drain(..dead);
            ws.releases.drain(..dead);
            ws.records.drain(..dead);
            ws.window_start += dead;
        }
    }
}

struct Engine<'a, P: Probe, F: Feed> {
    platform: &'a Platform,
    feed: &'a mut F,
    config: &'a SimConfig,
    timeline: &'a Timeline,
    ws: &'a mut SimWorkspace,
    /// Instrumentation hooks. Monomorphized: with the default [`NoopProbe`]
    /// every hook call is an empty inlined body and the engine compiles to
    /// exactly the unprobed code (contract #11).
    probe: &'a mut P,
    clock: Time,
    seq: u64,
    link_busy_until: Time,
    /// The send currently occupying the port, with its heap sequence.
    in_flight: Option<(TaskId, SlaveId, u64)>,
    released_count: usize,
    completed_count: usize,
    steps: usize,
    /// `true` iff the run's tier is below `Clairvoyant` and the engine
    /// therefore maintains the learned per-slave estimates.
    learning: bool,
    /// Bumped on every absorbed observation (stays 0 when not learning).
    estimate_version: u64,
    /// Next entry of `ws.timeline_order` to stream.
    timeline_cursor: usize,
}

impl<'a, P: Probe, F: Feed> Engine<'a, P, F> {
    fn new(
        platform: &'a Platform,
        feed: &'a mut F,
        config: &'a SimConfig,
        timeline: &'a Timeline,
        ws: &'a mut SimWorkspace,
        probe: &'a mut P,
    ) -> Self {
        feed.prepare(ws, platform, timeline);
        let seq = feed.seq_base(timeline.events().len());
        Engine {
            platform,
            feed,
            config,
            timeline,
            ws,
            probe,
            clock: Time::ZERO,
            seq,
            link_busy_until: Time::ZERO,
            in_flight: None,
            released_count: 0,
            completed_count: 0,
            steps: 0,
            learning: config.info != InfoTier::Clairvoyant,
            estimate_version: 0,
            timeline_cursor: 0,
        }
    }

    /// Pops the next event across the three sources (release stream,
    /// timeline stream, runtime heap) in `(time, seq)` order; `None` when
    /// all are exhausted. With `at = Some(t)`, only an event at exactly `t`
    /// is popped (the batch-draining mode). Returns
    /// `(event, heap_seq, from_heap, time)`; `heap_seq` is meaningful only
    /// for heap events (the only ones cancellation can target). Cancelled
    /// heap entries are still popped and counted here — exactly as they
    /// were when they occupied the heap — and skipped by the caller.
    ///
    /// Time ties resolve by the historical sequence layout without any seq
    /// arithmetic: releases (seqs `0..n`) beat timeline events
    /// (`n..n+k`), which beat runtime events (`n+k..`); within each source
    /// the stream/heap order is already the seq order.
    fn pop_next(&mut self, at: Option<Time>) -> Option<(Event, u64, bool, Time)> {
        let release_t = self.feed.peek_release(self.ws);
        // Batch-drain fast path: while draining the batch at time `a`, no
        // source can hold anything earlier than `a`, and a release at `a`
        // beats every same-time candidate (it has the smallest seq) — so it
        // pops without consulting the other two sources at all. This makes
        // a bag-of-tasks release flood a straight cursor walk.
        if let (Some(a), Some(rt)) = (at, release_t) {
            if rt == a {
                let t = self.feed.pop_release(self.ws);
                return Some((Event::Release(t), 0, false, rt));
            }
        }
        let timeline_t = self
            .ws
            .timeline_order
            .get(self.timeline_cursor)
            .map(|&i| self.timeline.events()[i as usize].time);
        let heap_t = self.ws.heap.peek().map(|&Reverse(item)| item.time);

        if let Some(rt) = release_t {
            if timeline_t.is_none_or(|t| rt <= t) && heap_t.is_none_or(|t| rt <= t) {
                if at.is_some_and(|a| rt != a) {
                    return None;
                }
                let t = self.feed.pop_release(self.ws);
                return Some((Event::Release(t), 0, false, rt));
            }
        }
        if let Some(tt) = timeline_t {
            if heap_t.is_none_or(|t| tt <= t) {
                if at.is_some_and(|a| tt != a) {
                    return None;
                }
                let i = self.ws.timeline_order[self.timeline_cursor];
                self.timeline_cursor += 1;
                return Some((Event::Platform(i as usize), 0, false, tt));
            }
        }
        let ht = heap_t?;
        if at.is_some_and(|a| ht != a) {
            return None;
        }
        let Reverse(item) = self.ws.heap.pop().expect("heap top just peeked");
        Some((item.event, item.seq, true, item.time))
    }

    fn push(&mut self, time: Time, event: Event) -> u64 {
        let seq = self.seq;
        self.ws.heap.push(Reverse(HeapItem { time, seq, event }));
        self.seq += 1;
        seq
    }

    /// Returns a lost task to the master's pending queue and clears the
    /// partial record of its failed attempt (its release time survives).
    fn lose_task(&mut self, t: TaskId) {
        let slot = self.ws.slot(t);
        let r = &mut self.ws.records[slot];
        r.send_start = 0.0;
        r.send_end = 0.0;
        r.compute_start = 0.0;
        r.slave = 0;
        r.assigned = false;
        self.ws.phases[slot] = TaskPhase::Pending;
        self.ws.pending.push_back(t);
    }

    /// Recomputes the cached view of slave `j` at the current clock and
    /// records how long the result stays exact.
    ///
    /// The nominal ready estimate is the sequential fold
    /// `t ← max(t, avail_k) + p` over the outstanding tasks, anchored at
    /// `max(cur_pred_end, now)` (computing) or `now` (otherwise) — the same
    /// arithmetic, in the same order, as a from-scratch evaluation, so the
    /// cache is bitwise transparent. `now` only enters the fold through its
    /// first `max`: as long as the clock has not passed that anchor (the
    /// predicted end of the current computation, or the arrival instant of
    /// the in-flight head), the folded value is independent of `now` and the
    /// cache stays valid without recomputation; an idle slave's estimate is
    /// `now` itself and is only valid at the instant it was computed.
    fn recompute_view(&mut self, j: usize) {
        let now = self.clock.as_f64();
        self.probe.view_recompute(now, j);
        let p = self.platform.p(SlaveId(j));
        let rt = &self.ws.slaves[j];
        let mut t = now;
        for (k, ot) in rt.outstanding.iter().enumerate() {
            if k == 0 && rt.computing.is_some() {
                // Master's best guess for the current task: its predicted
                // end, but never before "now".
                t = rt.cur_pred_end.max(now);
            } else {
                t = t.max(ot.avail) + p;
            }
        }
        if rt.outstanding.is_empty() {
            // Idle: the fold is `now` itself and the view answers it
            // lazily (`SimView` substitutes `now` for idle rows), so the
            // cache never expires and idle slaves cost nothing per
            // callback.
            self.ws.view_valid_until[j] = f64::INFINITY;
        } else {
            let anchor = if rt.computing.is_some() {
                rt.cur_pred_end
            } else {
                rt.outstanding.front().expect("non-empty queue").avail
            };
            let valid_until = anchor.max(now);
            self.ws.view_valid_until[j] = valid_until;
            self.ws
                .view_expiry
                .push(Reverse((valid_until.to_bits(), j as u32)));
        }
        self.ws.views.outstanding[j] = rt.outstanding.len();
        self.ws.views.ready_estimate[j] = t;
        self.ws.views.completed[j] = rt.completed;
        self.ws.views.available[j] = !rt.down;
    }

    /// Marks slave `j`'s cached view stale after an event touched it, and
    /// journals the touch for the scheduler-side decision kernels. The
    /// sentinel check makes re-marking within one refresh cycle free (and
    /// keeps the journal deduplicated per cycle, which is sound because
    /// kernels only sync at scheduler callbacks, which only run on fully
    /// refreshed views).
    #[inline]
    fn mark_view_dirty(&mut self, j: usize) {
        if self.ws.view_valid_until[j] != f64::NEG_INFINITY {
            self.ws.view_valid_until[j] = f64::NEG_INFINITY;
            self.ws.view_dirty.push(j as u32);
            self.ws.journal.touch(j as u32);
        }
    }

    /// Brings every cached slave view up to date with the current clock and
    /// makes the pending ring contiguous, so [`Engine::view`] is a pure
    /// borrow. Called before every scheduler callback.
    fn refresh_views(&mut self) {
        if !self.ws.pending.as_slices().1.is_empty() {
            self.ws.pending.make_contiguous();
        }
        // Event-touched slaves, from the dirty stack.
        while let Some(j) = self.ws.view_dirty.pop() {
            self.recompute_view(j as usize);
        }
        // Busy slaves whose cached estimate the clock has passed (only
        // possible when a computation outlives its nominal prediction —
        // perturbed sizes or drift). Heap entries are validated against
        // the live `view_valid_until`; a recompute at the current instant
        // re-anchors at `now`, whose entry no longer satisfies the strict
        // `<`, so this loop terminates.
        let now_bits = self.clock.as_f64().to_bits();
        while let Some(&Reverse((bits, j))) = self.ws.view_expiry.peek() {
            if bits >= now_bits {
                break;
            }
            self.ws.view_expiry.pop();
            if self.ws.view_valid_until[j as usize].to_bits() == bits {
                self.recompute_view(j as usize);
            }
        }
        #[cfg(debug_assertions)]
        self.assert_views_match_fresh();
    }

    /// Debug oracle: every cached view must be bit-identical to a
    /// from-scratch recomputation (the contract `recompute_view` documents).
    #[cfg(debug_assertions)]
    fn assert_views_match_fresh(&self) {
        let now = self.clock.as_f64();
        for (j, rt) in self.ws.slaves.iter().enumerate() {
            let p = self.platform.p(SlaveId(j));
            let mut t = now;
            for (k, ot) in rt.outstanding.iter().enumerate() {
                if k == 0 && rt.computing.is_some() {
                    t = rt.cur_pred_end.max(now);
                } else {
                    t = t.max(ot.avail) + p;
                }
            }
            let v = &self.ws.views;
            // Idle rows are answered lazily by the view (`now`, which is
            // the fold over an empty queue by construction); their stored
            // column may be stale, but the *effective* value must match.
            let effective = if rt.outstanding.is_empty() {
                assert!(
                    self.ws.view_valid_until[j].is_infinite()
                        || self.ws.view_valid_until[j] == f64::NEG_INFINITY,
                    "idle slave {j} must be lazily valid or dirty"
                );
                now
            } else {
                assert!(
                    self.ws.view_valid_until[j] >= now,
                    "busy slave {j}: view overdue (valid until {} < now {now})",
                    self.ws.view_valid_until[j]
                );
                v.ready_estimate[j]
            };
            assert_eq!(
                effective.to_bits(),
                t.to_bits(),
                "slave {j}: cached estimate {effective} != fresh {t} at t={now}"
            );
            assert_eq!(v.outstanding[j], rt.outstanding.len(), "slave {j} count");
            assert_eq!(v.completed[j], rt.completed, "slave {j} completed");
            assert_eq!(v.available[j], !rt.down, "slave {j} availability");
        }
    }

    fn view(&self) -> SimView<'_> {
        let (pending, wrapped) = self.ws.pending.as_slices();
        debug_assert!(wrapped.is_empty(), "refresh_views keeps pending contiguous");
        SimView {
            now: self.clock,
            platform: self.platform,
            tier: self.config.info,
            link_busy_until: self.link_busy_until,
            slaves: &self.ws.views,
            estimates: &self.ws.estimates,
            estimate_version: self.estimate_version,
            pending,
            releases: &self.ws.releases,
            release_base: self.ws.window_start,
            horizon: self.config.horizon_hint,
            released_count: self.released_count,
            completed_count: self.completed_count,
            journal: Some(&self.ws.journal),
            idle_lazy: true,
        }
    }

    fn apply(&mut self, event: Event) -> Option<SchedulerEvent> {
        let now = self.clock.as_f64();
        match event {
            Event::Release(t) => {
                let release = self.feed.arrival(self.ws, t).release;
                let slot = self.ws.slot(t);
                self.ws.releases[slot] = release;
                self.ws.records[slot].release = release.as_f64();
                self.ws.phases[slot] = TaskPhase::Pending;
                self.ws.pending.push_back(t);
                self.released_count += 1;
                self.probe.task_released(now, t.0);
                Some(SchedulerEvent::Released(t))
            }
            Event::SendComplete(t, j) => {
                self.in_flight = None;
                let slot = self.ws.slot(t);
                self.mark_view_dirty(j.0);
                if self.learning {
                    // The master owns the port: the transfer's duration is
                    // its own observation (valid even when the destination
                    // turned out to be down — the port was occupied).
                    let duration = now - self.ws.records[slot].send_start;
                    self.ws.estimates.observe_send(j.0, duration);
                    self.estimate_version += 1;
                    self.probe.estimator_update(now, j.0);
                }
                let rt = &mut self.ws.slaves[j.0];
                if rt.down {
                    // Arrived at a failed slave: the transfer is wasted and
                    // the task returns to the pending queue.
                    let pos = rt
                        .outstanding
                        .iter()
                        .position(|o| o.id == t)
                        .expect("in-flight task must be outstanding");
                    rt.outstanding.remove(pos);
                    self.lose_task(t);
                    self.probe.send_complete(now, t.0, j.0, false);
                    return Some(SchedulerEvent::SendCompleted(t, j));
                }
                self.ws.records[slot].send_end = now;
                // The slave now actually has the task. Sends are serial on
                // the one port, so the arriving task is the most recent push.
                match rt.outstanding.back_mut() {
                    Some(ot) if ot.id == t => ot.avail = now,
                    _ => {
                        if let Some(ot) = rt.outstanding.iter_mut().find(|o| o.id == t) {
                            ot.avail = now;
                        }
                    }
                }
                self.probe.send_complete(now, t.0, j.0, true);
                if rt.computing.is_none() {
                    self.start_compute(t, j);
                } else {
                    rt.queue.push_back(t);
                }
                Some(SchedulerEvent::SendCompleted(t, j))
            }
            Event::ComputeComplete(t, j) => {
                let slot = self.ws.slot(t);
                if self.learning {
                    // Computes are FIFO, so the master can date the start
                    // of this computation from its own observations (the
                    // later of the task's arrival and the previous
                    // completion) — which is exactly what the engine
                    // recorded in `compute_start`.
                    let duration = now - self.ws.records[slot].compute_start;
                    self.ws.estimates.observe_compute(j.0, duration);
                    self.ws.estimates.end_compute(j.0);
                    self.estimate_version += 1;
                    self.probe.estimator_update(now, j.0);
                }
                self.probe.compute_complete(now, t.0, j.0);
                self.ws.records[slot].compute_end = now;
                self.ws.records[slot].done = true;
                self.ws.phases[slot] = TaskPhase::Done;
                self.completed_count += 1;
                self.mark_view_dirty(j.0);
                let rt = &mut self.ws.slaves[j.0];
                debug_assert_eq!(rt.computing, Some(t));
                rt.computing = None;
                rt.completed += 1;
                // Computes are FIFO: the finished task is the head.
                let head = rt
                    .outstanding
                    .pop_front()
                    .expect("completed task must be outstanding");
                debug_assert_eq!(head.id, t);
                if let Some(next) = rt.queue.pop_front() {
                    self.start_compute(next, j);
                }
                Some(SchedulerEvent::ComputeCompleted(t, j))
            }
            Event::Platform(i) => self.apply_platform_event(i),
            Event::Wake => Some(SchedulerEvent::Wake),
        }
    }

    fn apply_platform_event(&mut self, i: usize) -> Option<SchedulerEvent> {
        let e = self.timeline.events()[i];
        let j = e.slave;
        if j.0 >= self.platform.num_slaves() {
            return None; // scenario written for a larger platform: ignore
        }
        match e.kind {
            PlatformEventKind::Fail => {
                if self.ws.slaves[j.0].down {
                    return None;
                }
                // Abort a transfer in flight towards the failing slave: the
                // port frees immediately and its completion event is voided.
                if let Some((_, target, seq)) = self.in_flight {
                    if target == j {
                        self.ws.cancelled.insert(seq);
                        self.link_busy_until = self.clock;
                        self.in_flight = None;
                    }
                }
                self.mark_view_dirty(j.0);
                if self.learning {
                    // The master observed the failure: whatever was
                    // computing is gone (no duration is learned from it).
                    self.ws.estimates.end_compute(j.0);
                }
                let ws = &mut *self.ws;
                let rt = &mut ws.slaves[j.0];
                rt.down = true;
                let cancel_seq = rt.computing.take().map(|_| rt.compute_seq);
                rt.queue.clear();
                ws.lost.clear();
                ws.lost.extend(rt.outstanding.drain(..).map(|o| o.id));
                if let Some(seq) = cancel_seq {
                    self.ws.cancelled.insert(seq);
                }
                self.probe.slave_failed(self.clock.as_f64(), j.0);
                // Lost tasks re-enter `pending` in their send order, so the
                // re-release order is deterministic and observable.
                for k in 0..self.ws.lost.len() {
                    let t = self.ws.lost[k];
                    self.lose_task(t);
                    self.probe.task_lost(self.clock.as_f64(), t.0, j.0);
                }
                Some(SchedulerEvent::SlaveFailed(j))
            }
            PlatformEventKind::Recover => {
                if !self.ws.slaves[j.0].down {
                    return None;
                }
                // The slave restarts empty. A transfer still in flight (the
                // master gambled on the recovery) stays in `outstanding` and
                // is delivered normally at its send-complete.
                self.ws.slaves[j.0].down = false;
                self.mark_view_dirty(j.0);
                self.probe.slave_recovered(self.clock.as_f64(), j.0);
                Some(SchedulerEvent::SlaveRecovered(j))
            }
            PlatformEventKind::SetLinkFactor(f) => {
                self.ws.link_factor[j.0] = f;
                None // drift is invisible: schedulers stay speed-oblivious
            }
            PlatformEventKind::SetSpeedFactor(f) => {
                self.ws.speed_factor[j.0] = f;
                None
            }
        }
    }

    fn start_compute(&mut self, t: TaskId, j: SlaveId) {
        let now = self.clock.as_f64();
        self.probe.compute_start(now, t.0, j.0);
        // Billed at the *effective* speed in force when the computation
        // starts; the nominal estimate below is what schedulers see. With
        // a factor of exactly 1.0 the arithmetic is bit-identical to the
        // static engine.
        let size_p = self.feed.arrival(self.ws, t).size_p;
        let slot = self.ws.slot(t);
        let billed_p = self.ws.speed_factor[j.0] * size_p;
        let actual = self.platform.p(j) * billed_p;
        self.ws.records[slot].compute_start = now;
        self.ws.records[slot].billed_p = billed_p;
        let seq = self.push(Time::new(now + actual), Event::ComputeComplete(t, j));
        self.mark_view_dirty(j.0);
        if self.learning {
            // Observable: with FIFO computes, a computation starts exactly
            // when the engine starts one.
            self.ws.estimates.begin_compute(j.0, now);
        }
        let rt = &mut self.ws.slaves[j.0];
        rt.computing = Some(t);
        rt.compute_seq = seq;
        rt.cur_pred_end = now + self.platform.p(j); // nominal estimate
                                                    // The head of `outstanding` must be the task that starts computing:
                                                    // sends are FIFO per slave and computes are FIFO, so this holds.
        debug_assert_eq!(rt.outstanding.front().map(|o| o.id), Some(t));
    }

    fn execute_send(&mut self, t: TaskId, j: SlaveId) -> Result<(), SimError> {
        let now = self.clock;
        if self.link_busy_until > now {
            return Err(SimError::InvalidDecision {
                at: now,
                reason: format!(
                    "send of {t} while the port is busy until {}",
                    self.link_busy_until
                ),
            });
        }
        // O(1) membership check through the phase slot map (no queue scan);
        // an out-of-range id — including a recycled streamed slot, which is
        // necessarily `Done` — is "never released" and takes the same error.
        let pending =
            t.0.checked_sub(self.ws.window_start)
                .and_then(|s| self.ws.phases.get(s))
                == Some(&TaskPhase::Pending);
        if !pending {
            return Err(SimError::InvalidDecision {
                at: now,
                reason: format!(
                    "send of {t} which is not pending (unreleased, or already assigned)"
                ),
            });
        }
        if j.0 >= self.platform.num_slaves() {
            return Err(SimError::InvalidDecision {
                at: now,
                reason: format!("send of {t} to unknown slave index {}", j.0),
            });
        }
        // Every paper heuristic dispatches the oldest pending task, so the
        // O(1) front pop is the hot path; cherry-picks fall back to a scan.
        if self.ws.pending.front() == Some(&t) {
            self.ws.pending.pop_front();
        } else {
            let pos = self
                .ws
                .pending
                .iter()
                .position(|&x| x == t)
                .expect("task in Pending phase is in the pending queue");
            self.ws.pending.remove(pos);
        }
        let size_c = self.feed.arrival(self.ws, t).size_c;
        let slot = self.ws.slot(t);
        self.ws.phases[slot] = TaskPhase::Assigned;
        let billed_c = self.ws.link_factor[j.0] * size_c;
        let actual_c = self.platform.c(j) * billed_c;
        let nominal_c = self.platform.c(j);
        self.ws.records[slot].send_start = now.as_f64();
        self.ws.records[slot].billed_c = billed_c;
        self.ws.records[slot].slave = j.0;
        self.ws.records[slot].assigned = true;
        self.link_busy_until = now + actual_c;
        self.mark_view_dirty(j.0);
        self.ws.slaves[j.0].outstanding.push_back(OutTask {
            id: t,
            avail: now.as_f64() + nominal_c,
        });
        let seq = self.push(self.link_busy_until, Event::SendComplete(t, j));
        self.in_flight = Some((t, j, seq));
        self.probe.send_start(now.as_f64(), t.0, j.0);
        Ok(())
    }

    /// Batched form of [`Engine::step_budget`]: charges `k` steps at once.
    fn charge_steps(&mut self, k: usize) -> Result<(), SimError> {
        self.steps += k;
        if self.steps > self.config.max_steps {
            self.probe
                .budget_abort(self.clock.as_f64(), self.steps as u64);
            Err(SimError::BudgetExhausted {
                max_steps: self.config.max_steps,
            })
        } else {
            Ok(())
        }
    }

    fn step_budget(&mut self) -> Result<(), SimError> {
        self.steps += 1;
        if self.steps > self.config.max_steps {
            self.probe
                .budget_abort(self.clock.as_f64(), self.steps as u64);
            Err(SimError::BudgetExhausted {
                max_steps: self.config.max_steps,
            })
        } else {
            Ok(())
        }
    }
}

/// The tasks of one run: a materialized slice, or a [`TaskSource`] the
/// engine pulls from.
///
/// Built with `From`, so the run functions take `&tasks` (a slice or a
/// `Vec`) and `&mut source` alike. Each run matches on it once and drives
/// a loop monomorphized for that input.
pub enum TaskInput<'a> {
    /// A materialized instance. It may be in any release order; task `i` of
    /// the slice runs (and is traced) as `TaskId(i)`.
    Slice(&'a [TaskArrival]),
    /// A lazily pulled stream. Tasks get ids in pull order. Objective runs
    /// recycle finalized task slots, so memory stays O(slaves + outstanding
    /// tasks) however long the stream is; trace runs retain every record.
    ///
    /// # Panics
    /// The run panics if the source violates the non-decreasing release
    /// contract.
    Source(&'a mut dyn TaskSource),
}

impl<'a> From<&'a [TaskArrival]> for TaskInput<'a> {
    fn from(tasks: &'a [TaskArrival]) -> Self {
        TaskInput::Slice(tasks)
    }
}

impl<'a> From<&'a Vec<TaskArrival>> for TaskInput<'a> {
    fn from(tasks: &'a Vec<TaskArrival>) -> Self {
        TaskInput::Slice(tasks)
    }
}

impl<'a, S: TaskSource + 'a> From<&'a mut S> for TaskInput<'a> {
    fn from(source: &'a mut S) -> Self {
        TaskInput::Source(source)
    }
}

/// Runs `scheduler` on `tasks` over the static `platform` and returns the
/// trace.
///
/// The scheduler sees nominal task sizes; the engine bills actual
/// (possibly perturbed) ones. Fails if the scheduler stalls, produces an
/// invalid decision, or exhausts the step budget.
///
/// Allocates a fresh [`SimWorkspace`] internally; [`simulate_in`] reuses
/// one across runs and also takes a [`Timeline`], a [`TaskSource`] and a
/// [`Probe`].
///
/// # Examples
/// ```
/// use mss_sim::{simulate, SimConfig, Platform, bag_of_tasks};
/// use mss_sim::{Decision, OnlineScheduler, SchedulerEvent, SimView, SlaveId};
///
/// /// Sends every pending task to slave 0 as soon as the port is free.
/// struct FirstSlave;
/// impl OnlineScheduler for FirstSlave {
///     fn name(&self) -> String { "first".into() }
///     fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
///         match (view.link_idle(), view.pending_tasks().first()) {
///             (true, Some(&task)) => Decision::Send { task, slave: SlaveId(0) },
///             _ => Decision::Idle,
///         }
///     }
/// }
///
/// // One slave with c = 1, p = 2: three tasks pipeline to makespan 1 + 3·2.
/// let platform = Platform::from_vectors(&[1.0], &[2.0]);
/// let trace = simulate(&platform, &bag_of_tasks(3), &SimConfig::default(),
///                      &mut FirstSlave).unwrap();
/// assert_eq!(trace.makespan(), 7.0);
/// ```
pub fn simulate(
    platform: &Platform,
    tasks: &[TaskArrival],
    config: &SimConfig,
    scheduler: &mut dyn OnlineScheduler,
) -> Result<Trace, SimError> {
    simulate_in(
        &mut SimWorkspace::new(),
        platform,
        tasks,
        config,
        &Timeline::EMPTY,
        scheduler,
        &mut NoopProbe,
    )
}

/// The general run: `scheduler` on `tasks` (a slice or a [`TaskSource`],
/// see [`TaskInput`]) over `platform` under the platform-event `timeline`,
/// inside the reusable buffers `ws`, with `probe` observing every engine
/// boundary. Returns the full [`Trace`].
///
/// * **Timeline.** `timeline` scripts slave failures, recoveries and
///   link/speed drift (see [`crate::events`]). Tasks on a failing slave
///   are lost and re-enter the pending queue; sends to a down slave are
///   permitted but lost on arrival. [`Timeline::EMPTY`] is the static
///   engine, bit for bit.
/// * **Workspace.** Once `ws` is warm, a run allocates nothing but the
///   returned trace. Results are identical for a fresh or reused `ws`.
/// * **Source.** A pulled stream gives the same trace as the materialized
///   instance it yields; streaming is an evaluation strategy, not a model
///   change.
/// * **Probe.** Probes only observe: the trace (or error) is bit-identical
///   for any probe, and with [`NoopProbe`] the monomorphized engine is the
///   unprobed one, instruction for instruction. Hooks receive task *ids*,
///   so a probe must not assume it can index a task table of the instance
///   size (contract #13).
///
/// # Examples
/// ```
/// use mss_sim::{simulate_in, NoopProbe, SimConfig, SimWorkspace, Platform, TaskArrival,
///               TaskSource, Timeline, bag_of_tasks};
/// # use mss_sim::{Decision, OnlineScheduler, SchedulerEvent, SimView, SlaveId};
/// # struct FirstSlave;
/// # impl OnlineScheduler for FirstSlave {
/// #     fn name(&self) -> String { "first".into() }
/// #     fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
/// #         match (view.link_idle(), view.pending_tasks().first()) {
/// #             (true, Some(&task)) => Decision::Send { task, slave: SlaveId(0) },
/// #             _ => Decision::Idle,
/// #         }
/// #     }
/// # }
/// struct Bag(usize, usize);
/// impl TaskSource for Bag {
///     fn next_task(&mut self) -> Option<TaskArrival> {
///         (self.0 < self.1).then(|| { self.0 += 1; TaskArrival::at(0.0) })
///     }
///     fn len_hint(&self) -> Option<usize> { Some(self.1) }
///     fn reset(&mut self) { self.0 = 0; }
/// }
///
/// let platform = Platform::from_vectors(&[1.0], &[2.0]);
/// let cfg = SimConfig::default();
/// let mut ws = SimWorkspace::new();
/// let materialized = simulate_in(&mut ws, &platform, &bag_of_tasks(3), &cfg,
///                                &Timeline::EMPTY, &mut FirstSlave, &mut NoopProbe).unwrap();
/// let streamed = simulate_in(&mut ws, &platform, &mut Bag(0, 3), &cfg,
///                            &Timeline::EMPTY, &mut FirstSlave, &mut NoopProbe).unwrap();
/// assert_eq!(streamed, materialized);
/// assert_eq!(materialized.makespan(), 7.0);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn simulate_in<'t, P: Probe>(
    ws: &mut SimWorkspace,
    platform: &Platform,
    tasks: impl Into<TaskInput<'t>>,
    config: &SimConfig,
    timeline: &Timeline,
    scheduler: &mut dyn OnlineScheduler,
    probe: &mut P,
) -> Result<Trace, SimError> {
    match tasks.into() {
        TaskInput::Slice(tasks) => {
            let mut feed = SliceFeed { tasks, cursor: 0 };
            drive_feed(ws, platform, &mut feed, config, timeline, scheduler, probe)?;
        }
        TaskInput::Source(source) => {
            let mut feed = StreamFeed::new(source, false);
            drive_feed(ws, platform, &mut feed, config, timeline, scheduler, probe)?;
        }
    }
    Ok(trace_from(ws))
}

/// The objective values of one completed run.
///
/// Computed directly from the engine's internal records with the *same
/// folds, in the same order,* as [`Trace::makespan`], [`Trace::max_flow`]
/// and [`Trace::sum_flow`], so the numbers are bit-identical to going
/// through a [`Trace`] — without materializing one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunObjectives {
    /// Makespan `max C_i` (0 for an empty run).
    pub makespan: f64,
    /// Maximum response time `max (C_i − r_i)`.
    pub max_flow: f64,
    /// Sum of response times `Σ (C_i − r_i)`.
    pub sum_flow: f64,
}

/// Result of [`simulate_objectives_in`]: the objective values plus the
/// task-slot telemetry the bounded-memory streaming contract is stated in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamStats {
    /// The run's objectives — bit-identical for a slice and for a source
    /// yielding the same tasks.
    pub objectives: RunObjectives,
    /// Tasks in the instance (pulled from the source, or the slice length).
    pub tasks: usize,
    /// High-water mark of *live* task slots: released tasks whose record
    /// had not yet been finalized. For a source this is what the
    /// bounded-memory contract bounds by O(slaves + outstanding),
    /// independent of the instance size. A slice run finalizes nothing
    /// before the end, so it reports `tasks`.
    pub peak_live_slots: usize,
    /// High-water mark of *resident* task slots (live + finalized slots
    /// not yet recycled). For a source it stays within 2× the live peak
    /// plus the compaction threshold; a slice run holds every slot, so it
    /// reports `tasks`.
    pub peak_resident_slots: usize,
}

/// [`simulate_in`] for callers that only need the objective values: skips
/// building the per-task [`Trace`] (the one remaining per-run output
/// allocation), which is what a sweep over thousands of cells measures
/// anyway. The objectives are bit-identical to those of the returned
/// trace of [`simulate_in`].
///
/// From a [`TaskSource`] this is the bounded-memory run: a task's slot is
/// recycled once its record is finalized (in task-id order, with the same
/// float folds), so a million-task stream runs in a working set of a few
/// hundred slots.
///
/// # Examples
/// ```
/// use mss_sim::{simulate, simulate_objectives_in, NoopProbe, RunCounters, SimConfig,
///               SimWorkspace, Platform, Timeline, bag_of_tasks};
/// # use mss_sim::{Decision, OnlineScheduler, SchedulerEvent, SimView, SlaveId};
/// # struct FirstSlave;
/// # impl OnlineScheduler for FirstSlave {
/// #     fn name(&self) -> String { "first".into() }
/// #     fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
/// #         match (view.link_idle(), view.pending_tasks().first()) {
/// #             (true, Some(&task)) => Decision::Send { task, slave: SlaveId(0) },
/// #             _ => Decision::Idle,
/// #         }
/// #     }
/// # }
/// let platform = Platform::from_vectors(&[1.0], &[2.0]);
/// let tasks = bag_of_tasks(3);
/// let mut counters = RunCounters::new();
/// let run = simulate_objectives_in(&mut SimWorkspace::new(), &platform, &tasks,
///                                  &SimConfig::default(), &Timeline::EMPTY,
///                                  &mut FirstSlave, &mut counters).unwrap();
/// let trace = simulate(&platform, &tasks, &SimConfig::default(), &mut FirstSlave).unwrap();
/// assert_eq!(run.objectives.makespan, trace.makespan());
/// assert_eq!(run.tasks, 3);
/// assert_eq!(counters.sends_delivered, 3);
/// assert_eq!(counters.computes_completed, 3);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn simulate_objectives_in<'t, P: Probe>(
    ws: &mut SimWorkspace,
    platform: &Platform,
    tasks: impl Into<TaskInput<'t>>,
    config: &SimConfig,
    timeline: &Timeline,
    scheduler: &mut dyn OnlineScheduler,
    probe: &mut P,
) -> Result<StreamStats, SimError> {
    match tasks.into() {
        TaskInput::Slice(tasks) => {
            let mut feed = SliceFeed { tasks, cursor: 0 };
            drive_feed(ws, platform, &mut feed, config, timeline, scheduler, probe)?;
            let records = &ws.records;
            Ok(StreamStats {
                objectives: RunObjectives {
                    makespan: records.iter().map(|r| r.compute_end).fold(0.0, f64::max),
                    max_flow: records
                        .iter()
                        .map(|r| r.compute_end - r.release)
                        .fold(0.0, f64::max),
                    sum_flow: records.iter().map(|r| r.compute_end - r.release).sum(),
                },
                tasks: tasks.len(),
                peak_live_slots: tasks.len(),
                peak_resident_slots: tasks.len(),
            })
        }
        TaskInput::Source(source) => {
            let mut feed = StreamFeed::new(source, true);
            drive_feed(ws, platform, &mut feed, config, timeline, scheduler, probe)?;
            // The loop finalizes after every batch, so a completed run has
            // folded every record already; this is belt-and-braces for the
            // empty run.
            feed.maintain(ws);
            Ok(StreamStats {
                objectives: RunObjectives {
                    makespan: feed.makespan,
                    max_flow: feed.max_flow,
                    sum_flow: feed.sum_flow,
                },
                tasks: feed.next_id,
                peak_live_slots: feed.peak_live,
                peak_resident_slots: feed.peak_resident,
            })
        }
    }
}

/// Builds the [`Trace`] out of a driven workspace.
fn trace_from(ws: &SimWorkspace) -> Trace {
    let records = ws
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            debug_assert!(r.done);
            TaskRecord {
                task: TaskId(i),
                release: Time::new(r.release),
                slave: SlaveId(r.slave),
                send_start: Time::new(r.send_start),
                send_end: Time::new(r.send_end),
                compute_start: Time::new(r.compute_start),
                compute_end: Time::new(r.compute_end),
                size_c: r.billed_c,
                size_p: r.billed_p,
            }
        })
        .collect();
    Trace::new(records)
}

/// Reports a scheduler's callback answer through the probe seam, in the
/// dependency-free `(tag, a, b)` encoding documented on
/// [`Probe::decision`]. Called only for decisions the engine actually
/// acts on — the `debug_assertions` elision oracle never reports its
/// shadow answers, keeping decision streams build-invariant.
fn probe_decision<P: Probe>(probe: &mut P, now: f64, decision: &Decision) {
    match decision {
        Decision::Idle => probe.decision(now, 0, 0, 0),
        Decision::Send { task, slave } => probe.decision(now, 1, task.0, slave.0 as u64),
        Decision::WakeAt(t) => probe.decision(now, 2, 0, t.as_f64().to_bits()),
    }
}

/// Runs the event loop to completion over any [`Feed`]. Monomorphized per
/// feed: with [`SliceFeed`] this is the historical materialized engine,
/// instruction for instruction.
fn drive_feed<P: Probe, F: Feed>(
    ws: &mut SimWorkspace,
    platform: &Platform,
    feed: &mut F,
    config: &SimConfig,
    timeline: &Timeline,
    scheduler: &mut dyn OnlineScheduler,
    probe: &mut P,
) -> Result<(), SimError> {
    // Capability check before anything runs: a scheduler must never see a
    // view weaker than the tier it declared it stays live under.
    if config.info < scheduler.min_tier() {
        return Err(SimError::InsufficientInformation {
            granted: config.info,
            required: scheduler.min_tier(),
        });
    }
    let mut engine = Engine::new(platform, feed, config, timeline, ws, probe);
    // Poll-driven schedulers promise to answer Idle (with no state change)
    // whenever the port is busy or nothing is pending, so those
    // notification callbacks can be elided without observable effect.
    let poll_driven = scheduler.poll_driven();

    engine.refresh_views();
    scheduler.init(&engine.view());

    while !engine
        .feed
        .is_complete(engine.released_count, engine.completed_count)
    {
        engine.step_budget()?;

        let Some((first_event, first_seq, first_from_heap, first_time)) = engine.pop_next(None)
        else {
            // Nothing scheduled: give the scheduler one last chance to act.
            engine.refresh_views();
            engine.probe.callback(engine.clock.as_f64());
            let decision = scheduler.on_event(&engine.view(), SchedulerEvent::PortIdle);
            probe_decision(&mut *engine.probe, engine.clock.as_f64(), &decision);
            match decision {
                Decision::Send { task, slave } => {
                    engine.execute_send(task, slave)?;
                    continue;
                }
                Decision::WakeAt(t) if t > engine.clock => {
                    engine.push(t, Event::Wake);
                    continue;
                }
                _ => {
                    return Err(SimError::Stalled {
                        at: engine.clock,
                        completed: engine.completed_count,
                        total: engine.feed.stall_total(engine.released_count),
                    })
                }
            }
        };

        // Apply the whole batch of simultaneous events first, so the
        // scheduler always decides on a fully settled state (the head of
        // the batch is already popped; drain the rest at the same time).
        engine.clock = first_time;
        engine.ws.notifications.clear();
        let mut next = Some((first_event, first_seq, first_from_heap));
        let mut batch_steps = 0usize;
        while let Some((event, seq, from_heap)) = next {
            if !(from_heap && !engine.ws.cancelled.is_empty() && engine.ws.cancelled.remove(&seq)) {
                batch_steps += 1;
                if let Some(n) = engine.apply(event) {
                    engine.ws.notifications.push(n);
                }
            }
            next = engine
                .pop_next(Some(first_time))
                .map(|(e, s, f, _)| (e, s, f));
        }
        // Budget accounting is batched: one add + one check per batch
        // instead of per event. A budget crossing mid-batch surfaces as the
        // same `BudgetExhausted` error before any callback of the batch is
        // delivered — errored runs return nothing else, so the relaxation
        // is unobservable.
        engine.charge_steps(batch_steps)?;

        // Deliver notifications; each may carry a decision. (Decisions can
        // change engine state, never extend this batch's notifications.)
        for i in 0..engine.ws.notifications.len() {
            if poll_driven
                && (engine.link_busy_until > engine.clock || engine.ws.pending.is_empty())
            {
                // The poll-driven contract makes this callback a no-op; the
                // debug oracle performs it anyway and holds the promise.
                engine.probe.callback_elided(engine.clock.as_f64());
                #[cfg(debug_assertions)]
                {
                    engine.refresh_views();
                    let decision = scheduler.on_event(&engine.view(), engine.ws.notifications[i]);
                    assert!(
                        matches!(decision, Decision::Idle),
                        "poll_driven scheduler acted on a busy/empty callback: {decision:?}"
                    );
                }
                continue;
            }
            let n = engine.ws.notifications[i];
            engine.refresh_views();
            engine.probe.callback(engine.clock.as_f64());
            let decision = scheduler.on_event(&engine.view(), n);
            probe_decision(&mut *engine.probe, engine.clock.as_f64(), &decision);
            match decision {
                Decision::Send { task, slave } => engine.execute_send(task, slave)?,
                Decision::WakeAt(t) if t > engine.clock => {
                    engine.push(t, Event::Wake);
                }
                _ => {}
            }
        }

        // Poll while the port is idle and the scheduler keeps acting.
        loop {
            engine.step_budget()?;
            if engine.link_busy_until > engine.clock || engine.ws.pending.is_empty() {
                break;
            }
            engine.refresh_views();
            engine.probe.callback(engine.clock.as_f64());
            let decision = scheduler.on_event(&engine.view(), SchedulerEvent::PortIdle);
            probe_decision(&mut *engine.probe, engine.clock.as_f64(), &decision);
            match decision {
                Decision::Send { task, slave } => engine.execute_send(task, slave)?,
                Decision::WakeAt(t) if t > engine.clock => {
                    engine.push(t, Event::Wake);
                    break;
                }
                _ => break,
            }
        }

        // Feed housekeeping once per settled batch: the bounded-memory
        // streamed feed finalizes completed records and recycles their
        // slots here (a no-op for every other feed).
        engine.feed.maintain(engine.ws);
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::bag_of_tasks;
    use crate::trace::validate;

    /// Sends every pending task to slave 0 as soon as possible.
    struct AllToFirst;

    impl OnlineScheduler for AllToFirst {
        fn name(&self) -> String {
            "all-to-first".into()
        }
        fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
            if view.link_idle() {
                if let Some(&t) = view.pending_tasks().first() {
                    return Decision::Send {
                        task: t,
                        slave: SlaveId(0),
                    };
                }
            }
            Decision::Idle
        }
    }

    /// Never does anything.
    struct Lazy;

    impl OnlineScheduler for Lazy {
        fn name(&self) -> String {
            "lazy".into()
        }
        fn on_event(&mut self, _v: &SimView<'_>, _e: SchedulerEvent) -> Decision {
            Decision::Idle
        }
    }

    fn platform() -> Platform {
        Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0])
    }

    #[test]
    fn zero_tasks_complete_immediately() {
        let pf = platform();
        let trace = simulate(&pf, &[], &SimConfig::default(), &mut Lazy).unwrap();
        assert!(trace.is_empty());
        assert_eq!(trace.makespan(), 0.0);
    }

    #[test]
    fn single_task_timing() {
        let pf = platform();
        let trace = simulate(
            &pf,
            &bag_of_tasks(1),
            &SimConfig::default(),
            &mut AllToFirst,
        )
        .unwrap();
        let r = trace.record(TaskId(0));
        assert_eq!(r.send_start, Time::ZERO);
        assert_eq!(r.send_end, Time::new(1.0));
        assert_eq!(r.compute_start, Time::new(1.0));
        assert_eq!(r.compute_end, Time::new(4.0));
        assert!(validate(&trace, &pf).is_empty());
    }

    #[test]
    fn pipeline_on_one_slave() {
        // Three tasks to P1: sends at 0,1,2; computes at 1-4, 4-7, 7-10.
        let pf = platform();
        let trace = simulate(
            &pf,
            &bag_of_tasks(3),
            &SimConfig::default(),
            &mut AllToFirst,
        )
        .unwrap();
        assert!((trace.makespan() - 10.0).abs() < 1e-12);
        assert!(validate(&trace, &pf).is_empty());
        let r2 = trace.record(TaskId(2));
        assert_eq!(r2.send_start, Time::new(2.0));
        assert_eq!(r2.compute_start, Time::new(7.0));
    }

    #[test]
    fn respects_release_times() {
        let pf = platform();
        let tasks = [TaskArrival::at(5.0)];
        let trace = simulate(&pf, &tasks, &SimConfig::default(), &mut AllToFirst).unwrap();
        assert_eq!(trace.record(TaskId(0)).send_start, Time::new(5.0));
        assert!((trace.makespan() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn perturbed_sizes_are_billed() {
        let pf = platform();
        let tasks = [TaskArrival {
            release: Time::ZERO,
            size_c: 2.0,
            size_p: 0.5,
        }];
        let trace = simulate(&pf, &tasks, &SimConfig::default(), &mut AllToFirst).unwrap();
        let r = trace.record(TaskId(0));
        assert_eq!(r.send_end, Time::new(2.0)); // 1.0 · 2.0
        assert_eq!(r.compute_end, Time::new(3.5)); // + 3.0 · 0.5
        assert!(validate(&trace, &pf).is_empty());
    }

    #[test]
    fn lazy_scheduler_stalls() {
        let pf = platform();
        let err = simulate(&pf, &bag_of_tasks(2), &SimConfig::default(), &mut Lazy).unwrap_err();
        assert!(matches!(
            err,
            SimError::Stalled {
                completed: 0,
                total: 2,
                ..
            }
        ));
    }

    #[test]
    fn invalid_send_rejected() {
        struct SendUnreleased;
        impl OnlineScheduler for SendUnreleased {
            fn name(&self) -> String {
                "bad".into()
            }
            fn on_event(&mut self, _v: &SimView<'_>, _e: SchedulerEvent) -> Decision {
                Decision::Send {
                    task: TaskId(1),
                    slave: SlaveId(0),
                }
            }
        }
        let pf = platform();
        // Task 1 releases at t=10; scheduler tries to send it at t=0.
        let tasks = [TaskArrival::at(0.0), TaskArrival::at(10.0)];
        let err = simulate(&pf, &tasks, &SimConfig::default(), &mut SendUnreleased).unwrap_err();
        assert!(matches!(err, SimError::InvalidDecision { .. }));
    }

    #[test]
    fn unknown_task_send_errors_not_panics() {
        // A task id that was never part of the instance must produce the
        // same InvalidDecision as an unreleased one — the phase slot map
        // bounds-checks before indexing.
        struct SendGhost;
        impl OnlineScheduler for SendGhost {
            fn name(&self) -> String {
                "ghost".into()
            }
            fn on_event(&mut self, _v: &SimView<'_>, _e: SchedulerEvent) -> Decision {
                Decision::Send {
                    task: TaskId(usize::MAX),
                    slave: SlaveId(0),
                }
            }
        }
        let pf = platform();
        let err =
            simulate(&pf, &bag_of_tasks(1), &SimConfig::default(), &mut SendGhost).unwrap_err();
        match err {
            SimError::InvalidDecision { reason, .. } => {
                assert!(reason.contains("not pending"), "{reason}");
            }
            other => panic!("expected InvalidDecision, got {other:?}"),
        }
    }

    #[test]
    fn already_assigned_task_send_errors() {
        // Sending the same task twice: the second send must be rejected.
        struct SendTwice {
            sent: usize,
        }
        impl OnlineScheduler for SendTwice {
            fn name(&self) -> String {
                "send-twice".into()
            }
            fn on_event(&mut self, _v: &SimView<'_>, e: SchedulerEvent) -> Decision {
                if matches!(
                    e,
                    SchedulerEvent::Released(_) | SchedulerEvent::SendCompleted(..)
                ) && self.sent < 2
                {
                    self.sent += 1;
                    return Decision::Send {
                        task: TaskId(0),
                        slave: SlaveId(0),
                    };
                }
                Decision::Idle
            }
        }
        let pf = platform();
        let err = simulate(
            &pf,
            &bag_of_tasks(1),
            &SimConfig::default(),
            &mut SendTwice { sent: 0 },
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidDecision { .. }), "{err:?}");
    }

    #[test]
    fn wake_at_is_honored() {
        /// Waits until t=3 before sending the single task.
        struct Sleeper {
            sent: bool,
        }
        impl OnlineScheduler for Sleeper {
            fn name(&self) -> String {
                "sleeper".into()
            }
            fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
                if self.sent {
                    return Decision::Idle;
                }
                if view.now() < Time::new(3.0) {
                    return Decision::WakeAt(Time::new(3.0));
                }
                self.sent = true;
                Decision::Send {
                    task: TaskId(0),
                    slave: SlaveId(0),
                }
            }
        }
        let pf = platform();
        let trace = simulate(
            &pf,
            &bag_of_tasks(1),
            &SimConfig::default(),
            &mut Sleeper { sent: false },
        )
        .unwrap();
        assert_eq!(trace.record(TaskId(0)).send_start, Time::new(3.0));
    }

    #[test]
    fn ready_estimate_resyncs_on_completion() {
        // One slow (perturbed) task followed by a nominal one: the estimate
        // is wrong while the first computes, and re-anchors at completion.
        struct Probe {
            estimates: Vec<(f64, f64)>,
        }
        impl OnlineScheduler for Probe {
            fn name(&self) -> String {
                "probe".into()
            }
            fn on_event(&mut self, view: &SimView<'_>, e: SchedulerEvent) -> Decision {
                self.estimates.push((
                    view.now().as_f64(),
                    view.slave(SlaveId(0)).ready_estimate.as_f64(),
                ));
                if matches!(e, SchedulerEvent::Released(_)) {
                    if let Some(&t) = view.pending_tasks().first() {
                        if view.link_idle() {
                            return Decision::Send {
                                task: t,
                                slave: SlaveId(0),
                            };
                        }
                    }
                }
                Decision::Idle
            }
        }
        let pf = Platform::from_vectors(&[1.0], &[3.0]);
        let tasks = [
            TaskArrival {
                release: Time::ZERO,
                size_c: 1.0,
                size_p: 2.0, // actually takes 6s, nominal 3s
            },
            TaskArrival::at(20.0),
        ];
        let mut probe = Probe { estimates: vec![] };
        let trace = simulate(&pf, &tasks, &SimConfig::default(), &mut probe).unwrap();
        // First task: send 0-1, compute 1-7 (actual). Nominal estimate said 4.
        assert_eq!(trace.record(TaskId(0)).compute_end, Time::new(7.0));
        // Second task sent at 20, done at 24.
        assert_eq!(trace.record(TaskId(1)).compute_end, Time::new(24.0));
    }

    #[test]
    fn step_budget_enforced() {
        struct WakeLoop;
        impl OnlineScheduler for WakeLoop {
            fn name(&self) -> String {
                "wake-loop".into()
            }
            fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
                Decision::WakeAt(view.now() + 0.001)
            }
        }
        let pf = platform();
        let cfg = SimConfig {
            max_steps: 1000,
            ..SimConfig::default()
        };
        let err = simulate(&pf, &bag_of_tasks(1), &cfg, &mut WakeLoop).unwrap_err();
        assert!(matches!(err, SimError::BudgetExhausted { .. }));
    }

    fn timeline(events: Vec<(f64, usize, PlatformEventKind)>) -> Timeline {
        Timeline::new(
            events
                .into_iter()
                .map(|(t, j, kind)| crate::events::PlatformEvent {
                    time: Time::new(t),
                    slave: SlaveId(j),
                    kind,
                })
                .collect(),
        )
    }

    /// A fresh-workspace, unprobed run over a dynamic platform.
    fn simulate_timeline(
        pf: &Platform,
        tasks: &[TaskArrival],
        tl: &Timeline,
        scheduler: &mut dyn OnlineScheduler,
    ) -> Result<Trace, SimError> {
        let cfg = SimConfig::default();
        let mut ws = SimWorkspace::new();
        simulate_in(&mut ws, pf, tasks, &cfg, tl, scheduler, &mut NoopProbe)
    }

    #[test]
    fn empty_timeline_is_bitwise_identical() {
        let pf = platform();
        let tasks = bag_of_tasks(5);
        let a = simulate(&pf, &tasks, &SimConfig::default(), &mut AllToFirst).unwrap();
        let b = simulate_timeline(&pf, &tasks, &Timeline::EMPTY, &mut AllToFirst).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn workspace_reuse_is_bitwise_identical() {
        // A warm workspace (even one warmed on a different platform shape)
        // must not change any result.
        let pf = platform();
        let tasks = bag_of_tasks(7);
        let fresh = simulate(&pf, &tasks, &SimConfig::default(), &mut AllToFirst).unwrap();
        let mut ws = SimWorkspace::new();
        let other_pf = Platform::from_vectors(&[0.5, 0.5, 0.5], &[1.0, 2.0, 3.0]);
        simulate_in(
            &mut ws,
            &other_pf,
            &bag_of_tasks(20),
            &SimConfig::default(),
            &Timeline::EMPTY,
            &mut AllToFirst,
            &mut NoopProbe,
        )
        .unwrap();
        let reused = simulate_in(
            &mut ws,
            &pf,
            &tasks,
            &SimConfig::default(),
            &Timeline::EMPTY,
            &mut AllToFirst,
            &mut NoopProbe,
        )
        .unwrap();
        assert_eq!(fresh, reused);
    }

    #[test]
    fn workspace_survives_error_and_reruns() {
        // An errored run must not poison the workspace for the next one.
        let pf = platform();
        let mut ws = SimWorkspace::new();
        let err = simulate_in(
            &mut ws,
            &pf,
            &bag_of_tasks(2),
            &SimConfig::default(),
            &Timeline::EMPTY,
            &mut Lazy,
            &mut NoopProbe,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Stalled { .. }));
        let trace = simulate_in(
            &mut ws,
            &pf,
            &bag_of_tasks(3),
            &SimConfig::default(),
            &Timeline::EMPTY,
            &mut AllToFirst,
            &mut NoopProbe,
        )
        .unwrap();
        assert!((trace.makespan() - 10.0).abs() < 1e-12);
        assert!(validate(&trace, &pf).is_empty());
    }

    #[test]
    fn failure_loses_work_and_rereleases_tasks() {
        // 3 tasks to P1 (c=1, p=3): computes 1-4, 4-7, 7-10. P1 fails at
        // t=5 (T1 computing, T2 queued are lost) and recovers at t=7.5.
        // AllToFirst keeps gambling on P1; the send in flight at recovery
        // time is delivered. Expected completion walk-through:
        //   5-6 resend T1 (lost on arrival), 6-7 resend T2 (lost),
        //   7-8 resend T1 (P1 recovers at 7.5 -> delivered), computes 8-11,
        //   8-9 resend T2, computes 11-14.
        let pf = platform();
        let tl = timeline(vec![
            (5.0, 0, PlatformEventKind::Fail),
            (7.5, 0, PlatformEventKind::Recover),
        ]);
        let trace = simulate_timeline(&pf, &bag_of_tasks(3), &tl, &mut AllToFirst).unwrap();
        assert!(validate(&trace, &pf).is_empty());
        assert_eq!(trace.record(TaskId(0)).compute_end, Time::new(4.0));
        let r1 = trace.record(TaskId(1));
        assert_eq!(r1.send_start, Time::new(7.0));
        assert_eq!(r1.compute_start, Time::new(8.0));
        assert_eq!(r1.compute_end, Time::new(11.0));
        let r2 = trace.record(TaskId(2));
        assert_eq!(r2.send_start, Time::new(8.0));
        assert_eq!(r2.compute_end, Time::new(14.0));
    }

    #[test]
    fn failure_aborts_in_flight_send_and_frees_port() {
        // P1 fails at t=0.5 while T0 is in flight: the port frees at 0.5
        // and the re-send starts immediately.
        let pf = platform();
        let tl = timeline(vec![
            (0.5, 0, PlatformEventKind::Fail),
            (2.0, 0, PlatformEventKind::Recover),
        ]);
        let trace = simulate_timeline(&pf, &bag_of_tasks(1), &tl, &mut AllToFirst).unwrap();
        let r = trace.record(TaskId(0));
        // Re-sends: 0.5-1.5 (lost on arrival), 1.5-2.5 (P1 back at 2.0).
        assert_eq!(r.send_start, Time::new(1.5));
        assert_eq!(r.compute_end, Time::new(5.5));
        assert!(validate(&trace, &pf).is_empty());
    }

    #[test]
    fn speed_drift_rebills_future_computations_only() {
        // P1 slows down 2x at t=2: T0 (computing since t=1) keeps its old
        // rate and ends at 4; T1 starts at 4 and takes 6 seconds.
        let pf = platform();
        let tl = timeline(vec![(2.0, 0, PlatformEventKind::SetSpeedFactor(2.0))]);
        let trace = simulate_timeline(&pf, &bag_of_tasks(2), &tl, &mut AllToFirst).unwrap();
        assert_eq!(trace.record(TaskId(0)).compute_end, Time::new(4.0));
        let r1 = trace.record(TaskId(1));
        assert_eq!(r1.compute_end, Time::new(10.0));
        assert_eq!(r1.size_p, 2.0, "drift folds into the billed multiplier");
        assert!(validate(&trace, &pf).is_empty());
    }

    #[test]
    fn failure_events_are_observable() {
        struct Watcher {
            seen: Vec<&'static str>,
        }
        impl OnlineScheduler for Watcher {
            fn name(&self) -> String {
                "watcher".into()
            }
            fn on_event(&mut self, view: &SimView<'_>, e: SchedulerEvent) -> Decision {
                match e {
                    SchedulerEvent::SlaveFailed(j) => {
                        assert!(!view.slave_available(j));
                        self.seen.push("failed");
                    }
                    SchedulerEvent::SlaveRecovered(j) => {
                        assert!(view.slave_available(j));
                        self.seen.push("recovered");
                    }
                    _ => {}
                }
                // Only dispatch to available slaves.
                if view.link_idle() {
                    if let Some(&t) = view.pending_tasks().first() {
                        if let Some(slave) = view.available_slaves().next() {
                            return Decision::Send { task: t, slave };
                        }
                    }
                }
                Decision::Idle
            }
        }
        let pf = platform();
        let tl = timeline(vec![
            (0.5, 0, PlatformEventKind::Fail),
            (2.0, 0, PlatformEventKind::Recover),
        ]);
        let mut w = Watcher { seen: vec![] };
        let trace = simulate_timeline(&pf, &bag_of_tasks(2), &tl, &mut w).unwrap();
        assert_eq!(w.seen, vec!["failed", "recovered"]);
        // The watcher fell back to P2 (the only available slave) after the
        // failure; everything still validates.
        assert!(validate(&trace, &pf).is_empty());
    }

    #[test]
    fn horizon_hint_visible() {
        struct CheckHorizon;
        impl OnlineScheduler for CheckHorizon {
            fn name(&self) -> String {
                "check-horizon".into()
            }
            fn init(&mut self, view: &SimView<'_>) {
                assert_eq!(view.horizon(), Some(4));
            }
            fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
                if view.link_idle() {
                    if let Some(&t) = view.pending_tasks().first() {
                        return Decision::Send {
                            task: t,
                            slave: SlaveId(0),
                        };
                    }
                }
                Decision::Idle
            }
        }
        let pf = platform();
        let trace = simulate(
            &pf,
            &bag_of_tasks(4),
            &SimConfig::with_horizon(4),
            &mut CheckHorizon,
        )
        .unwrap();
        assert_eq!(trace.len(), 4);
    }
}
