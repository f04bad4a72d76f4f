//! The decision-kernel contract, property-tested end to end: every
//! kernel-backed heuristic produces **bit-identical traces** to its
//! linear-scan reference, across platform shapes, arrival patterns,
//! information tiers, fault/drift timelines, Redispatch wrapping, and
//! scheduler reuse across runs (the sweep regime).
//!
//! The tree is forced on with `with_tree_threshold(0)` so even tiny
//! random platforms exercise the incremental path rather than the
//! small-`m` scan fallback. List Scheduling's pruned walk has no such
//! override, so its pairs draw platforms of 64–160 slaves, at and above
//! the threshold, with rates on small discrete grids that force ties in
//! both the static `c + p` order and the completion keys.
//!
//! SLJF's heap-backed backward greedy is checked against a naive
//! per-step scan of all slaves, including equal-`p` ties.
//!
//! The round-robin family is also pinned to its historical semantics: a
//! test-local scheduler that re-sorts every slave by `(key, index)` on
//! each decision and sends to the first eligible one. Its pairs use the
//! same wide tie-forcing platforms, so the tree engages at the default
//! threshold, and a counter check shows the learned keys cost one tree
//! rebuild per run.

use mss_core::heuristics::planning::{backward_counts, sljf_dispatch, PlanScratch};
use mss_core::{
    simulate_in, ListScheduling, NoopProbe, Platform, PlatformEvent, PlatformEventKind, Redispatch,
    RoundRobin, RrOrder, SimConfig, SimWorkspace, Srpt, TaskArrival, Time, Timeline, Trace,
};
use mss_obs::kernel_stats::{kernel_stats_reset, kernel_stats_snapshot};
use mss_sim::{
    bag_of_tasks, chunked_argmin, scan_argmin, Decision, InfoTier, OnlineScheduler, SchedulerEvent,
    SimView, SlaveId, TREE_THRESHOLD,
};
use proptest::prelude::*;

fn arb_platform() -> impl Strategy<Value = Platform> {
    // 1..40 slaves spans both sides of every chunk boundary (8 lanes) and
    // forces non-trivial trees (padding leaves, single-leaf trees).
    proptest::collection::vec((0.01f64..2.0, 0.1f64..8.0), 1..40).prop_map(|specs| {
        let (c, p): (Vec<f64>, Vec<f64>) = specs.into_iter().unzip();
        Platform::from_vectors(&c, &p)
    })
}

fn arb_tasks() -> impl Strategy<Value = Vec<TaskArrival>> {
    proptest::collection::vec((0.0f64..25.0, 0.9f64..1.1, 0.9f64..1.1), 1..30).prop_map(|ts| {
        ts.into_iter()
            .map(|(r, sc, sp)| TaskArrival {
                release: Time::new(r),
                size_c: sc,
                size_p: sp,
            })
            .collect()
    })
}

fn arb_tier() -> impl Strategy<Value = InfoTier> {
    prop_oneof![
        Just(InfoTier::Clairvoyant),
        Just(InfoTier::SpeedOblivious),
        Just(InfoTier::NonClairvoyant),
    ]
}

/// One raw entry of a fault/drift plan; `kind_sel % 3` picks
/// crash-and-recover, link drift, or speed drift. The slave index is a
/// free selector, reduced modulo the platform size when the timeline is
/// materialized (the vendored proptest has no `prop_flat_map`, so the
/// plan cannot depend on the drawn platform).
type FaultPlanEntry = (u8, usize, f64, f64);

fn arb_fault_plan() -> impl Strategy<Value = Vec<FaultPlanEntry>> {
    proptest::collection::vec((0u8..3, 0usize..64, 0.0f64..30.0, 0.5f64..8.0), 0..4)
}

/// Materializes a plan against a concrete platform size. Crashes never
/// target slave 0 and always recover, so Redispatch-wrapped runs stay
/// live on any platform.
fn build_timeline(plan: &[FaultPlanEntry], m: usize) -> Timeline {
    let mut events = Vec::new();
    for &(kind_sel, slave_sel, t, x) in plan {
        match kind_sel % 3 {
            0 if m >= 2 => {
                let j = SlaveId(1 + slave_sel % (m - 1));
                events.push(PlatformEvent {
                    time: Time::new(t),
                    slave: j,
                    kind: PlatformEventKind::Fail,
                });
                events.push(PlatformEvent {
                    time: Time::new(t + x),
                    slave: j,
                    kind: PlatformEventKind::Recover,
                });
            }
            1 => events.push(PlatformEvent {
                time: Time::new(t),
                slave: SlaveId(slave_sel % m),
                kind: PlatformEventKind::SetLinkFactor(0.25 * x), // 0.125..2.0
            }),
            2 => events.push(PlatformEvent {
                time: Time::new(t),
                slave: SlaveId(slave_sel % m),
                kind: PlatformEventKind::SetSpeedFactor(0.25 * x),
            }),
            _ => {}
        }
    }
    Timeline::new(events)
}

/// The kernel-backed / scan-reference scheduler pairs under test. The
/// tree-indexable heuristics are forced onto the tree; LS's walk has its
/// own pairs below, and the remaining closure-key paths share
/// `chunked_argmin`, whose scan equivalence is proven separately.
fn kernel_scan_pairs() -> Vec<(Box<dyn OnlineScheduler>, Box<dyn OnlineScheduler>)> {
    vec![
        (
            Box::new(Srpt::new().with_tree_threshold(0)),
            Box::new(Srpt::scan_reference()),
        ),
        (
            Box::new(RoundRobin::rr().with_tree_threshold(0)),
            Box::new(RoundRobin::rr().with_scan_kernel()),
        ),
        (
            Box::new(RoundRobin::rrc().with_tree_threshold(0)),
            Box::new(RoundRobin::rrc().with_scan_kernel()),
        ),
        (
            Box::new(RoundRobin::rrp().with_tree_threshold(0)),
            Box::new(RoundRobin::rrp().with_scan_kernel()),
        ),
    ]
}

fn run(
    sched: &mut dyn OnlineScheduler,
    platform: &Platform,
    tasks: &[TaskArrival],
    timeline: &Timeline,
    tier: InfoTier,
) -> Result<Trace, mss_sim::SimError> {
    let cfg = SimConfig {
        horizon_hint: Some(tasks.len()),
        info: tier,
        ..SimConfig::default()
    };
    let mut ws = SimWorkspace::new();
    simulate_in(
        &mut ws,
        platform,
        tasks,
        &cfg,
        timeline,
        sched,
        &mut NoopProbe,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The chunked 8-lane argmin is the historical sequential scan, bit
    /// for bit, on arbitrary key arrays (duplicates, infinities, lane
    /// boundaries).
    #[test]
    fn chunked_argmin_is_scan_argmin(
        keys in proptest::collection::vec(
            prop_oneof![
                (0.0f64..100.0).prop_map(|k| (k * 4.0).floor()), // force duplicates
                Just(f64::INFINITY),
            ],
            0..70,
        ),
    ) {
        prop_assert_eq!(
            chunked_argmin(keys.len(), |j| keys[j]),
            scan_argmin(keys.len(), |j| keys[j]),
            "winner diverges on {keys:?}"
        );
    }

    /// Static platforms, every information tier: tree-backed decisions
    /// are trace-identical to the linear scan.
    #[test]
    fn kernel_matches_scan_static(
        platform in arb_platform(),
        tasks in arb_tasks(),
        tier in arb_tier(),
    ) {
        for (mut kernel, mut scan) in kernel_scan_pairs() {
            let a = run(kernel.as_mut(), &platform, &tasks, &Timeline::EMPTY, tier)
                .expect("kernel run completes");
            let b = run(scan.as_mut(), &platform, &tasks, &Timeline::EMPTY, tier)
                .expect("scan run completes");
            prop_assert_eq!(a, b, "{} diverged from its scan reference", kernel.name());
        }
    }

    /// Fault + drift timelines (Redispatch-wrapped for liveness): the
    /// kernel replays crash/recovery/drift invalidations from the touch
    /// journal and still matches the scan bit for bit.
    #[test]
    fn kernel_matches_scan_under_faults(
        platform in arb_platform(),
        plan in arb_fault_plan(),
        tasks in arb_tasks(),
        tier in arb_tier(),
    ) {
        let timeline = build_timeline(&plan, platform.num_slaves());
        for (kernel, scan) in kernel_scan_pairs() {
            let mut kernel = Redispatch::new(kernel);
            let mut scan = Redispatch::new(scan);
            let a = run(&mut kernel, &platform, &tasks, &timeline, tier)
                .expect("wrapped kernel run completes");
            let b = run(&mut scan, &platform, &tasks, &timeline, tier)
                .expect("wrapped scan run completes");
            prop_assert_eq!(a, b, "{} diverged under faults", kernel.name());
        }
    }

    /// The sweep regime: one scheduler instance reused across *different*
    /// instances must behave exactly like fresh instances each time — the
    /// journal's run nonce forces a rebuild at every workspace reset, so
    /// nothing leaks from the previous run's tree.
    #[test]
    fn scheduler_reuse_across_runs_is_fresh(
        platform_a in arb_platform(),
        platform_b in arb_platform(),
        tasks in arb_tasks(),
        tier in arb_tier(),
    ) {
        for (mut reused, _) in kernel_scan_pairs() {
            let first = run(reused.as_mut(), &platform_a, &tasks, &Timeline::EMPTY, tier)
                .expect("first run completes");
            let second = run(reused.as_mut(), &platform_b, &tasks, &Timeline::EMPTY, tier)
                .expect("reused run completes");
            let (mut fresh, _) = kernel_scan_pairs()
                .into_iter()
                .find(|(k, _)| k.name() == reused.name())
                .expect("same pair exists");
            let fresh_first = run(fresh.as_mut(), &platform_a, &tasks, &Timeline::EMPTY, tier)
                .expect("fresh first run completes");
            let fresh_second = run(fresh.as_mut(), &platform_b, &tasks, &Timeline::EMPTY, tier)
                .expect("fresh second run completes");
            prop_assert_eq!(first, fresh_first);
            prop_assert_eq!(second, fresh_second, "{} leaked state across runs", reused.name());
        }
    }
}

/// List Scheduling on the exact chunked scan: the historical decision
/// path, which the production walk must reproduce bit for bit.
struct ScanLs;

impl OnlineScheduler for ScanLs {
    fn name(&self) -> String {
        "LS".into()
    }

    fn on_event(&mut self, view: &SimView<'_>, _event: SchedulerEvent) -> Decision {
        if !view.link_idle() {
            return Decision::Idle;
        }
        let Some(&task) = view.pending_tasks().first() else {
            return Decision::Idle;
        };
        let slave = SlaveId(chunked_argmin(view.num_slaves(), |j| {
            view.completion_estimate(SlaveId(j)).as_f64()
        }));
        Decision::Send { task, slave }
    }

    fn poll_driven(&self) -> bool {
        true
    }

    fn min_tier(&self) -> InfoTier {
        InfoTier::NonClairvoyant
    }
}

/// Round-robin's historical Priority dispatch, written out naively: on
/// every decision sort all slaves by `partial_cmp` on the believed order
/// key, then by index, and send the oldest pending task to the first
/// slave with at most one outstanding task.
struct SortedRingRr(RrOrder);

impl SortedRingRr {
    fn key(&self, view: &SimView<'_>, j: SlaveId) -> f64 {
        let (c, p) = (view.believed_c(j), view.believed_p(j));
        match self.0 {
            RrOrder::SumCp => c + p,
            RrOrder::CommOnly => c,
            RrOrder::ProcOnly => p,
        }
    }
}

impl OnlineScheduler for SortedRingRr {
    fn name(&self) -> String {
        format!("sorted-ring {:?}", self.0)
    }

    fn on_event(&mut self, view: &SimView<'_>, _event: SchedulerEvent) -> Decision {
        let mut ring: Vec<SlaveId> = view.slave_ids().collect();
        ring.sort_by(|&a, &b| {
            let (ka, kb) = (self.key(view, a), self.key(view, b));
            ka.partial_cmp(&kb).unwrap().then(a.0.cmp(&b.0))
        });
        if !view.link_idle() {
            return Decision::Idle;
        }
        let Some(&task) = view.pending_tasks().first() else {
            return Decision::Idle;
        };
        match ring.into_iter().find(|&j| view.slave(j).outstanding <= 1) {
            Some(slave) => Decision::Send { task, slave },
            None => Decision::Idle,
        }
    }

    fn poll_driven(&self) -> bool {
        false // sees every callback, so elision is checked too
    }

    fn min_tier(&self) -> InfoTier {
        InfoTier::NonClairvoyant
    }
}

/// Production RR/RRC/RRP — default threshold and tree forced — each
/// paired with its sorted-ring reference.
fn rr_reference_pairs() -> Vec<(Box<dyn OnlineScheduler>, SortedRingRr)> {
    let mut pairs: Vec<(Box<dyn OnlineScheduler>, SortedRingRr)> = Vec::new();
    for (make, order) in [
        (RoundRobin::rr as fn() -> RoundRobin, RrOrder::SumCp),
        (RoundRobin::rrc, RrOrder::CommOnly),
        (RoundRobin::rrp, RrOrder::ProcOnly),
    ] {
        pairs.push((Box::new(make()), SortedRingRr(order)));
        pairs.push((Box::new(make().with_tree_threshold(0)), SortedRingRr(order)));
    }
    pairs
}

/// Rates of one slave on the chosen grid:
/// * 0 — the stream-wide benchmark's 97 × 89 grid (cheap links, slaves
///   that queue);
/// * 1 — coarse decimals, so `c + p` sums that coincide in exact
///   arithmetic round apart (`0.1 + 1.0` against `0.6 + 0.5`);
/// * 2 — dyadic rates, so every sum is exact and a busy slave's
///   `R_j + p_j` ties an idle slave's `L + c_j + p_j` at the bound itself.
fn grid_rates(grid: u8, a: u32, b: u32) -> (f64, f64) {
    match grid {
        0 => (0.001 + 1e-5 * a as f64, 2.0 + 0.03 * b as f64),
        1 => (0.1 * (1 + a % 8) as f64, 0.5 * (1 + b % 6) as f64),
        _ => (0.125 * (1 + a % 4) as f64, 0.25 * (1 + b % 8) as f64),
    }
}

/// Two platforms of the *same* size (64..160 slaves) on one grid: the
/// walk's per-run order must be re-derived from the new platform, not
/// keyed on `m`.
fn arb_wide_pair() -> impl Strategy<Value = (Platform, Platform)> {
    (
        0u8..3,
        proptest::collection::vec((0u32..97, 0u32..89, 0u32..97, 0u32..89), 64..160),
    )
        .prop_map(|(grid, specs)| {
            let (mut c1, mut p1, mut c2, mut p2) = (vec![], vec![], vec![], vec![]);
            for (a1, b1, a2, b2) in specs {
                let (c, p) = grid_rates(grid, a1, b1);
                c1.push(c);
                p1.push(p);
                let (c, p) = grid_rates(grid, a2, b2);
                c2.push(c);
                p2.push(p);
            }
            (
                Platform::from_vectors(&c1, &p1),
                Platform::from_vectors(&c2, &p2),
            )
        })
}

/// Bursts of tasks dense enough that slaves queue, so busy slaves'
/// ready times enter the completion keys.
fn arb_burst_tasks() -> impl Strategy<Value = Vec<TaskArrival>> {
    proptest::collection::vec((0.0f64..6.0, 0.9f64..1.1, 0.9f64..1.1), 1..300).prop_map(|ts| {
        ts.into_iter()
            .map(|(r, sc, sp)| TaskArrival {
                release: Time::new((r * 4.0).floor() / 4.0), // shared release instants
                size_c: sc,
                size_p: sp,
            })
            .collect()
    })
}

/// The historical backward greedy: per task, scan every slave for the
/// smallest `(total_cmp (count + 1)·p, index)`.
fn naive_backward_counts(p: &[f64], n: usize) -> Vec<usize> {
    let mut counts = vec![0usize; p.len()];
    for _ in 0..n {
        let j = (0..p.len())
            .min_by(|&a, &b| {
                let ka = (counts[a] + 1) as f64 * p[a];
                let kb = (counts[b] + 1) as f64 * p[b];
                ka.total_cmp(&kb).then(a.cmp(&b))
            })
            .expect("at least one slave");
        counts[j] += 1;
    }
    counts
}

/// The historical SLJF dispatch: slots `(i·p_j, j)` of the naive counts,
/// released in decreasing `i·p_j`, ties to the lower index.
fn naive_sljf_dispatch(p: &[f64], n: usize) -> Vec<SlaveId> {
    let mut slots = Vec::new();
    for (j, &cnt) in naive_backward_counts(p, n).iter().enumerate() {
        for i in 1..=cnt {
            slots.push((i as f64 * p[j], j));
        }
    }
    slots.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    slots.into_iter().map(|(_, j)| SlaveId(j)).collect()
}

fn arb_plan_platform() -> impl Strategy<Value = Platform> {
    proptest::collection::vec(
        prop_oneof![
            (1u32..5).prop_map(|k| 0.5 * k as f64), // equal-p ties
            0.1f64..8.0,
        ],
        1..40,
    )
    .prop_map(|p| Platform::from_vectors(&vec![1.0; p.len()], &p))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The walk engages (m at or above the threshold) and answers the
    /// scan's slave at every decision, at every tier, plain and wrapped.
    #[test]
    fn ls_walk_matches_scan_static(
        platforms in arb_wide_pair(),
        tasks in arb_burst_tasks(),
        tier in arb_tier(),
    ) {
        let platform = platforms.0;
        prop_assert!(platform.num_slaves() >= TREE_THRESHOLD);
        let a = run(&mut ListScheduling::new(), &platform, &tasks, &Timeline::EMPTY, tier)
            .expect("walk run completes");
        let b = run(&mut ScanLs, &platform, &tasks, &Timeline::EMPTY, tier)
            .expect("scan run completes");
        prop_assert_eq!(&a, &b, "LS walk diverged from the scan");
        let a = run(&mut Redispatch::new(ListScheduling::new()), &platform, &tasks,
            &Timeline::EMPTY, tier).expect("wrapped walk run completes");
        prop_assert_eq!(a, b, "wrapped LS walk diverged from the scan");
    }

    /// Fault + drift timelines, Redispatch-wrapped: drift is invisible to
    /// schedulers, so the per-run order stays valid through it.
    #[test]
    fn ls_walk_matches_scan_under_faults(
        platforms in arb_wide_pair(),
        plan in arb_fault_plan(),
        tasks in arb_burst_tasks(),
        tier in arb_tier(),
    ) {
        let platform = platforms.0;
        let timeline = build_timeline(&plan, platform.num_slaves());
        let a = run(&mut Redispatch::new(ListScheduling::new()), &platform, &tasks, &timeline,
            tier).expect("wrapped walk run completes");
        let b = run(&mut Redispatch::new(ScanLs), &platform, &tasks, &timeline, tier)
            .expect("wrapped scan run completes");
        prop_assert_eq!(a, b, "LS walk diverged under faults");
    }

    /// One LS instance reused across two different platforms of the same
    /// size matches the scan on both: the order follows the run nonce.
    #[test]
    fn ls_walk_reuse_across_same_size_platforms(
        platforms in arb_wide_pair(),
        tasks in arb_burst_tasks(),
        tier in arb_tier(),
    ) {
        let (platform_a, platform_b) = platforms;
        let mut reused = ListScheduling::new();
        for platform in [&platform_a, &platform_b, &platform_a] {
            let a = run(&mut reused, platform, &tasks, &Timeline::EMPTY, tier)
                .expect("reused walk run completes");
            let b = run(&mut ScanLs, platform, &tasks, &Timeline::EMPTY, tier)
                .expect("scan run completes");
            prop_assert_eq!(a, b, "reused LS walk leaked state across runs");
        }
    }

    /// RR/RRC/RRP on learned (or nominal) keys in the tree pick exactly
    /// the slave the re-sorted ring picks, at every tier.
    #[test]
    fn rr_matches_sorted_ring_static(
        platforms in arb_wide_pair(),
        tasks in arb_burst_tasks(),
        tier in arb_tier(),
    ) {
        let platform = platforms.0;
        prop_assert!(platform.num_slaves() >= TREE_THRESHOLD);
        for (mut rr, mut reference) in rr_reference_pairs() {
            let a = run(rr.as_mut(), &platform, &tasks, &Timeline::EMPTY, tier)
                .expect("kernel run completes");
            let b = run(&mut reference, &platform, &tasks, &Timeline::EMPTY, tier)
                .expect("sorted-ring run completes");
            prop_assert_eq!(a, b, "{} diverged from the sorted ring", rr.name());
        }
    }

    /// Fault + drift timelines, Redispatch-wrapped: crashes, recoveries
    /// and lost tasks reach the tree through the journal.
    #[test]
    fn rr_matches_sorted_ring_under_faults(
        platforms in arb_wide_pair(),
        plan in arb_fault_plan(),
        tasks in arb_burst_tasks(),
        tier in arb_tier(),
    ) {
        let platform = platforms.0;
        let timeline = build_timeline(&plan, platform.num_slaves());
        for (rr, reference) in rr_reference_pairs() {
            let name = rr.name();
            let a = run(&mut Redispatch::new(rr), &platform, &tasks, &timeline, tier)
                .expect("wrapped kernel run completes");
            let b = run(&mut Redispatch::new(reference), &platform, &tasks, &timeline, tier)
                .expect("wrapped sorted-ring run completes");
            prop_assert_eq!(a, b, "{} diverged from the sorted ring under faults", name);
        }
    }

    /// The heap-backed backward greedy equals the naive O(n·m) scan, and
    /// a scratch reused across platforms plans like a fresh one.
    #[test]
    fn sljf_heap_greedy_matches_naive(
        platform in arb_plan_platform(),
        other in arb_plan_platform(),
        n in 0usize..200,
    ) {
        let p: Vec<f64> = platform.slave_ids().map(|j| platform.p(j)).collect();
        prop_assert_eq!(backward_counts(&platform, n), naive_backward_counts(&p, n));
        prop_assert_eq!(sljf_dispatch(&platform, n), naive_sljf_dispatch(&p, n));

        let mut scratch = PlanScratch::default();
        let mut plan = Vec::new();
        for pf in [&other, &platform] {
            scratch.fill_nominal(pf);
            scratch.sljf_into(n, &mut plan);
        }
        prop_assert_eq!(plan, naive_sljf_dispatch(&p, n));
    }
}

/// Learned order keys are journal-stable, so a sub-clairvoyant RR run
/// syncs its tree incrementally after one rebuild at the start of the
/// run, however many estimates move.
#[test]
fn learned_rr_keys_rebuild_once_per_run() {
    let m = 100;
    let c: Vec<f64> = (0..m).map(|j| 0.01 + 0.002 * (j % 13) as f64).collect();
    let p: Vec<f64> = (0..m).map(|j| 1.0 + 0.5 * (j % 11) as f64).collect();
    let platform = Platform::from_vectors(&c, &p);
    let tasks = bag_of_tasks(1000);
    for tier in [InfoTier::NonClairvoyant, InfoTier::SpeedOblivious] {
        for mut rr in [RoundRobin::rr(), RoundRobin::rrc(), RoundRobin::rrp()] {
            kernel_stats_reset();
            run(&mut rr, &platform, &tasks, &Timeline::EMPTY, tier).expect("run completes");
            let stats = kernel_stats_snapshot();
            assert_eq!(stats.rebuilds, 1, "{} at {tier:?}: {stats:?}", rr.name());
            assert!(
                stats.queries >= 1000 && stats.scans == 0,
                "{} at {tier:?} must answer every send from the tree: {stats:?}",
                rr.name()
            );
        }
    }
}
