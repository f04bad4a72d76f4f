//! Steady-state allocation contract of the production List Scheduling,
//! SLJF and Round-Robin decision paths at kernel width (m at the walk's
//! and the tree's threshold).
//!
//! A counting global allocator measures heap allocations during a warm
//! rerun: LS's pruned walk re-sorts its order in place at the new run,
//! and SLJF replans through its `PlanScratch` — heap, counts, slots and
//! the plan vector all keep their capacity — before list-scheduling the
//! tail past its window. RR/RRC/RRP run at `NonClairvoyant`, where every
//! observation moves a learned order key and the tree replays it in
//! place. The only permitted allocation is the returned `Trace`'s record
//! vector.
//!
//! This file deliberately contains a single `#[test]` so no sibling test
//! thread can allocate concurrently and pollute the counter.

use mss_core::{ListScheduling, OnlineScheduler, PlanKind, Planned, RoundRobin};
use mss_sim::{
    bag_of_tasks, simulate_in, InfoTier, NoopProbe, Platform, SimConfig, SimWorkspace, Timeline,
    TREE_THRESHOLD,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Forwards to the system allocator, counting every allocation.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn warm_ls_and_sljf_reruns_allocate_nothing() {
    let m = TREE_THRESHOLD + 16;
    let c: Vec<f64> = (0..m).map(|j| 0.05 + 0.01 * (j % 7) as f64).collect();
    // Equal computation rates recur every five slaves: heap ties.
    let p: Vec<f64> = (0..m).map(|j| 1.0 + 0.25 * (j % 5) as f64).collect();
    let platform = Platform::from_vectors(&c, &p);
    let n = 800;
    let tasks = bag_of_tasks(n);
    let clairvoyant = SimConfig::with_horizon(n);
    let learning = SimConfig {
        info: InfoTier::NonClairvoyant,
        ..SimConfig::with_horizon(n)
    };
    let mut ws = SimWorkspace::new();

    let schedulers: Vec<(Box<dyn OnlineScheduler>, &SimConfig)> = vec![
        (Box::new(ListScheduling::new()), &clairvoyant),
        // Half-window plan: the replan covers 400 tasks (a slot sort past
        // any small-sort stack buffer) and the walk-backed LS fallback the
        // rest.
        (
            Box::new(Planned::new(PlanKind::Sljf, Some(n / 2))),
            &clairvoyant,
        ),
        (Box::new(RoundRobin::rr()), &learning),
        (Box::new(RoundRobin::rrc()), &learning),
        (Box::new(RoundRobin::rrp()), &learning),
    ];
    let tl = Timeline::EMPTY;
    for (mut sched, cfg) in schedulers {
        let warm = simulate_in(
            &mut ws,
            &platform,
            &tasks,
            cfg,
            &tl,
            sched.as_mut(),
            &mut NoopProbe,
        )
        .unwrap();
        assert_eq!(warm.len(), n);
        let before = ALLOCS.load(Ordering::SeqCst);
        let trace = simulate_in(
            &mut ws,
            &platform,
            &tasks,
            cfg,
            &tl,
            sched.as_mut(),
            &mut NoopProbe,
        )
        .unwrap();
        let during = ALLOCS.load(Ordering::SeqCst) - before;
        assert_eq!(
            trace,
            warm,
            "warm {} rerun must be bit-identical",
            sched.name()
        );
        assert!(
            during <= 1,
            "expected a warm {} rerun to allocate only its trace, counted {during} \
             allocations over {} events",
            sched.name(),
            3 * n
        );
    }
}
