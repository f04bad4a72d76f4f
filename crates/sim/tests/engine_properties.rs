//! Engine-level property tests: whatever a (well-formed) scheduler does,
//! the resulting trace satisfies every model invariant, and the objective
//! folds agree with a straightforward recomputation.

use mss_sim::{
    bag_of_tasks, simulate, simulate_in, validate, Decision, NoopProbe, OnlineScheduler, Platform,
    PlatformEvent, PlatformEventKind, SchedulerEvent, SimConfig, SimView, SimWorkspace, SlaveId,
    TaskArrival, Time, Timeline,
};
use proptest::prelude::*;

/// A scheduler whose choices are driven by a pre-drawn pseudo-random tape,
/// but which always makes *valid* decisions (send some pending task to some
/// existing slave whenever the port is idle, sometimes idling or napping).
struct TapeScheduler {
    tape: Vec<u32>,
    pos: usize,
    naps: usize,
}

impl TapeScheduler {
    fn new(tape: Vec<u32>) -> Self {
        TapeScheduler {
            tape,
            pos: 0,
            naps: 0,
        }
    }

    fn draw(&mut self) -> u32 {
        let v = self.tape[self.pos % self.tape.len()];
        self.pos += 1;
        v
    }
}

impl OnlineScheduler for TapeScheduler {
    fn name(&self) -> String {
        "tape".into()
    }

    fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
        if !view.link_idle() || view.pending_tasks().is_empty() {
            return Decision::Idle;
        }
        let choice = self.draw();
        // Nap occasionally (at most a few times, to guarantee progress).
        if choice.is_multiple_of(7) && self.naps < 3 {
            self.naps += 1;
            return Decision::WakeAt(view.now() + 0.25);
        }
        let task = view.pending_tasks()[choice as usize % view.pending_tasks().len()];
        let slave = SlaveId(self.draw() as usize % view.num_slaves());
        Decision::Send { task, slave }
    }
}

fn arb_platform() -> impl Strategy<Value = Platform> {
    proptest::collection::vec((0.01f64..2.0, 0.1f64..8.0), 1..6).prop_map(|specs| {
        let (c, p): (Vec<f64>, Vec<f64>) = specs.into_iter().unzip();
        Platform::from_vectors(&c, &p)
    })
}

fn arb_tasks() -> impl Strategy<Value = Vec<TaskArrival>> {
    proptest::collection::vec((0.0f64..20.0, 0.9f64..1.1, 0.9f64..1.1), 1..25).prop_map(|ts| {
        ts.into_iter()
            .map(|(r, sc, sp)| TaskArrival {
                release: Time::new(r),
                size_c: sc,
                size_p: sp,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_schedulers_yield_valid_traces(
        platform in arb_platform(),
        tasks in arb_tasks(),
        tape in proptest::collection::vec(0u32..1000, 8..64),
    ) {
        let mut sched = TapeScheduler::new(tape);
        let trace = simulate(&platform, &tasks, &SimConfig::default(), &mut sched)
            .expect("tape scheduler always progresses");
        let violations = validate(&trace, &platform);
        prop_assert!(violations.is_empty(), "violations: {violations:?}");
        prop_assert_eq!(trace.len(), tasks.len());
    }

    #[test]
    fn objectives_match_recomputation(
        platform in arb_platform(),
        tasks in arb_tasks(),
        tape in proptest::collection::vec(0u32..1000, 8..64),
    ) {
        let mut sched = TapeScheduler::new(tape);
        let trace = simulate(&platform, &tasks, &SimConfig::default(), &mut sched).unwrap();

        let mut makespan: f64 = 0.0;
        let mut max_flow: f64 = 0.0;
        let mut sum_flow = 0.0;
        for r in trace.records() {
            makespan = makespan.max(r.compute_end.as_f64());
            max_flow = max_flow.max(r.compute_end - r.release);
            sum_flow += r.compute_end - r.release;
        }
        prop_assert!((trace.makespan() - makespan).abs() < 1e-9);
        prop_assert!((trace.max_flow() - max_flow).abs() < 1e-9);
        prop_assert!((trace.sum_flow() - sum_flow).abs() < 1e-6);
    }

    #[test]
    fn flow_lower_bound_per_task(
        platform in arb_platform(),
        tasks in arb_tasks(),
        tape in proptest::collection::vec(0u32..1000, 8..64),
    ) {
        // Each task's flow is at least c_j·size_c + p_j·size_p on its slave.
        let mut sched = TapeScheduler::new(tape);
        let trace = simulate(&platform, &tasks, &SimConfig::default(), &mut sched).unwrap();
        for r in trace.records() {
            let lb = platform.c(r.slave) * r.size_c + platform.p(r.slave) * r.size_p;
            prop_assert!(r.flow() >= lb - 1e-9,
                "task {:?} flow {} below lower bound {}", r.task, r.flow(), lb);
        }
    }

    #[test]
    fn bag_of_tasks_all_released_at_zero(n in 1usize..50) {
        let tasks = bag_of_tasks(n);
        prop_assert_eq!(tasks.len(), n);
        prop_assert!(tasks.iter().all(|t| t.release == Time::ZERO));
    }

    /// The incremental slave-view cache and the workspace reuse are
    /// observationally transparent under arbitrary event sequences.
    ///
    /// Two layers of checking: (1) this is a debug build, so the engine's
    /// internal oracle re-derives every cached `SlaveView` from scratch
    /// before each scheduler callback and asserts *bitwise* equality with
    /// the incrementally maintained one — any divergence panics the run;
    /// (2) the same scenario simulated on a fresh workspace, on a reused
    /// (dirty) workspace, and through the plain allocating entry point must
    /// produce identical results, including identical errors.
    #[test]
    fn incremental_views_and_workspace_reuse_are_exact(
        platform in arb_platform(),
        tasks in arb_tasks(),
        tape in proptest::collection::vec(0u32..1000, 8..64),
        faults in proptest::collection::vec(
            (0usize..8, 0.0f64..25.0, 0.1f64..10.0, 0.25f64..3.0), 0..5),
    ) {
        // Crash/recover pairs plus drift on pseudo-random slaves (indices
        // past the platform are deliberately kept: the engine must ignore
        // them). Tape schedulers may gamble on down slaves forever, so a
        // tight step budget turns livelocks into a (deterministic) error.
        let mut events = Vec::new();
        for &(j, at, up_after, factor) in &faults {
            events.push(PlatformEvent {
                time: Time::new(at),
                slave: SlaveId(j),
                kind: PlatformEventKind::Fail,
            });
            events.push(PlatformEvent {
                time: Time::new(at + up_after),
                slave: SlaveId(j),
                kind: PlatformEventKind::Recover,
            });
            events.push(PlatformEvent {
                time: Time::new(at / 2.0),
                slave: SlaveId(j),
                kind: PlatformEventKind::SetSpeedFactor(factor),
            });
        }
        let timeline = Timeline::new(events);
        let cfg = SimConfig { max_steps: 100_000, ..SimConfig::default() };

        let mut ws = SimWorkspace::new();
        let fresh_ws = simulate_in(
            &mut ws, &platform, &tasks, &cfg, &timeline,
            &mut TapeScheduler::new(tape.clone()), &mut NoopProbe);
        let reused_ws = simulate_in(
            &mut ws, &platform, &tasks, &cfg, &timeline,
            &mut TapeScheduler::new(tape.clone()), &mut NoopProbe);
        let plain = simulate_in(
            &mut SimWorkspace::new(), &platform, &tasks, &cfg, &timeline,
            &mut TapeScheduler::new(tape), &mut NoopProbe);

        prop_assert_eq!(&fresh_ws, &reused_ws);
        prop_assert_eq!(&fresh_ws, &plain);
        if let Ok(trace) = fresh_ws {
            let violations = validate(&trace, &platform);
            prop_assert!(violations.is_empty(), "violations: {violations:?}");
            prop_assert_eq!(trace.len(), tasks.len());
        }
    }
}
