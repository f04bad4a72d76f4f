//! Instrumentation-transparency property tests: probes are observers only.
//!
//! ARCHITECTURE.md contract #11 in executable form — for arbitrary
//! instances (random platforms, task streams, fault/drift timelines,
//! every information tier) and an arbitrary well-formed scheduler, the
//! engine's result is *bit-identical* whether it runs uninstrumented,
//! with the explicit [`NoopProbe`], or with the heavyweight
//! `(RunCounters, TraceRecorder)` probe pair — including error cases
//! (step-budget aborts), which must abort at the identical step with the
//! identical message.

use mss_sim::{
    simulate_in, simulate_objectives_in, Decision, InfoTier, NoopProbe, OnlineScheduler, Platform,
    PlatformEvent, PlatformEventKind, RunCounters, SchedulerEvent, SimConfig, SimView,
    SimWorkspace, SlaveId, TaskArrival, Time, Timeline, TraceRecorder,
};
use proptest::prelude::*;

/// Tape-driven but always-valid scheduler (see `engine_properties.rs`).
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

fn arb_info() -> impl Strategy<Value = InfoTier> {
    prop_oneof![
        Just(InfoTier::Clairvoyant),
        Just(InfoTier::SpeedOblivious),
        Just(InfoTier::NonClairvoyant),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Uninstrumented, `NoopProbe`-instrumented, and fully instrumented
    /// runs of the identical scenario agree bit for bit — successes *and*
    /// errors — across fault/drift timelines and information tiers.
    #[test]
    fn probes_are_observationally_pure(
        platform in arb_platform(),
        tasks in arb_tasks(),
        tape in proptest::collection::vec(0u32..1000, 8..64),
        info in arb_info(),
        faults in proptest::collection::vec(
            (0usize..8, 0.0f64..25.0, 0.1f64..10.0, 0.25f64..3.0), 0..5),
    ) {
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
        // Tight budget: tape schedulers may gamble on down slaves forever,
        // so a fair share of cases exercises the *error* path — which must
        // be transparent too.
        let cfg = SimConfig { max_steps: 100_000, info, ..SimConfig::default() };

        let mut ws = SimWorkspace::new();
        let plain = simulate_in(
            &mut ws, &platform, &tasks, &cfg, &timeline,
            &mut TapeScheduler::new(tape.clone()), &mut NoopProbe);
        let mut probe = (RunCounters::new(), TraceRecorder::new());
        let heavy = simulate_in(
            &mut ws, &platform, &tasks, &cfg, &timeline,
            &mut TapeScheduler::new(tape.clone()), &mut probe);
        // The objectives-only run, probed, must see the same run too.
        let mut objective_counters = RunCounters::new();
        let objectives = simulate_objectives_in(
            &mut ws, &platform, &tasks, &cfg, &timeline,
            &mut TapeScheduler::new(tape), &mut objective_counters);

        prop_assert_eq!(&plain, &heavy);
        prop_assert_eq!(&probe.0, &objective_counters);
        match (&plain, &objectives) {
            (Ok(trace), Ok(run)) => {
                prop_assert_eq!(run.objectives.makespan.to_bits(), trace.makespan().to_bits());
                prop_assert_eq!(run.objectives.max_flow.to_bits(), trace.max_flow().to_bits());
                prop_assert_eq!(run.objectives.sum_flow.to_bits(), trace.sum_flow().to_bits());
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "trace run {a:?} vs objectives run {b:?}"),
        }

        // The heavy probe really observed the run it did not perturb.
        let (counters, recorder) = probe;
        if let Ok(trace) = &plain {
            prop_assert_eq!(counters.computes_completed as usize, trace.len());
            prop_assert_eq!(
                counters.sends_started,
                counters.sends_delivered + counters.sends_lost
            );
            let completed_computes = recorder
                .spans
                .iter()
                .filter(|s| s.kind == mss_sim::SpanKind::Compute && s.completed)
                .count();
            prop_assert_eq!(completed_computes, trace.len());
            prop_assert_eq!(counters.budget_aborts, 0);
        }
    }
}
