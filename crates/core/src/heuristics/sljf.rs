//! SLJF and SLJFWC — the paper's two plan-ahead heuristics (§4.1, 6–7).
//!
//! Both compute, before sending anything, the assignment of a whole window
//! of tasks *starting from the last one* (see
//! [`planning`](crate::heuristics::planning) for the constructions), then
//! dispatch arriving tasks to the planned slots in order. Tasks beyond the
//! planned window fall back to List Scheduling — exactly the paper's on-line
//! adaptation: *"Once the last assignment is done, we continue to send the
//! remaining tasks, each task being sent to the processor that would finish
//! it the earliest."*
//!
//! The planning window is, in order of preference: an explicit window given
//! at construction, the engine's horizon hint (the paper tells these
//! algorithms the total number of tasks), or the number of tasks released by
//! the time of the first decision (which covers the bag-of-tasks regime).

use crate::heuristics::list_scheduling::ListScheduling;
use crate::heuristics::planning::PlanScratch;
use crate::heuristics::util::oldest_pending;
use mss_sim::{Decision, InfoTier, OnlineScheduler, SchedulerEvent, SimView, SlaveId};

/// Which backward construction the scheduler plans with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// Scheduling the Last Job First (ignores communications; designed for
    /// communication-homogeneous platforms).
    Sljf,
    /// Scheduling the Last Job First *With Communication* (time-reversed
    /// collection greedy; designed for computation-homogeneous platforms).
    Sljfwc,
}

impl PlanKind {
    fn plan_into(self, scratch: &mut PlanScratch, n: usize, out: &mut Vec<SlaveId>) {
        match self {
            PlanKind::Sljf => scratch.sljf_into(n, out),
            PlanKind::Sljfwc => scratch.sljfwc_into(n, out),
        }
    }
}

/// A plan-ahead scheduler (SLJF or SLJFWC by [`PlanKind`]).
///
/// Owns its [`PlanScratch`] and a reusable plan vector: replanning (a new
/// run in a sweep, or after `init`) rewrites the same buffers instead of
/// allocating per plan, so the scheduler's steady state is allocation-free
/// once every buffer has reached its high-water capacity.
#[derive(Clone, Debug)]
pub struct Planned {
    kind: PlanKind,
    window: Option<usize>,
    plan: Vec<SlaveId>,
    planned: bool,
    next: usize,
    scratch: PlanScratch,
    fallback: ListScheduling,
}

impl Planned {
    /// SLJF with the window taken from the horizon hint / first release batch.
    pub fn sljf() -> Self {
        Planned::new(PlanKind::Sljf, None)
    }

    /// SLJFWC with the window taken from the horizon hint / first release batch.
    pub fn sljfwc() -> Self {
        Planned::new(PlanKind::Sljfwc, None)
    }

    /// Fully parameterized constructor; `window` forces the plan size.
    pub fn new(kind: PlanKind, window: Option<usize>) -> Self {
        Planned {
            kind,
            window,
            plan: Vec::new(),
            planned: false,
            next: 0,
            scratch: PlanScratch::default(),
            fallback: ListScheduling::new(),
        }
    }

    fn ensure_plan(&mut self, view: &SimView<'_>) {
        if !self.planned {
            let n = self
                .window
                .or(view.horizon())
                .unwrap_or(view.released_count())
                .max(1);
            match view.info_tier() {
                InfoTier::Clairvoyant => self.scratch.fill_nominal(view.platform()),
                // Below clairvoyance the plan is built over the *believed*
                // platform (learned per-slave rates; the neutral prior
                // before any observation spreads the plan evenly).
                _ => self.scratch.fill_rates(
                    view.slave_ids()
                        .map(|j| (view.believed_c(j), view.believed_p(j))),
                ),
            }
            self.kind.plan_into(&mut self.scratch, n, &mut self.plan);
            self.planned = true;
        }
    }

    /// The planned dispatch order (for tests and the lab); `None` before the
    /// first decision.
    pub fn plan(&self) -> Option<&[SlaveId]> {
        self.planned.then_some(self.plan.as_slice())
    }
}

impl OnlineScheduler for Planned {
    fn name(&self) -> String {
        match self.kind {
            PlanKind::Sljf => "SLJF".into(),
            PlanKind::Sljfwc => "SLJFWC".into(),
        }
    }

    fn init(&mut self, _view: &SimView<'_>) {
        // Buffers keep their capacity; only the logical plan is dropped.
        self.planned = false;
        self.next = 0;
    }

    fn on_event(&mut self, view: &SimView<'_>, event: SchedulerEvent) -> Decision {
        if !view.link_idle() {
            return Decision::Idle;
        }
        let Some(task) = oldest_pending(view) else {
            return Decision::Idle;
        };
        self.ensure_plan(view);
        if self.next < self.plan.len() {
            let slave = self.plan[self.next];
            self.next += 1;
            Decision::Send { task, slave }
        } else {
            // Window exhausted: list-scheduling tail, as in the paper.
            self.fallback.on_event(view, event)
        }
    }

    fn poll_driven(&self) -> bool {
        // The plan is only (lazily) built, and `next` only advances, after
        // the idle-port and pending-task guards pass.
        true
    }

    fn min_tier(&self) -> InfoTier {
        // Stays live at every tier: without the horizon hint
        // (NonClairvoyant) the window falls back to the released count,
        // and without nominal values the plan is built over learned rates.
        InfoTier::NonClairvoyant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_sim::{bag_of_tasks, simulate, validate, Platform, SimConfig, TaskArrival, TaskId};

    #[test]
    fn sljf_achieves_theorem1_optimum() {
        // Theorem 1 platform (c = 1, p = (3,7)) with three tasks at t = 0:
        // the proof's optimal schedule sends T0 to P2 then two tasks to P1,
        // for makespan 8. SLJF must reproduce it.
        let pf = Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0]);
        let trace = simulate(
            &pf,
            &bag_of_tasks(3),
            &SimConfig::default(),
            &mut Planned::sljf(),
        )
        .unwrap();
        assert!(validate(&trace, &pf).is_empty());
        assert!(
            (trace.makespan() - 8.0).abs() < 1e-9,
            "makespan {}",
            trace.makespan()
        );
        assert_eq!(trace.record(TaskId(0)).slave, mss_sim::SlaveId(1));
    }

    #[test]
    fn window_from_horizon_hint() {
        let pf = Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0]);
        // Tasks arrive over time; the horizon hint lets SLJF plan all four.
        let tasks = [
            TaskArrival::at(0.0),
            TaskArrival::at(0.5),
            TaskArrival::at(1.0),
            TaskArrival::at(1.5),
        ];
        let mut sched = Planned::sljf();
        let trace = simulate(&pf, &tasks, &SimConfig::with_horizon(4), &mut sched).unwrap();
        assert_eq!(sched.plan().unwrap().len(), 4);
        assert!(validate(&trace, &pf).is_empty());
    }

    #[test]
    fn tail_falls_back_to_list_scheduling() {
        // Explicit window of 1 on a 5-task instance: the remaining 4 tasks
        // are list-scheduled and the run still completes and validates.
        let pf = Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0]);
        let mut sched = Planned::new(PlanKind::Sljf, Some(1));
        let trace = simulate(&pf, &bag_of_tasks(5), &SimConfig::default(), &mut sched).unwrap();
        assert!(validate(&trace, &pf).is_empty());
        assert_eq!(trace.len(), 5);
    }

    #[test]
    fn sljfwc_handles_heterogeneous_links() {
        let pf = Platform::from_vectors(&[0.1, 2.0], &[1.0, 1.0]);
        let trace = simulate(
            &pf,
            &bag_of_tasks(20),
            &SimConfig::default(),
            &mut Planned::sljfwc(),
        )
        .unwrap();
        assert!(validate(&trace, &pf).is_empty());
        let counts = trace.counts_per_slave(2);
        assert!(
            counts[0] > counts[1],
            "cheap link should dominate: {counts:?}"
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let pf = Platform::from_vectors(&[0.3, 0.7, 1.0], &[2.0, 4.0, 8.0]);
        let tasks = bag_of_tasks(12);
        // The closure takes `&mut Planned` rather than `Planned` by value:
        // the by-value form is miscompiled at opt-level >= 2 on rustc 1.95.0
        // (the parameter's plan `Vec` is freed twice when the closure is
        // inlined at two call sites), SIGABRTing the release test run. See
        // docs/repro/closure_byvalue_double_free.rs for the pinned
        // dependency-free reproducer.
        let run = |s: &mut Planned| simulate(&pf, &tasks, &SimConfig::default(), s).unwrap();
        assert_eq!(run(&mut Planned::sljf()), run(&mut Planned::sljf()));
        assert_eq!(run(&mut Planned::sljfwc()), run(&mut Planned::sljfwc()));
    }
}
