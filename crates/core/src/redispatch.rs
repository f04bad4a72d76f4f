//! `Redispatch` — a fault-aware wrapper around any on-line scheduler.
//!
//! None of the paper's seven algorithms knows about failures: on a dynamic
//! platform they happily target down slaves, wasting the master's port on
//! transfers that are lost on arrival (SRPT even livelocks: a down slave
//! looks permanently *free*). The engine already re-releases lost tasks
//! into the pending queue, so the missing piece is purely spatial:
//!
//! * a [`Decision::Send`] aimed at a **down** slave is *redirected* to the
//!   available slave with the earliest nominal completion estimate (the
//!   List-Scheduling criterion), so re-queued lost tasks always make
//!   progress;
//! * when **no** slave is available the wrapper answers [`Decision::Idle`]
//!   — the recovery event will wake the scheduler again;
//! * everything else passes through untouched, and on a static platform
//!   the wrapper is the identity (every slave is always available), so
//!   wrapped and unwrapped runs are bit-identical.
//!
//! The inner policy keeps its own counters (ring cursors, plans); a
//! redirection may therefore violate the inner policy's invariants (e.g.
//! queue on a busy slave under SRPT). That is deliberate: the wrapper
//! trades policy purity for liveness, which is the fault-tolerance contract.
//!
//! The wrapper sits on the engine's zero-allocation hot path: it reads the
//! same borrowed [`SimView`] it hands to the inner scheduler (the engine's
//! incrementally maintained per-slave state — see `mss_sim`'s engine docs)
//! and redirects without allocating, so wrapping adds only an O(m) argmin
//! to the per-decision cost.

use mss_sim::{
    chunked_argmin, Decision, InfoTier, OnlineScheduler, SchedulerEvent, SimView, SlaveId,
};

/// Fault-aware redispatch wrapper (see the module docs).
#[derive(Clone, Debug)]
pub struct Redispatch<S> {
    inner: S,
}

impl<S: OnlineScheduler> Redispatch<S> {
    /// Wraps a scheduler.
    pub fn new(inner: S) -> Self {
        Redispatch { inner }
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl Redispatch<Box<dyn OnlineScheduler>> {
    /// Wraps a fresh instance of a registry algorithm.
    pub fn wrap(algorithm: crate::Algorithm) -> Self {
        Redispatch::new(algorithm.build())
    }
}

/// The available slave finishing a new nominal task the earliest, if any.
///
/// Answers through the decision kernel's exact chunked scan: the
/// completion estimate depends on the current time and link occupation
/// (not journal-stable per-slave state), so it takes the closure-key
/// path rather than the tournament tree. Down slaves key to `+∞`; an
/// unavailable winner means *every* slave keyed to `+∞`, i.e. blackout.
fn best_available(view: &SimView<'_>) -> Option<SlaveId> {
    let winner = SlaveId(chunked_argmin(view.num_slaves(), |j| {
        let j = SlaveId(j);
        if view.slave_available(j) {
            view.completion_estimate(j).as_f64()
        } else {
            f64::INFINITY
        }
    }));
    view.slave_available(winner).then_some(winner)
}

impl<S: OnlineScheduler> OnlineScheduler for Redispatch<S> {
    fn name(&self) -> String {
        format!("{}+RD", self.inner.name())
    }

    fn init(&mut self, view: &SimView<'_>) {
        self.inner.init(view);
    }

    fn on_event(&mut self, view: &SimView<'_>, event: SchedulerEvent) -> Decision {
        match self.inner.on_event(view, event) {
            Decision::Send { task, slave } if !view.slave_available(slave) => {
                match best_available(view) {
                    Some(slave) => Decision::Send { task, slave },
                    None => Decision::Idle, // blackout: wait for a recovery
                }
            }
            other => other,
        }
    }

    fn poll_driven(&self) -> bool {
        // Pure decision transformer: quiescent exactly when the inner
        // scheduler is.
        self.inner.poll_driven()
    }

    fn min_tier(&self) -> InfoTier {
        // The redirection criterion is the tier-dispatched completion
        // estimate, so the wrapper needs nothing beyond what the inner
        // scheduler needs.
        self.inner.min_tier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use mss_sim::{
        bag_of_tasks, simulate, simulate_in, validate, NoopProbe, OnlineScheduler, Platform,
        PlatformEvent, PlatformEventKind, SimConfig, SimError, SimWorkspace, TaskArrival, Time,
        Timeline, Trace,
    };

    /// A fresh-workspace, unprobed run over a dynamic platform.
    fn simulate_timeline(
        pf: &Platform,
        tasks: &[TaskArrival],
        cfg: &SimConfig,
        tl: &Timeline,
        scheduler: &mut dyn OnlineScheduler,
    ) -> Result<Trace, SimError> {
        simulate_in(
            &mut SimWorkspace::new(),
            pf,
            tasks,
            cfg,
            tl,
            scheduler,
            &mut NoopProbe,
        )
    }

    fn platform() -> Platform {
        Platform::from_vectors(&[0.4, 1.0, 0.2], &[2.0, 5.0, 7.0])
    }

    fn crash_recover(j: usize, fail: f64, recover: f64) -> Timeline {
        Timeline::new(vec![
            PlatformEvent {
                time: Time::new(fail),
                slave: SlaveId(j),
                kind: PlatformEventKind::Fail,
            },
            PlatformEvent {
                time: Time::new(recover),
                slave: SlaveId(j),
                kind: PlatformEventKind::Recover,
            },
        ])
    }

    #[test]
    fn identity_on_static_platforms() {
        let pf = platform();
        let tasks = bag_of_tasks(25);
        let cfg = SimConfig::with_horizon(tasks.len());
        for a in Algorithm::ALL {
            let plain = simulate(&pf, &tasks, &cfg, &mut a.build()).unwrap();
            let wrapped = simulate(&pf, &tasks, &cfg, &mut Redispatch::wrap(a)).unwrap();
            assert_eq!(plain, wrapped, "{a}: wrapper must be identity when static");
        }
    }

    #[test]
    fn all_seven_survive_a_crash() {
        // P1 (the fastest) dies at t=4 and returns at t=30: every wrapped
        // algorithm must still complete a valid schedule.
        let pf = platform();
        let tasks = bag_of_tasks(25);
        let cfg = SimConfig::with_horizon(tasks.len());
        let tl = crash_recover(0, 4.0, 30.0);
        for a in Algorithm::ALL {
            let trace = simulate_timeline(&pf, &tasks, &cfg, &tl, &mut Redispatch::wrap(a))
                .unwrap_or_else(|e| panic!("{a}+RD failed: {e}"));
            assert_eq!(trace.len(), tasks.len());
            let violations = validate(&trace, &pf);
            assert!(violations.is_empty(), "{a}+RD: {violations:?}");
        }
    }

    #[test]
    fn redirection_avoids_the_down_slave() {
        // One fast, one slow slave. SRPT alone would resend to the down
        // fast slave forever; wrapped, the send goes to the slow one.
        let pf = Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0]);
        let tl = crash_recover(0, 0.5, 1000.0); // effectively never returns
        let trace = simulate_timeline(
            &pf,
            &bag_of_tasks(3),
            &SimConfig::default(),
            &tl,
            &mut Redispatch::wrap(Algorithm::Srpt),
        )
        .unwrap();
        for r in trace.records() {
            assert_eq!(r.slave, SlaveId(1), "all work lands on the survivor");
        }
        assert!(validate(&trace, &pf).is_empty());
    }

    #[test]
    fn unwrapped_srpt_livelocks_where_wrapped_completes() {
        // A permanent crash drives plain SRPT into an endless resend loop
        // against the down-but-free fast slave; the step budget catches it.
        let pf = Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0]);
        let tl = Timeline::new(vec![PlatformEvent {
            time: Time::new(0.5),
            slave: SlaveId(0),
            kind: PlatformEventKind::Fail,
        }]);
        let cfg = SimConfig {
            max_steps: 20_000,
            ..SimConfig::default()
        };
        let err = simulate_timeline(
            &pf,
            &bag_of_tasks(3),
            &cfg,
            &tl,
            &mut Algorithm::Srpt.build(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            mss_sim::SimError::BudgetExhausted { .. } | mss_sim::SimError::Stalled { .. }
        ));
    }

    #[test]
    fn blackout_waits_for_recovery() {
        // Both slaves down from t=1 to t=8 (min_up unenforced here: raw
        // timeline). The wrapper idles through the blackout and finishes.
        let pf = Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0]);
        let tl = Timeline::new(
            [
                (1.0, 0, PlatformEventKind::Fail),
                (1.0, 1, PlatformEventKind::Fail),
                (8.0, 0, PlatformEventKind::Recover),
                (8.0, 1, PlatformEventKind::Recover),
            ]
            .into_iter()
            .map(|(t, j, kind)| PlatformEvent {
                time: Time::new(t),
                slave: SlaveId(j),
                kind,
            })
            .collect(),
        );
        let trace = simulate_timeline(
            &pf,
            &bag_of_tasks(4),
            &SimConfig::default(),
            &tl,
            &mut Redispatch::wrap(Algorithm::ListScheduling),
        )
        .unwrap();
        assert_eq!(trace.len(), 4);
        assert!(validate(&trace, &pf).is_empty());
        // Nothing was received during the blackout.
        for r in trace.records() {
            let mid = (r.send_end.as_f64() > 1.0 + 1e-9) && (r.send_end.as_f64() < 8.0 - 1e-9);
            assert!(!mid, "task delivered during blackout: {r:?}");
        }
    }
}
