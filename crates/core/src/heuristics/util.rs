//! Small shared helpers for heuristic implementations.

use mss_sim::SimView;

/// The oldest pending task (FIFO by release then id), if any.
pub(crate) fn oldest_pending(view: &SimView<'_>) -> Option<mss_sim::TaskId> {
    view.pending_tasks().first().copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_sim::{
        bag_of_tasks, chunked_argmin, simulate, Decision, OnlineScheduler, Platform,
        SchedulerEvent, SimConfig, SimView, SlaveId,
    };

    /// The slave minimizing `key`, ties to the lowest index.
    fn argmin_slave<F: FnMut(SlaveId) -> f64>(view: &SimView<'_>, mut key: F) -> SlaveId {
        SlaveId(chunked_argmin(view.num_slaves(), |j| key(SlaveId(j))))
    }

    /// Exercises the helpers from inside a scheduler callback.
    struct HelperProbe;

    impl OnlineScheduler for HelperProbe {
        fn name(&self) -> String {
            "probe".into()
        }
        fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
            let fastest = argmin_slave(view, |j| view.believed_p(j));
            assert_eq!(fastest, SlaveId(0), "P1 has the smallest p");
            let cheapest = argmin_slave(view, |j| view.believed_c(j));
            assert_eq!(cheapest, SlaveId(1), "P2 has the smallest c");
            match (view.link_idle(), oldest_pending(view)) {
                (true, Some(task)) => Decision::Send {
                    task,
                    slave: fastest,
                },
                _ => Decision::Idle,
            }
        }
    }

    #[test]
    fn helpers_pick_expected_slaves() {
        let pf = Platform::from_vectors(&[2.0, 1.0], &[3.0, 7.0]);
        let trace = simulate(
            &pf,
            &bag_of_tasks(2),
            &SimConfig::default(),
            &mut HelperProbe,
        )
        .expect("probe completes");
        assert_eq!(trace.counts_per_slave(2), vec![2, 0]);
    }
}
