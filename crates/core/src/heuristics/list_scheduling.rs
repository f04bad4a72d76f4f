//! LS — List Scheduling (§4.1, algorithm 2), "the static version of SRPT".
//!
//! > "It uses its knowledge of the system and sends a task as soon as
//! > possible to the slave that would finish it first, according to the
//! > current load estimation (the number of tasks already waiting for
//! > execution on the slave)."
//!
//! LS is eager: whenever the port is idle and a task is pending, it sends it
//! to the slave minimizing the estimated completion time
//! `max(link_free + c_j, ready_j) + p_j`. On fully homogeneous platforms
//! this is the provably optimal FIFO strategy of the paper's introduction
//! (verified against the exhaustive optimum in `mss-opt`'s tests).
//!
//! # Complexity
//!
//! At [`InfoTier::Clairvoyant`] on platforms of at least
//! [`mss_sim::TREE_THRESHOLD`] slaves a decision is a pruned walk
//! ([`CompletionWalk`]): one O(m log m) sort by static `c_j + p_j` per
//! run, then exact estimates only for the slaves whose lower bound can
//! still beat the best — about 141 of 10,000 slaves per decision in the
//! `mss-sim` `large_m` test. Elsewhere it is the O(m) chunked scan.
//! Both answer the historical scan's slave, bit for bit.

use crate::heuristics::util::oldest_pending;
use mss_sim::{
    CompletionWalk, Decision, InfoTier, OnlineScheduler, SchedulerEvent, SimView, SlaveId,
};

/// The List Scheduling heuristic. Observationally stateless — decisions
/// depend only on the current view — but it carries a [`CompletionWalk`]
/// whose per-run slave order makes large-`m` decisions sublinear.
///
/// Tier-portable: [`SimView::completion_estimate`] already dispatches on
/// the view's information tier, so below `Clairvoyant` LS minimizes the
/// same formula over learned per-slave rates instead of nominal values.
#[derive(Clone, Debug, Default)]
pub struct ListScheduling {
    walk: CompletionWalk,
}

impl ListScheduling {
    /// A fresh List Scheduling instance.
    pub fn new() -> Self {
        ListScheduling::default()
    }
}

impl OnlineScheduler for ListScheduling {
    fn name(&self) -> String {
        "LS".into()
    }

    fn on_event(&mut self, view: &SimView<'_>, _event: SchedulerEvent) -> Decision {
        if !view.link_idle() {
            return Decision::Idle;
        }
        let Some(task) = oldest_pending(view) else {
            return Decision::Idle;
        };
        let slave = self
            .walk
            .argmin(view, |j| view.completion_estimate(SlaveId(j)).as_f64());
        Decision::Send { task, slave }
    }

    fn poll_driven(&self) -> bool {
        true // acts only on (idle port, pending task); the walk's order
             // is a pure function of the run's platform
    }

    fn min_tier(&self) -> InfoTier {
        InfoTier::NonClairvoyant // the tier-dispatched estimate suffices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_sim::{bag_of_tasks, simulate, validate, Platform, SimConfig, TaskId};

    #[test]
    fn overlaps_communication_with_computation() {
        // One slave, c=1, p=3: LS pipelines sends; makespan = c + n·p.
        let pf = Platform::from_vectors(&[1.0], &[3.0]);
        let trace = simulate(
            &pf,
            &bag_of_tasks(4),
            &SimConfig::default(),
            &mut ListScheduling::new(),
        )
        .unwrap();
        assert!((trace.makespan() - (1.0 + 4.0 * 3.0)).abs() < 1e-9);
        assert!(validate(&trace, &pf).is_empty());
    }

    #[test]
    fn prefers_earliest_finisher() {
        // p = (3, 7), c = 1, two tasks: both go to P1
        // (finish estimates: P1 then P1-queued beats P2).
        let pf = Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0]);
        let trace = simulate(
            &pf,
            &bag_of_tasks(2),
            &SimConfig::default(),
            &mut ListScheduling::new(),
        )
        .unwrap();
        assert_eq!(trace.record(TaskId(0)).slave, SlaveId(0));
        // Task 1: est P1 = max(2·c, c+p1)+p1 = 4+3 = 7; est P2 = 2c+p2 = 9.
        assert_eq!(trace.record(TaskId(1)).slave, SlaveId(0));
        assert!((trace.makespan() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn accounts_for_communication_costs() {
        // Same speeds, very different links: LS must prefer the cheap link.
        let pf = Platform::from_vectors(&[0.1, 5.0], &[1.0, 1.0]);
        let trace = simulate(
            &pf,
            &bag_of_tasks(3),
            &SimConfig::default(),
            &mut ListScheduling::new(),
        )
        .unwrap();
        let counts = trace.counts_per_slave(2);
        assert_eq!(counts[1], 0, "expensive link should be avoided entirely");
    }

    #[test]
    fn beats_srpt_on_homogeneous_platforms() {
        use crate::heuristics::srpt::Srpt;
        let pf = Platform::homogeneous(3, 0.5, 2.0);
        let tasks = bag_of_tasks(30);
        let ls = simulate(
            &pf,
            &tasks,
            &SimConfig::default(),
            &mut ListScheduling::new(),
        )
        .unwrap();
        let srpt = simulate(&pf, &tasks, &SimConfig::default(), &mut Srpt::new()).unwrap();
        assert!(
            ls.makespan() < srpt.makespan(),
            "LS {} should beat SRPT {} (Figure 1a)",
            ls.makespan(),
            srpt.makespan()
        );
    }
}
