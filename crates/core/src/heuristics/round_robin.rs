//! The Round-Robin family — RR, RRC, RRP (§4.1, algorithms 3–5).
//!
//! The paper specifies the three *orderings*:
//!
//! * **RR** — "first choose the slave with the smallest `p_i + c_i`, then
//!   the slave with the second smallest value, etc.";
//! * **RRC** — "starting from the slave with the smallest `c_i` up to the
//!   slave with the largest one";
//! * **RRP** — "starting from the slave with the smallest `p_i` up to the
//!   slave with the largest one";
//!
//! but not the dispatch rule. A pure cyclic, equal-share interpretation
//! makes the three variants provably identical whenever the ordering key is
//! constant (e.g. RRC on a communication-homogeneous platform), which
//! contradicts Figure 1(b) where RRC is clearly the worst. We therefore use
//! a **buffer-bounded demand-driven** dispatch (see `DESIGN.md`): a slave is
//! *eligible* when it has at most `buffer` outstanding tasks, and the master
//! sends the oldest pending task to the first eligible slave in the
//! prescribed order. `buffer = 1` keeps one task queued behind the one
//! computing — enough to overlap communication with computation (so the RR
//! family beats SRPT on homogeneous platforms) while keeping the ordering
//! decisive (so RRC/RRP degrade exactly where Figure 1 says they do).
//!
//! A strict-cyclic mode is provided for the ablation study (`DESIGN.md`
//! A1): it walks the prescribed ring one slave at a time, skipping
//! ineligible slaves.

use crate::heuristics::util::oldest_pending;
use mss_sim::{
    Decision, IncrementalArgmin, InfoTier, OnlineScheduler, SchedulerEvent, SimView, SlaveId,
};

/// Which key orders the slaves (all ascending, ties by slave index).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RrOrder {
    /// `p_j + c_j` — the paper's RR.
    SumCp,
    /// `c_j` — the paper's RRC.
    CommOnly,
    /// `p_j` — the paper's RRP.
    ProcOnly,
}

impl RrOrder {
    fn key(self, c: f64, p: f64) -> f64 {
        match self {
            RrOrder::SumCp => c + p,
            RrOrder::CommOnly => c,
            RrOrder::ProcOnly => p,
        }
    }
}

/// How the prescribed order is consumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RrDispatch {
    /// Send to the first *eligible* slave in the prescribed order
    /// (default; reproduces the Figure 1 shapes).
    Priority,
    /// Walk the prescribed ring cyclically, skipping ineligible slaves
    /// (ablation mode).
    Cyclic,
}

/// A Round-Robin scheduler (RR / RRC / RRP by choice of [`RrOrder`]).
///
/// Tier-portable: the order keys are read through
/// [`SimView::believed_c`] / [`SimView::believed_p`], so below
/// `Clairvoyant` the prescribed order is over *learned* rates — all
/// slaves tie under the prior (index order) and the order sharpens as
/// observations arrive.
///
/// Priority dispatch needs no materialized order: "first eligible slave
/// in prescribed order" is the lexicographic `(key_j, j)` minimum over
/// eligible slaves, which the [`IncrementalArgmin`] tree indexes
/// directly. Both inputs are journal-stable: a learned rate only moves
/// when the engine absorbs an observation of that slave, and the same
/// event journals it.
#[derive(Clone, Debug)]
pub struct RoundRobin {
    order_by: RrOrder,
    dispatch: RrDispatch,
    /// A slave is eligible while `outstanding <= buffer`.
    buffer: usize,
    /// Cyclic mode only: slave indices sorted by `(key, index)`, built on
    /// first use and re-sorted when [`SimView::estimate_version`] moves.
    ring: Vec<SlaveId>,
    /// `estimate_version` the ring was sorted at.
    ring_version: u64,
    /// Next ring position (cyclic mode only).
    cursor: usize,
    /// Priority mode's decision kernel: argmin of the believed order key
    /// over eligible slaves (ineligible → `+∞`).
    kernel: IncrementalArgmin,
}

impl RoundRobin {
    /// The paper's RR (order by `p + c`), default dispatch and buffer 1.
    pub fn rr() -> Self {
        Self::new(RrOrder::SumCp, RrDispatch::Priority, 1)
    }

    /// The paper's RRC (order by `c`).
    pub fn rrc() -> Self {
        Self::new(RrOrder::CommOnly, RrDispatch::Priority, 1)
    }

    /// The paper's RRP (order by `p`).
    pub fn rrp() -> Self {
        Self::new(RrOrder::ProcOnly, RrDispatch::Priority, 1)
    }

    /// Fully parameterized constructor (used by the ablation benches).
    pub fn new(order_by: RrOrder, dispatch: RrDispatch, buffer: usize) -> Self {
        RoundRobin {
            order_by,
            dispatch,
            buffer,
            ring: Vec::new(),
            ring_version: 0,
            cursor: 0,
            kernel: IncrementalArgmin::new(),
        }
    }

    /// Same scheduler on the linear-scan reference kernel, kept
    /// executable for equivalence tests and the `kernel-vs-scan`
    /// benchmarks.
    pub fn with_scan_kernel(mut self) -> Self {
        self.kernel = IncrementalArgmin::scan_reference();
        self
    }

    /// Overrides the kernel's small-`m` scan threshold (tests force the
    /// tree on tiny platforms with a threshold of 0).
    pub fn with_tree_threshold(mut self, threshold: usize) -> Self {
        self.kernel = IncrementalArgmin::new().with_threshold(threshold);
        self
    }

    fn ensure_ring(&mut self, view: &SimView<'_>) {
        if self.ring.is_empty() || self.ring_version != view.estimate_version() {
            self.ring_version = view.estimate_version();
            self.ring.clear();
            self.ring.extend(view.slave_ids());
            let order = self.order_by;
            self.ring.sort_by(|&a, &b| {
                let ka = order.key(view.believed_c(a), view.believed_p(a));
                let kb = order.key(view.believed_c(b), view.believed_p(b));
                ka.partial_cmp(&kb).unwrap().then(a.0.cmp(&b.0))
            });
        }
    }

    fn eligible(&self, view: &SimView<'_>, j: SlaveId) -> bool {
        view.slave(j).outstanding <= self.buffer
    }

    fn pick(&mut self, view: &SimView<'_>) -> Option<SlaveId> {
        match self.dispatch {
            RrDispatch::Priority => {
                // All-∞ (every slave saturated) makes the kernel report
                // slave 0, which the eligibility re-check maps to `None`.
                let (order, buffer) = (self.order_by, self.buffer);
                let winner = self.kernel.argmin(view, |j| {
                    let j = SlaveId(j);
                    if view.slave(j).outstanding <= buffer {
                        order.key(view.believed_c(j), view.believed_p(j))
                    } else {
                        f64::INFINITY
                    }
                });
                self.eligible(view, winner).then_some(winner)
            }
            RrDispatch::Cyclic => {
                self.ensure_ring(view);
                let m = self.ring.len();
                for step in 0..m {
                    let pos = (self.cursor + step) % m;
                    let j = self.ring[pos];
                    if self.eligible(view, j) {
                        self.cursor = (pos + 1) % m;
                        return Some(j);
                    }
                }
                None
            }
        }
    }
}

impl OnlineScheduler for RoundRobin {
    fn name(&self) -> String {
        let base = match self.order_by {
            RrOrder::SumCp => "RR",
            RrOrder::CommOnly => "RRC",
            RrOrder::ProcOnly => "RRP",
        };
        match (self.dispatch, self.buffer) {
            (RrDispatch::Priority, 1) => base.to_string(),
            (RrDispatch::Priority, b) => format!("{base}(B={b})"),
            (RrDispatch::Cyclic, b) => format!("{base}(cyclic,B={b})"),
        }
    }

    fn init(&mut self, _view: &SimView<'_>) {
        self.ring.clear();
        self.cursor = 0;
        self.kernel.invalidate();
    }

    fn on_event(&mut self, view: &SimView<'_>, _event: SchedulerEvent) -> Decision {
        if !view.link_idle() {
            return Decision::Idle;
        }
        let Some(task) = oldest_pending(view) else {
            return Decision::Idle;
        };
        match self.pick(view) {
            Some(slave) => Decision::Send { task, slave },
            None => Decision::Idle, // every slave saturated; wait for a completion
        }
    }

    fn poll_driven(&self) -> bool {
        // Acts only on (idle port, pending task): the kernel sync, the
        // cyclic ring re-sort and the cursor all sit behind those guards,
        // and the ring is a pure function of the current view — so
        // busy-port/empty-pending callbacks are observably pure.
        true
    }

    fn min_tier(&self) -> InfoTier {
        InfoTier::NonClairvoyant // order keys are believed rates at any tier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_sim::{bag_of_tasks, simulate, validate, Platform, SimConfig, TaskId};

    #[test]
    fn orderings_sort_as_specified() {
        // c = (2, 1, 3), p = (5, 9, 1):
        //   RR  key c+p = (7, 10, 4) → P3, P1, P2
        //   RRC key c   = (2, 1, 3)  → P2, P1, P3
        //   RRP key p   = (5, 9, 1)  → P3, P1, P2
        let pf = Platform::from_vectors(&[2.0, 1.0, 3.0], &[5.0, 9.0, 1.0]);
        let probe = |mut rr: RoundRobin| {
            let trace = simulate(&pf, &bag_of_tasks(1), &SimConfig::default(), &mut rr).unwrap();
            trace.record(TaskId(0)).slave
        };
        assert_eq!(probe(RoundRobin::rr()), SlaveId(2));
        assert_eq!(probe(RoundRobin::rrc()), SlaveId(1));
        assert_eq!(probe(RoundRobin::rrp()), SlaveId(2));
    }

    #[test]
    fn buffer_bounds_queueing() {
        // Single slave, buffer 1: at most 2 outstanding → the 3rd send waits
        // for the 1st completion.
        let pf = Platform::from_vectors(&[0.1], &[10.0]);
        let trace = simulate(
            &pf,
            &bag_of_tasks(3),
            &SimConfig::default(),
            &mut RoundRobin::rr(),
        )
        .unwrap();
        let r2 = trace.record(TaskId(2));
        // First completion at 0.1 + 10 = 10.1; third send may only start then.
        assert!(
            (r2.send_start.as_f64() - 10.1).abs() < 1e-9,
            "third send at {}",
            r2.send_start
        );
        assert!(validate(&trace, &pf).is_empty());
    }

    #[test]
    fn pipelines_and_beats_srpt_on_homogeneous() {
        use crate::heuristics::srpt::Srpt;
        let pf = Platform::homogeneous(3, 0.5, 2.0);
        let tasks = bag_of_tasks(30);
        let rr = simulate(&pf, &tasks, &SimConfig::default(), &mut RoundRobin::rr()).unwrap();
        let srpt = simulate(&pf, &tasks, &SimConfig::default(), &mut Srpt::new()).unwrap();
        assert!(rr.makespan() < srpt.makespan(), "Figure 1(a) shape");
    }

    #[test]
    fn rr_variants_identical_on_homogeneous() {
        let pf = Platform::homogeneous(4, 0.3, 2.5);
        let tasks = bag_of_tasks(20);
        let m = |mut s: RoundRobin| {
            simulate(&pf, &tasks, &SimConfig::default(), &mut s)
                .unwrap()
                .makespan()
        };
        let (rr, rrc, rrp) = (
            m(RoundRobin::rr()),
            m(RoundRobin::rrc()),
            m(RoundRobin::rrp()),
        );
        assert!((rr - rrc).abs() < 1e-9);
        assert!((rr - rrp).abs() < 1e-9);
    }

    #[test]
    fn rrc_ignores_speed_heterogeneity() {
        // Communication-homogeneous, p = (0.2, 8.0): RRP prefers the fast
        // slave; RRC's order is the index order and keeps feeding the slow
        // P1... except here P1 is fast. Make P1 slow to expose RRC.
        let pf = Platform::from_vectors(&[0.5, 0.5], &[8.0, 0.2]);
        let tasks = bag_of_tasks(40);
        let rrp = simulate(&pf, &tasks, &SimConfig::default(), &mut RoundRobin::rrp()).unwrap();
        let rrc = simulate(&pf, &tasks, &SimConfig::default(), &mut RoundRobin::rrc()).unwrap();
        assert!(
            rrp.makespan() <= rrc.makespan() + 1e-9,
            "RRP {} should not lose to RRC {} on comm-homogeneous platforms",
            rrp.makespan(),
            rrc.makespan()
        );
        // RRP sends the overwhelming majority to the fast slave.
        let counts = rrp.counts_per_slave(2);
        assert!(counts[1] > counts[0] * 3, "counts {counts:?}");
    }

    #[test]
    fn cyclic_mode_rotates() {
        let pf = Platform::homogeneous(3, 0.1, 10.0);
        let mut rr = RoundRobin::new(RrOrder::SumCp, RrDispatch::Cyclic, 1);
        let trace = simulate(&pf, &bag_of_tasks(3), &SimConfig::default(), &mut rr).unwrap();
        let slaves: Vec<_> = (0..3).map(|i| trace.record(TaskId(i)).slave.0).collect();
        assert_eq!(slaves, vec![0, 1, 2], "cyclic mode spreads the first round");
    }

    #[test]
    fn priority_mode_fills_first_slave_first() {
        let pf = Platform::homogeneous(3, 0.1, 10.0);
        let trace = simulate(
            &pf,
            &bag_of_tasks(3),
            &SimConfig::default(),
            &mut RoundRobin::rr(),
        )
        .unwrap();
        let slaves: Vec<_> = (0..3).map(|i| trace.record(TaskId(i)).slave.0).collect();
        // Buffer 1: P1 takes two tasks (computing + one queued), then P2.
        assert_eq!(slaves, vec![0, 0, 1]);
    }
}
