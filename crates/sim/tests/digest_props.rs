//! The decision-digest auditor's contract:
//!
//! * the digest is a pure function of the run — composing the
//!   [`DigestProbe`] with other probes ([`NoopProbe`], [`MetricsProbe`])
//!   never changes it (probes are observers, and the decision hooks fire
//!   at the same sites regardless of who else is listening);
//! * perturbing a single scheduler decision changes the digest, and the
//!   ledger pinpoints that decision as the first divergent event.

use mss_sim::{
    simulate_in, Decision, DigestProbe, MetricsProbe, NoopProbe, OnlineScheduler, Platform,
    SchedulerEvent, SimConfig, SimView, SimWorkspace, SlaveId, TaskArrival, Time, Timeline,
};
use proptest::prelude::*;

/// Tape-driven but always-valid scheduler (same shape as the engine
/// property tests): send some pending task to some slave, occasionally
/// idle or nap.
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

/// Reroutes the `n`-th Send of the wrapped scheduler to the next slave —
/// the minimal single-decision perturbation.
struct PerturbNthSend {
    inner: TapeScheduler,
    n: usize,
    seen: usize,
}

impl OnlineScheduler for PerturbNthSend {
    fn name(&self) -> String {
        "tape-perturbed".into()
    }

    fn on_event(&mut self, view: &SimView<'_>, e: SchedulerEvent) -> Decision {
        let d = self.inner.on_event(view, e);
        if let Decision::Send { task, slave } = d {
            let k = self.seen;
            self.seen += 1;
            if k == self.n {
                return Decision::Send {
                    task,
                    slave: SlaveId((slave.0 + 1) % view.num_slaves()),
                };
            }
        }
        d
    }
}

fn arb_platform() -> impl Strategy<Value = Platform> {
    // At least two slaves, so a rerouted send is a real change.
    proptest::collection::vec((0.01f64..2.0, 0.1f64..8.0), 2..6).prop_map(|specs| {
        let (c, p): (Vec<f64>, Vec<f64>) = specs.into_iter().unzip();
        Platform::from_vectors(&c, &p)
    })
}

fn arb_tasks() -> impl Strategy<Value = Vec<TaskArrival>> {
    proptest::collection::vec((0.0f64..20.0, 0.9f64..1.1, 0.9f64..1.1), 2..20).prop_map(|ts| {
        ts.into_iter()
            .map(|(r, sc, sp)| TaskArrival {
                release: Time::new(r),
                size_c: sc,
                size_p: sp,
            })
            .collect()
    })
}

fn digest_of<P: mss_sim::Probe>(
    platform: &Platform,
    tasks: &[TaskArrival],
    tape: &[u32],
    extra: &mut P,
) -> (u64, u64) {
    let mut ws = SimWorkspace::new();
    let mut digest = DigestProbe::new();
    let mut probe = (&mut *extra, &mut digest);
    simulate_in(
        &mut ws,
        platform,
        tasks,
        &SimConfig::default(),
        &Timeline::EMPTY,
        &mut TapeScheduler::new(tape.to_vec()),
        &mut probe,
    )
    .expect("tape scheduler progresses");
    (digest.digest(), digest.events())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Composing the digest probe with a noop or a full metrics probe is
    /// invisible: same digest, same event count, in every combination.
    #[test]
    fn digest_is_invariant_under_probe_composition(
        platform in arb_platform(),
        tasks in arb_tasks(),
        tape in proptest::collection::vec(0u32..1000, 8..64),
    ) {
        let alone = digest_of(&platform, &tasks, &tape, &mut NoopProbe);
        let mut metrics = MetricsProbe::new();
        metrics.preallocate(platform.num_slaves());
        let with_metrics = digest_of(&platform, &tasks, &tape, &mut metrics);
        prop_assert_eq!(alone, with_metrics);

        // And the metrics probe really observed the run it rode along on.
        let run = metrics.finish(0.0);
        prop_assert_eq!(run.tasks, tasks.len() as u64);
    }

    /// Rerouting one send changes the digest, and the ledgers' first
    /// divergence is exactly that decision event.
    #[test]
    fn perturbed_decision_changes_digest_at_the_decision(
        platform in arb_platform(),
        tasks in arb_tasks(),
        tape in proptest::collection::vec(0u32..1000, 8..64),
        nth in 0usize..4,
    ) {
        let run = |perturb: Option<usize>| {
            let mut ws = SimWorkspace::new();
            let mut probe = DigestProbe::with_ledger();
            let cfg = SimConfig::default();
            let r = match perturb {
                None => simulate_in(
                    &mut ws, &platform, &tasks, &cfg, &Timeline::EMPTY,
                    &mut TapeScheduler::new(tape.clone()), &mut probe),
                Some(n) => simulate_in(
                    &mut ws, &platform, &tasks, &cfg, &Timeline::EMPTY,
                    &mut PerturbNthSend { inner: TapeScheduler::new(tape.clone()), n, seen: 0 },
                    &mut probe),
            };
            r.expect("tape scheduler progresses");
            (probe.digest(), probe.into_ledger())
        };

        let (base_digest, base_ledger) = run(None);
        let (again_digest, again_ledger) = run(None);
        prop_assert_eq!(base_digest, again_digest, "audit is reproducible");
        prop_assert_eq!(base_ledger.len(), again_ledger.len());

        let nth = nth % tasks.len();
        let (perturbed_digest, perturbed_ledger) = run(Some(nth));
        prop_assert_ne!(base_digest, perturbed_digest,
            "a rerouted send must change the digest");

        // First divergent event is the rerouted decision itself.
        let first = base_ledger
            .iter()
            .zip(&perturbed_ledger)
            .position(|(a, b)| (a.kind, a.t_bits, a.a, a.b) != (b.kind, b.t_bits, b.a, b.b))
            .expect("ledgers diverge");
        prop_assert_eq!(base_ledger[first].kind, "decision_send");
        prop_assert_eq!(base_ledger[first].a, perturbed_ledger[first].a,
            "same task, different slave");
        prop_assert_ne!(base_ledger[first].b, perturbed_ledger[first].b);
    }
}
