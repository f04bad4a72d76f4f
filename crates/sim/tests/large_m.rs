//! Large-`m` smoke: the engine and the decision kernel at 10,000 slaves.
//!
//! A streamed run on a 10k-slave platform must (a) complete within the
//! engine's step budget, (b) keep the bounded-memory contract's resident
//! task-slot window independent of the instance size, and (c) serve its
//! decisions from the tournament tree — the per-decision cost that used
//! to be `O(m)` linear scans is sublinear there, and this test is the
//! floor that keeps it that way. CI runs it in release as the `large-m`
//! smoke gate.
//!
//! List Scheduling's pruned completion-time walk gets the same floor as a
//! deterministic work counter: its mean exact key evaluations per
//! decision must stay a small fraction of `m`.

use mss_sim::{
    chunked_argmin, simulate_streamed_objectives_in, CompletionWalk, Decision, IncrementalArgmin,
    OnlineScheduler, Platform, SchedulerEvent, SimConfig, SimView, SimWorkspace, SlaveId,
    TaskArrival, TaskSource, Timeline,
};

/// SRPT on the incremental kernel (the shape `mss-core`'s production SRPT
/// uses; re-implemented here because `mss-sim` cannot depend on it).
struct KernelSrpt {
    kernel: IncrementalArgmin,
}

impl OnlineScheduler for KernelSrpt {
    fn name(&self) -> String {
        "kernel-srpt".into()
    }

    fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
        if !view.link_idle() {
            return Decision::Idle;
        }
        let Some(&task) = view.pending_tasks().first() else {
            return Decision::Idle;
        };
        let slave = self.kernel.argmin(view, |j| {
            let j = SlaveId(j);
            if view.slave_idle(j) {
                view.believed_p(j)
            } else {
                f64::INFINITY
            }
        });
        if view.slave_idle(slave) {
            Decision::Send { task, slave }
        } else {
            Decision::Idle
        }
    }

    fn poll_driven(&self) -> bool {
        true
    }
}

/// List Scheduling on the pruned walk (the shape `mss-core`'s production
/// LS uses), counting the exact completion estimates it evaluates; with
/// `walk: None` it decides by the full chunked scan instead.
struct CountingLs {
    walk: Option<CompletionWalk>,
    decisions: u64,
    evaluations: u64,
}

impl OnlineScheduler for CountingLs {
    fn name(&self) -> String {
        "counting-ls".into()
    }

    fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
        if !view.link_idle() {
            return Decision::Idle;
        }
        let Some(&task) = view.pending_tasks().first() else {
            return Decision::Idle;
        };
        let mut evaluations = 0u64;
        let key = |j: usize| {
            evaluations += 1;
            view.completion_estimate(SlaveId(j)).as_f64()
        };
        let slave = match &mut self.walk {
            Some(walk) => walk.argmin(view, key),
            None => SlaveId(chunked_argmin(view.num_slaves(), key)),
        };
        self.decisions += 1;
        self.evaluations += evaluations;
        Decision::Send { task, slave }
    }

    fn poll_driven(&self) -> bool {
        true
    }
}

/// Arrival stream computed on the fly; nothing scales with the instance.
struct UniformSource {
    n: usize,
    gap: f64,
    next: usize,
}

impl TaskSource for UniformSource {
    fn next_task(&mut self) -> Option<TaskArrival> {
        if self.next == self.n {
            return None;
        }
        let t = TaskArrival::at(self.next as f64 * self.gap);
        self.next += 1;
        Some(t)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.n)
    }

    fn reset(&mut self) {
        self.next = 0;
    }
}

/// The 10k-slave platform both tests run on: cheap links on a 97-step
/// grid, computation on an 89-step grid.
fn wide_platform(m: usize) -> Platform {
    let c: Vec<f64> = (0..m).map(|j| 0.001 + 1e-5 * (j % 97) as f64).collect();
    let p: Vec<f64> = (0..m).map(|j| 2.0 + 0.03 * (j % 89) as f64).collect();
    Platform::from_vectors(&c, &p)
}

#[test]
fn ten_thousand_slaves_streamed_within_budget() {
    let m = 10_000;
    let platform = wide_platform(m);

    // ~2k tasks streamed fast enough that many slaves cycle busy/idle but
    // the one-port master never backlogs unboundedly (gap > min c).
    let n = 2_000;
    let mut source = UniformSource {
        n,
        gap: 0.01,
        next: 0,
    };
    let cfg = SimConfig {
        horizon_hint: Some(n),
        // Tight step budget: ~3 events per task plus scheduler polls. A
        // regression to per-event O(m) rescans would not trip this (the
        // budget counts steps, not work), but a wake-loop bug would.
        max_steps: 40 * n,
        ..SimConfig::default()
    };
    let mut ws = SimWorkspace::new();
    let mut sched = KernelSrpt {
        kernel: IncrementalArgmin::new(),
    };

    mss_obs::kernel_stats_reset();
    let stats = simulate_streamed_objectives_in(
        &mut ws,
        &platform,
        &mut source,
        &cfg,
        &Timeline::EMPTY,
        &mut sched,
    )
    .expect("10k-slave streamed run completes within the step budget");
    assert_eq!(stats.tasks, n);
    assert!(stats.objectives.makespan > 0.0);

    // Bounded memory: resident task slots scale with outstanding work,
    // not with m or n (SRPT keeps at most one outstanding task per slave,
    // and the 0.01 gap keeps the pending queue shallow).
    assert!(
        stats.peak_live_slots <= 4 * n.min(m),
        "live task-slot peak {} is not bounded by outstanding work",
        stats.peak_live_slots
    );
    assert!(stats.peak_resident_slots >= stats.peak_live_slots);

    // The decisions were tree-served: at m = 10k every query must go
    // through the tournament tree (threshold is 64), with exactly one
    // rebuild (first sync of the run) and zero scan fallbacks.
    let k = mss_obs::kernel_stats_snapshot();
    assert!(k.queries > 0, "kernel never queried: {k:?}");
    assert_eq!(k.scans, 0, "scan fallback used at m = 10k: {k:?}");
    assert_eq!(k.rebuilds, 1, "expected exactly one rebuild: {k:?}");
}

#[test]
fn ten_thousand_slave_ls_walk_visits_a_small_fraction() {
    let m = 10_000;
    let platform = wide_platform(m);
    let n = 2_000;
    let cfg = SimConfig {
        horizon_hint: Some(n),
        max_steps: 40 * n,
        ..SimConfig::default()
    };
    let mut ws = SimWorkspace::new();
    let mut run = |walk: Option<CompletionWalk>| {
        let mut source = UniformSource {
            n,
            gap: 0.01,
            next: 0,
        };
        let mut sched = CountingLs {
            walk,
            decisions: 0,
            evaluations: 0,
        };
        let stats = simulate_streamed_objectives_in(
            &mut ws,
            &platform,
            &mut source,
            &cfg,
            &Timeline::EMPTY,
            &mut sched,
        )
        .expect("10k-slave LS run completes within the step budget");
        assert_eq!(stats.tasks, n);
        (stats.objectives, sched.decisions, sched.evaluations)
    };
    let (walked, decisions, evaluations) = run(Some(CompletionWalk::default()));
    let (scanned, scan_decisions, _) = run(None);

    // Same decisions as the full scan, objective bits included.
    assert_eq!(decisions, scan_decisions);
    assert_eq!(walked.makespan.to_bits(), scanned.makespan.to_bits());
    assert_eq!(walked.sum_flow.to_bits(), scanned.sum_flow.to_bits());

    // Work counter, not wall time: the walk evaluates the exact key for
    // under 5 % of the slaves per decision on average.
    let mean = evaluations as f64 / decisions as f64;
    assert!(
        mean < 0.05 * m as f64,
        "walk evaluated {mean:.1} keys per decision at m = {m}"
    );
}
