//! Counters-consistency: the two probe implementations agree with each
//! other and with the trace on a deterministic failure scenario.
//!
//! [`RunCounters`] tallies hook firings; [`TraceRecorder`] turns the same
//! firings into spans and markers. Both observe one run of a fault-aware
//! greedy under scripted slave failures, so every cross-check below is exact:
//! span counts must equal counter totals, markers must equal
//! failure/recovery/loss counts, and the send ledger must balance.
//! (Deliberately *not* asserted: `view_recomputes` — debug builds refresh
//! views for the elision oracle that release builds skip.)

use mss_sim::{
    bag_of_tasks, simulate_in, Decision, MarkerKind, OnlineScheduler, Platform, PlatformEvent,
    PlatformEventKind, RunCounters, SchedulerEvent, SimConfig, SimView, SimWorkspace, SlaveId,
    SpanKind, Time, Timeline, TraceRecorder,
};

/// Fault-aware greedy: oldest pending task to the *available* slave with
/// the earliest completion estimate (idles when every slave is down).
struct Greedy;

impl OnlineScheduler for Greedy {
    fn name(&self) -> String {
        "greedy".into()
    }

    fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
        if !view.link_idle() {
            return Decision::Idle;
        }
        let Some(&task) = view.pending_tasks().first() else {
            return Decision::Idle;
        };
        let Some(best) = view.available_slaves().min_by(|&a, &b| {
            view.completion_estimate(a)
                .partial_cmp(&view.completion_estimate(b))
                .unwrap()
        }) else {
            return Decision::Idle;
        };
        Decision::Send { task, slave: best }
    }

    fn poll_driven(&self) -> bool {
        true
    }
}

#[test]
fn trace_spans_match_counter_totals() {
    let platform = Platform::from_vectors(&[0.2, 0.5, 0.9], &[1.0, 2.0, 3.0]);
    let n = 60;
    let tasks = bag_of_tasks(n);
    let cfg = SimConfig::with_horizon(n);
    // Scripted outage: slave 0 (the fastest) dies mid-run and comes back,
    // so the run exercises failure, task loss/re-release, and recovery.
    let timeline = Timeline::new(vec![
        PlatformEvent {
            time: Time::new(5.0),
            slave: SlaveId(0),
            kind: PlatformEventKind::Fail,
        },
        PlatformEvent {
            time: Time::new(9.0),
            slave: SlaveId(0),
            kind: PlatformEventKind::Recover,
        },
    ]);

    let mut ws = SimWorkspace::new();
    let mut probe = (RunCounters::new(), TraceRecorder::new());
    let trace = simulate_in(
        &mut ws,
        &platform,
        &tasks,
        &cfg,
        &timeline,
        &mut Greedy,
        &mut probe,
    )
    .expect("failure scenario completes");
    let (c, mut rec) = probe;
    rec.finalize(rec.end_time());

    // The run actually went through the outage.
    assert_eq!(trace.len(), n);
    assert_eq!(c.failures, 1);
    assert_eq!(c.recoveries, 1);

    // Send ledger balances and matches the recorder span by span.
    assert_eq!(c.sends_started, c.sends_delivered + c.sends_lost);
    let sends = span_count(&rec, SpanKind::Send);
    assert_eq!(sends as u64, c.sends_started);

    // Every task computes to completion exactly once; interrupted computes
    // (the outage's casualties) appear as truncated spans.
    assert_eq!(c.computes_completed, n as u64);
    let computes = rec
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Compute)
        .count() as u64;
    assert_eq!(computes, c.computes_started);
    let completed = rec
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Compute && s.completed)
        .count() as u64;
    assert_eq!(completed, c.computes_completed);

    // Markers mirror the failure counters one to one.
    assert_eq!(marker_count(&rec, MarkerKind::Fail), c.failures);
    assert_eq!(marker_count(&rec, MarkerKind::Recover), c.recoveries);
    assert_eq!(marker_count(&rec, MarkerKind::TaskLost), c.tasks_lost);
    assert_eq!(span_count(&rec, SpanKind::Down) as u64, c.failures);

    // The scheduler heard about the run: every callback was either
    // delivered or (for this poll-driven scheduler) provably elidable.
    assert!(c.callbacks + c.callbacks_elided > 0);
    assert!(c.events() > 3 * n as u64, "outage adds events beyond 3n");
}

fn span_count(rec: &TraceRecorder, kind: SpanKind) -> usize {
    rec.spans.iter().filter(|s| s.kind == kind).count()
}

fn marker_count(rec: &TraceRecorder, kind: MarkerKind) -> u64 {
    rec.markers.iter().filter(|m| m.kind == kind).count() as u64
}
