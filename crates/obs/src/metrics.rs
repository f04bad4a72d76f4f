//! Sweep-level metrics: per-worker tallies merged into a run summary.

use crate::chrome::ChromeTrace;
use crate::counters::RunCounters;
use crate::metrics_probe::RunHistograms;

/// One batch executed by a sweep worker, as an interval in seconds from the
/// sweep's shared epoch. Feeds the per-worker tracks of the sweep trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BatchSpan {
    /// Seconds from the sweep epoch when the batch started.
    pub start: f64,
    /// Seconds from the sweep epoch when the batch finished.
    pub end: f64,
    /// Cells executed in the batch.
    pub cells: usize,
}

/// What one sweep worker did: cells, batches, phase time, and its batch
/// timeline. Aggregated thread-locally (no synchronization on the worker's
/// hot path) and merged into [`SweepMetrics`] at join.
#[derive(Clone, Debug, Default)]
pub struct WorkerMetrics {
    /// Cells this worker executed (including errored/aborted ones).
    pub cells: u64,
    /// Batches this worker claimed.
    pub batches: u64,
    /// Instances this worker materialized (once per batch).
    pub materializations: u64,
    /// Task arrivals those materializations drew (streamed batches draw
    /// theirs while simulating and add none).
    pub materialized_tasks: u64,
    /// Cells that ended in an abort (budget/stall/…) rather than metrics.
    pub aborted: u64,
    /// Seconds spent materializing instances.
    pub materialize_secs: f64,
    /// Seconds spent simulating (scheduling + engine).
    pub simulate_secs: f64,
    /// Seconds this worker spent in the result store (serializing its
    /// results into per-worker shard buffers and flushing them under the
    /// per-shard locks).
    pub store_secs: f64,
    /// This worker's batch timeline, offsets from the sweep epoch.
    pub spans: Vec<BatchSpan>,
    /// Engine event counters accumulated across this worker's cells
    /// (populated only when the sweep runs with counting probes).
    pub counters: RunCounters,
    /// Per-task duration histograms merged across this worker's cells
    /// (populated only when the sweep collects run metrics). Histograms
    /// are the *only* statistic allowed to cross the worker-merge
    /// boundary: workers finish in nondeterministic order, and histogram
    /// merging is the one operation that is exact regardless (contract
    /// #12) — per-cell `f64` telemetry merges lab-side in cell order.
    pub hists: RunHistograms,
}

impl WorkerMetrics {
    /// A zeroed tally.
    pub fn new() -> Self {
        WorkerMetrics::default()
    }
}

/// Number of result-store shards (`shard_00.jsonl` … `shard_0f.jsonl`);
/// [`StoreStats::shard_contended`] carries one slot per shard.
pub const STORE_SHARDS: usize = 16;

/// Store I/O statistics for one sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Flush operations that wrote at least one record.
    pub appends: u64,
    /// Bytes appended across all shards.
    pub bytes: u64,
    /// Times any shard lock was contended (first `try_lock` failed) —
    /// the sum of [`StoreStats::shard_contended`].
    pub lock_contended: u64,
    /// Per-shard contention counts: how often each shard's lock was
    /// already held when a worker arrived to flush. A hot shard here means
    /// the key space hashes unevenly or too many workers flush at once.
    pub shard_contended: [u64; STORE_SHARDS],
}

impl StoreStats {
    /// Contended flushes per append — `lock_contended / appends` (`0.0`
    /// when nothing was appended). The scaling curve reports this as the
    /// store-contention ratio: near zero means the sharded store never
    /// made a worker wait.
    pub fn contention_ratio(&self) -> f64 {
        if self.appends == 0 {
            0.0
        } else {
            self.lock_contended as f64 / self.appends as f64
        }
    }
}

/// Summary of one sweep run: totals plus the per-worker breakdown.
///
/// # Examples
/// ```
/// use mss_obs::{SweepMetrics, WorkerMetrics};
///
/// let mut m = SweepMetrics::default();
/// let mut w = WorkerMetrics::new();
/// w.cells = 10;
/// w.batches = 4;
/// w.materializations = 4;
/// m.absorb_worker(w);
/// m.cached = 5;
/// assert_eq!(m.executed, 10);
/// assert!((m.batch_reuse_ratio() - 0.6).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SweepMetrics {
    /// Total cells requested.
    pub cells: u64,
    /// Cells actually executed this run.
    pub executed: u64,
    /// Cells served from the result store.
    pub cached: u64,
    /// Executed cells that ended in an abort rather than metrics.
    pub aborted: u64,
    /// Batches executed across all workers.
    pub batches: u64,
    /// Instance materializations across all workers.
    pub materializations: u64,
    /// Task arrivals drawn by those materializations.
    pub materialized_tasks: u64,
    /// Seconds spent materializing, summed across workers.
    pub materialize_secs: f64,
    /// Seconds spent simulating, summed across workers.
    pub simulate_secs: f64,
    /// Wall-clock seconds for the execution phase.
    pub wall_secs: f64,
    /// Seconds spent in the result store: loading the cache on open (wall
    /// time, serial) plus each worker's serialize-and-flush time (CPU
    /// seconds summed across workers, like `simulate_secs`).
    pub store_secs: f64,
    /// Store I/O statistics.
    pub store: StoreStats,
    /// Merged engine counters (populated only under counting probes).
    pub counters: RunCounters,
    /// Merged per-task duration histograms (populated only when the sweep
    /// collects run metrics); exact for any worker count and merge order.
    pub hists: RunHistograms,
    /// The per-worker breakdown, in worker order.
    pub workers: Vec<WorkerMetrics>,
}

impl SweepMetrics {
    /// Folds one worker's tally into the totals and keeps the breakdown.
    pub fn absorb_worker(&mut self, w: WorkerMetrics) {
        self.executed += w.cells;
        self.aborted += w.aborted;
        self.batches += w.batches;
        self.materializations += w.materializations;
        self.materialized_tasks += w.materialized_tasks;
        self.materialize_secs += w.materialize_secs;
        self.simulate_secs += w.simulate_secs;
        self.store_secs += w.store_secs;
        self.counters.merge(&w.counters);
        self.hists.merge(&w.hists);
        self.workers.push(w);
    }

    /// Fraction of executed cells that *reused* a batch-mate's
    /// materialization: `1 - materializations / executed` (`0.0` when
    /// nothing ran). The instance-major batching win in one number.
    pub fn batch_reuse_ratio(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            1.0 - self.materializations as f64 / self.executed as f64
        }
    }

    /// Exports the workers' batch timelines as a Chrome trace: one track
    /// per worker, one span per batch — plus, when the sweep stored
    /// anything, a "store shard contention" counter track with one series
    /// per shard (final contended-lock counts, sampled at the end of the
    /// sweep wall clock).
    pub fn to_chrome(&self, process: &str) -> ChromeTrace {
        let mut t = ChromeTrace::new();
        let pid = 1;
        t.process_name(pid, process);
        for (w, wm) in self.workers.iter().enumerate() {
            t.thread_name(pid, w as u64, &format!("worker {w}"));
            for s in &wm.spans {
                t.complete(
                    pid,
                    w as u64,
                    &format!("batch ({} cells)", s.cells),
                    "sweep",
                    s.start * 1e6,
                    (s.end - s.start) * 1e6,
                );
            }
        }
        if self.store.appends > 0 {
            let ts = self.wall_secs * 1e6;
            for (i, &contended) in self.store.shard_contended.iter().enumerate() {
                t.counter(
                    pid,
                    "store shard contention",
                    &format!("shard_{i:02x}"),
                    ts,
                    contended as f64,
                );
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates_and_keeps_breakdown() {
        let mut m = SweepMetrics::default();
        let mut a = WorkerMetrics::new();
        a.cells = 6;
        a.batches = 2;
        a.materializations = 2;
        a.simulate_secs = 0.5;
        a.counters.callbacks = 10;
        let mut b = WorkerMetrics::new();
        b.cells = 4;
        b.batches = 1;
        b.materializations = 1;
        b.aborted = 1;
        b.counters.callbacks_elided = 30;
        m.absorb_worker(a);
        m.absorb_worker(b);
        assert_eq!(m.executed, 10);
        assert_eq!(m.batches, 3);
        assert_eq!(m.aborted, 1);
        assert_eq!(m.workers.len(), 2);
        assert!((m.batch_reuse_ratio() - 0.7).abs() < 1e-12);
        assert!((m.counters.elided_callback_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_sweep_has_zero_reuse() {
        assert_eq!(SweepMetrics::default().batch_reuse_ratio(), 0.0);
    }

    #[test]
    fn store_contention_ratio_handles_empty_and_counts() {
        assert_eq!(StoreStats::default().contention_ratio(), 0.0);
        let mut s = StoreStats {
            appends: 8,
            bytes: 1024,
            ..StoreStats::default()
        };
        s.shard_contended[0] = 1;
        s.shard_contended[9] = 1;
        s.lock_contended = s.shard_contended.iter().sum();
        assert!((s.contention_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn worker_trace_has_one_track_per_worker() {
        let mut m = SweepMetrics::default();
        for i in 0..2 {
            let mut w = WorkerMetrics::new();
            w.spans.push(BatchSpan {
                start: i as f64,
                end: i as f64 + 0.5,
                cells: 3,
            });
            m.absorb_worker(w);
        }
        let s = m.to_chrome("sweep").render();
        assert!(s.contains("worker 0"));
        assert!(s.contains("worker 1"));
        assert!(s.contains("batch (3 cells)"));
        // No store activity: no contention counter track.
        assert!(!s.contains("store shard contention"));

        m.store.appends = 3;
        m.store.shard_contended[2] = 5;
        m.store.lock_contended = 5;
        let s = m.to_chrome("sweep").render();
        assert!(s.contains("store shard contention"));
        assert!(s.contains("\"args\":{\"shard_02\":5}"), "{s}");
        assert!(s.contains("\"args\":{\"shard_0f\":0}"), "{s}");
    }
}
