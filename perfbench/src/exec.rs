//! Traced execution: the sweep's batch runner and result store driven call
//! by call through the workspace's public API, with a span around each
//! call. Every traced path returns results bit-identical to the library
//! path it mirrors; the run's digest comparison checks that.

use crate::trace::{Recorder, Timed};
use mss_core::{
    Algorithm, OnlineScheduler, Platform, RunCounters, SimWorkspace, TaskSource, Timeline,
};
use mss_obs::KernelStats;
use mss_opt::bounds::{
    makespan_lower_bound, max_flow_lower_bound, sum_flow_lower_bound, StreamingBounds,
};
use mss_opt::Instance;
use mss_sweep::{
    cell_key, Cell, CellError, CellMetrics, MaterializedInstance, ResultStore, SamplerCache,
    StreamedInstance,
};
use mss_workload::{GeneratedSource, Perturbation};
use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

pub type Outcome = Result<CellMetrics, CellError>;

/// Bytes a sweep worker buffers before flushing to the store (the sweep's
/// own flush floor).
pub const WORKER_FLUSH_FLOOR: usize = 32 << 10;

/// Work counts gathered on one thread of a traced pass.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub counters: RunCounters,
    pub decide_ns: [u64; 7],
    pub calls: [u64; 7],
    pub kernel: KernelStats,
    pub materializations: u64,
    /// Cells (or stream runs) executed.
    pub cells: u64,
    /// Wall milliseconds of each engine run.
    pub cell_ms: Vec<f64>,
    pub peak_live: usize,
    pub peak_resident: usize,
}

impl Tally {
    pub fn merge(&mut self, o: &Tally) {
        self.counters.merge(&o.counters);
        for a in 0..7 {
            self.decide_ns[a] += o.decide_ns[a];
            self.calls[a] += o.calls[a];
        }
        self.kernel.merge(&o.kernel);
        self.materializations += o.materializations;
        self.cells += o.cells;
        self.cell_ms.extend_from_slice(&o.cell_ms);
        self.peak_live = self.peak_live.max(o.peak_live);
        self.peak_resident = self.peak_resident.max(o.peak_resident);
    }

    /// Runs `run` inside a `sim.run` span with `scheduler` behind the
    /// timing decorator, charging callback time as the span's inner time.
    pub fn engine_run<R>(
        &mut self,
        rec: &mut Recorder,
        algorithm: Algorithm,
        scheduler: &mut dyn OnlineScheduler,
        run: impl FnOnce(&mut Timed<'_>, &mut RunCounters) -> R,
    ) -> R {
        let mut timed = Timed::new(scheduler);
        let counters = &mut self.counters;
        let (out, id) = rec.span("sim.run", |_| run(&mut timed, counters));
        let span = &mut rec.spans[id];
        span.inner_ns = timed.ns;
        self.decide_ns[algorithm as usize] += timed.ns;
        self.calls[algorithm as usize] += timed.calls;
        self.cell_ms
            .push((span.end_ns - span.start_ns) as f64 * 1e-6);
        self.cells += 1;
        out
    }
}

/// Per-thread scratch of a traced sweep: what the sweep's batch worker
/// keeps (workspace, sampler streams, reused schedulers) plus the span
/// recorder and tally.
pub struct TracedWorker {
    pub ws: SimWorkspace,
    pub samplers: SamplerCache,
    schedulers: HashMap<(Algorithm, bool), Box<dyn OnlineScheduler>>,
    pub rec: Recorder,
    pub tally: Tally,
}

impl TracedWorker {
    pub fn new(epoch: Instant, thread: usize) -> Self {
        mss_obs::kernel_stats_reset();
        TracedWorker {
            ws: SimWorkspace::new(),
            samplers: SamplerCache::new(),
            schedulers: HashMap::new(),
            rec: Recorder::new(epoch, thread),
            tally: Tally::default(),
        }
    }

    /// Ends the worker on its own thread: records the thread's kernel
    /// tallies and hands back what crosses threads.
    pub fn finish(mut self) -> (Recorder, Tally) {
        self.tally.kernel = mss_obs::kernel_stats_snapshot();
        (self.rec, self.tally)
    }

    /// Runs one same-instance batch, as the sweep's `run_batch` (or
    /// `run_batch_streamed`) does, with the instance materialized call by
    /// call.
    pub fn batch(
        &mut self,
        cells: &[Cell],
        indices: &[usize],
        batch: Range<usize>,
        streamed: bool,
        out: &mut Vec<Outcome>,
    ) {
        let TracedWorker {
            ws,
            samplers,
            schedulers,
            rec,
            tally,
        } = self;
        let head = &cells[indices[batch.start]];
        tally.materializations += 1;
        if streamed {
            let inst = rec.time("workload.materialize", |rec| {
                let platform = head.platform.realize_with(samplers);
                materialize_streamed(head, platform, rec)
            });
            for k in batch {
                let cell = &cells[indices[k]];
                let sched = scheduler_for(schedulers, cell);
                let r = tally.engine_run(rec, cell.algorithm, sched, |s, c| {
                    cell.try_run_streamed_probed(&inst, ws, s, c)
                });
                out.push(r.map(|(m, stats)| {
                    tally.peak_live = tally.peak_live.max(stats.peak_live_slots);
                    tally.peak_resident = tally.peak_resident.max(stats.peak_resident_slots);
                    m
                }));
            }
        } else {
            let mat = rec.time("workload.materialize", |rec| {
                materialize(head, samplers, rec)
            });
            for k in batch {
                let cell = &cells[indices[k]];
                let sched = scheduler_for(schedulers, cell);
                out.push(tally.engine_run(rec, cell.algorithm, sched, |s, c| {
                    cell.try_run_probed(&mat, ws, s, c)
                }));
            }
        }
    }
}

/// The scheduler a cell runs under, reused per `(algorithm, fault-aware)`
/// as the sweep's workers reuse theirs.
fn scheduler_for<'a>(
    schedulers: &'a mut HashMap<(Algorithm, bool), Box<dyn OnlineScheduler>>,
    cell: &Cell,
) -> &'a mut dyn OnlineScheduler {
    let fault_aware = cell.scenario.as_ref().is_some_and(|s| s.fault_aware);
    schedulers
        .entry((cell.algorithm, fault_aware))
        .or_insert_with(|| cell.build_scheduler())
        .as_mut()
}

fn compile(cell: &Cell, platform: &Platform, rec: &mut Recorder) -> Timeline {
    match &cell.scenario {
        Some(s) => rec.time("scenario.compile", |_| {
            s.spec
                .compile(platform.num_slaves())
                .expect("expanded scenarios compile")
        }),
        None => Timeline::EMPTY,
    }
}

fn rates(platform: &Platform) -> (Vec<f64>, Vec<f64>) {
    platform.iter().map(|(_, s)| (s.c, s.p)).unzip()
}

/// `Cell::materialize_with`, call by call.
fn materialize(
    cell: &Cell,
    samplers: &mut SamplerCache,
    rec: &mut Recorder,
) -> MaterializedInstance {
    let platform = cell.platform.realize_with(samplers);
    let nominal = cell.arrival.generate(cell.tasks, &platform, cell.task_seed);
    let perturbed = cell.perturbation.as_ref().map(|p| {
        Perturbation {
            delta: p.delta,
            comm_exponent: p.comm_exponent,
            comp_exponent: p.comp_exponent,
        }
        .apply(&nominal, p.seed)
    });
    let timeline = compile(cell, &platform, rec);
    let (lb_makespan, lb_max_flow, lb_sum_flow) = rec.time("opt.lower_bounds", |_| {
        let (c, p) = rates(&platform);
        let inst = Instance {
            c,
            p,
            r: nominal.iter().map(|t| t.release.as_f64()).collect(),
        };
        (
            makespan_lower_bound(&inst),
            max_flow_lower_bound(&inst),
            sum_flow_lower_bound(&inst),
        )
    });
    MaterializedInstance {
        platform,
        nominal,
        perturbed,
        timeline,
        lb_makespan,
        lb_max_flow,
        lb_sum_flow,
    }
}

/// `Cell::materialize_streamed_with`, call by call.
pub fn materialize_streamed(
    cell: &Cell,
    platform: Platform,
    rec: &mut Recorder,
) -> StreamedInstance {
    let timeline = compile(cell, &platform, rec);
    let (lb_makespan, lb_max_flow, lb_sum_flow) = rec.time("opt.lower_bounds", |_| {
        let (c, p) = rates(&platform);
        let mut bounds = StreamingBounds::new(&c, &p, cell.tasks);
        let mut nominal = GeneratedSource::new(cell.arrival, cell.tasks, &platform, cell.task_seed);
        while let Some(t) = nominal.next_task() {
            bounds.push(t.release.as_f64());
        }
        (bounds.makespan(), bounds.max_flow(), bounds.sum_flow())
    });
    StreamedInstance {
        platform,
        timeline,
        lb_makespan,
        lb_max_flow,
        lb_sum_flow,
    }
}

/// Drains each instance's task source with no engine attached, inside a
/// `workload.source` span.
pub fn drain_sources(cells: &[Cell], heads: &[usize], rec: &mut Recorder) {
    let mut samplers = SamplerCache::new();
    for &h in heads {
        let cell = &cells[h];
        let platform = cell.platform.realize_with(&mut samplers);
        rec.time("workload.source", |_| {
            let mut source = cell.source(&platform);
            while let Some(t) = source.next_task() {
                std::hint::black_box(t);
            }
        });
    }
}

/// Content keys of `cells`, as the sweep computes them to talk to its store.
pub fn keys(cells: &[Cell], rec: &mut Recorder) -> Vec<String> {
    rec.time("sweep.keys", |_| cells.iter().map(cell_key).collect())
}

/// Writes finished cells into the store at `dir` through one writer.
pub fn store_results(
    dir: &Path,
    keys: &[String],
    results: &[Outcome],
    rec: &mut Recorder,
) -> ResultStore {
    let store = ResultStore::open(dir).expect("open result store");
    rec.time("sweep.store_write", |_| {
        let mut writer = store.writer();
        for (k, r) in keys.iter().zip(results) {
            writer.push(k, r);
        }
        writer.flush().expect("append results");
    });
    store
}

/// Serves `cells` from the store at `dir`, as a warm sweep does: load the
/// store, key the cells, and look each one up. Cells the store does not
/// hold come back as `None`.
pub fn warm_lookup(dir: &Path, cells: &[Cell], rec: &mut Recorder) -> Vec<Option<Outcome>> {
    let known = rec.time("sweep.store_load", |_| {
        let store = ResultStore::open(dir).expect("open result store");
        store.load().expect("load result store").results
    });
    keys(cells, rec)
        .iter()
        .map(|k| known.get(k).cloned())
        .collect()
}
