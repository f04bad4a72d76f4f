//! The three workloads. Each is a closed batch: one *pass* runs a fixed
//! amount of work to completion, in three timed phases — set-up, the cold
//! work, and a resume against a warm result store — and then checks its
//! outputs. A traced pass does the same work through the call-by-call
//! paths of [`crate::exec`], with spans around every call.

use crate::check::{self, Checks, Digest};
use crate::exec::{self, drain_sources, Outcome, Tally, TracedWorker, WORKER_FLUSH_FLOOR};
use crate::trace::Recorder;
use mss_core::{Algorithm, NoopProbe, PlatformClass, SimWorkspace};
use mss_lab::{fig1, fig2, table1, ExperimentScale};
use mss_sweep::{
    aggregate, batch_cost, group_instances, parallel_map_costed, run_batch, spec_from_toml,
    split_batches, try_run_cells, BatchWorker, Cell, PlatformCell, ResultStore, StoreStats,
    SweepConfig, DEFAULT_SPLIT_EVENTS,
};
use mss_workload::{ArrivalProcess, Perturbation};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["paper-grid", "stream-wide", "dynamic-sweep"];

/// Platform draws per Figure 1 panel and per Figure 2 arm (the paper draws
/// 10; more draws make one pass long enough to time steadily).
const PAPER_PLATFORMS: usize = 60;
/// Slaves of the `stream-wide` platform (the top rung of the kernel
/// ladder).
const WIDE_SLAVES: usize = 10_000;
/// Tasks per `stream-wide` run. At this width LS and SLJF cost ~65x more
/// per task than the tree-served SRPT and RR, so their counts are scaled
/// down to give every algorithm a comparable share of the wall time.
const WIDE_RUNS: [(Algorithm, usize); 4] = [
    (Algorithm::Srpt, 200_000),
    (Algorithm::RoundRobin, 200_000),
    (Algorithm::ListScheduling, 2_500),
    (Algorithm::Sljf, 3_500),
];
/// `dynamic-sweep` grid size: platform draws and tasks per cell. Twelve
/// draws make 24 same-instance batches, six in each slice of the cold
/// pass, so work stealing has batches to share in every slice.
const DYNAMIC_PLATFORMS: usize = 12;
const DYNAMIC_TASKS: usize = 1_000;
/// The `dynamic-sweep` cold pass runs its grid in this many slices of
/// whole same-instance batches, one after another into the same store,
/// and times each slice as a unit.
const DYNAMIC_SLICES: usize = 4;
/// Set-up is repeated this many times per pass and its median kept.
const SETUP_REPEATS: usize = 9;

/// Where a run keeps its stores and writes its trace.
pub struct Ctx {
    pub seed: u64,
    pub threads: usize,
    pub out: PathBuf,
}

impl Ctx {
    /// A fresh, empty store directory for `workload`.
    fn empty_store(&self, workload: &str) -> PathBuf {
        let dir = self.out.join(format!("store-{workload}"));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear benchmark store");
        }
        dir
    }
}

/// What a traced pass recorded.
pub struct Traced {
    pub recorders: Vec<Recorder>,
    pub tally: Tally,
    pub store: StoreStats,
    pub worker_idle_s: f64,
    pub games: u64,
}

/// One pass of a workload.
pub struct Pass {
    pub setup_s: f64,
    /// Seconds of the cold work: the sum of `units`.
    pub work_s: f64,
    /// Seconds of each timed unit of the cold work (a batch, a stream run,
    /// a sweep slice), in the same order on every pass.
    pub units: Vec<f64>,
    pub resume_s: f64,
    pub tasks: u64,
    pub cells: u64,
    pub checks: Checks,
    pub digest: u64,
    pub results: Vec<Outcome>,
    pub traced: Option<Traced>,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.work_s + self.resume_s
    }
}

pub fn run_pass(workload: &str, ctx: &Ctx, traced: bool) -> Pass {
    match workload {
        "paper-grid" => paper_grid(ctx, traced),
        "stream-wide" => stream_wide(ctx, traced),
        "dynamic-sweep" => dynamic_sweep(ctx, traced),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times; returns the last output and the
/// median duration. Only the last repeat's spans reach `rec`.
fn timed_setup<T>(rec: &mut Recorder, mut setup: impl FnMut(&mut Recorder) -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut out = None;
    for i in 0..SETUP_REPEATS {
        // The previous repeat's output is dropped outside the timed region.
        drop(out.take());
        let mut scratch = Recorder::new(Instant::now(), 0);
        let target = if i + 1 == SETUP_REPEATS {
            &mut *rec
        } else {
            &mut scratch
        };
        let t0 = Instant::now();
        let value = setup(target);
        secs.push(t0.elapsed().as_secs_f64());
        out = Some(value);
    }
    (out.expect("at least one set-up"), crate::median(&mut secs))
}

fn sweep_config(threads: usize, cache_dir: Option<&Path>, streamed: bool) -> SweepConfig {
    SweepConfig {
        threads,
        cache_dir: cache_dir.map(Path::to_path_buf),
        streamed,
        ..SweepConfig::default()
    }
}

/// Cold streamed execution of `cells` on `threads` into the store at
/// `dir`, which holds none of them yet, call by call: load the store, key
/// the cells, run them batch by batch, and write each batch's results as
/// the sweep's workers do. Worker recorders are numbered from
/// `first_thread`.
fn traced_sweep(
    cells: &[Cell],
    threads: usize,
    dir: &Path,
    epoch: Instant,
    first_thread: usize,
    rec: &mut Recorder,
) -> (Vec<Outcome>, Vec<Recorder>, Tally, f64, StoreStats) {
    let (store, loaded) = rec.time("sweep.store_load", |_| {
        let store = ResultStore::open(dir).expect("open result store");
        let loaded = store.load().expect("load result store");
        (store, loaded.results)
    });
    let keys = exec::keys(cells, rec);
    assert!(
        keys.iter().all(|k| !loaded.contains_key(k)),
        "cold cells start outside the store"
    );
    let all: Vec<usize> = (0..cells.len()).collect();
    let batches = split_batches(
        cells,
        &all,
        group_instances(cells, &all),
        DEFAULT_SPLIT_EVENTS,
    );
    let next_thread = AtomicUsize::new(first_thread);
    let t0 = Instant::now();
    let (fresh, finished) = parallel_map_costed(
        &batches,
        threads,
        |_, b| batch_cost(cells, &all, b),
        || {
            let w = TracedWorker::new(epoch, next_thread.fetch_add(1, Ordering::Relaxed));
            (w, store.writer())
        },
        |(w, writer), _, b| {
            let mut out = Vec::with_capacity(b.len());
            w.batch(cells, &all, b.clone(), true, &mut out);
            w.rec.time("sweep.store_write", |_| {
                for (k, r) in b.clone().zip(&out) {
                    writer.push(&keys[all[k]], r);
                }
                writer
                    .flush_over(WORKER_FLUSH_FLOOR)
                    .expect("append results");
            });
            out
        },
        |(mut w, mut writer)| {
            w.rec.time("sweep.store_write", |_| {
                writer.flush().expect("append results")
            });
            w.finish()
        },
    );
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut tally = Tally::default();
    let mut recorders = Vec::new();
    let mut idle_ns = 0u64;
    for (r, t) in finished {
        idle_ns += wall_ns.saturating_sub(r.busy_ns());
        tally.merge(&t);
        recorders.push(r);
    }
    (
        fresh.into_iter().flatten().collect(),
        recorders,
        tally,
        idle_ns as f64 * 1e-9,
        store.stats(),
    )
}

/// Serves `cells` from the warm store at `dir` and checks every cell came
/// from the store, bit-equal to the cold pass. Returns the resume seconds.
#[allow(clippy::too_many_arguments)]
fn resume(
    cells: &[Cell],
    cold: &[Outcome],
    dir: &Path,
    threads: usize,
    streamed: bool,
    traced: bool,
    rec: &mut Recorder,
    checks: &mut Checks,
) -> f64 {
    let t0 = Instant::now();
    let (warm, served) = if traced {
        let found = exec::warm_lookup(dir, cells, rec);
        let served = found.iter().filter(|r| r.is_some()).count();
        (found.into_iter().flatten().collect::<Vec<_>>(), served)
    } else {
        let out = try_run_cells(cells, &sweep_config(threads, Some(dir), streamed));
        (out.results, if out.executed == 0 { out.cached } else { 0 })
    };
    let secs = t0.elapsed().as_secs_f64();
    checks.op(served == cells.len(), || {
        format!(
            "warm pass served {served} of {} cells from the store",
            cells.len()
        )
    });
    checks.warm(cold, &warm);
    secs
}

fn digest_cells(d: &mut Digest, results: &[Outcome]) {
    d.word(results.len() as u64);
    results.iter().for_each(|r| d.cell(r));
}

/// Checks every cell; returns the tasks the completed cells ran.
///
/// The lower bounds are computed from nominal sizes and speeds, so they
/// certify only runs that never go faster than nominal: perturbed sizes
/// can shrink, so perturbed cells are checked for a finite makespan only.
/// (The dynamic scenarios' failures and drift only ever slow slaves down.)
fn check_cells(checks: &mut Checks, cells: &[Cell], results: &[Outcome]) -> u64 {
    let mut tasks = 0;
    for (c, r) in cells.iter().zip(results) {
        checks.cell(|| c.group_label(), c.perturbation.is_none(), r);
        if r.is_ok() {
            tasks += c.tasks as u64;
        }
    }
    tasks
}

/// Aggregates completed cells against SRPT, as the lab's reports do.
fn aggregate_into(d: &mut Digest, cells: &[Cell], results: &[Outcome], rec: &mut Recorder) {
    let metrics: Option<Vec<_>> = results.iter().map(|r| r.as_ref().ok().cloned()).collect();
    if let Some(metrics) = metrics {
        let rows = rec.time("sweep.aggregate", |_| {
            aggregate(cells, &metrics, Some(Algorithm::Srpt))
        });
        d.aggregate(&rows);
    }
}

// ------------------------------------------------------------ paper-grid

fn paper_cells(seed: u64) -> Vec<Cell> {
    let scale = ExperimentScale {
        platforms: PAPER_PLATFORMS,
        tasks: 1000,
        seed,
    };
    let mut cells = Vec::new();
    for class in [
        PlatformClass::Homogeneous,
        PlatformClass::CommHomogeneous,
        PlatformClass::CompHomogeneous,
        PlatformClass::Heterogeneous,
    ] {
        cells.extend(fig1::panel_cells(class, scale, ArrivalProcess::AllAtZero));
    }
    cells.extend(fig2::report_cells(
        scale,
        ArrivalProcess::UniformStream { load: 0.9 },
        Perturbation::matrix(0.1),
    ));
    cells
}

/// Figures 1(a–d) and 2 at m = 5 plus Table 1's nine adversary games, on
/// one thread, materialized, without a store.
fn paper_grid(ctx: &Ctx, traced: bool) -> Pass {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0);
    // Set-up: the cell list, its instance batches, and a batch worker whose
    // sampler streams already hold every platform the grid draws.
    let ((cells, all, batches, mut plain, mut tw), setup_s) = timed_setup(&mut rec, |rec| {
        let cells = rec.time("sweep.expand", |_| paper_cells(ctx.seed));
        let all: Vec<usize> = (0..cells.len()).collect();
        let batches = group_instances(&cells, &all);
        let (mut plain, mut tw) = if traced {
            (None, Some(TracedWorker::new(epoch, 1)))
        } else {
            (Some(BatchWorker::new()), None)
        };
        let samplers = match (&mut plain, &mut tw) {
            (Some(w), _) => &mut w.samplers,
            (_, Some(w)) => &mut w.samplers,
            _ => unreachable!("one worker is built"),
        };
        rec.time("workload.materialize", |_| {
            for b in &batches {
                cells[b.start].platform.realize_with(samplers);
            }
        });
        (cells, all, batches, plain, tw)
    });
    let mut checks = Checks::default();
    let mut digest = Digest::default();

    let mut units = Vec::with_capacity(batches.len() + 2);
    let mut results = Vec::with_capacity(cells.len());
    for b in &batches {
        let t0 = Instant::now();
        match (&mut plain, &mut tw) {
            (Some(w), _) => run_batch(&cells, &all, b.clone(), w, &mut results),
            (_, Some(w)) => w.batch(&cells, &all, b.clone(), false, &mut results),
            _ => unreachable!("one worker is built"),
        }
        units.push(t0.elapsed().as_secs_f64());
    }
    let batch_ns = (units.iter().sum::<f64>() * 1e9) as u64;
    let t0 = Instant::now();
    aggregate_into(&mut digest, &cells, &results, &mut rec);
    units.push(t0.elapsed().as_secs_f64());
    let config = sweep_config(1, None, false);
    let t0 = Instant::now();
    let table = rec.time("adversary.table1", |_| table1::run_with(&config));
    units.push(t0.elapsed().as_secs_f64());
    let work_s = units.iter().sum();

    digest_cells(&mut digest, &results);
    for c in &table.cells {
        checks.op(c.verified, || {
            format!("Table 1 bound {:?} not verified", c.theorem)
        });
        digest.f64(c.min_measured);
        c.measured.iter().for_each(|(_, r)| digest.f64(*r));
    }
    let tasks = check_cells(&mut checks, &cells, &results);

    let dir = ctx.empty_store("paper-grid");
    let keys = exec::keys(&cells, &mut rec);
    let store = exec::store_results(&dir, &keys, &results, &mut rec).stats();
    let resume_s = resume(
        &cells,
        &results,
        &dir,
        1,
        false,
        traced,
        &mut rec,
        &mut checks,
    );

    let traced = tw.map(|w| {
        // Finished after Table 1, so the kernel tallies include its games.
        let (wrec, tally) = w.finish();
        let idle_ns = batch_ns.saturating_sub(wrec.busy_ns());
        let mut probe = Recorder::new(epoch, 2);
        drain_sources(&cells, &instance_heads(&cells), &mut probe);
        Traced {
            recorders: vec![rec, wrec, probe],
            tally,
            store,
            worker_idle_s: idle_ns as f64 * 1e-9,
            games: (table.cells.len() * Algorithm::ALL.len()) as u64,
        }
    });
    Pass {
        setup_s,
        work_s,
        units,
        resume_s,
        tasks,
        cells: cells.len() as u64,
        checks,
        digest: digest.value(),
        results,
        traced,
    }
}

/// `cells` cut into `n` contiguous slices of whole same-instance batches,
/// each with the same number of batches, give or take one.
fn instance_slices(cells: &[Cell], n: usize) -> Vec<Range<usize>> {
    let heads = instance_heads(cells);
    let starts: Vec<usize> = (0..n).map(|i| heads[i * heads.len() / n]).collect();
    let ends = starts.iter().skip(1).copied().chain([cells.len()]);
    starts.iter().zip(ends).map(|(&a, b)| a..b).collect()
}

/// First cell of every same-instance batch.
fn instance_heads(cells: &[Cell]) -> Vec<usize> {
    let all: Vec<usize> = (0..cells.len()).collect();
    group_instances(cells, &all)
        .into_iter()
        .map(|b| b.start)
        .collect()
}

// ----------------------------------------------------------- stream-wide

/// The kernel ladder's top-rung platform: mildly heterogeneous and
/// compute-bound, with the seed rotating which slave gets which rate.
fn wide_platform(seed: u64) -> PlatformCell {
    let (a, b) = ((seed % 97) as usize, (seed / 97 % 89) as usize);
    PlatformCell::Explicit {
        c: (0..WIDE_SLAVES)
            .map(|j| 0.01 + 1e-4 * ((j + a) % 97) as f64)
            .collect(),
        p: (0..WIDE_SLAVES)
            .map(|j| 2.0 + 0.03 * ((j + b) % 89) as f64)
            .collect(),
    }
}

fn wide_cells(seed: u64) -> Vec<Cell> {
    let platform = wide_platform(seed);
    WIDE_RUNS
        .iter()
        .map(|&(algorithm, tasks)| Cell {
            platform: platform.clone(),
            arrival: ArrivalProcess::UniformStream { load: 0.7 },
            perturbation: None,
            scenario: None,
            tasks,
            algorithm,
            information: mss_core::InfoTier::Clairvoyant,
            replicate: 0,
            task_seed: seed,
        })
        .collect()
}

/// One 10,000-slave platform, a 0.7-load uniform stream pulled lazily
/// through the bounded-memory engine, four algorithms, one thread.
fn stream_wide(ctx: &Ctx, traced: bool) -> Pass {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0);
    let mut worker = traced.then(|| TracedWorker::new(epoch, 1));
    let ((cells, insts, mut schedulers, mut ws), setup_s) = timed_setup(&mut rec, |rec| {
        let cells = rec.time("sweep.expand", |_| wide_cells(ctx.seed));
        let insts: Vec<_> = cells
            .iter()
            .map(|c| {
                if traced {
                    rec.time("workload.materialize", |r| {
                        exec::materialize_streamed(c, c.platform.realize(), r)
                    })
                } else {
                    c.materialize_streamed()
                }
            })
            .collect();
        let schedulers: Vec<_> = cells.iter().map(Cell::build_scheduler).collect();
        (cells, insts, schedulers, SimWorkspace::new())
    });
    if let Some(w) = &mut worker {
        w.tally.materializations = cells.len() as u64;
    }
    let mut checks = Checks::default();

    let mut units = Vec::with_capacity(cells.len());
    let mut results = Vec::with_capacity(cells.len());
    let mut stats = Vec::with_capacity(cells.len());
    for ((cell, inst), sched) in cells.iter().zip(&insts).zip(&mut schedulers) {
        let t0 = Instant::now();
        let r = match &mut worker {
            Some(w) => {
                let ws = &mut w.ws;
                w.tally
                    .engine_run(&mut w.rec, cell.algorithm, sched.as_mut(), |s, c| {
                        cell.try_run_streamed_probed(inst, ws, s, c)
                    })
            }
            None => cell.try_run_streamed_probed(inst, &mut ws, sched.as_mut(), &mut NoopProbe),
        };
        units.push(t0.elapsed().as_secs_f64());
        results.push(r.map(|(m, s)| {
            stats.push(s);
            m
        }));
    }
    let work_s = units.iter().sum();

    let mut digest = Digest::default();
    digest_cells(&mut digest, &results);
    let tasks = check_cells(&mut checks, &cells, &results);
    let pulled: usize = stats.iter().map(|s| s.tasks).sum();
    let released: usize = cells.iter().map(|c| c.tasks).sum();
    checks.op(pulled == released, || {
        format!("pulled {pulled} of {released} tasks")
    });

    let dir = ctx.empty_store("stream-wide");
    let keys = exec::keys(&cells, &mut rec);
    let store = exec::store_results(&dir, &keys, &results, &mut rec).stats();
    let resume_s = resume(
        &cells,
        &results,
        &dir,
        1,
        true,
        traced,
        &mut rec,
        &mut checks,
    );

    let traced = worker.map(|w| {
        let (wrec, mut tally) = w.finish();
        for s in &stats {
            tally.peak_live = tally.peak_live.max(s.peak_live_slots);
            tally.peak_resident = tally.peak_resident.max(s.peak_resident_slots);
        }
        let mut probe = Recorder::new(epoch, 2);
        drain_sources(&cells, &(0..cells.len()).collect::<Vec<_>>(), &mut probe);
        let idle_ns = ((work_s * 1e9) as u64).saturating_sub(wrec.busy_ns());
        Traced {
            worker_idle_s: idle_ns as f64 * 1e-9,
            recorders: vec![rec, wrec, probe],
            tally,
            store,
            games: 0,
        }
    });
    Pass {
        setup_s,
        work_s,
        units,
        resume_s,
        tasks,
        cells: cells.len() as u64,
        checks,
        digest: digest.value(),
        results,
        traced,
    }
}

// --------------------------------------------------------- dynamic-sweep

fn dynamic_spec(seed: u64) -> String {
    format!(
        r#"
        name = "perfbench-dynamic"
        seed = {seed}
        tasks = [{DYNAMIC_TASKS}]
        algorithms = ["all"]
        information = ["clairvoyant", "speed-oblivious", "non-clairvoyant"]

        [[platforms]]
        kind = "class"
        class = "heterogeneous"
        count = {DYNAMIC_PLATFORMS}
        slaves = 100

        [[arrivals]]
        kind = "poisson"
        load = 0.9

        [[scenarios]]
        kind = "static"

        [[scenarios]]
        kind = "dynamic"
        fault = "redispatch"
        horizon = 4000.0
        min_up = 50

        [[scenarios.generators]]
        kind = "poisson-failures"
        mtbf = 2000.0
        repair = "exp"
        repair_mean = 50.0

        [[scenarios.generators]]
        kind = "speed-drift"
        step = 100.0
        sigma = 0.2
        min_factor = 1.0
        max_factor = 2.0
        "#
    )
}

/// 100-slave heterogeneous platforms under Poisson arrivals, static and
/// with failures plus speed drift under `Redispatch`, at all three
/// information tiers: a streamed cold pass on every core into an empty
/// store, then a warm pass over the same grid.
fn dynamic_sweep(ctx: &Ctx, traced: bool) -> Pass {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0);
    let dir = ctx.empty_store("dynamic-sweep");
    let ((cells, slices), setup_s) = timed_setup(&mut rec, |rec| {
        let cells = rec.time("sweep.expand", |_| {
            spec_from_toml(&dynamic_spec(ctx.seed))
                .and_then(|s| s.expand())
                .expect("the dynamic-sweep spec is valid")
        });
        let slices = instance_slices(&cells, DYNAMIC_SLICES);
        (cells, slices)
    });
    let mut checks = Checks::default();
    let mut digest = Digest::default();

    let config = sweep_config(ctx.threads, Some(&dir), true);
    let mut units = Vec::with_capacity(slices.len() + 1);
    let mut results = Vec::with_capacity(cells.len());
    let mut trace: Option<(Vec<Recorder>, Tally, f64, StoreStats)> = None;
    for (i, range) in slices.iter().enumerate() {
        let part = &cells[range.clone()];
        let t0 = Instant::now();
        if traced {
            let first = 1 + i * ctx.threads;
            let (out, recorders, tally, idle, store) =
                traced_sweep(part, ctx.threads, &dir, epoch, first, &mut rec);
            results.extend(out);
            let t = trace.get_or_insert_with(Default::default);
            t.0.extend(recorders);
            t.1.merge(&tally);
            t.2 += idle;
            t.3.appends += store.appends;
            t.3.bytes += store.bytes;
            t.3.lock_contended += store.lock_contended;
            for (sum, n) in t.3.shard_contended.iter_mut().zip(store.shard_contended) {
                *sum += n;
            }
        } else {
            let out = try_run_cells(part, &config);
            checks.op(out.executed == part.len(), || {
                format!("cold slice ran {} of {} cells", out.executed, part.len())
            });
            results.extend(out.results);
        }
        units.push(t0.elapsed().as_secs_f64());
    }
    let t0 = Instant::now();
    aggregate_into(&mut digest, &cells, &results, &mut rec);
    units.push(t0.elapsed().as_secs_f64());
    let work_s = units.iter().sum();

    digest_cells(&mut digest, &results);
    let tasks = check_cells(&mut checks, &cells, &results);
    let resume_s = resume(
        &cells,
        &results,
        &dir,
        ctx.threads,
        true,
        traced,
        &mut rec,
        &mut checks,
    );

    let traced = trace.map(|(mut recorders, tally, idle, store)| {
        let mut probe = Recorder::new(epoch, recorders.len() + 1);
        drain_sources(&cells, &instance_heads(&cells), &mut probe);
        recorders.extend([rec, probe]);
        Traced {
            recorders,
            tally,
            store,
            worker_idle_s: idle,
            games: 0,
        }
    });
    Pass {
        setup_s,
        work_s,
        units,
        resume_s,
        tasks,
        cells: cells.len() as u64,
        checks,
        digest: digest.value(),
        results,
        traced,
    }
}

/// Per-layer metrics of one traced pass, by name, with their units.
pub fn layer_metrics(t: &Traced) -> BTreeMap<String, (f64, &'static str)> {
    let own = crate::trace::self_seconds(&t.recorders);
    let span_s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let c = &t.tally.counters;
    let k = &t.tally.kernel;
    let mut m: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let mut put = |name: &str, v: f64, unit: &'static str| {
        m.insert(name.to_string(), (v, unit));
    };
    put("sim.self_s", span_s("sim.run"), "s");
    put("sim.events", c.events() as f64, "count");
    put("sim.callbacks", c.callbacks as f64, "count");
    put("sim.callbacks_elided", c.callbacks_elided as f64, "count");
    put("sim.view_recomputes", c.view_recomputes as f64, "count");
    put("sim.estimator_updates", c.estimator_updates as f64, "count");
    put("sim.failures", c.failures as f64, "count");
    put("sim.tasks_lost", c.tasks_lost as f64, "count");
    put("sim.tasks_completed", c.computes_completed as f64, "count");
    put("sim.peak_live_slots", t.tally.peak_live as f64, "count");
    put(
        "sim.peak_resident_slots",
        t.tally.peak_resident as f64,
        "count",
    );
    for a in Algorithm::ALL {
        let i = a as usize;
        put(
            &format!("core.decide_s.{}", a.name()),
            t.tally.decide_ns[i] as f64 * 1e-9,
            "s",
        );
        put(
            &format!("core.calls.{}", a.name()),
            t.tally.calls[i] as f64,
            "count",
        );
    }
    put("kernel.queries", k.queries as f64, "count");
    put("kernel.rebuilds", k.rebuilds as f64, "count");
    put("kernel.replayed", k.replayed as f64, "count");
    put("kernel.scans", k.scans as f64, "count");
    put("kernel.hit_ratio", k.hit_ratio().unwrap_or(0.0), "ratio");
    put(
        "workload.materialize_s",
        span_s("workload.materialize"),
        "s",
    );
    put(
        "workload.materializations",
        t.tally.materializations as f64,
        "count",
    );
    put("workload.source_s", span_s("workload.source"), "s");
    put("opt.lower_bounds_s", span_s("opt.lower_bounds"), "s");
    put("scenario.compile_s", span_s("scenario.compile"), "s");
    put("sweep.expand_s", span_s("sweep.expand"), "s");
    let reuse = if t.tally.cells == 0 {
        0.0
    } else {
        1.0 - t.tally.materializations as f64 / t.tally.cells as f64
    };
    put("sweep.batch_reuse_ratio", reuse, "ratio");
    put("sweep.keys_s", span_s("sweep.keys"), "s");
    put("sweep.store_write_s", span_s("sweep.store_write"), "s");
    put("sweep.store_bytes", t.store.bytes as f64, "bytes");
    put("sweep.store_appends", t.store.appends as f64, "count");
    put(
        "sweep.store_contended",
        t.store.lock_contended as f64,
        "count",
    );
    put("sweep.store_load_s", span_s("sweep.store_load"), "s");
    put("sweep.aggregate_s", span_s("sweep.aggregate"), "s");
    put("sweep.worker_idle_s", t.worker_idle_s, "s");
    let mut ms = t.tally.cell_ms.clone();
    ms.sort_by(f64::total_cmp);
    put("sweep.cell_p50_ms", crate::percentile(&ms, 0.50), "ms");
    put("sweep.cell_p99_ms", crate::percentile(&ms, 0.99), "ms");
    put("sweep.cell_samples", ms.len() as f64, "count");
    put("adversary.table1_s", span_s("adversary.table1"), "s");
    put("adversary.games", t.games as f64, "count");
    m
}

/// Self-test input: the results of a pass.
pub fn self_test(pass: &Pass) -> bool {
    check::self_test(&pass.results)
}
