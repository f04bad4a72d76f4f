//! `ms-lab bench` — the reproducible performance baseline.
//!
//! The repository's one bench harness: times the engine, sweep, streamed
//! and decision-kernel hot loops with plain wall-clock timing and emits a
//! schema-stable `BENCH_engine.json`, so the repository records a perf
//! trajectory point per change instead of only printing transient bench
//! output. CI's `bench-smoke` job runs
//! `ms-lab bench --quick` and uploads the JSON as an artifact.
//!
//! Metrics (schema v5):
//!
//! * **events/sec** — discrete events through [`mss_core::simulate_in`] on
//!   the reference workload (5-slave heterogeneous platform, bag of tasks,
//!   List Scheduling, reused [`SimWorkspace`]). A static run processes
//!   exactly `3·n` events (release, send-complete, compute-complete per
//!   task), so the count is deterministic and comparable across machines
//!   of the same class. Best-of-`iters` timing (robust to scheduler noise).
//! * **cells/sec** — sweep-grid cells through [`mss_sweep::run_cells`]
//!   (cache disabled, instance-major batched execution), reported three
//!   ways: the 56-cell reference grid at **1 thread** (directly comparable
//!   with every earlier trajectory point), the same grid at **max
//!   threads** (`--threads`; captures parallel scaling), and a larger
//!   multi-algorithm grid (two task counts, eight platform draws) at max
//!   threads.
//! * **scaling curve** — the reference grid re-run with a live result
//!   store at threads 1, 2, and max: cells/sec, parallel efficiency
//!   against the 1-thread point, and the sharded store's lock-contention
//!   ratio per point. Work distribution is observationally pure (contract
//!   #14), so every point produces byte-identical store records — the
//!   curve measures pure scheduling overhead.
//! * **tasks/sec (streamed)** — the `stream/1M-tasks-100-slaves` entry: a
//!   million-task uniform stream pulled lazily from a seeded
//!   [`mss_workload::GeneratedSource`] on a 100-slave platform through the
//!   bounded-memory engine ([`mss_core::simulate_objectives_in`] over a
//!   source),
//!   recording throughput plus the live/resident task-slot high-water
//!   marks the streaming contract (#13) caps at O(slaves + outstanding).
//! * **allocs_per_event_steady_state** — the engine's zero-allocation
//!   contract. Not measured here (a global counting allocator would tax
//!   every run); it is *enforced* at 0 by
//!   `crates/sim/tests/zero_alloc.rs` and recorded for the schema (CI's
//!   bench-smoke job fails if it ever reads non-zero or the schema tag
//!   drifts from the committed BENCH_engine.json).

use mss_core::{
    bag_of_tasks, simulate_in, simulate_objectives_in, Algorithm, NoopProbe, Platform, RunCounters,
    SimConfig, SimWorkspace, Timeline,
};
use mss_sweep::{run_cells, spec_from_toml, SweepConfig};
use mss_workload::{ArrivalProcess, GeneratedSource, TaskSource};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Schema identifier written into the JSON (bump on layout changes).
/// v2: sweep timings split into 1-thread / max-threads / large-grid.
/// v3: adds `elided_callback_ratio` (probed reference engine run) and
/// `batch_reuse_ratio` (instance-major materialization sharing on the
/// reference grid).
/// v4: adds the `stream` entry (`stream/1M-tasks-100-slaves`): tasks/sec
/// through the bounded-memory streamed engine plus its task-slot
/// high-water marks.
/// v5: adds the `scaling` curve — the reference grid re-run with a live
/// result store at threads 1, 2, and max, each point recording cells/sec,
/// parallel efficiency against the 1-thread point, and the store's
/// lock-contention ratio.
/// v6: adds the `kernel_scaling` ladder — the streamed SRPT workload at
/// m = 5/100/1k/10k slaves on the incremental decision kernel vs the
/// historical linear scan (objectives asserted bit-equal inline) — and
/// annotates every `scaling` point with the detected CPU count plus an
/// `advisory` flag (`threads > cpus`: the point oversubscribes the
/// machine, so its parallel efficiency is not meaningful and `--compare`
/// skips it).
pub const BENCH_SCHEMA: &str = "mss-bench/v6";

/// Timing of the engine hot loop.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct EngineBench {
    /// Tasks per run.
    pub tasks: usize,
    /// Slaves on the reference platform.
    pub slaves: usize,
    /// Timed iterations (after one warm-up).
    pub iters: usize,
    /// Events processed per iteration (`3 · tasks`, exact).
    pub events_per_iter: u64,
    /// Best iteration wall time, seconds.
    pub best_secs: f64,
    /// Mean iteration wall time, seconds.
    pub mean_secs: f64,
    /// `events_per_iter / best_secs`.
    pub events_per_sec: f64,
}

/// Timing of the sweep-orchestrator hot loop.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct SweepBench {
    /// Cells in the reference grid.
    pub cells: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Timed iterations (after one warm-up).
    pub iters: usize,
    /// Best iteration wall time, seconds.
    pub best_secs: f64,
    /// `cells / best_secs`.
    pub cells_per_sec: f64,
}

/// One point of the parallel-scaling curve: the reference grid executed
/// with a live (initially empty) result store at a fixed thread count.
///
/// Unlike the `sweep*` entries — which run storeless so their cells/sec
/// stays comparable with pre-v5 trajectory points — the scaling points
/// include the store's serialize-and-flush work, so the curve reflects the
/// full parallel pipeline: work-stealing execution plus sharded persists.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ScalingPoint {
    /// Worker threads used.
    pub threads: usize,
    /// Cells in the reference grid.
    pub cells: usize,
    /// Best iteration wall time, seconds.
    pub best_secs: f64,
    /// `cells / best_secs`.
    pub cells_per_sec: f64,
    /// Speedup over the curve's 1-thread point divided by `threads`
    /// (`1.0` for the 1-thread point by construction; near `1.0` at higher
    /// thread counts means linear scaling, `1/threads` means none).
    pub parallel_efficiency: f64,
    /// The run's store-contention ratio (contended flushes per append,
    /// [`mss_obs::StoreStats::contention_ratio`]); near zero means the
    /// sharded store never made a worker wait.
    pub store_contention_ratio: f64,
    /// CPUs detected on the machine that produced the point
    /// (`std::thread::available_parallelism`; `1` when undetectable).
    pub cpus: usize,
    /// `threads > cpus`: the point oversubscribed the machine, so its
    /// throughput and parallel efficiency measure contention, not scaling
    /// (a 2-thread point on a 1-CPU container reports efficiency ≈ 0.5
    /// without any real regression). Advisory points are kept for the
    /// record but skipped by [`compare`].
    pub advisory: bool,
}

/// One rung of the slave-count scaling ladder (schema v6): the same
/// streamed SRPT workload timed on the incremental decision kernel
/// ([`mss_core::Srpt::new`]) and on the historical linear-scan reference
/// ([`mss_core::Srpt::scan_reference`]). The two runs' objectives are
/// asserted bit-equal inline — the ladder measures pure decision-path
/// speed, never a behavioral difference.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct KernelScalingPoint {
    /// Slaves on the ladder platform.
    pub slaves: usize,
    /// Tasks pulled through the stream per iteration.
    pub tasks: usize,
    /// Timed iterations (after one warm-up), per path.
    pub iters: usize,
    /// Events per iteration (`3 · tasks`, exact for a static run).
    pub events_per_iter: u64,
    /// Events/sec through the incremental kernel path.
    pub kernel_events_per_sec: f64,
    /// Events/sec through the linear-scan reference path.
    pub scan_events_per_sec: f64,
    /// `kernel_events_per_sec / scan_events_per_sec`.
    pub speedup: f64,
    /// Kernel argmin queries over the timed kernel runs.
    pub kernel_queries: u64,
    /// Full tree rebuilds among those queries.
    pub kernel_rebuilds: u64,
    /// Journal entries replayed into the tree (incremental updates).
    pub kernel_replayed: u64,
    /// Queries answered by the scan fallback (small `m` or no journal).
    pub kernel_scans: u64,
    /// Fraction of queries answered incrementally (no rebuild, no scan).
    pub kernel_hit_ratio: f64,
}

/// Timing of the bounded-memory streamed engine loop
/// (`stream/1M-tasks-100-slaves` at full scale).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct StreamBench {
    /// Entry name (`stream/<tasks>-tasks-<slaves>-slaves`).
    pub name: String,
    /// Tasks pulled through the stream per iteration.
    pub tasks: usize,
    /// Slaves on the streaming platform.
    pub slaves: usize,
    /// Timed iterations (after one warm-up).
    pub iters: usize,
    /// Best iteration wall time, seconds.
    pub best_secs: f64,
    /// `tasks / best_secs`.
    pub tasks_per_sec: f64,
    /// High-water mark of *live* task slots — the bounded-memory contract
    /// (#13) caps this at O(slaves + outstanding), independent of `tasks`.
    pub peak_live_slots: usize,
    /// High-water mark of *resident* task slots (live plus finalized slots
    /// the recycler had not yet reclaimed).
    pub peak_resident_slots: usize,
}

/// The full `BENCH_engine.json` payload.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct BenchReport {
    /// Schema tag ([`BENCH_SCHEMA`]).
    pub schema: String,
    /// `true` for `--quick` (reduced workload; numbers are not comparable
    /// with full-scale entries).
    pub quick: bool,
    /// Engine hot-loop timing.
    pub engine: EngineBench,
    /// Reference sweep at 1 thread (the trajectory-comparable number).
    pub sweep: SweepBench,
    /// Reference sweep at max threads (parallel scaling).
    pub sweep_max: SweepBench,
    /// Larger multi-algorithm grid at max threads.
    pub sweep_large: SweepBench,
    /// Parallel-scaling curve over the reference grid with a live result
    /// store: threads 1, 2, and max (deduplicated, ascending).
    pub scaling: Vec<ScalingPoint>,
    /// Slave-count scaling ladder: streamed SRPT at m = 5/100/1k/10k
    /// (truncated under `--quick`), incremental kernel vs linear scan.
    pub kernel_scaling: Vec<KernelScalingPoint>,
    /// Bounded-memory streamed engine loop: a million-task instance pulled
    /// lazily from a seeded [`GeneratedSource`] on a 100-slave platform
    /// (scaled down under `--quick`).
    pub stream: StreamBench,
    /// Steady-state heap allocations per engine event — the contract
    /// enforced by `crates/sim/tests/zero_alloc.rs`.
    pub allocs_per_event_steady_state: f64,
    /// Fraction of scheduler callbacks the engine elided on the (poll-
    /// driven) reference workload, measured by a probed re-run of the
    /// engine bench — the callback-elision optimization in one number.
    pub elided_callback_ratio: f64,
    /// Fraction of the reference grid's executed cells that reused a
    /// batch-mate's materialization (instance-major batching win).
    pub batch_reuse_ratio: f64,
}

fn time_loop<F: FnMut()>(iters: usize, mut f: F) -> (f64, f64) {
    f(); // warm-up (also sizes reusable buffers)
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        let secs = start.elapsed().as_secs_f64();
        best = best.min(secs);
        total += secs;
    }
    (best, total / iters as f64)
}

fn engine_bench(quick: bool) -> (EngineBench, f64) {
    // The reference workload of `bench_engine`'s task-scaling group.
    let platform = Platform::from_vectors(&[0.1, 0.3, 0.5, 0.7, 0.9], &[1.0, 2.0, 3.0, 4.0, 5.0]);
    let (tasks_n, iters) = if quick { (500, 5) } else { (2000, 15) };
    let tasks = bag_of_tasks(tasks_n);
    let cfg = SimConfig::with_horizon(tasks_n);
    let mut ws = SimWorkspace::new();
    let (best, mean) = time_loop(iters, || {
        let trace = simulate_in(
            &mut ws,
            &platform,
            &tasks,
            &cfg,
            &Timeline::EMPTY,
            &mut Algorithm::ListScheduling.build(),
            &mut NoopProbe,
        )
        .expect("reference workload simulates");
        assert_eq!(trace.len(), tasks_n);
    });
    // One probed re-run (outside the timed loop, so timings stay
    // comparable with earlier trajectory points) measures callback elision
    // on the same workload.
    let mut counters = RunCounters::new();
    simulate_in(
        &mut ws,
        &platform,
        &tasks,
        &cfg,
        &Timeline::EMPTY,
        &mut Algorithm::ListScheduling.build(),
        &mut counters,
    )
    .expect("probed reference workload simulates");
    let events = 3 * tasks_n as u64;
    (
        EngineBench {
            tasks: tasks_n,
            slaves: platform.num_slaves(),
            iters,
            events_per_iter: events,
            best_secs: best,
            mean_secs: mean,
            events_per_sec: events as f64 / best,
        },
        counters.elided_callback_ratio(),
    )
}

fn stream_bench(quick: bool) -> StreamBench {
    // 100 mildly heterogeneous slaves, compute-bound (cheap links) so the
    // one-port master never saturates; a 0.7-load uniform stream keeps the
    // outstanding set small and stationary — the live task-slot peak must
    // stay O(slaves + outstanding) no matter how many tasks flow through.
    let slaves = 100;
    let c: Vec<f64> = (0..slaves).map(|j| 0.01 + 0.0001 * j as f64).collect();
    let p: Vec<f64> = (0..slaves).map(|j| 2.0 + 0.03 * j as f64).collect();
    let platform = Platform::from_vectors(&c, &p);
    let (n, iters, name) = if quick {
        (50_000, 2, "stream/50k-tasks-100-slaves")
    } else {
        (1_000_000, 3, "stream/1M-tasks-100-slaves")
    };
    let cfg = SimConfig::with_horizon(n);
    let mut ws = SimWorkspace::new();
    let mut source = GeneratedSource::new(
        ArrivalProcess::UniformStream { load: 0.7 },
        n,
        &platform,
        42,
    );
    let mut scheduler = Algorithm::ListScheduling.build();
    let mut peak_live = 0usize;
    let mut peak_resident = 0usize;
    let (best, _) = time_loop(iters, || {
        source.reset();
        let stats = simulate_objectives_in(
            &mut ws,
            &platform,
            &mut source,
            &cfg,
            &Timeline::EMPTY,
            scheduler.as_mut(),
            &mut NoopProbe,
        )
        .expect("streamed reference workload simulates");
        assert_eq!(stats.tasks, n);
        peak_live = stats.peak_live_slots;
        peak_resident = stats.peak_resident_slots;
    });
    StreamBench {
        name: name.to_string(),
        tasks: n,
        slaves,
        iters,
        best_secs: best,
        tasks_per_sec: n as f64 / best,
        peak_live_slots: peak_live,
        peak_resident_slots: peak_resident,
    }
}

/// CPUs visible to this process (1 when the platform cannot say).
fn detected_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One rung of the slave-count ladder: a streamed SRPT run at `m` slaves,
/// timed on the incremental kernel and on the linear-scan reference, with
/// the objectives of the two paths asserted bit-equal.
fn kernel_point(m: usize, quick: bool) -> KernelScalingPoint {
    // Mildly heterogeneous, compute-bound (cheap links) — same family as
    // the `stream` entry, scaled in m. Moduli keep the rate spread fixed
    // as m grows so rungs differ only in slave count.
    let c: Vec<f64> = (0..m).map(|j| 0.01 + 1e-4 * (j % 97) as f64).collect();
    let p: Vec<f64> = (0..m).map(|j| 2.0 + 0.03 * (j % 89) as f64).collect();
    let platform = Platform::from_vectors(&c, &p);
    let (tasks, iters) = if quick {
        ((2 * m).clamp(500, 2_000), 1)
    } else {
        ((4 * m).clamp(5_000, 40_000), 2)
    };
    let cfg = SimConfig::with_horizon(tasks);
    let mut ws = SimWorkspace::new();
    let mut source = GeneratedSource::new(
        ArrivalProcess::UniformStream { load: 0.7 },
        tasks,
        &platform,
        42,
    );
    let mut run_path = |scheduler: &mut dyn mss_core::OnlineScheduler| {
        let mut objectives = None;
        let (best, _) = time_loop(iters, || {
            source.reset();
            let stats = simulate_objectives_in(
                &mut ws,
                &platform,
                &mut source,
                &cfg,
                &Timeline::EMPTY,
                scheduler,
                &mut NoopProbe,
            )
            .expect("ladder workload simulates");
            assert_eq!(stats.tasks, tasks);
            objectives = Some(stats.objectives);
        });
        (best, objectives.expect("at least one timed iteration"))
    };
    let (scan_best, scan_obj) = run_path(&mut mss_core::Srpt::scan_reference());
    mss_obs::kernel_stats_reset();
    let (kernel_best, kernel_obj) = run_path(&mut mss_core::Srpt::new());
    let stats = mss_obs::kernel_stats_snapshot();
    assert_eq!(
        kernel_obj, scan_obj,
        "kernel and scan paths must be bit-identical at m = {m}"
    );
    let events = 3 * tasks as u64;
    KernelScalingPoint {
        slaves: m,
        tasks,
        iters,
        events_per_iter: events,
        kernel_events_per_sec: events as f64 / kernel_best,
        scan_events_per_sec: events as f64 / scan_best,
        speedup: scan_best / kernel_best,
        kernel_queries: stats.queries,
        kernel_rebuilds: stats.rebuilds,
        kernel_replayed: stats.replayed,
        kernel_scans: stats.scans,
        kernel_hit_ratio: stats.hit_ratio().unwrap_or(0.0),
    }
}

fn kernel_ladder(quick: bool) -> Vec<KernelScalingPoint> {
    let rungs: &[usize] = if quick {
        &[5, 100, 1_000]
    } else {
        &[5, 100, 1_000, 10_000]
    };
    rungs.iter().map(|&m| kernel_point(m, quick)).collect()
}

fn grid_spec(name: &str, tasks: &str, count: usize) -> mss_sweep::SweepSpec {
    spec_from_toml(&format!(
        r#"
        name = "{name}"
        seed = 42
        tasks = {tasks}
        algorithms = ["all"]

        [[platforms]]
        kind = "class"
        class = "heterogeneous"
        count = {count}
        slaves = 5

        [[arrivals]]
        kind = "bag"

        [[arrivals]]
        kind = "poisson"
        load = 0.9
        "#
    ))
    .expect("bench grid parses")
}

fn sweep_bench(spec: &mss_sweep::SweepSpec, iters: usize, threads: usize) -> (SweepBench, f64) {
    let cells = spec.expand().expect("bench grid expands");
    let n = cells.len();
    let config = SweepConfig {
        threads,
        cache_dir: None,
        ..SweepConfig::default()
    };
    let mut reuse = 0.0;
    let (best, _) = time_loop(iters, || {
        let outcome = run_cells(cells.clone(), &config);
        assert_eq!(outcome.executed, n);
        reuse = outcome.stats.batch_reuse_ratio();
    });
    (
        SweepBench {
            cells: n,
            threads,
            iters,
            best_secs: best,
            cells_per_sec: n as f64 / best,
        },
        reuse,
    )
}

/// Measures one scaling point: the reference grid with a live result
/// store at `threads` workers. Every iteration starts from an empty store
/// directory so all cells execute (nothing is served from cache) and the
/// flush path — where shard-lock contention can appear — is exercised.
/// `parallel_efficiency` is filled in by the caller once the 1-thread
/// point is known.
fn scaling_bench(spec: &mss_sweep::SweepSpec, iters: usize, threads: usize) -> ScalingPoint {
    // Concurrent benches in one process (the test harness runs two) must
    // not share store directories, or one serves the other's cells.
    static CALL: AtomicUsize = AtomicUsize::new(0);
    let cells = spec.expand().expect("bench grid expands");
    let n = cells.len();
    let base = std::env::temp_dir().join(format!(
        "mss-bench-scaling-{}-{}-t{}",
        std::process::id(),
        CALL.fetch_add(1, Ordering::Relaxed),
        threads
    ));
    let mut iteration = 0usize;
    let mut contention = 0.0;
    let (best, _) = time_loop(iters, || {
        let dir = base.join(iteration.to_string());
        iteration += 1;
        let config = SweepConfig {
            threads,
            cache_dir: Some(dir),
            ..SweepConfig::default()
        };
        let outcome = run_cells(cells.clone(), &config);
        assert_eq!(outcome.executed, n, "empty store: every cell executes");
        contention = outcome.stats.store.contention_ratio();
    });
    let _ = std::fs::remove_dir_all(&base);
    let cpus = detected_cpus();
    ScalingPoint {
        threads,
        cells: n,
        best_secs: best,
        cells_per_sec: n as f64 / best,
        parallel_efficiency: 1.0,
        store_contention_ratio: contention,
        cpus,
        advisory: threads > cpus,
    }
}

/// Runs the hot loops and assembles the report. `threads` is the "max
/// threads" used for the parallel-scaling entries (the 1-thread reference
/// entry is always measured as well).
pub fn run(quick: bool, threads: usize) -> BenchReport {
    // The reference grid of `bench_sweep` (56 cells at full scale, the
    // grid every BENCH_engine.json trajectory point reports), scaled down
    // under --quick; plus a larger multi-algorithm grid.
    let (reference, large, iters) = if quick {
        (
            grid_spec("bench-grid", "[60]", 2),
            grid_spec("bench-grid-large", "[60, 120]", 4),
            2,
        )
    } else {
        (
            grid_spec("bench-grid", "[120]", 4),
            grid_spec("bench-grid-large", "[120, 240]", 8),
            3,
        )
    };
    let (engine, elided_callback_ratio) = engine_bench(quick);
    let (sweep, batch_reuse_ratio) = sweep_bench(&reference, iters, 1);
    let (sweep_max, _) = sweep_bench(&reference, iters, threads);
    let (sweep_large, _) = sweep_bench(&large, iters, threads);
    let stream = stream_bench(quick);
    let mut curve_threads = vec![1, 2, threads.max(1)];
    curve_threads.sort_unstable();
    curve_threads.dedup();
    let mut scaling: Vec<ScalingPoint> = curve_threads
        .into_iter()
        .map(|t| scaling_bench(&reference, iters, t))
        .collect();
    let base_cps = scaling[0].cells_per_sec;
    for point in &mut scaling {
        point.parallel_efficiency = point.cells_per_sec / (point.threads as f64 * base_cps);
    }
    let kernel_scaling = kernel_ladder(quick);
    BenchReport {
        schema: BENCH_SCHEMA.to_string(),
        quick,
        engine,
        sweep,
        sweep_max,
        sweep_large,
        scaling,
        kernel_scaling,
        stream,
        allocs_per_event_steady_state: 0.0,
        elided_callback_ratio,
        batch_reuse_ratio,
    }
}

impl BenchReport {
    /// Human-readable summary for the terminal.
    pub fn render(&self) -> String {
        let sweep_line = |label: &str, s: &SweepBench| {
            format!(
                "{label} {} cells on {} threads, best {:.3} s -> {:.1} cells/sec",
                s.cells, s.threads, s.best_secs, s.cells_per_sec
            )
        };
        let scaling_lines = self
            .scaling
            .iter()
            .map(|p| {
                format!(
                    "scaling: {:>2} threads ({} cpus{}) -> {:>8.1} cells/sec, efficiency {:.2}, \
                     store contention {:.3}",
                    p.threads,
                    p.cpus,
                    if p.advisory { ", ADVISORY" } else { "" },
                    p.cells_per_sec,
                    p.parallel_efficiency,
                    p.store_contention_ratio
                )
            })
            .collect::<Vec<_>>()
            .join("\n");
        let kernel_lines = self
            .kernel_scaling
            .iter()
            .map(|k| {
                format!(
                    "kernel:  m = {:>5} -> {:>10.0} events/sec (scan {:>10.0}), speedup {:.2}x, \
                     hit ratio {:.3}",
                    k.slaves,
                    k.kernel_events_per_sec,
                    k.scan_events_per_sec,
                    k.speedup,
                    k.kernel_hit_ratio
                )
            })
            .collect::<Vec<_>>()
            .join("\n");
        format!(
            "engine: {} tasks x {} slaves, {} events/iter, best {:.3} ms -> {:.0} events/sec\n\
             {}\n{}\n{}\n{scaling_lines}\n{kernel_lines}\n\
             {}: {} tasks x {} slaves, best {:.3} s -> {:.0} tasks/sec \
             (peak slots: {} live / {} resident)\n\
             allocs/event (steady state): {} (enforced by crates/sim/tests/zero_alloc.rs)\n\
             elided callbacks (reference engine run): {:.1}%; batch reuse (reference grid): {:.1}%",
            self.engine.tasks,
            self.engine.slaves,
            self.engine.events_per_iter,
            self.engine.best_secs * 1e3,
            self.engine.events_per_sec,
            sweep_line("sweep:      ", &self.sweep),
            sweep_line("sweep(max): ", &self.sweep_max),
            sweep_line("sweep(large):", &self.sweep_large),
            self.stream.name,
            self.stream.tasks,
            self.stream.slaves,
            self.stream.best_secs,
            self.stream.tasks_per_sec,
            self.stream.peak_live_slots,
            self.stream.peak_resident_slots,
            self.allocs_per_event_steady_state,
            self.elided_callback_ratio * 100.0,
            self.batch_reuse_ratio * 100.0,
        )
    }

    /// Writes the report as pretty JSON to `path`; returns the path.
    ///
    /// # Panics
    /// Panics if the file cannot be written.
    pub fn write(&self, path: &Path) -> PathBuf {
        let body = serde_json::to_string_pretty(self).expect("serialize bench report");
        std::fs::write(path, body).expect("write bench report");
        path.to_path_buf()
    }
}

/// One tracked metric's movement between two bench reports.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct BenchDelta {
    /// Metric name (`engine.events_per_sec`, `sweep.cells_per_sec`, …).
    pub metric: String,
    /// Previous value (throughput; higher is better).
    pub old: f64,
    /// Current value.
    pub new: f64,
    /// `(new - old) / old · 100` — negative means slower.
    pub change_pct: f64,
}

/// The result of `ms-lab bench --compare OLD.json`.
pub struct BenchComparison {
    /// Per-metric deltas in schema order.
    pub deltas: Vec<BenchDelta>,
    /// Regression threshold in percent (a metric this much slower fails).
    pub threshold_pct: f64,
    /// Caveats that make the comparison unreliable (schema or scale
    /// mismatch between the two reports).
    pub caveats: Vec<String>,
}

/// Compares the throughput metrics of two bench reports: the five scalar
/// entries, the non-advisory `scaling` points (matched by thread count),
/// and the `kernel_scaling` rungs (matched by slave count).
/// `threshold_pct` is how many percent *slower* a metric may run before
/// it counts as a regression (wall-clock benches are noisy; the CI
/// default of 20 % tolerates machine jitter while catching real cliffs).
///
/// Advisory scaling points (threads > detected CPUs on either side) are
/// skipped with a caveat: an oversubscribed point measures contention on
/// that particular machine, so a delta against it flags phantom
/// regressions whenever the CPU count changes between runs.
pub fn compare(old: &BenchReport, new: &BenchReport, threshold_pct: f64) -> BenchComparison {
    let mut caveats = Vec::new();
    if old.schema != new.schema {
        caveats.push(format!(
            "schema mismatch: old {} vs new {}",
            old.schema, new.schema
        ));
    }
    if old.quick != new.quick {
        caveats.push(
            "scale mismatch: one report is --quick — throughputs are not comparable".to_string(),
        );
    }
    let mut pairs: Vec<(String, f64, f64)> = vec![
        (
            "engine.events_per_sec".into(),
            old.engine.events_per_sec,
            new.engine.events_per_sec,
        ),
        (
            "sweep.cells_per_sec".into(),
            old.sweep.cells_per_sec,
            new.sweep.cells_per_sec,
        ),
        (
            "sweep_max.cells_per_sec".into(),
            old.sweep_max.cells_per_sec,
            new.sweep_max.cells_per_sec,
        ),
        (
            "sweep_large.cells_per_sec".into(),
            old.sweep_large.cells_per_sec,
            new.sweep_large.cells_per_sec,
        ),
        (
            "stream.tasks_per_sec".into(),
            old.stream.tasks_per_sec,
            new.stream.tasks_per_sec,
        ),
    ];
    for np in &new.scaling {
        let Some(op) = old.scaling.iter().find(|o| o.threads == np.threads) else {
            continue;
        };
        if np.advisory || op.advisory {
            caveats.push(format!(
                "scaling@{}t skipped: advisory (threads exceed detected CPUs)",
                np.threads
            ));
            continue;
        }
        pairs.push((
            format!("scaling@{}t.cells_per_sec", np.threads),
            op.cells_per_sec,
            np.cells_per_sec,
        ));
    }
    for np in &new.kernel_scaling {
        let Some(op) = old.kernel_scaling.iter().find(|o| o.slaves == np.slaves) else {
            continue;
        };
        pairs.push((
            format!("kernel@m{}.events_per_sec", np.slaves),
            op.kernel_events_per_sec,
            np.kernel_events_per_sec,
        ));
    }
    let deltas = pairs
        .into_iter()
        .map(|(metric, o, n)| BenchDelta {
            metric,
            old: o,
            new: n,
            change_pct: if o > 0.0 { (n - o) / o * 100.0 } else { 0.0 },
        })
        .collect();
    BenchComparison {
        deltas,
        threshold_pct,
        caveats,
    }
}

impl BenchComparison {
    /// Metrics that regressed past the threshold.
    pub fn regressions(&self) -> Vec<&BenchDelta> {
        self.deltas
            .iter()
            .filter(|d| d.change_pct < -self.threshold_pct)
            .collect()
    }

    /// Human-readable delta table plus the verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.caveats {
            out.push_str(&format!("warning: {c}\n"));
        }
        out.push_str("metric                      old          new       change\n");
        for d in &self.deltas {
            out.push_str(&format!(
                "{:<24} {:>12.1} {:>12.1}  {:>+7.1}%\n",
                d.metric, d.old, d.new, d.change_pct
            ));
        }
        let regs = self.regressions();
        if regs.is_empty() {
            out.push_str(&format!(
                "no regression beyond {:.0}% threshold",
                self.threshold_pct
            ));
        } else {
            out.push_str(&format!(
                "REGRESSION (>{:.0}% slower): {}",
                self.threshold_pct,
                regs.iter()
                    .map(|d| d.metric.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        out
    }
}

/// Loads a previously written `BENCH_engine.json`.
pub fn load_report(path: &Path) -> Result<BenchReport, String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_round_trips() {
        let report = run(true, 2);
        assert_eq!(report.schema, BENCH_SCHEMA);
        assert!(report.quick);
        assert_eq!(
            report.engine.events_per_iter,
            3 * report.engine.tasks as u64
        );
        assert!(report.engine.events_per_sec > 0.0);
        assert!(report.sweep.cells_per_sec > 0.0);
        assert_eq!(report.allocs_per_event_steady_state, 0.0);
        // The scaling curve covers threads 1, 2 and max (deduplicated,
        // ascending), anchored at an efficiency of exactly 1.0.
        assert!(report.scaling.len() >= 2);
        assert_eq!(report.scaling[0].threads, 1);
        assert_eq!(report.scaling[1].threads, 2);
        assert!(report
            .scaling
            .windows(2)
            .all(|w| w[0].threads < w[1].threads));
        assert_eq!(report.scaling[0].parallel_efficiency, 1.0);
        for p in &report.scaling {
            assert!(p.cells_per_sec > 0.0);
            assert!(p.parallel_efficiency > 0.0);
            assert!(p.store_contention_ratio >= 0.0);
            assert!(p.cpus >= 1, "detected CPU count is annotated");
            assert_eq!(p.advisory, p.threads > p.cpus);
        }
        // The kernel ladder (truncated under --quick) runs both decision
        // paths at every rung; objectives are asserted bit-equal inside
        // the bench itself, so reaching here means the paths agreed.
        assert_eq!(
            report
                .kernel_scaling
                .iter()
                .map(|k| k.slaves)
                .collect::<Vec<_>>(),
            vec![5, 100, 1_000],
            "--quick ladder rungs"
        );
        for k in &report.kernel_scaling {
            assert!(k.kernel_events_per_sec > 0.0);
            assert!(k.scan_events_per_sec > 0.0);
            assert!(k.speedup > 0.0);
            assert_eq!(k.events_per_iter, 3 * k.tasks as u64);
            assert!((0.0..=1.0).contains(&k.kernel_hit_ratio));
        }
        // Above the tree threshold the kernel must actually answer
        // incrementally, not via the scan fallback.
        let top = report.kernel_scaling.last().unwrap();
        assert!(
            top.kernel_queries > 0 && top.kernel_hit_ratio > 0.5,
            "m = {} should be tree-served: {top:?}",
            top.slaves
        );
        // The streamed entry completes the whole instance in bounded
        // memory: the live-slot peak is O(slaves + outstanding), nowhere
        // near the task count.
        assert_eq!(report.stream.tasks, 50_000, "--quick scale");
        assert!(report.stream.tasks_per_sec > 0.0);
        assert!(
            report.stream.peak_live_slots <= 16 * report.stream.slaves + 256,
            "live task-slot peak {} is not O(slaves + outstanding)",
            report.stream.peak_live_slots
        );
        assert!(report.stream.peak_resident_slots >= report.stream.peak_live_slots);
        // LS is poll-driven: most callbacks on the reference run are
        // elided; and the 7-algorithm grid shares each materialization.
        assert!(report.elided_callback_ratio > 0.0 && report.elided_callback_ratio <= 1.0);
        assert!(report.batch_reuse_ratio > 0.5 && report.batch_reuse_ratio < 1.0);

        let json = serde_json::to_string(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.engine.tasks, report.engine.tasks);
        assert_eq!(back.scaling.len(), report.scaling.len());
        assert!(report.render().contains("events/sec"));
        assert!(report.render().contains("store contention"));
        assert!(report.render().contains("speedup"));
    }

    #[test]
    fn comparison_flags_only_past_threshold_regressions() {
        let new = run(true, 2);
        let same = compare(&new, &new, 20.0);
        assert!(same.regressions().is_empty());
        assert!(same.render().contains("no regression"));
        // Five scalar metrics, plus one per non-advisory scaling point,
        // plus one per kernel-ladder rung; advisory points are skipped
        // with a caveat instead of compared.
        let advisory = new.scaling.iter().filter(|p| p.advisory).count();
        let expected = 5 + (new.scaling.len() - advisory) + new.kernel_scaling.len();
        assert_eq!(same.deltas.len(), expected);
        assert_eq!(same.caveats.len(), advisory);
        for p in new.scaling.iter().filter(|p| p.advisory) {
            let name = format!("scaling@{}t.cells_per_sec", p.threads);
            assert!(
                same.deltas.iter().all(|d| d.metric != name),
                "advisory point {name} must not be compared"
            );
        }
        assert!(same.deltas.iter().all(|d| d.change_pct == 0.0));

        // A 50 % faster "old" engine makes the new one a 33 % regression.
        let mut old = new.clone();
        old.engine.events_per_sec *= 1.5;
        let cmp = compare(&old, &new, 20.0);
        let regs = cmp.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "engine.events_per_sec");
        assert!(cmp.render().contains("REGRESSION"));
        // The same slowdown passes under a 40 % threshold.
        assert!(compare(&old, &new, 40.0).regressions().is_empty());

        // Mismatched scales are called out (on top of any advisory skips).
        let mut quick_old = new.clone();
        quick_old.quick = false;
        let advisory = new.scaling.iter().filter(|p| p.advisory).count();
        assert_eq!(compare(&quick_old, &new, 20.0).caveats.len(), 1 + advisory);
    }
}
