//! # mss-sweep — parallel, cacheable scenario-sweep orchestration
//!
//! The experiment engine the lab runs on. A sweep is described by a
//! [`SweepSpec`] (TOML/JSON): the cartesian grid over platform recipes,
//! task counts, arrival processes, perturbations, replicate seeds and
//! algorithms. The engine:
//!
//! 1. **expands** the grid into independent [`Cell`]s with content-derived
//!    per-cell seeds ([`SweepSpec::expand`]);
//! 2. **executes** cells across threads with dynamic load balancing
//!    ([`exec::parallel_map_with`]), *instance-major*: consecutive cells
//!    that differ only in algorithm share one materialized platform, task
//!    stream, compiled timeline, and set of certified lower bounds
//!    ([`batch`]) — results are bit-identical for any thread count and any
//!    batch grouping because each cell stays a pure function of itself;
//! 3. **caches** completed cells in a sharded JSONL [`ResultStore`] keyed
//!    by content hash, so re-runs skip finished work and interrupted
//!    sweeps resume (torn shard lines are detected and re-run);
//! 4. **aggregates** metrics (mean/min/max/std/CI95 of objectives, ratios
//!    against certified lower bounds, normalization to a baseline
//!    algorithm) in deterministic order ([`agg::aggregate`]).
//!
//! ```
//! use mss_sweep::{run_cells, SweepConfig, SweepSpec};
//!
//! let spec: SweepSpec = mss_sweep::spec_from_toml(r#"
//!     name = "doc"
//!     seed = 7
//!     tasks = [30]
//!     algorithms = ["SRPT", "LS"]
//!     [[platforms]]
//!     kind = "class"
//!     class = "het"
//!     count = 2
//!     slaves = 3
//!     [[arrivals]]
//!     kind = "bag"
//! "#).unwrap();
//! let cells = spec.expand().unwrap();
//! assert_eq!(cells.len(), 4);
//! let config = SweepConfig { threads: 2, ..SweepConfig::default() };
//! let outcome = run_cells(cells, &config);
//! assert_eq!(outcome.executed, 4);
//! let rows = outcome.aggregate(Some(mss_core::Algorithm::Srpt));
//! assert_eq!(rows.len(), 2);
//! ```
//!
//! ## Information-tier grids
//!
//! The `information` key crosses the grid with the scheduler's
//! [`InfoTier`](mss_core::InfoTier) (see `examples/oblivious_sweep.toml`
//! for the full algorithm × heterogeneity × information walkthrough).
//! Tiers of one grid point share their seeds, so every tier faces the
//! identical instances and the per-point baseline normalization compares
//! them head-to-head; sub-clairvoyant cells get their own aggregation
//! groups (labelled `… | info=<tier> | …`):
//!
//! ```
//! use mss_core::InfoTier;
//! use mss_sweep::{run_cells, SweepConfig, SweepSpec};
//!
//! let spec: SweepSpec = mss_sweep::spec_from_toml(r#"
//!     name = "tiers"
//!     seed = 7
//!     tasks = [30]
//!     algorithms = ["LS"]
//!     information = ["clairvoyant", "speed-oblivious"]
//!     [[platforms]]
//!     kind = "class"
//!     class = "het"
//!     count = 1
//!     slaves = 3
//!     [[arrivals]]
//!     kind = "bag"
//! "#).unwrap();
//! let cells = spec.expand().unwrap();
//! assert_eq!(cells.len(), 2);
//! // Same instance, different knowledge: seeds agree, tiers differ.
//! assert_eq!(cells[0].task_seed, cells[1].task_seed);
//! assert_eq!(cells[0].information, InfoTier::Clairvoyant);
//! assert_eq!(cells[1].information, InfoTier::SpeedOblivious);
//! let config = SweepConfig { threads: 1, ..SweepConfig::default() };
//! let outcome = run_cells(cells, &config);
//! // Withdrawing knowledge cannot beat the certified lower bound.
//! assert!(outcome.metrics.iter().all(|m| m.ratio_makespan >= 1.0 - 1e-9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod batch;
pub mod cell;
pub mod exec;
pub mod run_metrics;
pub mod schema;
pub mod spec;
pub mod store;
pub mod toml_lite;

use std::path::PathBuf;

pub use agg::{
    aggregate, aggregate_metrics, summarize, AggregateRow, HistSummary, MetricsRow, Summary,
};
pub use batch::{
    batch_cost, estimated_cell_events, group_instances, run_batch, split_batches, BatchWorker,
    SamplerCache, DEFAULT_SPLIT_EVENTS,
};
pub use cell::{
    AbortKind, Cell, CellError, CellMetrics, MaterializedInstance, PerturbCell, PlatformCell,
    ScenarioCell, StreamedInstance,
};
pub use exec::{
    default_threads, parallel_map, parallel_map_collect, parallel_map_costed, parallel_map_with,
};
pub use mss_obs::{StoreStats, SweepMetrics, WorkerMetrics};
pub use run_metrics::{CellRunMetrics, HistogramData};
pub use spec::{ArrivalAxis, PerturbAxis, PlatformAxis, ScenarioAxis, SpecError, SweepSpec};
pub use store::{cell_key, ResultStore, StoreWriter, CODE_VERSION_SALT};

/// How a sweep executes.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Worker threads (1 = sequential). The aggregated output is
    /// bit-identical for any value.
    pub threads: usize,
    /// Result-store directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Show a live progress line on stderr (additionally gated on stderr
    /// being a terminal and no CI environment — see [`mss_obs::Progress`]).
    /// Purely cosmetic: results are unaffected.
    pub progress: bool,
    /// Run cells with counting probes and aggregate engine event counters
    /// into [`SweepMetrics::counters`] (the `ms-lab profile` path). The
    /// default `false` keeps the zero-cost uninstrumented hot path;
    /// results are bit-identical either way (probes are observers only).
    pub count_events: bool,
    /// Run cells with a [`mss_obs::MetricsProbe`] so every `Ok` result
    /// carries a [`CellRunMetrics`] telemetry payload (the `ms-lab
    /// metrics` path) and worker histograms merge into
    /// [`SweepMetrics::hists`]. Cached records without a payload are
    /// re-run. Scalar results stay bit-identical either way.
    pub collect_metrics: bool,
    /// Execute batches through the bounded-memory streaming path
    /// ([`BatchWorker::streamed`]): tasks are pulled lazily from seeded
    /// [`mss_workload::GeneratedSource`]s instead of materializing the
    /// instance's task vectors, and each batch arm re-instantiates its
    /// source from the cell's seeds (the stream is never cloned).
    /// **Streaming is an execution strategy, not part of cell identity**
    /// (contract #13): results, cache keys and store contents are
    /// bit-identical to the materialized path, so the two modes share one
    /// result store.
    pub streamed: bool,
    /// Batch-splitting threshold in estimated events (the cost model of
    /// [`estimated_cell_events`]): a same-instance batch costing more is
    /// chopped into sub-units of at most this many events, so one giant
    /// batch cannot pin a worker while the rest idle. Results are
    /// bit-identical for any value (contract #14); the default
    /// [`DEFAULT_SPLIT_EVENTS`] never splits the paper's reference grids.
    pub split_events: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            threads: default_threads(64),
            cache_dir: None,
            progress: false,
            count_events: false,
            collect_metrics: false,
            streamed: false,
            split_events: DEFAULT_SPLIT_EVENTS,
        }
    }
}

/// A completed sweep: cells, their metrics (parallel arrays in expansion
/// order), and cache accounting.
pub struct SweepOutcome {
    /// The expanded cells, in deterministic order.
    pub cells: Vec<Cell>,
    /// Metrics per cell (same order as `cells`).
    pub metrics: Vec<CellMetrics>,
    /// Cells actually simulated this run.
    pub executed: usize,
    /// Cells served from the result store.
    pub cached: usize,
    /// Corrupt/truncated store lines that were dropped (their cells were
    /// re-run and counted under `executed`).
    pub dropped: usize,
    /// Execution accounting: batches, reuse ratio, per-worker timelines,
    /// store I/O (see [`SweepMetrics`]).
    pub stats: SweepMetrics,
}

impl SweepOutcome {
    /// Aggregates the outcome (see [`agg::aggregate`]).
    pub fn aggregate(&self, baseline: Option<mss_core::Algorithm>) -> Vec<AggregateRow> {
        aggregate(&self.cells, &self.metrics, baseline)
    }
}

/// A sweep executed through the non-panicking API: per-cell results in
/// expansion order, including error-carrying cells (e.g. budget aborts of
/// fault-oblivious algorithms under failures).
pub struct CheckedOutcome {
    /// One result per input cell, in input order.
    pub results: Vec<Result<CellMetrics, CellError>>,
    /// Cells actually simulated this run.
    pub executed: usize,
    /// Cells served from the result store.
    pub cached: usize,
    /// Corrupt/truncated store lines that were dropped.
    pub dropped: usize,
    /// Execution accounting: batches, reuse ratio, per-worker timelines,
    /// store I/O (see [`SweepMetrics`]).
    pub stats: SweepMetrics,
}

/// Worker store-writers flush once more than this many bytes are buffered
/// (and always at drain), so tiny batches coalesce into fewer appends
/// while big results reach disk — and crash resumability — promptly.
const WORKER_FLUSH_FLOOR: usize = 32 << 10;

/// Executes cells under `config` without panicking on cell errors: every
/// slot of `results` carries that cell's own outcome, bit-identical to a
/// per-cell [`Cell::try_run_in`] for any thread count.
///
/// This is the engine behind [`run_cells`]. Execution is **instance-major**
/// (see [`batch`]): not-yet-cached cells are grouped into maximal
/// consecutive same-instance batches, each batch materializes its
/// platform/task-streams/timeline/bounds once, and worker threads pick up
/// whole batches through the dynamic load balancer. Both completed cells
/// and tagged aborts enter the store, so resumed sweeps skip
/// known-aborting cells instead of re-running them.
///
/// # Panics
/// Panics if the cache directory cannot be created or written.
pub fn try_run_cells(cells: &[Cell], config: &SweepConfig) -> CheckedOutcome {
    let epoch = std::time::Instant::now();
    let mut store_secs = 0.0f64;
    let (store, known, dropped) = match &config.cache_dir {
        Some(dir) => {
            let t0 = std::time::Instant::now();
            let store = ResultStore::open(dir).expect("open sweep result store");
            let loaded = store.load().expect("load sweep result store");
            store_secs += t0.elapsed().as_secs_f64();
            (Some(store), loaded.results, loaded.dropped)
        }
        None => (None, std::collections::HashMap::new(), 0),
    };
    // Content keys are only needed to talk to the store; an uncached sweep
    // skips their serialization cost entirely.
    let keys: Option<Vec<String>> = store.as_ref().map(|_| cells.iter().map(cell_key).collect());

    // Indices still to run, in expansion order. A metrics-collecting sweep
    // treats cached Ok records without a telemetry payload as missing:
    // the cell re-runs and its payload-carrying line, appended later in
    // the shard, wins on the next load.
    let usable = |r: &Result<CellMetrics, CellError>| {
        !config.collect_metrics || !matches!(r, Ok(m) if m.run_metrics.is_none())
    };
    let missing: Vec<usize> = match &keys {
        Some(keys) => (0..cells.len())
            .filter(|&i| !known.get(&keys[i]).is_some_and(&usable))
            .collect(),
        None => (0..cells.len()).collect(),
    };

    // Instance-major fan-out: each work item is one batch of consecutive
    // same-instance cells (oversized batches pre-split into same-instance
    // sub-units by the event cost model); each worker thread owns one
    // BatchWorker (the reused SimWorkspace + memoized sampler streams) and
    // the work-stealing executor seeds costliest batches first. Batch
    // results are slotted back by index, so output order — and every bit
    // of it — is independent of thread count, of the grouping, and of the
    // cost model (contract #14).
    let batches = split_batches(
        cells,
        &missing,
        group_instances(cells, &missing),
        config.split_events,
    );
    let progress = mss_obs::Progress::new(missing.len(), config.progress);
    // Workers persist their own results as they go: each scratch holds a
    // per-worker StoreWriter (private serialization buffers, per-shard
    // flush locks), so the store never serializes the sweep behind one
    // mutex and an interrupted run keeps every batch already flushed.
    let (fresh, workers) = parallel_map_costed(
        &batches,
        config.threads,
        |_, b| batch_cost(cells, &missing, b),
        || {
            let mut w = BatchWorker::with_epoch(epoch);
            w.count_events = config.count_events;
            w.collect_metrics = config.collect_metrics;
            w.streamed = config.streamed;
            (w, store.as_ref().map(|s| s.writer()))
        },
        |(w, writer), _, b| {
            let mut out = Vec::with_capacity(b.len());
            batch::run_batch(cells, &missing, b.clone(), w, &mut out);
            if let (Some(writer), Some(keys)) = (writer.as_mut(), keys.as_ref()) {
                let t0 = std::time::Instant::now();
                for (k, r) in b.clone().zip(&out) {
                    writer.push(&keys[missing[k]], r);
                }
                writer
                    .flush_over(WORKER_FLUSH_FLOOR)
                    .expect("append sweep results");
                w.metrics.store_secs += t0.elapsed().as_secs_f64();
            }
            for _ in 0..out.len() {
                progress.tick();
            }
            out
        },
        |(mut w, writer)| {
            if let Some(mut writer) = writer {
                let t0 = std::time::Instant::now();
                writer.flush().expect("append sweep results");
                w.metrics.store_secs += t0.elapsed().as_secs_f64();
            }
            w.metrics
        },
    );
    progress.finish();
    // Batches partition `missing` in order, so the flattened results align
    // one-to-one with `missing`.
    let flat: Vec<Result<CellMetrics, CellError>> = fresh.into_iter().flatten().collect();
    debug_assert_eq!(flat.len(), missing.len());

    let mut stats = SweepMetrics {
        cells: cells.len() as u64,
        cached: (cells.len() - missing.len()) as u64,
        ..SweepMetrics::default()
    };
    for w in workers {
        stats.absorb_worker(w);
    }
    if let Some(store) = &store {
        stats.store = store.stats();
    }
    stats.store_secs += store_secs;
    stats.wall_secs = epoch.elapsed().as_secs_f64();

    let mut flat_iter = flat.into_iter();
    let mut missing_iter = missing.iter().peekable();
    let results = (0..cells.len())
        .map(|i| {
            if missing_iter.peek() == Some(&&i) {
                missing_iter.next();
                flat_iter.next().expect("one result per missing cell")
            } else {
                let keys = keys.as_ref().expect("cached cells imply a store");
                known[&keys[i]].clone()
            }
        })
        .collect();

    CheckedOutcome {
        results,
        executed: missing.len(),
        cached: cells.len() - missing.len(),
        dropped,
        stats,
    }
}

/// Executes a list of cells under `config` (the engine behind both the lab
/// experiments and `ms-lab sweep`).
///
/// # Panics
/// Panics if the cache directory cannot be created or written, or if a
/// cell fails (use [`try_run_cells`] to receive failures as values).
pub fn run_cells(cells: Vec<Cell>, config: &SweepConfig) -> SweepOutcome {
    let checked = try_run_cells(&cells, config);
    let metrics = checked
        .results
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect();
    SweepOutcome {
        executed: checked.executed,
        cached: checked.cached,
        dropped: checked.dropped,
        stats: checked.stats,
        cells,
        metrics,
    }
}

/// Expands and executes a spec.
pub fn run_spec(spec: &SweepSpec, config: &SweepConfig) -> Result<SweepOutcome, SpecError> {
    Ok(run_cells(spec.expand()?, config))
}

/// Parses a spec from TOML (see `examples/sweep_grid.toml` for the
/// schema). Unknown keys are rejected with a located error rather than
/// silently ignored.
pub fn spec_from_toml(input: &str) -> Result<SweepSpec, SpecError> {
    let value = toml_lite::parse(input).map_err(|e| SpecError(e.to_string()))?;
    schema::validate_sweep_spec(&value)?;
    serde::Deserialize::from_value(&value).map_err(|e| SpecError(e.to_string()))
}

/// Parses a spec from JSON (same schema and strict-key rules as TOML).
pub fn spec_from_json(input: &str) -> Result<SweepSpec, SpecError> {
    let value = serde_json::parse_value(input).map_err(|e| SpecError(e.to_string()))?;
    schema::validate_sweep_spec(&value)?;
    serde::Deserialize::from_value(&value).map_err(|e| SpecError(e.to_string()))
}

/// Parses a spec from a file path, dispatching on the `.json` / `.toml`
/// extension (anything that is not `.json` is treated as TOML).
pub fn spec_from_path(path: &std::path::Path) -> Result<SweepSpec, SpecError> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| SpecError(format!("cannot read {}: {e}", path.display())))?;
    if path
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("json"))
    {
        spec_from_json(&body)
    } else {
        spec_from_toml(&body)
    }
}

/// Parses a standalone scenario file from TOML
/// (see `examples/failure_scenario.toml`), with strict-key validation.
pub fn scenario_from_toml(input: &str) -> Result<mss_scenario::ScenarioSpec, SpecError> {
    let value = toml_lite::parse(input).map_err(|e| SpecError(e.to_string()))?;
    schema::validate_scenario_spec(&value)?;
    let spec: mss_scenario::ScenarioSpec =
        serde::Deserialize::from_value(&value).map_err(|e| SpecError(e.to_string()))?;
    spec.validate().map_err(|e| SpecError(e.to_string()))?;
    Ok(spec)
}

/// Parses a standalone scenario file from JSON, with strict-key validation.
pub fn scenario_from_json(input: &str) -> Result<mss_scenario::ScenarioSpec, SpecError> {
    let value = serde_json::parse_value(input).map_err(|e| SpecError(e.to_string()))?;
    schema::validate_scenario_spec(&value)?;
    let spec: mss_scenario::ScenarioSpec =
        serde::Deserialize::from_value(&value).map_err(|e| SpecError(e.to_string()))?;
    spec.validate().map_err(|e| SpecError(e.to_string()))?;
    Ok(spec)
}

/// Parses a scenario file by path (`.json` is JSON, anything else TOML).
pub fn scenario_from_path(path: &std::path::Path) -> Result<mss_scenario::ScenarioSpec, SpecError> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| SpecError(format!("cannot read {}: {e}", path.display())))?;
    if path
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("json"))
    {
        scenario_from_json(&body)
    } else {
        scenario_from_toml(&body)
    }
}
