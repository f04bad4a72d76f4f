//! Instance-major batched execution.
//!
//! A sweep grid is algorithm-innermost: the cells of one *instance* — same
//! platform recipe, arrival process, perturbation, scenario, task count,
//! replicate and task seed, differing only in `algorithm` — sit next to
//! each other in expansion order. Cell-major execution rebuilt that
//! instance from scratch for every algorithm; this module groups
//! consecutive same-instance cells into batches, materializes the
//! platform, task streams, compiled timeline and the three certified lower
//! bounds **once** per batch, and fans the algorithms out against the
//! shared [`MaterializedInstance`] (or, for streamed sweeps, the O(slaves)
//! [`StreamedInstance`]). With the paper's seven algorithms this removes
//! ~6/7 of all instance-construction and bound work.
//!
//! **Batching is observationally pure** (the contract the executor and its
//! property tests enforce): per-cell results, cache keys, store contents
//! and every downstream artifact are bit-identical to cell-major execution
//! for any thread count and any batch grouping. It holds because a batch
//! only shares *inputs* that are themselves bit-identical to what the cell
//! would have built alone: the memoized sampler stream replays the exact
//! `sample_many` sequence ([`mss_workload::PlatformStream`]), and the
//! engine re-initializes its [`SimWorkspace`] per run.

use crate::cell::{Cell, CellError, CellMetrics, MaterializedInstance, StreamedInstance};
use crate::run_metrics::CellRunMetrics;
use mss_core::{
    Algorithm, NoopProbe, OnlineScheduler, Platform, PlatformClass, Probe, SimWorkspace,
};
use mss_obs::{BatchSpan, MetricsProbe, WorkerMetrics};
use mss_workload::{PlatformSampler, PlatformStream};
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

/// Per-worker memoized platform-sampler streams, keyed by
/// `(class, slaves, seed)`. Each stream extends lazily to the highest
/// index requested and replays [`PlatformSampler::sample_many`] bit for
/// bit, so cached and from-scratch realizations are interchangeable.
#[derive(Default)]
pub struct SamplerCache {
    streams: HashMap<(PlatformClass, usize, u64), PlatformStream>,
}

impl SamplerCache {
    /// An empty cache.
    pub fn new() -> Self {
        SamplerCache::default()
    }

    /// Platform `index` of the `(class, slaves, seed)` sampler stream.
    pub fn get(
        &mut self,
        class: PlatformClass,
        slaves: usize,
        seed: u64,
        index: usize,
    ) -> Platform {
        self.streams
            .entry((class, slaves, seed))
            .or_insert_with(|| {
                PlatformSampler {
                    num_slaves: slaves,
                    ..PlatformSampler::default()
                }
                .stream(class, seed)
            })
            .get(index)
            .clone()
    }

    /// Number of distinct streams opened so far.
    pub fn streams(&self) -> usize {
        self.streams.len()
    }
}

/// Per-worker scratch of the batched executor: the reusable simulator
/// buffers plus the memoized sampler streams. Scratch never influences
/// results (the workspace re-initializes per run; the cache is
/// bit-transparent), so the executor's any-thread-count determinism is
/// untouched.
pub struct BatchWorker {
    /// Reusable simulator buffers (one per worker thread).
    pub ws: SimWorkspace,
    /// Memoized sampler streams (one set per worker thread).
    pub samplers: SamplerCache,
    /// Reusable scheduler instances keyed by `(algorithm, fault_aware)`.
    /// The engine calls `init` before every run (the documented full-reset
    /// point of [`OnlineScheduler`]), so reuse is bit-transparent.
    schedulers: HashMap<(Algorithm, bool), Box<dyn OnlineScheduler>>,
    /// This worker's thread-local tally: cells, batch timeline, phase
    /// seconds. Purely observational — nothing in the run path reads it.
    pub metrics: WorkerMetrics,
    /// When `true`, cells run with a counting probe and engine events
    /// accumulate into `metrics.counters` (the `ms-lab profile` path).
    /// When `false` (the default), cells run with [`NoopProbe`] — the
    /// unchanged zero-cost hot path.
    pub count_events: bool,
    /// When `true`, cells run with a [`MetricsProbe`] and each `Ok` result
    /// carries a [`CellRunMetrics`] payload (the `ms-lab metrics` path);
    /// the run's histograms also merge into `metrics.hists`. Scalar results
    /// are bit-identical either way (contract #12).
    pub collect_metrics: bool,
    /// When `true`, each batch shares a [`StreamedInstance`] and every cell
    /// pulls its tasks from a fresh [`Cell::source`] in bounded memory (the
    /// `ms-lab sweep --streamed` path). Results are bit-identical either
    /// way, so cache keys and store contents are shared.
    pub streamed: bool,
    /// Reusable telemetry probe (reset per cell when `collect_metrics`).
    metrics_probe: MetricsProbe,
    /// Shared sweep epoch that batch-span offsets are measured from.
    epoch: Instant,
}

impl Default for BatchWorker {
    fn default() -> Self {
        BatchWorker::with_epoch(Instant::now())
    }
}

impl BatchWorker {
    /// Fresh worker scratch (its own epoch).
    pub fn new() -> Self {
        BatchWorker::default()
    }

    /// Fresh worker scratch measuring batch spans from `epoch` — the sweep
    /// passes one shared epoch to every worker so their timelines align.
    pub fn with_epoch(epoch: Instant) -> Self {
        BatchWorker {
            ws: SimWorkspace::default(),
            samplers: SamplerCache::default(),
            schedulers: HashMap::new(),
            metrics: WorkerMetrics::new(),
            count_events: false,
            collect_metrics: false,
            streamed: false,
            metrics_probe: MetricsProbe::new(),
            epoch,
        }
    }
}

/// The (reused) scheduler instance a cell runs under.
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

/// Default [`split_batches`] threshold, in estimated events: batches that
/// cost more are chopped into smaller same-instance sub-units. The default
/// is far above the reference grids (a full 8-algorithm batch of 120-task
/// cells is ~3k events, so nothing splits) but turns one hypothetical
/// 1M-task batch into per-algorithm units so it cannot pin a worker while
/// the others idle.
pub const DEFAULT_SPLIT_EVENTS: u64 = 1 << 18;

/// Estimated engine events for one cell with `tasks` tasks — the batch
/// cost model. Every task costs a send, a compute and a completion
/// callback (~3 events); the constant covers per-run setup. The estimate
/// only steers scheduling (seeding order and split points), so its
/// absolute scale is irrelevant — relative ordering is what matters.
pub fn estimated_cell_events(tasks: usize) -> u64 {
    3 * tasks as u64 + 16
}

/// Cost of one batch range under the event model: cells × estimated
/// per-cell events (all cells of a batch share one instance, hence one
/// task count).
pub fn batch_cost(cells: &[Cell], indices: &[usize], batch: &Range<usize>) -> u64 {
    let head = &cells[indices[batch.start]];
    batch.len() as u64 * estimated_cell_events(head.tasks)
}

/// Splits every batch whose [`batch_cost`] exceeds `max_events` into
/// consecutive same-instance sub-units of at most
/// `max_events / estimated_cell_events` cells (at least one — a single
/// cell never splits further). Sub-units partition the original ranges in
/// order, so downstream index-ordered flattening is untouched; each
/// sub-unit re-materializes the shared instance (a few percent of a cell's
/// cost), which is bit-transparent, so results stay identical for any
/// threshold (the equivalence proptests force tiny thresholds to pin
/// this).
pub fn split_batches(
    cells: &[Cell],
    indices: &[usize],
    batches: Vec<Range<usize>>,
    max_events: u64,
) -> Vec<Range<usize>> {
    let mut out = Vec::with_capacity(batches.len());
    for batch in batches {
        if batch_cost(cells, indices, &batch) <= max_events {
            out.push(batch);
            continue;
        }
        let per_cell = estimated_cell_events(cells[indices[batch.start]].tasks);
        let unit = ((max_events / per_cell) as usize).max(1);
        let mut start = batch.start;
        while start < batch.end {
            let end = (start + unit).min(batch.end);
            out.push(start..end);
            start = end;
        }
    }
    out
}

/// Groups `indices` (ascending positions into `cells`, e.g. the not-yet-
/// cached subset) into maximal consecutive runs of same-instance cells.
/// Returned ranges index into `indices`, partition it, and preserve order —
/// the grouping is a pure function of the cell list, independent of thread
/// count.
pub fn group_instances(cells: &[Cell], indices: &[usize]) -> Vec<Range<usize>> {
    let mut batches = Vec::new();
    let mut start = 0usize;
    for k in 1..indices.len() {
        if !cells[indices[k - 1]].same_instance(&cells[indices[k]]) {
            batches.push(start..k);
            start = k;
        }
    }
    if start < indices.len() {
        batches.push(start..indices.len());
    }
    batches
}

/// The instance one batch shares across its cells.
enum BatchInstance {
    Materialized(MaterializedInstance),
    Streamed(StreamedInstance),
}

impl BatchInstance {
    fn platform(&self) -> &Platform {
        match self {
            BatchInstance::Materialized(mat) => &mat.platform,
            BatchInstance::Streamed(inst) => &inst.platform,
        }
    }

    /// Runs `cell` against this instance.
    fn run<P: Probe>(
        &self,
        cell: &Cell,
        ws: &mut SimWorkspace,
        scheduler: &mut dyn OnlineScheduler,
        probe: &mut P,
    ) -> Result<CellMetrics, CellError> {
        match self {
            BatchInstance::Materialized(mat) => cell.try_run_probed(mat, ws, scheduler, probe),
            BatchInstance::Streamed(inst) => cell
                .try_run_streamed_probed(inst, ws, scheduler, probe)
                .map(|(m, _)| m),
        }
    }
}

/// Runs one batch (a `group_instances` range over `indices`): materializes
/// the shared instance once, then every cell of the batch against it, in
/// order. Each result is bit-identical to the cell's own
/// [`Cell::try_run_in`].
///
/// With [`BatchWorker::streamed`] the shared instance is the O(slaves)
/// [`StreamedInstance`], and each cell pulls from a *fresh*
/// [`Cell::source`] rebuilt from its seeds — the stream is never cloned
/// across cells. The results are the same bits either way.
pub fn run_batch(
    cells: &[Cell],
    indices: &[usize],
    batch: Range<usize>,
    worker: &mut BatchWorker,
    out: &mut Vec<Result<CellMetrics, CellError>>,
) {
    let BatchWorker {
        ws,
        samplers,
        schedulers,
        metrics,
        count_events,
        collect_metrics,
        streamed,
        metrics_probe,
        epoch,
    } = worker;
    let batch_t0 = Instant::now();
    let head = &cells[indices[batch.start]];
    let inst = if *streamed {
        BatchInstance::Streamed(head.materialize_streamed_with(samplers))
    } else {
        let mat = head.materialize_with(samplers);
        metrics.materialized_tasks += mat.nominal.len() as u64;
        BatchInstance::Materialized(mat)
    };
    let sim_t0 = Instant::now();
    metrics.materialize_secs += sim_t0.duration_since(batch_t0).as_secs_f64();
    metrics.materializations += 1;
    metrics.batches += 1;
    let batch_cells = batch.len() as u64;
    for k in batch {
        let cell = &cells[indices[k]];
        let scheduler = scheduler_for(schedulers, cell);
        let result = if *collect_metrics {
            metrics_probe.reset();
            metrics_probe.preallocate(inst.platform().num_slaves());
            let mut result = if *count_events {
                let mut probe = (&mut metrics.counters, &mut *metrics_probe);
                inst.run(cell, ws, scheduler, &mut probe)
            } else {
                inst.run(cell, ws, scheduler, &mut *metrics_probe)
            };
            if let Ok(m) = &mut result {
                let run = metrics_probe.finish(m.makespan);
                metrics.hists.merge(&run.hists);
                m.run_metrics = Some(CellRunMetrics::from_run(&run));
            }
            result
        } else if *count_events {
            inst.run(cell, ws, scheduler, &mut metrics.counters)
        } else {
            inst.run(cell, ws, scheduler, &mut NoopProbe)
        };
        if result.is_err() {
            metrics.aborted += 1;
        }
        out.push(result);
    }
    let batch_t1 = Instant::now();
    metrics.cells += batch_cells;
    metrics.simulate_secs += batch_t1.duration_since(sim_t0).as_secs_f64();
    metrics.spans.push(BatchSpan {
        start: batch_t0.duration_since(*epoch).as_secs_f64(),
        end: batch_t1.duration_since(*epoch).as_secs_f64(),
        cells: batch_cells as usize,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::PlatformCell;
    use mss_core::{Algorithm, InfoTier};
    use mss_workload::ArrivalProcess;

    fn cell(index: usize, algorithm: Algorithm) -> Cell {
        Cell {
            platform: PlatformCell::Class {
                class: PlatformClass::Heterogeneous,
                slaves: 3,
                seed: 42,
                index,
            },
            arrival: ArrivalProcess::AllAtZero,
            perturbation: None,
            scenario: None,
            tasks: 20,
            algorithm,
            information: InfoTier::Clairvoyant,
            replicate: 0,
            task_seed: 7,
        }
    }

    #[test]
    fn sampler_cache_matches_direct_realization() {
        let mut cache = SamplerCache::new();
        // Deliberately access indices out of order and twice.
        for &i in &[2usize, 0, 3, 2] {
            let c = cell(i, Algorithm::Srpt);
            assert_eq!(c.platform.realize_with(&mut cache), c.platform.realize());
        }
        assert_eq!(cache.streams(), 1, "one (class, slaves, seed) stream");
    }

    #[test]
    fn grouping_is_maximal_consecutive_runs() {
        let cells = vec![
            cell(0, Algorithm::Srpt),
            cell(0, Algorithm::ListScheduling),
            cell(0, Algorithm::RoundRobin),
            cell(1, Algorithm::Srpt),
            cell(1, Algorithm::ListScheduling),
            cell(0, Algorithm::Sljf), // same instance as the first run, but not adjacent
        ];
        let all: Vec<usize> = (0..cells.len()).collect();
        assert_eq!(group_instances(&cells, &all), vec![0..3, 3..5, 5..6]);
        // A cached hole in the middle must not split the run.
        let holey = [0usize, 2, 3, 5];
        assert_eq!(group_instances(&cells, &holey), vec![0..2, 2..3, 3..4]);
        assert!(group_instances(&cells, &[]).is_empty());
    }

    #[test]
    fn splitting_respects_threshold_and_partitions_in_order() {
        let cells: Vec<Cell> = Algorithm::ALL.iter().map(|&a| cell(1, a)).collect();
        let all: Vec<usize> = (0..cells.len()).collect();
        let batches = group_instances(&cells, &all);
        assert_eq!(batches, vec![0..cells.len()]);
        let per_cell = estimated_cell_events(20);

        // A generous threshold leaves the grouping alone.
        let whole = split_batches(&cells, &all, batches.clone(), u64::MAX);
        assert_eq!(whole, vec![0..cells.len()]);

        // A threshold of two cells' events chops into pairs.
        let pairs = split_batches(&cells, &all, batches.clone(), 2 * per_cell);
        assert!(pairs.iter().all(|r| r.len() <= 2));
        // Sub-units partition the original range in order.
        let mut next = 0usize;
        for r in &pairs {
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, cells.len());

        // A threshold below one cell still floors at singleton units.
        let singles = split_batches(&cells, &all, batches, 1);
        assert_eq!(singles.len(), cells.len());
        assert!(singles.iter().all(|r| r.len() == 1));
        for r in &singles {
            assert_eq!(batch_cost(&cells, &all, r), per_cell);
        }
    }

    #[test]
    fn split_batches_run_bit_identical_to_whole_batches() {
        // Splitting re-materializes per sub-unit; every result must still
        // be bit-identical to the unsplit batch run.
        let cells: Vec<Cell> = Algorithm::ALL.iter().map(|&a| cell(1, a)).collect();
        let all: Vec<usize> = (0..cells.len()).collect();
        let (mut whole_out, mut split_out) = (Vec::new(), Vec::new());
        let mut whole_worker = BatchWorker::new();
        let mut split_worker = BatchWorker::new();
        for b in group_instances(&cells, &all) {
            run_batch(&cells, &all, b, &mut whole_worker, &mut whole_out);
        }
        let split = split_batches(&cells, &all, group_instances(&cells, &all), 1);
        assert_eq!(split.len(), cells.len());
        for b in split {
            run_batch(&cells, &all, b, &mut split_worker, &mut split_out);
        }
        assert_eq!(
            split_worker.metrics.materializations,
            cells.len() as u64,
            "each singleton sub-unit re-materializes"
        );
        for ((c, w), s) in cells.iter().zip(&whole_out).zip(&split_out) {
            let (w, s) = (w.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(
                w.makespan.to_bits(),
                s.makespan.to_bits(),
                "{}",
                c.algorithm
            );
            assert_eq!(w.max_flow.to_bits(), s.max_flow.to_bits());
            assert_eq!(w.sum_flow.to_bits(), s.sum_flow.to_bits());
            assert_eq!(w.ratio_makespan.to_bits(), s.ratio_makespan.to_bits());
        }
    }

    #[test]
    fn batch_results_match_per_cell_runs() {
        let cells: Vec<Cell> = Algorithm::ALL.iter().map(|&a| cell(1, a)).collect();
        let all: Vec<usize> = (0..cells.len()).collect();
        let batches = group_instances(&cells, &all);
        assert_eq!(batches, vec![0..cells.len()]);
        let mut worker = BatchWorker::new();
        let mut out = Vec::new();
        for b in batches {
            run_batch(&cells, &all, b, &mut worker, &mut out);
        }
        for (c, r) in cells.iter().zip(&out) {
            assert_eq!(r.as_ref().unwrap(), &c.run(), "{}", c.algorithm);
        }
    }

    #[test]
    fn streamed_batch_is_bit_identical_to_materialized() {
        // Algorithms × a perturbed variant × a Poisson-arrival variant:
        // the streamed executor must reproduce every bit of the
        // materialized one.
        let mut cells: Vec<Cell> = Algorithm::ALL.iter().map(|&a| cell(1, a)).collect();
        for c in &mut cells {
            c.arrival = ArrivalProcess::Poisson { load: 0.8 };
            c.perturbation = Some(crate::cell::PerturbCell {
                delta: 0.1,
                comm_exponent: 1.0,
                comp_exponent: 1.0,
                seed: 13,
            });
        }
        let all: Vec<usize> = (0..cells.len()).collect();
        let batches = group_instances(&cells, &all);
        let (mut mat_out, mut str_out) = (Vec::new(), Vec::new());
        let mut mat_worker = BatchWorker::new();
        let mut str_worker = BatchWorker::new();
        str_worker.streamed = true;
        for b in batches {
            run_batch(&cells, &all, b.clone(), &mut mat_worker, &mut mat_out);
            run_batch(&cells, &all, b, &mut str_worker, &mut str_out);
        }
        for ((c, m), s) in cells.iter().zip(&mat_out).zip(&str_out) {
            let (m, s) = (m.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(
                m.makespan.to_bits(),
                s.makespan.to_bits(),
                "{}",
                c.algorithm
            );
            assert_eq!(m.max_flow.to_bits(), s.max_flow.to_bits());
            assert_eq!(m.sum_flow.to_bits(), s.sum_flow.to_bits());
            assert_eq!(m.lb_makespan.to_bits(), s.lb_makespan.to_bits());
            assert_eq!(m.ratio_makespan.to_bits(), s.ratio_makespan.to_bits());
        }
    }

    #[test]
    fn one_materialization_per_batch_across_algorithms_and_tiers() {
        // Regression: a batch arm must never re-materialize (or clone) the
        // instance — algorithms *and* information tiers share one
        // materialization. RunCounters proves each arm really simulated.
        let mut cells: Vec<Cell> = Algorithm::ALL.iter().map(|&a| cell(1, a)).collect();
        let mut oblivious = cell(1, Algorithm::ListScheduling);
        oblivious.information = InfoTier::SpeedOblivious;
        let mut blind = cell(1, Algorithm::ListScheduling);
        blind.information = InfoTier::NonClairvoyant;
        cells.push(oblivious);
        cells.push(blind);
        assert!(cells.windows(2).all(|w| w[0].same_instance(&w[1])));

        let all: Vec<usize> = (0..cells.len()).collect();
        let batches = group_instances(&cells, &all);
        assert_eq!(batches, vec![0..cells.len()], "one instance, one batch");
        for streamed in [false, true] {
            let mut worker = BatchWorker::new();
            worker.count_events = true;
            worker.streamed = streamed;
            let mut out = Vec::new();
            for b in group_instances(&cells, &all) {
                run_batch(&cells, &all, b, &mut worker, &mut out);
            }
            let ok = out.iter().filter(|r| r.is_ok()).count() as u64;
            assert_eq!(
                ok,
                cells.len() as u64,
                "all arms complete (streamed={streamed})"
            );
            assert_eq!(worker.metrics.materializations, 1, "streamed={streamed}");
            assert_eq!(worker.metrics.batches, 1);
            assert_eq!(worker.metrics.cells, cells.len() as u64);
            // Every arm really drove the engine over the whole instance.
            assert_eq!(worker.metrics.counters.computes_completed, ok * 20);
        }
    }

    #[test]
    fn collect_metrics_attaches_payload_without_changing_scalars() {
        let cells: Vec<Cell> = Algorithm::ALL.iter().map(|&a| cell(1, a)).collect();
        let all: Vec<usize> = (0..cells.len()).collect();
        let mut worker = BatchWorker::new();
        worker.collect_metrics = true;
        let mut out = Vec::new();
        for b in group_instances(&cells, &all) {
            run_batch(&cells, &all, b, &mut worker, &mut out);
        }
        for (c, r) in cells.iter().zip(&out) {
            let got = r.as_ref().unwrap();
            let plain = c.run();
            // Scalar results are bit-identical to the unprobed run.
            assert_eq!(got.makespan.to_bits(), plain.makespan.to_bits());
            assert_eq!(got.max_flow.to_bits(), plain.max_flow.to_bits());
            let m = got.run_metrics.as_ref().expect("payload attached");
            assert_eq!(m.tasks, c.tasks as u64, "{}", c.algorithm);
            assert_eq!(m.flow.total, m.tasks);
            assert_eq!(m.slave_busy.len(), 3);
            assert!(m.duration > 0.0);
        }
        // The worker-level histogram tally absorbed every completed task.
        let expected: u64 = cells.iter().map(|c| c.tasks as u64).sum();
        assert_eq!(worker.metrics.hists.flow.count(), expected);
    }
}
