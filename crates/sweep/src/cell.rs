//! Grid cells: the independent unit of sweep execution.
//!
//! A [`Cell`] carries everything needed to rebuild its scenario from
//! scratch — platform recipe, arrival process, optional perturbation, task
//! count, algorithm, and explicit seeds. Two properties follow:
//!
//! * **determinism** — running a cell is a pure function of the cell, so
//!   results are identical for any thread count and any execution order;
//! * **cacheability** — the cell's canonical JSON is content-hashed into
//!   the result-store key, so a re-run of an unchanged cell is a lookup.

use crate::batch::SamplerCache;
use crate::run_metrics::CellRunMetrics;
use mss_core::{
    simulate_objectives_in, Algorithm, InfoTier, NoopProbe, OnlineScheduler, Platform,
    PlatformClass, Probe, Redispatch, SimConfig, SimError, SimWorkspace, StreamStats, TaskArrival,
    TaskInput, TaskSource, Timeline,
};
use mss_opt::bounds::{
    makespan_lower_bound, max_flow_lower_bound, sum_flow_lower_bound, StreamingBounds,
};
use mss_opt::schedule::Instance;
use mss_scenario::ScenarioSpec;
use mss_workload::{
    ArrivalProcess, GeneratedSource, HeterogeneityAxis, HeterogeneityFamily, Perturbation,
    PlatformSampler,
};

/// How a cell's platform is produced.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum PlatformCell {
    /// The paper's §4.2 random platform of a prescribed class: platform
    /// `index` of the stream `PlatformSampler::sample_many(class, …, seed)`.
    Class {
        /// Platform class to sample.
        class: PlatformClass,
        /// Number of slaves (the paper uses 5).
        slaves: usize,
        /// Sampler stream seed.
        seed: u64,
        /// Index within the sampled stream.
        index: usize,
    },
    /// A platform from a [`HeterogeneityFamily`] at a given degree.
    Heterogeneity {
        /// Which resource the degree perturbs.
        axis: HeterogeneityAxis,
        /// Heterogeneity degree `h ∈ [0, 1]`.
        level: f64,
        /// Number of slaves.
        slaves: usize,
        /// Family seed (fixes the per-slave directions).
        seed: u64,
        /// Replicate identity of this family within its group (the axis
        /// entry's family counter). [`PlatformCell::replicate_index`]
        /// returns this — never the raw `seed`, which two families may
        /// legitimately share and which would then collapse their
        /// per-point aggregation joins.
        family: u64,
    },
    /// An explicit platform (e.g. calibrated from a real testbed).
    Explicit {
        /// Communication times `c_j`.
        c: Vec<f64>,
        /// Computation times `p_j`.
        p: Vec<f64>,
    },
}

impl PlatformCell {
    /// Materializes the platform without a sampler cache.
    ///
    /// For `Class` recipes this draws `index + 1` platforms and keeps the
    /// last, exactly reproducing the paper harness's sequential stream
    /// while staying a pure function of the cell — at the cost of
    /// O(index) redundant draws. The sweep executor avoids that cost with
    /// [`PlatformCell::realize_with`], which resumes a memoized
    /// [`mss_workload::PlatformStream`] instead; both produce bit-identical
    /// platforms.
    pub fn realize(&self) -> Platform {
        match self {
            PlatformCell::Class {
                class,
                slaves,
                seed,
                index,
            } => {
                let sampler = PlatformSampler {
                    num_slaves: *slaves,
                    ..PlatformSampler::default()
                };
                sampler
                    .sample_many(*class, *index + 1, *seed)
                    .pop()
                    .expect("sample_many returns index+1 platforms")
            }
            PlatformCell::Heterogeneity {
                axis,
                level,
                slaves,
                seed,
                ..
            } => HeterogeneityFamily::paper_ranges(*slaves, *seed).platform(*axis, *level),
            PlatformCell::Explicit { c, p } => Platform::from_vectors(c, p),
        }
    }

    /// [`PlatformCell::realize`] through a per-worker [`SamplerCache`]:
    /// `Class` recipes resume the memoized sampler stream for
    /// `(class, slaves, seed)` (no redundant draws), the other recipes
    /// realize directly. Bit-identical to [`PlatformCell::realize`].
    pub fn realize_with(&self, cache: &mut SamplerCache) -> Platform {
        match self {
            PlatformCell::Class {
                class,
                slaves,
                seed,
                index,
            } => cache.get(*class, *slaves, *seed, *index),
            _ => self.realize(),
        }
    }

    /// Label used to group aggregation rows (excludes the within-group
    /// replication index).
    pub fn group_label(&self) -> String {
        match self {
            PlatformCell::Class { class, slaves, .. } => {
                format!("{class}(m={slaves})")
            }
            PlatformCell::Heterogeneity {
                axis,
                level,
                slaves,
                ..
            } => format!("h={level:.2}:{}(m={slaves})", axis.label()),
            PlatformCell::Explicit { c, .. } => format!("explicit(m={})", c.len()),
        }
    }

    /// Index distinguishing replicated platforms within a group: the
    /// stream index for `Class` recipes and the family counter for
    /// `Heterogeneity` ones (a replicate identity — *not* the raw seed,
    /// which may coincide across families and would merge their points in
    /// per-point aggregation joins).
    pub fn replicate_index(&self) -> u64 {
        match self {
            PlatformCell::Class { index, .. } => *index as u64,
            PlatformCell::Heterogeneity { family, .. } => *family,
            PlatformCell::Explicit { .. } => 0,
        }
    }
}

/// Task-size perturbation applied to a cell (the Figure-2 robustness axis,
/// which also models schedulers planning with wrong/oblivious speed
/// estimates: the engine bills actual sizes while schedulers plan nominal).
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PerturbCell {
    /// Maximum relative deviation of the linear size factor.
    pub delta: f64,
    /// Exponent on the communication phase.
    pub comm_exponent: f64,
    /// Exponent on the computation phase.
    pub comp_exponent: f64,
    /// Jitter stream seed.
    pub seed: u64,
}

impl PerturbCell {
    fn to_perturbation(&self) -> Perturbation {
        Perturbation {
            delta: self.delta,
            comm_exponent: self.comm_exponent,
            comp_exponent: self.comp_exponent,
        }
    }

    /// Label for grouping.
    pub fn label(&self) -> String {
        format!(
            "±{:.0}%(^{:.0}/^{:.0})",
            self.delta * 100.0,
            self.comm_exponent,
            self.comp_exponent
        )
    }
}

/// Dynamic-platform axis of a cell: a failure/drift scenario plus the
/// fault policy the algorithm runs under.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioCell {
    /// The scenario, compiled against the cell's platform at run time. Its
    /// `seed` is derived from the cell identity (like perturbation seeds),
    /// and the whole spec is content-hashed into the cache key.
    pub spec: ScenarioSpec,
    /// `true` wraps the algorithm in [`Redispatch`] (the default; plain
    /// fault-oblivious algorithms may livelock against a down slave and
    /// abort the cell with a budget error).
    pub fault_aware: bool,
}

impl ScenarioCell {
    /// Label for grouping.
    pub fn label(&self) -> String {
        let policy = if self.fault_aware { "+RD" } else { "plain" };
        format!("{}[{policy}]", self.spec.label())
    }
}

/// One grid cell: a fully specified scenario for one algorithm.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Cell {
    /// Platform recipe.
    pub platform: PlatformCell,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Optional task-size jitter.
    pub perturbation: Option<PerturbCell>,
    /// Optional dynamic-platform scenario (`None` = the static model).
    pub scenario: Option<ScenarioCell>,
    /// Number of tasks.
    pub tasks: usize,
    /// Algorithm under test.
    pub algorithm: Algorithm,
    /// Information tier the scheduler's views filter at
    /// (`Clairvoyant` is the historical, fully informed cell). Like the
    /// algorithm, the tier does not change the *instance* — only what the
    /// scheduler is allowed to see of it — so cells differing only here
    /// share a materialization and their seeds.
    pub information: InfoTier,
    /// Replicate number (seeds differ per replicate).
    pub replicate: u64,
    /// Seed for the arrival-process stream.
    pub task_seed: u64,
}

/// Machine-readable classification of why a cell's simulation aborted.
/// Stored verbatim in the sweep result store (as its serialized variant
/// name), so resumed sweeps skip known-aborting cells and reports can
/// count aborts by kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AbortKind {
    /// The step budget ran out (e.g. a fault-oblivious algorithm
    /// livelocking against a down slave).
    BudgetExhausted,
    /// The scheduler idled with tasks unfinished and no events pending.
    Stalled,
    /// The scheduler returned a model-violating decision.
    InvalidDecision,
    /// The run's information tier is below the scheduler's declared
    /// minimum.
    InsufficientInformation,
}

impl From<&SimError> for AbortKind {
    fn from(e: &SimError) -> Self {
        match e {
            SimError::Stalled { .. } => AbortKind::Stalled,
            SimError::InvalidDecision { .. } => AbortKind::InvalidDecision,
            SimError::BudgetExhausted { .. } => AbortKind::BudgetExhausted,
            SimError::InsufficientInformation { .. } => AbortKind::InsufficientInformation,
        }
    }
}

/// A cell whose simulation could not complete (e.g. a fault-oblivious
/// algorithm livelocking against a down slave until the step budget
/// aborts). Carries a machine-readable [`AbortKind`] plus the
/// human-readable description the legacy panicking API raises.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CellError {
    /// Why the simulation aborted.
    pub kind: AbortKind,
    /// Human-readable description (algorithm, platform, engine error).
    pub message: String,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CellError {}

/// Everything shareable across the cells of one *instance* — cells that
/// differ only in `algorithm` (see [`Cell::same_instance`]): the realized
/// platform, the nominal and perturbed task streams, the compiled platform
/// timeline, and the three certified lower bounds. Materialized **once**
/// per instance by the batched executor instead of once per cell; running
/// a cell against it is bit-identical to [`Cell::try_run_in`].
pub struct MaterializedInstance {
    /// The realized platform.
    pub platform: Platform,
    /// Nominal-size task stream (what schedulers and bounds see).
    pub nominal: Vec<TaskArrival>,
    /// Perturbed task stream, when the cell carries a perturbation (the
    /// engine bills these; `None` means the nominal sizes are billed).
    pub perturbed: Option<Vec<TaskArrival>>,
    /// Compiled platform-event timeline (empty for static cells).
    pub timeline: Timeline,
    /// Certified lower bound on the optimal makespan (nominal sizes).
    pub lb_makespan: f64,
    /// Certified lower bound on the optimal max-flow.
    pub lb_max_flow: f64,
    /// Certified lower bound on the optimal sum-flow.
    pub lb_sum_flow: f64,
}

/// The streamed counterpart of [`MaterializedInstance`]: everything
/// shareable across one instance's cells *except* the task streams, which
/// each fan-out arm re-instantiates from its seeds as a
/// [`GeneratedSource`] instead of cloning ([`Cell::source`]). Memory is
/// O(slaves) regardless of the task count; results are bit-identical to
/// the materialized path (the engine's streaming contract plus the
/// bit-identity of [`StreamingBounds`] and [`GeneratedSource`]).
pub struct StreamedInstance {
    /// The realized platform.
    pub platform: Platform,
    /// Compiled platform-event timeline (empty for static cells).
    pub timeline: Timeline,
    /// Certified lower bound on the optimal makespan (nominal sizes).
    pub lb_makespan: f64,
    /// Certified lower bound on the optimal max-flow.
    pub lb_max_flow: f64,
    /// Certified lower bound on the optimal sum-flow.
    pub lb_sum_flow: f64,
}

/// Measured objectives of one cell, with certified lower bounds.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CellMetrics {
    /// Makespan, seconds.
    pub makespan: f64,
    /// Max-flow, seconds.
    pub max_flow: f64,
    /// Sum-flow, seconds.
    pub sum_flow: f64,
    /// Certified lower bound on the optimal makespan (nominal sizes).
    pub lb_makespan: f64,
    /// `makespan / lb_makespan` — an upper bound on the cell's
    /// competitive-style ratio against the offline optimum.
    pub ratio_makespan: f64,
    /// Distributional run telemetry (flow/wait/transfer/compute
    /// histograms, per-slave utilization seconds, queue-depth stats).
    /// `None` unless the sweep ran with
    /// [`SweepConfig::collect_metrics`](crate::SweepConfig) — the scalar
    /// objectives above are bit-identical either way (probes are
    /// observers only).
    pub run_metrics: Option<CellRunMetrics>,
}

impl Cell {
    /// Runs the cell: realize platform → generate arrivals → perturb →
    /// compile scenario → simulate → evaluate objectives against the
    /// certified lower bounds.
    ///
    /// # Panics
    /// Panics if the scenario does not compile or the simulation fails
    /// (all seven heuristics complete on valid static instances; under
    /// failures, a `fault_aware: false` cell may legitimately abort when
    /// the fault-oblivious algorithm livelocks — see [`ScenarioCell`]).
    pub fn run(&self) -> CellMetrics {
        self.run_in(&mut SimWorkspace::new())
    }

    /// [`Cell::run`] with caller-provided simulator buffers: the sweep
    /// executor keeps one [`SimWorkspace`] per worker thread, so the
    /// engine's zero-allocation hot path stays warm across the whole grid.
    /// Results are bit-identical to [`Cell::run`] (the engine re-initializes
    /// the workspace per run).
    pub fn run_in(&self, ws: &mut SimWorkspace) -> CellMetrics {
        self.try_run_in(ws).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`Cell::run_in`]: a cell that legitimately aborts
    /// (see [`ScenarioCell`]) comes back as a [`CellError`] value instead,
    /// so batched executors can carry it to the right result slot.
    pub fn try_run_in(&self, ws: &mut SimWorkspace) -> Result<CellMetrics, CellError> {
        let mat = self.materialize();
        self.try_run_probed(&mat, ws, self.build_scheduler().as_mut(), &mut NoopProbe)
    }

    /// Materializes this cell's instance from scratch (no sampler cache).
    ///
    /// # Panics
    /// Panics if the scenario does not compile (specs are validated at
    /// expansion time, so this is a harness bug, not a data condition).
    pub fn materialize(&self) -> MaterializedInstance {
        self.materialize_parts(self.platform.realize())
    }

    /// [`Cell::materialize`] resuming platform-sampler streams from a
    /// per-worker [`SamplerCache`] (kills the O(index) redundant draws of
    /// [`PlatformCell::realize`]). Bit-identical to [`Cell::materialize`].
    pub fn materialize_with(&self, cache: &mut SamplerCache) -> MaterializedInstance {
        self.materialize_parts(self.platform.realize_with(cache))
    }

    fn materialize_parts(&self, platform: Platform) -> MaterializedInstance {
        let nominal = self.arrival.generate(self.tasks, &platform, self.task_seed);
        let perturbed = self
            .perturbation
            .as_ref()
            .map(|p| p.to_perturbation().apply(&nominal, p.seed));
        let timeline = match &self.scenario {
            Some(s) => s
                .spec
                .compile(platform.num_slaves())
                .unwrap_or_else(|e| panic!("scenario failed to compile: {e}")),
            None => Timeline::EMPTY,
        };
        let inst = Instance {
            c: platform.iter().map(|(_, s)| s.c).collect(),
            p: platform.iter().map(|(_, s)| s.p).collect(),
            r: nominal.iter().map(|t| t.release.as_f64()).collect(),
        };
        // All three certified bounds are computed here — once per
        // *instance* under the batched executor, not once per cell.
        MaterializedInstance {
            lb_makespan: makespan_lower_bound(&inst),
            lb_max_flow: max_flow_lower_bound(&inst),
            lb_sum_flow: sum_flow_lower_bound(&inst),
            platform,
            nominal,
            perturbed,
            timeline,
        }
    }

    /// The lazily-generated task stream of this cell (arrivals plus the
    /// optional size perturbation), re-instantiated from its seeds — the
    /// streamed executor calls this once per fan-out arm instead of
    /// cloning a stream across arms. Bit-identical to the materialized
    /// `nominal`/`perturbed` stream of [`Cell::materialize`].
    pub fn source(&self, platform: &Platform) -> GeneratedSource {
        let mut s = GeneratedSource::new(self.arrival, self.tasks, platform, self.task_seed);
        if let Some(p) = &self.perturbation {
            s = s.with_perturbation(p.to_perturbation(), p.seed);
        }
        s
    }

    /// Materializes the shareable (O(slaves)) part of this cell's instance
    /// for streamed execution: the platform, the compiled timeline, and
    /// the three certified lower bounds — the latter computed by a single
    /// [`StreamingBounds`] pass over the nominal release stream, bit-
    /// identical to the batch bounds of [`Cell::materialize`].
    pub fn materialize_streamed(&self) -> StreamedInstance {
        self.materialize_streamed_parts(self.platform.realize())
    }

    /// [`Cell::materialize_streamed`] resuming platform-sampler streams
    /// from a per-worker [`SamplerCache`]; bit-identical to
    /// [`Cell::materialize_streamed`].
    pub fn materialize_streamed_with(&self, cache: &mut SamplerCache) -> StreamedInstance {
        self.materialize_streamed_parts(self.platform.realize_with(cache))
    }

    fn materialize_streamed_parts(&self, platform: Platform) -> StreamedInstance {
        let timeline = match &self.scenario {
            Some(s) => s
                .spec
                .compile(platform.num_slaves())
                .unwrap_or_else(|e| panic!("scenario failed to compile: {e}")),
            None => Timeline::EMPTY,
        };
        let c: Vec<f64> = platform.iter().map(|(_, s)| s.c).collect();
        let p: Vec<f64> = platform.iter().map(|(_, s)| s.p).collect();
        let mut bounds = StreamingBounds::new(&c, &p, self.tasks);
        // Bounds see the *nominal* releases (perturbation preserves
        // releases, and the batch path also bounds the nominal instance).
        let mut nominal = GeneratedSource::new(self.arrival, self.tasks, &platform, self.task_seed);
        while let Some(t) = nominal.next_task() {
            bounds.push(t.release.as_f64());
        }
        StreamedInstance {
            lb_makespan: bounds.makespan(),
            lb_max_flow: bounds.max_flow(),
            lb_sum_flow: bounds.sum_flow(),
            platform,
            timeline,
        }
    }

    /// Runs this cell against a shared materialization. `mat` must come
    /// from [`Cell::materialize`]/[`Cell::materialize_with`] of a cell for
    /// which [`Cell::same_instance`] holds (the caller's grouping
    /// invariant); results are then bit-identical to [`Cell::try_run_in`].
    ///
    /// `scheduler` must be the one this cell would build
    /// ([`Cell::build_scheduler`]); the engine fully re-initializes it per
    /// run, so reuse across cells is bit-transparent. `probe` observes the
    /// engine run and cannot change its results; with [`NoopProbe`] the
    /// run is the uninstrumented one.
    pub fn try_run_probed<P: Probe>(
        &self,
        mat: &MaterializedInstance,
        ws: &mut SimWorkspace,
        scheduler: &mut dyn OnlineScheduler,
        probe: &mut P,
    ) -> Result<CellMetrics, CellError> {
        let tasks = mat.perturbed.as_deref().unwrap_or(&mat.nominal);
        self.try_run_on(
            &mat.platform,
            &mat.timeline,
            mat.lb_makespan,
            tasks,
            ws,
            scheduler,
            probe,
        )
        .map(|(metrics, _)| metrics)
    }

    /// [`Cell::try_run_probed`] in bounded memory against a shared
    /// [`StreamedInstance`], pulling tasks from a fresh [`Cell::source`].
    /// The [`CellMetrics`] are bit-identical to the materialized run; the
    /// accompanying [`StreamStats`] carry the task-slot high-water marks
    /// the bounded-memory contract caps.
    pub fn try_run_streamed_probed<P: Probe>(
        &self,
        inst: &StreamedInstance,
        ws: &mut SimWorkspace,
        scheduler: &mut dyn OnlineScheduler,
        probe: &mut P,
    ) -> Result<(CellMetrics, StreamStats), CellError> {
        let mut source = self.source(&inst.platform);
        self.try_run_on(
            &inst.platform,
            &inst.timeline,
            inst.lb_makespan,
            &mut source,
            ws,
            scheduler,
            probe,
        )
    }

    /// The engine run behind both `try_run_*`: `tasks` on the instance's
    /// platform and timeline, with the makespan measured against its
    /// certified lower bound `lb`.
    #[allow(clippy::too_many_arguments)]
    fn try_run_on<'t, P: Probe>(
        &self,
        platform: &Platform,
        timeline: &Timeline,
        lb: f64,
        tasks: impl Into<TaskInput<'t>>,
        ws: &mut SimWorkspace,
        scheduler: &mut dyn OnlineScheduler,
        probe: &mut P,
    ) -> Result<(CellMetrics, StreamStats), CellError> {
        let cfg = self.sim_config_for(timeline);
        let run = simulate_objectives_in(ws, platform, tasks, &cfg, timeline, scheduler, probe)
            .map_err(|e| self.abort_error(&e))?;
        let objectives = run.objectives;
        let metrics = CellMetrics {
            makespan: objectives.makespan,
            max_flow: objectives.max_flow,
            sum_flow: objectives.sum_flow,
            lb_makespan: lb,
            ratio_makespan: if lb > 0.0 {
                objectives.makespan / lb
            } else {
                f64::NAN
            },
            run_metrics: None,
        };
        Ok((metrics, run))
    }

    /// Builds the scheduler instance this cell runs:
    /// [`Redispatch`]-wrapped iff the cell is fault-aware.
    pub fn build_scheduler(&self) -> Box<dyn OnlineScheduler> {
        match &self.scenario {
            Some(s) if s.fault_aware => Box::new(Redispatch::wrap(self.algorithm)),
            _ => self.algorithm.build(),
        }
    }

    /// The exact engine configuration this cell simulates under, given its
    /// compiled timeline (the `timeline` of its [`MaterializedInstance`] or
    /// [`StreamedInstance`]; both paths produce the identical
    /// configuration). Also used to replay a single cell with probes
    /// attached.
    pub fn sim_config_for(&self, timeline: &Timeline) -> SimConfig {
        SimConfig {
            horizon_hint: Some(self.tasks),
            info: self.information,
            // Instance-scaled step budget: a clean run takes ~4 steps per
            // task, and each platform-timeline event adds at most a
            // handful of steps plus O(tasks) re-releases/re-sends, so this
            // is two-plus orders of magnitude of headroom even for extreme
            // user scenarios — while livelocking fault-oblivious cells
            // abort promptly instead of burning the engine-default
            // 10M-step budget. The budget is not part of the cell identity
            // and no artifact-producing path contains aborting cells, so
            // observable outputs are unchanged.
            max_steps: 50_000
                + 5_000 * self.tasks
                + timeline.events().len() * (10 + 2 * self.tasks),
        }
    }

    fn abort_error(&self, e: &SimError) -> CellError {
        CellError {
            kind: AbortKind::from(e),
            message: format!("{} failed on {:?}: {e}", self.algorithm, self.platform),
        }
    }

    /// `true` iff `other` describes the same *instance* — every field but
    /// the algorithm and the information tier agrees — so both cells can
    /// run against one [`MaterializedInstance`] (the tier only filters the
    /// scheduler's view of it). This is the batched executor's grouping
    /// key.
    pub fn same_instance(&self, other: &Cell) -> bool {
        self.platform == other.platform
            && self.arrival == other.arrival
            && self.perturbation == other.perturbation
            && self.scenario == other.scenario
            && self.tasks == other.tasks
            && self.replicate == other.replicate
            && self.task_seed == other.task_seed
    }

    /// Label of the aggregation group this cell belongs to (everything but
    /// the algorithm and the replication indices).
    pub fn group_label(&self) -> String {
        let pert = match &self.perturbation {
            Some(p) => p.label(),
            None => "exact".to_string(),
        };
        // Static clairvoyant cells keep the historical label shape; a
        // scenario adds a column between the perturbation and the task
        // count, and a sub-clairvoyant tier adds one after it.
        let scenario = match &self.scenario {
            Some(s) => format!(" | {}", s.label()),
            None => String::new(),
        };
        let info = match self.information {
            InfoTier::Clairvoyant => String::new(),
            tier => format!(" | info={tier}"),
        };
        format!(
            "{} | {} | {}{}{} | n={}",
            self.platform.group_label(),
            self.arrival.label(),
            pert,
            scenario,
            info,
            self.tasks
        )
    }

    /// Identifier of the replication point within a group: cells that share
    /// a point (same platform draw, same replicate) but differ in algorithm
    /// are comparable head-to-head (used for baseline normalization).
    pub fn point_id(&self) -> (u64, u64) {
        (self.platform.replicate_index(), self.replicate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(algorithm: Algorithm) -> Cell {
        Cell {
            platform: PlatformCell::Class {
                class: PlatformClass::Heterogeneous,
                slaves: 3,
                seed: 42,
                index: 1,
            },
            arrival: ArrivalProcess::AllAtZero,
            perturbation: None,
            scenario: None,
            tasks: 30,
            algorithm,
            information: InfoTier::Clairvoyant,
            replicate: 0,
            task_seed: 7,
        }
    }

    fn faulty(algorithm: Algorithm) -> Cell {
        let mut c = cell(algorithm);
        c.scenario = Some(ScenarioCell {
            spec: ScenarioSpec {
                seed: 11,
                horizon: Some(500.0),
                min_up: Some(1),
                generators: Some(vec![mss_scenario::GeneratorSpec {
                    kind: "poisson-failures".into(),
                    mtbf: Some(60.0),
                    repair_mean: Some(10.0),
                    ..mss_scenario::GeneratorSpec::default()
                }]),
                ..ScenarioSpec::static_spec()
            },
            fault_aware: true,
        });
        c
    }

    #[test]
    fn class_platform_matches_sampler_stream() {
        let direct = PlatformSampler {
            num_slaves: 3,
            ..PlatformSampler::default()
        }
        .sample_many(PlatformClass::Heterogeneous, 2, 42);
        let realized = cell(Algorithm::Srpt).platform.realize();
        assert_eq!(realized, direct[1]);
    }

    #[test]
    fn reused_workspace_matches_fresh_runs() {
        // One workspace across heterogeneous cells (different algorithms,
        // platforms, scenarios) must reproduce every fresh-run result.
        let mut ws = SimWorkspace::new();
        for c in [
            cell(Algorithm::ListScheduling),
            cell(Algorithm::Srpt),
            faulty(Algorithm::ListScheduling),
            cell(Algorithm::Sljfwc),
        ] {
            assert_eq!(c.run_in(&mut ws), c.run(), "{}", c.algorithm);
        }
    }

    #[test]
    fn run_is_deterministic_and_bounded() {
        let a = cell(Algorithm::ListScheduling).run();
        let b = cell(Algorithm::ListScheduling).run();
        assert_eq!(a, b);
        assert!(a.makespan > 0.0);
        assert!(a.lb_makespan > 0.0);
        assert!(a.ratio_makespan >= 1.0 - 1e-9, "ratio {}", a.ratio_makespan);
    }

    #[test]
    fn perturbation_changes_metrics_but_not_lb() {
        let exact = cell(Algorithm::ListScheduling).run();
        let mut pert_cell = cell(Algorithm::ListScheduling);
        pert_cell.perturbation = Some(PerturbCell {
            delta: 0.1,
            comm_exponent: 2.0,
            comp_exponent: 3.0,
            seed: 5,
        });
        let pert = pert_cell.run();
        assert_eq!(exact.lb_makespan, pert.lb_makespan);
        assert_ne!(exact.makespan, pert.makespan);
    }

    #[test]
    fn cells_round_trip_through_json() {
        let mut c = faulty(Algorithm::Sljfwc);
        c.perturbation = Some(PerturbCell {
            delta: 0.1,
            comm_exponent: 1.0,
            comp_exponent: 1.0,
            seed: 3,
        });
        let json = serde_json::to_string(&c).unwrap();
        let back: Cell = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn static_scenario_cell_matches_no_scenario() {
        // An empty scenario (even fault-aware) is the identity.
        let mut static_cell = cell(Algorithm::ListScheduling);
        static_cell.scenario = Some(ScenarioCell {
            spec: ScenarioSpec::static_spec(),
            fault_aware: true,
        });
        assert_eq!(static_cell.run(), cell(Algorithm::ListScheduling).run());
    }

    #[test]
    fn failure_scenario_runs_deterministically_and_degrades() {
        let a = faulty(Algorithm::ListScheduling).run();
        let b = faulty(Algorithm::ListScheduling).run();
        assert_eq!(a, b, "scenario cells replay bit-for-bit");
        let clean = cell(Algorithm::ListScheduling).run();
        assert!(
            a.makespan >= clean.makespan,
            "failures cannot improve the makespan: {} vs {}",
            a.makespan,
            clean.makespan
        );
        assert_eq!(a.lb_makespan, clean.lb_makespan, "bounds ignore failures");
    }

    #[test]
    fn information_tiers_share_the_instance_and_stay_live() {
        let clair = cell(Algorithm::ListScheduling);
        let mut oblivious = clair.clone();
        oblivious.information = InfoTier::SpeedOblivious;
        let mut blind = clair.clone();
        blind.information = InfoTier::NonClairvoyant;

        // One materialization serves every tier (the batching contract).
        assert!(clair.same_instance(&oblivious) && clair.same_instance(&blind));
        let mat = clair.materialize();
        let mut ws = SimWorkspace::new();
        let mut run = |c: &Cell| {
            c.try_run_probed(&mat, &mut ws, c.build_scheduler().as_mut(), &mut NoopProbe)
                .unwrap()
        };
        let base = run(&clair);
        let oblv = run(&oblivious);
        let nonc = run(&blind);

        // Withdrawing knowledge cannot beat the certified lower bound, the
        // runs complete, and the bounds (instance properties) agree.
        for m in [&base, &oblv, &nonc] {
            assert!(m.makespan > 0.0 && m.ratio_makespan >= 1.0 - 1e-9);
            assert_eq!(m.lb_makespan, base.lb_makespan);
        }
        // Tier cells replay bit-for-bit and match the unbatched path.
        assert_eq!(oblivious.run(), oblv);
        assert_eq!(blind.run(), nonc);

        // Labels: clairvoyant keeps the historical shape; lower tiers get
        // their own aggregation groups.
        assert!(!clair.group_label().contains("info="));
        assert!(oblivious.group_label().contains("info=speed-oblivious"));
        assert!(blind.group_label().contains("info=non-clairvoyant"));
    }

    #[test]
    fn scenario_labels_group_cells() {
        let c = faulty(Algorithm::Srpt);
        assert!(c.group_label().contains("+RD"), "{}", c.group_label());
        assert!(
            !cell(Algorithm::Srpt).group_label().contains("+RD"),
            "static label unchanged"
        );
    }
}
