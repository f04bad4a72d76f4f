//! Regression guards for the dynamic-platform subsystem: the static model
//! must be *byte-identical* to the pre-scenario engine, and dynamic runs
//! must honor the same determinism contract the static engine guarantees.

use master_slave_sched::core::{
    simulate, simulate_in, Algorithm, NoopProbe, Redispatch, SimConfig, SimWorkspace, Timeline,
};
use master_slave_sched::scenario::{GeneratorSpec, ScenarioSpec};
use master_slave_sched::workload::{ArrivalProcess, PlatformSampler};
use mss_core::PlatformClass;
use mss_lab::fig1;
use mss_lab::report::ExperimentScale;
use mss_sweep::{Cell, ScenarioCell, SweepConfig};

/// Every algorithm, every platform class: the empty timeline and the
/// compiled static scenario replay the static engine bit for bit.
#[test]
fn static_scenario_traces_are_byte_identical() {
    let sampler = PlatformSampler::default();
    let empty = ScenarioSpec::static_spec();
    for class in [
        PlatformClass::Homogeneous,
        PlatformClass::CommHomogeneous,
        PlatformClass::CompHomogeneous,
        PlatformClass::Heterogeneous,
    ] {
        let platform = &sampler.sample_many(class, 1, 23)[0];
        let tasks = ArrivalProcess::Poisson { load: 0.9 }.generate(80, platform, 31);
        let cfg = SimConfig::with_horizon(tasks.len());
        let compiled = empty.compile(platform.num_slaves()).unwrap();
        assert_eq!(compiled, Timeline::EMPTY);
        let mut ws = SimWorkspace::new();
        for a in Algorithm::ALL {
            let reference = simulate(platform, &tasks, &cfg, &mut a.build()).unwrap();
            let via_events = simulate_in(
                &mut ws,
                platform,
                &tasks,
                &cfg,
                &compiled,
                &mut a.build(),
                &mut NoopProbe,
            )
            .unwrap();
            assert_eq!(reference, via_events, "{a} on {class}");
            // The fault-aware wrapper is the identity on static platforms.
            let wrapped = simulate_in(
                &mut ws,
                platform,
                &tasks,
                &cfg,
                &compiled,
                &mut Redispatch::wrap(a),
                &mut NoopProbe,
            )
            .unwrap();
            assert_eq!(reference, wrapped, "{a}+RD on {class}");
        }
    }
}

/// The Figure 1 grid run through static-scenario cells produces the same
/// metrics as the historical cells — the fig1/fig2/table1 outputs cannot
/// move.
#[test]
fn fig1_cells_are_unmoved_by_the_scenario_axis() {
    let cells = fig1::panel_cells(
        PlatformClass::Heterogeneous,
        ExperimentScale::quick(),
        ArrivalProcess::AllAtZero,
    );
    for cell in cells {
        let reference = cell.run();
        let mut with_static = cell.clone();
        with_static.scenario = Some(ScenarioCell {
            spec: ScenarioSpec::static_spec(),
            fault_aware: true,
        });
        assert_eq!(with_static.run(), reference, "{}", cell.group_label());
    }
}

/// A fixed `(seed, ScenarioSpec)` yields bit-identical metrics and
/// aggregates at any thread count, and the whole dynamic pipeline replays.
#[test]
fn dynamic_runs_replay_and_are_thread_count_invariant() {
    let scenario = ScenarioSpec {
        name: Some("guard".into()),
        seed: 77,
        horizon: Some(600.0),
        min_up: Some(1),
        events: None,
        generators: Some(vec![
            GeneratorSpec {
                kind: "poisson-failures".into(),
                mtbf: Some(80.0),
                repair_mean: Some(12.0),
                ..GeneratorSpec::default()
            },
            GeneratorSpec {
                kind: "link-drift".into(),
                step: Some(50.0),
                sigma: Some(0.3),
                ..GeneratorSpec::default()
            },
        ]),
    };
    let cells: Vec<Cell> = Algorithm::ALL
        .iter()
        .map(|&algorithm| Cell {
            platform: mss_sweep::PlatformCell::Class {
                class: PlatformClass::Heterogeneous,
                slaves: 5,
                seed: 42,
                index: 0,
            },
            arrival: ArrivalProcess::UniformStream { load: 0.9 },
            perturbation: None,
            scenario: Some(ScenarioCell {
                spec: scenario.clone(),
                fault_aware: true,
            }),
            tasks: 60,
            algorithm,
            information: mss_core::InfoTier::Clairvoyant,
            replicate: 0,
            task_seed: 9,
        })
        .collect();

    let run = |threads: usize| {
        mss_sweep::run_cells(
            cells.clone(),
            &SweepConfig {
                threads,
                cache_dir: None,
                ..SweepConfig::default()
            },
        )
        .metrics
    };
    let serial = run(1);
    assert_eq!(serial, run(4));
    assert_eq!(serial, run(16));
    // And re-running serially replays bit-for-bit.
    assert_eq!(serial, run(1));
}
