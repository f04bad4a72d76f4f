//! Property: **streaming is observationally pure** (contract #13).
//!
//! For arbitrary sweep specs — platforms × arrivals × perturbations ×
//! scenarios × information tiers, all seven heuristics plain and
//! `Redispatch`-wrapped — pulling tasks lazily from a seeded
//! [`GeneratedSource`](mss_workload::GeneratedSource) must be
//! indistinguishable from materializing the instance first, at every
//! level the harness can observe:
//!
//! * **sweep results** — `try_run_cells` with `streamed: true` returns,
//!   at 1, 2 and max threads, exactly the materialized-path results bit
//!   for bit, *including* the [`CellRunMetrics`](mss_sweep::CellRunMetrics)
//!   telemetry payloads (histograms, per-slave busy seconds, queue stats);
//! * **traces** — the engine's full per-task [`Trace`](mss_core::Trace)
//!   agrees record for record (and error-for-error on aborting cells);
//! * **digests** — a [`DigestProbe`](mss_obs::DigestProbe) hashing the
//!   entire engine event stream sees the same sequence;
//! * **bounds** — the single-pass `StreamingBounds` certificate equals
//!   the batch bounds on the materialized release vector.

use mss_core::{simulate_in, SimWorkspace};
use mss_obs::DigestProbe;
use mss_scenario::{EventSpec, GeneratorSpec};
use mss_sweep::{try_run_cells, Cell, ScenarioAxis, SweepConfig, SweepSpec};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique store directories across the concurrently running tests of this
/// binary.
static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_store_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "mss-stream-eq-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// All store records by shard file, each shard's lines sorted: the
/// thread-count-invariant view of the store's bytes (contract #14 — record
/// lines are fixed, intra-shard order is scheduling-dependent).
fn sorted_shard_lines(dir: &Path) -> BTreeMap<String, Vec<String>> {
    let mut shards = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("store dir exists") {
        let entry = entry.expect("read store dir entry");
        let name = entry.file_name().into_string().expect("utf-8 shard name");
        if !name.ends_with(".jsonl") {
            continue;
        }
        let body = std::fs::read_to_string(entry.path()).expect("read shard");
        let mut lines: Vec<String> = body.lines().map(str::to_string).collect();
        lines.sort_unstable();
        shards.insert(name, lines);
    }
    shards
}

fn algorithms(picks: &[usize]) -> Vec<String> {
    const NAMES: [&str; 7] = ["SRPT", "LS", "RR", "RRC", "RRP", "SLJF", "SLJFWC"];
    picks.iter().map(|&i| NAMES[i % 7].to_string()).collect()
}

fn arb_platform_axis() -> impl Strategy<Value = mss_sweep::PlatformAxis> {
    prop_oneof![
        (0usize..4, 1usize..3, 2usize..5).prop_map(|(class, count, slaves)| {
            mss_sweep::PlatformAxis {
                kind: "class".into(),
                class: Some(["homogeneous", "comm", "comp", "het"][class].into()),
                count: Some(count),
                slaves: Some(slaves),
                axis: None,
                levels: None,
                families: None,
                c: None,
                p: None,
            }
        }),
        proptest::collection::vec((0.05f64..1.0, 0.2f64..4.0), 1..4).prop_map(|specs| {
            let (c, p): (Vec<f64>, Vec<f64>) = specs.into_iter().unzip();
            mss_sweep::PlatformAxis {
                kind: "explicit".into(),
                class: None,
                count: None,
                slaves: None,
                axis: None,
                levels: None,
                families: None,
                c: Some(c),
                p: Some(p),
            }
        }),
    ]
}

fn arb_arrival_axis() -> impl Strategy<Value = mss_sweep::ArrivalAxis> {
    prop_oneof![
        Just(mss_sweep::ArrivalAxis {
            kind: "bag".into(),
            load: None,
        }),
        (0.5f64..1.2).prop_map(|load| mss_sweep::ArrivalAxis {
            kind: "stream".into(),
            load: Some(load),
        }),
        (0.5f64..1.2).prop_map(|load| mss_sweep::ArrivalAxis {
            kind: "poisson".into(),
            load: Some(load),
        }),
    ]
}

fn arb_perturbations() -> impl Strategy<Value = Option<Vec<mss_sweep::PerturbAxis>>> {
    proptest::option::of((0usize..2, 0.0f64..0.3).prop_map(|(mode, delta)| {
        vec![mss_sweep::PerturbAxis {
            mode: ["linear", "matrix"][mode].into(),
            delta: Some(delta),
        }]
    }))
}

fn arb_information() -> impl Strategy<Value = Option<Vec<String>>> {
    proptest::option::of(
        proptest::collection::vec(0usize..3, 1..3).prop_map(|picks| {
            picks
                .into_iter()
                .map(|i| ["clairvoyant", "speed-oblivious", "non-clairvoyant"][i].to_string())
                .collect()
        }),
    )
}

fn arb_static_spec() -> impl Strategy<Value = SweepSpec> {
    (
        0u64..u64::MAX,
        proptest::collection::vec(0usize..7, 1..4),
        proptest::collection::vec(arb_platform_axis(), 1..3),
        proptest::collection::vec(arb_arrival_axis(), 1..3),
        arb_perturbations(),
        arb_information(),
        1usize..25,
        1u64..3,
    )
        .prop_map(
            |(seed, algs, platforms, arrivals, perturbations, information, tasks, replicates)| {
                SweepSpec {
                    name: "stream-equivalence".into(),
                    seed,
                    replicates: Some(replicates),
                    tasks: vec![tasks],
                    algorithms: algorithms(&algs),
                    platforms,
                    arrivals,
                    perturbations,
                    scenarios: None,
                    information,
                }
            },
        )
}

/// Scenario axes: the static model, a fault-aware (`Redispatch`) dynamic
/// scenario, and — when `with_plain` — a fault-*oblivious* one with a
/// permanently failing slave whose cells legitimately abort, so the
/// streamed path must reproduce the abort byte for byte too.
fn scenario_axes(with_plain: bool) -> Vec<ScenarioAxis> {
    let mut axes = vec![
        ScenarioAxis {
            kind: "static".into(),
            fault: None,
            name: None,
            horizon: None,
            min_up: None,
            events: None,
            generators: None,
        },
        ScenarioAxis {
            kind: "dynamic".into(),
            fault: Some("redispatch".into()),
            name: None,
            horizon: Some(200.0),
            min_up: Some(1),
            events: None,
            generators: Some(vec![GeneratorSpec {
                kind: "poisson-failures".into(),
                mtbf: Some(20.0),
                repair_mean: Some(5.0),
                ..GeneratorSpec::default()
            }]),
        },
    ];
    if with_plain {
        axes.push(ScenarioAxis {
            kind: "dynamic".into(),
            fault: Some("plain".into()),
            name: Some("perma-fail".into()),
            horizon: None,
            min_up: Some(1),
            events: Some(vec![EventSpec {
                at: 0.01,
                slave: 0,
                kind: "fail".into(),
                factor: None,
            }]),
            generators: None,
        });
    }
    axes
}

fn arb_scenario_spec() -> impl Strategy<Value = SweepSpec> {
    (
        0u64..u64::MAX,
        proptest::collection::vec(0usize..7, 1..3),
        (0usize..4, 1usize..3),
        2usize..6,
        (0u32..2).prop_map(|b| b == 1),
    )
        .prop_map(
            |(seed, algs, (class, count), tasks, with_plain)| SweepSpec {
                name: "stream-equivalence-scenarios".into(),
                seed,
                replicates: Some(1),
                tasks: vec![tasks],
                algorithms: algorithms(&algs),
                platforms: vec![mss_sweep::PlatformAxis {
                    kind: "class".into(),
                    class: Some(["homogeneous", "comm", "comp", "het"][class].into()),
                    count: Some(count),
                    slaves: Some(3),
                    axis: None,
                    levels: None,
                    families: None,
                    c: None,
                    p: None,
                }],
                arrivals: vec![mss_sweep::ArrivalAxis {
                    kind: "poisson".into(),
                    load: Some(0.9),
                }],
                perturbations: None,
                scenarios: Some(scenario_axes(with_plain)),
                information: None,
            },
        )
}

fn config(threads: usize, streamed: bool) -> SweepConfig {
    SweepConfig {
        threads,
        cache_dir: None,
        progress: false,
        count_events: false,
        collect_metrics: true,
        streamed,
        split_events: mss_sweep::DEFAULT_SPLIT_EVENTS,
    }
}

/// Per-cell trace- and digest-level comparison: the materialized engine
/// run against the streamed one, probe hashes included.
fn check_traces_and_digests(cells: &[Cell]) {
    let mut ws = SimWorkspace::new();
    for cell in cells {
        let mat = cell.materialize();
        let inst = cell.materialize_streamed();
        // The O(slaves) streamed materialization certifies the identical
        // lower bounds without ever holding the release vector.
        assert_eq!(mat.lb_makespan.to_bits(), inst.lb_makespan.to_bits());
        assert_eq!(mat.lb_max_flow.to_bits(), inst.lb_max_flow.to_bits());
        assert_eq!(mat.lb_sum_flow.to_bits(), inst.lb_sum_flow.to_bits());

        let cfg = cell.sim_config_for(&mat.timeline);
        let tasks = mat.perturbed.as_deref().unwrap_or(&mat.nominal);
        let mut digest_mat = DigestProbe::new();
        let mut sched = cell.build_scheduler();
        let trace_mat = simulate_in(
            &mut ws,
            &mat.platform,
            tasks,
            &cfg,
            &mat.timeline,
            sched.as_mut(),
            &mut digest_mat,
        );

        let mut digest_str = DigestProbe::new();
        let mut sched = cell.build_scheduler();
        let mut source = cell.source(&inst.platform);
        let trace_str = simulate_in(
            &mut ws,
            &inst.platform,
            &mut source,
            &cfg,
            &inst.timeline,
            sched.as_mut(),
            &mut digest_str,
        );

        let label = format!("{} on {:?}", cell.algorithm, cell.platform);
        match (trace_mat, trace_str) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{label}: trace diverged"),
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "{label}: abort diverged")
            }
            (a, b) => panic!("{label}: outcome kind diverged: {a:?} vs {b:?}"),
        }
        // The digest hashes every probe hook in order — equal digests mean
        // the streamed engine emitted the identical event stream.
        assert_eq!(digest_mat.digest(), digest_str.digest(), "{label}: digest");
        assert_eq!(digest_mat.events(), digest_str.events(), "{label}: events");
    }
}

fn check_spec(spec: &SweepSpec) {
    let cells = spec.expand().expect("generated spec expands");
    // Oracle: the materialized executor with telemetry payloads attached.
    let oracle = try_run_cells(&cells, &config(1, false));

    for threads in [1, 2, mss_sweep::default_threads(64)] {
        let streamed = try_run_cells(&cells, &config(threads, true));
        assert_eq!(streamed.executed, cells.len());
        // `SweepConfig::streamed` really reached the batch runner: no
        // batch materialized a task vector.
        assert_eq!(streamed.stats.materialized_tasks, 0);
        assert!(oracle.stats.materialized_tasks > 0);
        for (i, (s, m)) in streamed.results.iter().zip(&oracle.results).enumerate() {
            // `==` on the f64 metrics is exact, and `CellMetrics` includes
            // the full `CellRunMetrics` telemetry payload.
            assert_eq!(
                s, m,
                "slot {i} ({} on {:?}) diverged at {threads} threads",
                cells[i].algorithm, cells[i].platform
            );
        }
    }

    // Forced splitting with a live store, streamed against materialized:
    // a 1-event threshold makes every batch split into single-cell
    // sub-units, so the streamed path is exercised under maximal stealing
    // too — and the store's record bytes (per-shard sorted line multisets)
    // must match the materialized path's bytes at every thread count.
    let mut store_baseline: Option<BTreeMap<String, Vec<String>>> = None;
    for (threads, streamed) in [
        (1, false),
        (1, true),
        (2, true),
        (mss_sweep::default_threads(64), true),
    ] {
        let dir = fresh_store_dir();
        let outcome = try_run_cells(
            &cells,
            &SweepConfig {
                cache_dir: Some(dir.clone()),
                split_events: 1,
                ..config(threads, streamed)
            },
        );
        assert_eq!(outcome.executed, cells.len(), "fresh store: all execute");
        for (i, (s, m)) in outcome.results.iter().zip(&oracle.results).enumerate() {
            assert_eq!(
                s, m,
                "slot {i} diverged (forced split, streamed={streamed}, {threads} threads)"
            );
        }
        let lines = sorted_shard_lines(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        match &store_baseline {
            None => store_baseline = Some(lines),
            Some(base) => assert_eq!(
                &lines, base,
                "store bytes diverged (forced split, streamed={streamed}, {threads} threads)"
            ),
        }
    }

    check_traces_and_digests(&cells);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary static grids (perturbations × information tiers × all
    /// seven heuristics): streamed == materialized at 1, 2, max threads,
    /// down to traces, digests and telemetry payloads.
    #[test]
    fn streamed_equals_materialized(spec in arb_static_spec()) {
        check_spec(&spec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Grids with dynamic-platform scenarios — `Redispatch`-wrapped cells
    /// and fault-oblivious cells that abort on the step budget: the
    /// streamed path reproduces completions and aborts alike.
    #[test]
    fn streamed_equals_materialized_under_scenarios(spec in arb_scenario_spec()) {
        check_spec(&spec);
    }
}
