//! Golden-fixture tests of the trace-replay source.
//!
//! `examples/replay_trace.{csv,jsonl}` are the committed walkthrough
//! fixtures (the README's "Streaming workloads" section replays them);
//! both encodings must parse to the identical task stream, drive a full
//! streamed simulation, and reject schema violations with located errors
//! matching the repo's strict-key convention.

use mss_core::{simulate_in, Algorithm, NoopProbe, Platform, SimConfig, SimWorkspace, Timeline};
use mss_workload::{TaskSource, TraceFormat, TraceSource};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name)
}

/// The task stream both fixtures encode: (release, size_c, size_p).
const GOLDEN: [(f64, f64, f64); 6] = [
    (0.0, 1.0, 1.0),
    (0.0, 1.0, 1.0),
    (0.5, 0.8, 1.2),
    (1.5, 1.2, 0.9),
    (2.25, 1.0, 1.0),
    (3.0, 0.6, 1.4),
];

fn drain(source: &mut TraceSource) -> Vec<(f64, f64, f64)> {
    std::iter::from_fn(|| source.next_task())
        .map(|t| (t.release.as_f64(), t.size_c, t.size_p))
        .collect()
}

#[test]
fn golden_fixtures_parse_to_the_same_stream() {
    let mut csv = TraceSource::open(fixture("replay_trace.csv")).unwrap();
    let mut jsonl = TraceSource::open(fixture("replay_trace.jsonl")).unwrap();
    assert_eq!(csv.len(), GOLDEN.len());
    assert_eq!(jsonl.len(), GOLDEN.len());
    assert_eq!(csv.dropped(), 0, "the committed fixture has no torn line");
    assert_eq!(jsonl.dropped(), 0);

    let from_csv = drain(&mut csv);
    let from_jsonl = drain(&mut jsonl);
    assert_eq!(from_csv, GOLDEN);
    assert_eq!(from_jsonl, from_csv, "both encodings replay identically");

    // The source is resumable: reset() replays the file from the top.
    csv.reset();
    assert_eq!(drain(&mut csv), GOLDEN);
}

#[test]
fn golden_fixture_drives_a_streamed_simulation() {
    // The README walkthrough: replay a recorded trace straight into the
    // engine without materializing it.
    let platform = Platform::from_vectors(&[0.2, 0.4], &[1.0, 2.0]);
    let mut source = TraceSource::open(fixture("replay_trace.jsonl")).unwrap();
    let n = source.len();
    let mut scheduler = Algorithm::ListScheduling.build();
    let trace = simulate_in(
        &mut SimWorkspace::new(),
        &platform,
        &mut source,
        &SimConfig::with_horizon(n),
        &Timeline::EMPTY,
        scheduler.as_mut(),
        &mut NoopProbe,
    )
    .unwrap();
    assert_eq!(trace.len(), GOLDEN.len());
    // Replays are deterministic: a second pass over the same file is
    // bit-identical.
    source.reset();
    let mut scheduler = Algorithm::ListScheduling.build();
    let again = simulate_in(
        &mut SimWorkspace::new(),
        &platform,
        &mut source,
        &SimConfig::with_horizon(n),
        &Timeline::EMPTY,
        scheduler.as_mut(),
        &mut NoopProbe,
    )
    .unwrap();
    assert_eq!(again, trace);
}

#[test]
fn unknown_column_is_rejected_with_a_located_error() {
    let err = TraceSource::from_str(
        "release,size_c,size_p,priority\n0.0,1.0,1.0,3\n",
        TraceFormat::Csv,
        "bad.csv",
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("unknown column `priority`"), "{msg}");
    assert!(msg.contains("bad.csv:1"), "located at the header: {msg}");
}

#[test]
fn unsorted_releases_are_rejected() {
    let err = TraceSource::from_str(
        "release,size_c,size_p\n2.0,1.0,1.0\n1.0,1.0,1.0\n",
        TraceFormat::Csv,
        "unsorted.csv",
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("releases must be non-decreasing"), "{msg}");
    assert!(msg.contains("unsorted.csv:3"), "{msg}");
}

#[test]
fn torn_final_line_is_recovered_like_the_jsonl_store() {
    // A crash mid-append leaves a truncated last record; replay drops it
    // (and counts it) exactly like the sweep result store does.
    let torn = "{\"release\": 0.0, \"size_c\": 1.0, \"size_p\": 1.0}\n{\"release\": 1.0, \"si";
    let mut source = TraceSource::from_str(torn, TraceFormat::Jsonl, "torn.jsonl").unwrap();
    assert_eq!(source.len(), 1);
    assert_eq!(source.dropped(), 1);
    assert_eq!(drain(&mut source), vec![(0.0, 1.0, 1.0)]);
}
