//! Pull-based task sources: materialized, generated, and trace-replay.
//!
//! Given a [`TaskSource`] instead of a slice, the engine's run functions
//! (`mss_sim::simulate_in`, `mss_sim::simulate_objectives_in`) pull
//! arrivals one at a time, so a million-task instance never has to exist
//! in memory at once. This module provides the three
//! implementations the lab uses:
//!
//! * [`MaterializedSource`] — wraps an existing `Vec<TaskArrival>`; the
//!   bit-exact default for instances that already fit in memory;
//! * [`GeneratedSource`] — lazily drives the existing [`ArrivalProcess`]
//!   and [`Perturbation`] samplers in per-task lockstep, yielding exactly
//!   the sequence `process.generate(..)` + `perturbation.apply(..)` would
//!   materialize (same RNG draws, same arithmetic, same order);
//! * [`TraceSource`] — replays a CSV or JSONL cluster trace from disk with
//!   strict schema validation (unknown columns/keys are rejected with
//!   located errors, like the TOML spec parser) and torn-final-line
//!   recovery (like the sweep result store).
//!
//! All three are seed-deterministic and resumable: [`TaskSource::reset`]
//! rewinds to an identical replay, so the sweep executor re-instantiates
//! or resets a source per fan-out arm instead of cloning a stream.

use crate::arrivals::ArrivalProcess;
use crate::perturbation::Perturbation;
use mss_core::{Platform, TaskArrival, TaskSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::io::BufRead;
use std::path::{Path, PathBuf};

/// A trace file failed validation (strict schema, sortedness, or format).
///
/// The message names the offending value, its location (`file:line`), and
/// what was expected — same convention as the sweep spec parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(pub String);

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for TraceError {}

// ---------------------------------------------------------------------------
// MaterializedSource
// ---------------------------------------------------------------------------

/// A [`TaskSource`] over an instance that is already in memory.
///
/// This is the bridge between the materialized world and the streamed
/// engine: a streamed run over a `MaterializedSource` is bit-identical to
/// the materialized run over the same slice.
#[derive(Clone, Debug)]
pub struct MaterializedSource {
    tasks: Vec<TaskArrival>,
    cursor: usize,
}

impl MaterializedSource {
    /// Wraps an instance. Tasks must be sorted by release time (the engine
    /// checks and panics otherwise, as for any source).
    pub fn new(tasks: Vec<TaskArrival>) -> Self {
        MaterializedSource { tasks, cursor: 0 }
    }

    /// The wrapped instance (for callers that need both views).
    pub fn tasks(&self) -> &[TaskArrival] {
        &self.tasks
    }
}

impl From<Vec<TaskArrival>> for MaterializedSource {
    fn from(tasks: Vec<TaskArrival>) -> Self {
        MaterializedSource::new(tasks)
    }
}

impl TaskSource for MaterializedSource {
    fn next_task(&mut self) -> Option<TaskArrival> {
        let t = self.tasks.get(self.cursor).copied()?;
        self.cursor += 1;
        Some(t)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.tasks.len())
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }
}

// ---------------------------------------------------------------------------
// GeneratedSource
// ---------------------------------------------------------------------------

/// A [`TaskSource`] that drives the arrival and perturbation samplers
/// lazily, one task at a time.
///
/// Both samplers draw exactly one random number per task in task order, so
/// replaying them in per-task lockstep yields the *bit-identical* sequence
/// the batch path materializes:
///
/// ```text
/// ArrivalProcess::generate(n, platform, seed)        // one draw per task
///   → Perturbation::apply(&tasks, perturbation_seed) // one draw per task
/// ```
///
/// The platform only contributes its [`system
/// throughput`](Platform::system_throughput) (to fix the inter-arrival
/// gap), captured at construction — the source does not hold on to the
/// platform.
///
/// ```
/// use mss_core::TaskSource;
/// use mss_workload::{ArrivalProcess, GeneratedSource, Perturbation};
/// use mss_core::Platform;
///
/// let platform = Platform::from_vectors(&[0.5, 0.5], &[2.0, 2.0]);
/// let process = ArrivalProcess::Poisson { load: 0.9 };
/// let perturbation = Perturbation::linear(0.1);
///
/// // Materialized path …
/// let batch = perturbation.apply(&process.generate(100, &platform, 7), 11);
/// // … and the streamed path, element for element.
/// let mut source = GeneratedSource::new(process, 100, &platform, 7)
///     .with_perturbation(perturbation, 11);
/// let streamed: Vec<_> = std::iter::from_fn(|| source.next_task()).collect();
/// assert_eq!(batch, streamed);
/// ```
#[derive(Clone, Debug)]
pub struct GeneratedSource {
    process: ArrivalProcess,
    n: usize,
    /// Mean inter-arrival gap (unused by `AllAtZero`).
    gap: f64,
    arrival_seed: u64,
    perturbation: Option<(Perturbation, u64)>,
    // --- replay state ---
    emitted: usize,
    clock: f64,
    arrival_rng: StdRng,
    perturb_rng: StdRng,
}

impl GeneratedSource {
    /// A source yielding the same `n` tasks as
    /// `process.generate(n, platform, seed)`.
    pub fn new(process: ArrivalProcess, n: usize, platform: &Platform, seed: u64) -> Self {
        let gap = match process {
            ArrivalProcess::AllAtZero => 0.0,
            ArrivalProcess::UniformStream { load } | ArrivalProcess::Poisson { load } => {
                ArrivalProcess::gap(load, platform)
            }
        };
        GeneratedSource {
            process,
            n,
            gap,
            arrival_seed: seed,
            perturbation: None,
            emitted: 0,
            clock: 0.0,
            arrival_rng: StdRng::seed_from_u64(seed),
            perturb_rng: StdRng::seed_from_u64(0),
        }
    }

    /// Adds the per-task size jitter `perturbation.apply(.., seed)` would
    /// produce, drawn in the same lockstep.
    pub fn with_perturbation(mut self, perturbation: Perturbation, seed: u64) -> Self {
        self.perturbation = Some((perturbation, seed));
        self.perturb_rng = StdRng::seed_from_u64(seed);
        self
    }
}

impl TaskSource for GeneratedSource {
    fn next_task(&mut self) -> Option<TaskArrival> {
        if self.emitted >= self.n {
            return None;
        }
        let i = self.emitted;
        // One draw per task, in task order — the same arithmetic as the
        // batch sampler, so the sequence is bit-identical.
        let mut task = match self.process {
            ArrivalProcess::AllAtZero => TaskArrival::at(0.0),
            ArrivalProcess::UniformStream { .. } => TaskArrival::at(i as f64 * self.gap),
            ArrivalProcess::Poisson { .. } => {
                // Inverse-CDF exponential with mean `gap`.
                let u: f64 = self.arrival_rng.gen_range(f64::EPSILON..1.0);
                self.clock += -self.gap * u.ln();
                TaskArrival::at(self.clock)
            }
        };
        if let Some((p, _)) = self.perturbation {
            let f: f64 = self.perturb_rng.gen_range(1.0 - p.delta..=1.0 + p.delta);
            task.size_c *= f.powf(p.comm_exponent);
            task.size_p *= f.powf(p.comp_exponent);
        }
        self.emitted += 1;
        Some(task)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.n)
    }

    fn reset(&mut self) {
        self.emitted = 0;
        self.clock = 0.0;
        self.arrival_rng = StdRng::seed_from_u64(self.arrival_seed);
        self.perturb_rng = StdRng::seed_from_u64(self.perturbation.map(|(_, s)| s).unwrap_or(0));
    }
}

// ---------------------------------------------------------------------------
// TraceSource
// ---------------------------------------------------------------------------

/// On-disk trace format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// Comma-separated with a mandatory `release,size_c,size_p` header
    /// (any column order).
    Csv,
    /// One JSON object per line with exactly the keys `release`, `size_c`,
    /// `size_p`.
    Jsonl,
}

/// The fields a trace record carries, in canonical order.
const TRACE_FIELDS: [&str; 3] = ["release", "size_c", "size_p"];

/// A [`TaskSource`] replaying a cluster trace from a CSV or JSONL file.
///
/// Opening a trace runs one full streaming validation pass (O(1) memory):
///
/// * **strict schema** — unknown columns/keys are rejected with located
///   errors (`file:line`), the same convention as the TOML spec parser;
/// * **sortedness** — releases must be non-decreasing (the trace *is* the
///   release order);
/// * **torn-line recovery** — a final line that fails to *parse* (a write
///   torn by a crash) is dropped and counted, exactly like the sweep's
///   JSONL result store; a malformed line anywhere earlier is corruption
///   and a hard error.
///
/// Iteration then re-reads the file lazily, so replay memory stays
/// bounded regardless of trace length; [`TaskSource::reset`] rewinds by
/// reopening.
#[derive(Debug)]
pub struct TraceSource {
    input: TraceInput,
    format: TraceFormat,
    /// Valid records the stream will yield.
    tasks: usize,
    /// Torn trailing lines dropped during validation (0 or 1).
    dropped: usize,
    reader: Option<LineReader>,
    parser: Option<TraceParser>,
    line_no: usize,
    emitted: usize,
}

#[derive(Debug)]
enum TraceInput {
    Path(PathBuf),
    Inline { name: String, text: String },
}

impl TraceInput {
    fn location(&self) -> String {
        match self {
            TraceInput::Path(p) => p.display().to_string(),
            TraceInput::Inline { name, .. } => name.clone(),
        }
    }
}

#[derive(Debug)]
enum LineReader {
    File(std::io::BufReader<std::fs::File>),
    /// Byte offset into the inline text.
    Inline(usize),
}

/// Reads the next line (without its terminator) into `buf`.
/// Returns `false` at end of input.
fn read_line(
    input: &TraceInput,
    reader: &mut LineReader,
    buf: &mut String,
) -> Result<bool, TraceError> {
    buf.clear();
    match (reader, input) {
        (LineReader::File(r), _) => {
            let n = r
                .read_line(buf)
                .map_err(|e| TraceError(format!("I/O error reading {}: {e}", input.location())))?;
            if n == 0 {
                return Ok(false);
            }
        }
        (LineReader::Inline(pos), TraceInput::Inline { text, .. }) => {
            if *pos >= text.len() {
                return Ok(false);
            }
            let rest = &text[*pos..];
            let (line, advance) = match rest.find('\n') {
                Some(i) => (&rest[..=i], i + 1),
                None => (rest, rest.len()),
            };
            buf.push_str(line);
            *pos += advance;
        }
        _ => unreachable!("inline reader paired with file input"),
    }
    while buf.ends_with('\n') || buf.ends_with('\r') {
        buf.pop();
    }
    Ok(true)
}

/// One parsed line: either a record, or a parse failure whose recovery
/// depends on whether it is the final line (torn write) or not
/// (corruption).
enum Parsed {
    Record(TaskArrival),
    /// Blank/whitespace-only line — skipped.
    Blank,
    /// The line does not parse; `detail` says why.
    Malformed(String),
}

/// Per-pass parsing state (CSV column mapping, sortedness watermark).
#[derive(Debug)]
struct TraceParser {
    format: TraceFormat,
    location: String,
    /// CSV: maps column position → index into `TRACE_FIELDS`.
    columns: Vec<usize>,
    header_seen: bool,
    last_release: f64,
}

impl TraceParser {
    fn new(format: TraceFormat, location: String) -> Self {
        TraceParser {
            format,
            location,
            columns: Vec::new(),
            header_seen: false,
            last_release: f64::NEG_INFINITY,
        }
    }

    fn err(&self, line_no: usize, msg: String) -> TraceError {
        TraceError(format!("{msg} in {}:{line_no}", self.location))
    }

    /// Parses the CSV header line, building the column mapping.
    fn parse_header(&mut self, line: &str, line_no: usize) -> Result<(), TraceError> {
        for name in line.split(',').map(str::trim) {
            let Some(field) = TRACE_FIELDS.iter().position(|&f| f == name) else {
                return Err(self.err(
                    line_no,
                    format!(
                        "unknown column `{name}` (allowed: {}) — unknown columns are \
                         rejected so typos cannot silently degrade to defaults",
                        TRACE_FIELDS.join(", ")
                    ),
                ));
            };
            if self.columns.contains(&field) {
                return Err(self.err(line_no, format!("duplicate column `{name}`")));
            }
            self.columns.push(field);
        }
        for (i, name) in TRACE_FIELDS.iter().enumerate() {
            if !self.columns.contains(&i) {
                return Err(self.err(
                    line_no,
                    format!(
                        "missing column `{name}` (required: {})",
                        TRACE_FIELDS.join(", ")
                    ),
                ));
            }
        }
        self.header_seen = true;
        Ok(())
    }

    /// Parses one line. Schema and sortedness violations are hard errors;
    /// parse failures come back as [`Parsed::Malformed`] so the caller can
    /// apply the torn-final-line rule.
    fn parse_line(&mut self, line: &str, line_no: usize) -> Result<Parsed, TraceError> {
        if line.trim().is_empty() {
            return Ok(Parsed::Blank);
        }
        let fields = match self.format {
            TraceFormat::Csv => {
                if !self.header_seen {
                    self.parse_header(line, line_no)?;
                    return Ok(Parsed::Blank);
                }
                let cells: Vec<&str> = line.split(',').map(str::trim).collect();
                if cells.len() != self.columns.len() {
                    return Ok(Parsed::Malformed(format!(
                        "expected {} comma-separated values, got {}",
                        self.columns.len(),
                        cells.len()
                    )));
                }
                let mut fields = [0.0f64; 3];
                for (cell, &field) in cells.iter().zip(&self.columns) {
                    match cell.parse::<f64>() {
                        Ok(v) => fields[field] = v,
                        Err(_) => {
                            return Ok(Parsed::Malformed(format!("`{cell}` is not a number")))
                        }
                    }
                }
                fields
            }
            TraceFormat::Jsonl => {
                let value = match serde_json::parse_value(line) {
                    Ok(v) => v,
                    Err(e) => return Ok(Parsed::Malformed(format!("invalid JSON: {e:?}"))),
                };
                let Some(entries) = value.as_object() else {
                    return Err(self.err(line_no, "expected a JSON object".into()));
                };
                let mut fields = [None::<f64>; 3];
                for (key, v) in entries {
                    let Some(field) = TRACE_FIELDS.iter().position(|f| f == key) else {
                        return Err(self.err(
                            line_no,
                            format!(
                                "unknown key `{key}` (allowed: {}) — unknown keys are \
                                 rejected so typos cannot silently degrade to defaults",
                                TRACE_FIELDS.join(", ")
                            ),
                        ));
                    };
                    let num = match v {
                        serde::Value::U64(n) => *n as f64,
                        serde::Value::I64(n) => *n as f64,
                        serde::Value::F64(f) => *f,
                        other => {
                            return Err(self.err(
                                line_no,
                                format!("key `{key}` must be a number, got {other:?}"),
                            ))
                        }
                    };
                    if fields[field].is_some() {
                        return Err(self.err(line_no, format!("duplicate key `{key}`")));
                    }
                    fields[field] = Some(num);
                }
                let mut out = [0.0f64; 3];
                for (i, name) in TRACE_FIELDS.iter().enumerate() {
                    out[i] = fields[i]
                        .ok_or_else(|| self.err(line_no, format!("missing key `{name}`")))?;
                }
                out
            }
        };
        let [release, size_c, size_p] = fields;
        if !release.is_finite() || release < 0.0 {
            return Err(self.err(
                line_no,
                format!("release {release} must be finite and non-negative"),
            ));
        }
        if !(size_c.is_finite() && size_c > 0.0 && size_p.is_finite() && size_p > 0.0) {
            return Err(self.err(
                line_no,
                format!("task sizes ({size_c}, {size_p}) must be finite and positive"),
            ));
        }
        if release < self.last_release {
            return Err(self.err(
                line_no,
                format!(
                    "decreasing release {release} after {} — a trace is replayed as \
                     the release order, so releases must be non-decreasing",
                    self.last_release
                ),
            ));
        }
        self.last_release = release;
        let mut task = TaskArrival::at(release);
        task.size_c = size_c;
        task.size_p = size_p;
        Ok(Parsed::Record(task))
    }
}

impl TraceSource {
    /// Opens and validates a trace file; the format comes from the
    /// extension (`.csv` or `.jsonl`).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let format = match path.extension().and_then(|e| e.to_str()) {
            Some("csv") => TraceFormat::Csv,
            Some("jsonl") => TraceFormat::Jsonl,
            _ => {
                return Err(TraceError(format!(
                    "cannot infer trace format of {} (expected a .csv or .jsonl extension)",
                    path.display()
                )))
            }
        };
        Self::with_format(path, format)
    }

    /// Opens and validates a trace file with an explicit format.
    pub fn with_format(path: impl AsRef<Path>, format: TraceFormat) -> Result<Self, TraceError> {
        let input = TraceInput::Path(path.as_ref().to_path_buf());
        Self::validate(input, format)
    }

    /// Parses an in-memory trace (`name` appears in error locations).
    pub fn from_str(text: &str, format: TraceFormat, name: &str) -> Result<Self, TraceError> {
        let input = TraceInput::Inline {
            name: name.into(),
            text: text.into(),
        };
        Self::validate(input, format)
    }

    /// Torn trailing lines dropped during validation (0 or 1).
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Valid records the stream yields.
    pub fn len(&self) -> usize {
        self.tasks
    }

    /// Whether the trace holds no valid records.
    pub fn is_empty(&self) -> bool {
        self.tasks == 0
    }

    fn open_reader(input: &TraceInput) -> Result<LineReader, TraceError> {
        match input {
            TraceInput::Path(p) => {
                let file = std::fs::File::open(p)
                    .map_err(|e| TraceError(format!("cannot open trace {}: {e}", p.display())))?;
                Ok(LineReader::File(std::io::BufReader::new(file)))
            }
            TraceInput::Inline { .. } => Ok(LineReader::Inline(0)),
        }
    }

    /// The single full validation pass: strict schema, sortedness, and
    /// the torn-final-line rule, in O(1) memory.
    fn validate(input: TraceInput, format: TraceFormat) -> Result<Self, TraceError> {
        let mut reader = Self::open_reader(&input)?;
        let mut parser = TraceParser::new(format, input.location());
        let mut buf = String::new();
        let mut line_no = 0usize;
        let mut tasks = 0usize;
        // A malformed line is only recoverable if nothing follows it.
        let mut torn: Option<(usize, String)> = None;
        while read_line(&input, &mut reader, &mut buf)? {
            line_no += 1;
            if let Some((torn_line, detail)) = torn.take() {
                if !buf.trim().is_empty() {
                    return Err(parser.err(
                        torn_line,
                        format!(
                            "malformed record ({detail}) followed by more data \
                                 — only a torn final line is recoverable"
                        ),
                    ));
                }
                // Trailing blank after the torn line: keep looking, the
                // torn line is still final among non-blank lines.
                torn = Some((torn_line, detail));
                continue;
            }
            match parser.parse_line(&buf, line_no)? {
                Parsed::Record(_) => tasks += 1,
                Parsed::Blank => {}
                Parsed::Malformed(detail) => torn = Some((line_no, detail)),
            }
        }
        if format == TraceFormat::Csv && !parser.header_seen {
            return Err(TraceError(format!(
                "empty trace {}: a CSV trace needs a `{}` header",
                input.location(),
                TRACE_FIELDS.join(",")
            )));
        }
        Ok(TraceSource {
            input,
            format,
            tasks,
            dropped: usize::from(torn.is_some()),
            reader: None,
            parser: None,
            line_no: 0,
            emitted: 0,
        })
    }
}

impl TaskSource for TraceSource {
    fn next_task(&mut self) -> Option<TaskArrival> {
        if self.emitted >= self.tasks {
            return None;
        }
        if self.reader.is_none() {
            self.reader =
                Some(Self::open_reader(&self.input).expect("validated trace reopened for replay"));
            self.parser = Some(TraceParser::new(self.format, self.input.location()));
            self.line_no = 0;
        }
        let reader = self.reader.as_mut().unwrap();
        let parser = self.parser.as_mut().unwrap();
        // Reader and parser are stateful across calls, so in steady state
        // this loop reads exactly one record per call; we trust the
        // validation pass and re-parse each line as we stream past it.
        let mut buf = String::new();
        loop {
            if !read_line(&self.input, reader, &mut buf)
                .expect("validated trace readable during replay")
            {
                panic!(
                    "trace {} changed during replay: fewer records than validated",
                    self.input.location()
                );
            }
            self.line_no += 1;
            let parsed = parser
                .parse_line(&buf, self.line_no)
                .expect("validated trace re-parsed cleanly during replay");
            if let Parsed::Record(t) = parsed {
                self.emitted += 1;
                return Some(t);
            }
        }
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.tasks)
    }

    fn reset(&mut self) {
        self.reader = None;
        self.emitted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> Platform {
        Platform::from_vectors(&[0.5, 0.5], &[2.0, 2.0])
    }

    fn drain(source: &mut dyn TaskSource) -> Vec<TaskArrival> {
        std::iter::from_fn(|| source.next_task()).collect()
    }

    /// Strict equality down to the bit pattern, not just `==`.
    fn assert_bit_identical(a: &[TaskArrival], b: &[TaskArrival]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.release, y.release);
            assert_eq!(x.size_c.to_bits(), y.size_c.to_bits());
            assert_eq!(x.size_p.to_bits(), y.size_p.to_bits());
        }
    }

    #[test]
    fn materialized_source_round_trips_and_resets() {
        let tasks = mss_core::released_at(&[0.0, 1.0, 2.5]);
        let mut s = MaterializedSource::new(tasks.clone());
        assert_eq!(s.len_hint(), Some(3));
        assert_bit_identical(&drain(&mut s), &tasks);
        assert_eq!(s.next_task(), None);
        s.reset();
        assert_bit_identical(&drain(&mut s), &tasks);
    }

    #[test]
    fn generated_matches_materialized_bitwise() {
        let p = platform();
        let processes = [
            ArrivalProcess::AllAtZero,
            ArrivalProcess::UniformStream { load: 0.7 },
            ArrivalProcess::Poisson { load: 0.9 },
        ];
        let perturbations = [
            None,
            Some(Perturbation::linear(0.1)),
            Some(Perturbation::matrix(0.1)),
        ];
        for process in processes {
            for perturbation in perturbations {
                let nominal = process.generate(64, &p, 7);
                let batch = match perturbation {
                    Some(pert) => pert.apply(&nominal, 11),
                    None => nominal,
                };
                let mut source = GeneratedSource::new(process, 64, &p, 7);
                if let Some(pert) = perturbation {
                    source = source.with_perturbation(pert, 11);
                }
                assert_bit_identical(&drain(&mut source), &batch);
            }
        }
    }

    #[test]
    fn generated_reset_replays_identically() {
        let mut s = GeneratedSource::new(ArrivalProcess::Poisson { load: 0.9 }, 50, &platform(), 3)
            .with_perturbation(Perturbation::linear(0.1), 17);
        let first = drain(&mut s);
        s.reset();
        assert_bit_identical(&drain(&mut s), &first);
    }

    // --- TraceSource ---

    const CSV: &str = "release,size_c,size_p\n0.0,1.0,1.0\n1.5,0.9,1.1\n3.0,1.05,0.95\n";

    #[test]
    fn csv_trace_round_trips() {
        let mut s = TraceSource::from_str(CSV, TraceFormat::Csv, "test.csv").unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 0);
        let tasks = drain(&mut s);
        assert_eq!(tasks[1].release.as_f64(), 1.5);
        assert_eq!(tasks[1].size_c, 0.9);
        assert_eq!(tasks[2].size_p, 0.95);
        s.reset();
        assert_bit_identical(&drain(&mut s), &tasks);
    }

    #[test]
    fn csv_columns_may_be_permuted() {
        let text = "size_p,release,size_c\n2.0,0.5,3.0\n";
        let mut s = TraceSource::from_str(text, TraceFormat::Csv, "t.csv").unwrap();
        let t = s.next_task().unwrap();
        assert_eq!(t.release.as_f64(), 0.5);
        assert_eq!(t.size_c, 3.0);
        assert_eq!(t.size_p, 2.0);
    }

    #[test]
    fn jsonl_trace_round_trips() {
        let text = "{\"release\": 0.0, \"size_c\": 1.0, \"size_p\": 1.0}\n\
                    {\"release\": 2.0, \"size_c\": 1.1, \"size_p\": 0.9}\n";
        let mut s = TraceSource::from_str(text, TraceFormat::Jsonl, "t.jsonl").unwrap();
        assert_eq!(s.len(), 2);
        let tasks = drain(&mut s);
        assert_eq!(tasks[1].release.as_f64(), 2.0);
        assert_eq!(tasks[1].size_c, 1.1);
    }

    #[test]
    fn unknown_column_is_a_located_error() {
        let text = "release,size_c,size_p,priority\n0.0,1.0,1.0,3\n";
        let err = TraceSource::from_str(text, TraceFormat::Csv, "t.csv").unwrap_err();
        assert!(err.0.contains("unknown column `priority`"), "{err}");
        assert!(err.0.contains("t.csv:1"), "{err}");
        assert!(err.0.contains("allowed: release, size_c, size_p"), "{err}");
    }

    #[test]
    fn unknown_jsonl_key_is_a_located_error() {
        let text = "{\"release\": 0.0, \"size_c\": 1.0, \"size_p\": 1.0}\n\
                    {\"release\": 1.0, \"size_c\": 1.0, \"sise_p\": 1.0}\n";
        let err = TraceSource::from_str(text, TraceFormat::Jsonl, "t.jsonl").unwrap_err();
        assert!(err.0.contains("unknown key `sise_p`"), "{err}");
        assert!(err.0.contains("t.jsonl:2"), "{err}");
    }

    #[test]
    fn unsorted_releases_are_rejected_with_location() {
        let text = "release,size_c,size_p\n2.0,1.0,1.0\n1.0,1.0,1.0\n";
        let err = TraceSource::from_str(text, TraceFormat::Csv, "t.csv").unwrap_err();
        assert!(err.0.contains("decreasing release 1 after 2"), "{err}");
        assert!(err.0.contains("t.csv:3"), "{err}");
    }

    #[test]
    fn torn_final_csv_line_is_dropped_like_the_store() {
        let text = "release,size_c,size_p\n0.0,1.0,1.0\n1.5,0.9";
        let mut s = TraceSource::from_str(text, TraceFormat::Csv, "t.csv").unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.dropped(), 1);
        let tasks = drain(&mut s);
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].release.as_f64(), 0.0);
    }

    #[test]
    fn torn_final_jsonl_line_is_dropped_like_the_store() {
        let text = "{\"release\": 0.0, \"size_c\": 1.0, \"size_p\": 1.0}\n\
                    {\"release\": 1.0, \"si";
        let s = TraceSource::from_str(text, TraceFormat::Jsonl, "t.jsonl").unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.dropped(), 1);
    }

    #[test]
    fn mid_file_corruption_is_fatal() {
        let text = "release,size_c,size_p\n0.0,1.0\n1.5,0.9,1.1\n";
        let err = TraceSource::from_str(text, TraceFormat::Csv, "t.csv").unwrap_err();
        assert!(
            err.0.contains("only a torn final line is recoverable"),
            "{err}"
        );
        assert!(err.0.contains("t.csv:2"), "{err}");
    }

    #[test]
    fn non_positive_sizes_are_rejected() {
        let text = "release,size_c,size_p\n0.0,0.0,1.0\n";
        let err = TraceSource::from_str(text, TraceFormat::Csv, "t.csv").unwrap_err();
        assert!(err.0.contains("must be finite and positive"), "{err}");
    }

    #[test]
    fn file_open_infers_format_and_replays() {
        let dir = std::env::temp_dir().join("mss-workload-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("small.csv");
        std::fs::write(&path, CSV).unwrap();
        let mut s = TraceSource::open(&path).unwrap();
        assert_eq!(s.len(), 3);
        let tasks = drain(&mut s);
        s.reset();
        assert_bit_identical(&drain(&mut s), &tasks);
        let err = TraceSource::open(dir.join("small.txt")).unwrap_err();
        assert!(err.0.contains("cannot infer trace format"), "{err}");
    }
}
