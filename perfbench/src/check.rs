//! Output checks: result digests, per-operation invariants, and the
//! self-test proving that one flipped result bit is reported.

use mss_sweep::{AggregateRow, CellError, CellMetrics};

/// The seed a run uses when none is given, and the one the reference
/// digests below were recorded at.
pub const DEFAULT_SEED: u64 = 42;

/// Result digests of each workload at [`DEFAULT_SEED`]. A change that alters
/// any simulated objective, certified bound, aggregate or Table 1 ratio at
/// that seed changes the digest and fails the run.
const REFERENCE: &[(&str, u64)] = &[
    ("paper-grid", 0xbc9a_a35f_b0cc_9ee7),
    ("stream-wide", 0xa346_f542_dfc5_d683),
    ("dynamic-sweep", 0x8211_3b7e_57cd_ecbd),
];

/// The reference digest of `workload` at `seed`, when one is recorded.
pub fn reference(workload: &str, seed: u64) -> Option<u64> {
    (seed == DEFAULT_SEED)
        .then(|| {
            REFERENCE
                .iter()
                .find(|(w, _)| *w == workload)
                .map(|&(_, d)| d)
        })
        .flatten()
}

/// FNV-1a over 64-bit words: order-sensitive, so two runs agree only when
/// every recorded bit agrees in the same order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Every scalar a cell reports, or the abort kind of a failed cell.
    pub fn cell(&mut self, r: &Result<CellMetrics, CellError>) {
        match r {
            Ok(m) => {
                for x in [
                    m.makespan,
                    m.max_flow,
                    m.sum_flow,
                    m.lb_makespan,
                    m.ratio_makespan,
                ] {
                    self.f64(x);
                }
            }
            Err(e) => {
                self.word(u64::MAX);
                for b in e.message.bytes() {
                    self.word(u64::from(b));
                }
            }
        }
    }

    pub fn aggregate(&mut self, rows: &[AggregateRow]) {
        self.word(rows.len() as u64);
        for r in rows {
            for s in [&r.makespan, &r.max_flow, &r.sum_flow, &r.ratio_vs_lb] {
                self.word(s.count as u64);
                self.f64(s.mean);
                self.f64(s.std_dev);
            }
            if let Some(n) = &r.normalized {
                self.f64(n.mean);
            }
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Failures kept verbatim for the report; the rest are only counted.
const MAX_NOTES: usize = 8;

/// Tally of checked operations. Every cell, stream run, warm lookup, Table 1
/// bound and digest comparison is one attempted operation; it fails when it
/// errs or its output breaks an invariant.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first [`MAX_NOTES`] failures, for the report on stderr.
    pub notes: Vec<String>,
}

impl Checks {
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_NOTES.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.iter().take(room).cloned());
    }

    /// A completed cell with a finite makespan. When `certified`, the
    /// makespan must also respect the cell's certified lower bound.
    pub fn cell(
        &mut self,
        label: impl FnOnce() -> String,
        certified: bool,
        r: &Result<CellMetrics, CellError>,
    ) {
        match r {
            Ok(m) => self.op(
                m.makespan.is_finite() && (!certified || m.ratio_makespan >= 1.0 - 1e-9),
                || {
                    format!(
                        "{}: makespan {} below bound {}",
                        label(),
                        m.makespan,
                        m.lb_makespan
                    )
                },
            ),
            Err(e) => self.op(false, || format!("{}: {e}", label())),
        }
    }

    /// Warm results must be the cold results, bit for bit.
    pub fn warm(
        &mut self,
        cold: &[Result<CellMetrics, CellError>],
        warm: &[Result<CellMetrics, CellError>],
    ) {
        self.op(cold.len() == warm.len(), || {
            format!("warm pass returned {} of {} cells", warm.len(), cold.len())
        });
        for (i, (c, w)) in cold.iter().zip(warm).enumerate() {
            self.op(bit_equal(c, w), || {
                format!("warm cell {i} differs from cold")
            });
        }
    }

    /// Compares a pass digest with the recorded reference, when one exists.
    pub fn digest(&mut self, workload: &str, seed: u64, digest: u64) {
        if let Some(want) = reference(workload, seed) {
            self.op(digest == want, || {
                format!("{workload}: digest {digest:016x}, reference {want:016x}")
            });
        }
    }
}

/// Bit equality of two cell outcomes (`PartialEq` on floats would let
/// `-0.0 == 0.0` through and reject equal NaNs).
pub fn bit_equal(a: &Result<CellMetrics, CellError>, b: &Result<CellMetrics, CellError>) -> bool {
    let mut da = Digest::default();
    let mut db = Digest::default();
    da.cell(a);
    db.cell(b);
    da == db
}

/// Flips the lowest bit of one makespan in a copy of `results` and checks
/// that both the warm-versus-cold comparison and the digest comparison
/// report it. Returns `true` when the checks catch the flip.
pub fn self_test(results: &[Result<CellMetrics, CellError>]) -> bool {
    let Some(i) = results.iter().position(Result::is_ok) else {
        return false;
    };
    let mut flipped = results.to_vec();
    if let Ok(m) = &mut flipped[i] {
        m.makespan = f64::from_bits(m.makespan.to_bits() ^ 1);
    }
    let mut checks = Checks::default();
    checks.warm(results, &flipped);
    let digest_of = |rs: &[Result<CellMetrics, CellError>]| {
        let mut d = Digest::default();
        rs.iter().for_each(|r| d.cell(r));
        d.value()
    };
    checks.op(digest_of(results) == digest_of(&flipped), String::new);
    checks.failed == 2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(makespan: f64) -> Result<CellMetrics, CellError> {
        Ok(CellMetrics {
            makespan,
            max_flow: 1.0,
            sum_flow: 2.0,
            lb_makespan: 1.0,
            ratio_makespan: makespan,
            run_metrics: None,
        })
    }

    #[test]
    fn a_flipped_bit_is_a_failure() {
        assert!(self_test(&[metrics(3.0), metrics(4.0)]));
    }

    #[test]
    fn a_makespan_below_its_bound_is_a_failure() {
        let mut checks = Checks::default();
        checks.cell(String::new, true, &metrics(1.0));
        checks.cell(String::new, true, &metrics(0.5));
        checks.cell(String::new, false, &metrics(0.5));
        assert_eq!((checks.attempted, checks.failed), (3, 1));
    }
}
