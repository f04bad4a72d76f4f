//! The catalogue of the paper's seven on-line algorithms (§4.1).
//!
//! All static per-algorithm metadata — display name, paper figure index,
//! poll-driven contract, minimum information tier — lives in **one**
//! table, [`static@META`], indexed directly by the algorithm's discriminant
//! (`figure_index - 1`). Accessors are O(1) lookups; a unit test pins the
//! table against the built scheduler instances so the two can never
//! drift apart.

use crate::heuristics::{ListScheduling, Planned, RoundRobin, Srpt};
use mss_sim::{InfoTier, OnlineScheduler};
use std::fmt;

/// One of the seven algorithms compared in the paper's experiments, in the
/// order of its figures (1 = SRPT … 7 = SLJFWC).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Algorithm {
    /// Dynamic baseline: fastest free slave, no queueing.
    Srpt,
    /// List Scheduling: eager earliest-estimated-completion.
    ListScheduling,
    /// Round Robin ordered by `p_j + c_j`.
    RoundRobin,
    /// Round Robin ordered by `c_j`.
    RoundRobinComm,
    /// Round Robin ordered by `p_j`.
    RoundRobinProc,
    /// Scheduling the Last Job First.
    Sljf,
    /// Scheduling the Last Job First With Communication.
    Sljfwc,
}

/// Static metadata of one algorithm: everything that used to live in
/// separate `match` arms and O(n) scans, in one row of [`static@META`].
#[derive(Clone, Copy, Debug)]
pub struct AlgorithmMeta {
    /// The algorithm this row describes (`META[a as usize].algorithm == a`).
    pub algorithm: Algorithm,
    /// The display name used in the paper.
    pub name: &'static str,
    /// Whether the built scheduler honors the poll-driven contract
    /// ([`OnlineScheduler::poll_driven`]) — recorded here so harnesses can
    /// reason about callback elision without building an instance.
    pub poll_driven: bool,
    /// The weakest [`InfoTier`] the built scheduler stays live under
    /// ([`OnlineScheduler::min_tier`]).
    pub min_tier: InfoTier,
}

/// The one static metadata table, in the paper's figure order —
/// `META[i].algorithm.figure_index() == i + 1`, and every accessor on
/// [`Algorithm`] indexes it directly by discriminant. A unit test asserts
/// each row against the scheduler instance [`Algorithm::build`] returns.
pub static META: [AlgorithmMeta; 7] = {
    const fn row(algorithm: Algorithm, name: &'static str) -> AlgorithmMeta {
        AlgorithmMeta {
            algorithm,
            name,
            // All seven paper heuristics are poll-driven and live on
            // believed values at every tier (pinned by `table_matches_
            // built_schedulers`).
            poll_driven: true,
            min_tier: InfoTier::NonClairvoyant,
        }
    }
    [
        row(Algorithm::Srpt, "SRPT"),
        row(Algorithm::ListScheduling, "LS"),
        row(Algorithm::RoundRobin, "RR"),
        row(Algorithm::RoundRobinComm, "RRC"),
        row(Algorithm::RoundRobinProc, "RRP"),
        row(Algorithm::Sljf, "SLJF"),
        row(Algorithm::Sljfwc, "SLJFWC"),
    ]
};

impl Algorithm {
    /// All seven, in the paper's figure order.
    pub const ALL: [Algorithm; 7] = [
        Algorithm::Srpt,
        Algorithm::ListScheduling,
        Algorithm::RoundRobin,
        Algorithm::RoundRobinComm,
        Algorithm::RoundRobinProc,
        Algorithm::Sljf,
        Algorithm::Sljfwc,
    ];

    /// This algorithm's [`static@META`] row (O(1): the discriminant is the
    /// index).
    pub fn meta(self) -> &'static AlgorithmMeta {
        &META[self as usize]
    }

    /// The algorithm's display name as used in the paper.
    pub fn name(self) -> &'static str {
        self.meta().name
    }

    /// Its 1-based index in the paper's figures (`self as usize + 1`; the
    /// same index addresses [`static@META`]).
    pub fn figure_index(self) -> usize {
        self as usize + 1
    }

    /// Whether the built scheduler honors the poll-driven contract.
    pub fn poll_driven(self) -> bool {
        self.meta().poll_driven
    }

    /// The weakest [`InfoTier`] the built scheduler stays live under.
    pub fn min_tier(self) -> InfoTier {
        self.meta().min_tier
    }

    /// Builds a fresh scheduler instance. Every instance is deterministic
    /// and independent, so adversary games can replay runs from scratch.
    pub fn build(self) -> Box<dyn OnlineScheduler> {
        match self {
            Algorithm::Srpt => Box::new(Srpt::new()),
            Algorithm::ListScheduling => Box::new(ListScheduling::new()),
            Algorithm::RoundRobin => Box::new(RoundRobin::rr()),
            Algorithm::RoundRobinComm => Box::new(RoundRobin::rrc()),
            Algorithm::RoundRobinProc => Box::new(RoundRobin::rrp()),
            Algorithm::Sljf => Box::new(Planned::sljf()),
            Algorithm::Sljfwc => Box::new(Planned::sljfwc()),
        }
    }

    /// Parses a paper name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Algorithm> {
        META.iter()
            .find(|m| m.name.eq_ignore_ascii_case(name))
            .map(|m| m.algorithm)
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_sim::{bag_of_tasks, simulate, validate, Platform, SimConfig};

    #[test]
    fn names_round_trip() {
        for a in Algorithm::ALL {
            assert_eq!(Algorithm::from_name(a.name()), Some(a));
            assert_eq!(Algorithm::from_name(&a.name().to_lowercase()), Some(a));
        }
        assert_eq!(Algorithm::from_name("nope"), None);
    }

    #[test]
    fn figure_indices_are_1_to_7() {
        let idx: Vec<_> = Algorithm::ALL.iter().map(|a| a.figure_index()).collect();
        assert_eq!(idx, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn table_matches_built_schedulers() {
        // The static table is the single source of truth, so it must agree
        // with what the built scheduler instances actually declare.
        for (i, (a, m)) in Algorithm::ALL.iter().zip(META.iter()).enumerate() {
            assert_eq!(m.algorithm, *a, "row {i} describes the wrong algorithm");
            assert_eq!(*a as usize, i, "discriminant must index the table");
            assert_eq!(a.figure_index(), i + 1);
            let sched = a.build();
            assert_eq!(sched.name(), m.name);
            assert_eq!(sched.poll_driven(), m.poll_driven, "{a}");
            assert_eq!(sched.min_tier(), m.min_tier, "{a}");
            assert_eq!(a.poll_driven(), m.poll_driven);
            assert_eq!(a.min_tier(), m.min_tier);
        }
    }

    #[test]
    fn every_algorithm_completes_and_validates() {
        let pf = Platform::from_vectors(&[0.4, 1.0, 0.2], &[2.0, 5.0, 7.0]);
        let tasks = bag_of_tasks(25);
        for a in Algorithm::ALL {
            let mut sched = a.build();
            assert_eq!(sched.name(), a.name());
            let trace = simulate(
                &pf,
                &tasks,
                &SimConfig::with_horizon(tasks.len()),
                &mut sched,
            )
            .unwrap_or_else(|e| panic!("{a} failed: {e}"));
            let violations = validate(&trace, &pf);
            assert!(violations.is_empty(), "{a}: {violations:?}");
            assert_eq!(trace.len(), tasks.len());
        }
    }

    #[test]
    fn builds_are_independent() {
        // Two instances of the same planned algorithm must not share state.
        let pf = Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0]);
        let t1 = simulate(
            &pf,
            &bag_of_tasks(3),
            &SimConfig::default(),
            &mut Algorithm::Sljf.build(),
        )
        .unwrap();
        let t2 = simulate(
            &pf,
            &bag_of_tasks(3),
            &SimConfig::default(),
            &mut Algorithm::Sljf.build(),
        )
        .unwrap();
        assert_eq!(t1, t2);
    }
}
