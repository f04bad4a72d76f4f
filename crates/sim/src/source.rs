//! The [`TaskSource`] trait: a pull-based, bounded-memory task stream.
//!
//! A run's tasks are either a materialized `&[TaskArrival]` or a
//! `TaskSource` ([`crate::TaskInput`]). From a source, [`crate::simulate_in`]
//! and [`crate::simulate_objectives_in`] *pull* arrivals one at a time, so
//! an instance of a million tasks never exists in memory at once — the
//! objectives run keeps a bounded window of live task slots and recycles a
//! slot once its record is finalized.
//!
//! Implementations live in `mss-workload` (`MaterializedSource`,
//! `GeneratedSource`, `TraceSource`); this crate only defines the contract
//! the engine consumes, mirroring how `PlatformStream` streams platforms.
//!
//! # Contract
//!
//! * **Non-decreasing releases.** `next_task` must yield arrivals with
//!   non-decreasing `release` times — the stream *is* the release order.
//!   The engine checks this and panics on a violation (a decreasing
//!   release would silently reorder history, breaking determinism).
//! * **Seed-determinism.** Two sources constructed from the same inputs
//!   must yield the identical sequence; [`TaskSource::reset`] rewinds so
//!   the same source replays it. The sweep executor relies on this to
//!   re-instantiate a source per fan-out arm instead of cloning streams.
//! * **Task identity.** The engine assigns dense [`TaskId`]s in pull
//!   order (`0, 1, 2, …`), which — because releases are non-decreasing —
//!   is exactly the id order of the equivalent materialized run, so
//!   streamed and materialized runs are bit-identical wherever both fit
//!   in memory.
//!
//! [`TaskId`]: crate::TaskId

use crate::task::TaskArrival;

/// A pull-based stream of task arrivals with non-decreasing release times.
///
/// See the [module docs](self) for the determinism contract.
///
/// # Examples
/// ```
/// use mss_sim::{TaskArrival, TaskSource};
///
/// /// `n` nominal tasks released at integer times 0, 1, 2, …
/// struct EverySecond { next: usize, n: usize }
/// impl TaskSource for EverySecond {
///     fn next_task(&mut self) -> Option<TaskArrival> {
///         (self.next < self.n).then(|| {
///             let t = TaskArrival::at(self.next as f64);
///             self.next += 1;
///             t
///         })
///     }
///     fn len_hint(&self) -> Option<usize> { Some(self.n) }
///     fn reset(&mut self) { self.next = 0; }
/// }
///
/// let mut s = EverySecond { next: 0, n: 3 };
/// assert_eq!(s.next_task().unwrap().release.as_f64(), 0.0);
/// assert_eq!(s.next_task().unwrap().release.as_f64(), 1.0);
/// s.reset();
/// assert_eq!(s.next_task().unwrap().release.as_f64(), 0.0);
/// ```
pub trait TaskSource {
    /// Pulls the next arrival; `None` once the stream is exhausted.
    /// Releases must be non-decreasing across the whole stream.
    fn next_task(&mut self) -> Option<TaskArrival>;

    /// Total number of tasks the stream will yield, when known up front
    /// (used for horizon hints and step budgets; `None` for open-ended
    /// streams).
    fn len_hint(&self) -> Option<usize>;

    /// Rewinds to the beginning; the replay must be identical to the
    /// first pass, element for element.
    fn reset(&mut self);
}

/// A boxed source is a source (so heterogeneous sources can share a
/// collection without generics).
impl TaskSource for Box<dyn TaskSource + '_> {
    fn next_task(&mut self) -> Option<TaskArrival> {
        (**self).next_task()
    }
    fn len_hint(&self) -> Option<usize> {
        (**self).len_hint()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
}

/// A mutable reference forwards (so callers keep ownership while the
/// engine pulls).
impl<S: TaskSource + ?Sized> TaskSource for &mut S {
    fn next_task(&mut self) -> Option<TaskArrival> {
        (**self).next_task()
    }
    fn len_hint(&self) -> Option<usize> {
        (**self).len_hint()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Two(usize);
    impl TaskSource for Two {
        fn next_task(&mut self) -> Option<TaskArrival> {
            (self.0 < 2).then(|| {
                let t = TaskArrival::at(self.0 as f64);
                self.0 += 1;
                t
            })
        }
        fn len_hint(&self) -> Option<usize> {
            Some(2)
        }
        fn reset(&mut self) {
            self.0 = 0;
        }
    }

    #[test]
    fn boxed_and_borrowed_sources_forward() {
        let mut boxed: Box<dyn TaskSource> = Box::new(Two(0));
        assert_eq!(boxed.len_hint(), Some(2));
        assert!(boxed.next_task().is_some());
        boxed.reset();
        let mut count = 0;
        let by_ref = &mut boxed;
        while by_ref.next_task().is_some() {
            count += 1;
        }
        assert_eq!(count, 2);
    }
}
