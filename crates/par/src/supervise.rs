//! Execution supervision for long-running parallel work.
//!
//! A [`Supervisor`] is a cheap, cloneable handle combining the three
//! concerns a pipeline run under a budget needs (in CORDOBA, design-space
//! evaluation and the operational-time sweep):
//!
//! * **cooperative cancellation** — [`Supervisor::cancel`] requests a stop;
//!   workers observe it at the next item boundary via
//!   [`Supervisor::should_stop`];
//! * **deadline budget** — [`Supervisor::with_deadline`] arms a monotonic
//!   wall-clock budget checked at the same boundaries;
//! * **progress accounting** — completed/panicked unit counters, surfaced
//!   through [`Supervisor::progress`] and attached to the supervision
//!   events recorded through `cordoba-obs`.
//!
//! [`par_map_supervised`] is the supervised sibling of
//! [`crate::try_par_map_indexed_hinted`]: same cost-steered contiguous
//! chunking, same input-order merge, plus per-item panic isolation
//! (`std::panic::catch_unwind`) and cooperative stop checks before every
//! item. It returns a [`SupervisedMap`] recording, per input index, whether
//! the item completed, panicked, or was never attempted.
//!
//! [`Slots`] is the resumable partial result every supervised pipeline
//! keeps on top of that map: one slot per work unit, filled by index.
//! [`Slots::advance`] runs the supervised map over the pending slots only,
//! so calling it again after a stop computes exactly the remainder.
//!
//! # Determinism contract
//!
//! Supervision never changes *values*: an item that completes produces the
//! exact bits the unsupervised map would have produced, because the closure
//! runs unchanged and results are merged in input order. What a stop makes
//! nondeterministic is only *which subset* of items completed before the
//! cut (worker interleaving decides that). Every consumer in the workspace
//! therefore keeps its partial result in a [`Slots`] table keyed by input
//! index: re-running only the pending slots and merging by index
//! reproduces the uninterrupted output bit-for-bit at any thread count —
//! the invariant the `cordoba-robust` property suite pins.
//!
//! [`Supervisor::tripping_after`] stops after a fixed number of completed
//! units instead of after elapsed time, which is what the fault-injection
//! suite uses to interrupt runs at seed-chosen points reproducibly.
//
// cordoba-lint: allow-file(atomic-ordering) — the supervisor's cells are a
// sticky cancellation flag and monotonic progress tallies; no data is
// published through them (results travel through the scoped-join), so
// Relaxed is sufficient and cannot affect mapped values.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a supervised run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// [`Supervisor::cancel`] was called (or a [`Supervisor::tripping_after`]
    /// threshold was reached).
    Cancelled,
    /// The monotonic deadline budget was exhausted.
    DeadlineExceeded,
}

impl StopReason {
    /// Stable lowercase token used in checkpoint files and CLI output.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Self::Cancelled => "cancelled",
            Self::DeadlineExceeded => "deadline-exceeded",
        }
    }

    /// Parses the token written by [`StopReason::token`].
    #[must_use]
    pub fn from_token(token: &str) -> Option<Self> {
        match token {
            "cancelled" => Some(Self::Cancelled),
            "deadline-exceeded" => Some(Self::DeadlineExceeded),
            _ => None,
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Progress snapshot of a supervised run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Progress {
    /// Work units that completed normally.
    pub completed: u64,
    /// Work units whose closure panicked (isolated, not aborted).
    pub panicked: u64,
}

impl Progress {
    /// Units attempted: completed plus panicked.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.completed + self.panicked
    }
}

/// Shared state behind the cloneable handle.
#[derive(Debug)]
struct Shared {
    /// Sticky cancellation flag; set by [`Supervisor::cancel`] and latched
    /// when a trip threshold fires so the reason stays stable.
    cancelled: AtomicBool,
    /// Stop after this many attempted units; `u64::MAX` disables the trip.
    trip_at: u64,
    /// Deadline armed at construction; `None` means unbounded.
    deadline: Option<(Instant, Duration)>,
    /// Work units completed normally.
    completed: AtomicU64,
    /// Work units that panicked and were quarantined.
    panicked: AtomicU64,
}

/// Cooperative cancellation token + deadline budget + progress accounting.
///
/// Cloning is cheap and shares all state, so the same handle can be held by
/// the caller (to cancel) and threaded through nested pipelines (to observe
/// the stop and account progress).
///
/// ```
/// use cordoba_par::supervise::{StopReason, Supervisor};
///
/// let sup = Supervisor::unbounded();
/// assert_eq!(sup.should_stop(), None);
/// sup.cancel();
/// assert_eq!(sup.should_stop(), Some(StopReason::Cancelled));
/// ```
#[derive(Debug, Clone)]
pub struct Supervisor {
    shared: Arc<Shared>,
}

impl Default for Supervisor {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl Supervisor {
    fn with_limits(trip_at: u64, deadline: Option<(Instant, Duration)>) -> Self {
        Self {
            shared: Arc::new(Shared {
                cancelled: AtomicBool::new(false),
                trip_at,
                deadline,
                completed: AtomicU64::new(0),
                panicked: AtomicU64::new(0),
            }),
        }
    }

    /// A supervisor that never stops a run unless [`cancel`](Self::cancel)
    /// is called. The no-deadline overhead is one relaxed flag load per
    /// item.
    #[must_use]
    pub fn unbounded() -> Self {
        Self::with_limits(u64::MAX, None)
    }

    /// Arms a monotonic deadline: `should_stop` reports
    /// [`StopReason::DeadlineExceeded`] once `budget` has elapsed since
    /// this call.
    #[must_use]
    pub fn with_deadline(budget: Duration) -> Self {
        // The budget is a robustness control, never an input to computed
        // values: items either run to completion (bit-identical to the
        // unsupervised map) or are skipped and recomputed on resume.
        // cordoba-lint: allow(wall-clock) — deadline anchor; cannot reach results
        Self::with_limits(u64::MAX, Some((Instant::now(), budget)))
    }

    /// A supervisor that auto-cancels once `units` work units have been
    /// attempted. This is the deterministic interruption mechanism used by
    /// the fault-injection suite: unlike a wall-clock deadline it fires at
    /// a reproducible point (exactly reproducible at one thread; at a
    /// seed-independent *count* of attempted units otherwise).
    #[must_use]
    pub fn tripping_after(units: u64) -> Self {
        Self::with_limits(units, None)
    }

    /// Requests a cooperative stop; sticky.
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::Relaxed);
    }

    /// `true` once [`cancel`](Self::cancel) was called or a trip threshold
    /// latched.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.shared.cancelled.load(Ordering::Relaxed)
    }

    /// The reason this run should stop now, if any. Cancellation (explicit
    /// or tripped) takes precedence over the deadline so the reported
    /// reason is stable once latched.
    #[must_use]
    pub fn should_stop(&self) -> Option<StopReason> {
        if self.shared.cancelled.load(Ordering::Relaxed) {
            return Some(StopReason::Cancelled);
        }
        // `u64::MAX` disables the trip; skip the two progress-counter
        // loads entirely so untripped supervision costs one flag load.
        if self.shared.trip_at != u64::MAX && self.progress().attempted() >= self.shared.trip_at {
            // Latch so the reason survives later progress and clones.
            self.cancel();
            return Some(StopReason::Cancelled);
        }
        if let Some((start, budget)) = self.shared.deadline {
            if start.elapsed() >= budget {
                return Some(StopReason::DeadlineExceeded);
            }
        }
        None
    }

    /// Accounts `n` successfully completed work units.
    pub fn note_completed(&self, n: u64) {
        self.shared.completed.fetch_add(n, Ordering::Relaxed);
    }

    /// Accounts one panicked (quarantined) work unit.
    pub fn note_panicked(&self) {
        self.shared.panicked.fetch_add(1, Ordering::Relaxed);
    }

    /// Progress so far across everything this handle supervised.
    #[must_use]
    pub fn progress(&self) -> Progress {
        Progress {
            completed: self.shared.completed.load(Ordering::Relaxed),
            panicked: self.shared.panicked.load(Ordering::Relaxed),
        }
    }

    /// Records the stop as a typed `cordoba-obs` event (with the completed
    /// count as payload) and returns it unchanged. Consumers call this once
    /// per interrupted pipeline stage.
    #[must_use]
    pub fn record_stop(&self, reason: StopReason) -> StopReason {
        let completed = self.progress().completed;
        let event = match reason {
            StopReason::Cancelled => cordoba_obs::Event::Cancelled { completed },
            StopReason::DeadlineExceeded => cordoba_obs::Event::DeadlineExceeded { completed },
        };
        cordoba_obs::record(&event);
        reason
    }
}

/// Per-item outcome of a supervised map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<R> {
    /// The closure completed; the value is bit-identical to what the
    /// unsupervised map would have produced for this index.
    Done(R),
    /// The closure panicked; the payload message is quarantined here and
    /// the process survives.
    Panicked(String),
    /// The run stopped before this item was attempted.
    Skipped,
}

impl<R> Outcome<R> {
    /// The completed value, if any.
    pub fn done(&self) -> Option<&R> {
        match self {
            Self::Done(r) => Some(r),
            _ => None,
        }
    }
}

/// Result of [`par_map_supervised`]: one [`Outcome`] per input index
/// plus the stop reason when the run was cut short.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisedMap<R> {
    /// One outcome per input item, in input order.
    pub outcomes: Vec<Outcome<R>>,
    /// `Some` when at least one item was skipped because the supervisor
    /// stopped the run; `None` when every item was attempted.
    pub stop: Option<StopReason>,
}

impl<R> SupervisedMap<R> {
    /// `true` when every item was attempted (completed or panicked).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.stop.is_none()
    }

    /// Indices whose items were not attempted, in input order.
    #[must_use]
    pub fn skipped_indices(&self) -> Vec<usize> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| matches!(o, Outcome::Skipped).then_some(i))
            .collect()
    }
}

/// How one slot of a [`Slots::advance`] failed. The slot stays pending, so
/// the caller decides whether to quarantine it, retry it, or abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure<E> {
    /// The work unit returned an error.
    Error(E),
    /// The work unit panicked; the payload message is kept.
    Panicked(String),
}

impl<E> Failure<E> {
    /// The failure as the caller's error type, mapping a panic message
    /// through `panicked`.
    pub fn into_error(self, panicked: impl FnOnce(String) -> E) -> E {
        match self {
            Self::Error(error) => error,
            Self::Panicked(message) => panicked(message),
        }
    }
}

/// A resumable partial result: one slot per work unit, each `None` until
/// the unit completes, plus why the last [`advance`](Self::advance)
/// stopped early.
///
/// Units are pure functions of their index, so filling slots in any
/// subset and order — across stops, resumes and thread counts — ends at
/// the same table an uninterrupted run fills.
///
/// ```
/// use cordoba_par::{CostHint, Slots, Supervisor};
///
/// let (mut slots, hint) = (Slots::new(4), CostHint::per_item_ns(1));
/// let unit = |i: usize| Ok::<_, ()>(10 * i);
/// assert!(slots.advance(hint, &Supervisor::tripping_after(1), unit).is_empty());
/// assert_eq!((slots.pending(), slots.stop().is_some()), (vec![1, 2, 3], true));
/// assert!(slots.advance(hint, &Supervisor::unbounded(), unit).is_empty());
/// assert_eq!(slots.values().unwrap().sum::<usize>(), 60);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Slots<P> {
    slots: Vec<Option<P>>,
    stop: Option<StopReason>,
}

impl<P> Slots<P> {
    /// `len` pending slots and no stop.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            slots: std::iter::repeat_with(|| None).take(len).collect(),
            stop: None,
        }
    }

    /// Why the last advance stopped early, or `None` when it attempted
    /// every pending slot.
    #[must_use]
    pub fn stop(&self) -> Option<StopReason> {
        self.stop
    }

    /// `true` once every slot is filled.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.slots.iter().all(Option::is_some)
    }

    /// Slots filled so far.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Total slots.
    #[must_use]
    pub fn total(&self) -> usize {
        self.slots.len()
    }

    /// Filled fraction in `[0, 1]` (1.0 for an empty table).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.slots.is_empty() {
            return 1.0;
        }
        self.completed() as f64 / self.slots.len() as f64
    }

    /// Indices of the pending slots, ascending.
    #[must_use]
    pub fn pending(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect()
    }

    /// The filled slots with their indices, ascending.
    pub fn filled(&self) -> impl Iterator<Item = (usize, &P)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i, v)))
    }

    /// Every value in index order once the table is complete, or `None`
    /// while a slot is pending.
    #[must_use]
    pub fn values(&self) -> Option<impl Iterator<Item = &P>> {
        self.is_complete().then(|| self.slots.iter().flatten())
    }

    /// Fills slot `idx` with `value`, returning what it held before.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn fill(&mut self, idx: usize, value: P) -> Option<P> {
        self.slots[idx].replace(value)
    }

    /// Overrides the stop reason (for restored state, or a caller whose
    /// own failure policy leaves slots pending).
    pub fn set_stop(&mut self, stop: Option<StopReason>) {
        self.stop = stop;
    }

    /// Runs `f` over the pending indices through [`par_map_supervised`]
    /// and fills every slot whose unit returned `Ok`. The stop reason
    /// becomes the map's (`None` when nothing was pending).
    ///
    /// Returns the failed indices in ascending order, each with its error
    /// or panic message; their slots stay pending. Completed values are
    /// bit-identical at any thread count, so advancing until complete
    /// lands on the uninterrupted run's table.
    #[must_use]
    pub fn advance<E, F>(
        &mut self,
        hint: crate::CostHint,
        sup: &Supervisor,
        f: F,
    ) -> Vec<(usize, Failure<E>)>
    where
        P: Send,
        E: Send,
        F: Fn(usize) -> Result<P, E> + Sync,
    {
        let pending = self.pending();
        if pending.is_empty() {
            self.stop = None;
            return Vec::new();
        }
        let run = par_map_supervised(&pending, hint, sup, |_, &idx| f(idx));
        let mut failures = Vec::new();
        for (&idx, outcome) in pending.iter().zip(run.outcomes) {
            match outcome {
                Outcome::Done(Ok(value)) => self.slots[idx] = Some(value),
                Outcome::Done(Err(error)) => failures.push((idx, Failure::Error(error))),
                Outcome::Panicked(message) => failures.push((idx, Failure::Panicked(message))),
                Outcome::Skipped => {}
            }
        }
        self.stop = run.stop;
        failures
    }
}

/// Renders a panic payload into a stable, storable message. Pipelines that
/// catch panics themselves use it so every quarantined message reads alike.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Maps one chunk front to back with stop checks and per-item panic
/// isolation; shared by the sequential and parallel paths so supervision
/// semantics never depend on input size or thread count.
fn supervised_chunk<T, R, F>(base: usize, chunk: &[T], sup: &Supervisor, f: &F) -> Vec<Outcome<R>>
where
    F: Fn(usize, &T) -> R + Sync,
{
    let mut out = Vec::with_capacity(chunk.len());
    for (offset, item) in chunk.iter().enumerate() {
        if sup.should_stop().is_some() {
            break;
        }
        // Per *item*, not per chunk: chunk boundaries move with the thread
        // count, so quarantining whole chunks would make the set of
        // salvaged results thread-count-dependent. AssertUnwindSafe is
        // sound because a panicked item contributes nothing but its
        // message — no state touched by `f` for that item is reused.
        match catch_unwind(AssertUnwindSafe(|| f(base + offset, item))) {
            Ok(value) => {
                sup.note_completed(1);
                out.push(Outcome::Done(value));
            }
            Err(payload) => {
                sup.note_panicked();
                cordoba_obs::record(&cordoba_obs::Event::ChunkPanic);
                out.push(Outcome::Panicked(panic_message(payload.as_ref())));
            }
        }
    }
    out.resize_with(chunk.len(), || Outcome::Skipped);
    out
}

/// Supervised sibling of [`crate::try_par_map_indexed_hinted`]: cooperative
/// stop checks before every item, per-item panic isolation and an
/// input-order merge, on as many workers as the [`crate::CostHint`] says
/// the estimated work pays for.
///
/// Chunking and merge order are identical to the unsupervised map's, so
/// for every index whose outcome is [`Outcome::Done`] the value is
/// bit-identical to the unsupervised map's at any thread count. When the
/// supervisor stops the run, the stop is recorded once as a supervision
/// event and returned in [`SupervisedMap::stop`].
pub fn par_map_supervised<T, R, F>(
    items: &[T],
    hint: crate::CostHint,
    sup: &Supervisor,
    f: F,
) -> SupervisedMap<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = hint.workers(items.len(), crate::effective_threads());
    // Workers isolate item panics, so a panic the engine re-raises comes
    // from outside `f` (e.g. obs plumbing), as in the unsupervised map.
    let outcomes = crate::run_chunks(items, workers, "par/supervised_chunk", |base, chunk| {
        supervised_chunk(base, chunk, sup, &f)
    });
    let any_skipped = outcomes.iter().any(|o| matches!(o, Outcome::Skipped));
    let stop = if any_skipped {
        // A skip implies a latched cancel, a tripped threshold, or an
        // elapsed deadline — all sticky, so this re-check agrees with what
        // the worker saw. The fallback cannot fire but keeps this total.
        Some(sup.record_stop(sup.should_stop().unwrap_or(StopReason::Cancelled)))
    } else {
        None
    };
    SupervisedMap { outcomes, stop }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Silences the default panic-hook chatter for payloads carrying this
    /// marker; intentional panics in these tests would otherwise spam the
    /// test log.
    const QUIET: &str = "[quiet-test-panic]";

    /// A hint heavy enough that every item pays for its own worker, so
    /// multi-thread runs really split into several chunks.
    const HEAVY: crate::CostHint = crate::CostHint::per_item_ns(crate::CostHint::TARGET_CHUNK_NS);

    fn install_quiet_hook() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let quiet = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains(QUIET))
                    || info
                        .payload()
                        .downcast_ref::<&str>()
                        .is_some_and(|s| s.contains(QUIET));
                if !quiet {
                    default(info);
                }
            }));
        });
    }

    #[test]
    fn unbounded_supervisor_matches_unsupervised_map() {
        let items: Vec<u64> = (0..600).collect();
        let expected: Vec<u64> = items.iter().map(|x| x.wrapping_mul(37) ^ 11).collect();
        for threads in [1, 2, 5, 64] {
            let sup = Supervisor::unbounded();
            let run = crate::with_threads(threads, || {
                par_map_supervised(&items, HEAVY, &sup, |_, x| x.wrapping_mul(37) ^ 11)
            });
            assert!(run.is_complete(), "threads = {threads}");
            let got: Vec<u64> = run
                .outcomes
                .into_iter()
                .map(|o| match o {
                    Outcome::Done(v) => v,
                    other => panic!("unexpected outcome {other:?}"),
                })
                .collect();
            assert_eq!(got, expected, "threads = {threads}");
            assert_eq!(sup.progress().completed, items.len() as u64);
        }
    }

    #[test]
    fn cancellation_skips_remaining_items() {
        let items: Vec<u32> = (0..100).collect();
        let sup = Supervisor::unbounded();
        sup.cancel();
        let run = crate::with_threads(4, || par_map_supervised(&items, HEAVY, &sup, |_, x| *x));
        assert_eq!(run.stop, Some(StopReason::Cancelled));
        assert_eq!(run.skipped_indices().len(), items.len());
    }

    #[test]
    fn trip_after_stops_at_exact_point_sequentially() {
        let items: Vec<u32> = (0..50).collect();
        let sup = Supervisor::tripping_after(17);
        let run = crate::with_threads(1, || par_map_supervised(&items, HEAVY, &sup, |_, x| x * 2));
        assert_eq!(run.stop, Some(StopReason::Cancelled));
        let done = run.outcomes.iter().filter(|o| o.done().is_some()).count();
        assert_eq!(done, 17);
        assert_eq!(run.skipped_indices(), (17..50).collect::<Vec<_>>());
        assert_eq!(sup.progress().completed, 17);
    }

    #[test]
    fn zero_deadline_skips_everything() {
        let items: Vec<u32> = (0..40).collect();
        let sup = Supervisor::with_deadline(Duration::ZERO);
        let run = crate::with_threads(4, || par_map_supervised(&items, HEAVY, &sup, |_, x| *x));
        assert_eq!(run.stop, Some(StopReason::DeadlineExceeded));
        assert_eq!(run.skipped_indices().len(), items.len());
        assert_eq!(sup.progress().completed, 0);
    }

    #[test]
    fn panics_are_quarantined_per_item_in_input_order() {
        install_quiet_hook();
        let items: Vec<u32> = (0..200).collect();
        for threads in [1, 3, 8] {
            let sup = Supervisor::unbounded();
            let run = crate::with_threads(threads, || {
                par_map_supervised(&items, HEAVY, &sup, |_, x| {
                    assert!(x % 61 != 13, "{QUIET} poisoned item {x}");
                    x * 3
                })
            });
            assert!(run.is_complete());
            for (i, outcome) in run.outcomes.iter().enumerate() {
                if i % 61 == 13 {
                    match outcome {
                        Outcome::Panicked(msg) => assert!(msg.contains("poisoned item")),
                        other => panic!("index {i}: expected panic, got {other:?}"),
                    }
                } else {
                    assert_eq!(outcome.done(), Some(&(i as u32 * 3)), "index {i}");
                }
            }
            assert_eq!(sup.progress().panicked, 4); // 13, 74, 135, 196
        }
    }

    #[test]
    fn hinted_supervised_map_matches_unhinted_outcomes() {
        let items: Vec<u64> = (0..400).collect();
        let expected: Vec<u64> = items.iter().map(|x| x.wrapping_mul(41) ^ 5).collect();
        for hint_ns in [1, 2_000] {
            let sup = Supervisor::unbounded();
            let hint = crate::CostHint::per_item_ns(hint_ns);
            let run = crate::with_threads(4, || {
                par_map_supervised(&items, hint, &sup, |_, x| x.wrapping_mul(41) ^ 5)
            });
            assert!(run.is_complete(), "hint = {hint_ns}");
            let got: Vec<u64> = run
                .outcomes
                .into_iter()
                .map(|o| match o {
                    Outcome::Done(v) => v,
                    other => panic!("unexpected outcome {other:?}"),
                })
                .collect();
            assert_eq!(got, expected, "hint = {hint_ns}");
        }
        // A tripping supervisor still stops a hinted sequential run at the
        // exact unit count.
        let sup = Supervisor::tripping_after(9);
        let run = crate::with_threads(8, || {
            par_map_supervised(&items, crate::CostHint::per_item_ns(1), &sup, |_, x| *x)
        });
        assert_eq!(run.stop, Some(StopReason::Cancelled));
        assert_eq!(run.skipped_indices(), (9..400).collect::<Vec<_>>());
    }

    #[test]
    fn slots_pending_ascends_and_empty_coverage_is_one() {
        let empty: Slots<u8> = Slots::new(0);
        assert!(empty.is_complete());
        assert_eq!(empty.coverage(), 1.0);
        let mut slots: Slots<u8> = Slots::new(5);
        assert_eq!(slots.fill(3, 30), None);
        assert_eq!(slots.fill(1, 10), None);
        assert_eq!(slots.fill(1, 11), Some(10));
        assert_eq!(slots.pending(), vec![0, 2, 4]);
        assert_eq!((slots.completed(), slots.total()), (2, 5));
        assert!((slots.coverage() - 0.4).abs() < 1e-12);
        assert_eq!(slots.filled().collect::<Vec<_>>(), vec![(1, &11), (3, &30)]);
        assert!(slots.values().is_none());
    }

    #[test]
    fn tripped_advance_leaves_skipped_slots_pending_and_stop_latched() {
        let mut slots: Slots<usize> = Slots::new(50);
        let sup = Supervisor::tripping_after(17);
        let failures = crate::with_threads(1, || slots.advance(HEAVY, &sup, Ok::<_, ()>));
        assert!(failures.is_empty());
        assert_eq!(slots.stop(), Some(StopReason::Cancelled));
        assert_eq!(slots.pending(), (17..50).collect::<Vec<_>>());
        // The tripped supervisor stays latched: advancing under it again
        // attempts nothing and keeps the stop.
        let failures = crate::with_threads(4, || slots.advance(HEAVY, &sup, Ok::<_, ()>));
        assert!(failures.is_empty() && !slots.is_complete());
        assert_eq!(
            (slots.stop(), slots.completed()),
            (Some(StopReason::Cancelled), 17)
        );
    }

    #[test]
    fn advance_returns_errors_and_panics_in_ascending_order() {
        install_quiet_hook();
        for threads in [1, 3, 8] {
            let mut slots: Slots<usize> = Slots::new(200);
            let sup = Supervisor::unbounded();
            let failures = crate::with_threads(threads, || {
                slots.advance(HEAVY, &sup, |i| {
                    assert!(i % 61 != 13, "{QUIET} poisoned slot {i}");
                    if i % 50 == 7 {
                        Err(i)
                    } else {
                        Ok(i * 3)
                    }
                })
            });
            assert_eq!(slots.stop(), None, "threads = {threads}");
            let indices: Vec<usize> = failures.iter().map(|(i, _)| *i).collect();
            assert_eq!(indices, vec![7, 13, 57, 74, 107, 135, 157, 196]);
            assert_eq!(slots.pending(), indices, "threads = {threads}");
            for (i, failure) in failures {
                match failure {
                    Failure::Error(e) => assert_eq!(e, i),
                    Failure::Panicked(msg) => {
                        assert!(msg.contains(&format!("poisoned slot {i}")), "{msg}");
                    }
                }
            }
            assert_eq!(slots.filled().find(|(i, _)| *i == 8), Some((8, &24)));
        }
    }

    #[test]
    fn second_advance_fills_exactly_the_remainder_at_any_thread_count() {
        use std::sync::atomic::AtomicUsize;
        let expected: Vec<u64> = (0..300u64).map(|x| x.wrapping_mul(0x9e37) ^ 5).collect();
        let unit = |i: usize| Ok::<_, ()>(expected[i]);
        for threads in [1, 2, crate::effective_threads()] {
            let mut slots: Slots<u64> = Slots::new(expected.len());
            let trip = Supervisor::tripping_after(100);
            assert!(crate::with_threads(1, || slots.advance(HEAVY, &trip, unit)).is_empty());
            assert_eq!(slots.stop(), Some(StopReason::Cancelled));
            let calls = AtomicUsize::new(0);
            let failures = crate::with_threads(threads, || {
                slots.advance(HEAVY, &Supervisor::unbounded(), |i| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    assert!(i >= 100, "slot {i} was already filled");
                    unit(i)
                })
            });
            assert!(failures.is_empty() && slots.stop().is_none());
            assert_eq!(calls.load(Ordering::Relaxed), 200, "threads = {threads}");
            let got: Vec<u64> = slots.values().unwrap().copied().collect();
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn stop_reason_tokens_round_trip() {
        for reason in [StopReason::Cancelled, StopReason::DeadlineExceeded] {
            assert_eq!(StopReason::from_token(reason.token()), Some(reason));
            assert_eq!(format!("{reason}"), reason.token());
        }
        assert_eq!(StopReason::from_token("nonsense"), None);
    }
}
