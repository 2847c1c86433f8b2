//! Deterministic data parallelism for CORDOBA's analytical sweeps.
//!
//! Every hot loop in the framework — design-space characterization, tCDP
//! grids over operational time, β-transition solving, Monte Carlo
//! uncertainty sampling — is a pure map over independent items. This crate
//! parallelizes exactly that shape with **zero external dependencies**
//! (`std::thread::scope` + `std::thread::available_parallelism`) under a
//! strict determinism contract:
//!
//! * **Order-preserving**: [`par_map`] returns results in input order; for
//!   a pure closure the output `Vec` is *byte-identical* to
//!   `items.iter().map(f).collect()` at every thread count.
//! * **Sequential fallback**: inputs shorter than [`MIN_PARALLEL_LEN`] (or
//!   an effective thread count of 1) run inline on the calling thread with
//!   no spawn overhead.
//! * **Panic-safe**: a panicking worker is re-raised on the calling thread
//!   via [`std::panic::resume_unwind`], so panics neither deadlock the
//!   scope nor change observable behavior versus the sequential path.
//!   Fallible work should instead return `Result` and use [`try_par_map`],
//!   which preserves the sequential "first error in input order" contract.
//! * **Supervisable**: [`par_map_supervised`] threads a
//!   [`supervise::Supervisor`] (cooperative cancellation + deadline budget)
//!   through the same cost-steered chunked map and isolates per-item
//!   panics instead of re-raising them. [`Slots`] keeps the resumable
//!   partial result on top of it — one slot per work unit, advanced over
//!   the pending slots only — and every checkpoint/resume pipeline in the
//!   workspace is built on it (see [`supervise`]).
//!
//! # Thread-count resolution
//!
//! No map takes a thread count. Every map asks [`effective_threads`], which
//! resolves, in order: the innermost [`with_threads`] scope on the calling
//! thread (inherited by the workers a map spawns), the process-wide
//! [`set_threads`] default, and [`std::thread::available_parallelism`]. A
//! count of 1 is exactly the sequential path. Because every map is
//! order-preserving, the count only ever changes wall-clock time.
//!
//! # Examples
//!
//! ```
//! let squares = cordoba_par::par_map(&[1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! let hint = cordoba_par::CostHint::per_item_ns(1_000);
//! let sums: Result<Vec<usize>, ()> =
//!     cordoba_par::try_par_map_indexed_hinted(&["a", "bb"], hint, |i, s| Ok(s.len() + i));
//! assert_eq!(sums.unwrap(), vec![1, 3]);
//!
//! let parsed: Result<Vec<i32>, _> =
//!     cordoba_par::try_par_map(&["1", "2"], |s| s.parse::<i32>());
//! assert_eq!(parsed.unwrap(), vec![1, 2]);
//! ```

pub mod supervise;

pub use supervise::{
    par_map_supervised, Failure, Outcome, Slots, StopReason, SupervisedMap, Supervisor,
};

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Inputs shorter than this run sequentially even when more threads are
/// available: spawn/join overhead (~10 µs per thread) dwarfs per-item work
/// for tiny sweeps, and the output is identical either way.
pub const MIN_PARALLEL_LEN: usize = 16;

/// Caller-supplied per-item cost estimate steering the `_hinted` map
/// variants and [`par_map_supervised`].
///
/// The length-only [`MIN_PARALLEL_LEN`] cutoff cannot tell a 121-item sweep
/// of microsecond work (where spawning threads *loses* time) from 121 items
/// of millisecond work (where it pays). A `CostHint` replaces the length
/// cutoff with a work-based one: a map stays on the calling thread until
/// its estimated total work reaches [`CostHint::MIN_PARALLEL_WORK_NS`], and
/// beyond that it uses only as many workers as keep each chunk above
/// [`CostHint::TARGET_CHUNK_NS`] of estimated work, so spawn/join overhead
/// (~10 µs per thread) stays a small fraction of every chunk.
///
/// The hint is a pure scheduling knob: every map in this crate is
/// order-preserving, so results are bit-identical at any worker count and a
/// wrong estimate can only cost wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostHint {
    ns_per_item: u64,
}

impl CostHint {
    /// Estimated total work below which a hinted map runs on the calling
    /// thread: ~200 µs of work saves at most ~100 µs by splitting in two,
    /// which barely clears the spawn/join cost.
    pub const MIN_PARALLEL_WORK_NS: u64 = 200_000;

    /// Estimated work each chunk should carry when a hinted map does go
    /// parallel, keeping per-thread spawn overhead around the percent
    /// level.
    pub const TARGET_CHUNK_NS: u64 = 100_000;

    /// A hint of `ns` estimated nanoseconds per mapped item (0 is treated
    /// as 1).
    #[must_use]
    pub const fn per_item_ns(ns: u64) -> Self {
        Self {
            ns_per_item: if ns == 0 { 1 } else { ns },
        }
    }

    /// The estimated per-item cost in nanoseconds.
    #[must_use]
    pub const fn ns_per_item(self) -> u64 {
        self.ns_per_item
    }

    /// Worker count for a map of `len` items with `threads` available:
    /// 1 while the estimated total work is under
    /// [`Self::MIN_PARALLEL_WORK_NS`], otherwise capped so each chunk
    /// carries at least [`Self::TARGET_CHUNK_NS`] of estimated work.
    #[must_use]
    pub fn workers(self, len: usize, threads: usize) -> usize {
        let threads = threads.clamp(1, len.max(1));
        if threads == 1 {
            return 1;
        }
        let total_ns = self.ns_per_item.saturating_mul(len as u64);
        if total_ns < Self::MIN_PARALLEL_WORK_NS {
            return 1;
        }
        let paying = usize::try_from(total_ns / Self::TARGET_CHUNK_NS).unwrap_or(usize::MAX);
        threads.min(paying)
    }
}

/// Process-wide default thread count; 0 means "auto" (all cores).
///
/// Thread count is a pure performance knob: every map in this crate is
/// order-preserving, so results are bit-identical at any worker count and
/// these statics can never reach a computed value. Relaxed suffices
/// because each is a single word with no data published through it.
// cordoba-lint: allow-file(atomic-ordering) — single-word config/memo cells, no cross-thread data handoff
// cordoba-lint: allow(global-state) — perf-only knob, cannot affect results (maps are order-preserving)
static CONFIGURED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Memoized [`std::thread::available_parallelism`]; 0 means "not yet
/// queried". The std call re-reads cgroup quota files on Linux (tens of
/// microseconds), which would dominate small sweeps if paid per map.
// cordoba-lint: allow(global-state) — memoized hardware probe, perf-only; cannot affect results
static AUTO_THREADS: AtomicUsize = AtomicUsize::new(0);

// cordoba-lint: allow(global-state) — perf-only scoped knob like CONFIGURED_THREADS; maps are order-preserving, so it cannot affect results
thread_local! {
    /// The innermost [`with_threads`] count on this thread; 0 means "no
    /// scope". Map workers inherit their spawner's value.
    static SCOPED_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Sets the process-wide default worker-thread count. `None` restores the
/// default (all available cores). A [`with_threads`] scope takes
/// precedence over this default.
///
/// Because every map is order-preserving, changing the count never changes
/// results — only wall-clock time.
pub fn set_threads(threads: Option<NonZeroUsize>) {
    CONFIGURED_THREADS.store(threads.map_or(0, NonZeroUsize::get), Ordering::Relaxed);
}

/// The process-wide default installed by [`set_threads`], if any.
#[must_use]
pub fn configured_threads() -> Option<NonZeroUsize> {
    NonZeroUsize::new(CONFIGURED_THREADS.load(Ordering::Relaxed))
}

/// Runs `f` with every map it starts — on this thread or, transitively, on
/// the workers those maps spawn — using `threads` workers (0 is treated as
/// 1). The previous count is restored when `f` returns or unwinds, and
/// other threads are unaffected.
///
/// ```
/// let inner = cordoba_par::with_threads(3, || {
///     assert_eq!(cordoba_par::effective_threads(), 3);
///     cordoba_par::with_threads(1, cordoba_par::effective_threads)
/// });
/// assert_eq!(inner, 1);
/// ```
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    /// Restores the enclosing scope's count on return and on unwind.
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_THREADS.set(self.0);
        }
    }
    let _restore = Restore(SCOPED_THREADS.replace(threads.max(1)));
    f()
}

/// The worker-thread count every map uses: the innermost [`with_threads`]
/// scope if any, else the [`set_threads`] default, else
/// [`std::thread::available_parallelism`], else 1.
#[must_use]
pub fn effective_threads() -> usize {
    let scoped = SCOPED_THREADS.get();
    if scoped != 0 {
        return scoped;
    }
    match configured_threads() {
        Some(n) => n.get(),
        None => match AUTO_THREADS.load(Ordering::Relaxed) {
            0 => {
                let auto = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
                AUTO_THREADS.store(auto, Ordering::Relaxed);
                auto
            }
            cached => cached,
        },
    }
}

/// Spawns `work` on `scope` under the calling thread's [`with_threads`]
/// count, so a map nested inside a worker resolves the same count as its
/// parent map did.
fn spawn_inheriting<'scope, R, W>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    work: W,
) -> std::thread::ScopedJoinHandle<'scope, R>
where
    R: Send + 'scope,
    W: FnOnce() -> R + Send + 'scope,
{
    let scoped = SCOPED_THREADS.get();
    scope.spawn(move || {
        SCOPED_THREADS.set(scoped);
        work()
    })
}

/// Maps `f` over `items` in parallel, preserving input order.
///
/// Equivalent to `items.iter().map(f).collect()` for any pure `f`. The
/// input is split into at most [`effective_threads`] contiguous chunks;
/// each worker maps its chunk front to back and the chunk results are
/// concatenated in chunk order, so the output order (and, for a pure `f`,
/// every bit of the output) is independent of the thread count.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    chunked_map(items, length_workers(items.len()), |_, item| f(item))
}

/// [`try_par_map`] steered by a [`CostHint`] instead of the length-only
/// [`MIN_PARALLEL_LEN`] cutoff, with the closure also receiving the item
/// index: the map stays sequential until the estimated total work pays
/// for spawning, and then uses only as many workers as keep each chunk's
/// work above the spawn cost. The result is identical to [`try_par_map`]'s
/// for any pure `f`.
///
/// # Errors
///
/// Returns the error produced by the earliest (by input index) failing
/// invocation of `f`.
pub fn try_par_map_indexed_hinted<T, R, E, F>(
    items: &[T],
    hint: CostHint,
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    chunked_map(items, hint.workers(items.len(), effective_threads()), f)
        .into_iter()
        .collect()
}

/// The pre-`CostHint` worker-count rule: [`effective_threads`], except
/// that short inputs run sequentially.
fn length_workers(len: usize) -> usize {
    let threads = effective_threads().clamp(1, len.max(1));
    if threads == 1 || len < MIN_PARALLEL_LEN {
        1
    } else {
        threads
    }
}

/// Order-preserving chunked map over exactly `workers` contiguous chunks
/// (1 = the sequential path); the engine behind every unsupervised map.
fn chunked_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_chunks(items, workers, "par/chunk", |base, chunk| {
        chunk
            .iter()
            .enumerate()
            .map(|(offset, item)| f(base + offset, item))
            .collect()
    })
}

/// The one spawn → join → merge loop behind every map in this crate.
///
/// Splits `items` into exactly `workers` contiguous chunks and runs
/// `chunk_fn(base, chunk)` on each, where `base` is the chunk's first input
/// index and the output holds one value per chunk item. One worker runs the
/// whole input inline on the calling thread; otherwise each chunk gets a
/// scoped worker under a `span` trace span, and the chunk outputs are
/// concatenated in input order. A worker panic is re-raised on the caller,
/// matching the inline path's behavior.
pub(crate) fn run_chunks<T, R, C>(
    items: &[T],
    workers: usize,
    span: &'static str,
    chunk_fn: C,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    C: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    if workers <= 1 {
        return chunk_fn(0, items);
    }
    let chunk_len = items.len().div_ceil(workers);
    let chunk_fn = &chunk_fn;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .enumerate()
            .map(|(chunk_idx, chunk)| {
                let base = chunk_idx * chunk_len;
                spawn_inheriting(scope, move || {
                    // Observability side channel only: the span never
                    // touches the mapped values, so results stay
                    // bit-identical with tracing on or off.
                    let _span = cordoba_obs::span_with(
                        span,
                        "items",
                        u64::try_from(chunk.len()).unwrap_or(u64::MAX),
                    );
                    chunk_fn(base, chunk)
                })
            })
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// Fallible parallel map preserving the sequential error contract: on
/// failure, returns the error of the *first* failing item in input order.
///
/// Unlike a sequential `try` loop this evaluates every item before
/// reporting, but the returned value is identical.
///
/// # Errors
///
/// Returns the error produced by the earliest (by input index) failing
/// invocation of `f`.
pub fn try_par_map<T, R, E, F>(items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    par_map(items, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values_at_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x.wrapping_mul(31) ^ 7).collect();
        for threads in [1, 2, 3, 4, 7, 64, 1000, 5000] {
            // A hint heavy enough that the worker count follows the thread
            // count, as the length rule would.
            let hint = CostHint::per_item_ns(CostHint::TARGET_CHUNK_NS);
            let got = with_threads(threads, || {
                try_par_map_indexed_hinted(&items, hint, |i, x| {
                    assert_eq!(*x, i as u64);
                    Ok::<_, ()>(x.wrapping_mul(31) ^ 7)
                })
            })
            .unwrap();
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        with_threads(8, || {
            assert!(par_map(&empty, |x| *x).is_empty());
            assert_eq!(par_map(&[5u32], |x| x + 1), vec![6]);
            // Below the cutoff the calling thread does all the work.
            let caller = std::thread::current().id();
            let ids = par_map(&[1, 2, 3], |_| std::thread::current().id());
            assert!(ids.iter().all(|id| *id == caller));
        });
    }

    #[test]
    fn float_results_are_bit_identical_across_thread_counts() {
        let items: Vec<f64> = (0..500).map(|i| f64::from(i) * 0.1 + 0.3).collect();
        let work = |x: &f64| (x.sin() * x.exp()).ln_1p() / (x + 1.0);
        let seq: Vec<u64> = items.iter().map(|x| work(x).to_bits()).collect();
        for threads in [2, 3, 8] {
            let par: Vec<u64> = with_threads(threads, || par_map(&items, work))
                .into_iter()
                .map(f64::to_bits)
                .collect();
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn try_map_reports_first_error_in_input_order() {
        let items: Vec<i64> = (0..200).collect();
        let f = |x: &i64| {
            if *x % 71 == 13 {
                Err(*x)
            } else {
                Ok(x * 2)
            }
        };
        for threads in [1, 2, 4, 16] {
            // 13 and 84 and 155 fail; 13 is first in input order.
            assert_eq!(with_threads(threads, || try_par_map(&items, f)), Err(13));
        }
        let clean: Vec<i64> = (0..100).collect();
        let ok = with_threads(4, || try_par_map(&clean, |x| Ok::<_, ()>(x + 1))).unwrap();
        assert_eq!(ok, (1..=100).collect::<Vec<i64>>());
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let items: Vec<u32> = (0..100).collect();
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&items, |x| {
                    assert!(*x != 57, "boom");
                    *x
                })
            })
        });
        assert!(result.is_err());
    }

    /// Serializes the tests that write the process-wide default, so one
    /// never observes another's value.
    static GLOBAL_DEFAULT: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn global_thread_configuration_round_trips() {
        let _guard = GLOBAL_DEFAULT.lock().unwrap_or_else(|e| e.into_inner());
        assert!(effective_threads() >= 1);
        set_threads(NonZeroUsize::new(3));
        assert_eq!(configured_threads(), NonZeroUsize::new(3));
        assert_eq!(effective_threads(), 3);
        set_threads(None);
        assert_eq!(configured_threads(), None);
        assert!(effective_threads() >= 1);
    }

    #[test]
    fn scoped_override_wins_over_global_default() {
        let _guard = GLOBAL_DEFAULT.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(NonZeroUsize::new(5));
        assert_eq!(with_threads(2, effective_threads), 2);
        assert_eq!(effective_threads(), 5);
        set_threads(None);
    }

    #[test]
    fn scoped_override_nests_and_restores_after_a_caught_panic() {
        assert_eq!(SCOPED_THREADS.get(), 0);
        with_threads(3, || {
            assert_eq!(effective_threads(), 3);
            with_threads(5, || assert_eq!(effective_threads(), 5));
            assert_eq!(effective_threads(), 3);
            let caught = std::panic::catch_unwind(|| {
                with_threads(7, || panic!("unwinding out of a scope"));
            });
            assert!(caught.is_err());
            assert_eq!(effective_threads(), 3);
            with_threads(0, || assert_eq!(effective_threads(), 1));
        });
        assert_eq!(SCOPED_THREADS.get(), 0);
    }

    #[test]
    fn maps_started_inside_workers_see_the_scope() {
        let items: Vec<u32> = (0..64).collect();
        let caller = std::thread::current().id();
        let seen = with_threads(3, || {
            par_map(&items, |_| {
                let nested = par_map(&items[..MIN_PARALLEL_LEN], |_| effective_threads());
                (std::thread::current().id(), effective_threads(), nested)
            })
        });
        for (id, threads, nested) in seen {
            assert_ne!(id, caller, "64 items at 3 threads run on workers");
            assert_eq!(threads, 3);
            assert!(nested.iter().all(|&n| n == 3));
        }
    }

    #[test]
    fn concurrent_scopes_on_different_threads_stay_separate() {
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for threads in [2, 6] {
                let barrier = &barrier;
                scope.spawn(move || {
                    with_threads(threads, || {
                        // Both scopes are open before either reads.
                        barrier.wait();
                        for _ in 0..1000 {
                            assert_eq!(effective_threads(), threads);
                        }
                        barrier.wait();
                    });
                });
            }
        });
    }

    #[test]
    fn cost_hint_keeps_cheap_sweeps_sequential() {
        // 121 items of ~1.2 µs (the seed evaluate_space shape): total work
        // ~145 µs is under the parallel threshold, so no spawning.
        let hint = CostHint::per_item_ns(1_200);
        assert_eq!(hint.workers(121, 8), 1);
        // 1000 items of the same work: parallel, but capped by the chunk
        // budget (1.2 ms / 100 µs = 12 chunks).
        assert_eq!(hint.workers(1000, 8), 8);
        assert_eq!(hint.workers(1000, 64), 12);
        // Expensive items parallelize even at short lengths.
        assert_eq!(CostHint::per_item_ns(1_000_000).workers(4, 8), 4);
        // Degenerate inputs.
        assert_eq!(hint.workers(0, 8), 1);
        assert_eq!(hint.workers(1, 8), 1);
        assert_eq!(CostHint::per_item_ns(0).ns_per_item(), 1);
    }

    #[test]
    fn hinted_maps_match_unhinted_bits_at_every_thread_count() {
        let items: Vec<f64> = (0..300).map(|i| f64::from(i) * 0.7 + 0.1).collect();
        let work = |x: &f64| (x.sqrt() * x.ln_1p()).sin();
        let seq: Vec<u64> = items.iter().map(|x| work(x).to_bits()).collect();
        for threads in [1, 2, 8] {
            for hint_ns in [1, 1_000, 10_000_000] {
                let hint = CostHint::per_item_ns(hint_ns);
                let got: Vec<u64> = with_threads(threads, || {
                    try_par_map_indexed_hinted(&items, hint, |_, x| Ok::<_, ()>(work(x).to_bits()))
                })
                .unwrap();
                assert_eq!(got, seq, "threads = {threads}, hint = {hint_ns}");
            }
        }
    }

    #[test]
    fn hinted_try_map_reports_first_error_in_input_order() {
        let items: Vec<i64> = (0..200).collect();
        let f = |_: usize, x: &i64| if *x % 71 == 13 { Err(*x) } else { Ok(x * 2) };
        for hint_ns in [1, 100_000] {
            let hint = CostHint::per_item_ns(hint_ns);
            let got = with_threads(4, || try_par_map_indexed_hinted(&items, hint, f));
            assert_eq!(got, Err(13));
        }
    }

    #[test]
    fn hinted_map_stays_on_caller_below_work_threshold() {
        let items: Vec<u32> = (0..100).collect();
        let caller = std::thread::current().id();
        // 100 items x 1 ns is far below the threshold despite exceeding
        // MIN_PARALLEL_LEN.
        let ids = with_threads(8, || {
            try_par_map_indexed_hinted(&items, CostHint::per_item_ns(1), |_, _| {
                Ok::<_, ()>(std::thread::current().id())
            })
        })
        .unwrap();
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn uses_multiple_threads_for_large_inputs() {
        use std::collections::HashSet;
        let items: Vec<u32> = (0..256).collect();
        let ids = with_threads(4, || {
            par_map(&items, |_| {
                // A short stall so chunks overlap in time rather than one
                // worker finishing before the next spawns.
                std::thread::sleep(std::time::Duration::from_millis(1));
                std::thread::current().id()
            })
        });
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() > 1, "expected work on more than one thread");
    }
}
