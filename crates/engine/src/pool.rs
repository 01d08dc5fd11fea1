//! The generic worker pool: scoped threads draining a shared job slice
//! through one chunk dispenser.  A one-worker batch runs the same worker
//! body inline on the caller's thread, with no spawn.
//!
//! The queue is the job slice itself plus one [`AtomicUsize`] cursor —
//! there is no channel, no allocation per job, and no lock. Each
//! `fetch_add(chunk)` on the cursor hands a worker the next contiguous
//! range of job indices; the worker runs that range and comes back for
//! another until the cursor passes the end of the slice. The chunk
//! amortizes the one synchronized claim across many jobs.
//!
//! Determinism does not depend on any of this: results are merged into
//! index-aligned slots after all workers join, so output order never
//! depends on thread interleaving, chunk size, or which worker claimed
//! which range.
//!
//! A panic inside one job is caught ([`std::panic::catch_unwind`]) and
//! recorded in the claiming worker's [`WorkerLoad::panics`]; the worker
//! moves on to the next job and the batch completes with a `None` in the
//! panicked job's slot. Nothing here holds a `Mutex`, so a panic cannot
//! poison shared state. Per-worker state handed out by
//! [`run_batch_stateful`] is *not* rebuilt after a panic — see its
//! contract below.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Per-worker load measurements.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerLoad {
    /// Worker id, `0..threads`.
    pub worker: usize,
    /// Jobs completed by this worker.
    pub jobs: u64,
    /// Jobs claimed by this worker that panicked.
    pub panics: u64,
    /// Nanoseconds spent claiming work from the queue.
    pub queue_wait_nanos: u128,
    /// Nanoseconds spent executing jobs.
    pub busy_nanos: u128,
}

/// The raw result of [`run_batch`] / [`run_batch_stateful`].
#[derive(Debug)]
pub struct PoolOutcome<R> {
    /// Job results, index-aligned with the input slice; `None` marks a
    /// panicked job.
    pub results: Vec<Option<R>>,
    /// Per-worker load, indexed by worker id.
    pub workers: Vec<WorkerLoad>,
    /// Wall-clock nanoseconds from the start of the batch to its merge.
    pub elapsed_nanos: u128,
}

/// Chunk size for a batch: large enough that one dispenser `fetch_add`
/// amortizes over many jobs, small enough that every worker sees several
/// chunks (load balance).
///
/// `jobs / (threads * 8)` aims for ~8 chunks per worker, clamped to
/// `[1, 64]` so tiny batches still hand out work and huge batches do not
/// concentrate too much in one claim.
pub fn chunk_size(jobs: usize, threads: usize) -> usize {
    (jobs / (threads.max(1) * 8)).clamp(1, 64)
}

/// Runs `work` over every item of `items` on up to `threads` workers and
/// returns index-aligned results.
///
/// `work` receives `(worker_id, job_index, item)`. It must not assume
/// anything about which worker runs which job: assignment is chunked
/// first-come first-served. Results are merged by job index, so they are
/// deterministic whenever `work` itself is a pure function of
/// `(job_index, item)`.
pub fn run_batch<T, R, F>(items: &[T], threads: usize, work: F) -> PoolOutcome<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, usize, &T) -> R + Sync,
{
    let (outcome, _states) = run_batch_stateful(
        items,
        threads,
        |_| (),
        |(), worker, index, item| work(worker, index, item),
    );
    outcome
}

/// Like [`run_batch`], but each worker owns a long-lived state value
/// built once by `init(worker_id)` and borrowed mutably by every job the
/// worker executes. The final per-worker states are returned alongside
/// the outcome, indexed by worker id.
///
/// The batch runs on `threads.min(items.len()).max(1)` workers: never
/// more workers than jobs, and a batch that gets one worker (including
/// an empty batch) runs inline on the caller's thread.
///
/// This is how the engine keeps one reusable scheduler scratch (RU map,
/// placement buffers, stats accumulator) per worker instead of
/// allocating per job: `work` resets the scratch on entry and the state
/// survives across every job the worker claims.
///
/// # Independence contract
///
/// Jobs must not wait on each other. A worker runs its claimed range in
/// index order, so a job that blocks until a later job in the same range
/// has run never finishes.
///
/// # Panic contract
///
/// A panicking job leaves the worker's state exactly as the panic left
/// it — the pool does **not** rebuild state, because doing so would also
/// discard anything the worker accumulated across earlier jobs (stats,
/// warmed buffers). `work` must therefore treat the state as scratch of
/// unknown content and reset whatever it reads *on entry*, never relying
/// on the previous job having completed. Accumulations should be folded
/// in only after the fallible part of the job returns.
pub fn run_batch_stateful<T, R, S, I, F>(
    items: &[T],
    threads: usize,
    init: I,
    work: F,
) -> (PoolOutcome<R>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, usize, &T) -> R + Sync,
{
    let threads = threads.min(items.len()).max(1);
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();

    // One worker needs no hand-off at all: run it on the caller's thread
    // and skip the spawn, which costs more than a small batch's work.
    // Either way `finished` comes back indexed by worker id.
    let finished = if threads == 1 {
        vec![worker_loop(0, threads, &cursor, items, &init, &work)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|worker| {
                    let (cursor, init, work) = (&cursor, &init, &work);
                    scope.spawn(move || worker_loop(worker, threads, cursor, items, init, work))
                })
                .collect();
            // Per-job panics are caught inside the worker, so join can
            // only fail if the pool bookkeeping itself panicked; there is
            // no state to salvage in that case.
            handles
                .into_iter()
                .map(|handle| handle.join().expect("pool worker bookkeeping panicked"))
                .collect()
        })
    };

    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let mut workers: Vec<WorkerLoad> = Vec::with_capacity(threads);
    let mut states: Vec<S> = Vec::with_capacity(threads);
    for (load, produced, state) in finished {
        for (index, value) in produced {
            results[index] = Some(value);
        }
        states.push(state);
        workers.push(load);
    }

    (
        PoolOutcome {
            results,
            workers,
            elapsed_nanos: started.elapsed().as_nanos(),
        },
        states,
    )
}

/// One worker's life: build its state, then claim the next range off the
/// shared `cursor`, run and account its jobs, and repeat until the cursor
/// passes the end of the batch.  The same body runs inline (one worker)
/// or on a scoped thread, so both paths fill results and [`WorkerLoad`]
/// identically.
fn worker_loop<T, R, S, I, F>(
    worker: usize,
    threads: usize,
    cursor: &AtomicUsize,
    items: &[T],
    init: &I,
    work: &F,
) -> (WorkerLoad, Vec<(usize, R)>, S)
where
    I: Fn(usize) -> S,
    F: Fn(&mut S, usize, usize, &T) -> R,
{
    let chunk = chunk_size(items.len(), threads);
    let mut load = WorkerLoad {
        worker,
        ..WorkerLoad::default()
    };
    let mut state = init(worker);
    let mut produced: Vec<(usize, R)> = Vec::with_capacity(items.len() / threads + 1);
    loop {
        let wait_started = Instant::now();
        // Relaxed suffices: the cursor publishes no data. The items were
        // shared before any worker started, and results come back
        // through the scope's join.
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        load.queue_wait_nanos += wait_started.elapsed().as_nanos();
        if start >= items.len() {
            break;
        }
        let end = (start + chunk).min(items.len());
        for (index, item) in (start..end).zip(&items[start..end]) {
            let busy_started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| work(&mut state, worker, index, item)));
            load.busy_nanos += busy_started.elapsed().as_nanos();
            match result {
                Ok(value) => {
                    load.jobs += 1;
                    produced.push((index, value));
                }
                Err(_) => load.panics += 1,
            }
        }
    }
    (load, produced, state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_aligned_regardless_of_threads() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 7] {
            let outcome = run_batch(&items, threads, |_, index, item| item * 2 + index as u64);
            let values: Vec<u64> = outcome.results.into_iter().map(Option::unwrap).collect();
            let expected: Vec<u64> = items.iter().map(|i| i * 3).collect();
            assert_eq!(values, expected, "{threads} threads");
            assert_eq!(outcome.workers.len(), threads);
            let done: u64 = outcome.workers.iter().map(|w| w.jobs).sum();
            assert_eq!(done, 100);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..64).collect();
        run_batch(&items, 8, |_, index, _| {
            hits[index].fetch_add(1, Ordering::Relaxed);
        });
        for (index, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), 1, "job {index}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once_across_chunk_sizes() {
        // Batch sizes straddling chunk boundaries: smaller than one chunk
        // per worker, exactly chunked, and with a ragged final chunk.
        for jobs in [1usize, 3, 8, 65, 100, 513] {
            for threads in [1usize, 2, 5, 16] {
                let hits: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
                let items: Vec<usize> = (0..jobs).collect();
                run_batch(&items, threads, |_, index, _| {
                    hits[index].fetch_add(1, Ordering::Relaxed);
                });
                for (index, hit) in hits.iter().enumerate() {
                    assert_eq!(
                        hit.load(Ordering::Relaxed),
                        1,
                        "job {index} of {jobs} on {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn a_panicking_job_is_surfaced_and_the_rest_complete() {
        let items: Vec<usize> = (0..20).collect();
        let outcome = run_batch(&items, 3, |_, index, item| {
            assert!(index != 11, "deliberate test panic");
            *item
        });
        assert!(outcome.results[11].is_none());
        let completed = outcome.results.iter().flatten().count();
        assert_eq!(completed, 19);
        let panics: u64 = outcome.workers.iter().map(|w| w.panics).sum();
        assert_eq!(panics, 1);
    }

    #[test]
    fn empty_batches_are_fine() {
        let outcome = run_batch(&[] as &[u8], 4, |_, _, _| ());
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.workers.len(), 1);
    }

    #[test]
    fn a_batch_never_starts_more_workers_than_jobs() {
        let items: Vec<usize> = (0..3).collect();
        let outcome = run_batch(&items, 16, |_, _, item| *item);
        assert_eq!(outcome.workers.len(), 3);
        assert_eq!(outcome.results, vec![Some(0), Some(1), Some(2)]);

        // One job on eight requested workers runs inline, no spawn.
        let caller = std::thread::current().id();
        let outcome = run_batch(&[()], 8, |_, _, _| std::thread::current().id());
        assert_eq!(outcome.workers.len(), 1);
        assert_eq!(outcome.results, vec![Some(caller)]);
    }

    #[test]
    fn chunk_size_is_bounded_and_nonzero() {
        assert_eq!(chunk_size(0, 4), 1);
        assert_eq!(chunk_size(7, 4), 1);
        assert_eq!(chunk_size(64, 4), 2);
        assert_eq!(chunk_size(1 << 20, 4), 64);
        assert_eq!(chunk_size(100, 0), 12); // zero threads clamps to one
    }

    #[test]
    fn worker_state_persists_across_jobs_and_is_returned() {
        let items: Vec<usize> = (0..50).collect();
        let (outcome, states) = run_batch_stateful(
            &items,
            4,
            |worker| (worker, 0u64),
            |state, _, _, item| {
                state.1 += *item as u64;
                *item
            },
        );
        assert_eq!(states.len(), 4);
        // States come back indexed by worker id.
        for (slot, (worker, _)) in states.iter().enumerate() {
            assert_eq!(slot, *worker);
        }
        // Every job folded its item into exactly one worker's accumulator.
        let total: u64 = states.iter().map(|(_, sum)| sum).sum();
        assert_eq!(total, (0..50).sum::<u64>());
        assert_eq!(outcome.results.iter().flatten().count(), 50);
    }

    #[test]
    fn a_single_worker_runs_inline_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..10).collect();
        let outcome = run_batch(&items, 1, |_, _, _| std::thread::current().id());
        for (index, ran_on) in outcome.results.iter().enumerate() {
            assert_eq!(*ran_on, Some(caller), "job {index}");
        }
    }

    #[test]
    fn inline_and_spawned_batches_account_panics_alike() {
        let items: Vec<usize> = (0..20).collect();
        for threads in [1, 2] {
            let outcome = run_batch(&items, threads, |_, index, item| {
                assert!(index != 7, "deliberate test panic");
                std::thread::sleep(std::time::Duration::from_micros(50));
                *item
            });
            assert!(outcome.results[7].is_none(), "{threads} threads");
            assert_eq!(outcome.results.iter().flatten().count(), 19);
            assert_eq!(outcome.workers.len(), threads);
            let jobs: u64 = outcome.workers.iter().map(|w| w.jobs).sum();
            let panics: u64 = outcome.workers.iter().map(|w| w.panics).sum();
            assert_eq!((jobs, panics), (19, 1), "{threads} threads");
            let busy: u128 = outcome.workers.iter().map(|w| w.busy_nanos).sum();
            assert!(busy >= 19 * 50_000, "{threads} threads: busy {busy} ns");
            for (slot, load) in outcome.workers.iter().enumerate() {
                assert_eq!(load.worker, slot);
            }
        }
    }
}
