//! The workspace's one helper for per-call parallel work.
//!
//! The blocked GEMM's row panels, the population engine's clients and
//! selective SGD's wave members all run through [`for_each_claimed`],
//! under two rules: one worker spawns nothing and allocates nothing, and a
//! worker never spawns — a call from inside a job runs inline on that
//! job's worker, so nested parallel code never holds more threads than the
//! outer call chose.

use std::cell::Cell;
use std::sync::Mutex;

/// Most workers a call spreads over, however many cores there are.
pub const MAX_WORKERS: usize = 8;

thread_local! {
    /// Set while this thread is a worker of a [`for_each_claimed`] call.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Workers a call may use on this host: one per core the process may run
/// on, at most [`MAX_WORKERS`].
pub fn host_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(MAX_WORKERS)
}

/// Runs `job(item, &mut state)` for every item on `min(workers, items.len())`
/// workers, each starting from `init()` and claiming the next unclaimed
/// item until none is left, and folds their states with `reduce`, the
/// calling thread's first. Who runs which item is up to the scheduler, so
/// the states must combine the same way whatever the split. With one
/// worker, or when this thread is itself a worker, the items run in order
/// on this thread into one state.
///
/// # Panics
///
/// Re-raises the panic of any job.
pub fn for_each_claimed<T: Send, S: Send>(
    workers: usize,
    items: impl ExactSizeIterator<Item = T> + Send,
    init: impl Fn() -> S + Sync,
    job: impl Fn(T, &mut S) + Sync,
    mut reduce: impl FnMut(S, S) -> S,
) -> S {
    let workers = workers.min(items.len());
    if workers <= 1 || IN_WORKER.get() {
        let mut state = init();
        for item in items {
            job(item, &mut state);
        }
        return state;
    }
    // the guard drops inside `claim`: a `while let` scrutinee would hold
    // it through the job and run the workers one at a time
    let items = Mutex::new(items);
    let claim = || items.lock().expect("only `next` runs under the lock").next();
    let work = || {
        IN_WORKER.set(true);
        let mut state = init();
        while let Some(item) = claim() {
            job(item, &mut state);
        }
        state
    };
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mine = work();
        IN_WORKER.set(false);
        spawned.into_iter().fold(mine, |acc, h| reduce(acc, h.join().expect("worker panicked")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{self, bits, gemm, Trans, TEST_THREADS_LOCK};
    use std::thread::{self, ThreadId};

    #[test]
    fn every_index_is_claimed_once_and_one_worker_spawns_nothing() {
        let caller = thread::current().id();
        for workers in [1, 2, 7, 32] {
            let states = for_each_claimed(
                workers,
                0..100,
                || vec![Vec::new()],
                |i, seen: &mut Vec<Vec<usize>>| {
                    assert!(workers > 1 || thread::current().id() == caller);
                    seen[0].push(i);
                },
                |mut a, b| {
                    a.extend(b);
                    a
                },
            );
            assert_eq!(states.len(), workers.min(100));
            let mut seen: Vec<usize> = states.into_iter().flatten().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..100).collect::<Vec<_>>(), "workers={workers}");
        }
        // never more workers than items, and the caller alone when there are none
        let count =
            |workers, items| for_each_claimed(workers, 0..items, || 1, |_, _| (), |a, b| a + b);
        assert_eq!(count(8, 3), 3);
        assert_eq!(count(8, 0), 1);
        assert_eq!(count(1, 5), 1);
        assert!(!IN_WORKER.get(), "the caller is a worker only for the call");
    }

    #[test]
    fn workers_run_their_jobs_at_the_same_time() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        // each job waits until both have started: workers that took turns
        // (say, one holding the claim lock through its job) never meet
        let started = AtomicUsize::new(0);
        let met = for_each_claimed(
            2,
            0..2,
            || true,
            |_, met: &mut bool| {
                started.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while started.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                    thread::yield_now();
                }
                *met &= started.load(Ordering::SeqCst) == 2;
            },
            |a, b| a && b,
        );
        assert!(met, "the two jobs never ran at the same time");
    }

    #[test]
    fn a_call_from_inside_a_worker_runs_on_that_worker() {
        let _guard = TEST_THREADS_LOCK.lock().unwrap();
        let before = kernel::threads();
        kernel::set_threads(4);
        // 130·70·130 MACs: above the size at which the GEMM goes parallel
        let (m, n, k) = (130, 70, 130);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.11).cos()).collect();
        let product = || {
            let mut out = vec![0.0f32; m * n];
            gemm(Trans::N, Trans::N, m, n, k, &a, &b, &mut out, false);
            bits(&out)
        };
        let outside = product();
        let threads_seen = |jobs: usize| {
            for_each_claimed(
                jobs,
                0..jobs,
                Vec::new,
                |_, seen: &mut Vec<ThreadId>| seen.push(thread::current().id()),
                |mut a, b| {
                    a.extend(b);
                    a
                },
            )
        };
        let results = for_each_claimed(
            4,
            0..4,
            Vec::new,
            |_, out: &mut Vec<(ThreadId, Vec<ThreadId>, Vec<u32>)>| {
                out.push((thread::current().id(), threads_seen(4), product()));
            },
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        kernel::set_threads(before);
        assert_eq!(results.len(), 4);
        for (worker, nested, gemm_bits) in results {
            assert_eq!(nested, vec![worker; 4], "a nested call left its worker");
            assert_eq!(gemm_bits, outside, "a GEMM inside a worker changed its bits");
        }
    }
}
