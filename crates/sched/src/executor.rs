//! A parallel map built from std primitives only.
//!
//! Workers share one cursor over the items: each takes the next index
//! with one atomic increment until the items run out. Items never spawn
//! work, and a simulation job runs for milliseconds to seconds, so a
//! cursor balances as well as work stealing would: a long item holds up
//! only the worker that runs it.
//!
//! Determinism contract: `run_ordered` returns results in **input
//! order**, whatever interleaving the workers ran. Combined with the
//! engine's own determinism this is what lets `repro --jobs 8` produce
//! byte-identical tables to `--jobs 1`.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f` over `items`, fanning out over `jobs` worker threads, and
/// returns the outputs in input order.
///
/// `jobs == 0` is treated as 1. With one job the items run inline on the
/// caller's thread in order — no thread is spawned, which keeps
/// single-job runs exactly as debuggable as the old serial loops.
///
/// # Panics
///
/// If `f` panics for any item, the first such panic is resumed on the
/// caller's thread after all workers have joined.
pub fn run_ordered<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(&f).collect();
    }

    // Relaxed: the cursor only hands out indices; the items are shared
    // read-only and the results come back through `join`.
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { return done };
            done.push((i, f(item)));
        }
    };
    let joined: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs).map(|_| scope.spawn(worker)).collect();
        workers.into_iter().map(|w| w.join()).collect()
    });
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for done in joined {
        for (i, r) in done.unwrap_or_else(|payload| resume_unwind(payload)) {
            results[i] = Some(r);
        }
    }
    results
        .into_iter()
        // Unreachable: every worker joined without a panic, so each
        // index was taken and filled once.
        .map(|r| r.expect("executor drained with an unfilled result slot"))
        .collect()
}

/// Runs `f` on each index in `items` and stores the output at that index
/// of `out`: [`run_ordered`] for work whose answers already have their
/// slots. With one job the outputs go straight into `out`.
///
/// # Panics
///
/// When an index is out of `out`'s bounds, and as [`run_ordered`] does.
pub fn run_into<R, F>(jobs: usize, items: Vec<usize>, out: &mut [R], f: F)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if jobs <= 1 {
        for i in items {
            out[i] = f(i);
        }
        return;
    }
    for (i, r) in run_ordered(jobs, items, |&i| (i, f(i))) {
        out[i] = r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order_at_any_parallelism() {
        let items: Vec<usize> = (0..100).collect();
        let serial = run_ordered(1, items.clone(), |&i| i * 3);
        for jobs in [2, 4, 8] {
            assert_eq!(run_ordered(jobs, items.clone(), |&i| i * 3), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = run_ordered(8, (0..250).collect(), |&i: &usize| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(count.load(Ordering::Relaxed), 250);
        assert_eq!(out, (0..250).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        assert_eq!(run_ordered(8, Vec::<usize>::new(), |&i| i), Vec::<usize>::new());
        assert_eq!(run_ordered(8, vec![7], |&i| i + 1), vec![8]);
        assert_eq!(run_ordered(0, vec![1, 2], |&i| i), vec![1, 2]);
    }

    #[test]
    fn actually_uses_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        run_ordered(4, (0..64).collect(), |&_i: &usize| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(seen.lock().unwrap().len() > 1, "work never left the calling thread");
    }

    #[test]
    fn propagates_the_first_panic() {
        let result = std::panic::catch_unwind(|| {
            run_ordered(4, (0..32).collect(), |&i: &usize| {
                assert!(i != 17, "boom at {i}");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn run_into_fills_exactly_the_listed_slots() {
        for jobs in [1, 3] {
            let mut out = vec![0usize; 10];
            run_into(jobs, vec![7, 2, 9], &mut out, |i| i * 10);
            assert_eq!(out, vec![0, 0, 20, 0, 0, 0, 0, 70, 0, 90], "jobs={jobs}");
        }
    }

    #[test]
    fn uneven_workloads_balance() {
        // One huge item up front must not serialise the rest behind it.
        let start = std::time::Instant::now();
        run_ordered(4, (0..16).collect(), |&i: &usize| {
            let ms = if i == 0 { 50 } else { 5 };
            std::thread::sleep(std::time::Duration::from_millis(ms));
        });
        // Serial would be 50 + 15*5 = 125ms; stolen-balanced is ~50-75ms.
        // Generous bound to stay robust on loaded CI machines.
        assert!(start.elapsed() < std::time::Duration::from_millis(120));
    }
}
