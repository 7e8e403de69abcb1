//! A work-stealing executor built from std primitives only.
//!
//! Layout: one global injector plus one deque per worker. A worker pops
//! its own deque LIFO (cache-warm), refills from the injector FIFO, and
//! steals the *front* of a sibling's deque when both are dry — the
//! classic injector/deque arrangement, without `unsafe` or vendored
//! lock-free code: simulation jobs run for milliseconds to seconds, so a
//! mutex around each deque is noise.
//!
//! Determinism contract: `run_ordered` returns results in **input
//! order**, whatever interleaving the workers ran. Combined with the
//! engine's own determinism this is what lets `repro --jobs 8` produce
//! byte-identical tables to `--jobs 1`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
/// caller's thread after all workers have drained.
pub fn run_ordered<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(&f).collect();
    }

    // Work items live in slots so each is taken (and run) exactly once,
    // no matter which deque its index ends up in.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let injector: Mutex<VecDeque<usize>> = Mutex::new((0..slots.len()).collect());
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    let results: Vec<Mutex<Option<R>>> = (0..slots.len()).map(|_| Mutex::new(None)).collect();
    let panic_box: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let in_flight = AtomicUsize::new(slots.len());

    /// How many injector items a worker grabs at once: enough to keep its
    /// own deque busy, few enough that late stealers still find work.
    const REFILL: usize = 4;

    std::thread::scope(|scope| {
        for me in 0..jobs {
            let slots = &slots;
            let injector = &injector;
            let deques = &deques;
            let results = &results;
            let panic_box = &panic_box;
            let in_flight = &in_flight;
            let f = &f;
            scope.spawn(move || {
                let mut dry_scans = 0;
                loop {
                    if in_flight.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    // 1. Own deque, newest first.
                    let mut idx = deques[me].lock().map_or(None, |mut d| d.pop_back());
                    // 2. Refill a batch from the injector.
                    if idx.is_none() {
                        if let Ok(mut inj) = injector.lock() {
                            idx = inj.pop_front();
                            if idx.is_some() {
                                let batch: Vec<usize> =
                                    (1..REFILL).map_while(|_| inj.pop_front()).collect();
                                drop(inj);
                                if let Ok(mut own) = deques[me].lock() {
                                    own.extend(batch);
                                }
                            }
                        }
                    }
                    // 3. Steal the oldest entry from a sibling.
                    if idx.is_none() {
                        for victim in (0..jobs).filter(|&v| v != me) {
                            idx = deques[victim].lock().map_or(None, |mut d| d.pop_front());
                            if idx.is_some() {
                                break;
                            }
                        }
                    }
                    let Some(idx) = idx else {
                        if in_flight.load(Ordering::Acquire) == 0 {
                            return;
                        }
                        // Every queue is dry. Finished items never spawn
                        // new work, so what remains is either executing
                        // on a sibling or mid-refill into a sibling's
                        // deque; rescan a couple of times to catch the
                        // latter, then retire — the batch's owner drains
                        // its own deque, and spinning here would only
                        // steal CPU from the workers still computing.
                        dry_scans += 1;
                        if dry_scans > 2 {
                            return;
                        }
                        std::thread::yield_now();
                        continue;
                    };
                    dry_scans = 0;
                    let item = slots[idx].lock().ok().and_then(|mut s| s.take());
                    if let Some(item) = item {
                        match catch_unwind(AssertUnwindSafe(|| f(&item))) {
                            Ok(r) => {
                                if let Ok(mut slot) = results[idx].lock() {
                                    *slot = Some(r);
                                }
                            }
                            Err(payload) => {
                                if let Ok(mut pb) = panic_box.lock() {
                                    pb.get_or_insert(payload);
                                }
                            }
                        }
                        in_flight.fetch_sub(1, Ordering::Release);
                    }
                }
            });
        }
    });

    if let Some(payload) = panic_box.into_inner().ok().flatten() {
        resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .ok()
                .flatten()
                // Unreachable: in_flight hit zero without a stored panic,
                // so every slot was filled.
                .expect("executor drained with an unfilled result slot")
        })
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
