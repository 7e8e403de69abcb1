//! The [`Scheduler`]: cache-aware, deduplicating batch execution.
//!
//! One scheduler is shared (by reference) between the `repro` driver, the
//! artifact code and `corescope-serve`. A batch of scenarios goes
//! through three filters before any engine runs:
//!
//! 1. **batch dedup** — identical digests inside one batch collapse to a
//!    single job (sweeps love repeating their baseline point);
//! 2. **warm pass** — every job's digest is looked up in one
//!    [`ResultCache`] pass, memory then disk, before anything is
//!    dispatched. Hits are answered on the calling thread and offered to
//!    the campaign store in job order, unless every input of the job
//!    sheds;
//! 3. **executor for misses** — only the misses fan out over the
//!    work-stealing [`crate::executor`], each through **single-flight**:
//!    if another thread is *currently* running the same digest, wait for
//!    its result instead of recomputing.
//!
//! Results return in input order — so any table built from a batch is
//! byte-identical no matter the job count or cache temperature.

use crate::cache::{CacheStats, CacheTier, ComputeClaim, ResultCache};
use crate::encode::Digest;
use crate::executor;
use crate::scenario::{Scenario, ScenarioResult};
use crate::sink::StoreSink;
use corescope_machine::{Error, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A finished scenario: the result, where it came from, and the digest
/// it was looked up under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completed {
    /// The (possibly cached) engine result.
    pub result: ScenarioResult,
    /// Which tier satisfied the request.
    pub tier: CacheTier,
    /// The scenario's content digest ([`Scenario::digest`]).
    pub digest: Digest,
}

/// Outcome of one scenario in a shed-aware batch
/// ([`Scheduler::run_batch_where`]).
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOutcome {
    /// The scenario ran, or was served from a cache tier.
    Done(Completed),
    /// The shed predicate fired before the scenario was dispatched; no
    /// engine time was spent on it.
    Shed,
    /// The engine rejected or failed the scenario.
    Failed(Error),
}

/// Counters over a scheduler's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Scenarios requested (before any dedup).
    pub scenarios: usize,
    /// Actual engine executions.
    pub engine_runs: usize,
    /// Requests answered from the in-memory cache.
    pub hits_memory: usize,
    /// Requests answered from the on-disk cache.
    pub hits_disk: usize,
    /// Duplicate digests folded inside a single batch.
    pub deduped: usize,
    /// Requests that waited on another thread's identical in-flight run.
    pub in_flight_waits: usize,
    /// Requests that ended in an error.
    pub errors: usize,
    /// Disk-cache operations that failed (degraded to misses).
    pub disk_errors: usize,
    /// Damage found in the disk cache (CRC mismatch, bad magic, bad
    /// decode, a damaged or foreign pack header, an indexed frame that
    /// fails its checks) — a subset of `disk_errors`.
    pub corrupt_entries: usize,
    /// Requests shed before dispatch (deadline passed while queued).
    pub shed: usize,
    /// Campaign-store appends that failed and were dropped (counted by
    /// the [`StoreSink`], zero when no store is attached).
    pub store_errors: usize,
}

/// Cross-thread rendezvous for one in-flight digest.
#[derive(Debug, Default)]
struct Flight {
    slot: Mutex<Option<Result<ScenarioResult>>>,
    done: Condvar,
}

impl Flight {
    fn complete(&self, outcome: Result<ScenarioResult>) {
        if let Ok(mut slot) = self.slot.lock() {
            *slot = Some(outcome);
        }
        self.done.notify_all();
    }

    fn wait(&self) -> Result<ScenarioResult> {
        let mut slot = match self.slot.lock() {
            Ok(slot) => slot,
            Err(poisoned) => poisoned.into_inner(),
        };
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = match self.done.wait(slot) {
                Ok(slot) => slot,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

/// Ensures a claimed flight is always completed, even if the scenario
/// run panics — otherwise followers would wait forever.
struct FlightGuard<'a> {
    sched: &'a Scheduler,
    digest: Digest,
    flight: Arc<Flight>,
    completed: bool,
}

impl FlightGuard<'_> {
    fn complete(mut self, outcome: Result<ScenarioResult>) {
        self.completed = true;
        self.finish(outcome);
    }

    fn finish(&self, outcome: Result<ScenarioResult>) {
        if let Ok(mut flights) = self.sched.flights.lock() {
            flights.remove(&self.digest.0);
        }
        self.flight.complete(outcome);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.finish(Err(Error::InvalidSpec(
                "scenario execution panicked while other requests waited on it".to_string(),
            )));
        }
    }
}

/// The batch scheduler. Cheap to share: all methods take `&self`.
#[derive(Debug)]
pub struct Scheduler {
    jobs: usize,
    cache: ResultCache,
    store: Option<Arc<StoreSink>>,
    flights: Mutex<HashMap<u128, Arc<Flight>>>,
    scenarios: AtomicUsize,
    engine_runs: AtomicUsize,
    hits_memory: AtomicUsize,
    hits_disk: AtomicUsize,
    deduped: AtomicUsize,
    in_flight_waits: AtomicUsize,
    errors: AtomicUsize,
    shed: AtomicUsize,
}

impl Scheduler {
    /// A scheduler with `jobs` workers and an in-memory cache.
    pub fn new(jobs: usize) -> Self {
        Self::with_cache(jobs, ResultCache::in_memory())
    }

    /// A scheduler with `jobs` workers over an explicit cache
    /// (typically [`ResultCache::on_disk`]).
    pub fn with_cache(jobs: usize, cache: ResultCache) -> Self {
        Self {
            jobs: jobs.max(1),
            cache,
            store: None,
            flights: Mutex::new(HashMap::new()),
            scenarios: AtomicUsize::new(0),
            engine_runs: AtomicUsize::new(0),
            hits_memory: AtomicUsize::new(0),
            hits_disk: AtomicUsize::new(0),
            deduped: AtomicUsize::new(0),
            in_flight_waits: AtomicUsize::new(0),
            errors: AtomicUsize::new(0),
            shed: AtomicUsize::new(0),
        }
    }

    /// Attaches a crash-safe campaign store: every *fresh* engine result
    /// (cache hits are already on record from the run that produced
    /// them) is appended as a columnar row, flushed at batch
    /// boundaries. The sink is shared, so a campaign driver can keep a
    /// handle for resume checks and aggregation.
    pub fn with_store(mut self, sink: Arc<StoreSink>) -> Self {
        self.store = Some(sink);
        self
    }

    /// The attached campaign-store sink, if any.
    pub fn store(&self) -> Option<&Arc<StoreSink>> {
        self.store.as_ref()
    }

    /// A snapshot of the underlying result cache's counters (the sched
    /// summary folds in only the headline numbers).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs a batch, returning one outcome per input scenario, in input
    /// order. Identical scenarios (same digest) run once.
    pub fn run_batch(&self, scenarios: &[Scenario]) -> Vec<Result<Completed>> {
        self.run_batch_where(scenarios, |_| false)
            .into_iter()
            .map(|outcome| match outcome {
                BatchOutcome::Done(completed) => Ok(completed),
                BatchOutcome::Failed(e) => Err(e),
                BatchOutcome::Shed => unreachable!("constant-false predicate never sheds"),
            })
            .collect()
    }

    /// Like [`Scheduler::run_batch`], but each scenario's dispatch first
    /// consults `shed(input_index)`: when it returns `true` the scenario
    /// is dropped with [`BatchOutcome::Shed`] instead of running. This is
    /// how `serve` sheds work whose deadline passed while it sat in the
    /// queue — the predicate is evaluated at dispatch time, so a slow
    /// batch ahead of a request converts into a typed shed, not a stall.
    ///
    /// Duplicate digests still collapse to one job; the job runs unless
    /// *every* input folded into it sheds (a computed result is free to
    /// deliver even to inputs whose own deadline has since passed).
    ///
    /// Cache hits are answered before any miss is dispatched, and the
    /// predicate is consulted for a hit's inputs then; a miss's inputs
    /// are consulted when the executor picks the miss up. Every job is
    /// looked up, shed or not, so the cache's own counters
    /// ([`Scheduler::cache_stats`]) include a hit whose inputs all shed,
    /// while [`SchedStats`] counts only the hits delivered.
    pub fn run_batch_where(
        &self,
        scenarios: &[Scenario],
        shed: impl Fn(usize) -> bool + Sync,
    ) -> Vec<BatchOutcome> {
        self.scenarios.fetch_add(scenarios.len(), Ordering::Relaxed);
        let digests = Scenario::digests(scenarios);
        let jobs = BatchJobs::new(&digests);
        self.deduped.fetch_add(scenarios.len() - jobs.len(), Ordering::Relaxed);
        let lead = |job: usize| jobs.members(job)[0];
        let all_shed = |job: usize| jobs.members(job).iter().all(|&i| shed(i));

        let job_digests: Vec<Digest> = (0..jobs.len()).map(|job| digests[lead(job)]).collect();
        // Freed before the outcomes are allocated: a long warm batch's
        // peak memory is its per-input vectors.
        drop(digests);

        // The warm pass: every job's digest looked up at once.
        let mut found = vec![None; jobs.len()];
        self.cache.lookup(&job_digests, &mut found);

        // `None` = shed before dispatch, or a miss not yet run.
        let mut unique_outcomes: Vec<Option<Result<Completed>>> = vec![None; jobs.len()];
        let mut misses = Vec::new();
        for (job, hit) in found.into_iter().enumerate() {
            match hit {
                None => misses.push(job),
                Some(_) if all_shed(job) => {}
                Some((result, tier)) => {
                    let digest = job_digests[job];
                    unique_outcomes[job] = Some(Ok(Completed { result, tier, digest }));
                }
            }
        }
        self.answered(unique_outcomes.iter().enumerate().filter_map(
            |(job, outcome)| match outcome {
                Some(Ok(done)) => Some((&scenarios[lead(job)], done)),
                _ => None,
            },
        ));

        executor::run_into(self.jobs, misses, &mut unique_outcomes, |job| {
            let miss = || self.run_miss(&scenarios[lead(job)], job_digests[job]);
            (!all_shed(job)).then(miss)
        });

        // Batch boundary: commit buffered store rows so a crash between
        // batches loses at most the batch in progress.
        if let Some(sink) = &self.store {
            sink.flush();
        }

        (0..scenarios.len())
            .map(|i| match &unique_outcomes[jobs.owner_of(i)] {
                None => {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    BatchOutcome::Shed
                }
                Some(Ok(completed)) => {
                    let mut completed = *completed;
                    // Every input after the first with a given digest was
                    // folded into that first one's run.
                    if !jobs.is_first(i) {
                        completed.tier = CacheTier::InFlight;
                    }
                    BatchOutcome::Done(completed)
                }
                Some(Err(e)) => {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    BatchOutcome::Failed(e.clone())
                }
            })
            .collect()
    }

    /// Runs one scenario through cache + single-flight: a batch of one.
    pub fn run_one(&self, scenario: &Scenario) -> Result<Completed> {
        let mut outcomes = self.run_batch(std::slice::from_ref(scenario));
        outcomes.pop().expect("a batch of one has one outcome")
    }

    /// Counts cache hits by tier and offers them to the campaign store in
    /// order, under one lock of the store. The sink drops digests already
    /// committed, so a hit during a *resumed* campaign still lands the
    /// row the killed run never got to flush.
    fn answered<'a>(&self, hits: impl IntoIterator<Item = (&'a Scenario, &'a Completed)>) {
        let (mut memory, mut disk) = (0, 0);
        let counted = hits.into_iter().inspect(|(_, done)| match done.tier {
            CacheTier::Memory => memory += 1,
            _ => disk += 1,
        });
        match &self.store {
            Some(sink) => sink.record_all(counted.map(|(s, done)| (s, done.digest, &done.result))),
            None => counted.for_each(drop),
        }
        self.hits_memory.fetch_add(memory, Ordering::Relaxed);
        self.hits_disk.fetch_add(disk, Ordering::Relaxed);
    }

    /// [`Scheduler::compute`] plus the campaign-store commit point: a
    /// successful outcome is offered to the sink, which drops digests
    /// already committed, so warm reruns append nothing. A calibration
    /// point outside its bounds builds no machine, so it fails here with
    /// its bounds error, before any flight, disk claim or engine run.
    fn run_miss(&self, scenario: &Scenario, digest: Digest) -> Result<Completed> {
        scenario.check_params()?;
        let outcome = self.compute(scenario, digest);
        if let (Some(sink), Ok(done)) = (&self.store, &outcome) {
            sink.record(scenario, digest, &done.result);
        }
        outcome
    }

    /// Runs a scenario the warm pass missed, through single-flight within
    /// this process and [`ResultCache::claim_compute`] across processes.
    fn compute(&self, scenario: &Scenario, digest: Digest) -> Result<Completed> {
        // Claim the flight or join an existing one.
        let claim = {
            let mut flights = match self.flights.lock() {
                Ok(flights) => flights,
                Err(poisoned) => poisoned.into_inner(),
            };
            match flights.get(&digest.0) {
                Some(flight) => Err(Arc::clone(flight)),
                None => {
                    let flight = Arc::new(Flight::default());
                    flights.insert(digest.0, Arc::clone(&flight));
                    Ok(flight)
                }
            }
        };

        match claim {
            Ok(flight) => {
                let guard = FlightGuard { sched: self, digest, flight, completed: false };
                // Another thread's flight for this digest may have
                // completed between the warm pass and our claim.
                if let Some(result) = self.cache.recheck_memory(digest) {
                    self.hits_memory.fetch_add(1, Ordering::Relaxed);
                    guard.complete(Ok(result));
                    return Ok(Completed { result, tier: CacheTier::Memory, digest });
                }
                // Single-flight across *processes* too: another scheduler
                // sharing this disk cache may be computing this digest
                // right now — wait for its entry instead of duplicating
                // the run.
                match self.cache.claim_compute(digest) {
                    ComputeClaim::Published(result) => {
                        self.hits_disk.fetch_add(1, Ordering::Relaxed);
                        guard.complete(Ok(result));
                        Ok(Completed { result, tier: CacheTier::Disk, digest })
                    }
                    ComputeClaim::Owner(lock) => {
                        self.engine_runs.fetch_add(1, Ordering::Relaxed);
                        let outcome = scenario.run();
                        if let Ok(result) = &outcome {
                            self.cache.put(digest, result);
                        }
                        drop(lock); // release only after the entry is published
                        guard.complete(outcome.clone());
                        outcome.map(|result| Completed { result, tier: CacheTier::Miss, digest })
                    }
                }
            }
            Err(flight) => {
                self.in_flight_waits.fetch_add(1, Ordering::Relaxed);
                flight.wait().map(|result| Completed { result, tier: CacheTier::InFlight, digest })
            }
        }
    }

    /// A snapshot of the counters (plus the cache's disk-error and
    /// corruption counts, and the store sink's append errors).
    pub fn stats(&self) -> SchedStats {
        let cache = self.cache.stats();
        SchedStats {
            scenarios: self.scenarios.load(Ordering::Relaxed),
            engine_runs: self.engine_runs.load(Ordering::Relaxed),
            hits_memory: self.hits_memory.load(Ordering::Relaxed),
            hits_disk: self.hits_disk.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
            in_flight_waits: self.in_flight_waits.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            disk_errors: cache.disk_errors,
            corrupt_entries: cache.corrupt_entries,
            shed: self.shed.load(Ordering::Relaxed),
            store_errors: self.store.as_ref().map_or(0, |sink| sink.append_errors()),
        }
    }

    /// One-line human summary, printed by `repro` and asserted on by CI's
    /// warm-cache check.
    pub fn summary(&self) -> String {
        let s = self.stats();
        let mut line = format!(
            "sched: scenarios {}, engine runs {}, cache hits {} (memory {}, disk {}), \
             deduped {}, in-flight waits {}, errors {}, shed {}, disk errors {}, \
             corrupt entries {}, evicted {}",
            s.scenarios,
            s.engine_runs,
            s.hits_memory + s.hits_disk,
            s.hits_memory,
            s.hits_disk,
            s.deduped,
            s.in_flight_waits,
            s.errors,
            s.shed,
            s.disk_errors,
            s.corrupt_entries,
            self.cache.stats().evicted,
        );
        if self.store.is_some() {
            line.push_str(&format!(", store errors {}", s.store_errors));
        }
        line
    }
}

/// A batch's inputs grouped by digest, built in O(n): one job per
/// distinct digest, numbered in order of first appearance. Each job's
/// member inputs sit in compressed-sparse-row form: job `k` owns
/// `order[start[k]..start[k + 1]]`, in ascending input order.
#[derive(Debug)]
struct BatchJobs {
    owner_of: Vec<usize>,
    start: Vec<usize>,
    order: Vec<usize>,
}

impl BatchJobs {
    fn new(digests: &[Digest]) -> Self {
        let mut job_of_digest: HashMap<u128, usize> = HashMap::new();
        let owner_of: Vec<usize> = digests
            .iter()
            .map(|d| {
                let next = job_of_digest.len();
                *job_of_digest.entry(d.0).or_insert(next)
            })
            .collect();
        // Counting sort of inputs by job: count, prefix-sum, then place
        // inputs in ascending order so each job's first member leads.
        let mut start = vec![0usize; job_of_digest.len() + 1];
        for &job in &owner_of {
            start[job + 1] += 1;
        }
        for k in 0..job_of_digest.len() {
            start[k + 1] += start[k];
        }
        let mut next = start.clone();
        let mut order = vec![0usize; owner_of.len()];
        for (i, &job) in owner_of.iter().enumerate() {
            order[next[job]] = i;
            next[job] += 1;
        }
        Self { owner_of, start, order }
    }

    /// Number of distinct digests.
    fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// The job input `i` folds into.
    fn owner_of(&self, i: usize) -> usize {
        self.owner_of[i]
    }

    /// Job `job`'s inputs, ascending; the first one runs the job.
    fn members(&self, job: usize) -> &[usize] {
        &self.order[self.start[job]..self.start[job + 1]]
    }

    /// Whether input `i` is its job's first member (later members are
    /// folded duplicates).
    fn is_first(&self, i: usize) -> bool {
        self.members(self.owner_of[i])[0] == i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{System, Workload};

    fn bsp(steps: usize) -> Scenario {
        Scenario::new(
            System::Dmz,
            2,
            Workload::Bsp { steps, flops_per_step: 1e6, bytes_per_step: 1e6, sync_bytes: 8.0 },
        )
    }

    #[test]
    fn duplicates_inside_a_batch_run_once() {
        let sched = Scheduler::new(2);
        let batch = vec![bsp(3), bsp(3), bsp(3)];
        let out = sched.run_batch(&batch);
        assert_eq!(out.len(), 3);
        let first = out[0].as_ref().unwrap();
        assert_eq!(first.tier, CacheTier::Miss);
        for dup in &out[1..] {
            let dup = dup.as_ref().unwrap();
            assert_eq!(dup.result, first.result);
            assert_eq!(dup.tier, CacheTier::InFlight);
        }
        let stats = sched.stats();
        assert_eq!(stats.engine_runs, 1);
        assert_eq!(stats.deduped, 2);
    }

    #[test]
    fn warm_batches_come_from_cache_with_identical_results() {
        let sched = Scheduler::new(4);
        let batch = vec![bsp(2), bsp(4), bsp(6)];
        let cold: Vec<_> = sched.run_batch(&batch).into_iter().map(|r| r.unwrap()).collect();
        let warm: Vec<_> = sched.run_batch(&batch).into_iter().map(|r| r.unwrap()).collect();
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.result, w.result);
            assert_eq!(
                c.result.makespan.to_bits(),
                w.result.makespan.to_bits(),
                "cached makespan must be bit-identical"
            );
            assert_eq!(w.tier, CacheTier::Memory);
        }
        assert_eq!(sched.stats().engine_runs, 3);
        assert_eq!(sched.stats().hits_memory, 3);
    }

    #[test]
    fn jobs_do_not_change_results_or_order() {
        let batch: Vec<Scenario> = (1..=12).map(bsp).collect();
        let serial: Vec<_> =
            Scheduler::new(1).run_batch(&batch).into_iter().map(|r| r.unwrap().result).collect();
        let parallel: Vec<_> =
            Scheduler::new(8).run_batch(&batch).into_iter().map(|r| r.unwrap().result).collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn errors_come_back_in_place_without_poisoning_the_batch() {
        let sched = Scheduler::new(2);
        let bad = Scenario::new(System::Dmz, 99, bsp(1).workload); // cannot place 99 ranks
        let batch = vec![bsp(2), bad, bsp(3)];
        let out = sched.run_batch(&batch);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
        assert!(out[2].is_ok());
        assert_eq!(sched.stats().errors, 1);
    }

    #[test]
    fn a_point_with_no_machine_fails_typed_without_an_engine_run() {
        let mut params = corescope_machine::CalibParams::paper_2006();
        params.dram_bandwidth = 0.0;
        let bad = bsp(2).with_params(params);
        let is_bounds_error = |e: &Error| matches!(e, Error::InvalidSpec(m) if m.contains("outside its documented bounds"));

        let sched = Scheduler::new(2);
        let out = sched.run_batch(&[bsp(2), bad.clone(), bsp(3)]);
        assert!(out[0].is_ok() && out[2].is_ok());
        assert!(is_bounds_error(out[1].as_ref().unwrap_err()), "{:?}", out[1]);
        assert_eq!(sched.stats().engine_runs, 2);
        assert_eq!(sched.stats().errors, 1);

        let one = Scheduler::new(1);
        assert!(is_bounds_error(&one.run_one(&bad).unwrap_err()));
        assert_eq!(one.stats().engine_runs, 0);
        assert_eq!(one.stats().errors, 1);
    }

    #[test]
    fn concurrent_identical_requests_single_flight() {
        let sched = std::sync::Arc::new(Scheduler::new(1));
        let scenario = bsp(5);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let sched = std::sync::Arc::clone(&sched);
                let scenario = scenario.clone();
                scope.spawn(move || sched.run_one(&scenario).unwrap());
            }
        });
        let stats = sched.stats();
        assert_eq!(stats.engine_runs, 1, "{stats:?}");
        assert_eq!(stats.scenarios, 4);
        // The other three were memory hits or in-flight waits.
        assert_eq!(stats.hits_memory + stats.in_flight_waits, 3, "{stats:?}");
    }

    #[test]
    fn run_batch_where_sheds_before_dispatch() {
        let sched = Scheduler::new(1);
        let batch = vec![bsp(2), bsp(4), bsp(6)];
        let out = sched.run_batch_where(&batch, |i| i == 1);
        assert!(matches!(out[0], BatchOutcome::Done(_)));
        assert_eq!(out[1], BatchOutcome::Shed);
        assert!(matches!(out[2], BatchOutcome::Done(_)));
        let stats = sched.stats();
        assert_eq!(stats.engine_runs, 2, "{stats:?}");
        assert_eq!(stats.shed, 1);
        assert!(sched.summary().contains("shed 1"), "{}", sched.summary());
    }

    #[test]
    fn shed_duplicates_still_get_a_result_when_any_twin_runs() {
        let sched = Scheduler::new(1);
        let batch = vec![bsp(3), bsp(3)];
        // Input 0 sheds, but its twin still wants the job: the result is
        // computed once and delivered to both — a finished result costs
        // nothing to hand to an expired request.
        let out = sched.run_batch_where(&batch, |i| i == 0);
        assert!(matches!(out[0], BatchOutcome::Done(_)));
        assert!(matches!(out[1], BatchOutcome::Done(_)));
        assert_eq!(sched.stats().engine_runs, 1);
        assert_eq!(sched.stats().shed, 0);
    }

    #[test]
    fn shedding_every_twin_skips_the_job_entirely() {
        let sched = Scheduler::new(2);
        let batch = vec![bsp(3), bsp(3), bsp(5)];
        let out = sched.run_batch_where(&batch, |i| i <= 1);
        assert_eq!(out[0], BatchOutcome::Shed);
        assert_eq!(out[1], BatchOutcome::Shed);
        assert!(matches!(out[2], BatchOutcome::Done(_)));
        let stats = sched.stats();
        assert_eq!(stats.engine_runs, 1, "{stats:?}");
        assert_eq!(stats.shed, 2);
    }

    #[test]
    fn attached_store_records_unique_rows_and_skips_committed_on_resume() {
        let dir = std::env::temp_dir()
            .join(format!("corescope-sched-store-{:?}", std::thread::current().id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = Arc::new(crate::sink::StoreSink::open(&dir).unwrap());
        let sched = Scheduler::new(2).with_store(Arc::clone(&sink));
        sched.run_batch(&[bsp(2), bsp(4), bsp(2)]);
        assert_eq!(sink.rows_recorded(), 2, "one row per unique digest");
        assert_eq!(sink.rows().unwrap().len(), 2);
        assert!(sched.summary().ends_with("store errors 0"), "{}", sched.summary());
        // Warm rerun: cache hits are re-offered but already committed.
        sched.run_batch(&[bsp(2), bsp(4)]);
        assert_eq!(sink.rows_recorded(), 2);
        drop(sched);
        drop(sink);
        // A fresh scheduler over the same store resumes: its cache is
        // cold so the engine reruns, but committed digests append
        // nothing — only the genuinely new scenario lands a row.
        let sink = Arc::new(crate::sink::StoreSink::open(&dir).unwrap());
        let sched = Scheduler::new(1).with_store(Arc::clone(&sink));
        sched.run_batch(&[bsp(2), bsp(6)]);
        assert_eq!(sink.rows_recorded(), 1, "{}", sink.summary());
        assert_eq!(sink.rows().unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checks `jobs` against `digests` in O(n): jobs are numbered by
    /// first appearance, members are ascending and share one digest,
    /// and every input appears in exactly its owner's member list.
    fn assert_grouping(digests: &[Digest], jobs: &BatchJobs) {
        let mut seen = 0usize;
        let mut job_digest: Vec<Digest> = Vec::new();
        for (i, d) in digests.iter().enumerate() {
            let job = jobs.owner_of(i);
            if job == job_digest.len() {
                job_digest.push(*d);
                assert!(jobs.is_first(i), "input {i} opens job {job}");
            } else {
                assert!(job < job_digest.len(), "job {job} numbered out of order");
                assert!(!jobs.is_first(i), "input {i} is a twin of job {job}");
            }
            assert_eq!(job_digest[job], *d, "input {i} folded into the wrong job");
        }
        assert_eq!(jobs.len(), job_digest.len());
        for job in 0..jobs.len() {
            let members = jobs.members(job);
            assert!(members.windows(2).all(|w| w[0] < w[1]), "job {job} members unsorted");
            assert!(members.iter().all(|&i| jobs.owner_of(i) == job));
            seen += members.len();
        }
        assert_eq!(seen, digests.len());
    }

    /// SplitMix64: a seeded, dependency-free stream for synthetic digests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn synthetic(k: u64) -> Digest {
        let mut state = k;
        Digest(((splitmix(&mut state) as u128) << 64) | splitmix(&mut state) as u128)
    }

    #[test]
    fn batch_jobs_scale_linearly_to_a_million_inputs() {
        const N: usize = 1_000_000;
        // All distinct: a million one-member jobs.
        let distinct: Vec<Digest> = (0..N as u64).map(synthetic).collect();
        let jobs = BatchJobs::new(&distinct);
        assert_eq!(jobs.len(), N);
        assert_grouping(&distinct, &jobs);

        // All equal: one job holding every input.
        let equal = vec![synthetic(7); N];
        let jobs = BatchJobs::new(&equal);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs.members(0).len(), N);
        assert_grouping(&equal, &jobs);

        // 10^5 distinct digests, each repeated 10 times, shuffled.
        let mut repeated: Vec<Digest> = (0..N as u64).map(|i| synthetic(i % 100_000)).collect();
        let mut state = 2006;
        for i in (1..repeated.len()).rev() {
            repeated.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
        }
        let jobs = BatchJobs::new(&repeated);
        assert_eq!(jobs.len(), 100_000);
        assert!((0..jobs.len()).all(|job| jobs.members(job).len() == 10));
        assert_grouping(&repeated, &jobs);
    }

    proptest::proptest! {
        /// The linear grouping agrees with the quadratic definition:
        /// owner = rank of the digest among first appearances, twin = an
        /// earlier input with the same digest.
        #[test]
        fn batch_jobs_match_the_naive_definition(
            raw in proptest::collection::vec(0u8..6, 0..48),
        ) {
            let digests: Vec<Digest> = raw.iter().map(|&b| Digest(b as u128)).collect();
            let jobs = BatchJobs::new(&digests);
            let mut firsts: Vec<Digest> = Vec::new();
            for (i, d) in digests.iter().enumerate() {
                let earlier = digests[..i].contains(d);
                if !earlier {
                    firsts.push(*d);
                }
                let owner = firsts.iter().position(|f| f == d).unwrap();
                proptest::prop_assert_eq!(jobs.owner_of(i), owner);
                proptest::prop_assert_eq!(jobs.is_first(i), !earlier);
            }
            proptest::prop_assert_eq!(jobs.len(), firsts.len());
            for (job, first) in firsts.iter().enumerate() {
                let naive: Vec<usize> = (0..digests.len()).filter(|&i| digests[i] == *first).collect();
                proptest::prop_assert_eq!(jobs.members(job), naive.as_slice());
            }
        }
    }

    #[test]
    fn shed_predicate_is_consulted_at_most_once_per_input() {
        use std::sync::atomic::AtomicUsize;
        let sched = Scheduler::new(2);
        // Jobs: {0, 1} all shed, {2, 3} half shed, {4} never shed.
        let batch = vec![bsp(3), bsp(3), bsp(5), bsp(5), bsp(7)];
        let calls: Vec<AtomicUsize> = batch.iter().map(|_| AtomicUsize::new(0)).collect();
        let out = sched.run_batch_where(&batch, |i| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            i <= 2
        });
        for (i, c) in calls.iter().enumerate() {
            assert!(c.load(Ordering::Relaxed) <= 1, "input {i} consulted {c:?} times");
        }
        assert_eq!(out[0], BatchOutcome::Shed);
        assert_eq!(out[1], BatchOutcome::Shed);
        let (BatchOutcome::Done(a), BatchOutcome::Done(b)) = (&out[2], &out[3]) else {
            panic!("a job with one live twin runs: {out:?}");
        };
        assert_eq!((a.tier, b.tier), (CacheTier::Miss, CacheTier::InFlight));
        assert_eq!(a.digest, batch[2].digest());
        assert!(matches!(out[4], BatchOutcome::Done(_)));
        let stats = sched.stats();
        assert_eq!((stats.engine_runs, stats.shed, stats.deduped), (2, 2, 2), "{stats:?}");
    }

    #[test]
    fn cache_hits_shed_only_when_every_input_sheds() {
        let root = std::env::temp_dir()
            .join(format!("corescope-sched-shed-hits-{:?}", std::thread::current().id()));
        let _ = std::fs::remove_dir_all(&root);
        let warm = Scheduler::with_cache(1, ResultCache::on_disk(root.join("cache")));
        assert!(warm.run_batch(&[bsp(2), bsp(4)]).iter().all(Result::is_ok));
        let sink = Arc::new(crate::sink::StoreSink::open(root.join("store")).unwrap());
        let sched = Scheduler::with_cache(1, ResultCache::on_disk(root.join("cache")))
            .with_store(Arc::clone(&sink));
        // Disk hits: bsp(2) with its one input shed, bsp(4) with one of
        // its two inputs live. A miss, bsp(6), shed at dispatch.
        let batch = vec![bsp(2), bsp(4), bsp(4), bsp(6)];
        let out = sched.run_batch_where(&batch, |i| i != 2);
        assert_eq!(out[0], BatchOutcome::Shed);
        let (BatchOutcome::Done(a), BatchOutcome::Done(b)) = (&out[1], &out[2]) else {
            panic!("a hit with one live input is delivered to both: {out:?}");
        };
        assert_eq!((a.tier, b.tier), (CacheTier::Disk, CacheTier::InFlight));
        assert_eq!(a.result, b.result);
        assert_eq!(out[3], BatchOutcome::Shed);
        let stats = sched.stats();
        assert_eq!((stats.engine_runs, stats.hits_disk, stats.shed), (0, 1, 2), "{stats:?}");
        // The cache counts every job's lookup, the shed hit's and the
        // miss's included.
        let cache = sched.cache_stats();
        assert_eq!(
            cache,
            crate::cache::CacheStats { hits_disk: 2, misses: 1, ..Default::default() }
        );
        assert_eq!(sink.rows_recorded(), 1, "only the delivered hit is offered to the store");
        drop(sched);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn completed_carries_the_scenario_digest() {
        let sched = Scheduler::new(1);
        let batch = vec![bsp(2), bsp(4), bsp(2)];
        for (scenario, done) in batch.iter().zip(sched.run_batch(&batch)) {
            assert_eq!(done.unwrap().digest, scenario.digest());
        }
        assert_eq!(sched.run_one(&batch[1]).unwrap().digest, batch[1].digest());
    }

    #[test]
    fn summary_mentions_engine_runs() {
        let sched = Scheduler::new(1);
        sched.run_batch(&[bsp(2)]);
        let line = sched.summary();
        assert!(line.contains("engine runs 1"), "{line}");
        assert!(line.starts_with("sched: scenarios 1"), "{line}");
        assert!(line.ends_with("evicted 0"), "{line}");
    }
}
