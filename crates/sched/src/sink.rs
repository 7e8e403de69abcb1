//! [`StoreSink`]: the scheduler's bridge to the crash-safe campaign
//! store ([`corescope_store::Store`]).
//!
//! The cache and the store answer different questions in one on-disk
//! format. The cache (`results/.cache`) is an *accelerator*: losing it
//! costs recompute time, nothing else, so each writer appends its entries
//! to a pack of its own without fsync, and a reader trusts only frames
//! that pass their CRC, with no global consistency story. The store is
//! the *campaign record*: it must survive `kill -9` at any byte, resume a
//! half-finished sweep without rerunning committed scenarios, and feed
//! aggregation after the fact.
//! The sink keeps the scheduler's failure policy consistent across both:
//! store append errors are counted and reported, never propagated — a
//! full disk degrades the campaign record, not the sweep.
//!
//! Rows are recorded at exactly one place (the scheduler's engine-run
//! commit point) and deduplicated twice: by the store itself (committed
//! digests survive reopen) and upstream by the scheduler's cache, so a
//! warm rerun appends nothing.

use crate::encode::Digest;
use crate::scenario::{mpi_key, Scenario, ScenarioResult};
use corescope_store::frame::Scalars;
use corescope_store::{Options, Row, Store, StoreError};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Converts a finished scenario into the store's columnar row form.
/// The axis strings reuse the scenario's stable lowercase keys — the
/// same identifiers the CSV artifacts print — so aggregation over the
/// store groups exactly like the paper tables do.
pub fn row_of(scenario: &Scenario, digest: Digest, result: &ScenarioResult) -> Row {
    Row {
        system: scenario.system.key().into(),
        fidelity: scenario.fidelity.key().into(),
        placement: scenario.placement.key().into(),
        mpi: mpi_key(scenario.mpi).into(),
        lock: scenario.lock.key().into(),
        workload: scenario.workload.kind().into(),
        nranks: scenario.nranks as u32,
        ..result_row(digest, result)
    }
}

/// The digest and the result scalars as a row with empty axis strings:
/// the one row a disk cache entry holds.
pub(crate) fn result_row(digest: Digest, result: &ScenarioResult) -> Row {
    Row {
        digest: digest.0,
        makespan: result.makespan,
        events: result.events as u64,
        faults_applied: result.faults_applied as u64,
        checkpoints_taken: result.checkpoints_taken as u64,
        recoveries: result.recoveries as u64,
        retries: result.retries as u64,
        ..Row::default()
    }
}

/// The result scalars a row carries; the inverse of [`result_row`].
pub(crate) fn row_result(row: &Scalars) -> ScenarioResult {
    ScenarioResult {
        makespan: row.makespan,
        events: row.events as usize,
        faults_applied: row.faults_applied as usize,
        checkpoints_taken: row.checkpoints_taken as usize,
        recoveries: row.recoveries as usize,
        retries: row.retries as usize,
    }
}

/// A thread-safe, error-absorbing wrapper around one writable
/// [`Store`]. Shared by reference between scheduler workers.
#[derive(Debug)]
pub struct StoreSink {
    store: Mutex<Store>,
    append_errors: AtomicUsize,
    rows_recorded: AtomicUsize,
    /// Rows already committed when the store was opened — fixed at
    /// open so mid-campaign summaries don't mix it up with counters
    /// that advance at different times (appends vs. flushes).
    resumed_rows: usize,
}

impl StoreSink {
    /// Opens (or creates, or recovers) the store at `dir` for writing,
    /// stamped with [`crate::ENGINE_TAG`]. Recovery findings are in
    /// [`StoreSink::recovery_summary`].
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from [`Store::open`] — an unwritable
    /// directory, a live writer's lock, an engine-tag mismatch, or
    /// unrepairable corruption. Unlike appends, *opening* fails loudly:
    /// a campaign pointed at a bad `--store` should stop before any
    /// engine time is spent.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(dir, Options::default())
    }

    /// [`StoreSink::open`] with explicit store options (tests shrink the
    /// segment roll threshold).
    pub fn open_with(dir: impl AsRef<Path>, options: Options) -> Result<Self, StoreError> {
        let store = Store::open_with(dir.as_ref(), crate::ENGINE_TAG, options)?;
        let resumed_rows = store.recovery().rows;
        Ok(Self {
            store: Mutex::new(store),
            append_errors: AtomicUsize::new(0),
            rows_recorded: AtomicUsize::new(0),
            resumed_rows,
        })
    }

    /// True when `digest` is already committed in the store — the
    /// resume test: a committed scenario need not run again for the
    /// campaign record's sake.
    pub fn contains(&self, digest: Digest) -> bool {
        match self.store.lock() {
            Ok(store) => store.contains(digest.0),
            Err(_) => false,
        }
    }

    /// Records one finished scenario. Append failures (disk full, I/O
    /// error) are counted, not propagated. A digest already present is
    /// skipped before its row is built: the resume dedup.
    pub fn record(&self, scenario: &Scenario, digest: Digest, result: &ScenarioResult) {
        self.record_all([(scenario, digest, result)]);
    }

    /// [`StoreSink::record`] for each finished scenario in order, under
    /// one lock of the store.
    pub(crate) fn record_all<'a>(
        &self,
        finished: impl IntoIterator<Item = (&'a Scenario, Digest, &'a ScenarioResult)>,
    ) {
        let Ok(mut store) = self.store.lock() else {
            self.append_errors.fetch_add(finished.into_iter().count(), Ordering::Relaxed);
            return;
        };
        let (mut recorded, mut errors) = (0, 0);
        for (scenario, digest, result) in finished {
            if store.contains(digest.0) {
                continue;
            }
            match store.append(row_of(scenario, digest, result)) {
                Ok(true) => recorded += 1,
                Ok(false) => {}
                Err(_) => errors += 1,
            }
        }
        self.rows_recorded.fetch_add(recorded, Ordering::Relaxed);
        self.append_errors.fetch_add(errors, Ordering::Relaxed);
    }

    /// Flushes buffered rows to a committed frame. Called by the
    /// scheduler at batch boundaries so a crash between batches loses at
    /// most the final partial buffer. Errors are counted, not
    /// propagated.
    pub fn flush(&self) {
        if let Ok(mut store) = self.store.lock() {
            if store.flush().is_err() {
                self.append_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// All committed rows, deduplicated last-wins, in on-disk order.
    ///
    /// # Errors
    ///
    /// Propagates scan-level [`StoreError`] (unreadable segment file).
    pub fn rows(&self) -> Result<Vec<Row>, StoreError> {
        match self.store.lock() {
            Ok(store) => store.rows(),
            Err(poisoned) => poisoned.into_inner().rows(),
        }
    }

    /// Appends that failed and were dropped from the campaign record.
    pub fn append_errors(&self) -> usize {
        self.append_errors.load(Ordering::Relaxed)
    }

    /// Rows accepted (new digests) since this sink opened.
    pub fn rows_recorded(&self) -> usize {
        self.rows_recorded.load(Ordering::Relaxed)
    }

    /// Rows committed before this sink opened — what a resumed
    /// campaign can skip. Fixed at open, so it stays correct while
    /// new appends are still buffered.
    pub fn resumed_rows(&self) -> usize {
        self.resumed_rows
    }

    /// True when opening the store found nothing to recover — no torn
    /// tail, no adopted frames, no corruption, no missing segments.
    pub fn recovery_is_clean(&self) -> bool {
        match self.store.lock() {
            Ok(store) => store.recovery().is_clean(),
            Err(_) => false,
        }
    }

    /// The opening recovery report, one line.
    pub fn recovery_summary(&self) -> String {
        match self.store.lock() {
            Ok(store) => store.recovery().summary(),
            Err(_) => "store: lock poisoned".to_string(),
        }
    }

    /// One-line human summary for campaign drivers.
    pub fn summary(&self) -> String {
        let (committed, segments) = match self.store.lock() {
            Ok(store) => (store.rows_committed(), store.segment_count()),
            Err(_) => (0, 0),
        };
        format!(
            "store: rows committed {committed} (new {}, resumed {}), segments {}, append errors {}",
            self.rows_recorded(),
            self.resumed_rows(),
            segments,
            self.append_errors(),
        )
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

    fn tmpdir(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("corescope-sink-test-{label}-{:?}", std::thread::current().id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn row_of_uses_the_csv_axis_keys() {
        let scenario = bsp(3);
        let result = scenario.run().unwrap();
        let row = row_of(&scenario, scenario.digest(), &result);
        assert_eq!(&*row.system, "dmz");
        assert_eq!(&*row.workload, "bsp");
        assert_eq!(row.nranks, 2);
        assert_eq!(row.makespan.to_bits(), result.makespan.to_bits());
        assert_eq!(row.digest, scenario.digest().0);
    }

    #[test]
    fn sink_records_flushes_and_resumes() {
        let dir = tmpdir("resume");
        let scenario = bsp(4);
        let digest = scenario.digest();
        let result = scenario.run().unwrap();
        {
            let sink = StoreSink::open(&dir).unwrap();
            assert!(!sink.contains(digest));
            sink.record(&scenario, digest, &result);
            sink.record(&scenario, digest, &result); // duplicate: dropped
            sink.flush();
            assert_eq!(sink.rows_recorded(), 1);
            assert_eq!(sink.append_errors(), 0);
        }
        let sink = StoreSink::open(&dir).unwrap();
        assert!(sink.contains(digest), "committed digest must survive reopen");
        assert_eq!(sink.resumed_rows(), 1);
        let rows = sink.rows().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].digest, digest.0);
        // Mid-campaign: new appends sitting in the buffer must not
        // erode the resumed count.
        let fresh = bsp(7);
        sink.record(&fresh, fresh.digest(), &fresh.run().unwrap());
        assert_eq!(sink.resumed_rows(), 1);
        assert!(sink.summary().contains("resumed 1"), "{}", sink.summary());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
