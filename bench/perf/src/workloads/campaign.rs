//! `campaign`: distinct cheap scenarios in fixed-size batches through a
//! scheduler with the on-disk result cache and a campaign store (the cold
//! pass), then cycles of three steps over the whole campaign:
//!
//! - write: the cold pass's rows appended to a fresh store, committed once
//!   per batch, as a campaign's sink does;
//! - resume: a fresh scheduler and sink over the cache and the cold store,
//!   rerunning every batch: every request a disk hit, no engine run, no
//!   new row;
//! - scan: the store just written, read back, aggregated into the campaign
//!   table and rendered.
//!
//! `ops_per_s` weighs the three steps' rates (rows or requests per
//! second) equally, so a regression in the store's writes, the cache's
//! reads or the scans moves it whatever each step's share of the time;
//! a latency is one cycle. The cold pass is timed and printed but not
//! gated: it creates a cache entry, a temporary file and a lock file per
//! scenario, and on a shared host it took from 1.3 to 10.9 s over ten runs
//! of the same 10,000 scenarios.

use super::{bits, sample, setup, Counts, Ctx, Run, Timed};
use crate::gates::seeded_key;
use crate::gen::{self, Universe};
use crate::report::Metric;
use corescope_harness::aggregate::campaign_table;
use corescope_sched::sink::row_of;
use corescope_sched::{ResultCache, Scenario, ScenarioResult, Scheduler, StoreSink, ENGINE_TAG};
use corescope_store::{Options, Store, StoreError};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One pass over every batch.
struct Pass {
    results: Vec<Option<ScenarioResult>>,
    rows_recorded: usize,
    /// Each batch's call.
    batches: Vec<Timed>,
}

/// One commit per batch instead of one per 128 rows.
fn store_options(ctx: &Ctx) -> Options {
    Options { flush_rows: ctx.size.campaign_batch, ..Options::default() }
}

/// Runs every batch through a fresh scheduler and sink over `dir`.
fn pass(
    ctx: &Ctx,
    run: &mut Run,
    dir: &Path,
    scenarios: &[Scenario],
    label: &str,
) -> Result<Pass, String> {
    let options = store_options(ctx);
    let sink =
        ctx.tracer.span("store.open", 0, 1, || StoreSink::open_with(dir.join("store"), options));
    let sink = Arc::new(sink.map_err(|e| format!("campaign {label}: opening the store: {e}"))?);
    let cache = ResultCache::on_disk(dir.join("cache"));
    let sched = Scheduler::with_cache(ctx.jobs, cache).with_store(Arc::clone(&sink));
    let mut out = Pass {
        results: Vec::with_capacity(scenarios.len()),
        rows_recorded: 0,
        batches: Vec::new(),
    };
    for (b, batch) in scenarios.chunks(ctx.size.campaign_batch).enumerate() {
        ctx.host.tick();
        let call = Instant::now();
        let outcomes = ctx
            .tracer
            .span("sched.run_batch", b as u64, batch.len() as u64, || sched.run_batch(batch));
        out.batches.push(Timed::since(call));
        run.checks.attempt(batch.len());
        for outcome in outcomes {
            out.results.push(match outcome {
                Ok(done) => Some(done.result),
                Err(e) => {
                    run.checks.expect(false, || format!("campaign {label}: {e}"));
                    None
                }
            });
        }
    }
    let stats = sched.stats();
    run.checks.expect(stats.store_errors == 0 && stats.disk_errors == 0, || {
        format!(
            "campaign {label}: {} store and {} cache errors",
            stats.store_errors, stats.disk_errors
        )
    });
    run.sched = run.sched + Counts::of(&stats);
    out.rows_recorded = sink.rows_recorded();
    Ok(out)
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let n = ctx.size.campaign_rows;
    let dir = ctx.scratch.join("campaign");
    let ((scenarios, probe), setup_s) = setup(ctx, || {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let universe = Universe::new()?;
        let scenarios = gen::cheap(&universe, ctx.seed, n);
        let probe = sample(&scenarios, ctx.size.sample);
        Ok((scenarios, probe))
    })?;
    let mut run = Run { setup_s, sample: probe, ..Run::default() };

    run.begin(ctx);
    let cold = pass(ctx, &mut run, &dir, &scenarios, "cold")?;
    let engine_runs = run.sched.engine_runs;
    run.checks.expect(cold.rows_recorded == n && engine_runs == n, || {
        format!(
            "campaign cold: {} rows, {engine_runs} engine runs, {n} scenarios",
            cold.rows_recorded
        )
    });
    let rows: Vec<_> = scenarios
        .iter()
        .zip(&cold.results)
        .filter_map(|(s, r)| Some(row_of(s, s.digest(), r.as_ref()?)))
        .collect();

    let mut csvs = Vec::new();
    for c in 0..ctx.size.campaign_cycles {
        let k = c as u64;
        let written = dir.join(format!("written-{c}"));
        let batch = rows.clone();
        ctx.host.tick();
        let started = Instant::now();
        let committed = ctx.tracer.span("store.write", k, n as u64, || {
            let mut store = Store::open_with(&written, ENGINE_TAG, store_options(ctx))?;
            for row in batch {
                store.append(row)?;
            }
            store.flush()?;
            Ok::<_, StoreError>(store.rows_committed())
        });
        let write = Timed::since(started);
        run.step("write", n as f64, [write]);
        let committed = committed.map_err(|e| format!("campaign write {c}: {e}"))? as usize;
        run.checks.attempt(n);
        run.checks.fail(n.saturating_sub(committed), || {
            format!("campaign write {c}: {committed} of {n} rows committed")
        });

        let before = run.sched;
        let resumed = pass(ctx, &mut run, &dir, &scenarios, "resume")?;
        run.step("resume", n as f64, resumed.batches.iter().copied());
        let engine_runs = run.sched.engine_runs - before.engine_runs;
        let hits = run.sched.hits_disk - before.hits_disk;
        let new_rows = resumed.rows_recorded;
        run.checks.expect(engine_runs == 0 && new_rows == 0 && hits == n, || {
            format!(
                "campaign resume {c}: {engine_runs} engine runs, {new_rows} new rows, {hits} disk \
                 hits"
            )
        });
        let differ = resumed
            .results
            .iter()
            .zip(&cold.results)
            .filter(|(a, b)| a.as_ref().map(bits) != b.as_ref().map(bits))
            .count();
        run.checks
            .fail(differ, || format!("campaign resume {c}: {differ} results differ from cold"));

        ctx.host.tick();
        let started = Instant::now();
        let scanned = ctx.tracer.span("store.scan", k, n as u64, || {
            let store = Store::open_reader(&written)?;
            Ok::<_, StoreError>((store.segment_count(), store.rows()?))
        });
        let (segments, scanned) = scanned.map_err(|e| format!("campaign scan {c}: {e}"))?;
        let table = ctx.tracer.span("harness.aggregate", k, scanned.len() as u64, || {
            campaign_table("campaign", &scanned)
        });
        csvs.push(ctx.tracer.span("harness.render", k, 1, || table.to_csv()));
        let scan = Timed::since(started);
        run.step("scan", n as f64, [scan]);
        run.segments = Some(segments);
        run.checks.attempt(1);
        run.checks
            .expect(scanned.len() == n, || format!("campaign scan {c}: {} rows", scanned.len()));

        run.latencies.push([vec![write], resumed.batches, vec![scan]].concat());
        let _ = std::fs::remove_dir_all(&written);
    }
    run.end(ctx, &ctx.host)?;

    // Every written store must aggregate to what the campaign's own sink
    // stored in the cold pass.
    let cold_rows = Store::open_reader(&dir.join("store"))
        .and_then(|store| store.rows())
        .map_err(|e| format!("campaign: reading the cold store: {e}"))?;
    let cold_csv = campaign_table("campaign", &cold_rows).to_csv();
    let differ = csvs.iter().filter(|csv| **csv != cold_csv).count();
    run.checks.fail(differ, || format!("campaign: {differ} written stores aggregate differently"));
    let crc = corescope_store::frame::crc32(cold_csv.as_bytes());
    ctx.gates.check(&mut run.checks, "campaign", &seeded_key(ctx.seed, ctx.seconds), crc);

    run.details.extend([
        Metric::new("campaign.rows", n as f64, "count"),
        Metric::new("campaign.cold_wall_s", cold.batches.iter().map(Timed::wall_s).sum(), "s"),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(run)
}
