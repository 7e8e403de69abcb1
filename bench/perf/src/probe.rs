//! The traced run's layer probe: calls each layer's public functions on a
//! sample of the workload's own scenarios, one span per call, so every
//! layer has spans in every traced run. Per-layer metrics are computed
//! from all spans of a name, the workload's own included.

use crate::gates::Checks;
use crate::lower;
use crate::report::pct;
use crate::workloads::{Ctx, WARM_COPIES};
use corescope_harness::aggregate::campaign_table;
use corescope_sched::json;
use corescope_sched::sink::row_of;
use corescope_sched::{ResultCache, Scenario, ScenarioResult, Scheduler, ServeConfig, Server};
use corescope_store::Store;
use std::io::Cursor;
use std::sync::Arc;

/// Probe numbers that are not plain span totals.
#[derive(Debug, Default)]
pub struct Probe {
    /// Window-1 in-memory serve calls: (call latency, echoed batch_ms), ms.
    pub window1: Vec<(f64, f64)>,
    /// Segments of the probe's store.
    pub segments: usize,
}

/// An in-memory cache holding `results`, keyed by the sample's digests.
fn filled_cache(sample: &[Scenario], results: &[ScenarioResult]) -> ResultCache {
    let cache = ResultCache::in_memory();
    for (s, r) in sample.iter().zip(results) {
        cache.put(s.digest(), r);
    }
    cache
}

/// Runs the probe over `sample`, counting wrong outputs in `checks`.
///
/// # Errors
///
/// When the probe's scratch store cannot be created or read.
pub fn run(ctx: &Ctx, sample: &[Scenario], checks: &mut Checks) -> Result<Probe, String> {
    let t = &ctx.tracer;
    let mut probe = Probe::default();
    checks.attempt(sample.len());
    let (mut lowered, mut results) = (Vec::new(), Vec::new());
    for (i, s) in sample.iter().enumerate() {
        match lower::run(t, i as u64, s, true) {
            Ok(result) => {
                lowered.push(s.clone());
                results.push(result);
            }
            Err(e) => checks.expect(false, || format!("probe lowering {}: {e}", s.to_json())),
        }
    }
    let sample = &lowered[..];

    // Cold batches at jobs=1 and at `jobs` must match the bench-side
    // lowering bit for bit.
    for (name, jobs) in [("sched.cold_batch_serial", 1), ("sched.cold_batch_parallel", ctx.jobs)] {
        let sched = Scheduler::new(jobs);
        let outcomes = t.span(name, 0, sample.len() as u64, || sched.run_batch(sample));
        let wrong = outcomes
            .iter()
            .zip(&results)
            .filter(|(o, r)| o.as_ref().map(|d| &d.result).ok() != Some(*r))
            .count();
        checks.fail(wrong, || format!("probe: {wrong} jobs={jobs} results differ from lowering"));
    }

    let digests: Vec<_> = sample.iter().map(Scenario::digest).collect();
    let disk = ResultCache::on_disk(ctx.scratch.join("probe-cache"));
    for (i, (d, r)) in digests.iter().zip(&results).enumerate() {
        t.span("sched.cache_put_disk", i as u64, 1, || disk.put(*d, r));
    }
    let disk = ResultCache::on_disk(ctx.scratch.join("probe-cache"));
    for (i, (d, r)) in digests.iter().zip(&results).enumerate() {
        let hit = t.span("sched.cache_get_disk", i as u64, 1, || disk.get(*d));
        checks.expect(hit.map(|(r, _)| r).as_ref() == Some(r), || "probe: disk cache miss".into());
    }

    // A warm batch like replay's, and the work it does before dispatch
    // timed on its own over the same inputs: every input's digest (after
    // one untimed round, as the batch runs on a warm heap too) and one
    // memory-cache hit per distinct scenario.
    let warm: Vec<Scenario> = (0..WARM_COPIES).flat_map(|_| sample.iter().cloned()).collect();
    let n = warm.len() as u64;
    std::hint::black_box(warm.iter().map(Scenario::digest).collect::<Vec<_>>());
    t.span("sched.digest", 0, n, || {
        std::hint::black_box(warm.iter().map(Scenario::digest).collect::<Vec<_>>())
    });
    let memory = filled_cache(sample, &results);
    let got: Vec<_> = t.span("sched.cache_get_mem", 0, digests.len() as u64, || {
        digests.iter().map(|d| memory.get(*d)).collect()
    });
    let wrong = got
        .into_iter()
        .zip(&results)
        .filter(|(hit, r)| hit.as_ref().map(|(hit, _)| hit) != Some(*r))
        .count();
    checks.fail(wrong, || format!("probe: {wrong} memory cache lookups missed or differ"));
    let sched = Scheduler::with_cache(ctx.jobs, filled_cache(sample, &results));
    let outcomes = t.span("sched.warm_batch", 0, n, || sched.run_batch(&warm));
    let engine_runs = sched.stats().engine_runs;
    checks.expect(engine_runs == 0 && outcomes.iter().all(|o| o.is_ok()), || {
        format!("probe warm batch: {engine_runs} engine runs")
    });

    // Window-1 serve calls over in-memory I/O, then parse and render.
    let server = Server::new(
        Arc::new(Scheduler::with_cache(ctx.jobs, filled_cache(sample, &results))),
        ServeConfig::default(),
    );
    for (i, (s, d)) in sample.iter().zip(&digests).enumerate() {
        let line = format!("{}\n", s.to_json());
        let mut out = Vec::new();
        let started = std::time::Instant::now();
        let served = t.span("serve.request", i as u64, 1, || {
            server.serve_io(Cursor::new(line.as_bytes()), &mut out, "probe")
        });
        let latency = started.elapsed().as_secs_f64() * 1e3;
        let reply = String::from_utf8_lossy(&out);
        let echoed = json::parse(reply.trim_end())
            .ok()
            .filter(|v| v.get("digest").and_then(json::Value::as_str) == Some(d.hex().as_str()));
        match (served, echoed.and_then(|v| v.get("batch_ms").and_then(json::Value::as_f64))) {
            (Ok(()), Some(batch_ms)) => probe.window1.push((latency, batch_ms)),
            _ => checks.expect(false, || format!("probe serve: bad reply {reply:.120}")),
        }
        let parsed = t.span("serve.parse", i as u64, 1, || {
            json::parse(line.trim_end()).and_then(|v| Scenario::from_json(&v))
        });
        checks.expect(parsed.as_ref().ok() == Some(s), || "probe: JSON round trip differs".into());
    }
    for (i, r) in results.iter().enumerate() {
        std::hint::black_box(t.span("serve.render", i as u64, 1, || r.to_json()));
    }

    // Campaign store: append, flush, scan, aggregate, render.
    let dir = ctx.scratch.join("probe-store");
    let mut store = Store::open(&dir, corescope_sched::ENGINE_TAG).map_err(|e| e.to_string())?;
    for (i, ((s, d), r)) in sample.iter().zip(&digests).zip(&results).enumerate() {
        let row = row_of(s, *d, r);
        let appended = t.span("store.append", i as u64, 1, || store.append(row));
        checks.expect(appended.is_ok(), || "probe: store append failed".into());
    }
    let flushed = t.span("store.flush", 0, 1, || store.flush());
    checks.expect(flushed.is_ok(), || "probe: store flush failed".into());
    drop(store);
    let rows = t
        .span("store.scan", 0, sample.len() as u64, || {
            let store = Store::open_reader(&dir)?;
            probe.segments = store.segment_count();
            store.rows()
        })
        .map_err(|e| e.to_string())?;
    checks.expect(rows.len() == sample.len(), || format!("probe: scanned {} rows", rows.len()));
    let table =
        t.span("harness.aggregate", 0, rows.len() as u64, || campaign_table("probe", &rows));
    std::hint::black_box(t.span("harness.render", 0, 1, || table.to_csv()));
    Ok(probe)
}

/// p50 of `latency - batch_ms` and of `batch_ms` over window-1 replies.
pub fn serve_split(window1: &[(f64, f64)]) -> (f64, f64) {
    let overhead: Vec<f64> = window1.iter().map(|(l, b)| l - b).collect();
    let batch: Vec<f64> = window1.iter().map(|(_, b)| *b).collect();
    (pct(&overhead, 50.0), pct(&batch, 50.0))
}
